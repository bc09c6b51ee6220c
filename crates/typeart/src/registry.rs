//! Compile-time type information: stable type ids and layouts.
//!
//! The real TypeART pass serializes the type layouts it finds in LLVM IR to
//! a file consumed by the runtime. Here the registry plays that role: apps
//! and the checked CUDA API register the element types of their buffers
//! and receive stable [`TypeId`]s. Built-in numeric types are pre-registered
//! with fixed ids so MPI-datatype compatibility checks (MUST) can match
//! against them without lookups.

use std::collections::HashMap;
use std::fmt;

/// Stable identifier of a registered type layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Unknown / untracked type.
    pub const UNKNOWN: TypeId = TypeId(0);
    /// `f64` (pre-registered).
    pub const F64: TypeId = TypeId(1);
    /// `f32` (pre-registered).
    pub const F32: TypeId = TypeId(2);
    /// `i32` (pre-registered).
    pub const I32: TypeId = TypeId(3);
    /// `i64` (pre-registered).
    pub const I64: TypeId = TypeId(4);
    /// `u8` (pre-registered).
    pub const U8: TypeId = TypeId(5);
}

/// Layout description of a registered type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeInfo {
    /// Human-readable name (`"f64"`, `"struct cell"`, …).
    pub name: String,
    /// Element size in bytes.
    pub size: u64,
}

/// The type registry ("compile-time type info", Fig. 2 step 1).
#[derive(Debug, Clone)]
pub struct TypeRegistry {
    types: Vec<TypeInfo>,
    by_name: HashMap<String, TypeId>,
}

impl Default for TypeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeRegistry {
    /// Registry with the built-in numeric types pre-registered.
    pub fn new() -> Self {
        let mut r = TypeRegistry {
            types: Vec::new(),
            by_name: HashMap::new(),
        };
        for (name, size) in [
            ("<unknown>", 0u64),
            ("f64", 8),
            ("f32", 4),
            ("i32", 4),
            ("i64", 8),
            ("u8", 1),
        ] {
            r.register(name, size);
        }
        debug_assert_eq!(r.id_of("f64"), Some(TypeId::F64));
        debug_assert_eq!(r.id_of("u8"), Some(TypeId::U8));
        r
    }

    /// Register a type layout (idempotent per name).
    ///
    /// # Panics
    ///
    /// Panics if the same name is re-registered with a different size —
    /// that would corrupt every downstream extent computation.
    pub fn register(&mut self, name: &str, size: u64) -> TypeId {
        if let Some(&id) = self.by_name.get(name) {
            assert_eq!(
                self.types[id.0 as usize].size, size,
                "type {name:?} re-registered with a different size"
            );
            return id;
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(TypeInfo {
            name: name.to_string(),
            size,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Info for an id.
    pub fn info(&self, id: TypeId) -> Option<&TypeInfo> {
        self.types.get(id.0 as usize)
    }

    /// Element size for an id (0 for unknown ids).
    pub fn size_of(&self, id: TypeId) -> u64 {
        self.info(id).map(|t| t.size).unwrap_or(0)
    }

    /// Lookup id by name.
    pub fn id_of(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Always false: the built-ins are pre-registered.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_fixed_ids() {
        let r = TypeRegistry::new();
        assert_eq!(r.id_of("f64"), Some(TypeId::F64));
        assert_eq!(r.id_of("f32"), Some(TypeId::F32));
        assert_eq!(r.id_of("i32"), Some(TypeId::I32));
        assert_eq!(r.id_of("i64"), Some(TypeId::I64));
        assert_eq!(r.id_of("u8"), Some(TypeId::U8));
        assert_eq!(r.size_of(TypeId::F64), 8);
        assert_eq!(r.size_of(TypeId::I32), 4);
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = TypeRegistry::new();
        let a = r.register("struct cell", 24);
        let b = r.register("struct cell", 24);
        assert_eq!(a, b);
        assert_eq!(r.info(a).unwrap().name, "struct cell");
    }

    #[test]
    #[should_panic(expected = "different size")]
    fn conflicting_size_panics() {
        let mut r = TypeRegistry::new();
        r.register("x", 8);
        r.register("x", 16);
    }

    #[test]
    fn unknown_id_size_zero() {
        let r = TypeRegistry::new();
        assert_eq!(r.size_of(TypeId(999)), 0);
        assert_eq!(r.size_of(TypeId::UNKNOWN), 0);
    }
}
