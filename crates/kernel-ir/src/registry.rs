//! Kernel registry: IR definitions + native closures + cached analysis.
//!
//! A registry is the analogue of the compiled program: the IR definitions
//! are what the "compiler pass" ([`crate::analysis`]) sees, the native
//! closures are the "fat binary" the simulated device executes, and the
//! cached [`AnalysisResult`] is the kernel-analysis data the pass hands to
//! the host-side instrumentation (paper Fig. 7, steps 2 and 4).

use crate::analysis::{self, AccessAttr, AnalysisResult};
use crate::ast::{KernelDef, KernelId, ValidationError};
use crate::interp::InterpError;
use sim_mem::Ptr;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// Launch geometry: `<<<blocks, threads_per_block>>>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchGrid {
    /// Number of blocks.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u64,
}

impl LaunchGrid {
    /// Grid covering at least `n` threads with the given block size.
    pub fn cover(n: u64, threads_per_block: u64) -> LaunchGrid {
        assert!(threads_per_block > 0, "block size must be positive");
        LaunchGrid {
            blocks: n.div_ceil(threads_per_block).max(1),
            threads_per_block,
        }
    }

    /// Grid covering at least `n` threads with 256-thread blocks.
    pub fn linear(n: u64) -> LaunchGrid {
        Self::cover(n, 256)
    }

    /// Total number of launched threads.
    pub fn total(&self) -> u64 {
        self.blocks * self.threads_per_block
    }
}

/// A kernel-launch argument, as passed at the call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchArg {
    /// Device pointer (UVA).
    Ptr(Ptr),
    /// `f64` scalar.
    F64(f64),
    /// `i64` scalar.
    I64(i64),
}

/// A bound native argument: scalars by value, buffers as slices. The
/// launcher binds write-attributed arguments mutably and read-only
/// arguments shared — a runtime cross-check of the dataflow analysis.
#[derive(Debug)]
pub enum NativeArg<'a> {
    /// Scalar `f64`.
    F64(f64),
    /// Scalar `i64`.
    I64(i64),
    /// Writable `f64` buffer.
    MutF64(&'a mut [f64]),
    /// Read-only `f64` buffer.
    RefF64(&'a [f64]),
    /// Writable `f32` buffer.
    MutF32(&'a mut [f32]),
    /// Read-only `f32` buffer.
    RefF32(&'a [f32]),
    /// Writable `i64` buffer.
    MutI64(&'a mut [i64]),
    /// Read-only `i64` buffer.
    RefI64(&'a [i64]),
    /// Writable `i32` buffer.
    MutI32(&'a mut [i32]),
    /// Read-only `i32` buffer.
    RefI32(&'a [i32]),
}

/// Execution context handed to a native kernel closure.
#[derive(Debug)]
pub struct NativeCtx<'a> {
    /// Total launched threads (`gridDim.x * blockDim.x`).
    pub grid: u64,
    kernel: &'a str,
    args: Vec<NativeArg<'a>>,
}

/// Split a mutable slice into disjoint `&mut` element references at the
/// given (distinct) indices, returned in the order requested.
fn disjoint_muts<'s, 'a>(
    args: &'s mut [NativeArg<'a>],
    idxs: &[usize],
) -> Vec<&'s mut NativeArg<'a>> {
    let mut order: Vec<(usize, usize)> = idxs.iter().copied().enumerate().collect();
    order.sort_by_key(|&(_, i)| i);
    for w in order.windows(2) {
        assert_ne!(w[0].1, w[1].1, "duplicate argument index in split");
    }
    let mut out: Vec<Option<&'s mut NativeArg<'a>>> = idxs.iter().map(|_| None).collect();
    let mut rest: &'s mut [NativeArg<'a>] = args;
    let mut consumed = 0usize;
    for (pos, idx) in order {
        let tmp = rest;
        let (_, right) = tmp.split_at_mut(idx - consumed);
        let (item, right) = right.split_first_mut().expect("index in range");
        out[pos] = Some(item);
        rest = right;
        consumed = idx + 1;
    }
    out.into_iter().map(|o| o.expect("filled")).collect()
}

macro_rules! ctx_accessors {
    ($shared:ident, $muta:ident, $split:ident, $t:ty, $Mut:ident, $Ref:ident) => {
        /// Read-only view of a buffer argument.
        pub fn $shared(&self, i: usize) -> &[$t] {
            match &self.args[i] {
                NativeArg::$Mut(b) => b,
                NativeArg::$Ref(b) => b,
                other => panic!(
                    "{}: argument {i} is not a {} buffer: {other:?}",
                    self.kernel,
                    stringify!($t)
                ),
            }
        }

        /// Mutable view of a buffer argument; panics if the launcher bound
        /// it read-only (i.e. the pass did not mark it written).
        pub fn $muta(&mut self, i: usize) -> &mut [$t] {
            match &mut self.args[i] {
                NativeArg::$Mut(b) => b,
                NativeArg::$Ref(_) => panic!(
                    "{}: argument {i} bound read-only; the access analysis \
                     did not mark it written but the native kernel mutates it",
                    self.kernel
                ),
                other => panic!(
                    "{}: argument {i} is not a {} buffer: {other:?}",
                    self.kernel,
                    stringify!($t)
                ),
            }
        }

        /// Disjoint mutable + shared views: `writes` borrowed mutably,
        /// `reads` shared; all indices must be distinct.
        pub fn $split<'s>(
            &'s mut self,
            writes: &[usize],
            reads: &[usize],
        ) -> (Vec<&'s mut [$t]>, Vec<&'s [$t]>) {
            let kernel = self.kernel;
            let all: Vec<usize> = writes.iter().chain(reads.iter()).copied().collect();
            let parts = disjoint_muts(&mut self.args, &all);
            let mut ws = Vec::with_capacity(writes.len());
            let mut rs = Vec::with_capacity(reads.len());
            for (k, part) in parts.into_iter().enumerate() {
                if k < writes.len() {
                    match part {
                        NativeArg::$Mut(b) => ws.push(&mut **b),
                        NativeArg::$Ref(_) => {
                            panic!("{kernel}: write-split of read-only argument {}", all[k])
                        }
                        other => panic!("{kernel}: argument {} type mismatch: {other:?}", all[k]),
                    }
                } else {
                    match part {
                        NativeArg::$Mut(b) => rs.push(&**b),
                        NativeArg::$Ref(b) => rs.push(*b),
                        other => panic!("{kernel}: argument {} type mismatch: {other:?}", all[k]),
                    }
                }
            }
            (ws, rs)
        }
    };
}

impl<'a> NativeCtx<'a> {
    /// Build a context (used by the device executor).
    pub fn new(kernel: &'a str, grid: u64, args: Vec<NativeArg<'a>>) -> Self {
        NativeCtx { grid, kernel, args }
    }

    /// The launched kernel's name, for the errors a native returns.
    pub fn kernel(&self) -> &'a str {
        self.kernel
    }

    /// Scalar `f64` argument.
    pub fn f64_arg(&self, i: usize) -> f64 {
        match self.args[i] {
            NativeArg::F64(v) => v,
            ref other => panic!("{}: argument {i} is not f64: {other:?}", self.kernel),
        }
    }

    /// Scalar `i64` argument.
    pub fn i64_arg(&self, i: usize) -> i64 {
        match self.args[i] {
            NativeArg::I64(v) => v,
            ref other => panic!("{}: argument {i} is not i64: {other:?}", self.kernel),
        }
    }

    ctx_accessors!(f64s, f64s_mut, split_f64, f64, MutF64, RefF64);
    ctx_accessors!(f32s, f32s_mut, split_f32, f32, MutF32, RefF32);
    ctx_accessors!(i64s, i64s_mut, split_i64, i64, MutI64, RefI64);
    ctx_accessors!(i32s, i32s_mut, split_i32, i32, MutI32, RefI32);
}

/// A native kernel implementation (the "fat binary" body). A launch that
/// would index past a bound buffer returns the interpreter's
/// [`InterpError::OutOfBounds`] instead of touching memory.
pub type NativeKernel = Arc<dyn Fn(&mut NativeCtx<'_>) -> Result<(), InterpError> + Send + Sync>;

/// Registration errors.
#[derive(Debug)]
pub enum RegistryError {
    /// A kernel with this name is already registered.
    DuplicateName(String),
    /// Structural validation failed.
    Invalid(ValidationError),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateName(n) => write!(f, "kernel {n:?} already registered"),
            RegistryError::Invalid(e) => write!(f, "invalid kernel: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<ValidationError> for RegistryError {
    fn from(e: ValidationError) -> Self {
        RegistryError::Invalid(e)
    }
}

/// The kernel registry. Shared read-only (`Arc`) across simulated ranks
/// after construction.
pub struct KernelRegistry {
    defs: Vec<KernelDef>,
    natives: Vec<Option<NativeKernel>>,
    by_name: HashMap<String, KernelId>,
    analysis: RwLock<Option<Arc<AnalysisResult>>>,
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelRegistry")
            .field(
                "kernels",
                &self.defs.iter().map(|d| &d.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

struct DefsLookup<'a>(&'a [KernelDef]);

impl crate::ast::KernelLookup for DefsLookup<'_> {
    fn lookup(&self, id: KernelId) -> Option<&KernelDef> {
        self.0.get(id.0 as usize)
    }
}

impl KernelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        KernelRegistry {
            defs: Vec::new(),
            natives: Vec::new(),
            by_name: HashMap::new(),
            analysis: RwLock::new(None),
        }
    }

    /// Register a kernel, validating its structure. Callees must be
    /// registered before callers (self-recursion excepted).
    pub fn register(
        &mut self,
        def: KernelDef,
        native: Option<NativeKernel>,
    ) -> Result<KernelId, RegistryError> {
        if self.by_name.contains_key(&def.name) {
            return Err(RegistryError::DuplicateName(def.name.clone()));
        }
        let id = KernelId(self.defs.len() as u32);
        def.validate(&DefsLookup(&self.defs), id)?;
        self.by_name.insert(def.name.clone(), id);
        self.defs.push(def);
        self.natives.push(native);
        *self.analysis.write().expect("analysis lock") = None;
        Ok(id)
    }

    /// Register an IR-only kernel (executed via the interpreter).
    pub fn register_ir(&mut self, def: KernelDef) -> Result<KernelId, RegistryError> {
        self.register(def, None)
    }

    /// The definition of a kernel.
    pub fn def(&self, id: KernelId) -> &KernelDef {
        &self.defs[id.0 as usize]
    }

    /// All definitions, indexed by [`KernelId`] (for the interpreter).
    pub fn defs(&self) -> &[KernelDef] {
        &self.defs
    }

    /// Native implementation, if registered.
    pub fn native(&self, id: KernelId) -> Option<NativeKernel> {
        self.natives[id.0 as usize].clone()
    }

    /// Lookup by name.
    pub fn id_of(&self, name: &str) -> Option<KernelId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The (cached) interprocedural access analysis over all kernels —
    /// the "kernel analysis data" of paper Fig. 7.
    pub fn analysis(&self) -> Arc<AnalysisResult> {
        if let Some(a) = self.analysis.read().expect("analysis lock").as_ref() {
            return Arc::clone(a);
        }
        let mut guard = self.analysis.write().expect("analysis lock");
        if let Some(a) = guard.as_ref() {
            return Arc::clone(a);
        }
        let a = Arc::new(analysis::analyze(&self.defs));
        *guard = Some(Arc::clone(&a));
        a
    }

    /// Access attributes of one kernel's parameters.
    pub fn attrs(&self, id: KernelId) -> Vec<AccessAttr> {
        self.analysis().kernel(id).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ScalarTy;
    use crate::builder::*;

    fn copy_kernel() -> KernelDef {
        let mut b = KernelBuilder::new("copy");
        let dst = b.ptr_param("dst", ScalarTy::F64);
        let src = b.ptr_param("src", ScalarTy::F64);
        b.store(dst, tid(), load(src, tid()));
        b.finish()
    }

    #[test]
    fn grid_cover_and_total() {
        let g = LaunchGrid::cover(1000, 256);
        assert_eq!(g.blocks, 4);
        assert_eq!(g.total(), 1024);
        assert_eq!(LaunchGrid::cover(0, 128).blocks, 1);
        assert_eq!(LaunchGrid::linear(256).total(), 256);
    }

    #[test]
    fn register_and_lookup() {
        let mut r = KernelRegistry::new();
        let id = r.register_ir(copy_kernel()).unwrap();
        assert_eq!(r.id_of("copy"), Some(id));
        assert_eq!(r.def(id).name, "copy");
        assert_eq!(r.len(), 1);
        assert!(r.native(id).is_none());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut r = KernelRegistry::new();
        r.register_ir(copy_kernel()).unwrap();
        assert!(matches!(
            r.register_ir(copy_kernel()),
            Err(RegistryError::DuplicateName(_))
        ));
    }

    #[test]
    fn invalid_kernel_rejected() {
        let mut b = KernelBuilder::new("bad");
        let _p = b.ptr_param("p", ScalarTy::F64);
        let mut def = b.finish();
        def.body = vec![crate::ast::Stmt::Let(0, crate::ast::Expr::ConstI(0))];
        let mut r = KernelRegistry::new();
        assert!(matches!(r.register_ir(def), Err(RegistryError::Invalid(_))));
    }

    #[test]
    fn analysis_cached_and_invalidated() {
        let mut r = KernelRegistry::new();
        let id = r.register_ir(copy_kernel()).unwrap();
        let a1 = r.analysis();
        let a2 = r.analysis();
        assert!(Arc::ptr_eq(&a1, &a2), "second call hits the cache");
        assert_eq!(a1.param(id, 0), AccessAttr::WRITE);
        assert_eq!(a1.param(id, 1), AccessAttr::READ);
        // Registering invalidates.
        let mut b = KernelBuilder::new("other");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.store(p, tid(), cf(0.0));
        r.register_ir(b.finish()).unwrap();
        let a3 = r.analysis();
        assert!(!Arc::ptr_eq(&a1, &a3));
        assert_eq!(a3.len(), 2);
    }

    #[test]
    fn native_kernel_stored_and_invocable() {
        let mut r = KernelRegistry::new();
        let native: NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
            let v = ctx.f64_arg(1);
            let grid = ctx.grid;
            let out = ctx.f64s_mut(0);
            for t in 0..grid.min(out.len() as u64) {
                out[t as usize] = v;
            }
            Ok(())
        });
        let mut b = KernelBuilder::new("fill");
        let p = b.ptr_param("p", ScalarTy::F64);
        let v = b.scalar_param("v", ScalarTy::F64);
        b.if_(tid().lt(grid_size()), |b| b.store(p, tid(), v.get()));
        let id = r.register(b.finish(), Some(native)).unwrap();
        let f = r.native(id).unwrap();
        let mut buf = vec![0.0f64; 4];
        let mut ctx = NativeCtx::new(
            "fill",
            4,
            vec![NativeArg::MutF64(&mut buf), NativeArg::F64(7.0)],
        );
        f(&mut ctx).unwrap();
        assert_eq!(buf, vec![7.0; 4]);
    }

    #[test]
    fn split_yields_disjoint_views() {
        let mut out = vec![0.0f64; 4];
        let inp = vec![1.0f64, 2.0, 3.0, 4.0];
        let mut ctx = NativeCtx::new(
            "k",
            4,
            vec![
                NativeArg::MutF64(&mut out),
                NativeArg::RefF64(&inp),
                NativeArg::F64(2.0),
            ],
        );
        let a = ctx.f64_arg(2);
        let (mut ws, rs) = ctx.split_f64(&[0], &[1]);
        for (o, i) in ws[0].iter_mut().zip(rs[0]) {
            *o = a * i;
        }
        drop((ws, rs));
        assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn split_order_independent_of_index_order() {
        let mut a = vec![1.0f64];
        let mut b = vec![2.0f64];
        let c = vec![3.0f64];
        let mut ctx = NativeCtx::new(
            "k",
            1,
            vec![
                NativeArg::MutF64(&mut a),
                NativeArg::MutF64(&mut b),
                NativeArg::RefF64(&c),
            ],
        );
        // Writes listed in descending index order.
        let (ws, rs) = ctx.split_f64(&[1, 0], &[2]);
        assert_eq!(ws[0][0], 2.0, "first write is arg 1");
        assert_eq!(ws[1][0], 1.0, "second write is arg 0");
        assert_eq!(rs[0][0], 3.0);
    }

    #[test]
    #[should_panic(expected = "duplicate argument index")]
    fn split_rejects_duplicates() {
        let mut a = vec![0.0f64];
        let mut ctx = NativeCtx::new("k", 1, vec![NativeArg::MutF64(&mut a)]);
        let _ = ctx.split_f64(&[0], &[0]);
    }

    #[test]
    #[should_panic(expected = "bound read-only")]
    fn mutating_read_only_binding_panics() {
        let a = vec![0.0f64];
        let mut ctx = NativeCtx::new("k", 1, vec![NativeArg::RefF64(&a)]);
        let _ = ctx.f64s_mut(0);
    }

    #[test]
    fn i32_accessors() {
        let mut buf = vec![0i32; 3];
        let mut ctx = NativeCtx::new("k", 3, vec![NativeArg::MutI32(&mut buf), NativeArg::I64(5)]);
        let v = ctx.i64_arg(1) as i32;
        for x in ctx.i32s_mut(0) {
            *x = v;
        }
        assert_eq!(ctx.i32s(0), &[5, 5, 5]);
    }
}
