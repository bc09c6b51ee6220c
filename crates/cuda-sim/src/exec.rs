//! Kernel argument binding and device-side execution.
//!
//! At execution time each pointer argument is resolved through the UVA
//! address space to `(allocation, offset, remaining elements)` and bound
//! **mutably or shared according to the compiler pass's access attribute**
//! — a write-attributed argument gets an exclusive view, a read-only one a
//! shared view. A native kernel that mutates a read-bound argument panics,
//! turning any unsoundness of the analysis into an immediate test failure.
//!
//! If a kernel has no native closure, the reference interpreter runs over
//! the same bound views. On either path a launch that indexes past a bound
//! buffer is a [`CudaError::Kernel`] carrying the interpreter's error.

use crate::error::CudaError;
use kernel_ir::ast::{KernelDef, ParamTy, ScalarTy};
use kernel_ir::interp::{self, KValue, KernelMemory, RunArg};
use kernel_ir::registry::{NativeArg, NativeCtx};
use kernel_ir::{AccessAttr, KernelId, KernelRegistry, LaunchArg, LaunchGrid};
use parking_lot::{MappedRwLockReadGuard, MappedRwLockWriteGuard};
use sim_mem::space::Allocation;
use sim_mem::AddressSpace;
use std::sync::Arc;

/// Validate launch arguments against the kernel signature (done at enqueue
/// time, so misuse fails at the call site like a CUDA launch error).
pub(crate) fn validate_launch(
    space: &AddressSpace,
    def: &KernelDef,
    args: &[LaunchArg],
) -> Result<(), CudaError> {
    if def.params.len() != args.len() {
        return Err(CudaError::BadKernelArity {
            kernel: def.name.clone(),
            expected: def.params.len(),
            got: args.len(),
        });
    }
    for (i, (p, a)) in def.params.iter().zip(args).enumerate() {
        match (p.ty, a) {
            (ParamTy::Ptr(_), LaunchArg::Ptr(ptr)) => {
                let attr = space.attributes(*ptr).map_err(CudaError::Mem)?;
                if !attr.kind.device_accessible() {
                    return Err(CudaError::BadKernelArg {
                        kernel: def.name.clone(),
                        index: i,
                        expected: format!("device-accessible pointer, got {} memory", attr.kind),
                    });
                }
            }
            (ParamTy::Scalar(t), LaunchArg::F64(_)) if t.is_float() => {}
            (ParamTy::Scalar(t), LaunchArg::I64(_)) if !t.is_float() => {}
            _ => {
                return Err(CudaError::BadKernelArg {
                    kernel: def.name.clone(),
                    index: i,
                    expected: format!("{:?}", p.ty),
                });
            }
        }
    }
    Ok(())
}

/// A pointer argument bound to its allocation.
struct Binding {
    alloc: Arc<Allocation>,
    byte_off: u64,
    elems: u64,
    ty: ScalarTy,
    writable: bool,
}

enum BoundBuf<'a> {
    WF64(MappedRwLockWriteGuard<'a, [f64]>),
    RF64(MappedRwLockReadGuard<'a, [f64]>),
    WF32(MappedRwLockWriteGuard<'a, [f32]>),
    RF32(MappedRwLockReadGuard<'a, [f32]>),
    WI64(MappedRwLockWriteGuard<'a, [i64]>),
    RI64(MappedRwLockReadGuard<'a, [i64]>),
    WI32(MappedRwLockWriteGuard<'a, [i32]>),
    RI32(MappedRwLockReadGuard<'a, [i32]>),
}

impl BoundBuf<'_> {
    fn len(&self) -> u64 {
        match self {
            BoundBuf::WF64(g) => g.len() as u64,
            BoundBuf::RF64(g) => g.len() as u64,
            BoundBuf::WF32(g) => g.len() as u64,
            BoundBuf::RF32(g) => g.len() as u64,
            BoundBuf::WI64(g) => g.len() as u64,
            BoundBuf::RI64(g) => g.len() as u64,
            BoundBuf::WI32(g) => g.len() as u64,
            BoundBuf::RI32(g) => g.len() as u64,
        }
    }
}

struct GuardMemory<'a> {
    bufs: Vec<BoundBuf<'a>>,
    /// First slot the kernel stored into without a write binding (the
    /// access analysis failed to mark a written argument). The trait's
    /// `store` cannot fail, so the violation is recorded here — the store
    /// is dropped — and surfaced as a typed error after the run.
    bad_store: Option<usize>,
}

impl KernelMemory for GuardMemory<'_> {
    fn len(&self, slot: usize) -> u64 {
        self.bufs[slot].len()
    }

    fn load(&self, slot: usize, idx: u64) -> KValue {
        let i = idx as usize;
        match &self.bufs[slot] {
            BoundBuf::WF64(g) => KValue::F(g[i]),
            BoundBuf::RF64(g) => KValue::F(g[i]),
            BoundBuf::WF32(g) => KValue::F(f64::from(g[i])),
            BoundBuf::RF32(g) => KValue::F(f64::from(g[i])),
            BoundBuf::WI64(g) => KValue::I(g[i]),
            BoundBuf::RI64(g) => KValue::I(g[i]),
            BoundBuf::WI32(g) => KValue::I(i64::from(g[i])),
            BoundBuf::RI32(g) => KValue::I(i64::from(g[i])),
        }
    }

    fn store(&mut self, slot: usize, idx: u64, v: KValue) {
        let i = idx as usize;
        match (&mut self.bufs[slot], v) {
            (BoundBuf::WF64(g), KValue::F(x)) => g[i] = x,
            (BoundBuf::WF32(g), KValue::F(x)) => g[i] = x as f32,
            (BoundBuf::WI64(g), KValue::I(x)) => g[i] = x,
            (BoundBuf::WI32(g), KValue::I(x)) => g[i] = x as i32,
            _ => {
                self.bad_store.get_or_insert(slot);
            }
        }
    }
}

/// Signature/argument mismatch that survived past enqueue-time validation
/// (registry swapped between enqueue and drain, or an internal binding
/// bug): surfaced as the same typed error the enqueue check raises instead
/// of a panic.
fn bad_arg(def: &KernelDef, index: usize) -> CudaError {
    CudaError::BadKernelArg {
        kernel: def.name.clone(),
        index,
        expected: "argument consistent with the signature validated at enqueue".to_string(),
    }
}

/// Execute one kernel launch. See module docs.
pub(crate) fn execute_kernel(
    space: &AddressSpace,
    registry: &KernelRegistry,
    kernel: KernelId,
    grid: LaunchGrid,
    args: &[LaunchArg],
) -> Result<(), CudaError> {
    let def = registry.def(kernel);
    let attrs = registry.attrs(kernel);
    debug_assert_eq!(def.params.len(), args.len(), "validated at enqueue");

    // Resolve pointer arguments.
    let mut bindings: Vec<Option<Binding>> = Vec::with_capacity(args.len());
    for (i, (p, a)) in def.params.iter().zip(args).enumerate() {
        match (p.ty, a) {
            (ParamTy::Ptr(ty), LaunchArg::Ptr(ptr)) => {
                let alloc = space.find(*ptr).map_err(CudaError::Mem)?;
                let byte_off = ptr.0 - alloc.base().0;
                let elems = (alloc.len() - byte_off) / ty.size();
                bindings.push(Some(Binding {
                    alloc,
                    byte_off,
                    elems,
                    ty,
                    writable: attrs
                        .get(i)
                        .copied()
                        .unwrap_or(AccessAttr::READ_WRITE)
                        .write,
                }));
            }
            _ => bindings.push(None),
        }
    }

    // Take guards according to access attributes.
    let mut bufs: Vec<BoundBuf<'_>> = Vec::new();
    let mut slot_of_param: Vec<Option<usize>> = vec![None; args.len()];
    for (i, b) in bindings.iter().enumerate() {
        let Some(b) = b else { continue };
        let g = match (b.ty, b.writable) {
            (ScalarTy::F64, true) => BoundBuf::WF64(b.alloc.write_slice(b.byte_off, b.elems)),
            (ScalarTy::F64, false) => BoundBuf::RF64(b.alloc.read_slice(b.byte_off, b.elems)),
            (ScalarTy::F32, true) => BoundBuf::WF32(b.alloc.write_slice(b.byte_off, b.elems)),
            (ScalarTy::F32, false) => BoundBuf::RF32(b.alloc.read_slice(b.byte_off, b.elems)),
            (ScalarTy::I64, true) => BoundBuf::WI64(b.alloc.write_slice(b.byte_off, b.elems)),
            (ScalarTy::I64, false) => BoundBuf::RI64(b.alloc.read_slice(b.byte_off, b.elems)),
            (ScalarTy::I32, true) => BoundBuf::WI32(b.alloc.write_slice(b.byte_off, b.elems)),
            (ScalarTy::I32, false) => BoundBuf::RI32(b.alloc.read_slice(b.byte_off, b.elems)),
        };
        slot_of_param[i] = Some(bufs.len());
        bufs.push(g);
    }

    if let Some(native) = registry.native(kernel) {
        // Native path: hand slices to the closure.
        let mut native_args: Vec<NativeArg<'_>> = Vec::with_capacity(args.len());
        // Build in reverse-safe order: drain bufs into an indexable pool of
        // &mut; simplest is to consume `bufs` into per-param args directly.
        let mut buf_iter = bufs.iter_mut();
        for (i, (p, a)) in def.params.iter().zip(args).enumerate() {
            match (p.ty, a) {
                (ParamTy::Ptr(_), LaunchArg::Ptr(_)) => {
                    let buf = buf_iter.next().ok_or_else(|| bad_arg(def, i))?;
                    native_args.push(match buf {
                        BoundBuf::WF64(g) => NativeArg::MutF64(g),
                        BoundBuf::RF64(g) => NativeArg::RefF64(g),
                        BoundBuf::WF32(g) => NativeArg::MutF32(g),
                        BoundBuf::RF32(g) => NativeArg::RefF32(g),
                        BoundBuf::WI64(g) => NativeArg::MutI64(g),
                        BoundBuf::RI64(g) => NativeArg::RefI64(g),
                        BoundBuf::WI32(g) => NativeArg::MutI32(g),
                        BoundBuf::RI32(g) => NativeArg::RefI32(g),
                    });
                }
                (_, LaunchArg::F64(v)) => native_args.push(NativeArg::F64(*v)),
                (_, LaunchArg::I64(v)) => native_args.push(NativeArg::I64(*v)),
                _ => return Err(bad_arg(def, i)),
            }
        }
        let mut ctx = NativeCtx::new(&def.name, grid.total(), native_args);
        native(&mut ctx).map_err(CudaError::Kernel)
    } else {
        // Interpreter path over the same bound views.
        let mut run_args: Vec<RunArg> = Vec::with_capacity(args.len());
        for (i, (p, a)) in def.params.iter().zip(args).enumerate() {
            run_args.push(match (p.ty, a) {
                (ParamTy::Ptr(_), LaunchArg::Ptr(_)) => {
                    RunArg::Slot(slot_of_param[i].ok_or_else(|| bad_arg(def, i))?)
                }
                (_, LaunchArg::F64(v)) => RunArg::Val(KValue::F(*v)),
                (_, LaunchArg::I64(v)) => RunArg::Val(KValue::I(*v)),
                _ => return Err(bad_arg(def, i)),
            });
        }
        let mut mem = GuardMemory {
            bufs,
            bad_store: None,
        };
        let run = interp::run(registry.defs(), kernel, grid.total(), &run_args, &mut mem)
            .map_err(CudaError::Kernel);
        if let Some(slot) = mem.bad_store {
            let index = slot_of_param
                .iter()
                .position(|s| *s == Some(slot))
                .unwrap_or(slot);
            return Err(CudaError::BadKernelArg {
                kernel: def.name.clone(),
                index,
                expected: "write access attribute (kernel stored into a read-bound argument)"
                    .to_string(),
            });
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_ir::builder::*;
    use sim_mem::{DeviceId, MemKind};

    fn setup() -> (Arc<AddressSpace>, KernelRegistry) {
        (Arc::new(AddressSpace::new()), KernelRegistry::new())
    }

    const DEV: MemKind = MemKind::Device(DeviceId(0));

    fn scale_kernel(reg: &mut KernelRegistry) -> KernelId {
        let mut b = KernelBuilder::new("scale");
        let out = b.ptr_param("out", ScalarTy::F64);
        let inp = b.ptr_param("in", ScalarTy::F64);
        let f = b.scalar_param("f", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        b.if_(tid().lt(n.get()), |b| {
            b.store(out, tid(), load(inp, tid()) * f.get());
        });
        reg.register_ir(b.finish()).unwrap()
    }

    #[test]
    fn interpreter_execution_through_space() {
        let (space, mut reg) = setup();
        let k = scale_kernel(&mut reg);
        let a = space.alloc_array::<f64>(DEV, 4).unwrap();
        let b = space.alloc_array::<f64>(DEV, 4).unwrap();
        space
            .write_slice_data::<f64>(b, &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        execute_kernel(
            &space,
            &reg,
            k,
            LaunchGrid::cover(4, 2),
            &[
                LaunchArg::Ptr(a),
                LaunchArg::Ptr(b),
                LaunchArg::F64(3.0),
                LaunchArg::I64(4),
            ],
        )
        .unwrap();
        assert_eq!(
            space.read_vec::<f64>(a, 4).unwrap(),
            vec![3.0, 6.0, 9.0, 12.0]
        );
    }

    #[test]
    fn native_execution_preferred() {
        let (space, mut reg) = setup();
        let mut b = KernelBuilder::new("fill7");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.if_(tid().lt(grid_size()), |b| b.store(p, tid(), cf(0.0))); // IR says 0...
        let native: kernel_ir::NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
            for v in ctx.f64s_mut(0) {
                *v = 7.0; // ...native says 7, proving native ran
            }
            Ok(())
        });
        let k = reg.register(b.finish(), Some(native)).unwrap();
        let p = space.alloc_array::<f64>(DEV, 3).unwrap();
        execute_kernel(
            &space,
            &reg,
            k,
            LaunchGrid::cover(3, 3),
            &[LaunchArg::Ptr(p)],
        )
        .unwrap();
        assert_eq!(space.read_vec::<f64>(p, 3).unwrap(), vec![7.0; 3]);
    }

    #[test]
    fn offset_pointer_binds_suffix() {
        let (space, mut reg) = setup();
        let k = scale_kernel(&mut reg);
        let a = space.alloc_array::<f64>(DEV, 8).unwrap();
        let b = space.alloc_array::<f64>(DEV, 8).unwrap();
        space.write_slice_data::<f64>(b, &[1.0; 8]).unwrap();
        // Bind the second half of `a` as output.
        execute_kernel(
            &space,
            &reg,
            k,
            LaunchGrid::cover(4, 4),
            &[
                LaunchArg::Ptr(a.offset(32)),
                LaunchArg::Ptr(b),
                LaunchArg::F64(5.0),
                LaunchArg::I64(4),
            ],
        )
        .unwrap();
        let v = space.read_vec::<f64>(a, 8).unwrap();
        assert_eq!(&v[..4], &[0.0; 4]);
        assert_eq!(&v[4..], &[5.0; 4]);
    }

    #[test]
    fn validate_rejects_pageable_host_pointer() {
        let (space, mut reg) = setup();
        let k = scale_kernel(&mut reg);
        let h = space.alloc_array::<f64>(MemKind::HostPageable, 4).unwrap();
        let d = space.alloc_array::<f64>(DEV, 4).unwrap();
        let err = validate_launch(
            &space,
            reg.def(k),
            &[
                LaunchArg::Ptr(h),
                LaunchArg::Ptr(d),
                LaunchArg::F64(1.0),
                LaunchArg::I64(4),
            ],
        )
        .unwrap_err();
        assert!(
            matches!(err, CudaError::BadKernelArg { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn validate_accepts_managed_and_pinned() {
        let (space, mut reg) = setup();
        let k = scale_kernel(&mut reg);
        let m = space.alloc_array::<f64>(MemKind::Managed, 4).unwrap();
        let p = space.alloc_array::<f64>(MemKind::HostPinned, 4).unwrap();
        validate_launch(
            &space,
            reg.def(k),
            &[
                LaunchArg::Ptr(m),
                LaunchArg::Ptr(p),
                LaunchArg::F64(1.0),
                LaunchArg::I64(4),
            ],
        )
        .unwrap();
    }

    #[test]
    fn validate_rejects_wrong_arity_and_scalar_class() {
        let (space, mut reg) = setup();
        let k = scale_kernel(&mut reg);
        let d = space.alloc_array::<f64>(DEV, 4).unwrap();
        assert!(matches!(
            validate_launch(&space, reg.def(k), &[LaunchArg::Ptr(d)]),
            Err(CudaError::BadKernelArity {
                expected: 4,
                got: 1,
                ..
            })
        ));
        assert!(matches!(
            validate_launch(
                &space,
                reg.def(k),
                &[
                    LaunchArg::Ptr(d),
                    LaunchArg::Ptr(d),
                    LaunchArg::I64(1), // f64 scalar expected
                    LaunchArg::I64(4)
                ]
            ),
            Err(CudaError::BadKernelArg { index: 2, .. })
        ));
    }

    #[test]
    fn device_fault_surfaces_as_error() {
        let (space, mut reg) = setup();
        let mut b = KernelBuilder::new("unguarded");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.store(p, tid(), cf(1.0));
        let k = reg.register_ir(b.finish()).unwrap();
        let d = space.alloc_array::<f64>(DEV, 2).unwrap();
        let err = execute_kernel(
            &space,
            &reg,
            k,
            LaunchGrid::cover(8, 8),
            &[LaunchArg::Ptr(d)],
        )
        .unwrap_err();
        assert!(matches!(err, CudaError::Kernel(_)), "{err}");
    }

    #[test]
    fn native_overrun_surfaces_as_kernel_error() {
        let (space, mut reg) = setup();
        let mut b = KernelBuilder::new("unguarded");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.store(p, tid(), cf(1.0));
        let native: kernel_ir::NativeKernel = Arc::new(|ctx: &mut NativeCtx<'_>| {
            let len = ctx.f64s_mut(0).len();
            Err(kernel_ir::InterpError::OutOfBounds {
                kernel: ctx.kernel().to_string(),
                param: 0,
                idx: len as i64,
                len: len as u64,
            })
        });
        let k = reg.register(b.finish(), Some(native)).unwrap();
        let d = space.alloc_array::<f64>(DEV, 2).unwrap();
        let err = execute_kernel(
            &space,
            &reg,
            k,
            LaunchGrid::cover(8, 8),
            &[LaunchArg::Ptr(d)],
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                CudaError::Kernel(kernel_ir::InterpError::OutOfBounds {
                    kernel,
                    param: 0,
                    idx: 2,
                    len: 2
                }) if kernel == "unguarded"
            ),
            "{err}"
        );
    }

    #[test]
    fn two_read_args_may_alias() {
        let (space, mut reg) = setup();
        let mut b = KernelBuilder::new("dot_partial");
        let out = b.ptr_param("out", ScalarTy::F64);
        let x = b.ptr_param("x", ScalarTy::F64);
        let y = b.ptr_param("y", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        b.if_(tid().lt(n.get()), |b| {
            b.store(out, tid(), load(x, tid()) * load(y, tid()));
        });
        let k = reg.register_ir(b.finish()).unwrap();
        let o = space.alloc_array::<f64>(DEV, 4).unwrap();
        let v = space.alloc_array::<f64>(DEV, 4).unwrap();
        space
            .write_slice_data::<f64>(v, &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        // x and y alias the same allocation — both read-only: allowed.
        execute_kernel(
            &space,
            &reg,
            k,
            LaunchGrid::cover(4, 4),
            &[
                LaunchArg::Ptr(o),
                LaunchArg::Ptr(v),
                LaunchArg::Ptr(v),
                LaunchArg::I64(4),
            ],
        )
        .unwrap();
        assert_eq!(
            space.read_vec::<f64>(o, 4).unwrap(),
            vec![1.0, 4.0, 9.0, 16.0]
        );
    }
}
