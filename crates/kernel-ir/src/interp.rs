//! Reference interpreter for the kernel IR.
//!
//! Executes a kernel over a flat thread grid with full bounds checking —
//! the role of the interpreter is *semantic ground truth*: native closures
//! registered alongside an IR definition are property-tested against it
//! (closure ≡ interpreter), mirroring how the real compiler pass's analysis
//! input and the executed device code derive from one CUDA source.
//!
//! Pointer parameters are resolved to *slots* of a [`KernelMemory`]; nested
//! calls rebind callee parameters to caller slots/values, so interprocedural
//! pointer forwarding (Fig. 8) is executed faithfully.

use crate::ast::{BinOp, CallArg, Expr, KernelDef, KernelId, ScalarTy, Stmt, UnOp};
use std::fmt;

/// A runtime scalar value: float or integer class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KValue {
    /// Floating value (covers `f64` and `f32` storage).
    F(f64),
    /// Integer value (covers `i64` and `i32` storage).
    I(i64),
}

impl KValue {
    fn as_f(self, k: &str) -> Result<f64, InterpError> {
        match self {
            KValue::F(v) => Ok(v),
            KValue::I(_) => Err(InterpError::TypeError {
                kernel: k.to_string(),
                detail: "expected float, got integer".into(),
            }),
        }
    }

    fn as_i(self, k: &str) -> Result<i64, InterpError> {
        match self {
            KValue::I(v) => Ok(v),
            KValue::F(_) => Err(InterpError::TypeError {
                kernel: k.to_string(),
                detail: "expected integer, got float".into(),
            }),
        }
    }

    fn truthy(self) -> bool {
        match self {
            KValue::I(v) => v != 0,
            KValue::F(v) => v != 0.0,
        }
    }
}

/// Interpreter errors — the moral equivalent of `compute-sanitizer`
/// memcheck findings plus IR type errors.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// Element access out of the bounds of the bound buffer.
    OutOfBounds {
        /// Kernel name.
        kernel: String,
        /// Pointer parameter index.
        param: usize,
        /// Offending element index.
        idx: i64,
        /// Buffer length in elements.
        len: u64,
    },
    /// Float/integer class mismatch.
    TypeError {
        /// Kernel name.
        kernel: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Integer division or remainder by zero.
    DivByZero {
        /// Kernel name.
        kernel: String,
    },
    /// Nested-call recursion exceeded [`MAX_CALL_DEPTH`].
    CallDepthExceeded {
        /// Kernel name.
        kernel: String,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfBounds {
                kernel,
                param,
                idx,
                len,
            } => write!(
                f,
                "{kernel}: out-of-bounds access through param {param}: index {idx}, length {len}"
            ),
            InterpError::TypeError { kernel, detail } => {
                write!(f, "{kernel}: type error: {detail}")
            }
            InterpError::DivByZero { kernel } => write!(f, "{kernel}: integer division by zero"),
            InterpError::CallDepthExceeded { kernel } => {
                write!(f, "{kernel}: nested call depth exceeded")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Maximum nested-call depth per thread.
pub const MAX_CALL_DEPTH: usize = 256;

/// Storage the interpreter executes against. Slots are bound to the root
/// kernel's pointer parameters in order of [`RunArg::Slot`] bindings.
pub trait KernelMemory {
    /// Length of slot `slot` in elements.
    fn len(&self, slot: usize) -> u64;
    /// Load element `idx` (guaranteed in bounds by the interpreter).
    fn load(&self, slot: usize, idx: u64) -> KValue;
    /// Store element `idx` (guaranteed in bounds by the interpreter).
    fn store(&mut self, slot: usize, idx: u64, v: KValue);
}

/// Simple vector-backed memory for tests and differential checking.
#[derive(Debug, Clone, PartialEq)]
pub enum VecBuffer {
    /// `f64` storage.
    F64(Vec<f64>),
    /// `f32` storage.
    F32(Vec<f32>),
    /// `i64` storage.
    I64(Vec<i64>),
    /// `i32` storage.
    I32(Vec<i32>),
}

/// A [`KernelMemory`] over plain vectors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecMemory {
    /// The slot buffers.
    pub slots: Vec<VecBuffer>,
}

impl VecMemory {
    /// Memory from a list of buffers.
    pub fn new(slots: Vec<VecBuffer>) -> Self {
        VecMemory { slots }
    }

    /// Borrow an `f64` slot (panics on type mismatch).
    pub fn f64_slot(&self, i: usize) -> &Vec<f64> {
        match &self.slots[i] {
            VecBuffer::F64(v) => v,
            other => panic!("slot {i} is not f64: {other:?}"),
        }
    }
}

impl KernelMemory for VecMemory {
    fn len(&self, slot: usize) -> u64 {
        match &self.slots[slot] {
            VecBuffer::F64(v) => v.len() as u64,
            VecBuffer::F32(v) => v.len() as u64,
            VecBuffer::I64(v) => v.len() as u64,
            VecBuffer::I32(v) => v.len() as u64,
        }
    }

    fn load(&self, slot: usize, idx: u64) -> KValue {
        match &self.slots[slot] {
            VecBuffer::F64(v) => KValue::F(v[idx as usize]),
            VecBuffer::F32(v) => KValue::F(f64::from(v[idx as usize])),
            VecBuffer::I64(v) => KValue::I(v[idx as usize]),
            VecBuffer::I32(v) => KValue::I(i64::from(v[idx as usize])),
        }
    }

    fn store(&mut self, slot: usize, idx: u64, v: KValue) {
        match (&mut self.slots[slot], v) {
            (VecBuffer::F64(b), KValue::F(x)) => b[idx as usize] = x,
            (VecBuffer::F32(b), KValue::F(x)) => b[idx as usize] = x as f32,
            (VecBuffer::I64(b), KValue::I(x)) => b[idx as usize] = x,
            (VecBuffer::I32(b), KValue::I(x)) => b[idx as usize] = x as i32,
            (b, v) => panic!("store class mismatch: {b:?} <- {v:?}"),
        }
    }
}

/// Root-kernel argument binding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunArg {
    /// Bind a pointer parameter to memory slot `slot`.
    Slot(usize),
    /// Bind a scalar parameter to a value.
    Val(KValue),
}

#[derive(Debug, Clone, Copy)]
enum FrameArg {
    Slot(usize),
    Val(KValue),
}

struct Interp<'a> {
    kernels: &'a [KernelDef],
    mem: &'a mut dyn KernelMemory,
    grid: u64,
    tid: i64,
}

impl<'a> Interp<'a> {
    fn exec_kernel(
        &mut self,
        kid: KernelId,
        frame: &[FrameArg],
        depth: usize,
    ) -> Result<(), InterpError> {
        let def = &self.kernels[kid.0 as usize];
        if depth > MAX_CALL_DEPTH {
            return Err(InterpError::CallDepthExceeded {
                kernel: def.name.clone(),
            });
        }
        let mut locals = vec![KValue::I(0); def.num_locals];
        self.exec_stmts(def, &def.body, frame, &mut locals, depth)
    }

    fn exec_stmts(
        &mut self,
        def: &KernelDef,
        stmts: &[Stmt],
        frame: &[FrameArg],
        locals: &mut Vec<KValue>,
        depth: usize,
    ) -> Result<(), InterpError> {
        for s in stmts {
            match s {
                Stmt::Let(l, e) => {
                    let v = self.eval(def, e, frame, locals)?;
                    locals[*l] = v;
                }
                Stmt::Store { ptr, idx, val } => {
                    let i = self.eval(def, idx, frame, locals)?.as_i(&def.name)?;
                    let v = self.eval(def, val, frame, locals)?;
                    let slot = self.resolve_slot(frame, *ptr);
                    let len = self.mem.len(slot);
                    if i < 0 || i as u64 >= len {
                        return Err(InterpError::OutOfBounds {
                            kernel: def.name.clone(),
                            param: *ptr,
                            idx: i,
                            len,
                        });
                    }
                    let v = coerce_store(def, *ptr, v)?;
                    self.mem.store(slot, i as u64, v);
                }
                Stmt::If { cond, then_, else_ } => {
                    let c = self.eval(def, cond, frame, locals)?;
                    if c.truthy() {
                        self.exec_stmts(def, then_, frame, locals, depth)?;
                    } else {
                        self.exec_stmts(def, else_, frame, locals, depth)?;
                    }
                }
                Stmt::For {
                    local,
                    start,
                    end,
                    body,
                } => {
                    let s0 = self.eval(def, start, frame, locals)?.as_i(&def.name)?;
                    let e0 = self.eval(def, end, frame, locals)?.as_i(&def.name)?;
                    let mut i = s0;
                    while i < e0 {
                        locals[*local] = KValue::I(i);
                        self.exec_stmts(def, body, frame, locals, depth)?;
                        i += 1;
                    }
                }
                Stmt::Call { callee, args } => {
                    let mut callee_frame = Vec::with_capacity(args.len());
                    for a in args {
                        callee_frame.push(match a {
                            CallArg::Ptr(p) => FrameArg::Slot(self.resolve_slot(frame, *p)),
                            CallArg::Scalar(e) => FrameArg::Val(self.eval(def, e, frame, locals)?),
                        });
                    }
                    self.exec_kernel(*callee, &callee_frame, depth + 1)?;
                }
            }
        }
        Ok(())
    }

    fn resolve_slot(&self, frame: &[FrameArg], param: usize) -> usize {
        match frame[param] {
            FrameArg::Slot(s) => s,
            FrameArg::Val(_) => unreachable!("validated: pointer param bound to scalar"),
        }
    }

    fn eval(
        &self,
        def: &KernelDef,
        e: &Expr,
        frame: &[FrameArg],
        locals: &[KValue],
    ) -> Result<KValue, InterpError> {
        let k = &def.name;
        Ok(match e {
            Expr::ConstF(v) => KValue::F(*v),
            Expr::ConstI(v) => KValue::I(*v),
            Expr::Tid => KValue::I(self.tid),
            Expr::GridSize => KValue::I(self.grid as i64),
            Expr::Param(i) => match frame[*i] {
                FrameArg::Val(v) => v,
                FrameArg::Slot(_) => unreachable!("validated: scalar use of pointer"),
            },
            Expr::Local(i) => locals[*i],
            Expr::Un(op, a) => {
                let v = self.eval(def, a, frame, locals)?;
                match op {
                    UnOp::Neg => match v {
                        KValue::F(x) => KValue::F(-x),
                        KValue::I(x) => KValue::I(-x),
                    },
                    UnOp::Not => KValue::I(i64::from(!v.truthy())),
                    UnOp::Sqrt => KValue::F(v.as_f(k)?.sqrt()),
                    UnOp::Abs => match v {
                        KValue::F(x) => KValue::F(x.abs()),
                        KValue::I(x) => KValue::I(x.abs()),
                    },
                    UnOp::IntToFloat => KValue::F(v.as_i(k)? as f64),
                    UnOp::FloatToInt => KValue::I(v.as_f(k)? as i64),
                }
            }
            Expr::Bin(op, a, b) => {
                let va = self.eval(def, a, frame, locals)?;
                let vb = self.eval(def, b, frame, locals)?;
                eval_bin(k, *op, va, vb)?
            }
            Expr::Load { ptr, idx } => {
                let i = self.eval(def, idx, frame, locals)?.as_i(k)?;
                let slot = self.resolve_slot(frame, *ptr);
                let len = self.mem.len(slot);
                if i < 0 || i as u64 >= len {
                    return Err(InterpError::OutOfBounds {
                        kernel: k.clone(),
                        param: *ptr,
                        idx: i,
                        len,
                    });
                }
                self.mem.load(slot, i as u64)
            }
        })
    }
}

fn coerce_store(def: &KernelDef, ptr: usize, v: KValue) -> Result<KValue, InterpError> {
    let ty = def.params[ptr].ty.scalar();
    match (ty, v) {
        (ScalarTy::F64 | ScalarTy::F32, KValue::F(_)) => Ok(v),
        (ScalarTy::I64 | ScalarTy::I32, KValue::I(_)) => Ok(v),
        _ => Err(InterpError::TypeError {
            kernel: def.name.clone(),
            detail: format!("store of {v:?} into {ty} buffer (param {ptr})"),
        }),
    }
}

fn eval_bin(k: &str, op: BinOp, a: KValue, b: KValue) -> Result<KValue, InterpError> {
    use KValue::{F, I};
    let type_err = || InterpError::TypeError {
        kernel: k.to_string(),
        detail: format!("operand class mismatch: {a:?} {op:?} {b:?}"),
    };
    Ok(match (a, b) {
        (F(x), F(y)) => match op {
            BinOp::Add => F(x + y),
            BinOp::Sub => F(x - y),
            BinOp::Mul => F(x * y),
            BinOp::Div => F(x / y),
            BinOp::Min => F(x.min(y)),
            BinOp::Max => F(x.max(y)),
            BinOp::Lt => I(i64::from(x < y)),
            BinOp::Le => I(i64::from(x <= y)),
            BinOp::Gt => I(i64::from(x > y)),
            BinOp::Ge => I(i64::from(x >= y)),
            BinOp::Eq => I(i64::from(x == y)),
            BinOp::Ne => I(i64::from(x != y)),
            BinOp::Rem | BinOp::And | BinOp::Or => return Err(type_err()),
        },
        (I(x), I(y)) => match op {
            BinOp::Add => I(x.wrapping_add(y)),
            BinOp::Sub => I(x.wrapping_sub(y)),
            BinOp::Mul => I(x.wrapping_mul(y)),
            BinOp::Div => {
                if y == 0 {
                    return Err(InterpError::DivByZero {
                        kernel: k.to_string(),
                    });
                }
                I(x.wrapping_div(y))
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(InterpError::DivByZero {
                        kernel: k.to_string(),
                    });
                }
                I(x.wrapping_rem(y))
            }
            BinOp::Min => I(x.min(y)),
            BinOp::Max => I(x.max(y)),
            BinOp::Lt => I(i64::from(x < y)),
            BinOp::Le => I(i64::from(x <= y)),
            BinOp::Gt => I(i64::from(x > y)),
            BinOp::Ge => I(i64::from(x >= y)),
            BinOp::Eq => I(i64::from(x == y)),
            BinOp::Ne => I(i64::from(x != y)),
            BinOp::And => I(i64::from(x != 0 && y != 0)),
            BinOp::Or => I(i64::from(x != 0 || y != 0)),
        },
        _ => return Err(type_err()),
    })
}

/// Execute `kernel` over `grid` threads against `mem`.
///
/// `args` bind the kernel's parameters in order: [`RunArg::Slot`] for
/// pointer parameters, [`RunArg::Val`] for scalars. Threads run
/// sequentially in tid order (the interpreter defines semantics, not
/// scheduling; intra-kernel races are out of scope, as in the paper).
pub fn run(
    kernels: &[KernelDef],
    kernel: KernelId,
    grid: u64,
    args: &[RunArg],
    mem: &mut dyn KernelMemory,
) -> Result<(), InterpError> {
    let def = &kernels[kernel.0 as usize];
    assert_eq!(
        def.params.len(),
        args.len(),
        "argument count mismatch for {}",
        def.name
    );
    let frame: Vec<FrameArg> = args
        .iter()
        .map(|a| match a {
            RunArg::Slot(s) => FrameArg::Slot(*s),
            RunArg::Val(v) => FrameArg::Val(*v),
        })
        .collect();
    for tid in 0..grid {
        let mut it = Interp {
            kernels,
            mem,
            grid,
            tid: tid as i64,
        };
        it.exec_kernel(kernel, &frame, 0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ScalarTy;
    use crate::builder::*;

    fn axpy() -> KernelDef {
        let mut b = KernelBuilder::new("axpy");
        let y = b.ptr_param("y", ScalarTy::F64);
        let x = b.ptr_param("x", ScalarTy::F64);
        let a = b.scalar_param("a", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        b.if_(tid().lt(n.get()), |b| {
            b.store(y, tid(), load(y, tid()) + a.get() * load(x, tid()));
        });
        b.finish()
    }

    #[test]
    fn axpy_computes() {
        let kernels = vec![axpy()];
        let mut mem = VecMemory::new(vec![
            VecBuffer::F64(vec![1.0; 8]),
            VecBuffer::F64((0..8).map(f64::from).collect()),
        ]);
        run(
            &kernels,
            KernelId(0),
            8,
            &[
                RunArg::Slot(0),
                RunArg::Slot(1),
                RunArg::Val(KValue::F(2.0)),
                RunArg::Val(KValue::I(8)),
            ],
            &mut mem,
        )
        .unwrap();
        assert_eq!(
            mem.f64_slot(0),
            &vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
        );
    }

    #[test]
    fn guard_prevents_out_of_bounds() {
        // Launch more threads than elements; the guard keeps it in bounds.
        let kernels = vec![axpy()];
        let mut mem = VecMemory::new(vec![
            VecBuffer::F64(vec![0.0; 4]),
            VecBuffer::F64(vec![1.0; 4]),
        ]);
        run(
            &kernels,
            KernelId(0),
            64,
            &[
                RunArg::Slot(0),
                RunArg::Slot(1),
                RunArg::Val(KValue::F(1.0)),
                RunArg::Val(KValue::I(4)),
            ],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.f64_slot(0), &vec![1.0; 4]);
    }

    #[test]
    fn missing_guard_reports_out_of_bounds() {
        let mut b = KernelBuilder::new("unguarded");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.store(p, tid(), cf(1.0));
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::F64(vec![0.0; 4])]);
        let err = run(&kernels, KernelId(0), 8, &[RunArg::Slot(0)], &mut mem).unwrap_err();
        assert_eq!(
            err,
            InterpError::OutOfBounds {
                kernel: "unguarded".into(),
                param: 0,
                idx: 4,
                len: 4
            }
        );
    }

    #[test]
    fn for_loop_reduction_single_thread() {
        // sum(out, in, n): out[0] = sum(in[0..n]) — grid of 1.
        let mut b = KernelBuilder::new("sum");
        let out = b.ptr_param("out", ScalarTy::F64);
        let inp = b.ptr_param("in", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        let acc = b.let_(cf(0.0));
        b.for_(ci(0), n.get(), |b, i| {
            b.set(acc, acc.get() + load(inp, i.get()));
        });
        b.store(out, ci(0), acc.get());
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![
            VecBuffer::F64(vec![0.0]),
            VecBuffer::F64(vec![1.0, 2.0, 3.0, 4.0]),
        ]);
        run(
            &kernels,
            KernelId(0),
            1,
            &[RunArg::Slot(0), RunArg::Slot(1), RunArg::Val(KValue::I(4))],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.f64_slot(0)[0], 10.0);
    }

    #[test]
    fn nested_call_executes_fig8() {
        // kernel_nested(y, x, t): y[t] = x[t]; kernel(a, b): nested(a, b, tid)
        let mut nb = KernelBuilder::new("nested");
        let y = nb.ptr_param("y", ScalarTy::F64);
        let x = nb.ptr_param("x", ScalarTy::F64);
        let t = nb.scalar_param("t", ScalarTy::I64);
        nb.store(y, t.get(), load(x, t.get()));
        let mut kb = KernelBuilder::new("kernel");
        let a = kb.ptr_param("a", ScalarTy::F64);
        let b2 = kb.ptr_param("b", ScalarTy::F64);
        kb.call(KernelId(0), [Arg::from(a), Arg::from(b2), Arg::from(tid())]);
        let kernels = vec![nb.finish(), kb.finish()];
        let mut mem = VecMemory::new(vec![
            VecBuffer::F64(vec![0.0; 4]),
            VecBuffer::F64(vec![9.0, 8.0, 7.0, 6.0]),
        ]);
        run(
            &kernels,
            KernelId(1),
            4,
            &[RunArg::Slot(0), RunArg::Slot(1)],
            &mut mem,
        )
        .unwrap();
        assert_eq!(mem.f64_slot(0), &vec![9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn integer_ops_and_i32_storage() {
        let mut b = KernelBuilder::new("mask");
        let out = b.ptr_param("out", ScalarTy::I32);
        b.store(out, tid(), tid().rem(ci(2)).eq_(ci(0)).and(ci(1)));
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::I32(vec![0; 5])]);
        run(&kernels, KernelId(0), 5, &[RunArg::Slot(0)], &mut mem).unwrap();
        assert!(matches!(&mem.slots[0], VecBuffer::I32(v) if v == &[1, 0, 1, 0, 1]));
    }

    #[test]
    fn type_mismatch_detected() {
        let mut b = KernelBuilder::new("bad");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.store(p, tid(), ci(1)); // integer into float buffer
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::F64(vec![0.0; 1])]);
        let err = run(&kernels, KernelId(0), 1, &[RunArg::Slot(0)], &mut mem).unwrap_err();
        assert!(matches!(err, InterpError::TypeError { .. }));
    }

    #[test]
    fn div_by_zero_detected() {
        let mut b = KernelBuilder::new("bad");
        let p = b.ptr_param("p", ScalarTy::I64);
        b.store(p, ci(0), ci(1) / (tid() - tid()));
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::I64(vec![0])]);
        let err = run(&kernels, KernelId(0), 1, &[RunArg::Slot(0)], &mut mem).unwrap_err();
        assert_eq!(
            err,
            InterpError::DivByZero {
                kernel: "bad".into()
            }
        );
    }

    #[test]
    fn unbounded_recursion_detected() {
        let mut b = KernelBuilder::new("forever");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.call(KernelId(0), [Arg::from(p)]);
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::F64(vec![0.0])]);
        let err = run(&kernels, KernelId(0), 1, &[RunArg::Slot(0)], &mut mem).unwrap_err();
        assert!(matches!(err, InterpError::CallDepthExceeded { .. }));
    }

    #[test]
    fn float_math_unops() {
        let mut b = KernelBuilder::new("m");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.store(p, ci(0), cf(9.0).sqrt());
        b.store(p, ci(1), (-cf(3.5)).abs());
        b.store(p, ci(2), ci(7).to_f());
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::F64(vec![0.0; 3])]);
        run(&kernels, KernelId(0), 1, &[RunArg::Slot(0)], &mut mem).unwrap();
        assert_eq!(mem.f64_slot(0), &vec![3.0, 3.5, 7.0]);
    }

    #[test]
    fn f32_storage_roundtrips_through_f64_values() {
        let mut b = KernelBuilder::new("f32k");
        let p = b.ptr_param("p", ScalarTy::F32);
        b.store(p, tid(), load(p, tid()) * cf(2.0));
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::F32(vec![1.5, 2.5])]);
        run(&kernels, KernelId(0), 2, &[RunArg::Slot(0)], &mut mem).unwrap();
        match &mem.slots[0] {
            VecBuffer::F32(v) => assert_eq!(v, &vec![3.0f32, 5.0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn grid_size_expression() {
        let mut b = KernelBuilder::new("g");
        let p = b.ptr_param("p", ScalarTy::I64);
        b.store(p, tid(), grid_size());
        let kernels = vec![b.finish()];
        let mut mem = VecMemory::new(vec![VecBuffer::I64(vec![0; 3])]);
        run(&kernels, KernelId(0), 3, &[RunArg::Slot(0)], &mut mem).unwrap();
        match &mem.slots[0] {
            VecBuffer::I64(v) => assert_eq!(v, &vec![3, 3, 3]),
            other => panic!("{other:?}"),
        }
    }
}
