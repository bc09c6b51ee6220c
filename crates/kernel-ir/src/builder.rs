//! Ergonomic kernel construction.
//!
//! Writing [`crate::ast`] trees by hand is noisy; the builder gives kernels
//! a CUDA-like surface:
//!
//! ```
//! use kernel_ir::builder::*;
//! use kernel_ir::ast::ScalarTy;
//!
//! // __global__ void axpy(double* y, const double* x, double a, long n)
//! //   { if (tid < n) y[tid] += a * x[tid]; }
//! let mut b = KernelBuilder::new("axpy");
//! let y = b.ptr_param("y", ScalarTy::F64);
//! let x = b.ptr_param("x", ScalarTy::F64);
//! let a = b.scalar_param("a", ScalarTy::F64);
//! let n = b.scalar_param("n", ScalarTy::I64);
//! b.if_(tid().lt(n.get()), |b| {
//!     b.store(y, tid(), load(y, tid()) + a.get() * load(x, tid()));
//! });
//! let def = b.finish();
//! assert_eq!(def.params.len(), 4);
//! ```

use crate::ast::{
    BinOp, CallArg, Expr, KernelDef, KernelId, ParamDecl, ParamTy, ScalarTy, Stmt, UnOp,
};

/// Handle to a pointer parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtrParam(pub usize);

/// Handle to a scalar parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarParam(pub usize);

impl ScalarParam {
    /// The parameter's value as an expression.
    pub fn get(self) -> Ex {
        Ex(Expr::Param(self.0))
    }
}

/// Handle to a local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Local(pub usize);

impl Local {
    /// The local's value as an expression.
    pub fn get(self) -> Ex {
        Ex(Expr::Local(self.0))
    }
}

/// Expression wrapper enabling operator overloading.
#[derive(Debug, Clone, PartialEq)]
pub struct Ex(pub Expr);

/// The flat thread index.
pub fn tid() -> Ex {
    Ex(Expr::Tid)
}

/// The total launched thread count.
pub fn grid_size() -> Ex {
    Ex(Expr::GridSize)
}

/// Float constant.
pub fn cf(v: f64) -> Ex {
    Ex(Expr::ConstF(v))
}

/// Integer constant.
pub fn ci(v: i64) -> Ex {
    Ex(Expr::ConstI(v))
}

/// Load `ptr[idx]`.
pub fn load(ptr: PtrParam, idx: Ex) -> Ex {
    Ex(Expr::Load {
        ptr: ptr.0,
        idx: Box::new(idx.0),
    })
}

macro_rules! bin_method {
    ($($m:ident => $op:ident),* $(,)?) => {
        $(
            /// Binary operation (see [`crate::ast::BinOp`]).
            // The DSL intentionally mirrors operator names (`rem`, `not`).
            #[allow(clippy::should_implement_trait)]
            pub fn $m(self, rhs: Ex) -> Ex {
                Ex(Expr::Bin(BinOp::$op, Box::new(self.0), Box::new(rhs.0)))
            }
        )*
    };
}

impl Ex {
    bin_method! {
        lt => Lt, le => Le, gt => Gt, ge => Ge, eq_ => Eq, ne_ => Ne,
        min => Min, max => Max, and => And, or => Or, rem => Rem,
    }

    /// Square root.
    pub fn sqrt(self) -> Ex {
        Ex(Expr::Un(UnOp::Sqrt, Box::new(self.0)))
    }

    /// Absolute value.
    pub fn abs(self) -> Ex {
        Ex(Expr::Un(UnOp::Abs, Box::new(self.0)))
    }

    /// Logical not.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Ex {
        Ex(Expr::Un(UnOp::Not, Box::new(self.0)))
    }

    /// Convert integer to float.
    pub fn to_f(self) -> Ex {
        Ex(Expr::Un(UnOp::IntToFloat, Box::new(self.0)))
    }
}

macro_rules! std_op {
    ($trait_:ident, $method:ident, $op:ident) => {
        impl std::ops::$trait_ for Ex {
            type Output = Ex;
            fn $method(self, rhs: Ex) -> Ex {
                Ex(Expr::Bin(BinOp::$op, Box::new(self.0), Box::new(rhs.0)))
            }
        }
    };
}

std_op!(Add, add, Add);
std_op!(Sub, sub, Sub);
std_op!(Mul, mul, Mul);
std_op!(Div, div, Div);

impl std::ops::Neg for Ex {
    type Output = Ex;
    fn neg(self) -> Ex {
        Ex(Expr::Un(UnOp::Neg, Box::new(self.0)))
    }
}

/// Argument in a nested call.
#[derive(Debug, Clone)]
pub enum Arg {
    /// Forward a pointer parameter.
    Ptr(PtrParam),
    /// Pass a scalar expression.
    Val(Ex),
}

impl From<PtrParam> for Arg {
    fn from(p: PtrParam) -> Arg {
        Arg::Ptr(p)
    }
}

impl From<Ex> for Arg {
    fn from(e: Ex) -> Arg {
        Arg::Val(e)
    }
}

/// The kernel builder. See module docs for an example.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    params: Vec<ParamDecl>,
    num_locals: usize,
    // Stack of statement blocks: the last entry is the block currently
    // being appended to (nested `if_`/`for_` bodies push and pop).
    blocks: Vec<Vec<Stmt>>,
}

impl KernelBuilder {
    /// Start building a kernel.
    pub fn new(name: &str) -> Self {
        KernelBuilder {
            name: name.to_string(),
            params: Vec::new(),
            num_locals: 0,
            blocks: vec![Vec::new()],
        }
    }

    /// Declare a pointer parameter.
    pub fn ptr_param(&mut self, name: &str, ty: ScalarTy) -> PtrParam {
        self.params.push(ParamDecl {
            name: name.to_string(),
            ty: ParamTy::Ptr(ty),
        });
        PtrParam(self.params.len() - 1)
    }

    /// Declare a scalar parameter.
    pub fn scalar_param(&mut self, name: &str, ty: ScalarTy) -> ScalarParam {
        self.params.push(ParamDecl {
            name: name.to_string(),
            ty: ParamTy::Scalar(ty),
        });
        ScalarParam(self.params.len() - 1)
    }

    fn push(&mut self, s: Stmt) {
        self.blocks.last_mut().expect("block stack").push(s);
    }

    /// Declare and initialize a local variable.
    pub fn let_(&mut self, value: Ex) -> Local {
        let l = Local(self.num_locals);
        self.num_locals += 1;
        self.push(Stmt::Let(l.0, value.0));
        l
    }

    /// Re-assign an existing local.
    pub fn set(&mut self, local: Local, value: Ex) {
        self.push(Stmt::Let(local.0, value.0));
    }

    /// Store `val` at `ptr[idx]`.
    pub fn store(&mut self, ptr: PtrParam, idx: Ex, val: Ex) {
        self.push(Stmt::Store {
            ptr: ptr.0,
            idx: idx.0,
            val: val.0,
        });
    }

    /// `if (cond) { then }`.
    pub fn if_(&mut self, cond: Ex, then_: impl FnOnce(&mut Self)) {
        self.blocks.push(Vec::new());
        then_(self);
        let then_block = self.blocks.pop().expect("then block");
        self.push(Stmt::If {
            cond: cond.0,
            then_: then_block,
            else_: Vec::new(),
        });
    }

    /// `if (cond) { then } else { else }`.
    pub fn if_else(
        &mut self,
        cond: Ex,
        then_: impl FnOnce(&mut Self),
        else_: impl FnOnce(&mut Self),
    ) {
        self.blocks.push(Vec::new());
        then_(self);
        let then_block = self.blocks.pop().expect("then block");
        self.blocks.push(Vec::new());
        else_(self);
        let else_block = self.blocks.pop().expect("else block");
        self.push(Stmt::If {
            cond: cond.0,
            then_: then_block,
            else_: else_block,
        });
    }

    /// `for i in start..end { body }` (sequential per-thread loop).
    pub fn for_(&mut self, start: Ex, end: Ex, body: impl FnOnce(&mut Self, Local)) {
        let i = Local(self.num_locals);
        self.num_locals += 1;
        self.blocks.push(Vec::new());
        body(self, i);
        let body_block = self.blocks.pop().expect("for block");
        self.push(Stmt::For {
            local: i.0,
            start: start.0,
            end: end.0,
            body: body_block,
        });
    }

    /// Nested kernel call.
    pub fn call(&mut self, callee: KernelId, args: impl IntoIterator<Item = Arg>) {
        let args = args
            .into_iter()
            .map(|a| match a {
                Arg::Ptr(p) => CallArg::Ptr(p.0),
                Arg::Val(e) => CallArg::Scalar(e.0),
            })
            .collect();
        self.push(Stmt::Call { callee, args });
    }

    /// Finish, producing the (not yet validated) definition.
    pub fn finish(mut self) -> KernelDef {
        assert_eq!(self.blocks.len(), 1, "unbalanced block nesting");
        KernelDef {
            name: self.name,
            params: self.params,
            num_locals: self.num_locals,
            body: self.blocks.pop().expect("body"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_axpy_shape() {
        let mut b = KernelBuilder::new("axpy");
        let y = b.ptr_param("y", ScalarTy::F64);
        let x = b.ptr_param("x", ScalarTy::F64);
        let a = b.scalar_param("a", ScalarTy::F64);
        let n = b.scalar_param("n", ScalarTy::I64);
        b.if_(tid().lt(n.get()), |b| {
            b.store(y, tid(), load(y, tid()) + a.get() * load(x, tid()));
        });
        let def = b.finish();
        assert_eq!(def.name, "axpy");
        assert_eq!(def.params.len(), 4);
        assert!(matches!(def.body[0], Stmt::If { .. }));
    }

    #[test]
    fn locals_allocated_sequentially() {
        let mut b = KernelBuilder::new("k");
        let l0 = b.let_(ci(1));
        let l1 = b.let_(l0.get() + ci(2));
        assert_eq!(l0.0, 0);
        assert_eq!(l1.0, 1);
        let def = b.finish();
        assert_eq!(def.num_locals, 2);
    }

    #[test]
    fn for_loop_allocates_induction_local() {
        let mut b = KernelBuilder::new("k");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.for_(ci(0), ci(10), |b, i| {
            b.store(p, i.get(), cf(0.0));
        });
        let def = b.finish();
        assert_eq!(def.num_locals, 1);
        assert!(matches!(def.body[0], Stmt::For { .. }));
    }

    #[test]
    fn nested_blocks_balance() {
        let mut b = KernelBuilder::new("k");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.if_else(
            tid().eq_(ci(0)),
            |b| {
                b.if_(ci(1), |b| b.store(p, ci(0), cf(1.0)));
            },
            |b| b.store(p, tid(), cf(2.0)),
        );
        let def = b.finish();
        match &def.body[0] {
            Stmt::If { then_, else_, .. } => {
                assert_eq!(then_.len(), 1);
                assert_eq!(else_.len(), 1);
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn call_args_convert() {
        let mut b = KernelBuilder::new("k");
        let p = b.ptr_param("p", ScalarTy::F64);
        b.call(KernelId(3), [Arg::from(p), Arg::from(tid().to_f())]);
        let def = b.finish();
        match &def.body[0] {
            Stmt::Call { callee, args } => {
                assert_eq!(*callee, KernelId(3));
                assert!(matches!(args[0], CallArg::Ptr(0)));
                assert!(matches!(args[1], CallArg::Scalar(_)));
            }
            other => panic!("expected Call, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_nesting_panics() {
        let mut b = KernelBuilder::new("k");
        b.blocks.push(Vec::new()); // simulate a bug
        let _ = b.finish();
    }
}
