//! IR types: kernels, parameters, statements, expressions — plus validation.
//!
//! The IR is deliberately small but keeps the features that make the
//! paper's analysis non-trivial: typed pointer parameters, loads/stores
//! through them, control flow, per-thread loops, and **nested kernel calls
//! that forward pointer parameters** (Fig. 8's aliasing case).

use std::fmt;

/// Identifier of a kernel within a [`crate::KernelRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub u32);

/// Scalar element types supported by the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarTy {
    /// 64-bit float.
    F64,
    /// 64-bit integer (also used for booleans: 0 / 1).
    I64,
    /// 32-bit float.
    F32,
    /// 32-bit integer.
    I32,
}

impl ScalarTy {
    /// Size of one element in bytes.
    pub fn size(self) -> u64 {
        match self {
            ScalarTy::F64 | ScalarTy::I64 => 8,
            ScalarTy::F32 | ScalarTy::I32 => 4,
        }
    }

    /// True for the floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::F64 | ScalarTy::F32)
    }
}

impl fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarTy::F64 => "f64",
            ScalarTy::I64 => "i64",
            ScalarTy::F32 => "f32",
            ScalarTy::I32 => "i32",
        };
        f.write_str(s)
    }
}

/// Kernel parameter type: a scalar by value, or a pointer to device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamTy {
    /// Scalar passed by value.
    Scalar(ScalarTy),
    /// Pointer to an array of elements.
    Ptr(ScalarTy),
}

impl ParamTy {
    /// True for pointer parameters.
    pub fn is_ptr(self) -> bool {
        matches!(self, ParamTy::Ptr(_))
    }

    /// Element type (for both scalars and pointers).
    pub fn scalar(self) -> ScalarTy {
        match self {
            ParamTy::Scalar(t) | ParamTy::Ptr(t) => t,
        }
    }
}

/// A named kernel parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name (diagnostics only).
    pub name: String,
    /// Parameter type.
    pub ty: ParamTy,
}

/// Binary operators. Comparisons and logic produce `i64` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (float division or truncating integer division).
    Div,
    /// Remainder (integers only).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Logical and (integers; nonzero = true).
    And,
    /// Logical or.
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical not (integers; nonzero = true).
    Not,
    /// Square root (floats).
    Sqrt,
    /// Absolute value.
    Abs,
    /// Convert integer to float.
    IntToFloat,
    /// Convert float to integer (truncating).
    FloatToInt,
}

/// Expressions. All expressions are per-thread pure except [`Expr::Load`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating constant.
    ConstF(f64),
    /// Integer constant.
    ConstI(i64),
    /// Flat thread index (`threadIdx.x + blockIdx.x * blockDim.x`), `i64`.
    Tid,
    /// Total number of launched threads, `i64`.
    GridSize,
    /// Value of a scalar parameter.
    Param(usize),
    /// Value of a local variable.
    Local(usize),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Load element `idx` through pointer parameter `ptr`.
    Load {
        /// Index of the pointer parameter.
        ptr: usize,
        /// Element index expression (must be integer-typed).
        idx: Box<Expr>,
    },
}

/// Argument in a nested kernel call.
#[derive(Debug, Clone, PartialEq)]
pub enum CallArg {
    /// Forward one of the caller's pointer parameters.
    Ptr(usize),
    /// Pass a scalar value.
    Scalar(Expr),
}

/// Statements executed per thread.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Assign a local variable.
    Let(usize, Expr),
    /// Store `val` at element `idx` through pointer parameter `ptr`.
    Store {
        /// Index of the pointer parameter.
        ptr: usize,
        /// Element index expression.
        idx: Expr,
        /// Value expression.
        val: Expr,
    },
    /// Conditional.
    If {
        /// Condition (integer; nonzero = true).
        cond: Expr,
        /// Then branch.
        then_: Vec<Stmt>,
        /// Else branch.
        else_: Vec<Stmt>,
    },
    /// Sequential per-thread loop: `for local in start..end`.
    For {
        /// Local holding the induction variable.
        local: usize,
        /// Inclusive start (integer).
        start: Expr,
        /// Exclusive end (integer).
        end: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Nested (device) kernel call, executed by the same thread.
    Call {
        /// The callee.
        callee: KernelId,
        /// Arguments: forwarded pointers or scalar expressions.
        args: Vec<CallArg>,
    },
}

/// A kernel definition: the unit the "compiler pass" analyzes.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDef {
    /// Kernel name (unique within a registry).
    pub name: String,
    /// Parameters.
    pub params: Vec<ParamDecl>,
    /// Number of local variables used by the body.
    pub num_locals: usize,
    /// Statements executed for each thread.
    pub body: Vec<Stmt>,
}

/// Structural validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Reference to a parameter index that does not exist.
    BadParamIndex {
        /// Kernel name.
        kernel: String,
        /// Offending index.
        index: usize,
    },
    /// `Expr::Param` used on a pointer parameter (pointers are only usable
    /// in `Load`/`Store`/`CallArg::Ptr`).
    PointerUsedAsScalar {
        /// Kernel name.
        kernel: String,
        /// Offending index.
        index: usize,
    },
    /// `Load`/`Store` through a non-pointer parameter.
    ScalarUsedAsPointer {
        /// Kernel name.
        kernel: String,
        /// Offending index.
        index: usize,
    },
    /// Local index out of range.
    BadLocalIndex {
        /// Kernel name.
        kernel: String,
        /// Offending index.
        index: usize,
    },
    /// Nested call references an unknown kernel id.
    UnknownCallee {
        /// Kernel name.
        kernel: String,
        /// Offending callee.
        callee: KernelId,
    },
    /// Nested call has the wrong number of arguments.
    CallArity {
        /// Kernel name.
        kernel: String,
        /// Callee name.
        callee: String,
        /// Expected arity.
        expected: usize,
        /// Provided arity.
        got: usize,
    },
    /// Nested call passes a scalar where the callee expects a pointer, or
    /// vice versa.
    CallArgKind {
        /// Kernel name.
        kernel: String,
        /// Callee name.
        callee: String,
        /// Argument position.
        position: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::BadParamIndex { kernel, index } => {
                write!(f, "{kernel}: parameter index {index} out of range")
            }
            ValidationError::PointerUsedAsScalar { kernel, index } => {
                write!(
                    f,
                    "{kernel}: pointer parameter {index} used as a scalar value"
                )
            }
            ValidationError::ScalarUsedAsPointer { kernel, index } => {
                write!(f, "{kernel}: scalar parameter {index} used as a pointer")
            }
            ValidationError::BadLocalIndex { kernel, index } => {
                write!(f, "{kernel}: local index {index} out of range")
            }
            ValidationError::UnknownCallee { kernel, callee } => {
                write!(f, "{kernel}: call to unknown kernel {callee:?}")
            }
            ValidationError::CallArity {
                kernel,
                callee,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{kernel}: call to {callee} expects {expected} args, got {got}"
                )
            }
            ValidationError::CallArgKind {
                kernel,
                callee,
                position,
            } => {
                write!(
                    f,
                    "{kernel}: call to {callee}: argument {position} kind mismatch"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Lookup interface for validation of nested calls.
pub(crate) trait KernelLookup {
    fn lookup(&self, id: KernelId) -> Option<&KernelDef>;
}

impl KernelDef {
    /// Validate all structural invariants against already-registered
    /// kernels (callees must be registered before callers, except
    /// self-recursion which is permitted).
    pub(crate) fn validate(
        &self,
        lookup: &dyn KernelLookup,
        self_id: KernelId,
    ) -> Result<(), ValidationError> {
        self.validate_stmts(&self.body, lookup, self_id)
    }

    fn validate_stmts(
        &self,
        stmts: &[Stmt],
        lookup: &dyn KernelLookup,
        self_id: KernelId,
    ) -> Result<(), ValidationError> {
        for s in stmts {
            match s {
                Stmt::Let(local, e) => {
                    self.check_local(*local)?;
                    self.validate_expr(e)?;
                }
                Stmt::Store { ptr, idx, val } => {
                    self.check_ptr_param(*ptr)?;
                    self.validate_expr(idx)?;
                    self.validate_expr(val)?;
                }
                Stmt::If { cond, then_, else_ } => {
                    self.validate_expr(cond)?;
                    self.validate_stmts(then_, lookup, self_id)?;
                    self.validate_stmts(else_, lookup, self_id)?;
                }
                Stmt::For {
                    local,
                    start,
                    end,
                    body,
                } => {
                    self.check_local(*local)?;
                    self.validate_expr(start)?;
                    self.validate_expr(end)?;
                    self.validate_stmts(body, lookup, self_id)?;
                }
                Stmt::Call { callee, args } => {
                    let callee_def = if *callee == self_id {
                        self
                    } else {
                        lookup
                            .lookup(*callee)
                            .ok_or(ValidationError::UnknownCallee {
                                kernel: self.name.clone(),
                                callee: *callee,
                            })?
                    };
                    if callee_def.params.len() != args.len() {
                        return Err(ValidationError::CallArity {
                            kernel: self.name.clone(),
                            callee: callee_def.name.clone(),
                            expected: callee_def.params.len(),
                            got: args.len(),
                        });
                    }
                    for (i, (arg, p)) in args.iter().zip(&callee_def.params).enumerate() {
                        match (arg, p.ty.is_ptr()) {
                            (CallArg::Ptr(idx), true) => self.check_ptr_param(*idx)?,
                            (CallArg::Scalar(e), false) => self.validate_expr(e)?,
                            _ => {
                                return Err(ValidationError::CallArgKind {
                                    kernel: self.name.clone(),
                                    callee: callee_def.name.clone(),
                                    position: i,
                                })
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_expr(&self, e: &Expr) -> Result<(), ValidationError> {
        match e {
            Expr::ConstF(_) | Expr::ConstI(_) | Expr::Tid | Expr::GridSize => Ok(()),
            Expr::Param(i) => {
                let p = self.params.get(*i).ok_or(ValidationError::BadParamIndex {
                    kernel: self.name.clone(),
                    index: *i,
                })?;
                if p.ty.is_ptr() {
                    Err(ValidationError::PointerUsedAsScalar {
                        kernel: self.name.clone(),
                        index: *i,
                    })
                } else {
                    Ok(())
                }
            }
            Expr::Local(i) => self.check_local(*i),
            Expr::Bin(_, a, b) => {
                self.validate_expr(a)?;
                self.validate_expr(b)
            }
            Expr::Un(_, a) => self.validate_expr(a),
            Expr::Load { ptr, idx } => {
                self.check_ptr_param(*ptr)?;
                self.validate_expr(idx)
            }
        }
    }

    fn check_local(&self, i: usize) -> Result<(), ValidationError> {
        if i < self.num_locals {
            Ok(())
        } else {
            Err(ValidationError::BadLocalIndex {
                kernel: self.name.clone(),
                index: i,
            })
        }
    }

    fn check_ptr_param(&self, i: usize) -> Result<(), ValidationError> {
        let p = self.params.get(i).ok_or(ValidationError::BadParamIndex {
            kernel: self.name.clone(),
            index: i,
        })?;
        if p.ty.is_ptr() {
            Ok(())
        } else {
            Err(ValidationError::ScalarUsedAsPointer {
                kernel: self.name.clone(),
                index: i,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoKernels;
    impl KernelLookup for NoKernels {
        fn lookup(&self, _: KernelId) -> Option<&KernelDef> {
            None
        }
    }

    fn simple_def() -> KernelDef {
        // kernel set(out: *f64, v: f64) { out[tid] = v }
        KernelDef {
            name: "set".into(),
            params: vec![
                ParamDecl {
                    name: "out".into(),
                    ty: ParamTy::Ptr(ScalarTy::F64),
                },
                ParamDecl {
                    name: "v".into(),
                    ty: ParamTy::Scalar(ScalarTy::F64),
                },
            ],
            num_locals: 0,
            body: vec![Stmt::Store {
                ptr: 0,
                idx: Expr::Tid,
                val: Expr::Param(1),
            }],
        }
    }

    #[test]
    fn valid_kernel_passes() {
        assert!(simple_def().validate(&NoKernels, KernelId(0)).is_ok());
    }

    #[test]
    fn pointer_as_scalar_rejected() {
        let mut d = simple_def();
        d.body = vec![Stmt::Store {
            ptr: 0,
            idx: Expr::Tid,
            val: Expr::Param(0),
        }];
        assert!(matches!(
            d.validate(&NoKernels, KernelId(0)),
            Err(ValidationError::PointerUsedAsScalar { index: 0, .. })
        ));
    }

    #[test]
    fn scalar_as_pointer_rejected() {
        let mut d = simple_def();
        d.body = vec![Stmt::Store {
            ptr: 1,
            idx: Expr::Tid,
            val: Expr::ConstF(0.0),
        }];
        assert!(matches!(
            d.validate(&NoKernels, KernelId(0)),
            Err(ValidationError::ScalarUsedAsPointer { index: 1, .. })
        ));
    }

    #[test]
    fn bad_param_index_rejected() {
        let mut d = simple_def();
        d.body = vec![Stmt::Let(0, Expr::Param(7))];
        d.num_locals = 1;
        assert!(matches!(
            d.validate(&NoKernels, KernelId(0)),
            Err(ValidationError::BadParamIndex { index: 7, .. })
        ));
    }

    #[test]
    fn bad_local_rejected() {
        let mut d = simple_def();
        d.body = vec![Stmt::Let(3, Expr::ConstI(0))];
        assert!(matches!(
            d.validate(&NoKernels, KernelId(0)),
            Err(ValidationError::BadLocalIndex { index: 3, .. })
        ));
    }

    #[test]
    fn unknown_callee_rejected() {
        let mut d = simple_def();
        d.body = vec![Stmt::Call {
            callee: KernelId(42),
            args: vec![],
        }];
        assert!(matches!(
            d.validate(&NoKernels, KernelId(0)),
            Err(ValidationError::UnknownCallee { .. })
        ));
    }

    #[test]
    fn call_arity_and_kind_checked() {
        struct One(KernelDef);
        impl KernelLookup for One {
            fn lookup(&self, id: KernelId) -> Option<&KernelDef> {
                (id == KernelId(0)).then_some(&self.0)
            }
        }
        let lookup = One(simple_def());
        let caller = KernelDef {
            name: "caller".into(),
            params: vec![ParamDecl {
                name: "p".into(),
                ty: ParamTy::Ptr(ScalarTy::F64),
            }],
            num_locals: 0,
            body: vec![Stmt::Call {
                callee: KernelId(0),
                args: vec![CallArg::Ptr(0)],
            }],
        };
        assert!(matches!(
            caller.validate(&lookup, KernelId(1)),
            Err(ValidationError::CallArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
        let caller2 = KernelDef {
            body: vec![Stmt::Call {
                callee: KernelId(0),
                args: vec![
                    CallArg::Scalar(Expr::ConstF(0.0)),
                    CallArg::Scalar(Expr::ConstF(0.0)),
                ],
            }],
            ..caller
        };
        assert!(matches!(
            caller2.validate(&lookup, KernelId(1)),
            Err(ValidationError::CallArgKind { position: 0, .. })
        ));
    }

    #[test]
    fn scalar_ty_metadata() {
        assert_eq!(ScalarTy::F64.size(), 8);
        assert_eq!(ScalarTy::I32.size(), 4);
        assert!(ScalarTy::F32.is_float());
        assert!(!ScalarTy::I64.is_float());
        assert_eq!(ScalarTy::F64.to_string(), "f64");
    }
}
