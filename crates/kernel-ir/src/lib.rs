//! # kernel-ir — a miniature device-kernel IR and "compiler pass"
//!
//! The paper's CuSan compiler extension analyzes the LLVM IR of CUDA device
//! code to derive, for every kernel pointer argument, whether the kernel
//! **reads**, **writes**, or **reads and writes** through it (paper §IV-B1,
//! Fig. 8). That per-argument access attribute is consumed at kernel-launch
//! time to annotate the argument's whole allocation in TSan.
//!
//! `cusan-rs` cannot run an LLVM pass, so this crate supplies the closest
//! synthetic equivalent: kernels are written in a small IR
//! ([`ast::KernelDef`]) with expressions, stores, conditionals, loops, and
//! **nested kernel calls** that forward pointer parameters — the exact
//! feature the paper's interprocedural analysis exists for. The
//! [`analysis`] module implements the conservative interprocedural
//! forward-dataflow analysis over that IR.
//!
//! Kernels also carry an optional **native closure** (the "fat binary"):
//! the fast Rust implementation the simulated device actually executes.
//! The [`interp`] module is the reference interpreter for the IR; property
//! tests in the workspace assert `interpreter(IR) ≡ native closure`,
//! mirroring how the real pass's analysis target and the executed SASS both
//! derive from one CUDA source.
//!
//! ## Modules
//!
//! * [`ast`] — IR types and validation
//! * [`builder`] — ergonomic kernel construction with operator overloading
//! * [`analysis`] — per-argument access attributes (the compiler pass)
//! * [`interp`] — reference interpreter with bounds checking
//! * [`registry`] — kernel registry, launch grids, native execution contexts

pub mod analysis;
pub mod ast;
pub mod builder;
pub mod interp;
pub mod registry;

pub use analysis::{AccessAttr, AnalysisResult};
pub use ast::{
    BinOp, CallArg, Expr, KernelDef, KernelId, ParamDecl, ParamTy, ScalarTy, Stmt, UnOp,
    ValidationError,
};
pub use interp::{InterpError, KValue, KernelMemory, VecMemory};
pub use registry::{KernelRegistry, LaunchArg, LaunchGrid, NativeCtx, NativeKernel};
