//! # cage-ir — the compiler middle-end of the Cage toolchain
//!
//! Stands in for the paper's LLVM 17 layer (§6.1): a small structured IR
//! with stack allocations (`alloca`s), address arithmetic (GEPs), calls and
//! function pointers — exactly the constructs Cage's two sanitizer passes
//! inspect — plus a lowering to `cage-wasm` that plays the role of LLVM's
//! WASM backend emitting the new Cage instructions.
//!
//! The two paper passes are implemented faithfully:
//!
//! * [`passes::stack_safety`] — Algorithm 1: finds stack allocations that
//!   escape or are addressed through statically unverifiable GEPs, wraps
//!   them in segments (`segment.new` on entry, retag-to-frame on every
//!   exit) and inserts the untagged guard slot that prevents adjacent-frame
//!   tag collisions (Fig. 8b).
//! * [`passes::ptr_auth`] — signs every function address at creation and
//!   authenticates before every indirect call (Fig. 9's instruction
//!   sequence appears at lowering).
//!
//! Utility passes (`mem2reg`, constant folding, DCE) run *before* the
//! sanitizers, mirroring the paper's pipeline ("both sanitizer passes run
//! after all LLVM optimizations", §6.1).
//!
//! The crate also hosts the generic machinery behind the engine's
//! register-bytecode tier: [`ssa`] (Braun-style SSA construction and
//! parallel-copy sequencing for phi elimination) and [`regalloc`]
//! (block liveness and linear-scan slot assignment).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod instr;
pub mod lower;
#[cfg(test)]
mod lowering_model;
pub mod module;
pub mod passes;
#[cfg(test)]
mod passes_model;
pub mod regalloc;
pub mod ssa;
pub mod types;

pub use builder::FunctionBuilder;
pub use instr::{BinOp, Callee, CastKind, Expr, MemTy, Operand, Stmt, UnOp};
pub use lower::{lower, lower_with_limits, LowerError, LowerOptions, PtrWidth};
pub use module::{
    Alloca, AllocaId, ExternFunc, FuncId, GlobalData, GlobalId, IrFunction, IrModule, ValueId,
};
pub use types::IrType;
