//! # cage-runtime — the embedder API (the wasmtime role)
//!
//! Sits on top of `cage-engine` the way the paper's modified wasmtime sits
//! on Cranelift: it names the benchmark configurations of Table 3, wires
//! `cage-libc` into instances automatically, tracks startup and memory
//! metrics (§7.2, §7.3), and manages multi-instance processes under the
//! MTE sandbox-tag budget (§6.4).
//!
//! ## Example
//!
//! ```
//! use cage_runtime::{Linker, Runtime, Variant};
//! use cage_engine::Value;
//! use cage_mte::Core;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny module built through the toolchain's lowering.
//! let ir = {
//!     let mut b = cage_ir::FunctionBuilder::new("answer", &[], Some(cage_ir::IrType::I64));
//!     b.set_exported(true);
//!     b.stmt(cage_ir::Stmt::Return(Some(cage_ir::Operand::ConstI64(42))));
//!     let mut m = cage_ir::IrModule::new();
//!     m.functions.push(b.finish());
//!     m
//! };
//! let lowered = cage_ir::lower(&ir, &cage_ir::LowerOptions::default())?;
//!
//! // The host surface is explicit: a Linker names what instances import.
//! let linker = Linker::with_libc();
//! let mut rt = Runtime::new(Variant::BaselineWasm64, Core::CortexX3);
//! let inst = rt.instantiate_linked(&lowered.module, lowered.heap_base, &linker)?;
//! assert_eq!(rt.invoke(inst, "answer", &[])?, vec![Value::I64(42)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod linker;
pub mod metrics;
pub mod runtime;
pub mod startup;
pub mod variant;

pub use linker::Linker;
pub use metrics::{MemoryReport, PoolMetrics};
pub use runtime::{InstanceToken, Runtime};
pub use startup::{startup_report, StartupReport};
pub use variant::Variant;
