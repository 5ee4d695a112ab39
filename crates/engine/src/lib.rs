//! # cage-engine — WASM interpreter with Cage semantics and cycle accounting
//!
//! The execution substrate of the Cage reproduction, standing in for
//! wasmtime + Cranelift on the paper's Pixel 8 (paper §6). It provides:
//!
//! * a complete interpreter for the `cage-wasm` instruction set, including
//!   the paper's Fig. 11 small-step semantics for `segment.new`,
//!   `segment.set_tag`, `segment.free`, `i64.pointer_sign` and
//!   `i64.pointer_auth`;
//! * the three sandboxing strategies of §2.1/§6.4 — explicit software
//!   bounds checks, guard pages (wasm32 only) and MTE-based sandboxing with
//!   the Fig. 13 index masking;
//! * internal memory safety (tag-checked loads/stores) on hardware MTE,
//!   plus a disabled mode (the paper's "equivalent software fallback"
//!   deployment, §4.1, is not modelled);
//! * deterministic cycle accounting parameterised by Tensor G3 core
//!   ([`cost::CostModel`]), which is how the reproduction regenerates the
//!   paper's relative performance results without Arm hardware.
//!
//! ## Example
//!
//! ```
//! use cage_engine::{ExecConfig, Store, Value};
//! use cage_wasm::{builder::ModuleBuilder, Instr, ValType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new();
//! let f = b.add_function(
//!     &[ValType::I64, ValType::I64],
//!     &[ValType::I64],
//!     &[],
//!     vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I64Add],
//! );
//! b.export_func("add", f);
//! let module = b.build();
//!
//! let mut store = Store::new(ExecConfig::default());
//! let inst = store.instantiate(&module, &Default::default())?;
//! let out = store.invoke(inst, "add", &[Value::I64(2), Value::I64(40)])?;
//! assert_eq!(out, vec![Value::I64(42)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod config;
pub mod cost;
#[cfg(test)]
mod difftest;
pub mod host;
pub mod interp;
pub mod memory;
#[cfg(test)]
mod memory_model;
pub mod store;
pub mod trap;
mod tree;
pub mod typed;
pub mod value;

pub use config::{BoundsCheckStrategy, ExecConfig, InternalSafety};
pub use cost::{ChargeClass, ChargeCounts, ClassWeights, CostModel};
pub use host::{HostContext, HostFunc, Imports};
pub use memory::{LinearMemory, TagScheme};
pub use store::{InstanceHandle, InstanceLimits, InstantiateError, Precompiled, Store};
pub use trap::Trap;
pub use typed::{WasmParams, WasmResults, WasmTy};
pub use value::Value;
