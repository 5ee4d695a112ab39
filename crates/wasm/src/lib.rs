//! # cage-wasm — WebAssembly module model with the Cage extension
//!
//! This crate is the WASM substrate of the Cage reproduction: an in-memory
//! module representation, a binary encoder/decoder, a validator, a
//! programmatic builder and a WAT-flavoured printer. It implements core
//! WebAssembly (MVP numeric/control/memory instructions, plus the
//! sign-extension and bulk-memory operators the toolchain uses), the
//! *memory64* proposal the paper builds on, and the five new instructions
//! Cage adds (paper §4.2, Fig. 7):
//!
//! | instruction           | type                   |
//! |-----------------------|------------------------|
//! | `segment.new o`       | `[i64 i64] -> [i64]`   |
//! | `segment.set_tag o`   | `[i64 i64 i64] -> []`  |
//! | `segment.free o`      | `[i64 i64] -> []`      |
//! | `i64.pointer_sign`    | `[i64] -> [i64]`       |
//! | `i64.pointer_auth`    | `[i64] -> [i64]`       |
//!
//! The Cage instructions are encoded under the `0xFB` prefix; the
//! validator implements the paper's Fig. 10 typing rules, in particular
//! that segment instructions are only valid when a memory is declared.
//!
//! ## Example
//!
//! ```
//! use cage_wasm::{builder::ModuleBuilder, Instr, ValType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new();
//! let add = b.add_function(
//!     &[ValType::I32, ValType::I32],
//!     &[ValType::I32],
//!     &[],
//!     vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
//! );
//! b.export_func("add", add);
//! let module = b.build();
//! cage_wasm::validate::validate(&module)?;
//! let bytes = cage_wasm::binary::encode(&module);
//! let back = cage_wasm::binary::decode(&bytes)?;
//! assert_eq!(module, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod builder;
pub mod instr;
pub mod leb;
pub mod limits;
pub mod module;
pub mod numeric;
pub mod text;
pub mod types;
pub mod validate;

pub use instr::{BlockType, Instr, MemArg};
pub use limits::{CompileFuel, CompileLimits, LimitError};
pub use module::{Data, Elem, Export, ExportKind, Function, Global, Import, ImportKind, Module};
pub use numeric::numeric_signature;
pub use types::{FuncType, GlobalType, Limits, MemoryType, TableType, ValType};
pub use validate::{validate, validate_with_limits, ValidationError};
