//! # cage-cc — a micro-C frontend for the Cage toolchain
//!
//! Stands in for clang in the paper's pipeline (Fig. 5): it compiles
//! *unmodified* C sources — the subset PolyBench/C and the paper's
//! motivating examples use — down to `cage-ir`, where the optimisation and
//! sanitizer passes run before lowering to hardened WASM.
//!
//! Supported C subset:
//!
//! * types: `int`, `long`, `char`, `double`, `void`, pointers,
//!   fixed-size (multi-dimensional) arrays, `struct`s, function pointers;
//! * statements: declarations with initialisers, `if`/`else`, `while`,
//!   `for`, `break`, `continue`, `return`, blocks, expression statements;
//! * expressions: the usual C operator set with C precedence, including
//!   short-circuit `&&`/`||`, compound assignment, `++`/`--`, casts,
//!   `sizeof`, address-of/dereference, array indexing, member access
//!   (`.`/`->`), calls and calls through function pointers;
//! * string literals (placed in global data) and character constants;
//! * the paper's builtins for custom allocators (§4.1 "we expose Cage's
//!   memory safety primitives to C"): `__builtin_segment_new`,
//!   `__builtin_segment_free`, `__builtin_segment_set_tag`,
//!   `__builtin_pointer_sign`, `__builtin_pointer_auth`;
//! * the `cage-libc` interface (`malloc`, `free`, `calloc`, `realloc`,
//!   `strcpy`, `memset`, `print_*`…) — recognised implicitly, imported
//!   from the `cage_libc` host module.
//!
//! ## Example
//!
//! ```
//! use cage_cc::compile;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ir = compile(
//!     r#"
//!     long add(long a, long b) { return a + b; }
//!     "#,
//! )?;
//! assert_eq!(ir.functions.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codegen;
pub mod error;
pub mod lexer;
#[cfg(test)]
mod lexer_model;
pub mod parser;
pub mod types;

pub use codegen::{compile_ast, compile_ast_with};
pub use error::CompileError;
pub use parser::{parse, parse_with};

/// Compiles C source to a `cage-ir` module (parse + typecheck + lower).
///
/// # Errors
///
/// Returns [`CompileError`] with a line number on syntax or type errors.
pub fn compile(source: &str) -> Result<cage_ir::IrModule, CompileError> {
    let ast = parse(source)?;
    compile_ast(&ast)
}

/// Like [`compile`], but bounds the work done on hostile input against
/// `limits` and the shared `fuel` budget.
///
/// # Errors
///
/// Returns [`CompileError`]; [`CompileError::limit`] is set when a
/// resource bound (not a language error) stopped the compilation.
pub fn compile_with(
    source: &str,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<cage_ir::IrModule, CompileError> {
    let ast = parse_with(source, limits, fuel)?;
    compile_ast_with(&ast, limits, fuel)
}
