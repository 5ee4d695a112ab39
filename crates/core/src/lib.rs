//! # cage — Hardware-Accelerated Safe WebAssembly (CGO 2025 reproduction)
//!
//! The facade crate: one API spanning the whole toolchain of the paper's
//! Fig. 5 — C source → sanitizer passes → hardened WASM → MTE/PAC-backed
//! execution:
//!
//! ```text
//! C source ──cage-cc──▶ IR ──passes──▶ IR' ──lower──▶ wasm64 ──cage-runtime──▶ result
//!                        (Algorithm 1,              (segment.new,        (MTE tags,
//!                         ptr-auth pass)             pointer_sign/auth)   PAC keys)
//! ```
//!
//! ## Quick start
//!
//! The embedding model is wasmtime's: an [`Engine`] is the shared
//! compilation environment, a [`Linker`] names the host surface, and
//! typed function handles ([`Instance::get_typed`]) replace `&[Value]`
//! plumbing.
//!
//! ```
//! use cage::{Engine, Variant};
//!
//! # fn main() -> Result<(), cage::Error> {
//! let engine = Engine::new(Variant::CageFull);
//! let artifact = engine.compile(
//!     r#"
//!     long sum(long n) {
//!         long acc = 0;
//!         for (long i = 0; i < n; i++) acc += i;
//!         return acc;
//!     }
//!     "#,
//! )?;
//! let mut instance = engine.instantiate(&artifact)?;
//! let sum = instance.get_typed::<i64, i64>("sum")?;
//! assert_eq!(sum.call(&mut instance, 10)?, 45);
//! # Ok(())
//! # }
//! ```
//!
//! Custom host functions are first-class: declare a prototype in C and
//! register the implementation in a [`Linker`]:
//!
//! ```
//! use cage::{Engine, Linker, Value, Variant};
//! use cage::wasm::ValType;
//!
//! # fn main() -> Result<(), cage::Error> {
//! let engine = Engine::new(Variant::CageFull);
//! let artifact = engine.compile(
//!     r#"
//!     long next_id(long hint);           // host-provided (env.next_id)
//!     long fresh(long hint) { return next_id(hint) * 10; }
//!     "#,
//! )?;
//! let mut linker = Linker::with_libc();
//! linker.func("env", "next_id", &[ValType::I64], &[ValType::I64], |_ctx, args| {
//!     Ok(vec![Value::I64(args[0].as_i64() + 1)])
//! });
//! let mut instance = engine.instantiate_with(&artifact, &linker)?;
//! let fresh = instance.get_typed::<i64, i64>("fresh")?;
//! assert_eq!(fresh.call(&mut instance, 6)?, 70);
//! # Ok(())
//! # }
//! ```
//!
//! The same engine with a buggy program and [`Variant::CageFull`] traps on
//! the paper's CVE classes (heap/stack overflow, use-after-free, double
//! free) instead of silently corrupting memory — see `examples/` and the
//! `tests/security_cves.rs` suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod embed;
mod error;
pub mod gallery;

pub use cage_ir::passes::OptLevel;
pub use embed::{compile_panic_count, Artifact, Engine, EngineBuilder, Instance, TypedFunc};
pub use error::Error;

pub use cage_engine::{InstanceLimits, Trap, Value, WasmParams, WasmResults, WasmTy};
pub use cage_mte::Core;
pub use cage_runtime::{Linker, MemoryReport, PoolMetrics, StartupReport, Variant};
pub use cage_serve::{
    EpochTicker, Fault, FaultPlan, HostProfile, InstancePre, Pool, PooledInstance, ServeError,
};

pub use cage_cc as cc;
pub use cage_engine as engine;
pub use cage_ir as ir;
pub use cage_libc as libc;
pub use cage_mte as mte;
pub use cage_pac as pac;
pub use cage_runtime as runtime;
pub use cage_serve as serve;
pub use cage_wasm as wasm;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_rejects_bad_c() {
        assert!(matches!(
            Engine::new(Variant::BaselineWasm64).compile("long f( {"),
            Err(Error::Compile(_))
        ));
    }

    #[test]
    fn artifact_roundtrips_through_binary_format() {
        let artifact = Engine::new(Variant::CageFull)
            .compile("long f() { return 7; }")
            .unwrap();
        let bytes = artifact.wasm_bytes();
        let decoded = cage_wasm::binary::decode(&bytes).unwrap();
        assert_eq!(&decoded, artifact.module());
    }

    #[test]
    fn end_to_end_all_variants() {
        for variant in Variant::ALL {
            let engine = Engine::builder(variant).core(Core::CortexA715).build();
            let artifact = engine
                .compile("long f(long x) { long a[4]; a[x % 4] = x; return a[x % 4] * 2; }")
                .unwrap();
            let mut inst = engine.instantiate(&artifact).unwrap();
            let f = inst.get_typed::<i64, i64>("f").unwrap();
            assert_eq!(f.call(&mut inst, 21).unwrap(), 42, "{variant}");
            assert!(inst.cycles() > 0.0);
        }
    }

    #[test]
    fn memory_report_shows_tag_overhead_only_for_cage() {
        let src = "long f() { return 0; }";
        let instantiate = |variant: Variant| {
            let engine = Engine::new(variant);
            let artifact = engine.compile(src).unwrap();
            engine.instantiate(&artifact).unwrap()
        };
        let base = instantiate(Variant::BaselineWasm64);
        let caged = instantiate(Variant::CageFull);
        assert_eq!(base.memory_report().tag_bytes, 0);
        assert!(caged.memory_report().tag_bytes > 0);
    }

    #[test]
    fn typed_func_signature_mismatch_is_detected() {
        let engine = Engine::new(Variant::BaselineWasm64);
        let artifact = engine.compile("long f(long x) { return x; }").unwrap();
        let inst = engine.instantiate(&artifact).unwrap();
        let err = inst.get_typed::<(f64, f64), i64>("f").unwrap_err();
        assert!(matches!(err, Error::SignatureMismatch { .. }), "{err}");
        assert!(matches!(
            inst.get_typed::<i64, i64>("missing").unwrap_err(),
            Error::MissingExport { .. }
        ));
    }

    #[test]
    fn engine_is_cheap_to_clone_and_share() {
        let engine = Engine::builder(Variant::CageFull).memory_pages(128).build();
        let clone = engine.clone();
        assert_eq!(clone.memory_pages(), 128);
        assert_eq!(clone.variant(), Variant::CageFull);
        // Both handles compile against the same environment.
        let artifact = clone.compile("long f() { return 1; }").unwrap();
        assert_eq!(artifact.memory_pages(), 128);
    }
}
