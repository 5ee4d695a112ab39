//! The §7.3 memory and §7.2 startup reports ([`MemoryReport`],
//! [`startup_report`]).
//!
//! A simulated process is an engine [`Store`]: built from an engine's
//! [`crate::Engine::exec_config`], it keeps each instance's libc
//! ([`cage_libc::Libc`], its allocator and captured stdout), so an
//! instance is named by its [`cage_engine::InstanceHandle`] alone.
//! Instantiate several artifacts into one store to share the §6.4
//! sandbox-tag budget ([`crate::Artifact::instantiate_into`]).
//!
//! ```
//! use cage::engine::{Precompiled, Store};
//! use cage::{Core, Linker, Value, Variant};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny module built through the toolchain's lowering.
//! let ir = {
//!     let mut b = cage::ir::FunctionBuilder::new("answer", &[], Some(cage::ir::IrType::I64));
//!     b.set_exported(true);
//!     b.stmt(cage::ir::Stmt::Return(Some(cage::ir::Operand::ConstI64(42))));
//!     let mut m = cage::ir::IrModule::new();
//!     m.functions.push(b.finish());
//!     m
//! };
//! let lowered = cage::ir::lower(&ir, &cage::ir::LowerOptions::default())?;
//!
//! // The host surface is explicit: a Linker names what instances import.
//! let linker = Linker::with_libc();
//! let mut store = Store::new(Variant::BaselineWasm64.exec_config(Core::CortexX3));
//! let pre = Precompiled::new(&lowered.module)?;
//! let inst = linker.instantiate(&mut store, &pre)?;
//! assert_eq!(store.invoke(inst, "answer", &[])?, vec![Value::I64(42)]);
//! # Ok(())
//! # }
//! ```

use cage_engine::store::InstantiateError;
use cage_engine::{ExecConfig, InstanceHandle, Precompiled, Store, Trap, Value};
use cage_libc::Linker;
use cage_wasm::Module;

pub use crate::metrics::MemoryReport;
pub use crate::startup::{startup_report, StartupReport};

/// A [`Store`] with the four calls `cage-bench` makes on it.
// Kept for cage-bench's two call sites until the benchmark changes (ROADMAP item 7).
#[doc(hidden)]
#[derive(Debug)]
pub struct Runtime {
    store: Store,
}

impl Runtime {
    pub(crate) fn new(config: ExecConfig) -> Self {
        Runtime {
            store: Store::new(config),
        }
    }

    /// [`Precompiled::new`] under the default compile limits, then
    /// [`Linker::instantiate`], whose libc reads the module's own heap
    /// base.
    pub fn instantiate_linked(
        &mut self,
        module: &Module,
        // Unread; goes with `Runtime` in ROADMAP item 7 (14).
        _heap_base: u64,
        linker: &Linker,
    ) -> Result<InstanceHandle, InstantiateError> {
        linker.instantiate(&mut self.store, &Precompiled::new(module)?)
    }

    /// [`Store::invoke`].
    pub fn invoke(
        &mut self,
        inst: InstanceHandle,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.store.invoke(inst, name, args)
    }

    /// [`Store::cycles`].
    #[must_use]
    pub fn cycles(&self, inst: InstanceHandle) -> f64 {
        self.store.cycles(inst)
    }

    /// [`Store::instr_count`].
    #[must_use]
    pub fn instr_count(&self, inst: InstanceHandle) -> u64 {
        self.store.instr_count(inst)
    }
}

#[cfg(test)]
mod tests {
    use cage_cc::compile;
    use cage_engine::store::InstantiateError;
    use cage_engine::{InstanceHandle, Precompiled, Store, Value};
    use cage_ir::passes::run_pipeline;
    use cage_ir::{lower, LowerOptions};
    use cage_libc::{Libc, Linker};
    use cage_mte::Core;

    use crate::Variant;

    /// `source` hardened, lowered and precompiled for `variant`, and an
    /// empty store on `core` to instantiate it into.
    fn build(source: &str, variant: Variant, core: Core) -> (Precompiled, Store) {
        let mut ir = compile(source).expect("compiles");
        run_pipeline(&mut ir, variant.harden_config());
        let opts = LowerOptions {
            ptr_width: variant.ptr_width(),
            ..LowerOptions::default()
        };
        let lowered = lower(&ir, &opts).expect("lowers");
        let pre = Precompiled::new(&lowered.module).expect("precompiles");
        (pre, Store::new(variant.exec_config(core)))
    }

    fn stdout(store: &Store, inst: InstanceHandle) -> String {
        store.host_state::<Libc>(inst).map(Libc::stdout).unwrap()
    }

    const PROGRAM: &str = r#"
        long work(long n) {
            long* buf = (long*)malloc(n * 8);
            long acc = 0;
            for (long i = 0; i < n; i++) {
                buf[i] = i * 3;
            }
            for (long i = 0; i < n; i++) {
                acc += buf[i];
            }
            free((char*)buf);
            print_i64(acc);
            return acc;
        }
    "#;

    #[test]
    fn program_runs_identically_under_every_variant() {
        let linker = Linker::with_libc();
        let mut results = Vec::new();
        for variant in Variant::ALL {
            let (pre, mut store) = build(PROGRAM, variant, Core::CortexX3);
            let inst = linker.instantiate(&mut store, &pre).unwrap();
            let out = store.invoke(inst, "work", &[Value::I64(50)]).unwrap();
            assert_eq!(stdout(&store, inst), "3675\n", "{variant}");
            results.push((variant, out));
        }
        let expect = vec![Value::I64(3675)];
        for (variant, out) in results {
            assert_eq!(out, expect, "{variant}");
        }
    }

    #[test]
    fn variants_differ_in_simulated_cost() {
        let linker = Linker::with_libc();
        let cost = |variant: Variant| {
            let (pre, mut store) = build(PROGRAM, variant, Core::CortexA510);
            let inst = linker.instantiate(&mut store, &pre).unwrap();
            store.invoke(inst, "work", &[Value::I64(200)]).unwrap();
            store.simulated_ms(inst)
        };
        let wasm32 = cost(Variant::BaselineWasm32);
        let wasm64 = cost(Variant::BaselineWasm64);
        let sandbox = cost(Variant::CageSandboxing);
        // §3: software bounds checks cost extra on the in-order core;
        // Fig. 14: MTE sandboxing wins them back. (The full §3 magnitude
        // is asserted on the PolyBench kernels in cage-bench, which are
        // memory-bound; this allocator-heavy program shows the direction.)
        assert!(wasm64 > wasm32, "wasm64 {wasm64} vs wasm32 {wasm32}");
        assert!(sandbox < wasm64, "sandbox {sandbox} vs wasm64 {wasm64}");
    }

    #[test]
    fn multiple_instances_are_isolated() {
        let linker = Linker::with_libc();
        let (pre, mut store) = build(PROGRAM, Variant::CageSandboxing, Core::CortexX3);
        let a = linker.instantiate(&mut store, &pre).unwrap();
        let b = linker.instantiate(&mut store, &pre).unwrap();
        store.invoke(a, "work", &[Value::I64(10)]).unwrap();
        assert_eq!(stdout(&store, a), "135\n");
        assert_eq!(stdout(&store, b), "", "b untouched");
        assert_eq!(store.instance_count(), 2);
    }

    #[test]
    fn sandbox_limit_is_surfaced() {
        let linker = Linker::with_libc();
        let source = "long f() { return 1; }";
        let (pre, mut store) = build(source, Variant::CageSandboxing, Core::CortexX3);
        for _ in 0..15 {
            linker.instantiate(&mut store, &pre).unwrap();
        }
        assert!(matches!(
            linker.instantiate(&mut store, &pre),
            Err(InstantiateError::TooManySandboxes)
        ));
    }

    #[test]
    fn cross_instance_pointer_reuse_fails() {
        // §4.2: signed pointers leak-proof across instances.
        let linker = Linker::with_libc();
        let source = "long f() { return 1; }";
        let (pre, mut store) = build(source, Variant::CageFull, Core::CortexX3);
        let a = linker.instantiate(&mut store, &pre).unwrap();
        // Combined mode allows one sandbox; use a ptr-auth-only store
        // for the two-instance check.
        let (pre2, mut store2) = build(source, Variant::CagePtrAuth, Core::CortexX3);
        let x = linker.instantiate(&mut store2, &pre2).unwrap();
        let y = linker.instantiate(&mut store2, &pre2).unwrap();
        let signed = store2.sign_pointer(x, 0x1234);
        assert!(store2.auth_pointer(x, signed).is_ok());
        assert!(store2.auth_pointer(y, signed).is_err());
        let _ = (a, store);
    }
}
