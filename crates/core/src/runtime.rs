//! The multi-instance runtime: one simulated process, its instances
//! and their libcs, plus the §7.3 memory and §7.2 startup reports
//! ([`MemoryReport`], [`startup_report`]).
//!
//! A [`Runtime`] is an engine [`Store`] under one Table 3 variant and
//! core; the store keeps each instance's libc ([`Libc`], its allocator
//! and captured stdout), so an instance is named by its
//! [`InstanceHandle`] alone. Instantiate several artifacts into one
//! runtime to share the §6.4 sandbox-tag budget
//! ([`crate::Artifact::instantiate_into`]).
//!
//! ```
//! use cage::runtime::Runtime;
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
//! let mut rt = Runtime::new(Variant::BaselineWasm64, Core::CortexX3);
//! let inst = rt.instantiate_linked(&lowered.module, lowered.heap_base, &linker)?;
//! assert_eq!(rt.invoke(inst, "answer", &[])?, vec![Value::I64(42)]);
//! # Ok(())
//! # }
//! ```

use cage_engine::store::InstantiateError;
use cage_engine::{ChargeCounts, InstanceHandle, Precompiled, Store, Trap, Value};
use cage_libc::{Libc, Linker};
use cage_mte::Core;
use cage_wasm::Module;

pub use crate::metrics::MemoryReport;
pub use crate::startup::{startup_report, StartupReport};
use crate::Variant;

/// One simulated process executing under a Table 3 variant on one core.
#[derive(Debug)]
pub struct Runtime {
    store: Store,
}

impl Runtime {
    /// Creates a runtime for `variant` on `core`.
    #[must_use]
    pub fn new(variant: Variant, core: Core) -> Self {
        Runtime {
            store: Store::new(variant.exec_config(core)),
        }
    }

    /// The configured variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.store.config().variant
    }

    /// Compiles `module` under the default compile limits and
    /// instantiates it against `linker`: [`Precompiled::new`] followed by
    /// [`Runtime::instantiate_precompiled`], for a hand-built module that
    /// gets one instance.
    ///
    /// # Errors
    ///
    /// [`InstantiateError`] — an invalid or over-limit module, and
    /// everything [`Runtime::instantiate_precompiled`] reports.
    pub fn instantiate_linked(
        &mut self,
        module: &Module,
        heap_base: u64,
        linker: &Linker,
    ) -> Result<InstanceHandle, InstantiateError> {
        self.instantiate_precompiled(&Precompiled::new(module)?, heap_base, linker)
    }

    /// Stamps an instance out of `pre` against `linker`, the explicit
    /// host surface; nothing is validated or compiled here
    /// ([`Linker::instantiate`]: a linker that provides libc gives the
    /// instance a fresh one with its heap at `heap_base`).
    ///
    /// # Errors
    ///
    /// [`InstantiateError`] — unresolved imports, the 15-sandbox MTE
    /// limit, a trapping start function.
    pub fn instantiate_precompiled(
        &mut self,
        pre: &Precompiled,
        heap_base: u64,
        linker: &Linker,
    ) -> Result<InstanceHandle, InstantiateError> {
        linker.instantiate(&mut self.store, pre, heap_base)
    }

    /// Invokes an export.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn invoke(
        &mut self,
        inst: InstanceHandle,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.store.invoke(inst, name, args)
    }

    /// Calls a function by index (an export resolved once, as
    /// [`crate::TypedFunc`] does).
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn call(
        &mut self,
        inst: InstanceHandle,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.store.call(inst, func_idx, args)
    }

    /// The libc an instance was linked with, if any.
    fn libc(&self, inst: InstanceHandle) -> Option<&Libc> {
        self.store.host_state::<Libc>(inst)
    }

    /// Captured stdout of an instance (empty when the instance was linked
    /// without libc).
    #[must_use]
    pub fn stdout(&self, inst: InstanceHandle) -> String {
        self.libc(inst).map(Libc::stdout).unwrap_or_default()
    }

    /// The module an instance was created from.
    #[must_use]
    pub fn module(&self, inst: InstanceHandle) -> &Module {
        self.store.module(inst)
    }

    /// Simulated milliseconds consumed by an instance.
    #[must_use]
    pub fn simulated_ms(&self, inst: InstanceHandle) -> f64 {
        self.store.simulated_ms(inst)
    }

    /// What an instance has been charged: counts per class and its host
    /// functions' eighth-cycles (core-independent; cycles and the
    /// instruction count are derived from it).
    #[must_use]
    pub fn charge_counts(&self, inst: InstanceHandle) -> ChargeCounts {
        self.store.charge_counts(inst)
    }

    /// Simulated cycles consumed by an instance.
    #[must_use]
    pub fn cycles(&self, inst: InstanceHandle) -> f64 {
        self.store.cycles(inst)
    }

    /// Instructions retired by an instance.
    #[must_use]
    pub fn instr_count(&self, inst: InstanceHandle) -> u64 {
        self.store.instr_count(inst)
    }

    /// Resets an instance's cycle accounting (between benchmark phases).
    pub fn reset_counters(&mut self, inst: InstanceHandle) {
        self.store.reset_counters(inst);
    }

    /// Memory report for §7.3.
    #[must_use]
    pub fn memory_report(&self, inst: InstanceHandle) -> MemoryReport {
        let stats = self.libc(inst).map(Libc::stats).unwrap_or_default();
        MemoryReport::collect(self.store.memory(inst), stats)
    }

    /// Number of instances in this process.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.store.instance_count()
    }

    /// Signs a pointer with an instance's PAC key (cross-instance
    /// experiments).
    #[must_use]
    pub fn sign_pointer(&self, inst: InstanceHandle, ptr: u64) -> u64 {
        self.store.sign_pointer(inst, ptr)
    }

    /// Authenticates a pointer under an instance's PAC key.
    ///
    /// # Errors
    ///
    /// [`Trap::PointerAuth`] on signature mismatch.
    pub fn auth_pointer(&self, inst: InstanceHandle, ptr: u64) -> Result<u64, Trap> {
        self.store.auth_pointer(inst, ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_ir::passes::run_pipeline;
    use cage_ir::{lower, LowerOptions};

    fn build(source: &str, variant: Variant) -> (Module, u64) {
        let mut ir = cage_cc::compile(source).expect("compiles");
        run_pipeline(&mut ir, variant.harden_config());
        let opts = LowerOptions {
            ptr_width: variant.ptr_width(),
            ..LowerOptions::default()
        };
        let lowered = lower(&ir, &opts).expect("lowers");
        (lowered.module, lowered.heap_base)
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
        let mut results = Vec::new();
        for variant in Variant::ALL {
            let (module, heap_base) = build(PROGRAM, variant);
            let mut rt = Runtime::new(variant, Core::CortexX3);
            let inst = rt
                .instantiate_linked(&module, heap_base, &Linker::with_libc())
                .unwrap();
            let out = rt.invoke(inst, "work", &[Value::I64(50)]).unwrap();
            assert_eq!(rt.stdout(inst), "3675\n", "{variant}");
            results.push((variant, out));
        }
        let expect = vec![Value::I64(3675)];
        for (variant, out) in results {
            assert_eq!(out, expect, "{variant}");
        }
    }

    #[test]
    fn variants_differ_in_simulated_cost() {
        let core = Core::CortexA510;
        let cost = |variant: Variant| {
            let (module, heap_base) = build(PROGRAM, variant);
            let mut rt = Runtime::new(variant, core);
            let inst = rt
                .instantiate_linked(&module, heap_base, &Linker::with_libc())
                .unwrap();
            rt.invoke(inst, "work", &[Value::I64(200)]).unwrap();
            rt.simulated_ms(inst)
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
        let (module, heap_base) = build(PROGRAM, Variant::CageSandboxing);
        let mut rt = Runtime::new(Variant::CageSandboxing, Core::CortexX3);
        let a = rt
            .instantiate_linked(&module, heap_base, &Linker::with_libc())
            .unwrap();
        let b = rt
            .instantiate_linked(&module, heap_base, &Linker::with_libc())
            .unwrap();
        rt.invoke(a, "work", &[Value::I64(10)]).unwrap();
        assert_eq!(rt.stdout(a), "135\n");
        assert_eq!(rt.stdout(b), "", "b untouched");
        assert_eq!(rt.instance_count(), 2);
    }

    #[test]
    fn sandbox_limit_is_surfaced() {
        let (module, heap_base) = build("long f() { return 1; }", Variant::CageSandboxing);
        let mut rt = Runtime::new(Variant::CageSandboxing, Core::CortexX3);
        for _ in 0..15 {
            rt.instantiate_linked(&module, heap_base, &Linker::with_libc())
                .unwrap();
        }
        assert!(matches!(
            rt.instantiate_linked(&module, heap_base, &Linker::with_libc()),
            Err(InstantiateError::TooManySandboxes)
        ));
    }

    #[test]
    fn cross_instance_pointer_reuse_fails() {
        // §4.2: signed pointers leak-proof across instances.
        let (module, heap_base) = build("long f() { return 1; }", Variant::CageFull);
        let mut rt = Runtime::new(Variant::CageFull, Core::CortexX3);
        let a = rt
            .instantiate_linked(&module, heap_base, &Linker::with_libc())
            .unwrap();
        // Combined mode allows one sandbox; use a ptr-auth-only runtime
        // for the two-instance check.
        let (module2, hb2) = build("long f() { return 1; }", Variant::CagePtrAuth);
        let mut rt2 = Runtime::new(Variant::CagePtrAuth, Core::CortexX3);
        let x = rt2
            .instantiate_linked(&module2, hb2, &Linker::with_libc())
            .unwrap();
        let y = rt2
            .instantiate_linked(&module2, hb2, &Linker::with_libc())
            .unwrap();
        let signed = rt2.sign_pointer(x, 0x1234);
        assert!(rt2.auth_pointer(x, signed).is_ok());
        assert!(rt2.auth_pointer(y, signed).is_err());
        let _ = (a, rt);
    }
}
