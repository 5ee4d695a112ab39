//! The runtime: instance lifecycle with libc wiring.

use std::fmt;

use cage_engine::store::InstantiateError;
use cage_engine::{InstanceHandle, Precompiled, Store, Trap, Value};
use cage_libc::Libc;
use cage_mte::Core;
use cage_wasm::Module;

use crate::linker::Linker;
use crate::metrics::MemoryReport;
use crate::variant::Variant;

/// Runtime errors.
#[derive(Debug)]
pub enum RuntimeError {
    /// Instantiation failed.
    Instantiate(InstantiateError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Instantiate(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<InstantiateError> for RuntimeError {
    fn from(e: InstantiateError) -> Self {
        RuntimeError::Instantiate(e)
    }
}

/// Handle to an instance inside a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceToken {
    handle: InstanceHandle,
    idx: usize,
}

/// One simulated process executing under a Table 3 variant on one core.
pub struct Runtime {
    store: Store,
    variant: Variant,
    libcs: Vec<Option<Libc>>,
    handles: Vec<InstanceHandle>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("variant", &self.variant)
            .field("instances", &self.handles.len())
            .finish()
    }
}

impl Runtime {
    /// Creates a runtime for `variant` on `core`.
    #[must_use]
    pub fn new(variant: Variant, core: Core) -> Self {
        Runtime {
            store: Store::new(variant.exec_config(core)),
            variant,
            libcs: Vec::new(),
            handles: Vec::new(),
        }
    }

    /// The configured variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The underlying engine store (advanced embedding).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the engine store.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Compiles `module` under the default compile limits and
    /// instantiates it against `linker`: [`Precompiled::new`] followed by
    /// [`Runtime::instantiate_precompiled`], for a hand-built module that
    /// gets one instance.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Instantiate`] — an invalid or over-limit module,
    /// and everything [`Runtime::instantiate_precompiled`] reports.
    pub fn instantiate_linked(
        &mut self,
        module: &Module,
        heap_base: u64,
        linker: &Linker,
    ) -> Result<InstanceToken, RuntimeError> {
        self.instantiate_precompiled(&Precompiled::new(module)?, heap_base, linker)
    }

    /// Stamps an instance out of `pre` against `linker`, the explicit
    /// host surface; nothing is validated or compiled here.
    ///
    /// When the linker provides libc ([`Linker::with_libc`]) a fresh
    /// per-instance libc is created with its heap at `heap_base` (use the
    /// module's `__heap_base` / `cage_ir::Lowered::heap_base`); embedder
    /// definitions in the linker shadow libc names.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Instantiate`] — unresolved imports, the 15-sandbox
    /// MTE limit, a trapping start function.
    pub fn instantiate_precompiled(
        &mut self,
        pre: &Precompiled,
        heap_base: u64,
        linker: &Linker,
    ) -> Result<InstanceToken, RuntimeError> {
        let libc = if linker.provides_libc() {
            Some(if pre.module().is_memory64() {
                Libc::new(heap_base)
            } else {
                Libc::new_wasm32(heap_base)
            })
        } else {
            None
        };
        let imports = linker.build_imports(libc.as_ref());
        let handle = self.store.instantiate_precompiled(pre, &imports)?;
        self.libcs.push(libc);
        self.handles.push(handle);
        Ok(InstanceToken {
            handle,
            idx: self.handles.len() - 1,
        })
    }

    /// Invokes an export.
    ///
    /// # Errors
    ///
    /// Propagates guest traps.
    pub fn invoke(
        &mut self,
        token: InstanceToken,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.store.invoke(token.handle, name, args)
    }

    /// Captured stdout of an instance (empty when the instance was linked
    /// without libc).
    #[must_use]
    pub fn stdout(&self, token: InstanceToken) -> String {
        self.libcs[token.idx]
            .as_ref()
            .map(Libc::stdout)
            .unwrap_or_default()
    }

    /// The module an instance was created from.
    #[must_use]
    pub fn module(&self, token: InstanceToken) -> &Module {
        self.store.module(token.handle)
    }

    /// Simulated milliseconds consumed by an instance.
    #[must_use]
    pub fn simulated_ms(&self, token: InstanceToken) -> f64 {
        self.store.simulated_ms(token.handle)
    }

    /// What an instance has been charged: retired counts per class and
    /// the cycles its host functions charged (core-independent; cycles
    /// and the instruction count are derived from it).
    #[must_use]
    pub fn charge_counts(&self, token: InstanceToken) -> cage_engine::ChargeCounts {
        self.store.charge_counts(token.handle)
    }

    /// Simulated cycles consumed by an instance.
    #[must_use]
    pub fn cycles(&self, token: InstanceToken) -> f64 {
        self.store.cycles(token.handle)
    }

    /// Instructions retired by an instance.
    #[must_use]
    pub fn instr_count(&self, token: InstanceToken) -> u64 {
        self.store.instr_count(token.handle)
    }

    /// Resets an instance's cycle accounting (between benchmark phases).
    pub fn reset_counters(&mut self, token: InstanceToken) {
        self.store.reset_counters(token.handle);
    }

    /// Memory report for §7.3.
    #[must_use]
    pub fn memory_report(&self, token: InstanceToken) -> MemoryReport {
        let stats = self.libcs[token.idx]
            .as_ref()
            .map(Libc::stats)
            .unwrap_or_default();
        MemoryReport::collect(self.store.memory(token.handle), stats)
    }

    /// Number of instances in this process.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.handles.len()
    }

    /// Signs a pointer with an instance's PAC key (cross-instance
    /// experiments).
    #[must_use]
    pub fn sign_pointer(&self, token: InstanceToken, ptr: u64) -> u64 {
        self.store.sign_pointer(token.handle, ptr)
    }

    /// Authenticates a pointer under an instance's PAC key.
    ///
    /// # Errors
    ///
    /// [`Trap::PointerAuth`] on signature mismatch.
    pub fn auth_pointer(&self, token: InstanceToken, ptr: u64) -> Result<u64, Trap> {
        self.store.auth_pointer(token.handle, ptr)
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
            Err(RuntimeError::Instantiate(
                InstantiateError::TooManySandboxes
            ))
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
