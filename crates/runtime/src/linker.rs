//! The [`Linker`]: named host-function registration, wasmtime-style.
//!
//! A `Linker` collects the host surface a module instantiates against —
//! the hardened libc and any embedder-defined functions — and can
//! instantiate any number of modules against it.
//!
//! ```
//! use cage_engine::Value;
//! use cage_runtime::Linker;
//! use cage_wasm::ValType;
//!
//! let mut linker = Linker::with_libc();
//! linker.func("env", "tick", &[ValType::I64], &[ValType::I64], |_ctx, args| {
//!     Ok(vec![Value::I64(args[0].as_i64() + 1)])
//! });
//! assert!(linker.is_defined("env", "tick"));
//! ```

use cage_engine::store::InstantiateError;
use cage_engine::{
    HostContext, HostFunc, Imports, InstanceHandle, Precompiled, Store, Trap, Value,
};
use cage_libc::Libc;
use cage_wasm::ValType;

/// Named host-function registry plus libc policy.
///
/// Host functions registered here are *shared*: every instance linked
/// through this `Linker` calls the same closures (so captured state — a
/// counter, a log — is naturally shared, like a wasmtime `Linker` with
/// host state). The libc, by contrast, is stateful per instance
/// (allocator, captured stdout) and is therefore created fresh at each
/// instantiation when enabled via [`Linker::with_libc`].
#[derive(Debug, Default, Clone)]
pub struct Linker {
    host: Imports,
    libc: bool,
}

impl Linker {
    /// An empty linker: no libc, no host functions. Modules with imports
    /// will fail instantiation until their imports are defined.
    #[must_use]
    pub fn new() -> Self {
        Linker::default()
    }

    /// A linker that wires the hardened `cage_libc` (allocator, string
    /// routines, `print_*`) into every instance — the explicit form of
    /// what the runtime used to do implicitly.
    #[must_use]
    pub fn with_libc() -> Self {
        Linker {
            host: Imports::new(),
            libc: true,
        }
    }

    /// Whether this linker provides the hardened libc.
    #[must_use]
    pub fn provides_libc(&self) -> bool {
        self.libc
    }

    /// Registers a typed host closure under `module.name`, replacing any
    /// previous definition (including a libc function of the same name —
    /// embedder definitions win).
    pub fn func<F>(
        &mut self,
        module: &str,
        name: &str,
        params: &[ValType],
        results: &[ValType],
        func: F,
    ) -> &mut Self
    where
        F: FnMut(&mut HostContext<'_>, &[Value]) -> Result<Vec<Value>, Trap> + 'static,
    {
        self.host
            .define(module, name, HostFunc::new(params, results, func));
        self
    }

    /// Registers a pre-built [`HostFunc`] under `module.name`.
    pub fn define(&mut self, module: &str, name: &str, func: HostFunc) -> &mut Self {
        self.host.define(module, name, func);
        self
    }

    /// Whether `module.name` is defined (embedder functions only; libc
    /// functions materialise at instantiation).
    #[must_use]
    pub fn is_defined(&self, module: &str, name: &str) -> bool {
        self.host.resolve(module, name).is_some()
    }

    /// Number of embedder-defined host functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.host.len()
    }

    /// Whether no embedder host functions are defined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.host.is_empty()
    }

    /// Stamps one instance of `pre` into `store` against this linker —
    /// the one place an instance gets its libc. When the linker provides
    /// libc, a fresh one is created for the module's pointer width with
    /// its heap at `heap_base` (the module's `__heap_base`) and returned
    /// beside the handle: it is the instance's own allocator and stdout.
    ///
    /// # Errors
    ///
    /// Whatever [`Store::instantiate_precompiled`] reports: unresolved
    /// imports, the 15-sandbox MTE limit, a trapping start function.
    ///
    /// Public for the serving layer (`cage-serve` stamps instances out of
    /// a template and must wire libc the same way the runtime does); not
    /// part of the stable embedder surface.
    #[doc(hidden)]
    pub fn instantiate(
        &self,
        store: &mut Store,
        pre: &Precompiled,
        heap_base: u64,
    ) -> Result<(InstanceHandle, Option<Libc>), InstantiateError> {
        let libc = self.libc.then(|| {
            if pre.module().is_memory64() {
                Libc::new(heap_base)
            } else {
                Libc::new_wasm32(heap_base)
            }
        });
        let handle = store.instantiate_precompiled(pre, &self.build_imports(libc.as_ref()))?;
        Ok((handle, libc))
    }

    /// Builds the import set for one instantiation: libc first (when
    /// enabled), then embedder definitions on top so they shadow libc.
    fn build_imports(&self, libc: Option<&Libc>) -> Imports {
        let mut merged = Imports::new();
        if let Some(libc) = libc {
            libc.register(&mut merged);
        }
        merged.merge_from(&self.host);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_linker_has_no_imports() {
        let linker = Linker::new();
        assert!(!linker.provides_libc());
        assert!(linker.is_empty());
        assert!(linker.build_imports(None).is_empty());
    }

    #[test]
    fn with_libc_registers_the_libc_surface() {
        let linker = Linker::with_libc();
        let libc = Libc::new(0x1_0000);
        let imports = linker.build_imports(Some(&libc));
        assert!(imports.resolve("cage_libc", "malloc").is_some());
        assert!(imports.resolve("cage_libc", "print_i64").is_some());
    }

    #[test]
    fn embedder_definitions_shadow_libc() {
        let mut linker = Linker::with_libc();
        linker.func(
            "cage_libc",
            "malloc",
            &[ValType::I64],
            &[ValType::I64],
            |_, _| Ok(vec![Value::I64(0)]),
        );
        let libc = Libc::new(0x1_0000);
        let imports = linker.build_imports(Some(&libc));
        let f = imports.resolve("cage_libc", "malloc").unwrap();
        // The shadowing definition returns i64, the libc one returns a
        // pointer-typed result through its own registration; check params
        // shape to tell them apart.
        assert_eq!(f.borrow().results, vec![ValType::I64]);
    }

    #[test]
    fn host_state_is_shared_across_clones() {
        use std::cell::Cell;
        use std::rc::Rc;

        let calls = Rc::new(Cell::new(0u32));
        let mut linker = Linker::new();
        let c = Rc::clone(&calls);
        linker.func("env", "poke", &[], &[], move |_, _| {
            c.set(c.get() + 1);
            Ok(vec![])
        });
        let imports_a = linker.build_imports(None);
        let imports_b = linker.clone().build_imports(None);
        let config = cage_engine::ExecConfig::default();
        let mut cycles = 0.0;
        let mut ctx = HostContext {
            memory: None,
            config: &config,
            cycles: &mut cycles,
        };
        for imports in [&imports_a, &imports_b] {
            let f = imports.resolve("env", "poke").unwrap();
            (f.borrow_mut().func)(&mut ctx, &[]).unwrap();
        }
        assert_eq!(calls.get(), 2, "one closure shared by both import sets");
    }
}
