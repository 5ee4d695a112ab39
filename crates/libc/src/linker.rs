//! The [`Linker`]: named host-function registration, wasmtime-style.
//!
//! A `Linker` collects the host surface a module instantiates against —
//! the hardened libc and any embedder-defined functions — and can
//! instantiate any number of modules against it. It lives with the libc
//! because it is the one place that knows what "with libc" means.
//!
//! A host function has one shape, that of wasmtime's `Func::new`: it
//! reads its arguments and writes its results into the slots it is given,
//! zeros of its declared result types on entry. Imports are typed at
//! link: a module that imports a function at another type than the one
//! registered for it fails [`Linker::instantiate`] with
//! [`InstantiateError::ImportType`].
//!
//! ```
//! use cage_engine::Value;
//! use cage_libc::Linker;
//! use cage_wasm::ValType;
//!
//! let mut linker = Linker::with_libc();
//! linker.func("env", "tick", &[ValType::I64], &[ValType::I64], |_ctx, args, out| {
//!     out[0] = Value::I64(args[0].as_i64() + 1);
//!     Ok(())
//! });
//! ```

use cage_engine::store::InstantiateError;
use cage_engine::{
    HostContext, HostFunc, Imports, InstanceHandle, Precompiled, Store, Trap, Value,
};
use cage_wasm::ValType;

use crate::{heap_base_of, host, Libc};

/// Named host-function registry plus libc policy.
///
/// Host functions registered here are *shared*: every instance linked
/// through this `Linker` calls the same closures (so captured state — a
/// counter in a `Cell`, a log in a `RefCell` — is naturally shared, like
/// a wasmtime `Linker` with host state). The libc, by contrast, is
/// stateful per instance (allocator, captured stdout): when enabled via
/// [`Linker::with_libc`], each instantiation gives the instance a fresh
/// [`Libc`] as its host state, which the libc's functions — defined once
/// per thread and pointer width — reach through the calling
/// [`HostContext`].
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

    /// Registers a typed host closure under `module.name`, replacing any
    /// previous definition (including a libc function of the same name —
    /// embedder definitions win). `func` reads its arguments and writes
    /// its results into the slice it is given; `params` and `results` must
    /// be the type each importing module declares, or instantiation fails.
    pub fn func<F>(
        &mut self,
        module: &str,
        name: &str,
        params: &[ValType],
        results: &[ValType],
        func: F,
    ) -> &mut Self
    where
        F: Fn(&mut HostContext<'_>, &[Value], &mut [Value]) -> Result<(), Trap> + 'static,
    {
        self.host
            .define(module, name, HostFunc::new(params, results, func));
        self
    }

    /// Stamps one instance of `pre` into `store` against this linker —
    /// the one place an instance gets its libc. Imports resolve to the
    /// embedder's definitions first, then (when the linker provides
    /// libc) to the libc's functions for the module's pointer width, and
    /// the instance gets a fresh [`Libc`]. Its heap starts at the
    /// module's own `__heap_base`, as wasi-libc's dlmalloc does: the
    /// initial value of that exported global when it is one the module
    /// defines with an `i32.const` or `i64.const` initialiser, else 0
    /// ([`heap_base_of`]). The store keeps the libc as the instance's host
    /// state: read it back with `store.host_state::<Libc>(handle)`, and
    /// [`Store::reset_instance`] rewinds it.
    ///
    /// # Errors
    ///
    /// Whatever [`Store::instantiate_precompiled`] reports: unresolved
    /// or mistyped imports, the 15-sandbox MTE limit, a trapping start
    /// function.
    pub fn instantiate(
        &self,
        store: &mut Store,
        pre: &Precompiled,
    ) -> Result<InstanceHandle, InstantiateError> {
        if !self.libc {
            return store.instantiate_precompiled(pre, &[&self.host], None);
        }
        let module = pre.module();
        let libc = Box::new(Libc::new(heap_base_of(module)));
        host::with_functions(!module.is_memory64(), |functions| {
            store.instantiate_precompiled(pre, &[&self.host, functions], Some(libc))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_engine::{ExecConfig, HostState};
    use cage_wasm::builder::ModuleBuilder;
    use cage_wasm::Instr::{self, Call, F64Const, GlobalGet, I32Const, I64Const, LocalGet};
    use ValType::I64;

    /// A wasm64 module with a memory whose heap starts at 0x1000 that
    /// imports `cage_libc.malloc` and `cage_libc.print_i64` and exports
    /// them as `alloc` and `say`.
    fn libc_module() -> Precompiled {
        let mut b = ModuleBuilder::new();
        let malloc = b.import_func("cage_libc", "malloc", &[I64], &[I64]);
        let print = b.import_func("cage_libc", "print_i64", &[I64], &[]);
        b.add_memory64(1);
        let heap_base = b.add_global(I64, false, I64Const(0x1000));
        b.export_global("__heap_base", heap_base);
        let alloc = b.add_function(&[I64], &[I64], &[], vec![LocalGet(0), Call(malloc)]);
        let say = b.add_function(&[I64], &[], &[], vec![LocalGet(0), Call(print)]);
        b.export_func("alloc", alloc);
        b.export_func("say", say);
        Precompiled::new(&b.build()).unwrap()
    }

    /// The libc `h` was linked with.
    fn libc(store: &Store, h: InstanceHandle) -> &Libc {
        store.host_state::<Libc>(h).unwrap()
    }

    #[test]
    fn empty_linker_has_no_imports() {
        let linker = Linker::new();
        let mut store = Store::new(ExecConfig::default());
        let err = linker.instantiate(&mut store, &libc_module()).unwrap_err();
        assert!(
            matches!(&err, InstantiateError::MissingImport { module, name }
                if module == "cage_libc" && name == "malloc"),
            "{err}"
        );
    }

    /// A wasm64 module with a memory that imports `module.name` at
    /// `params -> results` and does nothing else.
    fn importing(module: &str, name: &str, params: &[ValType], results: &[ValType]) -> Precompiled {
        let mut b = ModuleBuilder::new();
        b.import_func(module, name, params, results);
        b.add_memory64(1);
        Precompiled::new(&b.build()).unwrap()
    }

    #[test]
    fn a_mistyped_libc_import_fails_to_link() {
        let pre = importing("cage_libc", "malloc", &[ValType::F64], &[I64]);
        let mut store = Store::new(ExecConfig::default());
        let err = Linker::with_libc()
            .instantiate(&mut store, &pre)
            .unwrap_err();
        assert!(
            matches!(&err, InstantiateError::ImportType { module, name, .. }
                if module == "cage_libc" && name == "malloc"),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "import cage_libc.malloc is typed (func (param f64) (result i64)), \
             its host function (func (param i64) (result i64))"
        );
        assert_eq!(store.instance_count(), 0);
    }

    #[test]
    fn an_embedder_function_of_the_wrong_arity_fails_to_link() {
        let mut linker = Linker::new();
        linker.func("env", "f", &[I64], &[I64], |_, args, out| {
            out[0] = args[0];
            Ok(())
        });
        let mut store = Store::new(ExecConfig::default());
        for (params, results) in [(&[][..], &[][..]), (&[I64], &[]), (&[I64, I64], &[I64])] {
            let pre = importing("env", "f", params, results);
            let err = linker.instantiate(&mut store, &pre).unwrap_err();
            assert!(
                matches!(&err, InstantiateError::ImportType { module, name, .. }
                    if module == "env" && name == "f"),
                "{params:?} -> {results:?}: {err}"
            );
        }
        let h = linker
            .instantiate(&mut store, &importing("env", "f", &[I64], &[I64]))
            .unwrap();
        assert_eq!(store.call(h, 0, &[Value::I64(5)]), Ok(vec![Value::I64(5)]));
    }

    #[test]
    fn with_libc_registers_the_libc_surface() {
        let linker = Linker::with_libc();
        let mut store = Store::new(ExecConfig::default());
        let h = linker.instantiate(&mut store, &libc_module()).unwrap();
        let p = store.invoke(h, "alloc", &[Value::I64(16)]).unwrap();
        assert_ne!(p, vec![Value::I64(0)]);
        store.invoke(h, "say", &[Value::I64(7)]).unwrap();
        assert_eq!(libc(&store, h).stdout(), "7\n");
        // A linker without libc leaves the instance no host state.
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let pre = Precompiled::new(&b.build()).unwrap();
        let bare = Linker::new().instantiate(&mut store, &pre).unwrap();
        assert!(store.host_state::<Libc>(bare).is_none());
    }

    #[test]
    fn embedder_definitions_shadow_libc() {
        let mut linker = Linker::with_libc();
        linker.func("cage_libc", "malloc", &[I64], &[I64], |_, _, _| Ok(()));
        let mut store = Store::new(ExecConfig::default());
        let h = linker.instantiate(&mut store, &libc_module()).unwrap();
        // The embedder's `malloc` answers; the libc's `print_i64` still
        // does, into the instance's own libc.
        let p = store.invoke(h, "alloc", &[Value::I64(16)]).unwrap();
        assert_eq!(p, vec![Value::I64(0)]);
        assert_eq!(libc(&store, h).stats().mallocs, 0);
        store.invoke(h, "say", &[Value::I64(3)]).unwrap();
        assert_eq!(libc(&store, h).stdout(), "3\n");
    }

    #[test]
    fn host_state_is_shared_across_clones() {
        use std::cell::Cell;
        use std::rc::Rc;

        let calls = Rc::new(Cell::new(0u32));
        let mut linker = Linker::new();
        let c = Rc::clone(&calls);
        linker.func("env", "poke", &[], &[], move |_, _, _| {
            c.set(c.get() + 1);
            Ok(())
        });
        let mut b = ModuleBuilder::new();
        let poke = b.import_func("env", "poke", &[], &[]);
        let run = b.add_function(&[], &[], &[], vec![Call(poke)]);
        b.export_func("run", run);
        let pre = Precompiled::new(&b.build()).unwrap();
        let mut store = Store::new(ExecConfig::default());
        for linker in [&linker, &linker.clone()] {
            let h = linker.instantiate(&mut store, &pre).unwrap();
            store.invoke(h, "run", &[]).unwrap();
        }
        assert_eq!(calls.get(), 2, "one closure shared by both linkers");
    }

    /// `heap_base_of` a module with one imported function and whatever
    /// `heap` adds.
    fn heap_base_with(heap: impl FnOnce(&mut ModuleBuilder)) -> u64 {
        let mut b = ModuleBuilder::new();
        b.import_func("cage_libc", "malloc", &[I64], &[I64]);
        heap(&mut b);
        heap_base_of(&b.build())
    }

    /// Exports a global of `ty`, mutable or not, initialised by `init`,
    /// as `__heap_base`.
    fn exports_heap_base(
        ty: ValType,
        mutable: bool,
        init: Instr,
    ) -> impl FnOnce(&mut ModuleBuilder) {
        move |b| {
            let g = b.add_global(ty, mutable, init);
            b.export_global("__heap_base", g);
        }
    }

    #[test]
    fn the_heap_base_is_the_initial_value_of_an_own_constant_export() {
        use cage_wasm::{GlobalType, Import, ImportKind};
        use ValType::{F64, I32};
        let read = |ty, mutable, init| heap_base_with(exports_heap_base(ty, mutable, init));
        assert_eq!(read(I64, false, I64Const(0x1230)), 0x1230);
        assert_eq!(read(I32, false, I32Const(0x1230)), 0x1230);
        assert_eq!(
            read(I32, false, I32Const(-16)),
            0xFFFF_FFF0,
            "zero-extended"
        );
        assert_eq!(read(I64, false, I64Const(-1)), u64::MAX);
        assert_eq!(
            read(I64, true, I64Const(64)),
            64,
            "mutable: its initial value"
        );
        // No heap base: absent, a float, no constant, not a global, no
        // such global, or a global the module imports.
        assert_eq!(heap_base_with(|_| {}), 0);
        assert_eq!(read(F64, false, F64Const(64f64.to_bits())), 0);
        assert_eq!(read(I64, false, GlobalGet(0)), 0);
        assert_eq!(heap_base_with(|b| b.export_func("__heap_base", 0)), 0);
        assert_eq!(heap_base_with(|b| b.export_global("__heap_base", 7)), 0);
        let mut b = ModuleBuilder::new();
        exports_heap_base(I64, false, I64Const(0x1000))(&mut b);
        let mut module = b.build();
        assert_eq!(heap_base_of(&module), 0x1000);
        module.imports.push(Import {
            module: "env".into(),
            name: "base".into(),
            kind: ImportKind::Global(GlobalType {
                value: I64,
                mutable: false,
            }),
        });
        assert_eq!(heap_base_of(&module), 0, "global 0 is now the import");
    }

    #[test]
    fn two_instances_of_one_linker_keep_their_own_libc() {
        let (linker, pre) = (Linker::with_libc(), libc_module());
        let mut store = Store::new(ExecConfig::default());
        let a = linker.instantiate(&mut store, &pre).unwrap();
        let b = linker.instantiate(&mut store, &pre).unwrap();
        let alloc = |store: &mut Store, h| store.invoke(h, "alloc", &[Value::I64(16)]).unwrap();
        // Separate allocators: each hands out its heap's first block.
        let first = alloc(&mut store, a);
        assert_eq!(alloc(&mut store, b), first);
        assert_ne!(alloc(&mut store, b), first);
        store.invoke(a, "say", &[Value::I64(1)]).unwrap();
        store.invoke(b, "say", &[Value::I64(2)]).unwrap();
        assert_eq!(libc(&store, a).stdout(), "1\n");
        assert_eq!(libc(&store, b).stdout(), "2\n");
        // A reset rewinds its own instance's libc and no other.
        store.reset_instance(a).unwrap();
        assert_eq!(
            (libc(&store, a).stdout(), libc(&store, a).stats().live),
            (String::new(), 0)
        );
        assert_eq!(
            (libc(&store, b).stdout(), libc(&store, b).stats().live),
            ("2\n".into(), 2)
        );
        assert_eq!(alloc(&mut store, a), first);
        libc(&store, b).reset();
        assert_eq!(alloc(&mut store, b), first);
    }
}
