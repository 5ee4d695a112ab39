//! Host functions: the embedder side of WASM imports.
//!
//! `cage-libc` registers its hardened allocator and WASI-lite shims as host
//! functions; guests import them like wasi-libc imports the system
//! interface. Every host function has one shape, that of wasmtime's
//! `Func::new`: it receives a [`HostContext`] giving checked access to the
//! calling instance's linear memory — including the segment primitives, so
//! a host-side allocator can create and free segments exactly like the
//! paper's dlmalloc modification does from guest code — its arguments, and
//! a slice of result slots to write, pre-filled with zeros of its result
//! types. Its declared [`FuncType`] is compared with the module's import
//! type once, when the instance is created, so a call never meets an
//! argument or a result count it did not declare.
//!
//! An instance may also own one [`HostState`] (the libc's allocator and
//! captured stdout), handed to [`crate::Store::instantiate_precompiled`]:
//! the store keeps it beside the instance, rewinds it on
//! [`crate::Store::reset_instance`], and passes it to every host call of
//! that instance ([`HostContext::state`]). Host functions themselves hold
//! no per-instance state, so one definition serves every instance.

use std::any::Any;
use std::rc::Rc;

use cage_wasm::{FuncType, ValType};

use crate::config::ExecConfig;
use crate::cost::{ChargeClass, ChargeCounts};
use crate::memory::LinearMemory;
use crate::trap::Trap;
use crate::value::Value;

/// Context passed to a host function during a call.
pub struct HostContext<'a> {
    /// The calling instance's memory, if it has one.
    pub memory: Option<&'a mut LinearMemory>,
    /// The engine configuration in force.
    pub config: &'a ExecConfig,
    /// The calling instance's host state, if it was instantiated with one.
    pub state: Option<&'a dyn HostState>,
    /// The calling instance's counts: private, so a host only adds to them
    /// through the two `charge_*` methods and retires no instruction.
    counts: &'a mut ChargeCounts,
}

impl<'a> HostContext<'a> {
    /// A context whose host charges land in `counts`.
    #[must_use]
    pub fn new(
        memory: Option<&'a mut LinearMemory>,
        config: &'a ExecConfig,
        state: Option<&'a dyn HostState>,
        counts: &'a mut ChargeCounts,
    ) -> Self {
        HostContext {
            memory,
            config,
            state,
            counts,
        }
    }

    /// The calling instance's host state, if it has one of type `T`. The
    /// reference lives as long as the context, not as this borrow of it,
    /// so a host function can hold it and [`HostContext::memory`] at once.
    #[must_use]
    pub fn state<T: HostState>(&self) -> Option<&'a T> {
        let state: &'a dyn Any = self.state?;
        state.downcast_ref()
    }

    /// The instance memory.
    ///
    /// # Errors
    ///
    /// Returns a host trap when the instance has no memory.
    pub fn memory(&mut self) -> Result<&mut LinearMemory, Trap> {
        self.memory
            .as_deref_mut()
            .ok_or_else(|| Trap::Host("host function requires a memory".into()))
    }

    /// Charges `eighths` eighth-cycles of fixed work, the same on every
    /// core ([`ChargeCounts::host_eighths`]).
    pub fn charge_eighths(&mut self, eighths: u64) {
        self.counts.host_eighths = self.counts.host_eighths.saturating_add(eighths);
    }

    /// Charges `granules` granules tagged and zeroed (`stzg`), priced on
    /// read like the guest's `segment.new` ([`ChargeClass::SegmentNewGranules`]).
    pub fn charge_granules(&mut self, granules: u64) {
        self.counts
            .charge_units(ChargeClass::SegmentNewGranules, granules);
    }
}

/// The boxed host-function signature: the calling context, the
/// arguments, and the result slots to write. The slots arrive holding
/// zeros of the declared result types; a slot written with a value of
/// another type is a [`Trap::Host`] when the function returns.
pub type HostFn = Box<dyn Fn(&mut HostContext<'_>, &[Value], &mut [Value]) -> Result<(), Trap>>;

/// A host function with its WASM-visible type.
pub struct HostFunc {
    /// The declared type, which an import must match to link.
    pub ty: FuncType,
    /// The implementation.
    pub func: HostFn,
}

impl HostFunc {
    /// Wraps a closure with its type.
    pub fn new<F>(params: &[ValType], results: &[ValType], func: F) -> Self
    where
        F: Fn(&mut HostContext<'_>, &[Value], &mut [Value]) -> Result<(), Trap> + 'static,
    {
        HostFunc {
            ty: FuncType::new(params, results),
            func: Box::new(func),
        }
    }
}

impl std::fmt::Debug for HostFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostFunc({})", self.ty)
    }
}

/// Host-side state that belongs to one instance — what its host
/// functions read and write between calls (the libc's allocator and
/// captured stdout). Handed to [`crate::Store::instantiate_precompiled`],
/// owned by the store for that instance, reached by its host functions
/// through [`HostContext::state`] and by the embedder through
/// [`crate::Store::host_state`].
pub trait HostState: Any + std::fmt::Debug {
    /// Rewinds the state to how it was before the instance's start
    /// function first ran. [`crate::Store::reset_instance`] calls it
    /// before it runs the start function again.
    fn reset(&self);
}

/// One instance's host side: the host functions its imports resolved
/// to, by import index, and its own host state (its libc), if any —
/// passed to each of its host calls and rewound by
/// [`crate::Store::reset_instance`] before the start function runs again.
/// One field of the instance, so the dispatch loop's `Env` reaches both
/// through one reference: with the state as a field of its own there,
/// `run_reg` kept its charge sum on the stack (`ci/dispatch_lint.sh`).
pub(crate) struct InstanceHost {
    pub(crate) funcs: Vec<Rc<HostFunc>>,
    pub(crate) state: Option<Box<dyn HostState>>,
}

/// A set of named host functions to satisfy a module's imports, in
/// definition order, looked up by name without allocating.
///
/// Cloning is cheap: entries are shared handles, so a clone holds the
/// *same* host functions (and whatever they capture) — which is what a
/// `Linker` wants when it instantiates many modules against one host
/// surface. A host function is `Fn`, not `FnMut`: one that keeps state
/// between calls keeps it in its instance's [`HostState`] or in a `Cell`
/// of its own.
#[derive(Debug, Default, Clone)]
pub struct Imports {
    funcs: Vec<(String, String, Rc<HostFunc>)>,
}

impl Imports {
    /// An empty import set.
    #[must_use]
    pub fn new() -> Self {
        Imports::default()
    }

    /// Registers `func` under `module.name`, replacing any previous entry.
    pub fn define(&mut self, module: &str, name: &str, func: HostFunc) -> &mut Self {
        let func = Rc::new(func);
        match self.entry(module, name) {
            Some(i) => self.funcs[i].2 = func,
            None => self
                .funcs
                .push((module.to_string(), name.to_string(), func)),
        }
        self
    }

    /// Looks up an import.
    #[must_use]
    pub fn resolve(&self, module: &str, name: &str) -> Option<Rc<HostFunc>> {
        self.entry(module, name)
            .map(|i| Rc::clone(&self.funcs[i].2))
    }

    /// The index of `module.name`'s entry.
    fn entry(&self, module: &str, name: &str) -> Option<usize> {
        self.funcs
            .iter()
            .position(|(m, n, _)| m == module && n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn define_and_resolve() {
        let mut imports = Imports::new();
        imports.define(
            "env",
            "answer",
            HostFunc::new(&[], &[ValType::I32], |_, _, out| {
                out[0] = Value::I32(42);
                Ok(())
            }),
        );
        assert!(imports.resolve("env", "answer").is_some());
        assert!(imports.resolve("env", "missing").is_none());
    }

    #[test]
    fn redefinition_replaces() {
        let mut imports = Imports::new();
        imports.define("m", "f", HostFunc::new(&[], &[], |_, _, _| Ok(())));
        imports.define(
            "m",
            "f",
            HostFunc::new(&[ValType::I64], &[], |_, _, _| Ok(())),
        );
        assert_eq!(imports.funcs.len(), 1);
        let f = imports.resolve("m", "f").unwrap();
        assert_eq!(f.ty.params, vec![ValType::I64]);
    }

    #[test]
    fn host_context_charges_cycles() {
        let config = ExecConfig::default();
        let mut counts = ChargeCounts::default();
        let mut ctx = HostContext::new(None, &config, None, &mut counts);
        ctx.charge_eighths(100);
        ctx.charge_granules(3);
        assert_eq!(counts.host_eighths, 100);
        assert_eq!(counts.get(ChargeClass::SegmentNewGranules), 3);
        assert_eq!(counts.instr_count(), 0, "a host retires nothing");
        let mut ctx = HostContext::new(None, &config, None, &mut counts);
        ctx.charge_eighths(u64::MAX);
        ctx.charge_granules(u64::MAX);
        assert_eq!(counts.host_eighths, u64::MAX);
        assert_eq!(counts.get(ChargeClass::SegmentNewGranules), u64::MAX);
    }

    #[test]
    fn host_context_without_memory_errors() {
        let config = ExecConfig::default();
        let mut counts = ChargeCounts::default();
        let mut ctx = HostContext::new(None, &config, None, &mut counts);
        assert!(matches!(ctx.memory(), Err(Trap::Host(_))));
    }
}
