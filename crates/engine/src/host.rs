//! Host functions: the embedder side of WASM imports.
//!
//! `cage-libc` registers its hardened allocator and WASI-lite shims as host
//! functions; guests import them like wasi-libc imports the system
//! interface. Host functions receive a [`HostContext`] giving checked
//! access to the calling instance's linear memory — including the segment
//! primitives, so a host-side allocator can create and free segments
//! exactly like the paper's dlmalloc modification does from guest code.
//!
//! A host surface may also carry one per-instance [`HostState`] (the
//! libc's allocator and captured stdout): the store keeps it beside the
//! instance it was instantiated with and rewinds it on
//! [`crate::Store::reset_instance`].

use std::any::Any;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;
use std::rc::Rc;

use cage_wasm::ValType;

use crate::config::ExecConfig;
use crate::memory::LinearMemory;
use crate::trap::Trap;
use crate::value::Value;

/// Context passed to a host function during a call.
pub struct HostContext<'a> {
    /// The calling instance's memory, if it has one.
    pub memory: Option<&'a mut LinearMemory>,
    /// The engine configuration in force.
    pub config: &'a ExecConfig,
    /// The cycles host functions have charged this instance
    /// ([`crate::ChargeCounts::host_cycles`]): host functions may charge
    /// simulated time by adding to it. It is not the instance's cycle
    /// total — the guest's share is kept as integer counts per class and
    /// priced when read — so reading it tells a host only what hosts
    /// charged.
    pub cycles: &'a mut f64,
}

impl HostContext<'_> {
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

    /// Reads guest memory through the memory's own checks.
    ///
    /// # Errors
    ///
    /// Propagates bounds/tag traps.
    pub fn read_bytes(&mut self, ptr: u64, len: u64) -> Result<Vec<u8>, Trap> {
        self.memory()?.read(ptr, 0, len)
    }

    /// Writes guest memory through the memory's own checks.
    ///
    /// # Errors
    ///
    /// Propagates bounds/tag traps.
    pub fn write_bytes(&mut self, ptr: u64, bytes: &[u8]) -> Result<(), Trap> {
        self.memory()?.write(ptr, 0, bytes)
    }

    /// Charges `cycles` of simulated time to the caller.
    pub fn charge(&mut self, cycles: f64) {
        *self.cycles += cycles;
    }
}

/// The boxed host-function signature.
pub type HostFn = Box<dyn FnMut(&mut HostContext<'_>, &[Value]) -> Result<Vec<Value>, Trap>>;

/// A host function with its WASM-visible type.
pub struct HostFunc {
    /// Parameter types.
    pub params: Vec<ValType>,
    /// Result types.
    pub results: Vec<ValType>,
    /// The implementation.
    pub func: HostFn,
}

impl HostFunc {
    /// Wraps a closure with its type.
    pub fn new<F>(params: &[ValType], results: &[ValType], func: F) -> Self
    where
        F: FnMut(&mut HostContext<'_>, &[Value]) -> Result<Vec<Value>, Trap> + 'static,
    {
        HostFunc {
            params: params.to_vec(),
            results: results.to_vec(),
            func: Box::new(func),
        }
    }
}

impl std::fmt::Debug for HostFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostFunc({:?} -> {:?})", self.params, self.results)
    }
}

/// Host-side state that belongs to one instance — what its host
/// functions read and write between calls (the libc's allocator and
/// captured stdout). Recorded on the [`Imports`] an instance is created
/// from ([`Imports::set_host_state`]), kept by the store for that
/// instance, and read back typed with [`crate::Store::host_state`].
pub trait HostState: Any + std::fmt::Debug {
    /// Rewinds the state to how it was before the instance's start
    /// function first ran. [`crate::Store::reset_instance`] calls it
    /// before it runs the start function again.
    fn reset(&self);
}

/// A set of named host functions to satisfy a module's imports, plus at
/// most one per-instance [`HostState`].
///
/// Cloning is cheap: entries are shared handles, so a clone registers the
/// *same* host functions (and their captured state) — which is what a
/// `Linker` wants when it instantiates many modules against one host
/// surface.
///
/// The map hashes with a fixed key, so it is filled, walked and dropped
/// in the same order in every process. Every cold instantiation builds
/// one and frees its entries at once; under the per-process random key
/// of `RandomState` that free order — and with it where glibc placed the
/// next instance's memory — changed from run to run, and the peak RSS
/// of `cage-bench`'s `serve_cold` read anywhere from 6 to 10 MB. Keys
/// come from the embedder, never from a guest, so a fixed hash key
/// exposes no collision attack.
#[derive(Debug, Default, Clone)]
pub struct Imports {
    map: FixedKeyMap<(String, String), Rc<RefCell<HostFunc>>>,
    pub(crate) state: Option<Rc<dyn HostState>>,
}

/// The workspace's one hash map (`clippy.toml` bans std's `HashMap` and
/// `HashSet` everywhere else): SipHash under a fixed key, so the same
/// inserts give the same layout and drop order in every process.
#[allow(clippy::disallowed_types)]
type FixedKeyMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

impl Imports {
    /// An empty import set.
    #[must_use]
    pub fn new() -> Self {
        Imports::default()
    }

    /// Copies every entry of `other` into `self` (shared handles),
    /// replacing entries with the same `module.name`. The host state of
    /// `self` is kept.
    pub fn merge_from(&mut self, other: &Imports) {
        for (key, func) in &other.map {
            self.map.insert(key.clone(), Rc::clone(func));
        }
    }

    /// Records the per-instance state the functions of this set share,
    /// replacing any earlier one: each instance created from these
    /// imports keeps it, and a reset rewinds it.
    pub fn set_host_state(&mut self, state: Rc<dyn HostState>) {
        self.state = Some(state);
    }

    /// Registers `func` under `module.name`, replacing any previous entry.
    pub fn define(&mut self, module: &str, name: &str, func: HostFunc) -> &mut Self {
        self.map.insert(
            (module.to_string(), name.to_string()),
            Rc::new(RefCell::new(func)),
        );
        self
    }

    /// Looks up an import.
    #[must_use]
    pub fn resolve(&self, module: &str, name: &str) -> Option<Rc<RefCell<HostFunc>>> {
        self.map
            .get(&(module.to_string(), name.to_string()))
            .cloned()
    }

    /// Number of registered functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no functions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
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
            HostFunc::new(&[], &[ValType::I32], |_, _| Ok(vec![Value::I32(42)])),
        );
        assert!(imports.resolve("env", "answer").is_some());
        assert!(imports.resolve("env", "missing").is_none());
        assert_eq!(imports.len(), 1);
        assert!(!imports.is_empty());
    }

    #[test]
    fn redefinition_replaces() {
        let mut imports = Imports::new();
        imports.define("m", "f", HostFunc::new(&[], &[], |_, _| Ok(vec![])));
        imports.define(
            "m",
            "f",
            HostFunc::new(&[ValType::I64], &[], |_, _| Ok(vec![])),
        );
        assert_eq!(imports.len(), 1);
        let f = imports.resolve("m", "f").unwrap();
        assert_eq!(f.borrow().params, vec![ValType::I64]);
    }

    #[test]
    fn host_context_charges_cycles() {
        let config = ExecConfig::default();
        let mut cycles = 0.0;
        let mut ctx = HostContext {
            memory: None,
            config: &config,
            cycles: &mut cycles,
        };
        ctx.charge(12.5);
        assert_eq!(cycles, 12.5);
    }

    #[test]
    fn host_context_without_memory_errors() {
        let config = ExecConfig::default();
        let mut cycles = 0.0;
        let mut ctx = HostContext {
            memory: None,
            config: &config,
            cycles: &mut cycles,
        };
        assert!(matches!(ctx.read_bytes(0, 1), Err(Trap::Host(_))));
    }
}
