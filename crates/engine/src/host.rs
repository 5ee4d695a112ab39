//! Host functions: the embedder side of WASM imports.
//!
//! `cage-libc` registers its hardened allocator and WASI-lite shims as host
//! functions; guests import them like wasi-libc imports the system
//! interface. Host functions receive a [`HostContext`] giving checked
//! access to the calling instance's linear memory — including the segment
//! primitives, so a host-side allocator can create and free segments
//! exactly like the paper's dlmalloc modification does from guest code.

use std::cell::RefCell;
use std::collections::HashMap;
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

/// A set of named host functions to satisfy a module's imports.
///
/// Cloning is cheap: entries are shared handles, so a clone registers the
/// *same* host functions (and their captured state) — which is what a
/// `Linker` wants when it instantiates many modules against one host
/// surface.
#[derive(Debug, Default, Clone)]
pub struct Imports {
    map: HashMap<(String, String), Rc<RefCell<HostFunc>>>,
}

impl Imports {
    /// An empty import set.
    #[must_use]
    pub fn new() -> Self {
        Imports::default()
    }

    /// Copies every entry of `other` into `self` (shared handles),
    /// replacing entries with the same `module.name`.
    pub fn merge_from(&mut self, other: &Imports) {
        for (key, func) in &other.map {
            self.map.insert(key.clone(), Rc::clone(func));
        }
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
