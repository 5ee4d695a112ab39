//! IR module and function containers.

use crate::instr::Stmt;
use crate::types::IrType;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// `table[v]`, growing the table first when `v` lies past its end. The
/// tables start at `value_types.len()` and the frontend never names a
/// register beyond that, so the growth is for hand-built IR only: no
/// pass may panic on an id it has no type for.
pub(crate) fn value_slot<T: Clone + Default>(table: &mut Vec<T>, v: ValueId) -> &mut T {
    let i = v.0 as usize;
    if i >= table.len() {
        table.resize(i + 1, T::default());
    }
    &mut table[i]
}

/// A stack allocation within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocaId(pub u32);

/// A function defined in the module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// A global data object (placed in linear memory at layout time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// A stack allocation: C locals whose address is taken, arrays, structs.
#[derive(Debug, Clone, PartialEq)]
pub struct Alloca {
    /// Requested size in bytes (padded to 16 at lowering when tagged).
    pub size: u64,
    /// Debug name.
    pub name: String,
    /// Set by the stack-safety pass: wrap this allocation in a segment.
    pub instrument: bool,
    /// Marks the synthetic untagged guard slot (Fig. 8b).
    pub is_guard: bool,
}

/// An imported function (resolved to a host function at instantiation).
#[derive(Debug, Clone, PartialEq)]
pub struct ExternFunc {
    /// Import module namespace.
    pub module: String,
    /// Import name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<IrType>,
    /// Result type.
    pub ret: Option<IrType>,
}

/// A global data object: initial bytes living in linear memory.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalData {
    /// Debug name.
    pub name: String,
    /// Initial contents (also fixes the size).
    pub bytes: Vec<u8>,
    /// Alignment requirement.
    pub align: u64,
}

/// A function under compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    /// Symbol name.
    pub name: String,
    /// Parameter types (registers `0..params.len()`).
    pub params: Vec<IrType>,
    /// Result type.
    pub ret: Option<IrType>,
    /// Stack allocations, in frame order.
    pub allocas: Vec<Alloca>,
    /// Types of all virtual registers (parameters first).
    pub value_types: Vec<IrType>,
    /// Structured body.
    pub body: Vec<Stmt>,
    /// Whether the function is exported from the module.
    pub exported: bool,
}

impl IrFunction {
    /// Allocates a fresh virtual register of type `ty`.
    pub fn new_value(&mut self, ty: IrType) -> ValueId {
        self.value_types.push(ty);
        ValueId((self.value_types.len() - 1) as u32)
    }

    /// The type of register `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is out of range.
    #[must_use]
    pub fn value_type(&self, v: ValueId) -> IrType {
        self.value_types[v.0 as usize]
    }
}

/// A whole IR module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrModule {
    /// Imported functions.
    pub externs: Vec<ExternFunc>,
    /// Defined functions.
    pub functions: Vec<IrFunction>,
    /// Global data objects.
    pub globals: Vec<GlobalData>,
}

impl IrModule {
    /// An empty module.
    #[must_use]
    pub fn new() -> Self {
        IrModule::default()
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn function(&self, name: &str) -> Option<(FuncId, &IrFunction)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Registers an extern; returns its index. Reuses an existing entry
    /// with the same module/name.
    pub fn add_extern(&mut self, ext: ExternFunc) -> u32 {
        if let Some(i) = self
            .externs
            .iter()
            .position(|e| e.module == ext.module && e.name == ext.name)
        {
            return i as u32;
        }
        self.externs.push(ext);
        (self.externs.len() - 1) as u32
    }

    /// Adds a global data object; returns its id.
    pub fn add_global(&mut self, name: &str, bytes: Vec<u8>, align: u64) -> GlobalId {
        self.globals.push(GlobalData {
            name: name.to_string(),
            bytes,
            align,
        });
        GlobalId((self.globals.len() - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_value_assigns_sequential_ids() {
        let mut f = IrFunction {
            name: "f".into(),
            params: vec![IrType::I64],
            ret: None,
            allocas: vec![],
            value_types: vec![IrType::I64],
            body: vec![],
            exported: false,
        };
        let v = f.new_value(IrType::F64);
        assert_eq!(v, ValueId(1));
        assert_eq!(f.value_type(v), IrType::F64);
    }

    #[test]
    fn extern_deduplication() {
        let mut m = IrModule::new();
        let a = m.add_extern(ExternFunc {
            module: "cage_libc".into(),
            name: "malloc".into(),
            params: vec![IrType::I64],
            ret: Some(IrType::Ptr),
        });
        let b = m.add_extern(ExternFunc {
            module: "cage_libc".into(),
            name: "malloc".into(),
            params: vec![IrType::I64],
            ret: Some(IrType::Ptr),
        });
        assert_eq!(a, b);
        assert_eq!(m.externs.len(), 1);
    }

    #[test]
    fn function_lookup() {
        let mut m = IrModule::new();
        m.functions.push(IrFunction {
            name: "main".into(),
            params: vec![],
            ret: Some(IrType::I32),
            allocas: vec![],
            value_types: vec![],
            body: vec![],
            exported: true,
        });
        assert_eq!(m.function("main").unwrap().0, FuncId(0));
        assert!(m.function("ghost").is_none());
    }
}
