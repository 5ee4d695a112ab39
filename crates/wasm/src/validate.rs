//! Module validation: the standard WebAssembly type-checking algorithm
//! (operand stack + control frames, as in the spec appendix) extended with
//! Cage's typing rules (paper Fig. 10):
//!
//! * `segment.new o  : [i64 i64] -> [i64]` — requires a declared memory;
//! * `segment.set_tag o : [i64 i64 i64] -> []` — requires a declared memory;
//! * `segment.free o : [i64 i64] -> []` — requires a declared memory;
//! * `i64.pointer_sign : [i64] -> [i64]`;
//! * `i64.pointer_auth : [i64] -> [i64]`.
//!
//! Because segment pointers are 64-bit tagged pointers, segment instructions
//! additionally require the memory to be a *memory64* memory — the paper's
//! extension "builds on wasm64" (§4.2).

use std::fmt;

use crate::instr::Instr;
use crate::limits::{CompileFuel, CompileLimits, LimitError};
use crate::module::{ExportKind, ImportKind, Module};
use crate::numeric::numeric_signature;
use crate::types::{FuncType, ValType};

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Index of the function being validated, if any.
    pub func: Option<u32>,
    /// Human-readable description.
    pub message: String,
    /// Set when the failure is a resource-limit violation rather than a
    /// type error (see [`ValidationError::limit`]).
    limit: Option<LimitError>,
}

impl ValidationError {
    fn new(message: impl Into<String>) -> Self {
        ValidationError {
            func: None,
            message: message.into(),
            limit: None,
        }
    }

    /// The [`LimitError`] behind this failure, when the module was
    /// rejected for exceeding a [`CompileLimits`] bound rather than for
    /// being ill-typed.
    #[must_use]
    pub fn limit(&self) -> Option<&LimitError> {
        self.limit.as_ref()
    }
}

impl From<LimitError> for ValidationError {
    fn from(e: LimitError) -> Self {
        ValidationError {
            func: None,
            message: e.to_string(),
            limit: Some(e),
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.func {
            Some(i) => write!(f, "validation error in function {i}: {}", self.message),
            None => write!(f, "validation error: {}", self.message),
        }
    }
}

impl std::error::Error for ValidationError {}

type VResult<T> = Result<T, ValidationError>;

thread_local! {
    static VALIDATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many modules [`validate`] (and so [`validate_with_limits`]) has
/// been asked to check on this thread — for the tests that pin "each
/// module is validated exactly once on every path". Per thread, so tests
/// running in parallel do not see each other.
#[doc(hidden)]
#[must_use]
pub fn validation_count() -> u64 {
    VALIDATIONS.with(std::cell::Cell::get)
}

/// Validates a module.
///
/// # Errors
///
/// Returns the first [`ValidationError`] found.
pub fn validate(module: &Module) -> VResult<()> {
    VALIDATIONS.with(|n| n.set(n.get() + 1));
    validate_structure(module)?;
    let imported = module.imported_func_count();
    for (i, func) in module.funcs.iter().enumerate() {
        let func_idx = imported + i as u32;
        let ty = module.types.get(func.type_idx as usize).ok_or_else(|| {
            ValidationError::new(format!("function type {} missing", func.type_idx))
        })?;
        let mut v = FuncValidator::new(module, ty, &func.locals);
        v.check_body(&func.body, &ty.results).map_err(|mut e| {
            e.func = Some(func_idx);
            e
        })?;
    }
    Ok(())
}

/// Validates a module under [`CompileLimits`]: the iterative size/depth
/// pre-scan runs *first* (so hostile bodies are rejected before the
/// recursive type-checking walk touches them), each op charges `fuel`,
/// and only then does ordinary validation run.
///
/// # Errors
///
/// A [`ValidationError`] carrying a [`LimitError`] (see
/// [`ValidationError::limit`]) for limit violations, or the first
/// ordinary validation failure.
pub fn validate_with_limits(
    module: &Module,
    limits: &CompileLimits,
    fuel: &CompileFuel,
) -> VResult<()> {
    limits.check_module(module)?;
    for func in &module.funcs {
        let stats = crate::limits::body_stats(&func.body, limits.max_body_ops);
        fuel.charge(stats.ops as u64)?;
    }
    validate(module)
}

fn validate_structure(module: &Module) -> VResult<()> {
    // Types referenced by imports.
    for import in &module.imports {
        match &import.kind {
            ImportKind::Func(t) => {
                if module.types.get(*t as usize).is_none() {
                    return Err(ValidationError::new(format!(
                        "import {}.{} references missing type {t}",
                        import.module, import.name
                    )));
                }
            }
            ImportKind::Memory(m) => {
                if !m.limits.is_well_formed() {
                    return Err(ValidationError::new("imported memory limits malformed"));
                }
            }
            ImportKind::Table(t) => {
                if !t.limits.is_well_formed() {
                    return Err(ValidationError::new("imported table limits malformed"));
                }
            }
            ImportKind::Global(_) => {}
        }
    }
    if module.memories.len() > 1 {
        return Err(ValidationError::new("at most one memory is supported"));
    }
    if module.tables.len() > 1 {
        return Err(ValidationError::new("at most one table is supported"));
    }
    for mem in &module.memories {
        if !mem.limits.is_well_formed() {
            return Err(ValidationError::new("memory limits malformed"));
        }
    }
    for table in &module.tables {
        if !table.limits.is_well_formed() {
            return Err(ValidationError::new("table limits malformed"));
        }
    }
    for global in &module.globals {
        let init_ty = match global.init {
            Instr::I32Const(_) => ValType::I32,
            Instr::I64Const(_) => ValType::I64,
            Instr::F32Const(_) => ValType::F32,
            Instr::F64Const(_) => ValType::F64,
            _ => {
                return Err(ValidationError::new(
                    "global initialiser must be a constant",
                ))
            }
        };
        if init_ty != global.ty.value {
            return Err(ValidationError::new(format!(
                "global initialiser type {init_ty} != declared {}",
                global.ty.value
            )));
        }
    }
    let total_funcs = module.total_func_count();
    for export in &module.exports {
        let ok = match export.kind {
            ExportKind::Func(i) => i < total_funcs,
            ExportKind::Memory(i) => {
                (i as usize)
                    < module
                        .memories
                        .len()
                        .max(usize::from(has_imported_memory(module)))
            }
            ExportKind::Table(i) => (i as usize) < module.tables.len(),
            ExportKind::Global(i) => (i as usize) < module.globals.len(),
        };
        if !ok {
            return Err(ValidationError::new(format!(
                "export \"{}\" references a missing item",
                export.name
            )));
        }
    }
    if let Some(start) = module.start {
        let ty = module
            .func_type(start)
            .ok_or_else(|| ValidationError::new("start function missing"))?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidationError::new("start function must be [] -> []"));
        }
    }
    for elem in &module.elems {
        if elem.table as usize >= module.tables.len() && !has_imported_table(module) {
            return Err(ValidationError::new("element segment without a table"));
        }
        for f in &elem.funcs {
            if *f >= total_funcs {
                return Err(ValidationError::new(format!(
                    "element segment references missing function {f}"
                )));
            }
        }
    }
    if !module.data.is_empty() && module.memory_type().is_none() {
        return Err(ValidationError::new("data segment without a memory"));
    }
    Ok(())
}

fn has_imported_memory(module: &Module) -> bool {
    module
        .imports
        .iter()
        .any(|i| matches!(i.kind, ImportKind::Memory(_)))
}

fn has_imported_table(module: &Module) -> bool {
    module
        .imports
        .iter()
        .any(|i| matches!(i.kind, ImportKind::Table(_)))
}

/// A control frame, per the spec's validation algorithm.
#[derive(Debug)]
struct Frame {
    /// Result types the frame leaves on the stack.
    end_types: Vec<ValType>,
    /// Types a branch to this frame expects (loop: params (empty here),
    /// block/if: results).
    label_types: Vec<ValType>,
    /// Operand-stack height at frame entry.
    height: usize,
    /// Set after an unconditional transfer; the rest of the frame is
    /// polymorphic.
    unreachable: bool,
}

struct FuncValidator<'m> {
    module: &'m Module,
    locals: Vec<ValType>,
    stack: Vec<Option<ValType>>,
    frames: Vec<Frame>,
}

impl<'m> FuncValidator<'m> {
    fn new(module: &'m Module, ty: &FuncType, locals: &[ValType]) -> Self {
        let mut all_locals = ty.params.clone();
        all_locals.extend_from_slice(locals);
        FuncValidator {
            module,
            locals: all_locals,
            stack: Vec::new(),
            frames: Vec::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> ValidationError {
        ValidationError::new(message)
    }

    fn push(&mut self, ty: ValType) {
        self.stack.push(Some(ty));
    }

    fn push_unknown(&mut self) {
        self.stack.push(None);
    }

    fn pop_any(&mut self) -> VResult<Option<ValType>> {
        let frame = self.frames.last().expect("frame");
        if self.stack.len() == frame.height {
            if frame.unreachable {
                return Ok(None);
            }
            return Err(self.err("operand stack underflow"));
        }
        Ok(self.stack.pop().expect("non-empty"))
    }

    fn pop_expect(&mut self, want: ValType) -> VResult<()> {
        match self.pop_any()? {
            None => Ok(()),
            Some(got) if got == want => Ok(()),
            Some(got) => Err(self.err(format!("type mismatch: expected {want}, found {got}"))),
        }
    }

    fn pop_all(&mut self, types: &[ValType]) -> VResult<()> {
        for ty in types.iter().rev() {
            self.pop_expect(*ty)?;
        }
        Ok(())
    }

    fn push_all(&mut self, types: &[ValType]) {
        for ty in types {
            self.push(*ty);
        }
    }

    fn push_frame(&mut self, label_types: Vec<ValType>, end_types: Vec<ValType>) {
        self.frames.push(Frame {
            end_types,
            label_types,
            height: self.stack.len(),
            unreachable: false,
        });
    }

    fn pop_frame(&mut self) -> VResult<Vec<ValType>> {
        let end_types = self.frames.last().expect("frame").end_types.clone();
        self.pop_all(&end_types)?;
        let frame = self.frames.pop().expect("frame");
        if self.stack.len() != frame.height {
            return Err(self.err("operand stack not empty at end of block"));
        }
        Ok(end_types)
    }

    fn set_unreachable(&mut self) {
        let frame = self.frames.last_mut().expect("frame");
        self.stack.truncate(frame.height);
        frame.unreachable = true;
    }

    fn label_types(&self, depth: u32) -> VResult<Vec<ValType>> {
        let idx = self
            .frames
            .len()
            .checked_sub(1 + depth as usize)
            .ok_or_else(|| self.err(format!("branch depth {depth} out of range")))?;
        Ok(self.frames[idx].label_types.clone())
    }

    fn local_type(&self, idx: u32) -> VResult<ValType> {
        self.locals
            .get(idx as usize)
            .copied()
            .ok_or_else(|| self.err(format!("local {idx} out of range")))
    }

    fn memory_index_type(&self) -> VResult<ValType> {
        self.module
            .memory_type()
            .map(|m| m.index_type())
            .ok_or_else(|| self.err("instruction requires a memory"))
    }

    /// The Fig. 10 context rule `C_memory = n`, plus the wasm64 requirement.
    fn require_memory64(&self) -> VResult<()> {
        let mem = self
            .module
            .memory_type()
            .ok_or_else(|| self.err("segment instruction requires a memory (Fig. 10)"))?;
        if !mem.memory64 {
            return Err(self.err("segment instructions require a 64-bit memory"));
        }
        Ok(())
    }

    fn check_body(&mut self, body: &[Instr], results: &[ValType]) -> VResult<()> {
        self.push_frame(results.to_vec(), results.to_vec());
        self.check_block(body)?;
        self.pop_frame()?;
        Ok(())
    }

    fn check_block(&mut self, body: &[Instr]) -> VResult<()> {
        for instr in body {
            self.check_instr(instr)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn check_instr(&mut self, instr: &Instr) -> VResult<()> {
        use Instr::*;
        use ValType::*;
        match instr {
            Unreachable => self.set_unreachable(),
            Nop => {}
            Block(bt, body) => {
                let results = bt.results().to_vec();
                self.push_frame(results.clone(), results.clone());
                self.check_block(body)?;
                let tys = self.pop_frame()?;
                self.push_all(&tys);
            }
            Loop(bt, body) => {
                // A branch to a loop re-enters it: label types are the
                // (empty) parameter types in this single-value subset.
                let results = bt.results().to_vec();
                self.push_frame(Vec::new(), results.clone());
                self.check_block(body)?;
                let tys = self.pop_frame()?;
                self.push_all(&tys);
            }
            If(bt, then, els) => {
                self.pop_expect(I32)?;
                let results = bt.results().to_vec();
                if els.is_empty() && !results.is_empty() {
                    return Err(self.err("if with a result requires an else"));
                }
                self.push_frame(results.clone(), results.clone());
                self.check_block(then)?;
                let tys = self.pop_frame()?;
                if !els.is_empty() {
                    self.push_frame(results.clone(), results.clone());
                    self.check_block(els)?;
                    self.pop_frame()?;
                }
                self.push_all(&tys);
            }
            Br(depth) => {
                let tys = self.label_types(*depth)?;
                self.pop_all(&tys)?;
                self.set_unreachable();
            }
            BrIf(depth) => {
                self.pop_expect(I32)?;
                let tys = self.label_types(*depth)?;
                self.pop_all(&tys)?;
                self.push_all(&tys);
            }
            BrTable(targets, default) => {
                self.pop_expect(I32)?;
                let default_tys = self.label_types(*default)?;
                for t in targets {
                    let tys = self.label_types(*t)?;
                    if tys != default_tys {
                        return Err(self.err("br_table target type mismatch"));
                    }
                }
                self.pop_all(&default_tys)?;
                self.set_unreachable();
            }
            Return => {
                let tys = self.frames[0].end_types.clone();
                self.pop_all(&tys)?;
                self.set_unreachable();
            }
            Call(f) => {
                let ty = self
                    .module
                    .func_type(*f)
                    .ok_or_else(|| self.err(format!("call target {f} missing")))?
                    .clone();
                self.pop_all(&ty.params)?;
                self.push_all(&ty.results);
            }
            CallIndirect(type_idx) => {
                if self.module.tables.is_empty() && !has_imported_table(self.module) {
                    return Err(self.err("call_indirect requires a table"));
                }
                let ty = self
                    .module
                    .types
                    .get(*type_idx as usize)
                    .ok_or_else(|| self.err(format!("call_indirect type {type_idx} missing")))?
                    .clone();
                self.pop_expect(I32)?; // table index
                self.pop_all(&ty.params)?;
                self.push_all(&ty.results);
            }
            Drop => {
                self.pop_any()?;
            }
            Select => {
                self.pop_expect(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Some(x), Some(y)) if x != y => {
                        return Err(self.err("select operands must have the same type"))
                    }
                    (Some(x), _) => self.push(x),
                    (None, Some(y)) => self.push(y),
                    (None, None) => self.push_unknown(),
                }
            }
            LocalGet(i) => {
                let ty = self.local_type(*i)?;
                self.push(ty);
            }
            LocalSet(i) => {
                let ty = self.local_type(*i)?;
                self.pop_expect(ty)?;
            }
            LocalTee(i) => {
                let ty = self.local_type(*i)?;
                self.pop_expect(ty)?;
                self.push(ty);
            }
            GlobalGet(i) => {
                let g = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or_else(|| self.err(format!("global {i} out of range")))?;
                self.push(g.ty.value);
            }
            GlobalSet(i) => {
                let g = self
                    .module
                    .globals
                    .get(*i as usize)
                    .ok_or_else(|| self.err(format!("global {i} out of range")))?;
                if !g.ty.mutable {
                    return Err(self.err(format!("global {i} is immutable")));
                }
                self.pop_expect(g.ty.value)?;
            }
            Load(op, memarg) => {
                if (1u64 << memarg.align) > op.width() {
                    return Err(self.err("alignment larger than access width"));
                }
                let idx = self.memory_index_type()?;
                self.pop_expect(idx)?;
                self.push(op.result_type());
            }
            Store(op, memarg) => {
                if (1u64 << memarg.align) > op.width() {
                    return Err(self.err("alignment larger than access width"));
                }
                let idx = self.memory_index_type()?;
                self.pop_expect(op.value_type())?;
                self.pop_expect(idx)?;
            }
            MemorySize => {
                let idx = self.memory_index_type()?;
                self.push(idx);
            }
            MemoryGrow => {
                let idx = self.memory_index_type()?;
                self.pop_expect(idx)?;
                self.push(idx);
            }
            MemoryFill => {
                let idx = self.memory_index_type()?;
                self.pop_expect(idx)?; // len
                self.pop_expect(I32)?; // value
                self.pop_expect(idx)?; // dst
            }
            MemoryCopy => {
                let idx = self.memory_index_type()?;
                self.pop_expect(idx)?; // len
                self.pop_expect(idx)?; // src
                self.pop_expect(idx)?; // dst
            }
            I32Const(_) => self.push(I32),
            I64Const(_) => self.push(I64),
            F32Const(_) => self.push(F32),
            F64Const(_) => self.push(F64),

            // -- Cage extension: Fig. 10 typing rules -----------------------
            SegmentNew(_) => {
                self.require_memory64()?;
                self.pop_expect(I64)?; // length
                self.pop_expect(I64)?; // pointer
                self.push(I64); // tagged pointer
            }
            SegmentSetTag(_) => {
                self.require_memory64()?;
                self.pop_expect(I64)?; // length
                self.pop_expect(I64)?; // tagged pointer
                self.pop_expect(I64)?; // pointer
            }
            SegmentFree(_) => {
                self.require_memory64()?;
                self.pop_expect(I64)?; // length
                self.pop_expect(I64)?; // tagged pointer
            }
            PointerSign | PointerAuth => {
                self.pop_expect(I64)?;
                self.push(I64);
            }

            // -- numeric instructions ---------------------------------------
            other => {
                let (params, result) = numeric_signature(other)
                    .ok_or_else(|| self.err(format!("unhandled instruction {other:?}")))?;
                self.pop_all(params)?;
                if let Some(r) = result {
                    self.push(r);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::{BlockType, LoadOp, MemArg, StoreOp};

    fn validate_body(
        params: &[ValType],
        results: &[ValType],
        memory64: Option<bool>,
        body: Vec<Instr>,
    ) -> VResult<()> {
        let mut b = ModuleBuilder::new();
        match memory64 {
            Some(true) => {
                b.add_memory64(1);
            }
            Some(false) => {
                b.add_memory32(1);
            }
            None => {}
        }
        b.add_function(params, results, &[], body);
        validate(&b.build())
    }

    #[test]
    fn simple_arithmetic_validates() {
        validate_body(
            &[ValType::I32, ValType::I32],
            &[ValType::I32],
            None,
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
        )
        .unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let err = validate_body(
            &[ValType::I32, ValType::I64],
            &[ValType::I32],
            None,
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32Add],
        )
        .unwrap_err();
        assert!(err.message.contains("type mismatch"), "{err}");
    }

    #[test]
    fn stack_underflow_rejected() {
        let err = validate_body(&[], &[ValType::I32], None, vec![Instr::I32Add]).unwrap_err();
        assert!(err.message.contains("underflow"), "{err}");
    }

    #[test]
    fn leftover_operands_rejected() {
        let err = validate_body(&[], &[], None, vec![Instr::I32Const(1), Instr::I32Const(2)])
            .unwrap_err();
        assert!(err.message.contains("not empty"), "{err}");
    }

    #[test]
    fn missing_result_rejected() {
        assert!(validate_body(&[], &[ValType::I64], None, vec![]).is_err());
    }

    #[test]
    fn block_and_branch_validate() {
        validate_body(
            &[ValType::I32],
            &[ValType::I32],
            None,
            vec![Instr::Block(
                BlockType::Value(ValType::I32),
                vec![
                    Instr::I32Const(1),
                    Instr::LocalGet(0),
                    Instr::BrIf(0),
                    Instr::Drop,
                    Instr::I32Const(2),
                ],
            )],
        )
        .unwrap();
    }

    #[test]
    fn loop_branch_targets_loop_start() {
        // br 0 inside a loop takes no operands (loop label types are the
        // params, which are empty here) even though the loop has a result.
        validate_body(
            &[],
            &[ValType::I32],
            None,
            vec![Instr::Loop(
                BlockType::Value(ValType::I32),
                vec![Instr::Br(0)],
            )],
        )
        .unwrap();
    }

    #[test]
    fn unreachable_is_polymorphic() {
        validate_body(
            &[],
            &[ValType::F64],
            None,
            vec![
                Instr::Unreachable,
                Instr::I32Add,
                Instr::Drop,
                Instr::F64Const(0),
            ],
        )
        .unwrap();
    }

    #[test]
    fn if_without_else_cannot_yield() {
        let err = validate_body(
            &[],
            &[ValType::I32],
            None,
            vec![
                Instr::I32Const(1),
                Instr::If(
                    BlockType::Value(ValType::I32),
                    vec![Instr::I32Const(1)],
                    vec![],
                ),
            ],
        )
        .unwrap_err();
        assert!(err.message.contains("else"), "{err}");
    }

    #[test]
    fn load_requires_memory() {
        let err = validate_body(
            &[ValType::I32],
            &[ValType::I32],
            None,
            vec![
                Instr::LocalGet(0),
                Instr::Load(LoadOp::I32Load, MemArg::none()),
            ],
        )
        .unwrap_err();
        assert!(err.message.contains("requires a memory"), "{err}");
    }

    #[test]
    fn memory64_loads_take_i64_indices() {
        // Correct: i64 index on a 64-bit memory.
        validate_body(
            &[ValType::I64],
            &[ValType::I32],
            Some(true),
            vec![
                Instr::LocalGet(0),
                Instr::Load(LoadOp::I32Load, MemArg::none()),
            ],
        )
        .unwrap();
        // Wrong index type.
        assert!(validate_body(
            &[ValType::I32],
            &[ValType::I32],
            Some(true),
            vec![
                Instr::LocalGet(0),
                Instr::Load(LoadOp::I32Load, MemArg::none()),
            ],
        )
        .is_err());
    }

    #[test]
    fn wasm32_stores_take_i32_indices() {
        validate_body(
            &[ValType::I32, ValType::I32],
            &[],
            Some(false),
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::Store(StoreOp::I32Store, MemArg::none()),
            ],
        )
        .unwrap();
    }

    #[test]
    fn over_aligned_access_rejected() {
        let err = validate_body(
            &[ValType::I64],
            &[ValType::I32],
            Some(true),
            vec![
                Instr::LocalGet(0),
                Instr::Load(
                    LoadOp::I32Load,
                    MemArg {
                        align: 3,
                        offset: 0,
                    },
                ),
            ],
        )
        .unwrap_err();
        assert!(err.message.contains("alignment"), "{err}");
    }

    // -- Fig. 10: Cage typing rules ------------------------------------------

    #[test]
    fn segment_new_types_as_i64_i64_to_i64() {
        validate_body(
            &[ValType::I64, ValType::I64],
            &[ValType::I64],
            Some(true),
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::SegmentNew(0)],
        )
        .unwrap();
    }

    #[test]
    fn segment_instructions_require_memory() {
        // Fig. 10: the C_memory = n premise.
        let err = validate_body(
            &[ValType::I64, ValType::I64],
            &[ValType::I64],
            None,
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::SegmentNew(0)],
        )
        .unwrap_err();
        assert!(err.message.contains("memory"), "{err}");
    }

    #[test]
    fn segment_instructions_require_memory64() {
        let err = validate_body(
            &[ValType::I64, ValType::I64],
            &[ValType::I64],
            Some(false),
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::SegmentNew(0)],
        )
        .unwrap_err();
        assert!(err.message.contains("64-bit"), "{err}");
    }

    #[test]
    fn segment_set_tag_consumes_three_i64s() {
        validate_body(
            &[ValType::I64, ValType::I64, ValType::I64],
            &[],
            Some(true),
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::LocalGet(2),
                Instr::SegmentSetTag(0),
            ],
        )
        .unwrap();
    }

    #[test]
    fn segment_free_consumes_two_i64s() {
        validate_body(
            &[ValType::I64, ValType::I64],
            &[],
            Some(true),
            vec![
                Instr::LocalGet(0),
                Instr::LocalGet(1),
                Instr::SegmentFree(0),
            ],
        )
        .unwrap();
    }

    #[test]
    fn pointer_sign_auth_are_i64_to_i64_without_memory() {
        // Fig. 10 places no memory premise on the pointer instructions.
        validate_body(
            &[ValType::I64],
            &[ValType::I64],
            None,
            vec![Instr::LocalGet(0), Instr::PointerSign, Instr::PointerAuth],
        )
        .unwrap();
    }

    #[test]
    fn pointer_sign_rejects_i32() {
        assert!(validate_body(
            &[ValType::I32],
            &[ValType::I64],
            None,
            vec![Instr::LocalGet(0), Instr::PointerSign],
        )
        .is_err());
    }

    // -- structural checks ----------------------------------------------------

    #[test]
    fn call_type_checked() {
        let mut b = ModuleBuilder::new();
        let callee = b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[],
            vec![Instr::LocalGet(0)],
        );
        b.add_function(
            &[],
            &[ValType::I64],
            &[],
            vec![Instr::I64Const(1), Instr::Call(callee)],
        );
        validate(&b.build()).unwrap();
    }

    #[test]
    fn call_indirect_requires_table() {
        let mut b = ModuleBuilder::new();
        let ty_params = &[ValType::I32];
        b.add_function(
            ty_params,
            &[],
            &[],
            vec![
                Instr::LocalGet(0),
                Instr::I32Const(0),
                Instr::CallIndirect(0),
            ],
        );
        let err = validate(&b.build()).unwrap_err();
        assert!(err.message.contains("table"), "{err}");
    }

    #[test]
    fn immutable_global_cannot_be_set() {
        let mut b = ModuleBuilder::new();
        b.add_global(ValType::I32, false, Instr::I32Const(0));
        b.add_function(&[], &[], &[], vec![Instr::I32Const(1), Instr::GlobalSet(0)]);
        let err = validate(&b.build()).unwrap_err();
        assert!(err.message.contains("immutable"), "{err}");
    }

    #[test]
    fn global_init_type_checked() {
        let mut b = ModuleBuilder::new();
        b.add_global(ValType::I64, true, Instr::I32Const(0));
        let err = validate(&b.build()).unwrap_err();
        assert!(err.message.contains("initialiser"), "{err}");
    }

    #[test]
    fn start_function_signature_checked() {
        let mut b = ModuleBuilder::new();
        let f = b.add_function(&[ValType::I32], &[], &[], vec![]);
        b.set_start(f);
        let err = validate(&b.build()).unwrap_err();
        assert!(err.message.contains("start"), "{err}");
    }

    #[test]
    fn export_referencing_missing_function_rejected() {
        let mut b = ModuleBuilder::new();
        b.export_func("ghost", 3);
        let err = validate(&b.build()).unwrap_err();
        assert!(err.message.contains("ghost"), "{err}");
    }

    #[test]
    fn elem_function_indices_checked() {
        let mut b = ModuleBuilder::new();
        b.add_table(4);
        b.add_elem(0, vec![9]);
        let err = validate(&b.build()).unwrap_err();
        assert!(err.message.contains("missing function"), "{err}");
    }

    #[test]
    fn error_reports_function_index() {
        let mut b = ModuleBuilder::new();
        b.add_function(&[], &[], &[], vec![]);
        b.add_function(&[], &[], &[], vec![Instr::I32Add]);
        let err = validate(&b.build()).unwrap_err();
        assert_eq!(err.func, Some(1));
    }

    #[test]
    fn br_table_validates_consistent_targets() {
        validate_body(
            &[ValType::I32],
            &[],
            None,
            vec![Instr::Block(
                BlockType::Empty,
                vec![Instr::Block(
                    BlockType::Empty,
                    vec![Instr::LocalGet(0), Instr::BrTable(vec![0, 1], 0)],
                )],
            )],
        )
        .unwrap();
    }
}
