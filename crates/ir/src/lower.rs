//! Lowering: IR → `cage-wasm` modules.
//!
//! Plays the role of LLVM's WASM backend in the paper's pipeline, emitting
//! the Cage instructions the sanitizer passes inserted. Targets wasm64
//! (the Cage configuration) or wasm32 (the guard-page baseline).
//!
//! ## Memory layout
//!
//! ```text
//! 0 .. 16              reserved (null page)
//! 16 .. 16+stack       shadow stack, grows downward from __stack_top
//! stack_top .. data    global data objects
//! heap_base ..         heap, managed by cage-libc
//! ```
//!
//! The stack pointer lives in a mutable global (as LLVM's wasm backend
//! does); `__heap_base` is exported as an immutable global, a constant of
//! the pointer type, for the allocator: the libc reads its heap from
//! there and nowhere else.

use std::fmt;

use cage_wasm::builder::ModuleBuilder;
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::{FuncType, Instr, MemArg, ValType};

use crate::instr::{BinOp, Callee, CastKind, Expr, MemTy, Operand, Stmt, UnOp};
use crate::module::{FuncId, IrFunction, IrModule, ValueId};
use crate::passes::stack_safety::granule_align;
use crate::types::IrType;

/// Target pointer width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtrWidth {
    /// wasm32: 32-bit pointers, guard-page-compatible.
    W32,
    /// wasm64: 64-bit pointers with Cage metadata bits.
    W64,
}

impl PtrWidth {
    fn valtype(self) -> ValType {
        match self {
            PtrWidth::W32 => ValType::I32,
            PtrWidth::W64 => ValType::I64,
        }
    }

    /// Pointer size in bytes on this target.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            PtrWidth::W32 => 4,
            PtrWidth::W64 => 8,
        }
    }
}

/// Lowering options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// Target pointer width.
    pub ptr_width: PtrWidth,
    /// Linear-memory size in 64 KiB pages.
    pub memory_pages: u64,
    /// Shadow-stack bytes.
    pub stack_size: u64,
}

impl Default for LowerOptions {
    fn default() -> Self {
        LowerOptions {
            ptr_width: PtrWidth::W64,
            memory_pages: 16,
            stack_size: 64 * 1024,
        }
    }
}

/// Lowering failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// Cage instructions require a 64-bit target.
    CageRequiresWasm64(&'static str),
    /// Data + stack exceed the configured memory.
    MemoryTooSmall,
    /// The statement tree is structurally invalid — `break`/`continue`
    /// outside a loop, or a float constant as a pointer index. A correct
    /// frontend never produces these; hand-built (possibly hostile) IR
    /// can, and the recursive lowering would panic on them.
    Malformed(&'static str),
    /// A compile limit was exceeded (see [`cage_wasm::CompileLimits`]).
    Limit(cage_wasm::LimitError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::CageRequiresWasm64(what) => {
                write!(f, "{what} requires the wasm64 target")
            }
            LowerError::MemoryTooSmall => f.write_str("memory too small for stack + data"),
            LowerError::Malformed(what) => write!(f, "malformed IR: {what}"),
            LowerError::Limit(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<cage_wasm::LimitError> for LowerError {
    fn from(e: cage_wasm::LimitError) -> Self {
        LowerError::Limit(e)
    }
}

/// Result of lowering: the module plus the addresses of its data. Where
/// the heap starts, the module states itself: its `__heap_base` export.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The wasm module.
    pub module: cage_wasm::Module,
    /// Addresses assigned to IR globals.
    pub global_addrs: Vec<u64>,
}

/// Iteratively checks one statement tree before the recursive lowering
/// touches it. Rejects what the recursion would panic on (`break`/
/// `continue` outside a loop, float pointer indices, Cage constructs on
/// wasm32), bounds nesting depth so the recursion cannot overflow host
/// stack, and charges one fuel unit per statement.
fn prescan_body(
    body: &[Stmt],
    pw: PtrWidth,
    max_depth: usize,
    fuel: &cage_wasm::CompileFuel,
) -> Result<(), LowerError> {
    // (sequence, next index, enclosing loop count, nesting level).
    let mut work: Vec<(&[Stmt], usize, u64, usize)> = vec![(body, 0, 0, 1)];
    while let Some(frame) = work.last_mut() {
        let (seq, idx, loops, level) = (frame.0, &mut frame.1, frame.2, frame.3);
        let Some(stmt) = seq.get(*idx) else {
            work.pop();
            continue;
        };
        *idx += 1;
        fuel.charge(1)?;
        let too_deep = || {
            LowerError::Limit(cage_wasm::LimitError {
                what: "statement nesting depth",
                limit: max_depth as u64,
                actual: max_depth as u64 + 1,
            })
        };
        let float_index = |op: &Operand| {
            matches!(op, Operand::ConstF64(_))
                .then_some(LowerError::Malformed("float used as pointer index"))
        };
        match stmt {
            Stmt::Break if loops == 0 => return Err(LowerError::Malformed("break outside loop")),
            Stmt::Continue if loops == 0 => {
                return Err(LowerError::Malformed("continue outside loop"));
            }
            Stmt::If { then, els, .. } => {
                if level >= max_depth {
                    return Err(too_deep());
                }
                work.push((then, 0, loops, level + 1));
                work.push((els, 0, loops, level + 1));
            }
            Stmt::While { header, body, .. } => {
                if level >= max_depth {
                    return Err(too_deep());
                }
                work.push((header, 0, loops + 1, level + 1));
                work.push((body, 0, loops + 1, level + 1));
            }
            Stmt::SegmentSetTag { .. } | Stmt::SegmentFree { .. } if pw == PtrWidth::W32 => {
                return Err(LowerError::CageRequiresWasm64("segment instructions"));
            }
            Stmt::Assign { expr, .. } | Stmt::Perform(expr) => match expr {
                Expr::SegmentNew { .. } | Expr::TagIncrement { .. } if pw == PtrWidth::W32 => {
                    return Err(LowerError::CageRequiresWasm64("segment instructions"));
                }
                Expr::PointerSign(_) | Expr::PointerAuth(_) if pw == PtrWidth::W32 => {
                    return Err(LowerError::CageRequiresWasm64("pointer authentication"));
                }
                Expr::Gep { index, .. } if index.as_const_int().is_none() => {
                    if let Some(e) = float_index(index) {
                        return Err(e);
                    }
                }
                Expr::BinOp {
                    ty: IrType::Ptr,
                    lhs,
                    rhs,
                    ..
                } => {
                    if let Some(e) = float_index(lhs).or_else(|| float_index(rhs)) {
                        return Err(e);
                    }
                }
                Expr::BinOp {
                    ty: IrType::F64,
                    op,
                    ..
                } if !float_binop_defined(*op) => {
                    return Err(LowerError::Malformed("operator undefined on f64"));
                }
                _ => {}
            },
            _ => {}
        }
    }
    Ok(())
}

/// Lowers `ir` to a wasm module with no resource bounds (trusted,
/// internal callers).
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower(ir: &IrModule, opts: &LowerOptions) -> Result<Lowered, LowerError> {
    lower_with_limits(
        ir,
        opts,
        &cage_wasm::CompileLimits::unlimited(),
        &cage_wasm::CompileLimits::unlimited().fuel(),
    )
}

/// Lowers `ir` to a wasm module, bounding function count, global bytes,
/// statement nesting depth and total work against `limits`/`fuel`.
///
/// # Errors
///
/// See [`LowerError`].
pub fn lower_with_limits(
    ir: &IrModule,
    opts: &LowerOptions,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<Lowered, LowerError> {
    let pw = opts.ptr_width;

    let funcs = ir.externs.len() + ir.functions.len();
    if funcs > limits.max_functions {
        return Err(LowerError::Limit(cage_wasm::LimitError {
            what: "functions",
            limit: limits.max_functions as u64,
            actual: funcs as u64,
        }));
    }
    let global_bytes: u64 = ir.globals.iter().map(|g| g.bytes.len() as u64).sum();
    if global_bytes > limits.max_global_bytes {
        return Err(LowerError::Limit(cage_wasm::LimitError {
            what: "global bytes",
            limit: limits.max_global_bytes,
            actual: global_bytes,
        }));
    }
    // Pre-scan every body before the recursive lowering below touches
    // it: everything the recursion would panic or overflow on is
    // rejected here, iteratively.
    for f in &ir.functions {
        prescan_body(&f.body, pw, limits.max_nesting_depth, fuel)?;
    }

    // Layout: stack, then globals, then heap.
    let stack_top = 16 + opts.stack_size;
    let mut cursor = stack_top;
    let mut global_addrs = Vec::with_capacity(ir.globals.len());
    for g in &ir.globals {
        let align = g.align.max(1);
        cursor = cursor.div_ceil(align) * align;
        global_addrs.push(cursor);
        cursor += g.bytes.len() as u64;
    }
    let heap_base = cursor.div_ceil(16) * 16;
    if heap_base > opts.memory_pages * cage_wasm::types::PAGE_SIZE {
        return Err(LowerError::MemoryTooSmall);
    }

    // Function-table slots of address-taken functions, by `FuncId` (0 =
    // none; table slot 0 is the null pointer), and the functions in slot
    // order: the order their addresses are first taken in.
    let mut table_slots = vec![0u32; ir.functions.len()];
    let mut elems: Vec<FuncId> = Vec::new();
    let mut dangling = false;
    for f in &ir.functions {
        crate::instr::visit_stmts(&f.body, &mut |stmt| {
            crate::instr::visit_exprs(stmt, &mut |e| {
                if let Expr::FuncAddr(id) = e {
                    match table_slots.get_mut(id.0 as usize) {
                        Some(slot) if *slot == 0 => {
                            elems.push(*id);
                            *slot = elems.len() as u32;
                        }
                        Some(_) => {}
                        None => dangling = true,
                    }
                }
            });
        });
    }
    if dangling {
        return Err(LowerError::Malformed("address of an undefined function"));
    }

    let mut b = ModuleBuilder::new();
    for ext in &ir.externs {
        let params: Vec<ValType> = ext.params.iter().map(|t| valtype(*t, pw)).collect();
        let results: Vec<ValType> = ext.ret.iter().map(|t| valtype(*t, pw)).collect();
        b.import_func(&ext.module, &ext.name, &params, &results);
    }
    let imported = ir.externs.len() as u32;

    match pw {
        PtrWidth::W32 => b.add_memory32(opts.memory_pages),
        PtrWidth::W64 => b.add_memory64(opts.memory_pages),
    };
    b.export_memory("memory");

    // Global 0: stack pointer. Global 1: heap base (immutable, exported
    // for the allocator).
    let sp = match pw {
        PtrWidth::W32 => b.add_global(ValType::I32, true, Instr::I32Const(stack_top as i32)),
        PtrWidth::W64 => b.add_global(ValType::I64, true, Instr::I64Const(stack_top as i64)),
    };
    let hb = match pw {
        PtrWidth::W32 => b.add_global(ValType::I32, false, Instr::I32Const(heap_base as i32)),
        PtrWidth::W64 => b.add_global(ValType::I64, false, Instr::I64Const(heap_base as i64)),
    };
    b.export_global("__heap_base", hb);

    if !elems.is_empty() {
        b.add_table(elems.len() as u64 + 1);
        for (i, f) in elems.iter().enumerate() {
            b.add_elem(i as u64 + 1, vec![imported + f.0]);
        }
    }

    for g in (0..ir.globals.len()).filter(|i| !ir.globals[*i].bytes.is_empty()) {
        b.add_data(global_addrs[g], ir.globals[g].bytes.clone());
    }

    // Intern indirect-call signatures before any function's own type, so
    // the type section lists them first; a body's `call_indirect` then
    // finds its index by interning again.
    for f in &ir.functions {
        crate::instr::visit_stmts(&f.body, &mut |stmt| {
            crate::instr::visit_exprs(stmt, &mut |e| {
                if let Expr::CallIndirect { params, ret, .. } = e {
                    b.intern_type(func_type(params, *ret, pw));
                }
            });
        });
    }

    for (i, f) in ir.functions.iter().enumerate() {
        let ctx = FuncLowering::new(f, ir, pw, sp, imported, &table_slots, &global_addrs, &mut b);
        let (locals, body) = ctx.lower();
        let params: Vec<ValType> = f.params.iter().map(|t| valtype(*t, pw)).collect();
        let results: Vec<ValType> = f.ret.iter().map(|t| valtype(*t, pw)).collect();
        let idx = b.add_function(&params, &results, &locals, body);
        debug_assert_eq!(idx, imported + i as u32);
        if f.exported {
            b.export_func(&f.name, idx);
        }
    }

    Ok(Lowered {
        module: b.build(),
        global_addrs,
    })
}

/// The wasm type of an indirect call's signature.
fn func_type(params: &[IrType], ret: Option<IrType>, pw: PtrWidth) -> FuncType {
    let params: Vec<ValType> = params.iter().map(|t| valtype(*t, pw)).collect();
    let results: Vec<ValType> = ret.iter().map(|t| valtype(*t, pw)).collect();
    FuncType::new(&params, &results)
}

fn valtype(t: IrType, pw: PtrWidth) -> ValType {
    match t {
        IrType::I32 => ValType::I32,
        IrType::I64 => ValType::I64,
        IrType::F64 => ValType::F64,
        IrType::Ptr => pw.valtype(),
    }
}

struct FuncLowering<'a> {
    func: &'a IrFunction,
    ir: &'a IrModule,
    pw: PtrWidth,
    sp_global: u32,
    imported: u32,
    /// Function-table slot per `FuncId` (0 = not address-taken).
    table_slots: &'a [u32],
    global_addrs: &'a [u64],
    /// The module under construction, whose type list holds every
    /// indirect-call signature already.
    module: &'a mut ModuleBuilder,
    /// wasm local index per IR register.
    locals_map: Vec<u32>,
    /// Extra wasm locals beyond the parameters.
    extra_locals: Vec<ValType>,
    /// Frame-pointer local (if a frame exists).
    fp_local: Option<u32>,
    /// Scratch i64 local for tag arithmetic.
    scratch: Option<u32>,
    frame_size: u64,
    alloca_offsets: Vec<u64>,
}

impl<'a> FuncLowering<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        func: &'a IrFunction,
        ir: &'a IrModule,
        pw: PtrWidth,
        sp_global: u32,
        imported: u32,
        table_slots: &'a [u32],
        global_addrs: &'a [u64],
        module: &'a mut ModuleBuilder,
    ) -> Self {
        let n_params = func.params.len();
        let mut locals_map = Vec::with_capacity(func.value_types.len());
        let mut extra_locals = Vec::new();
        for (i, ty) in func.value_types.iter().enumerate() {
            if i < n_params {
                locals_map.push(i as u32);
            } else {
                extra_locals.push(valtype(*ty, pw));
                locals_map.push((n_params + extra_locals.len() - 1) as u32);
            }
        }

        // Frame layout: guard slots first (frame start = lowest address),
        // then the remaining allocas in declaration order.
        let mut alloca_offsets = vec![0u64; func.allocas.len()];
        let mut offset = 0u64;
        for (i, a) in func.allocas.iter().enumerate().filter(|(_, a)| a.is_guard) {
            alloca_offsets[i] = offset;
            offset += granule_align(a.size);
        }
        for (i, a) in func.allocas.iter().enumerate().filter(|(_, a)| !a.is_guard) {
            if a.size == 0 {
                continue; // promoted away by mem2reg
            }
            alloca_offsets[i] = offset;
            offset += granule_align(a.size);
        }
        let frame_size = offset;

        let mut this = FuncLowering {
            func,
            ir,
            pw,
            sp_global,
            imported,
            table_slots,
            global_addrs,
            module,
            locals_map,
            extra_locals,
            fp_local: None,
            scratch: None,
            frame_size,
            alloca_offsets,
        };
        if frame_size > 0 {
            this.fp_local = Some(this.push_local(pw.valtype()));
        }
        this
    }

    fn push_local(&mut self, ty: ValType) -> u32 {
        self.extra_locals.push(ty);
        (self.func.params.len() + self.extra_locals.len() - 1) as u32
    }

    fn scratch_local(&mut self) -> u32 {
        if let Some(s) = self.scratch {
            return s;
        }
        let s = self.push_local(ValType::I64);
        self.scratch = Some(s);
        s
    }

    fn local_of(&self, v: ValueId) -> u32 {
        self.locals_map[v.0 as usize]
    }

    fn ptr_const(&self, v: u64) -> Instr {
        match self.pw {
            PtrWidth::W32 => Instr::I32Const(v as i32),
            PtrWidth::W64 => Instr::I64Const(v as i64),
        }
    }

    fn ptr_add(&self) -> Instr {
        match self.pw {
            PtrWidth::W32 => Instr::I32Add,
            PtrWidth::W64 => Instr::I64Add,
        }
    }

    fn lower(mut self) -> (Vec<ValType>, Vec<Instr>) {
        let mut body = Vec::new();
        // Prologue: carve the frame out of the shadow stack.
        if let Some(fp) = self.fp_local {
            body.push(Instr::GlobalGet(self.sp_global));
            body.push(self.ptr_const(self.frame_size));
            body.push(match self.pw {
                PtrWidth::W32 => Instr::I32Sub,
                PtrWidth::W64 => Instr::I64Sub,
            });
            body.push(Instr::LocalTee(fp));
            body.push(Instr::GlobalSet(self.sp_global));
        }
        let func = self.func;
        self.lower_stmts(&func.body, &mut body, &mut Vec::new());
        // Fall-through epilogue (functions returning a value end in
        // Return; void functions may fall off the end).
        self.emit_epilogue(&mut body);
        (self.extra_locals, body)
    }

    fn emit_epilogue(&self, out: &mut Vec<Instr>) {
        if let Some(fp) = self.fp_local {
            out.push(Instr::LocalGet(fp));
            out.push(self.ptr_const(self.frame_size));
            out.push(self.ptr_add());
            out.push(Instr::GlobalSet(self.sp_global));
        }
    }

    /// `loops` tracks, for `Break`/`Continue`, how many wasm labels up the
    /// enclosing loop's block/loop labels are. Each entry is the number of
    /// labels pushed since that loop's `loop` label.
    fn lower_stmts(&mut self, stmts: &[Stmt], out: &mut Vec<Instr>, loops: &mut Vec<u32>) {
        for stmt in stmts {
            self.lower_stmt(stmt, out, loops);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn lower_stmt(&mut self, stmt: &Stmt, out: &mut Vec<Instr>, loops: &mut Vec<u32>) {
        match stmt {
            Stmt::Assign { dst, expr } => {
                self.lower_expr(expr, out, self.func.value_type(*dst));
                out.push(Instr::LocalSet(self.local_of(*dst)));
            }
            Stmt::Perform(expr) => {
                let produces = match expr {
                    Expr::Call { callee, .. } => self.callee_ret(callee).is_some(),
                    Expr::CallIndirect { ret, .. } => ret.is_some(),
                    _ => true,
                };
                self.lower_expr(expr, out, IrType::I64);
                if produces {
                    out.push(Instr::Drop);
                }
            }
            Stmt::Store {
                ty,
                addr,
                offset,
                value,
            } => {
                self.push_operand(addr, out);
                self.push_operand(value, out);
                let op = self.store_op(*ty);
                out.push(Instr::Store(
                    op,
                    MemArg {
                        align: 0,
                        offset: *offset,
                    },
                ));
            }
            Stmt::If { cond, then, els } => {
                self.push_operand(cond, out);
                let mut then_body = Vec::new();
                let mut else_body = Vec::new();
                for l in loops.iter_mut() {
                    *l += 1;
                }
                self.lower_stmts(then, &mut then_body, loops);
                self.lower_stmts(els, &mut else_body, loops);
                for l in loops.iter_mut() {
                    *l -= 1;
                }
                out.push(Instr::If(cage_wasm::BlockType::Empty, then_body, else_body));
            }
            Stmt::While { header, cond, body } => {
                // block { loop { header; !cond br_if 1; body; br 0 } }
                // Inside the loop body the loop label is depth 0 and the
                // exit block is depth 1; nested `if`s shift both (tracked
                // by the If handler).
                let mut loop_body = Vec::new();
                loops.push(0);
                self.lower_stmts(header, &mut loop_body, loops);
                self.push_operand(cond, &mut loop_body);
                loop_body.push(Instr::I32Eqz);
                loop_body.push(Instr::BrIf(1));
                self.lower_stmts(body, &mut loop_body, loops);
                loop_body.push(Instr::Br(0));
                loops.pop();
                out.push(Instr::Block(
                    cage_wasm::BlockType::Empty,
                    vec![Instr::Loop(cage_wasm::BlockType::Empty, loop_body)],
                ));
            }
            Stmt::Break => {
                // Branch past the enclosing block (loop label + 1).
                let depth = loops.last().expect("break outside loop") + 1;
                out.push(Instr::Br(depth));
            }
            Stmt::Continue => {
                let depth = *loops.last().expect("continue outside loop");
                out.push(Instr::Br(depth));
            }
            Stmt::Return(op) => {
                if let Some(op) = op {
                    self.push_operand(op, out);
                }
                self.emit_epilogue(out);
                out.push(Instr::Return);
            }
            Stmt::SegmentSetTag { addr, tagged, len } => {
                self.push_operand(addr, out);
                self.push_operand(tagged, out);
                self.push_operand(len, out);
                out.push(Instr::SegmentSetTag(0));
            }
            Stmt::SegmentFree { ptr, len } => {
                self.push_operand(ptr, out);
                self.push_operand(len, out);
                out.push(Instr::SegmentFree(0));
            }
        }
    }

    fn callee_ret(&self, callee: &Callee) -> Option<IrType> {
        match callee {
            Callee::Local(f) => self.ir.functions[f.0 as usize].ret,
            Callee::Extern(e) => self.ir.externs[*e as usize].ret,
        }
    }

    fn push_operand(&mut self, op: &Operand, out: &mut Vec<Instr>) {
        match op {
            Operand::Value(v) => out.push(Instr::LocalGet(self.local_of(*v))),
            Operand::ConstI32(v) => out.push(Instr::I32Const(*v)),
            Operand::ConstI64(v) => out.push(Instr::I64Const(*v)),
            Operand::ConstF64(v) => out.push(Instr::f64_const(*v)),
        }
    }

    /// Pushes an operand coerced to the pointer width (for GEP indices).
    fn push_operand_as_ptr(&mut self, op: &Operand, out: &mut Vec<Instr>) {
        match op {
            Operand::ConstI32(v) => out.push(self.ptr_const(*v as i64 as u64)),
            Operand::ConstI64(v) => out.push(self.ptr_const(*v as u64)),
            Operand::Value(v) => {
                out.push(Instr::LocalGet(self.local_of(*v)));
                let ty = self.func.value_type(*v);
                match (ty, self.pw) {
                    (IrType::I32, PtrWidth::W64) => out.push(Instr::I64ExtendI32S),
                    (IrType::I64, PtrWidth::W32) => out.push(Instr::I32WrapI64),
                    _ => {}
                }
            }
            Operand::ConstF64(_) => panic!("float used as pointer index"),
        }
    }

    fn store_op(&self, ty: MemTy) -> StoreOp {
        match ty {
            MemTy::I8 | MemTy::U8 => StoreOp::I32Store8,
            MemTy::I16 => StoreOp::I32Store16,
            MemTy::I32 => StoreOp::I32Store,
            MemTy::I64 => StoreOp::I64Store,
            MemTy::F64 => StoreOp::F64Store,
            MemTy::Ptr => match self.pw {
                PtrWidth::W32 => StoreOp::I32Store,
                PtrWidth::W64 => StoreOp::I64Store,
            },
        }
    }

    fn load_op(&self, ty: MemTy) -> LoadOp {
        match ty {
            MemTy::I8 => LoadOp::I32Load8S,
            MemTy::U8 => LoadOp::I32Load8U,
            MemTy::I16 => LoadOp::I32Load16S,
            MemTy::I32 => LoadOp::I32Load,
            MemTy::I64 => LoadOp::I64Load,
            MemTy::F64 => LoadOp::F64Load,
            MemTy::Ptr => match self.pw {
                PtrWidth::W32 => LoadOp::I32Load,
                PtrWidth::W64 => LoadOp::I64Load,
            },
        }
    }

    #[allow(clippy::too_many_lines)]
    fn lower_expr(&mut self, expr: &Expr, out: &mut Vec<Instr>, _dst_ty: IrType) {
        match expr {
            Expr::Use(op) => self.push_operand(op, out),
            Expr::BinOp { op, ty, lhs, rhs } => {
                if *ty == IrType::Ptr {
                    // Pointer-typed operands (including integer constants
                    // like a NULL) must match the target pointer width.
                    self.push_operand_as_ptr(lhs, out);
                    self.push_operand_as_ptr(rhs, out);
                } else {
                    self.push_operand(lhs, out);
                    self.push_operand(rhs, out);
                }
                out.push(binop_instr(*op, *ty, self.pw));
            }
            Expr::UnOp { op, ty, operand } => match op {
                UnOp::Neg => match ty {
                    IrType::F64 => {
                        self.push_operand(operand, out);
                        out.push(Instr::F64Neg);
                    }
                    IrType::I32 => {
                        out.push(Instr::I32Const(0));
                        self.push_operand(operand, out);
                        out.push(Instr::I32Sub);
                    }
                    _ => {
                        out.push(Instr::I64Const(0));
                        self.push_operand(operand, out);
                        out.push(Instr::I64Sub);
                    }
                },
                UnOp::Not => {
                    self.push_operand(operand, out);
                    match ty {
                        IrType::I32 => out.push(Instr::I32Eqz),
                        _ => out.push(Instr::I64Eqz),
                    }
                }
                UnOp::BitNot => {
                    self.push_operand(operand, out);
                    match ty {
                        IrType::I32 => {
                            out.push(Instr::I32Const(-1));
                            out.push(Instr::I32Xor);
                        }
                        _ => {
                            out.push(Instr::I64Const(-1));
                            out.push(Instr::I64Xor);
                        }
                    }
                }
                UnOp::Sqrt => {
                    self.push_operand(operand, out);
                    out.push(Instr::F64Sqrt);
                }
                UnOp::Fabs => {
                    self.push_operand(operand, out);
                    out.push(Instr::F64Abs);
                }
            },
            Expr::Load { ty, addr, offset } => {
                self.push_operand(addr, out);
                let op = self.load_op(*ty);
                out.push(Instr::Load(
                    op,
                    MemArg {
                        align: 0,
                        offset: *offset,
                    },
                ));
            }
            Expr::AllocaAddr(id) => {
                let fp = self.fp_local.expect("alloca implies frame");
                out.push(Instr::LocalGet(fp));
                let off = self.alloca_offsets[id.0 as usize];
                if off != 0 {
                    out.push(self.ptr_const(off));
                    out.push(self.ptr_add());
                }
            }
            Expr::GlobalAddr(id) => {
                out.push(self.ptr_const(self.global_addrs[id.0 as usize]));
            }
            Expr::Gep {
                base,
                index,
                scale,
                offset,
            } => {
                self.push_operand(base, out);
                match index.as_const_int() {
                    Some(k) => {
                        let total = (k as u64).wrapping_mul(*scale).wrapping_add(*offset);
                        if total != 0 {
                            out.push(self.ptr_const(total));
                            out.push(self.ptr_add());
                        }
                    }
                    None => {
                        self.push_operand_as_ptr(index, out);
                        if *scale != 1 {
                            out.push(self.ptr_const(*scale));
                            out.push(match self.pw {
                                PtrWidth::W32 => Instr::I32Mul,
                                PtrWidth::W64 => Instr::I64Mul,
                            });
                        }
                        out.push(self.ptr_add());
                        if *offset != 0 {
                            out.push(self.ptr_const(*offset));
                            out.push(self.ptr_add());
                        }
                    }
                }
            }
            Expr::Call { callee, args } => {
                for a in args {
                    self.push_operand(a, out);
                }
                let idx = match callee {
                    Callee::Local(f) => self.imported + f.0,
                    Callee::Extern(e) => *e,
                };
                out.push(Instr::Call(idx));
            }
            Expr::CallIndirect {
                target,
                params,
                ret,
                args,
            } => {
                for a in args {
                    self.push_operand(a, out);
                }
                self.push_operand(target, out);
                // Fig. 9: the (authenticated) 64-bit pointer is truncated
                // to the 32-bit table index space.
                if self.pw == PtrWidth::W64 {
                    out.push(Instr::I32WrapI64);
                }
                let type_idx = self.sig_type_index(params, *ret);
                out.push(Instr::CallIndirect(type_idx));
            }
            Expr::FuncAddr(f) => {
                let slot = self.table_slots[f.0 as usize];
                out.push(self.ptr_const(u64::from(slot)));
            }
            Expr::Cast { kind, operand } => {
                self.push_operand(operand, out);
                match kind {
                    CastKind::I32ToI64S => out.push(Instr::I64ExtendI32S),
                    CastKind::I32ToI64U => out.push(Instr::I64ExtendI32U),
                    CastKind::I64ToI32 => out.push(Instr::I32WrapI64),
                    CastKind::I32ToF64S => out.push(Instr::F64ConvertI32S),
                    CastKind::I64ToF64S => out.push(Instr::F64ConvertI64S),
                    CastKind::F64ToI32S => out.push(Instr::I32TruncF64S),
                    CastKind::F64ToI64S => out.push(Instr::I64TruncF64S),
                    // Same representation at the wasm level.
                    CastKind::PtrToInt | CastKind::IntToPtr => {}
                }
            }
            Expr::SegmentNew { addr, len } => {
                self.push_operand(addr, out);
                self.push_operand(len, out);
                out.push(Instr::SegmentNew(0));
            }
            Expr::TagIncrement { prev, addr } => {
                // nib = ((prev >> 56) & 15) + 1; nib = nib == 16 ? 1 : nib
                // result = addr | (nib << 56)
                let scratch = self.scratch_local();
                self.push_operand(prev, out);
                out.push(Instr::I64Const(56));
                out.push(Instr::I64ShrU);
                out.push(Instr::I64Const(15));
                out.push(Instr::I64And);
                out.push(Instr::I64Const(1));
                out.push(Instr::I64Add);
                out.push(Instr::LocalTee(scratch));
                out.push(Instr::I64Const(1));
                out.push(Instr::LocalGet(scratch));
                out.push(Instr::I64Const(16));
                out.push(Instr::I64Ne);
                out.push(Instr::Select);
                out.push(Instr::I64Const(56));
                out.push(Instr::I64Shl);
                self.push_operand(addr, out);
                out.push(Instr::I64Or);
            }
            Expr::PointerSign(op) => {
                self.push_operand(op, out);
                out.push(Instr::PointerSign);
            }
            Expr::PointerAuth(op) => {
                self.push_operand(op, out);
                out.push(Instr::PointerAuth);
            }
        }
    }

    fn sig_type_index(&mut self, params: &[IrType], ret: Option<IrType>) -> u32 {
        self.module.intern_type(func_type(params, ret, self.pw))
    }
}

/// The operators [`binop_instr`] can emit for `f64` operands — the rest
/// (remainder, bitwise, shifts) have no wasm float form and must be
/// rejected by [`prescan_body`] before lowering.
fn float_binop_defined(op: BinOp) -> bool {
    use BinOp::*;
    matches!(
        op,
        Add | Sub | Mul | DivS | DivU | Eq | Ne | LtS | LtU | LeS | LeU | GtS | GtU | GeS | GeU
    )
}

/// The instruction `op` lowers to at `ty` — also what `const_fold`
/// evaluates a constant pair with, so it folds to what this computes.
pub(crate) fn binop_instr(op: BinOp, ty: IrType, pw: PtrWidth) -> Instr {
    use BinOp::*;
    let wide = match ty {
        IrType::I32 => false,
        IrType::Ptr => pw == PtrWidth::W64,
        _ => true,
    };
    if ty == IrType::F64 {
        return match op {
            Add => Instr::F64Add,
            Sub => Instr::F64Sub,
            Mul => Instr::F64Mul,
            DivS | DivU => Instr::F64Div,
            Eq => Instr::F64Eq,
            Ne => Instr::F64Ne,
            LtS | LtU => Instr::F64Lt,
            LeS | LeU => Instr::F64Le,
            GtS | GtU => Instr::F64Gt,
            GeS | GeU => Instr::F64Ge,
            other => panic!("operator {other:?} undefined on f64"),
        };
    }
    if wide {
        match op {
            Add => Instr::I64Add,
            Sub => Instr::I64Sub,
            Mul => Instr::I64Mul,
            DivS => Instr::I64DivS,
            DivU => Instr::I64DivU,
            RemS => Instr::I64RemS,
            RemU => Instr::I64RemU,
            And => Instr::I64And,
            Or => Instr::I64Or,
            Xor => Instr::I64Xor,
            Shl => Instr::I64Shl,
            ShrS => Instr::I64ShrS,
            ShrU => Instr::I64ShrU,
            Eq => Instr::I64Eq,
            Ne => Instr::I64Ne,
            LtS => Instr::I64LtS,
            LtU => Instr::I64LtU,
            LeS => Instr::I64LeS,
            LeU => Instr::I64LeU,
            GtS => Instr::I64GtS,
            GtU => Instr::I64GtU,
            GeS => Instr::I64GeS,
            GeU => Instr::I64GeU,
        }
    } else {
        match op {
            Add => Instr::I32Add,
            Sub => Instr::I32Sub,
            Mul => Instr::I32Mul,
            DivS => Instr::I32DivS,
            DivU => Instr::I32DivU,
            RemS => Instr::I32RemS,
            RemU => Instr::I32RemU,
            And => Instr::I32And,
            Or => Instr::I32Or,
            Xor => Instr::I32Xor,
            Shl => Instr::I32Shl,
            ShrS => Instr::I32ShrS,
            ShrU => Instr::I32ShrU,
            Eq => Instr::I32Eq,
            Ne => Instr::I32Ne,
            LtS => Instr::I32LtS,
            LtU => Instr::I32LtU,
            LeS => Instr::I32LeS,
            LeU => Instr::I32LeU,
            GtS => Instr::I32GtS,
            GtU => Instr::I32GtU,
            GeS => Instr::I32GeS,
            GeU => Instr::I32GeU,
        }
    }
}
