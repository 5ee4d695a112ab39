//! AST → `cage-ir` lowering with C type checking.
//!
//! Scalar locals live in IR registers; arrays, structs and address-taken
//! locals become allocas — which is exactly the population Algorithm 1
//! later analyses. Code is generated per target pointer width because C
//! object layout (`sizeof(void*)`, struct offsets, GEP scales) differs
//! between wasm32 and wasm64.

use std::collections::{HashMap, HashSet};

use cage_ir::{
    AllocaId, BinOp, Callee, CastKind, Expr as IrExpr, FuncId, FunctionBuilder, GlobalId, IrModule,
    IrType, MemTy, Operand, Stmt as IrStmt, UnOp, ValueId,
};

use crate::ast::{BinOpKind, Expr, ExprKind, FuncDef, Program, Stmt, UnOpKind};
use crate::error::CompileError;
use crate::types::{CType, FuncSig, StructTable};

/// Compiles a parsed program for the wasm64 target.
///
/// # Errors
///
/// [`CompileError`] on type errors.
pub fn compile_ast(prog: &Program) -> Result<IrModule, CompileError> {
    compile_ast_for(prog, 8)
}

/// Like [`compile_ast`], but bounded by `limits`/`fuel`.
///
/// # Errors
///
/// [`CompileError`] on type errors or busted limits.
pub fn compile_ast_with(
    prog: &Program,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<IrModule, CompileError> {
    compile_ast_for_with(prog, 8, limits, fuel)
}

/// Compiles for an explicit pointer width (8 = wasm64, 4 = wasm32).
///
/// # Errors
///
/// [`CompileError`] on type errors.
pub fn compile_ast_for(prog: &Program, ptr_bytes: u64) -> Result<IrModule, CompileError> {
    compile_ast_for_with(
        prog,
        ptr_bytes,
        &cage_wasm::CompileLimits::unlimited(),
        &cage_wasm::CompileLimits::unlimited().fuel(),
    )
}

/// Compiles for an explicit pointer width under explicit bounds: caps
/// the function count and total global data, and charges `fuel` as it
/// lowers (the parser has already charged per token, so the AST's size
/// is itself bounded by the time codegen sees it).
///
/// # Errors
///
/// [`CompileError`] on type errors or busted limits (see
/// [`CompileError::limit`]).
pub fn compile_ast_for_with(
    prog: &Program,
    ptr_bytes: u64,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<IrModule, CompileError> {
    if prog.funcs.len() > limits.max_functions {
        return Err(CompileError::from_limit(cage_wasm::LimitError {
            what: "functions",
            limit: limits.max_functions as u64,
            actual: prog.funcs.len() as u64,
        }));
    }
    let mut cg = Codegen::new(prog, ptr_bytes, *limits, fuel);
    cg.declare_functions()?;
    cg.define_globals()?;
    for func in &prog.funcs {
        fuel.charge(1).map_err(CompileError::from_limit)?;
        if func.body.is_some() {
            cg.compile_function(func)?;
        }
    }
    Ok(cg.module)
}

/// The libc surface recognised implicitly (imported from `cage_libc`).
const KNOWN_EXTERNS: &[(&str, &[CTypeTag], CTypeTag)] = &[
    ("malloc", &[CTypeTag::Long], CTypeTag::CharPtr),
    (
        "calloc",
        &[CTypeTag::Long, CTypeTag::Long],
        CTypeTag::CharPtr,
    ),
    (
        "realloc",
        &[CTypeTag::CharPtr, CTypeTag::Long],
        CTypeTag::CharPtr,
    ),
    ("free", &[CTypeTag::CharPtr], CTypeTag::Void),
    (
        "strcpy",
        &[CTypeTag::CharPtr, CTypeTag::CharPtr],
        CTypeTag::CharPtr,
    ),
    ("strlen", &[CTypeTag::CharPtr], CTypeTag::Long),
    (
        "memset",
        &[CTypeTag::CharPtr, CTypeTag::Int, CTypeTag::Long],
        CTypeTag::CharPtr,
    ),
    (
        "memcpy",
        &[CTypeTag::CharPtr, CTypeTag::CharPtr, CTypeTag::Long],
        CTypeTag::CharPtr,
    ),
    ("print_i64", &[CTypeTag::Long], CTypeTag::Void),
    ("print_f64", &[CTypeTag::Double], CTypeTag::Void),
    ("print_str", &[CTypeTag::CharPtr], CTypeTag::Void),
];

/// Const-friendly type tags for the extern table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CTypeTag {
    Void,
    Int,
    Long,
    Double,
    CharPtr,
}

impl CTypeTag {
    fn to_ctype(self) -> CType {
        match self {
            CTypeTag::Void => CType::Void,
            CTypeTag::Int => CType::Int,
            CTypeTag::Long => CType::Long,
            CTypeTag::Double => CType::Double,
            CTypeTag::CharPtr => CType::Char.ptr_to(),
        }
    }
}

#[derive(Debug, Clone)]
enum Storage {
    Reg(ValueId),
    Slot(AllocaId),
}

#[derive(Debug, Clone)]
struct Binding {
    ty: CType,
    storage: Storage,
}

/// An lvalue: a register or a memory location.
enum LV {
    Reg(ValueId, CType),
    Mem(Operand, u64, CType),
}

impl LV {
    fn ctype(&self) -> &CType {
        match self {
            LV::Reg(_, t) | LV::Mem(_, _, t) => t,
        }
    }
}

struct Codegen<'p> {
    prog: &'p Program,
    module: IrModule,
    ptr_bytes: u64,
    func_sigs: HashMap<String, (FuncId, FuncSig)>,
    extern_ids: HashMap<String, (u32, FuncSig)>,
    /// Prototype-only functions: declared host imports (the `env` module).
    declared_externs: HashMap<String, FuncSig>,
    global_ids: HashMap<String, (GlobalId, CType)>,
    str_cache: HashMap<String, GlobalId>,
    limits: cage_wasm::CompileLimits,
    fuel: &'p cage_wasm::CompileFuel,
    /// Bytes of global data emitted so far (counted against
    /// `limits.max_global_bytes`).
    global_bytes: u64,
}

struct FnCtx {
    b: FunctionBuilder,
    scopes: Vec<HashMap<String, Binding>>,
    ret: CType,
    slot_names: HashSet<String>,
}

impl FnCtx {
    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn bind(&mut self, name: &str, binding: Binding) {
        self.scopes
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), binding);
    }
}

impl<'p> Codegen<'p> {
    fn new(
        prog: &'p Program,
        ptr_bytes: u64,
        limits: cage_wasm::CompileLimits,
        fuel: &'p cage_wasm::CompileFuel,
    ) -> Self {
        Codegen {
            prog,
            module: IrModule::new(),
            ptr_bytes,
            func_sigs: HashMap::new(),
            extern_ids: HashMap::new(),
            declared_externs: HashMap::new(),
            global_ids: HashMap::new(),
            str_cache: HashMap::new(),
            limits,
            fuel,
            global_bytes: 0,
        }
    }

    /// Counts `size` bytes of global data against the limit, before the
    /// backing buffer is allocated.
    fn charge_global(&mut self, size: u64) -> Result<(), CompileError> {
        let total = self.global_bytes.saturating_add(size);
        if total > self.limits.max_global_bytes {
            return Err(CompileError::from_limit(cage_wasm::LimitError {
                what: "global bytes",
                limit: self.limits.max_global_bytes,
                actual: total,
            }));
        }
        self.global_bytes = total;
        Ok(())
    }

    fn structs(&self) -> &StructTable {
        &self.prog.structs
    }

    fn size_of(&self, ty: &CType) -> u64 {
        self.structs().size_of(ty, self.ptr_bytes)
    }

    fn ir_type(&self, ty: &CType) -> IrType {
        match ty {
            CType::Char | CType::Int => IrType::I32,
            CType::Long => IrType::I64,
            CType::Double => IrType::F64,
            CType::Ptr(_) | CType::FuncPtr(_) | CType::Array(_, _) => IrType::Ptr,
            CType::Struct(_) => IrType::Ptr, // structs are handled by address
            CType::Void => IrType::I32,      // placeholder, never materialised
        }
    }

    fn mem_ty(&self, ty: &CType) -> Result<MemTy, CompileError> {
        Ok(match ty {
            CType::Char => MemTy::I8,
            CType::Int => MemTy::I32,
            CType::Long => MemTy::I64,
            CType::Double => MemTy::F64,
            CType::Ptr(_) | CType::FuncPtr(_) => MemTy::Ptr,
            // Aggregate copies (`*p = *q` on struct pointers, struct
            // parameters by value) and `void` accesses have no scalar
            // load/store form in this subset.
            other => {
                return Err(CompileError::new(
                    0,
                    format!("cannot load or store non-scalar type {other}"),
                ))
            }
        })
    }

    fn declare_functions(&mut self) -> Result<(), CompileError> {
        // Prototype-only functions (declared but never defined) are host
        // imports: they compile to calls into the `env` import module, so
        // embedders can expose custom host functions through a `Linker`.
        let defined: HashSet<&str> = self
            .prog
            .funcs
            .iter()
            .filter(|f| f.body.is_some())
            .map(|f| f.name.as_str())
            .collect();
        let mut next_id = 0u32;
        let mut bodies_seen: HashSet<&str> = HashSet::new();
        for f in &self.prog.funcs {
            let sig = FuncSig {
                params: f.params.iter().map(|(_, t)| t.clone()).collect(),
                ret: f.ret.clone(),
            };
            if f.body.is_some() && !bodies_seen.insert(f.name.as_str()) {
                return Err(CompileError::new(
                    f.line,
                    format!("redefinition of `{}`", f.name),
                ));
            }
            if !defined.contains(f.name.as_str()) {
                // A prototype for a libc name must match the implicit
                // libc signature — it resolves to `cage_libc.*`, never to
                // a user host import.
                if let Some((_, params, ret)) = KNOWN_EXTERNS.iter().find(|(n, _, _)| *n == f.name)
                {
                    let libc_sig = FuncSig {
                        params: params.iter().map(|t| t.to_ctype()).collect(),
                        ret: ret.to_ctype(),
                    };
                    if sig != libc_sig {
                        return Err(CompileError::new(
                            f.line,
                            format!(
                                "declaration of `{}` conflicts with the libc signature",
                                f.name
                            ),
                        ));
                    }
                    continue;
                }
                if let Some(existing) = self.declared_externs.get(&f.name) {
                    if *existing != sig {
                        return Err(CompileError::new(
                            f.line,
                            format!("conflicting declarations of `{}`", f.name),
                        ));
                    }
                } else {
                    self.declared_externs.insert(f.name.clone(), sig);
                }
                continue;
            }
            if let Some((_, existing)) = self.func_sigs.get(&f.name) {
                // Redeclaration (a prototype before or after the
                // definition): the signature must agree.
                if *existing != sig {
                    return Err(CompileError::new(
                        f.line,
                        format!("conflicting declarations of `{}`", f.name),
                    ));
                }
                continue;
            }
            self.func_sigs
                .insert(f.name.clone(), (FuncId(next_id), sig));
            next_id += 1;
        }
        // Emit placeholder functions in id order so FuncId == index.
        let mut ordered: Vec<(&String, &(FuncId, FuncSig))> = self.func_sigs.iter().collect();
        ordered.sort_by_key(|(_, (id, _))| id.0);
        for (name, (_, sig)) in ordered {
            let params: Vec<IrType> = sig.params.iter().map(|t| self.ir_type(t)).collect();
            let ret = match sig.ret {
                CType::Void => None,
                ref t => Some(self.ir_type(t)),
            };
            let mut fb = FunctionBuilder::new(name, &params, ret);
            fb.set_exported(true);
            self.module.functions.push(fb.finish());
        }
        Ok(())
    }

    fn define_globals(&mut self) -> Result<(), CompileError> {
        for g in &self.prog.globals {
            let size = self.size_of(&g.ty);
            self.charge_global(size)?;
            let Ok(len) = usize::try_from(size) else {
                return Err(CompileError::new(
                    g.line,
                    format!("global `{}` is too large for the target", g.name),
                ));
            };
            let mut bytes = vec![0u8; len];
            if let Some(init) = &g.init {
                match (&init.kind, &g.ty) {
                    (ExprKind::IntLit(v), CType::Int) => {
                        bytes.copy_from_slice(&(*v as i32).to_le_bytes());
                    }
                    (ExprKind::IntLit(v), CType::Long) => {
                        bytes.copy_from_slice(&v.to_le_bytes());
                    }
                    (ExprKind::IntLit(v), CType::Char) => bytes[0] = *v as u8,
                    (ExprKind::FloatLit(v), CType::Double) => {
                        bytes.copy_from_slice(&v.to_le_bytes());
                    }
                    (ExprKind::IntLit(v), CType::Double) => {
                        bytes.copy_from_slice(&(*v as f64).to_le_bytes());
                    }
                    _ => {
                        return Err(CompileError::new(
                            g.line,
                            "global initialisers must be integer or float constants",
                        ))
                    }
                }
            }
            let align = self.structs().align_of(&g.ty, self.ptr_bytes).max(16);
            let id = self.module.add_global(&g.name, bytes, align);
            self.global_ids.insert(g.name.clone(), (id, g.ty.clone()));
        }
        Ok(())
    }

    fn intern_string(&mut self, s: &str) -> Result<GlobalId, CompileError> {
        if let Some(id) = self.str_cache.get(s) {
            return Ok(*id);
        }
        self.charge_global(s.len() as u64 + 1)?;
        let mut bytes = s.as_bytes().to_vec();
        bytes.push(0);
        let id = self
            .module
            .add_global(&format!("str{}", self.str_cache.len()), bytes, 16);
        self.str_cache.insert(s.to_string(), id);
        Ok(id)
    }

    fn extern_id(&mut self, name: &str) -> Option<(u32, FuncSig)> {
        if let Some(e) = self.extern_ids.get(name) {
            return Some(e.clone());
        }
        // The implicit libc surface keeps its `cage_libc` namespace;
        // everything else the program declared without defining is an
        // embedder host function in the `env` namespace.
        let (module, sig) =
            if let Some((_, params, ret)) = KNOWN_EXTERNS.iter().find(|(n, _, _)| *n == name) {
                let sig = FuncSig {
                    params: params.iter().map(|t| t.to_ctype()).collect(),
                    ret: ret.to_ctype(),
                };
                ("cage_libc", sig)
            } else {
                ("env", self.declared_externs.get(name)?.clone())
            };
        let ir_params: Vec<IrType> = sig.params.iter().map(|t| self.ir_type(t)).collect();
        let ir_ret = match sig.ret {
            CType::Void => None,
            ref t => Some(self.ir_type(t)),
        };
        let idx = self.module.add_extern(cage_ir::ExternFunc {
            module: module.into(),
            name: name.into(),
            params: ir_params,
            ret: ir_ret,
        });
        self.extern_ids.insert(name.to_string(), (idx, sig.clone()));
        Some((idx, sig))
    }

    // -- function compilation -------------------------------------------------

    fn compile_function(&mut self, func: &FuncDef) -> Result<(), CompileError> {
        let (func_id, sig) = self.func_sigs[&func.name].clone();
        let params: Vec<IrType> = sig.params.iter().map(|t| self.ir_type(t)).collect();
        let ret = match sig.ret {
            CType::Void => None,
            ref t => Some(self.ir_type(t)),
        };
        let mut fb = FunctionBuilder::new(&func.name, &params, ret);
        fb.set_exported(true);

        // Which names need memory slots: address-taken, arrays, structs.
        let mut slot_names = HashSet::new();
        collect_addr_taken(func.body.as_deref().unwrap_or(&[]), &mut slot_names);

        let mut ctx = FnCtx {
            b: fb,
            scopes: vec![HashMap::new()],
            ret: sig.ret.clone(),
            slot_names,
        };
        // Bind parameters (copy address-taken params into slots).
        for (i, (name, ty)) in func.params.iter().enumerate() {
            if ctx.slot_names.contains(name) {
                let size = self.size_of(ty);
                let slot = ctx.b.alloca(size, name);
                let addr = ctx.b.alloca_addr(slot);
                ctx.b.store(self.mem_ty(ty)?, addr, 0, ctx.b.param(i));
                ctx.bind(
                    name,
                    Binding {
                        ty: ty.clone(),
                        storage: Storage::Slot(slot),
                    },
                );
            } else {
                let reg = match ctx.b.param(i) {
                    Operand::Value(v) => v,
                    _ => unreachable!(),
                };
                ctx.bind(
                    name,
                    Binding {
                        ty: ty.clone(),
                        storage: Storage::Reg(reg),
                    },
                );
            }
        }

        for stmt in func.body.as_deref().unwrap_or(&[]) {
            self.stmt(&mut ctx, stmt)?;
        }
        // Implicit return for main-like ints is not C-correct in general,
        // but a trailing `return 0` keeps validation happy for void paths.
        if ctx.ret == CType::Void {
            ctx.b.stmt(IrStmt::Return(None));
        } else {
            let zero = self.zero_of(&ctx.ret);
            ctx.b.stmt(IrStmt::Return(Some(zero)));
        }
        self.module.functions[func_id.0 as usize] = ctx.b.finish();
        Ok(())
    }

    fn zero_of(&self, ty: &CType) -> Operand {
        match self.ir_type(ty) {
            IrType::I32 => Operand::ConstI32(0),
            IrType::F64 => Operand::ConstF64(0.0),
            IrType::I64 => Operand::ConstI64(0),
            // A null pointer is as wide as the target's addresses.
            IrType::Ptr if self.ptr_bytes == 4 => Operand::ConstI32(0),
            IrType::Ptr => Operand::ConstI64(0),
        }
    }

    // -- statements -----------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn stmt(&mut self, ctx: &mut FnCtx, stmt: &Stmt) -> Result<(), CompileError> {
        self.fuel.charge(1).map_err(CompileError::from_limit)?;
        match stmt {
            Stmt::Decl {
                name,
                ty,
                init,
                brace_init,
                line,
            } => self.decl(ctx, name, ty, init.as_ref(), brace_init.as_deref(), *line),
            Stmt::Expr(e) => {
                self.expr_discard(ctx, e)?;
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                let (c, cty) = self.expr(ctx, cond)?;
                let c = self.truthiness(ctx, c, &cty);
                ctx.b.push_block();
                ctx.scopes.push(HashMap::new());
                for s in then {
                    self.stmt(ctx, s)?;
                }
                ctx.scopes.pop();
                let then_ir = ctx.b.pop_block();
                ctx.b.push_block();
                ctx.scopes.push(HashMap::new());
                for s in els {
                    self.stmt(ctx, s)?;
                }
                ctx.scopes.pop();
                let else_ir = ctx.b.pop_block();
                ctx.b.stmt(IrStmt::If {
                    cond: c,
                    then: then_ir,
                    els: else_ir,
                });
                Ok(())
            }
            Stmt::While { cond, body } => {
                ctx.b.push_block();
                let (c, cty) = self.expr(ctx, cond)?;
                let c = self.truthiness(ctx, c, &cty);
                let header = ctx.b.pop_block();
                ctx.b.push_block();
                ctx.scopes.push(HashMap::new());
                for s in body {
                    self.stmt(ctx, s)?;
                }
                ctx.scopes.pop();
                let body_ir = ctx.b.pop_block();
                ctx.b.stmt(IrStmt::While {
                    header,
                    cond: c,
                    body: body_ir,
                });
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // Desugar: init; while (cond) { body[continue -> step;continue]; step }
                ctx.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(ctx, init)?;
                }
                let desugared = desugar_for_body(body, step.as_ref());
                let cond_expr = cond.clone().unwrap_or(Expr::new(ExprKind::IntLit(1), 0));
                let while_stmt = Stmt::While {
                    cond: cond_expr,
                    body: desugared,
                };
                self.stmt(ctx, &while_stmt)?;
                ctx.scopes.pop();
                Ok(())
            }
            Stmt::Return(value, line) => {
                match value {
                    Some(e) => {
                        let (v, vty) = self.expr(ctx, e)?;
                        let ret_ty = ctx.ret.clone();
                        if ret_ty == CType::Void {
                            return Err(CompileError::new(*line, "void function returns a value"));
                        }
                        let v = self.convert(ctx, v, &vty, &ret_ty, *line)?;
                        ctx.b.stmt(IrStmt::Return(Some(v)));
                    }
                    None => {
                        if ctx.ret != CType::Void {
                            return Err(CompileError::new(*line, "missing return value"));
                        }
                        ctx.b.stmt(IrStmt::Return(None));
                    }
                }
                Ok(())
            }
            Stmt::Break(_) => {
                ctx.b.stmt(IrStmt::Break);
                Ok(())
            }
            Stmt::Continue(_) => {
                ctx.b.stmt(IrStmt::Continue);
                Ok(())
            }
            Stmt::Block(stmts) => {
                ctx.scopes.push(HashMap::new());
                for s in stmts {
                    self.stmt(ctx, s)?;
                }
                ctx.scopes.pop();
                Ok(())
            }
        }
    }

    fn decl(
        &mut self,
        ctx: &mut FnCtx,
        name: &str,
        ty: &CType,
        init: Option<&Expr>,
        brace_init: Option<&[(Option<String>, Expr)]>,
        line: u32,
    ) -> Result<(), CompileError> {
        let needs_slot =
            ctx.slot_names.contains(name) || matches!(ty, CType::Array(_, _) | CType::Struct(_));
        if needs_slot {
            let size = self.size_of(ty);
            let slot = ctx.b.alloca(size, name);
            ctx.bind(
                name,
                Binding {
                    ty: ty.clone(),
                    storage: Storage::Slot(slot),
                },
            );
            if let Some(e) = init {
                let (v, vty) = self.expr(ctx, e)?;
                let v = self.convert(ctx, v, &vty, ty, line)?;
                let addr = ctx.b.alloca_addr(slot);
                ctx.b.store(self.mem_ty(ty)?, addr, 0, v);
            }
            if let Some(items) = brace_init {
                self.emit_brace_init(ctx, slot, ty, items, line)?;
            }
        } else {
            let ir_ty = self.ir_type(ty);
            let init_val = match init {
                Some(e) => {
                    let (v, vty) = self.expr(ctx, e)?;
                    self.convert(ctx, v, &vty, ty, line)?
                }
                None => self.zero_of(ty),
            };
            let reg = ctx.b.copy(ir_ty, init_val);
            ctx.bind(
                name,
                Binding {
                    ty: ty.clone(),
                    storage: Storage::Reg(reg),
                },
            );
        }
        Ok(())
    }

    fn emit_brace_init(
        &mut self,
        ctx: &mut FnCtx,
        slot: AllocaId,
        ty: &CType,
        items: &[(Option<String>, Expr)],
        line: u32,
    ) -> Result<(), CompileError> {
        match ty {
            CType::Array(elem, _) => {
                let esize = self.size_of(elem);
                for (i, (field, e)) in items.iter().enumerate() {
                    if field.is_some() {
                        return Err(CompileError::new(line, "designators only apply to structs"));
                    }
                    let (v, vty) = self.expr(ctx, e)?;
                    let v = self.convert(ctx, v, &vty, elem, line)?;
                    let addr = ctx.b.alloca_addr(slot);
                    ctx.b.store(self.mem_ty(elem)?, addr, esize * i as u64, v);
                }
                Ok(())
            }
            CType::Struct(id) => {
                for (i, (field, e)) in items.iter().enumerate() {
                    let (offset, fty) = match field {
                        Some(fname) => self
                            .structs()
                            .field(*id, fname, self.ptr_bytes)
                            .ok_or_else(|| {
                                CompileError::new(line, format!("no field `{fname}`"))
                            })?,
                        None => {
                            let (fname, _) = self.structs().defs[*id]
                                .fields
                                .get(i)
                                .ok_or_else(|| CompileError::new(line, "too many initialisers"))?;
                            let fname = fname.clone();
                            self.structs()
                                .field(*id, &fname, self.ptr_bytes)
                                .expect("field exists")
                        }
                    };
                    let (v, vty) = self.expr(ctx, e)?;
                    let v = self.convert(ctx, v, &vty, &fty, line)?;
                    let addr = ctx.b.alloca_addr(slot);
                    ctx.b.store(self.mem_ty(&fty)?, addr, offset, v);
                }
                Ok(())
            }
            _ => Err(CompileError::new(
                line,
                "brace initialiser needs array/struct",
            )),
        }
    }

    // -- expressions -----------------------------------------------------------

    /// Emits `e` for side effects, discarding any value.
    fn expr_discard(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<(), CompileError> {
        let _ = self.expr(ctx, e)?;
        Ok(())
    }

    /// Normalises a value to an i32 0/1 condition.
    fn truthiness(&mut self, ctx: &mut FnCtx, v: Operand, ty: &CType) -> Operand {
        match self.ir_type(ty) {
            IrType::I32 => v,
            IrType::F64 => ctx
                .b
                .binop(BinOp::Ne, IrType::F64, v, Operand::ConstF64(0.0)),
            IrType::Ptr => ctx.b.binop(BinOp::Ne, IrType::Ptr, v, Operand::ConstI64(0)),
            IrType::I64 => ctx.b.binop(BinOp::Ne, IrType::I64, v, Operand::ConstI64(0)),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<(Operand, CType), CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                if *v >= i64::from(i32::MIN) && *v <= i64::from(i32::MAX) {
                    Ok((Operand::ConstI32(*v as i32), CType::Int))
                } else {
                    Ok((Operand::ConstI64(*v), CType::Long))
                }
            }
            ExprKind::FloatLit(v) => Ok((Operand::ConstF64(*v), CType::Double)),
            ExprKind::CharLit(c) => Ok((Operand::ConstI32(i32::from(*c)), CType::Char)),
            ExprKind::StrLit(s) => {
                let id = self.intern_string(s)?;
                let addr = ctx.b.assign(IrType::Ptr, IrExpr::GlobalAddr(id));
                Ok((addr, CType::Char.ptr_to()))
            }
            ExprKind::Ident(name) => self.ident_value(ctx, name, e.line),
            ExprKind::Bin(op, lhs, rhs) => self.binary(ctx, *op, lhs, rhs, e.line),
            ExprKind::LogAnd(lhs, rhs) => self.logical(ctx, lhs, rhs, true),
            ExprKind::LogOr(lhs, rhs) => self.logical(ctx, lhs, rhs, false),
            ExprKind::Assign(op, lhs, rhs) => self.assign(ctx, *op, lhs, rhs, e.line),
            ExprKind::Un(op, inner) => self.unary(ctx, *op, inner, e.line),
            ExprKind::PreIncDec(inc, inner) => self.incdec(ctx, *inc, inner, true, e.line),
            ExprKind::PostIncDec(inc, inner) => self.incdec(ctx, *inc, inner, false, e.line),
            ExprKind::Call(callee, args) => self.call(ctx, callee, args, e.line),
            ExprKind::Index(base, idx) => {
                let lv = self.index_lvalue(ctx, base, idx, e.line)?;
                self.load_lvalue(ctx, lv)
            }
            ExprKind::Member(base, field) => {
                let lv = self.member_lvalue(ctx, base, field, false, e.line)?;
                self.load_lvalue(ctx, lv)
            }
            ExprKind::Arrow(base, field) => {
                let lv = self.member_lvalue(ctx, base, field, true, e.line)?;
                self.load_lvalue(ctx, lv)
            }
            ExprKind::Cast(ty, inner) => {
                let (v, vty) = self.expr(ctx, inner)?;
                let v = self.convert(ctx, v, &vty, ty, e.line)?;
                Ok((v, ty.clone()))
            }
            ExprKind::SizeOf(ty) => Ok((Operand::ConstI64(self.size_of(ty) as i64), CType::Long)),
        }
    }

    fn ident_value(
        &mut self,
        ctx: &mut FnCtx,
        name: &str,
        line: u32,
    ) -> Result<(Operand, CType), CompileError> {
        if let Some(binding) = ctx.lookup(name).cloned() {
            return Ok(match (&binding.storage, &binding.ty) {
                // Arrays decay; structs evaluate to their address.
                (Storage::Slot(slot), CType::Array(elem, _)) => {
                    let addr = ctx.b.alloca_addr(*slot);
                    (addr, CType::Ptr(elem.clone()))
                }
                (Storage::Slot(slot), CType::Struct(_)) => {
                    let addr = ctx.b.alloca_addr(*slot);
                    (addr, binding.ty.clone())
                }
                (Storage::Slot(slot), ty) => {
                    let addr = ctx.b.alloca_addr(*slot);
                    let v = ctx.b.load(self.mem_ty(ty)?, addr, 0);
                    (v, ty.clone())
                }
                (Storage::Reg(reg), ty) => (Operand::Value(*reg), ty.clone()),
            });
        }
        if let Some((gid, gty)) = self.global_ids.get(name).cloned() {
            let addr = ctx.b.assign(IrType::Ptr, IrExpr::GlobalAddr(gid));
            return Ok(match &gty {
                CType::Array(elem, _) => (addr, CType::Ptr(elem.clone())),
                CType::Struct(_) => (addr, gty),
                ty => {
                    let v = ctx.b.load(self.mem_ty(ty)?, addr, 0);
                    (v, ty.clone())
                }
            });
        }
        if let Some((fid, sig)) = self.func_sigs.get(name).cloned() {
            // Function designator decays to a function pointer.
            let v = ctx.b.assign(IrType::Ptr, IrExpr::FuncAddr(fid));
            return Ok((v, CType::FuncPtr(Box::new(sig))));
        }
        if self.declared_externs.contains_key(name)
            || self.extern_ids.contains_key(name)
            || KNOWN_EXTERNS.iter().any(|(n, _, _)| *n == name)
        {
            // Host imports have no table slot, so they cannot decay to a
            // callable function pointer — only direct calls work.
            return Err(CompileError::new(
                line,
                format!(
                    "host function `{name}` cannot be used as a value \
                     (function pointers to host imports are not supported)"
                ),
            ));
        }
        Err(CompileError::new(
            line,
            format!("unknown identifier `{name}`"),
        ))
    }

    /// Usual arithmetic conversions: double > long > int.
    fn common_type(a: &CType, b: &CType) -> CType {
        if *a == CType::Double || *b == CType::Double {
            CType::Double
        } else if *a == CType::Long || *b == CType::Long {
            CType::Long
        } else {
            CType::Int
        }
    }

    #[allow(clippy::too_many_lines)]
    fn binary(
        &mut self,
        ctx: &mut FnCtx,
        op: BinOpKind,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<(Operand, CType), CompileError> {
        let (lv, lty) = self.expr(ctx, lhs)?;
        let (rv, rty) = self.expr(ctx, rhs)?;
        // Pointer arithmetic.
        if let CType::Ptr(pointee) = &lty {
            match op {
                BinOpKind::Add | BinOpKind::Sub if rty.is_integer() => {
                    let idx = if op == BinOpKind::Sub {
                        let ity = self.ir_type(&rty);
                        ctx.b.unop(UnOp::Neg, ity, rv)
                    } else {
                        rv
                    };
                    let scale = self.size_of(pointee);
                    let addr = ctx.b.assign(
                        IrType::Ptr,
                        IrExpr::Gep {
                            base: lv,
                            index: idx,
                            scale,
                            offset: 0,
                        },
                    );
                    return Ok((addr, lty.clone()));
                }
                BinOpKind::Sub if rty.is_pointer() => {
                    let scale = self.size_of(pointee);
                    let diff = ctx.b.binop(BinOp::Sub, IrType::I64, lv, rv);
                    let count = ctx.b.binop(
                        BinOp::DivS,
                        IrType::I64,
                        diff,
                        Operand::ConstI64(scale as i64),
                    );
                    return Ok((count, CType::Long));
                }
                BinOpKind::Eq
                | BinOpKind::Ne
                | BinOpKind::Lt
                | BinOpKind::Le
                | BinOpKind::Gt
                | BinOpKind::Ge => {
                    let irop = int_cmp_op(op, false);
                    let v = ctx.b.binop(irop, IrType::Ptr, lv, rv);
                    return Ok((v, CType::Int));
                }
                _ => return Err(CompileError::new(line, "invalid pointer arithmetic")),
            }
        }
        if rty.is_pointer() && lty.is_integer() && op == BinOpKind::Add {
            // int + ptr
            return self.binary(ctx, op, rhs, lhs, line);
        }
        if rty.is_pointer() || lty.is_pointer() {
            // Remaining pointer cases: comparisons handled above for ptr
            // lhs; handle ptr rhs comparisons.
            if matches!(
                op,
                BinOpKind::Eq
                    | BinOpKind::Ne
                    | BinOpKind::Lt
                    | BinOpKind::Le
                    | BinOpKind::Gt
                    | BinOpKind::Ge
            ) {
                let irop = int_cmp_op(op, false);
                let v = ctx.b.binop(irop, IrType::Ptr, lv, rv);
                return Ok((v, CType::Int));
            }
            return Err(CompileError::new(line, "invalid pointer arithmetic"));
        }

        let common = Self::common_type(&lty, &rty);
        let lv = self.convert(ctx, lv, &lty, &common, line)?;
        let rv = self.convert(ctx, rv, &rty, &common, line)?;
        let ir_ty = self.ir_type(&common);
        let (irop, result_ty) = match op {
            BinOpKind::Add => (BinOp::Add, common.clone()),
            BinOpKind::Sub => (BinOp::Sub, common.clone()),
            BinOpKind::Mul => (BinOp::Mul, common.clone()),
            BinOpKind::Div => (BinOp::DivS, common.clone()),
            BinOpKind::Rem => {
                if common == CType::Double {
                    return Err(CompileError::new(line, "% needs integer operands"));
                }
                (BinOp::RemS, common.clone())
            }
            BinOpKind::And => (BinOp::And, common.clone()),
            BinOpKind::Or => (BinOp::Or, common.clone()),
            BinOpKind::Xor => (BinOp::Xor, common.clone()),
            BinOpKind::Shl => (BinOp::Shl, common.clone()),
            BinOpKind::Shr => (BinOp::ShrS, common.clone()),
            cmp => (int_cmp_op(cmp, common == CType::Double), CType::Int),
        };
        let v = ctx.b.binop(irop, ir_ty, lv, rv);
        Ok((v, result_ty))
    }

    fn logical(
        &mut self,
        ctx: &mut FnCtx,
        lhs: &Expr,
        rhs: &Expr,
        is_and: bool,
    ) -> Result<(Operand, CType), CompileError> {
        let (lv, lty) = self.expr(ctx, lhs)?;
        let lcond = self.truthiness(ctx, lv, &lty);
        let result = ctx.b.fresh(IrType::I32);

        // Evaluate rhs only when needed.
        ctx.b.push_block();
        let (rv, rty) = self.expr(ctx, rhs)?;
        let rcond = self.truthiness(ctx, rv, &rty);
        ctx.b.reassign(result, IrExpr::Use(rcond));
        let eval_rhs = ctx.b.pop_block();

        ctx.b.push_block();
        ctx.b
            .reassign(result, IrExpr::Use(Operand::ConstI32(i32::from(!is_and))));
        let short = ctx.b.pop_block();

        let (then, els) = if is_and {
            (eval_rhs, short)
        } else {
            (short, eval_rhs)
        };
        ctx.b.stmt(IrStmt::If {
            cond: lcond,
            then,
            els,
        });
        Ok((Operand::Value(result), CType::Int))
    }

    fn assign(
        &mut self,
        ctx: &mut FnCtx,
        op: Option<BinOpKind>,
        lhs: &Expr,
        rhs: &Expr,
        line: u32,
    ) -> Result<(Operand, CType), CompileError> {
        let value = match op {
            None => {
                let (rv, rty) = self.expr(ctx, rhs)?;
                let lv = self.lvalue(ctx, lhs)?;
                let target_ty = lv.ctype().clone();
                let rv = self.convert(ctx, rv, &rty, &target_ty, line)?;
                self.store_lvalue(ctx, &lv, rv)?;
                (rv, target_ty)
            }
            Some(op) => {
                // Desugar `a op= b` to `a = a op b` through the AST so
                // pointer arithmetic and conversions are shared. The lhs is
                // evaluated twice, which is fine for the supported lvalues.
                let combined = Expr::new(
                    ExprKind::Bin(op, Box::new(lhs.clone()), Box::new(rhs.clone())),
                    line,
                );
                let (rv, rty) = self.expr(ctx, &combined)?;
                let lv = self.lvalue(ctx, lhs)?;
                let target_ty = lv.ctype().clone();
                let rv = self.convert(ctx, rv, &rty, &target_ty, line)?;
                self.store_lvalue(ctx, &lv, rv)?;
                (rv, target_ty)
            }
        };
        Ok(value)
    }

    fn unary(
        &mut self,
        ctx: &mut FnCtx,
        op: UnOpKind,
        inner: &Expr,
        line: u32,
    ) -> Result<(Operand, CType), CompileError> {
        match op {
            UnOpKind::Neg => {
                let (v, ty) = self.expr(ctx, inner)?;
                let ty = if ty == CType::Char { CType::Int } else { ty };
                let r = ctx.b.unop(UnOp::Neg, self.ir_type(&ty), v);
                Ok((r, ty))
            }
            UnOpKind::Not => {
                let (v, ty) = self.expr(ctx, inner)?;
                let c = self.truthiness(ctx, v, &ty);
                let r = ctx.b.unop(UnOp::Not, IrType::I32, c);
                Ok((r, CType::Int))
            }
            UnOpKind::BitNot => {
                let (v, ty) = self.expr(ctx, inner)?;
                let ty = if ty == CType::Char { CType::Int } else { ty };
                let r = ctx.b.unop(UnOp::BitNot, self.ir_type(&ty), v);
                Ok((r, ty))
            }
            UnOpKind::Deref => {
                let (v, ty) = self.expr(ctx, inner)?;
                match ty {
                    CType::Ptr(pointee) => match *pointee {
                        // Deref to array: the address is the value.
                        CType::Array(ref elem, _) => Ok((v, CType::Ptr(elem.clone()))),
                        CType::Struct(_) => Ok((v, (*pointee).clone())),
                        ref p => {
                            let r = ctx.b.load(self.mem_ty(p)?, v, 0);
                            Ok((r, p.clone()))
                        }
                    },
                    // Deref of a function pointer is the function itself.
                    CType::FuncPtr(_) => Ok((v, ty)),
                    _ => Err(CompileError::new(line, "cannot dereference non-pointer")),
                }
            }
            UnOpKind::AddrOf => {
                let lv = self.lvalue(ctx, inner)?;
                match lv {
                    LV::Mem(addr, offset, ty) => {
                        let addr = if offset != 0 {
                            ctx.b.assign(
                                IrType::Ptr,
                                IrExpr::Gep {
                                    base: addr,
                                    index: Operand::ConstI64(0),
                                    scale: 1,
                                    offset,
                                },
                            )
                        } else {
                            addr
                        };
                        Ok((addr, ty.ptr_to()))
                    }
                    LV::Reg(..) => Err(CompileError::new(
                        line,
                        "internal: address-taken variable not in memory",
                    )),
                }
            }
        }
    }

    fn incdec(
        &mut self,
        ctx: &mut FnCtx,
        inc: bool,
        inner: &Expr,
        pre: bool,
        line: u32,
    ) -> Result<(Operand, CType), CompileError> {
        let lv = self.lvalue(ctx, inner)?;
        let ty = lv.ctype().clone();
        let (old, _) = { self.load_lvalue(ctx, self.copy_lv(&lv))? };
        let step: i64 = if inc { 1 } else { -1 };
        let ir_ty = self.ir_type(&ty);
        let new = match &ty {
            CType::Ptr(p) => {
                let scale = self.size_of(p);
                ctx.b.assign(
                    IrType::Ptr,
                    IrExpr::Gep {
                        base: old,
                        index: Operand::ConstI64(step),
                        scale,
                        offset: 0,
                    },
                )
            }
            _ => match ir_ty {
                IrType::F64 => {
                    ctx.b
                        .binop(BinOp::Add, IrType::F64, old, Operand::ConstF64(step as f64))
                }
                IrType::I32 => {
                    ctx.b
                        .binop(BinOp::Add, IrType::I32, old, Operand::ConstI32(step as i32))
                }
                _ => ctx.b.binop(BinOp::Add, ir_ty, old, Operand::ConstI64(step)),
            },
        };
        self.store_lvalue(ctx, &lv, new)?;
        let _ = line;
        Ok((if pre { new } else { old }, ty))
    }

    fn copy_lv(&self, lv: &LV) -> LV {
        match lv {
            LV::Reg(v, t) => LV::Reg(*v, t.clone()),
            LV::Mem(a, o, t) => LV::Mem(*a, *o, t.clone()),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn call(
        &mut self,
        ctx: &mut FnCtx,
        callee: &Expr,
        args: &[Expr],
        line: u32,
    ) -> Result<(Operand, CType), CompileError> {
        // Builtins first.
        if let ExprKind::Ident(name) = &callee.kind {
            if let Some(result) = self.builtin_call(ctx, name, args, line)? {
                return Ok(result);
            }
            // Direct call to a user function (not shadowed by a local).
            if ctx.lookup(name).is_none() {
                if let Some((fid, sig)) = self.func_sigs.get(name).cloned() {
                    let vals = self.call_args(ctx, &sig, args, line)?;
                    return Ok(self.emit_call(ctx, Callee::Local(fid), &sig, vals));
                }
                if let Some((eid, sig)) = self.extern_id(name) {
                    let vals = self.call_args(ctx, &sig, args, line)?;
                    return Ok(self.emit_call(ctx, Callee::Extern(eid), &sig, vals));
                }
            }
        }
        // Indirect call through a function-pointer expression.
        let (fv, fty) = self.expr(ctx, callee)?;
        let CType::FuncPtr(sig) = fty else {
            return Err(CompileError::new(line, "call of non-function"));
        };
        let vals = self.call_args(ctx, &sig, args, line)?;
        let params: Vec<IrType> = sig.params.iter().map(|t| self.ir_type(t)).collect();
        let ret = match sig.ret {
            CType::Void => None,
            ref t => Some(self.ir_type(t)),
        };
        if ret.is_none() {
            ctx.b.stmt(IrStmt::Perform(IrExpr::CallIndirect {
                target: fv,
                params,
                ret,
                args: vals,
            }));
            Ok((Operand::ConstI32(0), CType::Void))
        } else {
            let r = ctx.b.assign(
                self.ir_type(&sig.ret),
                IrExpr::CallIndirect {
                    target: fv,
                    params,
                    ret,
                    args: vals,
                },
            );
            Ok((r, sig.ret.clone()))
        }
    }

    fn call_args(
        &mut self,
        ctx: &mut FnCtx,
        sig: &FuncSig,
        args: &[Expr],
        line: u32,
    ) -> Result<Vec<Operand>, CompileError> {
        if args.len() != sig.params.len() {
            return Err(CompileError::new(
                line,
                format!(
                    "expected {} arguments, found {}",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        let mut vals = Vec::with_capacity(args.len());
        for (arg, pty) in args.iter().zip(&sig.params) {
            let (v, vty) = self.expr(ctx, arg)?;
            vals.push(self.convert(ctx, v, &vty, pty, line)?);
        }
        Ok(vals)
    }

    fn emit_call(
        &mut self,
        ctx: &mut FnCtx,
        callee: Callee,
        sig: &FuncSig,
        args: Vec<Operand>,
    ) -> (Operand, CType) {
        if sig.ret == CType::Void {
            ctx.b.stmt(IrStmt::Perform(IrExpr::Call { callee, args }));
            (Operand::ConstI32(0), CType::Void)
        } else {
            let r = ctx
                .b
                .assign(self.ir_type(&sig.ret), IrExpr::Call { callee, args });
            (r, sig.ret.clone())
        }
    }

    /// The paper's C-visible Cage primitives (§4.1).
    fn builtin_call(
        &mut self,
        ctx: &mut FnCtx,
        name: &str,
        args: &[Expr],
        line: u32,
    ) -> Result<Option<(Operand, CType)>, CompileError> {
        let arity: usize = match name {
            "__builtin_segment_new" | "__builtin_segment_free" => 2,
            "__builtin_segment_set_tag" => 3,
            "__builtin_pointer_sign"
            | "__builtin_pointer_auth"
            | "__builtin_sqrt"
            | "__builtin_fabs" => 1,
            _ => return Ok(None),
        };
        if args.len() != arity {
            return Err(CompileError::new(
                line,
                format!("`{name}` expects {arity} argument(s), got {}", args.len()),
            ));
        }
        let result = match name {
            "__builtin_segment_new" => {
                let (p, _) = self.expr(ctx, &args[0])?;
                let (l, lty) = self.expr(ctx, &args[1])?;
                let l = self.convert(ctx, l, &lty, &CType::Long, line)?;
                let r = ctx
                    .b
                    .assign(IrType::Ptr, IrExpr::SegmentNew { addr: p, len: l });
                Some((r, CType::Char.ptr_to()))
            }
            "__builtin_segment_free" => {
                let (p, _) = self.expr(ctx, &args[0])?;
                let (l, lty) = self.expr(ctx, &args[1])?;
                let l = self.convert(ctx, l, &lty, &CType::Long, line)?;
                ctx.b.stmt(IrStmt::SegmentFree { ptr: p, len: l });
                Some((Operand::ConstI32(0), CType::Void))
            }
            "__builtin_segment_set_tag" => {
                let (p, _) = self.expr(ctx, &args[0])?;
                let (t, _) = self.expr(ctx, &args[1])?;
                let (l, lty) = self.expr(ctx, &args[2])?;
                let l = self.convert(ctx, l, &lty, &CType::Long, line)?;
                ctx.b.stmt(IrStmt::SegmentSetTag {
                    addr: p,
                    tagged: t,
                    len: l,
                });
                Some((Operand::ConstI32(0), CType::Void))
            }
            "__builtin_pointer_sign" => {
                let (p, pty) = self.expr(ctx, &args[0])?;
                let r = ctx.b.assign(IrType::Ptr, IrExpr::PointerSign(p));
                Some((r, pty))
            }
            "__builtin_sqrt" => {
                let (v, vty) = self.expr(ctx, &args[0])?;
                let v = self.convert(ctx, v, &vty, &CType::Double, line)?;
                let r = ctx.b.unop(UnOp::Sqrt, IrType::F64, v);
                Some((r, CType::Double))
            }
            "__builtin_fabs" => {
                let (v, vty) = self.expr(ctx, &args[0])?;
                let v = self.convert(ctx, v, &vty, &CType::Double, line)?;
                let r = ctx.b.unop(UnOp::Fabs, IrType::F64, v);
                Some((r, CType::Double))
            }
            "__builtin_pointer_auth" => {
                let (p, pty) = self.expr(ctx, &args[0])?;
                let r = ctx.b.assign(IrType::Ptr, IrExpr::PointerAuth(p));
                Some((r, pty))
            }
            _ => None,
        };
        Ok(result)
    }

    // -- lvalues ----------------------------------------------------------------

    fn lvalue(&mut self, ctx: &mut FnCtx, e: &Expr) -> Result<LV, CompileError> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(binding) = ctx.lookup(name).cloned() {
                    return Ok(match binding.storage {
                        Storage::Reg(v) => LV::Reg(v, binding.ty),
                        Storage::Slot(slot) => {
                            let addr = ctx.b.alloca_addr(slot);
                            LV::Mem(addr, 0, binding.ty)
                        }
                    });
                }
                if let Some((gid, gty)) = self.global_ids.get(name).cloned() {
                    let addr = ctx.b.assign(IrType::Ptr, IrExpr::GlobalAddr(gid));
                    return Ok(LV::Mem(addr, 0, gty));
                }
                Err(CompileError::new(
                    e.line,
                    format!("unknown identifier `{name}`"),
                ))
            }
            ExprKind::Un(UnOpKind::Deref, inner) => {
                let (v, ty) = self.expr(ctx, inner)?;
                match ty {
                    CType::Ptr(p) => Ok(LV::Mem(v, 0, (*p).clone())),
                    _ => Err(CompileError::new(
                        e.line,
                        "cannot assign through non-pointer",
                    )),
                }
            }
            ExprKind::Index(base, idx) => self.index_lvalue(ctx, base, idx, e.line),
            ExprKind::Member(base, field) => self.member_lvalue(ctx, base, field, false, e.line),
            ExprKind::Arrow(base, field) => self.member_lvalue(ctx, base, field, true, e.line),
            _ => Err(CompileError::new(e.line, "expression is not assignable")),
        }
    }

    fn index_lvalue(
        &mut self,
        ctx: &mut FnCtx,
        base: &Expr,
        idx: &Expr,
        line: u32,
    ) -> Result<LV, CompileError> {
        let (bv, bty) = self.expr(ctx, base)?;
        let elem = bty
            .element()
            .cloned()
            .ok_or_else(|| CompileError::new(line, "indexing a non-array"))?;
        let (iv, ity) = self.expr(ctx, idx)?;
        if !ity.is_integer() {
            return Err(CompileError::new(line, "array index must be an integer"));
        }
        // The index stays in its own width; the lowering coerces it to the
        // target pointer width (an i32 index is free on wasm32 and costs
        // one extend on wasm64, as with real codegen).
        let scale = self.size_of(&elem);
        let addr = ctx.b.assign(
            IrType::Ptr,
            IrExpr::Gep {
                base: bv,
                index: iv,
                scale,
                offset: 0,
            },
        );
        Ok(LV::Mem(addr, 0, elem))
    }

    fn member_lvalue(
        &mut self,
        ctx: &mut FnCtx,
        base: &Expr,
        field: &str,
        through_ptr: bool,
        line: u32,
    ) -> Result<LV, CompileError> {
        let (bv, bty) = self.expr(ctx, base)?;
        let sid = match (&bty, through_ptr) {
            (CType::Struct(id), false) => *id,
            (CType::Ptr(p), true) => match p.as_ref() {
                CType::Struct(id) => *id,
                _ => return Err(CompileError::new(line, "-> on non-struct pointer")),
            },
            _ => return Err(CompileError::new(line, "member access on non-struct")),
        };
        let (offset, fty) = self
            .structs()
            .field(sid, field, self.ptr_bytes)
            .ok_or_else(|| CompileError::new(line, format!("no field `{field}`")))?;
        Ok(LV::Mem(bv, offset, fty))
    }

    /// Loads an lvalue's current value (arrays decay, structs stay
    /// addresses).
    fn load_lvalue(&mut self, ctx: &mut FnCtx, lv: LV) -> Result<(Operand, CType), CompileError> {
        Ok(match lv {
            LV::Reg(v, ty) => (Operand::Value(v), ty),
            LV::Mem(addr, offset, ty) => match &ty {
                CType::Array(elem, _) => {
                    let addr = self.addr_with_offset(ctx, addr, offset);
                    (addr, CType::Ptr(elem.clone()))
                }
                CType::Struct(_) => {
                    let addr = self.addr_with_offset(ctx, addr, offset);
                    (addr, ty)
                }
                scalar => {
                    let v = ctx.b.load(self.mem_ty(scalar)?, addr, offset);
                    (v, ty)
                }
            },
        })
    }

    fn addr_with_offset(&mut self, ctx: &mut FnCtx, addr: Operand, offset: u64) -> Operand {
        if offset == 0 {
            return addr;
        }
        ctx.b.assign(
            IrType::Ptr,
            IrExpr::Gep {
                base: addr,
                index: Operand::ConstI64(0),
                scale: 1,
                offset,
            },
        )
    }

    fn store_lvalue(
        &mut self,
        ctx: &mut FnCtx,
        lv: &LV,
        value: Operand,
    ) -> Result<(), CompileError> {
        match lv {
            LV::Reg(v, _) => ctx.b.reassign(*v, IrExpr::Use(value)),
            LV::Mem(addr, offset, ty) => {
                ctx.b.store(self.mem_ty(ty)?, *addr, *offset, value);
            }
        }
        Ok(())
    }

    // -- conversions -------------------------------------------------------------

    fn convert(
        &mut self,
        ctx: &mut FnCtx,
        v: Operand,
        from: &CType,
        to: &CType,
        line: u32,
    ) -> Result<Operand, CompileError> {
        use CastKind::*;
        if from == to {
            return Ok(v);
        }
        let cast =
            |ctx: &mut FnCtx, kind, v, ty| ctx.b.assign(ty, IrExpr::Cast { kind, operand: v });
        Ok(match (from, to) {
            // Integer widenings/narrowings (char and int share i32).
            (CType::Char, CType::Int) | (CType::Int, CType::Char) => v,
            (CType::Char | CType::Int, CType::Long) => cast(ctx, I32ToI64S, v, IrType::I64),
            (CType::Long, CType::Int | CType::Char) => cast(ctx, I64ToI32, v, IrType::I32),
            // Int <-> double.
            (CType::Char | CType::Int, CType::Double) => cast(ctx, I32ToF64S, v, IrType::F64),
            (CType::Long, CType::Double) => cast(ctx, I64ToF64S, v, IrType::F64),
            (CType::Double, CType::Char | CType::Int) => cast(ctx, F64ToI32S, v, IrType::I32),
            (CType::Double, CType::Long) => cast(ctx, F64ToI64S, v, IrType::I64),
            // Pointer conversions are representation-preserving.
            (a, b) if a.is_pointer() && b.is_pointer() => v,
            // `long` is 64 bits under either pointer width: a 4-byte
            // pointer is zero-extended into it and truncated out of it.
            (a, CType::Long) if a.is_pointer() => {
                if self.ptr_bytes == 8 {
                    cast(ctx, PtrToInt, v, IrType::I64)
                } else {
                    let int = cast(ctx, PtrToInt, v, IrType::I32);
                    cast(ctx, I32ToI64U, int, IrType::I64)
                }
            }
            (CType::Long, b) if b.is_pointer() => {
                let narrow = if self.ptr_bytes == 8 {
                    v
                } else {
                    cast(ctx, I64ToI32, v, IrType::I32)
                };
                cast(ctx, IntToPtr, narrow, IrType::Ptr)
            }
            (CType::Char | CType::Int, b) if b.is_pointer() => {
                let wide = if self.ptr_bytes == 8 {
                    cast(ctx, I32ToI64S, v, IrType::I64)
                } else {
                    v
                };
                cast(ctx, IntToPtr, wide, IrType::Ptr)
            }
            (a, CType::Int) if a.is_pointer() => {
                if self.ptr_bytes == 8 {
                    let long = cast(ctx, PtrToInt, v, IrType::I64);
                    cast(ctx, I64ToI32, long, IrType::I32)
                } else {
                    cast(ctx, PtrToInt, v, IrType::I32)
                }
            }
            // Array decays happen before conversion; anything else is an
            // error.
            _ => {
                return Err(CompileError::new(
                    line,
                    format!("cannot convert {from} to {to}"),
                ))
            }
        })
    }
}

fn int_cmp_op(op: BinOpKind, is_float: bool) -> BinOp {
    // Signed comparisons; the float lowering maps LtS -> F64Lt etc.
    let _ = is_float;
    match op {
        BinOpKind::Eq => BinOp::Eq,
        BinOpKind::Ne => BinOp::Ne,
        BinOpKind::Lt => BinOp::LtS,
        BinOpKind::Le => BinOp::LeS,
        BinOpKind::Gt => BinOp::GtS,
        BinOpKind::Ge => BinOp::GeS,
        other => panic!("not a comparison: {other:?}"),
    }
}

/// Collects identifiers whose address is taken (they need stack slots).
fn collect_addr_taken(body: &[Stmt], out: &mut HashSet<String>) {
    fn walk_expr(e: &Expr, out: &mut HashSet<String>) {
        match &e.kind {
            ExprKind::Un(UnOpKind::AddrOf, inner) => {
                // &x, &arr[i], &s.f — the root identifier needs a slot.
                let mut root = inner.as_ref();
                loop {
                    match &root.kind {
                        ExprKind::Index(b, i) => {
                            walk_expr(i, out);
                            root = b;
                        }
                        ExprKind::Member(b, _) => root = b,
                        _ => break,
                    }
                }
                if let ExprKind::Ident(name) = &root.kind {
                    out.insert(name.clone());
                }
                walk_expr(inner, out);
            }
            ExprKind::Bin(_, a, b)
            | ExprKind::LogAnd(a, b)
            | ExprKind::LogOr(a, b)
            | ExprKind::Index(a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            ExprKind::Assign(_, a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            ExprKind::Un(_, a)
            | ExprKind::PreIncDec(_, a)
            | ExprKind::PostIncDec(_, a)
            | ExprKind::Member(a, _)
            | ExprKind::Arrow(a, _)
            | ExprKind::Cast(_, a) => walk_expr(a, out),
            ExprKind::Call(f, args) => {
                walk_expr(f, out);
                args.iter().for_each(|a| walk_expr(a, out));
            }
            _ => {}
        }
    }
    for stmt in body {
        match stmt {
            Stmt::Decl {
                init, brace_init, ..
            } => {
                if let Some(e) = init {
                    walk_expr(e, out);
                }
                if let Some(items) = brace_init {
                    items.iter().for_each(|(_, e)| walk_expr(e, out));
                }
            }
            Stmt::Expr(e) => walk_expr(e, out),
            Stmt::If { cond, then, els } => {
                walk_expr(cond, out);
                collect_addr_taken(then, out);
                collect_addr_taken(els, out);
            }
            Stmt::While { cond, body } => {
                walk_expr(cond, out);
                collect_addr_taken(body, out);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(s) = init {
                    collect_addr_taken(std::slice::from_ref(s), out);
                }
                if let Some(c) = cond {
                    walk_expr(c, out);
                }
                if let Some(s) = step {
                    walk_expr(s, out);
                }
                collect_addr_taken(body, out);
            }
            Stmt::Return(Some(e), _) => walk_expr(e, out),
            Stmt::Block(stmts) => collect_addr_taken(stmts, out),
            _ => {}
        }
    }
}

/// Desugars a `for` body: `continue` becomes `{ step; continue; }` (without
/// descending into nested loops) and the step is appended at the end.
fn desugar_for_body(body: &[Stmt], step: Option<&Expr>) -> Vec<Stmt> {
    fn rewrite(stmts: &[Stmt], step: &Expr) -> Vec<Stmt> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Continue(line) => {
                    Stmt::Block(vec![Stmt::Expr(step.clone()), Stmt::Continue(*line)])
                }
                Stmt::If { cond, then, els } => Stmt::If {
                    cond: cond.clone(),
                    then: rewrite(then, step),
                    els: rewrite(els, step),
                },
                Stmt::Block(inner) => Stmt::Block(rewrite(inner, step)),
                // Nested loops own their continues.
                other => other.clone(),
            })
            .collect()
    }
    let mut out = match step {
        Some(step) => rewrite(body, step),
        None => body.to_vec(),
    };
    if let Some(step) = step {
        out.push(Stmt::Expr(step.clone()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn compile(src: &str) -> IrModule {
        compile_ast(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn compiles_arithmetic_function() {
        let m = compile("long add(long a, long b) { return a + b; }");
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].params, vec![IrType::I64, IrType::I64]);
        assert_eq!(m.functions[0].ret, Some(IrType::I64));
    }

    #[test]
    fn scalars_use_registers_arrays_use_slots() {
        let m = compile("long f() { long x = 1; long a[4]; a[0] = x; return a[0]; }");
        assert_eq!(
            m.functions[0].allocas.len(),
            1,
            "only the array gets a slot"
        );
        assert_eq!(m.functions[0].allocas[0].size, 32);
    }

    #[test]
    fn address_taken_scalars_get_slots() {
        let m = compile("void g(long* p); long f() { long x = 1; g(&x); return x; }");
        let f = m.functions.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.allocas.len(), 1);
    }

    #[test]
    fn malloc_becomes_cage_libc_extern() {
        let m = compile("char* f() { return malloc(32); }");
        assert_eq!(m.externs.len(), 1);
        assert_eq!(m.externs[0].module, "cage_libc");
        assert_eq!(m.externs[0].name, "malloc");
    }

    #[test]
    fn builtins_emit_segment_instructions() {
        let m = compile(
            "char* f(char* p) { char* t = __builtin_segment_new(p, 32); __builtin_segment_free(t, 32); return t; }",
        );
        let mut saw_new = false;
        let mut saw_free = false;
        cage_ir::instr::visit_stmts(&m.functions[0].body, &mut |s| {
            if let cage_ir::Stmt::Assign { expr, .. } = s {
                if matches!(expr, IrExpr::SegmentNew { .. }) {
                    saw_new = true;
                }
            }
            if matches!(s, cage_ir::Stmt::SegmentFree { .. }) {
                saw_free = true;
            }
        });
        assert!(saw_new && saw_free);
    }

    #[test]
    fn string_literals_become_globals() {
        let m = compile("char* f() { return \"hello\"; }");
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.globals[0].bytes, b"hello\0");
    }

    #[test]
    fn struct_member_access_compiles() {
        let m = compile(
            "struct P { long x; long y; };\n\
             long f() { struct P p; p.x = 3; p.y = 4; return p.x + p.y; }",
        );
        assert_eq!(m.functions[0].allocas[0].size, 16);
    }

    #[test]
    fn type_error_unknown_identifier() {
        let err = compile_ast(&parse("long f() { return ghost; }").unwrap()).unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn type_error_bad_conversion() {
        let err = compile_ast(
            &parse("struct S { int a; }; double f() { struct S s; return s; }").unwrap(),
        )
        .unwrap_err();
        assert!(err.message.contains("convert"), "{err}");
    }

    #[test]
    fn wrong_arity_rejected() {
        let err =
            compile_ast(&parse("long g(long a) { return a; } long f() { return g(); }").unwrap())
                .unwrap_err();
        assert!(err.message.contains("argument"));
    }

    #[test]
    fn ptr_width_changes_sizeof() {
        let prog = parse("long f() { return sizeof(char*); }").unwrap();
        let m64 = compile_ast_for(&prog, 8).unwrap();
        let m32 = compile_ast_for(&prog, 4).unwrap();
        // The constant 8 vs 4 appears in the return.
        let find_consts = |m: &IrModule| {
            let mut found = Vec::new();
            cage_ir::instr::visit_stmts(&m.functions[0].body, &mut |s| {
                if let cage_ir::Stmt::Return(Some(Operand::ConstI64(v))) = s {
                    found.push(*v);
                }
            });
            found
        };
        assert!(find_consts(&m64).contains(&8));
        assert!(find_consts(&m32).contains(&4));
    }
}
