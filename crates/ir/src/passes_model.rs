//! Reference models of the IR passes that now run on dense tables,
//! and the seeded generator that holds the production code to them.
//!
//! The models are the implementations as they were before the tables:
//! `dce` rebuilding a `HashSet` of every use and rescanning until
//! nothing is removed, the alloca analysis keeping a
//! `BTreeMap<ValueId, BTreeSet<AllocaId>>` and iterating the whole body
//! to a fixpoint, Algorithm 1's rewrite finding registers by linear
//! search and `Vec::insert`-ing the untag statements one by one,
//! `mem2reg` on four hash containers, `ptr_auth` moving every statement
//! of the module into a rebuilt body. Each is the old code verbatim —
//! with one change: `mem2reg`'s promotion loop walks the slots in
//! ascending `AllocaId` instead of in `RandomState` order, which is the
//! determinism fix the production pass makes too. They exist only so
//! that [`crate::passes::dce`], [`crate::analysis`],
//! [`crate::passes::stack_safety`], [`crate::passes::mem2reg`] and
//! [`crate::passes::ptr_auth`] have
//! something obviously correct to be compared against — statement for
//! statement and value id for value id, because wasm local indices (and
//! the bytecode digests behind them) depend on the exact numbering.

// The models keep the old code verbatim, its std hash containers
// included; none of them is ever iterated where order could leak out.
#![allow(clippy::disallowed_types)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instr::{BinOp, Callee, CastKind, Expr, MemTy, Operand, Stmt, UnOp};
use crate::module::{Alloca, AllocaId, FuncId, GlobalId, IrFunction, IrModule, ValueId};
use crate::types::IrType;

// -- dce as it was ----------------------------------------------------------

mod dce_model {
    use std::collections::HashSet;

    use crate::instr::{Expr, Operand, Stmt};
    use crate::module::{IrFunction, ValueId};

    fn collect_operand(uses: &mut HashSet<ValueId>, op: &Operand) {
        if let Some(v) = op.as_value() {
            uses.insert(v);
        }
    }

    fn collect_expr_uses(uses: &mut HashSet<ValueId>, expr: &Expr) {
        match expr {
            Expr::Use(op)
            | Expr::PointerSign(op)
            | Expr::PointerAuth(op)
            | Expr::UnOp { operand: op, .. }
            | Expr::Cast { operand: op, .. } => collect_operand(uses, op),
            Expr::BinOp { lhs, rhs, .. } => {
                collect_operand(uses, lhs);
                collect_operand(uses, rhs);
            }
            Expr::Load { addr, .. } => collect_operand(uses, addr),
            Expr::Gep { base, index, .. } => {
                collect_operand(uses, base);
                collect_operand(uses, index);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| collect_operand(uses, a)),
            Expr::CallIndirect { target, args, .. } => {
                collect_operand(uses, target);
                args.iter().for_each(|a| collect_operand(uses, a));
            }
            Expr::SegmentNew { addr, len } => {
                collect_operand(uses, addr);
                collect_operand(uses, len);
            }
            Expr::TagIncrement { prev, addr } => {
                collect_operand(uses, prev);
                collect_operand(uses, addr);
            }
            Expr::AllocaAddr(_) | Expr::GlobalAddr(_) | Expr::FuncAddr(_) => {}
        }
    }

    fn collect_uses(body: &[Stmt], uses: &mut HashSet<ValueId>) {
        crate::instr::visit_stmts(body, &mut |stmt| match stmt {
            Stmt::Assign { expr, .. } | Stmt::Perform(expr) => collect_expr_uses(uses, expr),
            Stmt::Store { addr, value, .. } => {
                collect_operand(uses, addr);
                collect_operand(uses, value);
            }
            Stmt::If { cond, .. } => collect_operand(uses, cond),
            Stmt::While { cond, .. } => collect_operand(uses, cond),
            Stmt::Return(Some(op)) => collect_operand(uses, op),
            Stmt::SegmentSetTag { addr, tagged, len } => {
                collect_operand(uses, addr);
                collect_operand(uses, tagged);
                collect_operand(uses, len);
            }
            Stmt::SegmentFree { ptr, len } => {
                collect_operand(uses, ptr);
                collect_operand(uses, len);
            }
            _ => {}
        });
    }

    fn has_side_effects(expr: &Expr) -> bool {
        matches!(
            expr,
            Expr::Call { .. }
                | Expr::CallIndirect { .. }
                | Expr::SegmentNew { .. }
                // Authentication traps on invalid signatures: removing it
                // would change behaviour.
                | Expr::PointerAuth(_)
                // Loads can trap (OOB, tag mismatch) — keep them.
                | Expr::Load { .. }
        )
    }

    fn sweep(body: &mut Vec<Stmt>, uses: &HashSet<ValueId>) -> bool {
        let mut removed = false;
        body.retain(|stmt| match stmt {
            Stmt::Assign { dst, expr } if !uses.contains(dst) && !has_side_effects(expr) => {
                removed = true;
                false
            }
            _ => true,
        });
        for stmt in body.iter_mut() {
            match stmt {
                Stmt::If { then, els, .. } => {
                    removed |= sweep(then, uses);
                    removed |= sweep(els, uses);
                }
                Stmt::While { header, body, .. } => {
                    removed |= sweep(header, uses);
                    removed |= sweep(body, uses);
                }
                _ => {}
            }
        }
        removed
    }

    /// Runs DCE to a fixpoint over `func`.
    pub fn run(func: &mut IrFunction) {
        loop {
            let mut uses = HashSet::new();
            collect_uses(&func.body, &mut uses);
            if !sweep(&mut func.body, &uses) {
                break;
            }
        }
    }
}

// -- the alloca analysis as it was ------------------------------------------

mod analysis_model {
    use std::collections::{BTreeMap, BTreeSet};

    use crate::analysis::AllocaAnalysis;
    use crate::instr::{Expr, Operand, Stmt};
    use crate::module::{AllocaId, IrFunction, ValueId};

    type Derived = BTreeMap<ValueId, BTreeSet<AllocaId>>;

    fn operand_derived(derived: &Derived, op: &Operand) -> BTreeSet<AllocaId> {
        match op.as_value() {
            Some(v) => derived.get(&v).cloned().unwrap_or_default(),
            None => BTreeSet::new(),
        }
    }

    /// Runs the alloca analyses on `func`.
    #[must_use]
    pub fn analyze_allocas(func: &IrFunction) -> AllocaAnalysis {
        let n = func.allocas.len();
        let mut escapes = vec![false; n];
        let mut unsafe_gep = vec![false; n];
        let mut derived: Derived = BTreeMap::new();

        // Fixpoint: register reassignment and loops can propagate pointer
        // derivations in either direction.
        loop {
            let mut changed = false;
            crate::instr::visit_stmts(&func.body, &mut |stmt| {
                if let Stmt::Assign { dst, expr } = stmt {
                    let new: BTreeSet<AllocaId> = match expr {
                        Expr::AllocaAddr(id) => std::iter::once(*id).collect(),
                        Expr::Use(op) | Expr::PointerSign(op) | Expr::PointerAuth(op) => {
                            operand_derived(&derived, op)
                        }
                        Expr::Cast { operand, .. } | Expr::UnOp { operand, .. } => {
                            operand_derived(&derived, operand)
                        }
                        Expr::BinOp { lhs, rhs, .. } => {
                            let mut s = operand_derived(&derived, lhs);
                            s.extend(operand_derived(&derived, rhs));
                            s
                        }
                        Expr::Gep { base, .. } => operand_derived(&derived, base),
                        Expr::SegmentNew { addr, .. } | Expr::TagIncrement { addr, .. } => {
                            operand_derived(&derived, addr)
                        }
                        // Loads and call results are not tracked: the flows
                        // that put an alloca pointer behind them already
                        // marked the alloca as escaping.
                        Expr::Load { .. }
                        | Expr::Call { .. }
                        | Expr::CallIndirect { .. }
                        | Expr::FuncAddr(_)
                        | Expr::GlobalAddr(_) => BTreeSet::new(),
                    };
                    let entry = derived.entry(*dst).or_default();
                    let before = entry.len();
                    entry.extend(new);
                    if entry.len() != before {
                        changed = true;
                    }
                }
            });
            if !changed {
                break;
            }
        }

        // Escape and unsafe-GEP detection.
        crate::instr::visit_stmts(&func.body, &mut |stmt| {
            let mut mark_escape = |op: &Operand| {
                for id in operand_derived(&derived, op) {
                    escapes[id.0 as usize] = true;
                }
            };
            match stmt {
                // Storing a derived pointer *as a value* publishes it.
                Stmt::Store { value, .. } => mark_escape(value),
                Stmt::Return(Some(op)) => mark_escape(op),
                Stmt::Assign { expr, .. } | Stmt::Perform(expr) => match expr {
                    Expr::Call { args, .. } => args.iter().for_each(&mut mark_escape),
                    Expr::CallIndirect { target, args, .. } => {
                        mark_escape(target);
                        args.iter().for_each(&mut mark_escape);
                    }
                    _ => {}
                },
                _ => {}
            }
        });

        // Unsafe GEPs and out-of-range constant accesses. Collect offending
        // allocas first to keep the borrow simple.
        let mut flagged: BTreeSet<AllocaId> = BTreeSet::new();
        fn check_access(
            func: &IrFunction,
            derived: &Derived,
            flagged: &mut BTreeSet<AllocaId>,
            addr: &Operand,
            offset: u64,
            width: u64,
        ) {
            for id in operand_derived(derived, addr) {
                let size = func.allocas[id.0 as usize].size;
                if offset + width > size {
                    flagged.insert(id);
                }
            }
        }
        crate::instr::visit_stmts(&func.body, &mut |stmt| {
            match stmt {
                Stmt::Assign { expr, .. } | Stmt::Perform(expr) => {
                    if let Expr::Gep {
                        base,
                        index,
                        scale,
                        offset,
                    } = expr
                    {
                        for id in operand_derived(&derived, base) {
                            let size = func.allocas[id.0 as usize].size;
                            match index.as_const_int() {
                                // Statically verifiable index: in range?
                                Some(k) => {
                                    let k_ok = k >= 0
                                        && (k as u64)
                                            .checked_mul(*scale)
                                            .and_then(|b| b.checked_add(*offset))
                                            .is_some_and(|end| end < size.max(1));
                                    if !k_ok {
                                        flagged.insert(id);
                                    }
                                }
                                // Dynamic index: not statically verifiable.
                                None => {
                                    flagged.insert(id);
                                }
                            }
                        }
                    }
                    if let Expr::Load { ty, addr, offset } = expr {
                        check_access(func, &derived, &mut flagged, addr, *offset, ty.width());
                    }
                }
                Stmt::Store {
                    ty, addr, offset, ..
                } => check_access(func, &derived, &mut flagged, addr, *offset, ty.width()),
                _ => {}
            }
        });
        for id in flagged {
            unsafe_gep[id.0 as usize] = true;
        }

        AllocaAnalysis {
            escapes,
            unsafe_gep,
        }
    }
}

// -- Algorithm 1's rewrite as it was ----------------------------------------

mod stack_safety_model {
    use super::analysis_model::analyze_allocas;
    use crate::instr::{Expr, Operand, Stmt};
    use crate::module::{Alloca, AllocaId, IrFunction, ValueId};
    use crate::passes::stack_safety::granule_align;
    use crate::types::IrType;

    /// Runs Algorithm 1 on `func`.
    pub fn run(func: &mut IrFunction) {
        let analysis = analyze_allocas(func);
        let to_instrument: Vec<AllocaId> = (0..func.allocas.len() as u32)
            .map(AllocaId)
            .filter(|id| analysis.needs_instrumentation(*id))
            .collect();
        if to_instrument.is_empty() {
            return;
        }
        for id in &to_instrument {
            func.allocas[id.0 as usize].instrument = true;
        }

        // insertGuardAlloc: needed when the frame starts with a tagged slot.
        if func.allocas[0].instrument {
            func.allocas.push(Alloca {
                size: 16,
                name: "__cage_guard".into(),
                instrument: false,
                is_guard: true,
            });
        }

        // Registers for the raw (frame) and tagged pointers of each slot.
        let mut raw_regs: Vec<(AllocaId, ValueId)> = Vec::new();
        let mut tagged_regs: Vec<(AllocaId, ValueId)> = Vec::new();
        for id in &to_instrument {
            raw_regs.push((*id, func.new_value(IrType::Ptr)));
            tagged_regs.push((*id, func.new_value(IrType::Ptr)));
        }
        let tagged_of = |id: AllocaId| -> ValueId {
            tagged_regs
                .iter()
                .find(|(a, _)| *a == id)
                .map(|(_, v)| *v)
                .expect("instrumented alloca has a tagged register")
        };

        // Rewrite AllocaAddr uses of instrumented slots to the tagged pointer
        // (before the prologue is spliced in, so the prologue's own
        // AllocaAddr expressions stay raw).
        let instrumented = |id: AllocaId| to_instrument.contains(&id);
        crate::instr::visit_stmts_mut(&mut func.body, &mut |stmt| {
            let rewrite = |expr: &mut Expr| {
                if let Expr::AllocaAddr(id) = expr {
                    if instrumented(*id) {
                        *expr = Expr::Use(Operand::Value(tagged_of(*id)));
                    }
                }
            };
            match stmt {
                Stmt::Assign { expr, .. } | Stmt::Perform(expr) => rewrite(expr),
                _ => {}
            }
        });

        // insertUntaggingCode: before every return and at fall-through exit.
        let untag_stmts: Vec<Stmt> = to_instrument
            .iter()
            .map(|id| {
                let raw = raw_regs
                    .iter()
                    .find(|(a, _)| *a == *id)
                    .map(|(_, v)| *v)
                    .expect("raw register");
                let size = granule_align(func.allocas[id.0 as usize].size);
                Stmt::SegmentSetTag {
                    addr: Operand::Value(raw),
                    // The untagged frame pointer carries the frame's tag.
                    tagged: Operand::Value(raw),
                    len: Operand::ConstI64(size as i64),
                }
            })
            .collect();
        insert_before_returns(&mut func.body, &untag_stmts);
        if !ends_with_return(&func.body) {
            func.body.extend(untag_stmts.iter().cloned());
        }

        // insertTaggingCode: the prologue, spliced in front. The first slot
        // draws a random tag (`segment.new`, i.e. `irg`); each subsequent slot
        // increments the previous tag by one (§4.2), guaranteeing adjacent
        // slots within the frame never share a tag.
        let mut prologue = Vec::new();
        let mut prev_tagged: Option<ValueId> = None;
        for id in &to_instrument {
            let raw = raw_regs
                .iter()
                .find(|(a, _)| *a == *id)
                .map(|(_, v)| *v)
                .expect("raw register");
            let size = granule_align(func.allocas[id.0 as usize].size);
            prologue.push(Stmt::Assign {
                dst: raw,
                expr: Expr::AllocaAddr(*id),
            });
            let tagged = tagged_of(*id);
            match prev_tagged {
                None => prologue.push(Stmt::Assign {
                    dst: tagged,
                    expr: Expr::SegmentNew {
                        addr: Operand::Value(raw),
                        len: Operand::ConstI64(size as i64),
                    },
                }),
                Some(prev) => {
                    prologue.push(Stmt::Assign {
                        dst: tagged,
                        expr: Expr::TagIncrement {
                            prev: Operand::Value(prev),
                            addr: Operand::Value(raw),
                        },
                    });
                    prologue.push(Stmt::SegmentSetTag {
                        addr: Operand::Value(raw),
                        tagged: Operand::Value(tagged),
                        len: Operand::ConstI64(size as i64),
                    });
                }
            }
            prev_tagged = Some(tagged);
        }
        prologue.append(&mut func.body);
        func.body = prologue;
    }

    fn ends_with_return(body: &[Stmt]) -> bool {
        matches!(body.last(), Some(Stmt::Return(_)))
    }

    fn insert_before_returns(body: &mut Vec<Stmt>, untag: &[Stmt]) {
        let mut i = 0;
        while i < body.len() {
            match &mut body[i] {
                Stmt::Return(_) => {
                    for (k, s) in untag.iter().cloned().enumerate() {
                        body.insert(i + k, s);
                    }
                    i += untag.len() + 1;
                }
                Stmt::If { then, els, .. } => {
                    insert_before_returns(then, untag);
                    insert_before_returns(els, untag);
                    i += 1;
                }
                Stmt::While {
                    header, body: b, ..
                } => {
                    insert_before_returns(header, untag);
                    insert_before_returns(b, untag);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
}

// -- mem2reg as it was (promotion order pinned) ------------------------------

mod mem2reg_model {
    use std::collections::{HashMap, HashSet};

    use crate::instr::{Expr, Operand, Stmt};
    use crate::module::{AllocaId, IrFunction, ValueId};

    /// Runs promotion over `func`. Promoted allocas get size 0 (the lowering
    /// skips them in frame layout).
    pub fn run(func: &mut IrFunction) {
        // 1. Which registers hold which alloca's address, and is every use of
        //    those registers a direct whole-slot load/store?
        let mut addr_regs: HashMap<ValueId, AllocaId> = HashMap::new();
        crate::instr::visit_stmts(&func.body, &mut |stmt| {
            if let Stmt::Assign {
                dst,
                expr: Expr::AllocaAddr(id),
            } = stmt
            {
                addr_regs.insert(*dst, *id);
            }
        });

        let mut disqualified: HashSet<AllocaId> = HashSet::new();
        let mut slot_ty: HashMap<AllocaId, crate::instr::MemTy> = HashMap::new();

        let is_addr = |op: &Operand, addr_regs: &HashMap<ValueId, AllocaId>| {
            op.as_value().and_then(|v| addr_regs.get(&v).copied())
        };

        crate::instr::visit_stmts(&func.body, &mut |stmt| {
            let mut check_use = |op: &Operand| {
                if let Some(id) = is_addr(op, &addr_regs) {
                    disqualified.insert(id);
                }
            };
            match stmt {
                Stmt::Assign { expr, .. } | Stmt::Perform(expr) => match expr {
                    Expr::Load { ty, addr, offset } => {
                        if let Some(id) = is_addr(addr, &addr_regs) {
                            let whole =
                                *offset == 0 && ty.width() == func.allocas[id.0 as usize].size;
                            let consistent = slot_ty.get(&id).is_none_or(|t| t == ty);
                            if !whole || !consistent {
                                disqualified.insert(id);
                            } else {
                                slot_ty.insert(id, *ty);
                            }
                        }
                    }
                    Expr::AllocaAddr(_) => {}
                    // Any other expression consuming the address disqualifies.
                    Expr::Use(op) | Expr::PointerSign(op) | Expr::PointerAuth(op) => check_use(op),
                    Expr::UnOp { operand, .. } | Expr::Cast { operand, .. } => check_use(operand),
                    Expr::BinOp { lhs, rhs, .. } => {
                        check_use(lhs);
                        check_use(rhs);
                    }
                    Expr::Gep { base, index, .. } => {
                        check_use(base);
                        check_use(index);
                    }
                    Expr::Call { args, .. } => args.iter().for_each(&mut check_use),
                    Expr::CallIndirect { target, args, .. } => {
                        check_use(target);
                        args.iter().for_each(&mut check_use);
                    }
                    Expr::SegmentNew { addr, len } => {
                        check_use(addr);
                        check_use(len);
                    }
                    Expr::TagIncrement { prev, addr } => {
                        check_use(prev);
                        check_use(addr);
                    }
                    Expr::GlobalAddr(_) | Expr::FuncAddr(_) => {}
                },
                Stmt::Store {
                    ty,
                    addr,
                    offset,
                    value,
                } => {
                    check_use(value);
                    if let Some(id) = is_addr(addr, &addr_regs) {
                        let whole = *offset == 0 && ty.width() == func.allocas[id.0 as usize].size;
                        let consistent = slot_ty.get(&id).is_none_or(|t| t == ty);
                        if !whole || !consistent {
                            disqualified.insert(id);
                        } else {
                            slot_ty.insert(id, *ty);
                        }
                    }
                }
                Stmt::Return(Some(op)) => check_use(op),
                Stmt::If { cond, .. } => check_use(cond),
                Stmt::While { cond, .. } => check_use(cond),
                Stmt::SegmentSetTag { addr, tagged, len } => {
                    check_use(addr);
                    check_use(tagged);
                    check_use(len);
                }
                Stmt::SegmentFree { ptr, len } => {
                    check_use(ptr);
                    check_use(len);
                }
                _ => {}
            }
        });

        // 2. Promote: each qualifying alloca gets a register; loads become
        //    Use, stores become Assign.
        let mut promoted: HashMap<AllocaId, ValueId> = HashMap::new();
        // The one departure from the old code: ascending `AllocaId`, not
        // `RandomState` order.
        let mut candidates: Vec<(AllocaId, crate::instr::MemTy)> =
            slot_ty.iter().map(|(&id, &ty)| (id, ty)).collect();
        candidates.sort_by_key(|(id, _)| *id);
        for (id, ty) in candidates {
            if !disqualified.contains(&id) {
                let reg = func.new_value(ty.value_type());
                promoted.insert(id, reg);
            }
        }
        if promoted.is_empty() {
            return;
        }

        let promoted_addr_regs: HashSet<ValueId> = addr_regs
            .iter()
            .filter(|(_, id)| promoted.contains_key(id))
            .map(|(v, _)| *v)
            .collect();

        crate::instr::visit_stmts_mut(&mut func.body, &mut |stmt| {
            match stmt {
                Stmt::Assign { expr, .. } => match expr {
                    Expr::Load { addr, .. } => {
                        if let Some(id) = is_addr(addr, &addr_regs) {
                            if let Some(reg) = promoted.get(&id) {
                                *expr = Expr::Use(Operand::Value(*reg));
                            }
                        }
                    }
                    // The address computation itself becomes dead; make it a
                    // trivial zero so DCE removes it.
                    Expr::AllocaAddr(id) if promoted.contains_key(id) => {
                        *expr = Expr::Use(Operand::ConstI64(0));
                    }
                    _ => {}
                },
                Stmt::Store { addr, value, .. } => {
                    if let Some(v) = addr.as_value() {
                        if promoted_addr_regs.contains(&v) {
                            let id = addr_regs[&v];
                            let reg = promoted[&id];
                            *stmt = Stmt::Assign {
                                dst: reg,
                                expr: Expr::Use(*value),
                            };
                        }
                    }
                }
                _ => {}
            }
        });

        for (id, _) in promoted {
            func.allocas[id.0 as usize].size = 0;
        }
    }
}

// -- ptr_auth as it was ------------------------------------------------------

mod ptr_auth_model {
    use crate::instr::{Expr, Operand, Stmt};
    use crate::module::{IrFunction, IrModule};
    use crate::types::IrType;

    /// Runs the pass on every function of `module`.
    pub fn run(module: &mut IrModule) {
        for func in &mut module.functions {
            run_function(func);
        }
    }

    fn run_function(func: &mut IrFunction) {
        let body = std::mem::take(&mut func.body);
        func.body = rewrite_body(func, body);
    }

    fn rewrite_body(func: &mut IrFunction, body: Vec<Stmt>) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(body.len());
        for stmt in body {
            match stmt {
                Stmt::Assign { dst, expr } => rewrite_expr(func, dst, expr, &mut out),
                Stmt::Perform(expr) => {
                    // Route through a scratch destination so indirect-call
                    // instrumentation is shared; pure Perform only wraps calls.
                    match expr {
                        Expr::CallIndirect {
                            target,
                            params,
                            ret,
                            args,
                        } => {
                            let authed = func.new_value(IrType::Ptr);
                            out.push(Stmt::Assign {
                                dst: authed,
                                expr: Expr::PointerAuth(target),
                            });
                            out.push(Stmt::Perform(Expr::CallIndirect {
                                target: Operand::Value(authed),
                                params,
                                ret,
                                args,
                            }));
                        }
                        other => out.push(Stmt::Perform(other)),
                    }
                }
                Stmt::If { cond, then, els } => out.push(Stmt::If {
                    cond,
                    then: rewrite_body(func, then),
                    els: rewrite_body(func, els),
                }),
                Stmt::While { header, cond, body } => out.push(Stmt::While {
                    header: rewrite_body(func, header),
                    cond,
                    body: rewrite_body(func, body),
                }),
                other => out.push(other),
            }
        }
        out
    }

    fn rewrite_expr(
        func: &mut IrFunction,
        dst: crate::module::ValueId,
        expr: Expr,
        out: &mut Vec<Stmt>,
    ) {
        match expr {
            // Taking a function's address: sign it at creation (§4.2 "when
            // creating function pointers, indices into the function table are
            // first zero-extended to 64 bits and then signed").
            Expr::FuncAddr(f) => {
                let raw = func.new_value(IrType::Ptr);
                out.push(Stmt::Assign {
                    dst: raw,
                    expr: Expr::FuncAddr(f),
                });
                out.push(Stmt::Assign {
                    dst,
                    expr: Expr::PointerSign(Operand::Value(raw)),
                });
            }
            // Indirect call: authenticate the pointer first.
            Expr::CallIndirect {
                target,
                params,
                ret,
                args,
            } => {
                let authed = func.new_value(IrType::Ptr);
                out.push(Stmt::Assign {
                    dst: authed,
                    expr: Expr::PointerAuth(target),
                });
                out.push(Stmt::Assign {
                    dst,
                    expr: Expr::CallIndirect {
                        target: Operand::Value(authed),
                        params,
                        ret,
                        args,
                    },
                });
            }
            other => out.push(Stmt::Assign { dst, expr: other }),
        }
    }
}

// -- the generator ----------------------------------------------------------

/// Builds the functions `difftest.rs`' IR generator takes care not to:
/// nothing here has to type-check, terminate or lower — the passes only
/// read structure, and the models read the same structure.
///
/// What it aims for: dead chains, dead cycles and self-uses (registers
/// are reassigned freely, from every nesting level); 0–80 allocas of
/// mixed sizes, a few of them "scalars" whose address registers are used
/// (almost) only for whole-slot accesses so that `mem2reg` has something
/// to promote; pointers copied, offset, cast and `Gep`ed into other
/// registers *and back into earlier ones* inside loops; every escape
/// route; constant `Gep` indices in range, at the boundary, negative and
/// overflowing, and dynamic ones; accesses at and past the slot's end;
/// early returns at every depth; and now and then a register id past
/// `value_types.len()`.
struct Gen {
    rng: StdRng,
    func: IrFunction,
    /// Address registers of the scalar allocas, with the slot's type.
    scalars: Vec<(ValueId, MemTy)>,
}

const MEM_TYS: [MemTy; 7] = [
    MemTy::I8,
    MemTy::U8,
    MemTy::I16,
    MemTy::I32,
    MemTy::I64,
    MemTy::F64,
    MemTy::Ptr,
];

impl Gen {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = vec![IrType::I64; rng.next_u64() as usize % 3];
        let mut func = IrFunction {
            name: "f".into(),
            params: params.clone(),
            ret: None,
            allocas: Vec::new(),
            value_types: params,
            body: Vec::new(),
            exported: false,
        };
        // Three shapes of frame: none, a handful, and more than any
        // word-sized shortcut could hold.
        let allocas = match rng.next_u64() % 4 {
            0 => 0,
            1 | 2 => 1 + rng.next_u64() % 8,
            _ => 60 + rng.next_u64() % 21,
        };
        for i in 0..allocas {
            let size = match rng.next_u64() % 8 {
                0 => 0,
                1 => 1,
                2 => 4,
                3 | 4 => 8,
                5 => 16,
                6 => 24,
                _ => 8 * (1 + rng.next_u64() % 40),
            };
            func.allocas.push(Alloca {
                size,
                name: format!("a{i}"),
                instrument: false,
                is_guard: false,
            });
        }
        Gen {
            rng,
            func,
            scalars: Vec::new(),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A register to read: mostly one that exists, rarely one past the
    /// type table.
    fn value(&mut self) -> ValueId {
        let known = self.func.value_types.len() as u64;
        if known == 0 || self.chance(2) {
            ValueId((known + self.below(4)) as u32)
        } else {
            // Recent registers are likelier: that is what makes chains.
            let window = if self.chance(70) { known.min(6) } else { known };
            let back = self.below(window);
            ValueId((known - 1 - back) as u32)
        }
    }

    fn operand(&mut self) -> Operand {
        match self.below(10) {
            0 => Operand::ConstI32(self.below(9) as i32 - 4),
            1 => Operand::ConstI64(self.below(64) as i64 - 8),
            2 => Operand::ConstF64(self.below(5) as f64),
            _ => Operand::Value(self.value()),
        }
    }

    /// A register to assign: fresh, an existing one (reassignment — also
    /// how pointers flow backwards and registers get assigned on several
    /// paths), or one past the type table.
    fn dst(&mut self) -> ValueId {
        match self.below(20) {
            0 => ValueId(self.func.value_types.len() as u32 + self.below(4) as u32),
            1..=6 if !self.func.value_types.is_empty() => self.value(),
            _ => self.func.new_value(IrType::I64),
        }
    }

    fn alloca(&mut self) -> Option<AllocaId> {
        let n = self.func.allocas.len() as u64;
        (n > 0).then(|| AllocaId(self.below(n) as u32))
    }

    fn offset(&mut self) -> u64 {
        match self.below(6) {
            0..=2 => 0,
            3 => 8 * self.below(6),
            4 => self.below(40),
            _ => 1 << (3 + self.below(38)),
        }
    }

    fn gep(&mut self) -> Expr {
        let index = match self.below(8) {
            0 | 1 => Operand::Value(self.value()),
            2 => Operand::ConstF64(1.0),
            3 => Operand::ConstI64(-(1 + self.below(3) as i64)),
            4 => Operand::ConstI64(i64::MAX - self.below(2) as i64),
            5 => Operand::ConstI32(self.below(6) as i32),
            _ => Operand::ConstI64(self.below(6) as i64),
        };
        let scale = match self.below(6) {
            0 => 0,
            1 => 1,
            2 => 4,
            3 | 4 => 8,
            _ => u64::MAX / 3,
        };
        let offset = if self.chance(10) {
            u64::MAX - self.below(16)
        } else {
            self.offset() % 64
        };
        Expr::Gep {
            base: self.operand(),
            index,
            scale,
            offset,
        }
    }

    fn call(&mut self) -> Expr {
        let args = (0..self.below(4)).map(|_| self.operand()).collect();
        if self.chance(50) {
            Expr::Call {
                callee: if self.chance(50) {
                    Callee::Extern(0)
                } else {
                    Callee::Local(FuncId(0))
                },
                args,
            }
        } else {
            Expr::CallIndirect {
                target: self.operand(),
                params: Vec::new(),
                ret: None,
                args,
            }
        }
    }

    fn expr(&mut self) -> Expr {
        match self.below(20) {
            0..=2 => match self.alloca() {
                Some(id) => Expr::AllocaAddr(id),
                None => Expr::GlobalAddr(GlobalId(0)),
            },
            3 | 4 => Expr::Use(self.operand()),
            5..=7 => Expr::BinOp {
                op: if self.chance(50) {
                    BinOp::Add
                } else {
                    BinOp::LtS
                },
                ty: IrType::I64,
                lhs: self.operand(),
                rhs: self.operand(),
            },
            8..=10 => self.gep(),
            11 => Expr::Cast {
                kind: if self.chance(50) {
                    CastKind::PtrToInt
                } else {
                    CastKind::IntToPtr
                },
                operand: self.operand(),
            },
            12 => Expr::UnOp {
                op: UnOp::Neg,
                ty: IrType::I64,
                operand: self.operand(),
            },
            13 | 14 => Expr::Load {
                ty: MEM_TYS[self.below(7) as usize],
                addr: self.operand(),
                offset: self.offset(),
            },
            15 => self.call(),
            16 => match self.below(4) {
                0 => Expr::PointerSign(self.operand()),
                1 => Expr::PointerAuth(self.operand()),
                2 => Expr::FuncAddr(FuncId(0)),
                _ => Expr::GlobalAddr(GlobalId(0)),
            },
            17 => Expr::SegmentNew {
                addr: self.operand(),
                len: self.operand(),
            },
            18 => Expr::TagIncrement {
                prev: self.operand(),
                addr: self.operand(),
            },
            // A self-use: `v = v + k`.
            _ => {
                let v = Operand::Value(self.value());
                Expr::BinOp {
                    op: BinOp::Add,
                    ty: IrType::I64,
                    lhs: v,
                    rhs: self.operand(),
                }
            }
        }
    }

    /// A whole-slot access to a scalar alloca through its address
    /// register — or, rarely, one that is the wrong width or offset, or
    /// some other use of the register, any of which must stop promotion.
    fn scalar_access(&mut self) -> Option<Stmt> {
        if self.scalars.is_empty() {
            return None;
        }
        let pick = self.below(self.scalars.len() as u64) as usize;
        let (addr, slot_ty) = self.scalars[pick];
        let ty = if self.chance(4) {
            MEM_TYS[self.below(7) as usize]
        } else {
            slot_ty
        };
        let offset = if self.chance(3) { 8 } else { 0 };
        let addr = Operand::Value(addr);
        Some(match self.below(12) {
            0 => Stmt::Perform(Expr::Load { ty, addr, offset }),
            1..=5 => Stmt::Assign {
                dst: self.dst(),
                expr: Expr::Load { ty, addr, offset },
            },
            6..=10 => Stmt::Store {
                ty,
                addr,
                offset,
                value: self.operand(),
            },
            _ => Stmt::Assign {
                dst: self.dst(),
                expr: Expr::Use(addr),
            },
        })
    }

    fn stmt(&mut self, depth: u32) -> Stmt {
        match self.below(40) {
            0..=17 => {
                let expr = self.expr();
                // A self-use reads the register it assigns.
                let dst = match &expr {
                    Expr::BinOp {
                        op: BinOp::Add,
                        lhs: Operand::Value(v),
                        ..
                    } if self.chance(40) => *v,
                    _ => self.dst(),
                };
                Stmt::Assign { dst, expr }
            }
            18..=23 => match self.scalar_access() {
                Some(stmt) => stmt,
                None => Stmt::Break,
            },
            24 | 25 => Stmt::Perform(if self.chance(70) {
                self.call()
            } else {
                self.expr()
            }),
            26..=29 => Stmt::Store {
                ty: MEM_TYS[self.below(7) as usize],
                addr: self.operand(),
                offset: self.offset(),
                value: self.operand(),
            },
            30 => Stmt::Return(self.chance(70).then(|| self.operand())),
            31 => Stmt::SegmentSetTag {
                addr: self.operand(),
                tagged: self.operand(),
                len: self.operand(),
            },
            32 => Stmt::SegmentFree {
                ptr: self.operand(),
                len: self.operand(),
            },
            33 => {
                if self.chance(50) {
                    Stmt::Break
                } else {
                    Stmt::Continue
                }
            }
            34..=36 if depth < 3 => Stmt::If {
                cond: self.operand(),
                then: self.block(depth + 1),
                els: self.block(depth + 1),
            },
            37..=39 if depth < 3 => Stmt::While {
                header: self.block(depth + 1),
                cond: self.operand(),
                body: self.block(depth + 1),
            },
            _ => Stmt::Assign {
                dst: self.dst(),
                expr: Expr::Use(self.operand()),
            },
        }
    }

    fn block(&mut self, depth: u32) -> Vec<Stmt> {
        let len = self.below(if depth == 0 { 30 } else { 7 });
        (0..len).map(|_| self.stmt(depth)).collect()
    }

    fn function(mut self) -> IrFunction {
        // The scalars first: an address register each, for some slots
        // two (the later `AllocaAddr` wins a register that is reused).
        let mut prologue = Vec::new();
        for i in 0..self.func.allocas.len() {
            let size = self.func.allocas[i].size;
            let Some(&ty) = MEM_TYS.iter().find(|t| t.width() == size) else {
                continue;
            };
            if self.chance(40) {
                continue;
            }
            for _ in 0..1 + self.below(5) / 4 {
                let dst = self.func.new_value(IrType::Ptr);
                self.scalars.push((dst, ty));
                prologue.push(Stmt::Assign {
                    dst,
                    expr: Expr::AllocaAddr(AllocaId(i as u32)),
                });
            }
        }
        prologue.extend(self.block(0));
        self.func.body = prologue;
        self.func
    }
}

fn generate(seed: u64) -> IrFunction {
    Gen::new(seed).function()
}

// -- production against the models ------------------------------------------

use crate::analysis::analyze_allocas;
use crate::passes::{dce, mem2reg, stack_safety};
use proptest::prelude::*;

fn both(
    input: &IrFunction,
    production: fn(&mut IrFunction),
    model: fn(&mut IrFunction),
) -> (IrFunction, IrFunction) {
    let (mut p, mut m) = (input.clone(), input.clone());
    production(&mut p);
    model(&mut m);
    (p, m)
}

/// Each pass on the raw function, then the default pipeline's order
/// (`mem2reg`, `dce`, the analysis, Algorithm 1) on what the pass before
/// it left.
fn check_seed(seed: u64) {
    let raw = generate(seed);

    let (p, m) = both(&raw, dce::run, dce_model::run);
    assert_eq!(p, m, "dce, seed {seed}");
    assert_eq!(
        analyze_allocas(&raw),
        analysis_model::analyze_allocas(&raw),
        "analysis, seed {seed}"
    );
    let (p, m) = both(&raw, stack_safety::run, stack_safety_model::run);
    assert_eq!(p, m, "stack_safety, seed {seed}");

    let (p, m) = both(&raw, mem2reg::run, mem2reg_model::run);
    assert_eq!(p, m, "mem2reg, seed {seed}");
    let (p, m) = both(&p, dce::run, dce_model::run);
    assert_eq!(p, m, "dce after mem2reg, seed {seed}");
    assert_eq!(
        analyze_allocas(&p),
        analysis_model::analyze_allocas(&p),
        "analysis after dce, seed {seed}"
    );
    let (p, m) = both(&p, stack_safety::run, stack_safety_model::run);
    assert_eq!(p, m, "stack_safety after dce, seed {seed}");

    let (mut p, mut m) = (IrModule::new(), IrModule::new());
    p.functions = vec![raw.clone(), raw.clone()];
    m.functions = p.functions.clone();
    crate::passes::ptr_auth::run(&mut p);
    ptr_auth_model::run(&mut m);
    assert_eq!(p, m, "ptr_auth, seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]
    #[test]
    fn table_passes_match_the_models(seed: u64) {
        check_seed(seed);
    }
}
