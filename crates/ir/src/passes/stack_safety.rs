//! The stack-safety sanitizer — the paper's Algorithm 1.
//!
//! For every allocation that escapes or is indexed unverifiably, the pass:
//!
//! 1. creates a segment over the (16-byte padded) slot on function entry
//!    (`insertTaggingCode`), keeping the tagged pointer in a register;
//! 2. rewrites all address-taking of the slot to use the tagged pointer;
//! 3. retags the slot back to the untagged frame on *every* function exit
//!    (`insertUntaggingCode`), restoring it to the stack frame so later
//!    frames can reuse the memory and stale pointers trap (§4.2);
//! 4. inserts an untagged guard slot at the beginning of the frame when
//!    the frame would otherwise start with a tagged slot (`insertGuard-
//!    Alloc`, Fig. 8b), so adjacent frames can never collide on a tag.
//!
//! Note on the guard condition: Algorithm 1 as printed reads
//! `allocations[0] ∉ allocsToInstrument → insertGuardAlloc()`, but the
//! prose ("inserts a single untagged stack guard slot at the beginning of
//! the frame **if no such untagged stack slot exists**") implies the
//! opposite polarity — a guard is only needed when the frame's first slot
//! *is* tagged. We implement the prose semantics.
//!
//! The rewrite is linear in the function: the analysis' verdict is
//! written to `allocas[id].instrument` and read back from there, the raw
//! and tagged registers of a slot sit in a table indexed by [`AllocaId`]
//! (handed out slot by slot in ascending id, raw then tagged — wasm local
//! indices depend on that order), and one walk both redirects the
//! address-taking and makes room for the untag sequence in front of every
//! `Return`: a body grows once, by all its untag statements, and its
//! statements slide into place from the end — each at most once — instead
//! of the tail being shifted for every statement inserted.

use crate::analysis::analyze_allocas;
use crate::instr::{Expr, Operand, Stmt};
use crate::module::{Alloca, AllocaId, IrFunction, ValueId};
use crate::passes::add_work;
use crate::types::IrType;

/// Rounds a slot size up to the 16-byte tag granule.
#[must_use]
pub fn granule_align(size: u64) -> u64 {
    size.div_ceil(16).max(1) * 16
}

/// The frame (raw) and tagged pointer registers of an instrumented slot.
#[derive(Debug, Clone, Copy)]
struct SlotRegs {
    raw: ValueId,
    tagged: ValueId,
}

/// Runs Algorithm 1 on `func`.
pub fn run(func: &mut IrFunction) {
    let analysis = analyze_allocas(func);
    // Registers for the raw (frame) and tagged pointers of each slot,
    // indexed by alloca id; `None` for the slots left alone.
    let mut regs: Vec<Option<SlotRegs>> = vec![None; func.allocas.len()];
    for (i, slot) in regs.iter_mut().enumerate() {
        if analysis.needs_instrumentation(AllocaId(i as u32)) {
            func.allocas[i].instrument = true;
            *slot = Some(SlotRegs {
                raw: func.new_value(IrType::Ptr),
                tagged: func.new_value(IrType::Ptr),
            });
        }
    }
    if regs.iter().all(Option::is_none) {
        return;
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
    let slots = || {
        regs.iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|r| (i, r)))
    };
    let len_of = |i: usize| Operand::ConstI64(granule_align(func.allocas[i].size) as i64);

    // insertUntaggingCode: before every return and at fall-through exit.
    let untag: Vec<Stmt> = slots()
        .map(|(i, r)| Stmt::SegmentSetTag {
            addr: Operand::Value(r.raw),
            // The untagged frame pointer carries the frame's tag.
            tagged: Operand::Value(r.raw),
            len: len_of(i),
        })
        .collect();

    // insertTaggingCode: the prologue, spliced in front. The first slot
    // draws a random tag (`segment.new`, i.e. `irg`); each subsequent slot
    // increments the previous tag by one (§4.2), guaranteeing adjacent
    // slots within the frame never share a tag.
    let mut prologue = Vec::new();
    let mut prev_tagged: Option<ValueId> = None;
    for (i, r) in slots() {
        prologue.push(Stmt::Assign {
            dst: r.raw,
            expr: Expr::AllocaAddr(AllocaId(i as u32)),
        });
        match prev_tagged {
            None => prologue.push(Stmt::Assign {
                dst: r.tagged,
                expr: Expr::SegmentNew {
                    addr: Operand::Value(r.raw),
                    len: len_of(i),
                },
            }),
            Some(prev) => {
                prologue.push(Stmt::Assign {
                    dst: r.tagged,
                    expr: Expr::TagIncrement {
                        prev: Operand::Value(prev),
                        addr: Operand::Value(r.raw),
                    },
                });
                prologue.push(Stmt::SegmentSetTag {
                    addr: Operand::Value(r.raw),
                    tagged: Operand::Value(r.tagged),
                    len: len_of(i),
                });
            }
        }
        prev_tagged = Some(r.tagged);
    }

    // The body: address-taking of instrumented slots goes through the
    // tagged pointer (the prologue's own `AllocaAddr`s, spliced in
    // afterwards, stay raw), and every exit untags first.
    let mut work = (prologue.len() + untag.len()) as u64;
    let mut body = std::mem::take(&mut func.body);
    instrument_body(&mut body, &regs, &untag, &mut work);
    if !matches!(body.last(), Some(Stmt::Return(_))) {
        body.extend(untag.iter().cloned());
    }
    prologue.append(&mut body);
    func.body = prologue;
    add_work(work);
}

/// Redirects `AllocaAddr` of instrumented slots to their tagged register
/// and puts `untag` in front of every `Return`, in `body` and below it.
fn instrument_body(
    body: &mut Vec<Stmt>,
    regs: &[Option<SlotRegs>],
    untag: &[Stmt],
    work: &mut u64,
) {
    *work += body.len() as u64;
    let mut returns = 0;
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::Assign { expr, .. } | Stmt::Perform(expr) => {
                if let Expr::AllocaAddr(id) = expr {
                    if let Some(Some(r)) = regs.get(id.0 as usize) {
                        *expr = Expr::Use(Operand::Value(r.tagged));
                    }
                }
            }
            Stmt::If { then, els, .. } => {
                instrument_body(then, regs, untag, work);
                instrument_body(els, regs, untag, work);
            }
            Stmt::While {
                header, body: b, ..
            } => {
                instrument_body(header, regs, untag, work);
                instrument_body(b, regs, untag, work);
            }
            Stmt::Return(_) => returns += 1,
            _ => {}
        }
    }
    // Grow the body by the untag sequences and slide the statements into
    // their final places from the end: each moves once, and the ones in
    // front of the first return — all but the last statement, usually —
    // not at all.
    let mut read = body.len();
    body.resize(read + returns * untag.len(), Stmt::Break);
    let mut write = body.len();
    while read < write {
        read -= 1;
        write -= 1;
        *work += 1;
        body.swap(read, write);
        if matches!(body[write], Stmt::Return(_)) {
            for stmt in untag.iter().rev() {
                write -= 1;
                body[write] = stmt.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{Callee, MemTy};

    fn escaping_func() -> IrFunction {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(24, "buf");
        let p = b.alloca_addr(a);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![p],
        }));
        b.stmt(Stmt::Return(None));
        b.finish()
    }

    #[test]
    fn granule_alignment() {
        assert_eq!(granule_align(1), 16);
        assert_eq!(granule_align(16), 16);
        assert_eq!(granule_align(17), 32);
        assert_eq!(granule_align(0), 16);
    }

    #[test]
    fn escaping_alloca_gets_instrumented_with_guard() {
        let mut f = escaping_func();
        run(&mut f);
        assert!(f.allocas[0].instrument);
        // Frame starts with a tagged slot -> guard inserted.
        assert!(f.allocas.iter().any(|a| a.is_guard));
        // Prologue: raw addr + segment.new.
        assert!(matches!(
            &f.body[0],
            Stmt::Assign {
                expr: Expr::AllocaAddr(_),
                ..
            }
        ));
        assert!(matches!(
            &f.body[1],
            Stmt::Assign {
                expr: Expr::SegmentNew { .. },
                ..
            }
        ));
        // Untag before the return.
        let has_untag_before_return = f.body.windows(2).any(|w| {
            matches!(&w[0], Stmt::SegmentSetTag { .. }) && matches!(&w[1], Stmt::Return(_))
        });
        assert!(has_untag_before_return, "{:#?}", f.body);
    }

    #[test]
    fn safe_allocas_left_alone() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(8, "x");
        let p = b.alloca_addr(a);
        b.store(MemTy::I64, p, 0, Operand::ConstI64(3));
        let mut f = b.finish();
        let before = f.body.clone();
        run(&mut f);
        assert_eq!(f.body, before, "no instrumentation for safe slots");
        assert!(!f.allocas[0].instrument);
        assert!(!f.allocas.iter().any(|a| a.is_guard));
    }

    #[test]
    fn no_guard_when_first_slot_untagged() {
        // First alloca is safe (acts as the untagged slot); second escapes.
        let mut b = FunctionBuilder::new("f", &[], None);
        let safe = b.alloca(16, "safe");
        let unsafe_a = b.alloca(16, "esc");
        let p_safe = b.alloca_addr(safe);
        b.store(MemTy::I64, p_safe, 0, Operand::ConstI64(0));
        let p = b.alloca_addr(unsafe_a);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![p],
        }));
        let mut f = b.finish();
        run(&mut f);
        assert!(!f.allocas[0].instrument);
        assert!(f.allocas[1].instrument);
        assert!(!f.allocas.iter().any(|a| a.is_guard));
    }

    #[test]
    fn alloca_addr_uses_are_rewritten_to_tagged_pointer() {
        let mut f = escaping_func();
        run(&mut f);
        // After the pass, the call argument must be the tagged register,
        // i.e. no AllocaAddr of an instrumented slot outside the prologue.
        let mut raw_uses_outside_prologue = 0;
        for stmt in f.body.iter().skip(2) {
            crate::instr::visit_exprs(stmt, &mut |e| {
                if matches!(e, Expr::AllocaAddr(_)) {
                    raw_uses_outside_prologue += 1;
                }
            });
        }
        assert_eq!(raw_uses_outside_prologue, 0);
    }

    #[test]
    fn fall_through_exit_gets_untag() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(16, "buf");
        let p = b.alloca_addr(a);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![p],
        }));
        // No explicit return.
        let mut f = b.finish();
        run(&mut f);
        assert!(matches!(f.body.last(), Some(Stmt::SegmentSetTag { .. })));
    }

    #[test]
    fn returns_in_branches_all_get_untags() {
        let mut b = FunctionBuilder::new("f", &[IrType::I32], Some(IrType::I32));
        let a = b.alloca(16, "buf");
        let p = b.alloca_addr(a);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![p],
        }));
        b.push_block();
        b.stmt(Stmt::Return(Some(Operand::ConstI32(1))));
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(0),
            then,
            els: vec![],
        });
        b.stmt(Stmt::Return(Some(Operand::ConstI32(0))));
        let mut f = b.finish();
        run(&mut f);
        let mut untag_count = 0;
        crate::instr::visit_stmts(&f.body, &mut |s| {
            if matches!(s, Stmt::SegmentSetTag { .. }) {
                untag_count += 1;
            }
        });
        assert_eq!(untag_count, 2, "one untag per exit path");
    }

    #[test]
    fn nested_returns_are_untagged_before_not_after() {
        // Two instrumented slots; returns in a loop body inside a branch,
        // in the loop header, and mid-body at the top level.
        let mut b = FunctionBuilder::new("f", &[IrType::I32], Some(IrType::I32));
        for name in ["x", "y"] {
            let a = b.alloca(16, name);
            let p = b.alloca_addr(a);
            b.stmt(Stmt::Perform(Expr::Call {
                callee: Callee::Extern(0),
                args: vec![p],
            }));
        }
        b.push_block();
        b.push_block();
        b.stmt(Stmt::Return(Some(Operand::ConstI32(3))));
        let header = b.pop_block();
        b.push_block();
        b.stmt(Stmt::Break);
        b.stmt(Stmt::Return(Some(Operand::ConstI32(1))));
        b.stmt(Stmt::Continue);
        let body = b.pop_block();
        b.stmt(Stmt::While {
            header,
            cond: b.param(0),
            body,
        });
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(0),
            then,
            els: vec![],
        });
        b.stmt(Stmt::Return(Some(Operand::ConstI32(2))));
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![],
        }));
        let mut f = b.finish();
        run(&mut f);

        // Every body: each `Return` directly preceded by the two untags
        // (x's, then y's), and no untag anywhere else — except the
        // fall-through exit, since the function does not end in a return.
        fn check(body: &[Stmt], fall_through: bool, returns: &mut u32) {
            let untag_len = |s: &Stmt| match s {
                Stmt::SegmentSetTag { addr, tagged, len } if addr == tagged => Some(*len),
                _ => None,
            };
            let mut expected_untags = 0;
            for (i, stmt) in body.iter().enumerate() {
                match stmt {
                    Stmt::Return(_) => {
                        *returns += 1;
                        expected_untags += 2;
                        assert!(i >= 2, "{body:#?}");
                        assert!(untag_len(&body[i - 2]).is_some(), "{body:#?}");
                        assert!(untag_len(&body[i - 1]).is_some(), "{body:#?}");
                        assert_ne!(body[i - 2], body[i - 1]);
                    }
                    Stmt::If { then, els, .. } => {
                        check(then, false, returns);
                        check(els, false, returns);
                    }
                    Stmt::While { header, body, .. } => {
                        check(header, false, returns);
                        check(body, false, returns);
                    }
                    _ => {}
                }
            }
            if fall_through {
                expected_untags += 2;
                assert!(untag_len(&body[body.len() - 1]).is_some());
            }
            let untags = body.iter().filter(|s| untag_len(s).is_some()).count();
            assert_eq!(untags, expected_untags, "{body:#?}");
        }
        let mut returns = 0;
        // Skip the prologue (raw, segment.new, raw, tag-increment, set-tag).
        check(&f.body[5..], true, &mut returns);
        assert_eq!(returns, 3);
    }
}
