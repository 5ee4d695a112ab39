//! Dead-code elimination: removes assignments to registers that are never
//! read, when the right-hand side has no side effects.
//!
//! A pure assignment is dead when no surviving statement reads its
//! destination, and removing it may kill the assignments that fed it, so
//! the answer is a least fixpoint. It is computed once, on tables indexed
//! by the dense [`ValueId`]s, instead of by rescanning the function until
//! a scan removes nothing (which made a chain of `n` dead definitions
//! cost `n` scans):
//!
//! 1. one walk counts, per register, the operand positions that read it
//!    and notes which registers a pure assignment writes (`Register`);
//!    if every such register is read, nothing is dead and the pass is done;
//! 2. otherwise a second walk threads every pure assignment onto a list
//!    headed at its destination (`head` / `next`), its register operands
//!    kept in one flat array;
//! 3. a worklist starts from the assigned registers nobody reads; taking
//!    a register off it retires every pure assignment to that register,
//!    which un-counts their operands, which may put those on the list;
//! 4. one sweep drops the pure assignments whose destination ended with
//!    no reader.
//!
//! Each register enters the worklist at most once and each assignment is
//! retired at most once, so the work is linear in the statements. An
//! assignment that reads its own destination (`i = i + 1` with `i`
//! otherwise unused) counts as a reader of it and stays, as does a cycle
//! of assignments that only feed each other: exactly what the rescanning
//! version left behind (`passes_model.rs` keeps it, and a seeded stream
//! compares the two body for body).

use crate::instr::{Expr, Stmt};
use crate::module::{value_slot, IrFunction, ValueId};
use crate::passes::add_work;

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

fn is_pure_assign(stmt: &Stmt) -> Option<(ValueId, &Expr)> {
    match stmt {
        Stmt::Assign { dst, expr } if !has_side_effects(expr) => Some((*dst, expr)),
        _ => None,
    }
}

/// What the first walk learns about a register.
#[derive(Debug, Clone, Copy, Default)]
struct Register {
    /// Operand positions, in statements not yet retired, that read it.
    reads: u32,
    /// Some pure assignment writes it.
    pure_dst: bool,
}

impl Register {
    fn is_dead(self) -> bool {
        self.reads == 0 && self.pure_dst
    }
}

/// Drops the pure assignments to dead registers.
fn sweep(body: &mut Vec<Stmt>, registers: &[Register], work: &mut u64) {
    *work += body.len() as u64;
    body.retain_mut(|stmt| {
        match stmt {
            Stmt::If { then, els, .. } => {
                sweep(then, registers, work);
                sweep(els, registers, work);
            }
            Stmt::While { header, body, .. } => {
                sweep(header, registers, work);
                sweep(body, registers, work);
            }
            _ => {}
        }
        is_pure_assign(stmt).is_none_or(|(dst, _)| !registers[dst.0 as usize].is_dead())
    });
}

/// Runs DCE over `func`, to the same fixpoint a rescan-until-stable would
/// reach.
pub fn run(func: &mut IrFunction) {
    let mut registers = vec![Register::default(); func.value_types.len()];
    let mut work = 0u64;
    crate::instr::visit_stmts(&func.body, &mut |stmt| {
        work += 1;
        stmt.for_each_operand(&mut |op| {
            if let Some(v) = op.as_value() {
                value_slot(&mut registers, v).reads += 1;
            }
        });
        if let Some((dst, _)) = is_pure_assign(stmt) {
            value_slot(&mut registers, dst).pure_dst = true;
        }
    });
    let mut dead: Vec<u32> = (0..registers.len() as u32)
        .filter(|&v| registers[v as usize].is_dead())
        .collect();
    if dead.is_empty() {
        // Nothing is dead — the common case, and the cheap one.
        add_work(work);
        return;
    }

    // Something is: thread the pure assignments onto per-register lists
    // (`head` is the latest one to a register, `next` the one before it),
    // their register operands in one flat array.
    let mut head: Vec<Option<u32>> = vec![None; registers.len()];
    let mut next: Vec<Option<u32>> = Vec::new();
    let mut start: Vec<u32> = Vec::new();
    let mut operands: Vec<ValueId> = Vec::new();
    crate::instr::visit_stmts(&func.body, &mut |stmt| {
        work += 1;
        if let Some((dst, expr)) = is_pure_assign(stmt) {
            let this = next.len() as u32;
            next.push(head[dst.0 as usize].replace(this));
            start.push(operands.len() as u32);
            expr.for_each_operand(&mut |op| operands.extend(op.as_value()));
        }
    });
    start.push(operands.len() as u32);

    while let Some(v) = dead.pop() {
        let mut link = head[v as usize];
        while let Some(k) = link {
            let k = k as usize;
            work += 1;
            for read in &operands[start[k] as usize..start[k + 1] as usize] {
                let register = &mut registers[read.0 as usize];
                register.reads -= 1;
                if register.is_dead() {
                    dead.push(read.0);
                }
            }
            link = next[k];
        }
    }
    sweep(&mut func.body, &registers, &mut work);
    add_work(work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, Callee, Operand};
    use crate::types::IrType;

    #[test]
    fn removes_unused_pure_assignments_transitively() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        let dead1 = b.binop(BinOp::Add, IrType::I64, b.param(0), Operand::ConstI64(1));
        let _dead2 = b.binop(BinOp::Mul, IrType::I64, dead1, Operand::ConstI64(2));
        b.stmt(Stmt::Return(Some(b.param(0))));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.body.len(), 1, "both dead chains removed");
    }

    #[test]
    fn keeps_used_assignments() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        let v = b.binop(BinOp::Add, IrType::I64, b.param(0), Operand::ConstI64(1));
        b.stmt(Stmt::Return(Some(v)));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn keeps_side_effecting_assignments() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let _unused = b.assign(
            IrType::I64,
            Expr::Call {
                callee: Callee::Extern(0),
                args: vec![],
            },
        );
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.body.len(), 1, "call kept for its effects");
    }

    #[test]
    fn sweeps_nested_bodies() {
        let mut b = FunctionBuilder::new("f", &[IrType::I32], None);
        b.push_block();
        let _dead = b.binop(
            BinOp::Add,
            IrType::I32,
            Operand::ConstI32(1),
            Operand::ConstI32(2),
        );
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(0),
            then,
            els: vec![],
        });
        let mut f = b.finish();
        run(&mut f);
        match &f.body[0] {
            Stmt::If { then, .. } => assert!(then.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn self_uses_and_dead_cycles_stay_dead_chains_go() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        // i = 0; while (1) { i = i + 1 }: nobody else reads i, but the
        // increment does, so both assignments stay.
        let i = b.copy(IrType::I64, Operand::ConstI64(0));
        b.push_block();
        b.reassign(
            i,
            Expr::BinOp {
                op: BinOp::Add,
                ty: IrType::I64,
                lhs: Operand::Value(i),
                rhs: Operand::ConstI64(1),
            },
        );
        let body = b.pop_block();
        b.stmt(Stmt::While {
            header: vec![],
            cond: b.param(0),
            body,
        });
        // p = q + 1; q = p + 1: a cycle that only feeds itself stays too.
        let q = b.fresh(IrType::I64);
        let p = b.binop(
            BinOp::Add,
            IrType::I64,
            Operand::Value(q),
            Operand::ConstI64(1),
        );
        b.reassign(
            q,
            Expr::BinOp {
                op: BinOp::Add,
                ty: IrType::I64,
                lhs: p,
                rhs: Operand::ConstI64(1),
            },
        );
        // d2 = d1 + 1 = (d0 + 1) + 1, all unread: the whole chain goes,
        // and with it the only reader of `kept`... which has another.
        let kept = b.copy(IrType::I64, b.param(0));
        let d0 = b.binop(
            BinOp::Add,
            IrType::I64,
            Operand::Value(kept),
            Operand::ConstI64(1),
        );
        let d1 = b.binop(BinOp::Add, IrType::I64, d0, Operand::ConstI64(1));
        let _d2 = b.binop(BinOp::Add, IrType::I64, d1, Operand::ConstI64(1));
        b.stmt(Stmt::Return(Some(Operand::Value(kept))));
        let mut f = b.finish();
        run(&mut f);
        let mut assigned = Vec::new();
        crate::instr::visit_stmts(&f.body, &mut |s| {
            if let Stmt::Assign { dst, .. } = s {
                assigned.push(*dst);
            }
        });
        let p = p.as_value().unwrap();
        assert_eq!(assigned, vec![i, i, p, q, kept], "{:#?}", f.body);
    }

    #[test]
    fn registers_past_the_type_table_are_counted_not_indexed() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let ghost = ValueId(40);
        b.reassign(ghost, Expr::Use(Operand::ConstI64(1)));
        b.reassign(ValueId(41), Expr::Use(Operand::Value(ghost)));
        b.stmt(Stmt::Return(Some(Operand::Value(ValueId(77)))));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(
            f.body,
            vec![Stmt::Return(Some(Operand::Value(ValueId(77))))]
        );
    }
}
