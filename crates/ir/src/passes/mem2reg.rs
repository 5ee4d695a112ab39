//! A `mem2reg`-style promotion: stack slots that are only ever loaded and
//! stored directly (whole-slot, offset 0, consistent type, address never
//! taken for anything else) become plain registers.
//!
//! Running this *before* the sanitizers matters: the paper orders its
//! passes "after all LLVM optimizations. This ensures that Cage does not
//! block passes that might remove stack allocations, such as mem2reg"
//! (§6.1) — promoted slots need no tagging at all.
//!
//! Everything the pass remembers sits in tables indexed by the dense ids:
//! which alloca a register holds the address of (by [`ValueId`]), and
//! per [`AllocaId`] the access type seen so far, whether the slot is
//! disqualified, and the register it was promoted to. **Determinism comes
//! from that**: the promoted registers are handed out in ascending
//! `AllocaId`, so the same source always gets the same value ids — and
//! with them the same wasm local indices, LEB widths and module bytes.
//! (The hash maps this replaces were iterated in `RandomState` order, and
//! a function with two promotable slots compiled differently from call to
//! call.)

use crate::instr::{Expr, MemTy, Operand, Stmt};
use crate::module::{value_slot, AllocaId, IrFunction, ValueId};
use crate::passes::add_work;

/// Runs promotion over `func`. Promoted allocas get size 0 (the lowering
/// skips them in frame layout).
pub fn run(func: &mut IrFunction) {
    let slots = func.allocas.len();
    if slots == 0 {
        return;
    }
    let mut work = 0u64;

    // 1. Which registers hold which alloca's address, and is every use of
    //    those registers a direct whole-slot load/store?
    let mut addr_regs: Vec<Option<AllocaId>> = vec![None; func.value_types.len()];
    crate::instr::visit_stmts(&func.body, &mut |stmt| {
        work += 1;
        if let Stmt::Assign {
            dst,
            expr: Expr::AllocaAddr(id),
        } = stmt
        {
            *value_slot(&mut addr_regs, *dst) = Some(*id);
        }
    });
    let is_addr = |op: &Operand| {
        let v = op.as_value()?;
        *addr_regs.get(v.0 as usize)?
    };

    let mut disqualified = vec![false; slots];
    let mut slot_ty: Vec<Option<MemTy>> = vec![None; slots];
    crate::instr::visit_stmts(&func.body, &mut |stmt| {
        work += 1;
        // A direct access keeps the slot promotable while it covers the
        // whole slot and agrees with the accesses before it.
        let mut access = |ty: MemTy, addr: &Operand, offset: u64| {
            if let Some(id) = is_addr(addr) {
                let i = id.0 as usize;
                let whole = offset == 0 && ty.width() == func.allocas[i].size;
                if whole && slot_ty[i].is_none_or(|t| t == ty) {
                    slot_ty[i] = Some(ty);
                } else {
                    disqualified[i] = true;
                }
            }
        };
        match stmt {
            Stmt::Assign {
                expr: Expr::Load { ty, addr, offset },
                ..
            }
            | Stmt::Perform(Expr::Load { ty, addr, offset }) => access(*ty, addr, *offset),
            Stmt::Store {
                ty,
                addr,
                offset,
                value,
            } => {
                access(*ty, addr, *offset);
                if let Some(id) = is_addr(value) {
                    disqualified[id.0 as usize] = true;
                }
            }
            // Any other use of the address disqualifies.
            other => other.for_each_operand(&mut |op| {
                if let Some(id) = is_addr(op) {
                    disqualified[id.0 as usize] = true;
                }
            }),
        }
    });

    // 2. Promote, in ascending alloca id: each qualifying alloca gets a
    //    register; loads become Use, stores become Assign.
    let mut promoted: Vec<Option<ValueId>> = vec![None; slots];
    for (i, reg) in promoted.iter_mut().enumerate() {
        if let (Some(ty), false) = (slot_ty[i], disqualified[i]) {
            *reg = Some(func.new_value(ty.value_type()));
            func.allocas[i].size = 0;
        }
    }
    if promoted.iter().all(Option::is_none) {
        add_work(work);
        return;
    }
    let promoted_reg = |op: &Operand| is_addr(op).and_then(|id| promoted[id.0 as usize]);

    crate::instr::visit_stmts_mut(&mut func.body, &mut |stmt| {
        work += 1;
        match stmt {
            Stmt::Assign { expr, .. } => match expr {
                Expr::Load { addr, .. } => {
                    if let Some(reg) = promoted_reg(addr) {
                        *expr = Expr::Use(Operand::Value(reg));
                    }
                }
                // The address computation itself becomes dead; make it a
                // trivial zero so DCE removes it.
                Expr::AllocaAddr(id) if promoted[id.0 as usize].is_some() => {
                    *expr = Expr::Use(Operand::ConstI64(0));
                }
                _ => {}
            },
            Stmt::Store { addr, value, .. } => {
                if let Some(reg) = promoted_reg(addr) {
                    *stmt = Stmt::Assign {
                        dst: reg,
                        expr: Expr::Use(*value),
                    };
                }
            }
            _ => {}
        }
    });
    add_work(work);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Callee;
    use crate::types::IrType;

    #[test]
    fn promotes_simple_scalar_slot() {
        let mut b = FunctionBuilder::new("f", &[], Some(IrType::I64));
        let a = b.alloca(8, "x");
        let p = b.alloca_addr(a);
        b.store(MemTy::I64, p, 0, Operand::ConstI64(5));
        let v = b.load(MemTy::I64, p, 0);
        b.stmt(Stmt::Return(Some(v)));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.allocas[0].size, 0, "slot promoted away");
        let mut loads = 0;
        crate::instr::visit_stmts(&f.body, &mut |s| {
            if matches!(s, Stmt::Store { .. }) {
                loads += 1;
            }
            if let Stmt::Assign {
                expr: Expr::Load { .. },
                ..
            } = s
            {
                loads += 1;
            }
        });
        assert_eq!(loads, 0, "no memory traffic remains");
    }

    #[test]
    fn does_not_promote_escaping_slot() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(8, "x");
        let p = b.alloca_addr(a);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![p],
        }));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.allocas[0].size, 8);
    }

    #[test]
    fn does_not_promote_partial_access() {
        let mut b = FunctionBuilder::new("f", &[], Some(IrType::I32));
        let a = b.alloca(8, "x");
        let p = b.alloca_addr(a);
        // 4-byte load of an 8-byte slot: not whole-slot.
        let v = b.load(MemTy::I32, p, 0);
        b.stmt(Stmt::Return(Some(v)));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.allocas[0].size, 8);
    }

    #[test]
    fn does_not_promote_gep_addressed_slot() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], None);
        let a = b.alloca(32, "arr");
        let p = b.alloca_addr(a);
        let q = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: p,
                index: b.param(0),
                scale: 8,
                offset: 0,
            },
        );
        b.store(MemTy::I64, q, 0, Operand::ConstI64(1));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(f.allocas[0].size, 32);
    }

    #[test]
    fn promotion_order_is_ascending_alloca_id() {
        // Four promotable slots of three types, first touched in the
        // order 2, 0, 3, 1: the registers still come out by alloca id.
        let mut b = FunctionBuilder::new("f", &[], None);
        let tys = [MemTy::F64, MemTy::I32, MemTy::I64, MemTy::I8];
        let slots: Vec<_> = tys.iter().map(|ty| b.alloca(ty.width(), "s")).collect();
        let addrs: Vec<_> = slots.iter().map(|a| b.alloca_addr(*a)).collect();
        for i in [2, 0, 3, 1] {
            let _ = b.load(tys[i], addrs[i], 0);
        }
        let mut f = b.finish();
        let before = f.value_types.len();
        run(&mut f);
        assert_eq!(
            f.value_types[before..],
            [IrType::F64, IrType::I32, IrType::I64, IrType::I32]
        );
        let mut reads = Vec::new();
        crate::instr::visit_stmts(&f.body, &mut |s| {
            if let Stmt::Assign {
                expr: Expr::Use(Operand::Value(v)),
                ..
            } = s
            {
                reads.push(v.0 as usize - before);
            }
        });
        assert_eq!(reads, vec![2, 0, 3, 1]);
    }
}
