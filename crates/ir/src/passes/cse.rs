//! Local common-subexpression elimination (value numbering) with
//! constant/copy propagation.
//!
//! The IR's registers are reassignable, so availability is tracked with
//! a *version* counter per register: every `Assign` bumps the
//! destination's version, and a table entry (keyed on the operator plus
//! its operands' versions) is only a hit while both its operands and
//! its defining register still carry the versions recorded when the
//! entry was made. That makes staleness checks purely local — no
//! dataflow analysis over the structured CFG is needed.
//!
//! Scoping: entries created inside an `If` arm are discarded when the
//! arm ends (the arm may not execute), while version bumps persist
//! globally (a conditional reassignment must kill outer entries).
//! Loops conservatively bump every register assigned anywhere in the
//! loop before the loop is scanned, so entries from before the loop
//! cannot survive into an iteration that sees different values; within
//! one scan, an entry created at a statement is only ever used by
//! statements that execute later in the *same* iteration, which the
//! linear scan models exactly.
//!
//! Only pure, non-memory expressions are numbered (`BinOp`, `UnOp`,
//! `Cast`, `Gep`, `AllocaAddr`, `GlobalAddr`, `FuncAddr`). Trapping
//! arithmetic (`div`/`rem`, trunc casts) is still eligible: a repeated
//! expression has identical operands, so if the second occurrence
//! would trap, the first already did and the second is unreachable.
//! Loads are left to the store-to-load forwarding pass.
//!
//! Constant propagation never substitutes into `Ptr`-typed registers:
//! pointer-width constants lower differently from pointer-typed
//! registers on 32-bit targets, so those stay in registers.

use std::collections::BTreeMap;

use super::Versions;
use crate::instr::{BinOp, CastKind, Expr, Operand, Stmt, UnOp};
use crate::module::{AllocaId, FuncId, GlobalId, IrFunction, ValueId};
use crate::types::IrType;

/// Operand identity at a point in time: register *at a version*, or a
/// constant by bits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum OpKey {
    Val(ValueId, u32),
    C32(i32),
    C64(i64),
    F64(u64),
}

/// Identity of a pure expression.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ExprKey {
    Bin(BinOp, IrType, OpKey, OpKey),
    Un(UnOp, IrType, OpKey),
    Cast(CastKind, OpKey),
    Gep(OpKey, OpKey, u64, u64),
    Alloca(AllocaId),
    Global(GlobalId),
    Func(FuncId),
}

/// What a register was last assigned, for propagation into later uses.
#[derive(Clone, Copy)]
enum PropVal {
    Const(Operand),
    Copy(ValueId, u32),
}

type Table = BTreeMap<ExprKey, (ValueId, u32)>;
type Prop = BTreeMap<ValueId, (u32, PropVal)>;

struct Cse<'a> {
    versions: Versions,
    value_types: &'a [IrType],
}

/// Runs local value numbering with constant/copy propagation over `func`.
pub fn run(func: &mut IrFunction) {
    let mut body = std::mem::take(&mut func.body);
    let mut cse = Cse {
        versions: Versions::new(func.value_types.len()),
        value_types: &func.value_types,
    };
    cse.walk(&mut body, &mut Table::new(), &mut Prop::new());
    func.body = body;
}

impl Cse<'_> {
    fn value_type(&self, v: ValueId) -> Option<IrType> {
        self.value_types.get(v.0 as usize).copied()
    }

    /// Replaces a register use with its propagated constant or copy
    /// source, when the recorded versions still hold.
    fn subst(&self, op: &mut Operand, prop: &Prop) {
        if let Operand::Value(v) = op {
            if let Some((dst_ver, pv)) = prop.get(v) {
                if self.versions.of(*v) == *dst_ver {
                    match pv {
                        PropVal::Const(c) => *op = *c,
                        PropVal::Copy(src, src_ver) => {
                            if self.versions.of(*src) == *src_ver {
                                *op = Operand::Value(*src);
                            }
                        }
                    }
                }
            }
        }
    }

    fn subst_expr(&self, expr: &mut Expr, prop: &Prop) {
        match expr {
            Expr::Use(op)
            | Expr::PointerSign(op)
            | Expr::PointerAuth(op)
            | Expr::UnOp { operand: op, .. }
            | Expr::Cast { operand: op, .. }
            | Expr::Load { addr: op, .. } => self.subst(op, prop),
            Expr::BinOp { lhs, rhs, .. } => {
                self.subst(lhs, prop);
                self.subst(rhs, prop);
            }
            Expr::Gep { base, index, .. } => {
                self.subst(base, prop);
                self.subst(index, prop);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    self.subst(a, prop);
                }
            }
            Expr::CallIndirect { target, args, .. } => {
                self.subst(target, prop);
                for a in args {
                    self.subst(a, prop);
                }
            }
            Expr::SegmentNew { addr, len } => {
                self.subst(addr, prop);
                self.subst(len, prop);
            }
            Expr::TagIncrement { prev, addr } => {
                self.subst(prev, prop);
                self.subst(addr, prop);
            }
            Expr::AllocaAddr(_) | Expr::GlobalAddr(_) | Expr::FuncAddr(_) => {}
        }
    }

    fn op_key(&self, op: &Operand) -> OpKey {
        match op {
            Operand::Value(v) => OpKey::Val(*v, self.versions.of(*v)),
            Operand::ConstI32(c) => OpKey::C32(*c),
            Operand::ConstI64(c) => OpKey::C64(*c),
            Operand::ConstF64(c) => OpKey::F64(c.to_bits()),
        }
    }

    fn expr_key(&self, expr: &Expr) -> Option<ExprKey> {
        Some(match expr {
            Expr::BinOp { op, ty, lhs, rhs } => {
                ExprKey::Bin(*op, *ty, self.op_key(lhs), self.op_key(rhs))
            }
            Expr::UnOp { op, ty, operand } => ExprKey::Un(*op, *ty, self.op_key(operand)),
            Expr::Cast { kind, operand } => ExprKey::Cast(*kind, self.op_key(operand)),
            Expr::Gep {
                base,
                index,
                scale,
                offset,
            } => ExprKey::Gep(self.op_key(base), self.op_key(index), *scale, *offset),
            Expr::AllocaAddr(a) => ExprKey::Alloca(*a),
            Expr::GlobalAddr(g) => ExprKey::Global(*g),
            Expr::FuncAddr(f) => ExprKey::Func(*f),
            _ => return None,
        })
    }

    fn walk(&mut self, stmts: &mut [Stmt], table: &mut Table, prop: &mut Prop) {
        for stmt in stmts.iter_mut() {
            match stmt {
                Stmt::Assign { dst, expr } => {
                    self.subst_expr(expr, prop);
                    let key = self.expr_key(expr);
                    if let Some(key) = key {
                        if let Some((prev, prev_ver)) = table.get(&key) {
                            if self.versions.of(*prev) == *prev_ver && prev != dst {
                                *expr = Expr::Use(Operand::Value(*prev));
                            }
                        }
                    }
                    self.versions.bump(*dst);
                    if let Some(key) = key {
                        table.insert(key, (*dst, self.versions.of(*dst)));
                    }
                    let rec = match expr {
                        Expr::Use(c @ (Operand::ConstI32(_) | Operand::ConstI64(_)))
                            if self.value_type(*dst) != Some(IrType::Ptr) =>
                        {
                            Some(PropVal::Const(*c))
                        }
                        Expr::Use(c @ Operand::ConstF64(_)) => Some(PropVal::Const(*c)),
                        Expr::Use(Operand::Value(src)) => {
                            Some(PropVal::Copy(*src, self.versions.of(*src)))
                        }
                        _ => None,
                    };
                    match rec {
                        Some(pv) => {
                            prop.insert(*dst, (self.versions.of(*dst), pv));
                        }
                        None => {
                            prop.remove(dst);
                        }
                    }
                }
                Stmt::Perform(expr) => self.subst_expr(expr, prop),
                Stmt::Store { addr, value, .. } => {
                    self.subst(addr, prop);
                    self.subst(value, prop);
                }
                Stmt::If { cond, then, els } => {
                    self.subst(cond, prop);
                    let mut t = table.clone();
                    let mut p = prop.clone();
                    self.walk(then, &mut t, &mut p);
                    let mut t = table.clone();
                    let mut p = prop.clone();
                    self.walk(els, &mut t, &mut p);
                }
                Stmt::While { header, cond, body } => {
                    // Every register assigned anywhere in the loop may
                    // change between iterations; kill entries that
                    // mention them before scanning the loop once.
                    self.versions.bump_all_assigned(header);
                    self.versions.bump_all_assigned(body);
                    let mut t = table.clone();
                    let mut p = prop.clone();
                    self.walk(header, &mut t, &mut p);
                    // The condition is evaluated right after the header
                    // each iteration, so the header's state applies.
                    self.subst(cond, &p);
                    self.walk(body, &mut t, &mut p);
                }
                Stmt::Return(Some(op)) => self.subst(op, prop),
                Stmt::SegmentSetTag { addr, tagged, len } => {
                    self.subst(addr, prop);
                    self.subst(tagged, prop);
                    self.subst(len, prop);
                }
                Stmt::SegmentFree { ptr, len } => {
                    self.subst(ptr, prop);
                    self.subst(len, prop);
                }
                Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn dedupes_repeated_pure_expressions() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        let x = b.binop(BinOp::Add, IrType::I64, b.param(0), Operand::ConstI64(1));
        let y = b.binop(BinOp::Add, IrType::I64, b.param(0), Operand::ConstI64(1));
        let s = b.binop(BinOp::Add, IrType::I64, x, y);
        b.stmt(Stmt::Return(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        // Second add must have become a copy of the first.
        let Stmt::Assign { expr, .. } = &f.body[1] else {
            panic!("expected assign");
        };
        assert_eq!(expr, &Expr::Use(x));
    }

    #[test]
    fn reassignment_kills_entries() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        let x = b.binop(BinOp::Add, IrType::I64, b.param(0), Operand::ConstI64(1));
        // Reassign the *operand* register (the parameter).
        let Operand::Value(p) = b.param(0) else {
            panic!("param is a register");
        };
        b.reassign(p, Expr::Use(Operand::ConstI64(7)));
        let y = b.binop(BinOp::Add, IrType::I64, b.param(0), Operand::ConstI64(1));
        let s = b.binop(BinOp::Add, IrType::I64, x, y);
        b.stmt(Stmt::Return(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        // y must NOT be rewritten to a copy of x: p changed in between.
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::BinOp { .. }),
            "stale entry must not hit: {expr:?}"
        );
    }

    #[test]
    fn entries_from_if_arms_do_not_escape() {
        let mut b = FunctionBuilder::new("f", &[IrType::I32], Some(IrType::I64));
        b.push_block();
        let _t = b.binop(
            BinOp::Add,
            IrType::I64,
            Operand::ConstI64(4),
            Operand::ConstI64(5),
        );
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(0),
            then,
            els: vec![],
        });
        let y = b.binop(
            BinOp::Add,
            IrType::I64,
            Operand::ConstI64(4),
            Operand::ConstI64(5),
        );
        b.stmt(Stmt::Return(Some(y)));
        let mut f = b.finish();
        run(&mut f);
        // The add after the If must stay a real add — the arm's entry
        // is conditional.
        let Stmt::Assign { expr, .. } = &f.body[1] else {
            panic!("expected assign");
        };
        assert!(matches!(expr, Expr::BinOp { .. }), "{expr:?}");
    }

    #[test]
    fn conditional_reassignment_kills_outer_entry() {
        let mut b = FunctionBuilder::new("f", &[IrType::I32, IrType::I64], Some(IrType::I64));
        let x = b.binop(BinOp::Add, IrType::I64, b.param(1), Operand::ConstI64(1));
        let Operand::Value(p) = b.param(1) else {
            panic!("param is a register");
        };
        b.push_block();
        b.reassign(p, Expr::Use(Operand::ConstI64(9)));
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(0),
            then,
            els: vec![],
        });
        let y = b.binop(BinOp::Add, IrType::I64, b.param(1), Operand::ConstI64(1));
        let s = b.binop(BinOp::Add, IrType::I64, x, y);
        b.stmt(Stmt::Return(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::BinOp { .. }),
            "conditionally-stale entry must not hit: {expr:?}"
        );
    }

    #[test]
    fn loop_carried_values_are_not_reused_across_iterations() {
        // i = 0; while (i < 10) { t = i * 2; i = i + 1 }
        // The `i * 2` inside the loop must not be replaced by an entry
        // created before the loop from the same (stale) version of i.
        let mut b = FunctionBuilder::new("f", &[], Some(IrType::I64));
        let i = b.assign(IrType::I64, Expr::Use(Operand::ConstI64(0)));
        let Operand::Value(iv) = i else {
            panic!("register");
        };
        let before = b.binop(BinOp::Mul, IrType::I64, i, Operand::ConstI64(2));
        b.push_block();
        let c = b.binop(BinOp::LtS, IrType::I64, i, Operand::ConstI64(10));
        let header = b.pop_block();
        b.push_block();
        let _t = b.binop(BinOp::Mul, IrType::I64, i, Operand::ConstI64(2));
        let next = b.binop(BinOp::Add, IrType::I64, i, Operand::ConstI64(1));
        b.reassign(iv, Expr::Use(next));
        let body = b.pop_block();
        b.stmt(Stmt::While {
            header,
            cond: c,
            body,
        });
        b.stmt(Stmt::Return(Some(before)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::While { body, .. } = &f.body[2] else {
            panic!("expected while");
        };
        let Stmt::Assign { expr, .. } = &body[0] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::BinOp { .. }),
            "loop-varying expr must stay: {expr:?}"
        );
    }

    #[test]
    fn propagates_constants_and_copies() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        let p0 = b.param(0);
        let c = b.assign(IrType::I64, Expr::Use(Operand::ConstI64(5)));
        let cp = Operand::Value(b.copy(IrType::I64, p0));
        let s = b.binop(BinOp::Add, IrType::I64, c, cp);
        b.stmt(Stmt::Return(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert_eq!(
            expr,
            &Expr::BinOp {
                op: BinOp::Add,
                ty: IrType::I64,
                lhs: Operand::ConstI64(5),
                rhs: p0,
            }
        );
    }

    #[test]
    fn propagates_const_into_if_condition() {
        let mut b = FunctionBuilder::new("f", &[], Some(IrType::I64));
        let c = b.assign(IrType::I32, Expr::Use(Operand::ConstI32(0)));
        b.stmt(Stmt::If {
            cond: c,
            then: vec![],
            els: vec![],
        });
        b.stmt(Stmt::Return(Some(Operand::ConstI64(1))));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::If { cond, .. } = &f.body[1] else {
            panic!("expected if");
        };
        assert_eq!(cond, &Operand::ConstI32(0));
    }
}
