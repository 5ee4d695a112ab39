//! Store-to-load forwarding and redundant-load elimination, with a
//! conservative clobber model.
//!
//! Within a block, a load from `(addr, offset)` whose value is already
//! known — because the last memory event at that exact location was a
//! store of a known operand, or a load into a still-live register — is
//! replaced by a register copy. Knowledge is keyed on the address
//! *register at a version* (the same versioning scheme as the CSE
//! pass), so any reassignment of the address register orphans its
//! entries.
//!
//! Clobber model (what kills knowledge):
//! - any call, direct or indirect — the callee (or host function, e.g.
//!   `memset`, or anything that grows memory) may write any byte;
//! - `segment.new` / `segment.set_tag` / `segment.free` — retagging
//!   changes whether a later access *traps*, and a forwarded load must
//!   not skip a tag check that would have fired;
//! - any store whose address register differs from an entry's (unknown
//!   aliasing), or whose byte range overlaps it under the same base;
//! - for an `If`: everything, after the arms, if either arm clobbers;
//!   for a `While`: everything, before the loop, if the loop clobbers
//!   anywhere (a previous iteration runs "between" the pre-loop store
//!   and a use inside the loop).
//!
//! Trap equivalence: a forwarded load repeats an access (same address
//! bits including the pointer tag, same width, same memory tag state —
//! tag ops clobber) that already succeeded, so eliding it cannot hide
//! a bounds or tag trap. Sub-word stores are not forwarded to loads
//! (the load re-extends; the store's operand is not the loaded value);
//! sub-word load-to-load forwarding is fine (both extend identically).

use std::collections::BTreeMap;

use super::Versions;
use crate::instr::{Expr, MemTy, Operand, Stmt};
use crate::module::{IrFunction, ValueId};

/// Address identity: register at a version, or a constant address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum AddrKey {
    Val(ValueId, u32),
    C32(i32),
    C64(i64),
}

#[derive(Clone, Copy)]
struct Known {
    ty: MemTy,
    value: Operand,
    /// Version of `value`'s register when recorded (0 for constants).
    value_ver: u32,
}

type Table = BTreeMap<(AddrKey, u64), Known>;

struct Fwd {
    versions: Versions,
}

/// Runs store-to-load forwarding over `func`.
pub fn run(func: &mut IrFunction) {
    let mut fwd = Fwd {
        versions: Versions::new(func.value_types.len()),
    };
    fwd.walk(&mut func.body, &mut Table::new());
}

/// Whether any statement in `body` (recursively) may write memory or
/// change tag state.
fn clobbers_memory(body: &[Stmt]) -> bool {
    let mut found = false;
    crate::instr::visit_stmts(body, &mut |stmt| match stmt {
        Stmt::Store { .. } | Stmt::SegmentSetTag { .. } | Stmt::SegmentFree { .. } => found = true,
        Stmt::Assign { expr, .. } | Stmt::Perform(expr) => {
            if matches!(
                expr,
                Expr::Call { .. } | Expr::CallIndirect { .. } | Expr::SegmentNew { .. }
            ) {
                found = true;
            }
        }
        _ => {}
    });
    found
}

/// Full-width accesses round-trip their value exactly; sub-word stores
/// do not (the load re-extends).
fn store_forwardable(ty: MemTy) -> bool {
    matches!(ty, MemTy::I32 | MemTy::I64 | MemTy::F64 | MemTy::Ptr)
}

impl Fwd {
    fn addr_key(&self, op: &Operand) -> Option<AddrKey> {
        match op {
            Operand::Value(v) => Some(AddrKey::Val(*v, self.versions.of(*v))),
            Operand::ConstI32(c) => Some(AddrKey::C32(*c)),
            Operand::ConstI64(c) => Some(AddrKey::C64(*c)),
            Operand::ConstF64(_) => None,
        }
    }

    fn value_ver(&self, op: &Operand) -> u32 {
        match op {
            Operand::Value(v) => self.versions.of(*v),
            _ => 0,
        }
    }

    /// Whether a recorded value operand still holds the recorded value.
    fn still_live(&self, k: &Known) -> bool {
        match k.value {
            Operand::Value(v) => self.versions.of(v) == k.value_ver,
            _ => true,
        }
    }

    fn walk(&mut self, stmts: &mut [Stmt], table: &mut Table) {
        for stmt in stmts.iter_mut() {
            match stmt {
                Stmt::Assign { dst, expr } => {
                    if matches!(
                        expr,
                        Expr::Call { .. } | Expr::CallIndirect { .. } | Expr::SegmentNew { .. }
                    ) {
                        table.clear();
                        self.versions.bump(*dst);
                        continue;
                    }
                    if let Expr::Load { ty, addr, offset } = expr {
                        let lty = *ty;
                        let key = self.addr_key(addr).map(|k| (k, *offset));
                        let hit = key.and_then(|k| table.get(&k).copied()).filter(|known| {
                            known.ty == lty
                                && self.still_live(known)
                                // Constants must not flow into Ptr-typed
                                // registers (pointer-width lowering).
                                && (lty != MemTy::Ptr
                                    || matches!(known.value, Operand::Value(_)))
                        });
                        if let Some(known) = hit {
                            *expr = Expr::Use(known.value);
                            self.versions.bump(*dst);
                        } else {
                            self.versions.bump(*dst);
                            if let Some(k) = key {
                                table.insert(
                                    k,
                                    Known {
                                        ty: lty,
                                        value: Operand::Value(*dst),
                                        value_ver: self.versions.of(*dst),
                                    },
                                );
                            }
                        }
                        continue;
                    }
                    self.versions.bump(*dst);
                }
                Stmt::Perform(expr) => {
                    if matches!(
                        expr,
                        Expr::Call { .. } | Expr::CallIndirect { .. } | Expr::SegmentNew { .. }
                    ) {
                        table.clear();
                    }
                }
                Stmt::Store {
                    ty,
                    addr,
                    offset,
                    value,
                } => {
                    let key = self.addr_key(addr);
                    let (w, off) = (ty.width(), *offset);
                    match key {
                        Some(base) => {
                            // Same base register (same version, hence the
                            // same dynamic address): exact disjointness by
                            // offset. Any other base may alias: kill.
                            table.retain(|(b, o), k| {
                                *b == base && (o + k.ty.width() <= off || off + w <= *o)
                            });
                            if store_forwardable(*ty) {
                                table.insert(
                                    (base, off),
                                    Known {
                                        ty: *ty,
                                        value: *value,
                                        value_ver: self.value_ver(value),
                                    },
                                );
                            }
                        }
                        None => table.clear(),
                    }
                }
                Stmt::If { then, els, .. } => {
                    let mut t = table.clone();
                    self.walk(then, &mut t);
                    let mut t = table.clone();
                    self.walk(els, &mut t);
                    if clobbers_memory(then) || clobbers_memory(els) {
                        table.clear();
                    }
                }
                Stmt::While { header, body, .. } => {
                    if clobbers_memory(header) || clobbers_memory(body) {
                        table.clear();
                    }
                    self.versions.bump_all_assigned(header);
                    self.versions.bump_all_assigned(body);
                    let mut t = table.clone();
                    self.walk(header, &mut t);
                    self.walk(body, &mut t);
                }
                Stmt::SegmentSetTag { .. } | Stmt::SegmentFree { .. } => table.clear(),
                Stmt::Return(_) | Stmt::Break | Stmt::Continue => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::Callee;
    use crate::types::IrType;

    #[test]
    fn forwards_store_to_load() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I64], Some(IrType::I64));
        let p1 = b.param(1);
        b.store(MemTy::I64, b.param(0), 0, p1);
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[1] else {
            panic!("expected assign");
        };
        assert_eq!(expr, &Expr::Use(p1));
    }

    #[test]
    fn forwards_load_to_load_including_subword() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr], Some(IrType::I32));
        let x = b.load(MemTy::I8, b.param(0), 4);
        let y = b.load(MemTy::I8, b.param(0), 4);
        let s = b.binop(BinOp::Add, IrType::I32, x, y);
        b.stmt(Stmt::Return(Some(s)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[1] else {
            panic!("expected assign");
        };
        assert_eq!(expr, &Expr::Use(x));
    }

    use crate::instr::BinOp;

    #[test]
    fn subword_store_not_forwarded() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I32], Some(IrType::I32));
        b.store(MemTy::I8, b.param(0), 0, b.param(1));
        let x = b.load(MemTy::I8, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[1] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::Load { .. }),
            "sub-word store must not forward (load re-extends): {expr:?}"
        );
    }

    #[test]
    fn width_mismatch_not_forwarded() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I64], Some(IrType::I32));
        b.store(MemTy::I64, b.param(0), 0, b.param(1));
        let x = b.load(MemTy::I32, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[1] else {
            panic!("expected assign");
        };
        assert!(matches!(expr, Expr::Load { .. }), "{expr:?}");
    }

    #[test]
    fn call_clobbers() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I64], Some(IrType::I64));
        b.store(MemTy::I64, b.param(0), 0, b.param(1));
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![],
        }));
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert!(matches!(expr, Expr::Load { .. }), "{expr:?}");
    }

    #[test]
    fn aliasing_store_clobbers_disjoint_same_base_does_not() {
        let mut b = FunctionBuilder::new(
            "f",
            &[IrType::Ptr, IrType::Ptr, IrType::I64],
            Some(IrType::I64),
        );
        let p2 = b.param(2);
        b.store(MemTy::I64, b.param(0), 0, p2);
        // Disjoint offset under the same base: knowledge survives.
        b.store(MemTy::I64, b.param(0), 8, p2);
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert_eq!(expr, &Expr::Use(p2));

        // A store through a *different* register may alias: kill.
        let mut b = FunctionBuilder::new(
            "f",
            &[IrType::Ptr, IrType::Ptr, IrType::I64],
            Some(IrType::I64),
        );
        b.store(MemTy::I64, b.param(0), 0, b.param(2));
        b.store(MemTy::I64, b.param(1), 0, Operand::ConstI64(0));
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert!(matches!(expr, Expr::Load { .. }), "{expr:?}");
    }

    #[test]
    fn stale_value_register_not_forwarded() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I64], Some(IrType::I64));
        b.store(MemTy::I64, b.param(0), 0, b.param(1));
        let Operand::Value(v) = b.param(1) else {
            panic!("register");
        };
        b.reassign(v, Expr::Use(Operand::ConstI64(99)));
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::Load { .. }),
            "value register changed since the store: {expr:?}"
        );
    }

    #[test]
    fn store_in_loop_kills_preloop_knowledge() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I32], Some(IrType::I64));
        b.store(MemTy::I64, b.param(0), 0, Operand::ConstI64(1));
        b.push_block();
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.store(MemTy::I64, b.param(0), 0, Operand::ConstI64(2));
        let body = b.pop_block();
        b.stmt(Stmt::While {
            header: vec![],
            cond: b.param(1),
            body,
        });
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::While { body, .. } = &f.body[1] else {
            panic!("expected while");
        };
        let Stmt::Assign { expr, .. } = &body[0] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::Load { .. }),
            "iteration 2 sees the loop's own store: {expr:?}"
        );
    }

    #[test]
    fn segment_retag_clobbers() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I64], Some(IrType::I64));
        b.store(MemTy::I64, b.param(0), 0, b.param(1));
        b.stmt(Stmt::SegmentSetTag {
            addr: b.param(0),
            tagged: b.param(0),
            len: Operand::ConstI64(16),
        });
        let x = b.load(MemTy::I64, b.param(0), 0);
        b.stmt(Stmt::Return(Some(x)));
        let mut f = b.finish();
        run(&mut f);
        let Stmt::Assign { expr, .. } = &f.body[2] else {
            panic!("expected assign");
        };
        assert!(
            matches!(expr, Expr::Load { .. }),
            "retag changes trap behaviour; the load must stay: {expr:?}"
        );
    }
}
