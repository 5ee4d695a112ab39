//! Constant folding and algebraic simplification.
//!
//! The folder has no arithmetic of its own. A constant pair folds to what
//! the wasm instruction the lowering emits for that `(BinOp, IrType)`
//! (`lower::binop_instr`) computes on it, evaluated by the same table row
//! (`cage_wasm::numeric`) the engine's dispatch loop runs — so a fold the
//! runtime would not compute cannot be written down. Getting the width
//! wrong silently diverges optimized from unoptimized code: historically a
//! private `eval_int` ran everything at 64 bits, so `i32.shl x, 32` folded
//! to `0` instead of `x` (wasm masks the shift count mod 32),
//! `i32.shr_u -1, 1` folded to `-1` instead of `0x7FFF_FFFF`, and
//! `i32.div_s INT_MIN, -1` folded to a value where the spec mandates a
//! trap.
//!
//! What is folded, and what is refused:
//! - an instruction that traps on its operands (`div`/`rem` by zero,
//!   `div_s MIN, -1`) is never folded — the trap must survive to runtime;
//! - `Ptr`-typed ops fold only when the result is truncation-compatible
//!   (`add`/`sub`/`mul`/`and`/`or`/`xor`), because the pointer width is
//!   decided later by the lowering target (8 bytes on wasm64, 4 on
//!   wasm32) and anything width-sensitive would bake in the wrong one;
//! - `f64` folds `add`/`sub`/`mul`/`div` and `neg`/`sqrt`/`fabs`, not
//!   comparisons;
//! - the algebraic identities (`x + 0`, `x * 1`, `x << 0`, …) are not
//!   arithmetic on two constants and are decided here.

use cage_wasm::numeric::{self, get_f64, get_i32, get_i64, slot_f64, slot_i32, slot_i64, Numeric};
use cage_wasm::{Instr, ValType};

use crate::instr::{BinOp, Expr, Operand, Stmt, UnOp};
use crate::lower::{binop_instr, PtrWidth};
use crate::module::IrFunction;
use crate::types::IrType;

/// Runs constant folding over `func`.
pub fn run(func: &mut IrFunction) {
    crate::instr::visit_stmts_mut(&mut func.body, &mut |stmt| {
        if let Stmt::Assign { expr, .. } = stmt {
            if let Some(folded) = fold(expr) {
                *expr = folded;
            }
        }
    });
}

fn fold(expr: &Expr) -> Option<Expr> {
    match expr {
        Expr::BinOp { op, ty, lhs, rhs } => fold_binop(*op, *ty, lhs, rhs),
        Expr::UnOp { op, ty, operand } => fold_unop(*op, *ty, operand),
        _ => None,
    }
}

fn fold_binop(op: BinOp, ty: IrType, lhs: &Operand, rhs: &Operand) -> Option<Expr> {
    use BinOp::*;
    if lhs.as_value().is_none() && rhs.as_value().is_none() {
        let folds = match ty {
            IrType::I32 | IrType::I64 => true,
            IrType::Ptr => matches!(op, Add | Sub | Mul | And | Or | Xor),
            IrType::F64 => matches!(op, Add | Sub | Mul | DivS),
        };
        if !folds {
            return None;
        }
        // A pointer op that folds is one whose 64-bit result truncates
        // to the 32-bit one, so it is evaluated at 64 bits.
        let instr = binop_instr(op, ty, PtrWidth::W64);
        return eval(&instr, &[*lhs, *rhs]).map(Expr::Use);
    }
    // Algebraic identities (integer only; float identities are unsound
    // under NaN/signed zero).
    if ty != IrType::F64 {
        match (op, rhs.as_const_int()) {
            (Add | Sub | Or | Xor, Some(0)) => {
                return Some(Expr::Use(*lhs));
            }
            // A shift is a no-op when the *masked* count is zero; the
            // mask depends on the width, so Ptr (width unknown until
            // lowering) only qualifies for a literal zero count.
            (Shl | ShrS | ShrU, Some(c))
                if match ty {
                    IrType::I32 => c & 31 == 0,
                    IrType::I64 => c & 63 == 0,
                    _ => c == 0,
                } =>
            {
                return Some(Expr::Use(*lhs));
            }
            (Mul, Some(1)) | (DivS | DivU, Some(1)) => {
                return Some(Expr::Use(*lhs));
            }
            (Mul | And, Some(0)) => {
                return Some(Expr::Use(match ty {
                    IrType::I32 => Operand::ConstI32(0),
                    _ => Operand::ConstI64(0),
                }));
            }
            _ => {}
        }
    }
    None
}

/// Folds a `UnOp` of a constant through the instruction `lower_expr`
/// emits for it. wasm has no integer negate or complement, so those two
/// lower to (and fold as) `0 - x` and `x ^ -1`, which commute with
/// truncation and are therefore safe at `Ptr`; `Not` (`x == 0`) is not,
/// and is refused there.
fn fold_unop(op: UnOp, ty: IrType, operand: &Operand) -> Option<Expr> {
    let int = |op: BinOp| binop_instr(op, ty, PtrWidth::W64);
    let x = *operand;
    let folded = match (op, ty) {
        (UnOp::Neg, IrType::F64) => eval(&Instr::F64Neg, &[x]),
        (UnOp::Sqrt, IrType::F64) => eval(&Instr::F64Sqrt, &[x]),
        (UnOp::Fabs, IrType::F64) => eval(&Instr::F64Abs, &[x]),
        (_, IrType::F64) => None,
        (UnOp::Neg, _) => eval(&int(BinOp::Sub), &[Operand::ConstI64(0), x]),
        (UnOp::BitNot, _) => eval(&int(BinOp::Xor), &[x, Operand::ConstI64(-1)]),
        (UnOp::Not, IrType::I32) => eval(&Instr::I32Eqz, &[x]),
        (UnOp::Not, IrType::I64) => eval(&Instr::I64Eqz, &[x]),
        _ => None,
    };
    folded.map(Expr::Use)
}

/// Runs the numeric instruction `instr` on constant operands, one per
/// parameter, exactly as the engine would. `None` when an operand is not
/// a constant of its parameter's type, or when the instruction traps on
/// these operands.
fn eval(instr: &Instr, operands: &[Operand]) -> Option<Operand> {
    let op = numeric::classify(instr)?;
    let (params, result) = op.signature();
    let slot = |i: usize| {
        let operand = operands.get(i)?;
        Some(match (params.get(i)?, operand) {
            (ValType::I32, _) => slot_i32(operand.as_const_int()? as i32),
            (ValType::I64, _) => slot_i64(operand.as_const_int()?),
            (ValType::F64, Operand::ConstF64(v)) => slot_f64(*v),
            _ => return None,
        })
    };
    let out = match op {
        Numeric::Alu(op) => op.eval(slot(0)?, slot(1)?),
        Numeric::Div(op) => op.eval(slot(0)?, slot(1)?).ok()?,
        Numeric::Una(op) => op.eval(slot(0)?).ok()?,
    };
    Some(match result {
        ValType::I32 => Operand::ConstI32(get_i32(out)),
        ValType::I64 => Operand::ConstI64(get_i64(out)),
        ValType::F64 => Operand::ConstF64(get_f64(out)),
        ValType::F32 => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::ValueId;

    fn fold_one(expr: Expr, ty: IrType) -> Expr {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], None);
        b.assign(ty, expr);
        let mut f = b.finish();
        run(&mut f);
        match &f.body[0] {
            Stmt::Assign { expr, .. } => expr.clone(),
            _ => unreachable!(),
        }
    }

    fn bin(op: BinOp, ty: IrType, lhs: Operand, rhs: Operand) -> Expr {
        Expr::BinOp { op, ty, lhs, rhs }
    }

    fn fold_i32(op: BinOp, a: i32, b: i32) -> Expr {
        fold_one(
            bin(op, IrType::I32, Operand::ConstI32(a), Operand::ConstI32(b)),
            IrType::I32,
        )
    }

    #[test]
    fn folds_integer_arithmetic() {
        let e = fold_one(
            bin(
                BinOp::Add,
                IrType::I64,
                Operand::ConstI64(40),
                Operand::ConstI64(2),
            ),
            IrType::I64,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI64(42)));
    }

    #[test]
    fn folds_comparisons_to_i32() {
        let e = fold_one(
            bin(
                BinOp::LtS,
                IrType::I64,
                Operand::ConstI64(1),
                Operand::ConstI64(2),
            ),
            IrType::I32,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI32(1)));
    }

    #[test]
    fn division_by_zero_not_folded() {
        for ty in [IrType::I32, IrType::I64] {
            for op in [BinOp::DivS, BinOp::DivU, BinOp::RemS, BinOp::RemU] {
                let orig = bin(op, ty, Operand::ConstI32(1), Operand::ConstI32(0));
                assert_eq!(fold_one(orig.clone(), ty), orig, "{op:?} {ty:?}");
            }
        }
    }

    // --- The i32-width regression matrix: each of these folded to the
    // wrong value (or folded where the spec mandates a trap) when the
    // evaluator ran everything at 64 bits. ---

    #[test]
    fn i32_shift_counts_mask_mod_32() {
        // 1 << 32 masks to 1 << 0 == 1 at i32 (used to fold to 0).
        assert_eq!(fold_i32(BinOp::Shl, 1, 32), Expr::Use(Operand::ConstI32(1)));
        // 7 << 33 == 7 << 1 == 14.
        assert_eq!(
            fold_i32(BinOp::Shl, 7, 33),
            Expr::Use(Operand::ConstI32(14))
        );
        // -8 >> 33 (arith) == -8 >> 1 == -4.
        assert_eq!(
            fold_i32(BinOp::ShrS, -8, 33),
            Expr::Use(Operand::ConstI32(-4))
        );
        // i64 counts mask mod 64.
        let e = fold_one(
            bin(
                BinOp::Shl,
                IrType::I64,
                Operand::ConstI64(1),
                Operand::ConstI64(64),
            ),
            IrType::I64,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI64(1)));
    }

    #[test]
    fn i32_unsigned_ops_zero_extend() {
        // -1 >>u 1 at i32 is 0x7FFF_FFFF (used to fold to -1 via the
        // sign-extended 64-bit value).
        assert_eq!(
            fold_i32(BinOp::ShrU, -1, 1),
            Expr::Use(Operand::ConstI32(0x7FFF_FFFF))
        );
        // 0xFFFF_FFFF /u 2 == 0x7FFF_FFFF.
        assert_eq!(
            fold_i32(BinOp::DivU, -1, 2),
            Expr::Use(Operand::ConstI32(0x7FFF_FFFF))
        );
        // 0xFFFF_FFFF %u 10 == 5.
        assert_eq!(
            fold_i32(BinOp::RemU, -1, 10),
            Expr::Use(Operand::ConstI32(5))
        );
        // -1 <u 1 is false at i32 (0xFFFF_FFFF is large unsigned).
        assert_eq!(fold_i32(BinOp::LtU, -1, 1), Expr::Use(Operand::ConstI32(0)));
        assert_eq!(fold_i32(BinOp::GtU, -1, 1), Expr::Use(Operand::ConstI32(1)));
    }

    #[test]
    fn div_s_min_by_minus_one_not_folded() {
        // Traps in wasm at both widths; must never fold.
        let orig = bin(
            BinOp::DivS,
            IrType::I32,
            Operand::ConstI32(i32::MIN),
            Operand::ConstI32(-1),
        );
        assert_eq!(fold_one(orig.clone(), IrType::I32), orig);
        let orig = bin(
            BinOp::DivS,
            IrType::I64,
            Operand::ConstI64(i64::MIN),
            Operand::ConstI64(-1),
        );
        assert_eq!(fold_one(orig.clone(), IrType::I64), orig);
        // rem_s MIN, -1 is 0, NOT a trap.
        assert_eq!(
            fold_i32(BinOp::RemS, i32::MIN, -1),
            Expr::Use(Operand::ConstI32(0))
        );
    }

    #[test]
    fn i32_arith_wraps_at_32_bits() {
        assert_eq!(
            fold_i32(BinOp::Add, i32::MAX, 1),
            Expr::Use(Operand::ConstI32(i32::MIN))
        );
        assert_eq!(
            fold_i32(BinOp::Mul, 0x10000, 0x10000),
            Expr::Use(Operand::ConstI32(0))
        );
    }

    #[test]
    fn ptr_width_sensitive_ops_not_folded() {
        // Shift/div/compare results differ between 32- and 64-bit
        // pointer targets; only truncation-safe ops fold at Ptr.
        let orig = bin(
            BinOp::ShrU,
            IrType::Ptr,
            Operand::ConstI64(-1),
            Operand::ConstI64(1),
        );
        assert_eq!(fold_one(orig.clone(), IrType::I64), orig);
        let e = fold_one(
            bin(
                BinOp::Add,
                IrType::Ptr,
                Operand::ConstI64(8),
                Operand::ConstI64(8),
            ),
            IrType::Ptr,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI64(16)));
    }

    #[test]
    fn shift_identity_is_width_aware() {
        let x = Operand::Value(ValueId(0));
        // x << 32 at i32 is x (count masks to 0).
        let e = fold_one(
            bin(BinOp::Shl, IrType::I32, x, Operand::ConstI32(32)),
            IrType::I32,
        );
        assert_eq!(e, Expr::Use(x));
        // x << 32 at i64 is NOT x.
        let orig = bin(BinOp::Shl, IrType::I64, x, Operand::ConstI64(32));
        assert_eq!(fold_one(orig.clone(), IrType::I64), orig);
        // x << 64 at i64 is x.
        let e = fold_one(
            bin(BinOp::Shl, IrType::I64, x, Operand::ConstI64(64)),
            IrType::I64,
        );
        assert_eq!(e, Expr::Use(x));
        // Ptr width is unknown: only a literal zero count is an identity.
        let orig = bin(BinOp::Shl, IrType::Ptr, x, Operand::ConstI64(32));
        assert_eq!(fold_one(orig.clone(), IrType::Ptr), orig);
    }

    #[test]
    fn unop_width_audit() {
        // Neg wraps at i32: -INT_MIN == INT_MIN, no trap.
        let e = fold_one(
            Expr::UnOp {
                op: UnOp::Neg,
                ty: IrType::I32,
                operand: Operand::ConstI32(i32::MIN),
            },
            IrType::I32,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI32(i32::MIN)));
        // BitNot truncates exactly.
        let e = fold_one(
            Expr::UnOp {
                op: UnOp::BitNot,
                ty: IrType::I32,
                operand: Operand::ConstI32(0x0F0F_0F0F),
            },
            IrType::I32,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI32(!0x0F0F_0F0F)));
        // Not yields i32 0/1 at both widths.
        let e = fold_one(
            Expr::UnOp {
                op: UnOp::Not,
                ty: IrType::I64,
                operand: Operand::ConstI64(0),
            },
            IrType::I32,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI32(1)));
        // Not at Ptr is width-sensitive under truncation: refused.
        let orig = Expr::UnOp {
            op: UnOp::Not,
            ty: IrType::Ptr,
            operand: Operand::ConstI64(0x1_0000_0000),
        };
        assert_eq!(fold_one(orig.clone(), IrType::I32), orig);
    }

    #[test]
    fn identity_simplifications() {
        let x = Operand::Value(ValueId(0));
        let e = fold_one(
            bin(BinOp::Add, IrType::I64, x, Operand::ConstI64(0)),
            IrType::I64,
        );
        assert_eq!(e, Expr::Use(x));
        let e = fold_one(
            bin(BinOp::Mul, IrType::I64, x, Operand::ConstI64(0)),
            IrType::I64,
        );
        assert_eq!(e, Expr::Use(Operand::ConstI64(0)));
    }

    #[test]
    fn float_identities_not_applied() {
        // x + 0.0 is not a no-op for -0.0; must stay.
        let x = Operand::Value(ValueId(0));
        let orig = Expr::BinOp {
            op: BinOp::Add,
            ty: IrType::F64,
            lhs: x,
            rhs: Operand::ConstF64(0.0),
        };
        assert_eq!(fold_one(orig.clone(), IrType::F64), orig);
    }

    #[test]
    fn folds_float_constants_and_unops() {
        let e = fold_one(
            bin(
                BinOp::Mul,
                IrType::F64,
                Operand::ConstF64(3.0),
                Operand::ConstF64(4.0),
            ),
            IrType::F64,
        );
        assert_eq!(e, Expr::Use(Operand::ConstF64(12.0)));
        let e = fold_one(
            Expr::UnOp {
                op: UnOp::Sqrt,
                ty: IrType::F64,
                operand: Operand::ConstF64(9.0),
            },
            IrType::F64,
        );
        assert_eq!(e, Expr::Use(Operand::ConstF64(3.0)));
    }
}
