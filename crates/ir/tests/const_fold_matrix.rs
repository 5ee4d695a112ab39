//! Const-fold soundness matrix: for everything the folder folds — every
//! integer `BinOp` × {I32, I64} × boundary-constant pair, `f64`
//! arithmetic over the special values, and the `UnOp`s — the folder's
//! verdict is checked against the engine running the *unoptimized*
//! lowering of the same expression:
//!
//! - if the folder produced a constant, the runtime must produce the
//!   same bits (and must not trap);
//! - if the runtime traps, the folder must have refused to fold (the
//!   trap belongs to runtime semantics).
//!
//! The folder evaluates through the same `cage_wasm::numeric` rows the
//! register tier dispatches to, so "the runtime" is two runs that must
//! agree: the register tier and the tree oracle (`Store::call_tree`),
//! whose numeric arms are written independently of that table.
//!
//! This matrix fails loudly on the historical width bugs: a 64-bit
//! evaluator folds `i32.shl 1, 32` to `0` (runtime: `1`),
//! `i32.shr_u -1, 1` to `-1` (runtime: `0x7FFF_FFFF`), and
//! `i32.div_s INT_MIN, -1` to `INT_MIN` (runtime: trap). The last test
//! pins the other edge of the fold set: what must stay *un*folded, since
//! every fold moves a cycle in both PolyBench goldens.

use cage_engine::{ExecConfig, Imports, Store, Trap};
use cage_ir::passes::const_fold;
use cage_ir::{
    lower, BinOp, CastKind, Expr, FunctionBuilder, IrModule, IrType, LowerOptions, Operand, Stmt,
    UnOp,
};
use cage_wasm::ExportKind;

const OPS: [BinOp; 23] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivS,
    BinOp::DivU,
    BinOp::RemS,
    BinOp::RemU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::ShrS,
    BinOp::ShrU,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::LtS,
    BinOp::LtU,
    BinOp::LeS,
    BinOp::LeU,
    BinOp::GtS,
    BinOp::GtU,
    BinOp::GeS,
    BinOp::GeU,
];

const I32_BOUNDARIES: [i64; 8] = [0, 1, -1, 2, 31, 32, i32::MIN as i64, i32::MAX as i64];
const I64_BOUNDARIES: [i64; 8] = [0, 1, -1, 2, 63, 64, i64::MIN, i64::MAX];
const F64_VALUES: [f64; 9] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    f64::MIN_POSITIVE,
    f64::MAX,
];

fn int_const(ty: IrType, v: i64) -> Operand {
    match ty {
        IrType::I32 => Operand::ConstI32(v as i32),
        _ => Operand::ConstI64(v),
    }
}

fn bin(op: BinOp, ty: IrType, lhs: Operand, rhs: Operand) -> (Expr, IrType) {
    let result = if op.is_comparison() { IrType::I32 } else { ty };
    (Expr::BinOp { op, ty, lhs, rhs }, result)
}

fn una(op: UnOp, ty: IrType, operand: Operand) -> (Expr, IrType) {
    let result = if op == UnOp::Not { IrType::I32 } else { ty };
    (Expr::UnOp { op, ty, operand }, result)
}

/// `return e` for an expression over literal constants; an `i32` result
/// is sign-extended so every integer comes back as an `i64`.
fn build((expr, result): (Expr, IrType)) -> IrModule {
    let ret = if result == IrType::F64 {
        IrType::F64
    } else {
        IrType::I64
    };
    let mut bld = FunctionBuilder::new("f", &[], Some(ret));
    bld.set_exported(true);
    let v = bld.assign(result, expr);
    let out = if result == IrType::I32 {
        bld.assign(
            IrType::I64,
            Expr::Cast {
                kind: CastKind::I32ToI64S,
                operand: v,
            },
        )
    } else {
        v
    };
    bld.stmt(Stmt::Return(Some(out)));
    let mut m = IrModule::new();
    m.functions.push(bld.finish());
    m
}

/// What the folder says: the constant's bits (an integer sign-extended to
/// 64, as the built function returns it) or `None` when it left the
/// expression alone.
fn folded_const(case: &(Expr, IrType)) -> Option<u64> {
    let mut m = build(case.clone());
    const_fold::run(&mut m.functions[0]);
    match &m.functions[0].body[0] {
        Stmt::Assign {
            expr: Expr::Use(Operand::ConstF64(v)),
            ..
        } => Some(v.to_bits()),
        Stmt::Assign {
            expr: Expr::Use(c), ..
        } => c.as_const_int().map(|v| v as u64),
        _ => None,
    }
}

/// What the engine says, with NO optimisation passes at all — on the
/// register tier and on the tree oracle, which must agree.
fn runtime_result(case: &(Expr, IrType)) -> Result<u64, Trap> {
    let lowered = lower(&build(case.clone()), &LowerOptions::default()).expect("lowering");
    cage_wasm::validate(&lowered.module).expect("module validates");
    let Some(ExportKind::Func(f)) = lowered.module.export("f").map(|e| e.kind) else {
        panic!("`f` is exported");
    };
    let run = |tree: bool| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&lowered.module, &Imports::new())
            .expect("instantiate");
        let out = if tree {
            store.call_tree(h, f, &[])
        } else {
            store.call(h, f, &[])
        };
        out.map(|values| match values.as_slice() {
            [v] => v.to_slot(),
            other => panic!("unexpected result shape {other:?}"),
        })
    };
    let (register, oracle) = (run(false), run(true));
    assert_eq!(register, oracle, "{case:?}: register tier vs tree oracle");
    register
}

/// How one case came out.
#[derive(PartialEq)]
enum Verdict {
    /// Folded, to the bits the runtime computes.
    Folded,
    /// Left alone, and the runtime traps.
    Trapping,
    /// Left alone although the runtime computes a value: merely
    /// conservative.
    Left,
}

fn check(case: (Expr, IrType)) -> Verdict {
    match (folded_const(&case), runtime_result(&case)) {
        (Some(f), Ok(r)) => {
            assert_eq!(f, r, "{case:?}: folded {f:#x} != runtime {r:#x}");
            Verdict::Folded
        }
        (Some(f), Err(trap)) => panic!(
            "{case:?}: folded to {f:#x} but runtime traps ({trap:?}) — fold must preserve the trap"
        ),
        (None, Err(_)) => Verdict::Trapping,
        (None, Ok(_)) => Verdict::Left,
    }
}

#[test]
fn fold_matches_runtime_for_every_op_and_boundary_pair() {
    let mut checked = 0u32;
    let mut folded = 0u32;
    let mut trapping = 0u32;
    for ty in [IrType::I32, IrType::I64] {
        let consts = match ty {
            IrType::I32 => &I32_BOUNDARIES,
            _ => &I64_BOUNDARIES,
        };
        for &op in &OPS {
            for &a in consts {
                for &b in consts {
                    checked += 1;
                    // Refusing to fold a non-trapping case is merely
                    // conservative; integer div/rem by zero and
                    // div_s MIN/-1 are the only expected refusals.
                    match check(bin(op, ty, int_const(ty, a), int_const(ty, b))) {
                        Verdict::Folded => folded += 1,
                        Verdict::Trapping => trapping += 1,
                        Verdict::Left => {}
                    }
                }
            }
        }
    }
    assert_eq!(checked, 23 * 8 * 8 * 2);
    assert!(folded > 2000, "folder should fold most cases: {folded}");
    assert!(trapping > 0, "matrix must include trapping cases");
}

#[test]
fn float_arithmetic_folds_to_the_runtime_bits() {
    // No float operation traps, so each of these must fold — to exactly
    // the bits (NaN payload and zero sign included) the engine computes.
    for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::DivS] {
        for a in F64_VALUES {
            for b in F64_VALUES {
                let case = bin(op, IrType::F64, Operand::ConstF64(a), Operand::ConstF64(b));
                assert!(
                    check(case) == Verdict::Folded,
                    "{op:?} ({a}, {b}) not folded"
                );
            }
        }
    }
}

#[test]
fn unop_folds_match_runtime() {
    for ty in [IrType::I32, IrType::I64] {
        let consts = match ty {
            IrType::I32 => &I32_BOUNDARIES,
            _ => &I64_BOUNDARIES,
        };
        for op in [UnOp::Neg, UnOp::Not, UnOp::BitNot] {
            for &a in consts {
                let case = una(op, ty, int_const(ty, a));
                assert!(
                    check(case) == Verdict::Folded,
                    "{op:?} {ty:?} ({a}) not folded"
                );
            }
        }
    }
    for op in [UnOp::Neg, UnOp::Sqrt, UnOp::Fabs] {
        for a in F64_VALUES {
            let case = una(op, IrType::F64, Operand::ConstF64(a));
            assert!(check(case) == Verdict::Folded, "{op:?} ({a}) not folded");
        }
    }
}

#[test]
fn what_the_folder_refuses_stays_refused() {
    let refused = |case: (Expr, IrType)| assert_eq!(folded_const(&case), None, "{case:?}");
    // f64: unsigned division and every comparison.
    for op in OPS.into_iter().filter(|op| op.is_comparison()) {
        for a in F64_VALUES {
            let (lhs, rhs) = (Operand::ConstF64(a), Operand::ConstF64(1.0));
            refused(bin(op, IrType::F64, lhs, rhs));
            refused(bin(BinOp::DivU, IrType::F64, lhs, rhs));
        }
    }
    // Ptr: the pointer width is the lowering's choice, so only the ops
    // whose 64-bit result truncates to the 32-bit one may fold.
    let truncation_compatible = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
    ];
    for op in OPS {
        for &a in &I64_BOUNDARIES {
            let case = bin(op, IrType::Ptr, Operand::ConstI64(a), Operand::ConstI64(2));
            if truncation_compatible.contains(&op) {
                assert!(folded_const(&case).is_some(), "{case:?}");
            } else {
                refused(case);
            }
        }
    }
    refused(una(UnOp::Not, IrType::Ptr, Operand::ConstI64(1 << 32)));
}
