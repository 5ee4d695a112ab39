//! WASM numeric-semantics conformance: edge cases from the spec that an
//! interpreter must get exactly right (shift masking, division traps,
//! NaN-aware min/max, rounding modes, saturating conversions are NOT in
//! this subset — trapping conversions are).

use cage_engine::{ExecConfig, Imports, Store, Trap, Value};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{Instr, Module, ValType};

fn unop_module(op: Instr, param: ValType, result: ValType) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[param], &[result], &[], vec![Instr::LocalGet(0), op]);
    b.export_func("f", f);
    b.build()
}

fn binop_module(op: Instr, ty: ValType, result: ValType) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ty, ty],
        &[result],
        &[],
        vec![Instr::LocalGet(0), Instr::LocalGet(1), op],
    );
    b.export_func("f", f);
    b.build()
}

fn run1(m: &Module, args: &[Value]) -> Result<Value, Trap> {
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(m, &Imports::new()).unwrap();
    store.invoke(h, "f", args).map(|v| v[0])
}

#[test]
fn shift_counts_are_masked() {
    // i32 shifts mask the count to 5 bits, i64 to 6 bits.
    let m = binop_module(Instr::I32Shl, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(1), Value::I32(33)]).unwrap(),
        Value::I32(2)
    );
    let m = binop_module(Instr::I32ShrU, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(-1), Value::I32(32)]).unwrap(),
        Value::I32(-1),
        "shift by 32 is shift by 0"
    );
    let m = binop_module(Instr::I64Shl, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(1), Value::I64(65)]).unwrap(),
        Value::I64(2)
    );
}

#[test]
fn right_shifts_are_logical_or_arithmetic_by_opcode() {
    let m = binop_module(Instr::I32ShrU, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(-1), Value::I32(1)]).unwrap(),
        Value::I32(i32::MAX)
    );
    let m = binop_module(Instr::I32ShrS, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(-8), Value::I32(1)]).unwrap(),
        Value::I32(-4)
    );
    let m = binop_module(Instr::I64ShrU, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(-1), Value::I64(1)]).unwrap(),
        Value::I64(i64::MAX)
    );
    let m = binop_module(Instr::I64ShrS, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(-8), Value::I64(1)]).unwrap(),
        Value::I64(-4)
    );
}

#[test]
fn rotates_wrap_correctly() {
    let m = binop_module(Instr::I32Rotl, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(0x8000_0000u32 as i32), Value::I32(1)]).unwrap(),
        Value::I32(1)
    );
    let m = binop_module(Instr::I64Rotr, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(1), Value::I64(1)]).unwrap(),
        Value::I64(i64::MIN)
    );
}

#[test]
fn signed_division_edge_cases() {
    let m = binop_module(Instr::I64DivS, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(i64::MIN), Value::I64(-1)]).unwrap_err(),
        Trap::IntegerOverflow
    );
    assert_eq!(
        run1(&m, &[Value::I64(7), Value::I64(0)]).unwrap_err(),
        Trap::DivideByZero
    );
    // Truncated (not floored) division.
    assert_eq!(
        run1(&m, &[Value::I64(-7), Value::I64(2)]).unwrap(),
        Value::I64(-3)
    );
}

#[test]
fn remainder_min_by_minus_one_is_zero_not_trap() {
    let m = binop_module(Instr::I32RemS, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(i32::MIN), Value::I32(-1)]).unwrap(),
        Value::I32(0)
    );
    let m = binop_module(Instr::I64RemS, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(i64::MIN), Value::I64(-1)]).unwrap(),
        Value::I64(0)
    );
}

#[test]
fn unsigned_comparisons_treat_negatives_as_large() {
    let m = binop_module(Instr::I32LtU, ValType::I32, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I32(-1), Value::I32(1)]).unwrap(),
        Value::I32(0)
    );
    let m = binop_module(Instr::I64GtU, ValType::I64, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I64(-1), Value::I64(1)]).unwrap(),
        Value::I32(1)
    );
}

#[test]
fn clz_ctz_popcnt() {
    let m = unop_module(Instr::I32Clz, ValType::I32, ValType::I32);
    assert_eq!(run1(&m, &[Value::I32(0)]).unwrap(), Value::I32(32));
    assert_eq!(run1(&m, &[Value::I32(1)]).unwrap(), Value::I32(31));
    let m = unop_module(Instr::I64Ctz, ValType::I64, ValType::I64);
    assert_eq!(run1(&m, &[Value::I64(0)]).unwrap(), Value::I64(64));
    assert_eq!(run1(&m, &[Value::I64(8)]).unwrap(), Value::I64(3));
    let m = unop_module(Instr::I64Popcnt, ValType::I64, ValType::I64);
    assert_eq!(run1(&m, &[Value::I64(-1)]).unwrap(), Value::I64(64));
}

#[test]
fn float_min_max_nan_and_zero_semantics() {
    let m = binop_module(Instr::F64Min, ValType::F64, ValType::F64);
    let nan = run1(&m, &[Value::F64(f64::NAN), Value::F64(1.0)]).unwrap();
    assert!(nan.as_f64().is_nan(), "min propagates NaN");
    let z = run1(&m, &[Value::F64(0.0), Value::F64(-0.0)]).unwrap();
    assert!(z.as_f64().is_sign_negative(), "min(0, -0) = -0");
    let m = binop_module(Instr::F64Max, ValType::F64, ValType::F64);
    let z = run1(&m, &[Value::F64(-0.0), Value::F64(0.0)]).unwrap();
    assert!(z.as_f64().is_sign_positive(), "max(-0, 0) = +0");
}

#[test]
fn nearest_rounds_ties_to_even() {
    let m = unop_module(Instr::F64Nearest, ValType::F64, ValType::F64);
    assert_eq!(run1(&m, &[Value::F64(2.5)]).unwrap(), Value::F64(2.0));
    assert_eq!(run1(&m, &[Value::F64(3.5)]).unwrap(), Value::F64(4.0));
    assert_eq!(run1(&m, &[Value::F64(-2.5)]).unwrap(), Value::F64(-2.0));
    assert_eq!(run1(&m, &[Value::F64(0.5)]).unwrap(), Value::F64(0.0));
}

#[test]
fn trunc_conversions_trap_on_nan_and_range() {
    let m = unop_module(Instr::I32TruncF64S, ValType::F64, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::F64(f64::NAN)]).unwrap_err(),
        Trap::InvalidConversion
    );
    assert_eq!(
        run1(&m, &[Value::F64(2_147_483_648.0)]).unwrap_err(),
        Trap::IntegerOverflow
    );
    assert_eq!(
        run1(&m, &[Value::F64(-2_147_483_648.9)]).unwrap(),
        Value::I32(i32::MIN)
    );
    let m = unop_module(Instr::I64TruncF64U, ValType::F64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::F64(-0.9)]).unwrap(),
        Value::I64(0),
        "fraction truncates"
    );
    assert_eq!(
        run1(&m, &[Value::F64(-1.0)]).unwrap_err(),
        Trap::IntegerOverflow
    );
}

#[test]
fn unsigned_convert_to_float() {
    let m = unop_module(Instr::F64ConvertI64U, ValType::I64, ValType::F64);
    assert_eq!(
        run1(&m, &[Value::I64(-1)]).unwrap(),
        Value::F64(18_446_744_073_709_551_615.0)
    );
    let m = unop_module(Instr::F64ConvertI32U, ValType::I32, ValType::F64);
    assert_eq!(
        run1(&m, &[Value::I32(-1)]).unwrap(),
        Value::F64(4_294_967_295.0)
    );
}

#[test]
fn reinterpret_preserves_bits() {
    let m = unop_module(Instr::I64ReinterpretF64, ValType::F64, ValType::I64);
    let bits = run1(&m, &[Value::F64(-0.0)]).unwrap();
    assert_eq!(bits, Value::I64(i64::MIN));
    let m = unop_module(Instr::F32ReinterpretI32, ValType::I32, ValType::F32);
    let v = run1(&m, &[Value::I32(0x7FC0_0001u32 as i32)]).unwrap();
    assert!(v.as_f32().is_nan(), "NaN payloads survive reinterpret");
}

#[test]
fn sign_extension_operators() {
    let m = unop_module(Instr::I32Extend8S, ValType::I32, ValType::I32);
    assert_eq!(run1(&m, &[Value::I32(0x80)]).unwrap(), Value::I32(-128));
    assert_eq!(run1(&m, &[Value::I32(0x7F)]).unwrap(), Value::I32(127));
    let m = unop_module(Instr::I64Extend32S, ValType::I64, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I64(0x8000_0000)]).unwrap(),
        Value::I64(-2_147_483_648)
    );
}

#[test]
fn wrap_and_extend_roundtrip() {
    let m = unop_module(Instr::I32WrapI64, ValType::I64, ValType::I32);
    assert_eq!(
        run1(&m, &[Value::I64(0x1_2345_6789)]).unwrap(),
        Value::I32(0x2345_6789)
    );
    let m = unop_module(Instr::I64ExtendI32U, ValType::I32, ValType::I64);
    assert_eq!(
        run1(&m, &[Value::I32(-1)]).unwrap(),
        Value::I64(0xFFFF_FFFF)
    );
}

#[test]
fn float_copysign_and_abs() {
    let m = binop_module(Instr::F64Copysign, ValType::F64, ValType::F64);
    assert_eq!(
        run1(&m, &[Value::F64(3.0), Value::F64(-0.0)]).unwrap(),
        Value::F64(-3.0)
    );
    let m = unop_module(Instr::F64Abs, ValType::F64, ValType::F64);
    let v = run1(&m, &[Value::F64(-0.0)]).unwrap();
    assert!(v.as_f64().is_sign_positive());
}

#[test]
fn select_and_drop() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I32],
        &[ValType::I64],
        &[],
        vec![
            Instr::I64Const(111),
            Instr::I64Const(222),
            Instr::LocalGet(0),
            Instr::Select,
        ],
    );
    b.export_func("f", f);
    let m = b.build();
    assert_eq!(run1(&m, &[Value::I32(1)]).unwrap(), Value::I64(111));
    assert_eq!(run1(&m, &[Value::I32(0)]).unwrap(), Value::I64(222));
}

#[test]
fn float_division_produces_ieee_specials() {
    let m = binop_module(Instr::F64Div, ValType::F64, ValType::F64);
    assert_eq!(
        run1(&m, &[Value::F64(1.0), Value::F64(0.0)]).unwrap(),
        Value::F64(f64::INFINITY)
    );
    assert_eq!(
        run1(&m, &[Value::F64(-1.0), Value::F64(0.0)]).unwrap(),
        Value::F64(f64::NEG_INFINITY)
    );
    let v = run1(&m, &[Value::F64(0.0), Value::F64(0.0)]).unwrap();
    assert!(v.as_f64().is_nan());
}
