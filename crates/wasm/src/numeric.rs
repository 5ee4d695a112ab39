//! The 128 immediate-free numeric instructions (opcodes `0x45..=0xC4`),
//! written down once.
//!
//! Everything the toolchain knows about these instructions comes from the
//! one table in this file. A **row** is one instruction:
//!
//! ```text
//! I32ShrU = 0x76, Simple, |a: u32, b: u32| -> u32 { a.wrapping_shr(b) };
//! ```
//!
//! — the [`Instr`] variant, its opcode, the cycle class it retires in
//! ([`NumericClass`]) and its semantics on untagged 64-bit operand slots.
//! The closure-shaped part is also the signature: each operand and the
//! result name a Rust *view* of a slot ([`Slot`]), which fixes both the
//! wasm type the validator checks (`u32` and `i32` are views of `i32`,
//! `bool` is the `i32` a comparison pushes) and how the bits are read, so
//! a row cannot declare one type and compute at another.
//!
//! From the rows the table derives the binary codec ([`Numeric::opcode`],
//! [`decode`]), the validator's [`numeric_signature`], the register tier's
//! op families with their `eval` (which the dispatch loop inlines and the
//! IR constant folder calls, so a fold is by construction what the engine
//! would have computed), and [`classify`], the one `Instr` → row lookup.
//!
//! The rows come in **three sections by shape**, because the shape is what
//! the register form and its dispatch arm differ by: [`AluOp`] (two
//! operands, total — the only family whose right operand may fold into an
//! immediate), [`DivOp`] (two operands, the integer rows trap) and
//! [`UnaOp`] (one operand, the `trunc` rows trap). Within a section rows
//! are in opcode order.
//!
//! What deliberately does *not* read the table: the tree-walking oracle in
//! `cage-engine` (`exec_op` in `engine/src/tree.rs`, which no production
//! path enters) keeps its own hand-written arm and its own
//! charge per instruction — it is the reference the register tier is
//! compared against, and two readers of one table cannot disagree — and
//! `tests/golden_numeric_table.tsv` pins every opcode, mnemonic and
//! signature as the three hand-written lists this table replaced had them.
//! The oracle shares only the slot encoding and the helpers below the
//! table (`wasm_fmin*`/`wasm_fmax*`, `trunc_to_*`), as it always has.

use crate::instr::Instr;
use crate::types::ValType;

// -- the slot encoding ------------------------------------------------------
//
// Validation guarantees types, so a runtime operand carries no tag: it is
// a plain `u64`. i32 and f32 live in the low 32 bits, zero-extended; i64 is
// reinterpreted; f64 is its bit pattern. This is the one definition — the
// engine's `Value::to_slot`/`from_slot`, its constant materialisation and
// both of its interpreters go through these functions.

/// An `i32` as an operand slot.
#[inline(always)]
#[must_use]
pub fn slot_i32(v: i32) -> u64 {
    v as u32 as u64
}
/// An `i64` as an operand slot.
#[inline(always)]
#[must_use]
pub fn slot_i64(v: i64) -> u64 {
    v as u64
}
/// An `f32` as an operand slot.
#[inline(always)]
#[must_use]
pub fn slot_f32(v: f32) -> u64 {
    u64::from(v.to_bits())
}
/// An `f64` as an operand slot.
#[inline(always)]
#[must_use]
pub fn slot_f64(v: f64) -> u64 {
    v.to_bits()
}
/// A comparison result as the `i32` slot it pushes.
#[inline(always)]
#[must_use]
pub fn slot_bool(v: bool) -> u64 {
    u64::from(v)
}
/// The `i32` in an operand slot.
#[inline(always)]
#[must_use]
pub fn get_i32(s: u64) -> i32 {
    s as u32 as i32
}
/// The `i64` in an operand slot.
#[inline(always)]
#[must_use]
pub fn get_i64(s: u64) -> i64 {
    s as i64
}
/// The `f32` in an operand slot.
#[inline(always)]
#[must_use]
pub fn get_f32(s: u64) -> f32 {
    f32::from_bits(s as u32)
}
/// The `f64` in an operand slot.
#[inline(always)]
#[must_use]
pub fn get_f64(s: u64) -> f64 {
    f64::from_bits(s)
}

/// Typed result → untagged slot, for code generic over an operation's
/// result type.
pub trait IntoSlot {
    /// The wasm type this Rust type is a view of.
    const TYPE: ValType;
    /// Encodes the value.
    fn into_slot(self) -> u64;
}

/// A Rust view an operand slot can be read at. The unsigned integers are
/// views of the same `i32`/`i64` slots as the signed ones.
pub trait Slot: IntoSlot {
    /// Decodes the slot.
    fn from_slot(s: u64) -> Self;
}

macro_rules! slot_views {
    ($($view:ident: $ty:ident, $put:expr $(, $get:expr)?;)+) => {$(
        impl IntoSlot for $view {
            const TYPE: ValType = ValType::$ty;
            #[inline(always)]
            fn into_slot(self) -> u64 {
                $put(self)
            }
        }
        $(impl Slot for $view {
            #[inline(always)]
            fn from_slot(s: u64) -> $view {
                $get(s)
            }
        })?
    )+};
}
slot_views! {
    i32: I32, slot_i32, get_i32;
    u32: I32, u64::from, |s: u64| s as u32;
    i64: I64, slot_i64, get_i64;
    u64: I64, |v: u64| v, |s: u64| s;
    f32: F32, slot_f32, get_f32;
    f64: F64, slot_f64, get_f64;
    bool: I32, slot_bool;
}

// -- classes and traps ------------------------------------------------------

/// The cycle class one numeric instruction retires in. The engine's cost
/// model prices the classes; the table only says which row is in which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericClass {
    /// Integer ALU work.
    Simple,
    /// Float arithmetic, comparison, rounding and conversion.
    Float,
    /// Integer division and remainder.
    Div,
    /// Float division and square root.
    FloatDiv,
    /// A width change the simulated cores eliminate as a register rename:
    /// it retires an instruction and costs no cycles.
    Free,
}

/// Why a numeric instruction trapped. The engine's `Trap` has the same
/// three variants and takes these by `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericTrap {
    /// Integer division or remainder by zero.
    DivideByZero,
    /// `INT_MIN / -1`, or a float-to-int truncation out of range.
    IntegerOverflow,
    /// Float-to-int truncation of a NaN.
    InvalidConversion,
}
use NumericTrap::{DivideByZero, IntegerOverflow, InvalidConversion};

/// The divisor of an integer division or remainder.
#[inline(always)]
fn nonzero<T: PartialEq + Default>(divisor: T) -> Result<T, NumericTrap> {
    if divisor == T::default() {
        return Err(DivideByZero);
    }
    Ok(divisor)
}

// -- the table --------------------------------------------------------------

/// One numeric instruction, by the family that holds its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Numeric {
    /// Two operands, total.
    Alu(AluOp),
    /// Two operands, division or remainder.
    Div(DivOp),
    /// One operand.
    Una(UnaOp),
}

/// Stack signature of a numeric instruction — `(parameter types, result
/// type)` — or `None` for every other instruction.
///
/// Public because consumers that re-derive static stack layouts need
/// the same operand counts the validator checks against.
#[must_use]
pub fn numeric_signature(instr: &Instr) -> Option<(&'static [ValType], Option<ValType>)> {
    let (params, result) = classify(instr)?.signature();
    Some((params, Some(result)))
}

macro_rules! numeric_table {
    (
        total {$(
            $av:ident = $ao:literal, $ac:ident,
            |$aa:ident: $ata:ident, $ab:ident: $atb:ident| -> $atr:ident $abody:block;
        )+}
        trapping {$(
            $dv:ident = $do:literal, $dc:ident,
            |$da:ident: $dta:ident, $db:ident: $dtb:ident| -> $dtr:ident $dbody:block;
        )+}
        unary {$(
            $uv:ident = $uo:literal, $uc:ident,
            |$ua:ident: $uta:ident| -> $utr:ident $ubody:block;
        )+}
    ) => {
        /// A two-operand operation that cannot trap, in the register
        /// tier's generic 3-address form: arithmetic, bitwise, shift,
        /// comparison, `min`/`max`/`copysign`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum AluOp {
            $($av,)+
        }

        impl AluOp {
            /// Evaluates the operation on two operand slots.
            #[inline(always)]
            #[must_use]
            pub fn eval(self, x: u64, y: u64) -> u64 {
                match self {$(
                    AluOp::$av => {
                        let ($aa, $ab) = (<$ata>::from_slot(x), <$atb>::from_slot(y));
                        let r: $atr = $abody;
                        r.into_slot()
                    }
                )+}
            }
        }

        /// A division or remainder. The integer rows trap on a zero
        /// divisor (and signed division on `INT_MIN / -1`); the float rows
        /// are here for their class and shape.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum DivOp {
            $($dv,)+
        }

        impl DivOp {
            /// Evaluates the operation on two operand slots.
            ///
            /// # Errors
            ///
            /// The trap the instruction raises on these operands.
            #[inline(always)]
            pub fn eval(self, x: u64, y: u64) -> Result<u64, NumericTrap> {
                match self {$(
                    DivOp::$dv => {
                        let ($da, $db) = (<$dta>::from_slot(x), <$dtb>::from_slot(y));
                        let r: $dtr = $dbody;
                        Ok(r.into_slot())
                    }
                )+}
            }
        }

        /// A one-operand operation: tests, bit counts, float rounding,
        /// sign extension and every conversion (the float-to-int `trunc`
        /// rows trap).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum UnaOp {
            $($uv,)+
        }

        impl UnaOp {
            /// Evaluates the operation on one operand slot.
            ///
            /// # Errors
            ///
            /// The trap the instruction raises on this operand.
            #[inline(always)]
            pub fn eval(self, x: u64) -> Result<u64, NumericTrap> {
                match self {$(
                    UnaOp::$uv => {
                        let $ua = <$uta>::from_slot(x);
                        let r: $utr = $ubody;
                        Ok(r.into_slot())
                    }
                )+}
            }
        }

        /// The table row of `instr`, when it is a numeric instruction.
        #[must_use]
        pub fn classify(instr: &Instr) -> Option<Numeric> {
            Some(match instr {
                $(Instr::$av => Numeric::Alu(AluOp::$av),)+
                $(Instr::$dv => Numeric::Div(DivOp::$dv),)+
                $(Instr::$uv => Numeric::Una(UnaOp::$uv),)+
                _ => return None,
            })
        }

        /// The numeric instruction `opcode` encodes, if any.
        #[must_use]
        pub fn decode(opcode: u8) -> Option<Instr> {
            Some(match opcode {
                $($ao => Instr::$av,)+
                $($do => Instr::$dv,)+
                $($uo => Instr::$uv,)+
                _ => return None,
            })
        }

        impl Numeric {
            /// The instruction's one-byte encoding.
            #[must_use]
            pub fn opcode(self) -> u8 {
                match self {
                    $(Numeric::Alu(AluOp::$av) => $ao,)+
                    $(Numeric::Div(DivOp::$dv) => $do,)+
                    $(Numeric::Una(UnaOp::$uv) => $uo,)+
                }
            }

            /// Parameter types and result type.
            #[must_use]
            pub fn signature(self) -> (&'static [ValType], ValType) {
                match self {
                    $(Numeric::Alu(AluOp::$av) => {
                        (&[<$ata>::TYPE, <$atb>::TYPE], <$atr>::TYPE)
                    })+
                    $(Numeric::Div(DivOp::$dv) => {
                        (&[<$dta>::TYPE, <$dtb>::TYPE], <$dtr>::TYPE)
                    })+
                    $(Numeric::Una(UnaOp::$uv) => (&[<$uta>::TYPE], <$utr>::TYPE),)+
                }
            }

            /// The cycle class the instruction retires in.
            #[must_use]
            pub fn class(self) -> NumericClass {
                match self {
                    $(Numeric::Alu(AluOp::$av) => NumericClass::$ac,)+
                    $(Numeric::Div(DivOp::$dv) => NumericClass::$dc,)+
                    $(Numeric::Una(UnaOp::$uv) => NumericClass::$uc,)+
                }
            }
        }
    };
}

numeric_table! {
    total {
        I32Eq       = 0x46, Simple, |a: i32, b: i32| -> bool { a == b };
        I32Ne       = 0x47, Simple, |a: i32, b: i32| -> bool { a != b };
        I32LtS      = 0x48, Simple, |a: i32, b: i32| -> bool { a < b };
        I32LtU      = 0x49, Simple, |a: u32, b: u32| -> bool { a < b };
        I32GtS      = 0x4A, Simple, |a: i32, b: i32| -> bool { a > b };
        I32GtU      = 0x4B, Simple, |a: u32, b: u32| -> bool { a > b };
        I32LeS      = 0x4C, Simple, |a: i32, b: i32| -> bool { a <= b };
        I32LeU      = 0x4D, Simple, |a: u32, b: u32| -> bool { a <= b };
        I32GeS      = 0x4E, Simple, |a: i32, b: i32| -> bool { a >= b };
        I32GeU      = 0x4F, Simple, |a: u32, b: u32| -> bool { a >= b };
        I64Eq       = 0x51, Simple, |a: i64, b: i64| -> bool { a == b };
        I64Ne       = 0x52, Simple, |a: i64, b: i64| -> bool { a != b };
        I64LtS      = 0x53, Simple, |a: i64, b: i64| -> bool { a < b };
        I64LtU      = 0x54, Simple, |a: u64, b: u64| -> bool { a < b };
        I64GtS      = 0x55, Simple, |a: i64, b: i64| -> bool { a > b };
        I64GtU      = 0x56, Simple, |a: u64, b: u64| -> bool { a > b };
        I64LeS      = 0x57, Simple, |a: i64, b: i64| -> bool { a <= b };
        I64LeU      = 0x58, Simple, |a: u64, b: u64| -> bool { a <= b };
        I64GeS      = 0x59, Simple, |a: i64, b: i64| -> bool { a >= b };
        I64GeU      = 0x5A, Simple, |a: u64, b: u64| -> bool { a >= b };
        F32Eq       = 0x5B, Float,  |a: f32, b: f32| -> bool { a == b };
        F32Ne       = 0x5C, Float,  |a: f32, b: f32| -> bool { a != b };
        F32Lt       = 0x5D, Float,  |a: f32, b: f32| -> bool { a < b };
        F32Gt       = 0x5E, Float,  |a: f32, b: f32| -> bool { a > b };
        F32Le       = 0x5F, Float,  |a: f32, b: f32| -> bool { a <= b };
        F32Ge       = 0x60, Float,  |a: f32, b: f32| -> bool { a >= b };
        F64Eq       = 0x61, Float,  |a: f64, b: f64| -> bool { a == b };
        F64Ne       = 0x62, Float,  |a: f64, b: f64| -> bool { a != b };
        F64Lt       = 0x63, Float,  |a: f64, b: f64| -> bool { a < b };
        F64Gt       = 0x64, Float,  |a: f64, b: f64| -> bool { a > b };
        F64Le       = 0x65, Float,  |a: f64, b: f64| -> bool { a <= b };
        F64Ge       = 0x66, Float,  |a: f64, b: f64| -> bool { a >= b };
        I32Add      = 0x6A, Simple, |a: i32, b: i32| -> i32 { a.wrapping_add(b) };
        I32Sub      = 0x6B, Simple, |a: i32, b: i32| -> i32 { a.wrapping_sub(b) };
        I32Mul      = 0x6C, Simple, |a: i32, b: i32| -> i32 { a.wrapping_mul(b) };
        I32And      = 0x71, Simple, |a: u32, b: u32| -> u32 { a & b };
        I32Or       = 0x72, Simple, |a: u32, b: u32| -> u32 { a | b };
        I32Xor      = 0x73, Simple, |a: u32, b: u32| -> u32 { a ^ b };
        // Shift and rotate counts are taken modulo the width.
        I32Shl      = 0x74, Simple, |a: u32, b: u32| -> u32 { a.wrapping_shl(b) };
        I32ShrS     = 0x75, Simple, |a: i32, b: u32| -> i32 { a.wrapping_shr(b) };
        I32ShrU     = 0x76, Simple, |a: u32, b: u32| -> u32 { a.wrapping_shr(b) };
        I32Rotl     = 0x77, Simple, |a: u32, b: u32| -> u32 { a.rotate_left(b & 31) };
        I32Rotr     = 0x78, Simple, |a: u32, b: u32| -> u32 { a.rotate_right(b & 31) };
        I64Add      = 0x7C, Simple, |a: i64, b: i64| -> i64 { a.wrapping_add(b) };
        I64Sub      = 0x7D, Simple, |a: i64, b: i64| -> i64 { a.wrapping_sub(b) };
        I64Mul      = 0x7E, Simple, |a: i64, b: i64| -> i64 { a.wrapping_mul(b) };
        I64And      = 0x83, Simple, |a: u64, b: u64| -> u64 { a & b };
        I64Or       = 0x84, Simple, |a: u64, b: u64| -> u64 { a | b };
        I64Xor      = 0x85, Simple, |a: u64, b: u64| -> u64 { a ^ b };
        I64Shl      = 0x86, Simple, |a: u64, b: u64| -> u64 { a.wrapping_shl(b as u32) };
        I64ShrS     = 0x87, Simple, |a: i64, b: u64| -> i64 { a.wrapping_shr(b as u32) };
        I64ShrU     = 0x88, Simple, |a: u64, b: u64| -> u64 { a.wrapping_shr(b as u32) };
        I64Rotl     = 0x89, Simple, |a: u64, b: u64| -> u64 { a.rotate_left(b as u32 & 63) };
        I64Rotr     = 0x8A, Simple, |a: u64, b: u64| -> u64 { a.rotate_right(b as u32 & 63) };
        F32Add      = 0x92, Float,  |a: f32, b: f32| -> f32 { a + b };
        F32Sub      = 0x93, Float,  |a: f32, b: f32| -> f32 { a - b };
        F32Mul      = 0x94, Float,  |a: f32, b: f32| -> f32 { a * b };
        F32Min      = 0x96, Float,  |a: f32, b: f32| -> f32 { wasm_fmin32(a, b) };
        F32Max      = 0x97, Float,  |a: f32, b: f32| -> f32 { wasm_fmax32(a, b) };
        F32Copysign = 0x98, Float,  |a: f32, b: f32| -> f32 { a.copysign(b) };
        F64Add      = 0xA0, Float,  |a: f64, b: f64| -> f64 { a + b };
        F64Sub      = 0xA1, Float,  |a: f64, b: f64| -> f64 { a - b };
        F64Mul      = 0xA2, Float,  |a: f64, b: f64| -> f64 { a * b };
        F64Min      = 0xA4, Float,  |a: f64, b: f64| -> f64 { wasm_fmin64(a, b) };
        F64Max      = 0xA5, Float,  |a: f64, b: f64| -> f64 { wasm_fmax64(a, b) };
        F64Copysign = 0xA6, Float,  |a: f64, b: f64| -> f64 { a.copysign(b) };
    }
    trapping {
        // `rem_s MIN, -1` is 0, not a trap: only the quotient overflows.
        I32DivS = 0x6D, Div, |a: i32, b: i32| -> i32 {
            a.checked_div(nonzero(b)?).ok_or(IntegerOverflow)?
        };
        I32DivU = 0x6E, Div, |a: u32, b: u32| -> u32 { a / nonzero(b)? };
        I32RemS = 0x6F, Div, |a: i32, b: i32| -> i32 { a.wrapping_rem(nonzero(b)?) };
        I32RemU = 0x70, Div, |a: u32, b: u32| -> u32 { a % nonzero(b)? };
        I64DivS = 0x7F, Div, |a: i64, b: i64| -> i64 {
            a.checked_div(nonzero(b)?).ok_or(IntegerOverflow)?
        };
        I64DivU = 0x80, Div, |a: u64, b: u64| -> u64 { a / nonzero(b)? };
        I64RemS = 0x81, Div, |a: i64, b: i64| -> i64 { a.wrapping_rem(nonzero(b)?) };
        I64RemU = 0x82, Div, |a: u64, b: u64| -> u64 { a % nonzero(b)? };
        F32Div  = 0x95, FloatDiv, |a: f32, b: f32| -> f32 { a / b };
        F64Div  = 0xA3, FloatDiv, |a: f64, b: f64| -> f64 { a / b };
    }
    unary {
        I32Eqz            = 0x45, Simple,   |a: i32| -> bool { a == 0 };
        I64Eqz            = 0x50, Simple,   |a: i64| -> bool { a == 0 };
        I32Clz            = 0x67, Simple,   |a: u32| -> u32 { a.leading_zeros() };
        I32Ctz            = 0x68, Simple,   |a: u32| -> u32 { a.trailing_zeros() };
        I32Popcnt         = 0x69, Simple,   |a: u32| -> u32 { a.count_ones() };
        I64Clz            = 0x79, Simple,   |a: u64| -> u64 { u64::from(a.leading_zeros()) };
        I64Ctz            = 0x7A, Simple,   |a: u64| -> u64 { u64::from(a.trailing_zeros()) };
        I64Popcnt         = 0x7B, Simple,   |a: u64| -> u64 { u64::from(a.count_ones()) };
        F32Abs            = 0x8B, Float,    |a: f32| -> f32 { a.abs() };
        F32Neg            = 0x8C, Float,    |a: f32| -> f32 { -a };
        F32Ceil           = 0x8D, Float,    |a: f32| -> f32 { a.ceil() };
        F32Floor          = 0x8E, Float,    |a: f32| -> f32 { a.floor() };
        F32Trunc          = 0x8F, Float,    |a: f32| -> f32 { a.trunc() };
        F32Nearest        = 0x90, Float,    |a: f32| -> f32 { a.round_ties_even() };
        F32Sqrt           = 0x91, FloatDiv, |a: f32| -> f32 { a.sqrt() };
        F64Abs            = 0x99, Float,    |a: f64| -> f64 { a.abs() };
        F64Neg            = 0x9A, Float,    |a: f64| -> f64 { -a };
        F64Ceil           = 0x9B, Float,    |a: f64| -> f64 { a.ceil() };
        F64Floor          = 0x9C, Float,    |a: f64| -> f64 { a.floor() };
        F64Trunc          = 0x9D, Float,    |a: f64| -> f64 { a.trunc() };
        F64Nearest        = 0x9E, Float,    |a: f64| -> f64 { a.round_ties_even() };
        F64Sqrt           = 0x9F, FloatDiv, |a: f64| -> f64 { a.sqrt() };
        I32WrapI64        = 0xA7, Free,     |a: u64| -> u32 { a as u32 };
        I32TruncF32S      = 0xA8, Float,    |a: f32| -> i32 { trunc_to_i32(f64::from(a))? };
        I32TruncF32U      = 0xA9, Float,    |a: f32| -> u32 { trunc_to_u32(f64::from(a))? };
        I32TruncF64S      = 0xAA, Float,    |a: f64| -> i32 { trunc_to_i32(a)? };
        I32TruncF64U      = 0xAB, Float,    |a: f64| -> u32 { trunc_to_u32(a)? };
        I64ExtendI32S     = 0xAC, Free,     |a: i32| -> i64 { i64::from(a) };
        I64ExtendI32U     = 0xAD, Free,     |a: u32| -> u64 { u64::from(a) };
        I64TruncF32S      = 0xAE, Float,    |a: f32| -> i64 { trunc_to_i64(f64::from(a))? };
        I64TruncF32U      = 0xAF, Float,    |a: f32| -> u64 { trunc_to_u64(f64::from(a))? };
        I64TruncF64S      = 0xB0, Float,    |a: f64| -> i64 { trunc_to_i64(a)? };
        I64TruncF64U      = 0xB1, Float,    |a: f64| -> u64 { trunc_to_u64(a)? };
        F32ConvertI32S    = 0xB2, Float,    |a: i32| -> f32 { a as f32 };
        F32ConvertI32U    = 0xB3, Float,    |a: u32| -> f32 { a as f32 };
        F32ConvertI64S    = 0xB4, Float,    |a: i64| -> f32 { a as f32 };
        F32ConvertI64U    = 0xB5, Float,    |a: u64| -> f32 { a as f32 };
        F32DemoteF64      = 0xB6, Float,    |a: f64| -> f32 { a as f32 };
        F64ConvertI32S    = 0xB7, Float,    |a: i32| -> f64 { f64::from(a) };
        F64ConvertI32U    = 0xB8, Float,    |a: u32| -> f64 { f64::from(a) };
        F64ConvertI64S    = 0xB9, Float,    |a: i64| -> f64 { a as f64 };
        F64ConvertI64U    = 0xBA, Float,    |a: u64| -> f64 { a as f64 };
        F64PromoteF32     = 0xBB, Float,    |a: f32| -> f64 { f64::from(a) };
        I32ReinterpretF32 = 0xBC, Simple,   |a: f32| -> u32 { a.to_bits() };
        I64ReinterpretF64 = 0xBD, Simple,   |a: f64| -> u64 { a.to_bits() };
        F32ReinterpretI32 = 0xBE, Simple,   |a: u32| -> f32 { f32::from_bits(a) };
        F64ReinterpretI64 = 0xBF, Simple,   |a: u64| -> f64 { f64::from_bits(a) };
        I32Extend8S       = 0xC0, Simple,   |a: i32| -> i32 { i32::from(a as i8) };
        I32Extend16S      = 0xC1, Simple,   |a: i32| -> i32 { i32::from(a as i16) };
        I64Extend8S       = 0xC2, Simple,   |a: i64| -> i64 { i64::from(a as i8) };
        I64Extend16S      = 0xC3, Simple,   |a: i64| -> i64 { i64::from(a as i16) };
        I64Extend32S      = 0xC4, Simple,   |a: i64| -> i64 { i64::from(a as i32) };
    }
}

// -- helpers the rows and the oracle share ----------------------------------

/// `f32.min`: NaN if either operand is, and `-0` below `+0`.
#[must_use]
pub fn wasm_fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

/// `f32.max`: NaN if either operand is, and `+0` above `-0`.
#[must_use]
pub fn wasm_fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else {
        a.max(b)
    }
}

/// `f64.min`: NaN if either operand is, and `-0` below `+0`.
#[must_use]
pub fn wasm_fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() {
            a
        } else {
            b
        }
    } else {
        a.min(b)
    }
}

/// `f64.max`: NaN if either operand is, and `+0` above `-0`.
#[must_use]
pub fn wasm_fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() {
            a
        } else {
            b
        }
    } else {
        a.max(b)
    }
}

/// Trapping truncation toward zero to `i32`.
///
/// # Errors
///
/// `InvalidConversion` for a NaN, `IntegerOverflow` out of range.
pub fn trunc_to_i32(v: f64) -> Result<i32, NumericTrap> {
    if v.is_nan() {
        return Err(InvalidConversion);
    }
    let t = v.trunc();
    if !(-2_147_483_648.0..=2_147_483_647.0).contains(&t) {
        return Err(IntegerOverflow);
    }
    Ok(t as i32)
}

/// Trapping truncation toward zero to `u32`.
///
/// # Errors
///
/// `InvalidConversion` for a NaN, `IntegerOverflow` out of range.
pub fn trunc_to_u32(v: f64) -> Result<u32, NumericTrap> {
    if v.is_nan() {
        return Err(InvalidConversion);
    }
    let t = v.trunc();
    if !(0.0..=4_294_967_295.0).contains(&t) {
        return Err(IntegerOverflow);
    }
    Ok(t as u32)
}

/// Trapping truncation toward zero to `i64`.
///
/// # Errors
///
/// `InvalidConversion` for a NaN, `IntegerOverflow` out of range.
pub fn trunc_to_i64(v: f64) -> Result<i64, NumericTrap> {
    if v.is_nan() {
        return Err(InvalidConversion);
    }
    let t = v.trunc();
    // 2^63 is exactly representable; anything >= it overflows, as does
    // anything < -2^63.
    if !(-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&t) {
        return Err(IntegerOverflow);
    }
    Ok(t as i64)
}

/// Trapping truncation toward zero to `u64`.
///
/// # Errors
///
/// `InvalidConversion` for a NaN, `IntegerOverflow` out of range.
pub fn trunc_to_u64(v: f64) -> Result<u64, NumericTrap> {
    if v.is_nan() {
        return Err(InvalidConversion);
    }
    let t = v.trunc();
    if !(0.0..18_446_744_073_709_551_616.0).contains(&t) {
        return Err(IntegerOverflow);
    }
    Ok(t as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmin_fmax_zero_signs() {
        assert!(wasm_fmin64(0.0, -0.0).is_sign_negative());
        assert!(wasm_fmax64(0.0, -0.0).is_sign_positive());
        assert!(wasm_fmin32(-0.0, 0.0).is_sign_negative());
    }

    #[test]
    fn fmin_fmax_nan_propagation() {
        assert!(wasm_fmin64(f64::NAN, 1.0).is_nan());
        assert!(wasm_fmax32(1.0, f32::NAN).is_nan());
    }

    #[test]
    fn trunc_bounds() {
        assert_eq!(trunc_to_i32(-2_147_483_648.9).unwrap(), i32::MIN);
        assert!(trunc_to_i32(2_147_483_648.0).is_err());
        assert!(trunc_to_i32(f64::NAN).is_err());
        assert_eq!(trunc_to_u32(4_294_967_295.0).unwrap(), u32::MAX);
        assert!(trunc_to_u32(-1.0).is_err());
        assert_eq!(trunc_to_i64(-9.223_372_036_854_776e18).unwrap(), i64::MIN);
        assert!(trunc_to_i64(9.223_372_036_854_776e18).is_err());
        assert_eq!(trunc_to_u64(1.8e19).unwrap(), 18_000_000_000_000_000_000);
        assert!(trunc_to_u64(1.9e19).is_err());
    }

    #[test]
    fn alu_eval_matches_unfused_semantics() {
        let a = slot_i32(-7);
        let b = slot_i32(3);
        assert_eq!(AluOp::I32Add.eval(a, b), slot_i32(-4));
        assert_eq!(AluOp::I32LtU.eval(a, b), 0, "-7 as u32 is large");
        assert_eq!(AluOp::I32LtS.eval(a, b), 1);
        let x = slot_i64(i64::MIN);
        assert_eq!(
            AluOp::I64Sub.eval(x, slot_i64(1)),
            slot_i64(i64::MAX),
            "wrapping"
        );
        let f = slot_f64(1.5);
        let g = slot_f64(-0.0);
        assert_eq!(AluOp::F64Mul.eval(f, f), slot_f64(2.25));
        assert_eq!(
            AluOp::F64Min.eval(slot_f64(0.0), g),
            g,
            "min picks the negative zero"
        );
        let nan = AluOp::F32Add.eval(slot_f32(f32::NAN), f);
        assert!(get_f32(nan).is_nan());
    }
}
