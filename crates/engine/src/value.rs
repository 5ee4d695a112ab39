//! Runtime values.

use std::fmt;

use cage_wasm::numeric::{
    get_f32, get_f64, get_i32, get_i64, slot_f32, slot_f64, slot_i32, slot_i64,
};
use cage_wasm::ValType;

/// A WebAssembly runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer (also carries Cage tagged pointers).
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Value {
    /// The value's type.
    #[must_use]
    pub fn ty(&self) -> ValType {
        match self {
            Value::I32(_) => ValType::I32,
            Value::I64(_) => ValType::I64,
            Value::F32(_) => ValType::F32,
            Value::F64(_) => ValType::F64,
        }
    }

    /// The zero value of `ty` (local-variable default).
    #[must_use]
    pub fn zero(ty: ValType) -> Value {
        match ty {
            ValType::I32 => Value::I32(0),
            ValType::I64 => Value::I64(0),
            ValType::F32 => Value::F32(0.0),
            ValType::F64 => Value::F64(0.0),
        }
    }

    /// Unwraps an `i32`.
    ///
    /// # Panics
    ///
    /// Panics if the value has a different type (validated code never does).
    #[must_use]
    pub fn as_i32(&self) -> i32 {
        match self {
            Value::I32(v) => *v,
            other => panic!("expected i32, found {other:?}"),
        }
    }

    /// Unwraps an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the value has a different type.
    #[must_use]
    pub fn as_i64(&self) -> i64 {
        match self {
            Value::I64(v) => *v,
            other => panic!("expected i64, found {other:?}"),
        }
    }

    /// Unwraps an `i64` as unsigned (tagged-pointer view).
    ///
    /// # Panics
    ///
    /// Panics if the value has a different type.
    #[must_use]
    pub fn as_u64(&self) -> u64 {
        self.as_i64() as u64
    }

    /// Unwraps an `f32`.
    ///
    /// # Panics
    ///
    /// Panics if the value has a different type.
    #[must_use]
    pub fn as_f32(&self) -> f32 {
        match self {
            Value::F32(v) => *v,
            other => panic!("expected f32, found {other:?}"),
        }
    }

    /// Unwraps an `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the value has a different type.
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            other => panic!("expected f64, found {other:?}"),
        }
    }

    /// Encodes the value into an untagged 64-bit operand slot — the
    /// interpreter's runtime representation. Validation guarantees types,
    /// so slots carry no tag; the encoding itself is defined once, in
    /// [`cage_wasm::numeric`] (`slot_*`/`get_*`).
    #[must_use]
    pub fn to_slot(self) -> u64 {
        match self {
            Value::I32(v) => slot_i32(v),
            Value::I64(v) => slot_i64(v),
            Value::F32(v) => slot_f32(v),
            Value::F64(v) => slot_f64(v),
        }
    }

    /// Decodes an untagged operand slot back into a typed value — the
    /// inverse of [`Value::to_slot`], used where slots cross the embedder
    /// API boundary (host calls, globals, call results).
    #[must_use]
    pub fn from_slot(ty: ValType, raw: u64) -> Value {
        match ty {
            ValType::I32 => Value::I32(get_i32(raw)),
            ValType::I64 => Value::I64(get_i64(raw)),
            ValType::F32 => Value::F32(get_f32(raw)),
            ValType::F64 => Value::F64(get_f64(raw)),
        }
    }

    /// Bit-exact equality (distinguishes NaN payloads, unlike `PartialEq`).
    #[must_use]
    pub fn bit_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::I32(a), Value::I32(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            (Value::F32(a), Value::F32(b)) => a.to_bits() == b.to_bits(),
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}: i32"),
            Value::I64(v) => write!(f, "{v}: i64"),
            Value::F32(v) => write!(f, "{v}: f32"),
            Value::F64(v) => write!(f, "{v}: f64"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::I64(v as i64)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_and_zeros() {
        for ty in [ValType::I32, ValType::I64, ValType::F32, ValType::F64] {
            assert_eq!(Value::zero(ty).ty(), ty);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::I32(-1).as_i32(), -1);
        assert_eq!(Value::I64(-1).as_u64(), u64::MAX);
        assert_eq!(Value::F64(1.5).as_f64(), 1.5);
    }

    #[test]
    #[should_panic(expected = "expected i64")]
    fn wrong_accessor_panics() {
        let _ = Value::I32(0).as_i64();
    }

    #[test]
    fn bit_eq_distinguishes_nan_payloads() {
        let q = Value::F32(f32::from_bits(0x7FC0_0000));
        let s = Value::F32(f32::from_bits(0x7FC0_0001));
        assert!(q.bit_eq(&q));
        assert!(!q.bit_eq(&s));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(7i32), Value::I32(7));
        assert_eq!(Value::from(u64::MAX), Value::I64(-1));
        assert_eq!(Value::from(2.0f64), Value::F64(2.0));
    }
}
