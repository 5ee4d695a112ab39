//! Typed value conversion: the `WasmTy` / `WasmParams` / `WasmResults`
//! trait family backing typed function calls (the wasmtime `TypedFunc`
//! model).
//!
//! Rust argument and result types are checked against a function's WASM
//! signature once, when the typed handle is created, which also resolves
//! the export to its function index. A call then converts its arguments
//! into [`Value`]s, calls that index (no name search; the engine's entry
//! still compares each argument's type, one compare per argument) and
//! converts the result vector back, with no `&[Value]` boilerplate for
//! the caller.

use cage_wasm::ValType;

use crate::value::Value;

/// A Rust type with a canonical WASM value type.
pub trait WasmTy: Copy + Sized + 'static {
    /// The WASM type this Rust type maps to.
    const TYPE: ValType;

    /// Converts into a runtime value.
    fn into_value(self) -> Value;

    /// Converts from a runtime value of the matching type.
    fn from_value(value: Value) -> Option<Self>;
}

impl WasmTy for i32 {
    const TYPE: ValType = ValType::I32;

    fn into_value(self) -> Value {
        Value::I32(self)
    }

    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::I32(v) => Some(v),
            _ => None,
        }
    }
}

impl WasmTy for u32 {
    const TYPE: ValType = ValType::I32;

    fn into_value(self) -> Value {
        Value::I32(self as i32)
    }

    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::I32(v) => Some(v as u32),
            _ => None,
        }
    }
}

impl WasmTy for i64 {
    const TYPE: ValType = ValType::I64;

    fn into_value(self) -> Value {
        Value::I64(self)
    }

    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::I64(v) => Some(v),
            _ => None,
        }
    }
}

impl WasmTy for u64 {
    const TYPE: ValType = ValType::I64;

    fn into_value(self) -> Value {
        Value::I64(self as i64)
    }

    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::I64(v) => Some(v as u64),
            _ => None,
        }
    }
}

impl WasmTy for f32 {
    const TYPE: ValType = ValType::F32;

    fn into_value(self) -> Value {
        Value::F32(self)
    }

    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::F32(v) => Some(v),
            _ => None,
        }
    }
}

impl WasmTy for f64 {
    const TYPE: ValType = ValType::F64;

    fn into_value(self) -> Value {
        Value::F64(self)
    }

    fn from_value(value: Value) -> Option<Self> {
        match value {
            Value::F64(v) => Some(v),
            _ => None,
        }
    }
}

/// A Rust type usable as the parameter list of a typed WASM call: a bare
/// [`WasmTy`], or a tuple of them (including `()`).
pub trait WasmParams {
    /// The WASM parameter types, in order.
    fn val_types() -> Vec<ValType>;

    /// Converts into the argument vector for a call.
    fn into_values(self) -> Vec<Value>;
}

impl<T: WasmTy> WasmParams for T {
    fn val_types() -> Vec<ValType> {
        vec![T::TYPE]
    }

    fn into_values(self) -> Vec<Value> {
        vec![self.into_value()]
    }
}

/// A Rust type usable as the result of a typed WASM call: `()`, a bare
/// [`WasmTy`], or a tuple of them.
pub trait WasmResults: Sized {
    /// The WASM result types, in order.
    fn val_types() -> Vec<ValType>;

    /// Converts the call's result vector; `None` on arity or type
    /// mismatch (which a checked [`WasmResults::val_types`] comparison at
    /// handle-creation time rules out).
    fn from_values(values: &[Value]) -> Option<Self>;
}

impl<T: WasmTy> WasmResults for T {
    fn val_types() -> Vec<ValType> {
        vec![T::TYPE]
    }

    fn from_values(values: &[Value]) -> Option<Self> {
        match values {
            [v] => T::from_value(*v),
            _ => None,
        }
    }
}

macro_rules! impl_wasm_tuple {
    ($(($($name:ident),*)),+ $(,)?) => {$(
        impl<$($name: WasmTy),*> WasmParams for ($($name,)*) {
            fn val_types() -> Vec<ValType> {
                vec![$($name::TYPE),*]
            }

            #[allow(non_snake_case)]
            fn into_values(self) -> Vec<Value> {
                let ($($name,)*) = self;
                vec![$($name.into_value()),*]
            }
        }

        impl<$($name: WasmTy),*> WasmResults for ($($name,)*) {
            fn val_types() -> Vec<ValType> {
                vec![$($name::TYPE),*]
            }

            #[allow(non_snake_case)]
            fn from_values(values: &[Value]) -> Option<Self> {
                match values {
                    [$($name),*] => Some(($($name::from_value(*$name)?,)*)),
                    _ => None,
                }
            }
        }
    )+};
}

impl_wasm_tuple! {
    (),
    (A),
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F),
    (A, B, C, D, E, F, G),
    (A, B, C, D, E, F, G, H),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(i64::from_value(42i64.into_value()), Some(42));
        assert_eq!(u64::from_value(u64::MAX.into_value()), Some(u64::MAX));
        assert_eq!(f64::from_value(1.5f64.into_value()), Some(1.5));
        assert_eq!(i32::from_value(Value::I64(1)), None);
    }

    #[test]
    fn param_tuples_flatten_in_order() {
        assert_eq!(
            <(i64, f64, i32) as WasmParams>::val_types(),
            vec![ValType::I64, ValType::F64, ValType::I32]
        );
        assert_eq!(
            WasmParams::into_values((1i64, 2.0f64, 3i32)),
            vec![Value::I64(1), Value::F64(2.0), Value::I32(3)]
        );
        assert_eq!(<() as WasmParams>::val_types(), Vec::new());
        assert_eq!(WasmParams::into_values(()), Vec::new());
    }

    #[test]
    fn bare_type_params_equal_one_tuples() {
        assert_eq!(
            <i64 as WasmParams>::val_types(),
            <(i64,) as WasmParams>::val_types()
        );
        assert_eq!(
            WasmParams::into_values(7i64),
            WasmParams::into_values((7i64,))
        );
    }

    #[test]
    fn results_check_arity_and_type() {
        assert_eq!(<() as WasmResults>::from_values(&[]), Some(()));
        assert_eq!(<() as WasmResults>::from_values(&[Value::I32(1)]), None);
        assert_eq!(<i64 as WasmResults>::from_values(&[Value::I64(9)]), Some(9));
        assert_eq!(
            <(i64, f64) as WasmResults>::from_values(&[Value::I64(1), Value::F64(0.5)]),
            Some((1, 0.5))
        );
        assert_eq!(
            <(i64, f64) as WasmResults>::from_values(&[Value::I64(1)]),
            None
        );
        assert_eq!(<i64 as WasmResults>::from_values(&[Value::F64(1.0)]), None);
    }
}
