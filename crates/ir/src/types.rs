//! IR value types.

use std::fmt;

/// A first-class IR value type.
///
/// `Ptr` abstracts over the pointer width: it lowers to `i64` on wasm64
/// (where Cage's metadata bits live) and to `i32` on wasm32 baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IrType {
    /// 32-bit integer (C `int`, comparison results).
    I32,
    /// 64-bit integer (C `long long`, sizes).
    I64,
    /// 64-bit float (C `double`).
    F64,
    /// A linear-memory pointer.
    Ptr,
}

impl fmt::Display for IrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IrType::I32 => "i32",
            IrType::I64 => "i64",
            IrType::F64 => "f64",
            IrType::Ptr => "ptr",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(IrType::Ptr.to_string(), "ptr");
        assert_eq!(IrType::F64.to_string(), "f64");
    }
}
