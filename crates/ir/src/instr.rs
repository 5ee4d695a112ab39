//! IR statements, expressions and operators.
//!
//! The IR is a structured register machine: values are virtual registers
//! assigned by [`Stmt::Assign`]; control flow is well-nested (`If`,
//! `While`, `Break`, `Continue`, `Return`), mirroring both C's and WASM's
//! structure so lowering is mechanical.

use crate::module::{AllocaId, FuncId, GlobalId, ValueId};
use crate::types::IrType;

/// Memory access granularity and interpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTy {
    /// 1 byte, sign-extended to i32 (C `signed char`).
    I8,
    /// 1 byte, zero-extended to i32 (C `unsigned char`).
    U8,
    /// 2 bytes, sign-extended to i32 (C `short`).
    I16,
    /// 4 bytes as i32 (C `int`).
    I32,
    /// 8 bytes as i64 (C `long long`).
    I64,
    /// 8 bytes as f64 (C `double`).
    F64,
    /// A pointer: width resolved by the lowering target (8 on wasm64,
    /// 4 on wasm32). [`MemTy::width`] reports the conservative maximum.
    Ptr,
}

impl MemTy {
    /// Access width in bytes.
    #[must_use]
    pub fn width(self) -> u64 {
        match self {
            MemTy::I8 | MemTy::U8 => 1,
            MemTy::I16 => 2,
            MemTy::I32 => 4,
            MemTy::I64 | MemTy::F64 | MemTy::Ptr => 8,
        }
    }

    /// Register type of the loaded/stored value.
    #[must_use]
    pub fn value_type(self) -> IrType {
        match self {
            MemTy::I8 | MemTy::U8 | MemTy::I16 | MemTy::I32 => IrType::I32,
            MemTy::I64 => IrType::I64,
            MemTy::F64 => IrType::F64,
            MemTy::Ptr => IrType::Ptr,
        }
    }
}

/// Binary operators. Integer ops interpret their operands by the
/// expression's type; comparisons yield `i32` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    DivS,
    DivU,
    RemS,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    ShrS,
    ShrU,
    Eq,
    Ne,
    LtS,
    LtU,
    LeS,
    LeU,
    GtS,
    GtU,
    GeS,
    GeU,
}

impl BinOp {
    /// Whether the result is an `i32` boolean regardless of operand type.
    #[must_use]
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Eq | Ne | LtS | LtU | LeS | LeU | GtS | GtU | GeS | GeU
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`x == 0`), yields i32.
    Not,
    /// Bitwise complement.
    BitNot,
    /// Float square root.
    Sqrt,
    /// Float absolute value.
    Fabs,
}

/// A use of a value: register or constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Value(ValueId),
    /// i32 constant.
    ConstI32(i32),
    /// i64 constant.
    ConstI64(i64),
    /// f64 constant.
    ConstF64(f64),
}

impl Operand {
    /// The constant value if this is an integer constant.
    #[must_use]
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Operand::ConstI32(v) => Some(i64::from(*v)),
            Operand::ConstI64(v) => Some(*v),
            _ => None,
        }
    }

    /// The register if this is a value use.
    #[must_use]
    pub fn as_value(&self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(*v),
            _ => None,
        }
    }
}

/// Call target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in this module.
    Local(FuncId),
    /// An imported (host) function.
    Extern(u32),
}

/// Conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CastKind {
    I32ToI64S,
    I32ToI64U,
    I64ToI32,
    I32ToF64S,
    I64ToF64S,
    F64ToI32S,
    F64ToI64S,
    /// Pointer <-> integer of pointer width (no-op bit cast at lowering).
    PtrToInt,
    /// Integer of pointer width -> pointer.
    IntToPtr,
}

/// Right-hand sides of assignments.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Pass a value/constant through.
    Use(Operand),
    /// Binary operation on `ty` operands.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Operand interpretation.
        ty: IrType,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Unary operation.
    UnOp {
        /// Operator.
        op: UnOp,
        /// Operand type.
        ty: IrType,
        /// Operand.
        operand: Operand,
    },
    /// Load from linear memory.
    Load {
        /// Access type.
        ty: MemTy,
        /// Address operand (a `Ptr`).
        addr: Operand,
        /// Constant byte offset folded into the access.
        offset: u64,
    },
    /// Address of a stack allocation.
    AllocaAddr(AllocaId),
    /// Address of a global data object.
    GlobalAddr(GlobalId),
    /// `base + index * scale + offset` address arithmetic (the GEP).
    Gep {
        /// Base pointer.
        base: Operand,
        /// Dynamic index (may be a constant operand).
        index: Operand,
        /// Element size.
        scale: u64,
        /// Constant byte offset.
        offset: u64,
    },
    /// Direct call.
    Call {
        /// Target.
        callee: Callee,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Indirect call through a function pointer.
    CallIndirect {
        /// Function pointer operand.
        target: Operand,
        /// Signature: parameter types.
        params: Vec<IrType>,
        /// Signature: result type.
        ret: Option<IrType>,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// Take the address of a function (a table index at lowering).
    FuncAddr(FuncId),
    /// Conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Operand.
        operand: Operand,
    },
    /// Cage: `segment.new` — returns the tagged pointer.
    SegmentNew {
        /// Segment base (16-byte aligned).
        addr: Operand,
        /// Segment length (16-byte multiple).
        len: Operand,
    },
    /// Cage: derive a tagged pointer for `addr` whose tag is `prev`'s tag
    /// plus one, wrapping 15 -> 1 — the stack-tagging discipline of §4.2
    /// ("subsequent stack allocations use this tag and increment it by
    /// one"), which guarantees adjacent slots in a frame never collide.
    TagIncrement {
        /// Pointer carrying the previous slot's tag.
        prev: Operand,
        /// Raw (untagged) address of the new slot.
        addr: Operand,
    },
    /// Cage: `i64.pointer_sign`.
    PointerSign(Operand),
    /// Cage: `i64.pointer_auth`.
    PointerAuth(Operand),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `dst = expr`.
    Assign {
        /// Destination register.
        dst: ValueId,
        /// Right-hand side.
        expr: Expr,
    },
    /// Evaluate a call for its side effects, discarding any result.
    Perform(Expr),
    /// Store to linear memory.
    Store {
        /// Access type.
        ty: MemTy,
        /// Address operand.
        addr: Operand,
        /// Constant byte offset.
        offset: u64,
        /// Value to store.
        value: Operand,
    },
    /// Two-armed conditional.
    If {
        /// i32 condition.
        cond: Operand,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// `while` loop: `header` recomputes the condition each iteration.
    While {
        /// Statements recomputing the condition.
        header: Vec<Stmt>,
        /// i32 condition operand (defined by `header` or constant).
        cond: Operand,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Exit the innermost loop.
    Break,
    /// Next iteration of the innermost loop.
    Continue,
    /// Return from the function.
    Return(Option<Operand>),
    /// Cage: `segment.set_tag` — retag `addr` with `tagged`'s tag.
    SegmentSetTag {
        /// Region base.
        addr: Operand,
        /// Pointer carrying the new tag.
        tagged: Operand,
        /// Region length.
        len: Operand,
    },
    /// Cage: `segment.free`.
    SegmentFree {
        /// Tagged segment pointer.
        ptr: Operand,
        /// Segment length.
        len: Operand,
    },
}

impl Expr {
    /// Calls `f` on every operand the expression reads, in field order.
    pub fn for_each_operand(&self, f: &mut impl FnMut(&Operand)) {
        match self {
            Expr::Use(op)
            | Expr::PointerSign(op)
            | Expr::PointerAuth(op)
            | Expr::UnOp { operand: op, .. }
            | Expr::Cast { operand: op, .. }
            | Expr::Load { addr: op, .. } => f(op),
            Expr::BinOp { lhs: a, rhs: b, .. }
            | Expr::Gep {
                base: a, index: b, ..
            }
            | Expr::SegmentNew { addr: a, len: b }
            | Expr::TagIncrement { prev: a, addr: b } => {
                f(a);
                f(b);
            }
            Expr::Call { args, .. } => args.iter().for_each(f),
            Expr::CallIndirect { target, args, .. } => {
                f(target);
                args.iter().for_each(f);
            }
            Expr::AllocaAddr(_) | Expr::GlobalAddr(_) | Expr::FuncAddr(_) => {}
        }
    }
}

impl Stmt {
    /// Calls `f` on every operand the statement itself reads — its
    /// expression's operands, its address and value, its condition — and
    /// not on those of nested bodies (combine with [`visit_stmts`]).
    pub fn for_each_operand(&self, f: &mut impl FnMut(&Operand)) {
        match self {
            Stmt::Assign { expr, .. } | Stmt::Perform(expr) => expr.for_each_operand(f),
            Stmt::Store { addr, value, .. } => {
                f(addr);
                f(value);
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => f(cond),
            Stmt::Return(Some(op)) => f(op),
            Stmt::SegmentSetTag { addr, tagged, len } => {
                f(addr);
                f(tagged);
                f(len);
            }
            Stmt::SegmentFree { ptr, len } => {
                f(ptr);
                f(len);
            }
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

/// Walks all statements in a body depth-first, mutably.
pub fn visit_stmts_mut(body: &mut [Stmt], f: &mut impl FnMut(&mut Stmt)) {
    for stmt in body.iter_mut() {
        f(stmt);
        match stmt {
            Stmt::If { then, els, .. } => {
                visit_stmts_mut(then, f);
                visit_stmts_mut(els, f);
            }
            Stmt::While { header, body, .. } => {
                visit_stmts_mut(header, f);
                visit_stmts_mut(body, f);
            }
            _ => {}
        }
    }
}

/// Walks all statements depth-first, immutably.
pub fn visit_stmts(body: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for stmt in body {
        f(stmt);
        match stmt {
            Stmt::If { then, els, .. } => {
                visit_stmts(then, f);
                visit_stmts(els, f);
            }
            Stmt::While { header, body, .. } => {
                visit_stmts(header, f);
                visit_stmts(body, f);
            }
            _ => {}
        }
    }
}

/// Calls `f` on every expression in a statement (not recursing into nested
/// statement bodies — combine with [`visit_stmts`]).
pub fn visit_exprs(stmt: &Stmt, f: &mut impl FnMut(&Expr)) {
    match stmt {
        Stmt::Assign { expr, .. } | Stmt::Perform(expr) => f(expr),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memty_metadata() {
        assert_eq!(MemTy::I8.width(), 1);
        assert_eq!(MemTy::I8.value_type(), IrType::I32);
        assert_eq!(MemTy::F64.width(), 8);
        assert_eq!(MemTy::F64.value_type(), IrType::F64);
    }

    #[test]
    fn comparison_predicate() {
        assert!(BinOp::LtU.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn operand_accessors() {
        assert_eq!(Operand::ConstI32(-3).as_const_int(), Some(-3));
        assert_eq!(Operand::ConstI64(9).as_const_int(), Some(9));
        assert_eq!(Operand::ConstF64(1.0).as_const_int(), None);
        assert_eq!(Operand::Value(ValueId(4)).as_value(), Some(ValueId(4)));
    }

    #[test]
    fn visitor_reaches_nested_statements() {
        let mut body = vec![Stmt::While {
            header: vec![],
            cond: Operand::ConstI32(1),
            body: vec![Stmt::If {
                cond: Operand::ConstI32(0),
                then: vec![Stmt::Break],
                els: vec![Stmt::Continue],
            }],
        }];
        let mut count = 0;
        visit_stmts_mut(&mut body, &mut |_| count += 1);
        assert_eq!(count, 4);
    }
}
