//! Recursive-descent parser with C operator precedence.
//!
//! Recursion depth is explicitly bounded: every recursive choke point
//! (`parse_stmt`, `parse_assignment`, `parse_unary`) counts against
//! `CompileLimits::max_nesting_depth`, so hostile input like a megabyte
//! of `(((((…` or `a=a=a=…` is rejected with a structured error instead
//! of overflowing the host stack.

use crate::ast::{BinOpKind, Expr, ExprKind, FuncDef, GlobalDef, Program, Stmt, UnOpKind};
use crate::error::CompileError;
use crate::lexer::{lex_with, Token, TokenKind};
use crate::types::{CType, FuncSig, StructDef};

/// Parses a translation unit without resource bounds (trusted input).
///
/// # Errors
///
/// [`CompileError`] on malformed input.
pub fn parse(source: &str) -> Result<Program, CompileError> {
    // Even "unlimited" keeps the depth bound: recursion on untrusted
    // text must never be able to overflow the stack, and no legitimate
    // program nests expressions or statements thousands deep.
    let limits = cage_wasm::CompileLimits {
        max_nesting_depth: STACK_SAFE_DEPTH,
        ..cage_wasm::CompileLimits::unlimited()
    };
    parse_with(source, &limits, &limits.fuel())
}

/// Hard ceiling on parser recursion, applied even when the caller asks
/// for a larger `max_nesting_depth`. Recursive descent burns several
/// call frames per nesting level (~10 KiB/level in unoptimised builds),
/// so this is sized for the worst case to fit a 1 MiB thread stack with
/// room to spare. Real programs in the supported subset nest a handful
/// of levels deep; PolyBench tops out around ten.
const STACK_SAFE_DEPTH: usize = 96;

/// Parses a translation unit under explicit resource bounds.
///
/// # Errors
///
/// [`CompileError`] on malformed input or a busted limit (see
/// [`CompileError::limit`]).
pub fn parse_with(
    source: &str,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<Program, CompileError> {
    let tokens = lex_with(source, limits, fuel)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        program: Program::default(),
        depth: 0,
        max_depth: limits.max_nesting_depth.min(STACK_SAFE_DEPTH),
        fuel,
    };
    p.parse_program()?;
    Ok(p.program)
}

const TYPE_KEYWORDS: &[&str] = &["void", "char", "int", "long", "double", "struct"];
const IGNORED_QUALIFIERS: &[&str] = &[
    "static", "const", "register", "volatile", "inline", "unsigned", "signed",
];

struct Parser<'src, 'f> {
    tokens: Vec<Token<'src>>,
    pos: usize,
    program: Program,
    /// Current recursion depth across the guarded entry points.
    depth: usize,
    /// Bound on `depth`; busting it is a limit error, not a crash.
    max_depth: usize,
    fuel: &'f cage_wasm::CompileFuel,
}

impl<'src> Parser<'src, '_> {
    /// Enters one guarded recursion level; pair with [`Self::leave`].
    fn enter(&mut self) -> Result<(), CompileError> {
        self.fuel.charge(1).map_err(CompileError::from_limit)?;
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(CompileError::from_limit(cage_wasm::LimitError {
                what: "parser nesting depth",
                limit: self.max_depth as u64,
                actual: self.max_depth as u64 + 1,
            }));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &TokenKind<'src> {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind<'src> {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    /// Takes the current token: a copy of two words for everything that
    /// borrows (identifiers, keywords, punctuation); only a string
    /// literal's unescaped text is cloned.
    fn bump(&mut self) -> TokenKind<'src> {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), message)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), TokenKind::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), TokenKind::Ident(s) if *s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, CompileError> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s.to_string()),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn skip_qualifiers(&mut self) {
        loop {
            let is_qual =
                matches!(self.peek(), TokenKind::Ident(s) if IGNORED_QUALIFIERS.contains(s));
            if is_qual {
                self.bump();
            } else {
                return;
            }
        }
    }

    fn at_type(&self) -> bool {
        match self.peek() {
            TokenKind::Ident(s) => TYPE_KEYWORDS.contains(s) || IGNORED_QUALIFIERS.contains(s),
            _ => false,
        }
    }

    fn parse_program(&mut self) -> Result<(), CompileError> {
        while !matches!(self.peek(), TokenKind::Eof) {
            self.skip_qualifiers();
            // struct definition?
            if matches!(self.peek(), TokenKind::Ident("struct"))
                && matches!(self.peek_at(2), TokenKind::Punct("{"))
            {
                self.parse_struct_def()?;
                continue;
            }
            let ty = self.parse_type()?;
            let line = self.line();
            // Function-pointer global or named declarator.
            let (name, full_ty, is_funcptr_decl) = self.parse_declarator(ty)?;
            if !is_funcptr_decl && matches!(self.peek(), TokenKind::Punct("(")) {
                // Function definition / prototype.
                self.parse_function(name, full_ty, line)?;
            } else {
                let init = if self.eat_punct("=") {
                    Some(self.parse_assignment()?)
                } else {
                    None
                };
                self.expect_punct(";")?;
                self.program.globals.push(GlobalDef {
                    name,
                    ty: full_ty,
                    init,
                    line,
                });
            }
        }
        Ok(())
    }

    fn parse_struct_def(&mut self) -> Result<(), CompileError> {
        self.bump(); // struct
        let name = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        while !self.eat_punct("}") {
            self.skip_qualifiers();
            let base = self.parse_type()?;
            loop {
                let (fname, fty, _) = self.parse_declarator(base.clone())?;
                fields.push((fname, fty));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(";")?;
        }
        self.expect_punct(";")?;
        self.program.structs.defs.push(StructDef { name, fields });
        Ok(())
    }

    /// Parses a base type plus leading pointer stars.
    fn parse_type(&mut self) -> Result<CType, CompileError> {
        self.skip_qualifiers();
        let base = match self.bump() {
            TokenKind::Ident(s) => match s {
                "void" => CType::Void,
                "char" => CType::Char,
                "int" => CType::Int,
                "long" => {
                    // Accept `long long` and `long int`.
                    self.eat_keyword("long");
                    self.eat_keyword("int");
                    CType::Long
                }
                "double" => CType::Double,
                "struct" => {
                    let tag = self.expect_ident()?;
                    let id = self
                        .program
                        .structs
                        .id_of(&tag)
                        .ok_or_else(|| self.err(format!("unknown struct `{tag}`")))?;
                    CType::Struct(id)
                }
                other => return Err(self.err(format!("expected type, found `{other}`"))),
            },
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        self.parse_pointers(base)
    }

    fn parse_pointers(&mut self, mut ty: CType) -> Result<CType, CompileError> {
        while self.eat_punct("*") {
            self.skip_qualifiers();
            ty = ty.ptr_to();
        }
        Ok(ty)
    }
}

// Rust requires the ? on parse_pointers’ recursion; keep signatures uniform.
impl<'src> Parser<'src, '_> {
    /// Parses a declarator after the base type: `name`, `name[N]...`, or
    /// the function-pointer form `(*name)(params)`. Returns
    /// `(name, type, was_function_pointer)`.
    fn parse_declarator(&mut self, base: CType) -> Result<(String, CType, bool), CompileError> {
        if self.eat_punct("(") {
            self.expect_punct("*")?;
            let name = self.expect_ident()?;
            self.expect_punct(")")?;
            self.expect_punct("(")?;
            let params = self.parse_param_types()?;
            Ok((
                name,
                CType::FuncPtr(Box::new(FuncSig { params, ret: base })),
                true,
            ))
        } else {
            let name = self.expect_ident()?;
            let mut dims = Vec::new();
            while self.eat_punct("[") {
                let n = match self.bump() {
                    TokenKind::Int(v) if v > 0 => v as u64,
                    other => return Err(self.err(format!("expected array size, found {other:?}"))),
                };
                self.expect_punct("]")?;
                dims.push(n);
            }
            let mut ty = base;
            for n in dims.into_iter().rev() {
                ty = CType::Array(Box::new(ty), n);
            }
            Ok((name, ty, false))
        }
    }

    /// Parses `type, type, …)` for function-pointer signatures.
    fn parse_param_types(&mut self) -> Result<Vec<CType>, CompileError> {
        let mut params = Vec::new();
        if self.eat_punct(")") {
            return Ok(params);
        }
        loop {
            let ty = self.parse_type()?;
            if ty != CType::Void {
                // Optional parameter names in prototypes.
                if matches!(self.peek(), TokenKind::Ident(_)) && !self.at_type() {
                    self.bump();
                }
                params.push(ty);
            }
            if self.eat_punct(")") {
                return Ok(params);
            }
            self.expect_punct(",")?;
        }
    }

    fn parse_function(&mut self, name: String, ret: CType, line: u32) -> Result<(), CompileError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                self.skip_qualifiers();
                let ty = self.parse_type()?;
                if ty == CType::Void && !matches!(self.peek(), TokenKind::Ident(_)) {
                    self.expect_punct(")")?;
                    break;
                }
                let (pname, pty, _) = self.parse_declarator(ty)?;
                params.push((pname, pty.decayed()));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = if self.eat_punct(";") {
            None
        } else {
            Some(self.parse_block()?)
        };
        self.program.funcs.push(FuncDef {
            name,
            ret,
            params,
            body,
            line,
        });
        Ok(())
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CompileError> {
        self.enter()?;
        let r = self.parse_stmt_inner();
        self.leave();
        r
    }

    #[allow(clippy::too_many_lines)]
    fn parse_stmt_inner(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        if self.at_type() {
            return self.parse_decl_stmt();
        }
        match self.peek() {
            TokenKind::Punct("{") => Ok(Stmt::Block(self.parse_block()?)),
            TokenKind::Ident("if") => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                let then = self.parse_stmt_as_block()?;
                let els = if self.eat_keyword("else") {
                    self.parse_stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            TokenKind::Ident("while") => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            TokenKind::Ident("for") => {
                self.bump();
                self.expect_punct("(")?;
                let init = if self.eat_punct(";") {
                    None
                } else if self.at_type() {
                    Some(Box::new(self.parse_decl_stmt()?))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(";")?;
                    Some(Box::new(Stmt::Expr(e)))
                };
                let cond = if matches!(self.peek(), TokenKind::Punct(";")) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(";")?;
                let step = if matches!(self.peek(), TokenKind::Punct(")")) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(")")?;
                let body = self.parse_stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            TokenKind::Ident("return") => {
                self.bump();
                let value = if matches!(self.peek(), TokenKind::Punct(";")) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(";")?;
                Ok(Stmt::Return(value, line))
            }
            TokenKind::Ident("break") => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Break(line))
            }
            TokenKind::Ident("continue") => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Continue(line))
            }
            _ => {
                let e = self.parse_expr()?;
                self.expect_punct(";")?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if matches!(self.peek(), TokenKind::Punct("{")) {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    fn parse_decl_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        let base = self.parse_type()?;
        let (name, ty, _) = self.parse_declarator(base)?;
        let (init, brace_init) = if self.eat_punct("=") {
            if matches!(self.peek(), TokenKind::Punct("{")) {
                (None, Some(self.parse_brace_init()?))
            } else {
                (Some(self.parse_assignment()?), None)
            }
        } else {
            (None, None)
        };
        self.expect_punct(";")?;
        Ok(Stmt::Decl {
            name,
            ty,
            init,
            brace_init,
            line,
        })
    }

    fn parse_brace_init(&mut self) -> Result<Vec<(Option<String>, Expr)>, CompileError> {
        self.expect_punct("{")?;
        let mut items = Vec::new();
        if self.eat_punct("}") {
            return Ok(items);
        }
        loop {
            let field = if self.eat_punct(".") {
                let name = self.expect_ident()?;
                self.expect_punct("=")?;
                Some(name)
            } else {
                None
            };
            items.push((field, self.parse_assignment()?));
            if self.eat_punct("}") {
                return Ok(items);
            }
            self.expect_punct(",")?;
        }
    }

    // -- expressions ---------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, CompileError> {
        self.parse_assignment()
    }

    fn parse_assignment(&mut self) -> Result<Expr, CompileError> {
        self.enter()?;
        let r = self.parse_assignment_inner();
        self.leave();
        r
    }

    fn parse_assignment_inner(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let lhs = self.parse_logical_or()?;
        let op = match self.peek() {
            TokenKind::Punct("=") => None,
            TokenKind::Punct("+=") => Some(BinOpKind::Add),
            TokenKind::Punct("-=") => Some(BinOpKind::Sub),
            TokenKind::Punct("*=") => Some(BinOpKind::Mul),
            TokenKind::Punct("/=") => Some(BinOpKind::Div),
            TokenKind::Punct("%=") => Some(BinOpKind::Rem),
            TokenKind::Punct("&=") => Some(BinOpKind::And),
            TokenKind::Punct("|=") => Some(BinOpKind::Or),
            TokenKind::Punct("^=") => Some(BinOpKind::Xor),
            TokenKind::Punct("<<=") => Some(BinOpKind::Shl),
            TokenKind::Punct(">>=") => Some(BinOpKind::Shr),
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_assignment()?;
        Ok(Expr::new(
            ExprKind::Assign(op, Box::new(lhs), Box::new(rhs)),
            line,
        ))
    }

    fn parse_logical_or(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_logical_and()?;
        while matches!(self.peek(), TokenKind::Punct("||")) {
            let line = self.line();
            self.bump();
            let rhs = self.parse_logical_and()?;
            lhs = Expr::new(ExprKind::LogOr(Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    fn parse_logical_and(&mut self) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_binary(0)?;
        while matches!(self.peek(), TokenKind::Punct("&&")) {
            let line = self.line();
            self.bump();
            let rhs = self.parse_binary(0)?;
            lhs = Expr::new(ExprKind::LogAnd(Box::new(lhs), Box::new(rhs)), line);
        }
        Ok(lhs)
    }

    /// Precedence-climbing over the non-short-circuit binary operators.
    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Punct("|") => (BinOpKind::Or, 1),
                TokenKind::Punct("^") => (BinOpKind::Xor, 2),
                TokenKind::Punct("&") => (BinOpKind::And, 3),
                TokenKind::Punct("==") => (BinOpKind::Eq, 4),
                TokenKind::Punct("!=") => (BinOpKind::Ne, 4),
                TokenKind::Punct("<") => (BinOpKind::Lt, 5),
                TokenKind::Punct("<=") => (BinOpKind::Le, 5),
                TokenKind::Punct(">") => (BinOpKind::Gt, 5),
                TokenKind::Punct(">=") => (BinOpKind::Ge, 5),
                TokenKind::Punct("<<") => (BinOpKind::Shl, 6),
                TokenKind::Punct(">>") => (BinOpKind::Shr, 6),
                TokenKind::Punct("+") => (BinOpKind::Add, 7),
                TokenKind::Punct("-") => (BinOpKind::Sub, 7),
                TokenKind::Punct("*") => (BinOpKind::Mul, 8),
                TokenKind::Punct("/") => (BinOpKind::Div, 8),
                TokenKind::Punct("%") => (BinOpKind::Rem, 8),
                _ => return Ok(lhs),
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            let line = self.line();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::new(ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)), line);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, CompileError> {
        self.enter()?;
        let r = self.parse_unary_inner();
        self.leave();
        r
    }

    fn parse_unary_inner(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        // Cast: "(" type ... ")" unary
        if matches!(self.peek(), TokenKind::Punct("("))
            && matches!(self.peek_at(1), TokenKind::Ident(s) if TYPE_KEYWORDS.contains(s))
        {
            self.bump();
            let ty = self.parse_type()?;
            self.expect_punct(")")?;
            let inner = self.parse_unary()?;
            return Ok(Expr::new(ExprKind::Cast(ty, Box::new(inner)), line));
        }
        match self.peek() {
            TokenKind::Punct("-") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Un(UnOpKind::Neg, Box::new(e)), line))
            }
            TokenKind::Punct("!") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Un(UnOpKind::Not, Box::new(e)), line))
            }
            TokenKind::Punct("~") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Un(UnOpKind::BitNot, Box::new(e)), line))
            }
            TokenKind::Punct("*") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Un(UnOpKind::Deref, Box::new(e)), line))
            }
            TokenKind::Punct("&") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::Un(UnOpKind::AddrOf, Box::new(e)), line))
            }
            TokenKind::Punct("++") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::PreIncDec(true, Box::new(e)), line))
            }
            TokenKind::Punct("--") => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(Expr::new(ExprKind::PreIncDec(false, Box::new(e)), line))
            }
            TokenKind::Ident("sizeof") => {
                self.bump();
                self.expect_punct("(")?;
                let ty = self.parse_type()?;
                self.expect_punct(")")?;
                Ok(Expr::new(ExprKind::SizeOf(ty), line))
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.parse_primary()?;
        loop {
            let line = self.line();
            if self.eat_punct("(") {
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.parse_assignment()?);
                        if self.eat_punct(")") {
                            break;
                        }
                        self.expect_punct(",")?;
                    }
                }
                e = Expr::new(ExprKind::Call(Box::new(e), args), line);
            } else if self.eat_punct("[") {
                let idx = self.parse_expr()?;
                self.expect_punct("]")?;
                e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), line);
            } else if self.eat_punct(".") {
                let field = self.expect_ident()?;
                e = Expr::new(ExprKind::Member(Box::new(e), field), line);
            } else if self.eat_punct("->") {
                let field = self.expect_ident()?;
                e = Expr::new(ExprKind::Arrow(Box::new(e), field), line);
            } else if self.eat_punct("++") {
                e = Expr::new(ExprKind::PostIncDec(true, Box::new(e)), line);
            } else if self.eat_punct("--") {
                e = Expr::new(ExprKind::PostIncDec(false, Box::new(e)), line);
            } else {
                return Ok(e);
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::new(ExprKind::IntLit(v), line)),
            TokenKind::Float(v) => Ok(Expr::new(ExprKind::FloatLit(v), line)),
            TokenKind::Str(s) => Ok(Expr::new(ExprKind::StrLit(s), line)),
            TokenKind::Char(c) => Ok(Expr::new(ExprKind::CharLit(c), line)),
            TokenKind::Ident(s) => Ok(Expr::new(ExprKind::Ident(s.to_string()), line)),
            TokenKind::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            other => Err(CompileError::new(
                line,
                format!("expected expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_with_params() {
        let p = parse("long add(long a, long b) { return a + b; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "add");
        assert_eq!(p.funcs[0].params.len(), 2);
        assert!(p.funcs[0].body.is_some());
    }

    #[test]
    fn parses_struct_and_function_pointers() {
        let p = parse(
            "struct VTable { void (*f)(); void (*g)(); };\n\
             int use(struct VTable* v) { v->f(); return 0; }",
        )
        .unwrap();
        assert_eq!(p.structs.defs.len(), 1);
        assert_eq!(p.structs.defs[0].fields.len(), 2);
        assert!(matches!(p.structs.defs[0].fields[0].1, CType::FuncPtr(_)));
    }

    #[test]
    fn parses_multidim_arrays() {
        let p = parse("double A[16][32]; int main() { A[1][2] = 3.0; return 0; }").unwrap();
        assert_eq!(
            p.globals[0].ty,
            CType::Array(Box::new(CType::Array(Box::new(CType::Double), 32)), 16)
        );
    }

    #[test]
    fn parses_for_loops_and_compound_assign() {
        let p =
            parse("int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s; }")
                .unwrap();
        let body = p.funcs[0].body.as_ref().unwrap();
        assert!(matches!(&body[1], Stmt::For { .. }));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("int f() { return 1 + 2 * 3; }").unwrap();
        let body = p.funcs[0].body.as_ref().unwrap();
        match &body[0] {
            Stmt::Return(Some(e), _) => match &e.kind {
                ExprKind::Bin(BinOpKind::Add, _, rhs) => {
                    assert!(matches!(rhs.kind, ExprKind::Bin(BinOpKind::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_casts_and_sizeof() {
        let p = parse("long f(double x) { return (long)x + (long)sizeof(double); }").unwrap();
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn parses_designated_initialisers() {
        let p = parse(
            "struct V { int a; int b; };\n\
             int f() { struct V v = {.a = 1, .b = 2}; return v.a; }",
        )
        .unwrap();
        let body = p.funcs[0].body.as_ref().unwrap();
        match &body[0] {
            Stmt::Decl { brace_init, .. } => {
                assert_eq!(brace_init.as_ref().unwrap().len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prototypes_without_bodies() {
        let p = parse("long helper(long x);").unwrap();
        assert!(p.funcs[0].body.is_none());
    }

    #[test]
    fn preprocessor_and_static_ignored() {
        let p =
            parse("#include <stdio.h>\nstatic int x = 3;\nstatic int f() { return x; }").unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.funcs.len(), 1);
    }

    #[test]
    fn error_reports_line() {
        let err = parse("int f() {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
