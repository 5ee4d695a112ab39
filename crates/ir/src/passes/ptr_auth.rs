//! The pointer-authentication sanitizer (§6.1, second pass).
//!
//! Instruments "code taking references to functions and performing
//! indirect calls": every `FuncAddr` is immediately signed, and every
//! indirect-call target is authenticated first (lowering then emits the
//! Fig. 9 sequence: `i64.pointer_auth; i32.wrap_i64; call_indirect`).

use crate::instr::{Expr, Operand, Stmt};
use crate::module::{IrFunction, IrModule, ValueId};
use crate::types::IrType;

/// Runs the pass on every function of `module`.
pub fn run(module: &mut IrModule) {
    for func in &mut module.functions {
        let mut body = std::mem::take(&mut func.body);
        let mut work = 0;
        rewrite_body(func, &mut body, &mut work);
        func.body = body;
        crate::passes::add_work(work);
    }
}

/// The function pointer the pass must deal with before `stmt` runs: the
/// freshly taken address to sign, or the call target to authenticate.
fn instrumented(stmt: &mut Stmt) -> Option<&mut Expr> {
    match stmt {
        Stmt::Assign {
            expr: expr @ (Expr::FuncAddr(_) | Expr::CallIndirect { .. }),
            ..
        }
        | Stmt::Perform(expr @ Expr::CallIndirect { .. }) => Some(expr),
        _ => None,
    }
}

/// Makes `expr` go through `reg` and returns the statement to put in
/// front of it, which defines `reg`.
fn instrument(expr: &mut Expr, reg: ValueId) -> Stmt {
    let via = Operand::Value(reg);
    let expr = match expr {
        // Indirect call: authenticate the pointer first.
        Expr::CallIndirect { target, .. } => Expr::PointerAuth(std::mem::replace(target, via)),
        // Taking a function's address: sign it at creation (§4.2 "when
        // creating function pointers, indices into the function table are
        // first zero-extended to 64 bits and then signed").
        addr => std::mem::replace(addr, Expr::PointerSign(via)),
    };
    Stmt::Assign { dst: reg, expr }
}

/// Instruments `body` and the bodies nested in it, in place.
fn rewrite_body(func: &mut IrFunction, body: &mut Vec<Stmt>, work: &mut u64) {
    *work += body.len() as u64;
    // Forwards: a fresh register per instrumented statement, numbered in
    // statement order with the nested bodies' in between.
    let mut fresh: Vec<ValueId> = Vec::new();
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::If { then, els, .. } => {
                rewrite_body(func, then, work);
                rewrite_body(func, els, work);
            }
            Stmt::While { header, body, .. } => {
                rewrite_body(func, header, work);
                rewrite_body(func, body, work);
            }
            other => {
                if instrumented(other).is_some() {
                    fresh.push(func.new_value(IrType::Ptr));
                }
            }
        }
    }
    // Backwards: grow the body by one slot per fresh register and slide
    // the statements into their final places from the end, so that each
    // moves once and the ones in front of the first insertion not at all.
    let mut read = body.len();
    body.resize(read + fresh.len(), Stmt::Break);
    let mut write = body.len();
    while read < write {
        read -= 1;
        write -= 1;
        *work += 1;
        body.swap(read, write);
        if let Some(expr) = instrumented(&mut body[write]) {
            let front = instrument(expr, fresh[write - read - 1]);
            write -= 1;
            body[write] = front;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::FuncId;

    #[test]
    fn func_addr_is_signed() {
        let mut b = FunctionBuilder::new("f", &[], Some(IrType::Ptr));
        let p = b.assign(IrType::Ptr, Expr::FuncAddr(FuncId(0)));
        b.stmt(Stmt::Return(Some(p)));
        let mut m = IrModule::new();
        m.functions.push(b.finish());
        run(&mut m);
        let body = &m.functions[0].body;
        assert!(matches!(
            &body[0],
            Stmt::Assign {
                expr: Expr::FuncAddr(_),
                ..
            }
        ));
        assert!(matches!(
            &body[1],
            Stmt::Assign {
                expr: Expr::PointerSign(_),
                ..
            }
        ));
    }

    #[test]
    fn indirect_call_is_authenticated() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr], Some(IrType::I64));
        let r = b.assign(
            IrType::I64,
            Expr::CallIndirect {
                target: b.param(0),
                params: vec![],
                ret: Some(IrType::I64),
                args: vec![],
            },
        );
        b.stmt(Stmt::Return(Some(r)));
        let mut m = IrModule::new();
        m.functions.push(b.finish());
        run(&mut m);
        let body = &m.functions[0].body;
        assert!(matches!(
            &body[0],
            Stmt::Assign {
                expr: Expr::PointerAuth(_),
                ..
            }
        ));
        // The call's target must now be the authenticated register.
        match &body[1] {
            Stmt::Assign {
                expr: Expr::CallIndirect { target, .. },
                ..
            } => {
                let authed_dst = match &body[0] {
                    Stmt::Assign { dst, .. } => *dst,
                    _ => unreachable!(),
                };
                assert_eq!(target.as_value(), Some(authed_dst));
            }
            other => panic!("expected indirect call, got {other:?}"),
        }
    }

    #[test]
    fn nested_and_perform_calls_are_instrumented() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr, IrType::I32], None);
        b.push_block();
        b.stmt(Stmt::Perform(Expr::CallIndirect {
            target: b.param(0),
            params: vec![],
            ret: None,
            args: vec![],
        }));
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(1),
            then,
            els: vec![],
        });
        let mut m = IrModule::new();
        m.functions.push(b.finish());
        run(&mut m);
        let mut auth_count = 0;
        crate::instr::visit_stmts(&m.functions[0].body, &mut |s| {
            if let Stmt::Assign {
                expr: Expr::PointerAuth(_),
                ..
            } = s
            {
                auth_count += 1;
            }
        });
        assert_eq!(auth_count, 1);
    }

    #[test]
    fn direct_calls_untouched() {
        let mut b = FunctionBuilder::new("f", &[], None);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: crate::instr::Callee::Extern(0),
            args: vec![],
        }));
        let mut m = IrModule::new();
        m.functions.push(b.finish());
        let before = m.functions[0].body.clone();
        run(&mut m);
        assert_eq!(m.functions[0].body, before);
    }
}
