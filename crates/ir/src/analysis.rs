//! Alloca analyses backing Algorithm 1: escape analysis and
//! statically-unverifiable-GEP detection.
//!
//! The paper instruments a stack allocation when it (i) escapes the
//! function or (ii) is addressed through a GEP the compiler cannot verify
//! statically; everything else keeps its zero-cost untagged slot (§4.2
//! "Cage omits the instrumentation of stack allocations that (i) do not
//! escape the function or (ii) are only accessed using statically
//! verifiable indices").
//!
//! # The graph
//!
//! Which allocas a register may point into does not depend on statement
//! order (registers are reassigned, loops carry pointers backwards), so
//! it is reachability in a graph over the dense [`ValueId`]s: an edge
//! `src → dst` for every assignment `dst = f(src)` that can carry a
//! pointer through (`Use`, sign/auth, casts, unary and binary arithmetic,
//! a `Gep`'s base, the address of `SegmentNew`/`TagIncrement`), and a
//! *root* at the destination of every `AllocaAddr(id)`. Loads and call
//! results start nothing: whatever put an alloca pointer behind them
//! already made the alloca escape. A register may point into alloca `id`
//! exactly when it is reachable from one of `id`'s roots.
//!
//! # The sinks
//!
//! Four kinds of use decide an alloca's fate, and each hangs a demand on
//! the register it goes through (`Need`):
//!
//! 1. **escape** — the register is stored *as a value*, returned, or is
//!    an argument or the target of a call: every alloca behind it
//!    escapes;
//! 2. **dynamic `Gep`** — the register is the base of a `Gep` whose index
//!    is not an integer constant: every alloca behind it is unverifiable;
//! 3. **access** — a load or store through the register touches bytes up
//!    to `offset + width`;
//! 4. **constant `Gep`** — a `Gep` on the register with constant index
//!    `k` lands on byte `k * scale + offset`.
//!
//! The first two are yes-or-no. The last two depend on the size of the
//! alloca that ends up behind the register (`offset + width > size`, end
//! `≥ max(size, 1)`), and one register can stand for allocas of many
//! sizes — but both predicates are monotone in the number, so all an
//! alloca needs to know is the *largest* access end and the largest `Gep`
//! end among everything reachable from its roots. A negative or
//! overflowing constant index fails for every size, as a dynamic one
//! does; all three are the end `u64::MAX`, so kind 2 rides on kind 4's
//! number.
//!
//! # The computation
//!
//! One walk over the body collects edges, roots and each register's own
//! `Need`; the edges become a CSR table by source. Tarjan's algorithm,
//! started from the roots only (so it never touches the registers no
//! alloca flows into — most of them, after `mem2reg`), finishes
//! components successors-first; a register's need is its own joined with
//! its successors', and a finished component shares one need. Every
//! register and edge is handled once: time and memory are
//! `O(values + statements)`, where the per-register alloca sets this
//! replaces (`passes_model.rs` keeps them) cost a set clone per operand
//! read, a whole-function rescan per propagation step, and
//! `values × allocas` memory when many pointers may alias many arrays.

use crate::instr::{Expr, Operand, Stmt};
use crate::module::{value_slot, AllocaId, IrFunction, ValueId};
use crate::passes::add_work;

/// Per-alloca analysis results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocaAnalysis {
    /// `escapes[i]`: the address of alloca `i` leaves the function.
    pub escapes: Vec<bool>,
    /// `unsafe_gep[i]`: alloca `i` is addressed with an index that cannot
    /// be verified statically.
    pub unsafe_gep: Vec<bool>,
}

impl AllocaAnalysis {
    /// Whether Algorithm 1 instruments alloca `id`.
    #[must_use]
    pub fn needs_instrumentation(&self, id: AllocaId) -> bool {
        self.escapes[id.0 as usize] || self.unsafe_gep[id.0 as usize]
    }
}

/// What the uses of a register — its own and those of everything derived
/// from it — demand of any alloca it may point into.
#[derive(Debug, Clone, Copy, Default)]
struct Need {
    /// Some use publishes the pointer.
    escapes: bool,
    /// Largest `offset + width` of a load or store through it.
    access_end: u64,
    /// Largest byte a constant-index `Gep` on it lands on; `u64::MAX` for
    /// an index that is negative, overflows, or is not a constant.
    gep_end: u64,
}

impl Need {
    fn join(&mut self, other: Need) {
        self.escapes |= other.escapes;
        self.access_end = self.access_end.max(other.access_end);
        self.gep_end = self.gep_end.max(other.gep_end);
    }
}

/// The derivation graph of one function: per-register needs, edges, roots.
#[derive(Default)]
struct Flow {
    needs: Vec<Need>,
    /// `(src, dst)`: `dst` is assigned something derived from `src`.
    edges: Vec<(u32, u32)>,
    /// `(dst, id)`: `dst = AllocaAddr(id)`.
    roots: Vec<(u32, AllocaId)>,
}

impl Flow {
    fn need(&mut self, op: &Operand) -> Option<&mut Need> {
        op.as_value().map(|v| value_slot(&mut self.needs, v))
    }

    fn escape(&mut self, op: &Operand) {
        if let Some(need) = self.need(op) {
            need.escapes = true;
        }
    }

    fn access(&mut self, addr: &Operand, offset: u64, width: u64) {
        if let Some(need) = self.need(addr) {
            need.access_end = need.access_end.max(offset.saturating_add(width));
        }
    }

    fn edge(&mut self, src: &Operand, dst: ValueId) {
        if let Some(src) = src.as_value() {
            self.edges.push((src.0, dst.0));
        }
    }

    fn collect(&mut self, stmt: &Stmt) {
        match stmt {
            // Storing a derived pointer *as a value* publishes it.
            Stmt::Store {
                ty,
                addr,
                offset,
                value,
            } => {
                self.escape(value);
                self.access(addr, *offset, ty.width());
            }
            Stmt::Return(Some(op)) => self.escape(op),
            Stmt::Assign { expr, .. } | Stmt::Perform(expr) => match expr {
                Expr::Call { args, .. } => args.iter().for_each(|a| self.escape(a)),
                Expr::CallIndirect { target, args, .. } => {
                    self.escape(target);
                    args.iter().for_each(|a| self.escape(a));
                }
                Expr::Load { ty, addr, offset } => self.access(addr, *offset, ty.width()),
                Expr::Gep {
                    base,
                    index,
                    scale,
                    offset,
                } => {
                    // Statically verifiable index: where does it land?
                    let end = index
                        .as_const_int()
                        .and_then(|k| u64::try_from(k).ok())
                        .and_then(|k| k.checked_mul(*scale))
                        .and_then(|b| b.checked_add(*offset))
                        .unwrap_or(u64::MAX);
                    if let Some(need) = self.need(base) {
                        need.gep_end = need.gep_end.max(end);
                    }
                }
                _ => {}
            },
            _ => {}
        }
        if let Stmt::Assign { dst, expr } = stmt {
            match expr {
                Expr::AllocaAddr(id) => self.roots.push((dst.0, *id)),
                Expr::Use(op)
                | Expr::PointerSign(op)
                | Expr::PointerAuth(op)
                | Expr::Cast { operand: op, .. }
                | Expr::UnOp { operand: op, .. }
                | Expr::Gep { base: op, .. }
                | Expr::SegmentNew { addr: op, .. }
                | Expr::TagIncrement { addr: op, .. } => self.edge(op, *dst),
                Expr::BinOp { lhs, rhs, .. } => {
                    self.edge(lhs, *dst);
                    self.edge(rhs, *dst);
                }
                // Loads and call results are not tracked: the flows
                // that put an alloca pointer behind them already
                // marked the alloca as escaping.
                Expr::Load { .. }
                | Expr::Call { .. }
                | Expr::CallIndirect { .. }
                | Expr::FuncAddr(_)
                | Expr::GlobalAddr(_) => {}
            }
        }
    }

    /// Replaces every register's own need by the join over everything
    /// reachable from it, for the registers reachable from a root.
    /// Returns the nodes and edges visited.
    fn propagate(&mut self) -> u64 {
        let n = self
            .edges
            .iter()
            .map(|&(src, dst)| src.max(dst))
            .chain(self.roots.iter().map(|&(dst, _)| dst))
            .max()
            .map_or(0, |v| v as usize + 1)
            .max(self.needs.len());
        self.needs.resize(n, Need::default());

        // Successor lists in CSR form: `succ[first[v]..first[v + 1]]`.
        let mut first = vec![0u32; n + 1];
        for &(src, _) in &self.edges {
            first[src as usize + 1] += 1;
        }
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut succ = vec![0u32; self.edges.len()];
        for &(src, dst) in &self.edges {
            succ[fill[src as usize] as usize] = dst;
            fill[src as usize] += 1;
        }

        // Tarjan, iteratively. `order[v]` is 0 until `v` is first seen;
        // `open` holds the registers whose component is not finished.
        let mut work = 0u64;
        let mut order = vec![0u32; n];
        let mut low = vec![0u32; n];
        let mut is_open = vec![false; n];
        let mut open: Vec<u32> = Vec::new();
        let mut path: Vec<(u32, u32)> = Vec::new();
        let mut seen = 0u32;
        for &(root, _) in &self.roots {
            if order[root as usize] != 0 {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    seen += 1;
                    order[v as usize] = seen;
                    low[v as usize] = seen;
                    is_open[v as usize] = true;
                    open.push(v);
                    path.push((v, first[v as usize]));
                    work += 1;
                }
                let Some(&mut (v, ref mut cursor)) = path.last_mut() else {
                    break;
                };
                let v = v as usize;
                if *cursor < first[v + 1] {
                    let w = succ[*cursor as usize] as usize;
                    *cursor += 1;
                    work += 1;
                    if order[w] == 0 {
                        enter = Some(w as u32);
                    } else if is_open[w] {
                        low[v] = low[v].min(order[w]);
                    } else {
                        // A finished component: its need is final.
                        let theirs = self.needs[w];
                        self.needs[v].join(theirs);
                    }
                    continue;
                }
                path.pop();
                if low[v] == order[v] {
                    // `v` was its component's entry and has by now
                    // absorbed every member's need: hand it back out.
                    let shared = self.needs[v];
                    while let Some(member) = open.pop() {
                        is_open[member as usize] = false;
                        self.needs[member as usize] = shared;
                        if member as usize == v {
                            break;
                        }
                    }
                }
                if let Some(&(parent, _)) = path.last() {
                    let parent = parent as usize;
                    low[parent] = low[parent].min(low[v]);
                    let theirs = self.needs[v];
                    self.needs[parent].join(theirs);
                }
            }
        }
        work + self.edges.len() as u64
    }
}

/// Runs the alloca analyses on `func`.
#[must_use]
pub fn analyze_allocas(func: &IrFunction) -> AllocaAnalysis {
    let n = func.allocas.len();
    let mut analysis = AllocaAnalysis {
        escapes: vec![false; n],
        unsafe_gep: vec![false; n],
    };
    if n == 0 {
        return analysis;
    }
    let mut flow = Flow {
        needs: vec![Need::default(); func.value_types.len()],
        ..Flow::default()
    };
    let mut work = 0u64;
    crate::instr::visit_stmts(&func.body, &mut |stmt| {
        work += 1;
        flow.collect(stmt);
    });
    if !flow.roots.is_empty() {
        work += flow.propagate() + flow.roots.len() as u64;
    }
    for &(dst, id) in &flow.roots {
        let need = flow.needs[dst as usize];
        let size = func.allocas[id.0 as usize].size;
        analysis.escapes[id.0 as usize] |= need.escapes;
        // Out of range for a direct access, or for a constant index.
        analysis.unsafe_gep[id.0 as usize] |= need.access_end > size || need.gep_end >= size.max(1);
    }
    add_work(work);
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, Callee, MemTy};
    use crate::types::IrType;

    #[test]
    fn local_scalar_does_not_escape() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(8, "x");
        let p = b.alloca_addr(a);
        b.store(MemTy::I64, p, 0, Operand::ConstI64(1));
        let _ = b.load(MemTy::I64, p, 0);
        b.stmt(Stmt::Return(None));
        let f = b.finish();
        let analysis = analyze_allocas(&f);
        assert!(!analysis.escapes[0]);
        assert!(!analysis.unsafe_gep[0]);
        assert!(!analysis.needs_instrumentation(AllocaId(0)));
    }

    #[test]
    fn address_passed_to_call_escapes() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(16, "buf");
        let p = b.alloca_addr(a);
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![p],
        }));
        let f = b.finish();
        assert!(analyze_allocas(&f).escapes[0]);
    }

    #[test]
    fn returned_address_escapes() {
        let mut b = FunctionBuilder::new("f", &[], Some(IrType::Ptr));
        let a = b.alloca(16, "buf");
        let p = b.alloca_addr(a);
        b.stmt(Stmt::Return(Some(p)));
        let f = b.finish();
        assert!(analyze_allocas(&f).escapes[0]);
    }

    #[test]
    fn address_stored_to_memory_escapes() {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr], None);
        let a = b.alloca(16, "buf");
        let p = b.alloca_addr(a);
        b.store(MemTy::I64, b.param(0), 0, p);
        let f = b.finish();
        assert!(analyze_allocas(&f).escapes[0]);
    }

    #[test]
    fn escape_propagates_through_gep_and_binop() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(32, "buf");
        let p = b.alloca_addr(a);
        let q = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: p,
                index: Operand::ConstI64(1),
                scale: 8,
                offset: 0,
            },
        );
        let r = b.binop(BinOp::Add, IrType::I64, q, Operand::ConstI64(8));
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![r],
        }));
        let f = b.finish();
        assert!(analyze_allocas(&f).escapes[0]);
    }

    #[test]
    fn dynamic_index_is_unsafe() {
        let mut b = FunctionBuilder::new("f", &[IrType::I64], None);
        let a = b.alloca(32, "buf");
        let p = b.alloca_addr(a);
        let addr = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: p,
                index: b.param(0),
                scale: 8,
                offset: 0,
            },
        );
        b.store(MemTy::I64, addr, 0, Operand::ConstI64(1));
        let f = b.finish();
        let analysis = analyze_allocas(&f);
        assert!(!analysis.escapes[0]);
        assert!(analysis.unsafe_gep[0]);
        assert!(analysis.needs_instrumentation(AllocaId(0)));
    }

    #[test]
    fn constant_in_range_index_is_safe() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(32, "buf");
        let p = b.alloca_addr(a);
        let addr = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: p,
                index: Operand::ConstI64(3),
                scale: 8,
                offset: 0,
            },
        );
        b.store(MemTy::I64, addr, 0, Operand::ConstI64(1));
        let f = b.finish();
        assert!(!analyze_allocas(&f).unsafe_gep[0]);
    }

    #[test]
    fn constant_out_of_range_index_is_unsafe() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(32, "buf");
        let p = b.alloca_addr(a);
        let _ = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: p,
                index: Operand::ConstI64(4), // element 4 of a 4-element buffer
                scale: 8,
                offset: 0,
            },
        );
        let f = b.finish();
        assert!(analyze_allocas(&f).unsafe_gep[0]);
    }

    #[test]
    fn oob_direct_load_is_unsafe() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(8, "x");
        let p = b.alloca_addr(a);
        let _ = b.load(MemTy::I64, p, 8); // bytes 8..16 of an 8-byte slot
        let f = b.finish();
        assert!(analyze_allocas(&f).unsafe_gep[0]);
    }

    #[test]
    fn derivation_flows_through_loops() {
        // p is rebound inside a loop to a GEP of itself; the call in the
        // loop body must still mark the alloca escaping.
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(64, "buf");
        let p0 = b.alloca_addr(a);
        let p = b.copy(IrType::Ptr, p0);
        b.push_block();
        let next = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: Operand::Value(p),
                index: Operand::ConstI64(1),
                scale: 8,
                offset: 0,
            },
        );
        b.reassign(p, Expr::Use(next));
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![Operand::Value(p)],
        }));
        let body = b.pop_block();
        b.stmt(Stmt::While {
            header: vec![],
            cond: Operand::ConstI32(1),
            body,
        });
        let f = b.finish();
        assert!(analyze_allocas(&f).escapes[0]);
    }

    /// One escaping use of `p = &buf`, built by `sink`.
    fn escapes_through(sink: impl FnOnce(&mut FunctionBuilder, Operand)) -> bool {
        let mut b = FunctionBuilder::new("f", &[IrType::Ptr], None);
        let a = b.alloca(16, "buf");
        let p = b.alloca_addr(a);
        sink(&mut b, p);
        analyze_allocas(&b.finish()).escapes[0]
    }

    #[test]
    fn every_escape_route_is_a_sink() {
        let call = |args| Expr::Call {
            callee: Callee::Extern(0),
            args,
        };
        let indirect = |target, args| Expr::CallIndirect {
            target,
            params: vec![],
            ret: None,
            args,
        };
        assert!(escapes_through(|b, p| b.store(
            MemTy::Ptr,
            b.param(0),
            0,
            p
        )));
        assert!(escapes_through(|b, p| b.stmt(Stmt::Return(Some(p)))));
        assert!(escapes_through(|b, p| b.stmt(Stmt::Perform(call(vec![p])))));
        assert!(escapes_through(|b, p| {
            b.assign(IrType::I64, call(vec![Operand::ConstI64(0), p]));
        }));
        assert!(escapes_through(|b, p| {
            let target = b.param(0);
            b.stmt(Stmt::Perform(indirect(target, vec![p])));
        }));
        assert!(escapes_through(|b, p| {
            b.assign(IrType::I64, indirect(b.param(0), vec![p]));
        }));
        assert!(escapes_through(
            |b, p| b.stmt(Stmt::Perform(indirect(p, vec![])))
        ));
        assert!(escapes_through(|b, p| {
            b.assign(IrType::I64, indirect(p, vec![]));
        }));
        // Storing *through* the pointer, loading from it and comparing it
        // publish nothing.
        assert!(!escapes_through(|b, p| {
            b.store(MemTy::I64, p, 0, Operand::ConstI64(1));
            let v = b.load(MemTy::I64, p, 8);
            b.binop(BinOp::Eq, IrType::I64, v, p);
        }));
    }

    #[test]
    fn a_cycle_entered_twice_shares_one_need() {
        // p and q rotate through each other in a loop; `big` enters the
        // cycle at p, `small` — seen second — at q. Only p is indexed
        // dynamically and only q is passed to a call: both allocas must
        // get both verdicts.
        let mut b = FunctionBuilder::new("f", &[IrType::I64], None);
        let big = b.alloca(64, "big");
        let small = b.alloca(8, "small");
        let big_addr = b.alloca_addr(big);
        let p = b.copy(IrType::Ptr, big_addr);
        let q = b.fresh(IrType::Ptr);
        b.push_block();
        b.reassign(q, Expr::Use(Operand::Value(p)));
        b.reassign(p, Expr::Use(Operand::Value(q)));
        let _ = b.assign(
            IrType::Ptr,
            Expr::Gep {
                base: Operand::Value(p),
                index: b.param(0),
                scale: 8,
                offset: 0,
            },
        );
        b.stmt(Stmt::Perform(Expr::Call {
            callee: Callee::Extern(0),
            args: vec![Operand::Value(q)],
        }));
        let body = b.pop_block();
        b.stmt(Stmt::While {
            header: vec![],
            cond: Operand::ConstI32(1),
            body,
        });
        let small_addr = b.alloca_addr(small);
        b.reassign(q, Expr::Use(small_addr));
        let analysis = analyze_allocas(&b.finish());
        assert_eq!(analysis.escapes, vec![true, true]);
        assert_eq!(analysis.unsafe_gep, vec![true, true]);
    }

    #[test]
    fn the_largest_reachable_end_is_judged_against_each_slot_s_own_size() {
        // One register may point into either slot; the access through it
        // fits the 32-byte slot and overruns the 8-byte one, the constant
        // Gep lands on the last byte of the one and past the other.
        let mut b = FunctionBuilder::new("f", &[IrType::I32], None);
        let wide = b.alloca(32, "wide");
        let narrow = b.alloca(8, "narrow");
        let untouched = b.alloca(8, "untouched");
        let wide_addr = b.alloca_addr(wide);
        let p = b.copy(IrType::Ptr, wide_addr);
        b.push_block();
        let narrow_addr = b.alloca_addr(narrow);
        b.reassign(p, Expr::Use(narrow_addr));
        let then = b.pop_block();
        b.stmt(Stmt::If {
            cond: b.param(0),
            then,
            els: vec![],
        });
        let _ = b.load(MemTy::I64, Operand::Value(p), 8);
        let u = b.alloca_addr(untouched);
        let _ = b.load(MemTy::I64, u, 0);
        let f = b.finish();
        assert_eq!(analyze_allocas(&f).unsafe_gep, vec![false, true, false]);

        let mut b = FunctionBuilder::new("f", &[], None);
        let wide = b.alloca(32, "wide");
        let narrow = b.alloca(31, "narrow");
        for slot in [wide, narrow] {
            let base = b.alloca_addr(slot);
            let _ = b.assign(
                IrType::Ptr,
                Expr::Gep {
                    base,
                    index: Operand::ConstI32(3),
                    scale: 10,
                    offset: 1,
                },
            );
        }
        assert_eq!(analyze_allocas(&b.finish()).unsafe_gep, vec![false, true]);
    }

    #[test]
    fn registers_past_the_type_table_are_nodes_like_any_other() {
        let mut b = FunctionBuilder::new("f", &[], None);
        let a = b.alloca(16, "buf");
        let ghost = ValueId(90);
        b.reassign(ghost, Expr::AllocaAddr(a));
        b.reassign(ValueId(95), Expr::Use(Operand::Value(ghost)));
        b.stmt(Stmt::Return(Some(Operand::Value(ValueId(95)))));
        b.store(
            MemTy::I64,
            Operand::Value(ValueId(200)),
            64,
            Operand::ConstI64(0),
        );
        let analysis = analyze_allocas(&b.finish());
        assert_eq!(analysis.escapes, vec![true]);
        assert_eq!(analysis.unsafe_gep, vec![false]);
    }
}
