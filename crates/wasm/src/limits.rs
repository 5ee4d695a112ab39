//! Compile-time resource limits for ingesting untrusted programs.
//!
//! The serving story (PR 6/8) made *execution* preemptible and bounded;
//! this module bounds *compilation*. Every stage of the pipeline —
//! C frontend, IR passes, lowering, validation, and the engine's
//! SSA/regalloc/bytecode lowering — checks its input
//! against a [`CompileLimits`] and charges a shared [`CompileFuel`]
//! budget, so a hostile guest program is rejected with a structured
//! [`LimitError`] instead of wedging or aborting the server.
//!
//! The defaults are generous: every program in the repository (examples,
//! PolyBench kernels, the CVE gallery, the differential generators)
//! compiles identically under them. They are deliberately far below what
//! would exhaust host stack or memory, because several compile stages
//! still recurse over the structured instruction tree — the limits are
//! what make that recursion safe on arbitrary input.
//!
//! Trusted, internal callers (the deep-nesting regression tests) pass
//! [`CompileLimits::unlimited`] explicitly; every entry point that does
//! not take limits uses [`CompileLimits::default`].

use std::cell::Cell;
use std::fmt;

use crate::instr::Instr;
use crate::module::Module;

/// A compile-time resource limit was exceeded.
///
/// `actual` is the observed value when it is cheap to know (counts), or
/// `limit + 1` for streaming checks that stop at the first violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LimitError {
    /// Which limit was hit (e.g. `"body ops"`, `"compile fuel"`).
    pub what: &'static str,
    /// The configured maximum.
    pub limit: u64,
    /// The observed value (or the first value past the limit).
    pub actual: u64,
}

impl fmt::Display for LimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compile limit exceeded: {} {} > {}",
            self.what, self.actual, self.limit
        )
    }
}

impl std::error::Error for LimitError {}

/// Resource bounds for one compilation, threaded through the pipeline.
///
/// See the module docs for the trust model. All counts are per-module
/// unless stated otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileLimits {
    /// Maximum C source length in bytes.
    pub max_source_bytes: usize,
    /// Maximum number of functions (imports + definitions).
    pub max_functions: usize,
    /// Maximum instructions in a single function body (structured ops;
    /// each `br_table` target also counts one).
    pub max_body_ops: usize,
    /// Maximum declared locals (params + locals) per function.
    pub max_locals: usize,
    /// Maximum nesting depth: C expression/statement nesting in the
    /// frontend, `block`/`loop`/`if` nesting in a wasm body.
    pub max_nesting_depth: usize,
    /// Maximum SSA values allocated while lowering one body.
    pub max_ssa_values: u32,
    /// Maximum bytes of global data a program may declare.
    pub max_global_bytes: u64,
    /// Total compile-fuel budget for the whole pipeline (roughly one
    /// unit per token, AST node, IR instruction and wasm op processed).
    pub max_compile_fuel: u64,
}

impl CompileLimits {
    /// The default bounds for untrusted input. Generous — all programs
    /// in this repository compile identically under them — but small
    /// enough that every recursive compile stage stays within host
    /// stack on the default thread size.
    #[must_use]
    pub const fn generous() -> Self {
        CompileLimits {
            max_source_bytes: 1 << 20,
            max_functions: 4096,
            max_body_ops: 1_000_000,
            max_locals: 4096,
            // Recursive compile stages burn ~10 KiB of host stack per
            // nesting level in unoptimised builds; 100 levels keeps the
            // worst case around 1 MiB — safe on a default 2 MiB thread —
            // while real programs nest well under 20.
            max_nesting_depth: 100,
            max_ssa_values: 1_000_000,
            max_global_bytes: 64 << 20,
            max_compile_fuel: 50_000_000,
        }
    }

    /// No bounds at all, for trusted internal callers (the engine's own
    /// fixtures and the deep-nesting regression tests, which compile
    /// 50k-deep hand-built modules on a dedicated big-stack thread).
    #[must_use]
    pub const fn unlimited() -> Self {
        CompileLimits {
            max_source_bytes: usize::MAX,
            max_functions: usize::MAX,
            max_body_ops: usize::MAX,
            max_locals: usize::MAX,
            max_nesting_depth: usize::MAX,
            max_ssa_values: u32::MAX,
            max_global_bytes: u64::MAX,
            max_compile_fuel: u64::MAX,
        }
    }

    /// A fresh fuel budget for one compilation under these limits.
    #[must_use]
    pub fn fuel(&self) -> CompileFuel {
        CompileFuel::new(self.max_compile_fuel)
    }

    /// Checks the module-level counts: function count and per-function
    /// locals, body size and nesting depth (iteratively — this runs
    /// *before* any recursive stage touches the body).
    ///
    /// # Errors
    ///
    /// The first [`LimitError`] found.
    pub fn check_module(&self, module: &Module) -> Result<(), LimitError> {
        let funcs = module.imported_func_count() as usize + module.funcs.len();
        if funcs > self.max_functions {
            return Err(LimitError {
                what: "functions",
                limit: self.max_functions as u64,
                actual: funcs as u64,
            });
        }
        for func in &module.funcs {
            let ty = module.types.get(func.type_idx as usize);
            let params = ty.map_or(0, |t| t.params.len());
            let locals = params + func.locals.len();
            if locals > self.max_locals {
                return Err(LimitError {
                    what: "locals",
                    limit: self.max_locals as u64,
                    actual: locals as u64,
                });
            }
            self.check_body(&func.body)?;
        }
        Ok(())
    }

    /// Checks one body's op count and nesting depth with an explicit
    /// work stack (no recursion, so arbitrarily deep hostile trees are
    /// rejected without touching host stack).
    ///
    /// # Errors
    ///
    /// [`LimitError`] on too many ops or too-deep nesting.
    pub fn check_body(&self, body: &[Instr]) -> Result<(), LimitError> {
        let BodyStats { ops, depth } = body_stats(body, self.max_body_ops);
        if ops > self.max_body_ops {
            return Err(LimitError {
                what: "body ops",
                limit: self.max_body_ops as u64,
                actual: ops as u64,
            });
        }
        if depth > self.max_nesting_depth {
            return Err(LimitError {
                what: "nesting depth",
                limit: self.max_nesting_depth as u64,
                actual: depth as u64,
            });
        }
        Ok(())
    }
}

impl Default for CompileLimits {
    fn default() -> Self {
        CompileLimits::generous()
    }
}

/// Size statistics of one structured body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyStats {
    /// Structured instructions, counting each `br_table` target as one.
    pub ops: usize,
    /// Maximum `block`/`loop`/`if` nesting depth.
    pub depth: usize,
}

/// Measures `body` iteratively, stopping early once `cap` ops are seen
/// (the count saturates at `cap + 1` — enough to know the limit broke).
#[must_use]
pub fn body_stats(body: &[Instr], cap: usize) -> BodyStats {
    let mut ops = 0usize;
    let mut depth = 0usize;
    // (sequence, next index, nesting level of the sequence's contents).
    let mut work: Vec<(&[Instr], usize, usize)> = vec![(body, 0, 1)];
    while let Some((seq, idx, level)) = work.last_mut() {
        let Some(instr) = seq.get(*idx) else {
            work.pop();
            continue;
        };
        *idx += 1;
        let level = *level;
        ops += 1;
        match instr {
            Instr::Block(_, inner) | Instr::Loop(_, inner) => {
                depth = depth.max(level + 1);
                work.push((inner, 0, level + 1));
            }
            Instr::If(_, then_b, else_b) => {
                depth = depth.max(level + 1);
                work.push((then_b, 0, level + 1));
                work.push((else_b, 0, level + 1));
            }
            Instr::BrTable(targets, _) => ops = ops.saturating_add(targets.len()),
            _ => {}
        }
        if ops > cap {
            return BodyStats {
                ops: cap + 1,
                depth,
            };
        }
    }
    BodyStats { ops, depth }
}

/// A shared compile-fuel budget, charged coarsely by every pipeline
/// stage. `Cell`-based so one budget threads through immutably-borrowed
/// stages without plumbing `&mut` everywhere.
#[derive(Debug, Clone)]
pub struct CompileFuel {
    budget: u64,
    remaining: Cell<u64>,
}

impl CompileFuel {
    /// A budget of `units` fuel.
    #[must_use]
    pub fn new(units: u64) -> Self {
        CompileFuel {
            budget: units,
            remaining: Cell::new(units),
        }
    }

    /// Charges `units`; fails once the budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`LimitError`] (`what: "compile fuel"`) when the budget runs out.
    pub fn charge(&self, units: u64) -> Result<(), LimitError> {
        let left = self.remaining.get();
        if left < units {
            self.remaining.set(0);
            return Err(LimitError {
                what: "compile fuel",
                limit: self.budget,
                actual: self.budget.saturating_add(1),
            });
        }
        self.remaining.set(left - units);
        Ok(())
    }

    /// Fuel spent so far.
    #[must_use]
    pub fn consumed(&self) -> u64 {
        self.budget - self.remaining.get()
    }

    /// Fuel still available.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BlockType;

    #[test]
    fn fuel_charges_and_exhausts() {
        let fuel = CompileFuel::new(10);
        assert!(fuel.charge(4).is_ok());
        assert!(fuel.charge(6).is_ok());
        assert_eq!(fuel.remaining(), 0);
        let err = fuel.charge(1).unwrap_err();
        assert_eq!(err.what, "compile fuel");
        assert_eq!(fuel.consumed(), 10);
    }

    #[test]
    fn body_stats_counts_ops_and_depth_iteratively() {
        // 200k-deep nest: would overflow the host stack if this scan
        // recursed. Build and measure, then unravel without recursion
        // either (see below).
        let mut nest = vec![Instr::I64Const(1), Instr::Drop];
        for _ in 0..1000 {
            nest = vec![Instr::Block(BlockType::Empty, nest)];
        }
        let stats = body_stats(&nest, usize::MAX - 1);
        assert_eq!(stats.depth, 1001);
        assert_eq!(stats.ops, 1002);
    }

    #[test]
    fn body_stats_counts_br_table_fanout() {
        let body = vec![Instr::I32Const(0), Instr::BrTable(vec![0; 500], 0)];
        let stats = body_stats(&body, usize::MAX - 1);
        assert_eq!(stats.ops, 502);
    }

    #[test]
    fn body_stats_saturates_at_cap() {
        let body = vec![Instr::Nop; 100];
        let stats = body_stats(&body, 10);
        assert_eq!(stats.ops, 11);
    }

    #[test]
    fn default_limits_are_generous() {
        let l = CompileLimits::default();
        assert!(l.max_body_ops >= 1_000_000);
        // Deep enough for real programs (which nest < 20), small enough
        // that recursive compile stages stay within a 2 MiB thread stack.
        assert!(l.max_nesting_depth >= 64);
    }
}
