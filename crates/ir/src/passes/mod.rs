//! The pass pipeline.
//!
//! Mirrors the paper's ordering (§6.1): optimisations first (so the
//! sanitizers do not block `mem2reg`-style promotions), then the two
//! sanitizer passes.

pub mod const_fold;
pub mod cse;
pub mod dce;
pub mod load_forward;
pub mod mem2reg;
pub mod ptr_auth;
pub mod simplify_cfg;
pub mod stack_safety;
pub mod strength_reduce;

use crate::instr::{visit_stmts, Stmt};
use crate::module::{value_slot, IrModule, ValueId};

/// Per-register version counters for the passes that key what they know
/// on a register *at a version* (`cse`, `load_forward`): every assignment
/// bumps its destination, so an entry recorded at an older version is
/// stale. Dense by `ValueId`, grown on demand like the other per-register
/// tables (hand-built IR may name a register past the type table).
pub(crate) struct Versions(Vec<u32>);

impl Versions {
    /// All registers of a function with `values` typed registers at 0.
    pub(crate) fn new(values: usize) -> Self {
        Versions(vec![0; values])
    }

    /// The current version of `v` (0 before its first assignment).
    pub(crate) fn of(&self, v: ValueId) -> u32 {
        self.0.get(v.0 as usize).copied().unwrap_or(0)
    }

    pub(crate) fn bump(&mut self, v: ValueId) {
        *value_slot(&mut self.0, v) += 1;
    }

    /// Bumps every register assigned anywhere in `body`: a loop's
    /// registers may change between iterations, so nothing recorded
    /// before the loop may be trusted inside it.
    pub(crate) fn bump_all_assigned(&mut self, body: &[Stmt]) {
        visit_stmts(body, &mut |stmt| {
            if let Stmt::Assign { dst, .. } = stmt {
                self.bump(*dst);
            }
        });
    }
}

thread_local! {
    static WORK_UNITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many statements, graph nodes and edges the table-driven passes
/// (`mem2reg`, `dce`, the alloca analysis, `stack_safety`, `ptr_auth`)
/// have visited on this thread — for `tests/pass_scaling.rs`, which pins
/// that the count grows linearly with the input where a wall clock could
/// only suggest it. Each pass adds once per function, from a local. Per
/// thread, so tests running in parallel do not see each other.
#[doc(hidden)]
#[must_use]
pub fn work_units() -> u64 {
    WORK_UNITS.with(std::cell::Cell::get)
}

pub(crate) fn add_work(units: u64) {
    WORK_UNITS.with(|n| n.set(n.get().saturating_add(units)));
}

/// Which hardening passes to run (the `-fsanitize=...`-style flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardenConfig {
    /// Run the stack-safety sanitizer (Algorithm 1).
    pub stack_safety: bool,
    /// Run the pointer-authentication sanitizer.
    pub ptr_auth: bool,
}

impl HardenConfig {
    /// Everything on — the full Cage configuration.
    #[must_use]
    pub fn full() -> Self {
        HardenConfig {
            stack_safety: true,
            ptr_auth: true,
        }
    }

    /// Everything off — the baseline configurations.
    #[must_use]
    pub fn none() -> Self {
        HardenConfig::default()
    }
}

/// How much of the optimiser runs before the sanitizers. The levels are
/// ordered: each runs everything the one below it does.
///
/// The cycle model's contract is that *charges follow the surviving ops*
/// — an op the optimiser removes charges nothing — so each of the two
/// optimising levels has its own PolyBench cycle golden file (see
/// `crates/bench/tests/cycle_regression.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum OptLevel {
    /// No optimisation at all (`-O0`): sanitizers only. Useful for
    /// measuring sanitizer cost on unoptimised code.
    None,
    /// `mem2reg`, constant folding and DCE — the paper's §6.1 pipeline
    /// and the default.
    #[default]
    Standard,
    /// The standard passes plus local value numbering (CSE) with
    /// constant/copy propagation, CFG simplification, store-to-load
    /// forwarding and power-of-two strength reduction (`-O`). They rely
    /// on `mem2reg` having promoted allocas first.
    Full,
}

/// Full pipeline configuration: optimisation level plus sanitizers.
///
/// [`run_pipeline`] is the common fixed-shape entry; embedders that need
/// another level configure a `PipelineConfig` through
/// `cage::EngineBuilder`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Which optimisation passes run before the sanitizers — the paper's
    /// §6.1 ordering.
    pub opt_level: OptLevel,
    /// Which sanitizer passes follow.
    pub harden: HardenConfig,
}

impl PipelineConfig {
    /// The standard pipeline for `harden`: [`OptLevel::Standard`].
    #[must_use]
    pub fn standard(harden: HardenConfig) -> Self {
        PipelineConfig {
            opt_level: OptLevel::Standard,
            harden,
        }
    }

    /// The fully optimised pipeline: [`OptLevel::Full`].
    #[must_use]
    pub fn full_opt(harden: HardenConfig) -> Self {
        PipelineConfig {
            opt_level: OptLevel::Full,
            harden,
        }
    }

    /// No optimisation at all: [`OptLevel::None`], sanitizers only.
    #[must_use]
    pub fn no_opt(harden: HardenConfig) -> Self {
        PipelineConfig {
            opt_level: OptLevel::None,
            harden,
        }
    }
}

/// Runs the standard optimisation pipeline followed by the configured
/// sanitizers, in the paper's order.
pub fn run_pipeline(module: &mut IrModule, config: HardenConfig) {
    run_pipeline_config(module, &PipelineConfig::standard(config));
}

/// Runs an explicitly configured pipeline (see [`PipelineConfig`]).
pub fn run_pipeline_config(module: &mut IrModule, config: &PipelineConfig) {
    let fuel = cage_wasm::CompileLimits::unlimited().fuel();
    run_pipeline_config_fueled(module, config, &fuel).expect("unlimited fuel cannot run out");
}

/// Like [`run_pipeline_config`], but charges `fuel` proportionally to
/// the work each pass will do (one unit per statement per pass), so a
/// hostile program cannot buy unbounded optimiser time.
///
/// # Errors
///
/// [`cage_wasm::LimitError`] when the fuel budget runs out; the module
/// may be partially transformed (callers discard it on error).
pub fn run_pipeline_config_fueled(
    module: &mut IrModule,
    config: &PipelineConfig,
    fuel: &cage_wasm::CompileFuel,
) -> Result<(), cage_wasm::LimitError> {
    // Iterative statement count: passes recurse over bodies, so the
    // charge happens before any recursion touches them.
    let cost_of = |module: &IrModule| -> u64 {
        let mut cost = 0u64;
        for func in &module.functions {
            let mut work: Vec<&[crate::instr::Stmt]> = vec![&func.body];
            while let Some(seq) = work.pop() {
                cost = cost.saturating_add(seq.len() as u64);
                for stmt in seq {
                    match stmt {
                        crate::instr::Stmt::If { then, els, .. } => {
                            work.push(then);
                            work.push(els);
                        }
                        crate::instr::Stmt::While { header, body, .. } => {
                            work.push(header);
                            work.push(body);
                        }
                        _ => {}
                    }
                }
            }
        }
        cost
    };
    if config.opt_level >= OptLevel::Standard {
        fuel.charge(cost_of(module).saturating_mul(3))?;
        for func in &mut module.functions {
            mem2reg::run(func);
            const_fold::run(func);
        }
        if config.opt_level == OptLevel::Full {
            // One charge unit per statement per extended pass run: five,
            // counting the constant-fold rerun after CSE (propagation
            // turns register operands into constants that fold).
            fuel.charge(cost_of(module).saturating_mul(5))?;
            for func in &mut module.functions {
                cse::run(func);
                const_fold::run(func);
                simplify_cfg::run(func);
                load_forward::run(func);
                strength_reduce::run(func);
            }
        }
        for func in &mut module.functions {
            dce::run(func);
        }
    }
    if config.harden.stack_safety {
        fuel.charge(cost_of(module))?;
        for func in &mut module.functions {
            stack_safety::run(func);
        }
    }
    if config.harden.ptr_auth {
        fuel.charge(cost_of(module))?;
        ptr_auth::run(module);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harden_config_constructors() {
        assert!(HardenConfig::full().stack_safety);
        assert!(HardenConfig::full().ptr_auth);
        assert!(!HardenConfig::none().stack_safety);
    }

    #[test]
    fn opt_passes_constructors() {
        assert!(OptLevel::None < OptLevel::Standard && OptLevel::Standard < OptLevel::Full);
        // The default (and therefore the standard pipeline) keeps the
        // extended passes off — the golden-file contract.
        assert_eq!(OptLevel::default(), OptLevel::Standard);
        assert_eq!(
            PipelineConfig::standard(HardenConfig::none()).opt_level,
            OptLevel::Standard
        );
        assert_eq!(
            PipelineConfig::full_opt(HardenConfig::none()).opt_level,
            OptLevel::Full
        );
        assert_eq!(
            PipelineConfig::no_opt(HardenConfig::none()).opt_level,
            OptLevel::None
        );
    }

    #[test]
    fn full_opt_pipeline_shrinks_redundant_code() {
        use crate::builder::FunctionBuilder;
        use crate::instr::{BinOp, Operand, Stmt};
        use crate::types::IrType;

        let mut b = FunctionBuilder::new("f", &[IrType::I64], Some(IrType::I64));
        let x = b.binop(BinOp::Mul, IrType::I64, b.param(0), Operand::ConstI64(8));
        let y = b.binop(BinOp::Mul, IrType::I64, b.param(0), Operand::ConstI64(8));
        let s = b.binop(BinOp::Add, IrType::I64, x, y);
        b.stmt(Stmt::Return(Some(s)));
        let f = b.finish();
        let mut module = IrModule::default();
        module.functions.push(f);
        run_pipeline_config(&mut module, &PipelineConfig::full_opt(HardenConfig::none()));
        let func = &module.functions[0];
        // CSE merged the two muls, strength reduction turned the
        // survivor into a shift, DCE swept the copy.
        let muls = func
            .body
            .iter()
            .filter(|s| {
                matches!(
                    s,
                    Stmt::Assign {
                        expr: crate::instr::Expr::BinOp { op: BinOp::Mul, .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(muls, 0, "{:?}", func.body);
        assert!(func.body.len() <= 3, "{:?}", func.body);
    }
}
