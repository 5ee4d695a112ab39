//! Seeded fuzz smoke test — the CI entry point for the cage-fuzz
//! harness.
//!
//! Runs the full mutational sweep (`CAGE_FUZZ_CASES` / `CAGE_FUZZ_SEED`
//! override the defaults; CI pins 5 000 release-mode cases at a fixed
//! seed) and asserts the robustness invariants: zero compile-stage
//! panics, bounded frontend fuel, all three mutation families
//! exercised, and at least one accepted module surviving the
//! register-vs-tree differential.

use cage_bench::fuzz::{run, FuzzConfig};

#[test]
fn seeded_sweep_is_panic_free_and_bounded() {
    let config = FuzzConfig::from_env();
    let report = run(&config);
    // `run` already asserts zero caught panics and fuel-boundedness per
    // case; re-check the aggregate here so the report is load-bearing.
    assert_eq!(report.compile_panics, 0, "{report:?}");
    // Every acceptance surface saw traffic.
    let c_total = report.c_accepted + report.c_limit + report.c_malformed;
    let m_total = report.module_accepted + report.module_rejected;
    let d_total = report.decode_accepted + report.decode_rejected;
    assert!(c_total >= config.cases / 4, "{report:?}");
    assert!(m_total >= config.cases / 4, "{report:?}");
    assert!(d_total >= config.cases / 4, "{report:?}");
    // The mutators are not so aggressive that nothing survives: some
    // mutated C still compiles, and some mutated module still runs the
    // differential (otherwise the cross-tier check is dead code).
    assert!(report.c_accepted > 0, "{report:?}");
    assert!(report.differential_runs > 0, "{report:?}");
    // The optimiser sweep is live: at least one accepted C source was
    // compiled at every pipeline level and compared across them.
    assert!(report.pipeline_sweeps > 0, "{report:?}");
    // The sampled frontend runs stayed inside the fuel budget.
    assert!(
        report.max_frontend_fuel <= cage::wasm::CompileLimits::default().max_compile_fuel,
        "{report:?}"
    );
    eprintln!(
        "fuzz: {} cases (seed {:#x}) — C {}/{}/{} ok/limit/malformed, \
         modules {}/{} ok/rejected, decode {}/{} ok/rejected, \
         {} differential runs, {} pipeline sweeps, max frontend fuel {}",
        report.cases,
        config.seed,
        report.c_accepted,
        report.c_limit,
        report.c_malformed,
        report.module_accepted,
        report.module_rejected,
        report.decode_accepted,
        report.decode_rejected,
        report.differential_runs,
        report.pipeline_sweeps,
        report.max_frontend_fuel,
    );
}
