//! The benchmark's catalogue: workload names, end-to-end metrics with
//! their regression bounds, and the per-layer ledger. `BENCHMARK.json` at
//! the repository root is this catalogue serialised (`cage-bench list
//! --json`); a unit test keeps the two identical.

use crate::harness::MIN_ROUNDS;
use crate::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for per-layer
    /// metrics, which are recorded but not gated.
    pub bound: Option<f64>,
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// Directory the benchmark lives in, relative to the repository root.
pub const BENCH_DIR: &str = "crates/bench/src/bin/cage-bench";

pub const EXEC_POLYBENCH: &str = "exec_polybench";
pub const EXEC_CONTROL: &str = "exec_control";
pub const COMPILE_COLD: &str = "compile_cold";
pub const SERVE_STEADY: &str = "serve_steady";
pub const SERVE_CHURN: &str = "serve_churn";
pub const SERVE_COLD: &str = "serve_cold";

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        EXEC_POLYBENCH,
        "20 PolyBench kernels x {wasm64, Cage}: float/load/store loops, so guest execution does \
         all the work and compile/serve none",
    ),
    (
        EXEC_CONTROL,
        "calls, branches, libc bulk ops and br_table dispatch/unwind: the same interpreter with \
         frames, branches and host calls dominating instead of memory",
    ),
    (
        COMPILE_COLD,
        "seeded corpus of 4 large and 24 small C units plus the handler, each taken from source \
         text to first result: cc/ir/wasm/precompile/instantiate work, guest execution ~none",
    ),
    (
        SERVE_STEADY,
        "closed loop of checkout/invoke/release on warm pools, one client per worker: warm reset \
         plus a short invoke, no cold instantiation",
    ),
    (
        SERVE_CHURN,
        "8 live instances per worker recycled after a request that dirties 32 pages: dirty-page \
         data and tag reset dominates, cold instantiation contributes nothing",
    ),
    (
        SERVE_COLD,
        "fresh pool, 8 cold instantiations, 8 short requests each, pool dropped: the cold path \
         that serve_churn and serve_steady bypass",
    ),
];

/// Timed rounds of a full run of `workload` at `RUN_SECONDS`. The work in
/// a round is fixed, so the run is a fixed operation count, the same on
/// every commit; the counts were sized once, on the reference sandbox's
/// undisturbed rounds, for a timed phase of about `RUN_SECONDS`.
fn rounds_at_run_seconds(workload: &str) -> Option<usize> {
    Some(match workload {
        EXEC_POLYBENCH => 105,
        EXEC_CONTROL => 112,
        COMPILE_COLD => 112,
        SERVE_STEADY => 2880,
        SERVE_CHURN => 480,
        SERVE_COLD => 2040,
        _ => return None,
    })
}

/// Timed rounds of a run asked to measure for `seconds`: the fixed count
/// scaled by `seconds / RUN_SECONDS`, never under `MIN_ROUNDS`; one round
/// under `--smoke`. `None` for an unknown workload.
pub fn rounds(workload: &str, seconds: f64, smoke: bool) -> Option<usize> {
    let full = rounds_at_run_seconds(workload)?;
    if smoke {
        return Some(1);
    }
    let scaled = (full as f64 * seconds / RUN_SECONDS as f64).round() as usize;
    Some(scaled.max(MIN_ROUNDS))
}

/// The regression bound of every end-to-end metric: the contract's cap.
///
/// The contract refuses the benchmark outright if the quartile distance of
/// any metric over ten runs exceeds its bound on any workload, and asks
/// for a bound of three times the widest spread seen. A bound is therefore
/// set by the worst minute a metric has to survive, not by a quiet hour.
/// In a quiet hour the timings spread 0.7 to 6.3% and `peak_rss_mb` about
/// 1%; but every timing has shown 9 to 18% when a neighbour's busy minute
/// covered part of a ten-run series, and `peak_rss_mb` 6.5% (and would
/// show 20%) because about one `compile_cold` process in ten keeps 3 MB
/// more. Three times any of those is past the cap, so each metric lands
/// on it, and `setup_s` is to have the largest bound anyway. The README's
/// "Noise and bounds" has the numbers per metric; `cage-bench check`
/// prints the spread it actually saw next to every verdict.
const BOUND: f64 = 0.25;

/// The end-to-end metrics. Every workload reports all of them; what one
/// "operation" is per workload is defined in the README.
pub fn end_to_end() -> Vec<MetricSpec> {
    let m = |name: &str, unit, better| MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound: Some(BOUND),
    };
    vec![
        m("ops_per_s", "1/s", Better::Higher),
        m("op_p50_us", "us", Better::Lower),
        m("op_p90_us", "us", Better::Lower),
        m("guest_mops", "op/us", Better::Higher),
        m("peak_rss_mb", "MB", Better::Lower),
        m("setup_s", "s", Better::Lower),
    ]
}

/// The five `exec_control` kernels, in row order.
pub const CONTROL_KERNELS: [&str; 5] = ["calls", "branches", "bulk", "dispatch", "unwind"];

/// Labels of the two variants the `exec_*` workloads run.
pub const EXEC_LABELS: [&str; 2] = ["wasm64", "cage"];

pub fn ns_per_op_metric(kernel: &str, label: &str) -> String {
    format!("engine.ns_per_op.{kernel}.{label}")
}

/// The per-layer ledger, in layer order. A workload that does not
/// exercise a layer reports 0 for its metrics.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut out = Vec::new();
    let mut m = |name: &str, unit: &'static str, better| {
        out.push(MetricSpec {
            name: name.to_string(),
            unit,
            better,
            bound: None,
        });
    };
    let lower = Better::Lower;
    // cage-cc
    m("cc.lex_ns_per_byte", "ns/B", lower);
    m("cc.parse_ns_per_byte", "ns/B", lower);
    m("cc.codegen_ns_per_byte", "ns/B", lower);
    m("cc.lex_fuel", "count", lower);
    m("cc.parse_fuel", "count", lower);
    m("cc.codegen_fuel", "count", lower);
    m("cc.tokens", "count", lower);
    // cage-ir
    m("ir.passes_ns_per_byte", "ns/B", lower);
    m("ir.lower_ns_per_byte", "ns/B", lower);
    m("ir.passes_fuel", "count", lower);
    m("ir.lower_fuel", "count", lower);
    m("ir.functions", "count", lower);
    // cage-wasm
    m("wasm.validate_ns_per_byte", "ns/B", lower);
    m("wasm.validate_fuel", "count", lower);
    m("wasm.encode_ns_per_byte", "ns/B", lower);
    m("wasm.decode_ns_per_byte", "ns/B", lower);
    m("wasm.bytes_per_source_byte", "B/B", lower);
    // cage-engine
    m("engine.precompile_ns_per_byte", "ns/B", lower);
    let polybench: Vec<&str> = cage_polybench::kernels().iter().map(|k| k.name).collect();
    for kernel in polybench.iter().chain(&CONTROL_KERNELS) {
        for label in EXEC_LABELS {
            m(&ns_per_op_metric(kernel, label), "ns/op", lower);
        }
    }
    m("engine.ns_per_op_geomean", "ns/op", lower);
    m("engine.ns_per_op_ratio_cage", "ratio", lower);
    // cage-mte / cage-pac / cost model: simulated, exact, never timed.
    m("sim.retired_ops", "count", lower);
    m("sim.cycles_wasm64", "cycles", lower);
    m("sim.cycles_cage", "cycles", lower);
    m("sim.overhead_pct_cage", "%", lower);
    m("sim.golden_mismatches", "count", lower);
    // cage-libc
    m("libc.bulk_ns_per_byte", "ns/B", lower);
    // cage-runtime / cage-core
    m("core.compile_ns_per_byte", "ns/B", lower);
    m("core.instantiate_us", "us", lower);
    m("core.first_invoke_us", "us", lower);
    m("core.compile_residue_pct", "%", lower);
    m("core.cold_start_residue_pct", "%", lower);
    m("core.source_mb_s", "MB/s", Better::Higher);
    m("core.cold_start_ms_p50", "ms", lower);
    m("core.cold_start_ms_p90", "ms", lower);
    // cage-serve
    m("serve.instance_pre_us", "us", lower);
    m("serve.pool_new_us", "us", lower);
    m("serve.checkout_warm_us", "us", lower);
    m("serve.invoke_us", "us", lower);
    m("serve.release_us", "us", lower);
    m("serve.p99_us", "us", lower);
    m("serve.p999_us", "us", lower);
    m("serve.max_us", "us", lower);
    m("serve.checkout_cold_us", "us", lower);
    m("serve.reset_us_per_dirty_page", "us", lower);
    m("serve.instantiations", "count", lower);
    m("serve.resets", "count", lower);
    m("serve.quarantined", "count", lower);
    m("serve.exhausted", "count", lower);
    // the benchmark itself
    m("trace.overhead_pct", "%", lower);
    m("noise.iqr_pct", "%", lower);
    out
}

fn metric_json(spec: &MetricSpec) -> Json {
    let mut fields = vec![
        ("name".to_string(), json::str(&spec.name)),
        ("unit".to_string(), json::str(spec.unit)),
        ("better".to_string(), json::str(spec.better.as_str())),
    ];
    if let Some(bound) = spec.bound {
        fields.push(("bound".to_string(), Json::Num(bound)));
    }
    Json::Obj(fields)
}

/// The catalogue in the shape of the root `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let manifest = format!("{BENCH_DIR}/Cargo.toml");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        &manifest,
        "--",
        "run",
    ];
    json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![json::str(BENCH_DIR)])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        json::obj([("name", json::str(name)), ("why", json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The repository's `BENCHMARK.json`, read at compile time.
    const ROOT_FILE: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn catalogue_equals_the_root_benchmark_json() {
        let root = json::parse(ROOT_FILE).expect("BENCHMARK.json parses");
        // Not `assert_eq!`: it would print both 12 KB documents.
        assert!(
            root == benchmark_json(),
            "regenerate with `cage-bench list --json > BENCHMARK.json`"
        );
    }

    #[test]
    fn every_name_is_legal_and_unique_and_within_the_contract_limits() {
        let mut seen = BTreeSet::new();
        let workloads = WORKLOADS.iter().map(|(n, _)| n.to_string());
        let metrics = end_to_end().into_iter().chain(per_layer()).map(|m| m.name);
        for name in workloads.chain(metrics) {
            assert!(json::is_metric_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} used twice");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().len()));
        assert!((1..=128).contains(&per_layer().len()));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for spec in end_to_end() {
            let bound = spec.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25, "{}", spec.name);
        }
        let setup = end_to_end()
            .into_iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn ledger_has_a_row_per_kernel_and_variant() {
        let names: BTreeSet<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert!(names.contains("engine.ns_per_op.gemm.cage"));
        assert!(names.contains("engine.ns_per_op.unwind.wasm64"));
        let rows = names
            .iter()
            .filter(|n| n.starts_with("engine.ns_per_op."))
            .count();
        assert_eq!(
            rows,
            (cage_polybench::kernels().len() + CONTROL_KERNELS.len()) * 2
        );
    }
}
