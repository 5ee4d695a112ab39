//! The cost model's regression gate: what every PolyBench kernel retires,
//! class by class, under every Table 3 variant and both pipelines — and
//! what that costs on each of the three cores.
//!
//! An instance accounts in integers (`cage::engine::ChargeCounts`): the
//! golden files pin the whole count vector of a run, which is exact and
//! does not depend on the simulated core, and the cycles derived from it
//! for Cortex-X3, A715 and A510. A row is
//!
//! ```text
//! kernel  variant  X3 cycle bits  instr_count  <one count per class>  A715 cycle bits  A510 cycle bits
//! ```
//!
//! with the classes in `ChargeClass::ALL` order (the header line names
//! them). The first four columns are what `cage-bench` reads.
//!
//! Regenerate with `cargo run --release -p cage --example golden_cycles >
//! crates/bench/tests/golden_polybench_cycles.tsv` (and `… --example
//! golden_cycles -- opt > …_opt.tsv`) — but only when a cost-model or
//! lowering change *intends* to shift what is retired.
//!
//! The `bridge_f64_chain_*.tsv` files are the goldens of the
//! representation this one replaced — one `f64` bumped once per retired
//! instruction in program order, as captured by PR 20's parent — and are
//! never regenerated: the bridge test holds the derived cycles to them.

use std::sync::OnceLock;

use cage::engine::{ChargeClass, ChargeCounts, CostModel};
use cage::{Core, Engine, OptLevel, Variant};

const GOLDEN: &str = include_str!("golden_polybench_cycles.tsv");
const GOLDEN_OPT: &str = include_str!("golden_polybench_cycles_opt.tsv");
const BRIDGE: &str = include_str!("bridge_f64_chain_cycles.tsv");
const BRIDGE_OPT: &str = include_str!("bridge_f64_chain_cycles_opt.tsv");

/// The sweep's size at capture time (20 kernels x 6 variants); never
/// shrink silently.
const ROWS: usize = 120;

fn variant_by_debug_name(name: &str) -> Variant {
    *Variant::ALL
        .iter()
        .find(|v| format!("{v:?}") == name)
        .unwrap_or_else(|| panic!("unknown variant {name} in golden file"))
}

/// The data rows of a golden file, split into columns.
fn rows(golden: &str) -> Vec<Vec<&str>> {
    let rows: Vec<Vec<&str>> = golden
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
        .collect();
    assert!(rows.len() >= ROWS, "golden file unexpectedly small");
    rows
}

fn num(field: &str) -> u64 {
    field.parse().expect("u64 column")
}

/// Runs `kernel` under (`variant`, `core`, `level`) and returns what it
/// was charged and the engine's own reading of the cycles.
fn run(kernel: &str, variant: Variant, core: Core, level: OptLevel) -> (ChargeCounts, f64) {
    let kernel = cage_polybench::kernel(kernel)
        .unwrap_or_else(|| panic!("golden kernel {kernel} missing from suite"));
    let engine = Engine::builder(variant).core(core).opt_level(level).build();
    let artifact = engine.compile(kernel.source).expect("builds");
    let mut inst = engine.instantiate(&artifact).expect("instantiates");
    inst.invoke("run", &[]).expect("runs");
    (inst.charge_counts(), inst.cycles())
}

/// What each row of `golden` is charged on Cortex-X3 today, in file
/// order. Both the golden test and the bridge test read it, so each
/// pipeline's sweep runs once.
fn x3_sweep(golden: &str, level: OptLevel) -> Vec<(ChargeCounts, f64)> {
    rows(golden)
        .iter()
        .map(|f| run(f[0], variant_by_debug_name(f[1]), Core::CortexX3, level))
        .collect()
}

fn default_sweep() -> &'static [(ChargeCounts, f64)] {
    static SWEEP: OnceLock<Vec<(ChargeCounts, f64)>> = OnceLock::new();
    SWEEP.get_or_init(|| x3_sweep(GOLDEN, OptLevel::default()))
}

fn opt_sweep() -> &'static [(ChargeCounts, f64)] {
    static SWEEP: OnceLock<Vec<(ChargeCounts, f64)>> = OnceLock::new();
    SWEEP.get_or_init(|| x3_sweep(GOLDEN_OPT, OptLevel::Full))
}

/// The count vector a golden row pins.
fn golden_counts(f: &[&str]) -> ChargeCounts {
    let mut counts = ChargeCounts::default();
    for (count, field) in counts.counts.iter_mut().zip(&f[4..]) {
        *count = num(field);
    }
    counts
}

/// Cycles of `counts` under `variant` on `core`.
fn derive(counts: &ChargeCounts, variant: Variant, core: Core) -> f64 {
    counts.cycles(&CostModel::class_weights(&variant.exec_config(core)))
}

/// Every row of `golden` against `sweep`: the count vector exactly, the
/// retired-instruction count as its sum, and the cycles of all three
/// cores — the engine's own X3 reading and the two derived from the same
/// counts — to the bit.
fn check_golden(golden: &str, sweep: &[(ChargeCounts, f64)], what: &str) {
    for (f, (counts, x3_cycles)) in rows(golden).iter().zip(sweep) {
        let (kernel, variant) = (f[0], variant_by_debug_name(f[1]));
        assert_eq!(f.len(), 4 + ChargeClass::COUNT + 2, "{kernel}: columns");
        assert_eq!(
            *counts,
            golden_counts(f),
            "{kernel}/{variant:?} ({what}): retired counts drifted (classes: {:?})",
            ChargeClass::ALL.map(ChargeClass::name)
        );
        assert_eq!(counts.instr_count(), num(f[3]), "{kernel}/{variant:?}");
        let cores = [
            (Core::CortexX3, *x3_cycles, f[2]),
            (
                Core::CortexA715,
                derive(counts, variant, Core::CortexA715),
                f[4 + ChargeClass::COUNT],
            ),
            (
                Core::CortexA510,
                derive(counts, variant, Core::CortexA510),
                f[5 + ChargeClass::COUNT],
            ),
        ];
        for (core, cycles, golden_bits) in cores {
            assert_eq!(
                cycles.to_bits(),
                num(golden_bits),
                "{kernel}/{variant:?} ({what}) on {core}: simulated cycles drifted \
                 (got {cycles}, golden {})",
                f64::from_bits(num(golden_bits)),
            );
        }
    }
}

#[test]
fn polybench_gallery_cycles_are_bit_identical_to_golden() {
    check_golden(GOLDEN, default_sweep(), "default");
}

/// The optimized-pipeline variant of the gate: same gallery, same
/// variants, with the full extended optimiser (CSE, store-to-load
/// forwarding, strength reduction, CFG simplification) enabled. The
/// cycle model charges only the ops that survive the passes, so this
/// golden file pins *what the optimiser leaves behind*: any pass change
/// that moves a retired op on the gallery must regenerate it
/// deliberately (`golden_cycles -- opt`). The default-config golden file
/// above stays untouched — the extended passes are off by default.
#[test]
fn optimized_pipeline_cycles_are_bit_identical_to_golden() {
    check_golden(GOLDEN_OPT, opt_sweep(), "optimized");
}

/// The bridge between the two representations of the cost model. For all
/// 240 rows of the goldens this accounting replaced, the retired count is
/// exactly what the in-order `f64` chain counted, and the derived X3
/// cycles are the same number up to the chain's own rounding drift: the
/// chain made one rounding per retired instruction (10^5 to 10^6 of
/// them), the dot product makes one per class. Run with `--nocapture` for
/// the largest distance seen.
#[test]
fn derived_cycles_match_the_f64_chain_they_replaced() {
    let mut worst = (0.0f64, String::new());
    let pairs = [
        (BRIDGE, GOLDEN, default_sweep()),
        (BRIDGE_OPT, GOLDEN_OPT, opt_sweep()),
    ];
    for (bridge, golden, sweep) in pairs {
        for ((f, g), (counts, cycles)) in rows(bridge).iter().zip(rows(golden)).zip(sweep) {
            assert_eq!((f[0], f[1]), (g[0], g[1]), "bridge and golden rows pair up");
            let old = f64::from_bits(num(f[2]));
            assert_eq!(counts.instr_count(), num(f[3]), "{}/{}", f[0], f[1]);
            let distance = ((cycles - old) / old).abs();
            assert!(
                distance <= 1e-10,
                "{}/{}: derived {cycles} vs chained {old}: relative distance {distance:e}",
                f[0],
                f[1]
            );
            if distance > worst.0 {
                worst = (distance, format!("{}/{}", f[0], f[1]));
            }
        }
    }
    eprintln!(
        "bridge: largest relative distance {:e} at {}",
        worst.0, worst.1
    );
}

/// The counts do not depend on the core: every kernel x variant x level
/// run on Cortex-A715 and on Cortex-A510 is charged the vector the
/// golden pins for Cortex-X3, and the engine's own reading of the cycles
/// there is the golden's derived column — so Fig. 14's other two thirds
/// are held by numbers too.
#[test]
fn count_vectors_are_identical_under_all_three_cores() {
    for (golden, level) in [(GOLDEN, OptLevel::default()), (GOLDEN_OPT, OptLevel::Full)] {
        for f in rows(golden) {
            let (kernel, variant) = (f[0], variant_by_debug_name(f[1]));
            let pinned = golden_counts(&f);
            for (core, column) in [(Core::CortexA715, 4), (Core::CortexA510, 5)] {
                let (counts, cycles) = run(kernel, variant, core, level);
                assert_eq!(counts, pinned, "{kernel}/{variant:?} on {core}");
                assert_eq!(
                    cycles.to_bits(),
                    num(f[column + ChargeClass::COUNT]),
                    "{kernel}/{variant:?} on {core}"
                );
            }
        }
    }
}

/// The optimiser must actually earn its keep on the gallery: for every
/// kernel/variant pair the optimized pipeline retires no more
/// instructions than the default pipeline, and in aggregate it retires
/// strictly fewer — the measured win the ROADMAP records.
#[test]
fn optimized_pipeline_retires_fewer_instructions() {
    let (default_rows, opt_rows) = (rows(GOLDEN), rows(GOLDEN_OPT));
    assert_eq!(default_rows.len(), opt_rows.len());
    let (mut total_default, mut total_opt) = (0u64, 0u64);
    for (d, o) in default_rows.iter().zip(&opt_rows) {
        assert_eq!((d[0], d[1]), (o[0], o[1]), "golden files out of order");
        let (d_count, o_count) = (num(d[3]), num(o[3]));
        assert!(
            o_count <= d_count,
            "{}/{}: optimized pipeline retired MORE instructions ({o_count} > {d_count})",
            o[0],
            o[1],
        );
        total_default += d_count;
        total_opt += o_count;
    }
    assert!(
        total_opt < total_default,
        "optimiser retired nothing across the whole gallery"
    );
}
