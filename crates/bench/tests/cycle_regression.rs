//! Cycle-accounting regression gate for the execution hot path.
//!
//! The interpreter's allocation-free refactor (precompiled call frames,
//! shared operand stack, scalar memory access, in-place bulk ops) must not
//! move a single simulated cycle: the golden file pins the exact `f64`
//! bit pattern of the cycle counter and the retired-instruction count for
//! every PolyBench kernel under every Table 3 variant, captured from the
//! pre-refactor interpreter on Cortex-X3.
//!
//! Regenerate with `cargo run --release --example golden_cycles` — but
//! only when a cost-model change *intends* to shift cycles.

use cage::{Core, Engine, OptLevel, Variant};

const GOLDEN: &str = include_str!("golden_polybench_cycles.tsv");
const GOLDEN_OPT: &str = include_str!("golden_polybench_cycles_opt.tsv");

fn variant_by_debug_name(name: &str) -> Variant {
    *Variant::ALL
        .iter()
        .find(|v| format!("{v:?}") == name)
        .unwrap_or_else(|| panic!("unknown variant {name} in golden file"))
}

#[test]
fn polybench_gallery_cycles_are_bit_identical_to_golden() {
    let mut checked = 0;
    for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
        let mut fields = line.split('\t');
        let kernel_name = fields.next().expect("kernel column");
        let variant = variant_by_debug_name(fields.next().expect("variant column"));
        let cycle_bits: u64 = fields
            .next()
            .expect("cycle-bits column")
            .parse()
            .expect("u64 cycle bits");
        let instr_count: u64 = fields
            .next()
            .expect("instr-count column")
            .parse()
            .expect("u64 instr count");

        let kernel = cage_polybench::kernel(kernel_name)
            .unwrap_or_else(|| panic!("golden kernel {kernel_name} missing from suite"));
        let engine = Engine::builder(variant).core(Core::CortexX3).build();
        let artifact = engine.compile(kernel.source).expect("builds");
        let mut inst = engine.instantiate(&artifact).expect("instantiates");
        inst.invoke("run", &[]).expect("runs");

        assert_eq!(
            inst.cycles().to_bits(),
            cycle_bits,
            "{kernel_name}/{variant:?}: simulated cycles drifted \
             (got {}, golden {})",
            inst.cycles(),
            f64::from_bits(cycle_bits),
        );
        assert_eq!(
            inst.instr_count(),
            instr_count,
            "{kernel_name}/{variant:?}: retired instruction count drifted"
        );
        checked += 1;
    }
    // 20 kernels x 6 variants at capture time; never shrink silently.
    assert!(checked >= 120, "golden file unexpectedly small: {checked}");
}

/// The optimized-pipeline variant of the gate: same gallery, same
/// variants, with the full extended optimiser (CSE, store-to-load
/// forwarding, strength reduction, CFG simplification) enabled. The
/// cycle model charges only the ops that survive the passes, so this
/// golden file pins *what the optimiser leaves behind*: any pass change
/// that moves a cycle or a retired op on the gallery must regenerate it
/// deliberately (`cargo run --release --example golden_cycles_opt`).
/// The default-config golden file above stays byte-for-byte untouched —
/// the extended passes are off by default.
#[test]
fn optimized_pipeline_cycles_are_bit_identical_to_golden() {
    let mut checked = 0;
    for line in GOLDEN_OPT.lines().filter(|l| !l.trim().is_empty()) {
        let mut fields = line.split('\t');
        let kernel_name = fields.next().expect("kernel column");
        let variant = variant_by_debug_name(fields.next().expect("variant column"));
        let cycle_bits: u64 = fields
            .next()
            .expect("cycle-bits column")
            .parse()
            .expect("u64 cycle bits");
        let instr_count: u64 = fields
            .next()
            .expect("instr-count column")
            .parse()
            .expect("u64 instr count");

        let kernel = cage_polybench::kernel(kernel_name)
            .unwrap_or_else(|| panic!("golden kernel {kernel_name} missing from suite"));
        let engine = Engine::builder(variant)
            .core(Core::CortexX3)
            .opt_level(OptLevel::Full)
            .build();
        let artifact = engine.compile(kernel.source).expect("builds");
        let mut inst = engine.instantiate(&artifact).expect("instantiates");
        inst.invoke("run", &[]).expect("runs");

        assert_eq!(
            inst.cycles().to_bits(),
            cycle_bits,
            "{kernel_name}/{variant:?} (optimized): simulated cycles drifted \
             (got {}, golden {})",
            inst.cycles(),
            f64::from_bits(cycle_bits),
        );
        assert_eq!(
            inst.instr_count(),
            instr_count,
            "{kernel_name}/{variant:?} (optimized): retired instruction count drifted"
        );
        checked += 1;
    }
    assert!(
        checked >= 120,
        "optimized golden file unexpectedly small: {checked}"
    );
}

/// The optimiser must actually earn its keep on the gallery: for every
/// kernel/variant pair the optimized pipeline retires no more
/// instructions than the default pipeline, and in aggregate it retires
/// strictly fewer — the measured win the ROADMAP records.
#[test]
fn optimized_pipeline_retires_fewer_instructions() {
    let parse = |golden: &str| -> Vec<(String, String, u64)> {
        golden
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let f: Vec<&str> = line.split('\t').collect();
                (
                    f[0].to_string(),
                    f[1].to_string(),
                    f[3].parse().expect("u64"),
                )
            })
            .collect()
    };
    let default_counts = parse(GOLDEN);
    let opt_counts = parse(GOLDEN_OPT);
    assert_eq!(default_counts.len(), opt_counts.len());
    let (mut total_default, mut total_opt) = (0u64, 0u64);
    for (d, o) in default_counts.iter().zip(&opt_counts) {
        assert_eq!((&d.0, &d.1), (&o.0, &o.1), "golden files out of order");
        assert!(
            o.2 <= d.2,
            "{}/{}: optimized pipeline retired MORE instructions ({} > {})",
            o.0,
            o.1,
            o.2,
            d.2
        );
        total_default += d.2;
        total_opt += o.2;
    }
    assert!(
        total_opt < total_default,
        "optimiser retired nothing across the whole gallery"
    );
}
