//! Prints the PolyBench gallery's golden rows: what each kernel x variant
//! retires, class by class, and the cycles that costs on the three cores.
//! With no argument the default pipeline (`golden_polybench_cycles.tsv`);
//! with `opt` the full IR optimiser (`…_opt.tsv`), which pins what the
//! optimiser leaves behind — charges follow the surviving ops. Row format
//! and when to regenerate are in `crates/bench/tests/cycle_regression.rs`.
use cage::engine::{ChargeClass, CostModel};
use cage::{Core, Engine, OptLevel, Variant};

fn main() {
    let level = match std::env::args().nth(1).as_deref() {
        None => OptLevel::Standard,
        Some("opt") => OptLevel::Full,
        Some(other) => panic!("usage: golden_cycles [opt] (got `{other}`)"),
    };
    let classes = ChargeClass::ALL.map(ChargeClass::name).join("\t");
    println!("# kernel\tvariant\tx3_cycle_bits\tinstr_count\t{classes}\ta715_cycle_bits\ta510_cycle_bits");
    for kernel in cage_polybench::kernels() {
        for variant in Variant::ALL {
            let engine = Engine::builder(variant)
                .core(Core::CortexX3)
                .opt_level(level)
                .build();
            let artifact = engine.compile(kernel.source).expect("builds");
            let mut inst = engine.instantiate(&artifact).expect("instantiates");
            inst.invoke("run", &[]).expect("runs");
            let counts = inst.charge_counts();
            assert_eq!(counts.host_cycles, 0.0, "the kernels call no host function");
            let on = |core| {
                counts
                    .cycles(&CostModel::class_weights(&variant.exec_config(core)))
                    .to_bits()
            };
            assert_eq!(on(Core::CortexX3), inst.cycles().to_bits());
            let columns: Vec<String> = counts.counts.iter().map(u64::to_string).collect();
            println!(
                "{}\t{:?}\t{}\t{}\t{}\t{}\t{}",
                kernel.name,
                variant,
                on(Core::CortexX3),
                counts.instr_count(),
                columns.join("\t"),
                on(Core::CortexA715),
                on(Core::CortexA510),
            );
        }
    }
}
