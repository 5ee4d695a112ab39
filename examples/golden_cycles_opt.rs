//! Prints simulated cycle counts for the PolyBench gallery under the
//! full IR optimiser (golden capture for the optimized-pipeline gate).
//!
//! The cycle model's contract is that charges follow the surviving
//! ops, so this capture pins what the optimiser leaves behind:
//! regenerate (release mode, Cortex-X3) only when a pass change
//! *intends* to shift the optimized gallery.
use cage::{Core, Engine, OptLevel, Variant};

fn main() {
    for kernel in cage_polybench::kernels() {
        for variant in Variant::ALL {
            let engine = Engine::builder(variant)
                .core(Core::CortexX3)
                .opt_level(OptLevel::Full)
                .build();
            let artifact = engine.compile(kernel.source).expect("builds");
            let mut inst = engine.instantiate(&artifact).expect("instantiates");
            inst.invoke("run", &[]).expect("runs");
            println!(
                "{}\t{:?}\t{}\t{}",
                kernel.name,
                variant,
                inst.cycles().to_bits(),
                inst.instr_count()
            );
        }
    }
}
