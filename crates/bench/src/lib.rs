//! # cage-bench — the experiment harness
//!
//! One regeneration target per table/figure of the paper (README,
//! "Regenerating the paper's results"). Each binary prints the text of
//! the function of the same name in [`figures`]; the committed copies
//! under `tests/golden_figures/` are what tier-1 compares them with.
//!
//! | paper artefact | binary |
//! |---|---|
//! | Table 1 (MTE/PAC instruction timing)     | `table1_instructions` |
//! | Fig. 4 (MTE mode overhead on memset)     | `fig4_mte_modes` |
//! | Table 2 (CVE mitigation matrix)          | `table2_cves` |
//! | Fig. 14 (PolyBench runtime overheads)    | `fig14_polybench` |
//! | Fig. 15 (pointer-auth call overhead)     | `fig15_ptr_auth` |
//! | Fig. 16 / Table 4 (tagged-memory init)   | `fig16_stg_variants` |
//! | §7.3 (memory overhead)                   | `mem_overhead` |
//! | §7.2 (startup overhead)                  | `startup_overhead` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cage::{Core, Engine, Variant};
use cage_polybench::Kernel;

/// One measured kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Simulated milliseconds.
    pub simulated_ms: f64,
    /// Retired instruction count.
    pub instructions: u64,
    /// Checksum the guest returned.
    pub checksum: f64,
}

/// Builds and runs `source`'s `run()` under (variant, core).
///
/// # Panics
///
/// Panics on build or execution failure — benchmark inputs are trusted.
#[must_use]
pub fn measure_source(source: &str, variant: Variant, core: Core) -> Measurement {
    let engine = Engine::builder(variant).core(core).build();
    let artifact = engine.compile(source).expect("benchmark source builds");
    let mut inst = engine.instantiate(&artifact).expect("instantiates");
    let run = inst
        .get_typed::<(), f64>("run")
        .expect("kernels export double run()");
    let checksum = run.call(&mut inst, ()).expect("runs");
    Measurement {
        simulated_ms: inst.simulated_ms(),
        instructions: inst.instr_count(),
        checksum,
    }
}

/// Measures one PolyBench kernel, verifying the checksum against the
/// native reference.
#[must_use]
pub fn measure_kernel(kernel: &Kernel, variant: Variant, core: Core) -> Measurement {
    let m = measure_source(kernel.source, variant, core);
    let native = (kernel.native)();
    assert_eq!(
        m.checksum.to_bits(),
        native.to_bits(),
        "{} produced a wrong checksum under {variant}",
        kernel.name
    );
    m
}

/// Fig. 14: mean runtime of each variant relative to wasm64, in percent,
/// per core — plus the per-kernel ratios for the detailed table.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// Kernel names, in suite order.
    pub kernels: Vec<&'static str>,
    /// `ratios[variant][core][kernel]` = runtime / wasm64 runtime.
    pub ratios: Vec<Vec<Vec<f64>>>,
}

impl Fig14 {
    /// Mean percentage (the bar heights of Fig. 14).
    #[must_use]
    pub fn mean_percent(&self, variant: Variant, core: Core) -> f64 {
        let vs = &self.ratios[variant_index(variant)][core_index(core)];
        100.0 * vs.iter().sum::<f64>() / vs.len() as f64
    }

    /// Sample standard deviation of the percentages (the ± in §7.2).
    #[must_use]
    pub fn std_percent(&self, variant: Variant, core: Core) -> f64 {
        let vs = &self.ratios[variant_index(variant)][core_index(core)];
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        if vs.len() < 2 {
            return 0.0;
        }
        let var = vs.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (vs.len() - 1) as f64;
        100.0 * var.sqrt()
    }
}

fn variant_index(v: Variant) -> usize {
    Variant::ALL
        .iter()
        .position(|x| *x == v)
        .expect("known variant")
}

fn core_index(c: Core) -> usize {
    Core::ALL.iter().position(|x| *x == c).expect("known core")
}

/// Runs the full Fig. 14 sweep over `kernels` (pass the whole suite or a
/// subset for quick runs).
#[must_use]
pub fn fig14_sweep(kernels: &[Kernel]) -> Fig14 {
    let mut ratios = vec![vec![vec![0.0f64; kernels.len()]; Core::ALL.len()]; Variant::ALL.len()];
    for (ci, &core) in Core::ALL.iter().enumerate() {
        for (ki, kernel) in kernels.iter().enumerate() {
            let base = measure_kernel(kernel, Variant::BaselineWasm64, core).simulated_ms;
            for (vi, &variant) in Variant::ALL.iter().enumerate() {
                let ms = if variant == Variant::BaselineWasm64 {
                    base
                } else {
                    measure_kernel(kernel, variant, core).simulated_ms
                };
                ratios[vi][ci][ki] = ms / base;
            }
        }
    }
    Fig14 {
        kernels: kernels.iter().map(|k| k.name).collect(),
        ratios,
    }
}

/// Fig. 15: (static, dynamic, ptr-auth) mean runtime percent per core,
/// normalised to static.
#[must_use]
pub fn fig15_sweep() -> Vec<(Core, [f64; 3])> {
    use cage_polybench::calls::{TWO_MM_DYNAMIC, TWO_MM_STATIC};
    Core::ALL
        .iter()
        .map(|&core| {
            let stat = measure_source(TWO_MM_STATIC, Variant::BaselineWasm64, core).simulated_ms;
            let dynamic =
                measure_source(TWO_MM_DYNAMIC, Variant::BaselineWasm64, core).simulated_ms;
            let auth = measure_source(TWO_MM_DYNAMIC, Variant::CagePtrAuth, core).simulated_ms;
            (core, [100.0, 100.0 * dynamic / stat, 100.0 * auth / stat])
        })
        .collect()
}

pub mod figures;
pub mod fuzz;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_kernel_verifies_checksum() {
        let k = cage_polybench::kernel("gemm").unwrap();
        let m = measure_kernel(&k, Variant::BaselineWasm64, Core::CortexX3);
        assert!(m.simulated_ms > 0.0);
        assert!(m.instructions > 10_000);
    }

    #[test]
    fn fig14_shape_on_one_kernel() {
        let k = cage_polybench::kernel("gemm").unwrap();
        let fig = fig14_sweep(std::slice::from_ref(&k));
        // wasm64 is the normalisation baseline.
        assert!((fig.mean_percent(Variant::BaselineWasm64, Core::CortexA510) - 100.0).abs() < 1e-9);
        // In-order core: wasm32 much faster than wasm64; sandboxing wins.
        let wasm32 = fig.mean_percent(Variant::BaselineWasm32, Core::CortexA510);
        let sandbox = fig.mean_percent(Variant::CageSandboxing, Core::CortexA510);
        assert!(wasm32 < 80.0, "wasm32 {wasm32}");
        assert!(sandbox < 80.0, "sandbox {sandbox}");
    }
}
