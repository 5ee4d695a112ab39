//! Regenerates Fig. 14: PolyBench/C runtime overheads of the Table 3
//! configurations, normalised to baseline wasm64, per core.
//!
//! Also covers the paper's §3 claim: the wasm32 row shows the
//! 32→64-bit sandboxing cost (~6-8 % on out-of-order cores, ~52 % on the
//! in-order A510, read as 100/wasm32 - 1).

use std::fmt::Write as _;

use cage::{Core, Variant};

fn main() {
    let kernels = cage_polybench::kernels();
    eprintln!(
        "running {} kernels x {} variants x {} cores ...",
        kernels.len(),
        Variant::ALL.len(),
        Core::ALL.len()
    );
    let fig = cage_bench::fig14_sweep(&kernels);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 14: PolyBench mean runtime, normalised to baseline wasm64 (%, lower is better)"
    );
    let _ = write!(out, "{:<18}", "variant");
    for core in Core::ALL {
        let _ = write!(out, " {:>16}", core.to_string());
    }
    let _ = writeln!(out);
    for variant in Variant::ALL {
        let _ = write!(out, "{:<18}", variant.label());
        for core in Core::ALL {
            let mean = fig.mean_percent(variant, core);
            let std = fig.std_percent(variant, core);
            let _ = write!(out, " {:>9.1} ±{:>4.1}", mean, std);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "§3 check — 64-bit sandboxing cost (wasm64 over wasm32):"
    );
    for core in Core::ALL {
        let wasm32 = fig.mean_percent(Variant::BaselineWasm32, core);
        let _ = writeln!(
            out,
            "  {:<12} +{:.1}%",
            core.to_string(),
            (100.0 / wasm32 - 1.0) * 100.0
        );
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "per-kernel ratios (runtime / wasm64):");
    for core in Core::ALL {
        let _ = writeln!(out, "[{core}]");
        let _ = write!(out, "{:<16}", "kernel");
        for variant in Variant::ALL {
            let _ = write!(out, " {:>16}", variant.label());
        }
        let _ = writeln!(out);
        for (ki, name) in fig.kernels.iter().enumerate() {
            let _ = write!(out, "{name:<16}");
            for (vi, _) in Variant::ALL.iter().enumerate() {
                let ci = Core::ALL.iter().position(|c| *c == core).unwrap();
                let _ = write!(out, " {:>16.3}", fig.ratios[vi][ci][ki]);
            }
            let _ = writeln!(out);
        }
    }
    print!("{out}");
    let path = cage_bench::write_results("runtime.txt", &out);
    println!("\nwritten to {}", path.display());
}
