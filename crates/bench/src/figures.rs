//! The text of the paper's tables and figures, one function each.
//!
//! Every function here is deterministic simulated output: the binaries of
//! the same names print it, and `tests/figure_goldens.rs` compares it
//! byte for byte with the committed copies under `tests/golden_figures/`,
//! so a change to the cost model, the timing tables or the gallery shows
//! up as a diff of the text a reader of the paper would look at.

use std::fmt::Write as _;

use cage::mte::pipeline::{measure_mte, run_chained, run_independent, InstrParams};
use cage::mte::timing::{
    bulk_init_ms, memset_ms, tag_region_ms, BulkInitVariant, CALIBRATION_BYTES,
};
use cage::mte::{MteInstr, MteMode};
use cage::pac::PacInstr;
use cage::runtime::startup_report;
use cage::{Core, Engine, Variant};

/// Table 1: MTE and PAC instruction throughput (instructions per cycle)
/// and latencies (cycles) per core.
///
/// Runs the paper's microbenchmark (§2.3) against the simulated pipeline:
/// 10^6 instructions in an unrolled loop, without data dependencies for
/// throughput and with a serial dependency chain for latency.
#[must_use]
pub fn table1_instructions() -> String {
    const N: u64 = 1_000_000;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: MTE and PAC instruction throughput (inst/cycle) and latency (cycles)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>6} {:>9} {:>6} {:>9} {:>6}",
        "Inst", "X3 Tp", "Lat", "A715 Tp", "Lat", "A510 Tp", "Lat"
    );
    let _ = writeln!(out, "MTE");
    for instr in MteInstr::ALL {
        let mut row = format!("{:<8}", instr.mnemonic());
        for core in Core::ALL {
            let (tp, lat) = measure_mte(instr, core, N);
            let lat_s = lat.map_or_else(|| "-".to_string(), |l| format!("{l:.2}"));
            let _ = write!(row, " {tp:>9.2} {lat_s:>6}");
        }
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(out, "PAC");
    for instr in PacInstr::ALL {
        let mut row = format!("{:<8}", instr.mnemonic());
        for core in Core::ALL {
            let params = InstrParams {
                throughput: instr.throughput(core),
                latency: Some(instr.latency(core)),
            };
            let tp = run_independent(params, N).throughput();
            let lat = run_chained(params, N).latency();
            let _ = write!(row, " {tp:>9.2} {lat:>6.2}");
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Fig. 4: performance overhead of MTE sync and async mode for writing
/// 128 MiB of memory, per core.
#[must_use]
pub fn fig4_mte_modes() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4: 128 MiB memset under MTE modes (ms, lower is better)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8}",
        "Core", "none", "async", "sync"
    );
    for core in Core::ALL {
        let none = memset_ms(core, CALIBRATION_BYTES, MteMode::Disabled);
        let asyn = memset_ms(core, CALIBRATION_BYTES, MteMode::Asynchronous);
        let sync = memset_ms(core, CALIBRATION_BYTES, MteMode::Synchronous);
        let _ = writeln!(
            out,
            "{:<12} {none:>8.1} {asyn:>8.1} {sync:>8.1}",
            core.to_string()
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "overheads vs disabled:");
    for core in Core::ALL {
        let none = memset_ms(core, CALIBRATION_BYTES, MteMode::Disabled);
        let asyn = memset_ms(core, CALIBRATION_BYTES, MteMode::Asynchronous);
        let sync = memset_ms(core, CALIBRATION_BYTES, MteMode::Synchronous);
        let _ = writeln!(
            out,
            "{:<12} async {:+.1}%  sync {:+.1}%",
            core.to_string(),
            (asyn / none - 1.0) * 100.0,
            (sync / none - 1.0) * 100.0
        );
    }
    out
}

/// Table 2: the CVE classes, whether plain WASM mitigates them, and
/// whether Cage catches them.
///
/// # Panics
///
/// Panics when the baseline catches a case or Cage misses one.
#[must_use]
pub fn table2_cves() -> String {
    fn outcome(source: &str, variant: Variant) -> &'static str {
        let engine = Engine::new(variant);
        let artifact = engine.compile(source).expect("builds");
        let mut inst = engine.instantiate(&artifact).expect("instantiates");
        let run = inst.get_typed::<i64, i64>("run").expect("run export");
        match run.call(&mut inst, 1) {
            Ok(_) => "undetected",
            Err(e) if e.is_memory_safety_violation() => "trapped",
            Err(_) => "other trap",
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "Table 2: memory-safety errors and their mitigation");
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:<18} {:<12} {:<12}",
        "CVE", "Cause", "Mitigated in WASM", "baseline", "Cage"
    );
    for case in cage::gallery::cases() {
        let base = outcome(case.source, Variant::BaselineWasm64);
        let caged = outcome(case.source, Variant::CageFull);
        let _ = writeln!(
            out,
            "{:<16} {:<16} {:<18} {:<12} {:<12}",
            case.cve, case.cause, case.mitigated_in_wasm, base, caged
        );
        assert_eq!(base, "undetected", "{}: baseline must miss it", case.cve);
        assert_eq!(caged, "trapped", "{}: Cage must catch it", case.cve);
    }
    out
}

/// Fig. 14: PolyBench/C runtime overheads of the Table 3 configurations,
/// normalised to baseline wasm64, per core.
///
/// Also covers the paper's §3 claim: the wasm32 row shows the 32→64-bit
/// sandboxing cost (~6-8 % on out-of-order cores, ~52 % on the in-order
/// A510, read as 100/wasm32 - 1).
#[must_use]
pub fn fig14_polybench() -> String {
    let fig = crate::fig14_sweep(&cage_polybench::kernels());

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
    for (ci, core) in Core::ALL.iter().enumerate() {
        let _ = writeln!(out, "[{core}]");
        let _ = write!(out, "{:<16}", "kernel");
        for variant in Variant::ALL {
            let _ = write!(out, " {:>16}", variant.label());
        }
        let _ = writeln!(out);
        for (ki, name) in fig.kernels.iter().enumerate() {
            let _ = write!(out, "{name:<16}");
            for (vi, _) in Variant::ALL.iter().enumerate() {
                let _ = write!(out, " {:>16.3}", fig.ratios[vi][ci][ki]);
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Fig. 15: overheads of pointer authentication on the call-indirect 2mm
/// variant (static vs dynamic vs authenticated dynamic).
#[must_use]
pub fn fig15_ptr_auth() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 15: 2mm-with-calls runtime, normalised to static (%)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>9} {:>9}",
        "Core", "static", "dynamic", "ptr-auth"
    );
    for (core, [s, d, a]) in crate::fig15_sweep() {
        let _ = writeln!(out, "{:<12} {s:>8.1} {d:>9.1} {a:>9.1}", core.to_string());
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "expected shape (paper): dynamic 115-122%, ptr-auth within ~1-2% of dynamic"
    );
    out
}

/// Fig. 16 / Table 4: initialising and tagging 128 MiB with the different
/// store-tag instruction variants, per core.
#[must_use]
pub fn fig16_stg_variants() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 16: 128 MiB init/tag variants (ms, lower is better)"
    );
    let _ = write!(out, "{:<12}", "Core");
    for v in BulkInitVariant::ALL {
        let _ = write!(out, " {:>11}", v.label());
    }
    let _ = writeln!(out);
    for core in Core::ALL {
        let _ = write!(out, "{:<12}", core.to_string());
        for v in BulkInitVariant::ALL {
            let _ = write!(out, " {:>11.1}", bulk_init_ms(core, CALIBRATION_BYTES, v));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "Table 4 metadata:");
    let _ = writeln!(out, "{:<12} {:>8} {:>8}", "variant", "sets 0", "tags");
    for v in BulkInitVariant::ALL {
        let _ = writeln!(
            out,
            "{:<12} {:>8} {:>8}",
            v.label(),
            if v.zeroes_memory() { "yes" } else { "no" },
            if v.sets_tags() { "yes" } else { "no" }
        );
    }
    out
}

/// §7.3: the memory-overhead estimate.
///
/// Two components, as in the paper: (i) the wasm64-over-wasm32 data-size
/// delta (pointers double in size — measured on a pointer-heavy linked
/// list, ~0.6 % on PolyBench where data is mostly scalar arrays), and
/// (ii) the MTE tag space, 4 bits per 16 bytes = 3.125 % of tagged memory.
///
/// # Panics
///
/// Panics when the estimate exceeds the paper's 5.3 % bound.
#[must_use]
pub fn mem_overhead() -> String {
    /// Pointer-bearing workload: a linked list where node size depends on
    /// the pointer width.
    const LIST: &str = r#"
struct Node {
    char* next;
    char* prev;
    char* data;
    int value;
};

long run(long n) {
    char* head = 0;
    for (long i = 0; i < n; i++) {
        struct Node* node = (struct Node*)malloc(sizeof(struct Node));
        node->next = head;
        node->prev = 0;
        node->data = 0;
        node->value = (int)i;
        head = (char*)node;
    }
    long sum = 0;
    struct Node* cur = (struct Node*)head;
    while (cur) {
        sum += cur->value;
        cur = (struct Node*)cur->next;
    }
    return sum;
}
"#;

    fn heap_used(variant: Variant) -> u64 {
        let engine = Engine::new(variant);
        let artifact = engine.compile(LIST).expect("builds");
        let mut inst = engine.instantiate(&artifact).expect("instantiates");
        let run = inst.get_typed::<i64, i64>("run").expect("run export");
        run.call(&mut inst, 1000).expect("runs");
        inst.memory_report().heap_peak_bytes
    }

    let mut out = String::new();
    let _ = writeln!(out, "Memory overhead (§7.3)");
    let _ = writeln!(out);

    // Component (i): pointer-width data growth.
    let h32 = heap_used(Variant::BaselineWasm32);
    let h64 = heap_used(Variant::BaselineWasm64);
    let ptr_delta = h64 as f64 / h32 as f64 - 1.0;
    let _ = writeln!(out, "pointer-heavy heap (1000-node list):");
    let _ = writeln!(
        out,
        "  wasm32 peak {h32} B, wasm64 peak {h64} B -> {:+.1}%",
        ptr_delta * 100.0
    );
    let _ = writeln!(
        out,
        "  (PolyBench data is scalar arrays; its measured wasm64 delta is ~0.6%)"
    );
    let _ = writeln!(out);

    // Component (ii): the tag space on a PolyBench instance.
    let kernel = cage_polybench::kernel("gemm").expect("gemm exists");
    let mut reports = Vec::new();
    for variant in [Variant::BaselineWasm64, Variant::CageFull] {
        let engine = Engine::new(variant);
        let artifact = engine.compile(kernel.source).expect("builds");
        let mut inst = engine.instantiate(&artifact).expect("instantiates");
        inst.invoke("run", &[]).expect("runs");
        reports.push(inst.memory_report());
    }
    let wasm64 = reports[0];
    let caged = reports[1];
    let _ = writeln!(out, "PolyBench (gemm) instance:");
    let _ = writeln!(
        out,
        "  wasm64 resident {} B; Cage resident {} B (tag space {} B)",
        wasm64.resident_bytes, caged.resident_bytes, caged.tag_bytes
    );
    let tag_delta = caged.overhead_over(&wasm64) * 100.0;
    let _ = writeln!(
        out,
        "  Cage over wasm64: {tag_delta:+.2}% (tag space = 1/32 = 3.125%)"
    );
    let _ = writeln!(out);
    let estimate = 0.6 + tag_delta;
    let _ = writeln!(
        out,
        "paper-style estimate: 0.6% (wasm64 delta) + {tag_delta:.2}% (tags) = {estimate:.2}% < 5.3%"
    );
    assert!(estimate < 5.3, "memory overhead exceeds the paper's bound");
    out
}

/// §7.2: the startup-overhead experiment — instantiating a module with a
/// 128 MiB static memory and calling an empty function.
#[must_use]
pub fn startup_overhead() -> String {
    const MIB_128: u64 = 128 * 1024 * 1024;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Startup overhead: 128 MiB static memory, empty export (§7.2)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:<16} {:>9} {:>10} {:>9} {:>9}",
        "Core", "variant", "base ms", "tagging ms", "total ms", "tag %"
    );
    for core in Core::ALL {
        for variant in [Variant::BaselineWasm64, Variant::CageFull] {
            let r = startup_report(variant, core, MIB_128);
            let _ = writeln!(
                out,
                "{:<12} {:<16} {:>9.1} {:>10.2} {:>9.1} {:>8.1}%",
                core.to_string(),
                variant.label(),
                r.base_ms,
                r.tagging_ms,
                r.total_ms(),
                r.tagging_fraction() * 100.0
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "context: a standalone stg tagging pass over 128 MiB would cost:"
    );
    for core in Core::ALL {
        let _ = writeln!(
            out,
            "  {:<12} {:>6.1} ms (hidden: the runtime tags while zeroing, via stzg)",
            core.to_string(),
            tag_region_ms(core, MIB_128)
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "claim (§7.2): the overhead of tagging the linear memory is hidden by the\nruntime's startup overhead — the tagging column stays a small fraction."
    );
    out
}
