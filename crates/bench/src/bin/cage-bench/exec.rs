//! `exec_polybench` and `exec_control`: guest execution.
//!
//! Artifacts are compiled in set-up; every run gets a fresh instance
//! created outside the timed span, and only the guest call is timed. A
//! row is one kernel under one variant; a round runs every row once, in
//! an order shuffled from the seed.

use cage::wasm::Module;
use cage::{Artifact, Core, Engine, Linker, Value, Variant};

use crate::corpus::{self, Rng};
use crate::harness::{
    round_percentiles_us, timed_setup, OpSeries, Outcome, Rate, Round, RunConfig,
};
use crate::spec::{ns_per_op_metric, EXEC_LABELS};
use crate::stats;
use crate::trace::Tracer;

/// The default-pipeline cycle golden: `kernel \t variant \t cycle bits \t
/// retired ops`, self-captured by an earlier PR and pinned by tier-1.
const GOLDEN: &str = include_str!("../../../tests/golden_polybench_cycles.tsv");

const VARIANTS: [(Variant, &str); 2] = [
    (Variant::BaselineWasm64, EXEC_LABELS[0]),
    (Variant::CageFull, EXEC_LABELS[1]),
];

enum Program {
    /// A compiled C unit exporting `run`.
    C {
        artifact: Artifact,
        args: Vec<Value>,
    },
    /// A hand-built module instantiated through the raw runtime.
    Raw {
        module: Module,
        export: &'static str,
        arg: i64,
    },
}

enum Expect {
    F64Bits(u64),
    I64(i64),
}

struct Row {
    kernel: &'static str,
    label: &'static str,
    engine: Engine,
    program: Program,
    expect: Expect,
    /// `(cycle bits, retired ops)`: from the golden file where it has the
    /// row, otherwise pinned by this run's warm-up round.
    pinned: Option<(u64, u64)>,
    from_golden: bool,
    /// Bytes moved through libc per run (the `bulk` kernel only).
    libc_bytes: u64,
}

struct RowRun {
    run_ns: u64,
    cycles: f64,
    retired: u64,
}

fn golden_row(kernel: &str, variant: Variant) -> Option<(u64, u64)> {
    let variant = format!("{variant:?}");
    GOLDEN.lines().find_map(|line| {
        let mut f = line.split('\t');
        (f.next()? == kernel && f.next()? == variant)
            .then(|| Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?)))?
    })
}

fn engine_for(variant: Variant) -> Engine {
    Engine::builder(variant).core(Core::CortexX3).build()
}

fn polybench_rows(smoke: bool) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for kernel in cage_polybench::kernels() {
        if smoke && kernel.name != "gemm" {
            continue;
        }
        for (variant, label) in VARIANTS {
            let engine = engine_for(variant);
            let artifact = engine
                .compile(kernel.source)
                .map_err(|e| format!("{}/{label}: {e}", kernel.name))?;
            let pinned = golden_row(kernel.name, variant);
            rows.push(Row {
                kernel: kernel.name,
                label,
                engine,
                program: Program::C {
                    artifact,
                    args: Vec::new(),
                },
                expect: Expect::F64Bits((kernel.native)().to_bits()),
                from_golden: pinned.is_some(),
                pinned,
                libc_bytes: 0,
            });
        }
    }
    Ok(rows)
}

/// Iteration counts of the control kernels, sized so a round of all ten
/// rows takes about 0.1 s on the reference sandbox.
const CALLS_N: i64 = 30_000;
const BRANCHES_N: i64 = 20_000;
const BULK_ROUNDS: i64 = 8_000;
const BR_TABLE_N: i64 = 200_000;

fn control_rows(smoke: bool) -> Result<Vec<Row>, String> {
    let c_kernels: [(&'static str, &str, i64, i64, u64); 3] = [
        (
            "calls",
            corpus::CALLS,
            CALLS_N,
            corpus::calls_native(CALLS_N),
            0,
        ),
        (
            "branches",
            corpus::BRANCHES,
            BRANCHES_N,
            corpus::branches_native(BRANCHES_N),
            0,
        ),
        (
            "bulk",
            corpus::BULK,
            BULK_ROUNDS,
            corpus::BULK_NATIVE,
            BULK_ROUNDS as u64 * corpus::BULK_BYTES_PER_ROUND,
        ),
    ];
    let raw_kernels: [(&'static str, i64); 2] = [
        ("dispatch", corpus::dispatch_native(BR_TABLE_N)),
        ("unwind", corpus::unwind_native(BR_TABLE_N)),
    ];
    let mut rows = Vec::new();
    for (variant, label) in VARIANTS {
        let engine = engine_for(variant);
        for (kernel, source, arg, expect, libc_bytes) in c_kernels {
            if smoke && kernel != "calls" {
                continue;
            }
            let artifact = engine
                .compile(source)
                .map_err(|e| format!("{kernel}/{label}: {e}"))?;
            rows.push(Row {
                kernel,
                label,
                engine: engine.clone(),
                program: Program::C {
                    artifact,
                    args: vec![Value::I64(arg)],
                },
                expect: Expect::I64(expect),
                pinned: None,
                from_golden: false,
                libc_bytes,
            });
        }
        for (export, expect) in raw_kernels {
            if smoke {
                continue;
            }
            rows.push(Row {
                kernel: export,
                label,
                engine: engine.clone(),
                program: Program::Raw {
                    module: corpus::br_table_module(),
                    export,
                    arg: BR_TABLE_N,
                },
                expect: Expect::I64(expect),
                pinned: None,
                from_golden: false,
                libc_bytes: 0,
            });
        }
    }
    Ok(rows)
}

/// Runs one row on a fresh instance. Only the guest call sits inside the
/// `engine.run` span; instantiation gets its own.
fn run_row(row: &Row, tracer: &mut Tracer, req: u64) -> Result<RowRun, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}/{}: {e}", row.kernel, row.label);
    let (out, run_ns, cycles, retired) = match &row.program {
        Program::C { artifact, args } => {
            let open = tracer.begin("core.instantiate", req);
            let inst = row.engine.instantiate(artifact);
            tracer.end(open);
            let mut inst = inst.map_err(|e| err(&e))?;
            let open = tracer.begin("engine.run", req);
            let out = inst.invoke("run", args);
            let run_ns = tracer.end(open);
            (
                out.map_err(|e| err(&e))?,
                run_ns,
                inst.cycles(),
                inst.instr_count(),
            )
        }
        Program::Raw {
            module,
            export,
            arg,
        } => {
            let open = tracer.begin("core.instantiate", req);
            let mut rt = row.engine.runtime();
            let token = rt.instantiate_linked(module, 0, &Linker::new());
            tracer.end(open);
            let token = token.map_err(|e| err(&e))?;
            let open = tracer.begin("engine.run", req);
            let out = rt.invoke(token, export, &[Value::I64(*arg)]);
            let run_ns = tracer.end(open);
            (
                out.map_err(|e| err(&e))?,
                run_ns,
                rt.cycles(token),
                rt.instr_count(token),
            )
        }
    };
    let right = match (&row.expect, out.as_slice()) {
        (Expect::F64Bits(bits), [Value::F64(v)]) => v.to_bits() == *bits,
        (Expect::I64(want), [Value::I64(v)]) => v == want,
        _ => false,
    };
    if !right {
        return Err(err(&format!("wrong result {out:?}")));
    }
    Ok(RowRun {
        run_ns,
        cycles,
        retired,
    })
}

/// One full set-up: compile every row, then one untimed round that also
/// pins the simulated counts of rows the golden file does not cover.
/// Returns the rows and a message per row that disagrees with the golden.
fn prepare(polybench: bool, cfg: &RunConfig) -> Result<(Vec<Row>, Vec<String>), String> {
    let mut rows = if polybench {
        polybench_rows(cfg.smoke)?
    } else {
        control_rows(cfg.smoke)?
    };
    let mut warmup = cfg.tracer();
    let mut mismatches = Vec::new();
    for row in &mut rows {
        let run = run_row(row, &mut warmup, 0)?;
        let seen = (run.cycles.to_bits(), run.retired);
        match row.pinned {
            None => row.pinned = Some(seen),
            Some(golden) if golden != seen => mismatches.push(format!(
                "{}/{}: cycles/retired {seen:?} differ from the golden {golden:?}",
                row.kernel, row.label
            )),
            Some(_) => {}
        }
    }
    Ok((rows, mismatches))
}

pub fn run(polybench: bool, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setups_before, setups_after) = cfg.setup_reps();
    let mut prepared = None;
    for _ in 0..setups_before {
        prepared = Some(timed_setup(&mut out.setup_s, || prepare(polybench, cfg))?);
    }
    let (rows, mismatches) = prepared.expect("at least one set-up repetition");
    let golden_mismatches = mismatches.len();
    mismatches.into_iter().for_each(|m| out.fail(m));

    let mut tracer = cfg.tracer();
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    // Per row: the run time of every round, ns.
    let mut run_ns: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    for round in 0..cfg.rounds {
        let traced = cfg.round_is_traced(round);
        tracer.set_recording(traced);
        rng.shuffle(&mut order);
        let (mut total_ns, mut total_retired) = (0u64, 0u64);
        let mut round_ns = Vec::with_capacity(rows.len());
        for &i in &order {
            let row = &rows[i];
            out.attempted += 1;
            match run_row(row, &mut tracer, round as u64) {
                Ok(run) => {
                    if Some((run.cycles.to_bits(), run.retired)) != row.pinned {
                        out.fail(format!(
                            "{}/{}: cycles/retired moved between rounds",
                            row.kernel, row.label
                        ));
                    }
                    total_ns += run.run_ns;
                    total_retired += run.retired;
                    round_ns.push(run.run_ns as f64);
                    run_ns[i].push(run.run_ns as f64);
                }
                Err(e) => out.fail(e),
            }
        }
        let (op_p50_us, op_p90_us) = round_percentiles_us(&round_ns);
        out.rounds.push(Round {
            traced,
            // The rate at which a typical row completes: every kernel
            // weighs the same, however long it runs.
            ops_per_s: 1e9 / stats::geomean(&round_ns),
            guest_mops: total_retired as f64 / (total_ns as f64 / 1e3),
            op_p50_us,
            op_p90_us,
        });
    }
    for _ in 0..setups_after {
        timed_setup(&mut out.setup_s, || prepare(polybench, cfg))?;
    }

    let golden_rows = rows.iter().filter(|r| r.from_golden).count();
    if polybench && golden_rows != rows.len() {
        out.fail(format!(
            "golden file covers {golden_rows} of {} rows",
            rows.len()
        ));
    }
    out.set_layer("sim.golden_mismatches", golden_mismatches as f64);
    out.ops = rows
        .iter()
        .zip(&run_ns)
        .map(|(row, ns)| OpSeries {
            name: format!("{}.{}", row.kernel, row.label),
            ns: ns.clone(),
            retired: row.pinned.map_or(0, |p| p.1),
        })
        .collect();
    out.rate = Rate::Typical;
    ledger(&rows, &run_ns, &mut out);
    out.tracers.push(tracer);
    Ok(out)
}

/// The ledger: host ns per retired op per row, the Cage/wasm64 ratio, and
/// the simulated counts, which no host-speed change may move.
fn ledger(rows: &[Row], run_ns: &[Vec<f64>], out: &mut Outcome) {
    let ns_per_op: Vec<f64> = rows
        .iter()
        .zip(run_ns)
        .map(|(row, ns)| {
            stats::undisturbed(ns, false) / row.pinned.map_or(1, |p| p.1).max(1) as f64
        })
        .collect();
    for (row, value) in rows.iter().zip(&ns_per_op) {
        out.set_layer(&ns_per_op_metric(row.kernel, row.label), *value);
    }
    out.set_layer("engine.ns_per_op_geomean", stats::geomean(&ns_per_op));
    let find = |kernel: &str, label: &str| {
        rows.iter()
            .position(|r| r.kernel == kernel && r.label == label)
    };
    let (mut host_ratios, mut cycle_ratios) = (Vec::new(), Vec::new());
    let (mut cycles_wasm64, mut cycles_cage, mut retired) = (0.0, 0.0, 0u64);
    for (i, row) in rows.iter().enumerate() {
        let (bits, ops) = row.pinned.unwrap_or_default();
        retired += ops;
        if row.label == EXEC_LABELS[1] {
            cycles_cage += f64::from_bits(bits);
            if let Some(base) = find(row.kernel, EXEC_LABELS[0]) {
                host_ratios.push(ns_per_op[i] / ns_per_op[base]);
                let base_cycles = f64::from_bits(rows[base].pinned.unwrap_or_default().0);
                cycle_ratios.push(f64::from_bits(bits) / base_cycles);
            }
        } else {
            cycles_wasm64 += f64::from_bits(bits);
        }
    }
    out.set_layer("engine.ns_per_op_ratio_cage", stats::geomean(&host_ratios));
    out.set_layer("sim.retired_ops", retired as f64);
    out.set_layer("sim.cycles_wasm64", cycles_wasm64);
    out.set_layer("sim.cycles_cage", cycles_cage);
    // Mean per-kernel runtime of Cage over wasm64, the paper's Fig. 14
    // bar, from this run's own simulated cycles.
    let mean_ratio = cycle_ratios.iter().sum::<f64>() / cycle_ratios.len().max(1) as f64;
    out.set_layer("sim.overhead_pct_cage", (mean_ratio - 1.0) * 100.0);
    let (bulk_ns, bulk_bytes) = rows
        .iter()
        .zip(run_ns)
        .filter(|(row, _)| row.libc_bytes > 0)
        .fold((0.0, 0u64), |(ns, bytes), (row, samples)| {
            (
                ns + stats::undisturbed(samples, false),
                bytes + row.libc_bytes,
            )
        });
    if bulk_bytes > 0 {
        out.set_layer("libc.bulk_ns_per_byte", bulk_ns / bulk_bytes as f64);
    }
}
