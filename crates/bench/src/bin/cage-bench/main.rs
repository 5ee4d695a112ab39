//! `cage-bench` — the repository's one benchmark.
//!
//! Six named workloads, six end-to-end metrics reported by every one of
//! them, and a per-layer ledger from a separate traced run; the catalogue
//! is `spec.rs`, mirrored in the root `BENCHMARK.json`. Everything is
//! measured from outside, by timing calls into public functions, and
//! every output is checked against a reference that is not the toolchain
//! under test. See `README.md` next to this file.
//!
//! ```text
//! cage-bench run --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <dir>]
//! cage-bench all [--seed <u64>] [--seconds <s>] [--smoke] [--out <dir>]
//! cage-bench check <a-dir> <b-dir>
//! cage-bench list [--json]
//! ```

mod check;
mod compile;
mod corpus;
mod exec;
mod harness;
mod json;
mod serve;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::{Outcome, Round, RunConfig};
use json::Json;
use spec::{Better, MetricSpec};

/// Parsed command-line options of `run` and `all`.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

/// Results land under the build directory unless `--out` says otherwise:
/// never in a path baked in at compile time, so a copied binary cannot
/// overwrite the results of the tree it was built in.
fn default_out() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("cage-bench")
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out: default_out(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                opts.seconds = seconds;
            }
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            "--smoke" => opts.smoke = true,
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(opts)
}

/// Worker threads of the serve workloads: up to four, but one processor
/// is always left to the rest of the machine. With every processor busy
/// (sizing runs: 2 workers on the 2-processor sandbox) run-to-run spread
/// of `ops_per_s` was 17% on `serve_steady` and 44% on `serve_cold`,
/// wider than any bound; with one left free it is a few percent. On that
/// sandbox this is 1, so every recorded number is single-worker; the
/// multi-worker path is covered by a unit test, not by a measurement.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().saturating_sub(1).clamp(1, 4))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What the numbers were measured on: a result is only comparable with
/// another that carries the same fingerprint.
fn fingerprint(opts: &Options) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", json::str(&cpu)),
        ("rustc", json::str(&rustc)),
        (
            "profile",
            json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("workers", Json::Num(workers() as f64)),
    ])
}

fn run_workload(name: &str, cfg: &RunConfig) -> Result<Outcome, String> {
    match name {
        spec::EXEC_POLYBENCH => exec::run(true, cfg),
        spec::EXEC_CONTROL => exec::run(false, cfg),
        spec::COMPILE_COLD => compile::run(cfg),
        spec::SERVE_STEADY => serve::run(serve::Kind::Steady, cfg),
        spec::SERVE_CHURN => serve::run(serve::Kind::Churn, cfg),
        spec::SERVE_COLD => serve::run(serve::Kind::Cold, cfg),
        other => unreachable!("workload {other} has a round count but no runner"),
    }
}

/// One reported metric: the value and, where it comes from per-round or
/// per-repetition samples, those samples in run order (the result file
/// carries them with their quartiles).
struct Reported {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// The end-to-end metrics of an untraced run. A timing is the workload's
/// per-operation reading where it has one, otherwise the undisturbed value
/// of the per-round samples; either way the median and quartiles of all
/// rounds go to the result file.
fn end_to_end_metrics(outcome: &Outcome) -> Vec<Reported> {
    let per_operation = harness::per_operation(&outcome.ops, outcome.rate);
    let over_rounds = |spec: &MetricSpec, f: fn(&Round) -> f64| {
        let samples: Vec<f64> = outcome.rounds.iter().map(f).collect();
        let value = match &per_operation {
            Some(read) => f(read),
            None => stats::undisturbed(&samples, spec.better == Better::Higher),
        };
        Reported {
            name: spec.name.clone(),
            unit: spec.unit,
            value,
            samples,
        }
    };
    let report = |spec: &MetricSpec| match spec.name.as_str() {
        "ops_per_s" => over_rounds(spec, |r| r.ops_per_s),
        "guest_mops" => over_rounds(spec, |r| r.guest_mops),
        "op_p50_us" => over_rounds(spec, |r| r.op_p50_us),
        "op_p90_us" => over_rounds(spec, |r| r.op_p90_us),
        "setup_s" => Reported {
            name: spec.name.clone(),
            unit: spec.unit,
            value: harness::setup_seconds(&outcome.setup_s),
            samples: outcome.setup_s.clone(),
        },
        "peak_rss_mb" => Reported {
            name: spec.name.clone(),
            unit: spec.unit,
            value: peak_rss_mb().unwrap_or(0.0),
            samples: Vec::new(),
        },
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    spec::end_to_end().iter().map(report).collect()
}

/// The per-layer metrics of a traced run: what the workload measured,
/// the benchmark's own two, and 0 for every layer it does not exercise.
fn per_layer_metrics(outcome: &Outcome) -> Vec<Reported> {
    let primary = |traced: bool| -> Vec<f64> {
        outcome
            .rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.ops_per_s)
            .collect()
    };
    let (plain, traced) = (primary(false), primary(true));
    let traced_rate = stats::undisturbed(&traced, true);
    let overhead_pct = if traced_rate > 0.0 {
        (stats::undisturbed(&plain, true) / traced_rate - 1.0) * 100.0
    } else {
        0.0
    };
    spec::per_layer()
        .into_iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "trace.overhead_pct" => overhead_pct,
                "noise.iqr_pct" => stats::summary(&plain).iqr_share() * 100.0,
                name => outcome.layer.get(name).copied().unwrap_or(0.0),
            };
            Reported {
                name: m.name,
                unit: m.unit,
                value,
                samples: Vec::new(),
            }
        })
        .collect()
}

fn metrics_json(metrics: &[Reported], with_spread: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), json::str(m.unit)),
                ];
                if with_spread && !m.samples.is_empty() {
                    let s = stats::summary(&m.samples);
                    fields.push(("q1".to_string(), Json::Num(s.q1)));
                    fields.push(("median".to_string(), Json::Num(s.median)));
                    fields.push(("q3".to_string(), Json::Num(s.q3)));
                    fields.push(("n".to_string(), Json::Num(s.n as f64)));
                    let samples = m.samples.iter().map(|v| Json::Num(*v)).collect();
                    fields.push(("samples".to_string(), Json::Arr(samples)));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Every identifiable operation with the spread of its time over the
/// rounds, microseconds.
fn operations_json(ops: &[harness::OpSeries]) -> Json {
    let rows = ops.iter().map(|op| {
        let us: Vec<f64> = op.ns.iter().map(|ns| ns / 1e3).collect();
        let s = stats::summary(&us);
        json::obj([
            ("name", json::str(&op.name)),
            ("n", Json::Num(s.n as f64)),
            ("min_us", Json::Num(stats::percentile(&us, 0.0))),
            ("clean_us", Json::Num(stats::undisturbed(&us, false))),
            ("q1_us", Json::Num(s.q1)),
            ("median_us", Json::Num(s.median)),
            ("q3_us", Json::Num(s.q3)),
        ])
    });
    Json::Arr(rows.collect())
}

fn result_file_name(workload: &str, seed: u64, trace: bool) -> String {
    let suffix = if trace { "-trace" } else { "" };
    format!("{workload}-seed{seed}{suffix}.json")
}

fn write_file(dir: &Path, name: &str, content: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
}

/// `cage-bench run`: one workload in this process. Returns the line the
/// driver reads and whether every output was correct.
fn run(opts: &Options) -> Result<(String, bool), String> {
    let workload = opts
        .workload
        .as_deref()
        .ok_or("run needs --workload <name>")?;
    let rounds = spec::rounds(workload, opts.seconds, opts.smoke)
        .ok_or_else(|| format!("unknown workload {workload}; `cage-bench list` names them"))?;
    let cfg = RunConfig {
        seed: opts.seed,
        rounds,
        trace: opts.trace,
        smoke: opts.smoke,
        workers: workers(),
        epoch: Instant::now(),
    };
    let outcome = run_workload(workload, &cfg)?;
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    for failure in &outcome.failures {
        eprintln!("cage-bench: {workload}: {failure}");
    }
    let metrics = if opts.trace {
        per_layer_metrics(&outcome)
    } else {
        end_to_end_metrics(&outcome)
    };
    let verdict = |metrics: Json| {
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Num(outcome.attempted as f64)),
            ("failed".to_string(), Json::Num(outcome.failed as f64)),
            ("metrics".to_string(), metrics),
        ]
    };

    let mut file = vec![
        ("schema".to_string(), json::str("cage-bench/1")),
        ("workload".to_string(), json::str(workload)),
        ("trace".to_string(), Json::Bool(opts.trace)),
        ("smoke".to_string(), Json::Bool(opts.smoke)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        ("rounds".to_string(), Json::Num(outcome.rounds.len() as f64)),
        ("fingerprint".to_string(), fingerprint(opts)),
        (
            "failures".to_string(),
            Json::Arr(outcome.failures.iter().map(|f| json::str(f)).collect()),
        ),
    ];
    file.extend(verdict(metrics_json(&metrics, true)));
    if !outcome.ops.is_empty() {
        file.push(("operations".to_string(), operations_json(&outcome.ops)));
    }
    if opts.trace {
        // Where the time went, by span name, over every worker's tracer.
        let mut totals = std::collections::BTreeMap::new();
        let mut jsonl = String::new();
        let mut dropped = 0;
        for (thread, tracer) in outcome.tracers.iter().enumerate() {
            tracer.write_jsonl(thread, &mut jsonl);
            dropped += tracer.dropped();
            for (name, t) in tracer.totals() {
                let sum: &mut trace::NameTotals = totals.entry(name).or_default();
                sum.count += t.count;
                sum.total_ns += t.total_ns;
                sum.self_ns += t.self_ns;
            }
        }
        let spans = totals
            .into_iter()
            .map(|(name, t)| {
                let fields = json::obj([
                    ("count", Json::Num(t.count as f64)),
                    ("total_ns", Json::Num(t.total_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ]);
                (name.to_string(), fields)
            })
            .collect();
        file.push(("spans".to_string(), Json::Obj(spans)));
        file.push(("spans_dropped".to_string(), Json::Num(dropped as f64)));
        write_file(&opts.out, &format!("trace_{workload}.jsonl"), &jsonl)?;
    }
    write_file(
        &opts.out,
        &result_file_name(workload, opts.seed, opts.trace),
        &Json::Obj(file).to_pretty(),
    )?;
    Ok((
        Json::Obj(verdict(metrics_json(&metrics, false))).to_line(),
        correct,
    ))
}

/// `cage-bench all`: every workload untraced, then every workload traced,
/// each in a fresh process so peak memory and allocator state are its
/// own. Prints `workload metric value unit` rows.
fn all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut all_correct = true;
    for trace in [false, true] {
        for (workload, _) in spec::WORKLOADS {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&opts.out);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let result =
                json::parse(line).map_err(|e| format!("{workload} printed no result: {e}"))?;
            all_correct &= output.status.success()
                && result.get("correct").and_then(Json::as_bool) == Some(true);
            let metrics = result.get("metrics").map(Json::as_obj).unwrap_or_default();
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{workload} {name} {value} {unit}");
            }
        }
    }
    println!("results in {}", opts.out.display());
    Ok(all_correct)
}

/// `cage-bench list`: the catalogue, as names or as `BENCHMARK.json`.
fn list(as_json: bool) -> String {
    if as_json {
        return spec::benchmark_json().to_pretty();
    }
    let mut out = String::new();
    for (name, why) in spec::WORKLOADS {
        let _ = writeln!(out, "workload {name}: {why}");
    }
    for m in spec::end_to_end() {
        let bound = m.bound.unwrap_or(0.0) * 100.0;
        let _ = writeln!(
            out,
            "end_to_end {} {} better={} bound={bound}%",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    for m in spec::per_layer() {
        let _ = writeln!(
            out,
            "per_layer {} {} better={}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    out
}

const USAGE: &str = "usage: cage-bench run --workload <name> [--seed <u64>] [--seconds <s>] \
[--trace <0|1>] [--smoke] [--out <dir>]\n       cage-bench all [--seed <u64>] [--seconds <s>] \
[--smoke] [--out <dir>]\n       cage-bench check <a-dir> <b-dir>\n       cage-bench list [--json]";

/// Runs one command line; `Ok(true)` means success.
fn cli(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            let (line, correct) = run(&parse_options(rest)?)?;
            println!("{line}");
            Ok(correct)
        }
        "all" => all(&parse_options(rest)?),
        "check" => match rest {
            [a, b] => {
                let report = check::compare_dirs(Path::new(a), Path::new(b))?;
                print!("{}", report.text);
                Ok(!report.any_worse)
            }
            _ => Err(USAGE.to_string()),
        },
        "list" => match rest {
            [] => {
                print!("{}", list(false));
                Ok(true)
            }
            [flag] if flag == "--json" => {
                print!("{}", list(true));
                Ok(true)
            }
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cage-bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_accept_the_driver_form_and_refuse_the_rest() {
        let o = parse_options(&strings(&[
            "--workload",
            "serve_cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("serve_cold"), 7, 3.0, false)
        );
        let traced = parse_options(&strings(&["--trace", "1", "--smoke"])).unwrap();
        assert!(traced.trace && traced.smoke);
        for bad in [
            &["--seed", "x"][..],
            &["--seconds", "0"],
            &["--seed"],
            &["--trace"],
            &["--trace", "--smoke"],
            &["--frobnicate"],
        ] {
            assert!(parse_options(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn list_names_every_workload_and_metric_of_the_catalogue() {
        let text = list(false);
        for (name, _) in spec::WORKLOADS {
            assert!(text.contains(&format!("workload {name}:")), "{name}");
        }
        for m in spec::end_to_end() {
            assert!(
                text.contains(&format!("end_to_end {} ", m.name)),
                "{}",
                m.name
            );
        }
        for m in spec::per_layer() {
            assert!(
                text.contains(&format!("per_layer {} ", m.name)),
                "{}",
                m.name
            );
        }
        assert_eq!(json::parse(&list(true)).unwrap(), spec::benchmark_json());
    }

    /// One tiny round of every workload, traced and untraced, through the
    /// same `run` the command line uses: result files parse, carry every
    /// metric of the catalogue, and every output checked out.
    #[test]
    fn smoke_run_of_every_workload_reports_every_metric() {
        let out = std::env::temp_dir().join(format!("cage-bench-smoke-{}", std::process::id()));
        for (workload, _) in spec::WORKLOADS {
            for trace in [false, true] {
                let opts = Options {
                    workload: Some(workload.to_string()),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    out: out.clone(),
                };
                let (line, correct) = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(correct, "{workload} trace={trace}: {line}");
                let printed = json::parse(&line).expect("the result line is JSON");
                let keys: Vec<&str> = printed.as_obj().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert!(printed.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let metrics = printed.get("metrics").unwrap().as_obj();
                let expected = if trace {
                    spec::per_layer()
                } else {
                    spec::end_to_end()
                };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names, wanted, "{workload}");
                for (name, metric) in metrics {
                    assert!(json::is_metric_name(name), "{name}");
                    let value = metric.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{workload} {name}: {value:?}"
                    );
                    if !trace {
                        assert!(value.unwrap() > 0.0, "{workload} {name} is zero");
                    }
                }
                let file = out.join(result_file_name(workload, 3, trace));
                let saved = json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
                assert_eq!(saved.get("workload").and_then(Json::as_str), Some(workload));
                assert!(saved
                    .get("fingerprint")
                    .and_then(|f| f.get("nproc"))
                    .is_some());
                if trace {
                    let jsonl =
                        std::fs::read_to_string(out.join(format!("trace_{workload}.jsonl")))
                            .unwrap();
                    assert!(jsonl.lines().count() > 0, "{workload} recorded no span");
                    assert!(jsonl.lines().all(|l| json::parse(l).is_ok()));
                }
            }
        }
        // A result set agrees with itself.
        let report = check::compare_dirs(&out, &out).expect("check reads the smoke results");
        assert!(!report.any_worse, "{}", report.text);
        let _ = std::fs::remove_dir_all(&out);
    }
}
