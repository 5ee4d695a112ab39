//! `cage-bench check <a-dir> <b-dir>`: compares two result sets metric by
//! metric against the bounds of the catalogue.
//!
//! A result set is a directory of untraced result files, any number per
//! workload, in the directory itself or in subdirectories (one per launch
//! of `cage-bench all`, say). Per workload and end-to-end metric each side
//! is the median over its files; the spread is the inter-quartile range
//! over the files when a side has at least four, otherwise the quartiles
//! each run took over its own rounds. Verdicts follow the repository's
//! rule: a spread wider than the bound is `unresolved`, not `agree`,
//! unless every run of B reads better than every run of A.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::spec::{self, Better, MetricSpec};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one workload on one side: the value of every run, and
/// the widest in-run spread (quartile distance as a share of the value).
#[derive(Debug, Default, Clone)]
struct Side {
    values: Vec<f64>,
    in_run_spread: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            stats::summary(&self.values).iqr_share()
        } else {
            self.in_run_spread
        }
    }
}

/// Judges B against A for one metric.
fn judge(spec: &MetricSpec, a: &Side, b: &Side) -> (f64, f64, Verdict) {
    let bound = spec.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(&a.values), stats::median(&b.values));
    // Positive when B is worse than A, as a share of A.
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let spread = a.spread().max(b.spread());
    let b_beats_a = |x: f64, y: f64| match spec.better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let every_b_better = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| b_beats_a(x, y)));
    let verdict = if spread > bound {
        if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Agree
    };
    (worse_by, spread, verdict)
}

type ResultSet = BTreeMap<(String, String), Side>;

/// Every `.json` file under `dir`, subdirectories included, sorted.
fn result_files(dir: &Path, found: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            result_files(&path, found)?;
        } else if path.extension().is_some_and(|x| x == "json") {
            found.push(path);
        }
    }
    found.sort();
    Ok(())
}

/// Reads every untraced result file under `dir`.
fn read_dir(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let mut paths = Vec::new();
    result_files(dir, &mut paths)?;
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let Some(workload) = doc.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, metric) in doc.get("metrics").map(Json::as_obj).unwrap_or_default() {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let side = set.entry((workload.to_string(), name.clone())).or_default();
            side.values.push(value);
            let quartile = |k| metric.get(k).and_then(Json::as_f64);
            if let (Some(q1), Some(q3), true) = (quartile("q1"), quartile("q3"), value != 0.0) {
                side.in_run_spread = side.in_run_spread.max((q3 - q1).abs() / value.abs());
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

pub struct Report {
    pub text: String,
    pub any_worse: bool,
}

fn compare(a: &ResultSet, b: &ResultSet) -> Report {
    let mut text = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        text,
        "{:<15} {:<12} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b-worse%", "spread%", "bound%"
    );
    for (workload, _) in spec::WORKLOADS {
        for spec in spec::end_to_end() {
            let key = (workload.to_string(), spec.name.clone());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worse_by, spread, verdict) = judge(&spec, sa, sb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                text,
                "{:<15} {:<12} {:>14.4} {:>14.4} {:>9.2} {:>9.2} {:>7.0}  {}",
                workload,
                spec.name,
                stats::median(&sa.values),
                stats::median(&sb.values),
                worse_by * 100.0,
                spread * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str()
            );
        }
    }
    Report { text, any_worse }
}

pub fn compare_dirs(a: &Path, b: &Path) -> Result<Report, String> {
    Ok(compare(&read_dir(a)?, &read_dir(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "op_p50_us".to_string(),
            unit: "us",
            better: Better::Lower,
            bound: Some(bound),
        }
    }

    fn side(values: &[f64], in_run_spread: f64) -> Side {
        Side {
            values: values.to_vec(),
            in_run_spread,
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let spec = lower(0.10);
        let a = side(&[100.0], 0.02);
        assert_eq!(judge(&spec, &a, &side(&[105.0], 0.02)).2, Verdict::Agree);
        assert_eq!(judge(&spec, &a, &side(&[115.0], 0.02)).2, Verdict::Worse);
        assert_eq!(judge(&spec, &a, &side(&[85.0], 0.02)).2, Verdict::Better);
        // Too noisy to call, unless B wins outright.
        assert_eq!(
            judge(&spec, &a, &side(&[115.0], 0.30)).2,
            Verdict::Unresolved
        );
        assert_eq!(judge(&spec, &a, &side(&[50.0], 0.30)).2, Verdict::Better);

        let higher = MetricSpec {
            better: Better::Higher,
            ..lower(0.10)
        };
        assert_eq!(judge(&higher, &a, &side(&[85.0], 0.0)).2, Verdict::Worse);
        assert_eq!(judge(&higher, &a, &side(&[120.0], 0.0)).2, Verdict::Better);
    }

    #[test]
    fn four_or_more_runs_use_the_spread_between_runs() {
        let steady = side(&[100.0, 101.0, 99.0, 100.0, 100.5], 0.50);
        assert!(steady.spread() < 0.02);
        let few = side(&[100.0, 140.0], 0.03);
        assert_eq!(few.spread(), 0.03);
        let noisy = side(&[100.0, 140.0, 70.0, 120.0, 90.0], 0.0);
        assert_eq!(judge(&lower(0.10), &steady, &noisy).2, Verdict::Unresolved);
    }
}
