//! What every workload shares: the run configuration and the shape of
//! what a workload hands back.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats;
use crate::trace::Tracer;

/// Timed rounds every full run takes at least, however short `--seconds`
/// is: reported values are the 99th or 1st percentile of per-round
/// samples, and with 100 of them that is the second from the edge, not
/// the extreme.
pub const MIN_ROUNDS: usize = 100;

/// How often a full run repeats its set-up before and again after the
/// timed rounds. The two groups sit a whole timed phase apart, so one
/// episode of interference rarely covers both.
pub const SETUP_REPS: (usize, usize) = (6, 6);

/// `setup_s` from a run's set-up repetitions: the second fastest (the
/// only one, if there is only one). A busy neighbour slows a set-up by up
/// to 65% (0.122 s against 0.20 s, for minutes at a time), so the median
/// of a run's repetitions lands wherever the mix of the two falls; between
/// two ten-run series of the same code the median over runs moved 12.6%
/// read as the median of twelve, 10.5% as their lower quartile, 3.8% as
/// the second fastest, and within a series the quartile distance was 42%,
/// 33% and 25% at its widest. It stays off the single luckiest one.
pub fn setup_seconds(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(1).or(sorted.first()).copied().unwrap_or(0.0)
}

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Timed rounds, a fixed count: see `spec::rounds`.
    pub rounds: usize,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// One tiny round of everything: keeps the harness from rotting.
    pub smoke: bool,
    /// Worker threads of the serve workloads.
    pub workers: usize,
    /// Zero point of every tracer's timestamps.
    pub epoch: Instant,
}

impl RunConfig {
    /// Set-up repetitions `(before, after)` the timed rounds. The last
    /// one before is the state that gets measured; those after are built,
    /// timed and dropped.
    pub fn setup_reps(&self) -> (usize, usize) {
        if self.smoke {
            (1, 0)
        } else {
            SETUP_REPS
        }
    }

    pub fn tracer(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    /// Whether round `index` records spans. A traced run alternates, so
    /// its own untraced rounds are the baseline for `trace.overhead_pct`.
    pub fn round_is_traced(&self, index: usize) -> bool {
        self.trace && (self.smoke || index % 2 == 1)
    }
}

/// One timed round's primary figures.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub traced: bool,
    pub ops_per_s: f64,
    /// Guest ops retired per microsecond of the round's timed spans, all
    /// of them: what a host microsecond of the workload buys in guest
    /// work, not the speed of the guest call alone (the ledger has that).
    pub guest_mops: f64,
    /// Percentiles over this round's operations. Taking them per round
    /// keeps one noisy burst from owning the run's tail.
    pub op_p50_us: f64,
    pub op_p90_us: f64,
}

/// p50 and p90 of one round's operation latencies, in microseconds.
pub fn round_percentiles_us(ns: &[f64]) -> (f64, f64) {
    let mut sorted = ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p| stats::percentile_sorted(&sorted, p) / 1e3;
    (at(50.0), at(90.0))
}

/// One identifiable operation of a workload (a kernel x variant row, a
/// corpus unit) over the rounds of a run.
#[derive(Debug, Default, Clone)]
pub struct OpSeries {
    pub name: String,
    /// Its time in every round that completed it, ns.
    pub ns: Vec<f64>,
    /// Guest ops one execution of it retires (exact).
    pub retired: u64,
}

/// How a workload's operations combine into `ops_per_s`.
#[derive(Debug, Default, Clone, Copy)]
pub enum Rate {
    /// The rate at which a typical operation completes: every one weighs
    /// the same, however long it runs.
    #[default]
    Typical,
    /// Operations over the time they take together.
    Together,
}

/// The end-to-end timings of a workload whose operations are identifiable,
/// read per operation: every operation's undisturbed time over the rounds
/// first, the aggregate over operations second.
///
/// A round of such a workload is 0.13 s of heterogeneous operations, and
/// reading the undisturbed value over rounds needs whole rounds to fall
/// between a neighbour's bursts. On the busy machine the benchmark is
/// judged on they did not: ten same-code runs spread up to 33% read per
/// round. One operation is 1 to 25 ms, and two clean samples of each
/// are enough here.
pub fn per_operation(ops: &[OpSeries], rate: Rate) -> Option<Round> {
    let done: Vec<&OpSeries> = ops.iter().filter(|op| !op.ns.is_empty()).collect();
    if done.is_empty() {
        return None;
    }
    let clean_ns: Vec<f64> = done
        .iter()
        .map(|op| stats::undisturbed(&op.ns, false))
        .collect();
    let total_ns: f64 = clean_ns.iter().sum();
    let retired: u64 = done.iter().map(|op| op.retired).sum();
    let (op_p50_us, op_p90_us) = round_percentiles_us(&clean_ns);
    Some(Round {
        traced: false,
        ops_per_s: match rate {
            Rate::Typical => 1e9 / stats::geomean(&clean_ns),
            Rate::Together => done.len() as f64 / (total_ns / 1e9),
        },
        guest_mops: retired as f64 / (total_ns / 1e3),
        op_p50_us,
        op_p90_us,
    })
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// One sample per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    /// The workload's operations where they are identifiable: the
    /// end-to-end timings are then read by `per_operation`, otherwise over
    /// `rounds`.
    pub ops: Vec<OpSeries>,
    pub rate: Rate,
    /// Per-layer metrics this workload measured; the rest read 0.
    pub layer: BTreeMap<String, f64>,
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    /// Counts a failure of an already-attempted operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    pub fn set_layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }
}

/// Runs one set-up repetition and records how long it took.
pub fn timed_setup<T>(
    samples: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let state = setup()?;
    samples.push(start.elapsed().as_secs_f64());
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_operation_reads_each_operation_on_its_own_clean_plateau() {
        // Two operations, 1 us and 4 us clean, each disturbed in a
        // different half of forty rounds: no round is clean as a whole.
        let series = |clean: f64, first_half_slow: bool| -> Vec<f64> {
            (0..40)
                .map(|round| {
                    if (round < 20) == first_half_slow {
                        clean * 1.5
                    } else {
                        clean
                    }
                })
                .collect()
        };
        let ops = [
            OpSeries {
                name: "short".to_string(),
                ns: series(1000.0, true),
                retired: 300,
            },
            OpSeries {
                name: "long".to_string(),
                ns: series(4000.0, false),
                retired: 700,
            },
            // An operation that never completed is left out.
            OpSeries::default(),
        ];
        let together = per_operation(&ops, Rate::Together).unwrap();
        assert!((together.ops_per_s - 2.0 / 5e-6).abs() < 1e-6);
        assert!((together.guest_mops - 1000.0 / 5.0).abs() < 1e-9);
        assert!((together.op_p50_us - 2.5).abs() < 1e-9);
        let typical = per_operation(&ops, Rate::Typical).unwrap();
        assert!((typical.ops_per_s - 1e9 / 2000.0).abs() < 1e-6);
        assert!(per_operation(&[OpSeries::default()], Rate::Typical).is_none());
    }
}
