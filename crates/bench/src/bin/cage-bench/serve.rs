//! `serve_steady`, `serve_churn` and `serve_cold`: the serving layer used
//! three ways.
//!
//! One `InstancePre` is shared; every worker thread owns its `Pool` and is
//! its own closed-loop client (it sends the next request when the last
//! one has been answered, no think time). All load comes from this
//! process. Requests are drawn from the seed and every reply is checked
//! against a natively computed value.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use cage::{Engine, HostProfile, InstancePre, Pool, PoolMetrics, PooledInstance, Value, Variant};

use crate::corpus::{self, Rng};
use crate::harness::{round_percentiles_us, timed_setup, Outcome, Round, RunConfig};
use crate::stats;
use crate::trace::{Tracer, ROOT};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Steady,
    Churn,
    Cold,
}

/// Fuel granted to every checkout (control transitions before the guest
/// is preempted); no request of these workloads comes near it.
const FUEL_BUDGET: u64 = 1_000_000;

/// Instances each churn/cold worker keeps live: enough to look like a
/// busy worker, few enough that the numbers measure instantiate and
/// reset rather than the kernel's first-touch page faults.
const LIVE: usize = 8;

/// Requests each instance of a `serve_cold` batch serves. The first one
/// takes the kernel's first-touch page faults on the fresh memory; with a
/// single request the guest-speed figure measured little else and moved
/// 26% between runs.
const COLD_REQUESTS: usize = 8;

/// Requests whose spans a traced round records, per worker. The timing
/// of every request feeds the metrics; spans are kept for a sample so a
/// long run stays in memory.
const SPAN_SAMPLE: usize = 4;

struct Sizes {
    /// serve_steady: requests per round and per warm-up. A round is 5 ms
    /// of requests on purpose. A neighbour's bursts last milliseconds to
    /// tenths of a second and slow a share of the requests they cover, so
    /// a round's p90 is clean only if the whole round is: over four runs
    /// in a busy hour the cleanest 5% of 200 ms rounds read 11.2 to
    /// 15.6 us, of 20 ms rounds 11.1 to 13.6, of 5 ms rounds 11.1 to 11.6.
    steady_round: usize,
    steady_warmup: usize,
    /// serve_churn: recycle sweeps over the live set per round and per
    /// warm-up. Rounds are short for the reason `steady_round` gives: a
    /// round of 16 sweeps or 32 batches was 0.1 s, and on a busy machine
    /// too few of those fell wholly between a neighbour's bursts.
    churn_sweeps: usize,
    churn_warmup: usize,
    /// serve_cold: fresh pools per round and per warm-up.
    cold_batches: usize,
    cold_warmup: usize,
}

impl Sizes {
    fn of(cfg: &RunConfig) -> Sizes {
        if cfg.smoke {
            Sizes {
                steady_round: 2_000,
                steady_warmup: 200,
                churn_sweeps: 2,
                churn_warmup: 2,
                cold_batches: 2,
                cold_warmup: 2,
            }
        } else {
            Sizes {
                steady_round: 500,
                steady_warmup: 20_000,
                churn_sweeps: 4,
                churn_warmup: 16,
                cold_batches: 4,
                cold_warmup: 32,
            }
        }
    }
}

/// What one worker measured.
#[derive(Default)]
struct WorkerReport {
    attempted: u64,
    failures: Vec<String>,
    failed: u64,
    /// Pool construction plus warm-up, one sample per set-up repetition.
    setup_s: Vec<f64>,
    // The vectors below hold one sample per round: the mean over that
    // round's calls.
    rounds: Vec<Round>,
    /// serve_steady's ungated tail over every request of the run,
    /// neighbours included: p99, p99.9 and the maximum.
    tail_us: [f64; 3],
    /// serve_churn, serve_cold: the current round's latencies, ns.
    latencies_ns: Vec<f64>,
    pool_new_us: Vec<f64>,
    checkout_warm_us: Vec<f64>,
    checkout_cold_us: Vec<f64>,
    invoke_us: Vec<f64>,
    release_us: Vec<f64>,
    /// Guest ops retired by the first timed round (exact for a seed).
    first_round_retired: u64,
    metrics: PoolMetrics,
    tracer: Option<Tracer>,
}

impl WorkerReport {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 4 {
            self.failures.push(message);
        }
    }

    /// Takes over the failures of a warm-up, whose replies are checked
    /// but not counted as attempts.
    fn absorb_failures(&mut self, mut warmup: WorkerReport) {
        self.failed += warmup.failed;
        self.failures.append(&mut warmup.failures);
    }

    /// Checks one reply (or the lack of one) against the expected value.
    fn check(&mut self, what: &str, req: i64, got: Option<i64>, want: i64) {
        self.attempted += 1;
        if got != Some(want) {
            self.fail(format!("{what}({req}) gave {got:?}, expected {want}"));
        }
    }
}

struct WorkerCtx<'a> {
    cfg: &'a RunConfig,
    sizes: &'a Sizes,
    pre: Arc<InstancePre>,
    index: usize,
    /// Crossed twice: into the timed rounds together, and out of them
    /// together, so that no worker's closing set-ups run beside another
    /// worker's timed rounds.
    phase: &'a Barrier,
}

impl WorkerCtx<'_> {
    fn rng(&self) -> Rng {
        Rng::new(self.cfg.seed ^ ((self.index as u64 + 1) << 32))
    }

    fn pool(&self) -> Pool {
        let mut pool = Pool::new(Arc::clone(&self.pre));
        pool.set_fuel_budget(Some(FUEL_BUDGET));
        pool
    }
}

fn first_i64(out: Result<Vec<Value>, cage::Trap>) -> Option<i64> {
    match out.ok()?.as_slice() {
        [Value::I64(v)] => Some(*v),
        _ => None,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

// ---------------------------------------------------------------------
// serve_steady
// ---------------------------------------------------------------------

/// One closed-loop round of `reqs.len()` requests on a warm pool: three
/// clock reads per request, back to back, so the loop has no think time.
/// Returns `(checkout, invoke, release)` nanosecond sums.
fn steady_round(
    pool: &mut Pool,
    reqs: &[i64],
    replies: &mut [Option<i64>],
    lat: &mut [u32],
    tracer: &mut Tracer,
    round: usize,
) -> (u64, u64, u64) {
    let (mut checkout_ns, mut invoke_ns, mut release_ns) = (0u64, 0u64, 0u64);
    let mut t0 = Instant::now();
    for (i, &req) in reqs.iter().enumerate() {
        let Ok(inst) = pool.checkout() else {
            replies[i] = None;
            lat[i] = 0;
            t0 = Instant::now();
            continue;
        };
        let t1 = Instant::now();
        let out = pool.invoke(&inst, "handle", &[Value::I64(req)]);
        let t2 = Instant::now();
        pool.release(inst);
        let t3 = Instant::now();
        replies[i] = first_i64(out);
        lat[i] = (t3 - t0).as_nanos().min(u128::from(u32::MAX)) as u32;
        checkout_ns += (t1 - t0).as_nanos() as u64;
        invoke_ns += (t2 - t1).as_nanos() as u64;
        release_ns += (t3 - t2).as_nanos() as u64;
        if i < SPAN_SAMPLE {
            let id = (round * reqs.len() + i) as u64;
            let parent = tracer.record("serve.request", t0, t3, ROOT, id);
            tracer.record("serve.checkout", t0, t1, parent, id);
            tracer.record("serve.invoke", t1, t2, parent, id);
            tracer.record("serve.release", t2, t3, parent, id);
        }
        t0 = t3;
    }
    (checkout_ns, invoke_ns, release_ns)
}

fn draw_requests(reqs: &mut [i64], rng: &mut Rng) {
    reqs.iter_mut().for_each(|r| *r = rng.range(0, 999_999));
}

fn steady_worker(ctx: &WorkerCtx) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut rng = ctx.rng();
    let n = ctx.sizes.steady_round;
    let mut tracer = ctx.cfg.tracer();

    // One set-up: a new pool and a warm-up's worth of requests through it.
    let warm = ctx.sizes.steady_warmup;
    let setup = |report: &mut WorkerReport, tracer: &mut Tracer, rng: &mut Rng| {
        let start = Instant::now();
        let open = tracer.begin("serve.pool_new", 0);
        let mut pool = ctx.pool();
        report.pool_new_us.push(us(tracer.end(open)));
        let mut reqs = vec![0i64; warm];
        draw_requests(&mut reqs, rng);
        let (mut replies, mut lat) = (vec![None; warm], vec![0u32; warm]);
        steady_round(&mut pool, &reqs, &mut replies, &mut lat, tracer, 0);
        report.setup_s.push(start.elapsed().as_secs_f64());
        pool
    };
    let (setups_before, setups_after) = ctx.cfg.setup_reps();
    let mut pool = setup(&mut report, &mut tracer, &mut rng);
    for _ in 1..setups_before {
        pool = setup(&mut report, &mut tracer, &mut rng);
    }

    ctx.phase.wait();
    let mut reqs = vec![0i64; n];
    let mut replies = vec![None; n];
    let mut lat = vec![0u32; n];
    let mut all_lat: Vec<u32> = Vec::with_capacity(n * ctx.cfg.rounds);
    for round in 0..ctx.cfg.rounds {
        let traced = ctx.cfg.round_is_traced(round);
        tracer.set_recording(traced);
        draw_requests(&mut reqs, &mut rng);
        let retired_before = pool.metrics().instr_count;
        let (checkout_ns, invoke_ns, release_ns) =
            steady_round(&mut pool, &reqs, &mut replies, &mut lat, &mut tracer, round);
        let retired = pool.metrics().instr_count - retired_before;
        if round == 0 {
            report.first_round_retired = retired;
        }
        all_lat.extend_from_slice(&lat);
        for (req, got) in reqs.iter().zip(&replies) {
            report.check("handle", *req, *got, corpus::handle_native(*req));
        }
        let cycle_ns = checkout_ns + invoke_ns + release_ns;
        report.rounds.push(Round {
            traced,
            ops_per_s: n as f64 / (cycle_ns as f64 / 1e9),
            guest_mops: retired as f64 / us(cycle_ns),
            op_p50_us: stats::percentile_u32(&mut lat, 50.0) / 1e3,
            op_p90_us: stats::percentile_u32(&mut lat, 90.0) / 1e3,
        });
        report.checkout_warm_us.push(us(checkout_ns) / n as f64);
        report.invoke_us.push(us(invoke_ns) / n as f64);
        report.release_us.push(us(release_ns) / n as f64);
    }
    ctx.phase.wait();
    report.metrics = pool.metrics();
    report.tail_us = [99.0, 99.9, 100.0].map(|p| stats::percentile_u32(&mut all_lat, p) / 1e3);
    tracer.set_recording(false);
    for _ in 0..setups_after {
        setup(&mut report, &mut tracer, &mut rng);
    }
    report.tracer = Some(tracer);
    report
}

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/// One recycle sweep over the live set: every instance serves a request
/// that dirties `DIRTY_PAGES` pages, all are released, all are checked
/// out again (which is where the pool resets them). The operation is the
/// recycle — release plus resetting checkout — and the dirtying request
/// is what sets it up, so it is timed but not part of the latency. Pushes
/// one recycle latency per instance and returns `(invoke, release,
/// checkout)` sums.
fn churn_sweep(
    pool: &mut Pool,
    live: &mut Vec<PooledInstance>,
    report: &mut WorkerReport,
    tracer: &mut Tracer,
    rng: &mut Rng,
    id: u64,
) -> (u64, u64, u64) {
    let mut turn_ns = [0u64; LIVE];
    let (mut invoke_ns, mut release_ns, mut checkout_ns) = (0u64, 0u64, 0u64);
    for inst in live.iter() {
        let req = rng.range(0, 999_999);
        let open = tracer.begin("serve.invoke", id);
        let out = pool.invoke(inst, "dirty", &[Value::I64(req)]);
        invoke_ns += tracer.end(open);
        report.check("dirty", req, first_i64(out), corpus::dirty_native(req));
    }
    for (turn, inst) in turn_ns.iter_mut().zip(live.drain(..)) {
        let open = tracer.begin("serve.release", id);
        pool.release(inst);
        let ns = tracer.end(open);
        *turn += ns;
        release_ns += ns;
    }
    for turn in &mut turn_ns {
        let open = tracer.begin("serve.checkout", id);
        let inst = pool.checkout();
        let ns = tracer.end(open);
        *turn += ns;
        checkout_ns += ns;
        match inst {
            Ok(inst) => live.push(inst),
            Err(e) => report.fail(format!("recycling checkout: {e}")),
        }
    }
    report
        .latencies_ns
        .extend(turn_ns.iter().map(|&ns| ns as f64));
    (invoke_ns, release_ns, checkout_ns)
}

fn churn_worker(ctx: &WorkerCtx) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut rng = ctx.rng();
    let mut tracer = ctx.cfg.tracer();
    let sweeps = ctx.sizes.churn_sweeps;

    // One set-up: a new pool, its live set checked out cold, and a
    // warm-up round whose replies are checked but not counted.
    let setup = |report: &mut WorkerReport, tracer: &mut Tracer, rng: &mut Rng| {
        let start = Instant::now();
        let mut pool = ctx.pool();
        let mut live: Vec<PooledInstance> = Vec::with_capacity(LIVE);
        for _ in 0..LIVE {
            match pool.checkout() {
                Ok(inst) => live.push(inst),
                Err(e) => report.fail(format!("cold checkout: {e}")),
            }
        }
        let mut warmup = WorkerReport::default();
        for _ in 0..ctx.sizes.churn_warmup {
            churn_sweep(&mut pool, &mut live, &mut warmup, tracer, rng, 0);
        }
        report.absorb_failures(warmup);
        report.setup_s.push(start.elapsed().as_secs_f64());
        (pool, live)
    };
    let retire = |(mut pool, live): (Pool, Vec<PooledInstance>)| {
        live.into_iter().for_each(|inst| pool.release(inst));
        pool.metrics()
    };
    let (setups_before, setups_after) = ctx.cfg.setup_reps();
    let (mut pool, mut live) = setup(&mut report, &mut tracer, &mut rng);
    for _ in 1..setups_before {
        retire((pool, live));
        (pool, live) = setup(&mut report, &mut tracer, &mut rng);
    }

    ctx.phase.wait();
    for round in 0..ctx.cfg.rounds {
        let traced = ctx.cfg.round_is_traced(round);
        tracer.set_recording(traced);
        let retired_before = pool.metrics().instr_count;
        let (mut invoke_ns, mut release_ns, mut checkout_ns) = (0u64, 0u64, 0u64);
        for sweep in 0..sweeps {
            let id = (round * sweeps + sweep) as u64;
            let (i, r, c) =
                churn_sweep(&mut pool, &mut live, &mut report, &mut tracer, &mut rng, id);
            invoke_ns += i;
            release_ns += r;
            checkout_ns += c;
        }
        let retired = pool.metrics().instr_count - retired_before;
        if round == 0 {
            report.first_round_retired = retired;
        }
        let turns = (sweeps * LIVE) as f64;
        let (op_p50_us, op_p90_us) = round_percentiles_us(&report.latencies_ns);
        report.latencies_ns.clear();
        report.rounds.push(Round {
            traced,
            ops_per_s: turns / ((release_ns + checkout_ns) as f64 / 1e9),
            guest_mops: retired as f64 / us(invoke_ns + release_ns + checkout_ns),
            op_p50_us,
            op_p90_us,
        });
        report.checkout_warm_us.push(us(checkout_ns) / turns);
        report.invoke_us.push(us(invoke_ns) / turns);
        report.release_us.push(us(release_ns) / turns);
    }
    ctx.phase.wait();
    report.metrics = retire((pool, live));
    tracer.set_recording(false);
    for _ in 0..setups_after {
        retire(setup(&mut report, &mut tracer, &mut rng));
    }
    report.tracer = Some(tracer);
    report
}

// ---------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------

/// Nanoseconds of one `serve_cold` batch (or, summed, of a round).
#[derive(Default, Clone, Copy)]
struct ColdBatch {
    wall: u64,
    pool_new: u64,
    checkout: u64,
    invoke: u64,
}

/// One batch: a fresh pool, `LIVE` cold checkouts, `COLD_REQUESTS` short
/// requests on each, all released, pool dropped. Pushes one hand-over
/// latency per instance and folds the pool's counters into the report.
fn cold_batch(
    ctx: &WorkerCtx,
    report: &mut WorkerReport,
    tracer: &mut Tracer,
    rng: &mut Rng,
    id: u64,
) -> ColdBatch {
    let whole = tracer.begin("serve.batch", id);
    let open = tracer.begin("serve.pool_new", id);
    let mut pool = ctx.pool();
    let mut batch = ColdBatch {
        pool_new: tracer.end(open),
        ..ColdBatch::default()
    };
    let mut turn_ns = [0u64; LIVE];
    let mut live = Vec::with_capacity(LIVE);
    for turn in &mut turn_ns {
        let open = tracer.begin("serve.checkout_cold", id);
        let inst = pool.checkout();
        let ns = tracer.end(open);
        *turn += ns;
        batch.checkout += ns;
        match inst {
            Ok(inst) => live.push(inst),
            Err(e) => report.fail(format!("cold checkout: {e}")),
        }
    }
    for (turn, inst) in turn_ns.iter_mut().zip(&live) {
        for _ in 0..COLD_REQUESTS {
            let req = rng.range(0, 999_999);
            let open = tracer.begin("serve.invoke", id);
            let out = pool.invoke(inst, "handle", &[Value::I64(req)]);
            let ns = tracer.end(open);
            report.check("handle", req, first_i64(out), corpus::handle_native(req));
            *turn += ns;
            batch.invoke += ns;
        }
    }
    for (turn, inst) in turn_ns.iter_mut().zip(live) {
        let open = tracer.begin("serve.release", id);
        pool.release(inst);
        *turn += tracer.end(open);
    }
    report.metrics.merge(&pool.metrics());
    let open = tracer.begin("serve.pool_drop", id);
    drop(pool);
    tracer.end(open);
    report
        .latencies_ns
        .extend(turn_ns.iter().map(|&ns| ns as f64));
    batch.wall = tracer.end(whole);
    batch
}

fn cold_worker(ctx: &WorkerCtx) -> WorkerReport {
    let mut report = WorkerReport::default();
    let mut rng = ctx.rng();
    let mut tracer = ctx.cfg.tracer();
    let batches = ctx.sizes.cold_batches;

    // One set-up: a warm-up round (this workload keeps no state).
    let setup = |report: &mut WorkerReport, tracer: &mut Tracer, rng: &mut Rng| {
        let start = Instant::now();
        let mut warmup = WorkerReport::default();
        for _ in 0..ctx.sizes.cold_warmup {
            cold_batch(ctx, &mut warmup, tracer, rng, 0);
        }
        report.absorb_failures(warmup);
        report.setup_s.push(start.elapsed().as_secs_f64());
    };
    let (setups_before, setups_after) = ctx.cfg.setup_reps();
    for _ in 0..setups_before {
        setup(&mut report, &mut tracer, &mut rng);
    }

    ctx.phase.wait();
    for round in 0..ctx.cfg.rounds {
        let traced = ctx.cfg.round_is_traced(round);
        tracer.set_recording(traced);
        let retired_before = report.metrics.instr_count;
        let mut sum = ColdBatch::default();
        for batch in 0..batches {
            let id = (round * batches + batch) as u64;
            let b = cold_batch(ctx, &mut report, &mut tracer, &mut rng, id);
            sum.wall += b.wall;
            sum.pool_new += b.pool_new;
            sum.checkout += b.checkout;
            sum.invoke += b.invoke;
        }
        let retired = report.metrics.instr_count - retired_before;
        if round == 0 {
            report.first_round_retired = retired;
        }
        let (op_p50_us, op_p90_us) = round_percentiles_us(&report.latencies_ns);
        report.latencies_ns.clear();
        report.rounds.push(Round {
            traced,
            ops_per_s: (batches * LIVE) as f64 / (sum.wall as f64 / 1e9),
            guest_mops: retired as f64 / us(sum.wall),
            op_p50_us,
            op_p90_us,
        });
        let handovers = (batches * LIVE) as f64;
        report.pool_new_us.push(us(sum.pool_new) / batches as f64);
        report.checkout_cold_us.push(us(sum.checkout) / handovers);
        report
            .invoke_us
            .push(us(sum.invoke) / (handovers * COLD_REQUESTS as f64));
    }
    ctx.phase.wait();
    tracer.set_recording(false);
    for _ in 0..setups_after {
        setup(&mut report, &mut tracer, &mut rng);
    }
    report.tracer = Some(tracer);
    report
}

// ---------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------

pub fn run(kind: Kind, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sizes = Sizes::of(cfg);
    // serve_steady runs pointer authentication only (many instances per
    // store); the churn pair runs memory safety, whose tag state the
    // dirtying request and the reset both have to touch.
    let variant = match kind {
        Kind::Steady => Variant::CagePtrAuth,
        Kind::Churn | Kind::Cold => Variant::CageMemSafety,
    };

    // Shared set-up: compile the handlers and build the template.
    let engine = Engine::new(variant);
    let mut tracer = cfg.tracer();
    let mut instance_pre_us = Vec::new();
    let mut shared_setup_s = Vec::new();
    let mut shared_setup = || -> Result<Arc<InstancePre>, String> {
        timed_setup(&mut shared_setup_s, || {
            let artifact = engine
                .compile(corpus::HANDLERS)
                .map_err(|e| e.to_string())?;
            let open = tracer.begin("serve.instance_pre", 0);
            let built = engine.instance_pre(&artifact, HostProfile::Libc);
            instance_pre_us.push(us(tracer.end(open)));
            Ok(Arc::new(built.map_err(|e| e.to_string())?))
        })
    };
    let (setups_before, setups_after) = cfg.setup_reps();
    let mut pre = shared_setup()?;
    for _ in 1..setups_before {
        pre = shared_setup()?;
    }

    let phase = Barrier::new(cfg.workers);
    let reports: Vec<WorkerReport> = thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|index| {
                let ctx = WorkerCtx {
                    cfg,
                    sizes: &sizes,
                    pre: Arc::clone(&pre),
                    index,
                    phase: &phase,
                };
                scope.spawn(move || match kind {
                    Kind::Steady => steady_worker(&ctx),
                    Kind::Churn => churn_worker(&ctx),
                    Kind::Cold => cold_worker(&ctx),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a serve worker panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    for _ in 0..setups_after {
        shared_setup()?;
    }

    // Set-up: the shared part plus the slowest worker, per repetition.
    for (rep, shared) in shared_setup_s.iter().enumerate() {
        let slowest = reports
            .iter()
            .filter_map(|r| r.setup_s.get(rep))
            .fold(0.0f64, |a, b| a.max(*b));
        out.setup_s.push(shared + slowest);
    }
    // Every worker runs the same `cfg.rounds` rounds side by side: round
    // i of the run is round i of every worker, throughput summed, the
    // rest averaged.
    for i in 0..cfg.rounds {
        let mean = |f: fn(&Round) -> f64| {
            reports.iter().map(|r| f(&r.rounds[i])).sum::<f64>() / reports.len() as f64
        };
        out.rounds.push(Round {
            traced: reports[0].rounds[i].traced,
            ops_per_s: reports.iter().map(|r| r.rounds[i].ops_per_s).sum(),
            guest_mops: mean(|r| r.guest_mops),
            op_p50_us: mean(|r| r.op_p50_us),
            op_p90_us: mean(|r| r.op_p90_us),
        });
    }
    let gather = |f: fn(&WorkerReport) -> &Vec<f64>| -> Vec<f64> {
        reports.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let clean = |samples: &[f64]| stats::undisturbed(samples, false);
    if kind == Kind::Steady {
        // The worst worker's tail.
        let tail = |i: usize| reports.iter().fold(0.0f64, |a, r| a.max(r.tail_us[i]));
        out.set_layer("serve.p99_us", tail(0));
        out.set_layer("serve.p999_us", tail(1));
        out.set_layer("serve.max_us", tail(2));
    }

    // The ledger: times are read like the end-to-end metrics, as the
    // undisturbed value of every worker's per-round samples; a phase a
    // workload never enters stays at 0.
    out.set_layer("serve.instance_pre_us", clean(&instance_pre_us));
    out.set_layer("serve.pool_new_us", clean(&gather(|r| &r.pool_new_us)));
    out.set_layer("serve.invoke_us", clean(&gather(|r| &r.invoke_us)));
    out.set_layer("serve.release_us", clean(&gather(|r| &r.release_us)));
    out.set_layer(
        "serve.checkout_cold_us",
        clean(&gather(|r| &r.checkout_cold_us)),
    );
    let recycle_us = clean(&gather(|r| &r.checkout_warm_us));
    match kind {
        Kind::Steady => out.set_layer("serve.checkout_warm_us", recycle_us),
        Kind::Churn => out.set_layer(
            "serve.reset_us_per_dirty_page",
            recycle_us / corpus::DIRTY_PAGES as f64,
        ),
        Kind::Cold => {}
    }

    let mut metrics = PoolMetrics::default();
    let mut retired = 0;
    for report in reports {
        out.attempted += report.attempted;
        out.failed += report.failed;
        out.failures.extend(report.failures);
        metrics.merge(&report.metrics);
        retired += report.first_round_retired;
        out.tracers.extend(report.tracer);
    }
    out.failures.truncate(8);
    out.set_layer("sim.retired_ops", retired as f64);
    out.set_layer("serve.instantiations", metrics.instantiations as f64);
    out.set_layer("serve.resets", metrics.resets as f64);
    out.set_layer("serve.quarantined", metrics.quarantined as f64);
    out.set_layer("serve.exhausted", metrics.exhausted as f64);
    out.tracers.push(tracer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference sandbox only ever runs one worker, so the
    /// multi-worker path is pinned here: two workers run the same rounds
    /// side by side, every reply checks out, and the exact counts are
    /// twice a single worker's.
    #[test]
    fn two_workers_run_the_same_rounds_and_double_the_counts() {
        for kind in [Kind::Steady, Kind::Churn, Kind::Cold] {
            let run_with = |workers| {
                let cfg = RunConfig {
                    seed: 5,
                    rounds: 3,
                    trace: false,
                    smoke: true,
                    workers,
                    epoch: Instant::now(),
                };
                run(kind, &cfg).unwrap_or_else(|e| panic!("{kind:?} x{workers}: {e}"))
            };
            let (one, two) = (run_with(1), run_with(2));
            for out in [&one, &two] {
                assert_eq!(out.failed, 0, "{kind:?}: {:?}", out.failures);
                assert_eq!(out.rounds.len(), 3);
                assert_eq!(out.setup_s.len(), 1);
                assert!(out.rounds.iter().all(|r| r.ops_per_s > 0.0));
            }
            assert!(one.attempted > 0);
            assert_eq!(two.attempted, 2 * one.attempted, "{kind:?}");
            for count in ["serve.instantiations", "serve.resets", "sim.retired_ops"] {
                let (a, b) = (one.layer[count], two.layer[count]);
                if count == "sim.retired_ops" {
                    // Each worker draws its own requests from the seed.
                    assert!(b > a, "{kind:?} {count}: {a} vs {b}");
                } else {
                    assert_eq!(b, 2.0 * a, "{kind:?} {count}");
                }
            }
            assert_eq!(
                two.tracers.len(),
                3,
                "one tracer per worker and the shared one"
            );
        }
    }
}
