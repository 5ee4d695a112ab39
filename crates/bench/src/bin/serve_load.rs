//! Multi-tenant serving smoke: correctness under threads, no timing.
//!
//! Compiles one request handler, builds one shared `InstancePre`
//! template, and drives many concurrent instances across worker threads —
//! each worker owning a `Pool` that stamps, serves, releases and recycles
//! instance slots under a fuel budget — checking every response against a
//! host-side reference and the pool counters against the arithmetic of
//! the run. What this used to time is `cage-bench`'s `serve_steady`,
//! `serve_churn` and `serve_cold` workloads now.
//!
//! With `--chaos`, a fault-injection phase follows the load phase: every
//! worker draws from a seeded `FaultPlan` and forces host traps, host
//! panics, allocator exhaustion under a pinned page cap, and fuel/epoch
//! expiry into live checkout/invoke/release cycles — then probes the
//! pool with a healthy request after every injected fault. The run
//! aborts if any fault class fails to produce its expected outcome or
//! any probe fails, so "completes" means "survived".
//!
//! Flags (defaults in brackets): `--instances N` [1024] total concurrent
//! instances, `--threads T` [4] worker threads, `--requests R` [8]
//! invokes per instance, `--fuel F` [1000000] per-checkout fuel budget,
//! `--chaos` [off] fault-injection phase, `--chaos-seed S` [2026].

use std::cell::Cell;
use std::collections::BTreeMap;
use std::env;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cage::serve::EpochTicker;
use cage::wasm::ValType;
use cage::{
    Engine, Fault, FaultPlan, HostProfile, InstanceLimits, InstancePre, Linker, Pool, PoolMetrics,
    Trap, Value, Variant,
};

/// The request handler every tenant runs: allocator churn plus a memory
/// sweep, so cold instantiation, invoke and dirty-page reset all have
/// real work to do. [`expected`] is its host-side reference.
const HANDLER: &str = r#"
    long handle(long req) {
        long n = 16 + (req % 16);
        long* buf = (long*)malloc(n * 8);
        long acc = 0;
        for (long i = 0; i < n; i++) {
            buf[i] = req * 31 + i;
        }
        for (long i = 0; i < n; i++) {
            acc = acc + buf[i];
        }
        free((char*)buf);
        return acc;
    }
"#;

/// What `handle(req)` must return.
fn expected(req: i64) -> i64 {
    let n = 16 + req % 16;
    (0..n).map(|i| req * 31 + i).sum()
}

/// The chaos-phase handler: the same work as `handle`, routed through a
/// host hook whose behaviour the worker flips between benign, trapping
/// and panicking; plus an allocator-exhaustion probe and a spin loop for
/// the preemption faults.
const CHAOS_HANDLER: &str = r#"
    long chaos_hook(long req);
    long handle(long req) {
        long t = chaos_hook(req);
        long n = 16 + (req % 16);
        long* buf = (long*)malloc(n * 8);
        long acc = t - req;
        for (long i = 0; i < n; i++) {
            buf[i] = req * 31 + i;
        }
        for (long i = 0; i < n; i++) {
            acc = acc + buf[i];
        }
        free((char*)buf);
        return acc;
    }
    long hog(long req) {
        char* p = malloc(16777216);
        if (p == 0) { return -1; }
        p[0] = 1;
        long v = p[0];
        free(p);
        return v;
    }
    long spin(long n) {
        long acc = 0;
        while (1) { acc = acc + n; }
        return acc;
    }
"#;

thread_local! {
    /// Per-worker chaos-hook behaviour: 0 benign, 1 host trap, 2 host
    /// panic. A pool lives on one thread, so a thread-local gives each
    /// worker its own switch through the shared `HostProfile`.
    static CHAOS_MODE: Cell<u64> = const { Cell::new(0) };
}

fn chaos_profile() -> HostProfile {
    HostProfile::Custom(Arc::new(|linker: &mut Linker| {
        *linker = Linker::with_libc();
        linker.func(
            "env",
            "chaos_hook",
            &[ValType::I64],
            &[ValType::I64],
            |_ctx, args| match CHAOS_MODE.with(Cell::get) {
                0 => Ok(vec![args[0]]),
                1 => Err(Trap::Host("chaos injected host trap".into())),
                _ => panic!("chaos injected host panic"),
            },
        );
    }))
}

/// Per-fault-class injection/survival tally from one chaos worker.
#[derive(Default)]
struct ChaosReport {
    /// class name -> (injected, survived).
    classes: BTreeMap<&'static str, (u64, u64)>,
    metrics: PoolMetrics,
}

impl ChaosReport {
    fn merge(&mut self, other: &ChaosReport) {
        for (class, (i, s)) in &other.classes {
            let e = self.classes.entry(class).or_insert((0, 0));
            e.0 += i;
            e.1 += s;
        }
        self.metrics.merge(&other.metrics);
    }
}

/// One chaos worker: `requests` checkout/invoke/release cycles, each
/// preceded by a fault drawn from the worker's seeded plan and followed
/// by a healthy probe proving the pool recovered. Returns per-class
/// survival counts; panics (killing the run) on any unexpected outcome.
fn chaos_worker(
    pre: Arc<InstancePre>,
    requests: usize,
    seed: u64,
    fuel: u64,
    epoch: Arc<std::sync::atomic::AtomicU64>,
) -> ChaosReport {
    let initial_pages = pre.module().memory_type().map(|t| t.limits.min);
    let mut pool = Pool::new(pre);
    pool.share_epoch(epoch);
    pool.set_fuel_budget(Some(fuel));
    let mut plan = FaultPlan::new(seed);
    let mut report = ChaosReport::default();

    // A fixed sweep of every fault class first, so each class is
    // exercised at any scale (CI smoke-runs this small); then the seeded
    // random stream interleaves faults with healthy traffic.
    let sweep = [
        Fault::GrowDenied,
        Fault::HostTrap,
        Fault::HostPanic,
        Fault::FuelExhaust(3),
        Fault::EpochExpire,
    ];
    for (i, fault) in sweep
        .into_iter()
        .chain((0..requests).map(|_| plan.next_fault()))
        .enumerate()
    {
        let entry = report.classes.entry(fault.name()).or_insert((0, 0));
        entry.0 += 1;
        let req = Value::I64(i as i64);
        let survived = inject(&mut pool, fault, req, fuel, initial_pages);
        // Recovery probe: whatever was just injected, the next healthy
        // request must succeed.
        let probe = pool.checkout().expect("probe checkout");
        let probe_ok = pool.invoke(&probe, "handle", &[req]).is_ok();
        pool.release(probe);
        if survived && probe_ok {
            entry.1 += 1;
        } else {
            panic!(
                "chaos worker: fault {} did not produce its expected outcome \
                 (survived={survived}, probe_ok={probe_ok}, request {i})",
                fault.name()
            );
        }
    }
    report.metrics = pool.metrics();
    report
}

/// Forces one fault into a checkout/invoke/release cycle and reports
/// whether it produced exactly its expected outcome.
fn inject(
    pool: &mut Pool,
    fault: Fault,
    req: Value,
    fuel: u64,
    initial_pages: Option<u64>,
) -> bool {
    match fault {
        Fault::None => {
            let inst = pool.checkout().expect("healthy checkout");
            let ok = pool.invoke(&inst, "handle", &[req]).is_ok();
            pool.release(inst);
            ok
        }
        Fault::GrowDenied => {
            // Pin the memory at its initial size and drive the allocator
            // past it: the hardened malloc reports NULL (the guest
            // returns -1) instead of growing.
            pool.set_limits(InstanceLimits {
                max_memory_pages: initial_pages,
                ..InstanceLimits::default()
            });
            let inst = pool.checkout().expect("capped checkout");
            let out = pool.invoke(&inst, "hog", &[req]);
            pool.release(inst);
            pool.set_limits(InstanceLimits::default());
            matches!(out.as_deref(), Ok([Value::I64(-1)]))
        }
        Fault::HostTrap => {
            CHAOS_MODE.with(|m| m.set(1));
            let inst = pool.checkout().expect("checkout");
            let out = pool.invoke(&inst, "handle", &[req]);
            CHAOS_MODE.with(|m| m.set(0));
            let poisoned = pool.is_poisoned(&inst);
            pool.release(inst);
            matches!(out, Err(Trap::Host(_))) && !poisoned
        }
        Fault::HostPanic => {
            CHAOS_MODE.with(|m| m.set(2));
            let inst = pool.checkout().expect("checkout");
            let out = pool.invoke(&inst, "handle", &[req]);
            CHAOS_MODE.with(|m| m.set(0));
            let poisoned = pool.is_poisoned(&inst);
            pool.release(inst);
            matches!(out, Err(Trap::HostPanic(_))) && poisoned
        }
        Fault::FuelExhaust(budget) => {
            pool.set_fuel_budget(Some(budget));
            let inst = pool.checkout().expect("checkout");
            let out = pool.invoke(&inst, "spin", &[req]);
            pool.set_fuel_budget(Some(fuel));
            pool.release(inst);
            matches!(out, Err(Trap::FuelExhausted))
        }
        Fault::EpochExpire => {
            // Deadline at the current epoch: due before the first
            // preemption point, ticker or not.
            pool.set_epoch_budget(Some(0));
            let inst = pool.checkout().expect("checkout");
            let out = pool.invoke(&inst, "spin", &[req]);
            pool.set_epoch_budget(None);
            pool.release(inst);
            matches!(out, Err(Trap::EpochInterrupt))
        }
    }
}

/// One worker: fill a pool with `instances` live instances, serve
/// `requests` rounds across them, then recycle every slot once (the
/// steady-state path: release + dirty-page-reset checkout) and serve
/// from the recycled slots. Every response is checked.
fn worker(
    pre: Arc<InstancePre>,
    instances: usize,
    requests: usize,
    fuel: Option<u64>,
) -> PoolMetrics {
    let mut pool = Pool::new(pre);
    pool.set_fuel_budget(fuel);
    let serve = |pool: &mut Pool, inst: &cage::PooledInstance, req: i64| {
        let out = pool
            .invoke(inst, "handle", &[Value::I64(req)])
            .expect("handler runs");
        assert_eq!(out, [Value::I64(expected(req))], "handle({req})");
    };

    let mut held: Vec<_> = (0..instances)
        .map(|_| pool.checkout().expect("cold checkout"))
        .collect();
    for round in 0..requests {
        for (i, inst) in held.iter().enumerate() {
            serve(&mut pool, inst, (round * instances + i) as i64);
        }
    }

    for inst in held.drain(..) {
        pool.release(inst);
    }
    let recycled: Vec<_> = (0..instances)
        .map(|_| pool.checkout().expect("recycled checkout"))
        .collect();
    assert_eq!(
        pool.capacity(),
        instances,
        "churn must recycle slots, not grow the pool"
    );
    for (i, inst) in recycled.iter().enumerate() {
        serve(&mut pool, inst, i as i64);
    }
    for inst in recycled {
        pool.release(inst);
    }
    pool.metrics()
}

fn main() {
    let mut instances: usize = 1024;
    let mut threads: usize = 4;
    let mut requests: usize = 8;
    let mut fuel: u64 = 1_000_000;
    let mut chaos = false;
    let mut chaos_seed: u64 = 2026;
    let mut args = env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|e| panic!("{flag}: {e}"))
        };
        match flag.as_str() {
            "--instances" => instances = value("--instances") as usize,
            "--threads" => threads = value("--threads") as usize,
            "--requests" => requests = value("--requests") as usize,
            "--fuel" => fuel = value("--fuel"),
            "--chaos" => chaos = true,
            "--chaos-seed" => chaos_seed = value("--chaos-seed"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(
        threads >= 1 && instances >= threads,
        "need ≥ 1 instance per thread"
    );

    // CagePtrAuth: hardened (pointer auth + W64) with no MTE sandbox-tag
    // cap, so thousands of tenants fit in one store per worker.
    let variant = Variant::CagePtrAuth;
    let engine = Engine::new(variant);
    let artifact = engine.compile(HANDLER).expect("handler compiles");
    let pre = Arc::new(
        engine
            .instance_pre(&artifact, HostProfile::Libc)
            .expect("template builds"),
    );

    let reports: Vec<PoolMetrics> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                // Spread the remainder over the first workers.
                let share = instances / threads + usize::from(w < instances % threads);
                let pre = Arc::clone(&pre);
                scope.spawn(move || worker(pre, share, requests, Some(fuel)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    let mut totals = PoolMetrics::default();
    for r in &reports {
        totals.merge(r);
    }
    let n = instances as u64;
    assert_eq!(
        (totals.instantiations, totals.resets, totals.invocations),
        (n, n, n * (requests as u64 + 1)),
        "every slot stamped once, recycled once, and served every request"
    );
    assert_eq!(
        (totals.quarantined, totals.exhausted, totals.leaked),
        (0, 0, 0),
        "healthy traffic costs no slot"
    );
    println!(
        "load: {instances} instances x {threads} threads, {} checked responses, \
         {} instantiations, {} resets",
        totals.invocations, totals.instantiations, totals.resets
    );

    // -- chaos phase -------------------------------------------------------
    if chaos {
        // Injected host panics are expected by the hundreds: silence their
        // default-hook stack traces, let every other panic print normally.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("chaos injected host panic"));
            if !injected {
                prev_hook(info);
            }
        }));

        let chaos_engine = Engine::new(variant);
        let chaos_artifact = chaos_engine
            .compile(CHAOS_HANDLER)
            .expect("chaos handler compiles");
        let chaos_pre = Arc::new(
            chaos_engine
                .instance_pre(&chaos_artifact, chaos_profile())
                .expect("chaos template builds"),
        );
        // One wall-clock ticker preempting across every worker's pool.
        let ticker = EpochTicker::new(Duration::from_millis(1));

        let reports: Vec<ChaosReport> = thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let share = instances / threads + usize::from(w < instances % threads);
                    let pre = Arc::clone(&chaos_pre);
                    let epoch = ticker.epoch();
                    let seed = chaos_seed.wrapping_add(w as u64);
                    scope.spawn(move || chaos_worker(pre, share, seed, fuel, epoch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("chaos worker survived"))
                .collect()
        });
        drop(ticker);

        let mut chaos_totals = ChaosReport::default();
        for r in &reports {
            chaos_totals.merge(r);
        }
        assert_eq!(
            chaos_totals.metrics.leaked, 0,
            "chaos workers must release every checkout"
        );
        let (injected, survived) = chaos_totals
            .classes
            .values()
            .fold((0, 0), |acc, (i, s)| (acc.0 + i, acc.1 + s));
        println!(
            "chaos: {survived}/{injected} faults survived across {} classes, \
             {} slots quarantined",
            chaos_totals.classes.len(),
            chaos_totals.metrics.quarantined
        );
    }
}
