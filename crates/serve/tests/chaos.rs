//! Chaos suite: the one driver of serving pools under load and faults.
//!
//! Every test runs over the three pool-capacity regimes of §6.4 —
//! `CagePtrAuth` (no sandbox tag), `CageSandboxing` (15 live sandboxes
//! per store) and `CageFull` (one) — at one and at several worker
//! threads, each owning a [`Pool`] over one shared `Arc<InstancePre>`,
//! all sharing one [`EpochTicker`] through [`Pool::share_epoch`].
//!
//! *Faults.* A seeded [`FaultPlan`] forces every failure class — denied
//! `memory.grow`, bulk ops trapping past a pinned memory, host traps,
//! host *panics*, fuel exhaustion, epoch preemption — into a hand-built
//! hostile module, so the suite controls which engine path each fault
//! takes. After **every** fault the pool must serve a probe bit-identical
//! to a fresh pool of the same variant (results, cycle f64 bits, retired
//! count, remaining fuel, the libc stdout the request printed): faults
//! recycle perfectly or quarantine, and nothing leaks. The ticker only meets deadlines armed at the current
//! epoch, due at the first preemption point however far it has ticked,
//! so it adds no nondeterminism; nothing here reads a clock.
//!
//! *Load.* A C handler linked against libc: every response checked
//! against a host-side reference, the pool counters against the
//! arithmetic of the run, and `malloc` NULL under a page cap.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Once};
use std::thread;
use std::time::Duration;

use cage_engine::trap::panic_message;
use cage_engine::{InstanceLimits, Trap, Value};
use cage_ir::passes::run_pipeline;
use cage_ir::{lower, LowerOptions};
use cage_mte::Core;
use cage_runtime::{Linker, PoolMetrics, Variant};
use cage_serve::{EpochTicker, Fault, FaultPlan, HostProfile, InstancePre, Pool, ServeError};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::{BlockType, Instr, MemArg, Module, ValType};

/// The pool-capacity regimes, in order of how many sandboxes a store
/// holds: unbounded, 15, one.
const REGIMES: [Variant; 3] = [
    Variant::CagePtrAuth,
    Variant::CageSandboxing,
    Variant::CageFull,
];

/// Worker-thread counts every regime runs at.
const WORKERS: [usize; 2] = [1, 3];

/// Every (variant, worker count) row of the suite.
fn rows() -> impl Iterator<Item = (Variant, usize)> {
    REGIMES
        .into_iter()
        .flat_map(|variant| WORKERS.map(|workers| (variant, workers)))
}

/// Sandboxes one store holds at once under `variant` (§6.4): no tag
/// under software bounds, 15 under MTE sandboxing, one in combined mode.
fn sandbox_tags(variant: Variant) -> Option<usize> {
    match variant {
        Variant::CageSandboxing => Some(15),
        Variant::CageFull => Some(1),
        _ => None,
    }
}

const CORE: Core = Core::CortexA715;

/// Chaos hook behaviour: benign echo, ordinary host trap, host panic.
const MODE_OK: u64 = 0;
const MODE_TRAP: u64 = 1;
const MODE_PANIC: u64 = 2;

thread_local! {
    /// This worker's chaos-hook behaviour. A pool lives on one thread, so
    /// a thread-local gives each worker its own switch through the one
    /// shared template.
    static MODE: Cell<u64> = const { Cell::new(MODE_OK) };
}

/// Fuel granted to every request — ample for `work(6)` and `handle`.
const FUEL: u64 = 10_000;

/// The hostile guest: a host-calling worker loop with memory traffic
/// that prints its result through libc (`work`), a bare `memory.grow`
/// (`grow`), a bulk fill into the second page (`fill_high`, OOB unless the
/// memory actually grew), and an infinite loop (`spin`) for the
/// preemption classes.
fn hostile_module() -> Module {
    let mut b = ModuleBuilder::new();
    let hook = b.import_func("env", "hook", &[ValType::I64], &[ValType::I64]);
    let print = b.import_func("cage_libc", "print_i64", &[ValType::I64], &[]);
    let mut memory = cage_wasm::MemoryType::wasm64(1);
    memory.limits.max = Some(64);
    b.add_memory(memory);
    // work(n): n rounds of acc += hook(acc + i) with a store/load of the
    // accumulator each round — host boundary and memory both on the hot
    // path of the probe — then one line of stdout: the slot's libc is
    // part of what a recycle must restore.
    let work = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64, ValType::I64],
        vec![
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Loop(
                    BlockType::Empty,
                    vec![
                        Instr::LocalGet(2),
                        Instr::LocalGet(0),
                        Instr::I64LtS,
                        Instr::I32Eqz,
                        Instr::BrIf(1),
                        Instr::LocalGet(1),
                        Instr::LocalGet(2),
                        Instr::I64Add,
                        Instr::Call(hook),
                        Instr::LocalGet(1),
                        Instr::I64Add,
                        Instr::LocalSet(1),
                        Instr::I64Const(64),
                        Instr::LocalGet(1),
                        Instr::Store(StoreOp::I64Store, MemArg::none()),
                        Instr::I64Const(64),
                        Instr::Load(LoadOp::I64Load, MemArg::none()),
                        Instr::LocalSet(1),
                        Instr::LocalGet(2),
                        Instr::I64Const(1),
                        Instr::I64Add,
                        Instr::LocalSet(2),
                        Instr::Br(0),
                    ],
                )],
            ),
            Instr::LocalGet(1),
            Instr::Call(print),
            Instr::LocalGet(1),
        ],
    );
    let grow = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::MemoryGrow],
    );
    let fill_high = b.add_function(
        &[],
        &[ValType::I64],
        &[],
        vec![
            Instr::I64Const(65_536 + 16),
            Instr::I32Const(0xAB),
            Instr::I64Const(8),
            Instr::MemoryFill,
            Instr::I64Const(1),
        ],
    );
    let spin = b.add_function(
        &[],
        &[ValType::I64],
        &[],
        vec![
            Instr::Loop(BlockType::Empty, vec![Instr::Br(0)]),
            Instr::I64Const(0),
        ],
    );
    b.export_func("work", work);
    b.export_func("grow", grow);
    b.export_func("fill_high", fill_high);
    b.export_func("spin", spin);
    b.build()
}

/// The hostile module's template under `variant`: libc, and the chaos
/// hook reading the calling worker's [`MODE`].
fn template(variant: Variant) -> Arc<InstancePre> {
    let host = HostProfile::Custom(Arc::new(|linker| {
        *linker = Linker::with_libc();
        linker.func(
            "env",
            "hook",
            &[ValType::I64],
            &[ValType::I64],
            |_ctx, args| match MODE.with(Cell::get) {
                MODE_OK => Ok(vec![Value::I64(args[0].as_i64() + 1)]),
                MODE_TRAP => Err(Trap::Host("chaos injected host trap".into())),
                _ => panic!("chaos injected host panic"),
            },
        );
    }));
    let pre = InstancePre::new(variant, CORE, &hostile_module(), 0, host)
        .expect("hostile module validates");
    Arc::new(pre)
}

/// Suppresses only the suite's own injected host panics (caught at the
/// engine's dispatch boundary); anything else still reports through the
/// previous hook.
fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_message(info.payload()).contains("chaos injected host panic") {
                prev(info);
            }
        }));
    });
}

/// Runs `work` on `workers` threads, each with its own pool over `pre`
/// (fuel budget [`FUEL`]), all preempted through one ticking epoch, and
/// returns what each returned, in worker order. No worker may end with
/// an instance still checked out.
fn on_workers<T: Send>(
    pre: &Arc<InstancePre>,
    workers: usize,
    work: impl Fn(usize, &mut Pool) -> T + Sync,
) -> Vec<T> {
    let ticker = EpochTicker::new(Duration::from_millis(1));
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (pre, epoch, work) = (Arc::clone(pre), ticker.epoch(), &work);
                scope.spawn(move || {
                    let mut pool = Pool::new(pre);
                    pool.share_epoch(epoch);
                    pool.set_fuel_budget(Some(FUEL));
                    let out = work(w, &mut pool);
                    assert_eq!(pool.outstanding(), 0, "worker {w} leaked a checkout");
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker survived"))
            .collect()
    })
}

/// Everything observable about one healthy probe request.
type Observed = (Vec<Value>, u64, u64, Option<u64>, String);

/// Serves one healthy `work(6)` request and records its result, cycle
/// bits, retired instructions, remaining fuel and captured stdout.
fn probe(pool: &mut Pool) -> Observed {
    let inst = pool.checkout().expect("probe checkout");
    let result = pool
        .invoke(&inst, "work", &[Value::I64(6)])
        .expect("probe request succeeds");
    let obs = (
        result,
        pool.cycles(&inst).to_bits(),
        pool.instr_count(&inst),
        pool.fuel_remaining(&inst),
        pool.stdout(&inst),
    );
    pool.release(inst);
    obs
}

/// Whether `trap` is what `fill_high` raises once a denied grow has
/// pinned the memory at its one page — the one contracted outcome that
/// depends on the regime. Software bounds check the fill against the
/// memory's size (`OutOfBounds`); under MTE sandboxing the tag check
/// replaces that bounds check, and the granules past the sandbox do not
/// carry its tag (`TagCheck`).
fn fill_past_the_end(variant: Variant, trap: &Trap) -> bool {
    if variant.sandboxed() {
        matches!(trap, Trap::TagCheck(_))
    } else {
        matches!(trap, Trap::OutOfBounds { .. })
    }
}

/// Forces one fault into the pool and asserts it produced exactly its
/// contracted outcome (trap kind, poison state, denial value).
fn inject(pool: &mut Pool, fault: Fault) {
    let variant = pool.instance_pre().variant();
    let (mode, export, args, fuel): (u64, &str, &[Value], u64) = match fault {
        Fault::None => (MODE_OK, "work", &[Value::I64(3)], FUEL),
        Fault::GrowDenied => {
            // Pin the memory at its single initial page: the grow the
            // module type allows (max 64) is denied by the instance
            // limit, and the bulk fill that banked on it traps.
            pool.set_limits(InstanceLimits {
                max_memory_pages: Some(1),
                ..InstanceLimits::default()
            });
            (MODE_OK, "grow", &[Value::I64(1)], FUEL)
        }
        Fault::HostTrap => (MODE_TRAP, "work", &[Value::I64(3)], FUEL),
        Fault::HostPanic => (MODE_PANIC, "work", &[Value::I64(3)], FUEL),
        Fault::FuelExhaust(budget) => (MODE_OK, "spin", &[], budget),
        Fault::EpochExpire => {
            // A zero-tick budget arms the deadline at the current epoch:
            // already due, so the trap lands at the first preemption
            // point however far the shared ticker has run.
            pool.set_epoch_budget(Some(0));
            (MODE_OK, "spin", &[], FUEL)
        }
    };
    pool.set_fuel_budget(Some(fuel));
    MODE.with(|m| m.set(mode));
    let inst = pool.checkout().expect("checkout");
    // Every checkout is armed afresh, whatever its slot ran before.
    assert_eq!(
        pool.fuel_remaining(&inst),
        Some(fuel),
        "{variant}: {fault:?}"
    );
    let out = pool.invoke(&inst, export, args);
    MODE.with(|m| m.set(MODE_OK));
    let contracted = match fault {
        Fault::None => out.is_ok(),
        Fault::GrowDenied => {
            let fill = pool.invoke(&inst, "fill_high", &[]);
            assert!(
                fill.as_ref().is_err_and(|t| fill_past_the_end(variant, t)),
                "{variant}: fill past the pinned memory: {fill:?}"
            );
            out == Ok(vec![Value::I64(-1)])
        }
        Fault::HostTrap => matches!(out, Err(Trap::Host(_))),
        Fault::HostPanic => matches!(out, Err(Trap::HostPanic(_))),
        Fault::FuelExhaust(_) => out == Err(Trap::FuelExhausted),
        Fault::EpochExpire => out == Err(Trap::EpochInterrupt),
    };
    assert!(contracted, "{variant}: {fault:?} gave {out:?}");
    // Only a host panic poisons, and releasing the poisoned slot
    // quarantines it; every other class recycles.
    let panicked = fault == Fault::HostPanic;
    let quarantined = pool.quarantined();
    assert_eq!(pool.is_poisoned(&inst), panicked, "{variant}: {fault:?}");
    pool.release(inst);
    assert_eq!(pool.quarantined(), quarantined + usize::from(panicked));
    pool.set_limits(InstanceLimits::default());
    pool.set_fuel_budget(Some(FUEL));
    pool.set_epoch_budget(None);
}

/// The classes a fixed sweep covers before the seeded stream starts, so
/// the suite exercises every one of them at any stream length.
const SWEEP: [Fault; 5] = [
    Fault::GrowDenied,
    Fault::HostTrap,
    Fault::HostPanic,
    Fault::FuelExhaust(3),
    Fault::EpochExpire,
];

/// Worker `w` of every row draws from `FaultPlan::new(SEED + w)`.
const SEED: u64 = 0xC46E_2026;

/// Faults drawn after the sweep by each worker of the main test.
const DRAWS: usize = 200;

/// Host panics in worker 0's run of the main test (the sweep's one plus
/// the pinned seed's draws): the quarantine storm. More than a store's
/// 15 sandbox tags, so under `CageSandboxing` and `CageFull` the pool
/// keeps serving only because each quarantine returns its slot's tag.
const STORM: usize = 25;

/// One worker's chaos: the [`SWEEP`], then `draws` faults from the plan
/// seeded `seed`, each followed by a probe. Returns each step's fault
/// class and probe observation.
fn chaos(pool: &mut Pool, seed: u64, draws: usize) -> Vec<(&'static str, Observed)> {
    let mut plan = FaultPlan::new(seed);
    let mut faults = SWEEP.to_vec();
    faults.extend((0..draws).map(|_| plan.next_fault()));
    faults
        .into_iter()
        .map(|fault| {
            inject(pool, fault);
            (fault.name(), probe(pool))
        })
        .collect()
}

/// The tentpole property: after *every* injected fault, the pool serves
/// a probe bit-identical to a fresh pool of the same variant. Faults
/// recycle perfectly or quarantine — and quarantines are exactly the
/// injected host panics, with nothing leaked.
#[test]
fn every_fault_class_recycles_bit_identically_or_quarantines() {
    silence_injected_panics();
    for (variant, workers) in rows() {
        let pre = template(variant);
        let mut fresh = Pool::new(Arc::clone(&pre));
        fresh.set_fuel_budget(Some(FUEL));
        let baseline = probe(&mut fresh);
        let printed = format!("{}\n", baseline.0[0].as_i64());
        assert_eq!(baseline.4, printed, "{variant}: one line of stdout");
        assert_eq!(baseline, probe(&mut fresh), "{variant}: unstable probe");

        let storms = on_workers(&pre, workers, |w, pool| {
            let row = format!("{variant} x {workers}, worker {w}");
            let trace = chaos(pool, SEED + w as u64, DRAWS);
            let mut injected: BTreeMap<&str, usize> = BTreeMap::new();
            for (i, (fault, observed)) in trace.iter().enumerate() {
                *injected.entry(fault).or_insert(0) += 1;
                assert_eq!(
                    observed, &baseline,
                    "{row}: probe diverged from a fresh pool after fault #{i} ({fault})"
                );
            }
            assert_eq!(injected.len(), 6, "{row}: a class was never injected");
            // Quarantine accounting: exactly one retired slot per host
            // panic, no other class retires capacity, and the ledger
            // balances at zero.
            let panics = injected["host_panic"];
            assert_eq!(pool.quarantined(), panics, "{row}");
            assert_eq!(pool.metrics().quarantined, panics as u64, "{row}");
            assert_eq!(pool.metrics().leaked, 0, "{row}");
            panics
        });
        assert_eq!(storms[0], STORM, "{variant} x {workers}: the pinned storm");
    }
}

/// Same seed, same chaos: the full per-step observation stream and the
/// final pool metrics replay identically — and a worker's run does not
/// depend on how many neighbours share its template and ticker — so a CI
/// failure under a pinned seed reproduces exactly.
#[test]
fn chaos_runs_are_deterministic_for_a_fixed_seed() {
    silence_injected_panics();
    let [one, many] = WORKERS;
    for variant in REGIMES {
        let pre = template(variant);
        let run = |workers: usize, seed: u64| {
            on_workers(&pre, workers, |w, pool| {
                let trace = chaos(pool, seed + w as u64, 40);
                (trace, pool.metrics(), pool.quarantined())
            })
        };
        let alone = run(one, 7);
        let shared = run(many, 7);
        assert_eq!(alone, run(one, 7), "{variant}");
        assert_eq!(shared, run(many, 7), "{variant}");
        assert_eq!(alone[0], shared[0], "{variant}: worker 0 with neighbours");
        // Seeds must draw different fault classes, not just budgets.
        let classes = |seed| run(one, seed).remove(0).0.into_iter().map(|t| t.0);
        assert!(!classes(7).eq(classes(8)), "{variant}: seeds draw alike");
    }
}

/// Quarantined capacity under a slot cap is replaced, not lost: a capped
/// pool that loses a slot to a host panic still serves its full
/// complement of concurrent checkouts afterwards — two, or the store's
/// sandbox tags if fewer, and the refusal past it names that capacity.
#[test]
fn quarantined_capacity_is_replaced_within_the_cap() {
    silence_injected_panics();
    for (variant, workers) in rows() {
        let capacity = sandbox_tags(variant).map_or(2, |tags| tags.min(2));
        on_workers(&template(variant), workers, |w, pool| {
            pool.set_max_slots(Some(2));
            inject(pool, Fault::HostPanic);
            assert_eq!(pool.quarantined(), 1);

            // The quarantined slot no longer counts (and has returned
            // its sandbox tag), so the cold path may stamp replacements.
            let held: Vec<_> = (0..capacity)
                .map(|_| pool.checkout().expect("slot after the quarantine"))
                .collect();
            let shed = pool.checkout();
            assert!(
                matches!(shed, Err(ServeError::Exhausted { capacity: c }) if c == capacity),
                "{variant}, worker {w}: {shed:?}"
            );
            for inst in held {
                assert!(pool.invoke(&inst, "work", &[Value::I64(2)]).is_ok());
                pool.release(inst);
            }
            assert_eq!(pool.metrics().exhausted, 1);
        });
    }
}

/// The C request handler: allocator churn plus a memory sweep, so cold
/// instantiation, invoke and dirty-page reset all have real work;
/// [`expected`] is its host-side reference. `hog` asks the allocator for
/// more memory than the instance has.
const HANDLER: &str = r#"
    long handle(long req) {
        long n = 16 + (req % 16);
        long* buf = (long*)malloc(n * 8);
        long acc = 0;
        for (long i = 0; i < n; i++) { buf[i] = req * 31 + i; }
        for (long i = 0; i < n; i++) { acc = acc + buf[i]; }
        free((char*)buf);
        return acc;
    }
    long hog() {
        char* p = malloc(16777216);
        if (p == 0) { return -1; }
        free(p);
        return 1;
    }
"#;

/// What `handle(req)` must return.
fn expected(req: i64) -> i64 {
    let n = 16 + req % 16;
    (0..n).map(|i| req * 31 + i).sum()
}

/// [`HANDLER`] compiled and hardened for `variant`, linked against libc.
fn c_template(variant: Variant) -> Arc<InstancePre> {
    let mut ir = cage_cc::compile(HANDLER).expect("handler compiles");
    run_pipeline(&mut ir, variant.harden_config());
    let opts = LowerOptions {
        ptr_width: variant.ptr_width(),
        ..LowerOptions::default()
    };
    let lowered = lower(&ir, &opts).expect("handler lowers");
    let pre = InstancePre::new(
        variant,
        CORE,
        &lowered.module,
        lowered.heap_base,
        HostProfile::Libc,
    )
    .expect("template builds");
    Arc::new(pre)
}

/// Requests each held instance serves before the pool recycles it.
const ROUNDS: usize = 3;

/// Load under threads: every worker fills its pool to what its store
/// holds (eight slots where no tag caps it), serves [`ROUNDS`] requests
/// per slot, then recycles every slot once (the dirty-page reset path)
/// and serves one more from each. Every response is checked against the
/// host-side reference, and the pool counters against the arithmetic of
/// the run.
#[test]
fn threaded_c_handler_responses_and_pool_counters_are_exact() {
    for (variant, workers) in rows() {
        let held = sandbox_tags(variant).unwrap_or(8);
        let pre = c_template(variant);
        let per_worker = on_workers(&pre, workers, |w, pool| {
            let mut req = w as i64 * 1_000;
            for rounds in [ROUNDS, 1] {
                let slots: Vec<_> = (0..held).map(|_| pool.checkout().expect("slot")).collect();
                assert_eq!(pool.capacity(), held, "churn recycles, it does not grow");
                for _ in 0..rounds {
                    for inst in &slots {
                        req += 1;
                        let out = pool.invoke(inst, "handle", &[Value::I64(req)]);
                        let want = Ok(vec![Value::I64(expected(req))]);
                        assert_eq!(out, want, "{variant}, worker {w}: handle({req})");
                    }
                }
                slots.into_iter().for_each(|inst| pool.release(inst));
            }
            pool.metrics()
        });
        let mut totals = PoolMetrics::default();
        per_worker.iter().for_each(|m| totals.merge(m));
        let n = (workers * held) as u64;
        let row = format!("{variant} x {workers}");
        assert_eq!(
            (totals.instantiations, totals.resets, totals.invocations),
            (n, n, n * (ROUNDS as u64 + 1)),
            "{row}: every slot stamped once, recycled once, served every request"
        );
        assert_eq!(
            (totals.quarantined, totals.exhausted, totals.leaked),
            (0, 0, 0),
            "{row}: healthy traffic costs no slot"
        );
    }
}

/// Allocator exhaustion is an answer, not a fault: under a pool page cap
/// at the module's initial memory, guest `malloc` of 16 MiB returns NULL
/// (the hardened allocator never grows memory, and the cap pins what
/// there is), the guest reports `-1`, and the slot is recycled healthy.
#[test]
fn guest_malloc_returns_null_under_a_pool_page_cap_without_poisoning() {
    for (variant, workers) in rows() {
        let pre = c_template(variant);
        on_workers(&pre, workers, |w, pool| {
            pool.set_limits(InstanceLimits {
                max_memory_pages: pre.module().memory_type().map(|t| t.limits.min),
                ..InstanceLimits::default()
            });
            let inst = pool.checkout().expect("capped checkout");
            let out = pool.invoke(&inst, "hog", &[]);
            assert_eq!(out, Ok(vec![Value::I64(-1)]), "{variant}, worker {w}");
            assert!(!pool.is_poisoned(&inst), "{variant}: NULL is not poison");
            pool.release(inst);
            pool.set_limits(InstanceLimits::default());
            let inst = pool.checkout().expect("recycled checkout");
            let out = pool.invoke(&inst, "handle", &[Value::I64(5)]);
            assert_eq!(out, Ok(vec![Value::I64(expected(5))]), "{variant}");
            pool.release(inst);
            let m = pool.metrics();
            assert_eq!((m.instantiations, m.resets, m.quarantined), (1, 1, 0));
        });
    }
}
