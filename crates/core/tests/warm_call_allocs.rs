//! What a warm call allocates, counted by a global allocator of this
//! test binary's own (no other test shares it). It is a test of the
//! `cage` crate, which depends on the engine, the libc and the pool as
//! ordinary dependencies, so none of them needs the others as a
//! dev-dependency.
//!
//! The store keeps the register arena, the frame stack and the host-call
//! staging across calls, so once it has run a call of the same shape:
//!
//! * `Store::call_into` allocates nothing — a leaf, a counted loop, a
//!   three-deep call chain with a host call at the bottom, and the call
//!   after a trap;
//! * `Store::call` and `Pool::invoke` allocate exactly the returned
//!   `Vec`;
//! * a libc-linked C request shaped like `cage-bench`'s `handle` —
//!   `malloc`, two loops, `free`, on a slot fresh from its reset —
//!   allocates exactly twice: the reply and the first node of the libc
//!   allocator's map of live blocks, which is the libc's, not the
//!   engine's. It was three while a host function returned its results
//!   in a `Vec` of its own: `malloc` now writes its pointer into a slot
//!   of the store's kept host-call staging.
//! * a recycle shaped like `cage-bench`'s `serve_churn` — release, then
//!   the resetting checkout, after a request that dirtied 32 pages —
//!   allocates nothing once the slot has served one such request: the
//!   memory's dirty records keep their capacity across resets.
//!
//! And what a cold instantiation of that request's module allocates,
//! once the thread has instantiated one (the libc's host functions are
//! built once per thread and shared): 5 for `Linker::instantiate` into a
//! store that has held an instance, 6 for a fresh pool's first
//! `Pool::checkout`, 7 for `cage::Engine::instantiate` — and two fewer
//! each (3 / 4 / 5) when a memory of the same size was dropped on the
//! thread before, whose data buffer and tag store the new memory reuses
//! instead of allocating. (A fresh store's call buffers, two of the 8
//! and 9 these rows read before, are allocated by its first call.)
//!
//! Counts are per thread, so tests running side by side do not see each
//! other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cage_engine::{
    ExecConfig, HostFunc, Imports, InstanceHandle, Precompiled, Store, Trap, Value, Variant,
};
use cage_ir::passes::run_pipeline;
use cage_ir::{lower, LowerOptions};
use cage_libc::Linker;
use cage_serve::{HostProfile, InstancePre, Pool};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{BlockType, Instr, ValType};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may already be gone while the thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the count is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its value.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// func 1 `id(x) = x`; func 2 `count(n)` sums `1..=n` in a loop; func 3
/// `chain(x)` calls func 4, which calls func 5, which passes `x` to the
/// host import `env.note` (func 0) and returns `x + 1`. `env.note`
/// returns nothing and traps on `-1`.
fn engine_module() -> (cage_wasm::Module, Imports) {
    let i64s = [ValType::I64];
    let mut b = ModuleBuilder::new();
    let note = b.import_func("env", "note", &i64s, &[]);
    let id = b.add_function(&i64s, &i64s, &[], vec![Instr::LocalGet(0)]);
    let count = b.add_function(
        &i64s,
        &i64s,
        &i64s,
        vec![
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Loop(
                    BlockType::Empty,
                    vec![
                        Instr::LocalGet(0),
                        Instr::I64Eqz,
                        Instr::BrIf(1),
                        Instr::LocalGet(1),
                        Instr::LocalGet(0),
                        Instr::I64Add,
                        Instr::LocalSet(1),
                        Instr::LocalGet(0),
                        Instr::I64Const(1),
                        Instr::I64Sub,
                        Instr::LocalSet(0),
                        Instr::Br(0),
                    ],
                )],
            ),
            Instr::LocalGet(1),
        ],
    );
    let chain = b.add_function(&i64s, &i64s, &[], vec![Instr::LocalGet(0), Instr::Call(4)]);
    let mid = b.add_function(&i64s, &i64s, &[], vec![Instr::LocalGet(0), Instr::Call(5)]);
    let leaf = b.add_function(
        &i64s,
        &i64s,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::Call(note),
            Instr::LocalGet(0),
            Instr::I64Const(1),
            Instr::I64Add,
        ],
    );
    assert_eq!((note, id, count, chain, mid, leaf), (0, 1, 2, 3, 4, 5));
    let mut imports = Imports::new();
    imports.define(
        "env",
        "note",
        HostFunc::new(&i64s, &[], |_, args, _| match args[0] {
            Value::I64(-1) => Err(Trap::Host("refused".into())),
            _ => Ok(()),
        }),
    );
    (b.build(), imports)
}

#[test]
fn a_warm_call_into_allocates_nothing() {
    let (module, imports) = engine_module();
    let config = ExecConfig {
        variant: Variant::CagePtrAuth,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&module, &imports).unwrap();
    let mut out = [Value::I64(0)];
    let mut call = |store: &mut Store, h: InstanceHandle, func: u32, x: i64| {
        let r = store.call_into(h, func, &[Value::I64(x)], &mut out);
        r.map(|()| out[0])
    };
    for (func, x, want) in [(1, 7, 7), (2, 100, 5050), (3, 20, 21)] {
        // The warm-up: the first call of a shape may size the buffers.
        assert_eq!(call(&mut store, h, func, x), Ok(Value::I64(want)));
        let (n, got) = allocations(|| call(&mut store, h, func, x));
        assert_eq!(got, Ok(Value::I64(want)), "func {func}");
        assert_eq!(n, 0, "func {func}: a warm call_into allocated");
    }
    // A trap three calls deep (the host refuses) gives every buffer back:
    // the chain's next call allocates nothing either. The trap itself
    // allocates its message.
    assert!(matches!(call(&mut store, h, 3, -1), Err(Trap::Host(_))));
    let (n, got) = allocations(|| call(&mut store, h, 3, 20));
    assert_eq!((n, got), (0, Ok(Value::I64(21))), "after a trap");
    // `Store::call` allocates its reply and nothing else.
    let (n, got) = allocations(|| store.call(h, 3, &[Value::I64(20)]));
    assert_eq!((n, got), (1, Ok(vec![Value::I64(21)])));
}

/// `cage-bench`'s `handle` request, and `id`.
const HANDLER: &str = r#"
    long id(long x) { return x; }
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

/// `HANDLER` compiled for `variant`.
fn handler_template(variant: Variant) -> Precompiled {
    template_of(HANDLER, LowerOptions::default().memory_pages, variant)
}

/// `source` compiled for `variant`, with a memory of `memory_pages`.
fn template_of(source: &str, memory_pages: u64, variant: Variant) -> Precompiled {
    let mut ir = cage_cc::compile(source).expect("handler compiles");
    run_pipeline(&mut ir, variant.harden_config());
    let opts = LowerOptions {
        ptr_width: variant.ptr_width(),
        memory_pages,
        ..LowerOptions::default()
    };
    let lowered = lower(&ir, &opts).expect("handler lowers");
    Precompiled::new(&lowered.module).expect("handler precompiles")
}

fn handler_pool(variant: Variant) -> Pool {
    pool_of(handler_template(variant), variant)
}

fn pool_of(template: Precompiled, variant: Variant) -> Pool {
    let core = ExecConfig::default().core;
    let pre = InstancePre::from_precompiled(variant, core, template, HostProfile::Libc);
    let mut pool = Pool::new(Arc::new(pre));
    pool.set_fuel_budget(Some(1_000_000));
    pool
}

#[test]
fn a_pool_invoke_allocates_its_reply_and_a_libc_request_twice() {
    let handle_of = |req: i64| (0..16 + req % 16).map(|i| req * 31 + i).sum::<i64>();
    for variant in [Variant::CagePtrAuth, Variant::BaselineWasm64] {
        let mut pool = handler_pool(variant);
        let inst = pool.checkout().unwrap();
        let id = |pool: &mut Pool| pool.invoke(&inst, "id", &[Value::I64(9)]);
        assert_eq!(id(&mut pool), Ok(vec![Value::I64(9)]));
        let (n, got) = allocations(|| id(&mut pool));
        assert_eq!((n, got), (1, Ok(vec![Value::I64(9)])), "{variant}: id");
        pool.release(inst);
        // Each request on a slot fresh from its reset, as `serve_steady`
        // serves them; the first one warms the store.
        for (round, req) in [5i64, 6, 7].into_iter().enumerate() {
            let inst = pool.checkout().unwrap();
            let (n, got) = allocations(|| pool.invoke(&inst, "handle", &[Value::I64(req)]));
            assert_eq!(got, Ok(vec![Value::I64(handle_of(req))]), "{variant}");
            if round > 0 {
                assert_eq!(n, 2, "{variant}: handle({req})");
            }
            pool.release(inst);
        }
    }
}

/// `cage-bench`'s `serve_churn` request: a 2 MiB block, one word stored
/// into every 4 KiB of it, read back, freed.
const CHURN: &str = r#"
    long dirty(long req) {
        long words = 32 * 65536 / 8;
        long* buf = (long*)malloc(words * 8);
        long acc = 0;
        for (long i = 0; i < words; i = i + 512) {
            buf[i] = req + i;
        }
        for (long i = 0; i < words; i = i + 512) {
            acc = acc + buf[i];
        }
        free((char*)buf);
        return acc;
    }
"#;

/// The recycle `serve_churn` times — release, then the checkout that
/// resets the slot — after a request that dirtied 32 pages: once the slot
/// has served one such request, its dirty records and its libc hold the
/// capacity the next needs, and the recycle allocates nothing.
#[test]
fn a_churn_shaped_recycle_allocates_nothing_on_a_warm_slot() {
    let dirty_of = |req: i64| {
        (0..32 * 65536 / 8)
            .step_by(512)
            .map(|i| req + i)
            .sum::<i64>()
    };
    for variant in [
        Variant::CageMemSafety,
        Variant::CageFull,
        Variant::BaselineWasm64,
    ] {
        let mut pool = pool_of(template_of(CHURN, 64, variant), variant);
        pool.set_fuel_budget(Some(10_000_000));
        let mut inst = pool.checkout().unwrap();
        for req in 0..4 {
            let got = pool.invoke(&inst, "dirty", &[Value::I64(req)]);
            assert_eq!(got, Ok(vec![Value::I64(dirty_of(req))]), "{variant}");
            let (n, next) = allocations(|| {
                pool.release(inst);
                pool.checkout().unwrap()
            });
            inst = next;
            // The first recycle's one allocation is the pool's free list,
            // whose first release it is.
            let want = u64::from(req == 0);
            assert_eq!(n, want, "{variant}: recycle after dirty({req})");
        }
        assert_eq!(pool.metrics().resets, 4, "{variant}");
        pool.release(inst);
    }
}

#[test]
fn a_cold_libc_instantiation_allocates_a_pinned_count() {
    for variant in [
        Variant::BaselineWasm64,
        Variant::CagePtrAuth,
        Variant::CageFull,
    ] {
        // The first libc instantiation on a thread builds its table of
        // libc functions; every one after it shares that table. Retired,
        // it leaves its memory's buffers to the thread as a spare.
        let pre = handler_template(variant);
        let linker = Linker::with_libc();
        let mut store = Store::new(variant.exec_config(ExecConfig::default().core));
        let h = linker.instantiate(&mut store, &pre).unwrap();
        store.retire(h);

        // Into a store that has held an instance, on the spare: the
        // globals, the host-function handles and the boxed libc. (The
        // memory's data buffer and tag store were the other two of five.)
        let (n, h) = allocations(|| linker.instantiate(&mut store, &pre).unwrap());
        assert_eq!(n, 3, "{variant}: Linker::instantiate");
        store.retire(h);

        // A fresh pool's first checkout: that, plus the fresh store's
        // instance table. (Its call buffers are allocated by its first
        // call, as every store's are.)
        let mut pool = handler_pool(variant);
        let (n, inst) = allocations(|| pool.checkout().unwrap());
        assert_eq!(n, 4, "{variant}: Pool::checkout, cold");
        pool.release(inst);

        // A fresh store and the instance, after another instance of the
        // artifact (whose memory is four times the template's above) was
        // dropped.
        let engine = cage::Engine::new(variant);
        let artifact = engine.compile(HANDLER).unwrap();
        drop(engine.instantiate(&artifact).unwrap());
        let (n, inst) = allocations(|| engine.instantiate(&artifact).unwrap());
        assert_eq!(n, 5, "{variant}: Engine::instantiate");
        drop(inst);
    }
}

/// The same three rows on a thread that holds no spare memory, where the
/// memory's data buffer and tag store are allocated too.
#[test]
fn a_cold_libc_instantiation_with_no_spare_memory_allocates_a_pinned_count() {
    for variant in [
        Variant::BaselineWasm64,
        Variant::CagePtrAuth,
        Variant::CageFull,
    ] {
        // A thread of its own: no memory was dropped on it yet.
        std::thread::spawn(move || {
            let pre = handler_template(variant);
            let linker = Linker::with_libc();
            let config = variant.exec_config(ExecConfig::default().core);
            let mut store = Store::new(config);
            let h = linker.instantiate(&mut store, &pre).unwrap();
            store.retire(h);
            // Another store's live instance takes the spare, and keeps it.
            let mut holder = Store::new(config);
            let held = linker.instantiate(&mut holder, &pre).unwrap();

            let (n, h) = allocations(|| linker.instantiate(&mut store, &pre).unwrap());
            assert_eq!(n, 5, "{variant}: Linker::instantiate");

            let mut pool = handler_pool(variant);
            let (n, inst) = allocations(|| pool.checkout().unwrap());
            assert_eq!(n, 6, "{variant}: Pool::checkout, cold");

            let engine = cage::Engine::new(variant);
            let artifact = engine.compile(HANDLER).unwrap();
            let (n, cage_inst) = allocations(|| engine.instantiate(&artifact).unwrap());
            assert_eq!(n, 7, "{variant}: Engine::instantiate");
            pool.release(inst);
            drop((held, h, cage_inst));
        })
        .join()
        .expect("the row's thread passes");
    }
}
