//! The `Engine` / `Linker` / `TypedFunc` embedder API, end to end:
//! custom host functions registered through a `Linker` and invoked from
//! unmodified C, typed-call signature checking, and the §6.4 15-sandbox
//! MTE tag budget across `Engine`-shared instances.

use std::cell::RefCell;
use std::rc::Rc;

use cage::engine::store::InstantiateError;
use cage::engine::Store;
use cage::wasm::ValType;
use cage::{Engine, Error, Linker, Value, Variant};

/// C that imports two embedder host functions (prototypes without
/// definitions become `env.*` imports) alongside the implicit libc.
const HOST_APP: &str = r#"
    long accumulate(long value);        // host: running sum, returns total
    double scale(double x, long k);     // host: x * k in host arithmetic

    long feed(long n) {
        long total = 0;
        for (long i = 1; i <= n; i++) {
            total = accumulate(i);
        }
        print_str("fed");
        return total;
    }

    double amplify(double x) {
        return scale(x, 3);
    }
"#;

fn host_linker() -> (Linker, Rc<RefCell<Vec<i64>>>) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut linker = Linker::with_libc();
    let state = Rc::clone(&seen);
    let total = Rc::new(RefCell::new(0i64));
    linker.func(
        "env",
        "accumulate",
        &[ValType::I64],
        &[ValType::I64],
        move |_ctx, args, out| {
            let v = args[0].as_i64();
            state.borrow_mut().push(v);
            *total.borrow_mut() += v;
            out[0] = Value::I64(*total.borrow());
            Ok(())
        },
    );
    linker.func(
        "env",
        "scale",
        &[ValType::F64, ValType::I64],
        &[ValType::F64],
        |_ctx, args, out| {
            out[0] = Value::F64(args[0].as_f64() * args[1].as_i64() as f64);
            Ok(())
        },
    );
    (linker, seen)
}

#[test]
fn custom_host_functions_roundtrip_values_from_c() {
    for variant in [Variant::BaselineWasm64, Variant::CageFull] {
        let engine = Engine::new(variant);
        let artifact = engine.compile(HOST_APP).unwrap();
        let (linker, seen) = host_linker();
        let mut inst = engine.instantiate_with(&artifact, &linker).unwrap();

        let feed = inst.get_typed::<i64, i64>("feed").unwrap();
        assert_eq!(feed.call(&mut inst, 5).unwrap(), 15, "{variant}");
        assert_eq!(*seen.borrow(), vec![1, 2, 3, 4, 5], "{variant}");
        // libc still wired next to the custom functions.
        assert_eq!(inst.stdout(), "fed\n", "{variant}");

        let amplify = inst.get_typed::<f64, f64>("amplify").unwrap();
        assert_eq!(amplify.call(&mut inst, 2.5).unwrap(), 7.5, "{variant}");
    }
}

#[test]
fn host_state_is_shared_across_instances_of_one_linker() {
    let engine = Engine::new(Variant::BaselineWasm64);
    let artifact = engine.compile(HOST_APP).unwrap();
    let (linker, seen) = host_linker();
    let mut a = engine.instantiate_with(&artifact, &linker).unwrap();
    let mut b = engine.instantiate_with(&artifact, &linker).unwrap();
    a.invoke("feed", &[Value::I64(2)]).unwrap();
    b.invoke("feed", &[Value::I64(1)]).unwrap();
    // One closure, one accumulator: both instances fed the same host state.
    assert_eq!(*seen.borrow(), vec![1, 2, 1]);
}

#[test]
fn missing_host_import_is_an_instantiation_error() {
    let engine = Engine::new(Variant::BaselineWasm64);
    let artifact = engine.compile(HOST_APP).unwrap();
    // libc alone does not satisfy env.accumulate / env.scale.
    let err = engine
        .instantiate_with(&artifact, &Linker::with_libc())
        .unwrap_err();
    match err {
        Error::Instantiate(InstantiateError::MissingImport {
            ref module,
            ref name,
        }) => {
            assert_eq!(module, "env");
            assert!(name == "accumulate" || name == "scale");
        }
        other => panic!("expected MissingImport, got {other}"),
    }
}

#[test]
fn typed_signature_mismatches_are_unified_errors() {
    let engine = Engine::new(Variant::BaselineWasm64);
    let artifact = engine
        .compile("long f(long x, long y) { return x + y; } double g() { return 1.5; }")
        .unwrap();
    let inst = engine.instantiate(&artifact).unwrap();

    // Wrong parameter arity.
    let err = inst.get_typed::<i64, i64>("f").unwrap_err();
    let text = err.to_string();
    assert!(matches!(err, Error::SignatureMismatch { .. }), "{err}");
    assert!(text.contains("(i64) -> (i64)"), "{text}");
    assert!(text.contains("(i64, i64) -> (i64)"), "{text}");

    // Wrong result type.
    assert!(matches!(
        inst.get_typed::<(), i64>("g").unwrap_err(),
        Error::SignatureMismatch { .. }
    ));
    // Correct signatures succeed.
    assert!(inst.get_typed::<(i64, i64), i64>("f").is_ok());
    assert!(inst.get_typed::<(), f64>("g").is_ok());

    // Missing and non-function exports are distinct errors.
    assert!(matches!(
        inst.get_typed::<(), i64>("nope").unwrap_err(),
        Error::MissingExport { .. }
    ));
    assert!(matches!(
        inst.get_typed::<(), i64>("memory").unwrap_err(),
        Error::NotAFunction { .. }
    ));
}

#[test]
fn typed_calls_convert_every_scalar_width() {
    let engine = Engine::new(Variant::BaselineWasm64);
    let artifact = engine
        .compile(
            r#"
            long widen(int x) { return (long)x * 2; }
            double mix(long a, double b) { return (double)a + b; }
            "#,
        )
        .unwrap();
    let mut inst = engine.instantiate(&artifact).unwrap();
    let widen = inst.get_typed::<i32, i64>("widen").unwrap();
    assert_eq!(widen.call(&mut inst, -21).unwrap(), -42);
    let mix = inst.get_typed::<(i64, f64), f64>("mix").unwrap();
    assert_eq!(mix.call(&mut inst, (40, 2.0)).unwrap(), 42.0);
}

#[test]
fn traps_surface_through_typed_calls_as_unified_errors() {
    let engine = Engine::new(Variant::CageFull);
    let artifact = engine
        .compile(
            r#"
            long oob(long n) {
                char* p = malloc(16);
                p[n] = 1;
                long v = p[0];
                free(p);
                return v;
            }
            "#,
        )
        .unwrap();
    let mut inst = engine.instantiate(&artifact).unwrap();
    let oob = inst.get_typed::<i64, i64>("oob").unwrap();
    assert!(oob.call(&mut inst, 0).is_ok());

    let mut inst = engine.instantiate(&artifact).unwrap();
    let oob = inst.get_typed::<i64, i64>("oob").unwrap();
    let err = oob.call(&mut inst, 16).unwrap_err();
    assert!(err.is_memory_safety_violation(), "{err}");
    assert!(err.as_trap().is_some());
}

#[test]
fn untyped_invoke_reports_caller_mistakes_as_get_typed_does() {
    let engine = Engine::new(Variant::CageFull);
    let artifact = engine
        .compile("long add(long a, long b) { return a + b; }")
        .unwrap();
    let mut inst = engine.instantiate(&artifact).unwrap();
    let mismatch = |requested: &str| Error::SignatureMismatch {
        name: "add".into(),
        requested: requested.into(),
        actual: "(i64, i64) -> (i64)".into(),
    };
    for (name, args, wanted) in [
        (
            "ghost",
            &[][..],
            Error::MissingExport {
                name: "ghost".into(),
            },
        ),
        (
            "__heap_base",
            &[][..],
            Error::NotAFunction {
                name: "__heap_base".into(),
            },
        ),
        ("add", &[Value::I64(1)][..], mismatch("(i64) -> (i64)")),
        (
            "add",
            &[Value::I64(1), Value::F64(2.0)][..],
            mismatch("(i64, f64) -> (i64)"),
        ),
    ] {
        let err = inst.invoke(name, args).unwrap_err();
        assert_eq!(err.to_string(), wanted.to_string(), "{name}{args:?}");
        assert!(err.as_trap().is_none(), "{name}{args:?}: {err}");
    }
    let sum = inst.invoke("add", &[Value::I64(40), Value::I64(2)]);
    assert_eq!(sum.unwrap(), vec![Value::I64(42)]);
}

#[test]
fn engine_shared_instances_exhaust_the_sandbox_tag_budget() {
    // §6.4: at most 15 MTE sandboxes per process. One Engine, one shared
    // store, sixteen instantiations.
    let engine = Engine::new(Variant::CageSandboxing);
    let artifact = engine.compile("long f() { return 1; }").unwrap();
    let linker = Linker::with_libc();
    let mut store = Store::new(engine.exec_config());
    for i in 0..15 {
        let token = artifact
            .instantiate_into(&mut store, &linker)
            .unwrap_or_else(|e| panic!("sandbox {i}: {e}"));
        assert_eq!(
            store.invoke(token, "f", &[]).unwrap(),
            vec![Value::I64(1)],
            "sandbox {i} runs"
        );
    }
    let err = artifact.instantiate_into(&mut store, &linker).unwrap_err();
    assert!(
        matches!(err, Error::Instantiate(InstantiateError::TooManySandboxes)),
        "{err}"
    );
    // A fresh store has a fresh budget.
    let mut store2 = Store::new(engine.exec_config());
    assert!(artifact.instantiate_into(&mut store2, &linker).is_ok());
}

#[test]
fn linker_definitions_shadow_libc() {
    let engine = Engine::new(Variant::BaselineWasm64);
    let artifact = engine
        .compile(
            r#"
            void run() {
                print_i64(7);
            }
            "#,
        )
        .unwrap();
    let captured = Rc::new(RefCell::new(Vec::new()));
    let mut linker = Linker::with_libc();
    let log = Rc::clone(&captured);
    linker.func(
        "cage_libc",
        "print_i64",
        &[ValType::I64],
        &[],
        move |_ctx, args, _| {
            log.borrow_mut().push(args[0].as_i64());
            Ok(())
        },
    );
    let mut inst = engine.instantiate_with(&artifact, &linker).unwrap();
    inst.invoke("run", &[]).unwrap();
    assert_eq!(*captured.borrow(), vec![7], "embedder override intercepted");
    assert_eq!(inst.stdout(), "", "libc print replaced, nothing captured");
}

#[test]
fn typed_func_rechecks_when_called_on_a_different_instance() {
    let engine = Engine::new(Variant::BaselineWasm64);
    let int_art = engine.compile("long f(long x) { return x + 1; }").unwrap();
    let float_art = engine.compile("double f(double x) { return x; }").unwrap();

    let mut int_a = engine.instantiate(&int_art).unwrap();
    let mut int_b = engine.instantiate(&int_art).unwrap();
    let mut float_inst = engine.instantiate(&float_art).unwrap();

    let f = int_a.get_typed::<i64, i64>("f").unwrap();
    assert_eq!(f.call(&mut int_a, 1).unwrap(), 2);
    // Same module in another instance: re-validated, then allowed.
    assert_eq!(f.call(&mut int_b, 10).unwrap(), 11);
    // Incompatible module: a unified error, never an engine panic.
    let err = f.call(&mut float_inst, 1).unwrap_err();
    assert!(matches!(err, Error::SignatureMismatch { .. }), "{err}");
    // A module whose `f` sits at another function index: the name is
    // resolved again, so `g` (at `f`'s index in `int_art`) is not called.
    let moved_art = engine
        .compile("long g(long x) { return x * 100; } long f(long x) { return x + 2; }")
        .unwrap();
    let mut moved = engine.instantiate(&moved_art).unwrap();
    assert_eq!(f.call(&mut moved, 10).unwrap(), 12);
    // And the first instance still takes its own index.
    assert_eq!(f.call(&mut int_a, 5).unwrap(), 6);
}

#[test]
fn variant_mismatch_between_artifact_and_engine_is_rejected() {
    let cage_engine = Engine::new(Variant::CageFull);
    let baseline_engine = Engine::new(Variant::BaselineWasm64);
    let hardened = cage_engine.compile("long f() { return 1; }").unwrap();
    // Running a hardened artifact on a baseline engine would silently
    // disable the protections it was compiled for.
    let err = baseline_engine.instantiate(&hardened).unwrap_err();
    assert!(matches!(err, Error::VariantMismatch { .. }), "{err}");
    // The multi-instance path enforces the same guard.
    let mut baseline_store = Store::new(baseline_engine.exec_config());
    let err = hardened
        .instantiate_into(&mut baseline_store, &Linker::with_libc())
        .unwrap_err();
    assert!(matches!(err, Error::VariantMismatch { .. }), "{err}");
    // The matching engine still works.
    assert!(cage_engine.instantiate(&hardened).is_ok());
}

#[test]
fn instance_pre_is_send_and_sync() {
    // The serving layer's whole point: one pre-linked template shared by
    // reference across worker threads. Compile-time assertion — if
    // `InstancePre` (or the `Arc<Module>`/`Arc<CompiledFunc>` graph
    // inside it) ever regains an `Rc`, this stops building.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<cage::InstancePre>();
    assert_send_sync::<cage::serve::HostProfile>();
    assert_send_sync::<std::sync::Arc<cage::InstancePre>>();
}

#[test]
fn engine_instance_pre_feeds_pools_across_threads() {
    use std::sync::Arc;

    use cage::{HostProfile, Pool};

    let engine = Engine::new(Variant::CagePtrAuth);
    let artifact = engine
        .compile(
            r#"
            long handle(long req) {
                long* p = (long*)malloc(32);
                p[0] = req * 2 + 1;
                long v = p[0];
                free((char*)p);
                return v;
            }
            "#,
        )
        .unwrap();
    let pre = Arc::new(engine.instance_pre(&artifact, HostProfile::Libc).unwrap());

    // A hardened artifact on a mismatched engine is still rejected on
    // the template path.
    let baseline = Engine::new(Variant::BaselineWasm64);
    assert!(matches!(
        baseline.instance_pre(&artifact, HostProfile::Libc),
        Err(Error::VariantMismatch { .. })
    ));

    std::thread::scope(|scope| {
        for t in 0..4i64 {
            let pre = Arc::clone(&pre);
            scope.spawn(move || {
                let mut pool = Pool::new(pre);
                pool.set_fuel_budget(Some(100_000));
                for round in 0..3i64 {
                    let inst = pool.checkout().unwrap();
                    let req = t * 10 + round;
                    assert_eq!(
                        pool.invoke(&inst, "handle", &[Value::I64(req)]).unwrap(),
                        vec![Value::I64(req * 2 + 1)]
                    );
                    pool.release(inst);
                }
                // Three sequential checkouts recycled one slot.
                assert_eq!(pool.capacity(), 1, "worker {t}");
                assert_eq!(pool.metrics().instantiations, 1, "worker {t}");
                assert_eq!(pool.metrics().resets, 2, "worker {t}");
            });
        }
    });
}

#[test]
fn artifact_exports_need_no_instantiation() {
    // HOST_APP declares unbound env.* imports; a static export listing
    // must not require resolving them.
    let engine = Engine::new(Variant::BaselineWasm64);
    let artifact = engine.compile(HOST_APP).unwrap();
    let exports = artifact.exports();
    let feed = exports.iter().find(|(n, _)| n == "feed").unwrap();
    assert_eq!(feed.1, "(i64) -> (i64)");
    let amplify = exports.iter().find(|(n, _)| n == "amplify").unwrap();
    assert_eq!(amplify.1, "(f64) -> (f64)");
}

#[test]
fn the_one_instance_and_shared_store_paths_stamp_the_same_instance() {
    let program = r#"
        long work(long n) {
            long* buf = (long*)malloc(n * 8);
            long acc = 0;
            for (long i = 0; i < n; i++) buf[i] = i * 3;
            for (long i = 0; i < n; i++) acc += buf[i];
            free((char*)buf);
            print_i64(acc);
            return acc;
        }
    "#;
    for variant in Variant::ALL {
        let engine = Engine::new(variant);
        let artifact = engine.compile(program).unwrap();
        let mut one = engine.instantiate(&artifact).unwrap();
        let mut store = Store::new(engine.exec_config());
        let h = artifact
            .instantiate_into(&mut store, &Linker::with_libc())
            .unwrap();
        let out = one.invoke("work", &[Value::I64(50)]).unwrap();
        assert_eq!(out, [Value::I64(3675)], "{variant}");
        assert_eq!(out, store.invoke(h, "work", &[Value::I64(50)]).unwrap());
        assert_eq!(one.charge_counts(), store.charge_counts(h), "{variant}");
        let libc = store.host_state::<cage::libc::Libc>(h).unwrap();
        assert_eq!(one.stdout(), "3675\n", "{variant}");
        assert_eq!(one.stdout(), libc.stdout(), "{variant}");
        let report = cage::MemoryReport::collect(store.memory(h), libc.stats());
        assert_eq!(one.memory_report(), report, "{variant}");
    }
}
