//! Cross-crate integration: the whole pipeline (cc → ir → wasm → binary →
//! engine → runtime → libc) exercised through the public facade.

use cage::engine::{Precompiled, Store};
use cage::{Core, Engine, Linker, Value, Variant};

const APP: &str = r#"
    struct Stats {
        long count;
        double mean;
    };

    double update(struct Stats* s, double x) {
        s->count = s->count + 1;
        s->mean = s->mean + (x - s->mean) / (double)s->count;
        return s->mean;
    }

    double run_stats(long n) {
        struct Stats s;
        s.count = 0;
        s.mean = 0.0;
        for (long i = 1; i <= n; i++) {
            update(&s, (double)(i * i));
        }
        return s.mean;
    }

    long string_pipeline() {
        char* buf = malloc(64);
        strcpy(buf, "cage");
        long n = strlen(buf);
        print_str(buf);
        free(buf);
        return n;
    }
"#;

#[test]
fn artifact_survives_binary_roundtrip_and_runs() {
    for variant in Variant::ALL {
        let engine = Engine::new(variant);
        let artifact = engine.compile(APP).unwrap();
        // Serialise, re-parse, re-validate, re-run: what a deployment does.
        let bytes = artifact.wasm_bytes();
        let module = cage::wasm::binary::decode(&bytes).unwrap();
        cage::wasm::validate(&module).unwrap();
        let mut store = Store::new(engine.exec_config());
        let pre = Precompiled::new(&module).unwrap();
        let token = Linker::with_libc().instantiate(&mut store, &pre).unwrap();
        let out = store.invoke(token, "run_stats", &[Value::I64(50)]).unwrap();
        // mean of squares 1..=50 = (50+1)(2*50+1)/6 = 858.5
        assert_eq!(out, vec![Value::F64(858.5)], "{variant}");
    }
}

/// A data-pointer local declared without an initialiser: its implicit
/// zero must be pointer-width on every variant (wasm32 included).
const UNINIT_DATA_PTR: &str = r#"
long run(long a) { long *p; long b[2]; p = b; p[0] = a; return p[0]; }
"#;

/// The same for a function-pointer local, assigned on both arms of a
/// branch.
const UNINIT_FN_PTR: &str = r#"
long f0(long x) { return x + 1; }
long f1(long x) { return x * 2; }
long run(long a) {
    long (*fp)(long);
    if (a & 1) fp = f0; else fp = f1;
    return fp(a);
}
"#;

#[test]
fn results_identical_across_variants_and_cores() {
    for (source, export, arg, expected) in [
        (APP, "run_stats", 30, None),
        (UNINIT_DATA_PTR, "run", 7, Some(Value::I64(7))),
        (UNINIT_FN_PTR, "run", 7, Some(Value::I64(8))),
    ] {
        let mut golden: Option<Vec<Value>> = expected.map(|v| vec![v]);
        for variant in Variant::ALL {
            for core in Core::ALL {
                let engine = Engine::builder(variant).core(core).build();
                let artifact = engine
                    .compile(source)
                    .unwrap_or_else(|e| panic!("{variant}: {e}\n{source}"));
                let mut inst = engine.instantiate(&artifact).unwrap();
                let out = inst.invoke(export, &[Value::I64(arg)]).unwrap();
                match &golden {
                    None => golden = Some(out),
                    Some(g) => assert_eq!(&out, g, "{export} under {variant} on {core}"),
                }
            }
        }
    }
}

/// `long` is 64 bits under either pointer width, so a cast between it and
/// a pointer changes width on wasm32: truncating into the pointer,
/// zero-extending out of it. (Both used to emit the pointer cast on the
/// i64 directly, which the validator refused.)
const LONG_POINTER_CASTS: &str = r#"
    long round_trip(long n) {
        char* p = (char*)n;
        return (long)p;
    }
    long through_the_heap(long v) {
        long* p = (long*)malloc(16);
        long n = (long)p;
        long* q = (long*)n;
        q[1] = v;
        long got = p[1];
        free((char*)n);
        return got;
    }
"#;

#[test]
fn long_pointer_casts_compile_and_run_on_every_variant() {
    for variant in Variant::ALL {
        let engine = Engine::new(variant);
        let artifact = engine
            .compile(LONG_POINTER_CASTS)
            .unwrap_or_else(|e| panic!("{variant}: {e}"));
        let mut inst = engine.instantiate(&artifact).unwrap();
        let round_trip = inst.get_typed::<i64, i64>("round_trip").unwrap();
        let narrow = variant == Variant::BaselineWasm32;
        for (n, want32) in [
            (64, 64),
            // Above `INT_MAX`: zero-extended, not sign-extended.
            (0x8000_0040, 0x8000_0040),
            // Above 32 bits: a 4-byte pointer keeps the low half.
            (0x1_0000_0040, 0x40),
        ] {
            let want = if narrow { want32 } else { n };
            assert_eq!(round_trip.call(&mut inst, n).unwrap(), want, "{variant}");
        }
        let through_the_heap = inst.get_typed::<i64, i64>("through_the_heap").unwrap();
        assert_eq!(
            through_the_heap.call(&mut inst, 99).unwrap(),
            99,
            "{variant}"
        );
    }
}

#[test]
fn stdout_and_libc_work_through_the_facade() {
    let engine = Engine::builder(Variant::CageFull)
        .core(Core::CortexA510)
        .build();
    let mut inst = engine.instantiate(&engine.compile(APP).unwrap()).unwrap();
    let string_pipeline = inst.get_typed::<(), i64>("string_pipeline").unwrap();
    assert_eq!(string_pipeline.call(&mut inst, ()).unwrap(), 4);
    assert_eq!(inst.stdout(), "cage\n");
}

#[test]
fn simulated_time_orders_cores_correctly() {
    // Same work: the 2.91 GHz X3 must beat the 1.7 GHz in-order A510.
    let mut times = Vec::new();
    for core in Core::ALL {
        let engine = Engine::builder(Variant::BaselineWasm64).core(core).build();
        let mut inst = engine.instantiate(&engine.compile(APP).unwrap()).unwrap();
        inst.invoke("run_stats", &[Value::I64(100)]).unwrap();
        times.push((core, inst.simulated_ms()));
    }
    assert!(
        times[0].1 < times[2].1,
        "X3 {} vs A510 {}",
        times[0].1,
        times[2].1
    );
    assert!(times[1].1 < times[2].1, "A715 faster than A510");
}

#[test]
fn custom_memory_sizes_flow_through() {
    let engine = Engine::builder(Variant::CageFull)
        .memory_pages(256)
        .stack_size(128 * 1024)
        .build();
    let artifact = engine.compile(APP).unwrap();
    assert_eq!(artifact.memory_pages(), 256);
    let inst = engine.instantiate(&artifact).unwrap();
    assert_eq!(inst.memory_report().linear_bytes, 256 * 65_536);
}

#[test]
fn fifteen_sandboxes_then_exhaustion() {
    let engine = Engine::new(Variant::CageSandboxing);
    let artifact = engine.compile("long f() { return 1; }").unwrap();
    let linker = Linker::with_libc();
    let mut store = Store::new(engine.exec_config());
    for i in 0..15 {
        artifact
            .instantiate_into(&mut store, &linker)
            .unwrap_or_else(|e| panic!("sandbox {i}: {e}"));
    }
    assert!(
        artifact.instantiate_into(&mut store, &linker).is_err(),
        "16th sandbox must fail"
    );
}

#[test]
fn deterministic_cycle_accounting_end_to_end() {
    let run = || {
        let engine = Engine::builder(Variant::CageFull)
            .core(Core::CortexA715)
            .build();
        let mut inst = engine.instantiate(&engine.compile(APP).unwrap()).unwrap();
        inst.invoke("run_stats", &[Value::I64(40)]).unwrap();
        (inst.cycles(), inst.instr_count())
    };
    assert_eq!(run(), run());
}

#[test]
fn memory_overhead_bound_holds_per_paper() {
    // §7.3: < 5.3 % (0.6 % wasm64 delta + 3.125 % tag space).
    let instance = |variant: Variant| {
        let engine = Engine::new(variant);
        engine.instantiate(&engine.compile(APP).unwrap()).unwrap()
    };
    let base = instance(Variant::BaselineWasm64);
    let caged = instance(Variant::CageFull);
    let overhead = caged.memory_report().overhead_over(&base.memory_report());
    assert!(overhead < 0.053, "memory overhead {overhead}");
}

/// Six scalars whose names are address-taken in a sibling scope: the
/// shadowing six get stack slots too, and `mem2reg` promotes all of them
/// — in one function, so the order the promoted registers are handed out
/// in decides wasm local indices, LEB widths and the module's size.
const SIX_PROMOTABLE_SLOTS: &str = r#"
long g(long *p) { return *p; }
long gi(int *p) { return *p; }
long gd(double *p) { return (long)*p; }
long f(long x) {
    long r = 0;
    { long a = 5; int b = 6; double c = 1.0; long d = 2; int e = 3; double h = 4.0;
      r = r + g(&a) + gi(&b) + gd(&c) + g(&d) + gi(&e) + gd(&h); }
    { long a = x; int b = 1; double c = 2.5; long d = x * 2; int e = 7; double h = 0.5;
      for (long k = 0; k < x; k++) { a = a + b; c = c + h; d = d + e; b = b + 1; e = e + 2; h = h + 1.0; }
      r = r + a + b + (long)c + d + e + (long)h; }
    return r;
}
"#;

#[test]
fn compiling_twice_gives_the_same_module() {
    let engine = Engine::new(Variant::CageFull);
    let mut modules = std::collections::BTreeSet::new();
    for _ in 0..16 {
        modules.insert(engine.compile(SIX_PROMOTABLE_SLOTS).unwrap().wasm_bytes());
    }
    assert_eq!(modules.len(), 1, "Engine::compile is not deterministic");

    // A per-process hash seed is the same for every compile above; two
    // `cagec` processes each draw their own.
    let dir = std::env::temp_dir();
    let stem = format!("cage-compile-twice-{}", std::process::id());
    let source = dir.join(format!("{stem}.c"));
    std::fs::write(&source, SIX_PROMOTABLE_SLOTS).expect("write source");
    let texts: Vec<String> = (0..2)
        .map(|i| {
            let wat = dir.join(format!("{stem}-{i}.wat"));
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_cagec"))
                .arg(&source)
                .args(["--variant", "cage", "--emit-wat"])
                .arg(&wat)
                .output()
                .expect("cagec runs");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let text = std::fs::read_to_string(&wat).expect("read module text");
            let _ = std::fs::remove_file(&wat);
            text
        })
        .collect();
    let _ = std::fs::remove_file(&source);
    assert_eq!(
        texts[0], texts[1],
        "two cagec processes emitted different modules"
    );

    let artifact = engine.compile(SIX_PROMOTABLE_SLOTS).unwrap();
    let mut instance = engine.instantiate(&artifact).unwrap();
    let out = instance.invoke("f", &[Value::I64(5)]).unwrap();
    assert_eq!(out, vec![Value::I64(149)]);
}

/// Postfix `++`/`--` yield the variable's value from before the step,
/// whether it lives in a register or in memory, and a discarded one steps
/// it all the same. Each export returns its known answer.
const POSTFIX: &str = r#"
long post_inc_value() { long i = 0; long j = i++; return j; }
long post_inc_variable() { long i = 0; long j = i++; return i + j; }
long post_dec_runs() { long n = 3; long k = 0; while (n--) k = k + 1; return k; }
long post_dec_variable() { long n = 3; long k = 0; while (n--) k = k + 1; return n; }
long post_inc_in_memory() { long a[2]; a[0] = 5; long j = a[0]++; return j * 10 + a[0]; }
long post_inc_discarded() { long i = 7; i++; i--; i++; return i; }
"#;

#[test]
fn postfix_steps_yield_the_old_value_on_every_variant_and_level() {
    use cage::OptLevel;
    let answers = [
        ("post_inc_value", 0),
        ("post_inc_variable", 1),
        ("post_dec_runs", 3),
        ("post_dec_variable", -1),
        ("post_inc_in_memory", 56),
        ("post_inc_discarded", 8),
    ];
    for variant in Variant::ALL {
        for level in [OptLevel::None, OptLevel::Standard, OptLevel::Full] {
            let engine = Engine::builder(variant).opt_level(level).build();
            let artifact = engine
                .compile(POSTFIX)
                .unwrap_or_else(|e| panic!("{variant} {level:?}: {e}"));
            let mut inst = engine.instantiate(&artifact).unwrap();
            for (export, answer) in answers {
                let out = inst
                    .invoke(export, &[])
                    .unwrap_or_else(|e| panic!("{export} under {variant} at {level:?}: {e}"));
                assert_eq!(
                    out,
                    vec![Value::I64(answer)],
                    "{export} under {variant} at {level:?}"
                );
            }
        }
    }
}

/// Pointer differences, counted in elements of the pointee: a `long`
/// under every pointer width, so the wasm32 baseline (4-byte pointers)
/// compiles and runs them like the wasm64 variants.
const POINTER_DIFFERENCE: &str = r#"
long char_diff() { char s[4]; char *p = s + 3; return p - s; }
long long_diff() { long a[4]; long *p = a + 3; long *q = a + 1; return p - q; }
long long_diff_negative() { long a[4]; long *p = a + 3; long *q = a + 1; return q - p; }
"#;

#[test]
fn pointer_differences_are_longs_on_every_variant_and_level() {
    use cage::OptLevel;
    let answers = [
        ("char_diff", 3),
        ("long_diff", 2),
        ("long_diff_negative", -2),
    ];
    for variant in Variant::ALL {
        for level in [OptLevel::None, OptLevel::Standard, OptLevel::Full] {
            let engine = Engine::builder(variant).opt_level(level).build();
            let artifact = engine
                .compile(POINTER_DIFFERENCE)
                .unwrap_or_else(|e| panic!("{variant} {level:?}: {e}"));
            let mut inst = engine.instantiate(&artifact).unwrap();
            for (export, answer) in answers {
                let out = inst
                    .invoke(export, &[])
                    .unwrap_or_else(|e| panic!("{export} under {variant} at {level:?}: {e}"));
                assert_eq!(
                    out,
                    vec![Value::I64(answer)],
                    "{export} under {variant} at {level:?}"
                );
            }
        }
    }
}
