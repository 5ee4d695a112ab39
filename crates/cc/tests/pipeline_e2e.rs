//! The full toolchain on real C sources: compile → optimise → harden →
//! lower → validate → execute.

use cage_cc::compile;
use cage_engine::{ExecConfig, Imports, Store, Trap, Value, Variant};
use cage_ir::passes::{run_pipeline, HardenConfig};
use cage_ir::{lower, LowerOptions};

fn build_and_run(
    source: &str,
    harden: HardenConfig,
    config: ExecConfig,
    entry: &str,
    args: &[Value],
) -> Result<Vec<Value>, Trap> {
    let mut ir = compile(source).expect("compiles");
    run_pipeline(&mut ir, harden);
    let lowered = lower(&ir, &LowerOptions::default()).expect("lowers");
    cage_wasm::validate(&lowered.module).expect("validates");
    let mut store = Store::new(config);
    let h = store.instantiate(&lowered.module, &Imports::new()).unwrap();
    store.invoke(h, entry, args)
}

#[test]
fn iterative_factorial() {
    let src = r#"
        long fact(long n) {
            long acc = 1;
            while (n > 1) {
                acc = acc * n;
                n = n - 1;
            }
            return acc;
        }
    "#;
    let out = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "fact",
        &[Value::I64(12)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(479_001_600)]);
}

#[test]
fn recursive_fib_with_ifs() {
    let src = r#"
        long fib(long n) {
            if (n < 2) return n;
            return fib(n - 1) + fib(n - 2);
        }
    "#;
    let out = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "fib",
        &[Value::I64(15)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(610)]);
}

#[test]
fn for_loops_arrays_and_doubles() {
    let src = r#"
        double dot(long n) {
            double a[32];
            double b[32];
            for (long i = 0; i < n; i++) {
                a[i] = (double)i;
                b[i] = 2.0;
            }
            double sum = 0.0;
            for (long i = 0; i < n; i++) {
                sum += a[i] * b[i];
            }
            return sum;
        }
    "#;
    let out = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "dot",
        &[Value::I64(10)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::F64(90.0)]);
}

#[test]
fn hardened_stack_overflow_is_caught() {
    // The paper's core claim: an unmodified buggy C program, compiled with
    // the Cage toolchain, traps instead of silently corrupting memory.
    let src = r#"
        long poke(long idx) {
            long buf[2];
            buf[idx] = 65;
            return buf[0];
        }
    "#;
    // Baseline: out-of-bounds write inside the frame goes unnoticed.
    let baseline = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "poke",
        &[Value::I64(5)],
    );
    assert!(baseline.is_ok(), "baseline misses the overflow");
    // Cage: caught by MTE.
    let config = ExecConfig {
        variant: Variant::CageMemSafety,
        ..ExecConfig::default()
    };
    let err = build_and_run(
        src,
        HardenConfig {
            stack_safety: true,
            ptr_auth: false,
        },
        config,
        "poke",
        &[Value::I64(5)],
    )
    .unwrap_err();
    assert!(err.is_memory_safety_violation(), "{err}");
}

#[test]
fn listing1_vtable_overflow() {
    // Listing 1 from the paper: strcpy-style overflow into an adjacent
    // vtable redirects an indirect call. Modelled with a manual copy loop
    // (identical memory behaviour to strcpy).
    let src = r#"
        long hits_f;
        long hits_g;
        void foo() { hits_f = hits_f + 1; }
        void bar() { hits_g = hits_g + 1; }

        struct VTable {
            void (*f)();
            void (*g)();
        };

        long vulnerable(long overflow, long payload) {
            struct VTable vtable = {.f = foo, .g = bar};
            long buf[2];
            long i = 0;
            while (i < 2 + overflow) {
                buf[i] = payload;
                i = i + 1;
            }
            vtable.f();
            return hits_f * 1000 + hits_g;
        }
    "#;
    // Hardened + MTE: the overflow into the vtable slot traps before the
    // indirect call can be redirected.
    let config = ExecConfig {
        variant: Variant::CageFull,
        ..ExecConfig::default()
    };
    let err = build_and_run(
        src,
        HardenConfig::full(),
        config,
        "vulnerable",
        &[Value::I64(2), Value::I64(0)],
    )
    .unwrap_err();
    assert!(err.is_memory_safety_violation(), "{err}");
    // Well-behaved input works under full hardening.
    let ok = build_and_run(
        src,
        HardenConfig::full(),
        config,
        "vulnerable",
        &[Value::I64(0), Value::I64(7)],
    )
    .unwrap();
    assert_eq!(ok, vec![Value::I64(1000)], "foo called exactly once");
}

#[test]
fn function_pointer_dispatch() {
    let src = r#"
        long double_it(long x) { return x * 2; }
        long square_it(long x) { return x * x; }

        long apply(long which, long x) {
            long (*fp)(long);
            if (which) {
                fp = double_it;
            } else {
                fp = square_it;
            }
            return fp(x);
        }
    "#;
    for variant in [Variant::BaselineWasm64, Variant::CageFull] {
        let harden = variant.harden_config();
        let config = ExecConfig {
            variant,
            ..ExecConfig::default()
        };
        let out = build_and_run(
            src,
            harden,
            config,
            "apply",
            &[Value::I64(1), Value::I64(21)],
        )
        .unwrap();
        assert_eq!(out, vec![Value::I64(42)]);
        let out = build_and_run(
            src,
            harden,
            config,
            "apply",
            &[Value::I64(0), Value::I64(6)],
        )
        .unwrap();
        assert_eq!(out, vec![Value::I64(36)]);
    }
}

#[test]
fn globals_strings_and_pointer_walk() {
    let src = r#"
        long counter = 10;

        long strlen_local(char* s) {
            long n = 0;
            while (*s) {
                n = n + 1;
                s = s + 1;
            }
            return n;
        }

        long run() {
            char* msg = "hello cage";
            counter = counter + strlen_local(msg);
            return counter;
        }
    "#;
    let out = build_and_run(src, HardenConfig::none(), ExecConfig::default(), "run", &[]).unwrap();
    assert_eq!(out, vec![Value::I64(20)]);
}

#[test]
fn structs_members_and_arrow() {
    let src = r#"
        struct Point { long x; long y; };

        long manhattan(long ax, long ay, long bx, long by) {
            struct Point a;
            struct Point b;
            a.x = ax; a.y = ay;
            b.x = bx; b.y = by;
            struct Point* pa = &a;
            long dx = pa->x - b.x;
            long dy = pa->y - b.y;
            if (dx < 0) dx = -dx;
            if (dy < 0) dy = -dy;
            return dx + dy;
        }
    "#;
    let out = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "manhattan",
        &[Value::I64(1), Value::I64(2), Value::I64(4), Value::I64(6)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(7)]);
}

#[test]
fn break_continue_and_logical_ops() {
    let src = r#"
        long count(long n) {
            long c = 0;
            for (long i = 0; i < 1000; i++) {
                if (i >= n) break;
                if (i % 3 == 0 || i % 5 == 0) continue;
                if (i % 2 == 1 && i > 2) c += 2;
                else c += 1;
            }
            return c;
        }
    "#;
    // i in 0..10, skipping multiples of 3 or 5 (0,3,5,6,9):
    // remaining 1,2,4,7,8 -> odd&&>2: 7 (+2); 1 is odd but not >2 (+1);
    // evens 2,4,8 (+1 each). total = 2 + 1 + 3 = 6.
    let out = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "count",
        &[Value::I64(10)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(6)]);
}

#[test]
fn custom_allocator_with_builtins() {
    // §4.1: "For applications using their own allocator, we expose Cage's
    // memory safety primitives to C."
    let src = r#"
        char arena[256];
        long next;

        char* my_alloc(long size) {
            long aligned = (size + 15) / 16 * 16;
            char* p = &arena[0] + next;
            next = next + aligned;
            return __builtin_segment_new(p, aligned);
        }

        long use_after_free_demo(long do_uaf) {
            char* p = my_alloc(32);
            p[0] = 42;
            long v = p[0];
            __builtin_segment_free(p, 32);
            if (do_uaf) {
                v = p[0];
            }
            return v;
        }
    "#;
    let config = ExecConfig {
        variant: Variant::CageMemSafety,
        ..ExecConfig::default()
    };
    // Normal path works.
    let out = build_and_run(
        src,
        HardenConfig::none(),
        config,
        "use_after_free_demo",
        &[Value::I64(0)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(42)]);
    // UAF through the custom allocator is caught.
    let err = build_and_run(
        src,
        HardenConfig::none(),
        config,
        "use_after_free_demo",
        &[Value::I64(1)],
    )
    .unwrap_err();
    assert!(err.is_memory_safety_violation(), "{err}");
}

#[test]
fn char_arithmetic_and_casts() {
    let src = r#"
        long sum_digits(long n) {
            char buf[32];
            long len = 0;
            while (n > 0) {
                buf[len] = (char)(n % 10) + '0';
                n = n / 10;
                len++;
            }
            long s = 0;
            for (long i = 0; i < len; i++) {
                s += buf[i] - '0';
            }
            return s;
        }
    "#;
    let out = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "sum_digits",
        &[Value::I64(12_345)],
    )
    .unwrap();
    assert_eq!(out, vec![Value::I64(15)]);
}

#[test]
fn hardened_results_match_baseline_results() {
    // Correct programs compute identical results under every configuration
    // (the "unmodified applications" property).
    let src = r#"
        long kernel(long n) {
            double acc[8];
            for (long i = 0; i < 8; i++) acc[i] = 0.0;
            for (long i = 0; i < n; i++) {
                acc[i % 8] += (double)(i * i % 17);
            }
            double total = 0.0;
            for (long i = 0; i < 8; i++) total += acc[i];
            return (long)total;
        }
    "#;
    let baseline = build_and_run(
        src,
        HardenConfig::none(),
        ExecConfig::default(),
        "kernel",
        &[Value::I64(100)],
    )
    .unwrap();
    let hardened = build_and_run(
        src,
        HardenConfig::full(),
        ExecConfig {
            variant: Variant::CageFull,
            ..ExecConfig::default()
        },
        "kernel",
        &[Value::I64(100)],
    )
    .unwrap();
    assert_eq!(baseline, hardened);
}

/// The compile fuel `codegen` charges for a parsed `source`.
fn codegen_fuel(source: &str) -> u64 {
    let limits = cage_wasm::CompileLimits::default();
    let fuel = limits.fuel();
    let ast = cage_cc::parse_with(source, &limits, &fuel).expect("parses");
    let parsed = fuel.consumed();
    cage_cc::codegen::compile_ast_with(&ast, &limits, &fuel).expect("compiles");
    fuel.consumed() - parsed
}

const CODEGEN_FUEL: u64 = 71;

/// Name resolution and loop lowering in the front end, one row per rule.
/// Each `f()` runs under a fuel budget, so a loop that never ends fails
/// its row with `FuelExhausted` instead of hanging the suite.
#[test]
fn front_end_scopes_and_loops() {
    // (rule, source, expected `f()`); `Err` rows must not compile.
    let rows: &[(&str, &str, Result<i64, &str>)] = &[
        (
            "a body that redeclares the loop variable",
            "long f() {
                long s = 0;
                for (long i = 0; i < 3; i++) { long i = 10; s += i; }
                return s;
            }",
            Ok(30),
        ),
        (
            "continue in a nested block after a shadowing declaration",
            "long f() {
                long s = 0;
                for (long i = 0; i < 4; i++) {
                    s += i;
                    { long i = 100; if (i > 0) { s += 1; continue; } }
                    s += 1000;
                }
                return s;
            }",
            Ok(10),
        ),
        (
            "continue in an inner while runs no outer step",
            "long f() {
                long s = 0;
                for (long i = 0; i < 3; i++) {
                    long j = 0;
                    while (j < 4) { j++; if (j % 2 == 0) continue; s += 1; }
                    s += 10;
                }
                return s;
            }",
            Ok(36),
        ),
        (
            "a for with no step and a for with no condition",
            "long f() {
                long s = 0;
                for (long i = 0; i < 5;) { i += 1; if (i == 2) continue; s += i; }
                for (long k = 0; ; k++) { if (k == 3) break; s += 100; }
                return s;
            }",
            Ok(313),
        ),
        (
            "a local shadows a function, a global and a libc name",
            "long g = 5;
            long h(long x) { return x + 1; }
            long f() {
                long r = h(g);
                { long g = 7; long h = 8; long malloc = 9; r += g + h + malloc; }
                return r + g + h(0);
            }",
            Ok(36),
        ),
        (
            "a prototype before its definition",
            "long twice(long x);
            long f() { return twice(21); }
            long twice(long x) { return 2 * x; }",
            Ok(42),
        ),
        (
            "a function and a global with the same name",
            "long dup = 1;
            long dup() { return 2; }
            long f() { return dup(); }",
            Err("redefinition of `dup`"),
        ),
    ];
    // A `for` costs the compile fuel its old rewrite into a `while` did,
    // to the unit (`cage-bench` pins the sum as `cc.codegen_fuel`).
    let fuel: u64 = rows
        .iter()
        .filter(|(_, _, want)| want.is_ok())
        .map(|(_, source, _)| codegen_fuel(source))
        .sum();
    let mut failures = Vec::new();
    if fuel != CODEGEN_FUEL {
        failures.push(format!("codegen fuel {fuel}, want {CODEGEN_FUEL}"));
    }
    for (rule, source, want) in rows {
        let got = compile(source).map_err(|e| e.to_string()).map(|mut ir| {
            run_pipeline(&mut ir, HardenConfig::none());
            let lowered = lower(&ir, &LowerOptions::default()).expect("lowers");
            let mut store = Store::new(ExecConfig::default());
            let h = store
                .instantiate(&lowered.module, &Imports::new())
                .expect("instantiates");
            store.set_fuel(h, Some(1_000_000));
            store.invoke(h, "f", &[])
        });
        let ok = match (&got, want) {
            (Ok(Ok(out)), Ok(v)) => *out == vec![Value::I64(*v)],
            (Err(message), Err(needle)) => message.contains(needle),
            _ => false,
        };
        if !ok {
            failures.push(format!("{rule}: want {want:?}, got {got:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
