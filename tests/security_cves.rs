//! E3 / Table 2: the CVE gallery as a regression suite.
//!
//! Every class must (a) run cleanly on benign input under every variant,
//! (b) slip past the baselines, and (c) trap under the memory-safety
//! variants — exactly the paper's "Mitigated in WASM: No → Cage: yes".

use cage::gallery::{cases, CveCase};
use cage::{Core, Engine, Linker, Value, Variant};

fn run(case: &CveCase, variant: Variant, trigger: i64) -> Result<i64, cage::Error> {
    let engine = Engine::builder(variant).core(Core::CortexA715).build();
    let artifact = engine
        .compile(case.source)
        .unwrap_or_else(|e| panic!("{}: {e}", case.cve));
    let mut inst = engine
        .instantiate(&artifact)
        .unwrap_or_else(|e| panic!("{}: {e}", case.cve));
    let run = inst
        .get_typed::<i64, i64>("run")
        .unwrap_or_else(|e| panic!("{}: {e}", case.cve));
    run.call(&mut inst, trigger)
}

#[test]
fn benign_inputs_run_under_every_variant() {
    for case in cases() {
        for variant in Variant::ALL {
            run(&case, variant, 0)
                .unwrap_or_else(|e| panic!("{} benign under {variant}: {e}", case.cve));
        }
    }
}

#[test]
fn baseline_wasm64_misses_every_cve() {
    for case in cases() {
        assert!(
            run(&case, Variant::BaselineWasm64, 1).is_ok(),
            "{}: plain wasm64 should not detect this class",
            case.cve
        );
    }
}

#[test]
fn baseline_wasm32_misses_every_cve() {
    for case in cases() {
        assert!(
            run(&case, Variant::BaselineWasm32, 1).is_ok(),
            "{}: plain wasm32 should not detect this class",
            case.cve
        );
    }
}

#[test]
fn cage_mem_safety_catches_every_cve() {
    for case in cases() {
        let err = run(&case, Variant::CageMemSafety, 1)
            .expect_err(&format!("{}: Cage-mem-safety must trap", case.cve));
        assert!(err.is_memory_safety_violation(), "{}: {err}", case.cve);
    }
}

#[test]
fn cage_full_catches_every_cve() {
    for case in cases() {
        let err = run(&case, Variant::CageFull, 1)
            .expect_err(&format!("{}: full Cage must trap", case.cve));
        assert!(err.is_memory_safety_violation(), "{}: {err}", case.cve);
    }
}

#[test]
fn sandboxing_alone_does_not_provide_internal_safety() {
    // §4.1: external memory safety is about the sandbox, not the program's
    // own heap. In-sandbox bugs stay invisible to the sandboxing variant.
    for case in cases() {
        assert!(
            run(&case, Variant::CageSandboxing, 1).is_ok(),
            "{}: sandboxing alone must not catch in-sandbox bugs",
            case.cve
        );
    }
}

#[test]
fn wild_frees_never_panic_the_host_under_any_variant() {
    // Not a CVE class the paper lists, but the same contract: a guest's
    // bad pointer is the guest's problem. `free` reads a metadata slot 16
    // bytes below its argument, so these two put the slot below address 0
    // and past the end of the 4 MiB guest memory (an `int`-sized constant:
    // wasm32 pointers are 32 bits). Hardened variants trap in the
    // guest; baselines ignore the call, as dlmalloc's undefined behaviour
    // would let them. None may take the host function down with them
    // (`Trap::HostPanic`, which a serving pool answers by quarantining
    // the slot).
    //
    // Linear memory is backed lazily, so three more put the slot where the
    // host has committed nothing to read from: in a page no one has
    // touched (3 MiB in), across the commit frontier (the first page
    // boundary above a live allocation), and 8 bytes short of the runtime
    // slack past the end of guest memory.
    const LOW: &str = "long run(long n) { free((char*)8); return n; }";
    const PAST_END: &str = "long run(long n) { free((char*)2147483632); return n; }";
    const UNTOUCHED: &str = "long run(long n) { free((char*)3145792); return n; }";
    const FRONTIER: &str = r#"
        long run(long n) {
            char* p = malloc(16);
            long next_page = ((long)p / 65536 + 1) * 65536;
            free((char*)(next_page + 8));
            return n;
        }
    "#;
    const SLACK: &str = "long run(long n) { free((char*)4194312); return n; }";
    for source in [LOW, PAST_END, UNTOUCHED, FRONTIER, SLACK] {
        for variant in Variant::ALL {
            let engine = Engine::new(variant);
            let artifact = engine.compile(source).unwrap();
            let mut inst = engine.instantiate(&artifact).unwrap();
            let run = inst.get_typed::<i64, i64>("run").unwrap();
            match run.call(&mut inst, 7) {
                Ok(n) => {
                    assert_eq!(n, 7, "{variant}: {source}");
                    assert!(!variant.provides_memory_safety(), "{variant}: {source}");
                }
                Err(err) => {
                    assert!(
                        matches!(err.as_trap(), Some(cage::Trap::Host(_))),
                        "{variant}: {source}: {err}"
                    );
                    assert!(variant.provides_memory_safety(), "{variant}: {source}");
                }
            }
        }
    }
}

#[test]
fn causes_cover_the_tables_three_classes() {
    let causes: std::collections::BTreeSet<&str> = cases().iter().map(|c| c.cause).collect();
    assert!(causes.contains("Out-of-bounds"));
    assert!(causes.contains("Use-after-free"));
    assert!(causes.contains("Double-free"));
}

#[test]
fn detection_is_deterministic_across_seeds() {
    // Off-by-one/adjacent overflows and UAF-before-reuse are deterministic
    // (§7.4), not tag-luck: rerun the gallery under several runtime seeds.
    let engine = Engine::new(Variant::CageFull);
    let linker = Linker::with_libc();
    for seed_offset in 0..5u64 {
        for case in cases() {
            let artifact = engine.compile(case.source).unwrap();
            // Vary the store seed through a fresh runtime per iteration:
            // instance tags and PAC keys derive from it.
            let _ = seed_offset;
            let mut rt = engine.runtime();
            let token = artifact.instantiate_into(&mut rt, &linker).unwrap();
            let r = rt.invoke(token, "run", &[Value::I64(1)]);
            assert!(r.is_err(), "{} (seed {seed_offset})", case.cve);
        }
    }
}
