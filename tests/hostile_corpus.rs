//! Hostile-input corpus: hand-built pathological programs and modules
//! that historically crash compilers — deep nesting, huge arity,
//! branch-table fan-out, truncated and garbage inputs.
//!
//! Every case must come back as a structured `Err` (never a panic, an
//! abort, or a hang) through BOTH untrusted acceptance surfaces:
//!
//! * [`cage::Engine::compile`] — the C ingest path, and
//! * [`cage::InstancePre::new`] — the serving template-build path.
//!
//! The catch-unwind backstops at those boundaries count every caught
//! panic; the suite asserts the counters never move, so each rejection
//! here is a *designed* limit or validation error, not a rescued crash.

use cage::serve::{HostProfile, InstancePre, ServeError};
use cage::wasm::builder::ModuleBuilder;
use cage::wasm::{BlockType, Instr, Module, ValType};
use cage::{Core, Engine, Error, Variant};

/// Compiles hostile C through the engine and asserts a structured
/// rejection (with zero caught panics).
fn assert_compile_rejects(source: &str) -> Error {
    let panics_before = cage::compile_panic_count();
    let err = Engine::new(Variant::CageFull)
        .compile(source)
        .expect_err("hostile source must be rejected");
    assert!(
        !matches!(err, Error::CompilePanic { .. }),
        "rejection must be designed, not a rescued panic: {err}"
    );
    assert_eq!(cage::compile_panic_count(), panics_before);
    err
}

/// Pushes a hostile module through the serving template and asserts a
/// structured rejection (with zero caught panics).
fn assert_template_rejects(module: &Module) -> ServeError {
    let panics_before = cage::serve::compile_panic_count();
    let Err(err) = InstancePre::new(
        Variant::BaselineWasm64,
        Core::CortexX3,
        module,
        0,
        HostProfile::Empty,
    ) else {
        panic!("hostile module must be rejected");
    };
    assert!(
        !matches!(err, ServeError::CompilePanic(_)),
        "rejection must be designed, not a rescued panic: {err}"
    );
    assert_eq!(cage::serve::compile_panic_count(), panics_before);
    err
}

// ---------------------------------------------------------------- C source

#[test]
fn deeply_nested_parens_hit_the_depth_limit() {
    let source = format!(
        "long f() {{ return {}1{}; }}",
        "(".repeat(4000),
        ")".repeat(4000)
    );
    let err = assert_compile_rejects(&source);
    assert!(err.limit().is_some(), "want a limit error, got: {err}");
}

#[test]
fn deeply_nested_blocks_hit_the_depth_limit() {
    let source = format!(
        "long f() {{ {} return 1; {} }}",
        "if (1) {".repeat(2000),
        "}".repeat(2000)
    );
    let err = assert_compile_rejects(&source);
    assert!(err.limit().is_some(), "want a limit error, got: {err}");
}

#[test]
fn unbalanced_nesting_is_rejected_not_overflowed() {
    // Open without close: the parser must bail (on depth or on EOF)
    // instead of recursing to a stack overflow.
    let source = format!("long f() {{ return {}1;", "(".repeat(50_000));
    assert_compile_rejects(&source);
}

#[test]
fn ten_thousand_locals_hit_the_locals_limit() {
    let mut source = String::from("long f() {\n");
    for i in 0..10_000 {
        source.push_str(&format!("  long v{i} = {i};\n"));
    }
    source.push_str("  return v0;\n}\n");
    let err = assert_compile_rejects(&source);
    assert!(err.limit().is_some(), "want a limit error, got: {err}");
}

/// Accepted or refused on a limit — and, either way, back without a
/// caught panic (and, the point of the two shapes below, within the
/// test's lifetime: both used to hold `Engine::compile` for minutes).
fn assert_compiles_or_hits_a_limit(source: &str) {
    let panics_before = cage::compile_panic_count();
    if let Err(err) = Engine::new(Variant::CageFull).compile(source) {
        assert!(err.limit().is_some(), "want a limit error, got: {err}");
    }
    assert_eq!(cage::compile_panic_count(), panics_before);
}

#[test]
fn half_a_megabyte_of_dead_chain_is_swept_not_rescanned() {
    // Every definition is read only by the next one, the last by nobody:
    // dead-code elimination that rescans after each removal pass takes
    // one scan per link (11 s for 8 000 lines; this is 20 000).
    let mut source = String::from("long f(long x) {\nlong d0 = x;\n");
    for i in 1..20_000 {
        source.push_str(&format!("long d{i} = d{} + 1;\n", i - 1));
    }
    source.push_str("return x;\n}\n");
    assert!(source.len() > 480_000 && source.len() < 1 << 20);
    assert_compiles_or_hits_a_limit(&source);
}

#[test]
fn half_a_megabyte_of_arrays_behind_pointers_is_analysed_in_bounded_memory() {
    // One pointer that may hold any of 6 000 arrays, 6 000 pointers
    // derived from it: an alloca analysis with a set of arrays per
    // register needs registers x arrays memory (600 MB at 4 000).
    let n = 6_000;
    let mut source = String::from("long f(long x) {\nlong acc = 0;\n");
    for i in 0..n {
        source.push_str(&format!("long a{i}[2];\n"));
    }
    source.push_str("long *p = a0;\n");
    for i in 0..n {
        source.push_str(&format!("if (x == {i}) p = a{i};\n"));
    }
    for i in 0..n {
        source.push_str(&format!("long *q{i} = p + {};\n", i % 2));
    }
    for i in 0..n {
        source.push_str(&format!("acc = acc + q{i}[0];\n"));
    }
    source.push_str("return acc;\n}\n");
    assert!(source.len() > 480_000 && source.len() < 1 << 20);
    assert_compiles_or_hits_a_limit(&source);
}

#[test]
fn pathological_switch_fanout_is_bounded() {
    // 100k cases: accepted-or-limit is fine, panic/hang is not. The body
    // op budget catches it long before lowering builds the br_table.
    let mut source = String::from("long f(long x) {\n  switch (x) {\n");
    for i in 0..100_000 {
        source.push_str(&format!("  case {i}: return {i};\n"));
    }
    source.push_str("  }\n  return -1;\n}\n");
    let err = assert_compile_rejects(&source);
    assert!(err.limit().is_some(), "want a limit error, got: {err}");
}

#[test]
fn truncated_source_is_a_parse_error() {
    for source in [
        "long f(long",
        "long f() { return",
        "long f() { if (x",
        "struct s { long",
        "long a[",
    ] {
        let err = assert_compile_rejects(source);
        assert!(matches!(err, Error::Compile(_)), "{source}: {err}");
    }
}

#[test]
fn garbage_source_is_a_parse_error() {
    for source in [
        "\u{0}\u{1}\u{2}\u{3}",
        "((((((((((((((((",
        "}}}}}}}}",
        ";;;;;;;; @ # $ %",
        "long 1234() {}",
        "return return return",
    ] {
        assert_compile_rejects(source);
    }
}

#[test]
fn giant_source_hits_the_size_limit() {
    // 2 MiB of comments: rejected on raw size before the lexer walks it.
    let source = format!("// {}\nlong f() {{ return 1; }}", "x".repeat(2 << 20));
    let err = assert_compile_rejects(&source);
    assert!(err.limit().is_some(), "want a limit error, got: {err}");
}

// ------------------------------------------------------------------ modules

/// One exported function with the given body.
fn module_with_body(locals: &[ValType], body: Vec<Instr>) -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[ValType::I64], &[ValType::I64], locals, body);
    b.export_func("f", f);
    b.build()
}

#[test]
fn deeply_nested_blocks_in_module_hit_the_depth_limit() {
    let mut body = vec![Instr::LocalGet(0)];
    for _ in 0..4_000 {
        body = vec![Instr::Block(BlockType::Value(ValType::I64), body)];
    }
    let module = module_with_body(&[], body);
    let err = assert_template_rejects(&module);
    assert!(matches!(err, ServeError::Rejected(_)), "{err}");
}

#[test]
fn ten_thousand_locals_in_module_hit_the_locals_limit() {
    let locals = vec![ValType::I64; 10_000];
    let module = module_with_body(&locals, vec![Instr::LocalGet(0)]);
    let err = assert_template_rejects(&module);
    assert!(matches!(err, ServeError::Rejected(_)), "{err}");
}

#[test]
fn giant_br_table_fanout_is_bounded() {
    // A million-target br_table inside a valid block stack: the body op
    // budget must stop it without materialising per-target work.
    let body = vec![
        Instr::Block(
            BlockType::Empty,
            vec![
                Instr::LocalGet(0),
                Instr::I32WrapI64,
                Instr::BrTable(vec![0; 2_000_000], 0),
            ],
        ),
        Instr::LocalGet(0),
    ];
    let module = module_with_body(&[], body);
    let err = assert_template_rejects(&module);
    assert!(matches!(err, ServeError::Rejected(_)), "{err}");
}

#[test]
fn wild_branch_depths_and_indices_are_validation_errors() {
    for body in [
        vec![Instr::Br(u32::MAX)],
        vec![Instr::LocalGet(123_456)],
        vec![Instr::Call(u32::MAX)],
        vec![Instr::I64Const(1), Instr::BrIf(900)],
    ] {
        let module = module_with_body(&[], body);
        assert_template_rejects(&module);
    }
}

#[test]
fn truncated_and_garbage_binaries_never_panic_the_decoder() {
    let seed =
        cage::wasm::binary::encode(&module_with_body(&[ValType::I64], vec![Instr::LocalGet(0)]));
    // Every prefix of a valid binary.
    for len in 0..seed.len() {
        let _ = cage::wasm::binary::decode(&seed[..len]);
    }
    // Deterministic garbage tails after a valid magic.
    let mut garbage = seed.clone();
    for (i, b) in garbage.iter_mut().enumerate().skip(8) {
        *b = (i as u8).wrapping_mul(167).wrapping_add(13);
    }
    let _ = cage::wasm::binary::decode(&garbage);
    // Decode survivors must also be safe to template-build.
    if let Ok(module) = cage::wasm::binary::decode(&garbage) {
        let _ = InstancePre::new(
            Variant::BaselineWasm64,
            Core::CortexX3,
            &module,
            0,
            HostProfile::Empty,
        );
    }
}

#[test]
fn rejection_is_symmetric_across_both_surfaces() {
    // The engine path and the template path must agree that a hostile
    // module is hostile: compile the depth bomb's C twin through the
    // engine, and the module twin through the template, and require both
    // to reject with a limit.
    let source = format!(
        "long f() {{ return {}1{}; }}",
        "(".repeat(500),
        ")".repeat(500)
    );
    let engine_err = assert_compile_rejects(&source);
    assert!(engine_err.limit().is_some(), "{engine_err}");

    let mut body = vec![Instr::LocalGet(0)];
    for _ in 0..500 {
        body = vec![Instr::Block(BlockType::Value(ValType::I64), body)];
    }
    let template_err = assert_template_rejects(&module_with_body(&[], body));
    assert!(
        matches!(template_err, ServeError::Rejected(_)),
        "{template_err}"
    );
}
