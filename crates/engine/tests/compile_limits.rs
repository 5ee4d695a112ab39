//! Compile-limit and hostile-parameter regressions: a module with
//! pathological sizes must come back as a structured error from the
//! entry points ([`Precompiled::with_limits`], [`Store::instantiate`])
//! — never a panic, abort, or runaway allocation.

use cage_engine::{ExecConfig, Imports, InstantiateError, Precompiled, Store};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{BlockType, CompileLimits, Instr, MemoryType, ValType};

/// A valid single-function module whose body nests `depth` blocks.
fn nested_module(depth: u32) -> cage_wasm::Module {
    let mut b = ModuleBuilder::new();
    let mut nest = vec![Instr::I64Const(42), Instr::Br(depth)];
    for _ in 0..depth {
        nest = vec![Instr::Block(BlockType::Empty, nest)];
    }
    nest.push(Instr::I64Const(7));
    let f = b.add_function(&[], &[ValType::I64], &[], nest);
    b.export_func("run", f);
    b.build()
}

/// Iteratively tears down a deeply nested module so the test does not
/// pay a recursive drop at the end.
fn drop_nested(mut module: cage_wasm::Module) {
    let mut work: Vec<Instr> = module.funcs.drain(..).flat_map(|f| f.body).collect();
    while let Some(i) = work.pop() {
        match i {
            Instr::Block(_, seq) | Instr::Loop(_, seq) => work.extend(seq),
            Instr::If(_, t, e) => {
                work.extend(t);
                work.extend(e);
            }
            _ => {}
        }
    }
}

#[test]
fn deep_nesting_is_rejected_by_default_limits_without_recursion() {
    // 10k nested blocks: far beyond the default 100-level bound. The
    // pre-scan must reject it on this ordinary-sized test stack — the
    // rejection path is iterative, so no giant compile stack is needed.
    let module = nested_module(10_000);
    let err = Precompiled::new(&module).expect_err("rejected");
    match err {
        InstantiateError::CompileLimit(l) => {
            assert!(
                l.what.contains("nesting depth"),
                "expected a depth limit, got {l}"
            );
        }
        other => panic!("expected CompileLimit, got {other}"),
    }
    drop_nested(module);
}

#[test]
fn nesting_within_limits_still_compiles_and_runs() {
    let module = nested_module(80);
    let pre = Precompiled::new(&module).expect("80 levels is within the default bound");
    let mut store = Store::new(ExecConfig::default());
    let h = store
        .instantiate_precompiled(&pre, &Imports::new())
        .expect("instantiates");
    let out = store.invoke(h, "run", &[]).expect("runs");
    assert_eq!(out, vec![cage_engine::Value::I64(42)]);
}

#[test]
fn body_op_budget_is_enforced() {
    let mut b = ModuleBuilder::new();
    let mut body = Vec::new();
    for _ in 0..5_000 {
        body.push(Instr::I64Const(1));
        body.push(Instr::Drop);
    }
    body.push(Instr::I64Const(0));
    let f = b.add_function(&[], &[ValType::I64], &[], body);
    b.export_func("run", f);
    let module = b.build();

    let limits = CompileLimits {
        max_body_ops: 1_000,
        ..CompileLimits::generous()
    };
    let err = Precompiled::with_limits(&module, &limits).expect_err("rejected");
    match err {
        InstantiateError::CompileLimit(l) => assert_eq!(l.what, "body ops"),
        other => panic!("expected CompileLimit, got {other}"),
    }
    // The same module is fine under the default generous bounds.
    Precompiled::new(&module).expect("10k ops is nothing");
}

#[test]
fn compile_fuel_budget_is_enforced_across_functions() {
    let mut b = ModuleBuilder::new();
    for i in 0..10 {
        let body = vec![Instr::I64Const(i), Instr::Drop, Instr::I64Const(0)];
        let f = b.add_function(&[], &[ValType::I64], &[], body);
        if i == 0 {
            b.export_func("run", f);
        }
    }
    let module = b.build();
    let limits = CompileLimits {
        max_compile_fuel: 20,
        ..CompileLimits::generous()
    };
    let err = Precompiled::with_limits(&module, &limits).expect_err("rejected");
    match err {
        InstantiateError::CompileLimit(l) => assert_eq!(l.what, "compile fuel"),
        other => panic!("expected CompileLimit, got {other}"),
    }
}

#[test]
fn ssa_value_budget_is_enforced() {
    // Distinct constants and a running sum: the SSA builder interns
    // repeated constants, so every value here must be unique to actually
    // grow the value table.
    let mut b = ModuleBuilder::new();
    let mut body = vec![Instr::I64Const(0)];
    for i in 1..200 {
        body.push(Instr::I64Const(i));
        body.push(Instr::I64Add);
    }
    let f = b.add_function(&[], &[ValType::I64], &[], body);
    b.export_func("run", f);
    let module = b.build();
    let limits = CompileLimits {
        max_ssa_values: 50,
        ..CompileLimits::generous()
    };
    let err = Precompiled::with_limits(&module, &limits).expect_err("rejected");
    match err {
        InstantiateError::CompileLimit(l) => assert_eq!(l.what, "ssa values"),
        other => panic!("expected CompileLimit, got {other}"),
    }
}

#[test]
fn huge_memory64_minimum_is_an_error_not_an_abort() {
    // 2^52 pages * 64KiB/page overflows the u64 byte size outright.
    let mut b = ModuleBuilder::new();
    b.add_memory(MemoryType {
        limits: cage_wasm::Limits {
            min: 1 << 52,
            max: None,
        },
        memory64: true,
    });
    let f = b.add_function(&[], &[ValType::I64], &[], vec![Instr::I64Const(0)]);
    b.export_func("run", f);
    let module = b.build();
    let mut store = Store::new(ExecConfig::default());
    match store.instantiate(&module, &Imports::new()) {
        Err(InstantiateError::LimitExceeded(msg)) => {
            assert!(msg.contains("unallocatable"), "{msg}");
        }
        Err(other) => panic!("expected LimitExceeded, got {other}"),
        Ok(_) => panic!("a 2^52-page memory must not instantiate"),
    }
}

#[test]
fn large_but_representable_memory_fails_cleanly() {
    // 2^40 pages = 64 PiB: representable byte size, impossible
    // allocation. `try_reserve` must surface it as an error.
    let mut b = ModuleBuilder::new();
    b.add_memory(MemoryType {
        limits: cage_wasm::Limits {
            min: 1 << 40,
            max: None,
        },
        memory64: true,
    });
    let f = b.add_function(&[], &[ValType::I64], &[], vec![Instr::I64Const(0)]);
    b.export_func("run", f);
    let module = b.build();
    let mut store = Store::new(ExecConfig::default());
    assert!(matches!(
        store.instantiate(&module, &Imports::new()),
        Err(InstantiateError::LimitExceeded(_))
    ));
}

#[test]
fn huge_table_minimum_is_an_error_not_an_abort() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[], &[ValType::I64], &[], vec![Instr::I64Const(0)]);
    b.export_func("run", f);
    b.add_table(u64::MAX / 2);
    let module = b.build();
    let mut store = Store::new(ExecConfig::default());
    assert!(matches!(
        store.instantiate(&module, &Imports::new()),
        Err(InstantiateError::LimitExceeded(_))
    ));
}

#[test]
fn element_segment_offset_near_usize_max_does_not_wrap() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[], &[ValType::I64], &[], vec![Instr::I64Const(0)]);
    b.export_func("run", f);
    b.add_table(4);
    b.add_elem(u64::MAX - 1, vec![f]);
    let module = b.build();
    let mut store = Store::new(ExecConfig::default());
    assert!(matches!(
        store.instantiate(&module, &Imports::new()),
        Err(InstantiateError::SegmentOutOfRange)
    ));
}
