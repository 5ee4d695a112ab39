//! End-to-end execution semantics: whole modules through the interpreter.

use cage_engine::{
    BoundsCheckStrategy, ChargeClass, ChargeCounts, CostModel, ExecConfig, Imports,
    InstantiateError, InternalSafety, Precompiled, Store, Trap, Value,
};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::numeric::Numeric;
use cage_wasm::{BlockType, Instr, MemArg, Module, ValType};

fn run1(module: &Module, name: &str, args: &[Value]) -> Result<Vec<Value>, Trap> {
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(module, &Imports::new()).unwrap();
    store.invoke(h, name, args)
}

/// iterative factorial: tests loop + br_if + locals.
#[test]
fn factorial_loop() {
    let mut b = ModuleBuilder::new();
    // fn fact(n: i64) -> i64 { let mut acc = 1; while n > 1 { acc *= n; n -= 1 } acc }
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64], // acc
        vec![
            Instr::I64Const(1),
            Instr::LocalSet(1),
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Loop(
                    BlockType::Empty,
                    vec![
                        // if n <= 1 break
                        Instr::LocalGet(0),
                        Instr::I64Const(1),
                        Instr::I64LeS,
                        Instr::BrIf(1),
                        // acc *= n
                        Instr::LocalGet(1),
                        Instr::LocalGet(0),
                        Instr::I64Mul,
                        Instr::LocalSet(1),
                        // n -= 1
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
    b.export_func("fact", f);
    let m = b.build();
    cage_wasm::validate(&m).unwrap();
    assert_eq!(
        run1(&m, "fact", &[Value::I64(10)]).unwrap(),
        vec![Value::I64(3_628_800)]
    );
    assert_eq!(
        run1(&m, "fact", &[Value::I64(0)]).unwrap(),
        vec![Value::I64(1)]
    );
}

/// Recursive fibonacci: tests direct calls and the call-depth guard.
#[test]
fn fibonacci_recursion() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![], // patched below (needs own index)
    );
    b.set_body(
        f,
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(2),
            Instr::I64LtS,
            Instr::If(
                BlockType::Value(ValType::I64),
                vec![Instr::LocalGet(0)],
                vec![
                    Instr::LocalGet(0),
                    Instr::I64Const(1),
                    Instr::I64Sub,
                    Instr::Call(f),
                    Instr::LocalGet(0),
                    Instr::I64Const(2),
                    Instr::I64Sub,
                    Instr::Call(f),
                    Instr::I64Add,
                ],
            ),
        ],
    );
    b.export_func("fib", f);
    let m = b.build();
    cage_wasm::validate(&m).unwrap();
    assert_eq!(
        run1(&m, "fib", &[Value::I64(15)]).unwrap(),
        vec![Value::I64(610)]
    );
}

#[test]
fn infinite_recursion_exhausts_call_stack() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[], &[], &[], vec![]);
    b.set_body(f, vec![Instr::Call(f)]);
    b.export_func("spin", f);
    let m = b.build();
    assert_eq!(run1(&m, "spin", &[]).unwrap_err(), Trap::CallStackExhausted);
}

#[test]
fn br_table_dispatch() {
    // switch (x) { 0 => 100, 1 => 200, default => 300 }
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I32],
        &[ValType::I32],
        &[],
        vec![Instr::Block(
            BlockType::Value(ValType::I32),
            vec![
                Instr::Block(
                    BlockType::Empty,
                    vec![
                        Instr::Block(
                            BlockType::Empty,
                            vec![
                                Instr::Block(
                                    BlockType::Empty,
                                    vec![Instr::LocalGet(0), Instr::BrTable(vec![0, 1], 2)],
                                ),
                                Instr::I32Const(100),
                                Instr::Br(2),
                            ],
                        ),
                        Instr::I32Const(200),
                        Instr::Br(1),
                    ],
                ),
                Instr::I32Const(300),
            ],
        )],
    );
    b.export_func("switch", f);
    let m = b.build();
    cage_wasm::validate(&m).unwrap();
    assert_eq!(
        run1(&m, "switch", &[Value::I32(0)]).unwrap(),
        vec![Value::I32(100)]
    );
    assert_eq!(
        run1(&m, "switch", &[Value::I32(1)]).unwrap(),
        vec![Value::I32(200)]
    );
    assert_eq!(
        run1(&m, "switch", &[Value::I32(9)]).unwrap(),
        vec![Value::I32(300)]
    );
}

#[test]
fn division_traps() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I32, ValType::I32],
        &[ValType::I32],
        &[],
        vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I32DivS],
    );
    b.export_func("div", f);
    let m = b.build();
    assert_eq!(
        run1(&m, "div", &[Value::I32(7), Value::I32(0)]).unwrap_err(),
        Trap::DivideByZero
    );
    assert_eq!(
        run1(&m, "div", &[Value::I32(i32::MIN), Value::I32(-1)]).unwrap_err(),
        Trap::IntegerOverflow
    );
    assert_eq!(
        run1(&m, "div", &[Value::I32(-7), Value::I32(2)]).unwrap(),
        vec![Value::I32(-3)]
    );
}

#[test]
fn trunc_traps_on_nan() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::F64],
        &[ValType::I32],
        &[],
        vec![Instr::LocalGet(0), Instr::I32TruncF64S],
    );
    b.export_func("t", f);
    let m = b.build();
    assert_eq!(
        run1(&m, "t", &[Value::F64(f64::NAN)]).unwrap_err(),
        Trap::InvalidConversion
    );
    assert_eq!(
        run1(&m, "t", &[Value::F64(1e300)]).unwrap_err(),
        Trap::IntegerOverflow
    );
    assert_eq!(
        run1(&m, "t", &[Value::F64(-3.9)]).unwrap(),
        vec![Value::I32(-3)]
    );
}

#[test]
fn memory_load_store_roundtrip_wasm64() {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let store_fn = b.add_function(
        &[ValType::I64, ValType::F64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Store(StoreOp::F64Store, MemArg::none()),
        ],
    );
    let load_fn = b.add_function(
        &[ValType::I64],
        &[ValType::F64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::Load(LoadOp::F64Load, MemArg::none()),
        ],
    );
    b.export_func("set", store_fn);
    b.export_func("get", load_fn);
    let m = b.build();

    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    store
        .invoke(h, "set", &[Value::I64(1024), Value::F64(2.75)])
        .unwrap();
    assert_eq!(
        store.invoke(h, "get", &[Value::I64(1024)]).unwrap(),
        vec![Value::F64(2.75)]
    );
    // OOB traps.
    let err = store.invoke(h, "get", &[Value::I64(65_536)]).unwrap_err();
    assert!(matches!(err, Trap::OutOfBounds { .. }));
}

#[test]
fn memory_grow_and_size() {
    let mut b = ModuleBuilder::new();
    b.add_memory(cage_wasm::MemoryType {
        limits: cage_wasm::Limits::bounded(1, 3),
        memory64: true,
    });
    let grow = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::MemoryGrow],
    );
    let size = b.add_function(&[], &[ValType::I64], &[], vec![Instr::MemorySize]);
    // Grows by one page and, in the same invocation, stores to and loads
    // from the page that did not exist when the call began.
    let touch = b.add_function(
        &[],
        &[ValType::I64],
        &[],
        vec![
            Instr::I64Const(1),
            Instr::MemoryGrow,
            Instr::Drop,
            Instr::I64Const(65_536 + 8),
            Instr::I64Const(0x5A5A),
            Instr::Store(StoreOp::I64Store, MemArg::none()),
            Instr::I64Const(65_536 + 8),
            Instr::Load(LoadOp::I64Load, MemArg::none()),
        ],
    );
    b.export_func("grow", grow);
    b.export_func("size", size);
    b.export_func("touch", touch);
    let m = b.build();
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    assert_eq!(store.invoke(h, "size", &[]).unwrap(), vec![Value::I64(1)]);
    assert_eq!(
        store.invoke(h, "grow", &[Value::I64(2)]).unwrap(),
        vec![Value::I64(1)]
    );
    assert_eq!(store.invoke(h, "size", &[]).unwrap(), vec![Value::I64(3)]);
    // Past the max: -1, and the instruction is retired all the same.
    store.reset_counters(h);
    assert_eq!(
        store.invoke(h, "grow", &[Value::I64(1)]).unwrap(),
        vec![Value::I64(-1)]
    );
    let mut refused = ChargeCounts::default();
    refused.counts[ChargeClass::Simple as usize] = 1;
    refused.counts[ChargeClass::MemManage as usize] = 1;
    assert_eq!(store.charge_counts(h), refused);

    // The new page is there for the rest of the call that grew it, on the
    // register tier's cached bound as on the oracle's uncached one, under
    // the plain bounds check and under the sandbox's tag check.
    for config in [
        ExecConfig::default(),
        ExecConfig {
            bounds: BoundsCheckStrategy::MteSandbox,
            ..ExecConfig::default()
        },
    ] {
        let run = |tree: bool| {
            let mut store = Store::new(config);
            let h = store.instantiate(&m, &Imports::new()).unwrap();
            let out = if tree {
                store.call_tree(h, touch, &[])
            } else {
                store.call(h, touch, &[])
            };
            let pages = store.memory(h).unwrap().size_pages();
            (out, pages, store.charge_counts(h))
        };
        let reg = run(false);
        assert_eq!(reg, run(true), "{config:?}");
        assert_eq!(reg.0, Ok(vec![Value::I64(0x5A5A)]), "{config:?}");
        assert_eq!(reg.1, 2);
        let mut charged = ChargeCounts::default();
        charged.counts[ChargeClass::Simple as usize] = 5;
        charged.counts[ChargeClass::MemManage as usize] = 1;
        charged.counts[ChargeClass::Mem as usize] = 2;
        assert_eq!(reg.2, charged, "{config:?}");
    }
}

fn indirect_module() -> (Module, u32, u32) {
    let mut b = ModuleBuilder::new();
    let double = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::LocalGet(0), Instr::I64Add],
    );
    let square = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::LocalGet(0), Instr::I64Mul],
    );
    let wrong_sig = b.add_function(&[], &[], &[], vec![]);
    b.add_table(4);
    b.add_elem(0, vec![double, square, wrong_sig]);
    let ty = b.intern_type(cage_wasm::FuncType::new(&[ValType::I64], &[ValType::I64]));
    let dispatch = b.add_function(
        &[ValType::I32, ValType::I64],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(1),
            Instr::LocalGet(0),
            Instr::CallIndirect(ty),
        ],
    );
    b.export_func("dispatch", dispatch);
    (b.build(), double, square)
}

#[test]
fn call_indirect_dispatches_by_table_index() {
    let (m, _, _) = indirect_module();
    cage_wasm::validate(&m).unwrap();
    assert_eq!(
        run1(&m, "dispatch", &[Value::I32(0), Value::I64(21)]).unwrap(),
        vec![Value::I64(42)]
    );
    assert_eq!(
        run1(&m, "dispatch", &[Value::I32(1), Value::I64(6)]).unwrap(),
        vec![Value::I64(36)]
    );
}

#[test]
fn call_indirect_traps() {
    let (m, _, _) = indirect_module();
    // Signature mismatch at index 2.
    assert_eq!(
        run1(&m, "dispatch", &[Value::I32(2), Value::I64(1)]).unwrap_err(),
        Trap::IndirectCallTypeMismatch
    );
    // Uninitialised element at index 3.
    assert_eq!(
        run1(&m, "dispatch", &[Value::I32(3), Value::I64(1)]).unwrap_err(),
        Trap::UndefinedElement
    );
    // Out of table bounds.
    assert_eq!(
        run1(&m, "dispatch", &[Value::I32(99), Value::I64(1)]).unwrap_err(),
        Trap::UndefinedElement
    );
}

#[test]
fn pointer_sign_auth_roundtrip_in_guest() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::PointerSign, Instr::PointerAuth],
    );
    let forge = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::PointerAuth],
    );
    b.export_func("roundtrip", f);
    b.export_func("forge", forge);
    let m = b.build();

    let config = ExecConfig {
        pointer_auth: true,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    assert_eq!(
        store.invoke(h, "roundtrip", &[Value::I64(0x4000)]).unwrap(),
        vec![Value::I64(0x4000)]
    );
    // Authenticating an unsigned pointer traps (FPAC).
    let err = store.invoke(h, "forge", &[Value::I64(0x4000)]).unwrap_err();
    assert!(matches!(err, Trap::PointerAuth(_)));
}

#[test]
fn pointer_auth_disabled_is_a_move() {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::PointerAuth],
    );
    b.export_func("auth", f);
    let m = b.build();
    // Baseline config: auth is a no-op, nothing traps.
    assert_eq!(
        run1(&m, "auth", &[Value::I64(123)]).unwrap(),
        vec![Value::I64(123)]
    );
}

#[test]
fn segments_detect_overflow_between_allocations() {
    // Two adjacent segments; writing past the first through its tagged
    // pointer traps — Fig. 2's spatial-safety picture as a wasm program.
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let alloc = b.add_function(
        &[ValType::I64, ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::SegmentNew(0)],
    );
    let poke = b.add_function(
        &[ValType::I64, ValType::I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::Store(StoreOp::I64Store8, MemArg::none()),
        ],
    );
    b.export_func("alloc", alloc);
    b.export_func("poke", poke);
    let m = b.build();

    let config = ExecConfig {
        internal: InternalSafety::Mte,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    let p1 = store
        .invoke(h, "alloc", &[Value::I64(0), Value::I64(32)])
        .unwrap()[0];
    let _p2 = store
        .invoke(h, "alloc", &[Value::I64(32), Value::I64(32)])
        .unwrap()[0];
    // In-bounds write through p1 is fine.
    store.invoke(h, "poke", &[p1, Value::I64(7)]).unwrap();
    // Off-by-32 (into the second segment) through p1's tag: caught.
    let p1_past = Value::I64(p1.as_i64() + 32);
    let err = store
        .invoke(h, "poke", &[p1_past, Value::I64(7)])
        .unwrap_err();
    assert!(err.is_memory_safety_violation(), "{err}");
}

#[test]
fn segment_instructions_inert_on_baseline() {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let f = b.add_function(
        &[],
        &[ValType::I64],
        &[],
        vec![
            Instr::I64Const(64),
            Instr::I64Const(32),
            Instr::SegmentNew(0),
        ],
    );
    b.export_func("new", f);
    let m = b.build();
    // Baseline: pointer passes through untagged.
    assert_eq!(run1(&m, "new", &[]).unwrap(), vec![Value::I64(64)]);
}

#[test]
fn mte_sandbox_runs_normal_code_and_catches_oob() {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let touch = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(1),
            Instr::Store(StoreOp::I64Store8, MemArg::none()),
            Instr::LocalGet(0),
            Instr::Load(LoadOp::I64Load8U, MemArg::none()),
        ],
    );
    b.export_func("touch", touch);
    let m = b.build();

    let config = ExecConfig {
        bounds: BoundsCheckStrategy::MteSandbox,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    assert_eq!(
        store.invoke(h, "touch", &[Value::I64(100)]).unwrap(),
        vec![Value::I64(1)]
    );
    let err = store
        .invoke(h, "touch", &[Value::I64(65_536 + 128)])
        .unwrap_err();
    assert!(matches!(err, Trap::TagCheck(_)), "{err}");
}

#[test]
fn cycle_accounting_is_deterministic() {
    let (m, _, _) = indirect_module();
    let run = || {
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&m, &Imports::new()).unwrap();
        store
            .invoke(h, "dispatch", &[Value::I32(1), Value::I64(9)])
            .unwrap();
        store.charge_counts(h)
    };
    assert_eq!(run(), run());
}

#[test]
fn host_function_call_and_memory_access() {
    let mut b = ModuleBuilder::new();
    let log = b.import_func("env", "accumulate", &[ValType::I64], &[ValType::I64]);
    b.add_memory64(1);
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::Call(log)],
    );
    b.export_func("run", f);
    let m = b.build();

    use std::cell::RefCell;
    use std::rc::Rc;
    let seen: Rc<RefCell<Vec<i64>>> = Rc::new(RefCell::new(Vec::new()));
    let seen2 = seen.clone();
    let mut imports = Imports::new();
    imports.define(
        "env",
        "accumulate",
        cage_engine::host::HostFunc::new(&[ValType::I64], &[ValType::I64], move |ctx, args| {
            seen2.borrow_mut().push(args[0].as_i64());
            // The host can read/write guest memory through checks.
            ctx.write_bytes(8, &[0xAB])?;
            Ok(vec![Value::I64(args[0].as_i64() * 2)])
        }),
    );
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&m, &imports).unwrap();
    assert_eq!(
        store.invoke(h, "run", &[Value::I64(5)]).unwrap(),
        vec![Value::I64(10)]
    );
    assert_eq!(*seen.borrow(), vec![5]);
    assert_eq!(store.memory(h).unwrap().read_resolved(8, 1), &[0xAB]);
}

#[test]
fn fifteen_sandboxes_work_and_the_sixteenth_is_refused() {
    // §6.4: one sandbox tag per instance, 15 per process. Every one of
    // the 15 runs and catches its own escapes; there is no tag left for a
    // 16th.
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let touch = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(9),
            Instr::Store(StoreOp::I64Store8, MemArg::none()),
            Instr::LocalGet(0),
            Instr::Load(LoadOp::I64Load8U, MemArg::none()),
        ],
    );
    b.export_func("touch", touch);
    let m = b.build();

    let config = ExecConfig {
        bounds: BoundsCheckStrategy::MteSandbox,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let mut handles = Vec::new();
    for i in 0..15 {
        let h = store
            .instantiate(&m, &Imports::new())
            .unwrap_or_else(|e| panic!("instance {i}: {e}"));
        handles.push(h);
    }
    // Every instance works, and every instance's escapes are still caught.
    for &h in &handles {
        assert_eq!(
            store.invoke(h, "touch", &[Value::I64(64)]).unwrap(),
            vec![Value::I64(9)]
        );
        let err = store
            .invoke(h, "touch", &[Value::I64(65_536 + 32)])
            .unwrap_err();
        assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    }
    assert!(matches!(
        store.instantiate(&m, &Imports::new()),
        Err(InstantiateError::TooManySandboxes)
    ));
}

#[test]
fn async_mode_defers_guest_fault_to_call_boundary() {
    // §2.3 asynchronous mode: the faulting store completes; the fault
    // surfaces at the next check point (our call boundary, standing in for
    // the kernel's context switch).
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let f = b.add_function(
        &[],
        &[ValType::I64],
        &[],
        vec![
            // Create a segment over [0,32), then store through an
            // untagged pointer (tag mismatch).
            Instr::I64Const(0),
            Instr::I64Const(32),
            Instr::SegmentNew(0),
            Instr::Drop,
            Instr::I64Const(0),
            Instr::I64Const(77),
            Instr::Store(StoreOp::I64Store, MemArg::none()),
            // The store completed; keep computing.
            Instr::I64Const(1),
        ],
    );
    b.export_func("f", f);
    let m = b.build();

    let config = ExecConfig {
        internal: InternalSafety::Mte,
        mte_mode: cage_mte::MteMode::Asynchronous,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    let err = store.invoke(h, "f", &[]).unwrap_err();
    assert!(matches!(err, Trap::AsyncTagCheck(_)), "{err}");
    // The write took effect before detection — async's weaker guarantee.
    let mem = store.memory(h).unwrap();
    assert_eq!(mem.read_resolved(0, 1)[0], 77);

    // Synchronous mode: the same program faults before the store lands.
    let config = ExecConfig {
        internal: InternalSafety::Mte,
        mte_mode: cage_mte::MteMode::Synchronous,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    let err = store.invoke(h, "f", &[]).unwrap_err();
    assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    assert_eq!(store.memory(h).unwrap().read_resolved(0, 1)[0], 0);
}

#[test]
fn bulk_memory_fill_and_copy() {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let f = b.add_function(
        &[],
        &[ValType::I64],
        &[],
        vec![
            // fill [64, 96) with 0xAB
            Instr::I64Const(64),
            Instr::I32Const(0xAB),
            Instr::I64Const(32),
            Instr::MemoryFill,
            // copy [64,96) -> [256,288)
            Instr::I64Const(256),
            Instr::I64Const(64),
            Instr::I64Const(32),
            Instr::MemoryCopy,
            // read back one byte
            Instr::I64Const(287),
            Instr::Load(LoadOp::I64Load8U, MemArg::none()),
        ],
    );
    b.export_func("f", f);
    let m = b.build();
    assert_eq!(run1(&m, "f", &[]).unwrap(), vec![Value::I64(0xAB)]);
}

#[test]
fn zero_length_bulk_ops_at_memory_boundary_do_not_trap() {
    // The Wasm bulk-memory spec permits `memory.fill`/`memory.copy` with
    // len == 0 when dst/src equal the memory size; only one-past traps.
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let fill = b.add_function(
        &[ValType::I64, ValType::I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I32Const(0xCC),
            Instr::LocalGet(1),
            Instr::MemoryFill,
        ],
    );
    let copy = b.add_function(
        &[ValType::I64, ValType::I64, ValType::I64],
        &[],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::LocalGet(2),
            Instr::MemoryCopy,
        ],
    );
    b.export_func("fill", fill);
    b.export_func("copy", copy);
    let m = b.build();
    let size = cage_wasm::types::PAGE_SIZE as i64;
    for config in [
        ExecConfig::default(),
        ExecConfig {
            bounds: BoundsCheckStrategy::MteSandbox,
            ..ExecConfig::default()
        },
        ExecConfig {
            internal: InternalSafety::Mte,
            ..ExecConfig::default()
        },
    ] {
        let mut store = Store::new(config);
        let h = store.instantiate(&m, &Imports::new()).unwrap();
        // Exactly at the boundary: permitted.
        store
            .invoke(h, "fill", &[Value::I64(size), Value::I64(0)])
            .unwrap();
        store
            .invoke(
                h,
                "copy",
                &[Value::I64(size), Value::I64(size), Value::I64(0)],
            )
            .unwrap();
    }
    // One past the boundary still traps under software bounds.
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    let err = store
        .invoke(h, "fill", &[Value::I64(size + 1), Value::I64(0)])
        .unwrap_err();
    assert!(matches!(err, Trap::OutOfBounds { .. }), "{err}");
}

#[test]
fn segment_tag_costs_round_partial_granules_up() {
    // A 15-byte segment occupies one 16-byte granule and must pay one
    // stzg's worth of cycles, not zero (div_ceil, not floor). The lengths
    // here are deliberately unaligned so segment.new traps immediately
    // after charging, leaving the charge isolated on the counter.
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::I64Const(0), Instr::LocalGet(0), Instr::SegmentNew(0)],
    );
    b.export_func("f", f);
    let m = b.build();
    let config = ExecConfig {
        internal: InternalSafety::Mte,
        ..ExecConfig::default()
    };
    let charged_for = |len: i64| {
        let mut store = Store::new(config);
        let h = store.instantiate(&m, &Imports::new()).unwrap();
        store.invoke(h, "f", &[Value::I64(len)]).unwrap_err();
        store.charge_counts(h)
    };
    let (c15, c31) = (charged_for(15), charged_for(31));
    // The 15-byte segment already pays for its single granule, and the
    // only other charges in the body are the two const/local pushes.
    let mut expected = ChargeCounts::default();
    expected.counts[ChargeClass::Simple as usize] = 2;
    expected.counts[ChargeClass::SegmentNew as usize] = 1;
    expected.counts[ChargeClass::SegmentNewGranules as usize] = 1;
    assert_eq!(c15, expected);
    // Same instruction mix, one extra granule of tagging cost.
    expected.counts[ChargeClass::SegmentNewGranules as usize] = 2;
    assert_eq!(c31, expected);
    // And a granule costs cycles under MTE.
    let weights = CostModel::class_weights(&config);
    assert!(c31.cycles(&weights) > c15.cycles(&weights));
}

#[test]
fn bulk_ops_respect_tag_checks() {
    // memory.fill across a segment boundary must trap under MTE.
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let f = b.add_function(
        &[ValType::I64],
        &[],
        &[ValType::I64],
        vec![
            Instr::I64Const(64),
            Instr::I64Const(32),
            Instr::SegmentNew(0),
            Instr::LocalSet(1),
            // fill len bytes from the tagged pointer
            Instr::LocalGet(1),
            Instr::I32Const(7),
            Instr::LocalGet(0),
            Instr::MemoryFill,
        ],
    );
    b.export_func("f", f);
    let m = b.build();
    let config = ExecConfig {
        internal: InternalSafety::Mte,
        ..ExecConfig::default()
    };
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    // Within the segment: ok.
    store.invoke(h, "f", &[Value::I64(32)]).unwrap();
    // Past it: trap.
    let mut store = Store::new(config);
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    let err = store.invoke(h, "f", &[Value::I64(48)]).unwrap_err();
    assert!(matches!(err, Trap::TagCheck(_)), "{err}");
}

/// A register op carries the charges of every dissolved instruction in
/// front of it, and such a run has no bound short of the body-size limit:
/// its length once went through a `u16` and wrapped (65 535 `nop`s and a
/// constant retired nothing at all on the register tier). Runs around
/// that width, and past twice it, must retire exactly what the tree
/// oracle retires — also when a branch targets the op the run is bound
/// to, and when that op traps.
#[test]
fn long_runs_of_dissolved_instructions_are_charged_in_full() {
    let compare = |what: &str, params: &[ValType], body: Vec<Instr>, args: &[Value]| {
        let mut b = ModuleBuilder::new();
        let f = b.add_function(params, &[ValType::I64], &[], body);
        let m = b.build();
        cage_wasm::validate(&m).unwrap_or_else(|e| panic!("{what}: {e}"));
        let outcome = |tree: bool| {
            let mut store = Store::new(ExecConfig::default());
            let h = store.instantiate(&m, &Imports::new()).unwrap();
            let out = if tree {
                store.call_tree(h, f, args)
            } else {
                store.call(h, f, args)
            };
            (out, store.charge_counts(h))
        };
        let reg = outcome(false);
        assert_eq!(reg, outcome(true), "{what}: register vs tree");
        reg
    };
    let simple = |n: u64| {
        let mut counts = ChargeCounts::default();
        counts.counts[ChargeClass::Simple as usize] = n;
        counts
    };

    for nops in [1_000, 65_535, 65_536, 70_000, 140_000] {
        let mut body = vec![Instr::Nop; nops];
        body.push(Instr::I64Const(7));
        let (out, charged) = compare(&format!("{nops} nops"), &[], body, &[]);
        assert_eq!(out, Ok(vec![Value::I64(7)]), "{nops} nops");
        assert_eq!(charged, simple(nops as u64 + 1), "{nops} nops");
    }

    // The run sits behind a label: the taken `br_if` must land where the
    // run's charges begin, not on the op that holds their tail.
    let mut behind_label = vec![Instr::Block(
        BlockType::Empty,
        vec![
            Instr::LocalGet(0),
            Instr::BrIf(0),
            Instr::I64Const(1),
            Instr::Drop,
        ],
    )];
    behind_label.extend(vec![Instr::Nop; 70_000]);
    behind_label.push(Instr::I64Const(7));
    for (taken, skipped) in [(0, 0), (1, 2)] {
        let (out, charged) = compare(
            "70 000 nops behind a label",
            &[ValType::I32],
            behind_label.clone(),
            &[Value::I32(taken)],
        );
        assert_eq!(out, Ok(vec![Value::I64(7)]));
        let mut expected = simple(70_004 - skipped);
        expected.counts[ChargeClass::Branch as usize] = 1;
        assert_eq!(charged, expected, "br_if {taken}");
    }

    // The run ends in an op that traps: everything in front of it has
    // been charged by then, the division included.
    let mut trapping = vec![Instr::Nop; 70_000];
    trapping.extend([
        Instr::I32Const(1),
        Instr::I32Const(0),
        Instr::I32DivS,
        Instr::I64ExtendI32S,
    ]);
    let (out, charged) = compare("70 000 nops, then a division by zero", &[], trapping, &[]);
    assert_eq!(out, Err(Trap::DivideByZero));
    let mut expected = simple(70_002);
    expected.counts[ChargeClass::Div as usize] = 1;
    assert_eq!(charged, expected);
}

/// The first instruction the binary decoder produces for `code` followed
/// by zero immediates (leftover zero bytes decode as `unreachable`).
fn decoded_instr(code: &[u8]) -> Option<Instr> {
    let mut body = vec![0x00]; // no locals
    body.extend_from_slice(code);
    body.extend_from_slice(&[0; 8]);
    body.push(0x0B);
    let mut bin = b"\0asm\x01\0\0\0".to_vec();
    bin.extend_from_slice(&[1, 4, 1, 0x60, 0, 0]); // type 0: () -> ()
    bin.extend_from_slice(&[3, 2, 1, 0]); // one function of type 0
    bin.extend_from_slice(&[10, body.len() as u8 + 2, 1, body.len() as u8]);
    bin.extend_from_slice(&body);
    cage_wasm::binary::decode(&bin).ok()?.funcs[0]
        .body
        .first()
        .cloned()
}

/// Operand and result types of a data instruction with zero immediates.
fn data_signature(instr: &Instr) -> (Vec<ValType>, Vec<ValType>) {
    use ValType::{F32, F64, I32, I64};
    if let Some((params, result)) = cage_wasm::numeric_signature(instr) {
        return (params.to_vec(), result.into_iter().collect());
    }
    match instr {
        Instr::Unreachable | Instr::Nop => (vec![], vec![]),
        Instr::Drop | Instr::LocalSet(0) | Instr::GlobalSet(0) => (vec![I64], vec![]),
        Instr::Select => (vec![I64, I64, I32], vec![I64]),
        Instr::LocalGet(0) | Instr::GlobalGet(0) | Instr::MemorySize | Instr::I64Const(_) => {
            (vec![], vec![I64])
        }
        Instr::LocalTee(0) | Instr::MemoryGrow | Instr::PointerSign | Instr::PointerAuth => {
            (vec![I64], vec![I64])
        }
        Instr::Load(op, _) => (vec![I64], vec![op.result_type()]),
        Instr::Store(op, _) => (vec![I64, op.value_type()], vec![]),
        Instr::MemoryFill => (vec![I64, I32, I64], vec![]),
        Instr::MemoryCopy | Instr::SegmentSetTag(_) => (vec![I64, I64, I64], vec![]),
        Instr::I32Const(_) => (vec![], vec![I32]),
        Instr::F32Const(_) => (vec![], vec![F32]),
        Instr::F64Const(_) => (vec![], vec![F64]),
        Instr::SegmentNew(_) => (vec![I64, I64], vec![I64]),
        Instr::SegmentFree(_) => (vec![I64, I64], vec![]),
        other => panic!("the decoder produced {other:?}: give it a signature here"),
    }
}

#[test]
fn every_decodable_data_instruction_agrees_between_register_and_tree() {
    // The whole opcode table, taken from the decoder itself: each data
    // instruction as a one-instruction body over typed arguments must
    // lower (no instruction reaches the `unreachable!` arms of the
    // lowering or of the oracle) and agree with the tree oracle on result
    // or trap, the whole count vector, and the globals, memory bytes and
    // memory tags it leaves behind. The register tier shares no semantics
    // with the oracle, so each of the 140 is compared with a second
    // transcription of itself.
    let mut codes: Vec<Vec<u8>> = (0x00..=0xFAu8).map(|op| vec![op]).collect();
    for prefix in [0xFB, 0xFC] {
        codes.extend((0..32u8).map(|sub| vec![prefix, sub]));
    }
    let is_control = |i: &Instr| {
        matches!(
            i,
            Instr::Block(..)
                | Instr::Loop(..)
                | Instr::If(..)
                | Instr::Br(_)
                | Instr::BrIf(_)
                | Instr::BrTable(..)
                | Instr::Return
                | Instr::Call(_)
                | Instr::CallIndirect(_)
        )
    };
    let instrs: Vec<Instr> = codes
        .iter()
        .filter_map(|code| decoded_instr(code))
        .filter(|i| !is_control(i))
        .collect();
    // Every non-control `Instr` variant: a smaller table means the probe
    // above stopped reaching the decoder.
    assert!(instrs.len() >= 173, "only {} instructions", instrs.len());
    // All 128 numeric instructions reach the numeric table, family by
    // family: a row that stops being classified would still agree with
    // the oracle — as a silent bridge — so it is counted here.
    let mut rows = [0usize; 3];
    for row in instrs.iter().filter_map(cage_wasm::numeric::classify) {
        match row {
            Numeric::Alu(_) => rows[0] += 1,
            Numeric::Div(_) => rows[1] += 1,
            Numeric::Una(_) => rows[2] += 1,
        }
    }
    assert_eq!(rows, [66, 10, 52], "numeric rows swept (alu, div, una)");

    // The two untagged configurations and the two sandboxed ones: the
    // stateful instructions do different things under each (segments are
    // inert without internal MTE, sign/auth are moves without PAC, an
    // index loses its tag bits under the sandbox mask).
    let sandbox = ExecConfig {
        bounds: BoundsCheckStrategy::MteSandbox,
        ..ExecConfig::default()
    };
    let configs = [
        ExecConfig::default(),
        ExecConfig {
            internal: InternalSafety::Mte,
            pointer_auth: true,
            ..ExecConfig::default()
        },
        sandbox,
        ExecConfig {
            internal: InternalSafety::Mte,
            pointer_auth: true,
            ..sandbox
        },
    ];
    // Seven argument rows per instruction. Three feed every parameter the
    // same value: zeros (division and bulk-op edge), small in-range
    // values, and negative/non-finite ones (out-of-bounds addresses,
    // trapping truncations). Two depend on the parameter's position, for
    // what only a *pair* of operands reaches: `MIN / -1`, a shift count
    // past the width, the zero-sign tie of `min`/`max`/`copysign`, and
    // finite truncations out of range (3e9 for i32, 2^63 for i64). The
    // last two are for the stateful instructions with two and three
    // operands: pairwise distinct, in range and 16-aligned by position
    // (`dst`/`ptr` 32, `src`/`len` 96, `len` 16), so that swapping any two
    // operands changes what the instruction does; the second of them puts
    // tag 4 on the middle operand, which is what `segment.set_tag` reads
    // its tag from.
    const ROWS: usize = 7;
    const TAGGED_96: i64 = (4 << 56) | 96;
    let arg = |ty: ValType, row: usize, pos: usize| {
        let p = pos % 2;
        // The last two rows differ in their `i64` column only.
        let r = row.min(5);
        match ty {
            ValType::I32 => {
                Value::I32([[0; 2], [16; 2], [-7; 2], [i32::MIN, -1], [1, 65], [0x5A; 2]][r][p])
            }
            ValType::I64 if row >= 5 => Value::I64([32, [96, TAGGED_96][row - 5], 16][pos % 3]),
            ValType::I64 => Value::I64([[0; 2], [16; 2], [-7; 2], [i64::MIN, -1], [1, 65]][row][p]),
            ValType::F32 => Value::F32(
                [
                    [0.0; 2],
                    [1.5; 2],
                    [f32::NAN; 2],
                    [0.0, -0.0],
                    [3e9, 9_223_372_036_854_775_808.0],
                    [2.5, -1.5],
                ][r][p],
            ),
            ValType::F64 => Value::F64(
                [
                    [0.0; 2],
                    [1.5; 2],
                    [f64::NEG_INFINITY; 2],
                    [0.0, -0.0],
                    [3e9, 9_223_372_036_854_775_808.0],
                    [2.5, -1.5],
                ][r][p],
            ),
        }
    };
    for instr in &instrs {
        let (params, results) = data_signature(instr);
        let mut body: Vec<Instr> = (0..params.len() as u32).map(Instr::LocalGet).collect();
        body.push(instr.clone());
        let (pre, f) = stateful_fixture(&params, &results, body);
        for config in configs {
            for row in 0..ROWS {
                let args: Vec<Value> = params
                    .iter()
                    .enumerate()
                    .map(|(pos, &ty)| arg(ty, row, pos))
                    .collect();
                assert_eq!(
                    run_fixture(&pre, f, config, &args, false),
                    run_fixture(&pre, f, config, &args, true),
                    "{instr} row {row} {config:?}"
                );
            }
        }
    }

    // Each stateful instruction retires itself — class, then the units its
    // operands name — before anything in it can trap. One trapping row
    // each for the bodies that can, the whole count vector as literals
    // (the `Simple`s are the `local.get`s that fed the operands).
    let cage = configs[1];
    let (i32t, i64t) = (ValType::I32, ValType::I64);
    let traps_charged =
        |instr: Instr, params: &[ValType], raw: &[i64], charged: &[(ChargeClass, u64)]| {
            let mut body: Vec<Instr> = (0..params.len() as u32).map(Instr::LocalGet).collect();
            body.push(instr.clone());
            let (_, results) = data_signature(&instr);
            let (pre, f) = stateful_fixture(params, &results, body);
            let args: Vec<Value> = params
                .iter()
                .zip(raw)
                .map(|(ty, &v)| match ty {
                    ValType::I32 => Value::I32(v as i32),
                    _ => Value::I64(v),
                })
                .collect();
            let reg = run_fixture(&pre, f, cage, &args, false);
            assert_eq!(
                reg,
                run_fixture(&pre, f, cage, &args, true),
                "{instr} traps"
            );
            assert!(
                reg.out.is_err(),
                "{instr} {args:?} must trap: {:?}",
                reg.out
            );
            let mut expected = ChargeCounts::default();
            expected.counts[ChargeClass::Simple as usize] = params.len() as u64;
            for &(class, n) in charged {
                expected.counts[class as usize] = n;
            }
            assert_eq!(reg.counts, expected, "{instr}: charged before the trap");
        };
    // Past the end of the one page.
    traps_charged(
        Instr::MemoryFill,
        &[i64t, i32t, i64t],
        &[65_520, 1, 32],
        &[(ChargeClass::Fill, 1), (ChargeClass::FillBytes, 32)],
    );
    traps_charged(
        Instr::MemoryCopy,
        &[i64t, i64t, i64t],
        &[0, 65_520, 48],
        &[(ChargeClass::Copy, 1), (ChargeClass::CopyBytes, 48)],
    );
    // 32 + 8 is not 16-aligned; 17 bytes are two granules.
    traps_charged(
        Instr::SegmentNew(8),
        &[i64t, i64t],
        &[32, 17],
        &[
            (ChargeClass::SegmentNew, 1),
            (ChargeClass::SegmentNewGranules, 2),
        ],
    );
    traps_charged(
        Instr::SegmentSetTag(0),
        &[i64t, i64t, i64t],
        &[65_520, TAGGED_96, 33],
        &[(ChargeClass::Retag, 1), (ChargeClass::RetagGranules, 3)],
    );
    // A pointer carrying tag 4 does not own untagged memory.
    traps_charged(
        Instr::SegmentFree(0),
        &[i64t, i64t],
        &[TAGGED_96, 16],
        &[(ChargeClass::Retag, 1), (ChargeClass::RetagGranules, 1)],
    );
    // Never signed: the PAC field is empty.
    traps_charged(
        Instr::PointerAuth,
        &[i64t],
        &[96],
        &[(ChargeClass::Auth, 1)],
    );
}

/// What a run of a [`stateful_fixture`] leaves behind: the state a
/// stateful instruction can touch, next to outcome and charge.
#[derive(Debug, PartialEq)]
struct FixtureOutcome {
    /// Results by bit pattern, so NaNs compare.
    out: Result<Vec<u64>, Trap>,
    counts: ChargeCounts,
    globals: [Option<Value>; 2],
    /// The first 256 bytes of memory...
    bytes: Vec<u8>,
    /// ...and the tags of their 16 granules.
    tags: Vec<Option<u8>>,
}

/// A one-function module for the stateful instructions: one page of
/// memory whose first 256 bytes count up from zero (so a copy or a fill
/// in the wrong place shows), two globals (so a `global.set` of the wrong
/// one shows) and one declared local.
fn stateful_fixture(
    params: &[ValType],
    results: &[ValType],
    body: Vec<Instr>,
) -> (Precompiled, u32) {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    b.add_data(0, (0..=255).collect());
    for (name, init) in [("g0", 5), ("g1", 6)] {
        let g = b.add_global(ValType::I64, true, Instr::I64Const(init));
        b.export_global(name, g);
    }
    let what = format!("{body:?}");
    let f = b.add_function(params, results, &[ValType::I64], body);
    let pre = Precompiled::new(&b.build()).unwrap_or_else(|e| panic!("{what}: {e}"));
    (pre, f)
}

fn run_fixture(
    pre: &Precompiled,
    f: u32,
    config: ExecConfig,
    args: &[Value],
    tree: bool,
) -> FixtureOutcome {
    let mut store = Store::new(config);
    let h = store.instantiate_precompiled(pre, &Imports::new()).unwrap();
    let out = if tree {
        store.call_tree(h, f, args)
    } else {
        store.call(h, f, args)
    };
    let out = out.map(|vs| vs.iter().map(|v| v.to_slot()).collect::<Vec<_>>());
    let mem = store.memory(h).unwrap();
    FixtureOutcome {
        out,
        counts: store.charge_counts(h),
        globals: [store.global(h, "g0"), store.global(h, "g1")],
        bytes: mem.read_resolved(0, 256),
        tags: (0..256)
            .step_by(16)
            .map(|addr| mem.tags().tag_at(addr).map(|t| t.value()))
            .collect(),
    }
}

// -- instruction selection: the fused forms against the tree oracle ---------
//
// `bytecode::select` fuses `ext; mul; add` chains into `IndexAdd`, a
// two-operand op (and an `i32.eqz` of it) into the `br_if`/`if` that reads
// it, and an op into the phi copy that reads it; the lowering folds a unary
// op of a constant. Every row below runs one small function on both tiers
// and compares outcome and the whole count vector, and looks at the
// register code for the form it is about.

use cage_engine::bytecode::{compile_reg, AluOp, IndexExt, RegCode, RegOp, UnaOp};

/// A module of one function `params -> results` with `locals` and a page
/// of memory, and the function's register code.
fn lowered(
    what: &str,
    params: &[ValType],
    results: &[ValType],
    locals: &[ValType],
    body: Vec<Instr>,
) -> (Module, RegCode) {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    b.add_function(params, results, locals, body);
    let m = b.build();
    cage_wasm::validate(&m).unwrap_or_else(|e| panic!("{what}: {e}"));
    let func = &m.funcs[0];
    let limits = cage_wasm::CompileLimits::unlimited();
    let code = compile_reg(
        &m,
        &m.types[func.type_idx as usize],
        func.locals.len(),
        &func.body,
        &limits,
        &limits.fuel(),
    )
    .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    (m, code)
}

/// Runs function 0 of `m` on both tiers: outcome (results by bit pattern)
/// and count vector must be the same, and are returned.
fn on_both_tiers(what: &str, m: &Module, args: &[Value]) -> (Result<Vec<u64>, Trap>, ChargeCounts) {
    let outcome = |tree: bool| {
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(m, &Imports::new()).unwrap();
        let out = if tree {
            store.call_tree(h, 0, args)
        } else {
            // A branch fused the wrong way round must end as a mismatch,
            // not as a loop that never exits.
            store.set_fuel(h, Some(1 << 20));
            store.call(h, 0, args)
        };
        let out = out.map(|vs| vs.iter().map(|v| v.to_slot()).collect::<Vec<_>>());
        (out, store.charge_counts(h))
    };
    let reg = outcome(false);
    assert_eq!(reg, outcome(true), "{what} {args:?}: register vs tree");
    reg
}

fn count_ops(code: &RegCode, pick: impl Fn(&RegOp) -> bool) -> usize {
    code.ops.iter().filter(|op| pick(op)).count()
}

#[test]
fn selection_index_add_rows_agree_with_the_tree_oracle() {
    use ValType::{I32, I64};
    let exts = [
        (IndexExt::None, None),
        (IndexExt::S32, Some(Instr::I64ExtendI32S)),
        (IndexExt::U32, Some(Instr::I64ExtendI32U)),
    ];
    let scales = [0i64, 1, -1 /* u64::MAX */, 8, i64::MIN];
    let bases = [
        0i64,
        0x1_0000,
        -4, /* wraps with any positive product */
        i64::MIN,
    ];
    for (ext, ext_instr) in &exts {
        for &k in &scales {
            // Three spellings of `base + ext(idx) * k`: the product on the
            // sum's right or left, the scale on the product's right or left.
            for order in 0..3 {
                let index = [Instr::LocalGet(1)].into_iter().chain(ext_instr.clone());
                let mut body = Vec::new();
                match order {
                    0 => {
                        body.push(Instr::LocalGet(0));
                        body.extend(index);
                        body.extend([Instr::I64Const(k), Instr::I64Mul]);
                    }
                    1 => {
                        body.extend(index);
                        body.extend([Instr::I64Const(k), Instr::I64Mul, Instr::LocalGet(0)]);
                    }
                    _ => {
                        body.extend([Instr::LocalGet(0), Instr::I64Const(k)]);
                        body.extend(index);
                        body.push(Instr::I64Mul);
                    }
                }
                body.push(Instr::I64Add);
                let what = format!("{ext:?} * {k} (order {order})");
                let idx_ty = if *ext == IndexExt::None { I64 } else { I32 };
                let (m, code) = lowered(&what, &[I64, idx_ty], &[I64], &[], body);
                assert!(
                    matches!(
                        code.ops.as_ref(),
                        [RegOp::IndexAdd { ext: e, k: scale, .. }, RegOp::Ret { .. }]
                            if e == ext && *scale == k as u64
                    ),
                    "{what}: {:?}",
                    code.ops
                );
                for &base in &bases {
                    for idx in [0i64, 1, -1, 7, i64::from(i32::MIN), i64::MAX] {
                        let (arg, wide) = match ext {
                            IndexExt::None => (Value::I64(idx), idx),
                            IndexExt::S32 => (Value::I32(idx as i32), i64::from(idx as i32)),
                            IndexExt::U32 => (Value::I32(idx as i32), i64::from(idx as u32)),
                        };
                        let (out, counts) = on_both_tiers(&what, &m, &[Value::I64(base), arg]);
                        let expected = base.wrapping_add(wide.wrapping_mul(k));
                        assert_eq!(out, Ok(vec![expected as u64]), "{what}: {base} {idx}");
                        let widenings = u64::from(*ext != IndexExt::None);
                        assert_eq!(counts.get(ChargeClass::Zero), widenings, "{what}");
                        assert_eq!(counts.instr_count(), 5 + widenings, "{what}");
                    }
                }
            }
        }
    }

    // A constant base on the sum's right stood in no register before the
    // fusion; the fused op reads it from one.
    let (m, code) = lowered(
        "constant base",
        &[I32],
        &[I64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64ExtendI32U,
            Instr::I64Const(24),
            Instr::I64Mul,
            Instr::I64Const(0x10010),
            Instr::I64Add,
        ],
    );
    assert!(
        matches!(
            code.ops.as_ref(),
            [
                RegOp::Const { v: 0x10010, .. },
                RegOp::IndexAdd {
                    ext: IndexExt::U32,
                    k: 24,
                    ..
                },
                RegOp::Ret { .. }
            ]
        ),
        "{:?}",
        code.ops
    );
    let (out, _) = on_both_tiers("constant base", &m, &[Value::I32(-1)]);
    assert_eq!(out, Ok(vec![0x10010 + 24 * u64::from(u32::MAX)]));
}

#[test]
fn selection_compare_and_branch_rows_agree_with_the_tree_oracle() {
    // Every comparison row of the numeric table (opcodes 0x46..=0x66, the
    // two `eqz` tests aside, which are unary) and one op that is no
    // comparison but has an `i32` result, each feeding a `br_if` and an
    // `if`, bare and through an `i32.eqz`, with the right operand in a
    // register and as an immediate.
    let mut rows: Vec<Instr> = (0x46..=0x66u8)
        .filter_map(cage_wasm::numeric::decode)
        .filter(|i| matches!(cage_wasm::numeric::classify(i), Some(Numeric::Alu(_))))
        .collect();
    assert_eq!(rows.len(), 32, "comparison rows");
    rows.push(Instr::I32And);
    let pairs = |ty: ValType| -> Vec<[Value; 2]> {
        let i32s = [(0, 0), (1, 2), (2, 1), (-1, 1), (i32::MIN, i32::MAX)];
        let f64s = [
            (0.0, -0.0),
            (1.5, 2.5),
            (f64::NAN, 1.0),
            (2.5, 1.5),
            (f64::INFINITY, f64::NEG_INFINITY),
        ];
        match ty {
            ValType::I32 => i32s.map(|(a, b)| [Value::I32(a), Value::I32(b)]).to_vec(),
            ValType::I64 => i32s
                .map(|(a, b)| {
                    [
                        Value::I64(i64::from(a) << 20),
                        Value::I64(i64::from(b) << 20),
                    ]
                })
                .to_vec(),
            ValType::F32 => f64s
                .map(|(a, b)| [Value::F32(a as f32), Value::F32(b as f32)])
                .to_vec(),
            ValType::F64 => f64s.map(|(a, b)| [Value::F64(a), Value::F64(b)]).to_vec(),
        }
    };
    let constant = |v: Value| match v {
        Value::I32(v) => Instr::I32Const(v),
        Value::I64(v) => Instr::I64Const(v),
        Value::F32(v) => Instr::F32Const(v.to_bits()),
        Value::F64(v) => Instr::F64Const(v.to_bits()),
    };
    for instr in &rows {
        let Some(Numeric::Alu(op)) = cage_wasm::numeric::classify(instr) else {
            unreachable!()
        };
        let ty = cage_wasm::numeric_signature(instr).unwrap().0[0];
        for through_eqz in [false, true] {
            for as_if in [false, true] {
                for imm in [false, true] {
                    for [a, b] in pairs(ty) {
                        let what = format!("{instr} eqz={through_eqz} if={as_if} imm={imm}");
                        let mut cond = vec![Instr::LocalGet(0)];
                        cond.push(if imm { constant(b) } else { Instr::LocalGet(1) });
                        cond.push(instr.clone());
                        if through_eqz {
                            cond.push(Instr::I32Eqz);
                        }
                        let body = if as_if {
                            cond.push(Instr::If(
                                BlockType::Value(ValType::I64),
                                vec![Instr::I64Const(10)],
                                vec![Instr::I64Const(20)],
                            ));
                            cond
                        } else {
                            cond.push(Instr::BrIf(0));
                            cond.extend([Instr::I64Const(20), Instr::Return]);
                            vec![Instr::Block(BlockType::Empty, cond), Instr::I64Const(10)]
                        };
                        let (m, code) = lowered(&what, &[ty, ty], &[ValType::I64], &[], body);
                        // `br_if` branches on non-zero, `if` away on zero;
                        // the `eqz` turns either around.
                        let negate = as_if != through_eqz;
                        let fused = count_ops(&code, |o| match (o, imm) {
                            (
                                RegOp::BrCmp {
                                    op: o, negate: n, ..
                                },
                                false,
                            )
                            | (
                                RegOp::BrCmpImm {
                                    op: o, negate: n, ..
                                },
                                true,
                            ) => *o == op && *n == negate,
                            _ => false,
                        });
                        let unfused = count_ops(&code, |o| {
                            matches!(
                                o,
                                RegOp::Alu { .. }
                                    | RegOp::AluImm { .. }
                                    | RegOp::Una { .. }
                                    | RegOp::BrIf { .. }
                                    | RegOp::BrIfZ { .. }
                            )
                        });
                        assert_eq!((fused, unfused), (1, 0), "{what}: {:?}", code.ops);
                        let (out, counts) = on_both_tiers(&what, &m, &[a, b]);
                        let holds = op.eval(a.to_slot(), b.to_slot()) as u32 != 0;
                        let expected = if holds != through_eqz { 10 } else { 20 };
                        assert_eq!(out, Ok(vec![expected]), "{what}: {a:?} {b:?}");
                        // get, get/const, compare [, eqz], branch, and on
                        // the `br_if`'s fall-through a `return` — and in
                        // each form the arm's constant.
                        let returns = u64::from(!as_if && expected == 20);
                        assert_eq!(
                            counts.instr_count(),
                            5 + u64::from(through_eqz) + returns,
                            "{what}: {a:?} {b:?}"
                        );
                    }
                }
            }
        }
    }

    // An `i32.eqz` of something that is no two-operand op turns the branch
    // around and goes.
    let (m, code) = lowered(
        "bare eqz",
        &[ValType::I32],
        &[ValType::I64],
        &[],
        vec![
            Instr::Block(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I32Eqz,
                    Instr::BrIf(0),
                    Instr::I64Const(20),
                    Instr::Return,
                ],
            ),
            Instr::I64Const(10),
        ],
    );
    let flipped = count_ops(&code, |o| matches!(o, RegOp::BrIfZ { .. }));
    let unfused = count_ops(&code, |o| {
        matches!(o, RegOp::Una { .. } | RegOp::BrIf { .. })
    });
    assert_eq!((flipped, unfused), (1, 0), "{:?}", code.ops);
    for (arg, expected) in [(0, 10), (1, 20), (-1, 20)] {
        let (out, _) = on_both_tiers("bare eqz", &m, &[Value::I32(arg)]);
        assert_eq!(out, Ok(vec![expected]), "bare eqz {arg}");
    }
}

#[test]
fn selection_coalesces_an_op_with_the_phi_copy_that_reads_it() {
    // sum = 0; for (i = 0; i < n; i++) sum += i * i — two loop-carried
    // variables, each written by the op that computes its next value: no
    // `Move` is left in the loop.
    let body = vec![
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(1),
                    Instr::LocalGet(0),
                    Instr::I64GeS,
                    Instr::BrIf(1),
                    Instr::LocalGet(2),
                    Instr::LocalGet(1),
                    Instr::LocalGet(1),
                    Instr::I64Mul,
                    Instr::I64Add,
                    Instr::LocalSet(2),
                    Instr::LocalGet(1),
                    Instr::I64Const(1),
                    Instr::I64Add,
                    Instr::LocalSet(1),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::LocalGet(2),
    ];
    let (m, code) = lowered(
        "sum of squares",
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64, ValType::I64],
        body,
    );
    assert_eq!(
        count_ops(&code, |o| matches!(o, RegOp::Move { .. })),
        0,
        "{:?}",
        code.ops
    );
    assert_eq!(count_ops(&code, |o| matches!(o, RegOp::BrCmp { .. })), 1);
    for n in [0i64, 1, 2, 10] {
        let (out, _) = on_both_tiers("sum of squares", &m, &[Value::I64(n)]);
        let expected: i64 = (0..n).map(|i| i * i).sum();
        assert_eq!(out, Ok(vec![expected as u64]), "n = {n}");
    }

    // Both arms of an `if` write the join's phi where they compute it.
    let (m, code) = lowered(
        "if/else value",
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Eqz,
            Instr::If(
                BlockType::Value(ValType::I64),
                vec![Instr::LocalGet(0), Instr::I64Const(5), Instr::I64Add],
                vec![Instr::LocalGet(0), Instr::I64Const(3), Instr::I64Mul],
            ),
        ],
    );
    assert_eq!(
        count_ops(&code, |o| matches!(o, RegOp::Move { .. })),
        0,
        "{:?}",
        code.ops
    );
    for (arg, expected) in [(0i64, 5u64), (7, 21)] {
        let (out, _) = on_both_tiers("if/else value", &m, &[Value::I64(arg)]);
        assert_eq!(out, Ok(vec![expected]));
    }
}

#[test]
fn selection_folds_a_unary_op_of_a_constant_into_a_charged_constant() {
    // `(long)3`: the widening retires (class `zero`) without an op.
    let (m, code) = lowered(
        "extend of a constant",
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I32Const(-3),
            Instr::I64ExtendI32S,
            Instr::I64Add,
        ],
    );
    assert!(
        matches!(
            code.ops.as_ref(),
            [RegOp::AluImm { op: AluOp::I64Add, k, .. }, RegOp::Ret { .. }] if *k == -3i64 as u64
        ),
        "{:?}",
        code.ops
    );
    let (out, counts) = on_both_tiers("extend of a constant", &m, &[Value::I64(10)]);
    assert_eq!(out, Ok(vec![7]));
    let mut expected = ChargeCounts::default();
    expected.counts[ChargeClass::Simple as usize] = 3;
    expected.counts[ChargeClass::Zero as usize] = 1;
    assert_eq!(counts, expected);

    // A float op folds too, and its tag — not `simple` — rides on the
    // carrier: here the function's `ret`.
    let (m, code) = lowered(
        "sqrt of a constant",
        &[],
        &[ValType::F64],
        &[],
        vec![
            Instr::F64Const(9f64.to_bits()),
            Instr::F64Sqrt,
            Instr::F64Neg,
        ],
    );
    assert_eq!(count_ops(&code, |o| matches!(o, RegOp::Una { .. })), 0);
    let (out, counts) = on_both_tiers("sqrt of a constant", &m, &[]);
    assert_eq!(out, Ok(vec![(-3f64).to_bits()]));
    let mut expected = ChargeCounts::default();
    expected.counts[ChargeClass::Simple as usize] = 1;
    expected.counts[ChargeClass::Float as usize] = 1;
    expected.counts[ChargeClass::FloatDiv as usize] = 1;
    assert_eq!(counts, expected);
}

#[test]
fn selection_must_not_fuse_table() {
    use ValType::{I32, I64};
    let una = |code: &RegCode, which: UnaOp| {
        count_ops(code, |o| matches!(o, RegOp::Una { op, .. } if *op == which))
    };
    let index_adds = |code: &RegCode| count_ops(code, |o| matches!(o, RegOp::IndexAdd { .. }));

    // The widened index is `local.tee`'d and read again: it stays an op
    // of its own (the product still fuses into the sum).
    let (m, code) = lowered(
        "widened index read twice",
        &[I64, I32],
        &[I64],
        &[I64],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I64ExtendI32S,
            Instr::LocalTee(2),
            Instr::I64Const(8),
            Instr::I64Mul,
            Instr::I64Add,
            Instr::LocalGet(2),
            Instr::I64Xor,
        ],
    );
    assert_eq!(una(&code, UnaOp::I64ExtendI32S), 1, "{:?}", code.ops);
    assert!(
        code.ops.iter().any(|o| matches!(
            o,
            RegOp::IndexAdd {
                ext: IndexExt::None,
                ..
            }
        )),
        "{:?}",
        code.ops
    );
    let (out, _) = on_both_tiers(
        "widened index read twice",
        &m,
        &[Value::I64(100), Value::I32(-2)],
    );
    assert_eq!(out, Ok(vec![((100 - 16) ^ -2i64) as u64]));

    // The product is read again: nothing fuses.
    let (m, code) = lowered(
        "product read twice",
        &[I64, I32],
        &[I64],
        &[I64],
        vec![
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I64ExtendI32U,
            Instr::I64Const(8),
            Instr::I64Mul,
            Instr::LocalTee(2),
            Instr::I64Add,
            Instr::LocalGet(2),
            Instr::I64Sub,
        ],
    );
    assert_eq!(index_adds(&code), 0, "{:?}", code.ops);
    let (out, _) = on_both_tiers("product read twice", &m, &[Value::I64(100), Value::I32(3)]);
    assert_eq!(out, Ok(vec![100]));

    // The product is loop-carried: besides the sum, a phi copy reads it.
    let carried = vec![
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    // acc += prev; prev = i * 8; acc += base + prev
                    Instr::LocalGet(3),
                    Instr::LocalGet(2),
                    Instr::I64Add,
                    Instr::LocalGet(0),
                    Instr::LocalGet(1),
                    Instr::I64Const(8),
                    Instr::I64Mul,
                    Instr::LocalTee(2),
                    Instr::I64Add,
                    Instr::I64Add,
                    Instr::LocalSet(3),
                    Instr::LocalGet(1),
                    Instr::I64Const(1),
                    Instr::I64Sub,
                    Instr::LocalTee(1),
                    Instr::I64Eqz,
                    Instr::BrIf(1),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::LocalGet(3),
    ];
    let (m, code) = lowered(
        "product feeds a phi",
        &[I64, I64],
        &[I64],
        &[I64, I64],
        carried,
    );
    assert_eq!(index_adds(&code), 0, "{:?}", code.ops);
    let (out, _) = on_both_tiers(
        "product feeds a phi",
        &m,
        &[Value::I64(1000), Value::I64(3)],
    );
    // i = 3, 2, 1: prev = 0, 24, 16 going in; base + i * 8 each round.
    assert_eq!(out, Ok(vec![24 + 16 + 3 * 1000 + 24 + 16 + 8]));

    // A division between the product and the sum: the chain is not
    // adjacent, and when the division traps the sum's charges must not
    // have been taken yet.
    let (m, code) = lowered(
        "division between the parts",
        &[I64, I32, I64],
        &[I64],
        &[I64],
        vec![
            Instr::LocalGet(1),
            Instr::I64ExtendI32S,
            Instr::I64Const(8),
            Instr::I64Mul,
            Instr::LocalGet(0),
            Instr::LocalGet(2),
            Instr::I64DivU,
            Instr::LocalSet(3),
            Instr::LocalGet(0),
            Instr::I64Add,
            Instr::LocalGet(3),
            Instr::I64Add,
        ],
    );
    assert_eq!(index_adds(&code), 0, "{:?}", code.ops);
    let args = |divisor| [Value::I64(96), Value::I32(2), Value::I64(divisor)];
    let (out, _) = on_both_tiers("division between the parts", &m, &args(3));
    assert_eq!(out, Ok(vec![16 + 96 + 32]));
    let (out, counts) = on_both_tiers("division between the parts", &m, &args(0));
    assert_eq!(out, Err(Trap::DivideByZero));
    let mut expected = ChargeCounts::default();
    expected.counts[ChargeClass::Simple as usize] = 5;
    expected.counts[ChargeClass::Zero as usize] = 1;
    expected.counts[ChargeClass::Div as usize] = 1;
    assert_eq!(counts, expected);

    // old = i; i = i + 1; if (old < n) continue — in a one-block loop the
    // block's own copy batch overwrites `i` before the terminator runs, so
    // a comparison that reads the old `i` has to run where it stood.
    let pre_increment = |through_eqz: bool| {
        let mut body = vec![
            Instr::LocalGet(0),
            Instr::LocalGet(0),
            Instr::I64Const(1),
            Instr::I64Add,
            Instr::LocalSet(0),
            Instr::LocalGet(1),
        ];
        body.push(if through_eqz {
            Instr::I64GeS
        } else {
            Instr::I64LtS
        });
        if through_eqz {
            body.push(Instr::I32Eqz);
        }
        body.push(Instr::BrIf(0));
        vec![Instr::Loop(BlockType::Empty, body), Instr::LocalGet(0)]
    };
    for through_eqz in [false, true] {
        let what = format!("pre-increment phi loop (eqz={through_eqz})");
        let (m, code) = lowered(&what, &[I64, I64], &[I64], &[], pre_increment(through_eqz));
        let fused = count_ops(&code, |o| {
            matches!(o, RegOp::BrCmp { .. } | RegOp::BrCmpImm { .. })
        });
        assert_eq!(fused, 0, "{what}: {:?}", code.ops);
        for (n, expected) in [(0i64, 1u64), (1, 2), (5, 6), (-3, 1)] {
            let (out, _) = on_both_tiers(&what, &m, &[Value::I64(0), Value::I64(n)]);
            assert_eq!(out, Ok(vec![expected]), "{what}: n = {n}");
        }
    }
    // The same with a bare `i32.eqz` of the old value: the branch may not
    // read it after the copies either.
    let (m, code) = lowered(
        "pre-decrement phi loop through a bare eqz",
        &[I32],
        &[I32],
        &[],
        vec![
            Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::LocalGet(0),
                    Instr::I32Const(1),
                    Instr::I32Sub,
                    Instr::LocalSet(0),
                    Instr::I32Eqz,
                    Instr::BrIf(0),
                ],
            ),
            Instr::LocalGet(0),
        ],
    );
    assert_eq!(una(&code, UnaOp::I32Eqz), 1, "{:?}", code.ops);
    for (arg, expected) in [(0i32, -2i32), (1, 0), (5, 4)] {
        let (out, _) = on_both_tiers("bare eqz of the old phi", &m, &[Value::I32(arg)]);
        assert_eq!(out, Ok(vec![u64::from(expected as u32)]), "arg = {arg}");
    }

    // `i32.trunc_f64_s(NaN)` of a constant stays an op, and traps.
    let (m, code) = lowered(
        "trunc of a constant NaN",
        &[],
        &[I32],
        &[],
        vec![Instr::F64Const(f64::NAN.to_bits()), Instr::I32TruncF64S],
    );
    assert_eq!(una(&code, UnaOp::I32TruncF64S), 1, "{:?}", code.ops);
    let (out, counts) = on_both_tiers("trunc of a constant NaN", &m, &[]);
    assert_eq!(out, Err(Trap::InvalidConversion));
    let mut expected = ChargeCounts::default();
    expected.counts[ChargeClass::Simple as usize] = 1;
    expected.counts[ChargeClass::Float as usize] = 1;
    assert_eq!(counts, expected);

    // The phi's old value is read after the op that computes its next
    // one: the op may not write the phi early.
    let read_after = vec![
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I64Eqz,
                    Instr::BrIf(1),
                    // next = i - 1 (on the stack); acc += i * i; i = next
                    Instr::LocalGet(0),
                    Instr::I64Const(1),
                    Instr::I64Sub,
                    Instr::LocalGet(1),
                    Instr::LocalGet(0),
                    Instr::LocalGet(0),
                    Instr::I64Mul,
                    Instr::I64Add,
                    Instr::LocalSet(1),
                    Instr::LocalSet(0),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::LocalGet(1),
    ];
    let (m, code) = lowered(
        "phi read after its next value",
        &[I64],
        &[I64],
        &[I64],
        read_after,
    );
    assert!(
        code.ops.iter().any(|o| matches!(
            o,
            RegOp::AluImm { op: AluOp::I64Sub, dst, a, .. } if dst != a
        )),
        "{:?}",
        code.ops
    );
    let (out, _) = on_both_tiers("phi read after its next value", &m, &[Value::I64(4)]);
    assert_eq!(out, Ok(vec![16 + 9 + 4 + 1]));

    // a, b = b, a + b: the copy `a <- b` still reads the phi the sum would
    // write.
    let fib = vec![
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I64Eqz,
                    Instr::BrIf(1),
                    Instr::LocalGet(2),
                    Instr::LocalGet(1),
                    Instr::LocalGet(2),
                    Instr::I64Add,
                    Instr::LocalSet(2),
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
    ];
    let fib = [vec![Instr::I64Const(1), Instr::LocalSet(2)], fib].concat();
    let (m, _) = lowered("fibonacci swap", &[I64], &[I64], &[I64, I64], fib);
    for (n, expected) in [(0i64, 0u64), (1, 1), (2, 1), (10, 55)] {
        let (out, _) = on_both_tiers("fibonacci swap", &m, &[Value::I64(n)]);
        assert_eq!(out, Ok(vec![expected]), "fib({n})");
    }
}
