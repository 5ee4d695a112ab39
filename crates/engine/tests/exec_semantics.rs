//! End-to-end execution semantics: whole modules through the interpreter.

use cage_engine::{
    BoundsCheckStrategy, ChargeClass, ChargeCounts, CostModel, ExecConfig, Imports,
    InstantiateError, InternalSafety, Store, Trap, Value,
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
    b.export_func("grow", grow);
    b.export_func("size", size);
    let m = b.build();
    let mut store = Store::new(ExecConfig::default());
    let h = store.instantiate(&m, &Imports::new()).unwrap();
    assert_eq!(store.invoke(h, "size", &[]).unwrap(), vec![Value::I64(1)]);
    assert_eq!(
        store.invoke(h, "grow", &[Value::I64(2)]).unwrap(),
        vec![Value::I64(1)]
    );
    assert_eq!(store.invoke(h, "size", &[]).unwrap(), vec![Value::I64(3)]);
    // Past the max: -1.
    assert_eq!(
        store.invoke(h, "grow", &[Value::I64(1)]).unwrap(),
        vec![Value::I64(-1)]
    );
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
    // lowering or of `exec_op`) and agree with the tree oracle on result
    // or trap, cycle bits and retired count.
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

    let configs = [
        ExecConfig::default(),
        ExecConfig {
            internal: InternalSafety::Mte,
            pointer_auth: true,
            ..ExecConfig::default()
        },
    ];
    // Five argument rows per instruction. Three feed every parameter the
    // same value: zeros (division and bulk-op edge), small in-range
    // values, and negative/non-finite ones (out-of-bounds addresses,
    // trapping truncations). Two depend on the parameter's position, for
    // what only a *pair* of operands reaches: `MIN / -1`, a shift count
    // past the width, the zero-sign tie of `min`/`max`/`copysign`, and
    // finite truncations out of range (3e9 for i32, 2^63 for i64).
    const ROWS: usize = 5;
    let arg = |ty: ValType, row: usize, pos: usize| {
        let p = pos % 2;
        match ty {
            ValType::I32 => Value::I32([[0; 2], [16; 2], [-7; 2], [i32::MIN, -1], [1, 65]][row][p]),
            ValType::I64 => Value::I64([[0; 2], [16; 2], [-7; 2], [i64::MIN, -1], [1, 65]][row][p]),
            ValType::F32 => Value::F32(
                [
                    [0.0; 2],
                    [1.5; 2],
                    [f32::NAN; 2],
                    [0.0, -0.0],
                    [3e9, 9_223_372_036_854_775_808.0],
                ][row][p],
            ),
            ValType::F64 => Value::F64(
                [
                    [0.0; 2],
                    [1.5; 2],
                    [f64::NEG_INFINITY; 2],
                    [0.0, -0.0],
                    [3e9, 9_223_372_036_854_775_808.0],
                ][row][p],
            ),
        }
    };
    for instr in &instrs {
        let (params, results) = data_signature(instr);
        let mut body: Vec<Instr> = (0..params.len() as u32).map(Instr::LocalGet).collect();
        body.push(instr.clone());
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_global(ValType::I64, true, Instr::I64Const(5));
        // One declared local, so `local.get 0` has a local to read.
        let f = b.add_function(&params, &results, &[ValType::I64], body);
        b.export_func("f", f);
        let m = b.build();
        cage_wasm::validate(&m).unwrap_or_else(|e| panic!("{instr}: {e}"));
        for config in configs {
            for row in 0..ROWS {
                let args: Vec<Value> = params
                    .iter()
                    .enumerate()
                    .map(|(pos, &ty)| arg(ty, row, pos))
                    .collect();
                let outcome = |tree: bool| {
                    let mut store = Store::new(config);
                    let h = store.instantiate(&m, &Imports::new()).unwrap();
                    let out = if tree {
                        store.call_tree(h, f, &args)
                    } else {
                        store.call(h, f, &args)
                    };
                    // NaN results compare by bit pattern.
                    let out = out.map(|vs| vs.iter().map(|v| v.to_slot()).collect::<Vec<_>>());
                    (out, store.charge_counts(h))
                };
                assert_eq!(
                    outcome(false),
                    outcome(true),
                    "{instr} row {row} {config:?}"
                );
            }
        }
    }
}
