//! How the register lowering scales on a tenant-supplied module.
//!
//! A module within the default [`CompileLimits`] must cost time and
//! memory in proportion to its size — or be refused. The two things that
//! can outgrow the input are the SSA builder's definition rows (blocks ×
//! variables) and the liveness propagation (blocks × values live across
//! them); both charge [`CompileFuel`] for what they do, so the tests
//! assert on the fuel a lowering consumed and on the [`LimitError`] that
//! ends a hostile one — never on wall clock.

use cage_engine::store::InstantiateError;
use cage_engine::{ExecConfig, Imports, Precompiled, Store, Value};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{BlockType, CompileLimits, Instr, Module, ValType};

/// `n` sequential diamonds in one function: `if (x & k) acc += k` for
/// `k = 1..=n`. Two values (`x`, `acc`) are live in every block.
fn diamond_ladder(n: i64) -> Module {
    let mut body = Vec::new();
    for k in 1..=n {
        body.extend([
            Instr::LocalGet(0),
            Instr::I64Const(k),
            Instr::I64And,
            Instr::I32WrapI64,
            Instr::If(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(1),
                    Instr::I64Const(k),
                    Instr::I64Add,
                    Instr::LocalSet(1),
                ],
                vec![],
            ),
        ]);
    }
    body.push(Instr::LocalGet(1));
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[ValType::I64], &[ValType::I64], &[ValType::I64], body);
    b.export_func("run", f);
    b.build()
}

/// Fuel the whole compile (validation and lowering) of `module` takes
/// under the default limits, and the template.
fn compile_counting_fuel(module: Module) -> (u64, Precompiled) {
    let limits = CompileLimits::default();
    let fuel = limits.fuel();
    let pre = Precompiled::compile(module, &limits, &fuel).expect("within the default limits");
    (fuel.consumed(), pre)
}

#[test]
fn a_diamond_ladder_lowers_in_fuel_linear_in_its_length() {
    let (small, _) = compile_counting_fuel(diamond_ladder(4_000));
    let (large, pre) = compile_counting_fuel(diamond_ladder(16_000));
    assert!(
        large as f64 <= small as f64 * 4.5,
        "4x the diamonds took {large} fuel against {small}: the lowering is superlinear again"
    );

    // And the code is right: the sum of the k that share a bit with x.
    let mut store = Store::new(ExecConfig::default());
    let h = store
        .instantiate_precompiled(&pre, &Imports::new())
        .expect("instantiates");
    let x = 0x5a5a;
    let expected: i64 = (1..=16_000).filter(|k| k & x != 0).sum();
    let out = store.invoke(h, "run", &[Value::I64(x)]).expect("runs");
    assert_eq!(out, [Value::I64(expected)]);
}

/// `n` address computations in a row: `acc = acc + (long)i * 8`, each an
/// `ext; mul; add` chain for instruction selection to fuse.
fn address_chain(n: usize) -> Module {
    let mut body = Vec::new();
    for _ in 0..n {
        body.extend([
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::I64ExtendI32S,
            Instr::I64Const(8),
            Instr::I64Mul,
            Instr::I64Add,
            Instr::LocalSet(0),
        ]);
    }
    body.push(Instr::LocalGet(0));
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[ValType::I64, ValType::I32], &[ValType::I64], &[], body);
    b.export_func("run", f);
    b.build()
}

/// `n` rungs of `if (x < k) skip; acc += k`, each a comparison for
/// instruction selection to fuse into its branch.
fn compare_branch_ladder(n: i64) -> Module {
    let mut body = Vec::new();
    for k in 1..=n {
        body.push(Instr::Block(
            BlockType::Empty,
            vec![
                Instr::LocalGet(0),
                Instr::I64Const(k),
                Instr::I64LtS,
                Instr::BrIf(0),
                Instr::LocalGet(1),
                Instr::I64Const(k),
                Instr::I64Add,
                Instr::LocalSet(1),
            ],
        ));
    }
    body.push(Instr::LocalGet(1));
    let mut b = ModuleBuilder::new();
    let f = b.add_function(&[ValType::I64], &[ValType::I64], &[ValType::I64], body);
    b.export_func("run", f);
    b.build()
}

#[test]
fn instruction_selection_lowers_in_fuel_linear_in_the_chains_it_fuses() {
    let run = |pre: &Precompiled, args: &[Value]| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate_precompiled(pre, &Imports::new())
            .expect("instantiates");
        store.invoke(h, "run", args).expect("runs")
    };
    let fused = |pre: &Precompiled, form: &str| {
        let text = pre.disassemble(0).expect("local function");
        text.lines().filter(|l| l.contains(form)).count()
    };

    let (small, _) = compile_counting_fuel(address_chain(4_000));
    let (large, pre) = compile_counting_fuel(address_chain(16_000));
    assert!(
        large as f64 <= small as f64 * 4.5,
        "4x the address triples took {large} fuel against {small}"
    );
    assert_eq!(fused(&pre, " + sext r"), 16_000);
    let out = run(&pre, &[Value::I64(5), Value::I32(-3)]);
    assert_eq!(out, [Value::I64(5 - 3 * 8 * 16_000)]);

    let (small, _) = compile_counting_fuel(compare_branch_ladder(4_000));
    let (large, pre) = compile_counting_fuel(compare_branch_ladder(16_000));
    assert!(
        large as f64 <= small as f64 * 4.5,
        "4x the compare-branch rungs took {large} fuel against {small}"
    );
    assert_eq!(fused(&pre, ": br_cmp I64LtS r"), 16_000);
    let x = 9_000;
    let expected: i64 = (1..=x).sum();
    assert_eq!(run(&pre, &[Value::I64(x)]), [Value::I64(expected)]);
}

fn assert_runs_out_of_fuel(module: Module) {
    let limits = CompileLimits::default();
    match Precompiled::with_limits(&module, &limits) {
        Err(InstantiateError::CompileLimit(l)) => {
            assert_eq!(l.what, "compile fuel", "{l}");
            assert_eq!(l.limit, limits.max_compile_fuel);
        }
        Err(other) => panic!("expected a compile-fuel rejection, got {other}"),
        Ok(_) => panic!("expected a compile-fuel rejection, got a template"),
    }
}

/// `n` diamonds that change nothing: `if (x) {}`.
fn idle_diamonds(n: usize) -> impl Iterator<Item = Instr> {
    (0..n).flat_map(|_| {
        [
            Instr::LocalGet(0),
            Instr::I32WrapI64,
            Instr::If(BlockType::Empty, vec![Instr::Nop], vec![]),
        ]
    })
}

#[test]
fn many_variables_across_many_joins_end_in_compile_fuel() {
    // 1 000 locals set up front and read back after 60 000 joins: every
    // join on the way has to hold a definition of every one of them —
    // 60 M cells for a 250 k-op body. Refused, not allocated.
    const VARS: u32 = 1_000;
    let mut body = Vec::new();
    for v in 1..=VARS {
        body.extend([
            Instr::LocalGet(0),
            Instr::I64Const(i64::from(v)),
            Instr::I64Add,
            Instr::LocalSet(v),
        ]);
    }
    body.extend(idle_diamonds(60_000));
    body.push(Instr::LocalGet(0));
    for v in 1..=VARS {
        body.extend([Instr::LocalGet(v), Instr::I64Add]);
    }
    let locals = vec![ValType::I64; VARS as usize];
    let mut b = ModuleBuilder::new();
    b.add_function(&[ValType::I64], &[ValType::I64], &locals, body);
    assert_runs_out_of_fuel(b.build());
}

#[test]
fn many_stack_values_across_many_blocks_end_in_compile_fuel() {
    // 2 000 operand-stack values pushed up front and folded after
    // 100 000 diamonds: one variable, so the SSA builder's rows are
    // trivial, but every value is live across every block — 600 M
    // (value, block) pairs for the liveness pass. Refused.
    const VALUES: i64 = 2_000;
    let mut body = Vec::new();
    for v in 1..=VALUES {
        body.extend([Instr::LocalGet(0), Instr::I64Const(v), Instr::I64Add]);
    }
    body.extend(idle_diamonds(100_000));
    body.extend(std::iter::repeat_n(Instr::I64Add, VALUES as usize - 1));
    let mut b = ModuleBuilder::new();
    b.add_function(&[ValType::I64], &[ValType::I64], &[], body);
    assert_runs_out_of_fuel(b.build());
}
