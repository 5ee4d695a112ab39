//! Trap-conformance matrix for the memory tiers.
//!
//! Every `LoadOp`/`StoreOp` width is executed at a matrix of addresses
//! (in-bounds, granule-straddling, exactly-at-end, one-past-end, far
//! out-of-bounds) under all four tag schemes, through both execution
//! paths:
//!
//! * the **register tier** (`Store::call`, what production runs): SSA
//!   construction and linear-scan slot assignment lower the body to
//!   generic 3-address ops over a per-frame register file;
//! * the **tree oracle** (`Store::call_tree`): the structured walker,
//!   the reference implementation.
//!
//! Both must agree on the trap kind *and payload*, and — because each
//! register op carries the charge classes of the source ops it retired —
//! on the whole vector of retired counts per class too (cycles and the
//! retired-instruction count are derived from it).
//!
//! Separate `FuelExhausted` and `EpochInterrupt` rows pin deterministic
//! preemption: the same program under the same fuel budget (or an
//! already-due epoch deadline) traps at the identical count vector,
//! across runs and across lowerings of the same loop —
//! and where both expire at once, fuel wins. The tree oracle does not
//! model preemption, so the preemption points themselves are pinned as
//! literals (recorded while a second bytecode tier still existed and
//! agreed with them).

use cage_engine::ChargeClass::{Branch, Call, CallIndirect, Simple};
use cage_engine::{
    BoundsCheckStrategy, ChargeClass, ChargeCounts, ExecConfig, Imports, InternalSafety,
    Precompiled, Store, Trap, Value,
};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::{BlockType, Instr, MemArg, Module, ValType};

const PAGE: u64 = 65_536;

/// Locals after the i64 address parameter: one zero value per type, so
/// stores of every width have a register operand of the right type.
const I32_VAL: u32 = 1;
const I64_VAL: u32 = 2;
const F32_VAL: u32 = 3;
const F64_VAL: u32 = 4;

fn value_local(ty: ValType) -> u32 {
    match ty {
        ValType::I32 => I32_VAL,
        ValType::I64 => I64_VAL,
        ValType::F32 => F32_VAL,
        ValType::F64 => F64_VAL,
    }
}

const ALL_LOADS: [LoadOp; 14] = [
    LoadOp::I32Load,
    LoadOp::I64Load,
    LoadOp::F32Load,
    LoadOp::F64Load,
    LoadOp::I32Load8S,
    LoadOp::I32Load8U,
    LoadOp::I32Load16S,
    LoadOp::I32Load16U,
    LoadOp::I64Load8S,
    LoadOp::I64Load8U,
    LoadOp::I64Load16S,
    LoadOp::I64Load16U,
    LoadOp::I64Load32S,
    LoadOp::I64Load32U,
];

const ALL_STORES: [StoreOp; 9] = [
    StoreOp::I32Store,
    StoreOp::I64Store,
    StoreOp::F32Store,
    StoreOp::F64Store,
    StoreOp::I32Store8,
    StoreOp::I32Store16,
    StoreOp::I64Store8,
    StoreOp::I64Store16,
    StoreOp::I64Store32,
];

/// Builds a module with an adjacent and a block-fenced variant of one
/// access.
///
/// The adjacent body keeps `local.get` next to the memory op; the fenced
/// body routes the same operand through a `block`, whose end binds a
/// label. SSA dissolves the fence into the same generic 3-address access
/// either way — only the charge recipes land on different ops — so the
/// two variants exercise distinct lowerings of one semantics, and even
/// cycle bits can be compared.
fn matrix_module(access: Access) -> Module {
    let locals = [ValType::I32, ValType::I64, ValType::F32, ValType::F64];
    let (adjacent, fenced) = match access {
        Access::Load(op) => (
            vec![
                Instr::LocalGet(0),
                Instr::Load(op, MemArg::none()),
                Instr::Drop,
            ],
            vec![
                Instr::Block(BlockType::Value(ValType::I64), vec![Instr::LocalGet(0)]),
                Instr::Load(op, MemArg::none()),
                Instr::Drop,
            ],
        ),
        Access::Store(op) => {
            let val = value_local(op.value_type());
            (
                vec![
                    Instr::LocalGet(0),
                    Instr::LocalGet(val),
                    Instr::Store(op, MemArg::none()),
                ],
                vec![
                    Instr::LocalGet(0),
                    Instr::Block(
                        BlockType::Value(op.value_type()),
                        vec![Instr::LocalGet(val)],
                    ),
                    Instr::Store(op, MemArg::none()),
                ],
            )
        }
    };
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let a = b.add_function(&[ValType::I64], &[], &locals, adjacent);
    let f = b.add_function(&[ValType::I64], &[], &locals, fenced);
    assert_eq!((a, f), (0, 1));
    b.build()
}

#[derive(Clone, Copy, Debug)]
enum Access {
    Load(LoadOp),
    Store(StoreOp),
}

impl Access {
    fn width(self) -> u64 {
        match self {
            Access::Load(op) => op.width(),
            Access::Store(op) => op.width(),
        }
    }
}

/// The four tag schemes of the paper's deployment matrix.
fn schemes() -> [(&'static str, ExecConfig); 4] {
    let base = ExecConfig::default();
    [
        (
            "none",
            ExecConfig {
                bounds: BoundsCheckStrategy::Software,
                internal: InternalSafety::Off,
                ..base
            },
        ),
        (
            "internal-only",
            ExecConfig {
                bounds: BoundsCheckStrategy::Software,
                internal: InternalSafety::Mte,
                ..base
            },
        ),
        (
            "sandbox-only",
            ExecConfig {
                bounds: BoundsCheckStrategy::MteSandbox,
                internal: InternalSafety::Off,
                ..base
            },
        ),
        (
            "combined",
            ExecConfig {
                bounds: BoundsCheckStrategy::MteSandbox,
                internal: InternalSafety::Mte,
                ..base
            },
        ),
    ]
}

/// The address classes of the matrix; `must_trap`/`must_pass` pin the
/// expected outcome where it is scheme-independent.
fn addr_cases(width: u64) -> [(&'static str, u64, Expect); 5] {
    [
        ("in_bounds", 64, Expect::Pass),
        // Straddles a 16-byte MTE granule boundary for width >= 2;
        // unaligned accesses are legal in wasm, so this must not trap.
        ("unaligned_granule", 15, Expect::Pass),
        ("end_ok", PAGE - width, Expect::Pass),
        ("one_past_end", PAGE - width + 1, Expect::Trap),
        ("far_oob", 1 << 40, Expect::Trap),
    ]
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Expect {
    Pass,
    Trap,
}

#[derive(Clone, Copy, Debug)]
enum Tier {
    Reg,
    Tree,
}

fn run_path(
    config: ExecConfig,
    module: &Module,
    func: u32,
    addr: u64,
    tier: Tier,
) -> (Result<Vec<Value>, Trap>, ChargeCounts) {
    let mut store = Store::new(config);
    let h = store
        .instantiate(module, &Imports::new())
        .expect("instantiates");
    let args = [Value::I64(addr as i64)];
    let result = match tier {
        Tier::Reg => store.call(h, func, &args),
        Tier::Tree => store.call_tree(h, func, &args),
    };
    (result, store.charge_counts(h))
}

/// A count vector from its non-zero classes.
fn counts(classes: &[(ChargeClass, u64)]) -> ChargeCounts {
    let mut counts = ChargeCounts::default();
    for &(class, n) in classes {
        counts.counts[class as usize] = n;
    }
    counts
}

/// The non-zero classes of a count vector (how the literals below are
/// written; a mismatch prints this form).
fn classes(counts: &ChargeCounts) -> Vec<(ChargeClass, u64)> {
    assert_eq!(counts.host_cycles, 0.0);
    counts.iter().filter(|&(_, n)| n != 0).collect()
}

#[test]
fn every_width_addr_and_scheme_agrees_across_both_tiers() {
    let accesses: Vec<Access> = ALL_LOADS
        .iter()
        .map(|&l| Access::Load(l))
        .chain(ALL_STORES.iter().map(|&s| Access::Store(s)))
        .collect();
    for access in accesses {
        let module = matrix_module(access);
        for (scheme, config) in schemes() {
            for (case, addr, expect) in addr_cases(access.width()) {
                let cell = format!("{access:?} @ {case} under {scheme}");
                let reg = run_path(config, &module, 0, addr, Tier::Reg);
                let tree = run_path(config, &module, 0, addr, Tier::Tree);

                // Register tier vs tree oracle: identical outcome (trap
                // kind and payload), cycle bits and retired instructions
                // — same function, so everything must match.
                assert_eq!(reg, tree, "{cell}: register tier vs tree oracle");

                // The fenced lowering of the same access, through both
                // paths: same everything again.
                let fenced = run_path(config, &module, 1, addr, Tier::Reg);
                let fenced_tree = run_path(config, &module, 1, addr, Tier::Tree);
                assert_eq!(
                    fenced, fenced_tree,
                    "{cell}: fenced body diverged between register tier and tree oracle"
                );

                // Adjacent vs fenced: same trap kind and payload.
                match (&reg.0, &fenced.0) {
                    (Ok(_), Ok(_)) => {}
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{cell}: adjacent vs fenced trap payloads");
                    }
                    _ => panic!(
                        "{cell}: outcome diverged: adjacent {:?}, fenced {:?}",
                        reg.0, fenced.0
                    ),
                }

                // Scheme-independent expectations: OOB must trap under
                // every scheme, everything in-bounds must pass.
                match expect {
                    Expect::Pass => {
                        assert!(reg.0.is_ok(), "{cell}: expected pass, got {:?}", reg.0);
                    }
                    Expect::Trap => {
                        assert!(reg.0.is_err(), "{cell}: expected a trap");
                    }
                }
            }
        }
    }
}

/// The bulk rows: `memory.fill` and both sides of `memory.copy` over a
/// 64-granule segment in which one granule has been retagged. A bulk
/// access is one tag check over the whole range, which the tag store
/// answers 16 granules per compared word — so the needle sits first, at
/// the last granule before a word seam, on it, just past it, and last.
/// The fault must name that granule and its tag, identically (payload,
/// cycle bits, retired count) on the register tier and the tree oracle.
#[test]
fn bulk_ops_fault_at_the_first_mismatching_granule_across_tiers() {
    // Odd first granule; the range starts 3 bytes into it and ends 2
    // bytes short of the end of the last one.
    const BASE: i64 = 4096 + 16;
    const GRANULES: i64 = 64;
    const LEN: i64 = GRANULES * 16;
    const CLEAN: i64 = 32_768;
    let (start, len) = (BASE + 3, LEN - 5);

    // (needle) -> i64: tag the segment, retag granule `needle` of it
    // through an untagged pointer (skipped when negative), then the op.
    let body = |op: Vec<Instr>| {
        let mut body = vec![
            Instr::I64Const(BASE),
            Instr::I64Const(LEN),
            Instr::SegmentNew(0),
            Instr::I64Const(3),
            Instr::I64Add,
            Instr::LocalSet(1),
            Instr::LocalGet(0),
            Instr::I64Const(0),
            Instr::I64GeS,
            Instr::If(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I64Const(16),
                    Instr::I64Mul,
                    Instr::I64Const(BASE),
                    Instr::I64Add,
                    Instr::I64Const(0),
                    Instr::I64Const(16),
                    Instr::SegmentSetTag(0),
                ],
                vec![],
            ),
        ];
        body.extend(op);
        body
    };
    let ops = [
        (
            "memory.fill",
            vec![
                Instr::LocalGet(1),
                Instr::I32Const(0xAB),
                Instr::I64Const(len),
                Instr::MemoryFill,
            ],
        ),
        (
            "memory.copy (write side)",
            vec![
                Instr::LocalGet(1),
                Instr::I64Const(CLEAN),
                Instr::I64Const(len),
                Instr::MemoryCopy,
            ],
        ),
        (
            "memory.copy (read side)",
            vec![
                Instr::I64Const(CLEAN),
                Instr::LocalGet(1),
                Instr::I64Const(len),
                Instr::MemoryCopy,
            ],
        ),
    ];
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    for (_, op) in &ops {
        b.add_function(&[ValType::I64], &[], &[ValType::I64], body(op.clone()));
    }
    let module = b.build();

    for (func, (name, _)) in ops.iter().enumerate() {
        for (scheme, config) in schemes() {
            for needle in [-1, 0, 14, 15, 16, GRANULES - 1] {
                let cell = format!("{name}, needle at granule {needle}, under {scheme}");
                let reg = run_path(config, &module, func as u32, needle as u64, Tier::Reg);
                let tree = run_path(config, &module, func as u32, needle as u64, Tier::Tree);
                assert_eq!(reg, tree, "{cell}: register tier vs tree oracle");
                if needle < 0 || !config.internal.is_enabled() {
                    assert!(reg.0.is_ok(), "{cell}: expected pass, got {:?}", reg.0);
                    continue;
                }
                let Err(Trap::TagCheck(fault)) = &reg.0 else {
                    panic!("{cell}: expected a tag-check fault, got {:?}", reg.0);
                };
                let granule = (BASE + 16 * needle) as u64;
                assert_eq!(fault.addr, granule.max(start as u64), "{cell}: {fault}");
                // The retag went through an untagged pointer, so the
                // needle carries the guest-untagged tag: 1 when combined
                // with sandboxing (Fig. 13b), else 0.
                let untagged = u8::from(config.bounds == BoundsCheckStrategy::MteSandbox);
                assert_eq!(fault.mem_tag.map(|t| t.value()), Some(untagged), "{cell}");
                assert!(!fault.asynchronous, "{cell}");
            }
        }
    }
}

/// The commit-frontier rows. Linear memory is backed lazily: each body
/// first stores to address 8, which commits page 0 of a three-page memory
/// and leaves the frontier at the 0|1 page boundary; then comes the access
/// under test. Scalar and bulk accesses that straddle the frontier, end
/// exactly at the end of guest memory, are zero-width at that boundary,
/// or land in the runtime slack (where asynchronous MTE lets the access
/// complete and reports at the call boundary) must produce the same
/// payload, cycle bits, retired count *and committed prefix* on the
/// register tier — whose scalar fast path commits through its cached
/// bound — and on the tree oracle, which goes through `resolve()`.
#[test]
fn accesses_at_the_commit_frontier_agree_across_tiers() {
    use cage_mte::MteMode;
    const GUEST: u64 = 3 * PAGE;
    const SLACK: u64 = 4096;

    let touch_page_0 = [
        Instr::I64Const(8),
        Instr::I64Const(1),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
    ];
    let body = |op: &[Instr]| [&touch_page_0[..], op].concat();
    let mut b = ModuleBuilder::new();
    b.add_memory64(3);
    let params = [ValType::I64, ValType::I64];
    let load = b.add_function(
        &params,
        &[],
        &[],
        body(&[
            Instr::LocalGet(0),
            Instr::Load(LoadOp::I64Load, MemArg::none()),
            Instr::Drop,
        ]),
    );
    let store = b.add_function(
        &params,
        &[],
        &[],
        body(&[
            Instr::LocalGet(0),
            Instr::I64Const(0x0123_4567_89AB_CDEF),
            Instr::Store(StoreOp::I64Store, MemArg::none()),
        ]),
    );
    let fill = b.add_function(
        &params,
        &[],
        &[],
        body(&[
            Instr::LocalGet(0),
            Instr::I32Const(0xAB),
            Instr::LocalGet(1),
            Instr::MemoryFill,
        ]),
    );
    let copy_to = b.add_function(
        &params,
        &[],
        &[],
        body(&[
            Instr::LocalGet(0),
            Instr::I64Const(0),
            Instr::LocalGet(1),
            Instr::MemoryCopy,
        ]),
    );
    let copy_from = b.add_function(
        &params,
        &[],
        &[],
        body(&[
            Instr::I64Const(0),
            Instr::LocalGet(0),
            Instr::LocalGet(1),
            Instr::MemoryCopy,
        ]),
    );
    // 2^49 bytes: a grow the module's limits allow and the host cannot
    // reserve. `-1`, not an abort, on both tiers.
    let grow = b.add_function(
        &params,
        &[ValType::I64],
        &[],
        vec![Instr::I64Const(1 << 33), Instr::MemoryGrow],
    );
    let module = b.build();

    let run = |config: ExecConfig, func: u32, addr: u64, len: u64, tier: Tier| {
        let mut store = Store::new(config);
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        assert_eq!(store.memory(h).unwrap().committed_bytes(), 0);
        let args = [Value::I64(addr as i64), Value::I64(len as i64)];
        let result = match tier {
            Tier::Reg => store.call(h, func, &args),
            Tier::Tree => store.call_tree(h, func, &args),
        };
        (
            result,
            store.charge_counts(h),
            store.memory(h).unwrap().committed_bytes(),
        )
    };

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Where {
        /// Inside guest memory: passes everywhere, commits `pages`.
        Guest { pages: u64 },
        /// Ends in the runtime slack.
        Slack,
        /// Out of bounds by the spec whatever the strategy.
        Refused,
    }
    let bulk = [fill, copy_to, copy_from];
    let mut rows: Vec<(&str, u32, u64, u64, Where)> = Vec::new();
    for (name, func) in [("load", load), ("store", store)] {
        rows.extend([
            (name, func, 64, 8, Where::Guest { pages: 1 }),
            (name, func, PAGE - 4, 8, Where::Guest { pages: 2 }),
            (name, func, PAGE, 8, Where::Guest { pages: 2 }),
            (name, func, GUEST - 8, 8, Where::Guest { pages: 3 }),
            (name, func, GUEST - 7, 8, Where::Slack),
            (name, func, GUEST + 16, 8, Where::Slack),
            (name, func, GUEST + SLACK - 4, 8, Where::Refused),
        ]);
    }
    for (name, func) in [
        ("fill", fill),
        ("copy to", copy_to),
        ("copy from", copy_from),
    ] {
        rows.extend([
            (name, func, PAGE - 100, 200, Where::Guest { pages: 2 }),
            (
                name,
                func,
                PAGE - 100,
                PAGE + 200,
                Where::Guest { pages: 3 },
            ),
            (name, func, GUEST - 4096, 4096, Where::Guest { pages: 3 }),
            (name, func, PAGE + 17, 0, Where::Guest { pages: 2 }),
            (name, func, GUEST, 0, Where::Guest { pages: 3 }),
            (name, func, GUEST + 1, 0, Where::Refused),
            (name, func, GUEST - 8, 16, Where::Slack),
            (name, func, GUEST, SLACK, Where::Slack),
            (name, func, GUEST - 8, SLACK + 9, Where::Refused),
            (name, func, PAGE, u64::MAX - PAGE, Where::Refused),
        ]);
    }

    for (scheme, base) in schemes() {
        for mode in [
            MteMode::Synchronous,
            MteMode::Asynchronous,
            MteMode::Asymmetric,
        ] {
            let config = ExecConfig {
                mte_mode: mode,
                ..base
            };
            for &(name, func, addr, len, place) in &rows {
                let cell = format!("{name}({addr:#x}, {len:#x}) under {scheme}, {mode:?}");
                let reg = run(config, func, addr, len, Tier::Reg);
                let tree = run(config, func, addr, len, Tier::Tree);
                assert_eq!(reg, tree, "{cell}: register tier vs tree oracle");
                let (result, committed) = (&reg.0, reg.2);
                let sandbox = config.bounds == BoundsCheckStrategy::MteSandbox;
                // Whether the tag check of this access faults in place.
                let reads = func == load || func == copy_from;
                let sync = mode == MteMode::Synchronous || (mode == MteMode::Asymmetric && !reads);
                match place {
                    Where::Guest { pages } => {
                        assert_eq!(result, &Ok(vec![]), "{cell}");
                        assert_eq!(committed, pages * PAGE, "{cell}: committed prefix");
                    }
                    Where::Slack if !sandbox => {
                        assert_eq!(result, &Err(Trap::OutOfBounds { addr, len }), "{cell}");
                        assert_eq!(committed, PAGE, "{cell}: a refused access commits nothing");
                    }
                    Where::Slack if sync => {
                        assert!(
                            matches!(result, Err(Trap::TagCheck(_))),
                            "{cell}: {result:?}"
                        );
                        assert_eq!(committed, PAGE, "{cell}: a refused access commits nothing");
                    }
                    // The CVE-2023-26489 shape under asynchronous MTE: the
                    // access completes in the slack, the fault surfaces at
                    // the call boundary.
                    Where::Slack => {
                        assert!(
                            matches!(result, Err(Trap::AsyncTagCheck(f)) if f.asynchronous),
                            "{cell}: {result:?}"
                        );
                        assert_eq!(committed, GUEST + SLACK, "{cell}: the slack is committed");
                    }
                    Where::Refused => {
                        assert!(result.is_err(), "{cell}: expected a trap");
                        // `memory.copy` resolves its source (address 0 in
                        // `copy to`) first, and a huge length fails there.
                        let addr = if func == copy_to && len > GUEST {
                            0
                        } else {
                            addr
                        };
                        if len == 0 || !sandbox || !bulk.contains(&func) && !sync {
                            assert_eq!(result, &Err(Trap::OutOfBounds { addr, len }), "{cell}");
                        }
                        assert_eq!(committed, PAGE, "{cell}: a refused access commits nothing");
                    }
                }
            }
            let reg = run(config, grow, 0, 0, Tier::Reg);
            assert_eq!(
                reg,
                run(config, grow, 0, 0, Tier::Tree),
                "grow under {scheme}"
            );
            assert_eq!(reg.0, Ok(vec![Value::I64(-1)]), "grow under {scheme}");
        }
    }
}

/// The `FuelExhausted` row: deterministic preemption. Fuel is charged
/// only at the charge-free control transitions (back-edge jumps,
/// function switches, returns), so the same program under the same
/// budget must trap at the identical retired-instruction count, cycle
/// bits and consumed-fuel total — across repeated runs and across the
/// adjacent vs block-fenced lowering of the same loop body — and at
/// exactly the pinned point for each budget. A scheduler preempting
/// tenants by fuel therefore cannot perturb the cycle model.
#[test]
fn fuel_exhaustion_is_deterministic_across_runs_and_lowerings() {
    // func 0: an infinite increment loop whose body lowers to a single
    // 3-address ALU op; func 1: the same loop with the constant routed
    // through a block, which lands the charges on different reg ops.
    let adjacent = vec![
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::I64Const(1),
                Instr::I64Add,
                Instr::LocalSet(1),
                Instr::Br(0),
            ],
        ),
        Instr::LocalGet(1),
    ];
    let fenced = vec![
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::Block(BlockType::Value(ValType::I64), vec![Instr::I64Const(1)]),
                Instr::I64Add,
                Instr::LocalSet(1),
                Instr::Br(0),
            ],
        ),
        Instr::LocalGet(1),
    ];
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let a = b.add_function(&[ValType::I64], &[ValType::I64], &[ValType::I64], adjacent);
    let f = b.add_function(&[ValType::I64], &[ValType::I64], &[ValType::I64], fenced);
    assert_eq!((a, f), (0, 1));
    let module = b.build();

    let run = |func: u32, budget: u64| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        store.set_fuel(h, Some(budget));
        let result = store.call(h, func, &[Value::I64(0)]);
        (
            result,
            store.charge_counts(h),
            store.fuel_consumed(h),
            store.fuel_remaining(h),
        )
    };

    // (budget, back edges retired) at the trap: the loop retires four
    // simple instructions and its `br` per iteration and burns one unit
    // of fuel per back edge.
    for (budget, iterations) in [(1u64, 2u64), (2, 3), (3, 4), (10, 11), (1_000, 1_001)] {
        let charged = counts(&[(Simple, 4 * iterations), (Branch, iterations)]);
        let first = run(0, budget);
        assert_eq!(
            first,
            run(0, budget),
            "budget {budget}: fuel trap is not reproducible across runs"
        );
        assert_eq!(
            first,
            run(1, budget),
            "budget {budget}: fuel trap diverged between adjacent and fenced lowering"
        );
        assert_eq!(
            first,
            (Err(Trap::FuelExhausted), charged, budget, Some(0)),
            "budget {budget}: preemption point moved"
        );
    }
}

/// Straight-line bodies have no jumps, so their only fuel charge is the
/// outermost return: a zero budget still preempts them (at the final
/// `ret`), one unit of fuel is enough to finish, and `None` disables the
/// checks entirely — with identical charge counts in all three cases.
#[test]
fn fuel_covers_straight_line_bodies_at_the_outermost_return() {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::I64Const(1), Instr::I64Add],
    );
    let module = b.build();

    let run = |budget: Option<u64>| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        store.set_fuel(h, budget);
        let result = store.call(h, 0, &[Value::I64(41)]);
        (result, store.charge_counts(h), store.fuel_consumed(h))
    };

    let (starved, starved_cycles, starved_consumed) = run(Some(0));
    assert_eq!(starved, Err(Trap::FuelExhausted));
    assert_eq!(starved_consumed, 0);
    let (fed, fed_cycles, fed_consumed) = run(Some(1));
    assert_eq!(fed, Ok(vec![Value::I64(42)]));
    assert_eq!(fed_consumed, 1);
    let (unmetered, unmetered_cycles, unmetered_consumed) = run(None);
    assert_eq!(unmetered, Ok(vec![Value::I64(42)]));
    assert_eq!(unmetered_consumed, 0);
    // Fuel accounting must never leak into the cycle model: the trap
    // fires at the end of the same charge sequence the full run replays.
    assert_eq!(starved_cycles, fed_cycles);
    assert_eq!(fed_cycles, unmetered_cycles);
}

/// The `EpochInterrupt` row: epoch preemption rides the same charge-free
/// control transitions as fuel, so a deadline that is already due when
/// the call starts must trap at the identical retired-instruction count
/// and cycle bits — across repeated runs and across the adjacent vs
/// fenced lowering — at exactly the pinned point. An embedder thread
/// ticking the shared epoch can move *when* the trap fires in wall-clock
/// time, but never *where* it lands in the cycle model.
#[test]
fn epoch_interrupt_is_deterministic_across_runs_and_lowerings() {
    let adjacent = vec![
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::I64Const(1),
                Instr::I64Add,
                Instr::LocalSet(1),
                Instr::Br(0),
            ],
        ),
        Instr::LocalGet(1),
    ];
    let fenced = vec![
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::Block(BlockType::Value(ValType::I64), vec![Instr::I64Const(1)]),
                Instr::I64Add,
                Instr::LocalSet(1),
                Instr::Br(0),
            ],
        ),
        Instr::LocalGet(1),
    ];
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let a = b.add_function(&[ValType::I64], &[ValType::I64], &[ValType::I64], adjacent);
    let f = b.add_function(&[ValType::I64], &[ValType::I64], &[ValType::I64], fenced);
    assert_eq!((a, f), (0, 1));
    let module = b.build();

    // `ticks` epochs elapse before the call, against a deadline of 1:
    // 0 ticks -> the deadline is still ahead and an infinite loop would
    // hang, so that case runs with fuel as a backstop instead (below).
    let run = |func: u32, ticks: u64| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        store.set_epoch_deadline(h, Some(1));
        for _ in 0..ticks {
            store.increment_epoch();
        }
        let result = store.call(h, func, &[Value::I64(0)]);
        (result, store.charge_counts(h))
    };

    for ticks in [1u64, 2, 100] {
        let first = run(0, ticks);
        assert_eq!(
            first,
            run(0, ticks),
            "ticks {ticks}: epoch trap is not reproducible across runs"
        );
        assert_eq!(
            first,
            run(1, ticks),
            "ticks {ticks}: epoch trap diverged between adjacent and fenced lowering"
        );
        // However far past the deadline the epoch has advanced, the trap
        // lands at the first back edge: one iteration, five retired
        // instructions.
        assert_eq!(
            first,
            (
                Err(Trap::EpochInterrupt),
                counts(&[(Simple, 4), (Branch, 1)])
            ),
            "ticks {ticks}: preemption point moved"
        );
    }
}

/// Where fuel and epoch expire at the same preemption point, fuel wins —
/// the check order is part of the deterministic contract — and the cycle
/// bits match the fuel-only and epoch-only traps at that point (the
/// outermost return, after all three instructions retired).
#[test]
fn fuel_beats_epoch_when_both_expire_at_the_same_transition() {
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::I64Const(1), Instr::I64Add],
    );
    let module = b.build();

    let run = |fuel: Option<u64>, deadline_due: bool| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        store.set_fuel(h, fuel);
        if deadline_due {
            store.set_epoch_deadline(h, Some(0));
        }
        let result = store.call(h, 0, &[Value::I64(41)]);
        (result, store.charge_counts(h))
    };

    // Same preemption point, so the cycle model cannot tell the three
    // apart; the trap kind is pinned to fuel when both are due.
    let charged = counts(&[(Simple, 3)]);
    assert_eq!(run(Some(0), false), (Err(Trap::FuelExhausted), charged));
    assert_eq!(run(None, true), (Err(Trap::EpochInterrupt), charged));
    assert_eq!(run(Some(0), true), (Err(Trap::FuelExhausted), charged));
}

/// The register lowering must dissolve the stack shuffles the retired
/// superinstruction zoo existed to fuse: both the adjacent and the
/// block-fenced body lower to the same generic 3-address access, the
/// fence surviving only as a label `nop` and a different split of the
/// charge recipe — and the access itself dispatches as ONE op whose
/// recipe replays the retired `local.get`s' charges in source order.
#[test]
fn register_lowering_dissolves_stack_shuffles() {
    let pre = Precompiled::new(&matrix_module(Access::Load(LoadOp::I64Load))).expect("compiles");
    let adjacent = pre.disassemble(0).expect("local function");
    let fenced = pre.disassemble(1).expect("local function");
    // Adjacent: the load absorbs the retired local.get's simple charge.
    assert!(
        adjacent.contains("r1 <- I64Load offset=0 addr=r0  ; charges sm"),
        "adjacent load did not lower to a charged 3-address op:\n{adjacent}"
    );
    // Fenced: same 3-address op, but the block's label keeps the
    // local.get charge on its own nop and the load charges only memory.
    assert!(
        fenced.contains("r1 <- I64Load offset=0 addr=r0  ; charges m"),
        "fence leaked into the 3-address access:\n{fenced}"
    );
    assert!(
        fenced.contains("nop  ; charges s"),
        "fenced body lost the label nop carrying the operand charge:\n{fenced}"
    );

    let pre =
        Precompiled::new(&matrix_module(Access::Store(StoreOp::I32Store16))).expect("compiles");
    let adjacent = pre.disassemble(0).expect("local function");
    let fenced = pre.disassemble(1).expect("local function");
    assert!(
        adjacent.contains("I32Store16 offset=0 addr=r0, val=r1  ; charges ssm"),
        "adjacent store did not absorb both operand charges:\n{adjacent}"
    );
    assert!(
        fenced.contains("I32Store16 offset=0 addr=r0, val=r1  ; charges m"),
        "fence leaked into the 3-address store:\n{fenced}"
    );

    // The register stream — zero-init of the value local, the store, the
    // return — is strictly shorter than the source body plus its
    // implicit `end`: the stack shuffles are gone, not renamed.
    let reg_ops = adjacent.lines().count() - 1;
    let source_ops = pre.module().funcs[0].body.len() + 1;
    assert!(
        reg_ops < source_ops,
        "register stream ({reg_ops} ops) not shorter than the source ({source_ops} instrs)"
    );
}

/// Every preemption point, one small function per shape. Fuel (and the
/// epoch compare riding on it) is consumed at exactly the control
/// *transfers* of the dispatch loop — a taken `br_if`, the `BrIfZ`/`Jump`
/// pair an `if`/`else` lowers to, every `br_table` whatever its selector,
/// a guest `call`/`call_indirect`, and every `return`, inner or outermost
/// — after the transferring op's charge recipe has replayed, and never on
/// a not-taken branch or a host call. For each shape the consumed total
/// under a generous budget is pinned as a literal, and every smaller
/// budget must end in `FuelExhausted` at a pinned count vector (written
/// as its non-zero classes), identically across two runs; an epoch
/// deadline that is already due traps where a zero budget does.
#[test]
fn fuel_is_consumed_at_exactly_the_control_transitions() {
    use cage_engine::HostFunc;

    let i64_to_i64 = ([ValType::I64], [ValType::I64]);
    let mut b = ModuleBuilder::new();
    let host = b.import_func("env", "inc", &i64_to_i64.0, &i64_to_i64.1);
    // `local1 = 5` unless the `br_if` skips it.
    let br_if = b.add_function(
        &[ValType::I32],
        &[ValType::I64],
        &[ValType::I64],
        vec![
            Instr::Block(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::BrIf(0),
                    Instr::I64Const(5),
                    Instr::LocalSet(1),
                ],
            ),
            Instr::LocalGet(1),
        ],
    );
    let if_else = b.add_function(
        &[ValType::I32],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::If(
                BlockType::Value(ValType::I64),
                vec![Instr::I64Const(1)],
                vec![Instr::I64Const(2)],
            ),
        ],
    );
    let br_table = b.add_function(
        &[ValType::I32],
        &[ValType::I64],
        &[],
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
                            Instr::I64Const(10),
                            Instr::Return,
                        ],
                    ),
                    Instr::I64Const(20),
                    Instr::Return,
                ],
            ),
            Instr::I64Const(30),
        ],
    );
    // The callee leaves through an explicit inner `return`.
    let callee = b.add_function(
        &i64_to_i64.0,
        &i64_to_i64.1,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(1),
            Instr::I64Add,
            Instr::Return,
        ],
    );
    let call = b.add_function(
        &i64_to_i64.0,
        &i64_to_i64.1,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::Call(callee),
            Instr::I64Const(1),
            Instr::I64Add,
        ],
    );
    b.add_table(1);
    b.add_elem(0, vec![callee]);
    let ty = b.intern_type(cage_wasm::FuncType::new(&i64_to_i64.0, &i64_to_i64.1));
    let call_indirect = b.add_function(
        &i64_to_i64.0,
        &i64_to_i64.1,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::I32Const(0),
            Instr::CallIndirect(ty),
            Instr::I64Const(1),
            Instr::I64Add,
        ],
    );
    let host_call = b.add_function(
        &i64_to_i64.0,
        &i64_to_i64.1,
        &[],
        vec![
            Instr::LocalGet(0),
            Instr::Call(host),
            Instr::I64Const(1),
            Instr::I64Add,
        ],
    );
    let module = b.build();

    #[derive(Clone, Copy)]
    enum Preempt {
        Fuel(u64),
        EpochDue,
    }
    let run = |func: u32, arg: Value, preempt: Preempt| {
        let mut imports = Imports::new();
        imports.define(
            "env",
            "inc",
            HostFunc::new(&i64_to_i64.0, &i64_to_i64.1, |_, args| {
                Ok(vec![Value::I64(args[0].as_i64() + 1)])
            }),
        );
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&module, &imports).expect("instantiates");
        match preempt {
            Preempt::Fuel(budget) => store.set_fuel(h, Some(budget)),
            Preempt::EpochDue => store.set_epoch_deadline(h, Some(0)),
        }
        let result = store.call(h, func, &[arg]);
        (result, store.fuel_consumed(h), store.charge_counts(h))
    };

    // (shape, function, argument, result, then one trap point — what had
    // been retired, by class — per unit of fuel a full run consumes: entry
    // `n` is where a budget of `n` runs dry).
    type Point<'a> = &'a [(ChargeClass, u64)];
    type Shape<'a> = (&'a str, u32, Value, i64, &'a [Point<'a>]);
    const ENTRY: Point = &[(Simple, 1), (Branch, 1)];
    const THIRD: Point = &[(Simple, 2), (Branch, 1)];
    const FOURTH: Point = &[(Simple, 2), (Branch, 2)];
    let shapes: [Shape; 11] = [
        // Only the outermost return, after all five instructions.
        (
            "br_if not taken",
            br_if,
            Value::I32(0),
            5,
            &[&[(Simple, 4), (Branch, 1)]],
        ),
        // The taken branch (after its own charge), then the return.
        ("br_if taken", br_if, Value::I32(1), 0, &[ENTRY, THIRD]),
        // `BrIfZ` falls through free; the `Jump` over the else arm and
        // the return both land after the arm's constant.
        ("if: then arm", if_else, Value::I32(1), 1, &[THIRD, THIRD]),
        ("if: else arm", if_else, Value::I32(0), 2, &[ENTRY, THIRD]),
        (
            "br_table first",
            br_table,
            Value::I32(0),
            10,
            &[ENTRY, FOURTH],
        ),
        (
            "br_table last",
            br_table,
            Value::I32(1),
            20,
            &[ENTRY, FOURTH],
        ),
        // The default target falls off the end: no `return` to charge.
        (
            "br_table out of range",
            br_table,
            Value::I32(5),
            30,
            &[ENTRY, THIRD],
        ),
        (
            "br_table negative",
            br_table,
            Value::I32(-1),
            30,
            &[ENTRY, THIRD],
        ),
        // Function entry (after the call's charge), the inner `return`,
        // the outermost return.
        (
            "call + inner return",
            call,
            Value::I64(40),
            42,
            &[
                &[(Simple, 1), (Call, 1)],
                &[(Simple, 4), (Branch, 1), (Call, 1)],
                &[(Simple, 6), (Branch, 1), (Call, 1)],
            ],
        ),
        (
            "call_indirect",
            call_indirect,
            Value::I64(40),
            42,
            &[
                &[(Simple, 2), (CallIndirect, 1)],
                &[(Simple, 5), (Branch, 1), (CallIndirect, 1)],
                &[(Simple, 7), (Branch, 1), (CallIndirect, 1)],
            ],
        ),
        // A host call is not a preemption point: only the return is.
        (
            "host call",
            host_call,
            Value::I64(40),
            42,
            &[&[(Simple, 3), (Call, 1)]],
        ),
    ];
    for (shape, func, arg, result, trap_points) in shapes {
        let (out, consumed, ..) = run(func, arg, Preempt::Fuel(1_000));
        assert_eq!(out, Ok(vec![Value::I64(result)]), "{shape}");
        let observed: Vec<ChargeCounts> = (0..consumed)
            .map(|budget| {
                let first = run(func, arg, Preempt::Fuel(budget));
                assert_eq!(
                    first,
                    run(func, arg, Preempt::Fuel(budget)),
                    "{shape}: budget {budget} is not reproducible across runs"
                );
                assert_eq!(
                    (&first.0, first.1),
                    (&Err(Trap::FuelExhausted), budget),
                    "{shape}: budget {budget}"
                );
                first.2
            })
            .collect();
        assert_eq!(
            observed,
            trap_points.iter().map(|p| counts(p)).collect::<Vec<_>>(),
            "{shape}: preemption points moved: {:?}",
            observed.iter().map(classes).collect::<Vec<_>>()
        );
        let due = run(func, arg, Preempt::EpochDue);
        assert_eq!(
            due,
            (Err(Trap::EpochInterrupt), 0, observed[0]),
            "{shape}: an already-due epoch deadline traps where a zero budget does"
        );
    }
}

/// Instruction selection retires several source instructions in one
/// dispatch and must not move a trap or a preemption point: an access
/// that traps directly behind a fused address computation, and fuel that
/// runs dry exactly at a fused compare-and-branch, find the counts where
/// the unfused code left them. The literals are what the parent of the
/// selection step (one op per source instruction) retired for the same
/// source; the tree oracle agrees on the rows it models.
#[test]
fn selection_keeps_trap_and_preemption_points() {
    use cage_engine::ChargeClass::{Mem, Zero};

    // `A[i]` with `i` an `int`: widen, scale, add, load.
    let index_load = vec![
        Instr::LocalGet(0),
        Instr::LocalGet(1),
        Instr::I64ExtendI32S,
        Instr::I64Const(8),
        Instr::I64Mul,
        Instr::I64Add,
        Instr::Load(LoadOp::I64Load, MemArg::none()),
    ];
    // do { i = i + 1; } while (i < n) — the bottom test fuses into the
    // back edge.
    let bottom_tested = vec![
        Instr::Loop(
            BlockType::Empty,
            vec![
                Instr::LocalGet(1),
                Instr::I64Const(1),
                Instr::I64Add,
                Instr::LocalTee(1),
                Instr::LocalGet(0),
                Instr::I64LtS,
                Instr::BrIf(0),
            ],
        ),
        Instr::LocalGet(1),
    ];
    // for (i = 0; i < n; i++) — the top test goes through an `i32.eqz`
    // into the exit branch; the back edge is a plain `br`.
    let top_tested = vec![
        Instr::Block(
            BlockType::Empty,
            vec![Instr::Loop(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(1),
                    Instr::LocalGet(0),
                    Instr::I64LtS,
                    Instr::I32Eqz,
                    Instr::BrIf(1),
                    Instr::LocalGet(1),
                    Instr::I64Const(1),
                    Instr::I64Add,
                    Instr::LocalSet(1),
                    Instr::Br(0),
                ],
            )],
        ),
        Instr::LocalGet(1),
    ];
    let mut b = ModuleBuilder::new();
    b.add_memory64(1);
    let load = b.add_function(
        &[ValType::I64, ValType::I32],
        &[ValType::I64],
        &[],
        index_load,
    );
    let bottom = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64],
        bottom_tested,
    );
    let top = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64],
        top_tested,
    );
    let module = b.build();
    cage_wasm::validate(&module).expect("fixture validates");

    let pre = Precompiled::new(&module).expect("compiles");
    let text = |func: u32| pre.disassemble(func).expect("local function");
    assert!(
        text(load).contains("r2 <- r0 + sext r1 * 0x8  ; charges sszsss\n")
            && text(load).contains("I64Load offset=0 addr=r2  ; charges m\n"),
        "{}",
        text(load)
    );
    assert!(
        text(bottom).contains("br_cmp I64LtS r2, r0 \u{2192}")
            && !text(bottom).contains("<- I64LtS"),
        "{}",
        text(bottom)
    );
    assert!(
        text(top).contains("br_cmp_z I64LtS r1, r0 \u{2192}") && !text(top).contains("I32Eqz"),
        "{}",
        text(top)
    );

    // The access right behind the fused address: in bounds, at the last
    // word, one past it, and far out through a negative index.
    for (base, idx, in_bounds) in [
        (0, 0, true),
        (PAGE as i64 - 16, 1, true),
        (PAGE as i64 - 8, 1, false),
        (64, -9, false),
    ] {
        let run = |tier: Tier| {
            let mut store = Store::new(ExecConfig::default());
            let h = store
                .instantiate(&module, &Imports::new())
                .expect("instantiates");
            let args = [Value::I64(base), Value::I32(idx)];
            let result = match tier {
                Tier::Reg => store.call(h, load, &args),
                Tier::Tree => store.call_tree(h, load, &args),
            };
            (result, store.charge_counts(h))
        };
        let (result, charged) = run(Tier::Reg);
        assert_eq!(
            (result.clone(), charged),
            run(Tier::Tree),
            "{base} + {idx} * 8"
        );
        match result {
            Ok(_) => assert!(in_bounds, "{base} + {idx} * 8"),
            Err(trap) => assert!(
                !in_bounds && matches!(trap, Trap::OutOfBounds { len: 8, .. }),
                "{base} + {idx} * 8: {trap:?}"
            ),
        }
        assert_eq!(
            charged,
            counts(&[(Simple, 5), (Mem, 1), (Zero, 1)]),
            "{base} + {idx} * 8: {:?}",
            classes(&charged)
        );
    }

    // Fuel: one unit per taken back edge (and one for the return).
    let run = |func: u32, n: i64, budget: u64| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        store.set_fuel(h, Some(budget));
        let result = store.call(h, func, &[Value::I64(n)]);
        (result, store.fuel_consumed(h), store.charge_counts(h))
    };
    // Bottom-tested: six simple instructions and the `br_if` per round;
    // a budget of `b` runs dry on the taken `br_if` of round `b + 1`.
    assert_eq!(
        run(bottom, 5, 1_000),
        (
            Ok(vec![Value::I64(5)]),
            5,
            counts(&[(Simple, 6 * 5 + 1), (Branch, 5)])
        )
    );
    for budget in 0..4u64 {
        let first = run(bottom, 5, budget);
        assert_eq!(
            first,
            run(bottom, 5, budget),
            "budget {budget}: not reproducible"
        );
        let rounds = budget + 1;
        assert_eq!(
            first,
            (
                Err(Trap::FuelExhausted),
                budget,
                counts(&[(Simple, 6 * rounds), (Branch, rounds)])
            ),
            "bottom-tested, budget {budget}: {:?}",
            classes(&first.2)
        );
    }
    // The last round's `br_if` falls through, free; the budget of 4 then
    // runs dry at the return.
    assert_eq!(
        run(bottom, 5, 4),
        (
            Err(Trap::FuelExhausted),
            4,
            counts(&[(Simple, 6 * 5 + 1), (Branch, 5)])
        )
    );
    // Top-tested: the exit test (four simple, the `br_if`) falls through
    // free on every round but the last; fuel goes at the `br` — four more
    // simple instructions further on — and, after the taken exit branch
    // of round `n + 1`, at that branch and at the return.
    assert_eq!(
        run(top, 3, 1_000),
        (
            Ok(vec![Value::I64(3)]),
            5,
            counts(&[(Simple, 8 * 3 + 4 + 1), (Branch, 2 * 3 + 1)])
        )
    );
    let top_points: [&[(ChargeClass, u64)]; 5] = [
        &[(Simple, 8), (Branch, 2)],
        &[(Simple, 16), (Branch, 4)],
        &[(Simple, 24), (Branch, 6)],
        // The taken exit branch, where the fused op carries the charges
        // of the two `local.get`s, the comparison and the `i32.eqz`.
        &[(Simple, 28), (Branch, 7)],
        &[(Simple, 29), (Branch, 7)],
    ];
    for (budget, point) in top_points.iter().enumerate() {
        let first = run(top, 3, budget as u64);
        assert_eq!(
            first,
            run(top, 3, budget as u64),
            "budget {budget}: not reproducible"
        );
        assert_eq!(
            first,
            (Err(Trap::FuelExhausted), budget as u64, counts(point)),
            "top-tested, budget {budget}: {:?}",
            classes(&first.2)
        );
    }
}
