//! Deep-nesting regression test: the dispatch loop must execute guest
//! control flow in host stack space that is *constant* in guest nesting
//! depth — and, last test, in guest *call* depth.
//!
//! The tree walker recurses one `exec_seq`/`exec_instr` Rust frame per
//! `block` level, so a 50 000-deep nest consumes megabytes of host stack
//! and can overflow outright. In register bytecode blocks compile to
//! nothing and a `br` out of the whole nest is one jump, so the dispatch
//! loop's stack usage does not move.
//!
//! Measurement: a host function records the address of one of its stack
//! locals. It is called twice — once at function entry and once from the
//! innermost block, 50 000 levels down — and the two addresses must be
//! within a small constant of each other. (The tree walker put ≥64 bytes
//! per level between them: several megabytes.) Compile-time work
//! (validation, lowering, drop) still recurses over the structured tree,
//! so the whole test runs on a thread with a generous stack; the
//! *execution* bound is what the address probe asserts.

use std::cell::RefCell;
use std::rc::Rc;

use cage_engine::{ExecConfig, HostFunc, Imports, Precompiled, Store, Value};
use cage_wasm::builder::ModuleBuilder;
use cage_wasm::{BlockType, CompileLimits, Instr, ValType};

const DEPTH: u32 = 50_000;

fn deeply_nested_module() -> cage_wasm::Module {
    let mut b = ModuleBuilder::new();
    let probe = b.import_func("env", "probe", &[], &[]);
    // Innermost: probe the stack, then exit the entire nest in one br
    // carrying the function result.
    let mut nest = vec![Instr::Call(probe), Instr::I64Const(42), Instr::Br(DEPTH)];
    for _ in 0..DEPTH {
        nest = vec![Instr::Block(BlockType::Empty, nest)];
    }
    let mut body = vec![Instr::Call(probe)];
    body.extend(nest);
    body.push(Instr::I64Const(7)); // unreachable: the br exits first
    let f = b.add_function(&[], &[ValType::I64], &[], body);
    b.export_func("run", f);
    b.build()
}

/// `env.probe`: records the address of one of its own stack locals on
/// every call.
fn probe_imports() -> (Imports, Rc<RefCell<Vec<usize>>>) {
    let addrs: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&addrs);
    let mut imports = Imports::new();
    imports.define(
        "env",
        "probe",
        HostFunc::new(&[], &[], move |_, _| {
            let marker = 0u8;
            sink.borrow_mut().push(std::ptr::addr_of!(marker) as usize);
            Ok(vec![])
        }),
    );
    (imports, addrs)
}

/// Compile-time recursion (validator, lowering, tree drop) needs a big
/// stack at this depth — debug-build frames are several KiB per nesting
/// level, and 512 MiB measurably overflows at DEPTH = 50 000. Execution
/// must not need any of it, which is what the probes assert.
const COMPILE_STACK: usize = 2048 * 1024 * 1024;

#[test]
fn fifty_thousand_nested_blocks_execute_in_constant_host_stack() {
    std::thread::Builder::new()
        .stack_size(COMPILE_STACK)
        .spawn(|| {
            let module = deeply_nested_module();
            let (imports, addrs) = probe_imports();
            let mut store = Store::new(ExecConfig::default());
            // Far past the default nesting bound: a trusted fixture,
            // compiled without one.
            let pre = Precompiled::with_limits(&module, &CompileLimits::unlimited())
                .expect("compiles unbounded");
            let h = store
                .instantiate_precompiled(&pre, &imports)
                .expect("instantiates");
            let out = store.invoke(h, "run", &[]).expect("runs");
            assert_eq!(out, vec![Value::I64(42)], "deep br carried the result out");

            let addrs = addrs.borrow();
            assert_eq!(addrs.len(), 2, "probe called at entry and innermost");
            let distance = addrs[0].abs_diff(addrs[1]);
            // The tree walker placed >= 64 bytes of Rust frame per nesting
            // level between these probes (>= 3 MiB at this depth). The
            // flat dispatcher runs both probes from the same dispatch
            // frame: allow generous slack for host-call plumbing only.
            assert!(
                distance < 1 << 20,
                "executing {DEPTH} nested blocks moved the host stack by {distance} bytes \
                 — dispatch is consuming stack proportional to guest nesting again"
            );
        })
        .expect("spawn")
        .join()
        .expect("deep-nesting thread");
}

#[test]
fn deep_branch_is_cheap_in_cycles_too() {
    // Sanity on the collapse descriptor: exiting 50k blocks is ONE branch
    // charge, not 50k — blocks are free, so the whole run retires exactly
    // the ops the guest executes.
    std::thread::Builder::new()
        .stack_size(COMPILE_STACK)
        .spawn(|| {
            let mut b = ModuleBuilder::new();
            let mut nest = vec![Instr::I64Const(42), Instr::Br(DEPTH)];
            for _ in 0..DEPTH {
                nest = vec![Instr::Block(BlockType::Empty, nest)];
            }
            nest.push(Instr::I64Const(7));
            let f = b.add_function(&[], &[ValType::I64], &[], nest);
            b.export_func("run", f);
            let module = b.build();
            let mut store = Store::new(ExecConfig::default());
            let pre = Precompiled::with_limits(&module, &CompileLimits::unlimited())
                .expect("compiles unbounded");
            let h = store
                .instantiate_precompiled(&pre, &Imports::new())
                .expect("instantiates");
            let out = store.invoke(h, "run", &[]).expect("runs");
            assert_eq!(out, vec![Value::I64(42)]);
            // const + br: two retired instructions, whatever the depth.
            assert_eq!(store.instr_count(h), 2);
        })
        .expect("spawn")
        .join()
        .expect("deep-branch thread");
}

#[test]
fn a_hundred_thousand_nested_calls_execute_in_constant_host_stack() {
    // The same address probe across *call* depth: a guest call pushes a
    // frame record and grows the register arena, both on the heap, so the
    // probe at every depth down to 100 000 runs from the dispatch frame
    // the probe at depth 1 ran from. 1 MiB of thread stack holds nothing proportional
    // to the depth: the tree walker's Rust frame per guest call (hundreds
    // of bytes) would overflow it ten times over.
    const CALLS: i64 = 100_000;
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(|| {
            let mut b = ModuleBuilder::new();
            let probe = b.import_func("env", "probe", &[], &[]);
            // descend(n): probe, then recurse until n reaches 1.
            let descend = b.add_function(&[ValType::I64], &[ValType::I64], &[], vec![]);
            b.set_body(
                descend,
                vec![
                    Instr::Call(probe),
                    Instr::LocalGet(0),
                    Instr::I64Const(1),
                    Instr::I64Eq,
                    Instr::If(
                        BlockType::Empty,
                        vec![Instr::I64Const(42), Instr::Return],
                        vec![],
                    ),
                    Instr::LocalGet(0),
                    Instr::I64Const(1),
                    Instr::I64Sub,
                    Instr::Call(descend),
                ],
            );
            b.export_func("descend", descend);
            let module = b.build();

            let (imports, addrs) = probe_imports();
            let mut store = Store::new(ExecConfig {
                max_call_depth: 200_000,
                ..ExecConfig::default()
            });
            let h = store.instantiate(&module, &imports).expect("instantiates");
            let out = store
                .invoke(h, "descend", &[Value::I64(CALLS)])
                .expect("runs");
            assert_eq!(out, vec![Value::I64(42)], "the result came back up");

            let addrs = addrs.borrow();
            assert_eq!(addrs.len(), CALLS as usize, "one probe per call depth");
            let lowest = addrs.iter().min().expect("probed");
            let distance = addrs.iter().max().expect("probed") - lowest;
            assert!(
                distance < 64 << 10,
                "{CALLS} nested guest calls moved the host stack by {distance} bytes \
                 — dispatch is consuming stack proportional to guest call depth again"
            );
        })
        .expect("spawn")
        .join()
        .expect("deep-call thread");
}
