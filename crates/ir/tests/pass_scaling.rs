//! How the IR passes scale on a tenant-written function.
//!
//! The passes are charged for up front (`cost_of × k` compile fuel, before
//! any of them runs), so that charge is an honest bound only if their work
//! is linear in the statements they were charged for. Two shapes used to
//! make it quadratic, both a few hundred kilobytes of legal C inside the
//! default limits: a chain of dead definitions (`dce` rescanned the
//! function once per link) and many arrays behind many pointers (the
//! alloca analysis kept a set of arrays per register and rescanned to a
//! fixpoint). The tests count the work the passes report
//! ([`cage_ir::passes::work_units`]) — never a wall clock.

use cage_ir::passes::{run_pipeline_config, work_units, HardenConfig, PipelineConfig};
use cage_ir::{IrModule, Stmt};
use std::fmt::Write as _;

/// `long d0 = x; long d1 = d0 + 1; … return x;` — nothing after `d0` is
/// ever read.
fn dead_chain(n: usize) -> String {
    let mut src = String::from("long f(long x) {\nlong d0 = x;\n");
    for i in 1..n {
        let _ = writeln!(src, "long d{i} = d{} + 1;", i - 1);
    }
    src.push_str("return x;\n}\n");
    src
}

/// `n` two-element arrays, one pointer `p` that may hold any of them, `n`
/// pointers derived from `p`, `n` in-range reads through those — and,
/// with `overrun`, one read two elements past `q1` plus an array nobody
/// aliases.
fn arrays_behind_pointers(n: usize, overrun: bool) -> String {
    let mut src = String::from("long f(long x) {\nlong acc = 0;\n");
    for i in 0..n {
        let _ = writeln!(src, "long a{i}[2];");
    }
    src.push_str("long *p = a0;\n");
    for i in 0..n {
        let _ = writeln!(src, "if (x == {i}) p = a{i};");
    }
    for i in 0..n {
        let _ = writeln!(src, "long *q{i} = p + {};", i % 2);
    }
    for i in 0..n {
        let _ = writeln!(src, "acc = acc + q{i}[0];");
    }
    if overrun {
        src.push_str("long z[2];\nz[0] = x;\nacc = acc + z[1] + q1[2];\n");
    }
    src.push_str("return acc;\n}\n");
    src
}

/// The default pipeline with both sanitizers over `source`: the module it
/// leaves and the work the passes reported doing.
fn run_passes(source: &str) -> (IrModule, u64) {
    let mut module = cage_cc::compile(source).expect("compiles");
    let before = work_units();
    run_pipeline_config(&mut module, &PipelineConfig::standard(HardenConfig::full()));
    (module, work_units() - before)
}

fn assert_linear(what: &str, small: u64, large: u64) {
    assert!(small > 0, "{what}: the passes reported no work");
    assert!(
        large as f64 <= small as f64 * 4.5,
        "{what}: 4x the input took {large} work units against {small}: a pass is superlinear again"
    );
}

const N: usize = 2_000;

#[test]
fn a_dead_chain_is_swept_in_work_linear_in_its_length() {
    let (_, small) = run_passes(&dead_chain(N));
    let (module, large) = run_passes(&dead_chain(4 * N));
    assert_linear("dead chain", small, large);
    // And the sweep is right: the whole chain is gone.
    let body = &module.functions[0].body;
    assert!(
        body.iter().all(|s| matches!(s, Stmt::Return(_))),
        "only the return is left: {body:?}"
    );
}

#[test]
fn many_arrays_behind_many_pointers_are_analysed_in_linear_work() {
    let (_, small) = run_passes(&arrays_behind_pointers(N, true));
    let (module, large) = run_passes(&arrays_behind_pointers(4 * N, true));
    assert_linear("arrays behind pointers", small, large);

    // And the analysis is right. Every `a_i` may sit behind `q1`, whose
    // third element lies past a two-element array: all of them are
    // instrumented. `z` is only ever indexed in range: left alone (the
    // frame then starts tagged, so a guard slot follows).
    let allocas = &module.functions[0].allocas;
    let instrumented: Vec<bool> = allocas.iter().map(|a| a.instrument).collect();
    let mut expected = vec![true; 4 * N];
    expected.extend([false, false]);
    assert_eq!(instrumented, expected);
    assert!(allocas[4 * N + 1].is_guard);

    // Without the overrun nothing is: every index is verifiable.
    let (module, _) = run_passes(&arrays_behind_pointers(50, false));
    assert!(module.functions[0].allocas.iter().all(|a| !a.instrument));
}
