//! # cage-fuzz — seeded, offline mutational fuzzing of the ingest path
//!
//! The serving story bounds *execution*; PR 9 bounds *ingest*. This
//! module proves the bound empirically: thousands of mutated inputs
//! pushed through every acceptance surface — C source through
//! [`Engine::compile`], structured modules through [`InstancePre::new`],
//! raw bytes through [`cage::wasm::binary::decode`] — asserting that
//! each one comes back as `Ok` or a structured `Err`, never a panic,
//! abort, or unbounded compile loop.
//!
//! Everything is seeded ([`FuzzConfig`]; `CAGE_FUZZ_SEED` /
//! `CAGE_FUZZ_CASES` env overrides), uses only the vendored offline
//! `rand` shim, and runs the same way in CI and on a laptop — a failure
//! reproduces from its seed.
//!
//! Three mutation families, round-robined per case:
//!
//! * **C source** — byte- and token-level mutations (truncate, delete,
//!   duplicate, splice across corpus entries, dictionary-token
//!   insertion) over four hot-path-shaped kernels and a PolyBench kernel.
//! * **Module structure** — instruction-level mutations of lowered
//!   modules (truncated bodies, duplicated/injected instructions with
//!   wild immediates, block-nest wrapping past the depth bound).
//! * **Binary bytes** — bit flips and truncations of encoded modules
//!   fed to the decoder, with survivors re-ingested as modules.
//!
//! When a mutated module is accepted and self-contained, the register
//! tier and the tree oracle (the difftest pair) run it under a fuel
//! budget and must agree on values and traps.

use cage::engine::{ExecConfig, Imports, Store, Trap, Value};
use cage::serve::{HostProfile, InstancePre, ServeError};
use cage::wasm::builder::ModuleBuilder;
use cage::wasm::{BlockType, CompileLimits, Instr, Module, ValType};
use cage::{Core, Engine, Error, OptLevel, Variant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many cases to run and from which seed — everything a failure
/// report needs to reproduce.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Total mutated inputs across all families.
    pub cases: u64,
    /// Root RNG seed; every case derives deterministically from it.
    pub seed: u64,
}

impl FuzzConfig {
    /// Reads `CAGE_FUZZ_CASES` / `CAGE_FUZZ_SEED`, defaulting to a quick
    /// debug sweep and a fuller release one (CI pins its own count).
    #[must_use]
    pub fn from_env() -> Self {
        let default_cases = if cfg!(debug_assertions) { 400 } else { 5_000 };
        let parse = |var: &str| std::env::var(var).ok().and_then(|v| v.parse().ok());
        FuzzConfig {
            cases: parse("CAGE_FUZZ_CASES").unwrap_or(default_cases),
            seed: parse("CAGE_FUZZ_SEED").unwrap_or(0xCA9E),
        }
    }
}

/// What a fuzz run observed, for the smoke test's assertions and the CI
/// log.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzReport {
    /// Total cases executed.
    pub cases: u64,
    /// Mutated C sources compiled end-to-end.
    pub c_accepted: u64,
    /// Mutated C sources rejected by a compile limit.
    pub c_limit: u64,
    /// Mutated C sources rejected as malformed.
    pub c_malformed: u64,
    /// Mutated modules accepted by the serving template.
    pub module_accepted: u64,
    /// Mutated modules rejected (validation or limit).
    pub module_rejected: u64,
    /// Mutated binaries the decoder accepted.
    pub decode_accepted: u64,
    /// Mutated binaries the decoder rejected.
    pub decode_rejected: u64,
    /// Accepted modules run through both execution tiers.
    pub differential_runs: u64,
    /// Accepted C sources swept across pipeline configs (no-opt,
    /// standard, full-opt) with cross-config outcome comparison.
    pub pipeline_sweeps: u64,
    /// Compile-stage panics caught by the backstops (must be zero).
    pub compile_panics: u64,
    /// Largest frontend fuel consumption observed on the sampled cases.
    pub max_frontend_fuel: u64,
}

// The seed sources below are mutated byte-wise, so their exact text —
// indentation and trailing spaces included — is part of what a pinned
// `CAGE_FUZZ_SEED` reproduces.

/// Call-heavy: a tight loop of direct calls through a tiny leaf, so
/// frame cost dominates over arithmetic.
const CALL_HEAVY: &str = r#"
        long leaf(long a, long b) {
            return a + b;
        }
        long mid(long a, long b) {
            return leaf(a, b) + leaf(b, a);
        }
        long run(long n) {
            long acc = 0;
            for (long i = 0; i < n; i++) {
                acc = acc + mid(acc, i);
            }
            return acc;
        }
    "#;

/// Load/store-heavy: repeated array sweeps, so the scalar memory path
/// dominates.
const MEM_HEAVY: &str = r#"
        double a[2048];
        double run(long rounds) {
            for (long i = 0; i < 2048; i++) {
                a[i] = (double)i * 0.5;
            }
            double s = 0.0;
            for (long r = 0; r < rounds; r++) {
                for (long i = 0; i < 2048; i++) {
                    s = s + a[i];
                    a[i] = s * 0.000001;
                }
            }
            return s;
        }
    "#;

/// Bulk-heavy: memset/memcpy churn through the libc host functions.
const BULK_HEAVY: &str = r#"
        long run(long rounds) {
            char* a = malloc(4096);
            char* b = malloc(4096);
            for (long r = 0; r < rounds; r++) {
                memset(a, 42, 4096);
                memcpy(b, a, 4096);
            }
            long v = b[4095];
            free(a);
            free(b);
            return v;
        }
    "#;

/// Branch-heavy C: a tight loop whose body is an if/else ladder plus
/// an inner loop with an early `break`, so `br`/`br_if` dispatch and
/// block exits dominate over arithmetic.
const BRANCH_HEAVY: &str = r#"
        long run(long n) {
            long acc = 0;
            for (long i = 0; i < n; i++) {
                if (i % 3 == 0) {
                    acc = acc + 1;
                } else if (i % 5 == 0) {
                    acc = acc + 2;
                } else if (i % 7 == 0) {
                    acc = acc + 3;
                } else {
                    acc = acc - 1;
                }
                long j = i & 15;
                while (j > 0) {
                    j = j - 1;
                    if (j == 7) { break; }
                }
            }
            return acc;
        }
    "#;

/// Valid C seeds the source mutator starts from. Small but varied:
/// calls, arrays, libc churn, branch ladders, and a real PolyBench
/// kernel with nested loops over 2-D arrays.
fn c_corpus() -> Vec<&'static str> {
    let mut corpus = vec![
        CALL_HEAVY,
        MEM_HEAVY,
        BULK_HEAVY,
        BRANCH_HEAVY,
        // Switch fan-out and globals, which the kernels above lack.
        r#"
        long table[16];
        long pick(long i) {
            switch (i % 5) {
                case 0: return table[0] + 1;
                case 1: return table[1] * 2;
                case 2: { long t = table[2]; return t - 3; }
                case 3: break;
                default: return 9;
            }
            return table[i % 16];
        }
        "#,
    ];
    if let Some(k) = cage_polybench::kernel("gemm") {
        corpus.push(k.source);
    }
    corpus
}

/// Dictionary tokens the source mutator splices in — chosen to steer
/// mutants toward the grammar's edges (nesting, huge literals, stray
/// punctuation) rather than pure noise.
const DICT: &[&str] = &[
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    "*",
    "&",
    "!",
    "~",
    "%",
    "/",
    "=",
    "==",
    "->",
    "++",
    "--",
    "if",
    "else",
    "while",
    "for",
    "return",
    "break",
    "switch",
    "case",
    "default",
    "long",
    "double",
    "char",
    "void",
    "struct",
    "sizeof",
    "1000000000000",
    "0x7fffffffffffffff",
    "((((((",
    "))))))",
    "\"str\"",
    "'c'",
];

fn span(rng: &mut StdRng, len: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let start = (rng.gen::<u64>() as usize) % len;
    let max = (len - start).min(32);
    (start, start + 1 + (rng.gen::<u64>() as usize) % max.max(1))
}

/// Applies 1–4 random byte/token mutations to `seed` (ASCII-safe; the
/// corpus is ASCII and insertions are ASCII, so the result stays valid
/// UTF-8 via the lossy fallback).
fn mutate_source(rng: &mut StdRng, seed: &str, other: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    let ops = 1 + rng.gen::<u64>() % 4;
    for _ in 0..ops {
        match rng.gen::<u64>() % 6 {
            0 => {
                // Truncate.
                let at = (rng.gen::<u64>() as usize) % (bytes.len() + 1);
                bytes.truncate(at);
            }
            1 => {
                // Delete a span.
                let (a, b) = span(rng, bytes.len());
                bytes.drain(a..b.min(bytes.len()));
            }
            2 => {
                // Duplicate a span in place.
                let (a, b) = span(rng, bytes.len());
                let chunk: Vec<u8> = bytes[a..b.min(bytes.len())].to_vec();
                let at = (rng.gen::<u64>() as usize) % (bytes.len() + 1);
                bytes.splice(at..at, chunk);
            }
            3 => {
                // Insert a dictionary token.
                let tok = DICT[(rng.gen::<u64>() as usize) % DICT.len()];
                let at = (rng.gen::<u64>() as usize) % (bytes.len() + 1);
                bytes.splice(at..at, tok.bytes());
            }
            4 => {
                // Splice a span from another corpus entry.
                let (a, b) = span(rng, other.len());
                let chunk: Vec<u8> = other.as_bytes()[a..b.min(other.len())].to_vec();
                let at = (rng.gen::<u64>() as usize) % (bytes.len() + 1);
                bytes.splice(at..at, chunk);
            }
            _ => {
                // Replace one byte with printable ASCII.
                if !bytes.is_empty() {
                    let at = (rng.gen::<u64>() as usize) % bytes.len();
                    bytes[at] = b' ' + (rng.gen::<u8>() % (b'~' - b' '));
                }
            }
        }
        // Keep mutants bounded so repeated duplication cannot turn the
        // sweep into an allocation benchmark.
        bytes.truncate(1 << 16);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// A random instruction with wild immediates, for injection into
/// otherwise-valid bodies.
fn random_instr(rng: &mut StdRng) -> Instr {
    match rng.gen::<u64>() % 12 {
        0 => Instr::Nop,
        1 => Instr::Drop,
        2 => Instr::Unreachable,
        3 => Instr::I64Const(rng.gen()),
        4 => Instr::I32Const(rng.gen()),
        5 => Instr::LocalGet(rng.gen::<u32>() % 1024),
        6 => Instr::LocalSet(rng.gen::<u32>() % 1024),
        7 => Instr::I64Add,
        8 => Instr::Br(rng.gen::<u32>() % 300),
        9 => Instr::BrIf(rng.gen::<u32>() % 300),
        10 => {
            let fan = 1 + (rng.gen::<u64>() as usize) % 64;
            let t = rng.gen::<u32>() % 50;
            Instr::BrTable(vec![t; fan], rng.gen::<u32>() % 50)
        }
        _ => Instr::Call(rng.gen::<u32>() % 64),
    }
}

/// Applies 1–3 structural mutations to a copy of `seed`.
fn mutate_module(rng: &mut StdRng, seed: &Module) -> Module {
    let mut module = seed.clone();
    if module.funcs.is_empty() {
        return module;
    }
    let ops = 1 + rng.gen::<u64>() % 3;
    for _ in 0..ops {
        let fi = (rng.gen::<u64>() as usize) % module.funcs.len();
        let body = &mut module.funcs[fi].body;
        match rng.gen::<u64>() % 4 {
            0 => {
                let at = (rng.gen::<u64>() as usize) % (body.len() + 1);
                body.truncate(at);
            }
            1 => {
                if !body.is_empty() {
                    let at = (rng.gen::<u64>() as usize) % body.len();
                    let dup = body[at].clone();
                    body.insert(at, dup);
                }
            }
            2 => {
                let at = (rng.gen::<u64>() as usize) % (body.len() + 1);
                let instr = random_instr(rng);
                body.insert(at, instr);
            }
            _ => {
                // Wrap in a block nest — sometimes past the depth bound.
                let depth = 1 + rng.gen::<u64>() % 200;
                let mut nest = std::mem::take(body);
                for _ in 0..depth {
                    nest = vec![Instr::Block(BlockType::Empty, nest)];
                }
                *body = nest;
            }
        }
    }
    module
}

/// Wraps `body` in the shared counting-loop harness:
/// `do { body; } while (++locals[i] < locals[n])`.
fn counted_loop(mut body: Vec<Instr>, n: u32, i: u32) -> Instr {
    body.extend([
        Instr::LocalGet(i),
        Instr::I64Const(1),
        Instr::I64Add,
        Instr::LocalSet(i),
        Instr::LocalGet(i),
        Instr::LocalGet(n),
        Instr::I64LtS,
        Instr::BrIf(0),
    ]);
    Instr::Loop(BlockType::Empty, body)
}

/// Hand-built wasm exercising the control paths C codegen never
/// emits: a tight `br_table` dispatch loop (export `dispatch`) and a
/// loop that exits a 32-deep block nest through a variable-depth
/// `br_table` every iteration (export `unwind`).
fn branch_module() -> Module {
    let mut b = ModuleBuilder::new();
    let (n, i, acc) = (0, 1, 2);

    // dispatch(n): loop { switch (i % 4) { 0: acc+=1; 1: acc+=3; _: {} } }
    let selector = vec![
        Instr::LocalGet(i),
        Instr::I64Const(4),
        Instr::I64RemU,
        Instr::I32WrapI64,
        Instr::BrTable(vec![0, 1], 2),
    ];
    let case0 = vec![
        Instr::LocalGet(acc),
        Instr::I64Const(1),
        Instr::I64Add,
        Instr::LocalSet(acc),
        Instr::Br(1),
    ];
    let case1 = vec![
        Instr::LocalGet(acc),
        Instr::I64Const(3),
        Instr::I64Add,
        Instr::LocalSet(acc),
        Instr::Br(0),
    ];
    let mut b1 = vec![Instr::Block(BlockType::Empty, selector)];
    b1.extend(case0);
    let mut b2 = vec![Instr::Block(BlockType::Empty, b1)];
    b2.extend(case1);
    let dispatch = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64, ValType::I64],
        vec![
            counted_loop(vec![Instr::Block(BlockType::Empty, b2)], n, i),
            Instr::LocalGet(acc),
        ],
    );
    b.export_func("dispatch", dispatch);

    // unwind(n): every iteration enters 32 nested blocks and exits a
    // variable number of them in one br_table branch.
    const DEPTH: u32 = 32;
    let mut nest = vec![
        Instr::LocalGet(i),
        Instr::I64Const(i64::from(DEPTH)),
        Instr::I64RemU,
        Instr::I32WrapI64,
        Instr::BrTable((0..DEPTH - 1).collect(), DEPTH - 1),
    ];
    for _ in 0..DEPTH {
        nest = vec![Instr::Block(BlockType::Empty, nest)];
    }
    let unwind = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64, ValType::I64],
        vec![counted_loop(nest, n, i), Instr::LocalGet(i)],
    );
    b.export_func("unwind", unwind);
    b.build()
}
/// A ladder of sequential diamonds in one function (export `ladder`):
/// `if (x & k) acc += k` for `k = 1..=512`. Thousands of blocks with two
/// values live in each — the shape on which the register lowering's
/// liveness and phi placement were once quadratic.
fn ladder_module() -> Module {
    let mut body = Vec::new();
    for k in 1..=512 {
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
    b.export_func("ladder", f);
    b.build()
}

/// A tiny correct-by-construction module for the decode seeds, so the
/// binary fuzzing also covers encodings the C pipeline never produces
/// (`br_table` nests from [`branch_module`] plus this one).
fn small_module() -> Module {
    let mut b = ModuleBuilder::new();
    let f = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64],
        vec![
            Instr::LocalGet(0),
            Instr::I64Const(3),
            Instr::I64Add,
            Instr::LocalSet(1),
            Instr::LocalGet(1),
        ],
    );
    b.export_func("f", f);
    b.build()
}

/// Exported functions whose parameters are all `i64` — the ones the
/// differential driver knows how to call.
fn i64_exports(module: &Module) -> Vec<(u32, usize)> {
    module
        .exports
        .iter()
        .filter_map(|e| match e.kind {
            cage::wasm::ExportKind::Func(idx) => {
                let ty = module.func_type(idx)?;
                ty.params
                    .iter()
                    .all(|p| *p == ValType::I64)
                    .then_some((idx, ty.params.len()))
            }
            _ => None,
        })
        .collect()
}

/// One execution tier's entry point, for the differential driver.
type Tier = fn(&mut Store, cage::engine::InstanceHandle, u32, &[Value]) -> Result<Vec<Value>, Trap>;

/// Per-export outcomes of one module on the register tier.
type ExportOutcomes = Vec<Result<Vec<Value>, Trap>>;

/// Register-tier outcome of every i64 export under a fuel budget —
/// the observable the pipeline sweep compares across configs.
/// `None` when the module needs imports (e.g. a mutant that calls
/// `malloc`); the sweep skips such sources, matching `run_differential`.
fn register_outcomes(module: &Module) -> Option<ExportOutcomes> {
    i64_exports(module)
        .into_iter()
        .map(|(func_idx, arity)| {
            let mut store = Store::new(ExecConfig::default());
            let handle = store.instantiate(module, &Imports::new()).ok()?;
            store.set_fuel(handle, Some(200_000));
            Some(store.call(handle, func_idx, &vec![Value::I64(3); arity]))
        })
        .collect()
}

/// Sweeps one accepted C source across the three `PipelineConfig`
/// levels: each level's module runs both execution tiers (they
/// must agree), and the register-tier outcomes are compared across
/// levels — the optimiser may only change *cost*, never values or
/// traps. Returns whether a full cross-level comparison happened.
///
/// # Panics
///
/// Panics on any cross-config or cross-tier divergence — that is the
/// fuzz finding.
fn sweep_pipelines(source: &str, sweep_engines: &[Engine; 3]) -> bool {
    let mut modules = Vec::new();
    for engine in sweep_engines {
        match engine.compile(source) {
            Ok(artifact) => modules.push(artifact.module().clone()),
            // A level rejecting what another accepted is legitimate:
            // the extended passes charge more compile fuel.
            Err(_) => return false,
        }
    }
    let Some(outcomes): Option<Vec<ExportOutcomes>> =
        modules.iter().map(register_outcomes).collect()
    else {
        return false;
    };
    if outcomes
        .iter()
        .flatten()
        .any(|o| matches!(o, Err(Trap::FuelExhausted)))
    {
        // Fuel exhaustion is the one legitimate cross-level divergence
        // (fewer retired ops stretch the same budget further) — and the
        // tree oracle below does not implement fuel at all, so an
        // unbounded mutant (`for(;;)`) would hang it. Any level running
        // dry skips both comparisons.
        return false;
    }
    // The register tier completed on every level, so execution is
    // bounded and the fuel-less tree oracle is safe to run.
    for module in &modules {
        run_differential(module);
    }
    for (level, other) in outcomes.iter().enumerate().skip(1) {
        assert_eq!(
            &outcomes[0], other,
            "pipeline level {level} diverged from no-opt on accepted source:\n{source}"
        );
    }
    true
}

/// Runs one accepted, import-free module through both execution tiers
/// under a fuel budget and asserts they agree on every export: same
/// result or trap, same retired counts class by class.
///
/// # Panics
///
/// Panics on tier disagreement — that is the fuzz finding.
fn run_differential(module: &Module) -> bool {
    let mut ran = false;
    let exports = i64_exports(module);
    let tiers: [Tier; 2] = [
        |s, h, f, a| s.call(h, f, a),
        |s, h, f, a| s.call_tree(h, f, a),
    ];
    for (func_idx, arity) in exports {
        let args = vec![Value::I64(3); arity];
        // Result or trap, and everything the instance was charged.
        let mut outcomes = Vec::new();
        for tier in tiers {
            let mut store = Store::new(ExecConfig::default());
            let Ok(handle) = store.instantiate(module, &Imports::new()) else {
                return ran;
            };
            store.set_fuel(handle, Some(200_000));
            let result = tier(&mut store, handle, func_idx, &args);
            outcomes.push((result, store.charge_counts(handle)));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "register and tree tiers disagree on func {func_idx}"
        );
        ran = true;
    }
    ran
}

/// Runs the whole sweep.
///
/// # Panics
///
/// Panics on any fuzz finding: a compile-stage panic leaking past the
/// backstops, frontend fuel exceeding its budget, or execution-tier
/// disagreement. A clean run returns the [`FuzzReport`].
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run(config: &FuzzConfig) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report = FuzzReport {
        cases: config.cases,
        ..FuzzReport::default()
    };
    let corpus = c_corpus();
    let engines: Vec<Engine> = Variant::ALL.iter().map(|&v| Engine::new(v)).collect();
    // One engine per pipeline level for the optimiser sweep, all on the
    // same variant so the only degree of freedom is the pass set.
    let sweep_engines = [
        Engine::builder(Variant::BaselineWasm64)
            .opt_level(OptLevel::None)
            .build(),
        Engine::builder(Variant::BaselineWasm64).build(),
        Engine::builder(Variant::BaselineWasm64)
            .opt_level(OptLevel::Full)
            .build(),
    ];

    // Module seeds: hand-built br_table nests and a diamond ladder, plus
    // real lowered C.
    let mut module_seeds: Vec<Module> = vec![branch_module(), small_module(), ladder_module()];
    for src in &corpus {
        if let Ok(artifact) = engines[0].compile(src) {
            module_seeds.push(artifact.module().clone());
        }
    }

    let panics_before = cage::compile_panic_count();

    for case in 0..config.cases {
        match case % 3 {
            // --- C source mutations through the full Engine pipeline.
            0 => {
                let seed = corpus[(rng.gen::<u64>() as usize) % corpus.len()];
                let other = corpus[(rng.gen::<u64>() as usize) % corpus.len()];
                let mutated = mutate_source(&mut rng, seed, other);
                let engine = &engines[(case as usize / 3) % engines.len()];
                match engine.compile(&mutated) {
                    Ok(_) => {
                        report.c_accepted += 1;
                        if sweep_pipelines(&mutated, &sweep_engines) {
                            report.pipeline_sweeps += 1;
                        }
                    }
                    Err(e) if e.limit().is_some() => report.c_limit += 1,
                    Err(Error::CompilePanic { message }) => {
                        panic!("compile panic leaked to the report: {message}")
                    }
                    Err(_) => report.c_malformed += 1,
                }
                // Sampled fuel-boundedness check on the frontend alone:
                // consumption must never exceed the budget — exhaustion
                // has to surface as a structured limit error instead.
                if case % 24 == 0 {
                    let limits = CompileLimits::default();
                    let fuel = limits.fuel();
                    let _ = cage::cc::compile_with(&mutated, &limits, &fuel);
                    assert!(
                        fuel.consumed() <= limits.max_compile_fuel,
                        "frontend overdrew its fuel budget"
                    );
                    report.max_frontend_fuel = report.max_frontend_fuel.max(fuel.consumed());
                }
            }
            // --- Structural module mutations through the serving template.
            1 => {
                let seed = &module_seeds[(rng.gen::<u64>() as usize) % module_seeds.len()];
                let module = mutate_module(&mut rng, seed);
                match InstancePre::new(
                    Variant::BaselineWasm64,
                    Core::CortexX3,
                    &module,
                    HostProfile::Empty,
                ) {
                    Ok(_) => {
                        report.module_accepted += 1;
                        if module.imported_func_count() == 0 && run_differential(&module) {
                            report.differential_runs += 1;
                        }
                    }
                    Err(ServeError::CompilePanic(msg)) => {
                        panic!("template compile panic leaked: {msg}")
                    }
                    Err(_) => report.module_rejected += 1,
                }
            }
            // --- Binary mutations through the decoder.
            _ => {
                let seed = &module_seeds[(rng.gen::<u64>() as usize) % module_seeds.len()];
                let mut bytes = cage::wasm::binary::encode(seed);
                if rng.gen::<bool>() {
                    let at = (rng.gen::<u64>() as usize) % (bytes.len() + 1);
                    bytes.truncate(at);
                }
                let flips = 1 + rng.gen::<u64>() % 8;
                for _ in 0..flips {
                    if bytes.is_empty() {
                        break;
                    }
                    let at = (rng.gen::<u64>() as usize) % bytes.len();
                    bytes[at] ^= 1 << (rng.gen::<u8>() % 8);
                }
                match cage::wasm::binary::decode(&bytes) {
                    Ok(module) => {
                        report.decode_accepted += 1;
                        // Survivors continue through the template path:
                        // decoding is only the first acceptance gate.
                        match InstancePre::new(
                            Variant::BaselineWasm64,
                            Core::CortexX3,
                            &module,
                            HostProfile::Empty,
                        ) {
                            Ok(_) | Err(ServeError::Rejected(_) | ServeError::Instantiate(_)) => {}
                            Err(other) => panic!("decoded module broke the template: {other}"),
                        }
                    }
                    Err(_) => report.decode_rejected += 1,
                }
            }
        }
    }

    report.compile_panics = cage::compile_panic_count() - panics_before;
    assert_eq!(
        report.compile_panics, 0,
        "compile stages panicked during the sweep (caught by the \
         backstops, but each one is a bug)"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_is_deterministic_and_panic_free() {
        let config = FuzzConfig { cases: 60, seed: 7 };
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.c_accepted, b.c_accepted);
        assert_eq!(a.pipeline_sweeps, b.pipeline_sweeps);
        assert_eq!(a.module_rejected, b.module_rejected);
        assert_eq!(a.decode_rejected, b.decode_rejected);
        assert_eq!(a.compile_panics, 0);
        // The mutators reach every family.
        assert!(a.c_accepted + a.c_limit + a.c_malformed == 20, "{a:?}");
        assert!(a.module_accepted + a.module_rejected == 20, "{a:?}");
        assert!(a.decode_accepted + a.decode_rejected == 20, "{a:?}");
    }
}
