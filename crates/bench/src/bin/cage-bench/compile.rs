//! `compile_cold`: from C source text to the first result.
//!
//! Every round takes every corpus unit through `Engine::compile` →
//! `Engine::instantiate` → first `invoke` under `CageFull`, so all the
//! sanitizer passes are live. A traced run additionally mirrors
//! `Engine::compile` stage by stage through the crates' public entry
//! points, and refuses to report unless the mirror produced the same
//! module bytes as `Engine::compile` did — the mirror cannot drift
//! silently.

use cage::engine::Precompiled;
use cage::{cc, ir, wasm, Artifact, Engine, Instance, Value, Variant};

use crate::corpus::{self, CorpusShape, Rng, Unit};
use crate::harness::{
    round_percentiles_us, timed_setup, OpSeries, Outcome, Rate, Round, RunConfig,
};
use crate::stats;
use crate::trace::Tracer;

struct ColdStart {
    total_ns: u64,
    compile_ns: u64,
    instantiate_ns: u64,
    invoke_ns: u64,
    retired: u64,
}

/// The three calls of a cold start, each in its own span. A failure ends
/// the sequence early; the caller closes the enclosing span either way.
/// The artifact and instance come back alive so that tearing them down
/// stays outside "source text to first result".
fn cold_start_steps(
    engine: &Engine,
    unit: &Unit,
    tracer: &mut Tracer,
    req: u64,
) -> Result<(ColdStart, Artifact, Instance), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", unit.name);
    let open = tracer.begin("core.compile", req);
    let artifact = engine.compile(&unit.source);
    let compile_ns = tracer.end(open);
    let artifact = artifact.map_err(|e| err(&e))?;
    let open = tracer.begin("core.instantiate", req);
    let inst = engine.instantiate(&artifact);
    let instantiate_ns = tracer.end(open);
    let mut inst = inst.map_err(|e| err(&e))?;
    let open = tracer.begin("core.first_invoke", req);
    let out = inst.invoke(unit.entry, &[Value::I64(unit.arg)]);
    let invoke_ns = tracer.end(open);
    let out = out.map_err(|e| err(&e))?;
    if out != [Value::I64(unit.expect)] {
        return Err(err(&format!("returned {out:?}, expected {}", unit.expect)));
    }
    let timings = ColdStart {
        total_ns: 0,
        compile_ns,
        instantiate_ns,
        invoke_ns,
        retired: inst.instr_count(),
    };
    Ok((timings, artifact, inst))
}

fn cold_start(
    engine: &Engine,
    unit: &Unit,
    tracer: &mut Tracer,
    req: u64,
) -> Result<ColdStart, String> {
    let whole = tracer.begin("cold_start", req);
    let steps = cold_start_steps(engine, unit, tracer, req);
    let total_ns = tracer.end(whole);
    steps.map(|(cs, _artifact, _instance)| ColdStart { total_ns, ..cs })
}

/// Nanoseconds, fuel and sizes of one mirrored pass over a set of
/// sources, stage by stage.
#[derive(Debug, Default, Clone, Copy)]
struct Stages {
    source_bytes: u64,
    wasm_bytes: u64,
    tokens: u64,
    functions: u64,
    lex_ns: u64,
    /// `parse_with`, which lexes too: parse alone is this minus `lex_ns`.
    parse_with_ns: u64,
    codegen_ns: u64,
    passes_ns: u64,
    lower_ns: u64,
    validate_ns: u64,
    encode_ns: u64,
    decode_ns: u64,
    precompile_ns: u64,
    /// `Engine::compile` on the same source, for the residue.
    engine_compile_ns: u64,
    lex_fuel: u64,
    parse_fuel: u64,
    codegen_fuel: u64,
    passes_fuel: u64,
    lower_fuel: u64,
    validate_fuel: u64,
}

/// Mirrors `Engine::compile_inner` on `source`, one span per stage, and
/// returns the encoded module.
fn mirror_stages(
    engine: &Engine,
    source: &str,
    tracer: &mut Tracer,
    req: u64,
    acc: &mut Stages,
) -> Result<Vec<u8>, String> {
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{stage}: {e}");
    let limits = engine.compile_limits();

    // Lexing on its own budget: `parse_with` below lexes again.
    let lex_fuel = limits.fuel();
    let open = tracer.begin("cc.lex", req);
    let tokens = cc::lexer::lex_with(source, &limits, &lex_fuel);
    acc.lex_ns += tracer.end(open);
    acc.tokens += tokens.map_err(|e| err("lex", &e))?.len() as u64;
    acc.lex_fuel += lex_fuel.consumed();

    // From here on, one budget across all stages, as in the engine.
    let fuel = limits.fuel();
    let mut spent = 0;
    let mut delta = |fuel: &wasm::CompileFuel| {
        let d = fuel.consumed() - spent;
        spent = fuel.consumed();
        d
    };
    let open = tracer.begin("cc.parse", req);
    let ast = cc::parse_with(source, &limits, &fuel);
    acc.parse_with_ns += tracer.end(open);
    let ast = ast.map_err(|e| err("parse", &e))?;
    acc.parse_fuel += delta(&fuel) - lex_fuel.consumed();

    let ptr_bytes = engine.variant().ptr_width().bytes();
    let open = tracer.begin("cc.codegen", req);
    let module = cc::codegen::compile_ast_for_with(&ast, ptr_bytes, &limits, &fuel);
    acc.codegen_ns += tracer.end(open);
    let mut module = module.map_err(|e| err("codegen", &e))?;
    acc.codegen_fuel += delta(&fuel);
    acc.functions += module.functions.len() as u64;

    let open = tracer.begin("ir.passes", req);
    let passed = ir::passes::run_pipeline_config_fueled(&mut module, &engine.pipeline(), &fuel);
    acc.passes_ns += tracer.end(open);
    passed.map_err(|e| err("passes", &e))?;
    acc.passes_fuel += delta(&fuel);

    let options = ir::LowerOptions {
        ptr_width: engine.variant().ptr_width(),
        memory_pages: engine.memory_pages(),
        stack_size: engine.stack_size(),
    };
    let open = tracer.begin("ir.lower", req);
    let lowered = ir::lower_with_limits(&module, &options, &limits, &fuel);
    acc.lower_ns += tracer.end(open);
    let lowered = lowered.map_err(|e| err("lower", &e))?;
    acc.lower_fuel += delta(&fuel);

    let open = tracer.begin("wasm.validate", req);
    let valid = wasm::validate_with_limits(&lowered.module, &limits, &fuel);
    acc.validate_ns += tracer.end(open);
    valid.map_err(|e| err("validate", &e))?;
    acc.validate_fuel += delta(&fuel);

    let open = tracer.begin("wasm.encode", req);
    let bytes = wasm::binary::encode(&lowered.module);
    acc.encode_ns += tracer.end(open);
    let open = tracer.begin("wasm.decode", req);
    let decoded = wasm::binary::decode(&bytes);
    acc.decode_ns += tracer.end(open);
    decoded.map_err(|e| err("decode", &e))?;

    let open = tracer.begin("engine.precompile", req);
    let pre = Precompiled::with_limits(&lowered.module, &limits);
    acc.precompile_ns += tracer.end(open);
    pre.map_err(|e| err("precompile", &e))?;
    Ok(bytes)
}

/// One source through the mirror and through `Engine::compile`, failing
/// unless both produce the same module bytes.
fn mirror(
    engine: &Engine,
    name: &str,
    source: &str,
    tracer: &mut Tracer,
    req: u64,
    acc: &mut Stages,
) -> Result<(), String> {
    let whole = tracer.begin("mirror", req);
    let bytes = mirror_stages(engine, source, tracer, req, acc);
    tracer.end(whole);
    let open = tracer.begin("core.compile", req);
    let artifact = engine.compile(source);
    acc.engine_compile_ns += tracer.end(open);
    let bytes = bytes.map_err(|e| format!("mirror {name}: {e}"))?;
    let artifact = artifact.map_err(|e| format!("mirror {name}: Engine::compile: {e}"))?;
    if artifact.wasm_bytes() != bytes {
        return Err(format!(
            "mirror {name}: module bytes differ from Engine::compile's"
        ));
    }
    acc.source_bytes += source.len() as u64;
    acc.wasm_bytes += bytes.len() as u64;
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let engine = Engine::new(Variant::CageFull);
    let shape = if cfg.smoke {
        CorpusShape::SMOKE
    } else {
        CorpusShape::FULL
    };

    // Set-up: generate the corpus and take it through one untimed round,
    // which also pins every unit's retired-op count.
    let prepare = || -> Result<(Vec<Unit>, Vec<u64>), String> {
        let units = corpus::corpus(cfg.seed, shape);
        let mut warmup = cfg.tracer();
        let retired = units
            .iter()
            .map(|unit| cold_start(&engine, unit, &mut warmup, 0).map(|cs| cs.retired))
            .collect::<Result<_, _>>()?;
        Ok((units, retired))
    };
    let (setups_before, setups_after) = cfg.setup_reps();
    let mut prepared = None;
    for _ in 0..setups_before {
        prepared = Some(timed_setup(&mut out.setup_s, prepare)?);
    }
    let (units, retired_pin) = prepared.expect("at least one set-up repetition");
    let polybench: Vec<_> = cage_polybench::kernels()
        .into_iter()
        .filter(|k| !cfg.smoke || k.name == "gemm")
        .collect();

    let mut tracer = cfg.tracer();
    let mut rng = Rng::new(cfg.seed);
    let mut order: Vec<usize> = (0..units.len()).collect();
    let large_bytes: usize = units
        .iter()
        .filter(|u| u.large)
        .map(|u| u.source.len())
        .sum();
    // One sample per round of each ledger figure.
    let (mut small_p50_ms, mut small_p90_ms) = (Vec::new(), Vec::new());
    let (mut instantiate_us, mut invoke_us) = (Vec::new(), Vec::new());
    let (mut source_mb_s, mut compile_ns_per_byte, mut residue_pct) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut stage_rounds: Vec<Stages> = Vec::new();
    // Per unit: its retired ops and the cold start of every round.
    let mut series: Vec<OpSeries> = units
        .iter()
        .zip(&retired_pin)
        .map(|(unit, &retired)| OpSeries {
            name: unit.name.clone(),
            ns: Vec::with_capacity(cfg.rounds),
            retired,
        })
        .collect();
    for round in 0..cfg.rounds {
        let traced = cfg.round_is_traced(round);
        tracer.set_recording(traced);
        rng.shuffle(&mut order);
        let (mut total_ns, mut compile_ns, mut instantiate_ns, mut invoke_ns) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut large_ns, mut retired, mut bytes) = (0u64, 0u64, 0usize);
        let mut latencies = Vec::with_capacity(units.len());
        let mut small_ms = Vec::with_capacity(units.len());
        for &i in &order {
            let unit = &units[i];
            out.attempted += 1;
            match cold_start(&engine, unit, &mut tracer, round as u64) {
                Ok(cs) => {
                    if cs.retired != retired_pin[i] {
                        out.fail(format!("{}: retired ops moved between rounds", unit.name));
                    }
                    total_ns += cs.total_ns;
                    compile_ns += cs.compile_ns;
                    instantiate_ns += cs.instantiate_ns;
                    invoke_ns += cs.invoke_ns;
                    retired += cs.retired;
                    bytes += unit.source.len();
                    latencies.push(cs.total_ns as f64);
                    series[i].ns.push(cs.total_ns as f64);
                    if unit.large {
                        large_ns += cs.total_ns;
                    } else {
                        small_ms.push(cs.total_ns as f64 / 1e6);
                    }
                }
                Err(e) => out.fail(e),
            }
        }
        let (op_p50_us, op_p90_us) = round_percentiles_us(&latencies);
        out.rounds.push(Round {
            traced,
            ops_per_s: units.len() as f64 / (total_ns as f64 / 1e9),
            guest_mops: retired as f64 / (total_ns as f64 / 1e3),
            op_p50_us,
            op_p90_us,
        });
        // bytes per microsecond is megabytes per second
        source_mb_s.push(large_bytes as f64 / (large_ns as f64 / 1e3));
        compile_ns_per_byte.push(compile_ns as f64 / bytes as f64);
        // Per unit, so that compile + instantiate + first invoke + the
        // residue add up to the mean cold start.
        instantiate_us.push(instantiate_ns as f64 / 1e3 / units.len() as f64);
        invoke_us.push(invoke_ns as f64 / 1e3 / units.len() as f64);
        let parts_ns = compile_ns + instantiate_ns + invoke_ns;
        residue_pct.push((total_ns - parts_ns) as f64 / total_ns as f64 * 100.0);
        small_p50_ms.push(stats::percentile(&small_ms, 50.0));
        small_p90_ms.push(stats::percentile(&small_ms, 90.0));

        if traced {
            // The stage ledger, outside the round's own timing: the
            // generated corpus plus the PolyBench sources.
            let mut stages = Stages::default();
            let sources = units
                .iter()
                .map(|u| (u.name.as_str(), u.source.as_str()))
                .chain(polybench.iter().map(|k| (k.name, k.source)));
            for (name, source) in sources {
                out.attempted += 1;
                if let Err(e) = mirror(
                    &engine,
                    name,
                    source,
                    &mut tracer,
                    round as u64,
                    &mut stages,
                ) {
                    out.fail(e);
                }
            }
            stage_rounds.push(stages);
        }
    }
    for _ in 0..setups_after {
        timed_setup(&mut out.setup_s, prepare)?;
    }
    out.ops = series;
    out.rate = Rate::Together;

    // Ledger times are read like the end-to-end metrics: the undisturbed
    // value of the per-round samples. Shares of a whole are plain medians.
    let clean = |samples: &[f64]| stats::undisturbed(samples, false);
    out.set_layer("sim.retired_ops", retired_pin.iter().sum::<u64>() as f64);
    out.set_layer("core.compile_ns_per_byte", clean(&compile_ns_per_byte));
    out.set_layer("core.instantiate_us", clean(&instantiate_us));
    out.set_layer("core.first_invoke_us", clean(&invoke_us));
    out.set_layer("core.cold_start_residue_pct", stats::median(&residue_pct));
    out.set_layer("core.source_mb_s", stats::undisturbed(&source_mb_s, true));
    out.set_layer("core.cold_start_ms_p50", clean(&small_p50_ms));
    out.set_layer("core.cold_start_ms_p90", clean(&small_p90_ms));

    if let Some(first) = stage_rounds.first() {
        // Times: over the traced rounds, that round's ns per source byte.
        // Counts are exact, so any round's will do — and must agree.
        let per_byte = |ns: fn(&Stages) -> u64| {
            let samples: Vec<f64> = stage_rounds
                .iter()
                .map(|s| ns(s) as f64 / s.source_bytes.max(1) as f64)
                .collect();
            clean(&samples)
        };
        // Each span is read on its own before subtracting: the cleanest
        // difference of two spans is the round that disturbed the second.
        let lex = per_byte(|s| s.lex_ns);
        out.set_layer("cc.lex_ns_per_byte", lex);
        out.set_layer(
            "cc.parse_ns_per_byte",
            (per_byte(|s| s.parse_with_ns) - lex).max(0.0),
        );
        out.set_layer("cc.codegen_ns_per_byte", per_byte(|s| s.codegen_ns));
        out.set_layer("ir.passes_ns_per_byte", per_byte(|s| s.passes_ns));
        out.set_layer("ir.lower_ns_per_byte", per_byte(|s| s.lower_ns));
        out.set_layer("wasm.validate_ns_per_byte", per_byte(|s| s.validate_ns));
        out.set_layer("wasm.encode_ns_per_byte", per_byte(|s| s.encode_ns));
        out.set_layer("wasm.decode_ns_per_byte", per_byte(|s| s.decode_ns));
        out.set_layer(
            "engine.precompile_ns_per_byte",
            per_byte(|s| s.precompile_ns),
        );
        let residue: Vec<f64> = stage_rounds
            .iter()
            .map(|s| {
                let staged =
                    s.parse_with_ns + s.codegen_ns + s.passes_ns + s.lower_ns + s.validate_ns;
                (s.engine_compile_ns as f64 - staged as f64) / s.engine_compile_ns as f64 * 100.0
            })
            .collect();
        out.set_layer("core.compile_residue_pct", stats::median(&residue));
        out.set_layer("cc.lex_fuel", first.lex_fuel as f64);
        out.set_layer("cc.parse_fuel", first.parse_fuel as f64);
        out.set_layer("cc.codegen_fuel", first.codegen_fuel as f64);
        out.set_layer("cc.tokens", first.tokens as f64);
        out.set_layer("ir.passes_fuel", first.passes_fuel as f64);
        out.set_layer("ir.lower_fuel", first.lower_fuel as f64);
        out.set_layer("ir.functions", first.functions as f64);
        out.set_layer("wasm.validate_fuel", first.validate_fuel as f64);
        out.set_layer(
            "wasm.bytes_per_source_byte",
            first.wasm_bytes as f64 / first.source_bytes.max(1) as f64,
        );
        let counts = |s: &Stages| {
            [
                s.lex_fuel,
                s.parse_fuel,
                s.codegen_fuel,
                s.passes_fuel,
                s.lower_fuel,
                s.validate_fuel,
                s.tokens,
                s.functions,
                s.wasm_bytes,
            ]
        };
        if stage_rounds.iter().any(|s| counts(s) != counts(first)) {
            out.fail("compile fuel or size counts moved between rounds".to_string());
        }
    }
    out.tracers.push(tracer);
    Ok(out)
}
