//! `cagec` — the Cage toolchain driver.
//!
//! Compile a C file to hardened wasm64, optionally emit the binary module,
//! list its exports, and/or run an exported function on a simulated
//! Tensor G3 core:
//!
//! ```sh
//! cagec program.c --variant cage --invoke main
//! cagec program.c --variant wasm64 --emit program.wasm
//! cagec program.c --list-exports
//! cagec program.c --invoke work 42 7 --core a510 --stats
//! cagec program.c --variant wasm32 --invoke scale 2.5 3
//! cagec program.c --invoke work 42 7 --profile
//! ```
//!
//! Exit codes distinguish failure stages: `1` for compile/build errors,
//! `2` for usage errors, `3` for guest traps, `4` for instantiation
//! failures (e.g. the §6.4 sandbox-tag budget), `5` when the input
//! exceeds the engine's compile limits (too big or too deep to ingest).

use std::process::ExitCode;

use cage::engine::cost::class_weights;
use cage::wasm::{ExportKind, ValType};
use cage::{Artifact, Core, Engine, Error, Instance, OptLevel, Value, Variant};

/// Compile (or usage/I-O) failure.
const EXIT_COMPILE: u8 = 1;
/// Bad command line.
const EXIT_USAGE: u8 = 2;
/// The guest trapped.
const EXIT_TRAP: u8 = 3;
/// Instantiation failed.
const EXIT_INSTANTIATE: u8 = 4;
/// The input exceeded a compile limit — a resource-bound rejection
/// (distinct from a malformed program, which is `EXIT_COMPILE`).
const EXIT_LIMIT: u8 = 5;

struct Args {
    input: String,
    variant: Variant,
    core: Core,
    emit: Option<String>,
    emit_wat: Option<String>,
    invoke: Option<(String, Vec<String>)>,
    list_exports: bool,
    dump_bytecode: Option<String>,
    stats: bool,
    profile: bool,
    memory_pages: u64,
    opt: OptLevel,
}

const USAGE: &str = "\
usage: cagec <file.c> [options]

options:
  --variant <v>    wasm32 | wasm64 | mem-safety | ptr-auth | sandboxing | cage
                   (default: cage)
  --core <c>       x3 | a715 | a510 (default: x3)
  --emit <path>    write the compiled wasm module to <path>
  --emit-wat <path> write a WAT-flavoured text dump to <path>
  --invoke <fn> [args...]
                   run an exported function; its arguments (up to the next
                   `--` option) are read as its parameter types: integers
                   for i32/i64, decimals for f32/f64
  --list-exports   print the exported functions and their signatures
  --dump-bytecode <fn>
                   disassemble the register bytecode of an exported
                   function (pc, op, resolved branch targets, charges)
  --memory <pages> linear memory size in 64 KiB pages (default: 64)
  --opt            enable the full IR optimiser (CSE, load forwarding,
                   strength reduction, CFG simplify) on top of the
                   standard passes
  -O0              disable all optimisation passes (sanitizers only)
  --stats          print the --invoke run's cycles, time and memory report
  --profile        print where the --invoke run's cycles went: retired count,
                   cycles and share per charge class on the selected core, and
                   what the same counts cost on the other two cores

exit codes: 1 compile error, 2 usage, 3 guest trap, 4 instantiation failure,
            5 input exceeds compile limits
";

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let mut input = None;
    let mut variant = Variant::CageFull;
    let mut core = Core::CortexX3;
    let mut emit = None;
    let mut emit_wat = None;
    let mut invoke = None;
    let mut list_exports = false;
    let mut dump_bytecode = None;
    let mut stats = false;
    let mut profile = false;
    let mut memory_pages = 64;
    let mut opt = OptLevel::Standard;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--variant" => {
                let v = argv.next().ok_or("--variant needs a value")?;
                variant = match v.as_str() {
                    "wasm32" => Variant::BaselineWasm32,
                    "wasm64" => Variant::BaselineWasm64,
                    "mem-safety" => Variant::CageMemSafety,
                    "ptr-auth" => Variant::CagePtrAuth,
                    "sandboxing" => Variant::CageSandboxing,
                    "cage" => Variant::CageFull,
                    other => return Err(format!("unknown variant `{other}`")),
                };
            }
            "--core" => {
                let v = argv.next().ok_or("--core needs a value")?;
                core = match v.as_str() {
                    "x3" => Core::CortexX3,
                    "a715" => Core::CortexA715,
                    "a510" => Core::CortexA510,
                    other => return Err(format!("unknown core `{other}`")),
                };
            }
            "--emit" => emit = Some(argv.next().ok_or("--emit needs a path")?),
            "--emit-wat" => emit_wat = Some(argv.next().ok_or("--emit-wat needs a path")?),
            "--invoke" => {
                let name = argv.next().ok_or("--invoke needs a function name")?;
                let mut operands = Vec::new();
                while let Some(op) =
                    argv.next_if(|a| !a.starts_with("--") && !matches!(a.as_str(), "-O0" | "-h"))
                {
                    operands.push(op);
                }
                invoke = Some((name, operands));
            }
            "--list-exports" => list_exports = true,
            "--dump-bytecode" => {
                dump_bytecode = Some(argv.next().ok_or("--dump-bytecode needs a function name")?);
            }
            "--memory" => {
                memory_pages = argv
                    .next()
                    .ok_or("--memory needs a page count")?
                    .parse()
                    .map_err(|_| "--memory needs an integer")?;
            }
            "--stats" => stats = true,
            "--profile" => profile = true,
            "--opt" => opt = OptLevel::Full,
            "-O0" => opt = OptLevel::None,
            "--help" | "-h" => return Err(String::new()),
            other if input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if invoke.is_none() && (stats || profile) {
        let flag = if stats { "--stats" } else { "--profile" };
        return Err(format!("{flag} needs --invoke"));
    }
    Ok(Args {
        input: input.ok_or("missing input file")?,
        variant,
        core,
        emit,
        emit_wat,
        invoke,
        list_exports,
        dump_bytecode,
        stats,
        profile,
        memory_pages,
        opt,
    })
}

/// Renders the unified error with its full source-context chain, skipping
/// causes whose text the parent message already embeds.
fn report(err: &Error) {
    let mut shown = err.to_string();
    eprintln!("cagec: error: {shown}");
    let mut source = std::error::Error::source(err);
    while let Some(cause) = source {
        let text = cause.to_string();
        if !shown.contains(&text) {
            eprintln!("cagec:   caused by: {text}");
            shown = text;
        }
        source = cause.source();
    }
}

/// The arguments of `--invoke name operands...`, read before anything is
/// instantiated: `name` must be an exported function taking exactly as
/// many parameters as there are operands, each operand a value of its
/// parameter's type — an in-range integer for `i32`/`i64`, a decimal for
/// `f32`/`f64`.
fn invoke_args(artifact: &Artifact, name: &str, operands: &[String]) -> Result<Vec<Value>, String> {
    let Some((_, sig)) = artifact.exports().into_iter().find(|(n, _)| n == name) else {
        return Err(format!("no exported function \"{name}\" to invoke"));
    };
    let module = artifact.module();
    let params = match module.export(name).map(|e| e.kind) {
        Some(ExportKind::Func(idx)) => module.func_type(idx).map_or(&[][..], |t| &t.params),
        _ => &[],
    };
    let mismatch = |why: String| format!("\"{name}\" has signature {sig}; {why}");
    if operands.len() != params.len() {
        let n = operands.len();
        return Err(mismatch(format!("--invoke passes {n} argument(s)")));
    }
    let parse = |ty: ValType, op: &str| match ty {
        ValType::I32 => op.parse().ok().map(Value::I32),
        ValType::I64 => op.parse().ok().map(Value::I64),
        ValType::F32 => op.parse().ok().map(Value::F32),
        ValType::F64 => op.parse().ok().map(Value::F64),
    };
    params
        .iter()
        .zip(operands)
        .map(|(&ty, op)| parse(ty, op).ok_or_else(|| mismatch(format!("`{op}` is not an {ty}"))))
        .collect()
}

/// Prints the cycle attribution of what `instance` has run so far: one
/// row per charge class it retired anything in, priced on the engine's
/// core, then the hosts' fixed work, the total, and the same counts
/// priced on the other two cores. The counts do not depend on the core,
/// so each total is what a run there prints.
fn print_profile(engine: &Engine, instance: &Instance) {
    let counts = instance.charge_counts();
    let config = engine.exec_config();
    let weights = class_weights(&config);
    let total = counts.cycles(&weights);
    let row = |name: &str, count: &str, cycles: f64| {
        let share = if total > 0.0 {
            100.0 * cycles / total
        } else {
            0.0
        };
        eprintln!("[profile] {name:<22} {count:>12} {cycles:>16.2} {share:>6.1}%");
    };
    eprintln!(
        "[profile] {:<22} {:>12} {:>16} {:>7}",
        "class", "count", "cycles", "share"
    );
    for ((class, n), weight) in counts.iter().zip(weights) {
        if n != 0 {
            row(class.name(), &n.to_string(), n as f64 * weight);
        }
    }
    row("host functions", "-", counts.host_eighths as f64 / 8.0);
    row(
        &format!("total on {}", engine.core()),
        &counts.instr_count().to_string(),
        total,
    );
    for core in Core::ALL {
        if core != engine.core() {
            let weights = class_weights(&config.on_core(core));
            eprintln!(
                "[profile] {:<22} {:>12} {:>16.2}",
                format!("total on {core}"),
                "",
                counts.cycles(&weights)
            );
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("cagec: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Read as bytes first: a non-UTF-8 (e.g. binary) input gets its own
    // message instead of a raw io error — and never a panic, whatever
    // the file holds. Empty input is fine; it compiles to an empty
    // module.
    let bytes = match std::fs::read(&args.input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cagec: cannot read {}: {e}", args.input);
            return ExitCode::from(EXIT_COMPILE);
        }
    };
    let source = match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cagec: {}: source is not valid UTF-8 (bad byte at offset {})",
                args.input,
                e.utf8_error().valid_up_to()
            );
            return ExitCode::from(EXIT_COMPILE);
        }
    };
    let engine = Engine::builder(args.variant)
        .core(args.core)
        .memory_pages(args.memory_pages)
        .opt_level(args.opt)
        .build();
    let artifact = match engine.compile(&source) {
        Ok(a) => a,
        Err(e) => {
            report(&e);
            return ExitCode::from(if e.limit().is_some() {
                EXIT_LIMIT
            } else {
                EXIT_COMPILE
            });
        }
    };
    eprintln!(
        "compiled {} ({} bytes of wasm, variant {})",
        args.input,
        artifact.wasm_bytes().len(),
        artifact.variant()
    );

    if let Some(path) = &args.emit {
        if let Err(e) = std::fs::write(path, artifact.wasm_bytes()) {
            eprintln!("cagec: cannot write {path}: {e}");
            return ExitCode::from(EXIT_COMPILE);
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.emit_wat {
        let text = cage::wasm::text::print_module(artifact.module());
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cagec: cannot write {path}: {e}");
            return ExitCode::from(EXIT_COMPILE);
        }
        eprintln!("wrote {path}");
    }

    if args.list_exports {
        // Static listing from the artifact: needs no host surface, so it
        // works even when the program declares unbound `env.*` imports.
        println!("exports of {} ({}):", args.input, artifact.variant());
        for (name, sig) in artifact.exports() {
            println!("  {name} {sig}");
        }
    }

    if let Some(name) = &args.dump_bytecode {
        match artifact.disassemble(name) {
            Some(text) => print!("{text}"),
            None => {
                eprintln!("cagec: no exported function \"{name}\" to disassemble");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }

    if let Some((name, operands)) = &args.invoke {
        let values = match invoke_args(&artifact, name, operands) {
            Ok(values) => values,
            Err(msg) => {
                eprintln!("cagec: {msg}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        let mut instance = match engine.instantiate(&artifact) {
            Ok(i) => i,
            Err(e) => {
                report(&e);
                return ExitCode::from(EXIT_INSTANTIATE);
            }
        };
        match instance.invoke(name, &values) {
            Ok(results) => {
                print!("{}", instance.stdout());
                for r in &results {
                    println!("{r}");
                }
                if args.stats {
                    eprintln!(
                        "[stats] {:.0} cycles, {:.6} ms simulated on {}, {} instructions",
                        instance.cycles(),
                        instance.simulated_ms(),
                        args.core,
                        instance.instr_count()
                    );
                    let mem = instance.memory_report();
                    eprintln!(
                        "[stats] linear {} B, tag space {} B, heap peak {} B",
                        mem.linear_bytes, mem.tag_bytes, mem.heap_peak_bytes
                    );
                }
                if args.profile {
                    print_profile(&engine, &instance);
                }
            }
            Err(err) => {
                print!("{}", instance.stdout());
                report(&err);
                if err.is_memory_safety_violation() {
                    eprintln!("cagec: (memory-safety violation caught by Cage)");
                }
                return ExitCode::from(EXIT_TRAP);
            }
        }
    }
    ExitCode::SUCCESS
}
