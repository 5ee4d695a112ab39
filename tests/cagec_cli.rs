//! CLI tests for `cagec`: the `--dump-bytecode` disassembly must show
//! the register bytecode the interpreter executes — pcs, 3-address ops
//! over linear-scan slots, resolved branch targets, charge recipes —
//! unknown functions must fail with the usage exit code, as must an
//! `--invoke` whose arguments do not fit the export's parameter types
//! (an `--invoke` whose arguments do fit runs, whatever those types
//! are) and `--stats` or
//! `--profile` without `--invoke`; `--profile` must print the per-class
//! attribution of a run, and hostile inputs (empty, binary,
//! limit-busting) must exit with the documented codes rather than
//! crash.

use std::process::Command;

const PROGRAM: &str = r#"
    long work(long n) {
        long acc = 0;
        for (long i = 0; i < n; i++) {
            if (i % 2 == 0) {
                acc = acc + i;
            }
        }
        return acc;
    }
"#;

fn cagec() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cagec"))
}

fn write_program() -> tempfile::TempPath {
    tempfile::with_suffix(".c", PROGRAM)
}

/// Minimal tempfile helper (the workspace has no tempfile crate).
mod tempfile {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl TempPath {
        pub fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn with_suffix(suffix: &str, contents: &str) -> TempPath {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "cagec-cli-test-{}-{}{suffix}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        std::fs::write(&path, contents).expect("write temp program");
        TempPath(path)
    }
}

#[test]
fn dump_bytecode_shows_pcs_and_resolved_targets() {
    let program = write_program();
    let out = cagec()
        .arg(program.path())
        .args(["--variant", "wasm64", "--dump-bytecode", "work"])
        .output()
        .expect("cagec runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Header with the function's shape and its frame size.
    assert!(stdout.contains("params 1, results 1"), "{stdout}");
    assert!(
        stdout.lines().next().is_some_and(|l| l.ends_with(" regs")),
        "{stdout}"
    );
    // pc-prefixed lines.
    assert!(stdout.contains("0000: "), "{stdout}");
    // Resolved branch targets render as absolute pcs.
    assert!(
        stdout.contains('\u{2192}'),
        "no resolved targets in:\n{stdout}"
    );
    // The loop's conditional branch — the exit test fused into it — and
    // the function epilogue both appear, and retired source ops show up
    // as charge recipes.
    assert!(stdout.contains("br_cmp_z I64LtS r"), "{stdout}");
    assert!(stdout.contains("ret ["), "{stdout}");
    assert!(stdout.contains("; charges "), "{stdout}");
}

#[test]
fn dump_bytecode_composes_with_invoke() {
    let program = write_program();
    let out = cagec()
        .arg(program.path())
        .args([
            "--variant",
            "wasm64",
            "--dump-bytecode",
            "work",
            "--invoke",
            "work",
            "9",
        ])
        .output()
        .expect("cagec runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 0 + 2 + 4 + 6 + 8 = 20, printed as a typed result line after the
    // disassembly (a bare "20" would also match pc labels like "0020:").
    assert!(stdout.contains("\n20: i64"), "{stdout}");
}

const MEM_PROGRAM: &str = r#"
    long buf[64];
    long run(long i) {
        buf[i] = buf[i] + 1;
        return buf[i];
    }
"#;

#[test]
fn dump_bytecode_renders_register_form() {
    // The dump must show the 3-address ops the interpreter actually
    // dispatches: register-addressed loads/stores naming their operand
    // slots, immediate-folded ALU ops, and charge recipes that replay
    // the retired stack shuffles' costs.
    let program = tempfile::with_suffix(".c", MEM_PROGRAM);
    let out = cagec()
        .arg(program.path())
        .args(["--variant", "wasm64", "--dump-bytecode", "run"])
        .output()
        .expect("cagec runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // A load writing a register destination from a register address:
    // both halves must appear on the same line, or a regression to a
    // stack-addressed form would slip past split substring checks.
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("<- I64Load offset=0 addr=r") && l.contains(": r")),
        "{stdout}"
    );
    // A store reading both its address and value from registers.
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("I64Store offset=0 addr=r") && l.contains("val=r")),
        "{stdout}"
    );
    // The array indexing is part of the access: base plus index times the
    // folded element size, charged as the constant, multiply and add it
    // retires (and the dissolved stack shuffles in front of them), then
    // the access's own memory charge, last.
    let indexed = |l: &&str| l.contains(" addr=r1 + r0 * 0x8");
    let simple_then_mem = |l: &str| {
        let charges = l.rsplit_once("; charges ").map(|(_, c)| c);
        let simple = charges.and_then(|c| c.strip_suffix('m'));
        simple.is_some_and(|s| !s.is_empty() && s.chars().all(|t| t == 's'))
    };
    assert!(
        stdout.lines().filter(indexed).any(simple_then_mem),
        "{stdout}"
    );
    assert_eq!(stdout.lines().filter(indexed).count(), 3, "{stdout}");
    assert!(!stdout.contains("I64Mul"), "{stdout}");
}

#[test]
fn dump_bytecode_shows_gemm_inner_loop_in_nine_ops() {
    // The `k` loop of gemm under `cage` — `C[i][j] = C[i][j] + 1.5 *
    // A[i][k] * B[k][j]` — is the hottest code of the PolyBench sweep.
    // Instruction selection leaves it at 9 dispatches per round (37
    // without it, 14 before the accesses took in their row addresses and
    // the step its back edge): one fused exit test, three loads and the
    // store each at `base + sext(row) * stride + sext(col) * 8`, three
    // float ops, and the increment writing `k` in place on the back edge.
    let gemm = cage_polybench::kernel("gemm").expect("gemm exists");
    let program = tempfile::with_suffix(".c", gemm.source);
    let out = cagec()
        .arg(program.path())
        .args(["--variant", "cage", "--dump-bytecode", "run"])
        .output()
        .expect("cagec runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ops: Vec<&str> = stdout.lines().skip(1).collect();
    let target = |line: &str| -> Option<usize> {
        let (_, pc) = line.split_once('\u{2192}')?;
        pc[..4].parse().ok()
    };
    // The op of a line: what follows `pc: `, without the charges.
    fn body(line: &str) -> &str {
        let op = line.split_once(": ").map_or(line, |(_, op)| op);
        op.split("  ; charges").next().unwrap_or(op)
    }
    // What follows `<- rN` on a line whose op reads a register first:
    // nothing on a `Move`, ` + …` on a standalone `IndexAdd`.
    fn after_source(line: &str) -> Option<&str> {
        let (_, src) = body(line).split_once("<- r")?;
        let digits = src.chars().take_while(char::is_ascii_digit).count();
        (digits > 0).then(|| &src[digits..])
    }
    // Loops are `header: br_cmp_z … →exit`, body, and a back edge to the
    // header (a `jump`, or a step riding one); the innermost one with
    // three loads in it is the `k` loop.
    let k_loop = ops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("jump \u{2192}"))
        .filter_map(|(back, l)| Some(&ops[target(l)?..=back]))
        .filter(|body| body.iter().filter(|l| l.contains("F64Load")).count() == 3)
        .min_by_key(|body| body.len())
        .expect("a loop with three loads");
    assert!(
        k_loop.len() <= 9,
        "{} ops:\n{}",
        k_loop.len(),
        k_loop.join("\n")
    );
    assert!(k_loop[0].contains("br_cmp_z I32LtS"), "{}", k_loop[0]);
    // No `Move`, no standalone `IndexAdd` and no standalone `jump` is left.
    let left: Vec<&&str> = k_loop
        .iter()
        .filter(|l| {
            matches!(after_source(l), Some(rest) if rest.is_empty() || rest.starts_with(" + "))
                || body(l).starts_with("jump ")
                || ["I64ExtendI32S", "I32Eqz", "I64Mul"]
                    .iter()
                    .any(|op| l.contains(op))
        })
        .collect();
    assert!(left.is_empty(), "left in the k loop: {left:?}");
    // Four two-term accesses: a row term and a column term each.
    let two_term = |l: &&&str| {
        (l.contains("64Load offset=0 addr=r") || l.contains("64Store offset=0 addr=r"))
            && l.matches(" + sext r").count() == 2
    };
    assert_eq!(
        k_loop.iter().filter(two_term).count(),
        4,
        "{}",
        k_loop.join("\n")
    );
    // The back edge carries the step.
    let back = k_loop.last().expect("a back edge");
    assert!(
        back.contains("<- I32Add r") && back.contains(", const 0x1; jump \u{2192}"),
        "{back}"
    );
}

#[test]
fn dump_bytecode_prints_bridged_instructions_by_mnemonic_over_one_register_namespace() {
    // Stateful (`sys`) instructions print with the paper's text mnemonics
    // (the same ones `--emit-wat` uses), and every register is a frame
    // slot `rN`: there is no second register class.
    let program = tempfile::with_suffix(
        ".c",
        "long run(char* p) {
            char* t = __builtin_segment_new(p, 32);
            __builtin_segment_free(t, 32);
            return (long)t;
        }",
    );
    let out = cagec()
        .arg(program.path())
        .args(["--variant", "mem-safety", "--dump-bytecode", "run"])
        .output()
        .expect("cagec runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l.contains("sys segment.new offset=0 args [r0, r") && l.contains("] -> r")),
        "{stdout}"
    );
    assert!(
        stdout.contains("sys segment.free offset=0 args [r"),
        "{stdout}"
    );
    // Every operand list names frame slots only.
    for line in stdout.lines().filter(|l| l.contains('[')) {
        let list = &line[line.find('[').unwrap() + 1..line.find(']').unwrap()];
        for name in list.split(", ").filter(|n| !n.is_empty()) {
            let slot = name.strip_prefix('r');
            assert!(
                slot.is_some_and(|n| n.parse::<u16>().is_ok()),
                "{name} in {line}"
            );
        }
    }
}

#[test]
fn empty_source_compiles_without_crashing() {
    let program = tempfile::with_suffix(".c", "");
    let out = cagec()
        .arg(program.path())
        .args(["--variant", "wasm64", "--list-exports"])
        .output()
        .expect("cagec runs");
    assert!(
        out.status.success(),
        "empty input must compile to an empty module, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn non_utf8_source_is_a_clean_compile_error() {
    let program = tempfile::with_suffix(".c", "long f() { return 1; }");
    std::fs::write(program.path(), [0x6c, 0x6f, 0x6e, 0x67, 0xff, 0xfe, 0x00])
        .expect("write binary garbage");
    let out = cagec().arg(program.path()).output().expect("cagec runs");
    assert_eq!(out.status.code(), Some(1), "compile-error exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not valid UTF-8"), "{stderr}");
}

#[test]
fn limit_busting_source_exits_with_code_5() {
    // 300 paren levels: double the parser's stack-safe nesting bound.
    // The rejection must be the dedicated limit exit code, so callers
    // can tell "program too big" from "program malformed".
    let source = format!(
        "long f() {{ return {}1{}; }}",
        "(".repeat(300),
        ")".repeat(300)
    );
    let program = tempfile::with_suffix(".c", &source);
    let out = cagec().arg(program.path()).output().expect("cagec runs");
    assert_eq!(out.status.code(), Some(5), "limit exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("compile limit exceeded"), "{stderr}");
    assert!(stderr.contains("nesting depth"), "{stderr}");
}

#[test]
fn dump_bytecode_unknown_function_is_a_usage_error() {
    let program = write_program();
    let out = cagec()
        .arg(program.path())
        .args(["--dump-bytecode", "ghost"])
        .output()
        .expect("cagec runs");
    assert_eq!(out.status.code(), Some(2), "usage exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ghost"), "{stderr}");
}

#[test]
fn invoke_is_checked_against_the_export_before_instantiating() {
    let program = tempfile::with_suffix(
        ".c",
        "long f(long a, long b) { return a + b; }\nint g(int x) { return x; }\n",
    );
    for (args, wanted) in [
        (&["--invoke", "ghost"][..], "\"ghost\""),
        (
            &["--invoke", "f", "1"][..],
            "\"f\" has signature (i64, i64) -> (i64)",
        ),
        (&["--invoke", "f", "1", "2", "3"][..], "(i64, i64) -> (i64)"),
        (
            &["--invoke", "f", "1", "two"][..],
            "\"f\" has signature (i64, i64) -> (i64); `two` is not an i64",
        ),
        (
            &["--invoke", "g", "2147483648"][..],
            "\"g\" has signature (i32) -> (i32); `2147483648` is not an i32",
        ),
        (
            &["--invoke", "g", "3", "4"][..],
            "\"g\" has signature (i32) -> (i32)",
        ),
    ] {
        let out = cagec()
            .arg(program.path())
            .args(args)
            .output()
            .expect("cagec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(wanted), "{args:?}: {stderr}");
        assert!(!stderr.contains("trap"), "{args:?}: {stderr}");
    }
}

/// `--invoke` reads each argument as its parameter's type: an `int`, a
/// `double`, and under wasm32 a pointer (`i32` there) can all be passed,
/// and options after the arguments are still options.
#[test]
fn invoke_passes_arguments_of_the_exports_parameter_types() {
    let program = tempfile::with_suffix(
        ".c",
        "int g(int x) { return x * 2; }\n\
         double h(double x) { return x * 1.5; }\n\
         long p(long* q) { q[0] = 7; return q[0] * 6; }\n",
    );
    for (args, wanted) in [
        (&["--invoke", "g", "-21"][..], "-42: i32\n"),
        (&["--invoke", "h", "2.5"][..], "3.75: f64\n"),
        (&["--invoke", "p", "1048576", "--stats"][..], "42: i64\n"),
    ] {
        let out = cagec()
            .arg(program.path())
            .args(["--variant", "wasm32"])
            .args(args)
            .output()
            .expect("cagec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), wanted, "{args:?}");
    }
}

#[test]
fn stats_and_profile_without_invoke_are_usage_errors() {
    let program = write_program();
    for flag in ["--stats", "--profile"] {
        let out = cagec()
            .arg(program.path())
            .args(["--list-exports", flag])
            .output()
            .expect("cagec runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} needs --invoke")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: nothing compiled or listed");
    }
}

#[test]
fn opt_levels_agree_on_results() {
    // `--opt` (full IR optimiser) and `-O0` (no passes) must compute
    // the same answer as the default pipeline: the optimiser may only
    // change *how*, never *what*.
    let program = write_program();
    let mut results = Vec::new();
    for flags in [&[][..], &["--opt"][..], &["-O0"][..]] {
        let out = cagec()
            .arg(program.path())
            .args(["--variant", "wasm64", "--invoke", "work", "9"])
            .args(flags)
            .output()
            .expect("cagec runs");
        assert!(
            out.status.success(),
            "flags {flags:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        results.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    // 0 + 2 + 4 + 6 + 8 = 20 under every optimisation level.
    for r in &results {
        assert!(r.contains("20: i64"), "{r}");
    }
}

#[test]
fn opt_flag_shrinks_dumped_bytecode() {
    // The redundant loads in MEM_PROGRAM give the optimiser something
    // to remove; the source instructions the dumped register bytecode
    // retires (one charge letter each) must not grow. Its op count can:
    // once CSE shares `&buf[i]` between the load and the store, the
    // address has two readers and fuses into neither access.
    let program = tempfile::with_suffix(".c", MEM_PROGRAM);
    let mut retired = Vec::new();
    for flags in [&[][..], &["--opt"][..]] {
        let out = cagec()
            .arg(program.path())
            .args(["--variant", "wasm64", "--dump-bytecode", "run"])
            .args(flags)
            .output()
            .expect("cagec runs");
        assert!(
            out.status.success(),
            "flags {flags:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let letters = stdout
            .lines()
            .filter_map(|l| l.rsplit_once("; charges "))
            .map(|(_, charges)| charges.len())
            .sum::<usize>();
        retired.push(letters);
    }
    assert!(
        retired[1] < retired[0],
        "--opt did not shrink the bytecode: {retired:?}"
    );
}

/// `--profile` answers "where did the cycles go" for one run: the gemm
/// kernel under full Cage on Cortex-X3, class by class, then the same
/// counts priced on the other two cores. The counts are the golden's
/// (`gemm CageFull`), the cycles column is counts x the class's weight.
#[test]
fn profile_prints_the_gemm_attribution_table() {
    let gemm = cage_polybench::kernel("gemm").expect("gemm exists");
    let program = tempfile::with_suffix(".c", gemm.source);
    let out = cagec()
        .arg(program.path())
        .args(["--variant", "cage", "--invoke", "run", "--profile"])
        .output()
        .expect("cagec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let table: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("[profile] "))
        .collect();
    assert_eq!(table, PROFILE_GEMM.lines().collect::<Vec<_>>(), "{stderr}");
}

const PROFILE_GEMM: &str = "\
class                         count           cycles   share
simple                       755227        188806.75   75.0%
float                         27600         13800.00    5.5%
float_div                      1200          9600.00    3.8%
branch                        18984         11390.40    4.5%
mem                           34400         28208.00   11.2%
zero                          68800             0.00    0.0%
host functions                    -             0.00    0.0%
total on Cortex-X3           906211        251805.15  100.0%
total on Cortex-A715                       325473.71
total on Cortex-A510                       986267.00";

/// A `malloc`/`free` loop under `CageMemSafety`: the libc's tagging shows
/// as the `segment_new_granules` row, and since a run's counts do not
/// depend on the core, the total the default core's profile prices for
/// Cortex-A715 is the total a run on Cortex-A715 prints.
#[test]
fn profile_prices_a_malloc_program_on_every_core_as_its_own_run() {
    let program = tempfile::with_suffix(
        ".c",
        r#"
        long work(long n) {
            long acc = 0;
            for (long i = 0; i < n; i++) {
                long* p = (long*)malloc(8 * i + 8);
                p[i] = i;
                acc += p[i];
                free((char*)p);
            }
            return acc;
        }
        "#,
    );
    let profile = |core: &[&str]| {
        let out = cagec()
            .arg(program.path())
            .args([
                "--variant",
                "mem-safety",
                "--invoke",
                "work",
                "10",
                "--profile",
            ])
            .args(core)
            .output()
            .expect("cagec runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        stderr
    };
    // The cycles column of the "total on Cortex-A715" row: the first
    // field with a decimal point (the count column has none).
    let total_on_a715 = |stderr: &str| {
        stderr
            .lines()
            .find_map(|l| l.strip_prefix("[profile] total on Cortex-A715"))
            .and_then(|rest| rest.split_whitespace().find(|f| f.contains('.')))
            .unwrap_or_else(|| panic!("no A715 total in {stderr}"))
            .to_string()
    };
    let (on_x3, on_a715) = (profile(&[]), profile(&["--core", "a715"]));
    assert!(on_x3.contains("[profile] segment_new_granules"), "{on_x3}");
    assert_eq!(total_on_a715(&on_x3), total_on_a715(&on_a715));
}

/// `malloc(0)` returns a tagged block of one granule, and under
/// `CageMemSafety` that granule's `stzg` is charged like any other: four
/// `malloc(0)`/`free` pairs show as a `segment_new_granules` row of four.
#[test]
fn profile_charges_the_granule_a_zero_byte_malloc_tags() {
    let program = tempfile::with_suffix(
        ".c",
        r#"
        long work(long n) {
            long acc = 0;
            for (long i = 0; i < n; i++) {
                char* p = malloc(0);
                acc += p != 0;
                free(p);
            }
            return acc;
        }
        "#,
    );
    let out = cagec()
        .arg(program.path())
        .args([
            "--variant",
            "mem-safety",
            "--invoke",
            "work",
            "4",
            "--profile",
        ])
        .output()
        .expect("cagec runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let row = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[profile] segment_new_granules"))
        .unwrap_or_else(|| panic!("no segment_new_granules row in {stderr}"));
    assert_eq!(row.split_whitespace().next(), Some("4"), "{stderr}");
}
