//! CLI tests for `cagec`: the `--dump-bytecode` disassembly must show
//! the register bytecode the interpreter executes — pcs, 3-address ops
//! over linear-scan slots, resolved branch targets, charge recipes —
//! unknown functions must fail with the usage exit code, `--profile`
//! must print the per-class attribution of a run, and hostile inputs
//! (empty, binary, limit-busting) must exit with the documented codes
//! rather than crash.

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
    // The array indexing is one op: base plus index times the folded
    // element size, charged as the constant, multiply and add it retires
    // (and the dissolved stack shuffles in front of them).
    assert!(
        stdout
            .lines()
            .any(|l| l.contains(" + r0 * 0x8  ; charges s") && l.contains(" <- r")),
        "{stdout}"
    );
    assert!(!stdout.contains("I64Mul"), "{stdout}");
    // Dissolved stack shuffles survive as charge-recipe letters (the
    // load absorbs simple charges plus its own memory charge).
    assert!(stdout.contains("; charges ssm"), "{stdout}");
}

#[test]
fn dump_bytecode_shows_gemm_inner_loop_in_eighteen_ops() {
    // The `k` loop of gemm under `cage` — `C[i][j] = C[i][j] + 1.5 *
    // A[i][k] * B[k][j]` — is the hottest code of the PolyBench sweep.
    // Instruction selection leaves it at 18 dispatches per round (37
    // before): one fused exit test, eight `base + sext(i) * stride`
    // address ops, three loads, three float ops, the store, the
    // increment writing `k` in place, and the back edge.
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
    // Loops are `header: br_cmp_z … →exit`, body, `jump →header`; the
    // innermost one with three loads in it is the `k` loop.
    let k_loop = ops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(": jump "))
        .filter_map(|(back, l)| Some(&ops[target(l)?..=back]))
        .filter(|body| body.iter().filter(|l| l.contains("F64Load")).count() == 3)
        .min_by_key(|body| body.len())
        .expect("a loop with three loads");
    assert!(
        k_loop.len() <= 18,
        "{} ops:\n{}",
        k_loop.len(),
        k_loop.join("\n")
    );
    assert!(k_loop[0].contains("br_cmp_z I32LtS"), "{}", k_loop[0]);
    // `rA <- rB` and nothing else on the line is a `Move`.
    let is_move = |l: &str| {
        l.split_once("<- r")
            .is_some_and(|(_, src)| src.chars().all(|c| c.is_ascii_digit()))
    };
    let left: Vec<&&str> = k_loop
        .iter()
        .filter(|l| {
            is_move(l)
                || ["I64ExtendI32S", "I32Eqz", "I64Mul"]
                    .iter()
                    .any(|op| l.contains(op))
        })
        .collect();
    assert!(left.is_empty(), "left in the k loop: {left:?}");
    assert_eq!(
        k_loop.iter().filter(|l| l.contains(" + sext r")).count(),
        8,
        "{}",
        k_loop.join("\n")
    );
}

#[test]
fn dump_bytecode_prints_bridged_instructions_by_mnemonic_over_one_register_namespace() {
    // Bridged instructions print with the paper's text mnemonics (the
    // same ones `--emit-wat` uses), and every register is a frame slot
    // `rN`: there is no second register class.
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
            .any(|l| l.contains("bridge segment.new offset=0 args [r0, r") && l.contains("] -> r")),
        "{stdout}"
    );
    assert!(
        stdout.contains("bridge segment.free offset=0 args [r"),
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
    // to remove; the dumped register bytecode must not grow.
    let program = tempfile::with_suffix(".c", MEM_PROGRAM);
    let mut op_counts = Vec::new();
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
        op_counts.push(stdout.lines().filter(|l| l.contains(": ")).count());
    }
    assert!(
        op_counts[1] <= op_counts[0],
        "--opt grew the bytecode: {op_counts:?}"
    );
}

/// `--profile` answers "where did the cycles go" for one run: the gemm
/// kernel under full Cage on Cortex-X3, class by class, then the guest's
/// same counts priced on the other two cores. The counts are the golden's
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
guest on Cortex-A715                       325473.71
guest on Cortex-A510                       986267.00";
