//! Register-bytecode identity gate.
//!
//! The cycle goldens pin what the bytecode *costs*; this pins what it
//! *is*. One row per (program, variant, optimisation level): how many
//! local functions the artifact holds, how many register ops they come to
//! (so a lowering change shows its size in the diff of the golden file),
//! and the FNV-1a 64 digest of their disassembly — value numbering, slot
//! assignment, charge recipes and branch targets all show in that text —
//! over the 20 PolyBench kernels and the
//! C sources of `cage::gallery`, under all six variants and both the
//! standard and the full pipeline. A change to the register lowering
//! that is meant to be a pure speed-up (containers, passes over the same
//! equations) must leave every row as it is; a change that is meant to
//! move bytecode regenerates the file and says so:
//!
//! ```sh
//! cargo test --release -p cage-bench --test regcode_identity -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use cage::{Engine, OptLevel, Variant};

const GOLDEN: &str = include_str!("golden_regcode_digests.tsv");

fn fnv1a64(text: &str, mut hash: u64) -> u64 {
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `(family, name, source)` of every pinned program.
fn programs() -> Vec<(&'static str, String, &'static str)> {
    let mut out: Vec<_> = cage_polybench::kernels()
        .into_iter()
        .map(|k| ("polybench", k.name.to_string(), k.source))
        .collect();
    out.extend(
        cage::gallery::cases()
            .into_iter()
            .map(|c| ("gallery", c.cve.to_string(), c.source)),
    );
    out
}

/// The whole golden file as the current lowering produces it.
fn current_rows() -> String {
    let mut out = String::new();
    for (family, name, source) in programs() {
        for variant in Variant::ALL {
            for (level_name, level) in [("standard", OptLevel::Standard), ("full", OptLevel::Full)]
            {
                let engine = Engine::builder(variant).opt_level(level).build();
                let artifact = engine.compile(source).expect("builds");
                let module = artifact.module();
                let imported = module.imported_func_count();
                let mut hash = 0xcbf2_9ce4_8422_2325;
                let mut ops = 0;
                for local in 0..module.funcs.len() as u32 {
                    let text = artifact
                        .precompiled()
                        .disassemble(imported + local)
                        .expect("local function");
                    // A header line, then one line per op.
                    ops += text.lines().count() - 1;
                    hash = fnv1a64(&text, hash);
                }
                writeln!(
                    out,
                    "{family}\t{name}\t{variant:?}\t{level_name}\t{}\t{ops}\t{hash:016x}",
                    module.funcs.len()
                )
                .expect("writing to a String");
            }
        }
    }
    out
}

#[test]
fn register_bytecode_is_identical_to_golden() {
    let current = current_rows();
    let mut rows = 0;
    for (got, want) in current.lines().zip(GOLDEN.lines()) {
        assert_eq!(got, want, "register bytecode moved (row {rows})");
        rows += 1;
    }
    assert_eq!(current.lines().count(), GOLDEN.lines().count());
    // (20 kernels + the gallery) x 6 variants x 2 levels at capture time.
    assert!(rows >= 240, "golden file unexpectedly small: {rows}");
}

#[test]
#[ignore = "rewrites the golden file; run only when bytecode is meant to move"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden_regcode_digests.tsv"
    );
    std::fs::write(path, current_rows()).expect("golden file is writable");
}
