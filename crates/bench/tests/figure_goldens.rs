//! The eight table/figure outputs, byte for byte.
//!
//! `golden_figures/<name>.txt` is the text the binary `<name>` printed
//! before the engine's accounting moved from one `f64` accumulator to
//! integer class counts; every function of `cage_bench::figures` must
//! still produce exactly that text. The cycle goldens pin the model to
//! the last bit on one suite; these pin what the paper's reader sees —
//! all three cores, the MTE/PAC timing tables, the CVE matrix, the memory
//! and startup estimates.
//!
//! To regenerate one after a deliberate change of the model:
//! `cargo run --release -p cage-bench --bin <name> >
//! crates/bench/tests/golden_figures/<name>.txt`.

use cage_bench::figures;

fn check(name: &str, got: &str, golden: &str) {
    if got == golden {
        return;
    }
    let line = got
        .lines()
        .zip(golden.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
    panic!(
        "{name}: output differs from golden_figures/{name}.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
        line + 1,
        got.lines().nth(line),
        golden.lines().nth(line)
    );
}

macro_rules! figure_golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            check(
                stringify!($name),
                &figures::$name(),
                include_str!(concat!("golden_figures/", stringify!($name), ".txt")),
            );
        }
    )*};
}

figure_golden!(
    table1_instructions,
    fig4_mte_modes,
    table2_cves,
    fig14_polybench,
    fig15_ptr_auth,
    fig16_stg_variants,
    mem_overhead,
    startup_overhead,
);
