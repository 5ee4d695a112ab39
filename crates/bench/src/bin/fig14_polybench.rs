//! Regenerates Fig. 14: PolyBench/C runtime overheads of the Table 3
//! configurations, normalised to baseline wasm64, per core.

fn main() {
    print!("{}", cage_bench::figures::fig14_polybench());
}
