//! Regenerates the §7.3 memory-overhead estimate.

fn main() {
    print!("{}", cage_bench::figures::mem_overhead());
}
