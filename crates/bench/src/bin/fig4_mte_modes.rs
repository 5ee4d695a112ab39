//! Regenerates Fig. 4: overhead of MTE sync and async mode for writing
//! 128 MiB of memory, per core.

fn main() {
    print!("{}", cage_bench::figures::fig4_mte_modes());
}
