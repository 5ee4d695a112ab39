//! Regenerates Table 1: MTE and PAC instruction throughput and latencies
//! per core.

fn main() {
    print!("{}", cage_bench::figures::table1_instructions());
}
