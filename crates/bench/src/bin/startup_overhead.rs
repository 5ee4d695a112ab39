//! Regenerates the §7.2 startup-overhead experiment.

fn main() {
    print!("{}", cage_bench::figures::startup_overhead());
}
