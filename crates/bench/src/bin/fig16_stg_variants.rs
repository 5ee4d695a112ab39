//! Regenerates Fig. 16 / Table 4: initialising and tagging 128 MiB with
//! the different store-tag instruction variants, per core.

fn main() {
    print!("{}", cage_bench::figures::fig16_stg_variants());
}
