//! Regenerates Fig. 15: overheads of pointer authentication on the
//! call-indirect 2mm variant.

fn main() {
    print!("{}", cage_bench::figures::fig15_ptr_auth());
}
