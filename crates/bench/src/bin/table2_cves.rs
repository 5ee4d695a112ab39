//! Regenerates Table 2: the CVE classes, whether plain WASM mitigates
//! them, and whether Cage catches them.

fn main() {
    print!("{}", cage_bench::figures::table2_cves());
}
