//! The CVE-2023-26489 experiment (paper §3): a miscompiled bounds
//! check lets WASM address memory outside its sandbox. Software bounds
//! checks can be *skipped* by such a bug; the MTE tag check cannot, because
//! on hardware it is part of the memory pipeline itself.
//!
//! The engine exposes the faulty lowering as `raw_write_unchecked`; this
//! example fires it at the simulated runtime memory beyond the guest's
//! linear memory under both sandboxing strategies.
//!
//! ```sh
//! cargo run -p cage --example sandbox_escape
//! ```

use cage::engine::{Imports, Store};
use cage::{Core, Engine, Variant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let engine = Engine::new(Variant::CageSandboxing);
    let artifact = engine.compile("long f() { return 0; }")?;
    let module = artifact.module();
    let escape_offset = 64u64; // bytes past the end of the linear memory

    for (label, variant) in [
        (
            "software bounds checks (wasm64 baseline)",
            Variant::BaselineWasm64,
        ),
        ("MTE sandboxing (Cage)", Variant::CageSandboxing),
    ] {
        let mut store = Store::new(variant.exec_config(Core::CortexX3));
        let handle = store.instantiate(module, &Imports::new())?;
        let mem = store.memory_mut(handle).expect("module has memory");
        let target = mem.size() + escape_offset;

        println!("[{label}]");
        // The faulty lowering: the compiled access skips the explicit
        // bounds check (as the real CVE's erroneous lowering rule did).
        match mem.raw_write_unchecked(target, &[0x66]) {
            Ok(()) => {
                println!("  escape write at {target:#x} SUCCEEDED");
                println!(
                    "  runtime memory corrupted: byte at +{escape_offset} is now {:#x}",
                    mem.runtime_byte(escape_offset).unwrap_or(0)
                );
            }
            Err(trap) => {
                println!("  escape write at {target:#x} blocked: {trap}");
            }
        }
        println!();
    }
    println!("MTE catches the escape even though the software check was compiled away,");
    println!("because the tag comparison happens on every access in hardware (§6.4).");
    Ok(())
}
