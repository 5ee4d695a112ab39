//! E10: the CVE-2023-26489 regression — an access whose software bounds
//! check was miscompiled away. MTE sandboxing must still contain it;
//! software bounds checking, by construction, cannot.

use cage::engine::{Imports, Store, Trap};
use cage::{Core, Engine, Variant};

fn store_with(variant: Variant) -> (Store, cage::engine::InstanceHandle) {
    let artifact = Engine::new(Variant::CageSandboxing)
        .compile("long f() { return 0; }")
        .unwrap();
    let mut store = Store::new(variant.exec_config(Core::CortexX3));
    let h = store
        .instantiate(artifact.module(), &Imports::new())
        .unwrap();
    (store, h)
}

#[test]
fn software_bounds_cannot_stop_a_miscompiled_access() {
    let (mut store, h) = store_with(Variant::BaselineWasm64);
    let mem = store.memory_mut(h).unwrap();
    let target = mem.size() + 128;
    // The faulty lowering skipped the check: the write lands in runtime
    // memory.
    mem.raw_write_unchecked(target, &[0xAB]).unwrap();
    assert_eq!(
        mem.runtime_byte(128),
        Some(0xAB),
        "runtime memory corrupted"
    );
}

#[test]
fn mte_sandbox_contains_the_same_access() {
    let (mut store, h) = store_with(Variant::CageSandboxing);
    let mem = store.memory_mut(h).unwrap();
    let target = mem.size() + 128;
    let err = mem.raw_write_unchecked(target, &[0xAB]).unwrap_err();
    assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    assert_eq!(mem.runtime_byte(128), Some(0), "runtime memory intact");
}

#[test]
fn mte_sandbox_blocks_forged_tag_bits() {
    // Fig. 13a: index masking strips guest-controlled tag bits, so even an
    // index with "the right" tag nibble cannot address runtime memory.
    let (mut store, h) = store_with(Variant::CageSandboxing);
    let mem = store.memory_mut(h).unwrap();
    let beyond = mem.size() + 16;
    for forged_nibble in 0..16u64 {
        let forged = beyond | (forged_nibble << 56);
        assert!(
            mem.raw_write_unchecked(forged, &[1]).is_err(),
            "forged tag {forged_nibble:#x} escaped the sandbox"
        );
    }
}

#[test]
fn in_bounds_accesses_unaffected_by_sandboxing() {
    let (mut store, h) = store_with(Variant::CageSandboxing);
    let mem = store.memory_mut(h).unwrap();
    mem.write(1024, 0, &[7, 8, 9]).unwrap();
    assert_eq!(mem.read(1024, 0, 3).unwrap(), vec![7, 8, 9]);
}

#[test]
fn combined_mode_still_contains_escapes() {
    let artifact = Engine::new(Variant::CageFull)
        .compile("long f() { return 0; }")
        .unwrap();
    let mut store = Store::new(Variant::CageFull.exec_config(Core::CortexX3));
    let h = store
        .instantiate(artifact.module(), &Imports::new())
        .unwrap();
    let mem = store.memory_mut(h).unwrap();
    let target = mem.size() + 32;
    assert!(mem.raw_write_unchecked(target, &[1]).is_err());
}
