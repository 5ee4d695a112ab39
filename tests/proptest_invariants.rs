//! Property-based invariants across the stack.

use cage::engine::{ExecConfig, Imports, Store};
use cage::pac::{PacKey, PacSigner, PointerLayout};
use cage::{Core, Engine, Value, Variant};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sign ∘ auth is the identity for every pointer/modifier/layout, and
    /// any single-bit tampering of a signed pointer fails authentication.
    #[test]
    fn pac_roundtrip_and_tamper_detection(
        addr in 0u64..(1 << 48),
        modifier: u64,
        k0: u64,
        k1: u64,
        flip in 0u32..48,
        mte in any::<bool>(),
    ) {
        let layout = if mte { PointerLayout::MtePac } else { PointerLayout::PacOnly };
        let signer = PacSigner::new(PacKey::from_parts(k0, k1), layout, true);
        let signed = signer.sign(addr, modifier);
        prop_assert_eq!(signer.auth(signed, modifier), Ok(addr));
        // Tamper with an address bit: must fail.
        let tampered = signed ^ (1 << flip);
        prop_assert!(signer.auth(tampered, modifier).is_err());
        // Wrong modifier: must fail (unless it equals the original).
        if modifier != modifier.wrapping_add(1) {
            prop_assert!(signer.auth(signed, modifier.wrapping_add(1)).is_err());
        }
    }

    /// The Fig. 13 masking: no guest-forged index can carry a tag that
    /// addresses runtime (tag-0) memory under MTE sandboxing.
    #[test]
    fn sandbox_masking_contains_arbitrary_indices(
        index: u64,
        seed: u64,
    ) {
        let artifact = Engine::new(Variant::CageSandboxing)
            .compile("long f() { return 0; }")
            .unwrap();
        let config = ExecConfig {
            seed,
            ..Variant::CageSandboxing.exec_config(Core::CortexX3)
        };
        let mut store = Store::new(config);
        let h = store.instantiate(artifact.module(), &Imports::new()).unwrap();
        let mem = store.memory_mut(h).unwrap();
        let size = mem.size();
        let result = mem.raw_write_unchecked(index, &[0x5A]);
        let addr = index & ((1u64 << 48) - 1);
        if addr < size {
            // In bounds: always permitted (the instance owns its memory).
            prop_assert!(result.is_ok(), "in-bounds write rejected at {addr:#x}");
        } else {
            // Out of bounds: never permitted, whatever the tag bits say.
            prop_assert!(result.is_err(), "escape at {addr:#x} (index {index:#x})");
        }
    }

    /// Compiled arithmetic agrees with a host-side evaluation of the same
    /// expression for arbitrary operand values (differential testing of
    /// cc + lowering + engine).
    #[test]
    fn compiled_arithmetic_matches_host(
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
        c in 1i64..1_000_000, // divisor: nonzero
    ) {
        let src = r#"
            long f(long a, long b, long c) {
                return (a + b) * 3 - a / c + (b % c) + ((a ^ b) & 1023) - (a << 2) + (b >> 3);
            }
        "#;
        let expected = (a.wrapping_add(b)).wrapping_mul(3)
            - a / c
            + (b % c)
            + ((a ^ b) & 1023)
            - (a.wrapping_shl(2))
            + (b >> 3);
        for variant in [Variant::BaselineWasm64, Variant::CageFull] {
            let engine = Engine::new(variant);
            let mut inst = engine.instantiate(&engine.compile(src).unwrap()).unwrap();
            let f = inst.get_typed::<(i64, i64, i64), i64>("f").unwrap();
            let out = f.call(&mut inst, (a, b, c)).unwrap();
            prop_assert_eq!(out, expected, "variant {}", variant);
        }
    }

    /// Heap store/load round-trips through the hardened allocator for
    /// arbitrary sizes and offsets, and the first out-of-segment byte
    /// always traps.
    #[test]
    fn allocation_boundary_is_exact(
        size in 1u64..200,
    ) {
        let src = r#"
            long probe(long size, long at) {
                char* p = malloc(size);
                p[at] = 42;
                long v = p[at];
                free(p);
                return v;
            }
        "#;
        let engine = Engine::new(Variant::CageMemSafety);
        let artifact = engine.compile(src).unwrap();
        // Last in-bounds byte of the *granule-aligned* segment.
        let aligned = size.div_ceil(16).max(1) * 16;
        let mut inst = engine.instantiate(&artifact).unwrap();
        let ok = inst.invoke("probe", &[Value::I64(size as i64), Value::I64(aligned as i64 - 1)]);
        prop_assert!(ok.is_ok(), "in-segment access trapped: {ok:?}");
        // First byte past the segment: the adjacent metadata slot.
        let mut inst = engine.instantiate(&artifact).unwrap();
        let oob = inst.invoke("probe", &[Value::I64(size as i64), Value::I64(aligned as i64)]);
        prop_assert!(oob.is_err(), "first out-of-segment byte not trapped");
    }

    /// Internal safety never changes program *results*, only whether bugs
    /// trap: a correct random walk computes the same value everywhere.
    #[test]
    fn hardening_preserves_semantics(
        n in 1i64..64,
        seed in 0i64..1024,
    ) {
        let src = r#"
            long walk(long n, long seed) {
                long* state = (long*)malloc(n * 8);
                long h = seed;
                for (long i = 0; i < n; i++) {
                    h = h * 6364136223846793005 + 1442695040888963407;
                    state[i] = h >> 33;
                }
                long acc = 0;
                for (long i = 0; i < n; i++) {
                    acc ^= state[i];
                }
                free((char*)state);
                return acc;
            }
        "#;
        let mut golden = None;
        for variant in [Variant::BaselineWasm64, Variant::CageMemSafety, Variant::CageFull] {
            let engine = Engine::builder(variant).core(Core::CortexA715).build();
            let mut inst = engine.instantiate(&engine.compile(src).unwrap()).unwrap();
            let walk = inst.get_typed::<(i64, i64), i64>("walk").unwrap();
            let out = walk.call(&mut inst, (n, seed)).unwrap();
            match &golden {
                None => golden = Some(out),
                Some(g) => prop_assert_eq!(&out, g, "variant {}", variant),
            }
        }
    }

    /// Engine determinism: identical (module, config, seed) runs are
    /// charged identical counts, with and without internal safety and
    /// pointer authentication.
    #[test]
    fn cycle_accounting_is_pure(
        seed: u64,
        variant in prop_oneof![
            Just(Variant::BaselineWasm64),
            Just(Variant::CageMemSafety),
            Just(Variant::CageFull)
        ],
    ) {
        let artifact = Engine::new(Variant::CageFull)
            .compile("long f(long n) { long a[8]; for (long i=0;i<n;i++) a[i%8]=i; return a[0]; }")
            .unwrap();
        let config = ExecConfig {
            seed,
            ..variant.exec_config(Core::CortexA510)
        };
        let run = || {
            let mut store = Store::new(config);
            let h = store.instantiate(artifact.module(), &Imports::new()).unwrap();
            store.invoke(h, "f", &[Value::I64(50)]).unwrap();
            store.charge_counts(h)
        };
        prop_assert_eq!(run(), run());
    }
}
