//! Property tests for the allocation-free memory hot path.
//!
//! The scalar `read_scalar`/`write_scalar` pair must round-trip
//! bit-identically with the legacy byte-slice `read`/`write` pair across
//! every `LoadOp`/`StoreOp` width and every tag scheme, and the in-place
//! bulk `copy` must match a naive temp-buffer copy on every overlap shape.

use cage_engine::memory::PAGE_SIZE;
use cage_engine::{LinearMemory, TagScheme};
use cage_mte::Tag;
use cage_wasm::instr::{LoadOp, StoreOp};

const LOAD_OPS: [LoadOp; 14] = [
    LoadOp::I32Load,
    LoadOp::I64Load,
    LoadOp::F32Load,
    LoadOp::F64Load,
    LoadOp::I32Load8S,
    LoadOp::I32Load8U,
    LoadOp::I32Load16S,
    LoadOp::I32Load16U,
    LoadOp::I64Load8S,
    LoadOp::I64Load8U,
    LoadOp::I64Load16S,
    LoadOp::I64Load16U,
    LoadOp::I64Load32S,
    LoadOp::I64Load32U,
];

const STORE_OPS: [StoreOp; 9] = [
    StoreOp::I32Store,
    StoreOp::I64Store,
    StoreOp::F32Store,
    StoreOp::F64Store,
    StoreOp::I32Store8,
    StoreOp::I32Store16,
    StoreOp::I64Store8,
    StoreOp::I64Store16,
    StoreOp::I64Store32,
];

/// Every tag scheme; a memory built under one carries its own policy.
fn schemes() -> [TagScheme; 4] {
    [
        TagScheme::None,
        TagScheme::InternalOnly,
        TagScheme::ExternalOnly {
            instance_tag: Tag::new(5).expect("valid tag"),
        },
        TagScheme::Combined,
    ]
}

fn mem(scheme: TagScheme) -> LinearMemory {
    LinearMemory::new(1, None, true, scheme, 7)
}

fn mask(width: u64) -> u64 {
    if width == 8 {
        u64::MAX
    } else {
        (1u64 << (width * 8)) - 1
    }
}

/// Assembles the legacy byte-slice read the way the old interpreter did.
fn legacy_read(m: &mut LinearMemory, index: u64, width: u64) -> u64 {
    let bytes = m.read(index, 0, width).expect("in-bounds read");
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(&bytes);
    u64::from_le_bytes(buf)
}

proptest::proptest! {
    /// Scalar writes read back bit-identically through both the legacy
    /// byte-slice path and the scalar path, for every store width and
    /// every tag scheme — and vice versa for legacy writes.
    #[test]
    fn prop_scalar_and_slice_paths_agree(raw: u64, addr in 0u64..(PAGE_SIZE - 8)) {
        for scheme in schemes() {
            let mut m = mem(scheme);
            for op in STORE_OPS {
                let width = op.width();
                m.write_scalar(addr, 0, width, raw).expect("scalar write");
                let expected = raw & mask(width);
                // Legacy byte-slice readback sees the same bits...
                proptest::prop_assert_eq!(
                    legacy_read(&mut m, addr, width), expected,
                    "store {:?} under {:?}", op, scheme
                );
                // ...as does the scalar readback.
                let scalar = m.read_scalar(addr, 0, width).expect("scalar read");
                proptest::prop_assert_eq!(scalar, expected);
            }
            for op in LOAD_OPS {
                let width = op.width();
                // Legacy byte-slice write, scalar readback.
                let bytes = raw.to_le_bytes();
                m.write(addr, 0, &bytes[..width as usize]).expect("slice write");
                let scalar = m.read_scalar(addr, 0, width).expect("scalar read");
                proptest::prop_assert_eq!(
                    scalar, raw & mask(width),
                    "load {:?} under {:?}", op, scheme
                );
            }
        }
    }

    /// In-place `copy` matches a naive temp-buffer copy on arbitrary
    /// (including overlapping, in both directions) ranges.
    #[test]
    fn prop_bulk_copy_matches_temp_buffer_semantics(
        seed: u64,
        dst in 0u64..512,
        src in 0u64..512,
        len in 0u64..300,
    ) {
        let mut m = mem(TagScheme::None);
        // Deterministic pseudo-random initial contents.
        let mut state = seed | 1;
        let mut image: Vec<u8> = (0..1024u64)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        m.write(0, 0, &image).expect("init write");
        // Naive model: read through a temporary buffer, then write.
        let temp = image[src as usize..(src + len) as usize].to_vec();
        image[dst as usize..(dst + len) as usize].copy_from_slice(&temp);
        // In-place engine copy.
        m.copy(dst, src, len).expect("bulk copy");
        proptest::prop_assert_eq!(m.read_resolved(0, 1024), &image[..]);
    }

    /// Bulk `fill` matches a byte-loop on arbitrary in-bounds ranges.
    #[test]
    fn prop_bulk_fill_matches_byte_loop(
        val: u64,
        dst in 0u64..900,
        len in 0u64..100,
    ) {
        let mut m = mem(TagScheme::None);
        let val = val as u8;
        m.fill(dst, val, len).expect("bulk fill");
        let got = m.read_resolved(dst, len.max(1));
        if len > 0 {
            proptest::prop_assert!(got.iter().all(|b| *b == val));
        }
    }
}

/// Zero-length bulk operations are permitted exactly at the memory
/// boundary (Wasm bulk-memory semantics) but not past it.
#[test]
fn zero_length_bulk_ops_at_boundary() {
    for scheme in schemes() {
        let mut m = mem(scheme);
        let size = m.size();
        m.fill(size, 0xAB, 0)
            .unwrap_or_else(|e| panic!("fill len=0 at boundary under {scheme:?}: {e}"));
        m.copy(size, size, 0)
            .unwrap_or_else(|e| panic!("copy len=0 at boundary under {scheme:?}: {e}"));
        m.copy(0, size, 0).expect("src at boundary");
        m.copy(size, 0, 0).expect("dst at boundary");
    }
    // One past the end traps under every strategy: zero-width accesses
    // touch no granule, so even the MTE-sandbox variants fall back to the
    // spec's `addr <= len(mem)` bounds check.
    for scheme in schemes() {
        let mut m = mem(scheme);
        let size = m.size();
        assert!(
            m.fill(size + 1, 0, 0).is_err(),
            "fill past boundary under {scheme:?}"
        );
        assert!(m.copy(size + 1, 0, 0).is_err());
        assert!(m.copy(0, size + 1, 0).is_err());
    }
}
