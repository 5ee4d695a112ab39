//! The tagged-pointer layout: MTE's logical tag in address bits 56–59.
//!
//! On aarch64 Linux only 48 of 64 address bits index memory; MTE stores the
//! logical tag in bits 56–59 (Fig. 3). Cage adopts the same layout for
//! wasm64 pointers (§4.1: "Cage reserves the unused upper 16 bits of 64-bit
//! pointers to place memory safety metadata"). Guest pointers stay raw
//! `u64`s: the engine and the libc allocator strip the tag with
//! [`ADDR_MASK`] at access time, like hardware does.

/// Bit position of the low tag bit.
pub const TAG_SHIFT: u32 = 56;

/// Mask covering the 4 tag bits (bits 56–59).
pub const TAG_MASK: u64 = 0xF << TAG_SHIFT;

/// Mask covering the 48 address bits.
pub const ADDR_MASK: u64 = (1 << 48) - 1;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::Tag;

    /// `addr` carrying `tag` in the tag bits.
    fn tagged(addr: u64, tag: Tag) -> u64 {
        (addr & ADDR_MASK) | (u64::from(tag.value()) << TAG_SHIFT)
    }

    #[test]
    fn parts_roundtrip() {
        let t = Tag::new(0xB).unwrap();
        let p = tagged(0x1234_5678_9ABC, t);
        assert_eq!(p & ADDR_MASK, 0x1234_5678_9ABC);
        assert_eq!(Tag::from_low_bits(((p & TAG_MASK) >> TAG_SHIFT) as u8), t);
    }

    #[test]
    fn from_parts_truncates_address_to_48_bits() {
        let p = tagged(u64::MAX, Tag::ZERO);
        assert_eq!(p, ADDR_MASK);
        assert_eq!(p & TAG_MASK, 0);
    }

    #[test]
    fn untagged_clears_only_tag_bits() {
        let p = tagged(0xFF, Tag::new(7).unwrap());
        assert_eq!(p & !TAG_MASK, 0xFF);
        assert_eq!(TAG_MASK & ADDR_MASK, 0, "tag and address bits are disjoint");
    }

    #[test]
    fn with_tag_preserves_address() {
        let p = tagged(0x40, Tag::new(1).unwrap());
        let q = (p & !TAG_MASK) | (9 << TAG_SHIFT);
        assert_eq!(q & ADDR_MASK, 0x40);
        assert_eq!((q & TAG_MASK) >> TAG_SHIFT, 9);
    }
}
