//! Logically tagged pointers (address bits 56–59) and the MTE
//! tag-manipulation instructions that operate on them.
//!
//! On aarch64 Linux only 48 of 64 address bits index memory; MTE stores the
//! logical tag in bits 56–59 (Fig. 3). Cage adopts the same layout for
//! wasm64 pointers (§4.1: "Cage reserves the unused upper 16 bits of 64-bit
//! pointers to place memory safety metadata").

use crate::tag::{Tag, TagExclusionMask, TagPool};

/// Bit position of the low tag bit.
pub const TAG_SHIFT: u32 = 56;

/// Mask covering the 4 tag bits (bits 56–59).
pub const TAG_MASK: u64 = 0xF << TAG_SHIFT;

/// Mask covering the 48 address bits.
pub const ADDR_MASK: u64 = (1 << 48) - 1;

/// A 64-bit pointer carrying an MTE logical tag in bits 56–59.
///
/// This is a plain value type: the engine stores guest pointers as raw
/// `u64`s and uses these helpers at access time, like hardware does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TaggedPtr(u64);

impl TaggedPtr {
    /// Builds a pointer from a 48-bit address and a tag.
    #[must_use]
    pub fn from_parts(addr: u64, tag: Tag) -> Self {
        TaggedPtr((addr & ADDR_MASK) | (u64::from(tag.value()) << TAG_SHIFT))
    }

    /// The raw 64-bit value, tag bits included.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The 48-bit address portion.
    #[must_use]
    pub fn addr(self) -> u64 {
        self.0 & ADDR_MASK
    }

    /// The logical tag in bits 56–59 — the paper's `tag(pointer)` auxiliary.
    #[must_use]
    pub fn tag(self) -> Tag {
        Tag::from_low_bits(((self.0 & TAG_MASK) >> TAG_SHIFT) as u8)
    }

    /// Returns the pointer with its tag bits cleared.
    #[must_use]
    pub fn untagged(self) -> Self {
        TaggedPtr(self.0 & !TAG_MASK)
    }

    /// Replaces the tag, keeping the address (and any other upper bits).
    #[must_use]
    pub fn with_tag(self, tag: Tag) -> Self {
        TaggedPtr((self.0 & !TAG_MASK) | (u64::from(tag.value()) << TAG_SHIFT))
    }

    /// `irg`: inserts a random tag drawn from `pool`.
    #[must_use]
    pub fn irg(self, pool: &mut TagPool) -> Self {
        self.with_tag(pool.random_tag())
    }

    /// `addg`: adds `offset` to the address and `tag_delta` to the tag,
    /// skipping excluded tags.
    #[must_use]
    pub fn addg(self, offset: u64, tag_delta: u8, exclude: TagExclusionMask) -> Self {
        let new_tag = self.tag().offset_excluding(tag_delta, exclude);
        TaggedPtr::from_parts(self.addr().wrapping_add(offset), new_tag)
    }

    /// `subg`: subtracts `offset` from the address and advances the tag by
    /// `tag_delta` (tag arithmetic only ever steps forward through the
    /// allowed set, as on hardware).
    #[must_use]
    pub fn subg(self, offset: u64, tag_delta: u8, exclude: TagExclusionMask) -> Self {
        let new_tag = self.tag().offset_excluding(tag_delta, exclude);
        TaggedPtr::from_parts(self.addr().wrapping_sub(offset), new_tag)
    }

    /// `subp`: signed difference of the 56-bit address portions of two
    /// pointers, ignoring tags — how tagged C pointers are subtracted.
    #[must_use]
    pub fn subp(self, other: TaggedPtr) -> i64 {
        let a = (self.addr() << 16) as i64 >> 16;
        let b = (other.addr() << 16) as i64 >> 16;
        a.wrapping_sub(b)
    }
}

impl From<u64> for TaggedPtr {
    fn from(raw: u64) -> Self {
        TaggedPtr(raw)
    }
}

impl From<TaggedPtr> for u64 {
    fn from(ptr: TaggedPtr) -> u64 {
        ptr.raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TagExclusionMask;

    #[test]
    fn parts_roundtrip() {
        let t = Tag::new(0xB).unwrap();
        let p = TaggedPtr::from_parts(0x1234_5678_9ABC, t);
        assert_eq!(p.addr(), 0x1234_5678_9ABC);
        assert_eq!(p.tag(), t);
    }

    #[test]
    fn from_parts_truncates_address_to_48_bits() {
        let p = TaggedPtr::from_parts(u64::MAX, Tag::ZERO);
        assert_eq!(p.addr(), ADDR_MASK);
        assert_eq!(p.tag(), Tag::ZERO);
    }

    #[test]
    fn untagged_clears_only_tag_bits() {
        let p = TaggedPtr::from_parts(0xFF, Tag::new(7).unwrap());
        assert_eq!(p.untagged().raw(), 0xFF);
    }

    #[test]
    fn with_tag_preserves_address() {
        let p = TaggedPtr::from_parts(0x40, Tag::new(1).unwrap());
        let q = p.with_tag(Tag::new(9).unwrap());
        assert_eq!(q.addr(), 0x40);
        assert_eq!(q.tag().value(), 9);
    }

    #[test]
    fn irg_uses_pool() {
        let mut pool = TagPool::new(TagExclusionMask::EXCLUDE_ZERO, 11).unwrap();
        let p = TaggedPtr::from_parts(0x1000, Tag::ZERO);
        for _ in 0..100 {
            assert!(!p.irg(&mut pool).tag().is_zero());
        }
    }

    #[test]
    fn addg_advances_address_and_tag() {
        let p = TaggedPtr::from_parts(0x100, Tag::new(3).unwrap());
        let q = p.addg(0x20, 1, TagExclusionMask::EXCLUDE_ZERO);
        assert_eq!(q.addr(), 0x120);
        assert_eq!(q.tag().value(), 4);
    }

    #[test]
    fn addg_skips_excluded_zero_on_wrap() {
        let p = TaggedPtr::from_parts(0, Tag::new(15).unwrap());
        let q = p.addg(0, 1, TagExclusionMask::EXCLUDE_ZERO);
        assert_eq!(
            q.tag().value(),
            1,
            "tag increments skip the reserved zero tag"
        );
    }

    #[test]
    fn subg_moves_address_backwards() {
        let p = TaggedPtr::from_parts(0x100, Tag::new(3).unwrap());
        let q = p.subg(0x10, 0, TagExclusionMask::NONE);
        assert_eq!(q.addr(), 0xF0);
        assert_eq!(q.tag().value(), 3);
    }

    #[test]
    fn subp_ignores_tags() {
        let a = TaggedPtr::from_parts(0x200, Tag::new(5).unwrap());
        let b = TaggedPtr::from_parts(0x180, Tag::new(9).unwrap());
        assert_eq!(a.subp(b), 0x80);
        assert_eq!(b.subp(a), -0x80);
    }
}
