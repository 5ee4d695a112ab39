//! Allocation tags, tag pools and the GCR-style exclusion mask.
//!
//! MTE tags are 4-bit values (16 distinct tags) assigned to memory at a
//! 16-byte granularity. Linux exposes which tags the `irg` instruction may
//! generate through `prctl(PR_SET_TAGGED_ADDR_CTRL, ...)`, which programs a
//! per-thread exclusion mask (architecturally: `GCR_EL1.Exclude`). Cage uses
//! that mechanism (§6.4) to keep tag 0 for the runtime / guard slots and, in
//! combined internal+external mode, to pin tag bit 56 for sandboxing.

use std::fmt;

use rand::Rng;

/// MTE tags memory at a 16-byte granularity.
pub const GRANULE_SIZE: usize = 16;

/// Number of distinct MTE tags (4 bits).
pub const TAG_COUNT: usize = 16;

/// A 4-bit MTE allocation tag.
///
/// Tag 0 is conventionally the "untagged" tag: freshly mapped memory and
/// untagged pointers both carry it, which is why Cage reserves it for the
/// runtime and for guard slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag(u8);

impl Tag {
    /// The zero tag carried by untagged pointers and fresh memory.
    pub const ZERO: Tag = Tag(0);

    /// Creates a tag from its 4-bit value.
    ///
    /// # Errors
    ///
    /// Returns [`TagError::OutOfRange`] if `value >= 16`.
    pub fn new(value: u8) -> Result<Self, TagError> {
        if value < TAG_COUNT as u8 {
            Ok(Tag(value))
        } else {
            Err(TagError::OutOfRange(value))
        }
    }

    /// Creates a tag from the low 4 bits of `value`, discarding the rest.
    #[must_use]
    pub fn from_low_bits(value: u8) -> Self {
        Tag(value & 0xF)
    }

    /// The tag's 4-bit value.
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }

    /// Returns `true` for the zero (untagged) tag.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Tag arithmetic as performed by `addg`/`subg`: wraps within 4 bits.
    ///
    /// The architectural instructions skip excluded tags; that behaviour
    /// lives in [`Tag::offset_excluding`] because it needs the mask.
    #[must_use]
    pub fn wrapping_add(self, delta: u8) -> Self {
        Tag((self.0.wrapping_add(delta)) & 0xF)
    }

    /// Advances the tag by `delta` steps, skipping tags in `exclude`.
    ///
    /// This mirrors `addg`'s behaviour when `GCR_EL1.Exclude` is programmed:
    /// the incremented tag never lands on an excluded value. If every tag is
    /// excluded the tag is returned unchanged (hardware behaves as if the
    /// exclusion mask were empty in that degenerate case).
    #[must_use]
    pub fn offset_excluding(self, delta: u8, exclude: TagExclusionMask) -> Self {
        if exclude.allowed_count() == 0 {
            return self.wrapping_add(delta);
        }
        let mut tag = self;
        for _ in 0..delta {
            loop {
                tag = tag.wrapping_add(1);
                if !exclude.is_excluded(tag) {
                    break;
                }
            }
        }
        tag
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:x}", self.0)
    }
}

impl From<Tag> for u8 {
    fn from(tag: Tag) -> u8 {
        tag.0
    }
}

/// Errors produced by tag construction and tag-pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagError {
    /// The value does not fit in 4 bits.
    OutOfRange(u8),
    /// A tag pool was configured with every tag excluded.
    AllTagsExcluded,
    /// An address or length was not aligned to the 16-byte granule.
    Unaligned(u64),
    /// The range `[addr, addr + len)` does not lie inside the tag store.
    RangeOutOfBounds {
        /// First byte of the rejected range.
        addr: u64,
        /// Its length in bytes.
        len: u64,
    },
}

impl fmt::Display for TagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagError::OutOfRange(v) => write!(f, "tag value {v} does not fit in 4 bits"),
            TagError::AllTagsExcluded => write!(f, "tag pool excludes all 16 tags"),
            TagError::Unaligned(a) => write!(f, "address {a:#x} is not 16-byte aligned"),
            TagError::RangeOutOfBounds { addr, len } => {
                write!(f, "range {addr:#x}+{len:#x} lies outside the tag store")
            }
        }
    }
}

impl std::error::Error for TagError {}

/// A GCR_EL1-style mask of tags that `irg` must not generate.
///
/// Bit *n* set means tag *n* is excluded. Linux programs this via
/// `prctl(PR_SET_TAGGED_ADDR_CTRL, PR_MTE_TAG_MASK, ...)`; Cage's runtime
/// startup does the equivalent (§6.4 "at runtime startup, we specify which
/// tags can be generated using the prctl mechanism").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TagExclusionMask(u16);

impl TagExclusionMask {
    /// No tag excluded.
    pub const NONE: TagExclusionMask = TagExclusionMask(0);

    /// Excludes only tag 0 — the configuration for Cage internal-only mode:
    /// random tags are drawn from 1–15 (collision probability 1/15).
    pub const EXCLUDE_ZERO: TagExclusionMask = TagExclusionMask(0b1);

    /// Internal+external combined mode: the runtime owns tags 0–7 (bit 56
    /// clear) and the guest's untagged tag 8, so `irg` may only produce
    /// tags 9–15 (collision probability 1/7, §7.4).
    pub const GUEST_COMBINED: TagExclusionMask = TagExclusionMask(0b0000_0001_1111_1111);

    /// Creates a mask from its raw 16-bit representation.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        TagExclusionMask(bits)
    }

    /// The raw bits (bit *n* = tag *n* excluded).
    #[must_use]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Marks `tag` as excluded, returning the updated mask.
    #[must_use]
    pub fn with_excluded(self, tag: Tag) -> Self {
        TagExclusionMask(self.0 | (1 << tag.value()))
    }

    /// Returns `true` if `tag` must not be generated.
    #[must_use]
    pub fn is_excluded(self, tag: Tag) -> bool {
        self.0 & (1 << tag.value()) != 0
    }

    /// Number of tags that remain available for generation.
    #[must_use]
    pub fn allowed_count(self) -> usize {
        TAG_COUNT - self.0.count_ones() as usize
    }

    /// Iterates over the allowed (non-excluded) tags in ascending order.
    pub fn allowed_tags(self) -> impl Iterator<Item = Tag> {
        (0..TAG_COUNT as u8)
            .map(Tag::from_low_bits)
            .filter(move |t| !self.is_excluded(*t))
    }
}

/// A deterministic-on-demand random tag generator modelling `irg`.
///
/// `irg` inserts a random tag (honouring the exclusion mask) into a pointer.
/// The pool owns its RNG so tag generation is reproducible given a seed,
/// which the benchmarks rely on for determinism.
#[derive(Debug, Clone)]
pub struct TagPool {
    exclude: TagExclusionMask,
    rng: rand::rngs::StdRng,
}

impl TagPool {
    /// Creates a pool drawing from all tags not excluded by `exclude`.
    ///
    /// # Errors
    ///
    /// Returns [`TagError::AllTagsExcluded`] if the mask excludes all tags.
    pub fn new(exclude: TagExclusionMask, seed: u64) -> Result<Self, TagError> {
        if exclude.allowed_count() == 0 {
            return Err(TagError::AllTagsExcluded);
        }
        use rand::SeedableRng;
        Ok(TagPool {
            exclude,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        })
    }

    /// The exclusion mask this pool honours.
    #[must_use]
    pub fn exclusion_mask(&self) -> TagExclusionMask {
        self.exclude
    }

    /// Draws a random allowed tag (models `irg`).
    pub fn random_tag(&mut self) -> Tag {
        loop {
            let candidate = Tag::from_low_bits(self.rng.gen::<u8>());
            if !self.exclude.is_excluded(candidate) {
                return candidate;
            }
        }
    }

    /// Draws a random allowed tag different from `avoid`.
    ///
    /// Used by `segment.free` semantics (`free_tag` in Fig. 11): the retag
    /// chosen when freeing must differ from the allocation's tag so that a
    /// use-after-free is caught deterministically. If `avoid` is the only
    /// allowed tag, the zero tag is returned (always a mismatch for a tagged
    /// allocation).
    pub fn random_tag_excluding(&mut self, avoid: Tag) -> Tag {
        if self.exclude.allowed_count() == 1 && !self.exclude.is_excluded(avoid) {
            return Tag::ZERO;
        }
        loop {
            let candidate = self.random_tag();
            if candidate != avoid {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_new_validates_range() {
        assert_eq!(Tag::new(0), Ok(Tag::ZERO));
        assert_eq!(Tag::new(15).map(Tag::value), Ok(15));
        assert_eq!(Tag::new(16), Err(TagError::OutOfRange(16)));
    }

    #[test]
    fn tag_from_low_bits_masks() {
        assert_eq!(Tag::from_low_bits(0x3A).value(), 0xA);
    }

    #[test]
    fn tag_wrapping_add_wraps_at_16() {
        assert_eq!(Tag::new(15).unwrap().wrapping_add(1), Tag::ZERO);
        assert_eq!(Tag::new(7).unwrap().wrapping_add(4).value(), 11);
    }

    #[test]
    fn offset_excluding_skips_excluded_tags() {
        // Stack tagging increments tags by one per slot while never landing
        // on the reserved zero tag (§4.2 "the tag wraps around on overflow").
        let exclude = TagExclusionMask::EXCLUDE_ZERO;
        let t = Tag::new(15).unwrap();
        assert_eq!(t.offset_excluding(1, exclude).value(), 1);
    }

    #[test]
    fn offset_excluding_with_full_mask_degenerates_to_wrapping() {
        let all = TagExclusionMask::from_bits(0xFFFF);
        assert_eq!(Tag::new(3).unwrap().offset_excluding(2, all).value(), 5);
    }

    #[test]
    fn exclusion_mask_counts() {
        assert_eq!(TagExclusionMask::NONE.allowed_count(), 16);
        assert_eq!(TagExclusionMask::EXCLUDE_ZERO.allowed_count(), 15);
        assert_eq!(TagExclusionMask::GUEST_COMBINED.allowed_count(), 7);
    }

    #[test]
    fn guest_combined_mask_allows_exactly_9_through_15() {
        let allowed: Vec<u8> = TagExclusionMask::GUEST_COMBINED
            .allowed_tags()
            .map(Tag::value)
            .collect();
        assert_eq!(allowed, vec![9, 10, 11, 12, 13, 14, 15]);
    }

    #[test]
    fn tag_pool_honours_exclusions() {
        let mut pool = TagPool::new(TagExclusionMask::EXCLUDE_ZERO, 42).unwrap();
        for _ in 0..1000 {
            assert!(!pool.random_tag().is_zero());
        }
    }

    #[test]
    fn tag_pool_rejects_empty_pool() {
        let err = TagPool::new(TagExclusionMask::from_bits(0xFFFF), 0).unwrap_err();
        assert_eq!(err, TagError::AllTagsExcluded);
    }

    #[test]
    fn tag_pool_is_deterministic_per_seed() {
        let mut a = TagPool::new(TagExclusionMask::EXCLUDE_ZERO, 7).unwrap();
        let mut b = TagPool::new(TagExclusionMask::EXCLUDE_ZERO, 7).unwrap();
        let seq_a: Vec<u8> = (0..32).map(|_| a.random_tag().value()).collect();
        let seq_b: Vec<u8> = (0..32).map(|_| b.random_tag().value()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn random_tag_excluding_never_returns_avoided() {
        let mut pool = TagPool::new(TagExclusionMask::EXCLUDE_ZERO, 1).unwrap();
        let avoid = Tag::new(9).unwrap();
        for _ in 0..1000 {
            assert_ne!(pool.random_tag_excluding(avoid), avoid);
        }
    }

    #[test]
    fn random_tag_excluding_single_tag_pool_falls_back_to_zero() {
        // Only tag 5 allowed.
        let mask = TagExclusionMask::from_bits(!(1u16 << 5));
        let mut pool = TagPool::new(mask, 0).unwrap();
        assert_eq!(pool.random_tag_excluding(Tag::new(5).unwrap()), Tag::ZERO);
    }

    #[test]
    fn pool_covers_all_allowed_tags_eventually() {
        let mut pool = TagPool::new(TagExclusionMask::GUEST_COMBINED, 3).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..10_000 {
            seen.insert(pool.random_tag().value());
        }
        assert_eq!(
            seen.into_iter().collect::<Vec<_>>(),
            vec![9, 10, 11, 12, 13, 14, 15]
        );
    }
}
