//! Tag memory: the architectural tag-PA-space model.
//!
//! Real MTE stores one 4-bit tag per 16-byte granule in a dedicated physical
//! address space invisible to the OS (§7.3: "Tags are stored in a separate
//! physical address space, the tag PA space"). [`TagMemory`] models that
//! space for a contiguous region (a WASM linear memory or a whole simulated
//! process address space) plus the synchronous check Cage deploys (§6.3).

use std::collections::TryReserveError;

use crate::fault::{AccessKind, TagCheckFault};
use crate::tag::{Tag, TagError, GRANULE_SIZE};

const GRANULE: u64 = GRANULE_SIZE as u64;

/// The most granules an access of scalar width (at most 8 bytes) touches.
const SCALAR_GRANULES: usize = 2;

/// Tag storage and checking for a contiguous byte range `[0, size)`.
///
/// Freshly created memory carries [`Tag::ZERO`] everywhere, matching the
/// kernel's zero-initialised tag pages. All tag manipulation must be
/// 16-byte aligned, as on hardware. Every [`TagMemory::check_access`]
/// checks: a region that is not tag-checked simply never asks.
#[derive(Debug, Clone)]
pub struct TagMemory {
    /// One nibble per granule, two granules per byte (low nibble = even
    /// granule), so the tag store is 1/32 of the data size — the same
    /// overhead ratio the paper uses in §7.3.
    nibbles: Vec<u8>,
    size: u64,
    /// Statistics: checks performed (used by the cost model and tests).
    checks: u64,
}

impl TagMemory {
    /// Creates tag storage for `size` bytes, all granules tagged zero.
    #[must_use]
    pub fn new(size: u64) -> Self {
        let granules = size.div_ceil(GRANULE);
        TagMemory {
            nibbles: vec![0; granules.div_ceil(2) as usize],
            size,
            checks: 0,
        }
    }

    /// The byte size covered by this tag store.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Grows the covered region to `new_size` bytes; new granules are
    /// tagged zero (as with `mmap`-fresh pages).
    ///
    /// # Errors
    ///
    /// The allocator's error when the larger store cannot be reserved; the
    /// store is unchanged.
    pub fn try_grow(&mut self, new_size: u64) -> Result<(), TryReserveError> {
        assert!(new_size >= self.size, "try_grow cannot shrink");
        let bytes = new_size.div_ceil(GRANULE).div_ceil(2) as usize;
        self.nibbles
            .try_reserve_exact(bytes.saturating_sub(self.nibbles.len()))?;
        self.nibbles.resize(bytes, 0);
        self.size = new_size;
        Ok(())
    }

    /// Shrinks the covered region to `new_size` bytes in place (the
    /// allocation is kept), forgetting the tags above it: a later
    /// [`TagMemory::try_grow`] finds them zero again.
    pub fn shrink(&mut self, new_size: u64) {
        assert!(new_size <= self.size, "shrink cannot grow");
        let granules = new_size.div_ceil(GRANULE);
        self.nibbles.truncate(granules.div_ceil(2) as usize);
        if granules % 2 == 1 {
            // The last byte's high nibble belongs to a dropped granule.
            *self.nibbles.last_mut().expect("an odd count is not zero") &= 0x0F;
        }
        self.size = new_size;
    }

    /// The packed store itself, two granules per byte (low nibble = even
    /// granule): for comparing two stores wholesale.
    #[must_use]
    pub fn packed(&self) -> &[u8] {
        &self.nibbles
    }

    /// Number of tag checks performed so far.
    #[must_use]
    pub fn check_count(&self) -> u64 {
        self.checks
    }

    fn granule_index(addr: u64) -> usize {
        (addr / GRANULE) as usize
    }

    /// The stored nibble of granule `idx`.
    #[inline]
    fn nibble(&self, idx: usize) -> u8 {
        (self.nibbles[idx / 2] >> ((idx & 1) * 4)) & 0xF
    }

    /// Reads the tag of the granule containing `addr` (models `ldg`).
    ///
    /// Returns `None` when `addr` is outside the covered region.
    #[must_use]
    pub fn tag_at(&self, addr: u64) -> Option<Tag> {
        if addr >= self.size {
            return None;
        }
        Some(Tag::from_low_bits(self.nibble(Self::granule_index(addr))))
    }

    /// Tags `[addr, addr + len)` with `tag` (models a `stg` loop / `st2g`).
    ///
    /// Fill kernel: an odd first or last granule is a nibble
    /// read-modify-write, everything between is whole bytes `fill`ed with
    /// `tag * 0x11`.
    ///
    /// # Errors
    ///
    /// * [`TagError::Unaligned`] if `addr` or `len` is not a multiple of
    ///   the 16-byte granule (carrying the offending value);
    /// * [`TagError::RangeOutOfBounds`] if `addr + len` overflows or ends
    ///   past [`TagMemory::size`].
    ///
    /// Nothing is written on error.
    pub fn set_tag_range(&mut self, addr: u64, len: u64, tag: Tag) -> Result<(), TagError> {
        if !addr.is_multiple_of(GRANULE) {
            return Err(TagError::Unaligned(addr));
        }
        if !len.is_multiple_of(GRANULE) {
            return Err(TagError::Unaligned(len));
        }
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(TagError::RangeOutOfBounds { addr, len });
        }
        let mut g = Self::granule_index(addr);
        let mut g_end = g + (len / GRANULE) as usize;
        if g < g_end && g % 2 == 1 {
            let byte = &mut self.nibbles[g / 2];
            *byte = (*byte & 0x0F) | (tag.value() << 4);
            g += 1;
        }
        if g < g_end && g_end % 2 == 1 {
            g_end -= 1;
            let byte = &mut self.nibbles[g_end / 2];
            *byte = (*byte & 0xF0) | tag.value();
        }
        self.nibbles[g / 2..g_end / 2].fill(tag.value() * 0x11);
        Ok(())
    }

    /// `Some((idx, stored tag))` when granule `idx` does not carry `tag`.
    #[inline]
    fn differs(&self, idx: usize, tag: Tag) -> Option<(usize, Tag)> {
        let stored = self.nibble(idx);
        (stored != tag.value()).then(|| (idx, Tag::from_low_bits(stored)))
    }

    /// The first granule in `g..=g_last` (both in bounds) whose stored tag
    /// is not `tag`, with that stored tag — the scan behind both
    /// [`TagMemory::range_tag`] and the access check.
    ///
    /// A scalar access touches one granule, sometimes two; those are
    /// compared nibble by nibble right here, so the interpreter's hot path
    /// never pays for a call into the wide kernel.
    #[inline]
    fn first_differing(&self, g: usize, g_last: usize, tag: Tag) -> Option<(usize, Tag)> {
        if g_last - g < SCALAR_GRANULES {
            return (g..=g_last).find_map(|idx| self.differs(idx, tag));
        }
        self.first_differing_wide(g, g_last + 1, tag)
    }

    /// Compare kernel for `g..g_end`: whole bytes are compared 8 at a
    /// time (16 granules) against `tag` replicated into every nibble; an
    /// odd first granule and whatever follows the last whole word are
    /// single nibbles. The word is assembled little-endian, so nibble `k`
    /// of it is granule `k` of the chunk and the lowest differing bit names
    /// the first differing granule.
    #[inline(never)]
    fn first_differing_wide(&self, mut g: usize, g_end: usize, tag: Tag) -> Option<(usize, Tag)> {
        if g % 2 == 1 {
            if let Some(hit) = self.differs(g, tag) {
                return Some(hit);
            }
            g += 1;
        }
        let pattern = u64::from_le_bytes([tag.value() * 0x11; 8]);
        for chunk in self.nibbles[g / 2..g_end / 2].chunks_exact(8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
            if word != pattern {
                let k = ((word ^ pattern).trailing_zeros() / 4) as usize;
                return Some((g + k, Tag::from_low_bits((word >> (k * 4)) as u8)));
            }
            g += 16;
        }
        (g..g_end).find_map(|idx| self.differs(idx, tag))
    }

    /// Extracts the common tag of `[addr, addr + len)` — the paper's
    /// `s_tag(i, addr, len)` auxiliary (Fig. 11). Returns `None` if the
    /// range is out of bounds or the granules disagree.
    #[must_use]
    pub fn range_tag(&self, addr: u64, len: u64) -> Option<Tag> {
        if len == 0 {
            return self.tag_at(addr);
        }
        let last = addr.checked_add(len - 1)?;
        if last >= self.size {
            return None;
        }
        let first = self.tag_at(addr)?;
        self.first_differing(Self::granule_index(addr), Self::granule_index(last), first)
            .is_none()
            .then_some(first)
    }

    /// Performs the lock-and-key check for an access of `len` bytes at
    /// `addr` through a pointer carrying `ptr_tag`.
    ///
    /// Returns `Ok(())` when the access is architecturally allowed to
    /// proceed.
    ///
    /// # Errors
    ///
    /// The [`TagCheckFault`] of the first mismatching granule, or of an
    /// access leaving the covered region.
    pub fn check_access(
        &mut self,
        addr: u64,
        len: u64,
        ptr_tag: Tag,
        kind: AccessKind,
    ) -> Result<(), TagCheckFault> {
        self.checks += 1;
        match self.first_mismatch(addr, len, ptr_tag) {
            None => Ok(()),
            Some((fault_addr, mem_tag)) => Err(TagCheckFault {
                addr: fault_addr,
                ptr_tag,
                mem_tag,
                access: kind,
            }),
        }
    }

    fn first_mismatch(&self, addr: u64, len: u64, ptr_tag: Tag) -> Option<(u64, Option<Tag>)> {
        let len = len.max(1);
        let last = match addr.checked_add(len - 1) {
            Some(l) => l,
            None => return Some((addr, None)),
        };
        if last >= self.size {
            return Some((addr.max(self.size), None));
        }
        let (g, mem_tag) = self.first_differing(
            Self::granule_index(addr),
            Self::granule_index(last),
            ptr_tag,
        )?;
        Some(((g as u64 * GRANULE).max(addr), Some(mem_tag)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> TagMemory {
        TagMemory::new(1024)
    }

    #[test]
    fn fresh_memory_is_zero_tagged() {
        let m = mem();
        assert_eq!(m.tag_at(0), Some(Tag::ZERO));
        assert_eq!(m.tag_at(1023), Some(Tag::ZERO));
        assert_eq!(m.tag_at(1024), None);
    }

    #[test]
    fn set_and_read_tags() {
        let mut m = mem();
        let t = Tag::new(0xA).unwrap();
        m.set_tag_range(32, 48, t).unwrap();
        assert_eq!(m.tag_at(31), Some(Tag::ZERO));
        assert_eq!(m.tag_at(32), Some(t));
        assert_eq!(m.tag_at(79), Some(t));
        assert_eq!(m.tag_at(80), Some(Tag::ZERO));
    }

    #[test]
    fn set_tag_range_enforces_alignment() {
        let mut m = mem();
        let t = Tag::new(1).unwrap();
        assert_eq!(m.set_tag_range(8, 16, t), Err(TagError::Unaligned(8)));
        assert_eq!(m.set_tag_range(16, 8, t), Err(TagError::Unaligned(8)));
    }

    #[test]
    fn set_tag_range_enforces_bounds() {
        let mut m = mem();
        let t = Tag::new(1).unwrap();
        for (addr, len) in [(1008, 32), (1024, 16), (u64::MAX - 15, 16)] {
            assert_eq!(
                m.set_tag_range(addr, len, t),
                Err(TagError::RangeOutOfBounds { addr, len })
            );
        }
        assert_eq!(m.range_tag(0, 1024), Some(Tag::ZERO), "nothing written");
        // Ending exactly at `size` is in range; so is an empty range there.
        assert_eq!(m.set_tag_range(1008, 16, t), Ok(()));
        assert_eq!(m.set_tag_range(1024, 0, t), Ok(()));
    }

    #[test]
    fn matching_access_passes() {
        let mut m = mem();
        let t = Tag::new(5).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        assert!(m.check_access(3, 8, t, AccessKind::Read).is_ok());
        assert!(m.check_access(48, 16, t, AccessKind::Write).is_ok());
    }

    #[test]
    fn sync_mismatch_faults_with_details() {
        let mut m = mem();
        let t = Tag::new(5).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        let fault = m
            .check_access(16, 4, Tag::new(6).unwrap(), AccessKind::Write)
            .unwrap_err();
        assert_eq!(fault.addr, 16);
        assert_eq!(fault.mem_tag, Some(t));
    }

    #[test]
    fn access_straddling_boundary_checks_every_granule() {
        // Off-by-one overflow across an allocation boundary: the classic
        // spatial violation MTE must catch (Fig. 2).
        let mut m = mem();
        let a = Tag::new(5).unwrap();
        let b = Tag::new(9).unwrap();
        m.set_tag_range(0, 32, a).unwrap();
        m.set_tag_range(32, 32, b).unwrap();
        // 8-byte write starting at 28 touches granule 1 (tag a) and 2 (tag b).
        let fault = m.check_access(28, 8, a, AccessKind::Write).unwrap_err();
        assert_eq!(fault.mem_tag, Some(b));
        assert_eq!(fault.addr, 32);
    }

    #[test]
    fn out_of_bounds_access_faults_even_with_zero_tag() {
        let mut m = mem();
        let fault = m
            .check_access(2048, 4, Tag::ZERO, AccessKind::Read)
            .unwrap_err();
        assert_eq!(fault.mem_tag, None);
    }

    #[test]
    fn range_tag_agrees_and_disagrees() {
        let mut m = mem();
        let t = Tag::new(4).unwrap();
        m.set_tag_range(0, 64, t).unwrap();
        assert_eq!(m.range_tag(0, 64), Some(t));
        assert_eq!(m.range_tag(8, 16), Some(t));
        assert_eq!(m.range_tag(48, 32), None, "crosses into zero-tagged area");
        assert_eq!(m.range_tag(2048, 4), None, "out of bounds");
    }

    #[test]
    fn grow_extends_with_zero_tags() {
        let mut m = mem();
        m.set_tag_range(1008, 16, Tag::new(3).unwrap()).unwrap();
        m.try_grow(2048).unwrap();
        assert_eq!(m.tag_at(1008), Some(Tag::new(3).unwrap()));
        assert_eq!(m.tag_at(1024), Some(Tag::ZERO));
        assert_eq!(m.size(), 2048);
    }

    #[test]
    fn shrink_forgets_the_tags_above_the_new_size() {
        let three = Tag::new(3).unwrap();
        // An odd and an even granule count, and a ragged (mid-granule) end.
        for new_size in [1008 - 16, 1008, 1008 - 8] {
            let mut m = mem();
            m.set_tag_range(0, 1024, three).unwrap();
            m.shrink(new_size);
            assert_eq!(m.size(), new_size);
            assert_eq!(m.tag_at(new_size - 1), Some(three));
            assert_eq!(m.tag_at(new_size), None);
            assert_eq!(m.packed().len() as u64, new_size.div_ceil(16).div_ceil(2));
            m.try_grow(1024).unwrap();
            let first_new = new_size.next_multiple_of(16);
            assert_eq!(m.range_tag(first_new, 1024 - first_new), Some(Tag::ZERO));
            assert_eq!(m.range_tag(0, first_new), Some(three));
        }
    }

    #[test]
    fn zero_length_check_is_a_point_check() {
        let mut m = mem();
        m.set_tag_range(0, 16, Tag::new(1).unwrap()).unwrap();
        assert!(m
            .check_access(0, 0, Tag::new(1).unwrap(), AccessKind::Read)
            .is_ok());
        assert!(m
            .check_access(0, 0, Tag::new(2).unwrap(), AccessKind::Read)
            .is_err());
    }
}
