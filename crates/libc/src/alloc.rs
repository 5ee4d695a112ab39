//! The segment-aware allocator (the paper's modified dlmalloc, §6.2).
//!
//! Block layout in guest memory:
//!
//! ```text
//! | 16-byte metadata slot (untagged) | user data (tagged segment) |
//! ```
//!
//! The metadata slot stores the block's size and a magic word; it stays
//! untagged, which both protects it from overflows out of the user region
//! (tag mismatch) and provides the guaranteed tag break between adjacent
//! allocations (Fig. 8a).

use std::collections::BTreeMap;

use cage_engine::{ExecConfig, LinearMemory, Trap};
use cage_mte::pointer::ADDR_MASK;
use cage_mte::MteInstr;

/// Metadata slot size = one tag granule.
pub const META_SIZE: u64 = 16;

/// Magic word marking a live allocation's metadata.
const MAGIC: u32 = 0xCA9E_A110;

/// Allocation statistics (for the §7.3 memory-overhead experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Live allocations.
    pub live: u64,
    /// Bytes currently handed out (aligned sizes, metadata excluded).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` + metadata.
    pub peak_bytes: u64,
    /// Total `malloc` calls.
    pub mallocs: u64,
    /// Total `free` calls.
    pub frees: u64,
    /// Current break (end of the used heap region).
    pub brk: u64,
}

/// A first-fit free-list allocator over the guest heap.
#[derive(Debug)]
pub struct Allocator {
    heap_base: u64,
    brk: u64,
    /// Free blocks: start address → total block size (metadata included).
    free: BTreeMap<u64, u64>,
    /// Live blocks: metadata address → user size (aligned).
    live: BTreeMap<u64, u64>,
    stats: AllocStats,
}

fn align16(n: u64) -> u64 {
    n.div_ceil(16).max(1) * 16
}

impl Allocator {
    /// Creates an allocator over `[heap_base, memory end)`.
    #[must_use]
    pub fn new(heap_base: u64) -> Self {
        let heap_base = align16(heap_base);
        Allocator {
            heap_base,
            brk: heap_base,
            free: BTreeMap::new(),
            live: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// The (16-byte-aligned) heap base this allocator manages from.
    #[must_use]
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> AllocStats {
        let mut s = self.stats;
        s.brk = self.brk;
        s
    }

    /// Cycle cost charged for tagging `bytes` of a fresh allocation.
    #[must_use]
    pub fn tagging_cycles(config: &ExecConfig, bytes: u64) -> f64 {
        if config.internal.is_enabled() {
            let granules = bytes.div_ceil(16);
            granules as f64 * MteInstr::Stzg.issue_cycles(config.core)
        } else {
            0.0
        }
    }

    /// `malloc`: returns the (tagged) user pointer, or 0 on exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates segment traps (only possible through engine bugs, since
    /// the allocator always passes aligned in-bounds regions).
    pub fn malloc(&mut self, mem: &mut LinearMemory, size: u64) -> Result<u64, Trap> {
        let user_size = align16(size);
        let need = META_SIZE + user_size;

        // First fit over the free list.
        let slot = self
            .free
            .iter()
            .find(|(_, len)| **len >= need)
            .map(|(addr, len)| (*addr, *len));
        let block = match slot {
            Some((addr, len)) => {
                self.free.remove(&addr);
                // Split when the remainder can hold another block.
                if len - need >= META_SIZE + 16 {
                    self.free.insert(addr + need, len - need);
                } // else: the whole block is used (internal fragmentation).
                addr
            }
            None => {
                // Extend the wilderness.
                let addr = self.brk;
                if addr + need > mem.size() {
                    return Ok(0); // NULL: out of memory
                }
                self.brk += need;
                addr
            }
        };

        // Metadata: size + magic, written by the runtime (untagged slot).
        let mut meta = [0u8; 16];
        meta[..8].copy_from_slice(&user_size.to_le_bytes());
        meta[8..12].copy_from_slice(&MAGIC.to_le_bytes());
        mem.write_resolved(block, &meta);

        let user = block + META_SIZE;
        // Create the segment; on baseline configs this is inert and
        // returns the raw pointer (zeroing is preserved via the engine).
        let tagged = mem.segment_new(user, user_size)?;

        self.live.insert(block, user_size);
        self.stats.mallocs += 1;
        self.stats.live += 1;
        self.stats.live_bytes += user_size;
        let in_use = self.stats.live_bytes + self.stats.live * META_SIZE;
        self.stats.peak_bytes = self.stats.peak_bytes.max(in_use);
        Ok(tagged)
    }

    /// The `(metadata address, user size)` of the block `ptr` claims to
    /// point into, read from guest memory — or `None` when `ptr` cannot be
    /// an allocation: its metadata slot lies below the heap or outside
    /// guest memory (a wild pointer must not become a host-side
    /// out-of-range read), the slot lacks the magic, or the recorded size
    /// is empty or runs past the end of memory (the slot is guest-writable,
    /// so its size is untrusted input to the free list).
    fn block_at(&self, mem: &LinearMemory, ptr: u64) -> Option<(u64, u64)> {
        let block = (ptr & ADDR_MASK).wrapping_sub(META_SIZE);
        let user = block.checked_add(META_SIZE)?;
        if block < self.heap_base || user > mem.size() {
            return None;
        }
        // `read_le` takes `&self` and commits nothing: a slot in memory no
        // one has written yet reads as zeros, which is not the magic.
        let user_size = mem.read_le(block, 8);
        let magic = mem.read_le(block + 8, 4) as u32;
        let in_memory = user
            .checked_add(user_size)
            .is_some_and(|end| end <= mem.size());
        (magic == MAGIC && user_size != 0 && in_memory).then_some((block, user_size))
    }

    /// `free`.
    ///
    /// With internal safety enabled, freeing through a stale pointer
    /// (double free) or a non-allocation traps; on baselines a double free
    /// silently corrupts the free list, as real dlmalloc would, and a
    /// pointer that cannot be an allocation (metadata slot outside the
    /// heap, no magic, size running past memory) is ignored. No pointer
    /// value panics the host.
    ///
    /// # Errors
    ///
    /// [`Trap::SegmentFault`] on double-free, [`Trap::Host`] on a
    /// non-allocation (hardened configurations).
    pub fn free(&mut self, mem: &mut LinearMemory, ptr: u64) -> Result<(), Trap> {
        if ptr == 0 {
            return Ok(()); // free(NULL)
        }
        let Some((block, user_size)) = self.block_at(mem, ptr) else {
            if mem.segments_live() {
                return Err(Trap::Host(format!("free of invalid pointer {ptr:#x}")));
            }
            return Ok(()); // baseline: undefined behaviour, carry on
        };
        // The paper's temporal-safety core: segment.free validates the
        // pointer still owns the segment and retags it (Fig. 11 rule 9/10).
        mem.segment_free(ptr, user_size)?;

        if self.live.remove(&block).is_some() {
            self.stats.frees += 1;
            self.stats.live -= 1;
            self.stats.live_bytes = self.stats.live_bytes.saturating_sub(user_size);
        }
        // Return to the free list with forward/backward coalescing.
        let mut start = block;
        let mut len = META_SIZE + user_size;
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some(&next_len) = self.free.get(&(start + len)) {
            self.free.remove(&(start + len));
            len += next_len;
        }
        // Wilderness absorption.
        if start + len == self.brk {
            self.brk = start;
        } else {
            self.free.insert(start, len);
        }
        Ok(())
    }

    /// `realloc`: allocate-copy-free.
    ///
    /// # Errors
    ///
    /// Propagates traps from the copy (stale pointers fault here).
    pub fn realloc(
        &mut self,
        mem: &mut LinearMemory,
        ptr: u64,
        new_size: u64,
    ) -> Result<u64, Trap> {
        if ptr == 0 {
            return self.malloc(mem, new_size);
        }
        let user = ptr & ADDR_MASK;
        let block = user.wrapping_sub(META_SIZE);
        let old_size = self.live.get(&block).copied().unwrap_or(0);
        let new_ptr = self.malloc(mem, new_size)?;
        if new_ptr == 0 {
            return Ok(0);
        }
        let copy = old_size.min(align16(new_size));
        // Copy through the checked path: a stale `ptr` faults.
        mem.copy(new_ptr, ptr, copy)?;
        self.free(mem, ptr)?;
        Ok(new_ptr)
    }

    /// User size of the live allocation at `ptr` (tests, realloc).
    #[must_use]
    pub fn usable_size(&self, ptr: u64) -> Option<u64> {
        let block = (ptr & ADDR_MASK).wrapping_sub(META_SIZE);
        self.live.get(&block).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_engine::{InternalSafety, TagScheme};
    use cage_mte::MteMode;

    const HEAP_BASE: u64 = 4096;

    fn setup(internal: InternalSafety) -> (LinearMemory, Allocator) {
        let scheme = if internal.is_enabled() {
            TagScheme::InternalOnly
        } else {
            TagScheme::None
        };
        let mode = if internal.is_enabled() {
            MteMode::Synchronous
        } else {
            MteMode::Disabled
        };
        let mem = LinearMemory::new(4, None, true, scheme, mode, 99);
        (mem, Allocator::new(HEAP_BASE))
    }

    #[test]
    fn malloc_returns_tagged_16_aligned_pointers() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p = a.malloc(&mut mem, 20).unwrap();
        assert_ne!(p, 0);
        assert_eq!(p & ADDR_MASK & 0xF, 0, "16-aligned");
        assert_ne!(p >> 56, 0, "tagged");
        assert_eq!(a.usable_size(p), Some(32), "aligned to granule");
    }

    #[test]
    fn heap_overflow_into_metadata_is_caught() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p = a.malloc(&mut mem, 32).unwrap();
        let _q = a.malloc(&mut mem, 32).unwrap();
        // In-bounds write: fine.
        mem.write(p, 31, &[1]).unwrap();
        // One past the end hits the next block's untagged metadata slot.
        let err = mem.write(p, 32, &[1]).unwrap_err();
        assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    }

    #[test]
    fn adjacent_allocations_never_share_a_tag_with_metadata_between() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        // Many pairs: even with random tags, the untagged metadata slot
        // guarantees a tag break at every boundary.
        let mut prev = a.malloc(&mut mem, 16).unwrap();
        for _ in 0..50 {
            let next = a.malloc(&mut mem, 16).unwrap();
            // Overflow from prev can never reach next undetected.
            let err = mem.write(prev, 16, &[0xAA]).unwrap_err();
            assert!(matches!(err, Trap::TagCheck(_)));
            prev = next;
        }
    }

    #[test]
    fn use_after_free_is_caught() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p = a.malloc(&mut mem, 64).unwrap();
        mem.write(p, 0, &[7]).unwrap();
        a.free(&mut mem, p).unwrap();
        let err = mem.read(p, 0, 1).unwrap_err();
        assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    }

    #[test]
    fn double_free_is_caught() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p = a.malloc(&mut mem, 64).unwrap();
        a.free(&mut mem, p).unwrap();
        let err = a.free(&mut mem, p).unwrap_err();
        assert!(err.is_memory_safety_violation(), "{err}");
    }

    #[test]
    fn baseline_misses_overflow_uaf_and_double_free() {
        // Table 2's "Mitigated in WASM: No" column.
        let (mut mem, mut a) = setup(InternalSafety::Off);
        let p = a.malloc(&mut mem, 32).unwrap();
        let _q = a.malloc(&mut mem, 32).unwrap();
        assert!(mem.write(p, 32, &[1]).is_ok(), "overflow unnoticed");
        a.free(&mut mem, p).unwrap();
        assert!(mem.read(p, 0, 1).is_ok(), "UAF unnoticed");
        assert!(a.free(&mut mem, p).is_ok(), "double free unnoticed");
    }

    #[test]
    fn free_reuses_memory() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p1 = a.malloc(&mut mem, 64).unwrap();
        let addr1 = p1 & ADDR_MASK;
        a.free(&mut mem, p1).unwrap();
        let p2 = a.malloc(&mut mem, 64).unwrap();
        assert_eq!(p2 & ADDR_MASK, addr1, "block reused");
        // The reused block's new tag differs from the stale pointer's
        // (probabilistically guaranteed here by the retag-on-free design;
        // deterministic until reuse per §7.4).
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p1 = a.malloc(&mut mem, 32).unwrap();
        let p2 = a.malloc(&mut mem, 32).unwrap();
        let p3 = a.malloc(&mut mem, 32).unwrap();
        let _hold = a.malloc(&mut mem, 32).unwrap();
        a.free(&mut mem, p1).unwrap();
        a.free(&mut mem, p3).unwrap();
        a.free(&mut mem, p2).unwrap();
        // All three coalesced into one block big enough for a large alloc.
        let big = a.malloc(&mut mem, 100).unwrap();
        assert_eq!(big & ADDR_MASK, p1 & ADDR_MASK);
    }

    #[test]
    fn wilderness_shrinks_on_trailing_free() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let before = a.stats().brk;
        let p = a.malloc(&mut mem, 128).unwrap();
        assert!(a.stats().brk > before);
        a.free(&mut mem, p).unwrap();
        assert_eq!(a.stats().brk, before, "brk restored");
    }

    #[test]
    fn out_of_memory_returns_null() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p = a.malloc(&mut mem, 10 * 1024 * 1024).unwrap();
        assert_eq!(p, 0);
    }

    #[test]
    fn realloc_preserves_contents() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p = a.malloc(&mut mem, 16).unwrap();
        mem.write(p, 0, b"abcdefgh").unwrap();
        let q = a.realloc(&mut mem, p, 64).unwrap();
        assert_eq!(mem.read(q, 0, 8).unwrap(), b"abcdefgh");
        // Old pointer is now stale.
        assert!(mem.read(p, 0, 1).is_err());
    }

    #[test]
    fn stats_track_live_and_peak() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let p1 = a.malloc(&mut mem, 32).unwrap();
        let _p2 = a.malloc(&mut mem, 32).unwrap();
        assert_eq!(a.stats().live, 2);
        assert_eq!(a.stats().live_bytes, 64);
        a.free(&mut mem, p1).unwrap();
        assert_eq!(a.stats().live, 1);
        assert_eq!(a.stats().mallocs, 2);
        assert_eq!(a.stats().frees, 1);
        assert!(a.stats().peak_bytes >= 64 + 2 * META_SIZE);
    }

    #[test]
    fn free_null_is_a_no_op() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        a.free(&mut mem, 0).unwrap();
    }

    #[test]
    fn hardened_free_of_garbage_pointer_errors() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        let err = a.free(&mut mem, 0x4040).unwrap_err();
        assert!(matches!(err, Trap::Host(_)), "{err}");
    }

    /// Pointers whose metadata slot would lie before address 0, straddle
    /// the end of guest memory, or lie past it (in the runtime slack and
    /// far beyond): `free`/`realloc` used to index the host's backing
    /// store with them unchecked. And pointers whose slot is inside guest
    /// memory the host has not committed: in a page nobody touched, across
    /// the commit frontier, and flush against either side of it.
    ///
    /// Commits page 0 first (an allocation), so the frontier is where the
    /// table says it is.
    fn wild_pointers(mem: &mut LinearMemory, a: &mut Allocator) -> [u64; 12] {
        assert_ne!(a.malloc(mem, 32).unwrap(), 0);
        let frontier = mem.committed_bytes();
        assert_eq!(frontier, 65_536);
        let end = mem.size();
        [
            8,
            15,
            end + 8,
            end + META_SIZE,
            end + 4096,
            1 << 40,
            ADDR_MASK,
            (0x7 << 56) | 8,
            2 * frontier + 64,
            frontier + 8,
            frontier,
            frontier + META_SIZE,
        ]
    }

    #[test]
    fn hardened_free_and_realloc_of_wild_pointers_trap_without_panicking() {
        let (mut mem, mut a) = setup(InternalSafety::Mte);
        for ptr in wild_pointers(&mut mem, &mut a) {
            let err = a.free(&mut mem, ptr).unwrap_err();
            assert!(matches!(err, Trap::Host(_)), "free({ptr:#x}): {err}");
            assert!(
                a.realloc(&mut mem, ptr, 32).is_err(),
                "realloc({ptr:#x}) must trap"
            );
        }
    }

    #[test]
    fn baseline_free_and_realloc_of_wild_pointers_carry_on_without_panicking() {
        let (mut mem, mut a) = setup(InternalSafety::Off);
        for ptr in wild_pointers(&mut mem, &mut a) {
            a.free(&mut mem, ptr).unwrap();
            // The zero-length copy out of a pointer past guest memory is
            // an ordinary bounds trap; inside it, realloc allocates anew.
            match a.realloc(&mut mem, ptr, 32) {
                Ok(p) => assert!(p >= HEAP_BASE + META_SIZE, "realloc({ptr:#x}) -> {p:#x}"),
                Err(err) => assert!(matches!(err, Trap::OutOfBounds { .. }), "{err}"),
            }
        }
        assert_eq!(a.stats().frees, 0, "nothing was an allocation");
    }

    #[test]
    fn forged_oversized_metadata_is_not_an_allocation() {
        // The metadata slot is untagged, so the guest can write the magic
        // and any size it likes; a size running past memory must not reach
        // the free list (a later malloc would hand out, and the host would
        // write metadata to, addresses outside the backing store).
        for internal in [InternalSafety::Off, InternalSafety::Mte] {
            let (mut mem, mut a) = setup(internal);
            let block = HEAP_BASE + 256;
            for size in [u64::MAX - 15, u64::MAX - 31, mem.size(), 1 << 40] {
                let mut meta = [0u8; 16];
                meta[..8].copy_from_slice(&size.to_le_bytes());
                meta[8..12].copy_from_slice(&MAGIC.to_le_bytes());
                mem.write_resolved(block, &meta);
                let freed = a.free(&mut mem, block + META_SIZE);
                assert_eq!(freed.is_err(), internal.is_enabled(), "size {size:#x}");
            }
            let p = a.malloc(&mut mem, 64).unwrap();
            assert_eq!(p & ADDR_MASK, HEAP_BASE + META_SIZE, "free list untouched");
        }
    }

    proptest::proptest! {
        /// Allocator invariant: live blocks never overlap, all blocks are
        /// 16-aligned, and hardened adjacent overflow is always caught.
        #[test]
        fn prop_no_overlapping_allocations(sizes in proptest::collection::vec(1u64..200, 1..40)) {
            let (mut mem, mut a) = setup(InternalSafety::Mte);
            let mut ptrs: Vec<(u64, u64)> = Vec::new();
            for s in &sizes {
                let p = a.malloc(&mut mem, *s).unwrap();
                if p == 0 { continue; }
                let addr = p & ADDR_MASK;
                let len = a.usable_size(p).unwrap();
                proptest::prop_assert_eq!(addr % 16, 0);
                for (other, olen) in &ptrs {
                    let disjoint = addr + len <= *other || other + olen <= addr;
                    proptest::prop_assert!(disjoint, "overlap {:#x} {:#x}", addr, other);
                }
                ptrs.push((addr, len));
            }
            // Free every other one, then reallocate; still no overlap.
            let mut kept = Vec::new();
            for (i, (addr, len)) in ptrs.iter().enumerate() {
                if i % 2 == 0 {
                    let tag_ptr = mem.tags().tag_at(*addr).unwrap();
                    let tagged = (u64::from(tag_ptr.value()) << 56) | addr;
                    a.free(&mut mem, tagged).unwrap();
                } else {
                    kept.push((*addr, *len));
                }
            }
            for s in &sizes {
                let p = a.malloc(&mut mem, *s).unwrap();
                if p == 0 { continue; }
                let addr = p & ADDR_MASK;
                let len = a.usable_size(p).unwrap();
                for (other, olen) in &kept {
                    let disjoint = addr + len <= *other || other + olen <= addr;
                    proptest::prop_assert!(disjoint);
                }
            }
        }
    }
}
