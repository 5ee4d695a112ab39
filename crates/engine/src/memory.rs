//! Linear memory with MTE tag storage and the three sandbox strategies.
//!
//! The memory models a slice of the runtime's address space (Fig. 12): the
//! guest's linear memory followed by a small *runtime slack* region that
//! stands in for adjacent runtime memory. The slack is always tagged zero
//! (the runtime's tag, §6.4), which is what lets MTE catch sandbox escapes
//! that software bounds checks miss (the CVE-2023-26489 experiment).

use cage_mte::pointer::ADDR_MASK;
use cage_mte::{AccessKind, MteMode, Tag, TagExclusionMask, TagMemory, TagPool};

use crate::config::{BoundsCheckStrategy, ExecConfig};
use crate::trap::{SegmentFaultReason, Trap};

/// Bytes of simulated runtime memory adjacent to the guest's linear memory.
pub const RUNTIME_SLACK: u64 = 4096;

/// WASM page size re-export for convenience.
pub const PAGE_SIZE: u64 = cage_wasm::types::PAGE_SIZE;

/// How pointer tags are derived and memory is pre-tagged (§6.3/§6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagScheme {
    /// No MTE use at all (baselines).
    None,
    /// Internal memory safety only: memory starts untagged (0), segments
    /// draw random tags 1–15, pointers carry tags in bits 56–59.
    InternalOnly,
    /// MTE sandboxing only (Fig. 13a): all guest memory carries the
    /// instance tag; indices are fully masked, so guest code cannot
    /// influence the tag.
    ExternalOnly {
        /// This instance's sandbox tag (1–15).
        instance_tag: Tag,
    },
    /// Sandboxing + internal safety combined (Fig. 13b): bit 56 separates
    /// runtime from guest, bits 57–59 carry the internal tag, and the
    /// heap-base nibble 1 maps guest tags onto the odd values 1,3,…,15.
    Combined,
}

impl TagScheme {
    /// The tag freshly mapped guest memory carries.
    #[must_use]
    pub fn initial_tag(self) -> Tag {
        match self {
            TagScheme::None | TagScheme::InternalOnly => Tag::ZERO,
            TagScheme::ExternalOnly { instance_tag } => instance_tag,
            TagScheme::Combined => Tag::from_low_bits(1),
        }
    }

    /// The logical tag carried by a guest index, after the Fig. 13 masking.
    #[must_use]
    pub fn ptr_tag(self, index: u64) -> Tag {
        let nibble = ((index >> 56) & 0xF) as u8;
        match self {
            TagScheme::None => Tag::ZERO,
            TagScheme::InternalOnly => Tag::from_low_bits(nibble),
            // Mask clears bits 56-59 entirely: tag = instance tag.
            TagScheme::ExternalOnly { instance_tag } => instance_tag,
            // Mask clears bit 56; bits 57-59 survive; heap-base nibble is 1.
            TagScheme::Combined => Tag::from_low_bits(1 + (nibble & 0xE)),
        }
    }

    /// Tags `segment.new` may choose for the *memory side* of a segment.
    #[must_use]
    pub fn segment_exclusion(self) -> TagExclusionMask {
        match self {
            // 1..15 (zero reserved for guard slots / untagged memory).
            TagScheme::None | TagScheme::InternalOnly | TagScheme::ExternalOnly { .. } => {
                TagExclusionMask::EXCLUDE_ZERO
            }
            // Odd tags 3,5,…,15: guest-side (odd) and distinct from the
            // guest-untagged value 1.
            TagScheme::Combined => {
                let mut mask = TagExclusionMask::NONE;
                for t in 0..16u8 {
                    let allowed = t % 2 == 1 && t != 1;
                    if !allowed {
                        mask = mask.with_excluded(Tag::from_low_bits(t));
                    }
                }
                mask
            }
        }
    }

    /// Converts a chosen memory-side tag into the nibble the guest-visible
    /// pointer carries in bits 56–59.
    ///
    /// Under [`TagScheme::Combined`] the pointer nibble is `mem_tag - 1`
    /// (bit 56 clear), so that heap-base addition restores the memory tag.
    #[must_use]
    pub fn pointer_nibble(self, mem_tag: Tag) -> u8 {
        match self {
            TagScheme::Combined => mem_tag.value() - 1,
            _ => mem_tag.value(),
        }
    }

    /// Number of distinct segment tags available (the collision-probability
    /// denominators of §7.4: 15 internal-only, 7 combined).
    #[must_use]
    pub fn distinct_segment_tags(self) -> usize {
        self.segment_exclusion().allowed_count()
    }
}

/// A guest linear memory plus its MTE tag storage.
#[derive(Debug)]
pub struct LinearMemory {
    data: Vec<u8>,
    guest_size: u64,
    max_pages: Option<u64>,
    /// Embedder-imposed page cap ([`crate::store::InstanceLimits`]), on
    /// top of the module-declared `max_pages`. Checked only in
    /// [`LinearMemory::grow`] — the single choke point every tier and the
    /// host-side grow go through — and preserved across [`LinearMemory::reset`].
    page_limit: Option<u64>,
    memory64: bool,
    tags: TagMemory,
    scheme: TagScheme,
    pool: TagPool,
    /// Construction parameters retained so [`LinearMemory::reset`] can
    /// rebuild the freshly-instantiated state.
    base_pages: u64,
    mode: MteMode,
    seed: u64,
    /// One bit per page of `data` (guest plus slack): set when the page
    /// has been written or retagged since creation or the last reset.
    dirty_bits: Vec<u64>,
    /// The set bits in first-dirtied order — the O(pages-touched)
    /// worklist [`LinearMemory::reset`] walks.
    dirty_pages: Vec<u64>,
    /// Set by [`LinearMemory::grow`]: a grown memory resets wholesale,
    /// since the grow itself already paid an O(memory) resize.
    grown: bool,
}

impl LinearMemory {
    /// Creates a memory of `initial_pages` under the given scheme.
    ///
    /// Guest memory is pre-tagged with the scheme's initial tag (this is
    /// the instantiation-time tagging pass whose cost §7.2 measures); the
    /// runtime slack stays tagged zero.
    #[must_use]
    pub fn new(
        initial_pages: u64,
        max_pages: Option<u64>,
        memory64: bool,
        scheme: TagScheme,
        mode: MteMode,
        seed: u64,
    ) -> Self {
        Self::try_new(initial_pages, max_pages, memory64, scheme, mode, seed)
            .expect("initial memory size representable and allocatable")
    }

    /// Like [`LinearMemory::new`], but reports an unrepresentable or
    /// unallocatable initial size instead of panicking or aborting.
    ///
    /// A hostile module can declare any 64-bit page count; the byte-size
    /// computation must not wrap (a wrap would under-allocate while
    /// `guest_size` claims the full range) and the allocation must not
    /// abort the process.
    ///
    /// # Errors
    ///
    /// A human-readable description of the failed size computation.
    pub fn try_new(
        initial_pages: u64,
        max_pages: Option<u64>,
        memory64: bool,
        scheme: TagScheme,
        mode: MteMode,
        seed: u64,
    ) -> Result<Self, String> {
        let too_big = || format!("initial memory of {initial_pages} pages is unallocatable");
        let guest_size = initial_pages.checked_mul(PAGE_SIZE).ok_or_else(too_big)?;
        let total = guest_size.checked_add(RUNTIME_SLACK).ok_or_else(too_big)?;
        let total_usize = usize::try_from(total).map_err(|_| too_big())?;
        let mut data = Vec::new();
        data.try_reserve_exact(total_usize).map_err(|_| too_big())?;
        data.resize(total_usize, 0);
        let mut tags = TagMemory::new(total, mode);
        let initial = scheme.initial_tag();
        if !initial.is_zero() {
            tags.set_tag_range(0, guest_size, initial)
                .expect("page-aligned guest region inside the tag store");
        }
        let pool = TagPool::new(scheme.segment_exclusion(), seed)
            .expect("segment exclusion leaves tags available");
        let total_pages = total.div_ceil(PAGE_SIZE);
        Ok(LinearMemory {
            data,
            guest_size,
            max_pages,
            page_limit: None,
            memory64,
            tags,
            scheme,
            pool,
            base_pages: initial_pages,
            mode,
            seed,
            dirty_bits: vec![0; total_pages.div_ceil(64) as usize],
            dirty_pages: Vec::new(),
            grown: false,
        })
    }

    /// Records the pages covering `[addr, addr + len)` in the dirty
    /// list. Every mutation of `data` or of the guest tag store funnels
    /// through here; [`LinearMemory::reset`] undoes exactly these pages.
    #[inline]
    fn mark_dirty(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for page in first..=last {
            let (word, bit) = ((page / 64) as usize, page % 64);
            if self.dirty_bits[word] & (1 << bit) == 0 {
                self.dirty_bits[word] |= 1 << bit;
                self.dirty_pages.push(page);
            }
        }
    }

    /// Number of pages currently on the dirty list (pool observability).
    #[must_use]
    pub fn dirty_page_count(&self) -> usize {
        self.dirty_pages.len()
    }

    /// Restores the memory to its freshly-created state in O(pages
    /// touched): re-zeroes and re-tags only the pages on the dirty list
    /// (one fill pair per run of adjacent pages), discards any pending
    /// asynchronous fault, and rewinds the segment
    /// tag pool to its seed so the next run draws the same tags. Data
    /// segments are *not* re-applied here — the store does that, exactly
    /// as at instantiation. A grown memory rebuilds wholesale.
    pub fn reset(&mut self) {
        if self.grown {
            let page_limit = self.page_limit;
            *self = LinearMemory::new(
                self.base_pages,
                self.max_pages,
                self.memory64,
                self.scheme,
                self.mode,
                self.seed,
            );
            self.page_limit = page_limit;
            return;
        }
        let initial = self.scheme.initial_tag();
        let total = self.data.len() as u64;
        // Each maximal run of adjacent dirty pages is one data fill and
        // one tag fill, whatever order the pages were first touched in.
        self.dirty_pages.sort_unstable();
        for run in self.dirty_pages.chunk_by(|a, b| a + 1 == *b) {
            let start = run[0] * PAGE_SIZE;
            let end = (start + run.len() as u64 * PAGE_SIZE).min(total);
            self.data[start as usize..end as usize].fill(0);
            // Retag the guest portion; slack tags never change (segment
            // ops are guest-bounded) so zero is still in force there.
            let guest_end = end.min(self.guest_size);
            if start < guest_end {
                self.tags
                    .set_tag_range(start, guest_end - start, initial)
                    .expect("page-aligned run inside guest memory");
            }
            for page in run {
                self.dirty_bits[(page / 64) as usize] &= !(1 << (page % 64));
            }
        }
        self.dirty_pages.clear();
        let _ = self.tags.take_async_fault();
        self.pool = TagPool::new(self.scheme.segment_exclusion(), self.seed)
            .expect("segment exclusion leaves tags available");
    }

    /// Guest-accessible size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.guest_size
    }

    /// Guest size in pages.
    #[must_use]
    pub fn size_pages(&self) -> u64 {
        self.guest_size / PAGE_SIZE
    }

    /// Whether this is a 64-bit memory.
    #[must_use]
    pub fn is_memory64(&self) -> bool {
        self.memory64
    }

    /// Installs (or clears) the embedder's page cap — see
    /// [`crate::store::InstanceLimits::max_memory_pages`].
    pub fn set_page_limit(&mut self, limit: Option<u64>) {
        self.page_limit = limit;
    }

    /// The embedder's page cap, if any.
    #[must_use]
    pub fn page_limit(&self) -> Option<u64> {
        self.page_limit
    }

    /// The tag scheme in force.
    #[must_use]
    pub fn scheme(&self) -> TagScheme {
        self.scheme
    }

    /// Read-only view of the tag store (tests, metrics).
    #[must_use]
    pub fn tags(&self) -> &TagMemory {
        &self.tags
    }

    /// Estimated resident bytes: data plus the 1/32 tag-space overhead
    /// when MTE is in use (§7.3).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        let tag_overhead = if self.scheme == TagScheme::None {
            0
        } else {
            self.guest_size / 32
        };
        self.guest_size + tag_overhead
    }

    /// Grows by `delta_pages`, returning the old size in pages, or `None`
    /// (≙ wasm `-1`) if the maximum would be exceeded.
    pub fn grow(&mut self, delta_pages: u64) -> Option<u64> {
        let old_pages = self.size_pages();
        let new_pages = old_pages.checked_add(delta_pages)?;
        if let Some(max) = self.max_pages {
            if new_pages > max {
                return None;
            }
        }
        // The embedder's resource policy fails a grow exactly like the
        // module's own declared maximum: an in-language `-1`, identical
        // on every tier.
        if let Some(limit) = self.page_limit {
            if new_pages > limit {
                return None;
            }
        }
        // Cap total memory at 4 GiB for wasm32 semantics.
        if !self.memory64 && new_pages > 65_536 {
            return None;
        }
        // memory64 page counts can overflow the byte size; fail the grow
        // (wasm `-1`) instead of wrapping to a tiny allocation.
        let new_size = new_pages.checked_mul(PAGE_SIZE)?;
        let total = new_size.checked_add(RUNTIME_SLACK)?;
        self.grown = true;
        let words = total.div_ceil(PAGE_SIZE).div_ceil(64) as usize;
        if self.dirty_bits.len() < words {
            self.dirty_bits.resize(words, 0);
        }
        self.data.resize(total as usize, 0);
        // Zero the region that used to be slack and is now guest memory.
        let old_size = self.guest_size;
        self.data[old_size as usize..(old_size + RUNTIME_SLACK.min(new_size - old_size)) as usize]
            .fill(0);
        self.tags.grow(new_size + RUNTIME_SLACK);
        // New guest pages (the old slack region included) carry the
        // scheme's initial tag.
        self.tags
            .set_tag_range(old_size, new_size - old_size, self.scheme.initial_tag())
            .expect("page-aligned grow inside the grown tag store");
        self.guest_size = new_size;
        Some(old_pages)
    }

    /// Resolves a (index, offset, width) access: computes the address,
    /// applies the configured sandbox policy and tag checks, and returns
    /// the in-bounds physical address.
    ///
    /// # Errors
    ///
    /// * [`Trap::OutOfBounds`] when a software/guard check fails;
    /// * [`Trap::TagCheck`] when the MTE lock-and-key check fails.
    pub fn resolve(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        kind: AccessKind,
        config: &ExecConfig,
    ) -> Result<u64, Trap> {
        let base = if self.memory64 {
            index & ADDR_MASK
        } else {
            index // already zero-extended from u32
        };
        let addr = base.checked_add(offset).ok_or(Trap::OutOfBounds {
            addr: u64::MAX,
            len: width,
        })?;

        let mte_sandbox = config.bounds == BoundsCheckStrategy::MteSandbox && config.mte_active();
        if !mte_sandbox || width == 0 {
            // Software bounds check, or the guard-page fault (functionally
            // identical, free in the cost model). Zero-width bulk accesses
            // take this check under every strategy: no granule is touched
            // so the tag check below cannot fire, yet the spec still
            // requires `addr <= len(mem)`.
            if addr.checked_add(width).is_none() || addr + width > self.guest_size {
                return Err(Trap::OutOfBounds { addr, len: width });
            }
        }

        // Internal memory safety and/or MTE sandboxing: lock-and-key check.
        // Zero-width accesses (zero-length bulk ops) touch no granule and
        // pass tag-free, matching hardware MTE and the Wasm bulk-memory
        // spec, which permits `len == 0` at the memory boundary.
        let tag_checked = mte_sandbox || config.internal.is_enabled();
        if tag_checked && width > 0 {
            let ptr_tag = self.scheme.ptr_tag(index);
            self.tags.check_access(addr, width, ptr_tag, kind)?;
        }
        // The tag check above also bounds the access to the tagged region
        // *when it faults synchronously*; in asynchronous MTE modes it
        // records the fault and returns Ok, and the software branch was
        // skipped entirely under MteSandbox — so this final slack check
        // must tolerate `addr + width` overflowing for huge bulk lengths
        // instead of wrapping around.
        if addr
            .checked_add(width)
            .is_none_or(|end| end > self.data.len() as u64)
        {
            return Err(Trap::OutOfBounds { addr, len: width });
        }
        Ok(addr)
    }

    /// Reads `width` bytes at the resolved address.
    #[must_use]
    pub fn read_resolved(&self, addr: u64, width: u64) -> &[u8] {
        &self.data[addr as usize..(addr + width) as usize]
    }

    /// Writes bytes at the resolved address.
    pub fn write_resolved(&mut self, addr: u64, bytes: &[u8]) {
        self.mark_dirty(addr, bytes.len() as u64);
        self.data[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
    }

    /// Checked read: resolve + read.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn read(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        config: &ExecConfig,
    ) -> Result<Vec<u8>, Trap> {
        let addr = self.resolve(index, offset, width, AccessKind::Read, config)?;
        Ok(self.read_resolved(addr, width).to_vec())
    }

    /// Checked write: resolve + write.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn write(
        &mut self,
        index: u64,
        offset: u64,
        bytes: &[u8],
        config: &ExecConfig,
    ) -> Result<(), Trap> {
        let addr = self.resolve(index, offset, bytes.len() as u64, AccessKind::Write, config)?;
        self.write_resolved(addr, bytes);
        Ok(())
    }

    /// Raw little-endian scalar read at an already-resolved (or
    /// fast-path-bounds-checked) address: each power-of-two width decodes
    /// straight off the slice with `from_le_bytes`, no staging buffer.
    ///
    /// # Panics
    ///
    /// Panics if `addr + width` exceeds the data region — callers must
    /// have bounds-checked (via [`LinearMemory::resolve`] or the
    /// interpreter's cached fast path).
    #[inline(always)]
    #[must_use]
    pub fn read_le(&self, addr: u64, width: u64) -> u64 {
        let a = addr as usize;
        match width {
            8 => u64::from_le_bytes(self.data[a..a + 8].try_into().expect("width")),
            4 => u64::from(u32::from_le_bytes(
                self.data[a..a + 4].try_into().expect("width"),
            )),
            2 => u64::from(u16::from_le_bytes(
                self.data[a..a + 2].try_into().expect("width"),
            )),
            1 => u64::from(self.data[a]),
            _ => {
                debug_assert!(width <= 8, "scalar accesses are at most 8 bytes");
                let mut buf = [0u8; 8];
                buf[..width as usize].copy_from_slice(&self.data[a..a + width as usize]);
                u64::from_le_bytes(buf)
            }
        }
    }

    /// Raw little-endian scalar write at an already-resolved address —
    /// the store twin of [`LinearMemory::read_le`].
    ///
    /// # Panics
    ///
    /// Panics if `addr + width` exceeds the data region (see
    /// [`LinearMemory::read_le`]).
    #[inline(always)]
    pub fn write_le(&mut self, addr: u64, width: u64, raw: u64) {
        self.mark_dirty(addr, width);
        let a = addr as usize;
        match width {
            8 => self.data[a..a + 8].copy_from_slice(&raw.to_le_bytes()),
            4 => self.data[a..a + 4].copy_from_slice(&(raw as u32).to_le_bytes()),
            2 => self.data[a..a + 2].copy_from_slice(&(raw as u16).to_le_bytes()),
            1 => self.data[a] = raw as u8,
            _ => {
                debug_assert!(width <= 8, "scalar accesses are at most 8 bytes");
                self.data[a..a + width as usize]
                    .copy_from_slice(&raw.to_le_bytes()[..width as usize]);
            }
        }
    }

    /// Checked scalar read: the `width` low bytes at `index + offset`,
    /// little-endian-assembled into a `u64` — the allocation-free load
    /// path (`width` ≤ 8).
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn read_scalar(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        config: &ExecConfig,
    ) -> Result<u64, Trap> {
        debug_assert!(width <= 8, "scalar accesses are at most 8 bytes");
        let addr = self.resolve(index, offset, width, AccessKind::Read, config)?;
        Ok(self.read_le(addr, width))
    }

    /// Checked scalar write: stores the `width` low bytes of `raw` at
    /// `index + offset`, little-endian — the allocation-free store path.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn write_scalar(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        raw: u64,
        config: &ExecConfig,
    ) -> Result<(), Trap> {
        debug_assert!(width <= 8, "scalar accesses are at most 8 bytes");
        let addr = self.resolve(index, offset, width, AccessKind::Write, config)?;
        self.write_le(addr, width, raw);
        Ok(())
    }

    /// Checked bulk fill (`memory.fill`, libc `memset`): resolves the whole
    /// destination range once, then fills in place — no temporary buffer.
    /// Zero-length fills are permitted at the memory boundary.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn fill(&mut self, dst: u64, val: u8, len: u64, config: &ExecConfig) -> Result<(), Trap> {
        let addr = self.resolve(dst, 0, len, AccessKind::Write, config)?;
        self.mark_dirty(addr, len);
        self.data[addr as usize..(addr + len) as usize].fill(val);
        Ok(())
    }

    /// Checked bulk copy (`memory.copy`, libc `memcpy`): resolves source
    /// and destination, then `copy_within` — overlap-safe and free of the
    /// intermediate `Vec<u8>` a read-then-write pair would allocate. Both
    /// ranges are checked before any byte moves, and zero-length copies
    /// are permitted at the memory boundary.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn copy(&mut self, dst: u64, src: u64, len: u64, config: &ExecConfig) -> Result<(), Trap> {
        let s = self.resolve(src, 0, len, AccessKind::Read, config)?;
        let d = self.resolve(dst, 0, len, AccessKind::Write, config)?;
        self.mark_dirty(d, len);
        self.data
            .copy_within(s as usize..(s + len) as usize, d as usize);
        Ok(())
    }

    /// An *unchecked* raw write that skips the software bounds check —
    /// the erroneous-lowering analogue of CVE-2023-26489 (§3). The MTE tag
    /// check still runs when sandboxing is active, because on hardware it
    /// is part of the memory pipeline and cannot be skipped by a
    /// miscompiled bounds check.
    ///
    /// # Errors
    ///
    /// [`Trap::TagCheck`] under MTE sandboxing; [`Trap::OutOfBounds`] only
    /// when the access leaves the simulated address space entirely.
    pub fn raw_write_unchecked(
        &mut self,
        index: u64,
        bytes: &[u8],
        config: &ExecConfig,
    ) -> Result<(), Trap> {
        let addr = index & ADDR_MASK;
        let width = bytes.len() as u64;
        if config.mte_active() {
            let ptr_tag = self.scheme.ptr_tag(index);
            self.tags
                .check_access(addr, width.max(1), ptr_tag, AccessKind::Write)?;
        }
        if addr + width > self.data.len() as u64 {
            return Err(Trap::OutOfBounds { addr, len: width });
        }
        self.write_resolved(addr, bytes);
        Ok(())
    }

    /// Reads a byte from the simulated *runtime* region beyond the guest
    /// memory (test/observability hook for the escape experiments).
    #[must_use]
    pub fn runtime_byte(&self, offset_past_guest: u64) -> Option<u8> {
        self.data
            .get((self.guest_size + offset_past_guest) as usize)
            .copied()
    }

    // -- Fig. 11: segment semantics -----------------------------------------

    fn segment_range_check(&self, addr: u64, len: u64) -> Result<(), Trap> {
        if !addr.is_multiple_of(16) || !len.is_multiple_of(16) {
            return Err(Trap::SegmentFault {
                addr,
                reason: SegmentFaultReason::Unaligned,
            });
        }
        if addr.checked_add(len).is_none() || addr + len > self.guest_size {
            return Err(Trap::SegmentFault {
                addr,
                reason: SegmentFaultReason::OutOfBounds,
            });
        }
        Ok(())
    }

    /// `segment.new` (Fig. 11 rule 5): creates a zeroed segment with a
    /// fresh random tag and returns the tagged pointer.
    ///
    /// # Errors
    ///
    /// [`Trap::SegmentFault`] on unaligned or out-of-bounds segments
    /// (rule 6).
    pub fn segment_new(&mut self, ptr: u64, len: u64, config: &ExecConfig) -> Result<u64, Trap> {
        if !config.internal.is_enabled() {
            // Inert fallback: untagged pointer, untouched memory. Keeps
            // hardened modules runnable on baseline configurations.
            return Ok(ptr);
        }
        let addr = ptr & ADDR_MASK;
        self.segment_range_check(addr, len)?;
        self.mark_dirty(addr, len);
        let mem_tag = self.pool.random_tag();
        self.tags
            .set_tag_range(addr, len, mem_tag)
            .expect("range checked above");
        // Zero the segment (segment.new returns zeroed memory).
        self.data[addr as usize..(addr + len) as usize].fill(0);
        let nibble = self.scheme.pointer_nibble(mem_tag);
        Ok((ptr & !(0xF << 56)) | (u64::from(nibble) << 56))
    }

    /// `segment.set_tag` (rule 7): transfers ownership of the region at
    /// `ptr` to `tagged_ptr`'s tag.
    ///
    /// # Errors
    ///
    /// [`Trap::SegmentFault`] per rule 8.
    pub fn segment_set_tag(
        &mut self,
        ptr: u64,
        tagged_ptr: u64,
        len: u64,
        config: &ExecConfig,
    ) -> Result<(), Trap> {
        if !config.internal.is_enabled() {
            return Ok(());
        }
        let addr = ptr & ADDR_MASK;
        self.segment_range_check(addr, len)?;
        self.mark_dirty(addr, len);
        let mem_tag = self.scheme.ptr_tag(tagged_ptr);
        self.tags
            .set_tag_range(addr, len, mem_tag)
            .expect("range checked above");
        Ok(())
    }

    /// `segment.free` (rule 9): verifies the pointer still owns the segment
    /// (catching double-frees), then retags it with a different tag so any
    /// later use through the stale pointer faults.
    ///
    /// # Errors
    ///
    /// [`Trap::SegmentFault`] with [`SegmentFaultReason::BadFree`] when the
    /// pointer's tag no longer matches (rule 10).
    pub fn segment_free(&mut self, ptr: u64, len: u64, config: &ExecConfig) -> Result<(), Trap> {
        if !config.internal.is_enabled() {
            return Ok(());
        }
        let addr = ptr & ADDR_MASK;
        self.segment_range_check(addr, len)?;
        let ptr_tag = self.scheme.ptr_tag(ptr);
        match self.tags.range_tag(addr, len) {
            Some(t) if t == ptr_tag => {}
            _ => {
                return Err(Trap::SegmentFault {
                    addr,
                    reason: SegmentFaultReason::BadFree,
                })
            }
        }
        self.mark_dirty(addr, len);
        let free_tag = self.pool.random_tag_excluding(ptr_tag);
        self.tags
            .set_tag_range(addr, len, free_tag)
            .expect("range checked above");
        Ok(())
    }

    /// Polls for a deferred asynchronous tag fault (checked by the runtime
    /// at call boundaries, like the kernel does at context switches).
    pub fn take_async_fault(&mut self) -> Option<cage_mte::TagCheckFault> {
        self.tags.take_async_fault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InternalSafety;

    fn cfg(bounds: BoundsCheckStrategy, internal: InternalSafety) -> ExecConfig {
        ExecConfig {
            bounds,
            internal,
            ..ExecConfig::default()
        }
    }

    fn mem(scheme: TagScheme) -> LinearMemory {
        LinearMemory::new(1, None, true, scheme, MteMode::Synchronous, 42)
    }

    #[test]
    fn software_bounds_checks_trap_oob() {
        let mut m = mem(TagScheme::None);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Off);
        assert!(m.write(0, 0, &[1, 2, 3], &c).is_ok());
        let err = m.write(PAGE_SIZE - 1, 0, &[1, 2], &c).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }));
    }

    #[test]
    fn reads_return_written_bytes() {
        let mut m = mem(TagScheme::None);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Off);
        m.write(100, 4, &[9, 8, 7], &c).unwrap();
        assert_eq!(m.read(100, 4, 3, &c).unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn mte_sandbox_catches_oob_as_tag_fault() {
        let instance_tag = Tag::new(5).unwrap();
        let mut m = mem(TagScheme::ExternalOnly { instance_tag });
        let c = cfg(BoundsCheckStrategy::MteSandbox, InternalSafety::Off);
        // In-bounds is fine: guest memory carries the instance tag.
        assert!(m.write(0, 0, &[1], &c).is_ok());
        // One past the end: runtime slack is tagged 0 != 5.
        let err = m.write(PAGE_SIZE, 0, &[1], &c).unwrap_err();
        assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    }

    #[test]
    fn sandbox_escape_unchecked_write_blocked_by_mte_but_not_software() {
        // The CVE-2023-26489 experiment (DESIGN.md E10).
        let instance_tag = Tag::new(3).unwrap();
        // MTE sandbox: the forged access faults.
        let mut m = mem(TagScheme::ExternalOnly { instance_tag });
        let c = cfg(BoundsCheckStrategy::MteSandbox, InternalSafety::Off);
        let escape_addr = PAGE_SIZE + 64;
        assert!(m.raw_write_unchecked(escape_addr, &[0x66], &c).is_err());
        // Software bounds: the miscompiled access silently corrupts
        // runtime memory.
        let mut m2 = mem(TagScheme::None);
        let c2 = cfg(BoundsCheckStrategy::Software, InternalSafety::Off);
        m2.raw_write_unchecked(escape_addr, &[0x66], &c2).unwrap();
        assert_eq!(m2.runtime_byte(64), Some(0x66));
    }

    #[test]
    fn segment_new_returns_tagged_pointer_and_zeroes() {
        let mut m = mem(TagScheme::InternalOnly);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Mte);
        m.write(32, 0, &[0xAA; 16], &c).unwrap();
        let tagged = m.segment_new(32, 32, &c).unwrap();
        assert_ne!(tagged >> 56, 0, "pointer carries a tag");
        assert_eq!(tagged & ADDR_MASK, 32);
        // The segment is zeroed and accessible through the tagged pointer.
        assert_eq!(m.read(tagged, 0, 16, &c).unwrap(), vec![0; 16]);
        // The old untagged pointer no longer works.
        assert!(m.read(32, 0, 16, &c).is_err());
    }

    #[test]
    fn segment_new_rejects_unaligned_and_oob() {
        let mut m = mem(TagScheme::InternalOnly);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Mte);
        assert!(matches!(
            m.segment_new(8, 16, &c),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::Unaligned,
                ..
            })
        ));
        assert!(matches!(
            m.segment_new(16, 24, &c),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::Unaligned,
                ..
            })
        ));
        assert!(matches!(
            m.segment_new(PAGE_SIZE - 16, 32, &c),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::OutOfBounds,
                ..
            })
        ));
    }

    #[test]
    fn use_after_free_and_double_free_trap() {
        let mut m = mem(TagScheme::InternalOnly);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Mte);
        let p = m.segment_new(64, 32, &c).unwrap();
        m.write(p, 0, &[1], &c).unwrap();
        m.segment_free(p, 32, &c).unwrap();
        // Use after free: tag was rotated away.
        assert!(matches!(m.write(p, 0, &[1], &c), Err(Trap::TagCheck(_))));
        // Double free: the stale pointer no longer owns the segment.
        assert!(matches!(
            m.segment_free(p, 32, &c),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::BadFree,
                ..
            })
        ));
    }

    #[test]
    fn segment_set_tag_transfers_ownership() {
        let mut m = mem(TagScheme::InternalOnly);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Mte);
        let a = m.segment_new(0, 32, &c).unwrap();
        let b = m.segment_new(32, 32, &c).unwrap();
        // Merge: give [0,32) to b's tag.
        m.segment_set_tag(0, b, 32, &c).unwrap();
        // b can now access the first segment through its own tag.
        let b_first = b & !ADDR_MASK; // b's tag, address 0
        assert!(m.read(b_first, 0, 16, &c).is_ok());
        // a's pointer lost access.
        assert!(m.read(a, 0, 16, &c).is_err());
    }

    #[test]
    fn inert_segments_when_safety_disabled() {
        let mut m = mem(TagScheme::None);
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Off);
        let p = m.segment_new(32, 32, &c).unwrap();
        assert_eq!(p, 32, "pointer unchanged");
        m.segment_free(p, 32, &c).unwrap();
        m.segment_free(p, 32, &c).unwrap(); // no double-free detection
    }

    #[test]
    fn combined_scheme_tag_arithmetic() {
        // Fig. 13b: guest untagged = 1; segments odd 3..15; pointer nibble
        // = mem tag - 1; heap-base addition restores it.
        let scheme = TagScheme::Combined;
        assert_eq!(scheme.initial_tag().value(), 1);
        assert_eq!(scheme.distinct_segment_tags(), 7);
        for mem_tag in [3u8, 5, 7, 9, 11, 13, 15] {
            let t = Tag::new(mem_tag).unwrap();
            let nib = scheme.pointer_nibble(t);
            assert_eq!(nib % 2, 0, "pointer nibble has bit 56 clear");
            let index = 0x40u64 | (u64::from(nib) << 56);
            assert_eq!(scheme.ptr_tag(index), t);
        }
        // An untagged guest index maps to the guest-untagged tag 1.
        assert_eq!(scheme.ptr_tag(0x1000).value(), 1);
        // Guest cannot forge the runtime tag 0: bit 56 is masked, and the
        // +1 heap-base nibble keeps every guest access odd.
        for nib in 0..16u64 {
            let forged = 0x40 | (nib << 56);
            assert_ne!(scheme.ptr_tag(forged), Tag::ZERO);
        }
    }

    #[test]
    fn combined_segments_work_end_to_end() {
        let mut m = mem(TagScheme::Combined);
        let c = cfg(BoundsCheckStrategy::MteSandbox, InternalSafety::Mte);
        let p = m.segment_new(128, 64, &c).unwrap();
        m.write(p, 0, &[7; 8], &c).unwrap();
        assert_eq!(m.read(p, 0, 8, &c).unwrap(), vec![7; 8]);
        // Untagged access to the segment faults.
        assert!(m.read(128, 0, 8, &c).is_err());
        // Untagged access elsewhere still works (guest-untagged tag 1).
        m.write(0, 0, &[1], &c).unwrap();
        m.segment_free(p, 64, &c).unwrap();
        assert!(m.read(p, 0, 8, &c).is_err());
    }

    #[test]
    fn grow_extends_and_tags_new_pages() {
        let instance_tag = Tag::new(4).unwrap();
        let mut m = LinearMemory::new(
            1,
            Some(4),
            true,
            TagScheme::ExternalOnly { instance_tag },
            MteMode::Synchronous,
            1,
        );
        let c = cfg(BoundsCheckStrategy::MteSandbox, InternalSafety::Off);
        assert_eq!(m.grow(2), Some(1));
        assert_eq!(m.size_pages(), 3);
        // New pages carry the instance tag: accessible under sandboxing.
        m.write(2 * PAGE_SIZE + 8, 0, &[5], &c).unwrap();
        // Growing past max fails.
        assert_eq!(m.grow(10), None);
    }

    #[test]
    fn grow_memory64_byte_size_overflow_fails_cleanly() {
        // A page delta whose byte size overflows u64 must fail the grow
        // (wasm -1) instead of wrapping to a tiny allocation.
        let mut m = LinearMemory::new(1, None, true, TagScheme::None, MteMode::Disabled, 0);
        let delta = u64::MAX / PAGE_SIZE; // pages fit in u64, bytes do not
        assert_eq!(m.grow(delta), None);
        assert_eq!(m.grow(u64::MAX), None); // page count itself overflows
        assert_eq!(m.size_pages(), 1, "failed grows leave the size intact");
        let c = cfg(BoundsCheckStrategy::Software, InternalSafety::Off);
        assert!(m.write(0, 0, &[1], &c).is_ok(), "memory still usable");
    }

    #[test]
    fn wasm32_memory_capped_at_4gib() {
        let mut m = LinearMemory::new(65_535, None, false, TagScheme::None, MteMode::Disabled, 0);
        assert_eq!(m.grow(1), Some(65_535));
        assert_eq!(m.grow(1), None);
    }

    #[test]
    fn resident_bytes_includes_tag_overhead_only_with_mte() {
        let m_plain = mem(TagScheme::None);
        assert_eq!(m_plain.resident_bytes(), PAGE_SIZE);
        let m_mte = mem(TagScheme::InternalOnly);
        assert_eq!(m_mte.resident_bytes(), PAGE_SIZE + PAGE_SIZE / 32);
    }

    #[test]
    fn huge_bulk_length_traps_oob_instead_of_wrapping() {
        // Under MteSandbox the software bounds branch is skipped, and in
        // asynchronous MTE mode the tag check records its fault but
        // returns Ok — so the final slack check is the only thing
        // standing between a huge bulk length and `addr + width`
        // wrapping around. It must use checked arithmetic.
        let instance_tag = Tag::new(5).unwrap();
        let mut m = LinearMemory::new(
            1,
            None,
            true,
            TagScheme::ExternalOnly { instance_tag },
            MteMode::Asynchronous,
            9,
        );
        let c = ExecConfig {
            bounds: BoundsCheckStrategy::MteSandbox,
            internal: InternalSafety::Off,
            mte_mode: MteMode::Asynchronous,
            ..ExecConfig::default()
        };
        for len in [u64::MAX, u64::MAX - 64, u64::MAX / 2] {
            let err = m.resolve(64, 0, len, AccessKind::Write, &c).unwrap_err();
            assert!(matches!(err, Trap::OutOfBounds { .. }), "{err}");
            let err = m.fill(64, 0xAA, len, &c).unwrap_err();
            assert!(matches!(err, Trap::OutOfBounds { .. }), "{err}");
            let err = m.copy(64, 0, len, &c).unwrap_err();
            assert!(matches!(err, Trap::OutOfBounds { .. }), "{err}");
        }
        // The memory stays usable afterwards.
        assert!(m.write(0, 0, &[1], &c).is_ok());
    }

    #[test]
    fn async_mode_defers_fault_to_poll() {
        let mut m = LinearMemory::new(
            1,
            None,
            true,
            TagScheme::InternalOnly,
            MteMode::Asynchronous,
            7,
        );
        let c = ExecConfig {
            bounds: BoundsCheckStrategy::Software,
            internal: InternalSafety::Mte,
            mte_mode: MteMode::Asynchronous,
            ..ExecConfig::default()
        };
        let p = m.segment_new(0, 32, &c).unwrap();
        m.segment_free(p, 32, &c).unwrap();
        // UAF write completes...
        assert!(m.write(p, 0, &[1], &c).is_ok());
        // ...but the fault is pending.
        assert!(m.take_async_fault().is_some());
    }
}
