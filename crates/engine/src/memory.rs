//! Linear memory with MTE tag storage and the three sandbox strategies.
//!
//! The memory models a slice of the runtime's address space (Fig. 12): the
//! guest's linear memory followed by a small *runtime slack* region that
//! stands in for adjacent runtime memory. The slack is always tagged zero
//! (the runtime's tag, §6.4), which is what lets MTE catch sandbox escapes
//! that software bounds checks miss (the CVE-2023-26489 experiment).
//!
//! # Who decides the access policy
//!
//! The memory does, once, when it is built: [`LinearMemory::try_new`] turns
//! its [`TagScheme`] into three predicates — whether the tag check replaces
//! the bounds check, whether segment instructions are live, whether
//! ordinary accesses are tag-checked at all — and every access method
//! reads them off `self`. No caller passes a configuration in, so a memory
//! cannot be driven under a policy it was not pre-tagged for. The store
//! picks the scheme from the engine configuration at instantiation. Every
//! scalar access — the dispatch loop's, the tree oracle's, libc's — is one
//! call to [`LinearMemory::read_scalar`] or [`LinearMemory::write_scalar`],
//! so no caller holds a bound or a copy of the policy.
//!
//! # The committed prefix
//!
//! Creating (or growing) a memory *reserves* its declared size and backs
//! none of it: `data.len()` is the **committed prefix**, `data.capacity()`
//! covers guest memory plus slack. The invariant every method keeps:
//!
//! * `data.len()` is a multiple of [`PAGE_SIZE`] or equals the total size
//!   (guest plus slack), and never exceeds it;
//! * bytes in `[data.len(), total)` are logically zero: nothing has ever
//!   been written there, so readers that take `&self` see zeros, and
//!   [`LinearMemory::reset`] has nothing to clear there (a page can still
//!   be on the dirty list for its *tags*, which are stored eagerly).
//!
//! The prefix grows where an access was already being compared against
//! `data.len()`: the final slack check of [`LinearMemory::resolve`]. A miss
//! goes to a cold function that re-runs the real guest/slack bound (same
//! trap payload as before), zero-extends the prefix inside the reserved
//! capacity (no reallocation) and retries. The stack sits at the bottom of
//! a guest's memory and the heap grows up from `__heap_base`, so the
//! touched set is a prefix and the worst case commits what an eager
//! allocation would have zeroed unconditionally.
//!
//! # The scalar fast path
//!
//! Every memory keeps `scalar_bound = min(guest size, committed)`: a
//! scalar access ending at or below it is inside guest memory and inside
//! the prefix, so neither the software bounds check nor the commit can
//! fail. An untagged memory then indexes `data` after one overflow-checked
//! add and one compare (`fast_addr`). A tag-checked memory also compares
//! the nibbles of the access's first and last granule — all it touches, at
//! 8 bytes or fewer — against the pointer's tag
//! ([`TagMemory::check_scalar`], the one-granule compare MTE hardware
//! makes on every access), which counts a check only when it passes. The
//! pointer's tag is [`TagScheme::ptr_tag`] resolved at construction to a
//! mask and an addend, so taking it is a shift, an `and` and an add, with
//! no `match` on the scheme.
//! Anything else — past the bound, a stale or forged tag, a straddle onto
//! a granule of another tag — falls through to [`LinearMemory::resolve`],
//! which decides it in full, counts its check and builds the trap — out of
//! line, so a caller that inlines the fast path at several constant
//! widths inlines no `resolve`. So the fast path moves no result, trap
//! payload or check count. The field is
//! written where the minimum can move: `commit` raises it, and `reset` of
//! a grown memory lowers it. (`grow` raises the guest size only above a
//! prefix of whole pages, so the minimum stays put unless the grow's own
//! `commit` moves it.) Retagging never moves it: tags are compared on
//! every access, not folded into the bound.
//!
//! The tag store stays eager: it is 1/32 of the data (3 µs per 4 MiB) and
//! pre-tagging it is the instantiation cost §7.2 measures.

use cage_mte::pointer::ADDR_MASK;
use cage_mte::{AccessKind, Tag, TagExclusionMask, TagMemory, TagPool};

use crate::trap::{SegmentFaultReason, Trap};

/// Bytes of simulated runtime memory adjacent to the guest's linear memory.
pub const RUNTIME_SLACK: u64 = 4096;

/// WASM page size re-export for convenience.
pub const PAGE_SIZE: u64 = cage_wasm::types::PAGE_SIZE;

/// How pointer tags are derived and memory is pre-tagged (§6.3/§6.4) —
/// and thereby the memory's whole access policy: which check guards an
/// access (bounds or tag), whether `segment.*` does anything, and what a
/// pointer's tag bits mean are all functions of the scheme a
/// [`LinearMemory`] was built under, fixed for its lifetime.
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
    /// The committed prefix (see the module docs); capacity is reserved
    /// for `guest_size + RUNTIME_SLACK`.
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
    /// The scheme's three predicates, resolved once in
    /// [`LinearMemory::try_new`] so no access re-derives them: the MTE
    /// tag check stands in for the bounds check (§6.4), …
    sandboxed: bool,
    /// … the `segment.*` instructions act on this memory (§6.3), …
    segments_live: bool,
    /// … ordinary accesses are tag-checked at all.
    tag_checked: bool,
    /// The scalar fast path's bound (see the module docs):
    /// `min(guest_size, data.len())`, under every scheme.
    scalar_bound: u64,
    /// The scheme's pointer-tag extraction as arithmetic, resolved once in
    /// [`LinearMemory::try_new`]: the fast path's tag of `index` is
    /// `((index >> 56) & ptr_tag_mask) + ptr_tag_add`, which is
    /// [`TagScheme::ptr_tag`] with no `match`.
    ptr_tag_mask: u8,
    /// … and its constant term (the instance tag, or Combined's heap-base
    /// nibble 1).
    ptr_tag_add: u8,
    pool: TagPool,
    /// Construction parameters retained so [`LinearMemory::reset`] can
    /// restore the freshly-instantiated state.
    base_pages: u64,
    seed: u64,
    /// One bit per page of `data` (guest plus slack): set when the page
    /// has been written or retagged since creation or the last reset.
    dirty_bits: Vec<u64>,
    /// The set bits in first-dirtied order — the O(pages-touched)
    /// worklist [`LinearMemory::reset`] walks.
    dirty_pages: Vec<u64>,
}

impl LinearMemory {
    /// Creates a memory of `initial_pages` under the given scheme.
    ///
    /// Guest memory is pre-tagged with the scheme's initial tag (this is
    /// the instantiation-time tagging pass whose cost §7.2 measures); the
    /// runtime slack stays tagged zero. No data byte is committed.
    #[must_use]
    pub fn new(
        initial_pages: u64,
        max_pages: Option<u64>,
        memory64: bool,
        scheme: TagScheme,
        seed: u64,
    ) -> Self {
        Self::try_new(initial_pages, max_pages, memory64, scheme, seed)
            .expect("initial memory size representable and allocatable")
    }

    /// Like [`LinearMemory::new`], but reports an unrepresentable or
    /// unallocatable initial size instead of panicking or aborting.
    ///
    /// A hostile module can declare any 64-bit page count; the byte-size
    /// computation must not wrap (a wrap would under-reserve while
    /// `guest_size` claims the full range) and the reservation must not
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
        seed: u64,
    ) -> Result<Self, String> {
        let too_big = || format!("initial memory of {initial_pages} pages is unallocatable");
        let guest_size = initial_pages.checked_mul(PAGE_SIZE).ok_or_else(too_big)?;
        let total = guest_size.checked_add(RUNTIME_SLACK).ok_or_else(too_big)?;
        let total_usize = usize::try_from(total).map_err(|_| too_big())?;
        let mut data = Vec::new();
        data.try_reserve_exact(total_usize).map_err(|_| too_big())?;
        let mut tags = TagMemory::new(total);
        let initial = scheme.initial_tag();
        if !initial.is_zero() {
            tags.set_tag_range(0, guest_size, initial)
                .expect("page-aligned guest region inside the tag store");
        }
        let pool = TagPool::new(scheme.segment_exclusion(), seed)
            .expect("segment exclusion leaves tags available");
        let total_pages = total.div_ceil(PAGE_SIZE);
        // The one place the scheme becomes an access policy: the three
        // predicates, and `ptr_tag` as a mask and an addend.
        let (sandboxed, segments_live, ptr_tag_mask, ptr_tag_add) = match scheme {
            TagScheme::None => (false, false, 0, 0),
            TagScheme::InternalOnly => (false, true, 0xF, 0),
            TagScheme::ExternalOnly { instance_tag } => (true, false, 0, instance_tag.value()),
            TagScheme::Combined => (true, true, 0xE, 1),
        };
        Ok(LinearMemory {
            data,
            guest_size,
            max_pages,
            page_limit: None,
            memory64,
            tags,
            scheme,
            sandboxed,
            segments_live,
            tag_checked: sandboxed || segments_live,
            scalar_bound: 0,
            ptr_tag_mask,
            ptr_tag_add,
            pool,
            base_pages: initial_pages,
            seed,
            dirty_bits: vec![0; total_pages.div_ceil(64) as usize],
            dirty_pages: Vec::new(),
        })
    }

    /// Guest memory plus runtime slack: the reserved size of `data`.
    #[inline]
    fn total(&self) -> u64 {
        self.guest_size + RUNTIME_SLACK
    }

    /// Zero-extends the committed prefix to cover `[0, end)`, rounded up
    /// to a page and capped at the total size. The capacity was reserved
    /// at creation or by [`LinearMemory::grow`], so this never reallocates.
    /// An `end` past the total commits everything and leaves the caller's
    /// slice index to panic, as it always did.
    #[cold]
    #[inline(never)]
    fn commit(&mut self, end: u64) {
        let target = end
            .checked_next_multiple_of(PAGE_SIZE)
            .map_or(self.total(), |rounded| rounded.min(self.total()));
        if target > self.data.len() as u64 {
            self.data.resize(target as usize, 0);
            self.set_scalar_bound();
        }
    }

    /// Re-derives `scalar_bound` after the committed prefix moved; called
    /// from [`LinearMemory::commit`] and [`LinearMemory::reset`] only.
    #[inline]
    fn set_scalar_bound(&mut self) {
        self.scalar_bound = self.guest_size.min(self.data.len() as u64);
    }

    /// The miss path of the final check in [`LinearMemory::resolve`] and
    /// [`LinearMemory::raw_write_unchecked`]: the access ends past the
    /// committed prefix, so decide it against the real bound (guest memory
    /// plus slack) and commit up to it.
    #[cold]
    #[inline(never)]
    fn commit_access(&mut self, addr: u64, width: u64) -> Result<(), Trap> {
        match addr.checked_add(width) {
            Some(end) if end <= self.total() => {
                self.commit(end);
                Ok(())
            }
            _ => Err(Trap::OutOfBounds { addr, len: width }),
        }
    }

    /// Host bytes of linear memory actually backed: the committed prefix.
    /// Host-side and dependent on the touch pattern — unlike
    /// [`LinearMemory::resident_bytes`], which is the *modelled* footprint
    /// of §7.3 and must not change with it. The tag store (eager, 1/32 of
    /// the declared size) is not counted.
    #[must_use]
    pub fn committed_bytes(&self) -> u64 {
        self.data.len() as u64
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
                self.first_dirty(page);
            }
        }
    }

    /// Puts a clean page on the dirty list: once per page per reset, so
    /// out of the scalar stores' inlined path.
    #[cold]
    #[inline(never)]
    fn first_dirty(&mut self, page: u64) {
        self.dirty_bits[(page / 64) as usize] |= 1 << (page % 64);
        self.dirty_pages.push(page);
    }

    /// Number of pages currently on the dirty list (pool observability).
    #[must_use]
    pub fn dirty_page_count(&self) -> usize {
        self.dirty_pages.len()
    }

    /// Restores the memory to its freshly-created state in O(pages
    /// touched): re-zeroes and re-tags only the pages on the dirty list
    /// (one fill pair per run of adjacent pages), and rewinds the segment
    /// tag pool to its seed so the next run draws the same tags. Data
    /// segments are *not* re-applied here — the store does that, exactly
    /// as at instantiation.
    ///
    /// The committed prefix survives (a warm slot stays warm), so the data
    /// fill is clamped to it. A grown memory shrinks back in place first.
    /// Nothing here allocates or can fail: this runs on the pool's recycle
    /// path, outside any `catch_unwind`.
    pub fn reset(&mut self) {
        let base_size = self.base_pages * PAGE_SIZE;
        if self.guest_size != base_size {
            // Undo the grows: drop the pages above the base size from the
            // prefix and the tag store (the loop below clamps to the new
            // total, so for them it only clears the dirty bit). The
            // base-sized slack was guest memory while grown, so it carries
            // guest tags; its data is on the dirty list like any page's.
            self.guest_size = base_size;
            let total = self.total();
            self.data.truncate(total as usize);
            self.tags.shrink(total);
            self.tags
                .set_tag_range(base_size, RUNTIME_SLACK, Tag::ZERO)
                .expect("granule-aligned slack inside the shrunk tag store");
            self.set_scalar_bound();
        }
        let initial = self.scheme.initial_tag();
        let (total, committed) = (self.total(), self.data.len() as u64);
        // Each maximal run of adjacent dirty pages is one data fill and
        // one tag fill, whatever order the pages were first touched in.
        self.dirty_pages.sort_unstable();
        for run in self.dirty_pages.chunk_by(|a, b| a + 1 == *b) {
            let start = run[0] * PAGE_SIZE;
            let end = (start + run.len() as u64 * PAGE_SIZE).min(total);
            // Past the prefix there is nothing to clear: a page is dirty
            // there only for its tags.
            if start < committed {
                self.data[start as usize..end.min(committed) as usize].fill(0);
            }
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

    /// Whether the `segment.*` instructions act on this memory (§6.3) —
    /// [`TagScheme::InternalOnly`] or [`TagScheme::Combined`] — rather
    /// than being inert.
    #[must_use]
    pub fn segments_live(&self) -> bool {
        self.segments_live
    }

    /// Whether ordinary accesses are tag-checked at all: every scheme but
    /// [`TagScheme::None`]. When it is, the scalar fast path compares the
    /// access's granule tags as well as its bound (see the module docs);
    /// the answer is for observers, no caller needs it to access memory.
    #[must_use]
    pub fn tag_checked(&self) -> bool {
        self.tag_checked
    }

    /// Read-only view of the tag store (tests, metrics).
    #[must_use]
    pub fn tags(&self) -> &TagMemory {
        &self.tags
    }

    /// Estimated resident bytes: data plus the 1/32 tag-space overhead
    /// when MTE is in use (§7.3). This is the *modelled* footprint — a
    /// function of the declared size and the scheme only. What the host
    /// actually backs is [`LinearMemory::committed_bytes`].
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
    /// (≙ wasm `-1`) if the maximum would be exceeded or the host cannot
    /// reserve the new size. Like creation, a grow reserves and commits
    /// nothing.
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
        // Reserve data, tags and dirty bits before touching any state: a
        // host that cannot back the grow answers `-1`, it does not abort.
        let committed = self.data.len() as u64;
        let extra = usize::try_from(total - committed).ok()?;
        self.data.try_reserve_exact(extra).ok()?;
        let words = total.div_ceil(PAGE_SIZE).div_ceil(64) as usize;
        let more_words = words.saturating_sub(self.dirty_bits.len());
        self.dirty_bits.try_reserve_exact(more_words).ok()?;
        self.tags.try_grow(total).ok()?;
        if more_words > 0 {
            self.dirty_bits.resize(words, 0);
        }
        let old_size = self.guest_size;
        if new_size > old_size {
            // The old slack becomes guest memory: zero whatever of it was
            // committed (a sandbox escape may have scribbled there), and
            // re-round a prefix that ended with it. That commit is the only
            // way the scalar bound can move here: a prefix of whole pages
            // already lies inside the old guest memory.
            if committed > old_size {
                let slack_end = committed.min(old_size + RUNTIME_SLACK);
                self.data[old_size as usize..slack_end as usize].fill(0);
            }
            self.guest_size = new_size;
            if !self.data.len().is_multiple_of(PAGE_SIZE as usize) {
                self.commit(self.data.len() as u64);
            }
            // New guest pages (the old slack region included) carry the
            // scheme's initial tag.
            self.tags
                .set_tag_range(old_size, new_size - old_size, self.scheme.initial_tag())
                .expect("page-aligned grow inside the grown tag store");
        }
        Some(old_pages)
    }

    /// Resolves a (index, offset, width) access: computes the address,
    /// applies this memory's sandbox policy and tag checks (fixed by its
    /// [`TagScheme`] at construction), and returns the in-bounds physical
    /// address.
    ///
    /// # Errors
    ///
    /// * [`Trap::OutOfBounds`] when a software/guard check fails;
    /// * [`Trap::TagCheck`] when the MTE lock-and-key check fails.
    #[inline]
    pub fn resolve(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        kind: AccessKind,
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

        if !self.sandboxed || width == 0 {
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
        if self.tag_checked && width > 0 {
            let ptr_tag = self.scheme.ptr_tag(index);
            self.tags.check_access(addr, width, ptr_tag, kind)?;
        }
        // Under sandboxing the software branch was skipped and the tag
        // check above bounded the access to the tagged region (guest
        // memory plus slack). This final check compares against the
        // committed prefix: a miss is either the first touch of a page or
        // a real escape past the slack, and the cold path tells them
        // apart.
        if addr
            .checked_add(width)
            .is_none_or(|end| end > self.data.len() as u64)
        {
            self.commit_access(addr, width)?;
        }
        Ok(addr)
    }

    /// The `width` bytes at the resolved address: what is committed of
    /// them, and zeros for the rest — a range that was never written reads
    /// as zeros without being committed by the read.
    ///
    /// # Panics
    ///
    /// Panics if `addr + width` exceeds guest memory plus slack — callers
    /// must have bounds-checked.
    #[must_use]
    pub fn read_resolved(&self, addr: u64, width: u64) -> Vec<u8> {
        assert!(
            addr.checked_add(width)
                .is_some_and(|end| end <= self.total()),
            "read of {width} bytes at {addr:#x} leaves the memory"
        );
        let committed = self.data.len() as u64;
        let mut out = Vec::with_capacity(width as usize);
        out.extend_from_slice(
            &self.data[addr.min(committed) as usize..(addr + width).min(committed) as usize],
        );
        out.resize(width as usize, 0);
        out
    }

    /// Writes bytes at the resolved address, committing the pages under
    /// them (the runtime's own writes — data segments, allocator metadata
    /// — arrive here without a [`LinearMemory::resolve`]).
    pub fn write_resolved(&mut self, addr: u64, bytes: &[u8]) {
        let end = addr + bytes.len() as u64;
        if end > self.data.len() as u64 {
            self.commit(end);
        }
        self.mark_dirty(addr, bytes.len() as u64);
        self.data[addr as usize..end as usize].copy_from_slice(bytes);
    }

    /// Checked read: resolve + read.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn read(&mut self, index: u64, offset: u64, width: u64) -> Result<Vec<u8>, Trap> {
        let addr = self.resolve(index, offset, width, AccessKind::Read)?;
        Ok(self.read_resolved(addr, width))
    }

    /// Checked write: resolve + write.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn write(&mut self, index: u64, offset: u64, bytes: &[u8]) -> Result<(), Trap> {
        let addr = self.resolve(index, offset, bytes.len() as u64, AccessKind::Write)?;
        self.write_resolved(addr, bytes);
        Ok(())
    }

    /// Raw little-endian scalar read at an already-resolved (or
    /// fast-path-bounds-checked) address: each power-of-two width decodes
    /// straight off the slice with `from_le_bytes`, no staging buffer. The
    /// slice bounds check that used to panic now leads to the zero-padded
    /// read of a never-committed range instead, so `&self` readers (the
    /// allocator's metadata probe) need no commit.
    ///
    /// # Panics
    ///
    /// Panics if `addr + width` exceeds guest memory plus slack — callers
    /// must have bounds-checked (via [`LinearMemory::resolve`] or the
    /// scalar bound).
    #[inline(always)]
    #[must_use]
    pub fn read_le(&self, addr: u64, width: u64) -> u64 {
        let a = addr as usize;
        match width {
            8 => match self.data.get(a..a + 8) {
                Some(b) => u64::from_le_bytes(b.try_into().expect("width")),
                None => self.read_le_uncommitted(addr, width),
            },
            4 => match self.data.get(a..a + 4) {
                Some(b) => u64::from(u32::from_le_bytes(b.try_into().expect("width"))),
                None => self.read_le_uncommitted(addr, width),
            },
            2 => match self.data.get(a..a + 2) {
                Some(b) => u64::from(u16::from_le_bytes(b.try_into().expect("width"))),
                None => self.read_le_uncommitted(addr, width),
            },
            1 => match self.data.get(a) {
                Some(&b) => u64::from(b),
                None => self.read_le_uncommitted(addr, width),
            },
            _ => self.read_le_uncommitted(addr, width),
        }
    }

    /// [`LinearMemory::read_le`] of a range the scalar fast path has found
    /// under the scalar bound, so inside the committed prefix: a plain
    /// slice read, no uncommitted fallback.
    #[inline(always)]
    fn read_committed(&self, addr: u64, width: u64) -> u64 {
        let a = addr as usize;
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&self.data[a..a + width as usize]);
        u64::from_le_bytes(buf)
    }

    /// [`LinearMemory::read_le`] for a range that is not wholly committed
    /// (or an odd width): zeros past the prefix.
    #[cold]
    #[inline(never)]
    fn read_le_uncommitted(&self, addr: u64, width: u64) -> u64 {
        assert!(width <= 8, "scalar accesses are at most 8 bytes");
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&self.read_resolved(addr, width));
        u64::from_le_bytes(buf)
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
    /// little-endian-assembled into a `u64` (`width` ≤ 8) — the one scalar
    /// load path. Under the scalar bound it is one compare (and, on a
    /// tag-checked memory, the granule-tag compare) and a direct read;
    /// anything else is decided by [`LinearMemory::resolve`], with
    /// identical results, trap payloads and check counts.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    #[inline(always)]
    pub fn read_scalar(&mut self, index: u64, offset: u64, width: u64) -> Result<u64, Trap> {
        match self.scalar_addr(index, offset, width) {
            Some(addr) => Ok(self.read_committed(addr, width)),
            None => self.read_scalar_miss(index, offset, width),
        }
    }

    /// [`LinearMemory::read_scalar`] past the fast path: out of line, so
    /// a caller that inlines the fast path at several constant widths
    /// does not inline [`LinearMemory::resolve`] with each.
    #[cold]
    #[inline(never)]
    fn read_scalar_miss(&mut self, index: u64, offset: u64, width: u64) -> Result<u64, Trap> {
        let addr = self.resolve(index, offset, width, AccessKind::Read)?;
        Ok(self.read_le(addr, width))
    }

    /// Checked scalar write: stores the `width` low bytes of `raw` at
    /// `index + offset`, little-endian — the store twin of
    /// [`LinearMemory::read_scalar`].
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    #[inline(always)]
    pub fn write_scalar(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        raw: u64,
    ) -> Result<(), Trap> {
        match self.scalar_addr(index, offset, width) {
            Some(addr) => {
                self.write_le(addr, width, raw);
                Ok(())
            }
            None => self.write_scalar_miss(index, offset, width, raw),
        }
    }

    /// [`LinearMemory::write_scalar`] past the fast path, out of line like
    /// [`LinearMemory::read_scalar_miss`].
    #[cold]
    #[inline(never)]
    fn write_scalar_miss(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        raw: u64,
    ) -> Result<(), Trap> {
        let addr = self.resolve(index, offset, width, AccessKind::Write)?;
        self.write_le(addr, width, raw);
        Ok(())
    }

    /// The scalar fast path (see the module docs): the address of a
    /// `width`-byte access at `index + offset` when it ends under the
    /// scalar bound and, on a tag-checked memory, its first and last
    /// granule carry the pointer's tag. `None` leaves the access to
    /// [`LinearMemory::resolve`]: so does a zero width, which touches no
    /// granule and checks none.
    #[inline(always)]
    fn scalar_addr(&mut self, index: u64, offset: u64, width: u64) -> Option<u64> {
        debug_assert!(width <= 8, "scalar accesses are at most 8 bytes");
        let addr = fast_addr(index, offset, width, self.memory64, self.scalar_bound)?;
        let tag_ok = !self.tag_checked
            || (width != 0
                && self
                    .tags
                    .check_scalar(addr, width, self.scalar_ptr_tag(index)));
        tag_ok.then_some(addr)
    }

    /// [`TagScheme::ptr_tag`] of `index` under this memory's scheme,
    /// branch-free: a shift, a mask and an add.
    #[inline(always)]
    fn scalar_ptr_tag(&self, index: u64) -> Tag {
        Tag::from_low_bits(((index >> 56) as u8 & self.ptr_tag_mask) + self.ptr_tag_add)
    }

    /// Checked bulk fill (`memory.fill`, libc `memset`): resolves the whole
    /// destination range once, then fills in place — no temporary buffer.
    /// Zero-length fills are permitted at the memory boundary.
    ///
    /// # Errors
    ///
    /// See [`LinearMemory::resolve`].
    pub fn fill(&mut self, dst: u64, val: u8, len: u64) -> Result<(), Trap> {
        let addr = self.resolve(dst, 0, len, AccessKind::Write)?;
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
    pub fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        let s = self.resolve(src, 0, len, AccessKind::Read)?;
        let d = self.resolve(dst, 0, len, AccessKind::Write)?;
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
    pub fn raw_write_unchecked(&mut self, index: u64, bytes: &[u8]) -> Result<(), Trap> {
        let addr = index & ADDR_MASK;
        let width = bytes.len() as u64;
        if self.tag_checked {
            let ptr_tag = self.scheme.ptr_tag(index);
            self.tags
                .check_access(addr, width.max(1), ptr_tag, AccessKind::Write)?;
        }
        if addr + width > self.data.len() as u64 {
            self.commit_access(addr, width)?;
        }
        self.write_resolved(addr, bytes);
        Ok(())
    }

    /// Reads a byte from the simulated *runtime* region beyond the guest
    /// memory (test/observability hook for the escape experiments); `None`
    /// past the slack. Slack nobody wrote to reads as zero.
    #[must_use]
    pub fn runtime_byte(&self, offset_past_guest: u64) -> Option<u8> {
        let addr = self.guest_size.checked_add(offset_past_guest)?;
        (addr < self.total()).then(|| self.data.get(addr as usize).copied().unwrap_or(0))
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
    pub fn segment_new(&mut self, ptr: u64, len: u64) -> Result<u64, Trap> {
        if !self.segments_live {
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
        // Zero the segment (segment.new returns zeroed memory); what lies
        // past the committed prefix is zero already and stays uncommitted.
        let committed = self.data.len() as u64;
        if addr < committed {
            self.data[addr as usize..(addr + len).min(committed) as usize].fill(0);
        }
        let nibble = self.scheme.pointer_nibble(mem_tag);
        Ok((ptr & !(0xF << 56)) | (u64::from(nibble) << 56))
    }

    /// `segment.set_tag` (rule 7): transfers ownership of the region at
    /// `ptr` to `tagged_ptr`'s tag.
    ///
    /// # Errors
    ///
    /// [`Trap::SegmentFault`] per rule 8.
    pub fn segment_set_tag(&mut self, ptr: u64, tagged_ptr: u64, len: u64) -> Result<(), Trap> {
        if !self.segments_live {
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
    pub fn segment_free(&mut self, ptr: u64, len: u64) -> Result<(), Trap> {
        if !self.segments_live {
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
}

/// The scalar fast path's address computation: the
/// [`LinearMemory::resolve`] arithmetic — same masking, same overflow
/// handling — and `Some` exactly when the access ends at or below `bound`.
/// A miss carries no trap: it is [`LinearMemory::resolve`]'s to decide.
#[inline(always)]
pub(crate) fn fast_addr(index: u64, offset: u64, width: u64, m64: bool, bound: u64) -> Option<u64> {
    let base = if m64 { index & ADDR_MASK } else { index };
    let addr = base.checked_add(offset)?;
    addr.checked_add(width)
        .is_some_and(|end| end <= bound)
        .then_some(addr)
}

#[cfg(test)]
impl LinearMemory {
    /// The scalar fast path's bound, for the eager model to hold to its
    /// own reading of the scheme.
    pub(crate) fn scalar_bound(&self) -> u64 {
        self.scalar_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn mem(scheme: TagScheme) -> LinearMemory {
        LinearMemory::new(1, None, true, scheme, 42)
    }

    #[test]
    fn policy_is_a_function_of_the_scheme() {
        let instance_tag = Tag::new(9).unwrap();
        // (scheme, sandboxed, segments_live, tag_checked)
        let rows = [
            (TagScheme::None, false, false, false),
            (TagScheme::InternalOnly, false, true, true),
            (TagScheme::ExternalOnly { instance_tag }, true, false, true),
            (TagScheme::Combined, true, true, true),
        ];
        for (scheme, sandboxed, segments_live, tag_checked) in rows {
            let m = mem(scheme);
            assert_eq!(
                (m.sandboxed, m.segments_live(), m.tag_checked()),
                (sandboxed, segments_live, tag_checked),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn software_bounds_checks_trap_oob() {
        let mut m = mem(TagScheme::None);
        assert!(m.write(0, 0, &[1, 2, 3]).is_ok());
        let err = m.write(PAGE_SIZE - 1, 0, &[1, 2]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }));
    }

    #[test]
    fn reads_return_written_bytes() {
        let mut m = mem(TagScheme::None);
        m.write(100, 4, &[9, 8, 7]).unwrap();
        assert_eq!(m.read(100, 4, 3).unwrap(), vec![9, 8, 7]);
    }

    #[test]
    fn mte_sandbox_catches_oob_as_tag_fault() {
        let instance_tag = Tag::new(5).unwrap();
        let mut m = mem(TagScheme::ExternalOnly { instance_tag });
        // In-bounds is fine: guest memory carries the instance tag.
        assert!(m.write(0, 0, &[1]).is_ok());
        // One past the end: runtime slack is tagged 0 != 5.
        let err = m.write(PAGE_SIZE, 0, &[1]).unwrap_err();
        assert!(matches!(err, Trap::TagCheck(_)), "{err}");
    }

    #[test]
    fn sandbox_escape_unchecked_write_blocked_by_mte_but_not_software() {
        // The CVE-2023-26489 experiment (paper §3).
        let instance_tag = Tag::new(3).unwrap();
        // MTE sandbox: the forged access faults.
        let mut m = mem(TagScheme::ExternalOnly { instance_tag });
        let escape_addr = PAGE_SIZE + 64;
        assert!(m.raw_write_unchecked(escape_addr, &[0x66]).is_err());
        // Software bounds: the miscompiled access silently corrupts
        // runtime memory.
        let mut m2 = mem(TagScheme::None);
        m2.raw_write_unchecked(escape_addr, &[0x66]).unwrap();
        assert_eq!(m2.runtime_byte(64), Some(0x66));
    }

    #[test]
    fn segment_new_returns_tagged_pointer_and_zeroes() {
        let mut m = mem(TagScheme::InternalOnly);
        m.write(32, 0, &[0xAA; 16]).unwrap();
        let tagged = m.segment_new(32, 32).unwrap();
        assert_ne!(tagged >> 56, 0, "pointer carries a tag");
        assert_eq!(tagged & ADDR_MASK, 32);
        // The segment is zeroed and accessible through the tagged pointer.
        assert_eq!(m.read(tagged, 0, 16).unwrap(), vec![0; 16]);
        // The old untagged pointer no longer works.
        assert!(m.read(32, 0, 16).is_err());
    }

    #[test]
    fn segment_new_rejects_unaligned_and_oob() {
        let mut m = mem(TagScheme::InternalOnly);
        assert!(matches!(
            m.segment_new(8, 16),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::Unaligned,
                ..
            })
        ));
        assert!(matches!(
            m.segment_new(16, 24),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::Unaligned,
                ..
            })
        ));
        assert!(matches!(
            m.segment_new(PAGE_SIZE - 16, 32),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::OutOfBounds,
                ..
            })
        ));
    }

    #[test]
    fn use_after_free_and_double_free_trap() {
        let mut m = mem(TagScheme::InternalOnly);
        let p = m.segment_new(64, 32).unwrap();
        m.write(p, 0, &[1]).unwrap();
        m.segment_free(p, 32).unwrap();
        // Use after free: tag was rotated away.
        assert!(matches!(m.write(p, 0, &[1]), Err(Trap::TagCheck(_))));
        // Double free: the stale pointer no longer owns the segment.
        assert!(matches!(
            m.segment_free(p, 32),
            Err(Trap::SegmentFault {
                reason: SegmentFaultReason::BadFree,
                ..
            })
        ));
    }

    #[test]
    fn segment_set_tag_transfers_ownership() {
        let mut m = mem(TagScheme::InternalOnly);
        let a = m.segment_new(0, 32).unwrap();
        let b = m.segment_new(32, 32).unwrap();
        // Merge: give [0,32) to b's tag.
        m.segment_set_tag(0, b, 32).unwrap();
        // b can now access the first segment through its own tag.
        let b_first = b & !ADDR_MASK; // b's tag, address 0
        assert!(m.read(b_first, 0, 16).is_ok());
        // a's pointer lost access.
        assert!(m.read(a, 0, 16).is_err());
    }

    #[test]
    fn inert_segments_when_safety_disabled() {
        let mut m = mem(TagScheme::None);
        let p = m.segment_new(32, 32).unwrap();
        assert_eq!(p, 32, "pointer unchanged");
        m.segment_free(p, 32).unwrap();
        m.segment_free(p, 32).unwrap(); // no double-free detection
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
    fn precomputed_pointer_tag_matches_the_scheme() {
        let mut schemes = vec![
            TagScheme::None,
            TagScheme::InternalOnly,
            TagScheme::Combined,
        ];
        schemes.extend((1..16).map(|t| TagScheme::ExternalOnly {
            instance_tag: Tag::new(t).unwrap(),
        }));
        for scheme in schemes {
            let m = mem(scheme);
            // Every nibble in bits 56-59 (so bit 56 both set and clear),
            // under clear and set top bits and address bits.
            for nib in 0..16u64 {
                for rest in [0, 0x40, 0xF000_0000_0000_0000 | 0x00FF_FFFF_FFFF_FFF0] {
                    let index = rest | (nib << 56);
                    assert_eq!(
                        m.scalar_ptr_tag(index),
                        scheme.ptr_tag(index),
                        "{scheme:?} index {index:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn combined_segments_work_end_to_end() {
        let mut m = mem(TagScheme::Combined);
        let p = m.segment_new(128, 64).unwrap();
        m.write(p, 0, &[7; 8]).unwrap();
        assert_eq!(m.read(p, 0, 8).unwrap(), vec![7; 8]);
        // Untagged access to the segment faults.
        assert!(m.read(128, 0, 8).is_err());
        // Untagged access elsewhere still works (guest-untagged tag 1).
        m.write(0, 0, &[1]).unwrap();
        m.segment_free(p, 64).unwrap();
        assert!(m.read(p, 0, 8).is_err());
    }

    #[test]
    fn grow_extends_and_tags_new_pages() {
        let instance_tag = Tag::new(4).unwrap();
        let mut m = LinearMemory::new(
            1,
            Some(4),
            true,
            TagScheme::ExternalOnly { instance_tag },
            1,
        );
        assert_eq!(m.grow(2), Some(1));
        assert_eq!(m.size_pages(), 3);
        // New pages carry the instance tag: accessible under sandboxing.
        m.write(2 * PAGE_SIZE + 8, 0, &[5]).unwrap();
        // Growing past max fails.
        assert_eq!(m.grow(10), None);
    }

    #[test]
    fn grow_memory64_byte_size_overflow_fails_cleanly() {
        // A page delta whose byte size overflows u64 must fail the grow
        // (wasm -1) instead of wrapping to a tiny allocation.
        let mut m = LinearMemory::new(1, None, true, TagScheme::None, 0);
        let delta = u64::MAX / PAGE_SIZE; // pages fit in u64, bytes do not
        assert_eq!(m.grow(delta), None);
        assert_eq!(m.grow(u64::MAX), None); // page count itself overflows
        assert_eq!(m.size_pages(), 1, "failed grows leave the size intact");
        assert!(m.write(0, 0, &[1]).is_ok(), "memory still usable");
    }

    #[test]
    fn wasm32_memory_capped_at_4gib() {
        let mut m = LinearMemory::new(65_535, None, false, TagScheme::None, 0);
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
        // A huge bulk length must not let `addr + width` wrap around: the
        // software check refuses it, and under sandboxing (where that
        // check is skipped) the tag check finds it outside tagged memory.
        let instance_tag = Tag::new(5).unwrap();
        for scheme in [TagScheme::None, TagScheme::ExternalOnly { instance_tag }] {
            let mut m = LinearMemory::new(1, None, true, scheme, 9);
            let outside = |err: &Trap| match (scheme, err) {
                (TagScheme::None, Trap::OutOfBounds { .. }) => true,
                (_, Trap::TagCheck(fault)) => fault.mem_tag.is_none(),
                _ => false,
            };
            for len in [u64::MAX, u64::MAX - 64, u64::MAX / 2] {
                let err = m.resolve(64, 0, len, AccessKind::Write).unwrap_err();
                assert!(outside(&err), "{err}");
                let err = m.fill(64, 0xAA, len).unwrap_err();
                assert!(outside(&err), "{err}");
                let err = m.copy(64, 0, len).unwrap_err();
                assert!(outside(&err), "{err}");
            }
            // The memory stays usable afterwards.
            assert!(m.write(0, 0, &[1]).is_ok());
        }
    }

    #[test]
    fn creation_reserves_the_declared_size_and_commits_none_of_it() {
        let m = LinearMemory::try_new(1024, None, true, TagScheme::None, 0).unwrap();
        assert_eq!(m.committed_bytes(), 0);
        assert_eq!(m.size_pages(), 1024);
        assert_eq!(m.resident_bytes(), 1024 * PAGE_SIZE, "the model is not");
        // Readers that take `&self` see zeros and commit nothing.
        assert_eq!(m.read_le(5 * PAGE_SIZE, 8), 0);
        assert_eq!(m.read_resolved(1024 * PAGE_SIZE - 4, 8), vec![0; 8]);
        assert_eq!(m.runtime_byte(RUNTIME_SLACK - 1), Some(0));
        assert_eq!(m.runtime_byte(RUNTIME_SLACK), None);
        assert_eq!(m.committed_bytes(), 0);
    }

    #[test]
    fn the_prefix_grows_by_whole_pages_at_first_touch_and_survives_reset() {
        let mut m = LinearMemory::new(4, None, true, TagScheme::None, 0);
        m.write(100, 0, &[1]).unwrap();
        assert_eq!(m.committed_bytes(), PAGE_SIZE);
        // A read is a touch too, and one that straddles the frontier
        // commits the page on the far side.
        assert_eq!(m.read_scalar(PAGE_SIZE - 4, 0, 8), Ok(0));
        assert_eq!(m.committed_bytes(), 2 * PAGE_SIZE);
        // `&self` reads across the frontier: committed bytes, then zeros.
        m.write(2 * PAGE_SIZE - 2, 0, &[0xAA, 0xBB]).unwrap();
        assert_eq!(m.read_le(2 * PAGE_SIZE - 2, 4), 0xBBAA);
        assert_eq!(m.read_resolved(2 * PAGE_SIZE - 1, 3), vec![0xBB, 0, 0]);
        assert_eq!(m.committed_bytes(), 2 * PAGE_SIZE);
        // Out of bounds commits nothing and traps as it always did.
        assert_eq!(
            m.write(4 * PAGE_SIZE - 1, 0, &[1, 2]),
            Err(Trap::OutOfBounds {
                addr: 4 * PAGE_SIZE - 1,
                len: 2
            })
        );
        assert_eq!(m.committed_bytes(), 2 * PAGE_SIZE);
        // The slack is not a whole page: touching it commits everything.
        m.raw_write_unchecked(4 * PAGE_SIZE + 8, &[7]).unwrap();
        assert_eq!(m.committed_bytes(), 4 * PAGE_SIZE + RUNTIME_SLACK);
        m.reset();
        assert_eq!(m.committed_bytes(), 4 * PAGE_SIZE + RUNTIME_SLACK);
        assert_eq!(m.dirty_page_count(), 0);
        assert_eq!(m.read(0, 0, 128).unwrap(), vec![0; 128]);
        assert_eq!(m.runtime_byte(8), Some(0));
    }

    #[test]
    fn a_page_dirty_for_its_tags_alone_resets_without_being_committed() {
        let mut m = mem4(TagScheme::InternalOnly);
        let p = m.segment_new(3 * PAGE_SIZE - 32, 64).unwrap();
        assert_eq!((m.committed_bytes(), m.dirty_page_count()), (0, 2));
        assert_eq!(
            m.tags().tag_at(3 * PAGE_SIZE).map(Tag::value),
            Some((p >> 56) as u8)
        );
        m.reset();
        assert_eq!((m.committed_bytes(), m.dirty_page_count()), (0, 0));
        assert_eq!(m.tags().range_tag(0, 4 * PAGE_SIZE), Some(Tag::ZERO));
    }

    fn mem4(scheme: TagScheme) -> LinearMemory {
        LinearMemory::new(4, Some(16), true, scheme, 42)
    }

    #[test]
    fn a_grown_memory_resets_by_shrinking_in_place() {
        let mut m = mem4(TagScheme::Combined);
        m.set_page_limit(Some(12));
        assert_eq!(m.grow(6), Some(4));
        assert_eq!(m.grow(3), None, "page limit");
        m.write(9 * PAGE_SIZE, 0, &[9]).unwrap();
        m.write(4 * PAGE_SIZE + 16, 0, &[4]).unwrap();
        assert_eq!(m.committed_bytes(), 10 * PAGE_SIZE);
        m.reset();
        assert_eq!(m.size_pages(), 4);
        assert_eq!(m.page_limit(), Some(12), "the embedder's cap survives");
        assert_eq!(m.committed_bytes(), 4 * PAGE_SIZE + RUNTIME_SLACK);
        assert_eq!(m.tags().size(), 4 * PAGE_SIZE + RUNTIME_SLACK);
        assert_eq!(m.dirty_page_count(), 0);
        // What was guest memory while grown is runtime slack again:
        // zeroed, tagged zero, and out of the guest's reach.
        assert_eq!(m.runtime_byte(16), Some(0));
        assert_eq!(
            m.tags().range_tag(4 * PAGE_SIZE, RUNTIME_SLACK),
            Some(Tag::ZERO)
        );
        assert!(matches!(
            m.write(4 * PAGE_SIZE + 16, 0, &[1]),
            Err(Trap::TagCheck(_))
        ));
        // And it grows again, into zeroed pages carrying the guest tag.
        assert_eq!(m.grow(1), Some(4));
        assert_eq!(m.read(4 * PAGE_SIZE + 16, 0, 1).unwrap(), vec![0]);
    }

    #[test]
    fn a_grow_the_host_cannot_reserve_is_a_wasm_minus_one() {
        // 2^49 bytes is more address space than the host has: the
        // reservation fails, and that must be an answer, not an abort.
        let mut m = LinearMemory::new(1, None, true, TagScheme::None, 0);
        m.write(8, 0, &[1]).unwrap();
        assert_eq!(m.grow(1 << 33), None);
        assert_eq!((m.size_pages(), m.committed_bytes()), (1, PAGE_SIZE));
        assert_eq!(m.tags().size(), PAGE_SIZE + RUNTIME_SLACK);
        assert_eq!(m.grow(1), Some(1), "still growable");
        assert_eq!(m.read(8, 0, 1).unwrap(), vec![1]);
    }
}
