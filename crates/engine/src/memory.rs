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
//! none of it: `data.capacity()` covers guest memory plus slack, and a
//! field, `committed`, is the **committed prefix**: what the guest has
//! touched, as [`LinearMemory::committed_bytes`] reports it. `data.len()`
//! is the **zeroed length**, the part of the buffer that holds bytes at
//! all. The two are equal on a memory built from nothing; a memory built
//! from a recycled buffer (below) starts with its predecessor's zeroed
//! length and a committed prefix of zero. The invariant every method
//! keeps:
//!
//! * `committed` is a multiple of [`PAGE_SIZE`] or equals the total size
//!   (guest plus slack), and never exceeds `data.len()`, which never
//!   exceeds the total;
//! * bytes in `[committed, total)` are logically zero: nothing has been
//!   written there since the memory was built, so readers that take
//!   `&self` see zeros, and [`LinearMemory::reset`] has nothing to clear
//!   there (a block there can still be retagged: the tags are stored
//!   eagerly and tracked apart). Those of them below `data.len()` are
//!   real zero bytes.
//!
//! The prefix grows where an access was already being compared against
//! it: the final slack check of [`LinearMemory::resolve`]. A miss goes to a
//! cold function that re-runs the real guest/slack bound (same trap
//! payload as before), moves the prefix up by whole pages — zero-extending
//! the buffer inside the reserved capacity (no reallocation) only where
//! the prefix passes the zeroed length — and retries. The stack sits at
//! the bottom of a guest's memory and the heap grows up from
//! `__heap_base`, so the touched set is a prefix and the worst case
//! commits what an eager allocation would have zeroed unconditionally.
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
//!
//! # Dirty tracking
//!
//! [`LinearMemory::reset`] restores only what a tenant changed. It keeps
//! two records of that, one per kind of state, because the two are written
//! by different operations and cost different amounts to restore:
//!
//! * **Written data, per 64-byte line** (`DIRTY_LINE`). Every write of data
//!   bytes marks the lines it covers: a store, [`LinearMemory::fill`],
//!   [`LinearMemory::copy`], [`LinearMemory::write_resolved`] (data
//!   segments, allocator metadata) and
//!   [`LinearMemory::raw_write_unchecked`]. A segment op writes only zeros
//!   and marks none. A request that stores one word per 4 KiB over 2 MiB
//!   costs its recycle 512 line fills, not one 2 MiB `memset`.
//! * **Retagged guest memory, per 4 KiB block** (`TAG_BLOCK`, the host
//!   page). `segment.new`, `segment.set_tag` and `segment.free` mark the
//!   blocks whose tags they change, and `reset` retags them to the
//!   scheme's initial tag. A block's tags are 128 bytes (the tag store is
//!   1/32 of the data), so the coarser unit costs little.
//!
//! Between them the records keep one invariant on the bytes: **every data
//! byte outside a dirty line is zero.** A memory starts zero (built from
//! nothing, from a spare, or committed past its zeroed length), a byte can
//! become non-zero only through a write that marks its line (data
//! segments arrive through `write_resolved`), and `reset` zeroes exactly
//! the dirty lines. So `segment.new`, which hands back a zeroed segment
//! (Fig. 11 rule 5), zeroes only what was written of it since the last
//! reset. It skips a bitmap word (4 KiB) at a time and fills each run of
//! words that hold a dirty line in one go, so a small `malloc` still
//! costs one fill and a large one over fresh memory costs none.
//!
//! Each record is a `DirtySet`: a bitmap of one bit per unit, grown
//! lazily, and a worklist. The bitmap starts empty, and a unit's first
//! marking after a reset (cold, out of the stores' inlined path, like an
//! access spanning units, which is marked a word at a time) extends it to
//! cover what it marks. So the inline test of a store treats a word past
//! its end as clean, and a tenant that writes only low memory never
//! allocates the bitmap for the rest. (Sizing it eagerly for the whole
//! memory moves `serve_cold`'s peak RSS through the allocator's layout
//! alone.) The worklist holds the index of every bitmap word that went
//! from zero to non-zero. One walk serves both records: it sorts those
//! few words, takes each word's bits and hands on its runs of set bits,
//! joining a run that carries on into the next word. So `reset` does one
//! data fill per run of adjacent dirty lines, clamped to the committed
//! prefix, and one tag fill per run of retagged blocks, clamped to guest
//! memory: a tenant that wrote 2 MiB in one piece is cleared by one 2 MiB
//! `memset`, not one per line. Both vectors of both records keep their
//! capacity across resets, so a recycled slot that dirties what its
//! predecessor did allocates nothing.
//!
//! # Recycled memories
//!
//! A dropped memory — its instance retired, its store or pool dropped —
//! hands its buffers to a per-thread list of *spares*, and
//! [`LinearMemory::try_new`] takes one of the same total size before it
//! allocates anything: a cold instantiation then skips the reservation,
//! the tag store's allocation and the page fills of its first touches.
//! Every spare is clean — the invariant the list keeps:
//!
//! * its `data` buffer is all zero bytes, with the capacity of the total
//!   size; its length is the zeroed length the taker starts with;
//! * its tag store covers the total size, every granule tagged zero, with
//!   a check count of zero: exactly what `TagMemory::new` builds;
//! * both its dirty records are empty: all-zero bitmaps and empty
//!   worklists, each with its capacity kept.
//!
//! The giver zeroes its dirty lines and retags its retagged blocks to zero
//! with the walk [`LinearMemory::reset`] uses and, under a scheme whose
//! initial tag is not zero, clears all its guest tags. Should a retag fail
//! (it cannot on a memory that never grew), the memory is freed instead:
//! `drop` must not panic, since a panic while the thread unwinds aborts
//! the process. Only a memory that never grew is kept (a grown one's
//! buffers are larger than its total; it is freed), and the list holds at
//! most `KEPT_SPARES` memories and `KEPT_SPARE_BYTES` of buffer capacity,
//! like the call buffers' `KEPT_*` trims: a memory that would pass either
//! bound is freed. The taker builds every other field fresh and pre-tags
//! the guest range under its own scheme exactly as a memory built from
//! nothing does, so nothing a guest or an embedder can observe — bytes,
//! tags, dirty lines and blocks, check count, committed prefix — tells
//! the two apart. Each thread has its own list, so which memories a run
//! recycles never depends on another thread.

use std::cell::RefCell;

use cage_mte::pointer::ADDR_MASK;
use cage_mte::{AccessKind, Tag, TagError, TagExclusionMask, TagMemory, TagPool};

use crate::trap::{SegmentFaultReason, Trap};

/// Bytes of simulated runtime memory adjacent to the guest's linear memory.
pub const RUNTIME_SLACK: u64 = 4096;

/// WASM page size re-export for convenience.
pub const PAGE_SIZE: u64 = cage_wasm::types::PAGE_SIZE;

/// The unit of data dirtiness: a 64-byte line. [`LinearMemory::reset`]
/// and `segment.new` re-zero whole dirty lines (see the module docs).
pub(crate) const DIRTY_LINE: u64 = 64;

/// The unit of tag dirtiness: 4 KiB, the host page. [`LinearMemory::reset`]
/// retags whole retagged blocks (see the module docs).
pub(crate) const TAG_BLOCK: u64 = 4096;

/// The most spare memories a thread keeps (see the module docs).
pub(crate) const KEPT_SPARES: usize = 16;

/// The most buffer capacity, in bytes, a thread's spare memories hold
/// together: fifteen of the C front end's 4 MiB memories with their tag
/// stores (a full sandboxed store) fit.
pub(crate) const KEPT_SPARE_BYTES: u64 = 64 << 20;

/// The buffers of a dropped memory that never grew, clean (see the module
/// docs), and the capacity they hold, as `KEPT_SPARE_BYTES` counts it.
#[derive(Debug)]
struct Spare {
    bytes: u64,
    data: Vec<u8>,
    tags: TagMemory,
    dirty: DirtySet,
    retagged: DirtySet,
}

thread_local! {
    /// This thread's spare memories, most recently given last.
    static SPARES: RefCell<Vec<Spare>> = const { RefCell::new(Vec::new()) };
}

/// Takes this thread's most recently given spare of `total` bytes, if it
/// has one.
fn take_spare(total: u64) -> Option<Spare> {
    SPARES
        .try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let at = spares
                .iter()
                .rposition(|s| s.data.capacity() as u64 == total && s.tags.size() == total)?;
            Some(spares.remove(at))
        })
        .ok()
        .flatten()
}

/// A set of dirty units of a memory — 64-byte lines of its data, or 4 KiB
/// blocks of its guest tags (see the module docs): a bitmap of one bit per
/// unit, grown only to cover the highest unit marked, so a word past its
/// end is clean, and the index of every word of it that went from zero to
/// non-zero, in that order. Both keep their capacity when the set is
/// emptied. `repr(C)`, as it sits inside [`LinearMemory`]'s layout.
#[derive(Debug, Default)]
#[repr(C)]
struct DirtySet {
    bits: Vec<u64>,
    words: Vec<usize>,
}

impl DirtySet {
    /// Whether `first..=last` is one unit, already marked: the common case
    /// of a store, and the one test a mark makes inline.
    #[inline]
    fn holds(&self, first: u64, last: u64) -> bool {
        let (word, bit) = ((first / 64) as usize, 1 << (first % 64));
        first == last && self.bits.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Marks units `first..=last` a bitmap word at a time, growing the
    /// bitmap to cover `last` and putting each word that was clean on the
    /// worklist. Called past a failed [`DirtySet::holds`]: the first time
    /// a unit is marked after the set was emptied, or by an access
    /// spanning units.
    fn mark(&mut self, first: u64, last: u64) {
        let (first_word, last_word) = ((first / 64) as usize, (last / 64) as usize);
        if last_word >= self.bits.len() {
            self.bits.resize(last_word + 1, 0);
        }
        for word in first_word..=last_word {
            if self.bits[word] == 0 {
                self.words.push(word);
            }
            self.bits[word] |= word_mask(word as u64, first, last);
        }
    }

    /// The number of marked units.
    fn count(&self) -> usize {
        self.words
            .iter()
            .map(|&word| self.bits[word].count_ones() as usize)
            .sum()
    }

    /// The bitmap words, in ascending order, that hold a marked unit of
    /// `first..=last`.
    fn words_marked_in(&self, first: u64, last: u64) -> impl Iterator<Item = u64> + '_ {
        let held = (self.bits.len() as u64).min(last / 64 + 1);
        (first / 64..held)
            .filter(move |&word| self.bits[word as usize] & word_mask(word, first, last) != 0)
    }

    /// Empties the set, handing `restore` each maximal run of marked
    /// units in ascending order — runs that carry on into the next bitmap
    /// word included, whatever order the units were marked in.
    fn drain_runs(&mut self, mut restore: impl FnMut(std::ops::Range<u64>)) {
        self.words.sort_unstable();
        let mut run = 0..0;
        for &word in &self.words {
            let mut bits = std::mem::take(&mut self.bits[word]);
            while bits != 0 {
                let low = bits.trailing_zeros();
                let len = (bits >> low).trailing_ones();
                // Adding the run's lowest bit carries through the run and
                // clears it.
                bits &= bits.wrapping_add(1 << low);
                let start = word as u64 * 64 + u64::from(low);
                if start != run.end {
                    if !run.is_empty() {
                        restore(run);
                    }
                    run = start..start;
                }
                run.end = start + u64::from(len);
            }
        }
        if !run.is_empty() {
            restore(run);
        }
        self.words.clear();
    }
}

/// The bits of bitmap word `word` that units `first..=last` cover.
fn word_mask(word: u64, first: u64, last: u64) -> u64 {
    let from = if word == first / 64 { first % 64 } else { 0 };
    let to = if word == last / 64 { last % 64 } else { 63 };
    (u64::MAX << from) & (u64::MAX >> (63 - to))
}

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
///
/// `repr(C)`, so the declaration order below is the layout: the offsets
/// the dispatch loop reads its memory's fields at are part of its code,
/// so a new field goes where it moves none of the others.
#[derive(Debug)]
#[repr(C)]
pub struct LinearMemory {
    /// The module-declared maximum, `u64::MAX` where it declares none (no
    /// page count reaches it: its byte size overflows first).
    max_pages: u64,
    /// The committed prefix (see the module docs).
    committed: u64,
    /// Embedder-imposed page cap ([`crate::store::InstanceLimits`]), on
    /// top of the module-declared `max_pages`. Checked only in
    /// [`LinearMemory::grow`] — the single choke point every tier and the
    /// host-side grow go through — and preserved across [`LinearMemory::reset`].
    page_limit: Option<u64>,
    /// The bytes; its length is the zeroed length, at least `committed`,
    /// and its capacity is reserved for `guest_size + RUNTIME_SLACK` (see
    /// the module docs).
    data: Vec<u8>,
    tags: TagMemory,
    /// The `DIRTY_LINE`s of `data` (guest plus slack) written since
    /// creation or the last reset (see the module docs).
    dirty: DirtySet,
    guest_size: u64,
    /// The scalar fast path's bound (see the module docs):
    /// `min(guest_size, committed)`, under every scheme.
    scalar_bound: u64,
    pool: TagPool,
    /// Construction parameters retained so [`LinearMemory::reset`] can
    /// restore the freshly-instantiated state.
    base_pages: u64,
    seed: u64,
    scheme: TagScheme,
    memory64: bool,
    /// The scheme's three predicates, resolved once in
    /// [`LinearMemory::try_new`] so no access re-derives them: the MTE
    /// tag check stands in for the bounds check (§6.4), …
    sandboxed: bool,
    /// … the `segment.*` instructions act on this memory (§6.3), …
    segments_live: bool,
    /// … ordinary accesses are tag-checked at all.
    tag_checked: bool,
    /// The scheme's pointer-tag extraction as arithmetic, resolved once in
    /// [`LinearMemory::try_new`]: the fast path's tag of `index` is
    /// `((index >> 56) & ptr_tag_mask) + ptr_tag_add`, which is
    /// [`TagScheme::ptr_tag`] with no `match`.
    ptr_tag_mask: u8,
    /// … and its constant term (the instance tag, or Combined's heap-base
    /// nibble 1).
    ptr_tag_add: u8,
    /// The `TAG_BLOCK`s of guest memory whose tags a segment op changed
    /// since creation or the last reset. Last, so it moves no field the
    /// dispatch loop reads.
    retagged: DirtySet,
}

impl LinearMemory {
    /// Creates a memory of `initial_pages` under the given scheme.
    ///
    /// Guest memory is pre-tagged with the scheme's initial tag (this is
    /// the instantiation-time tagging pass whose cost §7.2 measures); the
    /// runtime slack stays tagged zero. No data byte is committed. The
    /// buffers are this thread's spare of the same total size when it has
    /// one (see the module docs).
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
        let (data, mut tags, dirty, retagged) = match take_spare(total) {
            Some(spare) => (spare.data, spare.tags, spare.dirty, spare.retagged),
            None => {
                let mut data = Vec::new();
                data.try_reserve_exact(total_usize).map_err(|_| too_big())?;
                let empty = DirtySet::default;
                (data, TagMemory::new(total), empty(), empty())
            }
        };
        let initial = scheme.initial_tag();
        if !initial.is_zero() {
            tags.set_tag_range(0, guest_size, initial)
                .expect("page-aligned guest region inside the tag store");
        }
        let pool = TagPool::new(scheme.segment_exclusion(), seed)
            .expect("segment exclusion leaves tags available");
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
            committed: 0,
            guest_size,
            max_pages: max_pages.unwrap_or(u64::MAX),
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
            dirty,
            retagged,
        })
    }

    /// The capacity of the buffers a spare keeps (see the module docs).
    fn buffer_bytes(&self) -> u64 {
        let set = |s: &DirtySet| {
            s.bits.capacity() * std::mem::size_of::<u64>()
                + s.words.capacity() * std::mem::size_of::<usize>()
        };
        let records = set(&self.dirty) + set(&self.retagged);
        (self.data.capacity() + self.tags.packed().len() + records) as u64
    }

    /// Guest memory plus runtime slack: the reserved size of `data`.
    #[inline]
    fn total(&self) -> u64 {
        self.guest_size + RUNTIME_SLACK
    }

    /// Extends the committed prefix to cover `[0, end)`, rounded up to a
    /// page and capped at the total size, zero-extending the buffer where
    /// the prefix passes its zeroed length. The capacity was reserved at
    /// creation or by [`LinearMemory::grow`], so this never reallocates.
    /// An `end` past the total commits everything and leaves the caller's
    /// slice index to panic, as it always did.
    #[cold]
    #[inline(never)]
    fn commit(&mut self, end: u64) {
        let target = end
            .checked_next_multiple_of(PAGE_SIZE)
            .map_or(self.total(), |rounded| rounded.min(self.total()));
        if target > self.committed {
            if target > self.data.len() as u64 {
                self.data.resize(target as usize, 0);
            }
            self.committed = target;
            self.set_scalar_bound();
        }
    }

    /// Re-derives `scalar_bound` after the committed prefix moved; called
    /// from [`LinearMemory::commit`] and [`LinearMemory::reset`] only.
    #[inline]
    fn set_scalar_bound(&mut self) {
        self.scalar_bound = self.guest_size.min(self.committed);
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

    /// Bytes of linear memory the guest has touched: the committed prefix,
    /// in whole pages (or all of guest memory plus slack). Host-side and
    /// dependent on the touch pattern — unlike
    /// [`LinearMemory::resident_bytes`], which is the *modelled* footprint
    /// of §7.3 and must not change with it. It is zero on every new
    /// memory, one built from a recycled buffer included, whose zeroed
    /// length it does not count (see the module docs): what the host backs
    /// can exceed it by that much. The tag store (eager, 1/32 of the
    /// declared size) is not counted.
    #[must_use]
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// Marks the lines covering `[addr, addr + len)` written. Every write
    /// of data bytes funnels through here; [`LinearMemory::reset`] zeroes
    /// exactly these lines. What stays inline is the common case of a
    /// store: one line, already dirty.
    #[inline]
    fn mark_written(&mut self, addr: u64, len: u64) {
        if len != 0 {
            let (first, last) = (addr / DIRTY_LINE, (addr + len - 1) / DIRTY_LINE);
            if !self.dirty.holds(first, last) {
                self.mark_written_new(first, last);
            }
        }
    }

    /// [`LinearMemory::mark_written`] past its inline test, out of the
    /// scalar stores' inlined path. A method of the memory rather than of
    /// its record, so the stores inlined into the dispatch loop pass the
    /// memory they already hold.
    #[cold]
    #[inline(never)]
    fn mark_written_new(&mut self, first: u64, last: u64) {
        self.dirty.mark(first, last);
    }

    /// Marks the blocks covering `[addr, addr + len)` of guest memory
    /// retagged. Every segment op that changes tags funnels through here;
    /// [`LinearMemory::reset`] retags exactly these blocks.
    #[inline]
    fn mark_retagged(&mut self, addr: u64, len: u64) {
        if len != 0 {
            let (first, last) = (addr / TAG_BLOCK, (addr + len - 1) / TAG_BLOCK);
            if !self.retagged.holds(first, last) {
                self.retagged.mark(first, last);
            }
        }
    }

    /// Number of 64-byte lines written since creation or the last reset:
    /// what the next [`LinearMemory::reset`] re-zeroes, as far as they lie
    /// in the committed prefix (pool observability).
    #[must_use]
    pub fn dirty_line_count(&self) -> usize {
        self.dirty.count()
    }

    /// Number of 4 KiB blocks of guest memory a segment op retagged since
    /// creation or the last reset: what the next [`LinearMemory::reset`]
    /// retags (pool observability).
    #[must_use]
    pub fn retagged_block_count(&self) -> usize {
        self.retagged.count()
    }

    /// Restores the memory to its freshly-created state in O(lines
    /// written + blocks retagged): re-zeroes only the dirty lines and
    /// retags only the retagged blocks (one fill per run of adjacent
    /// units), and rewinds the segment tag pool to its seed so the next
    /// run draws the same tags. Data segments are *not* re-applied here —
    /// the store does that, exactly as at instantiation.
    ///
    /// The committed prefix survives (a warm slot stays warm), so the data
    /// fill is clamped to it. A grown memory shrinks back in place first.
    /// Nothing here allocates or can fail: this runs on the pool's recycle
    /// path, outside any `catch_unwind`.
    pub fn reset(&mut self) {
        let base_size = self.base_pages * PAGE_SIZE;
        if self.guest_size != base_size {
            // Undo the grows: drop the pages above the base size from the
            // prefix and the tag store (the walks below clamp to the new
            // sizes, so for them they only clear the records). The
            // base-sized slack was guest memory while grown, so it carries
            // guest tags; its data is dirty-tracked like any line's.
            self.guest_size = base_size;
            let total = self.total();
            self.data.truncate(total as usize);
            self.committed = self.committed.min(total);
            self.tags.shrink(total);
            self.tags
                .set_tag_range(base_size, RUNTIME_SLACK, Tag::ZERO)
                .expect("granule-aligned slack inside the shrunk tag store");
            self.set_scalar_bound();
        }
        self.restore(self.scheme.initial_tag())
            .expect("block-aligned runs inside guest memory");
        self.pool = TagPool::new(self.scheme.segment_exclusion(), self.seed)
            .expect("segment exclusion leaves tags available");
    }

    /// Re-zeroes every dirty line, retags every retagged block to `tag`
    /// and empties both records, for [`LinearMemory::reset`] and a memory
    /// handed on as a spare. The data fills are clamped to the committed
    /// prefix — past it a line holds nothing to clear — and the tag fills
    /// to guest memory, whose slack tags no segment op reaches.
    ///
    /// # Errors
    ///
    /// A tag fill the tag store refuses; both records are emptied anyway.
    fn restore(&mut self, tag: Tag) -> Result<(), TagError> {
        let (committed, data) = (self.committed, &mut self.data);
        self.dirty.drain_runs(|lines| {
            let (start, end) = (lines.start * DIRTY_LINE, lines.end * DIRTY_LINE);
            if start < committed {
                data[start as usize..end.min(committed) as usize].fill(0);
            }
        });
        let (guest_size, tags) = (self.guest_size, &mut self.tags);
        let mut retag = Ok(());
        self.retagged.drain_runs(|blocks| {
            let (start, end) = (blocks.start * TAG_BLOCK, blocks.end * TAG_BLOCK);
            if start < guest_size {
                let filled = tags.set_tag_range(start, end.min(guest_size) - start, tag);
                retag = retag.and(filled);
            }
        });
        retag
    }

    /// Zeroes what was written of `[addr, addr + len)` since the last
    /// reset, for `segment.new`: every byte outside a dirty line is zero
    /// already (see the module docs). A bitmap word (4 KiB of data) at a
    /// time: each run of words that hold a dirty line of the range is one
    /// fill of the range's part of them, clamped to the committed prefix.
    fn zero_written(&mut self, addr: u64, len: u64) {
        let end = (addr + len).min(self.committed);
        if addr >= end {
            return;
        }
        const WORD_SPAN: u64 = 64 * DIRTY_LINE;
        let (first, last) = (addr / DIRTY_LINE, (end - 1) / DIRTY_LINE);
        let mut run = addr..addr;
        for word in self.dirty.words_marked_in(first, last) {
            let from = (word * WORD_SPAN).max(addr);
            if from != run.end {
                self.data[run.start as usize..run.end as usize].fill(0);
                run = from..from;
            }
            run.end = ((word + 1) * WORD_SPAN).min(end);
        }
        self.data[run.start as usize..run.end as usize].fill(0);
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
        if new_pages > self.max_pages {
            return None;
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
        // Reserve data and tags before touching any state: a host that
        // cannot back the grow answers `-1`, it does not abort.
        let extra = usize::try_from(total - self.data.len() as u64).ok()?;
        self.data.try_reserve_exact(extra).ok()?;
        self.tags.try_grow(total).ok()?;
        let old_size = self.guest_size;
        if new_size > old_size {
            // The old slack becomes guest memory: zero whatever of it was
            // committed (a sandbox escape may have scribbled there), and
            // re-round a prefix that ended with it. That commit is the only
            // way the scalar bound can move here: a prefix of whole pages
            // already lies inside the old guest memory.
            let committed = self.committed;
            if committed > old_size {
                let slack_end = committed.min(old_size + RUNTIME_SLACK);
                self.data[old_size as usize..slack_end as usize].fill(0);
            }
            self.guest_size = new_size;
            if !committed.is_multiple_of(PAGE_SIZE) {
                self.commit(committed);
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
            .is_none_or(|end| end > self.committed)
        {
            self.commit_access(addr, width)?;
        }
        Ok(addr)
    }

    /// The `width` bytes at the resolved address: what the buffer holds of
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
        let held = self.data.len() as u64;
        let mut out = Vec::with_capacity(width as usize);
        out.extend_from_slice(
            &self.data[addr.min(held) as usize..(addr + width).min(held) as usize],
        );
        out.resize(width as usize, 0);
        out
    }

    /// Writes bytes at the resolved address, committing the pages under
    /// them (the runtime's own writes — data segments, allocator metadata
    /// — arrive here without a [`LinearMemory::resolve`]).
    pub fn write_resolved(&mut self, addr: u64, bytes: &[u8]) {
        let end = addr + bytes.len() as u64;
        if end > self.committed {
            self.commit(end);
        }
        self.mark_written(addr, bytes.len() as u64);
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
        self.mark_written(addr, width);
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
        self.mark_written(addr, len);
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
        self.mark_written(d, len);
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
        if addr + width > self.committed {
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
        self.mark_retagged(addr, len);
        let mem_tag = self.pool.random_tag();
        self.tags
            .set_tag_range(addr, len, mem_tag)
            .expect("range checked above");
        // Zero the segment (segment.new returns zeroed memory): only its
        // lines written since the last reset hold anything, and what lies
        // past the committed prefix stays uncommitted.
        self.zero_written(addr, len);
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
        self.mark_retagged(addr, len);
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
        self.mark_retagged(addr, len);
        let free_tag = self.pool.random_tag_excluding(ptr_tag);
        self.tags
            .set_tag_range(addr, len, free_tag)
            .expect("range checked above");
        Ok(())
    }
}

impl Drop for LinearMemory {
    /// Hands the buffers of a memory that never grew to this thread's
    /// spares, cleaned, unless that would pass a `KEPT_*` bound; anything
    /// else is freed (see the module docs).
    fn drop(&mut self) {
        let never_grew = self.guest_size == self.base_pages * PAGE_SIZE
            && self.data.capacity() as u64 == self.total();
        if !never_grew {
            return;
        }
        // `try_with`: the list may already be gone while the thread exits.
        let _ = SPARES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let bytes = self.buffer_bytes();
            let held: u64 = spares.iter().map(|s| s.bytes).sum();
            if spares.len() >= KEPT_SPARES || held + bytes > KEPT_SPARE_BYTES {
                return;
            }
            // A spare's tags are all zero. A retag that fails frees the
            // memory instead of keeping it: a panic here, while the thread
            // may be unwinding, would abort the process.
            let wiped = self.restore(Tag::ZERO).and_then(|()| {
                if self.scheme.initial_tag().is_zero() {
                    Ok(())
                } else {
                    self.tags.set_tag_range(0, self.guest_size, Tag::ZERO)
                }
            });
            if wiped.is_err() {
                return;
            }
            self.tags.reset_check_count();
            spares.push(Spare {
                bytes,
                data: std::mem::take(&mut self.data),
                tags: std::mem::replace(&mut self.tags, TagMemory::new(0)),
                dirty: std::mem::take(&mut self.dirty),
                retagged: std::mem::take(&mut self.retagged),
            });
        });
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

    /// The units both dirty records hold — written lines, retagged
    /// blocks — for the eager model to compare with its own sets.
    pub(crate) fn dirty_units(&self) -> [Vec<u64>; 2] {
        [&self.dirty, &self.retagged].map(|set| {
            let mut words = set.words.clone();
            words.sort_unstable();
            words
                .iter()
                .flat_map(|&word| {
                    let bits = set.bits[word];
                    (0..64u64)
                        .filter(move |bit| bits >> bit & 1 == 1)
                        .map(move |bit| word as u64 * 64 + bit)
                })
                .collect()
        })
    }
}

/// How many spare memories this thread holds, and their bytes as
/// `KEPT_SPARE_BYTES` counts them.
#[cfg(test)]
pub(crate) fn spares_held() -> (usize, u64) {
    SPARES.with(|spares| {
        let spares = spares.borrow();
        (spares.len(), spares.iter().map(|s| s.bytes).sum())
    })
}

/// Frees every spare memory this thread holds, so the next memory is
/// built from nothing.
#[cfg(test)]
pub(crate) fn free_spares() {
    SPARES.with(|spares| spares.borrow_mut().clear());
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
        assert_eq!(m.dirty_line_count(), 0);
        assert_eq!(m.read(0, 0, 128).unwrap(), vec![0; 128]);
        assert_eq!(m.runtime_byte(8), Some(0));
    }

    #[test]
    fn a_page_dirty_for_its_tags_alone_resets_without_being_committed() {
        let mut m = mem4(TagScheme::InternalOnly);
        let p = m.segment_new(3 * PAGE_SIZE - 32, 64).unwrap();
        // Two blocks retagged (47 and 48); no line written: the segment's
        // zeros are what its uncommitted bytes held already.
        let state = |m: &LinearMemory| {
            let counts = (m.dirty_line_count(), m.retagged_block_count());
            (m.committed_bytes(), counts)
        };
        assert_eq!(state(&m), (0, (0, 2)));
        assert_eq!(
            m.tags().tag_at(3 * PAGE_SIZE).map(Tag::value),
            Some((p >> 56) as u8)
        );
        m.reset();
        assert_eq!(state(&m), (0, (0, 0)));
        assert_eq!(m.tags().range_tag(0, 4 * PAGE_SIZE), Some(Tag::ZERO));
    }

    fn mem4(scheme: TagScheme) -> LinearMemory {
        LinearMemory::new(4, Some(16), true, scheme, 42)
    }

    /// The four schemes, with a sandbox tag for the external one.
    fn schemes() -> [TagScheme; 4] {
        [
            TagScheme::None,
            TagScheme::InternalOnly,
            TagScheme::ExternalOnly {
                instance_tag: Tag::new(6).unwrap(),
            },
            TagScheme::Combined,
        ]
    }

    #[test]
    fn reset_restores_exactly_the_blocks_written() {
        for scheme in schemes() {
            let fresh = mem4(scheme);
            let total = 4 * PAGE_SIZE + RUNTIME_SLACK;
            let mut m = mem4(scheme);
            // Grown, so lines 4095 | 4096 (the edge of bitmap word 63) are
            // both guest memory, and line 4096 is slack again after the
            // reset.
            assert_eq!(m.grow(2), Some(4), "{scheme:?}");
            // Line 1, and lines 3 | 4 by a straddle: two runs.
            m.write(DIRTY_LINE + 8, 0, &[1]).unwrap();
            m.write(4 * DIRTY_LINE - 2, 0, &[3; 4]).unwrap();
            // Straddles of lines 63 | 64 and 4095 | 4096, each across two
            // bitmap words.
            m.write(64 * DIRTY_LINE - 2, 0, &[0xAB; 4]).unwrap();
            m.write(4 * PAGE_SIZE - 2, 0, &[0xCD; 4]).unwrap();
            assert_eq!(m.committed_bytes(), 5 * PAGE_SIZE, "{scheme:?}");
            assert_eq!(m.dirty_line_count(), 7, "{scheme:?}");
            // Block 82, above the committed prefix, retagged where segments
            // are live; block 0 too, by a segment over the written lines 0
            // and 1, which it zeroes without marking a line.
            let seg = m.segment_new(82 * TAG_BLOCK + 64, 32).unwrap();
            let retagged = m.segments_live();
            assert_eq!(seg >> 56 != 0, retagged, "{scheme:?}");
            let low = m.segment_new(0, 2 * DIRTY_LINE).unwrap();
            assert_eq!(
                m.read(low, DIRTY_LINE + 8, 1).unwrap(),
                [u8::from(!retagged)]
            );
            assert_eq!(m.committed_bytes(), 5 * PAGE_SIZE, "{scheme:?}");
            assert_eq!(m.dirty_line_count(), 7, "{scheme:?}");
            assert_eq!(m.retagged_block_count(), 2 * usize::from(retagged));
            m.reset();
            assert_eq!(m.dirty_line_count(), 0, "{scheme:?}");
            assert_eq!(m.retagged_block_count(), 0, "{scheme:?}");
            assert_eq!(m.size_pages(), 4, "{scheme:?}");
            assert!(m.read_resolved(0, total) == fresh.read_resolved(0, total));
            assert!(m.tags().packed() == fresh.tags().packed(), "{scheme:?}");
            // A line of a word the reset emptied is tracked again.
            m.write(2 * DIRTY_LINE, 0, &[2]).unwrap();
            assert_eq!(m.dirty_line_count(), 1, "{scheme:?}");
            m.reset();
            assert!(m.read_resolved(0, total) == fresh.read_resolved(0, total));
            assert!(m.tags().packed() == fresh.tags().packed(), "{scheme:?}");
        }
    }

    #[test]
    fn segment_new_zeroes_the_lines_written_since_the_reset() {
        for scheme in [TagScheme::InternalOnly, TagScheme::Combined] {
            let mut m = mem4(scheme);
            for round in 0..2 {
                let what = format!("{scheme:?} round {round}");
                // Written: lines 0-3 whole and the last line of bitmap word
                // 0, one word of word 2 (a clean word 1 between), and a 4
                // KiB run across the edge of words 4 and 5.
                m.fill(0, 0xAA, 4 * DIRTY_LINE).unwrap();
                m.write_scalar(TAG_BLOCK - 8, 0, 8, u64::MAX).unwrap();
                m.write_scalar(2 * TAG_BLOCK + 200, 0, 8, u64::MAX).unwrap();
                m.fill(4 * TAG_BLOCK + 2048, 0xBB, TAG_BLOCK).unwrap();
                let lines = m.dirty_line_count();
                // A segment from the middle of line 0 to the middle of
                // line 2: its bytes read zero through the tagged pointer,
                // and the written bytes either side of it are kept.
                let p = m.segment_new(48, 96).unwrap();
                assert_eq!(m.read(p, 0, 96).unwrap(), vec![0; 96], "{what}");
                let outside = |m: &LinearMemory, addr, len| m.read_resolved(addr, len);
                assert_eq!(outside(&m, 0, 48), vec![0xAA; 48], "{what}");
                assert_eq!(outside(&m, 144, 112), vec![0xAA; 112], "{what}");
                // Segments of exactly one dirty line: the last of bitmap
                // word 0, and the only one of word 2.
                for line in [TAG_BLOCK - DIRTY_LINE, 2 * TAG_BLOCK + 192] {
                    let p = m.segment_new(line, DIRTY_LINE).unwrap();
                    let got = m.read(p, 0, DIRTY_LINE).unwrap();
                    assert_eq!(got, vec![0; 64], "{what}: line at {line:#x}");
                }
                // One segment over all of it, clean words included.
                let p = m.segment_new(0, 6 * TAG_BLOCK).unwrap();
                let image = m.read(p, 0, 6 * TAG_BLOCK).unwrap();
                assert!(image.iter().all(|&b| b == 0), "{what}");
                // Segment ops write only zeros: no line is marked by them.
                assert_eq!(m.dirty_line_count(), lines, "{what}");
                m.segment_free(p, 6 * TAG_BLOCK).unwrap();
                // The reset empties both records; the next round writes
                // the same lines again.
                m.reset();
                assert_eq!(m.dirty_line_count(), 0, "{what}");
                assert_eq!(m.read_resolved(0, 6 * TAG_BLOCK), vec![0; 6 * 4096]);
            }
        }
    }

    #[test]
    fn segment_new_over_a_data_segment_zeroes_it_and_the_next_reset_restores_its_image() {
        use crate::config::Variant;
        use crate::host::Imports;
        use crate::store::Store;
        use cage_mte::Core;
        use cage_wasm::builder::ModuleBuilder;

        let mut b = ModuleBuilder::new();
        b.add_memory64(2);
        let image: Vec<u8> = (1..=200).collect();
        b.add_data(1000, image.clone());
        let module = b.build();
        for variant in [Variant::CageMemSafety, Variant::CageFull] {
            let config = variant.exec_config(Core::CortexX3);
            let mut store = Store::new(config);
            let h = store.instantiate(&module, &Imports::new()).unwrap();
            let fresh = |store: &Store| {
                let m = store.memory(h).unwrap();
                (m.read_resolved(0, m.size()), m.tags().packed().to_vec())
            };
            let before = fresh(&store);
            assert_eq!(before.0[1000..1200], image[..], "{variant}");
            let m = store.memory_mut(h).unwrap();
            // The segment's bytes arrived through `write_resolved`, so its
            // lines (15 to 18) are dirty and `segment.new` clears them.
            assert_eq!(m.dirty_line_count(), 4, "{variant}");
            let p = m.segment_new(992, 224).unwrap();
            assert_eq!(m.read(p, 0, 224).unwrap(), vec![0; 224], "{variant}");
            m.segment_free(p, 224).unwrap();
            // The reset zeroes them again, retags the block, and the store
            // writes the data segment back: the instance's fresh image.
            store.reset_instance(h).unwrap();
            assert!(fresh(&store) == before, "{variant}");
            let m = store.memory(h).unwrap();
            assert_eq!((m.dirty_line_count(), m.retagged_block_count()), (4, 0));
        }
    }

    #[test]
    fn one_store_per_block_over_32_pages_resets_to_a_fresh_memory() {
        const PAGES: u64 = 40;
        // The churn request: a segment over 32 pages (inert without
        // internal safety), one 8-byte store through its pointer per 4
        // KiB, the segment freed.
        fn tenant(m: &mut LinearMemory) {
            let (base, len) = (4 * PAGE_SIZE, 32 * PAGE_SIZE);
            let p = m.segment_new(base, len).unwrap();
            for at in (0..len).step_by(TAG_BLOCK as usize) {
                assert_eq!(m.read_scalar(p, at, 8), Ok(0), "a zeroed segment");
                m.write_scalar(p, at, 8, at ^ 0x5A5A).unwrap();
            }
            m.segment_free(p, len).unwrap();
        }
        for scheme in schemes() {
            let total = PAGES * PAGE_SIZE + RUNTIME_SLACK;
            let new = || LinearMemory::new(PAGES, None, true, scheme, 3);
            let state = |m: &LinearMemory| {
                let counts = (m.dirty_line_count(), m.retagged_block_count());
                let image = (m.read_resolved(0, total), m.tags().packed().to_vec());
                (image, counts, m.committed_bytes())
            };
            let mut m = new();
            tenant(&mut m);
            let retagged = if m.segments_live() { 512 } else { 0 };
            assert_eq!(state(&m).1, (512, retagged), "{scheme:?}");
            m.reset();
            let (image, counts, committed) = state(&m);
            let fresh = new();
            assert!(image == state(&fresh).0, "{scheme:?}: bytes and tags");
            assert_eq!(counts, (0, 0), "{scheme:?}");
            // The tenant's prefix survives; a fresh memory that serves the
            // same request commits the same one and ends in the same state.
            assert_eq!(committed, 36 * PAGE_SIZE, "{scheme:?}");
            let mut fresh = fresh;
            tenant(&mut m);
            tenant(&mut fresh);
            assert!(state(&m) == state(&fresh), "{scheme:?}: the next tenant");
        }
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
        assert_eq!((m.dirty_line_count(), m.retagged_block_count()), (0, 0));
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

    /// Every scheme a spare can come from or go to: both ends of a
    /// sandbox-tag change, and the two that pre-tag nothing.
    fn spare_schemes() -> [TagScheme; 5] {
        let external = |t| TagScheme::ExternalOnly {
            instance_tag: Tag::new(t).unwrap(),
        };
        [
            TagScheme::None,
            TagScheme::InternalOnly,
            external(3),
            external(5),
            TagScheme::Combined,
        ]
    }

    /// A tenant that leaves everything a spare must not carry: bytes in
    /// guest memory, across two lines at a bitmap word's edge, over
    /// several blocks and in the slack, a segment's tags above the
    /// committed prefix, tag checks, a page cap.
    fn a_dirty_tenant(scheme: TagScheme) -> LinearMemory {
        let mut m = mem4(scheme);
        m.set_page_limit(Some(6));
        m.write(8, 0, &[0xAB; 24]).unwrap();
        m.write_scalar(64 * DIRTY_LINE - 4, 0, 8, u64::MAX).unwrap();
        m.fill(5 * TAG_BLOCK, 0xCD, 3 * TAG_BLOCK).unwrap();
        m.segment_new(3 * PAGE_SIZE + 64, 64).unwrap();
        m.raw_write_unchecked(4 * PAGE_SIZE + 32, &[0xEE; 8])
            .unwrap_or_else(|trap| assert!(m.tag_checked(), "{scheme:?}: {trap}"));
        assert_eq!(m.read_scalar(16, 0, 8), Ok(0xABAB_ABAB_ABAB_ABAB));
        assert!(m.dirty_line_count() > 0 && m.committed_bytes() > 0);
        assert_eq!(m.retagged_block_count() > 0, m.segments_live());
        m
    }

    #[test]
    fn a_memory_built_from_a_spare_equals_one_built_from_nothing() {
        let total = 4 * PAGE_SIZE + RUNTIME_SLACK;
        for given in spare_schemes() {
            for taken in spare_schemes() {
                let pair = format!("{given:?} -> {taken:?}");
                free_spares();
                let tenant = a_dirty_tenant(given);
                let zeroed = tenant.data.len();
                drop(tenant);
                assert_eq!(spares_held().0, 1, "{pair}: the tenant's buffers are kept");
                let mut recycled = mem4(taken);
                assert_eq!(spares_held().0, 0, "{pair}: and taken");
                assert_eq!(recycled.data.len(), zeroed, "{pair}: zeroed length");
                let mut fresh = mem4(taken);
                assert_eq!(fresh.data.len(), 0, "{pair}: built from nothing");

                assert!(recycled.read_resolved(0, total) == fresh.read_resolved(0, total));
                assert!(recycled.tags().packed() == fresh.tags().packed(), "{pair}");
                for m in [&recycled, &fresh] {
                    assert_eq!(m.dirty_line_count(), 0, "{pair}");
                    assert_eq!(m.retagged_block_count(), 0, "{pair}");
                    assert_eq!(m.tags().check_count(), 0, "{pair}");
                    assert_eq!(m.committed_bytes(), 0, "{pair}");
                    assert_eq!(m.scalar_bound(), 0, "{pair}");
                    assert_eq!(m.page_limit(), None, "{pair}");
                }
                // The same segment tag for the same seed, and the same
                // first touches: a page commits at its first access, not
                // before, though its bytes were zeroed already.
                let seg = recycled.segment_new(PAGE_SIZE, 32);
                assert_eq!(seg, fresh.segment_new(PAGE_SIZE, 32), "{pair}");
                let p = seg.unwrap();
                assert_eq!(recycled.read(p, 0, 16), fresh.read(p, 0, 16), "{pair}");
                assert_eq!(
                    recycled.write_scalar(100, 0, 8, 7),
                    fresh.write_scalar(100, 0, 8, 7)
                );
                let escape = recycled.write(4 * PAGE_SIZE, 0, &[1]);
                assert_eq!(escape, fresh.write(4 * PAGE_SIZE, 0, &[1]), "{pair}");
                for m in [&recycled, &fresh] {
                    assert_eq!(m.committed_bytes(), 2 * PAGE_SIZE, "{pair}");
                    assert_eq!(m.scalar_bound(), 2 * PAGE_SIZE, "{pair}");
                }
                assert_eq!(recycled.tags().check_count(), fresh.tags().check_count());
                assert_eq!(recycled.dirty_line_count(), fresh.dirty_line_count());
                assert_eq!(
                    recycled.retagged_block_count(),
                    fresh.retagged_block_count()
                );
                assert!(recycled.read_resolved(0, total) == fresh.read_resolved(0, total));
                assert!(recycled.tags().packed() == fresh.tags().packed(), "{pair}");
            }
        }
    }

    #[test]
    fn a_grown_memory_is_freed_not_kept() {
        free_spares();
        for reset in [false, true] {
            let mut m = a_dirty_tenant(TagScheme::Combined);
            assert_eq!(m.grow(1), Some(4));
            if reset {
                // Back to its base size, but its buffers are a grown
                // memory's.
                m.reset();
            }
            drop(m);
            assert_eq!(spares_held(), (0, 0), "reset {reset}");
        }
        drop(a_dirty_tenant(TagScheme::Combined));
        assert_eq!(spares_held().0, 1, "one that never grew is kept");
    }

    #[test]
    fn a_thread_that_drops_ten_thousand_memories_holds_no_more_than_the_bounds() {
        free_spares();
        let over_budget = KEPT_SPARE_BYTES / PAGE_SIZE;
        drop(LinearMemory::new(
            over_budget,
            None,
            true,
            TagScheme::None,
            0,
        ));
        assert_eq!(spares_held(), (0, 0), "a memory past the budget alone");
        let mut most = 0;
        for i in 0..10_000u64 {
            // Forty sizes, more than a thread keeps, so most memories find
            // no spare of their size and the list stays full.
            let mut m = LinearMemory::new(1 + i % 40, None, true, TagScheme::InternalOnly, i);
            m.write(i % PAGE_SIZE, 0, &[1]).unwrap();
            drop(m);
            let (count, bytes) = spares_held();
            assert!(count <= KEPT_SPARES && bytes <= KEPT_SPARE_BYTES, "{i}");
            most = most.max(count);
        }
        assert_eq!(most, KEPT_SPARES, "the list fills");
        // Memories of 4 MiB: the byte budget binds before the count.
        free_spares();
        let big: Vec<_> = (0..KEPT_SPARES)
            .map(|_| LinearMemory::new(64, None, true, TagScheme::None, 0))
            .collect();
        drop(big);
        let (count, bytes) = spares_held();
        assert_eq!(count, 15, "{bytes}");
        assert!(bytes <= KEPT_SPARE_BYTES);
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
