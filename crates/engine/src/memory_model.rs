//! Eager reference model of [`LinearMemory`], and the property test that
//! holds the lazily committed store to it.
//!
//! The model is the memory as it was before the committed prefix: a plain
//! `vec![0; total]` allocated and zeroed up front, a reset that rebuilds
//! everything, a `segment.new` that zeroes its whole range, and two *sets*
//! of dirty units: the 64-byte lines data writes covered and the 4 KiB
//! blocks segment ops retagged. It shares the tag store and the tag pool
//! with the real thing (they have a model of their own in `cage-mte`) and
//! nothing else, so that "which bytes are backed" and "which lines
//! `segment.new` may skip" cannot leak into any value, trap, dirty count
//! or byte a guest or an embedder can observe. After every step the real
//! memory's records must hold exactly the model's units, and every byte
//! outside a dirty line must be zero: the invariant the real `segment.new`
//! skips clean lines on.
//! The model never recycles: a retired tenant's real memory is dropped
//! before the next is built, so the next is built from its buffers (and
//! a run's first memory from the previous run's), and the model holds
//! them to a memory built from nothing.

use cage_mte::pointer::ADDR_MASK;
use cage_mte::{AccessKind, Tag, TagMemory, TagPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::memory::{LinearMemory, TagScheme, DIRTY_LINE, PAGE_SIZE, RUNTIME_SLACK, TAG_BLOCK};
use crate::trap::{SegmentFaultReason, Trap};

/// A set of unit indices as a dense vector of flags: the model's plain
/// counterpart of the real memory's bitmap and worklist.
#[derive(Default)]
struct Units(Vec<bool>);

impl Units {
    fn mark(&mut self, first: u64, last: u64) {
        let (first, last) = (first as usize, last as usize);
        if self.0.len() <= last {
            self.0.resize(last + 1, false);
        }
        self.0[first..=last].fill(true);
    }

    fn contains(&self, unit: u64) -> bool {
        self.0.get(unit as usize).copied().unwrap_or(false)
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..)
            .zip(&self.0)
            .filter(|(_, &b)| b)
            .map(|(unit, _)| unit)
    }
}

struct Eager {
    data: Vec<u8>,
    guest_size: u64,
    max_pages: Option<u64>,
    memory64: bool,
    tags: TagMemory,
    scheme: TagScheme,
    pool: TagPool,
    base_pages: u64,
    seed: u64,
    dirty_lines: Units,
    retagged_blocks: Units,
}

impl Eager {
    fn new(
        pages: u64,
        max_pages: Option<u64>,
        memory64: bool,
        scheme: TagScheme,
        seed: u64,
    ) -> Self {
        let guest_size = pages * PAGE_SIZE;
        let total = guest_size + RUNTIME_SLACK;
        let mut tags = TagMemory::new(total);
        tags.set_tag_range(0, guest_size, scheme.initial_tag())
            .unwrap();
        Eager {
            data: vec![0; total as usize],
            guest_size,
            max_pages,
            memory64,
            tags,
            scheme,
            pool: TagPool::new(scheme.segment_exclusion(), seed).unwrap(),
            base_pages: pages,
            seed,
            dirty_lines: Units::default(),
            retagged_blocks: Units::default(),
        }
    }

    /// Everything back to `new`, except that the tag store is retagged
    /// rather than replaced: its check counter is a statistic that
    /// outlives a reset.
    fn reset(&mut self) {
        self.guest_size = self.base_pages * PAGE_SIZE;
        let total = self.guest_size + RUNTIME_SLACK;
        self.data = vec![0; total as usize];
        self.tags.shrink(total);
        self.tags
            .set_tag_range(0, self.guest_size, self.scheme.initial_tag())
            .unwrap();
        self.tags
            .set_tag_range(self.guest_size, RUNTIME_SLACK, Tag::ZERO)
            .unwrap();
        self.pool = TagPool::new(self.scheme.segment_exclusion(), self.seed).unwrap();
        self.dirty_lines = Units::default();
        self.retagged_blocks = Units::default();
    }

    /// The model's own reading of the scheme — spelled out here rather
    /// than asked of [`LinearMemory`], so that the real memory's mapping
    /// has something independent to be held to.
    fn sandboxed(&self) -> bool {
        match self.scheme {
            TagScheme::None | TagScheme::InternalOnly => false,
            TagScheme::ExternalOnly { .. } | TagScheme::Combined => true,
        }
    }

    fn segments_live(&self) -> bool {
        match self.scheme {
            TagScheme::None | TagScheme::ExternalOnly { .. } => false,
            TagScheme::InternalOnly | TagScheme::Combined => true,
        }
    }

    fn mark_written(&mut self, addr: u64, len: u64) {
        if len > 0 {
            self.dirty_lines
                .mark(addr / DIRTY_LINE, (addr + len - 1) / DIRTY_LINE);
        }
    }

    fn mark_retagged(&mut self, addr: u64, len: u64) {
        if len > 0 {
            self.retagged_blocks
                .mark(addr / TAG_BLOCK, (addr + len - 1) / TAG_BLOCK);
        }
    }

    fn grow(&mut self, delta: u64) -> Option<u64> {
        let old_pages = self.guest_size / PAGE_SIZE;
        let new_pages = old_pages.checked_add(delta)?;
        if self.max_pages.is_some_and(|max| new_pages > max) {
            return None;
        }
        if !self.memory64 && new_pages > 65_536 {
            return None;
        }
        let new_size = new_pages.checked_mul(PAGE_SIZE)?;
        let total = new_size.checked_add(RUNTIME_SLACK)?;
        if delta == 0 {
            return Some(old_pages);
        }
        // The old slack becomes guest memory, zeroed.
        self.data.truncate(self.guest_size as usize);
        self.data.resize(total as usize, 0);
        self.tags.try_grow(total).unwrap();
        self.tags
            .set_tag_range(
                self.guest_size,
                new_size - self.guest_size,
                self.scheme.initial_tag(),
            )
            .unwrap();
        self.guest_size = new_size;
        Some(old_pages)
    }

    fn resolve(
        &mut self,
        index: u64,
        offset: u64,
        width: u64,
        kind: AccessKind,
    ) -> Result<u64, Trap> {
        let base = if self.memory64 {
            index & ADDR_MASK
        } else {
            index
        };
        let addr = base.checked_add(offset).ok_or(Trap::OutOfBounds {
            addr: u64::MAX,
            len: width,
        })?;
        let oob = Trap::OutOfBounds { addr, len: width };
        let end = addr.checked_add(width);
        let mte_sandbox = self.sandboxed();
        if (!mte_sandbox || width == 0) && end.is_none_or(|end| end > self.guest_size) {
            return Err(oob);
        }
        if (mte_sandbox || self.segments_live()) && width > 0 {
            self.tags
                .check_access(addr, width, self.scheme.ptr_tag(index), kind)?;
        }
        if end.is_none_or(|end| end > self.data.len() as u64) {
            return Err(oob);
        }
        Ok(addr)
    }

    fn read(&mut self, index: u64, width: u64) -> Result<Vec<u8>, Trap> {
        let addr = self.resolve(index, 0, width, AccessKind::Read)? as usize;
        Ok(self.data[addr..addr + width as usize].to_vec())
    }

    fn write(&mut self, index: u64, bytes: &[u8]) -> Result<(), Trap> {
        let addr = self.resolve(index, 0, bytes.len() as u64, AccessKind::Write)?;
        self.mark_written(addr, bytes.len() as u64);
        self.data[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn read_scalar(&mut self, index: u64, offset: u64, width: u64) -> Result<u64, Trap> {
        let addr = self.resolve(index, offset, width, AccessKind::Read)? as usize;
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&self.data[addr..addr + width as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    fn write_scalar(&mut self, index: u64, offset: u64, width: u64, raw: u64) -> Result<(), Trap> {
        let addr = self.resolve(index, offset, width, AccessKind::Write)?;
        self.mark_written(addr, width);
        self.data[addr as usize..(addr + width) as usize]
            .copy_from_slice(&raw.to_le_bytes()[..width as usize]);
        Ok(())
    }

    fn fill(&mut self, dst: u64, val: u8, len: u64) -> Result<(), Trap> {
        let addr = self.resolve(dst, 0, len, AccessKind::Write)?;
        self.mark_written(addr, len);
        self.data[addr as usize..(addr + len) as usize].fill(val);
        Ok(())
    }

    fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        let s = self.resolve(src, 0, len, AccessKind::Read)? as usize;
        let d = self.resolve(dst, 0, len, AccessKind::Write)?;
        self.mark_written(d, len);
        let moved = self.data[s..s + len as usize].to_vec();
        self.data[d as usize..(d + len) as usize].copy_from_slice(&moved);
        Ok(())
    }

    fn raw_write_unchecked(&mut self, index: u64, bytes: &[u8]) -> Result<(), Trap> {
        let addr = index & ADDR_MASK;
        let width = bytes.len() as u64;
        if self.sandboxed() || self.segments_live() {
            self.tags.check_access(
                addr,
                width.max(1),
                self.scheme.ptr_tag(index),
                AccessKind::Write,
            )?;
        }
        if addr + width > self.data.len() as u64 {
            return Err(Trap::OutOfBounds { addr, len: width });
        }
        self.mark_written(addr, width);
        self.data[addr as usize..(addr + width) as usize].copy_from_slice(bytes);
        Ok(())
    }

    fn segment_range_check(&self, addr: u64, len: u64) -> Result<(), Trap> {
        let fault = |reason| Err(Trap::SegmentFault { addr, reason });
        if !addr.is_multiple_of(16) || !len.is_multiple_of(16) {
            return fault(SegmentFaultReason::Unaligned);
        }
        if addr
            .checked_add(len)
            .is_none_or(|end| end > self.guest_size)
        {
            return fault(SegmentFaultReason::OutOfBounds);
        }
        Ok(())
    }

    fn segment_new(&mut self, ptr: u64, len: u64) -> Result<u64, Trap> {
        if !self.segments_live() {
            return Ok(ptr);
        }
        let addr = ptr & ADDR_MASK;
        self.segment_range_check(addr, len)?;
        self.mark_retagged(addr, len);
        let mem_tag = self.pool.random_tag();
        self.tags.set_tag_range(addr, len, mem_tag).unwrap();
        self.data[addr as usize..(addr + len) as usize].fill(0);
        let nibble = self.scheme.pointer_nibble(mem_tag);
        Ok((ptr & !(0xF << 56)) | (u64::from(nibble) << 56))
    }

    fn segment_set_tag(&mut self, ptr: u64, tagged_ptr: u64, len: u64) -> Result<(), Trap> {
        if !self.segments_live() {
            return Ok(());
        }
        let addr = ptr & ADDR_MASK;
        self.segment_range_check(addr, len)?;
        self.mark_retagged(addr, len);
        let tag = self.scheme.ptr_tag(tagged_ptr);
        self.tags.set_tag_range(addr, len, tag).unwrap();
        Ok(())
    }

    fn segment_free(&mut self, ptr: u64, len: u64) -> Result<(), Trap> {
        if !self.segments_live() {
            return Ok(());
        }
        let addr = ptr & ADDR_MASK;
        self.segment_range_check(addr, len)?;
        let ptr_tag = self.scheme.ptr_tag(ptr);
        if self.tags.range_tag(addr, len) != Some(ptr_tag) {
            return Err(Trap::SegmentFault {
                addr,
                reason: SegmentFaultReason::BadFree,
            });
        }
        self.mark_retagged(addr, len);
        let free_tag = self.pool.random_tag_excluding(ptr_tag);
        self.tags.set_tag_range(addr, len, free_tag).unwrap();
        Ok(())
    }

    fn runtime_byte(&self, offset_past_guest: u64) -> Option<u8> {
        self.data
            .get(self.guest_size.checked_add(offset_past_guest)? as usize)
            .copied()
    }
}

fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn random_bytes(rng: &mut StdRng, len: u64) -> Vec<u8> {
    let mut bytes: Vec<u8> = (0..len.div_ceil(8))
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect();
    bytes.truncate(len as usize);
    bytes
}

fn jitter(rng: &mut StdRng, around: u64, spread: u64) -> u64 {
    (around + below(rng, 2 * spread + 1)).saturating_sub(spread)
}

/// An address near something that matters: a page edge, a tag block's
/// edge (a line bitmap word's edge too), a tag bitmap word's edge, a
/// line's edge, the committed frontier, the end of
/// guest memory, the slack, the end of the slack — or anywhere, or nowhere
/// near the memory at all.
fn pick_addr(rng: &mut StdRng, real: &LinearMemory) -> u64 {
    let guest = real.size();
    match below(rng, 15) {
        0 => below(rng, 256),
        1 | 2 => {
            let edge = (1 + below(rng, guest / PAGE_SIZE)) * PAGE_SIZE;
            jitter(rng, edge, 20)
        }
        12 => {
            let edge = (1 + below(rng, guest / TAG_BLOCK)) * TAG_BLOCK;
            jitter(rng, edge, 20)
        }
        13 => jitter(rng, 64 * TAG_BLOCK, 20),
        14 => {
            let edge = (1 + below(rng, guest / DIRTY_LINE)) * DIRTY_LINE;
            jitter(rng, edge, 8)
        }
        3..=5 => jitter(rng, real.committed_bytes(), 20),
        6 | 7 => jitter(rng, guest, 20),
        8 => guest + below(rng, RUNTIME_SLACK),
        9 => jitter(rng, guest + RUNTIME_SLACK, 20),
        10 => below(rng, guest + RUNTIME_SLACK),
        _ => [1 << 32, 1 << 40, ADDR_MASK - 3, u64::MAX - 7][below(rng, 4) as usize],
    }
}

/// A bulk length: zero, up to a line, around a page, around a tag block
/// (a line bitmap word's span), around a tag bitmap word's span, several
/// pages, or large enough to wrap the address space.
fn pick_len(rng: &mut StdRng) -> u64 {
    match below(rng, 10) {
        0 | 1 => 0,
        2 | 3 => 1 + below(rng, 64),
        4 => jitter(rng, PAGE_SIZE, 40),
        5 => below(rng, 3 * PAGE_SIZE),
        6 => jitter(rng, RUNTIME_SLACK, 20),
        7 => jitter(rng, TAG_BLOCK, 40),
        8 => jitter(rng, 64 * TAG_BLOCK, 40),
        _ => u64::MAX - below(rng, 64),
    }
}

/// The observables that must match after every step, and the invariants
/// of the committed prefix itself.
fn assert_same_state(real: &LinearMemory, model: &Eager, what: &str) {
    let total = model.data.len() as u64;
    assert_eq!(real.size(), model.guest_size, "{what}: guest size");
    assert_eq!(
        (real.dirty_line_count(), real.retagged_block_count()),
        (
            model.dirty_lines.iter().count(),
            model.retagged_blocks.iter().count()
        ),
        "{what}: dirty lines, retagged blocks"
    );
    let [lines, blocks] = real.dirty_units();
    assert!(
        lines.into_iter().eq(model.dirty_lines.iter())
            && blocks.into_iter().eq(model.retagged_blocks.iter()),
        "{what}: dirty units"
    );
    let image = real.read_resolved(0, total);
    if image != model.data {
        let at = (0..image.len()).find(|&i| image[i] != model.data[i]);
        panic!("{what}: logical image diverged at {at:#x?}");
    }
    // The zero invariant: what `segment.new` and a reset skip is zero.
    let stray = image
        .chunks(DIRTY_LINE as usize)
        .zip(0u64..)
        .find(|(line, at)| {
            line.iter().fold(0, |or, &b| or | b) != 0 && !model.dirty_lines.contains(*at)
        });
    assert!(
        stray.is_none(),
        "{what}: clean line {:?} holds data",
        stray.map(|s| s.1)
    );
    assert!(
        real.tags().packed() == model.tags.packed(),
        "{what}: tag store diverged"
    );
    assert_eq!(
        real.tags().check_count(),
        model.tags.check_count(),
        "{what}: tag checks"
    );
    let committed = real.committed_bytes();
    assert!(
        committed == total || (committed < total && committed.is_multiple_of(PAGE_SIZE)),
        "{what}: committed prefix {committed:#x} is neither page-rounded nor all of {total:#x}"
    );
    // The scalar fast path is taken only under the bound, which is the
    // guest size capped by the prefix under every scheme: a tagged memory
    // compares the granule tags on top of it, so the tag check count
    // above is what holds that compare to `resolve`.
    assert_eq!(
        real.scalar_bound(),
        committed.min(model.guest_size),
        "{what}: scalar bound"
    );
}

/// One seeded run: a stream of random steps against both memories,
/// comparing every returned value and the whole state after each.
fn run_against_model(seed: u64, mut scheme: TagScheme) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pages = 1 + below(&mut rng, 2);
    // Room to grow past 64 blocks, so a bitmap word's edge lies inside
    // guest memory.
    let max_pages = Some(pages + 3);
    let memory64 = scheme != TagScheme::None || below(&mut rng, 4) != 0;
    let tag_seed = rng.next_u64();
    let mut real = LinearMemory::new(pages, max_pages, memory64, scheme, tag_seed);
    let mut model = Eager::new(pages, max_pages, memory64, scheme, tag_seed);
    assert_eq!(real.committed_bytes(), 0, "creation commits nothing");

    // Tagged pointers to live segments, so most accesses under a tag
    // scheme go through a pointer that is allowed to make them.
    let mut segments: Vec<(u64, u64)> = Vec::new();

    for step in 0..160 {
        let what = format!("seed {seed} {scheme:?} step {step}");
        let mut index = pick_addr(&mut rng, &real);
        if let Some(&(ptr, len)) = segments.last() {
            if below(&mut rng, 3) == 0 {
                index = ptr + below(&mut rng, len + 24);
            }
        }
        if memory64 && below(&mut rng, 8) == 0 {
            index |= below(&mut rng, 16) << 56;
        }
        if !memory64 {
            index &= u64::from(u32::MAX);
        }
        let op = below(&mut rng, 23);
        match op {
            0..=2 => {
                let (width, offset) = (1 << below(&mut rng, 4), below(&mut rng, 3) * 7);
                let got = real.read_scalar(index, offset, width);
                let want = model.read_scalar(index, offset, width);
                assert_eq!(got, want, "{what}: load{width}({index:#x}+{offset})");
            }
            3..=5 => {
                let (width, offset) = (1 << below(&mut rng, 4), below(&mut rng, 3) * 7);
                let raw = rng.next_u64();
                let got = real.write_scalar(index, offset, width, raw);
                let want = model.write_scalar(index, offset, width, raw);
                assert_eq!(got, want, "{what}: store{width}({index:#x}+{offset})");
            }
            6 => {
                let len = pick_len(&mut rng);
                assert_eq!(
                    real.read(index, 0, len),
                    model.read(index, len),
                    "{what}: read({index:#x}, {len:#x})"
                );
            }
            7 => {
                let len = pick_len(&mut rng).min(2 * PAGE_SIZE);
                let bytes = random_bytes(&mut rng, len);
                assert_eq!(
                    real.write(index, 0, &bytes),
                    model.write(index, &bytes),
                    "{what}: write({index:#x}, {:#x})",
                    bytes.len()
                );
            }
            8 | 9 => {
                let (val, len) = (rng.gen(), pick_len(&mut rng));
                assert_eq!(
                    real.fill(index, val, len),
                    model.fill(index, val, len),
                    "{what}: fill({index:#x}, {len:#x})"
                );
            }
            10 | 11 => {
                // Often overlapping: the source a few bytes either side.
                let src = if below(&mut rng, 2) == 0 {
                    jitter(&mut rng, index & ADDR_MASK, 48) | (index & !ADDR_MASK)
                } else {
                    pick_addr(&mut rng, &real)
                };
                let len = pick_len(&mut rng);
                assert_eq!(
                    real.copy(index, src, len),
                    model.copy(index, src, len),
                    "{what}: copy({index:#x}, {src:#x}, {len:#x})"
                );
            }
            12 | 13 => {
                let (mut ptr, mut len) = (index & !0xF, pick_len(&mut rng) & !0xF);
                // Often over bytes just written, as a `malloc` that reuses
                // a freed block: the dirty lines `segment.new` must clear.
                if below(&mut rng, 3) == 0 {
                    let bytes = random_bytes(&mut rng, len.min(2 * PAGE_SIZE));
                    assert_eq!(
                        real.write(index, 0, &bytes),
                        model.write(index, &bytes),
                        "{what}: write({index:#x}, {:#x}) before segment_new",
                        bytes.len()
                    );
                }
                match below(&mut rng, 8) {
                    0 => ptr += 8,
                    1 => len += 4,
                    _ => {}
                }
                let got = real.segment_new(ptr, len);
                assert_eq!(
                    got,
                    model.segment_new(ptr, len),
                    "{what}: segment_new({ptr:#x}, {len:#x})"
                );
                // (Without internal safety the op is inert and accepts
                // any range.)
                if let (Ok(tagged), true) = (got, len > 0 && model.segments_live()) {
                    segments.push((tagged, len));
                }
            }
            14 => {
                let (ptr, len) = (index & !0xF, pick_len(&mut rng) & !0xF);
                let tagged = segments.last().map_or(index, |s| s.0);
                assert_eq!(
                    real.segment_set_tag(ptr, tagged, len),
                    model.segment_set_tag(ptr, tagged, len),
                    "{what}: segment_set_tag({ptr:#x}, {tagged:#x}, {len:#x})"
                );
            }
            15 => {
                // A live segment (sometimes twice: a double free), or
                // whatever the address picker produced.
                let (ptr, len) = match segments.len() {
                    0 => (index & !0xF, 32),
                    n => {
                        let at = below(&mut rng, n as u64) as usize;
                        if below(&mut rng, 4) == 0 {
                            segments[at]
                        } else {
                            segments.swap_remove(at)
                        }
                    }
                };
                assert_eq!(
                    real.segment_free(ptr, len),
                    model.segment_free(ptr, len),
                    "{what}: segment_free({ptr:#x}, {len:#x})"
                );
            }
            16 => {
                let len = 1 + below(&mut rng, 40);
                let bytes = random_bytes(&mut rng, len);
                assert_eq!(
                    real.raw_write_unchecked(index, &bytes),
                    model.raw_write_unchecked(index, &bytes),
                    "{what}: raw_write_unchecked({index:#x}, {})",
                    bytes.len()
                );
            }
            17 => {
                let delta = [0, 1, 1, 2, 3, u64::MAX / PAGE_SIZE][below(&mut rng, 6) as usize];
                assert_eq!(real.grow(delta), model.grow(delta), "{what}: grow({delta})");
            }
            // The tenant dies between two accesses (see the recycle below).
            18 => {}
            // A committed page reached through a stale tag: an access
            // through a live segment commits its page, the segment is
            // freed, and the old pointer loads and stores again.
            20 => {
                let (ptr, len) = segments.pop().unwrap_or((index, 16));
                let width = 1 << below(&mut rng, 4);
                let at = below(&mut rng, len - width + 1);
                let raw = rng.next_u64();
                let access = format!("{what}: stale {width}-byte access at {ptr:#x}+{at}");
                assert_eq!(
                    real.write_scalar(ptr, at, width, raw),
                    model.write_scalar(ptr, at, width, raw),
                    "{access}: before the free"
                );
                assert_eq!(
                    real.segment_free(ptr & !0xF, len),
                    model.segment_free(ptr & !0xF, len),
                    "{access}: the free"
                );
                assert_eq!(
                    real.read_scalar(ptr, at, width),
                    model.read_scalar(ptr, at, width),
                    "{access}: load"
                );
                assert_eq!(
                    real.write_scalar(ptr, at, width, !raw),
                    model.write_scalar(ptr, at, width, !raw),
                    "{access}: store"
                );
            }
            // A scalar straddling a segment's edge, on a committed page:
            // its first granule inside and its last outside, or the other
            // way round.
            21 => {
                let (ptr, len) = segments.last().copied().unwrap_or((index & !0xF, 16));
                let width = [2, 4, 8][below(&mut rng, 3) as usize];
                let half = width / 2;
                assert_eq!(
                    real.write_scalar(ptr, 0, 1, 0x5A),
                    model.write_scalar(ptr, 0, 1, 0x5A),
                    "{what}: touch {ptr:#x}"
                );
                let (at, offset) = if rng.gen() || ptr & ADDR_MASK < half {
                    (ptr, len - half)
                } else {
                    (ptr - half, 0)
                };
                let access = format!("{what}: {width}-byte straddle at {at:#x}+{offset}");
                assert_eq!(
                    real.read_scalar(at, offset, width),
                    model.read_scalar(at, offset, width),
                    "{access}: load"
                );
                let raw = rng.next_u64();
                assert_eq!(
                    real.write_scalar(at, offset, width, raw),
                    model.write_scalar(at, offset, width, raw),
                    "{access}: store"
                );
            }
            // The tenant is retired with its memory — dropped first, so
            // the slot's next memory is built from its buffers unless it
            // grew — and that memory is built under a tag another tenant
            // handed back (a sandbox tag other than this one's). Its old
            // pointers stay in play.
            22 => {
                if let TagScheme::ExternalOnly { instance_tag } = scheme {
                    let other = 1 + (instance_tag.value() + below(&mut rng, 14) as u8) % 15;
                    scheme = TagScheme::ExternalOnly {
                        instance_tag: Tag::from_low_bits(other),
                    };
                }
                drop(real);
                real = LinearMemory::new(pages, max_pages, memory64, scheme, tag_seed);
                model = Eager::new(pages, max_pages, memory64, scheme, tag_seed);
                assert_eq!(
                    real.committed_bytes(),
                    0,
                    "{what}: rebuilding commits nothing"
                );
            }
            // The `&self` readers, anywhere inside guest memory plus
            // slack: committed or not, they see the logical image.
            _ => {
                let total = model.data.len() as u64;
                let addr = pick_addr(&mut rng, &real) % total;
                let width = (1 << below(&mut rng, 4)).min(total - addr);
                let mut want = [0u8; 8];
                want[..width as usize]
                    .copy_from_slice(&model.data[addr as usize..(addr + width) as usize]);
                assert_eq!(
                    real.read_le(addr, width),
                    u64::from_le_bytes(want),
                    "{what}: read_le({addr:#x}, {width})"
                );
                let len = pick_len(&mut rng).min(total - addr);
                assert!(
                    real.read_resolved(addr, len)
                        == model.data[addr as usize..(addr + len) as usize],
                    "{what}: read_resolved({addr:#x}, {len:#x})"
                );
                let past = below(&mut rng, RUNTIME_SLACK + 16);
                assert_eq!(
                    real.runtime_byte(past),
                    model.runtime_byte(past),
                    "{what}: runtime_byte({past})"
                );
            }
        }
        assert_same_state(&real, &model, &what);
        // The tenant dies and the slot is recycled — sometimes right after
        // a segment op, when a page can be on the dirty list for its tags
        // alone, past the committed prefix.
        let recycle = match op {
            12..=15 => below(&mut rng, 6) == 0,
            18 => true,
            _ => false,
        };
        if recycle {
            real.reset();
            model.reset();
            segments.clear();
            assert_same_state(&real, &model, &format!("{what}, then reset"));
        }
    }
}

fn schemes() -> [TagScheme; 4] {
    [
        TagScheme::None,
        TagScheme::InternalOnly,
        TagScheme::ExternalOnly {
            instance_tag: Tag::from_low_bits(5),
        },
        TagScheme::Combined,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn lazy_memory_matches_the_eager_model(seed: u64) {
        for scheme in schemes() {
            run_against_model(seed, scheme);
        }
    }
}

/// The shapes the issue names, by hand rather than by luck: a grown
/// memory shrinks back in place on reset, keeping what it had committed
/// of the base size and nothing above it.
#[test]
fn grown_reset_shrinks_in_place_and_matches_the_model() {
    for scheme in schemes() {
        let mut real = LinearMemory::new(2, Some(8), true, scheme, 7);
        let mut model = Eager::new(2, Some(8), true, scheme, 7);
        for delta in [1, 0, 3] {
            assert_eq!(real.grow(delta), model.grow(delta));
        }
        // Page 0, the old slack (now guest memory), and the top page.
        for addr in [8, 2 * PAGE_SIZE + 100, 6 * PAGE_SIZE - 8] {
            real.write_scalar(addr, 0, 8, 0xABCD).unwrap();
            model.write_scalar(addr, 0, 8, 0xABCD).unwrap();
        }
        let seg = real.segment_new(3 * PAGE_SIZE - 32, 64);
        assert_eq!(seg, model.segment_new(3 * PAGE_SIZE - 32, 64));
        assert_same_state(&real, &model, "grown and written");
        assert_eq!(real.committed_bytes(), 6 * PAGE_SIZE);

        real.reset();
        model.reset();
        assert_same_state(&real, &model, "reset after grow");
        assert_eq!(real.size_pages(), 2);
        assert_eq!(real.committed_bytes(), 2 * PAGE_SIZE + RUNTIME_SLACK);
        assert_eq!(real.tags().size(), 2 * PAGE_SIZE + RUNTIME_SLACK);
        // What was guest memory while grown is out of reach again: the
        // scalar accessors must not admit it on a bound left over from
        // the grown size.
        let past = 2 * PAGE_SIZE + 100;
        let load = real.read_scalar(past, 0, 8);
        assert!(load.is_err(), "{scheme:?}: load past the shrunk size");
        assert_eq!(load, model.read_scalar(past, 0, 8), "{scheme:?}");
        let store = real.write_scalar(past, 0, 8, 0xEF);
        assert!(store.is_err(), "{scheme:?}: store past the shrunk size");
        assert_eq!(store, model.write_scalar(past, 0, 8, 0xEF), "{scheme:?}");
        assert_same_state(&real, &model, "accessed past the shrunk size");
        // And it grows again, with fresh pages.
        assert_eq!(real.grow(1), model.grow(1));
        assert_eq!(
            real.read_scalar(2 * PAGE_SIZE + 100, 0, 8),
            Ok(0),
            "{scheme:?}"
        );
        let _ = model.read_scalar(2 * PAGE_SIZE + 100, 0, 8);
        assert_same_state(&real, &model, "regrown");
    }
}
