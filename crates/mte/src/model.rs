//! Per-granule reference model of [`TagMemory`], and the property test
//! that holds the word-wide kernels to it.
//!
//! The model is the store as it was before the kernels: one `Tag` per
//! granule, every operation a loop over granules. It exists only so the
//! fill and compare kernels in `memory.rs` have something obviously
//! correct to be compared against.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{AccessKind, TagCheckFault};
use crate::memory::{MteMode, TagMemory};
use crate::tag::{Tag, TagError, GRANULE_SIZE};

const GRANULE: u64 = GRANULE_SIZE as u64;

struct Model {
    granules: Vec<Tag>,
    size: u64,
    mode: MteMode,
    pending_async: Option<TagCheckFault>,
    checks: u64,
}

impl Model {
    fn new(size: u64, mode: MteMode) -> Self {
        Model {
            granules: vec![Tag::ZERO; size.div_ceil(GRANULE) as usize],
            size,
            mode,
            pending_async: None,
            checks: 0,
        }
    }

    /// New granules are zero; a shrink forgets the ones above `size`.
    fn resize(&mut self, size: u64) {
        self.granules
            .resize(size.div_ceil(GRANULE) as usize, Tag::ZERO);
        self.size = size;
    }

    fn tag_at(&self, addr: u64) -> Option<Tag> {
        (addr < self.size).then(|| self.granules[(addr / GRANULE) as usize])
    }

    fn set_tag_range(&mut self, addr: u64, len: u64, tag: Tag) -> Result<(), TagError> {
        if !addr.is_multiple_of(GRANULE) {
            return Err(TagError::Unaligned(addr));
        }
        if !len.is_multiple_of(GRANULE) {
            return Err(TagError::Unaligned(len));
        }
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(TagError::RangeOutOfBounds { addr, len });
        }
        let first = (addr / GRANULE) as usize;
        for idx in first..first + (len / GRANULE) as usize {
            self.granules[idx] = tag;
        }
        Ok(())
    }

    fn range_tag(&self, addr: u64, len: u64) -> Option<Tag> {
        if len == 0 {
            return self.tag_at(addr);
        }
        let last = addr.checked_add(len - 1)?;
        if last >= self.size {
            return None;
        }
        let first = self.tag_at(addr)?;
        for g in addr / GRANULE + 1..=last / GRANULE {
            if self.tag_at(g * GRANULE)? != first {
                return None;
            }
        }
        Some(first)
    }

    fn check_access(
        &mut self,
        addr: u64,
        len: u64,
        ptr_tag: Tag,
        kind: AccessKind,
    ) -> Result<(), TagCheckFault> {
        if !self.mode.checks_enabled() {
            return Ok(());
        }
        self.checks += 1;
        let Some((fault_addr, mem_tag)) = self.first_mismatch(addr, len, ptr_tag) else {
            return Ok(());
        };
        let fault = TagCheckFault {
            addr: fault_addr,
            ptr_tag,
            mem_tag,
            access: kind,
            asynchronous: !self.mode.is_sync_for(kind),
        };
        if self.mode.is_sync_for(kind) {
            Err(fault)
        } else {
            self.pending_async.get_or_insert(fault);
            Ok(())
        }
    }

    fn first_mismatch(&self, addr: u64, len: u64, ptr_tag: Tag) -> Option<(u64, Option<Tag>)> {
        let len = len.max(1);
        let Some(last) = addr.checked_add(len - 1) else {
            return Some((addr, None));
        };
        if last >= self.size {
            return Some((addr.max(self.size), None));
        }
        for g in addr / GRANULE..=last / GRANULE {
            let g_addr = g * GRANULE;
            let mem_tag = self.tag_at(g_addr).expect("granule in bounds");
            if mem_tag != ptr_tag {
                return Some((g_addr.max(addr), Some(mem_tag)));
            }
        }
        None
    }
}

/// Granule counts that land on, just before and just after the kernels'
/// seams: the nibble/byte edge (odd vs even), the 16-granule word, and
/// the 128-granule stretch the issue names.
const COUNTS: [u64; 16] = [
    0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 47, 127, 128, 129, 255, 257,
];

fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn pick_count(rng: &mut StdRng) -> u64 {
    if below(rng, 4) == 0 {
        below(rng, 400)
    } else {
        COUNTS[below(rng, COUNTS.len() as u64) as usize]
    }
}

/// A byte length for a range query or access: zero, scalar, wrapping,
/// or a seam count with a ragged tail.
fn pick_len(rng: &mut StdRng) -> u64 {
    match below(rng, 6) {
        0 => 0,
        1 => 1 + below(rng, 16),
        2 => u64::MAX - below(rng, 64),
        _ => pick_count(rng) * GRANULE + below(rng, GRANULE),
    }
}

fn pick_tag(rng: &mut StdRng) -> Tag {
    Tag::from_low_bits(below(rng, 16) as u8)
}

fn assert_same_granules(kernel: &TagMemory, model: &Model, step: &str) {
    for g in 0..model.granules.len() as u64 + 1 {
        assert_eq!(
            kernel.tag_at(g * GRANULE),
            model.tag_at(g * GRANULE),
            "{step}: granule {g} diverged"
        );
    }
}

/// One seeded run: a few hundred random set/range/check/poll steps
/// against both implementations, comparing every observable after each.
fn run_against_model(seed: u64, mode: MteMode) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Odd and even granule totals, and a size that ends mid-granule.
    let mut granules = [640u64, 641, 1024, 333][below(&mut rng, 4) as usize];
    let mut size = granules * GRANULE - [0, 0, 8][below(&mut rng, 3) as usize];
    let mut kernel = TagMemory::new(size, mode);
    let mut model = Model::new(size, mode);

    for step in 0..200 {
        let what = format!("seed {seed} {mode:?} step {step}");
        let g = below(&mut rng, granules);
        match below(&mut rng, 11) {
            // Resize, in place: a shrink to an odd, even or ragged granule
            // count must leave nothing behind for the next grow to find.
            10 => {
                granules = [300u64, 333, 640, 641, 1024, 1100][below(&mut rng, 6) as usize];
                let new_size = granules * GRANULE - [0, 0, 8][below(&mut rng, 3) as usize];
                if new_size >= size {
                    kernel.try_grow(new_size).unwrap();
                } else {
                    kernel.shrink(new_size);
                }
                model.resize(new_size);
                size = new_size;
                assert_eq!(kernel.size(), size, "{what}: size");
                assert_same_granules(&kernel, &model, &what);
            }
            // Fill: mostly valid; sometimes running to or past `size`,
            // sometimes unaligned.
            0..=3 => {
                let mut addr = g * GRANULE;
                let mut len = pick_count(&mut rng) * GRANULE;
                match below(&mut rng, 8) {
                    0 => len = size.saturating_sub(addr) / GRANULE * GRANULE,
                    1 => addr += 8,
                    2 => len += 4,
                    3 => addr = u64::MAX - 15,
                    _ => {}
                }
                let tag = pick_tag(&mut rng);
                assert_eq!(
                    kernel.set_tag_range(addr, len, tag),
                    model.set_tag_range(addr, len, tag),
                    "{what}: set_tag_range({addr:#x}, {len:#x}, {tag})"
                );
                assert_same_granules(&kernel, &model, &what);
            }
            // A single-granule poke inside some run: the needle the
            // compare kernel must find at the right granule.
            4 => {
                let tag = pick_tag(&mut rng);
                let _ = kernel.set_tag_range(g * GRANULE, GRANULE, tag);
                let _ = model.set_tag_range(g * GRANULE, GRANULE, tag);
                assert_same_granules(&kernel, &model, &what);
            }
            5 | 6 => {
                let addr = g * GRANULE + below(&mut rng, GRANULE);
                let len = pick_len(&mut rng);
                assert_eq!(
                    kernel.range_tag(addr, len),
                    model.range_tag(addr, len),
                    "{what}: range_tag({addr:#x}, {len:#x})"
                );
            }
            // Access check, usually through the tag the first granule
            // carries so the mismatch (if any) is deep in the range.
            7 | 8 => {
                let addr = g * GRANULE + below(&mut rng, GRANULE);
                let len = pick_len(&mut rng);
                let ptr_tag = match model.tag_at(addr) {
                    Some(t) if below(&mut rng, 4) != 0 => t,
                    _ => pick_tag(&mut rng),
                };
                let kind = if below(&mut rng, 2) == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                assert_eq!(
                    kernel.check_access(addr, len, ptr_tag, kind),
                    model.check_access(addr, len, ptr_tag, kind),
                    "{what}: check_access({addr:#x}, {len:#x}, {ptr_tag}, {kind})"
                );
                assert_eq!(kernel.check_count(), model.checks, "{what}: check count");
                assert_eq!(
                    kernel.has_async_fault(),
                    model.pending_async.is_some(),
                    "{what}: pending async fault"
                );
            }
            // Poll TFSR: the sticky first fault, then nothing.
            _ => {
                assert_eq!(
                    kernel.take_async_fault(),
                    model.pending_async.take(),
                    "{what}: sticky async fault"
                );
                assert!(!kernel.has_async_fault(), "{what}: TFSR cleared");
            }
        }
    }
    assert_eq!(
        kernel.take_async_fault(),
        model.pending_async.take(),
        "seed {seed} {mode:?}: final async fault"
    );
}

const MODES: [MteMode; 4] = [
    MteMode::Disabled,
    MteMode::Synchronous,
    MteMode::Asynchronous,
    MteMode::Asymmetric,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn kernels_match_the_per_granule_model(seed: u64) {
        for mode in MODES {
            run_against_model(seed, mode);
        }
    }
}

/// Every seam, exhaustively: each first granule 0..40 (odd and even,
/// either side of two word boundaries) x each count up to 3 words, with
/// a needle planted at every position of the range in turn.
#[test]
fn every_seam_agrees_with_the_model() {
    let size = 96 * GRANULE;
    let (a, b, background) = (
        Tag::from_low_bits(0xA),
        Tag::from_low_bits(0x5),
        Tag::from_low_bits(0xC),
    );
    for first in 0..40u64 {
        for count in 0..=50u64 {
            let (addr, len) = (first * GRANULE, count * GRANULE);
            let mut kernel = TagMemory::new(size, MteMode::Synchronous);
            let mut model = Model::new(size, MteMode::Synchronous);
            // A non-zero background, so an edge nibble spilling into a
            // neighbour shows.
            kernel.set_tag_range(0, size, background).unwrap();
            model.set_tag_range(0, size, background).unwrap();
            assert_eq!(kernel.set_tag_range(addr, len, a), Ok(()));
            assert_eq!(model.set_tag_range(addr, len, a), Ok(()));
            assert_same_granules(&kernel, &model, "fill");
            for needle in first..first + count {
                kernel.set_tag_range(needle * GRANULE, GRANULE, b).unwrap();
                model.set_tag_range(needle * GRANULE, GRANULE, b).unwrap();
                // Unaligned start and end inside the first/last granule.
                let (lo, n) = (addr + 3, len - 5);
                assert_eq!(kernel.range_tag(lo, n), model.range_tag(lo, n));
                assert_eq!(
                    kernel.check_access(lo, n, a, AccessKind::Write),
                    model.check_access(lo, n, a, AccessKind::Write),
                    "first {first} count {count} needle {needle}"
                );
                kernel.set_tag_range(needle * GRANULE, GRANULE, a).unwrap();
                model.set_tag_range(needle * GRANULE, GRANULE, a).unwrap();
            }
            // The granule after the range stops the scan.
            assert_eq!(
                kernel.check_access(addr, len + 1, a, AccessKind::Read),
                model.check_access(addr, len + 1, a, AccessKind::Read),
                "first {first} count {count}: overrun"
            );
        }
    }
}
