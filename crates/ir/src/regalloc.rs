//! Liveness analysis and linear-scan slot assignment for the register
//! bytecode tier.
//!
//! The client linearises its program into monotonically increasing
//! positions, describes the CFG as position ranges with successor lists,
//! and reports every value read/write as a [`ValueRef`]. Liveness runs
//! the classic backward bit-vector fixpoint per block; intervals are the
//! conservative convex hull `[min, max]` of every position where the
//! value is referenced or live across a block boundary — loops are
//! handled exactly (a value live into a loop header is live out of the
//! back-edge block, which extends its hull over the whole loop body).
//!
//! [`linear_scan`] then assigns each interval a frame slot, reusing the
//! lowest slot whose previous interval has ended — a frame is as wide as
//! the function's peak number of simultaneously live values.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cage_wasm::LimitError;

/// One read or write of a value at a linearised position.
#[derive(Debug, Clone, Copy)]
pub struct ValueRef {
    /// Linear position of the instruction.
    pub pos: u32,
    /// The value referenced.
    pub value: u32,
    /// `true` for a definition (write), `false` for a use (read).
    pub is_def: bool,
}

/// One basic block as a closed position range plus its successors.
#[derive(Debug, Clone)]
pub struct BlockRange {
    /// Position of the block's first instruction.
    pub start: u32,
    /// Position of the block's last instruction (== `start` when empty).
    pub end: u32,
    /// Successor block indices.
    pub succs: Vec<u32>,
}

/// Liveness problem description. Positions must be globally unique and
/// increasing in block-layout order.
#[derive(Debug, Clone, Default)]
pub struct LivenessInput {
    /// Number of values (ids are `0..num_values`).
    pub num_values: u32,
    /// The blocks in layout order.
    pub blocks: Vec<BlockRange>,
    /// Every value reference, in any order.
    pub refs: Vec<ValueRef>,
}

/// A conservative live interval over linearised positions, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First position at which the value may be live.
    pub start: u32,
    /// Last position at which the value may be live.
    pub end: u32,
}

/// Fixed-width bitset over value ids.
#[derive(Clone, PartialEq, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        Self {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: u32) {
        self.words[i as usize / 64] |= 1 << (i % 64);
    }

    fn contains(&self, i: u32) -> bool {
        self.words[i as usize / 64] & (1 << (i % 64)) != 0
    }

    /// `self |= other`; returns whether `self` changed.
    fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            let next = *w | o;
            changed |= next != *w;
            *w = next;
        }
        changed
    }

    /// `self |= a & !b`; returns whether `self` changed.
    fn union_with_minus(&mut self, a: &BitSet, b: &BitSet) -> bool {
        let mut changed = false;
        for i in 0..self.words.len() {
            let next = self.words[i] | (a.words[i] & !b.words[i]);
            changed |= next != self.words[i];
            self.words[i] = next;
        }
        changed
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| (wi * 64 + b) as u32)
        })
    }
}

/// Computes the conservative live interval of every value; `None` for
/// values never referenced.
#[must_use]
pub fn live_intervals(input: &LivenessInput) -> Vec<Option<Interval>> {
    let nv = input.num_values as usize;
    let nb = input.blocks.len();

    // Per-block gen (used before any in-block def) and kill (defined).
    let mut gen_b = vec![BitSet::new(nv); nb];
    let mut kill_b = vec![BitSet::new(nv); nb];
    let block_of = |pos: u32| -> usize {
        // Blocks are laid out in increasing position order.
        input
            .blocks
            .partition_point(|b| b.end < pos)
            .min(nb.saturating_sub(1))
    };
    let mut sorted_refs: Vec<ValueRef> = input.refs.clone();
    sorted_refs.sort_by_key(|r| (r.pos, r.is_def));
    for r in &sorted_refs {
        if r.value as usize >= nv {
            continue; // client sentinel (e.g. UNDEF): not allocated
        }
        let b = block_of(r.pos);
        if r.is_def {
            kill_b[b].insert(r.value);
        } else if !kill_b[b].contains(r.value) {
            gen_b[b].insert(r.value);
        }
    }

    // Backward fixpoint: live_out[b] = ∪ live_in[s]; live_in[b] = gen[b]
    // ∪ (live_out[b] − kill[b]).
    let mut live_in = vec![BitSet::new(nv); nb];
    let mut live_out = vec![BitSet::new(nv); nb];
    loop {
        let mut changed = false;
        for b in (0..nb).rev() {
            for &s in &input.blocks[b].succs {
                let succ_in = live_in[s as usize].clone();
                changed |= live_out[b].union_with(&succ_in);
            }
            changed |= {
                let g = gen_b[b].clone();
                live_in[b].union_with(&g)
            };
            let (lo, k) = (live_out[b].clone(), kill_b[b].clone());
            changed |= live_in[b].union_with_minus(&lo, &k);
        }
        if !changed {
            break;
        }
    }

    // Convex hull per value: every reference position, plus the block
    // start for live-in values and the block end for live-out values.
    let mut intervals: Vec<Option<Interval>> = vec![None; nv];
    let mut extend = |v: u32, pos: u32| {
        let e = &mut intervals[v as usize];
        match e {
            None => {
                *e = Some(Interval {
                    start: pos,
                    end: pos,
                });
            }
            Some(iv) => {
                iv.start = iv.start.min(pos);
                iv.end = iv.end.max(pos);
            }
        }
    };
    for r in &sorted_refs {
        if (r.value as usize) < nv {
            extend(r.value, r.pos);
        }
    }
    for b in 0..nb {
        for v in live_in[b].iter() {
            extend(v, input.blocks[b].start);
        }
        for v in live_out[b].iter() {
            extend(v, input.blocks[b].end);
        }
    }
    intervals
}

/// The result of [`linear_scan`].
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Frame slot per value (`u16::MAX` for values with no interval).
    pub slot: Vec<u16>,
    /// Total frame slots used.
    pub frame_size: u16,
}

/// Sentinel slot for values that were never referenced.
pub const NO_SLOT: u16 = u16::MAX;

/// Classic linear scan over the intervals: values whose intervals do not
/// overlap share slots, and each interval takes the lowest free slot
/// (deterministic and dense).
///
/// # Errors
///
/// [`LimitError`] (`what: "frame slots"`) when a function needs more
/// than `u16::MAX - 1` simultaneous frame slots — reachable from hostile
/// input (e.g. tens of thousands of values all live at once), so the
/// instantiation path must not abort.
pub fn linear_scan(intervals: &[Option<Interval>]) -> Result<Allocation, LimitError> {
    const SLOT_LIMIT: u16 = u16::MAX - 1;
    let mut order: Vec<(u32, Interval)> = intervals
        .iter()
        .enumerate()
        .filter_map(|(v, iv)| iv.map(|iv| (v as u32, iv)))
        .collect();
    order.sort_by_key(|&(v, iv)| (iv.start, v));

    let mut slot = vec![NO_SLOT; intervals.len()];
    // Slots whose interval has ended; every slot below `frame_size` is
    // either here or in `active`.
    let mut free: BinaryHeap<Reverse<u16>> = BinaryHeap::new();
    let mut frame_size: u16 = 0;
    // Active: (end, slot), sorted by end ascending.
    let mut active: Vec<(u32, u16)> = Vec::new();

    for &(v, iv) in &order {
        // Expire intervals that ended strictly before this one starts.
        let expired = active.partition_point(|&(end, _)| end < iv.start);
        free.extend(active.drain(..expired).map(|(_, s)| Reverse(s)));
        let s = match free.pop() {
            Some(Reverse(s)) => s,
            None if frame_size == SLOT_LIMIT => {
                return Err(LimitError {
                    what: "frame slots",
                    limit: u64::from(SLOT_LIMIT),
                    actual: u64::from(SLOT_LIMIT) + 1,
                });
            }
            None => {
                frame_size += 1;
                frame_size - 1
            }
        };
        slot[v as usize] = s;
        let ins = active.partition_point(|&(end, _)| end <= iv.end);
        active.insert(ins, (iv.end, s));
    }
    Ok(Allocation { slot, frame_size })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block(end: u32) -> Vec<BlockRange> {
        vec![BlockRange {
            start: 0,
            end,
            succs: vec![],
        }]
    }

    fn refs(list: &[(u32, u32, bool)]) -> Vec<ValueRef> {
        list.iter()
            .map(|&(pos, value, is_def)| ValueRef { pos, value, is_def })
            .collect()
    }

    #[test]
    fn disjoint_intervals_share_a_slot() {
        // v0 live [0,1], v1 live [2,3].
        let input = LivenessInput {
            num_values: 2,
            blocks: one_block(3),
            refs: refs(&[(0, 0, true), (1, 0, false), (2, 1, true), (3, 1, false)]),
        };
        let iv = live_intervals(&input);
        assert_eq!(iv[0], Some(Interval { start: 0, end: 1 }));
        assert_eq!(iv[1], Some(Interval { start: 2, end: 3 }));
        let a = linear_scan(&iv).unwrap();
        assert_eq!(a.slot[0], a.slot[1]);
        assert_eq!(a.frame_size, 1);
    }

    #[test]
    fn overlapping_intervals_get_distinct_slots() {
        let input = LivenessInput {
            num_values: 2,
            blocks: one_block(3),
            refs: refs(&[(0, 0, true), (1, 1, true), (2, 0, false), (3, 1, false)]),
        };
        let a = linear_scan(&live_intervals(&input)).unwrap();
        assert_ne!(a.slot[0], a.slot[1]);
    }

    #[test]
    fn simultaneously_live_values_get_one_slot_each() {
        // 5 values all live at once: a 5-slot frame, densely numbered.
        let mut r = Vec::new();
        for v in 0..5u32 {
            r.push((v, v, true));
            r.push((10 + v, v, false));
        }
        let input = LivenessInput {
            num_values: 5,
            blocks: one_block(14),
            refs: refs(&r),
        };
        let a = linear_scan(&live_intervals(&input)).unwrap();
        assert_eq!(a.frame_size, 5);
        let mut slots: Vec<u16> = a.slot.clone();
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn value_live_into_loop_header_spans_the_whole_loop() {
        // Block 0 (entry, pos 0..1) defines v0 and v1; block 1 (loop
        // body, pos 2..4) uses v0 at its top and loops to itself; block
        // 2 (exit, pos 5..6) uses v1. v0's hull must cover the whole
        // loop body — including pos 4 — because it is live around the
        // back edge; a def at pos 3 must therefore not share its slot.
        let input = LivenessInput {
            num_values: 3,
            blocks: vec![
                BlockRange {
                    start: 0,
                    end: 1,
                    succs: vec![1],
                },
                BlockRange {
                    start: 2,
                    end: 4,
                    succs: vec![1, 2],
                },
                BlockRange {
                    start: 5,
                    end: 6,
                    succs: vec![],
                },
            ],
            refs: refs(&[
                (0, 0, true),
                (1, 1, true),
                (2, 0, false),
                (3, 2, true), // temp defined mid-loop
                (4, 2, false),
                (5, 1, false),
            ]),
        };
        let iv = live_intervals(&input);
        // v0 live-in at the loop header on every iteration -> live out
        // of the body (the back-edge block), so its hull reaches pos 4.
        assert_eq!(iv[0], Some(Interval { start: 0, end: 4 }));
        // v1 is live across the loop entirely.
        assert_eq!(iv[1], Some(Interval { start: 1, end: 5 }));
        let a = linear_scan(&iv).unwrap();
        assert_ne!(a.slot[0], a.slot[2]);
        assert_ne!(a.slot[1], a.slot[2]);
    }

    #[test]
    fn slot_overflow_is_an_error_not_a_panic() {
        // 70k values all live simultaneously: more simultaneous slots
        // than u16 can index. linear_scan must report it.
        let n = 70_000u32;
        let intervals: Vec<Option<Interval>> = (0..n)
            .map(|_| Some(Interval { start: 0, end: 1 }))
            .collect();
        let err = linear_scan(&intervals).unwrap_err();
        assert_eq!(err.what, "frame slots");
    }

    #[test]
    fn unreferenced_values_get_no_slot() {
        let input = LivenessInput {
            num_values: 2,
            blocks: one_block(1),
            refs: refs(&[(0, 0, true), (1, 0, false)]),
        };
        let a = linear_scan(&live_intervals(&input)).unwrap();
        assert_eq!(a.slot[1], NO_SLOT);
    }
}
