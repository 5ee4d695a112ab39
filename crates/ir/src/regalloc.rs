//! Liveness analysis and linear-scan slot assignment for the register
//! bytecode tier.
//!
//! The client linearises its program into monotonically increasing
//! positions, describes the CFG as position ranges with successor lists,
//! and reports every value read/write as a [`ValueRef`]. Liveness solves
//! the classic backward dataflow equations over sparse per-value sets;
//! intervals are the conservative convex hull `[min, max]` of every
//! position where the value is referenced or live across a block
//! boundary — loops are handled exactly (a value live into a loop header
//! is live out of the back-edge block, which extends its hull over the
//! whole loop body).
//!
//! [`linear_scan`] then assigns each interval a frame slot, reusing the
//! lowest slot whose previous interval has ended — a frame is as wide as
//! the function's peak number of simultaneously live values.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use cage_wasm::{CompileFuel, LimitError};

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
    /// The block's successors, as a range of [`LivenessInput::succs`].
    pub succs: Range<u32>,
}

/// Liveness problem description. Positions must be globally unique and
/// increasing in block-layout order.
#[derive(Debug, Clone, Default)]
pub struct LivenessInput {
    /// Number of values (ids are `0..num_values`).
    pub num_values: u32,
    /// The blocks in layout order.
    pub blocks: Vec<BlockRange>,
    /// Successor block indices of all blocks, each block's a contiguous
    /// run ([`BlockRange::succs`]).
    pub succs: Vec<u32>,
    /// Every value reference, in any order (no sort is paid for when
    /// they come ordered by position, uses before definitions).
    pub refs: Vec<ValueRef>,
}

impl LivenessInput {
    pub(crate) fn succs_of(&self, block: &BlockRange) -> &[u32] {
        &self.succs[block.succs.start as usize..block.succs.end as usize]
    }
}

/// A conservative live interval over linearised positions, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First position at which the value may be live.
    pub start: u32,
    /// Last position at which the value may be live.
    pub end: u32,
}

/// Table marker: no value has stamped this entry yet.
const UNMARKED: u32 = u32::MAX;

/// Widens `v`'s hull to cover `pos`.
fn extend(intervals: &mut [Option<Interval>], v: u32, pos: u32) {
    let hull = intervals[v as usize].get_or_insert(Interval {
        start: pos,
        end: pos,
    });
    hull.start = hull.start.min(pos);
    hull.end = hull.end.max(pos);
}

/// Items grouped by a dense key: `items[start[k]..start[k + 1]]` are
/// `k`'s.
struct Groups {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    fn of(&self, key: usize) -> &[u32] {
        &self.items[self.start[key] as usize..self.start[key + 1] as usize]
    }
}

/// Groups `(key, item)` pairs by key (a counting sort); each key's items
/// stay in the order the pairs came.
fn group_by_key(pairs: impl Iterator<Item = (u32, u32)> + Clone, keys: usize) -> Groups {
    // Counted two slots up, so that after the prefix sums `start[k + 1]`
    // is where `k`'s run begins, and after the fill where it ends.
    let mut start = vec![0u32; keys + 2];
    let mut len = 0;
    for (k, _) in pairs.clone() {
        start[k as usize + 2] += 1;
        len += 1;
    }
    for k in 2..keys + 2 {
        start[k] += start[k - 1];
    }
    let mut items = vec![0u32; len];
    for (k, item) in pairs {
        let at = &mut start[k as usize + 1];
        items[*at as usize] = item;
        *at += 1;
    }
    Groups { start, items }
}

/// Computes the conservative live interval of every value; `None` for
/// values never referenced.
///
/// The dataflow equations are the classic ones — `live_out[b] = ∪
/// live_in[succ]`, `live_in[b] = gen[b] ∪ (live_out[b] − kill[b])` — but
/// solved one value at a time over sparse sets: from every block that
/// reads a value before defining it, liveness is pushed backwards along
/// predecessor edges until a defining block stops it. Memory is
/// `O(blocks + values + refs)`, and time is proportional to the number of
/// (value, block) pairs across which a value is actually live. That
/// number is the one quantity here that can outgrow the input (`k`
/// values live across `n` blocks), so each such pair charges `fuel`.
///
/// # Errors
///
/// [`LimitError`] (`what: "compile fuel"`) when the propagation runs
/// `fuel` out.
pub fn live_intervals(
    input: &LivenessInput,
    fuel: &CompileFuel,
) -> Result<Vec<Option<Interval>>, LimitError> {
    let nv = input.num_values as usize;
    let nb = input.blocks.len();
    let mut intervals: Vec<Option<Interval>> = vec![None; nv];

    // Uses sort before definitions at one position. The engine reports
    // references in that order already; any other client pays a sort.
    let order = |r: &ValueRef| (r.pos, r.is_def);
    let sorted: Vec<ValueRef>;
    let refs = if input.refs.is_sorted_by_key(order) {
        &input.refs
    } else {
        sorted = {
            let mut refs = input.refs.clone();
            refs.sort_by_key(order);
            refs
        };
        &sorted
    };

    // One pass over the references: the hull of the positions themselves,
    // and per block which values it reads before any definition of its
    // own (gen) and which it defines (kill), as (value, block) pairs.
    let mut gens: Vec<(u32, u32)> = Vec::new();
    let mut kills: Vec<(u32, u32)> = Vec::new();
    let mut gen_in = vec![UNMARKED; nv];
    let mut killed_in = vec![UNMARKED; nv];
    let mut b = 0;
    for r in refs {
        if r.value as usize >= nv {
            continue; // client sentinel (e.g. UNDEF): not allocated
        }
        extend(&mut intervals, r.value, r.pos);
        if nb == 0 {
            continue;
        }
        // Blocks are laid out in increasing position order.
        while b + 1 < nb && input.blocks[b].end < r.pos {
            b += 1;
        }
        let (v, blk) = (r.value as usize, b as u32);
        if r.is_def {
            if killed_in[v] != blk {
                killed_in[v] = blk;
                kills.push((r.value, blk));
            }
        } else if killed_in[v] != blk && gen_in[v] != blk {
            gen_in[v] = blk;
            gens.push((r.value, blk));
        }
    }
    let gens = group_by_key(gens.iter().copied(), nv);
    let kills = group_by_key(kills.iter().copied(), nv);

    // Predecessor lists: the successor lists turned around.
    let edges = input.blocks.iter().enumerate().flat_map(|(p, block)| {
        let succs = input.succs_of(block).iter();
        succs.map(move |&s| (s, p as u32))
    });
    let preds = group_by_key(edges, nb);

    // Per value: every block it is live into pulls its start into the
    // hull, every block it is live out of its end. The three stamp
    // tables hold the last value that marked a block, so moving on to
    // the next value clears them for free.
    let mut live_in = vec![UNMARKED; nb];
    let mut live_out = vec![UNMARKED; nb];
    let mut kill = vec![UNMARKED; nb];
    let mut work: Vec<u32> = Vec::new();
    for i in 0..nv {
        if gens.of(i).is_empty() {
            continue;
        }
        let v = i as u32;
        for &b in kills.of(i) {
            kill[b as usize] = v;
        }
        for &b in gens.of(i) {
            live_in[b as usize] = v;
            work.push(b);
        }
        while let Some(b) = work.pop() {
            extend(&mut intervals, v, input.blocks[b as usize].start);
            for &p in preds.of(b as usize) {
                let p = p as usize;
                if live_out[p] == v {
                    continue;
                }
                fuel.charge(1)?;
                live_out[p] = v;
                extend(&mut intervals, v, input.blocks[p].end);
                if kill[p] != v && live_in[p] != v {
                    live_in[p] = v;
                    work.push(p as u32);
                }
            }
        }
    }
    Ok(intervals)
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
/// (deterministic and dense). Intervals are taken in order of their
/// start, ties by value id. The scan walks the positions themselves —
/// at each one it first frees the slots of the intervals that ended just
/// before, then serves the ones that start — so its cost is linear in
/// intervals plus positions (which the liveness client numbers densely).
///
/// # Errors
///
/// [`LimitError`] (`what: "frame slots"`) when a function needs more
/// than `u16::MAX - 1` simultaneous frame slots — reachable from hostile
/// input (e.g. tens of thousands of values all live at once), so the
/// compile path must not abort.
pub fn linear_scan(intervals: &[Option<Interval>]) -> Result<Allocation, LimitError> {
    const SLOT_LIMIT: u16 = u16::MAX - 1;
    let live = intervals.iter().enumerate();
    let live = live.filter_map(|(v, iv)| iv.map(|iv| (v as u32, iv)));
    let horizon = live.clone().map(|(_, iv)| iv.end as usize + 1).max();
    let horizon = horizon.unwrap_or(0);
    let starting = group_by_key(live.clone().map(|(v, iv)| (iv.start, v)), horizon);
    let ending = group_by_key(live.map(|(v, iv)| (iv.end, v)), horizon);

    let mut slot = vec![NO_SLOT; intervals.len()];
    // Slots whose interval has ended; every slot below `frame_size` is
    // either here or held by an interval spanning the current position.
    let mut free: BinaryHeap<Reverse<u16>> = BinaryHeap::new();
    let mut frame_size: u16 = 0;
    for pos in 0..horizon {
        if pos > 0 {
            // Expire intervals that ended strictly before this position.
            for &v in ending.of(pos - 1) {
                free.push(Reverse(slot[v as usize]));
            }
        }
        for &v in starting.of(pos) {
            slot[v as usize] = match free.pop() {
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
        }
    }
    Ok(Allocation { slot, frame_size })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A liveness problem from `(start, end, successors)` blocks and
    /// `(pos, value, is_def)` references.
    fn problem(
        num_values: u32,
        blocks: &[(u32, u32, &[u32])],
        refs: &[(u32, u32, bool)],
    ) -> LivenessInput {
        let mut input = LivenessInput {
            num_values,
            refs: refs
                .iter()
                .map(|&(pos, value, is_def)| ValueRef { pos, value, is_def })
                .collect(),
            ..LivenessInput::default()
        };
        for &(start, end, succs) in blocks {
            let first = input.succs.len() as u32;
            input.succs.extend_from_slice(succs);
            input.blocks.push(BlockRange {
                start,
                end,
                succs: first..input.succs.len() as u32,
            });
        }
        input
    }

    fn live_intervals(input: &LivenessInput) -> Vec<Option<Interval>> {
        super::live_intervals(input, &CompileFuel::new(u64::MAX)).unwrap()
    }

    #[test]
    fn disjoint_intervals_share_a_slot() {
        // v0 live [0,1], v1 live [2,3].
        let input = problem(
            2,
            &[(0, 3, &[])],
            &[(0, 0, true), (1, 0, false), (2, 1, true), (3, 1, false)],
        );
        let iv = live_intervals(&input);
        assert_eq!(iv[0], Some(Interval { start: 0, end: 1 }));
        assert_eq!(iv[1], Some(Interval { start: 2, end: 3 }));
        let a = linear_scan(&iv).unwrap();
        assert_eq!(a.slot[0], a.slot[1]);
        assert_eq!(a.frame_size, 1);
    }

    #[test]
    fn overlapping_intervals_get_distinct_slots() {
        let input = problem(
            2,
            &[(0, 3, &[])],
            &[(0, 0, true), (1, 1, true), (2, 0, false), (3, 1, false)],
        );
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
        let input = problem(5, &[(0, 14, &[])], &r);
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
        let input = problem(
            3,
            &[(0, 1, &[1]), (2, 4, &[1, 2]), (5, 6, &[])],
            &[
                (0, 0, true),
                (1, 1, true),
                (2, 0, false),
                (3, 2, true), // temp defined mid-loop
                (4, 2, false),
                (5, 1, false),
            ],
        );
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
        let input = problem(2, &[(0, 1, &[])], &[(0, 0, true), (1, 0, false)]);
        let a = linear_scan(&live_intervals(&input)).unwrap();
        assert_eq!(a.slot[1], NO_SLOT);
    }
}
