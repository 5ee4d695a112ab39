//! Reference models of the register lowering's two analyses, and the
//! seeded random streams that hold the production code to them.
//!
//! The models are the implementations as they were before the dense
//! tables: the Braun builder over `BTreeMap`s and per-phi `Vec`s, the
//! liveness pass over block x value bitsets iterated to a fixpoint, the
//! copy sequencer that rescans the pending list per copy. They exist
//! only so that [`crate::ssa`] and [`crate::regalloc`] have something
//! obviously correct to be compared against — value for value, because
//! the engine's bytecode (and the cycle goldens behind it) depends on the
//! exact numbering.

use std::collections::BTreeMap;

use cage_wasm::CompileFuel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cage_wasm::LimitError;

use crate::regalloc::{self, Allocation, BlockRange, Interval, LivenessInput, ValueRef, NO_SLOT};
use crate::ssa::{self, Block, SsaBuilder, Value, Var, UNDEF};

// -- the map-based SSA builder ----------------------------------------------

#[derive(Debug, Default)]
struct BlockData {
    preds: Vec<Block>,
    sealed: bool,
    defs: BTreeMap<Var, Value>,
    /// Phis created before the predecessor set was complete, awaiting
    /// [`MapSsaBuilder::seal_block`].
    incomplete: Vec<(Var, Value)>,
}

#[derive(Debug)]
struct PhiData {
    block: Block,
    /// `(predecessor, value)` — one entry per predecessor edge.
    operands: Vec<(Block, Value)>,
}

/// One frame of the explicit reaching-definition walk
/// ([`MapSsaBuilder::run_read`]); replaces the recursion of Braun et al.'s
/// `readVariableRecursive`/`addPhiOperands` pair.
enum Walk {
    /// Resolve the variable's value at the end of `block`.
    Read { block: Block },
    /// A single-predecessor chain hop: once the predecessor's value is
    /// known, memoize it in `block` too.
    Store { block: Block },
    /// Fill `phi`'s operands from `preds`; `next` predecessors have been
    /// dispatched so far. `write_back` distinguishes a read-triggered
    /// phi (memoize the resolved value in the block's def map) from a
    /// seal-triggered completion (leave the def map alone).
    Fill {
        phi: Value,
        block: Block,
        preds: Vec<Block>,
        next: usize,
        write_back: bool,
    },
}

/// Incremental SSA builder. See the module docs for the protocol:
/// create blocks, add predecessor edges, read/write variables, seal each
/// block once its predecessors are final, then call
/// [`MapSsaBuilder::finish`] and resolve operands.
#[derive(Debug, Default)]
struct MapSsaBuilder {
    next_value: u32,
    blocks: Vec<BlockData>,
    phis: BTreeMap<Value, PhiData>,
    replaced: BTreeMap<Value, Value>,
}

impl MapSsaBuilder {
    /// Creates an empty builder.
    fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh value id for a client-side definition.
    fn new_value(&mut self) -> Value {
        let v = self.next_value;
        self.next_value += 1;
        v
    }

    /// Creates a new, unsealed block with no predecessors.
    fn new_block(&mut self) -> Block {
        let b = self.blocks.len() as Block;
        self.blocks.push(BlockData::default());
        b
    }

    /// Registers a control-flow edge `pred -> block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already sealed.
    fn add_pred(&mut self, block: Block, pred: Block) {
        let data = &mut self.blocks[block as usize];
        assert!(!data.sealed, "edge added to sealed block {block}");
        data.preds.push(pred);
    }

    /// Records that `var` holds `value` at the end of `block`.
    fn write_var(&mut self, var: Var, block: Block, value: Value) {
        self.blocks[block as usize].defs.insert(var, value);
    }

    /// The value of `var` at the current end of `block`, creating phis
    /// as needed. Returns [`UNDEF`] only for reads in unreachable code.
    ///
    /// The reaching-definition walk over predecessor chains runs on an
    /// explicit work stack: its depth scales with the longest acyclic
    /// CFG path (one hop per block for straight-line chains, one per
    /// join for branchy code), so a recursive walk would overflow the
    /// host stack on pathological but valid inputs — e.g. a variable
    /// defined once and read after a hundred thousand sequential `if`s.
    fn read_var(&mut self, var: Var, block: Block) -> Value {
        self.run_read(var, Walk::Read { block })
    }

    /// Marks the predecessor set of `block` as final, completing any
    /// phis created while it was open (loop headers).
    ///
    /// # Panics
    ///
    /// Panics if `block` is already sealed.
    fn seal_block(&mut self, block: Block) {
        let data = &mut self.blocks[block as usize];
        assert!(!data.sealed, "block {block} sealed twice");
        data.sealed = true;
        let incomplete = std::mem::take(&mut data.incomplete);
        for (var, phi) in incomplete {
            let block = self.phis[&phi].block;
            let preds = self.blocks[block as usize].preds.clone();
            // Seal-time completion leaves the block's def map alone: the
            // phi stays recorded and redirects through `replaced` if it
            // turns out trivial.
            self.run_read(
                var,
                Walk::Fill {
                    phi,
                    block,
                    preds,
                    next: 0,
                    write_back: false,
                },
            );
        }
    }

    /// The iterative engine behind [`MapSsaBuilder::read_var`] and
    /// [`MapSsaBuilder::seal_block`]: a faithful explicit-stack rendering
    /// of Braun et al.'s mutually recursive `readVariable` /
    /// `addPhiOperands`, preserving the exact order of value allocation
    /// and operand insertion (the bytecode derived from this feeds the
    /// cycle golden file).
    fn run_read(&mut self, var: Var, start: Walk) -> Value {
        let mut stack = vec![start];
        // The value produced by the most recently completed frame.
        let mut ret = UNDEF;
        while let Some(top) = stack.last_mut() {
            match top {
                Walk::Read { block } => {
                    let block = *block;
                    stack.pop();
                    if let Some(&v) = self.blocks[block as usize].defs.get(&var) {
                        ret = self.resolve(v);
                        continue;
                    }
                    let data = &self.blocks[block as usize];
                    if !data.sealed {
                        let phi = self.new_phi(block);
                        self.blocks[block as usize].incomplete.push((var, phi));
                        self.write_var(var, block, phi);
                        ret = phi;
                    } else if data.preds.is_empty() {
                        self.write_var(var, block, UNDEF);
                        ret = UNDEF;
                    } else if data.preds.len() == 1 {
                        let p = data.preds[0];
                        stack.push(Walk::Store { block });
                        stack.push(Walk::Read { block: p });
                    } else {
                        // Break potential cycles (loops) by writing the
                        // phi before collecting its operands.
                        let preds = data.preds.clone();
                        let phi = self.new_phi(block);
                        self.write_var(var, block, phi);
                        stack.push(Walk::Fill {
                            phi,
                            block,
                            preds,
                            next: 0,
                            write_back: true,
                        });
                    }
                }
                Walk::Store { block } => {
                    let block = *block;
                    stack.pop();
                    self.write_var(var, block, ret);
                }
                Walk::Fill {
                    phi,
                    block,
                    preds,
                    next,
                    write_back,
                } => {
                    if *next > 0 {
                        // A predecessor read just completed: record it.
                        let p = preds[*next - 1];
                        let (phi, value) = (*phi, ret);
                        self.phis
                            .get_mut(&phi)
                            .expect("phi live while adding operands")
                            .operands
                            .push((p, value));
                    }
                    if *next < preds.len() {
                        let p = preds[*next];
                        *next += 1;
                        stack.push(Walk::Read { block: p });
                    } else {
                        let (phi, block, write_back) = (*phi, *block, *write_back);
                        stack.pop();
                        let resolved = self.try_remove_trivial(phi);
                        if write_back {
                            self.write_var(var, block, resolved);
                        }
                        ret = resolved;
                    }
                }
            }
        }
        ret
    }

    /// Creates an operand-less phi in `block` for the client to fill via
    /// [`MapSsaBuilder::add_phi_operand`] (used for block-result values,
    /// where the merged value lives on the operand stack rather than in
    /// a variable).
    fn new_phi(&mut self, block: Block) -> Value {
        let v = self.new_value();
        self.phis.insert(
            v,
            PhiData {
                block,
                operands: Vec::new(),
            },
        );
        v
    }

    /// Appends the operand `value` flowing into phi `phi` along the edge
    /// from `pred`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a live phi.
    fn add_phi_operand(&mut self, phi: Value, pred: Block, value: Value) {
        self.phis
            .get_mut(&phi)
            .expect("operand added to non-phi value")
            .operands
            .push((pred, value));
    }

    /// Replaces `phi` by its unique operand when all operands agree
    /// (ignoring self-references); returns the surviving value.
    fn try_remove_trivial(&mut self, phi: Value) -> Value {
        let mut same: Option<Value> = None;
        for i in 0..self.phis[&phi].operands.len() {
            let (_, raw) = self.phis[&phi].operands[i];
            let v = self.resolve(raw);
            if v == phi || Some(v) == same || v == UNDEF {
                continue;
            }
            if same.is_some() {
                return phi; // two distinct operands: not trivial
            }
            same = Some(v);
        }
        let same = same.unwrap_or(UNDEF);
        self.phis.remove(&phi);
        self.replaced.insert(phi, same);
        same
    }

    /// Follows the trivial-phi redirection chain from `v` to the value
    /// that actually carries it.
    fn resolve(&self, mut v: Value) -> Value {
        while let Some(&r) = self.replaced.get(&v) {
            v = r;
        }
        v
    }

    /// Runs trivial-phi elimination to a fixpoint. The on-the-fly
    /// algorithm can leave a phi that only *became* trivial when one of
    /// its operand phis was removed (no use lists are maintained); such
    /// leftovers are correct but redundant, and this pass removes them.
    /// Call once after construction, before reading phis back.
    fn finish(&mut self) {
        loop {
            let mut changed = false;
            let ids: Vec<Value> = self.phis.keys().copied().collect();
            for id in ids {
                if self.phis.contains_key(&id) && self.try_remove_trivial(id) != id {
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Whether `v` is a (surviving) phi.
    fn is_phi(&self, v: Value) -> bool {
        self.phis.contains_key(&v)
    }

    /// The surviving phis of `block`, in ascending value order.
    fn phis_in(&self, block: Block) -> Vec<Value> {
        self.phis
            .iter()
            .filter(|(_, d)| d.block == block)
            .map(|(&v, _)| v)
            .collect()
    }

    /// The resolved `(predecessor, value)` operands of phi `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a surviving phi.
    fn phi_operands(&self, v: Value) -> Vec<(Block, Value)> {
        self.phis[&v]
            .operands
            .iter()
            .map(|&(p, val)| (p, self.resolve(val)))
            .collect()
    }

    /// Total number of value ids allocated.
    fn num_values(&self) -> u32 {
        self.next_value
    }
}

// -- the rescanning copy sequencer ------------------------------------------

/// Orders a parallel copy set (semantics: all sources are read before
/// any destination is written) into a sequential move list, breaking
/// swap cycles through the reserved `scratch` location.
///
/// Destinations must be distinct; `dst == src` self-copies are dropped.
/// This is the phi-elimination step: each predecessor of a join runs one
/// parallel copy writing every phi of the join, and the sequentialised
/// form is what the register bytecode actually executes.
fn quadratic_sequence_parallel_copies(copies: &[(u16, u16)], scratch: u16) -> Vec<(u16, u16)> {
    let mut pending: Vec<(u16, u16)> = copies.iter().copied().filter(|(d, s)| d != s).collect();
    let mut out = Vec::with_capacity(pending.len() + 1);
    while !pending.is_empty() {
        // Emit any copy whose destination no other pending copy still
        // reads; if none exists every destination is also a source — a
        // cycle — so park one value in scratch to open it.
        if let Some(i) = (0..pending.len()).find(|&i| {
            let d = pending[i].0;
            pending.iter().all(|&(_, s)| s != d)
        }) {
            out.push(pending.remove(i));
        } else {
            let d = pending[0].0;
            out.push((scratch, d));
            for c in &mut pending {
                if c.1 == d {
                    c.1 = scratch;
                }
            }
        }
    }
    out
}

// -- liveness over dense bitsets --------------------------------------------

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
fn dense_live_intervals(input: &LivenessInput) -> Vec<Option<Interval>> {
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
            for &s in input.succs_of(&input.blocks[b]) {
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

// -- linear scan over an interval heap --------------------------------------

/// The scan as it was: intervals sorted by start, the active ones in a
/// heap by end.
fn heap_linear_scan(intervals: &[Option<Interval>]) -> Result<Allocation, LimitError> {
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
    // Active: (end, slot), earliest end first.
    let mut active: BinaryHeap<Reverse<(u32, u16)>> = BinaryHeap::new();

    for &(v, iv) in &order {
        // Expire intervals that ended strictly before this one starts.
        while let Some(&Reverse((end, s))) = active.peek() {
            if end >= iv.start {
                break;
            }
            active.pop();
            free.push(Reverse(s));
        }
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
        active.push(Reverse((iv.end, s)));
    }
    Ok(Allocation { slot, frame_size })
}

// -- the streams ------------------------------------------------------------

fn below(rng: &mut StdRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Both builders side by side; every id either hands out is checked
/// against the other's on the spot.
struct Pair {
    dense: SsaBuilder,
    model: MapSsaBuilder,
    fuel: CompileFuel,
}

impl Pair {
    fn new_value(&mut self) -> Value {
        let v = self.dense.new_value();
        assert_eq!(v, self.model.new_value());
        v
    }

    fn new_block(&mut self) -> Block {
        let b = self.dense.new_block();
        assert_eq!(b, self.model.new_block());
        b
    }

    fn new_phi(&mut self, block: Block) -> Value {
        let v = self.dense.new_phi(block);
        assert_eq!(v, self.model.new_phi(block));
        v
    }

    /// Registers `pred -> block` and feeds `block`'s client phis.
    fn edge(&mut self, block: Block, pred: Block, client_phis: &[(Value, Block)], value: Value) {
        self.dense.add_pred(block, pred);
        self.model.add_pred(block, pred);
        for &(phi, _) in client_phis.iter().filter(|&&(_, b)| b == block) {
            self.dense.add_phi_operand(phi, pred, value);
            self.model.add_phi_operand(phi, pred, value);
        }
    }

    fn seal(&mut self, block: Block) {
        self.dense.seal_block(block, &self.fuel).unwrap();
        self.model.seal_block(block);
    }

    fn write(&mut self, var: Var, block: Block, value: Value) {
        self.dense.write_var(var, block, value, &self.fuel).unwrap();
        self.model.write_var(var, block, value);
    }

    fn read(&mut self, var: Var, block: Block) -> Value {
        let v = self.dense.read_var(var, block, &self.fuel).unwrap();
        assert_eq!(
            v,
            self.model.read_var(var, block),
            "read of {var} in {block}"
        );
        v
    }
}

/// One random session of the builder protocol: forward edges from
/// earlier blocks, loop headers left open until a later block closes
/// them, client phis fed edge by edge, reads and writes in the block
/// being filled. Afterwards everything the engine reads back must agree.
fn ssa_session(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let num_vars = 1 + below(&mut rng, 6) as u32;
    let mut pair = Pair {
        dense: SsaBuilder::new(num_vars),
        model: MapSsaBuilder::new(),
        fuel: CompileFuel::new(u64::MAX),
    };
    let entry = pair.new_block();
    pair.seal(entry);
    let mut known = vec![UNDEF];
    for var in 0..num_vars {
        if below(&mut rng, 4) != 0 {
            let v = pair.new_value();
            pair.write(var, entry, v);
            known.push(v);
        }
    }
    let mut open: Vec<Block> = Vec::new();
    let mut client_phis: Vec<(Value, Block)> = Vec::new();
    for _ in 0..1 + below(&mut rng, 40) {
        let blk = pair.new_block();
        for _ in 0..below(&mut rng, 3) {
            client_phis.push((pair.new_phi(blk), blk));
        }
        let mut preds: Vec<Block> = (0..below(&mut rng, 4))
            .map(|_| below(&mut rng, u64::from(blk)) as Block)
            .collect();
        preds.sort_unstable();
        preds.dedup();
        // Only a block entered from outside may stay open: a loop with
        // no way in has nothing to stop the (unbounded-fuel) walk.
        let entered = !preds.is_empty();
        for pred in preds {
            let fed = known[below(&mut rng, known.len() as u64) as usize];
            pair.edge(blk, pred, &client_phis, fed);
        }
        if entered && below(&mut rng, 4) == 0 {
            open.push(blk);
        } else {
            pair.seal(blk);
        }
        for _ in 0..below(&mut rng, 8) {
            let var = below(&mut rng, u64::from(num_vars)) as Var;
            match below(&mut rng, 3) {
                0 => known.push(pair.read(var, blk)),
                1 => {
                    let v = pair.new_value();
                    pair.write(var, blk, v);
                    known.push(v);
                }
                _ => {
                    let v = known[below(&mut rng, known.len() as u64) as usize];
                    pair.write(var, blk, v);
                }
            }
        }
        if !open.is_empty() && below(&mut rng, 3) == 0 {
            let header = open.swap_remove(below(&mut rng, open.len() as u64) as usize);
            let fed = known[below(&mut rng, known.len() as u64) as usize];
            pair.edge(header, blk, &client_phis, fed);
            pair.seal(header);
        }
    }
    for header in open {
        pair.seal(header);
    }
    pair.dense.finish(&pair.fuel).unwrap();
    pair.model.finish();

    let (dense, model) = (&pair.dense, &pair.model);
    assert_eq!(dense.num_values(), model.num_values());
    for v in (0..dense.num_values()).chain([UNDEF]) {
        assert_eq!(dense.resolve(v), model.resolve(v), "resolve({v})");
        assert_eq!(dense.is_phi(v), model.is_phi(v), "is_phi({v})");
        if dense.is_phi(v) {
            let operands = dense.phi_operands(v).iter();
            let operands: Vec<_> = operands.map(|&(p, raw)| (p, dense.resolve(raw))).collect();
            assert_eq!(operands, model.phi_operands(v), "operands of {v}");
        }
    }
    for b in 0..model.blocks.len() as Block {
        assert_eq!(dense.phis_in(b).collect::<Vec<_>>(), model.phis_in(b));
        assert_eq!(dense.preds(b), model.blocks[b as usize].preds);
    }
}

#[test]
fn dense_builder_matches_the_map_based_builder() {
    for seed in 0..3_000 {
        ssa_session(seed);
    }
}

/// A random liveness problem: contiguous blocks of one to five
/// positions, up to three successors each (repeats allowed), and a few
/// references per position — some to ids past `num_values` (the
/// client's sentinels), some past the last block. Half the cases hand
/// the references over unordered.
fn liveness_problem(seed: u64) -> LivenessInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let nb = 1 + below(&mut rng, 12) as u32;
    let nv = 1 + below(&mut rng, 20) as u32;
    let mut input = LivenessInput {
        num_values: nv,
        ..LivenessInput::default()
    };
    let mut pos = 0;
    for _ in 0..nb {
        let first = input.succs.len() as u32;
        for _ in 0..below(&mut rng, 4) {
            input.succs.push(below(&mut rng, u64::from(nb)) as u32);
        }
        let len = 1 + below(&mut rng, 5) as u32;
        input.blocks.push(BlockRange {
            start: pos,
            end: pos + len - 1,
            succs: first..input.succs.len() as u32,
        });
        pos += len;
    }
    for pos in 0..pos + 2 {
        for _ in 0..below(&mut rng, 4) {
            let value = match below(&mut rng, 16) {
                0 => UNDEF,
                _ => below(&mut rng, u64::from(nv) + 1) as u32,
            };
            input.refs.push(ValueRef {
                pos,
                value,
                is_def: below(&mut rng, 3) == 0,
            });
        }
    }
    if below(&mut rng, 2) == 0 {
        for i in (1..input.refs.len()).rev() {
            input.refs.swap(i, below(&mut rng, i as u64 + 1) as usize);
        }
    }
    input
}

#[test]
fn sparse_liveness_matches_the_dense_fixpoint() {
    let fuel = CompileFuel::new(u64::MAX);
    for seed in 0..5_000 {
        let input = liveness_problem(seed);
        let sparse = regalloc::live_intervals(&input, &fuel).unwrap();
        assert_eq!(sparse, dense_live_intervals(&input), "seed {seed}");
    }
}

#[test]
fn worklist_copy_sequencer_emits_the_rescanning_one_s_order() {
    const SCRATCH: u16 = 99;
    for seed in 0..5_000 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Distinct destinations out of a few slots, so chains, fan-out
        // and cycles of every length come up.
        let slots = 2 + below(&mut rng, 10) as u16;
        let mut dsts: Vec<u16> = (0..slots).collect();
        for i in (1..dsts.len()).rev() {
            dsts.swap(i, below(&mut rng, i as u64 + 1) as usize);
        }
        dsts.truncate(1 + below(&mut rng, u64::from(slots)) as usize);
        let copies: Vec<(u16, u16)> = dsts
            .iter()
            .map(|&d| (d, below(&mut rng, u64::from(slots) + 2) as u16))
            .collect();
        assert_eq!(
            ssa::sequence_parallel_copies(&copies, SCRATCH),
            quadratic_sequence_parallel_copies(&copies, SCRATCH),
            "seed {seed}: {copies:?}"
        );
    }
}

#[test]
fn position_walking_scan_assigns_the_heap_scan_s_slots() {
    for seed in 0..3_000 {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = 1 + below(&mut rng, 60) as u32;
        let intervals: Vec<Option<Interval>> = (0..below(&mut rng, 80))
            .map(|_| {
                let start = below(&mut rng, u64::from(horizon)) as u32;
                let end = start + below(&mut rng, u64::from(horizon - start)) as u32;
                (below(&mut rng, 5) != 0).then_some(Interval { start, end })
            })
            .collect();
        let got = regalloc::linear_scan(&intervals).unwrap();
        let want = heap_linear_scan(&intervals).unwrap();
        assert_eq!(got.slot, want.slot, "seed {seed}");
        assert_eq!(got.frame_size, want.frame_size, "seed {seed}");
    }
}
