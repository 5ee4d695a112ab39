//! Braun-style SSA construction over an abstract CFG.
//!
//! Implements the on-the-fly algorithm of Braun et al. ("Simple and
//! Efficient Construction of Static Single Assignment Form", CC 2013):
//! the client walks its input in any order, registering blocks, edges and
//! variable reads/writes; phi functions materialise on demand at join
//! points, and blocks whose predecessor sets are not yet complete (loop
//! headers during body construction) hold *incomplete* phis that are
//! resolved when the block is sealed. Trivial phis (all operands equal)
//! are replaced by their unique operand through a redirection table —
//! [`SsaBuilder::resolve`] follows the chain — rather than by rewriting
//! uses in place, so the client can resolve its own instruction operands
//! once, after [`SsaBuilder::finish`].
//!
//! Everything is `u32` identifiers: the client owns the meaning of
//! variables and values. Variables, blocks and values are dense ids (the
//! last two handed out in creation order), so all state lives in tables
//! indexed by them — the definition of a variable at the end of a block
//! is a cell of that block's row of `num_vars` cells — and nothing
//! hashes: no map is left in this module. Determinism, which matters
//! because the engine derives bytecode — and ultimately the cycle-golden
//! file — from the output, comes from that index order: phis are visited
//! in ascending id, a block's phis and a phi's operands in insertion
//! order.
//!
//! What the builder holds can outgrow the input that made it hold it:
//! every block a variable's value is asked for in gets a definition row
//! (`n` blocks × `k` variables cells), and `k` variables read after `n`
//! sequential joins walk `k * n` steps and may leave as many phis. So
//! the builder charges the caller's [`CompileFuel`] roughly one unit per
//! four bytes it allocates — `num_vars` per definition row,
//! [`MISS_FUEL`] per walk step that finds nothing memoised,
//! [`OPERAND_FUEL`] per phi operand — and stops with a [`LimitError`]
//! (`what: "compile fuel"`) when the budget is gone: the bound on the
//! builder's memory is the fuel budget, never the host's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cage_wasm::{CompileFuel, LimitError};

/// A client-defined variable (e.g. a wasm local index).
pub type Var = u32;
/// A basic-block identifier handed out by [`SsaBuilder::new_block`].
pub type Block = u32;
/// An SSA value identifier handed out by [`SsaBuilder::new_value`] (or
/// internally for phis).
pub type Value = u32;

/// The value of a read with no reaching definition (only possible in
/// statically unreachable code): a phi over zero predecessors resolves
/// to this.
pub const UNDEF: Value = u32::MAX;

/// A cell of a definition row no value has been written to. Distinct
/// from [`UNDEF`], which is a definition.
const NO_DEF: Value = u32::MAX - 1;

/// Fuel per reaching-definition step that finds no memoised value: at a
/// join it adds a phi.
pub const MISS_FUEL: u64 = 8;

/// Fuel per operand appended to a phi.
pub const OPERAND_FUEL: u64 = 3;

#[derive(Debug, Default)]
struct BlockData {
    preds: Vec<Block>,
    sealed: bool,
    /// This block's row of `SsaBuilder::defs`, once it holds a
    /// definition.
    row: Option<u32>,
    /// Every phi created in this block, in ascending id (removed ones
    /// stay listed and are skipped when read back).
    phis: Vec<Value>,
    /// Phis created before the predecessor set was complete, awaiting
    /// [`SsaBuilder::seal_block`].
    incomplete: Vec<(Var, Value)>,
}

#[derive(Debug, Clone, Copy)]
struct ValueData {
    /// The value this one was replaced by (itself while it stands).
    replaced: Value,
    /// Index into `SsaBuilder::phis` while the value is a live phi.
    phi: Option<u32>,
}

/// One frame of the explicit reaching-definition walk
/// ([`SsaBuilder::run_read`]); replaces the recursion of Braun et al.'s
/// `readVariableRecursive`/`addPhiOperands` pair.
#[derive(Debug, Clone, Copy)]
enum Walk {
    /// Resolve the variable's value at the end of `block`.
    Read { block: Block },
    /// A single-predecessor chain hop: once the predecessor's value is
    /// known, memoize it in `block` too.
    Store { block: Block },
    /// Fill `phi`'s operands from the predecessors of `block`; `next` of
    /// them have been dispatched so far. `write_back` distinguishes a
    /// read-triggered phi (memoize the resolved value in the block's
    /// definition row) from a seal-triggered completion (leave the row
    /// alone).
    Fill {
        phi: Value,
        block: Block,
        next: usize,
        write_back: bool,
    },
}

/// Incremental SSA builder. See the module docs for the protocol:
/// create blocks, add predecessor edges, read/write variables, seal each
/// block once its predecessors are final, then call
/// [`SsaBuilder::finish`] and resolve operands.
#[derive(Debug, Default)]
pub struct SsaBuilder {
    num_vars: u32,
    blocks: Vec<BlockData>,
    /// Indexed by value id.
    values: Vec<ValueData>,
    /// Every phi ever created with its `(predecessor, value)` operands
    /// (one per predecessor edge, in edge order), in ascending value id.
    phis: Vec<(Value, Vec<(Block, Value)>)>,
    /// Definition rows of `num_vars` cells each: the value of every
    /// variable at the end of the row's block, [`NO_DEF`] where unknown.
    defs: Vec<Value>,
    /// The walk stack, kept between reads for its allocation.
    walk: Vec<Walk>,
}

impl SsaBuilder {
    /// Creates an empty builder for variables `0..num_vars`.
    #[must_use]
    pub fn new(num_vars: u32) -> Self {
        SsaBuilder {
            num_vars,
            ..Self::default()
        }
    }

    /// Allocates a fresh value id for a client-side definition.
    pub fn new_value(&mut self) -> Value {
        let v = self.values.len() as Value;
        self.values.push(ValueData {
            replaced: v,
            phi: None,
        });
        v
    }

    /// Creates a new, unsealed block with no predecessors.
    pub fn new_block(&mut self) -> Block {
        self.blocks.push(BlockData::default());
        self.blocks.len() as Block - 1
    }

    /// Registers a control-flow edge `pred -> block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already sealed.
    pub fn add_pred(&mut self, block: Block, pred: Block) {
        let data = &mut self.blocks[block as usize];
        assert!(!data.sealed, "edge added to sealed block {block}");
        data.preds.push(pred);
    }

    /// The predecessors of `block`, in registration order.
    #[must_use]
    pub fn preds(&self, block: Block) -> &[Block] {
        &self.blocks[block as usize].preds
    }

    /// The cell of `var` in definition row `row`.
    fn cell(&self, row: u32, var: Var) -> usize {
        assert!(var < self.num_vars, "variable {var} out of range");
        row as usize * self.num_vars as usize + var as usize
    }

    /// The recorded value of `var` at the end of `block`, if any.
    fn def(&self, var: Var, block: Block) -> Option<Value> {
        let v = self.defs[self.cell(self.blocks[block as usize].row?, var)];
        (v != NO_DEF).then_some(v)
    }

    /// Records that `var` holds `value` at the end of `block`.
    ///
    /// # Errors
    ///
    /// Compile fuel, when `block` needs its definition row.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not below the builder's `num_vars`.
    pub fn write_var(
        &mut self,
        var: Var,
        block: Block,
        value: Value,
        fuel: &CompileFuel,
    ) -> Result<(), LimitError> {
        let num_vars = self.num_vars as usize;
        let row = match self.blocks[block as usize].row {
            Some(row) => row,
            None => {
                fuel.charge(num_vars as u64)?;
                let row = (self.defs.len() / num_vars.max(1)) as u32;
                self.defs.resize(self.defs.len() + num_vars, NO_DEF);
                *self.blocks[block as usize].row.insert(row)
            }
        };
        let cell = self.cell(row, var);
        self.defs[cell] = value;
        Ok(())
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
    ///
    /// # Errors
    ///
    /// Compile fuel, when the walk runs it out.
    pub fn read_var(
        &mut self,
        var: Var,
        block: Block,
        fuel: &CompileFuel,
    ) -> Result<Value, LimitError> {
        // The common case — the block itself defines the variable —
        // allocates nothing and is covered by the caller's per-op charge.
        match self.def(var, block) {
            Some(v) => Ok(self.resolve(v)),
            None => self.run_read(var, Walk::Read { block }, fuel),
        }
    }

    /// Marks the predecessor set of `block` as final, completing any
    /// phis created while it was open (loop headers).
    ///
    /// # Errors
    ///
    /// Compile fuel, when completing the phis runs it out.
    ///
    /// # Panics
    ///
    /// Panics if `block` is already sealed.
    pub fn seal_block(&mut self, block: Block, fuel: &CompileFuel) -> Result<(), LimitError> {
        let data = &mut self.blocks[block as usize];
        assert!(!data.sealed, "block {block} sealed twice");
        data.sealed = true;
        for (var, phi) in std::mem::take(&mut data.incomplete) {
            // Seal-time completion leaves the block's definition row
            // alone: the phi stays recorded and redirects through the
            // replacement table if it turns out trivial.
            let fill = Walk::Fill {
                phi,
                block,
                next: 0,
                write_back: false,
            };
            self.run_read(var, fill, fuel)?;
        }
        Ok(())
    }

    /// The iterative engine behind [`SsaBuilder::read_var`] and
    /// [`SsaBuilder::seal_block`]: a faithful explicit-stack rendering
    /// of Braun et al.'s mutually recursive `readVariable` /
    /// `addPhiOperands`, preserving the exact order of value allocation
    /// and operand insertion (the bytecode derived from this feeds the
    /// cycle golden file).
    fn run_read(&mut self, var: Var, start: Walk, fuel: &CompileFuel) -> Result<Value, LimitError> {
        let mut stack = std::mem::take(&mut self.walk);
        stack.push(start);
        // The value produced by the most recently completed frame.
        let mut ret = UNDEF;
        while let Some(top) = stack.last_mut() {
            match *top {
                Walk::Read { block } => {
                    stack.pop();
                    if let Some(v) = self.def(var, block) {
                        ret = self.resolve(v);
                        continue;
                    }
                    fuel.charge(MISS_FUEL)?;
                    let data = &self.blocks[block as usize];
                    if !data.sealed {
                        ret = self.new_phi(block);
                        self.blocks[block as usize].incomplete.push((var, ret));
                        self.write_var(var, block, ret, fuel)?;
                    } else if data.preds.is_empty() {
                        ret = UNDEF;
                        self.write_var(var, block, UNDEF, fuel)?;
                    } else if let [pred] = data.preds[..] {
                        stack.push(Walk::Store { block });
                        stack.push(Walk::Read { block: pred });
                    } else {
                        // Break potential cycles (loops) by writing the
                        // phi before collecting its operands.
                        let phi = self.new_phi(block);
                        self.write_var(var, block, phi, fuel)?;
                        stack.push(Walk::Fill {
                            phi,
                            block,
                            next: 0,
                            write_back: true,
                        });
                    }
                }
                Walk::Store { block } => {
                    stack.pop();
                    self.write_var(var, block, ret, fuel)?;
                }
                Walk::Fill {
                    phi,
                    block,
                    next,
                    write_back,
                } => {
                    let preds = &self.blocks[block as usize].preds;
                    let pending = preds.get(next).copied();
                    if next > 0 {
                        // A predecessor read just completed: record it.
                        fuel.charge(OPERAND_FUEL)?;
                        self.add_phi_operand(phi, preds[next - 1], ret);
                    }
                    if let Some(pred) = pending {
                        *top = Walk::Fill {
                            phi,
                            block,
                            next: next + 1,
                            write_back,
                        };
                        stack.push(Walk::Read { block: pred });
                    } else {
                        stack.pop();
                        ret = self.try_remove_trivial(phi, fuel)?;
                        if write_back {
                            self.write_var(var, block, ret, fuel)?;
                        }
                    }
                }
            }
        }
        self.walk = stack;
        Ok(ret)
    }

    /// Creates an operand-less phi in `block` for the client to fill via
    /// [`SsaBuilder::add_phi_operand`] (used for block-result values,
    /// where the merged value lives on the operand stack rather than in
    /// a variable).
    pub fn new_phi(&mut self, block: Block) -> Value {
        let v = self.new_value();
        self.values[v as usize].phi = Some(self.phis.len() as u32);
        self.phis.push((v, Vec::new()));
        self.blocks[block as usize].phis.push(v);
        v
    }

    /// Index into `phis` of the live phi `phi`.
    fn phi_index(&self, phi: Value) -> usize {
        self.values[phi as usize].phi.expect("a live phi") as usize
    }

    /// Appends the operand `value` flowing into phi `phi` along the edge
    /// from `pred`.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a live phi.
    pub fn add_phi_operand(&mut self, phi: Value, pred: Block, value: Value) {
        let idx = self.phi_index(phi);
        self.phis[idx].1.push((pred, value));
    }

    /// Replaces `phi` by its unique operand when all operands agree
    /// (ignoring self-references); returns the surviving value. Charges
    /// one unit per operand looked at.
    fn try_remove_trivial(&mut self, phi: Value, fuel: &CompileFuel) -> Result<Value, LimitError> {
        let mut same: Option<Value> = None;
        let operands = &self.phis[self.phi_index(phi)].1;
        for (seen, &(_, raw)) in operands.iter().enumerate() {
            let v = self.resolve(raw);
            if v == phi || Some(v) == same || v == UNDEF {
                continue;
            }
            if same.is_some() {
                fuel.charge(seen as u64 + 1)?;
                return Ok(phi); // two distinct operands: not trivial
            }
            same = Some(v);
        }
        fuel.charge(operands.len() as u64 + 1)?;
        let same = same.unwrap_or(UNDEF);
        self.values[phi as usize] = ValueData {
            replaced: same,
            phi: None,
        };
        Ok(same)
    }

    /// Follows the trivial-phi redirection chain from `v` to the value
    /// that actually carries it.
    #[must_use]
    pub fn resolve(&self, mut v: Value) -> Value {
        while let Some(data) = self.values.get(v as usize) {
            if data.replaced == v {
                break;
            }
            v = data.replaced;
        }
        v
    }

    /// Runs trivial-phi elimination to a fixpoint. The on-the-fly
    /// algorithm can leave a phi that only *became* trivial when one of
    /// its operand phis was removed (no use lists are maintained); such
    /// leftovers are correct but redundant, and this pass removes them.
    /// Every redirection chain is then cut down to one hop, so
    /// [`SsaBuilder::resolve`] is a single lookup from here on. Call
    /// once after construction, before reading phis back.
    ///
    /// # Errors
    ///
    /// Compile fuel: each sweep charges for the operands it looks at,
    /// which bounds the number of sweeps a hostile phi web can force.
    pub fn finish(&mut self, fuel: &CompileFuel) -> Result<(), LimitError> {
        let mut changed = true;
        while std::mem::take(&mut changed) {
            for idx in 0..self.phis.len() {
                let id = self.phis[idx].0;
                changed |= self.is_phi(id) && self.try_remove_trivial(id, fuel)? != id;
            }
        }
        for v in 0..self.values.len() as Value {
            let root = self.resolve(v);
            let mut hop = v;
            while hop != root {
                hop = std::mem::replace(&mut self.values[hop as usize].replaced, root);
            }
        }
        Ok(())
    }

    /// Whether `v` is a (surviving) phi.
    #[must_use]
    pub fn is_phi(&self, v: Value) -> bool {
        self.values.get(v as usize).is_some_and(|d| d.phi.is_some())
    }

    /// The surviving phis of `block`, in ascending value order.
    pub fn phis_in(&self, block: Block) -> impl Iterator<Item = Value> + '_ {
        let created = self.blocks[block as usize].phis.iter();
        created.copied().filter(|&v| self.is_phi(v))
    }

    /// The `(predecessor, value)` operands of phi `v` as recorded, one
    /// per predecessor edge of its block, in edge order; the values still
    /// want [`SsaBuilder::resolve`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a surviving phi.
    #[must_use]
    pub fn phi_operands(&self, v: Value) -> &[(Block, Value)] {
        &self.phis[self.phi_index(v)].1
    }

    /// Total number of value ids allocated.
    #[must_use]
    pub fn num_values(&self) -> u32 {
        self.values.len() as u32
    }
}

/// Orders a parallel copy set (semantics: all sources are read before
/// any destination is written) into a sequential move list, breaking
/// swap cycles through the reserved `scratch` location.
///
/// Destinations must be distinct; `dst == src` self-copies are dropped.
/// This is the phi-elimination step: each predecessor of a join runs one
/// parallel copy writing every phi of the join, and the sequentialised
/// form is what the register bytecode actually executes.
///
/// The order is fixed: always the earliest copy (in input order) whose
/// destination no other pending copy still reads; when there is none,
/// every destination is also a source — a cycle — and the earliest
/// pending copy's destination is parked in `scratch` to open it. A
/// worklist keeps that `O(n log n)`: a copy becomes ready when the last
/// reader of its destination has been emitted.
#[must_use]
pub fn sequence_parallel_copies(copies: &[(u16, u16)], scratch: u16) -> Vec<(u16, u16)> {
    let pending: Vec<(u16, u16)> = copies.iter().copied().filter(|(d, s)| d != s).collect();
    let n = pending.len();
    if n <= 1 {
        return pending;
    }
    // The copy writing a slot: a binary search over the copies by
    // destination.
    let mut by_dst: Vec<usize> = (0..n).collect();
    by_dst.sort_unstable_by_key(|&i| pending[i].0);
    let writer = |slot: u16| {
        let found = by_dst.binary_search_by_key(&slot, |&i| pending[i].0);
        found.ok().map(|k| by_dst[k])
    };
    // Pending copies that read each copy's destination.
    let mut readers = vec![0u32; n];
    for &(_, s) in &pending {
        if let Some(w) = writer(s) {
            readers[w] += 1;
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| readers[i] == 0).map(Reverse).collect();
    let mut emitted = vec![false; n];
    let mut earliest = 0;
    // The slot whose value currently sits in `scratch`.
    let mut parked = None;
    let mut out = Vec::with_capacity(n + 1);
    let mut left = n;
    while left > 0 {
        let Some(Reverse(i)) = ready.pop() else {
            // With nothing ready every pending destination has exactly
            // one pending reader; that reader takes `scratch` instead,
            // which frees the destination.
            while emitted[earliest] {
                earliest += 1;
            }
            let d = pending[earliest].0;
            out.push((scratch, d));
            parked = Some(d);
            readers[earliest] = 0;
            ready.push(Reverse(earliest));
            continue;
        };
        let (d, s) = pending[i];
        emitted[i] = true;
        left -= 1;
        if parked == Some(s) {
            out.push((d, scratch));
            parked = None;
            continue;
        }
        out.push((d, s));
        if let Some(w) = writer(s) {
            readers[w] -= 1;
            if readers[w] == 0 {
                ready.push(Reverse(w));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fuel() -> CompileFuel {
        CompileFuel::new(u64::MAX)
    }

    #[test]
    fn straight_line_reads_see_writes() {
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let v0 = b.new_value();
        b.write_var(0, entry, v0, &fuel()).unwrap();
        assert_eq!(b.read_var(0, entry, &fuel()).unwrap(), v0);
    }

    #[test]
    fn diamond_join_creates_phi() {
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let (then_b, else_b, join) = (b.new_block(), b.new_block(), b.new_block());
        b.add_pred(then_b, entry);
        b.add_pred(else_b, entry);
        b.seal_block(then_b, &fuel()).unwrap();
        b.seal_block(else_b, &fuel()).unwrap();
        let (t, e) = (b.new_value(), b.new_value());
        b.write_var(0, then_b, t, &fuel()).unwrap();
        b.write_var(0, else_b, e, &fuel()).unwrap();
        b.add_pred(join, then_b);
        b.add_pred(join, else_b);
        b.seal_block(join, &fuel()).unwrap();
        let v = b.read_var(0, join, &fuel()).unwrap();
        b.finish(&fuel()).unwrap();
        assert!(b.is_phi(v));
        assert_eq!(b.phi_operands(v), [(then_b, t), (else_b, e)]);
        assert_eq!(b.phis_in(join).collect::<Vec<_>>(), [v]);
    }

    #[test]
    fn diamond_with_equal_values_is_trivial() {
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let v0 = b.new_value();
        b.write_var(0, entry, v0, &fuel()).unwrap();
        let (then_b, else_b, join) = (b.new_block(), b.new_block(), b.new_block());
        for arm in [then_b, else_b] {
            b.add_pred(arm, entry);
            b.seal_block(arm, &fuel()).unwrap();
            b.add_pred(join, arm);
        }
        b.seal_block(join, &fuel()).unwrap();
        let v = b.read_var(0, join, &fuel()).unwrap();
        b.finish(&fuel()).unwrap();
        assert_eq!(b.resolve(v), v0);
        assert_eq!(b.phis_in(join).count(), 0);
    }

    #[test]
    fn loop_header_phi_resolves_at_seal() {
        // entry -> header <-> body; header also exits. The variable is
        // incremented in the body, so the header phi is non-trivial.
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let v0 = b.new_value();
        b.write_var(0, entry, v0, &fuel()).unwrap();
        let header = b.new_block();
        b.add_pred(header, entry);
        let body = b.new_block();
        b.add_pred(body, header);
        b.seal_block(body, &fuel()).unwrap();
        let at_top = b.read_var(0, header, &fuel()).unwrap(); // incomplete phi
        let inc = b.new_value();
        b.write_var(0, body, inc, &fuel()).unwrap();
        b.add_pred(header, body);
        b.seal_block(header, &fuel()).unwrap();
        b.finish(&fuel()).unwrap();
        assert!(b.is_phi(at_top));
        assert_eq!(b.phi_operands(at_top), [(entry, v0), (body, inc)]);
    }

    #[test]
    fn loop_invariant_variable_needs_no_phi() {
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let v0 = b.new_value();
        b.write_var(0, entry, v0, &fuel()).unwrap();
        let header = b.new_block();
        b.add_pred(header, entry);
        let body = b.new_block();
        b.add_pred(body, header);
        b.seal_block(body, &fuel()).unwrap();
        let at_top = b.read_var(0, header, &fuel()).unwrap();
        // No write in the body: the back edge carries the same value.
        b.add_pred(header, body);
        b.seal_block(header, &fuel()).unwrap();
        b.finish(&fuel()).unwrap();
        assert_eq!(b.resolve(at_top), v0);
    }

    #[test]
    fn unreachable_read_is_undef() {
        let mut b = SsaBuilder::new(8);
        let orphan = b.new_block();
        b.seal_block(orphan, &fuel()).unwrap();
        assert_eq!(b.read_var(7, orphan, &fuel()).unwrap(), UNDEF);
    }

    #[test]
    fn deep_single_pred_chain_reads_without_recursion() {
        // 200k straight-line blocks: the variable is written once at the
        // top and read at the bottom. The read walk must traverse the
        // whole chain with its explicit stack — the old recursive
        // implementation overflowed the host stack around 100k here.
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let v0 = b.new_value();
        b.write_var(0, entry, v0, &fuel()).unwrap();
        let mut prev = entry;
        for _ in 0..200_000 {
            let blk = b.new_block();
            b.add_pred(blk, prev);
            b.seal_block(blk, &fuel()).unwrap();
            prev = blk;
        }
        let got = b.read_var(0, prev, &fuel()).unwrap();
        assert_eq!(b.resolve(got), v0);
    }

    #[test]
    fn deep_diamond_chain_seals_without_recursion() {
        // 100k sequential diamonds, each writing the variable in one arm:
        // every join needs a phi whose operands come from the previous
        // join's phi — the longest acyclic chain the seal path walks.
        let mut b = SsaBuilder::new(8);
        let entry = b.new_block();
        b.seal_block(entry, &fuel()).unwrap();
        let v0 = b.new_value();
        b.write_var(0, entry, v0, &fuel()).unwrap();
        let mut prev = entry;
        for _ in 0..100_000 {
            let (t, e, join) = (b.new_block(), b.new_block(), b.new_block());
            b.add_pred(t, prev);
            b.add_pred(e, prev);
            b.seal_block(t, &fuel()).unwrap();
            b.seal_block(e, &fuel()).unwrap();
            let w = b.new_value();
            b.write_var(0, t, w, &fuel()).unwrap();
            b.add_pred(join, t);
            b.add_pred(join, e);
            b.seal_block(join, &fuel()).unwrap();
            prev = join;
        }
        let v = b.read_var(0, prev, &fuel()).unwrap();
        b.finish(&fuel()).unwrap();
        assert!(b.is_phi(v));
    }

    #[test]
    fn parallel_copies_emit_in_dependency_order() {
        // b <- a must run before a is clobbered by a <- c.
        let out = sequence_parallel_copies(&[(0, 2), (1, 0)], 9);
        assert_eq!(out, vec![(1, 0), (0, 2)]);
    }

    #[test]
    fn parallel_copy_swap_goes_through_scratch() {
        let out = sequence_parallel_copies(&[(0, 1), (1, 0)], 9);
        assert_eq!(out, vec![(9, 0), (0, 1), (1, 9)]);
    }

    #[test]
    fn parallel_copy_three_cycle() {
        let out = sequence_parallel_copies(&[(0, 1), (1, 2), (2, 0)], 9);
        // Simulate to verify: start r0=100, r1=101, r2=102.
        let mut regs = [100u64, 101, 102, 0, 0, 0, 0, 0, 0, 0];
        for (d, s) in out {
            regs[d as usize] = regs[s as usize];
        }
        assert_eq!(&regs[..3], &[101, 102, 100]);
    }

    #[test]
    fn self_copies_are_dropped() {
        assert!(sequence_parallel_copies(&[(3, 3)], 9).is_empty());
    }
}
