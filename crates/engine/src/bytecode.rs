//! Bytecode lowering: the execution form of a function body.
//!
//! The structured `cage_wasm::Instr` tree is what the validator and the
//! toolchain passes consume; when a module is compiled
//! ([`crate::Precompiled`]) each body is lowered once, into **register
//! bytecode** ([`RegOp`] / [`RegCode`], built by [`compile_reg`]). The
//! body goes through SSA construction
//! (`cage_ir::ssa`, Braun-style) into virtual registers, phis are
//! eliminated with parallel copies, and a linear scan
//! (`cage_ir::regalloc`) assigns every value a slot in a fixed per-frame
//! register file. Stack shuffling disappears by construction:
//! `local.get`/`local.set`/`local.tee`, constants, `drop` and `nop`
//! dissolve into the dataflow, and each remaining dispatch is a generic
//! 3-address operation — or, after one instruction-selection step
//! (`select`) over the SSA form, a whole expression tree of them: an
//! array address, a comparison and the branch on it, an op and the phi
//! copy of its result. What is retired stays identical, class by class,
//! to executing the source instructions one by one (which is what the
//! tree-walking reference in `interp` does) because every register op
//! carries a *charge recipe* — the classes of the source ops it retired,
//! in original order — which the dispatch loop charges, as one packed
//! word of per-class counts, before the op body.
//! The loop dispatches by matching on the [`RegOp`] itself, so a
//! [`RegCode`] holds nothing per op beyond the op and its recipe.
//!
//! `cage_wasm::Instr` is the only instruction vocabulary. The 128
//! numeric instructions lower by one lookup in the table of
//! `cage_wasm::numeric`: the row's family ([`AluOp`], [`DivOp`] or
//! [`UnaOp`], defined there and re-exported here) picks the 3-address
//! form, its class the [`ChargeTag`], and its `eval` is what the dispatch
//! loop runs. The twelve stateful data instructions (globals, memory
//! management, the Fig. 11 segment and pointer instructions,
//! `unreachable`) lower to one inline op, [`RegOp::Sys`]: a [`SysOp`],
//! up to three operand registers, a result register and the
//! instruction's immediate. No register op holds an `Instr`, and nothing
//! the dispatch loop runs reads one: the `Instr` tree ends here, in the
//! lowering (and in the tree-walking oracle, `crate::tree`, which
//! production never enters). A `Sys` op still disassembles as `bridge
//! global.get 0 args [] -> r4` — the name is from when these ran through
//! the oracle's `exec_op` on a staged operand stack — because the
//! disassembly is pinned byte for byte (`golden_regcode_digests.tsv`) and
//! the change of executor was not a change of lowering.
//!
//! Statically unreachable code (anything following an unconditional
//! branch inside a block) is never lowered; all that survives of it is
//! the construct's join block, which may itself be unreachable.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

use cage_ir::regalloc::{self, BlockRange, LivenessInput, ValueRef};
use cage_ir::ssa::{self, SsaBuilder, UNDEF};
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::numeric::{self, slot_i32, slot_i64, Numeric, NumericClass};
use cage_wasm::{CompileFuel, FuncType, Instr, LimitError, Module};

use crate::cost::ChargeClass;

/// The three register-form families of the numeric instructions, named
/// after the instructions they lower from. Their variant lists, semantics
/// (`eval`) and charge classes are rows of the one table in
/// [`cage_wasm::numeric`].
pub use cage_wasm::numeric::{AluOp, DivOp, UnaOp};

// ===========================================================================
// Register bytecode
// ===========================================================================

/// Cycle-charge class of one retired source instruction.
///
/// The register lowering dissolves stack shuffling (`local.get`/`set`/
/// `tee`, constants, `drop`, `nop`) into the dataflow, so a single
/// [`RegOp`] can retire several source instructions. To keep the retired
/// counts per class identical to the tree-walking reference, every
/// register op carries a *charge recipe*: the class tags of its
/// constituent source ops in original program order, and the same recipe
/// as one packed word of per-class counts ([`RegCode::packed`]).
/// The dispatch loop adds that word to its running sum before running
/// the op body, so a trap inside the op leaves exactly the charges the
/// unfused sequence would have.
///
/// A tag's discriminant is three things at once: its lane in the packed
/// word, its index in the trie of the recipe interner, and — being the
/// discriminant of the [`ChargeClass`] of the same name — its index in
/// the instance's count vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum ChargeTag {
    /// Integer ALU / stack-shuffle class.
    Simple = ChargeClass::Simple as u8,
    /// Float arithmetic, comparison and conversion class.
    Float = ChargeClass::Float as u8,
    /// Integer division/remainder class.
    Div = ChargeClass::Div as u8,
    /// Float division / square-root class.
    FloatDiv = ChargeClass::FloatDiv as u8,
    /// Branch class.
    Branch = ChargeClass::Branch as u8,
    /// Direct-call class.
    Call = ChargeClass::Call as u8,
    /// Indirect-call class.
    CallIndirect = ChargeClass::CallIndirect as u8,
    /// Memory-access class.
    Mem = ChargeClass::Mem as u8,
    /// Free op that still retires an instruction (`i32.wrap_i64`,
    /// `i64.extend_i32_{s,u}` charge zero cycles on this machine).
    Zero = ChargeClass::Zero as u8,
}

impl ChargeTag {
    /// Number of charge classes (the tags are `0..COUNT` as `u8`).
    pub const COUNT: usize = ChargeTag::Zero as usize + 1;
}

impl From<NumericClass> for ChargeTag {
    fn from(class: NumericClass) -> Self {
        match class {
            NumericClass::Simple => ChargeTag::Simple,
            NumericClass::Float => ChargeTag::Float,
            NumericClass::Div => ChargeTag::Div,
            NumericClass::FloatDiv => ChargeTag::FloatDiv,
            NumericClass::Free => ChargeTag::Zero,
        }
    }
}

const _: () = {
    assert!(MAX_RECIPE <= u16::MAX as usize);
    assert!(MAX_RECIPE < lane_limit(ChargeTag::Simple as usize));
    assert!(lane_shift(ChargeTag::COUNT) == u64::BITS);
};

/// Longest recipe one op carries. [`emit_reg`] splits a longer one over
/// leading [`RegOp::Nop`] carriers, so a recipe's length fits the `u16`
/// of [`RegCode::recipes`].
const MAX_RECIPE: usize = 4096;

/// Width of lane `lane` of a packed recipe ([`RegCode::packed`]): the
/// lanes of the nine tags fill a `u64`, which is what lets the dispatch
/// loop keep its running sum in one register. A recipe is mostly
/// dissolved stack shuffles — all [`ChargeTag::Simple`] — around the tags
/// of the few instructions its op stands for, so the simple lane is wide
/// and the others narrow.
const fn lane_bits(lane: usize) -> u32 {
    if lane == ChargeTag::Simple as usize {
        16
    } else {
        6
    }
}

/// Position of lane `lane` in the packed word.
const fn lane_shift(lane: usize) -> u32 {
    let mut shift = 0;
    let mut below = 0;
    while below < lane {
        shift += lane_bits(below);
        below += 1;
    }
    shift
}

/// What one recipe may add to lane `lane` stays below this: half the
/// lane's range, the value of its guard bit.
const fn lane_limit(lane: usize) -> usize {
    1 << (lane_bits(lane) - 1)
}

/// The top bit of every lane. The dispatch loop adds one packed recipe
/// per op to a running sum and empties the sum into the instance's
/// counts as soon as one of these is set: a lane under its guard bit is
/// below half its range and one more recipe adds less than the other
/// half, so no lane ever carries into its neighbour.
pub(crate) const LANE_GUARD: u64 = {
    let mut guard = 0;
    let mut lane = 0;
    while lane < ChargeTag::COUNT {
        guard |= (lane_limit(lane) as u64) << lane_shift(lane);
        lane += 1;
    }
    guard
};

/// The count of each tag in `recipe`'s longest prefix that one op can
/// carry — at most [`MAX_RECIPE`] tags, each tag fewer times than its
/// lane's limit — and the length of that prefix.
fn fitting_prefix(recipe: &[ChargeTag]) -> ([usize; ChargeTag::COUNT], usize) {
    let mut counts = [0; ChargeTag::COUNT];
    for (taken, &tag) in recipe.iter().take(MAX_RECIPE).enumerate() {
        if counts[tag as usize] + 1 == lane_limit(tag as usize) {
            return (counts, taken);
        }
        counts[tag as usize] += 1;
    }
    (counts, recipe.len().min(MAX_RECIPE))
}

/// Packs per-tag counts (of a [`fitting_prefix`]) into one lane per tag.
fn pack_counts(counts: &[usize; ChargeTag::COUNT]) -> u64 {
    counts
        .iter()
        .enumerate()
        .fold(0, |word, (lane, &n)| word | (n as u64) << lane_shift(lane))
}

/// Adds the lanes of a sum of packed recipes to the count vector they
/// index (the recipe classes come first in it).
pub(crate) fn unpack_lanes(acc: u64, counts: &mut [u64; ChargeClass::COUNT]) {
    for (lane, count) in counts.iter_mut().take(ChargeTag::COUNT).enumerate() {
        *count += (acc >> lane_shift(lane)) & ((1 << lane_bits(lane)) - 1);
    }
}

/// A direct call in register form: argument and result register lists
/// replace the operand stack. The callee's own frame is laid out by its
/// [`RegCode::param_slots`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegCall {
    /// Callee function index (joint index space).
    pub func: u32,
    /// Argument registers, in signature order.
    pub args: Box<[u16]>,
    /// Result registers, in signature order.
    pub rets: Box<[u16]>,
}

/// An indirect call in register form.
#[derive(Debug, Clone, PartialEq)]
pub struct RegCallIndirect {
    /// Expected signature (type index).
    pub type_idx: u32,
    /// Register holding the table index.
    pub sel: u16,
    /// Argument registers, in signature order.
    pub args: Box<[u16]>,
    /// Result registers, in signature order.
    pub rets: Box<[u16]>,
}

/// The twelve stateful instructions of [`RegOp::Sys`]: globals, memory
/// management, the paper's Fig. 11 segment and pointer instructions, and
/// `unreachable`. What an instruction carried as an immediate (the global
/// index, the static offset of the `segment.*` forms) rides in the op's
/// `imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SysOp {
    /// `unreachable`.
    Unreachable,
    /// `global.get imm`.
    GlobalGet,
    /// `global.set imm`.
    GlobalSet,
    /// `memory.size`.
    MemorySize,
    /// `memory.grow`.
    MemoryGrow,
    /// `memory.fill`: operands `dst, val, len`.
    MemoryFill,
    /// `memory.copy`: operands `dst, src, len`.
    MemoryCopy,
    /// `segment.new offset=imm`: operands `ptr, len`.
    SegmentNew,
    /// `segment.set_tag offset=imm`: operands `ptr, tagged, len`.
    SegmentSetTag,
    /// `segment.free offset=imm`: operands `ptr, len`.
    SegmentFree,
    /// `i64.pointer_sign`.
    PointerSign,
    /// `i64.pointer_auth`.
    PointerAuth,
}

impl SysOp {
    /// The register form of a stateful instruction and its immediate;
    /// `None` for every other instruction.
    pub(crate) fn of(instr: &Instr) -> Option<(SysOp, u64)> {
        Some(match *instr {
            Instr::Unreachable => (SysOp::Unreachable, 0),
            Instr::GlobalGet(i) => (SysOp::GlobalGet, u64::from(i)),
            Instr::GlobalSet(i) => (SysOp::GlobalSet, u64::from(i)),
            Instr::MemorySize => (SysOp::MemorySize, 0),
            Instr::MemoryGrow => (SysOp::MemoryGrow, 0),
            Instr::MemoryFill => (SysOp::MemoryFill, 0),
            Instr::MemoryCopy => (SysOp::MemoryCopy, 0),
            Instr::SegmentNew(offset) => (SysOp::SegmentNew, offset),
            Instr::SegmentSetTag(offset) => (SysOp::SegmentSetTag, offset),
            Instr::SegmentFree(offset) => (SysOp::SegmentFree, offset),
            Instr::PointerSign => (SysOp::PointerSign, 0),
            Instr::PointerAuth => (SysOp::PointerAuth, 0),
            _ => return None,
        })
    }

    /// How many operand registers the op reads (deepest stack operand
    /// first) and whether it writes a result.
    #[must_use]
    pub const fn effect(self) -> (usize, bool) {
        match self {
            SysOp::Unreachable => (0, false),
            SysOp::GlobalGet | SysOp::MemorySize => (0, true),
            SysOp::GlobalSet => (1, false),
            SysOp::MemoryGrow | SysOp::PointerSign | SysOp::PointerAuth => (1, true),
            SysOp::SegmentFree => (2, false),
            SysOp::SegmentNew => (2, true),
            SysOp::MemoryFill | SysOp::MemoryCopy | SysOp::SegmentSetTag => (3, false),
        }
    }

    /// The text of the instruction this op stands for, as the wasm text
    /// format spells it.
    fn text(self, imm: u64) -> String {
        match self {
            SysOp::Unreachable => "unreachable".into(),
            SysOp::GlobalGet => format!("global.get {imm}"),
            SysOp::GlobalSet => format!("global.set {imm}"),
            SysOp::MemorySize => "memory.size".into(),
            SysOp::MemoryGrow => "memory.grow".into(),
            SysOp::MemoryFill => "memory.fill".into(),
            SysOp::MemoryCopy => "memory.copy".into(),
            SysOp::SegmentNew => format!("segment.new offset={imm}"),
            SysOp::SegmentSetTag => format!("segment.set_tag offset={imm}"),
            SysOp::SegmentFree => format!("segment.free offset={imm}"),
            SysOp::PointerSign => "i64.pointer_sign".into(),
            SysOp::PointerAuth => "i64.pointer_auth".into(),
        }
    }
}

/// How [`RegOp::IndexAdd`] widens its index register before scaling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexExt {
    /// The index is an `i64` already.
    None,
    /// `i64.extend_i32_s`.
    S32,
    /// `i64.extend_i32_u`.
    U32,
}

impl IndexExt {
    /// The widening instruction this stands for, when there is one.
    fn of(op: UnaOp) -> Option<IndexExt> {
        match op {
            UnaOp::I64ExtendI32S => Some(IndexExt::S32),
            UnaOp::I64ExtendI32U => Some(IndexExt::U32),
            _ => None,
        }
    }

    /// Widens an index slot: the table row of the instruction this
    /// stands for (neither row traps).
    #[inline(always)]
    #[must_use]
    pub fn eval(self, x: u64) -> u64 {
        let widened = match self {
            IndexExt::None => return x,
            IndexExt::S32 => UnaOp::I64ExtendI32S.eval(x),
            IndexExt::U32 => UnaOp::I64ExtendI32U.eval(x),
        };
        widened.unwrap_or(x)
    }
}

/// A register bytecode instruction: generic 3-address operations over a
/// fixed per-frame register file. No operand stack exists at run time;
/// branch targets are plain pcs (the register file needs no collapse).
///
/// Three forms retire a whole expression tree in one dispatch, the way
/// the paper's AArch64 backend selects `add Xd, Xn, Wm, SXTW`/`madd` and
/// `b.cond`/`cbz` for the same trees: [`RegOp::IndexAdd`],
/// [`RegOp::BrCmp`] and [`RegOp::BrCmpImm`]. Each carries the recipes of
/// the instructions it stands for, in order, so what is charged — and
/// where a trap or the end of the fuel finds the counts — does not move.
#[derive(Debug, Clone, PartialEq)]
pub enum RegOp {
    /// Placeholder that only carries a charge recipe (source ops whose
    /// effects fully dissolved, pinned at a control-flow point).
    Nop,
    /// Unconditional jump.
    Jump(u32),
    /// Jump when `cond` (as i32) is non-zero.
    BrIf {
        /// Condition register.
        cond: u16,
        /// Destination pc.
        target: u32,
    },
    /// Jump when `cond` (as i32) is zero (the false edge of `if`).
    BrIfZ {
        /// Condition register.
        cond: u16,
        /// Destination pc.
        target: u32,
    },
    /// Jump when `a op b` is non-zero — or, with `negate`, when it is
    /// zero: a comparison (and an `i32.eqz` of it) fused into the branch
    /// that consumed it.
    BrCmp {
        /// The comparison.
        op: AluOp,
        /// Branch on a zero result instead.
        negate: bool,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
        /// Destination pc.
        target: u32,
    },
    /// [`RegOp::BrCmp`] with the right operand folded.
    BrCmpImm {
        /// The comparison.
        op: AluOp,
        /// Branch on a zero result instead.
        negate: bool,
        /// Left operand register.
        a: u16,
        /// Pre-encoded right operand.
        k: u64,
        /// Destination pc.
        target: u32,
    },
    /// Indexed jump; out-of-range selectors take the default, stored
    /// last.
    BrTable {
        /// Selector register.
        sel: u16,
        /// Destination pcs, default last.
        targets: Box<[u32]>,
    },
    /// Function return carrying the result registers.
    Ret {
        /// Result registers, in signature order.
        srcs: Box<[u16]>,
    },
    /// Direct call.
    Call(Box<RegCall>),
    /// Indirect call.
    CallIndirect(Box<RegCallIndirect>),
    /// `dst <- src` (phi-elimination copy; free, no recipe).
    Move {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `dst <- constant` (materialized constant; free unless it carries
    /// a recipe).
    Const {
        /// Destination register.
        dst: u16,
        /// Pre-encoded operand slot.
        v: u64,
    },
    /// `dst <- a op b`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Right operand register.
        b: u16,
    },
    /// `dst <- a op b` for division/remainder: the integer forms trap on
    /// a zero divisor (and `INT_MIN / -1`), after the recipe — which
    /// carries the `Div`/`FloatDiv` charge — has been charged.
    Div {
        /// The operation.
        op: DivOp,
        /// Destination register.
        dst: u16,
        /// Dividend register.
        a: u16,
        /// Divisor register.
        b: u16,
    },
    /// `dst <- a op constant` (right operand folded).
    AluImm {
        /// The operation.
        op: AluOp,
        /// Destination register.
        dst: u16,
        /// Left operand register.
        a: u16,
        /// Pre-encoded right operand.
        k: u64,
    },
    /// `dst <- op a`.
    Una {
        /// The operation.
        op: UnaOp,
        /// Destination register.
        dst: u16,
        /// Operand register.
        a: u16,
    },
    /// `dst <- base + ext(idx) * k`, wrapping: the address of `A[i]` — an
    /// `i64.extend_i32_{s,u}` (or none), an `i64.mul` by a constant and
    /// an `i64.add`, fused.
    IndexAdd {
        /// Destination register.
        dst: u16,
        /// Base register.
        base: u16,
        /// Index register.
        idx: u16,
        /// How the index widens to `i64`.
        ext: IndexExt,
        /// Pre-encoded scale.
        k: u64,
    },
    /// `dst <- cond != 0 ? a : b`.
    Select {
        /// Destination register.
        dst: u16,
        /// Condition register.
        cond: u16,
        /// Value when the condition is non-zero.
        a: u16,
        /// Value when the condition is zero.
        b: u16,
    },
    /// `dst <- memory[addr + offset]`.
    Load {
        /// Access width and extension.
        op: LoadOp,
        /// Static byte offset.
        offset: u64,
        /// Destination register.
        dst: u16,
        /// Address register.
        addr: u16,
    },
    /// `memory[addr + offset] <- val`.
    Store {
        /// Access width.
        op: StoreOp,
        /// Static byte offset.
        offset: u64,
        /// Address register.
        addr: u16,
        /// Value register.
        val: u16,
    },
    /// A stateful instruction (see [`SysOp`]), run out of line by the
    /// dispatch loop. Unlike every other op it retires its own
    /// instruction: the recipe holds only what dissolved in front of it,
    /// and the arm charges the op's class — and, for the bulk and segment
    /// forms, the bytes or granules its operands name — before anything
    /// in it can trap.
    Sys {
        /// The instruction.
        op: SysOp,
        /// Operand registers, deepest stack operand first; the first
        /// `op.effect().0` are read.
        args: [u16; 3],
        /// Result register, when the instruction pushes one.
        ret: Option<u16>,
        /// Global index or static offset.
        imm: u64,
    },
}

// The dispatch loop indexes `RegCode::ops` by pc (`lea (%r12,%r12,2)`):
// an op that outgrows three words slows every dispatch.
const _: () = assert!(std::mem::size_of::<RegOp>() == 24);

/// A function body compiled to register bytecode: the ops, their charge
/// recipes and the frame layout. Dispatch is a `match` on the op, so
/// there is no per-op handler resolution to carry.
#[derive(Debug, Clone, Default)]
pub struct RegCode {
    /// The flat instruction array.
    pub ops: Box<[RegOp]>,
    /// Per-op charge recipe as `(offset, len)` into [`RegCode::pool`]
    /// (parallel to `ops`; `(0, 0)` when empty).
    pub recipes: Box<[(u32, u16)]>,
    /// Interned charge-tag pool shared by all recipes.
    pub pool: Box<[ChargeTag]>,
    /// Per-op recipe again, as counts: how many tags of each class it
    /// holds, [`ChargeTag::COUNT`] lanes in one word (parallel to `ops`).
    /// This is what the dispatch loop reads — one integer add per op,
    /// whatever the recipe's length; `recipes`/`pool` keep the order for
    /// the disassembly.
    pub packed: Box<[u64]>,
    /// Total frame slots, including the reserved scratch slot (the last
    /// one), which parallel-copy cycles and dead writes use.
    pub frame_size: u16,
    /// Frame slot of each parameter, in signature order: the caller
    /// writes arguments straight into the callee frame.
    pub param_slots: Box<[u16]>,
}

// -- register lowering, pass 1: structured body -> SSA CFG ------------------

/// A register instruction over SSA values, before slot assignment.
#[derive(Debug)]
enum RInst {
    /// Charge-recipe carrier with no effect (dissolved ops pinned at a
    /// fall-through point); emits [`RegOp::Nop`].
    Flush,
    Alu {
        op: AluOp,
        dst: ssa::Value,
        a: ssa::Value,
        b: ssa::Value,
    },
    Div {
        op: DivOp,
        dst: ssa::Value,
        a: ssa::Value,
        b: ssa::Value,
    },
    Una {
        op: UnaOp,
        dst: ssa::Value,
        a: ssa::Value,
    },
    /// `dst <- base + ext(idx) * k`; only [`select`] makes these.
    IndexAdd {
        dst: ssa::Value,
        base: ssa::Value,
        idx: ssa::Value,
        ext: IndexExt,
        k: u64,
    },
    Select {
        dst: ssa::Value,
        cond: ssa::Value,
        a: ssa::Value,
        b: ssa::Value,
    },
    Load {
        op: LoadOp,
        offset: u64,
        dst: ssa::Value,
        addr: ssa::Value,
    },
    Store {
        op: StoreOp,
        offset: u64,
        addr: ssa::Value,
        val: ssa::Value,
    },
    Call {
        func: u32,
        args: Vec<ssa::Value>,
        rets: Vec<ssa::Value>,
    },
    CallIndirect {
        type_idx: u32,
        sel: ssa::Value,
        args: Vec<ssa::Value>,
        rets: Vec<ssa::Value>,
    },
    Sys {
        op: SysOp,
        imm: u64,
        args: Vec<ssa::Value>,
        ret: Option<ssa::Value>,
    },
}

/// Block terminator over SSA values.
#[derive(Debug, Default)]
enum LTerm {
    /// Fall through to the next block in layout order (emits no op).
    #[default]
    None,
    Jump(ssa::Block),
    BrIf {
        cond: ssa::Value,
        then_b: ssa::Block,
    },
    BrIfZ {
        cond: ssa::Value,
        else_b: ssa::Block,
    },
    /// Branch when `a op b` is non-zero (zero, with `negate`); only
    /// [`select`] makes these.
    BrCmp {
        op: AluOp,
        negate: bool,
        a: ssa::Value,
        b: ssa::Value,
        target: ssa::Block,
    },
    BrTable {
        sel: ssa::Value,
        targets: Vec<ssa::Block>,
    },
    Ret {
        srcs: Vec<ssa::Value>,
    },
    /// Unreachable end (a trapping [`RInst::Sys`] precedes it); emits no op.
    Halt,
}

/// How an instruction touches one of its SSA operands.
#[derive(Clone, Copy, PartialEq)]
enum Operand {
    /// Read from a register.
    Use,
    /// Read that may stay a constant: the right operand of an ALU op
    /// folds into an immediate form.
    FoldableUse,
    /// Written.
    Def,
}

impl RInst {
    /// The value the instruction defines, when it is one that [`select`]
    /// may rename (calls and stateful ops define theirs in place).
    fn dst_mut(&mut self) -> Option<&mut ssa::Value> {
        match self {
            RInst::Alu { dst, .. }
            | RInst::Div { dst, .. }
            | RInst::Una { dst, .. }
            | RInst::IndexAdd { dst, .. }
            | RInst::Select { dst, .. }
            | RInst::Load { dst, .. } => Some(dst),
            RInst::Flush
            | RInst::Store { .. }
            | RInst::Call { .. }
            | RInst::CallIndirect { .. }
            | RInst::Sys { .. } => None,
        }
    }

    /// Enumerates the operands, uses before definitions.
    fn operands(&self, mut f: impl FnMut(Operand, ssa::Value)) {
        use Operand::{Def, FoldableUse, Use};
        match self {
            RInst::Flush => {}
            RInst::Alu { dst, a, b, .. } => {
                f(Use, *a);
                f(FoldableUse, *b);
                f(Def, *dst);
            }
            RInst::Div { dst, a, b, .. } => {
                f(Use, *a);
                f(Use, *b);
                f(Def, *dst);
            }
            RInst::Una { dst, a, .. } | RInst::Load { dst, addr: a, .. } => {
                f(Use, *a);
                f(Def, *dst);
            }
            RInst::IndexAdd { dst, base, idx, .. } => {
                f(Use, *base);
                f(Use, *idx);
                f(Def, *dst);
            }
            RInst::Select { dst, cond, a, b } => {
                f(Use, *cond);
                f(Use, *a);
                f(Use, *b);
                f(Def, *dst);
            }
            RInst::Store { addr, val, .. } => {
                f(Use, *addr);
                f(Use, *val);
            }
            RInst::Call { args, rets, .. } => {
                args.iter().for_each(|&a| f(Use, a));
                rets.iter().for_each(|&d| f(Def, d));
            }
            RInst::CallIndirect {
                sel, args, rets, ..
            } => {
                f(Use, *sel);
                args.iter().for_each(|&a| f(Use, a));
                rets.iter().for_each(|&d| f(Def, d));
            }
            RInst::Sys { args, ret, .. } => {
                args.iter().for_each(|&a| f(Use, a));
                ret.iter().for_each(|&d| f(Def, d));
            }
        }
    }
}

impl LTerm {
    /// Enumerates the values the terminator reads.
    fn operands(&self, mut f: impl FnMut(Operand, ssa::Value)) {
        use Operand::{FoldableUse, Use};
        match self {
            LTerm::BrIf { cond: v, .. }
            | LTerm::BrIfZ { cond: v, .. }
            | LTerm::BrTable { sel: v, .. } => f(Use, *v),
            LTerm::BrCmp { a, b, .. } => {
                f(Use, *a);
                f(FoldableUse, *b);
            }
            LTerm::Ret { srcs } => srcs.iter().for_each(|&s| f(Use, s)),
            LTerm::None | LTerm::Jump(_) | LTerm::Halt => {}
        }
    }
}

/// A charge recipe during lowering: a run of [`RegCompiler::tags`].
type Recipe = Range<u32>;

/// Table marker: no entry.
const NONE: u32 = u32::MAX;

/// One lowered basic block: instructions plus terminator, each with its
/// charge recipe, and the successor edges (mirrored into the SSA
/// builder's predecessor lists). A block is only ever appended to while
/// it is the current one, so its instructions and edges are contiguous
/// runs of the compiler's two arenas.
#[derive(Debug, Default)]
struct LBlock {
    /// Run of [`RegCompiler::insts`].
    insts: Range<u32>,
    term: LTerm,
    term_recipe: Recipe,
    /// Run of [`RegCompiler::succs`].
    succs: Range<u32>,
    /// Position in [`RegCompiler::layout`].
    layout_idx: u32,
}

/// One open control construct during register lowering. Every construct
/// gets an explicit join block with one phi per result; trivial phis are
/// collapsed by `SsaBuilder::finish`, so straight-line constructs cost
/// nothing.
struct RCtrlFrame {
    /// Branch destination (loop header, or the join for blocks/ifs).
    br_block: ssa::Block,
    /// Phis a branch to this label feeds (empty for loops).
    br_phis: Vec<ssa::Value>,
    /// The join block where the construct's fall-through ends.
    end_block: ssa::Block,
    /// Phis holding the construct's results at the join.
    end_phis: Vec<ssa::Value>,
    /// Operand-stack height at construct entry.
    height: usize,
}

struct RegCompiler<'m> {
    module: &'m Module,
    fuel: &'m CompileFuel,
    b: SsaBuilder,
    /// Lowered blocks, indexed by `ssa::Block` id.
    blocks: Vec<LBlock>,
    /// Emission order: blocks in the order control falls through them.
    layout: Vec<ssa::Block>,
    cur: ssa::Block,
    /// The abstract operand stack, holding SSA values.
    stack: Vec<ssa::Value>,
    ctrl: Vec<RCtrlFrame>,
    /// The instructions of every block with their recipes, in layout
    /// order.
    insts: Vec<(RInst, Recipe)>,
    /// The successor edges of every block, in layout order, each with
    /// its index among the successor's predecessor edges.
    succs: Vec<(ssa::Block, u32)>,
    /// The charge tags of every recipe, in source order. The tail from
    /// `pending_from` on is dissolved ops awaiting a carrier instruction.
    tags: Vec<ChargeTag>,
    pending_from: u32,
    consts: ConstPool,
}

/// The constants of a function under lowering: one SSA value per bit
/// pattern, shared across uses.
#[derive(Default)]
struct ConstPool {
    /// Bits -> value id. Keyed by guest-chosen bits, so hashed, and never
    /// iterated.
    ids: HashMap<u64, ssa::Value>,
    /// Every constant `(value id, bits)`, in ascending value id...
    list: Vec<(ssa::Value, u64)>,
    /// ...and value id -> index into `list` (grown on demand, [`NONE`]
    /// for other values), for immediates and materialization.
    of: Vec<u32>,
}

impl ConstPool {
    /// The bits of a (resolved) value, when it is a constant.
    fn bits(&self, v: ssa::Value) -> Option<u64> {
        let idx = *self.of.get(v as usize)?;
        (idx != NONE).then(|| self.list[idx as usize].1)
    }
}

impl<'m> RegCompiler<'m> {
    /// The instructions of a (closed) block, with their recipes.
    fn insts_of(&self, lb: &LBlock) -> &[(RInst, Recipe)] {
        &self.insts[lb.insts.start as usize..lb.insts.end as usize]
    }

    /// The successor edges of a (closed) block.
    fn succs_of(&self, lb: &LBlock) -> &[(ssa::Block, u32)] {
        &self.succs[lb.succs.start as usize..lb.succs.end as usize]
    }

    fn new_block(&mut self) -> ssa::Block {
        let blk = self.b.new_block();
        debug_assert_eq!(blk as usize, self.blocks.len());
        self.blocks.push(LBlock::default());
        blk
    }

    /// Makes `blk` the current block and appends it to the layout; the
    /// previous block (if it ended with [`LTerm::None`]) falls through
    /// into it.
    fn start_block(&mut self, blk: ssa::Block) {
        self.close_block();
        let lb = &mut self.blocks[blk as usize];
        lb.layout_idx = self.layout.len() as u32;
        lb.insts.start = self.insts.len() as u32;
        lb.succs.start = self.succs.len() as u32;
        self.layout.push(blk);
        self.cur = blk;
    }

    /// Ends the current block's runs of instructions and edges.
    fn close_block(&mut self) {
        let lb = &mut self.blocks[self.cur as usize];
        lb.insts.end = self.insts.len() as u32;
        lb.succs.end = self.succs.len() as u32;
    }

    /// Registers the CFG edge `cur -> to` (each `(pred, succ)` pair is
    /// registered at most once by construction).
    fn edge(&mut self, to: ssa::Block) {
        self.succs.push((to, self.b.preds(to).len() as u32));
        self.b.add_pred(to, self.cur);
    }

    fn const_value(&mut self, bits: u64) -> ssa::Value {
        let pool = &mut self.consts;
        if let Some(&v) = pool.ids.get(&bits) {
            return v;
        }
        let v = self.b.new_value();
        pool.ids.insert(bits, v);
        pool.of.resize(v as usize + 1, NONE);
        pool.of[v as usize] = pool.list.len() as u32;
        pool.list.push((v, bits));
        v
    }

    /// Takes the pending tags as a recipe.
    fn take_pending(&mut self) -> Recipe {
        let end = self.tags.len() as u32;
        std::mem::replace(&mut self.pending_from, end)..end
    }

    /// Emits an instruction whose recipe is the pending tags and then
    /// `tag`, the class of the instruction itself — none for a
    /// [`RInst::Sys`], which retires its own instruction in its arm.
    fn emit(&mut self, inst: RInst, tag: impl Into<Option<ChargeTag>>) {
        self.tags.extend(tag.into());
        let recipe = self.take_pending();
        self.insts.push((inst, recipe));
    }

    /// Pins pending charges on a [`RInst::Flush`] before a point where
    /// control can leave the block without a terminator op.
    fn flush_pending(&mut self) {
        let recipe = self.take_pending();
        if !recipe.is_empty() {
            self.insts.push((RInst::Flush, recipe));
        }
    }

    fn terminate(&mut self, term: LTerm, recipe: Recipe) {
        let blk = &mut self.blocks[self.cur as usize];
        blk.term = term;
        blk.term_recipe = recipe;
    }

    /// Pending tags plus a final `tag` — the recipe of a charging
    /// terminator.
    fn branch_recipe(&mut self, tag: ChargeTag) -> Recipe {
        self.tags.push(tag);
        self.take_pending()
    }

    /// Feeds the top `phis.len()` stack values into `phis` along the
    /// edge `cur -> their block` (values stay on the stack).
    fn feed_phis(&mut self, phis: &[ssa::Value]) {
        let top = self.stack.len() - phis.len();
        for (phi, &v) in phis.iter().zip(&self.stack[top..]) {
            self.b.add_phi_operand(*phi, self.cur, v);
        }
    }

    /// Closes the innermost construct: adds the fall-through edge into
    /// the join (unless the body ended on a terminator), resets the
    /// operand stack to entry height plus the join phis, and continues
    /// lowering in the join block.
    fn end_construct(&mut self, terminated: bool) -> Result<(), LimitError> {
        let frame = self.ctrl.pop().expect("control frame");
        if !terminated {
            self.flush_pending();
            self.edge(frame.end_block);
            self.feed_phis(&frame.end_phis);
        }
        self.stack.truncate(frame.height);
        self.stack.extend(frame.end_phis.iter().copied());
        self.start_block(frame.end_block);
        self.b.seal_block(frame.end_block, self.fuel)
    }

    /// Lowers a sequence; returns whether its end is reachable.
    fn lower_seq(&mut self, body: &[Instr]) -> Result<bool, LimitError> {
        for instr in body {
            if self.lower_instr(instr)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Lowers one instruction; returns `true` when it transfers control
    /// unconditionally.
    ///
    /// # Errors
    ///
    /// [`LimitError`] (`what: "compile fuel"`) from the SSA builder.
    fn lower_instr(&mut self, instr: &Instr) -> Result<bool, LimitError> {
        Ok(match instr {
            Instr::Block(bt, inner) => {
                let arity = bt.arity();
                let height = self.stack.len();
                let x = self.new_block();
                let phis: Vec<ssa::Value> = (0..arity).map(|_| self.b.new_phi(x)).collect();
                self.ctrl.push(RCtrlFrame {
                    br_block: x,
                    br_phis: phis.clone(),
                    end_block: x,
                    end_phis: phis,
                    height,
                });
                let reachable = self.lower_seq(inner)?;
                self.end_construct(!reachable)?;
                false
            }
            Instr::Loop(bt, inner) => {
                let height = self.stack.len();
                self.flush_pending();
                let header = self.new_block();
                self.edge(header);
                let x = self.new_block();
                let end_phis: Vec<ssa::Value> =
                    (0..bt.arity()).map(|_| self.b.new_phi(x)).collect();
                // The header stays unsealed until the body registered
                // its back edges (Braun's incomplete-phi protocol).
                self.start_block(header);
                self.ctrl.push(RCtrlFrame {
                    br_block: header,
                    br_phis: Vec::new(),
                    end_block: x,
                    end_phis,
                    height,
                });
                let reachable = self.lower_seq(inner)?;
                self.b.seal_block(header, self.fuel)?;
                self.end_construct(!reachable)?;
                false
            }
            Instr::If(bt, then_body, else_body) => {
                let cond = self.stack.pop().expect("validated");
                let height = self.stack.len();
                let arity = bt.arity();
                let x = self.new_block();
                let end_phis: Vec<ssa::Value> = (0..arity).map(|_| self.b.new_phi(x)).collect();
                let recipe = self.branch_recipe(ChargeTag::Branch);
                if else_body.is_empty() {
                    // False edge lands straight on the join (a result-
                    // carrying `if` cannot have an empty else arm).
                    self.terminate(LTerm::BrIfZ { cond, else_b: x }, recipe);
                    self.edge(x);
                    let t = self.new_block();
                    self.edge(t);
                    self.ctrl.push(RCtrlFrame {
                        br_block: x,
                        br_phis: end_phis.clone(),
                        end_block: x,
                        end_phis,
                        height,
                    });
                    self.start_block(t);
                    self.b.seal_block(t, self.fuel)?;
                    let reachable = self.lower_seq(then_body)?;
                    self.end_construct(!reachable)?;
                } else {
                    let e = self.new_block();
                    self.terminate(LTerm::BrIfZ { cond, else_b: e }, recipe);
                    self.edge(e);
                    let t = self.new_block();
                    self.edge(t);
                    self.ctrl.push(RCtrlFrame {
                        br_block: x,
                        br_phis: end_phis.clone(),
                        end_block: x,
                        end_phis,
                        height,
                    });
                    self.start_block(t);
                    self.b.seal_block(t, self.fuel)?;
                    if self.lower_seq(then_body)? {
                        // Reachable then-arm end: jump over the else arm
                        // into the join. The jump itself is free (no
                        // source instruction retires there), so no
                        // branch tag — only the pending charges ride on
                        // it.
                        self.edge(x);
                        let frame = self.ctrl.last().expect("if frame");
                        let phis = frame.end_phis.clone();
                        self.feed_phis(&phis);
                        let recipe = self.take_pending();
                        self.terminate(LTerm::Jump(x), recipe);
                    }
                    self.stack.truncate(height);
                    self.start_block(e);
                    self.b.seal_block(e, self.fuel)?;
                    let reachable = self.lower_seq(else_body)?;
                    self.end_construct(!reachable)?;
                }
                false
            }
            Instr::Br(depth) => {
                let idx = self.ctrl.len() - 1 - *depth as usize;
                let (target, phis) = {
                    let f = &self.ctrl[idx];
                    (f.br_block, f.br_phis.clone())
                };
                self.edge(target);
                self.feed_phis(&phis);
                let recipe = self.branch_recipe(ChargeTag::Branch);
                self.terminate(LTerm::Jump(target), recipe);
                true
            }
            Instr::BrIf(depth) => {
                let cond = self.stack.pop().expect("validated");
                let idx = self.ctrl.len() - 1 - *depth as usize;
                let (target, phis) = {
                    let f = &self.ctrl[idx];
                    (f.br_block, f.br_phis.clone())
                };
                self.edge(target);
                self.feed_phis(&phis);
                let fall = self.new_block();
                self.edge(fall);
                let recipe = self.branch_recipe(ChargeTag::Branch);
                self.terminate(
                    LTerm::BrIf {
                        cond,
                        then_b: target,
                    },
                    recipe,
                );
                self.start_block(fall);
                self.b.seal_block(fall, self.fuel)?;
                false
            }
            Instr::BrTable(targets, default) => {
                let sel = self.stack.pop().expect("validated");
                let resolved: Vec<ssa::Block> = targets
                    .iter()
                    .chain(std::iter::once(default))
                    .map(|&d| self.ctrl[self.ctrl.len() - 1 - d as usize].br_block)
                    .collect();
                // One edge (and one phi feed) per distinct target.
                let uniq: BTreeSet<ssa::Block> = resolved.iter().copied().collect();
                for t in uniq {
                    let phis = self
                        .ctrl
                        .iter()
                        .rev()
                        .find(|f| f.br_block == t)
                        .expect("validated br_table depth")
                        .br_phis
                        .clone();
                    self.edge(t);
                    self.feed_phis(&phis);
                }
                let recipe = self.branch_recipe(ChargeTag::Branch);
                self.terminate(
                    LTerm::BrTable {
                        sel,
                        targets: resolved,
                    },
                    recipe,
                );
                true
            }
            Instr::Return => {
                let results = self.ctrl[0].br_phis.len();
                let srcs = self.stack[self.stack.len() - results..].to_vec();
                let recipe = self.branch_recipe(ChargeTag::Branch);
                self.terminate(LTerm::Ret { srcs }, recipe);
                true
            }
            Instr::Call(f) => {
                let ty = self.module.func_type(*f).expect("validated call target");
                let args = self.stack.split_off(self.stack.len() - ty.params.len());
                let rets: Vec<ssa::Value> =
                    (0..ty.results.len()).map(|_| self.b.new_value()).collect();
                self.stack.extend(rets.iter().copied());
                self.emit(
                    RInst::Call {
                        func: *f,
                        args,
                        rets,
                    },
                    ChargeTag::Call,
                );
                false
            }
            Instr::CallIndirect(type_idx) => {
                let ty = &self.module.types[*type_idx as usize];
                let sel = self.stack.pop().expect("validated");
                let args = self.stack.split_off(self.stack.len() - ty.params.len());
                let rets: Vec<ssa::Value> =
                    (0..ty.results.len()).map(|_| self.b.new_value()).collect();
                self.stack.extend(rets.iter().copied());
                self.emit(
                    RInst::CallIndirect {
                        type_idx: *type_idx,
                        sel,
                        args,
                        rets,
                    },
                    ChargeTag::CallIndirect,
                );
                false
            }
            other => self.lower_data_op(other)?,
        })
    }
}

/// The untagged operand slot of a constant instruction.
fn const_bits(instr: &Instr) -> Option<u64> {
    match *instr {
        Instr::I32Const(v) => Some(slot_i32(v)),
        Instr::I64Const(v) => Some(slot_i64(v)),
        Instr::F32Const(bits) => Some(u64::from(bits)),
        Instr::F64Const(bits) => Some(bits),
        _ => None,
    }
}

impl RegCompiler<'_> {
    /// Lowers one data instruction (anything [`RegCompiler::lower_instr`]
    /// does not handle positionally); returns `true` for `unreachable`.
    fn lower_data_op(&mut self, instr: &Instr) -> Result<bool, LimitError> {
        if let Some(op) = numeric::classify(instr) {
            if let Numeric::Una(una) = op {
                // A constant operand the op does not trap on: the result
                // is a constant too, and the op dissolves like the
                // `const` that fed it — its tag joins the pending recipe.
                let operand = self.stack.last().and_then(|&a| self.consts.bits(a));
                if let Some(Ok(bits)) = operand.map(|bits| una.eval(bits)) {
                    self.stack.pop();
                    let v = self.const_value(bits);
                    self.stack.push(v);
                    self.tags.push(op.class().into());
                    return Ok(false);
                }
            }
            let dst = self.b.new_value();
            let mut pop = || self.stack.pop().expect("validated");
            let inst = match op {
                Numeric::Alu(op) => {
                    let (b, a) = (pop(), pop());
                    RInst::Alu { op, dst, a, b }
                }
                Numeric::Div(op) => {
                    let (b, a) = (pop(), pop());
                    RInst::Div { op, dst, a, b }
                }
                Numeric::Una(op) => RInst::Una { op, dst, a: pop() },
            };
            self.stack.push(dst);
            self.emit(inst, ChargeTag::from(op.class()));
            return Ok(false);
        }
        if let Some(bits) = const_bits(instr) {
            let v = self.const_value(bits);
            self.stack.push(v);
            self.tags.push(ChargeTag::Simple);
            return Ok(false);
        }
        match *instr {
            Instr::Nop => self.tags.push(ChargeTag::Simple),
            Instr::Drop => {
                self.stack.pop().expect("validated");
                self.tags.push(ChargeTag::Simple);
            }
            Instr::LocalGet(i) => {
                let v = self.b.read_var(i, self.cur, self.fuel)?;
                self.stack.push(v);
                self.tags.push(ChargeTag::Simple);
            }
            Instr::LocalSet(i) => {
                let v = self.stack.pop().expect("validated");
                self.b.write_var(i, self.cur, v, self.fuel)?;
                self.tags.push(ChargeTag::Simple);
            }
            Instr::LocalTee(i) => {
                let v = *self.stack.last().expect("validated");
                self.b.write_var(i, self.cur, v, self.fuel)?;
                self.tags.push(ChargeTag::Simple);
            }
            Instr::Select => {
                let cond = self.stack.pop().expect("validated");
                let b = self.stack.pop().expect("validated");
                let a = self.stack.pop().expect("validated");
                let dst = self.b.new_value();
                self.stack.push(dst);
                self.emit(RInst::Select { dst, cond, a, b }, ChargeTag::Simple);
            }
            Instr::Load(op, memarg) => {
                let addr = self.stack.pop().expect("validated");
                let dst = self.b.new_value();
                self.stack.push(dst);
                self.emit(
                    RInst::Load {
                        op,
                        offset: memarg.offset,
                        dst,
                        addr,
                    },
                    ChargeTag::Mem,
                );
            }
            Instr::Store(op, memarg) => {
                let val = self.stack.pop().expect("validated");
                let addr = self.stack.pop().expect("validated");
                self.emit(
                    RInst::Store {
                        op,
                        offset: memarg.offset,
                        addr,
                        val,
                    },
                    ChargeTag::Mem,
                );
            }
            _ => {
                let Some((op, imm)) = SysOp::of(instr) else {
                    unreachable!("control instruction {instr:?} in lower_data_op");
                };
                let (pops, pushes) = op.effect();
                let args = self.stack.split_off(self.stack.len() - pops);
                let ret = pushes.then(|| self.b.new_value());
                self.stack.extend(ret);
                self.emit(RInst::Sys { op, imm, args, ret }, None);
                if op == SysOp::Unreachable {
                    self.terminate(LTerm::Halt, 0..0);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }
}

// -- register lowering, pass 2: SSA -> slots -> flat ops --------------------

/// Compiles a validated function body to register bytecode: SSA
/// construction over the structured body, phi elimination via parallel
/// copies, instruction selection, liveness + linear-scan slot
/// assignment, then flat emission with interned charge recipes.
///
/// `num_locals` is the count of declared (non-parameter) locals, which
/// start zero-initialized. `body` must have passed
/// [`cage_wasm::validate_with_limits`] under `limits`: that is what
/// bounded its op count and the nesting depth the SSA construction
/// recurses over. The lowering work is bounded in turn: two fuel units
/// are charged per op, and one more per instruction and phi copy the
/// selection step visits; the two steps whose work can outgrow the op
/// count (the SSA builder's definition rows and reaching-definition walk,
/// the liveness propagation) charge `fuel` for what they actually do; the
/// SSA value count is capped, and frame-slot allocation reports overflow
/// instead of panicking.
///
/// # Errors
///
/// [`cage_wasm::LimitError`] when the body busts a bound.
///
/// # Panics
///
/// Panics on unvalidated input.
pub fn compile_reg(
    module: &Module,
    ty: &FuncType,
    num_locals: usize,
    body: &[Instr],
    limits: &cage_wasm::CompileLimits,
    fuel: &CompileFuel,
) -> Result<RegCode, LimitError> {
    let ops = cage_wasm::limits::body_stats(body, limits.max_body_ops).ops;
    // SSA construction plus slot assignment: two units per op.
    fuel.charge(ops as u64 * 2)?;
    let mut c = RegCompiler {
        module,
        fuel,
        b: SsaBuilder::new((ty.params.len() + num_locals) as u32),
        blocks: Vec::with_capacity(16),
        layout: Vec::with_capacity(16),
        cur: 0,
        stack: Vec::with_capacity(16),
        ctrl: Vec::with_capacity(8),
        insts: Vec::with_capacity(ops / 2),
        succs: Vec::with_capacity(16),
        tags: Vec::with_capacity(ops),
        pending_from: 0,
        consts: ConstPool::default(),
    };
    let entry = c.new_block();
    c.b.seal_block(entry, fuel)?;
    c.layout.push(entry);
    c.cur = entry;
    let params: Vec<ssa::Value> = (0..ty.params.len()).map(|_| c.b.new_value()).collect();
    for (i, &v) in params.iter().enumerate() {
        c.b.write_var(i as u32, entry, v, fuel)?;
    }
    if num_locals > 0 {
        let zero = c.const_value(0);
        for i in 0..num_locals {
            c.b.write_var((ty.params.len() + i) as u32, entry, zero, fuel)?;
        }
    }
    // The function label: a join block whose phis are the results; its
    // terminator is the epilogue return, which charges nothing (falling
    // off the end retires no instruction). Explicit `return`s bypass it.
    let ret_block = c.new_block();
    let ret_phis: Vec<ssa::Value> = (0..ty.results.len())
        .map(|_| c.b.new_phi(ret_block))
        .collect();
    c.ctrl.push(RCtrlFrame {
        br_block: ret_block,
        br_phis: ret_phis.clone(),
        end_block: ret_block,
        end_phis: ret_phis,
        height: 0,
    });
    let reachable = c.lower_seq(body)?;
    c.end_construct(!reachable)?;
    let srcs = std::mem::take(&mut c.stack);
    c.terminate(LTerm::Ret { srcs }, 0..0);
    c.close_block();

    c.b.finish(fuel)?;
    if c.b.num_values() > limits.max_ssa_values {
        return Err(LimitError {
            what: "ssa values",
            limit: u64::from(limits.max_ssa_values),
            actual: u64::from(c.b.num_values()),
        });
    }
    let mut copies = PhiCopies::of(&c);
    let reads = select(&mut c, &mut copies)?;
    emit_reg(&c, &params, &copies, &reads)
}

// -- register lowering, selection: one dispatch per expression tree ---------

/// The phi-elimination copies of every layout block: every surviving phi
/// of a successor gets one copy on this edge. Copies are emitted
/// unconditionally before the terminator — safe because any two values
/// involved (batch sources, batch destinations, values live across the
/// batch) have overlapping intervals and therefore distinct slots, while
/// aliasing *within* the batch is resolved by the copy sequencer's
/// slot-level dependency analysis.
struct PhiCopies {
    /// `(phi, source)`, the source resolved. A copy of a phi onto itself
    /// copies nothing: that is how [`select`] strikes one out.
    pairs: Vec<(ssa::Value, ssa::Value)>,
    /// Each layout block's run of `pairs`.
    of_block: Vec<Range<usize>>,
}

impl PhiCopies {
    fn of(c: &RegCompiler) -> PhiCopies {
        let b = &c.b;
        let mut pairs = Vec::new();
        let mut of_block = Vec::with_capacity(c.layout.len());
        for &blk in &c.layout {
            let first = pairs.len();
            let lb = &c.blocks[blk as usize];
            for &(s, edge) in c.succs_of(lb) {
                for phi in b.phis_in(s) {
                    // A phi's operands are in edge order: the builder fills
                    // variable phis edge by edge, and the lowering feeds
                    // result phis as it registers each edge.
                    let (pred, src) = b.phi_operands(phi)[edge as usize];
                    assert_eq!(pred, blk, "phi operands follow the edges");
                    pairs.push((phi, b.resolve(src)));
                }
            }
            of_block.push(first..pairs.len());
        }
        PhiCopies { pairs, of_block }
    }

    /// Every phi the `i`th layout block writes, with its source.
    fn batch(&self, i: usize) -> &[(ssa::Value, ssa::Value)] {
        &self.pairs[self.of_block[i].clone()]
    }

    /// The copies of [`PhiCopies::batch`] that copy something.
    fn pending(&self, i: usize) -> impl Iterator<Item = (ssa::Value, ssa::Value)> + '_ {
        let batch = self.batch(i).iter().copied();
        batch.filter(|&(phi, src)| src != phi)
    }
}

/// What [`select`] knows about every (resolved) value, in three tables
/// indexed by the dense value ids.
struct ValueTable<'c> {
    b: &'c SsaBuilder,
    consts: &'c ConstPool,
    /// How many operand positions read the value from a register: every
    /// use by an instruction, a terminator or a phi copy, except a
    /// constant that folds into an immediate or a constant write. A
    /// constant is materialized when this is not zero; an intermediate
    /// result may fuse into its reader when this is one.
    reads: Vec<u32>,
    /// Index in [`RegCompiler::insts`] of the instruction that defines
    /// the value ([`NONE`] before selection has kept one).
    def_at: Vec<u32>,
    /// Index of the last kept instruction that reads the value. A block's
    /// copies read at the index one past its last instruction: later than
    /// every instruction of the block.
    last_read: Vec<u32>,
}

impl ValueTable<'_> {
    /// Counts one read of `v` in operand role `role`.
    fn count(&mut self, role: Operand, v: ssa::Value) {
        let v = self.b.resolve(v);
        let folds = role == Operand::FoldableUse && self.consts.bits(v).is_some();
        if role != Operand::Def && v != UNDEF && !folds {
            self.reads[v as usize] += 1;
        }
    }

    /// Whether the result `v` of an instruction has exactly one reader.
    fn read_once(&self, v: ssa::Value) -> bool {
        self.reads[v as usize] == 1
    }

    /// Records that `inst` now stands at index `at`.
    fn keep(&mut self, inst: &RInst, at: usize) {
        inst.operands(|role, v| match (role, self.b.resolve(v)) {
            (_, UNDEF) => {}
            (Operand::Def, v) => self.def_at[v as usize] = at as u32,
            (_, v) => self.last_read[v as usize] = at as u32,
        });
    }
}

/// The recipe of an op fused from `parts` (at least one) and a last part
/// with recipe `last`. The parts are adjacent instructions of one block,
/// which makes their recipes one run of [`RegCompiler::tags`]: nothing
/// that could trap or consume fuel stands between the charges the fused
/// op takes together.
fn fused_recipe(parts: &[(RInst, Recipe)], last: &Recipe) -> Recipe {
    let recipes = parts.iter().map(|(_, recipe)| recipe).chain([last]);
    debug_assert!(recipes
        .clone()
        .zip(recipes.skip(1))
        .all(|(one, next)| one.end == next.start));
    parts[0].1.start..last.end
}

/// Instruction selection: fuses chains of **adjacent, single-use,
/// non-trapping** instructions into the forms one dispatch retires, and
/// returns the register reads of every value (see [`ValueTable::reads`])
/// as they stand afterwards.
///
/// * `ext; mul by constant; add` (either operand order, the `ext`
///   optional) becomes [`RInst::IndexAdd`];
/// * an op whose `i32` result — or the `i32.eqz` of it — only a `br_if`
///   or an `if` reads becomes that block's [`LTerm::BrCmp`];
/// * an op whose result only a phi copy of its own block reads writes
///   the phi itself, and the copy goes.
///
/// The fused op takes the parts' recipes, which adjacency makes one run
/// of [`RegCompiler::tags`]: every charge stays where it was relative to
/// anything that can trap or consume fuel. One unit of `fuel` per
/// instruction and copy visited.
fn select(c: &mut RegCompiler, copies: &mut PhiCopies) -> Result<Vec<u32>, LimitError> {
    let num_values = c.b.num_values() as usize;
    let mut t = ValueTable {
        b: &c.b,
        consts: &c.consts,
        reads: vec![0; num_values],
        def_at: vec![NONE; num_values],
        last_read: vec![0; num_values],
    };
    for (i, &blk) in c.layout.iter().enumerate() {
        let lb = &c.blocks[blk as usize];
        for (inst, _) in c.insts_of(lb) {
            inst.operands(|role, v| t.count(role, v));
        }
        lb.term.operands(|role, v| t.count(role, v));
        for (_, src) in copies.pending(i) {
            t.count(Operand::FoldableUse, src);
        }
    }

    // Blocks are runs of `insts` in layout order, so the survivors move
    // down in place.
    let mut kept = 0;
    for (i, &blk) in c.layout.iter().enumerate() {
        let lb = &mut c.blocks[blk as usize];
        let batch = &mut copies.pairs[copies.of_block[i].clone()];
        c.fuel
            .charge(u64::from(lb.insts.end - lb.insts.start) + batch.len() as u64)?;
        let first = kept;
        for at in lb.insts.start as usize..lb.insts.end as usize {
            let (mut inst, mut recipe) = std::mem::replace(&mut c.insts[at], (RInst::Flush, 0..0));
            if let Some((fused, parts)) = index_add(&mut t, &c.insts[first..kept], &inst) {
                recipe = fused_recipe(&c.insts[kept - parts..kept], &recipe);
                kept -= parts;
                inst = fused;
            }
            t.keep(&inst, kept);
            c.insts[kept] = (inst, recipe);
            kept += 1;
        }
        if let Some((term, parts)) = br_cmp(&t, &c.insts[first..kept], &lb.term, batch) {
            lb.term_recipe = fused_recipe(&c.insts[kept - parts..kept], &lb.term_recipe);
            kept -= parts;
            lb.term = term;
        }
        lb.insts = first as u32..kept as u32;
        coalesce_copies(&mut t, &mut c.insts[first..kept], first, batch);
    }
    c.insts.truncate(kept);
    Ok(t.reads)
}

/// [`RInst::IndexAdd`] for `add`, the instruction about to follow `tail`
/// in its block, and how many instructions at the end of `tail` it
/// replaces — when `add` is an `i64.add` of the `i64.mul` right before
/// it, that product is by a constant and has no other reader, and (to
/// take the index's widening in as well) the same holds for an
/// `i64.extend_i32_{s,u}` before the product.
fn index_add(t: &mut ValueTable, tail: &[(RInst, Recipe)], add: &RInst) -> Option<(RInst, usize)> {
    let r = |v: ssa::Value| t.b.resolve(v);
    let &RInst::Alu {
        op: AluOp::I64Add,
        dst,
        a,
        b,
    } = add
    else {
        return None;
    };
    let (mul, rest) = tail.split_last()?;
    let RInst::Alu {
        op: AluOp::I64Mul,
        dst: product,
        a: p,
        b: q,
    } = mul.0
    else {
        return None;
    };
    if !t.read_once(product) {
        return None;
    }
    // The product is one addend (not both: that would be two reads)...
    let base = match (r(a) == product, r(b) == product) {
        (false, true) => a,
        (true, false) => b,
        _ => return None,
    };
    // ...and one of its factors is the scale.
    let (mut idx, k, scale_on_left) = match (t.consts.bits(r(p)), t.consts.bits(r(q))) {
        (_, Some(k)) => (p, k, false),
        (Some(k), None) => (q, k, true),
        (None, None) => return None,
    };
    let mut ext = IndexExt::None;
    let mut parts = 1;
    if let Some(&(RInst::Una { op, dst: wide, a }, _)) = rest.last() {
        if let Some(widens) = IndexExt::of(op) {
            if r(idx) == wide && t.read_once(wide) {
                (idx, ext, parts) = (a, widens, 2);
            }
        }
    }
    // A scale on the product's left stood in a register, a constant base
    // on the sum's right did not: the fused op turns both around.
    if scale_on_left {
        t.reads[r(p) as usize] -= 1;
    }
    if base == b && t.consts.bits(r(b)).is_some() {
        t.reads[r(b) as usize] += 1;
    }
    let fused = RInst::IndexAdd {
        dst,
        base,
        idx,
        ext,
        k,
    };
    Some((fused, parts))
}

/// The terminator `term` of a block fused with the end of its
/// instructions `tail`, and how many of them it replaces — when the
/// `br_if`/`if` is the only reader of an `i32.eqz` (which turns the
/// branch around), of a two-operand op, or of the one after the other.
///
/// The fused terminator reads its operands where it stands: after the
/// block's phi copies `batch`, where the unfused instruction read them
/// before. So none of them may be a phi this block itself writes (`old =
/// i; i = i + 1; if (old < n) continue` in a one-block loop).
fn br_cmp(
    t: &ValueTable,
    tail: &[(RInst, Recipe)],
    term: &LTerm,
    batch: &[(ssa::Value, ssa::Value)],
) -> Option<(LTerm, usize)> {
    let r = |v: ssa::Value| t.b.resolve(v);
    let (mut cond, target, mut negate) = match *term {
        LTerm::BrIf { cond, then_b } => (cond, then_b, false),
        LTerm::BrIfZ { cond, else_b } => (cond, else_b, true),
        _ => return None,
    };
    // Whether the branch is all that reads `dst`.
    let feeds = |dst: ssa::Value, cond: ssa::Value| r(cond) == dst && t.read_once(dst);
    let mut rest = tail;
    if let Some(&(RInst::Una { op, dst, a }, _)) = rest.last() {
        if op == UnaOp::I32Eqz && feeds(dst, cond) {
            (cond, negate) = (a, !negate);
            rest = &rest[..rest.len() - 1];
        }
    }
    let mut fused = match negate {
        false => LTerm::BrIf {
            cond,
            then_b: target,
        },
        true => LTerm::BrIfZ {
            cond,
            else_b: target,
        },
    };
    if let Some(&(RInst::Alu { op, dst, a, b }, _)) = rest.last() {
        if feeds(dst, cond) {
            fused = LTerm::BrCmp {
                op,
                negate,
                a,
                b,
                target,
            };
            rest = &rest[..rest.len() - 1];
        }
    }
    let parts = tail.len() - rest.len();
    if parts == 0 {
        return None;
    }
    let mut overwritten = false;
    fused.operands(|_, v| overwritten |= batch.iter().any(|&(phi, _)| phi == r(v)));
    (!overwritten).then_some((fused, parts))
}

/// Strikes out every copy `phi <- t` of `batch` whose source is the
/// result of one of the block's instructions `insts` (which start at
/// index `first` of [`RegCompiler::insts`]) and has no other reader: the
/// instruction writes `phi` instead — unless something between it and
/// the end of the block, a copy of the batch included, still reads the
/// phi's old value.
fn coalesce_copies(
    t: &mut ValueTable,
    insts: &mut [(RInst, Recipe)],
    first: usize,
    batch: &mut [(ssa::Value, ssa::Value)],
) {
    let end = first + insts.len();
    for &(phi, src) in batch.iter() {
        if src != phi && src != UNDEF {
            t.last_read[src as usize] = end as u32;
        }
    }
    for (phi, src) in batch {
        if *src == *phi || *src == UNDEF || !t.read_once(*src) {
            continue;
        }
        let at = t.def_at[*src as usize] as usize;
        if at < first || at >= end || t.last_read[*phi as usize] as usize > at {
            continue;
        }
        if let Some(dst) = insts[at - first].0.dst_mut().filter(|dst| **dst == *src) {
            *dst = *phi;
            *src = *phi;
        }
    }
}

/// Interns charge recipes into the pool of a [`RegCode`]: identical tag
/// sequences share pool storage, first occurrence first. The index is a
/// trie over the tag alphabet, so a lookup costs one table step per tag
/// and hashes nothing.
struct RecipeInterner {
    /// Trie nodes, the root first: the node one tag further for each
    /// tag, and the pool offset of the sequence that ends here —
    /// [`NONE`] where there is none yet.
    nodes: Vec<([u32; ChargeTag::COUNT], u32)>,
    pool: Vec<ChargeTag>,
}

impl RecipeInterner {
    /// The pool offset of `recipe`.
    fn intern(&mut self, recipe: &[ChargeTag]) -> u32 {
        if recipe.is_empty() {
            return 0;
        }
        let mut node = 0;
        for &tag in recipe {
            let mut next = self.nodes[node].0[tag as usize];
            if next == NONE {
                next = self.nodes.len() as u32;
                self.nodes[node].0[tag as usize] = next;
                self.nodes.push(([NONE; ChargeTag::COUNT], NONE));
            }
            node = next as usize;
        }
        let offset = &mut self.nodes[node].1;
        if *offset == NONE {
            *offset = self.pool.len() as u32;
            self.pool.extend_from_slice(recipe);
        }
        *offset
    }
}

/// The three per-op tables of a [`RegCode`] under construction.
struct Emitter {
    ops: Vec<RegOp>,
    recipes: Vec<(u32, u16)>,
    packed: Vec<u64>,
    interner: RecipeInterner,
}

impl Emitter {
    /// Appends `op` with the charge recipe `tags`. A recipe that does not
    /// fit one op (longer than [`MAX_RECIPE`], or too many of one tag for
    /// its lane) goes chunk by chunk, in order, onto [`RegOp::Nop`]
    /// carriers in front of `op`, which keeps the tail — so all of it is
    /// still charged before the body of `op` runs, and a branch to where
    /// `op` would have stood lands on the first carrier.
    fn push(&mut self, op: RegOp, tags: &[ChargeTag]) {
        let mut rest = tags;
        loop {
            let (counts, fits) = fitting_prefix(rest);
            let (chunk, tail) = rest.split_at(fits);
            self.packed.push(pack_counts(&counts));
            // `fits <= MAX_RECIPE`, which fits a `u16`.
            self.recipes
                .push((self.interner.intern(chunk), fits as u16));
            if tail.is_empty() {
                self.ops.push(op);
                return;
            }
            self.ops.push(RegOp::Nop);
            rest = tail;
        }
    }
}

fn emit_reg(
    c: &RegCompiler,
    params: &[ssa::Value],
    copies: &PhiCopies,
    reads: &[u32],
) -> Result<RegCode, LimitError> {
    let b = &c.b;
    let r = |v: ssa::Value| b.resolve(v);
    let num_values = b.num_values();
    let const_bits = |v: ssa::Value| c.consts.bits(r(v));
    let is_const = |v: ssa::Value| const_bits(v).is_some();

    // The constants that must live in a register: those some operand
    // position reads that cannot fold into an immediate and is not a
    // phi-copy source (those become direct constant writes). In
    // ascending value id.
    let materialized = || {
        let read = |&&(v, _): &&(ssa::Value, u64)| reads[v as usize] > 0;
        c.consts.list.iter().filter(read).copied()
    };

    // Linearise: every instruction gets one position (uses and defs
    // together); each copy gets its own; the terminator always gets one
    // (so every block spans at least one position), and what it reads —
    // the operands of a fused comparison included — it reads there,
    // after the copies. Parameter and materialized-constant definitions
    // open the entry block. A phi additionally counts as *used* at the
    // terminator of each predecessor, which pins every copied-to phi
    // live across the whole copy batch — that keeps batch destinations
    // pairwise overlapping (distinct slots), which the copy sequencer
    // requires. References are reported in position order, uses before
    // definitions, which is the order the liveness pass wants them in.
    let mut liveness = LivenessInput {
        num_values,
        blocks: Vec::with_capacity(c.layout.len()),
        succs: Vec::with_capacity(c.succs.len()),
        refs: Vec::with_capacity(c.insts.len() * 3),
    };
    let mut pos: u32 = 0;
    for (i, &blk) in c.layout.iter().enumerate() {
        let lb = &c.blocks[blk as usize];
        let start = pos;
        let refs = &mut liveness.refs;
        // A constant read that folds into an immediate (or, for a copy,
        // into a constant write) touches no register.
        let mut refer = |pos: u32, role: Operand, v: ssa::Value| {
            if role == Operand::FoldableUse && is_const(v) {
                return;
            }
            refs.push(ValueRef {
                pos,
                value: r(v),
                is_def: role == Operand::Def,
            });
        };
        if i == 0 {
            for &p in params {
                refer(pos, Operand::Def, p);
                pos += 1;
            }
            for (cv, _) in materialized() {
                refer(pos, Operand::Def, cv);
                pos += 1;
            }
        }
        for (inst, _) in c.insts_of(lb) {
            inst.operands(|role, v| refer(pos, role, v));
            pos += 1;
        }
        for (phi, src) in copies.pending(i) {
            refer(pos, Operand::FoldableUse, src);
            refer(pos, Operand::Def, phi);
            pos += 1;
        }
        for &(phi, _) in copies.batch(i) {
            refer(pos, Operand::Use, phi);
        }
        lb.term.operands(|role, v| refer(pos, role, v));
        pos += 1;
        let first_succ = liveness.succs.len() as u32;
        let layout_succs = c
            .succs_of(lb)
            .iter()
            .map(|&(s, _)| c.blocks[s as usize].layout_idx);
        liveness.succs.extend(layout_succs);
        liveness.blocks.push(BlockRange {
            start,
            end: pos - 1,
            succs: first_succ..liveness.succs.len() as u32,
        });
    }

    let intervals = regalloc::live_intervals(&liveness, c.fuel)?;
    let alloc = regalloc::linear_scan(&intervals)?;
    let scratch = alloc.frame_size;
    // `linear_scan` guarantees frame_size <= u16::MAX - 1, so the
    // scratch slot always fits.
    let frame_size = alloc.frame_size + 1;
    // Dead definitions and unreachable-code operands dump into scratch,
    // which never holds a value across an instruction.
    let slot = |v: ssa::Value| -> u16 {
        let v = r(v);
        if v == UNDEF {
            return scratch;
        }
        match alloc.slot[v as usize] {
            regalloc::NO_SLOT => scratch,
            s => s,
        }
    };

    // Final emission in layout order; branch targets are patched from
    // ssa block ids to pcs once every block's start pc is known.
    struct RPatch {
        op: usize,
        slot: usize,
        target: ssa::Block,
    }
    let capacity = c.insts.len() + c.layout.len();
    let mut em = Emitter {
        ops: Vec::with_capacity(capacity),
        recipes: Vec::with_capacity(capacity),
        packed: Vec::with_capacity(capacity),
        interner: RecipeInterner {
            nodes: vec![([NONE; ChargeTag::COUNT], NONE)],
            pool: Vec::new(),
        },
    };
    let tags_of = |recipe: &Recipe| &c.tags[recipe.start as usize..recipe.end as usize];
    let mut patches: Vec<RPatch> = Vec::new();
    let mut block_pc: Vec<u32> = Vec::with_capacity(c.layout.len());
    let mut pairs: Vec<(u16, u16)> = Vec::new();
    for (i, &blk) in c.layout.iter().enumerate() {
        let lb = &c.blocks[blk as usize];
        block_pc.push(em.ops.len() as u32);
        if i == 0 {
            for (cv, bits) in materialized() {
                let dst = slot(cv);
                em.push(RegOp::Const { dst, v: bits }, &[]);
            }
        }
        for (inst, recipe) in c.insts_of(lb) {
            let op = match inst {
                RInst::Flush => RegOp::Nop,
                RInst::Alu { op, dst, a, b: rb } => match const_bits(*rb) {
                    Some(k) => RegOp::AluImm {
                        op: *op,
                        dst: slot(*dst),
                        a: slot(*a),
                        k,
                    },
                    None => RegOp::Alu {
                        op: *op,
                        dst: slot(*dst),
                        a: slot(*a),
                        b: slot(*rb),
                    },
                },
                RInst::Div { op, dst, a, b: rb } => RegOp::Div {
                    op: *op,
                    dst: slot(*dst),
                    a: slot(*a),
                    b: slot(*rb),
                },
                RInst::Una { op, dst, a } => RegOp::Una {
                    op: *op,
                    dst: slot(*dst),
                    a: slot(*a),
                },
                RInst::IndexAdd {
                    dst,
                    base,
                    idx,
                    ext,
                    k,
                } => RegOp::IndexAdd {
                    dst: slot(*dst),
                    base: slot(*base),
                    idx: slot(*idx),
                    ext: *ext,
                    k: *k,
                },
                RInst::Select {
                    dst,
                    cond,
                    a,
                    b: sb,
                } => RegOp::Select {
                    dst: slot(*dst),
                    cond: slot(*cond),
                    a: slot(*a),
                    b: slot(*sb),
                },
                RInst::Load {
                    op,
                    offset,
                    dst,
                    addr,
                } => RegOp::Load {
                    op: *op,
                    offset: *offset,
                    dst: slot(*dst),
                    addr: slot(*addr),
                },
                RInst::Store {
                    op,
                    offset,
                    addr,
                    val,
                } => RegOp::Store {
                    op: *op,
                    offset: *offset,
                    addr: slot(*addr),
                    val: slot(*val),
                },
                RInst::Call { func, args, rets } => RegOp::Call(Box::new(RegCall {
                    func: *func,
                    args: args.iter().map(|&a| slot(a)).collect(),
                    rets: rets.iter().map(|&d| slot(d)).collect(),
                })),
                RInst::CallIndirect {
                    type_idx,
                    sel,
                    args,
                    rets,
                } => RegOp::CallIndirect(Box::new(RegCallIndirect {
                    type_idx: *type_idx,
                    sel: slot(*sel),
                    args: args.iter().map(|&a| slot(a)).collect(),
                    rets: rets.iter().map(|&d| slot(d)).collect(),
                })),
                RInst::Sys { op, imm, args, ret } => {
                    let mut regs = [0; 3];
                    for (reg, &a) in regs.iter_mut().zip(args) {
                        *reg = slot(a);
                    }
                    RegOp::Sys {
                        op: *op,
                        args: regs,
                        ret: (*ret).map(&slot),
                        imm: *imm,
                    }
                }
            };
            em.push(op, tags_of(recipe));
        }
        pairs.clear();
        pairs.extend(
            copies
                .pending(i)
                .filter(|&(_, src)| !is_const(src))
                .map(|(phi, src)| (slot(phi), slot(src))),
        );
        for (dst, src) in ssa::sequence_parallel_copies(&pairs, scratch) {
            em.push(RegOp::Move { dst, src }, &[]);
        }
        for (phi, src) in copies.pending(i) {
            if let Some(v) = const_bits(src) {
                em.push(RegOp::Const { dst: slot(phi), v }, &[]);
            }
        }
        // The terminator's targets are patched once every block has its
        // pc; its own pc is known only after its recipe's carriers.
        let (term_op, targets): (RegOp, &[ssa::Block]) = match &lb.term {
            LTerm::None | LTerm::Halt => continue,
            LTerm::Jump(t) => (RegOp::Jump(u32::MAX), std::slice::from_ref(t)),
            LTerm::BrIf { cond, then_b } => (
                RegOp::BrIf {
                    cond: slot(*cond),
                    target: u32::MAX,
                },
                std::slice::from_ref(then_b),
            ),
            LTerm::BrIfZ { cond, else_b } => (
                RegOp::BrIfZ {
                    cond: slot(*cond),
                    target: u32::MAX,
                },
                std::slice::from_ref(else_b),
            ),
            LTerm::BrCmp {
                op,
                negate,
                a,
                b: rb,
                target,
            } => (
                match const_bits(*rb) {
                    Some(k) => RegOp::BrCmpImm {
                        op: *op,
                        negate: *negate,
                        a: slot(*a),
                        k,
                        target: u32::MAX,
                    },
                    None => RegOp::BrCmp {
                        op: *op,
                        negate: *negate,
                        a: slot(*a),
                        b: slot(*rb),
                        target: u32::MAX,
                    },
                },
                std::slice::from_ref(target),
            ),
            LTerm::BrTable { sel, targets } => (
                RegOp::BrTable {
                    sel: slot(*sel),
                    targets: vec![u32::MAX; targets.len()].into_boxed_slice(),
                },
                targets,
            ),
            LTerm::Ret { srcs } => (
                RegOp::Ret {
                    srcs: srcs.iter().map(|&s| slot(s)).collect(),
                },
                &[],
            ),
        };
        em.push(term_op, tags_of(&lb.term_recipe));
        let op = em.ops.len() - 1;
        patches.extend(targets.iter().enumerate().map(|(slot, &target)| RPatch {
            op,
            slot,
            target,
        }));
    }
    for p in &patches {
        let pc = block_pc[c.blocks[p.target as usize].layout_idx as usize];
        match &mut em.ops[p.op] {
            RegOp::Jump(t) => *t = pc,
            RegOp::BrIf { target, .. }
            | RegOp::BrIfZ { target, .. }
            | RegOp::BrCmp { target, .. }
            | RegOp::BrCmpImm { target, .. } => *target = pc,
            RegOp::BrTable { targets, .. } => targets[p.slot] = pc,
            other => unreachable!("patching non-branch reg op {other:?}"),
        }
    }

    Ok(RegCode {
        ops: em.ops.into_boxed_slice(),
        recipes: em.recipes.into_boxed_slice(),
        pool: em.interner.pool.into_boxed_slice(),
        packed: em.packed.into_boxed_slice(),
        frame_size,
        param_slots: params.iter().map(|&p| slot(p)).collect(),
    })
}

// -- register disassembly ---------------------------------------------------

/// One-letter rendering of a charge tag (`s`imple, `f`loat, `d`iv,
/// float-`D`iv, `b`ranch, `c`all, call-`i`ndirect, `m`em, `z`ero).
fn charge_letter(tag: ChargeTag) -> char {
    match tag {
        ChargeTag::Simple => 's',
        ChargeTag::Float => 'f',
        ChargeTag::Div => 'd',
        ChargeTag::FloatDiv => 'D',
        ChargeTag::Branch => 'b',
        ChargeTag::Call => 'c',
        ChargeTag::CallIndirect => 'i',
        ChargeTag::Mem => 'm',
        ChargeTag::Zero => 'z',
    }
}

/// Disassembles `code`, the register bytecode of function `func_idx`
/// (joint index space) with signature `ty` — the backend of
/// [`crate::Precompiled::disassemble`] and `cagec --dump-bytecode`.
/// Registers are frame slots `r0..`; a [`RegOp::Sys`] prints as `bridge`
/// and the text mnemonic of its instruction; the fused forms print as
/// what they compute (`r9 <- r7 + sext r5 * 0x8`; `br_cmp I64LtS r1, r2`,
/// or `br_cmp_z` when it branches on a zero result); each op's charge
/// recipe is appended as `; charges <letters>` in retired-source order.
pub(crate) fn disassemble(func_idx: u32, ty: &FuncType, code: &RegCode) -> String {
    use std::fmt::Write as _;

    let reg = |s: u16| format!("r{s}");
    let regs = |list: &[u16]| -> String {
        let names: Vec<String> = list.iter().map(|&s| reg(s)).collect();
        format!("[{}]", names.join(", "))
    };
    let br_cmp = |negate: bool| if negate { "br_cmp_z" } else { "br_cmp" };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "func {func_idx} (params {}, results {}): {} ops, {} regs",
        ty.params.len(),
        ty.results.len(),
        code.ops.len(),
        code.frame_size
    );
    for (pc, op) in code.ops.iter().enumerate() {
        let body = match op {
            RegOp::Nop => "nop".to_string(),
            RegOp::Jump(t) => format!("jump \u{2192}{t:04}"),
            RegOp::BrIf { cond, target } => {
                format!("br_if {} \u{2192}{target:04}", reg(*cond))
            }
            RegOp::BrIfZ { cond, target } => {
                format!("br_if_z {} \u{2192}{target:04}", reg(*cond))
            }
            RegOp::BrCmp {
                op,
                negate,
                a,
                b,
                target,
            } => format!(
                "{} {op:?} {}, {} \u{2192}{target:04}",
                br_cmp(*negate),
                reg(*a),
                reg(*b)
            ),
            RegOp::BrCmpImm {
                op,
                negate,
                a,
                k,
                target,
            } => format!(
                "{} {op:?} {}, const {k:#x} \u{2192}{target:04}",
                br_cmp(*negate),
                reg(*a)
            ),
            RegOp::BrTable { sel, targets } => {
                let (default, cases) = targets.split_last().expect("br_table has a default");
                let cases: Vec<String> = cases.iter().map(|t| format!("\u{2192}{t:04}")).collect();
                format!(
                    "br_table {} [{}] default \u{2192}{default:04}",
                    reg(*sel),
                    cases.join(", ")
                )
            }
            RegOp::Ret { srcs } => format!("ret {}", regs(srcs)),
            RegOp::Call(call) => format!(
                "call {} args {} -> {}",
                call.func,
                regs(&call.args),
                regs(&call.rets)
            ),
            RegOp::CallIndirect(call) => format!(
                "call_indirect (type {}) sel {} args {} -> {}",
                call.type_idx,
                reg(call.sel),
                regs(&call.args),
                regs(&call.rets)
            ),
            RegOp::Move { dst, src } => format!("{} <- {}", reg(*dst), reg(*src)),
            RegOp::Const { dst, v } => format!("{} <- const {v:#x}", reg(*dst)),
            RegOp::Alu { op, dst, a, b } => {
                format!("{} <- {op:?} {}, {}", reg(*dst), reg(*a), reg(*b))
            }
            RegOp::Div { op, dst, a, b } => {
                format!("{} <- {op:?} {}, {}", reg(*dst), reg(*a), reg(*b))
            }
            RegOp::AluImm { op, dst, a, k } => {
                format!("{} <- {op:?} {}, const {k:#x}", reg(*dst), reg(*a))
            }
            RegOp::Una { op, dst, a } => format!("{} <- {op:?} {}", reg(*dst), reg(*a)),
            RegOp::IndexAdd {
                dst,
                base,
                idx,
                ext,
                k,
            } => {
                let ext = match ext {
                    IndexExt::None => "",
                    IndexExt::S32 => "sext ",
                    IndexExt::U32 => "zext ",
                };
                format!(
                    "{} <- {} + {ext}{} * {k:#x}",
                    reg(*dst),
                    reg(*base),
                    reg(*idx)
                )
            }
            RegOp::Select { dst, cond, a, b } => format!(
                "{} <- select {} ? {} : {}",
                reg(*dst),
                reg(*cond),
                reg(*a),
                reg(*b)
            ),
            RegOp::Load {
                op,
                offset,
                dst,
                addr,
            } => format!(
                "{} <- {op:?} offset={offset} addr={}",
                reg(*dst),
                reg(*addr)
            ),
            RegOp::Store {
                op,
                offset,
                addr,
                val,
            } => format!(
                "{op:?} offset={offset} addr={}, val={}",
                reg(*addr),
                reg(*val)
            ),
            RegOp::Sys { op, args, ret, imm } => {
                let ret = match ret {
                    Some(r) => format!(" -> {}", reg(*r)),
                    None => String::new(),
                };
                let args = &args[..op.effect().0];
                format!("bridge {} args {}{ret}", op.text(*imm), regs(args))
            }
        };
        let (off, len) = code.recipes[pc];
        let charges = if len == 0 {
            String::new()
        } else {
            let letters: String = code.pool[off as usize..off as usize + len as usize]
                .iter()
                .map(|&t| charge_letter(t))
                .collect();
            format!("  ; charges {letters}")
        };
        let _ = writeln!(out, "  {pc:04}: {body}{charges}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_wasm::builder::ModuleBuilder;
    use cage_wasm::{BlockType, ValType};

    #[test]
    fn branchy_memory_bodies_execute_bit_identically_across_tiers() {
        // A branch-heavy body with memory traffic, value-carrying block
        // exits, a loop back-edge and a br_table landing just past its
        // own terminator. Register bytecode (the default `call`) and the
        // tree-walking reference (`call_tree`) must agree bit-for-bit on
        // results and charge counts, for branch-taken and
        // fall-through arguments alike.
        use crate::config::ExecConfig;
        use crate::host::Imports;
        use crate::store::Store;
        use crate::value::Value;

        let body = vec![
            // Value-carrying exit: the label binds between LocalGet(1)
            // (inside) and LocalSet(2) (outside).
            Instr::Block(
                BlockType::Value(ValType::I64),
                vec![
                    Instr::LocalGet(1),
                    Instr::LocalGet(0),
                    Instr::I32WrapI64,
                    Instr::BrIf(0),
                    Instr::Drop,
                    Instr::LocalGet(1),
                ],
            ),
            Instr::LocalSet(2),
            // Register-addressed load right after the join point.
            Instr::LocalGet(2),
            Instr::Load(LoadOp::I64Load, cage_wasm::MemArg::none()),
            Instr::LocalSet(1),
            // A loop whose header label binds at the store's pc.
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Loop(
                    BlockType::Empty,
                    vec![
                        Instr::LocalGet(2),
                        Instr::LocalGet(1),
                        Instr::Store(
                            cage_wasm::instr::StoreOp::I64Store,
                            cage_wasm::MemArg::none(),
                        ),
                        Instr::LocalGet(0),
                        Instr::I32WrapI64,
                        Instr::BrIf(1),
                    ],
                )],
            ),
            // br_table landing just past its own terminator.
            Instr::Block(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::I32WrapI64,
                    Instr::BrTable(vec![0], 0),
                ],
            ),
            Instr::LocalGet(0),
        ];
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[ValType::I64, ValType::I64, ValType::I32],
            body,
        );
        b.export_func("run", 0);
        let module = b.build();
        cage_wasm::validate(&module).expect("fixture validates");

        // Precondition: branches survive lowering.
        let code = compile_func0(&module);
        assert!(code
            .ops
            .iter()
            .any(|op| matches!(op, RegOp::BrIf { .. } | RegOp::BrTable { .. })));

        for arg in [0i64, 1, -1, 7] {
            let mut reg = Store::new(ExecConfig::default());
            let rh = reg
                .instantiate(&module, &Imports::new())
                .expect("instantiates");
            let mut tree = Store::new(ExecConfig::default());
            let th = tree
                .instantiate(&module, &Imports::new())
                .expect("instantiates");
            let args = [Value::I64(arg)];
            let r = reg.call(rh, 0, &args);
            let t = tree.call_tree(th, 0, &args);
            assert_eq!(r, t, "arg {arg}: register vs tree outcome");
            assert_eq!(
                reg.charge_counts(rh),
                tree.charge_counts(th),
                "arg {arg}: register vs tree charge counts"
            );
        }
    }

    fn compile_func0(module: &Module) -> RegCode {
        let func = &module.funcs[0];
        let ty = &module.types[func.type_idx as usize];
        let limits = cage_wasm::CompileLimits::unlimited();
        compile_reg(
            module,
            ty,
            func.locals.len(),
            &func.body,
            &limits,
            &limits.fuel(),
        )
        .expect("unlimited lowering cannot bust a limit")
    }

    fn compile_reg_body(body: Vec<Instr>) -> RegCode {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[ValType::I64, ValType::I64, ValType::I32],
            body,
        );
        let module = b.build();
        cage_wasm::validate(&module).expect("fixture validates");
        compile_func0(&module)
    }

    #[test]
    fn forty_live_temporaries_get_forty_distinct_slots_and_still_execute() {
        // 40 simultaneously live temporaries need 40 distinct frame
        // slots — a frame is as wide as its peak pressure, there is no
        // register budget to overflow — and the result (and the charge)
        // must be identical to the tree oracle.
        use crate::config::ExecConfig;
        use crate::host::Imports;
        use crate::store::Store;
        use crate::value::Value;

        const N: usize = 40;
        // Each temp is `arg + i` with a distinct constant — 40 distinct
        // SSA values, all live until the fold consumes them (plain
        // copies of the argument would all number to one value).
        let mut body = Vec::new();
        for i in 1..=N as i64 {
            body.push(Instr::LocalGet(0));
            body.push(Instr::I64Const(i));
            body.push(Instr::I64Add);
        }
        body.extend(std::iter::repeat_n(Instr::I64Add, N - 1));
        let code = compile_reg_body(body.clone());
        let temps: BTreeSet<u16> = code
            .ops
            .iter()
            .filter_map(|op| match op {
                RegOp::AluImm { dst, .. } => Some(*dst),
                _ => None,
            })
            .collect();
        assert_eq!(temps.len(), N, "{N} live temporaries share a slot");
        assert!(code.frame_size as usize > N, "frame {}", code.frame_size);

        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[ValType::I64, ValType::I64, ValType::I32],
            body,
        );
        let module = b.build();
        cage_wasm::validate(&module).expect("fixture validates");
        let mut reg = Store::new(ExecConfig::default());
        let rh = reg
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        let mut tree = Store::new(ExecConfig::default());
        let th = tree
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        let args = [Value::I64(3)];
        let n = N as i64;
        let expected = 3 * n + n * (n + 1) / 2;
        assert_eq!(reg.call(rh, 0, &args), Ok(vec![Value::I64(expected)]));
        assert_eq!(tree.call_tree(th, 0, &args), Ok(vec![Value::I64(expected)]));
        assert_eq!(reg.charge_counts(rh), tree.charge_counts(th));
    }

    #[test]
    fn dead_code_after_terminator_is_dropped() {
        // Nothing after the `return` is lowered: the stream is the `ret`
        // carrying the `local.get` and `return` charges, then the
        // (unreachable) epilogue, which charges nothing — the dead
        // `local.get`/`drop` left neither an op nor a charge behind.
        let code = compile_reg_body(vec![
            Instr::LocalGet(0),
            Instr::Return,
            Instr::LocalGet(0),
            Instr::Drop,
        ]);
        assert!(
            matches!(code.ops.as_ref(), [RegOp::Ret { .. }, RegOp::Ret { .. }]),
            "{:?}",
            code.ops
        );
        let (off, len) = code.recipes[0];
        assert_eq!(
            &code.pool[off as usize..off as usize + len as usize],
            &[ChargeTag::Simple, ChargeTag::Branch]
        );
        assert_eq!(code.recipes[1].1, 0, "epilogue charges nothing");
    }

    #[test]
    fn long_recipes_split_over_leading_carriers_in_order() {
        // 2.5 chunks of dissolved `nop`s in front of a division: two
        // `nop` carriers of a full chunk each, then the `Div` with the
        // tail — the division's own tag last, so every tag is charged
        // before the op that can trap runs — and each op's packed word
        // counts exactly its own slice of the pool.
        let nops = 2 * MAX_RECIPE + MAX_RECIPE / 2;
        let mut body = vec![Instr::Nop; nops];
        body.extend([Instr::LocalGet(0), Instr::LocalGet(0), Instr::I64DivS]);
        let code = compile_reg_body(body);
        let recipe = |pc: usize| {
            let (off, len) = code.recipes[pc];
            &code.pool[off as usize..off as usize + len as usize]
        };
        assert!(
            matches!(
                code.ops.as_ref(),
                [RegOp::Nop, RegOp::Nop, RegOp::Div { .. }, RegOp::Ret { .. }]
            ),
            "{:?}",
            code.ops
        );
        let mut tags = vec![ChargeTag::Simple; nops + 2];
        tags.push(ChargeTag::Div);
        let charged: Vec<ChargeTag> = (0..3).flat_map(|pc| recipe(pc).iter().copied()).collect();
        assert_eq!(charged, tags);
        assert_eq!(
            [recipe(0).len(), recipe(1).len(), recipe(2).len()],
            [MAX_RECIPE, MAX_RECIPE, MAX_RECIPE / 2 + 3]
        );
        for pc in 0..code.ops.len() {
            assert_eq!(
                code.packed[pc],
                pack_counts(&fitting_prefix(recipe(pc)).0),
                "pc {pc}"
            );
        }
        let lane = |word: u64, tag: ChargeTag| {
            (word >> lane_shift(tag as usize)) & ((1 << lane_bits(tag as usize)) - 1)
        };
        assert_eq!(lane(code.packed[2], ChargeTag::Simple), 2050);
        assert_eq!(lane(code.packed[2], ChargeTag::Div), 1);
        assert_eq!(
            code.packed[0] & LANE_GUARD,
            0,
            "a full chunk sets no guard bit"
        );
        // A recipe seldom holds more than a few tags that are not
        // `Simple` (a fused op's parts, folded constants' ops), and the
        // split does not lean on it: a narrow lane ends a chunk just as
        // the length does.
        let (counts, fits) = fitting_prefix(&[ChargeTag::Mem; 40]);
        assert_eq!((counts[ChargeTag::Mem as usize], fits), (31, 31));
        assert_eq!(pack_counts(&counts) & LANE_GUARD, 0);
    }

    fn recipe(code: &RegCode, pc: usize) -> &[ChargeTag] {
        let (off, len) = code.recipes[pc];
        &code.pool[off as usize..off as usize + len as usize]
    }

    #[test]
    fn selection_gives_a_fused_op_its_parts_recipes_in_order() {
        use ChargeTag::{Branch, Simple, Zero};
        // x + (long)(int)x * 8 < 100, as a `br_if`: the address op
        // retires the `extend` (class zero, like the `wrap` before it),
        // the constant, the `mul` and the `add`, in that order; the branch
        // the constant, the comparison, the `i32.eqz` and itself.
        let code = compile_reg_body(vec![
            Instr::Block(
                BlockType::Empty,
                vec![
                    Instr::LocalGet(0),
                    Instr::LocalGet(0),
                    Instr::I32WrapI64,
                    Instr::I64ExtendI32S,
                    Instr::I64Const(8),
                    Instr::I64Mul,
                    Instr::I64Add,
                    Instr::I64Const(100),
                    Instr::I64LtS,
                    Instr::I32Eqz,
                    Instr::BrIf(0),
                ],
            ),
            Instr::LocalGet(0),
        ]);
        assert!(
            matches!(
                code.ops.as_ref(),
                [
                    RegOp::Una {
                        op: UnaOp::I32WrapI64,
                        ..
                    },
                    RegOp::IndexAdd {
                        ext: IndexExt::S32,
                        k: 8,
                        ..
                    },
                    RegOp::BrCmpImm {
                        op: AluOp::I64LtS,
                        negate: true,
                        k: 100,
                        ..
                    },
                    RegOp::Nop,
                    RegOp::Ret { .. }
                ]
            ),
            "{:?}",
            code.ops
        );
        assert_eq!(recipe(&code, 0), [Simple, Simple, Zero]);
        assert_eq!(recipe(&code, 1), [Zero, Simple, Simple, Simple]);
        assert_eq!(recipe(&code, 2), [Simple, Simple, Simple, Branch]);
        for pc in 0..code.ops.len() {
            let packed = pack_counts(&fitting_prefix(recipe(&code, pc)).0);
            assert_eq!(code.packed[pc], packed, "pc {pc}");
        }
    }

    #[test]
    fn selection_keeps_a_fused_comparison_live_across_the_copies_in_front_of_it() {
        // The branch carries a value to the block's result, so a phi copy
        // stands between the fused comparison's old place and the
        // terminator that now reads its operands: the operands must not
        // share a slot with the phi that copy writes.
        use crate::config::ExecConfig;
        use crate::host::Imports;
        use crate::store::Store;
        use crate::value::Value;

        let body = vec![
            Instr::Block(
                BlockType::Value(ValType::I64),
                vec![
                    Instr::LocalGet(0),
                    Instr::LocalGet(0),
                    Instr::I64Const(5),
                    Instr::I64Add,
                    Instr::LocalGet(0),
                    Instr::I64Const(7),
                    Instr::I64Xor,
                    Instr::I64LtS,
                    Instr::BrIf(0),
                    Instr::Drop,
                    Instr::I64Const(-1),
                ],
            ),
            Instr::LocalSet(1),
            Instr::LocalGet(1),
        ];
        let code = compile_reg_body(body.clone());
        let (at, a, b) = code
            .ops
            .iter()
            .enumerate()
            .find_map(|(pc, op)| match op {
                RegOp::BrCmp { a, b, .. } => Some((pc, *a, *b)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no fused comparison in {:?}", code.ops));
        let RegOp::Move { dst, .. } = code.ops[at - 1] else {
            panic!("no phi copy in front of the branch: {:?}", code.ops);
        };
        assert!(dst != a && dst != b, "{:?}", code.ops);

        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[ValType::I64, ValType::I64, ValType::I32],
            body,
        );
        let module = b.build();
        cage_wasm::validate(&module).expect("fixture validates");
        // x + 5 < x ^ 7 at 0 and 8, not at 2 and 3.
        for (x, expected) in [(0, 0), (2, -1), (3, -1), (8, 8)] {
            let mut reg = Store::new(ExecConfig::default());
            let rh = reg
                .instantiate(&module, &Imports::new())
                .expect("instantiates");
            let mut tree = Store::new(ExecConfig::default());
            let th = tree
                .instantiate(&module, &Imports::new())
                .expect("instantiates");
            let args = [Value::I64(x)];
            assert_eq!(
                reg.call(rh, 0, &args),
                Ok(vec![Value::I64(expected)]),
                "{x}"
            );
            assert_eq!(tree.call_tree(th, 0, &args), Ok(vec![Value::I64(expected)]));
            assert_eq!(reg.charge_counts(rh), tree.charge_counts(th));
        }
    }

    #[test]
    fn constants_are_predecoded() {
        // The register form materializes a float constant as its
        // untagged operand slot (the bit pattern).
        let pi = std::f64::consts::PI.to_bits();
        let code = compile_reg_body(vec![Instr::F64Const(pi), Instr::I64ReinterpretF64]);
        assert!(
            code.ops
                .iter()
                .any(|op| matches!(op, RegOp::Const { v, .. } if *v == pi)),
            "{:?}",
            code.ops
        );
    }

    #[test]
    fn disassembly_prints_bridged_instructions_with_text_mnemonics() {
        // `memory.grow` has no C spelling, so its bridge text is pinned
        // here rather than through `cagec --dump-bytecode`.
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[],
            vec![Instr::LocalGet(0), Instr::MemoryGrow],
        );
        let pre = crate::Precompiled::new(&b.build()).expect("fixture compiles");
        let text = pre.disassemble(0).expect("local function");
        assert!(text.starts_with("func 0 (params 1, results 1): "), "{text}");
        assert!(text.contains("bridge memory.grow args [r0] -> r"), "{text}");
        // A `Sys` op holds no `Instr` to print: its text is `SysOp`'s own
        // and has to stay what the instruction's was.
        let stateful = [
            Instr::Unreachable,
            Instr::GlobalGet(3),
            Instr::GlobalSet(4),
            Instr::MemorySize,
            Instr::MemoryGrow,
            Instr::MemoryFill,
            Instr::MemoryCopy,
            Instr::SegmentNew(16),
            Instr::SegmentSetTag(32),
            Instr::SegmentFree(48),
            Instr::PointerSign,
            Instr::PointerAuth,
        ];
        for instr in &stateful {
            let (op, imm) = SysOp::of(instr).expect("a stateful instruction");
            assert_eq!(op.text(imm), instr.to_string());
        }
    }
}
