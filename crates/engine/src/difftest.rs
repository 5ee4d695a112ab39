//! Differential property test: the register tier (`Store::call`, SSA →
//! linear scan → 3-address bytecode) must be bit-identical to the
//! structured tree walker (`Store::call_tree`, the reference
//! implementation in `tree.rs`) on randomized control-flow bodies.
//! Same results, same traps, same charge: the whole vector of retired
//! counts per class plus the bits of what hosts charged, from which cycles
//! and the retired-instruction count follow — so two mis-charges that
//! cancel in the cycle total still show.
//!
//! Bodies are generated correct-by-construction (every statement is
//! stack-neutral, loops are bounded by a counter incremented at the loop
//! header so random `br` back-edges cannot spin forever) and then pushed
//! through the real validator as a sanity gate. Divisions by local values
//! and stores to local-derived addresses give the generator a healthy
//! trap rate, so the trap paths are compared too — including how many
//! cycles were charged before the trap fired.
//!
//! Float statements (f64 arithmetic on locals and constants — including
//! NaN and ±inf — float compares, f32/f64 loads and stores, and trapping
//! float→int truncations) exercise the untagged-slot float encoding, the
//! float 3-address ALU ops and the scalar memory fast path against the
//! tree oracle, bit-for-bit.
//!
//! Register-pressure statements stress the linear scan specifically:
//! expression trees holding dozens of simultaneously live temporaries
//! (wide frames, heavy slot reuse), temporaries pinned live across calls
//! and `memory.grow` (forcing save/restore and cache refresh under live
//! values), and value-yielding `if/else` diamonds (phis at the join).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cage_wasm::builder::ModuleBuilder;
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::{validate, BlockType, Instr, MemArg, Module, ValType};

use crate::config::{ExecConfig, InternalSafety};
use crate::cost::{ChargeClass, ChargeCounts};
use crate::host::Imports;
use crate::memory::RUNTIME_SLACK;
use crate::store::{InstanceLimits, Store};
use crate::value::Value;

/// Locals: 0 = i64 argument, 1 = i64 accumulator, 2 = i64 scratch,
/// 3 = i64 counter, 4 = i32 flag, 5 = i64 fuel (loop budget),
/// 6/7 = f64 accumulators.
const ARG: u32 = 0;
const ACC: u32 = 1;
const SCR: u32 = 2;
const CNT: u32 = 3;
const FLAG: u32 = 4;
const FUEL: u32 = 5;
const FA: u32 = 6;
const FB: u32 = 7;

/// Function index space of the generated module: 0 = `run` (the function
/// under test), 1 = a generated leaf helper, 2 = a helper of a different
/// signature (the `call_indirect` type-mismatch bait), 3 = unbounded
/// recursion (always ends in `CallStackExhausted`).
const HELPER: u32 = 1;
const MISMATCH: u32 = 2;
const RECURSE: u32 = 3;

struct Gen {
    rng: StdRng,
    /// Branch arity of each enclosing label, innermost last. Entry 0 is
    /// the function label (arity 1).
    frames: Vec<usize>,
    /// Whether call statements may be generated (off inside the leaf
    /// helper so call depth stays bounded).
    allow_calls: bool,
}

#[allow(clippy::too_many_lines)]
impl Gen {
    fn new(seed: u64, allow_calls: bool) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            frames: vec![1],
            allow_calls,
        }
    }

    /// Uniform pick in `0..n` (the vendored rand has no `gen_range`).
    fn upto(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.rng.next_u64() % (hi - lo) as u64) as i64
    }

    fn pick_i64_local(&mut self) -> u32 {
        [ARG, ACC, SCR, CNT][self.upto(4)]
    }

    /// Assignable i64 locals: never the loop counter — random writes to
    /// it would break the loop-termination bound.
    fn pick_dst_local(&mut self) -> u32 {
        [ARG, ACC, SCR][self.upto(3)]
    }

    fn pick_f64_local(&mut self) -> u32 {
        [FA, FB][self.upto(2)]
    }

    fn small_float(&mut self) -> f64 {
        [
            0.0,
            -0.0,
            1.5,
            -3.25,
            1e300, // truncation-overflow bait
            f64::NAN,
            f64::INFINITY,
            12345.678,
        ][self.upto(8)]
    }

    fn int_load_op(&mut self) -> LoadOp {
        use LoadOp::*;
        [
            I32Load, I32Load8S, I32Load8U, I32Load16S, I32Load16U, I64Load, I64Load8S, I64Load8U,
            I64Load16S, I64Load16U, I64Load32S, I64Load32U,
        ][self.upto(12)]
    }

    fn int_store_op(&mut self) -> StoreOp {
        use StoreOp::*;
        [
            I32Store, I32Store8, I32Store16, I64Store, I64Store8, I64Store16, I64Store32,
        ][self.upto(7)]
    }

    /// Pushes one memory index/length operand: small constants resolve
    /// in-bounds, locals often trap.
    fn mem_operand(&mut self, out: &mut Vec<Instr>) {
        if self.rng.gen() {
            out.push(Instr::I64Const(self.int_in(0, 66_000)));
        } else {
            out.push(Instr::LocalGet(self.pick_i64_local()));
        }
    }

    fn small_const(&mut self) -> i64 {
        match self.upto(4) {
            0 => 0,
            1 => self.int_in(-4, 8),
            2 => i64::from(i32::MIN),
            _ => self.int_in(-1000, 1000),
        }
    }

    /// Pushes one i64 value.
    fn value(&mut self, out: &mut Vec<Instr>) {
        match self.upto(3) {
            0 => out.push(Instr::LocalGet(self.pick_i64_local())),
            1 => out.push(Instr::I64Const(self.small_const())),
            _ => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::I64Const(self.small_const()));
                out.push(match self.upto(4) {
                    0 => Instr::I64Add,
                    1 => Instr::I64Sub,
                    2 => Instr::I64Mul,
                    _ => Instr::I64Xor,
                });
            }
        }
    }

    /// Pushes one i32 condition. Shapes chosen to cover every branch
    /// fusion: bare flag reads (`*Local`), `i32.eqz` tails (`*Z`), and
    /// unfusable comparison results.
    fn condition(&mut self, out: &mut Vec<Instr>) {
        match self.upto(5) {
            0 => out.push(Instr::LocalGet(FLAG)),
            1 => {
                out.push(Instr::LocalGet(FLAG));
                out.push(Instr::I32Eqz);
            }
            2 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::I64Eqz);
            }
            3 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::I64Eqz);
                out.push(Instr::I32Eqz);
            }
            _ => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::I64Const(self.small_const()));
                out.push(if self.rng.gen() {
                    Instr::I64LtS
                } else {
                    Instr::I64GtS
                });
            }
        }
    }

    /// Pushes one f64 value: float locals, constants (NaN and infinities
    /// included), i64→f64 conversions, and local/const arithmetic — the
    /// shapes that fuse into the float 3-address superinstructions.
    fn fvalue(&mut self, out: &mut Vec<Instr>) {
        match self.upto(4) {
            0 => out.push(Instr::LocalGet(self.pick_f64_local())),
            1 => out.push(Instr::F64Const(self.small_float().to_bits())),
            2 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::F64ConvertI64S);
            }
            _ => {
                out.push(Instr::LocalGet(self.pick_f64_local()));
                if self.rng.gen() {
                    out.push(Instr::F64Const(self.small_float().to_bits()));
                } else {
                    out.push(Instr::LocalGet(self.pick_f64_local()));
                }
                out.push(match self.upto(5) {
                    0 => Instr::F64Add,
                    1 => Instr::F64Sub,
                    2 => Instr::F64Mul,
                    3 => Instr::F64Min,
                    _ => Instr::F64Max,
                });
            }
        }
    }

    /// One stack-neutral float statement: f64 arithmetic, float compares
    /// into the flag, f32/f64 memory traffic at local-derived addresses
    /// (often trapping), and trapping float→int truncations.
    fn float_statement(&mut self, out: &mut Vec<Instr>) {
        match self.upto(8) {
            0 | 1 => {
                self.fvalue(out);
                out.push(Instr::LocalSet(self.pick_f64_local()));
            }
            2 => {
                self.fvalue(out);
                self.fvalue(out);
                out.push(match self.upto(4) {
                    0 => Instr::F64Lt,
                    1 => Instr::F64Gt,
                    2 => Instr::F64Le,
                    _ => Instr::F64Eq,
                });
                out.push(Instr::LocalSet(FLAG));
            }
            3 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                self.fvalue(out);
                out.push(Instr::Store(
                    cage_wasm::instr::StoreOp::F64Store,
                    MemArg::offset(self.rng.next_u64() % 64),
                ));
            }
            4 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::Load(
                    cage_wasm::instr::LoadOp::F64Load,
                    MemArg::offset(self.rng.next_u64() % 64),
                ));
                out.push(Instr::LocalSet(self.pick_f64_local()));
            }
            5 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                self.fvalue(out);
                out.push(Instr::F32DemoteF64);
                out.push(Instr::Store(
                    cage_wasm::instr::StoreOp::F32Store,
                    MemArg::offset(self.rng.next_u64() % 64),
                ));
            }
            6 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::Load(
                    cage_wasm::instr::LoadOp::F32Load,
                    MemArg::offset(self.rng.next_u64() % 64),
                ));
                out.push(Instr::F64PromoteF32);
                out.push(Instr::LocalSet(self.pick_f64_local()));
            }
            _ => {
                // Traps on NaN and out-of-range values (the constant pool
                // plants both).
                self.fvalue(out);
                out.push(if self.rng.gen() {
                    Instr::I64TruncF64S
                } else {
                    Instr::I64TruncF64U
                });
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
        }
    }

    /// Call statement: direct leaf calls, `call_indirect` through a
    /// 3-slot table (slot 0 = the leaf, slot 1 = a signature-mismatched
    /// function, slot 2 = empty — so random selectors hit the happy
    /// path, `IndirectCallTypeMismatch` and `UndefinedElement`), or a
    /// rare unbounded recursion ending in `CallStackExhausted`. All of
    /// it exercises the explicit frame save/restore in the flat
    /// dispatcher — depth accounting included — against the oracle's
    /// recursive calls.
    fn call_statement(&mut self, out: &mut Vec<Instr>) {
        match self.upto(8) {
            0..=4 => {
                self.value(out);
                out.push(Instr::Call(HELPER));
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
            5 | 6 => {
                self.value(out);
                if self.rng.gen() {
                    // Constant selectors hit each table slot — including
                    // slot 1 (type mismatch) — with real probability.
                    out.push(Instr::I32Const(self.int_in(0, 4) as i32));
                } else {
                    out.push(Instr::LocalGet(self.pick_i64_local()));
                    out.push(Instr::I32WrapI64);
                }
                out.push(Instr::CallIndirect(0));
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
            _ => {
                self.value(out);
                out.push(Instr::Call(RECURSE));
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
        }
    }

    /// Integer memory traffic over every load/store width — the shapes
    /// that fuse into `LoadR`/`LoadRSet`/`StoreRR`/`StoreRC`/`StoreSR`
    /// and their unfused stack-address forms.
    fn wide_mem_statement(&mut self, out: &mut Vec<Instr>) {
        let offset = MemArg::offset(self.rng.next_u64() % 64);
        if self.rng.gen() {
            out.push(Instr::LocalGet(self.pick_i64_local()));
            let op = self.int_load_op();
            out.push(Instr::Load(op, offset));
            if op.result_type() == ValType::I32 {
                match self.upto(3) {
                    0 => out.push(Instr::LocalSet(FLAG)),
                    1 => {
                        out.push(Instr::I64ExtendI32S);
                        out.push(Instr::LocalSet(self.pick_dst_local()));
                    }
                    _ => {
                        out.push(Instr::I64ExtendI32U);
                        out.push(Instr::LocalSet(self.pick_dst_local()));
                    }
                }
            } else {
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
        } else {
            out.push(Instr::LocalGet(self.pick_i64_local()));
            let op = self.int_store_op();
            if op.value_type() == ValType::I32 {
                match self.upto(3) {
                    0 => out.push(Instr::LocalGet(FLAG)),
                    1 => out.push(Instr::I32Const(self.small_const() as i32)),
                    _ => {
                        out.push(Instr::LocalGet(self.pick_i64_local()));
                        out.push(Instr::I32WrapI64);
                    }
                }
            } else if self.rng.gen() {
                out.push(Instr::LocalGet(self.pick_i64_local()));
            } else {
                out.push(Instr::I64Const(self.small_const()));
            }
            out.push(Instr::Store(op, offset));
        }
    }

    /// Array-address chains — `base + ext(index) * scale`, the shape
    /// instruction selection fuses into one op — then a load or store at
    /// the computed address. Every spelling: signed, unsigned or no
    /// widening; the scale on either side of the product and the product
    /// on either side of the sum; scales that wrap or vanish; and, half
    /// the time, a second reader of the widened index or of the product
    /// (through a `local.tee`), which must keep that part an op of its own.
    fn addr_chain_statement(&mut self, out: &mut Vec<Instr>) {
        let mut base = Vec::new();
        if self.rng.gen() {
            // Constant base through a temp.
            base.push(Instr::I64Const(self.int_in(0, 4096)));
            base.push(Instr::LocalSet(SCR));
            base.push(Instr::LocalGet(SCR));
        } else {
            base.push(Instr::LocalGet(self.pick_i64_local()));
        }
        let mut index = Vec::new();
        match self.upto(4) {
            // Bare local index.
            0 => index.push(Instr::LocalGet(self.pick_i64_local())),
            // i32 index, widened either way.
            1 => index.extend([Instr::LocalGet(FLAG), Instr::I64ExtendI32S]),
            2 => index.extend([Instr::LocalGet(FLAG), Instr::I64ExtendI32U]),
            // Compound index.
            _ => index.extend([
                Instr::LocalGet(self.pick_i64_local()),
                Instr::I64Const(7),
                Instr::I64And,
            ]),
        }
        let scale = Instr::I64Const([8, 8, 8, 1, 0, -1, 24, i64::MIN][self.upto(8)]);
        // Second readers: of the index, of the product, or none.
        let reread = self.upto(4);
        if reread == 0 {
            index.push(Instr::LocalTee(ACC));
        }
        let mut product = if self.rng.gen() {
            [index, vec![scale]].concat()
        } else {
            [vec![scale], index].concat()
        };
        product.push(Instr::I64Mul);
        if reread == 1 {
            product.push(Instr::LocalTee(ACC));
        }
        if self.rng.gen() {
            out.extend(base);
            out.extend(product);
        } else {
            out.extend(product);
            out.extend(base);
        }
        out.push(Instr::I64Add);
        out.push(Instr::LocalSet(SCR));
        out.push(Instr::LocalGet(SCR));
        let offset = MemArg::offset(self.rng.next_u64() % 32);
        if self.rng.gen() {
            out.push(Instr::Load(LoadOp::I64Load, offset));
            out.push(Instr::LocalSet(self.pick_dst_local()));
        } else if self.rng.gen() {
            out.push(Instr::LocalGet(self.pick_i64_local()));
            out.push(Instr::Store(StoreOp::I64Store, offset));
        } else {
            out.push(Instr::I64Const(self.small_const()));
            out.push(Instr::Store(StoreOp::I64Store, offset));
        }
    }

    /// `memory.grow`: small constant deltas succeed (and must invalidate
    /// the flat dispatcher's cached memory view); local deltas usually
    /// fail with `-1`. Both paths are compared against the oracle.
    fn grow_statement(&mut self, out: &mut Vec<Instr>) {
        match self.upto(3) {
            0 => out.push(Instr::I64Const(0)),
            1 => out.push(Instr::I64Const(1)),
            _ => out.push(Instr::LocalGet(self.pick_i64_local())),
        }
        out.push(Instr::MemoryGrow);
        out.push(Instr::LocalSet(self.pick_dst_local()));
    }

    /// The stateful instructions the other statements leave out: both
    /// globals, `memory.size`, pointer sign/auth (moves on the base
    /// config, real under the second) and the segment life cycle (inert
    /// on the base config). Operands mix 16-aligned constants, which
    /// succeed, with locals, which mostly trap — unaligned, out of range,
    /// a pointer that was never signed, a free through the wrong tag.
    fn stateful_statement(&mut self, out: &mut Vec<Instr>) {
        let global = self.upto(2) as u32;
        let aligned = |g: &mut Gen, out: &mut Vec<Instr>| {
            if g.upto(4) == 0 {
                out.push(Instr::LocalGet(g.pick_i64_local()));
            } else {
                out.push(Instr::I64Const(16 * g.int_in(0, 64)));
            }
        };
        match self.upto(8) {
            0 => {
                out.push(Instr::GlobalGet(global));
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
            1 => {
                self.value(out);
                out.push(Instr::GlobalSet(global));
            }
            2 => {
                out.push(Instr::MemorySize);
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
            // Sign, and usually authenticate what was signed.
            3 => {
                self.value(out);
                out.push(Instr::PointerSign);
                if self.upto(3) != 0 {
                    out.push(Instr::PointerAuth);
                }
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
            // Authenticate whatever a local holds.
            4 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::PointerAuth);
                out.push(Instr::LocalSet(self.pick_dst_local()));
            }
            // A segment's life: created, perhaps handed another range,
            // perhaps freed (sometimes twice, sometimes through a stale
            // local).
            _ => {
                let offset = 16 * self.int_in(0, 4) as u64;
                aligned(self, out);
                aligned(self, out);
                out.push(Instr::SegmentNew(offset));
                out.push(Instr::LocalSet(SCR));
                if self.rng.gen() {
                    aligned(self, out);
                    out.push(Instr::LocalGet(SCR));
                    aligned(self, out);
                    out.push(Instr::SegmentSetTag(offset));
                }
                for _ in 0..self.upto(3) {
                    out.push(Instr::LocalGet(SCR));
                    aligned(self, out);
                    out.push(Instr::SegmentFree(0));
                }
            }
        }
    }

    /// Bulk ops: `memory.fill`/`memory.copy` with mixed constant/local
    /// operands, so both the in-bounds loop and the trapping resolve are
    /// differentially pinned.
    fn bulk_statement(&mut self, out: &mut Vec<Instr>) {
        if self.rng.gen() {
            self.mem_operand(out); // dst
            if self.rng.gen() {
                out.push(Instr::LocalGet(FLAG));
            } else {
                out.push(Instr::I32Const(self.small_const() as i32));
            }
            self.mem_operand(out); // len
            out.push(Instr::MemoryFill);
        } else {
            self.mem_operand(out); // dst
            self.mem_operand(out); // src
            self.mem_operand(out); // len
            out.push(Instr::MemoryCopy);
        }
    }

    /// Register pressure: materialises 18–40 simultaneously live
    /// temporaries on the operand stack before folding them down to one
    /// value, so the linear scan's widest frames and its slot reuse are
    /// differentially pinned — the tree oracle assigns no slots at all.
    fn pressure_statement(&mut self, out: &mut Vec<Instr>) {
        let n = 18 + self.upto(23);
        for _ in 0..n {
            self.value(out);
        }
        for _ in 0..n - 1 {
            out.push(match self.upto(3) {
                0 => Instr::I64Add,
                1 => Instr::I64Xor,
                _ => Instr::I64Mul,
            });
        }
        out.push(Instr::LocalSet(self.pick_dst_local()));
    }

    /// Temporaries pinned live across a frame switch (a helper call) or
    /// a `memory.grow` (which invalidates the cached memory view): the
    /// register file must carry them through intact.
    fn live_across_call_statement(&mut self, out: &mut Vec<Instr>) {
        let n = 2 + self.upto(4);
        for _ in 0..n {
            self.value(out);
        }
        if self.allow_calls && self.rng.gen() {
            self.value(out);
            out.push(Instr::Call(HELPER));
        } else {
            out.push(Instr::I64Const(i64::from(self.rng.gen::<bool>())));
            out.push(Instr::MemoryGrow);
        }
        for _ in 0..n {
            out.push(Instr::I64Add);
        }
        out.push(Instr::LocalSet(self.pick_dst_local()));
    }

    /// A value-yielding `if/else` diamond — a phi at the join — with a
    /// chance of one nested level, so phi operands are themselves phis.
    fn phi_diamond_statement(&mut self, out: &mut Vec<Instr>, depth: usize) {
        self.condition(out);
        let arm = |g: &mut Gen| {
            let mut body = Vec::new();
            if depth == 0 && g.upto(3) == 0 {
                g.phi_diamond_value(&mut body);
            } else {
                g.value(&mut body);
            }
            body
        };
        let then_b = arm(self);
        let else_b = arm(self);
        out.push(Instr::If(BlockType::Value(ValType::I64), then_b, else_b));
        out.push(Instr::LocalSet(self.pick_dst_local()));
    }

    /// An inner diamond that leaves its value on the stack (for nesting
    /// inside an outer diamond's arm).
    fn phi_diamond_value(&mut self, out: &mut Vec<Instr>) {
        self.condition(out);
        let mut then_b = Vec::new();
        self.value(&mut then_b);
        let mut else_b = Vec::new();
        self.value(&mut else_b);
        out.push(Instr::If(BlockType::Value(ValType::I64), then_b, else_b));
    }

    /// The mem2reg temp shapes: `t = a <op> b; d = t`.
    fn set_move_statement(&mut self, out: &mut Vec<Instr>) {
        out.push(Instr::LocalGet(self.pick_i64_local()));
        if self.rng.gen() {
            out.push(Instr::LocalGet(self.pick_i64_local()));
        } else {
            out.push(Instr::I64Const(self.small_const()));
        }
        out.push(match self.upto(3) {
            0 => Instr::I64Add,
            1 => Instr::I64Mul,
            _ => Instr::I64Xor,
        });
        out.push(Instr::LocalSet(ARG));
        out.push(Instr::LocalGet(ARG));
        out.push(Instr::LocalSet(self.pick_dst_local()));
    }

    /// Emits one stack-neutral statement; returns `true` when it
    /// unconditionally transfers control (the sequence is finished).
    fn statement(&mut self, out: &mut Vec<Instr>, depth: usize) -> bool {
        if self.allow_calls && self.upto(8) == 0 {
            self.call_statement(out);
            return false;
        }
        let max = if depth >= 4 { 20 } else { 25 };
        match self.upto(max) {
            // acc-style arithmetic.
            0 | 1 => {
                self.value(out);
                out.push(Instr::LocalSet(self.pick_dst_local()));
                false
            }
            // Division by a local: traps when the divisor is zero.
            2 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(if self.rng.gen() {
                    Instr::I64DivS
                } else {
                    Instr::I64RemS
                });
                out.push(Instr::LocalSet(self.pick_dst_local()));
                false
            }
            // Memory traffic at a local-derived address: often traps.
            3 => {
                out.push(Instr::LocalGet(self.pick_i64_local()));
                if self.rng.gen() {
                    self.value(out);
                    out.push(Instr::Store(
                        cage_wasm::instr::StoreOp::I64Store,
                        MemArg::offset(self.rng.next_u64() % 64),
                    ));
                } else {
                    out.push(Instr::Load(
                        cage_wasm::instr::LoadOp::I64Load,
                        MemArg::offset(self.rng.next_u64() % 64),
                    ));
                    out.push(Instr::LocalSet(self.pick_dst_local()));
                }
                false
            }
            // Compare into the i32 flag.
            4 => {
                self.condition(out);
                out.push(Instr::LocalSet(FLAG));
                false
            }
            // Conditional branch (value-carrying when the target expects
            // one; the untaken edge parks the value in a local).
            5 => {
                let depth_choice = self.upto(self.frames.len());
                let label = (self.frames.len() - 1 - depth_choice) as u32;
                let arity = self.frames[depth_choice];
                if arity == 1 {
                    out.push(Instr::LocalGet(ACC));
                }
                self.condition(out);
                out.push(Instr::BrIf(label));
                if arity == 1 {
                    out.push(Instr::LocalSet(SCR));
                }
                false
            }
            // Unconditional branch.
            6 => {
                let depth_choice = self.upto(self.frames.len());
                let label = (self.frames.len() - 1 - depth_choice) as u32;
                if self.frames[depth_choice] == 1 {
                    out.push(Instr::LocalGet(ACC));
                }
                out.push(Instr::Br(label));
                true
            }
            // br_table over same-arity targets.
            7 => {
                let arity = usize::from(self.rng.gen::<bool>());
                let candidates: Vec<u32> = self
                    .frames
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| **a == arity)
                    .map(|(i, _)| (self.frames.len() - 1 - i) as u32)
                    .collect();
                if candidates.is_empty() {
                    // No matching label: fall back to a return.
                    out.push(Instr::LocalGet(ACC));
                    out.push(Instr::Return);
                    return true;
                }
                if arity == 1 {
                    out.push(Instr::LocalGet(ACC));
                }
                let pick = |g: &mut Gen| candidates[g.upto(candidates.len())];
                let targets: Vec<u32> = (0..self.upto(4)).map(|_| pick(self)).collect();
                let default = pick(self);
                out.push(Instr::LocalGet(self.pick_i64_local()));
                out.push(Instr::I32WrapI64);
                out.push(Instr::BrTable(targets, default));
                true
            }
            // Float traffic (arithmetic, compares, memory, truncations).
            8..=10 => {
                self.float_statement(out);
                false
            }
            // Integer memory traffic over every width.
            11 => {
                self.wide_mem_statement(out);
                false
            }
            // Array-address chains at register-held addresses.
            12 => {
                self.addr_chain_statement(out);
                false
            }
            // memory.grow (cache invalidation under test).
            13 => {
                self.grow_statement(out);
                false
            }
            // memory.fill / memory.copy.
            14 => {
                self.bulk_statement(out);
                false
            }
            // mem2reg temp copy shapes.
            15 => {
                self.set_move_statement(out);
                false
            }
            // Register pressure: dozens of live temporaries.
            16 => {
                self.pressure_statement(out);
                false
            }
            // Temporaries live across a call or memory.grow.
            17 => {
                self.live_across_call_statement(out);
                false
            }
            // Value-yielding if/else diamonds: phis at the join.
            18 => {
                self.phi_diamond_statement(out, 0);
                false
            }
            // Globals, memory.size, pointer sign/auth, segments.
            19 => {
                self.stateful_statement(out);
                false
            }
            // Early return / unreachable.
            20 => {
                if self.upto(4) == 0 {
                    out.push(Instr::Unreachable);
                } else {
                    out.push(Instr::LocalGet(ACC));
                    out.push(Instr::Return);
                }
                true
            }
            // Nested block, empty or value-yielding.
            21 | 22 => {
                if self.rng.gen() {
                    self.frames.push(0);
                    let inner = self.sequence(depth + 1, &[]);
                    self.frames.pop();
                    out.push(Instr::Block(BlockType::Empty, inner));
                } else {
                    self.frames.push(1);
                    let inner = self.sequence(depth + 1, &[Instr::LocalGet(ACC)]);
                    self.frames.pop();
                    out.push(Instr::Block(BlockType::Value(ValType::I64), inner));
                    out.push(Instr::LocalSet(self.pick_dst_local()));
                }
                false
            }
            // If / if-else.
            23 => {
                self.condition(out);
                self.frames.push(0);
                let then_body = self.sequence(depth + 1, &[]);
                let else_body = if self.rng.gen() {
                    self.sequence(depth + 1, &[])
                } else {
                    Vec::new()
                };
                self.frames.pop();
                out.push(Instr::If(BlockType::Empty, then_body, else_body));
                false
            }
            // Fuel-bounded loop: every loop header burns one unit of the
            // function-wide fuel local and bails out when it runs dry, so
            // any combination of random back-edges terminates — no
            // generated statement may write the fuel local.
            _ => {
                self.frames.push(0); // exit block label
                self.frames.push(0); // loop label
                let mut body = vec![
                    Instr::LocalGet(FUEL),
                    Instr::I64Const(1),
                    Instr::I64Sub,
                    Instr::LocalSet(FUEL),
                    Instr::LocalGet(FUEL),
                    Instr::I64Const(0),
                    Instr::I64LeS,
                    Instr::BrIf(1),
                ];
                let inner = self.sequence(depth + 1, &[Instr::Br(0)]);
                body.extend(inner);
                self.frames.pop();
                self.frames.pop();
                out.push(Instr::Block(
                    BlockType::Empty,
                    vec![Instr::Loop(BlockType::Empty, body)],
                ));
                false
            }
        }
    }

    /// A statement sequence ending with `tail` (unless a statement
    /// already transferred control).
    fn sequence(&mut self, depth: usize, tail: &[Instr]) -> Vec<Instr> {
        let mut out = Vec::new();
        let count = 1 + self.upto(7);
        for _ in 0..count {
            if self.statement(&mut out, depth) {
                return out;
            }
        }
        out.extend_from_slice(tail);
        out
    }

    fn body(&mut self) -> Vec<Instr> {
        let mut out = vec![Instr::I64Const(60), Instr::LocalSet(FUEL)];
        out.extend(self.sequence(0, &[Instr::LocalGet(ACC)]));
        out
    }
}

fn random_module(seed: u64) -> Module {
    let locals = [
        ValType::I64,
        ValType::I64,
        ValType::I64,
        ValType::I32,
        ValType::I64,
        ValType::F64,
        ValType::F64,
    ];
    let mut g = Gen::new(seed, true);
    let body = g.body();
    // The leaf helper gets its own randomized body from a decorrelated
    // seed, with calls disabled so call depth stays bounded.
    let mut leaf = Gen::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xBEEF, false);
    let helper_body = leaf.body();

    let mut b = ModuleBuilder::new();
    // One initial page with an explicit 64-page maximum: constant grows
    // still succeed (and stress the reset path's shrink-in-place
    // branch), but a grow by a computed local value — products in the
    // millions are routine in these bodies — fails with `-1` instead of
    // asking the host allocator for terabytes.
    b.add_memory(cage_wasm::MemoryType {
        limits: cage_wasm::Limits {
            min: 1,
            max: Some(64),
        },
        memory64: true,
    });
    // Two mutable globals, told apart by what they start as.
    b.add_global(ValType::I64, true, Instr::I64Const(5));
    b.add_global(ValType::I64, true, Instr::I64Const(-6));
    let run = b.add_function(&[ValType::I64], &[ValType::I64], &locals, body);
    let helper = b.add_function(&[ValType::I64], &[ValType::I64], &locals, helper_body);
    let mismatch = b.add_function(
        &[ValType::I64, ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0)],
    );
    let recurse = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![Instr::LocalGet(0), Instr::Call(RECURSE)],
    );
    assert_eq!(
        (helper, mismatch, recurse),
        (HELPER, MISMATCH, RECURSE),
        "function index space drifted"
    );
    // Slot 0: the leaf; slot 1: wrong signature; slot 2: empty.
    b.add_table(3);
    b.add_elem(0, vec![HELPER, MISMATCH]);
    b.export_func("run", run);
    b.build()
}

fn configs() -> [ExecConfig; 2] {
    // A modest call-depth limit: deep enough that `RECURSE` builds a real
    // frame stack before trapping, shallow enough that the *oracle* —
    // which still recurses one debug-size Rust frame chain per guest
    // call — fits the default test-thread stack.
    let base = ExecConfig {
        max_call_depth: 40,
        ..ExecConfig::default()
    };
    [
        base,
        // Internal memory safety with pointer authentication: memory
        // accesses leave the cached fast path for the `resolve()` ladder
        // and its tag check, segments are live and sign/auth are real,
        // under a second cost model.
        ExecConfig {
            internal: InternalSafety::Mte,
            pointer_auth: true,
            ..base
        },
    ]
}

/// Renders the module's register bytecode (as it executes: slot
/// assignments, charge recipes and resolved targets included) next to
/// the structured tree, so a reported seed is actionable without
/// re-running the generator by hand.
fn dump_divergence(module: &Module) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let pre = crate::Precompiled::new(module).ok();
    for (name, idx) in [("run", 0u32), ("helper", HELPER)] {
        let _ = writeln!(out, "--- register bytecode ({name}) ---");
        out.push_str(
            &pre.as_ref()
                .and_then(|p| p.disassemble(idx))
                .unwrap_or_default(),
        );
    }
    let _ = writeln!(out, "--- structured tree (run) ---");
    let _ = writeln!(out, "{:#?}", module.funcs[0].body);
    out
}

/// One tier's observable outcome: result-or-trap and what the instance
/// was charged.
type Observed = (Result<Vec<Value>, crate::trap::Trap>, ChargeCounts);

fn assert_bitwise_same(seed: u64, pair: &str, module: &Module, a: &Observed, b: &Observed) {
    match (&a.0, &b.0) {
        (Ok(x), Ok(y)) => {
            assert_eq!(
                x.len(),
                y.len(),
                "seed {seed}: {pair}: result arity diverged"
            );
            for (l, r) in x.iter().zip(y) {
                assert!(
                    l.bit_eq(r),
                    "seed {seed}: {pair}: results diverged: {l:?} vs {r:?}\n{}",
                    dump_divergence(module)
                );
            }
        }
        (Err(x), Err(y)) => {
            assert_eq!(
                x,
                y,
                "seed {seed}: {pair}: traps diverged\n{}",
                dump_divergence(module)
            );
        }
        _ => panic!(
            "seed {seed}: {pair}: outcome diverged: {:?} vs {:?}\n{}",
            a.0,
            b.0,
            dump_divergence(module)
        ),
    }
    assert_eq!(
        a.1,
        b.1,
        "seed {seed}: {pair}: charge counts diverged\n{}",
        dump_divergence(module),
    );
}

/// Runs one generated module under every config, asserting the register
/// tier and the tree oracle are bit-identical; returns
/// whether the base-config execution trapped (the trap-rate probe).
fn check_equivalence(seed: u64, arg: i64) -> bool {
    check_equivalence_with(seed, arg, InstanceLimits::default())
}

/// [`check_equivalence`] under explicit resource limits, installed
/// identically on both tiers' stores: limit denials (`memory.grow`
/// reporting `-1` where the unlimited module would have grown, and the
/// OOB traps of bulk ops that then land past the pinned size) must be
/// just as bit-identical as the happy paths.
fn check_equivalence_with(seed: u64, arg: i64, limits: InstanceLimits) -> bool {
    let module = random_module(seed);
    validate(&module)
        .unwrap_or_else(|e| panic!("generator produced invalid module: {e}\nseed {seed}"));
    let mut base_trapped = false;
    type RunFn<'a> = &'a dyn Fn(
        &mut Store,
        crate::store::InstanceHandle,
    ) -> Result<Vec<Value>, crate::trap::Trap>;
    for (ci, config) in configs().into_iter().enumerate() {
        let args = [Value::I64(arg)];
        let observe = |run: RunFn| -> Observed {
            let mut store = Store::new(config);
            store.set_default_limits(limits);
            let h = store
                .instantiate(&module, &Imports::new())
                .expect("instantiates");
            let result = run(&mut store, h);
            (result, store.charge_counts(h))
        };
        let reg = observe(&|s, h| s.invoke(h, "run", &args));
        let tree = observe(&|s, h| s.call_tree(h, 0, &args));
        if ci == 0 {
            base_trapped = reg.0.is_err();
        }

        assert_bitwise_same(seed, "register vs tree", &module, &reg, &tree);
    }
    base_trapped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn both_tiers_are_bit_identical(seed: u64, arg: i64) {
        check_equivalence(seed, arg);
    }
}

#[test]
fn known_shapes_are_bit_identical() {
    // A few pinned seeds so a regression reproduces without the runner.
    for seed in [0, 1, 2, 42, 0xCA9E, u64::MAX] {
        check_equivalence(seed, 7);
        check_equivalence(seed, -3);
    }
}

/// The same random bodies with the memory pinned at its single initial
/// page: every `memory.grow` with a positive delta is denied by the
/// resource limit (the guest observes `-1`), and bulk ops that banked on
/// the grown region trap OOB instead — identically across both tiers
/// and both cost models.
const PINNED: InstanceLimits = InstanceLimits {
    max_memory_pages: Some(1),
    max_table_elements: None,
    max_call_depth: None,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn limit_denied_grows_are_bit_identical_across_tiers(seed: u64, arg: i64) {
        check_equivalence_with(seed, arg, PINNED);
    }
}

#[test]
fn known_shapes_are_bit_identical_under_a_page_limit() {
    for seed in [0, 1, 2, 42, 0xCA9E, u64::MAX] {
        check_equivalence_with(seed, 7, PINNED);
        check_equivalence_with(seed, -3, PINNED);
    }
}

/// The hand-pinned shape of the limit story: a grow that the module type
/// allows (max 64 pages) but the instance limit denies, followed by a
/// `memory.fill` into the region the grow would have provided. With the
/// limit, the grow reports `-1` and the fill traps OOB; without it, both
/// succeed — and each of the two worlds is internally bit-identical
/// across the register tier and the tree oracle.
#[test]
fn page_limit_denies_grow_and_downstream_fill_traps_across_tiers() {
    let mut b = ModuleBuilder::new();
    b.add_memory(cage_wasm::MemoryType {
        limits: cage_wasm::Limits {
            min: 1,
            max: Some(64),
        },
        memory64: true,
    });
    // run(delta) -> grow result; then fill 8 bytes starting in page 2
    // (in bounds only if the grow succeeded).
    b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64],
        vec![
            Instr::LocalGet(0),
            Instr::MemoryGrow,
            Instr::LocalSet(1),
            Instr::I64Const(65_536 + 16),
            Instr::I32Const(0xAB),
            Instr::I64Const(8),
            Instr::MemoryFill,
            Instr::LocalGet(1),
        ],
    );
    let module = b.build();
    validate(&module).expect("hand-built module validates");

    let observe = |limits: InstanceLimits, tree: bool| -> Observed {
        let mut store = Store::new(ExecConfig::default());
        store.set_default_limits(limits);
        let h = store
            .instantiate(&module, &Imports::new())
            .expect("instantiates");
        let args = [Value::I64(1)];
        let result = if tree {
            store.call_tree(h, 0, &args)
        } else {
            store.call(h, 0, &args)
        };
        (result, store.charge_counts(h))
    };

    let capped = observe(PINNED, false);
    assert!(
        matches!(capped.0, Err(crate::trap::Trap::OutOfBounds { .. })),
        "capped grow should leave the fill OOB, got {:?}",
        capped.0
    );
    assert_eq!(capped, observe(PINNED, true), "capped: register vs tree");

    let unlimited = observe(InstanceLimits::default(), false);
    assert_eq!(
        unlimited.0,
        Ok(vec![Value::I64(1)]),
        "unlimited grow from 1 page must report the old size"
    );
    assert_eq!(
        unlimited,
        observe(InstanceLimits::default(), true),
        "unlimited: register vs tree"
    );
}

/// Pool-reset equivalence oracle: recycling an instance through
/// `Store::reset_instance` must be indistinguishable from a fresh
/// instantiation — same results, same traps, same charge counts — even
/// after the previous
/// tenant grew, filled, copied and trapped its way through memory (the
/// generator emits `memory.grow`/`memory.fill`/`memory.copy` and has a
/// healthy trap rate, so all of those histories are exercised).
fn check_reset_equivalence(seed: u64, arg: i64, dirty_arg: i64) {
    let module = random_module(seed);
    validate(&module)
        .unwrap_or_else(|e| panic!("generator produced invalid module: {e}\nseed {seed}"));
    check_reset_of(&format!("seed {seed}"), &module, &configs(), arg, dirty_arg);
}

/// [`check_reset_equivalence`] for a given module, under given configs.
fn check_reset_of(what: &str, module: &Module, configs: &[ExecConfig], arg: i64, dirty_arg: i64) {
    for &config in configs {
        let mut fresh_store = Store::new(config);
        let fresh_h = fresh_store
            .instantiate(module, &Imports::new())
            .expect("instantiates");

        // Same-seed store: one tenant dirties the instance (a trap here
        // is fine — that's a tenant dying), then the slot is recycled.
        let mut pool_store = Store::new(config);
        let pool_h = pool_store
            .instantiate(module, &Imports::new())
            .expect("instantiates");
        let _ = pool_store.invoke(pool_h, "run", &[Value::I64(dirty_arg)]);
        pool_store
            .reset_instance(pool_h)
            .expect("reset succeeds (module has no start function)");

        // Before either runs the probe: the recycled memory *is* a fresh
        // one — size, every logical byte (slack included, committed or
        // not) and every tag — not merely one the probe cannot tell apart.
        let (fresh_mem, pool_mem) = (
            fresh_store.memory(fresh_h).expect("has memory"),
            pool_store.memory(pool_h).expect("has memory"),
        );
        assert_eq!(fresh_mem.size(), pool_mem.size(), "{what}: reset size");
        let total = fresh_mem.size() + RUNTIME_SLACK;
        assert!(
            fresh_mem.read_resolved(0, total) == pool_mem.read_resolved(0, total),
            "{what}: reset data image differs from a fresh instance's\n{}",
            dump_divergence(module)
        );
        assert!(
            fresh_mem.tags().packed() == pool_mem.tags().packed(),
            "{what}: reset tag store differs from a fresh instance's\n{}",
            dump_divergence(module)
        );
        assert_eq!(pool_mem.dirty_page_count(), 0, "{what}: dirty after reset");

        let fresh = fresh_store.invoke(fresh_h, "run", &[Value::I64(arg)]);
        let recycled = pool_store.invoke(pool_h, "run", &[Value::I64(arg)]);

        match (&fresh, &recycled) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "{what}: reset result arity diverged");
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        x.bit_eq(y),
                        "{what}: reset results diverged: fresh {x:?}, recycled {y:?}\n{}",
                        dump_divergence(module)
                    );
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    a,
                    b,
                    "{what}: reset traps diverged\n{}",
                    dump_divergence(module)
                );
            }
            _ => panic!(
                "{what}: reset outcome diverged: fresh {fresh:?}, recycled {recycled:?}\n{}",
                dump_divergence(module)
            ),
        }
        assert_eq!(
            fresh_store.charge_counts(fresh_h),
            pool_store.charge_counts(pool_h),
            "{what}: reset charge counts diverged\n{}",
            dump_divergence(module),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn pool_reset_is_bit_identical_to_fresh_instantiation(seed: u64, arg: i64, dirty_arg: i64) {
        check_reset_equivalence(seed, arg, dirty_arg);
    }
}

#[test]
fn known_shapes_reset_to_a_fresh_instance() {
    for seed in [0, 1, 2, 42, 0xCA9E, u64::MAX] {
        check_reset_equivalence(seed, 7, -3);
        check_reset_equivalence(seed, -3, 7);
    }
}

/// Cycles are a function of the counts, and the counts of a run are the
/// sum of the counts of its parts — however the run is split. One module
/// (float, division, memory, a bulk fill and a charging host call per
/// iteration) is run four ways on both tiers: as three invocations on
/// one instance, as the same three on three fresh instances whose count
/// vectors are added, on an instance recycled by `reset_instance` after
/// another tenant, and as one invocation of a driver that calls the
/// three in turn. The first three agree on every count and on the cycle
/// bits; the driver differs from them by exactly its own nine
/// instructions. (Under the `f64` accumulator this replaced, the sum of
/// the parts' cycles and the cycles of the whole differed in the last
/// places.)
#[test]
fn charge_is_the_same_however_a_run_is_split() {
    const PARTS: [i64; 3] = [5, 0, 11];
    let i64_to_i64: (&[ValType], &[ValType]) = (&[ValType::I64], &[ValType::I64]);
    let mut b = ModuleBuilder::new();
    let tick = b.import_func("env", "tick", i64_to_i64.0, i64_to_i64.1);
    b.add_memory64(1);
    // work(n): locals 1 = i (i64), 2 = acc (f64).
    let work = b.add_function(
        i64_to_i64.0,
        i64_to_i64.1,
        &[ValType::I64, ValType::F64],
        vec![
            Instr::Block(
                BlockType::Empty,
                vec![Instr::Loop(
                    BlockType::Empty,
                    vec![
                        Instr::LocalGet(1),
                        Instr::LocalGet(0),
                        Instr::I64GeS,
                        Instr::BrIf(1),
                        // acc = sqrt(acc * 1.5 + f64(i))
                        Instr::LocalGet(2),
                        Instr::F64Const(1.5f64.to_bits()),
                        Instr::F64Mul,
                        Instr::LocalGet(1),
                        Instr::F64ConvertI64S,
                        Instr::F64Add,
                        Instr::F64Sqrt,
                        Instr::LocalSet(2),
                        // mem[8 * i] = tick(i) / (i + 1); acc += mem[8 * i]
                        Instr::LocalGet(1),
                        Instr::I64Const(8),
                        Instr::I64Mul,
                        Instr::LocalGet(1),
                        Instr::Call(tick),
                        Instr::LocalGet(1),
                        Instr::I64Const(1),
                        Instr::I64Add,
                        Instr::I64DivS,
                        Instr::Store(StoreOp::I64Store, MemArg::default()),
                        Instr::LocalGet(1),
                        Instr::I64Const(1),
                        Instr::I64Add,
                        Instr::LocalSet(1),
                        Instr::Br(0),
                    ],
                )],
            ),
            // memory.fill(dst = 256, val = 1, len = n)
            Instr::I64Const(256),
            Instr::I32Const(1),
            Instr::LocalGet(0),
            Instr::MemoryFill,
            Instr::LocalGet(2),
            Instr::I64ReinterpretF64,
        ],
    );
    let mut driver_body = Vec::new();
    for n in PARTS {
        driver_body.extend([Instr::I64Const(n), Instr::Call(work), Instr::Drop]);
    }
    let driver = b.add_function(&[], &[], &[], driver_body);
    b.export_func("work", work);
    b.export_func("driver", driver);
    let module = b.build();
    validate(&module).expect("hand-built module validates");

    let imports = || {
        let mut imports = Imports::new();
        imports.define(
            "env",
            "tick",
            crate::host::HostFunc::new(i64_to_i64.0, i64_to_i64.1, |ctx, args| {
                // Exactly representable, so the hosts' own sum does not
                // depend on where a run is cut either.
                ctx.charge(12.5);
                Ok(vec![Value::I64(args[0].as_i64() + 100)])
            }),
        );
        imports
    };
    let driver_overhead = {
        let mut counts = ChargeCounts::default();
        counts.counts[ChargeClass::Simple as usize] = 6;
        counts.counts[ChargeClass::Call as usize] = 3;
        counts
    };
    let add = |mut sum: ChargeCounts, b: ChargeCounts| {
        sum += &b;
        sum
    };

    for config in configs() {
        let weights = crate::cost::CostModel::class_weights(&config);
        for tree in [false, true] {
            let call = |store: &mut Store, h, func: u32, args: &[Value]| {
                if tree {
                    store.call_tree(h, func, args)
                } else {
                    store.call(h, func, args)
                }
                .expect("runs")
            };
            let fresh = || {
                let mut store = Store::new(config);
                let h = store
                    .instantiate(&module, &imports())
                    .expect("instantiates");
                (store, h)
            };

            let (mut whole, whole_h) = fresh();
            let (mut recycled, recycled_h) = fresh();
            call(&mut recycled, recycled_h, work, &[Value::I64(3)]);
            recycled.reset_instance(recycled_h).expect("resets");
            let mut sum_of_parts = ChargeCounts::default();
            for n in PARTS {
                call(&mut whole, whole_h, work, &[Value::I64(n)]);
                call(&mut recycled, recycled_h, work, &[Value::I64(n)]);
                let (mut part, part_h) = fresh();
                call(&mut part, part_h, work, &[Value::I64(n)]);
                sum_of_parts = add(sum_of_parts, part.charge_counts(part_h));
            }
            let (mut driven, driven_h) = fresh();
            call(&mut driven, driven_h, driver, &[]);

            let what = format!("{config:?}, tree {tree}");
            let counts = whole.charge_counts(whole_h);
            assert_eq!(counts.host_cycles, 16.0 * 12.5, "{what}");
            assert_eq!(counts.get(ChargeClass::Fill), 3, "{what}");
            assert_eq!(counts.get(ChargeClass::FillBytes), 16, "{what}");
            assert_eq!(counts.get(ChargeClass::FloatDiv), 16, "{what}");
            assert_eq!(counts, sum_of_parts, "{what}: whole vs sum of parts");
            assert_eq!(counts, recycled.charge_counts(recycled_h), "{what}");
            assert_eq!(
                add(counts, driver_overhead),
                driven.charge_counts(driven_h),
                "{what}: one invocation vs three"
            );
            for (store, h) in [(&whole, whole_h), (&recycled, recycled_h)] {
                assert_eq!(
                    store.cycles(h).to_bits(),
                    sum_of_parts.cycles(&weights).to_bits(),
                    "{what}: cycles are derived from the counts"
                );
            }
            assert_eq!(
                driven.cycles(driven_h).to_bits(),
                add(sum_of_parts, driver_overhead)
                    .cycles(&weights)
                    .to_bits(),
                "{what}"
            );
        }
    }
}

/// The reset shapes the random bodies cannot reach (they never emit
/// segment ops, and their stores land where the locals point): a dirty
/// tenant that touches pages 7 and 5 in descending order, tags an
/// odd-granule, odd-length segment across the page 2|3 boundary, frees
/// it (retag), leaves a second segment allocated across 0|1 — a dirty
/// list of `[7, 5, 2, 3, 0, 1]`, which reset must coalesce into the runs
/// `0..=3`, `5`, `7` — and a probe tenant that reads all of it back
/// through untagged pointers (stale tags trap, stale data changes the
/// sum) and re-creates the first segment (a tag pool that was not rewound
/// draws a different tag).
fn segment_straddle_module() -> Module {
    const PAGE: i64 = 65_536;
    let store = |addr: i64, val: i64| {
        [
            Instr::I64Const(addr),
            Instr::I64Const(val),
            Instr::Store(StoreOp::I64Store, MemArg::none()),
        ]
    };
    let load = |addr: i64| {
        [
            Instr::I64Const(addr),
            Instr::Load(LoadOp::I64Load, MemArg::none()),
        ]
    };
    // Granule 3 * 4096 - 3 of the memory: odd, 5 granules long.
    let (seg, seg_len) = (3 * PAGE - 48, 80);

    let mut dirty = Vec::new();
    dirty.extend(store(7 * PAGE + 8, 0x7777));
    dirty.extend(store(5 * PAGE + 8, 0x5555));
    dirty.extend([
        Instr::I64Const(seg),
        Instr::I64Const(seg_len),
        Instr::SegmentNew(0),
        Instr::LocalTee(1),
        Instr::I64Const(0x2323),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
        // Last word of the segment, on page 3.
        Instr::LocalGet(1),
        Instr::I64Const(seg_len - 8),
        Instr::I64Add,
        Instr::I64Const(0x3232),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
        Instr::LocalGet(1),
        Instr::I64Const(seg_len),
        Instr::SegmentFree(0),
        // Even first granule, odd count, across pages 0|1; stays live.
        Instr::I64Const(PAGE - 32),
        Instr::I64Const(48),
        Instr::SegmentNew(0),
        Instr::I64Const(0x0101),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
        Instr::I64Const(1),
    ]);

    let mut probe = Vec::new();
    probe.extend(load(7 * PAGE + 8));
    for addr in [5 * PAGE + 8, seg, seg + seg_len - 8, PAGE - 32, PAGE + 8] {
        probe.extend(load(addr));
        probe.push(Instr::I64Add);
    }
    probe.extend([
        Instr::I64Const(seg),
        Instr::I64Const(seg_len),
        Instr::SegmentNew(0),
        Instr::LocalTee(1),
        Instr::I64Const(56),
        Instr::I64ShrU,
        Instr::I64Add,
        Instr::LocalGet(1),
        Instr::Load(LoadOp::I64Load, MemArg::none()),
        Instr::I64Add,
    ]);

    let mut b = ModuleBuilder::new();
    b.add_memory64(8);
    let run = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[ValType::I64],
        vec![
            Instr::LocalGet(ARG),
            Instr::I64Const(0),
            Instr::I64GtS,
            Instr::If(BlockType::Value(ValType::I64), dirty, probe),
        ],
    );
    b.export_func("run", run);
    let module = b.build();
    validate(&module).expect("hand-built module validates");
    module
}

#[test]
fn straddling_segments_and_scattered_pages_reset_to_a_fresh_instance() {
    let module = segment_straddle_module();
    let [plain, software] = configs();
    let mte = ExecConfig {
        internal: InternalSafety::Mte,
        ..plain
    };
    let combined = ExecConfig {
        bounds: crate::config::BoundsCheckStrategy::MteSandbox,
        ..mte
    };
    let configs = [plain, software, mte, combined];
    // Probe after a dirty tenant, dirty after dirty, dirty after a probe
    // (whose own segment must be gone again).
    for (arg, dirty_arg) in [(0, 1), (1, 1), (1, 0), (0, 0)] {
        check_reset_of("straddle shape", &module, &configs, arg, dirty_arg);
    }
    // The shape is only a test if the dirty tenant ran to completion and
    // the probe after it reads zeroes through tag-matching untagged
    // pointers. (Not under `software`: outside `mte_active()` the store
    // builds the memory with `TagScheme::None`, whose pointers all carry
    // tag 0, so the dirty tenant's own `segment.free` is a `BadFree` —
    // still a history the oracle above must reset from.)
    for config in [plain, mte, combined] {
        let mut store = Store::new(config);
        let h = store.instantiate(&module, &Imports::new()).unwrap();
        assert_eq!(
            store.invoke(h, "run", &[Value::I64(1)]),
            Ok(vec![Value::I64(1)]),
            "{config:?}"
        );
        // Pages 7, 5, 2, 3, 0 by the stores; page 1 only by the tagging
        // of the second segment, which is inert without internal safety.
        assert_eq!(
            store.memory(h).unwrap().dirty_page_count(),
            if config.internal.is_enabled() { 6 } else { 5 },
        );
        store.reset_instance(h).unwrap();
        assert_eq!(store.memory(h).unwrap().dirty_page_count(), 0);
        let probed = store.invoke(h, "run", &[Value::I64(0)]).unwrap();
        let tag = probed[0].as_i64();
        assert_eq!(
            tag == 0,
            !config.internal.is_enabled(),
            "the probe sums zeroes, leaving only the new segment's tag nibble: {tag:#x}"
        );
    }
}

/// A dirty tenant that grows a two-page memory by three, writes the new
/// top page and what used to be the runtime slack, and leaves a live
/// segment across the old end of guest memory (so the bytes that become
/// slack again carry a guest tag); and a probe that reads the size, grows
/// by one and reads the old slack back through the new page.
fn grow_and_scribble_module() -> Module {
    const PAGE: i64 = 65_536;
    let dirty = vec![
        Instr::I64Const(3),
        Instr::MemoryGrow,
        Instr::Drop,
        Instr::I64Const(5 * PAGE - 8),
        Instr::I64Const(0x5555),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
        Instr::I64Const(2 * PAGE + 128),
        Instr::I64Const(0x2222),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
        Instr::I64Const(2 * PAGE - 32),
        Instr::I64Const(64),
        Instr::SegmentNew(0),
        Instr::I64Const(40),
        Instr::I64Add,
        Instr::I64Const(0x1212),
        Instr::Store(StoreOp::I64Store, MemArg::none()),
        Instr::MemorySize,
    ];
    let probe = vec![
        Instr::MemorySize,
        Instr::I64Const(1),
        Instr::MemoryGrow,
        Instr::I64Add,
        Instr::I64Const(2 * PAGE + 128),
        Instr::Load(LoadOp::I64Load, MemArg::none()),
        Instr::I64Add,
        Instr::I64Const(2 * PAGE + 8),
        Instr::Load(LoadOp::I64Load, MemArg::none()),
        Instr::I64Add,
    ];
    let mut b = ModuleBuilder::new();
    b.add_memory(cage_wasm::MemoryType {
        limits: cage_wasm::Limits {
            min: 2,
            max: Some(8),
        },
        memory64: true,
    });
    let run = b.add_function(
        &[ValType::I64],
        &[ValType::I64],
        &[],
        vec![
            Instr::LocalGet(ARG),
            Instr::I64Const(0),
            Instr::I64GtS,
            Instr::If(BlockType::Value(ValType::I64), dirty, probe),
        ],
    );
    b.export_func("run", run);
    let module = b.build();
    validate(&module).expect("hand-built module validates");
    module
}

#[test]
fn a_grown_and_scribbled_memory_resets_to_a_fresh_instance() {
    let module = grow_and_scribble_module();
    let [plain, software] = configs();
    let mte = ExecConfig {
        internal: InternalSafety::Mte,
        ..plain
    };
    let combined = ExecConfig {
        bounds: crate::config::BoundsCheckStrategy::MteSandbox,
        ..mte
    };
    let configs = [plain, software, mte, combined];
    for (arg, dirty_arg) in [(0, 1), (1, 1), (1, 0), (0, 0)] {
        check_reset_of("grown shape", &module, &configs, arg, dirty_arg);
    }
    // The shape is only a test if the dirty tenant ran to completion, and
    // the reset then gave back exactly the pages above the base size.
    for config in [plain, mte, combined] {
        let mut store = Store::new(config);
        let h = store.instantiate(&module, &Imports::new()).unwrap();
        assert_eq!(
            store.invoke(h, "run", &[Value::I64(1)]),
            Ok(vec![Value::I64(5)]),
            "{config:?}"
        );
        assert_eq!(store.memory(h).unwrap().committed_bytes(), 5 * 65_536);
        store.reset_instance(h).unwrap();
        let mem = store.memory(h).unwrap();
        assert_eq!(mem.size_pages(), 2);
        assert_eq!(mem.committed_bytes(), 2 * 65_536 + RUNTIME_SLACK);
        // 2 pages + (2 -> 3 pages, old size 2) + two zero loads.
        assert_eq!(
            store.invoke(h, "run", &[Value::I64(0)]),
            Ok(vec![Value::I64(4)]),
            "{config:?}"
        );
    }
}

/// The generator must keep a healthy mix of trapping and completing
/// executions: a trap rate near 0% means the trap paths (and their
/// partial cycle charges) are no longer compared, near 100% means the
/// fused fast paths never run to completion. Either way coverage has
/// silently collapsed, so this pins the band and reports the number.
#[test]
fn trap_rate_stays_in_a_healthy_band() {
    const SEEDS: u64 = 150;
    let traps = (0..SEEDS)
        .filter(|&seed| check_equivalence(seed, 7))
        .count();
    let rate = traps as f64 / SEEDS as f64;
    println!("difftest trap rate: {:.1}% ({traps}/{SEEDS})", 100.0 * rate);
    assert!(
        (0.05..=0.90).contains(&rate),
        "difftest trap rate collapsed to {:.1}% — generator coverage changed",
        100.0 * rate
    );
}

/// The register tier runs the twelve stateful instructions in bodies of
/// its own (`RegState::sys`), so the generator has to reach all twelve:
/// over the seeds the trap-rate probe runs, each appears in some body.
#[test]
fn generator_emits_every_stateful_instruction() {
    fn walk(body: &[Instr], seen: &mut [bool; 12]) {
        for instr in body {
            match instr {
                Instr::Block(_, inner) | Instr::Loop(_, inner) => walk(inner, seen),
                Instr::If(_, then_body, else_body) => {
                    walk(then_body, seen);
                    walk(else_body, seen);
                }
                other => {
                    if let Some((op, _)) = crate::bytecode::SysOp::of(other) {
                        seen[op as usize] = true;
                    }
                }
            }
        }
    }
    let mut seen = [false; 12];
    for seed in 0..150 {
        for func in &random_module(seed).funcs {
            walk(&func.body, &mut seen);
        }
    }
    assert_eq!(seen, [true; 12], "stateful instructions generated");
}

// ---------------------------------------------------------------------------
// Pipeline-config sweep: the optimiser must be invisible.
//
// Everything above differentially pins the register tier against the
// tree oracle on raw wasm modules. This section pins the *compiler*: random structured IR
// bodies are pushed through every `PipelineConfig` variant (no passes,
// the standard trio, the full extended optimiser) and each lowering runs
// on both. Within a variant the two must be bit-identical —
// results, traps, cycle bits, retired counts. Across variants the
// retired counts legitimately differ (that is the optimiser's whole
// job), but results and traps must not.
//
// The generator keeps every potentially-trapping op live (div/rem
// results always flow into the returned accumulator), because dead-code
// elimination is allowed to delete an unused trapping division — cross-
// variant trap equality is only a theorem for live ops.
// ---------------------------------------------------------------------------

use cage_ir::passes::{run_pipeline_config, HardenConfig, PipelineConfig};
use cage_ir::{
    lower as ir_lower, BinOp, CastKind, Expr, FunctionBuilder, IrModule, IrType, LowerOptions,
    MemTy, Operand, Stmt, UnOp, ValueId,
};

struct IrGen {
    rng: StdRng,
}

impl IrGen {
    fn upto(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn i64_const(&mut self) -> Operand {
        Operand::ConstI64([0, 1, -1, 2, 8, 16, 31, 32, 63, 64, i64::MIN, i64::MAX][self.upto(12)])
    }

    fn i32_const(&mut self) -> Operand {
        Operand::ConstI32([0, 1, -1, 2, 8, 31, 32, i32::MIN, i32::MAX][self.upto(9)])
    }

    fn pick(&mut self, pool: &[Operand]) -> Operand {
        pool[self.upto(pool.len())]
    }

    fn pure_op(&mut self) -> BinOp {
        use BinOp::*;
        [Add, Sub, Mul, And, Or, Xor, Shl, ShrS, ShrU][self.upto(9)]
    }

    fn compare_op(&mut self) -> BinOp {
        use BinOp::*;
        [Eq, Ne, LtS, LtU, LeS, GtS, GeU][self.upto(7)]
    }

    fn trap_op(&mut self) -> BinOp {
        use BinOp::*;
        [DivS, DivU, RemS, RemU][self.upto(4)]
    }
}

/// Shared mutable state of one generated function: the value pools the
/// statement generator draws from and feeds back into.
struct IrCtx {
    /// Immutable i64 temporaries (single-assignment, folded into the
    /// return value so nothing the generator makes is dead).
    pool: Vec<Operand>,
    /// i32 temporaries (width-bug bait for the typed const folder).
    pool32: Vec<Operand>,
    /// Reassignable i64 registers (If-arm and loop-body targets).
    muts: Vec<ValueId>,
    /// In-bounds base pointers into the 256-byte alloca.
    ptrs: Vec<Operand>,
}

/// One statement at nesting depth `depth`. Statements inside If-arms and
/// loop bodies only reassign `muts` or write memory — values defined
/// there never escape their block, so conditional execution cannot leave
/// a register undefined on one path.
fn ir_statement(g: &mut IrGen, b: &mut FunctionBuilder, cx: &mut IrCtx, depth: usize) {
    let nested = depth > 0;
    let max = if depth >= 2 { 7 } else { 9 };
    match g.upto(max) {
        // Pure i64 arithmetic; occasionally repeat the exact same
        // operands a second time (CSE bait), and half the constants are
        // powers of two (strength-reduction bait).
        0 => {
            let op = g.pure_op();
            let lhs = g.pick(&cx.pool);
            let rhs = if g.upto(2) == 0 {
                g.i64_const()
            } else {
                g.pick(&cx.pool)
            };
            let v = b.binop(op, IrType::I64, lhs, rhs);
            let v2 = if g.upto(3) == 0 {
                b.binop(op, IrType::I64, lhs, rhs)
            } else {
                v
            };
            if nested {
                let m = cx.muts[g.upto(cx.muts.len())];
                b.reassign(
                    m,
                    Expr::BinOp {
                        op: BinOp::Xor,
                        ty: IrType::I64,
                        lhs: Operand::Value(m),
                        rhs: v2,
                    },
                );
            } else {
                cx.pool.push(v);
                cx.pool.push(v2);
            }
        }
        // i32 arithmetic over boundary constants: shift counts at and
        // past the width, sign-extension bait for the unsigned ops.
        1 => {
            let op = if g.upto(3) == 0 {
                g.trap_op()
            } else {
                g.pure_op()
            };
            let lhs = if cx.pool32.is_empty() || g.upto(2) == 0 {
                g.i32_const()
            } else {
                g.pick(&cx.pool32)
            };
            let rhs = g.i32_const();
            let v = b.binop(op, IrType::I32, lhs, rhs);
            if nested {
                let widened = b.assign(
                    IrType::I64,
                    Expr::Cast {
                        kind: CastKind::I32ToI64S,
                        operand: v,
                    },
                );
                let m = cx.muts[g.upto(cx.muts.len())];
                b.reassign(
                    m,
                    Expr::BinOp {
                        op: BinOp::Add,
                        ty: IrType::I64,
                        lhs: Operand::Value(m),
                        rhs: widened,
                    },
                );
            } else {
                cx.pool32.push(v);
            }
        }
        // Trapping i64 div/rem: the divisor is a masked pool value
        // (zero often enough for a healthy trap rate) or a constant.
        2 => {
            let num = g.pick(&cx.pool);
            let den = if g.upto(2) == 0 {
                b.binop(
                    BinOp::And,
                    IrType::I64,
                    g.pick(&cx.pool),
                    Operand::ConstI64(3),
                )
            } else {
                Operand::ConstI64([1, 2, 3, 8, -1][g.upto(5)])
            };
            let q = b.binop(g.trap_op(), IrType::I64, num, den);
            if nested {
                let m = cx.muts[g.upto(cx.muts.len())];
                b.reassign(
                    m,
                    Expr::BinOp {
                        op: BinOp::Xor,
                        ty: IrType::I64,
                        lhs: Operand::Value(m),
                        rhs: q,
                    },
                );
            } else {
                cx.pool.push(q);
            }
        }
        // Memory traffic on the alloca: store a value, usually load it
        // straight back (store-to-load forwarding bait), sub-word
        // widths included (which the forwarder must refuse).
        3 => {
            let base = g.pick(&cx.ptrs);
            let offset = (g.upto(24) * 8) as u64;
            match g.upto(3) {
                0 => {
                    let v = g.pick(&cx.pool);
                    b.store(MemTy::I64, base, offset, v);
                    if g.upto(2) == 0 && !nested {
                        let back = b.load(MemTy::I64, base, offset);
                        cx.pool.push(back);
                    }
                }
                1 => {
                    let v = if cx.pool32.is_empty() {
                        g.i32_const()
                    } else {
                        g.pick(&cx.pool32)
                    };
                    let sub = if g.upto(2) == 0 {
                        MemTy::I8
                    } else {
                        MemTy::I32
                    };
                    b.store(sub, base, offset, v);
                    if !nested {
                        let back = b.load(
                            if sub == MemTy::I8 {
                                MemTy::U8
                            } else {
                                MemTy::I32
                            },
                            base,
                            offset,
                        );
                        cx.pool32.push(back);
                    }
                }
                _ => {
                    let l = b.load(MemTy::I64, base, offset);
                    if nested {
                        let m = cx.muts[g.upto(cx.muts.len())];
                        b.reassign(
                            m,
                            Expr::BinOp {
                                op: BinOp::Add,
                                ty: IrType::I64,
                                lhs: Operand::Value(m),
                                rhs: l,
                            },
                        );
                    } else {
                        cx.pool.push(l);
                    }
                }
            }
        }
        // Unary ops (Not yields i32 — the width audit's territory).
        4 => {
            let v = g.pick(&cx.pool);
            let (op, is_i32) = match g.upto(3) {
                0 => (UnOp::Neg, false),
                1 => (UnOp::BitNot, false),
                _ => (UnOp::Not, true),
            };
            let r = b.unop(op, IrType::I64, v);
            if nested {
                let m = cx.muts[g.upto(cx.muts.len())];
                let wide = if is_i32 {
                    b.assign(
                        IrType::I64,
                        Expr::Cast {
                            kind: CastKind::I32ToI64U,
                            operand: r,
                        },
                    )
                } else {
                    r
                };
                b.reassign(
                    m,
                    Expr::BinOp {
                        op: BinOp::Xor,
                        ty: IrType::I64,
                        lhs: Operand::Value(m),
                        rhs: wide,
                    },
                );
            } else if is_i32 {
                cx.pool32.push(r);
            } else {
                cx.pool.push(r);
            }
        }
        // Reassign a mutable register (CSE's version counters, and the
        // propagation-kill paths).
        5 => {
            let m = cx.muts[g.upto(cx.muts.len())];
            let rhs = if g.upto(2) == 0 {
                g.pick(&cx.pool)
            } else {
                g.i64_const()
            };
            b.reassign(
                m,
                Expr::BinOp {
                    op: g.pure_op(),
                    ty: IrType::I64,
                    lhs: Operand::Value(m),
                    rhs,
                },
            );
        }
        // An array access, `base[(long)i]` with `i` an `int` kept inside
        // the alloca: widen (either way), scale, add — the chain the
        // register lowering fuses into one op — and load. At the top
        // level the widened index or the product is sometimes read again,
        // which must keep it an op of its own.
        6 => {
            let i = b.binop(
                BinOp::And,
                IrType::I32,
                g.pick(&cx.pool32),
                Operand::ConstI32(7),
            );
            let kind = if g.upto(2) == 0 {
                CastKind::I32ToI64S
            } else {
                CastKind::I32ToI64U
            };
            let wide = b.assign(IrType::I64, Expr::Cast { kind, operand: i });
            let scaled = b.binop(BinOp::Mul, IrType::I64, wide, Operand::ConstI64(8));
            let addr = b.binop(BinOp::Add, IrType::Ptr, g.pick(&cx.ptrs), scaled);
            let l = b.load(MemTy::I64, addr, 0);
            if nested {
                let m = cx.muts[g.upto(cx.muts.len())];
                b.reassign(
                    m,
                    Expr::BinOp {
                        op: BinOp::Add,
                        ty: IrType::I64,
                        lhs: Operand::Value(m),
                        rhs: l,
                    },
                );
            } else {
                cx.pool.push(l);
                match g.upto(3) {
                    0 => cx.pool.push(wide),
                    1 => cx.pool.push(scaled),
                    _ => {}
                }
            }
        }
        // If / if-else: real compare conditions and constant conditions
        // (the CFG simplifier's prune-and-splice path).
        7 => {
            let cond = match g.upto(4) {
                0 => Operand::ConstI32(0),
                1 => Operand::ConstI32(1),
                _ => b.binop(
                    g.compare_op(),
                    IrType::I64,
                    g.pick(&cx.pool),
                    g.pick(&cx.pool),
                ),
            };
            b.push_block();
            for _ in 0..1 + g.upto(2) {
                ir_statement(g, b, cx, depth + 1);
            }
            let then = b.pop_block();
            b.push_block();
            if g.upto(3) != 0 {
                ir_statement(g, b, cx, depth + 1);
            }
            let els = b.pop_block();
            b.stmt(Stmt::If { cond, then, els });
        }
        // Counted loop, constant trip count 0..=4 (zero-trip loops are
        // the While-false splice bait).
        _ => {
            let i = b.copy(IrType::I64, Operand::ConstI64(0));
            let bound = Operand::ConstI64(g.upto(5) as i64);
            b.push_block();
            let cond = b.binop(BinOp::LtS, IrType::I64, Operand::Value(i), bound);
            let header = b.pop_block();
            b.push_block();
            for _ in 0..1 + g.upto(2) {
                ir_statement(g, b, cx, depth + 1);
            }
            b.reassign(
                i,
                Expr::BinOp {
                    op: BinOp::Add,
                    ty: IrType::I64,
                    lhs: Operand::Value(i),
                    rhs: Operand::ConstI64(1),
                },
            );
            let body = b.pop_block();
            b.stmt(Stmt::While { header, cond, body });
        }
    }
}

/// A random structured-IR module: one exported `run(n: i64) -> i64`
/// whose result observes every value the generator created.
fn random_ir_module(seed: u64) -> IrModule {
    let mut g = IrGen {
        rng: StdRng::seed_from_u64(seed),
    };
    let mut b = FunctionBuilder::new("run", &[IrType::I64], Some(IrType::I64));
    b.set_exported(true);
    let buf = b.alloca(256, "buf");
    let base = b.alloca_addr(buf);
    let base16 = b.binop(BinOp::Add, IrType::Ptr, base, Operand::ConstI64(16));
    let p0 = b.param(0);
    b.store(MemTy::I64, base, 0, p0);
    b.store(MemTy::I64, base, 8, Operand::ConstI64(0x5DEE_CE66));
    let mut cx = IrCtx {
        pool: vec![p0, Operand::ConstI64(3)],
        pool32: vec![Operand::ConstI32(5)],
        muts: vec![
            b.copy(IrType::I64, p0),
            b.copy(IrType::I64, Operand::ConstI64(7)),
            b.copy(IrType::I64, Operand::ConstI64(-1)),
        ],
        ptrs: vec![base, base16],
    };
    for _ in 0..8 + g.upto(13) {
        ir_statement(&mut g, &mut b, &mut cx, 0);
    }
    // Fold *everything* into the return value: the pools, the mutable
    // registers, and a final read of the scratch memory — so no
    // generated op is dead and DCE cannot legally change a trap.
    let mut acc = g.pick(&cx.pool);
    for v in cx.pool.clone() {
        acc = b.binop(BinOp::Xor, IrType::I64, acc, v);
    }
    for v32 in cx.pool32.clone() {
        let wide = b.assign(
            IrType::I64,
            Expr::Cast {
                kind: CastKind::I32ToI64S,
                operand: v32,
            },
        );
        acc = b.binop(BinOp::Xor, IrType::I64, acc, wide);
    }
    for m in cx.muts.clone() {
        acc = b.binop(BinOp::Add, IrType::I64, acc, Operand::Value(m));
    }
    let tail = b.load(MemTy::I64, base, 0);
    acc = b.binop(BinOp::Xor, IrType::I64, acc, tail);
    b.stmt(Stmt::Return(Some(acc)));
    let mut module = IrModule::new();
    module.functions.push(b.finish());
    module
}

/// Lowers `ir` under `config` and observes `[register tier, tree oracle]`.
fn observe_pipeline(ir: &IrModule, config: &PipelineConfig, arg: i64, seed: u64) -> [Observed; 2] {
    let mut module = ir.clone();
    run_pipeline_config(&mut module, config);
    let lowered = ir_lower(&module, &LowerOptions::default())
        .unwrap_or_else(|e| panic!("seed {seed}: lowering failed: {e}"));
    validate(&lowered.module)
        .unwrap_or_else(|e| panic!("seed {seed}: lowered module invalid: {e}"));
    let run_idx = lowered
        .module
        .exports
        .iter()
        .find_map(|e| match e.kind {
            cage_wasm::ExportKind::Func(i) if e.name == "run" => Some(i),
            _ => None,
        })
        .expect("run is exported");
    let args = [Value::I64(arg)];
    [false, true].map(|tree| {
        let mut store = Store::new(ExecConfig::default());
        let h = store
            .instantiate(&lowered.module, &Imports::new())
            .expect("instantiates");
        let result = if tree {
            store.call_tree(h, run_idx, &args)
        } else {
            store.call(h, run_idx, &args)
        };
        (result, store.charge_counts(h))
    })
}

/// The sweep: three pipeline variants, register tier vs tree oracle each.
fn check_pipeline_equivalence(seed: u64, arg: i64) {
    let ir = random_ir_module(seed);
    let variants: [(&str, PipelineConfig); 3] = [
        ("no-opt", PipelineConfig::no_opt(HardenConfig::none())),
        ("standard", PipelineConfig::standard(HardenConfig::none())),
        ("full-opt", PipelineConfig::full_opt(HardenConfig::none())),
    ];
    let mut per_variant: Vec<(&str, Result<Vec<Value>, crate::trap::Trap>)> = Vec::new();
    for (name, config) in variants {
        let [reg, tree] = observe_pipeline(&ir, &config, arg, seed);
        // Within a variant both execute the same lowered module:
        // bit-identical, retired counts included.
        match (&reg.0, &tree.0) {
            (Ok(a), Ok(b)) => assert!(
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y)),
                "seed {seed} [{name}]: register vs tree results diverged: {a:?} vs {b:?}"
            ),
            (Err(a), Err(b)) => {
                assert_eq!(
                    a, b,
                    "seed {seed} [{name}]: register vs tree traps diverged"
                );
            }
            _ => panic!(
                "seed {seed} [{name}]: register vs tree outcome diverged: {:?} vs {:?}",
                reg.0, tree.0
            ),
        }
        assert_eq!(
            reg.1, tree.1,
            "seed {seed} [{name}]: register vs tree charge counts diverged"
        );
        per_variant.push((name, reg.0));
    }
    // Across variants only the semantics is pinned: same values, same
    // trap kind. Cycle and retired counts legitimately shrink.
    let (base_name, base) = &per_variant[0];
    for (name, outcome) in &per_variant[1..] {
        match (base, outcome) {
            (Ok(a), Ok(b)) => assert!(
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y)),
                "seed {seed}: {base_name} vs {name} results diverged: {a:?} vs {b:?}"
            ),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "seed {seed}: {base_name} vs {name} traps diverged");
            }
            _ => panic!(
                "seed {seed}: {base_name} vs {name} outcome diverged: {base:?} vs {outcome:?}"
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn pipeline_variants_are_semantically_identical(seed: u64, arg: i64) {
        check_pipeline_equivalence(seed, arg);
    }
}

#[test]
fn known_seeds_sweep_every_pipeline_variant() {
    for seed in [0, 1, 2, 42, 0xCA9E, 0x0004_5500, u64::MAX] {
        check_pipeline_equivalence(seed, 7);
        check_pipeline_equivalence(seed, -3);
        check_pipeline_equivalence(seed, i64::MIN);
    }
}
