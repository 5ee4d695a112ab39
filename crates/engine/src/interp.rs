//! The interpreter: register-bytecode execution of validated modules with
//! cycle accounting, implementing core WASM semantics plus the paper's
//! Fig. 11 small-step rules for the Cage instructions.
//!
//! Execution is a *register machine*: function bodies are lowered through
//! SSA into [`crate::bytecode::RegCode`] — generic 3-address ops over a
//! fixed per-frame register file — and executed by `Interp::run_reg`:
//! one function holding one `loop { match op }`, a single jump table over
//! the 24 [`RegOp`] kinds. Each iteration adds the op's *charge recipe*
//! (how many source instructions of each class it retires, packed into
//! one word) to a running sum held in a register and then runs the op's
//! arm, so the per-class retired counts are exactly those of retiring the
//! source instructions one at a time; the sum is emptied into the
//! instance's integer counts when a lane fills, before anything outside
//! the loop runs, and on the loop's one exit. Cycles are not accumulated
//! at all: they are derived from the counts when somebody reads them
//! ([`crate::cost::ChargeCounts::cycles`]).
//! Calls push a frame — the caller's function index, its arena base and
//! return pc — on an explicit call stack and grow the register arena, so
//! guest call depth never consumes host Rust stack. The template's
//! function table is borrowed from the instance for the whole run, so
//! neither an invocation nor a call or return inside it touches a
//! reference count. The arena, the frame stack and the host-call staging
//! are the store's `CallBuffers`, lent to each call and given back on
//! every exit, so a warm invocation allocates none of them.
//!
//! The loop's hot state is its own locals, so it can live in machine
//! registers (Ertl and Gregg, "The structure and performance of efficient
//! interpreters", JILP 2003): the pc, the charge sum, the active frame as
//! a `&mut [u64]` slice of the arena, and the running code (kept in the
//! call stack, which the loop reads it from, so it is reloaded rather
//! than stored back when a register is short). The instance's linear
//! memory is borrowed *once per run*: `Interp` holds one instance of the
//! store — not the store and an index — and the loop splits it into the
//! memory and an `Env` of the fields its out-of-line ops touch (counts,
//! globals, table, host functions, PAC key), so `Env::sys` and the
//! host-call boundary receive the loop's own memory borrow, and the
//! only loop-carried value a call or return changes is the frame slice,
//! which those arms re-derive. A scalar load or store is one `match` on
//! its op whose arms call [`crate::memory::LinearMemory::read_scalar`] /
//! [`crate::memory::LinearMemory::write_scalar`] at a constant width: the
//! memory owns its policy, its bound and its fast path, and the loop
//! copies none of them. What calls out of the loop — a fast-path miss, a
//! lane spill, a guest call, `sys`, a host call — does so from a cold or
//! out-of-line path, which is what leaves the hot state its registers;
//! `ci/dispatch_lint.sh` checks the dispatch head in the binary.
//!
//! Operands are *untagged*: registers (and the reference walker's operand
//! stack and locals arena) are plain `u64` slots (the encoding
//! `cage_wasm::numeric` defines, which [`Value::to_slot`] is the typed
//! door to — validation already guarantees types, so no runtime tag is
//! stored or matched). Typed [`Value`]s exist only at API boundaries:
//! external `Store::call` arguments/results, host calls and globals
//! convert at the edge.
//!
//! This loop is the only production executor: everything reachable from
//! `Store::call` and `Store::invoke` is in this file, holds no
//! `cage_wasm::Instr` and builds no operand stack (a host call stages its
//! arguments for the typed boundary, nothing else does). The 128 numeric
//! instructions run the rows of the table in `cage_wasm::numeric`
//! (`AluOp`/`DivOp`/`UnaOp::eval`, inlined into the loop's arms — the four
//! generic ones and the six fused forms — and charged by the recipe).
//! The twelve stateful ones (globals, memory management, segments, pointer
//! sign/auth, `unreachable`) are one arm, [`RegOp::Sys`], which calls the
//! out-of-line `Env::sys`: twelve register-form bodies written from
//! Fig. 11, each charging its own instruction before anything in it can
//! trap.
//!
//! The structured tree walker (`crate::tree`, behind `Store::call_tree`)
//! is the reference implementation: it executes the `Instr` tree
//! recursively, one source instruction at a time, every data instruction
//! through a hand-written arm of its own, and the differential tests
//! assert the register machine is identical to it on results, traps and
//! the whole count vector. Nothing here calls into it, so for every
//! instruction the tests compare two independent transcriptions of the
//! semantics — the loads' widths and sign extensions included (the oracle
//! decodes through `decode_load`, the loop through its own `match`) —
//! except where both call the same `LinearMemory` accessor, whose
//! independent transcription is the eager model in `crate::memory_model`.

use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cage_pac::PacSigner;
use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::numeric::{get_i32, slot_i32, slot_i64};
use cage_wasm::FuncType;

use crate::bytecode::{unpack_lanes, RegCode, RegOp, SysOp, LANE_GUARD};
use crate::config::ExecConfig;
use crate::cost::{ChargeClass, ChargeCounts};
use crate::host::{HostContext, InstanceHost};
use crate::memory::LinearMemory;
use crate::store::{CompiledFunc, Instance, DEFAULT_MAX_CALL_DEPTH};
use crate::trap::{panic_message, Trap};
use crate::value::Value;

pub(crate) struct Interp<'s> {
    /// The instance being run: one element of the store, borrowed apart
    /// from the store's other fields, so its memory is one field away.
    pub(crate) inst: &'s mut Instance,
    pub(crate) config: ExecConfig,
    pub(crate) depth: usize,
    /// Fuel and the epoch deadline, mirrored from the instance for the
    /// duration of a call.
    preempt: Preempt<'s>,
    /// The instance's call-depth limit
    /// ([`crate::store::InstanceLimits::max_call_depth`]).
    pub(crate) max_depth: usize,
    /// The store's working buffers, lent for this call.
    bufs: &'s mut CallBuffers,
}

/// The most register slots a store keeps between calls (128 KiB of
/// arena). A call that grew the arena past it — a deep recursion of wide
/// frames can reach depth × 65 535 slots — gives back a buffer trimmed to
/// it, so one such call does not pin its peak for the store's lifetime.
pub(crate) const KEPT_REG_SLOTS: usize = 1 << 14;

/// The most suspended-caller records a store keeps between calls.
const KEPT_FRAMES: usize = 256;

/// The most typed host-call values a store keeps between calls.
const KEPT_HOST_VALUES: usize = 64;

/// The register tier's working buffers: the register arena (whose tail
/// also stages a host call's argument and result slots), the stack of
/// suspended callers and a host call's typed arguments and results. The
/// store owns one set and lends it to every call it runs — one at a time,
/// since a call holds the store mutably and no host function can reach
/// the store — so a warm call allocates none of them. A call takes them
/// emptied ([`CallBuffers::take`]) and gives them back on every exit,
/// traps included ([`CallBuffers::give_back`]); what they keep between
/// calls is capacity only, bounded by the `KEPT_*` constants.
#[derive(Default)]
pub(crate) struct CallBuffers {
    regs: Vec<u64>,
    frames: Vec<RegFrame>,
    host_values: Vec<Value>,
}

impl CallBuffers {
    /// The buffers for one call, emptied, their capacity kept; the store
    /// holds empty ones until [`CallBuffers::give_back`].
    fn take(&mut self) -> CallBuffers {
        let mut bufs = mem::take(self);
        bufs.regs.clear();
        bufs.frames.clear();
        bufs.host_values.clear();
        bufs
    }

    /// Returns what a call took, each buffer trimmed to what a store
    /// keeps.
    fn give_back(&mut self, mut bufs: CallBuffers) {
        trim(&mut bufs.regs, KEPT_REG_SLOTS);
        trim(&mut bufs.frames, KEPT_FRAMES);
        trim(&mut bufs.host_values, KEPT_HOST_VALUES);
        *self = bufs;
    }

    /// The register slots the store keeps allocated between calls.
    #[cfg(test)]
    pub(crate) fn kept_reg_slots(&self) -> usize {
        self.regs.capacity()
    }
}

/// Shrinks `buf` to `cap` elements of capacity if it grew past them.
fn trim<T>(buf: &mut Vec<T>, cap: usize) {
    if buf.capacity() > cap {
        buf.clear();
        buf.shrink_to(cap);
    }
}

/// The preemption point's state: the instance's fuel and epoch deadline,
/// mirrored for the duration of a call (the fuel is read on every taken
/// branch) and written back at the end of execution
/// ([`Interp::flush_accounting`]). A field of its own so the dispatch loop
/// can consume fuel while it holds the instance's memory.
#[derive(Clone, Copy)]
struct Preempt<'s> {
    /// Remaining fuel; `None` disables the checks entirely.
    fuel: Option<u64>,
    /// Consumed-fuel accumulator.
    fuel_consumed: u64,
    /// Epoch deadline; `None` disables the epoch compare (and the load of
    /// the store's shared counter) entirely.
    epoch_deadline: Option<u64>,
    /// The store's shared epoch counter.
    epoch: &'s AtomicU64,
}

impl Preempt<'_> {
    /// The preemption point: consumes one unit of fuel and compares the
    /// shared epoch counter against the instance's deadline, at a control
    /// transition of the dispatch loop (branch taken, function entered or
    /// returned from). Both checks ride exclusively on charge-free
    /// control ops, so they are invisible to cycle accounting. The fuel
    /// transition sequence is a pure function of the program — the trap
    /// lands on the identical count vector on every run — while the epoch trigger is an external timer; a deadline
    /// already at or below the current epoch is deterministic again
    /// (traps at the first preemption point). Fuel wins when both expire
    /// at the same point. Free (two `None` tests) when neither is set.
    #[inline(always)]
    fn consume(&mut self) -> Result<(), Trap> {
        if let Some(f) = self.fuel {
            if f == 0 {
                return Err(Trap::FuelExhausted);
            }
            self.fuel = Some(f - 1);
            self.fuel_consumed += 1;
        }
        if let Some(deadline) = self.epoch_deadline {
            if self.epoch.load(Ordering::Relaxed) >= deadline {
                return Err(Trap::EpochInterrupt);
            }
        }
        Ok(())
    }
}

impl<'s> Interp<'s> {
    /// An interpreter over `inst`, under the store's `config` and its
    /// shared `epoch` counter, running on the store's buffers `bufs`.
    pub(crate) fn new(
        inst: &'s mut Instance,
        epoch: &'s AtomicU64,
        config: ExecConfig,
        bufs: &'s mut CallBuffers,
    ) -> Self {
        let preempt = Preempt {
            fuel: inst.fuel,
            fuel_consumed: inst.fuel_consumed,
            epoch_deadline: inst.epoch_deadline,
            epoch,
        };
        let max_depth = inst.limits.max_call_depth.unwrap_or(DEFAULT_MAX_CALL_DEPTH);
        Interp {
            inst,
            config,
            depth: 0,
            preempt,
            max_depth,
            bufs,
        }
    }

    /// Retires one instruction of `class`.
    #[inline]
    pub(crate) fn charge(&mut self, class: ChargeClass) {
        self.inst.counts.charge(class);
    }

    /// Charges `n` data-dependent units of `class` (bytes, granules); see
    /// [`ChargeCounts::charge_units`].
    #[inline]
    pub(crate) fn charge_units(&mut self, class: ChargeClass, n: u64) {
        self.inst.counts.charge_units(class, n);
    }

    /// Writes the local fuel back to the instance, before the embedder
    /// observes it after the call returns.
    pub(crate) fn flush_accounting(&mut self) {
        self.inst.fuel = self.preempt.fuel;
        self.inst.fuel_consumed = self.preempt.fuel_consumed;
    }

    /// Internal call sites are arity-checked by validation, but the
    /// external entry points take embedder-supplied arguments: verify them
    /// before they hit the frame layout.
    pub(crate) fn check_entry(&self, func_idx: u32, args: &[Value]) -> Result<(), Trap> {
        let func = self
            .inst
            .pre
            .funcs
            .get(func_idx as usize)
            .ok_or_else(|| Trap::Host(format!("no function at index {func_idx}")))?;
        let params = func.ty.params.len();
        if args.len() != params {
            return Err(Trap::Host(format!(
                "function {func_idx} expects {params} arguments, got {}",
                args.len()
            )));
        }
        // Untagged slots carry no runtime type, so a mismatched argument
        // would silently reinterpret bits — reject it at the boundary
        // instead (the tagged representation used to panic here).
        for (i, (arg, want)) in args.iter().zip(&func.ty.params).enumerate() {
            if arg.ty() != *want {
                return Err(Trap::Host(format!(
                    "function {func_idx} argument {i} expects {want:?}, got {:?}",
                    arg.ty()
                )));
            }
        }
        Ok(())
    }

    /// Calls host function `func_idx` on the staging `stack` (see
    /// [`host_boundary`]).
    pub(crate) fn call_host(&mut self, func_idx: u32, stack: &mut Vec<u64>) -> Result<(), Trap> {
        let inst = &mut *self.inst;
        let (host, memory, config) = (&inst.host, inst.memory.as_mut(), &self.config);
        let (counts, staging) = (&mut inst.counts, &mut self.bufs.host_values);
        host_boundary(host, func_idx, memory, config, counts, staging, stack)
    }

    pub(crate) fn memory(&mut self) -> Result<&LinearMemory, Trap> {
        self.inst.memory.as_ref().ok_or_else(no_memory)
    }

    pub(crate) fn memory_mut(&mut self) -> Result<&mut LinearMemory, Trap> {
        self.inst.memory.as_mut().ok_or_else(no_memory)
    }
}

/// The typed API boundary for host calls, the one place a host function
/// runs: the untagged argument slots of host function `idx` on top of
/// `stack` convert to [`Value`]s in the reusable `staging` buffer,
/// followed by its result slots, zeros of its result types; it runs with
/// a [`HostContext`] over `memory`, `config`, the instance's host state
/// and its `counts` and writes its results there, and they convert back
/// in the arguments' place. Instantiation checked the function's declared type
/// against the module's import type, so the slots are the call's.
fn host_boundary(
    host: &InstanceHost,
    idx: u32,
    memory: Option<&mut LinearMemory>,
    config: &ExecConfig,
    counts: &mut ChargeCounts,
    staging: &mut Vec<Value>,
    stack: &mut Vec<u64>,
) -> Result<(), Trap> {
    let func = &host.funcs[idx as usize];
    let mut ctx = HostContext::new(memory, config, host.state.as_deref(), counts);
    let ty = &func.ty;
    let args_base = stack.len() - ty.params.len();
    staging.clear();
    staging.extend(
        ty.params
            .iter()
            .zip(&stack[args_base..])
            .map(|(ty, raw)| Value::from_slot(*ty, *raw)),
    );
    staging.extend(ty.results.iter().map(|ty| Value::zero(*ty)));
    let (args, results) = staging.split_at_mut(ty.params.len());
    // What the host charges lands in the instance's counts; the dispatch
    // loop spilled its running sum before it came here.
    //
    // A panicking host function must not unwind through the dispatch
    // loop: the store would be left mid-mutation with no record of it.
    // Catch the panic at this boundary and surface it as a trap — the
    // embedder (the serve pool) treats it as poisoning the instance,
    // quarantining the slot instead of recycling it.
    panic::catch_unwind(AssertUnwindSafe(|| (func.func)(&mut ctx, args, results)))
        .unwrap_or_else(|payload| Err(Trap::HostPanic(panic_message(payload.as_ref()))))?;
    // Host results re-enter the untagged stack, so a slot overwritten
    // with another type would silently reinterpret bits — a real trap,
    // not a debug assertion.
    for (i, (v, want)) in results.iter().zip(&ty.results).enumerate() {
        if v.ty() != *want {
            return Err(Trap::Host(format!(
                "host function result {i} declares {want:?}, got {:?}",
                v.ty()
            )));
        }
    }
    stack.truncate(args_base);
    stack.extend(results.iter().map(|v| v.to_slot()));
    Ok(())
}

/// The trap of a memory instruction in an instance without a memory
/// (validation rejects such a module, so no guest reaches it).
#[cold]
fn no_memory() -> Trap {
    Trap::Host("no memory".into())
}

/// Empties the dispatch loop's running sum of packed recipes into the
/// counts. Off the loop's straight path: a narrow lane fills after 32
/// ops of its class at the earliest, the simple lane after 2^15. A free
/// function over the counts alone, so the loop can call it while it
/// holds the instance's memory.
#[cold]
#[inline(never)]
fn spill(counts: &mut [u64; ChargeClass::COUNT], acc: u64) {
    unpack_lanes(acc, counts);
}

// ===========================================================================
// Register dispatch
// ===========================================================================
//
// One function, one `loop { match op }` over the 24 `RegOp` kinds (a single
// jump table whose layout is the compiler's, not the linker's), with an
// explicit call stack of code borrowed from the template's function table
// — borrowed once per invocation, so a guest call or return touches no
// reference count — and fuel consumed only at charge-free control
// transfers (so a fuel trap lands on the identical count vector on every
// run). The loop has one exit: an arm that traps breaks out of it with the
// error, so the running charge sum is emptied in exactly one place.
// Operands live in a flat per-frame register file in one growing arena.
// Each op's packed charge recipe is added *before* the op body runs, which
// keeps the counts identical to the tree-walking reference even on trap
// paths.

/// A suspended caller on the register tier's explicit call stack. It
/// names its function by index, not by a borrow of its code, so the
/// store can keep the stack's buffer across calls.
struct RegFrame {
    /// The caller's index in the template's function table.
    func: u32,
    base: usize,
    ret_pc: usize,
}

/// The register tier's call stack. The dispatch loop reads `code` from it
/// at every dispatch, reads and writes registers through a slice of
/// `regs` from `base` on, and calls into it only to call and return,
/// re-deriving the slice after.
struct CallStack<'a> {
    /// The template's function table, borrowed for the run.
    funcs: &'a [CompiledFunc],
    /// The running function's code.
    code: &'a RegCode,
    /// The running function's index in `funcs`.
    func: u32,
    /// Register-file arena: the active frame owns its function's
    /// `frame_size` slots starting at `base`, up to the end; suspended
    /// callers keep theirs below.
    regs: Vec<u64>,
    /// Suspended callers.
    frames: Vec<RegFrame>,
    /// Arena offset of the active frame.
    base: usize,
}

impl<'a> CallStack<'a> {
    /// Enters guest function `idx`, whose code is `callee`, from the op
    /// at `pc`: suspends the caller, grows the arena by the callee's frame
    /// and copies the `args` registers into its parameter slots.
    fn call(&mut self, idx: u32, callee: &'a RegCode, args: &[u16], pc: usize) {
        let new_base = self.regs.len();
        self.regs.resize(new_base + callee.frame_size as usize, 0);
        for (&slot, &a) in callee.param_slots.iter().zip(args) {
            self.regs[new_base + slot as usize] = self.regs[self.base + a as usize];
        }
        self.frames.push(RegFrame {
            func: std::mem::replace(&mut self.func, idx),
            base: self.base,
            ret_pc: pc + 1,
        });
        self.code = callee;
        self.base = new_base;
    }

    /// Function epilogue: copy the `srcs` registers into the caller's
    /// result registers (they live in the caller's call op), release the
    /// frame and resume the suspended caller — its return pc is returned.
    /// `None` when this was the outermost frame, whose results the loop
    /// reads out of `srcs` itself.
    fn ret(&mut self, srcs: &[u16]) -> Option<usize> {
        let frame = self.frames.pop()?;
        let code = &self.funcs[frame.func as usize].reg;
        let rets = match &code.ops[frame.ret_pc - 1] {
            RegOp::Call(c) => &c.rets,
            RegOp::CallIndirect(c) => &c.rets,
            other => unreachable!("return to non-call reg op {other:?}"),
        };
        for (&dst, &src) in rets.iter().zip(srcs) {
            self.regs[frame.base + dst as usize] = self.regs[self.base + src as usize];
        }
        self.regs.truncate(self.base);
        self.base = frame.base;
        self.code = code;
        self.func = frame.func;
        Some(frame.ret_pc)
    }
}

/// Resolves a `call_indirect` to its callee: table lookup of the
/// selector `sel`, then the signature check — by pointer first, since
/// types are deduplicated per module and both sides borrow the template's
/// tables; the structural compare is the cold fallback.
#[inline(never)]
fn resolve_indirect(
    table: &[Option<u32>],
    types: &[Arc<FuncType>],
    funcs: &[CompiledFunc],
    sel: u64,
    type_idx: u32,
) -> Result<u32, Trap> {
    let table_idx = get_i32(sel) as u32;
    let func_idx = table
        .get(table_idx as usize)
        .copied()
        .flatten()
        .ok_or(Trap::UndefinedElement)?;
    let expected = &types[type_idx as usize];
    let actual = &funcs[func_idx as usize].ty;
    if !Arc::ptr_eq(expected, actual) && expected != actual {
        return Err(Trap::IndirectCallTypeMismatch);
    }
    Ok(func_idx)
}

/// Scalar load: one `match` on the op, each arm a read of constant width
/// (so the memory's width dispatch folds away) and its own extension.
/// Unsigned widths come back zero-extended from the read.
#[inline(always)]
fn load_scalar(
    mem: Option<&mut LinearMemory>,
    op: LoadOp,
    index: u64,
    offset: u64,
) -> Result<u64, Trap> {
    use LoadOp::*;
    let mem = mem.ok_or_else(no_memory)?;
    // A macro, not a closure: a closure is not inlined into every arm.
    macro_rules! read {
        ($width:expr) => {
            mem.read_scalar(index, offset, $width)?
        };
    }
    Ok(match op {
        I64Load | F64Load => read!(8),
        I32Load | F32Load | I64Load32U => read!(4),
        I32Load16U | I64Load16U => read!(2),
        I32Load8U | I64Load8U => read!(1),
        I64Load32S => slot_i64(i64::from(read!(4) as u32 as i32)),
        I32Load16S => slot_i32(i32::from(read!(2) as u16 as i16)),
        I64Load16S => slot_i64(i64::from(read!(2) as u16 as i16)),
        I32Load8S => slot_i32(i32::from(read!(1) as u8 as i8)),
        I64Load8S => slot_i64(i64::from(read!(1) as u8 as i8)),
    })
}

/// Scalar store twin of [`load_scalar`]: the write keeps the op's width of
/// the slot's low bytes, which is the store encoding.
#[inline(always)]
fn store_scalar(
    mem: Option<&mut LinearMemory>,
    op: StoreOp,
    index: u64,
    offset: u64,
    raw: u64,
) -> Result<(), Trap> {
    use StoreOp::*;
    let mem = mem.ok_or_else(no_memory)?;
    match op {
        I64Store | F64Store => mem.write_scalar(index, offset, 8, raw),
        I32Store | F32Store | I64Store32 => mem.write_scalar(index, offset, 4, raw),
        I32Store16 | I64Store16 => mem.write_scalar(index, offset, 2, raw),
        I32Store8 | I64Store8 => mem.write_scalar(index, offset, 1, raw),
    }
}

/// The instance as the dispatch loop's out-of-line ops see it: every
/// field they touch but the memory, borrowed one by one, so the loop can
/// hold the memory's one borrow for the whole run and hand it to them.
struct Env<'a> {
    counts: &'a mut ChargeCounts,
    globals: &'a mut [Value],
    table: &'a [Option<u32>],
    host: &'a InstanceHost,
    pac: &'a PacSigner,
    pac_modifier: u64,
    config: &'a ExecConfig,
    host_values: &'a mut Vec<Value>,
}

impl Env<'_> {
    /// Runs host function `idx` for a call op of the frame at `base` of
    /// the arena `regs`: stages the `args` registers for the typed host
    /// boundary on the arena's tail and moves the host's results from
    /// there into the `rets` registers. The arena may move.
    #[inline(never)]
    fn host_call(
        &mut self,
        mem: Option<&mut LinearMemory>,
        idx: u32,
        regs: &mut Vec<u64>,
        base: usize,
        args: &[u16],
        rets: &[u16],
    ) -> Result<(), Trap> {
        let top = regs.len();
        for &a in args {
            regs.push(regs[base + a as usize]);
        }
        let (host, config) = (self.host, self.config);
        host_boundary(host, idx, mem, config, self.counts, self.host_values, regs)?;
        for (i, &slot) in rets.iter().enumerate() {
            regs[base + slot as usize] = regs[top + i];
        }
        regs.truncate(top);
        Ok(())
    }

    /// Runs a stateful instruction on the active `frame`'s registers: the
    /// twelve bodies of [`RegOp::Sys`], from Fig. 11 for the Cage forms
    /// and the core specification for the rest. Unlike the loop's other
    /// arms each body retires its own instruction — class first, then the
    /// data-dependent units its operands name, then the effect — so a trap
    /// finds the op charged in full. Out of line and `cold`: these are a
    /// few per call frame at most, and the loop's shape should not know
    /// them — without the hint the register allocator keeps the running
    /// charge sum on the stack around this call, which costs every
    /// dispatch a store and a reload.
    #[cold]
    #[inline(never)]
    fn sys(
        &mut self,
        mem: Option<&mut LinearMemory>,
        frame: &mut [u64],
        op: SysOp,
        args: [u16; 3],
        ret: Option<u16>,
        imm: u64,
    ) -> Result<(), Trap> {
        let get = |r: u16| frame[r as usize];
        let mem = || mem.ok_or_else(no_memory);
        // A partial granule still costs a full `stg`/`stzg`.
        let granules = |len: u64| len.div_ceil(16);
        let result = match op {
            SysOp::Unreachable => {
                self.counts.charge(ChargeClass::Simple);
                return Err(Trap::Unreachable);
            }
            SysOp::GlobalGet => {
                self.counts.charge(ChargeClass::Simple);
                self.globals[imm as usize].to_slot()
            }
            SysOp::GlobalSet => {
                self.counts.charge(ChargeClass::Simple);
                let raw = get(args[0]);
                // A global keeps its typed API representation; its
                // declared type is that of the value it holds.
                let global = &mut self.globals[imm as usize];
                *global = Value::from_slot(global.ty(), raw);
                0
            }
            SysOp::MemorySize => {
                self.counts.charge(ChargeClass::MemManage);
                let mem = mem()?;
                pages_slot(mem.is_memory64(), Some(mem.size_pages()))
            }
            SysOp::MemoryGrow => {
                self.counts.charge(ChargeClass::MemManage);
                let delta = get(args[0]);
                let mem = mem()?;
                pages_slot(mem.is_memory64(), mem.grow(delta))
            }
            SysOp::MemoryFill => {
                let [dst, val, len] = args.map(get);
                self.counts.charge(ChargeClass::Fill);
                self.counts.charge_units(ChargeClass::FillBytes, len);
                mem()?.fill(dst, val as u8, len)?;
                0
            }
            SysOp::MemoryCopy => {
                let [dst, src, len] = args.map(get);
                self.counts.charge(ChargeClass::Copy);
                self.counts.charge_units(ChargeClass::CopyBytes, len);
                mem()?.copy(dst, src, len)?;
                0
            }
            SysOp::SegmentNew => {
                let (ptr, len) = (get(args[0]), get(args[1]));
                self.counts.charge(ChargeClass::SegmentNew);
                self.counts
                    .charge_units(ChargeClass::SegmentNewGranules, granules(len));
                mem()?.segment_new(ptr.wrapping_add(imm), len)?
            }
            SysOp::SegmentSetTag => {
                let [ptr, tagged, len] = args.map(get);
                self.counts.charge(ChargeClass::Retag);
                self.counts
                    .charge_units(ChargeClass::RetagGranules, granules(len));
                mem()?.segment_set_tag(ptr.wrapping_add(imm), tagged, len)?;
                0
            }
            SysOp::SegmentFree => {
                let (ptr, len) = (get(args[0]), get(args[1]));
                self.counts.charge(ChargeClass::Retag);
                self.counts
                    .charge_units(ChargeClass::RetagGranules, granules(len));
                mem()?.segment_free(ptr.wrapping_add(imm), len)?;
                0
            }
            // Without pointer authentication both are moves, and still
            // retire their instruction.
            SysOp::PointerSign => {
                self.counts.charge(ChargeClass::Sign);
                let ptr = get(args[0]);
                if self.config.variant.pointer_auth() {
                    self.pac.sign(ptr, self.pac_modifier)
                } else {
                    ptr
                }
            }
            SysOp::PointerAuth => {
                self.counts.charge(ChargeClass::Auth);
                let ptr = get(args[0]);
                if self.config.variant.pointer_auth() {
                    self.pac.auth(ptr, self.pac_modifier)?
                } else {
                    ptr
                }
            }
        };
        if let Some(dst) = ret {
            frame[dst as usize] = result;
        }
        Ok(())
    }
}

impl Interp<'_> {
    /// Calls function `func_idx` with `args` and writes its results into
    /// `results` — the external entry point. Typed [`Value`]s convert to
    /// untagged slots straight into the callee's parameter registers, and
    /// back straight into `results`; the interior never sees a tag.
    /// `results` must hold exactly the function's result count; on a trap
    /// it is left as it was.
    pub(crate) fn call_into(
        &mut self,
        func_idx: u32,
        args: &[Value],
        results: &mut [Value],
    ) -> Result<(), Trap> {
        self.check_entry(func_idx, args)?;
        let func = &self.inst.pre.funcs[func_idx as usize];
        let want = func.ty.results.len();
        if results.len() != want {
            return Err(Trap::Host(format!(
                "function {func_idx} returns {want} results, the caller's slice holds {}",
                results.len()
            )));
        }
        let result = if func.is_host {
            self.call_host_entry(func_idx, args, results)
        } else {
            self.run_reg(func_idx, args, results)
        };
        self.flush_accounting();
        result
    }

    /// A host function called as the entry point: it has no register
    /// code, so its arguments are staged for the typed boundary and its
    /// results read back from the staging.
    #[cold]
    fn call_host_entry(
        &mut self,
        func_idx: u32,
        args: &[Value],
        results: &mut [Value],
    ) -> Result<(), Trap> {
        if self.depth >= self.max_depth {
            return Err(Trap::CallStackExhausted);
        }
        let mut bufs = self.bufs.take();
        bufs.regs.extend(args.iter().map(|v| v.to_slot()));
        let inst = &mut *self.inst;
        let (host, memory, config) = (&inst.host, inst.memory.as_mut(), &self.config);
        let (counts, staging, regs) = (&mut inst.counts, &mut bufs.host_values, &mut bufs.regs);
        let result = host_boundary(host, func_idx, memory, config, counts, staging, regs);
        let func = &inst.pre.funcs[func_idx as usize];
        if result.is_ok() {
            for ((out, ty), &raw) in results.iter_mut().zip(&func.ty.results).zip(&bufs.regs) {
                *out = Value::from_slot(*ty, raw);
            }
        }
        self.bufs.give_back(bufs);
        result
    }

    /// The dispatch loop: executes guest function `func_idx` (and
    /// everything it calls) to completion on one growing register-file
    /// arena, then writes its results into `results`.
    ///
    /// Its state is five locals: `pc`, the running `code`, the charge sum
    /// `acc`, the active `frame` slice and the instance's memory `mem`.
    /// Each dispatch is one integer add (the op's packed recipe onto
    /// `acc`, which no arm's straight path stores), one test of the lanes'
    /// guard bits, and one jump-table `match`. `acc` is emptied into the
    /// counts when a guard bit is set, before a host call (so the
    /// instance's counts are complete whenever foreign code runs), and
    /// after the loop, which every arm leaves the same way — a `break`
    /// with the result, a trap included. A [`RegOp::Sys`] arm adds to the
    /// instance's counts directly, around a sum still in flight: integer
    /// counts commute. Control flow never recurses: a call pushes a
    /// [`RegFrame`] and continues at pc 0 of the callee, so host stack
    /// usage is constant in both guest nesting depth and guest call depth
    /// (the latter bounded by `max_depth`). Fuel is consumed in the arms
    /// that transfer control (a taken branch, a guest call, a return) and
    /// nowhere else: the check stays off the straight-line fall-through
    /// path, off host calls and off the cycle model.
    ///
    /// `frame` borrows the call stack's arena, so a guest call, a host
    /// call (which stages on the arena's tail) or a return — each may
    /// move it — re-derives it; `mem` borrows the instance's
    /// memory for the whole run, and `sys` and a host call receive it.
    /// The arena, the frame stack and the host staging are the store's
    /// [`CallBuffers`], taken here and given back after the loop's one
    /// exit.
    ///
    /// Never inlined, so the loop is one symbol whose layout
    /// `ci/dispatch_lint.sh` can find and check.
    #[inline(never)]
    fn run_reg(
        &mut self,
        func_idx: u32,
        args: &[Value],
        results: &mut [Value],
    ) -> Result<(), Trap> {
        if self.depth >= self.max_depth {
            return Err(Trap::CallStackExhausted);
        }
        self.depth += 1;
        // From here on the instance is split: `mem` is the memory's one
        // borrow for the run, `env` the rest of what the out-of-line ops
        // touch, the template's tables plain borrows, and the preemption
        // state a local copy.
        let Interp {
            inst,
            config,
            depth,
            preempt: preempt_state,
            max_depth,
            bufs: kept,
        } = self;
        let Instance {
            pre,
            memory,
            counts,
            globals,
            table,
            host,
            pac,
            pac_modifier,
            ..
        } = &mut **inst;
        let (types, funcs) = (&*pre.types, &*pre.funcs);
        let func = &funcs[func_idx as usize];
        let CallBuffers {
            mut regs,
            frames,
            mut host_values,
        } = kept.take();
        let mut env = Env {
            counts,
            globals,
            table,
            host,
            pac,
            pac_modifier: *pac_modifier,
            config,
            host_values: &mut host_values,
        };
        let mut mem = memory.as_mut();
        let mut preempt = *preempt_state;
        regs.resize(func.reg.frame_size as usize, 0);
        for (&slot, v) in func.reg.param_slots.iter().zip(args) {
            regs[slot as usize] = v.to_slot();
        }
        let mut stack = CallStack {
            funcs,
            code: &func.reg,
            func: func_idx,
            regs,
            frames,
            base: 0,
        };
        let mut pc: usize = 0;
        let mut acc: u64 = 0;
        // The active frame's registers: a borrow of the arena alone, so
        // the loop can still read `stack.code`.
        macro_rules! frame {
            () => {
                &mut stack.regs[stack.base..]
            };
        }
        let mut frame = frame!();
        // Register `$r` of the active frame, as a place.
        macro_rules! reg {
            ($r:expr) => {
                frame[usize::from($r)]
            };
        }
        // `?` for the loop: a trap is the loop's value.
        macro_rules! tri {
            ($result:expr) => {
                match $result {
                    Ok(v) => v,
                    Err(trap) => break Err(trap.into()),
                }
            };
        }
        // Hands `acc` to the counts: nothing charged so far is missing
        // from them when the code that follows runs.
        macro_rules! spill {
            () => {{
                spill(&mut env.counts.counts, acc);
                acc = 0;
            }};
        }
        // A control transfer within the current function: the preemption
        // point, then the jump.
        macro_rules! jump {
            ($target:expr) => {{
                tri!(preempt.consume());
                pc = $target as usize;
                continue;
            }};
        }
        // A call to function `$idx`: a guest callee becomes the running
        // code and frame; a host callee has run when `host_call` returns.
        macro_rules! call {
            ($idx:expr, $call:expr) => {{
                let idx = $idx;
                if *depth >= *max_depth {
                    break Err(Trap::CallStackExhausted);
                }
                let callee = &funcs[idx as usize];
                if callee.is_host {
                    spill!();
                    tri!(env.host_call(
                        mem.as_deref_mut(),
                        idx,
                        &mut stack.regs,
                        stack.base,
                        &$call.args,
                        &$call.rets
                    ));
                    frame = frame!();
                } else {
                    *depth += 1;
                    stack.call(idx, &callee.reg, &$call.args, pc);
                    frame = frame!();
                    tri!(preempt.consume());
                    pc = 0;
                    continue;
                }
            }};
        }
        let result = loop {
            // Charge the op before its body: a trap inside the body leaves
            // exactly the charges the unfused source sequence would have.
            let code = stack.code;
            acc += code.packed[pc];
            if acc & LANE_GUARD != 0 {
                std::hint::cold_path();
                spill!();
            }
            match &code.ops[pc] {
                RegOp::Nop => {}
                &RegOp::Jump(target) => jump!(target),
                &RegOp::BrIf { cond, target } => {
                    if get_i32(reg!(cond)) != 0 {
                        jump!(target);
                    }
                }
                &RegOp::BrIfZ { cond, target } => {
                    if get_i32(reg!(cond)) == 0 {
                        jump!(target);
                    }
                }
                &RegOp::BrCmp {
                    op,
                    negate,
                    a,
                    b,
                    target,
                } => {
                    if (get_i32(op.eval(reg!(a), reg!(b))) != 0) != negate {
                        jump!(target);
                    }
                }
                &RegOp::BrCmpImm {
                    op,
                    negate,
                    a,
                    k,
                    target,
                } => {
                    if (get_i32(op.eval(reg!(a), k)) != 0) != negate {
                        jump!(target);
                    }
                }
                RegOp::BrTable { sel, targets } => {
                    let i = get_i32(reg!(*sel)) as usize;
                    let target = *targets
                        .get(i)
                        .unwrap_or_else(|| targets.last().expect("br_table has a default"));
                    jump!(target);
                }
                RegOp::Ret { srcs } => {
                    *depth -= 1;
                    let resumed = stack.ret(srcs);
                    frame = frame!();
                    tri!(preempt.consume());
                    let Some(ret_pc) = resumed else {
                        break Ok(srcs);
                    };
                    pc = ret_pc;
                    continue;
                }
                RegOp::Call(call) => call!(call.func, call),
                RegOp::CallIndirect(call) => call!(
                    tri!(resolve_indirect(
                        env.table,
                        types,
                        funcs,
                        reg!(call.sel),
                        call.type_idx
                    )),
                    call
                ),
                &RegOp::Move { dst, src } => reg!(dst) = reg!(src),
                &RegOp::Const { dst, v } => reg!(dst) = v,
                &RegOp::Alu { op, dst, a, b } => reg!(dst) = op.eval(reg!(a), reg!(b)),
                &RegOp::AluImm { op, dst, a, k } => reg!(dst) = op.eval(reg!(a), k),
                &RegOp::AluImmJump {
                    op,
                    dst,
                    a,
                    k,
                    target,
                } => {
                    reg!(dst) = op.eval(reg!(a), k);
                    jump!(target);
                }
                &RegOp::Div { op, dst, a, b } => reg!(dst) = tri!(op.eval(reg!(a), reg!(b))),
                &RegOp::Una { op, dst, a } => reg!(dst) = tri!(op.eval(reg!(a))),
                &RegOp::IndexAdd {
                    dst,
                    base,
                    idx,
                    ext,
                    k,
                } => reg!(dst) = ext.address(reg!(base), reg!(idx), k),
                &RegOp::Select { dst, cond, a, b } => {
                    reg!(dst) = if get_i32(reg!(cond)) != 0 {
                        reg!(a)
                    } else {
                        reg!(b)
                    };
                }
                &RegOp::Load {
                    op,
                    offset,
                    dst,
                    addr,
                } => reg!(dst) = tri!(load_scalar(mem.as_deref_mut(), op, reg!(addr), offset)),
                &RegOp::Store {
                    op,
                    offset,
                    addr,
                    val,
                } => tri!(store_scalar(
                    mem.as_deref_mut(),
                    op,
                    reg!(addr),
                    offset,
                    reg!(val)
                )),
                &RegOp::LoadIdx {
                    op,
                    dst,
                    base,
                    row,
                    rext,
                    rk,
                    idx,
                    ext,
                    k,
                    offset,
                } => {
                    let row = rext.address(reg!(base), reg!(row), rk.into());
                    let addr = ext.address(row, reg!(idx), k.into());
                    reg!(dst) = tri!(load_scalar(mem.as_deref_mut(), op, addr, offset.into()));
                }
                &RegOp::StoreIdx {
                    op,
                    base,
                    row,
                    rext,
                    rk,
                    idx,
                    ext,
                    k,
                    offset,
                    val,
                } => {
                    let row = rext.address(reg!(base), reg!(row), rk.into());
                    let addr = ext.address(row, reg!(idx), k.into());
                    tri!(store_scalar(
                        mem.as_deref_mut(),
                        op,
                        addr,
                        offset.into(),
                        reg!(val)
                    ));
                }
                &RegOp::Sys { op, args, ret, imm } => {
                    tri!(env.sys(mem.as_deref_mut(), frame, op, args, ret, imm));
                }
            }
            pc += 1;
        };
        spill(&mut env.counts.counts, acc);
        *preempt_state = preempt;
        // The outermost frame is the arena's base: its `srcs` registers
        // are the results.
        if let Ok(srcs) = result {
            for ((out, ty), &src) in results.iter_mut().zip(&func.ty.results).zip(srcs) {
                *out = Value::from_slot(*ty, stack.regs[src as usize]);
            }
        }
        kept.give_back(CallBuffers {
            regs: stack.regs,
            frames: stack.frames,
            host_values,
        });
        result.map(drop)
    }
}

/// The result slot of `memory.size` and `memory.grow`: a page count in the
/// memory's index type, `-1` for a grow that was refused.
fn pages_slot(memory64: bool, pages: Option<u64>) -> u64 {
    match (memory64, pages) {
        (true, Some(pages)) => slot_i64(pages as i64),
        (false, Some(pages)) => slot_i32(pages as i32),
        (true, None) => slot_i64(-1),
        (false, None) => slot_i32(-1),
    }
}

/// Decodes the raw little-endian scalar a load fetched into an untagged
/// operand slot. Unsigned widths are already zero-extended (the scalar
/// read zeroes the high bytes); only sign-extending loads transform.
///
/// There is no `encode_store` twin: slot encoding *is* the store
/// encoding — the scalar write truncates to the op's width, which is what
/// every `StoreOp` did to its typed value.
pub(crate) fn decode_load(op: LoadOp, raw: u64) -> u64 {
    use LoadOp::*;
    match op {
        I32Load | F32Load | F64Load | I64Load | I32Load8U | I32Load16U | I64Load8U | I64Load16U
        | I64Load32U => raw,
        I32Load8S => slot_i32(i32::from(raw as u8 as i8)),
        I32Load16S => slot_i32(i32::from(raw as u16 as i16)),
        I64Load8S => slot_i64(i64::from(raw as u8 as i8)),
        I64Load16S => slot_i64(i64::from(raw as u16 as i16)),
        I64Load32S => slot_i64(i64::from(raw as u32 as i32)),
    }
}

#[cfg(test)]
mod tests {
    use cage_mte::pointer::ADDR_MASK;

    use super::*;
    use crate::memory::fast_addr;

    #[test]
    fn load_codec_decodes_slots() {
        // Slot encoding is the store encoding; decode recovers the typed
        // slot from the width-truncated raw bytes a load fetches.
        let pi = Value::F64(std::f64::consts::PI).to_slot();
        assert_eq!(decode_load(LoadOp::F64Load, pi), pi);
        let raw = Value::I32(-2).to_slot() & 0xFF; // I32Store8 keeps the low byte
        assert_eq!(
            decode_load(LoadOp::I32Load8S, raw),
            Value::I32(-2).to_slot()
        );
        assert_eq!(
            decode_load(LoadOp::I32Load8U, raw),
            Value::I32(254).to_slot()
        );
    }

    #[test]
    fn fast_addr_matches_resolve_arithmetic() {
        // In bounds, the address `resolve()` computes; overflow in
        // index + offset or an end past the bound, no fast path at all.
        assert_eq!(fast_addr(16, 8, 4, true, 4096), Some(24));
        // memory64 masks the tag bits out of the index.
        assert_eq!(fast_addr((7 << 56) | 16, 0, 4, true, 4096), Some(16));
        // wasm32 indices arrive zero-extended: no masking.
        assert_eq!(
            fast_addr(ADDR_MASK + 1, 0, 4, false, u64::MAX),
            Some(ADDR_MASK + 1)
        );
        assert_eq!(fast_addr(u64::MAX, 1, 4, false, u64::MAX), None);
        // The access may end exactly at the bound.
        assert_eq!(fast_addr(4092, 0, 4, true, 4096), Some(4092));
        assert_eq!(fast_addr(4093, 0, 4, true, 4096), None);
        // addr + width overflow is a miss, not a wrap.
        assert_eq!(fast_addr(u64::MAX - 3, 0, 8, false, u64::MAX), None);
    }
}
