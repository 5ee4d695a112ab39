//! The interpreter: register-bytecode execution of validated modules with
//! cycle accounting, implementing core WASM semantics plus the paper's
//! Fig. 11 small-step rules for the Cage instructions.
//!
//! Execution is a *register machine*: function bodies are lowered through
//! SSA into [`crate::bytecode::RegCode`] — generic 3-address ops over a
//! fixed per-frame register file — and executed by [`Interp::run_reg`]:
//! one function holding one `loop { match op }`, a single jump table over
//! the 21 [`RegOp`] kinds. Each iteration adds the op's *charge recipe*
//! (how many source instructions of each class it retires, packed into
//! one word) to a running sum held in a register and then runs the op's
//! arm, so the per-class retired counts are exactly those of retiring the
//! source instructions one at a time; the sum is emptied into the
//! instance's integer counts when a lane fills, before anything outside
//! the loop runs, and on the loop's one exit. Cycles are not accumulated
//! at all: they are derived from the counts when somebody reads them
//! ([`crate::cost::ChargeCounts::cycles`]).
//! Calls push a frame — the caller's *index* in the template's function
//! table, its arena base and return pc — on an explicit call stack and
//! grow the register arena, so guest call depth never consumes host Rust
//! stack; the table is borrowed once per invocation, so a call or return
//! touches no reference count.
//!
//! Operands are *untagged*: registers (and the reference walker's operand
//! stack and locals arena) are plain `u64` slots (the encoding
//! `cage_wasm::numeric` defines, which [`Value::to_slot`] is the typed
//! door to — validation already guarantees types, so no runtime tag is
//! stored or matched). Typed [`Value`]s exist only at API boundaries:
//! external `Store::call` arguments/results, host calls and globals
//! convert at the edge. Which path a scalar load/store takes is the
//! memory's decision, made once when it was built from its
//! [`crate::memory::TagScheme`]: the loop asks
//! [`crate::memory::LinearMemory::tag_checked`] and, when no tag check is
//! live, caches a bound — one compare against the cached guest size, then
//! a direct little-endian read; otherwise every access goes through
//! [`crate::memory::LinearMemory::resolve`]. The loop owns the cache and
//! nothing else: no policy is derived here.
//!
//! This loop is the only production executor: everything reachable from
//! `Store::call` and `Store::invoke` is in this file, holds no
//! `cage_wasm::Instr` and builds no operand stack (a host call stages its
//! arguments for the typed boundary, nothing else does). The 128 numeric
//! instructions run the rows of the table in `cage_wasm::numeric`
//! (`AluOp`/`DivOp`/`UnaOp::eval`, inlined into the loop's arms — the four
//! generic ones and the three fused forms — and charged by the recipe).
//! The twelve stateful ones (globals, memory management, segments, pointer
//! sign/auth, `unreachable`) are one arm, [`RegOp::Sys`], which calls the
//! out-of-line [`RegState::sys`]: twelve register-form bodies written from
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
//! semantics.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use cage_wasm::instr::{LoadOp, StoreOp};
use cage_wasm::numeric::{get_i32, slot_i32, slot_i64};
use cage_wasm::FuncType;

use crate::bytecode::{unpack_lanes, AluOp, RegCallIndirect, RegCode, RegOp, SysOp, LANE_GUARD};
use crate::config::ExecConfig;
use crate::cost::ChargeClass;
use crate::host::HostContext;
use crate::memory::fast_addr;
use crate::store::{CompiledFunc, Store};
use crate::trap::{panic_message, Trap};
use crate::value::Value;

pub(crate) struct Interp<'s> {
    pub(crate) store: &'s mut Store,
    pub(crate) inst: usize,
    pub(crate) config: ExecConfig,
    pub(crate) depth: usize,
    /// Remaining fuel, mirrored from the instance for the duration of a
    /// call (it is read on every taken branch) and written back at the end
    /// of execution ([`Interp::flush_accounting`]); `None` disables the
    /// checks entirely. The retired counts are not mirrored: the loop sums
    /// recipes in a register and everything else charges the instance
    /// directly.
    fuel: Option<u64>,
    /// Consumed-fuel accumulator, mirrored like `fuel`.
    fuel_consumed: u64,
    /// Epoch deadline, mirrored from the instance; `None` disables the
    /// epoch compare (and the load of the store's shared counter)
    /// entirely.
    epoch_deadline: Option<u64>,
    /// Effective call-depth limit: the engine config tightened by the
    /// instance's [`crate::store::InstanceLimits`].
    pub(crate) max_depth: usize,
    /// Reusable scratch for host-call argument conversion, so crossing
    /// the typed API boundary does not allocate per call.
    host_args: Vec<Value>,
}

impl<'s> Interp<'s> {
    pub(crate) fn new(store: &'s mut Store, inst: usize) -> Self {
        let config = store.config;
        let fuel = store.instances[inst].fuel;
        let fuel_consumed = store.instances[inst].fuel_consumed;
        let epoch_deadline = store.instances[inst].epoch_deadline;
        let max_depth = store.instances[inst]
            .limits
            .max_call_depth
            .map_or(config.max_call_depth, |l| l.min(config.max_call_depth));
        Interp {
            store,
            inst,
            config,
            depth: 0,
            fuel,
            fuel_consumed,
            epoch_deadline,
            max_depth,
            host_args: Vec::new(),
        }
    }

    /// The instance's retired counts per [`ChargeClass`].
    #[inline]
    fn counts(&mut self) -> &mut [u64; ChargeClass::COUNT] {
        &mut self.store.instances[self.inst].counts.counts
    }

    /// Retires one instruction of `class`.
    #[inline]
    pub(crate) fn charge(&mut self, class: ChargeClass) {
        self.counts()[class as usize] += 1;
    }

    /// Charges `n` data-dependent units of `class` (bytes, granules). The
    /// guest chooses `n` — a `memory.fill` of `u64::MAX` bytes is charged
    /// before it traps — so the count saturates instead of wrapping.
    #[inline]
    pub(crate) fn charge_units(&mut self, class: ChargeClass, n: u64) {
        let count = &mut self.counts()[class as usize];
        *count = count.saturating_add(n);
    }

    /// Empties the dispatch loop's running sum of packed recipes into the
    /// counts. Off the loop's straight path: a narrow lane fills after 32
    /// ops of its class at the earliest, the simple lane after 2^15.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, acc: u64) {
        unpack_lanes(acc, self.counts());
    }

    /// Writes the local fuel back to the instance, before the embedder
    /// observes it after the call returns.
    pub(crate) fn flush_accounting(&mut self) {
        let i = &mut self.store.instances[self.inst];
        i.fuel = self.fuel;
        i.fuel_consumed = self.fuel_consumed;
    }

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
    fn consume_fuel(&mut self) -> Result<(), Trap> {
        if let Some(f) = self.fuel {
            if f == 0 {
                return Err(Trap::FuelExhausted);
            }
            self.fuel = Some(f - 1);
            self.fuel_consumed += 1;
        }
        if let Some(deadline) = self.epoch_deadline {
            if self.store.epoch.load(Ordering::Relaxed) >= deadline {
                return Err(Trap::EpochInterrupt);
            }
        }
        Ok(())
    }

    /// Internal call sites are arity-checked by validation, but the
    /// external entry points take embedder-supplied arguments: verify them
    /// before they hit the frame layout.
    pub(crate) fn check_entry(&self, func_idx: u32, args: &[Value]) -> Result<(), Trap> {
        let inst = &self.store.instances[self.inst];
        let func = inst
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

    /// The typed API boundary for host calls: untagged argument slots
    /// convert to [`Value`]s (through a reusable scratch buffer, no
    /// per-call allocation) and the host's results convert back.
    pub(crate) fn call_host(
        &mut self,
        func_idx: u32,
        func: &CompiledFunc,
        stack: &mut Vec<u64>,
    ) -> Result<(), Trap> {
        let args_base = stack.len() - func.ty.params.len();
        let func_rc = self.store.instances[self.inst].host_funcs[func_idx as usize].clone();
        let mut host = func_rc.borrow_mut();
        self.host_args.clear();
        self.host_args.extend(
            func.ty
                .params
                .iter()
                .zip(&stack[args_base..])
                .map(|(ty, raw)| Value::from_slot(*ty, *raw)),
        );
        // What the host charges lands in the instance's `host_cycles`,
        // which nothing else writes; the dispatch loop spilled its running
        // sum before it came here.
        let inst = &mut self.store.instances[self.inst];
        let mut ctx = HostContext {
            memory: inst.memory.as_mut(),
            config: &self.config,
            cycles: &mut inst.counts.host_cycles,
        };
        // A panicking host function must not unwind through the dispatch
        // loop: the store would be left mid-mutation with no record of
        // it. Catch the panic at this boundary and surface it as a trap —
        // the embedder (the serve pool) treats it as poisoning the
        // instance, quarantining the slot instead of recycling it.
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| (host.func)(&mut ctx, &self.host_args)))
                .unwrap_or_else(|payload| Err(Trap::HostPanic(panic_message(payload.as_ref()))));
        let results = result?;
        // Host results re-enter the untagged stack, so arity and type
        // errors here would corrupt the frame layout or silently
        // reinterpret bits — they are real traps, not debug assertions.
        if results.len() != func.ty.results.len() {
            return Err(Trap::Host(format!(
                "host function returned {} results, signature declares {}",
                results.len(),
                func.ty.results.len()
            )));
        }
        for (i, (v, want)) in results.iter().zip(&func.ty.results).enumerate() {
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

    pub(crate) fn memory(&mut self) -> Result<&crate::memory::LinearMemory, Trap> {
        self.store.instances[self.inst]
            .memory
            .as_ref()
            .ok_or_else(|| Trap::Host("no memory".into()))
    }

    pub(crate) fn memory_mut(&mut self) -> Result<&mut crate::memory::LinearMemory, Trap> {
        self.store.instances[self.inst]
            .memory
            .as_mut()
            .ok_or_else(|| Trap::Host("no memory".into()))
    }
}

// ===========================================================================
// Register dispatch
// ===========================================================================
//
// One function, one `loop { match op }` over the 21 `RegOp` kinds (a single
// jump table whose layout is the compiler's, not the linker's), with an
// explicit call stack of function *indices* into the template's function
// table — borrowed once per invocation, so a guest call or return touches
// no reference count — and fuel consumed only at charge-free control
// transfers (so a fuel trap lands on the identical count vector on every
// run). The loop has one exit: an arm that traps breaks out of it with the
// error, so the running charge sum is emptied in exactly one place.
// Operands live in a flat per-frame register file in one growing arena.
// Each op's packed charge recipe is added *before* the op body runs, which
// keeps the counts identical to the tree-walking reference even on trap
// paths.

/// A suspended caller on the register tier's explicit call stack.
struct RegFrame {
    /// The caller's index in the function table.
    func: u32,
    base: usize,
    ret_pc: usize,
}

/// The per-invocation execution state of the dispatch loop.
struct RegState<'a, 's> {
    it: &'a mut Interp<'s>,
    /// The template's function table, borrowed for the whole run: frames
    /// and calls name functions by index into it.
    funcs: &'a [CompiledFunc],
    /// The template's type table (`call_indirect` signature checks).
    types: &'a [Arc<FuncType>],
    /// Register-file arena: the active frame owns its function's
    /// `frame_size` slots starting at `base`; suspended callers keep
    /// theirs below.
    regs: Vec<u64>,
    /// Suspended callers (the explicit call stack).
    frames: Vec<RegFrame>,
    /// Index of the function currently executing.
    func: u32,
    /// Arena offset of the active frame.
    base: usize,
    /// Reusable staging stack for host calls: the typed boundary takes its
    /// arguments as a slice and returns its results as one.
    scratch: Vec<u64>,
    // Cached linear-memory fast path: when the memory says no tag check
    // is live (`LinearMemory::tag_checked`), a scalar access is one
    // overflow-checked address add, one bounds compare against this
    // cached bound, and a direct little-endian read — the full
    // `resolve()` policy ladder never runs. The bound is `LinearMemory::fast_bound` (guest size capped by
    // the committed prefix); a miss goes to `commit_miss`, which decides
    // against the real guest size. The cache is refreshed wherever the
    // guest size can change — `memory.grow` and host calls (hosts may
    // grow the memory through their checked context) — and a stale value
    // is only ever too small, which costs a `commit_miss` and nothing else.
    mem_m64: bool,
    mem_size: u64,
    mem_fast: bool,
}

impl<'a> RegState<'a, '_> {
    /// Reads register `slot` of the active frame.
    #[inline(always)]
    fn get(&self, slot: u16) -> u64 {
        self.regs[self.base + slot as usize]
    }

    /// Writes register `slot` of the active frame.
    #[inline(always)]
    fn set(&mut self, slot: u16, v: u64) {
        self.regs[self.base + slot as usize] = v;
    }

    /// Recomputes the cached linear-memory view from the instance.
    fn refresh_mem(&mut self) {
        match self.it.store.instances[self.it.inst].memory.as_ref() {
            Some(m) if !m.tag_checked() => {
                self.mem_m64 = m.is_memory64();
                self.mem_size = m.fast_bound();
                self.mem_fast = true;
            }
            _ => self.mem_fast = false,
        }
    }

    /// The fast path's address: one overflow-checked add and one compare
    /// against the cached bound; anything else is [`RegState::commit_miss`].
    #[inline(always)]
    fn fast_scalar_addr(&mut self, index: u64, offset: u64, width: u64) -> Result<u64, Trap> {
        match fast_addr(index, offset, width, self.mem_m64, self.mem_size) {
            Ok(addr) => Ok(addr),
            Err(_) => self.commit_miss(index, offset, width),
        }
    }

    /// The fast path's miss: the access ends past the cached bound, so it
    /// is either out of bounds or the first touch of an uncommitted page.
    /// The memory decides (same trap payload as the fast path would have
    /// built against the guest size), commits, and the cache is refreshed.
    #[cold]
    #[inline(never)]
    fn commit_miss(&mut self, index: u64, offset: u64, width: u64) -> Result<u64, Trap> {
        let mem = self.it.store.instances[self.it.inst]
            .memory
            .as_mut()
            .expect("fast path implies memory");
        let addr = mem.commit_scalar(index, offset, width)?;
        self.mem_size = mem.fast_bound();
        Ok(addr)
    }

    /// Scalar load: the cached fast path when no tag scheme is live, the
    /// full `resolve()` policy ladder otherwise — identical results and
    /// trap payloads either way (pinned by the differential tests and the
    /// trap matrix).
    #[inline(always)]
    fn load_scalar(&mut self, op: LoadOp, index: u64, offset: u64) -> Result<u64, Trap> {
        let width = op.width();
        let raw = if self.mem_fast {
            let addr = self.fast_scalar_addr(index, offset, width)?;
            self.it.store.instances[self.it.inst]
                .memory
                .as_ref()
                .expect("fast path implies memory")
                .read_le(addr, width)
        } else {
            self.it.memory_mut()?.read_scalar(index, offset, width)?
        };
        Ok(decode_load(op, raw))
    }

    /// Scalar store twin of [`RegState::load_scalar`].
    #[inline(always)]
    fn store_scalar(&mut self, op: StoreOp, index: u64, offset: u64, raw: u64) -> Result<(), Trap> {
        let width = op.width();
        if self.mem_fast {
            let addr = self.fast_scalar_addr(index, offset, width)?;
            self.it.store.instances[self.it.inst]
                .memory
                .as_mut()
                .expect("fast path implies memory")
                .write_le(addr, width, raw);
            Ok(())
        } else {
            self.it
                .memory_mut()?
                .write_scalar(index, offset, width, raw)
        }
    }

    /// Calls function `idx` from the op at `pc`. A guest callee suspends
    /// the caller onto `frames`, grows the arena by its frame, receives
    /// the arguments in its parameter slots and becomes `self.func`: the
    /// loop resumes at its pc 0 with its code, returned here. A host
    /// callee runs to completion on the staging stack and returns `None`:
    /// the loop falls through.
    fn do_call(
        &mut self,
        idx: u32,
        args: &[u16],
        rets: &[u16],
        pc: usize,
    ) -> Result<Option<&'a RegCode>, Trap> {
        if self.it.depth >= self.it.max_depth {
            return Err(Trap::CallStackExhausted);
        }
        let callee = &self.funcs[idx as usize];
        if callee.is_host {
            self.host_call(idx, callee, args, rets)?;
            return Ok(None);
        }
        self.it.depth += 1;
        let new_base = self.regs.len();
        self.regs
            .resize(new_base + callee.reg.frame_size as usize, 0);
        for (&slot, &a) in callee.reg.param_slots.iter().zip(args) {
            self.regs[new_base + slot as usize] = self.regs[self.base + a as usize];
        }
        self.frames.push(RegFrame {
            func: std::mem::replace(&mut self.func, idx),
            base: self.base,
            ret_pc: pc + 1,
        });
        self.base = new_base;
        Ok(Some(&callee.reg))
    }

    /// Stages the argument registers for the typed host boundary and
    /// moves the host's results into the result registers.
    #[inline(never)]
    fn host_call(
        &mut self,
        idx: u32,
        callee: &CompiledFunc,
        args: &[u16],
        rets: &[u16],
    ) -> Result<(), Trap> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend(args.iter().map(|&a| self.get(a)));
        self.it.depth += 1;
        let result = self.it.call_host(idx, callee, &mut buf);
        self.it.depth -= 1;
        if result.is_ok() {
            // Hosts may grow the memory through their checked context.
            self.refresh_mem();
            for (&slot, &v) in rets.iter().zip(buf.iter()) {
                self.set(slot, v);
            }
        }
        self.scratch = buf;
        result
    }

    /// Resolves a `call_indirect` to its callee: table lookup, then the
    /// signature check — by pointer first, since types are deduplicated
    /// per module and both sides borrow the template's tables; the
    /// structural compare is the cold fallback.
    #[inline(never)]
    fn resolve_indirect(&self, call: &RegCallIndirect) -> Result<u32, Trap> {
        let table_idx = get_i32(self.get(call.sel)) as u32;
        let func_idx = self.it.store.instances[self.it.inst]
            .table
            .get(table_idx as usize)
            .copied()
            .flatten()
            .ok_or(Trap::UndefinedElement)?;
        let expected = &self.types[call.type_idx as usize];
        let actual = &self.funcs[func_idx as usize].ty;
        if !Arc::ptr_eq(expected, actual) && expected != actual {
            return Err(Trap::IndirectCallTypeMismatch);
        }
        Ok(func_idx)
    }

    /// Function epilogue: copy the `srcs` registers into the caller's
    /// result registers (they live in the caller's call op), release the
    /// frame and resume the suspended caller — its code and return pc are
    /// returned. `None` when this was the outermost frame, whose results
    /// the loop reads out of `srcs` itself.
    fn do_return(&mut self, srcs: &[u16]) -> Option<(&'a RegCode, usize)> {
        self.it.depth -= 1;
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
        self.func = frame.func;
        Some((code, frame.ret_pc))
    }

    /// Runs a stateful instruction on the active frame's registers: the
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
    fn sys(&mut self, op: SysOp, args: [u16; 3], ret: Option<u16>, imm: u64) -> Result<(), Trap> {
        // A partial granule still costs a full `stg`/`stzg`.
        let granules = |len: u64| len.div_ceil(16);
        let result = match op {
            SysOp::Unreachable => {
                self.it.charge(ChargeClass::Simple);
                return Err(Trap::Unreachable);
            }
            SysOp::GlobalGet => {
                self.it.charge(ChargeClass::Simple);
                self.it.store.instances[self.it.inst].globals[imm as usize].to_slot()
            }
            SysOp::GlobalSet => {
                self.it.charge(ChargeClass::Simple);
                let raw = self.get(args[0]);
                // A global keeps its typed API representation; its
                // declared type is that of the value it holds.
                let global = &mut self.it.store.instances[self.it.inst].globals[imm as usize];
                *global = Value::from_slot(global.ty(), raw);
                0
            }
            SysOp::MemorySize => {
                self.it.charge(ChargeClass::MemManage);
                let mem = self.it.memory()?;
                pages_slot(mem.is_memory64(), Some(mem.size_pages()))
            }
            SysOp::MemoryGrow => {
                self.it.charge(ChargeClass::MemManage);
                let delta = self.get(args[0]);
                let mem = self.it.memory_mut()?;
                let old = pages_slot(mem.is_memory64(), mem.grow(delta));
                // The guest size moved: so does the fast path's bound.
                self.refresh_mem();
                old
            }
            SysOp::MemoryFill => {
                let [dst, val, len] = args.map(|r| self.get(r));
                self.it.charge(ChargeClass::Fill);
                self.it.charge_units(ChargeClass::FillBytes, len);
                self.it.memory_mut()?.fill(dst, val as u8, len)?;
                0
            }
            SysOp::MemoryCopy => {
                let [dst, src, len] = args.map(|r| self.get(r));
                self.it.charge(ChargeClass::Copy);
                self.it.charge_units(ChargeClass::CopyBytes, len);
                self.it.memory_mut()?.copy(dst, src, len)?;
                0
            }
            SysOp::SegmentNew => {
                let (ptr, len) = (self.get(args[0]), self.get(args[1]));
                self.it.charge(ChargeClass::SegmentNew);
                self.it
                    .charge_units(ChargeClass::SegmentNewGranules, granules(len));
                self.it
                    .memory_mut()?
                    .segment_new(ptr.wrapping_add(imm), len)?
            }
            SysOp::SegmentSetTag => {
                let [ptr, tagged, len] = args.map(|r| self.get(r));
                self.it.charge(ChargeClass::Retag);
                self.it
                    .charge_units(ChargeClass::RetagGranules, granules(len));
                self.it
                    .memory_mut()?
                    .segment_set_tag(ptr.wrapping_add(imm), tagged, len)?;
                0
            }
            SysOp::SegmentFree => {
                let (ptr, len) = (self.get(args[0]), self.get(args[1]));
                self.it.charge(ChargeClass::Retag);
                self.it
                    .charge_units(ChargeClass::RetagGranules, granules(len));
                self.it
                    .memory_mut()?
                    .segment_free(ptr.wrapping_add(imm), len)?;
                0
            }
            // Without pointer authentication both are moves, and still
            // retire their instruction.
            SysOp::PointerSign => {
                self.it.charge(ChargeClass::Sign);
                let ptr = self.get(args[0]);
                let inst = &self.it.store.instances[self.it.inst];
                if self.it.config.pointer_auth {
                    inst.pac.sign(ptr, inst.pac_modifier)
                } else {
                    ptr
                }
            }
            SysOp::PointerAuth => {
                self.it.charge(ChargeClass::Auth);
                let ptr = self.get(args[0]);
                let inst = &self.it.store.instances[self.it.inst];
                if self.it.config.pointer_auth {
                    inst.pac.auth(ptr, inst.pac_modifier)?
                } else {
                    ptr
                }
            }
        };
        if let Some(dst) = ret {
            self.set(dst, result);
        }
        Ok(())
    }
}

impl Interp<'_> {
    /// Calls function `func_idx` with `args` — the external entry point.
    /// Typed [`Value`]s convert to untagged slots here and back at the
    /// end; the interior never sees a tag. The template's two tables are
    /// cloned here, once, and borrowed by everything below: the only
    /// shared reference counts an invocation touches.
    pub(crate) fn call_function_reg(
        &mut self,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.check_entry(func_idx, args)?;
        let pre = &self.store.instances[self.inst].pre;
        let (types, funcs) = (Arc::clone(&pre.types), Arc::clone(&pre.funcs));
        let ty = &funcs[func_idx as usize].ty;
        let arg_slots: Vec<u64> = args.iter().map(|v| v.to_slot()).collect();
        let mut results: Vec<u64> = Vec::with_capacity(ty.results.len());
        let result = self.run_reg(&types, &funcs, func_idx, &arg_slots, &mut results);
        self.flush_accounting();
        result?;
        debug_assert_eq!(results.len(), ty.results.len(), "validated result arity");
        Ok(ty
            .results
            .iter()
            .zip(&results)
            .map(|(ty, raw)| Value::from_slot(*ty, *raw))
            .collect())
    }

    /// The dispatch loop: executes function `func_idx` (and everything it
    /// calls) to completion on one growing register-file arena.
    ///
    /// Each dispatch is one integer add (the op's packed recipe onto the
    /// running sum `acc`, a local that no arm's straight path stores), one
    /// test of the lanes' guard bits, and one jump-table `match`. `acc` is
    /// emptied into the counts when a guard bit is set, before a host
    /// call (so the instance's counts are complete whenever foreign code
    /// runs), and after the loop, which every arm leaves the same way — a
    /// `break` with the result, a trap included. A [`RegOp::Sys`] arm adds
    /// to the instance's counts directly, around a sum still in flight:
    /// integer counts commute. Control flow never recurses: a call
    /// pushes a [`RegFrame`] and continues at pc 0 of the callee, so host
    /// stack usage is constant in both guest nesting depth and guest call
    /// depth (the latter bounded by `max_call_depth`). Fuel is consumed in
    /// the arms that transfer control (a taken branch, a guest call, a
    /// return) and nowhere else: the check stays off the straight-line
    /// fall-through path, off host calls and off the cycle model.
    fn run_reg(
        &mut self,
        types: &[Arc<FuncType>],
        funcs: &[CompiledFunc],
        func_idx: u32,
        args: &[u64],
        results: &mut Vec<u64>,
    ) -> Result<(), Trap> {
        if self.depth >= self.max_depth {
            return Err(Trap::CallStackExhausted);
        }
        self.depth += 1;
        let func = &funcs[func_idx as usize];
        if func.is_host {
            // Host entry points have no register code: `call_host`
            // replaces the staged arguments with the results in place.
            results.extend_from_slice(args);
            let result = self.call_host(func_idx, func, results);
            self.depth -= 1;
            return result;
        }
        let mut regs: Vec<u64> = vec![0; func.reg.frame_size as usize];
        for (&slot, &v) in func.reg.param_slots.iter().zip(args) {
            regs[slot as usize] = v;
        }
        let mut st = RegState {
            it: self,
            funcs,
            types,
            regs,
            frames: Vec::with_capacity(8),
            func: func_idx,
            base: 0,
            scratch: Vec::with_capacity(8),
            mem_m64: false,
            mem_size: 0,
            mem_fast: false,
        };
        st.refresh_mem();
        let mut code = &func.reg;
        let mut pc: usize = 0;
        let mut acc: u64 = 0;
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
                st.it.spill(acc);
                acc = 0;
            }};
        }
        // A control transfer within the current function: the preemption
        // point, then the jump.
        macro_rules! jump {
            ($target:expr) => {{
                tri!(st.it.consume_fuel());
                pc = $target as usize;
                continue;
            }};
        }
        // A call to function `$idx`: a guest callee becomes the running
        // code, a host callee has run when `do_call` returns.
        macro_rules! call {
            ($idx:expr, $call:expr) => {{
                let idx = $idx;
                if st.funcs[idx as usize].is_host {
                    spill!();
                }
                if let Some(callee) = tri!(st.do_call(idx, &$call.args, &$call.rets, pc)) {
                    tri!(st.it.consume_fuel());
                    code = callee;
                    pc = 0;
                    continue;
                }
            }};
        }
        let result = loop {
            // Charge the op before its body: a trap inside the body leaves
            // exactly the charges the unfused source sequence would have.
            acc += code.packed[pc];
            if acc & LANE_GUARD != 0 {
                spill!();
            }
            match &code.ops[pc] {
                RegOp::Nop => {}
                &RegOp::Jump(target) => jump!(target),
                &RegOp::BrIf { cond, target } => {
                    if get_i32(st.get(cond)) != 0 {
                        jump!(target);
                    }
                }
                &RegOp::BrIfZ { cond, target } => {
                    if get_i32(st.get(cond)) == 0 {
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
                    if (get_i32(op.eval(st.get(a), st.get(b))) != 0) != negate {
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
                    if (get_i32(op.eval(st.get(a), k)) != 0) != negate {
                        jump!(target);
                    }
                }
                RegOp::BrTable { sel, targets } => {
                    let i = get_i32(st.get(*sel)) as usize;
                    let target = *targets
                        .get(i)
                        .unwrap_or_else(|| targets.last().expect("br_table has a default"));
                    jump!(target);
                }
                RegOp::Ret { srcs } => {
                    let resumed = st.do_return(srcs);
                    tri!(st.it.consume_fuel());
                    let Some((caller, ret_pc)) = resumed else {
                        results.extend(srcs.iter().map(|&s| st.get(s)));
                        break Ok(());
                    };
                    code = caller;
                    pc = ret_pc;
                    continue;
                }
                RegOp::Call(call) => call!(call.func, call),
                RegOp::CallIndirect(call) => call!(tri!(st.resolve_indirect(call)), call),
                &RegOp::Move { dst, src } => st.set(dst, st.get(src)),
                &RegOp::Const { dst, v } => st.set(dst, v),
                &RegOp::Alu { op, dst, a, b } => st.set(dst, op.eval(st.get(a), st.get(b))),
                &RegOp::AluImm { op, dst, a, k } => st.set(dst, op.eval(st.get(a), k)),
                &RegOp::Div { op, dst, a, b } => {
                    let v = tri!(op.eval(st.get(a), st.get(b)));
                    st.set(dst, v);
                }
                &RegOp::Una { op, dst, a } => {
                    let v = tri!(op.eval(st.get(a)));
                    st.set(dst, v);
                }
                &RegOp::IndexAdd {
                    dst,
                    base,
                    idx,
                    ext,
                    k,
                } => {
                    let scaled = AluOp::I64Mul.eval(ext.eval(st.get(idx)), k);
                    st.set(dst, AluOp::I64Add.eval(st.get(base), scaled));
                }
                &RegOp::Select { dst, cond, a, b } => {
                    let v = if get_i32(st.get(cond)) != 0 {
                        st.get(a)
                    } else {
                        st.get(b)
                    };
                    st.set(dst, v);
                }
                &RegOp::Load {
                    op,
                    offset,
                    dst,
                    addr,
                } => {
                    let v = tri!(st.load_scalar(op, st.get(addr), offset));
                    st.set(dst, v);
                }
                &RegOp::Store {
                    op,
                    offset,
                    addr,
                    val,
                } => tri!(st.store_scalar(op, st.get(addr), offset, st.get(val))),
                &RegOp::Sys { op, args, ret, imm } => tri!(st.sys(op, args, ret, imm)),
            }
            pc += 1;
        };
        st.it.spill(acc);
        result
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
        // In-bounds, overflow in index+offset, and end-past-size all
        // produce the same traps `resolve()` would.
        assert_eq!(fast_addr(16, 8, 4, true, 4096), Ok(24));
        // memory64 masks the tag bits out of the index.
        assert_eq!(fast_addr((7 << 56) | 16, 0, 4, true, 4096), Ok(16));
        // wasm32 indices arrive zero-extended: no masking.
        assert!(matches!(
            fast_addr(u64::MAX, 1, 4, false, 4096),
            Err(Trap::OutOfBounds {
                addr: u64::MAX,
                len: 4
            })
        ));
        assert!(matches!(
            fast_addr(4093, 0, 4, true, 4096),
            Err(Trap::OutOfBounds { addr: 4093, len: 4 })
        ));
        // addr + width overflow is out of bounds, not a wrap.
        assert!(matches!(
            fast_addr(ADDR_MASK, 0, 8, false, 4096),
            Err(Trap::OutOfBounds { .. })
        ));
    }
}
