//! # cage-serve — multi-tenant serving: templates, pooling, fuel
//!
//! The throughput layer over `cage-engine`/`cage-runtime`, shaped like
//! wasmtime's serving stack: thousands of concurrent sandboxes handling
//! traffic instead of one instance handling one invoke. Three pieces:
//!
//! * [`InstancePre`] — a pre-validated, pre-compiled, pre-linked
//!   instance template. Compilation and link resolution run once; the
//!   template is `Send + Sync`, so worker threads stamp instances out of
//!   one shared `Arc<InstancePre>`.
//! * [`Pool`] — a per-worker pooling allocator. Released instance slots
//!   are recycled by an O(pages-touched) reset (dirty-page list kept by
//!   the engine's `LinearMemory`) instead of a fresh instantiation, so
//!   steady-state checkout does no allocation and no re-tagging of
//!   untouched memory.
//! * fuel preemption — an optional per-checkout fuel budget
//!   ([`Pool::set_fuel_budget`]) decremented at the dispatch loop's
//!   charge-free control transitions, trapping with
//!   `Trap::FuelExhausted` so one guest cannot starve the pool.
//!
//! Plus the robustness layer, for hostile or faulty tenants:
//!
//! * epoch preemption — a shared epoch counter ticked by an
//!   [`EpochTicker`] thread; each checkout is armed with a deadline
//!   ([`Pool::set_epoch_budget`]) and traps with `Trap::EpochInterrupt`
//!   at the same charge-free preemption points fuel uses, bounding a
//!   guest in *wall-clock* terms even where fuel would count slowly.
//! * resource limits — a per-instance [`InstanceLimits`] policy
//!   ([`Pool::set_limits`]: memory pages, table elements, call depth)
//!   plus a slot cap ([`Pool::set_max_slots`]); a saturated pool refuses
//!   checkout with [`ServeError::Exhausted`] instead of growing forever.
//! * poison quarantine — a host-function panic is caught at the engine's
//!   dispatch boundary as `Trap::HostPanic` and poisons the slot; a
//!   poisoned or reset-failed slot is quarantined (never recycled),
//!   counted in [`PoolMetrics::quarantined`], and replaced lazily.
//! * fault injection — a seeded [`FaultPlan`] drives the chaos harness
//!   (the `chaos` suite, `serve_load --chaos`), proving every failure
//!   path returns the pool to a state bit-identical to fresh
//!   instantiation or retires the slot.
//!
//! Host state is described by a [`HostProfile`] rather than a
//! [`Linker`]: linkers hold `Rc`-shared closures and cannot cross
//! threads, so the template carries a thread-safe *recipe* and each pool
//! builds its worker-local linker from it.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use cage_engine::Value;
//! use cage_mte::Core;
//! use cage_runtime::Variant;
//! use cage_serve::{HostProfile, InstancePre, Pool};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Lower a tiny module through the toolchain.
//! let ir = {
//!     let mut b = cage_ir::FunctionBuilder::new("answer", &[], Some(cage_ir::IrType::I64));
//!     b.set_exported(true);
//!     b.stmt(cage_ir::Stmt::Return(Some(cage_ir::Operand::ConstI64(42))));
//!     let mut m = cage_ir::IrModule::new();
//!     m.functions.push(b.finish());
//!     m
//! };
//! let lowered = cage_ir::lower(&ir, &cage_ir::LowerOptions::default())?;
//!
//! let pre = Arc::new(InstancePre::new(
//!     Variant::BaselineWasm64,
//!     Core::CortexX3,
//!     &lowered.module,
//!     lowered.heap_base,
//!     HostProfile::Libc,
//! )?);
//! let mut pool = Pool::new(pre);
//! let inst = pool.checkout()?;
//! assert_eq!(pool.invoke(&inst, "answer", &[])?, vec![Value::I64(42)]);
//! pool.release(inst);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cage_engine::store::InstantiateError;
use cage_engine::trap::panic_message;
use cage_engine::{InstanceHandle, InstanceLimits, Precompiled, Store, Trap, Value};
use cage_libc::Libc;
use cage_mte::Core;
use cage_runtime::{Linker, PoolMetrics, Variant};
use cage_wasm::{CompileLimits, LimitError, Module};

mod chaos;

pub use chaos::{Fault, FaultPlan};

/// The host surface an [`InstancePre`] stamps instances against.
///
/// A [`Linker`] itself is not `Send` (host closures share state behind
/// `Rc`), so the template stores this thread-safe recipe instead; each
/// [`Pool`] materialises a worker-local linker from it once.
#[derive(Clone)]
pub enum HostProfile {
    /// No host imports at all.
    Empty,
    /// The hardened libc, created fresh for every pool slot (allocator
    /// and captured stdout are per-instance state).
    Libc,
    /// An embedder-defined linker configuration: the closure runs once
    /// per pool against an empty linker (swap in [`Linker::with_libc`]
    /// inside it to layer custom functions over libc).
    Custom(Arc<dyn Fn(&mut Linker) + Send + Sync>),
}

impl fmt::Debug for HostProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostProfile::Empty => f.write_str("Empty"),
            HostProfile::Libc => f.write_str("Libc"),
            HostProfile::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

impl HostProfile {
    /// Builds the worker-local linker this profile describes.
    fn build_linker(&self) -> Linker {
        match self {
            HostProfile::Empty => Linker::new(),
            HostProfile::Libc => Linker::with_libc(),
            HostProfile::Custom(configure) => {
                let mut linker = Linker::new();
                configure(&mut linker);
                linker
            }
        }
    }
}

/// Serving-layer errors: instantiation failures, guest traps (a
/// recycled slot's start function can trap during reset), and graceful
/// degradation when a capped pool is saturated.
#[derive(Debug)]
pub enum ServeError {
    /// Stamping an instance out of the template failed.
    Instantiate(InstantiateError),
    /// A guest trap during checkout (start-function re-run on reset).
    Trap(Trap),
    /// Every healthy slot the pool may hold is checked out — it is at its
    /// slot cap ([`Pool::set_max_slots`]) or its store has no sandbox tag
    /// left (see [`Pool`]): shed this request (retry, or route to another
    /// worker) instead of growing without bound.
    Exhausted {
        /// The number of healthy slots that was hit.
        capacity: usize,
    },
    /// The module exceeded a compile limit at template-build time — too
    /// big or too deep to ingest under the serving tier's
    /// [`CompileLimits`]. The tenant's module is refused, not the server
    /// degraded; count it with [`Pool::record_rejection`].
    Rejected(LimitError),
    /// A compile stage panicked while building the template. The panic
    /// was caught at the [`InstancePre`] boundary (the worker is fine)
    /// and counted in [`compile_panic_count`]; the module is refused.
    CompilePanic(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Instantiate(e) => write!(f, "{e}"),
            ServeError::Trap(t) => write!(f, "{t}"),
            ServeError::Exhausted { capacity } => {
                write!(f, "pool exhausted: all {capacity} slots in use")
            }
            ServeError::Rejected(l) => write!(f, "module rejected: {l}"),
            ServeError::CompilePanic(msg) => {
                write!(f, "internal compiler panic (caught): {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<InstantiateError> for ServeError {
    fn from(e: InstantiateError) -> Self {
        match e {
            InstantiateError::CompileLimit(l) => ServeError::Rejected(l),
            other => ServeError::Instantiate(other),
        }
    }
}

impl From<Trap> for ServeError {
    fn from(t: Trap) -> Self {
        ServeError::Trap(t)
    }
}

/// A pre-validated, pre-compiled, pre-linked instance template.
///
/// Building one runs validation and bytecode compilation exactly
/// once; every instance stamped from it shares the compiled functions
/// behind `Arc`s. The template is `Send + Sync` — clone an
/// `Arc<InstancePre>` into each worker thread and give it to that
/// worker's [`Pool`].
#[derive(Debug, Clone)]
pub struct InstancePre {
    pre: Precompiled,
    heap_base: u64,
    variant: Variant,
    core: Core,
    host: HostProfile,
}

/// Compile stages that panicked while building an [`InstancePre`] and
/// were caught at the template boundary (each one is a toolchain bug —
/// the pipeline is supposed to reject every input with a structured
/// error).
static TEMPLATE_COMPILE_PANICS: AtomicU64 = AtomicU64::new(0);

/// How many template builds have ever panicked inside a compile stage
/// (and been converted to [`ServeError::CompilePanic`]). Process-wide,
/// monotonic — a serving fleet alerts on any increase.
#[must_use]
pub fn compile_panic_count() -> u64 {
    TEMPLATE_COMPILE_PANICS.load(Ordering::Relaxed)
}

impl InstancePre {
    /// Compiles `module` once into a template for `variant` on `core`,
    /// under the default (generous) [`CompileLimits`].
    ///
    /// `heap_base` is where the hardened libc's allocator starts (the
    /// module's `__heap_base`); it is ignored for [`HostProfile::Empty`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the module exceeds a compile limit,
    /// [`ServeError::Instantiate`] when it fails validation, and
    /// [`ServeError::CompilePanic`] if a compile stage panicked (caught
    /// here — the worker survives).
    pub fn new(
        variant: Variant,
        core: Core,
        module: &Module,
        heap_base: u64,
        host: HostProfile,
    ) -> Result<Self, ServeError> {
        Self::with_limits(
            variant,
            core,
            module,
            heap_base,
            host,
            &CompileLimits::default(),
        )
    }

    /// Like [`InstancePre::new`] with an explicit per-tenant limit
    /// policy — e.g. a tighter tier for anonymous uploads.
    ///
    /// # Errors
    ///
    /// As [`InstancePre::new`].
    pub fn with_limits(
        variant: Variant,
        core: Core,
        module: &Module,
        heap_base: u64,
        host: HostProfile,
        limits: &CompileLimits,
    ) -> Result<Self, ServeError> {
        // Validation and bytecode compilation both run here, on a
        // tenant-supplied module: a residual panic in either must take
        // down this template build, not the worker thread.
        let pre = match catch_unwind(AssertUnwindSafe(|| {
            Precompiled::with_limits(module, limits)
        })) {
            Ok(result) => result?,
            Err(payload) => {
                TEMPLATE_COMPILE_PANICS.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::CompilePanic(panic_message(&*payload)));
            }
        };
        Ok(Self::from_precompiled(variant, core, pre, heap_base, host))
    }

    /// A template over an already compiled module — nothing is validated
    /// or lowered here, so nothing can be rejected or panic. The caller
    /// vouches that `pre` was compiled for `variant`.
    #[must_use]
    pub fn from_precompiled(
        variant: Variant,
        core: Core,
        pre: Precompiled,
        heap_base: u64,
        host: HostProfile,
    ) -> Self {
        InstancePre {
            pre,
            heap_base,
            variant,
            core,
            host,
        }
    }

    /// The template's module.
    #[must_use]
    pub fn module(&self) -> &Module {
        self.pre.module()
    }

    /// The Table 3 variant instances run under.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The simulated core.
    #[must_use]
    pub fn core(&self) -> Core {
        self.core
    }

    /// First heap byte for per-slot libcs.
    #[must_use]
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }
}

/// One instance slot of a [`Pool`].
struct Slot {
    handle: InstanceHandle,
    libc: Option<Libc>,
    /// Set when a host function panicked inside this slot, or its reset
    /// failed: the slot's state can no longer be trusted, so it is
    /// quarantined (never re-enters the free list) and replaced lazily
    /// by the cold instantiation path.
    poisoned: bool,
}

/// A checked-out instance of a [`Pool`] — a token, valid only against
/// the pool that issued it. Return it with [`Pool::release`] so the slot
/// can be recycled.
#[derive(Debug)]
pub struct PooledInstance {
    slot: usize,
}

impl PooledInstance {
    /// The slot index inside the owning pool (stable across recycling).
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }
}

/// A per-worker pooling allocator over one engine [`Store`].
///
/// `checkout` prefers recycling a released slot — an O(pages-touched)
/// [`Store::reset_instance`] plus a libc rewind — over stamping a new
/// instance; steady state therefore allocates nothing. A pool lives on
/// one thread (host closures and the store are single-threaded); the
/// shared, thread-safe object is the [`InstancePre`].
///
/// The variant bounds how many slots can be live at once, because a
/// sandbox tag is a resource of the store (§6.4): a `CageSandboxing` pool
/// holds at most 15 checked-out instances, and a `CageFull` pool is *one
/// sandbox per worker store* — the paper's combined mode spends the tag
/// bits on memory safety inside the one sandbox, so such a pool is a
/// single slot and concurrency comes from more workers, not more slots.
/// Past that bound a checkout is shed with [`ServeError::Exhausted`]
/// carrying the bound, exactly as at a [`Pool::set_max_slots`] cap; a
/// quarantined slot returns its tag, so poisoned capacity is replaced.
pub struct Pool {
    pre: Arc<InstancePre>,
    store: Store,
    linker: Linker,
    slots: Vec<Slot>,
    free: Vec<usize>,
    fuel_budget: Option<u64>,
    /// Epoch ticks granted per checkout (`None` = no epoch deadline).
    epoch_budget: Option<u64>,
    /// Cap on non-quarantined slots (`None` = unbounded).
    max_slots: Option<usize>,
    /// Slots currently checked out (the leak detector's ledger).
    outstanding: usize,
    /// Slots permanently retired.
    quarantined: usize,
    metrics: PoolMetrics,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("variant", &self.pre.variant)
            .field("slots", &self.slots.len())
            .field("free", &self.free.len())
            .field("outstanding", &self.outstanding)
            .field("quarantined", &self.quarantined)
            .finish()
    }
}

impl Pool {
    /// A pool stamping instances from `pre`, with no fuel budget.
    #[must_use]
    pub fn new(pre: Arc<InstancePre>) -> Self {
        let linker = pre.host.build_linker();
        Pool {
            store: Store::new(pre.variant.exec_config(pre.core)),
            linker,
            pre,
            slots: Vec::new(),
            free: Vec::new(),
            fuel_budget: None,
            epoch_budget: None,
            max_slots: None,
            outstanding: 0,
            quarantined: 0,
            metrics: PoolMetrics::default(),
        }
    }

    /// Sets (or clears) the fuel budget granted to each checkout. Applies
    /// from the next [`Pool::checkout`] on; a budget of `n` permits `n`
    /// control transitions (branches taken, calls, returns) before the
    /// guest traps with `Trap::FuelExhausted`.
    pub fn set_fuel_budget(&mut self, fuel: Option<u64>) {
        self.fuel_budget = fuel;
    }

    /// Sets (or clears) the epoch budget granted to each checkout: the
    /// instance's deadline is armed at `current epoch + ticks`, so a
    /// guest traps with `Trap::EpochInterrupt` at its first preemption
    /// point after the shared counter has advanced that far. Pair with an
    /// [`EpochTicker`] (or tick the counter from [`Pool::epoch`] by
    /// hand) — with `ticks == 0` the deadline is already due, which is
    /// the deterministic case the tests pin.
    pub fn set_epoch_budget(&mut self, ticks: Option<u64>) {
        self.epoch_budget = ticks;
    }

    /// The shared epoch counter of this pool's store — hand it to an
    /// [`EpochTicker`] or tick it manually.
    #[must_use]
    pub fn epoch(&self) -> Arc<AtomicU64> {
        self.store.epoch()
    }

    /// Replaces this pool's epoch counter with a shared one, so a single
    /// ticker thread preempts guests across every worker's pool.
    pub fn share_epoch(&mut self, epoch: Arc<AtomicU64>) {
        self.store.set_epoch(epoch);
    }

    /// Caps the pool at `max` non-quarantined slots (`None` = unbounded).
    /// A checkout that finds every healthy slot busy returns
    /// [`ServeError::Exhausted`] instead of instantiating past the cap;
    /// quarantined slots do not count, so poisoned capacity is replaced.
    pub fn set_max_slots(&mut self, max: Option<usize>) {
        self.max_slots = max;
    }

    /// Applies a resource policy to every current slot and to all future
    /// cold instantiations (which then fail with
    /// `InstantiateError::LimitExceeded` if the module's initial memory
    /// or table already exceeds it).
    pub fn set_limits(&mut self, limits: InstanceLimits) {
        self.store.set_default_limits(limits);
        for slot in &self.slots {
            self.store.set_instance_limits(slot.handle, limits);
        }
    }

    /// Arms a slot for one served request: fresh fuel and, when an epoch
    /// budget is set, a deadline `ticks` past the current shared epoch.
    fn arm(&mut self, handle: InstanceHandle) {
        self.store.set_fuel(handle, self.fuel_budget);
        let deadline = self
            .epoch_budget
            .map(|ticks| self.store.current_epoch().saturating_add(ticks));
        self.store.set_epoch_deadline(handle, deadline);
    }

    /// Permanently retires a slot: it never re-enters the free list, its
    /// capacity no longer counts against the cap (so the cold path can
    /// replace it lazily), and the quarantine metric records it. The
    /// slot's linear memory is released now — the instance itself lives
    /// as long as the store, and a capped pool that keeps replacing
    /// poisoned capacity must not keep every dead tenant's memory too.
    fn quarantine(&mut self, slot: usize) {
        self.slots[slot].poisoned = true;
        self.store.drop_memory(self.slots[slot].handle);
        self.quarantined += 1;
        self.metrics.quarantined += 1;
    }

    /// Counts a shed checkout: every one of the `capacity` healthy slots
    /// the pool may hold is checked out.
    fn exhausted(&mut self, capacity: usize) -> ServeError {
        self.metrics.exhausted += 1;
        ServeError::Exhausted { capacity }
    }

    /// Checks an instance out: recycles a released slot when one exists
    /// (reset memory/globals/table, rewound libc, fresh fuel and epoch
    /// deadline), otherwise stamps a new instance from the template. A
    /// recycled slot whose reset fails is quarantined — not leaked — and
    /// the next candidate (or the cold path) serves instead.
    ///
    /// # Errors
    ///
    /// [`ServeError::Exhausted`] when every healthy slot the pool may hold
    /// is checked out — the slot cap, or the variant's sandbox tags (15
    /// under `CageSandboxing`, one under `CageFull`), whichever is hit
    /// first; [`ServeError::Instantiate`] on the cold path (e.g. a
    /// deterministically trapping start function).
    pub fn checkout(&mut self) -> Result<PooledInstance, ServeError> {
        while let Some(slot) = self.free.pop() {
            let handle = self.slots[slot].handle;
            match self.store.reset_instance(handle) {
                Ok(()) => {
                    if let Some(libc) = &self.slots[slot].libc {
                        libc.reset();
                    }
                    self.arm(handle);
                    self.metrics.resets += 1;
                    self.outstanding += 1;
                    return Ok(PooledInstance { slot });
                }
                // The slot was already popped off the free list; dropping
                // the error here used to leak it silently. Quarantine it
                // and keep looking — if the failure is deterministic (the
                // start function always traps), the cold path below
                // reports it as an instantiation error.
                Err(_) => self.quarantine(slot),
            }
        }
        if let Some(cap) = self.max_slots {
            if self.slots.len() - self.quarantined >= cap {
                return Err(self.exhausted(cap));
            }
        }
        let libc = if self.linker.provides_libc() {
            Some(if self.pre.module().is_memory64() {
                Libc::new(self.pre.heap_base)
            } else {
                Libc::new_wasm32(self.pre.heap_base)
            })
        } else {
            None
        };
        let imports = self.linker.build_imports(libc.as_ref());
        let handle = match self.store.instantiate_precompiled(&self.pre.pre, &imports) {
            Ok(handle) => handle,
            // The store has no sandbox tag left (§6.4). The free list is
            // empty here and a quarantined slot has returned its tag, so
            // every tag is under a healthy slot that is checked out: the
            // pool is saturated, at the capacity the variant gives it.
            Err(InstantiateError::TooManySandboxes) => {
                return Err(self.exhausted(self.slots.len() - self.quarantined));
            }
            Err(e) => return Err(e.into()),
        };
        self.arm(handle);
        self.metrics.instantiations += 1;
        self.slots.push(Slot {
            handle,
            libc,
            poisoned: false,
        });
        self.outstanding += 1;
        Ok(PooledInstance {
            slot: self.slots.len() - 1,
        })
    }

    /// Invokes an export on a checked-out instance.
    ///
    /// A `Trap::HostPanic` result (a host function panicked and was
    /// caught at the engine's dispatch boundary) poisons the slot: the
    /// host closure may have been left mid-mutation, so the slot is
    /// quarantined at release instead of recycled. Every other trap —
    /// including fuel/epoch preemption — leaves the slot healthy; the
    /// reset path restores it bit-identically.
    ///
    /// # Errors
    ///
    /// Guest traps, including `Trap::FuelExhausted` /
    /// `Trap::EpochInterrupt` when the checkout's budgets run out.
    pub fn invoke(
        &mut self,
        inst: &PooledInstance,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        self.metrics.invocations += 1;
        let result = self.store.invoke(self.slots[inst.slot].handle, name, args);
        if matches!(result, Err(Trap::HostPanic(_))) {
            self.slots[inst.slot].poisoned = true;
        }
        result
    }

    /// Whether a checked-out instance has been poisoned by a host panic
    /// (it will be quarantined, not recycled, on release).
    #[must_use]
    pub fn is_poisoned(&self, inst: &PooledInstance) -> bool {
        self.slots[inst.slot].poisoned
    }

    /// Returns an instance to the pool. Its counters are folded into the
    /// pool totals now; a healthy slot rejoins the free list (the
    /// expensive state reset is deferred to the next [`Pool::checkout`]
    /// that recycles it), a poisoned one is quarantined.
    pub fn release(&mut self, inst: PooledInstance) {
        let handle = self.slots[inst.slot].handle;
        self.metrics.absorb_instance(
            &self.store.charge_counts(handle),
            self.store.fuel_consumed(handle),
        );
        self.outstanding -= 1;
        if self.slots[inst.slot].poisoned {
            self.quarantine(inst.slot);
        } else {
            self.free.push(inst.slot);
        }
    }

    /// Captured `print_*` output of a checked-out instance.
    #[must_use]
    pub fn stdout(&self, inst: &PooledInstance) -> String {
        self.slots[inst.slot]
            .libc
            .as_ref()
            .map(Libc::stdout)
            .unwrap_or_default()
    }

    /// Remaining fuel of a checked-out instance (`None` = unlimited).
    #[must_use]
    pub fn fuel_remaining(&self, inst: &PooledInstance) -> Option<u64> {
        self.store.fuel_remaining(self.slots[inst.slot].handle)
    }

    /// Modeled cycle counter of a checked-out instance. Zeroed by the
    /// recycle reset, so the chaos suite can compare a recycled slot's
    /// probe against a fresh pool's bit-for-bit.
    #[must_use]
    pub fn cycles(&self, inst: &PooledInstance) -> f64 {
        self.store.cycles(self.slots[inst.slot].handle)
    }

    /// Retired-instruction count of a checked-out instance (zeroed by the
    /// recycle reset, like [`Pool::cycles`]).
    #[must_use]
    pub fn instr_count(&self, inst: &PooledInstance) -> u64 {
        self.store.instr_count(self.slots[inst.slot].handle)
    }

    /// Instance slots ever created (recycled slots count once,
    /// quarantined slots still count).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots currently checked out.
    #[must_use]
    pub fn live(&self) -> usize {
        self.outstanding
    }

    /// Slots currently checked out and not yet released — the leak
    /// detector's ledger: a nonzero value at pool drop means
    /// [`PooledInstance`]s were forgotten, which trips a debug assertion
    /// and the [`PoolMetrics::leaked`] counter.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Slots permanently retired by host panics or failed resets.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantined
    }

    /// Host bytes of linear memory this pool's slots actually back: the
    /// sum of [`cage_engine::LinearMemory::committed_bytes`] over every
    /// slot that is not quarantined (those have released theirs).
    /// Host-side, and it varies with what the tenants touched — the
    /// *modelled* footprint of §7.3 is `resident_bytes`, which does not.
    #[must_use]
    pub fn committed_bytes(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|slot| self.store.memory(slot.handle))
            .map(cage_engine::LinearMemory::committed_bytes)
            .sum()
    }

    /// Records a module refused at template-build time
    /// ([`ServeError::Rejected`] / [`ServeError::CompilePanic`] from
    /// [`InstancePre::new`]) in this pool's metrics, so per-worker
    /// rejection counts merge into the fleet totals alongside
    /// `exhausted` and `quarantined`.
    pub fn record_rejection(&mut self) {
        self.metrics.rejected += 1;
    }

    /// Snapshot of the pool totals, with `cycles` and `instr_count`
    /// derived from the accumulated counts here, on read.
    #[must_use]
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            cycles: self.store.price(&self.metrics.counts),
            instr_count: self.metrics.counts.instr_count(),
            ..self.metrics
        }
    }

    /// The template this pool serves.
    #[must_use]
    pub fn instance_pre(&self) -> &InstancePre {
        &self.pre
    }

    /// The underlying engine store (advanced embedding, tests).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl Drop for Pool {
    /// The leak detector: dropping a pool with instances still checked
    /// out means [`PooledInstance`] tokens were forgotten — their slots
    /// were never recycled *or* quarantined, so under a slot cap the
    /// capacity is gone for good. Tallied in [`PoolMetrics::leaked`] and,
    /// in debug builds, a hard failure (suppressed while already
    /// panicking, so a failing test reports its own error).
    fn drop(&mut self) {
        if self.outstanding > 0 {
            self.metrics.leaked += self.outstanding as u64;
            if !thread::panicking() {
                debug_assert_eq!(
                    self.outstanding, 0,
                    "pool dropped with {} instance(s) still checked out",
                    self.outstanding
                );
            }
        }
    }
}

/// A background thread that ticks a shared epoch counter at a fixed
/// interval — the wall-clock pulse behind epoch preemption. Give every
/// worker pool the same counter ([`Pool::share_epoch`]) and one ticker
/// bounds guests across all of them. The thread stops (and is joined)
/// when the ticker is dropped; worst-case drop latency is one interval.
#[derive(Debug)]
pub struct EpochTicker {
    epoch: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl EpochTicker {
    /// Spawns a ticker over a fresh counter starting at zero.
    #[must_use]
    pub fn new(interval: Duration) -> Self {
        Self::over(Arc::new(AtomicU64::new(0)), interval)
    }

    /// Spawns a ticker over an existing shared counter (e.g. one taken
    /// from [`Pool::epoch`]).
    #[must_use]
    pub fn over(epoch: Arc<AtomicU64>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let epoch = Arc::clone(&epoch);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    thread::sleep(interval);
                    epoch.fetch_add(1, Ordering::Relaxed);
                }
            })
        };
        EpochTicker {
            epoch,
            stop,
            thread: Some(thread),
        }
    }

    /// The counter this ticker advances.
    #[must_use]
    pub fn epoch(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }
}

impl Drop for EpochTicker {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_ir::passes::run_pipeline;
    use cage_ir::{lower, LowerOptions};

    fn template(source: &str, variant: Variant, host: HostProfile) -> Arc<InstancePre> {
        template_of_pages(source, variant, host, LowerOptions::default().memory_pages)
    }

    fn template_of_pages(
        source: &str,
        variant: Variant,
        host: HostProfile,
        memory_pages: u64,
    ) -> Arc<InstancePre> {
        let mut ir = cage_cc::compile(source).expect("compiles");
        run_pipeline(&mut ir, variant.harden_config());
        let opts = LowerOptions {
            ptr_width: variant.ptr_width(),
            memory_pages,
            ..LowerOptions::default()
        };
        let lowered = lower(&ir, &opts).expect("lowers");
        Arc::new(
            InstancePre::new(
                variant,
                Core::CortexX3,
                &lowered.module,
                lowered.heap_base,
                host,
            )
            .expect("validates"),
        )
    }

    const COUNTER: &str = r#"
        long counter = 0;
        long bump(long by) {
            counter = counter + by;
            return counter;
        }
    "#;

    #[test]
    fn recycled_slots_start_from_scratch() {
        let pre = template(COUNTER, Variant::BaselineWasm64, HostProfile::Libc);
        let mut pool = Pool::new(pre);
        let a = pool.checkout().unwrap();
        assert_eq!(
            pool.invoke(&a, "bump", &[Value::I64(5)]).unwrap()[0].as_i64(),
            5
        );
        assert_eq!(
            pool.invoke(&a, "bump", &[Value::I64(5)]).unwrap()[0].as_i64(),
            10
        );
        pool.release(a);
        // The recycled slot sees pristine globals and memory again.
        let b = pool.checkout().unwrap();
        assert_eq!(
            pool.invoke(&b, "bump", &[Value::I64(5)]).unwrap()[0].as_i64(),
            5
        );
        let m = pool.metrics();
        assert_eq!((m.instantiations, m.resets, m.invocations), (1, 1, 3));
        assert_eq!(pool.capacity(), 1, "one slot served both checkouts");
        pool.release(b);
    }

    #[test]
    fn pool_totals_are_counts_priced_on_read_whatever_the_release_order() {
        // Three instances with unlike amounts of work (memory traffic,
        // libc host calls, a division), released in two different orders
        // by two pools of one template: the totals are the same to the
        // bit, and `cycles`/`instr_count` are what the accumulated counts
        // come to under the pool's cost model.
        let pre = template(
            r#"
            long work(long n) {
                char* p = malloc(64);
                long acc = 0;
                for (long i = 0; i < n; i++) {
                    p[i % 64] = i;
                    acc = acc + p[i % 64] / 3;
                }
                free(p);
                return acc;
            }
            "#,
            Variant::CageMemSafety,
            HostProfile::Libc,
        );
        let totals = |order: [usize; 3]| {
            let mut pool = Pool::new(Arc::clone(&pre));
            let mut held: Vec<_> = (0..3).map(|_| Some(pool.checkout().unwrap())).collect();
            for (inst, n) in held.iter().zip([7, 1_000, 33]) {
                let inst = inst.as_ref().expect("held");
                pool.invoke(inst, "work", &[Value::I64(n)]).unwrap();
            }
            for i in order {
                pool.release(held[i].take().expect("released once"));
            }
            let m = pool.metrics();
            assert_eq!(m.cycles, pool.store().price(&m.counts));
            assert_eq!(m.instr_count, m.counts.instr_count());
            m
        };
        let m = totals([0, 1, 2]);
        assert_eq!(m, totals([2, 0, 1]));
        assert_eq!(m, totals([1, 2, 0]));
        assert!(m.instr_count > 10_000 && m.cycles > 0.0, "{m:?}");
        // Merged snapshots add up, derived fields included.
        let mut fleet = m;
        fleet.merge(&m);
        assert_eq!(fleet.instr_count, 2 * m.instr_count);
        assert_eq!(fleet.counts.instr_count(), fleet.instr_count);
    }

    #[test]
    fn pool_grows_past_live_checkouts_and_shares_compilation() {
        let pre = template(COUNTER, Variant::CagePtrAuth, HostProfile::Libc);
        let mut pool = Pool::new(Arc::clone(&pre));
        let held: Vec<_> = (0..8).map(|_| pool.checkout().unwrap()).collect();
        assert_eq!(pool.live(), 8);
        for inst in &held {
            assert_eq!(
                pool.invoke(inst, "bump", &[Value::I64(2)]).unwrap()[0].as_i64(),
                2
            );
        }
        for inst in held {
            pool.release(inst);
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.capacity(), 8);
        // Another pool on the same template: no recompilation needed.
        let mut other = Pool::new(pre);
        let inst = other.checkout().unwrap();
        assert_eq!(
            other.invoke(&inst, "bump", &[Value::I64(3)]).unwrap()[0].as_i64(),
            3
        );
        other.release(inst);
    }

    #[test]
    fn fuel_budget_preempts_runaway_guests() {
        let pre = template(
            "long spin(long n) { long acc = 0; while (1) { acc = acc + n; } return acc; }",
            Variant::BaselineWasm64,
            HostProfile::Libc,
        );
        let mut pool = Pool::new(pre);
        pool.set_fuel_budget(Some(10_000));
        let inst = pool.checkout().unwrap();
        let err = pool.invoke(&inst, "spin", &[Value::I64(1)]).unwrap_err();
        assert!(matches!(err, Trap::FuelExhausted), "{err}");
        assert_eq!(pool.fuel_remaining(&inst), Some(0));
        pool.release(inst);
        // The trap poisons nothing: the recycled slot serves again, and a
        // cleared budget lets finite work complete.
        pool.set_fuel_budget(None);
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.fuel_remaining(&inst), None);
        let m = pool.metrics();
        assert!(m.fuel_consumed >= 10_000, "{}", m.fuel_consumed);
        pool.release(inst);
    }

    #[test]
    fn libc_state_resets_with_the_slot() {
        let pre = template(
            r#"
            long greet(long n) {
                char* p = malloc(32);
                p[0] = 'h';
                print_str("hi");
                long v = p[0];
                free(p);
                return v + n;
            }
            "#,
            Variant::CageFull,
            HostProfile::Libc,
        );
        let mut pool = Pool::new(pre);
        let a = pool.checkout().unwrap();
        pool.invoke(&a, "greet", &[Value::I64(0)]).unwrap();
        assert_eq!(pool.stdout(&a), "hi\n");
        pool.release(a);
        let b = pool.checkout().unwrap();
        assert_eq!(pool.stdout(&b), "", "stdout rewound with the slot");
        pool.invoke(&b, "greet", &[Value::I64(0)]).unwrap();
        assert_eq!(pool.stdout(&b), "hi\n");
        pool.release(b);
    }

    #[test]
    fn custom_profiles_rebuild_per_pool() {
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "seven", &[], &[ValType::I64], |_ctx, _args| {
                Ok(vec![Value::I64(7)])
            });
        }));
        let pre = template(
            "long seven(void); long f() { return seven() + 1; }",
            Variant::BaselineWasm64,
            profile,
        );
        let mut pool = Pool::new(pre);
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.invoke(&inst, "f", &[]).unwrap(), vec![Value::I64(8)]);
        pool.release(inst);
    }

    #[test]
    fn capped_pool_sheds_load_instead_of_growing() {
        let pre = template(COUNTER, Variant::BaselineWasm64, HostProfile::Libc);
        let mut pool = Pool::new(pre);
        pool.set_max_slots(Some(2));
        let a = pool.checkout().unwrap();
        let b = pool.checkout().unwrap();
        let err = pool.checkout().unwrap_err();
        assert!(
            matches!(err, ServeError::Exhausted { capacity: 2 }),
            "{err}"
        );
        assert_eq!(pool.metrics().exhausted, 1);
        // A release frees capacity again — the cap sheds, it doesn't wedge.
        pool.release(a);
        let c = pool.checkout().unwrap();
        assert_eq!(pool.capacity(), 2, "recycled, not grown");
        pool.release(b);
        pool.release(c);
    }

    #[test]
    fn host_panic_poisons_and_quarantines_the_slot() {
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "boom", &[], &[ValType::I64], |_ctx, _args| {
                panic!("injected host panic")
            });
        }));
        let pre = template(
            "long boom(void); long f() { return boom(); } long ok() { return 1; }",
            Variant::BaselineWasm64,
            profile,
        );
        let mut pool = Pool::new(pre);
        let inst = pool.checkout().unwrap();
        let err = pool.invoke(&inst, "f", &[]).unwrap_err();
        assert!(matches!(err, Trap::HostPanic(_)), "{err}");
        assert!(pool.is_poisoned(&inst));
        pool.release(inst);
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.metrics().quarantined, 1);
        // The quarantined slot is replaced lazily by a fresh instantiation,
        // and ordinary work proceeds.
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.invoke(&inst, "ok", &[]).unwrap(), vec![Value::I64(1)]);
        pool.release(inst);
        assert_eq!(pool.capacity(), 2, "fresh slot beside the quarantined one");
        assert_eq!(pool.metrics().instantiations, 2);
        assert_eq!(pool.metrics().resets, 0, "poisoned slot never recycled");
    }

    #[test]
    fn quarantined_slots_release_their_linear_memory() {
        // A capped pool replaces poisoned capacity; the instances it
        // retires live as long as its store. Their memories must not.
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "boom", &[], &[ValType::I64], |_ctx, _args| {
                panic!("injected host panic")
            });
        }));
        let pre = template(
            r#"
                long boom(void);
                long f() {
                    long* p = (long*)malloc(200000);
                    p[20000] = 1;
                    return boom();
                }
            "#,
            Variant::BaselineWasm64,
            profile,
        );
        let mut pool = Pool::new(pre);
        pool.set_max_slots(Some(1));
        let mut one_slot = 0;
        for round in 0..8 {
            let inst = pool.checkout().unwrap();
            let err = pool.invoke(&inst, "f", &[]).unwrap_err();
            assert!(matches!(err, Trap::HostPanic(_)), "{err}");
            let live = pool.committed_bytes();
            assert!(live >= 3 * 65_536, "the tenant touched page 2: {live}");
            one_slot = one_slot.max(live);
            assert_eq!(live, one_slot, "round {round}: one live slot, no more");
            pool.release(inst);
            assert_eq!(pool.committed_bytes(), 0, "round {round}");
        }
        assert_eq!(pool.quarantined(), 8);
        assert_eq!(pool.capacity(), 8);
    }

    #[test]
    fn a_sandboxed_pool_outlives_more_quarantines_than_there_are_sandbox_tags() {
        // §6.4 gives a store 15 sandbox tags. A quarantined slot drops its
        // memory, and with it the tag: twenty poisoned tenants later the
        // pool still serves, one live sandbox at a time.
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "boom", &[], &[ValType::I64], |_ctx, _args| {
                panic!("injected host panic")
            });
        }));
        let pre = template(
            r#"
                long boom(void);
                long f() {
                    long* p = (long*)malloc(200000);
                    p[20000] = 1;
                    return boom();
                }
                long g(long x) { return x + 1; }
            "#,
            Variant::CageSandboxing,
            profile,
        );
        let mut pool = Pool::new(pre);
        pool.set_max_slots(Some(1));
        for round in 0..20 {
            let inst = pool
                .checkout()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            let err = pool.invoke(&inst, "f", &[]).unwrap_err();
            assert!(matches!(err, Trap::HostPanic(_)), "{err}");
            pool.release(inst);
            assert_eq!(pool.committed_bytes(), 0, "round {round}");
        }
        assert_eq!(pool.quarantined(), 20);
        let inst = pool.checkout().unwrap();
        let out = pool.invoke(&inst, "g", &[Value::I64(41)]).unwrap();
        assert_eq!(out, vec![Value::I64(42)]);
        pool.release(inst);
        assert_eq!(pool.metrics().instantiations, 21);
    }

    #[test]
    fn the_sixteenth_concurrent_sandbox_is_shed_not_an_instantiate_error() {
        // §6.4: 15 sandbox tags per store. The pool's capacity under
        // `CageSandboxing` is read off the store's refusal, and the
        // refusal takes the load-shedding path of a capped pool.
        let pre = template(COUNTER, Variant::CageSandboxing, HostProfile::Libc);
        let mut pool = Pool::new(pre);
        let mut held: Vec<PooledInstance> = (0..15)
            .map(|n| pool.checkout().unwrap_or_else(|e| panic!("slot {n}: {e}")))
            .collect();
        let err = pool.checkout().unwrap_err();
        assert!(
            matches!(err, ServeError::Exhausted { capacity: 15 }),
            "{err}"
        );
        assert_eq!(pool.metrics().exhausted, 1);
        assert_eq!(pool.capacity(), 15, "the refused checkout made no slot");
        // Releasing one serves the next checkout from the free list.
        pool.release(held.pop().unwrap());
        let inst = pool.checkout().unwrap();
        assert_eq!(
            pool.invoke(&inst, "bump", &[Value::I64(1)]).unwrap(),
            vec![Value::I64(1)]
        );
        held.push(inst);
        assert_eq!(pool.metrics().instantiations, 15);
        assert_eq!(pool.metrics().exhausted, 1);
        held.into_iter().for_each(|inst| pool.release(inst));
    }

    #[test]
    fn a_combined_mode_pool_is_one_sandbox_per_worker_store() {
        // `CageFull` is §6.4's combined mode: one sandbox per store. The
        // second concurrent checkout is shed; the one slot recycles.
        let pre = template(COUNTER, Variant::CageFull, HostProfile::Libc);
        let mut pool = Pool::new(pre);
        let only = pool.checkout().unwrap();
        let err = pool.checkout().unwrap_err();
        assert!(
            matches!(err, ServeError::Exhausted { capacity: 1 }),
            "{err}"
        );
        assert_eq!(pool.metrics().exhausted, 1);
        assert_eq!(
            pool.invoke(&only, "bump", &[Value::I64(1)]).unwrap(),
            vec![Value::I64(1)]
        );
        pool.release(only);
        let again = pool.checkout().unwrap();
        assert_eq!(
            pool.invoke(&again, "bump", &[Value::I64(1)]).unwrap(),
            vec![Value::I64(1)]
        );
        pool.release(again);
        assert_eq!(pool.capacity(), 1, "recycled, not grown");
    }

    #[test]
    fn a_cold_checkout_commits_what_the_tenant_touches_not_what_the_module_declares() {
        // cage-bench's `handle` request, on the 64-page memory its engine
        // declares.
        const HANDLE: &str = r#"
            long handle(long req) {
                long n = 16 + (req % 16);
                long* buf = (long*)malloc(n * 8);
                long acc = 0;
                for (long i = 0; i < n; i++) {
                    buf[i] = req * 31 + i;
                }
                for (long i = 0; i < n; i++) {
                    acc = acc + buf[i];
                }
                free((char*)buf);
                return acc;
            }
        "#;
        const PAGE: u64 = 65_536;
        let pre = template_of_pages(HANDLE, Variant::CageMemSafety, HostProfile::Libc, 64);
        // Freshly instantiated: the pages under the data segments, if any.
        let under_data = pre
            .module()
            .data
            .iter()
            .map(|d| (d.offset + d.bytes.len() as u64).next_multiple_of(PAGE))
            .max()
            .unwrap_or(0);
        let mut pool = Pool::new(pre);
        let inst = pool.checkout().unwrap();
        let handle = pool.slots[inst.slot].handle;
        assert_eq!(pool.store().memory(handle).unwrap().size_pages(), 64);
        assert_eq!(pool.committed_bytes(), under_data);
        assert!(under_data <= PAGE, "{under_data}");

        let out = pool.invoke(&inst, "handle", &[Value::I64(7)]).unwrap();
        assert_eq!(out, vec![Value::I64((0..23).map(|i| 7 * 31 + i).sum())]);
        let touched = pool.committed_bytes();
        assert!((PAGE..=2 * PAGE).contains(&touched), "{touched}");

        // A recycle keeps the prefix (the slot stays warm) and empties the
        // dirty list; the next request commits nothing new.
        pool.release(inst);
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.metrics().resets, 1);
        assert_eq!(pool.committed_bytes(), touched);
        assert_eq!(pool.store().memory(handle).unwrap().dirty_page_count(), 0);
        pool.invoke(&inst, "handle", &[Value::I64(8)]).unwrap();
        assert_eq!(pool.committed_bytes(), touched);
        pool.release(inst);
    }

    #[test]
    fn ordinary_host_traps_do_not_poison() {
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "fail", &[], &[ValType::I64], |_ctx, _args| {
                Err(Trap::Host("ordinary failure".into()))
            });
        }));
        let pre = template(
            "long fail(void); long f() { return fail(); }",
            Variant::BaselineWasm64,
            profile,
        );
        let mut pool = Pool::new(pre);
        let inst = pool.checkout().unwrap();
        assert!(matches!(
            pool.invoke(&inst, "f", &[]).unwrap_err(),
            Trap::Host(_)
        ));
        assert!(!pool.is_poisoned(&inst));
        pool.release(inst);
        let inst = pool.checkout().unwrap();
        pool.release(inst);
        let m = pool.metrics();
        assert_eq!((m.quarantined, m.resets), (0, 1), "slot recycled normally");
    }

    #[test]
    fn wild_free_is_a_guest_trap_that_does_not_cost_the_slot() {
        // `free((char*)8)` used to index the host's backing store out of
        // range inside libc's host function: a `Trap::HostPanic`, so any
        // tenant could quarantine slots at will.
        const WILD: &str = r#"
            long run(long p) { free((char*)p); return 1; }
        "#;
        for variant in [Variant::CageFull, Variant::BaselineWasm64] {
            let mut pool = Pool::new(template(WILD, variant, HostProfile::Libc));
            for p in [8, 1 << 40] {
                let inst = pool.checkout().unwrap();
                match pool.invoke(&inst, "run", &[Value::I64(p)]) {
                    Ok(out) => assert!(!variant.provides_memory_safety(), "{variant}: {out:?}"),
                    Err(trap) => assert!(matches!(trap, Trap::Host(_)), "{variant}: {trap}"),
                }
                assert!(!pool.is_poisoned(&inst), "{variant}: free({p:#x})");
                pool.release(inst);
            }
            let m = pool.metrics();
            assert_eq!(
                (m.quarantined, m.instantiations, m.resets),
                (0, 1, 1),
                "{variant}: one slot served both requests"
            );
        }
    }

    #[test]
    fn epoch_deadline_already_due_preempts_at_first_transition() {
        let pre = template(
            "long spin(long n) { long acc = 0; while (1) { acc = acc + n; } return acc; }",
            Variant::BaselineWasm64,
            HostProfile::Libc,
        );
        let mut pool = Pool::new(pre);
        // Budget 0: the deadline equals the current epoch, so the very
        // first preemption point traps — deterministically, no ticker.
        pool.set_epoch_budget(Some(0));
        let inst = pool.checkout().unwrap();
        let err = pool.invoke(&inst, "spin", &[Value::I64(1)]).unwrap_err();
        assert!(matches!(err, Trap::EpochInterrupt), "{err}");
        assert!(!pool.is_poisoned(&inst), "preemption is not poison");
        pool.release(inst);
        // Clearing the budget lets the slot serve finite work again.
        pool.set_epoch_budget(None);
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.metrics().resets, 1, "preempted slot recycled");
        pool.release(inst);
    }

    #[test]
    fn epoch_ticker_preempts_runaway_guest_in_wall_clock() {
        let pre = template(
            "long spin(long n) { long acc = 0; while (1) { acc = acc + n; } return acc; }",
            Variant::BaselineWasm64,
            HostProfile::Libc,
        );
        let mut pool = Pool::new(pre);
        let _ticker = EpochTicker::over(pool.epoch(), Duration::from_millis(2));
        pool.set_epoch_budget(Some(2));
        let inst = pool.checkout().unwrap();
        // No fuel budget at all: only the wall-clock epoch can stop this
        // loop. ~4ms later, it must.
        let err = pool.invoke(&inst, "spin", &[Value::I64(1)]).unwrap_err();
        assert!(matches!(err, Trap::EpochInterrupt), "{err}");
        pool.release(inst);
    }

    #[test]
    fn limits_reject_oversized_modules_and_cap_call_depth() {
        let pre = template(
            "long rec(long n) { if (n <= 0) { return 0; } return rec(n - 1) + 1; }",
            Variant::BaselineWasm64,
            HostProfile::Libc,
        );
        let mut pool = Pool::new(Arc::clone(&pre));
        pool.set_limits(InstanceLimits {
            max_call_depth: Some(8),
            ..InstanceLimits::default()
        });
        let inst = pool.checkout().unwrap();
        assert_eq!(
            pool.invoke(&inst, "rec", &[Value::I64(3)]).unwrap(),
            vec![Value::I64(3)]
        );
        let err = pool.invoke(&inst, "rec", &[Value::I64(100)]).unwrap_err();
        assert!(matches!(err, Trap::CallStackExhausted), "{err}");
        pool.release(inst);

        // A policy the module's initial memory already violates refuses
        // instantiation outright.
        let mut tight = Pool::new(pre);
        tight.set_limits(InstanceLimits {
            max_memory_pages: Some(0),
            ..InstanceLimits::default()
        });
        let err = tight.checkout().unwrap_err();
        assert!(
            matches!(
                err,
                ServeError::Instantiate(InstantiateError::LimitExceeded(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn limit_busting_module_is_rejected_and_counted() {
        use cage_wasm::builder::ModuleBuilder;
        use cage_wasm::{Instr, ValType};

        // 5k instructions against a 1k op bound: the template build must
        // refuse the module with `Rejected`, not wedge the worker.
        let mut b = ModuleBuilder::new();
        let mut body = Vec::new();
        for _ in 0..2_500 {
            body.push(Instr::I64Const(1));
            body.push(Instr::Drop);
        }
        body.push(Instr::I64Const(0));
        let f = b.add_function(&[], &[ValType::I64], &[], body);
        b.export_func("run", f);
        let module = b.build();

        let tight = CompileLimits {
            max_body_ops: 1_000,
            ..CompileLimits::generous()
        };
        let err = InstancePre::with_limits(
            Variant::BaselineWasm64,
            Core::CortexX3,
            &module,
            0,
            HostProfile::Empty,
            &tight,
        )
        .expect_err("5k ops against a 1k bound");
        match err {
            ServeError::Rejected(l) => assert_eq!(l.what, "body ops"),
            other => panic!("expected Rejected, got {other}"),
        }

        // The same module sails through the default limits, and the
        // worker's pool ledger can absorb the earlier rejection.
        let pre = Arc::new(
            InstancePre::new(
                Variant::BaselineWasm64,
                Core::CortexX3,
                &module,
                0,
                HostProfile::Empty,
            )
            .expect("fine under default limits"),
        );
        let mut pool = Pool::new(pre);
        pool.record_rejection();
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.invoke(&inst, "run", &[]).unwrap(), vec![Value::I64(0)]);
        pool.release(inst);

        let mut fleet = PoolMetrics::default();
        fleet.merge(&pool.metrics());
        assert_eq!(fleet.rejected, 1, "rejection merges into fleet totals");
        assert_eq!(compile_panic_count(), 0, "no stage panicked");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn leak_detector_fires_when_pool_drops_with_outstanding_instances() {
        let pre = template(COUNTER, Variant::BaselineWasm64, HostProfile::Libc);
        let mut pool = Pool::new(pre);
        let _forgotten = pool.checkout().unwrap();
        assert_eq!(pool.outstanding(), 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(pool)));
        assert!(result.is_err(), "debug drop must flag the leaked checkout");
    }
}
