//! # cage-serve — multi-tenant serving: templates, pooling, fuel
//!
//! The throughput layer over `cage-engine` and `cage-libc`, shaped like
//! wasmtime's serving stack: thousands of concurrent sandboxes handling
//! traffic instead of one instance handling one invoke. Three pieces:
//!
//! * [`InstancePre`] — a validated, precompiled instance template: the
//!   compiled module and a recipe for the host surface. Compilation runs once; imports are resolved per instance,
//!   when a pool instantiates. The template is `Send + Sync`, so worker
//!   threads stamp instances out of one shared `Arc<InstancePre>`.
//! * [`Pool`] — a per-worker pooling allocator. Released instance slots
//!   are recycled by a reset in O(what the tenant wrote) (the 64-byte
//!   lines and the retagged 4 KiB blocks the engine's `LinearMemory`
//!   records) instead of a fresh instantiation, so steady-state checkout does no allocation and no
//!   re-zeroing or re-tagging of untouched memory.
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
//!   dispatch boundary as `Trap::HostPanic` and poisons the checkout; a
//!   poisoned or reset-failed slot is quarantined — retired from the
//!   store whole, libc and sandbox tag included (`Store::retire`), so a
//!   steady fault rate costs no memory — counted in
//!   [`PoolMetrics::quarantined`], and replaced lazily.
//! * fault injection — a seeded [`FaultPlan`] drives the `chaos` suite
//!   (`tests/chaos.rs`, every pool-capacity regime across threads),
//!   proving every failure path returns the pool to a state
//!   bit-identical to fresh instantiation or retires the slot.
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
//! use cage_engine::Variant;
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

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use cage_engine::store::InstantiateError;
use cage_engine::trap::caught_compile_panic;
use cage_engine::{InstanceHandle, InstanceLimits, Precompiled, Store, Trap, Value, Variant};
use cage_libc::{Libc, Linker};
use cage_mte::Core;
use cage_wasm::{CompileLimits, LimitError, Module};

mod chaos;
mod metrics;

pub use chaos::{Fault, FaultPlan};
pub use metrics::PoolMetrics;

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
    /// Every slot the pool may hold is checked out — it is at its slot
    /// cap ([`Pool::set_max_slots`]) or its store has no sandbox tag left
    /// (see [`Pool`]): shed this request (retry, or route to another
    /// worker) instead of growing without bound.
    Exhausted {
        /// The number of live slots that was hit.
        capacity: usize,
    },
    /// The module exceeded a compile limit at template-build time — too
    /// big or too deep to ingest under the serving tier's
    /// [`CompileLimits`]. The tenant's module is refused, not the server
    /// degraded; count it with [`Pool::record_rejection`].
    Rejected(LimitError),
    /// A compile stage panicked while building the template. The panic
    /// was caught at the [`InstancePre`] boundary (the worker is fine)
    /// and counted in the process-wide
    /// [`cage_engine::trap::compile_panic_count`] (`cage::compile_panic_count`),
    /// the one counter `Engine::compile`'s backstop bumps too; the module
    /// is refused.
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

/// A validated, precompiled instance template: the [`Precompiled`]
/// module, its variant and core, and the [`HostProfile`] its host
/// surface is built from. Under [`HostProfile::Libc`] each instance's
/// heap starts where the module's own `__heap_base` export says
/// ([`cage_libc::heap_base_of`]).
///
/// Building one runs validation and bytecode compilation exactly
/// once; every instance stamped from it shares the compiled functions
/// behind `Arc`s. Nothing is linked here: each [`Pool`] builds its
/// [`Linker`] from the profile once, and each instantiation resolves the
/// module's imports against it. The template is `Send + Sync` — clone an
/// `Arc<InstancePre>` into each worker thread and give it to that
/// worker's [`Pool`].
#[derive(Debug, Clone)]
pub struct InstancePre {
    pre: Precompiled,
    variant: Variant,
    core: Core,
    host: HostProfile,
}

impl InstancePre {
    /// Compiles `module` once into a template for `variant` on `core`,
    /// under the default (generous) [`CompileLimits`].
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
        host: HostProfile,
    ) -> Result<Self, ServeError> {
        Self::with_limits(variant, core, module, host, &CompileLimits::default())
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
            Err(payload) => return Err(ServeError::CompilePanic(caught_compile_panic(&*payload))),
        };
        Ok(Self::from_precompiled(variant, core, pre, host))
    }

    /// A template over an already compiled module — nothing is validated
    /// or lowered here, so nothing can be rejected or panic. The caller
    /// vouches that `pre` was compiled for `variant`.
    #[must_use]
    pub fn from_precompiled(
        variant: Variant,
        core: Core,
        pre: Precompiled,
        host: HostProfile,
    ) -> Self {
        InstancePre {
            pre,
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
}

/// A checked-out instance of a [`Pool`] — a token, valid only against
/// the pool that issued it. Return it with [`Pool::release`] so the slot
/// can be recycled.
///
/// Its handle names the pool's store, so another pool refuses it: calls
/// trap with `Trap::Host`, accessors answer their stale-handle defaults,
/// and a release leaves that pool as it was (counted in
/// [`PoolMetrics::foreign_releases`]).
#[derive(Debug)]
pub struct PooledInstance {
    handle: InstanceHandle,
    /// Set when a host function panicked inside this checkout: its state
    /// can no longer be trusted, so release quarantines it.
    poisoned: Cell<bool>,
}

/// A per-worker pooling allocator over one engine [`Store`].
///
/// `checkout` prefers recycling a released slot — a
/// [`Store::reset_instance`] in O(what the tenant wrote), which rewinds the slot's libc too — over
/// stamping a new instance; steady state therefore allocates nothing. A
/// pool lives on one thread (host closures and the store are
/// single-threaded); the shared, thread-safe object is the
/// [`InstancePre`]. Its slots are its store's live instances, the
/// released ones on a free list; a quarantined slot is retired from the
/// store ([`Store::retire`]), and nothing of it stays behind.
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
    /// Released slots, to be reset at the checkout that recycles them.
    free: Vec<InstanceHandle>,
    fuel_budget: Option<u64>,
    /// Epoch ticks granted per checkout (`None` = no epoch deadline).
    epoch_budget: Option<u64>,
    /// Cap on live slots (`None` = unbounded).
    max_slots: Option<usize>,
    metrics: PoolMetrics,
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pool")
            .field("variant", &self.pre.variant)
            .field("slots", &self.capacity())
            .field("free", &self.free.len())
            .field("quarantined", &self.metrics.quarantined)
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
            free: Vec::new(),
            fuel_budget: None,
            epoch_budget: None,
            max_slots: None,
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

    /// Caps the pool at `max` live slots (`None` = unbounded). A checkout
    /// that finds every slot busy returns [`ServeError::Exhausted`]
    /// instead of instantiating past the cap; a quarantined slot is no
    /// longer live, so poisoned capacity is replaced.
    pub fn set_max_slots(&mut self, max: Option<usize>) {
        self.max_slots = max;
    }

    /// Applies a resource policy to every current slot and to all future
    /// cold instantiations (which then fail with
    /// `InstantiateError::LimitExceeded` if the module's initial memory
    /// or table already exceeds it).
    pub fn set_limits(&mut self, limits: InstanceLimits) {
        self.store.set_default_limits(limits);
        for handle in self.store.handles().collect::<Vec<_>>() {
            self.store.set_instance_limits(handle, limits);
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

    /// Permanently retires a slot: the store drops its instance whole, so
    /// the cold path may replace it, and the quarantine metric counts it.
    fn quarantine(&mut self, handle: InstanceHandle) {
        self.store.retire(handle);
        self.metrics.quarantined += 1;
    }

    /// Counts a shed checkout: every one of the `capacity` slots the pool
    /// may hold is checked out.
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
    /// [`ServeError::Exhausted`] when every slot the pool may hold is
    /// checked out — the slot cap, or the variant's sandbox tags (15
    /// under `CageSandboxing`, one under `CageFull`), whichever is hit
    /// first; [`ServeError::Instantiate`] on the cold path (e.g. a
    /// deterministically trapping start function).
    pub fn checkout(&mut self) -> Result<PooledInstance, ServeError> {
        let handle = loop {
            let Some(handle) = self.free.pop() else {
                break self.instantiate()?;
            };
            if self.store.reset_instance(handle).is_ok() {
                self.metrics.resets += 1;
                break handle;
            }
            // The slot was already popped off the free list; dropping the
            // error here used to leak it silently. Quarantine it and keep
            // looking — if the failure is deterministic (the start
            // function always traps), the cold path reports it as an
            // instantiation error.
            self.quarantine(handle);
        };
        self.arm(handle);
        Ok(PooledInstance {
            handle,
            poisoned: Cell::default(),
        })
    }

    /// The cold path of [`Pool::checkout`]: a new slot stamped from the
    /// template, unless the pool is at its capacity.
    fn instantiate(&mut self) -> Result<InstanceHandle, ServeError> {
        if let Some(cap) = self.max_slots {
            if self.capacity() >= cap {
                return Err(self.exhausted(cap));
            }
        }
        let (linker, pre) = (&self.linker, &self.pre);
        let handle = match linker.instantiate(&mut self.store, &pre.pre) {
            Ok(handle) => handle,
            // The store has no sandbox tag left (§6.4). The free list is
            // empty here and a quarantined slot has returned its tag, so
            // every tag is under a live slot that is checked out: the
            // pool is saturated, at the capacity the variant gives it.
            Err(InstantiateError::TooManySandboxes) => {
                return Err(self.exhausted(self.capacity()));
            }
            Err(e) => return Err(e.into()),
        };
        self.metrics.instantiations += 1;
        Ok(handle)
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
        let result = self.store.invoke(inst.handle, name, args);
        if matches!(result, Err(Trap::HostPanic(_))) {
            inst.poisoned.set(true);
        }
        result
    }

    /// Whether a checked-out instance has been poisoned by a host panic
    /// (it will be quarantined, not recycled, on release).
    #[must_use]
    pub fn is_poisoned(&self, inst: &PooledInstance) -> bool {
        inst.poisoned.get()
    }

    /// Returns an instance to the pool. Its counters are folded into the
    /// pool totals now; a healthy slot rejoins the free list (the
    /// expensive state reset is deferred to the next [`Pool::checkout`]
    /// that recycles it), a poisoned one is quarantined. Another pool's
    /// token changes nothing here and is counted in
    /// [`PoolMetrics::foreign_releases`]; its slot stays checked out in
    /// the pool that issued it.
    pub fn release(&mut self, inst: PooledInstance) {
        let handle = inst.handle;
        if !self.store.contains(handle) {
            self.metrics.foreign_releases += 1;
            return;
        }
        self.metrics.counts += &self.store.charge_counts(handle);
        self.metrics.fuel_consumed += self.store.fuel_consumed(handle);
        if inst.poisoned.get() {
            self.quarantine(handle);
        } else {
            self.free.push(handle);
        }
    }

    /// Captured `print_*` output of a checked-out instance.
    #[must_use]
    pub fn stdout(&self, inst: &PooledInstance) -> String {
        self.store
            .host_state::<Libc>(inst.handle)
            .map(Libc::stdout)
            .unwrap_or_default()
    }

    /// Remaining fuel of a checked-out instance (`None` = unlimited).
    #[must_use]
    pub fn fuel_remaining(&self, inst: &PooledInstance) -> Option<u64> {
        self.store.fuel_remaining(inst.handle)
    }

    /// Modeled cycle counter of a checked-out instance. Zeroed by the
    /// recycle reset, so the chaos suite can compare a recycled slot's
    /// probe against a fresh pool's bit-for-bit.
    #[must_use]
    pub fn cycles(&self, inst: &PooledInstance) -> f64 {
        self.store.cycles(inst.handle)
    }

    /// Retired-instruction count of a checked-out instance (zeroed by the
    /// recycle reset, like [`Pool::cycles`]).
    #[must_use]
    pub fn instr_count(&self, inst: &PooledInstance) -> u64 {
        self.store.instr_count(inst.handle)
    }

    /// Live slots: checked out or released for recycling (the store's
    /// live instances). A quarantined slot is gone and does not count.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.store.instance_count()
    }

    /// Slots currently checked out and not yet released — the leak
    /// detector's ledger: a nonzero value at pool drop means
    /// [`PooledInstance`]s were forgotten, which trips a debug assertion
    /// and the [`PoolMetrics::leaked`] counter.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.capacity() - self.free.len()
    }

    /// Bytes of linear memory this pool's live slots have committed: the
    /// sum of [`cage_engine::LinearMemory::committed_bytes`] over them.
    /// Host-side, and it varies with what the tenants touched — the
    /// *modelled* footprint of §7.3 is `resident_bytes`, which does not.
    /// A slot built from a retired memory's buffers starts at zero like
    /// any other; the zeroed bytes it inherited, and the spare memories
    /// the thread keeps, are not counted.
    #[must_use]
    pub fn committed_bytes(&self) -> u64 {
        self.store
            .handles()
            .filter_map(|handle| self.store.memory(handle))
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

    /// Snapshot of the pool totals, with `instr_count` derived from the
    /// accumulated counts here, on read; price the counts with
    /// [`Store::price`] for cycles.
    #[must_use]
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
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
        let outstanding = self.outstanding();
        if outstanding > 0 {
            self.metrics.leaked += outstanding as u64;
            if !thread::panicking() {
                debug_assert_eq!(
                    outstanding, 0,
                    "pool dropped with {outstanding} instance(s) still checked out"
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
            InstancePre::new(variant, Core::CortexX3, &lowered.module, host).expect("validates"),
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
    fn a_pool_refuses_another_pools_token() {
        // Two pools of one template on one thread: each one's first slot
        // sits at index 0, generation 0 of its own store.
        let pre = template(COUNTER, Variant::CageMemSafety, HostProfile::Libc);
        let (mut a, mut b) = (Pool::new(Arc::clone(&pre)), Pool::new(pre));
        let bump = |pool: &mut Pool, inst: &PooledInstance, by: i64| {
            pool.invoke(inst, "bump", &[Value::I64(by)])
        };
        let ta = a.checkout().unwrap();
        let tb = b.checkout().unwrap();
        assert_eq!(bump(&mut b, &tb, 100), Ok(vec![Value::I64(100)]));
        // A's token does not run in B's tenant.
        assert!(matches!(bump(&mut b, &ta, 1), Err(Trap::Host(_))));
        assert_eq!((b.cycles(&ta), b.instr_count(&ta)), (0.0, 0));
        assert_eq!(
            (b.stdout(&ta), b.fuel_remaining(&ta)),
            (String::new(), None)
        );
        // Released into B, it leaves B as it was.
        b.release(ta);
        assert_eq!(b.outstanding(), 1);
        assert_eq!(b.metrics().foreign_releases, 1);
        // So B's next checkout is a new slot, and tb's state survives it.
        let tc = b.checkout().unwrap();
        assert_eq!((b.capacity(), b.metrics().resets), (2, 0));
        assert_eq!(bump(&mut b, &tb, 0), Ok(vec![Value::I64(100)]));
        assert_eq!(bump(&mut b, &tc, 0), Ok(vec![Value::I64(0)]));
        b.release(tb);
        b.release(tc);
        assert_eq!(b.outstanding(), 0);
        let mut fleet = PoolMetrics::default();
        fleet.merge(&b.metrics());
        assert_eq!(fleet.foreign_releases, 1, "merged like the others");
        // The token never went back to A: its slot is still checked out,
        // which A's leak detector would flag at drop.
        assert_eq!(a.outstanding(), 1);
        std::mem::forget(a);
    }

    #[test]
    fn pool_totals_are_counts_priced_on_read_whatever_the_release_order() {
        // Three instances with unlike amounts of work (memory traffic,
        // libc host calls, a division), released in two different orders
        // by two pools of one template: the totals are the same to the
        // bit, `instr_count` is what the accumulated counts come to, and
        // so are the cycles a reader prices them at.
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
        const WORK: [i64; 3] = [7, 1_000, 33];
        // Cycles are priced on read, by any store of the template's config.
        let pricer = Pool::new(Arc::clone(&pre));
        let price = |m: &PoolMetrics| pricer.store().price(&m.counts).to_bits();
        let totals = |order: [usize; 3]| {
            let mut pool = Pool::new(Arc::clone(&pre));
            let mut held: Vec<_> = (0..3).map(|_| Some(pool.checkout().unwrap())).collect();
            for (inst, n) in held.iter().zip(WORK) {
                let inst = inst.as_ref().expect("held");
                pool.invoke(inst, "work", &[Value::I64(n)]).unwrap();
            }
            for i in order {
                pool.release(held[i].take().expect("released once"));
            }
            let m = pool.metrics();
            assert_eq!(m.instr_count, m.counts.instr_count());
            m
        };
        let m = totals([0, 1, 2]);
        assert_eq!(m, totals([2, 0, 1]));
        assert_eq!(m, totals([1, 2, 0]));
        assert!(
            m.instr_count > 10_000 && f64::from_bits(price(&m)) > 0.0,
            "{m:?}"
        );
        // One worker per request: their snapshots merged in two orders
        // give the one pool's counts, and so its cycles to the bit.
        let workers: Vec<PoolMetrics> = WORK
            .iter()
            .map(|&n| {
                let mut pool = Pool::new(Arc::clone(&pre));
                let inst = pool.checkout().unwrap();
                pool.invoke(&inst, "work", &[Value::I64(n)]).unwrap();
                pool.release(inst);
                pool.metrics()
            })
            .collect();
        let fleet = |order: [usize; 3]| {
            let mut fleet = PoolMetrics::default();
            order.iter().for_each(|&i| fleet.merge(&workers[i]));
            fleet
        };
        let (forward, backward) = (fleet([0, 1, 2]), fleet([2, 1, 0]));
        assert_eq!(forward, backward);
        assert_eq!(price(&forward), price(&backward));
        assert_eq!(
            (forward.counts, forward.instr_count),
            (m.counts, m.instr_count)
        );
        assert_eq!(price(&forward), price(&m));
    }

    #[test]
    fn pool_grows_past_live_checkouts_and_shares_compilation() {
        let pre = template(COUNTER, Variant::CagePtrAuth, HostProfile::Libc);
        let mut pool = Pool::new(Arc::clone(&pre));
        let held: Vec<_> = (0..8).map(|_| pool.checkout().unwrap()).collect();
        assert_eq!(pool.outstanding(), 8);
        for inst in &held {
            assert_eq!(
                pool.invoke(inst, "bump", &[Value::I64(2)]).unwrap()[0].as_i64(),
                2
            );
        }
        for inst in held {
            pool.release(inst);
        }
        assert_eq!(pool.outstanding(), 0);
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

    /// A hand-built module whose heap starts at 4096 and whose start
    /// function takes a 16-byte block from libc and prints 7: `start_ptr`
    /// returns that block, `alloc` takes the next one.
    fn start_allocating_module(variant: Variant) -> Module {
        use cage_wasm::builder::ModuleBuilder;
        use cage_wasm::{Instr, ValType};
        let wasm64 = variant.ptr_width().bytes() == 8;
        let ptr = if wasm64 { ValType::I64 } else { ValType::I32 };
        let mut b = ModuleBuilder::new();
        let malloc = b.import_func("cage_libc", "malloc", &[ValType::I64], &[ptr]);
        let print = b.import_func("cage_libc", "print_i64", &[ValType::I64], &[]);
        let (null, base) = if wasm64 {
            b.add_memory64(1);
            (Instr::I64Const(0), Instr::I64Const(4096))
        } else {
            b.add_memory32(1);
            (Instr::I32Const(0), Instr::I32Const(4096))
        };
        let block = b.add_global(ptr, true, null);
        let base = b.add_global(ptr, false, base);
        b.export_global("__heap_base", base);
        let start = b.add_function(
            &[],
            &[],
            &[],
            vec![
                Instr::I64Const(16),
                Instr::Call(malloc),
                Instr::GlobalSet(block),
                Instr::I64Const(7),
                Instr::Call(print),
            ],
        );
        let start_ptr = b.add_function(&[], &[ptr], &[], vec![Instr::GlobalGet(block)]);
        let alloc = b.add_function(
            &[],
            &[ptr],
            &[],
            vec![Instr::I64Const(16), Instr::Call(malloc)],
        );
        b.set_start(start);
        b.export_func("start_ptr", start_ptr);
        b.export_func("alloc", alloc);
        b.build()
    }

    #[test]
    fn a_recycled_slot_sees_its_start_functions_libc_calls_as_a_fresh_one_does() {
        // The libc is rewound before the start function runs again, so
        // what the start function allocates and prints survives the
        // recycle, and the next block is handed out after it.
        for variant in Variant::ALL {
            let module = start_allocating_module(variant);
            let pre = InstancePre::new(variant, Core::CortexX3, &module, HostProfile::Libc);
            let mut pool = Pool::new(Arc::new(pre.expect("validates")));
            let mut probe = || {
                let inst = pool.checkout().expect("checks out");
                let start_ptr = pool.invoke(&inst, "start_ptr", &[]).expect("runs");
                let next = pool.invoke(&inst, "alloc", &[]).expect("runs");
                let seen = (start_ptr, next, pool.stdout(&inst));
                pool.release(inst);
                seen
            };
            let fresh = probe();
            let recycled = probe();
            if variant == Variant::BaselineWasm64 {
                let expect = (vec![Value::I64(4112)], vec![Value::I64(4144)], "7\n".into());
                assert_eq!(fresh, expect);
            }
            assert_eq!(recycled, fresh, "{variant}");
            let m = pool.metrics();
            assert_eq!((m.instantiations, m.resets), (1, 1), "{variant}");
        }
    }

    /// A hand-built module whose `scribble` loads and then stores one byte
    /// in every other 4 KiB block of its two wasm pages (blocks 0, 2, …,
    /// 30), and under an MTE variant also makes a segment of block 5 and
    /// leaves it live. It returns the sum of the loaded bytes plus the
    /// segment's pointer.
    fn every_other_block_module(variant: Variant) -> Module {
        use cage_wasm::builder::ModuleBuilder;
        use cage_wasm::instr::{LoadOp, StoreOp};
        use cage_wasm::{Instr, MemArg, ValType};
        const BLOCK: i64 = 4096;
        let wasm64 = variant.ptr_width().bytes() == 8;
        let addr = |a: i64| {
            if wasm64 {
                Instr::I64Const(a)
            } else {
                Instr::I32Const(a as i32)
            }
        };
        let mut body = vec![Instr::I64Const(0)];
        for block in (0..32).step_by(2) {
            let at = block * BLOCK + block;
            body.extend([
                addr(at),
                Instr::Load(LoadOp::I64Load8U, MemArg::none()),
                Instr::I64Add,
                addr(at),
                Instr::I64Const(block + 1),
                Instr::Store(StoreOp::I64Store8, MemArg::none()),
            ]);
        }
        if variant.uses_mte() {
            body.extend([
                Instr::I64Const(5 * BLOCK),
                Instr::I64Const(BLOCK),
                Instr::SegmentNew(0),
                Instr::I64Add,
            ]);
        }
        let mut b = ModuleBuilder::new();
        if wasm64 {
            b.add_memory64(2);
        } else {
            b.add_memory32(2);
        }
        let scribble = b.add_function(&[], &[ValType::I64], &[], body);
        b.export_func("scribble", scribble);
        b.build()
    }

    #[test]
    fn a_recycled_slot_restores_every_block_its_tenant_dirtied_as_a_fresh_one_has_it() {
        use cage_engine::memory::RUNTIME_SLACK;
        // Memory image and tag store of a checked-out slot.
        fn image(pool: &Pool, inst: &PooledInstance) -> (Vec<u8>, Vec<u8>) {
            let mem = pool.store().memory(inst.handle).unwrap();
            let total = mem.size() + RUNTIME_SLACK;
            (mem.read_resolved(0, total), mem.tags().packed().to_vec())
        }
        for variant in Variant::ALL {
            let module = every_other_block_module(variant);
            let pre = InstancePre::new(variant, Core::CortexX3, &module, HostProfile::Empty);
            let mut pool = Pool::new(Arc::new(pre.expect("validates")));
            let mut probe = || {
                let inst = pool.checkout().expect("checks out");
                let handle = inst.handle;
                let before = image(&pool, &inst);
                let out = pool.invoke(&inst, "scribble", &[]).expect("runs");
                let memory = pool.store().memory(handle).unwrap();
                let dirty = (memory.dirty_line_count(), memory.retagged_block_count());
                let after = image(&pool, &inst);
                let counts = pool.store().charge_counts(handle);
                pool.release(inst);
                (before, out, dirty, after, counts)
            };
            let fresh = probe();
            let recycled = probe();
            let (before, out, dirty, after, _) = &fresh;
            let retagged = variant.provides_memory_safety();
            // One line in each even block written; block 5 retagged by the
            // segment where segments are live.
            assert_eq!(*dirty, (16, usize::from(retagged)), "{variant}");
            assert_ne!(before.0, after.0, "{variant}: the tenant wrote");
            assert_eq!(
                before.1 != after.1,
                retagged,
                "{variant}: the tenant retagged"
            );
            if variant == Variant::BaselineWasm64 {
                assert_eq!(out, &[Value::I64(0)]);
            }
            assert!(
                recycled.0 == fresh.0 && recycled.3 == fresh.3,
                "{variant}: a recycled slot's memory image or tags differ from a fresh one's"
            );
            assert_eq!(
                (&recycled.1, recycled.2, recycled.4),
                (&fresh.1, fresh.2, fresh.4),
                "{variant}: results, dirty lines and blocks or count vectors differ"
            );
            let m = pool.metrics();
            assert_eq!((m.instantiations, m.resets), (1, 1), "{variant}");
        }
    }

    #[test]
    fn custom_profiles_rebuild_per_pool() {
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "seven", &[], &[ValType::I64], |_ctx, _args, out| {
                out[0] = Value::I64(7);
                Ok(())
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
    fn a_mistyped_custom_hook_fails_at_checkout_and_quarantines_nothing() {
        use cage_wasm::ValType;
        // The module imports `env.seven` as `() -> i64`; the hook declares
        // `(i64) -> i64`.
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func(
                "env",
                "seven",
                &[ValType::I64],
                &[ValType::I64],
                |_, _, out| {
                    out[0] = Value::I64(7);
                    Ok(())
                },
            );
        }));
        let pre = template(
            "long seven(void); long f() { return seven() + 1; }",
            Variant::CageFull,
            profile,
        );
        let mut pool = Pool::new(pre);
        for _ in 0..2 {
            let err = pool.checkout().unwrap_err();
            assert!(
                matches!(&err, ServeError::Instantiate(InstantiateError::ImportType { module, name, .. })
                    if module == "env" && name == "seven"),
                "{err}"
            );
        }
        assert_eq!((pool.capacity(), pool.outstanding()), (0, 0));
        let metrics = pool.metrics();
        assert_eq!((metrics.instantiations, metrics.quarantined), (0, 0));
        assert_eq!(pool.store().instance_count(), 0);
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
            linker.func("env", "boom", &[], &[ValType::I64], |_ctx, _args, _| {
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
        assert_eq!(pool.metrics().quarantined, 1);
        // The quarantined slot is replaced lazily by a fresh instantiation,
        // and ordinary work proceeds.
        let inst = pool.checkout().unwrap();
        assert_eq!(pool.invoke(&inst, "ok", &[]).unwrap(), vec![Value::I64(1)]);
        pool.release(inst);
        assert_eq!(
            pool.capacity(),
            1,
            "a fresh slot, nothing of the quarantined one"
        );
        assert_eq!(pool.store().instance_count(), 1);
        assert_eq!(pool.metrics().instantiations, 2);
        assert_eq!(pool.metrics().resets, 0, "poisoned slot never recycled");
    }

    #[test]
    fn quarantined_slots_release_their_linear_memory() {
        // A capped pool replaces poisoned capacity; the store retires each
        // quarantined instance whole, memory included.
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "boom", &[], &[ValType::I64], |_ctx, _args, _| {
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
        assert_eq!(pool.metrics().quarantined, 8);
        assert_eq!(pool.capacity(), 0, "no dead slot kept");
        let inst = pool.checkout().unwrap();
        pool.release(inst);
        assert_eq!(pool.capacity(), 1);
    }

    #[test]
    fn a_sandboxed_pool_outlives_more_quarantines_than_there_are_sandbox_tags() {
        // §6.4 gives a store 15 sandbox tags. A quarantined slot drops its
        // memory, and with it the tag: twenty poisoned tenants later the
        // pool still serves, one live sandbox at a time.
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "boom", &[], &[ValType::I64], |_ctx, _args, _| {
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
        assert_eq!(pool.metrics().quarantined, 20);
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
        let handle = inst.handle;
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
        let memory = pool.store().memory(handle).unwrap();
        assert_eq!(
            (memory.dirty_line_count(), memory.retagged_block_count()),
            (0, 0)
        );
        pool.invoke(&inst, "handle", &[Value::I64(8)]).unwrap();
        assert_eq!(pool.committed_bytes(), touched);
        pool.release(inst);
    }

    #[test]
    fn ordinary_host_traps_do_not_poison() {
        use cage_wasm::ValType;
        let profile = HostProfile::Custom(Arc::new(|linker: &mut Linker| {
            *linker = Linker::with_libc();
            linker.func("env", "fail", &[], &[ValType::I64], |_ctx, _args, _| {
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
        assert_eq!(
            cage_engine::trap::compile_panic_count(),
            0,
            "no stage panicked"
        );
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
