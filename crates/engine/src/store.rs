//! The store: instances, instantiation, invocation and cycle accounting.
//!
//! A [`Store`] corresponds to one simulated process. It owns up to 15
//! sandboxed instances under MTE sandboxing — the paper's per-process limit
//! (§6.4 "we limit the number of sandboxes in one process to at most 15")
//! — and gives each instance its own PAC key and modifier (§6.3).

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cage_mte::Tag;
use cage_pac::{PacKey, PacSigner, PointerLayout};
use cage_wasm::{FuncType, ImportKind, Module, ValType, ValidationError};
use rand::{Rng, SeedableRng};

use crate::bytecode::{self, RegCode};
use crate::config::ExecConfig;
use crate::cost::{self, ChargeCounts, ClassWeights};
use crate::host::{HostFunc, HostState, Imports};
use crate::interp::Interp;
use crate::memory::{LinearMemory, TagScheme};
use crate::trap::Trap;
use crate::value::Value;

/// Why instantiation failed.
#[derive(Debug)]
pub enum InstantiateError {
    /// The module failed validation.
    Validation(ValidationError),
    /// An import could not be resolved from the provided [`Imports`].
    MissingImport {
        /// Import module namespace.
        module: String,
        /// Import field name.
        name: String,
    },
    /// Non-function imports are not supported by this engine.
    UnsupportedImport(String),
    /// MTE sandboxing ran out of tags: at most 15 instances per store
    /// (§6.4), and a single instance in combined mode.
    TooManySandboxes,
    /// A data or element segment fell outside its target.
    SegmentOutOfRange,
    /// The module's initial memory or table size exceeds the store's
    /// [`InstanceLimits`] policy.
    LimitExceeded(String),
    /// Precompilation busted a [`cage_wasm::CompileLimits`] bound
    /// (body size, nesting depth, SSA values, compile fuel, …).
    CompileLimit(cage_wasm::LimitError),
    /// The start function trapped.
    Start(Trap),
}

impl From<cage_wasm::LimitError> for InstantiateError {
    fn from(e: cage_wasm::LimitError) -> Self {
        InstantiateError::CompileLimit(e)
    }
}

impl fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstantiateError::Validation(e) => write!(f, "{e}"),
            InstantiateError::MissingImport { module, name } => {
                write!(f, "unresolved import {module}.{name}")
            }
            InstantiateError::UnsupportedImport(what) => {
                write!(f, "unsupported import kind: {what}")
            }
            InstantiateError::TooManySandboxes => {
                f.write_str("sandbox tags exhausted (15 per process, 1 in combined mode)")
            }
            InstantiateError::SegmentOutOfRange => f.write_str("active segment out of range"),
            InstantiateError::LimitExceeded(what) => write!(f, "resource limit exceeded: {what}"),
            InstantiateError::CompileLimit(e) => write!(f, "{e}"),
            InstantiateError::Start(t) => write!(f, "start function trapped: {t}"),
        }
    }
}

impl std::error::Error for InstantiateError {}

impl From<ValidationError> for InstantiateError {
    fn from(e: ValidationError) -> Self {
        InstantiateError::Validation(e)
    }
}

/// Handle to an instance within a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceHandle(pub(crate) usize);

/// Per-instance resource policy, in the spirit of wasmtime's
/// `ResourceLimiter`: every field is an *upper bound the embedder imposes
/// on top of* what the module declares and the engine configuration
/// allows; `None` means "no additional bound".
///
/// * `max_memory_pages` caps linear memory, enforced both at
///   instantiation (initial size) and inside `memory.grow` — a grow past
///   the cap fails with the in-language `-1`, exactly like exceeding the
///   module's own declared maximum, so guests observe a deterministic,
///   spec-shaped failure.
/// * `max_table_elements` caps the function table at instantiation (the
///   engine has no `table.grow`, so the initial size is the only growth
///   point).
/// * `max_call_depth` is the one call-depth limit: a call that would nest
///   deeper traps with [`Trap::CallStackExhausted`]. `None` means the
///   default of [`DEFAULT_MAX_CALL_DEPTH`] frames, not unbounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstanceLimits {
    /// Maximum linear-memory size in 64KiB pages.
    pub max_memory_pages: Option<u64>,
    /// Maximum number of function-table elements.
    pub max_table_elements: Option<usize>,
    /// Maximum guest call depth in frames (`None`:
    /// [`DEFAULT_MAX_CALL_DEPTH`]).
    ///
    /// Guest calls cost no host stack: the dispatch loop keeps suspended
    /// callers on an explicit frame `Vec` and their registers in one
    /// arena, so no thread stack size goes with this limit. What it bounds
    /// is that heap: at most depth × 65 535 register slots × 8 B of arena
    /// (a frame is as wide as its function's peak register pressure, a
    /// `u16` count) plus one frame record per call. Only the tree-walking
    /// reference (`Store::call_tree`) recurses on the host.
    pub max_call_depth: Option<usize>,
}

/// The call-depth limit of an instance whose [`InstanceLimits`] sets none.
pub const DEFAULT_MAX_CALL_DEPTH: usize = 128;

/// One function of a [`Precompiled`] module: resolved type, local
/// declarations and register bytecode, lowered once when the module was
/// compiled. It lives in the template's one function table, which every
/// instance shares; the interpreter borrows that table once per
/// invocation and names functions by index from then on, so its call path
/// neither clones nor ref-counts anything.
#[derive(Debug)]
pub(crate) struct CompiledFunc {
    /// Resolved signature, shared with the template's type table so
    /// `call_indirect` can compare by pointer first.
    pub(crate) ty: Arc<FuncType>,
    /// Declared locals (after the parameters); the tree-walking reference
    /// sizes its frames from them. Empty for host functions.
    pub(crate) locals: Vec<ValType>,
    /// Register bytecode lowered through SSA, the one execution form
    /// ([`Store::call`] dispatches it). Empty for host functions.
    pub(crate) reg: RegCode,
    /// Whether this index dispatches to an imported host function.
    pub(crate) is_host: bool,
}

/// The shared type table plus every function compiled to bytecode —
/// what [`precompile`] produces and a [`Precompiled`] template shares.
type CompiledTables = (Arc<[Arc<FuncType>]>, Arc<[CompiledFunc]>);

/// Validates `module` — the one validation it ever gets — and
/// precompiles every function in its joint index space (imports first,
/// then local functions) down to register bytecode, plus the shared type
/// table.
fn precompile(
    module: &Module,
    limits: &cage_wasm::CompileLimits,
    fuel: &cage_wasm::CompileFuel,
) -> Result<CompiledTables, InstantiateError> {
    cage_wasm::validate_with_limits(module, limits, fuel).map_err(|e| match e.limit() {
        Some(l) => InstantiateError::CompileLimit(l.clone()),
        None => InstantiateError::Validation(e),
    })?;
    let types: Arc<[Arc<FuncType>]> = module.types.iter().cloned().map(Arc::new).collect();
    let mut funcs = Vec::with_capacity(module.total_func_count() as usize);
    for type_idx in module.imported_func_type_indices() {
        funcs.push(CompiledFunc {
            ty: Arc::clone(&types[type_idx as usize]),
            locals: Vec::new(),
            reg: RegCode::default(),
            is_host: true,
        });
    }
    for f in &module.funcs {
        let ty = Arc::clone(&types[f.type_idx as usize]);
        let reg = bytecode::compile_reg(module, &ty, f.locals.len(), &f.body, limits, fuel)?;
        funcs.push(CompiledFunc {
            ty,
            locals: f.locals.clone(),
            reg,
            is_host: false,
        });
    }
    Ok((types, funcs.into()))
}

/// A validated, fully precompiled module template: the compile-once half
/// of instantiation (validation, bytecode lowering, type-table
/// resolution), separated from the per-instance half (memory, globals,
/// tables, keys). It is the only thing a [`Store`] instantiates, so every
/// module is validated and lowered exactly once however many instances
/// it gets. `Send + Sync`, and a clone is three reference counts — the
/// module, the type table and the function table are one shared slice
/// each — so build it once, share it across worker threads, and stamp
/// instances out of it via [`Store::instantiate_precompiled`].
#[derive(Debug, Clone)]
pub struct Precompiled {
    pub(crate) module: Arc<Module>,
    /// Shared type table (indexes `module.types`).
    pub(crate) types: Arc<[Arc<FuncType>]>,
    /// Joint function index space (imports, then locals).
    pub(crate) funcs: Arc<[CompiledFunc]>,
}

impl Precompiled {
    /// Validates and precompiles `module` down to register bytecode, under
    /// the default (generous) [`cage_wasm::CompileLimits`].
    ///
    /// # Errors
    ///
    /// [`InstantiateError::Validation`] when the module is invalid;
    /// [`InstantiateError::CompileLimit`] when it busts a compile bound.
    pub fn new(module: &Module) -> Result<Self, InstantiateError> {
        Self::with_limits(module, &cage_wasm::CompileLimits::default())
    }

    /// Like [`Precompiled::new`], but under caller-chosen compile limits
    /// and a fuel budget of its own. Copies `module` once it has passed
    /// (a caller that owns it uses [`Precompiled::compile`]).
    ///
    /// # Errors
    ///
    /// As [`Precompiled::compile`].
    pub fn with_limits(
        module: &Module,
        limits: &cage_wasm::CompileLimits,
    ) -> Result<Self, InstantiateError> {
        let (types, funcs) = precompile(module, limits, &limits.fuel())?;
        Ok(Precompiled {
            module: Arc::new(module.clone()),
            types,
            funcs,
        })
    }

    /// Validates `module` and lowers every function to register
    /// bytecode, under `limits` and charging `fuel`: the tail of whatever
    /// pipeline produced the module shares that pipeline's budget.
    /// Validation pre-scans charge one unit per body op and the lowering
    /// two, plus what instruction selection visits and whatever the SSA
    /// builder and the liveness propagation do beyond that (see
    /// [`crate::bytecode::compile_reg`]).
    ///
    /// # Errors
    ///
    /// [`InstantiateError::Validation`] when the module is invalid;
    /// [`InstantiateError::CompileLimit`] when it busts a compile bound.
    pub fn compile(
        module: Module,
        limits: &cage_wasm::CompileLimits,
        fuel: &cage_wasm::CompileFuel,
    ) -> Result<Self, InstantiateError> {
        let (types, funcs) = precompile(&module, limits, fuel)?;
        Ok(Precompiled {
            module: Arc::new(module),
            types,
            funcs,
        })
    }

    /// The validated module this template was compiled from.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Disassembles the register bytecode this template holds for
    /// function `func_idx` (joint index space) — the code every instance
    /// stamped from it executes. `None` when the index is out of range or
    /// names an imported host function (imports have no bytecode).
    #[must_use]
    pub fn disassemble(&self, func_idx: u32) -> Option<String> {
        let func = self.funcs.get(func_idx as usize).filter(|f| !f.is_host)?;
        Some(bytecode::disassemble(func_idx, &func.ty, &func.reg))
    }
}

/// Evaluates a validated constant global initialiser.
fn global_init(init: &cage_wasm::Instr) -> Value {
    match *init {
        cage_wasm::Instr::I32Const(v) => Value::I32(v),
        cage_wasm::Instr::I64Const(v) => Value::I64(v),
        cage_wasm::Instr::F32Const(bits) => Value::F32(f32::from_bits(bits)),
        cage_wasm::Instr::F64Const(bits) => Value::F64(f64::from_bits(bits)),
        _ => unreachable!("validated global initialiser"),
    }
}

/// Writes `module`'s initial state into an instance's zeroed memory and
/// empty (`None`-filled) table and sets its globals: data segments, global
/// initialisers, element segments. The one routine behind instantiation
/// and [`Store::reset_instance`] — a segment out of range is
/// [`InstantiateError::SegmentOutOfRange`] at instantiation, and cannot
/// recur at reset, where memory and table are back at the sizes that
/// passed these checks.
fn apply_initial_state(
    module: &Module,
    memory: Option<&mut LinearMemory>,
    globals: &mut Vec<Value>,
    table: &mut [Option<u32>],
) -> Result<(), InstantiateError> {
    globals.clear();
    globals.extend(module.globals.iter().map(|g| global_init(&g.init)));
    for elem in &module.elems {
        // `start + len` is checked, not assumed: a segment offset near
        // `usize::MAX` must not wrap past the slice bound.
        let start =
            usize::try_from(elem.offset).map_err(|_| InstantiateError::SegmentOutOfRange)?;
        let slots = start
            .checked_add(elem.funcs.len())
            .and_then(|end| table.get_mut(start..end))
            .ok_or(InstantiateError::SegmentOutOfRange)?;
        for (slot, f) in slots.iter_mut().zip(&elem.funcs) {
            *slot = Some(*f);
        }
    }
    // Validation guarantees data segments imply a memory.
    if let Some(mem) = memory {
        for data in &module.data {
            let end = data
                .offset
                .checked_add(data.bytes.len() as u64)
                .ok_or(InstantiateError::SegmentOutOfRange)?;
            if end > mem.size() {
                return Err(InstantiateError::SegmentOutOfRange);
            }
            // Initialisation is performed by the runtime, outside the
            // guest's checked path.
            mem.write_resolved(data.offset, &data.bytes);
        }
    }
    Ok(())
}

/// One instantiated module: a clone of the template it was stamped from
/// plus the state that is its own.
pub(crate) struct Instance {
    pub(crate) pre: Precompiled,
    pub(crate) memory: Option<LinearMemory>,
    pub(crate) globals: Vec<Value>,
    pub(crate) table: Vec<Option<u32>>,
    pub(crate) host_funcs: Vec<Rc<RefCell<HostFunc>>>,
    /// The per-instance host state the imports carried (the libc), if
    /// any: rewound by [`Store::reset_instance`] before the start
    /// function runs again.
    pub(crate) host_state: Option<Rc<dyn HostState>>,
    pub(crate) pac: PacSigner,
    pub(crate) pac_modifier: u64,
    /// What the instance has been charged, as integer counts per class;
    /// cycles and the retired-instruction count are derived from it on
    /// read.
    pub(crate) counts: ChargeCounts,
    /// Remaining fuel (preemption budget), `None` = unlimited.
    pub(crate) fuel: Option<u64>,
    /// Fuel consumed since the last [`Store::set_fuel`]/reset.
    pub(crate) fuel_consumed: u64,
    /// Epoch deadline: trap with [`Trap::EpochInterrupt`] at the next
    /// preemption point once the store's shared epoch counter reaches
    /// this value. `None` = never.
    pub(crate) epoch_deadline: Option<u64>,
    /// Embedder-imposed resource policy (survives resets).
    pub(crate) limits: InstanceLimits,
}

/// The engine store: configuration, cost weights and instances.
pub struct Store {
    pub(crate) config: ExecConfig,
    /// Cycles per unit of each charge class, under `config`.
    weights: ClassWeights,
    pub(crate) instances: Vec<Instance>,
    /// Engine-shared epoch counter for wall-clock preemption: an embedder
    /// thread ticks it, the dispatch loop compares it against per-instance
    /// deadlines at the charge-free preemption points. Shareable across
    /// stores via [`Store::set_epoch`].
    pub(crate) epoch: Arc<AtomicU64>,
    /// Limits applied to instances created after this point.
    default_limits: InstanceLimits,
    rng: rand::rngs::StdRng,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("config", &self.config)
            .field("instances", &self.instances.len())
            .finish()
    }
}

impl Store {
    /// Creates a store executing under `config`.
    #[must_use]
    pub fn new(config: ExecConfig) -> Self {
        Store {
            weights: cost::class_weights(&config),
            rng: rand::rngs::StdRng::seed_from_u64(config.seed),
            config,
            instances: Vec::new(),
            epoch: Arc::new(AtomicU64::new(0)),
            default_limits: InstanceLimits::default(),
        }
    }

    /// The execution configuration.
    #[must_use]
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The scheme the next instance's memory is built under. Sandbox tags
    /// are read off the live memories, not counted: a tag is taken while
    /// some instance's memory holds it and free again the moment that
    /// memory is dropped ([`Store::drop_memory`]).
    fn tag_scheme(&self) -> Result<TagScheme, InstantiateError> {
        let variant = self.config.variant;
        let (sandbox, internal) = (variant.sandboxed(), variant.provides_memory_safety());
        let held = |scheme: TagScheme| {
            self.instances
                .iter()
                .any(|i| i.memory.as_ref().is_some_and(|m| m.scheme() == scheme))
        };
        Ok(match (sandbox, internal) {
            (false, false) => TagScheme::None,
            (false, true) => TagScheme::InternalOnly,
            (true, false) => (1..=15)
                .map(|t| TagScheme::ExternalOnly {
                    instance_tag: Tag::from_low_bits(t),
                })
                .find(|&scheme| !held(scheme))
                .ok_or(InstantiateError::TooManySandboxes)?,
            // Combined mode isolates a single instance (§6.4).
            (true, true) if held(TagScheme::Combined) => {
                return Err(InstantiateError::TooManySandboxes);
            }
            (true, true) => TagScheme::Combined,
        })
    }

    /// Compiles `module` under the default [`cage_wasm::CompileLimits`]
    /// and instantiates it: [`Precompiled::new`] followed by
    /// [`Store::instantiate_precompiled`], for a module that gets one
    /// instance. Anything else builds the [`Precompiled`] itself — once,
    /// and under the limits it wants.
    ///
    /// # Errors
    ///
    /// See [`InstantiateError`].
    pub fn instantiate(
        &mut self,
        module: &Module,
        imports: &Imports,
    ) -> Result<InstanceHandle, InstantiateError> {
        self.instantiate_precompiled(&Precompiled::new(module)?, imports)
    }

    /// Instantiates a [`Precompiled`] template: the per-instance half
    /// only — no validation, no bytecode lowering, no copy of the type or
    /// function table (the instance holds a clone of the template).
    /// Allocates and pre-tags the linear memory, initialises table and
    /// data segments, generates the per-instance PAC key and modifier,
    /// and runs the start function.
    ///
    /// # Errors
    ///
    /// See [`InstantiateError`] (everything except `Validation` and
    /// `CompileLimit`).
    pub fn instantiate_precompiled(
        &mut self,
        pre: &Precompiled,
        imports: &Imports,
    ) -> Result<InstanceHandle, InstantiateError> {
        let module: &Module = &pre.module;
        // The instance table grows before this instance allocates anything.
        // Grown at the push instead, the table is reallocated between two
        // memories' reservations, and where glibc puts it then depends on
        // the size of an `Instance`: on `cage-bench`'s `serve_cold` the
        // peak RSS swung between 6 and 12 MB for sizes a word apart.
        self.instances.reserve(1);
        let mut host_funcs = Vec::new();
        for import in &module.imports {
            match &import.kind {
                ImportKind::Func(_) => {
                    let f = imports
                        .resolve(&import.module, &import.name)
                        .ok_or_else(|| InstantiateError::MissingImport {
                            module: import.module.clone(),
                            name: import.name.clone(),
                        })?;
                    host_funcs.push(f);
                }
                other => return Err(InstantiateError::UnsupportedImport(format!("{other:?}"))),
            }
        }

        let limits = self.default_limits;
        let mut memory = match module.memory_type() {
            Some(ty) => {
                if let Some(cap) = limits.max_memory_pages {
                    if ty.limits.min > cap {
                        return Err(InstantiateError::LimitExceeded(format!(
                            "initial memory of {} pages exceeds the {cap}-page policy",
                            ty.limits.min
                        )));
                    }
                }
                let mut mem = LinearMemory::try_new(
                    ty.limits.min,
                    ty.limits.max,
                    ty.memory64,
                    self.tag_scheme()?,
                    self.rng.gen(),
                )
                .map_err(InstantiateError::LimitExceeded)?;
                mem.set_page_limit(limits.max_memory_pages);
                Some(mem)
            }
            None => None,
        };

        // Allocated before the table and filled by `apply_initial_state`,
        // which touches memory last: the order of these small allocations
        // decides where glibc puts them relative to the memory's
        // reservation, and with another order a dropped pool's memories go
        // back to the kernel in about half of all processes, to be
        // page-faulted in again by every cold instantiation (measured on
        // `cage-bench`'s `serve_cold`: 1.27 M minor faults a run, not 4 k).
        let mut globals = Vec::with_capacity(module.globals.len());

        let table_min = module.tables.first().map_or(0, |t| t.limits.min);
        let table_size = usize::try_from(table_min).map_err(|_| {
            InstantiateError::LimitExceeded(format!(
                "table of {table_min} elements is unallocatable"
            ))
        })?;
        if let Some(cap) = limits.max_table_elements {
            if table_size > cap {
                return Err(InstantiateError::LimitExceeded(format!(
                    "table of {table_size} elements exceeds the {cap}-element policy"
                )));
            }
        }
        // A hostile module can declare any table size; allocate fallibly
        // so an absurd declaration is an error, not an OOM abort.
        let mut table: Vec<Option<u32>> = Vec::new();
        table.try_reserve_exact(table_size).map_err(|_| {
            InstantiateError::LimitExceeded(format!(
                "table of {table_size} elements is unallocatable"
            ))
        })?;
        table.resize(table_size, None);
        apply_initial_state(module, memory.as_mut(), &mut globals, &mut table)?;

        let instance = Instance {
            pre: pre.clone(),
            memory,
            globals,
            table,
            host_funcs,
            host_state: imports.state.clone(),
            // A fresh key per instance: leaked signed pointers are useless
            // elsewhere (§4.2).
            pac: PacSigner::new(
                PacKey::generate(&mut self.rng),
                if self.config.variant.uses_mte() {
                    PointerLayout::MtePac
                } else {
                    PointerLayout::PacOnly
                },
                // FEAT_FPAC: a failed auth traps (the Pixel 8 has it).
                true,
            ),
            // PAC keys are per-process on hardware; co-resident instances
            // are distinguished by a random modifier (§6.3).
            pac_modifier: self.rng.gen(),
            counts: ChargeCounts::default(),
            fuel: None,
            fuel_consumed: 0,
            epoch_deadline: None,
            limits,
        };

        self.instances.push(instance);
        let handle = InstanceHandle(self.instances.len() - 1);

        if let Some(start) = module.start {
            self.call(handle, start, &[])
                .map_err(InstantiateError::Start)?;
        }
        Ok(handle)
    }

    /// Invokes the export `name` with `args`.
    ///
    /// # Errors
    ///
    /// Traps from guest execution, or a host trap if the export is missing.
    pub fn invoke(
        &mut self,
        handle: InstanceHandle,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let func_idx = {
            let inst = &self.instances[handle.0];
            match inst.pre.module.export(name).map(|e| e.kind) {
                Some(cage_wasm::ExportKind::Func(i)) => i,
                _ => return Err(Trap::Host(format!("no exported function \"{name}\""))),
            }
        };
        self.call(handle, func_idx, args)
    }

    /// Calls a function by index: executes its SSA-lowered 3-address
    /// bytecode over a per-frame register file.
    ///
    /// # Errors
    ///
    /// Propagates traps.
    pub fn call(
        &mut self,
        handle: InstanceHandle,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        Interp::new(&mut self.instances[handle.0], &self.epoch, self.config)
            .call_function_reg(func_idx, args)
    }

    /// Calls a function by index through the structured tree walker — the
    /// reference implementation (the in-crate difftest and the trap-matrix
    /// integration test compare the register machine against it), and the
    /// only way into `crate::tree`: nothing [`Store::call`] reaches runs
    /// any of it. Mirrors [`Store::call`] exactly. Not part of the
    /// supported embedder API.
    #[doc(hidden)]
    pub fn call_tree(
        &mut self,
        handle: InstanceHandle,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        Interp::new(&mut self.instances[handle.0], &self.epoch, self.config)
            .call_function_tree(func_idx, args)
    }

    /// What `handle` has been charged so far: the retired counts per
    /// [`crate::ChargeClass`] and the cycles its host functions charged.
    /// Independent of the simulated core; [`Store::cycles`] and
    /// [`Store::instr_count`] are derived from it.
    #[must_use]
    pub fn charge_counts(&self, handle: InstanceHandle) -> ChargeCounts {
        self.instances[handle.0].counts
    }

    /// Simulated cycles charged to `handle` so far: its counts priced by
    /// the configured core's cost model.
    #[must_use]
    pub fn cycles(&self, handle: InstanceHandle) -> f64 {
        self.price(&self.instances[handle.0].counts)
    }

    /// What `counts` — of one instance, or summed over several of this
    /// store — cost in simulated cycles on the configured core.
    #[must_use]
    pub fn price(&self, counts: &ChargeCounts) -> f64 {
        counts.cycles(&self.weights)
    }

    /// Simulated milliseconds for `handle` on the configured core.
    #[must_use]
    pub fn simulated_ms(&self, handle: InstanceHandle) -> f64 {
        self.config.core.cycles_to_ms(self.cycles(handle))
    }

    /// Instructions retired by `handle`.
    #[must_use]
    pub fn instr_count(&self, handle: InstanceHandle) -> u64 {
        self.instances[handle.0].counts.instr_count()
    }

    /// Resets the cycle/instruction counters of `handle` (between benchmark
    /// phases).
    pub fn reset_counters(&mut self, handle: InstanceHandle) {
        self.instances[handle.0].counts = ChargeCounts::default();
    }

    /// Sets (or clears, with `None`) the fuel budget of `handle` and
    /// zeroes its consumed-fuel counter.
    ///
    /// Fuel is a deterministic preemption mechanism for multi-tenant
    /// serving: one unit is consumed at every control transition of the
    /// dispatch loop (branch taken, function entered or returned
    /// from), and execution traps with [`Trap::FuelExhausted`] when the
    /// budget hits zero — at the identical instruction count and cycle
    /// bits on every run of the same program. Fuel checks ride on the
    /// charge-free control ops, so cycle accounting is unaffected. The
    /// tree-walking reference (`Store::call_tree`) does not implement
    /// fuel; it models wasm semantics, not embedder preemption — the trap
    /// matrix pins the preemption points as literals instead.
    pub fn set_fuel(&mut self, handle: InstanceHandle, fuel: Option<u64>) {
        let inst = &mut self.instances[handle.0];
        inst.fuel = fuel;
        inst.fuel_consumed = 0;
    }

    /// Remaining fuel of `handle` (`None` = unlimited).
    #[must_use]
    pub fn fuel_remaining(&self, handle: InstanceHandle) -> Option<u64> {
        self.instances[handle.0].fuel
    }

    /// Fuel consumed by `handle` since the last [`Store::set_fuel`].
    #[must_use]
    pub fn fuel_consumed(&self, handle: InstanceHandle) -> u64 {
        self.instances[handle.0].fuel_consumed
    }

    /// The store's shared epoch counter. Clone the `Arc` into an embedder
    /// thread and tick it ([`AtomicU64::fetch_add`]) on a timer; guests
    /// whose deadline ([`Store::set_epoch_deadline`]) has passed trap with
    /// [`Trap::EpochInterrupt`] at their next preemption point.
    #[must_use]
    pub fn epoch(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Replaces the store's epoch counter with a shared one, so a single
    /// ticker thread can preempt guests across many stores (one per
    /// serving worker). Existing deadlines are interpreted against the
    /// new counter.
    pub fn set_epoch(&mut self, epoch: Arc<AtomicU64>) {
        self.epoch = epoch;
    }

    /// Current value of the epoch counter.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Ticks the epoch counter by one and returns the new value. Takes
    /// `&self`: callable through the shared `Arc` from any thread.
    pub fn increment_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Sets (or clears, with `None`) the *absolute* epoch deadline of
    /// `handle`: once `current_epoch() >= deadline`, execution traps with
    /// [`Trap::EpochInterrupt`] at the next preemption point.
    ///
    /// Epoch preemption is the wall-clock complement to fuel: the check
    /// rides on the identical charge-free control transitions (branch
    /// taken, function entered or returned from), charges nothing, and so
    /// leaves cycle accounting byte-for-byte untouched — but the *trigger*
    /// is an external timer, not a deterministic count. A deadline at or
    /// below the current epoch traps at the very first preemption point,
    /// which is what the determinism tests pin. Like fuel, the deadline is
    /// cleared by [`Store::reset_instance`], and the tree-walking oracle
    /// does not implement it.
    pub fn set_epoch_deadline(&mut self, handle: InstanceHandle, deadline: Option<u64>) {
        self.instances[handle.0].epoch_deadline = deadline;
    }

    /// The absolute epoch deadline of `handle` (`None` = never).
    #[must_use]
    pub fn epoch_deadline(&self, handle: InstanceHandle) -> Option<u64> {
        self.instances[handle.0].epoch_deadline
    }

    /// Sets the [`InstanceLimits`] policy applied to instances created
    /// *after* this call. Instantiation fails with
    /// [`InstantiateError::LimitExceeded`] when a module's initial memory
    /// or table already exceeds the policy.
    pub fn set_default_limits(&mut self, limits: InstanceLimits) {
        self.default_limits = limits;
    }

    /// The limits policy for subsequently created instances.
    #[must_use]
    pub fn default_limits(&self) -> InstanceLimits {
        self.default_limits
    }

    /// Installs a limits policy on an existing instance. Memory already
    /// grown past a new, tighter `max_memory_pages` is not reclaimed —
    /// the cap bites at the next `memory.grow`.
    pub fn set_instance_limits(&mut self, handle: InstanceHandle, limits: InstanceLimits) {
        let inst = &mut self.instances[handle.0];
        inst.limits = limits;
        if let Some(mem) = inst.memory.as_mut() {
            mem.set_page_limit(limits.max_memory_pages);
        }
    }

    /// Resets `handle` back to its freshly-instantiated state in place:
    /// linear memory (dirty pages re-zeroed and re-tagged, data segments
    /// re-applied), globals, table, counters, fuel and its [`HostState`]
    /// — then re-runs the start function, exactly like a fresh
    /// instantiation would.
    ///
    /// The instance keeps its identity: sandbox tag, memory tag seed, PAC
    /// key and modifier are unchanged, so a reset instance is
    /// bit-identical to the first instance of a fresh store with the same
    /// config (the reset-equivalence difftest oracle pins this). Cost is
    /// O(pages touched since the last reset), not O(memory size).
    ///
    /// # Errors
    ///
    /// Propagates a trapping start function.
    pub fn reset_instance(&mut self, handle: InstanceHandle) -> Result<(), Trap> {
        let module = Arc::clone(&self.instances[handle.0].pre.module);
        {
            let inst = &mut self.instances[handle.0];
            if let Some(mem) = inst.memory.as_mut() {
                mem.reset();
            }
            inst.table.fill(None);
            apply_initial_state(
                &module,
                inst.memory.as_mut(),
                &mut inst.globals,
                &mut inst.table,
            )
            .expect("segment ranges were checked at instantiation");
            inst.counts = ChargeCounts::default();
            inst.fuel = None;
            inst.fuel_consumed = 0;
            // Preemption state is per-checkout embedder policy, cleared
            // like fuel; the resource-limit policy is part of the
            // instance's identity and survives (including the memory's
            // page cap, which `LinearMemory::reset` preserves).
            inst.epoch_deadline = None;
            // Before the start function: what it allocates and prints
            // belongs to the fresh state, as on a first instantiation.
            if let Some(state) = &inst.host_state {
                state.reset();
            }
        }
        if let Some(start) = module.start {
            self.call(handle, start, &[])?;
        }
        Ok(())
    }

    /// The host state `handle` was instantiated with, if it has one of
    /// type `T` (see [`Imports::set_host_state`]).
    #[must_use]
    pub fn host_state<T: HostState>(&self, handle: InstanceHandle) -> Option<&T> {
        let state: &dyn Any = self.instances[handle.0].host_state.as_deref()?;
        state.downcast_ref()
    }

    /// The module an instance was created from (export/type lookups for
    /// typed calls).
    #[must_use]
    pub fn module(&self, handle: InstanceHandle) -> &Module {
        &self.instances[handle.0].pre.module
    }

    /// Read access to an instance's memory.
    #[must_use]
    pub fn memory(&self, handle: InstanceHandle) -> Option<&LinearMemory> {
        self.instances[handle.0].memory.as_ref()
    }

    /// Mutable access to an instance's memory (embedder-side I/O).
    pub fn memory_mut(&mut self, handle: InstanceHandle) -> Option<&mut LinearMemory> {
        self.instances[handle.0].memory.as_mut()
    }

    /// Releases the linear memory of an instance that will never run
    /// again (a serving pool's quarantined slot): instances live as long
    /// as the store, and without this so would the backing store of every
    /// retired one. Later accesses through `handle` trap with "no memory".
    pub fn drop_memory(&mut self, handle: InstanceHandle) {
        self.instances[handle.0].memory = None;
    }

    /// Signs `ptr` with `handle`'s instance key — the runtime-side
    /// operation backing `i64.pointer_sign` (exposed for tests and the
    /// cross-instance experiments).
    #[must_use]
    pub fn sign_pointer(&self, handle: InstanceHandle, ptr: u64) -> u64 {
        let inst = &self.instances[handle.0];
        inst.pac.sign(ptr, inst.pac_modifier)
    }

    /// Authenticates `ptr` under `handle`'s instance key.
    ///
    /// # Errors
    ///
    /// [`Trap::PointerAuth`] when the signature does not verify.
    pub fn auth_pointer(&self, handle: InstanceHandle, ptr: u64) -> Result<u64, Trap> {
        let inst = &self.instances[handle.0];
        Ok(inst.pac.auth(ptr, inst.pac_modifier)?)
    }

    /// Reads an exported global's current value.
    #[must_use]
    pub fn global(&self, handle: InstanceHandle, name: &str) -> Option<Value> {
        let inst = &self.instances[handle.0];
        match inst.pre.module.export(name).map(|e| e.kind) {
            Some(cage_wasm::ExportKind::Global(i)) => inst.globals.get(i as usize).copied(),
            _ => None,
        }
    }

    /// Number of live instances.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use cage_wasm::builder::ModuleBuilder;
    use cage_wasm::{Instr, ValType};

    fn add_module() -> Module {
        let mut b = ModuleBuilder::new();
        let f = b.add_function(
            &[ValType::I64, ValType::I64],
            &[ValType::I64],
            &[],
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I64Add],
        );
        b.export_func("add", f);
        b.build()
    }

    #[test]
    fn instantiate_and_invoke() {
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&add_module(), &Imports::new()).unwrap();
        let out = store
            .invoke(h, "add", &[Value::I64(40), Value::I64(2)])
            .unwrap();
        assert_eq!(out, vec![Value::I64(42)]);
        assert!(store.cycles(h) > 0.0);
        assert!(store.instr_count(h) >= 3);
    }

    #[test]
    fn wrong_arity_or_bad_index_traps_instead_of_panicking() {
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&add_module(), &Imports::new()).unwrap();
        // Too few arguments.
        assert!(matches!(store.invoke(h, "add", &[]), Err(Trap::Host(_))));
        // Too many arguments must not leak extras into the results.
        let args = [Value::I64(1), Value::I64(2), Value::I64(3)];
        assert!(matches!(store.invoke(h, "add", &args), Err(Trap::Host(_))));
        // Out-of-range function index on the raw call API.
        assert!(matches!(store.call(h, 99, &[]), Err(Trap::Host(_))));
        // The instance still works afterwards.
        assert_eq!(
            store
                .invoke(h, "add", &[Value::I64(2), Value::I64(3)])
                .unwrap(),
            vec![Value::I64(5)]
        );
    }

    #[test]
    fn wrong_argument_type_traps_instead_of_reinterpreting() {
        // Untagged slots carry no runtime tag, so the entry check is the
        // only thing standing between a mistyped embedder argument and
        // silent bit reinterpretation.
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&add_module(), &Imports::new()).unwrap();
        let err = store
            .invoke(h, "add", &[Value::F64(2.0), Value::I64(40)])
            .unwrap_err();
        assert!(matches!(err, Trap::Host(_)), "{err}");
        // Still callable with correct types afterwards.
        assert_eq!(
            store
                .invoke(h, "add", &[Value::I64(2), Value::I64(40)])
                .unwrap(),
            vec![Value::I64(42)]
        );
    }

    #[test]
    fn host_result_arity_and_type_mismatches_trap() {
        use crate::host::HostFunc;
        let mut b = ModuleBuilder::new();
        b.import_func("env", "bad_ty", &[], &[ValType::I64]);
        b.import_func("env", "bad_arity", &[], &[ValType::I64]);
        let call_ty = b.add_function(&[], &[ValType::I64], &[], vec![Instr::Call(0)]);
        let call_arity = b.add_function(&[], &[ValType::I64], &[], vec![Instr::Call(1)]);
        b.export_func("call_ty", call_ty);
        b.export_func("call_arity", call_arity);
        let mut imports = Imports::new();
        imports.define(
            "env",
            "bad_ty",
            HostFunc::new(&[], &[ValType::I64], |_, _| Ok(vec![Value::F64(1.0)])),
        );
        imports.define(
            "env",
            "bad_arity",
            HostFunc::new(&[], &[ValType::I64], |_, _| Ok(vec![])),
        );
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&b.build(), &imports).unwrap();
        let err = store.invoke(h, "call_ty", &[]).unwrap_err();
        assert!(matches!(err, Trap::Host(_)), "{err}");
        let err = store.invoke(h, "call_arity", &[]).unwrap_err();
        assert!(matches!(err, Trap::Host(_)), "{err}");
    }

    #[test]
    fn missing_export_is_a_host_trap() {
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&add_module(), &Imports::new()).unwrap();
        assert!(matches!(store.invoke(h, "nope", &[]), Err(Trap::Host(_))));
    }

    #[test]
    fn missing_import_fails_instantiation() {
        let mut b = ModuleBuilder::new();
        b.import_func("env", "ghost", &[], &[]);
        b.add_function(&[], &[], &[], vec![]);
        let mut store = Store::new(ExecConfig::default());
        let err = store.instantiate(&b.build(), &Imports::new()).unwrap_err();
        assert!(matches!(err, InstantiateError::MissingImport { .. }));
    }

    #[test]
    fn sandbox_tag_limit_is_15() {
        let config = ExecConfig {
            variant: Variant::CageSandboxing,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let module = b.build();
        for i in 0..15 {
            store
                .instantiate(&module, &Imports::new())
                .unwrap_or_else(|e| panic!("instance {i}: {e}"));
        }
        let err = store.instantiate(&module, &Imports::new()).unwrap_err();
        assert!(matches!(err, InstantiateError::TooManySandboxes));
    }

    #[test]
    fn a_dropped_memory_returns_its_sandbox_tag() {
        let config = ExecConfig {
            variant: Variant::CageSandboxing,
            ..ExecConfig::default()
        };
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let module = b.build();
        let tag_of = |store: &Store, h| match store.memory(h).unwrap().scheme() {
            TagScheme::ExternalOnly { instance_tag } => instance_tag.value(),
            other => panic!("sandboxed store built {other:?}"),
        };
        let mut store = Store::new(config);
        let handles: Vec<_> = (0..15)
            .map(|_| store.instantiate(&module, &Imports::new()).unwrap())
            .collect();
        let tags: Vec<u8> = handles.iter().map(|&h| tag_of(&store, h)).collect();
        assert_eq!(tags, (1..=15).collect::<Vec<u8>>());
        let full = |store: &mut Store| {
            matches!(
                store.instantiate(&module, &Imports::new()),
                Err(InstantiateError::TooManySandboxes)
            )
        };
        assert!(full(&mut store));
        for victim in [6usize, 0, 14] {
            // The tenant dirties its memory before it is retired: the
            // next holder of the tag must see none of it.
            let mem = store.memory_mut(handles[victim]).unwrap();
            mem.write(64, 0, &[0xEE; 32]).unwrap();
            store.drop_memory(handles[victim]);
            let h = store.instantiate(&module, &Imports::new()).unwrap();
            assert_eq!(tag_of(&store, h), tags[victim], "the freed tag, no other");
            assert!(full(&mut store), "and only that one was free");

            // The instance a fresh store builds under the same tag.
            let mut fresh = Store::new(config);
            let fh = (0..=victim)
                .map(|_| fresh.instantiate(&module, &Imports::new()).unwrap())
                .last()
                .unwrap();
            let recycled = store.memory_mut(h).unwrap();
            let fresh = fresh.memory_mut(fh).unwrap();
            assert_eq!(recycled.scheme(), fresh.scheme());
            assert!(recycled.tags().packed() == fresh.tags().packed());
            assert_eq!(
                (recycled.committed_bytes(), fresh.committed_bytes()),
                (0, 0)
            );
            assert_eq!(recycled.read(64, 0, 32), Ok(vec![0; 32]));
            assert_eq!(fresh.read(64, 0, 32), Ok(vec![0; 32]));
            let size = recycled.size();
            let escape = recycled.write(size, 0, &[1]);
            assert!(matches!(escape, Err(Trap::TagCheck(_))), "{escape:?}");
            assert_eq!(escape, fresh.write(size, 0, &[1]));
            assert_eq!(recycled.committed_bytes(), fresh.committed_bytes());
        }
    }

    #[test]
    fn combined_mode_allows_a_single_instance() {
        let config = ExecConfig {
            variant: Variant::CageFull,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let module = b.build();
        store.instantiate(&module, &Imports::new()).unwrap();
        assert!(matches!(
            store.instantiate(&module, &Imports::new()),
            Err(InstantiateError::TooManySandboxes)
        ));
    }

    #[test]
    fn data_segments_initialise_memory() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_data(64, vec![1, 2, 3]);
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&b.build(), &Imports::new()).unwrap();
        let mem = store.memory(h).unwrap();
        assert_eq!(mem.read_resolved(64, 3), &[1, 2, 3]);
    }

    #[test]
    fn data_segment_out_of_range_rejected() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        b.add_data(cage_wasm::types::PAGE_SIZE - 1, vec![1, 2, 3]);
        let mut store = Store::new(ExecConfig::default());
        assert!(matches!(
            store.instantiate(&b.build(), &Imports::new()),
            Err(InstantiateError::SegmentOutOfRange)
        ));
    }

    #[test]
    fn cross_instance_pointer_signatures_differ() {
        // §4.2: each instance generates its own key, so a pointer signed in
        // one instance fails authentication in another.
        let config = ExecConfig {
            variant: Variant::CagePtrAuth,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let m = add_module();
        let a = store.instantiate(&m, &Imports::new()).unwrap();
        let b = store.instantiate(&m, &Imports::new()).unwrap();
        let signed = store.sign_pointer(a, 0x1000);
        assert!(store.auth_pointer(a, signed).is_ok());
        assert!(store.auth_pointer(b, signed).is_err());
    }

    #[test]
    fn start_function_runs() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let g = b.add_global(ValType::I64, true, Instr::I64Const(0));
        let start = b.add_function(
            &[],
            &[],
            &[],
            vec![Instr::I64Const(99), Instr::GlobalSet(g)],
        );
        let get = b.add_function(&[], &[ValType::I64], &[], vec![Instr::GlobalGet(g)]);
        b.set_start(start);
        b.export_func("get", get);
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&b.build(), &Imports::new()).unwrap();
        assert_eq!(store.invoke(h, "get", &[]).unwrap(), vec![Value::I64(99)]);
    }

    /// A host state that logs what happens to it: resets, and calls of
    /// the `env.tick` import its closure shares.
    #[derive(Debug)]
    struct TickLog(RefCell<Vec<&'static str>>);

    impl HostState for TickLog {
        fn reset(&self) {
            self.0.borrow_mut().push("reset");
        }
    }

    #[test]
    fn reset_instance_rewinds_host_state_before_start_runs() {
        let log = Rc::new(TickLog(RefCell::new(Vec::new())));
        let mut imports = Imports::new();
        let tick = Rc::clone(&log);
        imports.define(
            "env",
            "tick",
            HostFunc::new(&[], &[], move |_, _| {
                tick.0.borrow_mut().push("tick");
                Ok(vec![])
            }),
        );
        imports.set_host_state(log.clone());
        let mut b = ModuleBuilder::new();
        b.import_func("env", "tick", &[], &[]);
        let start = b.add_function(&[], &[], &[], vec![Instr::Call(0)]);
        b.set_start(start);
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&b.build(), &imports).unwrap();
        assert_eq!(*log.0.borrow(), ["tick"]);
        store.reset_instance(h).unwrap();
        assert_eq!(*log.0.borrow(), ["tick", "reset", "tick"]);
        // The store hands back the very state the imports carried, and
        // only under its own type.
        let kept = store.host_state::<TickLog>(h).unwrap();
        assert!(std::ptr::eq(kept, &*log));
        #[derive(Debug)]
        struct Other;
        impl HostState for Other {
            fn reset(&self) {}
        }
        assert!(store.host_state::<Other>(h).is_none());
        let bare = store.instantiate(&add_module(), &Imports::new()).unwrap();
        assert!(store.host_state::<TickLog>(bare).is_none());
    }

    #[test]
    fn reset_counters_zeroes_accounting() {
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&add_module(), &Imports::new()).unwrap();
        store
            .invoke(h, "add", &[Value::I64(1), Value::I64(2)])
            .unwrap();
        assert!(store.cycles(h) > 0.0);
        store.reset_counters(h);
        assert_eq!(store.cycles(h), 0.0);
        assert_eq!(store.instr_count(h), 0);
    }
}
