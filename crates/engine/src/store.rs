//! The store: instances, instantiation, invocation and cycle accounting.
//!
//! A [`Store`] corresponds to one simulated process. It owns up to 15
//! sandboxed instances under MTE sandboxing — the paper's per-process limit
//! (§6.4 "we limit the number of sandboxes in one process to at most 15")
//! — and gives each instance its own PAC key and modifier (§6.3).
//!
//! [`Store::retire`] drops an instance whole, sandbox tag included, and
//! frees its index for the next one, so a store that keeps replacing
//! retired tenants stays the size of its live ones. A handle kept past
//! retirement is stale: it gets a [`Trap::Host`] or `None` where a method
//! can fail, and what each other method's doc states where it cannot.
//! A handle carries the id of the store that issued it, so a handle used
//! with another store is answered exactly as a stale one.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};

use cage_mte::Tag;
use cage_pac::{PacKey, PacSigner, PointerLayout};
use cage_wasm::{FuncType, ImportKind, Module, ValType, ValidationError};
use rand::{Rng, SeedableRng};

use crate::bytecode::{self, RegCode};
use crate::config::ExecConfig;
use crate::cost::{self, ChargeCounts, ClassWeights};
use crate::host::{HostState, Imports, InstanceHost};
use crate::interp::{CallBuffers, Interp};
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
    /// An import resolved to a host function whose declared type is not
    /// the import's.
    ImportType {
        /// Import module namespace.
        module: String,
        /// Import field name.
        name: String,
        /// The type the module imports it at.
        import: Box<FuncType>,
        /// The type the host function declares.
        host: Box<FuncType>,
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
            InstantiateError::ImportType {
                module,
                name,
                import,
                host,
            } => write!(
                f,
                "import {module}.{name} is typed {import}, its host function {host}"
            ),
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

/// Handle to an instance within a [`Store`]: the id of the store that
/// issued it, an index into that store's instance table and the index's
/// generation, which [`Store::retire`] bumps. So a stale handle never
/// reaches the next instance at its index, and a handle used with
/// another store never reaches that store's instance at the same index:
/// both get what a stale handle gets (see [`Store`]). Store ids never
/// repeat within a process. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceHandle {
    store: u64,
    index: u32,
    generation: u32,
}

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
    pub(crate) host: InstanceHost,
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

/// An instance-table entry: its live instance, if any, and generation.
#[derive(Default)]
struct Entry {
    generation: u32,
    instance: Option<Instance>,
}

/// `handle`'s instance in `table`, the instance table of the store `id`,
/// unless the handle is stale or another store's.
fn instance_mut(id: u64, table: &mut [Entry], handle: InstanceHandle) -> Option<&mut Instance> {
    let entry = table.get_mut(handle.index as usize)?;
    let live = handle.store == id && entry.generation == handle.generation;
    entry.instance.as_mut().filter(|_| live)
}

/// What an operation through a stale or foreign [`InstanceHandle`] traps
/// with.
fn stale() -> Trap {
    Trap::Host("stale instance handle: the instance was retired or is another store's".into())
}

/// Source of [`Store`] ids: one per store built, never reused.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

/// What [`Store::module`] answers for a stale handle.
static NO_MODULE: LazyLock<Module> = LazyLock::new(Module::default);

/// The engine store: configuration, cost weights and instances.
///
/// Every [`InstanceHandle`] a store hands out carries the store's id, and
/// every method that takes a handle looks it up through one check of the
/// id and the generation. A handle of another store is therefore refused
/// like a stale one: a [`Trap::Host`] or `None` where the method can
/// fail, its documented default where it cannot, and no change to this
/// store's instances.
pub struct Store {
    /// Process-unique: stamped into every handle this store issues.
    id: u64,
    pub(crate) config: ExecConfig,
    /// Cycles per unit of each charge class, under `config`.
    weights: ClassWeights,
    /// A retired instance leaves its entry empty for the next one.
    instances: Vec<Entry>,
    /// Engine-shared epoch counter for wall-clock preemption: an embedder
    /// thread ticks it, the dispatch loop compares it against per-instance
    /// deadlines at the charge-free preemption points. Shareable across
    /// stores via [`Store::set_epoch`].
    pub(crate) epoch: Arc<AtomicU64>,
    /// Limits applied to instances created after this point.
    default_limits: InstanceLimits,
    rng: rand::rngs::StdRng,
    /// The register tier's arena, frame stack and host-call arguments,
    /// lent to each call in turn and kept across calls. Per store, not
    /// per instance: one call runs at a time, and a set per instance
    /// would be one more long-lived allocation between a pool's memories.
    bufs: CallBuffers,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("config", &self.config)
            .field("instances", &self.instance_count())
            .finish()
    }
}

impl Store {
    /// Creates a store executing under `config`.
    #[must_use]
    pub fn new(config: ExecConfig) -> Self {
        Store {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            weights: cost::class_weights(&config),
            rng: rand::rngs::StdRng::seed_from_u64(config.seed),
            config,
            instances: Vec::new(),
            epoch: Arc::new(AtomicU64::new(0)),
            default_limits: InstanceLimits::default(),
            bufs: CallBuffers::default(),
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
    /// instance is retired ([`Store::retire`]).
    fn tag_scheme(&self) -> Result<TagScheme, InstantiateError> {
        let variant = self.config.variant;
        let (sandbox, internal) = (variant.sandboxed(), variant.provides_memory_safety());
        let held = |scheme: TagScheme| {
            self.instances.iter().any(|e| {
                let memory = e.instance.as_ref().and_then(|i| i.memory.as_ref());
                memory.is_some_and(|m| m.scheme() == scheme)
            })
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

    /// `handle`'s instance, unless the handle is stale or another
    /// store's.
    fn instance(&self, handle: InstanceHandle) -> Option<&Instance> {
        let entry = self.instances.get(handle.index as usize)?;
        let live = handle.store == self.id && entry.generation == handle.generation;
        entry.instance.as_ref().filter(|_| live)
    }

    /// Compiles `module` under the default [`cage_wasm::CompileLimits`]
    /// and instantiates it against `imports`, with no host state:
    /// [`Precompiled::new`] followed by [`Store::instantiate_precompiled`],
    /// for a module that gets one instance. Anything else builds the
    /// [`Precompiled`] itself — once, and under the limits it wants.
    ///
    /// # Errors
    ///
    /// See [`InstantiateError`].
    pub fn instantiate(
        &mut self,
        module: &Module,
        imports: &Imports,
    ) -> Result<InstanceHandle, InstantiateError> {
        self.instantiate_precompiled(&Precompiled::new(module)?, &[imports], None)
    }

    /// Instantiates a [`Precompiled`] template: the per-instance half
    /// only — no validation, no bytecode lowering, no copy of the type or
    /// function table (the instance holds a clone of the template).
    /// Allocates and pre-tags the linear memory, initialises table and
    /// data segments, generates the per-instance PAC key and modifier,
    /// and runs the start function.
    ///
    /// Each function import resolves to the first of `imports` that
    /// defines it, so an earlier set shadows a later one. `host_state`
    /// becomes the instance's own: its host functions reach it through
    /// [`crate::HostContext::state`], [`Store::host_state`] reads it back,
    /// [`Store::reset_instance`] rewinds it and [`Store::retire`] drops
    /// it.
    ///
    /// # Errors
    ///
    /// See [`InstantiateError`] (everything except `Validation` and
    /// `CompileLimit`).
    pub fn instantiate_precompiled(
        &mut self,
        pre: &Precompiled,
        imports: &[&Imports],
        host_state: Option<Box<dyn HostState>>,
    ) -> Result<InstanceHandle, InstantiateError> {
        let module: &Module = &pre.module;
        let mut host_funcs = Vec::new();
        for import in &module.imports {
            let ImportKind::Func(ty) = &import.kind else {
                let kind = format!("{:?}", import.kind);
                return Err(InstantiateError::UnsupportedImport(kind));
            };
            let (module, name) = (&import.module, &import.name);
            // The one type check of a host function: every call after it
            // stages exactly the slots the function declares.
            let ty = &pre.module.types[*ty as usize];
            match imports.iter().find_map(|set| set.resolve(module, name)) {
                Some(f) if f.ty == *ty => host_funcs.push(f),
                Some(f) => {
                    let (import, host) = (Box::new(ty.clone()), Box::new(f.ty.clone()));
                    let (module, name) = (module.clone(), name.clone());
                    return Err(InstantiateError::ImportType {
                        module,
                        name,
                        import,
                        host,
                    });
                }
                None => {
                    let (module, name) = (module.clone(), name.clone());
                    return Err(InstantiateError::MissingImport { module, name });
                }
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
        let mut globals = Vec::with_capacity(module.globals.len());
        apply_initial_state(module, memory.as_mut(), &mut globals, &mut table)?;

        let instance = Instance {
            pre: pre.clone(),
            memory,
            globals,
            table,
            host: InstanceHost {
                funcs: host_funcs,
                state: host_state,
            },
            // A fresh key per instance: leaked signed pointers are useless
            // elsewhere (§4.2).
            pac: PacSigner::new(
                PacKey::generate(&mut self.rng),
                if self.config.variant.uses_mte() {
                    PointerLayout::MtePac
                } else {
                    PointerLayout::PacOnly
                },
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

        // The first empty entry takes the instance, unless it is at the
        // last generation: that one stays retired, so no handle aliases.
        let free = |e: &Entry| e.instance.is_none() && e.generation < u32::MAX;
        let len = self.instances.len();
        let index = self.instances.iter().position(free).unwrap_or(len);
        if index == len {
            self.instances.push(Entry::default());
        }
        let entry = &mut self.instances[index];
        entry.instance = Some(instance);
        let (index, generation) = (index as u32, entry.generation);
        let handle = InstanceHandle {
            store: self.id,
            index,
            generation,
        };
        if let Some(start) = module.start {
            // An instance whose start function trapped is never handed
            // out, so it must not keep its sandbox tag either.
            if let Err(trap) = self.call(handle, start, &[]) {
                self.retire(handle);
                return Err(InstantiateError::Start(trap));
            }
        }
        Ok(handle)
    }

    /// Invokes the export `name` with `args`.
    ///
    /// # Errors
    ///
    /// Traps from guest execution, or a host trap if the export is missing
    /// or `handle` is stale.
    pub fn invoke(
        &mut self,
        handle: InstanceHandle,
        name: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let inst = self.instance(handle).ok_or_else(stale)?;
        let func_idx = match inst.pre.module.export(name).map(|e| e.kind) {
            Some(cage_wasm::ExportKind::Func(i)) => i,
            _ => return Err(Trap::Host(format!("no exported function \"{name}\""))),
        };
        self.call(handle, func_idx, args)
    }

    /// Calls a function by index: executes its SSA-lowered 3-address
    /// bytecode over a per-frame register file, and returns its results
    /// in a new `Vec`: the one allocation the engine makes for a warm
    /// call ([`Store::call_into`] makes none).
    ///
    /// # Errors
    ///
    /// Propagates traps; a host trap when `handle` is stale.
    pub fn call(
        &mut self,
        handle: InstanceHandle,
        func_idx: u32,
        args: &[Value],
    ) -> Result<Vec<Value>, Trap> {
        let funcs = &self.instance(handle).ok_or_else(stale)?.pre.funcs;
        let arity = funcs
            .get(func_idx as usize)
            .map_or(0, |f| f.ty.results.len());
        let mut results = vec![Value::I32(0); arity];
        self.call_into(handle, func_idx, args, &mut results)?;
        Ok(results)
    }

    /// Calls a function by index and writes its results into `results`,
    /// which must hold exactly as many values as the function returns.
    /// The arguments go straight into the callee's parameter registers and
    /// the results straight into the slice; the register arena, the frame
    /// stack and the host-call staging are the store's, kept across calls
    /// (capacity only, trimmed after a call that grew them past a fixed
    /// bound). So once the store has run a call of the same shape, this
    /// allocates nothing on the engine's side.
    ///
    /// # Errors
    ///
    /// Propagates traps; a host trap when `handle` is stale, `func_idx` is
    /// out of range or `args` or `results` do not fit its signature. On a
    /// trap, `results` is left as it was.
    pub fn call_into(
        &mut self,
        handle: InstanceHandle,
        func_idx: u32,
        args: &[Value],
        results: &mut [Value],
    ) -> Result<(), Trap> {
        let inst = instance_mut(self.id, &mut self.instances, handle).ok_or_else(stale)?;
        Interp::new(inst, &self.epoch, self.config, &mut self.bufs)
            .call_into(func_idx, args, results)
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
        let inst = instance_mut(self.id, &mut self.instances, handle).ok_or_else(stale)?;
        Interp::new(inst, &self.epoch, self.config, &mut self.bufs)
            .call_function_tree(func_idx, args)
    }

    /// What `handle` has been charged so far: the counts per
    /// [`crate::ChargeClass`] and its host functions' eighth-cycles, all
    /// independent of the simulated core. [`Store::cycles`] and
    /// [`Store::instr_count`] are derived from it. Zero for a stale handle.
    #[must_use]
    pub fn charge_counts(&self, handle: InstanceHandle) -> ChargeCounts {
        self.instance(handle).map(|i| i.counts).unwrap_or_default()
    }

    /// Simulated cycles charged to `handle` so far: its counts priced by
    /// the configured core's cost model (0 for a stale handle).
    #[must_use]
    pub fn cycles(&self, handle: InstanceHandle) -> f64 {
        self.price(&self.charge_counts(handle))
    }

    /// What `counts` — of one instance, or summed over several of this
    /// store — cost in simulated cycles on the configured core.
    #[must_use]
    pub fn price(&self, counts: &ChargeCounts) -> f64 {
        counts.cycles(&self.weights)
    }

    /// Simulated milliseconds for `handle` on the configured core (0 if stale).
    #[must_use]
    pub fn simulated_ms(&self, handle: InstanceHandle) -> f64 {
        self.config.core.cycles_to_ms(self.cycles(handle))
    }

    /// Instructions retired by `handle` (0 for a stale handle).
    #[must_use]
    pub fn instr_count(&self, handle: InstanceHandle) -> u64 {
        self.charge_counts(handle).instr_count()
    }

    /// Resets the cycle/instruction counters of `handle` (between benchmark
    /// phases). Does nothing through a stale handle.
    pub fn reset_counters(&mut self, handle: InstanceHandle) {
        if let Some(inst) = instance_mut(self.id, &mut self.instances, handle) {
            inst.counts = ChargeCounts::default();
        }
    }

    /// Sets (or clears, with `None`) the fuel budget of `handle` and
    /// zeroes its consumed-fuel counter (neither, if `handle` is stale).
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
        if let Some(inst) = instance_mut(self.id, &mut self.instances, handle) {
            inst.fuel = fuel;
            inst.fuel_consumed = 0;
        }
    }

    /// Remaining fuel of `handle` (`None`: unlimited, or `handle` is stale).
    #[must_use]
    pub fn fuel_remaining(&self, handle: InstanceHandle) -> Option<u64> {
        self.instance(handle)?.fuel
    }

    /// Fuel consumed by `handle` since the last [`Store::set_fuel`] (0 if stale).
    #[must_use]
    pub fn fuel_consumed(&self, handle: InstanceHandle) -> u64 {
        self.instance(handle).map_or(0, |inst| inst.fuel_consumed)
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
    /// [`Trap::EpochInterrupt`] at the next preemption point. Does nothing
    /// through a stale handle.
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
        if let Some(inst) = instance_mut(self.id, &mut self.instances, handle) {
            inst.epoch_deadline = deadline;
        }
    }

    /// Sets the [`InstanceLimits`] policy applied to instances created
    /// *after* this call. Instantiation fails with
    /// [`InstantiateError::LimitExceeded`] when a module's initial memory
    /// or table already exceeds the policy.
    pub fn set_default_limits(&mut self, limits: InstanceLimits) {
        self.default_limits = limits;
    }

    /// Installs a limits policy on an existing instance (not a stale one).
    /// Memory already grown past a new, tighter `max_memory_pages` is not
    /// reclaimed — the cap bites at the next `memory.grow`.
    pub fn set_instance_limits(&mut self, handle: InstanceHandle, limits: InstanceLimits) {
        if let Some(inst) = instance_mut(self.id, &mut self.instances, handle) {
            inst.limits = limits;
            if let Some(mem) = inst.memory.as_mut() {
                mem.set_page_limit(limits.max_memory_pages);
            }
        }
    }

    /// Resets `handle` back to its freshly-instantiated state in place:
    /// linear memory (the 64-byte lines written re-zeroed, the 4 KiB
    /// blocks retagged re-tagged, data segments re-applied), globals, table, counters, fuel and its
    /// [`HostState`] — then re-runs the start function, exactly like a
    /// fresh instantiation would.
    ///
    /// The instance keeps its identity: sandbox tag, memory tag seed, PAC
    /// key and modifier are unchanged, so a reset instance is
    /// bit-identical to the first instance of a fresh store with the same
    /// config (the reset-equivalence difftest oracle pins this). Cost is
    /// O(lines written and blocks retagged since the last reset), not
    /// O(memory size).
    ///
    /// # Errors
    ///
    /// Propagates a trapping start function; a host trap if `handle` is stale.
    pub fn reset_instance(&mut self, handle: InstanceHandle) -> Result<(), Trap> {
        let inst = instance_mut(self.id, &mut self.instances, handle).ok_or_else(stale)?;
        let module = Arc::clone(&inst.pre.module);
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
        if let Some(state) = &inst.host.state {
            state.reset();
        }
        if let Some(start) = module.start {
            self.call(handle, start, &[])?;
        }
        Ok(())
    }

    /// Retires `handle`'s instance (if live) for good: drops all of it —
    /// memory and sandbox tag, globals, table, host functions, host state —
    /// and frees its index for the next instance, under a new generation.
    /// The memory's buffers go to this thread's spares, cleaned, unless it
    /// grew or the spares are full (see [`LinearMemory`]'s "Recycled
    /// memories"): the next instantiation of the same memory size on the
    /// thread, in this store or any other, is built from them and cannot
    /// tell.
    pub fn retire(&mut self, handle: InstanceHandle) {
        if self.contains(handle) {
            let entry = &mut self.instances[handle.index as usize];
            entry.instance = None;
            entry.generation += 1;
        }
    }

    /// The host state `handle` was instantiated with, if it has one of
    /// type `T` (see [`Store::instantiate_precompiled`]).
    #[must_use]
    pub fn host_state<T: HostState>(&self, handle: InstanceHandle) -> Option<&T> {
        let state: &dyn Any = self.instance(handle)?.host.state.as_deref()?;
        state.downcast_ref()
    }

    /// The module an instance was created from (export/type lookups for
    /// typed calls); an empty module, with no exports, for a stale handle.
    #[must_use]
    pub fn module(&self, handle: InstanceHandle) -> &Module {
        self.instance(handle).map_or(&NO_MODULE, |i| &i.pre.module)
    }

    /// Read access to an instance's memory.
    #[must_use]
    pub fn memory(&self, handle: InstanceHandle) -> Option<&LinearMemory> {
        self.instance(handle)?.memory.as_ref()
    }

    /// Mutable access to an instance's memory (embedder-side I/O).
    pub fn memory_mut(&mut self, handle: InstanceHandle) -> Option<&mut LinearMemory> {
        instance_mut(self.id, &mut self.instances, handle)?
            .memory
            .as_mut()
    }

    /// Signs `ptr` with `handle`'s instance key — the runtime-side
    /// operation backing `i64.pointer_sign` (exposed for tests and the
    /// cross-instance experiments). A stale handle has no key: `ptr`
    /// comes back unsigned.
    #[must_use]
    pub fn sign_pointer(&self, handle: InstanceHandle, ptr: u64) -> u64 {
        self.instance(handle)
            .map_or(ptr, |inst| inst.pac.sign(ptr, inst.pac_modifier))
    }

    /// Authenticates `ptr` under `handle`'s instance key.
    ///
    /// # Errors
    ///
    /// [`Trap::PointerAuth`] when the signature does not verify; a host
    /// trap when `handle` is stale.
    pub fn auth_pointer(&self, handle: InstanceHandle, ptr: u64) -> Result<u64, Trap> {
        let inst = self.instance(handle).ok_or_else(stale)?;
        Ok(inst.pac.auth(ptr, inst.pac_modifier)?)
    }

    /// Reads an exported global's current value.
    #[must_use]
    pub fn global(&self, handle: InstanceHandle, name: &str) -> Option<Value> {
        let inst = self.instance(handle)?;
        match inst.pre.module.export(name).map(|e| e.kind) {
            Some(cage_wasm::ExportKind::Global(i)) => inst.globals.get(i as usize).copied(),
            _ => None,
        }
    }

    /// Whether `handle` names a live instance of this store: `false` for a
    /// stale handle and for another store's.
    #[must_use]
    pub fn contains(&self, handle: InstanceHandle) -> bool {
        self.instance(handle).is_some()
    }

    /// The handles of the live instances, in index order.
    pub fn handles(&self) -> impl Iterator<Item = InstanceHandle> + '_ {
        let live = |(index, e): (u32, &Entry)| {
            let (store, generation) = (self.id, e.generation);
            e.instance.as_ref().map(|_| InstanceHandle {
                store,
                index,
                generation,
            })
        };
        (0..).zip(&self.instances).filter_map(live)
    }

    /// Number of live instances: made and not yet retired.
    #[must_use]
    pub fn instance_count(&self) -> usize {
        self.handles().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::host::{HostContext, HostFunc};
    use cage_wasm::builder::ModuleBuilder;
    use cage_wasm::{Instr, ValType};
    use std::cell::RefCell;
    use std::rc::Rc;

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
        // A result slot overwritten with another type traps at the
        // boundary, on the dispatch loop, the tree oracle and the entry.
        let mut b = ModuleBuilder::new();
        b.import_func("env", "bad_ty", &[], &[ValType::I64]);
        let call_ty = b.add_function(&[], &[ValType::I64], &[], vec![Instr::Call(0)]);
        b.export_func("call_ty", call_ty);
        let module = b.build();
        let mut imports = Imports::new();
        imports.define(
            "env",
            "bad_ty",
            HostFunc::new(&[], &[ValType::I64], |_, _, out| {
                out[0] = Value::F64(1.0);
                Ok(())
            }),
        );
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&module, &imports).unwrap();
        for err in [
            store.invoke(h, "call_ty", &[]).unwrap_err(),
            store.call_tree(h, call_ty, &[]).unwrap_err(),
            store.call(h, 0, &[]).unwrap_err(),
        ] {
            assert_eq!(
                err,
                Trap::Host("host function result 0 declares I64, got F64".into())
            );
        }
        // A host function of another arity does not link: its type is
        // checked once, at instantiation.
        let mut imports = Imports::new();
        imports.define("env", "bad_ty", HostFunc::new(&[], &[], |_, _, _| Ok(())));
        let err = store.instantiate(&module, &imports).unwrap_err();
        assert!(
            matches!(&err, InstantiateError::ImportType { module, name, import, host }
                if module == "env" && name == "bad_ty"
                    && import.results == [ValType::I64] && host.results.is_empty()),
            "{err}"
        );
        assert_eq!(store.instance_count(), 1);
    }

    #[test]
    fn a_result_slot_left_unwritten_reads_zero_of_its_type() {
        let mut b = ModuleBuilder::new();
        let mut imports = Imports::new();
        for (i, ty) in [ValType::I32, ValType::F32, ValType::F64]
            .into_iter()
            .enumerate()
        {
            let name = format!("zero{i}");
            b.import_func("env", &name, &[], &[ty]);
            imports.define("env", &name, HostFunc::new(&[], &[ty], |_, _, _| Ok(())));
        }
        let call = b.add_function(&[], &[ValType::F64], &[], vec![Instr::Call(2)]);
        b.export_func("call", call);
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&b.build(), &imports).unwrap();
        assert_eq!(store.call(h, 0, &[]), Ok(vec![Value::I32(0)]));
        assert_eq!(store.call(h, 1, &[]), Ok(vec![Value::F32(0.0)]));
        assert_eq!(store.invoke(h, "call", &[]), Ok(vec![Value::F64(0.0)]));
        assert_eq!(store.call_tree(h, call, &[]), Ok(vec![Value::F64(0.0)]));
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
    fn a_retired_instance_returns_its_sandbox_tag() {
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
            store.retire(handles[victim]);
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

    /// A module with a memory, an exported global, an export `add` and
    /// an export `tick` that calls the host function `env.tick`, and
    /// imports that define `env.tick` as a tick on the calling instance's
    /// [`TickLog`].
    fn tenant() -> (Module, Imports) {
        let mut b = ModuleBuilder::new();
        b.import_func("env", "tick", &[], &[]);
        b.add_memory64(1);
        let g = b.add_global(ValType::I64, true, Instr::I64Const(5));
        b.export_global("g", g);
        let tick = b.add_function(&[], &[], &[], vec![Instr::Call(0)]);
        b.export_func("tick", tick);
        let add = b.add_function(
            &[ValType::I64, ValType::I64],
            &[ValType::I64],
            &[],
            vec![Instr::LocalGet(0), Instr::LocalGet(1), Instr::I64Add],
        );
        b.export_func("add", add);
        let mut imports = Imports::new();
        imports.define("env", "tick", HostFunc::new(&[], &[], log_tick));
        (b.build(), imports)
    }

    /// A host function that logs a tick on the calling instance's
    /// [`TickLog`], and traps when it has none.
    fn log_tick(ctx: &mut HostContext<'_>, _: &[Value], _: &mut [Value]) -> Result<(), Trap> {
        let log = ctx.state::<TickLog>().ok_or(Trap::Unreachable)?;
        log.0.borrow_mut().push("tick");
        Ok(())
    }

    /// Instantiates `module` against `imports` with a [`TickLog`] over
    /// `log` as its host state.
    fn with_log(
        store: &mut Store,
        module: &Module,
        imports: &Imports,
        log: &Rc<RefCell<Vec<&'static str>>>,
    ) -> Result<InstanceHandle, InstantiateError> {
        let pre = Precompiled::new(module)?;
        let state = Box::new(TickLog(Rc::clone(log)));
        store.instantiate_precompiled(&pre, &[imports], Some(state))
    }

    #[test]
    fn a_retired_instance_drops_its_host_state_and_host_functions() {
        let log = Rc::default();
        let (module, imports) = tenant();
        let tick = imports.resolve("env", "tick").unwrap();
        let mut store = Store::new(ExecConfig::default());
        let h = with_log(&mut store, &module, &imports, &log).unwrap();
        store.invoke(h, "tick", &[]).unwrap();
        // The host state, and the host function (which captures none).
        assert_eq!((Rc::strong_count(&log), Rc::strong_count(&tick)), (2, 3));
        store.retire(h);
        let counts = (Rc::strong_count(&log), Rc::strong_count(&tick));
        assert_eq!(counts, (1, 2), "the store keeps nothing of either");
        assert_eq!(*log.borrow(), ["tick"]);
        assert_eq!(store.instance_count(), 0);
    }

    #[test]
    fn a_host_function_of_an_instance_without_state_sees_none() {
        let (module, imports) = tenant();
        let mut store = Store::new(ExecConfig::default());
        let bare = store.instantiate(&module, &imports).unwrap();
        assert_eq!(store.invoke(bare, "tick", &[]), Err(Trap::Unreachable));
        // The entry path (a host function called directly) too.
        assert_eq!(store.call(bare, 0, &[]), Err(Trap::Unreachable));
        let log = Rc::default();
        let h = with_log(&mut store, &module, &imports, &log).unwrap();
        store.invoke(h, "tick", &[]).unwrap();
        store.call(h, 0, &[]).unwrap();
        assert_eq!(*log.borrow(), ["tick", "tick"]);
    }

    #[test]
    fn two_instances_of_one_import_set_keep_their_own_host_state() {
        let (module, imports) = tenant();
        let (log_a, log_b) = (Rc::default(), Rc::default());
        let mut store = Store::new(ExecConfig::default());
        let a = with_log(&mut store, &module, &imports, &log_a).unwrap();
        let b = with_log(&mut store, &module, &imports, &log_b).unwrap();
        store.invoke(a, "tick", &[]).unwrap();
        store.invoke(b, "tick", &[]).unwrap();
        store.invoke(b, "tick", &[]).unwrap();
        store.reset_instance(a).unwrap();
        assert_eq!(*log_a.borrow(), ["tick", "reset"]);
        assert_eq!(*log_b.borrow(), ["tick", "tick"]);
    }

    #[test]
    fn a_stale_handle_traps_or_answers_none() {
        let log = Rc::default();
        let (module, imports) = tenant();
        let mut store = Store::new(ExecConfig::default());
        let h = with_log(&mut store, &module, &imports, &log).unwrap();
        store.set_fuel(h, Some(100));
        store.invoke(h, "tick", &[]).unwrap();
        assert!(store.memory(h).is_some() && store.global(h, "g").is_some());
        store.retire(h);

        fn host<T>(r: Result<T, Trap>) -> bool {
            matches!(r, Err(Trap::Host(_)))
        }
        let args = [Value::I64(1), Value::I64(2)];
        assert!(host(store.call(h, 2, &args)));
        let mut out = [Value::I64(7)];
        assert!(host(store.call_into(h, 2, &args, &mut out)));
        assert_eq!(out, [Value::I64(7)], "results untouched");
        assert!(host(store.invoke(h, "add", &args)));
        assert!(host(store.call_tree(h, 2, &args)));
        assert!(host(store.reset_instance(h)));
        assert!(host(store.auth_pointer(h, 0x1000)));
        assert!(store.memory(h).is_none());
        assert!(store.memory_mut(h).is_none());
        assert!(store.host_state::<TickLog>(h).is_none());
        assert!(store.global(h, "g").is_none());
        // The infallible accessors answer what their docs say, and the
        // setters change nothing.
        store.set_fuel(h, Some(9));
        store.set_epoch_deadline(h, Some(9));
        store.set_instance_limits(h, InstanceLimits::default());
        store.reset_counters(h);
        assert_eq!(store.charge_counts(h), ChargeCounts::default());
        assert_eq!((store.cycles(h), store.simulated_ms(h)), (0.0, 0.0));
        assert_eq!(store.instr_count(h), 0);
        assert_eq!((store.fuel_remaining(h), store.fuel_consumed(h)), (None, 0));
        assert_eq!(store.sign_pointer(h, 0x1000), 0x1000);
        assert!(store.module(h).exports.is_empty());
        store.retire(h);
        assert_eq!(store.instance_count(), 0);
        assert_eq!(store.handles().count(), 0);
    }

    #[test]
    fn another_stores_handle_is_refused_like_a_stale_one() {
        let (module, imports) = tenant();
        let (log1, log2) = (Rc::default(), Rc::default());
        let mut s1 = Store::new(ExecConfig::default());
        let mut s2 = Store::new(ExecConfig::default());
        let h1 = with_log(&mut s1, &module, &imports, &log1).unwrap();
        let h2 = with_log(&mut s2, &module, &imports, &log2).unwrap();
        // Both sit at index 0, generation 0: only the store id differs.
        assert_eq!((h1.index, h1.generation), (h2.index, h2.generation));
        assert_ne!(h1, h2);
        assert_eq!(std::mem::size_of::<InstanceHandle>(), 16);
        s2.invoke(h2, "tick", &[]).unwrap();
        s2.set_fuel(h2, Some(100));
        let counts = s2.charge_counts(h2);
        let memory: *const LinearMemory = s2.memory(h2).unwrap();

        fn host<T>(r: Result<T, Trap>) -> bool {
            matches!(r, Err(Trap::Host(_)))
        }
        let args = [Value::I64(1), Value::I64(2)];
        assert!(host(s2.invoke(h1, "add", &args)));
        assert!(host(s2.invoke(h1, "tick", &[])));
        assert!(host(s2.call(h1, 2, &args)));
        let mut out = [Value::I64(7)];
        assert!(host(s2.call_into(h1, 2, &args, &mut out)));
        assert_eq!(out, [Value::I64(7)], "results untouched");
        assert!(host(s2.call_tree(h1, 2, &args)));
        assert!(host(s2.reset_instance(h1)));
        let signed = s2.sign_pointer(h2, 0x1000);
        assert!(host(s2.auth_pointer(h1, signed)));
        assert_eq!(s2.sign_pointer(h1, 0x1000), 0x1000);
        assert!(s2.memory(h1).is_none() && s2.memory_mut(h1).is_none());
        assert!(s2.host_state::<TickLog>(h1).is_none());
        assert!(s2.global(h1, "g").is_none());
        assert!(s2.module(h1).exports.is_empty());
        assert!(!s2.contains(h1) && s2.contains(h2));
        s2.set_fuel(h1, Some(9));
        s2.set_epoch_deadline(h1, Some(0));
        s2.set_instance_limits(h1, InstanceLimits::default());
        s2.reset_counters(h1);
        assert_eq!(s2.charge_counts(h1), ChargeCounts::default());
        assert_eq!((s2.fuel_remaining(h1), s2.fuel_consumed(h1)), (None, 0));
        s2.retire(h1);

        // s2's own tenant is as it was: live, not reset, not re-armed.
        assert_eq!(s2.handles().collect::<Vec<_>>(), [h2]);
        assert_eq!(*log2.borrow(), ["tick"]);
        assert!(log1.borrow().is_empty());
        assert_eq!(s2.charge_counts(h2), counts);
        assert_eq!(s2.fuel_remaining(h2), Some(100));
        assert!(std::ptr::eq(s2.memory(h2).unwrap(), memory));
        assert_eq!(s2.invoke(h2, "add", &args), Ok(vec![Value::I64(3)]));
        // And h1 still answers in the store that issued it.
        assert_eq!(s1.invoke(h1, "add", &args), Ok(vec![Value::I64(3)]));
        assert_eq!(s1.auth_pointer(h1, s1.sign_pointer(h1, 0x1000)), Ok(0x1000));
    }

    #[test]
    fn an_instance_that_reuses_a_retired_index_is_unreachable_through_the_old_handle() {
        let log = Rc::default();
        let (module, imports) = tenant();
        let config = ExecConfig {
            variant: Variant::CageFull,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let old = with_log(&mut store, &module, &imports, &log).unwrap();
        store.retire(old);
        let new = with_log(&mut store, &module, &imports, &log).unwrap();
        assert_eq!(new.index, old.index, "the freed index is reused");
        assert_ne!(new, old);
        assert_eq!(store.handles().collect::<Vec<_>>(), [new]);

        store.invoke(new, "tick", &[]).unwrap();
        assert!(store.instr_count(new) > 0);
        assert_eq!(store.charge_counts(old), ChargeCounts::default());
        assert!(store.memory(new).is_some() && store.memory(old).is_none());
        assert!(store.host_state::<TickLog>(new).is_some());
        assert!(store.host_state::<TickLog>(old).is_none());
        assert_eq!(store.global(new, "g"), Some(Value::I64(5)));
        assert_eq!(store.global(old, "g"), None);
        let signed = store.sign_pointer(new, 0x1000);
        assert_ne!(store.sign_pointer(old, 0x1000), signed);
        assert_eq!(store.auth_pointer(new, signed), Ok(0x1000));
        assert!(matches!(
            store.auth_pointer(old, signed),
            Err(Trap::Host(_))
        ));
        // A call through the old handle neither runs nor charges the new
        // tenant.
        let counts = store.charge_counts(new);
        assert!(store.invoke(old, "tick", &[]).is_err());
        assert_eq!(store.charge_counts(new), counts);
        assert_eq!(*log.borrow(), ["tick"]);
        // Retiring the old handle again leaves the new tenant in place.
        store.retire(old);
        assert_eq!(store.instance_count(), 1);
        assert_eq!(
            store.invoke(new, "add", &[Value::I64(2), Value::I64(3)]),
            Ok(vec![Value::I64(5)])
        );
    }

    #[test]
    fn a_thousand_retirements_leave_the_instance_table_one_entry_long() {
        let config = ExecConfig {
            variant: Variant::CageFull,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        let mut h = store.instantiate(&add_module(), &Imports::new()).unwrap();
        for round in 0..1_000 {
            store.retire(h);
            h = store
                .instantiate(&add_module(), &Imports::new())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert_eq!(store.instances.len(), 1);
        assert_eq!(store.instance_count(), 1);
        assert_eq!(h.generation, 1_000);
    }

    #[test]
    fn an_instance_whose_start_function_traps_keeps_no_sandbox_tag() {
        let mut b = ModuleBuilder::new();
        b.add_memory64(1);
        let start = b.add_function(&[], &[], &[], vec![Instr::Unreachable]);
        b.set_start(start);
        let config = ExecConfig {
            variant: Variant::CageFull,
            ..ExecConfig::default()
        };
        let mut store = Store::new(config);
        for _ in 0..2 {
            let err = store.instantiate(&b.module().clone(), &Imports::new());
            assert!(matches!(err, Err(InstantiateError::Start(_))), "{err:?}");
        }
        assert_eq!(store.instance_count(), 0);
        assert!(store.instantiate(&add_module(), &Imports::new()).is_ok());
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

    /// A host state that logs what happens to it, into a log the test
    /// keeps: resets, and calls of the `env.tick` import.
    #[derive(Debug)]
    struct TickLog(Rc<RefCell<Vec<&'static str>>>);

    impl HostState for TickLog {
        fn reset(&self) {
            self.0.borrow_mut().push("reset");
        }
    }

    #[test]
    fn reset_instance_rewinds_host_state_before_start_runs() {
        let log = Rc::default();
        let mut imports = Imports::new();
        imports.define("env", "tick", HostFunc::new(&[], &[], log_tick));
        let mut b = ModuleBuilder::new();
        b.import_func("env", "tick", &[], &[]);
        let start = b.add_function(&[], &[], &[], vec![Instr::Call(0)]);
        b.set_start(start);
        let mut store = Store::new(ExecConfig::default());
        let h = with_log(&mut store, &b.build(), &imports, &log).unwrap();
        assert_eq!(*log.borrow(), ["tick"]);
        store.reset_instance(h).unwrap();
        assert_eq!(*log.borrow(), ["tick", "reset", "tick"]);
        // The store hands back the very state it was given, and only
        // under its own type.
        let kept = store.host_state::<TickLog>(h).unwrap();
        assert!(Rc::ptr_eq(&kept.0, &log));
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
    fn a_deep_wide_call_leaves_the_store_no_more_than_the_kept_arena() {
        // A function of 300 parameters (a frame of at least 300 slots)
        // that calls itself with them forever: at the default depth limit
        // its arena holds at least 38 400 slots, more than twice what the
        // store keeps.
        let params = [ValType::I64; 300];
        let mut b = ModuleBuilder::new();
        let mut body: Vec<Instr> = (0..300).map(Instr::LocalGet).collect();
        body.push(Instr::Call(0));
        let deep = b.add_function(&params, &[], &[], body);
        let small = b.add_function(
            &[ValType::I64],
            &[ValType::I64],
            &[],
            vec![Instr::LocalGet(0)],
        );
        let mut store = Store::new(ExecConfig::default());
        let h = store.instantiate(&b.build(), &Imports::new()).unwrap();
        let inst = store.instance(h).unwrap();
        let frame = usize::from(inst.pre.funcs[deep as usize].reg.frame_size);
        let peak = frame * DEFAULT_MAX_CALL_DEPTH;
        assert!(peak >= 38_400, "a frame of {frame} slots");

        let args = vec![Value::I64(1); 300];
        let err = store.call(h, deep, &args).unwrap_err();
        assert_eq!(err, Trap::CallStackExhausted);
        let kept = store.bufs.kept_reg_slots();
        assert!(kept <= crate::interp::KEPT_REG_SLOTS, "kept {kept} slots");
        assert!(kept < peak, "kept {kept} slots: the call's peak");
        // The trimmed buffers serve the next call, which keeps them there.
        assert_eq!(
            store.call(h, small, &[Value::I64(3)]),
            Ok(vec![Value::I64(3)])
        );
        assert!(store.bufs.kept_reg_slots() <= crate::interp::KEPT_REG_SLOTS);
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
