//! The embedder API: [`Engine`], [`Artifact`], [`Instance`] and
//! [`TypedFunc`] — the wasmtime-style embedding model.
//!
//! An `Engine` is the shared, cheaply-cloneable compilation environment:
//! variant, simulated core, cost model, memory/stack sizing and the pass
//! pipeline. One engine compiles any number of [`Artifact`]s; an artifact
//! is compiled all the way down to register bytecode, once, and
//! instantiates any number of times without compiling anything again —
//! against the engine's default libc linker, a custom [`Linker`], into a
//! shared engine [`Store`] for multi-instance processes under the §6.4
//! MTE tag budget, or as the template of serving pools
//! ([`Engine::instance_pre`]).

use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use cage_engine::store::InstantiateError;
use cage_engine::trap::caught_compile_panic;
use cage_engine::{ExecConfig, InstanceHandle, Precompiled, Store, WasmParams, WasmResults};
use cage_ir::passes::{OptLevel, PipelineConfig};
use cage_libc::Libc;
use cage_mte::Core;
use cage_wasm::{CompileLimits, ValType};

use crate::error::Error;
use crate::runtime::{MemoryReport, Runtime};
use crate::{Linker, Value, Variant};

/// The shared compilation environment (cheap to clone, wasmtime-style).
///
/// ```
/// use cage::{Engine, Variant};
///
/// # fn main() -> Result<(), cage::Error> {
/// let engine = Engine::new(Variant::CageFull);
/// let artifact = engine.compile("long f(long x) { return x * 2; }")?;
/// let mut instance = engine.instantiate(&artifact)?;
/// let f = instance.get_typed::<i64, i64>("f")?;
/// assert_eq!(f.call(&mut instance, 21)?, 42);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

#[derive(Debug)]
struct EngineInner {
    variant: Variant,
    core: Core,
    memory_pages: u64,
    stack_size: u64,
    pipeline: PipelineConfig,
    limits: CompileLimits,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("variant", &self.inner.variant)
            .field("core", &self.inner.core)
            .field("memory_pages", &self.inner.memory_pages)
            .field("stack_size", &self.inner.stack_size)
            .field("pipeline", &self.inner.pipeline)
            .finish()
    }
}

impl Engine {
    /// An engine with the standard configuration for `variant`: the
    /// Cortex-X3 core, 64 pages of linear memory, a 64 KiB shadow stack
    /// and the variant's own pass pipeline.
    #[must_use]
    pub fn new(variant: Variant) -> Self {
        Engine::builder(variant).build()
    }

    /// Starts configuring an engine for `variant`.
    #[must_use]
    pub fn builder(variant: Variant) -> EngineBuilder {
        EngineBuilder {
            variant,
            core: Core::CortexX3,
            memory_pages: 64,
            stack_size: 64 * 1024,
            opt_level: OptLevel::Standard,
            limits: CompileLimits::default(),
        }
    }

    /// The Table 3 variant.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.inner.variant
    }

    /// The simulated Tensor G3 core.
    #[must_use]
    pub fn core(&self) -> Core {
        self.inner.core
    }

    /// Linear memory in 64 KiB pages.
    #[must_use]
    pub fn memory_pages(&self) -> u64 {
        self.inner.memory_pages
    }

    /// Shadow-stack bytes.
    #[must_use]
    pub fn stack_size(&self) -> u64 {
        self.inner.stack_size
    }

    /// The pass pipeline: the builder's optimisation level, then the
    /// sanitizers of the variant's Table 3 row.
    #[must_use]
    pub fn pipeline(&self) -> PipelineConfig {
        self.inner.pipeline
    }

    /// The compile limits every [`Engine::compile`] runs under.
    #[must_use]
    pub fn compile_limits(&self) -> CompileLimits {
        self.inner.limits
    }

    /// The execution configuration instances run under.
    #[must_use]
    pub fn exec_config(&self) -> ExecConfig {
        self.inner.variant.exec_config(self.inner.core)
    }

    /// Compiles and hardens C `source` into an [`Artifact`]: frontend,
    /// passes, lowering to wasm, the module's one validation, and the
    /// register lowering of every function — the artifact holds the
    /// bytecode its instances will execute, so instantiating it compiles
    /// nothing.
    ///
    /// Every stage runs under the engine's [`CompileLimits`] and a
    /// shared compile-fuel budget, so arbitrary (hostile) source is
    /// rejected with a structured error instead of wedging the process.
    /// A residual panic in any stage is caught here, counted in
    /// [`crate::compile_panic_count`], and reported as
    /// [`Error::CompilePanic`] — never propagated to the caller's
    /// thread.
    ///
    /// # Errors
    ///
    /// [`Error::Compile`] / [`Error::Lower`] / [`Error::Validate`] on
    /// malformed input, [`Error::LimitExceeded`] on oversized input,
    /// [`Error::CompilePanic`] if a stage panicked (a toolchain bug).
    pub fn compile(&self, source: &str) -> Result<Artifact, Error> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.compile_inner(source)))
        {
            Ok(result) => result,
            Err(payload) => Err(Error::CompilePanic {
                message: caught_compile_panic(&*payload),
            }),
        }
    }

    /// The compile pipeline proper: frontend → passes → lowering →
    /// validation → register bytecode, one limit policy and one fuel
    /// budget across all of it. [`Engine::compile`] wraps this in the
    /// panic backstop.
    fn compile_inner(&self, source: &str) -> Result<Artifact, Error> {
        let limits = self.inner.limits;
        let fuel = limits.fuel();
        let ptr_bytes = self.inner.variant.ptr_width().bytes();
        let ast = cage_cc::parse_with(source, &limits, &fuel)?;
        let mut ir_module =
            cage_cc::codegen::compile_ast_for_with(&ast, ptr_bytes, &limits, &fuel)?;
        // Each stage's input is dropped as soon as the next form exists,
        // not at the end: later stages then allocate out of what the
        // earlier ones freed, instead of the whole pipeline's garbage
        // being handed back at once — which glibc makes the next large
        // allocation pay for (the first instantiation's memory
        // reservation: 262 us after a large unit, measured).
        drop(ast);
        cage_ir::passes::run_pipeline_config_fueled(&mut ir_module, &self.inner.pipeline, &fuel)?;
        let lowered = cage_ir::lower_with_limits(
            &ir_module,
            &cage_ir::LowerOptions {
                ptr_width: self.inner.variant.ptr_width(),
                memory_pages: self.inner.memory_pages,
                stack_size: self.inner.stack_size,
            },
            &limits,
            &fuel,
        )?;
        drop(ir_module);
        let pre = Precompiled::compile(lowered.module, &limits, &fuel).map_err(|e| match e {
            InstantiateError::Validation(v) => Error::Validate(v),
            other => Error::from(other),
        })?;
        Ok(Artifact {
            pre,
            variant: self.inner.variant,
        })
    }

    /// A fresh [`Runtime`] for this configuration.
    // Kept for cage-bench's two call sites until the benchmark changes (ROADMAP item 7).
    #[doc(hidden)]
    #[must_use]
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.exec_config())
    }

    /// Wraps `artifact` as a `Send + Sync` serving template, stamped out
    /// by per-worker [`cage_serve::Pool`]s. The artifact is already
    /// compiled, so this shares it and compiles nothing.
    ///
    /// # Errors
    ///
    /// [`Error::VariantMismatch`] when the artifact was compiled for a
    /// different variant.
    pub fn instance_pre(
        &self,
        artifact: &Artifact,
        host: cage_serve::HostProfile,
    ) -> Result<cage_serve::InstancePre, Error> {
        artifact.check_variant(self.inner.variant)?;
        Ok(cage_serve::InstancePre::from_precompiled(
            self.inner.variant,
            self.inner.core,
            artifact.pre.clone(),
            host,
        ))
    }

    /// Instantiates `artifact` in its own process with the hardened libc:
    /// a fresh [`Store`] and one instance stamped from the artifact's
    /// precompiled module. For several instances in one process, build
    /// the store yourself (`Store::new(engine.exec_config())`) and use
    /// [`Artifact::instantiate_into`].
    ///
    /// # Errors
    ///
    /// [`Error::Instantiate`].
    pub fn instantiate(&self, artifact: &Artifact) -> Result<Instance, Error> {
        self.instantiate_with(artifact, &Linker::with_libc())
    }

    /// Instantiates `artifact` in its own process against `linker`.
    ///
    /// # Errors
    ///
    /// [`Error::VariantMismatch`] when the artifact was compiled for a
    /// different variant than this engine runs (its hardening
    /// instructions would not match the execution config), and
    /// [`Error::Instantiate`] — including unresolved imports when the
    /// linker does not cover the module's host surface.
    pub fn instantiate_with(
        &self,
        artifact: &Artifact,
        linker: &Linker,
    ) -> Result<Instance, Error> {
        let mut store = Store::new(self.exec_config());
        let handle = artifact.instantiate_into(&mut store, linker)?;
        Ok(Instance { store, handle })
    }
}

/// Configures an [`Engine`] beyond the variant defaults.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    variant: Variant,
    core: Core,
    memory_pages: u64,
    stack_size: u64,
    opt_level: OptLevel,
    limits: CompileLimits,
}

impl EngineBuilder {
    /// Selects the simulated core.
    #[must_use]
    pub fn core(mut self, core: Core) -> Self {
        self.core = core;
        self
    }

    /// Sets linear memory size in 64 KiB pages.
    #[must_use]
    pub fn memory_pages(mut self, pages: u64) -> Self {
        self.memory_pages = pages;
        self
    }

    /// Sets the shadow-stack size in bytes.
    #[must_use]
    pub fn stack_size(mut self, bytes: u64) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Selects how much of the optimiser precedes the sanitizers
    /// ([`OptLevel::Standard`] by default). The default pipeline's output
    /// is pinned byte-for-byte by the PolyBench cycle golden file;
    /// [`OptLevel::Full`] has its own golden variant (charges follow the
    /// surviving ops), and [`OptLevel::None`] is for ablations.
    #[must_use]
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Overrides the compile limits (defaults to
    /// [`CompileLimits::default`] — generous, but bounded). Use
    /// [`CompileLimits::unlimited`] only for trusted input.
    #[must_use]
    pub fn limits(mut self, limits: CompileLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Finishes the engine.
    #[must_use]
    pub fn build(self) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                variant: self.variant,
                core: self.core,
                memory_pages: self.memory_pages,
                stack_size: self.stack_size,
                pipeline: PipelineConfig {
                    opt_level: self.opt_level,
                    harden: self.variant.harden_config(),
                },
                limits: self.limits,
            }),
        }
    }
}

/// A compiled, hardened module ready to instantiate: the validated wasm
/// module together with the register bytecode of every function, shared
/// behind `Arc`s (a clone is a handful of reference counts).
#[derive(Debug, Clone)]
pub struct Artifact {
    pub(crate) pre: Precompiled,
    pub(crate) variant: Variant,
}

impl Artifact {
    /// The wasm module.
    #[must_use]
    pub fn module(&self) -> &cage_wasm::Module {
        self.pre.module()
    }

    /// The precompiled template every instance of this artifact is
    /// stamped from (raw [`cage_engine::Store`] embedding, per-function
    /// disassembly).
    #[must_use]
    pub fn precompiled(&self) -> &Precompiled {
        &self.pre
    }

    /// The variant this artifact was compiled for.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Linear-memory pages the module declares.
    #[must_use]
    pub fn memory_pages(&self) -> u64 {
        self.module().memory_type().map_or(0, |m| m.limits.min)
    }

    /// Serialises to the binary format (with Cage's `0xFB` instructions).
    #[must_use]
    pub fn wasm_bytes(&self) -> Vec<u8> {
        cage_wasm::binary::encode(self.module())
    }

    /// The exported function names and their signatures, in module order —
    /// available without instantiating (no host surface required).
    #[must_use]
    pub fn exports(&self) -> Vec<(String, String)> {
        list_exports(self.module())
    }

    /// Disassembles the register bytecode this artifact holds for the
    /// exported function `name` — the code its instances execute, not a
    /// fresh lowering: program counters, ops, resolved branch targets and
    /// charge recipes (the `cagec --dump-bytecode` backend).
    ///
    /// Returns `None` when `name` is not an exported local function
    /// (imported host functions have no bytecode).
    #[must_use]
    pub fn disassemble(&self, name: &str) -> Option<String> {
        match self.module().export(name)?.kind {
            cage_wasm::ExportKind::Func(idx) => self.pre.disassemble(idx),
            _ => None,
        }
    }

    /// Instantiates into an existing engine store against `linker` — the
    /// multi-instance path sharing one store's MTE tag budget (§6.4).
    ///
    /// # Errors
    ///
    /// [`Error::VariantMismatch`] when `store` runs a different variant
    /// than this artifact was compiled for, and [`Error::Instantiate`] —
    /// including `TooManySandboxes` past the 15-instance limit.
    pub fn instantiate_into(
        &self,
        store: &mut Store,
        linker: &Linker,
    ) -> Result<InstanceHandle, Error> {
        self.check_variant(store.config().variant)?;
        Ok(linker.instantiate(store, &self.pre)?)
    }

    /// Checks that this artifact was compiled for `variant`: its
    /// hardening instructions would not match the execution config
    /// otherwise.
    fn check_variant(&self, variant: Variant) -> Result<(), Error> {
        if self.variant == variant {
            return Ok(());
        }
        Err(Error::VariantMismatch {
            artifact: self.variant.to_string(),
            engine: variant.to_string(),
        })
    }
}

/// A live instance with its own engine store. Its handle names that
/// store, so it equals no other instance's handle.
#[derive(Debug)]
pub struct Instance {
    store: Store,
    handle: InstanceHandle,
}

impl Instance {
    /// Invokes an exported C function with untyped values.
    ///
    /// Prefer [`Instance::get_typed`] for statically-known signatures.
    ///
    /// # Errors
    ///
    /// The caller's mistakes as [`Instance::get_typed`] reports them —
    /// [`Error::MissingExport`], [`Error::NotAFunction`], or
    /// [`Error::SignatureMismatch`] when `args` are not of the export's
    /// parameter types — and [`Error::Trap`] on guest traps
    /// (memory-safety violations included).
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Error> {
        let (func_idx, ty) = exported_func(self.store.module(self.handle), name)?;
        if !args.iter().map(Value::ty).eq(ty.params.iter().copied()) {
            let arg_types: Vec<ValType> = args.iter().map(Value::ty).collect();
            return Err(Error::SignatureMismatch {
                name: name.to_string(),
                requested: render_sig(&arg_types, &ty.results),
                actual: render_sig(&ty.params, &ty.results),
            });
        }
        Ok(self.store.call(self.handle, func_idx, args)?)
    }

    /// Creates a typed handle to the export `name`, checking the module's
    /// signature against `Params` / `Results` once.
    ///
    /// # Errors
    ///
    /// [`Error::MissingExport`], [`Error::NotAFunction`], or
    /// [`Error::SignatureMismatch`] with both signatures rendered.
    pub fn get_typed<Params, Results>(
        &self,
        name: &str,
    ) -> Result<TypedFunc<Params, Results>, Error>
    where
        Params: WasmParams,
        Results: WasmResults,
    {
        let func_idx = check_signature::<Params, Results>(self.store.module(self.handle), name)?;
        Ok(TypedFunc {
            name: name.to_string(),
            func_idx,
            handle: self.handle,
            _marker: PhantomData,
        })
    }

    /// The exported function names and their signatures, in module order.
    #[must_use]
    pub fn exports(&self) -> Vec<(String, String)> {
        list_exports(self.store.module(self.handle))
    }

    /// Captured `print_*` output.
    #[must_use]
    pub fn stdout(&self) -> String {
        self.store
            .host_state::<Libc>(self.handle)
            .map(Libc::stdout)
            .unwrap_or_default()
    }

    /// Simulated milliseconds on the configured core.
    #[must_use]
    pub fn simulated_ms(&self) -> f64 {
        self.store.simulated_ms(self.handle)
    }

    /// What the instance has been charged: the counts per
    /// [`cage_engine::ChargeClass`] (each class knows its name) and its
    /// host functions' eighth-cycles. None of it depends on the
    /// simulated core: price it with
    /// [`cage_engine::cost::class_weights`] of any core's
    /// configuration to see where the cycles went there.
    #[must_use]
    pub fn charge_counts(&self) -> cage_engine::ChargeCounts {
        self.store.charge_counts(self.handle)
    }

    /// Simulated cycles: [`Instance::charge_counts`] priced on the
    /// configured core.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.store.cycles(self.handle)
    }

    /// Instructions retired.
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.store.instr_count(self.handle)
    }

    /// Resets timing counters (between benchmark phases).
    pub fn reset_counters(&mut self) {
        self.store.reset_counters(self.handle);
    }

    /// Memory report (§7.3 accounting).
    #[must_use]
    pub fn memory_report(&self) -> MemoryReport {
        let stats = self.store.host_state::<Libc>(self.handle).map(Libc::stats);
        MemoryReport::collect(self.store.memory(self.handle), stats.unwrap_or_default())
    }
}

/// Renders a function signature for diagnostics.
fn render_sig(params: &[ValType], results: &[ValType]) -> String {
    let list = |tys: &[ValType]| {
        tys.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!("({}) -> ({})", list(params), list(results))
}

/// The function index and type of `module`'s exported function `name`.
fn exported_func<'m>(
    module: &'m cage_wasm::Module,
    name: &str,
) -> Result<(u32, &'m cage_wasm::FuncType), Error> {
    let export = module.export(name).ok_or_else(|| Error::MissingExport {
        name: name.to_string(),
    })?;
    let not_a_function = || Error::NotAFunction {
        name: name.to_string(),
    };
    let cage_wasm::ExportKind::Func(idx) = export.kind else {
        return Err(not_a_function());
    };
    Ok((idx, module.func_type(idx).ok_or_else(not_a_function)?))
}

/// Checks that `module` exports `name` as a function whose signature
/// matches `Params` / `Results`, and returns its function index.
fn check_signature<Params, Results>(module: &cage_wasm::Module, name: &str) -> Result<u32, Error>
where
    Params: WasmParams,
    Results: WasmResults,
{
    let (idx, ty) = exported_func(module, name)?;
    let requested_params = Params::val_types();
    let requested_results = Results::val_types();
    if ty.params != requested_params || ty.results != requested_results {
        return Err(Error::SignatureMismatch {
            name: name.to_string(),
            requested: render_sig(&requested_params, &requested_results),
            actual: render_sig(&ty.params, &ty.results),
        });
    }
    Ok(idx)
}

/// Lists a module's exported functions with rendered signatures.
fn list_exports(module: &cage_wasm::Module) -> Vec<(String, String)> {
    module
        .exports
        .iter()
        .filter_map(|e| match e.kind {
            cage_wasm::ExportKind::Func(idx) => {
                let sig = module
                    .func_type(idx)
                    .map(|t| render_sig(&t.params, &t.results))
                    .unwrap_or_else(|| "?".to_string());
                Some((e.name.clone(), sig))
            }
            _ => None,
        })
        .collect()
}

/// A typed handle to one exported function of an [`Instance`].
///
/// Created by [`Instance::get_typed`], which validates the signature once
/// and resolves the export to its function index; calls on that instance
/// then go straight to the index, with no name search and no `&[Value]`
/// boilerplate.
pub struct TypedFunc<Params, Results> {
    name: String,
    /// The function index `get_typed` resolved `name` to.
    func_idx: u32,
    /// The handle of the [`Instance`] the signature was validated against.
    handle: InstanceHandle,
    _marker: PhantomData<fn(Params) -> Results>,
}

impl<Params, Results> fmt::Debug for TypedFunc<Params, Results> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedFunc")
            .field("name", &self.name)
            .finish()
    }
}

impl<Params, Results> Clone for TypedFunc<Params, Results> {
    fn clone(&self) -> Self {
        TypedFunc {
            name: self.name.clone(),
            func_idx: self.func_idx,
            handle: self.handle,
            _marker: PhantomData,
        }
    }
}

impl<Params, Results> TypedFunc<Params, Results>
where
    Params: WasmParams,
    Results: WasmResults,
{
    /// The export name this handle is bound to.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Calls the function on `instance`.
    ///
    /// The handle is bound to the instance that created it: it keeps that
    /// instance's [`InstanceHandle`], which names the instance's own store,
    /// and calls the function index resolved there when `instance`'s
    /// handle is the same. Calling with a *different* instance
    /// re-resolves the name and re-validates the signature against that
    /// instance's module first, so a mismatched module surfaces as
    /// [`Error::SignatureMismatch`] (never a panic inside the engine).
    /// The re-check runs on every such call — in a hot loop over another
    /// instance, create a handle with that instance's
    /// [`Instance::get_typed`] instead.
    ///
    /// # Errors
    ///
    /// [`Error::Trap`] on guest traps; [`Error::MissingExport`] /
    /// [`Error::SignatureMismatch`] when called on an incompatible
    /// instance.
    pub fn call(&self, instance: &mut Instance, params: Params) -> Result<Results, Error> {
        let func_idx = if instance.handle == self.handle {
            self.func_idx
        } else {
            check_signature::<Params, Results>(instance.store.module(instance.handle), &self.name)?
        };
        let out = instance
            .store
            .call(instance.handle, func_idx, &params.into_values())?;
        Results::from_values(&out).ok_or_else(|| Error::SignatureMismatch {
            name: self.name.clone(),
            requested: render_sig(&Params::val_types(), &Results::val_types()),
            actual: "a result of a different shape".to_string(),
        })
    }
}
