//! The embedder API: [`Engine`], [`Artifact`], [`Instance`] and
//! [`TypedFunc`] — the wasmtime-style embedding model.
//!
//! An `Engine` is the shared, cheaply-cloneable compilation environment:
//! variant, simulated core, cost model, memory/stack sizing and the pass
//! pipeline. One engine compiles any number of [`Artifact`]s; an artifact
//! is compiled all the way down to register bytecode, once, and
//! instantiates any number of times without compiling anything again —
//! against the engine's default libc linker, a custom [`Linker`], into a
//! shared [`Runtime`] for multi-instance processes under the §6.4 MTE
//! tag budget, or as the template of serving pools
//! ([`Engine::instance_pre`]).

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cage_engine::store::InstantiateError;
use cage_engine::trap::panic_message;
use cage_engine::{CostModel, ExecConfig, Precompiled, WasmParams, WasmResults};
use cage_ir::passes::{HardenConfig, OptLevel, PipelineConfig};
use cage_mte::Core;
use cage_runtime::{InstanceToken, Linker, MemoryReport, Runtime, Variant};
use cage_wasm::{CompileLimits, ValType};

use crate::error::Error;
use crate::Value;

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
            pipeline: PipelineConfig::standard(variant.harden_config()),
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

    /// The configured pass pipeline.
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

    /// The cycle cost model for this engine's core and configuration.
    #[must_use]
    pub fn cost_model(&self) -> CostModel {
        CostModel::for_config(&self.exec_config())
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
    /// [`compile_panic_count`], and reported as
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
            Err(payload) => {
                COMPILE_PANICS.fetch_add(1, Ordering::Relaxed);
                Err(Error::CompilePanic {
                    message: panic_message(&*payload),
                })
            }
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
            heap_base: lowered.heap_base,
            variant: self.inner.variant,
            memory_pages: self.inner.memory_pages,
        })
    }

    /// A fresh simulated process (engine store) for this configuration —
    /// instantiate several artifacts into it to share the §6.4 sandbox-tag
    /// budget.
    #[must_use]
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.inner.variant, self.inner.core)
    }

    /// Checks that `artifact` was compiled for the variant this engine
    /// runs: its hardening instructions would not match the execution
    /// config otherwise.
    fn check_variant(&self, artifact: &Artifact) -> Result<(), Error> {
        if artifact.variant == self.inner.variant {
            return Ok(());
        }
        Err(Error::VariantMismatch {
            artifact: artifact.variant.to_string(),
            engine: self.inner.variant.to_string(),
        })
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
        self.check_variant(artifact)?;
        Ok(cage_serve::InstancePre::from_precompiled(
            self.inner.variant,
            self.inner.core,
            artifact.pre.clone(),
            artifact.heap_base,
            host,
        ))
    }

    /// Instantiates `artifact` in its own process with the hardened libc:
    /// a fresh [`Runtime`] and one instance stamped from the artifact's
    /// precompiled module.
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
        self.check_variant(artifact)?;
        let mut rt = self.runtime();
        let token = rt.instantiate_precompiled(&artifact.pre, artifact.heap_base, linker)?;
        Ok(Instance::new(rt, token))
    }
}

/// Configures an [`Engine`] beyond the variant defaults.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    variant: Variant,
    core: Core,
    memory_pages: u64,
    stack_size: u64,
    pipeline: PipelineConfig,
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

    /// Overrides the sanitizer passes (defaults to the variant's own).
    #[must_use]
    pub fn passes(mut self, harden: HardenConfig) -> Self {
        self.pipeline.harden = harden;
        self
    }

    /// Selects how much of the optimiser precedes the sanitizers
    /// ([`OptLevel::Standard`] by default). The default pipeline's output
    /// is pinned byte-for-byte by the PolyBench cycle golden file;
    /// [`OptLevel::Full`] has its own golden variant (charges follow the
    /// surviving ops), and [`OptLevel::None`] is for ablations.
    #[must_use]
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.pipeline.opt_level = level;
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
                pipeline: self.pipeline,
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
    pub(crate) heap_base: u64,
    pub(crate) variant: Variant,
    pub(crate) memory_pages: u64,
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

    /// First heap byte (where the hardened allocator starts).
    #[must_use]
    pub fn heap_base(&self) -> u64 {
        self.heap_base
    }

    /// The variant this artifact was compiled for.
    #[must_use]
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Linear-memory pages the module declares.
    #[must_use]
    pub fn memory_pages(&self) -> u64 {
        self.memory_pages
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

    /// Instantiates into an existing runtime against `linker` — the
    /// multi-instance path sharing one store's MTE tag budget (§6.4).
    ///
    /// # Errors
    ///
    /// [`Error::VariantMismatch`] when `rt` runs a different variant than
    /// this artifact was compiled for, and [`Error::Instantiate`] —
    /// including `TooManySandboxes` past the 15-instance limit.
    pub fn instantiate_into(
        &self,
        rt: &mut Runtime,
        linker: &Linker,
    ) -> Result<InstanceToken, Error> {
        if rt.variant() != self.variant {
            return Err(Error::VariantMismatch {
                artifact: self.variant.to_string(),
                engine: rt.variant().to_string(),
            });
        }
        Ok(rt.instantiate_precompiled(&self.pre, self.heap_base, linker)?)
    }
}

/// A live instance with its runtime.
pub struct Instance {
    rt: Runtime,
    token: InstanceToken,
    /// Process-unique identity: lets a [`TypedFunc`] detect being called
    /// on a different instance than the one that validated it.
    id: u64,
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("variant", &self.rt.variant())
            .finish()
    }
}

/// Source of unique [`Instance`] identities.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(0);

/// Compile stages that panicked and were caught at the
/// [`Engine::compile`] boundary (each one is a toolchain bug — the
/// pipeline is supposed to reject every input with a structured error).
static COMPILE_PANICS: AtomicU64 = AtomicU64::new(0);

/// How many [`Engine::compile`] calls have ever panicked inside a
/// compile stage (and been converted to [`Error::CompilePanic`]).
/// Process-wide, monotonic — the fuzz harness asserts it stays zero.
#[must_use]
pub fn compile_panic_count() -> u64 {
    COMPILE_PANICS.load(Ordering::Relaxed)
}

impl Instance {
    /// Wraps a freshly instantiated (runtime, token) pair.
    pub(crate) fn new(rt: Runtime, token: InstanceToken) -> Self {
        Instance {
            rt,
            token,
            id: NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Invokes an exported C function with untyped values.
    ///
    /// Prefer [`Instance::get_typed`] for statically-known signatures.
    ///
    /// # Errors
    ///
    /// [`Error::Trap`] on guest traps (memory-safety violations
    /// included) — the same unified error type as the typed path.
    pub fn invoke(&mut self, name: &str, args: &[Value]) -> Result<Vec<Value>, Error> {
        Ok(self.rt.invoke(self.token, name, args)?)
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
        check_signature::<Params, Results>(self.rt.module(self.token), name)?;
        Ok(TypedFunc {
            name: name.to_string(),
            instance_id: self.id,
            _marker: PhantomData,
        })
    }

    /// The exported function names and their signatures, in module order.
    #[must_use]
    pub fn exports(&self) -> Vec<(String, String)> {
        list_exports(self.rt.module(self.token))
    }

    /// Captured `print_*` output.
    #[must_use]
    pub fn stdout(&self) -> String {
        self.rt.stdout(self.token)
    }

    /// Simulated milliseconds on the configured core.
    #[must_use]
    pub fn simulated_ms(&self) -> f64 {
        self.rt.simulated_ms(self.token)
    }

    /// What the instance has been charged: the retired counts per
    /// [`cage_engine::ChargeClass`] (each class knows its name) and the
    /// cycles its host functions charged. The counts do not depend on the
    /// simulated core: price them with
    /// [`cage_engine::CostModel::class_weights`] of any core's
    /// configuration to see where the cycles went there.
    #[must_use]
    pub fn charge_counts(&self) -> cage_engine::ChargeCounts {
        self.rt.charge_counts(self.token)
    }

    /// Simulated cycles: [`Instance::charge_counts`] priced on the
    /// configured core.
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.rt.cycles(self.token)
    }

    /// Instructions retired.
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.rt.instr_count(self.token)
    }

    /// Resets timing counters (between benchmark phases).
    pub fn reset_counters(&mut self) {
        self.rt.reset_counters(self.token);
    }

    /// Memory report (§7.3 accounting).
    #[must_use]
    pub fn memory_report(&self) -> MemoryReport {
        self.rt.memory_report(self.token)
    }

    /// The underlying runtime (advanced use).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.rt
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

/// Checks that `module` exports `name` as a function whose signature
/// matches `Params` / `Results`.
fn check_signature<Params, Results>(module: &cage_wasm::Module, name: &str) -> Result<(), Error>
where
    Params: WasmParams,
    Results: WasmResults,
{
    let export = module.export(name).ok_or_else(|| Error::MissingExport {
        name: name.to_string(),
    })?;
    let cage_wasm::ExportKind::Func(idx) = export.kind else {
        return Err(Error::NotAFunction {
            name: name.to_string(),
        });
    };
    let ty = module.func_type(idx).ok_or_else(|| Error::NotAFunction {
        name: name.to_string(),
    })?;
    let requested_params = Params::val_types();
    let requested_results = Results::val_types();
    if ty.params != requested_params || ty.results != requested_results {
        return Err(Error::SignatureMismatch {
            name: name.to_string(),
            requested: render_sig(&requested_params, &requested_results),
            actual: render_sig(&ty.params, &ty.results),
        });
    }
    Ok(())
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
/// Created by [`Instance::get_typed`], which validates the signature once;
/// calls then convert arguments and results without `&[Value]`
/// boilerplate.
pub struct TypedFunc<Params, Results> {
    name: String,
    /// The [`Instance`] the signature was validated against.
    instance_id: u64,
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
            instance_id: self.instance_id,
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
    /// The handle is bound to the instance that created it; calling with
    /// a *different* instance re-validates the signature against that
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
        if instance.id != self.instance_id {
            check_signature::<Params, Results>(instance.rt.module(instance.token), &self.name)?;
        }
        let out = instance
            .rt
            .invoke(instance.token, &self.name, &params.into_values())?;
        Results::from_values(&out).ok_or_else(|| Error::SignatureMismatch {
            name: self.name.clone(),
            requested: render_sig(&Params::val_types(), &Results::val_types()),
            actual: "a result of a different shape".to_string(),
        })
    }
}
