//! Execution configuration: which Table 3 variant runs, on which core.
//!
//! The paper evaluates Cage as the six configurations of Table 3 and
//! deploys MTE in synchronous mode (§6.3). Those six are the whole safety
//! configuration space the engine models: [`Variant`] writes the table
//! down once, and everything that depends on a column — the memory's tag
//! scheme, the PAC pointer layout, the pointer sign/auth arms, the
//! allocator's tagging charge, the startup report and the cost weights —
//! asks the variant.

use cage_ir::passes::HardenConfig;
use cage_ir::PtrWidth;
use cage_mte::Core;

/// One row of the paper's Table 3.
///
/// | Variant            | Ptr width | Internal | External | Ptr auth |
/// |--------------------|-----------|----------|----------|----------|
/// | `BaselineWasm32`   | 32-bit    | No       | No       | No       |
/// | `BaselineWasm64`   | 64-bit    | No       | No       | No       |
/// | `CageMemSafety`    | 64-bit    | Yes      | No       | No       |
/// | `CagePtrAuth`      | 64-bit    | No       | No       | Yes      |
/// | `CageSandboxing`   | 64-bit    | No       | Yes      | No       |
/// | `CageFull`         | 64-bit    | Yes      | Yes      | Yes      |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variant {
    /// `baseline wasm32`: guard-page sandboxing.
    BaselineWasm32,
    /// `baseline wasm64`: software bounds checks.
    BaselineWasm64,
    /// `Cage-mem-safety`: internal memory safety over software bounds.
    CageMemSafety,
    /// `Cage-ptr-auth`: pointer authentication only.
    CagePtrAuth,
    /// `Cage-sandboxing`: MTE replaces the bounds checks.
    CageSandboxing,
    /// `Cage`: everything combined.
    CageFull,
}

impl Variant {
    /// All variants in Table 3 order.
    pub const ALL: [Variant; 6] = [
        Variant::BaselineWasm32,
        Variant::BaselineWasm64,
        Variant::CageMemSafety,
        Variant::CagePtrAuth,
        Variant::CageSandboxing,
        Variant::CageFull,
    ];

    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::BaselineWasm32 => "baseline wasm32",
            Variant::BaselineWasm64 => "baseline wasm64",
            Variant::CageMemSafety => "Cage-mem-safety",
            Variant::CagePtrAuth => "Cage-ptr-auth",
            Variant::CageSandboxing => "Cage-sandboxing",
            Variant::CageFull => "Cage",
        }
    }

    /// The "Ptr width" column: the compilation pointer width.
    #[must_use]
    pub fn ptr_width(self) -> PtrWidth {
        match self {
            Variant::BaselineWasm32 => PtrWidth::W32,
            _ => PtrWidth::W64,
        }
    }

    /// The "Internal" column: hardware MTE implements segments — the
    /// hardened allocator and the stack sanitizer tag allocations, and
    /// tag-checked accesses catch overflows and use-after-free (the Table 2
    /// "mitigated" column). Elsewhere segment instructions are inert.
    #[must_use]
    pub fn provides_memory_safety(self) -> bool {
        matches!(self, Variant::CageMemSafety | Variant::CageFull)
    }

    /// The "External" column: MTE sandboxing (Fig. 12b/13) — guest memory
    /// carries the instance tag, indices are masked and the hardware tag
    /// check replaces the bounds check.
    #[must_use]
    pub fn sandboxed(self) -> bool {
        matches!(self, Variant::CageSandboxing | Variant::CageFull)
    }

    /// The "Ptr auth" column: `i64.pointer_sign`/`auth` really sign,
    /// instead of acting as moves.
    #[must_use]
    pub fn pointer_auth(self) -> bool {
        matches!(self, Variant::CagePtrAuth | Variant::CageFull)
    }

    /// Whether every access pays an explicit software bounds check: a
    /// 64-bit memory without MTE sandboxing (§3). A 32-bit memory relies on
    /// guard pages, whose fault is free until it fires.
    #[must_use]
    pub fn bounds_checked(self) -> bool {
        self.ptr_width() == PtrWidth::W64 && !self.sandboxed()
    }

    /// Whether the variant uses MTE at all (internally, externally or
    /// both): what decides the tag store, the PAC layout and the
    /// instantiation-time tagging pass.
    #[must_use]
    pub fn uses_mte(self) -> bool {
        self.provides_memory_safety() || self.sandboxed()
    }

    /// Which sanitizer passes the toolchain runs for this variant.
    #[must_use]
    pub fn harden_config(self) -> HardenConfig {
        HardenConfig {
            stack_safety: self.provides_memory_safety(),
            ptr_auth: self.pointer_auth(),
        }
    }

    /// The engine configuration on `core`.
    #[must_use]
    pub fn exec_config(self, core: Core) -> ExecConfig {
        ExecConfig {
            variant: self,
            core,
            ..ExecConfig::default()
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// The Table 3 row enforced.
    pub variant: Variant,
    /// Core whose timing is simulated.
    pub core: Core,
    /// RNG seed for tag and key generation (determinism for benches).
    pub seed: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            variant: Variant::BaselineWasm64,
            core: Core::CortexX3,
            seed: 0xCA9E,
        }
    }
}

impl ExecConfig {
    /// Returns the configuration with a different simulated core.
    #[must_use]
    pub fn on_core(mut self, core: Core) -> Self {
        self.core = core;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Variant::*;

    #[test]
    fn default_is_wasm64_software_bounds() {
        let c = ExecConfig::default();
        assert_eq!(c.variant, BaselineWasm64);
        assert!(c.variant.bounds_checked());
        assert!(!c.variant.pointer_auth());
        assert!(!c.variant.uses_mte());
    }

    #[test]
    fn on_core_swaps_only_the_core() {
        let c = CageFull
            .exec_config(Core::CortexX3)
            .on_core(Core::CortexA510);
        assert_eq!(c.core, Core::CortexA510);
        assert_eq!(c.variant, CageFull);
        assert_eq!(c.seed, ExecConfig::default().seed);
    }

    #[test]
    fn table3_rows_match_paper() {
        // (variant, ptr width, internal, external, ptr auth), and the
        // software bounds check that follows: guard pages for wasm32, the
        // tag check under sandboxing.
        let rows = [
            (BaselineWasm32, PtrWidth::W32, false, false, false, false),
            (BaselineWasm64, PtrWidth::W64, false, false, false, true),
            (CageMemSafety, PtrWidth::W64, true, false, false, true),
            (CagePtrAuth, PtrWidth::W64, false, false, true, true),
            (CageSandboxing, PtrWidth::W64, false, true, false, false),
            (CageFull, PtrWidth::W64, true, true, true, false),
        ];
        for (v, width, internal, external, auth, bounds) in rows {
            assert_eq!(
                (
                    v.ptr_width(),
                    v.provides_memory_safety(),
                    v.sandboxed(),
                    v.pointer_auth(),
                    v.bounds_checked()
                ),
                (width, internal, external, auth, bounds),
                "{v}"
            );
        }
    }

    /// Table 3 → the memory an instance actually gets. The store is the
    /// one place that turns a variant into a `TagScheme` and the memory
    /// the one place that turns the scheme into a policy; a variant that
    /// uses no MTE gets a memory that checks nothing.
    #[test]
    fn every_variant_instantiates_a_memory_under_its_scheme_and_mode() {
        use crate::{Imports, Store, TagScheme};
        use cage_mte::Tag;
        let mut b = cage_wasm::builder::ModuleBuilder::new();
        b.add_memory64(1);
        let module = b.build();
        let first_sandbox = TagScheme::ExternalOnly {
            instance_tag: Tag::new(1).unwrap(),
        };
        // (variant, scheme, uses MTE, segments live)
        let rows = [
            (BaselineWasm32, TagScheme::None, false, false),
            (BaselineWasm64, TagScheme::None, false, false),
            (CageMemSafety, TagScheme::InternalOnly, true, true),
            (CagePtrAuth, TagScheme::None, false, false),
            (CageSandboxing, first_sandbox, true, false),
            (CageFull, TagScheme::Combined, true, true),
        ];
        for (variant, scheme, uses_mte, segments_live) in rows {
            let config = variant.exec_config(Core::CortexX3);
            assert_eq!(config.variant.uses_mte(), uses_mte, "{variant}");
            let mut store = Store::new(config);
            let h = store.instantiate(&module, &Imports::new()).unwrap();
            let mem = store.memory(h).unwrap();
            assert_eq!(mem.scheme(), scheme, "{variant}");
            assert_eq!(
                (mem.segments_live(), mem.tag_checked()),
                (segments_live, uses_mte),
                "{variant}"
            );
        }
    }

    #[test]
    fn harden_configs_match_variants() {
        assert!(CageFull.harden_config().stack_safety);
        assert!(CageFull.harden_config().ptr_auth);
        assert!(CageMemSafety.harden_config().stack_safety);
        assert!(!CageMemSafety.harden_config().ptr_auth);
        assert!(CagePtrAuth.harden_config().ptr_auth);
        assert!(!BaselineWasm64.harden_config().stack_safety);
    }

    #[test]
    fn labels_are_the_papers() {
        assert_eq!(CageFull.to_string(), "Cage");
        assert_eq!(BaselineWasm32.label(), "baseline wasm32");
    }

    #[test]
    fn safety_classification() {
        assert!(CageFull.provides_memory_safety());
        assert!(!CageSandboxing.provides_memory_safety());
        assert!(!BaselineWasm64.provides_memory_safety());
    }
}
