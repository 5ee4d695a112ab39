//! The benchmark configurations of Table 3.

use cage_engine::{BoundsCheckStrategy, ExecConfig, InternalSafety};
use cage_ir::passes::HardenConfig;
use cage_ir::PtrWidth;
use cage_mte::{Core, MteMode};

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

    /// Compilation pointer width.
    #[must_use]
    pub fn ptr_width(self) -> PtrWidth {
        match self {
            Variant::BaselineWasm32 => PtrWidth::W32,
            _ => PtrWidth::W64,
        }
    }

    /// Which sanitizer passes the toolchain runs for this variant.
    #[must_use]
    pub fn harden_config(self) -> HardenConfig {
        HardenConfig {
            stack_safety: matches!(self, Variant::CageMemSafety | Variant::CageFull),
            ptr_auth: matches!(self, Variant::CagePtrAuth | Variant::CageFull),
        }
    }

    /// Whether the hardened allocator creates segments.
    #[must_use]
    pub fn internal_safety(self) -> InternalSafety {
        match self {
            Variant::CageMemSafety | Variant::CageFull => InternalSafety::Mte,
            _ => InternalSafety::Off,
        }
    }

    /// The engine configuration on `core`.
    #[must_use]
    pub fn exec_config(self, core: Core) -> ExecConfig {
        let bounds = match self {
            Variant::BaselineWasm32 => BoundsCheckStrategy::GuardPages,
            Variant::BaselineWasm64 | Variant::CageMemSafety | Variant::CagePtrAuth => {
                BoundsCheckStrategy::Software
            }
            Variant::CageSandboxing | Variant::CageFull => BoundsCheckStrategy::MteSandbox,
        };
        ExecConfig {
            core,
            bounds,
            internal: self.internal_safety(),
            pointer_auth: matches!(self, Variant::CagePtrAuth | Variant::CageFull),
            // Cage runs MTE synchronously so violations trap before their
            // effects are observable (§6.3).
            mte_mode: MteMode::Synchronous,
            ..ExecConfig::default()
        }
    }

    /// Whether this variant provides internal memory safety guarantees
    /// (the Table 2 "mitigated" column).
    #[must_use]
    pub fn provides_memory_safety(self) -> bool {
        matches!(self, Variant::CageMemSafety | Variant::CageFull)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rows_match_paper() {
        use Variant::*;
        // Ptr width column.
        assert_eq!(BaselineWasm32.ptr_width(), PtrWidth::W32);
        for v in [
            BaselineWasm64,
            CageMemSafety,
            CagePtrAuth,
            CageSandboxing,
            CageFull,
        ] {
            assert_eq!(v.ptr_width(), PtrWidth::W64);
        }
        // Internal column.
        assert!(CageMemSafety.internal_safety().is_enabled());
        assert!(CageFull.internal_safety().is_enabled());
        assert!(!CageSandboxing.internal_safety().is_enabled());
        // External column.
        let cfg = |v: Variant| v.exec_config(Core::CortexX3);
        assert_eq!(cfg(CageSandboxing).bounds, BoundsCheckStrategy::MteSandbox);
        assert_eq!(cfg(CageFull).bounds, BoundsCheckStrategy::MteSandbox);
        assert_eq!(cfg(BaselineWasm64).bounds, BoundsCheckStrategy::Software);
        assert_eq!(cfg(BaselineWasm32).bounds, BoundsCheckStrategy::GuardPages);
        // Ptr-auth column.
        assert!(cfg(CagePtrAuth).pointer_auth);
        assert!(cfg(CageFull).pointer_auth);
        assert!(!cfg(CageMemSafety).pointer_auth);
    }

    /// Table 3 → the memory an instance actually gets. The store is the
    /// one place that turns `(bounds, internal)` into a `TagScheme` and
    /// the memory the one place that turns the scheme into a policy; a
    /// variant that uses no MTE gets a store that checks nothing, whatever
    /// `mte_mode` the config carries.
    #[test]
    fn every_variant_instantiates_a_memory_under_its_scheme_and_mode() {
        use cage_engine::{Imports, Store, TagScheme};
        use cage_mte::Tag;
        use Variant::*;
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
        let modes = [
            MteMode::Disabled,
            MteMode::Synchronous,
            MteMode::Asynchronous,
            MteMode::Asymmetric,
        ];
        for (variant, scheme, uses_mte, segments_live) in rows {
            for mode in modes {
                let config = ExecConfig {
                    mte_mode: mode,
                    ..variant.exec_config(Core::CortexX3)
                };
                assert_eq!(config.mte_active(), uses_mte, "{variant}");
                let mut store = Store::new(config);
                let h = store.instantiate(&module, &Imports::new()).unwrap();
                let mem = store.memory(h).unwrap();
                let what = format!("{variant} under {mode:?}");
                assert_eq!(mem.scheme(), scheme, "{what}");
                let want_mode = if uses_mte { mode } else { MteMode::Disabled };
                assert_eq!(mem.tags().mode(), want_mode, "{what}");
                assert_eq!(
                    (mem.segments_live(), mem.tag_checked()),
                    (segments_live, uses_mte),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn harden_configs_match_variants() {
        assert!(Variant::CageFull.harden_config().stack_safety);
        assert!(Variant::CageFull.harden_config().ptr_auth);
        assert!(Variant::CageMemSafety.harden_config().stack_safety);
        assert!(!Variant::CageMemSafety.harden_config().ptr_auth);
        assert!(Variant::CagePtrAuth.harden_config().ptr_auth);
        assert!(!Variant::BaselineWasm64.harden_config().stack_safety);
    }

    #[test]
    fn labels_are_the_papers() {
        assert_eq!(Variant::CageFull.to_string(), "Cage");
        assert_eq!(Variant::BaselineWasm32.label(), "baseline wasm32");
    }

    #[test]
    fn safety_classification() {
        assert!(Variant::CageFull.provides_memory_safety());
        assert!(!Variant::CageSandboxing.provides_memory_safety());
        assert!(!Variant::BaselineWasm64.provides_memory_safety());
    }
}
