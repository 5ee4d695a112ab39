//! Execution configuration: sandboxing strategy, internal memory safety,
//! pointer authentication, MTE mode and target core.
//!
//! The paper's Table 3 benchmark variants are combinations of these knobs;
//! `cage-runtime` exposes them as named configurations.

use cage_mte::{Core, MteMode};

/// How the engine enforces the sandbox (external memory safety, §6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BoundsCheckStrategy {
    /// Explicit software bounds check before every access — the wasm64
    /// default, and the expensive path on in-order cores (§3).
    #[default]
    Software,
    /// Virtual-memory guard pages — only sound for 32-bit memories, whose
    /// index space cannot exceed the guarded 4 GiB + offset region.
    GuardPages,
    /// MTE-based sandboxing (Fig. 12b/13): the linear memory carries the
    /// instance tag, indices are masked and added to the tagged heap base,
    /// and the hardware tag check replaces the bounds check.
    MteSandbox,
}

impl BoundsCheckStrategy {
    /// Whether accesses pay an explicit per-access software check.
    #[must_use]
    pub fn has_software_check(self) -> bool {
        self == BoundsCheckStrategy::Software
    }
}

/// How Cage's internal memory safety (segments / tagged pointers) is
/// implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InternalSafety {
    /// Segment instructions are inert: `segment.new` returns its input
    /// pointer untagged and loads/stores ignore tag bits. This is how
    /// hardened modules run on the baseline configurations.
    #[default]
    Off,
    /// Hardware MTE implements segments (the paper's deployment; its
    /// "equivalent software fallback", §4.1, is not modelled).
    Mte,
}

impl InternalSafety {
    /// Whether segment instructions are live.
    #[must_use]
    pub fn is_enabled(self) -> bool {
        self != InternalSafety::Off
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Core whose timing is simulated.
    pub core: Core,
    /// Sandbox enforcement strategy.
    pub bounds: BoundsCheckStrategy,
    /// Internal memory-safety implementation.
    pub internal: InternalSafety,
    /// Whether `i64.pointer_sign`/`auth` really sign (vs. act as moves on
    /// baseline configurations).
    pub pointer_auth: bool,
    /// MTE check mode (sync for Cage's deployment, §6.3).
    pub mte_mode: MteMode,
    /// Maximum call depth before [`crate::Trap::CallStackExhausted`].
    ///
    /// Guest calls cost no host stack: the dispatch loop keeps suspended
    /// callers on an explicit frame `Vec` and their registers in one
    /// arena, so no thread stack size goes with this limit. What it
    /// bounds is that heap: at most depth × 65 535 register slots × 8 B
    /// of arena (a frame is as wide as its function's peak register
    /// pressure, a `u16` count) plus one frame record per call. Only the
    /// tree-walking reference (`Store::call_tree`) recurses on the host.
    pub max_call_depth: usize,
    /// RNG seed for tag and key generation (determinism for benches).
    pub seed: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            core: Core::CortexX3,
            bounds: BoundsCheckStrategy::Software,
            internal: InternalSafety::Off,
            pointer_auth: false,
            mte_mode: MteMode::Synchronous,
            max_call_depth: 128,
            seed: 0xCA9E,
        }
    }
}

impl ExecConfig {
    /// Whether any MTE tag checking happens on ordinary accesses.
    #[must_use]
    pub fn mte_active(&self) -> bool {
        self.bounds == BoundsCheckStrategy::MteSandbox || self.internal == InternalSafety::Mte
    }

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

    #[test]
    fn default_is_wasm64_software_bounds() {
        let c = ExecConfig::default();
        assert_eq!(c.bounds, BoundsCheckStrategy::Software);
        assert_eq!(c.internal, InternalSafety::Off);
        assert!(!c.pointer_auth);
        assert!(!c.mte_active());
    }

    #[test]
    fn mte_active_detection() {
        let c = ExecConfig {
            bounds: BoundsCheckStrategy::MteSandbox,
            ..ExecConfig::default()
        };
        assert!(c.mte_active());
        let c2 = ExecConfig {
            internal: InternalSafety::Mte,
            ..ExecConfig::default()
        };
        assert!(c2.mte_active());
    }

    #[test]
    fn on_core_swaps_only_the_core() {
        let c = ExecConfig::default().on_core(Core::CortexA510);
        assert_eq!(c.core, Core::CortexA510);
        assert_eq!(c.bounds, ExecConfig::default().bounds);
    }

    #[test]
    fn strategy_predicates() {
        assert!(BoundsCheckStrategy::Software.has_software_check());
        assert!(!BoundsCheckStrategy::GuardPages.has_software_check());
        assert!(!BoundsCheckStrategy::MteSandbox.has_software_check());
        assert!(InternalSafety::Mte.is_enabled());
        assert!(!InternalSafety::Off.is_enabled());
    }
}
