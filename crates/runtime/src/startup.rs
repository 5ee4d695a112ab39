//! Startup-overhead accounting (§7.2 "Cage Startup Overhead").
//!
//! The paper instantiates a module with a 128 MiB static memory and calls
//! an empty function, observing that "the overhead of tagging the linear
//! memory is hidden by the runtime's startup overhead". We model the same
//! decomposition: a base runtime-startup cost (module processing, memory
//! mapping — calibrated as a per-page cost) plus the MTE tagging pass over
//! the linear memory (from the Fig. 16 `stg` timing).

use cage_mte::timing::{bulk_init_ms, BulkInitVariant};
use cage_mte::Core;

use cage_engine::Variant;

/// Cost breakdown of instantiating a module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StartupReport {
    /// Variant measured.
    pub variant: Variant,
    /// Core measured.
    pub core: Core,
    /// Linear-memory size in bytes.
    pub memory_bytes: u64,
    /// Base runtime startup (module processing + memory zeroing), ms.
    pub base_ms: f64,
    /// MTE tagging pass over the linear memory, ms (0 when MTE is off).
    pub tagging_ms: f64,
}

impl StartupReport {
    /// Total startup milliseconds.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.base_ms + self.tagging_ms
    }

    /// Tagging share of total startup.
    #[must_use]
    pub fn tagging_fraction(&self) -> f64 {
        if self.total_ms() == 0.0 {
            0.0
        } else {
            self.tagging_ms / self.total_ms()
        }
    }
}

/// Computes the startup report for instantiating `memory_bytes` of linear
/// memory under `variant` on `core`.
#[must_use]
pub fn startup_report(variant: Variant, core: Core, memory_bytes: u64) -> StartupReport {
    // Base startup: the runtime zeroes fresh memory (a memset-class pass)
    // plus fixed module-processing work (parse/compile/link), which
    // dominates small memories. wasmtime-class startup is milliseconds;
    // we charge a fixed 30 ms plus the zeroing pass, matching the paper's
    // observation that tagging hides inside it.
    const MODULE_PROCESSING_MS: f64 = 30.0;
    let zeroing_ms = bulk_init_ms(core, memory_bytes, BulkInitVariant::Memset);
    // The tagging pass: with MTE, the runtime can use stzg (zero + tag in
    // one pass), so the *extra* cost over plain zeroing is the stzg/memset
    // delta — which Fig. 16 shows is zero or negative.
    let tagging_ms = if variant.uses_mte() {
        (bulk_init_ms(core, memory_bytes, BulkInitVariant::Stzg) - zeroing_ms).max(0.0)
    } else {
        0.0
    };
    StartupReport {
        variant,
        core,
        memory_bytes,
        base_ms: MODULE_PROCESSING_MS + zeroing_ms,
        tagging_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB_128: u64 = 128 * 1024 * 1024;

    #[test]
    fn tagging_is_hidden_by_startup() {
        // §7.2: "The overhead of tagging the linear memory is hidden by
        // the runtime's startup overhead."
        for core in Core::ALL {
            let report = startup_report(Variant::CageFull, core, MIB_128);
            assert!(
                report.tagging_fraction() < 0.10,
                "{core}: tagging fraction {}",
                report.tagging_fraction()
            );
        }
    }

    #[test]
    fn baseline_has_no_tagging_cost() {
        let report = startup_report(Variant::BaselineWasm64, Core::CortexX3, MIB_128);
        assert_eq!(report.tagging_ms, 0.0);
        assert!(report.base_ms > 0.0);
    }

    #[test]
    fn startup_scales_with_memory() {
        let small = startup_report(Variant::CageFull, Core::CortexA510, MIB_128 / 4);
        let large = startup_report(Variant::CageFull, Core::CortexA510, MIB_128);
        assert!(large.total_ms() > small.total_ms());
    }

    #[test]
    fn report_accessors() {
        let r = StartupReport {
            variant: Variant::CageFull,
            core: Core::CortexX3,
            memory_bytes: 0,
            base_ms: 0.0,
            tagging_ms: 0.0,
        };
        assert_eq!(r.total_ms(), 0.0);
        assert_eq!(r.tagging_fraction(), 0.0);
    }
}
