//! Bulk-memory timing model: MTE mode overhead on `memset` (Fig. 4) and the
//! tagged-memory initialisation variants (Table 4 / Fig. 16).
//!
//! The model is a linear bandwidth model calibrated at the paper's measured
//! point (128 MiB on each Tensor G3 core, cold cache) and composed from
//! per-pass costs:
//!
//! * a *data pass* writes every byte (plain `memset`),
//! * a *tag pass* writes every granule's allocation tag (`stg`/`st2g` loop),
//! * a *combined pass* does both in one sweep (`stzg`/`st2zg`/`stgp`) — and
//!   is slightly *faster* than `memset` because the tag-setting stores skip
//!   the tag check that ordinary stores under synchronous MTE perform
//!   (§7.4 "Initializing tagged memory").
//!
//! Mode overheads (Fig. 4) are modelled as a per-granule tag-check cost on
//! top of the data pass, derived from the paper's measured percentages, so
//! the model composes for arbitrary sizes and modes.

use crate::core_kind::Core;
use crate::tag::GRANULE_SIZE;

/// The MTE check mode, per-thread state on real hardware (§2.3): the
/// input of the Fig. 4 `memset` model. The engine itself checks
/// synchronously, as Cage deploys MTE (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MteMode {
    /// No tag checks are performed.
    Disabled,
    /// A mismatch faults immediately; the access does not take effect.
    Synchronous,
    /// A mismatch sets a cumulative flag (TFSR) checked later; the access
    /// itself completes.
    Asynchronous,
    /// Reads are checked asynchronously, writes synchronously.
    Asymmetric,
}

/// The calibration size used throughout the paper: 128 MiB.
pub const CALIBRATION_BYTES: u64 = 128 * 1024 * 1024;

/// The eight initialisation variants of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BulkInitVariant {
    /// Plain `memset`: data only, no tags.
    Memset,
    /// `stg` loop: tags only, 16-byte granule.
    Stg,
    /// `stgp` loop: tag + one 16-byte data pair per instruction.
    Stgp,
    /// `st2g` loop: tags only, 32 bytes per instruction.
    St2g,
    /// `stzg` loop: tag + zeroed granule.
    Stzg,
    /// `st2zg` loop: tag + two zeroed granules.
    St2zg,
    /// `stg` pass followed by a `memset` pass.
    StgPlusMemset,
    /// `st2g` pass followed by a `memset` pass.
    St2gPlusMemset,
}

impl BulkInitVariant {
    /// All variants in the order Fig. 16 plots them.
    pub const ALL: [BulkInitVariant; 8] = [
        BulkInitVariant::Memset,
        BulkInitVariant::Stg,
        BulkInitVariant::Stgp,
        BulkInitVariant::St2g,
        BulkInitVariant::Stzg,
        BulkInitVariant::St2zg,
        BulkInitVariant::StgPlusMemset,
        BulkInitVariant::St2gPlusMemset,
    ];

    /// Label as used in the paper.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BulkInitVariant::Memset => "memset",
            BulkInitVariant::Stg => "stg",
            BulkInitVariant::Stgp => "stgp",
            BulkInitVariant::St2g => "st2g",
            BulkInitVariant::Stzg => "stzg",
            BulkInitVariant::St2zg => "st2zg",
            BulkInitVariant::StgPlusMemset => "stg+memset",
            BulkInitVariant::St2gPlusMemset => "st2g+memset",
        }
    }

    /// Whether the variant leaves the memory zeroed (Table 4 "Sets 0").
    #[must_use]
    pub fn zeroes_memory(self) -> bool {
        !matches!(self, BulkInitVariant::Stg | BulkInitVariant::St2g)
    }

    /// Whether the variant sets allocation tags (everything except memset).
    #[must_use]
    pub fn sets_tags(self) -> bool {
        !matches!(self, BulkInitVariant::Memset)
    }
}

/// Calibrated milliseconds to run each variant over 128 MiB under
/// synchronous MTE (Fig. 16's bar heights).
fn calibrated_ms_128mib(core: Core, variant: BulkInitVariant) -> f64 {
    use BulkInitVariant::*;
    use Core::*;
    match (core, variant) {
        (CortexX3, Memset) => 33.6,
        (CortexX3, Stg) => 32.8,
        (CortexX3, Stgp) => 31.3,
        (CortexX3, St2g) => 33.3,
        (CortexX3, Stzg) => 32.5,
        (CortexX3, St2zg) => 29.5,
        (CortexX3, StgPlusMemset) => 44.4,
        (CortexX3, St2gPlusMemset) => 45.5,
        (CortexA715, Memset) => 48.9,
        (CortexA715, Stg) => 49.1,
        (CortexA715, Stgp) => 46.7,
        (CortexA715, St2g) => 46.8,
        (CortexA715, Stzg) => 48.0,
        (CortexA715, St2zg) => 46.7,
        (CortexA715, StgPlusMemset) => 53.3,
        (CortexA715, St2gPlusMemset) => 52.0,
        (CortexA510, Memset) => 91.9,
        (CortexA510, Stg) => 96.6,
        (CortexA510, Stgp) => 83.1,
        (CortexA510, St2g) => 98.1,
        (CortexA510, Stzg) => 78.0,
        (CortexA510, St2zg) => 77.2,
        (CortexA510, StgPlusMemset) => 133.0,
        (CortexA510, St2gPlusMemset) => 138.0,
    }
}

/// Calibrated `memset` milliseconds for 128 MiB with MTE *disabled*
/// (Fig. 4's "none" bars).
fn memset_base_ms_128mib(core: Core) -> f64 {
    match core {
        Core::CortexX3 => 30.2,
        Core::CortexA715 => 44.4,
        Core::CortexA510 => 72.1,
    }
}

/// Multiplicative overhead of an MTE mode on a write-heavy workload,
/// derived from Fig. 4 (sync: 19.1 / 14.4 / 29.9 %, async: 2.6 / 3.3 /
/// 11.3 % in §2.3's prose; the bar heights embed the same ratios).
fn mode_factor(core: Core, mode: MteMode) -> f64 {
    match (core, mode) {
        (_, MteMode::Disabled) => 1.0,
        (Core::CortexX3, MteMode::Synchronous) => 1.191,
        (Core::CortexA715, MteMode::Synchronous) => 1.144,
        (Core::CortexA510, MteMode::Synchronous) => 1.299,
        (Core::CortexX3, MteMode::Asynchronous) => 1.026,
        (Core::CortexA715, MteMode::Asynchronous) => 1.033,
        (Core::CortexA510, MteMode::Asynchronous) => 1.113,
        // Asymmetric checks writes synchronously, so a pure-store workload
        // pays the synchronous price.
        (core, MteMode::Asymmetric) => mode_factor(core, MteMode::Synchronous),
    }
}

/// Milliseconds to `memset` `bytes` of uncached memory on `core` under MTE
/// `mode` — the Fig. 4 experiment at arbitrary size.
#[must_use]
pub fn memset_ms(core: Core, bytes: u64, mode: MteMode) -> f64 {
    let scale = bytes as f64 / CALIBRATION_BYTES as f64;
    memset_base_ms_128mib(core) * mode_factor(core, mode) * scale
}

/// Extra cycles per 16-byte granule that a synchronous tag check adds to a
/// store on `core` (derived from the Fig. 4 calibration). This is what the
/// engine's cost model charges per checked store.
#[must_use]
pub fn tag_check_cycles_per_granule(core: Core, mode: MteMode) -> f64 {
    let base_ms = memset_base_ms_128mib(core);
    let extra_ms = base_ms * (mode_factor(core, mode) - 1.0);
    let granules = (CALIBRATION_BYTES / GRANULE_SIZE as u64) as f64;
    extra_ms * 1e-3 * core.clock_ghz() * 1e9 / granules
}

/// Milliseconds to initialise-and/or-tag `bytes` on `core` with `variant`
/// under synchronous MTE — the Table 4 / Fig. 16 experiment.
#[must_use]
pub fn bulk_init_ms(core: Core, bytes: u64, variant: BulkInitVariant) -> f64 {
    let scale = bytes as f64 / CALIBRATION_BYTES as f64;
    calibrated_ms_128mib(core, variant) * scale
}

/// Milliseconds to tag (not zero) a region, the cheapest tagging pass —
/// used by the runtime's startup cost accounting.
#[must_use]
pub fn tag_region_ms(core: Core, bytes: u64) -> f64 {
    bulk_init_ms(core, bytes, BulkInitVariant::Stg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_sync_slower_than_async_slower_than_none() {
        for core in Core::ALL {
            let none = memset_ms(core, CALIBRATION_BYTES, MteMode::Disabled);
            let async_ = memset_ms(core, CALIBRATION_BYTES, MteMode::Asynchronous);
            let sync = memset_ms(core, CALIBRATION_BYTES, MteMode::Synchronous);
            assert!(none < async_, "{core}");
            assert!(async_ < sync, "{core}");
        }
    }

    #[test]
    fn fig4_sync_overhead_percentages_match_paper() {
        let over = |core: Core| {
            memset_ms(core, CALIBRATION_BYTES, MteMode::Synchronous)
                / memset_ms(core, CALIBRATION_BYTES, MteMode::Disabled)
                - 1.0
        };
        assert!((over(Core::CortexX3) - 0.191).abs() < 0.01);
        assert!((over(Core::CortexA715) - 0.144).abs() < 0.01);
        assert!((over(Core::CortexA510) - 0.299).abs() < 0.01);
    }

    #[test]
    fn timing_scales_linearly_with_size() {
        let one = memset_ms(Core::CortexX3, CALIBRATION_BYTES, MteMode::Disabled);
        let half = memset_ms(Core::CortexX3, CALIBRATION_BYTES / 2, MteMode::Disabled);
        assert!((one / half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fig16_zeroing_tag_stores_beat_memset() {
        // §7.4: "stzg, stz2g, and stgp are slightly faster than a raw
        // memset, even though they initialize memory and set tags."
        for core in Core::ALL {
            let memset = bulk_init_ms(core, CALIBRATION_BYTES, BulkInitVariant::Memset);
            for v in [
                BulkInitVariant::Stzg,
                BulkInitVariant::St2zg,
                BulkInitVariant::Stgp,
            ] {
                assert!(
                    bulk_init_ms(core, CALIBRATION_BYTES, v) <= memset,
                    "{core} {}",
                    v.label()
                );
            }
        }
    }

    #[test]
    fn fig16_two_pass_variants_cost_more_than_one_pass() {
        for core in Core::ALL {
            let memset = bulk_init_ms(core, CALIBRATION_BYTES, BulkInitVariant::Memset);
            for v in [
                BulkInitVariant::StgPlusMemset,
                BulkInitVariant::St2gPlusMemset,
            ] {
                assert!(bulk_init_ms(core, CALIBRATION_BYTES, v) > memset, "{core}");
            }
        }
    }

    #[test]
    fn table4_metadata() {
        assert!(!BulkInitVariant::Stg.zeroes_memory());
        assert!(!BulkInitVariant::St2g.zeroes_memory());
        assert!(BulkInitVariant::Stzg.zeroes_memory());
        assert!(BulkInitVariant::StgPlusMemset.zeroes_memory());
        assert!(!BulkInitVariant::Memset.sets_tags());
        assert!(BulkInitVariant::St2zg.sets_tags());
    }

    #[test]
    fn tag_check_cost_positive_only_when_checking() {
        for core in Core::ALL {
            assert_eq!(tag_check_cycles_per_granule(core, MteMode::Disabled), 0.0);
            assert!(tag_check_cycles_per_granule(core, MteMode::Synchronous) > 0.0);
            let sync = tag_check_cycles_per_granule(core, MteMode::Synchronous);
            let async_ = tag_check_cycles_per_granule(core, MteMode::Asynchronous);
            assert!(async_ < sync, "{core}: async must be cheaper than sync");
        }
    }

    #[test]
    fn in_order_core_pays_the_largest_sync_penalty() {
        let x3 = memset_ms(Core::CortexX3, CALIBRATION_BYTES, MteMode::Synchronous)
            / memset_ms(Core::CortexX3, CALIBRATION_BYTES, MteMode::Disabled);
        let a510 = memset_ms(Core::CortexA510, CALIBRATION_BYTES, MteMode::Synchronous)
            / memset_ms(Core::CortexA510, CALIBRATION_BYTES, MteMode::Disabled);
        assert!(a510 > x3);
    }
}
