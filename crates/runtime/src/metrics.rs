//! Memory metrics: the §7.3 accounting.
//!
//! The paper estimates Cage's memory overhead as (i) the wasm64-over-wasm32
//! delta plus (ii) the MTE tag storage, 4 bits per 16 bytes = 1/32 = 3.125 %
//! of the tagged memory. Tag storage lives in the tag PA space, invisible
//! to the OS, so the paper *adds* it to the RSS estimate; we do the same.

use cage_engine::{ChargeCounts, LinearMemory};
use cage_libc::AllocStats;

/// A memory report for one instance: §7.3's *modelled* footprint — a
/// function of the declared memory size and its tag scheme, which is what
/// `mem_overhead` prints. What the host actually backs depends on the
/// touch pattern and is [`LinearMemory::committed_bytes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryReport {
    /// Linear-memory size in bytes.
    pub linear_bytes: u64,
    /// Estimated MTE tag-storage bytes (1/32 of tagged memory; 0 when the
    /// memory's scheme is `TagScheme::None`).
    pub tag_bytes: u64,
    /// Estimated resident total: linear + tag storage.
    pub resident_bytes: u64,
    /// Allocator high-water mark (live bytes + metadata slots).
    pub heap_peak_bytes: u64,
    /// Allocator break (used heap region).
    pub heap_used_bytes: u64,
}

impl MemoryReport {
    /// Collects the report from an instance's memory and allocator
    /// stats. The tag share is the memory's own
    /// ([`LinearMemory::resident_bytes`]).
    #[must_use]
    pub fn collect(memory: Option<&LinearMemory>, alloc: AllocStats) -> MemoryReport {
        let linear_bytes = memory.map_or(0, LinearMemory::size);
        let resident_bytes = memory.map_or(0, LinearMemory::resident_bytes);
        MemoryReport {
            linear_bytes,
            tag_bytes: resident_bytes - linear_bytes,
            resident_bytes,
            heap_peak_bytes: alloc.peak_bytes,
            heap_used_bytes: alloc.brk,
        }
    }

    /// Relative overhead of this report over a baseline report.
    #[must_use]
    pub fn overhead_over(&self, baseline: &MemoryReport) -> f64 {
        if baseline.resident_bytes == 0 {
            return 0.0;
        }
        self.resident_bytes as f64 / baseline.resident_bytes as f64 - 1.0
    }
}

/// Pool-level execution totals: per-instance counters (what was charged,
/// fuel) aggregated across every instance a pool has served, plus the
/// pool's own churn counters. The load driver merges one snapshot per
/// worker into the run totals it reports.
///
/// A pool accumulates the integer [`ChargeCounts`] of its instances and
/// nothing priced: `cycles` and `instr_count` are derived from `counts`
/// when the pool hands out a snapshot (`Pool::metrics`), so they do not
/// depend on the order instances were released in, and a release adds
/// integers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolMetrics {
    /// Instances stamped out from scratch (cold path).
    pub instantiations: u64,
    /// Instance slots recycled via reset instead of re-instantiated.
    pub resets: u64,
    /// Guest invocations completed (including ones that trapped).
    pub invocations: u64,
    /// What all served instances were charged, class by class.
    pub counts: ChargeCounts,
    /// Model cycles of `counts` under the pool's cost model, as of the
    /// snapshot (zero in a pool's own running totals).
    pub cycles: f64,
    /// Retired instructions in `counts`, as of the snapshot (likewise).
    pub instr_count: u64,
    /// Fuel consumed across all served instances (0 when no budget set).
    pub fuel_consumed: u64,
    /// Slots permanently retired from circulation — a host function
    /// panicked in them or their reset failed — and replaced lazily.
    pub quarantined: u64,
    /// Checkouts refused because the pool's slot cap was saturated.
    pub exhausted: u64,
    /// Checked-out instances never released before the pool was dropped
    /// (the leak detector's tally).
    pub leaked: u64,
    /// Modules refused at template-build time because they exceeded a
    /// compile limit (counted via `Pool::record_rejection`).
    pub rejected: u64,
}

impl PoolMetrics {
    /// Folds the counters of one served instance into the totals.
    pub fn absorb_instance(&mut self, counts: &ChargeCounts, fuel_consumed: u64) {
        self.counts += counts;
        self.fuel_consumed += fuel_consumed;
    }

    /// Merges another snapshot (e.g. a worker thread's pool) into this one.
    pub fn merge(&mut self, other: &PoolMetrics) {
        self.instantiations += other.instantiations;
        self.resets += other.resets;
        self.invocations += other.invocations;
        self.counts += &other.counts;
        self.cycles += other.cycles;
        self.instr_count += other.instr_count;
        self.fuel_consumed += other.fuel_consumed;
        self.quarantined += other.quarantined;
        self.exhausted += other.exhausted;
        self.leaked += other.leaked;
        self.rejected += other.rejected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_engine::TagScheme;

    fn mem(pages: u64, scheme: TagScheme) -> LinearMemory {
        LinearMemory::new(pages, None, true, scheme, 0)
    }

    #[test]
    fn tag_overhead_is_one_thirty_second() {
        let m = mem(32, TagScheme::InternalOnly);
        let report = MemoryReport::collect(Some(&m), AllocStats::default());
        assert_eq!(report.linear_bytes, 32 * 65_536);
        assert_eq!(report.tag_bytes, report.linear_bytes / 32);
        assert_eq!(
            report.resident_bytes,
            report.linear_bytes + report.tag_bytes
        );
    }

    #[test]
    fn baselines_have_no_tag_overhead() {
        let m = mem(32, TagScheme::None);
        let report = MemoryReport::collect(Some(&m), AllocStats::default());
        assert_eq!(report.tag_bytes, 0);
    }

    #[test]
    fn overhead_calculation() {
        let plain = mem(32, TagScheme::None);
        let tagged = mem(32, TagScheme::Combined);
        let base = MemoryReport::collect(Some(&plain), AllocStats::default());
        let caged = MemoryReport::collect(Some(&tagged), AllocStats::default());
        let overhead = caged.overhead_over(&base);
        // Pure tag overhead: 3.125 %.
        assert!((overhead - 0.03125).abs() < 1e-9, "{overhead}");
        // The paper's < 5.3 % bound certainly holds.
        assert!(overhead < 0.053);
    }

    #[test]
    fn missing_memory_is_zero() {
        let report = MemoryReport::collect(None, AllocStats::default());
        assert_eq!(report.resident_bytes, 0);
        assert_eq!(report.overhead_over(&report), 0.0);
    }
}
