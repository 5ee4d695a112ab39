//! [`PoolMetrics`]: what a pool has served, in counts.

use cage_engine::ChargeCounts;

/// Pool-level execution totals: per-instance counters (what was charged,
/// fuel) aggregated across every instance a pool has served, plus the
/// pool's own churn counters. A multi-worker server merges one snapshot per
/// worker into the run totals it reports.
///
/// A pool accumulates the [`ChargeCounts`] of its instances — integers
/// only, host charges included — and nothing priced: `instr_count` is derived from `counts` when the pool
/// hands out a snapshot (`Pool::metrics`), and a reader prices `counts`
/// with the store's cost model (`Store::price`) for cycles. Release and
/// merge add integers only, so totals do not depend on the order
/// instances were released or snapshots merged in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Instances stamped out anew (cold path).
    pub instantiations: u64,
    /// Instance slots recycled via reset instead of re-instantiated.
    pub resets: u64,
    /// Guest invocations completed (including ones that trapped).
    pub invocations: u64,
    /// What all served instances were charged, class by class.
    pub counts: ChargeCounts,
    /// Retired instructions in `counts`, as of the snapshot (zero in a
    /// pool's own running totals).
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
    /// Tokens of another pool handed to `Pool::release`, and refused:
    /// the releasing pool is left as it was.
    pub foreign_releases: u64,
}

impl PoolMetrics {
    /// Merges another snapshot (e.g. a worker thread's pool) into this one.
    pub fn merge(&mut self, other: &PoolMetrics) {
        self.instantiations += other.instantiations;
        self.resets += other.resets;
        self.invocations += other.invocations;
        self.counts += &other.counts;
        self.instr_count += other.instr_count;
        self.fuel_consumed += other.fuel_consumed;
        self.quarantined += other.quarantined;
        self.exhausted += other.exhausted;
        self.leaked += other.leaked;
        self.rejected += other.rejected;
        self.foreign_releases += other.foreign_releases;
    }
}
