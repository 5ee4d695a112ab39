//! Deterministic fault injection for the serving layer.
//!
//! A [`FaultPlan`] is a seeded stream of [`Fault`]s — one drawn per
//! request — that the `chaos` integration suite uses to decide *which*
//! failure to force into a checkout/invoke/release cycle and *where*:
//! grow denials via a one-page [`cage_engine::InstanceLimits`] cap,
//! host-function traps and panics via a mode flag the chaos host hook
//! reads, and fuel/epoch expiry via a budget chosen at plan time, so the
//! trap lands at a chosen control-transition count. Same seed, same
//! fault sequence, every run — chaos results are reproducible and CI can
//! pin one seed.
//!
//! The generator is an inline splitmix64: the serving crate takes no
//! dependency on a rand crate, and the stream is stable across
//! platforms.

/// One injected failure, drawn from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the request must succeed (the plan interleaves healthy
    /// traffic so recovery is exercised *between* faults).
    None,
    /// Deny `memory.grow` by capping the instance at its initial size —
    /// the guest observes the in-language `-1` / trapped bulk op.
    GrowDenied,
    /// The chaos host hook returns `Err(Trap::Host(..))`: an ordinary
    /// host failure, which must *not* poison the slot.
    HostTrap,
    /// The chaos host hook panics: caught at the dispatch boundary as
    /// `Trap::HostPanic`, which must quarantine the slot.
    HostPanic,
    /// Run the request under a fuel budget of exactly this many control
    /// transitions, forcing `Trap::FuelExhausted` at a chosen
    /// instruction count.
    FuelExhaust(u64),
    /// Arm an epoch deadline already at the current epoch, forcing
    /// `Trap::EpochInterrupt` at the first preemption point.
    EpochExpire,
}

impl Fault {
    /// Short stable name (the chaos suite's per-class tally keys on it).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::GrowDenied => "grow_denied",
            Fault::HostTrap => "host_trap",
            Fault::HostPanic => "host_panic",
            Fault::FuelExhaust(_) => "fuel_exhaust",
            Fault::EpochExpire => "epoch_expire",
        }
    }
}

/// A seeded, deterministic stream of [`Fault`]s.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    state: u64,
}

impl FaultPlan {
    /// A plan that replays the same fault sequence for every `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, state: seed }
    }

    /// The seed this plan was built from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// splitmix64 step — stable, dependency-free.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws the fault for the next request. Roughly half the stream is
    /// healthy traffic; the rest is spread evenly over the five fault
    /// classes. Fuel budgets land in `1..=64` so the trap hits within
    /// the first few control transitions of any real handler.
    pub fn next_fault(&mut self) -> Fault {
        let r = self.next_u64();
        match r % 10 {
            0 => Fault::GrowDenied,
            1 => Fault::HostTrap,
            2 => Fault::HostPanic,
            3 => Fault::FuelExhaust(1 + (r >> 8) % 64),
            4 => Fault::EpochExpire,
            _ => Fault::None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultPlan::new(2026);
        let mut b = FaultPlan::new(2026);
        for _ in 0..1000 {
            assert_eq!(a.next_fault(), b.next_fault());
        }
    }

    #[test]
    fn every_class_appears() {
        let mut plan = FaultPlan::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            seen.insert(plan.next_fault().name());
        }
        for class in [
            "none",
            "grow_denied",
            "host_trap",
            "host_panic",
            "fuel_exhaust",
            "epoch_expire",
        ] {
            assert!(seen.contains(class), "missing {class}");
        }
    }

    #[test]
    fn fuel_budgets_are_small_and_nonzero() {
        let mut plan = FaultPlan::new(7);
        for _ in 0..1000 {
            if let Fault::FuelExhaust(budget) = plan.next_fault() {
                assert!((1..=64).contains(&budget), "{budget}");
            }
        }
    }
}
