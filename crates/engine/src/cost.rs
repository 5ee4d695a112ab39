//! The cycle cost model.
//!
//! Every interpreted instruction charges a per-class cycle cost calibrated
//! to the three Tensor G3 cores. This is the reproduction's replacement for
//! wall-clock measurement on the Pixel 8: the model encodes the
//! micro-architectural characteristics the paper documents —
//!
//! * out-of-order cores "can speculate through bounds checks" (§3), so an
//!   explicit bounds check costs them almost nothing, while the in-order
//!   A510 pays for every check (the paper's 6–8 % vs 52 % wasm64 overhead);
//! * MTE tag checks ride the memory pipeline and are nearly free per
//!   access, which is why MTE sandboxing beats software checks (Fig. 14);
//! * MTE/PAC *instruction* costs come straight from Table 1 via
//!   `cage-mte::cost` and `cage-pac::cost`;
//! * indirect calls pay the table + signature check (the 15–22 % of
//!   Fig. 15), and pointer authentication adds the ~5-cycle `autda` latency
//!   on top — "not noticeable" (§7.2).

use cage_mte::{Core, MteInstr};
use cage_pac::PacInstr;

use crate::config::ExecConfig;

/// One class of what an instance accounts in.
///
/// An instance does not accumulate cycles: it counts, per class, what it
/// retired ([`ChargeCounts`]), and cycles are the dot product of those
/// counts with the cost model's per-class weights
/// ([`class_weights`]), taken in this order whenever somebody
/// reads them. The counts do not depend on the simulated core, so one run
/// prices all three.
///
/// The first [`ChargeClass::OPS`] classes count retired instructions, one
/// each — the nine classes of the register tier's charge recipes first,
/// in [`crate::bytecode::ChargeTag`] order, then the bridged
/// instructions. The rest are the data-dependent units those bridged
/// instructions charge on top (bytes filled or copied, granules tagged)
/// and retire nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ChargeClass {
    /// Simple integer ALU / compare / select / const / local and global
    /// access.
    Simple,
    /// Float arithmetic, comparison and conversion.
    Float,
    /// Integer division / remainder.
    Div,
    /// Float division / square root.
    FloatDiv,
    /// Branch, `br_table` dispatch, `return`.
    Branch,
    /// Direct call.
    Call,
    /// Indirect call.
    CallIndirect,
    /// Scalar load or store, sandbox and tag checks included.
    Mem,
    /// Retired but free: the width changes the cores rename away.
    Zero,
    /// `memory.size` / `memory.grow`.
    MemManage,
    /// `i64.pointer_sign`.
    Sign,
    /// `i64.pointer_auth`.
    Auth,
    /// `memory.fill`, the per-op part.
    Fill,
    /// `memory.copy`, the per-op part.
    Copy,
    /// `segment.new`, the per-op part (`irg` + setup).
    SegmentNew,
    /// `segment.set_tag` / `segment.free`, the per-op part.
    Retag,
    /// Bytes written by `memory.fill`.
    FillBytes,
    /// Bytes moved by `memory.copy`.
    CopyBytes,
    /// 16-byte granules tagged and zeroed by `segment.new` (`stzg`).
    SegmentNewGranules,
    /// 16-byte granules retagged by `segment.set_tag` / `segment.free`
    /// (`stg`).
    RetagGranules,
}

impl ChargeClass {
    /// Number of classes.
    pub const COUNT: usize = ChargeClass::RetagGranules as usize + 1;
    /// The classes `0..OPS` count retired instructions.
    pub const OPS: usize = ChargeClass::Retag as usize + 1;
    /// Every class, in accounting order.
    pub const ALL: [ChargeClass; ChargeClass::COUNT] = [
        ChargeClass::Simple,
        ChargeClass::Float,
        ChargeClass::Div,
        ChargeClass::FloatDiv,
        ChargeClass::Branch,
        ChargeClass::Call,
        ChargeClass::CallIndirect,
        ChargeClass::Mem,
        ChargeClass::Zero,
        ChargeClass::MemManage,
        ChargeClass::Sign,
        ChargeClass::Auth,
        ChargeClass::Fill,
        ChargeClass::Copy,
        ChargeClass::SegmentNew,
        ChargeClass::Retag,
        ChargeClass::FillBytes,
        ChargeClass::CopyBytes,
        ChargeClass::SegmentNewGranules,
        ChargeClass::RetagGranules,
    ];

    /// The class's name as profiles and golden files print it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChargeClass::Simple => "simple",
            ChargeClass::Float => "float",
            ChargeClass::Div => "div",
            ChargeClass::FloatDiv => "float_div",
            ChargeClass::Branch => "branch",
            ChargeClass::Call => "call",
            ChargeClass::CallIndirect => "call_indirect",
            ChargeClass::Mem => "mem",
            ChargeClass::Zero => "zero",
            ChargeClass::MemManage => "mem_manage",
            ChargeClass::Sign => "sign",
            ChargeClass::Auth => "auth",
            ChargeClass::Fill => "fill",
            ChargeClass::Copy => "copy",
            ChargeClass::SegmentNew => "segment_new",
            ChargeClass::Retag => "retag",
            ChargeClass::FillBytes => "fill_bytes",
            ChargeClass::CopyBytes => "copy_bytes",
            ChargeClass::SegmentNewGranules => "segment_new_granules",
            ChargeClass::RetagGranules => "retag_granules",
        }
    }
}

/// Cycles per unit of each [`ChargeClass`], in class order.
pub type ClassWeights = [f64; ChargeClass::COUNT];

/// What an instance has been charged: the retired counts per
/// [`ChargeClass`], and the cycles host functions charged through
/// [`crate::HostContext::charge`] (an `f64` the embedder chooses, so it
/// stays one; host calls are its only writers and keep their order).
///
/// Equality compares `host_cycles` by bit pattern: two executions agree
/// when they charged exactly the same things.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChargeCounts {
    /// Retired counts, indexed by `ChargeClass as usize`.
    pub counts: [u64; ChargeClass::COUNT],
    /// Cycles charged by host functions.
    pub host_cycles: f64,
}

impl PartialEq for ChargeCounts {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts && self.host_cycles.to_bits() == other.host_cycles.to_bits()
    }
}

impl Eq for ChargeCounts {}

impl std::ops::AddAssign<&ChargeCounts> for ChargeCounts {
    /// Adds what another run was charged: class by class, and the host's
    /// cycles.
    fn add_assign(&mut self, other: &ChargeCounts) {
        for (sum, n) in self.counts.iter_mut().zip(other.counts) {
            *sum += n;
        }
        self.host_cycles += other.host_cycles;
    }
}

impl ChargeCounts {
    /// Retires one instruction of `class`.
    #[inline]
    pub(crate) fn charge(&mut self, class: ChargeClass) {
        self.counts[class as usize] += 1;
    }

    /// Charges `n` data-dependent units of `class` (bytes, granules). The
    /// guest chooses `n` — a `memory.fill` of `u64::MAX` bytes is charged
    /// before it traps — so the count saturates instead of wrapping.
    #[inline]
    pub(crate) fn charge_units(&mut self, class: ChargeClass, n: u64) {
        let count = &mut self.counts[class as usize];
        *count = count.saturating_add(n);
    }

    /// The count of one class.
    #[must_use]
    pub fn get(&self, class: ChargeClass) -> u64 {
        self.counts[class as usize]
    }

    /// Every class with its count, in accounting order.
    pub fn iter(&self) -> impl Iterator<Item = (ChargeClass, u64)> + '_ {
        ChargeClass::ALL.into_iter().zip(self.counts)
    }

    /// Retired instructions: the sum of the op classes.
    #[must_use]
    pub fn instr_count(&self) -> u64 {
        self.counts[..ChargeClass::OPS].iter().sum()
    }

    /// Simulated cycles under `weights`: the host's cycles plus the dot
    /// product in class order — a function of the counts alone, however
    /// invocations, host calls and resets split the run that made them.
    #[must_use]
    pub fn cycles(&self, weights: &ClassWeights) -> f64 {
        let guest: f64 = self
            .counts
            .iter()
            .zip(weights)
            .map(|(&n, w)| n as f64 * w)
            .sum();
        self.host_cycles + guest
    }
}

/// Cycles per unit of every [`ChargeClass`] under `config`, in class
/// order: what [`ChargeCounts::cycles`] multiplies the counts by.
///
/// The per-class base costs are the core's; the variant adds its check to
/// every access (`mem`) and decides what sign/auth cost. `memory.fill`
/// moves 16 bytes per access-equivalent and `memory.copy` 8, each on top
/// of one access for the op itself; a segment op costs its base plus one
/// store-tag per granule.
#[must_use]
pub fn class_weights(config: &ExecConfig) -> ClassWeights {
    let (core, variant) = (config.core, config.variant);
    // Base per-class costs (cycles). OoO cores retire several simple ops
    // per cycle; the in-order 2-wide A510 does not hide latency.
    let (simple, float, div, float_div, branch, call, call_indirect, mem_access, mem_manage) =
        match core {
            Core::CortexX3 => (0.25, 0.50, 4.0, 8.0, 0.60, 4.0, 23.0, 0.55, 6.0),
            Core::CortexA715 => (0.33, 0.60, 5.0, 10.0, 0.70, 5.0, 22.0, 0.65, 7.0),
            Core::CortexA510 => (1.00, 2.00, 10.0, 18.0, 2.00, 9.0, 76.0, 1.60, 12.0),
        };
    // Software bounds check: nearly free under speculation, expensive in
    // order. Calibrated so the PolyBench wasm64-over-wasm32 ratio
    // reproduces §3's 6-8 % (out-of-order) and 52 % (in-order).
    let bounds_check = match (variant.bounds_checked(), core) {
        (false, _) => 0.0,
        (true, Core::CortexX3) => 0.43,
        (true, Core::CortexA715) => 0.79,
        (true, Core::CortexA510) => 13.4,
    };
    // MTE tag checks ride the memory pipeline. Three flavours, calibrated
    // against Fig. 14's bar heights:
    //  * sandbox-only (external): the check replaces the bounds check
    //    almost for free;
    //  * internal-only: the check plus tagged-pointer handling (the
    //    Cage-mem-safety 3.6/5.6/1.5 % overheads);
    //  * combined: one hardware check covers both properties (§6.4), so
    //    full Cage stays *faster* than wasm64 on every core.
    let (sandbox_check, internal_check, combined_check) = match core {
        Core::CortexX3 => (0.14, 0.277, 0.27),
        Core::CortexA715 => (0.287, 0.55, 0.35),
        Core::CortexA510 => (0.17, 0.52, 1.78),
    };
    let tag_check = match (variant.sandboxed(), variant.provides_memory_safety()) {
        (true, true) => combined_check,
        (true, false) => sandbox_check,
        (false, true) => internal_check,
        (false, false) => 0.0,
    };
    let mem = mem_access + bounds_check + tag_check;
    // Without pointer authentication sign/auth are moves. With it, sign
    // pays `pacda`; the authenticate in the Fig. 9 call sequence overlaps
    // with the indirect-branch resolution ("adding pointer authentication
    // only adds 5 cycles of latency, which is not noticeable", §7.2), so
    // auth charges the non-overlapped residue of `autda`.
    let (sign, auth) = if variant.pointer_auth() {
        (
            PacInstr::Pacda.latency(core),
            PacInstr::Autda.latency(core) / 10.0,
        )
    } else {
        (simple, simple)
    };
    // `irg` + setup, charged by `segment.new`/`free` once.
    let segment_base = MteInstr::Irg.latency(core).unwrap_or(2.0) + 2.0;
    [
        simple,
        float,
        div,
        float_div,
        branch,
        call,
        call_indirect,
        mem,
        0.0,
        mem_manage,
        sign,
        auth,
        mem,
        mem,
        segment_base,
        segment_base,
        mem / 16.0,
        mem / 8.0,
        MteInstr::Stzg.issue_cycles(core),
        MteInstr::Stg.issue_cycles(core),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;

    fn cfg(core: Core) -> ExecConfig {
        ExecConfig::default().on_core(core)
    }

    /// Cycles of one scalar access under `variant` on `core`.
    fn mem(variant: Variant, core: Core) -> f64 {
        class_weights(&variant.exec_config(core))[ChargeClass::Mem as usize]
    }

    #[test]
    fn in_order_core_is_slower_everywhere() {
        let x3 = class_weights(&cfg(Core::CortexX3));
        let a510 = class_weights(&cfg(Core::CortexA510));
        for class in [
            ChargeClass::Simple,
            ChargeClass::Float,
            ChargeClass::Branch,
            ChargeClass::Call,
            ChargeClass::Mem,
        ] {
            assert!(a510[class as usize] > x3[class as usize], "{class:?}");
        }
    }

    #[test]
    fn bounds_check_dwarfs_on_in_order_core() {
        // The §3 claim in microcosm: the relative cost of the software
        // check is far higher in-order.
        let rel = |core| {
            let guarded = mem(Variant::BaselineWasm32, core);
            (mem(Variant::BaselineWasm64, core) - guarded) / guarded
        };
        assert!(rel(Core::CortexA510) > 3.0 * rel(Core::CortexX3));
    }

    #[test]
    fn mte_sandbox_access_cheaper_than_software_bounds() {
        for core in Core::ALL {
            assert!(
                mem(Variant::CageSandboxing, core) < mem(Variant::BaselineWasm64, core),
                "{core}"
            );
        }
    }

    #[test]
    fn guard_pages_have_no_per_access_cost() {
        for core in Core::ALL {
            for v in Variant::ALL {
                if v != Variant::BaselineWasm32 {
                    assert!(
                        mem(Variant::BaselineWasm32, core) < mem(v, core),
                        "{v} {core}"
                    );
                }
            }
        }
    }

    #[test]
    fn pac_costs_follow_table1() {
        let w = class_weights(&Variant::CagePtrAuth.exec_config(Core::CortexA510));
        // Auth charges the non-overlapped residue of the autda latency.
        assert!((w[ChargeClass::Auth as usize] - 7.99 / 10.0).abs() < 1e-12);
        assert_eq!(w[ChargeClass::Sign as usize], 5.00);
        // Disabled: the instruction degenerates to a move.
        let off = class_weights(&cfg(Core::CortexA510));
        assert_eq!(
            off[ChargeClass::Sign as usize],
            off[ChargeClass::Simple as usize]
        );
    }

    #[test]
    fn segment_costs_scale_with_granules() {
        let weights = class_weights(&cfg(Core::CortexX3));
        let segment_new = |granules: u64| {
            let mut counts = ChargeCounts::default();
            counts.counts[ChargeClass::SegmentNew as usize] = 1;
            counts.counts[ChargeClass::SegmentNewGranules as usize] = granules;
            counts.cycles(&weights)
        };
        let stzg = MteInstr::Stzg.issue_cycles(Core::CortexX3);
        assert_eq!(weights[ChargeClass::SegmentNewGranules as usize], stzg);
        assert_eq!(
            segment_new(1),
            weights[ChargeClass::SegmentNew as usize] + stzg
        );
        assert!((segment_new(64) - segment_new(1) - stzg * 63.0).abs() < 1e-9);
    }

    #[test]
    fn counts_price_to_cycles_and_retired_instructions() {
        let weights = class_weights(&cfg(Core::CortexA510));
        let mut counts = ChargeCounts {
            host_cycles: 80.0,
            ..ChargeCounts::default()
        };
        counts.counts[ChargeClass::Simple as usize] = 3;
        counts.counts[ChargeClass::Zero as usize] = 2;
        counts.counts[ChargeClass::Fill as usize] = 1;
        counts.counts[ChargeClass::FillBytes as usize] = 32;
        // Units are charged but retire nothing; `Zero` retires but is free.
        assert_eq!(counts.instr_count(), 6);
        let mem = weights[ChargeClass::Mem as usize];
        assert_eq!(
            counts.cycles(&weights),
            80.0 + 3.0 * 1.0 + mem + 32.0 * (mem / 16.0)
        );
        // Every class has a distinct name, and the order is the enum's.
        for (i, class) in ChargeClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i);
            assert_eq!(
                ChargeClass::ALL
                    .iter()
                    .filter(|c| c.name() == class.name())
                    .count(),
                1
            );
        }
        assert!(weights[..ChargeClass::OPS].iter().all(|w| *w >= 0.0));
    }

    #[test]
    fn indirect_call_costs_more_than_direct() {
        for core in Core::ALL {
            let w = class_weights(&cfg(core));
            assert!(w[ChargeClass::CallIndirect as usize] > w[ChargeClass::Call as usize]);
        }
    }
}
