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

use cage_mte::{Core, MteInstr, MteMode};
use cage_pac::PacInstr;

use crate::config::{BoundsCheckStrategy, ExecConfig, InternalSafety};

/// Instruction classes the model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Simple integer ALU / compare / select / const / local access.
    Simple,
    /// Floating-point arithmetic.
    Float,
    /// Integer division / remainder.
    Div,
    /// Float division / sqrt.
    FloatDiv,
    /// Taken-or-not branch, br_table dispatch.
    Branch,
    /// Direct call (+ return).
    Call,
    /// Indirect call: table bounds + signature check + load.
    CallIndirect,
    /// Linear-memory load or store (base cost, before sandbox extras).
    MemAccess,
    /// memory.size/grow bookkeeping.
    MemManage,
}

/// Per-core, per-configuration cycle costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    core: Core,
    simple: f64,
    float: f64,
    div: f64,
    float_div: f64,
    branch: f64,
    call: f64,
    call_indirect: f64,
    mem_access: f64,
    mem_manage: f64,
    /// Extra cycles per access for the explicit software bounds check.
    bounds_check: f64,
    /// Extra cycles per access for the MTE sandbox tag check (Fig. 13).
    sandbox_check: f64,
    /// Extra cycles per access under internal memory safety (tag check +
    /// tagged-pointer handling).
    internal_check: f64,
    /// Extra cycles per access when sandboxing and internal safety share
    /// the single hardware check (combined mode, Fig. 13b).
    combined_check: f64,
    /// `pacda` dependency latency charged by `i64.pointer_sign`.
    pac_sign: f64,
    /// `autda` dependency latency charged by `i64.pointer_auth`.
    pac_auth: f64,
    /// `irg` + setup charged by `segment.new`/`free` once.
    segment_base: f64,
    /// Per-granule cycles for tagging (stzg for new, stg for free/set_tag).
    tag_granule: f64,
    untag_granule: f64,
}

impl CostModel {
    /// Builds the model for a core under `config`.
    #[must_use]
    pub fn for_config(config: &ExecConfig) -> Self {
        let core = config.core;
        // Base per-class costs (cycles). OoO cores retire several simple
        // ops per cycle; the in-order 2-wide A510 does not hide latency.
        let (simple, float, div, float_div, branch, call, call_indirect, mem, mem_manage) =
            match core {
                Core::CortexX3 => (0.25, 0.50, 4.0, 8.0, 0.60, 4.0, 23.0, 0.55, 6.0),
                Core::CortexA715 => (0.33, 0.60, 5.0, 10.0, 0.70, 5.0, 22.0, 0.65, 7.0),
                Core::CortexA510 => (1.00, 2.00, 10.0, 18.0, 2.00, 9.0, 76.0, 1.60, 12.0),
            };
        // Software bounds check: nearly free under speculation, expensive
        // in order. Calibrated so the PolyBench wasm64-over-wasm32 ratio
        // reproduces §3's 6-8 % (out-of-order) and 52 % (in-order).
        let bounds_check = match core {
            Core::CortexX3 => 0.43,
            Core::CortexA715 => 0.79,
            Core::CortexA510 => 13.4,
        };
        // MTE tag checks ride the memory pipeline. Three flavours,
        // calibrated against Fig. 14's bar heights:
        //  * sandbox-only (external): the check replaces the bounds check
        //    almost for free;
        //  * internal-only: the check plus tagged-pointer handling (the
        //    Cage-mem-safety 3.6/5.6/1.5 % overheads);
        //  * combined: one hardware check covers both properties (full
        //    Cage stays *faster* than wasm64 on every core).
        let (sandbox_check, internal_check, combined_check) = match core {
            Core::CortexX3 => (0.14, 0.277, 0.27),
            Core::CortexA715 => (0.287, 0.55, 0.35),
            Core::CortexA510 => (0.17, 0.52, 1.78),
        };
        // Asynchronous mode defers the check off the critical path.
        let mode_scale = match config.mte_mode {
            MteMode::Disabled => 0.0,
            MteMode::Synchronous | MteMode::Asymmetric => 1.0,
            MteMode::Asynchronous => 0.3,
        };
        let sandbox_check = sandbox_check * mode_scale;
        let internal_check = internal_check * mode_scale;
        let combined_check = combined_check * mode_scale;
        CostModel {
            core,
            simple,
            float,
            div,
            float_div,
            branch,
            call,
            call_indirect,
            mem_access: mem,
            mem_manage,
            bounds_check,
            sandbox_check,
            internal_check,
            combined_check,
            pac_sign: PacInstr::Pacda.latency(core),
            // The authenticate in the Fig. 9 call sequence overlaps with
            // the indirect-branch resolution ("adding pointer
            // authentication only adds 5 cycles of latency, which is not
            // noticeable", §7.2): charge the non-overlapped residue.
            pac_auth: PacInstr::Autda.latency(core) / 10.0,
            segment_base: MteInstr::Irg.latency(core).unwrap_or(2.0) + 2.0,
            tag_granule: MteInstr::Stzg.issue_cycles(core),
            untag_granule: MteInstr::Stg.issue_cycles(core),
        }
    }

    /// The simulated core.
    #[must_use]
    pub fn core(&self) -> Core {
        self.core
    }

    /// Base cost of an instruction class.
    #[must_use]
    pub fn class_cost(&self, class: InstrClass) -> f64 {
        match class {
            InstrClass::Simple => self.simple,
            InstrClass::Float => self.float,
            InstrClass::Div => self.div,
            InstrClass::FloatDiv => self.float_div,
            InstrClass::Branch => self.branch,
            InstrClass::Call => self.call,
            InstrClass::CallIndirect => self.call_indirect,
            InstrClass::MemAccess => self.mem_access,
            InstrClass::MemManage => self.mem_manage,
        }
    }

    /// Full cost of one memory access under the configured sandbox and
    /// internal-safety settings.
    #[must_use]
    pub fn mem_access_cost(&self, config: &ExecConfig) -> f64 {
        let mut cost = self.mem_access;
        if config.bounds.has_software_check() {
            cost += self.bounds_check;
        }
        let sandbox = config.bounds == BoundsCheckStrategy::MteSandbox;
        let internal = config.internal == InternalSafety::Mte;
        cost += match (sandbox, internal) {
            // A single hardware check enforces both properties (§6.4).
            (true, true) => self.combined_check,
            (true, false) => self.sandbox_check,
            (false, true) => self.internal_check,
            (false, false) => 0.0,
        };
        cost
    }

    /// Cost of `i64.pointer_sign` (no-op cost when auth is disabled).
    #[must_use]
    pub fn pointer_sign_cost(&self, config: &ExecConfig) -> f64 {
        if config.pointer_auth {
            self.pac_sign
        } else {
            self.simple
        }
    }

    /// Cost of `i64.pointer_auth`.
    #[must_use]
    pub fn pointer_auth_cost(&self, config: &ExecConfig) -> f64 {
        if config.pointer_auth {
            self.pac_auth
        } else {
            self.simple
        }
    }

    /// Cost of `segment.new` over `granules` 16-byte granules.
    #[must_use]
    pub fn segment_new_cost(&self, granules: u64) -> f64 {
        self.segment_base + self.tag_granule * granules as f64
    }

    /// Cost of `segment.free` / `segment.set_tag` over `granules` granules.
    #[must_use]
    pub fn segment_retag_cost(&self, granules: u64) -> f64 {
        self.segment_base + self.untag_granule * granules as f64
    }

    /// Converts accumulated cycles to milliseconds on this core.
    #[must_use]
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        self.core.cycles_to_ms(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(core: Core) -> ExecConfig {
        ExecConfig::default().on_core(core)
    }

    #[test]
    fn in_order_core_is_slower_everywhere() {
        let x3 = CostModel::for_config(&cfg(Core::CortexX3));
        let a510 = CostModel::for_config(&cfg(Core::CortexA510));
        for class in [
            InstrClass::Simple,
            InstrClass::Float,
            InstrClass::Branch,
            InstrClass::Call,
            InstrClass::MemAccess,
        ] {
            assert!(a510.class_cost(class) > x3.class_cost(class), "{class:?}");
        }
    }

    #[test]
    fn bounds_check_dwarfs_on_in_order_core() {
        // The §3 claim in microcosm: the relative cost of the software
        // check is far higher in-order.
        let x3 = CostModel::for_config(&cfg(Core::CortexX3));
        let a510 = CostModel::for_config(&cfg(Core::CortexA510));
        let rel_x3 = x3.bounds_check / x3.mem_access;
        let rel_a510 = a510.bounds_check / a510.mem_access;
        assert!(rel_a510 > 3.0 * rel_x3);
    }

    #[test]
    fn mte_sandbox_access_cheaper_than_software_bounds() {
        for core in Core::ALL {
            let mut sw = cfg(core);
            sw.bounds = BoundsCheckStrategy::Software;
            let mut mte = cfg(core);
            mte.bounds = BoundsCheckStrategy::MteSandbox;
            let model = CostModel::for_config(&sw);
            assert!(
                model.mem_access_cost(&mte) < model.mem_access_cost(&sw),
                "{core}"
            );
        }
    }

    #[test]
    fn guard_pages_have_no_per_access_cost() {
        let mut gp = cfg(Core::CortexX3);
        gp.bounds = BoundsCheckStrategy::GuardPages;
        let model = CostModel::for_config(&gp);
        assert_eq!(model.mem_access_cost(&gp), model.mem_access);
    }

    #[test]
    fn pac_costs_follow_table1() {
        let cfgp = ExecConfig {
            pointer_auth: true,
            ..cfg(Core::CortexA510)
        };
        let model = CostModel::for_config(&cfgp);
        // Auth charges the non-overlapped residue of the autda latency.
        assert!((model.pointer_auth_cost(&cfgp) - 7.99 / 10.0).abs() < 1e-12);
        assert_eq!(model.pointer_sign_cost(&cfgp), 5.00);
        // Disabled: the instruction degenerates to a move.
        let off = cfg(Core::CortexA510);
        assert_eq!(model.pointer_sign_cost(&off), model.simple);
    }

    #[test]
    fn segment_costs_scale_with_granules() {
        let model = CostModel::for_config(&cfg(Core::CortexX3));
        let small = model.segment_new_cost(1);
        let large = model.segment_new_cost(64);
        assert!(large > small);
        assert!((large - small) - model.tag_granule * 63.0 < 1e-9);
    }

    #[test]
    fn async_mode_checks_cheaper_than_sync() {
        let mut sync = cfg(Core::CortexA510);
        sync.internal = InternalSafety::Mte;
        sync.mte_mode = MteMode::Synchronous;
        let mut asyn = sync;
        asyn.mte_mode = MteMode::Asynchronous;
        let m_sync = CostModel::for_config(&sync);
        let m_async = CostModel::for_config(&asyn);
        assert!(m_async.mem_access_cost(&asyn) < m_sync.mem_access_cost(&sync));
    }

    #[test]
    fn indirect_call_costs_more_than_direct() {
        for core in Core::ALL {
            let m = CostModel::for_config(&cfg(core));
            assert!(m.class_cost(InstrClass::CallIndirect) > m.class_cost(InstrClass::Call));
        }
    }
}
