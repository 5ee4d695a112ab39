//! Traps: WebAssembly's abnormal terminations, extended with Cage's
//! tag-check and pointer-authentication faults.

use std::fmt;

use cage_mte::TagCheckFault;
use cage_pac::PacFault;
use cage_wasm::numeric::NumericTrap;

/// Why execution trapped.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// `unreachable` executed.
    Unreachable,
    /// A memory access failed the software bounds check or fell off the
    /// guard region.
    OutOfBounds {
        /// Accessed (untagged) address.
        addr: u64,
        /// Access width in bytes.
        len: u64,
    },
    /// An MTE tag check failed — Cage's memory-safety trap (Fig. 11
    /// rules 2/4) and the sandbox trap in MTE-sandboxing mode.
    TagCheck(TagCheckFault),
    /// `i64.pointer_auth` failed (Fig. 11 rule 13).
    PointerAuth(PacFault),
    /// A segment instruction was misused: unaligned or out-of-bounds
    /// segment (Fig. 11 rules 6/8/10).
    SegmentFault {
        /// Offending address.
        addr: u64,
        /// Explanation.
        reason: SegmentFaultReason,
    },
    /// Integer division by zero.
    DivideByZero,
    /// `INT_MIN / -1` style overflow.
    IntegerOverflow,
    /// Float-to-int conversion of NaN or an out-of-range value.
    InvalidConversion,
    /// `call_indirect` into a null/missing table slot.
    UndefinedElement,
    /// `call_indirect` signature mismatch.
    IndirectCallTypeMismatch,
    /// Call depth exceeded the engine limit.
    CallStackExhausted,
    /// A host function reported an error.
    Host(String),
    /// Deferred asynchronous MTE fault surfaced at a check point.
    AsyncTagCheck(TagCheckFault),
    /// The instance's fuel budget ([`crate::Store::set_fuel`]) ran out at
    /// a preemption check point.
    FuelExhausted,
    /// The engine-shared epoch counter passed the instance's deadline
    /// ([`crate::Store::set_epoch_deadline`]) at a preemption check point.
    EpochInterrupt,
    /// A host function panicked; the panic was caught at the dispatch
    /// boundary and the calling slot must be considered poisoned.
    HostPanic(String),
}

/// Renders a caught panic payload (what `catch_unwind` returns) for
/// diagnostics: the message behind [`Trap::HostPanic`] and the embedding
/// layers' compile-panic errors.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Why a segment instruction trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFaultReason {
    /// Address or length not 16-byte aligned.
    Unaligned,
    /// Segment lies outside the linear memory.
    OutOfBounds,
    /// `segment.free` on memory the pointer no longer owns (double-free or
    /// tag mismatch).
    BadFree,
    /// Segment instructions need internal memory safety enabled.
    SafetyDisabled,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::Unreachable => f.write_str("unreachable executed"),
            Trap::OutOfBounds { addr, len } => {
                write!(f, "out-of-bounds memory access at {addr:#x} (width {len})")
            }
            Trap::TagCheck(fault) => write!(f, "{fault}"),
            Trap::PointerAuth(fault) => write!(f, "{fault}"),
            Trap::SegmentFault { addr, reason } => {
                let why = match reason {
                    SegmentFaultReason::Unaligned => "not 16-byte aligned",
                    SegmentFaultReason::OutOfBounds => "outside linear memory",
                    SegmentFaultReason::BadFree => "freed through a stale pointer (double free?)",
                    SegmentFaultReason::SafetyDisabled => {
                        "segment instructions need internal memory safety"
                    }
                };
                write!(f, "segment fault at {addr:#x}: {why}")
            }
            Trap::DivideByZero => f.write_str("integer divide by zero"),
            Trap::IntegerOverflow => f.write_str("integer overflow"),
            Trap::InvalidConversion => f.write_str("invalid conversion to integer"),
            Trap::UndefinedElement => f.write_str("undefined table element"),
            Trap::IndirectCallTypeMismatch => f.write_str("indirect call type mismatch"),
            Trap::CallStackExhausted => f.write_str("call stack exhausted"),
            Trap::Host(msg) => write!(f, "host error: {msg}"),
            Trap::AsyncTagCheck(fault) => write!(f, "deferred {fault}"),
            Trap::FuelExhausted => f.write_str("fuel exhausted"),
            Trap::EpochInterrupt => f.write_str("epoch deadline reached"),
            Trap::HostPanic(msg) => write!(f, "host function panicked: {msg}"),
        }
    }
}

impl std::error::Error for Trap {}

impl From<TagCheckFault> for Trap {
    fn from(fault: TagCheckFault) -> Self {
        if fault.asynchronous {
            Trap::AsyncTagCheck(fault)
        } else {
            Trap::TagCheck(fault)
        }
    }
}

impl From<PacFault> for Trap {
    fn from(fault: PacFault) -> Self {
        Trap::PointerAuth(fault)
    }
}

impl From<NumericTrap> for Trap {
    fn from(trap: NumericTrap) -> Self {
        match trap {
            NumericTrap::DivideByZero => Trap::DivideByZero,
            NumericTrap::IntegerOverflow => Trap::IntegerOverflow,
            NumericTrap::InvalidConversion => Trap::InvalidConversion,
        }
    }
}

impl Trap {
    /// Whether this trap is a memory-safety detection (as opposed to an
    /// ordinary WASM trap) — what the CVE-gallery tests assert on.
    #[must_use]
    pub fn is_memory_safety_violation(&self) -> bool {
        matches!(
            self,
            Trap::TagCheck(_) | Trap::AsyncTagCheck(_) | Trap::SegmentFault { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cage_mte::{AccessKind, Tag};

    fn fault(asynchronous: bool) -> TagCheckFault {
        TagCheckFault {
            addr: 0x40,
            ptr_tag: Tag::new(1).unwrap(),
            mem_tag: Some(Tag::new(2).unwrap()),
            access: AccessKind::Read,
            asynchronous,
        }
    }

    #[test]
    fn sync_fault_converts_to_tag_check() {
        assert!(matches!(Trap::from(fault(false)), Trap::TagCheck(_)));
    }

    #[test]
    fn async_fault_converts_to_deferred() {
        assert!(matches!(Trap::from(fault(true)), Trap::AsyncTagCheck(_)));
    }

    #[test]
    fn memory_safety_classification() {
        assert!(Trap::from(fault(false)).is_memory_safety_violation());
        assert!(Trap::SegmentFault {
            addr: 0,
            reason: SegmentFaultReason::BadFree
        }
        .is_memory_safety_violation());
        assert!(!Trap::DivideByZero.is_memory_safety_violation());
        assert!(!Trap::OutOfBounds { addr: 0, len: 1 }.is_memory_safety_violation());
    }

    #[test]
    fn display_strings() {
        assert!(Trap::DivideByZero.to_string().contains("divide"));
        assert!(Trap::SegmentFault {
            addr: 0x20,
            reason: SegmentFaultReason::Unaligned
        }
        .to_string()
        .contains("aligned"));
    }
}
