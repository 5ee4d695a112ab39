//! Tag-check fault reporting.

use std::fmt;

use crate::tag::Tag;

/// Whether a checked access was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// A tag-check fault: the MTE analogue of a SIGSEGV with `SEGV_MTESERR`.
///
/// Produced when a memory access is performed through a pointer whose
/// logical tag does not match the allocation tag of the granule(s) accessed,
/// or when tag storage itself is addressed out of bounds. Checks are
/// synchronous, as Cage deploys MTE (§6.3): the faulting access does not
/// take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TagCheckFault {
    /// Faulting (untagged) address.
    pub addr: u64,
    /// Tag carried by the pointer.
    pub ptr_tag: Tag,
    /// Tag of the first mismatching granule, if the address was in bounds.
    pub mem_tag: Option<Tag>,
    /// Read or write.
    pub access: AccessKind,
}

impl fmt::Display for TagCheckFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mem_tag {
            Some(mem) => write!(
                f,
                "sync tag-check fault on {} at {:#x}: pointer tag {} != memory tag {}",
                self.access, self.addr, self.ptr_tag, mem
            ),
            None => write!(
                f,
                "sync tag-check fault on {} at {:#x}: address outside tagged memory",
                self.access, self.addr
            ),
        }
    }
}

impl std::error::Error for TagCheckFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_tags_and_mode() {
        let fault = TagCheckFault {
            addr: 0x1000,
            ptr_tag: Tag::new(3).unwrap(),
            mem_tag: Some(Tag::new(7).unwrap()),
            access: AccessKind::Write,
        };
        let text = fault.to_string();
        assert!(text.contains("sync"));
        assert!(text.contains("write"));
        assert!(text.contains("#3"));
        assert!(text.contains("#7"));
    }

    #[test]
    fn display_out_of_bounds_variant() {
        let fault = TagCheckFault {
            addr: 0xdead,
            ptr_tag: Tag::ZERO,
            mem_tag: None,
            access: AccessKind::Read,
        };
        assert_eq!(
            fault.to_string(),
            "sync tag-check fault on read at 0xdead: address outside tagged memory"
        );
    }
}
