//! # cage-mte — Arm Memory Tagging Extension (MTE) simulator
//!
//! This crate is the hardware substrate of the Cage reproduction. The paper
//! ("Cage: Hardware-Accelerated Safe WebAssembly", CGO 2025) evaluates on a
//! Google Pixel 8 whose Tensor G3 cores implement Arm MTE. This environment
//! has no MTE hardware, so `cage-mte` models the extension in software:
//!
//! * **Architectural state** ([`TagMemory`]): one 4-bit allocation tag per
//!   16-byte granule, lock-and-key checks on every access in synchronous
//!   mode (the one Cage deploys, §6.3), and a GCR_EL1-style tag-exclusion
//!   mask configured like Linux `prctl`.
//! * **Tagged pointers** ([`mod@pointer`]): the layout of logical tags in
//!   address bits 56–59. Of the tag instructions, `irg`'s random tag is
//!   [`TagPool::random_tag`] and `addg`'s step past excluded tags is
//!   [`Tag::offset_excluding`]; `subg` and `subp` are not modelled, as
//!   guest pointer arithmetic is plain `i64` arithmetic.
//! * **Timing** ([`cost`], [`timing`]): a deterministic per-core cost model
//!   for the Tensor G3's Cortex-X3 / Cortex-A715 / Cortex-A510, calibrated
//!   from the paper's own measurements (Table 1, Fig. 4, Fig. 16); the four
//!   check modes ([`MteMode`]) are the input of Fig. 4's `memset` model.
//!
//! The architectural rules are implemented bit-for-bit, so everything the
//! paper's security argument relies on (what faults, and when) behaves as on
//! real hardware. Timing is a model, which is exactly what the reproduction
//! needs: the paper's claims are relative shapes, not absolute milliseconds.
//!
//! ## Tag store layout and bulk cost
//!
//! [`TagMemory`] packs the tags as nibbles, two granules per byte with the
//! **low nibble holding the even granule**: 2 KiB of tags per 64 KiB page,
//! the paper's 1/32 (§7.3). Bulk tagging is cheap on hardware (`stzg`/
//! `st2g` in `malloc`/`free`, the §7.2 instantiation-time pass), and the
//! host model keeps its three bulk operations cheap with two word-wide
//! kernels in safe Rust:
//!
//! * **fill** ([`TagMemory::set_tag_range`]): an odd first or last
//!   granule is one nibble read-modify-write, everything between is whole
//!   bytes `fill`ed with `tag * 0x11`;
//! * **compare**, one scan shared by [`TagMemory::range_tag`] and
//!   [`TagMemory::check_access`]: 8 bytes (16 granules) per comparison
//!   against the tag replicated into every nibble; the word is assembled
//!   little-endian, so the lowest differing bit names the first
//!   mismatching granule and its stored tag. Only an odd first granule
//!   and the sub-word tail are looked at nibble by nibble, and a
//!   one-granule (scalar) access is a single nibble compare.
//!
//! A linear-memory reset on top of this re-tags each run of adjacent
//! retagged 4 KiB blocks with one fill, apart from the `memset` of the
//! 64-byte data lines the tenant wrote; a block's tags are 128 bytes,
//! 1/32 of its data. The
//! per-granule loops these kernels replaced live on as the `#[cfg(test)]`
//! reference model in `model.rs`; a seeded property test compares every
//! granule, fault payload and check count between the two.
//!
//! ## Example
//!
//! ```
//! use cage_mte::{TagMemory, Tag, AccessKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = TagMemory::new(4096);
//! let tag = Tag::new(5)?;
//! mem.set_tag_range(0, 64, tag)?;
//!
//! // Accesses through a matching tag succeed…
//! assert!(mem.check_access(0, 16, tag, AccessKind::Write).is_ok());
//! // …and a mismatching tag faults before the access takes effect.
//! assert!(mem.check_access(0, 16, Tag::new(6)?, AccessKind::Read).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core_kind;
pub mod cost;
pub mod fault;
pub mod memory;
#[cfg(test)]
mod model;
pub mod pipeline;
pub mod pointer;
pub mod tag;
pub mod timing;

pub use core_kind::Core;
pub use cost::MteInstr;
pub use fault::{AccessKind, TagCheckFault};
pub use memory::TagMemory;
pub use tag::{Tag, TagError, TagExclusionMask, TagPool, GRANULE_SIZE};
pub use timing::MteMode;
