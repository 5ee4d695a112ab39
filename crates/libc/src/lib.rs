//! # cage-libc — the hardened C library of the Cage toolchain
//!
//! Plays the role of the paper's modified wasi-libc (§6.2): a dlmalloc-
//! style allocator adapted to Cage's segments plus the small libc surface
//! the micro-C programs use, exposed to guests as host functions in the
//! `cage_libc` import module.
//!
//! The allocator implements the paper's heap-safety design exactly:
//!
//! * requested sizes are aligned to the 16-byte tag granule;
//! * every allocation is preceded by an **untagged 16-byte metadata slot**
//!   (Fig. 8a), so adjacent allocations can never collide on a tag and
//!   heap overflows into allocator metadata are caught by the tag check;
//! * `malloc` creates a segment (`segment.new`) and returns the tagged
//!   pointer; `free` retags through `segment.free`, catching use-after-
//!   free and double-free deterministically (§4.2);
//! * on baseline configurations (internal safety off) the allocator
//!   degrades to ordinary dlmalloc behaviour — overflows and UAF go
//!   undetected, which is exactly what the Table 2 comparison measures.
//!
//! `strcpy`/`memset`/`memcpy` route every byte through the engine's
//! checked access path, so C-level misuse (the Table 2 CVE analogues)
//! faults exactly where hardware MTE would fault.
//!
//! The [`Linker`] names the host surface instances are created against —
//! this libc, embedder functions, or both — and is what gives each
//! instance its own libc, its heap starting at the module's own
//! `__heap_base` ([`heap_base_of`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod host;
pub mod linker;

pub use alloc::{AllocStats, Allocator};
pub use host::{heap_base_of, Libc};
pub use linker::Linker;
