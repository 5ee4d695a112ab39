//! # cage-pac — Arm Pointer Authentication (PAC) simulator
//!
//! PAC places a cryptographic signature in the unused upper bits of a
//! pointer; signed pointers cannot be dereferenced until they are
//! authenticated, which validates and strips the signature (§2.3 of the
//! Cage paper). Real hardware computes the signature with the QARMA block
//! cipher and per-process keys held in inaccessible system registers.
//!
//! This simulator preserves everything Cage's security argument relies on:
//!
//! * signatures are a keyed MAC over (pointer, modifier) — forging one
//!   requires the key, which guest code can never read;
//! * the exact Linux pointer layouts of Fig. 3, including the reduced
//!   signature budget when MTE is enabled (bits 63–60 and 54–49) versus
//!   PAC alone (bits 63–56 and 54–49, bit 55 reserved for kernel/user);
//! * `FEAT_FPAC` semantics: authentication failure traps immediately, as on
//!   the paper's Pixel 8 hardware (§7.1);
//! * Table 1's PAC instruction timings, consumed by the engine's cycle
//!   accounting.
//!
//! The MAC is an in-repo SipHash-2-4 (tested against the reference vectors)
//! rather than QARMA; any PRF with the same truncated-signature budget
//! preserves the forgery-probability analysis.
//!
//! ## Example
//!
//! ```
//! use cage_pac::{PacKey, PacSigner, PointerLayout};
//!
//! let key = PacKey::from_parts(1, 2);
//! let signer = PacSigner::new(key, PointerLayout::PacOnly);
//! let signed = signer.sign(0x1000, 0);
//! assert_ne!(signed, 0x1000, "signature occupies the upper bits");
//! assert_eq!(signer.auth(signed, 0), Ok(0x1000));
//! assert!(signer.auth(signed ^ 1, 0).is_err(), "tampering is caught");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod key;
pub mod layout;
pub mod sign;
pub mod siphash;

pub use cost::PacInstr;
pub use key::PacKey;
pub use layout::PointerLayout;
pub use sign::{PacFault, PacSigner};
