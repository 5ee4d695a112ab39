//! Pointer signing and authentication (`pacda`/`autda`/`xpacd`).

use std::fmt;

use crate::key::PacKey;
use crate::layout::PointerLayout;
use crate::siphash::siphash24_pair;

/// Authentication failure. The modelled core implements `FEAT_FPAC`, as
/// the paper's Pixel 8 does (§7.1): a failed `autda` traps at once rather
/// than returning a poisoned pointer that faults on its next use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacFault {
    /// The pointer whose authentication failed (as presented).
    pub pointer: u64,
}

impl fmt::Display for PacFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pointer authentication failed for {:#x} (FPAC trap)",
            self.pointer
        )
    }
}

impl std::error::Error for PacFault {}

/// Signs and authenticates pointers under one key and layout.
///
/// One `PacSigner` corresponds to one WASM instance in Cage: the instance's
/// secret key plus, when several instances share a process, a per-instance
/// random modifier (§6.3 — PAC keys are per-process on real hardware, so
/// Cage distinguishes co-resident instances through the modifier).
#[derive(Debug, Clone, Copy)]
pub struct PacSigner {
    key: PacKey,
    layout: PointerLayout,
}

impl PacSigner {
    /// Creates a signer.
    #[must_use]
    pub fn new(key: PacKey, layout: PointerLayout) -> Self {
        PacSigner { key, layout }
    }

    /// The pointer layout in force.
    #[must_use]
    pub fn layout(&self) -> PointerLayout {
        self.layout
    }

    fn mac(&self, pointer: u64, modifier: u64) -> u64 {
        // The MAC covers the pointer with its signature field zeroed (the
        // canonical form) so that sign(auth(p)) is stable, plus the
        // modifier. MTE tag bits are *included* in the canonical form under
        // MtePac: re-tagging a signed pointer invalidates the signature.
        let canonical = self.layout.strip(pointer);
        let full = siphash24_pair(self.key.k0, self.key.k1, canonical, modifier);
        self.layout.truncate_mac(full)
    }

    /// `pacda`: computes and deposits the signature. The pointer's existing
    /// signature field is overwritten.
    #[must_use]
    pub fn sign(&self, pointer: u64, modifier: u64) -> u64 {
        let sig = self.mac(pointer, modifier);
        self.layout.deposit_signature(pointer, sig)
    }

    /// `autda`: validates the signature and strips it.
    ///
    /// # Errors
    ///
    /// Returns [`PacFault`] when the signature does not match: the
    /// instruction traps (`FEAT_FPAC`).
    pub fn auth(&self, pointer: u64, modifier: u64) -> Result<u64, PacFault> {
        let presented = self.layout.extract_signature(pointer);
        if presented == self.mac(pointer, modifier) {
            Ok(self.layout.strip(pointer))
        } else {
            Err(PacFault { pointer })
        }
    }

    /// `xpacd`: strips the signature without authenticating.
    #[must_use]
    pub fn strip(&self, pointer: u64) -> u64 {
        self.layout.strip(pointer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer(layout: PointerLayout) -> PacSigner {
        PacSigner::new(PacKey::from_parts(0x1111, 0x2222), layout)
    }

    #[test]
    fn sign_then_auth_roundtrips() {
        for layout in [PointerLayout::PacOnly, PointerLayout::MtePac] {
            let s = signer(layout);
            for ptr in [0u64, 0x1000, 0x0000_7fff_ffff_fff8, 0xdead_beef] {
                let signed = s.sign(ptr, 7);
                assert_eq!(s.auth(signed, 7), Ok(ptr), "{layout:?} {ptr:#x}");
            }
        }
    }

    #[test]
    fn wrong_modifier_fails_auth() {
        let s = signer(PointerLayout::PacOnly);
        let signed = s.sign(0x4000, 1);
        assert!(s.auth(signed, 2).is_err());
    }

    #[test]
    fn wrong_key_fails_auth() {
        // The cross-instance function-pointer-reuse defence (§4.2): a
        // pointer signed by one instance's key never authenticates under
        // another's.
        let a = signer(PointerLayout::PacOnly);
        let b = PacSigner::new(PacKey::from_parts(0x3333, 0x4444), PointerLayout::PacOnly);
        let signed = a.sign(0x4000, 0);
        assert!(b.auth(signed, 0).is_err());
    }

    #[test]
    fn tampered_address_bits_fail_auth() {
        let s = signer(PointerLayout::PacOnly);
        let signed = s.sign(0x4000, 0);
        for bit in [0, 1, 12, 47] {
            assert!(
                s.auth(signed ^ (1 << bit), 0).is_err(),
                "flipping address bit {bit} must invalidate the signature"
            );
        }
    }

    #[test]
    fn unsigned_pointer_with_nonzero_expected_sig_fails() {
        let s = signer(PointerLayout::PacOnly);
        // A raw pointer is its own strip; it authenticates only if its MAC
        // happens to be zero, which this one's isn't.
        assert!(s.auth(0x1234_5678, 0).is_err());
    }

    #[test]
    fn mte_tag_is_covered_by_signature() {
        // Under MtePac the tag bits are part of the signed canonical form:
        // re-tagging a signed pointer must break the signature, otherwise an
        // attacker could move a signed pointer onto another segment.
        let s = signer(PointerLayout::MtePac);
        let tagged = 0x1000u64 | (0x5 << 56);
        let signed = s.sign(tagged, 0);
        let retagged = (signed & !(0xF << 56)) | (0x9 << 56);
        assert!(s.auth(retagged, 0).is_err());
    }

    #[test]
    fn a_failed_auth_traps_with_the_presented_pointer() {
        let s = signer(PointerLayout::PacOnly);
        let fault = s.auth(0xBAD, 0).unwrap_err();
        assert_eq!(fault, PacFault { pointer: 0xBAD });
        assert_eq!(
            fault.to_string(),
            "pointer authentication failed for 0xbad (FPAC trap)"
        );
    }

    #[test]
    fn strip_removes_signature_without_checking() {
        let s = signer(PointerLayout::PacOnly);
        let signed = s.sign(0x7000, 9);
        assert_eq!(s.strip(signed), 0x7000);
        // Strip works even on garbage.
        assert_eq!(s.strip(0x7000), 0x7000);
    }

    #[test]
    fn forgery_probability_is_bounded_by_signature_bits() {
        // Brute-force check on a small sample: random signatures succeed at
        // ~2^-bits. With 14 bits, 4096 attempts should essentially never
        // authenticate (expected 0.25 successes; allow a little slack).
        let s = signer(PointerLayout::PacOnly);
        let mut successes = 0;
        for i in 0..4096u64 {
            let forged = PointerLayout::PacOnly.deposit_signature(0x4000, i);
            if s.auth(forged, 0).is_ok() {
                successes += 1;
            }
        }
        assert!(successes <= 2, "got {successes} lucky forgeries in 4096");
    }
}
