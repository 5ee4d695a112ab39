//! SipHash-2-4, implemented from scratch.
//!
//! PAC hardware uses the QARMA block cipher; this reproduction substitutes
//! SipHash-2-4 as the keyed PRF. SipHash is a 128-bit-key
//! MAC with a 64-bit output, which we truncate to the pointer layout's
//! signature budget exactly as hardware truncates QARMA's output.
//!
//! The implementation follows the SipHash paper's reference description and
//! is validated against the official test vectors in the tests below.

/// SipHash-2-4 of `data` under the 128-bit key `(k0, k1)`.
#[must_use]
pub fn siphash24(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = 0x736f_6d65_7073_6575_u64 ^ k0;
    let mut v1 = 0x646f_7261_6e64_6f6d_u64 ^ k1;
    let mut v2 = 0x6c79_6765_6e65_7261_u64 ^ k0;
    let mut v3 = 0x7465_6462_7974_6573_u64 ^ k1;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        v3 ^= m;
        sipround!();
        sipround!();
        v0 ^= m;
    }

    // Final block: remaining bytes plus the length in the top byte.
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    sipround!();
    sipround!();
    v0 ^= m;

    v2 ^= 0xFF;
    sipround!();
    sipround!();
    sipround!();
    sipround!();

    v0 ^ v1 ^ v2 ^ v3
}

/// SipHash-2-4 of two 64-bit words — the shape PAC needs: the pointer value
/// and the user-supplied modifier (§2.3 "Signatures are created using the
/// pointer value, a secret key [...] and a user-defined value (modifier)").
#[must_use]
pub fn siphash24_pair(k0: u64, k1: u64, a: u64, b: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&a.to_le_bytes());
    buf[8..].copy_from_slice(&b.to_le_bytes());
    siphash24(k0, k1, &buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key and expected outputs from the SipHash reference implementation
    /// (`vectors_sip64` in the official repository): key = 000102…0f,
    /// message = first n bytes of 00 01 02 ….
    #[test]
    fn reference_vectors() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let expected: [u64; 16] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
            0x93f5_f579_9a93_2462,
            0x9e00_82df_0ba9_e4b0,
            0x7a5d_bbc5_94dd_b9f3,
            0xf4b3_2f46_226b_ada7,
            0x751e_8fbc_860e_e5fb,
            0x14ea_5627_c084_3d90,
            0xf723_ca90_8e7a_f2ee,
            0xa129_ca61_49be_45e5,
        ];
        let msg: Vec<u8> = (0..16).collect();
        for (n, want) in expected.iter().enumerate() {
            assert_eq!(siphash24(k0, k1, &msg[..n]), *want, "length {n}");
        }
    }

    #[test]
    fn different_keys_give_different_macs() {
        let h1 = siphash24_pair(1, 2, 0xdead_beef, 42);
        let h2 = siphash24_pair(3, 4, 0xdead_beef, 42);
        assert_ne!(h1, h2);
    }

    #[test]
    fn different_modifiers_give_different_macs() {
        let h1 = siphash24_pair(1, 2, 0xdead_beef, 0);
        let h2 = siphash24_pair(1, 2, 0xdead_beef, 1);
        assert_ne!(h1, h2);
    }

    #[test]
    fn pair_matches_flat_encoding() {
        let mut buf = [0u8; 16];
        buf[..8].copy_from_slice(&7u64.to_le_bytes());
        buf[8..].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(siphash24_pair(1, 2, 7, 9), siphash24(1, 2, &buf));
    }
}
