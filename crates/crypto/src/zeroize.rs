//! Best-effort secret scrubbing without `unsafe`.
//!
//! Key schedules, MAC states, and derived keys should not outlive their use
//! in process memory. The crate denies `unsafe` outside its hardware-kernel
//! module, so `ptr::write_volatile` is unavailable here; instead the helpers
//! overwrite the buffer and then launder the reference through
//! [`core::hint::black_box`], which tells the optimizer the zeroed bytes are
//! observed and keeps the stores from being elided as dead writes. This is
//! the strongest guarantee available in safe Rust — it scrubs the final
//! resting place of a value, not stack or register copies made while it was
//! alive — and is how the key types ([`crate::aes::Aes128`], the GCM key
//! states behind [`crate::gcm::AesGcm`], [`crate::sha256::Sha256`],
//! [`crate::sha512::Sha512`]) implement `Drop`.

use core::hint::black_box;

/// Overwrites `bytes` with zeros and inhibits dead-store elimination.
pub fn zeroize_bytes(bytes: &mut [u8]) {
    for b in bytes.iter_mut() {
        *b = 0;
    }
    black_box(bytes);
}

/// Zeroizes a `u32` word buffer (SHA-256 chaining state).
pub fn zeroize_u32s(words: &mut [u32]) {
    for w in words.iter_mut() {
        *w = 0;
    }
    black_box(words);
}

/// Zeroizes a `u64` word buffer (SHA-512 chaining state).
pub fn zeroize_u64s(words: &mut [u64]) {
    for w in words.iter_mut() {
        *w = 0;
    }
    black_box(words);
}

/// Zeroizes a single `u128` (a GHASH subkey power, a round key, a table entry).
pub fn zeroize_u128(v: &mut u128) {
    *v = 0;
    black_box(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroize_clears_every_element() {
        let mut bytes = [0xA5u8; 64];
        zeroize_bytes(&mut bytes);
        assert_eq!(bytes, [0u8; 64]);

        let mut words32 = [0xDEAD_BEEFu32; 8];
        zeroize_u32s(&mut words32);
        assert_eq!(words32, [0u32; 8]);

        let mut words64 = [u64::MAX; 8];
        zeroize_u64s(&mut words64);
        assert_eq!(words64, [0u64; 8]);

        let mut h = u128::MAX;
        zeroize_u128(&mut h);
        assert_eq!(h, 0);
    }

    #[test]
    fn zeroize_handles_empty_slices() {
        zeroize_bytes(&mut []);
        zeroize_u32s(&mut []);
        zeroize_u64s(&mut []);
    }
}
