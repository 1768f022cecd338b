//! Cryptographic primitives for the `sgx-migrate` workspace.
//!
//! The simulated SGX platform (`sgx-sim`) and the migration protocol
//! (`mig-core`) need real cryptography — sealing is AES-GCM, attestation
//! channels are Diffie–Hellman + AEAD, operator credentials are signatures —
//! and no cryptography crates are available in the offline dependency set.
//! This crate therefore implements the required primitives from their
//! specifications:
//!
//! * [`sha256`] / [`sha512`] — FIPS 180-4 hash functions,
//! * [`hmac`] — RFC 2104 / FIPS 198-1 message authentication,
//! * [`hkdf`] — RFC 5869 key derivation,
//! * [`aes`] — FIPS 197 AES-128 block cipher,
//! * [`gcm`] — NIST SP 800-38D AES-128-GCM authenticated encryption,
//! * [`x25519`] — RFC 7748 Diffie–Hellman over Curve25519,
//! * [`ed25519`] — RFC 8032 signatures,
//! * [`ct`] — constant-time comparison helpers,
//! * [`zeroize`] — best-effort scrubbing of key material on drop.
//!
//! Every primitive is validated against the published test vectors of its
//! specification (see the unit tests in each module) plus property-based
//! round-trip tests.
//!
//! # Kernels and `unsafe`
//!
//! AES-GCM and SHA-256, which carry every sealed and hashed byte, run on
//! the CPU's AES-NI, PCLMULQDQ and SHA-NI instructions when the build
//! targets them (`cfg(target_feature)`; the workspace builds with
//! `target-cpu=native`), AES-GCM on their 256-bit forms VAES and
//! VPCLMULQDQ when the build targets those too, and on software kernels
//! otherwise.
//! [`gcm::KERNEL`] and [`sha256::KERNEL`] name the selection; the
//! software kernels stay in every build as the fallback and as the
//! oracle the hardware kernels are tested against. The crate denies
//! `unsafe` everywhere except the private hardware-kernel module, where
//! each `unsafe` call carries a `// SAFETY:` comment naming the `cfg`
//! that guarantees the instructions exist.
//!
//! # Security note
//!
//! This code backs a *research simulator*. The implementations are correct
//! against the specification vectors, and tag/signature comparisons are
//! constant-time. On the curves, every path that takes a secret scalar
//! is written without branches or memory accesses that depend on it: the
//! fixed-base comb behind Ed25519 key derivation and signing and X25519
//! public keys (each table entry read by masked selection), the X25519
//! ladder (`cswap`), the addition-chain inversion, and the reductions
//! modulo L (masked conditional subtraction). Each mask passes through
//! `std::hint::black_box`: without it, LLVM compiled the masked moves back
//! into branches on the secret (a jump table over a comb row, a branch
//! per ladder step), and with it the release assembly of those paths
//! branches on loop counters only. That barrier is best-effort, not a
//! guarantee. Ed25519 verification runs in variable time, on public data
//! only (key, message, signature). The software GHASH fallback indexes
//! its tables with key- and data-dependent bytes. Do not reuse this code
//! to protect production secrets.
//!
//! # Example
//!
//! ```
//! use mig_crypto::{gcm::AesGcm, sha256::sha256};
//!
//! # fn main() -> Result<(), mig_crypto::CryptoError> {
//! let key = sha256(b"example key material");
//! let aead = AesGcm::new(key[..16].try_into().unwrap());
//! let nonce = [7u8; 12];
//! let sealed = aead.seal(&nonce, b"associated data", b"secret");
//! let opened = aead.open(&nonce, b"associated data", &sealed)?;
//! assert_eq!(opened, b"secret");
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod ed25519;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod sha256;
pub mod sha512;
pub mod x25519;
pub mod zeroize;

mod curve25519;
#[cfg(target_arch = "x86_64")]
mod hw;

use std::error::Error;
use std::fmt;

/// Errors produced by the primitives in this crate.
///
/// The error deliberately carries no detail about *why* an authenticated
/// operation failed: distinguishing tag or decode failures is a classic
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CryptoError {
    /// An authentication tag or signature did not verify.
    AuthenticationFailed,
    /// An input had an invalid length (e.g. a truncated ciphertext).
    InvalidLength,
    /// An encoded curve point could not be decoded.
    InvalidPoint,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication failed"),
            CryptoError::InvalidLength => write!(f, "invalid input length"),
            CryptoError::InvalidPoint => write!(f, "invalid curve point encoding"),
        }
    }
}

impl Error for CryptoError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CryptoError>;

/// Decodes a hexadecimal string; panics on malformed input.
///
/// Intended for tests and fixtures, where the input is a literal.
///
/// # Panics
///
/// Panics if `s` has odd length or contains a non-hex character.
///
/// # Example
///
/// ```
/// assert_eq!(mig_crypto::hex_decode("00ff"), vec![0x00, 0xff]);
/// ```
pub fn hex_decode(s: &str) -> Vec<u8> {
    assert!(
        s.len().is_multiple_of(2),
        "hex string must have even length"
    );
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("invalid hex digit"))
        .collect()
}

/// Encodes bytes as a lowercase hexadecimal string.
///
/// # Example
///
/// ```
/// assert_eq!(mig_crypto::hex_encode(&[0x00, 0xff]), "00ff");
/// ```
pub fn hex_encode(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty_and_lowercase() {
        for e in [
            CryptoError::AuthenticationFailed,
            CryptoError::InvalidLength,
            CryptoError::InvalidPoint,
        ] {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }

    #[test]
    fn hex_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)), bytes);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn hex_decode_rejects_odd_length() {
        hex_decode("abc");
    }
}
