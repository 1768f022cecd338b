//! Ed25519 signatures (RFC 8032).
//!
//! Signatures authenticate the *datacenter operator's* trust decisions in
//! the migration protocol: the operator root key signs Migration Enclave
//! credentials, MEs sign remote-attestation transcripts (§V-B of the paper:
//! "the Migration Enclaves then exchange signatures on the transcript of
//! the attestation protocol, using the keys provisioned by the data center
//! operator"), and the simulated Intel Attestation Service signs
//! attestation verification reports. Validated against the RFC 8032 §7.1
//! test vectors.

use crate::curve25519::{EdwardsPoint, Scalar};
use crate::sha512::Sha512;
use crate::{CryptoError, Result};

/// Length of public keys in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of secret seeds in bytes.
pub const SEED_LEN: usize = 32;
/// Length of signatures in bytes.
pub const SIGNATURE_LEN: usize = 64;

/// An Ed25519 signing key.
///
/// # Example
///
/// ```
/// use mig_crypto::ed25519::SigningKey;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let key = SigningKey::random(&mut rng);
/// let sig = key.sign(b"message");
/// assert!(key.verifying_key().verify(b"message", &sig).is_ok());
/// assert!(key.verifying_key().verify(b"other", &sig).is_err());
/// ```
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; SEED_LEN],
    /// Clamped secret scalar `a`.
    a: Scalar,
    /// Nonce-derivation prefix (second half of SHA-512(seed)).
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed (RFC 8032 §5.1.5).
    #[must_use]
    pub fn from_seed(seed: [u8; SEED_LEN]) -> Self {
        let mut h = Sha512::new();
        h.update(&seed);
        let digest = h.finalize();

        let mut scalar_bytes: [u8; 32] = digest[..32].try_into().expect("32 bytes");
        scalar_bytes[0] &= 248;
        scalar_bytes[31] &= 127;
        scalar_bytes[31] |= 64;
        // The clamped scalar is already < 2^255; reduce mod L for arithmetic.
        let a = Scalar::from_bytes_mod_order(&scalar_bytes);

        let prefix: [u8; 32] = digest[32..].try_into().expect("32 bytes");
        let public = VerifyingKey(EdwardsPoint::mul_base(&scalar_bytes).compress());
        SigningKey {
            seed,
            a,
            prefix,
            public,
        }
    }

    /// Samples a fresh signing key from `rng`.
    #[must_use]
    pub fn random(rng: &mut impl rand::RngCore) -> Self {
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        Self::from_seed(seed)
    }

    /// Returns the seed this key was derived from.
    #[must_use]
    pub fn seed(&self) -> &[u8; SEED_LEN] {
        &self.seed
    }

    /// Returns the public verification key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message`, producing a 64-byte signature `R || S`.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_with(message, EdwardsPoint::mul_base)
    }

    /// [`SigningKey::sign`] with `R = [r]B` computed by `mul_base`, so
    /// that the reference oracle can swap in double-and-add.
    fn sign_with(&self, message: &[u8], mul_base: impl Fn(&[u8; 32]) -> EdwardsPoint) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let r_comp = mul_base(r.as_bytes()).compress();

        let mut h = Sha512::new();
        h.update(&r_comp);
        h.update(&self.public.0);
        h.update(message);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let s = Scalar::mul_add(&k, &self.a, &r);

        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_comp);
        sig[32..].copy_from_slice(s.as_bytes());
        Signature(sig)
    }
}

/// An Ed25519 public verification key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; PUBLIC_KEY_LEN]);

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex_encode(&self.0))
    }
}

impl AsRef<[u8]> for VerifyingKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the public key or the `R`
    /// component does not decode to a curve point, and
    /// [`CryptoError::AuthenticationFailed`] if the equation
    /// `[S]B == R + [k]A` does not hold or `S` is non-canonical.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<()> {
        // All inputs are public: one variable-time Straus pass.
        self.verify_with(message, signature, |s, k, a| {
            a.neg().vartime_double_scalar_mul_base(k, s)
        })
    }

    /// [`VerifyingKey::verify`] with `[S]B - [k]A` computed by
    /// `s_b_minus_k_a(S, k, A)`, so that the reference oracle can swap in
    /// double-and-add.
    fn verify_with(
        &self,
        message: &[u8],
        signature: &Signature,
        s_b_minus_k_a: impl Fn(&[u8; 32], &[u8; 32], &EdwardsPoint) -> EdwardsPoint,
    ) -> Result<()> {
        let r_bytes: [u8; 32] = signature.0[..32].try_into().expect("32 bytes");
        let s_bytes: [u8; 32] = signature.0[32..].try_into().expect("32 bytes");

        // Reject malleable signatures: S must be canonical (< L).
        if !Scalar::is_canonical(&s_bytes) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let a_point = EdwardsPoint::decompress(&self.0).ok_or(CryptoError::InvalidPoint)?;
        let r_point = EdwardsPoint::decompress(&r_bytes).ok_or(CryptoError::InvalidPoint)?;

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(message);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());

        // [S]B == R + [k]A  ⇔  [S]B - [k]A == R
        let candidate = s_b_minus_k_a(&s_bytes, k.as_bytes(), &a_point);
        if candidate.ct_eq(&r_point) {
            Ok(())
        } else {
            Err(CryptoError::AuthenticationFailed)
        }
    }
}

/// A detached Ed25519 signature (`R || S`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({})", crate::hex_encode(&self.0))
    }
}

impl AsRef<[u8]> for Signature {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Signature {
    /// Parses a signature from a 64-byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `bytes` is not 64 bytes.
    pub fn from_slice(bytes: &[u8]) -> Result<Self> {
        let arr: [u8; SIGNATURE_LEN] = bytes.try_into().map_err(|_| CryptoError::InvalidLength)?;
        Ok(Signature(arr))
    }
}

/// The double-and-add oracles that the comb and the Straus pass replaced,
/// for tests and the `crypto_kernels` microbench (`reference` feature).
/// They branch on every scalar bit, the signing nonce's included: never
/// sign with them outside a test or a bench.
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::{EdwardsPoint, Result, Signature, SigningKey, VerifyingKey};

    /// [`SigningKey::sign`] with `R = [r]B` by bit-serial double-and-add.
    #[must_use]
    pub fn sign(key: &SigningKey, message: &[u8]) -> Signature {
        key.sign_with(message, |r| EdwardsPoint::base().scalar_mul(r))
    }

    /// [`VerifyingKey::verify`] with `[S]B` and `[k](-A)` by two
    /// bit-serial double-and-add passes.
    ///
    /// # Errors
    ///
    /// As [`VerifyingKey::verify`].
    pub fn verify(key: &VerifyingKey, message: &[u8], signature: &Signature) -> Result<()> {
        key.verify_with(message, signature, |s, k, a| {
            EdwardsPoint::base()
                .scalar_mul(s)
                .add(&a.neg().scalar_mul(k))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_decode, hex_encode};
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn seed(hex: &str) -> [u8; 32] {
        hex_decode(hex).try_into().unwrap()
    }

    #[test]
    fn rfc8032_test1_empty_message() {
        let key = SigningKey::from_seed(seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex_encode(&key.verifying_key().0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = key.sign(b"");
        assert_eq!(
            hex_encode(&sig.0),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        key.verifying_key().verify(b"", &sig).unwrap();
    }

    #[test]
    fn rfc8032_test2_one_byte() {
        let key = SigningKey::from_seed(seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex_encode(&key.verifying_key().0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let sig = key.sign(&[0x72]);
        assert_eq!(
            hex_encode(&sig.0),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        key.verifying_key().verify(&[0x72], &sig).unwrap();
    }

    #[test]
    fn rfc8032_test3_two_bytes() {
        let key = SigningKey::from_seed(seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            hex_encode(&key.verifying_key().0),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let sig = key.sign(&[0xaf, 0x82]);
        assert_eq!(
            hex_encode(&sig.0),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        key.verifying_key().verify(&[0xaf, 0x82], &sig).unwrap();
    }

    #[test]
    fn rfc8032_test_1024_bytes() {
        // RFC 8032 §7.1 TEST 1024: only key and signature spot-checked here;
        // the 1 KiB message is generated from the documented hex prefix.
        let key = SigningKey::from_seed(seed(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
        ));
        assert_eq!(
            hex_encode(&key.verifying_key().0),
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e"
        );
    }

    #[test]
    fn verify_rejects_wrong_message_and_tampered_sig() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let key = SigningKey::random(&mut rng);
        let sig = key.sign(b"hello");
        assert!(key.verifying_key().verify(b"hello!", &sig).is_err());
        for i in [0usize, 31, 32, 63] {
            let mut bad = sig;
            bad.0[i] ^= 1;
            assert!(
                key.verifying_key().verify(b"hello", &bad).is_err(),
                "byte {i}"
            );
        }
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let key1 = SigningKey::random(&mut rng);
        let key2 = SigningKey::random(&mut rng);
        let sig = key1.sign(b"msg");
        assert!(key2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_non_canonical_s() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let key = SigningKey::random(&mut rng);
        let sig = key.sign(b"msg");
        // Force S >= L by setting the top bits.
        let mut bad = sig;
        bad.0[63] |= 0xf0;
        assert_eq!(
            key.verifying_key().verify(b"msg", &bad).unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn signing_is_deterministic() {
        let key = SigningKey::from_seed([9u8; 32]);
        assert_eq!(key.sign(b"m").0, key.sign(b"m").0);
        assert_ne!(key.sign(b"m").0, key.sign(b"n").0);
    }

    #[test]
    fn signature_from_slice_validates_length() {
        assert_eq!(
            Signature::from_slice(&[0u8; 63]).unwrap_err(),
            CryptoError::InvalidLength
        );
        assert!(Signature::from_slice(&[0u8; 64]).is_ok());
    }

    /// Encodings that do not decode: p + 1 (a non-canonical y), y = 2
    /// (x^2 has no square root) and y = 1 with the sign bit set (x = 0
    /// cannot be negative).
    fn undecodable_points() -> [[u8; 32]; 3] {
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        let mut y2 = [0u8; 32];
        y2[0] = 2;
        let mut negative_zero = [0u8; 32];
        negative_zero[0] = 1;
        negative_zero[31] = 0x80;
        [p_plus_1, y2, negative_zero]
    }

    #[test]
    fn verify_reports_undecodable_key_or_r_as_invalid_point() {
        let key = SigningKey::from_seed([3u8; 32]);
        let sig = key.sign(b"msg");
        for bad in undecodable_points() {
            assert_eq!(
                VerifyingKey(bad).verify(b"msg", &sig).unwrap_err(),
                CryptoError::InvalidPoint,
                "key {}",
                hex_encode(&bad)
            );
            let mut bad_r = sig;
            bad_r.0[..32].copy_from_slice(&bad);
            assert_eq!(
                key.verifying_key().verify(b"msg", &bad_r).unwrap_err(),
                CryptoError::InvalidPoint,
                "R {}",
                hex_encode(&bad)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn sign_matches_double_and_add(seed in any::<[u8; 32]>(),
                                       msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            let key = SigningKey::from_seed(seed);
            prop_assert_eq!(key.sign(&msg), reference::sign(&key, &msg));
        }

        #[test]
        fn verify_matches_double_and_add_on_single_bit_flips(
            seed in any::<[u8; 32]>(),
            msg in proptest::collection::vec(any::<u8>(), 1..64),
            bit in any::<usize>(),
        ) {
            let key = SigningKey::from_seed(seed);
            let vk = key.verifying_key();
            let sig = key.sign(&msg);
            prop_assert_eq!(vk.verify(&msg, &sig), Ok(()));
            prop_assert_eq!(reference::verify(&vk, &msg, &sig), Ok(()));

            // One flipped bit each in the message, R, S and the key.
            let mut bad_msg = msg.clone();
            bad_msg[bit / 8 % msg.len()] ^= 1 << (bit % 8);
            let mut bad_r = sig;
            bad_r.0[bit / 8 % 32] ^= 1 << (bit % 8);
            let mut bad_s = sig;
            bad_s.0[32 + bit / 8 % 32] ^= 1 << (bit % 8);
            let mut bad_key = vk;
            bad_key.0[bit / 8 % 32] ^= 1 << (bit % 8);
            for (k, m, s) in [
                (vk, &bad_msg, sig),
                (vk, &msg, bad_r),
                (vk, &msg, bad_s),
                (bad_key, &msg, sig),
            ] {
                let got = k.verify(m, &s);
                prop_assert!(got.is_err());
                prop_assert_eq!(got, reference::verify(&k, m, &s));
            }
        }
    }
}
