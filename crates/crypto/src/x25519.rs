//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! Every secure channel in the migration protocol — Migration Library ↔
//! Migration Enclave (local attestation) and Migration Enclave ↔ Migration
//! Enclave (remote attestation) — starts with an X25519 exchange whose
//! public keys are bound into the attestation evidence, mirroring the
//! SGX SDK's `sgx_dh` and remote-attestation key-exchange libraries.
//! Validated against the RFC 7748 §5.2 and §6.1 test vectors.

use crate::curve25519::{EdwardsPoint, Fe};

/// Length of X25519 public keys, secret keys, and shared secrets.
pub const KEY_LEN: usize = 32;

/// An X25519 secret key (a clamped scalar).
///
/// # Example
///
/// ```
/// use mig_crypto::x25519::StaticSecret;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = StaticSecret::random(&mut rng);
/// let b = StaticSecret::random(&mut rng);
/// assert_eq!(
///     a.diffie_hellman(&b.public_key()),
///     b.diffie_hellman(&a.public_key()),
/// );
/// ```
#[derive(Clone)]
pub struct StaticSecret {
    scalar: [u8; KEY_LEN],
}

impl std::fmt::Debug for StaticSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticSecret").finish_non_exhaustive()
    }
}

impl StaticSecret {
    /// Creates a secret key from 32 uniformly random bytes (clamped per
    /// RFC 7748).
    #[must_use]
    pub fn from_bytes(mut bytes: [u8; KEY_LEN]) -> Self {
        bytes[0] &= 248;
        bytes[31] &= 127;
        bytes[31] |= 64;
        StaticSecret { scalar: bytes }
    }

    /// Samples a fresh secret key from `rng`.
    #[must_use]
    pub fn random(rng: &mut impl rand::RngCore) -> Self {
        let mut bytes = [0u8; KEY_LEN];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Returns the corresponding public key, `x25519(k, 9)`, computed as
    /// `[k]B` on edwards25519 by the constant-time comb and mapped to its
    /// u-coordinate (B maps to u = 9).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        PublicKey(EdwardsPoint::mul_base(&self.scalar).to_montgomery_u())
    }

    /// Computes the shared secret with `peer`.
    ///
    /// The result is raw ladder output; callers must run it through a KDF
    /// (see [`crate::hkdf`]) before using it as key material.
    #[must_use]
    pub fn diffie_hellman(&self, peer: &PublicKey) -> [u8; KEY_LEN] {
        x25519(&self.scalar, &peer.0)
    }
}

/// An X25519 public key (a u-coordinate).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; KEY_LEN]);

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({})", crate::hex_encode(&self.0))
    }
}

impl AsRef<[u8]> for PublicKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; KEY_LEN]> for PublicKey {
    fn from(bytes: [u8; KEY_LEN]) -> Self {
        PublicKey(bytes)
    }
}

/// The base point u = 9.
#[cfg(any(test, feature = "reference"))]
const BASE_POINT_U: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// The raw X25519 function: scalar multiplication on the Montgomery curve.
///
/// `scalar` is clamped as RFC 7748 requires, so passing unclamped bytes is
/// safe.
#[must_use]
pub fn x25519(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let (x, z) = ladder(scalar, u);
    x.mul(z.invert()).to_bytes()
}

/// The Montgomery ladder: `[k]u` in projective (X : Z) form, one `cswap`
/// per scalar bit and no branch on the scalar.
fn ladder(scalar: &[u8; KEY_LEN], u: &[u8; KEY_LEN]) -> (Fe, Fe) {
    let mut k = *scalar;
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;

    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    (x2, z2)
}

/// The paths the comb and the addition-chain inversion replaced, for tests
/// and the `crypto_kernels` microbench (`reference` feature).
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::{ladder, x25519, PublicKey, StaticSecret, BASE_POINT_U, KEY_LEN};

    /// [`StaticSecret::public_key`] by the ladder: `x25519(k, 9)`.
    #[must_use]
    pub fn public_key(secret: &StaticSecret) -> PublicKey {
        PublicKey(x25519(&secret.scalar, &BASE_POINT_U))
    }

    /// [`StaticSecret::diffie_hellman`] with the ladder's `Z` inverted by
    /// the generic square-and-multiply `Z^(p-2)` instead of the addition
    /// chain: about 505 field operations for the inversion instead of
    /// 265. Its branches follow the public exponent only.
    #[must_use]
    pub fn diffie_hellman(secret: &StaticSecret, peer: &PublicKey) -> [u8; KEY_LEN] {
        let (x, z) = ladder(&secret.scalar, &peer.0);
        x.mul(z.invert_fermat()).to_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_decode, hex_encode};
    use rand::SeedableRng;

    #[test]
    fn rfc7748_vector_1() {
        let scalar: [u8; 32] =
            hex_decode("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            hex_decode("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
                .try_into()
                .unwrap();
        assert_eq!(
            hex_encode(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar: [u8; 32] =
            hex_decode("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            hex_decode("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
                .try_into()
                .unwrap();
        assert_eq!(
            hex_encode(&x25519(&scalar, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_iterated_once() {
        // One iteration of the §5.2 iteration test.
        let mut k: [u8; 32] = BASE_POINT_U;
        k[0] = 9;
        let mut u = BASE_POINT_U;
        let k1 = x25519(&k, &u);
        u = k;
        let _ = u;
        assert_eq!(
            hex_encode(&k1),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    #[test]
    fn rfc7748_iterated_thousand() {
        let mut k = BASE_POINT_U;
        let mut u = BASE_POINT_U;
        for _ in 0..1000 {
            let new_k = x25519(&k, &u);
            u = k;
            k = new_k;
        }
        assert_eq!(
            hex_encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn rfc7748_alice_bob_shared_secret() {
        let alice_sk: [u8; 32] =
            hex_decode("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
                .try_into()
                .unwrap();
        let bob_sk: [u8; 32] =
            hex_decode("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
                .try_into()
                .unwrap();
        let alice = StaticSecret::from_bytes(alice_sk);
        let bob = StaticSecret::from_bytes(bob_sk);

        assert_eq!(
            hex_encode(&alice.public_key().0),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex_encode(&bob.public_key().0),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );

        let shared_a = alice.diffie_hellman(&bob.public_key());
        let shared_b = bob.diffie_hellman(&alice.public_key());
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex_encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn random_keypairs_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let a = StaticSecret::random(&mut rng);
            let b = StaticSecret::random(&mut rng);
            assert_eq!(
                a.diffie_hellman(&b.public_key()),
                b.diffie_hellman(&a.public_key())
            );
        }
    }

    #[test]
    fn distinct_secrets_distinct_publics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = StaticSecret::random(&mut rng);
        let b = StaticSecret::random(&mut rng);
        assert_ne!(a.public_key().0, b.public_key().0);
    }
}
