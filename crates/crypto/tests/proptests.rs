//! Property-based tests for the crypto substrate.

use mig_crypto::ed25519::SigningKey;
use mig_crypto::gcm::{AesGcm, TAG_LEN};
use mig_crypto::hkdf::{hkdf_expand, hkdf_extract};
use mig_crypto::hmac::{HmacSha256, HmacSha512};
use mig_crypto::sha256::{sha256, Sha256};
use mig_crypto::sha512::{sha512, Sha512};
use mig_crypto::x25519::{x25519, StaticSecret};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                          split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha512_incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                          split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha512::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha512(&data));
    }

    #[test]
    fn hmac_verify_accepts_own_tags(key in proptest::collection::vec(any::<u8>(), 0..200),
                                    data in proptest::collection::vec(any::<u8>(), 0..500)) {
        let t256 = HmacSha256::mac(&key, &data);
        prop_assert!(HmacSha256::verify(&key, &data, &t256));
        let t512 = HmacSha512::mac(&key, &data);
        prop_assert!(HmacSha512::verify(&key, &data, &t512));
    }

    #[test]
    fn hmac_tag_depends_on_every_input(key in proptest::collection::vec(any::<u8>(), 1..64),
                                       data in proptest::collection::vec(any::<u8>(), 1..128),
                                       idx in 0usize..128) {
        let tag = HmacSha256::mac(&key, &data);
        let mut tampered = data.clone();
        let i = idx % tampered.len();
        tampered[i] ^= 0x01;
        prop_assert_ne!(HmacSha256::mac(&key, &tampered), tag);
    }

    #[test]
    fn hkdf_output_prefix_stability(ikm in proptest::collection::vec(any::<u8>(), 1..64),
                                    salt in proptest::collection::vec(any::<u8>(), 0..64),
                                    info in proptest::collection::vec(any::<u8>(), 0..64),
                                    len in 1usize..96) {
        let prk = hkdf_extract(&salt, &ikm);
        let mut long = [0u8; 96];
        hkdf_expand(&prk, &info, &mut long);
        let mut short = vec![0u8; len];
        hkdf_expand(&prk, &info, &mut short);
        prop_assert_eq!(&long[..len], &short[..]);
    }

    #[test]
    fn gcm_round_trip(key in any::<[u8; 16]>(),
                      nonce in any::<[u8; 12]>(),
                      aad in proptest::collection::vec(any::<u8>(), 0..128),
                      pt in proptest::collection::vec(any::<u8>(), 0..512)) {
        let aead = AesGcm::new(key);
        let sealed = aead.seal(&nonce, &aad, &pt);
        prop_assert_eq!(sealed.len(), pt.len() + TAG_LEN);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn gcm_tamper_always_detected(key in any::<[u8; 16]>(),
                                  nonce in any::<[u8; 12]>(),
                                  pt in proptest::collection::vec(any::<u8>(), 0..128),
                                  idx in any::<usize>(),
                                  bit in 0u8..8) {
        let aead = AesGcm::new(key);
        let mut sealed = aead.seal(&nonce, b"aad", &pt);
        let i = idx % sealed.len();
        sealed[i] ^= 1 << bit;
        prop_assert!(aead.open(&nonce, b"aad", &sealed).is_err());
    }

    #[test]
    fn gcm_wrong_nonce_rejected(key in any::<[u8; 16]>(),
                                n1 in any::<[u8; 12]>(),
                                n2 in any::<[u8; 12]>(),
                                pt in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(n1 != n2);
        let aead = AesGcm::new(key);
        let sealed = aead.seal(&n1, b"", &pt);
        prop_assert!(aead.open(&n2, b"", &sealed).is_err());
    }

    #[test]
    fn x25519_agreement_is_symmetric(sa in any::<[u8; 32]>(), sb in any::<[u8; 32]>()) {
        let a = StaticSecret::from_bytes(sa);
        let b = StaticSecret::from_bytes(sb);
        prop_assert_eq!(
            a.diffie_hellman(&b.public_key()),
            b.diffie_hellman(&a.public_key())
        );
    }

    #[test]
    fn x25519_public_key_matches_the_ladder_from_nine(sk in any::<[u8; 32]>()) {
        let mut nine = [0u8; 32];
        nine[0] = 9;
        prop_assert_eq!(StaticSecret::from_bytes(sk).public_key().0, x25519(&sk, &nine));
    }

    #[test]
    fn ed25519_sign_verify_round_trip(seed in any::<[u8; 32]>(),
                                      msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = SigningKey::from_seed(seed);
        let sig = key.sign(&msg);
        prop_assert!(key.verifying_key().verify(&msg, &sig).is_ok());
    }

    #[test]
    fn ed25519_signature_binds_message(seed in any::<[u8; 32]>(),
                                       msg in proptest::collection::vec(any::<u8>(), 1..128),
                                       idx in any::<usize>()) {
        let key = SigningKey::from_seed(seed);
        let sig = key.sign(&msg);
        let mut tampered = msg.clone();
        let i = idx % tampered.len();
        tampered[i] ^= 0x80;
        prop_assert!(key.verifying_key().verify(&tampered, &sig).is_err());
    }
}
