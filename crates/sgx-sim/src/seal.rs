//! Native SGX sealing (`sgx_seal_data` / `sgx_unseal_data`).
//!
//! Sealing encrypts enclave data under a key derived from the CPU secret
//! and the enclave identity (per the chosen [`KeyPolicy`]), using
//! AES-128-GCM exactly like the SDK. The sealed blob is *machine-bound*:
//! it cannot be unsealed on any other machine, which is the limitation
//! the paper's Migration Sealing Key works around.
//!
//! This module defines the blob format and the pure sealing/unsealing
//! logic; enclaves reach it through [`crate::enclave::EnclaveEnv::seal_data`]
//! and [`crate::enclave::EnclaveEnv::unseal_data`].

use crate::cpu::{egetkey, CpuSecret, KeyName, KeyPolicy, KeyRequest};
use crate::error::SgxError;
use crate::measurement::EnclaveIdentity;
use crate::wire::{WireReader, WireWriter};
use mig_crypto::gcm::AesGcm;

const FORMAT_VERSION: u8 = 1;

/// Parsed header of a sealed blob (everything except the ciphertext).
///
/// Exposed so tests and tools can inspect how a blob was sealed without
/// being able to decrypt it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SealedHeader {
    /// Identity-binding policy the sealing key was derived under.
    pub policy: KeyPolicy,
    /// Per-blob key diversifier.
    pub key_id: [u8; 16],
    /// AES-GCM nonce.
    pub nonce: [u8; 12],
    /// The authenticated-but-not-encrypted additional data.
    pub aad: Vec<u8>,
}

/// Inspects a sealed blob's header without decrypting.
///
/// # Errors
///
/// Returns [`SgxError::Decode`] on malformed input.
pub fn parse_sealed_header(blob: &[u8]) -> Result<SealedHeader, SgxError> {
    let mut r = WireReader::new(blob);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(SgxError::Decode);
    }
    let policy = KeyPolicy::from_u8(r.u8()?)?;
    let key_id: [u8; 16] = r.array()?;
    let nonce: [u8; 12] = r.array()?;
    let aad = r.bytes_vec()?;
    let _ct = r.bytes()?;
    r.finish()?;
    Ok(SealedHeader {
        policy,
        key_id,
        nonce,
        aad,
    })
}

/// Computes the sealed size for a given plaintext/AAD size (format
/// overhead is constant).
#[must_use]
pub fn sealed_size(aad_len: usize, plaintext_len: usize) -> usize {
    sealed_header_len(aad_len) + plaintext_len + 16
}

/// Bytes a sealed blob carries before its ciphertext: version, policy,
/// key id, nonce, the length-prefixed AAD and the ciphertext length.
/// [`crate::enclave::EnclaveEnv::seal_data_in_place`] expects this many
/// bytes reserved in front of the plaintext.
#[must_use]
pub fn sealed_header_len(aad_len: usize) -> usize {
    // version + policy + key_id + nonce + (len+aad) + ct len
    1 + 1 + 16 + 12 + 4 + aad_len + 4
}

/// Seals `buf[at + sealed_header_len(aad.len())..]` in place: the
/// reserved bytes at `at` are overwritten with the blob header, the
/// plaintext behind them is encrypted where it lies and the tag
/// appended, so `buf[at..]` becomes the blob without a second buffer.
///
/// # Panics
///
/// Panics if `buf` is shorter than `at` plus the reserved header (caller
/// bug).
#[allow(clippy::too_many_arguments)]
pub(crate) fn seal_in_place(
    cpu: &CpuSecret,
    identity: &EnclaveIdentity,
    policy: KeyPolicy,
    key_id: [u8; 16],
    nonce: [u8; 12],
    aad: &[u8],
    buf: &mut Vec<u8>,
    at: usize,
) {
    let key = egetkey(
        cpu,
        identity,
        &KeyRequest {
            name: KeyName::Seal,
            policy,
            key_id,
        },
    );
    let header_len = sealed_header_len(aad.len());
    let start = at + header_len;
    let mut header = WireWriter::with_capacity(header_len - 4);
    header
        .u8(FORMAT_VERSION)
        .u8(policy.as_u8())
        .array(&key_id)
        .array(&nonce)
        .bytes(aad);
    let header_bytes = header.finish();
    // mig-lint: allow(enclave-panic, "sealed plaintexts stay far below 4 GiB (streams cap at 1 GiB), the bound of every length-prefixed wire string")
    let ct_len = u32::try_from(buf.len() - start + 16).expect("sealed blobs are < 4 GiB");
    let mut front = Vec::with_capacity(header_len);
    front.extend_from_slice(&header_bytes);
    front.extend_from_slice(&ct_len.to_le_bytes());
    // mig-lint: allow(enclave-panic, "a buffer shorter than its reserved header is a caller bug, documented under Panics")
    buf[at..start].copy_from_slice(&front);

    // The whole header (including user AAD) is authenticated.
    AesGcm::new(key).seal_in_place(&nonce, &header_bytes, buf, start);
}

pub(crate) fn unseal(
    cpu: &CpuSecret,
    identity: &EnclaveIdentity,
    blob: &[u8],
) -> Result<(Vec<u8>, Vec<u8>), SgxError> {
    let mut r = WireReader::new(blob);
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(SgxError::Decode);
    }
    let policy = KeyPolicy::from_u8(r.u8()?)?;
    let key_id: [u8; 16] = r.array()?;
    let nonce: [u8; 12] = r.array()?;
    let aad = r.bytes()?;
    // The authenticated header is exactly the bytes just parsed.
    let header_bytes = blob
        .get(..sealed_header_len(aad.len()) - 4)
        .ok_or(SgxError::Decode)?;
    let ct = r.bytes()?;
    r.finish()?;

    let key = egetkey(
        cpu,
        identity,
        &KeyRequest {
            name: KeyName::Seal,
            policy,
            key_id,
        },
    );
    let aead = AesGcm::new(key);
    let plaintext = aead
        .open(&nonce, header_bytes, ct)
        .map_err(|_| SgxError::MacMismatch)?;
    Ok((plaintext, aad.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{MrEnclave, MrSigner};

    fn identity(tag: u8) -> EnclaveIdentity {
        EnclaveIdentity {
            mr_enclave: MrEnclave([tag; 32]),
            mr_signer: MrSigner([0xEE; 32]),
        }
    }

    /// The one-allocation seal `EnclaveEnv::seal_data` performs: the
    /// plaintext copied behind a reserved header, sealed in place.
    fn seal(
        cpu: &CpuSecret,
        id: &EnclaveIdentity,
        policy: KeyPolicy,
        key_id: [u8; 16],
        nonce: [u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(sealed_size(aad.len(), plaintext.len()));
        buf.resize(sealed_header_len(aad.len()), 0);
        buf.extend_from_slice(plaintext);
        seal_in_place(cpu, id, policy, key_id, nonce, aad, &mut buf, 0);
        buf
    }

    fn seal_simple(cpu: &CpuSecret, id: &EnclaveIdentity, policy: KeyPolicy) -> Vec<u8> {
        seal(cpu, id, policy, [1; 16], [2; 12], b"aad", b"secret data")
    }

    #[test]
    fn seal_unseal_round_trip() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal_simple(&cpu, &identity(1), KeyPolicy::MrEnclave);
        let (pt, aad) = unseal(&cpu, &identity(1), &blob).unwrap();
        assert_eq!(pt, b"secret data");
        assert_eq!(aad, b"aad");
    }

    #[test]
    fn sealed_blob_is_machine_bound() {
        let cpu1 = CpuSecret::from_seed([5; 32]);
        let cpu2 = CpuSecret::from_seed([6; 32]);
        let blob = seal_simple(&cpu1, &identity(1), KeyPolicy::MrEnclave);
        assert_eq!(
            unseal(&cpu2, &identity(1), &blob).unwrap_err(),
            SgxError::MacMismatch
        );
    }

    #[test]
    fn mrenclave_policy_binds_to_exact_enclave() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal_simple(&cpu, &identity(1), KeyPolicy::MrEnclave);
        assert_eq!(
            unseal(&cpu, &identity(2), &blob).unwrap_err(),
            SgxError::MacMismatch
        );
    }

    #[test]
    fn mrsigner_policy_shared_across_versions() {
        let cpu = CpuSecret::from_seed([5; 32]);
        // Same signer, different measurement (e.g. an upgraded enclave).
        let v1 = identity(1);
        let mut v2 = identity(2);
        v2.mr_signer = v1.mr_signer;
        let blob = seal_simple(&cpu, &v1, KeyPolicy::MrSigner);
        let (pt, _) = unseal(&cpu, &v2, &blob).unwrap();
        assert_eq!(pt, b"secret data");
    }

    #[test]
    fn tampering_any_byte_is_detected() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal_simple(&cpu, &identity(1), KeyPolicy::MrEnclave);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 1;
            assert!(unseal(&cpu, &identity(1), &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn header_parses_without_key() {
        let cpu = CpuSecret::from_seed([5; 32]);
        let blob = seal(
            &cpu,
            &identity(1),
            KeyPolicy::MrSigner,
            [9; 16],
            [8; 12],
            b"public metadata",
            b"secret",
        );
        let header = parse_sealed_header(&blob).unwrap();
        assert_eq!(header.policy, KeyPolicy::MrSigner);
        assert_eq!(header.key_id, [9; 16]);
        assert_eq!(header.nonce, [8; 12]);
        assert_eq!(header.aad, b"public metadata");
    }

    #[test]
    fn sealed_size_matches_actual() {
        let cpu = CpuSecret::from_seed([5; 32]);
        for (aad_len, pt_len) in [(0usize, 0usize), (3, 10), (100, 1000)] {
            let blob = seal(
                &cpu,
                &identity(1),
                KeyPolicy::MrEnclave,
                [0; 16],
                [0; 12],
                &vec![1; aad_len],
                &vec![2; pt_len],
            );
            assert_eq!(blob.len(), sealed_size(aad_len, pt_len));
        }
    }

    #[test]
    fn in_place_blob_is_header_then_length_prefixed_ciphertext() {
        // The blob format, built from the copying AES-GCM seal: the
        // header, then the length-prefixed `ciphertext || tag`, with the
        // header as the AEAD's associated data.
        let cpu = CpuSecret::from_seed([5; 32]);
        let id = identity(1);
        let blob = seal(
            &cpu,
            &id,
            KeyPolicy::MrSigner,
            [9; 16],
            [8; 12],
            b"md",
            b"text",
        );
        let mut header = WireWriter::new();
        header
            .u8(FORMAT_VERSION)
            .u8(KeyPolicy::MrSigner.as_u8())
            .array(&[9; 16])
            .array(&[8; 12])
            .bytes(b"md");
        let header = header.finish();
        let key = egetkey(
            &cpu,
            &id,
            &KeyRequest {
                name: KeyName::Seal,
                policy: KeyPolicy::MrSigner,
                key_id: [9; 16],
            },
        );
        let mut expected = header.clone();
        let mut tail = WireWriter::new();
        tail.bytes(&AesGcm::new(key).seal(&[8; 12], &header, b"text"));
        expected.extend_from_slice(&tail.finish());
        assert_eq!(blob, expected);
    }
}
