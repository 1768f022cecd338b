//! Authenticated-encryption channels over attested session keys.
//!
//! Both attested key exchanges in the protocol — library ↔ ME (local
//! attestation DH, §V-B) and ME ↔ ME (remote attestation, §V-D) — yield a
//! 128-bit session key. A [`SecureChannel`] turns that key into a
//! bidirectional AEAD channel with strictly increasing per-direction
//! sequence numbers, so recorded protocol messages cannot be replayed or
//! reordered within a session.

use crate::error::MigError;
use mig_crypto::gcm::{AesGcm, TAG_LEN};

/// Which end of the channel this instance is (determines nonce spaces).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelRole {
    /// The side that initiated the key exchange.
    Initiator,
    /// The side that responded.
    Responder,
}

impl ChannelRole {
    fn direction_byte(self) -> u8 {
        match self {
            ChannelRole::Initiator => 0x01,
            ChannelRole::Responder => 0x02,
        }
    }

    fn peer(self) -> ChannelRole {
        match self {
            ChannelRole::Initiator => ChannelRole::Responder,
            ChannelRole::Responder => ChannelRole::Initiator,
        }
    }
}

/// A sequenced AEAD channel bound to an attested session key.
///
/// # Example
///
/// ```
/// use mig_core::secure_channel::{ChannelRole, SecureChannel};
///
/// # fn main() -> Result<(), mig_core::MigError> {
/// let key = [7u8; 16];
/// let mut alice = SecureChannel::new(key, ChannelRole::Initiator);
/// let mut bob = SecureChannel::new(key, ChannelRole::Responder);
/// let ct = alice.seal(b"migration data");
/// assert_eq!(bob.open(&ct)?, b"migration data");
/// # Ok(())
/// # }
/// ```
pub struct SecureChannel {
    aead: AesGcm,
    role: ChannelRole,
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("role", &self.role)
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish_non_exhaustive()
    }
}

impl SecureChannel {
    /// Creates a channel endpoint over an attested session key.
    #[must_use]
    pub fn new(session_key: [u8; 16], role: ChannelRole) -> Self {
        SecureChannel {
            aead: AesGcm::new(session_key),
            role,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    fn nonce(direction: u8, seq: u64) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[0] = direction;
        nonce[4..].copy_from_slice(&seq.to_le_bytes());
        nonce
    }

    /// Encrypts and sequences a message.
    #[must_use]
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let nonce = Self::nonce(self.role.direction_byte(), self.send_seq);
        self.send_seq += 1;
        self.aead.seal(&nonce, CHANNEL_AAD, plaintext)
    }

    /// Encrypts and sequences a message, appending `ciphertext || tag`
    /// to `out` — identical bytes to [`SecureChannel::seal`], but into a
    /// caller-provided buffer so frame builders that know their final
    /// length (batch containers) seal with zero
    /// intermediate allocations or copies.
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        let nonce = Self::nonce(self.role.direction_byte(), self.send_seq);
        self.send_seq += 1;
        self.aead.seal_into(&nonce, CHANNEL_AAD, plaintext, out);
    }

    /// Decrypts the next in-order message from the peer.
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] (MAC mismatch) on tampering, replay, reordering,
    /// or a message sealed under a different session key.
    pub fn open(&mut self, ciphertext: &[u8]) -> Result<Vec<u8>, MigError> {
        let nonce = Self::nonce(self.role.peer().direction_byte(), self.recv_seq);
        let plaintext = self
            .aead
            .open(&nonce, CHANNEL_AAD, ciphertext)
            .map_err(|_| MigError::Sgx(sgx_sim::SgxError::MacMismatch))?;
        self.recv_seq += 1;
        Ok(plaintext)
    }

    /// Seals a run of messages, assigning them consecutive send
    /// sequence numbers in slice order, with the AEAD work fanned out
    /// over `lanes` worker threads (message `i` on lane `i % lanes`).
    /// The ciphertexts are byte-identical to `lanes` sequential
    /// [`SecureChannel::seal`] calls — the lane split only overlaps the
    /// encryption, it never reorders the sequence space.
    #[must_use]
    pub fn seal_many(&mut self, plaintexts: &[Vec<u8>], lanes: u32) -> Vec<Vec<u8>> {
        let direction = self.role.direction_byte();
        let base = self.send_seq;
        self.send_seq += plaintexts.len() as u64;
        let lanes = effective_lanes(lanes, plaintexts.len());
        if lanes <= 1 {
            return plaintexts
                .iter()
                .enumerate()
                .map(|(i, pt)| {
                    self.aead
                        .seal(&Self::nonce(direction, base + i as u64), CHANNEL_AAD, pt)
                })
                .collect();
        }
        let aead = &self.aead;
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); plaintexts.len()];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    s.spawn(move || {
                        plaintexts
                            .iter()
                            .enumerate()
                            .skip(lane)
                            .step_by(lanes)
                            .map(|(i, pt)| {
                                (
                                    i,
                                    aead.seal(
                                        &Self::nonce(direction, base + i as u64),
                                        CHANNEL_AAD,
                                        pt,
                                    ),
                                )
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                // mig-lint: allow(enclave-panic, "a panicked seal lane is a caller bug (AesGcm::seal is infallible); propagating the panic preserves fail-stop semantics")
                for (i, ct) in handle.join().expect("seal lane panicked") {
                    out[i] = ct;
                }
            }
        });
        out
    }

    /// Seals a run of messages like [`SecureChannel::seal_many`], but
    /// appends each ciphertext to `out` behind a `u32` length prefix —
    /// the `TRANSFER_BATCH` cell framing — so a batch container is
    /// assembled in place. With one effective lane (the common case on
    /// small hosts) every cell is sealed directly into `out` with no
    /// intermediate per-cell allocation or copy; with more lanes the
    /// AEAD work fans out exactly like `seal_many` and only the final
    /// gather copies. Bytes and sequence numbers are identical either
    /// way.
    pub fn seal_many_framed(&mut self, plaintexts: &[Vec<u8>], lanes: u32, out: &mut Vec<u8>) {
        if effective_lanes(lanes, plaintexts.len()) <= 1 {
            let direction = self.role.direction_byte();
            for pt in plaintexts {
                let sealed_len = u32::try_from(pt.len() + TAG_LEN).expect("cell < 4 GiB");
                out.extend_from_slice(&sealed_len.to_le_bytes());
                let nonce = Self::nonce(direction, self.send_seq);
                self.send_seq += 1;
                self.aead.seal_into(&nonce, CHANNEL_AAD, pt, out);
            }
        } else {
            for ct in self.seal_many(plaintexts, lanes) {
                let sealed_len = u32::try_from(ct.len()).expect("cell < 4 GiB");
                out.extend_from_slice(&sealed_len.to_le_bytes());
                out.extend_from_slice(&ct);
            }
        }
    }

    /// Opens a run of ciphertexts expected at consecutive receive
    /// sequence numbers, fanning the AEAD work over `lanes` worker
    /// threads (cell `i` on lane `i % lanes`).
    ///
    /// Semantics match a loop of sequential [`SecureChannel::open`]
    /// calls exactly: the verified *prefix* before the first failing
    /// cell is returned and only those cells consume receive sequence
    /// numbers; everything at and after the first failure is discarded.
    /// The `bool` is `true` when every cell verified.
    #[must_use]
    pub fn open_many(&mut self, ciphertexts: &[&[u8]], lanes: u32) -> (Vec<Vec<u8>>, bool) {
        let direction = self.role.peer().direction_byte();
        let base = self.recv_seq;
        let lanes = effective_lanes(lanes, ciphertexts.len());
        let mut opened: Vec<Option<Vec<u8>>> = if lanes <= 1 {
            ciphertexts
                .iter()
                .enumerate()
                .map(|(i, ct)| {
                    self.aead
                        .open(&Self::nonce(direction, base + i as u64), CHANNEL_AAD, ct)
                        .ok()
                })
                .collect()
        } else {
            let aead = &self.aead;
            let mut out: Vec<Option<Vec<u8>>> = vec![None; ciphertexts.len()];
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..lanes)
                    .map(|lane| {
                        s.spawn(move || {
                            ciphertexts
                                .iter()
                                .enumerate()
                                .skip(lane)
                                .step_by(lanes)
                                .map(|(i, ct)| {
                                    (
                                        i,
                                        aead.open(
                                            &Self::nonce(direction, base + i as u64),
                                            CHANNEL_AAD,
                                            ct,
                                        )
                                        .ok(),
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    // mig-lint: allow(enclave-panic, "a panicked open lane is a caller bug (AesGcm::open returns Result); propagating the panic preserves fail-stop semantics")
                    for (i, pt) in handle.join().expect("open lane panicked") {
                        out[i] = pt;
                    }
                }
            });
            out
        };
        let verified = opened.iter().take_while(|pt| pt.is_some()).count();
        self.recv_seq += verified as u64;
        let ok = verified == ciphertexts.len();
        opened.truncate(verified);
        let prefix = opened.into_iter().flatten().collect();
        (prefix, ok)
    }
}

/// AAD binding every channel message to this protocol.
const CHANNEL_AAD: &[u8] = b"sgx-migrate.channel";

/// Worker-lane count actually used for a batch of `items` cells: the
/// configured count, clamped to the item count and to the host's
/// available parallelism. Lane assignment is by index modulo lanes, so
/// the clamp only changes scheduling, never bytes — extra lanes on a
/// single-core host are pure thread overhead.
fn effective_lanes(lanes: u32, items: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    (lanes.max(1) as usize).min(items.max(1)).min(cores)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecureChannel, SecureChannel) {
        let key = [0x5A; 16];
        (
            SecureChannel::new(key, ChannelRole::Initiator),
            SecureChannel::new(key, ChannelRole::Responder),
        )
    }

    #[test]
    fn bidirectional_round_trip() {
        let (mut a, mut b) = pair();
        let ct1 = a.seal(b"hello");
        assert_eq!(b.open(&ct1).unwrap(), b"hello");
        let ct2 = b.seal(b"world");
        assert_eq!(a.open(&ct2).unwrap(), b"world");
    }

    #[test]
    fn sequences_are_independent_per_direction() {
        let (mut a, mut b) = pair();
        // Three messages one way, none the other.
        for i in 0..3u8 {
            let ct = a.seal(&[i]);
            assert_eq!(b.open(&ct).unwrap(), vec![i]);
        }
        let ct = b.seal(b"back");
        assert_eq!(a.open(&ct).unwrap(), b"back");
    }

    #[test]
    fn replay_is_rejected() {
        let (mut a, mut b) = pair();
        let ct = a.seal(b"once");
        assert_eq!(b.open(&ct).unwrap(), b"once");
        assert!(b.open(&ct).is_err(), "replay of the same ciphertext");
    }

    #[test]
    fn reordering_is_rejected() {
        let (mut a, mut b) = pair();
        let ct1 = a.seal(b"first");
        let ct2 = a.seal(b"second");
        assert!(b.open(&ct2).is_err(), "out-of-order delivery");
        // A failed open does not consume the receive sequence: in-order
        // delivery still succeeds afterwards.
        assert_eq!(b.open(&ct1).unwrap(), b"first");
        assert_eq!(b.open(&ct2).unwrap(), b"second");
    }

    #[test]
    fn tampering_is_rejected() {
        let (mut a, mut b) = pair();
        let mut ct = a.seal(b"payload");
        ct[0] ^= 1;
        assert!(b.open(&ct).is_err());
    }

    #[test]
    fn direction_confusion_rejected() {
        // A message sealed by the initiator cannot be opened by another
        // initiator-side endpoint (reflection attack).
        let key = [1u8; 16];
        let mut a = SecureChannel::new(key, ChannelRole::Initiator);
        let mut a2 = SecureChannel::new(key, ChannelRole::Initiator);
        let ct = a.seal(b"reflect");
        assert!(a2.open(&ct).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let mut a = SecureChannel::new([1; 16], ChannelRole::Initiator);
        let mut b = SecureChannel::new([2; 16], ChannelRole::Responder);
        let ct = a.seal(b"x");
        assert!(b.open(&ct).is_err());
    }

    #[test]
    fn seal_many_matches_sequential_seals_for_every_lane_count() {
        let msgs: Vec<Vec<u8>> = (0..7u8).map(|i| vec![i; 40 + i as usize]).collect();
        let mut reference = SecureChannel::new([3; 16], ChannelRole::Initiator);
        let expected: Vec<Vec<u8>> = msgs.iter().map(|m| reference.seal(m)).collect();
        for lanes in [1, 2, 3, 8] {
            let mut c = SecureChannel::new([3; 16], ChannelRole::Initiator);
            assert_eq!(c.seal_many(&msgs, lanes), expected, "lanes={lanes}");
        }
        // Follow-on single seals continue the sequence space.
        let mut c = SecureChannel::new([3; 16], ChannelRole::Initiator);
        let _ = c.seal_many(&msgs[..3], 4);
        assert_eq!(c.seal(&msgs[3]), expected[3]);
    }

    #[test]
    fn seal_into_matches_seal_and_continues_sequence() {
        let mut reference = SecureChannel::new([4; 16], ChannelRole::Initiator);
        let expected: Vec<Vec<u8>> = (0..3u8).map(|i| reference.seal(&[i; 33])).collect();

        let mut c = SecureChannel::new([4; 16], ChannelRole::Initiator);
        let mut buf = b"hdr".to_vec();
        c.seal_into(&[0; 33], &mut buf);
        assert_eq!(&buf[..3], b"hdr");
        assert_eq!(buf[3..], expected[0]);
        // Mixing seal_into and seal shares one sequence space.
        assert_eq!(c.seal(&[1; 33]), expected[1]);
        let mut buf = Vec::new();
        c.seal_into(&[2; 33], &mut buf);
        assert_eq!(buf, expected[2]);
    }

    #[test]
    fn seal_many_framed_matches_length_prefixed_seal_many() {
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 48]).collect();
        for lanes in [1, 2, 4] {
            let mut by_parts = SecureChannel::new([6; 16], ChannelRole::Responder);
            let mut expected = Vec::new();
            for ct in by_parts.seal_many(&msgs, lanes) {
                expected.extend_from_slice(&(ct.len() as u32).to_le_bytes());
                expected.extend_from_slice(&ct);
            }
            let mut framed = SecureChannel::new([6; 16], ChannelRole::Responder);
            let mut out = Vec::new();
            framed.seal_many_framed(&msgs, lanes, &mut out);
            assert_eq!(out, expected, "lanes={lanes}");
            // Both channels end at the same sequence number.
            assert_eq!(framed.seal(b"next"), by_parts.seal(b"next"));
        }
    }

    #[test]
    fn open_many_round_trips_and_keeps_prefix_on_failure() {
        let (mut a, mut b) = pair();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 64]).collect();
        let cts = a.seal_many(&msgs, 3);
        let refs: Vec<&[u8]> = cts.iter().map(Vec::as_slice).collect();
        let (opened, ok) = b.open_many(&refs, 3);
        assert!(ok);
        assert_eq!(opened, msgs);

        // A tampered cell mid-run: the verified prefix is kept, exactly
        // the cells before it consume receive sequence numbers, and the
        // channel continues in-order from there.
        let cts = a.seal_many(&msgs, 2);
        let mut tampered: Vec<Vec<u8>> = cts.clone();
        tampered[3][0] ^= 1;
        let refs: Vec<&[u8]> = tampered.iter().map(Vec::as_slice).collect();
        let (opened, ok) = b.open_many(&refs, 4);
        assert!(!ok);
        assert_eq!(opened, &msgs[..3]);
        // The untampered original of cell 3 still opens next in order.
        assert_eq!(b.open(&cts[3]).unwrap(), msgs[3]);
    }
}
