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
use sgx_sim::wire::WireWriter;
use std::sync::Arc;

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

    /// Encrypts and sequences `buf[start..]` in place, appending the
    /// tag — the same bytes and sequence number [`SecureChannel::seal`]
    /// would use, without a second buffer: a sender that writes its
    /// frame header first and the message behind it seals the message
    /// where it lies.
    pub fn seal_in_place(&mut self, buf: &mut Vec<u8>, start: usize) {
        let nonce = Self::nonce(self.role.direction_byte(), self.send_seq);
        self.send_seq += 1;
        self.aead.seal_in_place(&nonce, CHANNEL_AAD, buf, start);
    }

    /// Verifies and decrypts the next in-order message from the peer in
    /// place: on success `buf[start..]` is the plaintext; on failure the
    /// buffer and the receive sequence are unchanged.
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] (MAC mismatch) on tampering, replay, reordering,
    /// or a message sealed under a different session key.
    pub fn open_in_place(&mut self, buf: &mut Vec<u8>, start: usize) -> Result<(), MigError> {
        let nonce = Self::nonce(self.role.peer().direction_byte(), self.recv_seq);
        self.aead
            .open_in_place(&nonce, CHANNEL_AAD, buf, start)
            .map_err(|_| MigError::Sgx(sgx_sim::SgxError::MacMismatch))?;
        self.recv_seq += 1;
        Ok(())
    }

    /// Appends a message sealed as a length-prefixed ciphertext — the
    /// bytes `w.bytes(&self.seal(message))` would append — without a
    /// separate buffer: `encode` writes the `len`-byte message behind the
    /// length prefix and it is sealed where it lies, inside the buffer
    /// that carries it on (an ECALL output, for one).
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] if the ciphertext would not fit its `u32`
    /// length or `encode` did not write exactly `len` bytes.
    pub fn write_sealed(
        &mut self,
        w: &mut WireWriter,
        len: usize,
        encode: impl FnOnce(&mut WireWriter),
    ) -> Result<(), MigError> {
        let sealed_len = u32::try_from(len + TAG_LEN)
            .map_err(|_| MigError::Transfer("message exceeds wire limit"))?;
        w.u32(sealed_len);
        let start = w.len();
        encode(w);
        if w.len() - start != len {
            return Err(MigError::Transfer("message length mismatch"));
        }
        self.seal_in_place(w.as_mut_vec(), start);
        Ok(())
    }

    /// Verifies and decrypts the next in-order message from the peer
    /// into two buffers: its first `head_len` plaintext bytes (all of
    /// them, for a shorter message) and an `Arc` holding the rest. A
    /// receiver that keeps a message's body — the migrating state — opens
    /// it straight into the `Arc` it keeps, with no buffer holding the
    /// whole plaintext. On failure the receive sequence is unchanged.
    ///
    /// # Errors
    ///
    /// As [`SecureChannel::open_in_place`].
    pub fn open_split(
        &mut self,
        ciphertext: &[u8],
        head_len: usize,
    ) -> Result<(Vec<u8>, Arc<[u8]>), MigError> {
        let plain_len = ciphertext
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(MigError::Sgx(sgx_sim::SgxError::MacMismatch))?;
        let mut head = vec![0; head_len.min(plain_len)];
        let mut body = crate::zeroed_arc(plain_len - head.len());
        let body_buf = Arc::get_mut(&mut body)
            .ok_or(MigError::SessionInvariant("fresh state buffer is shared"))?;
        let nonce = Self::nonce(self.role.peer().direction_byte(), self.recv_seq);
        self.aead
            .open_scatter(&nonce, CHANNEL_AAD, ciphertext, &mut [&mut head, body_buf])
            .map_err(|_| MigError::Sgx(sgx_sim::SgxError::MacMismatch))?;
        self.recv_seq += 1;
        Ok((head, body))
    }

    /// Encrypts and sequences a message (a copy of `plaintext` sealed
    /// with [`SecureChannel::seal_in_place`]).
    #[must_use]
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(&mut out, 0);
        out
    }

    /// Decrypts the next in-order message from the peer (a copy of
    /// `ciphertext` opened with [`SecureChannel::open_in_place`]).
    ///
    /// # Errors
    ///
    /// As [`SecureChannel::open_in_place`].
    pub fn open(&mut self, ciphertext: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut out = ciphertext.to_vec();
        self.open_in_place(&mut out, 0)?;
        Ok(out)
    }

    /// Seals a run of messages in place, assigning them consecutive send
    /// sequence numbers in order, with the AEAD work fanned out over
    /// `lanes` worker threads (message `i` on lane `i % lanes`). Each
    /// plaintext buffer becomes its ciphertext, byte-identical to
    /// sequential [`SecureChannel::seal`] calls — the lane split only
    /// overlaps the encryption, it never reorders the sequence space.
    #[must_use]
    pub fn seal_many(&mut self, mut plaintexts: Vec<Vec<u8>>, lanes: u32) -> Vec<Vec<u8>> {
        let direction = self.role.direction_byte();
        let base = self.send_seq;
        self.send_seq += plaintexts.len() as u64;
        let lanes = effective_lanes(lanes, plaintexts.len());
        let aead = &self.aead;
        let seal = move |i: usize, buf: &mut Vec<u8>| {
            aead.seal_in_place(
                &Self::nonce(direction, base + i as u64),
                CHANNEL_AAD,
                buf,
                0,
            );
        };
        if lanes <= 1 {
            for (i, buf) in plaintexts.iter_mut().enumerate() {
                seal(i, buf);
            }
            return plaintexts;
        }
        let mut by_lane: Vec<Vec<(usize, &mut Vec<u8>)>> = (0..lanes).map(|_| Vec::new()).collect();
        for (i, buf) in plaintexts.iter_mut().enumerate() {
            by_lane[i % lanes].push((i, buf));
        }
        // A panicking lane (a caller bug: sealing is infallible) panics
        // the scope, which preserves fail-stop semantics.
        std::thread::scope(|s| {
            for cells in by_lane {
                s.spawn(move || {
                    for (i, buf) in cells {
                        seal(i, buf);
                    }
                });
            }
        });
        plaintexts
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
            for pt in plaintexts {
                let sealed_len = u32::try_from(pt.len() + TAG_LEN).expect("cell < 4 GiB");
                out.extend_from_slice(&sealed_len.to_le_bytes());
                let start = out.len();
                out.extend_from_slice(pt);
                self.seal_in_place(out, start);
            }
        } else {
            for ct in self.seal_many(plaintexts.to_vec(), lanes) {
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
            assert_eq!(c.seal_many(msgs.clone(), lanes), expected, "lanes={lanes}");
        }
        // Follow-on single seals continue the sequence space.
        let mut c = SecureChannel::new([3; 16], ChannelRole::Initiator);
        let _ = c.seal_many(msgs[..3].to_vec(), 4);
        assert_eq!(c.seal(&msgs[3]), expected[3]);
    }

    #[test]
    fn in_place_calls_share_one_sequence_space_with_seal_and_open() {
        let mut reference = SecureChannel::new([4; 16], ChannelRole::Initiator);
        let expected: Vec<Vec<u8>> = (0..4u8).map(|i| reference.seal(&[i; 33])).collect();

        let mut c = SecureChannel::new([4; 16], ChannelRole::Initiator);
        let mut buf = b"hdr".to_vec();
        buf.extend_from_slice(&[0; 33]);
        c.seal_in_place(&mut buf, 3);
        assert_eq!(&buf[..3], b"hdr");
        assert_eq!(buf[3..], expected[0]);
        // Mixing seal_in_place and seal shares one sequence space.
        assert_eq!(c.seal(&[1; 33]), expected[1]);
        let mut buf = vec![2; 33];
        c.seal_in_place(&mut buf, 0);
        assert_eq!(buf, expected[2]);
        assert_eq!(c.seal(&[3; 33]), expected[3]);

        // The receiver mixes open_in_place and open the same way; a
        // failed in-place open keeps the buffer and the sequence.
        let mut r = SecureChannel::new([4; 16], ChannelRole::Responder);
        let mut buf = b"hdr".to_vec();
        buf.extend_from_slice(&expected[0]);
        r.open_in_place(&mut buf, 3).unwrap();
        assert_eq!(buf, [b"hdr".as_slice(), &[0; 33]].concat());
        assert_eq!(r.open(&expected[1]).unwrap(), vec![1; 33]);
        let mut replay = expected[1].clone();
        assert!(r.open_in_place(&mut replay, 0).is_err());
        assert_eq!(replay, expected[1]);
        let mut buf = expected[2].clone();
        r.open_in_place(&mut buf, 0).unwrap();
        assert_eq!(buf, vec![2; 33]);
        let (head, body) = r.open_split(&expected[3], 5).unwrap();
        assert_eq!((head, &*body), (vec![3; 5], &[3; 28][..]));
        // A head longer than the message takes all of it.
        let mut c = SecureChannel::new([4; 16], ChannelRole::Initiator);
        let mut r = SecureChannel::new([4; 16], ChannelRole::Responder);
        let (head, body) = r.open_split(&c.seal(b"short"), 64).unwrap();
        assert_eq!((head, body.len()), (b"short".to_vec(), 0));
        assert!(r.open_split(&c.seal(b"x")[..10], 4).is_err());

        // write_sealed appends what `bytes(seal(..))` would, on the same
        // sequence (seq 2 here: the truncated seal above used seq 1).
        let mut reference = SecureChannel::new([4; 16], ChannelRole::Initiator);
        for _ in 0..2 {
            let _ = reference.seal(b"");
        }
        let mut expected = WireWriter::new();
        expected.u8(7).bytes(&reference.seal(b"message"));
        let mut w = WireWriter::new();
        w.u8(7);
        c.write_sealed(&mut w, 7, |w| {
            w.u8(b'm')
                .u8(b'e')
                .u8(b's')
                .u8(b's')
                .u8(b'a')
                .u8(b'g')
                .u8(b'e');
        })
        .unwrap();
        assert_eq!(w.finish(), expected.finish());
        assert!(c
            .write_sealed(&mut WireWriter::new(), 3, |w| {
                w.u8(0);
            })
            .is_err());
    }

    #[test]
    fn seal_many_framed_matches_length_prefixed_seal_many() {
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 48]).collect();
        for lanes in [1, 2, 4] {
            let mut by_parts = SecureChannel::new([6; 16], ChannelRole::Responder);
            let mut expected = Vec::new();
            for ct in by_parts.seal_many(msgs.clone(), lanes) {
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
        let cts = a.seal_many(msgs.clone(), 3);
        let refs: Vec<&[u8]> = cts.iter().map(Vec::as_slice).collect();
        let (opened, ok) = b.open_many(&refs, 3);
        assert!(ok);
        assert_eq!(opened, msgs);

        // A tampered cell mid-run: the verified prefix is kept, exactly
        // the cells before it consume receive sequence numbers, and the
        // channel continues in-order from there.
        let cts = a.seal_many(msgs.clone(), 2);
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
