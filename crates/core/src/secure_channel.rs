//! Authenticated-encryption channels over attested session keys.
//!
//! Both attested key exchanges in the protocol — library ↔ ME (local
//! attestation DH, §V-B) and ME ↔ ME (remote attestation, §V-D) — yield a
//! 128-bit session key. A [`SecureChannel`] turns that key into a
//! bidirectional AEAD channel with strictly increasing per-direction
//! sequence numbers, so recorded protocol messages cannot be replayed or
//! reordered within a session. Messages are sealed and opened one at a
//! time, in place where they lie ([`SecureChannel::seal_in_place`],
//! [`SecureChannel::write_sealed`]): each `TRANSFER` frame carries one
//! such message, and a burst of frames takes consecutive sequence
//! numbers.

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
}

/// AAD binding every channel message to this protocol.
const CHANNEL_AAD: &[u8] = b"sgx-migrate.channel";

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
}
