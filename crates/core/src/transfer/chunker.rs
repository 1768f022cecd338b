//! The chunking/streaming engine: split a state payload into fixed-size
//! chunks bound by an HMAC chain, reassemble and verify them in order,
//! and resume from an arbitrary chunk boundary after a crash.
//!
//! Every chunk `i` carries `mac_i = HMAC(K, mac_{i-1} || i || d_i)` with
//! `mac_{-1} = HMAC(K, "seed")` and `K` derived from a secret
//! per-transfer nonce that travels only inside the attested ME↔ME
//! channel. The chain means a chunk is only accepted in its unique
//! position within its own transfer: a replayed, reordered, or
//! cross-transfer-spliced chunk fails verification even when it is
//! re-injected across a *resumed* session (where the secure channel's
//! per-session sequence numbers restart). The stream digest announced in
//! `ChunkStart` — `SHA-256(d_0 || … || d_{n-1})` over the chunk digests
//! — is checked once more on completion.
//!
//! A chunk digest `d_i` is a node of the page-digest tree
//! ([`super::delta`]): SHA-256 over the leaves of the chunk's
//! [`PAGE_SIZE`] pages, counted from the chunk's start, the last leaf
//! possibly short. Hashing a chunk therefore yields its pages' leaves,
//! and both ends keep them: when the chunk size is a whole number of
//! pages (the Migration Enclave accepts no other) the leaves of a full
//! stream are the state's page leaves, and those of a delta stream are
//! its dirty pages' leaves, so neither end hashes the state again to
//! cache it. The engine itself accepts any chunk size.
//!
//! Chaining over the 32-byte chunk *digests* (rather than the raw
//! payloads) keeps the chain itself O(n) in the chunk count, and each
//! page is hashed with one [`sha256`] call over its slice. The
//! destination folds each verified chunk's digest into a running stream
//! digest as it arrives, so completion only finalizes the hash.

use crate::error::MigError;
use crate::transfer::delta::{page_leaves, Leaf, PAGE_SIZE};
use mig_crypto::ct::ct_eq;
use mig_crypto::hmac::HmacSha256;
use mig_crypto::sha256::{sha256, Sha256};
use sgx_sim::wire::{WireReader, WireWriter};
use std::sync::Arc;

/// A per-transfer nonce (secret inside the attested channel).
pub type TransferNonce = [u8; 16];
/// A chunk-chain MAC.
pub type ChunkMac = [u8; 32];

/// Upper bound on a streamed payload (adversarial-allocation guard).
pub const MAX_STREAM_LEN: u64 = 1 << 30;

/// Domain-separation label for the chain key derivation.
const CHAIN_KEY_LABEL: &[u8] = b"sgx-migrate.transfer.chain-key.v1";
/// Label for the chain seed MAC.
const CHAIN_SEED_LABEL: &[u8] = b"sgx-migrate.transfer.chain-seed.v1";
/// Label for the public trace-id derivation.
const TRACE_ID_LABEL: &[u8] = b"sgx-migrate.trace-id.v1";

/// Derives the public trace id for a transfer nonce.
///
/// The nonce itself keys the chunk HMAC chain and must never leave the
/// attested channel; telemetry instead identifies a migration by this
/// one-way hash, which both endpoints derive independently.
#[must_use]
pub fn trace_id(nonce: &TransferNonce) -> [u8; 8] {
    let mut h = Sha256::new();
    h.update(TRACE_ID_LABEL);
    h.update(nonce);
    let digest = h.finalize();
    let mut id = [0u8; 8];
    id.copy_from_slice(&digest[..8]);
    id
}

/// Number of chunks a payload of `total_len` splits into.
#[must_use]
pub fn chunk_count(total_len: u64, chunk_size: u32) -> u32 {
    debug_assert!(chunk_size > 0);
    u32::try_from(total_len.div_ceil(u64::from(chunk_size))).expect("bounded by MAX_STREAM_LEN")
}

fn chain_key(nonce: &TransferNonce) -> [u8; 32] {
    HmacSha256::mac(CHAIN_KEY_LABEL, nonce)
}

fn chain_seed(key: &[u8; 32]) -> ChunkMac {
    HmacSha256::mac(key, CHAIN_SEED_LABEL)
}

fn chunk_mac(key: &[u8; 32], prev: &ChunkMac, idx: u32, chunk_digest: &[u8; 32]) -> ChunkMac {
    let mut mac = HmacSha256::new(key);
    mac.update(prev);
    mac.update(&idx.to_le_bytes());
    mac.update(chunk_digest);
    mac.finalize()
}

fn slice_chunk(payload: &[u8], chunk_size: u32, idx: u32) -> &[u8] {
    let start = idx as usize * chunk_size as usize;
    let end = (start + chunk_size as usize).min(payload.len());
    &payload[start..end]
}

/// A chunk's digest: SHA-256 over the leaves of its pages.
fn chunk_digest(leaves: &[Leaf]) -> [u8; 32] {
    sha256(leaves.as_flattened())
}

/// Source side: a payload split into chunks with precomputed chain MACs.
///
/// The payload is held behind an `Arc<[u8]>` so callers (the Migration
/// Enclave's retained state, delta payloads) share one allocation with
/// the stream instead of cloning megabytes; [`ChunkStream::chunk`] hands
/// out borrowed slices.
pub struct ChunkStream {
    nonce: TransferNonce,
    chunk_size: u32,
    payload: Arc<[u8]>,
    macs: Vec<ChunkMac>,
    leaves: Vec<Leaf>,
    digest: [u8; 32],
}

impl std::fmt::Debug for ChunkStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkStream")
            .field("total_len", &self.payload.len())
            .field("chunk_size", &self.chunk_size)
            .field("n_chunks", &self.n_chunks())
            .finish_non_exhaustive()
    }
}

impl ChunkStream {
    /// Prepares `payload` for streaming under `nonce` with the given
    /// chunk size: one pass hashes each page, then each chunk's digest
    /// and chain MAC come from its pages' leaves. Accepts any
    /// `Arc<[u8]>`-convertible payload; passing an existing `Arc` is
    /// zero-copy.
    ///
    /// # Panics
    ///
    /// Panics on a zero chunk size or a payload over [`MAX_STREAM_LEN`]
    /// — caller invariants, enforced by [`super::TransferConfig`]
    /// validation and the Migration Library.
    #[must_use]
    pub fn new(nonce: TransferNonce, chunk_size: u32, payload: impl Into<Arc<[u8]>>) -> Self {
        let payload: Arc<[u8]> = payload.into();
        assert!(chunk_size > 0, "zero chunk size");
        assert!(
            payload.len() as u64 <= MAX_STREAM_LEN,
            "payload exceeds MAX_STREAM_LEN"
        );
        let key = chain_key(&nonce);
        let n = chunk_count(payload.len() as u64, chunk_size);
        let mut leaves = Vec::with_capacity(payload.len().div_ceil(PAGE_SIZE as usize));
        let mut macs = Vec::with_capacity(n as usize);
        let mut stream_digest = Sha256::new();
        let mut prev = chain_seed(&key);
        for idx in 0..n {
            let first = leaves.len();
            leaves.extend(page_leaves(slice_chunk(&payload, chunk_size, idx)));
            let d = chunk_digest(&leaves[first..]);
            stream_digest.update(&d);
            prev = chunk_mac(&key, &prev, idx, &d);
            macs.push(prev);
        }
        ChunkStream {
            nonce,
            chunk_size,
            payload,
            macs,
            leaves,
            digest: stream_digest.finalize(),
        }
    }

    fn slice(payload: &[u8], chunk_size: u32, idx: u32) -> &[u8] {
        slice_chunk(payload, chunk_size, idx)
    }

    /// The transfer nonce.
    #[must_use]
    pub fn nonce(&self) -> TransferNonce {
        self.nonce
    }

    /// Total payload length in bytes.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// Number of chunks.
    #[must_use]
    pub fn n_chunks(&self) -> u32 {
        self.macs.len() as u32
    }

    /// The configured chunk size.
    #[must_use]
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// The stream digest: SHA-256 over the chunk digests.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        self.digest
    }

    /// The leaves of every chunk's pages, in payload order: the
    /// payload's page leaves when the chunk size is a whole number of
    /// pages.
    #[must_use]
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// Payload and chain MAC of chunk `idx`.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index (caller bug).
    #[must_use]
    pub fn chunk(&self, idx: u32) -> (&[u8], ChunkMac) {
        (
            Self::slice(&self.payload, self.chunk_size, idx),
            self.macs[idx as usize],
        )
    }
}

/// Destination side: in-order reassembly with chain verification,
/// serializable for crash-safe persistence.
///
/// The payload buffer is allocated once, at the announced length, as the
/// `Arc<[u8]>` [`ChunkAssembler::finish`] releases: every verified chunk
/// is written into its final place and the released state is never
/// copied again.
pub struct ChunkAssembler {
    nonce: TransferNonce,
    chunk_size: u32,
    n_chunks: u32,
    total_len: u64,
    digest: [u8; 32],
    key: [u8; 32],
    /// The whole payload; the first `filled` bytes are the verified
    /// prefix, the rest zeros. Unshared until `finish`.
    buf: Arc<[u8]>,
    filled: usize,
    /// The leaves of the accepted chunks' pages, in payload order.
    leaves: Vec<Leaf>,
    next_idx: u32,
    prev_mac: ChunkMac,
    /// Running stream digest over the verified prefix: every accepted
    /// chunk's digest is folded in as it arrives, so
    /// [`ChunkAssembler::finish`] only *finalizes* the hash. Not
    /// serialized; re-seeded from the restored prefix.
    hasher: Sha256,
}

impl std::fmt::Debug for ChunkAssembler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkAssembler")
            .field("next_idx", &self.next_idx)
            .field("n_chunks", &self.n_chunks)
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl ChunkAssembler {
    /// Opens an assembler for an announced transfer.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when the announced geometry is
    /// inconsistent (chunk count vs. length) or exceeds
    /// [`MAX_STREAM_LEN`].
    pub fn new(
        nonce: TransferNonce,
        chunk_size: u32,
        total_len: u64,
        digest: [u8; 32],
    ) -> Result<Self, MigError> {
        if chunk_size == 0 {
            return Err(MigError::Transfer("zero chunk size"));
        }
        if total_len == 0 || total_len > MAX_STREAM_LEN {
            return Err(MigError::Transfer("stream length out of bounds"));
        }
        let key = chain_key(&nonce);
        // Bounded by MAX_STREAM_LEN above, and announced inside the
        // attested channel: one allocation at the final size.
        let buf = crate::zeroed_arc(total_len as usize);
        Ok(ChunkAssembler {
            nonce,
            chunk_size,
            n_chunks: chunk_count(total_len, chunk_size),
            total_len,
            digest,
            prev_mac: chain_seed(&key),
            key,
            buf,
            filled: 0,
            leaves: Vec::new(),
            next_idx: 0,
            hasher: Sha256::new(),
        })
    }

    /// Writes `bytes` behind the verified prefix.
    fn append(&mut self, bytes: &[u8]) -> Result<(), MigError> {
        let end = self.filled + bytes.len();
        let buf = Arc::get_mut(&mut self.buf)
            .and_then(|buf| buf.get_mut(self.filled..end))
            .ok_or(MigError::Transfer("chunk beyond the announced length"))?;
        buf.copy_from_slice(bytes);
        self.filled = end;
        Ok(())
    }

    /// The verified payload prefix received so far (every byte covered
    /// by the chain MACs of the accepted chunks).
    #[must_use]
    pub fn received(&self) -> &[u8] {
        &self.buf[..self.filled]
    }

    /// The transfer nonce.
    #[must_use]
    pub fn nonce(&self) -> TransferNonce {
        self.nonce
    }

    /// Index of the next chunk the assembler will accept — equivalently,
    /// the cumulative acknowledgement (`idx < next_idx` are received).
    #[must_use]
    pub fn next_idx(&self) -> u32 {
        self.next_idx
    }

    /// Total chunk count of the transfer.
    #[must_use]
    pub fn n_chunks(&self) -> u32 {
        self.n_chunks
    }

    /// Whether every chunk has been accepted.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.next_idx == self.n_chunks
    }

    fn expected_len(&self, idx: u32) -> u64 {
        if idx + 1 == self.n_chunks {
            self.total_len - u64::from(idx) * u64::from(self.chunk_size)
        } else {
            u64::from(self.chunk_size)
        }
    }

    /// Verifies and appends chunk `idx`, keeping its pages' leaves.
    /// A rejected chunk leaves the assembler as it was.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on an out-of-order index, a wrong payload
    /// length, or a chain-MAC mismatch (replay / reorder / splice).
    pub fn accept(&mut self, idx: u32, payload: &[u8], mac: &ChunkMac) -> Result<(), MigError> {
        if idx != self.next_idx {
            return Err(MigError::Transfer("chunk index out of order"));
        }
        if payload.len() as u64 != self.expected_len(idx) {
            return Err(MigError::Transfer("chunk length mismatch"));
        }
        let first = self.leaves.len();
        self.leaves.extend(page_leaves(payload));
        let d = chunk_digest(&self.leaves[first..]);
        let expected = chunk_mac(&self.key, &self.prev_mac, idx, &d);
        if !ct_eq(&expected, mac) {
            self.leaves.truncate(first);
            return Err(MigError::Transfer("chunk chain MAC mismatch"));
        }
        if let Err(e) = self.append(payload) {
            self.leaves.truncate(first);
            return Err(e);
        }
        self.hasher.update(&d);
        self.prev_mac = expected;
        self.next_idx += 1;
        Ok(())
    }

    /// Consumes the assembler, returning the verified payload in the
    /// buffer the chunks were written into, and the leaves of its
    /// chunks' pages (see [`ChunkStream::leaves`]).
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when chunks are missing or the stream
    /// digest does not match the announcement.
    pub fn finish(self) -> Result<(Arc<[u8]>, Vec<Leaf>), MigError> {
        if !self.is_complete() {
            return Err(MigError::Transfer("stream incomplete"));
        }
        if !ct_eq(&self.hasher.finalize(), &self.digest) {
            return Err(MigError::Transfer("state digest mismatch"));
        }
        Ok((self.buf, self.leaves))
    }

    /// Serializes the assembler (ME durable-state persistence).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.array(&self.nonce);
        w.u32(self.chunk_size);
        w.u64(self.total_len);
        w.array(&self.digest);
        w.u32(self.next_idx);
        w.array(&self.prev_mac);
        w.bytes(self.received());
        w.finish()
    }

    /// Restores a persisted assembler.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] / [`MigError::Sgx`] on malformed or
    /// internally inconsistent input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MigError> {
        let mut r = WireReader::new(bytes);
        let nonce: TransferNonce = r.array()?;
        let chunk_size = r.u32()?;
        let total_len = r.u64()?;
        let digest: [u8; 32] = r.array()?;
        let next_idx = r.u32()?;
        let prev_mac: ChunkMac = r.array()?;
        let prefix = r.bytes()?;
        r.finish()?;

        let mut assembler = Self::new(nonce, chunk_size, total_len, digest)?;
        if next_idx > assembler.n_chunks {
            return Err(MigError::Transfer("restored index out of range"));
        }
        let expected_buf: u64 = (0..next_idx).map(|i| assembler.expected_len(i)).sum();
        if prefix.len() as u64 != expected_buf {
            return Err(MigError::Transfer("restored buffer length mismatch"));
        }
        assembler.append(prefix)?;
        // Rebuild what `accept` kept for every restored chunk: its
        // pages' leaves, and its digest folded into the stream digest.
        for chunk in prefix.chunks(chunk_size as usize) {
            let first = assembler.leaves.len();
            assembler.leaves.extend(page_leaves(chunk));
            assembler
                .hasher
                .update(&chunk_digest(&assembler.leaves[first..]));
        }
        assembler.next_idx = next_idx;
        assembler.prev_mac = prev_mac;
        Ok(assembler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn stream_through(
        stream: &ChunkStream,
        assembler: &mut ChunkAssembler,
        from: u32,
    ) -> Result<(), MigError> {
        for idx in from..stream.n_chunks() {
            let (chunk, mac) = stream.chunk(idx);
            assembler.accept(idx, chunk, &mac)?;
        }
        Ok(())
    }

    #[test]
    fn round_trip_various_sizes() {
        for len in [1usize, 7, 256, 257, 1024, 5000] {
            let data = payload(len);
            let stream = ChunkStream::new([7; 16], 256, data.clone());
            let mut asm =
                ChunkAssembler::new([7; 16], 256, stream.total_len(), stream.digest()).unwrap();
            assert_eq!(asm.n_chunks(), stream.n_chunks());
            stream_through(&stream, &mut asm, 0).unwrap();
            assert_eq!(*asm.finish().unwrap().0, *data);
        }
    }

    #[test]
    fn page_multiple_chunks_yield_the_state_page_leaves() {
        use crate::transfer::delta::PageDigests;
        let data = payload(3 * 4096 + 100);
        let digests = PageDigests::compute(&data);
        for chunk_size in [4096u32, 8192, 16_384] {
            let stream = ChunkStream::new([2; 16], chunk_size, data.clone());
            assert_eq!(stream.leaves(), digests.leaves());
            let mut asm =
                ChunkAssembler::new([2; 16], chunk_size, stream.total_len(), stream.digest())
                    .unwrap();
            stream_through(&stream, &mut asm, 0).unwrap();
            let (out, leaves) = asm.finish().unwrap();
            assert_eq!((&*out, &leaves[..]), (&data[..], digests.leaves()));
        }
    }

    #[test]
    fn out_of_order_and_replay_rejected() {
        let stream = ChunkStream::new([1; 16], 16, payload(64));
        let mut asm = ChunkAssembler::new([1; 16], 16, 64, stream.digest()).unwrap();
        let (c0, m0) = stream.chunk(0);
        let (c1, m1) = stream.chunk(1);
        // Skipping ahead fails.
        assert!(matches!(asm.accept(1, c1, &m1), Err(MigError::Transfer(_))));
        asm.accept(0, c0, &m0).unwrap();
        // Replay of an accepted chunk fails.
        assert!(matches!(asm.accept(0, c0, &m0), Err(MigError::Transfer(_))));
        // A chunk presented at the wrong position fails the chain even if
        // the index field is rewritten to match.
        assert!(matches!(asm.accept(1, c0, &m0), Err(MigError::Transfer(_))));
    }

    #[test]
    fn cross_transfer_splice_rejected() {
        let a = ChunkStream::new([1; 16], 16, payload(64));
        let b = ChunkStream::new([2; 16], 16, payload(64));
        let mut asm = ChunkAssembler::new([1; 16], 16, 64, a.digest()).unwrap();
        let (c0, m0) = b.chunk(0);
        assert!(matches!(asm.accept(0, c0, &m0), Err(MigError::Transfer(_))));
    }

    #[test]
    fn tampered_payload_rejected() {
        let stream = ChunkStream::new([3; 16], 32, payload(100));
        let mut asm = ChunkAssembler::new([3; 16], 32, 100, stream.digest()).unwrap();
        let (c0, m0) = stream.chunk(0);
        let mut evil = c0.to_vec();
        evil[0] ^= 1;
        assert!(matches!(
            asm.accept(0, &evil, &m0),
            Err(MigError::Transfer(_))
        ));
    }

    #[test]
    fn resume_from_serialized_state() {
        let data = payload(1000);
        let stream = ChunkStream::new([9; 16], 128, data.clone());
        let mut asm = ChunkAssembler::new([9; 16], 128, 1000, stream.digest()).unwrap();
        for idx in 0..3 {
            let (c, m) = stream.chunk(idx);
            asm.accept(idx, c, &m).unwrap();
        }
        // Crash: persist, restore, resume from next_idx.
        let blob = asm.to_bytes();
        let mut restored = ChunkAssembler::from_bytes(&blob).unwrap();
        assert_eq!(restored.next_idx(), 3);
        stream_through(&stream, &mut restored, 3).unwrap();
        assert_eq!(*restored.finish().unwrap().0, *data);
    }

    #[test]
    fn incomplete_or_wrong_digest_rejected() {
        let stream = ChunkStream::new([4; 16], 64, payload(200));
        let asm = ChunkAssembler::new([4; 16], 64, 200, stream.digest()).unwrap();
        assert!(matches!(asm.finish(), Err(MigError::Transfer(_))));

        let mut asm = ChunkAssembler::new([4; 16], 64, 200, [0; 32]).unwrap();
        stream_through(&stream, &mut asm, 0).unwrap();
        assert!(matches!(asm.finish(), Err(MigError::Transfer(_))));
    }

    #[test]
    fn geometry_validation() {
        assert!(ChunkAssembler::new([0; 16], 0, 10, [0; 32]).is_err());
        assert!(ChunkAssembler::new([0; 16], 16, 0, [0; 32]).is_err());
        assert!(ChunkAssembler::new([0; 16], 16, MAX_STREAM_LEN + 1, [0; 32]).is_err());
        assert_eq!(chunk_count(0, 16), 0);
        assert_eq!(chunk_count(16, 16), 1);
        assert_eq!(chunk_count(17, 16), 2);
    }

    #[test]
    fn tampered_persisted_state_rejected() {
        let stream = ChunkStream::new([5; 16], 32, payload(100));
        let mut asm = ChunkAssembler::new([5; 16], 32, 100, stream.digest()).unwrap();
        let (c, m) = stream.chunk(0);
        asm.accept(0, c, &m).unwrap();
        let blob = asm.to_bytes();
        // Truncations never panic.
        for cut in 1..blob.len().min(64) {
            assert!(ChunkAssembler::from_bytes(&blob[..blob.len() - cut]).is_err());
        }
    }
}
