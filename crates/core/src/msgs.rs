//! Protocol messages exchanged over the attested secure channels.
//!
//! Two message families exist, mirroring Fig. 2 of the paper:
//!
//! * [`LibToMe`] / [`MeToLib`] — between a Migration Library and its local
//!   Migration Enclave, inside the local-attestation channel;
//! * [`MeToMe`] — between the source and destination Migration Enclaves,
//!   inside the remote-attestation channel.
//!
//! All of these travel *encrypted*; the enum encodings here are the
//! channel plaintexts. Each encoder writes one buffer sized for the
//! message and its channel tag, so the sender seals it in place
//! ([`crate::secure_channel::SecureChannel::seal_in_place`]) without a
//! second buffer. The bulk state rides as an `Arc<[u8]>`, the form both
//! ends keep it in: encoding borrows it, decoding allocates it once. A
//! receiver decodes a chunk as a [`ChunkCell`] borrowed from the opened
//! cell ([`MeToMe::chunk_cell`]), so each chunk is copied once more,
//! into the state it assembles.
//!
//! Beyond the paper's single-shot `Transfer`, the ME↔ME family carries
//! the streaming state-transfer protocol of [`crate::transfer`]:
//! [`MeToMe::ChunkStart`] announces a full chunked transfer (geometry,
//! stream digest, generation number, and the Table I control data), [`MeToMe::DeltaStart`] announces a dirty-page *delta* stream
//! (chunk geometry plus the [`DeltaManifest`] naming the base generation
//! and changed pages), [`MeToMe::Chunk`] carries one HMAC-chained chunk,
//! [`MeToMe::ChunkAck`] cumulatively acknowledges received chunks
//! (driving the source's send window), [`MeToMe::ResumeRequest`] /
//! [`MeToMe::Resume`] renegotiate the resume point after a crash, and
//! [`MeToMe::DeltaNack`] tells a source whose delta base the destination
//! does not hold to fall back to a full stream.
//!
//! **Per-nonce multiplexing.** Several chunk streams to the same
//! destination interleave on one attested channel, each frame tagged by
//! its [`TransferNonce`]; the channel's per-session sequence numbers
//! keep the *interleaving itself* tamper-evident, and the per-nonce HMAC
//! chain rejects any cross-stream splice below it. The channel relies
//! on the network delivering its frames in order (the simulator's links
//! are FIFO); anything that reorders them fails authentication.

use crate::library::state::MigrationData;
use crate::transfer::chunker::{ChunkMac, TransferNonce};
use crate::transfer::delta::DeltaManifest;
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::sync::Arc;

/// Library → Migration Enclave (local channel).
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// messages are built once and immediately serialized, so boxing would
// only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LibToMe {
    /// Start an outgoing migration: transfer `data` (and the staged bulk
    /// `state`, possibly empty) to `destination` (the `migrate` message
    /// of Fig. 2).
    MigrateRequest {
        /// The machine the enclave should migrate to.
        destination: MachineId,
        /// The Table I payload.
        data: MigrationData,
        /// The staged bulk state (migratable-sealed app payload); may be
        /// empty.
        state: Arc<[u8]>,
    },
    /// Confirmation that incoming migration data was installed
    /// (the `DONE` message of Fig. 2).
    Done,
}

impl LibToMe {
    /// Bytes a [`LibToMe::MigrateRequest`] carries ahead of its state:
    /// tag, destination, the Table I payload and the state's length.
    pub const REQUEST_HEAD_LEN: usize = 1 + 8 + 4 + MigrationData::WIRE_SIZE + 4;

    /// Length of the encoding in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            LibToMe::MigrateRequest { state, .. } => Self::REQUEST_HEAD_LEN + state.len(),
            LibToMe::Done => 1,
        }
    }

    /// Serializes the message (channel plaintext) into one buffer with
    /// room for the channel tag.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len() + TAG_LEN);
        self.encode(&mut w);
        w.finish()
    }

    /// Appends the encoding to `w` (a sender that seals the message
    /// inside a larger output writes it where it will be sealed).
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            LibToMe::MigrateRequest {
                destination,
                data,
                state,
            } => {
                w.u8(1);
                w.u64(destination.0);
                w.bytes(&data.to_bytes());
                w.bytes(state);
            }
            LibToMe::Done => {
                w.u8(2);
            }
        }
    }

    /// Parses a message whose encoding arrived in two parts: `head`, its
    /// first [`LibToMe::REQUEST_HEAD_LEN`] bytes (all of them, for a
    /// shorter message), and `body`, the rest — which is a migration
    /// request's state, so the state stays in the `Arc` it was opened
    /// into ([`crate::secure_channel::SecureChannel::open_split`]).
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_split(head: &[u8], body: Arc<[u8]>) -> Result<Self, SgxError> {
        let mut r = WireReader::new(head);
        let msg = match r.u8()? {
            1 => {
                let destination = MachineId(r.u64()?);
                let data = MigrationData::from_bytes(r.bytes()?)?;
                if r.u32()? as usize != body.len() {
                    return Err(SgxError::Decode);
                }
                LibToMe::MigrateRequest {
                    destination,
                    data,
                    state: body,
                }
            }
            2 if body.is_empty() => LibToMe::Done,
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Parses a message (its body copied once into the state's `Arc`).
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let (head, body) = bytes.split_at(bytes.len().min(Self::REQUEST_HEAD_LEN));
        Self::from_split(head, Arc::from(body))
    }
}

/// Migration Enclave → Library (local channel).
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// messages are built once and immediately serialized, so boxing would
// only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeToLib {
    /// Deliver incoming migration data (the `restore data` of Fig. 2).
    IncomingMigration {
        /// The Table I payload from the source enclave.
        data: MigrationData,
        /// The bulk state that accompanied it (possibly empty).
        state: Arc<[u8]>,
    },
    /// The outgoing migration completed; the destination confirmed.
    MigrationComplete,
}

impl MeToLib {
    /// Bytes a [`MeToLib::IncomingMigration`] carries ahead of its state:
    /// tag, the Table I payload and the state's length.
    pub const INCOMING_HEAD_LEN: usize = 1 + 4 + MigrationData::WIRE_SIZE + 4;

    /// Length of the encoding in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        match self {
            MeToLib::IncomingMigration { state, .. } => Self::INCOMING_HEAD_LEN + state.len(),
            MeToLib::MigrationComplete => 1,
        }
    }

    /// Appends the encoding to `w` (a sender that seals the message
    /// inside a larger output writes it where it will be sealed).
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            MeToLib::IncomingMigration { data, state } => {
                w.u8(1);
                w.bytes(&data.to_bytes());
                w.bytes(state);
            }
            MeToLib::MigrationComplete => {
                w.u8(2);
            }
        }
    }

    /// Serializes the message (channel plaintext) into one buffer with
    /// room for the channel tag.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len() + TAG_LEN);
        self.encode(&mut w);
        w.finish()
    }

    /// Parses a message whose encoding arrived in two parts: `head`, its
    /// first [`MeToLib::INCOMING_HEAD_LEN`] bytes (all of them, for a
    /// shorter message), and `body`, the rest — which is an incoming
    /// migration's state, so the state stays in the `Arc` it was opened
    /// into ([`crate::secure_channel::SecureChannel::open_split`]).
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_split(head: &[u8], body: Arc<[u8]>) -> Result<Self, SgxError> {
        let mut r = WireReader::new(head);
        let msg = match r.u8()? {
            1 => {
                let data = MigrationData::from_bytes(r.bytes()?)?;
                if r.u32()? as usize != body.len() {
                    return Err(SgxError::Decode);
                }
                MeToLib::IncomingMigration { data, state: body }
            }
            2 if body.is_empty() => MeToLib::MigrationComplete,
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(msg)
    }

    /// Parses a message (its body copied once into the state's `Arc`).
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let (head, body) = bytes.split_at(bytes.len().min(Self::INCOMING_HEAD_LEN));
        Self::from_split(head, Arc::from(body))
    }
}

/// Migration Enclave ↔ Migration Enclave (remote channel).
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// messages are built once and immediately serialized, so boxing would
// only complicate the codec.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeToMe {
    /// Source → destination: the migrating enclave's identity and payload
    /// — the single-shot fast path for small state.
    /// (§VI-A: "the MRENCLAVE value is appended to the migration data of
    /// the enclave before sending it to the destination".)
    Transfer {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// The Table I payload.
        data: MigrationData,
        /// Accompanying bulk state (possibly empty).
        state: Arc<[u8]>,
    },
    /// Destination → source: the named enclave's data was delivered to a
    /// matching local enclave and confirmed (`DONE` propagated).
    Delivered {
        /// MRENCLAVE of the migrated enclave.
        mr_enclave: MrEnclave,
    },
    /// Destination → source: data accepted and stored; delivery pending
    /// until a matching enclave attests.
    Stored {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
    },
    /// Source → destination: announces a chunked full-state transfer.
    ChunkStart {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// Per-transfer nonce (keys the chunk HMAC chain).
        nonce: TransferNonce,
        /// State generation this stream installs (the delta base for a
        /// later repeat migration).
        generation: u64,
        /// Total bulk-state length in bytes.
        total_len: u64,
        /// Chunk size used by the sender (a whole number of pages).
        chunk_size: u32,
        /// The stream digest: SHA-256 over the chunk digests, each one
        /// SHA-256 over the leaves of the chunk's pages.
        state_digest: [u8; 32],
        /// The Table I control payload (travels with the announcement).
        data: MigrationData,
    },
    /// Source → destination: announces a chunked dirty-page **delta**
    /// stream. The chunked payload is the packed dirty pages described by
    /// `manifest`; the destination applies them onto its retained copy of
    /// `manifest.base_generation` and verifies the merged page-digest
    /// root against `manifest.new_digest`.
    DeltaStart {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// Per-transfer nonce (keys the chunk HMAC chain).
        nonce: TransferNonce,
        /// Chunk size used by the sender (a whole number of pages).
        chunk_size: u32,
        /// The stream digest of the packed delta payload (what the chunk
        /// assembler checks on completion).
        payload_digest: [u8; 32],
        /// Which pages changed, against which base generation.
        manifest: DeltaManifest,
        /// The Table I control payload (travels with the announcement).
        data: MigrationData,
    },
    /// Destination → source: the delta base named by a `DeltaStart` is
    /// not held here — restart the transfer as a full stream.
    DeltaNack {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// The rejected delta transfer.
        nonce: TransferNonce,
    },
    /// Source → destination: one chunk of the announced transfer.
    Chunk {
        /// The transfer this chunk belongs to.
        nonce: TransferNonce,
        /// Chunk index (strictly in-order delivery).
        idx: u32,
        /// Chunk payload (exactly `chunk_size` bytes except the final
        /// chunk).
        payload: Vec<u8>,
        /// HMAC-chain MAC binding the chunk to its transfer and position.
        mac: ChunkMac,
    },
    /// Destination → source: cumulative acknowledgement — every chunk
    /// with `idx < upto` has been verified and stored.
    ChunkAck {
        /// The transfer being acknowledged.
        nonce: TransferNonce,
        /// One past the highest in-order verified chunk index.
        upto: u32,
    },
    /// Source → destination (after a crash/reconnect): where should the
    /// stream identified by `nonce` resume?
    ResumeRequest {
        /// MRENCLAVE of the migrating enclave.
        mr_enclave: MrEnclave,
        /// The interrupted transfer.
        nonce: TransferNonce,
    },
    /// Destination → source: resume the stream from `from_idx`
    /// (`0` restarts the stream, including a fresh `ChunkStart`).
    Resume {
        /// The transfer to resume.
        nonce: TransferNonce,
        /// First chunk index the destination still needs.
        from_idx: u32,
    },
}

/// A [`MeToMe::Chunk`] decoded in place: the payload is borrowed from
/// the opened cell, so the receiver copies it once, into the state it
/// assembles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkCell<'a> {
    /// The transfer this chunk belongs to.
    pub nonce: TransferNonce,
    /// Chunk index.
    pub idx: u32,
    /// Chunk payload, borrowed.
    pub payload: &'a [u8],
    /// HMAC-chain MAC binding the chunk to its transfer and position.
    pub mac: ChunkMac,
}

impl<'a> ChunkCell<'a> {
    /// Reads the fields behind a chunk's tag byte.
    fn read(r: &mut WireReader<'a>) -> Result<Self, SgxError> {
        Ok(ChunkCell {
            nonce: r.array()?,
            idx: r.u32()?,
            payload: r.bytes()?,
            mac: r.array()?,
        })
    }
}

impl MeToMe {
    /// Decodes `bytes` as a [`MeToMe::Chunk`] borrowing its payload, or
    /// returns `None` for any other message kind (decode those with
    /// [`MeToMe::from_bytes`]).
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on a malformed chunk.
    pub fn chunk_cell(bytes: &[u8]) -> Result<Option<ChunkCell<'_>>, SgxError> {
        let mut r = WireReader::new(bytes);
        if r.u8()? != 5 {
            return Ok(None);
        }
        let cell = ChunkCell::read(&mut r)?;
        r.finish()?;
        Ok(Some(cell))
    }

    /// Encoded length of a [`MeToMe::Chunk`] carrying `payload_len`
    /// bytes.
    #[must_use]
    pub fn chunk_len(payload_len: usize) -> usize {
        1 + 16 + 4 + 4 + payload_len + 32
    }

    /// Appends a [`MeToMe::Chunk`] encoded straight from a borrowed
    /// payload slice — the streaming hot path writes each chunk once,
    /// into the frame it is sealed in. The bytes are those of the
    /// enum variant.
    pub fn write_chunk(
        w: &mut WireWriter,
        nonce: &TransferNonce,
        idx: u32,
        payload: &[u8],
        mac: &ChunkMac,
    ) {
        w.u8(5);
        w.array(nonce);
        w.u32(idx);
        w.bytes(payload);
        w.array(mac);
    }

    /// Length of the encoding in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        const DATA: usize = 4 + MigrationData::WIRE_SIZE;
        match self {
            MeToMe::Transfer { state, .. } => 1 + 32 + DATA + 4 + state.len(),
            MeToMe::Delivered { .. } | MeToMe::Stored { .. } => 1 + 32,
            MeToMe::ChunkStart { .. } => 1 + 32 + 16 + 8 + 8 + 4 + 32 + DATA,
            MeToMe::Chunk { payload, .. } => Self::chunk_len(payload.len()),
            MeToMe::DeltaStart { manifest, .. } => {
                1 + 32 + 16 + 4 + 32 + 4 + manifest.encoded_len() + DATA
            }
            MeToMe::DeltaNack { .. } | MeToMe::ResumeRequest { .. } => 1 + 32 + 16,
            MeToMe::ChunkAck { .. } | MeToMe::Resume { .. } => 1 + 16 + 4,
        }
    }

    /// Serializes the message (channel plaintext) into one buffer with
    /// room for the channel tag.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len() + TAG_LEN);
        self.encode(&mut w);
        w.finish()
    }

    /// Appends the encoding to `w` (a sender that seals the message
    /// inside a larger buffer writes it where it will be sealed).
    pub fn encode(&self, w: &mut WireWriter) {
        match self {
            MeToMe::Transfer {
                mr_enclave,
                data,
                state,
            } => {
                w.u8(1);
                w.array(&mr_enclave.0);
                w.bytes(&data.to_bytes());
                w.bytes(state);
            }
            MeToMe::Delivered { mr_enclave } => {
                w.u8(2);
                w.array(&mr_enclave.0);
            }
            MeToMe::Stored { mr_enclave } => {
                w.u8(3);
                w.array(&mr_enclave.0);
            }
            MeToMe::ChunkStart {
                mr_enclave,
                nonce,
                generation,
                total_len,
                chunk_size,
                state_digest,
                data,
            } => {
                w.u8(4);
                w.array(&mr_enclave.0);
                w.array(nonce);
                w.u64(*generation);
                w.u64(*total_len);
                w.u32(*chunk_size);
                w.array(state_digest);
                w.bytes(&data.to_bytes());
            }
            MeToMe::Chunk {
                nonce,
                idx,
                payload,
                mac,
            } => Self::write_chunk(w, nonce, *idx, payload, mac),
            MeToMe::DeltaStart {
                mr_enclave,
                nonce,
                chunk_size,
                payload_digest,
                manifest,
                data,
            } => {
                w.u8(9);
                w.array(&mr_enclave.0);
                w.array(nonce);
                w.u32(*chunk_size);
                w.array(payload_digest);
                w.bytes(&manifest.to_bytes());
                w.bytes(&data.to_bytes());
            }
            MeToMe::DeltaNack { mr_enclave, nonce } => {
                w.u8(10);
                w.array(&mr_enclave.0);
                w.array(nonce);
            }
            MeToMe::ChunkAck { nonce, upto } => {
                w.u8(6);
                w.array(nonce);
                w.u32(*upto);
            }
            MeToMe::ResumeRequest { mr_enclave, nonce } => {
                w.u8(7);
                w.array(&mr_enclave.0);
                w.array(nonce);
            }
            MeToMe::Resume { nonce, from_idx } => {
                w.u8(8);
                w.array(nonce);
                w.u32(*from_idx);
            }
        }
    }

    /// Parses a message.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let msg = match r.u8()? {
            1 => MeToMe::Transfer {
                mr_enclave: MrEnclave(r.array()?),
                data: MigrationData::from_bytes(r.bytes()?)?,
                state: Arc::from(r.bytes()?),
            },
            2 => MeToMe::Delivered {
                mr_enclave: MrEnclave(r.array()?),
            },
            3 => MeToMe::Stored {
                mr_enclave: MrEnclave(r.array()?),
            },
            4 => MeToMe::ChunkStart {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
                generation: r.u64()?,
                total_len: r.u64()?,
                chunk_size: r.u32()?,
                state_digest: r.array()?,
                data: MigrationData::from_bytes(r.bytes()?)?,
            },
            5 => {
                let cell = ChunkCell::read(&mut r)?;
                MeToMe::Chunk {
                    nonce: cell.nonce,
                    idx: cell.idx,
                    payload: cell.payload.to_vec(),
                    mac: cell.mac,
                }
            }
            6 => MeToMe::ChunkAck {
                nonce: r.array()?,
                upto: r.u32()?,
            },
            7 => MeToMe::ResumeRequest {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
            },
            8 => MeToMe::Resume {
                nonce: r.array()?,
                from_idx: r.u32()?,
            },
            9 => MeToMe::DeltaStart {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
                chunk_size: r.u32()?,
                payload_digest: r.array()?,
                manifest: DeltaManifest::from_bytes(r.bytes()?)?,
                data: MigrationData::from_bytes(r.bytes()?)?,
            },
            10 => MeToMe::DeltaNack {
                mr_enclave: MrEnclave(r.array()?),
                nonce: r.array()?,
            },
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::state::COUNTER_SLOTS;

    fn data() -> MigrationData {
        let mut d = MigrationData {
            counters_active: [false; COUNTER_SLOTS],
            counter_values: [0; COUNTER_SLOTS],
            msk: [7; 16],
        };
        d.counters_active[1] = true;
        d.counter_values[1] = 99;
        d
    }

    #[test]
    fn lib_to_me_round_trip() {
        let msgs = [
            LibToMe::MigrateRequest {
                destination: MachineId(9),
                data: data(),
                state: Arc::from(&b"bulk"[..]),
            },
            LibToMe::MigrateRequest {
                destination: MachineId(9),
                data: data(),
                state: Arc::from(&[][..]),
            },
            LibToMe::Done,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert!(bytes.capacity() >= bytes.len() + TAG_LEN);
            assert_eq!(LibToMe::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn me_to_lib_round_trip() {
        let msgs = [
            MeToLib::IncomingMigration {
                data: data(),
                state: Arc::from(&b"bulk"[..]),
            },
            MeToLib::MigrationComplete,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(bytes.len(), msg.encoded_len());
            assert!(bytes.capacity() >= bytes.len() + TAG_LEN);
            assert_eq!(MeToLib::from_bytes(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn me_to_me_round_trip() {
        let msgs = [
            MeToMe::Transfer {
                mr_enclave: MrEnclave([5; 32]),
                data: data(),
                state: Arc::from(&b"sealed state"[..]),
            },
            MeToMe::Delivered {
                mr_enclave: MrEnclave([5; 32]),
            },
            MeToMe::Stored {
                mr_enclave: MrEnclave([6; 32]),
            },
            MeToMe::ChunkStart {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
                generation: 3,
                total_len: 1_000_000,
                chunk_size: 4096,
                state_digest: [9; 32],
                data: data(),
            },
            MeToMe::DeltaStart {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
                chunk_size: 4096,
                payload_digest: [7; 32],
                manifest: crate::transfer::delta::DeltaManifest {
                    base_generation: 3,
                    new_generation: 4,
                    page_size: 4096,
                    base_len: 1_000_000,
                    new_len: 1_000_000,
                    base_digest: [5; 32],
                    new_digest: [6; 32],
                    dirty: vec![0, 5, 9],
                },
                data: data(),
            },
            MeToMe::DeltaNack {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
            },
            MeToMe::Chunk {
                nonce: [8; 16],
                idx: 7,
                payload: vec![1, 2, 3],
                mac: [4; 32],
            },
            MeToMe::ChunkAck {
                nonce: [8; 16],
                upto: 8,
            },
            MeToMe::ResumeRequest {
                mr_enclave: MrEnclave([5; 32]),
                nonce: [8; 16],
            },
            MeToMe::Resume {
                nonce: [8; 16],
                from_idx: 3,
            },
        ];
        for msg in msgs {
            assert_eq!(msg.to_bytes().len(), msg.encoded_len(), "{msg:?}");
            assert_eq!(MeToMe::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn borrowed_encoders_match_variant_encoding() {
        let chunk = MeToMe::Chunk {
            nonce: [1; 16],
            idx: 3,
            payload: vec![9; 50],
            mac: [2; 32],
        };
        let mut w = WireWriter::new();
        MeToMe::write_chunk(&mut w, &[1; 16], 3, &[9; 50], &[2; 32]);
        assert_eq!(chunk.to_bytes(), w.finish());
        let incoming = MeToLib::IncomingMigration {
            data: data(),
            state: Arc::from(&b"bulk"[..]),
        };
        let mut w = WireWriter::new();
        w.u8(0xAA);
        incoming.encode(&mut w);
        assert_eq!(w.finish()[1..], incoming.to_bytes());
    }

    #[test]
    fn split_decoding_checks_the_state_length_and_the_tag() {
        let request = LibToMe::MigrateRequest {
            destination: MachineId(9),
            data: data(),
            state: Arc::from(&b"bulk"[..]),
        };
        let bytes = request.to_bytes();
        let (head, body) = bytes.split_at(LibToMe::REQUEST_HEAD_LEN);
        assert_eq!(LibToMe::from_split(head, Arc::from(body)).unwrap(), request);
        // A body that disagrees with the announced state length.
        assert!(LibToMe::from_split(head, Arc::from(&b"bulk!"[..])).is_err());
        // A short message carries no body.
        assert!(LibToMe::from_split(&[2], Arc::from(&b"x"[..])).is_err());
        assert_eq!(
            LibToMe::from_split(&[2], Arc::from([])).unwrap(),
            LibToMe::Done
        );

        let incoming = MeToLib::IncomingMigration {
            data: data(),
            state: Arc::from(&b"bulk"[..]),
        };
        let bytes = incoming.to_bytes();
        let (head, body) = bytes.split_at(MeToLib::INCOMING_HEAD_LEN);
        assert_eq!(
            MeToLib::from_split(head, Arc::from(body)).unwrap(),
            incoming
        );
        assert!(MeToLib::from_split(head, Arc::from(&b"bul"[..])).is_err());
    }

    #[test]
    fn chunk_cells_borrow_the_payload() {
        let mut w = WireWriter::new();
        MeToMe::write_chunk(&mut w, &[1; 16], 3, &[9; 50], &[2; 32]);
        let bytes = w.finish();
        let cell = MeToMe::chunk_cell(&bytes).unwrap().unwrap();
        assert_eq!(
            cell,
            ChunkCell {
                nonce: [1; 16],
                idx: 3,
                payload: &[9; 50],
                mac: [2; 32],
            }
        );
        // The payload is the cell's own bytes, not a copy.
        assert!(std::ptr::eq(cell.payload, &bytes[25..75]));
        // Other kinds are left to `from_bytes`; a short chunk is an error.
        let ack = MeToMe::ChunkAck {
            nonce: [1; 16],
            upto: 2,
        };
        assert_eq!(MeToMe::chunk_cell(&ack.to_bytes()).unwrap(), None);
        assert!(MeToMe::chunk_cell(&bytes[..bytes.len() - 1]).is_err());
        assert!(MeToMe::chunk_cell(&[]).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(LibToMe::from_bytes(&[9]).is_err());
        assert!(MeToLib::from_bytes(&[9]).is_err());
        assert!(MeToMe::from_bytes(&[9]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = LibToMe::Done.to_bytes();
        bytes.push(0);
        assert!(LibToMe::from_bytes(&bytes).is_err());
    }
}
