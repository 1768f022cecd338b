//! The **session layer** of the Migration Enclave: explicit, typed
//! state machines for every migration the enclave is driving.
//!
//! Each *outgoing* migration is a [`SenderFsm`] — announce →
//! chunk/delta streaming → resume/retry → stored → delivered — keyed by
//! the migrating enclave's MRENCLAVE, with the per-nonce chunk progress
//! carried inside the active states as a [`StreamProgress`]. Each
//! *incoming* chunk stream is a [`ReceiverFsm`] keyed by its
//! [`TransferNonce`], verifying the HMAC chain chunk by chunk and
//! restoring speculatively: the verified prefix is staged as it arrives
//! (each chunk's page leaves kept; a retained delta base overlaid page
//! by page), so the final chunk only finalizes the digest checks and
//! releases.
//!
//! Every state byte is hashed at most once per endpoint. A full stream
//! hashes its pages once on each side, and the leaves it yields become
//! the page-digest tree the generation cache keeps; a delta hashes only
//! its dirty pages and derives the new tree from the cached base's.
//!
//! Both directions have one path. A send burst — single-shot
//! transfers, resume requests, announcements, granted chunks — is
//! sealed in order, one `TRANSFER` frame per message, and one handler
//! serves every message kind a frame can carry.
//!
//! Invalid events surface as [`MigError::InvalidTransition`], frames
//! for nonces no stream owns as [`MigError::StaleNonce`], and a delta
//! whose base generation fell out of the LRU cache as
//! [`MigError::BaseEvicted`]. Message sealing lives in
//! [`super::wire`]; durable state in [`super::persist`].

use crate::error::{ChannelPeer, MigError};
use crate::library::state::MigrationData;
use crate::me::wire::{self, Cell};
use crate::me::MigrationEnclave;
use crate::msgs::{ChunkCell, LibToMe, MeToLib, MeToMe};
use crate::transfer::chunker::{
    chunk_count, trace_id, ChunkAssembler, ChunkMac, ChunkStream, TransferNonce,
};
use crate::transfer::delta::{self, DeltaManifest, DigestedState, PageDigests, StagedApply};
use crate::transfer::{MAX_DELTA_PERCENT, MAX_STREAMS};
use sgx_sim::enclave::EnclaveEnv;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::sync::Arc;

use super::{opt_len, sealed_opt_len, write_opt, write_sealed_opt};

/// Action the untrusted host must take after a
/// [`ops::LIB_MSG`](super::ops::LIB_MSG) ECALL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MeAction {
    /// Nothing to do (e.g. handshake already in flight; data queued).
    None,
    /// Open a connection to the destination ME: send the RA hello.
    ConnectRemote {
        /// Destination machine.
        destination: MachineId,
        /// `RaHello` bytes to deliver to the destination's ME host.
        hello: Vec<u8>,
    },
    /// A channel exists: send these `TRANSFER` frames in order.
    SendRemote {
        /// Destination machine.
        destination: MachineId,
        /// Channel-sealed [`MeToMe`] messages, each for one
        /// [`ops::TRANSFER`](super::ops::TRANSFER) at the destination.
        frames: Vec<Vec<u8>>,
    },
    /// (Destination side) relay this encrypted acknowledgement to the
    /// source ME.
    AckSource {
        /// Source machine.
        source: MachineId,
        /// Channel-sealed [`MeToMe::Delivered`].
        ack: Vec<u8>,
    },
}

/// Encoded length of a list as [`write_list`] writes it.
pub(crate) fn list_len(items: &[Vec<u8>]) -> usize {
    4 + items.iter().map(|item| 4 + item.len()).sum::<usize>()
}

/// Writes a list of byte strings — a `u32` count, then each one behind
/// its length — the form ECALL outputs carry frames in.
pub(crate) fn write_list(w: &mut WireWriter, items: &[Vec<u8>]) {
    w.u32(items.len() as u32);
    for item in items {
        w.bytes(item);
    }
}

/// One record of a `TRANSFER` output (see
/// [`MigrationEnclave::op_transfer`]), held until the output is written.
pub(super) enum OutRecord {
    /// A record already encoded (a stored transfer or stream progress).
    Encoded(Vec<u8>),
    /// Kind 1: an incoming migration forwarded to its attested local
    /// enclave, with the stream's trace id and final ack. It is sealed
    /// only when the output is written, in place inside it, so the state
    /// is copied once, into the buffer that leaves the enclave.
    Forward {
        /// The enclave the migration is delivered to.
        mr_enclave: MrEnclave,
        /// The stream's public trace id (`None` for single-shot).
        trace: Option<[u8; 8]>,
        /// The message sealed on the enclave's local channel (boxed: it
        /// carries the Table I data).
        forward: Box<MeToLib>,
        /// The final cumulative ack for the source, if streamed.
        final_ack: Option<Vec<u8>>,
    },
}

impl OutRecord {
    /// Encoded length of the record.
    fn encoded_len(&self) -> usize {
        match self {
            OutRecord::Encoded(bytes) => bytes.len(),
            OutRecord::Forward {
                trace,
                forward,
                final_ack,
                ..
            } => {
                1 + 32
                    + opt_len(trace.as_ref().map(<[u8; 8]>::as_slice))
                    + sealed_opt_len(forward)
                    + opt_len(final_ack.as_deref())
            }
        }
    }
}

impl MeAction {
    /// Serializes the action (ECALL output) into one exact-size buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(match self {
            MeAction::None => 1,
            MeAction::ConnectRemote { hello: bytes, .. }
            | MeAction::AckSource { ack: bytes, .. } => 1 + 8 + 4 + bytes.len(),
            MeAction::SendRemote { frames, .. } => 1 + 8 + list_len(frames),
        });
        match self {
            MeAction::None => {
                w.u8(0);
            }
            MeAction::ConnectRemote { destination, hello } => {
                w.u8(1);
                w.u64(destination.0);
                w.bytes(hello);
            }
            MeAction::SendRemote {
                destination,
                frames,
            } => {
                w.u8(2);
                w.u64(destination.0);
                write_list(&mut w, frames);
            }
            MeAction::AckSource { source, ack } => {
                w.u8(3);
                w.u64(source.0);
                w.bytes(ack);
            }
        }
        w.finish()
    }

    /// Parses an action.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let action = match r.u8()? {
            0 => MeAction::None,
            1 => MeAction::ConnectRemote {
                destination: MachineId(r.u64()?),
                hello: r.bytes_vec()?,
            },
            2 => {
                let destination = MachineId(r.u64()?);
                let n = r.u32()? as usize;
                // Each frame takes at least its 4-byte length: bound the
                // reservation by the input, not by the claimed count.
                let mut frames = Vec::with_capacity(n.min(r.remaining() / 4));
                for _ in 0..n {
                    frames.push(r.bytes_vec()?);
                }
                MeAction::SendRemote {
                    destination,
                    frames,
                }
            }
            3 => MeAction::AckSource {
                source: MachineId(r.u64()?),
                ack: r.bytes_vec()?,
            },
            _ => return Err(SgxError::Decode),
        };
        r.finish()?;
        Ok(action)
    }
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------

/// Per-nonce progress of an outgoing chunk stream, carried inside the
/// active [`SenderFsm`] states and persisted so a restarted ME resumes
/// every in-flight stream from its last acknowledged chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamProgress {
    pub(crate) nonce: TransferNonce,
    /// Chunk size the stream was started with (survives re-provisioning
    /// with a different config).
    pub(crate) chunk_size: u32,
    /// Length of the streamed payload: the full state for a full stream,
    /// the packed dirty pages for a delta stream.
    pub(crate) payload_len: u64,
    /// State generation this stream installs at the destination.
    pub(crate) generation: u64,
    /// `Some(base)` when the stream ships a dirty-page delta against the
    /// destination's retained generation `base`.
    pub(crate) delta_base: Option<u64>,
    /// Cumulative acknowledgement: chunks `< acked` are at the
    /// destination.
    pub(crate) acked: u32,
    /// Next chunk index to put on the wire (not persisted; reset to
    /// `acked` on restore).
    pub(crate) next_to_send: u32,
}

impl StreamProgress {
    /// Fresh progress for a just-announced stream (nothing acked).
    #[must_use]
    pub fn new(
        nonce: TransferNonce,
        chunk_size: u32,
        payload_len: u64,
        generation: u64,
        delta_base: Option<u64>,
    ) -> Self {
        StreamProgress {
            nonce,
            chunk_size,
            payload_len,
            generation,
            delta_base,
            acked: 0,
            next_to_send: 0,
        }
    }

    /// Progress restored from a persisted checkpoint: anything past the
    /// last cumulative ack may be lost in flight, so sending restarts
    /// from there.
    #[must_use]
    pub fn restored(
        nonce: TransferNonce,
        chunk_size: u32,
        payload_len: u64,
        generation: u64,
        delta_base: Option<u64>,
        acked: u32,
    ) -> Self {
        StreamProgress {
            nonce,
            chunk_size,
            payload_len,
            generation,
            delta_base,
            acked,
            next_to_send: acked,
        }
    }

    /// The per-transfer nonce keying the chunk HMAC chain.
    #[must_use]
    pub fn nonce(&self) -> TransferNonce {
        self.nonce
    }

    /// Total chunks of the stream.
    #[must_use]
    pub fn n_chunks(&self) -> u32 {
        chunk_count(self.payload_len, self.chunk_size)
    }

    /// Whether every chunk has been cumulatively acknowledged.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.acked >= self.n_chunks()
    }

    /// Cumulatively acknowledged chunks.
    #[must_use]
    pub fn acked(&self) -> u32 {
        self.acked
    }

    /// Next chunk index to put on the wire.
    #[must_use]
    pub fn next_to_send(&self) -> u32 {
        self.next_to_send
    }

    /// State generation this stream installs.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The delta base generation, when this is a delta stream.
    #[must_use]
    pub fn delta_base(&self) -> Option<u64> {
        self.delta_base
    }

    /// Advances the progress by a cumulative ack (`rewind == false`:
    /// `acked` only moves forward, the send cursor never drops behind
    /// it) or a negotiated resume point (`rewind == true`: both rewind
    /// to `upto` — anything past it may be lost). Returns whether the
    /// stream is complete afterwards.
    ///
    /// # Errors
    ///
    /// [`MigError::Protocol`] when `upto` lies beyond the stream end
    /// (the progress is untouched).
    fn advance(&mut self, upto: u32, rewind: bool) -> Result<bool, MigError> {
        if upto > self.n_chunks() {
            return Err(MigError::Protocol("ack/resume beyond stream end"));
        }
        if rewind {
            self.acked = upto;
            self.next_to_send = upto;
        } else {
            self.acked = self.acked.max(upto);
            self.next_to_send = self.next_to_send.max(self.acked);
        }
        Ok(self.complete())
    }
}

/// The typed per-migration sender state machine, replacing the ad-hoc
/// `sent` / `stored` / `awaiting_resume` flags the Migration Enclave
/// used to keep per outgoing migration.
///
/// ```text
///            dispatch_single_shot           on_stored
///   Idle ───────────────────────► AwaitingReceipt ─────► Stored
///    │ │                                                   ▲
///    │ │ dispatch_resume            on_resume_point        │ on_stored
///    │ └──────────────► AwaitingResume ──────┐             │
///    │ dispatch_announce        ▲            ▼   on_ack    │
///    └──────────────────────► Streaming ──────────► Complete
///          (reset_channel / on_delta_nack rewind to Idle;
///           on_delivered removes the whole migration)
/// ```
///
/// Events that do not apply in the current state return
/// [`MigError::InvalidTransition`] and leave the state untouched.
#[derive(Debug)]
pub enum SenderFsm {
    /// Nothing is on the wire towards the current destination: a fresh
    /// request, a restored checkpoint, or a post-`RETRY` rewind. A
    /// retained [`StreamProgress`] means an interrupted stream whose
    /// resume point must be renegotiated before chunks flow again.
    Idle {
        /// Progress of a previously announced stream, if any.
        stream: Option<StreamProgress>,
    },
    /// The single-shot `Transfer` frame is on the wire, unconfirmed.
    AwaitingReceipt,
    /// A `ResumeRequest` is outstanding: the stream gets no chunks until
    /// the destination names the resume point.
    AwaitingResume {
        /// The interrupted stream's progress.
        stream: StreamProgress,
    },
    /// The announced stream is live: it gets chunks from the free slots
    /// of the shared link window.
    Streaming {
        /// The live stream's progress.
        stream: StreamProgress,
    },
    /// Every chunk is cumulatively acknowledged — the payload is fully
    /// at the destination, awaiting its `Stored` / `Delivered`.
    Complete {
        /// The finished stream's progress.
        stream: StreamProgress,
    },
    /// The destination confirmed it parked the payload (`Stored`); the
    /// retained copy awaits `Delivered`.
    Stored {
        /// The closed stream's progress (`None` for a single-shot
        /// transfer).
        stream: Option<StreamProgress>,
    },
}

impl SenderFsm {
    /// The state's name (diagnostics and [`MigError::InvalidTransition`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SenderFsm::Idle { .. } => "Idle",
            SenderFsm::AwaitingReceipt => "AwaitingReceipt",
            SenderFsm::AwaitingResume { .. } => "AwaitingResume",
            SenderFsm::Streaming { .. } => "Streaming",
            SenderFsm::Complete { .. } => "Complete",
            SenderFsm::Stored { .. } => "Stored",
        }
    }

    fn invalid(&self, event: &'static str) -> MigError {
        MigError::InvalidTransition {
            state: self.name(),
            event,
        }
    }

    /// Puts the paper's single-shot `Transfer` on the wire.
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] outside `Idle` (or when a stream
    /// is retained — an interrupted stream must resume, not restart).
    pub fn dispatch_single_shot(&mut self) -> Result<(), MigError> {
        match self {
            SenderFsm::Idle { stream: None } => {
                *self = SenderFsm::AwaitingReceipt;
                Ok(())
            }
            SenderFsm::Idle { stream: Some(_) }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::AwaitingResume { .. }
            | SenderFsm::Streaming { .. }
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. } => Err(self.invalid("dispatch_single_shot")),
        }
    }

    /// Sends a `ResumeRequest` for the retained stream, returning its
    /// nonce. Anything this side believed in flight died with the old
    /// channel; the destination's `Resume` names the true point.
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] unless `Idle` with a retained
    /// stream.
    pub fn dispatch_resume(&mut self) -> Result<TransferNonce, MigError> {
        match std::mem::replace(self, SenderFsm::Idle { stream: None }) {
            SenderFsm::Idle {
                stream: Some(mut stream),
            } => {
                stream.next_to_send = stream.acked;
                let nonce = stream.nonce;
                *self = SenderFsm::AwaitingResume { stream };
                Ok(nonce)
            }
            state @ (SenderFsm::Idle { stream: None }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::AwaitingResume { .. }
            | SenderFsm::Streaming { .. }
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. }) => {
                *self = state;
                Err(self.invalid("dispatch_resume"))
            }
        }
    }

    /// Announces a fresh chunk/delta stream.
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] unless `Idle` with no retained
    /// stream.
    pub fn dispatch_announce(&mut self, stream: StreamProgress) -> Result<(), MigError> {
        match self {
            SenderFsm::Idle { stream: None } => {
                *self = SenderFsm::Streaming { stream };
                Ok(())
            }
            SenderFsm::Idle { stream: Some(_) }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::AwaitingResume { .. }
            | SenderFsm::Streaming { .. }
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. } => Err(self.invalid("dispatch_announce")),
        }
    }

    /// A cumulative `ChunkAck` up to `upto` arrived.
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] in states without a sent stream;
    /// [`MigError::Protocol`] on an ack beyond the stream end.
    pub fn on_ack(&mut self, upto: u32) -> Result<(), MigError> {
        // `StreamProgress::advance` validates before mutating, so on
        // error each arm restores its original variant verbatim.
        match std::mem::replace(self, SenderFsm::Idle { stream: None }) {
            SenderFsm::Streaming { mut stream } => match stream.advance(upto, false) {
                Ok(true) => {
                    *self = SenderFsm::Complete { stream };
                    Ok(())
                }
                Ok(false) => {
                    *self = SenderFsm::Streaming { stream };
                    Ok(())
                }
                Err(e) => {
                    *self = SenderFsm::Streaming { stream };
                    Err(e)
                }
            },
            // An ack racing a resume renegotiation only advances the
            // bookkeeping; the stream stays gated until the destination
            // names the resume point.
            SenderFsm::AwaitingResume { mut stream } => match stream.advance(upto, false) {
                Ok(true) => {
                    *self = SenderFsm::Complete { stream };
                    Ok(())
                }
                Ok(false) => {
                    *self = SenderFsm::AwaitingResume { stream };
                    Ok(())
                }
                Err(e) => {
                    *self = SenderFsm::AwaitingResume { stream };
                    Err(e)
                }
            },
            // Duplicate final acks are harmless.
            SenderFsm::Complete { mut stream } => {
                let result = stream.advance(upto, false).map(|_| ());
                *self = SenderFsm::Complete { stream };
                result
            }
            SenderFsm::Stored {
                stream: Some(stream),
            } => {
                *self = SenderFsm::Stored {
                    stream: Some(stream),
                };
                Ok(())
            }
            state @ (SenderFsm::Idle { .. }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::Stored { stream: None }) => {
                *self = state;
                Err(self.invalid("on_ack"))
            }
        }
    }

    /// The destination named the resume point: rewind to `upto` and
    /// stream from there (`upto == 0` restarts the stream; the caller
    /// re-announces).
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] unless streaming or awaiting the
    /// resume point; [`MigError::Protocol`] beyond the stream end.
    pub fn on_resume_point(&mut self, upto: u32) -> Result<(), MigError> {
        // Both gated states resolve to Streaming (or Complete) at the
        // negotiated point; a rejected point restores whichever state
        // the machine was in (`advance` is untouched-on-error).
        match std::mem::replace(self, SenderFsm::Idle { stream: None }) {
            SenderFsm::Streaming { mut stream } => match stream.advance(upto, true) {
                Ok(complete) => {
                    *self = if complete {
                        SenderFsm::Complete { stream }
                    } else {
                        SenderFsm::Streaming { stream }
                    };
                    Ok(())
                }
                Err(e) => {
                    *self = SenderFsm::Streaming { stream };
                    Err(e)
                }
            },
            SenderFsm::AwaitingResume { mut stream } => match stream.advance(upto, true) {
                Ok(complete) => {
                    *self = if complete {
                        SenderFsm::Complete { stream }
                    } else {
                        SenderFsm::Streaming { stream }
                    };
                    Ok(())
                }
                Err(e) => {
                    *self = SenderFsm::AwaitingResume { stream };
                    Err(e)
                }
            },
            state @ (SenderFsm::Idle { .. }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. }) => {
                *self = state;
                Err(self.invalid("on_resume_point"))
            }
        }
    }

    /// The destination confirmed it parked the payload (`Stored`).
    /// Returns the generation of the closed stream, if any — the caller
    /// records it as the delta base for the next repeat migration.
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] when nothing was dispatched.
    pub fn on_stored(&mut self) -> Result<Option<u64>, MigError> {
        match std::mem::replace(self, SenderFsm::Idle { stream: None }) {
            SenderFsm::AwaitingReceipt => {
                *self = SenderFsm::Stored { stream: None };
                Ok(None)
            }
            SenderFsm::Streaming { mut stream }
            | SenderFsm::AwaitingResume { mut stream }
            | SenderFsm::Complete { mut stream } => {
                // A resume renegotiation found the payload fully
                // received: close out the stream's accounting.
                let n = stream.n_chunks();
                stream.acked = n;
                stream.next_to_send = n;
                let generation = stream.generation;
                *self = SenderFsm::Stored {
                    stream: Some(stream),
                };
                Ok(Some(generation))
            }
            // Idempotent: the destination answers resumed transfers with
            // Stored as often as asked.
            SenderFsm::Stored { stream } => {
                let generation = stream.as_ref().map(|s| s.generation);
                *self = SenderFsm::Stored { stream };
                Ok(generation)
            }
            state @ SenderFsm::Idle { .. } => {
                *self = state;
                Err(self.invalid("on_stored"))
            }
        }
    }

    /// The destination cannot apply the announced delta (no base):
    /// drop the stream so dispatch restarts the transfer in full.
    ///
    /// # Errors
    ///
    /// [`MigError::InvalidTransition`] without a sent stream.
    pub fn on_delta_nack(&mut self) -> Result<(), MigError> {
        match self {
            SenderFsm::Streaming { .. }
            | SenderFsm::AwaitingResume { .. }
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { stream: Some(_) } => {
                *self = SenderFsm::Idle { stream: None };
                Ok(())
            }
            SenderFsm::Idle { .. }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::Stored { stream: None } => Err(self.invalid("on_delta_nack")),
        }
    }

    /// The channel to the destination died (`RETRY` reconnect or a
    /// restored checkpoint): everything in flight is lost. Rewinds to
    /// `Idle`, keeping the stream progress (sending restarts from the
    /// last cumulative ack).
    pub fn reset_channel(&mut self) {
        let stream = match std::mem::replace(self, SenderFsm::Idle { stream: None }) {
            SenderFsm::Idle { stream } | SenderFsm::Stored { stream } => stream,
            SenderFsm::AwaitingReceipt => None,
            SenderFsm::Streaming { stream }
            | SenderFsm::AwaitingResume { stream }
            | SenderFsm::Complete { stream } => Some(stream),
        };
        let stream = stream.map(|mut s| {
            s.next_to_send = s.acked;
            s
        });
        *self = SenderFsm::Idle { stream };
    }

    /// The stream's progress in any state that carries one.
    #[must_use]
    pub fn stream(&self) -> Option<&StreamProgress> {
        match self {
            SenderFsm::Idle { stream } | SenderFsm::Stored { stream } => stream.as_ref(),
            SenderFsm::AwaitingReceipt => None,
            SenderFsm::AwaitingResume { stream }
            | SenderFsm::Streaming { stream }
            | SenderFsm::Complete { stream } => Some(stream),
        }
    }

    /// The stream's progress in the states where it is on the wire
    /// (everything but `Idle`).
    #[must_use]
    pub fn sent_stream(&self) -> Option<&StreamProgress> {
        match self {
            SenderFsm::Idle { .. } | SenderFsm::AwaitingReceipt => None,
            SenderFsm::Stored { stream } => stream.as_ref(),
            SenderFsm::AwaitingResume { stream }
            | SenderFsm::Streaming { stream }
            | SenderFsm::Complete { stream } => Some(stream),
        }
    }

    /// The stream, when it may be granted chunks right now.
    #[must_use]
    pub fn sendable_stream(&self) -> Option<&StreamProgress> {
        match self {
            SenderFsm::Streaming { stream } => Some(stream),
            SenderFsm::Idle { .. }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::AwaitingResume { .. }
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. } => None,
        }
    }

    fn sendable_stream_mut(&mut self) -> Option<&mut StreamProgress> {
        match self {
            SenderFsm::Streaming { stream } => Some(stream),
            SenderFsm::Idle { .. }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::AwaitingResume { .. }
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. } => None,
        }
    }

    /// Whether anything is on the wire (not `Idle`).
    #[must_use]
    pub fn is_sent(&self) -> bool {
        !matches!(self, SenderFsm::Idle { .. })
    }

    /// An announced stream the destination has not fully acknowledged
    /// yet (the occupancy counted against the stream cap). A resumed
    /// stream that was already fully acked before the crash does not
    /// occupy a slot — its renegotiation resolves to `Stored`.
    #[must_use]
    pub fn stream_active(&self) -> bool {
        match self {
            SenderFsm::Streaming { stream } | SenderFsm::AwaitingResume { stream } => {
                !stream.complete()
            }
            SenderFsm::Idle { .. }
            | SenderFsm::AwaitingReceipt
            | SenderFsm::Complete { .. }
            | SenderFsm::Stored { .. } => false,
        }
    }

    /// A `ResumeRequest` is outstanding for this stream.
    #[must_use]
    pub fn is_awaiting_resume(&self) -> bool {
        matches!(self, SenderFsm::AwaitingResume { .. })
    }
}

/// One retained outgoing migration: the Table I payload, the bulk
/// state, and the [`SenderFsm`] tracking what is on the wire.
pub(crate) struct OutgoingMigration {
    pub(crate) destination: MachineId,
    pub(crate) data: MigrationData,
    /// Bulk state accompanying the Table I payload (possibly empty).
    /// Shared with the chunk stream and the generation cache — never
    /// cloned on the streaming path.
    pub(crate) state: Arc<[u8]>,
    pub(crate) fsm: SenderFsm,
}

impl OutgoingMigration {
    pub(crate) fn n_chunks(&self) -> u32 {
        self.fsm.stream().map_or(0, StreamProgress::n_chunks)
    }
}

/// Shares `budget` free slots of a link's window among its sendable
/// streams, given as `(stream, chunks in flight, chunks unsent)`. Each
/// slot goes to the stream with the fewest chunks in flight that still
/// has a chunk to send, ties to the lowest MRENCLAVE: streams interleave,
/// and no slot stays idle while any stream could use it. Returns one
/// stream per granted slot, in emission order.
fn share_window(budget: u32, mut streams: Vec<(MrEnclave, u32, u32)>) -> Vec<MrEnclave> {
    let mut grants = Vec::new();
    for _ in 0..budget {
        let Some((mr, in_flight, unsent)) = streams
            .iter_mut()
            .filter(|(_, _, unsent)| *unsent > 0)
            .min_by_key(|(mr, in_flight, _)| (*in_flight, mr.0))
        else {
            break;
        };
        *in_flight += 1;
        *unsent -= 1;
        grants.push(*mr);
    }
    grants
}

/// The send side of an announced stream: the chunk cache, the delta
/// manifest when the stream ships one, and the page-digest tree of the
/// generation the stream installs (cached as the next delta base once
/// the destination holds it).
pub(crate) struct OutStream {
    pub(crate) chunks: ChunkStream,
    manifest: Option<DeltaManifest>,
    digests: PageDigests,
}

impl OutStream {
    /// A full stream of `state`: hashing its chunks yields the state's
    /// page leaves.
    fn full(nonce: TransferNonce, chunk_size: u32, state: Arc<[u8]>) -> Result<Self, MigError> {
        let chunks = ChunkStream::new(nonce, chunk_size, state);
        let digests = PageDigests::from_leaves(chunks.total_len(), chunks.leaves().to_vec())?;
        Ok(OutStream {
            chunks,
            manifest: None,
            digests,
        })
    }

    /// A delta stream of the `dirty` pages of a `new_len`-byte state,
    /// packed in `payload`, against the cached `base`: the stream hashes
    /// the dirty pages, and the new tree is the base's with their leaves.
    #[allow(clippy::too_many_arguments)]
    fn delta(
        nonce: TransferNonce,
        chunk_size: u32,
        base: &DigestedState,
        base_generation: u64,
        generation: u64,
        new_len: u64,
        dirty: Vec<u32>,
        payload: Vec<u8>,
    ) -> Result<Self, MigError> {
        let chunks = ChunkStream::new(nonce, chunk_size, payload);
        let digests = base.digests().patch(new_len, &dirty, chunks.leaves())?;
        let manifest =
            DeltaManifest::new(base_generation, generation, base.digests(), &digests, dirty);
        Ok(OutStream {
            chunks,
            manifest: Some(manifest),
            digests,
        })
    }

    /// The stream's announcement: `ChunkStart`, or `DeltaStart` for a
    /// delta.
    fn start_msg(&self, mr_enclave: MrEnclave, generation: u64, data: MigrationData) -> MeToMe {
        let chunks = &self.chunks;
        match &self.manifest {
            None => MeToMe::ChunkStart {
                mr_enclave,
                nonce: chunks.nonce(),
                generation,
                total_len: chunks.total_len(),
                chunk_size: chunks.chunk_size(),
                state_digest: chunks.digest(),
                data,
            },
            Some(manifest) => MeToMe::DeltaStart {
                mr_enclave,
                nonce: chunks.nonce(),
                chunk_size: chunks.chunk_size(),
                payload_digest: chunks.digest(),
                manifest: manifest.clone(),
                data,
            },
        }
    }
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------

/// How the destination stages the arriving payload.
enum Staging {
    /// Full stream: the assembler's verified buffer *is* the state, and
    /// its chunks' leaves are the state's page leaves.
    Full,
    /// Delta stream whose base was retained at announce time (matched
    /// by generation, length and root): the base is staged up front and
    /// dirty pages are overlaid as their payload bytes verify.
    StagedDelta(StagedApply),
    /// Delta stream whose base was missing at announce: assembled
    /// without staging and staged onto the base after completion;
    /// NACKed when the base is still missing then.
    DeferredDelta(DeltaManifest),
}

/// What [`ReceiverFsm::release`] produced.
// MigrationData carries the Table I fixed arrays inline (1.3 KiB); the
// value is consumed immediately by the release path, so boxing would
// only add an allocation.
#[allow(clippy::large_enum_variant)]
pub enum ReceiverRelease {
    /// The digests checked out: the reconstructed state (and the Table I
    /// payload that travelled with the announcement) is released for
    /// parking/forwarding.
    Released {
        /// The Table I control payload.
        data: MigrationData,
        /// The verified, reconstructed bulk state with its page-digest
        /// tree (from the chunk leaves, or the delta's merged leaves).
        state: DigestedState,
    },
    /// The stream is a delta whose base generation this enclave does not
    /// hold: the caller NACKs so the source restarts as a full stream.
    BaseMissing,
}

/// The typed per-nonce receiver state machine: verifies the chunk HMAC
/// chain strictly in order and stages the verified prefix.
///
/// Lifecycle: constructed by an announcement
/// ([`ReceiverFsm::start_full`] / [`ReceiverFsm::start_delta`]), driven
/// by [`ReceiverFsm::on_chunk`] until [`ReceiverFsm::is_complete`], then
/// consumed by [`ReceiverFsm::release`] — which enforces the release
/// rules: chain and stream digest before any release, manifest
/// validated before any page is applied, a delta's page-digest root
/// checked before it is released, and any tamper evidence quarantines
/// the stream (the partial state is dropped; a resume restarts it from
/// chunk 0).
///
/// The expensive tail work is done as chunks arrive — page hashing, the
/// running stream digest and (for deltas) the staged base overlay — so
/// `release` after the final chunk only finalizes.
pub struct ReceiverFsm {
    source: MachineId,
    mr_enclave: MrEnclave,
    data: MigrationData,
    /// State generation the stream installs (for a delta, the
    /// manifest's `new_generation`).
    generation: u64,
    assembler: ChunkAssembler,
    staging: Staging,
}

impl std::fmt::Debug for ReceiverFsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReceiverFsm")
            .field("source", &self.source)
            .field("next_idx", &self.assembler.next_idx())
            .field("n_chunks", &self.assembler.n_chunks())
            .field(
                "staging",
                &match &self.staging {
                    Staging::Full => "full",
                    Staging::StagedDelta(_) => "staged-delta",
                    Staging::DeferredDelta(_) => "deferred-delta",
                },
            )
            .finish_non_exhaustive()
    }
}

/// Rejects an announced chunk size that is not a whole number of pages:
/// chunk leaves must be page leaves.
fn whole_pages(chunk_size: u32) -> Result<(), MigError> {
    if chunk_size == 0 || !chunk_size.is_multiple_of(delta::PAGE_SIZE) {
        return Err(MigError::Transfer(
            "chunk size is not a whole number of pages",
        ));
    }
    Ok(())
}

impl ReceiverFsm {
    /// Opens a receiver for an announced full-state stream.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on inconsistent announced geometry or a
    /// chunk size that is not a whole number of pages.
    #[allow(clippy::too_many_arguments)]
    pub fn start_full(
        source: MachineId,
        mr_enclave: MrEnclave,
        data: MigrationData,
        nonce: TransferNonce,
        generation: u64,
        total_len: u64,
        chunk_size: u32,
        state_digest: [u8; 32],
    ) -> Result<Self, MigError> {
        whole_pages(chunk_size)?;
        let assembler = ChunkAssembler::new(nonce, chunk_size, total_len, state_digest)?;
        Ok(ReceiverFsm {
            source,
            mr_enclave,
            data,
            generation,
            assembler,
            staging: Staging::Full,
        })
    }

    /// Opens a receiver for an announced dirty-page delta stream.
    ///
    /// `base` is the retained candidate for the manifest's base
    /// generation (already matched by the caller); a base whose length
    /// and root match the manifest makes the stream stage eagerly,
    /// otherwise it defers the apply to completion — a base that is
    /// missing or does not match is *not* an error here: the NACK
    /// happens after the last chunk, once the stream has drained.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on inconsistent announced geometry or a
    /// chunk size that is not a whole number of pages.
    #[allow(clippy::too_many_arguments)]
    pub fn start_delta(
        source: MachineId,
        mr_enclave: MrEnclave,
        data: MigrationData,
        nonce: TransferNonce,
        chunk_size: u32,
        payload_digest: [u8; 32],
        manifest: DeltaManifest,
        base: Option<&DigestedState>,
    ) -> Result<Self, MigError> {
        whole_pages(chunk_size)?;
        let assembler =
            ChunkAssembler::new(nonce, chunk_size, manifest.payload_len(), payload_digest)?;
        let generation = manifest.new_generation;
        let staging = match base.and_then(|b| StagedApply::new(b, &manifest).ok()) {
            Some(staged) => Staging::StagedDelta(staged),
            None => Staging::DeferredDelta(manifest),
        };
        Ok(ReceiverFsm {
            source,
            mr_enclave,
            data,
            generation,
            assembler,
            staging,
        })
    }

    /// Rebuilds a receiver from persisted parts (ME restore). The
    /// staging is reconstructed deterministically: the assembler's
    /// verified prefix is re-absorbed onto the base; when the base did
    /// not survive the restart the stream falls back to the deferred
    /// path, exactly like a base evicted before announce.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn restore(
        source: MachineId,
        mr_enclave: MrEnclave,
        data: MigrationData,
        generation: u64,
        assembler: ChunkAssembler,
        manifest: Option<DeltaManifest>,
        base: Option<&DigestedState>,
    ) -> Self {
        let staging = match manifest {
            None => Staging::Full,
            Some(manifest) => {
                let staged = base.and_then(|b| {
                    let mut staged = StagedApply::new(b, &manifest).ok()?;
                    staged.absorb(assembler.received()).ok()?;
                    Some(staged)
                });
                match staged {
                    Some(staged) => Staging::StagedDelta(staged),
                    None => Staging::DeferredDelta(manifest),
                }
            }
        };
        ReceiverFsm {
            source,
            mr_enclave,
            data,
            generation,
            assembler,
            staging,
        }
    }

    /// The source machine the stream arrives from.
    #[must_use]
    pub fn source(&self) -> MachineId {
        self.source
    }

    /// The migrating enclave's measurement.
    #[must_use]
    pub fn mr_enclave(&self) -> MrEnclave {
        self.mr_enclave
    }

    /// The Table I control payload that travelled with the announcement.
    #[must_use]
    pub fn data(&self) -> &MigrationData {
        &self.data
    }

    /// The state generation the stream installs.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Index of the next chunk the receiver will accept — equivalently
    /// the cumulative acknowledgement.
    #[must_use]
    pub fn next_idx(&self) -> u32 {
        self.assembler.next_idx()
    }

    /// Whether every chunk has been verified.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.assembler.is_complete()
    }

    /// The delta manifest, for either delta mode (persistence).
    #[must_use]
    pub fn delta_manifest(&self) -> Option<&DeltaManifest> {
        match &self.staging {
            Staging::Full => None,
            Staging::StagedDelta(staged) => Some(staged.manifest()),
            Staging::DeferredDelta(manifest) => Some(manifest),
        }
    }

    /// The manifest whose base [`ReceiverFsm::release`] still needs —
    /// only a deferred delta; a staged one captured the base at
    /// announce time.
    #[must_use]
    pub fn needs_base(&self) -> Option<&DeltaManifest> {
        match &self.staging {
            Staging::DeferredDelta(manifest) => Some(manifest),
            Staging::Full | Staging::StagedDelta(_) => None,
        }
    }

    /// Whether the stream is speculatively staged onto a retained base.
    #[must_use]
    pub fn is_staged(&self) -> bool {
        matches!(self.staging, Staging::StagedDelta(_))
    }

    /// Serialized assembler state (persistence).
    #[must_use]
    pub fn assembler_bytes(&self) -> Vec<u8> {
        self.assembler.to_bytes()
    }

    /// Verifies and stages chunk `idx`.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on an out-of-order index (loss artifact —
    /// the verified prefix is kept), a wrong payload length, or a
    /// chain-MAC mismatch (tamper evidence — the caller quarantines the
    /// stream).
    pub fn on_chunk(&mut self, idx: u32, payload: &[u8], mac: &ChunkMac) -> Result<(), MigError> {
        self.assembler.accept(idx, payload, mac)?;
        if let Staging::StagedDelta(staged) = &mut self.staging {
            staged.absorb(payload)?;
        }
        Ok(())
    }

    /// Consumes the completed stream, enforcing the release rules: the
    /// stream digest before any release, and for a delta the merged
    /// page-digest root; a deferred delta is staged onto `base`
    /// (validate-before-apply) or answered
    /// [`ReceiverRelease::BaseMissing`] when `base` is `None`.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on an incomplete stream or any digest
    /// mismatch — the partial state is dropped with the consumed
    /// receiver (quarantine).
    pub fn release(self, base: Option<&DigestedState>) -> Result<ReceiverRelease, MigError> {
        let ReceiverFsm {
            data,
            assembler,
            staging,
            ..
        } = self;
        // The chain's stream digest gates every release; the chunk
        // leaves it verified are the state's (full) or the dirty pages'
        // (delta) page leaves.
        let (payload, leaves) = assembler.finish()?;
        let state = match staging {
            Staging::Full => {
                let digests = PageDigests::from_leaves(payload.len() as u64, leaves)?;
                DigestedState::from_parts(payload, digests)?
            }
            Staging::StagedDelta(staged) => staged.finish(&leaves)?,
            Staging::DeferredDelta(manifest) => {
                let Some(base) = base else {
                    return Ok(ReceiverRelease::BaseMissing);
                };
                let mut staged = StagedApply::new(base, &manifest)?;
                staged.absorb(&payload)?;
                staged.finish(&leaves)?
            }
        };
        Ok(ReceiverRelease::Released { data, state })
    }
}

// ---------------------------------------------------------------------
// Session-layer opcode handling
// ---------------------------------------------------------------------

impl MigrationEnclave {
    pub(super) fn op_lib_msg(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let mr = MrEnclave(r.array()?);
        let ciphertext = r.bytes()?;
        r.finish()?;

        let channel = self
            .local_sessions
            .get_mut(&mr)
            .ok_or(MigError::Protocol("no local session for enclave"))?;
        // The state is opened straight into the `Arc` the migration keeps.
        let (head, body) = channel.open_split(ciphertext, LibToMe::REQUEST_HEAD_LEN)?;
        let msg = LibToMe::from_split(&head, body)?;
        let action = match msg {
            LibToMe::MigrateRequest {
                destination,
                data,
                state,
            } => {
                self.out_streams.remove(&mr);
                self.outgoing.insert(
                    mr,
                    OutgoingMigration {
                        destination,
                        data,
                        state,
                        fsm: SenderFsm::Idle { stream: None },
                    },
                );
                self.dispatch_outgoing(env, destination)?
            }
            LibToMe::Done => {
                // Destination side: the library confirmed installation; the
                // parked copy can finally be dropped.
                let source = self
                    .awaiting_done
                    .remove(&mr)
                    .ok_or(MigError::Protocol("unexpected DONE"))?;
                self.pending_incoming.remove(&mr);
                let ack = self.seal_to_source(source, &MeToMe::Delivered { mr_enclave: mr })?;
                MeAction::AckSource { source, ack }
            }
        };
        Ok(action.to_bytes())
    }

    /// Seals `msg` on the channel from `source` (destination side).
    fn seal_to_source(&mut self, source: MachineId, msg: &MeToMe) -> Result<Vec<u8>, MigError> {
        let channel = self
            .channels_in
            .get_mut(&source)
            .ok_or(MigError::ChannelMissing {
                peer: ChannelPeer::Source,
            })?;
        Ok(channel.seal(&msg.to_bytes()))
    }

    /// Chunks in flight (sent, not yet cumulatively acknowledged) across
    /// every stream towards `destination` — the consumed share of the
    /// link's shared window budget.
    fn in_flight_chunks(&self, destination: MachineId) -> u32 {
        self.outgoing
            .values()
            .filter(|mig| mig.destination == destination)
            .filter_map(|mig| mig.fsm.sent_stream())
            .map(|s| s.next_to_send.saturating_sub(s.acked))
            .sum()
    }

    /// Announced-and-incomplete streams towards `destination` (the
    /// occupancy counted against [`MAX_STREAMS`]).
    fn active_stream_count(&self, destination: MachineId) -> u32 {
        self.outgoing
            .values()
            .filter(|mig| mig.destination == destination && mig.fsm.stream_active())
            .count() as u32
    }

    /// Grants the free slots of the link's window towards `destination`
    /// ([`share_window`]) and moves each granted stream's send cursor
    /// past its grants. Returns the granted `(stream, chunk index)`
    /// pairs in emission order.
    fn grant_chunks(&mut self, destination: MachineId) -> Result<Vec<(MrEnclave, u32)>, MigError> {
        let budget = self
            .config()?
            .transfer
            .window
            .saturating_sub(self.in_flight_chunks(destination));
        let ready: Vec<(MrEnclave, u32, u32)> = self
            .outgoing
            .iter()
            .filter(|(_, mig)| mig.destination == destination)
            .filter_map(|(mr, mig)| mig.fsm.sendable_stream().map(|s| (*mr, s)))
            .map(|(mr, s)| {
                let in_flight = s.next_to_send.saturating_sub(s.acked);
                (mr, in_flight, s.n_chunks().saturating_sub(s.next_to_send))
            })
            .collect();
        let grants = share_window(budget, ready);
        let mut chunks = Vec::with_capacity(grants.len());
        for mr in grants {
            // Rebuilds the transient chunk cache after a restore.
            self.ensure_out_stream(mr)?;
            let stream = self
                .outgoing
                .get_mut(&mr)
                .and_then(|mig| mig.fsm.sendable_stream_mut())
                .ok_or(MigError::SessionInvariant("granted stream not sendable"))?;
            chunks.push((mr, stream.next_to_send));
            stream.next_to_send += 1;
        }
        self.telemetry.chunks_sealed += chunks.len() as u64;
        Ok(chunks)
    }

    /// Seals a send burst towards `destination` — `leads` (single-shot
    /// transfers, resume requests, announcements) in order, then the
    /// granted `chunks` — one `TRANSFER` frame per message, each
    /// encoded straight into its frame ([`wire::seal_cell`]).
    fn seal_burst(
        &mut self,
        destination: MachineId,
        leads: &[MeToMe],
        chunks: &[(MrEnclave, u32)],
    ) -> Result<Vec<Vec<u8>>, MigError> {
        let mut cells: Vec<Cell<'_>> = leads.iter().map(Cell::Msg).collect();
        for (mr, idx) in chunks {
            let out = self
                .out_streams
                .get(mr)
                .ok_or(MigError::SessionInvariant("transient chunk cache missing"))?;
            cells.push(Cell::Chunk(&out.chunks, *idx));
        }
        let channel = self
            .channels_out
            .get_mut(&destination)
            .ok_or(MigError::ChannelMissing {
                peer: ChannelPeer::Destination,
            })?;
        cells
            .iter()
            .map(|cell| wire::seal_cell(channel, cell))
            .collect()
    }

    /// Builds the announcement for a fresh stream of `mr` (delta against
    /// the cached base when profitable, full otherwise), drives the
    /// sender FSM into `Streaming`, and returns the unsealed start
    /// message.
    fn announce_stream(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        mr: MrEnclave,
        chunk_size: u32,
    ) -> Result<MeToMe, MigError> {
        let mut nonce: TransferNonce = [0; 16];
        env.random_bytes(&mut nonce);
        let mig = self
            .outgoing
            .get(&mr)
            .ok_or(MigError::Protocol("no retained migration data"))?;
        let cached = self.cache.get(&mr);
        let generation = cached.map_or(0, |c| c.generation + 1);
        // When a previous generation of this enclave's state is cached (a
        // repeat migration), diff against it and ship only the dirty
        // pages — unless the delta exceeds `MAX_DELTA_PERCENT` of the
        // full state, in which case the full stream is cheaper than a
        // delta that rewrites most pages anyway.
        let delta = cached.and_then(|base| {
            let (dirty, payload) = delta::diff(base.state.bytes(), &mig.state);
            let within_budget = (payload.len() as u64).saturating_mul(100)
                <= (mig.state.len() as u64).saturating_mul(u64::from(MAX_DELTA_PERCENT));
            within_budget.then_some((base, dirty, payload))
        });
        let (out, delta_base) = match delta {
            Some((base, dirty, payload)) => (
                OutStream::delta(
                    nonce,
                    chunk_size,
                    &base.state,
                    base.generation,
                    generation,
                    mig.state.len() as u64,
                    dirty,
                    payload,
                )?,
                Some(base.generation),
            ),
            None => (
                OutStream::full(nonce, chunk_size, Arc::clone(&mig.state))?,
                None,
            ),
        };
        let start_msg = out.start_msg(mr, generation, mig.data.clone());
        if cached.is_some() {
            self.cache.touch(&mr);
        }
        let mig = self
            .outgoing
            .get_mut(&mr)
            .ok_or(MigError::SessionInvariant("retained migration vanished"))?;
        mig.fsm.dispatch_announce(StreamProgress::new(
            nonce,
            chunk_size,
            out.chunks.total_len(),
            generation,
            delta_base,
        ))?;
        self.out_streams.insert(mr, out);
        self.telemetry.announcements += 1;
        Ok(start_msg)
    }

    /// Sends or queues outgoing data for `destination`: with an open
    /// channel, the unsent migrations go out at once
    /// ([`Self::send_unsent`]); otherwise the RA handshake starts (or
    /// is already in flight) and the data stays queued.
    pub(super) fn dispatch_outgoing(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        destination: MachineId,
    ) -> Result<MeAction, MigError> {
        if !self.channels_out.contains_key(&destination) {
            if self.ra_out_pending.contains_key(&destination) {
                // Handshake already in flight; data stays queued.
                return Ok(MeAction::None);
            }
            let (session, hello) = crate::remote_attest::RaInitiator::start(env)?;
            self.ra_out_pending.insert(destination, session);
            return Ok(MeAction::ConnectRemote {
                destination,
                hello: hello.to_bytes(),
            });
        }
        let frames = self.send_unsent(env, destination)?;
        Ok(if frames.is_empty() {
            MeAction::None
        } else {
            MeAction::SendRemote {
                destination,
                frames,
            }
        })
    }

    /// Dispatches every unsent migration towards `destination` over its
    /// open channel **concurrently** (up to [`MAX_STREAMS`]),
    /// multiplexed on the shared attested channel, and returns the
    /// sealed `TRANSFER` frames:
    /// streams that predate a crash/reconnect send a
    /// [`MeToMe::ResumeRequest`] renegotiating their per-nonce resume
    /// point, fresh large states announce a `ChunkStart`/`DeltaStart`
    /// and get their first chunks from the link window's free slots
    /// ([`share_window`]), and small states (empty ones included) ride the
    /// paper's single-shot [`MeToMe::Transfer`]. Migrations beyond the
    /// stream cap stay queued and drain as streams complete.
    pub(super) fn send_unsent(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        destination: MachineId,
    ) -> Result<Vec<Vec<u8>>, MigError> {
        let transfer_cfg = self.config()?.transfer;
        let mut unsent: Vec<MrEnclave> = self
            .outgoing
            .iter()
            .filter(|(_, mig)| mig.destination == destination && !mig.fsm.is_sent())
            .map(|(mr, _)| *mr)
            .collect();
        unsent.sort_by_key(|mr| mr.0);
        if unsent.is_empty() {
            return Ok(Vec::new());
        }

        let mut slots = MAX_STREAMS.saturating_sub(self.active_stream_count(destination));
        let mut singleshots: Vec<MrEnclave> = Vec::new();
        let mut resumes: Vec<MrEnclave> = Vec::new();
        let mut announces: Vec<MrEnclave> = Vec::new();
        for mr in unsent {
            let mig = self
                .outgoing
                .get(&mr)
                .ok_or(MigError::SessionInvariant("unsent migration vanished"))?;
            if mig.fsm.stream().is_some() {
                if slots > 0 {
                    resumes.push(mr);
                    slots -= 1;
                }
            } else if mig.state.len() <= transfer_cfg.stream_threshold as usize {
                // Small-state fast path: the paper's single-shot transfer
                // (a zero-length payload cannot chunk, so empty state
                // always takes it).
                singleshots.push(mr);
            } else if slots > 0 {
                announces.push(mr);
                slots -= 1;
            }
        }

        // Links are FIFO, so frames arrive in this seal order:
        // single-shot transfers, resume requests, then announcements and
        // their first chunks.
        let mut leads = Vec::with_capacity(singleshots.len() + resumes.len() + announces.len());
        for mr in singleshots {
            let mig = self
                .outgoing
                .get_mut(&mr)
                .ok_or(MigError::SessionInvariant("queued migration vanished"))?;
            mig.fsm.dispatch_single_shot()?;
            self.telemetry.singleshot_transfers += 1;
            leads.push(MeToMe::Transfer {
                mr_enclave: mr,
                data: mig.data.clone(),
                state: Arc::clone(&mig.state),
            });
        }
        for mr in resumes {
            let mig = self
                .outgoing
                .get_mut(&mr)
                .ok_or(MigError::SessionInvariant("queued migration vanished"))?;
            let nonce = mig.fsm.dispatch_resume()?;
            self.telemetry.resume_requests += 1;
            leads.push(MeToMe::ResumeRequest {
                mr_enclave: mr,
                nonce,
            });
        }
        // Chunks ride along only with fresh announcements; otherwise the
        // window refills as acks and resume points arrive
        // (`advance_stream`).
        let chunks = if announces.is_empty() {
            Vec::new()
        } else {
            for mr in announces {
                leads.push(self.announce_stream(env, mr, transfer_cfg.chunk_size)?);
            }
            self.grant_chunks(destination)?
        };
        self.seal_burst(destination, &leads, &chunks)
    }

    /// Rebuilds the transient send side of `mr`'s stream after a
    /// restore: a full stream re-hashes the state; a delta re-diffs it
    /// against the cached base (deterministic: the same dirty pages that
    /// were announced), reusing the base's page digests.
    fn ensure_out_stream(&mut self, mr: MrEnclave) -> Result<(), MigError> {
        if self.out_streams.contains_key(&mr) {
            return Ok(());
        }
        let mig = self
            .outgoing
            .get(&mr)
            .ok_or(MigError::Protocol("no retained migration data"))?;
        let stream = mig
            .fsm
            .stream()
            .ok_or(MigError::Protocol("no stream for migration"))?;
        let out = match stream.delta_base {
            None => OutStream::full(stream.nonce, stream.chunk_size, Arc::clone(&mig.state))?,
            Some(base_generation) => {
                let base = self
                    .cache
                    .get(&mr)
                    .filter(|c| c.generation == base_generation)
                    .ok_or(MigError::BaseEvicted)?;
                let (dirty, payload) = delta::diff(base.state.bytes(), &mig.state);
                if payload.len() as u64 != stream.payload_len {
                    return Err(MigError::Protocol(
                        "delta payload drifted from announcement",
                    ));
                }
                OutStream::delta(
                    stream.nonce,
                    stream.chunk_size,
                    &base.state,
                    base_generation,
                    stream.generation,
                    mig.state.len() as u64,
                    dirty,
                    payload,
                )?
            }
        };
        self.out_streams.insert(mr, out);
        Ok(())
    }

    /// Rebuilds the announcement frame (`ChunkStart` / `DeltaStart`) of
    /// the retained stream for `mr` — used when a resume renegotiation
    /// rewinds to chunk 0.
    fn rebuild_start_msg(&self, mr: MrEnclave) -> Result<MeToMe, MigError> {
        let mig = self
            .outgoing
            .get(&mr)
            .ok_or(MigError::Protocol("no retained migration data"))?;
        let stream = mig
            .fsm
            .stream()
            .ok_or(MigError::Protocol("no stream for migration"))?;
        let out = self
            .out_streams
            .get(&mr)
            .ok_or(MigError::Protocol("chunk cache not rebuilt"))?;
        Ok(out.start_msg(mr, stream.generation, mig.data.clone()))
    }

    /// Records the generation `mr`'s stream installed at the
    /// destination as the next delta base, with the page digests its
    /// stream derived.
    fn cache_shipped(&mut self, mr: MrEnclave, generation: u64) -> Result<(), MigError> {
        self.ensure_out_stream(mr)?;
        let state = Arc::clone(
            &self
                .outgoing
                .get(&mr)
                .ok_or(MigError::SessionInvariant("retained migration vanished"))?
                .state,
        );
        let digests = self
            .out_streams
            .get(&mr)
            .ok_or(MigError::SessionInvariant("transient chunk cache missing"))?
            .digests
            .clone();
        self.cache_insert(mr, generation, DigestedState::from_parts(state, digests)?);
        Ok(())
    }

    pub(super) fn op_retry(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let mr = MrEnclave(r.array()?);
        let destination = MachineId(r.u64()?);
        r.finish()?;

        let outgoing = self
            .outgoing
            .get_mut(&mr)
            .ok_or(MigError::Protocol("no retained migration data"))?;
        outgoing.destination = destination;
        // The failure being retried may be a dead peer channel (e.g. the
        // destination's management VM restarted); drop any cached state
        // towards the destination so a fresh mutual attestation runs.
        // Every migration multiplexed on that channel lost its in-flight
        // frames with it, so rewind them all to Idle: the reconnect
        // renegotiates each stream's resume point per nonce.
        self.channels_out.remove(&destination);
        self.ra_out_pending.remove(&destination);
        for mig in self
            .outgoing
            .values_mut()
            .filter(|mig| mig.destination == destination)
        {
            mig.fsm.reset_channel();
        }
        let action = self.dispatch_outgoing(env, destination)?;
        Ok(action.to_bytes())
    }

    /// Accepts complete incoming migration data: parks it, forwards to a
    /// matching attested enclave if present, or tells the source it is
    /// stored. Returns the encoded transfer-output record. `trace` is
    /// the stream's public trace id (`None` for single-shot transfers,
    /// which have no nonce).
    fn accept_incoming(
        &mut self,
        source: MachineId,
        mr_enclave: MrEnclave,
        data: MigrationData,
        state: Arc<[u8]>,
        final_ack: Option<Vec<u8>>,
        trace: Option<[u8; 8]>,
    ) -> Result<OutRecord, MigError> {
        // Park the data regardless; it is only dropped once the
        // destination library confirms with DONE (crash safety). The
        // Arc is shared with the caller and the generation cache.
        self.pending_incoming
            .insert(mr_enclave, (data.clone(), Arc::clone(&state), source));
        if self.local_sessions.contains_key(&mr_enclave) {
            self.awaiting_done.insert(mr_enclave, source);
            Ok(OutRecord::Forward {
                mr_enclave,
                trace,
                forward: Box::new(MeToLib::IncomingMigration { data, state }),
                final_ack,
            })
        } else {
            let trace = trace.as_ref().map(<[u8; 8]>::as_slice);
            // No matching enclave yet; tell the source the data is
            // stored (it keeps its copy). A chunked transfer's final
            // cumulative ack already means "stored"; reuse it.
            let ack = match final_ack {
                Some(ack) => ack,
                None => self.seal_to_source(source, &MeToMe::Stored { mr_enclave })?,
            };
            let mut w = WireWriter::new();
            w.u8(2); // stored
            w.array(&mr_enclave.0);
            write_opt(&mut w, trace);
            write_opt(&mut w, None);
            write_opt(&mut w, Some(&ack));
            Ok(OutRecord::Encoded(w.finish()))
        }
    }

    /// Encodes a "stream progress" transfer-output record: kind 3 (or
    /// kind 4 for a delta-fallback NACK), the enclave measurement, the
    /// stream's public trace id, no forward, and an optional reply
    /// frame for the source.
    fn stream_progress_kind(
        kind: u8,
        mr_enclave: MrEnclave,
        trace: [u8; 8],
        reply: Option<&[u8]>,
    ) -> OutRecord {
        let mut w = WireWriter::new();
        w.u8(kind);
        w.array(&mr_enclave.0);
        write_opt(&mut w, Some(&trace));
        write_opt(&mut w, None);
        write_opt(&mut w, reply);
        OutRecord::Encoded(w.finish())
    }

    /// Kind-3 stream progress (see [`Self::stream_progress_kind`]).
    fn stream_progress_output(
        mr_enclave: MrEnclave,
        trace: [u8; 8],
        reply: Option<&[u8]>,
    ) -> OutRecord {
        Self::stream_progress_kind(3, mr_enclave, trace, reply)
    }

    /// `TRANSFER`: one enclave transition verifying one sealed message
    /// and handling it, whatever its kind ([`Self::on_message`]).
    ///
    /// Every message carries its own channel sequence number, so a
    /// spliced, replayed, reordered or truncated frame fails
    /// authentication without consuming one, and the frames behind it
    /// fail too until a `RETRY` replaces the channel. Any other
    /// rejection (a chain-MAC mismatch, an unknown nonce, ...) did
    /// consume its sequence number.
    ///
    /// Output: `1` and the message's transfer-output record (see
    /// [`Self::accept_incoming`] and [`Self::stream_progress_kind`]),
    /// written straight into the output — a forward is sealed there, in
    /// place ([`OutRecord`]) — or `0` and the rejection's error.
    pub(super) fn op_transfer(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let source = MachineId(r.u64()?);
        let sealed = r.bytes()?;
        r.finish()?;

        let channel = self
            .channels_in
            .get_mut(&source)
            .ok_or(MigError::ChannelMissing {
                peer: ChannelPeer::Source,
            })?;
        let outcome = channel
            .open(sealed)
            .and_then(|plaintext| self.on_message(env, source, &plaintext));
        match outcome {
            Ok(record) => {
                let mut w = WireWriter::with_capacity(1 + record.encoded_len());
                w.u8(1);
                self.write_record(&mut w, record)?;
                Ok(w.finish())
            }
            Err(e) => {
                let error = SgxError::from(e).to_string();
                let mut w = WireWriter::with_capacity(1 + 4 + error.len());
                w.u8(0).bytes(error.as_bytes());
                Ok(w.finish())
            }
        }
    }

    /// Appends one transfer-output record, sealing a forward in place on
    /// the enclave's attested local channel.
    fn write_record(&mut self, w: &mut WireWriter, record: OutRecord) -> Result<(), MigError> {
        match record {
            OutRecord::Encoded(bytes) => {
                w.as_mut_vec().extend_from_slice(&bytes);
            }
            OutRecord::Forward {
                mr_enclave,
                trace,
                forward,
                final_ack,
            } => {
                let local = self
                    .local_sessions
                    .get_mut(&mr_enclave)
                    .ok_or(MigError::SessionInvariant("local session vanished"))?;
                w.u8(1); // forwarded
                w.array(&mr_enclave.0);
                write_opt(w, trace.as_ref().map(<[u8; 8]>::as_slice));
                write_sealed_opt(w, local, &forward)?;
                write_opt(w, final_ack.as_deref());
            }
        }
        Ok(())
    }

    /// Handles one opened `TRANSFER` message, returning its output
    /// record.
    fn on_message(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        source: MachineId,
        plaintext: &[u8],
    ) -> Result<OutRecord, MigError> {
        if let Some(chunk) = MeToMe::chunk_cell(plaintext)? {
            return self.on_chunk(env, source, chunk);
        }
        match MeToMe::from_bytes(plaintext)? {
            MeToMe::Transfer {
                mr_enclave,
                data,
                state,
            } => self.accept_incoming(source, mr_enclave, data, state, None, None),
            MeToMe::ChunkStart {
                mr_enclave,
                nonce,
                generation,
                total_len,
                chunk_size,
                state_digest,
                data,
            } => {
                // A repeated announcement (stream restarted from 0)
                // replaces any stale partial state for this nonce.
                let fsm = ReceiverFsm::start_full(
                    source,
                    mr_enclave,
                    data,
                    nonce,
                    generation,
                    total_len,
                    chunk_size,
                    state_digest,
                )?;
                self.inbound.insert(nonce, fsm);
                Ok(Self::stream_progress_output(
                    mr_enclave,
                    trace_id(&nonce),
                    None,
                ))
            }
            MeToMe::DeltaStart {
                mr_enclave,
                nonce,
                chunk_size,
                payload_digest,
                manifest,
                data,
            } => {
                // Accept the delta stream even when we do not hold its
                // base generation: the payload is small by construction
                // (the source capped it at a fraction of the full state)
                // and NACKing only *after* the last chunk means the
                // stream has drained by the time the source re-announces
                // it as a full stream: no chunk of the rejected nonce is
                // still in flight towards a receiver that dropped it.
                // A retained base whose root matches is staged *now*,
                // overlapping the restore work with the arriving chunks.
                let base = self
                    .cache
                    .delta_base(&mr_enclave, &manifest)
                    .map(|c| &c.state);
                let fsm = ReceiverFsm::start_delta(
                    source,
                    mr_enclave,
                    data,
                    nonce,
                    chunk_size,
                    payload_digest,
                    manifest,
                    base,
                )?;
                if fsm.is_staged() {
                    self.cache.touch(&mr_enclave);
                }
                self.inbound.insert(nonce, fsm);
                Ok(Self::stream_progress_output(
                    mr_enclave,
                    trace_id(&nonce),
                    None,
                ))
            }
            MeToMe::ResumeRequest { mr_enclave, nonce } => {
                // Three cases: mid-stream partial (resume from next
                // index), already fully received (Stored — the normal
                // retention flow finishes delivery), or nothing known
                // (restart from 0).
                let reply = if let Some(fsm) = self.inbound.get(&nonce) {
                    MeToMe::Resume {
                        nonce,
                        from_idx: fsm.next_idx(),
                    }
                } else if self.pending_incoming.contains_key(&mr_enclave) {
                    MeToMe::Stored { mr_enclave }
                } else {
                    MeToMe::Resume { nonce, from_idx: 0 }
                };
                let ack = self.seal_to_source(source, &reply)?;
                Ok(Self::stream_progress_output(
                    mr_enclave,
                    trace_id(&nonce),
                    Some(&ack),
                ))
            }
            _ => Err(MigError::Protocol("unexpected ME-to-ME message")),
        }
    }

    /// Handles one opened data chunk, borrowed from its message:
    /// verified and copied once, into the stream's state buffer. The
    /// record is the stream's release, or else its cumulative ack.
    fn on_chunk(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        source: MachineId,
        chunk: ChunkCell<'_>,
    ) -> Result<OutRecord, MigError> {
        let nonce = chunk.nonce;
        let fsm = self.inbound.get_mut(&nonce).ok_or(MigError::StaleNonce)?;
        if fsm.source() != source {
            return Err(MigError::Protocol("chunk from wrong source"));
        }
        if let Err(e) = fsm.on_chunk(chunk.idx, chunk.payload, &chunk.mac) {
            // An out-of-order index is a loss artifact of the
            // network: keep the verified prefix so a resume
            // renegotiation continues from it. Anything else —
            // a chain-MAC mismatch (cross-nonce splice, payload
            // tamper) or a wrong length — is evidence of
            // manipulation below the channel: quarantine *this*
            // stream only (drop its partial state; a resume
            // restarts it from chunk 0) and leave every other
            // multiplexed stream untouched. The quarantine is
            // appended to the telemetry ledger so the host can
            // timestamp the edge via `TELEMETRY`.
            if !matches!(e, MigError::Transfer("chunk index out of order")) {
                self.inbound.remove(&nonce);
                self.telemetry.quarantines += 1;
                self.telemetry.quarantined.push(trace_id(&nonce));
            }
            return Err(e);
        }
        env.attribute_transition(trace_id(&nonce));
        self.telemetry.chunks_received += 1;
        if fsm.is_complete() {
            return self.release_stream(source, nonce);
        }
        let (upto, mr_enclave) = (fsm.next_idx(), fsm.mr_enclave());
        let ack = self.seal_to_source(source, &MeToMe::ChunkAck { nonce, upto })?;
        Ok(Self::stream_progress_output(
            mr_enclave,
            trace_id(&nonce),
            Some(&ack),
        ))
    }

    /// Releases the completed inbound stream `nonce`, returning its
    /// output record: the final cumulative ack rides with the release,
    /// or a delta whose base this enclave does not hold is NACKed.
    fn release_stream(
        &mut self,
        source: MachineId,
        nonce: TransferNonce,
    ) -> Result<OutRecord, MigError> {
        let fsm = self
            .inbound
            .remove(&nonce)
            .ok_or(MigError::SessionInvariant("inbound stream vanished"))?;
        let (upto, mr_enclave, generation) = (fsm.next_idx(), fsm.mr_enclave(), fsm.generation());
        // A deferred delta is staged onto the retained base generation
        // here (root-checked before release); the base is
        // content-addressed — generation number AND page-digest root
        // must match our retained copy (generations renumber after a
        // fallback reset, so the number alone is not identity). A staged
        // delta captured its base at announce time; a full payload *is*
        // the state. A delta whose base we do not hold is NACKed *in
        // place of* the final ack — the source restarts as a full stream
        // with no frames left in flight to race the restarted
        // announcement.
        let deferred_base = fsm
            .needs_base()
            .and_then(|manifest| self.cache.delta_base(&mr_enclave, manifest))
            .map(|c| &c.state);
        let used_deferred_base = deferred_base.is_some();
        match fsm.release(deferred_base)? {
            ReceiverRelease::Released { data, state } => {
                if used_deferred_base {
                    self.cache.touch(&mr_enclave);
                }
                // Both ends retain the installed generation, with the
                // page digests its stream yielded, as the next repeat
                // migration's delta base (LRU-bounded; an evicted base
                // later NACKs back to a full stream).
                let bytes = Arc::clone(state.bytes());
                self.cache_insert(mr_enclave, generation, state);
                let ack = self.seal_to_source(source, &MeToMe::ChunkAck { nonce, upto })?;
                self.accept_incoming(
                    source,
                    mr_enclave,
                    data,
                    bytes,
                    Some(ack),
                    Some(trace_id(&nonce)),
                )
            }
            ReceiverRelease::BaseMissing => {
                self.telemetry.delta_fallbacks += 1;
                let nack = self.seal_to_source(source, &MeToMe::DeltaNack { mr_enclave, nonce })?;
                // Kind 4: the host records a delta-fallback edge.
                Ok(Self::stream_progress_kind(
                    4,
                    mr_enclave,
                    trace_id(&nonce),
                    Some(&nack),
                ))
            }
        }
    }

    /// Encodes the `ACK` ECALL output: kind, MRENCLAVE, the acked
    /// stream's public trace id (when the ack names a nonce), optional
    /// completion ciphertext for the local library, and follow-on
    /// `TRANSFER` frames to send back to the destination.
    fn ack_output(
        kind: u8,
        mr: MrEnclave,
        trace: Option<[u8; 8]>,
        complete: Option<&[u8]>,
        frames: &[Vec<u8>],
    ) -> Vec<u8> {
        let trace = trace.as_ref().map(<[u8; 8]>::as_slice);
        let mut w = WireWriter::with_capacity(
            1 + 32 + opt_len(trace) + opt_len(complete) + list_len(frames),
        );
        w.u8(kind);
        w.array(&mr.0);
        write_opt(&mut w, trace);
        write_opt(&mut w, complete);
        write_list(&mut w, frames);
        w.finish()
    }

    /// Looks up the outgoing migration owning the sent stream `nonce`.
    fn outgoing_by_nonce(&self, nonce: &TransferNonce) -> Result<MrEnclave, MigError> {
        self.outgoing
            .iter()
            .find(|(_, mig)| mig.fsm.sent_stream().is_some_and(|s| s.nonce == *nonce))
            .map(|(mr, _)| *mr)
            .ok_or(MigError::StaleNonce)
    }

    /// Advances the outgoing stream `nonce` after a cumulative ack
    /// (`resume: false`) or a negotiated resume point (`resume: true`;
    /// `upto == 0` restarts the stream, fresh `ChunkStart` included),
    /// then refills the freed shared-window budget **across every
    /// stream** towards the destination ([`share_window`]), returning
    /// the owning MRENCLAVE and the frames to send.
    fn advance_stream(
        &mut self,
        destination: MachineId,
        nonce: TransferNonce,
        upto: u32,
        resume: bool,
    ) -> Result<(MrEnclave, Vec<Vec<u8>>), MigError> {
        let mr = self.outgoing_by_nonce(&nonce)?;
        // Per-nonce binding: an ack relayed from a different peer than
        // the stream's destination is a cross-stream splice attempt —
        // reject it without touching any stream's state.
        let ack_dest = self
            .outgoing
            .get(&mr)
            .ok_or(MigError::SessionInvariant("acked migration vanished"))?
            .destination;
        if ack_dest != destination {
            return Err(MigError::Protocol("ack from wrong destination"));
        }
        self.ensure_out_stream(mr)?;
        let fsm = &mut self
            .outgoing
            .get_mut(&mr)
            .ok_or(MigError::SessionInvariant("retained migration vanished"))?
            .fsm;
        if resume {
            // Chunks past the renegotiated point were already sealed
            // once and will be sealed again: count the rewind as
            // retransmissions.
            let rewound = fsm
                .stream()
                .map_or(0, |s| u64::from(s.next_to_send.saturating_sub(upto)));
            fsm.on_resume_point(upto)?;
            self.telemetry.chunks_retransmitted += rewound;
        } else {
            fsm.on_ack(upto)?;
        }

        let leads = if resume && upto == 0 {
            // Rewind to the very beginning: re-announce the stream
            // (ChunkStart or DeltaStart, whichever it was).
            vec![self.rebuild_start_msg(mr)?]
        } else {
            Vec::new()
        };
        let chunks = self.grant_chunks(destination)?;
        let frames = self.seal_burst(destination, &leads, &chunks)?;
        Ok((mr, frames))
    }

    pub(super) fn op_ack(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let destination = MachineId(r.u64()?);
        let ciphertext = r.bytes()?;
        r.finish()?;

        let channel = self
            .channels_out
            .get_mut(&destination)
            .ok_or(MigError::ChannelMissing {
                peer: ChannelPeer::Destination,
            })?;
        let plaintext = channel.open(ciphertext)?;
        match MeToMe::from_bytes(&plaintext)? {
            MeToMe::Delivered { mr_enclave } => {
                // Delivery binding: only the migration's *current*
                // destination may release the retained copy (Fig. 2) —
                // a stale confirmation from a previous destination must
                // not destroy the frozen source's only copy mid-stream
                // towards the new one.
                if self
                    .outgoing
                    .get(&mr_enclave)
                    .is_some_and(|mig| mig.destination != destination)
                {
                    return Err(MigError::Protocol(
                        "delivery confirmation from wrong destination",
                    ));
                }
                // Safe to delete the retained migration data (Fig. 2).
                self.outgoing.remove(&mr_enclave);
                self.out_streams.remove(&mr_enclave);
                // Tell the (frozen) source library, if still attested.
                let complete = self
                    .local_sessions
                    .get_mut(&mr_enclave)
                    .map(|local| local.seal(&MeToLib::MigrationComplete.to_bytes()));
                // The channel is free again: dispatch the next queued
                // migration for this destination, if any.
                let next = self.send_unsent(env, destination)?;
                Ok(Self::ack_output(
                    1,
                    mr_enclave,
                    None,
                    complete.as_deref(),
                    &next,
                ))
            }
            MeToMe::Stored { mr_enclave } => {
                // Destination parked the data; retain ours until DONE —
                // but the stream slot (or single-shot confirmation) is
                // free for further queued migrations. Same binding as
                // Delivered: only the current destination's confirmation
                // may close the stream's accounting.
                let mut completed_generation = None;
                if let Some(mig) = self.outgoing.get_mut(&mr_enclave) {
                    if mig.destination != destination {
                        return Err(MigError::Protocol(
                            "storage confirmation from wrong destination",
                        ));
                    }
                    completed_generation = mig.fsm.on_stored()?;
                }
                // The destination holds (and caches) the full streamed
                // generation: record it as the delta base exactly as the
                // final-ChunkAck path does, so a repeat migration after
                // a Stored-closed resume still ships a delta.
                if let Some(generation) = completed_generation {
                    self.cache_shipped(mr_enclave, generation)?;
                }
                let next = self.send_unsent(env, destination)?;
                Ok(Self::ack_output(2, mr_enclave, None, None, &next))
            }
            MeToMe::ChunkAck { nonce, upto } => {
                env.attribute_transition(trace_id(&nonce));
                let (mr, mut frames) = self.advance_stream(destination, nonce, upto, false)?;
                if upto
                    == self
                        .outgoing
                        .get(&mr)
                        .map_or(0, OutgoingMigration::n_chunks)
                {
                    // Final cumulative ack: the stream is fully at the
                    // destination (retained until Delivered). Record the
                    // shipped generation as the delta base for the next
                    // repeat migration, then let the freed stream slot
                    // start the next queued migration.
                    let completed = self
                        .outgoing
                        .get(&mr)
                        .and_then(|mig| mig.fsm.stream())
                        .map(StreamProgress::generation);
                    if let Some(generation) = completed {
                        self.cache_shipped(mr, generation)?;
                    }
                    frames.extend(self.send_unsent(env, destination)?);
                }
                Ok(Self::ack_output(
                    3,
                    mr,
                    Some(trace_id(&nonce)),
                    None,
                    &frames,
                ))
            }
            MeToMe::Resume { nonce, from_idx } => {
                // The destination told us where to pick the stream back
                // up after a crash (0 restarts, announcement included).
                let (mr, frames) = self.advance_stream(destination, nonce, from_idx, true)?;
                Ok(Self::ack_output(
                    3,
                    mr,
                    Some(trace_id(&nonce)),
                    None,
                    &frames,
                ))
            }
            MeToMe::DeltaNack { mr_enclave, nonce } => {
                // The destination does not hold our delta base: drop the
                // stale cache entry and the delta stream, then restart
                // the transfer as a full stream over the same channel.
                let mr = self.outgoing_by_nonce(&nonce)?;
                if mr != mr_enclave {
                    return Err(MigError::Protocol("delta nack for wrong enclave"));
                }
                self.cache.remove(&mr);
                self.out_streams.remove(&mr);
                self.outgoing
                    .get_mut(&mr)
                    .ok_or(MigError::Protocol("no retained migration data"))?
                    .fsm
                    .on_delta_nack()?;
                self.telemetry.delta_fallbacks += 1;
                let frames = self.send_unsent(env, destination)?;
                // Kind 4: the host records a delta-fallback edge.
                Ok(Self::ack_output(
                    4,
                    mr,
                    Some(trace_id(&nonce)),
                    None,
                    &frames,
                ))
            }
            _ => Err(MigError::Protocol("unexpected message on ack path")),
        }
    }

    /// `ABORT` — discards staged **incoming** state for `mr`: the parked
    /// `pending_incoming` payload and every partial inbound stream
    /// targeting that measurement. Output is `0` (refused) when the data
    /// has already been handed to the destination library
    /// (`awaiting_done`) — at that point the library may have installed
    /// it, and discarding the ME's record could let a later retry
    /// double-release — otherwise `1` plus the number of staged items
    /// dropped. After a destination-ME crash `awaiting_done` is empty
    /// (it is deliberately not persisted), so a post-restart abort
    /// always discards.
    pub(super) fn op_abort(&mut self, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let mr = MrEnclave(r.array()?);
        r.finish()?;
        let mut w = WireWriter::new();
        if self.awaiting_done.contains_key(&mr) {
            w.u8(0);
            return Ok(w.finish());
        }
        let mut discarded = 0u32;
        if self.pending_incoming.remove(&mr).is_some() {
            discarded += 1;
        }
        let stale: Vec<TransferNonce> = self
            .inbound
            .iter()
            .filter(|(_, fsm)| fsm.mr_enclave() == mr)
            .map(|(nonce, _)| *nonce)
            .collect();
        for nonce in stale {
            self.inbound.remove(&nonce);
            discarded += 1;
        }
        self.telemetry.aborts_incoming += 1;
        w.u8(1);
        w.u32(discarded);
        Ok(w.finish())
    }

    pub(super) fn op_stream_stat(&self, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let mr = MrEnclave(r.array()?);
        r.finish()?;
        let mut w = WireWriter::new();
        match self.outgoing.get(&mr) {
            Some(mig) => match mig.fsm.stream() {
                Some(stream) => {
                    w.u8(1);
                    w.u32(stream.acked);
                    w.u32(mig.n_chunks());
                    w.u64(mig.state.len() as u64);
                    w.u64(stream.payload_len);
                    w.u8(u8::from(stream.delta_base.is_some()));
                    w.u32(stream.chunk_size);
                }
                None => {
                    w.u8(2); // retained, not streamed
                    w.u64(mig.state.len() as u64);
                }
            },
            None => {
                w.u8(0); // nothing retained
            }
        }
        Ok(w.finish())
    }

    pub(super) fn op_link_stat(&self, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let destination = MachineId(r.u64()?);
        r.finish()?;
        let mut w = WireWriter::new();
        // Per-stream state of the multiplexed link (diagnostics): every
        // announced stream towards the destination with its per-nonce
        // progress. The nonce itself stays inside the enclave — it keys
        // the chunk HMAC chain.
        let mut streams: Vec<(&MrEnclave, &SenderFsm, &StreamProgress)> = self
            .outgoing
            .iter()
            .filter(|(_, mig)| mig.destination == destination)
            .filter_map(|(mr, mig)| mig.fsm.sent_stream().map(|s| (mr, &mig.fsm, s)))
            .collect();
        streams.sort_by_key(|(mr, _, _)| mr.0);
        w.u32(streams.len() as u32);
        for (mr, fsm, stream) in streams {
            w.array(&mr.0);
            w.u32(stream.acked);
            w.u32(stream.n_chunks());
            w.u32(stream.next_to_send.saturating_sub(stream.acked));
            w.u8(u8::from(stream.delta_base.is_some()));
            w.u8(u8::from(fsm.is_awaiting_resume()));
        }
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::state::COUNTER_SLOTS;

    fn progress(n_chunks: u32) -> StreamProgress {
        StreamProgress::new([7; 16], 4096, u64::from(n_chunks) * 4096, 3, None)
    }

    fn data() -> MigrationData {
        MigrationData {
            counters_active: [false; COUNTER_SLOTS],
            counter_values: [0; COUNTER_SLOTS],
            msk: [7; 16],
        }
    }

    #[test]
    fn action_decode_bounds_the_frame_count_by_the_input() {
        // A 13-byte action claiming u32::MAX frames must fail to decode,
        // not reserve memory for them.
        let mut bytes = vec![2];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 13);
        assert!(matches!(
            MeAction::from_bytes(&bytes),
            Err(SgxError::Decode)
        ));
    }

    #[test]
    fn sender_single_shot_table() {
        let mut fsm = SenderFsm::Idle { stream: None };
        fsm.dispatch_single_shot().unwrap();
        assert_eq!(fsm.name(), "AwaitingReceipt");
        assert!(fsm.is_sent() && matches!(fsm, SenderFsm::AwaitingReceipt));
        // Events that do not apply leave the state untouched.
        assert!(matches!(
            fsm.dispatch_single_shot(),
            Err(MigError::InvalidTransition {
                state: "AwaitingReceipt",
                ..
            })
        ));
        assert!(fsm.on_ack(1).is_err());
        assert!(fsm.on_resume_point(0).is_err());
        assert_eq!(fsm.name(), "AwaitingReceipt");
        // Stored closes the single shot; repeats are idempotent.
        assert_eq!(fsm.on_stored().unwrap(), None);
        assert_eq!(fsm.name(), "Stored");
        assert_eq!(fsm.on_stored().unwrap(), None);
        // A channel reset rewinds to Idle with nothing retained.
        fsm.reset_channel();
        assert!(matches!(fsm, SenderFsm::Idle { stream: None }));
    }

    #[test]
    fn sender_streaming_table() {
        let mut fsm = SenderFsm::Idle { stream: None };
        fsm.dispatch_announce(progress(4)).unwrap();
        assert_eq!(fsm.name(), "Streaming");
        assert!(fsm.stream_active());
        assert!(fsm.sendable_stream().is_some());
        // Cumulative acks only move forward.
        fsm.on_ack(2).unwrap();
        assert_eq!(fsm.stream().unwrap().acked(), 2);
        fsm.on_ack(1).unwrap();
        assert_eq!(fsm.stream().unwrap().acked(), 2);
        // Beyond the stream end is a protocol violation, state kept.
        assert!(matches!(fsm.on_ack(5), Err(MigError::Protocol(_))));
        assert_eq!(fsm.name(), "Streaming");
        // The final ack completes the stream.
        fsm.on_ack(4).unwrap();
        assert_eq!(fsm.name(), "Complete");
        assert!(!fsm.stream_active(), "complete streams free their slot");
        // Stored closes the accounting and reports the generation.
        assert_eq!(fsm.on_stored().unwrap(), Some(3));
        assert_eq!(fsm.name(), "Stored");
        assert_eq!(fsm.stream().unwrap().acked(), 4);
    }

    #[test]
    fn sender_resume_table() {
        let mut fsm = SenderFsm::Idle { stream: None };
        fsm.dispatch_announce(progress(4)).unwrap();
        fsm.on_ack(2).unwrap();
        // Channel dies: rewind keeps the progress, unsends the rest.
        fsm.reset_channel();
        assert!(matches!(&fsm, SenderFsm::Idle { stream: Some(s) } if s.next_to_send() == 2));
        assert!(!fsm.is_sent());
        // A retained stream must resume, not restart.
        assert!(fsm.dispatch_announce(progress(4)).is_err());
        assert!(fsm.dispatch_single_shot().is_err());
        let nonce = fsm.dispatch_resume().unwrap();
        assert_eq!(nonce, [7; 16]);
        assert_eq!(fsm.name(), "AwaitingResume");
        assert!(fsm.is_awaiting_resume() && fsm.stream_active());
        assert!(
            fsm.sendable_stream().is_none(),
            "no chunks granted until the destination names the resume point"
        );
        // The destination names a point behind our ack: rewind to it.
        fsm.on_resume_point(1).unwrap();
        assert_eq!(fsm.name(), "Streaming");
        let s = fsm.stream().unwrap();
        assert_eq!((s.acked(), s.next_to_send()), (1, 1));
        // A resume point at the end completes the stream.
        fsm.on_resume_point(4).unwrap();
        assert_eq!(fsm.name(), "Complete");
    }

    #[test]
    fn window_slots_go_to_the_stream_with_the_fewest_in_flight() {
        let (a, b) = (MrEnclave([1; 32]), MrEnclave([2; 32]));
        let split = |grants: &[MrEnclave]| {
            let of = |mr| grants.iter().filter(|g| **g == mr).count();
            (of(a), of(b))
        };
        // Equal streams split the window evenly and interleave.
        let grants = share_window(8, vec![(a, 0, 100), (b, 0, 100)]);
        assert_eq!(split(&grants), (4, 4));
        assert_eq!(grants[..4], [a, b, a, b]);
        // A 4-chunk stream drains in the first window beside a 256-chunk
        // one.
        assert_eq!(
            split(&share_window(8, vec![(a, 0, 256), (b, 0, 4)])),
            (4, 4)
        );
        // A stream with little to send leaves its slots to the other.
        assert_eq!(
            split(&share_window(10, vec![(a, 0, 2), (b, 0, 100)])),
            (2, 8)
        );
        // Slots refill the stream with fewer chunks in flight first; a
        // tie goes to the lowest MRENCLAVE.
        assert_eq!(
            share_window(4, vec![(b, 0, 100), (a, 3, 100)]),
            [b, b, b, a]
        );
        // A zero budget or no demand grants nothing, and a budget beyond
        // the demand stops at the demand.
        assert!(share_window(0, vec![(a, 0, 1)]).is_empty());
        assert!(share_window(8, vec![(a, 2, 0), (b, 0, 0)]).is_empty());
        assert!(share_window(8, Vec::new()).is_empty());
        assert_eq!(share_window(u32::MAX, vec![(a, 0, 3)]), [a, a, a]);
    }

    #[test]
    fn sender_invalid_events_from_idle() {
        let mut fsm = SenderFsm::Idle { stream: None };
        assert!(matches!(
            fsm.dispatch_resume(),
            Err(MigError::InvalidTransition {
                state: "Idle",
                event: "dispatch_resume"
            })
        ));
        assert!(fsm.on_ack(0).is_err());
        assert!(fsm.on_resume_point(0).is_err());
        assert!(fsm.on_stored().is_err());
        assert!(fsm.on_delta_nack().is_err());
        assert!(matches!(fsm, SenderFsm::Idle { stream: None }));
    }

    #[test]
    fn sender_delta_nack_rewinds_to_fresh_idle() {
        let mut fsm = SenderFsm::Idle { stream: None };
        fsm.dispatch_announce(StreamProgress::new([1; 16], 4096, 8192, 5, Some(4)))
            .unwrap();
        fsm.on_ack(1).unwrap();
        fsm.on_delta_nack().unwrap();
        // The delta stream is gone entirely: dispatch restarts in full.
        assert!(matches!(fsm, SenderFsm::Idle { stream: None }));
    }

    #[test]
    fn sender_ack_during_resume_only_advances_bookkeeping() {
        let mut fsm = SenderFsm::Idle { stream: None };
        fsm.dispatch_announce(progress(4)).unwrap();
        fsm.reset_channel();
        fsm.dispatch_resume().unwrap();
        fsm.on_ack(2).unwrap();
        assert_eq!(fsm.name(), "AwaitingResume");
        assert_eq!(fsm.stream().unwrap().acked(), 2);
    }

    fn drive(stream: &ChunkStream, fsm: &mut ReceiverFsm, from: u32) {
        for idx in from..stream.n_chunks() {
            let (c, m) = stream.chunk(idx);
            fsm.on_chunk(idx, c, &m).unwrap();
        }
    }

    /// The delta from `base` to `new` as a source ME builds it: the
    /// manifest, the payload's chunk stream, and the new generation's
    /// page digests.
    fn delta_stream(
        base: &DigestedState,
        gens: (u64, u64),
        new: &[u8],
        nonce: TransferNonce,
        chunk_size: u32,
    ) -> (DeltaManifest, ChunkStream, PageDigests) {
        let (dirty, payload) = delta::diff(base.bytes(), new);
        let out = OutStream::delta(
            nonce,
            chunk_size,
            base,
            gens.0,
            gens.1,
            new.len() as u64,
            dirty,
            payload,
        )
        .unwrap();
        (out.manifest.unwrap(), out.chunks, out.digests)
    }

    /// The released state, whose cached digests must be its own.
    fn released_state(release: ReceiverRelease) -> DigestedState {
        match release {
            ReceiverRelease::Released { state, .. } => {
                assert_eq!(state.digests(), &PageDigests::compute(state.bytes()));
                state
            }
            ReceiverRelease::BaseMissing => panic!("a base was supplied or not needed"),
        }
    }

    fn released(release: ReceiverRelease) -> Vec<u8> {
        released_state(release).bytes().to_vec()
    }

    #[test]
    fn receiver_full_release_matches_the_sent_payload() {
        let payload: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        let out = OutStream::full([9; 16], 4096, payload.clone().into()).unwrap();
        assert_eq!(out.digests, PageDigests::compute(&payload));
        let stream = out.chunks;
        let mut fsm = ReceiverFsm::start_full(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            [9; 16],
            1,
            stream.total_len(),
            4096,
            stream.digest(),
        )
        .unwrap();
        assert!(fsm.delta_manifest().is_none() && fsm.needs_base().is_none());
        drive(&stream, &mut fsm, 0);
        assert!(fsm.is_complete());
        assert_eq!(released(fsm.release(None).unwrap()), payload);
    }

    #[test]
    fn receiver_rejects_chunk_sizes_that_split_pages() {
        for chunk_size in [2048, 4096 + 512] {
            assert!(ReceiverFsm::start_full(
                MachineId(1),
                MrEnclave([5; 32]),
                data(),
                [9; 16],
                1,
                20_000,
                chunk_size,
                [0; 32],
            )
            .is_err());
        }
    }

    #[test]
    fn receiver_delta_staged_vs_deferred() {
        let base: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
        let mut new = base.clone();
        new[5000] ^= 0xAA;
        new[20_000] ^= 0x55;
        let base = DigestedState::new(base);
        let (manifest, stream, digests) = delta_stream(&base, (4, 5), &new, [8; 16], 4096);
        assert_eq!(digests, PageDigests::compute(&new));

        // The base at announce: staged, releases with no base argument.
        let mut fsm = ReceiverFsm::start_delta(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            [8; 16],
            4096,
            stream.digest(),
            manifest.clone(),
            Some(&base),
        )
        .unwrap();
        assert!(fsm.is_staged() && fsm.needs_base().is_none());
        assert_eq!(fsm.generation(), 5);
        drive(&stream, &mut fsm, 0);
        assert_eq!(released(fsm.release(None).unwrap()), new);

        // No base at announce: deferred — the base is needed at
        // release, and its absence NACKs.
        let mut fsm = ReceiverFsm::start_delta(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            [8; 16],
            4096,
            stream.digest(),
            manifest.clone(),
            None,
        )
        .unwrap();
        assert!(!fsm.is_staged() && fsm.needs_base().is_some());
        drive(&stream, &mut fsm, 0);
        assert_eq!(released(fsm.release(Some(&base)).unwrap()), new);
        let mut fsm = ReceiverFsm::start_delta(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            [8; 16],
            4096,
            stream.digest(),
            manifest.clone(),
            None,
        )
        .unwrap();
        drive(&stream, &mut fsm, 0);
        assert!(matches!(
            fsm.release(None).unwrap(),
            ReceiverRelease::BaseMissing
        ));
    }

    #[test]
    fn receiver_tamper_is_rejected() {
        let payload: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let stream = ChunkStream::new([3; 16], 4096, payload);
        let start = |digest: [u8; 32]| {
            ReceiverFsm::start_full(
                MachineId(1),
                MrEnclave([5; 32]),
                data(),
                [3; 16],
                1,
                stream.total_len(),
                4096,
                digest,
            )
            .unwrap()
        };
        let mut fsm = start(stream.digest());
        let (c0, m0) = stream.chunk(0);
        let mut evil = c0.to_vec();
        evil[0] ^= 1;
        let err = fsm.on_chunk(0, &evil, &m0).unwrap_err();
        assert!(
            !matches!(err, MigError::Transfer("chunk index out of order")),
            "tamper is not a loss artifact"
        );
        // Out-of-order is the one recoverable error: prefix kept.
        let (c1, m1) = stream.chunk(1);
        assert!(matches!(
            fsm.on_chunk(1, c1, &m1),
            Err(MigError::Transfer("chunk index out of order"))
        ));
        assert_eq!(fsm.next_idx(), 0);
        // A wrong announced digest still quarantines at release.
        let mut fsm = start([0; 32]);
        drive(&stream, &mut fsm, 0);
        assert!(fsm.release(None).is_err());
    }

    #[test]
    fn receiver_restore_rebuilds_staging_deterministically() {
        let base: Vec<u8> = (0..30_000).map(|i| (i % 251) as u8).collect();
        let mut new = base.clone();
        new[100] ^= 1;
        new[5_000] ^= 4;
        new[13_000] ^= 8;
        new[25_000] ^= 2;
        let base = DigestedState::new(base);
        let (manifest, stream, _) = delta_stream(&base, (1, 2), &new, [6; 16], 4096);
        assert_eq!(stream.n_chunks(), 4);

        let mut fsm = ReceiverFsm::start_delta(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            [6; 16],
            4096,
            stream.digest(),
            manifest.clone(),
            Some(&base),
        )
        .unwrap();
        for idx in 0..3 {
            let (c, m) = stream.chunk(idx);
            fsm.on_chunk(idx, c, &m).unwrap();
        }
        // Crash: only the assembler is persisted; staging is rebuilt.
        let blob = fsm.assembler_bytes();
        let assembler = ChunkAssembler::from_bytes(&blob).unwrap();
        let mut restored = ReceiverFsm::restore(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            2,
            assembler,
            Some(manifest.clone()),
            Some(&base),
        );
        assert!(restored.is_staged());
        assert_eq!(restored.next_idx(), 3);
        drive(&stream, &mut restored, 3);
        assert_eq!(released(restored.release(None).unwrap()), new);
        // The base evicted during the downtime: falls back to deferred,
        // exactly like a base missing at announce.
        let assembler = ChunkAssembler::from_bytes(&blob).unwrap();
        let restored = ReceiverFsm::restore(
            MachineId(1),
            MrEnclave([5; 32]),
            data(),
            2,
            assembler,
            Some(manifest),
            None,
        );
        assert!(!restored.is_staged() && restored.needs_base().is_some());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Both ends of a stream cache the page digests of the state they
        /// hold: after a full release and after a delta release (staged
        /// or deferred), the source's tree (what `cache_shipped` records)
        /// and the destination's (what `release_stream` records) equal
        /// `PageDigests::compute` of the released state, for states from
        /// a few bytes to past 64 KiB, any whole-page chunk size and any
        /// dirty set. A cached base whose bytes were altered — re-read
        /// with the tree of what was read, as `RESTORE` does — is never
        /// released from: it is not staged, and a delta deferred onto it
        /// is rejected.
        #[test]
        fn cached_digests_are_the_released_states_own(
            base_len in 1usize..70_000,
            growth in 0usize..9_000,
            shrink in 0usize..9_000,
            fill in proptest::strategy::any::<u8>(),
            dirty_pages in proptest::collection::vec(proptest::strategy::any::<u32>(), 0..8),
            pages_per_chunk in 1u32..5,
            staged in proptest::strategy::any::<bool>(),
            alter_at in proptest::strategy::any::<usize>(),
        ) {
            let chunk_size = pages_per_chunk * delta::PAGE_SIZE;
            let base: Vec<u8> = (0..base_len).map(|i| fill.wrapping_add(i as u8)).collect();

            // Full stream: the source's tree comes from its chunk leaves,
            // the destination's from the leaves it verified.
            let out = OutStream::full([1; 16], chunk_size, base.clone().into()).unwrap();
            proptest::prop_assert_eq!(&out.digests, &PageDigests::compute(&base));
            let mut fsm = ReceiverFsm::start_full(
                MachineId(1), MrEnclave([5; 32]), data(), [1; 16], 0,
                out.chunks.total_len(), chunk_size, out.chunks.digest(),
            ).unwrap();
            drive(&out.chunks, &mut fsm, 0);
            let dst_base = released_state(fsm.release(None).unwrap());
            proptest::prop_assert_eq!(&dst_base.bytes()[..], &base[..]);
            proptest::prop_assert_eq!(dst_base.digests(), &out.digests);
            let src_base = DigestedState::from_parts(base.into(), out.digests).unwrap();

            // A random dirty set, with the state grown or shrunk.
            let mut new = src_base.bytes().to_vec();
            new.resize(base_len + growth, fill ^ 0x5A);
            new.truncate((base_len + growth).saturating_sub(shrink).max(1));
            let n_pages = new.len().div_ceil(delta::PAGE_SIZE as usize);
            for page in &dirty_pages {
                let at = (*page as usize % n_pages) * delta::PAGE_SIZE as usize;
                new[at] ^= 0xA5;
            }

            // Delta stream: the source hashes only the dirty pages, the
            // destination stages or defers onto its cached base.
            let (manifest, stream, src_new) =
                delta_stream(&src_base, (0, 1), &new, [2; 16], chunk_size);
            proptest::prop_assert_eq!(&src_new, &PageDigests::compute(&new));
            let mut fsm = ReceiverFsm::start_delta(
                MachineId(1), MrEnclave([5; 32]), data(), [2; 16], chunk_size,
                stream.digest(), manifest.clone(), staged.then_some(&dst_base),
            ).unwrap();
            proptest::prop_assert_eq!(fsm.is_staged(), staged);
            drive(&stream, &mut fsm, 0);
            let dst_new = released_state(fsm.release(Some(&dst_base)).unwrap());
            proptest::prop_assert_eq!(&dst_new.bytes()[..], &new[..]);
            proptest::prop_assert_eq!(dst_new.digests(), &src_new);

            // The destination's base altered while out of the enclave.
            let mut altered = dst_base.bytes().to_vec();
            altered[alter_at % base_len] ^= 1;
            let altered = DigestedState::new(altered);
            let mut fsm = ReceiverFsm::start_delta(
                MachineId(1), MrEnclave([5; 32]), data(), [2; 16], chunk_size,
                stream.digest(), manifest.clone(), Some(&altered),
            ).unwrap();
            proptest::prop_assert!(!fsm.is_staged());
            drive(&stream, &mut fsm, 0);
            proptest::prop_assert!(fsm.release(Some(&altered)).is_err());
        }
    }
}
