//! The **state-transfer subsystem**: checkpointing and chunked,
//! resumable, integrity-chained streaming of large persistent state
//! between Migration Enclaves (the CTR-style extension of the paper's
//! single-message transfer).
//!
//! The DSN'18 protocol hands the destination one `transfer data` message
//! (Fig. 2) — fine for the 1.3 KiB Table I payload, hopeless for an
//! enclave whose migratable-sealed working set is megabytes. Following
//! *CTR: Checkpoint, Transfer, and Restore for Secure Enclaves*
//! (Nakatsuka et al.) this module adds:
//!
//! * [`checkpoint`] — a durable, generation-numbered checkpoint store on
//!   the untrusted per-machine disk ([`cloud_sim::disk::UntrustedDisk`]).
//!   Application hosts write the library's sealed Table II blob (plus
//!   any staged bulk state) there periodically; Migration Enclave hosts
//!   checkpoint transfer progress so a management-VM crash mid-migration
//!   resumes instead of restarting.
//! * [`chunker`] — the chunking/streaming engine: a source-side
//!   [`chunker::ChunkStream`] that splits the payload into fixed-size
//!   chunks bound together by an HMAC chain keyed from a secret
//!   per-transfer nonce, and a destination-side
//!   [`chunker::ChunkAssembler`] that verifies the chain chunk by chunk,
//!   survives serialization across enclave restarts, and reports the
//!   next index it needs so a resumed sender can continue from the last
//!   acknowledged chunk.
//!
//! * [`delta`] — the page-digest tree of a state generation (a SHA-256
//!   leaf per 4 KiB page and a root over them) from which every chunk
//!   digest and delta manifest is derived, and dirty-page deltas: a
//!   compact [`delta::DeltaManifest`], `diff` and the staged apply, so
//!   a repeat migration ships and hashes only the pages that changed
//!   since the generation the destination already holds, falling back
//!   to a full stream when the base is missing or the delta is larger
//!   than [`MAX_DELTA_PERCENT`] of the state.
//!
//! The wire messages (`ChunkStart` / `DeltaStart` / `Chunk` / `ChunkAck`
//! / `Resume` / `ResumeRequest` / `DeltaNack`) live in
//! [`crate::msgs::MeToMe`]; the Migration Enclave ([`crate::me`]) drives
//! the engine with windowed, pipelined sends over the existing attested
//! [`crate::secure_channel`]. Every stream uses the provisioned
//! [`TransferConfig::chunk_size`], and the streams towards one
//! destination share its [`TransferConfig::window`] of chunks in
//! flight. Up to [`MAX_STREAMS`] transfers towards one destination run
//! **concurrently**, keyed by their per-transfer nonce and multiplexed
//! on the shared channel; each free window slot goes to the stream with
//! the fewest chunks in flight, so a large-state migration cannot starve
//! a small one. State at or below [`TransferConfig::stream_threshold`]
//! still travels in the original single-shot `Transfer` message (the
//! small-state fast path).
//!
//! Every message a source ME sends — single-shot transfers, resume
//! requests, announcements and chunks, in that order — is sealed on its
//! own and travels in a `TRANSFER` frame of its own, one destination
//! ECALL per message. The destination restores speculatively: each
//! chunk is staged and folded into the running state digest as it
//! verifies, so the last chunk only finalizes the digest check and
//! releases.

pub mod checkpoint;
pub mod chunker;
pub mod delta;

use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

/// Default streaming threshold: state strictly larger than this streams.
pub const DEFAULT_STREAM_THRESHOLD: u32 = 64 * 1024;
/// Default chunk size of the streaming engine.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 * 1024;
/// Default send window: unacknowledged chunks in flight per
/// destination link.
pub const DEFAULT_WINDOW: u32 = 8;
/// Largest delta payload, in percent of the full state, still shipped
/// as a delta (larger deltas fall back to a full stream).
pub const MAX_DELTA_PERCENT: u32 = 50;
/// Cap on concurrently multiplexed chunk streams per destination;
/// further migrations queue until a stream completes.
pub const MAX_STREAMS: u32 = 8;
/// Default byte budget of the ME's per-measurement generation cache
/// (delta bases). Least-recently-used entries are evicted beyond it;
/// evicted bases simply fall back to full streams via `DeltaNack`.
pub const DEFAULT_CACHE_BUDGET: u64 = 256 * 1024 * 1024;
/// Minimum accepted chunk size: one page. Every chunk size is a whole
/// number of pages, so a chunk's digest is a node over its pages'
/// leaves.
pub const MIN_CHUNK_SIZE: u32 = delta::PAGE_SIZE;

/// Tuning knobs of the streaming state transfer, provisioned into each
/// Migration Enclave alongside the migration policy. Every stream uses
/// `chunk_size` and `window` as provisioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferConfig {
    /// State payloads strictly larger than this (bytes) use the
    /// chunked streaming path; smaller ones ride the single-shot
    /// `Transfer` message.
    pub stream_threshold: u32,
    /// Bytes per chunk, a whole number of pages.
    pub chunk_size: u32,
    /// Maximum unacknowledged chunks in flight towards one destination,
    /// shared by every stream on the link.
    pub window: u32,
    /// Byte budget of the per-measurement generation cache (delta
    /// bases); least-recently-used entries are evicted beyond it.
    pub cache_budget: u64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            stream_threshold: DEFAULT_STREAM_THRESHOLD,
            chunk_size: DEFAULT_CHUNK_SIZE,
            window: DEFAULT_WINDOW,
            cache_budget: DEFAULT_CACHE_BUDGET,
        }
    }
}

impl TransferConfig {
    /// Serializes the config (PROVISION payload suffix).
    pub fn encode(&self, w: &mut WireWriter) {
        w.u32(self.stream_threshold);
        w.u32(self.chunk_size);
        w.u32(self.window);
        w.u64(self.cache_budget);
    }

    /// Parses a config, rejecting degenerate geometry.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input, a chunk size that is not
    /// a whole number of pages ([`delta::PAGE_SIZE`]), a zero window or
    /// a zero cache budget.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, SgxError> {
        let config = TransferConfig {
            stream_threshold: r.u32()?,
            chunk_size: r.u32()?,
            window: r.u32()?,
            cache_budget: r.u64()?,
        };
        if config.chunk_size < MIN_CHUNK_SIZE
            || !config.chunk_size.is_multiple_of(delta::PAGE_SIZE)
            || config.window == 0
            || config.cache_budget == 0
        {
            return Err(SgxError::Decode);
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trip() {
        let config = TransferConfig {
            stream_threshold: 1024,
            chunk_size: MIN_CHUNK_SIZE,
            window: 3,
            cache_budget: 8 * 1024 * 1024,
        };
        let mut w = WireWriter::new();
        config.encode(&mut w);
        let buf = w.finish();
        // Four fields: threshold, chunk size, window, cache budget.
        assert_eq!(buf.len(), 4 + 4 + 4 + 8);
        let mut r = WireReader::new(&buf);
        assert_eq!(TransferConfig::decode(&mut r).unwrap(), config);
        r.finish().unwrap();
        // Every field is required: an encoding cut before `cache_budget`,
        // or inside it, is rejected.
        for cut in [buf.len() - 8, buf.len() - 1] {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(TransferConfig::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn degenerate_config_rejected() {
        let ok = TransferConfig::default();
        let cases = [
            TransferConfig {
                chunk_size: 0,
                ..ok
            },
            TransferConfig {
                chunk_size: MIN_CHUNK_SIZE - 1,
                ..ok
            },
            // Not a whole number of pages.
            TransferConfig {
                chunk_size: 3 * MIN_CHUNK_SIZE / 2,
                ..ok
            },
            TransferConfig { window: 0, ..ok },
            TransferConfig {
                cache_budget: 0,
                ..ok
            },
        ];
        for config in cases {
            let mut w = WireWriter::new();
            config.encode(&mut w);
            let buf = w.finish();
            let mut r = WireReader::new(&buf);
            assert!(TransferConfig::decode(&mut r).is_err(), "{config:?}");
        }
        // A zero threshold (stream everything) is valid.
        let config = TransferConfig {
            stream_threshold: 0,
            ..ok
        };
        let mut w = WireWriter::new();
        config.encode(&mut w);
        let buf = w.finish();
        assert_eq!(
            TransferConfig::decode(&mut WireReader::new(&buf)).unwrap(),
            config
        );
    }
}
