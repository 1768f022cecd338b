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
//! [`crate::secure_channel`], sizing chunks and windows through the
//! per-destination [`AdaptiveLink`] controller. Up to [`MAX_STREAMS`]
//! transfers towards one destination run **concurrently**, keyed by
//! their per-transfer nonce and multiplexed on the shared channel; the
//! [`DrrScheduler`] apportions the link window among them (deficit
//! round-robin) so a large-state migration cannot starve a small one.
//! State at or below [`TransferConfig::stream_threshold`] still travels
//! in the original single-shot `Transfer` message (the small-state fast
//! path).
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

pub use crate::me::wire::{AdaptiveLink, DrrScheduler, StreamDemand};

use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::time::Duration;

/// Default streaming threshold: state strictly larger than this streams.
pub const DEFAULT_STREAM_THRESHOLD: u32 = 64 * 1024;
/// Default chunk size of the streaming engine.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 * 1024;
/// Default send window (chunks in flight before the first ack).
pub const DEFAULT_WINDOW: u32 = 8;
/// Ceiling the adaptive controller may grow the window to (a larger
/// provisioned window is its own ceiling).
pub const MAX_WINDOW: u32 = 32;
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
/// Minimum accepted chunk size, and the floor the adaptive controller
/// shrinks to: one page. Every chunk size is a whole number of pages, so
/// a chunk's digest is a node over its pages' leaves.
pub const MIN_CHUNK_SIZE: u32 = delta::PAGE_SIZE;
/// Default virtual-time deadline for one supervised migration; past it
/// the supervisor aborts with the source still authoritative.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);
/// Default supervisor recovery-attempt budget per migration.
pub const DEFAULT_RETRY_BUDGET: u32 = 6;
/// Default base of the supervisor's bounded exponential backoff
/// (attempt *n* waits `backoff_base * 2^(n-1)` of virtual time).
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Tuning knobs of the streaming state transfer, provisioned into each
/// Migration Enclave alongside the migration policy. `chunk_size` and
/// `window` seed the per-destination [`AdaptiveLink`] controller; the
/// live values drift from there with the observed link behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransferConfig {
    /// State payloads strictly larger than this (bytes) use the
    /// chunked streaming path; smaller ones ride the single-shot
    /// `Transfer` message.
    pub stream_threshold: u32,
    /// Bytes per chunk, a whole number of pages (initial; adapts
    /// downward on disruptions).
    pub chunk_size: u32,
    /// Maximum unacknowledged chunks in flight (initial; adapts upward
    /// on clean acks, up to [`MAX_WINDOW`]).
    pub window: u32,
    /// Byte budget of the per-measurement generation cache (delta
    /// bases); least-recently-used entries are evicted beyond it.
    pub cache_budget: u64,
    /// Virtual-time deadline for one supervised migration. When it
    /// lapses the [`crate::supervisor::MigrationSupervisor`] stops
    /// retrying and aborts with the source still authoritative.
    pub deadline: Duration,
    /// Supervisor recovery attempts per migration before giving up.
    /// Zero means a single attempt with no recovery.
    pub retry_budget: u32,
    /// Base of the supervisor's bounded exponential backoff: recovery
    /// attempt *n* waits `backoff_base * 2^(n-1)` of virtual time.
    pub backoff_base: Duration,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            stream_threshold: DEFAULT_STREAM_THRESHOLD,
            chunk_size: DEFAULT_CHUNK_SIZE,
            window: DEFAULT_WINDOW,
            cache_budget: DEFAULT_CACHE_BUDGET,
            deadline: DEFAULT_DEADLINE,
            retry_budget: DEFAULT_RETRY_BUDGET,
            backoff_base: DEFAULT_BACKOFF_BASE,
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
        w.u64(self.deadline.as_nanos().min(u128::from(u64::MAX)) as u64);
        w.u32(self.retry_budget);
        w.u64(self.backoff_base.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Parses a config, rejecting degenerate geometry.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input, a chunk size that is not
    /// a whole number of pages ([`delta::PAGE_SIZE`]), a zero window, a
    /// zero cache budget, a zero deadline, or a zero backoff base.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, SgxError> {
        let config = TransferConfig {
            stream_threshold: r.u32()?,
            chunk_size: r.u32()?,
            window: r.u32()?,
            cache_budget: r.u64()?,
            deadline: Duration::from_nanos(r.u64()?),
            retry_budget: r.u32()?,
            backoff_base: Duration::from_nanos(r.u64()?),
        };
        if config.chunk_size < MIN_CHUNK_SIZE
            || !config.chunk_size.is_multiple_of(delta::PAGE_SIZE)
            || config.window == 0
            || config.cache_budget == 0
            || config.deadline.is_zero()
            || config.backoff_base.is_zero()
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
            deadline: Duration::from_secs(7),
            retry_budget: 2,
            backoff_base: Duration::from_millis(1),
        };
        let mut w = WireWriter::new();
        config.encode(&mut w);
        let buf = w.finish();
        // Seven fields: threshold, chunk size, window, cache budget,
        // deadline, retry budget, backoff base.
        assert_eq!(buf.len(), 4 + 4 + 4 + 8 + 8 + 4 + 8);
        let mut r = WireReader::new(&buf);
        assert_eq!(TransferConfig::decode(&mut r).unwrap(), config);
        r.finish().unwrap();
        // Every field is required: an encoding cut before `backoff_base`,
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
            TransferConfig {
                deadline: Duration::ZERO,
                ..ok
            },
            TransferConfig {
                backoff_base: Duration::ZERO,
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
        // A zero threshold (stream everything) and a zero retry budget
        // (one attempt, no recovery) are valid.
        let config = TransferConfig {
            stream_threshold: 0,
            retry_budget: 0,
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
