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
//!   to a full stream when the base is missing or the delta is too
//!   large a fraction of the state
//!   ([`TransferConfig::max_delta_percent`]).
//!
//! The wire messages (`ChunkStart` / `DeltaStart` / `Chunk` / `ChunkAck`
//! / `Resume` / `ResumeRequest` / `DeltaNack`) live in
//! [`crate::msgs::MeToMe`]; the Migration Enclave ([`crate::me`]) drives
//! the engine with windowed, pipelined sends over the existing attested
//! [`crate::secure_channel`], sizing chunks and windows through the
//! per-destination [`AdaptiveLink`] controller. Up to
//! [`TransferConfig::max_streams`] transfers towards one destination
//! run **concurrently**, keyed by their per-transfer nonce and
//! multiplexed on the shared channel; the [`DrrScheduler`] apportions
//! the link window among them (deficit round-robin) so a large-state
//! migration cannot starve a small one. State at or below
//! [`TransferConfig::stream_threshold`] still travels in the original
//! single-shot `Transfer` message (the small-state fast path).
//!
//! Every message a source ME sends in one burst — single-shot
//! transfers, resume requests, announcements and chunks, in that order
//! — rides in `TRANSFER` containers of up to the link's negotiated
//! [`TransferConfig::batch_size`] sealed cells, one destination ECALL
//! per container. The destination restores speculatively: each chunk
//! is staged and folded into the running state digest as it verifies,
//! so the last chunk only finalizes the digest check and releases.

pub mod checkpoint;
pub mod chunker;
pub mod delta;

pub use crate::me::wire::{AdaptiveLink, DrrScheduler, StreamDemand};

use cloud_sim::network::LinkProfile;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::time::Duration;

/// Default streaming threshold: state strictly larger than this streams.
pub const DEFAULT_STREAM_THRESHOLD: u32 = 64 * 1024;
/// Default chunk size of the streaming engine.
pub const DEFAULT_CHUNK_SIZE: u32 = 256 * 1024;
/// Default send window (chunks in flight before the first ack).
pub const DEFAULT_WINDOW: u32 = 8;
/// Default ceiling the adaptive controller may grow the window to.
pub const DEFAULT_MAX_WINDOW: u32 = 32;
/// Default largest delta payload, in percent of the full state, still
/// shipped as a delta (larger deltas fall back to a full stream).
pub const DEFAULT_MAX_DELTA_PERCENT: u32 = 50;
/// Default cap on concurrently multiplexed chunk streams per
/// destination; further migrations queue until a stream completes.
pub const DEFAULT_MAX_STREAMS: u32 = 8;
/// Default byte budget of the ME's per-measurement generation cache
/// (delta bases). Least-recently-used entries are evicted beyond it;
/// evicted bases simply fall back to full streams via `DeltaNack`.
pub const DEFAULT_CACHE_BUDGET: u64 = 256 * 1024 * 1024;
/// Minimum accepted chunk size, and the floor the adaptive controller
/// shrinks to: one page. Every chunk size is a whole number of pages, so
/// a chunk's digest is a node over its pages' leaves.
pub const MIN_CHUNK_SIZE: u32 = delta::PAGE_SIZE;
/// Largest chunk size [`TransferConfig::for_link`] will derive.
pub const MAX_CHUNK_SIZE: u32 = 4 * 1024 * 1024;
/// Default virtual-time deadline for one supervised migration; past it
/// the supervisor aborts with the source still authoritative.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);
/// Default supervisor recovery-attempt budget per migration.
pub const DEFAULT_RETRY_BUDGET: u32 = 6;
/// Default base of the supervisor's bounded exponential backoff
/// (attempt *n* waits `backoff_base * 2^(n-1)` of virtual time).
pub const DEFAULT_BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Default hot-call batch size: 1 puts every stream cell in a
/// `TRANSFER` container of its own (one enclave transition per cell,
/// the 2×chunks transition profile).
pub const DEFAULT_BATCH_SIZE: u32 = 1;

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
    /// on clean acks).
    pub window: u32,
    /// Ceiling for the adaptive window growth.
    pub max_window: u32,
    /// Largest delta payload, in percent of the full state size, still
    /// worth shipping as a dirty-page delta; anything larger streams the
    /// full state.
    pub max_delta_percent: u32,
    /// Maximum chunk streams multiplexed concurrently towards one
    /// destination; further migrations stay queued until a slot frees.
    pub max_streams: u32,
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
    /// Hot-call batch size: how many sealed cells one `TRANSFER`
    /// container (one ECALL at the destination) carries at most — and,
    /// on the receive side, the advertisement made to peers during
    /// channel negotiation: the effective link batch is
    /// `min(sender config, receiver advertisement)`. 1 sends every cell
    /// in a container of its own.
    pub batch_size: u32,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            stream_threshold: DEFAULT_STREAM_THRESHOLD,
            chunk_size: DEFAULT_CHUNK_SIZE,
            window: DEFAULT_WINDOW,
            max_window: DEFAULT_MAX_WINDOW,
            max_delta_percent: DEFAULT_MAX_DELTA_PERCENT,
            max_streams: DEFAULT_MAX_STREAMS,
            cache_budget: DEFAULT_CACHE_BUDGET,
            deadline: DEFAULT_DEADLINE,
            retry_budget: DEFAULT_RETRY_BUDGET,
            backoff_base: DEFAULT_BACKOFF_BASE,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

impl TransferConfig {
    /// Derives a config from an observed link profile: the chunk size
    /// approximates the link's bandwidth-delay product (rounded to a
    /// power of two within `[MIN_CHUNK_SIZE, MAX_CHUNK_SIZE]`) and the
    /// initial window keeps roughly four BDPs in flight.
    #[must_use]
    pub fn for_link(link: &LinkProfile) -> Self {
        let bdp = (u128::from(link.bandwidth_bytes_per_sec) * 2 * link.latency.as_micros()
            / 1_000_000)
            .max(1) as u64;
        let chunk_size =
            bdp.next_power_of_two()
                .clamp(u64::from(MIN_CHUNK_SIZE), u64::from(MAX_CHUNK_SIZE)) as u32;
        let window = ((4 * bdp).div_ceil(u64::from(chunk_size)))
            .clamp(2, u64::from(DEFAULT_MAX_WINDOW)) as u32;
        TransferConfig {
            chunk_size,
            window,
            max_window: DEFAULT_MAX_WINDOW.max(window),
            ..TransferConfig::default()
        }
    }

    /// Serializes the config (PROVISION payload suffix).
    pub fn encode(&self, w: &mut WireWriter) {
        w.u32(self.stream_threshold);
        w.u32(self.chunk_size);
        w.u32(self.window);
        w.u32(self.max_window);
        w.u32(self.max_delta_percent);
        w.u32(self.max_streams);
        w.u64(self.cache_budget);
        w.u64(self.deadline.as_nanos().min(u128::from(u64::MAX)) as u64);
        w.u32(self.retry_budget);
        w.u64(self.backoff_base.as_nanos().min(u128::from(u64::MAX)) as u64);
        w.u32(self.batch_size);
    }

    /// Parses a config, rejecting degenerate geometry.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input, a chunk size that is not
    /// a whole number of pages ([`delta::PAGE_SIZE`]), a zero window, a window ceiling below the
    /// initial window, a delta fraction above 100 %, a zero stream cap,
    /// a zero cache budget, a zero deadline, a zero backoff base, or a
    /// batch size outside `1..=`[`MAX_BATCH`](crate::me::wire::MAX_BATCH).
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, SgxError> {
        let config = TransferConfig {
            stream_threshold: r.u32()?,
            chunk_size: r.u32()?,
            window: r.u32()?,
            max_window: r.u32()?,
            max_delta_percent: r.u32()?,
            max_streams: r.u32()?,
            cache_budget: r.u64()?,
            deadline: Duration::from_nanos(r.u64()?),
            retry_budget: r.u32()?,
            backoff_base: Duration::from_nanos(r.u64()?),
            batch_size: r.u32()?,
        };
        if config.chunk_size < MIN_CHUNK_SIZE
            || !config.chunk_size.is_multiple_of(delta::PAGE_SIZE)
            || config.window == 0
            || config.max_window < config.window
            || config.max_delta_percent > 100
            || config.max_streams == 0
            || config.cache_budget == 0
            || config.deadline.is_zero()
            || config.backoff_base.is_zero()
            || config.batch_size == 0
            || config.batch_size > crate::me::wire::MAX_BATCH
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
            max_window: 24,
            max_delta_percent: 10,
            max_streams: 4,
            cache_budget: 8 * 1024 * 1024,
            deadline: Duration::from_secs(7),
            retry_budget: 2,
            backoff_base: Duration::from_millis(1),
            batch_size: 16,
        };
        let mut w = WireWriter::new();
        config.encode(&mut w);
        let buf = w.finish();
        let mut r = WireReader::new(&buf);
        assert_eq!(TransferConfig::decode(&mut r).unwrap(), config);
        r.finish().unwrap();
        // Every field is required: an encoding cut before `batch_size`,
        // or inside it, is rejected.
        for cut in [buf.len() - 4, buf.len() - 1] {
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
            // Ceiling below the initial window.
            TransferConfig {
                window: 4,
                max_window: 3,
                ..ok
            },
            // Delta fraction above 100 %.
            TransferConfig {
                max_delta_percent: 101,
                ..ok
            },
            TransferConfig {
                max_streams: 0,
                ..ok
            },
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
            TransferConfig {
                batch_size: 0,
                ..ok
            },
            TransferConfig {
                batch_size: crate::me::wire::MAX_BATCH + 1,
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
    }

    #[test]
    fn link_profile_derivation_is_sane() {
        let dc = TransferConfig::for_link(&LinkProfile::datacenter());
        assert!(dc.chunk_size >= MIN_CHUNK_SIZE && dc.chunk_size <= MAX_CHUNK_SIZE);
        assert!(dc.chunk_size.is_power_of_two());
        assert!(dc.window >= 2 && dc.window <= dc.max_window);
        // A faster link gets at least as large a chunk size.
        let local = TransferConfig::for_link(&LinkProfile::local());
        assert!(local.chunk_size >= MIN_CHUNK_SIZE);
    }
}
