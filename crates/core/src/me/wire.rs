//! The **wire layer** of the Migration Enclave: how the messages sent
//! to one destination link are sealed and paced.
//!
//! This module owns the `TRANSFER` frame — one channel-sealed message,
//! built by `seal_cell` — the per-destination [`AdaptiveLink`]
//! chunk/window controller, and the [`DrrScheduler`] apportioning the
//! shared link window among concurrent streams. Every message a source
//! ME sends to a destination ME travels sealed on its own, one
//! destination ECALL per message. Frames travel at their natural size:
//! links deliver in send order, so the channel's sequence numbers need
//! no help from the frame layout.

use crate::error::MigError;
use crate::msgs::MeToMe;
use crate::secure_channel::SecureChannel;
use crate::transfer::chunker::ChunkStream;
use crate::transfer::delta::PAGE_SIZE;
use crate::transfer::{TransferConfig, MAX_WINDOW, MIN_CHUNK_SIZE};
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::WireWriter;
use std::collections::HashMap;
use std::hash::Hash;

/// One message of a send burst, encoded where it is sealed.
pub(crate) enum Cell<'a> {
    /// A whole message: a single-shot `Transfer`, a `ResumeRequest` or
    /// an announcement.
    Msg(&'a MeToMe),
    /// Chunk `idx` of a stream, encoded from the stream's shared buffer.
    Chunk(&'a ChunkStream, u32),
}

impl Cell<'_> {
    fn len(&self) -> usize {
        match self {
            Cell::Msg(msg) => msg.encoded_len(),
            Cell::Chunk(stream, idx) => MeToMe::chunk_len(stream.chunk(*idx).0.len()),
        }
    }

    fn encode(&self, w: &mut WireWriter) {
        match self {
            Cell::Msg(msg) => msg.encode(w),
            Cell::Chunk(stream, idx) => {
                let (payload, mac) = stream.chunk(*idx);
                MeToMe::write_chunk(w, &stream.nonce(), *idx, payload, &mac);
            }
        }
    }
}

/// Seals `cell` into the body of one `TRANSFER` frame, allocated at its
/// final size: the message is encoded straight into the buffer and
/// sealed where it lies, so a chunk is copied once, from the stream into
/// the frame.
///
/// # Errors
///
/// [`MigError::Transfer`] if the sealed message exceeds the wire's `u32`
/// length.
pub(crate) fn seal_cell(channel: &mut SecureChannel, cell: &Cell<'_>) -> Result<Vec<u8>, MigError> {
    let len = cell.len();
    u32::try_from(len + TAG_LEN).map_err(|_| MigError::Transfer("message exceeds wire limit"))?;
    let mut w = WireWriter::with_capacity(len + TAG_LEN);
    cell.encode(&mut w);
    let mut sealed = w.finish();
    channel.seal_in_place(&mut sealed, 0);
    Ok(sealed)
}

/// Per-destination adaptive chunk/window controller.
///
/// Seeded from the provisioned [`TransferConfig`], then driven by the
/// observed link behaviour: every clean cumulative ack grows the send
/// window by one (up to [`MAX_WINDOW`], or the provisioned window if
/// that is larger) — additive increase keeps the pipe filling on a
/// healthy link — and every disruption (a `Resume` renegotiation after
/// a crash or loss) halves
/// the chunk size, rounded down to whole pages (floor
/// [`MIN_CHUNK_SIZE`], one page), and resets the window to
/// the provisioned base, so a flaky link retransmits less per loss.
/// New streams pick up the controller's current values; a mid-flight
/// stream keeps the geometry it was announced with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveLink {
    base_window: u32,
    max_window: u32,
    chunk_size: u32,
    window: u32,
}

impl AdaptiveLink {
    /// Seeds a controller from the provisioned config.
    #[must_use]
    pub fn new(config: &TransferConfig) -> Self {
        AdaptiveLink {
            base_window: config.window,
            max_window: MAX_WINDOW.max(config.window),
            chunk_size: config.chunk_size.max(MIN_CHUNK_SIZE),
            window: config.window,
        }
    }

    /// Chunk size the next stream to this destination will use.
    #[must_use]
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// Current send window (chunks in flight).
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// A cumulative ack arrived in order: grow the window additively.
    pub fn on_clean_ack(&mut self) {
        self.window = self.window.saturating_add(1).min(self.max_window);
    }

    /// The stream was disrupted (resume renegotiation): halve the chunk
    /// size to a whole number of pages and fall back to the provisioned
    /// window.
    pub fn on_disruption(&mut self) {
        let half = self.chunk_size / 2;
        self.chunk_size = (half - half % PAGE_SIZE).max(MIN_CHUNK_SIZE);
        self.window = self.base_window;
    }
}

/// One stream's appetite in a [`DrrScheduler::allocate`] round: how many
/// chunks it still wants to put on the wire and what one chunk costs in
/// bytes (its announced chunk size — streams announced under different
/// link conditions carry different geometry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamDemand {
    /// Chunks the stream could send right now (unsent, inside the
    /// payload).
    pub pending_chunks: u32,
    /// Wire cost of one chunk in bytes.
    pub chunk_cost: u64,
}

/// Deficit-round-robin scheduler apportioning a shared per-destination
/// link budget among concurrently multiplexed chunk streams.
///
/// Classic DRR (Shreedhar & Varghese): every ready stream accrues one
/// `quantum` of byte credit per round and spends it on whole chunks; the
/// leftover deficit carries into the next round, so a stream with small
/// chunks is not systematically out-scheduled by one with large chunks,
/// and a 64 MiB migration cannot starve a 64 KiB one — each gets its
/// proportional share of every refill. State (round-robin order, cursor,
/// deficits) persists across calls for long-run fairness but is
/// deliberately ephemeral in the ME: after a restart the first refill
/// simply starts a fresh round.
#[derive(Debug)]
pub struct DrrScheduler<K: Copy + Eq + Hash> {
    order: Vec<K>,
    cursor: usize,
    deficit: HashMap<K, u64>,
}

impl<K: Copy + Eq + Hash> Default for DrrScheduler<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash> DrrScheduler<K> {
    /// Creates an empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        DrrScheduler {
            order: Vec::new(),
            cursor: 0,
            deficit: HashMap::new(),
        }
    }

    /// Synchronizes the round-robin ring with the currently active
    /// streams: departed keys drop out (with their deficit), new keys
    /// join at the end of the ring.
    fn sync(&mut self, demands: &[(K, StreamDemand)]) {
        let cursor_key = self.order.get(self.cursor).copied();
        self.order.retain(|k| demands.iter().any(|(dk, _)| dk == k));
        self.deficit
            .retain(|k, _| demands.iter().any(|(dk, _)| dk == k));
        for (k, _) in demands {
            if !self.order.contains(k) {
                self.order.push(*k);
            }
        }
        self.cursor = cursor_key
            .and_then(|k| self.order.iter().position(|o| *o == k))
            .unwrap_or(0);
        if self.order.is_empty() {
            self.cursor = 0;
        } else {
            self.cursor %= self.order.len();
        }
    }

    /// Distributes a budget of `budget_chunks` send slots over the
    /// demanding streams, returning the emission order (one entry per
    /// granted chunk, interleaved the way the frames should hit the
    /// wire).
    pub fn allocate(&mut self, mut budget_chunks: u32, demands: &[(K, StreamDemand)]) -> Vec<K> {
        self.sync(demands);
        let mut pending: HashMap<K, u32> = demands
            .iter()
            .map(|(k, d)| (*k, d.pending_chunks))
            .collect();
        let cost: HashMap<K, u64> = demands.iter().map(|(k, d)| (*k, d.chunk_cost)).collect();
        // One quantum lets the hungriest stream send at least one chunk
        // per round, so every round makes progress.
        let quantum = demands
            .iter()
            .filter(|(_, d)| d.pending_chunks > 0)
            .map(|(_, d)| d.chunk_cost)
            .max()
            .unwrap_or(0);
        let mut grants = Vec::new();
        if quantum == 0 || self.order.is_empty() {
            return grants;
        }
        while budget_chunks > 0 && pending.values().any(|p| *p > 0) {
            // mig-lint: allow(enclave-panic, "cursor is maintained mod order.len() and order is non-empty (checked above)")
            let key = self.order[self.cursor];
            self.cursor = (self.cursor + 1) % self.order.len();
            let p = pending.entry(key).or_insert(0);
            if *p == 0 {
                // An idle stream carries no credit into its next busy
                // period (standard DRR: deficit resets when the queue
                // empties).
                self.deficit.insert(key, 0);
                continue;
            }
            let c = cost.get(&key).copied().unwrap_or(quantum).max(1);
            let deficit = self.deficit.entry(key).or_insert(0);
            *deficit += quantum;
            while *deficit >= c && *p > 0 && budget_chunks > 0 {
                grants.push(key);
                *deficit -= c;
                *p -= 1;
                budget_chunks -= 1;
            }
            if *p == 0 {
                *deficit = 0;
            }
        }
        grants
    }
}

/// Everything the wire layer tracks for one destination link: the
/// [`AdaptiveLink`] chunk/window controller and the [`DrrScheduler`]
/// sharing the window among concurrent streams.
///
/// Lifecycles differ deliberately: the adaptive controller is link
/// memory that survives a `RETRY` reconnect ([`LinkShaper::reset_scheduler`]
/// keeps it), while the scheduler belongs to the old channel and is
/// reset. The whole shaper is ephemeral across an ME restart —
/// re-seeded from the provisioned config on the next stream.
#[derive(Debug)]
pub struct LinkShaper {
    adaptive: AdaptiveLink,
    scheduler: DrrScheduler<MrEnclave>,
}

impl LinkShaper {
    /// Seeds a shaper for a fresh destination link.
    #[must_use]
    pub fn new(config: &TransferConfig) -> Self {
        LinkShaper {
            adaptive: AdaptiveLink::new(config),
            scheduler: DrrScheduler::new(),
        }
    }

    /// The adaptive chunk/window controller.
    #[must_use]
    pub fn adaptive(&self) -> &AdaptiveLink {
        &self.adaptive
    }

    /// Mutable access to the adaptive controller (ack/disruption
    /// feedback).
    pub fn adaptive_mut(&mut self) -> &mut AdaptiveLink {
        &mut self.adaptive
    }

    /// Drops the scheduler round bound to a dead channel while keeping
    /// the adaptive link memory — the `RETRY` path: in-flight frames
    /// died with the channel, but the link's observed behaviour did not
    /// change.
    pub fn reset_scheduler(&mut self) {
        self.scheduler = DrrScheduler::new();
    }

    /// Deficit-round-robin share-out of `budget` send slots over the
    /// ready streams (see [`DrrScheduler::allocate`]).
    pub fn allocate(
        &mut self,
        budget: u32,
        demands: &[(MrEnclave, StreamDemand)],
    ) -> Vec<MrEnclave> {
        self.scheduler.allocate(budget, demands)
    }

    /// The scheduler's carried byte deficits, sorted by measurement for
    /// deterministic export (telemetry gauges).
    #[must_use]
    pub fn deficits(&self) -> Vec<(MrEnclave, u64)> {
        let mut deficits: Vec<(MrEnclave, u64)> = self
            .scheduler
            .deficit
            .iter()
            .map(|(mr, d)| (*mr, *d))
            .collect();
        deficits.sort_by_key(|(mr, _)| mr.0);
        deficits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_cells_match_sequential_seals_and_open_in_order() {
        use crate::secure_channel::ChannelRole;
        let msgs: Vec<MeToMe> = (0..2u8)
            .map(|i| MeToMe::ChunkAck {
                nonce: [i; 16],
                upto: u32::from(i),
            })
            .collect();
        let stream = ChunkStream::new([9; 16], 4096, vec![3u8; 10_000]);
        let mut cells: Vec<Cell<'_>> = msgs.iter().map(Cell::Msg).collect();
        cells.extend((0..stream.n_chunks()).map(|idx| Cell::Chunk(&stream, idx)));
        let plaintexts: Vec<Vec<u8>> = cells
            .iter()
            .map(|cell| {
                let mut w = WireWriter::new();
                cell.encode(&mut w);
                w.finish()
            })
            .collect();
        // Oracle: each message sealed from its encoding, in order.
        let mut oracle = SecureChannel::new([9; 16], ChannelRole::Initiator);
        let mut sender = SecureChannel::new([9; 16], ChannelRole::Initiator);
        let mut receiver = SecureChannel::new([9; 16], ChannelRole::Responder);
        for (cell, plaintext) in cells.iter().zip(&plaintexts) {
            let sealed = seal_cell(&mut sender, cell).unwrap();
            assert_eq!(sealed, oracle.seal(plaintext));
            assert_eq!(sealed.capacity(), sealed.len(), "allocated once");
            // The receiver opens the messages back out in seal order.
            assert_eq!(&receiver.open(&sealed).unwrap(), plaintext);
        }
        assert_eq!(MeToMe::from_bytes(&plaintexts[1]).unwrap(), msgs[1]);
    }

    fn demand(pending: u32, cost: u64) -> StreamDemand {
        StreamDemand {
            pending_chunks: pending,
            chunk_cost: cost,
        }
    }

    #[test]
    fn drr_shares_budget_evenly_between_equal_streams() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        let grants = sched.allocate(8, &[(1, demand(100, 4096)), (2, demand(100, 4096))]);
        assert_eq!(grants.len(), 8);
        let a = grants.iter().filter(|k| **k == 1).count();
        let b = grants.iter().filter(|k| **k == 2).count();
        assert_eq!((a, b), (4, 4), "equal streams split the budget evenly");
        // Emission interleaves rather than bursting one stream.
        assert_ne!(grants[0], grants[1]);
    }

    #[test]
    fn drr_small_stream_finishes_inside_large_stream_refills() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        // A 256-chunk elephant and a 4-chunk mouse: the mouse drains in
        // the very first window.
        let grants = sched.allocate(8, &[(1, demand(256, 65536)), (2, demand(4, 65536))]);
        assert_eq!(grants.iter().filter(|k| **k == 2).count(), 4);
        assert_eq!(grants.iter().filter(|k| **k == 1).count(), 4);
    }

    #[test]
    fn drr_is_work_conserving() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        // One stream has little to send; the other absorbs the leftover.
        let grants = sched.allocate(10, &[(1, demand(2, 4096)), (2, demand(100, 4096))]);
        assert_eq!(grants.iter().filter(|k| **k == 1).count(), 2);
        assert_eq!(grants.iter().filter(|k| **k == 2).count(), 8);
    }

    #[test]
    fn drr_deficit_compensates_unequal_chunk_costs() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        // Stream 1 carries 64 KiB chunks, stream 2 16 KiB chunks: over a
        // large budget, stream 2 must get ~4x the chunks (equal bytes).
        let grants = sched.allocate(
            100,
            &[(1, demand(1000, 64 * 1024)), (2, demand(1000, 16 * 1024))],
        );
        let a = grants.iter().filter(|k| **k == 1).count() as f64;
        let b = grants.iter().filter(|k| **k == 2).count() as f64;
        assert!(
            (b / a - 4.0).abs() < 0.5,
            "byte-fair split expected ~1:4 chunks, got {a}:{b}"
        );
    }

    #[test]
    fn drr_survives_departures_and_arrivals() {
        let mut sched: DrrScheduler<u8> = DrrScheduler::new();
        let _ = sched.allocate(4, &[(1, demand(10, 4096)), (2, demand(10, 4096))]);
        // Stream 1 departs, stream 3 arrives; allocation stays sane.
        let grants = sched.allocate(4, &[(2, demand(10, 4096)), (3, demand(10, 4096))]);
        assert_eq!(grants.len(), 4);
        assert!(grants.iter().all(|k| *k == 2 || *k == 3));
        // Empty demand yields nothing and does not spin.
        assert!(sched.allocate(4, &[]).is_empty());
        assert!(sched.allocate(0, &[(2, demand(1, 4096))]).is_empty());
    }

    #[test]
    fn adaptive_link_grows_on_acks_and_shrinks_on_disruption() {
        let config = TransferConfig {
            chunk_size: 64 * 1024,
            window: 2,
            ..TransferConfig::default()
        };
        let mut link = AdaptiveLink::new(&config);
        assert_eq!((link.chunk_size(), link.window()), (64 * 1024, 2));
        for _ in 0..2 * MAX_WINDOW {
            link.on_clean_ack();
        }
        assert_eq!(link.window(), MAX_WINDOW, "window capped at MAX_WINDOW");
        link.on_disruption();
        assert_eq!(link.chunk_size(), 32 * 1024, "chunk size halves");
        assert_eq!(link.window(), 2, "window resets to provisioned base");
        for _ in 0..20 {
            link.on_disruption();
        }
        assert_eq!(
            link.chunk_size(),
            MIN_CHUNK_SIZE,
            "floored at MIN_CHUNK_SIZE"
        );
    }

    #[test]
    fn adaptive_link_halves_to_whole_pages() {
        let config = TransferConfig {
            chunk_size: 7 * PAGE_SIZE,
            ..TransferConfig::default()
        };
        let mut link = AdaptiveLink::new(&config);
        link.on_disruption();
        assert_eq!(link.chunk_size(), 3 * PAGE_SIZE, "3.5 pages round down");
        link.on_disruption();
        assert_eq!(link.chunk_size(), PAGE_SIZE, "1.5 pages round down");
    }

    #[test]
    fn adaptive_window_saturates_at_u32_max() {
        // A provisioned window already at the u32 ceiling must neither
        // overflow (a panic in checked builds) nor wrap to 0 (a stalled
        // stream in release builds).
        let config = TransferConfig {
            window: u32::MAX,
            ..TransferConfig::default()
        };
        let mut link = AdaptiveLink::new(&config);
        link.on_clean_ack();
        assert_eq!(link.window(), u32::MAX);
    }

    #[test]
    fn link_shaper_reset_keeps_adaptive_memory() {
        let mut shaper = LinkShaper::new(&TransferConfig::default());
        // A retry keeps the adaptive memory but clears the scheduler.
        shaper.adaptive_mut().on_disruption();
        let chunk = shaper.adaptive().chunk_size();
        shaper.reset_scheduler();
        assert_eq!(shaper.adaptive().chunk_size(), chunk);
    }
}
