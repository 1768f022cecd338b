//! The **telemetry layer** of the Migration Enclave: in-enclave
//! migration counters, the quarantine ledger, and the `TELEMETRY` ECALL
//! that exports them to the untrusted host.
//!
//! Everything exported here is deliberately *public* information: raw
//! counts, link geometry, scheduler deficits, and per-migration **trace
//! ids** — one-way hashes of the transfer nonce computed inside the
//! enclave ([`crate::transfer::chunker::trace_id`]). The nonce itself
//! keys the chunk HMAC chain and never crosses the ECALL boundary.
//!
//! The counters are intentionally **ephemeral** (not part of the
//! `PERSIST` checkpoint): a management-VM restart resets observability
//! state to zero without touching the durable-state wire format, and
//! the host-side recorder keeps its own view across the restart.

use crate::error::MigError;
use crate::me::MigrationEnclave;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

/// In-enclave migration telemetry: monotonic counters plus the ordered
/// ledger of quarantined inbound streams.
#[derive(Debug, Default)]
pub(crate) struct MeTelemetry {
    /// Host-directed incoming-state aborts executed (`ABORT` ECALL;
    /// refusals are not counted).
    pub(crate) aborts_incoming: u64,
    /// Stream announcements dispatched (`ChunkStart` / `DeltaStart`).
    pub(crate) announcements: u64,
    /// Generation-cache entries evicted by the LRU byte budget.
    pub(crate) cache_evictions: u64,
    /// Chunks received and chain-verified (destination side).
    pub(crate) chunks_received: u64,
    /// Chunks re-sealed after a resume rewound the send cursor.
    pub(crate) chunks_retransmitted: u64,
    /// Chunks sealed onto the wire (source side; includes retransmits).
    pub(crate) chunks_sealed: u64,
    /// Delta streams that fell back to a full stream (`DeltaNack` sent
    /// or received, or a deferred base found missing).
    pub(crate) delta_fallbacks: u64,
    /// Inbound streams quarantined on chain-MAC/length evidence.
    pub(crate) quarantines: u64,
    /// Resume requests dispatched after a channel loss.
    pub(crate) resume_requests: u64,
    /// Whole-payload (non-streamed) transfers dispatched.
    pub(crate) singleshot_transfers: u64,
    /// Trace ids of quarantined inbound streams, in quarantine order.
    /// The host diffs this ledger after a rejected `TRANSFER` message to
    /// timestamp quarantine edges without the enclave leaking when.
    pub(crate) quarantined: Vec<[u8; 8]>,
}

impl MeTelemetry {
    /// Counter (name, value) pairs in stable sorted-by-name order.
    fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("me.aborts_incoming", self.aborts_incoming),
            ("me.announcements", self.announcements),
            ("me.cache_evictions", self.cache_evictions),
            ("me.chunks_received", self.chunks_received),
            ("me.chunks_retransmitted", self.chunks_retransmitted),
            ("me.chunks_sealed", self.chunks_sealed),
            ("me.delta_fallbacks", self.delta_fallbacks),
            ("me.quarantines", self.quarantines),
            ("me.resume_requests", self.resume_requests),
            ("me.singleshot_transfers", self.singleshot_transfers),
        ]
    }
}

/// One destination link's live wire-layer gauges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkTelemetry {
    /// The link's destination machine.
    pub destination: MachineId,
    /// Adaptive controller: chunk size the next stream will use.
    pub chunk_size: u32,
    /// Adaptive controller: current send window (chunks in flight).
    pub window: u32,
    /// DRR scheduler deficits, sorted by measurement.
    pub deficits: Vec<(MrEnclave, u64)>,
}

/// The decoded output of the `TELEMETRY` ECALL.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Generation-cache retained bytes (gauge).
    pub cache_bytes: u64,
    /// Per-destination link gauges, sorted by machine id.
    pub links: Vec<LinkTelemetry>,
    /// Quarantined inbound streams' trace ids, in quarantine order.
    pub quarantined: Vec<[u8; 8]>,
}

impl TelemetryReport {
    /// Parses a `TELEMETRY` ECALL output.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        // Every count is bounded by the bytes left (each entry's minimum
        // encoded size), so a forged count cannot reserve memory.
        let mut r = WireReader::new(bytes);
        let n_counters = r.u32()? as usize;
        let mut counters = Vec::with_capacity(n_counters.min(r.remaining() / 12));
        for _ in 0..n_counters {
            let name = String::from_utf8(r.bytes_vec()?).map_err(|_| SgxError::Decode)?;
            let value = r.u64()?;
            counters.push((name, value));
        }
        let cache_bytes = r.u64()?;
        let n_links = r.u32()? as usize;
        let mut links = Vec::with_capacity(n_links.min(r.remaining() / 20));
        for _ in 0..n_links {
            let destination = MachineId(r.u64()?);
            let chunk_size = r.u32()?;
            let window = r.u32()?;
            let n_deficits = r.u32()? as usize;
            let mut deficits = Vec::with_capacity(n_deficits.min(r.remaining() / 40));
            for _ in 0..n_deficits {
                let mr = MrEnclave(r.array()?);
                deficits.push((mr, r.u64()?));
            }
            links.push(LinkTelemetry {
                destination,
                chunk_size,
                window,
                deficits,
            });
        }
        let n_quarantined = r.u32()? as usize;
        let mut quarantined = Vec::with_capacity(n_quarantined.min(r.remaining() / 8));
        for _ in 0..n_quarantined {
            quarantined.push(r.array()?);
        }
        r.finish()?;
        Ok(TelemetryReport {
            counters,
            cache_bytes,
            links,
            quarantined,
        })
    }
}

impl MigrationEnclave {
    /// `TELEMETRY`: exports the enclave's counters, live wire-layer
    /// gauges, and the quarantine ledger. Read-only and always
    /// available (works before provisioning — an unprovisioned ME
    /// reports zeros). Iteration orders are sorted so the export is
    /// byte-identical for identical state.
    pub(super) fn op_telemetry(&self) -> Result<Vec<u8>, MigError> {
        let mut w = WireWriter::new();
        let counters = self.telemetry.counters();
        w.u32(counters.len() as u32);
        for (name, value) in counters {
            w.bytes(name.as_bytes());
            w.u64(value);
        }
        w.u64(self.cache.total_bytes());
        let mut links: Vec<_> = self.shapers.iter().collect();
        links.sort_by_key(|(m, _)| m.0);
        w.u32(links.len() as u32);
        for (destination, shaper) in links {
            w.u64(destination.0);
            w.u32(shaper.adaptive().chunk_size());
            w.u32(shaper.adaptive().window());
            let deficits = shaper.deficits();
            w.u32(deficits.len() as u32);
            for (mr, deficit) in deficits {
                w.array(&mr.0);
                w.u64(deficit);
            }
        }
        w.u32(self.telemetry.quarantined.len() as u32);
        for trace in &self.telemetry.quarantined {
            w.array(trace);
        }
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_round_trips() {
        let me = MigrationEnclave::new();
        let bytes = me.op_telemetry().unwrap();
        let report = TelemetryReport::from_bytes(&bytes).unwrap();
        assert_eq!(report.counters.len(), 10);
        assert!(report.counters.iter().all(|(_, v)| *v == 0));
        assert!(report.links.is_empty() && report.quarantined.is_empty());
        // Counter names arrive sorted (stable export order).
        let names: Vec<&str> = report.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn forged_counts_fail_to_decode_instead_of_reserving_memory() {
        // A 4-byte export claiming u32::MAX counters.
        assert!(matches!(
            TelemetryReport::from_bytes(&u32::MAX.to_le_bytes()),
            Err(SgxError::Decode)
        ));
        // Forged link, deficit and quarantine counts behind valid
        // sections.
        let empty = MigrationEnclave::new().op_telemetry().unwrap();
        let tail = empty.len() - 8; // link count, quarantine count
        for forged in [tail, tail + 4] {
            let mut bytes = empty.clone();
            bytes[forged..forged + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(TelemetryReport::from_bytes(&bytes).is_err());
        }
        let mut link = empty[..tail].to_vec();
        link.extend_from_slice(&1u32.to_le_bytes());
        link.extend_from_slice(&[0; 16]); // destination, chunk size, window
        link.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(TelemetryReport::from_bytes(&link).is_err());
    }

    #[test]
    fn counters_and_quarantine_ledger_survive_the_wire() {
        let mut me = MigrationEnclave::new();
        me.telemetry.chunks_sealed = 7;
        me.telemetry.quarantines = 1;
        me.telemetry.quarantined.push([9; 8]);
        let report = TelemetryReport::from_bytes(&me.op_telemetry().unwrap()).unwrap();
        let get = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("me.chunks_sealed"), Some(7));
        assert_eq!(get("me.quarantines"), Some(1));
        assert_eq!(report.quarantined, vec![[9; 8]]);
    }
}
