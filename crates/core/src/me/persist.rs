//! The **persist layer** of the Migration Enclave: the
//! generation-numbered "me-state" checkpoint codec (sealed for the
//! untrusted host via `PERSIST` / `RESTORE`) and the byte-budgeted,
//! LRU-evicted per-measurement generation cache that backs dirty-page
//! delta transfers.
//!
//! Each cached generation keeps its page-digest tree next to its bytes
//! ([`DigestedState`]), taken from the stream that shipped or received
//! it, so naming a delta base is a compare of generation, length and
//! root, and no cached byte is hashed again while the ME runs.
//!
//! What survives a management-VM restart is exactly what correctness
//! needs: identity and provisioning, every retained outgoing migration
//! with its per-nonce [`StreamProgress`],
//! parked incoming data, partially received inbound streams (their
//! verified prefixes), and the generation cache with its LRU ticks.
//! The checkpoint holds each cached generation's bytes only; `RESTORE`
//! recomputes its tree once, from the bytes it unsealed. Channels,
//! schedulers, link controllers, and the staging of inbound delta
//! streams are ephemeral — rebuilt or renegotiated after the restore.

use crate::error::MigError;
use crate::library::state::MigrationData;
use crate::me::session::{OutgoingMigration, ReceiverFsm, SenderFsm, StreamProgress};
use crate::me::{MeConfig, MigrationEnclave};
use crate::operator::MeCredential;
use crate::policy::MigrationPolicy;
use crate::transfer::chunker::{ChunkAssembler, TransferNonce};
use crate::transfer::delta::{DeltaManifest, DigestedState};
use crate::transfer::TransferConfig;
use mig_crypto::ed25519::{SigningKey, VerifyingKey};
use sgx_sim::enclave::EnclaveEnv;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::seal;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use super::{read_opt, write_opt};

/// The last state generation an ME holds for an enclave measurement —
/// recorded on both ends of every completed streamed transfer so repeat
/// migrations can ship dirty-page deltas against it. The cache is
/// byte-budgeted ([`TransferConfig::cache_budget`]): least-recently-used
/// entries are evicted, and an evicted base simply falls back to a full
/// stream via the `DeltaNack` path.
pub(crate) struct CachedGeneration {
    pub(crate) generation: u64,
    /// The generation's bytes and page-digest tree.
    pub(crate) state: DigestedState,
    /// LRU tick of the last insert or delta-base use (persisted so the
    /// eviction order survives restarts).
    pub(crate) last_used: u64,
}

/// Evicts least-recently-used entries from a generation cache until the
/// retained state fits `budget` bytes (the [`TransferConfig::cache_budget`]
/// bound on the ME's delta-base memory and sealed-checkpoint footprint).
///
/// Entries in `pinned` are never evicted: an in-flight delta stream's
/// base must survive until the stream completes — a restarted ME
/// rebuilds the delta payload from it, and unlike the destination
/// (which NACKs a missing base back to a full stream) the source has no
/// fallback once the delta is announced. The budget may be exceeded
/// transiently while such streams are active.
///
/// Returns the number of entries evicted (telemetry).
fn evict_lru(
    cache: &mut HashMap<MrEnclave, CachedGeneration>,
    budget: u64,
    pinned: &HashSet<MrEnclave>,
) -> u64 {
    let mut total: u64 = cache.values().map(|c| c.state.bytes().len() as u64).sum();
    let mut evicted = 0;
    while total > budget {
        let Some((victim, len)) = cache
            .iter()
            .filter(|(mr, _)| !pinned.contains(*mr))
            .min_by_key(|(_, c)| c.last_used)
            .map(|(mr, c)| (*mr, c.state.bytes().len() as u64))
        else {
            break;
        };
        cache.remove(&victim);
        total -= len;
        evicted += 1;
    }
    evicted
}

/// The per-measurement generation cache plus its monotonic LRU clock.
#[derive(Default)]
pub(crate) struct GenerationCache {
    entries: HashMap<MrEnclave, CachedGeneration>,
    clock: u64,
}

impl GenerationCache {
    pub(crate) fn get(&self, mr: &MrEnclave) -> Option<&CachedGeneration> {
        self.entries.get(mr)
    }

    pub(crate) fn remove(&mut self, mr: &MrEnclave) {
        self.entries.remove(mr);
    }

    /// Bumps the LRU clock and re-stamps `mr`'s entry (called on every
    /// delta-base use so hot bases survive the byte budget).
    pub(crate) fn touch(&mut self, mr: &MrEnclave) {
        self.clock += 1;
        let tick = self.clock;
        if let Some(cached) = self.entries.get_mut(mr) {
            cached.last_used = tick;
        }
    }

    /// Inserts a generation and evicts least-recently-used entries
    /// beyond `budget` (entries in `pinned` survive). An entry larger
    /// than the whole budget is itself evicted — the next repeat
    /// migration then simply streams in full. Returns how many entries
    /// the insert evicted (telemetry).
    pub(crate) fn insert(
        &mut self,
        mr: MrEnclave,
        generation: u64,
        state: DigestedState,
        budget: u64,
        pinned: &HashSet<MrEnclave>,
    ) -> u64 {
        self.clock += 1;
        self.entries.insert(
            mr,
            CachedGeneration {
                generation,
                state,
                last_used: self.clock,
            },
        );
        evict_lru(&mut self.entries, budget, pinned)
    }

    /// Total retained state bytes across every cached generation (the
    /// quantity [`evict_lru`] bounds; exported as a telemetry gauge).
    pub(crate) fn total_bytes(&self) -> u64 {
        self.entries
            .values()
            .map(|c| c.state.bytes().len() as u64)
            .sum()
    }

    /// The retained entry for `mr` iff it content-addresses the base
    /// named by `manifest`: generation number, length, AND page-digest
    /// root must match (generations renumber after a fallback reset, so
    /// the number alone is not identity). The root is the cached one;
    /// nothing is hashed.
    pub(crate) fn delta_base(
        &self,
        mr: &MrEnclave,
        manifest: &DeltaManifest,
    ) -> Option<&CachedGeneration> {
        self.entries.get(mr).filter(|c| {
            c.generation == manifest.base_generation
                && c.state.bytes().len() as u64 == manifest.base_len
                && mig_crypto::ct::ct_eq(&c.state.digests().root(), &manifest.base_digest)
        })
    }

    fn encode(&self, w: &mut WireWriter) {
        w.u32(self.entries.len() as u32);
        for (mr, cached) in &self.entries {
            w.array(&mr.0);
            w.u64(cached.generation);
            w.u64(cached.last_used);
            w.bytes(cached.state.bytes());
        }
        w.u64(self.clock);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, SgxError> {
        let n = r.u32()? as usize;
        let mut entries = HashMap::new();
        for _ in 0..n {
            let mr = MrEnclave(r.array()?);
            let generation = r.u64()?;
            let last_used = r.u64()?;
            // The checkpoint carries bytes only: rebuild the tree from
            // what was unsealed.
            let state = DigestedState::new(r.bytes()?);
            entries.insert(
                mr,
                CachedGeneration {
                    generation,
                    state,
                    last_used,
                },
            );
        }
        let clock = r.u64()?;
        Ok(GenerationCache { entries, clock })
    }
}

impl MigrationEnclave {
    /// Inserts a generation into the per-measurement cache under the
    /// provisioned byte budget. Bases referenced by announced-but-
    /// incomplete delta streams are pinned: the stream's payload is
    /// rebuilt from them on restore.
    pub(crate) fn cache_insert(&mut self, mr: MrEnclave, generation: u64, state: DigestedState) {
        let budget = self
            .config
            .as_ref()
            .map_or(u64::MAX, |c| c.transfer.cache_budget);
        let pinned: HashSet<MrEnclave> = self
            .outgoing
            .iter()
            .filter(|(_, mig)| {
                mig.fsm
                    .stream()
                    .is_some_and(|s| s.delta_base().is_some() && !s.complete())
            })
            .map(|(mr, _)| *mr)
            .collect();
        let evicted = self.cache.insert(mr, generation, state, budget, &pinned);
        self.telemetry.cache_evictions += evicted;
    }

    /// AAD tag binding sealed ME-state blobs.
    const STATE_AAD: &'static [u8] = b"sgx-migrate.me-state.v1";

    pub(super) fn op_persist(&mut self, env: &mut EnclaveEnv<'_>) -> Result<Vec<u8>, MigError> {
        let signing = self.signing()?;
        let cfg = self.config()?;
        // The plaintext is written behind the sealed blob's reserved
        // header and sealed where it lies.
        let mut w = WireWriter::from_vec(vec![0; seal::sealed_header_len(Self::STATE_AAD.len())]);
        w.array(signing.seed());
        w.bytes(&cfg.credential.to_bytes());
        w.array(&cfg.operator_root.0);
        w.array(&cfg.ias_key.0);
        w.bytes(&cfg.policy.to_bytes());
        cfg.transfer.encode(&mut w);
        w.u32(self.outgoing.len() as u32);
        for (mr, mig) in &self.outgoing {
            w.array(&mr.0);
            w.u64(mig.destination.0);
            w.bytes(&mig.data.to_bytes());
            w.bytes(&mig.state);
            match mig.fsm.stream() {
                None => {
                    w.u8(0);
                }
                Some(stream) => {
                    w.u8(1);
                    w.array(&stream.nonce());
                    w.u32(stream.chunk_size);
                    w.u64(stream.payload_len);
                    w.u64(stream.generation);
                    match stream.delta_base {
                        None => {
                            w.u8(0);
                        }
                        Some(base) => {
                            w.u8(1);
                            w.u64(base);
                        }
                    }
                    w.u32(stream.acked);
                }
            }
        }
        w.u32(self.pending_incoming.len() as u32);
        for (mr, (data, state, source)) in &self.pending_incoming {
            w.array(&mr.0);
            w.bytes(&data.to_bytes());
            w.bytes(state);
            w.u64(source.0);
        }
        w.u32(self.inbound.len() as u32);
        for (nonce, fsm) in &self.inbound {
            w.array(nonce);
            w.u64(fsm.source().0);
            w.array(&fsm.mr_enclave().0);
            w.bytes(&fsm.data().to_bytes());
            w.bytes(&fsm.assembler_bytes());
            w.u64(fsm.generation());
            write_opt(
                &mut w,
                fsm.delta_manifest().map(DeltaManifest::to_bytes).as_deref(),
            );
        }
        self.cache.encode(&mut w);
        let mut blob = w.finish();
        env.seal_data_in_place(
            sgx_sim::cpu::KeyPolicy::MrEnclave,
            Self::STATE_AAD,
            &mut blob,
            0,
        );
        Ok(blob)
    }

    pub(super) fn op_restore(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let (plaintext, aad) = env.unseal_data(input)?;
        if aad != Self::STATE_AAD {
            return Err(MigError::Sgx(SgxError::Decode));
        }
        let mut r = WireReader::new(&plaintext);
        let seed: [u8; 32] = r.array()?;
        let credential = MeCredential::from_bytes(r.bytes()?)?;
        let operator_root = VerifyingKey(r.array()?);
        let ias_key = VerifyingKey(r.array()?);
        let policy = MigrationPolicy::from_bytes(r.bytes()?)?;
        let transfer = TransferConfig::decode(&mut r)?;
        let n_outgoing = r.u32()? as usize;
        let mut outgoing = HashMap::new();
        for _ in 0..n_outgoing {
            let mr = MrEnclave(r.array()?);
            let destination = MachineId(r.u64()?);
            let data = MigrationData::from_bytes(r.bytes()?)?;
            let state = Arc::from(r.bytes()?);
            let stream = match r.u8()? {
                0 => None,
                1 => {
                    let nonce: TransferNonce = r.array()?;
                    let chunk_size = r.u32()?;
                    let payload_len = r.u64()?;
                    let generation = r.u64()?;
                    let delta_base = match r.u8()? {
                        0 => None,
                        1 => Some(r.u64()?),
                        _ => return Err(MigError::Sgx(SgxError::Decode)),
                    };
                    let acked = r.u32()?;
                    // Anything past the last ack may be lost in flight;
                    // resend from there.
                    Some(StreamProgress::restored(
                        nonce,
                        chunk_size,
                        payload_len,
                        generation,
                        delta_base,
                        acked,
                    ))
                }
                _ => return Err(MigError::Sgx(SgxError::Decode)),
            };
            // Not yet confirmed delivered: rewind to Idle so a retry
            // re-dispatches it (resuming the stream) over a fresh
            // channel.
            outgoing.insert(
                mr,
                OutgoingMigration {
                    destination,
                    data,
                    state,
                    fsm: SenderFsm::Idle { stream },
                },
            );
        }
        let n_pending = r.u32()? as usize;
        let mut pending_incoming = HashMap::new();
        for _ in 0..n_pending {
            let mr = MrEnclave(r.array()?);
            let data = MigrationData::from_bytes(r.bytes()?)?;
            let state: Arc<[u8]> = Arc::from(r.bytes()?);
            let source = MachineId(r.u64()?);
            pending_incoming.insert(mr, (data, state, source));
        }
        let n_inbound = r.u32()? as usize;
        let mut inbound_parts = Vec::with_capacity(n_inbound);
        for _ in 0..n_inbound {
            let nonce: TransferNonce = r.array()?;
            let source = MachineId(r.u64()?);
            let mr_enclave = MrEnclave(r.array()?);
            let data = MigrationData::from_bytes(r.bytes()?)?;
            let assembler = ChunkAssembler::from_bytes(r.bytes()?)?;
            let generation = r.u64()?;
            let manifest = read_opt(&mut r)?
                .map(DeltaManifest::from_bytes)
                .transpose()?;
            inbound_parts.push((
                nonce, source, mr_enclave, data, assembler, generation, manifest,
            ));
        }
        let cache = GenerationCache::decode(&mut r)?;
        r.finish()?;

        let signing = SigningKey::from_seed(seed);
        if credential.me_key != signing.verifying_key() {
            return Err(MigError::PeerAuthenticationFailed(
                "restored credential does not match key",
            ));
        }
        credential.verify(&operator_root)?;

        // Inbound streams come back with their staging rebuilt: the
        // verified prefix is re-absorbed onto the base when it survived
        // (its root re-derived from the restored bytes); otherwise the
        // stream falls back to the deferred-apply path.
        let mut inbound = HashMap::new();
        for (nonce, source, mr_enclave, data, assembler, generation, manifest) in inbound_parts {
            let base = manifest
                .as_ref()
                .and_then(|m| cache.delta_base(&mr_enclave, m))
                .map(|c| &c.state);
            inbound.insert(
                nonce,
                ReceiverFsm::restore(
                    source, mr_enclave, data, generation, assembler, manifest, base,
                ),
            );
        }

        self.signing = Some(signing);
        self.config = Some(MeConfig {
            operator_root,
            ias_key,
            credential,
            policy,
            transfer,
        });
        self.outgoing = outgoing;
        self.pending_incoming = pending_incoming;
        self.inbound = inbound;
        self.cache = cache;
        self.out_streams.clear();
        // Wire-layer state (adaptive links, scheduler rounds, cells) is
        // ephemeral: re-seeded from the provisioned config on the next
        // stream.
        self.shapers.clear();
        Ok(vec![])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(len: usize, last_used: u64) -> CachedGeneration {
        CachedGeneration {
            generation: 0,
            state: DigestedState::new(vec![0u8; len]),
            last_used,
        }
    }

    fn no_pins() -> HashSet<MrEnclave> {
        HashSet::new()
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let mut cache = HashMap::new();
        cache.insert(MrEnclave([1; 32]), entry(100, 1));
        cache.insert(MrEnclave([2; 32]), entry(100, 3));
        cache.insert(MrEnclave([3; 32]), entry(100, 2));
        evict_lru(&mut cache, 200, &no_pins());
        assert!(!cache.contains_key(&MrEnclave([1; 32])), "oldest evicted");
        assert!(cache.contains_key(&MrEnclave([2; 32])));
        assert!(cache.contains_key(&MrEnclave([3; 32])));
        // A touch (fresher tick) protects an entry from the next round.
        cache.get_mut(&MrEnclave([3; 32])).unwrap().last_used = 4;
        evict_lru(&mut cache, 100, &no_pins());
        assert!(cache.contains_key(&MrEnclave([3; 32])));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_drops_oversized_sole_entry() {
        let mut cache = HashMap::new();
        cache.insert(MrEnclave([1; 32]), entry(500, 1));
        evict_lru(&mut cache, 400, &no_pins());
        assert!(cache.is_empty(), "an entry larger than the budget goes too");
        // Zero entries never loop.
        evict_lru(&mut cache, 0, &no_pins());
    }

    #[test]
    fn lru_eviction_never_evicts_pinned_bases() {
        // An in-flight delta stream's base must survive even over
        // budget; the next-oldest unpinned entry goes instead, and if
        // everything left is pinned the budget is exceeded transiently.
        let mut cache = HashMap::new();
        cache.insert(MrEnclave([1; 32]), entry(100, 1)); // oldest, pinned
        cache.insert(MrEnclave([2; 32]), entry(100, 2));
        cache.insert(MrEnclave([3; 32]), entry(100, 3));
        let pinned: HashSet<MrEnclave> = [MrEnclave([1; 32])].into_iter().collect();
        evict_lru(&mut cache, 200, &pinned);
        assert!(cache.contains_key(&MrEnclave([1; 32])), "pinned survives");
        assert!(!cache.contains_key(&MrEnclave([2; 32])), "next LRU goes");
        evict_lru(&mut cache, 50, &pinned);
        assert!(
            cache.contains_key(&MrEnclave([1; 32])),
            "pinned survives even a budget it alone exceeds"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_cache_touch_and_content_addressing() {
        use crate::transfer::delta::PageDigests;
        let mut cache = GenerationCache::default();
        let state = DigestedState::new(vec![7u8; 8192]);
        cache.insert(MrEnclave([1; 32]), 4, state.clone(), u64::MAX, &no_pins());
        cache.touch(&MrEnclave([1; 32]));
        assert_eq!(cache.get(&MrEnclave([1; 32])).unwrap().last_used, 2);
        // delta_base is content-addressed: generation AND root.
        let new = PageDigests::compute(&[8u8; 8192]);
        let manifest = DeltaManifest::new(4, 5, state.digests(), &new, vec![0, 1]);
        assert!(cache.delta_base(&MrEnclave([1; 32]), &manifest).is_some());
        let mut wrong_gen = manifest.clone();
        wrong_gen.base_generation = 9;
        assert!(cache.delta_base(&MrEnclave([1; 32]), &wrong_gen).is_none());
        let mut wrong_digest = manifest;
        wrong_digest.base_digest[0] ^= 1;
        assert!(cache
            .delta_base(&MrEnclave([1; 32]), &wrong_digest)
            .is_none());
    }

    #[test]
    fn restored_cache_rederives_each_root_from_its_bytes() {
        // Bytes that change while outside the enclave (here: between
        // encode and decode) come back with the tree of what was read,
        // so a base whose bytes were altered behind its old digests no
        // longer matches a manifest naming the old root.
        use crate::transfer::delta::PageDigests;
        let mut cache = GenerationCache::default();
        let state = DigestedState::new(vec![7u8; 8192]);
        cache.insert(MrEnclave([1; 32]), 4, state.clone(), u64::MAX, &no_pins());
        let new = PageDigests::compute(&[8u8; 8192]);
        let manifest = DeltaManifest::new(4, 5, state.digests(), &new, vec![0, 1]);
        let mut w = WireWriter::new();
        cache.encode(&mut w);
        let mut bytes = w.finish();

        let mut r = WireReader::new(&bytes);
        let restored = GenerationCache::decode(&mut r).unwrap();
        let base = restored.delta_base(&MrEnclave([1; 32]), &manifest).unwrap();
        assert_eq!(base.state.digests(), state.digests());

        // Flip the last state byte (the encoding ends with the clock).
        let at = bytes.len() - 8 - 1;
        bytes[at] ^= 1;
        let mut r = WireReader::new(&bytes);
        let altered = GenerationCache::decode(&mut r).unwrap();
        let cached = altered.get(&MrEnclave([1; 32])).unwrap();
        assert_eq!(
            cached.state.digests(),
            &PageDigests::compute(cached.state.bytes())
        );
        assert!(altered.delta_base(&MrEnclave([1; 32]), &manifest).is_none());
    }
}
