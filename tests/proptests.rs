//! Property-based tests over the full migration stack.
//!
//! These drive randomized operation sequences (increments, restarts,
//! migrations, seal/unseal cycles) through the simulated datacenter and
//! check the paper's core invariants: effective counter continuity,
//! sealed-data portability, and wire-format round-trips.

use cloud_sim::machine::MachineLabels;
use mig_core::datacenter::Datacenter;
use mig_core::harness::{AppCtx, AppLogic};
use mig_core::library::state::{LibraryState, MigrationData, COUNTER_SLOTS};
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::chunker::{chunk_count, ChunkAssembler, ChunkStream};
use mig_core::transfer::delta::{self, DeltaManifest, DigestedState};
use parking_lot::Mutex;
use proptest::prelude::*;
use sgx_sim::counters::CounterUuid;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::SgxError;
use std::sync::Arc;

struct PropApp;

/// The delta from `base` to `new` as a source ME builds it: the manifest
/// and the packed dirty pages (their leaves hashed here, as the
/// payload's chunk stream hashes them).
fn delta_of(
    base: &DigestedState,
    base_generation: u64,
    new_generation: u64,
    new: &[u8],
) -> (DeltaManifest, Vec<u8>) {
    let (dirty, payload) = delta::diff(base.bytes(), new);
    let leaves: Vec<_> = delta::page_leaves(&payload).collect();
    let digests = base
        .digests()
        .patch(new.len() as u64, &dirty, &leaves)
        .unwrap();
    let manifest = DeltaManifest::new(
        base_generation,
        new_generation,
        base.digests(),
        &digests,
        dirty,
    );
    (manifest, payload)
}

mod ops {
    pub const CREATE: u32 = 1;
    pub const INC: u32 = 2;
    pub const READ: u32 = 3;
    pub const SEAL: u32 = 4;
    pub const UNSEAL: u32 = 5;
}

impl AppLogic for PropApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            ops::CREATE => {
                let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                Ok(vec![id])
            }
            ops::INC => Ok(ctx
                .lib
                .increment_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::READ => Ok(ctx
                .lib
                .read_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::SEAL => Ok(ctx.lib.seal_migratable_data(ctx.env, b"p", input)?),
            ops::UNSEAL => Ok(ctx.lib.unseal_migratable_data(ctx.env, input)?.0),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

fn image() -> EnclaveImage {
    EnclaveImage::build("prop-app", 1, b"code", &EnclaveSigner::from_seed([31; 32]))
}

/// A lifecycle event the adversary-controlled host can trigger.
#[derive(Clone, Copy, Debug)]
enum Event {
    Increment,
    Restart,
    Migrate,
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => Just(Event::Increment),
        1 => Just(Event::Restart),
        1 => Just(Event::Migrate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The effective counter value equals the number of increments, no
    /// matter how restarts and migrations interleave.
    #[test]
    fn counter_continuity_under_lifecycle_events(
        seed in 0u64..10_000,
        events in proptest::collection::vec(event_strategy(), 1..14),
    ) {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let machines = [
            dc.add_machine(MachineLabels::default(), &policy),
            dc.add_machine(MachineLabels::default(), &policy),
        ];
        let mut current_machine = 0usize;
        let mut generation = 0usize;
        let mut instance = format!("gen{generation}");
        dc.deploy_app(&instance, machines[0], &image(), PropApp, InitRequest::New)
            .unwrap();
        let id = dc.call_app(&instance, ops::CREATE, &[]).unwrap()[0];

        let mut expected = 0u32;
        for event in events {
            match event {
                Event::Increment => {
                    expected += 1;
                    let v = u32::from_le_bytes(
                        dc.call_app(&instance, ops::INC, &[id]).unwrap()[..4]
                            .try_into()
                            .unwrap(),
                    );
                    prop_assert_eq!(v, expected);
                }
                Event::Restart => {
                    dc.restart_app(&instance, machines[current_machine], &image(), PropApp)
                        .unwrap();
                }
                Event::Migrate => {
                    let target = 1 - current_machine;
                    generation += 1;
                    let next = format!("gen{generation}");
                    dc.deploy_app(
                        &next,
                        machines[target],
                        &image(),
                        PropApp,
                        InitRequest::Migrate,
                    )
                    .unwrap();
                    dc.migrate_app(&instance, &next).unwrap();
                    instance = next;
                    current_machine = target;
                }
            }
            // Invariant: a read always returns the exact increment count.
            let v = u32::from_le_bytes(
                dc.call_app(&instance, ops::READ, &[id]).unwrap()[..4]
                    .try_into()
                    .unwrap(),
            );
            prop_assert_eq!(v, expected);
        }
    }

    /// Migratable-sealed blobs of arbitrary content unseal identically
    /// after a migration.
    #[test]
    fn sealed_blobs_portable_across_migration(
        seed in 0u64..10_000,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..5),
    ) {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine(MachineLabels::default(), &policy);
        let m2 = dc.add_machine(MachineLabels::default(), &policy);
        dc.deploy_app("src", m1, &image(), PropApp, InitRequest::New).unwrap();

        let blobs: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| dc.call_app("src", ops::SEAL, p).unwrap())
            .collect();

        dc.deploy_app("dst", m2, &image(), PropApp, InitRequest::Migrate).unwrap();
        dc.migrate_app("src", "dst").unwrap();

        for (payload, blob) in payloads.iter().zip(&blobs) {
            let pt = dc.call_app("dst", ops::UNSEAL, blob).unwrap();
            prop_assert_eq!(&pt, payload);
        }
    }

    /// Table I wire format round-trips arbitrary contents.
    #[test]
    fn migration_data_round_trips(
        active_ids in proptest::collection::btree_set(0usize..COUNTER_SLOTS, 0..20),
        values in proptest::collection::vec(any::<u32>(), COUNTER_SLOTS),
        msk in any::<[u8; 16]>(),
    ) {
        let mut data = MigrationData {
            counters_active: [false; COUNTER_SLOTS],
            counter_values: values.try_into().unwrap(),
            msk,
        };
        for id in active_ids {
            data.counters_active[id] = true;
        }
        let parsed = MigrationData::from_bytes(&data.to_bytes()).unwrap();
        prop_assert_eq!(parsed, data);
    }

    /// Table II wire format round-trips arbitrary contents, and every
    /// truncation is rejected.
    #[test]
    fn library_state_round_trips_and_rejects_truncation(
        frozen in any::<bool>(),
        active_ids in proptest::collection::btree_set(0usize..COUNTER_SLOTS, 0..10),
        offsets in proptest::collection::vec(any::<u32>(), COUNTER_SLOTS),
        msk in any::<[u8; 16]>(),
        nonce_seed in any::<u8>(),
        cut in 1usize..100,
    ) {
        let mut state = LibraryState::fresh(msk);
        state.frozen = u8::from(frozen);
        state.counter_offsets = offsets.try_into().unwrap();
        for id in &active_ids {
            state.counters_active[*id] = true;
            state.counter_uuids[*id] = CounterUuid {
                slot: *id as u8,
                nonce: [nonce_seed; 8],
            };
        }
        let bytes = state.to_bytes();
        let parsed = LibraryState::from_bytes(&bytes).unwrap();
        prop_assert_eq!(parsed, state);
        let cut = cut.min(bytes.len());
        prop_assert!(LibraryState::from_bytes(&bytes[..bytes.len() - cut]).is_err());
    }

    /// The Fig. 4 "init restore" path is idempotent: restarting any
    /// number of times preserves counters and sealed data.
    #[test]
    fn repeated_restarts_are_lossless(
        seed in 0u64..10_000,
        restarts in 1usize..5,
        increments in 1u32..6,
    ) {
        let mut dc = Datacenter::new(seed);
        let policy = MigrationPolicy::same_operator_only();
        let m1 = dc.add_machine(MachineLabels::default(), &policy);
        dc.deploy_app("app", m1, &image(), PropApp, InitRequest::New).unwrap();
        let id = dc.call_app("app", ops::CREATE, &[]).unwrap()[0];
        for _ in 0..increments {
            dc.call_app("app", ops::INC, &[id]).unwrap();
        }
        let blob = dc.call_app("app", ops::SEAL, b"durable").unwrap();

        for _ in 0..restarts {
            dc.restart_app("app", m1, &image(), PropApp).unwrap();
        }
        let v = u32::from_le_bytes(
            dc.call_app("app", ops::READ, &[id]).unwrap()[..4].try_into().unwrap(),
        );
        prop_assert_eq!(v, increments);
        prop_assert_eq!(dc.call_app("app", ops::UNSEAL, &blob).unwrap(), b"durable");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming chunker round-trips arbitrary payloads across
    /// arbitrary chunk geometries, including a crash/persist/resume at
    /// an arbitrary chunk boundary.
    #[test]
    fn chunker_round_trips_arbitrary_sizes_and_boundaries(
        payload in proptest::collection::vec(any::<u8>(), 1..20_000),
        chunk_size in 1u32..700,
        nonce in any::<[u8; 16]>(),
        resume_frac in 0u32..=100,
    ) {
        let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
        let n = stream.n_chunks();
        prop_assert_eq!(n, chunk_count(payload.len() as u64, chunk_size));
        let mut asm = ChunkAssembler::new(
            nonce,
            chunk_size,
            stream.total_len(),
            stream.digest(),
        ).unwrap();

        // Feed chunks up to an arbitrary boundary, persist, resume.
        let crash_at = n * resume_frac / 100;
        for idx in 0..crash_at {
            let (chunk, mac) = stream.chunk(idx);
            asm.accept(idx, chunk, &mac).unwrap();
        }
        let mut asm = ChunkAssembler::from_bytes(&asm.to_bytes()).unwrap();
        prop_assert_eq!(asm.next_idx(), crash_at);
        for idx in crash_at..n {
            let (chunk, mac) = stream.chunk(idx);
            asm.accept(idx, chunk, &mac).unwrap();
        }
        prop_assert!(asm.is_complete());
        prop_assert_eq!(&*asm.finish().unwrap().0, &payload[..]);
    }

    /// Any single bit flip in any chunk payload, any index rewrite, and
    /// any cross-nonce splice breaks the digest chain.
    #[test]
    fn chunker_chain_detects_any_tamper(
        payload in proptest::collection::vec(any::<u8>(), 2..5_000),
        chunk_size in 1u32..300,
        nonce in any::<[u8; 16]>(),
        other_nonce in any::<[u8; 16]>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        prop_assume!(nonce != other_nonce);
        let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
        let mut asm = ChunkAssembler::new(
            nonce,
            chunk_size,
            stream.total_len(),
            stream.digest(),
        ).unwrap();

        // Tampered payload at chunk 0 is rejected.
        let (chunk0, mac0) = stream.chunk(0);
        let mut evil = chunk0.to_vec();
        let i = flip_byte % evil.len();
        evil[i] ^= 1 << flip_bit;
        prop_assert!(asm.accept(0, &evil, &mac0).is_err());

        // A chunk from a different transfer nonce is rejected (splice).
        let foreign = ChunkStream::new(other_nonce, chunk_size, payload.clone());
        let (f0, fmac0) = foreign.chunk(0);
        prop_assert!(asm.accept(0, f0, &fmac0).is_err());

        // The genuine chunk still goes through afterwards: failed
        // attempts do not poison the assembler.
        asm.accept(0, chunk0, &mac0).unwrap();

        // Replay of chunk 0 (right position, already consumed) and a
        // skip ahead are both rejected.
        prop_assert!(asm.accept(0, chunk0, &mac0).is_err());
        if stream.n_chunks() > 2 {
            let (c2, m2) = stream.chunk(2);
            prop_assert!(asm.accept(2, c2, &m2).is_err());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent multi-enclave migration at the engine level: 2–4 chunk
    /// streams (one of them a dirty-page *delta* stream mixed with the
    /// full streams) interleave in an arbitrary adversary-chosen order,
    /// one assembler additionally crashes and resumes from its persisted
    /// partial state mid-interleaving — and every payload reconstructs
    /// byte-identically. Cross-stream frames can never bleed into each
    /// other: each assembler only ever sees its own nonce's chunks here,
    /// exactly the per-nonce keying the ME's stream table enforces.
    #[test]
    fn interleaved_concurrent_streams_reconstruct_every_payload(
        n_streams in 2usize..=4,
        payload_seed in any::<u8>(),
        lens in proptest::collection::vec(1usize..30_000, 4),
        chunk_size in 64u32..2_000,
        schedule in proptest::collection::vec(0usize..4, 1..400),
        crash_stream in 0usize..4,
        crash_after in 0u32..20,
        dirty_offsets in proptest::collection::vec(any::<usize>(), 1..6),
    ) {
        // Stream 0 is a delta stream: its payload is the packed dirty
        // pages of a mutated copy of a base state.
        let base: Vec<u8> = (0..lens[0].max(delta::PAGE_SIZE as usize))
            .map(|i| (i as u8).wrapping_mul(payload_seed | 1))
            .collect();
        let mut new_state = base.clone();
        for off in &dirty_offsets {
            let i = off % new_state.len();
            new_state[i] ^= 0x5A;
        }
        let base = DigestedState::new(base);
        let (manifest, delta_payload) = delta_of(&base, 0, 1, &new_state);
        prop_assume!(!delta_payload.is_empty());

        // Streams 1..n are full streams with unrelated payloads.
        let mut payloads: Vec<Vec<u8>> = vec![delta_payload.clone()];
        for (i, len) in lens.iter().take(n_streams).enumerate().skip(1) {
            payloads.push(
                (0..*len)
                    .map(|j| (j as u8).wrapping_add(payload_seed).wrapping_mul(i as u8 | 1))
                    .collect(),
            );
        }

        let mut nonces = Vec::new();
        let mut streams = Vec::new();
        let mut assemblers = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let mut nonce = [0u8; 16];
            nonce[0] = i as u8;
            nonce[1] = payload_seed;
            let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
            assemblers.push(
                ChunkAssembler::new(nonce, chunk_size, stream.total_len(), stream.digest())
                    .unwrap(),
            );
            nonces.push(nonce);
            streams.push(stream);
        }

        // Adversary-chosen interleaving: the schedule names which stream
        // makes progress next; exhausted streams round-robin onward.
        let n = payloads.len();
        let mut crashed = false;
        let step = |i: usize, assemblers: &mut Vec<ChunkAssembler>, crashed: &mut bool| {
            let idx = assemblers[i].next_idx();
            if idx >= streams[i].n_chunks() {
                return false;
            }
            // Mid-interleaving crash of one destination stream: persist,
            // drop, restore — the other streams never notice.
            if !*crashed
                && i == crash_stream % n
                && idx == crash_after.min(streams[i].n_chunks() - 1)
            {
                let blob = assemblers[i].to_bytes();
                assemblers[i] = ChunkAssembler::from_bytes(&blob).unwrap();
                assert_eq!(assemblers[i].next_idx(), idx, "resume keeps the offset");
                *crashed = true;
            }
            let (chunk, mac) = streams[i].chunk(idx);
            assemblers[i].accept(idx, chunk, &mac).unwrap();
            true
        };
        for pick in &schedule {
            step(pick % n, &mut assemblers, &mut crashed);
        }
        // Drain whatever the schedule left over, round-robin.
        loop {
            let mut progressed = false;
            for i in 0..n {
                progressed |= step(i, &mut assemblers, &mut crashed);
            }
            if !progressed {
                break;
            }
        }

        // Every payload reconstructs byte-identically...
        for (i, asm) in assemblers.drain(..).enumerate() {
            prop_assert!(asm.is_complete(), "stream {i} complete");
            let (out, _) = asm.finish().unwrap();
            prop_assert_eq!(&*out, &payloads[i][..]);
        }
        // ...and the delta stream's payload applies onto the base to the
        // exact mutated state.
        let applied = delta::apply(&base, &manifest, &delta_payload).unwrap();
        prop_assert_eq!(&applied.bytes()[..], &new_state[..]);
    }

    /// Delta-checkpoint correctness: for any base state, any dirty-byte
    /// pattern, and any growth/shrink of the state, the dirty pages of
    /// the latest checkpoint against an older one's page digests apply
    /// onto it exactly — `apply(restore(g), diff(digests(restore(g)),
    /// restore(latest))) == restore(latest)` — and the delta payload
    /// survives the HMAC-chained chunker unchanged.
    #[test]
    fn delta_checkpoints_reconstruct_latest(
        base in proptest::collection::vec(any::<u8>(), 1..40_000),
        dirty_offsets in proptest::collection::vec(any::<usize>(), 0..12),
        growth in proptest::collection::vec(any::<u8>(), 0..6_000),
        shrink in 0usize..6_000,
        flip in 1u8..=255,
        chunk_size in 512u32..5_000,
        nonce in any::<[u8; 16]>(),
    ) {
        use cloud_sim::disk::UntrustedDisk;
        use mig_core::transfer::checkpoint::CheckpointStore;

        let store = CheckpointStore::new(UntrustedDisk::new(), "prop-delta");
        let g0 = store.put(base.clone()).unwrap();

        let mut new = base.clone();
        for off in &dirty_offsets {
            let i = off % new.len();
            new[i] ^= flip;
        }
        new.extend_from_slice(&growth);
        let keep = new.len().saturating_sub(shrink).max(1);
        new.truncate(keep);
        let g1 = store.put(new.clone()).unwrap();

        let restored_base = DigestedState::new(store.get(g0).expect("base generation retained"));
        let (_, latest) = store.latest().expect("latest generation");
        let (manifest, payload) = delta_of(&restored_base, g0, g1, &latest);
        prop_assert_eq!(manifest.base_generation, g0);
        prop_assert_eq!(manifest.new_generation, g1);
        prop_assert_eq!(payload.len() as u64, manifest.payload_len());

        // The reconstruction is exact.
        let applied = delta::apply(&restored_base, &manifest, &payload).unwrap();
        prop_assert_eq!(&applied.bytes()[..], &new[..]);

        // The packed dirty pages stream through the chunker verbatim.
        let stream = ChunkStream::new(nonce, chunk_size, payload.clone());
        let mut asm = ChunkAssembler::new(
            nonce,
            chunk_size,
            stream.total_len(),
            stream.digest(),
        ).unwrap();
        for idx in 0..stream.n_chunks() {
            let (chunk, mac) = stream.chunk(idx);
            asm.accept(idx, chunk, &mac).unwrap();
        }
        prop_assert_eq!(&*asm.finish().unwrap().0, &payload[..]);

        // A delta applied to the wrong base is rejected, never silently
        // wrong: flip one byte of the base inside a clean page (if any
        // page is clean, the digest check fires; if every page is dirty,
        // the base is ignored and application still succeeds).
        if new.len() == base.len() {
            let mut wrong_base = base.clone();
            wrong_base[0] ^= 1;
            match delta::apply(&DigestedState::new(wrong_base), &manifest, &payload) {
                // A dirty page over the flipped byte masks the base flip.
                Ok(out) => prop_assert_eq!(&out.bytes()[..], &new[..]),
                Err(e) => prop_assert!(matches!(e, mig_core::error::MigError::Transfer(_))),
            }
        }
    }
}

/// The kvstore's view of its store, as a test keeps it: entries and the
/// snapshot layout `KvStore` serializes them in.
struct KvModel {
    entries: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
}

impl KvModel {
    /// Byte range of `key`'s value in the snapshot plaintext (9-byte
    /// header, then `[u32 len][key][u32 len][value]` per entry in key
    /// order).
    fn value_range(&self, key: &[u8]) -> std::ops::Range<usize> {
        let mut at = 9;
        for (k, v) in &self.entries {
            if k == key {
                let start = at + 4 + k.len() + 4;
                return start..start + v.len();
            }
            at += 8 + k.len() + v.len();
        }
        panic!("key not in the model");
    }

    /// The value `BULK_PUT` writes for entry `i`.
    fn bulk_value(i: u32, len: usize, fill: u8) -> Vec<u8> {
        (0..len)
            .map(|j| fill.wrapping_add((i as usize + j) as u8))
            .collect()
    }

    fn bulk_key(i: u32) -> Vec<u8> {
        format!("bulk-{i:08}").into_bytes()
    }
}

/// A sealed segment of a staged container and the range it takes there,
/// its length included.
type Segment = (Vec<u8>, std::ops::Range<usize>);

/// The sealed segments of a staged kvstore container, in order, and the
/// range each takes, its length included; then where the head (the
/// framing and the sealed index) ends.
fn staged_segments(container: &[u8]) -> (Vec<Segment>, usize) {
    let mut r = sgx_sim::wire::WireReader::new(container);
    let at = |r: &sgx_sim::wire::WireReader<'_>| container.len() - r.remaining();
    assert_eq!(r.u8().unwrap(), 2, "a segment container");
    let _index = r.bytes().unwrap();
    let n = r.u32().unwrap();
    let head = at(&r);
    let segments = (0..n)
        .map(|_| {
            let start = at(&r);
            let sealed = r.bytes_vec().unwrap();
            (sealed, start..at(&r))
        })
        .collect();
    r.finish().unwrap();
    (segments, head)
}

/// The 4 KiB pages `ranges` touch.
fn pages_of<'a>(
    ranges: impl IntoIterator<Item = &'a std::ops::Range<usize>>,
) -> std::collections::BTreeSet<usize> {
    ranges
        .into_iter()
        .flat_map(|range| range.start / 4096..=(range.end - 1) / 4096)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random PUTs (same length, new length, new key), an insert or
    /// resize followed by a same-length PUT of a later key, partial
    /// `BULK_PUT`s, LOADs of the staged container and restarts that LOAD
    /// the container the host reassembles from its pages: after every
    /// step the live store and the staged container, opened, both hold
    /// exactly the model, and a same-length PUT reseals only segment 0
    /// (the header) and the segments its value spans, and hands the host
    /// only their pages and the index's.
    #[test]
    fn kvstore_staging_tracks_every_write(
        seed in 0u64..10_000,
        steps in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        use mig_apps::kvstore::{self, ops as kv, KvStore, SEGMENT_LEN};
        const BULK: u32 = 24;
        const BULK_LEN: usize = 300;

        let mut dc = Datacenter::new(seed);
        let m = dc.add_machine(MachineLabels::default(), &MigrationPolicy::same_operator_only());
        // The pages each step hands the host.
        let written: Arc<Mutex<std::collections::BTreeSet<usize>>> = Arc::default();
        let log = Arc::clone(&written);
        dc.world().machine(m).disk.set_fault_hook(move |key: &str, _: &[u8]| {
            if let Some(page) = key.strip_prefix("mig-pages:kv:") {
                log.lock().insert(page.parse().unwrap());
            }
            cloud_sim::disk::WriteFault::None
        });
        let image = EnclaveImage::build("prop-kv", 1, b"kv", &EnclaveSigner::from_seed([32; 32]));
        dc.deploy_app("kv", m, &image, KvStore::new(), InitRequest::New).unwrap();
        dc.call_app("kv", kv::INIT, &[]).unwrap();
        dc.call_app("kv", kv::BULK_PUT, &kvstore::encode_bulk_put(BULK, BULK_LEN as u32, 0))
            .unwrap();
        let mut model = KvModel { entries: Default::default() };
        for i in 0..BULK {
            model.entries.insert(KvModel::bulk_key(i), KvModel::bulk_value(i, BULK_LEN, 0));
        }
        let mut staged = dc.app_bulk_state("kv").unwrap().unwrap();

        // The segments a same-length PUT of `key` may reseal: the
        // header's and those its value spans.
        let spanned = |model: &KvModel, key: &[u8]| {
            let span = model.value_range(key);
            let mut segments = std::collections::BTreeSet::from([0]);
            if !span.is_empty() {
                segments.extend(span.start / SEGMENT_LEN..=(span.end - 1) / SEGMENT_LEN);
            }
            segments
        };
        for step in steps {
            written.lock().clear();
            let pick = (step >> 8) as usize % model.entries.len();
            let key = model.entries.keys().nth(pick).unwrap().clone();
            let fill = (step >> 40) as u8;
            let len = (step >> 16) as usize % 700;
            let mut resealed_at_most = None;
            match step % 7 {
                kind @ 0..=2 => {
                    let (key, value) = match kind {
                        // Same length: only the value's bytes change.
                        0 => {
                            resealed_at_most = Some(spanned(&model, &key));
                            let value = vec![fill; model.entries[&key].len()];
                            (key, value)
                        }
                        // Another length.
                        1 => (key, vec![fill; len]),
                        // A new key.
                        _ => (format!("key-{step:016x}").into_bytes(), vec![fill; len]),
                    };
                    let reply = dc.call_app("kv", kv::PUT, &kvstore::encode_put(&key, &value)).unwrap();
                    prop_assert!(kvstore::decode_put_response(&reply).unwrap().1.is_empty());
                    model.entries.insert(key, value);
                }
                3 => {
                    // An insert or a resize, then a same-length PUT of a
                    // later key: the second write lands where the first
                    // moved that key's value.
                    let first = if step & (1 << 61) == 0 {
                        key
                    } else {
                        format!("key-{step:016x}").into_bytes()
                    };
                    let resized = len + usize::from(model.entries.get(&first).map(Vec::len) == Some(len));
                    let value = vec![fill; resized];
                    dc.call_app("kv", kv::PUT, &kvstore::encode_put(&first, &value)).unwrap();
                    model.entries.insert(first.clone(), value);
                    let later = model
                        .entries
                        .range::<Vec<u8>, _>((std::ops::Bound::Excluded(&first), std::ops::Bound::Unbounded))
                        .next()
                        .map(|(later, _)| later.clone());
                    if let Some(later) = later {
                        staged = dc.app_bulk_state("kv").unwrap().unwrap();
                        written.lock().clear();
                        resealed_at_most = Some(spanned(&model, &later));
                        let value = vec![!fill; model.entries[&later].len()];
                        dc.call_app("kv", kv::PUT, &kvstore::encode_put(&later, &value)).unwrap();
                        model.entries.insert(later, value);
                    }
                }
                4 => {
                    // Rewrite a prefix of the bulk entries, at their
                    // length or another.
                    let count = 1 + (step >> 8) as u32 % BULK;
                    let value_len = if step & (1 << 60) == 0 { BULK_LEN } else { len };
                    dc.call_app(
                        "kv",
                        kv::BULK_PUT,
                        &kvstore::encode_bulk_put(count, value_len as u32, fill),
                    )
                    .unwrap();
                    for i in 0..count {
                        model.entries.insert(KvModel::bulk_key(i), KvModel::bulk_value(i, value_len, fill));
                    }
                }
                5 => {
                    dc.call_app("kv", kv::LOAD, &staged).unwrap();
                }
                _ => {
                    // A restart: the library comes back from its blob
                    // and the store from the host's pages.
                    dc.restart_app("kv", m, &image, KvStore::new()).unwrap();
                    let stored = dc.app_bulk_state("kv").unwrap().unwrap();
                    prop_assert_eq!(&stored, &staged);
                    dc.call_app("kv", kv::LOAD, &stored).unwrap();
                }
            }

            let next = dc.app_bulk_state("kv").unwrap().unwrap();
            if let Some(allowed) = resealed_at_most {
                let ((before, _), (after, head)) = (staged_segments(&staged), staged_segments(&next));
                prop_assert_eq!(before.len(), after.len());
                let resealed: std::collections::BTreeSet<usize> =
                    (0..after.len()).filter(|&i| before[i].0 != after[i].0).collect();
                let rewritten = std::iter::once(0..head)
                    .chain(resealed.iter().map(|&i| after[i].1.clone()))
                    .collect::<Vec<_>>();
                prop_assert_eq!(&*written.lock(), &pages_of(&rewritten));
                prop_assert_eq!(resealed, allowed);
            }
            staged = next;
            // The live store holds exactly the model, and so does the
            // staged container, opened (which rebuilds the index).
            for reload in [false, true] {
                if reload {
                    dc.call_app("kv", kv::LOAD, &staged).unwrap();
                }
                let len = dc.call_app("kv", kv::LEN, &[]).unwrap();
                prop_assert_eq!(len, (model.entries.len() as u32).to_le_bytes().to_vec());
                for (key, value) in &model.entries {
                    let got = dc.call_app("kv", kv::GET, key).unwrap();
                    prop_assert!(&got == value, "GET {:?} after reload {}", String::from_utf8_lossy(key), reload);
                }
            }
        }
    }
}
