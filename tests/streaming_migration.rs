//! End-to-end tests of the CTR-style streaming state-transfer subsystem:
//! a kvstore with multi-megabyte sealed state migrates via the chunked
//! path, survives a mid-transfer source-machine crash, resumes from the
//! last acknowledged chunk, and the destination unseals identical state.

use cloud_sim::disk::WriteFault;
use cloud_sim::machine::MachineLabels;
use cloud_sim::network::{Envelope, TapAction};
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_core::datacenter::{Datacenter, ResumableOutcome};
use mig_core::host::{AppStatus, LinkStreamStat, CHECKPOINT_INTERVAL};
use mig_core::library::state::MigrationData;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::TransferConfig;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn image() -> EnclaveImage {
    EnclaveImage::build(
        "stream-kv",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([71; 32]),
    )
}

fn small_image() -> EnclaveImage {
    EnclaveImage::build(
        "stream-kv-2",
        1,
        b"kvstore 2",
        &EnclaveSigner::from_seed([72; 32]),
    )
}

/// 4096 × 4 KiB values ≈ 16 MiB of sealed state.
const BULK_COUNT: u32 = 4096;
const BULK_VALUE_LEN: u32 = 4096;
const BULK_FILL: u8 = 0x5A;

fn streaming_config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 64 * 1024,
        chunk_size: 1024 * 1024,
        window: 4,
        ..TransferConfig::default()
    }
}

fn dc_with_config(seed: u64, config: TransferConfig) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    (dc, m1, m2)
}

/// Deploys the source kvstore on `m1` with the bulk working set loaded.
fn deploy_loaded_src(dc: &mut Datacenter, m1: MachineId) -> u32 {
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    let out = dc
        .call_app(
            "src",
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, BULK_FILL),
        )
        .unwrap();
    let (version, state_len) = kvstore::decode_bulk_put_response(&out).unwrap();
    assert_eq!(version, 1);
    assert!(
        state_len > 16 * 1024 * 1024,
        "bulk snapshot should exceed 16 MiB, got {state_len}"
    );
    version
}

fn expected_value(i: u32) -> Vec<u8> {
    (0..BULK_VALUE_LEN as usize)
        .map(|j| BULK_FILL.wrapping_add((i as usize + j) as u8))
        .collect()
}

/// Restores the transferred snapshot into the destination store and
/// checks it is bit-identical to the source's working set.
fn verify_destination(dc: &mut Datacenter) {
    let state = dc
        .app_bulk_state("dst")
        .unwrap()
        .expect("migrated bulk state present");
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("dst", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), BULK_COUNT);
    for i in [0u32, 1, 17, BULK_COUNT / 2, BULK_COUNT - 1] {
        let key = format!("bulk-{i:08}");
        let value = dc.call_app("dst", kv_ops::GET, key.as_bytes()).unwrap();
        assert_eq!(value, expected_value(i), "entry {key} corrupted in transit");
    }
    // Counter continuity: the version counter survived the migration.
    let version = dc.call_app("dst", kv_ops::VERSION, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(version[..4].try_into().unwrap()), 1);
}

/// Counts (and optionally drops) source→destination stream frames.
struct StreamTap {
    /// RA_TRANSFER frames src→dst observed.
    seen: Arc<AtomicUsize>,
    /// When `true`, frames beyond the tap's `allow` budget are dropped.
    dropping: Arc<AtomicBool>,
}

fn install_stream_tap(
    dc: &mut Datacenter,
    src: MachineId,
    dst: MachineId,
    allow: usize,
) -> StreamTap {
    let seen = Arc::new(AtomicUsize::new(0));
    let dropping = Arc::new(AtomicBool::new(false));
    let tap_seen = Arc::clone(&seen);
    let tap_dropping = Arc::clone(&dropping);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.machine == src
                && e.to.machine == dst
                && e.from.service == "me"
                && e.to.service == "me"
                && !e.payload.is_empty()
                && e.payload[0] == mig_core::host::tags::RA_TRANSFER
            {
                let n = tap_seen.fetch_add(1, Ordering::SeqCst);
                if tap_dropping.load(Ordering::SeqCst) && n >= allow {
                    return TapAction::Drop;
                }
            }
            TapAction::Deliver
        }));
    StreamTap { seen, dropping }
}

/// Sums the wire bytes (and frames) of src→dst ME stream traffic.
struct ByteTap {
    frames: Arc<AtomicUsize>,
    bytes: Arc<AtomicUsize>,
}

impl ByteTap {
    fn reset(&self) {
        self.frames.store(0, Ordering::SeqCst);
        self.bytes.store(0, Ordering::SeqCst);
    }

    fn snapshot(&self) -> (usize, usize) {
        (
            self.frames.load(Ordering::SeqCst),
            self.bytes.load(Ordering::SeqCst),
        )
    }
}

fn install_byte_tap(dc: &mut Datacenter, src: MachineId, dst: MachineId) -> ByteTap {
    let frames = Arc::new(AtomicUsize::new(0));
    let bytes = Arc::new(AtomicUsize::new(0));
    let tap_frames = Arc::clone(&frames);
    let tap_bytes = Arc::clone(&bytes);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.machine == src
                && e.to.machine == dst
                && e.from.service == "me"
                && e.to.service == "me"
                && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
            {
                tap_frames.fetch_add(1, Ordering::SeqCst);
                tap_bytes.fetch_add(e.payload.len(), Ordering::SeqCst);
            }
            TapAction::Deliver
        }));
    ByteTap { frames, bytes }
}

#[test]
fn sixteen_mib_state_migrates_via_streamed_path() {
    let (mut dc, m1, m2) = dc_with_config(1601, streaming_config());
    let tap = install_stream_tap(&mut dc, m1, m2, usize::MAX);
    deploy_loaded_src(&mut dc, m1);
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();

    let duration = dc.migrate_app("src", "dst").unwrap();
    assert!(duration.as_micros() > 0);

    // The state went down the chunked path: 17 chunks (16.8 MiB at
    // 1 MiB/chunk) + the ChunkStart announcement.
    let frames = tap.seen.load(Ordering::SeqCst);
    assert!(
        frames >= 18,
        "expected a chunked transfer, saw {frames} frames"
    );

    verify_destination(&mut dc);
    // The source froze and can no longer serve.
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert!(dc.call_app("src", kv_ops::VERSION, &[]).is_err());
}

#[test]
fn small_state_keeps_single_shot_fast_path() {
    let (mut dc, m1, m2) = dc_with_config(1602, TransferConfig::default());
    let tap = install_byte_tap(&mut dc, m1, m2);
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app("src", kv_ops::PUT, &kvstore::encode_put(b"k", b"v"))
        .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // One RA_TRANSFER frame: the paper's single-shot Transfer message,
    // sealed on its own behind the 5-byte frame head (tag, length): the
    // message tag, measurement, Table I payload and state behind their
    // lengths, and the GCM tag.
    let state = dc.app_bulk_state("dst").unwrap().expect("staged snapshot");
    let sealed_transfer = 1 + 32 + 4 + MigrationData::WIRE_SIZE + 4 + state.len() + 16;
    assert_eq!(tap.snapshot(), (1, 5 + sealed_transfer));

    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    assert_eq!(dc.call_app("dst", kv_ops::GET, b"k").unwrap(), b"v");
}

#[test]
fn source_crash_mid_stream_resumes_from_last_acked_chunk() {
    let (mut dc, m1, m2) = dc_with_config(1603, streaming_config());
    // Let the announcement plus 5 chunks through, then "cut the cable".
    let tap = install_stream_tap(&mut dc, m1, m2, 6);
    deploy_loaded_src(&mut dc, m1);
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();

    tap.dropping.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    let ResumableOutcome::Stalled { progress } = outcome else {
        panic!("expected a stalled transfer, got {outcome:?}");
    };
    let (acked, total) = progress.expect("stream progress available");
    assert_eq!(acked, 5, "five chunks were delivered and acknowledged");
    assert_eq!(total, 17, "16.8 MiB at 1 MiB per chunk");
    assert_eq!(dc.app("dst").lock().status(), AppStatus::AwaitingIncoming);

    // Source machine "crashes": its management VM restarts and the ME
    // comes back from the disk checkpoint `migrate_app_resumable` wrote.
    dc.restart_me(m1).unwrap();
    tap.dropping.store(false, Ordering::SeqCst);
    let frames_before_resume = tap.seen.load(Ordering::SeqCst);

    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);

    // Only the missing chunks travelled after the resume: the
    // ResumeRequest plus chunks 5..17, nowhere near a full restart.
    let resumed_frames = tap.seen.load(Ordering::SeqCst) - frames_before_resume;
    assert!(
        (13..=14).contains(&resumed_frames),
        "expected ~13 resume frames (1 request + 12 chunks), saw {resumed_frames}"
    );

    verify_destination(&mut dc);
}

#[test]
fn destination_crash_mid_stream_resumes_from_persisted_partial() {
    let (mut dc, m1, m2) = dc_with_config(1604, streaming_config());
    let tap = install_stream_tap(&mut dc, m1, m2, 6);
    deploy_loaded_src(&mut dc, m1);
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();

    tap.dropping.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    assert!(matches!(outcome, ResumableOutcome::Stalled { .. }));

    // Destination management VM reboots; its partially reassembled
    // stream was checkpointed and comes back with the ME.
    dc.persist_me(m2).unwrap();
    dc.restart_me(m2).unwrap();
    {
        let dst = dc.app("dst");
        let mut dst = dst.lock();
        dst.attest_me(dc.world_mut().network_mut());
    }
    dc.run();

    tap.dropping.store(false, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    verify_destination(&mut dc);
}

/// Table II changes (here: each kvstore `INIT` creates a counter) write
/// checkpoint generations; a restart from one loads the store from the
/// host's pages.
#[test]
fn app_host_writes_periodic_durable_checkpoints() {
    let (mut dc, m1, _m2) = dc_with_config(1605, TransferConfig::default());
    dc.deploy_app("app", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("app", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "app",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(64, 100, 7),
    )
    .unwrap();
    for _ in 0..9 {
        dc.call_app("app", kv_ops::INIT, &[]).unwrap();
    }
    let host = dc.app("app");
    let (generation, blob) = host
        .lock()
        .checkpoints()
        .latest()
        .expect("checkpoints exist");
    assert!(generation >= 1, "several generations accumulated");
    drop(host);

    // A checkpoint blob is a complete sealed library state (Table II):
    // an enclave restarted from it comes up operational and loads its
    // store from the pages the host keeps.
    dc.stop_app("app");
    dc.deploy_app(
        "app",
        m1,
        &image(),
        KvStore::new(),
        InitRequest::Restore { blob },
    )
    .unwrap();
    let phase = dc
        .call_app("app", mig_core::harness::ops::PHASE, &[])
        .unwrap();
    assert_eq!(phase, vec![1], "restored library is operational");
    let stored = dc.app_bulk_state("app").unwrap().expect("the host's pages");
    dc.call_app("app", kv_ops::LOAD, &stored).unwrap();
    assert_eq!(
        dc.call_app("app", kv_ops::LEN, &[]).unwrap(),
        64u32.to_le_bytes()
    );
}

/// A checkpoint write that fails is retried on the very next persist:
/// the interval restarts only once a generation is durable, so one bad
/// write does not cost a whole further interval without a checkpoint.
#[test]
fn failed_app_checkpoint_is_retried_on_the_next_persist() {
    let (mut dc, m1, _m2) = dc_with_config(1606, TransferConfig::default());
    dc.deploy_app("app", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("app", kv_ops::INIT, &[]).unwrap();
    let latest = |dc: &Datacenter| dc.app("app").lock().checkpoints().latest_generation();
    let before = latest(&dc).expect("the first persist checkpoints");

    // Fail the next checkpoint-blob write, and only that one.
    let armed = Arc::new(AtomicBool::new(true));
    let flag = Arc::clone(&armed);
    dc.world()
        .machine(m1)
        .disk
        .set_fault_hook(move |key: &str, _value: &[u8]| {
            if key.contains("/ckpt/") && flag.swap(false, Ordering::SeqCst) {
                WriteFault::Fail
            } else {
                WriteFault::None
            }
        });
    let mut failed = false;
    for _ in 0..CHECKPOINT_INTERVAL {
        // Each INIT creates a counter: a Table II persist.
        if let Err(e) = dc.call_app("app", kv_ops::INIT, &[]) {
            assert!(e.to_string().contains("checkpoint write"), "{e}");
            failed = true;
            break;
        }
    }
    assert!(failed, "a checkpoint came due within one interval");
    assert!(!armed.load(Ordering::SeqCst));
    assert_eq!(
        latest(&dc),
        Some(before),
        "the failed write is not pointed to"
    );

    // The very next persist writes the generation the failure skipped.
    dc.call_app("app", kv_ops::INIT, &[]).unwrap();
    assert_eq!(latest(&dc), Some(before + 1));
}

/// Every persisted blob goes to the state key and, when a checkpoint is
/// due, to the checkpoint series, byte for byte the same, and restores;
/// a `PUT` persists no blob, only its pages.
#[test]
fn persisted_blob_is_the_state_value_and_the_checkpoint() {
    let (mut dc, m1, _m2) = dc_with_config(1608, TransferConfig::default());
    // Every durable write: key and value.
    type Writes = Vec<(String, Vec<u8>)>;
    let writes: Arc<parking_lot::Mutex<Writes>> = Arc::default();
    let log = Arc::clone(&writes);
    dc.world()
        .machine(m1)
        .disk
        .set_fault_hook(move |key: &str, value: &[u8]| {
            log.lock().push((key.to_string(), value.to_vec()));
            WriteFault::None
        });
    dc.deploy_app("app", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("app", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "app",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(64, 100, 3),
    )
    .unwrap();
    for _ in 0..CHECKPOINT_INTERVAL {
        dc.call_app("app", kv_ops::INIT, &[]).unwrap();
    }
    let blobs = writes.lock().len();
    dc.call_app("app", kv_ops::PUT, &kvstore::encode_put(b"put", b"v"))
        .unwrap();
    let host = dc.app("app");
    let host = host.lock();
    let state_key = host.state_key();
    assert!(
        writes.lock()[blobs..]
            .iter()
            .all(|(key, _)| key.starts_with("mig-pages:")),
        "a PUT writes pages only"
    );
    let disk = &dc.world().machine(m1).disk;
    let writes = writes.lock();
    let mut checkpoints = 0;
    for (i, (key, value)) in writes.iter().enumerate() {
        if key.contains("/ckpt/") {
            // A checkpoint follows the state write of the same persist.
            assert_eq!(writes[i - 1], (state_key.clone(), value.clone()));
            checkpoints += 1;
        }
    }
    assert_eq!(checkpoints, 2, "the first persist and one interval later");
    let last = |wanted: &dyn Fn(&str) -> bool| {
        let (_, value) = writes.iter().rev().find(|(key, _)| wanted(key)).unwrap();
        value.clone()
    };
    let latest = disk.get(&state_key).unwrap();
    assert_eq!(last(&|key| key == state_key), latest);
    assert_eq!(
        host.checkpoints().latest().unwrap().1,
        last(&|key| key.contains("/ckpt/"))
    );
    assert!(sgx_sim::seal::parse_sealed_header(&latest).is_ok());
    drop((host, writes));

    // The stored blob restores the library, and the host's pages the
    // store, the PUT included.
    dc.restart_app("app", m1, &image(), KvStore::new()).unwrap();
    let blob = dc.app_bulk_state("app").unwrap().expect("the host's pages");
    dc.call_app("app", kv_ops::LOAD, &blob).unwrap();
    assert_eq!(
        dc.call_app("app", kv_ops::LEN, &[]).unwrap(),
        65u32.to_le_bytes()
    );
}

/// The acceptance scenario for delta-aware streaming: a 16 MiB store
/// migrates m1→m2 in full, ~1 % of its entries are dirtied at the
/// destination, and the repeat migration m2→m1 ships a dirty-page delta
/// that is a small fraction of the full transfer — asserted on wire
/// frame/byte telemetry.
#[test]
fn repeat_migration_ships_dirty_page_delta() {
    let (mut dc, m1, m2) = dc_with_config(1607, streaming_config());
    let fwd = install_byte_tap(&mut dc, m1, m2);
    let back_tap = install_byte_tap(&mut dc, m2, m1);
    deploy_loaded_src(&mut dc, m1);
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let (full_frames, full_bytes) = fwd.snapshot();
    assert!(full_frames >= 18, "first migration streams in full");

    // The destination restores its working set (adopting the migrated
    // container's sealed segments verbatim) and dirties ~1 % of the
    // entries: 40 of 4096, one counter bump.
    let state = dc.app_bulk_state("dst").unwrap().expect("migrated state");
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(40, BULK_VALUE_LEN, 0x77),
    )
    .unwrap();

    // Repeat migration back to m1: the source ME (m2) diffs against the
    // generation both MEs retained from the first transfer.
    dc.deploy_app("back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    back_tap.reset();
    dc.migrate_app("dst", "back").unwrap();
    let (delta_frames, delta_bytes) = back_tap.snapshot();

    assert!(
        delta_frames <= 4,
        "~1% dirty at 1 MiB chunks is a handful of frames, saw {delta_frames}"
    );
    assert!(
        delta_bytes * 10 < full_bytes,
        "delta transfer must be under 10% of the full one: {delta_bytes} vs {full_bytes}"
    );

    // The reconstructed state is exact: dirtied entries carry the new
    // fill, untouched entries the original, and the version counter
    // continued (two updates so far).
    let state = dc.app_bulk_state("back").unwrap().expect("delta state");
    dc.call_app("back", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("back", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), BULK_COUNT);
    let dirtied = dc.call_app("back", kv_ops::GET, b"bulk-00000007").unwrap();
    let expected_dirty: Vec<u8> = (0..BULK_VALUE_LEN as usize)
        .map(|j| 0x77u8.wrapping_add((7 + j) as u8))
        .collect();
    assert_eq!(
        dirtied, expected_dirty,
        "dirtied entry must be the new value"
    );
    let clean = dc.call_app("back", kv_ops::GET, b"bulk-00003000").unwrap();
    assert_eq!(
        clean,
        expected_value(3000),
        "clean entry survives the delta"
    );
    let version = dc.call_app("back", kv_ops::VERSION, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(version[..4].try_into().unwrap()), 2);
}

/// A delta against a base the destination does not hold is NACKed and
/// the source falls back to a full stream — the migration still
/// completes, just without the savings.
#[test]
fn delta_to_unknown_base_falls_back_to_full_stream() {
    let config = streaming_config();
    let mut dc = Datacenter::new(1608);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m3 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let tap = install_byte_tap(&mut dc, m2, m3);

    // ~2 MiB store migrates m1→m2 in full; both MEs cache generation 0.
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(512, 4096, 0x21),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // Dirty a little, then migrate onward to m3 — whose ME has never
    // seen this enclave's state. The m2 ME optimistically announces a
    // delta against its cached base; m3 NACKs; the transfer restarts as
    // a full stream on the same channel.
    let state = dc.app_bulk_state("dst").unwrap().expect("migrated state");
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(4, 4096, 0x44),
    )
    .unwrap();
    dc.deploy_app("third", m3, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("dst", "third").unwrap();

    let (frames, bytes) = tap.snapshot();
    let state_len = dc
        .app_bulk_state("third")
        .unwrap()
        .expect("full state arrived")
        .len();
    assert!(
        bytes >= state_len,
        "fallback must ship the full state: {bytes} wire bytes for {state_len} state"
    );
    assert!(
        frames >= 4,
        "DeltaStart + full restart is several frames, saw {frames}"
    );

    // And the state is intact.
    let state = dc.app_bulk_state("third").unwrap().unwrap();
    dc.call_app("third", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("third", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 512);
}

/// The delta base (the ME's per-measurement generation cache) is part of
/// the persisted ME state: both MEs restart between the two migrations
/// and the repeat migration still ships a delta.
#[test]
fn delta_base_survives_me_restart() {
    let (mut dc, m1, m2) = dc_with_config(1609, streaming_config());
    let back_tap = install_byte_tap(&mut dc, m2, m1);
    let fwd = install_byte_tap(&mut dc, m1, m2);
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(512, 4096, 0x21),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let (_, full_bytes) = fwd.snapshot();

    dc.app_bulk_state("dst")
        .map(|s| dc.call_app("dst", kv_ops::LOAD, &s.unwrap()))
        .unwrap()
        .unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(4, 4096, 0x44),
    )
    .unwrap();

    // Management-VM reboots on both machines; the generation caches come
    // back from the sealed ME checkpoints.
    dc.persist_me(m1).unwrap();
    dc.persist_me(m2).unwrap();
    dc.restart_me(m1).unwrap();
    dc.restart_me(m2).unwrap();
    {
        let dst = dc.app("dst");
        let mut dst = dst.lock();
        dst.attest_me(dc.world_mut().network_mut());
    }
    dc.run();

    dc.deploy_app("back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    back_tap.reset();
    dc.migrate_app("dst", "back").unwrap();
    let (_, delta_bytes) = back_tap.snapshot();
    assert!(
        delta_bytes * 5 < full_bytes,
        "restarted MEs still delta: {delta_bytes} vs {full_bytes}"
    );
    let state = dc.app_bulk_state("back").unwrap().expect("delta state");
    dc.call_app("back", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("back", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 512);
}

/// The link window's fair share, observed from the host: two
/// migrations started together on a cold link are announced in one
/// burst, and while both streams still have chunks to send neither
/// holds more than half the window (rounded up) in flight.
#[test]
fn concurrent_streams_split_the_window_evenly() {
    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 16 * 1024,
        window: 5,
        ..TransferConfig::default()
    };
    let half = config.window.div_ceil(2);
    let (mut dc, m1, m2) = dc_with_config(1614, config);
    for (src, dst, image) in [
        ("src-a", "dst-a", image()),
        ("src-b", "dst-b", small_image()),
    ] {
        dc.deploy_app(src, m1, &image, KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app(src, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            src,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(256, 4096, 0x33),
        )
        .unwrap();
        dc.deploy_app(dst, m2, &image, KvStore::new(), InitRequest::Migrate)
            .unwrap();
    }
    // Both requests reach the source ME before its RA handshake ends,
    // so the channel's first burst announces both streams.
    for src in ["src-a", "src-b"] {
        let host = dc.app(src);
        host.lock()
            .migrate_to(dc.world_mut().network_mut(), m2)
            .unwrap();
    }

    let mut shared_polls = 0u32;
    let mut peak = 0;
    while dc.world_mut().step() {
        let streams = dc.me_host(m1).lock().link_streams(m2).unwrap();
        let sendable = |s: &LinkStreamStat| s.acked + s.in_flight < s.total_chunks;
        if streams.len() == 2 && streams.iter().all(sendable) {
            shared_polls += 1;
            for s in &streams {
                assert!(
                    s.in_flight <= half,
                    "a stream holds {} of the window's {} slots while the other \
                     still has chunks to send",
                    s.in_flight,
                    config.window
                );
                peak = peak.max(s.in_flight);
            }
        }
    }
    assert!(
        shared_polls > 20,
        "both streams must share the link for many steps (got {shared_polls})"
    );
    assert_eq!(peak, half, "the streams filled the window between them");
    for dst in ["dst-a", "dst-b"] {
        assert_eq!(dc.app(dst).lock().status(), AppStatus::Ready);
    }
}

/// The fairness acceptance test: a 16 MiB and a 256 KiB migration are
/// started together on one link. With per-nonce multiplexed streams and
/// the fair share of the link window, the small one must
/// complete in well under 25 % of the large one's wall-clock — measured
/// from the first stream frame on the wire to each destination's
/// incoming-migration delivery, with chunk-count telemetry backing it.
#[test]
fn concurrent_small_migration_not_starved_by_large() {
    use cloud_sim::clock::SimTime;
    use std::sync::atomic::AtomicU64;

    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 16 * 1024,
        window: 4,
        ..TransferConfig::default()
    };
    let (mut dc, m1, m2) = dc_with_config(1612, config);

    // Telemetry: virtual time of the first src→dst stream frame, of each
    // destination's ME_FORWARD delivery, and running/total frame counts.
    let stream_start = Arc::new(AtomicU64::new(0));
    let big_done = Arc::new(AtomicU64::new(0));
    let small_done = Arc::new(AtomicU64::new(0));
    let frames = Arc::new(AtomicUsize::new(0));
    let frames_at_small_done = Arc::new(AtomicUsize::new(0));
    {
        let stream_start = Arc::clone(&stream_start);
        let big_done = Arc::clone(&big_done);
        let small_done = Arc::clone(&small_done);
        let frames = Arc::clone(&frames);
        let frames_at_small_done = Arc::clone(&frames_at_small_done);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.to.service == "me"
                    && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
                {
                    frames.fetch_add(1, Ordering::SeqCst);
                    let _ = stream_start.compare_exchange(
                        0,
                        e.deliver_at.0.max(1),
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                }
                if e.to.machine == m2
                    && e.payload.first() == Some(&mig_core::host::tags::ME_FORWARD)
                {
                    let done = match e.to.service.as_str() {
                        "app:dst" => Some(&big_done),
                        "app:dst-small" => Some(&small_done),
                        _ => None,
                    };
                    if let Some(done) = done {
                        if done
                            .compare_exchange(
                                0,
                                e.deliver_at.0.max(1),
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                            && e.to.service == "app:dst-small"
                        {
                            frames_at_small_done
                                .store(frames.load(Ordering::SeqCst), Ordering::SeqCst);
                        }
                    }
                }
                TapAction::Deliver
            }));
    }

    // 16 MiB elephant, 256 KiB mouse, both on m1.
    deploy_loaded_src(&mut dc, m1);
    dc.deploy_app(
        "src-small",
        m1,
        &small_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    dc.call_app("src-small", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src-small",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(64, 4096, 0x42),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.deploy_app(
        "dst-small",
        m2,
        &small_image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();

    dc.migrate_apps_concurrent(&[("src", "dst"), ("src-small", "dst-small")])
        .unwrap();

    let start = SimTime(stream_start.load(Ordering::SeqCst));
    let big = SimTime(big_done.load(Ordering::SeqCst));
    let small = SimTime(small_done.load(Ordering::SeqCst));
    assert!(
        start.0 > 0 && big.0 > 0 && small.0 > 0,
        "telemetry captured"
    );
    let big_wall = big.since(start);
    let small_wall = small.since(start);
    assert!(
        small_wall.as_nanos() * 4 < big_wall.as_nanos(),
        "small stream must finish in < 25% of the large one's wall-clock: \
         small {small_wall:?} vs big {big_wall:?}"
    );
    let total = frames.load(Ordering::SeqCst);
    let at_small = frames_at_small_done.load(Ordering::SeqCst);
    assert!(
        at_small * 4 < total,
        "small stream completed within the first quarter of the chunk \
         traffic: {at_small} of {total} frames"
    );

    // Both payloads arrived intact.
    verify_destination(&mut dc);
    let state = dc
        .app_bulk_state("dst-small")
        .unwrap()
        .expect("small state");
    dc.call_app("dst-small", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("dst-small", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 64);
}

/// A dirty-page *delta* stream multiplexes with a concurrent *full*
/// stream on the same channel and both reconstruct byte-identically —
/// the per-nonce chunk chains keep the interleaved frames apart.
#[test]
fn concurrent_delta_and_full_streams_interleave() {
    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 64 * 1024,
        window: 4,
        ..TransferConfig::default()
    };
    let (mut dc, m1, m2) = dc_with_config(1613, config);
    let back_tap = install_byte_tap(&mut dc, m2, m1);

    // App A: ~2 MiB, migrates m1→m2 in full (both MEs cache the base).
    dc.deploy_app("a-src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("a-src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "a-src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(512, 4096, 0x21),
    )
    .unwrap();
    dc.deploy_app("a-mid", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("a-src", "a-mid").unwrap();

    // Dirty a sliver of A at m2; deploy a fresh ~2 MiB app B on m2.
    let state = dc.app_bulk_state("a-mid").unwrap().expect("A state");
    dc.call_app("a-mid", kv_ops::LOAD, &state).unwrap();
    dc.call_app(
        "a-mid",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(8, 4096, 0x99),
    )
    .unwrap();
    dc.deploy_app(
        "b-src",
        m2,
        &small_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    dc.call_app("b-src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "b-src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(512, 4096, 0x55),
    )
    .unwrap();

    // Concurrent m2→m1: A's repeat migration (delta against the cached
    // base) and B's first migration (full stream) on one channel.
    dc.deploy_app("a-back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.deploy_app(
        "b-dst",
        m1,
        &small_image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();
    back_tap.reset();
    dc.migrate_apps_concurrent(&[("a-mid", "a-back"), ("b-src", "b-dst")])
        .unwrap();

    // The delta actually saved bytes: the channel carried roughly B's
    // full state plus a small delta, not two full states.
    let (_, bytes) = back_tap.snapshot();
    let a_state = dc.app_bulk_state("a-back").unwrap().expect("A delta state");
    let b_state = dc.app_bulk_state("b-dst").unwrap().expect("B full state");
    assert!(
        bytes < b_state.len() + a_state.len() / 2,
        "concurrent delta must still save bytes: {bytes} wire bytes for \
         {} + {} of state",
        a_state.len(),
        b_state.len()
    );

    // Byte-exact reconstruction on both streams.
    dc.call_app("a-back", kv_ops::LOAD, &a_state).unwrap();
    let dirtied = dc
        .call_app("a-back", kv_ops::GET, b"bulk-00000003")
        .unwrap();
    let expected: Vec<u8> = (0..4096usize)
        .map(|j| 0x99u8.wrapping_add((3 + j) as u8))
        .collect();
    assert_eq!(dirtied, expected, "dirtied entry carries the delta value");
    let version = dc.call_app("a-back", kv_ops::VERSION, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(version[..4].try_into().unwrap()), 2);
    dc.call_app("b-dst", kv_ops::LOAD, &b_state).unwrap();
    let len = dc.call_app("b-dst", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 512);
}

/// Delta cache bounds: an ME whose generation cache is byte-budgeted
/// evicts the least-recently-used base; a later delta against the
/// evicted base is NACKed and the migration falls back to a full stream
/// — completing correctly, just without the savings.
#[test]
fn evicted_delta_base_falls_back_to_full_stream() {
    let small_cache = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 256 * 1024,
        window: 4,
        // Fits one ~2.2 MiB state, not two: storing B's base evicts A's.
        cache_budget: 3 * 1024 * 1024,
    };
    let big_cache = TransferConfig {
        cache_budget: 256 * 1024 * 1024,
        ..small_cache
    };
    let mut dc = Datacenter::new(1614);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, small_cache);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, big_cache);
    let back_tap = install_byte_tap(&mut dc, m2, m1);

    let bulk = |dc: &mut Datacenter, app: &str| {
        dc.call_app(app, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            app,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(512, 4096, 0x21),
        )
        .unwrap();
    };

    // A migrates m1→m2: m1 (source) caches A's base; m2 (dest) too.
    dc.deploy_app("a-src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    bulk(&mut dc, "a-src");
    dc.deploy_app("a-mid", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("a-src", "a-mid").unwrap();

    // B migrates m1→m2: m1's budgeted cache must evict A's base (LRU).
    dc.deploy_app(
        "b-src",
        m1,
        &small_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    bulk(&mut dc, "b-src");
    dc.deploy_app(
        "b-dst",
        m2,
        &small_image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();
    dc.migrate_app("b-src", "b-dst").unwrap();

    // A returns m2→m1. m2 still holds A's base (big budget) and
    // announces a delta; m1 evicted it and NACKs; the transfer restarts
    // as a full stream on the same channel and completes.
    let state = dc.app_bulk_state("a-mid").unwrap().expect("A state");
    dc.call_app("a-mid", kv_ops::LOAD, &state).unwrap();
    dc.call_app(
        "a-mid",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(4, 4096, 0x44),
    )
    .unwrap();
    dc.deploy_app("a-back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    back_tap.reset();
    dc.migrate_app("a-mid", "a-back").unwrap();

    let (frames, bytes) = back_tap.snapshot();
    let state = dc.app_bulk_state("a-back").unwrap().expect("full state");
    assert!(
        bytes >= state.len(),
        "evicted base forces the full-stream fallback: {bytes} wire bytes \
         for {} state",
        state.len()
    );
    assert!(
        frames >= 4,
        "DeltaStart + NACKed restart is several frames, saw {frames}"
    );
    dc.call_app("a-back", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("a-back", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 512);
    let version = dc.call_app("a-back", kv_ops::VERSION, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(version[..4].try_into().unwrap()), 2);
}

/// Regression: a below-threshold single-shot `Transfer` and a streaming
/// migration fired together on a **warm** channel must both complete.
/// The Transfer's ciphertext is larger than the stream's chunk frames
/// sealed behind it; the FIFO link still delivers it first, so both
/// share the channel without either waiting for the other.
#[test]
fn single_shot_and_stream_fired_together_on_warm_channel_both_complete() {
    let config = TransferConfig {
        stream_threshold: 64 * 1024,
        chunk_size: 4096,
        window: 4,
        ..TransferConfig::default()
    };
    let (mut dc, m1, m2) = dc_with_config(1615, config);

    // Warm the ME↔ME channel with a throwaway migration.
    dc.deploy_app("warm", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("warm", kv_ops::INIT, &[]).unwrap();
    dc.deploy_app(
        "warm-dst",
        m2,
        &image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();
    dc.migrate_app("warm", "warm-dst").unwrap();

    // A ~48 KiB below-threshold state (single-shot) and a ~96 KiB
    // streaming state (4 KiB chunks), fired back to back.
    let small_img = EnclaveImage::build("warm-s", 1, b"kv", &EnclaveSigner::from_seed([73; 32]));
    let big_img = EnclaveImage::build("warm-b", 1, b"kv", &EnclaveSigner::from_seed([74; 32]));
    for (app, dst, img, entries) in [
        ("s-src", "s-dst", &small_img, 10u32),
        ("b-src", "b-dst", &big_img, 20),
    ] {
        dc.deploy_app(app, m1, img, KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app(app, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            app,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(entries, 4096, 0x77),
        )
        .unwrap();
        dc.deploy_app(dst, m2, img, KvStore::new(), InitRequest::Migrate)
            .unwrap();
    }
    dc.migrate_apps_concurrent(&[("s-src", "s-dst"), ("b-src", "b-dst")])
        .unwrap();

    for (dst, entries) in [("s-dst", 10u32), ("b-dst", 20)] {
        let state = dc.app_bulk_state(dst).unwrap().expect("state arrived");
        dc.call_app(dst, kv_ops::LOAD, &state).unwrap();
        let len = dc.call_app(dst, kv_ops::LEN, &[]).unwrap();
        assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), entries);
    }
}

#[test]
fn queued_migrations_to_same_destination_all_complete() {
    // Two enclaves request migration to the same machine before any
    // ME↔ME channel exists: the first (large state) streams, and the
    // second drains from the queue once the channel frees up — the ME
    // must re-dispatch after Delivered instead of parking it forever.
    let (mut dc, m1, m2) = dc_with_config(1606, streaming_config());
    dc.deploy_app("src-big", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src-big", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src-big",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(512, 4096, 0x21),
    )
    .unwrap();
    dc.deploy_app(
        "src-small",
        m1,
        &small_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    dc.call_app("src-small", kv_ops::INIT, &[]).unwrap();
    dc.call_app("src-small", kv_ops::PUT, &kvstore::encode_put(b"x", b"y"))
        .unwrap();

    dc.deploy_app(
        "dst-big",
        m2,
        &image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();
    dc.deploy_app(
        "dst-small",
        m2,
        &small_image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();

    // Queue both requests back to back, before pumping the world.
    {
        let a = dc.app("src-big");
        let mut a = a.lock();
        a.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    {
        let b = dc.app("src-small");
        let mut b = b.lock();
        b.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    for (src, dst) in [("src-big", "dst-big"), ("src-small", "dst-small")] {
        assert_eq!(dc.app(src).lock().status(), AppStatus::Migrated, "{src}");
        assert_eq!(dc.app(dst).lock().status(), AppStatus::Ready, "{dst}");
    }
    let state = dc
        .app_bulk_state("dst-big")
        .unwrap()
        .expect("streamed state");
    dc.call_app("dst-big", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("dst-big", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 512);
    let state = dc
        .app_bulk_state("dst-small")
        .unwrap()
        .expect("small state");
    dc.call_app("dst-small", kv_ops::LOAD, &state).unwrap();
    assert_eq!(dc.call_app("dst-small", kv_ops::GET, b"x").unwrap(), b"y");
}

/// A delta base is identified by content, not by its number: store A
/// (m1→m2) and store B (m3→m4) run the same image, have equal lengths
/// and are both cached as generation 0. When A moves on from m2 to m4,
/// m2 announces a delta against A's generation 0; m4 holds B's
/// generation 0 under the same number and length, so the page-digest
/// root tells the bases apart: m4 NACKs and the move completes as a full
/// stream with A's exact entries.
#[test]
fn same_numbered_base_with_other_content_falls_back_to_full_stream() {
    let config = streaming_config();
    let mut dc = Datacenter::new(1616);
    let policy = MigrationPolicy::same_operator_only();
    let [m1, m2, m3, m4] =
        [(); 4].map(|()| dc.add_machine_with_transfer(MachineLabels::default(), &policy, config));
    for (src, dst, from, to, fill) in [("a", "a2", m1, m2, 0x21), ("b", "b4", m3, m4, 0x42)] {
        dc.deploy_app(src, from, &image(), KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app(src, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            src,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(512, 4096, fill),
        )
        .unwrap();
        dc.deploy_app(dst, to, &image(), KvStore::new(), InitRequest::Migrate)
            .unwrap();
        dc.migrate_app(src, dst).unwrap();
    }
    let a = dc.app_bulk_state("a2").unwrap().expect("A arrived");
    let b = dc.app_bulk_state("b4").unwrap().expect("B arrived");
    assert_eq!(a.len(), b.len(), "both bases have the same length");
    assert!(a != b, "but not the same content");

    // A dirties four entries on m2; B leaves m4 (its ME keeps B's
    // generation 0 cached) and A's destination takes its place.
    dc.call_app("a2", kv_ops::LOAD, &a).unwrap();
    dc.call_app(
        "a2",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(4, 4096, 0x44),
    )
    .unwrap();
    let sent = dc.app_bulk_state("a2").unwrap().expect("dirtied A");
    dc.stop_app("b4");
    dc.deploy_app("a4", m4, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    let tap = install_byte_tap(&mut dc, m2, m4);
    dc.migrate_app("a2", "a4").unwrap();

    let delta_fallbacks = |dc: &mut Datacenter, m: MachineId| {
        dc.me_host(m)
            .lock()
            .telemetry()
            .unwrap()
            .counters
            .get("me.delta_fallbacks")
            .copied()
    };
    assert_eq!(delta_fallbacks(&mut dc, m4), Some(1), "m4 NACKs the delta");
    assert_eq!(delta_fallbacks(&mut dc, m2), Some(1), "m2 restarts in full");
    let (_, bytes) = tap.snapshot();
    assert!(
        bytes >= sent.len(),
        "the fallback ships the full state: {bytes} wire bytes for {} state",
        sent.len()
    );

    let got = dc.app_bulk_state("a4").unwrap().expect("A arrived at m4");
    assert!(got == sent, "m4 released A's state exactly");
    dc.call_app("a4", kv_ops::LOAD, &got).unwrap();
    let len = dc.call_app("a4", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 512);
    for (i, fill) in [(1u32, 0x44u8), (3, 0x44), (4, 0x21), (300, 0x21)] {
        let key = format!("bulk-{i:08}");
        let value = dc.call_app("a4", kv_ops::GET, key.as_bytes()).unwrap();
        let expected: Vec<u8> = (0..4096usize)
            .map(|j| fill.wrapping_add((i as usize + j) as u8))
            .collect();
        assert_eq!(value, expected, "entry {key}");
    }
}

/// The live store's pages are on the source's disk beside a Table II
/// blob; after a handoff neither holds state: the pages are dropped,
/// and the frozen blob holds Table II only, still restarts as `Frozen`
/// and does not grow with the staged state (which the migration carries
/// through the ME).
#[test]
fn frozen_blob_omits_the_staged_state() {
    let (mut dc, m1, m2) = dc_with_config(1617, streaming_config());
    let mut frozen_sizes = Vec::new();
    for (name, image, count) in [("small", small_image(), 16u32), ("large", image(), 256)] {
        dc.deploy_app(name, m1, &image, KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app(name, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            name,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(count, 4096, 0x33),
        )
        .unwrap();
        let key = format!("mig-state:{name}");
        let disk = dc.world().machine(m1).disk.clone();
        let live = disk.get(&key).expect("live blob");
        assert!(live.len() < 4096, "a live blob holds Table II only");
        let staged = dc.app_bulk_state(name).unwrap().expect("staged state");
        assert!(staged.len() > count as usize * 4096);
        let stored = dc.app(name).lock().stored_container();
        assert_eq!(
            stored,
            Some(staged),
            "the host stores the live store's pages"
        );
        let dst = format!("{name}-dst");
        dc.deploy_app(&dst, m2, &image, KvStore::new(), InitRequest::Migrate)
            .unwrap();
        dc.migrate_app(name, &dst).unwrap();
        let frozen = disk.get(&key).expect("frozen blob");
        assert!(frozen.len() < 4096, "frozen blob is {} bytes", frozen.len());
        frozen_sizes.push(frozen.len());
        assert!(
            !disk
                .keys()
                .iter()
                .any(|key| key.starts_with(&format!("mig-pages:{name}:"))),
            "the source's pages are dropped"
        );
        assert_eq!(dc.app(name).lock().stored_container(), None);

        let err = dc
            .restart_app(name, m1, &image, KvStore::new())
            .unwrap_err();
        assert!(
            matches!(err, sgx_sim::SgxError::Enclave(ref m) if m.contains("frozen")),
            "the frozen blob still restarts as frozen: {err:?}"
        );
    }
    assert_eq!(
        frozen_sizes[0], frozen_sizes[1],
        "a 64 KiB and a 1 MiB store leave the same frozen blob"
    );
}
