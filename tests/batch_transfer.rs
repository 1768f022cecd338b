//! Adversarial end-to-end tests of the hot-call batched TRANSFER path:
//! on a link with a negotiated batch size above 1, one `RA_TRANSFER`
//! container carries many sealed cells through one enclave transition,
//! so every attack on single frames gets re-run against the container —
//! tampering inside a batch, replaying whole containers, truncating one
//! mid-cell, downgrade negotiation with a batch-incapable peer, an ME
//! crash while a batch is partially acknowledged — and a single-shot
//! transfer shares a container with stream cells.

use cloud_sim::machine::MachineLabels;
use cloud_sim::network::{Envelope, TapAction};
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_core::datacenter::{Datacenter, ResumableOutcome};
use mig_core::host::{tags, AppStatus};
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
        "batch-kv",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([75; 32]),
    )
}

/// 512 × 4 KiB values ≈ 2.2 MiB of sealed state → ~35 chunks at 64 KiB,
/// shipped as ~9 containers of up to 4 cells.
const BULK_COUNT: u32 = 512;
const BULK_VALUE_LEN: u32 = 4096;
const BULK_FILL: u8 = 0x5C;

fn batched_config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 4096,
        chunk_size: 64 * 1024,
        window: 8,
        max_window: 8,
        batch_size: 4,
        ..TransferConfig::default()
    }
}

fn dc_with_configs(
    seed: u64,
    src_config: TransferConfig,
    dst_config: TransferConfig,
) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, src_config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, dst_config);
    (dc, m1, m2)
}

fn deploy_loaded_pair(dc: &mut Datacenter, m1: MachineId, m2: MachineId) {
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, BULK_FILL),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
}

fn verify_destination(dc: &mut Datacenter) {
    let state = dc
        .app_bulk_state("dst")
        .unwrap()
        .expect("migrated bulk state present");
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("dst", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), BULK_COUNT);
    for i in [0u32, 1, BULK_COUNT / 2, BULK_COUNT - 1] {
        let key = format!("bulk-{i:08}");
        let value = dc.call_app("dst", kv_ops::GET, key.as_bytes()).unwrap();
        let expected: Vec<u8> = (0..BULK_VALUE_LEN as usize)
            .map(|j| BULK_FILL.wrapping_add((i as usize + j) as u8))
            .collect();
        assert_eq!(value, expected, "entry {key} corrupted in transit");
    }
}

/// A flipped byte inside one cell of a mid-stream container: the cells
/// before it verify and install (the verified prefix), nothing at or
/// after the tampered cell is ever installed, the stream stalls instead
/// of corrupting, and the per-nonce resume repairs it. Afterwards,
/// replaying every recorded container is a no-op: the channel sequence
/// numbers moved on, so no replayed cell verifies and the destination
/// counters and state stay untouched.
#[test]
fn tampered_cell_mid_batch_keeps_verified_prefix_and_replay_is_inert() {
    let (mut dc, m1, m2) = dc_with_configs(1701, batched_config(), batched_config());

    let seen = Arc::new(AtomicUsize::new(0));
    let tampering = Arc::new(AtomicBool::new(false));
    {
        let seen = Arc::clone(&seen);
        let tampering = Arc::clone(&tampering);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&tags::RA_TRANSFER)
                {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    if tampering.load(Ordering::SeqCst) && n == 2 {
                        // Flip one ciphertext byte inside the third
                        // container's first cell (the frame is
                        // [tag][u32 len][u32 count][u32 cell0-len]
                        // [cell0…], so offset 45 is cell payload).
                        let mut payload = e.payload.clone();
                        payload[45] ^= 1;
                        return TapAction::Replace(payload);
                    }
                }
                TapAction::Deliver
            }));
    }

    deploy_loaded_pair(&mut dc, m1, m2);
    tampering.store(true, Ordering::SeqCst);
    dc.world_mut().network_mut().start_recording();
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    let log = dc.world_mut().network_mut().stop_recording();
    let ResumableOutcome::Stalled { progress } = outcome else {
        panic!("tampered container must stall the stream, got {outcome:?}");
    };
    let (acked, total) = progress.expect("stream progress available");
    assert!(
        acked < total,
        "the tail behind the tampered cell must stay unacknowledged: {acked}/{total}"
    );
    assert!(
        seen.load(Ordering::SeqCst) >= 3,
        "the stream actually travelled in containers"
    );

    // Per-nonce resume repairs the stream from the last acked chunk.
    tampering.store(false, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    verify_destination(&mut dc);

    // Replay every recorded container at the destination. The channel
    // nonces moved on: no cell verifies, nothing is installed, and the
    // chunk counters do not move.
    let telemetry = dc.fleet_telemetry().unwrap();
    let chunks_before = telemetry.counters.get("me.chunks_received").copied();
    let replays: Vec<Envelope> = log
        .iter()
        .filter(|e| {
            e.from.machine == m1
                && e.to.machine == m2
                && e.payload.first() == Some(&tags::RA_TRANSFER)
        })
        .cloned()
        .collect();
    assert!(!replays.is_empty(), "captured containers to replay");
    for envelope in replays {
        dc.world_mut().network_mut().inject(envelope);
    }
    dc.run();
    let telemetry = dc.fleet_telemetry().unwrap();
    assert_eq!(
        telemetry.counters.get("me.chunks_received").copied(),
        chunks_before,
        "replayed containers must not install a single chunk"
    );
    verify_destination(&mut dc);
}

/// A container truncated mid-cell is rejected by the untrusted-framing
/// check **before any AEAD work**: the ECALL errors out, no channel
/// sequence number is consumed by the malformed container, the stream
/// stalls fail-safe, and resume completes the migration.
#[test]
fn batch_truncated_mid_cell_rejected_before_aead() {
    let (mut dc, m1, m2) = dc_with_configs(1702, batched_config(), batched_config());

    let seen = Arc::new(AtomicUsize::new(0));
    let truncating = Arc::new(AtomicBool::new(false));
    {
        let seen = Arc::clone(&seen);
        let truncating = Arc::clone(&truncating);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&tags::RA_TRANSFER)
                {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    if truncating.load(Ordering::SeqCst) && n == 1 {
                        // Blow up the first cell's length field in
                        // place: the outer frame stays well-formed (so
                        // it reaches the enclave), but the container
                        // now truncates mid-cell.
                        let mut payload = e.payload.clone();
                        payload[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
                        return TapAction::Replace(payload);
                    }
                }
                TapAction::Deliver
            }));
    }

    deploy_loaded_pair(&mut dc, m1, m2);
    truncating.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    assert!(
        matches!(outcome, ResumableOutcome::Stalled { .. }),
        "truncated container must stall, not corrupt: {outcome:?}"
    );
    let errors = dc.me_host(m2).lock().errors.clone();
    assert!(
        errors
            .iter()
            .any(|e| e.starts_with("ra transfer:") && e.contains("malformed transfer container")),
        "the malformed container surfaces as a TRANSFER ECALL framing error: {errors:?}"
    );

    truncating.store(false, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    verify_destination(&mut dc);
}

/// Cell count of an `RA_TRANSFER` frame: the frame is
/// `[tag][u32 len][u32 count][u32 cell0-len][cell0…]…`.
fn cell_count(payload: &[u8]) -> u32 {
    u32::from_le_bytes(payload[5..9].try_into().unwrap())
}

/// Mixed fleet: a batch-capable source negotiating with a peer
/// provisioned at `batch_size: 1` falls back to one cell per container
/// — one frame per chunk, zero `me.batches_sealed` — and the migration
/// still completes byte-exactly.
#[test]
fn mixed_peers_negotiate_down_to_per_frame_path() {
    let legacy = TransferConfig {
        batch_size: 1,
        ..batched_config()
    };
    let (mut dc, m1, m2) = dc_with_configs(1703, batched_config(), legacy);

    let batch_frames = Arc::new(AtomicUsize::new(0));
    let single_frames = Arc::new(AtomicUsize::new(0));
    {
        let batch_frames = Arc::clone(&batch_frames);
        let single_frames = Arc::clone(&single_frames);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&tags::RA_TRANSFER)
                {
                    if cell_count(&e.payload) == 1 {
                        single_frames.fetch_add(1, Ordering::SeqCst);
                    } else {
                        batch_frames.fetch_add(1, Ordering::SeqCst);
                    }
                }
                TapAction::Deliver
            }));
    }

    deploy_loaded_pair(&mut dc, m1, m2);
    dc.migrate_app("src", "dst").unwrap();

    assert_eq!(
        batch_frames.load(Ordering::SeqCst),
        0,
        "a batch-size-1 peer must never be sent a container of several cells"
    );
    let telemetry = dc.fleet_telemetry().unwrap();
    let chunks = telemetry.counters.get("me.chunks_received").copied();
    assert!(chunks.is_some_and(|n| n > 30), "streamed: {chunks:?}");
    assert!(
        single_frames.load(Ordering::SeqCst) as u64 > chunks.unwrap_or(0),
        "at least one RA_TRANSFER frame per chunk (plus the announcement)"
    );
    assert_eq!(telemetry.counters.get("me.batches_sealed"), Some(&0));
    assert_eq!(telemetry.counters.get("me.batches_received"), Some(&0));
    verify_destination(&mut dc);
}

/// Source-ME crash while the container stream is partially acknowledged:
/// the durable checkpoint retains the per-chunk progress, the restarted
/// ME renegotiates (fresh channel, fresh batch negotiation), and the
/// resumed stream ships only the missing chunks — still in containers.
#[test]
fn me_crash_resumes_from_partially_acked_batch() {
    let (mut dc, m1, m2) = dc_with_configs(1704, batched_config(), batched_config());

    let seen = Arc::new(AtomicUsize::new(0));
    let dropping = Arc::new(AtomicBool::new(false));
    let resumed_batches = Arc::new(AtomicUsize::new(0));
    let counting_resume = Arc::new(AtomicBool::new(false));
    {
        let seen = Arc::clone(&seen);
        let dropping = Arc::clone(&dropping);
        let resumed_batches = Arc::clone(&resumed_batches);
        let counting_resume = Arc::clone(&counting_resume);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&tags::RA_TRANSFER)
                {
                    if counting_resume.load(Ordering::SeqCst) && cell_count(&e.payload) > 1 {
                        resumed_batches.fetch_add(1, Ordering::SeqCst);
                    }
                    // Let two containers through, then cut the cable.
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    if dropping.load(Ordering::SeqCst) && n >= 2 {
                        return TapAction::Drop;
                    }
                }
                TapAction::Deliver
            }));
    }

    deploy_loaded_pair(&mut dc, m1, m2);
    dropping.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    let ResumableOutcome::Stalled { progress } = outcome else {
        panic!("cut cable must stall the container stream, got {outcome:?}");
    };
    let (acked, total) = progress.expect("stream progress available");
    assert!(
        acked > 0 && acked < total,
        "some containers were combined-acked before the cut: {acked}/{total}"
    );

    // Source machine crashes; its ME comes back from the checkpoint
    // `migrate_app_resumable` wrote, and the repaired link resumes.
    dc.restart_me(m1).unwrap();
    dropping.store(false, Ordering::SeqCst);
    counting_resume.store(true, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    assert!(
        resumed_batches.load(Ordering::SeqCst) > 0,
        "the resumed tail still travels in containers"
    );
    verify_destination(&mut dc);
}

/// Determinism under batching: two same-seed batched migrations export
/// byte-identical fleet telemetry (`TRACE.json`), including the batch
/// counters — the container path adds no nondeterminism.
#[test]
fn batched_migration_telemetry_is_deterministic() {
    let run = |seed: u64| {
        let (mut dc, m1, m2) = dc_with_configs(seed, batched_config(), batched_config());
        deploy_loaded_pair(&mut dc, m1, m2);
        dc.migrate_app("src", "dst").unwrap();
        dc.fleet_telemetry().unwrap()
    };
    let a = run(1705);
    let b = run(1705);
    assert_eq!(a.to_json(), b.to_json(), "same seed, same TRACE.json");
    assert!(
        a.counters.get("me.batches_received").copied().unwrap_or(0) > 0,
        "the batched path was actually exercised"
    );
    assert_eq!(
        a.counters.get("me.batches_sealed"),
        a.counters.get("me.batches_received"),
        "every sealed container was received"
    );
}

/// One burst, both transfer kinds: a small single-shot migration and a
/// streamed one queued before the ME↔ME channel exists leave together
/// in the burst the channel handshake releases, so the single-shot
/// `Transfer` cell shares its container with the stream's announcement
/// and first chunks. Both release exactly once with the source's bytes,
/// and the destination takes fewer `TRANSFER` ECALLs than cells arrive.
#[test]
fn single_shot_and_stream_cells_share_one_container() {
    let config = TransferConfig {
        stream_threshold: 16 * 1024,
        ..batched_config()
    };
    let (mut dc, m1, m2) = dc_with_configs(1706, config, config);

    // (frames, cells, the first frame's cell count and first cell length)
    let wire = Arc::new(parking_lot::Mutex::new((0u32, 0u32, None::<(u32, u32)>)));
    let forwards = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
    {
        let wire = Arc::clone(&wire);
        let forwards = Arc::clone(&forwards);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&tags::RA_TRANSFER)
                {
                    let mut wire = wire.lock();
                    let count = cell_count(&e.payload);
                    let first_cell = u32::from_le_bytes(e.payload[9..13].try_into().unwrap());
                    wire.0 += 1;
                    wire.1 += count;
                    wire.2.get_or_insert((count, first_cell));
                }
                if e.to.machine == m2 && e.payload.first() == Some(&tags::ME_FORWARD) {
                    forwards.lock().push(e.to.service.clone());
                }
                TapAction::Deliver
            }));
    }

    deploy_loaded_pair(&mut dc, m1, m2);
    let small_image = EnclaveImage::build(
        "batch-kv-small",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([76; 32]),
    );
    dc.deploy_app(
        "small-src",
        m1,
        &small_image,
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    dc.call_app("small-src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "small-src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(1, 4096, 0x21),
    )
    .unwrap();
    dc.deploy_app(
        "small-dst",
        m2,
        &small_image,
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();
    let small_sent = dc
        .app_bulk_state("small-src")
        .unwrap()
        .expect("small state");
    let large_sent = dc.app_bulk_state("src").unwrap().expect("large state");
    assert!(small_sent.len() <= 16 * 1024 && large_sent.len() > 16 * 1024);

    dc.migrate_apps_concurrent(&[("small-src", "small-dst"), ("src", "dst")])
        .unwrap();

    // Exactly one release per migration, each the source's bytes.
    let mut forwards = forwards.lock().clone();
    forwards.sort();
    assert_eq!(forwards, ["app:dst", "app:small-dst"], "one release each");
    assert!(dc.app_bulk_state("small-dst").unwrap() == Some(small_sent.clone()));
    assert!(dc.app_bulk_state("dst").unwrap() == Some(large_sent));
    verify_destination(&mut dc);

    // The first container leads with the single-shot Transfer cell (its
    // sealed length: tag, measurement, Table I payload and state behind
    // their lengths, GCM tag) and carries stream cells behind it.
    let (frames, cells, first) = *wire.lock();
    let transfer_cell_len = 1 + 32 + 4 + MigrationData::WIRE_SIZE + 4 + small_sent.len() + 16;
    assert_eq!(first, Some((4, transfer_cell_len as u32)));
    let telemetry = dc.fleet_telemetry().unwrap();
    assert_eq!(telemetry.counters.get("me.singleshot_transfers"), Some(&1));
    assert_eq!(telemetry.counters.get("me.announcements"), Some(&1));
    // One TRANSFER ECALL per frame, several cells per ECALL.
    assert!(frames < cells, "{frames} TRANSFER ECALLs for {cells} cells");
    assert_eq!(
        telemetry.counters.get("me.batches_received"),
        telemetry.counters.get("me.batches_sealed")
    );
}
