//! Adversarial end-to-end tests of the `RA_TRANSFER` frame between
//! Migration Enclaves. A frame is `[tag][u32 len][cell]`, where the cell
//! is one channel-sealed ME→ME message, so every transfer travels one
//! cell per frame and one frame per `TRANSFER` ECALL: a frame whose cell
//! is cut short, and the burst of single-shot and stream cells that a
//! cold channel's handshake releases.

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

/// 512 × 4 KiB values ≈ 2.2 MiB of sealed state → ~35 chunks at 64 KiB.
const BULK_COUNT: u32 = 512;
const BULK_VALUE_LEN: u32 = 4096;
const BULK_FILL: u8 = 0x5C;

fn stream_config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 16 * 1024,
        chunk_size: 64 * 1024,
        window: 8,
        ..TransferConfig::default()
    }
}

fn dc_pair(seed: u64) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, stream_config());
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, stream_config());
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

/// Whether `e` is an ME→ME transfer frame from `src` to `dst`.
fn is_transfer(e: &Envelope, src: MachineId, dst: MachineId) -> bool {
    e.from.machine == src
        && e.to.machine == dst
        && e.from.service == "me"
        && e.payload.first() == Some(&tags::RA_TRANSFER)
}

/// A frame whose cell is cut short mid-cell, its length word left as
/// sent, is rejected by the untrusted host's framing check **before any
/// AEAD work**: no `TRANSFER` ECALL runs, so no channel sequence number
/// is consumed, and every frame behind it fails authentication rather
/// than being taken for the missing chunk. The stream stalls fail-safe
/// with only the chunk ahead of the cut acknowledged, and resume
/// completes the migration.
#[test]
fn batch_truncated_mid_cell_rejected_before_aead() {
    let (mut dc, m1, m2) = dc_pair(1702);

    let seen = Arc::new(AtomicUsize::new(0));
    let truncating = Arc::new(AtomicBool::new(false));
    {
        let seen = Arc::clone(&seen);
        let truncating = Arc::clone(&truncating);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if is_transfer(e, m1, m2) {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    // The announcement, then chunks 0 and 1: cut chunk 1.
                    if truncating.load(Ordering::SeqCst) && n == 2 {
                        let mut payload = e.payload.clone();
                        payload.truncate(payload.len() - 7);
                        return TapAction::Replace(payload);
                    }
                }
                TapAction::Deliver
            }));
    }

    deploy_loaded_pair(&mut dc, m1, m2);
    truncating.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    let ResumableOutcome::Stalled { progress } = outcome else {
        panic!("a truncated frame must stall, not corrupt: {outcome:?}");
    };
    assert_eq!(
        progress.map(|(acked, _)| acked),
        Some(1),
        "exactly the chunk ahead of the cut frame is acknowledged"
    );
    let errors = dc.me_host(m2).lock().errors.clone();
    let (cut, behind) = errors.split_first().expect("the cut frame is reported");
    assert!(
        cut.starts_with("unframe:"),
        "the cut frame fails the host's framing check, not the ECALL: {errors:?}"
    );
    assert!(
        !behind.is_empty()
            && behind
                .iter()
                .all(|e| e.starts_with("ra transfer:") && e.contains("MAC mismatch")),
        "every frame behind the cut fails authentication: {errors:?}"
    );

    truncating.store(false, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    verify_destination(&mut dc);
}

/// One burst, both transfer kinds: a small single-shot migration and a
/// streamed one queued before the ME↔ME channel exists leave together
/// in the burst the channel handshake releases. The first frame is the
/// single-shot `Transfer` cell, sealed on its own; every frame holds
/// exactly one cell, so the destination takes one `TRANSFER` ECALL per
/// cell. Both release exactly once with the source's bytes.
#[test]
fn single_shot_and_stream_cells_share_one_container() {
    let (mut dc, m1, m2) = dc_pair(1706);

    // (frames, the first frame's length), and every frame whose length
    // word does not cover exactly the rest of the frame.
    let wire = Arc::new(parking_lot::Mutex::new((0u32, None::<usize>)));
    let misframed = Arc::new(AtomicUsize::new(0));
    let forwards = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
    {
        let wire = Arc::clone(&wire);
        let misframed = Arc::clone(&misframed);
        let forwards = Arc::clone(&forwards);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if is_transfer(e, m1, m2) {
                    let mut wire = wire.lock();
                    wire.0 += 1;
                    wire.1.get_or_insert(e.payload.len());
                    let len = u32::from_le_bytes(e.payload[1..5].try_into().unwrap());
                    if len as usize != e.payload.len() - 5 {
                        misframed.fetch_add(1, Ordering::SeqCst);
                    }
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

    // The burst leads with the single-shot Transfer cell: the frame head,
    // then the sealed Transfer (tag, measurement, Table I payload and
    // state behind their lengths, GCM tag).
    let (frames, first) = *wire.lock();
    let transfer = 5 + 1 + 32 + 4 + MigrationData::WIRE_SIZE + 4 + small_sent.len() + 16;
    assert_eq!(first, Some(transfer));
    assert_eq!(misframed.load(Ordering::SeqCst), 0, "one cell per frame");
    // One frame per cell: the Transfer, the announcement, every chunk.
    let telemetry = dc.fleet_telemetry().unwrap();
    let counter = |name: &str| telemetry.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("me.singleshot_transfers"), 1);
    assert_eq!(counter("me.announcements"), 1);
    assert_eq!(
        u64::from(frames),
        1 + 1 + counter("me.chunks_received"),
        "{frames} frames for one Transfer, one announcement and the chunks"
    );
}
