//! End-to-end coverage of destination-side **speculative restore**, the
//! one receiver path: each verified chunk is staged as it arrives
//! (running state digest; a retained delta base overlaid page by page),
//! and what the destination releases must be the source's bytes, for
//! full and dirty-page delta streams alike.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::TransferConfig;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};

fn image() -> EnclaveImage {
    EnclaveImage::build(
        "spec-kv",
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([81; 32]),
    )
}

/// 1024 × 4 KiB values ≈ 4 MiB of sealed state: enough chunks to make
/// staging meaningful, small enough to keep the suite fast.
const BULK_COUNT: u32 = 1024;
const BULK_VALUE_LEN: u32 = 4096;

fn config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 64 * 1024,
        chunk_size: 256 * 1024,
        window: 4,
        ..TransferConfig::default()
    }
}

fn dc_pair(seed: u64) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config());
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config());
    (dc, m1, m2)
}

#[test]
fn streamed_full_and_delta_releases_match_the_source_bytes() {
    // Full migration → dirty pass → repeat (delta) migration: each
    // destination must release exactly the bytes its source staged.
    let (mut dc, m1, m2) = dc_pair(4901);
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, 0x5A),
    )
    .unwrap();
    let sent_full = dc.app_bulk_state("src").unwrap().expect("source state");
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let full_state = dc
        .app_bulk_state("dst")
        .unwrap()
        .expect("full snapshot released at the destination");
    assert!(
        full_state == sent_full,
        "full-stream release differs from the source"
    );

    // Dirty a slice of the working set at the destination and migrate
    // back: a repeat migration, shipped as a dirty-page delta and
    // staged onto the retained base.
    dc.call_app("dst", kv_ops::LOAD, &full_state).unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT / 64, BULK_VALUE_LEN, 0xC3),
    )
    .unwrap();
    let sent_delta = dc.app_bulk_state("dst").unwrap().expect("dirtied state");
    dc.deploy_app("back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("dst", "back").unwrap();
    let delta_state = dc
        .app_bulk_state("back")
        .unwrap()
        .expect("delta snapshot released at the source machine");
    assert!(
        delta_state == sent_delta,
        "delta-stream release differs from the source"
    );
    assert_ne!(full_state, delta_state, "the dirty pass changed the state");
    let telemetry = dc.fleet_telemetry().unwrap();
    assert_eq!(
        telemetry.counters.get("me.delta_fallbacks"),
        Some(&0),
        "the repeat migration shipped a delta, not a full fallback"
    );
}

#[test]
fn speculative_restore_survives_destination_me_restart() {
    // ME restarts between migrations must not break the speculative
    // path: the delta bases ride the me-state checkpoint, so the
    // repeat migration after the restart still content-verifies and
    // stages its base at announce time. (Mid-stream restarts — the
    // `ReceiverFsm::restore` re-absorb of a partially received prefix —
    // are covered by `tests/me_recovery.rs` and the session-layer unit
    // and property tests.)
    let (mut dc, m1, m2) = dc_pair(4903);
    dc.deploy_app("src", m1, &image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, 0x77),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let first = dc.app_bulk_state("dst").unwrap().expect("released");

    // Persist + restart both MEs (the delta bases and, on a future
    // stream, any in-flight prefixes ride the me-state checkpoint).
    dc.persist_me(m1).unwrap();
    dc.persist_me(m2).unwrap();
    dc.restart_me(m1).unwrap();
    dc.restart_me(m2).unwrap();

    // Attested sessions are ephemeral: the apps re-attest with their
    // restarted MEs before further migration traffic.
    {
        let dst = dc.app("dst");
        dst.lock().attest_me(dc.world_mut().network_mut());
    }
    dc.run();

    // Repeat migration after the restart: the delta base was persisted
    // on both ends, so the repeat still streams (and stages) a delta.
    dc.call_app("dst", kv_ops::LOAD, &first).unwrap();
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(8, BULK_VALUE_LEN, 0x11),
    )
    .unwrap();
    dc.deploy_app("back", m1, &image(), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("dst", "back").unwrap();
    let second = dc.app_bulk_state("back").unwrap().expect("released");
    assert_ne!(first, second);
    dc.call_app("back", kv_ops::LOAD, &second).unwrap();
    let len = dc.call_app("back", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), BULK_COUNT);
}
