//! Migration Enclave crash recovery: the Fig. 2 retention rule ("the
//! migration data remains in the Migration Enclave ... until the error is
//! resolved") must survive management-VM restarts, and duplicated
//! deliveries after a crash must be idempotent.

use cloud_sim::machine::MachineLabels;
use cloud_sim::network::{Envelope, TapAction};
use mig_core::datacenter::Datacenter;
use mig_core::harness::{AppCtx, AppLogic};
use mig_core::host::AppStatus;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::SgxError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct App;

impl AppLogic for App {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            1 => {
                let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                Ok(vec![id])
            }
            2 => Ok(ctx
                .lib
                .increment_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            3 => Ok(ctx
                .lib
                .read_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

fn image() -> EnclaveImage {
    EnclaveImage::build(
        "recovery-app",
        1,
        b"code",
        &EnclaveSigner::from_seed([61; 32]),
    )
}

fn dc2(
    seed: u64,
) -> (
    Datacenter,
    sgx_sim::machine::MachineId,
    sgx_sim::machine::MachineId,
) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let m2 = dc.add_machine(MachineLabels::default(), &policy);
    (dc, m1, m2)
}

#[test]
fn stored_migration_data_survives_me_restart() {
    // Transfer arrives with no matching enclave; the destination ME
    // parks it, checkpoints, and reboots. The enclave deployed afterwards
    // still receives the data.
    let (mut dc, m1, m2) = dc2(401);
    dc.deploy_app("src", m1, &image(), App, InitRequest::New)
        .unwrap();
    let id = dc.call_app("src", 1, &[]).unwrap()[0];
    dc.call_app("src", 2, &[id]).unwrap();

    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);

    // Checkpoint + reboot the destination's management VM.
    dc.persist_me(m2).unwrap();
    dc.restart_me(m2).unwrap();

    // The matching enclave arrives after the reboot: the parked data is
    // delivered from the restored checkpoint and installed...
    dc.deploy_app("dst", m2, &image(), App, InitRequest::Migrate)
        .unwrap();
    dc.run();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    let v = u32::from_le_bytes(
        dc.call_app("dst", 3, &[id]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(v, 1);

    // ...but the DONE acknowledgement cannot reach the source over the
    // pre-restart channel (attested channels are ephemeral). The Fig. 2
    // error rule applies: the source retained its copy; an operator
    // retry re-attests and completes (idempotently on the destination).
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);
    dc.retry_migration("src", "dst").unwrap();
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    let v = u32::from_le_bytes(
        dc.call_app("dst", 3, &[id]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(v, 1, "idempotent re-delivery left state untouched");
}

#[test]
fn me_restart_without_checkpoint_loses_parked_data() {
    // Control: without the checkpoint, the §V design still fails safe —
    // the destination never becomes ready, the source retains its copy.
    let (mut dc, m1, m2) = dc2(402);
    dc.deploy_app("src", m1, &image(), App, InitRequest::New)
        .unwrap();
    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    // Reboot WITHOUT persisting.
    dc.restart_me(m2).unwrap();
    dc.deploy_app("dst", m2, &image(), App, InitRequest::Migrate)
        .unwrap();
    dc.run();

    assert_eq!(dc.app("dst").lock().status(), AppStatus::AwaitingIncoming);
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);
    // The source ME still holds the data: a retry delivers it.
    dc.retry_migration("src", "dst").unwrap();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
}

#[test]
fn duplicate_delivery_after_crash_is_idempotent() {
    // The library installs the data, but its DONE is lost; the ME
    // restarts from a checkpoint taken before delivery and re-forwards
    // when the enclave re-attests. The library acknowledges without
    // reinstalling; the source completes.
    let (mut dc, m1, m2) = dc2(403);
    dc.deploy_app("src", m1, &image(), App, InitRequest::New)
        .unwrap();
    let id = dc.call_app("src", 1, &[]).unwrap()[0];
    dc.call_app("src", 2, &[id]).unwrap();
    dc.deploy_app("dst", m2, &image(), App, InitRequest::Migrate)
        .unwrap();

    // Drop the first destination-side DONE (app→ME LIB_MSG after the
    // attestation handshake completes; tag 5 = LIB_MSG).
    let drops = Arc::new(AtomicUsize::new(0));
    let drops_tap = Arc::clone(&drops);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.to.machine == sgx_sim::machine::MachineId(2)
                && e.to.service == "me"
                && e.from.service.starts_with("app:dst")
                && !e.payload.is_empty()
                && e.payload[0] == mig_core::host::tags::LIB_MSG
                && drops_tap.load(Ordering::SeqCst) == 0
            {
                drops_tap.fetch_add(1, Ordering::SeqCst);
                TapAction::Drop
            } else {
                TapAction::Deliver
            }
        }));

    let result = dc.migrate_app("src", "dst");
    assert!(
        result.is_err(),
        "DONE was dropped; source cannot complete yet"
    );
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    // The destination *did* install the data.
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);

    // Destination management VM reboots; parked data was checkpointed
    // earlier (the ME retains it until DONE).
    dc.persist_me(m2).unwrap();
    dc.restart_me(m2).unwrap();

    // The destination app re-attests (its old channel died with the ME);
    // the restored ME re-forwards the parked data, and the library
    // acknowledges idempotently without reinstalling.
    {
        let dst = dc.app("dst");
        let mut dst = dst.lock();
        dst.attest_me(dc.world_mut().network_mut());
    }
    dc.run();

    // The ack still cannot reach the source (its channel predates the
    // reboot); the operator-driven retry re-attests and completes.
    dc.retry_migration("src", "dst").unwrap();
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    // And the destination state is exactly what it was (no reinstall).
    let v = u32::from_le_bytes(
        dc.call_app("dst", 3, &[id]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(v, 1);
}

/// The multiplexed-stream retention rule: the source ME crashes with
/// **three** concurrent chunk streams at different offsets; after
/// `restart_me` restores the sealed checkpoint, a single retry
/// renegotiates every stream's per-nonce resume point and all three
/// complete from their persisted progress.
#[test]
fn me_crash_with_three_streams_resumes_all_from_persisted_progress() {
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
    use mig_core::transfer::TransferConfig;
    use std::sync::atomic::AtomicBool;

    let kv_image = |n: u8| {
        EnclaveImage::build(
            &format!("recovery-kv-{n}"),
            1,
            b"kv",
            &EnclaveSigner::from_seed([62 + n; 32]),
        )
    };
    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 256 * 1024,
        window: 4,
        ..TransferConfig::default()
    };
    let mut dc = Datacenter::new(405);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);

    // Cut the link after a fixed number of stream frames, mid-flight for
    // all three streams (sizes differ so their offsets do too).
    let seen = Arc::new(AtomicUsize::new(0));
    let dropping = Arc::new(AtomicBool::new(false));
    {
        let seen = Arc::clone(&seen);
        let dropping = Arc::clone(&dropping);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.to.service == "me"
                    && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
                {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    if dropping.load(Ordering::SeqCst) && n >= 12 {
                        return TapAction::Drop;
                    }
                }
                TapAction::Deliver
            }));
    }

    // Three kvstores with 2/4/6 MiB of bulk state on m1, three awaiting
    // destinations on m2.
    let sizes = [512u32, 1024, 1536];
    let mut mrs = Vec::new();
    for (i, entries) in sizes.iter().enumerate() {
        let src = format!("src-{i}");
        let dst = format!("dst-{i}");
        dc.deploy_app(
            &src,
            m1,
            &kv_image(i as u8),
            KvStore::new(),
            InitRequest::New,
        )
        .unwrap();
        dc.call_app(&src, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            &src,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(*entries, 4096, 0x10 + i as u8),
        )
        .unwrap();
        dc.deploy_app(
            &dst,
            m2,
            &kv_image(i as u8),
            KvStore::new(),
            InitRequest::Migrate,
        )
        .unwrap();
        mrs.push(dc.app(&src).lock().enclave().identity().mr_enclave);
    }

    // Fire all three migrations together, then cut the cable mid-stream.
    dropping.store(true, Ordering::SeqCst);
    for i in 0..3 {
        let src = dc.app(&format!("src-{i}"));
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    // All three stalled mid-stream, each with its own per-nonce progress.
    let mut total_acked = 0;
    for (i, mr) in mrs.iter().enumerate() {
        let progress = dc
            .me_host(m1)
            .lock()
            .stream_progress(*mr)
            .unwrap()
            .unwrap_or_else(|| panic!("stream {i} went down the chunked path"));
        assert!(
            progress.acked < progress.total_chunks,
            "stream {i} must stall mid-stream: {progress:?}"
        );
        total_acked += progress.acked;
        assert!(
            progress.total_chunks > sizes[i] / 64,
            "2/4/6 MiB at 256 KiB per chunk: {progress:?}"
        );
    }
    assert!(
        total_acked > 0,
        "the link carried some chunks before the cut"
    );
    // Per-stream link telemetry sees all three multiplexed streams.
    let streams = dc.me_host(m1).lock().link_streams(m2).unwrap();
    assert_eq!(streams.len(), 3, "three per-nonce streams on the link");

    // Management-VM crash: checkpoint, restart, re-attest the sources.
    dc.persist_me(m1).unwrap();
    dc.restart_me(m1).unwrap();
    for i in 0..3 {
        let src = dc.app(&format!("src-{i}"));
        let mut src = src.lock();
        src.attest_me(dc.world_mut().network_mut());
    }
    dc.run();
    dropping.store(false, Ordering::SeqCst);

    // ONE retry renegotiates every stream on the reconnected channel —
    // the restored per-nonce table covers all of them.
    dc.resume_migration("src-0", "dst-0").unwrap();
    for (i, entries) in sizes.iter().enumerate() {
        assert_eq!(
            dc.app(&format!("src-{i}")).lock().status(),
            AppStatus::Migrated,
            "src-{i}"
        );
        assert_eq!(
            dc.app(&format!("dst-{i}")).lock().status(),
            AppStatus::Ready,
            "dst-{i}"
        );
        let dst = format!("dst-{i}");
        let state = dc.app_bulk_state(&dst).unwrap().expect("migrated state");
        dc.call_app(&dst, kv_ops::LOAD, &state).unwrap();
        let len = dc.call_app(&dst, kv_ops::LEN, &[]).unwrap();
        assert_eq!(
            u32::from_le_bytes(len[..4].try_into().unwrap()),
            *entries,
            "dst-{i} reconstructed every entry"
        );
        let key = format!("bulk-{:08}", entries - 1);
        let value = dc.call_app(&dst, kv_ops::GET, key.as_bytes()).unwrap();
        let fill = 0x10 + i as u8;
        let expected: Vec<u8> = (0..4096usize)
            .map(|j| fill.wrapping_add(((entries - 1) as usize + j) as u8))
            .collect();
        assert_eq!(value, expected, "dst-{i} last entry byte-identical");
    }
}

#[test]
fn restored_me_state_is_machine_bound() {
    // A checkpoint from machine A cannot be restored into machine B's ME
    // (native sealing): stolen ME state cannot seed a rogue machine.
    let (mut dc, m1, m2) = dc2(404);
    dc.persist_me(m1).unwrap();
    let (_, blob) = dc.me_checkpoints(m1).latest().unwrap();
    dc.me_checkpoints(m2).put(blob).unwrap();
    let err = dc.restart_me(m2).unwrap_err();
    assert_eq!(err, SgxError::MacMismatch);
}
