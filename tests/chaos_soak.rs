//! Chaos and supervision tests: a seeded soak subset over the full
//! fault mix, same-seed determinism, clean supervised aborts with the
//! source left authoritative, corrupted-control-frame recovery, and
//! resume idempotency after repeated crashes.
//!
//! The full 200-seed campaign runs via `cargo run --release --bin
//! chaos_soak`; this file keeps a fixed subset in the tier-1 suite.

use cloud_sim::machine::MachineLabels;
use cloud_sim::network::{Envelope, TapAction};
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_core::datacenter::{Datacenter, ResumableOutcome};
use mig_core::host::{tags, AppStatus};
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::supervisor::{AbortReason, MigrationOutcome, MigrationSupervisor, SupervisorConfig};
use mig_core::transfer::TransferConfig;
use sgx_migrate::soak;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fixed seed subset kept in tier 1 — k ranges over 1..=4 streams and
/// the generated schedules cover every fault kind.
const SOAK_SUBSET: std::ops::Range<u64> = 0..24;

#[test]
fn soak_subset_every_stream_releases_once_or_aborts_cleanly() {
    let report = soak::run_seeds(SOAK_SUBSET);
    assert_eq!(report.seeds.len(), SOAK_SUBSET.count());
    let mut injected = 0usize;
    for run in &report.seeds {
        // Every stream is accounted for: exactly-once release or
        // source-authoritative abort, nothing wedged or double-counted.
        assert_eq!(
            run.released + run.aborted,
            run.streams,
            "seed {}: {} streams but {} released + {} aborted",
            run.seed,
            run.streams,
            run.released,
            run.aborted
        );
        injected += run.faults.len();
    }
    assert!(
        injected > SOAK_SUBSET.count(),
        "fault schedules fired only {injected} faults across the subset"
    );
    // The report serialiser is stable: seeds ascending.
    let seeds: Vec<u64> = report.seeds.iter().map(|r| r.seed).collect();
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    assert_eq!(seeds, sorted);
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    for seed in [3u64, 7, 11] {
        let a = soak::run_seeds([seed]);
        let b = soak::run_seeds([seed]);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "seed {seed} produced divergent reports across reruns"
        );
    }
}

fn image(tag: u8) -> EnclaveImage {
    EnclaveImage::build(
        &format!("chaos-kv-{tag}"),
        1,
        &[tag; 16],
        &EnclaveSigner::from_seed([tag; 32]),
    )
}

fn chaos_config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 4096,
        chunk_size: 4096,
        window: 4,
        ..TransferConfig::default()
    }
}

fn chaos_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        deadline: Duration::from_secs(2),
        retry_budget: 3,
        backoff_base: Duration::from_millis(1),
    }
}

fn dc_pair(seed: u64, config: TransferConfig) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    (dc, m1, m2)
}

/// Deploys a loaded source / awaiting destination pair and returns the
/// source's staged bulk snapshot for later bit-identity checks.
fn deploy_pair(
    dc: &mut Datacenter,
    m1: MachineId,
    m2: MachineId,
    tag: u8,
    src: &str,
    dst: &str,
) -> Vec<u8> {
    let image = image(tag);
    dc.deploy_app(src, m1, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app(src, kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        src,
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(64, 2048, tag),
    )
    .unwrap();
    dc.deploy_app(dst, m2, &image, KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.app_bulk_state(src)
        .unwrap()
        .expect("source staged bulk state")
}

#[test]
fn supervisor_abort_leaves_source_authoritative() {
    let (mut dc, m1, m2) = dc_pair(8101, chaos_config());
    let snapshot = deploy_pair(&mut dc, m1, m2, 0x21, "src", "dst");

    // "Cut the cable" permanently: drop every ME frame between the two
    // machines in both directions, so retries can never make progress.
    let cut = Arc::new(AtomicBool::new(true));
    let tap_cut = Arc::clone(&cut);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            let between = (e.from.machine == m1 && e.to.machine == m2)
                || (e.from.machine == m2 && e.to.machine == m1);
            if between && e.from.service == "me" && tap_cut.load(Ordering::SeqCst) {
                return TapAction::Drop;
            }
            TapAction::Deliver
        }));

    let supervisor = MigrationSupervisor::new(chaos_supervisor());
    let outcomes = supervisor.run(&mut dc, &[("src", "dst")], |_| Vec::new());
    let MigrationOutcome::Aborted { reason, retries } = outcomes[0] else {
        panic!("expected a supervised abort, got {:?}", outcomes[0]);
    };
    assert!(
        matches!(
            reason,
            AbortReason::DeadPeer | AbortReason::RetryBudgetExhausted
        ),
        "unexpected abort reason {reason:?}"
    );
    assert!(retries >= 1, "the supervisor never retried before aborting");

    // Graceful degradation: the destination never released and the
    // source's state survived — durably checkpointed, not half-moved.
    assert_ne!(dc.app("dst").lock().status(), AppStatus::Ready);
    dc.persist_me(m1).unwrap();
    assert!(dc.me_checkpoints(m1).latest_meta().is_some());

    // The network heals; an operator retry of the retained transfer
    // still converges to a single, bit-identical release.
    cut.store(false, Ordering::SeqCst);
    for app in ["src", "dst"] {
        let host = dc.app(app);
        host.lock().attest_me(dc.world_mut().network_mut());
    }
    dc.run();
    let mr = dc.app("src").lock().enclave().identity().mr_enclave;
    {
        let me = dc.me_host(m1);
        me.lock()
            .retry_migration(dc.world_mut().network_mut(), mr, m2)
            .unwrap();
    }
    dc.run();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    assert_ne!(dc.app("src").lock().status(), AppStatus::Ready);
    assert_eq!(dc.app_bulk_state("dst").unwrap().unwrap(), snapshot);

    // The injected recovery actions are visible in telemetry.
    let counters = dc.me_host(m1).lock().telemetry().unwrap().counters;
    assert!(*counters.get("edge.backoff").unwrap_or(&0) >= 1);
    assert!(*counters.get("edge.abort").unwrap_or(&0) >= 1);
}

/// Satellite: a bit-flipped 64-byte control frame (a `ChunkAck` riding
/// an `RA_ACK`-tagged envelope) must not wedge the shared ME↔ME
/// channel. The AEAD check rejects the frame, the affected stream
/// stalls, and supervised recovery renegotiates the channel — both
/// concurrent streams still release exactly once, bit-identical.
#[test]
fn corrupted_control_frame_is_rejected_and_streams_recover() {
    let (mut dc, m1, m2) = dc_pair(8102, chaos_config());
    let snap_a = deploy_pair(&mut dc, m1, m2, 0x31, "src-a", "dst-a");
    let snap_b = deploy_pair(&mut dc, m1, m2, 0x32, "src-b", "dst-b");

    // Bit-flip exactly one small dst→src control frame mid-transfer.
    let corrupted = Arc::new(AtomicUsize::new(0));
    let tap_corrupted = Arc::clone(&corrupted);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.machine == m2
                && e.to.machine == m1
                && e.from.service == "me"
                && e.payload.first() == Some(&tags::RA_ACK)
                && e.payload.len() < 160
                && tap_corrupted.fetch_add(1, Ordering::SeqCst) == 0
            {
                let mut tampered = e.payload.clone();
                let mid = tampered.len() / 2;
                tampered[mid] ^= 0x20;
                return TapAction::Replace(tampered);
            }
            TapAction::Deliver
        }));

    let supervisor = MigrationSupervisor::new(chaos_supervisor());
    let outcomes = supervisor.run(&mut dc, &[("src-a", "dst-a"), ("src-b", "dst-b")], |_| {
        Vec::new()
    });

    assert!(
        corrupted.load(Ordering::SeqCst) >= 1,
        "the tamper tap never saw a small RA_ACK control frame"
    );
    assert!(
        outcomes.iter().all(MigrationOutcome::is_released),
        "corrupted control frame wedged a stream: {outcomes:?}"
    );
    for (dst, snap) in [("dst-a", &snap_a), ("dst-b", &snap_b)] {
        assert_eq!(dc.app(dst).lock().status(), AppStatus::Ready);
        assert_eq!(&dc.app_bulk_state(dst).unwrap().unwrap(), snap);
    }
    // Exactly once: both sources froze.
    assert_ne!(dc.app("src-a").lock().status(), AppStatus::Ready);
    assert_ne!(dc.app("src-b").lock().status(), AppStatus::Ready);
}

/// Installs a tap dropping src→dst stream frames beyond a mutable
/// budget while `dropping` holds.
struct CrashTap {
    seen: Arc<AtomicUsize>,
    allow: Arc<AtomicUsize>,
    dropping: Arc<AtomicBool>,
}

fn install_crash_tap(dc: &mut Datacenter, src: MachineId, dst: MachineId) -> CrashTap {
    let seen = Arc::new(AtomicUsize::new(0));
    let allow = Arc::new(AtomicUsize::new(usize::MAX));
    let dropping = Arc::new(AtomicBool::new(false));
    let (t_seen, t_allow, t_dropping) =
        (Arc::clone(&seen), Arc::clone(&allow), Arc::clone(&dropping));
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.machine == src
                && e.to.machine == dst
                && e.from.service == "me"
                && e.payload.first() == Some(&tags::RA_TRANSFER)
            {
                let n = t_seen.fetch_add(1, Ordering::SeqCst);
                if t_dropping.load(Ordering::SeqCst) && n >= t_allow.load(Ordering::SeqCst) {
                    return TapAction::Drop;
                }
            }
            TapAction::Deliver
        }));
    CrashTap {
        seen,
        allow,
        dropping,
    }
}

/// 4096 × 2048-byte values: enough chunks (with the default 1 MiB
/// chunk size) to stall the stream mid-flight.
fn big_streaming_config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 64 * 1024,
        chunk_size: 1024 * 1024,
        window: 4,
        ..TransferConfig::default()
    }
}

fn deploy_big_pair(dc: &mut Datacenter, m1: MachineId, m2: MachineId) -> Vec<u8> {
    let image = image(0x41);
    dc.deploy_app("src", m1, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(4096, 2048, 0x5A),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image, KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.app_bulk_state("src").unwrap().expect("staged state")
}

/// Satellite: `resume_migration` is idempotent — calling it again after
/// the migration already released must not double-release or disturb
/// the destination.
#[test]
fn double_resume_converges_to_a_single_release() {
    let (mut dc, m1, m2) = dc_pair(8103, big_streaming_config());
    let tap = install_crash_tap(&mut dc, m1, m2);
    let snapshot = deploy_big_pair(&mut dc, m1, m2);

    tap.allow.store(6, Ordering::SeqCst);
    tap.dropping.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    assert!(matches!(outcome, ResumableOutcome::Stalled { .. }));

    dc.restart_me(m1).unwrap();
    tap.dropping.store(false, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    assert_eq!(dc.app_bulk_state("dst").unwrap().unwrap(), snapshot);

    // Second resume: the source ME retains nothing for this enclave any
    // more, so the call must fail cleanly rather than re-transfer.
    let second = dc.resume_migration("src", "dst");
    assert!(second.is_err(), "second resume re-dispatched a transfer");
    // Nothing moved: still a single release, destination undisturbed.
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    let state = dc.app_bulk_state("dst").unwrap().unwrap();
    assert_eq!(state, snapshot);
    // The restored store serves, with counter continuity intact.
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    let version = dc.call_app("dst", kv_ops::VERSION, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(version[..4].try_into().unwrap()), 1);
}

/// Satellite: a second crash mid-resume still converges — the second
/// resume picks up from the later acknowledged chunk and the
/// destination releases exactly once.
#[test]
fn resume_after_second_crash_converges_to_a_single_release() {
    let (mut dc, m1, m2) = dc_pair(8104, big_streaming_config());
    let tap = install_crash_tap(&mut dc, m1, m2);
    let snapshot = deploy_big_pair(&mut dc, m1, m2);
    let mr = dc.app("src").lock().enclave().identity().mr_enclave;

    // First crash: announcement + 5 chunks delivered, then the cable
    // goes, then the source management VM restarts from its checkpoint.
    tap.allow.store(6, Ordering::SeqCst);
    tap.dropping.store(true, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    let ResumableOutcome::Stalled {
        progress: Some((first_acked, total)),
    } = outcome
    else {
        panic!("expected a stalled stream with progress, got {outcome:?}");
    };
    dc.restart_me(m1).unwrap();

    // First resume also gets cut a few chunks further in: the
    // ResumeRequest plus two chunks pass, then the cable goes again.
    tap.allow
        .store(tap.seen.load(Ordering::SeqCst) + 3, Ordering::SeqCst);
    assert!(
        dc.resume_migration("src", "dst").is_err(),
        "resume completed despite the dropped frames"
    );
    let second_acked = dc
        .me_host(m1)
        .lock()
        .stream_progress(mr)
        .unwrap()
        .expect("retained stream progress")
        .acked;
    assert!(
        second_acked > first_acked,
        "first resume made no progress past chunk {first_acked}"
    );

    // Second crash, then a clean resume: only the tail travels and the
    // stream converges to one release.
    dc.persist_me(m1).unwrap();
    dc.restart_me(m1).unwrap();
    tap.dropping.store(false, Ordering::SeqCst);
    dc.resume_migration("src", "dst").unwrap();

    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    let state = dc.app_bulk_state("dst").unwrap().unwrap();
    assert_eq!(state, snapshot);
    assert!(second_acked < total, "the stream had already finished");
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    let version = dc.call_app("dst", kv_ops::VERSION, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(version[..4].try_into().unwrap()), 1);
}
