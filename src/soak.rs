//! Seeded chaos soak harness: drives supervised migrations under
//! generated fault schedules and asserts the convergence invariant.
//!
//! One [`run_seed`] call builds a fresh two-machine datacenter, deploys
//! `1 + seed % 4` concurrent kvstore migration streams, arms a
//! [`mig_chaos::FaultPlan`] generated from the seed (network drops /
//! corruption / delays / partitions, failed and torn disk writes, ME
//! crashes, scheduled ECALL aborts), and supervises the migrations to
//! completion with the [`mig_core::supervisor::MigrationSupervisor`].
//!
//! The invariant asserted for every stream:
//!
//! * **Released** — the destination is `Ready` exactly once and its
//!   bulk state is bit-identical to the source's pre-migration
//!   snapshot, with the source frozen; or
//! * **Aborted** — the destination never released (no half-installed
//!   state), the source's durable checkpoint is intact, and — with the
//!   fault window closed — the retained source state still converges
//!   to a single bit-identical release on a later operator retry
//!   (nothing was lost).
//!
//! Everything runs on virtual time from the seed alone, so a seed's
//! [`SeedReport`] (including the fired-fault history) is byte-stable
//! across reruns.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_chaos::{ChaosEngine, ChaosReport, FaultKind, FaultPlan, FaultSpec, SeedReport};
use mig_core::datacenter::Datacenter;
use mig_core::host::AppStatus;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::supervisor::{HostFault, MigrationOutcome, MigrationSupervisor, SupervisorConfig};
use mig_core::transfer::TransferConfig;
use mig_trace::Edge;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use std::time::Duration;

/// Per-stream bulk value size (bytes).
const VALUE_LEN: u32 = 2048;

/// Transfer geometry of the soak fleet: small chunks so even modest
/// state exercises the streamed path.
#[must_use]
pub fn soak_config() -> TransferConfig {
    TransferConfig {
        stream_threshold: 4096,
        chunk_size: 4096,
        window: 4,
        ..TransferConfig::default()
    }
}

/// Tight supervision knobs, so fault-heavy seeds abort within a bounded
/// virtual-time budget.
#[must_use]
pub fn soak_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        deadline: Duration::from_secs(2),
        retry_budget: 4,
        backoff_base: Duration::from_millis(1),
    }
}

fn stream_image(i: u32) -> EnclaveImage {
    let name = format!("soak-kv-{i}");
    let mut signer_seed = [0x53u8; 32];
    signer_seed[0] = i as u8;
    EnclaveImage::build(
        &name,
        1,
        name.as_bytes(),
        &EnclaveSigner::from_seed(signer_seed),
    )
}

/// Fault envelope for one seeded run: a mixed burst inside the first
/// ~10 ms of virtual time after setup, which brackets the transfers.
fn soak_spec(start: cloud_sim::SimTime, machines: Vec<MachineId>) -> FaultSpec {
    FaultSpec {
        start,
        horizon: Duration::from_millis(10),
        machines,
        net_faults: 3,
        partitions: 1,
        disk_faults: 2,
        crashes: 1,
        ecall_aborts: 1,
        max_delay: Duration::from_millis(2),
        max_partition: Duration::from_millis(3),
    }
}

/// Best-effort post-abort convergence: re-attest both endpoints and
/// re-dispatch the retained transfer a few times (the operator retry of
/// Fig. 2), with the fault window already closed. Returns whether the
/// destination released.
fn converge(dc: &mut Datacenter, src: &str, dst: &str) -> bool {
    let mr = dc.app(src).lock().enclave().identity().mr_enclave;
    let src_machine = dc.app_machine(src);
    let dst_machine = dc.app_machine(dst);
    for _ in 0..4 {
        for instance in [src, dst] {
            let app = dc.app(instance);
            app.lock().attest_me(dc.world_mut().network_mut());
        }
        dc.world_mut().run_until_idle();
        let me = dc.me_host(src_machine);
        let result = {
            let mut me = me.lock();
            me.retry_migration(dc.world_mut().network_mut(), mr, dst_machine)
        };
        drop(result);
        dc.world_mut().run_until_idle();
        if dc.app(dst).lock().status() == AppStatus::Ready {
            return true;
        }
    }
    false
}

/// Runs one seeded chaos soak iteration and asserts the convergence
/// invariant for every stream.
///
/// # Panics
///
/// Panics when the invariant is violated — a double release, lost or
/// corrupted state, or a half-released abort.
#[must_use]
pub fn run_seed(seed: u64) -> SeedReport {
    let streams = 1 + (seed % 4) as u32;
    let config = soak_config();
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);

    // Deploy the fleet: k loaded sources on m1, k awaiting destinations
    // on m2, each pair its own enclave image (streams are keyed by
    // measurement).
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    for i in 0..streams {
        let (src, dst) = (format!("src-{i}"), format!("dst-{i}"));
        let image = stream_image(i);
        dc.deploy_app(&src, m1, &image, KvStore::new(), InitRequest::New)
            .expect("deploy source");
        dc.call_app(&src, kv_ops::INIT, &[]).expect("init source");
        let count = 48 + 16 * i;
        dc.call_app(
            &src,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(count, VALUE_LEN, 0x40 + i as u8),
        )
        .expect("load source");
        dc.deploy_app(&dst, m2, &image, KvStore::new(), InitRequest::Migrate)
            .expect("deploy destination");
        let snapshot = dc
            .app_bulk_state(&src)
            .expect("read staged state")
            .expect("source staged bulk state");
        snapshots.push(snapshot);
        pairs.push((src, dst));
    }

    // Arm the fault plan only now: setup ran clean, the transfers run
    // under fire.
    let engine = ChaosEngine::new(FaultPlan::generate(
        seed,
        &soak_spec(dc.world().now(), vec![m1, m2]),
    ));
    dc.world_mut()
        .network_mut()
        .add_tap(engine.network_tap("me"));
    let clock = dc.world().clock();
    for machine in [m1, m2] {
        dc.world()
            .machine(machine)
            .disk
            .set_fault_hook(engine.disk_hook(machine, clock.clone()));
    }

    let supervisor = MigrationSupervisor::new(soak_supervisor());
    let pair_refs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(s, d)| (s.as_str(), d.as_str()))
        .collect();
    let poll_engine = engine.clone();
    let outcomes = supervisor.run(&mut dc, &pair_refs, move |dc| {
        poll_engine
            .take_due_host_faults(dc.world().now())
            .into_iter()
            .map(|fault| match fault {
                mig_chaos::HostFault::CrashMe(m) => HostFault::CrashMe(m),
                mig_chaos::HostFault::EcallAbort(m) => HostFault::EcallAbort(m),
            })
            .collect()
    });

    // Close the fault window before verifying: snapshot the fired
    // history, disarm what never fired, drop the disk hooks.
    let faults = engine.fired();
    engine.disarm();
    for machine in [m1, m2] {
        dc.world().machine(machine).disk.clear_fault_hook();
        // A scheduled ECALL abort the run never consumed must not fire
        // on the verification ECALLs below.
        dc.world()
            .machine(machine)
            .sgx
            .clear_scheduled_ecall_aborts();
    }
    // Mirror the network/disk fault history into the source ME's trace
    // (the supervisor already records machine-level faults as it applies
    // them), so the exported trace accounts for the full history.
    {
        let me = dc.me_host(m1);
        let mut me = me.lock();
        for record in &faults {
            match record.kind {
                FaultKind::CrashMe { .. } | FaultKind::EcallAbort { .. } => {}
                _ => me.record_channel_edge(m1, m2, record.at, Edge::Fault),
            }
        }
    }

    let mut released = 0u32;
    let mut aborted = 0u32;
    for (i, outcome) in outcomes.iter().enumerate() {
        let (src, dst) = (&pairs[i].0, &pairs[i].1);
        match outcome {
            MigrationOutcome::Released { .. } => {
                released += 1;
                assert_eq!(
                    dc.app(dst).lock().status(),
                    AppStatus::Ready,
                    "seed {seed} stream {i}: released outcome but destination not ready"
                );
                let state = dc
                    .app_bulk_state(dst)
                    .expect("read released state")
                    .expect("released destination holds state");
                assert_eq!(
                    state, snapshots[i],
                    "seed {seed} stream {i}: released state not bit-identical"
                );
                assert_ne!(
                    dc.app(src).lock().status(),
                    AppStatus::Ready,
                    "seed {seed} stream {i}: both sides live after release"
                );
            }
            MigrationOutcome::Aborted { .. } => {
                aborted += 1;
                assert_ne!(
                    dc.app(dst).lock().status(),
                    AppStatus::Ready,
                    "seed {seed} stream {i}: aborted but destination released"
                );
                // Source authoritative: its ME state can be durably
                // checkpointed now that disk faults are disarmed.
                dc.persist_me(m1)
                    .expect("post-abort source checkpoint succeeds");
                assert!(
                    dc.me_checkpoints(m1).latest_meta().is_some(),
                    "seed {seed} stream {i}: no durable source checkpoint after abort"
                );
                // Nothing was lost: with the faults gone, an operator
                // retry still converges to a single bit-identical
                // release (or the pair stays cleanly aborted if the
                // destination host is beyond recovery).
                if converge(&mut dc, src, dst) {
                    let state = dc
                        .app_bulk_state(dst)
                        .expect("read converged state")
                        .expect("converged destination holds state");
                    assert_eq!(
                        state, snapshots[i],
                        "seed {seed} stream {i}: post-abort convergence not bit-identical"
                    );
                } else {
                    assert_ne!(
                        dc.app(dst).lock().status(),
                        AppStatus::Ready,
                        "seed {seed} stream {i}: inconsistent post-abort state"
                    );
                }
            }
        }
    }

    SeedReport {
        seed,
        streams,
        released,
        aborted,
        retries: outcomes.iter().map(MigrationOutcome::retries).sum(),
        faults,
    }
}

/// Runs [`run_seed`] over a seed range and collects the stable report.
#[must_use]
pub fn run_seeds(seeds: impl IntoIterator<Item = u64>) -> ChaosReport {
    ChaosReport {
        seeds: seeds.into_iter().map(run_seed).collect(),
    }
}
