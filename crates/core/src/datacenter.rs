//! High-level facade: a simulated datacenter with provisioned Migration
//! Enclaves, ready to deploy and migrate migratable enclaves.
//!
//! Wraps [`cloud_sim::World`] with the paper's trust setup (§V-B): one
//! operator, one provisioned ME per machine, and helpers to deploy
//! application enclaves, drive their lifecycle (restart, crash, power
//! events), and run migrations end to end. Examples and the benchmark
//! harness build on this; attack tests reach through to the lower layers
//! via the accessors.

use crate::error::MigError;
use crate::harness::{ops as lib_ops, AppLogic, MigratableEnclave};
use crate::host::{AppHost, AppStatus, MeHost, ME_SERVICE};
use crate::library::InitRequest;
use crate::me::{me_image, ops as me_ops, read_opt, MigrationEnclave};
use crate::operator::CloudOperator;
use crate::policy::MigrationPolicy;
use crate::transfer::checkpoint::CheckpointStore;
use crate::transfer::TransferConfig;
use cloud_sim::machine::MachineLabels;
use cloud_sim::network::Endpoint;
use cloud_sim::world::World;
use mig_crypto::ed25519::VerifyingKey;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgx_sim::cost::CostModel;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, MrEnclave};
use sgx_sim::wire::WireWriter;
use sgx_sim::SgxError;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A provisioned, migration-capable simulated datacenter.
///
/// # Example
///
/// See `examples/quickstart.rs` for the end-to-end flow.
pub struct Datacenter {
    world: World,
    operator: CloudOperator,
    me_hosts: HashMap<MachineId, Arc<Mutex<MeHost>>>,
    me_policies: HashMap<MachineId, MigrationPolicy>,
    me_transfer_configs: HashMap<MachineId, TransferConfig>,
    app_hosts: HashMap<String, Arc<Mutex<AppHost>>>,
    app_machines: HashMap<String, MachineId>,
}

/// Result of a [`Datacenter::migrate_app_resumable`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResumableOutcome {
    /// The migration ran to completion in the given virtual time.
    Completed(Duration),
    /// The transfer stalled mid-stream (e.g. a machine failure). The
    /// source ME state was checkpointed to disk; after recovery,
    /// [`Datacenter::resume_migration`] continues from the last
    /// acknowledged chunk.
    Stalled {
        /// `(acked_chunks, total_chunks)` of the streamed transfer, when
        /// it got far enough to stream.
        progress: Option<(u32, u32)>,
    },
}

impl std::fmt::Debug for Datacenter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Datacenter")
            .field("machines", &self.me_hosts.len())
            .field("apps", &self.app_hosts.len())
            .finish_non_exhaustive()
    }
}

impl Datacenter {
    /// Creates a datacenter with zero-latency platform firmware.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::build(World::new(seed), seed)
    }

    /// Creates a datacenter whose machines use `cost` for platform
    /// operations (benchmarks).
    #[must_use]
    pub fn with_cost_model(seed: u64, cost: Arc<dyn CostModel>) -> Self {
        Self::build(World::with_cost_model(seed, cost), seed)
    }

    fn build(world: World, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Datacenter {
            world,
            operator: CloudOperator::new(&mut rng),
            me_hosts: HashMap::new(),
            me_policies: HashMap::new(),
            me_transfer_configs: HashMap::new(),
            app_hosts: HashMap::new(),
            app_machines: HashMap::new(),
        }
    }

    /// The operator's root verification key.
    #[must_use]
    pub fn operator_root(&self) -> VerifyingKey {
        self.operator.root_key()
    }

    /// The canonical ME measurement (what libraries expect to attest).
    #[must_use]
    pub fn me_mr_enclave(&self) -> MrEnclave {
        me_image().mr_enclave()
    }

    /// Direct access to the underlying world (clock, network, machines).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Immutable world access.
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Provisions a machine: hardware, Migration Enclave, operator
    /// credential, and the given migration policy (§V-B setup phase).
    ///
    /// # Panics
    ///
    /// Panics if ME provisioning fails — that is a harness bug, not a
    /// runtime condition.
    pub fn add_machine(&mut self, labels: MachineLabels, policy: &MigrationPolicy) -> MachineId {
        self.add_machine_with_transfer(labels, policy, TransferConfig::default())
    }

    /// [`Datacenter::add_machine`] with explicit streaming-transfer
    /// tuning (chunk size, threshold, send window) for the machine's ME.
    ///
    /// # Panics
    ///
    /// Panics if ME provisioning fails — that is a harness bug, not a
    /// runtime condition.
    pub fn add_machine_with_transfer(
        &mut self,
        labels: MachineLabels,
        policy: &MigrationPolicy,
        transfer: TransferConfig,
    ) -> MachineId {
        let machine_id = self.world.add_machine(labels.clone());
        self.me_transfer_configs.insert(machine_id, transfer);
        let enclave = self
            .provision_me(machine_id, policy)
            .expect("ME provisioning at setup must succeed");

        let endpoint = Endpoint::new(machine_id, ME_SERVICE);
        let host = Arc::new(Mutex::new(MeHost::new(
            endpoint.clone(),
            enclave,
            self.world.ias().clone(),
            self.world.clock(),
        )));
        self.me_hosts.insert(machine_id, Arc::clone(&host));
        self.me_policies.insert(machine_id, policy.clone());
        self.world.register_service(endpoint, host);
        machine_id
    }

    /// Loads and provisions a fresh ME instance on `machine_id` (§V-B
    /// setup phase: keygen inside the enclave, operator-issued
    /// credential, pinned roots, policy).
    fn provision_me(
        &mut self,
        machine_id: MachineId,
        policy: &MigrationPolicy,
    ) -> Result<sgx_sim::enclave::EnclaveHandle, SgxError> {
        let machine = self.world.machine(machine_id).clone();
        let enclave = machine
            .sgx
            .load_enclave(&me_image(), Box::new(MigrationEnclave::new()))?;

        // CSR-style provisioning: the key is generated inside the ME.
        let pubkey_bytes = enclave.ecall(me_ops::KEYGEN, &[])?;
        let me_key = VerifyingKey(
            pubkey_bytes
                .try_into()
                .map_err(|_| SgxError::Enclave("ME keygen returned a malformed pubkey".into()))?,
        );
        let credential = self
            .operator
            .issue_credential(me_key, machine_id, &machine.labels);

        let mut w = WireWriter::new();
        w.bytes(&credential.to_bytes());
        w.array(&self.operator.root_key().0);
        w.array(&self.world.ias().verifying_key().0);
        w.bytes(&policy.to_bytes());
        self.me_transfer_configs
            .get(&machine_id)
            .copied()
            .unwrap_or_default()
            .encode(&mut w);
        enclave.ecall(me_ops::PROVISION, &w.finish())?;
        Ok(enclave)
    }

    /// The ME host on `machine` (diagnostics, error inspection).
    ///
    /// # Panics
    ///
    /// Panics on machines without a provisioned ME (test bug).
    #[must_use]
    pub fn me_host(&self, machine: MachineId) -> Arc<Mutex<MeHost>> {
        Arc::clone(self.me_hosts.get(&machine).expect("machine has an ME"))
    }

    /// Deploys a migratable enclave instance.
    ///
    /// Loads `image` with `app` wrapped in the migration harness,
    /// initializes the library per `init`, runs local attestation with
    /// the machine's ME, and pumps the world until the handshake (and any
    /// pending incoming migration delivery) settles.
    ///
    /// # Errors
    ///
    /// Library initialization errors — notably [`MigError::Frozen`] and
    /// [`MigError::StaleState`] surfaced as `SgxError::Enclave` — and
    /// launch failures propagate.
    pub fn deploy_app<A: AppLogic + 'static>(
        &mut self,
        instance: &str,
        machine: MachineId,
        image: &EnclaveImage,
        app: A,
        init: InitRequest,
    ) -> Result<Arc<Mutex<AppHost>>, SgxError> {
        let machine_ref = self.world.machine(machine).clone();
        let enclave = machine_ref
            .sgx
            .load_enclave(image, Box::new(MigratableEnclave::new(app)))?;
        let endpoint = Endpoint::new(machine, &format!("app:{instance}"));
        let host = AppHost::start(
            instance,
            endpoint.clone(),
            enclave,
            machine_ref.disk.clone(),
            self.me_mr_enclave(),
            init,
        )?;
        let host = Arc::new(Mutex::new(host));
        self.world.register_service(endpoint, host.clone());
        host.lock().attest_me(self.world.network_mut());
        self.world.run_until_idle();
        self.app_hosts
            .insert(instance.to_string(), Arc::clone(&host));
        self.app_machines.insert(instance.to_string(), machine);
        Ok(host)
    }

    /// The app host for `instance`.
    ///
    /// # Panics
    ///
    /// Panics on unknown instances (test bug).
    #[must_use]
    pub fn app(&self, instance: &str) -> Arc<Mutex<AppHost>> {
        Arc::clone(self.app_hosts.get(instance).expect("unknown app instance"))
    }

    /// The machine currently hosting `instance`.
    ///
    /// # Panics
    ///
    /// Panics on unknown instances (test bug).
    #[must_use]
    pub fn app_machine(&self, instance: &str) -> MachineId {
        *self
            .app_machines
            .get(instance)
            .expect("unknown app instance")
    }

    /// Issues an application ECALL on `instance`.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate.
    pub fn call_app(
        &mut self,
        instance: &str,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let host = self.app(instance);
        let result = host.lock().call(opcode, input);
        // Account any firmware latency the call incurred.
        self.world.run_until_idle();
        result
    }

    /// Migrates `src_instance`'s persistent state to the already deployed
    /// `dst_instance` (which must be awaiting a migration on another
    /// machine), pumping the world to completion. Returns the virtual
    /// time the migration took.
    ///
    /// # Errors
    ///
    /// [`MigError::HostState`] if either side ends in an unexpected
    /// status; enclave errors propagate.
    pub fn migrate_app(
        &mut self,
        src_instance: &str,
        dst_instance: &str,
    ) -> Result<Duration, MigError> {
        let dst_machine = self.app_machine(dst_instance);
        let src = self.app(src_instance);
        let dst = self.app(dst_instance);

        let started = self.world.now();
        src.lock()
            .migrate_to(self.world.network_mut(), dst_machine)
            .map_err(MigError::Sgx)?;
        self.world.run_until_idle();
        let finished = self.world.now();

        let src_status = src.lock().status();
        let dst_status = dst.lock().status();
        if src_status != AppStatus::Migrated {
            return Err(MigError::HostState("source did not complete migration"));
        }
        if dst_status != AppStatus::Ready {
            return Err(MigError::HostState("destination did not become ready"));
        }
        Ok(finished.since(started))
    }

    /// Migrates several enclaves **concurrently**: every
    /// `(source, destination)` pair's `migration_start` fires before the
    /// world is pumped, so their chunk streams multiplex on the shared
    /// ME↔ME channels (per-nonce streams, each free window slot going to
    /// the stream with the fewest chunks in flight — a large-state
    /// migration cannot head-of-line-block a small one).
    /// Returns the virtual time until the **last** migration completed.
    ///
    /// # Errors
    ///
    /// [`MigError::HostState`] if any pair ends in an unexpected status;
    /// enclave errors propagate.
    pub fn migrate_apps_concurrent(
        &mut self,
        pairs: &[(&str, &str)],
    ) -> Result<Duration, MigError> {
        let started = self.world.now();
        for (src_instance, dst_instance) in pairs {
            let dst_machine = self.app_machine(dst_instance);
            let src = self.app(src_instance);
            src.lock()
                .migrate_to(self.world.network_mut(), dst_machine)
                .map_err(MigError::Sgx)?;
        }
        self.world.run_until_idle();
        let finished = self.world.now();

        for (src_instance, dst_instance) in pairs {
            if self.app(src_instance).lock().status() != AppStatus::Migrated {
                return Err(MigError::HostState("a source did not complete migration"));
            }
            if self.app(dst_instance).lock().status() != AppStatus::Ready {
                return Err(MigError::HostState("a destination did not become ready"));
            }
        }
        Ok(finished.since(started))
    }

    /// Crash-resilient migration of `src_instance`'s persistent state to
    /// `dst_instance` (deployed, awaiting, on another machine).
    ///
    /// Like [`Datacenter::migrate_app`], but built for large streamed
    /// state: if the transfer stalls mid-stream (an injected machine
    /// failure, a partitioned link), it does **not** error out — it
    /// checkpoints the source ME's durable state (retained payload plus
    /// per-chunk progress) to disk and reports
    /// [`ResumableOutcome::Stalled`]. After the failure is repaired
    /// (e.g. [`Datacenter::restart_me`]), [`Datacenter::resume_migration`]
    /// continues from the last acknowledged chunk.
    ///
    /// # Errors
    ///
    /// Enclave errors from starting the migration propagate; a stalled
    /// transfer is an `Ok` outcome, not an error.
    pub fn migrate_app_resumable(
        &mut self,
        src_instance: &str,
        dst_instance: &str,
    ) -> Result<ResumableOutcome, MigError> {
        let src_machine = self.app_machine(src_instance);
        let dst_machine = self.app_machine(dst_instance);
        let src = self.app(src_instance);
        let dst = self.app(dst_instance);
        let mr = src.lock().enclave().identity().mr_enclave;

        let started = self.world.now();
        src.lock()
            .migrate_to(self.world.network_mut(), dst_machine)
            .map_err(MigError::Sgx)?;
        self.world.run_until_idle();
        let finished = self.world.now();

        if src.lock().status() == AppStatus::Migrated && dst.lock().status() == AppStatus::Ready {
            return Ok(ResumableOutcome::Completed(finished.since(started)));
        }
        // Stalled: checkpoint the source ME (retained data + chunk
        // progress) so recovery resumes instead of restarting.
        let progress = self
            .me_host(src_machine)
            .lock()
            .stream_progress(mr)
            .map_err(MigError::Sgx)?
            .map(|p| (p.acked, p.total_chunks));
        self.persist_me(src_machine).map_err(MigError::Sgx)?;
        Ok(ResumableOutcome::Stalled { progress })
    }

    /// Resumes a stalled migration of `src_instance` towards
    /// `dst_instance` from the last acknowledged chunk.
    ///
    /// Re-attests the (frozen) source enclave with its ME when needed —
    /// after an ME restart all attested sessions are gone — then
    /// re-dispatches the retained transfer with
    /// [`Datacenter::retry_migration`], whose virtual time it returns:
    /// the source ME renegotiates the resume point with the destination
    /// (`ResumeRequest` / `Resume`) and streams only the chunks the
    /// destination is missing.
    ///
    /// # Errors
    ///
    /// [`MigError`] variants surface from the source ME (no retained
    /// data) or from the completion check.
    pub fn resume_migration(
        &mut self,
        src_instance: &str,
        dst_instance: &str,
    ) -> Result<Duration, MigError> {
        // Re-attest the source app so the completion notification can
        // reach it over a fresh channel (harmless if already attested).
        {
            let src = self.app(src_instance);
            let mut src = src.lock();
            src.attest_me(self.world.network_mut());
        }
        self.world.run_until_idle();
        self.retry_migration(src_instance, dst_instance)
    }

    /// The bulk state of `instance`: the container its Migration Library
    /// stages (on a freshly migrated destination, the transferred state)
    /// or, when the library stages none (after a restart), the container
    /// its host stores, which the app's `LOAD` restages.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate; a malformed reply surfaces as
    /// [`SgxError::Decode`].
    pub fn app_bulk_state(&mut self, instance: &str) -> Result<Option<Vec<u8>>, SgxError> {
        let host = self.app(instance);
        let mut host = host.lock();
        let (mut out, payload) = host.call_in_place(lib_ops::BULK_STATE, &[])?;
        let mut r = sgx_sim::wire::WireReader::new(&out[payload.clone()]);
        let len = read_opt(&mut r)?.map(<[u8]>::len);
        r.finish()?;
        // The state follows the payload's option flag and `u32` length:
        // move it to the front of the ECALL's own buffer, once, instead
        // of copying it into a fresh one.
        Ok(match len {
            Some(len) => {
                let at = payload.start + 5;
                out.truncate(at + len);
                out.drain(..at);
                Some(out)
            }
            None => host.stored_container(),
        })
    }

    /// The generation-numbered checkpoint series holding a machine's
    /// sealed ME state (namespace `"me-state"` on its untrusted disk).
    #[must_use]
    pub fn me_checkpoints(&self, machine: MachineId) -> CheckpointStore {
        CheckpointStore::with_keep(self.world.machine(machine).disk.clone(), "me-state", 2)
    }

    /// Checkpoints a machine's ME state to its untrusted disk (the
    /// `"me-state"` checkpoint series), so retained migration data
    /// survives a management-VM restart — and, with two retained
    /// generations, even a crash mid-write of the newest checkpoint.
    ///
    /// # Errors
    ///
    /// Enclave errors propagate; a failed or torn disk write surfaces as
    /// an enclave error too (the previous checkpoint generation stays
    /// authoritative on disk).
    pub fn persist_me(&mut self, machine: MachineId) -> Result<(), SgxError> {
        let blob = self.me_host(machine).lock().persist_state()?;
        self.me_checkpoints(machine)
            .put(blob)
            .map_err(|e| SgxError::Enclave(format!("me checkpoint write: {e}")))?;
        Ok(())
    }

    /// Restarts a machine's Migration Enclave (management-VM reboot):
    /// loads a fresh ME instance and restores the durable state from the
    /// disk checkpoint if one exists, otherwise re-runs the §V-B setup
    /// phase (fresh key, fresh credential — any parked migration data is
    /// lost, which is exactly what checkpointing prevents). Application
    /// enclaves must re-attest before further migration traffic.
    ///
    /// The existence probe is metadata-only ([`CheckpointStore::latest_meta`]);
    /// the multi-megabyte checkpoint blob is loaded only on the restore
    /// branch.
    ///
    /// # Errors
    ///
    /// Launch or restore failures propagate.
    pub fn restart_me(&mut self, machine: MachineId) -> Result<(), SgxError> {
        let machine_ref = self.world.machine(machine).clone();
        let checkpoints = self.me_checkpoints(machine);
        self.me_host(machine).lock().enclave().destroy();
        let (enclave, state) = match checkpoints.latest_meta() {
            Some(_) => {
                let enclave = machine_ref
                    .sgx
                    .load_enclave(&me_image(), Box::new(MigrationEnclave::new()))?;
                let state = checkpoints.latest().map(|(_, blob)| blob);
                (enclave, state)
            }
            None => {
                let policy = self.me_policies.get(&machine).cloned().unwrap_or_default();
                (self.provision_me(machine, &policy)?, None)
            }
        };
        self.me_host(machine)
            .lock()
            .replace_enclave(enclave, state.as_deref())
    }

    /// Semi-transparent migration (the paper's §X sketch): the management
    /// VM locates every migratable enclave belonging to a guest VM, calls
    /// their `migration_start`, and then live-migrates the VM itself —
    /// transparent to the applications and guest OS.
    ///
    /// `pairs` lists `(source_instance, destination_instance)` for every
    /// enclave in the VM; destinations must already be deployed on
    /// `target` awaiting migration. Returns
    /// `(enclave_migration_time, vm_migration_time)`.
    ///
    /// # Errors
    ///
    /// [`MigError`] from any per-enclave migration; the VM is only moved
    /// after every enclave migrated.
    pub fn migrate_vm_with_enclaves(
        &mut self,
        vm: cloud_sim::vm::VmId,
        target: MachineId,
        pairs: &[(&str, &str)],
    ) -> Result<(Duration, Duration), MigError> {
        let mut enclave_total = Duration::ZERO;
        for (src, dst) in pairs {
            if self.app_machine(dst) != target {
                return Err(MigError::HostState(
                    "destination instance is not on the VM's target machine",
                ));
            }
            enclave_total += self.migrate_app(src, dst)?;
        }
        let vm_time = self.world.migrate_vm(vm, target);
        Ok((enclave_total, vm_time))
    }

    /// Retries a stuck migration of `src_instance`'s enclave towards the
    /// (already deployed, awaiting) `dst_instance` — the Fig. 2 error
    /// rule: retained data is re-dispatched, possibly to a new
    /// destination.
    ///
    /// # Errors
    ///
    /// [`MigError`] variants surface from the source ME (no retained
    /// data) or from the completion check.
    pub fn retry_migration(
        &mut self,
        src_instance: &str,
        dst_instance: &str,
    ) -> Result<Duration, MigError> {
        let src_machine = self.app_machine(src_instance);
        let dst_machine = self.app_machine(dst_instance);
        let mr = self
            .app(src_instance)
            .lock()
            .enclave()
            .identity()
            .mr_enclave;

        let started = self.world.now();
        let me = self.me_host(src_machine);
        me.lock()
            .retry_migration(self.world.network_mut(), mr, dst_machine)
            .map_err(MigError::Sgx)?;
        self.world.run_until_idle();
        let finished = self.world.now();

        let src = self.app(src_instance);
        let dst = self.app(dst_instance);
        if src.lock().status() != AppStatus::MigratingOut
            && src.lock().status() != AppStatus::Migrated
        {
            return Err(MigError::HostState("source in unexpected status"));
        }
        if dst.lock().status() != AppStatus::Ready {
            return Err(MigError::HostState("destination did not become ready"));
        }
        Ok(finished.since(started))
    }

    /// Stops an app (application exit / crash): the enclave is destroyed
    /// and the service unregistered. The sealed state blob remains on the
    /// machine's disk.
    pub fn stop_app(&mut self, instance: &str) {
        if let Some(host) = self.app_hosts.remove(instance) {
            let endpoint = host.lock().endpoint();
            host.lock().enclave().destroy();
            self.world.unregister_service(&endpoint);
        }
        self.app_machines.remove(instance);
    }

    /// Restarts an app from its sealed state blob on disk
    /// ([`InitRequest::Restore`]; Fig. 1's "restored enclave").
    ///
    /// # Errors
    ///
    /// Surfaces `Frozen` / `StaleState` library errors — this is the API
    /// the fork-attack tests drive.
    pub fn restart_app<A: AppLogic + 'static>(
        &mut self,
        instance: &str,
        machine: MachineId,
        image: &EnclaveImage,
        app: A,
    ) -> Result<Arc<Mutex<AppHost>>, SgxError> {
        let disk = self.world.machine(machine).disk.clone();
        let key = format!("mig-state:{instance}");
        let blob = disk
            .get(&key)
            .ok_or_else(|| SgxError::Enclave("no persisted state on disk".into()))?;
        self.stop_app(instance);
        self.deploy_app(instance, machine, image, app, InitRequest::Restore { blob })
    }

    /// Merged telemetry across every machine's ME host, in machine-id
    /// order: trace events (stably re-sorted by timestamp), additive
    /// counters, machine-scoped gauges, merged histograms, and the
    /// fleet's ECALL/OCALL transition tally. Deterministic for a given
    /// seed — `to_json()` of two same-seed runs is byte-identical.
    ///
    /// # Errors
    ///
    /// Enclave errors from any machine's `TELEMETRY` ECALL propagate.
    pub fn fleet_telemetry(&mut self) -> Result<mig_trace::Telemetry, SgxError> {
        let mut machines: Vec<MachineId> = self.me_hosts.keys().copied().collect();
        machines.sort_by_key(|m| m.0);
        let mut fleet = mig_trace::Telemetry::default();
        for machine in machines {
            let host = self.me_host(machine);
            let telemetry = host.lock().telemetry()?;
            fleet.merge(&telemetry);
        }
        Ok(fleet)
    }

    /// Pumps the world until idle.
    pub fn run(&mut self) -> usize {
        self.world.run_until_idle()
    }
}
