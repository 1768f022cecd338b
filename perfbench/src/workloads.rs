//! The four workloads: how each builds its datacenter (set-up), what one
//! op is, and how each op's outputs are checked.
//!
//! Only the public `mig-core`/`mig-apps` surface is used, with the
//! default `TransferConfig` (no knob is named): `Datacenter::new` /
//! `add_machine`, `deploy_app`, `call_app`, `migrate_app`,
//! `app_bulk_state`, `stop_app`, the kvstore ops,
//! `World::register_service`, `Network::add_tap`,
//! `UntrustedDisk::set_fault_hook`, `SgxMachine::ecall_count` and
//! `fleet_telemetry`.

use crate::heap;
use crate::host::{SplitMix64, Usage};
use crate::instruments::{disk_hook, network_tap, Counts, Role, Timed, Tracer};
use cloud_sim::clock::SimTime;
use cloud_sim::machine::MachineLabels;
use cloud_sim::network::Endpoint;
use mig_apps::kvstore::{self, ops as kv, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::host::ME_SERVICE;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use parking_lot::Mutex;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 64 MiB kvstore handed off once per op in a fresh datacenter.
    Bulk64m,
    /// 1 MiB kvstore shipped back and forth as dirty-page deltas.
    Rebalance1m,
    /// 4 KiB kvstore shipped back and forth on the single-shot path.
    Handoff4k,
    /// PUTs into a 64 KiB kvstore; no migration.
    KvPut64k,
}

/// Instance names the live kvstore alternates between, one per machine.
const NAMES: [&str; 2] = ["kv-a", "kv-b"];
/// Entries `rebalance-1m` rewrites between ops: 2% of 256.
const DIRTY_ENTRIES: u32 = 5;
/// Seeded `GET`s checked on the destination after every handoff.
const GET_SAMPLES: usize = 4;

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Bulk64m,
        Workload::Rebalance1m,
        Workload::Handoff4k,
        Workload::KvPut64k,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk64m => "bulk-64m",
            Workload::Rebalance1m => "rebalance-1m",
            Workload::Handoff4k => "handoff-4k",
            Workload::KvPut64k => "kv-put-64k",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// kvstore geometry: (entries, value bytes).
    fn geometry(self) -> (u32, u32) {
        match self {
            Workload::Bulk64m => (16384, 4096),
            Workload::Rebalance1m => (256, 4096),
            Workload::Handoff4k => (16, 256),
            Workload::KvPut64k => (16, 4096),
        }
    }

    /// Handoffs run as part of set-up, one each way: they open the
    /// ME↔ME channel in each direction (remote attestation) and, on
    /// `rebalance-1m`, seed the delta base both MEs cache.
    fn warmup_handoffs(self) -> usize {
        match self {
            Workload::Rebalance1m | Workload::Handoff4k => 2,
            Workload::Bulk64m | Workload::KvPut64k => 0,
        }
    }

    /// Whether every op gets a freshly built datacenter (so no delta
    /// base can exist).
    #[must_use]
    pub fn fresh_cluster_per_op(self) -> bool {
        self == Workload::Bulk64m
    }

    /// Whether an op is a handoff (as opposed to a PUT).
    #[must_use]
    pub fn migrates(self) -> bool {
        self != Workload::KvPut64k
    }

    /// Ops run between clock checks. Short ops run in blocks of 16, so
    /// a run's per-op counts average over whole host checkpoint cycles.
    #[must_use]
    pub fn block(self) -> usize {
        match self {
            Workload::Handoff4k | Workload::KvPut64k => 16,
            Workload::Bulk64m | Workload::Rebalance1m => 1,
        }
    }

    /// Segments of an untraced run, each on a freshly set-up datacenter
    /// (`bulk-64m` sets up for every op instead). The fastest set-up is
    /// reported.
    #[must_use]
    pub fn segments(self) -> usize {
        match self {
            Workload::Rebalance1m => 6,
            Workload::Handoff4k | Workload::KvPut64k => 24,
            Workload::Bulk64m => 1,
        }
    }
}

/// The benchmark's model of one stored value.
#[derive(Clone, Debug)]
enum Value {
    /// Written by `BULK_PUT`: byte `j` of entry `i` is `fill + i + j`.
    Bulk { fill: u8 },
    /// Written by `PUT`.
    Put(Vec<u8>),
}

/// What the store must hold: every entry and the version (the effective
/// value of its migratable counter after the last write).
#[derive(Clone, Debug)]
struct Model {
    values: Vec<Value>,
    value_len: usize,
    version: u32,
}

impl Model {
    fn expected(&self, i: u32) -> Vec<u8> {
        match &self.values[i as usize] {
            Value::Bulk { fill } => (0..self.value_len)
                .map(|j| fill.wrapping_add((i as usize + j) as u8))
                .collect(),
            Value::Put(v) => v.clone(),
        }
    }
}

fn key(i: u32) -> Vec<u8> {
    format!("bulk-{i:08}").into_bytes()
}

fn kv_image() -> EnclaveImage {
    EnclaveImage::build(
        "perfbench.kvstore",
        1,
        b"perfbench kvstore enclave",
        &EnclaveSigner::from_seed([0x5B; 32]),
    )
}

fn err(context: &'static str) -> impl Fn(sgx_sim::SgxError) -> String {
    move |e| format!("{context}: {e}")
}

fn u32_reply(bytes: &[u8], context: &str) -> Result<u32, String> {
    let arr: [u8; 4] = bytes
        .try_into()
        .map_err(|_| format!("{context}: malformed reply"))?;
    Ok(u32::from_le_bytes(arr))
}

/// The ME's transfer counters, read through `fleet_telemetry`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferCounters {
    /// `me.announcements`: chunk streams announced (full or delta).
    pub announcements: u64,
    /// `me.chunks_sealed`: chunks sealed onto the wire.
    pub chunks_sealed: u64,
    /// `me.chunks_retransmitted`: chunks resealed after a resume.
    pub chunks_retransmitted: u64,
    /// `me.delta_fallbacks`: delta streams that fell back to full.
    pub delta_fallbacks: u64,
    /// `me.cache_evictions`: delta bases evicted by the cache budget.
    pub cache_evictions: u64,
    /// `me.singleshot_transfers`: whole-payload transfers.
    pub singleshot_transfers: u64,
}

impl TransferCounters {
    /// The counters accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &TransferCounters) -> TransferCounters {
        TransferCounters {
            announcements: self.announcements - earlier.announcements,
            chunks_sealed: self.chunks_sealed - earlier.chunks_sealed,
            chunks_retransmitted: self.chunks_retransmitted - earlier.chunks_retransmitted,
            delta_fallbacks: self.delta_fallbacks - earlier.delta_fallbacks,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            singleshot_transfers: self.singleshot_transfers - earlier.singleshot_transfers,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &TransferCounters) {
        self.announcements += other.announcements;
        self.chunks_sealed += other.chunks_sealed;
        self.chunks_retransmitted += other.chunks_retransmitted;
        self.delta_fallbacks += other.delta_fallbacks;
        self.cache_evictions += other.cache_evictions;
        self.singleshot_transfers += other.singleshot_transfers;
    }
}

/// Readings taken at an op window's edges.
#[derive(Clone, Copy, Debug)]
struct Snapshot {
    usage: Usage,
    counts: Counts,
    ecalls: u64,
    virt: SimTime,
}

/// One op as measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpRecord {
    /// Wall-clock latency.
    pub latency: Duration,
    /// Process CPU time (user + sys, all threads) in the op window.
    pub cpu: Duration,
    /// System CPU time in the op window.
    pub sys: Duration,
    /// Minor page faults in the op window.
    pub minflt: u64,
    /// Bytes of app state the op moved (the handed-off state blob), or
    /// the PUT value's bytes.
    pub state_bytes: u64,
    /// Network and disk counts in the op window.
    pub counts: Counts,
    /// ECALLs on every machine in the op window.
    pub ecalls: u64,
    /// Simulated (virtual) time the op advanced the world clock by.
    pub virt: Duration,
    /// Most heap bytes live during the op, the process's whole heap.
    pub heap_peak: u64,
    /// Whether every check of the op's outputs passed.
    pub ok: bool,
}

/// A datacenter under test plus the benchmark's model of its store.
pub(crate) struct Cluster {
    workload: Workload,
    dc: Datacenter,
    machines: Vec<MachineId>,
    counts: Arc<Mutex<Counts>>,
    tracer: Option<Arc<Mutex<Tracer>>>,
    image: EnclaveImage,
    /// Index of the machine (and instance name) holding the live store.
    cur: usize,
    model: Model,
    rng: SplitMix64,
}

impl Cluster {
    /// Builds the workload's datacenter from `seed`: machines with
    /// provisioned MEs, the instruments, the kvstore with its initial
    /// state, and the warm-up handoffs.
    ///
    /// # Errors
    ///
    /// Any failed call or check, as a message.
    pub(crate) fn build(
        workload: Workload,
        seed: u64,
        tracer: Option<Arc<Mutex<Tracer>>>,
    ) -> Result<Cluster, String> {
        let mut rng = SplitMix64::new(seed);
        let mut dc = Datacenter::new(rng.next_u64());
        let policy = MigrationPolicy::same_operator_only();
        let machine_count = if workload.migrates() { 2 } else { 1 };
        let machines: Vec<MachineId> = (0..machine_count)
            .map(|_| dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy))
            .collect();

        let counts = Arc::new(Mutex::new(Counts::default()));
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(network_tap(Arc::clone(&counts), tracer.clone())));
        for &m in &machines {
            dc.world()
                .machine(m)
                .disk
                .set_fault_hook(disk_hook(Arc::clone(&counts)));
        }
        if let Some(tracer) = &tracer {
            for &m in &machines {
                let timed = Timed::new(dc.me_host(m), m, Role::Me, Arc::clone(tracer));
                dc.world_mut()
                    .register_service(Endpoint::new(m, ME_SERVICE), Arc::new(Mutex::new(timed)));
            }
        }

        let (entries, value_len) = workload.geometry();
        let image = kv_image();
        dc.deploy_app(
            NAMES[0],
            machines[0],
            &image,
            KvStore::new(),
            InitRequest::New,
        )
        .map_err(err("deploy"))?;
        dc.call_app(NAMES[0], kv::INIT, &[]).map_err(err("INIT"))?;
        let fill = rng.byte();
        let reply = dc
            .call_app(
                NAMES[0],
                kv::BULK_PUT,
                &kvstore::encode_bulk_put(entries, value_len, fill),
            )
            .map_err(err("BULK_PUT"))?;
        let (version, _) = kvstore::decode_bulk_put_response(&reply).map_err(err("BULK_PUT"))?;

        let mut cluster = Cluster {
            workload,
            dc,
            machines,
            counts,
            tracer,
            image,
            cur: 0,
            model: Model {
                values: vec![Value::Bulk { fill }; entries as usize],
                value_len: value_len as usize,
                version,
            },
            rng,
        };
        cluster.wrap_app(0);
        for _ in 0..workload.warmup_handoffs() {
            cluster.handoff()?;
        }
        Ok(cluster)
    }

    /// Registers a timing wrapper in front of the app host on machine
    /// slot `slot` (traced phases only).
    fn wrap_app(&mut self, slot: usize) {
        if let Some(tracer) = &self.tracer {
            let host = self.dc.app(NAMES[slot]);
            let endpoint = host.lock().endpoint();
            let timed = Timed::new(host, self.machines[slot], Role::App, Arc::clone(tracer));
            self.dc
                .world_mut()
                .register_service(endpoint, Arc::new(Mutex::new(timed)));
        }
    }

    /// Runs `f` inside a span named `name` when tracing.
    fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if let Some(t) = &self.tracer {
            t.lock().begin(name, 0);
        }
        let out = f(self);
        if let Some(t) = &self.tracer {
            t.lock().end();
        }
        out
    }

    /// Readings for an op window's edge.
    fn snapshot(&self) -> Snapshot {
        let world = self.dc.world();
        Snapshot {
            usage: Usage::now(),
            counts: *self.counts.lock(),
            ecalls: self
                .machines
                .iter()
                .map(|&m| world.machine(m).sgx.ecall_count())
                .sum(),
            virt: world.now(),
        }
    }

    /// Runs one op in a measured window: untimed preparation first
    /// (`rebalance-1m` rewrites 2% of the entries), then the timed op,
    /// then, for PUTs, the untimed read-back check. A failed call or
    /// check, or a panic inside the program, makes the op fail.
    pub(crate) fn measured_op(&mut self, op: u32) -> OpRecord {
        let prepared = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.prepare()));
        let put = match prepared {
            Ok(Ok(put)) => put,
            Ok(Err(e)) => return self.failed(&e),
            Err(_) => return self.failed("panic while preparing the op"),
        };

        let roles = self
            .workload
            .migrates()
            .then(|| (self.machines[self.cur], self.machines[1 - self.cur]));
        let before = self.snapshot();
        if let Some(t) = &self.tracer {
            t.lock().begin_op(op, roles);
        }
        heap::reset_peak();
        let start = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &put {
            Some((i, value)) => self.put(*i, value),
            None => self.handoff(),
        }));
        let latency = start.elapsed();
        let heap_peak = heap::peak() as u64;
        if let Some(t) = &self.tracer {
            t.lock().end_op();
        }
        let after = self.snapshot();

        let outcome = match result {
            Ok(Ok(state_bytes)) => match &put {
                Some((i, _)) => self.check_put(*i).map(|()| state_bytes),
                None => Ok(state_bytes),
            },
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panic inside the op".to_string()),
        };
        if let Err(e) = &outcome {
            eprintln!("perfbench: {} op {op} failed: {e}", self.workload.name());
        }
        OpRecord {
            latency,
            cpu: after.usage.cpu.saturating_sub(before.usage.cpu),
            sys: after.usage.sys.saturating_sub(before.usage.sys),
            minflt: after.usage.minflt - before.usage.minflt,
            state_bytes: *outcome.as_ref().unwrap_or(&0),
            counts: after.counts.since(&before.counts),
            ecalls: after.ecalls - before.ecalls,
            virt: after.virt.since(before.virt),
            heap_peak,
            ok: outcome.is_ok(),
        }
    }

    fn failed(&self, reason: &str) -> OpRecord {
        eprintln!(
            "perfbench: {} op preparation failed: {reason}",
            self.workload.name()
        );
        OpRecord::default()
    }

    /// Untimed work before an op: the PUT's key and value for
    /// `kv-put-64k`; the 2% rewrite for `rebalance-1m`.
    fn prepare(&mut self) -> Result<Option<(u32, Vec<u8>)>, String> {
        match self.workload {
            Workload::KvPut64k => {
                let i = self.rng.below(self.model.values.len() as u64) as u32;
                let value = self.rng.bytes(self.model.value_len);
                Ok(Some((i, value)))
            }
            Workload::Rebalance1m => {
                self.rewrite_entries()?;
                Ok(None)
            }
            Workload::Bulk64m | Workload::Handoff4k => Ok(None),
        }
    }

    /// One `BULK_PUT` rewriting the first [`DIRTY_ENTRIES`] entries with
    /// a fill byte that differs from their current one.
    fn rewrite_entries(&mut self) -> Result<(), String> {
        let old = match self.model.values[0] {
            Value::Bulk { fill } => fill,
            Value::Put(_) => 0,
        };
        let fill = old.wrapping_add(1 + self.rng.below(255) as u8);
        let name = NAMES[self.cur];
        let reply = self
            .dc
            .call_app(
                name,
                kv::BULK_PUT,
                &kvstore::encode_bulk_put(DIRTY_ENTRIES, self.model.value_len as u32, fill),
            )
            .map_err(err("BULK_PUT"))?;
        let (version, _) = kvstore::decode_bulk_put_response(&reply).map_err(err("BULK_PUT"))?;
        if version != self.model.version + 1 {
            return Err(format!(
                "BULK_PUT returned version {version}, expected {}",
                self.model.version + 1
            ));
        }
        self.model.version = version;
        for v in &mut self.model.values[..DIRTY_ENTRIES as usize] {
            *v = Value::Bulk { fill };
        }
        Ok(())
    }

    /// One handoff: deploy the destination awaiting the migration,
    /// `migrate_app`, restore on the destination (`app_bulk_state` +
    /// `LOAD`), verify, `stop_app` on the source. Returns the bytes of
    /// state moved.
    fn handoff(&mut self) -> Result<u64, String> {
        let (src, dst) = (self.cur, 1 - self.cur);
        let (src_name, dst_name) = (NAMES[src], NAMES[dst]);

        self.span("library.deploy", |c| {
            let machine = c.machines[dst];
            c.dc.deploy_app(
                dst_name,
                machine,
                &c.image,
                KvStore::new(),
                InitRequest::Migrate,
            )
            .map(drop)
            .map_err(err("deploy destination"))
        })?;
        self.wrap_app(dst);

        if let Some(t) = &self.tracer {
            t.lock().begin_migrate();
        }
        let migrated = self.dc.migrate_app(src_name, dst_name);
        if let Some(t) = &self.tracer {
            t.lock().end_migrate();
        }
        migrated.map_err(|e| format!("migrate_app: {e}"))?;

        let state_bytes = self.span("kvstore.restore", |c| {
            let blob =
                c.dc.app_bulk_state(dst_name)
                    .map_err(err("app_bulk_state"))?
                    .ok_or("destination staged no bulk state")?;
            c.dc.call_app(dst_name, kv::LOAD, &blob)
                .map_err(err("LOAD"))?;
            Ok(blob.len() as u64)
        })?;
        self.span("bench.verify", |c| c.verify(dst_name, src_name))?;
        self.span("library.stop", |c| {
            c.dc.stop_app(src_name);
            Ok(())
        })?;
        self.cur = dst;
        Ok(state_bytes)
    }

    /// After a handoff the destination must hold the model: its `LEN`,
    /// its `VERSION` (the source's last effective counter value) and a
    /// seeded sample of `GET`s. The old source must refuse as frozen.
    fn verify(&mut self, dst: &str, src: &str) -> Result<(), String> {
        let len = self.dc.call_app(dst, kv::LEN, &[]).map_err(err("LEN"))?;
        let len = u32_reply(&len, "LEN")?;
        if len as usize != self.model.values.len() {
            return Err(format!(
                "destination holds {len} entries, expected {}",
                self.model.values.len()
            ));
        }
        let version = self
            .dc
            .call_app(dst, kv::VERSION, &[])
            .map_err(err("VERSION"))?;
        let version = u32_reply(&version, "VERSION")?;
        if version != self.model.version {
            return Err(format!(
                "destination VERSION {version}, source's last was {}",
                self.model.version
            ));
        }
        for _ in 0..GET_SAMPLES {
            let i = self.rng.below(self.model.values.len() as u64) as u32;
            let got = self
                .dc
                .call_app(dst, kv::GET, &key(i))
                .map_err(err("GET"))?;
            if got != self.model.expected(i) {
                return Err(format!("destination GET of entry {i} returned other bytes"));
            }
        }
        match self.dc.call_app(src, kv::VERSION, &[]) {
            Ok(_) => Err("the old source still answered after the handoff".to_string()),
            Err(e) if e.to_string().to_ascii_lowercase().contains("frozen") => Ok(()),
            Err(e) => Err(format!("the old source refused, but not as frozen: {e}")),
        }
    }

    /// One PUT; its returned version must be the previous one + 1.
    fn put(&mut self, i: u32, value: &[u8]) -> Result<u64, String> {
        let reply = self.span("kvstore.put", |c| {
            c.dc.call_app(NAMES[0], kv::PUT, &kvstore::encode_put(&key(i), value))
                .map_err(err("PUT"))
        })?;
        let (version, _) = kvstore::decode_put_response(&reply).map_err(err("PUT"))?;
        if version != self.model.version + 1 {
            return Err(format!(
                "PUT returned version {version}, expected {}",
                self.model.version + 1
            ));
        }
        self.model.version = version;
        self.model.values[i as usize] = Value::Put(value.to_vec());
        Ok(value.len() as u64)
    }

    /// Reads the written entry back.
    fn check_put(&mut self, i: u32) -> Result<(), String> {
        let got = self
            .dc
            .call_app(NAMES[0], kv::GET, &key(i))
            .map_err(err("GET"))?;
        if got == self.model.expected(i) {
            Ok(())
        } else {
            Err(format!("GET after PUT of entry {i} returned other bytes"))
        }
    }

    /// The fleet's ME transfer counters.
    ///
    /// # Errors
    ///
    /// A failed `TELEMETRY` ECALL, as a message.
    pub(crate) fn transfer_counters(&mut self) -> Result<TransferCounters, String> {
        let telemetry = self.dc.fleet_telemetry().map_err(err("fleet_telemetry"))?;
        let get = |name: &str| telemetry.counters.get(name).copied().unwrap_or(0);
        Ok(TransferCounters {
            announcements: get("me.announcements"),
            chunks_sealed: get("me.chunks_sealed"),
            chunks_retransmitted: get("me.chunks_retransmitted"),
            delta_fallbacks: get("me.delta_fallbacks"),
            cache_evictions: get("me.cache_evictions"),
            singleshot_transfers: get("me.singleshot_transfers"),
        })
    }

    /// Messages that reached no service.
    pub(crate) fn dead_letters(&self) -> u64 {
        self.dc.world().dead_letters().len() as u64
    }
}
