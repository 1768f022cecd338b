//! **mig-bench** — shared harness for regenerating the paper's evaluation
//! (§VII-B): Figs. 3 and 4, the end-to-end migration overhead, and the
//! TCB size accounting.
//!
//! The paper's methodology, reproduced exactly: every measurement is the
//! wall-clock duration of an ECALL, repeated (1000× by default), reported
//! as a mean with a 99 % confidence interval, and compared with a
//! one-tailed t-test. The platform firmware latencies are modelled by
//! [`ScaledIntelCost`] (Intel's Management-Engine latencies scaled
//! ~1000×, *spun* on the CPU so measurements inherit them — see
//! EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cloud_sim::machine::MachineLabels;
use mig_core::baseline::native::{ops as native_ops, NativeEnclave};
use mig_core::datacenter::Datacenter;
use mig_core::harness::{open_envelope, ops as lib_ops, AppCtx, AppLogic, MigratableEnclave};
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgx_sim::cost::ScaledIntelCost;
use sgx_sim::enclave::EnclaveHandle;
use sgx_sim::ias::AttestationService;
use sgx_sim::machine::{MachineId, SgxMachine};
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::SgxError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The benchmark app: exposes the migratable primitives 1:1 with the
/// native baseline's opcodes, so both sides measure the same ECALL shape.
pub struct BenchApp;

/// Opcodes of [`BenchApp`] (aligned with
/// [`mig_core::baseline::native::ops`]).
pub mod ops {
    /// Create a migratable counter → `[id]`.
    pub const COUNTER_CREATE: u32 = 1;
    /// Increment counter `[id]` → effective value.
    pub const COUNTER_INCREMENT: u32 = 2;
    /// Read counter `[id]` → effective value.
    pub const COUNTER_READ: u32 = 3;
    /// Destroy counter `[id]`.
    pub const COUNTER_DESTROY: u32 = 4;
    /// Migratable seal.
    pub const SEAL: u32 = 5;
    /// Migratable unseal.
    pub const UNSEAL: u32 = 6;
}

impl AppLogic for BenchApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            ops::COUNTER_CREATE => {
                let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                Ok(vec![id])
            }
            ops::COUNTER_INCREMENT => Ok(ctx
                .lib
                .increment_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::COUNTER_READ => Ok(ctx
                .lib
                .read_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::COUNTER_DESTROY => {
                ctx.lib.destroy_migratable_counter(ctx.env, input[0])?;
                Ok(vec![])
            }
            ops::SEAL => Ok(ctx.lib.seal_migratable_data(ctx.env, b"bench", input)?),
            ops::UNSEAL => Ok(ctx.lib.unseal_migratable_data(ctx.env, input)?.0),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

/// The canonical bench enclave image.
#[must_use]
pub fn bench_image() -> EnclaveImage {
    EnclaveImage::build(
        "mig-bench.app",
        1,
        b"benchmark enclave",
        &EnclaveSigner::from_seed([42; 32]),
    )
}

/// Wraps the native baseline so its ECALL responses cross the boundary
/// in the same envelope format as the migratable enclave's — otherwise
/// the baseline would skip the response-marshalling cost the migratable
/// side pays, biasing the 100 kB sealing comparison.
struct EnvelopedNative(NativeEnclave);

impl sgx_sim::enclave::EnclaveCode for EnvelopedNative {
    fn ecall(
        &mut self,
        env: &mut sgx_sim::enclave::EnclaveEnv<'_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let payload = self.0.ecall(env, opcode, input)?;
        let mut w = sgx_sim::wire::WireWriter::new();
        w.u8(0); // lead byte
        w.bytes(&payload);
        w.u8(0); // no persist blob
        w.u8(0); // no pages
        Ok(w.finish())
    }
}

/// Fixture: one machine (with the scaled Intel cost model, spinning) plus
/// a migratable enclave and the native baseline enclave.
pub struct BenchSetup {
    /// The machine everything runs on.
    pub machine: SgxMachine,
    /// Enclave embedding the Migration Library.
    pub migratable: EnclaveHandle,
    /// Native (non-migratable) baseline enclave.
    pub baseline: EnclaveHandle,
}

impl BenchSetup {
    /// Builds the fixture. `spin` selects whether the cost model burns
    /// real CPU time (true for wall-clock measurements).
    #[must_use]
    pub fn new(spin: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let ias = AttestationService::new(&mut rng);
        let cost = Arc::new(ScaledIntelCost::paper_scaled(spin));
        let machine = SgxMachine::with_cost_model(MachineId(1), &ias, cost, &mut rng);

        let migratable = machine
            .load_enclave(&bench_image(), Box::new(MigratableEnclave::new(BenchApp)))
            .expect("load migratable");
        let init = mig_core::harness::encode_init(
            &mig_core::me::me_image().mr_enclave(),
            &InitRequest::New,
        );
        migratable
            .ecall(lib_ops::MIG_INIT, &init)
            .expect("init library");

        let baseline = machine
            .load_enclave(
                &bench_image(),
                Box::new(EnvelopedNative(NativeEnclave::new())),
            )
            .expect("load baseline");
        BenchSetup {
            machine,
            migratable,
            baseline,
        }
    }

    /// ECALL into the migratable enclave, unwrapping the envelope.
    ///
    /// # Panics
    ///
    /// Panics on enclave errors (bench fixture invariants).
    pub fn call_migratable(&self, opcode: u32, input: &[u8]) -> Vec<u8> {
        let out = self.migratable.ecall(opcode, input).expect("ecall");
        open_envelope(&out).expect("envelope").payload.to_vec()
    }

    /// ECALL into the baseline enclave, unwrapping the envelope (the
    /// baseline is wrapped so both sides pay identical marshalling).
    ///
    /// # Panics
    ///
    /// Panics on enclave errors (bench fixture invariants).
    pub fn call_baseline(&self, opcode: u32, input: &[u8]) -> Vec<u8> {
        let out = self.baseline.ecall(opcode, input).expect("ecall");
        open_envelope(&out).expect("envelope").payload.to_vec()
    }

    /// Creates a counter on both enclaves, returning `(mig_id, base_idx)`.
    #[must_use]
    pub fn create_counters(&self) -> (u8, u8) {
        let mig = self.call_migratable(ops::COUNTER_CREATE, &[])[0];
        let base = self.call_baseline(native_ops::COUNTER_CREATE, &[])[0];
        (mig, base)
    }
}

/// Measures `f` once, returning seconds.
pub fn time_once(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Collects `n` wall-clock samples (in **microseconds**) of `f`.
pub fn sample_n(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    samples
}

/// A measured comparison row of a paper figure.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Operation label (e.g. "Increase Counter").
    pub label: String,
    /// Baseline summary (µs). `None` when the paper has no baseline
    /// (library initialization).
    pub baseline: Option<mig_stats::Summary>,
    /// Migration-library summary (µs).
    pub migratable: mig_stats::Summary,
    /// One-tailed Welch p-value for H1 "migratable > baseline".
    pub p_value: Option<f64>,
}

impl FigureRow {
    /// Builds a row from raw microsecond samples.
    #[must_use]
    pub fn from_samples(label: &str, baseline: Option<Vec<f64>>, migratable: Vec<f64>) -> Self {
        let base_summary = baseline.as_ref().map(|s| mig_stats::summarize(s, 0.99));
        let mig_summary = mig_stats::summarize(&migratable, 0.99);
        let p_value = baseline
            .as_ref()
            .map(|b| mig_stats::welch_one_tailed_p(&migratable, b));
        FigureRow {
            label: label.to_string(),
            baseline: base_summary,
            migratable: mig_summary,
            p_value,
        }
    }

    /// Relative overhead of the migratable version, in percent.
    #[must_use]
    pub fn overhead_percent(&self) -> Option<f64> {
        self.baseline
            .map(|b| 100.0 * (self.migratable.mean - b.mean) / b.mean)
    }

    /// Formats the row in the `figures` binary's table layout.
    #[must_use]
    pub fn format(&self) -> String {
        let base = match &self.baseline {
            Some(b) => format!("{:>10.1} ± {:>5.1}", b.mean, b.ci_half_width),
            None => format!("{:>18}", "—"),
        };
        let overhead = match self.overhead_percent() {
            Some(o) => format!("{o:>+7.1}%"),
            None => format!("{:>8}", "—"),
        };
        let p = match self.p_value {
            Some(p) if p < 0.0005 => "≈0".to_string(),
            Some(p) => format!("{p:.3}"),
            None => "—".to_string(),
        };
        format!(
            "{:<22} {} {:>10.1} ± {:>5.1} {} {:>6}",
            self.label, base, self.migratable.mean, self.migratable.ci_half_width, overhead, p
        )
    }
}

/// Table header matching [`FigureRow::format`].
#[must_use]
pub fn figure_header() -> String {
    format!(
        "{:<22} {:>18} {:>18} {:>8} {:>6}\n{}",
        "operation",
        "baseline (µs)",
        "migratable (µs)",
        "overhead",
        "p",
        "-".repeat(78)
    )
}

/// Builds a two-machine datacenter with the scaled cost model for the
/// end-to-end migration experiment (E3).
#[must_use]
pub fn migration_fixture(seed: u64) -> (Datacenter, MachineId, MachineId) {
    let cost = Arc::new(ScaledIntelCost::paper_scaled(false));
    let mut dc = Datacenter::with_cost_model(seed, cost);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let m2 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    (dc, m1, m2)
}

/// The kvstore image used by the state-size sweep (E4).
#[must_use]
pub fn kv_image() -> sgx_sim::measurement::EnclaveImage {
    EnclaveImage::build(
        "mig-bench.kvstore",
        1,
        b"benchmark kvstore enclave",
        &EnclaveSigner::from_seed([43; 32]),
    )
}

/// Builds a two-machine datacenter (per-ME streaming config `transfer`)
/// with a kvstore holding `entries` × `value_len` bytes deployed as
/// `"src"` and an awaiting `"dst"` — ready for the `migrate_app` call to
/// be measured.
///
/// # Panics
///
/// Panics on deployment failures (bench fixture invariants).
#[must_use]
pub fn prepared_kv_datacenter(
    seed: u64,
    transfer: mig_core::transfer::TransferConfig,
    entries: u32,
    value_len: u32,
) -> Datacenter {
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};

    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::new("dc-1", "eu"), &policy, transfer);
    let m2 = dc.add_machine_with_transfer(MachineLabels::new("dc-1", "eu"), &policy, transfer);
    dc.deploy_app("src", m1, &kv_image(), KvStore::new(), InitRequest::New)
        .expect("deploy src");
    dc.call_app("src", kv_ops::INIT, &[]).expect("init kv");
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(entries, value_len, 0xB7),
    )
    .expect("bulk load");
    dc.deploy_app("dst", m2, &kv_image(), KvStore::new(), InitRequest::Migrate)
        .expect("deploy dst");
    dc
}

/// The state sizes of the E4 sweep: label plus kvstore geometry
/// (entries × value bytes ≈ sealed-state size).
pub const STATE_SWEEP: &[(&str, u32, u32)] = &[
    ("4KiB", 16, 256),
    ("64KiB", 64, 1024),
    ("1MiB", 256, 4096),
    ("16MiB", 4096, 4096),
    ("64MiB", 16384, 4096),
];

/// One cell of the E4 delta-vs-full series: a full first migration, a
/// dirtying pass at the destination, and the repeat (delta) migration
/// back — virtual times plus the RA-transfer wire bytes each direction.
#[derive(Clone, Copy, Debug)]
pub struct DeltaCell {
    /// Virtual time of the first (full) migration in ms.
    pub full_virt_ms: f64,
    /// Virtual time of the repeat (delta) migration in ms.
    pub delta_virt_ms: f64,
    /// Wire bytes of the first migration's stream frames.
    pub full_bytes: u64,
    /// Wire bytes of the repeat migration's stream frames.
    pub delta_bytes: u64,
}

/// Installs a tap summing RA-transfer wire bytes `from` → `to`.
fn transfer_byte_tap(
    dc: &mut Datacenter,
    from: MachineId,
    to: MachineId,
) -> Arc<std::sync::atomic::AtomicU64> {
    use cloud_sim::network::{Envelope, TapAction};
    use std::sync::atomic::{AtomicU64, Ordering};

    let bytes = Arc::new(AtomicU64::new(0));
    let tap_bytes = Arc::clone(&bytes);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.machine == from
                && e.to.machine == to
                && e.from.service == "me"
                && e.to.service == "me"
                && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
            {
                tap_bytes.fetch_add(e.payload.len() as u64, Ordering::SeqCst);
            }
            TapAction::Deliver
        }));
    bytes
}

/// Runs one full+delta migration cycle: `entries` × `value_len` bytes
/// migrate m1→m2 in full, `dirty_entries` entries are rewritten at the
/// destination, and the repeat migration m2→m1 ships the dirty-page
/// delta (or falls back to full when the delta is too large a fraction).
///
/// # Panics
///
/// Panics on fixture failures (bench invariants).
#[must_use]
pub fn delta_migration_cycle(
    seed: u64,
    entries: u32,
    value_len: u32,
    dirty_entries: u32,
) -> DeltaCell {
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
    use std::sync::atomic::Ordering;

    let transfer = sweep_stream_config();
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::new("dc-1", "eu"), &policy, transfer);
    let m2 = dc.add_machine_with_transfer(MachineLabels::new("dc-1", "eu"), &policy, transfer);
    let fwd_bytes = transfer_byte_tap(&mut dc, m1, m2);
    let back_bytes = transfer_byte_tap(&mut dc, m2, m1);

    dc.deploy_app("src", m1, &kv_image(), KvStore::new(), InitRequest::New)
        .expect("deploy src");
    dc.call_app("src", kv_ops::INIT, &[]).expect("init kv");
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(entries, value_len, 0xB7),
    )
    .expect("bulk load");
    dc.deploy_app("dst", m2, &kv_image(), KvStore::new(), InitRequest::Migrate)
        .expect("deploy dst");
    let full_virt = dc.migrate_app("src", "dst").expect("full migration");

    // Restore the working set at the destination and dirty a slice of it.
    let state = dc
        .app_bulk_state("dst")
        .expect("bulk state")
        .expect("migrated state present");
    dc.call_app("dst", kv_ops::LOAD, &state).expect("load");
    dc.call_app(
        "dst",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(dirty_entries, value_len, 0xC3),
    )
    .expect("dirty pass");

    dc.deploy_app(
        "back",
        m1,
        &kv_image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .expect("deploy back");
    back_bytes.store(0, Ordering::SeqCst);
    let delta_virt = dc.migrate_app("dst", "back").expect("delta migration");

    DeltaCell {
        full_virt_ms: full_virt.as_secs_f64() * 1e3,
        delta_virt_ms: delta_virt.as_secs_f64() * 1e3,
        full_bytes: fwd_bytes.load(Ordering::SeqCst),
        delta_bytes: back_bytes.load(Ordering::SeqCst),
    }
}

/// One cell of the E4 concurrency series: `k` enclaves of equal state
/// size migrating to one destination machine at once, their chunk
/// streams multiplexed (per-nonce, sharing the link window evenly) on
/// the shared ME↔ME channel.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrencyCell {
    /// Number of concurrent migrations.
    pub k: u32,
    /// Virtual time until the **last** migration completed, in ms.
    pub total_virt_ms: f64,
    /// Spread between the first and last completion, in ms (fairness:
    /// a small spread means no stream was starved to the end).
    pub spread_ms: f64,
    /// Total RA-transfer wire bytes of the run.
    pub wire_bytes: u64,
}

/// Runs one E4 concurrency cell: `k` kvstores of `entries` ×
/// `value_len` bytes each on one machine, `k` awaiting destinations on
/// another, all `migration_start`s fired before the world is pumped.
///
/// # Panics
///
/// Panics on fixture failures (bench invariants).
#[must_use]
pub fn concurrent_migration_cell(
    seed: u64,
    k: u32,
    entries: u32,
    value_len: u32,
) -> ConcurrencyCell {
    use cloud_sim::network::{Envelope, TapAction};
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
    use std::sync::atomic::{AtomicU64, Ordering};

    let transfer = sweep_stream_config();
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::new("dc-1", "eu"), &policy, transfer);
    let m2 = dc.add_machine_with_transfer(MachineLabels::new("dc-1", "eu"), &policy, transfer);
    let wire_bytes = {
        let bytes = Arc::new(AtomicU64::new(0));
        let tap_bytes = Arc::clone(&bytes);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
                {
                    tap_bytes.fetch_add(e.payload.len() as u64, Ordering::SeqCst);
                }
                TapAction::Deliver
            }));
        bytes
    };
    // Completion times per destination app (virtual nanos of the
    // incoming-migration delivery).
    let completions = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    {
        let completions = Arc::clone(&completions);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.to.machine == m2
                    && e.to.service.starts_with("app:dst-")
                    && e.payload.first() == Some(&mig_core::host::tags::ME_FORWARD)
                {
                    completions.lock().push(e.deliver_at.0);
                }
                TapAction::Deliver
            }));
    }

    let mut pairs = Vec::new();
    for i in 0..k {
        let image = EnclaveImage::build(
            &format!("mig-bench.kv-conc-{i}"),
            1,
            b"benchmark kvstore enclave",
            &EnclaveSigner::from_seed([44 + i as u8; 32]),
        );
        let src = format!("src-{i}");
        let dst = format!("dst-{i}");
        dc.deploy_app(&src, m1, &image, KvStore::new(), InitRequest::New)
            .expect("deploy src");
        dc.call_app(&src, kv_ops::INIT, &[]).expect("init kv");
        dc.call_app(
            &src,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(entries, value_len, 0xB7),
        )
        .expect("bulk load");
        dc.deploy_app(&dst, m2, &image, KvStore::new(), InitRequest::Migrate)
            .expect("deploy dst");
        pairs.push((src, dst));
    }
    let pair_refs: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(s, d)| (s.as_str(), d.as_str()))
        .collect();
    let total = dc
        .migrate_apps_concurrent(&pair_refs)
        .expect("concurrent migration");

    let done = completions.lock();
    let spread_ms = match (done.iter().min(), done.iter().max()) {
        (Some(first), Some(last)) => (last - first) as f64 / 1e6,
        _ => 0.0,
    };
    ConcurrencyCell {
        k,
        total_virt_ms: total.as_secs_f64() * 1e3,
        spread_ms,
        wire_bytes: wire_bytes.load(std::sync::atomic::Ordering::SeqCst),
    }
}

/// The VM-migration transfer-time model evaluated at a bulk-state size
/// (ms over the datacenter link profile): what moving the same number
/// of bytes as guest memory would cost under
/// [`cloud_sim::vm::vm_migration_time`]. The E4 sweep reports this
/// next to the measured enclave-migration times so the two transfer
/// models are comparable at equal state sizes (ROADMAP item).
#[must_use]
pub fn vm_model_ms(state_bytes: u64) -> f64 {
    let vm = cloud_sim::vm::Vm {
        id: cloud_sim::vm::VmId(0),
        host: MachineId(0),
        memory_bytes: state_bytes,
    };
    cloud_sim::vm::vm_migration_time(&vm, &cloud_sim::network::LinkProfile::datacenter())
        .as_secs_f64()
        * 1e3
}

/// Streaming-transfer configuration used by the sweep's streamed arm.
#[must_use]
pub fn sweep_stream_config() -> mig_core::transfer::TransferConfig {
    mig_core::transfer::TransferConfig {
        stream_threshold: 4096,
        chunk_size: 256 * 1024,
        window: 8,
        ..mig_core::transfer::TransferConfig::default()
    }
}

/// Blob (single-shot) configuration: the threshold is unreachable, so
/// every transfer takes the paper's original path.
#[must_use]
pub fn sweep_blob_config() -> mig_core::transfer::TransferConfig {
    mig_core::transfer::TransferConfig {
        stream_threshold: u32::MAX,
        chunk_size: 256 * 1024,
        window: 8,
        ..mig_core::transfer::TransferConfig::default()
    }
}

/// Per-phase breakdown of one streamed migration plus its transition
/// tally, extracted from the fleet telemetry.
///
/// The phases are the destination-side partition recorded by the ME
/// host: Announce (announcement arrival → first chunk), Stream (first
/// chunk → completion), Stage (zero-width: staging overlaps the stream),
/// Release (the completing ECALL's virtual cost). All in virtual
/// milliseconds, so the breakdown is deterministic per seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Announce span duration in ms.
    pub announce_ms: f64,
    /// Stream span duration in ms.
    pub stream_ms: f64,
    /// Stage span duration in ms.
    pub stage_ms: f64,
    /// Release span duration in ms.
    pub release_ms: f64,
    /// ECALL + OCALL transitions attributed to the migration's trace id.
    pub transitions: u64,
}

/// Extracts the streamed migration's phase breakdown from `telemetry`:
/// the unique trace carrying a Stream-phase span. Returns `None` when
/// no such trace exists (e.g. the blob path's single-shot transfer).
#[must_use]
pub fn stream_phase_breakdown(telemetry: &mig_trace::Telemetry) -> Option<PhaseBreakdown> {
    for trace in telemetry.trace_ids() {
        let spans = telemetry.spans_for(trace);
        if !spans.iter().any(|(p, _, _)| *p == mig_trace::Phase::Stream) {
            continue;
        }
        let mut breakdown = PhaseBreakdown::default();
        for (phase, at, end) in &spans {
            let ms = (end - at) as f64 / 1e6;
            match phase {
                mig_trace::Phase::Announce => breakdown.announce_ms += ms,
                mig_trace::Phase::Stream => breakdown.stream_ms += ms,
                mig_trace::Phase::Stage => breakdown.stage_ms += ms,
                mig_trace::Phase::Release => breakdown.release_ms += ms,
                mig_trace::Phase::Negotiate => {}
            }
        }
        if let Some(tally) = telemetry.transitions.by_trace.get(&trace) {
            breakdown.transitions = tally.ecalls + tally.ocalls;
        }
        return Some(breakdown);
    }
    None
}

/// Runs one full enclave migration in a fresh datacenter, returning
/// `(virtual_duration, wall_duration)`.
///
/// The virtual duration accounts network transfers, IAS round trips and
/// platform-firmware latencies; the wall duration is the real compute
/// cost of the protocol (crypto + simulation).
///
/// # Panics
///
/// Panics if the migration does not complete (fixture invariant).
#[must_use]
pub fn run_one_migration(seed: u64) -> (Duration, Duration) {
    let (mut dc, m1, m2) = migration_fixture(seed);
    dc.deploy_app("src", m1, &bench_image(), BenchApp, InitRequest::New)
        .expect("deploy src");
    // A representative working set: one counter + some sealed data.
    let id = {
        let out = dc
            .call_app("src", ops::COUNTER_CREATE, &[])
            .expect("create");
        out[0]
    };
    dc.call_app("src", ops::COUNTER_INCREMENT, &[id])
        .expect("inc");
    let _sealed = dc.call_app("src", ops::SEAL, &[7u8; 100]).expect("seal");

    dc.deploy_app("dst", m2, &bench_image(), BenchApp, InitRequest::Migrate)
        .expect("deploy dst");

    let wall_start = Instant::now();
    let virtual_time = dc.migrate_app("src", "dst").expect("migrate");
    let wall = wall_start.elapsed();
    (virtual_time, wall)
}

/// Ablation (paper §VI-B): the naive counter-transfer strategy — create a
/// counter on the destination and *increment it until it reaches the
/// transferred value* — measured in simulated platform time against the
/// offset design's constant cost.
///
/// Returns `(fast_forward_time, offset_time)` for a counter at `value`.
///
/// # Panics
///
/// Panics on fixture failures.
#[must_use]
pub fn counter_transfer_ablation(value: u32) -> (Duration, Duration) {
    let mut rng = StdRng::seed_from_u64(0xAB1A);
    let ias = AttestationService::new(&mut rng);
    let cost = Arc::new(ScaledIntelCost::paper_scaled(false));
    let machine = SgxMachine::with_cost_model(MachineId(9), &ias, cost, &mut rng);
    let enclave = machine
        .load_enclave(
            &bench_image(),
            Box::new(mig_core::baseline::native::NativeEnclave::new()),
        )
        .expect("load");

    // Naive strategy: create, then increment up to `value`.
    let _ = machine.drain_virtual_time();
    let idx = enclave
        .ecall(mig_core::baseline::native::ops::COUNTER_CREATE, &[])
        .expect("create")[0];
    for _ in 0..value {
        enclave
            .ecall(mig_core::baseline::native::ops::COUNTER_INCREMENT, &[idx])
            .expect("inc");
    }
    let fast_forward = machine.drain_virtual_time();

    // Offset strategy: one create; the offset installation is free.
    let _ = enclave
        .ecall(mig_core::baseline::native::ops::COUNTER_CREATE, &[])
        .expect("create");
    let offset = machine.drain_virtual_time();
    (fast_forward, offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_supports_all_paired_ops() {
        let setup = BenchSetup::new(false);
        let (mig, base) = setup.create_counters();

        assert_eq!(
            setup.call_migratable(ops::COUNTER_INCREMENT, &[mig]).len(),
            4
        );
        assert_eq!(
            setup
                .call_baseline(native_ops::COUNTER_INCREMENT, &[base])
                .len(),
            4
        );
        assert_eq!(setup.call_migratable(ops::COUNTER_READ, &[mig]).len(), 4);
        assert_eq!(
            setup.call_baseline(native_ops::COUNTER_READ, &[base]).len(),
            4
        );

        let blob = setup.call_migratable(ops::SEAL, b"x");
        assert_eq!(setup.call_migratable(ops::UNSEAL, &blob), b"x");
        let blob = setup.call_baseline(native_ops::SEAL, b"x");
        assert_eq!(setup.call_baseline(native_ops::UNSEAL, &blob), b"x");

        setup.call_migratable(ops::COUNTER_DESTROY, &[mig]);
        setup.call_baseline(native_ops::COUNTER_DESTROY, &[base]);
    }

    #[test]
    fn one_migration_completes_with_plausible_times() {
        let (virtual_time, wall) = run_one_migration(1);
        // Virtual time includes two IAS round trips (~40 ms) plus
        // transfers: tens of milliseconds.
        assert!(virtual_time > Duration::from_millis(10), "{virtual_time:?}");
        assert!(virtual_time < Duration::from_secs(2), "{virtual_time:?}");
        assert!(wall < Duration::from_secs(10), "{wall:?}");
    }

    #[test]
    fn figure_row_formatting() {
        let row = FigureRow::from_samples(
            "Increase Counter",
            Some(vec![250.0, 251.0, 252.0, 249.0]),
            vec![280.0, 281.0, 279.0, 280.5],
        );
        let s = row.format();
        assert!(s.contains("Increase Counter"));
        assert!(row.overhead_percent().unwrap() > 10.0);
        let init_row = FigureRow::from_samples("Init New", None, vec![10.0, 11.0, 9.5]);
        assert!(init_row.format().contains("Init New"));
        assert!(init_row.overhead_percent().is_none());
    }
}
