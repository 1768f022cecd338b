//! **perfbench**: the end-to-end and per-layer benchmark of enclave
//! handoffs and migratable updates. See `README.md` in this directory
//! for the workloads, the metrics and what each layer metric predicts.
//!
//! One process, one client thread, a closed loop: an op starts when the
//! previous one has returned. A run is one or two *phases*. An untraced
//! run's phase gives the end-to-end metrics. A traced run has an
//! untraced and a traced phase taking turns, and reports the per-layer
//! metrics from the traced one.

pub mod heap;
pub mod host;
pub mod instruments;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use crate::host::{probe, SplitMix64};
use crate::instruments::{span_totals, Span, Tracer};
use crate::workloads::{Cluster, OpRecord, TransferCounters, Workload};
use parking_lot::Mutex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// Whether to report per-layer metrics from a traced phase instead
    /// of the end-to-end metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Ops of one workload run under one tracing setting.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Records the spans while the phase runs (traced phases only).
    tracer: Option<Arc<Mutex<Tracer>>>,
    /// Every measured op, in order.
    pub ops: Vec<OpRecord>,
    /// Set-up times.
    pub setups: Vec<Duration>,
    /// ME transfer counters accumulated over the measured ops.
    pub transfer: TransferCounters,
    /// Messages that reached no service.
    pub dead_letters: u64,
    /// Recorded spans (traced phases only).
    pub spans: Vec<Span>,
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Ops attempted over every phase.
    pub attempted: u64,
    /// Ops that failed a call or a check.
    pub failed: u64,
    /// The reported metrics: end-to-end, or per-layer for traced runs.
    pub metrics: Vec<Metric>,
    /// Printed with an untraced run's metrics but left out of its result:
    /// the latency profile (see [`latency_profile`]) and the drift probe.
    pub diagnostics: Vec<Metric>,
    /// The phases, untraced first.
    pub phases: Vec<Phase>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of sorted `values` (`0 < p ≤ 1`); 0 if empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the mean of the middle two for an even count); 0 if empty.
fn median_duration(values: &[Duration]) -> Duration {
    let mut v = values.to_vec();
    v.sort();
    match v.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2,
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Phase {
    fn new(traced: bool) -> Phase {
        Phase {
            tracer: traced.then(|| Arc::new(Mutex::new(Tracer::default()))),
            ..Phase::default()
        }
    }

    /// Ops whose every check passed.
    fn ok_ops(&self) -> impl Iterator<Item = &OpRecord> {
        self.ops.iter().filter(|r| r.ok)
    }

    /// Latencies of the ops that passed, in ms, sorted.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.ok_ops().map(|r| ms(r.latency)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Latency of the fastest op that passed, in ms; 0 if none did.
    fn fastest_ms(&self) -> f64 {
        self.latencies_ms().first().copied().unwrap_or(0.0)
    }

    /// Sum of the op latencies so far.
    fn op_time(&self) -> Duration {
        self.ops.iter().map(|r| r.latency).sum()
    }

    /// One segment: a fresh datacenter (one timed set-up), then blocks of
    /// ops while the blocks so far plus an average block fit `share`. At
    /// least one block runs, so a zero share gives exactly one block.
    fn run_segment(
        &mut self,
        workload: Workload,
        seed: u64,
        share: Duration,
    ) -> Result<(), String> {
        let setup = Instant::now();
        let mut cluster = Cluster::build(workload, seed, self.tracer.clone())?;
        self.setups.push(setup.elapsed());
        let mut base = cluster.transfer_counters()?;
        let measuring = Instant::now();
        let mut blocks = 0u32;
        loop {
            for _ in 0..workload.block() {
                // The op log is the benchmark's and grows with the run:
                // leave it out of the op's heap peak.
                let log = self.ops.capacity() * std::mem::size_of::<OpRecord>();
                let mut record = cluster.measured_op(self.ops.len() as u32);
                record.heap_peak = record.heap_peak.saturating_sub(log as u64);
                self.ops.push(record);
                if !record.ok {
                    // A failed op can leave the store anywhere: settle the
                    // old datacenter and start over.
                    self.settle(&mut cluster, &base);
                    cluster = Cluster::build(workload, seed, self.tracer.clone())?;
                    base = cluster.transfer_counters()?;
                }
            }
            blocks += 1;
            let elapsed = measuring.elapsed();
            if elapsed + elapsed / blocks > share {
                break;
            }
        }
        self.settle(&mut cluster, &base);
        Ok(())
    }

    /// Adds what `cluster` counted since `base` to the phase's totals.
    fn settle(&mut self, cluster: &mut Cluster, base: &TransferCounters) {
        if let Ok(t) = cluster.transfer_counters() {
            self.transfer.add(&t.since(base));
        }
        self.dead_letters += cluster.dead_letters();
    }
}

/// Runs one phase per entry of `traced` for about `budget` of measuring
/// time in all (set-up is not counted), the phases taking turns segment
/// by segment so that drift of the host hits them alike.
///
/// `bulk-64m` builds a fresh datacenter for every op, so its segment is
/// one op; turns continue while every phase fits one more op in its
/// share of the budget (at least one turn). The other workloads run
/// `segments` turns, each on a freshly set-up datacenter: spreading the
/// set-ups over the run keeps a stall of the host from hitting them all.
///
/// # Errors
///
/// A failed set-up, as a message.
pub fn run_phases(
    workload: Workload,
    seed: u64,
    budget: Duration,
    traced: &[bool],
    segments: usize,
) -> Result<Vec<Phase>, String> {
    let mut phases: Vec<Phase> = traced.iter().map(|&t| Phase::new(t)).collect();
    let per_phase = budget / phases.len().max(1) as u32;
    if workload.fresh_cluster_per_op() {
        let mut seeds = SplitMix64::new(seed);
        loop {
            for phase in &mut phases {
                phase.run_segment(workload, seeds.next_u64(), Duration::ZERO)?;
            }
            let fits = |p: &Phase| {
                p.op_time() + p.ops.last().map_or(Duration::ZERO, |r| r.latency) <= per_phase
            };
            if !phases.iter().all(fits) {
                break;
            }
        }
    } else {
        let segments = segments.max(1);
        for _ in 0..segments {
            for phase in &mut phases {
                phase.run_segment(workload, seed, per_phase / segments as u32)?;
            }
        }
    }
    for phase in &mut phases {
        if let Some(tracer) = &phase.tracer {
            phase.spans = tracer.lock().take_spans();
        }
    }
    Ok(phases)
}

/// Runs the benchmark as `opts` asks.
///
/// # Errors
///
/// A failed set-up, as a message.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut probes: Vec<Duration> = (0..5).map(|_| probe()).collect();
    let budget = Duration::from_secs_f64(opts.seconds);
    // A traced run pairs its traced phase with an untraced one on the
    // same inputs, the reference for the tracing overhead.
    let traced: &[bool] = if opts.trace { &[false, true] } else { &[false] };
    let phases = run_phases(
        opts.workload,
        opts.seed,
        budget,
        traced,
        opts.workload.segments(),
    )?;
    probes.extend((0..5).map(|_| probe()));
    let attempted = phases.iter().map(|p| p.ops.len() as u64).sum();
    let failed = phases
        .iter()
        .map(|p| p.ops.iter().filter(|r| !r.ok).count() as u64)
        .sum();
    let (metrics, diagnostics) = if opts.trace {
        (per_layer(&phases[0], &phases[1], &probes), Vec::new())
    } else {
        let mut diagnostics = latency_profile(&phases[0]);
        diagnostics.push(probe_metric(&probes));
        (end_to_end(&phases[0]), diagnostics)
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        diagnostics,
        phases,
    })
}

/// The end-to-end metrics of an untraced phase.
///
/// Set-up and op latency are reported as the run's fastest. On a shared
/// host a co-tenant on the core slows whatever it overlaps about
/// twofold, and the share of the run it holds the core varies from run
/// to run; the fastest is the program's own cost with the least
/// interference. CPU time is reported against op time, which the
/// co-tenant stretches alike.
#[must_use]
pub fn end_to_end(phase: &Phase) -> Vec<Metric> {
    let latencies = phase.latencies_ms();
    let cpu: f64 = phase.ok_ops().map(|r| ms(r.cpu)).sum();
    let disk: u64 = phase.ok_ops().map(|r| r.counts.disk_bytes()).sum();
    let state: u64 = phase.ok_ops().map(|r| r.state_bytes).sum();
    let heap_peak = phase.ok_ops().map(|r| r.heap_peak).max().unwrap_or(0);
    vec![
        Metric {
            name: "setup_s",
            value: phase
                .setups
                .iter()
                .min()
                .map_or(0.0, Duration::as_secs_f64),
            unit: "s",
        },
        Metric {
            name: "op_ms_min",
            value: phase.fastest_ms(),
            unit: "ms",
        },
        Metric {
            name: "cores_busy",
            value: ratio(cpu, latencies.iter().sum()),
            unit: "cores",
        },
        Metric {
            name: "peak_heap_mib",
            value: heap_peak as f64 / (1024.0 * 1024.0),
            unit: "MiB",
        },
        Metric {
            name: "disk_bytes_per_state_byte",
            value: ratio(disk as f64, state as f64),
            unit: "B/B",
        },
    ]
}

/// The latency profile of an untraced phase: median set-up time, median
/// and 90th-percentile op latency, and the mean CPU time per op. They are
/// reported, not gated: on a shared host they say how much of the run a
/// co-tenant held the core more than what the program costs.
#[must_use]
pub fn latency_profile(phase: &Phase) -> Vec<Metric> {
    let latencies = phase.latencies_ms();
    let n = latencies.len().max(1) as f64;
    let cpu: f64 = phase.ok_ops().map(|r| ms(r.cpu)).sum();
    vec![
        Metric {
            name: "bench.setup_s_p50",
            value: median_duration(&phase.setups).as_secs_f64(),
            unit: "s",
        },
        Metric {
            name: "bench.op_ms_p50",
            value: percentile(&latencies, 0.5),
            unit: "ms",
        },
        Metric {
            name: "bench.op_ms_p90",
            value: percentile(&latencies, 0.9),
            unit: "ms",
        },
        Metric {
            name: "bench.cpu_ms_per_op",
            value: cpu / n,
            unit: "ms",
        },
    ]
}

/// Layer spans reported by their self time per op, as
/// `(span name, metric name)`.
const SELF_TIME_SPANS: [(&str, &str); 8] = [
    ("library.deploy", "library.deploy_ms"),
    ("library.start", "library.start_ms"),
    ("library.install", "library.install_ms"),
    ("library.complete", "library.complete_ms"),
    ("library.stop", "library.stop_ms"),
    ("kvstore.restore", "kvstore.restore_ms"),
    ("kvstore.put", "kvstore.put_ms"),
    ("bench.verify", "bench.verify_ms"),
];

/// ME service spans, as `(span name, metric prefix)`; each reports
/// `<prefix>_ms`, `<prefix>_calls` and `<prefix>_bytes_in` per op.
const ME_SPANS: [(&str, [&str; 3]); 5] = [
    (
        "me.attest",
        ["me.attest_ms", "me.attest_calls", "me.attest_bytes_in"],
    ),
    (
        "me.src.payload",
        [
            "me.src.payload_ms",
            "me.src.payload_calls",
            "me.src.payload_bytes_in",
        ],
    ),
    (
        "me.src.stream",
        [
            "me.src.stream_ms",
            "me.src.stream_calls",
            "me.src.stream_bytes_in",
        ],
    ),
    (
        "me.dst.payload",
        [
            "me.dst.payload_ms",
            "me.dst.payload_calls",
            "me.dst.payload_bytes_in",
        ],
    ),
    (
        "me.dst.stream",
        [
            "me.dst.stream_ms",
            "me.dst.stream_calls",
            "me.dst.stream_bytes_in",
        ],
    ),
];

/// The per-layer self-time metrics that partition `bench.op_ms`: every
/// layer span, the benchmark's own time between calls, and the pump.
pub fn partition_metrics() -> impl Iterator<Item = &'static str> {
    ["bench.self_ms", "cloud_sim.world.pump_self_ms"]
        .into_iter()
        .chain(SELF_TIME_SPANS.iter().map(|(_, metric)| *metric))
        .chain(ME_SPANS.iter().map(|(_, [time, _, _])| *time))
}

type Field = fn(&OpRecord) -> u64;

/// Counts reported per op: `(metric, unit, field)`.
const OP_COUNTS: [(&str, &str, Field); 10] = [
    ("sgx_sim.ecalls", "count", |r| r.ecalls),
    ("cloud_sim.net.local_msgs", "count", |r| r.counts.local_msgs),
    ("cloud_sim.net.local_bytes", "B", |r| r.counts.local_bytes),
    ("cloud_sim.net.remote_msgs", "count", |r| {
        r.counts.remote_msgs
    }),
    ("cloud_sim.net.remote_bytes", "B", |r| r.counts.remote_bytes),
    ("cloud_sim.disk.app_state_bytes", "B", |r| {
        r.counts.app_state_bytes
    }),
    ("cloud_sim.disk.app_ckpt_bytes", "B", |r| {
        r.counts.app_ckpt_bytes
    }),
    ("cloud_sim.disk.me_ckpt_bytes", "B", |r| {
        r.counts.me_ckpt_bytes
    }),
    ("cloud_sim.disk.writes", "count", |r| r.counts.disk_writes),
    ("proc.minflt", "count", |r| r.minflt),
];

/// The per-layer metrics of a traced run: spans and counts from the
/// traced phase, the tracing overhead against the untraced phase and
/// that phase's latency profile, the crypto kernels at the workloads'
/// buffer sizes, and the drift probe.
#[must_use]
pub fn per_layer(untraced: &Phase, traced: &Phase, probes: &[Duration]) -> Vec<Metric> {
    let n = traced.ops.len().max(1) as f64;
    let per_op = |v: f64| v / n;
    let totals = span_totals(&traced.spans);
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    let sum = |f: Field| traced.ops.iter().map(f).sum::<u64>() as f64;
    let sum_ms = |f: fn(&OpRecord) -> Duration| ms(traced.ops.iter().map(f).sum());
    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };

    let op = total("op");
    push("bench.op_ms", per_op(ms(op.total)), "ms");
    push("bench.self_ms", per_op(ms(op.self_time)), "ms");
    for (span, metric) in SELF_TIME_SPANS {
        push(metric, per_op(ms(total(span).self_time)), "ms");
    }
    for (span, [time, calls, bytes]) in ME_SPANS {
        let t = total(span);
        push(time, per_op(ms(t.self_time)), "ms");
        push(calls, per_op(t.calls as f64), "count");
        push(bytes, per_op(t.bytes_in as f64), "B");
    }
    let migrate = total("datacenter.migrate");
    push("datacenter.migrate_ms", per_op(ms(migrate.total)), "ms");
    push(
        "cloud_sim.world.pump_self_ms",
        per_op(ms(migrate.self_time)),
        "ms",
    );

    let t = traced.transfer;
    for (name, value) in [
        ("transfer.announcements", t.announcements),
        ("transfer.chunks_sealed", t.chunks_sealed),
        ("transfer.chunks_retransmitted", t.chunks_retransmitted),
        ("transfer.delta_fallbacks", t.delta_fallbacks),
        ("transfer.cache_evictions", t.cache_evictions),
        ("transfer.singleshot_transfers", t.singleshot_transfers),
    ] {
        push(name, per_op(value as f64), "count");
    }
    push(
        "transfer.fallback_ratio",
        ratio(t.delta_fallbacks as f64, t.announcements as f64),
        "ratio",
    );

    for (name, unit, field) in OP_COUNTS {
        push(name, per_op(sum(field)), unit);
    }
    let state = sum(|r| r.state_bytes);
    let remote = sum(|r| r.counts.remote_bytes);
    push("net_bytes_per_state_byte", ratio(remote, state), "B/B");
    push("cloud_sim.net.useful_ratio", ratio(state, remote), "ratio");
    push("cloud_sim.world.virt_ms", per_op(sum_ms(|r| r.virt)), "ms");
    push(
        "cloud_sim.world.dead_letters",
        traced.dead_letters as f64,
        "count",
    );
    push(
        "proc.fresh_bytes_per_state_byte",
        ratio(sum(|r| r.minflt) * PAGE_BYTES, state),
        "B/B",
    );
    push("proc.sys_ms", per_op(sum_ms(|r| r.sys)), "ms");

    out.extend(crypto_metrics());
    out.extend(latency_profile(untraced));
    let base = untraced.fastest_ms();
    let with_spans = traced.fastest_ms();
    out.push(Metric {
        name: "bench.trace_overhead_pct",
        value: ratio(with_spans - base, base) * 100.0,
        unit: "%",
    });
    out.push(probe_metric(probes));
    out
}

/// `bench.probe_ms`: the median time of the host-drift probe.
fn probe_metric(probes: &[Duration]) -> Metric {
    Metric {
        name: "bench.probe_ms",
        value: ms(median_duration(probes)),
        unit: "ms",
    }
}

/// Bytes per page behind one minor fault.
const PAGE_BYTES: f64 = 4096.0;

/// Median time of `reps` calls of `f`.
fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let times: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    median_duration(&times)
}

/// `mig-crypto` called directly at the buffer sizes the workloads use:
/// 256 KiB (a stream chunk) and 4 KiB (a kvstore value or segment).
fn crypto_metrics() -> Vec<Metric> {
    use mig_crypto::gcm::AesGcm;
    use mig_crypto::sha256::sha256;

    const BIG: usize = 256 * 1024;
    const SMALL: usize = 4096;
    let key = [0x42u8; 16];
    let nonce = [0x24u8; 12];
    let plain = SplitMix64::new(0xC0DE).bytes(BIG);
    let gcm = AesGcm::new(key);
    let sealed = gcm.seal(&nonce, b"", &plain);
    let mb_s = |d: Duration| BIG as f64 / 1e6 / d.as_secs_f64();

    let seal = median_time(15, || gcm.seal(&nonce, b"", black_box(&plain)));
    let open = median_time(15, || {
        gcm.open(&nonce, b"", black_box(&sealed))
            .expect("a fresh seal opens")
    });
    let hash = median_time(15, || sha256(black_box(&plain)));
    let small = median_time(201, || {
        AesGcm::new(black_box(key)).seal(&nonce, b"", black_box(&plain[..SMALL]))
    });
    vec![
        Metric {
            name: "crypto.gcm_seal_256k.mb_s",
            value: mb_s(seal),
            unit: "MB/s",
        },
        Metric {
            name: "crypto.gcm_open_256k.mb_s",
            value: mb_s(open),
            unit: "MB/s",
        },
        Metric {
            name: "crypto.sha256_256k.mb_s",
            value: mb_s(hash),
            unit: "MB/s",
        },
        Metric {
            name: "crypto.gcm_seal_4k.us",
            value: small.as_secs_f64() * 1e6,
            unit: "us",
        },
    ]
}
