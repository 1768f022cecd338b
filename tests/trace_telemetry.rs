//! End-to-end tests of the observability layer (`mig-trace`): the
//! deterministic per-migration trace export, the destination-side phase
//! partition, the transition-count telemetry attributed to migration
//! trace ids, and the bounded event ring buffer.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
use mig_core::datacenter::Datacenter;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::transfer::chunker::chunk_count;
use mig_core::transfer::TransferConfig;
use mig_trace::{Phase, Telemetry, TraceId, EVENT_BYTES};
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};

fn image(tag: u8) -> EnclaveImage {
    EnclaveImage::build(
        &format!("trace-kv-{tag}"),
        1,
        b"kvstore",
        &EnclaveSigner::from_seed([80 + tag; 32]),
    )
}

/// 4096 × 4 KiB values ≈ 16 MiB of sealed state.
const BULK_COUNT: u32 = 4096;
const BULK_VALUE_LEN: u32 = 4096;

fn two_machines(seed: u64, config: TransferConfig) -> (Datacenter, MachineId, MachineId) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    (dc, m1, m2)
}

/// Runs one seeded 16 MiB migration with the default 256 KiB chunk
/// geometry and returns the fleet telemetry plus the transferred state
/// length (for chunk-count arithmetic).
fn run_bulk_migration(seed: u64) -> (Telemetry, u64) {
    let (mut dc, m1, m2) = two_machines(seed, TransferConfig::default());
    dc.deploy_app("src", m1, &image(0), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, 0x5A),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(0), KvStore::new(), InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    let state_len = dc
        .app_bulk_state("dst")
        .unwrap()
        .expect("migrated state present")
        .len() as u64;
    let telemetry = dc.fleet_telemetry().unwrap();
    (telemetry, state_len)
}

/// The migration's trace id: the one carrying a Stream-phase span (the
/// channel-negotiation pseudo traces only carry Negotiate spans).
fn migration_trace(telemetry: &Telemetry) -> TraceId {
    let traces: Vec<TraceId> = telemetry
        .trace_ids()
        .into_iter()
        .filter(|t| {
            telemetry
                .spans_for(*t)
                .iter()
                .any(|(p, _, _)| *p == Phase::Stream)
        })
        .collect();
    assert_eq!(traces.len(), 1, "exactly one migration stream expected");
    traces[0]
}

/// Acceptance: a seeded 16 MiB migration emits a byte-identical
/// `TRACE.json` across two runs, its destination phase spans are
/// contiguous and sum to the total time-to-release, and the
/// per-migration transition counter equals the chunk count.
#[test]
fn seeded_migration_trace_is_deterministic_with_exact_spans_and_transitions() {
    let (telemetry, state_len) = run_bulk_migration(4201);
    let (repeat, _) = run_bulk_migration(4201);
    let json = telemetry.to_json();
    assert_eq!(
        json,
        repeat.to_json(),
        "same seed must export byte-identical TRACE.json"
    );
    assert!(json.starts_with('{') && json.ends_with("}\n"));

    // Destination phase partition: Announce → Stream → Stage → Release,
    // contiguous, summing to the trace's total extent — which is
    // exactly what the time-to-release histogram observed.
    let tid = migration_trace(&telemetry);
    let spans = telemetry.spans_for(tid);
    let phases: Vec<Phase> = spans.iter().map(|(p, _, _)| *p).collect();
    assert_eq!(
        phases,
        vec![Phase::Announce, Phase::Stream, Phase::Stage, Phase::Release],
        "destination-side phases in order"
    );
    for w in spans.windows(2) {
        assert_eq!(w[0].2, w[1].1, "phase partition must be contiguous");
    }
    let sum: u64 = spans.iter().map(|(_, at, end)| end - at).sum();
    let extent = spans.last().unwrap().2 - spans[0].1;
    assert_eq!(sum, extent, "span durations sum to the migration extent");
    assert!(sum > 0, "a 16 MiB stream takes nonzero virtual time");
    let ttr = telemetry
        .histograms
        .get("me.time_to_release_ns")
        .expect("time-to-release histogram populated");
    assert_eq!(ttr.n, 1);
    assert_eq!(ttr.sum, extent, "histogram observed the same quantity");

    // Transition telemetry: the destination handles exactly one
    // chain-verified TRANSFER ECALL per chunk, the source one ACK ECALL
    // per cumulative chunk ack — both attributed to the migration's
    // trace id, so the per-trace tally is 2× the chunk count.
    let chunks = u64::from(chunk_count(state_len, TransferConfig::default().chunk_size));
    assert_eq!(chunks, 66, "16.8 MiB sealed state at 256 KiB per chunk");
    let per_trace = telemetry
        .transitions
        .by_trace
        .get(&tid)
        .expect("transitions attributed to the migration trace");
    assert_eq!(
        per_trace.ecalls,
        2 * chunks,
        "one destination TRANSFER + one source ACK ECALL per chunk"
    );
    assert!(
        telemetry.transitions.total.ecalls > per_trace.ecalls,
        "fleet total includes attestation and lifecycle ECALLs"
    );

    // Counters crossed the TELEMETRY ECALL: the source sealed every
    // chunk once, the destination chain-verified every chunk.
    assert_eq!(telemetry.counters.get("me.chunks_sealed"), Some(&chunks));
    assert_eq!(telemetry.counters.get("me.chunks_received"), Some(&chunks));
    assert_eq!(telemetry.counters.get("me.announcements"), Some(&1));

    // Chunk RTTs were observed on the source side.
    let rtt = telemetry
        .histograms
        .get("me.chunk_rtt_ns")
        .expect("chunk RTT histogram populated");
    assert!(rtt.n > 0 && rtt.mean() > 0.0);

    // And a Negotiate span covered the ME↔ME channel establishment.
    assert!(
        telemetry.trace_ids().iter().any(|t| telemetry
            .spans_for(*t)
            .iter()
            .any(|(p, at, end)| *p == Phase::Negotiate && end > at)),
        "channel negotiation span recorded"
    );
}

/// k = 4 concurrent migrations on one link: every recorder stays within
/// its byte budget, the per-nonce traces stay separate, and the merged
/// fleet export remains deterministic.
#[test]
fn concurrent_migrations_keep_ring_buffer_bounded_and_traces_separate() {
    let run = |seed: u64| {
        let config = TransferConfig {
            stream_threshold: 4096,
            chunk_size: 16 * 1024,
            window: 4,
            ..TransferConfig::default()
        };
        let (mut dc, m1, m2) = two_machines(seed, config);
        for i in 0..4u8 {
            let src = format!("src-{i}");
            let dst = format!("dst-{i}");
            dc.deploy_app(&src, m1, &image(i), KvStore::new(), InitRequest::New)
                .unwrap();
            dc.call_app(&src, kv_ops::INIT, &[]).unwrap();
            dc.call_app(
                &src,
                kv_ops::BULK_PUT,
                &kvstore::encode_bulk_put(64 + u32::from(i) * 16, 4096, 0x30 + i),
            )
            .unwrap();
            dc.deploy_app(&dst, m2, &image(i), KvStore::new(), InitRequest::Migrate)
                .unwrap();
        }
        dc.migrate_apps_concurrent(&[
            ("src-0", "dst-0"),
            ("src-1", "dst-1"),
            ("src-2", "dst-2"),
            ("src-3", "dst-3"),
        ])
        .unwrap();

        // Per-machine ring-buffer bound (the fleet view cannot exceed
        // the per-recorder budgets either).
        for machine in [m1, m2] {
            let host = dc.me_host(machine);
            let t = host.lock().telemetry().unwrap();
            assert!(
                t.events.len() * EVENT_BYTES <= mig_trace::DEFAULT_RECORDER_BUDGET,
                "machine {} recorder exceeded its byte budget",
                machine.0
            );
        }
        dc.fleet_telemetry().unwrap()
    };

    let telemetry = run(4202);
    // Four distinct migration streams, each with its own full phase
    // partition.
    let stream_traces: Vec<TraceId> = telemetry
        .trace_ids()
        .into_iter()
        .filter(|t| {
            telemetry
                .spans_for(*t)
                .iter()
                .any(|(p, _, _)| *p == Phase::Stream)
        })
        .collect();
    assert_eq!(stream_traces.len(), 4, "one trace per concurrent stream");
    for t in &stream_traces {
        let phases: Vec<Phase> = telemetry.spans_for(*t).iter().map(|(p, _, _)| *p).collect();
        assert_eq!(
            phases,
            vec![Phase::Announce, Phase::Stream, Phase::Stage, Phase::Release],
            "every stream carries the full phase partition"
        );
    }
    assert_eq!(
        telemetry
            .histograms
            .get("me.time_to_release_ns")
            .map(|h| h.n),
        Some(4)
    );

    // The concurrent interleaving is deterministic too.
    assert_eq!(telemetry.to_json(), run(4202).to_json());
}

/// Regression (observability attribution leak): TELEMETRY exports,
/// STREAM_STAT progress probes, and LINK_STAT per-stream probes issued
/// **while the chunk stream is in flight** must not be attributed to
/// the migration's trace. The world is pumped one message at a time
/// with all three polls fired every few deliveries; the per-trace
/// transition tally still comes out at exactly one destination
/// TRANSFER plus one source ACK ECALL per chunk, as if the host had
/// never polled.
#[test]
fn mid_stream_observability_polls_never_inflate_per_trace_transitions() {
    let (mut dc, m1, m2) = two_machines(4204, TransferConfig::default());
    dc.deploy_app("src", m1, &image(0), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(BULK_COUNT, BULK_VALUE_LEN, 0x5A),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image(0), KvStore::new(), InitRequest::Migrate)
        .unwrap();

    let mr = dc.app("src").lock().enclave().identity().mr_enclave;
    let dst_machine = dc.app_machine("dst");
    let src = dc.app("src");
    src.lock()
        .migrate_to(dc.world_mut().network_mut(), dst_machine)
        .unwrap();

    let mut steps = 0u64;
    let mut polls = 0u32;
    while dc.world_mut().step() {
        steps += 1;
        if steps.is_multiple_of(5) {
            dc.fleet_telemetry().unwrap();
            dc.me_host(m1).lock().stream_progress(mr).unwrap();
            dc.me_host(m1).lock().link_streams(m2).unwrap();
            polls += 1;
        }
    }
    assert!(
        polls > 10,
        "a 16 MiB stream must leave room for many mid-stream polls (got {polls})"
    );

    let state_len = dc
        .app_bulk_state("dst")
        .unwrap()
        .expect("migration released despite mid-stream polling")
        .len() as u64;
    let chunks = u64::from(chunk_count(state_len, TransferConfig::default().chunk_size));
    let telemetry = dc.fleet_telemetry().unwrap();
    assert_eq!(telemetry.counters.get("me.chunks_received"), Some(&chunks));

    let tid = migration_trace(&telemetry);
    let per_trace = telemetry.transitions.by_trace.get(&tid).unwrap();
    assert_eq!(
        per_trace.ecalls,
        2 * chunks,
        "observability polls leaked into the migration's transition tally"
    );
}

/// The timeline rendering covers every migration trace (smoke — the
/// exact format is pinned down by mig-trace's unit tests).
#[test]
fn timeline_renders_every_trace() {
    let (telemetry, _) = run_bulk_migration(4203);
    let timeline = telemetry.render_timeline();
    for t in telemetry.trace_ids() {
        assert!(
            timeline.contains(&mig_trace::hex8(&t)),
            "timeline must mention trace {}",
            mig_trace::hex8(&t)
        );
    }
    assert!(timeline.contains("release"), "phases are spelled out");
}
