//! The benchmark's own checks: each workload stays in a steady state
//! (the first and last tenth of a run's ops agree), takes the path it
//! was chosen for, and the traced layers partition the op time.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::workloads::{OpRecord, Workload};
use perfbench::{partition_metrics, per_layer, run_phases, Metric, Phase};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

const SEED: u64 = 7;

/// The tests time the program, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn phase(workload: Workload, seconds: f64, traced: bool) -> Phase {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let phase = run_phases(
        workload,
        SEED,
        Duration::from_secs_f64(seconds),
        &[traced],
        1,
    )
    .expect("set-up succeeds")
    .remove(0);
    assert!(
        phase.ops.iter().all(|r| r.ok),
        "{}: an op failed",
        workload.name()
    );
    phase
}

/// Deterministic work of an op: identical for every op in a steady state.
fn work(r: &OpRecord) -> (u64, u64, u64, u64, u64, u64, Duration) {
    (
        r.state_bytes,
        r.counts.local_bytes,
        r.counts.remote_bytes,
        r.counts.remote_msgs,
        r.counts.disk_bytes(),
        r.ecalls,
        r.virt,
    )
}

fn sum_work(ops: &[OpRecord]) -> Vec<u64> {
    let mut sums = vec![0u64; 7];
    for r in ops {
        let (a, b, c, d, e, f, g) = work(r);
        for (s, v) in sums.iter_mut().zip([a, b, c, d, e, f, g.as_nanos() as u64]) {
            *s += v;
        }
    }
    sums
}

/// The first and last tenth of the ops (whole blocks of the workload's
/// block size) did exactly the same work, and their fastest ops agree
/// within 50%. The latency check only catches gross drift: a co-tenant
/// on a shared host can double every op of a tenth on its own.
fn assert_tenths_agree(workload: Workload, phase: &Phase) {
    let n = phase.ops.len();
    let block = workload.block();
    let k = ((n / 10) / block * block).max(block).min(n / 2).max(1);
    assert!(n >= 2, "{}: need two ops, got {n}", workload.name());
    let (first, last) = (&phase.ops[..k], &phase.ops[n - k..]);
    assert_eq!(
        sum_work(first),
        sum_work(last),
        "{}: first and last {k} ops did different work",
        workload.name()
    );
    let fastest = |ops: &[OpRecord]| {
        ops.iter()
            .map(|r| r.latency.as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    };
    let (a, b) = (fastest(first), fastest(last));
    assert!(
        (b - a).abs() / a < 0.5,
        "{}: first-tenth fastest op {a:.6} s vs last-tenth {b:.6} s",
        workload.name()
    );
}

fn metric(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
        .value
}

/// The reported self times (every layer, the pump and the benchmark's
/// own) sum to the traced op time.
fn assert_layers_partition_op_time(workload: Workload, traced: &Phase) {
    let metrics = per_layer(&Phase::default(), traced, &[Duration::from_millis(1)]);
    let op = metric(&metrics, "bench.op_ms");
    let parts: f64 = partition_metrics().map(|name| metric(&metrics, name)).sum();
    assert!(
        (parts - op).abs() <= op * 1e-6,
        "{}: layer self times sum to {parts} ms, op time is {op} ms",
        workload.name()
    );
}

#[test]
fn handoff_4k_is_steady_and_single_shot() {
    let w = Workload::Handoff4k;
    let p = phase(w, 6.0, true);
    let ops = p.ops.len() as u64;
    assert_eq!(
        p.transfer.singleshot_transfers, ops,
        "one single-shot Transfer per op"
    );
    assert_eq!(p.transfer.announcements, 0, "no chunk stream");
    assert_tenths_agree(w, &p);
    assert_layers_partition_op_time(w, &p);
}

#[test]
fn rebalance_1m_is_steady_and_ships_deltas() {
    let w = Workload::Rebalance1m;
    let p = phase(w, 10.0, true);
    let ops = p.ops.len() as u64;
    assert_eq!(p.transfer.delta_fallbacks, 0, "no delta fell back to full");
    assert_eq!(p.transfer.announcements, ops, "one stream per op");
    for r in &p.ops {
        assert!(
            r.counts.remote_bytes * 4 < r.state_bytes,
            "a delta ships well under the state: {} remote bytes for {} state bytes",
            r.counts.remote_bytes,
            r.state_bytes
        );
    }
    assert_tenths_agree(w, &p);
    assert_layers_partition_op_time(w, &p);
}

#[test]
fn kv_put_64k_is_steady_and_leaves_the_me_alone() {
    let w = Workload::KvPut64k;
    let p = phase(w, 6.0, true);
    assert!(p
        .ops
        .iter()
        .all(|r| r.counts.remote_msgs == 0 && r.counts.local_msgs == 0));
    assert!(p.spans.iter().all(|s| !s.name.starts_with("me.")));
    assert_tenths_agree(w, &p);
    assert_layers_partition_op_time(w, &p);
}

#[test]
fn bulk_64m_streams_cold_every_op() {
    let w = Workload::Bulk64m;
    // A fresh datacenter per op: a 30 s budget fits two ops.
    let p = phase(w, 30.0, true);
    let ops = p.ops.len() as u64;
    assert_eq!(p.transfer.announcements, ops, "one stream per op");
    assert_eq!(p.transfer.delta_fallbacks, 0);
    for r in &p.ops {
        assert!(
            r.counts.remote_bytes >= r.state_bytes,
            "every op ships the whole state"
        );
    }
    assert_tenths_agree(w, &p);
    assert_layers_partition_op_time(w, &p);
}

#[test]
fn same_seed_repeats_every_count() {
    let w = Workload::Rebalance1m;
    let (a, b) = (phase(w, 2.0, false), phase(w, 2.0, false));
    let n = a.ops.len().min(b.ops.len());
    let works = |p: &Phase| p.ops[..n].iter().map(work).collect::<Vec<_>>();
    assert_eq!(works(&a), works(&b));
}
