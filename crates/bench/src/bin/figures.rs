//! Regenerates the paper's evaluation figures with its exact methodology:
//! per-ECALL wall-clock timing, 1000 repetitions, means with 99 %
//! confidence intervals, one-tailed Welch t-tests.
//!
//! ```sh
//! cargo run -p mig-bench --release --bin figures            # all figures
//! cargo run -p mig-bench --release --bin figures -- fig3    # one figure
//! FIG_ITERS=200 cargo run -p mig-bench --release --bin figures
//! ```
//!
//! Paper reference points (DSN'18 §VII-B): counter-increment overhead
//! 12.3 % (p ≈ 0), counter-read overhead not significant (p ≈ 0.12),
//! migratable sealing slightly *faster* than native, initialization
//! negligible, and enclave migration 0.47 ± 0.035 s — an order of
//! magnitude below VM migration.

use mig_bench::{
    bench_image, figure_header, migration_fixture, ops, run_one_migration, sample_n, BenchApp,
    BenchSetup, FigureRow,
};
use mig_core::baseline::native::ops as native_ops;
use mig_core::harness::{encode_init, ops as lib_ops};
use mig_core::library::InitRequest;
use mig_core::me::me_image;

fn iterations() -> usize {
    std::env::var("FIG_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000)
}

fn fig3(n: usize) {
    println!("\n=== Figure 3 — average duration of counter operations ===");
    println!("({n} reps per op; scaled Intel-ME latency model; 99% CI)\n");
    println!("{}", figure_header());

    let setup = BenchSetup::new(true);

    // Create/Destroy are measured as a pair so the quota stays level.
    let mut create_base = Vec::with_capacity(n);
    let mut destroy_base = Vec::with_capacity(n);
    let mut create_mig = Vec::with_capacity(n);
    let mut destroy_mig = Vec::with_capacity(n);
    for _ in 0..n {
        let mut idx = 0u8;
        create_base.push(
            mig_bench::time_once(|| {
                idx = setup.call_baseline(native_ops::COUNTER_CREATE, &[])[0];
            }) * 1e6,
        );
        destroy_base.push(
            mig_bench::time_once(|| {
                setup.call_baseline(native_ops::COUNTER_DESTROY, &[idx]);
            }) * 1e6,
        );
        let mut id = 0u8;
        create_mig.push(
            mig_bench::time_once(|| {
                id = setup.call_migratable(ops::COUNTER_CREATE, &[])[0];
            }) * 1e6,
        );
        destroy_mig.push(
            mig_bench::time_once(|| {
                setup.call_migratable(ops::COUNTER_DESTROY, &[id]);
            }) * 1e6,
        );
    }

    let (mig_id, base_idx) = setup.create_counters();
    let inc_base = sample_n(n, || {
        setup.call_baseline(native_ops::COUNTER_INCREMENT, &[base_idx]);
    });
    let inc_mig = sample_n(n, || {
        setup.call_migratable(ops::COUNTER_INCREMENT, &[mig_id]);
    });
    let read_base = sample_n(n, || {
        setup.call_baseline(native_ops::COUNTER_READ, &[base_idx]);
    });
    let read_mig = sample_n(n, || {
        setup.call_migratable(ops::COUNTER_READ, &[mig_id]);
    });

    for row in [
        FigureRow::from_samples("Create Counter", Some(create_base), create_mig),
        FigureRow::from_samples("Increase Counter", Some(inc_base), inc_mig),
        FigureRow::from_samples("Read Counter", Some(read_base), read_mig),
        FigureRow::from_samples("Destroy Counter", Some(destroy_base), destroy_mig),
    ] {
        println!("{}", row.format());
    }
    println!("\npaper: increment overhead 12.3% (p≈0); read not significant (p≈0.12);");
    println!("       create/destroy overhead from resealing the internal state buffer.");
}

fn fig4(n: usize) {
    println!("\n=== Figure 4 — initialization and sealing operations ===");
    println!("({n} reps per op; 99% CI)\n");
    println!("{}", figure_header());

    let setup = BenchSetup::new(true);

    // Init New / Init Restore: repeated MIG_INIT ECALLs (no baseline —
    // the baseline has no library to initialize).
    let me_mr = me_image().mr_enclave();
    let init_new = sample_n(n, || {
        let req = encode_init(&me_mr, &InitRequest::New);
        let _ = setup.migratable.ecall(lib_ops::MIG_INIT, &req).unwrap();
    });
    // Produce a persistent blob to restore from (one counter active, as
    // a restarted production enclave would have).
    let init_req = encode_init(&me_mr, &InitRequest::New);
    let _ = setup
        .migratable
        .ecall(lib_ops::MIG_INIT, &init_req)
        .unwrap();
    let out = setup.migratable.ecall(ops::COUNTER_CREATE, &[]).unwrap();
    let persist = mig_core::harness::open_envelope(&out).unwrap().persist;
    let blob = persist.expect("create persists").to_vec();
    let init_restore = sample_n(n, || {
        let req = encode_init(&me_mr, &InitRequest::Restore { blob: blob.clone() });
        let _ = setup.migratable.ecall(lib_ops::MIG_INIT, &req).unwrap();
    });

    for row in [
        FigureRow::from_samples("Init New", None, init_new),
        FigureRow::from_samples("Init Restore", None, init_restore),
    ] {
        println!("{}", row.format());
    }

    // Seal/Unseal at 100 B and 100 KiB, native vs migratable.
    for (label, size) in [("100B", 100usize), ("100kB", 100 * 1024)] {
        let payload = vec![0xA5u8; size];
        let seal_base = sample_n(n, || {
            setup.call_baseline(native_ops::SEAL, &payload);
        });
        let seal_mig = sample_n(n, || {
            setup.call_migratable(ops::SEAL, &payload);
        });
        let blob_base = setup.call_baseline(native_ops::SEAL, &payload);
        let blob_mig = setup.call_migratable(ops::SEAL, &payload);
        let unseal_base = sample_n(n, || {
            setup.call_baseline(native_ops::UNSEAL, &blob_base);
        });
        let unseal_mig = sample_n(n, || {
            setup.call_migratable(ops::UNSEAL, &blob_mig);
        });
        println!(
            "{}",
            FigureRow::from_samples(&format!("Seal {label}"), Some(seal_base), seal_mig).format()
        );
        println!(
            "{}",
            FigureRow::from_samples(&format!("Unseal {label}"), Some(unseal_base), unseal_mig)
                .format()
        );
    }
    println!("\npaper: migratable sealing is slightly FASTER than native (the MSK is at");
    println!("       hand; native sealing pays an extra EGETKEY); init times negligible.");
}

fn e3(n: usize) {
    println!("\n=== §VII-B — enclave migration overhead (E3) ===");
    println!("({n} full migrations, each in a fresh two-machine datacenter)\n");

    let mut virtual_ms = Vec::with_capacity(n);
    let mut wall_ms = Vec::with_capacity(n);
    for i in 0..n {
        let (virt, wall) = run_one_migration(i as u64);
        virtual_ms.push(virt.as_secs_f64() * 1e3);
        wall_ms.push(wall.as_secs_f64() * 1e3);
    }
    let virt = mig_stats::summarize(&virtual_ms, 0.99);
    let wall = mig_stats::summarize(&wall_ms, 0.99);
    println!(
        "enclave migration (simulated time): {:.3} ± {:.3} ms  [attestation + IAS + transfer]",
        virt.mean, virt.ci_half_width
    );
    println!(
        "enclave migration (host compute):   {:.3} ± {:.3} ms  [crypto + protocol]",
        wall.mean, wall.ci_half_width
    );

    // Steady-state migrations reuse the ME↔ME channel (no RA/IAS).
    let (mut dc, m1, m2) = migration_fixture(0xE3);
    dc.deploy_app("w0", m1, &bench_image(), BenchApp, InitRequest::New)
        .unwrap();
    let machines = [m1, m2];
    let mut steady_ms = Vec::new();
    for g in 0..20usize {
        let next = format!("w{}", g + 1);
        let target = machines[(g + 1) % 2];
        dc.deploy_app(
            &next,
            target,
            &bench_image(),
            BenchApp,
            InitRequest::Migrate,
        )
        .unwrap();
        let took = dc.migrate_app(&format!("w{g}"), &next).unwrap();
        // Channels are per direction: both ME↔ME channels exist from the
        // third migration onward, so only then is the state steady.
        if g > 1 {
            steady_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    let steady = mig_stats::summarize(&steady_ms, 0.99);
    println!(
        "steady state (ME channel reused):   {:.3} ± {:.3} ms",
        steady.mean, steady.ci_half_width
    );

    // Context: VM migration of typical guests over the same fabric.
    let link = cloud_sim::network::LinkProfile::datacenter();
    for gib in [1u64, 4, 8] {
        let vm = cloud_sim::vm::Vm {
            id: cloud_sim::vm::VmId(1),
            host: m1,
            memory_bytes: gib << 30,
        };
        let t = cloud_sim::vm::vm_migration_time(&vm, &link);
        println!(
            "VM live migration, {gib:>2} GiB guest:    {:>9.1} ms   (enclave adds {:.2}%)",
            t.as_secs_f64() * 1e3,
            100.0 * virt.mean / (t.as_secs_f64() * 1e3),
        );
    }
    println!("\npaper: 0.47 ± 0.035 s per enclave migration (real IAS + ME latencies),");
    println!("       'an order of magnitude lower' than VM migration — same shape here.");
}

/// The E4 sweep entries up to (and including) the `E4_SWEEP_MAX` label
/// (default: all — 4 KiB through 64 MiB; CI smoke caps it at 1 MiB).
fn e4_sweep() -> &'static [(&'static str, u32, u32)] {
    match std::env::var("E4_SWEEP_MAX") {
        Ok(max) => {
            let cut = mig_bench::STATE_SWEEP
                .iter()
                .position(|(label, _, _)| *label == max)
                .map_or(mig_bench::STATE_SWEEP.len(), |i| i + 1);
            &mig_bench::STATE_SWEEP[..cut]
        }
        Err(_) => mig_bench::STATE_SWEEP,
    }
}

fn e4(n: usize) {
    let sweep = e4_sweep();
    println!("\n=== E4 — persistent-state size sweep: blob vs streamed transfer ===");
    println!("(kvstore sealed state 4 KiB → 64 MiB; streamed = 256 KiB chunks,");
    println!(" window 8, HMAC-chained, resumable; {n} migrations per cell)\n");
    println!(
        "{:<8} {:>22} {:>22} {:>22} {:>12}",
        "state", "blob virt (ms)", "streamed virt (ms)", "streamed wall (ms)", "VM model"
    );
    println!("{}", "-".repeat(92));

    let mut json_sweep = Vec::new();
    let mut phase_rows = Vec::new();
    let mut trace_export = None;
    let mut seed = 0xE4_00u64;
    for &(label, entries, value_len) in sweep {
        let vm_ms = mig_bench::vm_model_ms(u64::from(entries) * u64::from(value_len));
        let mut cells: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut phases: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut transitions = Vec::new();
        for _ in 0..n {
            for (i, config) in [
                mig_bench::sweep_blob_config(),
                mig_bench::sweep_stream_config(),
            ]
            .into_iter()
            .enumerate()
            {
                seed += 1;
                let mut dc = mig_bench::prepared_kv_datacenter(seed, config, entries, value_len);
                let wall_start = std::time::Instant::now();
                let virt = dc.migrate_app("src", "dst").expect("migrate");
                let wall = wall_start.elapsed();
                cells[i].push(virt.as_secs_f64() * 1e3);
                if i == 1 {
                    cells[2].push(wall.as_secs_f64() * 1e3);
                    // Per-phase breakdown and transition count from the
                    // deterministic trace export (streamed arm only).
                    let telemetry = dc.fleet_telemetry().expect("fleet telemetry");
                    let b = mig_bench::stream_phase_breakdown(&telemetry)
                        .expect("streamed migration leaves a Stream-phase trace");
                    phases[0].push(b.announce_ms);
                    phases[1].push(b.stream_ms);
                    phases[2].push(b.stage_ms);
                    phases[3].push(b.release_ms);
                    transitions.push(b.transitions as f64);
                    trace_export = Some(telemetry);
                }
            }
        }
        let fmt = |samples: &[f64]| {
            let s = mig_stats::summarize(samples, 0.99);
            format!("{:>13.3} ± {:>6.3}", s.mean, s.ci_half_width)
        };
        println!(
            "{:<8} {} {} {} {:>9.3}",
            label,
            fmt(&cells[0]),
            fmt(&cells[1]),
            fmt(&cells[2]),
            vm_ms
        );
        let mean = |samples: &[f64]| mig_stats::summarize(samples, 0.99).mean;
        json_sweep.push(format!(
            "    {{\"label\": \"{label}\", \"blob_virt_ms\": {:.4}, \"stream_virt_ms\": {:.4}, \"stream_wall_ms\": {:.4}, \"vm_model_ms\": {:.4}, \"announce_ms\": {:.4}, \"stream_ms\": {:.4}, \"stage_ms\": {:.4}, \"release_ms\": {:.4}, \"transitions_per_migration\": {:.1}}}",
            mean(&cells[0]),
            mean(&cells[1]),
            mean(&cells[2]),
            vm_ms,
            mean(&phases[0]),
            mean(&phases[1]),
            mean(&phases[2]),
            mean(&phases[3]),
            mean(&transitions),
        ));
        phase_rows.push((
            label,
            mean(&phases[0]),
            mean(&phases[1]),
            mean(&phases[2]),
            mean(&phases[3]),
            mean(&transitions),
        ));
    }
    println!(
        "(VM model: cloud_sim::vm::vm_migration_time at the same byte count over the\n datacenter link — the enclave streamed path tracks it at equal state sizes.)"
    );

    // Per-phase breakdown of the streamed arm, from the mig-trace span
    // partition (virtual time — deterministic per seed). The transition
    // column counts the ECALLs/OCALLs attributed to the migration's
    // trace id: 2 × chunks (one destination TRANSFER + one source ACK
    // per chunk).
    println!("\n--- streamed path per-phase breakdown (virtual ms; mean over {n} runs) ---");
    println!(
        "{:<8} {:>12} {:>12} {:>8} {:>12} {:>13}",
        "state", "announce", "stream", "stage", "release", "transitions"
    );
    println!("{}", "-".repeat(70));
    for (label, announce, stream, stage, release, trans) in &phase_rows {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>8.3} {:>12.3} {:>13.1}",
            label, announce, stream, stage, release, trans
        );
    }

    // Delta-vs-full series on the largest swept geometry: dirty 1 %,
    // 10 %, and 50 % of the entries at the destination, then migrate
    // back. Transfer time should scale with the dirty size, not the
    // total state size.
    let &(label, entries, value_len) = sweep.last().expect("sweep is non-empty");
    println!("\n--- delta repeat migration ({label} state, {n} cycles per row) ---");
    println!(
        "{:<8} {:>18} {:>18} {:>14} {:>14}",
        "dirty", "full virt (ms)", "delta virt (ms)", "full MiB", "delta MiB"
    );
    println!("{}", "-".repeat(78));
    let mut json_delta = Vec::new();
    for dirty_percent in [1u32, 10, 50] {
        let dirty_entries = (entries * dirty_percent / 100).max(1);
        let mut full_ms = Vec::new();
        let mut delta_ms = Vec::new();
        let mut full_bytes = 0u64;
        let mut delta_bytes = 0u64;
        for _ in 0..n {
            seed += 1;
            let cell = mig_bench::delta_migration_cycle(seed, entries, value_len, dirty_entries);
            full_ms.push(cell.full_virt_ms);
            delta_ms.push(cell.delta_virt_ms);
            full_bytes = cell.full_bytes;
            delta_bytes = cell.delta_bytes;
        }
        let full = mig_stats::summarize(&full_ms, 0.99);
        let delta = mig_stats::summarize(&delta_ms, 0.99);
        println!(
            "{:<8} {:>10.3} ± {:>4.3} {:>10.3} ± {:>4.3} {:>14.2} {:>14.2}",
            format!("{dirty_percent}%"),
            full.mean,
            full.ci_half_width,
            delta.mean,
            delta.ci_half_width,
            full_bytes as f64 / (1024.0 * 1024.0),
            delta_bytes as f64 / (1024.0 * 1024.0),
        );
        json_delta.push(format!(
            "    {{\"dirty_percent\": {dirty_percent}, \"full_virt_ms\": {:.4}, \"delta_virt_ms\": {:.4}, \"full_bytes\": {full_bytes}, \"delta_bytes\": {delta_bytes}}}",
            full.mean, delta.mean
        ));
    }

    // Concurrency series: k enclaves of the largest swept geometry
    // migrating to one destination at once. The per-nonce multiplexed
    // streams share the link under deficit round-robin, so the total
    // time should grow roughly linearly with k while the completion
    // spread stays a small fraction of the total (no stream starves).
    // No row may beat its link floor: the row's wire bytes at the
    // datacenter link's bandwidth.
    let conc_max: u32 = std::env::var("E4_CONC_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    println!("\n--- concurrent multi-enclave migration ({label} state each, {n} runs per row) ---");
    println!(
        "{:<4} {:>18} {:>18} {:>14} {:>16}",
        "k", "total virt (ms)", "spread (ms)", "wire MiB", "link floor (ms)"
    );
    println!("{}", "-".repeat(77));
    let bandwidth = cloud_sim::network::LinkProfile::datacenter().bandwidth_bytes_per_sec;
    let mut below_floor = Vec::new();
    let mut json_conc = Vec::new();
    for k in [1u32, 2, 4, 8] {
        if k > conc_max {
            break;
        }
        let mut total_ms = Vec::new();
        let mut spread_ms = Vec::new();
        let mut wire_bytes_sum = 0u64;
        for _ in 0..n {
            seed += 1;
            let cell = mig_bench::concurrent_migration_cell(seed, k, entries, value_len);
            total_ms.push(cell.total_virt_ms);
            spread_ms.push(cell.spread_ms);
            wire_bytes_sum += cell.wire_bytes;
        }
        // Mean over the runs, like the latency columns (per-run byte
        // counts vary with the adaptive link's settled geometry).
        let wire_bytes = wire_bytes_sum / n as u64;
        let total = mig_stats::summarize(&total_ms, 0.99);
        let spread = mig_stats::summarize(&spread_ms, 0.99);
        let link_floor_ms = wire_bytes as f64 / bandwidth as f64 * 1e3;
        println!(
            "{:<4} {:>10.3} ± {:>4.3} {:>10.3} ± {:>4.3} {:>14.2} {:>16.3}",
            k,
            total.mean,
            total.ci_half_width,
            spread.mean,
            spread.ci_half_width,
            wire_bytes as f64 / (1024.0 * 1024.0),
            link_floor_ms,
        );
        if total.mean < link_floor_ms {
            below_floor.push(k);
        }
        json_conc.push(format!(
            "    {{\"k\": {k}, \"total_virt_ms\": {:.4}, \"spread_ms\": {:.4}, \"wire_bytes\": {wire_bytes}, \"link_floor_ms\": {link_floor_ms:.4}}}",
            total.mean, spread.mean
        ));
    }

    let json = format!(
        "{{\n  \"sweep\": [\n{}\n  ],\n  \"delta\": [\n{}\n  ],\n  \"concurrency\": [\n{}\n  ]\n}}\n",
        json_sweep.join(",\n"),
        json_delta.join(",\n"),
        json_conc.join(",\n"),
    );
    let path = std::env::var("E4_JSON_PATH").unwrap_or_else(|_| "BENCH_e4.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nmachine-readable results written to {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    // The last streamed sweep cell's full fleet telemetry, exported as
    // the stable sorted TRACE.json (byte-identical for identical seeds
    // and sweep geometry).
    if let Some(telemetry) = trace_export {
        let trace_path =
            std::env::var("TRACE_JSON_PATH").unwrap_or_else(|_| "TRACE.json".to_string());
        match std::fs::write(&trace_path, telemetry.to_json()) {
            Ok(()) => println!("deterministic trace export written to {trace_path}"),
            Err(e) => eprintln!("failed to write {trace_path}: {e}"),
        }
    }

    println!("\nThe streamed path pipelines chunks through the attested channel, so its");
    println!("simulated time tracks the blob path while surviving mid-transfer crashes;");
    println!("the delta rows show repeat-migration cost scaling with the dirty size,");
    println!("not the total state size (tests/streaming_migration.rs asserts the same).");

    if !below_floor.is_empty() {
        eprintln!("\nconcurrency rows k={below_floor:?} finished below their link floor");
        std::process::exit(1);
    }
}

fn ablation() {
    println!("\n=== §VI-B ablation — counter transfer strategy ===");
    println!("(naive: increment a fresh destination counter up to the transferred");
    println!(" value; offset: install the value as a constant-time offset)\n");
    println!(
        "{:<16} {:>18} {:>18} {:>10}",
        "counter value", "fast-forward", "offset design", "ratio"
    );
    println!("{}", "-".repeat(66));
    for value in [1u32, 10, 100, 1_000, 10_000] {
        let (naive, offset) = mig_bench::counter_transfer_ablation(value);
        println!(
            "{:<16} {:>15.1} ms {:>15.1} ms {:>9.0}x",
            value,
            naive.as_secs_f64() * 1e3,
            offset.as_secs_f64() * 1e3,
            naive.as_secs_f64() / offset.as_secs_f64().max(1e-9),
        );
    }
    println!("\npaper: \"this will incur significant performance overhead because");
    println!("monotonic counter operations are usually rate-limited. Instead, our");
    println!("implementation uses a counter offset ... the processing time of a");
    println!("counter during migration is constant, regardless of the counter value.\"");
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    let all = which.is_empty();
    let n = iterations();

    println!("sgx-migrate evaluation harness — reproducing DSN'18 Figs. 3-4 + §VII-B");
    if all || which.iter().any(|w| w == "fig3") {
        fig3(n);
    }
    if all || which.iter().any(|w| w == "fig4") {
        fig4(n);
    }
    if all || which.iter().any(|w| w == "e3") {
        e3(n.min(100));
    }
    if all || which.iter().any(|w| w == "e4") {
        e4(n.clamp(2, 5));
    }
    if all || which.iter().any(|w| w == "ablation") {
        ablation();
    }
}
