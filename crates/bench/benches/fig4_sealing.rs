//! Criterion bench regenerating Figure 4: library initialization and
//! sealing/unsealing at 100 B and 100 KiB, migratable vs native.
//!
//! ```sh
//! cargo bench -p mig-bench --bench fig4_sealing
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mig_bench::{ops, BenchSetup};
use mig_core::baseline::native::ops as native_ops;
use mig_core::harness::{encode_init, ops as lib_ops};
use mig_core::library::InitRequest;
use mig_core::me::me_image;
use std::time::Duration;

fn bench_init(c: &mut Criterion) {
    let setup = BenchSetup::new(true);
    let me_mr = me_image().mr_enclave();

    let mut group = c.benchmark_group("fig4_init");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function("init_new", |b| {
        let req = encode_init(&me_mr, &InitRequest::New);
        b.iter(|| setup.migratable.ecall(lib_ops::MIG_INIT, &req).unwrap())
    });
    group.bench_function("init_restore", |b| {
        // Fresh state blob with one active counter to restore from.
        let req = encode_init(&me_mr, &InitRequest::New);
        let out = setup.migratable.ecall(lib_ops::MIG_INIT, &req).unwrap();
        mig_core::harness::open_envelope(&out).unwrap();
        let out = setup.migratable.ecall(ops::COUNTER_CREATE, &[]).unwrap();
        let blob = mig_core::harness::open_envelope(&out).unwrap().persist;
        let blob = blob.expect("persisted").to_vec();
        let req = encode_init(&me_mr, &InitRequest::Restore { blob });
        b.iter(|| setup.migratable.ecall(lib_ops::MIG_INIT, &req).unwrap())
    });
    group.finish();
}

fn bench_sealing(c: &mut Criterion) {
    let setup = BenchSetup::new(true);
    // (Re)initialize after the init benches reset the library.
    let req = encode_init(&me_image().mr_enclave(), &InitRequest::New);
    setup.migratable.ecall(lib_ops::MIG_INIT, &req).unwrap();

    let mut group = c.benchmark_group("fig4_sealing");
    group
        .sample_size(50)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for (label, size) in [("100B", 100usize), ("100kB", 100 * 1024)] {
        let payload = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("baseline/seal_{label}"), |b| {
            b.iter(|| setup.call_baseline(native_ops::SEAL, &payload))
        });
        group.bench_function(format!("migratable/seal_{label}"), |b| {
            b.iter(|| setup.call_migratable(ops::SEAL, &payload))
        });

        let blob_base = setup.call_baseline(native_ops::SEAL, &payload);
        let blob_mig = setup.call_migratable(ops::SEAL, &payload);
        group.bench_function(format!("baseline/unseal_{label}"), |b| {
            b.iter(|| setup.call_baseline(native_ops::UNSEAL, &blob_base))
        });
        group.bench_function(format!("migratable/unseal_{label}"), |b| {
            b.iter(|| setup.call_migratable(ops::UNSEAL, &blob_mig))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_init, bench_sealing);
criterion_main!(benches);
