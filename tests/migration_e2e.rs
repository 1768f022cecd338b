//! End-to-end migration flows over the full stack: application enclave →
//! Migration Library → local attestation → Migration Enclave → remote
//! attestation + operator authentication → transfer → DONE confirmation.
//!
//! Covers the paper's Fig. 1/Fig. 2 flows: new/restored/migrated starts,
//! counter and sealed-data continuity, store-and-forward delivery,
//! migrate-back (the capability Gu et al.'s persisted flag forecloses,
//! §III-B), retries after policy failures, and multi-enclave machines.

use cloud_sim::machine::MachineLabels;
use mig_apps::kvstore::{self, KvStore};
use mig_apps::kvstore_image;
use mig_core::datacenter::Datacenter;
use mig_core::harness::{AppCtx, AppLogic};
use mig_core::host::AppStatus;
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use parking_lot::Mutex;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::sync::Arc;

/// A minimal counter+seal app used across these tests.
struct CounterApp;

mod counter_ops {
    pub const CREATE: u32 = 1;
    pub const INCREMENT: u32 = 2;
    pub const READ: u32 = 3;
    pub const DESTROY: u32 = 4;
    pub const SEAL: u32 = 5;
    pub const UNSEAL: u32 = 6;
}

impl AppLogic for CounterApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            counter_ops::CREATE => {
                let (id, value) = ctx.lib.create_migratable_counter(ctx.env)?;
                let mut w = WireWriter::new();
                w.u8(id).u32(value);
                Ok(w.finish())
            }
            counter_ops::INCREMENT => {
                let id = input[0];
                Ok(ctx
                    .lib
                    .increment_migratable_counter(ctx.env, id)?
                    .to_le_bytes()
                    .to_vec())
            }
            counter_ops::READ => {
                let id = input[0];
                Ok(ctx
                    .lib
                    .read_migratable_counter(ctx.env, id)?
                    .to_le_bytes()
                    .to_vec())
            }
            counter_ops::DESTROY => {
                ctx.lib.destroy_migratable_counter(ctx.env, input[0])?;
                Ok(vec![])
            }
            counter_ops::SEAL => Ok(ctx.lib.seal_migratable_data(ctx.env, b"e2e", input)?),
            counter_ops::UNSEAL => {
                let (pt, aad) = ctx.lib.unseal_migratable_data(ctx.env, input)?;
                assert_eq!(aad, b"e2e");
                Ok(pt)
            }
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

fn app_image() -> EnclaveImage {
    EnclaveImage::build(
        "e2e-counter-app",
        1,
        b"counter app code",
        &EnclaveSigner::from_seed([11; 32]),
    )
}

fn two_machine_dc(
    seed: u64,
) -> (
    Datacenter,
    sgx_sim::machine::MachineId,
    sgx_sim::machine::MachineId,
) {
    let mut dc = Datacenter::new(seed);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let m2 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    (dc, m1, m2)
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().unwrap())
}

#[test]
fn counters_continue_across_migration() {
    let (mut dc, m1, m2) = two_machine_dc(1);
    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();

    // Create a counter and advance it to 5.
    let out = dc.call_app("src", counter_ops::CREATE, &[]).unwrap();
    let id = out[0];
    for _ in 0..5 {
        dc.call_app("src", counter_ops::INCREMENT, &[id]).unwrap();
    }
    assert_eq!(
        read_u32(&dc.call_app("src", counter_ops::READ, &[id]).unwrap()),
        5
    );

    // Migrate.
    dc.deploy_app("dst", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // The effective value survives; increments continue from it.
    assert_eq!(
        read_u32(&dc.call_app("dst", counter_ops::READ, &[id]).unwrap()),
        5
    );
    assert_eq!(
        read_u32(&dc.call_app("dst", counter_ops::INCREMENT, &[id]).unwrap()),
        6
    );

    // The source is frozen: migratable operations are refused.
    let err = dc.call_app("src", counter_ops::READ, &[id]).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("frozen")),
        "{err:?}"
    );
}

#[test]
fn sealed_data_migrates_as_opaque_bytes() {
    let (mut dc, m1, m2) = two_machine_dc(2);
    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let blob = dc
        .call_app("src", counter_ops::SEAL, b"portable secret")
        .unwrap();

    dc.deploy_app("dst", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // The blob was sealed under the MSK, which travelled with the enclave.
    let pt = dc.call_app("dst", counter_ops::UNSEAL, &blob).unwrap();
    assert_eq!(pt, b"portable secret");
}

#[test]
fn native_sealed_data_does_not_migrate() {
    // Control: the same flow with *native* sealing loses the data — the
    // §II-B limitation that motivates the MSK.
    struct NativeSealApp;
    impl AppLogic for NativeSealApp {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            match opcode {
                1 => Ok(ctx
                    .env
                    .seal_data(sgx_sim::cpu::KeyPolicy::MrEnclave, b"", input)),
                2 => Ok(ctx.env.unseal_data(input)?.0),
                _ => Err(SgxError::InvalidParameter("opcode")),
            }
        }
    }
    let image = EnclaveImage::build(
        "native-seal-app",
        1,
        b"native",
        &EnclaveSigner::from_seed([12; 32]),
    );
    let (mut dc, m1, m2) = two_machine_dc(3);
    dc.deploy_app("src", m1, &image, NativeSealApp, InitRequest::New)
        .unwrap();
    let blob = dc.call_app("src", 1, b"machine-bound secret").unwrap();

    dc.deploy_app("dst", m2, &image, NativeSealApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // The destination cannot unseal: different CPU secret.
    assert_eq!(
        dc.call_app("dst", 2, &blob).unwrap_err(),
        SgxError::MacMismatch
    );
}

#[test]
fn migrate_back_to_source_machine_works() {
    // The capability Gu et al.'s persisted flag forecloses (§III-B):
    // after migrating m1 → m2, the enclave can migrate m2 → m1 again.
    let (mut dc, m1, m2) = two_machine_dc(4);
    dc.deploy_app("gen1", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let out = dc.call_app("gen1", counter_ops::CREATE, &[]).unwrap();
    let id = out[0];
    dc.call_app("gen1", counter_ops::INCREMENT, &[id]).unwrap();

    dc.deploy_app("gen2", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("gen1", "gen2").unwrap();
    dc.call_app("gen2", counter_ops::INCREMENT, &[id]).unwrap(); // now 2

    // Back to m1, as a fresh instance.
    dc.deploy_app("gen3", m1, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("gen2", "gen3").unwrap();
    assert_eq!(
        read_u32(&dc.call_app("gen3", counter_ops::READ, &[id]).unwrap()),
        2
    );
    assert_eq!(
        read_u32(&dc.call_app("gen3", counter_ops::INCREMENT, &[id]).unwrap()),
        3
    );
}

#[test]
fn store_and_forward_when_destination_not_yet_deployed() {
    // §VI-A: "If there is no matching enclave running on the machine for
    // an incoming migration, the migration data will be stored until an
    // enclave with the matching MRENCLAVE value performs a local
    // attestation."
    let (mut dc, m1, m2) = two_machine_dc(5);
    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let out = dc.call_app("src", counter_ops::CREATE, &[]).unwrap();
    let id = out[0];
    dc.call_app("src", counter_ops::INCREMENT, &[id]).unwrap();

    // Start the migration with no destination enclave present.
    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();
    // Source keeps waiting (data is stored at the destination ME).
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);

    // Deploying the matching enclave triggers delivery during attestation.
    dc.deploy_app("dst", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.run();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
    assert_eq!(
        read_u32(&dc.call_app("dst", counter_ops::READ, &[id]).unwrap()),
        1
    );
}

#[test]
fn migration_data_not_delivered_to_different_enclave() {
    // R2/§VI-A: only an enclave with the *same MRENCLAVE* may receive.
    let (mut dc, m1, m2) = two_machine_dc(6);
    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();

    // A different enclave image waits on the destination machine.
    let other_image = EnclaveImage::build(
        "imposter-app",
        1,
        b"different code",
        &EnclaveSigner::from_seed([13; 32]),
    );
    dc.deploy_app(
        "imposter",
        m2,
        &other_image,
        CounterApp,
        InitRequest::Migrate,
    )
    .unwrap();

    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    // The imposter never receives anything; data is parked for the real
    // measurement.
    assert_eq!(
        dc.app("imposter").lock().status(),
        AppStatus::AwaitingIncoming
    );
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);

    // The genuine enclave arriving later gets the data.
    dc.deploy_app("real", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.run();
    assert_eq!(dc.app("real").lock().status(), AppStatus::Ready);
    assert_eq!(dc.app("src").lock().status(), AppStatus::Migrated);
}

#[test]
fn policy_violation_blocks_and_retry_succeeds() {
    let mut dc = Datacenter::new(7);
    let policy = MigrationPolicy::same_datacenter();
    let m1 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy);
    let m2 = dc.add_machine(MachineLabels::new("dc-2", "eu"), &policy); // other DC
    let m3 = dc.add_machine(MachineLabels::new("dc-1", "eu"), &policy); // same DC

    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    dc.deploy_app(
        "bad-dst",
        m2,
        &app_image(),
        CounterApp,
        InitRequest::Migrate,
    )
    .unwrap();

    // Attempt to migrate across datacenters: the source ME must refuse.
    let err = dc.migrate_app("src", "bad-dst").unwrap_err();
    assert!(matches!(err, mig_core::MigError::HostState(_)), "{err:?}");
    let me_errors = dc.me_host(m1).lock().errors.clone();
    assert!(
        me_errors.iter().any(|e| e.contains("policy violation")),
        "expected a policy violation, got {me_errors:?}"
    );
    // The destination never became ready.
    assert_eq!(
        dc.app("bad-dst").lock().status(),
        AppStatus::AwaitingIncoming
    );

    // Fig. 2 error rule: data is retained; select a compliant destination.
    dc.deploy_app(
        "good-dst",
        m3,
        &app_image(),
        CounterApp,
        InitRequest::Migrate,
    )
    .unwrap();
    dc.retry_migration("src", "good-dst").unwrap();
    assert_eq!(dc.app("good-dst").lock().status(), AppStatus::Ready);
}

#[test]
fn two_apps_on_one_machine_migrate_independently() {
    let (mut dc, m1, m2) = two_machine_dc(8);
    dc.deploy_app("a-src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    dc.deploy_app(
        "b-src",
        m1,
        &kvstore_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();

    let out = dc.call_app("a-src", counter_ops::CREATE, &[]).unwrap();
    let id = out[0];
    dc.call_app("a-src", counter_ops::INCREMENT, &[id]).unwrap();

    dc.call_app("b-src", kvstore::ops::INIT, &[]).unwrap();
    dc.call_app("b-src", kvstore::ops::PUT, &kvstore::encode_put(b"k", b"v"))
        .unwrap();

    // Migrate only app A; app B stays operational on m1.
    dc.deploy_app("a-dst", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("a-src", "a-dst").unwrap();

    assert_eq!(
        read_u32(&dc.call_app("a-dst", counter_ops::READ, &[id]).unwrap()),
        1
    );
    let v = dc.call_app("b-src", kvstore::ops::GET, b"k").unwrap();
    assert_eq!(v, b"v");
}

#[test]
fn restart_on_destination_after_migration() {
    // After a migration, the destination's sealed state is a normal
    // Table II blob: restart-with-restore must work there.
    let (mut dc, m1, m2) = two_machine_dc(9);
    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let out = dc.call_app("src", counter_ops::CREATE, &[]).unwrap();
    let id = out[0];
    for _ in 0..3 {
        dc.call_app("src", counter_ops::INCREMENT, &[id]).unwrap();
    }

    dc.deploy_app("dst", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    dc.call_app("dst", counter_ops::INCREMENT, &[id]).unwrap(); // 4

    // Stop and restore on the destination machine.
    dc.restart_app("dst", m2, &app_image(), CounterApp).unwrap();
    assert_eq!(
        read_u32(&dc.call_app("dst", counter_ops::READ, &[id]).unwrap()),
        4
    );
    assert_eq!(
        read_u32(&dc.call_app("dst", counter_ops::INCREMENT, &[id]).unwrap()),
        5
    );
}

#[test]
fn restart_on_same_machine_without_migration() {
    // Fig. 1 "restored enclave": ordinary stop/restart via the sealed
    // Table II blob keeps counters and the MSK.
    let (mut dc, m1, _m2) = two_machine_dc(10);
    dc.deploy_app("app", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let out = dc.call_app("app", counter_ops::CREATE, &[]).unwrap();
    let id = out[0];
    dc.call_app("app", counter_ops::INCREMENT, &[id]).unwrap();
    let blob = dc.call_app("app", counter_ops::SEAL, b"keepme").unwrap();

    dc.restart_app("app", m1, &app_image(), CounterApp).unwrap();
    assert_eq!(
        read_u32(&dc.call_app("app", counter_ops::READ, &[id]).unwrap()),
        1
    );
    // MSK also survived the restart.
    assert_eq!(
        dc.call_app("app", counter_ops::UNSEAL, &blob).unwrap(),
        b"keepme"
    );
}

#[test]
fn migration_requires_me_session() {
    // A library that never attested the ME cannot start a migration.
    let (dc, m1, m2) = two_machine_dc(11);
    // Deploy normally (attestation runs), then check the opposite via a
    // fresh enclave that skips attestation by calling MIG_START directly.
    let machine = dc.world().machine(m1).clone();
    let enclave = machine
        .sgx
        .load_enclave(
            &app_image(),
            Box::new(mig_core::harness::MigratableEnclave::new(CounterApp)),
        )
        .unwrap();
    let init = mig_core::harness::encode_init(&dc.me_mr_enclave(), &InitRequest::New);
    enclave
        .ecall(mig_core::harness::ops::MIG_INIT, &init)
        .unwrap();

    let mut w = WireWriter::new();
    w.u64(m2.0);
    let err = enclave
        .ecall(mig_core::harness::ops::MIG_START, &w.finish())
        .unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("migration enclave")),
        "{err:?}"
    );
}

#[test]
fn destroyed_counters_do_not_migrate() {
    let (mut dc, m1, m2) = two_machine_dc(12);
    dc.deploy_app("src", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let a = dc.call_app("src", counter_ops::CREATE, &[]).unwrap()[0];
    let b = dc.call_app("src", counter_ops::CREATE, &[]).unwrap()[0];
    assert_ne!(a, b);
    dc.call_app("src", counter_ops::INCREMENT, &[a]).unwrap();
    dc.call_app("src", counter_ops::INCREMENT, &[b]).unwrap();
    dc.call_app("src", counter_ops::DESTROY, &[a]).unwrap();

    dc.deploy_app("dst", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // Counter b survived with its value; counter a is gone.
    assert_eq!(
        read_u32(&dc.call_app("dst", counter_ops::READ, &[b]).unwrap()),
        1
    );
    let err = dc.call_app("dst", counter_ops::READ, &[a]).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("unknown")),
        "{err:?}"
    );
}

#[test]
fn library_phase_is_observable() {
    let (mut dc, m1, _m2) = two_machine_dc(13);
    dc.deploy_app("app", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let host = dc.app("app");
    let enclave = host.lock().enclave().clone();
    let out = enclave.ecall(mig_core::harness::ops::PHASE, &[]).unwrap();
    let payload = mig_core::harness::open_envelope(&out).unwrap().payload;
    assert_eq!(payload, vec![1], "operational");
}

#[test]
fn kvstore_full_workflow_across_migration() {
    let (mut dc, m1, m2) = two_machine_dc(14);
    dc.deploy_app(
        "kv-src",
        m1,
        &kvstore_image(),
        KvStore::new(),
        InitRequest::New,
    )
    .unwrap();
    dc.call_app("kv-src", kvstore::ops::INIT, &[]).unwrap();

    for i in 0..5u32 {
        let resp = dc
            .call_app(
                "kv-src",
                kvstore::ops::PUT,
                &kvstore::encode_put(format!("key-{i}").as_bytes(), &i.to_le_bytes()),
            )
            .unwrap();
        let (version, bytes) = kvstore::decode_put_response(&resp).unwrap();
        assert_eq!(version, i + 1);
        assert!(bytes.is_empty(), "a PUT returns no copy of the store");
    }

    dc.deploy_app(
        "kv-dst",
        m2,
        &kvstore_image(),
        KvStore::new(),
        InitRequest::Migrate,
    )
    .unwrap();
    dc.migrate_app("kv-src", "kv-dst").unwrap();

    // Load the migrated container on the destination: the version check
    // passes.
    let container = dc.app_bulk_state("kv-dst").unwrap().expect("migrated");
    dc.call_app("kv-dst", kvstore::ops::LOAD, &container)
        .unwrap();
    assert_eq!(
        dc.call_app("kv-dst", kvstore::ops::GET, b"key-3").unwrap(),
        3u32.to_le_bytes().to_vec()
    );
    assert_eq!(
        read_u32(&dc.call_app("kv-dst", kvstore::ops::LEN, &[]).unwrap()),
        5
    );
}

/// A same-length 4 KiB `PUT` into a 16 × 4 KiB store persists in
/// proportion to its change: the host writes the pages of the index and
/// of the segments the value spans, no Table II blob, and the ECALL
/// envelope holds those pages, not the store.
#[test]
fn kvstore_put_persists_in_proportion_to_its_change() {
    let (mut dc, m1, _m2) = two_machine_dc(15);
    dc.deploy_app("kv", m1, &kvstore_image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("kv", kvstore::ops::INIT, &[]).unwrap();
    dc.call_app(
        "kv",
        kvstore::ops::BULK_PUT,
        &kvstore::encode_bulk_put(16, 4096, 0x21),
    )
    .unwrap();
    let writes: Arc<Mutex<Vec<(String, usize)>>> = Arc::default();
    let log = Arc::clone(&writes);
    dc.world()
        .machine(m1)
        .disk
        .set_fault_hook(move |key: &str, value: &[u8]| {
            log.lock().push((key.to_string(), value.len()));
            cloud_sim::disk::WriteFault::None
        });
    let put = kvstore::encode_put(b"bulk-00000007", &[0x5A; 4096]);
    dc.call_app("kv", kvstore::ops::PUT, &put).unwrap();
    let state_key = dc.app("kv").lock().state_key();
    let writes = std::mem::take(&mut *writes.lock());
    let disk_bytes: usize = writes.iter().map(|(_, len)| len).sum();
    let blobs = writes
        .iter()
        .filter(|(key, _)| key.starts_with(&state_key))
        .count();
    // The envelope of a second such PUT, as the enclave hands it over.
    let enclave = dc.app("kv").lock().enclave().clone();
    let put = kvstore::encode_put(b"bulk-00000009", &[0xA5; 4096]);
    let envelope = enclave.ecall(kvstore::ops::PUT, &put).unwrap().len();
    assert!(disk_bytes <= 6 * 4096, "a PUT wrote {disk_bytes} B to disk");
    assert_eq!(blobs, 0, "a PUT writes no Table II blob");
    assert!(envelope < 32 * 1024, "a PUT's envelope is {envelope} B");
}

/// Deploys "kv" on `m`: a kvstore holding 16 × 4 KiB values.
fn deploy_loaded_kvstore(dc: &mut Datacenter, m: sgx_sim::machine::MachineId) {
    dc.deploy_app("kv", m, &kvstore_image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("kv", kvstore::ops::INIT, &[]).unwrap();
    dc.call_app(
        "kv",
        kvstore::ops::BULK_PUT,
        &kvstore::encode_bulk_put(16, 4096, 0x21),
    )
    .unwrap();
}

/// Makes the first write to a key that `hit` selects meet `fault`, and
/// no other write.
fn fault_once(
    dc: &Datacenter,
    m: sgx_sim::machine::MachineId,
    hit: impl Fn(&str) -> bool + Send + 'static,
    fault: cloud_sim::disk::WriteFault,
) {
    let mut armed = true;
    dc.world()
        .machine(m)
        .disk
        .set_fault_hook(move |key: &str, _value: &[u8]| {
            if armed && hit(key) {
                armed = false;
                fault
            } else {
                cloud_sim::disk::WriteFault::None
            }
        });
}

/// Restarts "kv" from the Table II blob on its disk and loads the store
/// from the host's pages.
fn restart_and_load_kvstore(dc: &mut Datacenter, m: sgx_sim::machine::MachineId) {
    dc.restart_app("kv", m, &kvstore_image(), KvStore::new())
        .unwrap();
    let stored = dc.app_bulk_state("kv").unwrap().expect("the host's pages");
    dc.call_app("kv", kvstore::ops::LOAD, &stored).unwrap();
}

/// A page write that fails or tears during a `PUT` is not left behind
/// the next `PUT`'s few pages: the next call first has the library hand
/// over every page again, so once it returns `Ok` a restarted store
/// loads with both `PUT`s.
#[test]
fn failed_page_write_is_refiled_before_the_next_call_succeeds() {
    use cloud_sim::disk::WriteFault;
    for (seed, fault) in [(41, WriteFault::Fail), (42, WriteFault::Torn { keep: 100 })] {
        let (mut dc, m1, _m2) = two_machine_dc(seed);
        deploy_loaded_kvstore(&mut dc, m1);
        fault_once(&dc, m1, |key| key.starts_with("mig-pages:"), fault);
        let put_a = kvstore::encode_put(b"bulk-00000005", &[0x11; 4096]);
        let err = dc.call_app("kv", kvstore::ops::PUT, &put_a).unwrap_err();
        assert!(err.to_string().contains("page write"), "{err}");
        // A PUT into other segments: its own pages do not cover the lost
        // one.
        let put_b = kvstore::encode_put(b"bulk-00000012", &[0x22; 4096]);
        dc.call_app("kv", kvstore::ops::PUT, &put_b).unwrap();

        restart_and_load_kvstore(&mut dc, m1);
        for (key, byte) in [(&b"bulk-00000005"[..], 0x11), (b"bulk-00000012", 0x22)] {
            assert_eq!(
                dc.call_app("kv", kvstore::ops::GET, key).unwrap(),
                vec![byte; 4096],
                "{fault:?}"
            );
        }
    }
}

/// A Table II write that fails (here: the counter an `INIT` creates) is
/// made good before the next call returns `Ok`, though a `PUT` persists
/// no Table II of its own: a store versioned by that counter restarts
/// and loads.
#[test]
fn failed_table_ii_write_is_refiled_before_the_next_call_succeeds() {
    let (mut dc, m1, _m2) = two_machine_dc(43);
    deploy_loaded_kvstore(&mut dc, m1);
    let state_key = dc.app("kv").lock().state_key();
    fault_once(
        &dc,
        m1,
        move |key| key == state_key,
        cloud_sim::disk::WriteFault::Fail,
    );
    // A new version counter for the store: a Table II change.
    let err = dc.call_app("kv", kvstore::ops::INIT, &[]).unwrap_err();
    assert!(err.to_string().contains("persist write"), "{err}");
    let put = kvstore::encode_put(b"bulk-00000003", &[0x33; 4096]);
    let (version, _) =
        kvstore::decode_put_response(&dc.call_app("kv", kvstore::ops::PUT, &put).unwrap()).unwrap();
    assert_eq!(version, 1, "the PUT counts on the new counter");

    restart_and_load_kvstore(&mut dc, m1);
    assert_eq!(
        dc.call_app("kv", kvstore::ops::GET, b"bulk-00000003")
            .unwrap(),
        vec![0x33; 4096]
    );
}

/// A container that shrinks to a whole number of pages has its old tail
/// dropped before its pages are written: the disk never holds the new
/// pages with a page past them, which a restarted host would count as
/// part of the container.
#[test]
fn shrunk_container_drops_its_tail_before_its_pages_land() {
    let (mut dc, m1, _m2) = two_machine_dc(44);
    dc.deploy_app("kv", m1, &kvstore_image(), KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("kv", kvstore::ops::INIT, &[]).unwrap();
    // An `S`-byte snapshot in `n` segments stages a container of
    // 79 + 85 n + S bytes: 9352 (3 pages) for one 9000-byte value under
    // a 1-byte key, and exactly 2 × 4096 for a 7925-byte one.
    dc.call_app(
        "kv",
        kvstore::ops::PUT,
        &kvstore::encode_put(b"a", &[1; 9000]),
    )
    .unwrap();
    let tail = dc.app("kv").lock().page_key(2);
    let disk = dc.world().machine(m1).disk.clone();
    assert!(disk.len(&tail).is_some());
    let tail_present: Arc<Mutex<Vec<bool>>> = Arc::default();
    let log = Arc::clone(&tail_present);
    let probe = disk.clone();
    disk.set_fault_hook(move |key: &str, _value: &[u8]| {
        if key.starts_with("mig-pages:") {
            log.lock().push(probe.len(&tail).is_some());
        }
        cloud_sim::disk::WriteFault::None
    });
    dc.call_app(
        "kv",
        kvstore::ops::PUT,
        &kvstore::encode_put(b"a", &[2; 7925]),
    )
    .unwrap();
    let staged = dc.app_bulk_state("kv").unwrap().expect("staged");
    assert_eq!(staged.len(), 2 * 4096);
    assert_eq!(*tail_present.lock(), [false, false]);
    disk.clear_fault_hook();

    restart_and_load_kvstore(&mut dc, m1);
    assert_eq!(
        dc.call_app("kv", kvstore::ops::GET, b"a").unwrap(),
        vec![2; 7925]
    );
}

#[test]
fn semi_transparent_vm_migration_moves_enclaves_and_vm() {
    // The paper's §X sketch: the management VM calls migration_start on
    // every enclave of a guest VM, then the VM live-migrates; the guest
    // applications never participate.
    let (mut dc, m1, m2) = two_machine_dc(16);
    dc.deploy_app("app-a", m1, &app_image(), CounterApp, InitRequest::New)
        .unwrap();
    let other_image = EnclaveImage::build(
        "second-tenant",
        1,
        b"code",
        &EnclaveSigner::from_seed([14; 32]),
    );
    dc.deploy_app("app-b", m1, &other_image, CounterApp, InitRequest::New)
        .unwrap();
    let id = dc.call_app("app-a", counter_ops::CREATE, &[]).unwrap()[0];
    dc.call_app("app-a", counter_ops::INCREMENT, &[id]).unwrap();

    let vm = dc.world_mut().create_vm(m1, 1 << 30);
    dc.deploy_app("app-a'", m2, &app_image(), CounterApp, InitRequest::Migrate)
        .unwrap();
    dc.deploy_app("app-b'", m2, &other_image, CounterApp, InitRequest::Migrate)
        .unwrap();

    let (enclave_time, vm_time) = dc
        .migrate_vm_with_enclaves(vm, m2, &[("app-a", "app-a'"), ("app-b", "app-b'")])
        .unwrap();
    assert!(enclave_time < vm_time, "enclave state is the cheap part");
    assert_eq!(dc.world().vm(vm).host, m2);
    assert_eq!(
        read_u32(&dc.call_app("app-a'", counter_ops::READ, &[id]).unwrap()),
        1
    );

    // Destination placement is validated.
    let vm2 = dc.world_mut().create_vm(m2, 1 << 30);
    let err = dc
        .migrate_vm_with_enclaves(vm2, m1, &[("app-a'", "app-b'")])
        .unwrap_err();
    assert!(matches!(err, mig_core::MigError::HostState(_)));
}

#[test]
fn reader_pattern_check_wire_reader_consistency() {
    // Guard against silent envelope format drift: a PUT response always
    // parses with the documented shape.
    let mut w = WireWriter::new();
    w.u32(7).bytes(b"blob");
    let bytes = w.finish();
    let mut r = WireReader::new(&bytes);
    assert_eq!(r.u32().unwrap(), 7);
    assert_eq!(r.bytes().unwrap(), b"blob");
    r.finish().unwrap();
}
