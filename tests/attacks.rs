//! Reproduction of the paper's §III attacks.
//!
//! Each attack runs twice:
//!
//! 1. against the **baseline** — persistent state protected à la
//!    Teechan/TrInX (portable KDC key + hardware monotonic counter) but
//!    migrated with a mechanism that ignores persistent state (the
//!    Gu-et-al-style memory migration of `mig_core::baseline`) — where it
//!    **succeeds**, confirming the vulnerability;
//! 2. against **this paper's framework**, where it is **blocked**, and
//!    the blocking mechanism is asserted precisely (frozen flag, stale
//!    counter detection, version mismatch).
//!
//! The §III-B Gu freeze-flag dichotomy is also reproduced: the
//! non-persisted flag admits the fork; the persisted flag prevents it but
//! forecloses ever migrating back.

use cloud_sim::machine::MachineLabels;
use mig_core::baseline::gu::FreezeFlag;
use mig_core::baseline::victim::{ops as vops, PortableVictim};
use mig_core::datacenter::Datacenter;
use mig_core::harness::{AppCtx, AppLogic};
use mig_core::library::InitRequest;
use mig_core::policy::MigrationPolicy;
use mig_core::remote_attest::{RaHello, RaResponseQuote};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgx_sim::enclave::EnclaveHandle;
use sgx_sim::ias::AttestationService;
use sgx_sim::machine::{MachineId, SgxMachine};
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

fn victim_image() -> EnclaveImage {
    EnclaveImage::build(
        "attack-victim",
        1,
        b"teechan-style victim",
        &EnclaveSigner::from_seed([21; 32]),
    )
}

/// Baseline world: two bare machines + IAS, no migration framework.
struct BaselineWorld {
    ias: AttestationService,
    m1: SgxMachine,
    m2: SgxMachine,
    kdc_key: [u8; 16],
}

fn baseline_world(seed: u64) -> BaselineWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let ias = AttestationService::new(&mut rng);
    let m1 = SgxMachine::new(MachineId(1), &ias, &mut rng);
    let m2 = SgxMachine::new(MachineId(2), &ias, &mut rng);
    BaselineWorld {
        ias,
        m1,
        m2,
        kdc_key: [0xD1; 16],
    }
}

fn load_victim(w: &BaselineWorld, machine: &SgxMachine, variant: FreezeFlag) -> EnclaveHandle {
    let enclave = machine
        .load_enclave(&victim_image(), Box::new(PortableVictim::new(variant)))
        .unwrap();
    let mut req = WireWriter::new();
    req.array(&w.kdc_key).array(&w.ias.verifying_key().0);
    enclave.ecall(vops::PROVISION, &req.finish()).unwrap();
    enclave
}

/// Runs the Gu-style memory migration from `src` to `dst` (the untrusted
/// relay does the IAS conversions). Returns the sealed freeze flag if the
/// source uses the persisted variant.
fn gu_migrate(w: &BaselineWorld, src: &EnclaveHandle, dst: &EnclaveHandle) -> Option<Vec<u8>> {
    let hello_bytes = src.ecall(vops::GU_BEGIN_EXPORT, &[]).unwrap();
    let hello = RaHello::from_bytes(&hello_bytes).unwrap();
    let evidence_i = w.ias.verify_quote(&hello.quote).unwrap().to_bytes();

    let mut req = WireWriter::new();
    req.array(&hello.g_i.0).bytes(&evidence_i);
    let response_bytes = dst.ecall(vops::GU_BEGIN_IMPORT, &req.finish()).unwrap();
    let response = RaResponseQuote::from_bytes(&response_bytes).unwrap();
    let evidence_r = w.ias.verify_quote(&response.quote).unwrap().to_bytes();

    let mut req = WireWriter::new();
    req.array(&response.g_r.0).bytes(&evidence_r);
    let out = src.ecall(vops::GU_EXPORT, &req.finish()).unwrap();
    let mut r = WireReader::new(&out);
    let memory_ct = r.bytes_vec().unwrap();
    let sealed_flag = match r.u8().unwrap() {
        1 => Some(r.bytes_vec().unwrap()),
        _ => None,
    };
    r.finish().unwrap();

    dst.ecall(vops::GU_IMPORT, &memory_ct).unwrap();
    sealed_flag
}

// =======================================================================
// §III-B — Fork attack
// =======================================================================

#[test]
fn fork_attack_succeeds_against_baseline_migration() {
    let w = baseline_world(101);

    // Step 1 (start-stop-restart): the enclave persists its state with a
    // fresh counter (c = v = 1) and restarts from it on m1.
    let src = load_victim(&w, &w.m1, FreezeFlag::InMemory);
    src.ecall(vops::SET_DATA, b"channel-state-genesis").unwrap();
    let package_v1 = src.ecall(vops::PERSIST, &[]).unwrap();
    src.ecall(vops::RESTORE, &package_v1).unwrap(); // accepted: c == v == 1

    // Step 2 (migrate): memory moves to m2; persistent state does not.
    let dst = load_victim(&w, &w.m2, FreezeFlag::InMemory);
    gu_migrate(&w, &src, &dst);
    assert_eq!(
        dst.ecall(vops::GET_DATA, &[]).unwrap(),
        b"channel-state-genesis"
    );
    // The copy on m2 operates and persists with its own fresh counter c'.
    dst.ecall(vops::SET_DATA, b"channel-state-after-payments")
        .unwrap();
    dst.ecall(vops::PERSIST, &[]).unwrap();

    // Step 3 (terminate-restart on the SOURCE): the in-memory freeze flag
    // dies with the process...
    src.destroy();
    let resurrected = load_victim(&w, &w.m1, FreezeFlag::InMemory);
    assert_eq!(resurrected.ecall(vops::IS_FROZEN, &[]).unwrap(), vec![0]);
    // ...its counter (c = 1) still exists on m1; a first persist binds a
    // fresh instance... the adversary instead replays the old package.
    // Recreate the counter state by persisting once (c continues at 1
    // only for the original instance; the resurrected instance creates
    // its own) — the key point: the OLD package still validates against
    // a counter with value 1.
    resurrected.ecall(vops::SET_DATA, b"x").unwrap();
    let _ = resurrected.ecall(vops::PERSIST, &[]).unwrap(); // its c = 1
    resurrected.ecall(vops::RESTORE, &package_v1).unwrap(); // v = 1 == c = 1 ✓

    // FORK: two live enclaves with inconsistent state.
    assert_eq!(
        resurrected.ecall(vops::GET_DATA, &[]).unwrap(),
        b"channel-state-genesis"
    );
    assert_eq!(
        dst.ecall(vops::GET_DATA, &[]).unwrap(),
        b"channel-state-after-payments"
    );
}

#[test]
fn fork_attack_blocked_by_migration_framework() {
    // The same workflow over this paper's framework: after migration the
    // source's counters are destroyed and its blob is frozen, so any
    // resurrection attempt fails loudly.
    struct Victim;
    impl AppLogic for Victim {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            match opcode {
                1 => {
                    let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                    Ok(vec![id])
                }
                2 => Ok(ctx
                    .lib
                    .increment_migratable_counter(ctx.env, input[0])?
                    .to_le_bytes()
                    .to_vec()),
                3 => Ok(ctx.lib.seal_migratable_data(ctx.env, b"", input)?),
                _ => Err(SgxError::InvalidParameter("opcode")),
            }
        }
    }
    let image = EnclaveImage::build("fw-victim", 1, b"code", &EnclaveSigner::from_seed([22; 32]));

    let mut dc = Datacenter::new(102);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let m2 = dc.add_machine(MachineLabels::default(), &policy);

    dc.deploy_app("src", m1, &image, Victim, InitRequest::New)
        .unwrap();
    let id = dc.call_app("src", 1, &[]).unwrap()[0];
    dc.call_app("src", 2, &[id]).unwrap();

    // Adversary snapshots the disk (pre-migration blob, frozen = 0).
    let pre_migration_disk = dc.world().machine(m1).disk.snapshot();

    dc.deploy_app("dst", m2, &image, Victim, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();
    dc.call_app("dst", 2, &[id]).unwrap(); // destination operates

    // Attack 3a: restart the source from the POST-migration blob.
    let err = dc.restart_app("src", m1, &image, Victim).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("frozen")),
        "post-migration blob must be frozen: {err:?}"
    );

    // Attack 3b: restart from the PRE-migration blob (frozen = 0). The
    // hardware counters were destroyed before the data left the machine
    // (§V-C), so the library detects stale state.
    dc.world().machine(m1).disk.restore(&pre_migration_disk);
    let err = dc.restart_app("src", m1, &image, Victim).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("stale")),
        "pre-migration blob must be stale: {err:?}"
    );
}

// =======================================================================
// §III-B — Gu freeze-flag dichotomy
// =======================================================================

#[test]
fn gu_persisted_flag_prevents_fork_but_forecloses_migrate_back() {
    let w = baseline_world(103);

    // Persisted-flag variant: export seals the flag to disk.
    let src = load_victim(&w, &w.m1, FreezeFlag::Persisted);
    src.ecall(vops::SET_DATA, b"state").unwrap();
    let dst = load_victim(&w, &w.m2, FreezeFlag::Persisted);
    let sealed_flag = gu_migrate(&w, &src, &dst).expect("persisted variant seals the flag");

    // Fork attempt: restart the source and hand it the sealed flag (an
    // honest host does; the flag is on its disk).
    src.destroy();
    let resurrected = load_victim(&w, &w.m1, FreezeFlag::Persisted);
    resurrected
        .ecall(vops::GU_RESTORE_FLAG, &sealed_flag)
        .unwrap();
    assert_eq!(resurrected.ecall(vops::IS_FROZEN, &[]).unwrap(), vec![1]);
    let err = resurrected.ecall(vops::SET_DATA, b"fork").unwrap_err();
    assert!(matches!(err, SgxError::Enclave(ref m) if m.contains("frozen")));

    // Migrate-back attempt: m2 → m1. The returning instance on m1 is the
    // same enclave identity, so the honest host must feed it the sealed
    // flag — and it freezes. A legitimate return is indistinguishable
    // from a fork: "this would prevent the same enclave from ever being
    // migrated back to the source machine" (§III-B).
    let returning = load_victim(&w, &w.m1, FreezeFlag::Persisted);
    returning
        .ecall(vops::GU_RESTORE_FLAG, &sealed_flag)
        .unwrap();
    let response = returning.ecall(vops::GU_BEGIN_EXPORT, &[]);
    // The returning instance CAN handshake, but it is frozen for all
    // operational purposes:
    let _ = response;
    assert_eq!(returning.ecall(vops::IS_FROZEN, &[]).unwrap(), vec![1]);
    assert!(returning.ecall(vops::SET_DATA, b"resume").is_err());
}

#[test]
fn gu_in_memory_flag_is_cleared_by_restart() {
    let w = baseline_world(104);
    let src = load_victim(&w, &w.m1, FreezeFlag::InMemory);
    src.ecall(vops::SET_DATA, b"state").unwrap();
    let dst = load_victim(&w, &w.m2, FreezeFlag::InMemory);
    assert!(gu_migrate(&w, &src, &dst).is_none(), "no sealed flag");

    // The live source instance is frozen...
    assert_eq!(src.ecall(vops::IS_FROZEN, &[]).unwrap(), vec![1]);
    assert!(src.ecall(vops::SET_DATA, b"x").is_err());

    // ...but a restart clears the flag entirely: the fork door is open.
    src.destroy();
    let resurrected = load_victim(&w, &w.m1, FreezeFlag::InMemory);
    assert_eq!(resurrected.ecall(vops::IS_FROZEN, &[]).unwrap(), vec![0]);
    resurrected.ecall(vops::SET_DATA, b"forked").unwrap();
}

// =======================================================================
// §III-C — Roll-back attack
// =======================================================================

#[test]
fn rollback_attack_succeeds_against_baseline_migration() {
    let w = baseline_world(105);

    // Step 1 (start-stop-restart): persist v = 1 on m1.
    let src = load_victim(&w, &w.m1, FreezeFlag::InMemory);
    src.ecall(vops::SET_DATA, b"balance=1000").unwrap();
    let package_v1 = src.ecall(vops::PERSIST, &[]).unwrap();

    // Step 2 (continue): more activity on m1 (v = 2, 3).
    src.ecall(vops::SET_DATA, b"balance=500").unwrap();
    src.ecall(vops::PERSIST, &[]).unwrap();
    src.ecall(vops::SET_DATA, b"balance=0").unwrap();
    let package_v3 = src.ecall(vops::PERSIST, &[]).unwrap();

    // Step 3 (migrate): memory moves to m2.
    let dst = load_victim(&w, &w.m2, FreezeFlag::InMemory);
    gu_migrate(&w, &src, &dst);

    // Step 4 (terminate): the enclave persists once on m2; since no
    // counter exists there yet, a fresh one is created (c' = 1).
    dst.ecall(vops::PERSIST, &[]).unwrap();

    // Step 5 (restart with the v = 1 package): ACCEPTED, because
    // c' = v = 1. The enclave's state is rolled back three versions.
    dst.ecall(vops::RESTORE, &package_v1).unwrap();
    assert_eq!(dst.ecall(vops::GET_DATA, &[]).unwrap(), b"balance=1000");

    // Control: the *current* package v = 3 is now REJECTED on m2 — the
    // adversary has inverted freshness.
    let err = dst.ecall(vops::RESTORE, &package_v3).unwrap_err();
    assert!(matches!(err, SgxError::Enclave(ref m) if m.contains("version mismatch")));
}

#[test]
fn rollback_attack_blocked_by_migration_framework() {
    // Same discipline over migratable counters: the counter's effective
    // value travels with the enclave, so old packages stay old.
    struct Vault;
    impl AppLogic for Vault {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            match opcode {
                1 => {
                    let (id, _) = ctx.lib.create_migratable_counter(ctx.env)?;
                    Ok(vec![id])
                }
                // persist: increment counter, seal {version, data}
                2 => {
                    let id = input[0];
                    let data = &input[1..];
                    let version = ctx.lib.increment_migratable_counter(ctx.env, id)?;
                    let mut body = WireWriter::new();
                    body.u32(version).bytes(data);
                    Ok(ctx
                        .lib
                        .seal_migratable_data(ctx.env, b"vault", &body.finish())?)
                }
                // restore: unseal, check version
                3 => {
                    let id = input[0];
                    let blob = &input[1..];
                    let (body, aad) = ctx.lib.unseal_migratable_data(ctx.env, blob)?;
                    if aad != b"vault" {
                        return Err(SgxError::Decode);
                    }
                    let mut r = WireReader::new(&body);
                    let version = r.u32()?;
                    let data = r.bytes_vec()?;
                    r.finish()?;
                    let current = ctx.lib.read_migratable_counter(ctx.env, id)?;
                    if version != current {
                        return Err(SgxError::Enclave(format!(
                            "rollback detected: {version} != {current}"
                        )));
                    }
                    Ok(data)
                }
                _ => Err(SgxError::InvalidParameter("opcode")),
            }
        }
    }
    let image = EnclaveImage::build("vault", 1, b"vault", &EnclaveSigner::from_seed([23; 32]));

    let mut dc = Datacenter::new(106);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let m2 = dc.add_machine(MachineLabels::default(), &policy);

    dc.deploy_app("src", m1, &image, Vault, InitRequest::New)
        .unwrap();
    let id = dc.call_app("src", 1, &[]).unwrap()[0];

    let persist = |dc: &mut Datacenter, instance: &str, data: &[u8]| {
        let mut input = vec![id];
        input.extend_from_slice(data);
        dc.call_app(instance, 2, &input).unwrap()
    };

    let package_v1 = persist(&mut dc, "src", b"balance=1000");
    let _v2 = persist(&mut dc, "src", b"balance=500");
    let package_v3 = persist(&mut dc, "src", b"balance=0");

    dc.deploy_app("dst", m2, &image, Vault, InitRequest::Migrate)
        .unwrap();
    dc.migrate_app("src", "dst").unwrap();

    // The migrated counter's effective value is 3: the stale v = 1
    // package is rejected on the destination...
    let mut input = vec![id];
    input.extend_from_slice(&package_v1);
    let err = dc.call_app("dst", 3, &input).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref m) if m.contains("rollback detected")),
        "{err:?}"
    );

    // ...while the fresh v = 3 package is accepted.
    let mut input = vec![id];
    input.extend_from_slice(&package_v3);
    assert_eq!(dc.call_app("dst", 3, &input).unwrap(), b"balance=0");
}

// =======================================================================
// Controlled migration (R2): rogue operators
// =======================================================================

#[test]
fn migration_to_foreign_operator_machine_rejected() {
    // A machine whose ME is credentialed by a DIFFERENT operator (e.g.
    // the adversary's own datacenter) must be rejected during the
    // operator-authentication step, even though its ME runs the genuine
    // ME image on genuine hardware.
    use mig_core::host::{MeHost, ME_SERVICE};
    use mig_core::me::{me_image, ops as me_ops, MigrationEnclave};
    use mig_core::operator::CloudOperator;
    use mig_crypto::ed25519::VerifyingKey;
    use parking_lot::Mutex;
    use std::sync::Arc;

    struct Dummy;
    impl AppLogic for Dummy {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            _opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Ok(ctx.lib.seal_migratable_data(ctx.env, b"", input)?)
        }
    }
    let image = EnclaveImage::build("r2-app", 1, b"code", &EnclaveSigner::from_seed([24; 32]));

    let mut dc = Datacenter::new(107);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    // m2 is physically in the same world, but its ME is provisioned by a
    // rogue operator.
    let m2 = dc.world_mut().add_machine(MachineLabels::default());
    {
        let machine = dc.world().machine(m2).clone();
        let enclave = machine
            .sgx
            .load_enclave(&me_image(), Box::new(MigrationEnclave::new()))
            .unwrap();
        let pubkey = enclave.ecall(me_ops::KEYGEN, &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(666);
        let rogue = CloudOperator::new(&mut rng);
        let cred = rogue.issue_credential(
            VerifyingKey(pubkey.try_into().unwrap()),
            m2,
            &MachineLabels::default(),
        );
        let mut w = WireWriter::new();
        w.bytes(&cred.to_bytes());
        w.array(&rogue.root_key().0);
        let ias_vk = dc.world().ias().verifying_key();
        w.array(&ias_vk.0);
        w.bytes(&MigrationPolicy::same_operator_only().to_bytes());
        mig_core::transfer::TransferConfig::default().encode(&mut w);
        enclave.ecall(me_ops::PROVISION, &w.finish()).unwrap();

        let endpoint = cloud_sim::network::Endpoint::new(m2, ME_SERVICE);
        let host = Arc::new(Mutex::new(MeHost::new(
            endpoint.clone(),
            enclave,
            dc.world().ias().clone(),
            dc.world().clock(),
        )));
        dc.world_mut().register_service(endpoint, host);
    }

    dc.deploy_app("src", m1, &image, Dummy, InitRequest::New)
        .unwrap();
    {
        let src = dc.app("src");
        let mut src = src.lock();
        src.migrate_to(dc.world_mut().network_mut(), m2).unwrap();
    }
    dc.run();

    // The source ME must have rejected the rogue credential; the app
    // never completes its migration.
    let me_errors = dc.me_host(m1).lock().errors.clone();
    assert!(
        me_errors
            .iter()
            .any(|e| e.contains("operator credential") || e.contains("peer authentication")),
        "expected credential rejection, got {me_errors:?}"
    );
    use mig_core::host::AppStatus;
    assert_eq!(dc.app("src").lock().status(), AppStatus::MigratingOut);
}

// =======================================================================
// MITM on the migration path
// =======================================================================

#[test]
fn tampered_transfer_is_detected_and_replay_rejected() {
    use cloud_sim::network::{Envelope, TapAction};

    struct Dummy;
    impl AppLogic for Dummy {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            _opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Ok(ctx.lib.seal_migratable_data(ctx.env, b"", input)?)
        }
    }
    let image = EnclaveImage::build("mitm-app", 1, b"code", &EnclaveSigner::from_seed([25; 32]));

    let mut dc = Datacenter::new(108);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let m2 = dc.add_machine(MachineLabels::default(), &policy);

    dc.deploy_app("src", m1, &image, Dummy, InitRequest::New)
        .unwrap();
    dc.deploy_app("dst", m2, &image, Dummy, InitRequest::Migrate)
        .unwrap();

    // The adversary flips one byte of every cross-machine message body.
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(|e: &Envelope| {
            if e.from.machine != e.to.machine && !e.payload.is_empty() {
                let mut p = e.payload.clone();
                let last = p.len() - 1;
                p[last] ^= 0x01;
                TapAction::Replace(p)
            } else {
                TapAction::Deliver
            }
        }));

    let result = dc.migrate_app("src", "dst");
    assert!(result.is_err(), "tampered migration must not complete");
    // Errors were detected by MAC checks somewhere along the path.
    let src_errors = dc.me_host(m1).lock().errors.clone();
    let dst_errors = dc.me_host(m2).lock().errors.clone();
    assert!(
        !src_errors.is_empty() || !dst_errors.is_empty(),
        "some ME must report a failure"
    );
    // The destination never became ready.
    use mig_core::host::AppStatus;
    assert_eq!(dc.app("dst").lock().status(), AppStatus::AwaitingIncoming);
}

#[test]
fn recorded_protocol_messages_cannot_be_replayed() {
    use cloud_sim::network::Envelope;

    struct Dummy;
    impl AppLogic for Dummy {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            _opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Ok(ctx.lib.seal_migratable_data(ctx.env, b"", input)?)
        }
    }
    let image = EnclaveImage::build(
        "replay-app",
        1,
        b"code",
        &EnclaveSigner::from_seed([26; 32]),
    );

    let mut dc = Datacenter::new(109);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let m2 = dc.add_machine(MachineLabels::default(), &policy);

    dc.deploy_app("src", m1, &image, Dummy, InitRequest::New)
        .unwrap();
    dc.deploy_app("dst", m2, &image, Dummy, InitRequest::Migrate)
        .unwrap();

    // Record everything during a legitimate migration.
    dc.world_mut().network_mut().start_recording();
    dc.migrate_app("src", "dst").unwrap();
    let log = dc.world_mut().network_mut().stop_recording();
    assert!(!log.is_empty());

    let dst_errors_before = dc.me_host(m2).lock().errors.len();
    // Replay every cross-machine message at the destination ME.
    let replays: Vec<Envelope> = log
        .iter()
        .filter(|e| e.from.machine != e.to.machine)
        .cloned()
        .collect();
    assert!(!replays.is_empty());
    for envelope in replays {
        dc.world_mut().network_mut().inject(envelope);
    }
    dc.run();

    // Every replay must have failed (channel sequence numbers) — and the
    // destination's state must be unaffected (still exactly one app,
    // Ready, with its data intact).
    let dst_errors_after = dc.me_host(m2).lock().errors.len();
    assert!(
        dst_errors_after > dst_errors_before,
        "replays must surface as errors"
    );
    use mig_core::host::AppStatus;
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);
}

// ---------------------------------------------------------------------
// Streaming state transfer: chunk replay / reorder / splice attacks
// ---------------------------------------------------------------------

/// A recorded chunk of a streamed state transfer cannot be replayed into
/// the destination (per-session channel sequencing), a delivery gap the
/// adversary forces is detected and survived via resume, and the chunk
/// HMAC chain + per-transfer nonce reject reordering and cross-transfer
/// splicing even below the channel layer. A frame cut short with its
/// length rewritten fails authentication and stalls the stream until
/// the resume.
#[test]
fn chunk_replay_and_reorder_attacks_blocked() {
    use cloud_sim::network::{Envelope, TapAction};
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
    use mig_core::datacenter::ResumableOutcome;
    use mig_core::host::AppStatus;
    use mig_core::transfer::TransferConfig;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    let image = EnclaveImage::build("chunk-kv", 1, b"kv", &EnclaveSigner::from_seed([27; 32]));
    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 64 * 1024,
        window: 4,
        ..TransferConfig::default()
    };
    let mut dc = Datacenter::new(110);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);

    // Adversary capabilities: drop a mid-stream chunk on demand, forcing
    // the remaining in-flight chunks to arrive out of order, or cut the
    // frame numbered `cut_at` short.
    let dropping = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(AtomicUsize::new(0));
    let cut_at = Arc::new(AtomicUsize::new(usize::MAX));
    let tap_dropping = Arc::clone(&dropping);
    let tap_seen = Arc::clone(&seen);
    let tap_cut_at = Arc::clone(&cut_at);
    dc.world_mut()
        .network_mut()
        .add_tap(Box::new(move |e: &Envelope| {
            if e.from.machine == MachineId(1)
                && e.to.machine == MachineId(2)
                && e.from.service == "me"
                && !e.payload.is_empty()
                && e.payload[0] == mig_core::host::tags::RA_TRANSFER
            {
                let n = tap_seen.fetch_add(1, Ordering::SeqCst);
                // Swallow exactly one mid-stream frame (the 4th).
                if tap_dropping.load(Ordering::SeqCst) && n == 3 {
                    tap_dropping.store(false, Ordering::SeqCst);
                    return TapAction::Drop;
                }
                if n == tap_cut_at.load(Ordering::SeqCst) {
                    // Cut the sealed message short and rewrite the
                    // frame's length word to match: the frame stays
                    // well-formed, so it reaches the destination ME.
                    let mut payload = e.payload.clone();
                    payload.truncate(payload.len() - 7);
                    let len = u32::try_from(payload.len() - 5).unwrap();
                    payload[1..5].copy_from_slice(&len.to_le_bytes());
                    return TapAction::Replace(payload);
                }
            }
            TapAction::Deliver
        }));

    // A ~1 MiB store → 17 chunks at 64 KiB.
    dc.deploy_app("src", m1, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(256, 4096, 0x33),
    )
    .unwrap();
    dc.deploy_app("dst", m2, &image, KvStore::new(), InitRequest::Migrate)
        .unwrap();

    // (1) Reorder-by-loss: one chunk vanishes mid-window, so the chunks
    // behind it arrive out of order. The channel sequencing rejects
    // them all (fail-safe: nothing out-of-order is ever installed), the
    // transfer stalls, and the operator-driven resume repairs it from
    // the last acknowledged chunk.
    dropping.store(true, Ordering::SeqCst);
    dc.world_mut().network_mut().start_recording();
    let outcome = dc.migrate_app_resumable("src", "dst").unwrap();
    let log = dc.world_mut().network_mut().stop_recording();
    assert!(
        matches!(outcome, ResumableOutcome::Stalled { .. }),
        "forced gap must stall, not corrupt: {outcome:?}"
    );
    let gap_errors = dc.me_host(m2).lock().errors.len();
    assert!(
        gap_errors > 0,
        "out-of-order chunks surface as channel errors"
    );

    dc.resume_migration("src", "dst").unwrap();
    assert_eq!(dc.app("dst").lock().status(), AppStatus::Ready);

    // (2) Replay: re-inject every recorded source→destination transfer
    // frame (ChunkStart + chunks). Every single one must be rejected —
    // the channel nonces moved on — and the migrated store must remain
    // exactly as delivered.
    let errors_before = dc.me_host(m2).lock().errors.len();
    let replays: Vec<Envelope> = log
        .iter()
        .filter(|e| {
            e.from.machine == m1
                && e.to.machine == m2
                && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
        })
        .cloned()
        .collect();
    assert!(replays.len() >= 4, "captured stream frames to replay");
    let n_replays = replays.len();
    for envelope in replays {
        dc.world_mut().network_mut().inject(envelope);
    }
    dc.run();
    let errors_after = dc.me_host(m2).lock().errors.len();
    assert_eq!(
        errors_after - errors_before,
        n_replays,
        "every replayed stream frame must be rejected"
    );

    // Destination state is untouched by the attack traffic.
    let state = dc.app_bulk_state("dst").unwrap().expect("migrated state");
    dc.call_app("dst", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("dst", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 256);

    // (3) Defense in depth, below the channel: the HMAC chain itself
    // rejects reordering and the per-transfer nonce rejects splicing a
    // chunk from one transfer into another at the same index.
    use mig_core::transfer::chunker::{ChunkAssembler, ChunkStream};
    let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
    let xfer_a = ChunkStream::new([0xA1; 16], 4096, payload.clone());
    let xfer_b = ChunkStream::new([0xB2; 16], 4096, payload);
    let mut asm =
        ChunkAssembler::new([0xA1; 16], 4096, xfer_a.total_len(), xfer_a.digest()).unwrap();
    let (a0, a0_mac) = xfer_a.chunk(0);
    let (a1, a1_mac) = xfer_a.chunk(1);
    let (b0, b0_mac) = xfer_b.chunk(0);
    // Reorder: chunk 1 ahead of chunk 0.
    assert!(asm.accept(1, a1, &a1_mac).is_err());
    // Splice: transfer B's chunk at transfer A's position 0.
    assert!(asm.accept(0, b0, &b0_mac).is_err());
    // The genuine sequence still verifies afterwards.
    asm.accept(0, a0, &a0_mac).unwrap();
    asm.accept(1, a1, &a1_mac).unwrap();

    // (4) Length corruption: the third chunk frame of a second store's
    // transfer is cut short with its length word rewritten. The
    // truncated message fails authentication without consuming the
    // channel's receive sequence number, so every frame behind it fails
    // authentication too — none is taken for the next chunk, which would
    // surface as an out-of-order chunk — and the stream stalls until the
    // resume completes it.
    let image2 = EnclaveImage::build("chunk-kv-2", 1, b"kv", &EnclaveSigner::from_seed([28; 32]));
    dc.deploy_app("src2", m1, &image2, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("src2", kv_ops::INIT, &[]).unwrap();
    dc.call_app(
        "src2",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(256, 4096, 0x44),
    )
    .unwrap();
    dc.deploy_app("dst2", m2, &image2, KvStore::new(), InitRequest::Migrate)
        .unwrap();
    let errors_before = dc.me_host(m2).lock().errors.len();
    // The announcement, then chunks 0, 1 and 2.
    cut_at.store(seen.load(Ordering::SeqCst) + 3, Ordering::SeqCst);
    let outcome = dc.migrate_app_resumable("src2", "dst2").unwrap();
    let ResumableOutcome::Stalled { progress } = outcome else {
        panic!("a length-corrupted frame must stall, not corrupt: {outcome:?}");
    };
    assert_eq!(
        progress.map(|(acked, _)| acked),
        Some(2),
        "exactly the chunks ahead of the cut frame are acknowledged"
    );
    let errors = dc.me_host(m2).lock().errors[errors_before..].to_vec();
    assert!(
        !errors.is_empty()
            && errors
                .iter()
                .all(|e| e.starts_with("ra transfer:") && e.contains("MAC mismatch")),
        "the cut frame and the frames behind it fail authentication: {errors:?}"
    );
    dc.resume_migration("src2", "dst2").unwrap();
    assert_eq!(dc.app("dst2").lock().status(), AppStatus::Ready);
    let state = dc.app_bulk_state("dst2").unwrap().expect("migrated state");
    dc.call_app("dst2", kv_ops::LOAD, &state).unwrap();
    let len = dc.call_app("dst2", kv_ops::LEN, &[]).unwrap();
    assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), 256);
}

// ---------------------------------------------------------------------
// Concurrent multiplexed streams: cross-stream splice / ack replay
// ---------------------------------------------------------------------

/// Splicing a valid `Chunk` frame from stream A into stream B — at any
/// layer — is rejected and quarantines only the affected stream.
///
/// Below the channel, the per-nonce HMAC chain rejects A's chunk+MAC
/// presented under B's nonce even at the matching index, and the failed
/// attempt poisons neither assembler: B's genuine sequence still
/// verifies and A is untouched. On the wire, stream frames travel
/// sealed with per-session sequence numbers, so a cross-position splice
/// of a *recorded* frame desyncs only the shared channel — never
/// installs a byte — and both multiplexed streams recover via their
/// per-nonce resume points while the destination keeps each stream's
/// verified prefix.
#[test]
fn cross_stream_chunk_splice_rejected_and_quarantined() {
    use cloud_sim::network::{Envelope, TapAction};
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
    use mig_core::host::AppStatus;
    use mig_core::transfer::chunker::{ChunkAssembler, ChunkStream};
    use mig_core::transfer::TransferConfig;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // --- Engine level: the per-nonce chain rejects the splice and only
    // the targeted stream is affected.
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i / 7) as u8).collect();
    let xfer_a = ChunkStream::new([0xA7; 16], 4096, payload.clone());
    let xfer_b = ChunkStream::new([0xB8; 16], 4096, payload.clone());
    let mut asm_a =
        ChunkAssembler::new([0xA7; 16], 4096, xfer_a.total_len(), xfer_a.digest()).unwrap();
    let mut asm_b =
        ChunkAssembler::new([0xB8; 16], 4096, xfer_b.total_len(), xfer_b.digest()).unwrap();
    for idx in 0..xfer_a.n_chunks() {
        // At every position, A's genuine frame spliced into B fails...
        let (a_chunk, a_mac) = xfer_a.chunk(idx);
        assert!(
            asm_b.accept(idx, a_chunk, &a_mac).is_err(),
            "cross-nonce splice at index {idx} must fail the chain"
        );
        // ...while both genuine streams proceed: the rejection is
        // per-frame, the quarantine per-stream.
        let (b_chunk, b_mac) = xfer_b.chunk(idx);
        asm_b.accept(idx, b_chunk, &b_mac).unwrap();
        asm_a.accept(idx, a_chunk, &a_mac).unwrap();
    }
    assert_eq!(*asm_a.finish().unwrap().0, *payload);
    assert_eq!(*asm_b.finish().unwrap().0, *payload);

    // --- Wire level: two concurrent streams; the adversary replaces a
    // mid-flight frame with a recorded earlier frame (a cross-position /
    // cross-stream splice of genuine ciphertexts).
    let image_a = EnclaveImage::build("splice-a", 1, b"kv", &EnclaveSigner::from_seed([28; 32]));
    let image_b = EnclaveImage::build("splice-b", 1, b"kv", &EnclaveSigner::from_seed([29; 32]));
    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 64 * 1024,
        window: 4,
        ..TransferConfig::default()
    };
    let mut dc = Datacenter::new(111);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);

    let captured: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::new(AtomicUsize::new(0));
    {
        let captured = Arc::clone(&captured);
        let seen = Arc::clone(&seen);
        dc.world_mut()
            .network_mut()
            .add_tap(Box::new(move |e: &Envelope| {
                if e.from.machine == m1
                    && e.to.machine == m2
                    && e.from.service == "me"
                    && e.payload.first() == Some(&mig_core::host::tags::RA_TRANSFER)
                {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    let mut log = captured.lock();
                    log.push(e.payload.clone());
                    if n == 8 {
                        // Splice: deliver frame #2's ciphertext in frame
                        // #8's slot (both are genuine stream frames).
                        return TapAction::Replace(log[2].clone());
                    }
                }
                TapAction::Deliver
            }));
    }

    for (app, dst, image, entries) in [
        ("a", "a-dst", &image_a, 512u32),
        ("b", "b-dst", &image_b, 256),
    ] {
        dc.deploy_app(app, m1, image, KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app(app, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            app,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(entries, 4096, 0x61),
        )
        .unwrap();
        dc.deploy_app(dst, m2, image, KvStore::new(), InitRequest::Migrate)
            .unwrap();
    }

    // Both migrations fire together; the splice stalls the shared
    // channel mid-flight without installing a single spliced byte.
    {
        let a = dc.app("a");
        a.lock()
            .migrate_to(dc.world_mut().network_mut(), m2)
            .unwrap();
    }
    {
        let b = dc.app("b");
        b.lock()
            .migrate_to(dc.world_mut().network_mut(), m2)
            .unwrap();
    }
    dc.run();
    assert!(
        !dc.me_host(m2).lock().errors.is_empty(),
        "the spliced frame and the frames behind it surface as MAC errors"
    );
    assert_eq!(dc.app("a-dst").lock().status(), AppStatus::AwaitingIncoming);
    assert_eq!(dc.app("b-dst").lock().status(), AppStatus::AwaitingIncoming);

    // Per-nonce recovery: one retry renegotiates both streams' resume
    // points and both payloads arrive byte-exactly.
    dc.resume_migration("a", "a-dst").unwrap();
    for (dst, entries) in [("a-dst", 512u32), ("b-dst", 256)] {
        assert_eq!(dc.app(dst).lock().status(), AppStatus::Ready, "{dst}");
        let state = dc.app_bulk_state(dst).unwrap().expect("migrated state");
        dc.call_app(dst, kv_ops::LOAD, &state).unwrap();
        let len = dc.call_app(dst, kv_ops::LEN, &[]).unwrap();
        assert_eq!(u32::from_le_bytes(len[..4].try_into().unwrap()), entries);
        let probe = dc.call_app(dst, kv_ops::GET, b"bulk-00000001").unwrap();
        let expected: Vec<u8> = (0..4096usize)
            .map(|j| 0x61u8.wrapping_add((1 + j) as u8))
            .collect();
        assert_eq!(probe, expected, "{dst} entry survives the splice attempt");
    }
}

/// Replaying a recorded `ChunkAck` across streams (or at all) is
/// rejected by the source ME and quarantines nothing: every replay
/// fails the channel sequence check, no stream's window moves, and the
/// completed migrations' retained state is unaffected.
#[test]
fn chunk_ack_replay_across_streams_rejected() {
    use cloud_sim::network::Envelope;
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};
    use mig_core::host::AppStatus;
    use mig_core::transfer::TransferConfig;

    let image_a = EnclaveImage::build("ackrep-a", 1, b"kv", &EnclaveSigner::from_seed([30; 32]));
    let image_b = EnclaveImage::build("ackrep-b", 1, b"kv", &EnclaveSigner::from_seed([31; 32]));
    let config = TransferConfig {
        stream_threshold: 4096,
        chunk_size: 64 * 1024,
        window: 4,
        ..TransferConfig::default()
    };
    let mut dc = Datacenter::new(112);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);
    let m2 = dc.add_machine_with_transfer(MachineLabels::default(), &policy, config);

    for (app, dst, image, entries) in [
        ("a", "a-dst", &image_a, 256u32),
        ("b", "b-dst", &image_b, 128),
    ] {
        dc.deploy_app(app, m1, image, KvStore::new(), InitRequest::New)
            .unwrap();
        dc.call_app(app, kv_ops::INIT, &[]).unwrap();
        dc.call_app(
            app,
            kv_ops::BULK_PUT,
            &kvstore::encode_bulk_put(entries, 4096, 0x71),
        )
        .unwrap();
        dc.deploy_app(dst, m2, image, KvStore::new(), InitRequest::Migrate)
            .unwrap();
    }

    // Record every destination→source acknowledgement of the two
    // interleaved streams during a clean concurrent run.
    dc.world_mut().network_mut().start_recording();
    dc.migrate_apps_concurrent(&[("a", "a-dst"), ("b", "b-dst")])
        .unwrap();
    let log = dc.world_mut().network_mut().stop_recording();
    let replays: Vec<Envelope> = log
        .iter()
        .filter(|e| {
            e.from.machine == m2
                && e.to.machine == m1
                && e.payload.first() == Some(&mig_core::host::tags::RA_ACK)
        })
        .cloned()
        .collect();
    assert!(
        replays.len() > 8,
        "two interleaved streams produce many acks, got {}",
        replays.len()
    );

    // Replay them all — cumulative acks, resumes, final acks, delivery
    // confirmations — in original order and reversed (cross-stream
    // orderings included).
    let errors_before = dc.me_host(m1).lock().errors.len();
    let n_replays = replays.len() * 2;
    for envelope in replays.iter().cloned().chain(replays.iter().rev().cloned()) {
        dc.world_mut().network_mut().inject(envelope);
    }
    dc.run();
    let errors_after = dc.me_host(m1).lock().errors.len();
    assert_eq!(
        errors_after - errors_before,
        n_replays,
        "every replayed ack must be rejected by the channel sequencing"
    );

    // No stream state resurrected at the source, no status disturbed.
    for (app, dst) in [("a", "a-dst"), ("b", "b-dst")] {
        let mr = dc.app(app).lock().enclave().identity().mr_enclave;
        assert_eq!(
            dc.me_host(m1).lock().stream_progress(mr).unwrap(),
            None,
            "no retained outgoing stream reappears for {app}"
        );
        assert_eq!(dc.app(app).lock().status(), AppStatus::Migrated);
        assert_eq!(dc.app(dst).lock().status(), AppStatus::Ready);
    }
}

// ---------------------------------------------------------------------
// Delta transfer: tampered-manifest attacks
// ---------------------------------------------------------------------

/// A tampered dirty-page delta manifest is rejected *before any page is
/// applied*: out-of-range indices, reordered/duplicated indices, payload
/// truncation, a wrong base, and a flipped new-state root all fail
/// `delta::apply`, and a malformed wire encoding never parses (or
/// panics). The destination never installs a state reconstructed from a
/// manipulated manifest.
#[test]
fn tampered_delta_manifest_rejected_before_any_page_applied() {
    use mig_core::error::MigError;
    use mig_core::transfer::delta::{self, DeltaManifest, DigestedState, PageDigests};

    let base: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut new = base.clone();
    new[4096 * 3] ^= 0x5A; // page 3
    new[4096 * 9 + 17] ^= 0x11; // page 9
    let base = DigestedState::new(base);
    let (dirty, payload) = delta::diff(base.bytes(), &new);
    let leaves: Vec<_> = delta::page_leaves(&payload).collect();
    let new_digests = base
        .digests()
        .patch(new.len() as u64, &dirty, &leaves)
        .unwrap();
    let manifest = DeltaManifest::new(0, 1, base.digests(), &new_digests, dirty);
    assert_eq!(manifest.dirty, vec![3, 9]);
    // The genuine delta applies.
    assert_eq!(
        &delta::apply(&base, &manifest, &payload).unwrap().bytes()[..],
        &new[..]
    );

    let expect_rejected = |m: &DeltaManifest, payload: &[u8]| {
        assert!(
            matches!(delta::apply(&base, m, payload), Err(MigError::Transfer(_))),
            "tampered manifest must be rejected"
        );
    };

    // Redirect a dirty page out of range.
    let mut m = manifest.clone();
    m.dirty = vec![3, 4096];
    expect_rejected(&m, &payload);
    // Reorder the dirty list (apply would misplace pages).
    let mut m = manifest.clone();
    m.dirty = vec![9, 3];
    expect_rejected(&m, &payload);
    // Duplicate an index (double-consume the payload).
    let mut m = manifest.clone();
    m.dirty = vec![3, 3];
    expect_rejected(&m, &payload);
    // Drop a page from the manifest (payload length mismatch).
    let mut m = manifest.clone();
    m.dirty = vec![3];
    expect_rejected(&m, &payload);
    // Truncate the payload itself.
    expect_rejected(&manifest, &payload[..payload.len() - 1]);
    // Claim a different base length (apply onto the wrong snapshot).
    let mut m = manifest.clone();
    m.base_len -= 1;
    expect_rejected(&m, &payload);
    // Redirect the delta onto a different base (content mismatch).
    let mut m = manifest.clone();
    m.base_digest[0] ^= 1;
    expect_rejected(&m, &payload);
    // Flip the new-state root: reconstruction happens but the result is
    // discarded, never installed.
    let mut m = manifest.clone();
    m.new_digest[0] ^= 1;
    expect_rejected(&m, &payload);
    // Claim page 9 is clean while keeping its payload length: the digest
    // over the reconstruction catches the page-content swap.
    let mut m = manifest.clone();
    m.dirty = vec![3, 10];
    expect_rejected(&m, &payload);

    // Wire level: truncations never parse (or panic), and any bit-flipped
    // encoding that still parses and applies can only ever produce a
    // state whose page-digest root is the one the manifest itself commits
    // to — so with the genuine root, only the genuine state installs. (Flips
    // in the generation fields are caught one layer up, where the ME
    // matches them against its retained cache.)
    let bytes = manifest.to_bytes();
    for cut in 1..bytes.len() {
        assert!(DeltaManifest::from_bytes(&bytes[..bytes.len() - cut]).is_err());
    }
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 1;
        if let Ok(parsed) = DeltaManifest::from_bytes(&evil) {
            if let Ok(out) = delta::apply(&base, &parsed, &payload) {
                assert_eq!(
                    PageDigests::compute(out.bytes()).root(),
                    parsed.new_digest,
                    "applied state must match the committed digest"
                );
                if parsed.new_digest == manifest.new_digest {
                    assert_eq!(
                        &out.bytes()[..],
                        &new[..],
                        "genuine digest admits only the genuine state"
                    );
                }
            }
        }
    }
}

/// Takes a kvstore staging container apart:
/// `[2][u32 len][sealed index][u32 n]` and `n` length-prefixed sealed
/// segments.
fn container_parts(bytes: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let mut r = WireReader::new(bytes);
    assert_eq!(r.u8().unwrap(), 2, "container magic");
    let index = r.bytes_vec().unwrap();
    let n = r.u32().unwrap();
    let segments = (0..n).map(|_| r.bytes_vec().unwrap()).collect();
    r.finish().unwrap();
    (index, segments)
}

/// Puts a kvstore staging container together from its parts.
fn container(index: &[u8], segments: &[Vec<u8>]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(2).bytes(index).u32(segments.len() as u32);
    for segment in segments {
        w.bytes(segment);
    }
    w.finish()
}

/// The kvstore's sealed segment index binds the exact set of sealed
/// segments. Every segment below is a genuine MSK seal at its own
/// position, so AES-GCM and the positional AAD alone would accept a
/// segment from an older container version: only the index refuses it.
/// A swap and a flipped ciphertext byte are refused too, none of the
/// refusals disturbs the loaded store, and a whole older container is
/// the rollback the version counter catches.
#[test]
fn kvstore_segment_index_refuses_stale_swapped_and_flipped_segments() {
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};

    let mut dc = Datacenter::new(23);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let image = EnclaveImage::build(
        "segment-index-kv",
        1,
        b"kv",
        &EnclaveSigner::from_seed([23; 32]),
    );
    dc.deploy_app("kv", m1, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("kv", kv_ops::INIT, &[]).unwrap();
    // 8 entries of 4 KiB: a 32,945-byte snapshot in 9 segments.
    dc.call_app(
        "kv",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(8, 4096, 0x5A),
    )
    .unwrap();
    let old = dc.app_bulk_state("kv").unwrap().expect("staged state");
    // A same-length PUT rewrites entry 5's value, which spans segments
    // 5 and 6; segment 0 holds the header, whose version changes.
    let key = b"bulk-00000005";
    let value = vec![0xA5; 4096];
    dc.call_app("kv", kv_ops::PUT, &kvstore::encode_put(key, &value))
        .unwrap();
    let new = dc.app_bulk_state("kv").unwrap().expect("staged state");

    let (_, old_segments) = container_parts(&old);
    let (index, segments) = container_parts(&new);
    assert_eq!(segments.len(), 9);
    for (i, (segment, old_segment)) in segments.iter().zip(&old_segments).enumerate() {
        assert_eq!(
            segment == old_segment,
            ![0, 5, 6].contains(&i),
            "segment {i} resealed only if the PUT touched it"
        );
    }

    let mut stale = segments.clone();
    stale[5] = old_segments[5].clone();
    let mut swapped = segments.clone();
    swapped.swap(5, 6);
    let mut flipped = segments.clone();
    let mid = flipped[5].len() / 2;
    flipped[5][mid] ^= 1;
    for (what, forged) in [
        ("older version's segment 5", stale),
        ("segments 5 and 6 swapped", swapped),
        ("one ciphertext byte flipped", flipped),
    ] {
        let err = dc
            .call_app("kv", kv_ops::LOAD, &container(&index, &forged))
            .unwrap_err();
        assert_eq!(err, SgxError::MacMismatch, "{what}");
    }
    assert_eq!(dc.call_app("kv", kv_ops::GET, key).unwrap(), value);

    // The genuine container still loads; the older one is a rollback.
    dc.call_app("kv", kv_ops::LOAD, &new).unwrap();
    assert_eq!(dc.call_app("kv", kv_ops::GET, key).unwrap(), value);
    let err = dc.call_app("kv", kv_ops::LOAD, &old).unwrap_err();
    assert!(
        matches!(&err, SgxError::Enclave(msg) if msg.contains("rollback detected")),
        "{err:?}"
    );
}

/// After a restart the host serves the kvstore's container from the
/// pages on its disk, and may serve any pages it likes: one page from an
/// earlier `PUT`, two pages swapped, or page 0 (the framing and the
/// sealed index) of one generation with the segment pages of another
/// are refused by the segments' tags, and a whole earlier page set is
/// the rollback the version counter catches. The genuine pages load.
#[test]
fn kvstore_page_store_refuses_stale_swapped_mixed_and_rolled_back_pages() {
    use mig_apps::kvstore::{self, ops as kv_ops, KvStore};

    let mut dc = Datacenter::new(24);
    let policy = MigrationPolicy::same_operator_only();
    let m1 = dc.add_machine(MachineLabels::default(), &policy);
    let image = EnclaveImage::build(
        "page-store-kv",
        1,
        b"kv",
        &EnclaveSigner::from_seed([24; 32]),
    );
    dc.deploy_app("kv", m1, &image, KvStore::new(), InitRequest::New)
        .unwrap();
    dc.call_app("kv", kv_ops::INIT, &[]).unwrap();
    // 16 entries of 4 KiB: a 67,405-byte container in 17 pages.
    dc.call_app(
        "kv",
        kv_ops::BULK_PUT,
        &kvstore::encode_bulk_put(16, 4096, 0x11),
    )
    .unwrap();
    let disk = dc.world().machine(m1).disk.clone();
    let page = |p: u32| dc.app("kv").lock().page_key(p);
    let (page0, page2, page3, page6) = (page(0), page(2), page(3), page(6));
    // Entry 5's value spans segments 5 and 6, on pages 5 to 7; segment
    // 0, whose header holds the version, shares pages 0 and 1 with the
    // index.
    let key = b"bulk-00000005";
    let put = |dc: &mut Datacenter, fill: u8| {
        dc.call_app("kv", kv_ops::PUT, &kvstore::encode_put(key, &[fill; 4096]))
            .unwrap();
    };
    put(&mut dc, 0xA1);
    let earlier = disk.snapshot();
    put(&mut dc, 0xB2);
    let latest = disk.snapshot();
    assert_ne!(earlier.get(&page6), latest.get(&page6));
    assert_eq!(earlier.get(&page2), latest.get(&page2));

    let restart_and_load = |dc: &mut Datacenter| {
        dc.restart_app("kv", m1, &image, KvStore::new()).unwrap();
        let stored = dc.app_bulk_state("kv").unwrap().expect("stored pages");
        dc.call_app("kv", kv_ops::LOAD, &stored)
    };
    let page_of = |snapshot: &cloud_sim::disk::DiskSnapshot, key: &String| {
        (key.clone(), snapshot.get(key).unwrap().to_vec())
    };
    let forgeries = [
        (
            "page 6 from the earlier PUT",
            vec![page_of(&earlier, &page6)],
        ),
        (
            "pages 2 and 3 swapped",
            vec![
                (page2.clone(), latest.get(&page3).unwrap().to_vec()),
                (page3.clone(), latest.get(&page2).unwrap().to_vec()),
            ],
        ),
        (
            "the earlier index page with the latest segments",
            vec![page_of(&earlier, &page0)],
        ),
    ];
    for (what, pages) in forgeries {
        disk.restore(&latest);
        for (key, bytes) in pages {
            disk.put(&key, bytes);
        }
        let err = restart_and_load(&mut dc).unwrap_err();
        assert_eq!(err, SgxError::MacMismatch, "{what}");
    }

    // The whole earlier page set (and the same Table II blob) is a
    // rollback.
    disk.restore(&earlier);
    let err = restart_and_load(&mut dc).unwrap_err();
    assert!(
        matches!(&err, SgxError::Enclave(msg) if msg.contains("rollback detected")),
        "{err:?}"
    );

    // The genuine pages load, with the latest value.
    disk.restore(&latest);
    restart_and_load(&mut dc).unwrap();
    assert_eq!(dc.call_app("kv", kv_ops::GET, key).unwrap(), [0xB2; 4096]);
    assert_eq!(
        dc.call_app("kv", kv_ops::LEN, &[]).unwrap(),
        16u32.to_le_bytes()
    );
}
