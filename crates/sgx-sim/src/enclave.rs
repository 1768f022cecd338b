//! The enclave runtime: the [`EnclaveCode`] trait implemented by enclave
//! logic, the [`EnclaveHandle`] through which untrusted code drives it, and
//! the [`EnclaveEnv`] in-enclave view of the platform.
//!
//! The isolation model mirrors SGX: untrusted code can only enter an
//! enclave through the byte-oriented ECALL ABI of [`EnclaveHandle::ecall`]
//! (well-defined entry points, §II-A1), and the enclave's private state —
//! the fields of the [`EnclaveCode`] implementor — is unreachable from
//! outside the handle. Destroying an enclave (application exit, power
//! event, VM migration) irrecoverably drops that state, exactly the
//! lifecycle the paper's §I enumerates.

use crate::cost::PlatformOp;
use crate::counters::CounterUuid;
use crate::cpu::{egetkey, KeyName, KeyPolicy, KeyRequest};
use crate::error::SgxError;
use crate::machine::MachineCore;
use crate::measurement::{EnclaveIdentity, MrEnclave};
use crate::quote::{qe_mr_enclave, Quote};
use crate::report::{Report, ReportBody, ReportData, TargetInfo};
use crate::seal;
use mig_crypto::hmac::HmacSha256;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Trait implemented by enclave logic.
///
/// `ecall` is the single marshalled entry point: `opcode` selects the
/// function (the enclave's EDL, in SDK terms) and `input`/output are
/// explicit byte buffers, as across a real enclave boundary.
pub trait EnclaveCode: Send {
    /// Handles one ECALL.
    ///
    /// # Errors
    ///
    /// Implementations return [`SgxError`] values which cross the boundary
    /// verbatim (like `sgx_status_t`).
    fn ecall(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError>;
}

pub(crate) struct EnclaveInstance {
    pub(crate) code: Mutex<Box<dyn EnclaveCode>>,
    pub(crate) identity: EnclaveIdentity,
    pub(crate) alive: AtomicBool,
    pub(crate) epoch: u64,
}

/// Untrusted handle to a loaded enclave.
///
/// Cloneable; all clones refer to the same enclave instance. The handle
/// goes dead when the enclave is destroyed or the machine power-cycles.
#[derive(Clone)]
pub struct EnclaveHandle {
    pub(crate) core: Arc<MachineCore>,
    pub(crate) instance: Arc<EnclaveInstance>,
}

impl std::fmt::Debug for EnclaveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveHandle")
            .field("identity", &self.instance.identity)
            .field("alive", &self.is_alive())
            .finish()
    }
}

impl EnclaveHandle {
    /// The loaded enclave's identity.
    #[must_use]
    pub fn identity(&self) -> EnclaveIdentity {
        self.instance.identity
    }

    /// Whether the enclave can still service ECALLs.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.instance.alive.load(Ordering::SeqCst)
            && self.core.current_epoch() == self.instance.epoch
    }

    /// Destroys the enclave; its in-memory state is irrecoverably lost.
    pub fn destroy(&self) {
        self.instance.alive.store(false, Ordering::SeqCst);
    }

    /// Invokes an ECALL.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::EnclaveLost`] if the enclave was destroyed or
    /// the machine power-cycled; otherwise whatever the enclave returns.
    pub fn ecall(&self, opcode: u32, input: &[u8]) -> Result<Vec<u8>, SgxError> {
        if !self.is_alive() {
            return Err(SgxError::EnclaveLost);
        }
        if self.core.take_ecall_fault() {
            // Injected AEX-style abort: the call never enters the
            // enclave, so enclave state is untouched.
            return Err(SgxError::Enclave("injected ecall abort".into()));
        }
        let mut code = self.instance.code.lock();
        self.core.transitions.lock().begin_ecall();
        let mut env = EnclaveEnv {
            core: &self.core,
            identity: self.instance.identity,
        };
        let result = code.ecall(&mut env, opcode, input);
        self.core.transitions.lock().end_ecall();
        result
    }

    /// Snapshot of the host machine's ECALL/OCALL transition tally.
    #[must_use]
    pub fn transition_tally(&self) -> crate::cpu::TransitionTally {
        self.core.transitions.lock().clone()
    }

    /// The host machine's undrained virtual time (telemetry peeks the
    /// delta across one ECALL without consuming it).
    #[must_use]
    pub fn peek_virtual_time(&self) -> std::time::Duration {
        *self.core.virtual_elapsed.lock()
    }
}

/// The in-enclave view of the platform: key derivation, sealing, reports,
/// monotonic counters, randomness.
///
/// An `EnclaveEnv` only exists inside an ECALL, borrowed from the machine;
/// enclave code cannot stash it, mirroring how SGX instructions are only
/// usable from enclave mode.
pub struct EnclaveEnv<'m> {
    core: &'m MachineCore,
    identity: EnclaveIdentity,
}

impl std::fmt::Debug for EnclaveEnv<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveEnv")
            .field("identity", &self.identity)
            .finish_non_exhaustive()
    }
}

impl EnclaveEnv<'_> {
    /// The calling enclave's identity.
    #[must_use]
    pub fn identity(&self) -> EnclaveIdentity {
        self.identity
    }

    /// The machine the enclave is running on (public, untrusted info).
    #[must_use]
    pub fn machine_id(&self) -> crate::machine::MachineId {
        self.core.machine_id
    }

    /// Fills `buf` with cryptographically secure random bytes (`RDRAND`).
    pub fn random_bytes(&mut self, buf: &mut [u8]) {
        use rand::RngCore as _;
        self.core.rng.lock().fill_bytes(buf);
    }

    /// Attributes the ECALL being serviced (and its remaining platform
    /// operations) to a migration trace id for transition telemetry.
    ///
    /// `trace` must be a *derived* identifier (a hash of the transfer
    /// nonce), never secret material itself — it is exported verbatim by
    /// the telemetry layer.
    pub fn attribute_transition(&mut self, trace: [u8; 8]) {
        self.core.transitions.lock().attribute(trace);
    }

    /// Excludes the ECALL being serviced from per-trace transition
    /// attribution: read-only diagnostics (telemetry / stat polling)
    /// call this first so they never count towards an active
    /// migration's tally, and any later [`Self::attribute_transition`]
    /// within the same ECALL is ignored.
    pub fn exclude_transition_attribution(&mut self) {
        self.core.transitions.lock().exclude();
    }

    /// Derives a 128-bit key (`EGETKEY`).
    #[must_use]
    pub fn egetkey(&mut self, req: &KeyRequest) -> [u8; 16] {
        self.core.account(PlatformOp::EgetKey);
        egetkey(&self.core.cpu, &self.identity, req)
    }

    /// Seals `plaintext` with authenticated `aad` under `policy`
    /// (`sgx_seal_data`) into one buffer of exactly
    /// [`seal::sealed_size`] bytes (a copy of `plaintext` sealed with
    /// [`EnclaveEnv::seal_data_in_place`]).
    #[must_use]
    pub fn seal_data(&mut self, policy: KeyPolicy, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut blob = Vec::with_capacity(seal::sealed_size(aad.len(), plaintext.len()));
        blob.resize(seal::sealed_header_len(aad.len()), 0);
        blob.extend_from_slice(plaintext);
        self.seal_data_in_place(policy, aad, &mut blob, 0);
        blob
    }

    /// Seals in place the plaintext a caller wrote behind
    /// [`seal::sealed_header_len`]`(aad.len())` reserved bytes at offset
    /// `at` of `buf`: `buf[at..]` becomes the blob
    /// [`EnclaveEnv::seal_data`] would return, so a blob can be sealed
    /// where it lies inside a larger buffer (an ECALL output, for one).
    /// A fresh key id and nonce are drawn per call. Reserve
    /// [`seal::sealed_size`] bytes of capacity behind `at` up front and
    /// the appended tag never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than `at` plus the reserved header
    /// (caller bug).
    pub fn seal_data_in_place(
        &mut self,
        policy: KeyPolicy,
        aad: &[u8],
        buf: &mut Vec<u8>,
        at: usize,
    ) {
        let mut key_id = [0u8; 16];
        self.random_bytes(&mut key_id);
        let mut nonce = [0u8; 12];
        self.random_bytes(&mut nonce);
        self.core.account(PlatformOp::EgetKey);
        seal::seal_in_place(
            &self.core.cpu,
            &self.identity,
            policy,
            key_id,
            nonce,
            aad,
            buf,
            at,
        );
    }

    /// Unseals a blob sealed by this enclave identity on this machine
    /// (`sgx_unseal_data`), returning `(plaintext, aad)`.
    ///
    /// # Errors
    ///
    /// [`SgxError::MacMismatch`] if the blob was sealed on another machine,
    /// by another identity, or was tampered with; [`SgxError::Decode`] on
    /// malformed blobs.
    pub fn unseal_data(&mut self, blob: &[u8]) -> Result<(Vec<u8>, Vec<u8>), SgxError> {
        self.core.account(PlatformOp::EgetKey);
        seal::unseal(&self.core.cpu, &self.identity, blob)
    }

    /// Produces a report for `target` on the same machine (`EREPORT`).
    #[must_use]
    pub fn ereport(&mut self, target: &TargetInfo, data: &ReportData) -> Report {
        self.core.account(PlatformOp::Report);
        let body = ReportBody {
            identity: self.identity,
            report_data: *data,
        };
        let mac = report_mac(self.core, target.mr_enclave, &body);
        Report {
            body,
            target: target.mr_enclave,
            mac,
        }
    }

    /// Verifies a report targeted at *this* enclave (`sgx_verify_report`).
    ///
    /// # Errors
    ///
    /// [`SgxError::ReportMacMismatch`] if the report was not produced on
    /// this machine for this enclave.
    pub fn verify_report(&mut self, report: &Report) -> Result<ReportBody, SgxError> {
        if report.target != self.identity.mr_enclave {
            return Err(SgxError::ReportMacMismatch);
        }
        let expected = report_mac(self.core, self.identity.mr_enclave, &report.body);
        if !mig_crypto::ct::ct_eq(&expected, &report.mac) {
            return Err(SgxError::ReportMacMismatch);
        }
        Ok(report.body)
    }

    /// Target info for the platform's Quoting Enclave.
    #[must_use]
    pub fn qe_target_info(&self) -> TargetInfo {
        TargetInfo {
            mr_enclave: qe_mr_enclave(),
        }
    }

    /// Converts a report (targeted at the QE) into a quote.
    ///
    /// In real SGX this round-trips through the AESM service and the
    /// Quoting Enclave over an untrusted channel (the paper's §VI-C
    /// proxies); the simulator performs the QE's verification and signing
    /// inline.
    ///
    /// # Errors
    ///
    /// [`SgxError::ReportMacMismatch`] if the report does not target the
    /// QE or fails verification.
    pub fn quote_report(&mut self, report: &Report) -> Result<Quote, SgxError> {
        self.core.quote(report)
    }

    /// Creates a monotonic counter owned by this enclave's identity
    /// (`sgx_create_monotonic_counter`). Returns `(uuid, 0)`.
    ///
    /// # Errors
    ///
    /// [`SgxError::CounterQuotaExceeded`] past 256 live counters.
    pub fn create_counter(&mut self) -> Result<(CounterUuid, u32), SgxError> {
        self.core.account(PlatformOp::CounterCreate);
        let mut rng = self.core.rng.lock();
        self.core
            .counters
            .lock()
            .create(self.identity.mr_enclave, &mut *rng)
    }

    /// Reads a counter (`sgx_read_monotonic_counter`).
    ///
    /// # Errors
    ///
    /// [`SgxError::CounterNotFound`] for unknown/destroyed UUIDs.
    pub fn read_counter(&mut self, uuid: &CounterUuid) -> Result<u32, SgxError> {
        self.core.account(PlatformOp::CounterRead);
        self.core
            .counters
            .lock()
            .read(self.identity.mr_enclave, uuid)
    }

    /// Increments a counter (`sgx_increment_monotonic_counter`).
    ///
    /// # Errors
    ///
    /// [`SgxError::CounterNotFound`] for unknown/destroyed UUIDs;
    /// [`SgxError::CounterOverflow`] at `u32::MAX`.
    pub fn increment_counter(&mut self, uuid: &CounterUuid) -> Result<u32, SgxError> {
        self.core.account(PlatformOp::CounterIncrement);
        self.core
            .counters
            .lock()
            .increment(self.identity.mr_enclave, uuid)
    }

    /// Destroys a counter (`sgx_destroy_monotonic_counter`). The UUID is
    /// permanently invalidated — the property the migration protocol's
    /// fork-prevention relies on.
    ///
    /// # Errors
    ///
    /// [`SgxError::CounterNotFound`] for unknown/destroyed UUIDs.
    pub fn destroy_counter(&mut self, uuid: &CounterUuid) -> Result<(), SgxError> {
        self.core.account(PlatformOp::CounterDestroy);
        self.core
            .counters
            .lock()
            .destroy(self.identity.mr_enclave, uuid)
    }
}

/// Report MAC under the *target* enclave's report key.
fn report_mac(core: &MachineCore, target: MrEnclave, body: &ReportBody) -> [u8; 32] {
    let target_identity = EnclaveIdentity {
        mr_enclave: target,
        // MRSIGNER does not participate in report-key derivation.
        mr_signer: crate::measurement::MrSigner([0; 32]),
    };
    let key = egetkey(
        &core.cpu,
        &target_identity,
        &KeyRequest {
            name: KeyName::Report,
            policy: KeyPolicy::MrEnclave,
            key_id: [0; 16],
        },
    );
    HmacSha256::mac(&key, &body.to_bytes())
}
