//! The **Migration Library** — the in-enclave component of the paper's
//! framework (§V-C, §VI-B).
//!
//! The library is linked into every migratable enclave and provides:
//!
//! * migratable sealing — [`MigrationLibrary::seal_migratable_data`] /
//!   [`MigrationLibrary::unseal_migratable_data`] encrypt under the
//!   Migration Sealing Key (MSK) instead of the machine-bound SGX sealing
//!   key (Listing 2's `sgx_seal_migratable_data`);
//! * migratable monotonic counters — hardware counters wrapped with a
//!   per-counter *offset* so the effective value survives migration at
//!   constant cost (Listing 2's `sgx_*_migratable_counter` family, keyed
//!   by a library-assigned counter id instead of the SGX UUID);
//! * the initialization entry point (Listing 1's `migration_init`) with
//!   the three start states of Fig. 1 — new, restored, migrated — and the
//!   migration entry point (`migration_start`);
//! * the attested channel to the local Migration Enclave.
//!
//! The library's own persistent data (Table II) is sealed with *native*
//! machine-bound sealing and handed to the untrusted host for storage;
//! the host returns it at every restart via `migration_init`. A change to
//! Table II or to the staged bulk state only marks the blob due; the
//! ECALL response then carries it ([`MigrationLibrary::write_persist`]),
//! written once and sealed where it lies inside the buffer that leaves
//! the enclave, so the state is never sealed into a blob of its own and
//! copied beside the response.

pub mod state;

use crate::error::MigError;
use crate::msgs::{LibToMe, MeToLib};
use crate::secure_channel::{ChannelRole, SecureChannel};
use mig_crypto::gcm::{AesGcm, TAG_LEN};
use sgx_sim::cpu::KeyPolicy;
use sgx_sim::dh::{DhInitiator, DhMsg1, DhMsg3};
use sgx_sim::enclave::EnclaveEnv;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::seal;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use state::{LibraryState, COUNTER_SLOTS};
use std::sync::Arc;

/// AAD tag binding sealed blobs to their role as library state.
pub(crate) const STATE_AAD: &[u8] = b"sgx-migrate.library-state.v1";
/// Format version byte of migratable sealed blobs.
const MIGSEAL_VERSION: u8 = 1;

/// How the library should initialize (Listing 1's `init_state`; Fig. 1's
/// "new / restored / migrated" enclave start states).
#[derive(Clone, Debug)]
pub enum InitRequest {
    /// First start of this enclave's lifetime: generate a fresh MSK.
    New,
    /// Restart on the same machine: restore from the sealed Table II blob.
    Restore {
        /// The sealed library state previously handed to the host.
        blob: Vec<u8>,
    },
    /// Start as a migration target: wait for incoming migration data.
    Migrate,
}

/// The library's operating phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LibPhase {
    /// Normal operation; migratable primitives available.
    Operational,
    /// Initialized with [`InitRequest::Migrate`]; waiting for data.
    AwaitingMigration,
    /// State was migrated away; this incarnation is permanently inert.
    Frozen,
}

enum MeSession {
    None,
    Handshaking(DhInitiator),
    Established { channel: Box<SecureChannel> },
}

/// The Migration Library instance embedded in a migratable enclave.
///
/// All methods take the [`EnclaveEnv`] of the current ECALL, mirroring how
/// the real library runs inside the calling enclave's protection domain.
pub struct MigrationLibrary {
    expected_me: MrEnclave,
    state: Option<LibraryState>,
    /// AES-GCM under the state's MSK, for migratable sealing: built once
    /// where the MSK is set (a new MSK, a restored blob, an incoming
    /// migration), not per sealed blob.
    msk_aead: Option<AesGcm>,
    phase: LibPhase,
    me_session: MeSession,
    /// Whether Table II or the staged bulk state changed since the last
    /// ECALL response carried the sealed blob.
    persist_due: bool,
    /// Staged bulk state (the app's migratable-sealed working set),
    /// included in persistent checkpoints and shipped on migration via
    /// the streaming transfer engine when large. `Arc`-backed so the
    /// snapshot is shared, not copied, across the staging/persist paths.
    bulk_state: Option<Arc<[u8]>>,
}

impl std::fmt::Debug for MigrationLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrationLibrary")
            .field("phase", &self.phase)
            .field(
                "has_me_session",
                &matches!(self.me_session, MeSession::Established { .. }),
            )
            .finish_non_exhaustive()
    }
}

impl MigrationLibrary {
    // ------------------------------------------------------------------
    // Initialization (Listing 1: migration_init)
    // ------------------------------------------------------------------

    /// Initializes the library (`migration_init`).
    ///
    /// `expected_me` is the measurement of the trusted Migration Enclave
    /// build; the library verifies it during local attestation (§VII-A:
    /// "The identity of the Migration Enclave is verified during the
    /// local attestation process").
    ///
    /// # Errors
    ///
    /// * [`MigError::Frozen`] if a restored blob has the freeze flag set
    ///   (this incarnation was already migrated away);
    /// * [`MigError::StaleState`] if a restored blob references hardware
    ///   counters that no longer exist (a fork attempt with stale state);
    /// * [`MigError::Sgx`] if the blob fails unsealing (wrong machine,
    ///   wrong enclave, or tampering).
    pub fn init(
        env: &mut EnclaveEnv<'_>,
        expected_me: MrEnclave,
        request: InitRequest,
    ) -> Result<Self, MigError> {
        match request {
            InitRequest::New => {
                let mut msk = [0u8; 16];
                env.random_bytes(&mut msk);
                Ok(MigrationLibrary {
                    expected_me,
                    state: Some(LibraryState::fresh(msk)),
                    msk_aead: Some(AesGcm::new(msk)),
                    phase: LibPhase::Operational,
                    me_session: MeSession::None,
                    persist_due: true,
                    bulk_state: None,
                })
            }
            InitRequest::Restore { blob } => {
                let (plaintext, aad) = env.unseal_data(&blob)?;
                if aad != STATE_AAD {
                    return Err(MigError::Sgx(SgxError::Decode));
                }
                // The checkpoint carries Table II plus any staged bulk
                // state (see `persist`; a frozen blob carries none).
                let mut r = WireReader::new(&plaintext);
                let state = LibraryState::from_bytes(r.bytes()?)?;
                let bulk_state = crate::me::read_opt(&mut r)?;
                r.finish()?;
                if state.frozen != 0 {
                    return Err(MigError::Frozen);
                }
                let bulk_state = bulk_state.map(Arc::from);
                // Fork detection (§VII-A): every active counter in the blob
                // must still exist in the platform NVRAM. A blob captured
                // before a migration references destroyed counters.
                for id in state.active_ids() {
                    // mig-lint: allow(enclave-panic, "active_ids() yields indices into the COUNTER_SLOTS arrays")
                    match env.read_counter(&state.counter_uuids[id]) {
                        Ok(_) => {}
                        Err(SgxError::CounterNotFound) => return Err(MigError::StaleState),
                        Err(e) => return Err(MigError::Sgx(e)),
                    }
                }
                Ok(MigrationLibrary {
                    expected_me,
                    msk_aead: Some(AesGcm::new(state.msk)),
                    state: Some(state),
                    phase: LibPhase::Operational,
                    me_session: MeSession::None,
                    persist_due: false,
                    bulk_state,
                })
            }
            InitRequest::Migrate => Ok(MigrationLibrary {
                expected_me,
                state: None,
                msk_aead: None,
                phase: LibPhase::AwaitingMigration,
                me_session: MeSession::None,
                persist_due: false,
                bulk_state: None,
            }),
        }
    }

    /// The current phase.
    #[must_use]
    pub fn phase(&self) -> LibPhase {
        self.phase
    }

    /// Whether an attested ME session is established.
    #[must_use]
    pub fn has_me_session(&self) -> bool {
        matches!(self.me_session, MeSession::Established { .. })
    }

    /// Number of active migratable counters.
    #[must_use]
    pub fn active_counters(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.active_ids().count())
    }

    /// Marks the blob the host stores for resealing: the next ECALL
    /// response carries it ([`MigrationLibrary::write_persist`]).
    fn persist(&mut self) {
        self.persist_due = true;
    }

    /// What a due blob seals: Table II and the staged bulk state. A
    /// frozen blob omits the bulk state: `init` refuses to restore it,
    /// so nothing could read the state back, and the migration carries
    /// it through the ME instead.
    fn due_persist(&self) -> Option<(&LibraryState, Option<&[u8]>)> {
        let state = self.state.as_ref().filter(|_| self.persist_due)?;
        Some((
            state,
            self.bulk_state.as_deref().filter(|_| state.frozen == 0),
        ))
    }

    /// Plaintext length of a blob sealing `bulk` beside Table II.
    fn persist_plain_len(bulk: Option<&[u8]>) -> usize {
        4 + LibraryState::WIRE_SIZE + crate::me::opt_len(bulk)
    }

    /// Encoded length of what [`MigrationLibrary::write_persist`]
    /// writes now.
    #[must_use]
    pub fn persist_len(&self) -> usize {
        self.due_persist().map_or(1, |(_, bulk)| {
            1 + 4 + seal::sealed_size(STATE_AAD.len(), Self::persist_plain_len(bulk))
        })
    }

    /// Writes the blob the host stores as an optional byte string:
    /// `None` when nothing changed since the last ECALL response carried
    /// one, else the sealed Table II plus staged bulk state. The
    /// plaintext is written once, behind the blob's reserved header in
    /// `w`'s buffer, and sealed where it lies, so the state is copied
    /// once, into the buffer that leaves the enclave.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] if the blob would not fit its `u32`
    /// length (the staged state is capped far below that).
    pub fn write_persist(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        w: &mut WireWriter,
    ) -> Result<(), MigError> {
        let Some((state, bulk)) = self.due_persist() else {
            crate::me::write_opt(w, None);
            return Ok(());
        };
        let blob_len = seal::sealed_size(STATE_AAD.len(), Self::persist_plain_len(bulk));
        w.u8(1);
        w.u32(
            u32::try_from(blob_len)
                .map_err(|_| MigError::Transfer("persist blob exceeds wire limit"))?,
        );
        let at = w.len();
        w.as_mut_vec()
            .resize(at + seal::sealed_header_len(STATE_AAD.len()), 0);
        w.bytes(&state.to_bytes());
        crate::me::write_opt(w, bulk);
        env.seal_data_in_place(KeyPolicy::MrEnclave, STATE_AAD, w.as_mut_vec(), at);
        self.persist_due = false;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bulk state (the streaming-transfer payload)
    // ------------------------------------------------------------------

    /// Stages the app's bulk state (its migratable-sealed working set)
    /// for checkpointing and migration. Replaces any previous staging and
    /// marks the persistent blob due, so the ECALL's response reseals it.
    ///
    /// # Errors
    ///
    /// Phase errors outside normal operation;
    /// [`MigError::Transfer`] for payloads beyond the streaming engine's
    /// [`crate::transfer::chunker::MAX_STREAM_LEN`].
    pub fn stage_bulk_state(
        &mut self,
        _env: &mut EnclaveEnv<'_>,
        bytes: &[u8],
    ) -> Result<(), MigError> {
        let _ = self.operational_state()?;
        if bytes.len() as u64 > crate::transfer::chunker::MAX_STREAM_LEN {
            return Err(MigError::Transfer("bulk state exceeds stream limit"));
        }
        // Idempotent re-staging (e.g. restoring the very snapshot that
        // just migrated in) skips the O(state) reseal.
        if self.bulk_state.as_deref() == Some(bytes) {
            return Ok(());
        }
        self.bulk_state = if bytes.is_empty() {
            None
        } else {
            Some(Arc::from(bytes))
        };
        self.persist();
        Ok(())
    }

    /// The currently staged bulk state, if any (on a migration target,
    /// the bulk state that arrived with the migration).
    #[must_use]
    pub fn bulk_state(&self) -> Option<&[u8]> {
        self.bulk_state.as_deref()
    }

    fn state(&self) -> Result<&LibraryState, MigError> {
        self.state.as_ref().ok_or(MigError::AwaitingMigration)
    }

    fn operational_state(&self) -> Result<&LibraryState, MigError> {
        match self.phase {
            LibPhase::Operational => self.state(),
            LibPhase::AwaitingMigration => Err(MigError::AwaitingMigration),
            LibPhase::Frozen => Err(MigError::Frozen),
        }
    }

    /// The MSK's AES-GCM, in the operational phase.
    fn msk_aead(&self) -> Result<&AesGcm, MigError> {
        self.operational_state()?;
        self.msk_aead.as_ref().ok_or(MigError::AwaitingMigration)
    }

    fn operational_state_mut(&mut self) -> Result<&mut LibraryState, MigError> {
        match self.phase {
            LibPhase::Operational => self.state.as_mut().ok_or(MigError::AwaitingMigration),
            LibPhase::AwaitingMigration => Err(MigError::AwaitingMigration),
            LibPhase::Frozen => Err(MigError::Frozen),
        }
    }

    // ------------------------------------------------------------------
    // Local attestation with the Migration Enclave
    // ------------------------------------------------------------------

    /// Processes the ME's DH Msg1, producing Msg2 (library initiates the
    /// attested channel; §VI-A: "This channel is opened when the
    /// Migration Library initializes itself").
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] on malformed input.
    pub fn me_attest_msg1(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        msg1_bytes: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let msg1 = DhMsg1::from_bytes(msg1_bytes)?;
        // The responder's claimed identity is verified cryptographically
        // in msg3; checking here fails fast on misconfiguration.
        if msg1.responder.mr_enclave != self.expected_me {
            return Err(MigError::PeerAuthenticationFailed(
                "migration enclave measurement",
            ));
        }
        let (initiator, msg2) = DhInitiator::start(env, &msg1);
        self.me_session = MeSession::Handshaking(initiator);
        Ok(msg2.to_bytes())
    }

    /// Processes the ME's DH Msg3, establishing the channel.
    ///
    /// # Errors
    ///
    /// [`MigError::PeerAuthenticationFailed`] if the attested peer is not
    /// the expected Migration Enclave; [`MigError::Protocol`] if no
    /// handshake is in progress.
    pub fn me_attest_msg3(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        msg3_bytes: &[u8],
    ) -> Result<(), MigError> {
        let msg3 = DhMsg3::from_bytes(msg3_bytes)?;
        let initiator = match std::mem::replace(&mut self.me_session, MeSession::None) {
            MeSession::Handshaking(initiator) => initiator,
            other => {
                self.me_session = other;
                return Err(MigError::Protocol("no ME handshake in progress"));
            }
        };
        let (key, peer) = initiator.process_msg3(env, &msg3)?;
        if peer.mr_enclave != self.expected_me {
            return Err(MigError::PeerAuthenticationFailed(
                "migration enclave measurement",
            ));
        }
        self.me_session = MeSession::Established {
            channel: Box::new(SecureChannel::new(key, ChannelRole::Initiator)),
        };
        Ok(())
    }

    fn channel(&mut self) -> Result<&mut SecureChannel, MigError> {
        match &mut self.me_session {
            MeSession::Established { channel } => Ok(channel),
            _ => Err(MigError::NoMeSession),
        }
    }

    // ------------------------------------------------------------------
    // Migratable sealing (Listing 2)
    // ------------------------------------------------------------------

    /// Seals data under the MSK (`sgx_seal_migratable_data`).
    ///
    /// Unlike native sealing, no `EGETKEY` derivation is needed — the MSK
    /// is at hand — which is why the paper measures migratable sealing as
    /// *faster* than the standard functions (Fig. 4).
    ///
    /// # Errors
    ///
    /// [`MigError::Frozen`] / [`MigError::AwaitingMigration`] outside the
    /// operational phase.
    pub fn seal_migratable_data(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let aead = self.msk_aead()?;
        let mut nonce = [0u8; 12];
        env.random_bytes(&mut nonce);

        let mut header = WireWriter::new();
        header.u8(MIGSEAL_VERSION).array(&nonce).bytes(aad);
        let header = header.finish();
        let sealed_len = u32::try_from(plaintext.len() + TAG_LEN)
            .map_err(|_| MigError::Sgx(SgxError::InvalidParameter("plaintext")))?;

        // Header, ciphertext length, then the plaintext sealed in place:
        // one buffer of the blob's final size.
        let mut out = Vec::with_capacity(header.len() + 4 + plaintext.len() + TAG_LEN);
        out.extend_from_slice(&header);
        out.extend_from_slice(&sealed_len.to_le_bytes());
        out.extend_from_slice(plaintext);
        aead.seal_in_place(&nonce, &header, &mut out, header.len() + 4);
        Ok(out)
    }

    /// Unseals migratable data (`sgx_unseal_migratable_data`), returning
    /// `(plaintext, aad)`.
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] (MAC mismatch) on tampering or a blob sealed
    /// under a different MSK; phase errors as for sealing.
    pub fn unseal_migratable_data(
        &mut self,
        _env: &mut EnclaveEnv<'_>,
        blob: &[u8],
    ) -> Result<(Vec<u8>, Vec<u8>), MigError> {
        let aead = self.msk_aead()?;
        let mut r = WireReader::new(blob);
        let version = r.u8()?;
        if version != MIGSEAL_VERSION {
            return Err(MigError::Sgx(SgxError::Decode));
        }
        let nonce: [u8; 12] = r.array()?;
        let aad = r.bytes()?;
        // The authenticated header is exactly the bytes just parsed.
        let header = blob
            .get(..1 + 12 + 4 + aad.len())
            .ok_or(MigError::Sgx(SgxError::Decode))?;
        let ct = r.bytes()?;
        r.finish()?;

        let plaintext = aead
            .open(&nonce, header, ct)
            .map_err(|_| MigError::Sgx(SgxError::MacMismatch))?;
        Ok((plaintext, aad.to_vec()))
    }

    // ------------------------------------------------------------------
    // Migratable monotonic counters (Listing 2)
    // ------------------------------------------------------------------

    /// Creates a migratable counter (`sgx_create_migratable_counter`),
    /// returning the library-assigned counter id and the initial
    /// effective value (0).
    ///
    /// Mutates the Table II state, so the internal buffer is resealed
    /// (the extra cost the paper attributes to migratable create, §VII-B).
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] ([`SgxError::CounterQuotaExceeded`]) past 256
    /// counters; phase errors as above.
    pub fn create_migratable_counter(
        &mut self,
        env: &mut EnclaveEnv<'_>,
    ) -> Result<(u8, u32), MigError> {
        let state = self.operational_state_mut()?;
        let id = state
            .counters_active
            .iter()
            .position(|active| !active)
            .ok_or(MigError::Sgx(SgxError::CounterQuotaExceeded))?;
        let (uuid, value) = env.create_counter()?;
        let state = self.operational_state_mut()?;
        state.counters_active[id] = true; // mig-lint: allow(enclave-panic, "id is a position() into this same 256-slot array")
        state.counter_uuids[id] = uuid; // mig-lint: allow(enclave-panic, "id is a position() into this same 256-slot array")
        state.counter_offsets[id] = 0; // mig-lint: allow(enclave-panic, "id is a position() into this same 256-slot array")
        self.persist();
        Ok((id as u8, value))
    }

    /// Destroys a migratable counter (`sgx_destroy_migratable_counter`).
    ///
    /// # Errors
    ///
    /// [`MigError::UnknownCounterId`] for inactive ids; underlying
    /// platform errors propagate.
    pub fn destroy_migratable_counter(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        id: u8,
    ) -> Result<(), MigError> {
        let state = self.operational_state()?;
        // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        if !state.counters_active[id as usize] {
            return Err(MigError::UnknownCounterId);
        }
        let uuid = state.counter_uuids[id as usize]; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        env.destroy_counter(&uuid)?;
        let state = self.operational_state_mut()?;
        state.counters_active[id as usize] = false; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        state.counter_offsets[id as usize] = 0; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        self.persist();
        Ok(())
    }

    /// Increments a migratable counter (`sgx_increment_migratable_counter`),
    /// returning the new *effective* value (hardware + offset), with the
    /// §VI-B overflow check.
    ///
    /// # Errors
    ///
    /// [`MigError::UnknownCounterId`], [`MigError::EffectiveCounterOverflow`],
    /// or platform errors (a destroyed counter surfaces
    /// [`SgxError::CounterNotFound`] — the fork-detection signal).
    pub fn increment_migratable_counter(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        id: u8,
    ) -> Result<u32, MigError> {
        let state = self.operational_state()?;
        // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        if !state.counters_active[id as usize] {
            return Err(MigError::UnknownCounterId);
        }
        let uuid = state.counter_uuids[id as usize]; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        let offset = state.counter_offsets[id as usize]; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        let value = env.increment_counter(&uuid)?;
        value
            .checked_add(offset)
            .ok_or(MigError::EffectiveCounterOverflow)
    }

    /// Reads a migratable counter's effective value
    /// (`sgx_read_migratable_counter`).
    ///
    /// # Errors
    ///
    /// As for [`MigrationLibrary::increment_migratable_counter`].
    pub fn read_migratable_counter(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        id: u8,
    ) -> Result<u32, MigError> {
        let state = self.operational_state()?;
        // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        if !state.counters_active[id as usize] {
            return Err(MigError::UnknownCounterId);
        }
        let uuid = state.counter_uuids[id as usize]; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        let offset = state.counter_offsets[id as usize]; // mig-lint: allow(enclave-panic, "a u8 id always indexes within the 256-slot arrays")
        let value = env.read_counter(&uuid)?;
        value
            .checked_add(offset)
            .ok_or(MigError::EffectiveCounterOverflow)
    }

    // ------------------------------------------------------------------
    // Migration (Listing 1: migration_start; Fig. 2)
    // ------------------------------------------------------------------

    /// Starts an outgoing migration (`migration_start`).
    ///
    /// Per §V-C, in order:
    /// 1. freezes the library (further operations refused) and reseals
    ///    the Table II blob with the freeze flag set;
    /// 2. computes the effective value of every active counter;
    /// 3. **destroys all hardware counters**, requiring success for each
    ///    (fork prevention: obsolete blobs now reference dead counters);
    /// 4. builds the `MigrateRequest` for the local ME.
    ///
    /// Returns the request, which [`MigrationLibrary::write_sealed`]
    /// encrypts where the host receives it; the host must relay the
    /// ciphertext to the ME. The new (frozen) persistent blob is due
    /// ([`MigrationLibrary::write_persist`]), travels in the same ECALL
    /// response and must be stored before the request is relayed.
    ///
    /// # Errors
    ///
    /// [`MigError::NoMeSession`] without an attested ME channel; phase
    /// errors; platform counter errors.
    pub fn start_migration(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        destination: MachineId,
    ) -> Result<LibToMe, MigError> {
        // Validate phase and session before mutating anything.
        let _ = self.operational_state()?;
        if !self.has_me_session() {
            return Err(MigError::NoMeSession);
        }

        // (2) Effective values, with overflow checks.
        let state = self.state.as_ref().ok_or(MigError::NotInitialized)?;
        let mut effective = [0u32; COUNTER_SLOTS];
        let active: Vec<usize> = state.active_ids().collect();
        let uuids = state.counter_uuids;
        let offsets = state.counter_offsets;
        for &id in &active {
            let value = env.read_counter(&uuids[id])?; // mig-lint: allow(enclave-panic, "active_ids() yields indices into the COUNTER_SLOTS arrays")
            effective[id] = value // mig-lint: allow(enclave-panic, "active_ids() yields indices into the COUNTER_SLOTS arrays")
                .checked_add(offsets[id]) // mig-lint: allow(enclave-panic, "active_ids() yields indices into the COUNTER_SLOTS arrays")
                .ok_or(MigError::EffectiveCounterOverflow)?;
        }

        // (1) Freeze and persist before the counters disappear, so a crash
        // mid-migration leaves a blob that refuses to operate rather than
        // one that silently lost its counters.
        let state = self.state.as_mut().ok_or(MigError::NotInitialized)?;
        state.frozen = 1;
        self.phase = LibPhase::Frozen;
        self.persist();

        // (3) Destroy the hardware counters; each must succeed (§VI-B:
        // "The process does not proceed until it receives the SGX_SUCCESS
        // return code").
        for &id in &active {
            env.destroy_counter(&uuids[id])?; // mig-lint: allow(enclave-panic, "active_ids() yields indices into the COUNTER_SLOTS arrays")
        }

        // (4) Build and encrypt the Table I payload plus the staged bulk
        // state; above the ME's streaming threshold the bulk bytes will
        // be chunked over the remote channel rather than sent in one
        // message.
        let state = self.state.as_ref().ok_or(MigError::NotInitialized)?;
        let data = state.to_migration_data(&effective)?;
        Ok(LibToMe::MigrateRequest {
            destination,
            data,
            state: self.bulk_state.clone().unwrap_or_else(|| Arc::from([])),
        })
    }

    /// Appends `msg` for the local ME to `w`, sealed on the attested
    /// channel as a length-prefixed ciphertext: encoded and encrypted
    /// in place, so the state is copied once, into the output buffer.
    ///
    /// # Errors
    ///
    /// [`MigError::NoMeSession`] without an attested ME channel.
    pub fn write_sealed(&mut self, w: &mut WireWriter, msg: &LibToMe) -> Result<(), MigError> {
        self.channel()?
            .write_sealed(w, msg.encoded_len(), |w| msg.encode(w))
    }

    /// Processes an encrypted ME→library message.
    ///
    /// For [`MeToLib::IncomingMigration`] (destination side, phase
    /// [`LibPhase::AwaitingMigration`]): installs the MSK and counter
    /// offsets, creates fresh hardware counters (value 0) for every
    /// active id, reseals the Table II blob, and returns the encrypted
    /// `DONE` confirmation to relay back.
    ///
    /// For [`MeToLib::MigrationComplete`] (source side): returns `None`.
    ///
    /// # Errors
    ///
    /// Channel/authentication errors; [`MigError::Protocol`] for
    /// messages that do not fit the current phase.
    pub fn receive_me_message(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        ciphertext: &[u8],
    ) -> Result<Option<Vec<u8>>, MigError> {
        // The state is opened straight into the `Arc` the library keeps.
        let (head, body) = self
            .channel()?
            .open_split(ciphertext, MeToLib::INCOMING_HEAD_LEN)?;
        match MeToLib::from_split(&head, body)? {
            MeToLib::IncomingMigration { data, state } => {
                // Idempotent re-delivery: if the ME restarted after we
                // installed but before our DONE arrived, the same payload
                // is delivered again — acknowledge without reinstalling.
                if self.phase == LibPhase::Operational {
                    let state = self
                        .state
                        .as_ref()
                        .ok_or(MigError::Protocol("operational phase without state"))?;
                    let same = mig_crypto::ct::ct_eq(&state.msk, &data.msk)
                        && state.counters_active == data.counters_active
                        && state.counter_offsets == data.counter_values;
                    if same {
                        let done = LibToMe::Done.to_bytes();
                        return Ok(Some(self.channel()?.seal(&done)));
                    }
                    return Err(MigError::Protocol(
                        "incoming migration conflicts with installed state",
                    ));
                }
                if self.phase != LibPhase::AwaitingMigration {
                    return Err(MigError::Protocol(
                        "incoming migration while not awaiting one",
                    ));
                }
                let mut lib_state = LibraryState::from_migration_data(&data);
                // Fresh hardware counters start at 0; the transferred
                // effective values live on as offsets.
                for id in 0..COUNTER_SLOTS {
                    // mig-lint: allow(enclave-panic, "id ranges over 0..COUNTER_SLOTS")
                    if lib_state.counters_active[id] {
                        let (uuid, _zero) = env.create_counter()?;
                        lib_state.counter_uuids[id] = uuid; // mig-lint: allow(enclave-panic, "id ranges over 0..COUNTER_SLOTS")
                    }
                }
                self.msk_aead = Some(AesGcm::new(lib_state.msk));
                self.state = Some(lib_state);
                self.phase = LibPhase::Operational;
                // The migrated bulk state becomes this incarnation's
                // staged state: the app retrieves it to restore its
                // working set, and a further migration re-ships it.
                self.bulk_state = if state.is_empty() { None } else { Some(state) };
                self.persist();
                let done = LibToMe::Done.to_bytes();
                Ok(Some(self.channel()?.seal(&done)))
            }
            MeToLib::MigrationComplete => Ok(None),
        }
    }
}
