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
//! Table II (a counter created or destroyed, the freeze, an installed
//! migration, a new library) marks the blob due; the ECALL response then
//! carries it ([`MigrationLibrary::write_persist`]), sealed where it lies
//! inside the buffer that leaves the enclave.
//!
//! The app's bulk state is a staged container ([`container`]): MSK
//! ciphertext already, which the host stores like any other file of the
//! app (§V-C). Staging marks the container's changed pages due, and the
//! ECALL response carries those pages as they are
//! ([`MigrationLibrary::write_pages`]); a `PUT` that reseals two
//! segments hands the host a few pages, not the store, and the
//! container's writer reseals them where they lie in the staged
//! buffer. A restored library stages nothing until the app loads its
//! container again. A host whose page or blob write failed asks for
//! everything again ([`MigrationLibrary::refile`]) before its next call.

pub mod container;
pub mod state;

use crate::error::MigError;
use crate::msgs::{LibToMe, MeToLib};
use crate::secure_channel::{ChannelRole, SecureChannel};
use crate::transfer::delta::PAGE_SIZE;
use container::SealedContainer;
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
use std::ops::Range;
use std::sync::Arc;

/// AAD tag binding sealed blobs to their role as library state.
pub(crate) const STATE_AAD: &[u8] = b"sgx-migrate.library-state.v1";
/// Format version byte of migratable sealed blobs.
const MIGSEAL_VERSION: u8 = 1;

/// Bytes a migratable-sealed blob carries ahead of its ciphertext, for
/// an `aad_len`-byte AAD: the format version, the nonce, the
/// length-prefixed AAD and the ciphertext's `u32` length. The blob ends
/// with the AES-GCM tag ([`TAG_LEN`] bytes).
#[must_use]
pub const fn migratable_header_len(aad_len: usize) -> usize {
    1 + 12 + 4 + aad_len + 4
}

/// Length of the migratable-sealed blob of `plain_len` plaintext bytes
/// under an `aad_len`-byte AAD.
#[must_use]
pub const fn migratable_sealed_size(aad_len: usize, plain_len: usize) -> usize {
    migratable_header_len(aad_len) + plain_len + TAG_LEN
}

/// Bytes of the staged container per page the host stores.
const PAGE: usize = PAGE_SIZE as usize;

/// Page `page`'s byte range in a staged container of `len` bytes: every
/// page is [`PAGE_SIZE`] bytes but the last, which holds the rest.
#[must_use]
pub fn page_range(len: usize, page: u32) -> std::ops::Range<usize> {
    let start = page as usize * PAGE;
    start.min(len)..(start + PAGE).min(len)
}

/// The pages of the staged container the host does not hold yet.
#[derive(Debug, Default)]
enum DuePages {
    /// The host holds every page.
    #[default]
    None,
    /// These pages (ascending, distinct) changed.
    Some(Vec<u32>),
    /// The container is new to the host: every page, and its length
    /// (0 when nothing is staged, so the host drops its pages).
    All,
}

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
    /// Whether Table II changed since the last ECALL response carried
    /// the sealed blob.
    persist_due: bool,
    /// Staged bulk state: the bytes of the app's staged container (on a
    /// migration target, the container that arrived with the
    /// migration), shipped on migration and stored by the host page by
    /// page. `Arc`-backed so that a container the app loads shares it;
    /// the container's writer patches it where it lies while the
    /// library holds the only reference.
    bulk_state: Option<Arc<[u8]>>,
    /// The number of the staged container (see [`SealedContainer`]).
    staged_id: Option<u64>,
    /// The number the next container gets.
    next_container: u64,
    /// The staged pages the host does not hold yet.
    pages_due: DuePages,
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
                    state: Some(LibraryState::fresh(msk)),
                    msk_aead: Some(AesGcm::new(msk)),
                    phase: LibPhase::Operational,
                    persist_due: true,
                    ..Self::empty(expected_me)
                })
            }
            InitRequest::Restore { blob } => {
                let (plaintext, aad) = env.unseal_data(&blob)?;
                if aad != STATE_AAD {
                    return Err(MigError::Sgx(SgxError::Decode));
                }
                // The blob carries Table II only: the app restages its
                // container from the host's pages.
                let state = LibraryState::from_bytes(&plaintext)?;
                if state.frozen != 0 {
                    return Err(MigError::Frozen);
                }
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
                    msk_aead: Some(AesGcm::new(state.msk)),
                    state: Some(state),
                    phase: LibPhase::Operational,
                    ..Self::empty(expected_me)
                })
            }
            InitRequest::Migrate => Ok(Self::empty(expected_me)),
        }
    }

    /// A library awaiting a migration, with nothing staged or due.
    fn empty(expected_me: MrEnclave) -> Self {
        MigrationLibrary {
            expected_me,
            state: None,
            msk_aead: None,
            phase: LibPhase::AwaitingMigration,
            me_session: MeSession::None,
            persist_due: false,
            bulk_state: None,
            staged_id: None,
            next_container: 0,
            pages_due: DuePages::None,
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

    /// Marks all the host stores due again: the Table II blob and the
    /// staged container's every page (a frozen library's length of 0,
    /// so the host drops its pages). A host whose page or blob write
    /// failed asks for this (`REFILE`) before it goes on, so a page or
    /// blob it lost is not left behind the next `PUT`'s few pages. A
    /// restored library that stages nothing yet leaves the host's pages
    /// as they are: they are the store the app has still to load.
    pub fn refile(&mut self) {
        self.persist();
        if self.bulk_state.is_some() || self.phase == LibPhase::Frozen {
            self.pages_due = DuePages::All;
        }
    }

    /// Encoded length of what [`MigrationLibrary::write_persist`]
    /// writes now.
    #[must_use]
    pub fn persist_len(&self) -> usize {
        if self.persist_due && self.state.is_some() {
            1 + 4 + seal::sealed_size(STATE_AAD.len(), LibraryState::WIRE_SIZE)
        } else {
            1
        }
    }

    /// Writes the blob the host stores as an optional byte string:
    /// `None` when Table II did not change since the last ECALL response
    /// carried one, else the sealed Table II, written behind the blob's
    /// reserved header in `w`'s buffer and sealed where it lies.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] if the blob would not fit its `u32`
    /// length.
    pub fn write_persist(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        w: &mut WireWriter,
    ) -> Result<(), MigError> {
        let Some(state) = self.state.as_ref().filter(|_| self.persist_due) else {
            crate::me::write_opt(w, None);
            return Ok(());
        };
        let blob_len = seal::sealed_size(STATE_AAD.len(), LibraryState::WIRE_SIZE);
        w.u8(1);
        w.u32(
            u32::try_from(blob_len)
                .map_err(|_| MigError::Transfer("persist blob exceeds wire limit"))?,
        );
        let at = w.len();
        w.as_mut_vec()
            .resize(at + seal::sealed_header_len(STATE_AAD.len()), 0);
        w.as_mut_vec().extend_from_slice(&state.to_bytes());
        env.seal_data_in_place(KeyPolicy::MrEnclave, STATE_AAD, w.as_mut_vec(), at);
        self.persist_due = false;
        Ok(())
    }

    /// Encoded length of what [`MigrationLibrary::write_pages`] writes
    /// now.
    #[must_use]
    pub fn pages_len(&self) -> usize {
        let len = self.bulk_state.as_ref().map_or(0, |state| state.len());
        match &self.pages_due {
            DuePages::None => 1,
            DuePages::All => 1 + 8 + 4 + 4 * len.div_ceil(PAGE) + len,
            DuePages::Some(pages) => {
                1 + 8
                    + 4
                    + pages
                        .iter()
                        .map(|&page| 4 + page_range(len, page).len())
                        .sum::<usize>()
            }
        }
    }

    /// Writes the staged pages the host does not hold yet, as they are:
    /// a `0` flag when none is due, else `1`, the container's `u64`
    /// length, the `u32` count of pages, their `u32` numbers (ascending)
    /// and their bytes back to back. Every page is [`PAGE_SIZE`] bytes
    /// but the container's last, which holds the rest. A container new
    /// to the host (after a restage to a new length, an incoming
    /// migration or a `LOAD` of a container the library did not stage)
    /// goes whole; a frozen library, which stages nothing, writes a
    /// length of 0, so the host drops its pages.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] if a count would not fit its `u32`.
    pub fn write_pages(&mut self, w: &mut WireWriter) -> Result<(), MigError> {
        let state = self.bulk_state.as_deref().unwrap_or_default();
        let count =
            |n: usize| u32::try_from(n).map_err(|_| MigError::Transfer("pages exceed wire limit"));
        let pages = match std::mem::take(&mut self.pages_due) {
            DuePages::None => {
                w.u8(0);
                return Ok(());
            }
            DuePages::All => (0..count(state.len().div_ceil(PAGE))?).collect(),
            DuePages::Some(pages) => pages,
        };
        w.u8(1).u64(state.len() as u64).u32(count(pages.len())?);
        for &page in &pages {
            w.u32(page);
        }
        for &page in &pages {
            let bytes = state.get(page_range(state.len(), page)).unwrap_or_default();
            w.as_mut_vec().extend_from_slice(bytes);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bulk state (the streaming-transfer payload)
    // ------------------------------------------------------------------

    /// Stages a container the app opened ([`container::ContainerReader`])
    /// for migration and for the host to store, in place of any previous
    /// staging; the host gets it whole. Restaging the staged container
    /// itself (a `LOAD` of the container that just migrated in) changes
    /// nothing. A container the app writes is staged by
    /// [`container::ContainerWriter::finish`].
    ///
    /// # Errors
    ///
    /// Phase errors outside normal operation;
    /// [`MigError::Transfer`] for payloads beyond the streaming engine's
    /// [`crate::transfer::chunker::MAX_STREAM_LEN`].
    pub fn stage_bulk_state(
        &mut self,
        _env: &mut EnclaveEnv<'_>,
        container: &SealedContainer,
    ) -> Result<(), MigError> {
        let _ = self.operational_state()?;
        let bytes = &container.bytes;
        if bytes.len() as u64 > crate::transfer::chunker::MAX_STREAM_LEN {
            return Err(MigError::Transfer("bulk state exceeds stream limit"));
        }
        if self.staged_id != Some(container.id) {
            self.stage(Arc::clone(bytes), container.id, None);
        }
        Ok(())
    }

    /// Stages `bytes` as container `id` and marks the pages the host
    /// lacks due: the `ranges` a writer rewrote when it wrote over
    /// container `base` and that one is staged now at the same length,
    /// else the whole container.
    fn stage(&mut self, bytes: Arc<[u8]>, id: u64, rewritten: Option<(u64, &[Range<usize>])>) {
        let same_len = self.bulk_state.as_ref().map(|staged| staged.len()) == Some(bytes.len());
        match (rewritten, &mut self.pages_due) {
            (_, DuePages::All) => {}
            (Some((base, ranges)), due) if same_len && Some(base) == self.staged_id => {
                let mut pages = match std::mem::take(due) {
                    DuePages::Some(pages) => pages,
                    _ => Vec::new(),
                };
                for range in ranges.iter().filter(|range| !range.is_empty()) {
                    let first = range.start / PAGE;
                    let last = (range.end - 1) / PAGE;
                    pages.extend((first..=last).filter_map(|page| u32::try_from(page).ok()));
                }
                pages.sort_unstable();
                pages.dedup();
                *due = DuePages::Some(pages);
            }
            (_, due) => *due = DuePages::All,
        }
        self.bulk_state = Some(bytes);
        self.staged_id = Some(id);
    }

    /// The staged container's bytes, if container `id` is staged.
    fn staged_bytes(&self, id: u64) -> Option<&[u8]> {
        self.bulk_state
            .as_deref()
            .filter(|_| self.staged_id == Some(id))
    }

    /// The staged container, if the library stages exactly `bytes`.
    fn staged_as(&self, bytes: &[u8]) -> Option<SealedContainer> {
        let staged = self
            .bulk_state
            .as_ref()
            .filter(|staged| ***staged == *bytes)?;
        Some(SealedContainer {
            bytes: Arc::clone(staged),
            id: self.staged_id?,
        })
    }

    /// Numbers a new container.
    fn next_container_id(&mut self) -> u64 {
        self.next_container += 1;
        self.next_container
    }

    /// The currently staged bulk state, if any (on a migration target,
    /// the bulk state that arrived with the migration): the shared
    /// buffer itself.
    #[must_use]
    pub fn bulk_state(&self) -> Option<&Arc<[u8]>> {
        self.bulk_state.as_ref()
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

    /// Seals data under the MSK (`sgx_seal_migratable_data`) into one
    /// buffer of exactly [`migratable_sealed_size`] bytes (a copy of
    /// `plaintext` sealed with
    /// [`MigrationLibrary::seal_migratable_data_in_place`]).
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
        let mut blob = Vec::with_capacity(migratable_sealed_size(aad.len(), plaintext.len()));
        blob.resize(migratable_header_len(aad.len()), 0);
        blob.extend_from_slice(plaintext);
        self.seal_migratable_data_in_place(env, aad, &mut blob, 0)?;
        Ok(blob)
    }

    /// Seals under the MSK, in place, the plaintext a caller wrote behind
    /// [`migratable_header_len`]`(aad.len())` reserved bytes at offset
    /// `at` of `buf`: `buf[at..]` becomes the blob
    /// [`MigrationLibrary::seal_migratable_data`] would return, and
    /// `buf[..at]` is untouched. A fresh nonce is drawn per call. Reserve
    /// [`migratable_sealed_size`] bytes of capacity behind `at` up front
    /// and the appended tag never reallocates.
    ///
    /// # Errors
    ///
    /// Phase errors as for sealing; [`MigError::Sgx`]
    /// ([`SgxError::InvalidParameter`]) if `buf` is shorter than `at`
    /// plus the reserved header or the plaintext exceeds a `u32` length.
    pub fn seal_migratable_data_in_place(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        aad: &[u8],
        buf: &mut Vec<u8>,
        at: usize,
    ) -> Result<(), MigError> {
        let aead = self.msk_aead()?;
        let bad_buffer = || MigError::Sgx(SgxError::InvalidParameter("plaintext"));
        let start = at + migratable_header_len(aad.len());
        let plain_len = buf.len().checked_sub(start).ok_or_else(bad_buffer)?;
        let sealed_len = u32::try_from(plain_len + TAG_LEN).map_err(|_| bad_buffer())?;
        let mut nonce = [0u8; 12];
        env.random_bytes(&mut nonce);

        // The authenticated header, then the ciphertext's length.
        let mut header = WireWriter::with_capacity(start - at);
        header.u8(MIGSEAL_VERSION).array(&nonce).bytes(aad);
        let authenticated_len = header.len();
        header.u32(sealed_len);
        let header = header.finish();
        buf.get_mut(at..start)
            .ok_or_else(bad_buffer)?
            .copy_from_slice(&header);
        let authenticated = header.get(..authenticated_len).ok_or_else(bad_buffer)?;
        aead.seal_in_place(&nonce, authenticated, buf, start);
        Ok(())
    }

    /// Unseals migratable data (`sgx_unseal_migratable_data`), returning
    /// `(plaintext, aad)` (a fresh buffer filled by
    /// [`MigrationLibrary::unseal_migratable_data_into`]).
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`] (MAC mismatch) on tampering or a blob sealed
    /// under a different MSK; phase errors as for sealing.
    pub fn unseal_migratable_data(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        blob: &[u8],
    ) -> Result<(Vec<u8>, Vec<u8>), MigError> {
        let mut plaintext = Vec::new();
        let aad = self.unseal_migratable_data_into(env, blob, &mut plaintext)?;
        Ok((plaintext, aad.to_vec()))
    }

    /// Unseals migratable data into `out`: verifies `blob`, appends its
    /// plaintext behind the bytes already in `out`, and returns its AAD,
    /// borrowed from `blob`. The tag is verified before anything is
    /// decrypted, so on any error `out` holds exactly what it held.
    ///
    /// # Errors
    ///
    /// As [`MigrationLibrary::unseal_migratable_data`].
    pub fn unseal_migratable_data_into<'b>(
        &mut self,
        _env: &mut EnclaveEnv<'_>,
        blob: &'b [u8],
        out: &mut Vec<u8>,
    ) -> Result<&'b [u8], MigError> {
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
        let sealed = r.bytes()?;
        r.finish()?;

        let mac_mismatch = || MigError::Sgx(SgxError::MacMismatch);
        let plain_len = sealed.len().checked_sub(TAG_LEN).ok_or_else(mac_mismatch)?;
        let start = out.len();
        out.resize(start + plain_len, 0);
        let opened = out.get_mut(start..).is_some_and(|plaintext| {
            aead.open_scatter(&nonce, header, sealed, &mut [plaintext])
                .is_ok()
        });
        if !opened {
            out.truncate(start);
            return Err(mac_mismatch());
        }
        Ok(aad)
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
        // message. The frozen library stages nothing from here on, so
        // the host drops its pages, as nothing could load them.
        let state = self.state.as_ref().ok_or(MigError::NotInitialized)?;
        let data = state.to_migration_data(&effective)?;
        let bulk = self.bulk_state.take();
        self.staged_id = None;
        self.pages_due = DuePages::All;
        Ok(LibToMe::MigrateRequest {
            destination,
            data,
            state: bulk.unwrap_or_else(|| Arc::from([])),
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
                // working set, the host stores it whole, and a further
                // migration re-ships it.
                self.bulk_state = if state.is_empty() { None } else { Some(state) };
                self.staged_id = Some(self.next_container_id());
                self.pages_due = DuePages::All;
                self.persist();
                let done = LibToMe::Done.to_bytes();
                Ok(Some(self.channel()?.seal(&done)))
            }
            MeToLib::MigrationComplete => Ok(None),
        }
    }
}
