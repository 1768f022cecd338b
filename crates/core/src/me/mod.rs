//! The **Migration Enclave** (ME) — the per-machine trusted migration
//! manager (§V-B, §VI-A), structured as three layers under a thin ECALL
//! dispatch:
//!
//! * [`session`] — typed per-migration / per-nonce state machines
//!   ([`session::SenderFsm`] / [`session::ReceiverFsm`]) covering
//!   announce → chunk/delta → resume/retry → stored/delivered, with
//!   destination-side speculative restore as the one receiver;
//! * [`wire`] — sealing and pacing for one destination link: the
//!   `TRANSFER` frame every ME→ME message rides in, the adaptive
//!   chunk/window controller, and the deficit-round-robin scheduler
//!   ([`wire::LinkShaper`]);
//! * [`persist`] — the generation-numbered me-state checkpoint codec
//!   and the byte-budgeted delta-base LRU cache.
//!
//! One ME runs in each machine's management VM. It:
//!
//! * accepts local attestations from application enclaves and keeps one
//!   attested channel per application MRENCLAVE;
//! * on an outgoing `MigrateRequest`, mutually remote-attests the peer ME
//!   (same MRENCLAVE required), authenticates it as belonging to the same
//!   cloud operator via credential + transcript signatures, checks the
//!   migration policy, and forwards the migration data over the resulting
//!   secure channel;
//! * on an incoming transfer, matches the migrating enclave's MRENCLAVE
//!   to a locally attested enclave — forwarding immediately — or stores
//!   the data until such an enclave attests (§VI-A);
//! * retains outgoing migration data until the destination confirms
//!   delivery (`DONE`), per Fig. 2's error-handling rule.
//!
//! The ME is driven through its ECALL ABI ([`ops`]) by the untrusted
//! [`MeHost`](crate::host::MeHost); every input arrives over untrusted
//! channels and every secret crosses only inside attested channels.

pub mod persist;
pub mod session;
pub mod telemetry;
pub mod wire;

pub use session::{MeAction, ReceiverFsm, ReceiverRelease, SenderFsm, StreamProgress};
pub use telemetry::{LinkTelemetry, TelemetryReport};

use crate::error::MigError;
use crate::msgs::MeToLib;
use crate::operator::MeCredential;
use crate::policy::MigrationPolicy;
use crate::remote_attest::{transcript_bytes, RaConfig, RaInitiator, RaResponder, RaResponseQuote};
use crate::secure_channel::{ChannelRole, SecureChannel};
use crate::transfer::chunker::TransferNonce;
use crate::transfer::TransferConfig;
use mig_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use mig_crypto::gcm::TAG_LEN;
use mig_crypto::x25519::PublicKey;
use persist::GenerationCache;
use session::{OutStream, OutgoingMigration};
use sgx_sim::dh::{DhMsg2, DhResponder};
use sgx_sim::enclave::{EnclaveCode, EnclaveEnv};
use sgx_sim::ias::AttestationEvidence;
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner, MrEnclave};
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use wire::LinkShaper;

/// ECALL opcodes of the Migration Enclave.
pub mod ops {
    /// Generate the ME's transcript-signing keypair; returns the public key.
    pub const KEYGEN: u32 = 1;
    /// Provision credential, operator root, IAS key, and policy.
    pub const PROVISION: u32 = 2;
    /// Begin a local-attestation session (returns DH Msg1).
    pub const LA_START: u32 = 3;
    /// Complete a local attestation (processes Msg2, returns Msg3 + info).
    pub const LA_MSG2: u32 = 4;
    /// Deliver an encrypted library→ME message.
    pub const LIB_MSG: u32 = 5;
    /// Remote attestation: incoming hello (destination side).
    pub const RA_HELLO: u32 = 6;
    /// Remote attestation: response received (source side).
    pub const RA_RESPONSE: u32 = 7;
    /// Remote attestation: finish received (destination side).
    pub const RA_FINISH: u32 = 8;
    /// Encrypted ME→ME message received (destination side): one sealed
    /// message, verified and handled in one enclave transition.
    pub const TRANSFER: u32 = 9;
    /// Encrypted ME→ME acknowledgement received (source side).
    pub const ACK: u32 = 10;
    /// Re-dispatch retained migration data, optionally to a new
    /// destination (Fig. 2's error rule: "the migration data remains in
    /// the Migration Enclave on the source machine until the error is
    /// resolved or another destination machine is selected").
    pub const RETRY: u32 = 11;
    /// Seal the ME's durable state (identity, credential, retained
    /// migration data) for storage by the untrusted host, so retained
    /// data survives management-VM restarts.
    pub const PERSIST: u32 = 12;
    /// Restore the ME's durable state after a restart. Attested sessions
    /// and channels are ephemeral and must be re-established.
    pub const RESTORE: u32 = 13;
    /// Streaming-transfer progress query for a retained outgoing
    /// migration (diagnostics / resumable-migration orchestration).
    pub const STREAM_STAT: u32 = 14;
    /// Adaptive-controller state query for a destination link
    /// (diagnostics: current chunk size and send window).
    pub const LINK_STAT: u32 = 15;
    /// Export the ME's telemetry: migration counters, live wire-layer
    /// gauges, and the quarantine ledger (trace ids only — one-way
    /// hashes of the transfer nonce; the nonce never leaves the
    /// enclave). Read-only.
    pub const TELEMETRY: u32 = 16;
    /// Host-directed discard of staged **incoming** migration state for
    /// one enclave measurement (supervisor graceful degradation).
    /// Refused once the data has been handed to the destination
    /// library, so an abort can never race a completed delivery into a
    /// double release.
    pub const ABORT: u32 = 17;
}

/// The canonical Migration Enclave image. Identical on every machine, as
/// required for the MRENCLAVE-equality check during ME↔ME attestation.
#[must_use]
pub fn me_image() -> EnclaveImage {
    static IMAGE: OnceLock<EnclaveImage> = OnceLock::new();
    IMAGE
        .get_or_init(|| {
            let signer = EnclaveSigner::from_seed(*b"sgx-migrate me reference signer!");
            EnclaveImage::build(
                "sgx-migrate.migration-enclave",
                1,
                b"migration enclave reference implementation",
                &signer,
            )
        })
        .clone()
}

/// Writes an optional byte string (flag + length-prefixed bytes).
pub(crate) fn write_opt(w: &mut WireWriter, value: Option<&[u8]>) {
    match value {
        None => {
            w.u8(0);
        }
        Some(bytes) => {
            w.u8(1);
            w.bytes(bytes);
        }
    }
}

/// Encoded length of an optional byte string written by [`write_opt`].
pub(crate) fn opt_len(value: Option<&[u8]>) -> usize {
    1 + value.map_or(0, |bytes| 4 + bytes.len())
}

/// Reads an optional byte string, borrowed from the reader's buffer.
pub(crate) fn read_opt<'a>(r: &mut WireReader<'a>) -> Result<Option<&'a [u8]>, SgxError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.bytes()?)),
        _ => Err(SgxError::Decode),
    }
}

/// Encoded length of `Some(ciphertext)` of `msg` as [`write_sealed_opt`]
/// writes it.
pub(crate) fn sealed_opt_len(msg: &MeToLib) -> usize {
    1 + 4 + msg.encoded_len() + TAG_LEN
}

/// Writes `Some(ciphertext)` of `msg` sealed on `channel` — the bytes
/// [`write_opt`] gives that ciphertext — by encoding the message behind
/// its length prefix and sealing it in place inside `w`'s buffer: the
/// ECALL output is the one buffer the state is copied into.
pub(crate) fn write_sealed_opt(
    w: &mut WireWriter,
    channel: &mut SecureChannel,
    msg: &MeToLib,
) -> Result<(), MigError> {
    w.u8(1);
    channel.write_sealed(w, msg.encoded_len(), |w| msg.encode(w))
}

/// The authenticated RA response: responder's key+quote plus operator
/// credential and transcript signature (§V-B's "exchange signatures on
/// the transcript of the attestation protocol").
#[derive(Clone, Debug)]
pub struct RaResponseAuth {
    /// Responder's ephemeral key and quote.
    pub response: RaResponseQuote,
    /// Responder's operator credential.
    pub credential: MeCredential,
    /// Signature over `transcript || "R"` under the credentialed key.
    pub signature: Signature,
}

impl RaResponseAuth {
    /// Serializes for transport.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bytes(&self.response.to_bytes());
        w.bytes(&self.credential.to_bytes());
        w.array(&self.signature.0);
        w.finish()
    }

    /// Parses from bytes.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let response = RaResponseQuote::from_bytes(r.bytes()?)?;
        let credential = MeCredential::from_bytes(r.bytes()?)?;
        let signature = Signature(r.array::<64>()?);
        r.finish()?;
        Ok(RaResponseAuth {
            response,
            credential,
            signature,
        })
    }
}

/// The initiator's closing authentication message.
#[derive(Clone, Debug)]
pub struct RaFinishAuth {
    /// Initiator's operator credential.
    pub credential: MeCredential,
    /// Signature over `transcript || "I"` under the credentialed key.
    pub signature: Signature,
}

impl RaFinishAuth {
    /// Serializes for transport.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bytes(&self.credential.to_bytes());
        w.array(&self.signature.0);
        w.finish()
    }

    /// Parses from bytes.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let credential = MeCredential::from_bytes(r.bytes()?)?;
        let signature = Signature(r.array::<64>()?);
        r.finish()?;
        Ok(RaFinishAuth {
            credential,
            signature,
        })
    }
}

pub(crate) struct MeConfig {
    pub(crate) operator_root: VerifyingKey,
    pub(crate) ias_key: VerifyingKey,
    pub(crate) credential: MeCredential,
    pub(crate) policy: MigrationPolicy,
    pub(crate) transfer: TransferConfig,
}

struct PendingInbound {
    key: [u8; 16],
    g_i: PublicKey,
    g_r: PublicKey,
}

/// The Migration Enclave's trusted state and logic.
///
/// Construct with [`MigrationEnclave::new`], load with
/// [`me_image`], then drive through [`ops`]. The migration-protocol
/// handlers live in [`session`], framing policy in [`wire`], and the
/// durable-state codec in [`persist`]; this type holds the state they
/// share and the attestation glue.
#[derive(Default)]
pub struct MigrationEnclave {
    pub(crate) signing: Option<SigningKey>,
    pub(crate) config: Option<MeConfig>,
    /// In-progress local attestations, keyed by host-chosen token.
    la_handshakes: HashMap<Vec<u8>, DhResponder>,
    /// Attested channels to local application enclaves, by MRENCLAVE
    /// (§VI-A: sessions are matched to enclaves by measurement).
    pub(crate) local_sessions: HashMap<MrEnclave, SecureChannel>,
    /// Outgoing migrations retained until the destination confirms,
    /// each wrapped in its [`SenderFsm`].
    pub(crate) outgoing: HashMap<MrEnclave, OutgoingMigration>,
    /// In-progress outbound RA handshakes, keyed by requested destination.
    pub(crate) ra_out_pending: HashMap<MachineId, RaInitiator>,
    /// Inbound RA sessions awaiting the finish message.
    ra_in_pending: HashMap<MachineId, PendingInbound>,
    /// Established channels to destination MEs (this side initiated).
    pub(crate) channels_out: HashMap<MachineId, SecureChannel>,
    /// Established channels from source MEs (this side responded).
    pub(crate) channels_in: HashMap<MachineId, SecureChannel>,
    /// Incoming migration data (Table I payload + bulk state) stored
    /// until a matching enclave attests.
    pub(crate) pending_incoming:
        HashMap<MrEnclave, (crate::library::state::MigrationData, Arc<[u8]>, MachineId)>,
    /// Delivered incoming data awaiting the library's DONE.
    pub(crate) awaiting_done: HashMap<MrEnclave, MachineId>,
    /// Chunked transfers in reception, keyed by transfer nonce — each a
    /// [`ReceiverFsm`] staging the verified prefix.
    pub(crate) inbound: HashMap<TransferNonce, ReceiverFsm>,
    /// Transient send side of each announced outgoing stream: its chunk
    /// cache (chain MACs precomputed), its delta manifest, and the page
    /// digests of the generation it installs. Rebuilt on demand after a
    /// restore.
    pub(crate) out_streams: HashMap<MrEnclave, OutStream>,
    /// Last state generation held per enclave measurement (both roles:
    /// what we last shipped out and what we last received). Persisted;
    /// the delta base for repeat migrations. LRU-evicted beyond
    /// [`TransferConfig::cache_budget`].
    pub(crate) cache: GenerationCache,
    /// Per-destination wire-layer state ([`LinkShaper`]: adaptive
    /// controller and DRR scheduler). Ephemeral — a restarted ME
    /// re-seeds them from the provisioned config.
    pub(crate) shapers: HashMap<MachineId, LinkShaper>,
    /// Migration telemetry counters and the quarantine ledger, exported
    /// via [`ops::TELEMETRY`]. Ephemeral by design (see [`telemetry`]).
    pub(crate) telemetry: telemetry::MeTelemetry,
}

impl std::fmt::Debug for MigrationEnclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrationEnclave")
            .field("provisioned", &self.config.is_some())
            .field("local_sessions", &self.local_sessions.len())
            .field("outgoing", &self.outgoing.len())
            .field("pending_incoming", &self.pending_incoming.len())
            .finish_non_exhaustive()
    }
}

impl MigrationEnclave {
    /// Creates an unprovisioned ME.
    #[must_use]
    pub fn new() -> Self {
        MigrationEnclave::default()
    }

    pub(crate) fn config(&self) -> Result<&MeConfig, MigError> {
        self.config.as_ref().ok_or(MigError::NotInitialized)
    }

    fn signing(&self) -> Result<&SigningKey, MigError> {
        self.signing.as_ref().ok_or(MigError::NotInitialized)
    }

    fn ra_config(&self, env: &EnclaveEnv<'_>) -> Result<RaConfig, MigError> {
        Ok(RaConfig {
            ias_key: self.config()?.ias_key,
            // Peer MEs must run the exact same ME build (§VI-A).
            expected_mr_enclave: env.identity().mr_enclave,
        })
    }

    /// Verifies a peer credential + transcript signature + policy.
    fn authenticate_peer(
        &self,
        credential: &MeCredential,
        claimed_machine: MachineId,
        transcript: &[u8],
        role_tag: &[u8],
        signature: &Signature,
    ) -> Result<(), MigError> {
        let cfg = self.config()?;
        credential.verify(&cfg.operator_root)?;
        if credential.machine != claimed_machine {
            return Err(MigError::PeerAuthenticationFailed(
                "credential machine mismatch",
            ));
        }
        let mut signed = transcript.to_vec();
        signed.extend_from_slice(role_tag);
        credential
            .me_key
            .verify(&signed, signature)
            .map_err(|_| MigError::PeerAuthenticationFailed("transcript signature"))?;
        cfg.policy.check(&cfg.credential, credential)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Attestation + provisioning opcode handlers
    // ------------------------------------------------------------------

    fn op_keygen(&mut self, env: &mut EnclaveEnv<'_>) -> Result<Vec<u8>, MigError> {
        let mut seed = [0u8; 32];
        env.random_bytes(&mut seed);
        let key = SigningKey::from_seed(seed);
        let public = key.verifying_key();
        self.signing = Some(key);
        Ok(public.0.to_vec())
    }

    fn op_provision(&mut self, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let credential = MeCredential::from_bytes(r.bytes()?)?;
        let operator_root = VerifyingKey(r.array()?);
        let ias_key = VerifyingKey(r.array()?);
        let policy = MigrationPolicy::from_bytes(r.bytes()?)?;
        let transfer = TransferConfig::decode(&mut r)?;
        r.finish()?;

        // The credential must certify *our* signing key under the root we
        // are being provisioned with.
        let signing = self.signing()?;
        if credential.me_key != signing.verifying_key() {
            return Err(MigError::PeerAuthenticationFailed(
                "credential does not match our key",
            ));
        }
        credential.verify(&operator_root)?;
        self.config = Some(MeConfig {
            operator_root,
            ias_key,
            credential,
            policy,
            transfer,
        });
        Ok(vec![])
    }

    fn op_la_start(&mut self, env: &mut EnclaveEnv<'_>, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let token = r.bytes_vec()?;
        r.finish()?;
        let (responder, msg1) = DhResponder::start(env);
        self.la_handshakes.insert(token, responder);
        Ok(msg1.to_bytes())
    }

    fn op_la_msg2(&mut self, env: &mut EnclaveEnv<'_>, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let token = r.bytes_vec()?;
        let msg2 = DhMsg2::from_bytes(r.bytes()?)?;
        r.finish()?;

        let responder = self
            .la_handshakes
            .remove(&token)
            .ok_or(MigError::Protocol("unknown local-attestation token"))?;
        let (msg3, key, peer) = responder.process_msg2(env, &msg2)?;
        let mr = peer.mr_enclave;
        let mut channel = SecureChannel::new(key, ChannelRole::Responder);

        // If migration data for this measurement is parked, forward it now
        // (§VI-A: "the migration data will be stored until an enclave with
        // the matching MRENCLAVE value performs a local attestation"). The
        // parked copy is retained until the library confirms with DONE, so
        // an ME restart between forward and confirmation loses nothing.
        let forward = self.pending_incoming.get(&mr).map(|(data, state, source)| {
            let msg = MeToLib::IncomingMigration {
                data: data.clone(),
                state: Arc::clone(state),
            };
            (msg, *source)
        });
        let msg3 = msg3.to_bytes();
        let forward_len = forward
            .as_ref()
            .map_or_else(|| opt_len(None), |(msg, _)| sealed_opt_len(msg));
        let mut w = WireWriter::with_capacity(4 + msg3.len() + 32 + forward_len);
        w.bytes(&msg3);
        w.array(&mr.0);
        match forward {
            Some((msg, source)) => {
                write_sealed_opt(&mut w, &mut channel, &msg)?;
                self.awaiting_done.insert(mr, source);
            }
            None => write_opt(&mut w, None),
        }
        self.local_sessions.insert(mr, channel);
        Ok(w.finish())
    }

    fn op_ra_hello(&mut self, env: &mut EnclaveEnv<'_>, input: &[u8]) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let source = MachineId(r.u64()?);
        let g_i = PublicKey(r.array()?);
        let evidence = AttestationEvidence::from_bytes(r.bytes()?)?;
        r.finish()?;

        let cfg = self.ra_config(env)?;
        let (session, response) = RaResponder::respond(env, &cfg, g_i, &evidence)?;
        let (g_i, g_r) = session.keys();
        let mut signed = transcript_bytes(&g_i, &g_r, &env.identity().mr_enclave);
        signed.extend_from_slice(b"R");
        let auth = RaResponseAuth {
            response,
            credential: self.config()?.credential.clone(),
            signature: self.signing()?.sign(&signed),
        };
        self.ra_in_pending.insert(
            source,
            PendingInbound {
                key: session.session_key(),
                g_i,
                g_r,
            },
        );
        Ok(auth.to_bytes())
    }

    fn op_ra_response(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let destination = MachineId(r.u64()?);
        let g_r = PublicKey(r.array()?);
        let evidence = AttestationEvidence::from_bytes(r.bytes()?)?;
        let credential = MeCredential::from_bytes(r.bytes()?)?;
        let signature = Signature(r.array::<64>()?);
        r.finish()?;

        let session = self
            .ra_out_pending
            .remove(&destination)
            .ok_or(MigError::Protocol("no RA handshake for destination"))?;
        let g_i = session.g_i();
        let cfg = self.ra_config(env)?;
        let key = session.process_response(&cfg, g_r, &evidence)?;

        let transcript = transcript_bytes(&g_i, &g_r, &env.identity().mr_enclave);
        self.authenticate_peer(&credential, destination, &transcript, b"R", &signature)?;

        // Channel up: authenticate ourselves and send the queued
        // migrations (up to the stream cap; the rest of the queue drains
        // as Delivered/Stored acks free stream slots — see `op_ack`).
        let mut signed = transcript;
        signed.extend_from_slice(b"I");
        let finish = RaFinishAuth {
            credential: self.config()?.credential.clone(),
            signature: self.signing()?.sign(&signed),
        };
        self.channels_out
            .insert(destination, SecureChannel::new(key, ChannelRole::Initiator));
        // The link's wire state starts with its channel, so `LINK_STAT`
        // and telemetry report every link, streamed over or not.
        let transfer_cfg = self.config()?.transfer;
        self.shapers
            .entry(destination)
            .or_insert_with(|| LinkShaper::new(&transfer_cfg));
        let frames = self.send_unsent(env, destination)?;

        let finish = finish.to_bytes();
        let mut w = WireWriter::with_capacity(4 + finish.len() + session::list_len(&frames));
        w.bytes(&finish);
        session::write_list(&mut w, &frames);
        Ok(w.finish())
    }

    /// RA finish with access to the enclave's own identity.
    fn op_ra_finish(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        input: &[u8],
    ) -> Result<Vec<u8>, MigError> {
        let mut r = WireReader::new(input);
        let source = MachineId(r.u64()?);
        let finish = RaFinishAuth::from_bytes(r.bytes()?)?;
        r.finish()?;

        let pending = self
            .ra_in_pending
            .remove(&source)
            .ok_or(MigError::Protocol("no inbound RA session"))?;
        let transcript = transcript_bytes(&pending.g_i, &pending.g_r, &env.identity().mr_enclave);
        self.authenticate_peer(
            &finish.credential,
            source,
            &transcript,
            b"I",
            &finish.signature,
        )?;
        self.channels_in.insert(
            source,
            SecureChannel::new(pending.key, ChannelRole::Responder),
        );
        Ok(vec![])
    }
}

impl EnclaveCode for MigrationEnclave {
    fn ecall(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let result = match opcode {
            ops::KEYGEN => self.op_keygen(env),
            ops::PROVISION => self.op_provision(input),
            ops::LA_START => self.op_la_start(env, input),
            ops::LA_MSG2 => self.op_la_msg2(env, input),
            ops::LIB_MSG => self.op_lib_msg(env, input),
            ops::RA_HELLO => self.op_ra_hello(env, input),
            ops::RA_RESPONSE => self.op_ra_response(env, input),
            ops::RA_FINISH => self.op_ra_finish(env, input),
            ops::TRANSFER => self.op_transfer(env, input),
            ops::ACK => self.op_ack(env, input),
            ops::RETRY => self.op_retry(env, input),
            ops::PERSIST => self.op_persist(env),
            ops::RESTORE => self.op_restore(env, input),
            // Read-only diagnostics: a host polling these mid-stream
            // must never inflate a migration's per-trace transition
            // tally (they are not transfer work).
            ops::STREAM_STAT => {
                env.exclude_transition_attribution();
                self.op_stream_stat(input)
            }
            ops::LINK_STAT => {
                env.exclude_transition_attribution();
                self.op_link_stat(input)
            }
            ops::TELEMETRY => {
                env.exclude_transition_attribution();
                self.op_telemetry()
            }
            ops::ABORT => self.op_abort(input),
            _ => Err(MigError::Protocol("unknown opcode")),
        };
        result.map_err(SgxError::from)
    }
}
