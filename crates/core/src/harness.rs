//! The migratable-enclave harness: composes application enclave logic
//! with the Migration Library behind a uniform ECALL ABI.
//!
//! An application provides an [`AppLogic`] implementation; the harness
//! wraps it in a [`MigratableEnclave`], which:
//!
//! * routes migration-control opcodes ([`ops`]) to the embedded
//!   [`MigrationLibrary`];
//! * routes all other opcodes to the application, giving it an
//!   [`AppCtx`] with both the library (for migratable sealing/counters)
//!   and the raw [`EnclaveEnv`];
//! * wraps **every** ECALL response in an envelope that carries the
//!   freshly resealed Table II blob whenever the library state changed,
//!   so the untrusted host can persist it (the paper's "handing the data
//!   in a sealed data blob over to the untrusted part", §VI-B).
//!
//! The envelope is one buffer of its final size: a lead byte, the
//! payload behind its `u32` length, then the persist blob as an optional
//! byte string, sealed where it lies ([`MigrationLibrary::write_persist`]).
//! The payload sits in the shape of a network frame (`[tag][u32
//! len][body]`, see [`crate::host`]) with the lead byte as its tag slot,
//! so a host relays a payload it does not read (the sealed migration
//! request) by writing the wire tag over that byte and cutting off the
//! rest, without copying the payload. The request itself, and the bulk
//! state `BULK_STATE` returns, are written straight into the envelope:
//! each crosses the ECALL boundary in the one buffer it was written to.

use crate::error::MigError;
use crate::library::{InitRequest, LibPhase, MigrationLibrary};
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::enclave::{EnclaveCode, EnclaveEnv};
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

/// Migration-control opcodes (all ≥ `0x1000`; application opcodes must
/// stay below).
pub mod ops {
    /// `migration_init` (Listing 1).
    pub const MIG_INIT: u32 = 0x1000;
    /// Local-attestation Msg1 in, Msg2 out.
    pub const ME_MSG1: u32 = 0x1001;
    /// Local-attestation Msg3 in.
    pub const ME_MSG3: u32 = 0x1002;
    /// `migration_start` (Listing 1).
    pub const MIG_START: u32 = 0x1003;
    /// Encrypted ME→library message in; optional encrypted reply out.
    pub const ME_CT: u32 = 0x1004;
    /// Library phase query (diagnostics).
    pub const PHASE: u32 = 0x1005;
    /// Staged bulk state query: returns the optional bulk payload (on a
    /// migration target, the state that arrived with the migration).
    pub const BULK_STATE: u32 = 0x1006;
}

/// First application-reserved opcode.
pub const APP_OPCODE_LIMIT: u32 = 0x1000;

/// Application logic hosted inside a migratable enclave.
pub trait AppLogic: Send {
    /// Handles an application ECALL. `ctx` exposes the Migration Library
    /// and the enclave environment.
    ///
    /// # Errors
    ///
    /// Application-defined; crosses the ECALL boundary as [`SgxError`].
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError>;

    /// Exports the enclave's in-memory state (used by the Gu-style
    /// data-memory migration baseline; the persistent-state framework
    /// never calls this).
    fn export_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores in-memory state exported by [`AppLogic::export_state`].
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input.
    fn import_state(&mut self, _bytes: &[u8]) -> Result<(), SgxError> {
        Ok(())
    }
}

/// What an application ECALL can reach: the Migration Library and the
/// enclave environment.
pub struct AppCtx<'a, 'm> {
    /// The embedded Migration Library.
    pub lib: &'a mut MigrationLibrary,
    /// The current ECALL's enclave environment.
    pub env: &'a mut EnclaveEnv<'m>,
}

/// The enclave wrapper: Migration Library + application logic.
pub struct MigratableEnclave<A: AppLogic> {
    lib: Option<MigrationLibrary>,
    app: A,
}

impl<A: AppLogic> MigratableEnclave<A> {
    /// Wraps `app`; the library is created by the `MIG_INIT` ECALL.
    pub fn new(app: A) -> Self {
        MigratableEnclave { lib: None, app }
    }

    fn lib_mut(&mut self) -> Result<&mut MigrationLibrary, MigError> {
        self.lib.as_mut().ok_or(MigError::NotInitialized)
    }
}

/// Bytes in front of an envelope's payload: the lead byte (a host's
/// tag slot) and the payload's `u32` length.
pub const ENVELOPE_HEAD: usize = 1 + 4;

/// Starts the uniform ECALL response envelope for a `payload_len`-byte
/// payload: one buffer of its final size, with the lead byte written.
/// The caller writes the payload behind its `u32` length, then
/// [`finish_envelope`] appends the persist blob.
fn start_envelope(lib: Option<&MigrationLibrary>, payload_len: usize) -> WireWriter {
    let persist_len = lib.map_or(1, MigrationLibrary::persist_len);
    let mut w = WireWriter::with_capacity(ENVELOPE_HEAD + payload_len + persist_len);
    w.u8(0);
    w
}

/// Finishes an envelope [`start_envelope`] began: checks the payload's
/// length and appends the library's persist blob, sealed in place when
/// one is due.
fn finish_envelope(
    env: &mut EnclaveEnv<'_>,
    mut w: WireWriter,
    payload_len: usize,
    lib: Option<&mut MigrationLibrary>,
) -> Result<Vec<u8>, SgxError> {
    if w.len() != ENVELOPE_HEAD + payload_len {
        return Err(MigError::Transfer("message length mismatch").into());
    }
    match lib {
        Some(lib) => lib.write_persist(env, &mut w)?,
        None => crate::me::write_opt(&mut w, None),
    }
    Ok(w.finish())
}

/// Decodes the response envelope (host side), borrowing the payload and
/// the persist blob from `bytes`. The payload starts at
/// [`ENVELOPE_HEAD`].
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input.
pub fn open_envelope(bytes: &[u8]) -> Result<(&[u8], Option<&[u8]>), SgxError> {
    let mut r = WireReader::new(bytes);
    if r.u8()? != 0 {
        return Err(SgxError::Decode);
    }
    let payload = r.bytes()?;
    let persist = crate::me::read_opt(&mut r)?;
    r.finish()?;
    Ok((payload, persist))
}

/// Encodes a `MIG_INIT` request (host side).
#[must_use]
pub fn encode_init(expected_me: &MrEnclave, request: &InitRequest) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.array(&expected_me.0);
    match request {
        InitRequest::New => {
            w.u8(0);
        }
        InitRequest::Restore { blob } => {
            w.u8(1);
            w.bytes(blob);
        }
        InitRequest::Migrate => {
            w.u8(2);
        }
    }
    w.finish()
}

fn decode_init(input: &[u8]) -> Result<(MrEnclave, InitRequest), SgxError> {
    let mut r = WireReader::new(input);
    let expected_me = MrEnclave(r.array()?);
    let request = match r.u8()? {
        0 => InitRequest::New,
        1 => InitRequest::Restore {
            blob: r.bytes_vec()?,
        },
        2 => InitRequest::Migrate,
        _ => return Err(SgxError::Decode),
    };
    r.finish()?;
    Ok((expected_me, request))
}

impl<A: AppLogic> EnclaveCode for MigratableEnclave<A> {
    fn ecall(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let payload: Result<Vec<u8>, MigError> = match opcode {
            ops::MIG_INIT => {
                let (expected_me, request) = decode_init(input)?;
                let lib = MigrationLibrary::init(env, expected_me, request)?;
                self.lib = Some(lib);
                Ok(Vec::new())
            }
            ops::ME_MSG1 => self
                .lib_mut()
                .and_then(|lib| lib.me_attest_msg1(env, input)),
            ops::ME_MSG3 => self
                .lib_mut()
                .and_then(|lib| lib.me_attest_msg3(env, input).map(|()| Vec::new())),
            ops::MIG_START => {
                let mut r = WireReader::new(input);
                let destination = MachineId(r.u64()?);
                r.finish()?;
                // The payload is the request's ciphertext, sealed in
                // place inside the envelope: the state is copied once,
                // into the buffer that leaves the enclave, which the host
                // relays as the ME's frame.
                let lib = self.lib_mut()?;
                let request = lib.start_migration(env, destination)?;
                let sealed_len = request.encoded_len() + TAG_LEN;
                let mut w = start_envelope(Some(lib), sealed_len);
                lib.write_sealed(&mut w, &request)?;
                return finish_envelope(env, w, sealed_len, Some(lib));
            }
            ops::ME_CT => self.lib_mut().and_then(|lib| {
                lib.receive_me_message(env, input).map(|reply| {
                    let mut w = WireWriter::with_capacity(crate::me::opt_len(reply.as_deref()));
                    crate::me::write_opt(&mut w, reply.as_deref());
                    w.finish()
                })
            }),
            ops::PHASE => {
                let phase = match &self.lib {
                    None => 0u8,
                    Some(lib) => match lib.phase() {
                        LibPhase::Operational => 1,
                        LibPhase::AwaitingMigration => 2,
                        LibPhase::Frozen => 3,
                    },
                };
                Ok(vec![phase])
            }
            ops::BULK_STATE => {
                // The payload is written straight into the envelope, so
                // the state is copied once, into the buffer that leaves
                // the enclave.
                let lib = self.lib_mut()?;
                let payload_len = crate::me::opt_len(lib.bulk_state().map(|state| &**state));
                let mut w = start_envelope(Some(lib), payload_len);
                w.u32(
                    u32::try_from(payload_len)
                        .map_err(|_| MigError::Transfer("message exceeds wire limit"))?,
                );
                crate::me::write_opt(&mut w, lib.bulk_state().map(|state| &**state));
                return finish_envelope(env, w, payload_len, Some(lib));
            }
            app_opcode if app_opcode < APP_OPCODE_LIMIT => {
                let lib = self.lib.as_mut().ok_or(MigError::NotInitialized)?;
                let mut ctx = AppCtx { lib, env };
                self.app
                    .handle(&mut ctx, app_opcode, input)
                    .map_err(MigError::Sgx)
            }
            _ => Err(MigError::Protocol("unknown migration opcode")),
        };
        let payload = payload.map_err(SgxError::from)?;
        let mut w = start_envelope(self.lib.as_ref(), payload.len());
        w.bytes(&payload);
        finish_envelope(env, w, payload.len(), self.lib.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes its input as the payload.
    struct Echo;

    impl AppLogic for Echo {
        fn handle(
            &mut self,
            _ctx: &mut AppCtx<'_, '_>,
            _opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Ok(input.to_vec())
        }
    }

    fn echo_enclave() -> (
        sgx_sim::machine::SgxMachine,
        sgx_sim::enclave::EnclaveHandle,
    ) {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ias = sgx_sim::ias::AttestationService::new(&mut rng);
        let machine = sgx_sim::machine::SgxMachine::new(MachineId(1), &ias, &mut rng);
        let signer = sgx_sim::measurement::EnclaveSigner::from_seed([4; 32]);
        let image = sgx_sim::measurement::EnclaveImage::build("echo", 1, b"echo", &signer);
        let enclave = machine
            .load_enclave(&image, Box::new(MigratableEnclave::new(Echo)))
            .unwrap();
        (machine, enclave)
    }

    #[test]
    fn envelope_round_trip() {
        let (_machine, enclave) = echo_enclave();
        // Before MIG_INIT there is no library and so no persist.
        let out = enclave.ecall(ops::PHASE, &[]).unwrap();
        assert_eq!(open_envelope(&out).unwrap(), (&[0u8][..], None));

        // A fresh library's blob is due: sealed inside the envelope.
        let out = enclave
            .ecall(
                ops::MIG_INIT,
                &encode_init(&MrEnclave([1; 32]), &InitRequest::New),
            )
            .unwrap();
        assert_eq!(out.capacity(), out.len());
        let (payload, persist) = open_envelope(&out).unwrap();
        assert!(payload.is_empty());
        let header = sgx_sim::seal::parse_sealed_header(persist.unwrap()).unwrap();
        assert_eq!(header.aad, crate::library::STATE_AAD);

        // Nothing changed since: the next envelope carries no blob.
        let out = enclave.ecall(7, b"payload").unwrap();
        assert_eq!(out.capacity(), out.len());
        assert_eq!(out[..ENVELOPE_HEAD], [0, 7, 0, 0, 0]);
        let (payload, persist) = open_envelope(&out).unwrap();
        assert_eq!(payload, b"payload");
        assert!(persist.is_none());

        // The lead byte is part of the format.
        let mut bad = out.clone();
        bad[0] = 1;
        assert!(open_envelope(&bad).is_err());
    }

    #[test]
    fn init_encoding_round_trip() {
        let mr = MrEnclave([9; 32]);
        for request in [
            InitRequest::New,
            InitRequest::Restore {
                blob: vec![1, 2, 3],
            },
            InitRequest::Migrate,
        ] {
            let bytes = encode_init(&mr, &request);
            let (decoded_mr, decoded_req) = decode_init(&bytes).unwrap();
            assert_eq!(decoded_mr, mr);
            match (&request, &decoded_req) {
                (InitRequest::New, InitRequest::New) => {}
                (InitRequest::Restore { blob: a }, InitRequest::Restore { blob: b }) => {
                    assert_eq!(a, b);
                }
                (InitRequest::Migrate, InitRequest::Migrate) => {}
                _ => panic!("request kind changed in round trip"),
            }
        }
    }

    #[test]
    fn malformed_init_rejected() {
        assert!(decode_init(&[0u8; 3]).is_err());
        let mut bytes = encode_init(&MrEnclave([0; 32]), &InitRequest::New);
        bytes[32] = 9; // invalid kind
        assert!(decode_init(&bytes).is_err());
    }
}
