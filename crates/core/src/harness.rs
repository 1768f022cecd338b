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

/// Encodes the uniform ECALL response envelope: payload + optional
/// persist blob, in one buffer of its final size (the one copy the
/// ECALL boundary costs).
fn envelope(payload: &[u8], persist: Option<&[u8]>) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(4 + payload.len() + crate::me::opt_len(persist));
    w.bytes(payload);
    crate::me::write_opt(&mut w, persist);
    w.finish()
}

/// Decodes the response envelope (host side), borrowing the payload and
/// the persist blob from `bytes`.
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input.
pub fn open_envelope(bytes: &[u8]) -> Result<(&[u8], Option<&[u8]>), SgxError> {
    let mut r = WireReader::new(bytes);
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
                // The request is sealed in place inside the envelope, so
                // the state is copied once, into the buffer that leaves
                // the enclave.
                let lib = self.lib_mut()?;
                let request = lib.start_migration(env, destination)?;
                let persist = lib.take_persist();
                let mut w = WireWriter::with_capacity(
                    4 + request.encoded_len() + TAG_LEN + crate::me::opt_len(persist.as_deref()),
                );
                lib.write_sealed(&mut w, &request)?;
                crate::me::write_opt(&mut w, persist.as_deref());
                return Ok(w.finish());
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
                let lib = self.lib.as_mut().ok_or(MigError::NotInitialized)?;
                let persist = lib.take_persist();
                let bulk = lib.bulk_state();
                let payload_len = crate::me::opt_len(bulk);
                let mut w = WireWriter::with_capacity(
                    4 + payload_len + crate::me::opt_len(persist.as_deref()),
                );
                w.u32(
                    u32::try_from(payload_len)
                        .map_err(|_| MigError::Transfer("message exceeds wire limit"))?,
                );
                crate::me::write_opt(&mut w, bulk);
                crate::me::write_opt(&mut w, persist.as_deref());
                return Ok(w.finish());
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
        let persist = self.lib.as_mut().and_then(MigrationLibrary::take_persist);
        Ok(envelope(&payload, persist.as_deref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trip() {
        let enc = envelope(b"payload", Some(b"persist me"));
        assert_eq!(enc.capacity(), enc.len());
        let (payload, persist) = open_envelope(&enc).unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(persist.unwrap(), b"persist me");

        let enc = envelope(b"", None);
        let (payload, persist) = open_envelope(&enc).unwrap();
        assert!(payload.is_empty());
        assert!(persist.is_none());
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
