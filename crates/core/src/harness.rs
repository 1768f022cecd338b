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
//!   freshly resealed Table II blob whenever Table II changed, so the
//!   untrusted host can persist it (the paper's "handing the data in a
//!   sealed data blob over to the untrusted part", §VI-B), and the pages
//!   of the staged container that changed, which the host stores as the
//!   app's files.
//!
//! The envelope is one buffer of its final size,
//! `[0][u32 len][payload][persist?][pages?]`: a lead byte, the payload
//! behind its `u32` length, the persist blob as an optional byte string,
//! sealed where it lies ([`MigrationLibrary::write_persist`]), and the
//! optional pages section ([`MigrationLibrary::write_pages`]: the
//! container's length, the changed page numbers, then their bytes back
//! to back, MSK ciphertext as the container holds it). The payload sits
//! in the shape of a network frame (`[tag][u32 len][body]`, see
//! [`crate::host`]) with the lead byte as its tag slot, so a host relays
//! a payload it does not read (the sealed migration request) by writing
//! the wire tag over that byte and cutting off the rest, without copying
//! the payload. The request itself, and the bulk state `BULK_STATE`
//! returns, are written straight into the envelope: each crosses the
//! ECALL boundary in the one buffer it was written to.

use crate::error::MigError;
use crate::library::{page_range, InitRequest, LibPhase, MigrationLibrary};
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::enclave::{EnclaveCode, EnclaveEnv};
use sgx_sim::machine::MachineId;
use sgx_sim::measurement::MrEnclave;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::ops::Range;

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
    /// Hands the host all it stores again: the envelope carries the
    /// Table II blob and every staged page
    /// ([`crate::library::MigrationLibrary::refile`]).
    pub const REFILE: u32 = 0x1007;
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
/// [`finish_envelope`] appends the persist blob and the pages.
fn start_envelope(lib: Option<&MigrationLibrary>, payload_len: usize) -> WireWriter {
    let tail_len = lib.map_or(2, |lib| lib.persist_len() + lib.pages_len());
    let mut w = WireWriter::with_capacity(ENVELOPE_HEAD + payload_len + tail_len);
    w.u8(0);
    w
}

/// Finishes an envelope [`start_envelope`] began: checks the payload's
/// length and appends the library's persist blob, sealed in place when
/// one is due, and the staged pages that are due.
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
        Some(lib) => {
            lib.write_persist(env, &mut w)?;
            lib.write_pages(&mut w)?;
        }
        None => {
            crate::me::write_opt(&mut w, None);
            w.u8(0);
        }
    }
    Ok(w.finish())
}

/// An opened ECALL response envelope (host side), borrowed from its
/// bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// The payload, at [`ENVELOPE_HEAD`].
    pub payload: &'a [u8],
    /// The sealed Table II blob, when Table II changed.
    pub persist: Option<&'a [u8]>,
    /// The staged container's changed pages, when any are due.
    pub pages: Option<Pages<'a>>,
}

/// The pages section of an envelope: pages of the staged container, MSK
/// ciphertext as it holds them.
#[derive(Debug, PartialEq, Eq)]
pub struct Pages<'a> {
    /// The staged container's length (0: nothing is staged).
    pub container_len: u64,
    /// The changed pages' numbers, ascending.
    pub numbers: Vec<u32>,
    /// Their bytes, back to back.
    pub bytes: &'a [u8],
}

impl Pages<'_> {
    /// Each changed page's number and its bytes' range in
    /// [`Pages::bytes`].
    pub fn ranges(&self) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        let mut at = 0;
        self.numbers.iter().map(move |&page| {
            let len = page_range(self.container_len as usize, page).len();
            at += len;
            (page, at - len..at)
        })
    }

    /// The number of pages the container has.
    #[must_use]
    pub fn page_count(&self) -> usize {
        (self.container_len as usize).div_ceil(crate::transfer::delta::PAGE_SIZE as usize)
    }

    /// Whether the pages are the whole container (its bytes, in order).
    #[must_use]
    pub fn is_whole(&self) -> bool {
        self.numbers.len() == self.page_count()
    }
}

/// Decodes the response envelope (host side), borrowing the payload,
/// the persist blob and the pages from `bytes`.
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input, including page numbers that
/// are not ascending within the container or page bytes of another
/// length than those pages'.
pub fn open_envelope(bytes: &[u8]) -> Result<Envelope<'_>, SgxError> {
    let mut r = WireReader::new(bytes);
    if r.u8()? != 0 {
        return Err(SgxError::Decode);
    }
    let payload = r.bytes()?;
    let persist = crate::me::read_opt(&mut r)?;
    let pages = match r.u8()? {
        0 => None,
        1 => {
            let container_len = r.u64()?;
            let count = r.u32()? as usize;
            // Each number takes 4 bytes: bound the count by the input.
            let mut numbers = Vec::with_capacity(count.min(r.remaining() / 4));
            for _ in 0..count {
                numbers.push(r.u32()?);
            }
            let mut pages = Pages {
                container_len,
                numbers,
                bytes: &[],
            };
            let in_order = pages.numbers.windows(2).all(|w| w[0] < w[1]);
            let in_range = pages
                .numbers
                .last()
                .is_none_or(|&last| (last as usize) < pages.page_count());
            let len = pages.ranges().last().map_or(0, |(_, range)| range.end);
            if !in_order || !in_range || len != r.remaining() {
                return Err(SgxError::Decode);
            }
            pages.bytes = &bytes[bytes.len() - len..];
            Some(pages)
        }
        _ => return Err(SgxError::Decode),
    };
    Ok(Envelope {
        payload,
        persist,
        pages,
    })
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
            ops::REFILE => self.lib_mut().map(|lib| {
                lib.refile();
                Vec::new()
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
        let none = Envelope {
            payload: &[0],
            persist: None,
            pages: None,
        };
        assert_eq!(open_envelope(&out).unwrap(), none);

        // A fresh library's blob is due: sealed inside the envelope.
        let out = enclave
            .ecall(
                ops::MIG_INIT,
                &encode_init(&MrEnclave([1; 32]), &InitRequest::New),
            )
            .unwrap();
        assert_eq!(out.capacity(), out.len());
        let envelope = open_envelope(&out).unwrap();
        assert!(envelope.payload.is_empty());
        assert!(envelope.pages.is_none(), "a new library stages nothing");
        let header = sgx_sim::seal::parse_sealed_header(envelope.persist.unwrap()).unwrap();
        assert_eq!(header.aad, crate::library::STATE_AAD);

        // Nothing changed since: the next envelope carries no blob.
        let out = enclave.ecall(7, b"payload").unwrap();
        assert_eq!(out.capacity(), out.len());
        assert_eq!(out[..ENVELOPE_HEAD], [0, 7, 0, 0, 0]);
        let envelope = open_envelope(&out).unwrap();
        assert_eq!(envelope.payload, b"payload");
        assert!(envelope.persist.is_none() && envelope.pages.is_none());

        // The lead byte is part of the format.
        let mut bad = out.clone();
        bad[0] = 1;
        assert!(open_envelope(&bad).is_err());

        // A pages section: page 1 of a 5000-byte container (its last
        // 904 bytes), then pages 0 and 1, the whole container.
        let section = |numbers: &[u32], bytes: &[u8]| {
            let mut w = WireWriter::new();
            w.u8(0).bytes(b"p");
            crate::me::write_opt(&mut w, None);
            w.u8(1).u64(5000).u32(numbers.len() as u32);
            for &page in numbers {
                w.u32(page);
            }
            w.as_mut_vec().extend_from_slice(bytes);
            w.finish()
        };
        let container: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let out = section(&[1], &container[4096..]);
        let pages = open_envelope(&out).unwrap().pages.unwrap();
        assert!(!pages.is_whole());
        assert_eq!(pages.ranges().collect::<Vec<_>>(), [(1, 0..904)]);
        let out = section(&[0, 1], &container);
        let pages = open_envelope(&out).unwrap().pages.unwrap();
        assert!(pages.is_whole());
        assert_eq!(pages.bytes, container);
        // Numbers out of order or beyond the container, or bytes of
        // another length, do not decode.
        for (numbers, bytes) in [
            (&[1, 0][..], &container[..]),
            (&[2][..], &container[..904]),
            (&[0][..], &container[..4095]),
        ] {
            assert!(open_envelope(&section(numbers, bytes)).is_err());
        }
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
