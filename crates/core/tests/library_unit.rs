//! Unit-level tests of the Migration Library driven through a bare
//! machine (no datacenter, no Migration Enclave) — the paths that do not
//! need the ME session: initialization, migratable sealing, and counter
//! bookkeeping, including all error paths.

use mig_core::harness::{
    encode_init, open_envelope, ops as lib_ops, AppCtx, AppLogic, MigratableEnclave,
};
use mig_core::library::container::ContainerWriter;
use mig_core::library::{migratable_header_len, migratable_sealed_size, InitRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sgx_sim::enclave::EnclaveHandle;
use sgx_sim::ias::AttestationService;
use sgx_sim::machine::{MachineId, SgxMachine};
use sgx_sim::measurement::{EnclaveImage, EnclaveSigner, MrEnclave};
use sgx_sim::wire::WireWriter;
use sgx_sim::SgxError;
use std::sync::Arc;

/// A test app over the library's primitives. It remembers the
/// plaintext and the segment tags of the container it staged last, so
/// that `STAGE` keeps the segments that did not change.
#[derive(Default)]
struct LibApp {
    plain: Vec<u8>,
    tags: Vec<[u8; 16]>,
    /// A clone of the staged buffer (`HOLD`).
    held: Option<Arc<[u8]>>,
}

mod ops {
    pub const CREATE: u32 = 1;
    pub const INC: u32 = 2;
    pub const READ: u32 = 3;
    pub const DESTROY: u32 = 4;
    pub const SEAL: u32 = 5;
    pub const UNSEAL: u32 = 6;
    pub const ACTIVE: u32 = 7;
    pub const STAGE: u32 = 8;
    pub const SEAL_IN_PLACE: u32 = 9;
    pub const UNSEAL_INTO: u32 = 10;
    pub const LOAD: u32 = 11;
    pub const HOLD: u32 = 12;
    pub const HELD: u32 = 13;
    pub const ADDR: u32 = 14;
    pub const MISFIT: u32 = 15;
}

/// AADs of the container `STAGE` writes: its head lists the segments'
/// tags, and each segment holds 4 KiB of the input.
const HEAD_AAD: &[u8] = b"unit-head";
const SEGMENT_AAD: &[u8] = b"unit-segment";
const SEGMENT_LEN: usize = 4096;

/// Bytes ahead of the blob `SEAL_IN_PLACE` seals, and of the plaintext
/// `UNSEAL_INTO` opens: both must keep them as they are.
const PREFIX: &[u8] = b"kept:";

impl AppLogic for LibApp {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            ops::CREATE => {
                let (id, v) = ctx.lib.create_migratable_counter(ctx.env)?;
                let mut out = vec![id];
                out.extend_from_slice(&v.to_le_bytes());
                Ok(out)
            }
            ops::INC => Ok(ctx
                .lib
                .increment_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::READ => Ok(ctx
                .lib
                .read_migratable_counter(ctx.env, input[0])?
                .to_le_bytes()
                .to_vec()),
            ops::DESTROY => {
                ctx.lib.destroy_migratable_counter(ctx.env, input[0])?;
                Ok(vec![])
            }
            ops::SEAL => Ok(ctx.lib.seal_migratable_data(ctx.env, b"unit", input)?),
            ops::UNSEAL => Ok(ctx.lib.unseal_migratable_data(ctx.env, input)?.0),
            ops::SEAL_IN_PLACE => {
                let mut buf = PREFIX.to_vec();
                buf.resize(PREFIX.len() + migratable_header_len(b"unit".len()), 0);
                buf.extend_from_slice(input);
                ctx.lib
                    .seal_migratable_data_in_place(ctx.env, b"unit", &mut buf, PREFIX.len())?;
                Ok(buf)
            }
            ops::UNSEAL_INTO => {
                // `[1][aad][buffer]` when the blob opens, `[0][buffer]`
                // when it does not.
                let mut buf = PREFIX.to_vec();
                let mut w = WireWriter::new();
                match ctx
                    .lib
                    .unseal_migratable_data_into(ctx.env, input, &mut buf)
                {
                    Ok(aad) => w.u8(1).bytes(aad),
                    Err(_) => w.u8(0),
                };
                w.bytes(&buf);
                Ok(w.finish())
            }
            ops::ACTIVE => Ok((ctx.lib.active_counters() as u32).to_le_bytes().to_vec()),
            ops::STAGE => {
                // Writes the input as the container over the staged one,
                // resealing the segments whose plaintext changed.
                let (mut w, lens) = writer(ctx, input)?;
                let old: Vec<&[u8]> = self.plain.chunks(SEGMENT_LEN).collect();
                let mut tags = Vec::with_capacity(lens);
                for (i, chunk) in input.chunks(SEGMENT_LEN).enumerate() {
                    let kept = self.tags.get(i).filter(|_| old.get(i) == Some(&chunk));
                    let tag = match kept {
                        Some(tag) if w.copy_segment(ctx.lib, tag)? => *tag,
                        _ => w.seal_segment(ctx.lib, ctx.env, SEGMENT_AAD, chunk)?,
                    };
                    tags.push(tag);
                }
                w.finish(ctx.lib, ctx.env, HEAD_AAD, &tags.concat())?;
                self.plain = input.to_vec();
                self.tags = tags;
                Ok(vec![])
            }
            ops::MISFIT => {
                // Starts writing the input over the staged container,
                // reseals its first segment, then offers a second one a
                // byte short of its slot.
                let (mut w, _) = writer(ctx, input)?;
                let mut chunks = input.chunks(SEGMENT_LEN);
                let first = chunks.next().unwrap_or_default();
                w.seal_segment(ctx.lib, ctx.env, SEGMENT_AAD, first)?;
                let second = chunks.next().unwrap_or_default();
                let short = second.get(1..).unwrap_or_default();
                w.seal_segment(ctx.lib, ctx.env, SEGMENT_AAD, short)?;
                Ok(vec![])
            }
            ops::LOAD => {
                let mut head = Vec::new();
                let (mut segments, aad) = ctx.lib.open_container(ctx.env, input, &mut head)?;
                assert_eq!(aad, HEAD_AAD);
                let tags: Vec<[u8; 16]> = head
                    .chunks_exact(16)
                    .map(|tag| tag.try_into().unwrap())
                    .collect();
                let mut plain = Vec::new();
                for tag in &tags {
                    segments.open_segment(ctx.lib, ctx.env, tag, &mut plain)?;
                }
                let container = segments.finish(ctx.lib)?;
                ctx.lib.stage_bulk_state(ctx.env, &container)?;
                self.plain.clone_from(&plain);
                self.tags = tags;
                Ok(plain)
            }
            ops::HOLD => {
                self.held = ctx.lib.bulk_state().cloned();
                Ok(vec![])
            }
            ops::HELD => Ok(self.held.as_deref().unwrap_or_default().to_vec()),
            ops::ADDR => {
                let addr = ctx
                    .lib
                    .bulk_state()
                    .map_or(0, |state| state.as_ptr() as usize);
                Ok((addr as u64).to_le_bytes().to_vec())
            }
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }
}

/// A writer of `input` as a container of 4 KiB segments over the staged
/// one, and its number of segments.
fn writer(ctx: &AppCtx<'_, '_>, input: &[u8]) -> Result<(ContainerWriter, usize), SgxError> {
    let lens = input
        .chunks(SEGMENT_LEN)
        .map(|chunk| migratable_sealed_size(SEGMENT_AAD.len(), chunk.len()))
        .collect::<Vec<_>>();
    let n = lens.len();
    let head_len = migratable_sealed_size(HEAD_AAD.len(), 16 * n);
    Ok((ContainerWriter::new(ctx.lib, head_len, lens)?, n))
}

fn machine() -> SgxMachine {
    let mut rng = StdRng::seed_from_u64(51);
    let ias = AttestationService::new(&mut rng);
    SgxMachine::new(MachineId(1), &ias, &mut rng)
}

fn image() -> EnclaveImage {
    EnclaveImage::build("lib-unit", 1, b"code", &EnclaveSigner::from_seed([5; 32]))
}

fn me_mr() -> MrEnclave {
    mig_core::me::me_image().mr_enclave()
}

/// Loads + inits an enclave, returning the handle and the initial blob.
fn fresh(machine: &SgxMachine) -> (EnclaveHandle, Vec<u8>) {
    let enclave = machine
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    let out = enclave
        .ecall(lib_ops::MIG_INIT, &encode_init(&me_mr(), &InitRequest::New))
        .unwrap();
    let blob = open_envelope(&out).unwrap().persist;
    (enclave, blob.expect("init persists").to_vec())
}

fn call(enclave: &EnclaveHandle, opcode: u32, input: &[u8]) -> Result<Vec<u8>, SgxError> {
    let out = enclave.ecall(opcode, input)?;
    Ok(open_envelope(&out).unwrap().payload.to_vec())
}

#[test]
fn init_new_persists_a_fresh_blob() {
    let m = machine();
    let (_enclave, blob) = fresh(&m);
    assert!(!blob.is_empty());
    // The blob is sealed: an identical enclave can parse it only through
    // the library (Restore), not as plaintext.
    assert!(sgx_sim::seal::parse_sealed_header(&blob).is_ok());
}

#[test]
fn calling_app_before_init_fails() {
    let m = machine();
    let enclave = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    let err = enclave.ecall(ops::SEAL, b"x").unwrap_err();
    assert!(matches!(err, SgxError::Enclave(ref msg) if msg.contains("not initialized")));
}

#[test]
fn counter_ids_are_reused_after_destroy() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let a = call(&enclave, ops::CREATE, &[]).unwrap()[0];
    let b = call(&enclave, ops::CREATE, &[]).unwrap()[0];
    assert_eq!((a, b), (0, 1), "ids assigned in order");
    call(&enclave, ops::DESTROY, &[a]).unwrap();
    // The freed id is reused (library-level id, not the SGX UUID).
    let c = call(&enclave, ops::CREATE, &[]).unwrap()[0];
    assert_eq!(c, a);
    // And it starts at effective 0 again.
    let v = u32::from_le_bytes(
        call(&enclave, ops::READ, &[c]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(v, 0);
}

#[test]
fn unknown_and_destroyed_ids_error() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    for op in [ops::INC, ops::READ, ops::DESTROY] {
        let err = call(&enclave, op, &[42]).unwrap_err();
        assert!(
            matches!(err, SgxError::Enclave(ref msg) if msg.contains("unknown")),
            "{err:?}"
        );
    }
    let id = call(&enclave, ops::CREATE, &[]).unwrap()[0];
    call(&enclave, ops::DESTROY, &[id]).unwrap();
    assert!(call(&enclave, ops::INC, &[id]).is_err());
}

#[test]
fn quota_of_256_counters_enforced() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    for _ in 0..256 {
        call(&enclave, ops::CREATE, &[]).unwrap();
    }
    let active = u32::from_le_bytes(
        call(&enclave, ops::ACTIVE, &[]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(active, 256);
    let err = call(&enclave, ops::CREATE, &[]).unwrap_err();
    assert_eq!(err, SgxError::CounterQuotaExceeded);
}

#[test]
fn migratable_seal_round_trip_and_tamper_detection() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let blob = call(&enclave, ops::SEAL, b"payload").unwrap();
    assert_eq!(call(&enclave, ops::UNSEAL, &blob).unwrap(), b"payload");
    // A twin machine's RNG runs in step, so its enclave has the same MSK
    // and draws the same nonce: the in-place seal writes the copying
    // seal's bytes, behind a prefix it leaves as it was.
    let twin = machine();
    let (twin_enclave, _) = fresh(&twin);
    assert_eq!(
        call(&twin_enclave, ops::SEAL_IN_PLACE, b"payload").unwrap(),
        [PREFIX, &blob].concat()
    );
    // The into-a-buffer unseal appends the copying unseal's plaintext
    // behind the bytes already in the buffer and returns the AAD.
    let mut opened = WireWriter::new();
    opened
        .u8(1)
        .bytes(b"unit")
        .bytes(&[PREFIX, b"payload"].concat());
    assert_eq!(
        call(&enclave, ops::UNSEAL_INTO, &blob).unwrap(),
        opened.finish()
    );
    let mut refused = WireWriter::new();
    refused.u8(0).bytes(PREFIX);
    let refused = refused.finish();
    for i in 0..blob.len() {
        let mut bad = blob.clone();
        bad[i] ^= 1;
        assert!(call(&enclave, ops::UNSEAL, &bad).is_err(), "byte {i}");
        // Refused, with the buffer exactly as it was.
        assert_eq!(
            call(&enclave, ops::UNSEAL_INTO, &bad).unwrap(),
            refused,
            "byte {i}"
        );
    }
}

#[test]
fn msk_is_unique_per_enclave_lifetime() {
    let m = machine();
    let (e1, _) = fresh(&m);
    let (e2, _) = fresh(&m);
    // Two independent "new" initializations have different MSKs, even for
    // the same image on the same machine.
    let blob = call(&e1, ops::SEAL, b"x").unwrap();
    assert!(call(&e2, ops::UNSEAL, &blob).is_err());
}

#[test]
fn restore_round_trips_counters_and_msk() {
    let m = machine();
    let (e1, _) = fresh(&m);
    let id = call(&e1, ops::CREATE, &[]).unwrap()[0];
    call(&e1, ops::INC, &[id]).unwrap();
    let sealed = call(&e1, ops::SEAL, b"kept").unwrap();
    // The latest persist blob came from the CREATE call.
    let out = e1.ecall(ops::INC, &[id]).unwrap();
    let persist = open_envelope(&out).unwrap().persist;
    assert!(persist.is_none(), "increment does not reseal (paper §VI-B)");

    // Fetch the blob produced by CREATE by re-driving a fresh enclave.
    let e_fresh = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    let out = e_fresh
        .ecall(lib_ops::MIG_INIT, &encode_init(&me_mr(), &InitRequest::New))
        .unwrap();
    let _ = out;

    // Simulate restart of e1: we need its last persist blob. Re-create it
    // by calling CREATE on a new counter (which reseals) and using that.
    let out = e1.ecall(ops::CREATE, &[]).unwrap();
    let blob = open_envelope(&out).unwrap().persist;
    let blob = blob.unwrap().to_vec();

    e1.destroy();
    let e2 = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    e2.ecall(
        lib_ops::MIG_INIT,
        &encode_init(&me_mr(), &InitRequest::Restore { blob }),
    )
    .unwrap();
    // Counter state and MSK both restored.
    let v = u32::from_le_bytes(
        call(&e2, ops::READ, &[id]).unwrap()[..4]
            .try_into()
            .unwrap(),
    );
    assert_eq!(v, 2);
    assert_eq!(call(&e2, ops::UNSEAL, &sealed).unwrap(), b"kept");
}

/// The envelope carries Table II, sealed where it lies, when Table II
/// changes, and the staged container's pages when they change: a
/// restored library gets its table from the blob and its bulk state by
/// loading the container the host reassembles from those pages.
#[test]
fn persist_sealed_in_the_envelope_restores_table_and_bulk_state() {
    let m = machine();
    let (e1, _) = fresh(&m);
    let a = call(&e1, ops::CREATE, &[]).unwrap()[0];
    let b = call(&e1, ops::CREATE, &[]).unwrap()[0];
    call(&e1, ops::INC, &[b]).unwrap();
    let out = e1.ecall(ops::DESTROY, &[a]).unwrap();
    let blob = open_envelope(&out).unwrap().persist;
    let blob = blob.expect("a destroyed counter reseals").to_vec();
    let bulk: Vec<u8> = (0..70_000u32).map(|i| (i % 251) as u8).collect();
    let out = e1.ecall(ops::STAGE, &bulk).unwrap();
    // The envelope is sized exactly. Staging leaves Table II alone and
    // hands over the new container whole, as MSK ciphertext.
    assert_eq!(out.capacity(), out.len());
    let envelope = open_envelope(&out).unwrap();
    assert!(
        envelope.persist.is_none(),
        "staging is not a Table II change"
    );
    let pages = envelope.pages.expect("a new container's pages are due");
    assert!(pages.is_whole());
    assert_eq!(pages.numbers, (0..18).collect::<Vec<u32>>());
    let container = pages.bytes.to_vec();
    assert!(container.len() > bulk.len());
    assert!(
        !container.windows(64).any(|w| w == &bulk[..64]),
        "no plaintext"
    );
    // The library stages that very container.
    let staged = call(&e1, lib_ops::BULK_STATE, &[]).unwrap();
    assert_eq!(staged[5..], container);

    e1.destroy();
    let e2 = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    e2.ecall(
        lib_ops::MIG_INIT,
        &encode_init(&me_mr(), &InitRequest::Restore { blob }),
    )
    .unwrap();
    // The same table: one active counter, at its value...
    assert_eq!(call(&e2, ops::ACTIVE, &[]).unwrap(), 1u32.to_le_bytes());
    assert_eq!(call(&e2, ops::READ, &[b]).unwrap(), 1u32.to_le_bytes());
    assert!(call(&e2, ops::READ, &[a]).is_err());
    // ... and no staged state until the app loads the host's copy.
    assert_eq!(call(&e2, lib_ops::BULK_STATE, &[]).unwrap(), [0]);
    let out = e2.ecall(ops::LOAD, &container).unwrap();
    let envelope = open_envelope(&out).unwrap();
    assert_eq!(envelope.payload, bulk);
    // A container the library did not stage goes to the host whole.
    assert_eq!(envelope.pages.unwrap().bytes, container);
    let mut torn = container.clone();
    torn.truncate(container.len() - 1);
    assert!(call(&e2, ops::LOAD, &torn).is_err());
}

/// `REFILE` hands the host all it stores again: the Table II blob and
/// every staged page; a restored library that stages nothing yet hands
/// over the blob and leaves the host's pages alone.
#[test]
fn refile_hands_over_table_and_every_staged_page() {
    let m = machine();
    let (e1, _) = fresh(&m);
    call(&e1, ops::CREATE, &[]).unwrap();
    let bulk: Vec<u8> = (0..10_000u32).map(|i| (i % 253) as u8).collect();
    let out = e1.ecall(ops::STAGE, &bulk).unwrap();
    let container = open_envelope(&out).unwrap().pages.unwrap().bytes.to_vec();
    // Nothing is due any more...
    let out = e1.ecall(ops::ACTIVE, &[]).unwrap();
    let envelope = open_envelope(&out).unwrap();
    assert!(envelope.persist.is_none() && envelope.pages.is_none());
    // ... until the host asks for all of it.
    let out = e1.ecall(lib_ops::REFILE, &[]).unwrap();
    assert_eq!(out.capacity(), out.len());
    let envelope = open_envelope(&out).unwrap();
    let blob = envelope.persist.expect("Table II again").to_vec();
    let pages = envelope.pages.expect("every page again");
    assert!(pages.is_whole());
    assert_eq!(pages.bytes, container);

    e1.destroy();
    let e2 = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    e2.ecall(
        lib_ops::MIG_INIT,
        &encode_init(&me_mr(), &InitRequest::Restore { blob }),
    )
    .unwrap();
    let out = e2.ecall(lib_ops::REFILE, &[]).unwrap();
    let envelope = open_envelope(&out).unwrap();
    assert!(envelope.persist.is_some());
    assert!(
        envelope.pages.is_none(),
        "the host's pages are the store still to load"
    );
}

/// A `len`-byte input.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// The staged buffer's address, and the staged container's bytes.
fn staged(enclave: &EnclaveHandle) -> (u64, Vec<u8>) {
    let addr = call(enclave, ops::ADDR, &[]).unwrap();
    let state = call(enclave, lib_ops::BULK_STATE, &[]).unwrap();
    (
        u64::from_le_bytes(addr.try_into().unwrap()),
        state[5..].to_vec(),
    )
}

/// Stages `input` with `STAGE`; returns the pages its envelope hands
/// the host.
fn stage(enclave: &EnclaveHandle, input: &[u8]) -> Vec<u32> {
    let out = enclave.ecall(ops::STAGE, input).unwrap();
    open_envelope(&out)
        .unwrap()
        .pages
        .expect("pages due")
        .numbers
}

/// The pages a restage of a `len`-byte input rewrites when it reseals
/// only segment `i`: the head's and the segment's.
fn pages_of_segment(len: usize, i: usize) -> Vec<u32> {
    let head = 9 + migratable_sealed_size(HEAD_AAD.len(), 16 * len.div_ceil(SEGMENT_LEN));
    let slot = 4 + migratable_sealed_size(SEGMENT_AAD.len(), SEGMENT_LEN);
    let start = head + i * slot;
    let mut pages: Vec<u32> = [0..head, start..start + slot]
        .iter()
        .flat_map(|range| range.start / 4096..=(range.end - 1) / 4096)
        .map(|page| page as u32)
        .collect();
    pages.dedup();
    pages
}

/// A restage to another layout writes a buffer of its own, copying the
/// segments it keeps, and the container written over keeps its bytes.
#[test]
fn a_restage_to_a_new_layout_writes_a_fresh_buffer() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let bulk = pattern(40_000);
    stage(&enclave, &bulk);
    call(&enclave, ops::HOLD, &[]).unwrap();
    let (addr, before) = staged(&enclave);
    // A longer last segment: the same head and nine segments kept.
    let longer = [&bulk[..], &[7; 100]].concat();
    let out = enclave.ecall(ops::STAGE, &longer).unwrap();
    assert!(open_envelope(&out).unwrap().pages.unwrap().is_whole());
    let (own, after) = staged(&enclave);
    assert_ne!(own, addr);
    assert_eq!(call(&enclave, ops::HELD, &[]).unwrap(), before);
    let kept = 9 + migratable_sealed_size(HEAD_AAD.len(), 16 * 10)
        ..before.len() - (4 + migratable_sealed_size(SEGMENT_AAD.len(), 40_000 % SEGMENT_LEN));
    assert_eq!(after[kept.clone()], before[kept]);
    assert_eq!(call(&enclave, ops::LOAD, &after).unwrap(), longer);
    // Unshared, a new layout still gets a buffer of its own.
    let shorter = &bulk[..30_000];
    stage(&enclave, shorter);
    let (again, restaged) = staged(&enclave);
    assert_ne!(again, own);
    assert_eq!(call(&enclave, ops::LOAD, &restaged).unwrap(), shorter);
}

/// Over an unchanged layout the writer reseals a segment where it lies,
/// unless another holder shares the staged buffer: then it writes over
/// a copy, and the holder's bytes do not change. Either way only the
/// head's and the resealed segment's pages are due.
#[test]
fn a_restage_over_a_shared_buffer_writes_a_copy() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let mut bulk = pattern(40_000);
    stage(&enclave, &bulk);
    let (addr, _) = staged(&enclave);
    bulk[5 * SEGMENT_LEN] ^= 1;
    assert_eq!(stage(&enclave, &bulk), pages_of_segment(bulk.len(), 5));
    let (in_place, before) = staged(&enclave);
    assert_eq!(in_place, addr);
    call(&enclave, ops::HOLD, &[]).unwrap();
    bulk[7 * SEGMENT_LEN] ^= 1;
    assert_eq!(stage(&enclave, &bulk), pages_of_segment(bulk.len(), 7));
    let (copy, after) = staged(&enclave);
    assert_ne!(copy, addr);
    assert_eq!(call(&enclave, ops::HELD, &[]).unwrap(), before);
    assert_eq!(call(&enclave, ops::LOAD, &after).unwrap(), bulk);
}

/// A segment that does not fit its slot is refused before anything is
/// written, even after an earlier segment was resealed: the staged
/// container and its due pages are as they were.
#[test]
fn a_misfit_segment_leaves_the_staged_container_as_it_was() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let mut bulk = pattern(40_000);
    stage(&enclave, &bulk);
    let before = staged(&enclave);
    bulk[0] ^= 1;
    let err = call(&enclave, ops::MISFIT, &bulk).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref msg) if msg.contains("does not fit its slot")),
        "{err:?}"
    );
    assert_eq!(staged(&enclave), before);
    let out = enclave.ecall(ops::ACTIVE, &[]).unwrap();
    let envelope = open_envelope(&out).unwrap();
    assert!(envelope.pages.is_none(), "no page is due");
    // The next restage keeps what did not change.
    assert_eq!(stage(&enclave, &bulk), pages_of_segment(bulk.len(), 0));
}

#[test]
fn restore_rejects_blob_from_other_enclave() {
    let m = machine();
    let other_image = EnclaveImage::build(
        "other",
        1,
        b"other code",
        &EnclaveSigner::from_seed([6; 32]),
    );
    let other = m
        .load_enclave(
            &other_image,
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    let out = other
        .ecall(lib_ops::MIG_INIT, &encode_init(&me_mr(), &InitRequest::New))
        .unwrap();
    let blob = open_envelope(&out).unwrap().persist;
    let foreign_blob = blob.unwrap().to_vec();

    // Same machine, different MRENCLAVE: native sealing rejects it.
    let mine = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    let err = mine
        .ecall(
            lib_ops::MIG_INIT,
            &encode_init(&me_mr(), &InitRequest::Restore { blob: foreign_blob }),
        )
        .unwrap_err();
    assert_eq!(err, SgxError::MacMismatch);
}

#[test]
fn restore_rejects_garbage_blob() {
    let m = machine();
    let enclave = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    let err = enclave
        .ecall(
            lib_ops::MIG_INIT,
            &encode_init(
                &me_mr(),
                &InitRequest::Restore {
                    blob: vec![1, 2, 3],
                },
            ),
        )
        .unwrap_err();
    assert!(matches!(err, SgxError::Decode | SgxError::MacMismatch));
}

#[test]
fn await_migration_phase_refuses_operations() {
    let m = machine();
    let enclave = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    enclave
        .ecall(
            lib_ops::MIG_INIT,
            &encode_init(&me_mr(), &InitRequest::Migrate),
        )
        .unwrap();
    for (op, input) in [
        (ops::CREATE, vec![]),
        (ops::SEAL, b"x".to_vec()),
        (ops::INC, vec![0]),
    ] {
        let err = enclave.ecall(op, &input).unwrap_err();
        assert!(
            matches!(err, SgxError::Enclave(ref msg) if msg.contains("awaiting")),
            "{err:?}"
        );
    }
    // Phase is observable.
    let out = enclave.ecall(lib_ops::PHASE, &[]).unwrap();
    let payload = open_envelope(&out).unwrap().payload;
    assert_eq!(payload, vec![2], "AwaitingMigration");
}

#[test]
fn migration_start_requires_attested_session() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let mut w = WireWriter::new();
    w.u64(2);
    let err = enclave.ecall(lib_ops::MIG_START, &w.finish()).unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref msg) if msg.contains("migration enclave")),
        "{err:?}"
    );
}

#[test]
fn me_msg1_rejects_wrong_me_measurement() {
    // The library fails fast if the responding "ME" does not carry the
    // expected measurement.
    let m = machine();
    let (enclave, _) = fresh(&m);
    let msg1 = sgx_sim::dh::DhMsg1 {
        g_a: mig_crypto::x25519::PublicKey([9; 32]),
        responder: sgx_sim::report::TargetInfo {
            mr_enclave: MrEnclave([0xEE; 32]), // not the ME image
        },
    };
    let err = enclave
        .ecall(lib_ops::ME_MSG1, &msg1.to_bytes())
        .unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref msg) if msg.contains("measurement")),
        "{err:?}"
    );
}

#[test]
fn me_msg3_without_handshake_errors() {
    let m = machine();
    let (enclave, _) = fresh(&m);
    let msg3 = sgx_sim::dh::DhMsg3 {
        report: sgx_sim::report::Report {
            body: sgx_sim::report::ReportBody {
                identity: enclave.identity(),
                report_data: sgx_sim::report::ReportData::default(),
            },
            target: enclave.identity().mr_enclave,
            mac: [0; 32],
        },
    };
    let err = enclave
        .ecall(lib_ops::ME_MSG3, &msg3.to_bytes())
        .unwrap_err();
    assert!(
        matches!(err, SgxError::Enclave(ref msg) if msg.contains("no ME handshake")),
        "{err:?}"
    );
}

#[test]
fn effective_value_spans_restart_lineage() {
    // create → inc ×3 → restart → inc ×2 → effective 5.
    let m = machine();
    let (e1, _) = fresh(&m);
    let id = call(&e1, ops::CREATE, &[]).unwrap()[0];
    for _ in 0..3 {
        call(&e1, ops::INC, &[id]).unwrap();
    }
    // Persist via a second counter creation (reseal trigger).
    let out = e1.ecall(ops::CREATE, &[]).unwrap();
    let blob = open_envelope(&out).unwrap().persist;
    let blob = blob.unwrap().to_vec();
    e1.destroy();

    let e2 = m
        .load_enclave(
            &image(),
            Box::new(MigratableEnclave::new(LibApp::default())),
        )
        .unwrap();
    e2.ecall(
        lib_ops::MIG_INIT,
        &encode_init(&me_mr(), &InitRequest::Restore { blob }),
    )
    .unwrap();
    for expected in [4u32, 5] {
        let v = u32::from_le_bytes(call(&e2, ops::INC, &[id]).unwrap()[..4].try_into().unwrap());
        assert_eq!(v, expected);
    }
}
