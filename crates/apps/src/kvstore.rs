//! A rollback-protected sealed key-value store enclave.
//!
//! The canonical persistent-state discipline from the paper's §II-A4/§I:
//! on every update the enclave increments a monotonic counter and seals
//! the new counter value together with the store; on load it accepts the
//! store only if the embedded version matches the counter. Built on the
//! *migratable* primitives, the whole store survives machine migration —
//! and the attack test-suite uses it as the victim workload for the §III
//! fork and roll-back attacks.
//!
//! **Segment-sealed staging.** The store lives in one staged
//! [`SealedContainer`]: the snapshot plaintext split into
//! [`SEGMENT_LEN`]-byte segments, each migratable-sealed separately,
//! behind a sealed index binding the exact ciphertext set. The untrusted
//! host stores it page by page as the app's files, and a migration
//! carries it. A `PUT` reseals only the segments whose plaintext changed
//! (plus the small index), so the host rewrites a few pages, and a
//! repeat migration ships a dirty-page delta instead of the whole store.
//! Which segments changed is known from the writes themselves, not by
//! hashing the plaintext: the store notes each key it writes, and the
//! serializer turns the notes into byte ranges. The container is written
//! once, into the buffer the library stages; the store keeps a clone of
//! it and copies the sealed bytes of every untouched segment into the
//! next container.
//!
//! **The container.** `[2][u32 len][sealed index][u32 n]`, then `n`
//! sealed segments, each behind its `u32` length (the library's
//! framing). Segment `i` is sealed with the AAD
//! `mig-apps.kvstore.seg.v1:` plus `i` (`u32` LE). The index is sealed
//! with the AAD `mig-apps.kvstore.seg-index.v2`; its plaintext is
//! `[u32 n]` and then each segment's 16-byte AES-GCM tag, the last 16
//! bytes of its sealed blob.
//!
//! **Why a tag binds a segment.** `LOAD` has the library compare each
//! segment's tag with its index entry in constant time, then open the
//! segment straight into the snapshot, checking its positional AAD:
//!
//! * the index is MSK-sealed, so the tags in it are the ones the enclave
//!   wrote;
//! * an accepted segment opened under the MSK with its positional AAD,
//!   so by AES-GCM's ciphertext integrity it is a segment the enclave
//!   sealed at that position;
//! * each seal draws a random 96-bit nonce, so two seals carry equal
//!   tags with probability about 2⁻¹²⁸, and a segment spliced in from
//!   another container version is refused exactly as a ciphertext hash
//!   would refuse it, without hashing anything;
//! * replaying a whole older container, or an older page set of it from
//!   the host's disk, is the classic rollback, caught by the
//!   version-vs-counter check on load; a mix of pages from two versions
//!   fails the tag check.

use mig_core::harness::{AppCtx, AppLogic};
use mig_core::library::container::{container_len, ContainerWriter, SealedContainer};
use mig_core::library::migratable_sealed_size;
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// ECALL opcodes of the KV store enclave.
pub mod ops {
    /// Create the version counter (once per enclave lifetime).
    pub const INIT: u32 = 1;
    /// Put a key/value pair and restage the store; returns the new
    /// version (the host stores the changed pages the envelope carries).
    pub const PUT: u32 = 2;
    /// Get a value by key.
    pub const GET: u32 = 3;
    /// Load a staged container — the migrated one, or the one the host
    /// stores — rollback-checked, and stage it.
    pub const LOAD: u32 = 4;
    /// Read the current version (effective counter value).
    pub const VERSION: u32 = 5;
    /// Number of entries.
    pub const LEN: u32 = 6;
    /// Bulk-load deterministic entries (count, value size, fill seed):
    /// one counter bump, one restaged container — the multi-megabyte-state
    /// generator for the streaming-migration path.
    pub const BULK_PUT: u32 = 7;
}

/// AAD tag for the staged container's sealed segment index (v2: each
/// entry is a segment's 16-byte GCM tag, so a v1 index of 32-byte
/// ciphertext hashes fails to decode instead of being misread).
const INDEX_AAD: &[u8] = b"mig-apps.kvstore.seg-index.v2";
/// Plaintext bytes per sealed staging segment.
pub const SEGMENT_LEN: usize = 4096;
/// Prefix of every per-segment AAD.
const SEGMENT_AAD_PREFIX: &[u8; 24] = b"mig-apps.kvstore.seg.v1:";
/// Length of a per-segment AAD: the prefix and a `u32` index.
const SEGMENT_AAD_LEN: usize = SEGMENT_AAD_PREFIX.len() + 4;

/// Per-segment AAD: prefix plus the segment index, so a segment sealed
/// at one position cannot be presented at another.
fn segment_aad(idx: u32) -> [u8; SEGMENT_AAD_LEN] {
    let mut aad = [0; SEGMENT_AAD_LEN];
    let (prefix, idx_bytes) = aad.split_at_mut(SEGMENT_AAD_PREFIX.len());
    prefix.copy_from_slice(SEGMENT_AAD_PREFIX);
    idx_bytes.copy_from_slice(&idx.to_le_bytes());
    aad
}

/// A parsed snapshot: version-counter id, version, entries.
type Snapshot = (u8, u32, BTreeMap<Vec<u8>, Vec<u8>>);

/// The writes since the staging segments were sealed, by key: what the
/// next restage must reseal besides the header (whose version always
/// changes).
#[derive(Default)]
struct Dirty {
    /// Keys overwritten with a value of the same length: only their value
    /// bytes changed.
    values: BTreeSet<Vec<u8>>,
    /// The least key inserted or resized: every byte from its entry to
    /// the end may have moved.
    tail: Option<Vec<u8>>,
}

impl Dirty {
    /// Notes a write of `key` that replaced a value of `old_len` bytes
    /// (`None`: a new key) with one of `new_len` bytes.
    fn note(&mut self, key: Vec<u8>, old_len: Option<usize>, new_len: usize) {
        if old_len == Some(new_len) {
            self.values.insert(key);
        } else if self.tail.as_ref().is_none_or(|tail| key < *tail) {
            self.tail = Some(key);
        }
    }
}

/// The in-enclave state of the KV store.
#[derive(Default)]
pub struct KvStore {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
    version_counter: Option<u8>,
    /// The staged container — lets an update reseal only the segments
    /// whose plaintext changed.
    staged: Option<SealedContainer>,
    /// What changed since `staged` was sealed.
    dirty: Dirty,
}

impl KvStore {
    /// Creates an empty store (version counter created by [`ops::INIT`]).
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    fn counter(&self) -> Result<u8, SgxError> {
        self.version_counter
            .ok_or_else(|| SgxError::Enclave("kv store not initialized".into()))
    }

    /// Writes `value` under `key`, noting which snapshot bytes moved.
    fn write(&mut self, key: Vec<u8>, value: Vec<u8>) {
        let new_len = value.len();
        let old = self.entries.insert(key.clone(), value);
        self.dirty.note(key, old.map(|old| old.len()), new_len);
    }

    /// Serializes the store, with the byte ranges that differ from the
    /// snapshot the staging segments were sealed from (ascending): the
    /// header, every value overwritten at the same length, and everything
    /// from the first inserted or resized entry on.
    fn snapshot_bytes(&self, version: u32) -> (Vec<u8>, Vec<Range<usize>>) {
        let len = 9 + self
            .entries
            .iter()
            .map(|(key, value)| 8 + key.len() + value.len())
            .sum::<usize>();
        let mut w = WireWriter::with_capacity(len);
        w.u8(self.version_counter.unwrap_or(0));
        w.u32(version);
        w.u32(self.entries.len() as u32);
        // The header: the version always changes.
        let header = 0..w.len();
        let mut dirty = Vec::from([header]);
        let mut tail = None;
        for (key, value) in &self.entries {
            let entry = w.len();
            w.bytes(key);
            w.bytes(value);
            if tail.is_some() {
                continue;
            }
            if self.dirty.tail.as_ref() == Some(key) {
                tail = Some(entry);
            } else if self.dirty.values.contains(key) {
                dirty.push(w.len() - value.len()..w.len());
            }
        }
        if let Some(entry) = tail {
            dirty.push(entry..len);
        }
        (w.finish(), dirty)
    }

    fn parse_snapshot(bytes: &[u8]) -> Result<Snapshot, SgxError> {
        let mut r = WireReader::new(bytes);
        let counter_id = r.u8()?;
        let version = r.u32()?;
        let n = r.u32()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let key = r.bytes_vec()?;
            let value = r.bytes_vec()?;
            entries.insert(key, value);
        }
        r.finish()?;
        Ok((counter_id, version, entries))
    }

    /// Rebuilds the segment-sealed staging container for `snapshot`
    /// (the serialized store) and stages it with the library; returns
    /// its length. Only the segments `dirty` touches (byte ranges of
    /// `snapshot` that differ from what the staged container was sealed
    /// from) and those past its end are resealed; every other sealed
    /// segment is copied from the staged container. The container is
    /// allocated once at its final length, and the library stages that
    /// very buffer.
    fn restage(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        snapshot: &[u8],
        dirty: &[Range<usize>],
    ) -> Result<usize, SgxError> {
        let n = snapshot.len().div_ceil(SEGMENT_LEN);
        let mut reseal = vec![false; n];
        for range in dirty.iter().filter(|range| !range.is_empty()) {
            let segments = range.start / SEGMENT_LEN..range.end.div_ceil(SEGMENT_LEN).min(n);
            reseal[segments].fill(true);
        }
        let old = self.staged.take();
        let lens = snapshot
            .chunks(SEGMENT_LEN)
            .map(|plain| migratable_sealed_size(SEGMENT_AAD_LEN, plain.len()))
            .collect();
        let head_len = migratable_sealed_size(INDEX_AAD.len(), 4 + n * TAG_LEN);
        let mut w = ContainerWriter::new(old.as_ref(), head_len, lens)?;
        let mut index = WireWriter::with_capacity(4 + n * TAG_LEN);
        index.u32(n as u32);
        for ((i, plain), reseal) in snapshot.chunks(SEGMENT_LEN).enumerate().zip(reseal) {
            let copied = if reseal { None } else { w.copy_segment()? };
            let tag = match copied {
                Some(tag) => tag,
                None => w.seal_segment(ctx.lib, ctx.env, &segment_aad(i as u32), plain)?,
            };
            index.array(&tag);
        }
        let container = w.finish(ctx.lib, ctx.env, INDEX_AAD, &index.finish())?;
        ctx.lib.stage_bulk_state(ctx.env, &container)?;
        let len = container.as_bytes().len();
        self.staged = Some(container);
        self.dirty = Dirty::default();
        Ok(len)
    }

    /// Opens a staged container: has the library verify the sealed
    /// index, then each segment's tag against its index entry, opening
    /// every segment straight into the snapshot plaintext, and checks its
    /// positional AAD. Returns the snapshot and the container.
    fn open_container(
        ctx: &mut AppCtx<'_, '_>,
        bytes: &[u8],
    ) -> Result<(Vec<u8>, SealedContainer), SgxError> {
        let mut index_plain = Vec::new();
        let (mut segments, aad) = ctx.lib.open_container(ctx.env, bytes, &mut index_plain)?;
        if aad != INDEX_AAD {
            return Err(SgxError::Decode);
        }
        let mut index = WireReader::new(&index_plain);
        let n = index.u32()? as usize;
        // One tag per segment.
        let tags_len = n * TAG_LEN;
        if segments.segments() != n || index.remaining() != tags_len {
            return Err(SgxError::Decode);
        }
        // The snapshot is what the container holds less its framing,
        // index and per-segment seal overhead: one allocation.
        let overhead = container_len(
            migratable_sealed_size(INDEX_AAD.len(), 4 + tags_len),
            std::iter::repeat_n(migratable_sealed_size(SEGMENT_AAD_LEN, 0), n),
        );
        let mut plain = Vec::with_capacity(bytes.len().saturating_sub(overhead));
        for i in 0..n {
            let tag = index.array::<TAG_LEN>()?;
            let aad = segments.open_segment(ctx.lib, ctx.env, &tag, &mut plain)?;
            if aad != segment_aad(i as u32) {
                return Err(SgxError::Decode);
            }
        }
        let container = segments.finish(ctx.lib)?;
        Ok((plain, container))
    }
}

impl AppLogic for KvStore {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            ops::INIT => {
                let (id, value) = ctx.lib.create_migratable_counter(ctx.env)?;
                self.version_counter = Some(id);
                let mut w = WireWriter::new();
                w.u8(id).u32(value);
                Ok(w.finish())
            }
            ops::PUT => {
                let counter = self.counter()?;
                let mut r = WireReader::new(input);
                let key = r.bytes_vec()?;
                let value = r.bytes_vec()?;
                r.finish()?;
                self.write(key, value);
                // Version discipline: bump the counter, seal the new
                // version into the store (paper §II-A4). Only the
                // segments this PUT dirtied are resealed: the host
                // rewrites their pages, and a repeat migration ships
                // them as a delta.
                let version = ctx.lib.increment_migratable_counter(ctx.env, counter)?;
                let (snapshot, dirty) = self.snapshot_bytes(version);
                self.restage(ctx, &snapshot, &dirty)?;
                let mut w = WireWriter::with_capacity(8);
                w.u32(version).bytes(&[]);
                Ok(w.finish())
            }
            ops::BULK_PUT => {
                let counter = self.counter()?;
                let mut r = WireReader::new(input);
                let count = r.u32()?;
                let value_len = r.u32()? as usize;
                let fill = r.u8()?;
                r.finish()?;
                for i in 0..count {
                    let key = format!("bulk-{i:08}").into_bytes();
                    let value: Vec<u8> = (0..value_len)
                        .map(|j| fill.wrapping_add((i as usize + j) as u8))
                        .collect();
                    self.write(key, value);
                }
                // One version bump and one restaged container for the
                // whole batch.
                let version = ctx.lib.increment_migratable_counter(ctx.env, counter)?;
                let (snapshot, dirty) = self.snapshot_bytes(version);
                let container_len = self.restage(ctx, &snapshot, &dirty)?;
                let mut w = WireWriter::new();
                w.u32(version).u64(container_len as u64);
                Ok(w.finish())
            }
            ops::GET => self
                .entries
                .get(input)
                .cloned()
                .ok_or_else(|| SgxError::Enclave("key not found".into())),
            ops::LOAD => {
                let (plaintext, container) = Self::open_container(ctx, input)?;
                let (counter_id, version, entries) = Self::parse_snapshot(&plaintext)?;
                let current = ctx.lib.read_migratable_counter(ctx.env, counter_id)?;
                if version != current {
                    return Err(SgxError::Enclave(format!(
                        "rollback detected: snapshot version {version} != counter {current}"
                    )));
                }
                self.version_counter = Some(counter_id);
                self.entries = entries;
                // Keep the staged container in sync with the restored
                // store. Re-loading the container that just migrated in
                // adopts it verbatim: the library already stages these
                // bytes, so staging copies nothing, the store keeps a
                // clone of the library's buffer, and the next outgoing
                // delta is computed against unchanged bytes. A container
                // the library did not stage (read back from the host's
                // pages after a restart) is staged whole.
                self.dirty = Dirty::default();
                ctx.lib.stage_bulk_state(ctx.env, &container)?;
                self.staged = Some(container);
                Ok(vec![])
            }
            ops::VERSION => {
                let counter = self.counter()?;
                let value = ctx.lib.read_migratable_counter(ctx.env, counter)?;
                Ok(value.to_le_bytes().to_vec())
            }
            ops::LEN => Ok((self.entries.len() as u32).to_le_bytes().to_vec()),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }

    fn export_state(&self) -> Vec<u8> {
        self.snapshot_bytes(0).0
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), SgxError> {
        let (counter_id, _version, entries) = Self::parse_snapshot(bytes)?;
        self.version_counter = Some(counter_id);
        self.entries = entries;
        // The staged container belongs to the replaced entries.
        self.staged = None;
        self.dirty = Dirty::default();
        Ok(())
    }
}

/// Encodes a PUT request.
#[must_use]
pub fn encode_put(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.bytes(key).bytes(value);
    w.finish()
}

/// Decodes a PUT response into `(version, bytes)`; the bytes are empty:
/// the store travels as the staged container's pages, not in the reply.
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input.
pub fn decode_put_response(bytes: &[u8]) -> Result<(u32, Vec<u8>), SgxError> {
    let mut r = WireReader::new(bytes);
    let version = r.u32()?;
    let blob = r.bytes_vec()?;
    r.finish()?;
    Ok((version, blob))
}

/// Encodes a BULK_PUT request: `count` entries of `value_len` bytes
/// generated deterministically from `fill`.
#[must_use]
pub fn encode_bulk_put(count: u32, value_len: u32, fill: u8) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(count).u32(value_len).u8(fill);
    w.finish()
}

/// Decodes a BULK_PUT response into `(version, staged container length)`.
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input.
pub fn decode_bulk_put_response(bytes: &[u8]) -> Result<(u32, u64), SgxError> {
    let mut r = WireReader::new(bytes);
    let version = r.u32()?;
    let len = r.u64()?;
    r.finish()?;
    Ok((version, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip() {
        let mut store = KvStore::new();
        store.version_counter = Some(3);
        store.entries.insert(b"a".to_vec(), b"1".to_vec());
        store.entries.insert(b"b".to_vec(), b"2".to_vec());
        let (bytes, _) = store.snapshot_bytes(9);
        let (id, version, entries) = KvStore::parse_snapshot(&bytes).unwrap();
        assert_eq!(id, 3);
        assert_eq!(version, 9);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[b"a".as_slice()], b"1");
    }

    #[test]
    fn put_request_encoding() {
        let req = encode_put(b"key", b"value");
        let mut r = WireReader::new(&req);
        assert_eq!(r.bytes().unwrap(), b"key");
        assert_eq!(r.bytes().unwrap(), b"value");
        r.finish().unwrap();
    }

    #[test]
    fn malformed_snapshot_rejected() {
        assert!(KvStore::parse_snapshot(&[1, 2, 3]).is_err());
    }
}
