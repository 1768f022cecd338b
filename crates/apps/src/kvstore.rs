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
//! **The snapshot is the store.** The store is one buffer in the
//! snapshot format the container seals, `[u8 counter][u32 version][u32
//! n]` and then `n` entries `[u32 klen][key][u32 vlen][value]` in
//! ascending key order, plus an index from each key to its value's byte
//! range. A `GET` copies from the buffer, and a write patches it: a value
//! overwritten at its length is copied over its range, and an insert or
//! resize rewrites the buffer from that entry on, into a buffer sized
//! once (a `BULK_PUT` merges its whole batch in that one pass), and
//! shifts the later ranges. `LOAD` keeps the plaintext it opened as the
//! buffer and indexes it without copying a value; since the layout
//! follows key order, it refuses a snapshot whose keys do not strictly
//! ascend.
//!
//! **Segment-sealed staging.** The library stages the store as a sealed
//! container: the snapshot split into [`SEGMENT_LEN`]-byte segments,
//! each migratable-sealed separately, behind a sealed index binding the
//! exact ciphertext set. The untrusted host stores it page by page as the
//! app's files, and a migration carries it. A write knows which bytes it
//! changed, so a `PUT` reseals only the header's segment and those its
//! value spans (plus the small index): the host rewrites a few pages, and
//! a repeat migration ships a dirty-page delta instead of the whole
//! store. The store keeps the tag of every segment it staged, and the
//! library's writer keeps each unchanged segment whose slot still ends
//! with that tag. When the layout is unchanged it writes the resealed
//! segments and the index where they lie in the staged buffer
//! ([`mig_core::library::container`]), so a same-length `PUT` costs its
//! change, not the store.
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
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::{Bound, Range};

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

/// Bytes of the snapshot's header: the version counter's id, the
/// version and the number of entries.
const HEADER_LEN: usize = 1 + 4 + 4;

/// The most entries one `BULK_PUT` writes: its keys (`bulk-` and the
/// entry's number in eight digits) ascend with the number only below
/// 10⁸, and so many entries exceed the container limit anyway.
const MAX_BULK_COUNT: u32 = 100_000_000;

/// Each key's value range in the snapshot.
type Index = BTreeMap<Vec<u8>, Range<usize>>;

/// The tags of a container's segments, in order.
type Tags = Vec<[u8; TAG_LEN]>;

/// A value to write.
#[derive(Clone, Copy)]
enum Value<'a> {
    /// These bytes.
    Bytes(&'a [u8]),
    /// `BULK_PUT`'s value of entry `entry`: `len` bytes, byte `j` being
    /// `fill + entry + j`.
    Bulk { entry: u32, len: usize, fill: u8 },
}

impl Value<'_> {
    fn len(self) -> usize {
        match self {
            Value::Bytes(bytes) => bytes.len(),
            Value::Bulk { len, .. } => len,
        }
    }

    /// The value's byte `j`.
    fn bulk_byte(entry: u32, fill: u8, j: usize) -> u8 {
        fill.wrapping_add((entry as usize + j) as u8)
    }

    /// Writes the value over `out`, which has its length.
    fn write_over(self, out: &mut [u8]) {
        match self {
            Value::Bytes(bytes) => out.copy_from_slice(bytes),
            Value::Bulk { entry, fill, .. } => {
                for (j, byte) in out.iter_mut().enumerate() {
                    *byte = Self::bulk_byte(entry, fill, j);
                }
            }
        }
    }

    /// Appends the value to `out`.
    fn append_to(self, out: &mut Vec<u8>) {
        match self {
            Value::Bytes(bytes) => out.extend_from_slice(bytes),
            Value::Bulk { entry, len, fill } => {
                out.extend((0..len).map(|j| Self::bulk_byte(entry, fill, j)));
            }
        }
    }
}

/// One write: a key and the value it gets.
type Write<'a> = (Cow<'a, [u8]>, Value<'a>);

/// The in-enclave state of the KV store.
pub struct KvStore {
    /// The snapshot: the header, then every entry in key order.
    plain: Vec<u8>,
    /// Each key's value range in `plain`.
    index: Index,
    version_counter: Option<u8>,
    /// The tag of each segment the store staged last, in order: what the
    /// next restage keeps of an unchanged segment. Empty when it staged
    /// nothing since `plain` was replaced, or its last restage failed.
    tags: Tags,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            plain: vec![0; HEADER_LEN],
            index: Index::new(),
            version_counter: None,
            tags: Vec::new(),
        }
    }
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

    /// The snapshot's header for `version`.
    fn header(&self, version: u32) -> [u8; HEADER_LEN] {
        let fields = std::iter::once(self.version_counter.unwrap_or(0))
            .chain(version.to_le_bytes())
            .chain((self.index.len() as u32).to_le_bytes());
        let mut header = [0; HEADER_LEN];
        for (byte, field) in header.iter_mut().zip(fields) {
            *byte = field;
        }
        header
    }

    /// Where `key`'s entry starts in the snapshot, or would start if it
    /// were inserted: at its successor's entry, or at the end.
    fn entry_start(&self, key: &[u8]) -> usize {
        self.index
            .range::<[u8], _>((Bound::Included(key), Bound::Unbounded))
            .next()
            .map_or(self.plain.len(), |(next, value)| {
                value.start - 8 - next.len()
            })
    }

    /// Writes `batch`, whose keys strictly ascend, and `version`; returns
    /// the byte ranges of the snapshot that changed: the header, each
    /// value overwritten at its length ahead of the first entry inserted
    /// or resized, and everything from that entry on.
    fn write(&mut self, version: u32, batch: &[Write<'_>]) -> Result<Vec<Range<usize>>, SgxError> {
        let mut changed: Vec<_> = std::iter::once(0..HEADER_LEN).collect();
        let mut rest = batch;
        while let Some(((key, value), later)) = rest.split_first() {
            let Some(range) = self
                .index
                .get(key.as_ref())
                .filter(|range| range.len() == value.len())
            else {
                break;
            };
            value.write_over(self.plain.get_mut(range.clone()).ok_or(SgxError::Decode)?);
            changed.push(range.clone());
            rest = later;
        }
        if let Some((first, _)) = rest.first() {
            let start = self.entry_start(first);
            self.rewrite_from(start, rest)?;
            changed.push(start..self.plain.len());
        }
        let header = self.header(version);
        for (byte, field) in self.plain.iter_mut().zip(header) {
            *byte = field;
        }
        Ok(changed)
    }

    /// Rewrites the snapshot from `start`, where the first of `batch`'s
    /// entries goes, to the end, into a buffer sized once: the entries
    /// there merged with `batch` (a batch value replacing an entry's),
    /// each re-indexed where it lands.
    fn rewrite_from(&mut self, start: usize, batch: &[Write<'_>]) -> Result<(), SgxError> {
        let Some((first, _)) = batch.first() else {
            return Ok(());
        };
        let mut len = self.plain.len();
        for (key, value) in batch {
            match self.index.get(key.as_ref()) {
                Some(old) => len = len + value.len() - old.len(),
                None => {
                    len += 8 + key.len() + value.len();
                    // Placed by the merge below.
                    self.index.insert(key.to_vec(), 0..0);
                }
            }
        }
        let old = std::mem::replace(&mut self.plain, Vec::with_capacity(len));
        self.plain
            .extend_from_slice(old.get(..start).ok_or(SgxError::Decode)?);
        let mut batch = batch.iter().peekable();
        let later = self
            .index
            .range_mut::<[u8], _>((Bound::Included(first.as_ref()), Bound::Unbounded));
        for (key, range) in later {
            self.plain
                .extend_from_slice(&(key.len() as u32).to_le_bytes());
            self.plain.extend_from_slice(key);
            let value = batch.next_if(|(next, _)| next.as_ref() == key.as_slice());
            let value = match value {
                Some((_, value)) => *value,
                None => Value::Bytes(old.get(range.clone()).ok_or(SgxError::Decode)?),
            };
            self.plain
                .extend_from_slice(&(value.len() as u32).to_le_bytes());
            let at = self.plain.len();
            value.append_to(&mut self.plain);
            *range = at..self.plain.len();
        }
        Ok(())
    }

    /// Indexes a snapshot without copying a value: its counter's id, its
    /// version and each key's value range. Refuses a snapshot whose keys
    /// do not strictly ascend, as the layout follows key order.
    fn parse(plain: &[u8]) -> Result<(u8, u32, Index), SgxError> {
        let mut r = WireReader::new(plain);
        let counter_id = r.u8()?;
        let version = r.u32()?;
        let n = r.u32()?;
        let mut index = Index::new();
        for _ in 0..n {
            let key = r.bytes()?;
            let value = r.bytes()?;
            if index
                .last_key_value()
                .is_some_and(|(last, _)| last.as_slice() >= key)
            {
                return Err(SgxError::Decode);
            }
            let end = plain.len() - r.remaining();
            index.insert(key.to_vec(), end - value.len()..end);
        }
        r.finish()?;
        Ok((counter_id, version, index))
    }

    /// Restages the store and returns the container's length. Reseals
    /// the segments that `changed` (byte ranges of the snapshot) touches
    /// and those the container written over holds no kept copy of;
    /// keeps every other one as it is.
    fn restage(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        changed: &[Range<usize>],
    ) -> Result<usize, SgxError> {
        let n = self.plain.len().div_ceil(SEGMENT_LEN);
        let mut reseal = vec![false; n];
        for range in changed.iter().filter(|range| !range.is_empty()) {
            let segments = range.start / SEGMENT_LEN..range.end.div_ceil(SEGMENT_LEN).min(n);
            if let Some(segments) = reseal.get_mut(segments) {
                segments.fill(true);
            }
        }
        // None is kept if this restage fails.
        let mut tags = std::mem::take(&mut self.tags);
        let staged = tags.len();
        tags.resize(n, [0; TAG_LEN]);
        let lens = self
            .plain
            .chunks(SEGMENT_LEN)
            .map(|plain| migratable_sealed_size(SEGMENT_AAD_LEN, plain.len()))
            .collect();
        let head_len = migratable_sealed_size(INDEX_AAD.len(), 4 + n * TAG_LEN);
        let mut w = ContainerWriter::new(ctx.lib, head_len, lens)?;
        let segments = self.plain.chunks(SEGMENT_LEN).zip(reseal).zip(&mut tags);
        for (i, ((plain, reseal), tag)) in segments.enumerate() {
            if reseal || i >= staged || !w.copy_segment(ctx.lib, tag)? {
                *tag = w.seal_segment(ctx.lib, ctx.env, &segment_aad(i as u32), plain)?;
            }
        }
        let mut index = WireWriter::with_capacity(4 + n * TAG_LEN);
        index.u32(n as u32);
        for tag in &tags {
            index.array(tag);
        }
        let len = w.finish(ctx.lib, ctx.env, INDEX_AAD, &index.finish())?;
        self.tags = tags;
        Ok(len)
    }

    /// Opens a staged container: has the library verify the sealed
    /// index, then each segment's tag against its index entry, opening
    /// every segment straight into the snapshot plaintext, and checks its
    /// positional AAD. Returns the snapshot, the segments' tags and the
    /// container.
    fn open_container(
        ctx: &mut AppCtx<'_, '_>,
        bytes: &[u8],
    ) -> Result<(Vec<u8>, Tags, SealedContainer), SgxError> {
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
        let mut tags = Vec::with_capacity(n);
        for i in 0..n {
            let tag = index.array::<TAG_LEN>()?;
            let aad = segments.open_segment(ctx.lib, ctx.env, &tag, &mut plain)?;
            if aad != segment_aad(i as u32) {
                return Err(SgxError::Decode);
            }
            tags.push(tag);
        }
        let container = segments.finish(ctx.lib)?;
        Ok((plain, tags, container))
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
                let key = r.bytes()?;
                let value = r.bytes()?;
                r.finish()?;
                // Version discipline: bump the counter, seal the new
                // version into the store (paper §II-A4). Only the
                // segments this PUT changed are resealed: the host
                // rewrites their pages, and a repeat migration ships
                // them as a delta.
                let version = ctx.lib.increment_migratable_counter(ctx.env, counter)?;
                let changed = self.write(version, &[(Cow::Borrowed(key), Value::Bytes(value))])?;
                self.restage(ctx, &changed)?;
                let mut w = WireWriter::with_capacity(8);
                w.u32(version).bytes(&[]);
                Ok(w.finish())
            }
            ops::BULK_PUT => {
                let counter = self.counter()?;
                let mut r = WireReader::new(input);
                let count = r.u32()?;
                let len = r.u32()? as usize;
                let fill = r.u8()?;
                r.finish()?;
                if count > MAX_BULK_COUNT {
                    return Err(SgxError::InvalidParameter("count"));
                }
                // The batch in key order, which is the entries' order.
                let batch: Vec<Write<'_>> = (0..count)
                    .map(|entry| {
                        let key = format!("bulk-{entry:08}").into_bytes();
                        (Cow::Owned(key), Value::Bulk { entry, len, fill })
                    })
                    .collect();
                // One version bump and one restaged container for the
                // whole batch.
                let version = ctx.lib.increment_migratable_counter(ctx.env, counter)?;
                let changed = self.write(version, &batch)?;
                let container_len = self.restage(ctx, &changed)?;
                let mut w = WireWriter::new();
                w.u32(version).u64(container_len as u64);
                Ok(w.finish())
            }
            ops::GET => self
                .index
                .get(input)
                .and_then(|range| self.plain.get(range.clone()))
                .map(<[u8]>::to_vec)
                .ok_or_else(|| SgxError::Enclave("key not found".into())),
            ops::LOAD => {
                let (plain, tags, container) = Self::open_container(ctx, input)?;
                let (counter_id, version, index) = Self::parse(&plain)?;
                let current = ctx.lib.read_migratable_counter(ctx.env, counter_id)?;
                if version != current {
                    return Err(SgxError::Enclave(format!(
                        "rollback detected: snapshot version {version} != counter {current}"
                    )));
                }
                // Re-loading the container that just migrated in adopts
                // it verbatim: the library already stages these bytes,
                // so staging copies nothing, and the next outgoing delta
                // is computed against unchanged bytes. A container the
                // library did not stage (read back from the host's pages
                // after a restart) is staged whole.
                ctx.lib.stage_bulk_state(ctx.env, &container)?;
                self.version_counter = Some(counter_id);
                self.plain = plain;
                self.index = index;
                self.tags = tags;
                Ok(vec![])
            }
            ops::VERSION => {
                let counter = self.counter()?;
                let value = ctx.lib.read_migratable_counter(ctx.env, counter)?;
                Ok(value.to_le_bytes().to_vec())
            }
            ops::LEN => Ok((self.index.len() as u32).to_le_bytes().to_vec()),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }

    fn export_state(&self) -> Vec<u8> {
        // The snapshot, with a version of 0.
        let mut snapshot = self.plain.clone();
        for (byte, field) in snapshot.iter_mut().zip(self.header(0)) {
            *byte = field;
        }
        snapshot
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), SgxError> {
        let (counter_id, _version, index) = Self::parse(bytes)?;
        self.version_counter = Some(counter_id);
        self.plain = bytes.to_vec();
        self.index = index;
        // The staged container belongs to the replaced store.
        self.tags = Vec::new();
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
    use mig_core::datacenter::Datacenter;
    use mig_core::library::InitRequest;
    use mig_core::policy::MigrationPolicy;
    use sgx_sim::measurement::{EnclaveImage, EnclaveSigner};

    /// A snapshot of `entries`, in the order given.
    fn snapshot_of(counter: u8, version: u32, entries: &[(&[u8], &[u8])]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(counter).u32(version).u32(entries.len() as u32);
        for (key, value) in entries {
            w.bytes(key).bytes(value);
        }
        w.finish()
    }

    /// A snapshot holding one-byte `keys` in the order given, each with
    /// the value `v`.
    fn snapshot(counter: u8, version: u32, keys: &[u8]) -> Vec<u8> {
        let entries: Vec<(&[u8], &[u8])> = keys
            .iter()
            .map(|key| (std::slice::from_ref(key), b"v".as_slice()))
            .collect();
        snapshot_of(counter, version, &entries)
    }

    /// Writes one key, as a `PUT` does.
    fn put(store: &mut KvStore, version: u32, key: &[u8], value: &[u8]) -> Vec<Range<usize>> {
        let batch = [(Cow::Borrowed(key), Value::Bytes(value))];
        store.write(version, &batch).unwrap()
    }

    #[test]
    fn writes_keep_the_snapshot_and_its_index_in_step() {
        let mut store = KvStore::new();
        store.version_counter = Some(3);
        put(&mut store, 1, b"b", b"2");
        put(&mut store, 2, b"a", b"1");
        // Same length: only the value and the header change.
        let changed = put(&mut store, 3, b"b", b"x");
        let b = store.index[b"b".as_slice()].clone();
        assert_eq!(changed, [0..HEADER_LEN, b]);
        // A resize rewrites from its entry on.
        let changed = put(&mut store, 4, b"a", b"one");
        assert_eq!(changed, [0..HEADER_LEN, HEADER_LEN..store.plain.len()]);
        assert_eq!(
            store.plain,
            snapshot_of(3, 4, &[(b"a", b"one"), (b"b", b"x")])
        );
        let (id, version, index) = KvStore::parse(&store.plain).unwrap();
        assert_eq!((id, version), (3, 4));
        assert_eq!(index, store.index);
        // The export is the snapshot at version 0.
        assert_eq!(
            store.export_state(),
            snapshot_of(3, 0, &[(b"a", b"one"), (b"b", b"x")])
        );
    }

    #[test]
    fn a_batch_merges_in_one_pass() {
        let mut store = KvStore::new();
        let keys: [&[u8]; 4] = [b"b", b"d", b"f", b"h"];
        for (version, key) in keys.iter().enumerate() {
            put(&mut store, version as u32, key, b"old");
        }
        // Overwrite b at its length, insert c and g, resize f.
        let batch = [
            (Cow::Borrowed(b"b".as_slice()), Value::Bytes(b"BBB")),
            (Cow::Borrowed(b"c".as_slice()), Value::Bytes(b"new")),
            (Cow::Borrowed(b"f".as_slice()), Value::Bytes(b"longer")),
            (
                Cow::Borrowed(b"g".as_slice()),
                Value::Bulk {
                    entry: 1,
                    len: 2,
                    fill: 9,
                },
            ),
        ];
        let changed = store.write(9, &batch).unwrap();
        let c = store.entry_start(b"c");
        assert_eq!(
            changed,
            [
                0..HEADER_LEN,
                store.index[b"b".as_slice()].clone(),
                c..store.plain.len()
            ]
        );
        let expected: [(&[u8], &[u8]); 6] = [
            (b"b", b"BBB"),
            (b"c", b"new"),
            (b"d", b"old"),
            (b"f", b"longer"),
            (b"g", &[10, 11]),
            (b"h", b"old"),
        ];
        assert_eq!(store.plain, snapshot_of(0, 9, &expected));
        assert_eq!(store.plain.capacity(), store.plain.len(), "sized once");
        assert_eq!(KvStore::parse(&store.plain).unwrap().2, store.index);
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
        assert!(KvStore::parse(&[1, 2, 3]).is_err());
    }

    #[test]
    fn import_refuses_keys_out_of_order_or_repeated() {
        let mut store = KvStore::new();
        store.import_state(&snapshot(1, 0, b"ab")).unwrap();
        assert_eq!(store.index.len(), 2);
        for keys in [b"ba", b"aa"] {
            let err = store.import_state(&snapshot(1, 0, keys)).unwrap_err();
            assert_eq!(err, SgxError::Decode, "{keys:?}");
        }
        // Refused, the store is as it was.
        assert_eq!(store.plain, snapshot(1, 0, b"ab"));
    }

    /// The kvstore with one more opcode, [`FORGE`], which stages its input
    /// as the store's snapshot as it is: a container the store itself
    /// never writes.
    struct Forger(KvStore);

    const FORGE: u32 = 100;

    impl AppLogic for Forger {
        fn handle(
            &mut self,
            ctx: &mut AppCtx<'_, '_>,
            opcode: u32,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            if opcode != FORGE {
                return self.0.handle(ctx, opcode, input);
            }
            self.0.plain = input.to_vec();
            self.0.tags.clear();
            self.0
                .restage(ctx, std::slice::from_ref(&(0..input.len())))?;
            Ok(vec![])
        }
    }

    #[test]
    fn load_refuses_keys_out_of_order_or_repeated() {
        let mut dc = Datacenter::new(7);
        let m = dc.add_machine(Default::default(), &MigrationPolicy::same_operator_only());
        let image = EnclaveImage::build("kv-unit", 1, b"kv", &EnclaveSigner::from_seed([7; 32]));
        dc.deploy_app("kv", m, &image, Forger(KvStore::new()), InitRequest::New)
            .unwrap();
        let counter = dc.call_app("kv", ops::INIT, &[]).unwrap()[0];
        for (keys, loads) in [(b"ab", true), (b"ba", false), (b"aa", false)] {
            // At the counter's version, so that only the keys can refuse.
            dc.call_app("kv", FORGE, &snapshot(counter, 0, keys))
                .unwrap();
            let staged = dc.app_bulk_state("kv").unwrap().unwrap();
            let loaded = dc.call_app("kv", ops::LOAD, &staged);
            assert_eq!(loaded.is_ok(), loads, "{keys:?}: {loaded:?}");
        }
    }
}
