//! The staged container: an app's bulk state as the library stages it,
//! made only of blobs sealed under the Migration Sealing Key.
//!
//! `[2][u32 len][sealed head][u32 n]`, then `n` sealed segments, each
//! behind its `u32` length. The app decides what the head and the
//! segments hold (the kvstore: an index of segment tags, and 4 KiB of
//! its snapshot each); the library writes the framing and makes every
//! seal. The library stages only a container that
//! [`ContainerWriter::finish`] sealed or whose blobs all opened under
//! the MSK ([`ContainerReader::finish`], the only maker of a
//! [`SealedContainer`]). So whatever the host stores of the staged state
//! is MSK ciphertext, and an app cannot stage plaintext by mistake:
//!
//! ```compile_fail
//! use mig_core::harness::AppCtx;
//!
//! fn stage_plaintext(ctx: &mut AppCtx<'_, '_>) {
//!     let plaintext: Vec<u8> = b"account balances".to_vec();
//!     // Only a `SealedContainer` stages: this does not compile.
//!     ctx.lib.stage_bulk_state(ctx.env, &plaintext).unwrap();
//! }
//! ```
//!
//! **Writing over the staged container.** A [`ContainerWriter`] writes
//! over the container the library stages, and finishing stages what it
//! wrote. The app walks the segments in order: it keeps each unchanged
//! one ([`ContainerWriter::copy_segment`], given the tag it recorded for
//! that segment) and seals each changed one
//! ([`ContainerWriter::seal_segment`]).
//!
//! * When the new container has the staged one's exact layout (head
//!   length and every segment length), it is written over the staged
//!   buffer itself: a kept segment costs a tag comparison, and the
//!   sealed segments and the head go into their slots. Nothing is
//!   written before every segment is accounted for and the head is
//!   sealed, so a restage that fails leaves the staged container and its
//!   due pages exactly as they were. A staged buffer that another holder
//!   shares is copied first, and the holder's bytes do not change.
//! * Otherwise the container gets a buffer of its own, into which each
//!   kept segment is copied.
//!
//! Either way the library marks due only the pages of what differs from
//! the container written over: the head, and each segment sealed or
//! moved ([`super::MigrationLibrary::write_pages`]).

use super::{migratable_header_len, migratable_sealed_size, MigrationLibrary};
use crate::error::MigError;
use crate::transfer::chunker::MAX_STREAM_LEN;
use mig_crypto::ct::ct_eq;
use mig_crypto::gcm::TAG_LEN;
use sgx_sim::enclave::EnclaveEnv;
use sgx_sim::wire::WireReader;
use sgx_sim::SgxError;
use std::ops::Range;
use std::sync::Arc;

/// Leading byte of a staged container (a migratable-sealed blob starts
/// with its format version, 1).
pub const CONTAINER_MAGIC: u8 = 2;

/// Framing around the head blob: the magic byte, the head's `u32`
/// length and the `u32` segment count.
const HEAD_FRAMING: usize = 1 + 4 + 4;

/// Length of a container whose head blob is `head_len` sealed bytes and
/// whose segments are `segment_lens` sealed bytes each.
#[must_use]
pub fn container_len(head_len: usize, segment_lens: impl IntoIterator<Item = usize>) -> usize {
    HEAD_FRAMING + head_len + segment_lens.into_iter().map(|len| 4 + len).sum::<usize>()
}

fn malformed() -> MigError {
    MigError::Sgx(SgxError::Decode)
}

fn mac_mismatch() -> MigError {
    MigError::Sgx(SgxError::MacMismatch)
}

/// Copies `bytes` into `out` at `at`.
fn put(out: &mut [u8], at: usize, bytes: &[u8]) -> Result<(), MigError> {
    out.get_mut(at..at + bytes.len())
        .ok_or_else(malformed)?
        .copy_from_slice(bytes);
    Ok(())
}

/// The tag ending a sealed blob.
fn tag_of(sealed: &[u8]) -> Result<[u8; TAG_LEN], MigError> {
    sealed.last_chunk().copied().ok_or_else(malformed)
}

/// The little-endian `u32` at `at`, if `bytes` holds one there.
fn u32_at(bytes: &[u8], at: usize) -> Option<usize> {
    let word = bytes.get(at..)?.first_chunk::<4>()?;
    Some(u32::from_le_bytes(*word) as usize)
}

/// Whether `bytes` is a container with a `head_len`-byte head and
/// segments of `lens` sealed bytes, in order: every length word is
/// read where that layout puts it.
fn has_layout(bytes: &[u8], head_len: usize, lens: &[usize]) -> bool {
    let mut at = HEAD_FRAMING + head_len;
    bytes.len() == container_len(head_len, lens.iter().copied())
        && bytes.first() == Some(&CONTAINER_MAGIC)
        && u32_at(bytes, 1) == Some(head_len)
        && u32_at(bytes, at - 4) == Some(lens.len())
        && lens.iter().all(|&len| {
            let slot = at;
            at += 4 + len;
            u32_at(bytes, slot) == Some(len)
        })
}

/// A staged container: MSK-sealed blobs in the library's framing, as
/// [`ContainerReader::finish`] returns it for the app to stage.
#[derive(Clone)]
pub struct SealedContainer {
    pub(super) bytes: Arc<[u8]>,
    /// The library's number for this container.
    pub(super) id: u64,
}

impl SealedContainer {
    /// The container's bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl std::fmt::Debug for SealedContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedContainer")
            .field("len", &self.bytes.len())
            .finish_non_exhaustive()
    }
}

/// The container a writer writes over: the one the library staged when
/// the writer started. The writer reads it only while the library still
/// stages it.
struct Base {
    /// The library's number for it.
    id: u64,
    /// Where its segment `next` starts (its length word), for reading
    /// its segments in order when the layout differs.
    cursor: usize,
    next: usize,
}

impl Base {
    /// Segment `i`'s range in the base's `bytes`, its length included, if
    /// it has one. Segments are asked for in ascending order.
    fn segment(&mut self, bytes: &[u8], i: usize) -> Option<Range<usize>> {
        while self.next < i {
            self.cursor += 4 + u32_at(bytes, self.cursor)?;
            self.next += 1;
        }
        let range = self.cursor..self.cursor + 4 + u32_at(bytes, self.cursor)?;
        (self.next == i && range.end <= bytes.len()).then_some(range)
    }
}

/// Writes a container over the library's staged one and stages it: the
/// segments in order, each kept from the container written over or
/// sealed under the MSK, then the head (see the module docs for where
/// the bytes go).
pub struct ContainerWriter {
    head_len: usize,
    /// Each segment's sealed length, in order.
    lens: Vec<usize>,
    /// The next segment's index, and where its length goes.
    next: usize,
    at: usize,
    base: Option<Base>,
    /// The container's own buffer; `None` when it has the base's layout
    /// and is written over the base by [`ContainerWriter::finish`].
    own: Option<Arc<[u8]>>,
    /// What differs from the base, ascending: the head with its framing,
    /// then each segment sealed or moved.
    rewritten: Vec<Range<usize>>,
    /// Sealed segments, each with its length: into an own buffer, the
    /// last one; over the base, every one, back to back, until `finish`
    /// writes them into their slots.
    scratch: Vec<u8>,
}

impl ContainerWriter {
    /// Starts a container with a `head_len`-byte sealed head and
    /// segments of `segment_lens` sealed bytes, in order (see
    /// [`migratable_sealed_size`]), over the container `lib` stages.
    ///
    /// # Errors
    ///
    /// Phase errors outside normal operation; [`MigError::Transfer`] if
    /// a length does not fit its `u32` or the container exceeds the
    /// streaming engine's [`MAX_STREAM_LEN`].
    pub fn new(
        lib: &MigrationLibrary,
        head_len: usize,
        segment_lens: Vec<usize>,
    ) -> Result<Self, MigError> {
        lib.operational_state()?;
        let too_long = |_| MigError::Transfer("container exceeds wire limit");
        let head = u32::try_from(head_len).map_err(too_long)?;
        let n = u32::try_from(segment_lens.len()).map_err(too_long)?;
        let len = container_len(head_len, segment_lens.iter().copied());
        if len as u64 > MAX_STREAM_LEN {
            return Err(MigError::Transfer("bulk state exceeds stream limit"));
        }
        let at = HEAD_FRAMING + head_len;
        let staged = lib.bulk_state.as_deref().zip(lib.staged_id);
        let base = staged.map(|(bytes, id)| Base {
            id,
            cursor: u32_at(bytes, 1).map_or(bytes.len(), |head| HEAD_FRAMING + head),
            next: 0,
        });
        let own = if staged.is_some_and(|(bytes, _)| has_layout(bytes, head_len, &segment_lens)) {
            None
        } else {
            let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
            // Fresh, so not shared.
            let out = Arc::get_mut(&mut buf).ok_or_else(malformed)?;
            put(out, 0, &[CONTAINER_MAGIC])?;
            put(out, 1, &head.to_le_bytes())?;
            put(out, 5 + head_len, &n.to_le_bytes())?;
            Some(buf)
        };
        Ok(ContainerWriter {
            head_len,
            lens: segment_lens,
            next: 0,
            at,
            base,
            own,
            rewritten: std::iter::once(0..at).collect(),
            scratch: Vec::new(),
        })
    }

    /// The next segment's sealed length.
    fn slot(&self) -> Result<usize, MigError> {
        self.lens
            .get(self.next)
            .copied()
            .ok_or(MigError::Protocol("more segments than the container holds"))
    }

    /// Keeps the next segment as the container written over holds it, if
    /// that one is there at the same sealed length and ends with `tag`
    /// (the tag the app recorded when it sealed or loaded the segment):
    /// an unchanged segment is never resealed, and over an unchanged
    /// layout not even copied. `false` when there is none to keep; the
    /// caller seals the segment instead.
    ///
    /// # Errors
    ///
    /// [`MigError::Protocol`] past the container's last segment.
    pub fn copy_segment(
        &mut self,
        lib: &MigrationLibrary,
        tag: &[u8; TAG_LEN],
    ) -> Result<bool, MigError> {
        let len = self.slot()?;
        let Some(base) = self.base.as_mut() else {
            return Ok(false);
        };
        let Some(bytes) = lib.staged_bytes(base.id) else {
            return Ok(false);
        };
        let from = match self.own {
            None => self.at..self.at + 4 + len,
            Some(_) => match base.segment(bytes, self.next) {
                Some(from) => from,
                None => return Ok(false),
            },
        };
        let Some(segment) = bytes.get(from.clone()).filter(|kept| kept.len() == 4 + len) else {
            return Ok(false);
        };
        if !tag_of(segment).is_ok_and(|kept| ct_eq(&kept, tag)) {
            return Ok(false);
        }
        if let Some(buf) = self.own.as_mut() {
            put(Arc::get_mut(buf).ok_or_else(malformed)?, self.at, segment)?;
            if from.start != self.at {
                self.rewritten.push(self.at..self.at + segment.len());
            }
        }
        self.at += 4 + len;
        self.next += 1;
        Ok(true)
    }

    /// Seals `plain` under `aad` with the MSK as the next segment and
    /// returns its tag.
    ///
    /// # Errors
    ///
    /// [`MigError::Protocol`] if the sealed segment does not have the
    /// length the container was started with; phase errors as for
    /// sealing.
    pub fn seal_segment(
        &mut self,
        lib: &mut MigrationLibrary,
        env: &mut EnclaveEnv<'_>,
        aad: &[u8],
        plain: &[u8],
    ) -> Result<[u8; TAG_LEN], MigError> {
        let len = self.slot()?;
        if migratable_sealed_size(aad.len(), plain.len()) != len {
            return Err(MigError::Protocol("segment does not fit its slot"));
        }
        let prefix = u32::try_from(len)
            .map_err(|_| MigError::Transfer("container exceeds wire limit"))?
            .to_le_bytes();
        if self.own.is_some() {
            self.scratch.clear();
        }
        let start = self.scratch.len();
        self.scratch.reserve(4 + len);
        self.scratch.extend_from_slice(&prefix);
        self.scratch
            .resize(start + 4 + migratable_header_len(aad.len()), 0);
        self.scratch.extend_from_slice(plain);
        lib.seal_migratable_data_in_place(env, aad, &mut self.scratch, start + 4)?;
        let segment = self.scratch.get(start..).ok_or_else(malformed)?;
        let range = self.at..self.at + segment.len();
        if let Some(buf) = self.own.as_mut() {
            put(
                Arc::get_mut(buf).ok_or_else(malformed)?,
                range.start,
                segment,
            )?;
        }
        let tag = tag_of(segment)?;
        self.at = range.end;
        self.next += 1;
        self.rewritten.push(range);
        Ok(tag)
    }

    /// Seals `head` under `aad` with the MSK into the head's slot, once
    /// every segment is written, and stages the container in place of
    /// the one written over. Returns its length.
    ///
    /// # Errors
    ///
    /// [`MigError::Protocol`] if segments are missing, the sealed head
    /// does not have the length the container was started with, or the
    /// container written over in place is no longer the one staged;
    /// phase errors as for sealing. On every error the staged container
    /// and its due pages are as they were.
    pub fn finish(
        self,
        lib: &mut MigrationLibrary,
        env: &mut EnclaveEnv<'_>,
        aad: &[u8],
        head: &[u8],
    ) -> Result<usize, MigError> {
        if self.next != self.lens.len() {
            return Err(MigError::Protocol("container segments missing"));
        }
        let sealed = lib.seal_migratable_data(env, aad, head)?;
        if sealed.len() != self.head_len {
            return Err(MigError::Protocol("head does not fit its slot"));
        }
        let base = self.base.map(|base| base.id);
        let bytes = match self.own {
            Some(mut buf) => {
                put(Arc::get_mut(&mut buf).ok_or_else(malformed)?, 5, &sealed)?;
                buf
            }
            None => {
                let staged = base
                    .filter(|&id| lib.staged_bytes(id).is_some())
                    .and(lib.bulk_state.as_mut())
                    .ok_or(MigError::Protocol(
                        "staged container changed under its writer",
                    ))?;
                // In place when the library holds the only reference.
                // `new` found every slot where the layout puts it, and
                // each sealed segment fit its slot, so no write below
                // fails part-way.
                let out = Arc::make_mut(staged);
                put(out, 5, &sealed)?;
                let mut segments = self.scratch.as_slice();
                for range in self.rewritten.iter().skip(1) {
                    let (segment, rest) = segments
                        .split_at_checked(range.len())
                        .ok_or_else(malformed)?;
                    put(out, range.start, segment)?;
                    segments = rest;
                }
                Arc::clone(staged)
            }
        };
        let len = bytes.len();
        let id = lib.next_container_id();
        lib.stage(
            bytes,
            id,
            base.map(|base| (base, self.rewritten.as_slice())),
        );
        Ok(len)
    }
}

/// Opens a container's segments in order, each checked against the tag
/// the app expects before anything is decrypted (see
/// [`MigrationLibrary::open_container`]).
#[derive(Debug)]
pub struct ContainerReader<'b> {
    bytes: &'b [u8],
    r: WireReader<'b>,
    n: usize,
    opened: usize,
}

impl MigrationLibrary {
    /// Opens `bytes` as a staged container (an app's `LOAD`): unseals its
    /// head into `head` and returns the head's AAD and a reader of its
    /// segments.
    ///
    /// # Errors
    ///
    /// [`MigError::Sgx`]: `Decode` for bytes that are not a container,
    /// `MacMismatch` for a head not sealed under this MSK; phase errors
    /// as for unsealing.
    pub fn open_container<'b>(
        &mut self,
        env: &mut EnclaveEnv<'_>,
        bytes: &'b [u8],
        head: &mut Vec<u8>,
    ) -> Result<(ContainerReader<'b>, &'b [u8]), MigError> {
        let mut r = WireReader::new(bytes);
        if r.u8()? != CONTAINER_MAGIC {
            return Err(malformed());
        }
        let aad = self.unseal_migratable_data_into(env, r.bytes()?, head)?;
        let n = r.u32()? as usize;
        Ok((
            ContainerReader {
                bytes,
                r,
                n,
                opened: 0,
            },
            aad,
        ))
    }
}

impl<'b> ContainerReader<'b> {
    /// The number of segments the container's framing declares.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.n
    }

    /// Opens the next segment, appending its plaintext to `out`, if its
    /// tag (its sealed blob's last [`TAG_LEN`] bytes) equals `tag`,
    /// compared in constant time before anything is decrypted; returns
    /// its AAD.
    ///
    /// # Errors
    ///
    /// `MacMismatch` for another tag or a segment that does not open
    /// under the MSK; `Decode` past the last segment or for a torn one.
    pub fn open_segment(
        &mut self,
        lib: &mut MigrationLibrary,
        env: &mut EnclaveEnv<'_>,
        tag: &[u8; TAG_LEN],
        out: &mut Vec<u8>,
    ) -> Result<&'b [u8], MigError> {
        if self.opened == self.n {
            return Err(malformed());
        }
        let sealed = self.r.bytes()?;
        if !ct_eq(&tag_of(sealed)?, tag) {
            // A segment spliced in from another container.
            return Err(mac_mismatch());
        }
        let aad = lib.unseal_migratable_data_into(env, sealed, out)?;
        self.opened += 1;
        Ok(aad)
    }

    /// Ends the opening, once every segment opened and nothing trails
    /// them, and returns the container: the library's staged buffer
    /// when it holds these very bytes, else a copy of them.
    ///
    /// # Errors
    ///
    /// `Decode` for unopened segments or trailing bytes.
    pub fn finish(self, lib: &mut MigrationLibrary) -> Result<SealedContainer, MigError> {
        if self.opened != self.n {
            return Err(malformed());
        }
        self.r.finish()?;
        if let Some(staged) = lib.staged_as(self.bytes) {
            return Ok(staged);
        }
        Ok(SealedContainer {
            bytes: Arc::from(self.bytes),
            id: lib.next_container_id(),
        })
    }
}
