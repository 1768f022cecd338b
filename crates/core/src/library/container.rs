//! The staged container: an app's bulk state as the library stages it,
//! made only of blobs sealed under the Migration Sealing Key.
//!
//! `[2][u32 len][sealed head][u32 n]`, then `n` sealed segments, each
//! behind its `u32` length. The app decides what the head and the
//! segments hold (the kvstore: an index of segment tags, and 4 KiB of
//! its snapshot each); the library writes the framing and makes every
//! seal. A [`SealedContainer`] is built only by
//! [`ContainerWriter::finish`], whose blobs the library sealed, or by
//! [`ContainerReader::finish`], whose blobs all opened under the MSK.
//! So whatever the host stores of the staged state is MSK ciphertext,
//! and an app cannot stage plaintext by mistake:
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
//! A container records what its writer rewrote relative to the container
//! it was written over: the head, and each segment it sealed or moved.
//! Staging it over that very container marks only the pages of those
//! ranges due for the host ([`super::MigrationLibrary::write_pages`]).

use super::{migratable_header_len, migratable_sealed_size, MigrationLibrary};
use crate::error::MigError;
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

/// A staged container: MSK-sealed blobs in the library's framing,
/// shared by the app and the library.
#[derive(Clone)]
pub struct SealedContainer {
    pub(super) bytes: Arc<[u8]>,
    /// The library's number for this container.
    pub(super) id: u64,
    /// The container it was written over, and the ranges that differ
    /// from it.
    pub(super) rewritten: Option<(u64, Vec<Range<usize>>)>,
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

/// The segments of the container a writer writes over, read in order.
struct Base<'b> {
    container: &'b SealedContainer,
    r: WireReader<'b>,
    /// The index and range (length included) of the segment read last.
    last: Option<(usize, Range<usize>)>,
    /// The index of the next segment `r` reads.
    next: usize,
}

impl<'b> Base<'b> {
    fn new(container: &'b SealedContainer) -> Result<Self, MigError> {
        let mut r = WireReader::new(&container.bytes);
        r.u8()?;
        r.bytes()?;
        r.u32()?;
        Ok(Base {
            container,
            r,
            last: None,
            next: 0,
        })
    }

    /// Segment `i`'s range, its length included, if the base has one.
    /// Segments are asked for in ascending order.
    fn segment(&mut self, i: usize) -> Option<Range<usize>> {
        let end = self.container.bytes.len();
        while self.next <= i {
            let at = end - self.r.remaining();
            self.r.bytes().ok()?;
            self.last = Some((self.next, at..end - self.r.remaining()));
            self.next += 1;
        }
        self.last
            .as_ref()
            .filter(|(index, _)| *index == i)
            .map(|(_, range)| range.clone())
    }
}

/// Writes a container in one buffer of its final length: the segments
/// in order, each sealed under the MSK or copied from the container it
/// is written over, then the head.
pub struct ContainerWriter<'b> {
    buf: Arc<[u8]>,
    head_len: usize,
    /// Each segment's sealed length, in order.
    lens: Vec<usize>,
    /// The next segment's index, and where its length goes.
    next: usize,
    at: usize,
    base: Option<Base<'b>>,
    rewritten: Vec<Range<usize>>,
    scratch: Vec<u8>,
}

impl<'b> ContainerWriter<'b> {
    /// Starts a container over `base` (the container it replaces, whose
    /// unchanged segments it copies) with a `head_len`-byte sealed head
    /// and segments of `segment_lens` sealed bytes, in order (see
    /// [`migratable_sealed_size`]).
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] if a length does not fit its `u32`.
    pub fn new(
        base: Option<&'b SealedContainer>,
        head_len: usize,
        segment_lens: Vec<usize>,
    ) -> Result<Self, MigError> {
        let too_long = |_| MigError::Transfer("container exceeds wire limit");
        let head = u32::try_from(head_len).map_err(too_long)?;
        let n = u32::try_from(segment_lens.len()).map_err(too_long)?;
        let len = container_len(head_len, segment_lens.iter().copied());
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        // Fresh, so not shared.
        let out = Arc::get_mut(&mut buf).ok_or_else(malformed)?;
        put(out, 0, &[CONTAINER_MAGIC])?;
        put(out, 1, &head.to_le_bytes())?;
        put(out, 5 + head_len, &n.to_le_bytes())?;
        let at = HEAD_FRAMING + head_len;
        Ok(ContainerWriter {
            buf,
            head_len,
            lens: segment_lens,
            next: 0,
            at,
            base: base.map(Base::new).transpose()?,
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

    /// Writes the next segment, its length included, and moves on.
    fn write(&mut self, segment: &[u8], rewritten: bool) -> Result<(), MigError> {
        let range = self.at..self.at + segment.len();
        put(
            Arc::get_mut(&mut self.buf).ok_or_else(malformed)?,
            range.start,
            segment,
        )?;
        self.at = range.end;
        self.next += 1;
        if rewritten {
            self.rewritten.push(range);
        }
        Ok(())
    }

    /// Copies the next segment from the container written over, when it
    /// has one of the same sealed length, and returns its tag: an
    /// unchanged segment is never resealed. `None` when there is none to
    /// copy; the caller seals the segment instead.
    ///
    /// # Errors
    ///
    /// [`MigError::Protocol`] past the container's last segment.
    pub fn copy_segment(&mut self) -> Result<Option<[u8; TAG_LEN]>, MigError> {
        let len = self.slot()?;
        let Some(base) = self.base.as_mut() else {
            return Ok(None);
        };
        let container = base.container;
        let Some(from) = base.segment(self.next).filter(|from| from.len() == 4 + len) else {
            return Ok(None);
        };
        let moved = from.start != self.at;
        let segment = container.bytes.get(from).ok_or_else(malformed)?;
        self.write(segment, moved)?;
        tag_of(segment).map(Some)
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
        if let Some(base) = self.base.as_mut() {
            // Keep the base's reading in step with this container's.
            let _ = base.segment(self.next);
        }
        let prefix = u32::try_from(len)
            .map_err(|_| MigError::Transfer("container exceeds wire limit"))?
            .to_le_bytes();
        let mut segment = std::mem::take(&mut self.scratch);
        segment.clear();
        segment.extend_from_slice(&prefix);
        segment.resize(4 + migratable_header_len(aad.len()), 0);
        segment.extend_from_slice(plain);
        lib.seal_migratable_data_in_place(env, aad, &mut segment, 4)?;
        let written = self.write(&segment, true);
        let tag = tag_of(&segment);
        self.scratch = segment;
        written?;
        tag
    }

    /// Seals `head` under `aad` with the MSK into the head's slot and
    /// returns the container, once every segment is written.
    ///
    /// # Errors
    ///
    /// [`MigError::Protocol`] if segments are missing or the sealed head
    /// does not have the length the container was started with; phase
    /// errors as for sealing.
    pub fn finish(
        mut self,
        lib: &mut MigrationLibrary,
        env: &mut EnclaveEnv<'_>,
        aad: &[u8],
        head: &[u8],
    ) -> Result<SealedContainer, MigError> {
        if self.next != self.lens.len() {
            return Err(MigError::Protocol("container segments missing"));
        }
        let sealed = lib.seal_migratable_data(env, aad, head)?;
        if sealed.len() != self.head_len {
            return Err(MigError::Protocol("head does not fit its slot"));
        }
        put(
            Arc::get_mut(&mut self.buf).ok_or_else(malformed)?,
            5,
            &sealed,
        )?;
        Ok(SealedContainer {
            bytes: self.buf,
            id: lib.next_container_id(),
            rewritten: self.base.map(|base| (base.container.id, self.rewritten)),
        })
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
            rewritten: None,
        })
    }
}
