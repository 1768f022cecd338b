//! Dirty-page delta checkpoints: page-granular diffing between state
//! generations so a repeat migration ships only the pages that changed.
//!
//! A state blob is viewed as a sequence of fixed-size pages
//! ([`PAGE_SIZE`]). [`PageDigests`] records one SHA-256 per page of a
//! generation; [`diff`] compares a new state against a base generation's
//! digest table and produces a [`DeltaManifest`] (the compact description
//! of which pages changed) plus the packed dirty-page payload; [`apply`]
//! reconstructs the new state from the base plus the delta and verifies
//! the announced whole-state digest before returning.
//!
//! Trust model: digest tables may live on the adversary-controlled disk
//! (see [`super::checkpoint::CheckpointStore`]) and manifests travel
//! inside the attested ME↔ME channel. A corrupted digest table can only
//! cause a *wrong* delta, never a silently wrong state: [`apply`]
//! validates the manifest's internal consistency before touching any
//! page and checks the reconstructed state against
//! [`DeltaManifest::new_digest`] before releasing it.

use crate::error::MigError;
use crate::transfer::chunker::MAX_STREAM_LEN;
use mig_crypto::sha256::{sha256, Sha256};
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;

/// Dirty-tracking page granularity in bytes.
pub const PAGE_SIZE: u32 = 4096;

/// Number of pages a payload of `total_len` splits into.
#[must_use]
pub fn page_count(total_len: u64, page_size: u32) -> u32 {
    debug_assert!(page_size > 0);
    u32::try_from(total_len.div_ceil(u64::from(page_size))).expect("bounded by MAX_STREAM_LEN")
}

fn page_len(total_len: u64, page_size: u32, idx: u32) -> u64 {
    let start = u64::from(idx) * u64::from(page_size);
    total_len.saturating_sub(start).min(u64::from(page_size))
}

fn page_slice(payload: &[u8], page_size: u32, idx: u32) -> &[u8] {
    let start = idx as usize * page_size as usize;
    let end = (start + page_size as usize).min(payload.len());
    &payload[start..end]
}

/// Per-page SHA-256 digest table of one state generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDigests {
    page_size: u32,
    total_len: u64,
    /// SHA-256 of the whole digested state (content-addresses the
    /// generation; copied into [`DeltaManifest::base_digest`]).
    state_digest: [u8; 32],
    digests: Vec<[u8; 32]>,
}

impl PageDigests {
    /// Computes the digest table of `payload` at `page_size` granularity.
    ///
    /// # Panics
    ///
    /// Panics on a zero page size (caller invariant).
    #[must_use]
    pub fn compute(payload: &[u8], page_size: u32) -> Self {
        assert!(page_size > 0, "zero page size");
        let n = page_count(payload.len() as u64, page_size);
        let digests = (0..n)
            .map(|idx| sha256(page_slice(payload, page_size, idx)))
            .collect();
        PageDigests {
            page_size,
            total_len: payload.len() as u64,
            state_digest: sha256(payload),
            digests,
        }
    }

    /// SHA-256 of the whole digested state.
    #[must_use]
    pub fn state_digest(&self) -> [u8; 32] {
        self.state_digest
    }

    /// The page granularity.
    #[must_use]
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Total length of the digested state.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Number of pages.
    #[must_use]
    pub fn n_pages(&self) -> u32 {
        self.digests.len() as u32
    }

    /// Serializes the table (checkpoint-store sidecar format).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.page_size);
        w.u64(self.total_len);
        w.array(&self.state_digest);
        w.u32(self.digests.len() as u32);
        for d in &self.digests {
            w.array(d);
        }
        w.finish()
    }

    /// Parses a digest table.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed or internally inconsistent
    /// input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let page_size = r.u32()?;
        let total_len = r.u64()?;
        let state_digest = r.array()?;
        let n = r.u32()?;
        if page_size == 0 || total_len > MAX_STREAM_LEN || n != page_count(total_len, page_size) {
            return Err(SgxError::Decode);
        }
        // The sidecar lives on the adversary-controlled disk: cap the
        // up-front allocation so a forged header (tiny page size, huge
        // count) cannot demand gigabytes before the reads fail.
        let mut digests = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            digests.push(r.array()?);
        }
        r.finish()?;
        Ok(PageDigests {
            page_size,
            total_len,
            state_digest,
            digests,
        })
    }
}

/// The compact description of a dirty-page delta between two state
/// generations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaManifest {
    /// Generation the delta applies on top of.
    pub base_generation: u64,
    /// Generation the delta produces.
    pub new_generation: u64,
    /// Page granularity of the diff.
    pub page_size: u32,
    /// Length of the base state in bytes.
    pub base_len: u64,
    /// Length of the new state in bytes.
    pub new_len: u64,
    /// SHA-256 of the base state. Generation numbers alone do not
    /// identify content (two stores can number independently after a
    /// fallback reset); the digest pins the exact base so a delta is
    /// never applied onto the wrong snapshot.
    pub base_digest: [u8; 32],
    /// SHA-256 of the complete new state ([`apply`] verifies it).
    pub new_digest: [u8; 32],
    /// Dirty page indices in the new state's layout, strictly ascending.
    pub dirty: Vec<u32>,
}

impl DeltaManifest {
    /// Total length of the packed dirty-page payload.
    #[must_use]
    pub fn payload_len(&self) -> u64 {
        self.dirty
            .iter()
            .map(|&idx| page_len(self.new_len, self.page_size, idx))
            .sum()
    }

    /// Internal-consistency check, run before any page is applied.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on degenerate geometry, out-of-range or
    /// non-ascending dirty indices, or an empty dirty set.
    pub fn validate(&self) -> Result<(), MigError> {
        if self.page_size == 0 {
            return Err(MigError::Transfer("delta: zero page size"));
        }
        if self.new_len == 0 || self.new_len > MAX_STREAM_LEN || self.base_len > MAX_STREAM_LEN {
            return Err(MigError::Transfer("delta: state length out of bounds"));
        }
        if self.dirty.is_empty() {
            return Err(MigError::Transfer("delta: empty dirty set"));
        }
        let n_pages = page_count(self.new_len, self.page_size);
        let mut prev: Option<u32> = None;
        for &idx in &self.dirty {
            if idx >= n_pages {
                return Err(MigError::Transfer("delta: dirty page out of range"));
            }
            if prev.is_some_and(|p| idx <= p) {
                return Err(MigError::Transfer("delta: dirty pages not ascending"));
            }
            prev = Some(idx);
        }
        Ok(())
    }

    /// Length of [`DeltaManifest::to_bytes`] in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 4 + 8 + 8 + 32 + 32 + 4 + 4 * self.dirty.len()
    }

    /// Serializes the manifest (travels inside `DeltaStart`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        w.u64(self.base_generation);
        w.u64(self.new_generation);
        w.u32(self.page_size);
        w.u64(self.base_len);
        w.u64(self.new_len);
        w.array(&self.base_digest);
        w.array(&self.new_digest);
        w.u32(self.dirty.len() as u32);
        for &idx in &self.dirty {
            w.u32(idx);
        }
        w.finish()
    }

    /// Parses and validates a manifest.
    ///
    /// # Errors
    ///
    /// [`SgxError::Decode`] on malformed input or a manifest that fails
    /// [`DeltaManifest::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SgxError> {
        let mut r = WireReader::new(bytes);
        let base_generation = r.u64()?;
        let new_generation = r.u64()?;
        let page_size = r.u32()?;
        let base_len = r.u64()?;
        let new_len = r.u64()?;
        let base_digest = r.array()?;
        let new_digest = r.array()?;
        let n = r.u32()? as usize;
        let mut dirty = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            dirty.push(r.u32()?);
        }
        r.finish()?;
        let manifest = DeltaManifest {
            base_generation,
            new_generation,
            page_size,
            base_len,
            new_len,
            base_digest,
            new_digest,
            dirty,
        };
        manifest.validate().map_err(|_| SgxError::Decode)?;
        Ok(manifest)
    }
}

/// Diffs `new_state` against the `base` digest table, returning the
/// manifest and the packed dirty-page payload.
///
/// A page is dirty when it lies beyond the base, its length differs from
/// the base page, or its digest differs. When nothing changed, page 0 is
/// still marked dirty so the delta (and its chunk stream) is never empty
/// — an identical repeat migration ships one page instead of zero.
///
/// # Panics
///
/// Panics when `new_state` is empty (callers stream only non-empty
/// state) or the digest table has a zero page size.
#[must_use]
pub fn diff(
    base: &PageDigests,
    base_generation: u64,
    new_generation: u64,
    new_state: &[u8],
) -> (DeltaManifest, Vec<u8>) {
    assert!(!new_state.is_empty(), "empty state cannot be diffed");
    let page_size = base.page_size();
    let n_pages = page_count(new_state.len() as u64, page_size);
    let mut dirty = Vec::new();
    let mut payload = Vec::new();
    for idx in 0..n_pages {
        let page = page_slice(new_state, page_size, idx);
        let clean = idx < base.n_pages()
            && page_len(base.total_len, page_size, idx) == page.len() as u64
            && mig_crypto::ct::ct_eq(&base.digests[idx as usize], &sha256(page));
        if !clean {
            dirty.push(idx);
            payload.extend_from_slice(page);
        }
    }
    if dirty.is_empty() {
        dirty.push(0);
        payload.extend_from_slice(page_slice(new_state, page_size, 0));
    }
    let manifest = DeltaManifest {
        base_generation,
        new_generation,
        page_size,
        base_len: base.total_len(),
        new_len: new_state.len() as u64,
        base_digest: base.state_digest(),
        new_digest: sha256(new_state),
        dirty,
    };
    (manifest, payload)
}

/// Reconstructs the new state from `base` plus a delta, verifying the
/// manifest *before* any page is applied and the whole-state digest
/// before the result is released.
///
/// # Errors
///
/// [`MigError::Transfer`] when the manifest fails validation, the base or
/// payload length does not match the manifest, a clean page is not fully
/// covered by the base, or the reconstructed state's digest differs from
/// [`DeltaManifest::new_digest`].
pub fn apply(base: &[u8], manifest: &DeltaManifest, payload: &[u8]) -> Result<Vec<u8>, MigError> {
    // All validation happens up front: nothing is reconstructed from a
    // manifest that is internally inconsistent.
    manifest.validate()?;
    if base.len() as u64 != manifest.base_len {
        return Err(MigError::Transfer("delta: base length mismatch"));
    }
    if !mig_crypto::ct::ct_eq(&sha256(base), &manifest.base_digest) {
        return Err(MigError::Transfer("delta: base digest mismatch"));
    }
    if payload.len() as u64 != manifest.payload_len() {
        return Err(MigError::Transfer("delta: payload length mismatch"));
    }
    let n_pages = page_count(manifest.new_len, manifest.page_size);
    // Every clean page must be fully present in the base.
    for idx in 0..n_pages {
        if manifest.dirty.binary_search(&idx).is_err() {
            let end = u64::from(idx) * u64::from(manifest.page_size)
                + page_len(manifest.new_len, manifest.page_size, idx);
            if end > manifest.base_len {
                return Err(MigError::Transfer("delta: clean page outside base"));
            }
        }
    }

    let mut out = Vec::with_capacity(manifest.new_len as usize);
    let mut taken = 0usize;
    for idx in 0..n_pages {
        let len = page_len(manifest.new_len, manifest.page_size, idx) as usize;
        if manifest.dirty.binary_search(&idx).is_ok() {
            out.extend_from_slice(&payload[taken..taken + len]);
            taken += len;
        } else {
            let start = idx as usize * manifest.page_size as usize;
            out.extend_from_slice(&base[start..start + len]);
        }
    }
    if !mig_crypto::ct::ct_eq(&sha256(&out), &manifest.new_digest) {
        return Err(MigError::Transfer("delta: reconstructed digest mismatch"));
    }
    Ok(out)
}

/// Destination-side **speculative delta restore**.
///
/// The eager counterpart of [`apply`]: instead of reconstructing the new
/// state only after the whole packed payload arrived, the retained base
/// is staged up front (manifest validated, base content-checked, clean
/// pages copied into place) and the dirty-page payload is overlaid
/// fragment by fragment as its chunks verify, folding the new state's
/// whole digest in incrementally. When the final chunk lands, only the
/// digest finalize and the release remain. The release rule is identical
/// to [`apply`]'s: nothing is handed out before the reconstructed state
/// matches [`DeltaManifest::new_digest`].
pub struct StagedApply {
    manifest: DeltaManifest,
    /// The staged output: clean pages copied from the base up front,
    /// dirty page slots overwritten as payload bytes verify.
    out: Vec<u8>,
    /// Payload bytes absorbed so far (the packed dirty pages arrive
    /// strictly in order behind the chunk chain).
    absorbed: u64,
    /// Cursor into the dirty-page list: which dirty page the next
    /// payload byte lands in, and how far into it.
    rank: usize,
    offset_in_page: u64,
    /// Incremental SHA-256 over `out`, folded in up to `hashed_upto` —
    /// the frontier below which every byte is final (clean pages, plus
    /// dirty pages fully covered by absorbed payload).
    hasher: Sha256,
    hashed_upto: usize,
}

impl std::fmt::Debug for StagedApply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedApply")
            .field("new_len", &self.manifest.new_len)
            .field("absorbed", &self.absorbed)
            .field("hashed_upto", &self.hashed_upto)
            .finish_non_exhaustive()
    }
}

impl StagedApply {
    /// Stages `base` for the delta described by `manifest`: validates
    /// the manifest, content-checks the base (length + digest), and
    /// copies every clean page into the output buffer.
    ///
    /// # Errors
    ///
    /// The same rejections as [`apply`]'s up-front phase:
    /// [`MigError::Transfer`] on a manifest that fails validation, a
    /// base length/digest mismatch, or a clean page not fully covered by
    /// the base.
    pub fn new(base: &[u8], manifest: &DeltaManifest) -> Result<Self, MigError> {
        manifest.validate()?;
        if base.len() as u64 != manifest.base_len {
            return Err(MigError::Transfer("delta: base length mismatch"));
        }
        if !mig_crypto::ct::ct_eq(&sha256(base), &manifest.base_digest) {
            return Err(MigError::Transfer("delta: base digest mismatch"));
        }
        let n_pages = page_count(manifest.new_len, manifest.page_size);
        let mut out = vec![0u8; manifest.new_len as usize];
        for idx in 0..n_pages {
            if manifest.dirty.binary_search(&idx).is_ok() {
                continue;
            }
            let start = idx as usize * manifest.page_size as usize;
            let len = page_len(manifest.new_len, manifest.page_size, idx) as usize;
            if (start + len) as u64 > manifest.base_len {
                return Err(MigError::Transfer("delta: clean page outside base"));
            }
            out[start..start + len].copy_from_slice(&base[start..start + len]);
        }
        let mut staged = StagedApply {
            manifest: manifest.clone(),
            out,
            absorbed: 0,
            rank: 0,
            offset_in_page: 0,
            hasher: Sha256::new(),
            hashed_upto: 0,
        };
        // A clean prefix (pages before the first dirty one) is final
        // immediately; fold it in now.
        staged.advance_hash();
        Ok(staged)
    }

    /// The generation this staged delta produces.
    #[must_use]
    pub fn new_generation(&self) -> u64 {
        self.manifest.new_generation
    }

    /// The manifest being applied.
    #[must_use]
    pub fn manifest(&self) -> &DeltaManifest {
        &self.manifest
    }

    /// Overlays the next `bytes` of the verified packed payload onto the
    /// staged output and advances the incremental digest over every byte
    /// that just became final. Feed exactly the chunk payloads, in chunk
    /// order.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when more payload arrives than the
    /// manifest's dirty pages can absorb.
    pub fn absorb(&mut self, mut bytes: &[u8]) -> Result<(), MigError> {
        while !bytes.is_empty() {
            let Some(&page) = self.manifest.dirty.get(self.rank) else {
                return Err(MigError::Transfer("delta: payload length mismatch"));
            };
            let page_len = page_len(self.manifest.new_len, self.manifest.page_size, page);
            let start =
                page as usize * self.manifest.page_size as usize + self.offset_in_page as usize;
            let take = ((page_len - self.offset_in_page) as usize).min(bytes.len());
            self.out[start..start + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.absorbed += take as u64;
            self.offset_in_page += take as u64;
            if self.offset_in_page == page_len {
                self.rank += 1;
                self.offset_in_page = 0;
            }
        }
        self.advance_hash();
        Ok(())
    }

    /// Folds every newly finalized byte of `out` into the running
    /// digest. The frontier is the start of the first dirty page the
    /// payload has not fully covered yet (everything before it — clean
    /// pages included — can never change again), or the whole state once
    /// the payload is complete.
    fn advance_hash(&mut self) {
        let frontier = match self.manifest.dirty.get(self.rank) {
            Some(&page) => {
                (u64::from(page) * u64::from(self.manifest.page_size) + self.offset_in_page)
                    as usize
            }
            None => self.out.len(),
        };
        if frontier > self.hashed_upto {
            self.hasher.update(&self.out[self.hashed_upto..frontier]);
            self.hashed_upto = frontier;
        }
    }

    /// Finalizes the staged state: checks that the payload is complete
    /// and the reconstructed state matches the manifest's
    /// [`DeltaManifest::new_digest`], then releases it.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on a short payload or a digest mismatch
    /// (the reconstruction is discarded).
    pub fn finish(self) -> Result<Vec<u8>, MigError> {
        if self.absorbed != self.manifest.payload_len() {
            return Err(MigError::Transfer("delta: payload length mismatch"));
        }
        debug_assert_eq!(self.hashed_upto, self.out.len());
        if !mig_crypto::ct::ct_eq(&self.hasher.finalize(), &self.manifest.new_digest) {
            return Err(MigError::Transfer("delta: reconstructed digest mismatch"));
        }
        Ok(self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(len: usize, fill: u8) -> Vec<u8> {
        (0..len)
            .map(|i| fill.wrapping_add((i % 251) as u8))
            .collect()
    }

    #[test]
    fn diff_apply_round_trip_same_len() {
        let base = state(20_000, 0);
        let mut new = base.clone();
        new[5000] ^= 0xFF;
        new[5001] ^= 0x0F;
        new[12_288] ^= 1; // page 3 boundary
        let digests = PageDigests::compute(&base, PAGE_SIZE);
        let (manifest, payload) = diff(&digests, 4, 5, &new);
        assert_eq!(manifest.dirty, vec![1, 3]);
        assert_eq!(payload.len() as u64, manifest.payload_len());
        assert_eq!(apply(&base, &manifest, &payload).unwrap(), new);
    }

    #[test]
    fn diff_handles_growth_and_shrink() {
        let base = state(10_000, 7);
        for new_len in [3_000usize, 10_000, 17_000] {
            let mut new = state(new_len, 7);
            if new_len >= 10_000 {
                new[100] ^= 1;
            }
            let digests = PageDigests::compute(&base, PAGE_SIZE);
            let (manifest, payload) = diff(&digests, 0, 1, &new);
            assert_eq!(apply(&base, &manifest, &payload).unwrap(), new);
        }
    }

    #[test]
    fn identical_states_ship_exactly_one_page() {
        let base = state(50_000, 3);
        let digests = PageDigests::compute(&base, PAGE_SIZE);
        let (manifest, payload) = diff(&digests, 1, 2, &base);
        assert_eq!(manifest.dirty, vec![0]);
        assert_eq!(payload.len(), PAGE_SIZE as usize);
        assert_eq!(apply(&base, &manifest, &payload).unwrap(), base);
    }

    #[test]
    fn small_page_size_diffs_precisely() {
        let base = state(1000, 9);
        let mut new = base.clone();
        new[130] ^= 2;
        let digests = PageDigests::compute(&base, 64);
        let (manifest, payload) = diff(&digests, 0, 1, &new);
        assert_eq!(manifest.dirty, vec![2]);
        assert_eq!(payload.len(), 64);
        assert_eq!(apply(&base, &manifest, &payload).unwrap(), new);
    }

    #[test]
    fn tampered_manifest_rejected_before_apply() {
        let base = state(20_000, 0);
        let mut new = base.clone();
        new[0] ^= 1;
        let digests = PageDigests::compute(&base, PAGE_SIZE);
        let (manifest, payload) = diff(&digests, 0, 1, &new);

        // Out-of-range dirty index.
        let mut m = manifest.clone();
        m.dirty = vec![999];
        assert!(apply(&base, &m, &payload).is_err());
        // Non-ascending indices.
        let mut m = manifest.clone();
        m.dirty = vec![1, 1];
        assert!(apply(&base, &m, &payload).is_err());
        // Payload length mismatch.
        assert!(apply(&base, &manifest, &payload[..payload.len() - 1]).is_err());
        // Base length mismatch.
        assert!(apply(&base[..100], &manifest, &payload).is_err());
        // Digest mismatch: reconstruction is discarded.
        let mut m = manifest.clone();
        m.new_digest[0] ^= 1;
        assert!(apply(&base, &m, &payload).is_err());
    }

    /// Feeds `payload` into a staged apply in `piece`-sized fragments
    /// (chunk-boundary agnostic, like the real chunk stream).
    fn staged_absorb_all(staged: &mut StagedApply, payload: &[u8], piece: usize) {
        for chunk in payload.chunks(piece.max(1)) {
            staged.absorb(chunk).unwrap();
        }
    }

    #[test]
    fn staged_apply_matches_batch_apply() {
        let base = state(20_000, 0);
        let mut new = base.clone();
        new[5000] ^= 0xFF;
        new[12_288] ^= 1;
        let digests = PageDigests::compute(&base, PAGE_SIZE);
        let (manifest, payload) = diff(&digests, 4, 5, &new);
        // Odd fragment sizes cross page boundaries every which way.
        for piece in [1usize, 7, 100, 4096, 10_000] {
            let mut staged = StagedApply::new(&base, &manifest).unwrap();
            staged_absorb_all(&mut staged, &payload, piece);
            assert_eq!(staged.finish().unwrap(), new, "piece={piece}");
        }
        assert_eq!(apply(&base, &manifest, &payload).unwrap(), new);
    }

    #[test]
    fn staged_apply_handles_growth_and_shrink() {
        let base = state(10_000, 7);
        for new_len in [3_000usize, 10_000, 17_000] {
            let mut new = state(new_len, 7);
            if new_len >= 10_000 {
                new[100] ^= 1;
            }
            let digests = PageDigests::compute(&base, PAGE_SIZE);
            let (manifest, payload) = diff(&digests, 0, 1, &new);
            let mut staged = StagedApply::new(&base, &manifest).unwrap();
            staged_absorb_all(&mut staged, &payload, 333);
            assert_eq!(staged.finish().unwrap(), new);
        }
    }

    #[test]
    fn staged_apply_rejects_what_batch_apply_rejects() {
        let base = state(20_000, 0);
        let mut new = base.clone();
        new[0] ^= 1;
        let digests = PageDigests::compute(&base, PAGE_SIZE);
        let (manifest, payload) = diff(&digests, 0, 1, &new);

        // Wrong base content: rejected before anything is staged.
        assert!(StagedApply::new(&base[..100], &manifest).is_err());
        let mut other = base.clone();
        other[1] ^= 1;
        assert!(StagedApply::new(&other, &manifest).is_err());
        // Short payload: rejected at finish.
        let mut staged = StagedApply::new(&base, &manifest).unwrap();
        staged.absorb(&payload[..payload.len() - 1]).unwrap();
        assert!(staged.finish().is_err());
        // Excess payload: rejected at absorb.
        let mut staged = StagedApply::new(&base, &manifest).unwrap();
        staged.absorb(&payload).unwrap();
        assert!(staged.absorb(&[0]).is_err());
        // Tampered new-state digest: the reconstruction is discarded.
        let mut m = manifest.clone();
        m.new_digest[0] ^= 1;
        let mut staged = StagedApply::new(&base, &m).unwrap();
        staged.absorb(&payload).unwrap();
        assert!(staged.finish().is_err());
    }

    #[test]
    fn manifest_and_digest_table_round_trip() {
        let base = state(9_000, 1);
        let digests = PageDigests::compute(&base, PAGE_SIZE);
        assert_eq!(
            PageDigests::from_bytes(&digests.to_bytes()).unwrap(),
            digests
        );
        let (manifest, _) = diff(&digests, 3, 4, &state(9_000, 2));
        let bytes = manifest.to_bytes();
        assert_eq!(DeltaManifest::from_bytes(&bytes).unwrap(), manifest);
        // Truncations never panic.
        for cut in 1..bytes.len().min(48) {
            assert!(DeltaManifest::from_bytes(&bytes[..bytes.len() - cut]).is_err());
        }
    }
}
