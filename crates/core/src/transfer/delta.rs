//! The page-digest tree of a state generation, and the dirty-page deltas
//! a repeat migration ships against a cached one.
//!
//! A state is viewed as a sequence of [`PAGE_SIZE`] pages. Its
//! [`PageDigests`] are a two-level tree: one SHA-256 *leaf* per page
//! (the last page may be short) and a *root*, SHA-256 over the state
//! length and the leaves. The tree is the single source of every digest
//! the Migration Enclave checks:
//!
//! * a stream chunk's digest is SHA-256 over the leaves of its pages,
//!   and the ME's chunk sizes are whole pages, so the one pass that
//!   verifies a chunk also yields its pages' leaves (see
//!   [`super::chunker`]);
//! * a [`DeltaManifest`] names its base and its result by their roots;
//! * a cached generation keeps its tree next to its bytes
//!   ([`DigestedState`]), taken from the stream that shipped or received
//!   it, so a repeat migration hashes only its dirty pages.
//!
//! [`diff`] finds the dirty pages of a new state by comparing it page by
//! page with the base's bytes (constant-time, nothing hashed) and packs
//! them. The payload's chunk stream hashes the dirty pages, and
//! [`PageDigests::patch`] derives the new tree from the base's leaves
//! plus theirs. At the destination, [`StagedApply`] rebuilds the new
//! state: the manifest is validated before any page is applied, and the
//! state is released only when the root of the base's leaves merged
//! with the dirty pages' verified leaves equals
//! [`DeltaManifest::new_digest`].
//!
//! Trust model: page digests never leave the enclave. A tree is
//! computed from the bytes it describes — by a stream's chunk hashing,
//! by a delta's merge, or by [`PageDigests::compute`] when a restored ME
//! re-reads the states in its sealed checkpoint — and [`DigestedState`]
//! keeps the two together, so a cached base is identified by its root
//! alone and never re-hashed. Manifests travel inside the attested
//! ME↔ME channel; an internally inconsistent manifest is rejected
//! before any page is applied, and a base whose root differs from
//! [`DeltaManifest::base_digest`] is never staged.

use crate::error::MigError;
use crate::transfer::chunker::MAX_STREAM_LEN;
use mig_crypto::ct::ct_eq;
use mig_crypto::sha256::{sha256, Sha256};
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::sync::Arc;

/// Page granularity of the digest tree and of dirty tracking, in bytes.
pub const PAGE_SIZE: u32 = 4096;

/// A leaf of the page-digest tree: SHA-256 of one page.
pub type Leaf = [u8; 32];

/// Number of pages a state of `total_len` bytes splits into.
#[must_use]
pub fn page_count(total_len: u64) -> u32 {
    u32::try_from(total_len.div_ceil(u64::from(PAGE_SIZE))).expect("bounded by MAX_STREAM_LEN")
}

fn page_len(total_len: u64, idx: u32) -> u64 {
    let start = u64::from(idx) * u64::from(PAGE_SIZE);
    total_len.saturating_sub(start).min(u64::from(PAGE_SIZE))
}

fn page(state: &[u8], idx: u32) -> &[u8] {
    let start = (idx as usize * PAGE_SIZE as usize).min(state.len());
    let end = (start + PAGE_SIZE as usize).min(state.len());
    &state[start..end]
}

/// The leaves of `bytes` cut into [`PAGE_SIZE`] pages from its start,
/// the last one possibly short: one SHA-256 per page.
pub fn page_leaves(bytes: &[u8]) -> impl Iterator<Item = Leaf> + '_ {
    bytes.chunks(PAGE_SIZE as usize).map(sha256)
}

/// The page-digest tree of one state generation: a SHA-256 leaf per
/// page and a root over the state length and the leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDigests {
    total_len: u64,
    leaves: Vec<Leaf>,
    root: [u8; 32],
}

impl PageDigests {
    /// Hashes each page of `state` once and builds its tree.
    #[must_use]
    pub fn compute(state: &[u8]) -> Self {
        Self::with_leaves(state.len() as u64, page_leaves(state).collect())
    }

    fn with_leaves(total_len: u64, leaves: Vec<Leaf>) -> Self {
        let mut h = Sha256::new();
        h.update(&total_len.to_le_bytes());
        h.update(leaves.as_flattened());
        PageDigests {
            total_len,
            leaves,
            root: h.finalize(),
        }
    }

    /// The tree of a `total_len`-byte state from its page leaves, in
    /// page order (for instance those a verified full stream yields).
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when the length exceeds
    /// [`MAX_STREAM_LEN`] or the leaf count is not its page count.
    pub fn from_leaves(total_len: u64, leaves: Vec<Leaf>) -> Result<Self, MigError> {
        if total_len > MAX_STREAM_LEN || leaves.len() != page_count(total_len) as usize {
            return Err(MigError::Transfer("page digests: leaf count mismatch"));
        }
        Ok(Self::with_leaves(total_len, leaves))
    }

    /// The root: SHA-256 over the state length (`u64`, little-endian)
    /// and the leaves. It names the generation in a [`DeltaManifest`].
    #[must_use]
    pub fn root(&self) -> [u8; 32] {
        self.root
    }

    /// Length of the digested state.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Number of pages.
    #[must_use]
    pub fn n_pages(&self) -> u32 {
        self.leaves.len() as u32
    }

    /// The leaves, in page order.
    #[must_use]
    pub fn leaves(&self) -> &[Leaf] {
        &self.leaves
    }

    /// The tree of the `new_len`-byte state that differs from this one
    /// only in its `dirty` pages, whose leaves are `dirty_leaves` in the
    /// same order. Every other page must lie in this state with the same
    /// length, as [`diff`] and [`DeltaManifest::validate`] ensure.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when the leaf count differs from the dirty
    /// count, a dirty page lies past `new_len`, or `new_len` is out of
    /// bounds.
    pub fn patch(
        &self,
        new_len: u64,
        dirty: &[u32],
        dirty_leaves: &[Leaf],
    ) -> Result<Self, MigError> {
        if new_len > MAX_STREAM_LEN {
            return Err(MigError::Transfer("delta: state length out of bounds"));
        }
        if dirty.len() != dirty_leaves.len() {
            return Err(MigError::Transfer("delta: dirty leaf count mismatch"));
        }
        let n_pages = page_count(new_len) as usize;
        let mut leaves = Vec::with_capacity(n_pages);
        leaves.extend_from_slice(&self.leaves[..n_pages.min(self.leaves.len())]);
        leaves.resize(n_pages, [0; 32]);
        for (&idx, leaf) in dirty.iter().zip(dirty_leaves) {
            *leaves
                .get_mut(idx as usize)
                .ok_or(MigError::Transfer("delta: dirty page out of range"))? = *leaf;
        }
        Ok(Self::with_leaves(new_len, leaves))
    }
}

/// A state and its page-digest tree, kept together so the tree always
/// describes these bytes and a cached base is trusted on its root alone.
/// Outside this crate the only constructor hashes the bytes.
#[derive(Clone)]
pub struct DigestedState {
    bytes: Arc<[u8]>,
    digests: PageDigests,
}

impl std::fmt::Debug for DigestedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DigestedState")
            .field("len", &self.bytes.len())
            .field("n_pages", &self.digests.n_pages())
            .finish_non_exhaustive()
    }
}

impl DigestedState {
    /// Hashes each page of `bytes` once ([`PageDigests::compute`]).
    #[must_use]
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        let bytes = bytes.into();
        let digests = PageDigests::compute(&bytes);
        DigestedState { bytes, digests }
    }

    /// Pairs `bytes` with the tree the caller derived from them while
    /// they passed through the enclave: a stream's chunk leaves or a
    /// delta's merged leaves.
    pub(crate) fn from_parts(bytes: Arc<[u8]>, tree: PageDigests) -> Result<Self, MigError> {
        if bytes.len() as u64 != tree.total_len() {
            return Err(MigError::Transfer("page digests: state length mismatch"));
        }
        Ok(DigestedState {
            bytes,
            digests: tree,
        })
    }

    /// The state.
    #[must_use]
    pub fn bytes(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// Its page-digest tree.
    #[must_use]
    pub fn digests(&self) -> &PageDigests {
        &self.digests
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
    /// Page granularity of the diff; always [`PAGE_SIZE`].
    pub page_size: u32,
    /// Length of the base state in bytes.
    pub base_len: u64,
    /// Length of the new state in bytes.
    pub new_len: u64,
    /// Root of the base state's page-digest tree. Generation numbers
    /// alone do not identify content (two stores can number
    /// independently after a fallback reset); the root pins the exact
    /// base so a delta is never applied onto the wrong snapshot.
    pub base_digest: [u8; 32],
    /// Root of the new state's page-digest tree ([`StagedApply`]
    /// releases nothing else).
    pub new_digest: [u8; 32],
    /// Dirty page indices in the new state's layout, strictly ascending.
    pub dirty: Vec<u32>,
}

impl DeltaManifest {
    /// The manifest of a delta that turns the state `base` describes
    /// into the one `new` describes by shipping its `dirty` pages.
    #[must_use]
    pub fn new(
        base_generation: u64,
        new_generation: u64,
        base: &PageDigests,
        new: &PageDigests,
        dirty: Vec<u32>,
    ) -> Self {
        DeltaManifest {
            base_generation,
            new_generation,
            page_size: PAGE_SIZE,
            base_len: base.total_len(),
            new_len: new.total_len(),
            base_digest: base.root(),
            new_digest: new.root(),
            dirty,
        }
    }

    /// Total length of the packed dirty-page payload.
    #[must_use]
    pub fn payload_len(&self) -> u64 {
        self.dirty
            .iter()
            .map(|&idx| page_len(self.new_len, idx))
            .sum()
    }

    /// Internal-consistency check, run before any page is applied.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on a page size other than [`PAGE_SIZE`],
    /// out-of-bounds lengths, an empty dirty set, out-of-range or
    /// non-ascending dirty indices, or a clean page the base does not
    /// hold at the same length.
    pub fn validate(&self) -> Result<(), MigError> {
        if self.page_size != PAGE_SIZE {
            return Err(MigError::Transfer("delta: page size is not PAGE_SIZE"));
        }
        if self.new_len == 0 || self.new_len > MAX_STREAM_LEN || self.base_len > MAX_STREAM_LEN {
            return Err(MigError::Transfer("delta: state length out of bounds"));
        }
        if self.dirty.is_empty() {
            return Err(MigError::Transfer("delta: empty dirty set"));
        }
        let n_pages = page_count(self.new_len);
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
        // A clean page keeps the base's bytes and leaf, so the base must
        // hold it at the same length. Only pages from the shorter
        // state's end on can differ.
        let first_uneven = (self.base_len.min(self.new_len) / u64::from(PAGE_SIZE)) as u32;
        for idx in first_uneven..n_pages {
            if page_len(self.base_len, idx) != page_len(self.new_len, idx)
                && self.dirty.binary_search(&idx).is_err()
            {
                return Err(MigError::Transfer("delta: clean page outside base"));
            }
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

/// Finds the pages of `new_state` that differ from `base` and packs
/// them, returning the dirty page indices (ascending) and the payload.
///
/// A page is dirty when it lies beyond the base, its length differs
/// from the base page, or its bytes differ (a constant-time compare;
/// nothing is hashed). When nothing changed, page 0 is still marked
/// dirty so the delta (and its chunk stream) is never empty — an
/// identical repeat migration ships one page instead of zero.
///
/// # Panics
///
/// Panics when `new_state` is empty (callers stream only non-empty
/// state).
#[must_use]
pub fn diff(base: &[u8], new_state: &[u8]) -> (Vec<u32>, Vec<u8>) {
    assert!(!new_state.is_empty(), "empty state cannot be diffed");
    let mut dirty = Vec::new();
    let mut payload = Vec::new();
    for idx in 0..page_count(new_state.len() as u64) {
        let new_page = page(new_state, idx);
        if !ct_eq(page(base, idx), new_page) {
            dirty.push(idx);
            payload.extend_from_slice(new_page);
        }
    }
    if dirty.is_empty() {
        dirty.push(0);
        payload.extend_from_slice(page(new_state, 0));
    }
    (dirty, payload)
}

/// Reconstructs the new state from `base` plus a whole delta payload:
/// [`StagedApply`] new, absorb and finish in one call, with the
/// payload's page leaves hashed here.
///
/// # Errors
///
/// As [`StagedApply::new`], [`StagedApply::absorb`] and
/// [`StagedApply::finish`].
pub fn apply(
    base: &DigestedState,
    manifest: &DeltaManifest,
    payload: &[u8],
) -> Result<DigestedState, MigError> {
    let mut staged = StagedApply::new(base, manifest)?;
    staged.absorb(payload)?;
    let leaves: Vec<Leaf> = page_leaves(payload).collect();
    staged.finish(&leaves)
}

/// Destination-side reconstruction of a delta: the one path from a
/// cached base plus a dirty-page payload to the new state.
///
/// [`StagedApply::new`] validates the manifest, checks the base's
/// length and root against it and copies every clean page into the
/// new state's final buffer before any payload arrives; each verified
/// fragment of the packed payload is then overlaid in place
/// ([`StagedApply::absorb`]). [`StagedApply::finish`] merges the base's
/// leaves with the dirty pages' leaves — taken from chunk verification,
/// so no page is hashed here — and releases the state only when the
/// merged root equals [`DeltaManifest::new_digest`].
pub struct StagedApply {
    manifest: DeltaManifest,
    /// The base's tree, merged with the dirty leaves at `finish`.
    base: PageDigests,
    /// The new state: clean pages copied from the base up front, dirty
    /// page slots overwritten as payload bytes verify. Unshared until
    /// `finish` releases it.
    out: Arc<[u8]>,
    /// Payload bytes absorbed so far (the packed dirty pages arrive
    /// strictly in order behind the chunk chain).
    absorbed: u64,
    /// Cursor into the dirty-page list: which dirty page the next
    /// payload byte lands in, and how far into it.
    rank: usize,
    offset_in_page: u64,
}

impl std::fmt::Debug for StagedApply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedApply")
            .field("new_len", &self.manifest.new_len)
            .field("absorbed", &self.absorbed)
            .finish_non_exhaustive()
    }
}

impl StagedApply {
    /// Stages `base` for the delta `manifest` describes: validates the
    /// manifest, checks the base's length and root against it, and
    /// copies every clean page into the new state's buffer.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on a manifest that fails
    /// [`DeltaManifest::validate`] or a base whose length or root is not
    /// the one the manifest names.
    pub fn new(base: &DigestedState, manifest: &DeltaManifest) -> Result<Self, MigError> {
        manifest.validate()?;
        if base.bytes().len() as u64 != manifest.base_len {
            return Err(MigError::Transfer("delta: base length mismatch"));
        }
        if !ct_eq(&base.digests().root(), &manifest.base_digest) {
            return Err(MigError::Transfer("delta: base digest mismatch"));
        }
        let mut out = crate::zeroed_arc(manifest.new_len as usize);
        let buf = Arc::get_mut(&mut out).ok_or(MigError::Transfer("delta: output shared"))?;
        // Copy each run of clean pages in one go; validation put every
        // clean page inside the base.
        let page = PAGE_SIZE as usize;
        let mut clean_from = 0usize;
        for end_page in manifest
            .dirty
            .iter()
            .map(|&idx| idx as usize)
            .chain(std::iter::once(page_count(manifest.new_len) as usize))
        {
            let run = clean_from * page..(end_page * page).min(buf.len());
            if !run.is_empty() {
                let src = base
                    .bytes()
                    .get(run.clone())
                    .ok_or(MigError::Transfer("delta: clean page outside base"))?;
                buf[run].copy_from_slice(src);
            }
            clean_from = end_page + 1;
        }
        Ok(StagedApply {
            manifest: manifest.clone(),
            base: base.digests().clone(),
            out,
            absorbed: 0,
            rank: 0,
            offset_in_page: 0,
        })
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
    /// staged state. Feed exactly the chunk payloads, in chunk order;
    /// fragments may split pages anywhere.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] when more payload arrives than the
    /// manifest's dirty pages can absorb.
    pub fn absorb(&mut self, mut bytes: &[u8]) -> Result<(), MigError> {
        let out = Arc::get_mut(&mut self.out).ok_or(MigError::Transfer("delta: output shared"))?;
        while !bytes.is_empty() {
            let Some(&page) = self.manifest.dirty.get(self.rank) else {
                return Err(MigError::Transfer("delta: payload length mismatch"));
            };
            let page_len = page_len(self.manifest.new_len, page);
            let start = page as usize * PAGE_SIZE as usize + self.offset_in_page as usize;
            let take = ((page_len - self.offset_in_page) as usize).min(bytes.len());
            out[start..start + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            self.absorbed += take as u64;
            self.offset_in_page += take as u64;
            if self.offset_in_page == page_len {
                self.rank += 1;
                self.offset_in_page = 0;
            }
        }
        Ok(())
    }

    /// Releases the staged state once the payload is complete and the
    /// root of the base's leaves, with `payload_leaves` (the dirty
    /// pages' leaves in payload order, as chunk verification computed
    /// them) in the dirty slots, equals the manifest's
    /// [`DeltaManifest::new_digest`]. The released tree is that merged
    /// one.
    ///
    /// # Errors
    ///
    /// [`MigError::Transfer`] on a short payload, a leaf count other
    /// than the dirty count, or a root mismatch (the reconstruction is
    /// discarded).
    pub fn finish(self, payload_leaves: &[Leaf]) -> Result<DigestedState, MigError> {
        if self.absorbed != self.manifest.payload_len() {
            return Err(MigError::Transfer("delta: payload length mismatch"));
        }
        let digests =
            self.base
                .patch(self.manifest.new_len, &self.manifest.dirty, payload_leaves)?;
        if !ct_eq(&digests.root(), &self.manifest.new_digest) {
            return Err(MigError::Transfer("delta: reconstructed digest mismatch"));
        }
        DigestedState::from_parts(self.out, digests)
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

    /// The source side of a delta from `base` to `new`: the manifest and
    /// the packed payload (the payload's leaves hashed here, as its
    /// chunk stream would).
    fn delta_of(base: &DigestedState, gens: (u64, u64), new: &[u8]) -> (DeltaManifest, Vec<u8>) {
        let (dirty, payload) = diff(base.bytes(), new);
        let leaves: Vec<Leaf> = page_leaves(&payload).collect();
        let digests = base
            .digests()
            .patch(new.len() as u64, &dirty, &leaves)
            .unwrap();
        assert_eq!(digests, PageDigests::compute(new));
        let manifest = DeltaManifest::new(gens.0, gens.1, base.digests(), &digests, dirty);
        (manifest, payload)
    }

    fn applied(base: &DigestedState, manifest: &DeltaManifest, payload: &[u8]) -> Vec<u8> {
        let out = apply(base, manifest, payload).unwrap();
        assert_eq!(out.digests(), &PageDigests::compute(out.bytes()));
        out.bytes().to_vec()
    }

    #[test]
    fn tree_root_binds_length_and_leaves() {
        let a = PageDigests::compute(&state(9_000, 1));
        assert_eq!(a.n_pages(), 3);
        assert_eq!(
            PageDigests::from_leaves(9_000, a.leaves().to_vec()).unwrap(),
            a
        );
        // The same leaves under another length name another state.
        assert!(PageDigests::from_leaves(8_999, a.leaves().to_vec())
            .is_ok_and(|b| b.root() != a.root()));
        assert!(PageDigests::from_leaves(9_000, a.leaves()[..2].to_vec()).is_err());
        assert_ne!(a.root(), PageDigests::compute(&state(9_000, 2)).root());
    }

    #[test]
    fn diff_apply_round_trip_same_len() {
        let base = DigestedState::new(state(20_000, 0));
        let mut new = base.bytes().to_vec();
        new[5000] ^= 0xFF;
        new[5001] ^= 0x0F;
        new[12_288] ^= 1; // page 3 boundary
        let (manifest, payload) = delta_of(&base, (4, 5), &new);
        assert_eq!(manifest.dirty, vec![1, 3]);
        assert_eq!(payload.len() as u64, manifest.payload_len());
        assert_eq!(applied(&base, &manifest, &payload), new);
    }

    #[test]
    fn diff_handles_growth_and_shrink() {
        let base = DigestedState::new(state(10_000, 7));
        for new_len in [3_000usize, 10_000, 17_000] {
            let mut new = state(new_len, 7);
            if new_len >= 10_000 {
                new[100] ^= 1;
            }
            let (manifest, payload) = delta_of(&base, (0, 1), &new);
            assert_eq!(applied(&base, &manifest, &payload), new);
        }
    }

    #[test]
    fn identical_states_ship_exactly_one_page() {
        let base = DigestedState::new(state(50_000, 3));
        let (manifest, payload) = delta_of(&base, (1, 2), base.bytes());
        assert_eq!(manifest.dirty, vec![0]);
        assert_eq!(payload.len(), PAGE_SIZE as usize);
        assert_eq!(applied(&base, &manifest, &payload), base.bytes().to_vec());
    }

    #[test]
    fn tampered_manifest_rejected_before_apply() {
        let base = DigestedState::new(state(20_000, 0));
        let mut new = base.bytes().to_vec();
        new[0] ^= 1;
        let (manifest, payload) = delta_of(&base, (0, 1), &new);

        // Out-of-range dirty index.
        let mut m = manifest.clone();
        m.dirty = vec![999];
        assert!(apply(&base, &m, &payload).is_err());
        // Non-ascending indices.
        let mut m = manifest.clone();
        m.dirty = vec![1, 1];
        assert!(apply(&base, &m, &payload).is_err());
        // Another page size.
        let mut m = manifest.clone();
        m.page_size = 1024;
        assert!(apply(&base, &m, &payload).is_err());
        // Payload length mismatch.
        assert!(apply(&base, &manifest, &payload[..payload.len() - 1]).is_err());
        // Base length mismatch.
        let short = DigestedState::new(base.bytes()[..100].to_vec());
        assert!(apply(&short, &manifest, &payload).is_err());
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

    fn leaves(payload: &[u8]) -> Vec<Leaf> {
        page_leaves(payload).collect()
    }

    #[test]
    fn staged_apply_matches_batch_apply() {
        let base = DigestedState::new(state(20_000, 0));
        let mut new = base.bytes().to_vec();
        new[5000] ^= 0xFF;
        new[12_288] ^= 1;
        let (manifest, payload) = delta_of(&base, (4, 5), &new);
        // Odd fragment sizes cross page boundaries every which way.
        for piece in [1usize, 7, 100, 4096, 10_000] {
            let mut staged = StagedApply::new(&base, &manifest).unwrap();
            staged_absorb_all(&mut staged, &payload, piece);
            let out = staged.finish(&leaves(&payload)).unwrap();
            assert_eq!(&out.bytes()[..], &new[..], "piece={piece}");
        }
        assert_eq!(applied(&base, &manifest, &payload), new);
    }

    #[test]
    fn staged_apply_handles_growth_and_shrink() {
        let base = DigestedState::new(state(10_000, 7));
        for new_len in [3_000usize, 10_000, 17_000] {
            let mut new = state(new_len, 7);
            if new_len >= 10_000 {
                new[100] ^= 1;
            }
            let (manifest, payload) = delta_of(&base, (0, 1), &new);
            let mut staged = StagedApply::new(&base, &manifest).unwrap();
            staged_absorb_all(&mut staged, &payload, 333);
            let out = staged.finish(&leaves(&payload)).unwrap();
            assert_eq!(&out.bytes()[..], &new[..]);
        }
    }

    #[test]
    fn staged_apply_rejects_what_batch_apply_rejects() {
        let base = DigestedState::new(state(20_000, 0));
        let mut new = base.bytes().to_vec();
        new[0] ^= 1;
        let (manifest, payload) = delta_of(&base, (0, 1), &new);

        // Wrong base content: rejected before anything is staged.
        assert!(
            StagedApply::new(&DigestedState::new(base.bytes()[..100].to_vec()), &manifest).is_err()
        );
        let mut other = base.bytes().to_vec();
        other[1] ^= 1;
        assert!(StagedApply::new(&DigestedState::new(other), &manifest).is_err());
        // Short payload: rejected at finish.
        let mut staged = StagedApply::new(&base, &manifest).unwrap();
        staged.absorb(&payload[..payload.len() - 1]).unwrap();
        assert!(staged.finish(&leaves(&payload)).is_err());
        // Excess payload: rejected at absorb.
        let mut staged = StagedApply::new(&base, &manifest).unwrap();
        staged.absorb(&payload).unwrap();
        assert!(staged.absorb(&[0]).is_err());
        // Tampered new-state digest: the reconstruction is discarded.
        let mut m = manifest.clone();
        m.new_digest[0] ^= 1;
        let mut staged = StagedApply::new(&base, &m).unwrap();
        staged.absorb(&payload).unwrap();
        assert!(staged.finish(&leaves(&payload)).is_err());
        // A leaf that does not describe its page, or a missing leaf.
        let mut staged = StagedApply::new(&base, &manifest).unwrap();
        staged.absorb(&payload).unwrap();
        assert!(staged.finish(&[[0; 32]]).is_err());
        let mut staged = StagedApply::new(&base, &manifest).unwrap();
        staged.absorb(&payload).unwrap();
        assert!(staged.finish(&[]).is_err());
    }

    #[test]
    fn manifest_round_trip() {
        let base = DigestedState::new(state(9_000, 1));
        let (manifest, _) = delta_of(&base, (3, 4), &state(9_000, 2));
        let bytes = manifest.to_bytes();
        assert_eq!(DeltaManifest::from_bytes(&bytes).unwrap(), manifest);
        // Truncations never panic.
        for cut in 1..bytes.len().min(48) {
            assert!(DeltaManifest::from_bytes(&bytes[..bytes.len() - cut]).is_err());
        }
    }
}
