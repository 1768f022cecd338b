//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the workhorse AEAD of the workspace: the simulated
//! `sgx_seal_data`, the migratable sealing of the Migration Library, and
//! every attested secure channel all encrypt with AES-128-GCM, mirroring the
//! SGX SDK (the paper, §II-A4, notes SGX sealing uses AES-GCM). Validated
//! against the original McGrew–Viega GCM specification test cases.
//!
//! # Kernels
//!
//! [`AesGcm`] runs on one of two kernel sets, chosen at compile time by
//! `cfg(target_feature)` and named by [`KERNEL`]:
//!
//! * **Hardware** (`crate::hw::gcm`), when the build targets `aes`,
//!   `pclmulqdq`, `ssse3` and `sse4.1` on `x86_64`: AES-NI CTR eight
//!   blocks per step, and PCLMULQDQ GHASH folding four blocks per
//!   reduction through H, H², H³ and H⁴.
//! * **Software** ([`SoftwareGcm`]) on every other build. The CTR
//!   keystream is generated `PARALLEL_BLOCKS` counter blocks at a time
//!   through the bitsliced AES kernel ([`Aes128::encrypt_blocks`]). GHASH
//!   uses Shoup's 8-bit table method: a 4 KiB per-key table (`htable[b]`
//!   = byte-polynomial `b` times `H`) plus a shared key-independent 4 KiB
//!   reduction table, so a block multiply costs 16 table lookups — half
//!   the lookups of the 4-bit method it replaced (which survives in
//!   [`reference`](mod@reference) as an oracle, alongside the
//!   bit-serial multiply).
//!   Blocks are absorbed two at a time via a second table for `H²`:
//!   `y·H² ⊕ x·H` runs as two *independent* Shoup walks whose table-load
//!   latencies overlap in the out-of-order core ([`gf_mul_pair`]). The
//!   table walks index the per-key tables with bytes of `y ⊕ block`, so
//!   their memory accesses depend on key and data.
//!
//! [`SoftwareGcm`] stays public in every build: it is the portable
//! fallback, and the oracle the hardware kernels are pinned to. Both
//! produce the same bytes.
//!
//! # In place
//!
//! [`AesGcm::seal_in_place`] and [`AesGcm::open_in_place`] are the GCM
//! path: they encrypt or decrypt the tail of a caller's buffer where it
//! lies, so a message built behind a header is sealed without a second
//! buffer, and a received message is opened without one.
//! [`AesGcm::open_scatter`] opens a borrowed message straight into the
//! receiver's own buffers. [`AesGcm::seal`] and [`AesGcm::open`] are
//! thin copying wrappers for callers that hold only a borrowed slice.

use crate::aes::{Aes128, BLOCK_LEN, KEY_LEN, PARALLEL_BLOCKS};
use crate::ct::ct_eq;
use crate::{CryptoError, Result};

/// Nonce (IV) size: GCM's recommended 96-bit IV.
pub const NONCE_LEN: usize = 12;
/// Authentication-tag size: the full 128 bits.
pub const TAG_LEN: usize = 16;

/// What GCM needs from a kernel set: the block cipher, the CTR
/// keystream and the GHASH fold.
pub(crate) trait GcmKernel {
    /// Expands `key` into the kernel's key state.
    fn new(key: &[u8; KEY_LEN]) -> Self
    where
        Self: Sized;
    /// `E(K, block)`.
    fn encrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN];
    /// XORs the CTR keystream starting at counter block `icb` into
    /// `data`, incrementing the low 32 bits mod 2^32 per block.
    fn ctr(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]);
    /// Absorbs `data`, zero-padded to whole blocks, into the GHASH state
    /// `y` (a block's `u128::from_be_bytes` image).
    fn ghash(&self, y: u128, data: &[u8]) -> u128;
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "aes",
    target_feature = "pclmulqdq",
    target_feature = "ssse3",
    target_feature = "sse4.1"
))]
mod selected {
    pub(super) type Kernel = crate::hw::gcm::HwGcmKey;
    /// The kernel set [`AesGcm`](super::AesGcm) runs on in this build.
    pub const KERNEL: &str = "aes-ni+pclmulqdq";
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "aes",
    target_feature = "pclmulqdq",
    target_feature = "ssse3",
    target_feature = "sse4.1"
)))]
mod selected {
    pub(super) type Kernel = super::SoftwareGcm;
    /// The kernel set [`AesGcm`](super::AesGcm) runs on in this build.
    pub const KERNEL: &str = "bitsliced+shoup8";
}

pub use selected::KERNEL;

/// An AES-128-GCM cipher instance with a fixed key, on the kernel set
/// the build selected ([`KERNEL`]).
///
/// `seal` produces `ciphertext || tag`; `open` verifies and strips the tag.
///
/// # Nonce discipline
///
/// A (key, nonce) pair must never be reused for different plaintexts.
/// Callers in this workspace either use random nonces from a CSPRNG or
/// strictly increasing counters per session key.
///
/// # Example
///
/// ```
/// use mig_crypto::gcm::AesGcm;
///
/// # fn main() -> Result<(), mig_crypto::CryptoError> {
/// let aead = AesGcm::new([0x42; 16]);
/// let ct = aead.seal(&[1; 12], b"header", b"payload");
/// assert_eq!(aead.open(&[1; 12], b"header", &ct)?, b"payload");
/// assert!(aead.open(&[1; 12], b"tampered", &ct).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct AesGcm {
    /// The selected kernel set's key state; it zeroizes itself on drop.
    kernel: selected::Kernel,
}

impl std::fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesGcm").finish_non_exhaustive()
    }
}

impl AesGcm {
    /// Creates a GCM instance for the given 128-bit key.
    #[must_use]
    pub fn new(key: [u8; KEY_LEN]) -> Self {
        AesGcm {
            kernel: GcmKernel::new(&key),
        }
    }

    /// Encrypts `buf[start..]` in place bound to `aad` and appends the
    /// tag: on return `buf[start..]` is `ciphertext || tag`, and
    /// `buf[..start]` (a header the caller wrote first) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `start > buf.len()` (caller bug).
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) {
        seal_in_place(&self.kernel, nonce, aad, buf, start);
    }

    /// Verifies the tag ending `buf[start..]` (= `ciphertext || tag`)
    /// bound to `aad`, then decrypts in place and drops the tag: on
    /// success `buf[start..]` is the plaintext. Nothing is decrypted
    /// before the tag verifies, so on any error `buf` is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `buf[start..]` is
    /// shorter than a tag, and [`CryptoError::AuthenticationFailed`] if
    /// the tag does not verify (wrong key, nonce, AAD, or tampered
    /// ciphertext).
    ///
    /// # Panics
    ///
    /// Panics if `start > buf.len()` (caller bug).
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) -> Result<()> {
        open_in_place(&self.kernel, nonce, aad, buf, start)
    }

    /// Verifies the borrowed `sealed` (= `ciphertext || tag`) bound to
    /// `aad`, then decrypts it into `outs`: consecutive destinations
    /// whose lengths sum to the ciphertext's, each receiving its range of
    /// the plaintext. A receiver that keeps part of a message in a buffer
    /// of its own (a large body apart from its small header) opens it
    /// there, with no buffer holding the whole plaintext. Nothing is
    /// written before the tag verifies.
    ///
    /// # Errors
    ///
    /// [`CryptoError::InvalidLength`] if `sealed` is shorter than a tag
    /// or `outs` do not cover the ciphertext exactly;
    /// [`CryptoError::AuthenticationFailed`] as for
    /// [`AesGcm::open_in_place`].
    pub fn open_scatter(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        outs: &mut [&mut [u8]],
    ) -> Result<()> {
        open_scatter(&self.kernel, nonce, aad, sealed, outs)
    }

    /// Encrypts `plaintext` bound to `aad`, returning `ciphertext || tag`
    /// (a copy of `plaintext` sealed with [`AesGcm::seal_in_place`]).
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        seal_copy(&self.kernel, nonce, aad, plaintext)
    }

    /// Decrypts `sealed` (= `ciphertext || tag`) bound to `aad` (a copy
    /// of `sealed` opened with [`AesGcm::open_in_place`]).
    ///
    /// # Errors
    ///
    /// As [`AesGcm::open_in_place`].
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        open_copy(&self.kernel, nonce, aad, sealed)
    }

    /// XORs the CTR keystream from counter block `icb` into `data` on
    /// the selected kernel (the `crypto_kernels` microbench's AES arm).
    #[cfg(feature = "reference")]
    pub fn apply_keystream(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        self.kernel.ctr(icb, data);
    }

    /// Absorbs `data` into the GHASH state `y` on the selected kernel
    /// (the `crypto_kernels` microbench's GHASH arm).
    #[cfg(feature = "reference")]
    #[must_use]
    pub fn ghash(&self, y: u128, data: &[u8]) -> u128 {
        self.kernel.ghash(y, data)
    }
}

/// AES-128-GCM on the software kernels, whatever the build selected.
///
/// The same construction and the same bytes as [`AesGcm`]: it is what
/// `AesGcm` runs on when the build lacks AES-NI or PCLMULQDQ, and the
/// oracle the hardware kernels are tested against.
///
/// # Example
///
/// ```
/// use mig_crypto::gcm::{AesGcm, SoftwareGcm};
///
/// let sealed = SoftwareGcm::new([0x42; 16]).seal(&[1; 12], b"header", b"payload");
/// assert_eq!(sealed, AesGcm::new([0x42; 16]).seal(&[1; 12], b"header", b"payload"));
/// ```
#[derive(Clone)]
pub struct SoftwareGcm {
    cipher: Aes128,
    /// Shoup 8-bit multiplication table: `htable[b]` = (8-bit
    /// polynomial `b`) · H, so a GHASH block costs 16 table lookups.
    /// Boxed: 4 KiB inline would bloat every struct that embeds a
    /// channel (`MeSession` already boxes for the same reason).
    htable: Box<[u128; 256]>,
    /// The same table for H² = H·H, used by the two-blocks-at-a-time
    /// GHASH fold ([`gf_mul_pair`]).
    htable2: Box<[u128; 256]>,
}

impl std::fmt::Debug for SoftwareGcm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftwareGcm").finish_non_exhaustive()
    }
}

impl Drop for SoftwareGcm {
    fn drop(&mut self) {
        // Both multiplication tables are H-derived, and H = E(K, 0) lets
        // an attacker forge tags; `cipher` scrubs itself.
        for entry in self.htable.iter_mut().chain(self.htable2.iter_mut()) {
            crate::zeroize::zeroize_u128(entry);
        }
    }
}

impl SoftwareGcm {
    /// Creates a software GCM instance for the given 128-bit key.
    #[must_use]
    pub fn new(key: [u8; KEY_LEN]) -> Self {
        GcmKernel::new(&key)
    }

    /// [`AesGcm::seal_in_place`] on the software kernels.
    ///
    /// # Panics
    ///
    /// As [`AesGcm::seal_in_place`].
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) {
        seal_in_place(self, nonce, aad, buf, start);
    }

    /// [`AesGcm::open_in_place`] on the software kernels.
    ///
    /// # Errors
    ///
    /// As [`AesGcm::open_in_place`].
    ///
    /// # Panics
    ///
    /// As [`AesGcm::open_in_place`].
    pub fn open_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) -> Result<()> {
        open_in_place(self, nonce, aad, buf, start)
    }

    /// [`AesGcm::open_scatter`] on the software kernels.
    ///
    /// # Errors
    ///
    /// As [`AesGcm::open_scatter`].
    pub fn open_scatter(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
        outs: &mut [&mut [u8]],
    ) -> Result<()> {
        open_scatter(self, nonce, aad, sealed, outs)
    }

    /// [`AesGcm::seal`] on the software kernels.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        seal_copy(self, nonce, aad, plaintext)
    }

    /// [`AesGcm::open`] on the software kernels.
    ///
    /// # Errors
    ///
    /// As [`AesGcm::open_in_place`].
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        open_copy(self, nonce, aad, sealed)
    }

    /// [`AesGcm::apply_keystream`] on the software kernels.
    #[cfg(feature = "reference")]
    pub fn apply_keystream(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        self.ctr(icb, data);
    }

    /// [`AesGcm::ghash`] on the software kernels.
    #[cfg(feature = "reference")]
    #[must_use]
    pub fn ghash(&self, y: u128, data: &[u8]) -> u128 {
        GcmKernel::ghash(self, y, data)
    }
}

impl GcmKernel for SoftwareGcm {
    fn new(key: &[u8; KEY_LEN]) -> Self {
        let cipher = Aes128::new(key);
        let mut h = u128::from_be_bytes(cipher.encrypt(&[0u8; BLOCK_LEN]));
        let htable = build_htable(h);
        let mut h2 = gf_mul_8bit(h, &htable);
        let htable2 = build_htable(h2);
        crate::zeroize::zeroize_u128(&mut h);
        crate::zeroize::zeroize_u128(&mut h2);
        SoftwareGcm {
            cipher,
            htable,
            htable2,
        }
    }

    fn encrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        self.cipher.encrypt(block)
    }

    /// `PARALLEL_BLOCKS` keystream blocks per bitsliced kernel call.
    fn ctr(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        let mut ctr = u32::from_be_bytes(icb[12..16].try_into().expect("4 bytes"));
        let mut ks = [[0u8; BLOCK_LEN]; PARALLEL_BLOCKS];
        for chunk in data.chunks_mut(BLOCK_LEN * PARALLEL_BLOCKS) {
            for (j, block) in ks.iter_mut().enumerate() {
                block[..12].copy_from_slice(&icb[..12]);
                block[12..].copy_from_slice(&ctr.wrapping_add(j as u32).to_be_bytes());
            }
            self.cipher.encrypt_blocks(&mut ks);
            for (sub, kblock) in chunk.chunks_mut(BLOCK_LEN).zip(ks.iter()) {
                for (d, k) in sub.iter_mut().zip(kblock.iter()) {
                    *d ^= k;
                }
            }
            ctr = ctr.wrapping_add(PARALLEL_BLOCKS as u32);
        }
        // Unconsumed keystream from a ragged tail must not linger.
        for block in &mut ks {
            crate::zeroize::zeroize_bytes(block);
        }
    }

    /// Two blocks per fold: `((y ⊕ b₀)·H ⊕ b₁)·H = (y ⊕ b₀)·H² ⊕ b₁·H`,
    /// so each pair costs one latency-overlapped [`gf_mul_pair`] instead
    /// of two serial multiplies.
    fn ghash(&self, mut y: u128, data: &[u8]) -> u128 {
        let mut pairs = data.chunks_exact(2 * BLOCK_LEN);
        for pair in &mut pairs {
            let b0 = u128::from_be_bytes(pair[..BLOCK_LEN].try_into().expect("exact block"));
            let b1 = u128::from_be_bytes(pair[BLOCK_LEN..].try_into().expect("exact block"));
            y = gf_mul_pair(y ^ b0, b1, &self.htable2, &self.htable);
        }
        let mut blocks = pairs.remainder().chunks_exact(BLOCK_LEN);
        for chunk in &mut blocks {
            let block = u128::from_be_bytes(chunk.try_into().expect("exact block"));
            y = gf_mul_8bit(y ^ block, &self.htable);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; BLOCK_LEN];
            block[..tail.len()].copy_from_slice(tail);
            y = gf_mul_8bit(y ^ u128::from_be_bytes(block), &self.htable);
        }
        y
    }
}

/// The SP 800-38D seal on any kernel set, in place: `buf[start..]` is
/// encrypted where it lies and the tag appended.
fn seal_in_place<K: GcmKernel + ?Sized>(
    kernel: &K,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut Vec<u8>,
    start: usize,
) {
    let j0 = j0(nonce);
    kernel.ctr(inc32(j0), &mut buf[start..]);
    let tag = tag(kernel, j0, aad, &buf[start..]);
    buf.extend_from_slice(&tag);
}

/// The SP 800-38D open on any kernel set, in place: the tag is verified
/// before anything is decrypted, so a failed open leaves `buf` as it was.
fn open_in_place<K: GcmKernel + ?Sized>(
    kernel: &K,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut Vec<u8>,
    start: usize,
) -> Result<()> {
    let sealed_len = buf.len() - start;
    if sealed_len < TAG_LEN {
        return Err(CryptoError::InvalidLength);
    }
    let ct_end = buf.len() - TAG_LEN;
    let j0 = j0(nonce);
    verify(kernel, j0, aad, &buf[start..ct_end], &buf[ct_end..])?;
    buf.truncate(ct_end);
    kernel.ctr(inc32(j0), &mut buf[start..]);
    Ok(())
}

/// The SP 800-38D open on any kernel set from a borrowed message into
/// caller destinations: the tag is verified before any destination is
/// written, then each destination receives its range of the plaintext.
fn open_scatter<K: GcmKernel + ?Sized>(
    kernel: &K,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
    outs: &mut [&mut [u8]],
) -> Result<()> {
    if sealed.len() < TAG_LEN {
        return Err(CryptoError::InvalidLength);
    }
    let (ciphertext, tag_bytes) = sealed.split_at(sealed.len() - TAG_LEN);
    if outs.iter().map(|out| out.len()).sum::<usize>() != ciphertext.len() {
        return Err(CryptoError::InvalidLength);
    }
    let j0 = j0(nonce);
    verify(kernel, j0, aad, ciphertext, tag_bytes)?;
    let mut offset = 0;
    for out in outs.iter_mut() {
        let end = offset + out.len();
        out.copy_from_slice(&ciphertext[offset..end]);
        ctr_at(kernel, j0, offset, out);
        offset = end;
    }
    Ok(())
}

/// Checks `tag_bytes` against the tag of `ciphertext` in constant time.
fn verify<K: GcmKernel + ?Sized>(
    kernel: &K,
    j0: [u8; BLOCK_LEN],
    aad: &[u8],
    ciphertext: &[u8],
    tag_bytes: &[u8],
) -> Result<()> {
    if ct_eq(&tag(kernel, j0, aad, ciphertext), tag_bytes) {
        Ok(())
    } else {
        Err(CryptoError::AuthenticationFailed)
    }
}

/// XORs the keystream of message bytes `offset..offset + data.len()`
/// into `data`: the counter block of `offset`'s block, with a partial
/// leading block when `offset` is not block-aligned.
fn ctr_at<K: GcmKernel + ?Sized>(kernel: &K, j0: [u8; BLOCK_LEN], offset: usize, data: &mut [u8]) {
    let mut icb = inc32(j0);
    let low = u32::from_be_bytes(icb[12..].try_into().expect("4 bytes"));
    // Counter blocks wrap in their low 32 bits (inc32), as in `ctr`.
    icb[12..].copy_from_slice(&low.wrapping_add((offset / BLOCK_LEN) as u32).to_be_bytes());
    let skip = offset % BLOCK_LEN;
    let data = if skip == 0 {
        data
    } else {
        let mut ks = kernel.encrypt_block(&icb);
        let n = (BLOCK_LEN - skip).min(data.len());
        for (d, k) in data[..n].iter_mut().zip(&ks[skip..]) {
            *d ^= k;
        }
        crate::zeroize::zeroize_bytes(&mut ks);
        icb = inc32(icb);
        &mut data[n..]
    };
    if !data.is_empty() {
        kernel.ctr(icb, data);
    }
}

/// [`seal_in_place`] over a copy of `plaintext` sized for its tag.
fn seal_copy<K: GcmKernel + ?Sized>(
    kernel: &K,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    seal_in_place(kernel, nonce, aad, &mut out, 0);
    out
}

/// [`open_in_place`] over a copy of `sealed`.
fn open_copy<K: GcmKernel + ?Sized>(
    kernel: &K,
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>> {
    let mut out = sealed.to_vec();
    open_in_place(kernel, nonce, aad, &mut out, 0)?;
    Ok(out)
}

/// Pre-counter block for a 96-bit IV: `IV || 0^31 || 1`.
fn j0(nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let mut j0 = [0u8; BLOCK_LEN];
    j0[..NONCE_LEN].copy_from_slice(nonce);
    j0[BLOCK_LEN - 1] = 1;
    j0
}

/// GHASH over `aad` and `ciphertext`, then encrypted with `E(K, J0)`.
fn tag<K: GcmKernel + ?Sized>(
    kernel: &K,
    j0: [u8; BLOCK_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    let mut len_block = [0u8; BLOCK_LEN];
    len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..].copy_from_slice(&((ciphertext.len() as u64) * 8).to_be_bytes());
    let mut y = kernel.ghash(0, aad);
    y = kernel.ghash(y, ciphertext);
    y = kernel.ghash(y, &len_block);

    let ekj0 = kernel.encrypt_block(&j0);
    let mut tag = y.to_be_bytes();
    for (t, k) in tag.iter_mut().zip(ekj0.iter()) {
        *t ^= k;
    }
    tag
}

/// Multiplies the reflected GCM element `v` by the field element `x`
/// (one right shift with conditional reduction).
fn mul_x(v: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    (v >> 1) ^ if v & 1 == 1 { R } else { 0 }
}

/// Builds the Shoup 8-bit table for multiplication by `h`: `t[b]` is
/// the product of the 8-bit polynomial `b` and `h`, where bit 7 of `b`
/// is the group's lowest-degree coefficient (GCM's reflected order).
/// 4 KiB per key; exposed (with [`gf_mul_8bit`]) for the
/// `crypto_kernels` microbench.
#[must_use]
pub fn build_htable(h: u128) -> Box<[u128; 256]> {
    let mut t = Box::new([0u128; 256]);
    let mut v = h;
    for bit in [0x80usize, 0x40, 0x20, 0x10, 8, 4, 2, 1] {
        t[bit] = v;
        v = mul_x(v);
    }
    // Composite entries combine the power-of-two entries; powers of two
    // reduce to themselves (the other operands index slot 0 = 0).
    for n in 0..256usize {
        t[n] = t[n & 0x80]
            ^ t[n & 0x40]
            ^ t[n & 0x20]
            ^ t[n & 0x10]
            ^ t[n & 8]
            ^ t[n & 4]
            ^ t[n & 2]
            ^ t[n & 1];
    }
    t
}

/// Reduction constants for shifting a reflected element right by eight
/// bits: `rem[b]` folds the eight shifted-out low bits `b` back in.
/// Because the reduction polynomial `0xe1 << 120` has no bits below
/// position 120, the eight single-bit steps never cascade, so the
/// combined constant is a plain XOR of shifted copies.
fn rem_8bit() -> [u128; 256] {
    const R: u128 = 0xe1 << 120;
    let mut t = [0u128; 256];
    for (n, entry) in t.iter_mut().enumerate() {
        let mut v = 0u128;
        for bit in 0..8 {
            if (n >> bit) & 1 == 1 {
                // The bit shifted out on step `bit` is reduced and then
                // shifted right by the remaining `7 - bit` steps.
                v ^= R >> (7 - bit);
            }
        }
        *entry = v;
    }
    t
}

/// The shared reduction table: depends only on the GCM polynomial, not
/// the key, so one copy serves all instances.
fn rem_table() -> &'static [u128; 256] {
    static REM: std::sync::OnceLock<[u128; 256]> = std::sync::OnceLock::new();
    REM.get_or_init(rem_8bit)
}

/// Multiplies the reflected element `x` by the table's key `H`,
/// 8 bits at a time (Shoup's method): 16 key-table lookups plus 15
/// reduction lookups per block — half the lookups of the 4-bit method.
#[must_use]
pub fn gf_mul_8bit(x: u128, htable: &[u128; 256]) -> u128 {
    let rem = rem_table();
    let mut z = 0u128;
    // Byte m holds the degree-(120 - 8m)..(127 - 8m) coefficient
    // group; Horner over groups runs from the lowest byte (highest
    // x-power) to the highest.
    for m in 0..16 {
        if m != 0 {
            z = (z >> 8) ^ rem[(z & 0xFF) as usize];
        }
        z ^= htable[((x >> (8 * m)) & 0xFF) as usize];
    }
    z
}

/// Computes `a·H² ⊕ b·H` given the Shoup tables for `H²` and `H` — one
/// GHASH fold over two blocks. The two Shoup walks are independent, so
/// interleaving them in one loop lets each step's table loads overlap
/// with the other walk's, roughly halving the per-block latency of the
/// serial one-multiply-per-block fold. Exposed (with [`gf_mul_8bit`]
/// and [`build_htable`]) for the `crypto_kernels` microbench.
#[must_use]
pub fn gf_mul_pair(a: u128, b: u128, htable2: &[u128; 256], htable: &[u128; 256]) -> u128 {
    let rem = rem_table();
    let mut za = 0u128;
    let mut zb = 0u128;
    for m in 0..16 {
        if m != 0 {
            za = (za >> 8) ^ rem[(za & 0xFF) as usize];
            zb = (zb >> 8) ^ rem[(zb & 0xFF) as usize];
        }
        za ^= htable2[((a >> (8 * m)) & 0xFF) as usize];
        zb ^= htable[((b >> (8 * m)) & 0xFF) as usize];
    }
    za ^ zb
}

/// Increments the last 32 bits of a counter block (mod 2^32).
fn inc32(mut block: [u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let ctr = u32::from_be_bytes(block[12..16].try_into().expect("4 bytes"));
    block[12..16].copy_from_slice(&ctr.wrapping_add(1).to_be_bytes());
    block
}

/// The pre-kernel GHASH implementations, retained as independent oracles
/// for tests and the `crypto_kernels` microbench (`reference` feature).
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::mul_x;

    /// Builds the Shoup 4-bit table (the previous production path):
    /// `t[n]` = (4-bit polynomial `n`) · `h`, bit 3 of `n` being the
    /// group's lowest-degree coefficient.
    #[must_use]
    pub fn build_htable_4bit(h: u128) -> [u128; 16] {
        let mut t = [0u128; 16];
        let mut v = h;
        for bit in [8usize, 4, 2, 1] {
            t[bit] = v;
            v = mul_x(v);
        }
        for n in 0..16usize {
            t[n] = t[n & 8] ^ t[n & 4] ^ t[n & 2] ^ t[n & 1];
        }
        t
    }

    /// Multiplies the reflected element `x` by the table's key, 4 bits
    /// at a time: 32 table lookups per block.
    #[must_use]
    pub fn gf_mul_4bit(x: u128, htable: &[u128; 16]) -> u128 {
        static REM: std::sync::OnceLock<[u128; 16]> = std::sync::OnceLock::new();
        let rem = REM.get_or_init(rem_4bit);
        let mut z = 0u128;
        for m in 0..32 {
            if m != 0 {
                z = (z >> 4) ^ rem[(z & 0xF) as usize];
            }
            z ^= htable[((x >> (4 * m)) & 0xF) as usize];
        }
        z
    }

    fn rem_4bit() -> [u128; 16] {
        const R: u128 = 0xe1 << 120;
        let mut t = [0u128; 16];
        for (n, entry) in t.iter_mut().enumerate() {
            let mut v = 0u128;
            for bit in 0..4 {
                if (n >> bit) & 1 == 1 {
                    v ^= R >> (3 - bit);
                }
            }
            *entry = v;
        }
        t
    }

    /// Multiplication in GF(2^128) with the GCM polynomial, bit-serial.
    ///
    /// Operands use GCM's reflected bit order: bit 0 of the block is the
    /// u128 MSB, and the reduction polynomial appears as `0xe1 << 120`.
    /// The ground-truth oracle both table methods are tested against.
    #[must_use]
    pub fn gf_mul_bit_serial(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1 << 120;
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{build_htable_4bit, gf_mul_4bit, gf_mul_bit_serial};
    use super::*;
    use crate::{hex_decode, hex_encode};
    use proptest::prelude::*;

    /// Checks one specification vector through the public API and on
    /// each kernel set by name: the software kernels in every build, and
    /// the selected set, which is the hardware one when it is compiled.
    fn run_case(key: &str, iv: &str, pt: &str, aad: &str, expect_ct: &str, expect_tag: &str) {
        let key: [u8; 16] = hex_decode(key).try_into().unwrap();
        let iv: [u8; 12] = hex_decode(iv).try_into().unwrap();
        let pt = hex_decode(pt);
        let aad = hex_decode(aad);
        let expected = format!("{expect_ct}{expect_tag}");
        let aead = AesGcm::new(key);
        let sealed = aead.seal(&iv, &aad, &pt);
        assert_eq!(hex_encode(&sealed), expected);
        assert_eq!(aead.open(&iv, &aad, &sealed).unwrap(), pt);
        run_case_on(
            &SoftwareGcm::new(key),
            "software",
            &iv,
            &aad,
            &pt,
            &expected,
        );
        run_case_on(
            &<selected::Kernel as GcmKernel>::new(&key),
            KERNEL,
            &iv,
            &aad,
            &pt,
            &expected,
        );
    }

    fn run_case_on<K: GcmKernel>(
        kernel: &K,
        name: &str,
        iv: &[u8; 12],
        aad: &[u8],
        pt: &[u8],
        expected: &str,
    ) {
        // The in-place pair behind a header the seal must not touch.
        let mut buf = b"hdr".to_vec();
        buf.extend_from_slice(pt);
        seal_in_place(kernel, iv, aad, &mut buf, 3);
        assert_eq!(&buf[..3], b"hdr", "{name}");
        assert_eq!(hex_encode(&buf[3..]), expected, "{name}");
        open_in_place(kernel, iv, aad, &mut buf, 3).unwrap();
        assert_eq!(&buf[..3], b"hdr", "{name}");
        assert_eq!(&buf[3..], pt, "{name}");
        // And the copying wrappers over it.
        let sealed = seal_copy(kernel, iv, aad, pt);
        assert_eq!(hex_encode(&sealed), expected, "{name}");
        assert_eq!(open_copy(kernel, iv, aad, &sealed).unwrap(), pt, "{name}");
        // And the scattered open, cut at every offset.
        for cut in 0..=pt.len() {
            let (mut head, mut body) = (vec![0; cut], vec![0; pt.len() - cut]);
            open_scatter(kernel, iv, aad, &sealed, &mut [&mut head, &mut body]).unwrap();
            assert_eq!([head, body].concat(), pt, "{name} cut {cut}");
        }
    }

    #[test]
    fn sp800_38a_ctr_vectors_on_each_kernel() {
        // SP 800-38A F.5.1 CTR-AES128.Encrypt. Its counter blocks
        // increment the whole block, but these four stay inside the low
        // 32 bits, where that agrees with GCM's inc32.
        let key: [u8; 16] = hex_decode("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let icb: [u8; 16] = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let pt = hex_decode(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let ct = "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee";
        let kernels: [(&str, &dyn GcmKernel); 2] = [
            ("software", &SoftwareGcm::new(key)),
            (KERNEL, &<selected::Kernel as GcmKernel>::new(&key)),
        ];
        for (name, kernel) in kernels {
            let mut data = pt.clone();
            kernel.ctr(icb, &mut data);
            assert_eq!(hex_encode(&data), ct, "{name}");
        }
    }

    #[test]
    fn gcm_spec_case1_empty() {
        run_case(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        );
    }

    #[test]
    fn gcm_spec_case2_single_zero_block() {
        run_case(
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        );
    }

    #[test]
    fn gcm_spec_case3_four_blocks() {
        run_case(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            "",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        );
    }

    #[test]
    fn gcm_spec_case4_with_aad_and_partial_block() {
        run_case(
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        );
    }

    #[test]
    fn table_multiplies_match_bit_serial() {
        // Pseudo-random operands from a tiny LCG (no rand dependency).
        let mut s = 0x243F_6A88_85A3_08D3u128;
        let mut next = || {
            s = s
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            s ^ (s >> 64)
        };
        for _ in 0..200 {
            let h = next();
            let x = next();
            let expected = gf_mul_bit_serial(x, h);
            assert_eq!(
                expected,
                gf_mul_8bit(x, &build_htable(h)),
                "8-bit h={h:#034x} x={x:#034x}"
            );
            assert_eq!(
                expected,
                gf_mul_4bit(x, &build_htable_4bit(h)),
                "4-bit h={h:#034x} x={x:#034x}"
            );
        }
        // Edge operands.
        let h = next();
        let table = build_htable(h);
        for x in [0u128, 1, 1 << 127, u128::MAX] {
            assert_eq!(gf_mul_bit_serial(x, h), gf_mul_8bit(x, &table));
        }
        assert_eq!(gf_mul_8bit(7, &build_htable(0)), 0);
    }

    #[test]
    fn seal_in_place_leaves_the_prefix_and_open_in_place_restores_it() {
        let aead = AesGcm::new([0x21; 16]);
        let nonce = [3u8; 12];
        let mut buf = b"prefixhello world".to_vec();
        aead.seal_in_place(&nonce, b"aad", &mut buf, 6);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(buf[6..], aead.seal(&nonce, b"aad", b"hello world"));
        aead.open_in_place(&nonce, b"aad", &mut buf, 6).unwrap();
        assert_eq!(buf, b"prefixhello world");
    }

    #[test]
    fn open_in_place_rejects_a_short_tail_and_keeps_the_buffer() {
        let aead = AesGcm::new([0; 16]);
        let mut buf = vec![7u8; 20];
        assert_eq!(
            aead.open_in_place(&[0; 12], b"", &mut buf, 5).unwrap_err(),
            CryptoError::InvalidLength
        );
        assert_eq!(buf, vec![7u8; 20]);
    }

    #[test]
    fn open_rejects_truncated_input() {
        let aead = AesGcm::new([0; 16]);
        assert_eq!(
            aead.open(&[0; 12], b"", &[0u8; 15]).unwrap_err(),
            CryptoError::InvalidLength
        );
    }

    #[test]
    fn open_rejects_every_single_bit_flip() {
        let aead = AesGcm::new([7; 16]);
        let nonce = [9; 12];
        let sealed = aead.seal(&nonce, b"aad", b"some plaintext");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(aead.open(&nonce, b"aad", &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn open_rejects_wrong_nonce_aad_key() {
        let aead = AesGcm::new([7; 16]);
        let sealed = aead.seal(&[1; 12], b"aad", b"pt");
        assert!(aead.open(&[2; 12], b"aad", &sealed).is_err());
        assert!(aead.open(&[1; 12], b"aax", &sealed).is_err());
        assert!(AesGcm::new([8; 16])
            .open(&[1; 12], b"aad", &sealed)
            .is_err());
    }

    #[test]
    fn round_trip_various_lengths() {
        let aead = AesGcm::new([3; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let nonce = [len as u8; 12];
            let sealed = aead.seal(&nonce, b"", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(aead.open(&nonce, b"", &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn empty_plaintext_still_authenticates_aad() {
        let aead = AesGcm::new([5; 16]);
        let sealed = aead.seal(&[0; 12], b"important aad", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert!(aead.open(&[0; 12], b"important aad", &sealed).is_ok());
        assert!(aead.open(&[0; 12], b"other aad", &sealed).is_err());
    }

    /// Reconstructs the pre-kernel seal (scalar AES CTR one block at a
    /// time + 4-bit GHASH) entirely from oracle parts.
    fn seal_old(key: [u8; 16], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        use crate::aes::reference::ScalarAes128;
        let cipher = ScalarAes128::new(&key);
        let h = u128::from_be_bytes(cipher.encrypt(&[0u8; BLOCK_LEN]));
        let htable = build_htable_4bit(h);

        let mut j0 = [0u8; BLOCK_LEN];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[BLOCK_LEN - 1] = 1;

        let mut out = plaintext.to_vec();
        let mut counter = inc32(j0);
        for chunk in out.chunks_mut(BLOCK_LEN) {
            let ks = cipher.encrypt(&counter);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            counter = inc32(counter);
        }

        let mut y = 0u128;
        for data in [aad, &out[..]] {
            for chunk in data.chunks(BLOCK_LEN) {
                let mut block = [0u8; BLOCK_LEN];
                block[..chunk.len()].copy_from_slice(chunk);
                y = gf_mul_4bit(y ^ u128::from_be_bytes(block), &htable);
            }
        }
        let mut len_block = [0u8; BLOCK_LEN];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((out.len() as u64) * 8).to_be_bytes());
        y = gf_mul_4bit(y ^ u128::from_be_bytes(len_block), &htable);

        let ekj0 = cipher.encrypt(&j0);
        let mut tag = y.to_be_bytes();
        for (t, k) in tag.iter_mut().zip(ekj0.iter()) {
            *t ^= k;
        }
        out.extend_from_slice(&tag);
        out
    }

    proptest! {
        #[test]
        fn prop_8bit_ghash_matches_4bit_and_bit_serial(
            hb in any::<[u8; 16]>(),
            xb in any::<[u8; 16]>(),
        ) {
            let h = u128::from_be_bytes(hb);
            let x = u128::from_be_bytes(xb);
            let expected = gf_mul_bit_serial(x, h);
            prop_assert_eq!(expected, gf_mul_8bit(x, &build_htable(h)));
            prop_assert_eq!(expected, gf_mul_4bit(x, &build_htable_4bit(h)));
        }

        #[test]
        fn prop_pair_fold_matches_sequential_fold(
            hb in any::<[u8; 16]>(),
            yb in any::<[u8; 16]>(),
            b0b in any::<[u8; 16]>(),
            b1b in any::<[u8; 16]>(),
        ) {
            // The two-block fold (y ⊕ b₀)·H² ⊕ b₁·H must equal two
            // sequential one-block folds against the bit-serial oracle.
            let h = u128::from_be_bytes(hb);
            let y = u128::from_be_bytes(yb);
            let b0 = u128::from_be_bytes(b0b);
            let b1 = u128::from_be_bytes(b1b);
            let htable = build_htable(h);
            let htable2 = build_htable(gf_mul_bit_serial(h, h));
            let sequential = gf_mul_bit_serial(gf_mul_bit_serial(y ^ b0, h) ^ b1, h);
            prop_assert_eq!(gf_mul_pair(y ^ b0, b1, &htable2, &htable), sequential);
        }

        #[test]
        fn prop_kernel_seal_is_byte_identical_to_old_seal(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
            pt in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // Wire-format pin: the multi-block kernels must produce the
            // exact bytes of the byte-serial implementation they replaced.
            let old = seal_old(key, &nonce, &aad, &pt);
            prop_assert_eq!(&AesGcm::new(key).seal(&nonce, &aad, &pt), &old);
            prop_assert_eq!(&SoftwareGcm::new(key).seal(&nonce, &aad, &pt), &old);
        }

        #[test]
        fn prop_in_place_pair_matches_copying_pair(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
            prefix in proptest::collection::vec(any::<u8>(), 0..48),
            pt in proptest::collection::vec(any::<u8>(), 0..1100),
            flip in any::<u64>(),
        ) {
            let start = prefix.len();
            let hw = AesGcm::new(key);
            let sw = SoftwareGcm::new(key);
            let expected = sw.seal(&nonce, &aad, &pt);
            for on_hw in [true, false] {
                let mut buf = prefix.clone();
                buf.extend_from_slice(&pt);
                if on_hw {
                    hw.seal_in_place(&nonce, &aad, &mut buf, start);
                } else {
                    sw.seal_in_place(&nonce, &aad, &mut buf, start);
                }
                // Byte for byte the copying seal, behind an untouched prefix.
                prop_assert_eq!(&buf[..start], &prefix[..]);
                prop_assert_eq!(&buf[start..], &expected[..]);

                // One flipped bit anywhere in ciphertext or tag: the open
                // fails and the buffer still holds the ciphertext, so no
                // plaintext byte is left behind.
                let bit = (flip % (expected.len() as u64 * 8)) as usize;
                let mut bad = buf.clone();
                bad[start + bit / 8] ^= 1 << (bit % 8);
                let before = bad.clone();
                let opened = if on_hw {
                    hw.open_in_place(&nonce, &aad, &mut bad, start)
                } else {
                    sw.open_in_place(&nonce, &aad, &mut bad, start)
                };
                prop_assert!(opened.is_err());
                prop_assert_eq!(&bad, &before);

                // The intact buffer round-trips.
                if on_hw {
                    hw.open_in_place(&nonce, &aad, &mut buf, start).unwrap();
                } else {
                    sw.open_in_place(&nonce, &aad, &mut buf, start).unwrap();
                }
                prop_assert_eq!(&buf[..start], &prefix[..]);
                prop_assert_eq!(&buf[start..], &pt[..]);
            }
        }

        #[test]
        fn prop_scattered_open_matches_open(
            key in any::<[u8; 16]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..64),
            pt in proptest::collection::vec(any::<u8>(), 0..1100),
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
            flip in any::<u64>(),
        ) {
            let hw = AesGcm::new(key);
            let sw = SoftwareGcm::new(key);
            let sealed = sw.seal(&nonce, &aad, &pt);
            // Split the plaintext at up to three sorted cut points.
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (pt.len() + 1)).collect();
            cuts.sort_unstable();
            let mut bounds = vec![0];
            bounds.extend(cuts);
            bounds.push(pt.len());
            for on_hw in [true, false] {
                let mut outs: Vec<Vec<u8>> =
                    bounds.windows(2).map(|w| vec![0; w[1] - w[0]]).collect();
                let mut views: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                if on_hw {
                    hw.open_scatter(&nonce, &aad, &sealed, &mut views).unwrap();
                } else {
                    sw.open_scatter(&nonce, &aad, &sealed, &mut views).unwrap();
                }
                prop_assert_eq!(outs.concat(), pt.clone());

                // A flipped bit fails the open and writes no destination.
                let bit = (flip % (sealed.len() as u64 * 8)) as usize;
                let mut bad = sealed.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let mut outs: Vec<Vec<u8>> =
                    bounds.windows(2).map(|w| vec![0; w[1] - w[0]]).collect();
                let mut views: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
                let opened = if on_hw {
                    hw.open_scatter(&nonce, &aad, &bad, &mut views)
                } else {
                    sw.open_scatter(&nonce, &aad, &bad, &mut views)
                };
                prop_assert!(opened.is_err());
                prop_assert!(outs.iter().flatten().all(|&b| b == 0));
            }
            // Destinations that do not cover the ciphertext are refused.
            let mut short = vec![0; pt.len() + 1];
            prop_assert_eq!(
                hw.open_scatter(&nonce, &aad, &sealed, &mut [&mut short]),
                Err(CryptoError::InvalidLength)
            );
        }
    }
}
