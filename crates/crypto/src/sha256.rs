//! SHA-256 (FIPS 180-4) on a SHA-NI or an unrolled software compression
//! kernel.
//!
//! Provides both a streaming [`Sha256`] hasher and the one-shot [`sha256`]
//! convenience function. [`Sha256::update`] folds every full-block run of
//! its input through the compression kernel in one call, so
//! multi-megabyte payloads (chunk digests, HMAC chains, sealed-state
//! digests) never round-trip through the 64-byte buffer.
//!
//! The kernel is chosen at compile time by `cfg(target_feature)` and
//! named by [`KERNEL`]: SHA-NI (`crate::hw::sha256`) when the build
//! targets `sha`, `ssse3` and `sse4.1` on `x86_64`, and otherwise the
//! software compression, fully unrolled in 16-round groups over a
//! rolling 16-word message schedule — no 64-entry schedule array and no
//! per-round register rotation. The software kernel stays in every build
//! as the portable fallback and as the oracle for SHA-NI
//! ([`sha256_software`]); the straightforward rolled compression it
//! replaced is retained in [`reference`](mod@reference) as its own
//! oracle. Validated against the FIPS 180-4 / NIST CAVP example vectors,
//! including the one-million-`a` vector, on both kernels.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// One SHA-256 round with explicit register names. Sixteen invocations
/// with the names rotated one position to the right per round put every
/// register back in its original role, so a 16-round group needs no
/// register shuffling at all.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    }};
}

/// Sixteen unrolled rounds consuming `w[0..16]` against `K[$base..]`.
macro_rules! rounds16 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $w:ident, $base:expr) => {{
        round!($a, $b, $c, $d, $e, $f, $g, $h, K[$base].wrapping_add($w[0]));
        round!(
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            K[$base + 1].wrapping_add($w[1])
        );
        round!(
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            K[$base + 2].wrapping_add($w[2])
        );
        round!(
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            K[$base + 3].wrapping_add($w[3])
        );
        round!(
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            K[$base + 4].wrapping_add($w[4])
        );
        round!(
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            K[$base + 5].wrapping_add($w[5])
        );
        round!(
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            K[$base + 6].wrapping_add($w[6])
        );
        round!(
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            K[$base + 7].wrapping_add($w[7])
        );
        round!(
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            K[$base + 8].wrapping_add($w[8])
        );
        round!(
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            K[$base + 9].wrapping_add($w[9])
        );
        round!(
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            $f,
            K[$base + 10].wrapping_add($w[10])
        );
        round!(
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            $e,
            K[$base + 11].wrapping_add($w[11])
        );
        round!(
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            $d,
            K[$base + 12].wrapping_add($w[12])
        );
        round!(
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            $c,
            K[$base + 13].wrapping_add($w[13])
        );
        round!(
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            $b,
            K[$base + 14].wrapping_add($w[14])
        );
        round!(
            $b,
            $c,
            $d,
            $e,
            $f,
            $g,
            $h,
            $a,
            K[$base + 15].wrapping_add($w[15])
        );
    }};
}

/// Advances the rolling 16-word schedule in place: after the update,
/// `w[i]` holds `W[t+16+i]` where it held `W[t+i]` before. The ring
/// indices resolve to already-updated slots exactly where FIPS 180-4
/// references schedule words of the new group.
#[inline]
fn schedule_next(w: &mut [u32; 16]) {
    for i in 0..16 {
        let s0 = {
            let x = w[(i + 1) & 15];
            x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
        };
        let s1 = {
            let x = w[(i + 14) & 15];
            x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
        };
        w[i] = w[i]
            .wrapping_add(s0)
            .wrapping_add(w[(i + 9) & 15])
            .wrapping_add(s1);
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "ssse3",
    target_feature = "sse4.1"
))]
mod selected {
    pub(super) use crate::hw::sha256::compress_blocks as compress;
    /// The compression kernel [`Sha256`](super::Sha256) runs on in this build.
    pub const KERNEL: &str = "sha-ni";
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "ssse3",
    target_feature = "sse4.1"
)))]
mod selected {
    pub(super) use super::compress_blocks as compress;
    /// The compression kernel [`Sha256`](super::Sha256) runs on in this build.
    pub const KERNEL: &str = "unrolled";
}

pub use selected::KERNEL;

/// Folds a run of whole 64-byte blocks into `state`.
///
/// This is the software kernel behind [`Sha256::update`] when the build
/// lacks SHA-NI: one call walks any number of consecutive blocks with the
/// unrolled round function and a rolling schedule held in registers/stack
/// scratch that is reused (and overwritten) block after block — no
/// per-block buffer copies, no 64-entry schedule array.
///
/// # Panics
///
/// Debug-asserts that `blocks` is a multiple of [`BLOCK_LEN`]; a ragged
/// tail would be silently dropped otherwise (caller bug).
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    let mut w = [0u32; 16];
    for block in blocks.chunks_exact(BLOCK_LEN) {
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        rounds16!(a, b, c, d, e, f, g, h, w, 0);
        schedule_next(&mut w);
        rounds16!(a, b, c, d, e, f, g, h, w, 16);
        schedule_next(&mut w);
        rounds16!(a, b, c, d, e, f, g, h, w, 32);
        schedule_next(&mut w);
        rounds16!(a, b, c, d, e, f, g, h, w, 48);
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
    // The last block's schedule words are message-derived scratch; when
    // the message is keyed (HMAC/HKDF) they must not linger.
    crate::zeroize::zeroize_u32s(&mut w);
}

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use mig_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), mig_crypto::sha256::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The buffered bytes may be secret; show only public progress info.
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Drop for Sha256 {
    fn drop(&mut self) {
        // The chaining state and buffered bytes hold key material whenever
        // the hash is keyed (HMAC ipad/opad states, HKDF PRKs).
        crate::zeroize::zeroize_u32s(&mut self.state);
        crate::zeroize::zeroize_bytes(&mut self.buf);
        self.buf_len = 0;
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Full blocks are compressed straight from `data` in one kernel
    /// call; only a ragged head (completing a previously buffered partial
    /// block) or tail touches the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, selected::compress);
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finish(selected::compress)
    }

    /// [`Sha256::update`] on the compression kernel `compress`.
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let full = rest.len() - rest.len() % BLOCK_LEN;
        let (blocks, tail) = rest.split_at(full);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// [`Sha256::finalize`] on the compression kernel `compress`.
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length.
        self.absorb(&[0x80], &compress);
        while self.buf_len != 56 {
            self.absorb(&[0], &compress);
        }
        // Appending the length below must not re-enter the length counter,
        // so compress the final block manually.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress(&mut self.state, &block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
///
/// # Example
///
/// ```
/// let d = mig_crypto::sha256::sha256(b"abc");
/// assert_eq!(mig_crypto::hex_encode(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 on the software compression kernel, whatever the
/// build selected: the portable fallback's digest, callable by name as
/// the oracle for the SHA-NI kernel.
///
/// # Example
///
/// ```
/// use mig_crypto::sha256::{sha256, sha256_software};
/// assert_eq!(sha256_software(b"abc"), sha256(b"abc"));
/// ```
#[must_use]
pub fn sha256_software(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.absorb(data, compress_blocks);
    h.finish(compress_blocks)
}

/// The straightforward rolled SHA-256 the unrolled kernel replaced,
/// retained verbatim as an independent equivalence oracle for tests and
/// the `crypto_kernels` microbench (`reference` feature).
#[cfg(any(test, feature = "reference"))]
pub mod reference {
    use super::{BLOCK_LEN, DIGEST_LEN, H0, K};

    /// One-shot rolled SHA-256 (64-entry schedule array, per-round
    /// register rotation) — the pre-kernel implementation.
    #[must_use]
    pub fn sha256_rolled(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut state = H0;
        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % BLOCK_LEN != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_be_bytes());
        for block in msg.chunks_exact(BLOCK_LEN) {
            compress_rolled(&mut state, block.try_into().expect("exact block"));
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress_rolled(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;
    use proptest::prelude::*;

    /// Checks a FIPS 180-4 vector on each kernel by name: the selected
    /// one ([`KERNEL`], SHA-NI when it is compiled) through [`sha256`],
    /// and the software one through [`sha256_software`].
    fn check_vector(data: &[u8], expected: &str) {
        assert_eq!(hex_encode(&sha256(data)), expected, "{KERNEL}");
        assert_eq!(hex_encode(&sha256_software(data)), expected, "software");
    }

    #[test]
    fn fips_vector_empty() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        check_vector(
            msg,
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn fips_vector_million_a() {
        const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex_encode(&h.finalize()), EXPECTED);
        check_vector(&vec![b'a'; 1_000_000], EXPECTED);
    }

    #[test]
    fn streaming_matches_one_shot_at_all_split_points() {
        let data: Vec<u8> = (0..200u8).collect();
        let expected = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths_55_56_57_63_64_65() {
        // Lengths around the padding boundary exercise the two-block padding
        // path; check self-consistency between byte-at-a-time and one-shot.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xA5u8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn unrolled_matches_rolled_oracle_at_block_boundaries() {
        // The multi-block bulk path and the padding paths must agree
        // with the retained rolled implementation bit for bit.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 1000, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let rolled = reference::sha256_rolled(&data);
            assert_eq!(sha256_software(&data), rolled, "len {len}");
            assert_eq!(sha256(&data), rolled, "{KERNEL} len {len}");
        }
    }

    proptest! {
        #[test]
        fn prop_unrolled_matches_rolled_oracle(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let rolled = reference::sha256_rolled(&data);
            prop_assert_eq!(sha256_software(&data), rolled);
            prop_assert_eq!(sha256(&data), rolled);
        }

        #[test]
        fn prop_bulk_update_matches_chunked_updates(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            splits in proptest::collection::vec(0usize..1024, 0..8),
        ) {
            // Any partition of the input through the streaming interface
            // must equal the one-shot (single bulk compress_blocks run).
            let mut h = Sha256::new();
            let mut rest: &[u8] = &data;
            for s in splits {
                let take = s.min(rest.len());
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }
    }
}
