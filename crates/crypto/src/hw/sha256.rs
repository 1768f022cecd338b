//! SHA-256 block compression on SHA-NI: the kernel
//! [`crate::sha256::Sha256`] runs on when the build targets it.
//!
//! The state rides in two registers in the order `SHA256RNDS2` expects,
//! `ABEF` and `CDGH`; each `SHA256RNDS2` runs two rounds, and
//! `SHA256MSG1`/`SHA256MSG2` extend the message schedule four words at a
//! time.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};

use crate::sha256::{BLOCK_LEN, K};

/// The round constants four at a time, word `4i + j` in lane `j`.
const K4: [u128; 16] = {
    let mut k4 = [0u128; 16];
    let mut i = 0;
    while i < 16 {
        k4[i] = K[4 * i] as u128
            | (K[4 * i + 1] as u128) << 32
            | (K[4 * i + 2] as u128) << 64
            | (K[4 * i + 3] as u128) << 96;
        i += 1;
    }
    k4
};

/// Folds a run of whole 64-byte blocks into `state`.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: `hw::sha256` is compiled only under cfg(target_feature =
    // "sha", "ssse3", "sse4.1"), the features `compress` enables.
    unsafe { compress(state, blocks) }
}

#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn load(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// Four message words from 16 big-endian bytes, word `j` in lane `j`.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn load_words(bytes: &[u8]) -> __m128i {
    // PSHUFB with this mask byte-swaps each 32-bit lane.
    let bswap32 = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let v = u128::from_le_bytes(bytes.try_into().expect("16 message bytes"));
    _mm_shuffle_epi8(load(v), bswap32)
}

/// The next four schedule words from the previous sixteen.
#[inline]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    // W[t-16] + σ0(W[t-15]) + W[t-7], then + σ1(W[t-2]) in order.
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(partial, w3)
}

/// Never inlined: `SHA256RNDS2`, `SHA256MSG1` and `SHA256MSG2` exist only
/// in legacy SSE encoding, and legacy SSE code that runs while a caller's
/// AVX code has left the upper register halves dirty is very slow
/// (measured at 9 µs instead of 55 ns per block). LLVM clears the upper
/// halves with `VZEROUPPER` before a call, but not before these
/// instructions once they are inlined into AVX code.
#[inline(never)]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w0 = load_words(&block[..16]);
        let mut w1 = load_words(&block[16..32]);
        let mut w2 = load_words(&block[32..48]);
        let mut w3 = load_words(&block[48..]);
        // Four rounds: RNDS2 runs two with the low two words of `wk`,
        // and returns the new ABEF; the old ABEF is the new CDGH.
        macro_rules! rounds4 {
            ($i:expr, $w:expr) => {
                let wk = _mm_add_epi32($w, load(K4[$i]));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            };
        }
        rounds4!(0, w0);
        rounds4!(1, w1);
        rounds4!(2, w2);
        rounds4!(3, w3);
        for i in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4!(i, w0);
            w1 = schedule(w1, w2, w3, w0);
            rounds4!(i + 1, w1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4!(i + 2, w2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4!(i + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    let ab = _mm_extract_epi64::<1>(abef) as u64;
    let ef = _mm_cvtsi128_si64(abef) as u64;
    let cd = _mm_extract_epi64::<1>(cdgh) as u64;
    let gh = _mm_cvtsi128_si64(cdgh) as u64;
    *state = [
        (ab >> 32) as u32,
        ab as u32,
        (cd >> 32) as u32,
        cd as u32,
        (ef >> 32) as u32,
        ef as u32,
        (gh >> 32) as u32,
        gh as u32,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{sha256_software, Sha256, KERNEL};
    use proptest::prelude::*;

    #[test]
    fn build_selects_sha_ni() {
        assert_eq!(KERNEL, "sha-ni");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_compression_matches_unrolled_software(
            state in any::<[u8; 32]>(),
            blocks in 1usize..=9,
            data in proptest::collection::vec(any::<u8>(), 9 * BLOCK_LEN),
        ) {
            let state: [u32; 8] = std::array::from_fn(|i| {
                u32::from_le_bytes(state[4 * i..4 * i + 4].try_into().unwrap())
            });
            let blocks = &data[..blocks * BLOCK_LEN];
            let mut hw = state;
            compress_blocks(&mut hw, blocks);
            let mut sw = state;
            crate::sha256::compress_blocks(&mut sw, blocks);
            prop_assert_eq!(hw, sw);
        }

        #[test]
        fn prop_update_at_random_splits_matches_software(
            data in proptest::collection::vec(any::<u8>(), 0..1024),
            splits in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let mut h = Sha256::new();
            let mut rest: &[u8] = &data;
            for s in splits {
                let take = s.min(rest.len());
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            h.update(rest);
            prop_assert_eq!(h.finalize(), sha256_software(&data));
        }
    }
}
