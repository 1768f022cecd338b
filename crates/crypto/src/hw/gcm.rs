//! AES-128 on AES-NI or VAES and GHASH on PCLMULQDQ or VPCLMULQDQ: the
//! kernel set [`crate::gcm::AesGcm`] runs on when the build targets them.
//!
//! * The key schedule runs on `AESKEYGENASSIST`.
//! * The 128-bit loops, in every build of this module: the cipher runs
//!   on `AESENC`/`AESENCLAST`, eight counter blocks per CTR step, so eight
//!   independent round chains share the pipelined AES unit. GHASH
//!   multiplies with `PCLMULQDQ` in GCM's bit-reflected order and folds
//!   four blocks per reduction:
//!   `((((y ⊕ b₀)·H ⊕ b₁)·H ⊕ b₂)·H ⊕ b₃)·H = (y ⊕ b₀)·H⁴ ⊕ b₁·H³ ⊕ b₂·H² ⊕ b₃·H`.
//!   The four products are summed unreduced and reduced once.
//! * The 256-bit loops, when the build also targets `vaes`, `vpclmulqdq`
//!   and `avx2` (the `wide` module): each ymm register holds two blocks,
//!   one per 128-bit lane. CTR encrypts 16 counter blocks per step in
//!   eight registers, and GHASH folds 16 blocks per reduction through
//!   H¹⁶ … H¹ the same way. A seal runs each CTR step and the GHASH of the
//!   previous step's ciphertext in one loop, so it reads and writes the
//!   buffer once; an open still verifies the whole tag before it decrypts
//!   anything, in two wide passes. The 128-bit loops finish the bytes
//!   after the last whole 256-byte step.
//!
//! The key state is the 11 round keys plus H¹ … H¹⁶ (432 bytes) in a
//! build with the 256-bit loops, H¹ … H⁴ (240 bytes) otherwise, zeroized
//! on drop. Either way every output byte is the one the software kernels
//! give.

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_extract_epi64, _mm_insert_epi32, _mm_or_si128,
    _mm_set_epi64x, _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_epi64,
    _mm_slli_si128, _mm_srli_epi64, _mm_srli_si128, _mm_xor_si128,
};

use crate::aes::{BLOCK_LEN, KEY_LEN};
use crate::gcm::GcmKernel;

/// Counter blocks encrypted per CTR step of the 128-bit loop.
const CTR_BLOCKS: usize = 8;

/// Whether this build runs the 256-bit loops (the `wide` module): it
/// targets VAES, VPCLMULQDQ and AVX2 as well.
const WIDE: bool = cfg!(all(
    target_feature = "vaes",
    target_feature = "vpclmulqdq",
    target_feature = "avx2"
));

/// Powers of H in the key state: one per block of the widest GHASH fold.
const H_POWERS: usize = if WIDE { 16 } else { 4 };

/// The name [`crate::gcm::KERNEL`] reports for this build.
pub(crate) const KERNEL: &str = if WIDE {
    "vaes+vpclmulqdq"
} else {
    "aes-ni+pclmulqdq"
};

/// AES-128-GCM key state for the hardware kernels.
///
/// Both arrays hold register images: a round key as the little-endian
/// `u128` of its 16 bytes, and `h_powers[i]` = H^(i+1) as the
/// `u128::from_be_bytes` image the software GHASH uses too.
#[derive(Clone)]
pub(crate) struct HwGcmKey {
    round_keys: [u128; 11],
    h_powers: [u128; H_POWERS],
}

impl Drop for HwGcmKey {
    fn drop(&mut self) {
        // The round keys are equivalent to the key; H forges tags.
        for v in self.round_keys.iter_mut().chain(self.h_powers.iter_mut()) {
            crate::zeroize::zeroize_u128(v);
        }
    }
}

impl GcmKernel for HwGcmKey {
    fn new(key: &[u8; KEY_LEN]) -> Self {
        // SAFETY: `hw::gcm` is compiled only under cfg(target_feature =
        // "aes", "pclmulqdq", "ssse3", "sse4.1"), the features `new_key` enables.
        unsafe { new_key(key) }
    }

    fn encrypt_block(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        // SAFETY: `hw::gcm` is compiled only under cfg(target_feature =
        // "aes", "pclmulqdq", "ssse3", "sse4.1"), the features `encrypt_one` enables.
        unsafe { encrypt_one(&self.round_keys, block) }
    }

    #[cfg(not(all(
        target_feature = "vaes",
        target_feature = "vpclmulqdq",
        target_feature = "avx2"
    )))]
    fn ctr(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        // SAFETY: `hw::gcm` is compiled only under cfg(target_feature =
        // "aes", "pclmulqdq", "ssse3", "sse4.1"), the features `ctr_xor` enables.
        unsafe { ctr_xor(&self.round_keys, icb, data) }
    }

    #[cfg(not(all(
        target_feature = "vaes",
        target_feature = "vpclmulqdq",
        target_feature = "avx2"
    )))]
    fn ghash(&self, y: u128, data: &[u8]) -> u128 {
        // SAFETY: `hw::gcm` is compiled only under cfg(target_feature =
        // "aes", "pclmulqdq", "ssse3", "sse4.1"), the features `ghash` enables.
        unsafe { ghash(&self.h_powers, y, data) }
    }

    #[cfg(all(
        target_feature = "vaes",
        target_feature = "vpclmulqdq",
        target_feature = "avx2"
    ))]
    fn ctr(&self, icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        // SAFETY: `wide` is compiled only under cfg(target_feature =
        // "vaes", "vpclmulqdq", "avx2") inside this module's cfg(target_feature
        // = "aes", "pclmulqdq", "ssse3", "sse4.1"), the features
        // `wide::ctr_xor` enables.
        unsafe { wide::ctr_xor(&self.round_keys, icb, data) }
    }

    #[cfg(all(
        target_feature = "vaes",
        target_feature = "vpclmulqdq",
        target_feature = "avx2"
    ))]
    fn ghash(&self, y: u128, data: &[u8]) -> u128 {
        // SAFETY: `wide` is compiled only under cfg(target_feature =
        // "vaes", "vpclmulqdq", "avx2") inside this module's cfg(target_feature
        // = "aes", "pclmulqdq", "ssse3", "sse4.1"), the features
        // `wide::ghash` enables.
        unsafe { wide::ghash(&self.h_powers, y, data) }
    }

    #[cfg(all(
        target_feature = "vaes",
        target_feature = "vpclmulqdq",
        target_feature = "avx2"
    ))]
    fn ctr_ghash(&self, icb: [u8; BLOCK_LEN], y: u128, data: &mut [u8]) -> u128 {
        // SAFETY: `wide` is compiled only under cfg(target_feature =
        // "vaes", "vpclmulqdq", "avx2") inside this module's cfg(target_feature
        // = "aes", "pclmulqdq", "ssse3", "sse4.1"), the features
        // `wide::ctr_ghash` enables.
        unsafe { wide::ctr_ghash(&self.round_keys, &self.h_powers, icb, y, data) }
    }
}

/// Moves a `u128` into a register: byte `i` of its little-endian image
/// becomes register byte `i`.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn load(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// The inverse of [`load`].
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn store(x: __m128i) -> u128 {
    (u128::from(_mm_extract_epi64::<1>(x) as u64) << 64) | u128::from(_mm_cvtsi128_si64(x) as u64)
}

/// Loads a 16-byte block in memory order.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn load_block(block: &[u8]) -> __m128i {
    load(u128::from_le_bytes(
        block.try_into().expect("16-byte block"),
    ))
}

/// The `PSHUFB` mask that reverses a register's 16 bytes.
const REVERSE: u128 = 0x0001_0203_0405_0607_0809_0a0b_0c0d_0e0f;

/// Loads a 16-byte block as the GHASH element `u128::from_be_bytes(block)`.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn load_ghash_block(block: &[u8]) -> __m128i {
    _mm_shuffle_epi8(load_block(block), load(REVERSE))
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn new_key(key: &[u8; KEY_LEN]) -> HwGcmKey {
    let round_keys = expand_key(key);
    let h = store(encrypt(&registers(&round_keys), _mm_setzero_si128()));
    let mut powers = [load(u128::from_be_bytes(h.to_le_bytes())); H_POWERS];
    // Doubling: with H¹ … Hⁿ known, Hⁿ⁺ⁱ = Hⁿ·Hⁱ for i in 1..=n, n
    // products independent of each other, so the chain to H¹⁶ is four
    // multiplies deep.
    let mut known = 1;
    while known < H_POWERS {
        for i in 0..known {
            powers[known + i] = reduce(clmul(powers[known - 1], powers[i]));
        }
        known *= 2;
    }
    HwGcmKey {
        round_keys,
        h_powers: powers.map(|power| store(power)),
    }
}

/// The FIPS 197 AES-128 key expansion, one `AESKEYGENASSIST` per round.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn expand_key(key: &[u8; KEY_LEN]) -> [u128; 11] {
    let mut round_keys = [0u128; 11];
    let mut k = load(u128::from_le_bytes(*key));
    round_keys[0] = store(k);
    macro_rules! round {
        ($i:literal, $rcon:literal) => {
            k = expand_step(k, _mm_aeskeygenassist_si128::<$rcon>(k));
            round_keys[$i] = store(k);
        };
    }
    round!(1, 0x01);
    round!(2, 0x02);
    round!(3, 0x04);
    round!(4, 0x08);
    round!(5, 0x10);
    round!(6, 0x20);
    round!(7, 0x40);
    round!(8, 0x80);
    round!(9, 0x1b);
    round!(10, 0x36);
    round_keys
}

/// One key-schedule step. Word 3 of `assist` is
/// `SubWord(RotWord(w₃)) ⊕ rcon` of the previous round key; word `i` of
/// the next round key is that value XOR the previous words `0..=i`.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn expand_step(prev: __m128i, assist: __m128i) -> __m128i {
    let mut k = prev;
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, _mm_shuffle_epi32::<0xff>(assist))
}

#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn registers(round_keys: &[u128; 11]) -> [__m128i; 11] {
    let mut k = [_mm_setzero_si128(); 11];
    for (reg, key) in k.iter_mut().zip(round_keys) {
        *reg = load(*key);
    }
    k
}

#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn encrypt(k: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut b = _mm_xor_si128(block, k[0]);
    for key in &k[1..10] {
        b = _mm_aesenc_si128(b, *key);
    }
    _mm_aesenclast_si128(b, k[10])
}

#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn encrypt_one(round_keys: &[u128; 11], block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let k = registers(round_keys);
    store(encrypt(&k, load(u128::from_le_bytes(*block)))).to_le_bytes()
}

/// Encrypts the counter blocks `nonce || ctr + j` for `j` in `0..8`, the
/// 32-bit counter wrapping as `inc32` defines.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn keystream(k: &[__m128i; 11], nonce: __m128i, ctr: u32) -> [__m128i; CTR_BLOCKS] {
    let mut b = [_mm_setzero_si128(); CTR_BLOCKS];
    for (j, block) in b.iter_mut().enumerate() {
        // The counter is big-endian in bytes 12..16, which is lane 3.
        let counter = ctr.wrapping_add(j as u32).swap_bytes() as i32;
        *block = _mm_xor_si128(_mm_insert_epi32::<3>(nonce, counter), k[0]);
    }
    for key in &k[1..10] {
        for block in &mut b {
            *block = _mm_aesenc_si128(*block, *key);
        }
    }
    for block in &mut b {
        *block = _mm_aesenclast_si128(*block, k[10]);
    }
    b
}

/// XORs the CTR keystream starting at counter block `icb` into `data`.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn ctr_xor(round_keys: &[u128; 11], icb: [u8; BLOCK_LEN], data: &mut [u8]) {
    let k = registers(round_keys);
    let nonce = load(u128::from_le_bytes(icb));
    let mut ctr = u32::from_be_bytes([icb[12], icb[13], icb[14], icb[15]]);
    let mut steps = data.chunks_exact_mut(CTR_BLOCKS * BLOCK_LEN);
    for step in &mut steps {
        for (block, ks) in step
            .chunks_exact_mut(BLOCK_LEN)
            .zip(keystream(&k, nonce, ctr))
        {
            let out = _mm_xor_si128(load_block(block), ks);
            block.copy_from_slice(&store(out).to_le_bytes());
        }
        ctr = ctr.wrapping_add(CTR_BLOCKS as u32);
    }
    let tail = steps.into_remainder();
    if !tail.is_empty() {
        // The keystream leaves the registers only through `pad`.
        let mut pad = [0u8; CTR_BLOCKS * BLOCK_LEN];
        for (bytes, ks) in pad
            .chunks_exact_mut(BLOCK_LEN)
            .zip(keystream(&k, nonce, ctr))
        {
            bytes.copy_from_slice(&store(ks).to_le_bytes());
        }
        for (d, p) in tail.iter_mut().zip(pad.iter()) {
            *d ^= p;
        }
        // Unconsumed keystream from a ragged tail must not linger.
        crate::zeroize::zeroize_bytes(&mut pad);
    }
}

/// The unreduced 256-bit carry-less product of two field elements, as
/// the sums of its low, middle and high 64×64-bit partial products.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn clmul(a: __m128i, b: __m128i) -> [__m128i; 3] {
    [
        _mm_clmulepi64_si128::<0x00>(a, b),
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x01>(a, b),
            _mm_clmulepi64_si128::<0x10>(a, b),
        ),
        _mm_clmulepi64_si128::<0x11>(a, b),
    ]
}

#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn xor3(a: [__m128i; 3], b: [__m128i; 3]) -> [__m128i; 3] {
    [
        _mm_xor_si128(a[0], b[0]),
        _mm_xor_si128(a[1], b[1]),
        _mm_xor_si128(a[2], b[2]),
    ]
}

/// Reduces a [`clmul`] product modulo x¹²⁸ + x⁷ + x² + x + 1.
///
/// An element's register image holds the coefficient of xᵏ at bit
/// 127 − k, so each operand is bit-reversed. The product of two reversed
/// 128-bit operands is the reversed 256-bit product shifted right by one
/// bit, so the product is first shifted back. Then its high half holds
/// the coefficients below x¹²⁸ and its low half those from x¹²⁸ up. The
/// low half is folded in times x⁷ + x² + x + 1, which in reversed order is
/// a right shift by 0, 1, 2 and 7 bits. The bits those shifts push out
/// are coefficients of x¹²⁸ and up again, so they are folded back in
/// first.
#[inline]
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn reduce([lo, mid, hi]: [__m128i; 3]) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<8>(mid));
    let hi = _mm_xor_si128(hi, _mm_srli_si128::<8>(mid));

    let lo_carry = _mm_srli_epi64::<63>(lo);
    let hi_carry = _mm_srli_epi64::<63>(hi);
    let lo = _mm_or_si128(_mm_slli_epi64::<1>(lo), _mm_slli_si128::<8>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi64::<1>(hi), _mm_slli_si128::<8>(hi_carry)),
        _mm_srli_si128::<8>(lo_carry),
    );

    let spill = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi64::<63>(lo), _mm_slli_epi64::<62>(lo)),
        _mm_slli_epi64::<57>(lo),
    );
    let d = _mm_xor_si128(lo, _mm_slli_si128::<8>(spill));
    let s1 = _mm_or_si128(
        _mm_srli_epi64::<1>(d),
        _mm_srli_si128::<8>(_mm_slli_epi64::<63>(d)),
    );
    let s2 = _mm_or_si128(
        _mm_srli_epi64::<2>(d),
        _mm_srli_si128::<8>(_mm_slli_epi64::<62>(d)),
    );
    let s7 = _mm_or_si128(
        _mm_srli_epi64::<7>(d),
        _mm_srli_si128::<8>(_mm_slli_epi64::<57>(d)),
    );
    _mm_xor_si128(
        hi,
        _mm_xor_si128(_mm_xor_si128(d, s1), _mm_xor_si128(s2, s7)),
    )
}

/// Absorbs `data`, zero-padded to whole blocks, into the GHASH state `y`.
#[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1")]
fn ghash(h_powers: &[u128; H_POWERS], y: u128, data: &[u8]) -> u128 {
    let h1 = load(h_powers[0]);
    let h2 = load(h_powers[1]);
    let h3 = load(h_powers[2]);
    let h4 = load(h_powers[3]);
    let mut y = load(y);
    let mut quads = data.chunks_exact(4 * BLOCK_LEN);
    for quad in &mut quads {
        let b0 = _mm_xor_si128(y, load_ghash_block(&quad[..BLOCK_LEN]));
        let b1 = load_ghash_block(&quad[BLOCK_LEN..2 * BLOCK_LEN]);
        let b2 = load_ghash_block(&quad[2 * BLOCK_LEN..3 * BLOCK_LEN]);
        let b3 = load_ghash_block(&quad[3 * BLOCK_LEN..]);
        y = reduce(xor3(
            xor3(clmul(b0, h4), clmul(b1, h3)),
            xor3(clmul(b2, h2), clmul(b3, h1)),
        ));
    }
    for chunk in quads.remainder().chunks(BLOCK_LEN) {
        let mut block = [0u8; BLOCK_LEN];
        block[..chunk.len()].copy_from_slice(chunk);
        y = reduce(clmul(_mm_xor_si128(y, load_ghash_block(&block)), h1));
    }
    store(y)
}

/// The 256-bit loops: two blocks per ymm register, one per 128-bit lane,
/// block `2j` of a step in the low lane of register `j`.
#[cfg(all(
    target_feature = "vaes",
    target_feature = "vpclmulqdq",
    target_feature = "avx2"
))]
mod wide {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_aesenc_epi128, _mm256_aesenclast_epi128,
        _mm256_broadcastsi128_si256, _mm256_castsi256_si128, _mm256_clmulepi64_epi128,
        _mm256_extracti128_si256, _mm256_set_epi32, _mm256_set_m128i, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_xor_si256, _mm256_zextsi128_si256, _mm_insert_epi32,
        _mm_xor_si128,
    };

    use super::{load, load_block, reduce, store, H_POWERS, REVERSE};
    use crate::aes::BLOCK_LEN;

    /// Blocks per step: 16 counter blocks per CTR step, 16 blocks per
    /// GHASH reduction.
    const STEP_BLOCKS: usize = 16;
    /// Bytes per step.
    const STEP: usize = STEP_BLOCKS * BLOCK_LEN;
    /// Registers per step.
    const REGS: usize = STEP_BLOCKS / 2;

    /// The `PSHUFB` mask that moves a native-order `u32` in bytes 12..16
    /// to big-endian order there and clears bytes 0..12.
    const BE_COUNTER: u128 = 0x0c0d_0e0f_8080_8080_8080_8080_8080_8080;

    /// The same 128-bit value in both lanes.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn both(x: __m128i) -> __m256i {
        _mm256_broadcastsi128_si256(x)
    }

    /// Loads two blocks in memory order.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn load_pair(pair: &[u8]) -> __m256i {
        _mm256_set_m128i(
            load_block(&pair[BLOCK_LEN..]),
            load_block(&pair[..BLOCK_LEN]),
        )
    }

    /// The inverse of [`load_pair`].
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn store_pair(pair: &mut [u8], x: __m256i) {
        let (lo, hi) = pair.split_at_mut(BLOCK_LEN);
        lo.copy_from_slice(&store(_mm256_castsi256_si128(x)).to_le_bytes());
        hi.copy_from_slice(&store(_mm256_extracti128_si256::<1>(x)).to_le_bytes());
    }

    /// A register of two blocks as two GHASH elements
    /// (`u128::from_be_bytes` of each block).
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn ghash_order(x: __m256i) -> __m256i {
        _mm256_shuffle_epi8(x, both(load(REVERSE)))
    }

    /// The round keys, each in both lanes.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn registers(round_keys: &[u128; 11]) -> [__m256i; 11] {
        round_keys.map(|key| both(load(key)))
    }

    /// The powers of H for one step's fold: register `j` multiplies
    /// block `2j` by H^(16 − 2j) in its low lane and block `2j + 1` by
    /// H^(15 − 2j) in its high lane.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn fold_powers(h_powers: &[u128; H_POWERS]) -> [__m256i; REGS] {
        let mut powers = [_mm256_setzero_si256(); REGS];
        for (j, power) in powers.iter_mut().enumerate() {
            let low = load(h_powers[STEP_BLOCKS - 1 - 2 * j]);
            let high = load(h_powers[STEP_BLOCKS - 2 - 2 * j]);
            *power = _mm256_set_m128i(high, low);
        }
        powers
    }

    /// CTR state: the nonce with its counter bytes cleared, XORed with
    /// round key 0, and the step's first counter in bytes 12..16 of the
    /// low lane (native order) and that counter + 1 in the high lane.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn counters(k: &[__m256i; 11], icb: [u8; BLOCK_LEN], ctr: u32) -> (__m256i, __m256i) {
        let nonce = _mm_insert_epi32::<3>(load(u128::from_le_bytes(icb)), 0);
        let nonce_k0 = _mm256_xor_si256(both(nonce), k[0]);
        let next = ctr.wrapping_add(1);
        (
            nonce_k0,
            _mm256_set_epi32(next as i32, 0, 0, 0, ctr as i32, 0, 0, 0),
        )
    }

    /// Encrypts the 16 counter blocks `nonce || ctr + i` of one step,
    /// `ctrs` as [`counters`] returns it. `_mm256_add_epi32` wraps each
    /// counter mod 2³², as `inc32` defines.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn keystream(k: &[__m256i; 11], nonce_k0: __m256i, ctrs: __m256i) -> [__m256i; REGS] {
        let be = both(load(BE_COUNTER));
        let mut b = [_mm256_setzero_si256(); REGS];
        for (j, block) in b.iter_mut().enumerate() {
            let step = (2 * j) as i32;
            let ctr = _mm256_add_epi32(ctrs, _mm256_set_epi32(step, 0, 0, 0, step, 0, 0, 0));
            *block = _mm256_xor_si256(nonce_k0, _mm256_shuffle_epi8(ctr, be));
        }
        for key in &k[1..10] {
            for block in &mut b {
                *block = _mm256_aesenc_epi128(*block, *key);
            }
        }
        for block in &mut b {
            *block = _mm256_aesenclast_epi128(*block, k[10]);
        }
        b
    }

    /// Moves `ctrs` on by one step.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn advance(ctrs: __m256i) -> __m256i {
        let step = STEP_BLOCKS as i32;
        _mm256_add_epi32(ctrs, _mm256_set_epi32(step, 0, 0, 0, step, 0, 0, 0))
    }

    /// `icb` with its counter moved on past the whole steps of `len`
    /// bytes: the counter block of the bytes the 128-bit loop finishes.
    fn tail_icb(mut icb: [u8; BLOCK_LEN], ctr: u32, len: usize) -> [u8; BLOCK_LEN] {
        // Counter blocks wrap in their low 32 bits (inc32).
        let blocks = (len / STEP * STEP_BLOCKS) as u32;
        icb[12..].copy_from_slice(&ctr.wrapping_add(blocks).to_be_bytes());
        icb
    }

    /// `y` absorbs one step of GHASH elements with one reduction:
    /// `(y ⊕ b₀)·H¹⁶ ⊕ b₁·H¹⁵ ⊕ … ⊕ b₁₅·H`.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn fold(powers: &[__m256i; REGS], y: __m128i, blocks: &[__m256i; REGS]) -> __m128i {
        // The products that do not depend on `y` are summed first, so
        // the chain from one step's `y` to the next is one product long.
        let mut sum = clmul(blocks[1], powers[1]);
        for (block, power) in blocks.iter().zip(powers).skip(2) {
            sum = xor3(sum, clmul(*block, *power));
        }
        let first = _mm256_xor_si256(blocks[0], _mm256_zextsi128_si256(y));
        sum = xor3(sum, clmul(first, powers[0]));
        // The lanes' sums add up to the step's product.
        reduce(
            sum.map(|x| _mm_xor_si128(_mm256_castsi256_si128(x), _mm256_extracti128_si256::<1>(x))),
        )
    }

    /// [`super::clmul`] in each lane.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn clmul(a: __m256i, b: __m256i) -> [__m256i; 3] {
        [
            _mm256_clmulepi64_epi128::<0x00>(a, b),
            _mm256_xor_si256(
                _mm256_clmulepi64_epi128::<0x01>(a, b),
                _mm256_clmulepi64_epi128::<0x10>(a, b),
            ),
            _mm256_clmulepi64_epi128::<0x11>(a, b),
        ]
    }

    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn xor3(a: [__m256i; 3], b: [__m256i; 3]) -> [__m256i; 3] {
        [
            _mm256_xor_si256(a[0], b[0]),
            _mm256_xor_si256(a[1], b[1]),
            _mm256_xor_si256(a[2], b[2]),
        ]
    }

    /// XORs one step's keystream `ks` into `step`, returning the
    /// ciphertext as GHASH elements.
    #[inline]
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    fn encrypt_step(step: &mut [u8], ks: [__m256i; REGS]) -> [__m256i; REGS] {
        let mut blocks = [_mm256_setzero_si256(); REGS];
        for ((pair, ks), block) in step
            .chunks_exact_mut(2 * BLOCK_LEN)
            .zip(ks)
            .zip(blocks.iter_mut())
        {
            let ct = _mm256_xor_si256(load_pair(pair), ks);
            store_pair(pair, ct);
            *block = ghash_order(ct);
        }
        blocks
    }

    /// XORs the CTR keystream starting at counter block `icb` into `data`.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    pub(super) fn ctr_xor(round_keys: &[u128; 11], icb: [u8; BLOCK_LEN], data: &mut [u8]) {
        let k = registers(round_keys);
        let ctr = u32::from_be_bytes([icb[12], icb[13], icb[14], icb[15]]);
        let (nonce_k0, mut ctrs) = counters(&k, icb, ctr);
        let len = data.len();
        let mut steps = data.chunks_exact_mut(STEP);
        for step in &mut steps {
            let ks = keystream(&k, nonce_k0, ctrs);
            for (pair, ks) in step.chunks_exact_mut(2 * BLOCK_LEN).zip(ks) {
                store_pair(pair, _mm256_xor_si256(load_pair(pair), ks));
            }
            ctrs = advance(ctrs);
        }
        let tail = steps.into_remainder();
        if !tail.is_empty() {
            super::ctr_xor(round_keys, tail_icb(icb, ctr, len), tail);
        }
    }

    /// Absorbs `data`, zero-padded to whole blocks, into the GHASH state `y`.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    pub(super) fn ghash(h_powers: &[u128; H_POWERS], y: u128, data: &[u8]) -> u128 {
        let powers = fold_powers(h_powers);
        let mut y = load(y);
        let mut steps = data.chunks_exact(STEP);
        for step in &mut steps {
            let mut blocks = [_mm256_setzero_si256(); REGS];
            for (block, pair) in blocks.iter_mut().zip(step.chunks_exact(2 * BLOCK_LEN)) {
                *block = ghash_order(load_pair(pair));
            }
            y = fold(&powers, y, &blocks);
        }
        super::ghash(h_powers, store(y), steps.remainder())
    }

    /// A seal's one pass: XORs the CTR keystream starting at `icb` into
    /// `data` and absorbs the ciphertext, zero-padded to whole blocks,
    /// into the GHASH state `y`. Each step's ciphertext stays in
    /// registers and is folded while the next step's AES rounds run.
    #[target_feature(enable = "aes,pclmulqdq,ssse3,sse4.1,avx2,vaes,vpclmulqdq")]
    pub(super) fn ctr_ghash(
        round_keys: &[u128; 11],
        h_powers: &[u128; H_POWERS],
        icb: [u8; BLOCK_LEN],
        y: u128,
        data: &mut [u8],
    ) -> u128 {
        let k = registers(round_keys);
        let powers = fold_powers(h_powers);
        let ctr = u32::from_be_bytes([icb[12], icb[13], icb[14], icb[15]]);
        let (nonce_k0, mut ctrs) = counters(&k, icb, ctr);
        let mut y = load(y);
        let len = data.len();
        let mut steps = data.chunks_exact_mut(STEP);
        if let Some(first) = steps.next() {
            let mut pending = encrypt_step(first, keystream(&k, nonce_k0, ctrs));
            for step in &mut steps {
                ctrs = advance(ctrs);
                let ks = keystream(&k, nonce_k0, ctrs);
                y = fold(&powers, y, &pending);
                pending = encrypt_step(step, ks);
            }
            y = fold(&powers, y, &pending);
        }
        let tail = steps.into_remainder();
        if tail.is_empty() {
            return store(y);
        }
        super::ctr_xor(round_keys, tail_icb(icb, ctr, len), tail);
        super::ghash(h_powers, store(y), tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;
    use crate::gcm::{AesGcm, SoftwareGcm, KERNEL, NONCE_LEN, TAG_LEN};
    use crate::{hex_decode, hex_encode};
    use proptest::prelude::*;

    fn hw(key: &[u8; KEY_LEN]) -> HwGcmKey {
        <HwGcmKey as GcmKernel>::new(key)
    }

    /// The keystream the bitsliced cipher gives for counter blocks
    /// `icb, inc32(icb), …`: the expected output of `ctr` on zeros.
    fn bitsliced_keystream(key: &[u8; KEY_LEN], icb: [u8; BLOCK_LEN], len: usize) -> Vec<u8> {
        let cipher = Aes128::new(key);
        let first = u32::from_be_bytes([icb[12], icb[13], icb[14], icb[15]]);
        let mut out = Vec::with_capacity(len + BLOCK_LEN);
        let mut j = 0u32;
        while out.len() < len {
            let mut counter = icb;
            counter[12..].copy_from_slice(&first.wrapping_add(j).to_be_bytes());
            out.extend_from_slice(&cipher.encrypt(&counter));
            j += 1;
        }
        out.truncate(len);
        out
    }

    #[test]
    fn build_selects_the_hardware_kernels() {
        // 11 round keys and 16 powers of H with the 256-bit loops, 4
        // powers without.
        if WIDE {
            assert_eq!(KERNEL, "vaes+vpclmulqdq");
            assert_eq!(std::mem::size_of::<HwGcmKey>(), 432);
        } else {
            assert_eq!(KERNEL, "aes-ni+pclmulqdq");
            assert_eq!(std::mem::size_of::<HwGcmKey>(), 240);
        }
    }

    #[test]
    fn fips197_and_sp800_38a_ecb_vectors() {
        // FIPS 197 Appendix C.1 and Appendix B, then SP 800-38A F.1.1
        // ECB-AES128.Encrypt, on AESENC by name and on the bitsliced
        // cipher by name.
        let cases = [
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        for (key, pt, ct) in cases {
            let key: [u8; KEY_LEN] = hex_decode(key).try_into().unwrap();
            let pt: [u8; BLOCK_LEN] = hex_decode(pt).try_into().unwrap();
            assert_eq!(hex_encode(&hw(&key).encrypt_block(&pt)), ct, "aes-ni");
            assert_eq!(hex_encode(&Aes128::new(&key).encrypt(&pt)), ct, "bitsliced");
        }
    }

    #[test]
    fn ctr_step_straddles_the_32_bit_counter_wrap() {
        // The counter wraps from 0xFFFF_FFFF to 0 after `before` blocks:
        // at every block position of a first and a second 16-block step
        // (and so of every eight-block step), in the wide loops and in
        // the tails. The wrap must leave the nonce bytes alone.
        let key = [0x5a; KEY_LEN];
        let kernel = hw(&key);
        for before in 1..=32u32 {
            let mut icb = [0xa5; BLOCK_LEN];
            icb[12..].copy_from_slice(&0u32.wrapping_sub(before).to_be_bytes());
            for len in [1, 16, 100, 128, 129, 200, 256, 300, 512, 527, 600] {
                let mut data = vec![0u8; len];
                kernel.ctr(icb, &mut data);
                let expected = bitsliced_keystream(&key, icb, len);
                assert_eq!(data, expected, "wrap after {before} blocks, len {len}");
            }
        }
    }

    #[test]
    fn ghash_matches_shoup_tables_at_every_length_to_1024() {
        // Up to four 256-byte (16-block) steps, each followed by every
        // tail: every remainder mod 16 (the zero-padded tail), mod 64
        // (the blocks after the last four-block fold) and mod 256 (the
        // bytes after the last 16-block fold).
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for key in [[0u8; KEY_LEN], [0x42; KEY_LEN], *b"0123456789abcdef"] {
            let (hw, sw) = (hw(&key), SoftwareGcm::new(key));
            for y in [0u128, u128::MAX, 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210] {
                for len in 0..=data.len() {
                    assert_eq!(
                        hw.ghash(y, &data[..len]),
                        GcmKernel::ghash(&sw, y, &data[..len]),
                        "len {len}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_aes_block_matches_bitsliced(
            key in any::<[u8; KEY_LEN]>(),
            block in any::<[u8; BLOCK_LEN]>(),
        ) {
            prop_assert_eq!(hw(&key).encrypt_block(&block), Aes128::new(&key).encrypt(&block));
        }

        #[test]
        fn prop_ctr_keystream_matches_bitsliced(
            key in any::<[u8; KEY_LEN]>(),
            nonce in any::<[u8; NONCE_LEN]>(),
            before_wrap in 1u32..=32,
            far in any::<u32>(),
            wrap in any::<bool>(),
            len in 0usize..600,
        ) {
            // With `wrap`, the counter wraps after `before_wrap` blocks:
            // at any block position of the first two 16-block steps.
            let mut icb = [0u8; BLOCK_LEN];
            icb[..NONCE_LEN].copy_from_slice(&nonce);
            let first = if wrap { 0u32.wrapping_sub(before_wrap) } else { far };
            icb[12..].copy_from_slice(&first.to_be_bytes());
            let mut data = vec![0u8; len];
            hw(&key).ctr(icb, &mut data);
            prop_assert_eq!(data, bitsliced_keystream(&key, icb, len));
        }

        #[test]
        fn prop_ghash_matches_shoup_tables(
            key in any::<[u8; KEY_LEN]>(),
            y in any::<[u8; BLOCK_LEN]>(),
            data in proptest::collection::vec(any::<u8>(), 0..1025),
        ) {
            let y = u128::from_be_bytes(y);
            let sw = SoftwareGcm::new(key);
            prop_assert_eq!(hw(&key).ghash(y, &data), GcmKernel::ghash(&sw, y, &data));
        }

        #[test]
        fn prop_seal_open_match_software_gcm(
            key in any::<[u8; KEY_LEN]>(),
            nonce in any::<[u8; NONCE_LEN]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..65),
            pt in proptest::collection::vec(any::<u8>(), 0..1101),
            flip in any::<usize>(),
            bit in 0u8..8,
        ) {
            let aead = AesGcm::new(key);
            let sealed = aead.seal(&nonce, &aad, &pt);
            prop_assert_eq!(&sealed, &SoftwareGcm::new(key).seal(&nonce, &aad, &pt));
            prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), pt.clone());

            let mut bad_tag = sealed.clone();
            bad_tag[pt.len() + flip % TAG_LEN] ^= 1 << bit;
            prop_assert!(aead.open(&nonce, &aad, &bad_tag).is_err());
            if !pt.is_empty() {
                let mut bad_ct = sealed.clone();
                bad_ct[flip % pt.len()] ^= 1 << bit;
                prop_assert!(aead.open(&nonce, &aad, &bad_ct).is_err());
            }
        }
    }
}
