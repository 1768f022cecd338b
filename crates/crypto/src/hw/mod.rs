//! Hardware kernels: AES-128 on AES-NI or VAES, GHASH on PCLMULQDQ or
//! VPCLMULQDQ, SHA-256 on SHA-NI.
//!
//! This is the only module of the crate that may use `unsafe`, and it
//! needs it for one reason. The kernels are `#[target_feature]`
//! functions, in which the `core::arch` intrinsics are safe to call; but
//! calling a `#[target_feature]` function from an ordinary function is an
//! `unsafe` operation even when the build enables the feature (E0133). So
//! every kernel sits behind a safe wrapper that makes exactly one
//! `unsafe` call, and its `// SAFETY:` comment names the `cfg` that
//! guarantees the instructions exist.
//!
//! Selection is at compile time and only by `cfg(target_feature)`:
//!
//! * [`gcm`] is compiled when the build targets `aes`, `pclmulqdq`,
//!   `ssse3` and `sse4.1`, and [`crate::gcm::AesGcm`] then runs on it;
//!   its 256-bit loops are compiled when the build also targets `vaes`,
//!   `vpclmulqdq` and `avx2`;
//! * [`sha256`] is compiled when the build targets `sha`, `ssse3` and
//!   `sse4.1`, and [`crate::sha256::Sha256`] then runs on it.
//!
//! The workspace's `.cargo/config.toml` builds with `target-cpu=native`,
//! which enables all of them on a CPU that has them. Any other build
//! leaves these modules out and runs the software kernels, which stay in
//! every build as the oracle the tests pin these kernels to.
//!
//! No raw pointer is read or written here: bytes move between memory and
//! vector registers as `u128` values, through `_mm_set_epi64x` on the way
//! in and `_mm_cvtsi128_si64` / `_mm_extract_epi64` on the way out (two
//! per ymm register, joined by `_mm256_set_m128i` and split by
//! `_mm256_extracti128_si256`); LLVM merges them into single vector
//! loads and stores.
//! Unlike the software GHASH, whose Shoup tables are indexed by bytes of
//! key- and data-dependent values, none of these instructions has a
//! key- or data-dependent memory access or timing.

#![allow(unsafe_code)]

#[cfg(all(
    target_feature = "aes",
    target_feature = "pclmulqdq",
    target_feature = "ssse3",
    target_feature = "sse4.1"
))]
pub(crate) mod gcm;

#[cfg(all(
    target_feature = "sha",
    target_feature = "ssse3",
    target_feature = "sse4.1"
))]
pub(crate) mod sha256;
