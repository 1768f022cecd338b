//! Per-primitive **crypto kernel** microbench: MB/s for the sealed-data
//! hot path, three arms per kernel:
//!
//! - **reference**: the byte-serial implementations retained under
//!   mig-crypto's `reference` feature (scalar SBOX AES, 4-bit GHASH,
//!   rolled SHA-256);
//! - **software**: the multi-block software kernels (bitsliced AES-CTR,
//!   8-bit Shoup GHASH with the H² pair fold, unrolled SHA-256), which
//!   are the portable fallback, called by name whatever the build selected;
//! - **selected**: the kernels `AesGcm` and `Sha256` run on in this build,
//!   named by `mig_crypto::gcm::KERNEL` and `mig_crypto::sha256::KERNEL`
//!   (VAES + VPCLMULQDQ or AES-NI + PCLMULQDQ, and SHA-NI, when the build
//!   targets them, else the software kernels again).
//!
//! ```sh
//! cargo run -p mig-bench --release --bin crypto_kernels
//! CRYPTO_KERNELS_MIB=16 cargo run -p mig-bench --release --bin crypto_kernels
//! ```
//!
//! Kernels: **aes_ctr** (CTR keystream XOR), **ghash** (block
//! absorption), **sha256** (whole-buffer digest), and **seal** / **open**
//! (end-to-end AES-128-GCM). The reference `open` arm reruns the reference
//! seal, which has the same primitive mix.
//!
//! Every arm runs once per round over the same `CRYPTO_KERNELS_MIB` MiB
//! buffer (default 8), and the [`ROUNDS`] rounds interleave the arms, so
//! host drift lands on all arms alike. Each arm reports the
//! median and the minimum time over the rounds, and MB/s at the median.
//! Results land in `BENCH_crypto.json` (override with
//! `CRYPTO_KERNELS_JSON_PATH`) together with the selected kernel names and
//! `host_cores`; CI uploads the file as an artifact so kernel-level
//! regressions are visible per commit without re-running the full
//! migration throughput bench.

use mig_crypto::aes::{reference::ScalarAes128, BLOCK_LEN};
use mig_crypto::gcm::{self, reference as ghash_ref, AesGcm, SoftwareGcm};
use mig_crypto::sha256::{self, reference::sha256_rolled, sha256_software};
use std::time::Instant;

/// The three arms of every kernel, in report order.
const ARMS: [&str; 3] = ["reference", "software", "selected"];
/// The measured kernels, in report order.
const KERNELS: [&str; 5] = ["aes_ctr", "ghash", "sha256", "seal", "open"];
/// Rounds per arm.
const ROUNDS: usize = 5;

const KEY: [u8; 16] = [0x21; 16];
const NONCE: [u8; 12] = [7; 12];
const AAD: &[u8] = b"bench.aad";

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / secs
}

fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Keys, tables and buffers for every arm, built once so the rounds time
/// only the kernels.
struct Fixture {
    data: Vec<u8>,
    /// The CTR arms' in-place buffer.
    ctr_buf: Vec<u8>,
    /// The seal arms' output buffer, reused so rounds after the first
    /// time the kernel rather than page faults.
    seal_buf: Vec<u8>,
    scalar: ScalarAes128,
    table4: [u128; 16],
    software: SoftwareGcm,
    selected: AesGcm,
    sealed: Vec<u8>,
}

impl Fixture {
    fn new(data: Vec<u8>) -> Self {
        let scalar = ScalarAes128::new(&KEY);
        let h = u128::from_be_bytes(scalar.encrypt(&[0u8; BLOCK_LEN]));
        let selected = AesGcm::new(KEY);
        let sealed = selected.seal(&NONCE, AAD, &data);
        Fixture {
            ctr_buf: data.clone(),
            seal_buf: Vec::with_capacity(sealed.len()),
            data,
            scalar,
            table4: ghash_ref::build_htable_4bit(h),
            software: SoftwareGcm::new(KEY),
            selected,
            sealed,
        }
    }

    /// Runs one arm of one kernel once.
    fn run(&mut self, kernel: &str, arm: &str) {
        let icb = [0u8; BLOCK_LEN];
        match (kernel, arm) {
            ("aes_ctr", "reference") => {
                let mut counter = icb;
                for chunk in self.ctr_buf.chunks_mut(BLOCK_LEN) {
                    let ks = self.scalar.encrypt(&counter);
                    for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                        *d ^= k;
                    }
                    let c = u32::from_be_bytes(counter[12..].try_into().expect("4 bytes"));
                    counter[12..].copy_from_slice(&c.wrapping_add(1).to_be_bytes());
                }
            }
            ("aes_ctr", "software") => self.software.apply_keystream(icb, &mut self.ctr_buf),
            ("aes_ctr", _) => self.selected.apply_keystream(icb, &mut self.ctr_buf),
            ("ghash", "reference") => {
                let mut y = 0u128;
                for chunk in self.data.chunks_exact(BLOCK_LEN) {
                    let block = u128::from_be_bytes(chunk.try_into().expect("exact block"));
                    y = ghash_ref::gf_mul_4bit(y ^ block, &self.table4);
                }
                std::hint::black_box(y);
            }
            ("ghash", "software") => {
                std::hint::black_box(self.software.ghash(0, &self.data));
            }
            ("ghash", _) => {
                std::hint::black_box(self.selected.ghash(0, &self.data));
            }
            ("sha256", "reference") => {
                std::hint::black_box(sha256_rolled(&self.data));
            }
            ("sha256", "software") => {
                std::hint::black_box(sha256_software(&self.data));
            }
            ("sha256", _) => {
                std::hint::black_box(sha256::sha256(&self.data));
            }
            ("seal" | "open", "reference") => {
                std::hint::black_box(seal_reference(KEY, &NONCE, AAD, &self.data));
            }
            ("seal", "software") => {
                self.seal_buf.clear();
                self.seal_buf.extend_from_slice(&self.data);
                self.software
                    .seal_in_place(&NONCE, AAD, &mut self.seal_buf, 0);
            }
            ("seal", _) => {
                self.seal_buf.clear();
                self.seal_buf.extend_from_slice(&self.data);
                self.selected
                    .seal_in_place(&NONCE, AAD, &mut self.seal_buf, 0);
            }
            ("open", "software") => {
                let opened = self.software.open(&NONCE, AAD, &self.sealed);
                std::hint::black_box(opened.expect("tag verifies"));
            }
            _ => {
                let opened = self.selected.open(&NONCE, AAD, &self.sealed);
                std::hint::black_box(opened.expect("tag verifies"));
            }
        }
    }
}

/// Seal with the pre-kernel construction: scalar AES CTR one block at a
/// time + 4-bit GHASH, assembled from the reference oracles — the exact
/// bytes and work profile of the previous production `AesGcm::seal`.
fn seal_reference(key: [u8; 16], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let cipher = ScalarAes128::new(&key);
    let h = u128::from_be_bytes(cipher.encrypt(&[0u8; BLOCK_LEN]));
    let htable = ghash_ref::build_htable_4bit(h);

    let mut j0 = [0u8; BLOCK_LEN];
    j0[..12].copy_from_slice(nonce);
    j0[BLOCK_LEN - 1] = 1;

    let inc32 = |block: &mut [u8; BLOCK_LEN]| {
        let c = u32::from_be_bytes(block[12..].try_into().expect("4 bytes"));
        block[12..].copy_from_slice(&c.wrapping_add(1).to_be_bytes());
    };

    let mut out = plaintext.to_vec();
    let mut counter = j0;
    inc32(&mut counter);
    for chunk in out.chunks_mut(BLOCK_LEN) {
        let ks = cipher.encrypt(&counter);
        for (d, k) in chunk.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        inc32(&mut counter);
    }

    let mut y = 0u128;
    for data in [aad, &out[..]] {
        for chunk in data.chunks(BLOCK_LEN) {
            let mut block = [0u8; BLOCK_LEN];
            block[..chunk.len()].copy_from_slice(chunk);
            y = ghash_ref::gf_mul_4bit(y ^ u128::from_be_bytes(block), &htable);
        }
    }
    let mut len_block = [0u8; BLOCK_LEN];
    len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
    len_block[8..].copy_from_slice(&((out.len() as u64) * 8).to_be_bytes());
    y = ghash_ref::gf_mul_4bit(y ^ u128::from_be_bytes(len_block), &htable);

    let ekj0 = cipher.encrypt(&j0);
    let mut tag = y.to_be_bytes();
    for (t, k) in tag.iter_mut().zip(ekj0.iter()) {
        *t ^= k;
    }
    out.extend_from_slice(&tag);
    out
}

fn main() {
    let mib: usize = std::env::var("CRYPTO_KERNELS_MIB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut data = vec![0u8; mib * 1024 * 1024];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    let bytes = data.len();
    let mut fixture = Fixture::new(data);

    println!(
        "=== Crypto kernels ({mib} MiB per arm, {ROUNDS} rounds, {host_cores} cores; \
         selected: gcm {}, sha256 {}) ===\n",
        gcm::KERNEL,
        sha256::KERNEL
    );
    // secs[kernel][arm][round]
    let mut secs = vec![vec![Vec::with_capacity(ROUNDS); ARMS.len()]; KERNELS.len()];
    for _ in 0..ROUNDS {
        for (k, kernel) in KERNELS.iter().enumerate() {
            for (a, arm) in ARMS.iter().enumerate() {
                let start = Instant::now();
                fixture.run(kernel, arm);
                secs[k][a].push(start.elapsed().as_secs_f64());
            }
        }
    }

    println!(
        "{:<8} {:>22} {:>22} {:>22}",
        "kernel", "reference MB/s", "software MB/s", "selected MB/s"
    );
    let mut rows = Vec::new();
    for (kernel, per_arm) in KERNELS.iter().zip(secs.iter_mut()) {
        let mut line = format!("{kernel:<8}");
        let mut arms = Vec::new();
        for (arm, samples) in ARMS.iter().zip(per_arm.iter_mut()) {
            samples.sort_by(f64::total_cmp);
            let (med, min) = (median(samples), samples[0]);
            let rate = mb_per_s(bytes, med);
            line.push_str(&format!(
                " {:>13.1} (best {:>5.0})",
                rate,
                mb_per_s(bytes, min)
            ));
            arms.push(format!(
                "\"{arm}\": {{\"median_ms\": {:.3}, \"min_ms\": {:.3}, \"mb_per_s\": {:.1}}}",
                med * 1e3,
                min * 1e3,
                rate
            ));
        }
        println!("{line}");
        rows.push(format!(
            "    {{\"kernel\": \"{kernel}\", {}}}",
            arms.join(", ")
        ));
    }

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"crypto_kernels\",\n  \"mib\": {},\n  \"rounds\": {},\n",
            "  \"host_cores\": {},\n  \"selected\": {{\"gcm\": \"{}\", \"sha256\": \"{}\"}},\n",
            "  \"kernels\": [\n{}\n  ]\n}}\n"
        ),
        mib,
        ROUNDS,
        host_cores,
        gcm::KERNEL,
        sha256::KERNEL,
        rows.join(",\n")
    );
    let path = std::env::var("CRYPTO_KERNELS_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_crypto.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
