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
//! CRYPTO_KERNELS_KIB=1024 cargo run -p mig-bench --release --bin crypto_kernels
//! ```
//!
//! Kernels: **aes_ctr** (CTR keystream XOR), **ghash** (block
//! absorption), **sha256** (whole-buffer digest), and **seal** / **open**
//! (end-to-end AES-128-GCM). The reference `open` arm reruns the reference
//! seal, which has the same primitive mix.
//!
//! The public-key operations of enclave launch and local attestation get
//! µs-per-op rows with two arms, **reference** (the oracles retained under
//! the `reference` feature) and **selected** (what `mig-crypto` runs):
//! **x25519_base** (an X25519 public key: the ladder from u = 9 against
//! the fixed-base comb), **x25519** (a Diffie–Hellman step: the ladder
//! finished by Fermat inversion against the addition chain),
//! **ed25519_sign** (`[r]B` by double-and-add against the comb) and
//! **ed25519_verify** (two double-and-add passes against one Straus pass).
//!
//! Every arm runs once per round over the same `CRYPTO_KERNELS_KIB` KiB
//! buffer (default 256, a stream chunk that stays in L2, so the hardware
//! arms time the kernels rather than memory bandwidth), and the
//! [`ROUNDS`] rounds interleave the arms, so host drift lands on all arms
//! alike. No timed arm allocates: the in-place arms work on fixture
//! buffers that are restored between rounds, outside the timing. Each arm
//! reports the median and the minimum time over the rounds, and MB/s at
//! the median; a curve arm times [`CURVE_OPS_PER_ROUND`] calls per
//! round and reports µs per call. Results land in `BENCH_crypto.json`
//! (override with `CRYPTO_KERNELS_JSON_PATH`) together with the selected
//! kernel names and `host_cores`; CI uploads the file as an artifact so
//! kernel-level regressions are visible per commit without re-running a
//! migration bench.

use mig_crypto::aes::{reference::ScalarAes128, BLOCK_LEN};
use mig_crypto::ed25519::{self, Signature, SigningKey, VerifyingKey};
use mig_crypto::gcm::{self, reference as ghash_ref, AesGcm, SoftwareGcm};
use mig_crypto::sha256::{self, reference::sha256_rolled, sha256_software};
use mig_crypto::x25519::{self, PublicKey, StaticSecret};
use std::time::Instant;

/// The three arms of every kernel, in report order.
const ARMS: [&str; 3] = ["reference", "software", "selected"];
/// The measured kernels, in report order.
const KERNELS: [&str; 5] = ["aes_ctr", "ghash", "sha256", "seal", "open"];
/// Rounds per arm.
const ROUNDS: usize = 15;
/// The two arms of every curve operation, in report order.
const CURVE_ARMS: [&str; 2] = ["reference", "selected"];
/// The measured curve operations, in report order.
const CURVE_OPS: [&str; 4] = ["x25519_base", "x25519", "ed25519_sign", "ed25519_verify"];
/// Calls per curve arm per round.
const CURVE_OPS_PER_ROUND: usize = 16;

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
    /// The in-place seal and open arms' buffer, with room for the tag.
    gcm_buf: Vec<u8>,
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
            gcm_buf: Vec::with_capacity(sealed.len()),
            data,
            scalar,
            table4: ghash_ref::build_htable_4bit(h),
            software: SoftwareGcm::new(KEY),
            selected,
            sealed,
        }
    }

    /// Restores the in-place buffer `kernel`'s arms start from, outside
    /// the timing: the plaintext for the seals, the sealed buffer for
    /// the opens. Copies into a buffer whose capacity already fits, so
    /// nothing is allocated.
    fn prepare(&mut self, kernel: &str) {
        let start = if kernel == "open" {
            &self.sealed
        } else {
            &self.data
        };
        self.gcm_buf.clear();
        self.gcm_buf.extend_from_slice(start);
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
            ("seal", "reference") => seal_reference(KEY, &NONCE, AAD, &mut self.gcm_buf),
            // The open arm's buffer holds `ciphertext || tag`; the
            // reference reseals the ciphertext (same primitive mix).
            ("open", "reference") => {
                self.gcm_buf.truncate(self.data.len());
                seal_reference(KEY, &NONCE, AAD, &mut self.gcm_buf);
            }
            ("seal", "software") => self
                .software
                .seal_in_place(&NONCE, AAD, &mut self.gcm_buf, 0),
            ("seal", _) => self
                .selected
                .seal_in_place(&NONCE, AAD, &mut self.gcm_buf, 0),
            ("open", "software") => self
                .software
                .open_in_place(&NONCE, AAD, &mut self.gcm_buf, 0)
                .expect("tag verifies"),
            _ => self
                .selected
                .open_in_place(&NONCE, AAD, &mut self.gcm_buf, 0)
                .expect("tag verifies"),
        }
        std::hint::black_box(&self.gcm_buf);
    }
}

/// Seals `out` in place with the pre-kernel construction: scalar AES CTR
/// one block at a time + 4-bit GHASH, assembled from the reference
/// oracles — the exact bytes and work profile of the previous production
/// `AesGcm::seal`. The tag is appended in `out`'s spare capacity.
fn seal_reference(key: [u8; 16], nonce: &[u8; 12], aad: &[u8], out: &mut Vec<u8>) {
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
}

/// Keys, a message and its signature for the curve arms.
struct CurveFixture {
    secret: StaticSecret,
    peer: PublicKey,
    signing: SigningKey,
    verifying: VerifyingKey,
    signature: Signature,
}

/// The signed message: 64 bytes, the size of a digest pair.
const CURVE_MSG: &[u8] = &[0x5a; 64];

impl CurveFixture {
    fn new() -> Self {
        let signing = SigningKey::from_seed([0x17; 32]);
        CurveFixture {
            secret: StaticSecret::from_bytes([0x42; 32]),
            peer: StaticSecret::from_bytes([0x24; 32]).public_key(),
            verifying: signing.verifying_key(),
            signature: signing.sign(CURVE_MSG),
            signing,
        }
    }

    /// Runs one arm of one curve operation once.
    fn run(&self, op: &str, arm: &str) {
        let reference = arm == "reference";
        match op {
            "x25519_base" if reference => {
                std::hint::black_box(x25519::reference::public_key(&self.secret));
            }
            "x25519_base" => {
                std::hint::black_box(self.secret.public_key());
            }
            "x25519" if reference => {
                std::hint::black_box(x25519::reference::diffie_hellman(&self.secret, &self.peer));
            }
            "x25519" => {
                std::hint::black_box(self.secret.diffie_hellman(&self.peer));
            }
            "ed25519_sign" if reference => {
                std::hint::black_box(ed25519::reference::sign(&self.signing, CURVE_MSG));
            }
            "ed25519_sign" => {
                std::hint::black_box(self.signing.sign(CURVE_MSG));
            }
            _ if reference => {
                ed25519::reference::verify(&self.verifying, CURVE_MSG, &self.signature)
                    .expect("signature verifies")
            }
            _ => self
                .verifying
                .verify(CURVE_MSG, &self.signature)
                .expect("signature verifies"),
        }
    }
}

/// Times every curve arm over [`ROUNDS`] interleaved rounds, prints its
/// table and returns its JSON rows.
fn curve_rows() -> Vec<String> {
    let fixture = CurveFixture::new();
    // Warm-up: the comb table and the curve constants are built on first
    // use, once per process.
    for op in CURVE_OPS {
        for arm in CURVE_ARMS {
            fixture.run(op, arm);
        }
    }
    // secs[op][arm][round], per call
    let mut secs = vec![vec![Vec::with_capacity(ROUNDS); CURVE_ARMS.len()]; CURVE_OPS.len()];
    for _ in 0..ROUNDS {
        for (o, op) in CURVE_OPS.iter().enumerate() {
            for (a, arm) in CURVE_ARMS.iter().enumerate() {
                let start = Instant::now();
                for _ in 0..CURVE_OPS_PER_ROUND {
                    fixture.run(op, arm);
                }
                secs[o][a].push(start.elapsed().as_secs_f64() / CURVE_OPS_PER_ROUND as f64);
            }
        }
    }

    println!(
        "\n{:<15} {:>22} {:>22} {:>9}",
        "curve op", "reference µs", "selected µs", "speed-up"
    );
    let mut rows = Vec::new();
    for (op, per_arm) in CURVE_OPS.iter().zip(secs.iter_mut()) {
        let mut line = format!("{op:<15}");
        let mut arms = Vec::new();
        let mut medians = Vec::new();
        for (arm, samples) in CURVE_ARMS.iter().zip(per_arm.iter_mut()) {
            samples.sort_by(f64::total_cmp);
            let (med, min) = (median(samples) * 1e6, samples[0] * 1e6);
            line.push_str(&format!(" {med:>13.1} (best {min:>5.1})"));
            arms.push(format!(
                "\"{arm}\": {{\"median_us\": {med:.2}, \"min_us\": {min:.2}}}"
            ));
            medians.push(med);
        }
        println!("{line} {:>8.2}×", medians[0] / medians[1]);
        rows.push(format!("    {{\"op\": \"{op}\", {}}}", arms.join(", ")));
    }
    rows
}

fn main() {
    let kib: usize = std::env::var("CRYPTO_KERNELS_KIB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut data = vec![0u8; kib * 1024];
    for (i, b) in data.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    let bytes = data.len();
    let mut fixture = Fixture::new(data);

    println!(
        "=== Crypto kernels ({kib} KiB per arm, {ROUNDS} rounds, {host_cores} cores; \
         selected: gcm {}, sha256 {}) ===\n",
        gcm::KERNEL,
        sha256::KERNEL
    );
    // secs[kernel][arm][round]
    let mut secs = vec![vec![Vec::with_capacity(ROUNDS); ARMS.len()]; KERNELS.len()];
    for _ in 0..ROUNDS {
        for (k, kernel) in KERNELS.iter().enumerate() {
            for (a, arm) in ARMS.iter().enumerate() {
                fixture.prepare(kernel);
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

    let curve = curve_rows();

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"crypto_kernels\",\n  \"kib\": {},\n  \"rounds\": {},\n",
            "  \"host_cores\": {},\n  \"selected\": {{\"gcm\": \"{}\", \"sha256\": \"{}\"}},\n",
            "  \"kernels\": [\n{}\n  ],\n",
            "  \"curve_ops_per_round\": {},\n  \"curve\": [\n{}\n  ]\n}}\n"
        ),
        kib,
        ROUNDS,
        host_cores,
        gcm::KERNEL,
        sha256::KERNEL,
        rows.join(",\n"),
        CURVE_OPS_PER_ROUND,
        curve.join(",\n")
    );
    let path = std::env::var("CRYPTO_KERNELS_JSON_PATH")
        .unwrap_or_else(|_| "BENCH_crypto.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}
