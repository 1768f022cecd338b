//! What the benchmark reads from the host rather than from the program:
//! process CPU time and page faults (`getrusage`), the
//! host-drift probe, and the seeded input generator.

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads `struct rusage` with the 64-bit Linux layout");

/// A `getrusage(RUSAGE_SELF)` reading of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU time of every thread, including exited ones.
    pub cpu: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Minor page faults (fresh or reclaimed pages mapped in).
    pub minflt: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn timeval(tv: &Timeval) -> Duration {
    let micros = tv.sec.max(0) as u64 * 1_000_000 + tv.usec.max(0) as u64;
    Duration::from_micros(micros)
}

impl Usage {
    /// Reads the process's resource usage now.
    ///
    /// # Panics
    ///
    /// Panics if `getrusage` fails, which it cannot with `RUSAGE_SELF`
    /// and a valid buffer.
    #[must_use]
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a live, exclusively borrowed `struct rusage` in
        // the 64-bit Linux layout (checked by the `compile_error!` gate
        // above); `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let user = timeval(&ru.utime);
        let sys = timeval(&ru.stime);
        Usage {
            cpu: user + sys,
            sys,
            minflt: ru.minflt.max(0) as u64,
        }
    }
}

/// Iterations of the probe loop: about 5 ms on a 2-vCPU x86-64 host.
const PROBE_ITERS: u64 = 4_000_000;

/// Times one pass of a compute-only loop that belongs to the benchmark,
/// not to the program: no allocation, no memory traffic, no program
/// code. Comparing its time at the start and end of a run, and across
/// runs, separates host drift from a change in the program.
#[must_use]
pub fn probe() -> Duration {
    let start = Instant::now();
    let mut rng = SplitMix64::new(std::hint::black_box(0x5EED));
    let mut acc = 0u64;
    for _ in 0..PROBE_ITERS {
        acc = acc.rotate_left(5) ^ rng.next_u64();
    }
    std::hint::black_box(acc);
    start.elapsed()
}

/// SplitMix64: the seeded generator behind every input the benchmark
/// makes (datacenter seeds, key order, fill bytes, values).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// One pseudo-random byte.
    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}
