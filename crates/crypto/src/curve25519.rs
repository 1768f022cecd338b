//! Shared Curve25519 arithmetic: the field GF(2^255 - 19), the edwards25519
//! point group, and scalars modulo the group order L.
//!
//! Crate-internal; [`crate::x25519`] and [`crate::ed25519`] build the public
//! APIs on top. Field elements use five 51-bit limbs with `u128`
//! intermediates; additions leave their carries in the limbs for the next
//! multiplication to absorb (see [`Fe`] for the bounds). Inversion and
//! square roots run the standard addition chain of 254 squarings and 11
//! multiplications; the curve constants `d` and `sqrt(-1)` are *computed*
//! from first principles at first use rather than hard-coded.
//!
//! Two point multiplications serve the public APIs:
//!
//! * `[k]B` for a secret `k` ([`EdwardsPoint::mul_base`]): a signed
//!   radix-16 comb over a static table of 32 × 8 affine-Niels multiples of
//!   B, 64 mixed additions and 4 doublings, each table entry read by masked
//!   selection, so neither branches nor memory accesses depend on `k`;
//! * `[a]A + [b]B` for public scalars
//!   ([`EdwardsPoint::vartime_double_scalar_mul_base`]): one Straus pass
//!   over width-5 and width-4 non-adjacent forms, sharing its ~253
//!   doublings between the two scalars. Variable-time, for verification.

use std::sync::OnceLock;

const MASK51: u64 = (1 << 51) - 1;

/// 16p limb by limb: what [`Fe::sub`] adds so that no limb underflows.
const SIXTEEN_P: [u64; 5] = [
    16 * ((1 << 51) - 19),
    16 * MASK51,
    16 * MASK51,
    16 * MASK51,
    16 * MASK51,
];

/// [`Fe::mul`] and [`Fe::square`] accept limbs below this bound.
const MUL_BOUND: u64 = 1 << 56;

/// An element of GF(2^255 - 19) in five 51-bit limbs.
///
/// Limbs are not kept reduced. `mul`, `square`, `mul_small`, `from_bytes`
/// and `from_u64` leave every limb below 2^52. `add` adds limbs without
/// carrying, and `sub` adds 16p to its left side first, so a sum's limb
/// bound is the sum of its inputs' bounds, and a difference's is the left
/// bound plus 2^55. `sub` needs each right-side limb at most the matching
/// limb of 16p (anything below 2^55 − 304 is). `mul` and `square` accept
/// limbs below 2^56 (`MUL_BOUND`), which keeps every product sum below
/// 2^119; the point formulas order their additions to stay under it, and
/// debug builds assert both bounds. `to_bytes`, the only way out, accepts
/// any limbs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fe(pub(crate) [u64; 5]);

impl Fe {
    pub(crate) const ZERO: Fe = Fe([0; 5]);
    pub(crate) const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    pub(crate) fn from_u64(v: u64) -> Fe {
        // Split a small integer across the first two limbs.
        Fe([v & MASK51, v >> 51, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes, ignoring the top bit (bit 255),
    /// as RFC 7748 / RFC 8032 specify.
    pub(crate) fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let w = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        let (w0, w1, w2, w3) = (w(0), w(1), w(2), w(3));
        Fe([
            w0 & MASK51,
            ((w0 >> 51) | (w1 << 13)) & MASK51,
            ((w1 >> 38) | (w2 << 26)) & MASK51,
            ((w2 >> 25) | (w3 << 39)) & MASK51,
            (w3 >> 12) & MASK51,
        ])
    }

    /// Serializes to the unique canonical 32-byte little-endian encoding.
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        // Fully carry so that limbs are below 2^51.
        let mut l = reduce_wide([
            self.0[0] as u128,
            self.0[1] as u128,
            self.0[2] as u128,
            self.0[3] as u128,
            self.0[4] as u128,
        ])
        .0;
        // A second pass leaves limb 1 strictly below 2^51 as well.
        let c = l[1] >> 51;
        l[1] &= MASK51;
        l[2] += c;
        let c = l[2] >> 51;
        l[2] &= MASK51;
        l[3] += c;
        let c = l[3] >> 51;
        l[3] &= MASK51;
        l[4] += c;
        let c = l[4] >> 51;
        l[4] &= MASK51;
        l[0] += 19 * c;
        let c = l[0] >> 51;
        l[0] &= MASK51;
        l[1] += c;

        // Canonicalize: subtract p exactly when the value is >= p, detected
        // by whether adding 19 carries all the way out of bit 255.
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        l[0] += 19 * q;
        let c = l[0] >> 51;
        l[0] &= MASK51;
        l[1] += c;
        let c = l[1] >> 51;
        l[1] &= MASK51;
        l[2] += c;
        let c = l[2] >> 51;
        l[2] &= MASK51;
        l[3] += c;
        let c = l[3] >> 51;
        l[3] &= MASK51;
        l[4] += c;
        l[4] &= MASK51; // drop the 2^255 carry: value is now reduced mod p

        let w0 = l[0] | (l[1] << 51);
        let w1 = (l[1] >> 13) | (l[2] << 38);
        let w2 = (l[2] >> 26) | (l[3] << 25);
        let w3 = (l[3] >> 39) | (l[4] << 12);
        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&w0.to_le_bytes());
        out[8..16].copy_from_slice(&w1.to_le_bytes());
        out[16..24].copy_from_slice(&w2.to_le_bytes());
        out[24..32].copy_from_slice(&w3.to_le_bytes());
        out
    }

    /// Limb-wise sum, no carries (see [`Fe`] for the bounds).
    pub(crate) fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (&self.0, &rhs.0);
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// `self + 16p - rhs` limb by limb, no carries; every `rhs` limb must
    /// be at most the matching limb of 16p.
    pub(crate) fn sub(self, rhs: Fe) -> Fe {
        debug_assert!(
            rhs.0.iter().zip(SIXTEEN_P).all(|(&l, p)| l <= p),
            "sub: right-side limb above 16p"
        );
        let (a, b, p) = (&self.0, &rhs.0, &SIXTEEN_P);
        Fe([
            a[0] + p[0] - b[0],
            a[1] + p[1] - b[1],
            a[2] + p[2] - b[2],
            a[3] + p[3] - b[3],
            a[4] + p[4] - b[4],
        ])
    }

    pub(crate) fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    fn below_mul_bound(self) -> bool {
        self.0.iter().all(|&l| l < MUL_BOUND)
    }

    /// Product; both inputs' limbs below 2^56.
    pub(crate) fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.below_mul_bound() && rhs.below_mul_bound());
        let (a, b) = (&self.0, &rhs.0);
        let m = |x: u64, y: u64| x as u128 * y as u128;
        // 2^255 = 19 (mod p): the limbs that wrap past limb 4 come back
        // times 19, folded into `b` first (19 · 2^56 < 2^61).
        let (b1, b2, b3, b4) = (19 * b[1], 19 * b[2], 19 * b[3], 19 * b[4]);
        let c0 = m(a[0], b[0]) + m(a[1], b4) + m(a[2], b3) + m(a[3], b2) + m(a[4], b1);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4) + m(a[3], b3) + m(a[4], b2);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4) + m(a[4], b3);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        reduce_wide([c0, c1, c2, c3, c4])
    }

    /// `self * self` in 15 products instead of 25: each cross product
    /// appears once, doubled.
    pub(crate) fn square(self) -> Fe {
        debug_assert!(self.below_mul_bound());
        let a = &self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (a3_19, a4_19) = (19 * a[3], 19 * a[4]);
        let (d0, d1, d2, d3) = (2 * a[0], 2 * a[1], 2 * a[2], 2 * a[3]);
        let c0 = m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19);
        let c1 = m(d0, a[1]) + m(d2, a4_19) + m(a[3], a3_19);
        let c2 = m(d0, a[2]) + m(a[1], a[1]) + m(d3, a4_19);
        let c3 = m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19);
        let c4 = m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]);
        reduce_wide([c0, c1, c2, c3, c4])
    }

    /// `self^(2^k)`: `k` squarings.
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Product with a small constant; accepts any limbs.
    pub(crate) fn mul_small(self, k: u32) -> Fe {
        let m = |l: u64| l as u128 * k as u128;
        let a = &self.0;
        reduce_wide([m(a[0]), m(a[1]), m(a[2]), m(a[3]), m(a[4])])
    }

    /// Returns `(self^(2^250 - 1), self^11)`, the common head of the
    /// inversion and square-root chains: 249 squarings, 10 multiplies.
    fn pow22501(self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2).mul(self); // 9
        let t0 = t0.mul(t1); // 11
        let t1 = t1.mul(t0.square()); // 2^5 - 1
        let t1 = t1.pow2k(5).mul(t1); // 2^10 - 1
        let t2 = t1.pow2k(10).mul(t1); // 2^20 - 1
        let t2 = t2.pow2k(20).mul(t2); // 2^40 - 1
        let t1 = t2.pow2k(10).mul(t1); // 2^50 - 1
        let t2 = t1.pow2k(50).mul(t1); // 2^100 - 1
        let t2 = t2.pow2k(100).mul(t2); // 2^200 - 1
        let t1 = t2.pow2k(50).mul(t1); // 2^250 - 1
        (t1, t0)
    }

    /// Multiplicative inverse via Fermat, self^(p-2), by the addition
    /// chain: p - 2 = (2^250 - 1)·2^5 + 11. Inverse of zero is zero.
    pub(crate) fn invert(self) -> Fe {
        let (t, x11) = self.pow22501();
        t.pow2k(5).mul(x11)
    }

    /// self^((p-5)/8), the core of the square-root computation:
    /// (p - 5)/8 = 2^252 - 3 = (2^250 - 1)·2^2 + 1.
    fn pow_p58(self) -> Fe {
        let (t, _) = self.pow22501();
        t.pow2k(2).mul(self)
    }

    pub(crate) fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// "Negative" per RFC 8032: the canonical encoding is odd.
    pub(crate) fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    pub(crate) fn ct_eq(self, rhs: Fe) -> bool {
        crate::ct::ct_eq(&self.to_bytes(), &rhs.to_bytes())
    }

    /// Branch-free conditional swap, used by the Montgomery ladder.
    pub(crate) fn cswap(swap: bool, a: &mut Fe, b: &mut Fe) {
        let mask = ct_mask(swap);
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }

    /// Branch-free conditional move: `self = other` when `mask` is all
    /// ones ([`ct_mask`]), unchanged when it is zero.
    fn cmov(&mut self, other: &Fe, mask: u64) {
        for (s, o) in self.0.iter_mut().zip(other.0) {
            *s ^= mask & (*s ^ o);
        }
    }
}

/// All ones when `choice`, else zero, hidden from the optimizer. When
/// LLVM can prove a mask is 0 or all ones, it compiles the masked moves
/// and swaps that mask drives into branches on the secret: a jump table
/// over a comb row, a branch per ladder step, a compare-and-branch per
/// step of `mod_l_wide`.
fn ct_mask(choice: bool) -> u64 {
    std::hint::black_box(u64::from(choice).wrapping_neg())
}

/// The retained generic exponentiation, the oracle the addition chains are
/// tested against (and the reference arm of the `crypto_kernels` bench).
#[cfg(any(test, feature = "reference"))]
impl Fe {
    /// Generic square-and-multiply exponentiation with a little-endian
    /// 32-byte exponent. Variable-time in the exponent.
    pub(crate) fn pow(self, exp_le: &[u8; 32]) -> Fe {
        let mut acc = Fe::ONE;
        for i in (0..256).rev() {
            acc = acc.square();
            if (exp_le[i / 8] >> (i % 8)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// `self^(p-2)` by [`Fe::pow`]: the inversion before the addition
    /// chain.
    pub(crate) fn invert_fermat(self) -> Fe {
        // p - 2 = 2^255 - 21
        let mut exp = [0xffu8; 32];
        exp[0] = 0xeb;
        exp[31] = 0x7f;
        self.pow(&exp)
    }
}

/// Carries a wide (post-multiplication) limb vector back into weakly
/// reduced form: every output limb below 2^52.
fn reduce_wide(mut t: [u128; 5]) -> Fe {
    const M: u128 = MASK51 as u128;
    t[1] += t[0] >> 51;
    t[0] &= M;
    t[2] += t[1] >> 51;
    t[1] &= M;
    t[3] += t[2] >> 51;
    t[2] &= M;
    t[4] += t[3] >> 51;
    t[3] &= M;
    t[0] += 19 * (t[4] >> 51);
    t[4] &= M;
    t[1] += t[0] >> 51;
    t[0] &= M;
    Fe([
        t[0] as u64,
        t[1] as u64,
        t[2] as u64,
        t[3] as u64,
        t[4] as u64,
    ])
}

/// Computes `sqrt(u/v)` if it exists: returns `r` with `r^2 * v = u`.
///
/// Returns `None` when `u/v` is not a square.
fn sqrt_ratio(u: Fe, v: Fe, sqrt_m1: Fe) -> Option<Fe> {
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let r = u.mul(v3).mul(u.mul(v7).pow_p58());
    let check = v.mul(r.square());
    if check.ct_eq(u) {
        Some(r)
    } else if check.add(u).is_zero() {
        // check == -u: the root is off by a factor sqrt(-1).
        Some(r.mul(sqrt_m1))
    } else {
        None
    }
}

/// Lazily computed curve constants.
pub(crate) struct Consts {
    /// Edwards curve constant d = -121665/121666.
    pub(crate) d: Fe,
    /// 2d, used by the extended-coordinate addition formulas.
    pub(crate) d2: Fe,
    /// A square root of -1 (mod p).
    pub(crate) sqrt_m1: Fe,
    /// The edwards25519 base point B (y = 4/5, x positive... even).
    pub(crate) base: EdwardsPoint,
}

pub(crate) fn consts() -> &'static Consts {
    static CONSTS: OnceLock<Consts> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let d = Fe::from_u64(121665)
            .neg()
            .mul(Fe::from_u64(121666).invert());
        let d2 = d.add(d);
        // sqrt(-1) = 2^((p-1)/4), and (p-1)/4 = 2^253 - 5
        // = (2^250 - 1)·2^3 + 3, so it is (2^(2^250-1))^8 · 2^3.
        let sqrt_m1 = Fe::from_u64(2).pow22501().0.pow2k(3).mul(Fe::from_u64(8));
        debug_assert!(sqrt_m1.square().ct_eq(Fe::ONE.neg()));

        // Base point: y = 4/5, with the even (non-"negative") x.
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let mut base_bytes = y.to_bytes();
        base_bytes[31] &= 0x7f; // sign bit 0 selects the even x
        let base = EdwardsPoint::decompress_with(&base_bytes, d, sqrt_m1)
            .expect("base point must decompress");
        Consts {
            d,
            d2,
            sqrt_m1,
            base,
        }
    })
}

/// A point on edwards25519 in extended homogeneous coordinates
/// (X : Y : Z : T) with X*Y = Z*T.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdwardsPoint {
    pub(crate) x: Fe,
    pub(crate) y: Fe,
    pub(crate) z: Fe,
    pub(crate) t: Fe,
}

/// A point in projective coordinates (X : Y : Z), the input of a
/// doubling: the extended form without T, which a doubling never reads.
#[derive(Clone, Copy, Debug)]
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// A point in P¹ × P¹, ((X : Z), (Y : T)) with x = X/Z and y = Y/T: what
/// an addition or doubling yields before the multiplications that take it
/// back to extended (4) or projective (3) coordinates.
#[derive(Clone, Copy, Debug)]
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// (Y + X, Y − X, Z, 2d·T) of a point: the cached form of an addend that
/// is not in a table.
#[derive(Clone, Copy, Debug)]
struct ProjectiveNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// (y + x, y − x, 2d·x·y) of a point in affine coordinates (Z = 1): the
/// form of a comb table entry, one multiplication cheaper to add.
#[derive(Clone, Copy, Debug)]
struct AffineNiels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl ProjectivePoint {
    const IDENTITY: ProjectivePoint = ProjectivePoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
    };

    /// Doubling for a = -1 (dbl-2008-hwcd): 4 squarings.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let yy_plus_xx = yy.add(xx);
        CompletedPoint {
            x: self.x.add(self.y).square().sub(yy_plus_xx),
            y: yy_plus_xx,
            z: yy.sub(xx),
            // 2Z² − (Y² − X²), added before the subtraction so that the
            // right side stays below 16p.
            t: zz.add(zz).add(xx).sub(yy),
        }
    }
}

impl CompletedPoint {
    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }
}

impl ProjectiveNiels {
    fn neg(&self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl AffineNiels {
    const IDENTITY: AffineNiels = AffineNiels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn neg(&self) -> AffineNiels {
        AffineNiels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }

    fn cmov(&mut self, other: &AffineNiels, mask: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, mask);
        self.y_minus_x.cmov(&other.y_minus_x, mask);
        self.xy2d.cmov(&other.xy2d, mask);
    }

    /// `digit · row[0]` for a row `[P, 2P, …, 8P]` and a digit in
    /// [-8, 8], read without a branch or an index that depends on the
    /// digit: every entry is loaded and masked in.
    fn select(row: &[AffineNiels; 8], digit: i8) -> AffineNiels {
        let sign = (digit >> 7) as u8; // 0xff when negative, else 0
        let abs = (digit as u8 ^ sign).wrapping_sub(sign);
        let mut out = AffineNiels::IDENTITY;
        for (j, entry) in (1u8..).zip(row) {
            out.cmov(entry, ct_mask(abs == j));
        }
        let neg = out.neg();
        out.cmov(&neg, ct_mask(digit < 0));
        out
    }
}

/// Row `i` holds `[1..=8] · 256^i · B`, the multiples the comb's digits
/// `2i` and `2i + 1` select from; row 0 doubles as the odd multiples of B
/// the Straus pass needs. 32 × 8 entries of 120 bytes, 30 KiB, built on
/// first use into static storage, never the heap.
fn base_table() -> &'static [[AffineNiels; 8]; 32] {
    static TABLE: OnceLock<[[AffineNiels; 8]; 32]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[AffineNiels::IDENTITY; 8]; 32];
        let mut p = EdwardsPoint::base();
        for row in table.iter_mut() {
            let mut multiple = p;
            for entry in row.iter_mut() {
                *entry = multiple.to_affine_niels();
                multiple = multiple.add(&p);
            }
            p = p.mul_by_pow2(8);
        }
        table
    })
}

/// Signed radix-16 digits of a scalar below 2^255: `s = Σ e[i]·16^i`
/// with every `e[i]` in [-8, 8], computed without branches.
fn radix16(s: &[u8; 32]) -> [i8; 64] {
    debug_assert!(s[31] <= 127, "scalar must be below 2^255");
    let mut e = [0i8; 64];
    for (i, byte) in s.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    // Move each digit from [0, 15] into [-8, 7] and carry into the next.
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    e
}

/// Width-`w` non-adjacent form of a scalar below 2^255: every digit is
/// zero or odd with absolute value below 2^(w-1), and any `w` consecutive
/// digits hold at most one nonzero. Variable-time; for public scalars.
fn naf(s: &[u8; 32], w: usize) -> [i8; 256] {
    debug_assert!(s[31] <= 127, "scalar must be below 2^255");
    let mut limbs = [0u64; 5];
    for (limb, chunk) in limbs.iter_mut().zip(s.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
    }
    let width = 1u64 << w;
    let mut digits = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let bits = if bit + w <= 64 {
            limbs[idx] >> bit
        } else {
            (limbs[idx] >> bit) | (limbs[idx + 1] << (64 - bit))
        };
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // An even window starts with a zero digit; the carry rides on.
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            digits[pos] = window as i8;
        } else {
            carry = 1;
            digits[pos] = window as i8 - width as i8;
        }
        pos += w;
    }
    digits
}

impl EdwardsPoint {
    pub(crate) fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    pub(crate) fn base() -> EdwardsPoint {
        consts().base
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_projective_niels(self) -> ProjectiveNiels {
        ProjectiveNiels {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(consts().d2),
        }
    }

    fn to_affine_niels(self) -> AffineNiels {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        AffineNiels {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(consts().d2),
        }
    }

    /// `self + q` (add-2008-hwcd-3 for a = -1, complete): 4 multiplies
    /// before the conversion.
    fn add_niels(&self, q: &ProjectiveNiels) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let tt2d = self.t.mul(q.t2d);
        let zz = self.z.mul(q.z);
        let zz2 = zz.add(zz);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: zz2.add(tt2d),
            t: zz2.sub(tt2d),
        }
    }

    /// `self + q` for an affine `q`: [`EdwardsPoint::add_niels`] with
    /// `q.Z = 1`, 3 multiplies.
    fn add_affine(&self, q: &AffineNiels) -> CompletedPoint {
        let pp = self.y.add(self.x).mul(q.y_plus_x);
        let mm = self.y.sub(self.x).mul(q.y_minus_x);
        let txy2d = self.t.mul(q.xy2d);
        let z2 = self.z.add(self.z);
        CompletedPoint {
            x: pp.sub(mm),
            y: pp.add(mm),
            z: z2.add(txy2d),
            t: z2.sub(txy2d),
        }
    }

    /// Complete point addition.
    pub(crate) fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_niels(&other.to_projective_niels()).to_extended()
    }

    pub(crate) fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// `[2^k]self`: `k` doublings, through projective coordinates.
    fn mul_by_pow2(&self, k: u32) -> EdwardsPoint {
        debug_assert!(k > 0);
        let mut r = self.to_projective();
        for _ in 1..k {
            r = r.double().to_projective();
        }
        r.double().to_extended()
    }

    pub(crate) fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// `[k]B` for a scalar below 2^255 (the clamped secret scalars of
    /// Ed25519 and X25519 qualify, as does any scalar mod L), in constant
    /// time: with `k = Σ e[i]·16^i`, `[k]B = 16 · Σ_odd e[i]·16^(i-1)·B +
    /// Σ_even e[i]·16^i·B`, and `16^(2j)·B` is row `j` of the comb table.
    pub(crate) fn mul_base(k: &[u8; 32]) -> EdwardsPoint {
        let e = radix16(k);
        let table = base_table();
        let mut acc = EdwardsPoint::identity();
        for (row, pair) in table.iter().zip(e.chunks_exact(2)) {
            acc = acc
                .add_affine(&AffineNiels::select(row, pair[1]))
                .to_extended();
        }
        acc = acc.mul_by_pow2(4);
        for (row, pair) in table.iter().zip(e.chunks_exact(2)) {
            acc = acc
                .add_affine(&AffineNiels::select(row, pair[0]))
                .to_extended();
        }
        acc
    }

    /// `[a]A + [b]B` for public scalars below 2^255, `A = self`, in one
    /// variable-time Straus pass: A's odd multiples up to 15A are built
    /// per call (width-5 digits of `a`), B's up to 7B come from row 0 of
    /// the comb table (width-4 digits of `b`), and both scalars share one
    /// chain of doublings.
    pub(crate) fn vartime_double_scalar_mul_base(
        &self,
        a: &[u8; 32],
        b: &[u8; 32],
    ) -> EdwardsPoint {
        let a_naf = naf(a, 5);
        let b_naf = naf(b, 4);
        // [A, 3A, 5A, …, 15A]
        let mut a_odd = [self.to_projective_niels(); 8];
        let a2 = self.double().to_projective_niels();
        let mut multiple = *self;
        for entry in a_odd.iter_mut().skip(1) {
            multiple = multiple.add_niels(&a2).to_extended();
            *entry = multiple.to_projective_niels();
        }
        let b_row = &base_table()[0];

        let Some(mut i) = (0..256).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return EdwardsPoint::identity();
        };
        let mut r = ProjectivePoint::IDENTITY;
        loop {
            let mut t = r.double();
            let (da, db) = (a_naf[i], b_naf[i]);
            if da != 0 {
                let q = &a_odd[usize::from(da.unsigned_abs() / 2)];
                let q = if da > 0 { *q } else { q.neg() };
                t = t.to_extended().add_niels(&q);
            }
            if db != 0 {
                let q = &b_row[usize::from(db.unsigned_abs() - 1)];
                let q = if db > 0 { *q } else { q.neg() };
                t = t.to_extended().add_affine(&q);
            }
            if i == 0 {
                return t.to_extended();
            }
            r = t.to_projective();
            i -= 1;
        }
    }

    /// Compresses to the 32-byte RFC 8032 encoding (y with x-sign bit).
    pub(crate) fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut bytes = y.to_bytes();
        bytes[31] |= (x.is_negative() as u8) << 7;
        bytes
    }

    /// The Montgomery u-coordinate of the birationally equivalent point on
    /// Curve25519, u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y): B maps to u = 9.
    pub(crate) fn to_montgomery_u(self) -> [u8; 32] {
        self.z
            .add(self.y)
            .mul(self.z.sub(self.y).invert())
            .to_bytes()
    }

    /// Decompresses an RFC 8032 point encoding.
    pub(crate) fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let c = consts();
        Self::decompress_with(bytes, c.d, c.sqrt_m1)
    }

    // Split out so that `consts()` can decompress the base point while the
    // constants are still being initialized.
    fn decompress_with(bytes: &[u8; 32], d: Fe, sqrt_m1: Fe) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7 == 1;
        let y = Fe::from_bytes(bytes);
        // Reject non-canonical y encodings to make point decoding injective.
        let mut canonical = y.to_bytes();
        canonical[31] |= (sign as u8) << 7;
        if &canonical != bytes {
            return None;
        }
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = d.mul(y2).add(Fe::ONE);
        let mut x = sqrt_ratio(u, v, sqrt_m1)?;
        if x.is_zero() && sign {
            return None; // "negative zero" is invalid
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Projective equality: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
    pub(crate) fn ct_eq(&self, other: &EdwardsPoint) -> bool {
        let a = self.x.mul(other.z).ct_eq(other.x.mul(self.z));
        let b = self.y.mul(other.z).ct_eq(other.y.mul(self.z));
        a && b
    }
}

/// The retained bit-serial scalar multiplication, the oracle the comb and
/// the Straus pass are tested against.
#[cfg(any(test, feature = "reference"))]
impl EdwardsPoint {
    /// Scalar multiplication by a 256-bit little-endian scalar, plain
    /// double-and-add: branches on every scalar bit.
    pub(crate) fn scalar_mul(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for i in (0..256).rev() {
            acc = acc.double();
            if (scalar_le[i / 8] >> (i % 8)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// Scalars modulo the group order L = 2^252 + 27742317777372353535851937790883648493.
// ---------------------------------------------------------------------------

/// L as four little-endian u64 limbs.
const L_LIMBS: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// A scalar modulo L in canonical little-endian byte form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Scalar(pub(crate) [u8; 32]);

impl Scalar {
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) const ZERO: Scalar = Scalar([0u8; 32]);

    /// Reduces a 512-bit little-endian value modulo L.
    pub(crate) fn from_bytes_mod_order_wide(input: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (i, chunk) in input.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        }
        Scalar(limbs_to_bytes(&mod_l_wide(&limbs)))
    }

    /// Reduces a 256-bit little-endian value modulo L.
    pub(crate) fn from_bytes_mod_order(input: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(input);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Returns `true` iff `input` is already the canonical encoding of a
    /// scalar (i.e. strictly below L). RFC 8032 requires rejecting
    /// non-canonical `s` values in signatures (malleability).
    pub(crate) fn is_canonical(input: &[u8; 32]) -> bool {
        sub_l(&bytes_to_limbs(input)).1 == 1
    }

    /// (a * b + c) mod L — the core of Ed25519 signing.
    pub(crate) fn mul_add(a: &Scalar, b: &Scalar, c: &Scalar) -> Scalar {
        let al = bytes_to_limbs(&a.0);
        let bl = bytes_to_limbs(&b.0);
        let cl = bytes_to_limbs(&c.0);

        // Schoolbook 4x4 -> 8 limb multiply.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = prod[i + j] as u128 + al[i] as u128 * bl[j] as u128 + carry;
                prod[i + j] = v as u64;
                carry = v >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        // Add c (cannot overflow 512 bits: product < L^2 << 2^512).
        let mut carry: u128 = 0;
        for i in 0..8 {
            let add = if i < 4 { cl[i] as u128 } else { 0 };
            let v = prod[i] as u128 + add + carry;
            prod[i] = v as u64;
            carry = v >> 64;
        }
        Scalar(limbs_to_bytes(&mod_l_wide(&prod)))
    }

    pub(crate) fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

fn bytes_to_limbs(bytes: &[u8; 32]) -> [u64; 4] {
    let mut limbs = [0u64; 4];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
    }
    limbs
}

fn limbs_to_bytes(limbs: &[u64; 4]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, l) in limbs.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&l.to_le_bytes());
    }
    out
}

/// `r - L` over 4-limb little-endian values, and the final borrow: 1
/// exactly when `r < L`. No branches.
fn sub_l(r: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = r[i].overflowing_sub(L_LIMBS[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        out[i] = d;
        borrow = u64::from(b1 | b2);
    }
    (out, borrow)
}

/// Reduces a 512-bit value modulo L by binary long division.
///
/// The top 252 bits, `x >> 260`, are below L as they stand; the other 260
/// bits are shifted in one shift/subtract/select step each. Signing
/// reduces secret-derived values (the nonce `r` and `k·a + r`), so the
/// conditional subtraction is a mask, not a branch.
fn mod_l_wide(x: &[u64; 8]) -> [u64; 4] {
    let mut r = [0u64; 4];
    for (j, limb) in r.iter_mut().enumerate() {
        *limb = (x[4 + j] >> 4) | x.get(5 + j).map_or(0, |&high| high << 60);
    }
    for i in (0..260).rev() {
        // r = (r << 1) | bit_i(x); r stays < 2L < 2^254 so no overflow.
        let mut carry = (x[i / 64] >> (i % 64)) & 1;
        for limb in r.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        debug_assert_eq!(carry, 0);
        // Keep r when r - L borrows, else take r - L.
        let (d, borrow) = sub_l(&r);
        let keep = ct_mask(borrow == 1);
        for (limb, d) in r.iter_mut().zip(d) {
            *limb = (*limb & keep) | (d & !keep);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;
    use proptest::prelude::*;

    #[test]
    fn field_one_plus_one_is_two() {
        let two = Fe::ONE.add(Fe::ONE);
        assert!(two.ct_eq(Fe::from_u64(2)));
    }

    #[test]
    fn field_sub_wraps_correctly() {
        // 0 - 1 == p - 1, whose canonical encoding is p-1 = 2^255 - 20.
        let minus_one = Fe::ZERO.sub(Fe::ONE);
        let bytes = minus_one.to_bytes();
        assert_eq!(bytes[0], 0xec); // 2^255 - 20 ends in ...ec
        assert_eq!(bytes[31], 0x7f);
        // And -1 + 1 == 0.
        assert!(minus_one.add(Fe::ONE).is_zero());
    }

    #[test]
    fn field_mul_matches_known_small_values() {
        let a = Fe::from_u64(1234567890123456789);
        let b = Fe::from_u64(987654321);
        let prod = a.mul(b);
        // 1234567890123456789 * 987654321 < 2^120, verify via u128.
        let expected = 1234567890123456789u128 * 987654321u128;
        let mut expect_bytes = [0u8; 32];
        expect_bytes[..16].copy_from_slice(&expected.to_le_bytes());
        assert_eq!(prod.to_bytes(), expect_bytes);
    }

    #[test]
    fn field_invert_round_trips() {
        for v in [1u64, 2, 3, 19, 121665, u64::MAX] {
            let x = Fe::from_u64(v);
            assert!(x.mul(x.invert()).ct_eq(Fe::ONE), "v = {v}");
        }
    }

    #[test]
    fn field_canonical_encoding_reduces_p_to_zero() {
        // p itself must encode as zero.
        let p_limbs = Fe([(1 << 51) - 19, MASK51, MASK51, MASK51, MASK51]);
        assert!(p_limbs.is_zero());
        // p + 1 must encode as one.
        assert!(p_limbs.add(Fe::ONE).ct_eq(Fe::ONE));
    }

    #[test]
    fn field_from_bytes_ignores_high_bit() {
        let mut bytes = [0u8; 32];
        bytes[0] = 5;
        bytes[31] = 0x80;
        assert!(Fe::from_bytes(&bytes).ct_eq(Fe::from_u64(5)));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let c = consts();
        assert!(c.sqrt_m1.square().ct_eq(Fe::ONE.neg()));
    }

    #[test]
    fn d_constant_matches_reference() {
        // RFC 8032: d = 370957059346694393431380835087545651895421138798432190163887855330\
        // 85940283555; its canonical little-endian hex is well known.
        assert_eq!(
            hex_encode(&consts().d.to_bytes()),
            "a3785913ca4deb75abd841414d0a700098e879777940c78c73fe6f2bee6c0352"
        );
    }

    #[test]
    fn base_point_compresses_to_rfc_encoding() {
        let expected = "5866666666666666666666666666666666666666666666666666666666666666";
        assert_eq!(hex_encode(&EdwardsPoint::base().compress()), expected);
    }

    #[test]
    fn base_point_has_order_dividing_l() {
        // [L]B == identity.
        let l_bytes = limbs_to_bytes(&L_LIMBS);
        let lb = EdwardsPoint::base().scalar_mul(&l_bytes);
        assert!(lb.ct_eq(&EdwardsPoint::identity()));
    }

    #[test]
    fn point_add_is_consistent_with_double() {
        let b = EdwardsPoint::base();
        assert!(b.add(&b).ct_eq(&b.double()));
        let b4a = b.double().double();
        let b4b = b.add(&b).add(&b).add(&b);
        assert!(b4a.ct_eq(&b4b));
    }

    #[test]
    fn point_neg_cancels() {
        let b = EdwardsPoint::base();
        assert!(b.add(&b.neg()).ct_eq(&EdwardsPoint::identity()));
    }

    #[test]
    fn compress_decompress_round_trip() {
        let mut p = EdwardsPoint::base();
        for _ in 0..16 {
            let c = p.compress();
            let q = EdwardsPoint::decompress(&c).expect("valid point");
            assert!(p.ct_eq(&q));
            p = p.add(&EdwardsPoint::base());
        }
    }

    #[test]
    fn decompress_rejects_invalid_points() {
        // y = 2 gives a non-square x^2 on edwards25519.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        assert!(EdwardsPoint::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // Encode p + 1 (non-canonical form of 1).
        let mut bytes = [0u8; 32];
        bytes[0] = 0xee; // p + 1 = 2^255 - 18, little-endian starts 0xee
        for b in bytes.iter_mut().take(31).skip(1) {
            *b = 0xff;
        }
        bytes[31] = 0x7f;
        assert!(EdwardsPoint::decompress(&bytes).is_none());
    }

    #[test]
    fn scalar_mod_l_of_l_is_zero() {
        let l_bytes = limbs_to_bytes(&L_LIMBS);
        assert_eq!(Scalar::from_bytes_mod_order(&l_bytes), Scalar::ZERO);
        assert!(!Scalar::is_canonical(&l_bytes));
        let mut l_minus_1 = l_bytes;
        l_minus_1[0] -= 1;
        assert!(Scalar::is_canonical(&l_minus_1));
    }

    #[test]
    fn scalar_mul_add_small_values() {
        let two = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            b[0] = 2;
            b
        });
        let three = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            b[0] = 3;
            b
        });
        let seven = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            b[0] = 7;
            b
        });
        // 2*3 + 7 = 13
        let r = Scalar::mul_add(&two, &three, &seven);
        let mut expect = [0u8; 32];
        expect[0] = 13;
        assert_eq!(r.0, expect);
    }

    #[test]
    fn scalar_wide_reduction_matches_iterated_reduction() {
        // (2^256) mod L computed two ways.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let direct = Scalar::from_bytes_mod_order_wide(&wide);

        // 2^256 mod L == (2^255 mod L) * 2 mod L. Compute via mul_add.
        let mut half = [0u8; 32];
        half[31] = 0x80; // 2^255
        let half_reduced = Scalar::from_bytes_mod_order(&half);
        let two = Scalar::from_bytes_mod_order(&{
            let mut b = [0u8; 32];
            b[0] = 2;
            b
        });
        let indirect = Scalar::mul_add(&half_reduced, &two, &Scalar::ZERO);
        assert_eq!(direct, indirect);
    }

    #[test]
    fn scalar_mul_distributes_over_point_add() {
        // [2]B + [3]B == [5]B
        let b = EdwardsPoint::base();
        let mut s2 = [0u8; 32];
        s2[0] = 2;
        let mut s3 = [0u8; 32];
        s3[0] = 3;
        let mut s5 = [0u8; 32];
        s5[0] = 5;
        let sum = b.scalar_mul(&s2).add(&b.scalar_mul(&s3));
        assert!(sum.ct_eq(&b.scalar_mul(&s5)));
    }

    /// Edge scalars below 2^255: 0, 1, L-1, L, L+1, 2^254 and 2^255 - 8.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let l = limbs_to_bytes(&L_LIMBS);
        let (mut l_minus_1, mut l_plus_1) = (l, l);
        l_minus_1[0] -= 1;
        l_plus_1[0] += 1;
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut two_254 = [0u8; 32];
        two_254[31] = 0x40;
        let mut top = [0xffu8; 32];
        top[0] = 0xf8;
        top[31] = 0x7f;
        vec![[0u8; 32], one, l_minus_1, l, l_plus_1, two_254, top]
    }

    #[test]
    fn comb_matches_double_and_add_on_edge_scalars() {
        let b = EdwardsPoint::base();
        for k in edge_scalars() {
            assert!(
                EdwardsPoint::mul_base(&k).ct_eq(&b.scalar_mul(&k)),
                "k = {}",
                hex_encode(&k)
            );
        }
    }

    #[test]
    fn straus_matches_double_and_add_on_edge_scalars() {
        let b = EdwardsPoint::base();
        let point = b.double().add(&b); // 3B
        for k in edge_scalars() {
            for s in edge_scalars() {
                let oracle = point.scalar_mul(&k).add(&b.scalar_mul(&s));
                assert!(
                    point.vartime_double_scalar_mul_base(&k, &s).ct_eq(&oracle),
                    "a = {}, b = {}",
                    hex_encode(&k),
                    hex_encode(&s)
                );
            }
        }
    }

    /// `mod_l_wide` with a branching compare and subtract: the oracle
    /// for the masked one.
    fn mod_l_wide_branching(x: &[u64; 8]) -> [u64; 4] {
        fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
            for i in (0..4).rev() {
                if a[i] != b[i] {
                    return a[i] < b[i];
                }
            }
            false
        }
        let mut r = [0u64; 4];
        for i in (0..512).rev() {
            let mut carry = (x[i / 64] >> (i % 64)) & 1;
            for limb in r.iter_mut() {
                let new_carry = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = new_carry;
            }
            if !lt(&r, &L_LIMBS) {
                let mut borrow: i128 = 0;
                for (limb, l) in r.iter_mut().zip(L_LIMBS) {
                    let v = *limb as i128 - l as i128 + borrow;
                    if v < 0 {
                        *limb = (v + (1i128 << 64)) as u64;
                        borrow = -1;
                    } else {
                        *limb = v as u64;
                        borrow = 0;
                    }
                }
            }
        }
        r
    }

    /// Five limbs from 40 random bytes, each below `1 << bits`.
    fn limbs(bytes: &[u8; 40], bits: u32) -> Fe {
        let mut l = [0u64; 5];
        for (limb, chunk) in l.iter_mut().zip(bytes.chunks_exact(8)) {
            *limb = u64::from_le_bytes(chunk.try_into().unwrap()) >> (64 - bits);
        }
        Fe(l)
    }

    /// The exponent (p - 5)/8 = 2^252 - 3.
    fn p58_exponent() -> [u8; 32] {
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfd;
        exp[31] = 0x0f;
        exp
    }

    #[test]
    fn addition_chains_match_fermat_at_zero_and_one() {
        for x in [Fe::ZERO, Fe::ONE] {
            assert_eq!(x.invert().to_bytes(), x.invert_fermat().to_bytes());
            assert_eq!(x.pow_p58().to_bytes(), x.pow(&p58_exponent()).to_bytes());
        }
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn mul_at_the_limb_bound_matches_reduced_inputs() {
        // Every limb at 2^56 - 1, the largest `mul` and `square` accept.
        let top = Fe([MUL_BOUND - 1; 5]);
        let reduced = Fe::from_bytes(&top.to_bytes());
        assert_eq!(top.mul(top).to_bytes(), reduced.mul(reduced).to_bytes());
        assert_eq!(top.square().to_bytes(), reduced.square().to_bytes());
        // And the largest right side `sub` accepts.
        let sixteen_p = Fe(SIXTEEN_P);
        assert!(top.sub(sixteen_p).ct_eq(top));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn comb_matches_double_and_add(k in any::<[u8; 32]>()) {
            let mut k = k;
            k[31] &= 0x7f; // below 2^255
            let comb = EdwardsPoint::mul_base(&k);
            prop_assert!(comb.ct_eq(&EdwardsPoint::base().scalar_mul(&k)));
        }

        #[test]
        fn straus_matches_double_and_add(a in any::<[u8; 32]>(),
                                         b in any::<[u8; 32]>(),
                                         p in any::<[u8; 32]>()) {
            // Below 2^253, as scalars reduced mod L are.
            let (mut a, mut b) = (a, b);
            a[31] &= 0x1f;
            b[31] &= 0x1f;
            let base = EdwardsPoint::base();
            let point = EdwardsPoint::mul_base(&{
                let mut p = p;
                p[31] &= 0x7f;
                p
            });
            let straus = point.vartime_double_scalar_mul_base(&a, &b);
            let oracle = point.scalar_mul(&a).add(&base.scalar_mul(&b));
            prop_assert!(straus.ct_eq(&oracle));
        }

        #[test]
        fn square_matches_mul_by_self(bytes in any::<[u8; 40]>()) {
            for bits in [51, 52, 55, 56] {
                let x = limbs(&bytes, bits);
                prop_assert_eq!(x.square().to_bytes(), x.mul(x).to_bytes());
            }
        }

        #[test]
        fn mul_of_unreduced_limbs_matches_reduced(a in any::<[u8; 40]>(), b in any::<[u8; 40]>()) {
            // Limbs up to the documented bound give the product of the
            // values they stand for.
            let (x, y) = (limbs(&a, 56), limbs(&b, 56));
            let (xr, yr) = (Fe::from_bytes(&x.to_bytes()), Fe::from_bytes(&y.to_bytes()));
            prop_assert_eq!(x.mul(y).to_bytes(), xr.mul(yr).to_bytes());
        }

        #[test]
        fn invert_and_pow_p58_match_fermat(bytes in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&bytes);
            prop_assert_eq!(x.invert().to_bytes(), x.invert_fermat().to_bytes());
            prop_assert_eq!(x.pow_p58().to_bytes(), x.pow(&p58_exponent()).to_bytes());
        }

        #[test]
        fn branch_free_mod_l_matches_branching(bytes in any::<[u8; 64]>()) {
            let mut x = [0u64; 8];
            for (limb, chunk) in x.iter_mut().zip(bytes.chunks_exact(8)) {
                *limb = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            prop_assert_eq!(mod_l_wide(&x), mod_l_wide_branching(&x));
        }
    }
}
