//! Offline shim for `rand` 0.10.
//!
//! Provides the exact surface the workspace uses: a seedable [`rngs::StdRng`],
//! [`RngExt::random_range`] over integer ranges, and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256++ seeded via
//! SplitMix64 — deterministic per seed, but a *different stream* than the
//! real crate's ChaCha12 `StdRng`. All seeds in this repository (workload
//! shuffles, DARTS tie-breaking, partitioner restarts, golden traces) are
//! calibrated against this shim.

/// Core trait: a source of uniformly distributed `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling from a range, the subset of `rand 0.10`'s `Rng`/`RngExt`
/// extension trait that the workspace calls.
pub trait RngExt: RngCore {
    /// A uniform sample from `range`. Panics on an empty range.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }
}

impl<T: RngCore> RngExt for T {}

/// A range that can be sampled uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one sample.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Uniform draw from `[0, span)`. Uses Lemire-style rejection so the
/// stream is unbiased and stable across platforms.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let zone = u64::MAX - (u64::MAX % span) - 1;
    loop {
        let v = rng.next_u64();
        if v <= zone {
            return v % span;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for ::std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange for ::std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}
impl_sample_range!(u32, u64, usize);

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ seeded through SplitMix64. Small, fast, `Send`, and
    /// deterministic — sufficient statistical quality for tie-breaking
    /// and shuffling in a simulator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence helpers.
pub mod seq {
    use super::{uniform_below, RngCore};

    /// Slice extension: in-place Fisher–Yates shuffle.
    pub trait SliceRandom {
        /// Uniformly permute the slice using `rng`.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = uniform_below(rng, (i + 1) as u64) as usize;
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{RngExt, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random_range(0..1000usize), b.random_range(0..1000usize));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.random_range(0..u64::MAX)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.random_range(0..u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.random_range(10..20usize);
            assert!((10..20).contains(&x));
            let y = rng.random_range(5..=5u32);
            assert_eq!(y, 5);
        }
    }

    #[test]
    fn shuffle_is_a_deterministic_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        let mut w = v.clone();
        v.shuffle(&mut StdRng::seed_from_u64(42));
        w.shuffle(&mut StdRng::seed_from_u64(42));
        assert_eq!(v, w);
        assert_ne!(v, (0..50).collect::<Vec<u32>>(), "seed 42 permutes");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
