//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset it actually uses: [`rngs::StdRng`]
//! seeded via [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] /
//! [`Rng::gen_bool`], and [`seq::SliceRandom`]. The generator is
//! xoshiro256++ seeded through SplitMix64 — deterministic per seed,
//! which is all the tests and instance generators rely on. Streams are
//! **not** bit-compatible with the real `rand` crate.

/// Low-level generator interface (mirror of `rand_core::RngCore`).
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
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
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seeding interface (mirror of `rand_core::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen_range`] can sample uniformly from a half-open
/// or inclusive range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform sample in `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample in `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128;
                // Multiply-shift bounded sampling; the tiny modulo bias is
                // irrelevant for test-instance generation.
                let r = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + r) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                if lo == hi {
                    return lo;
                }
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (lo as i128 + r) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                lo + unit * (hi - lo)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range");
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + unit * (hi - lo)
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// Ranges accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one uniform sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// High-level convenience methods, blanket-implemented for every
/// [`RngCore`] (mirror of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p not in [0, 1]");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.
    use super::{RngCore, SeedableRng};

    /// Deterministic generator: xoshiro256++ (Blackman–Vigna), seeded
    /// through SplitMix64. Stands in for `rand::rngs::StdRng`.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

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

pub mod seq {
    //! Slice helpers (mirror of `rand::seq::SliceRandom`).
    use super::{Rng, RngCore};

    /// Shuffling and choosing on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_are_honored() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen_range(-2.0..5.0);
            assert!((-2.0..5.0).contains(&f));
            let i = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_000..4_000).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!(v.choose(&mut rng).is_some());
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
