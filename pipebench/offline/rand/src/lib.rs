//! Offline stand-in for the subset of `rand` 0.9 the BAYWATCH workspace
//! uses: `StdRng`, `SeedableRng::seed_from_u64`, `Rng::random_range` over
//! integer and float ranges, and `SliceRandom::shuffle`.
//!
//! It exists so `pipebench` builds where no registry is reachable. The
//! generator is xoshiro256++ seeded through splitmix64 — deterministic
//! and well mixed, but *not* the stream real `rand` produces, so numbers
//! measured on this backend are labelled `backend = stub` and never
//! compared with `backend = real` ones.

use std::ops::{Range, RangeInclusive};

/// Core source of randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Seeding interface (only `seed_from_u64` is used by the workspace).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `random_range` can draw uniformly.
pub trait SampleUniform: Sized + PartialOrd + Copy {
    /// Uniform in `[low, high)`; `high > low`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform in `[low, high]`; `high >= low`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

/// Uniform in `[0, span)` by widening multiply (bias < 2^-64 · span).
fn below<R: RngCore + ?Sized>(span: u128, rng: &mut R) -> u128 {
    debug_assert!(span > 0 && span <= 1 << 64);
    (u128::from(rng.next_u64()) * span) >> 64
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "cannot sample empty range");
                let span = (high as i128 - low as i128) as u128;
                (low as i128 + below(span, rng) as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let span = (high as i128 - low as i128) as u128 + 1;
                (low as i128 + below(span, rng) as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "cannot sample empty range");
                // 53 random mantissa bits → u in [0, 1).
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let v = low as f64 + u * (high as f64 - low as f64);
                // Rounding may land exactly on `high`; step back inside.
                if v as $t >= high { low } else { v as $t }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "cannot sample empty range");
                let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
                (low as f64 + u * (high as f64 - low as f64)) as $t
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range argument of [`Rng::random_range`]. One generic impl per range
/// kind (not one per element type) so integer-literal ranges infer.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// User-facing extension methods.
pub trait Rng: RngCore {
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
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

pub mod seq {
    use super::{Rng, RngCore};

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.random_range(0..=i));
            }
        }
    }
}

pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}
