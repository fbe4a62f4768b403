//! Offline stand-in for the subset of `rustfft` 6 the BAYWATCH workspace
//! uses: `FftPlanner::{new, plan_fft_forward, plan_fft_inverse}`, the
//! `Fft` trait's in-place entry points, and `num_complex::Complex<f64>`.
//!
//! Power-of-two lengths run an iterative radix-2 transform; every other
//! length runs Bluestein's chirp-z on top of it. Results agree with
//! `rustfft` to rounding error, but composite lengths are slower here
//! than under `rustfft`'s mixed-radix plans, so numbers measured on this
//! backend are labelled `backend = stub` and never compared with
//! `backend = real` ones.

use std::collections::HashMap;
use std::f64::consts::PI;
use std::marker::PhantomData;
use std::sync::Arc;

pub mod num_complex {
    use std::ops::{Add, Mul, Sub};

    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    #[repr(C)]
    pub struct Complex<T> {
        pub re: T,
        pub im: T,
    }

    impl<T> Complex<T> {
        pub const fn new(re: T, im: T) -> Self {
            Self { re, im }
        }
    }

    impl Complex<f64> {
        pub fn conj(&self) -> Self {
            Self::new(self.re, -self.im)
        }

        pub fn norm_sqr(&self) -> f64 {
            self.re * self.re + self.im * self.im
        }

        pub fn from_polar(r: f64, theta: f64) -> Self {
            Self::new(r * theta.cos(), r * theta.sin())
        }
    }

    impl Add for Complex<f64> {
        type Output = Self;
        fn add(self, o: Self) -> Self {
            Self::new(self.re + o.re, self.im + o.im)
        }
    }

    impl Sub for Complex<f64> {
        type Output = Self;
        fn sub(self, o: Self) -> Self {
            Self::new(self.re - o.re, self.im - o.im)
        }
    }

    impl Mul for Complex<f64> {
        type Output = Self;
        fn mul(self, o: Self) -> Self {
            Self::new(
                self.re * o.re - self.im * o.im,
                self.re * o.im + self.im * o.re,
            )
        }
    }

    impl Mul<Complex<f64>> for &Complex<f64> {
        type Output = Complex<f64>;
        fn mul(self, o: Complex<f64>) -> Complex<f64> {
            *self * o
        }
    }

    impl Mul<f64> for Complex<f64> {
        type Output = Self;
        fn mul(self, k: f64) -> Self {
            Self::new(self.re * k, self.im * k)
        }
    }

    impl Mul<Complex<f64>> for f64 {
        type Output = Complex<f64>;
        fn mul(self, c: Complex<f64>) -> Complex<f64> {
            c * self
        }
    }
}

use num_complex::Complex;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftDirection {
    Forward,
    Inverse,
}

/// A planned, unnormalized in-place DFT of one fixed length.
pub trait Fft<T>: Send + Sync {
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_inplace_scratch_len(&self) -> usize;

    /// Transforms `buffer` (exactly `len()` elements) in place.
    /// `scratch` must hold at least `get_inplace_scratch_len()` elements.
    fn process_with_scratch(&self, buffer: &mut [Complex<T>], scratch: &mut [Complex<T>]);

    /// Like `process_with_scratch`, allocating the scratch.
    fn process(&self, buffer: &mut [Complex<T>]);
}

/// `e^(sign·2πik/n)`; sign −1 forward, +1 inverse.
fn twiddle(k: usize, n: usize, direction: FftDirection) -> Complex<f64> {
    let sign = match direction {
        FftDirection::Forward => -1.0,
        FftDirection::Inverse => 1.0,
    };
    Complex::from_polar(1.0, sign * 2.0 * PI * k as f64 / n as f64)
}

/// Iterative radix-2 decimation-in-time transform, `n` a power of two.
struct Radix2 {
    n: usize,
    /// `twiddles[k] = W_n^k` for `k < n/2`.
    twiddles: Vec<Complex<f64>>,
    /// Bit-reversal permutation as swap pairs `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
}

impl Radix2 {
    fn new(n: usize, direction: FftDirection) -> Self {
        debug_assert!(n.is_power_of_two());
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                let j = if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (usize::BITS - bits)
                };
                (i < j).then_some((i as u32, j as u32))
            })
            .collect();
        Self {
            n,
            twiddles: (0..n / 2).map(|k| twiddle(k, n, direction)).collect(),
            swaps,
        }
    }

    fn run(&self, buf: &mut [Complex<f64>]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must equal the plan length"
        );
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
        let mut half = 1;
        while half < self.n {
            let stride = self.n / (2 * half);
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for (k, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let t = self.twiddles[k * stride] * *b;
                    *b = *a - t;
                    *a = *a + t;
                }
            }
            half *= 2;
        }
    }
}

/// Bluestein's algorithm: a length-`n` DFT as a circular convolution of
/// length `m = 2^k ≥ 2n − 1`.
struct Bluestein {
    n: usize,
    /// `chirp[k] = e^(sign·πik²/n)`.
    chirp: Vec<Complex<f64>>,
    /// Forward transform of the conjugate-chirp filter, pre-scaled by 1/m.
    filter: Vec<Complex<f64>>,
    fwd: Radix2,
    inv: Radix2,
}

impl Bluestein {
    fn new(n: usize, direction: FftDirection) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        // k² mod 2n keeps the angle argument small and exact.
        let chirp: Vec<Complex<f64>> = (0..n)
            .map(|k| twiddle((k * k) % (2 * n), 2 * n, direction))
            .collect();
        let fwd = Radix2::new(m, FftDirection::Forward);
        let inv = Radix2::new(m, FftDirection::Inverse);
        let mut filter = vec![Complex::new(0.0, 0.0); m];
        filter[0] = chirp[0].conj();
        for k in 1..n {
            filter[k] = chirp[k].conj();
            filter[m - k] = chirp[k].conj();
        }
        fwd.run(&mut filter);
        let scale = 1.0 / m as f64;
        for v in &mut filter {
            *v = *v * scale;
        }
        Self {
            n,
            chirp,
            filter,
            fwd,
            inv,
        }
    }

    fn run(&self, buf: &mut [Complex<f64>], scratch: &mut [Complex<f64>]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must equal the plan length"
        );
        let work = &mut scratch[..self.filter.len()];
        for ((w, x), c) in work.iter_mut().zip(buf.iter()).zip(&self.chirp) {
            *w = *x * *c;
        }
        work[self.n..].fill(Complex::new(0.0, 0.0));
        self.fwd.run(work);
        for (w, f) in work.iter_mut().zip(&self.filter) {
            *w = *w * *f;
        }
        self.inv.run(work);
        for ((x, w), c) in buf.iter_mut().zip(work.iter()).zip(&self.chirp) {
            *x = *w * *c;
        }
    }
}

enum Plan {
    Radix2(Radix2),
    Bluestein(Bluestein),
}

impl Fft<f64> for Plan {
    fn len(&self) -> usize {
        match self {
            Plan::Radix2(p) => p.n,
            Plan::Bluestein(p) => p.n,
        }
    }

    fn get_inplace_scratch_len(&self) -> usize {
        match self {
            Plan::Radix2(_) => 0,
            Plan::Bluestein(p) => p.filter.len(),
        }
    }

    fn process_with_scratch(&self, buffer: &mut [Complex<f64>], scratch: &mut [Complex<f64>]) {
        match self {
            Plan::Radix2(p) => p.run(buffer),
            Plan::Bluestein(p) => p.run(buffer, scratch),
        }
    }

    fn process(&self, buffer: &mut [Complex<f64>]) {
        let mut scratch = vec![Complex::new(0.0, 0.0); self.get_inplace_scratch_len()];
        self.process_with_scratch(buffer, &mut scratch);
    }
}

/// Builds and caches plans by `(length, direction)`.
pub struct FftPlanner<T> {
    cache: HashMap<(usize, FftDirection), Arc<dyn Fft<f64>>>,
    _scalar: PhantomData<T>,
}

impl FftPlanner<f64> {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            cache: HashMap::new(),
            _scalar: PhantomData,
        }
    }

    pub fn plan_fft(&mut self, n: usize, direction: FftDirection) -> Arc<dyn Fft<f64>> {
        assert!(n > 0, "zero-length transforms are not planned");
        self.cache
            .entry((n, direction))
            .or_insert_with(|| {
                Arc::new(if n.is_power_of_two() {
                    Plan::Radix2(Radix2::new(n, direction))
                } else {
                    Plan::Bluestein(Bluestein::new(n, direction))
                })
            })
            .clone()
    }

    pub fn plan_fft_forward(&mut self, n: usize) -> Arc<dyn Fft<f64>> {
        self.plan_fft(n, FftDirection::Forward)
    }

    pub fn plan_fft_inverse(&mut self, n: usize) -> Arc<dyn Fft<f64>> {
        self.plan_fft(n, FftDirection::Inverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(input: &[Complex<f64>], direction: FftDirection) -> Vec<Complex<f64>> {
        let n = input.len();
        (0..n)
            .map(|k| {
                input
                    .iter()
                    .enumerate()
                    .fold(Complex::new(0.0, 0.0), |acc, (j, x)| {
                        acc + *x * twiddle((j * k) % n, n, direction)
                    })
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft_for_pow2_and_other_lengths() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 12, 16, 17, 30, 64, 97, 100] {
            let input: Vec<Complex<f64>> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos()))
                .collect();
            for direction in [FftDirection::Forward, FftDirection::Inverse] {
                let mut got = input.clone();
                FftPlanner::new().plan_fft(n, direction).process(&mut got);
                for (g, w) in got.iter().zip(naive(&input, direction)) {
                    assert!((*g - w).norm_sqr().sqrt() < 1e-9 * n as f64, "n={n}");
                }
            }
        }
    }
}
