//! Complex arithmetic and the power-of-two FFT under every spectral step.
//!
//! Since every transform runs at a power-of-two length
//! ([`workspace`](crate::workspace)), one kernel suffices: an iterative
//! decimation-in-time `Plan` that bit-reverses its input with a
//! precomputed swap list and then runs radix-4 passes in place, with no
//! scratch buffer. A radix-4 pass is two radix-2 passes fused: each
//! butterfly reads four points a quarter-block apart and one contiguous
//! `(W^j, W^2j, W^3j)` entry of the pass's twiddle table, and spends three
//! complex multiplies where the two radix-2 passes spent four. An odd
//! `log2 n` adds one twiddle-free radix-2 pass first. Transforms are
//! unnormalized in both directions, so a forward/inverse round trip scales
//! by `n`.

use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number of two `f64`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Self = Self::new(0.0, 0.0);

    /// `re + i·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `r·e^(iθ)`.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// The complex conjugate.
    pub fn conj(&self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// `|z|²`.
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

impl Add for Complex {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    fn mul(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    fn mul(self, c: Complex) -> Complex {
        c * self
    }
}

/// Transform direction: the sign of the exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// `X(k) = Σ x(j)·e^(−2πijk/n)`.
    Forward,
    /// `x(j) = Σ X(k)·e^(+2πijk/n)`, unnormalized.
    Inverse,
}

/// `e^(sign·2πik/n)`; sign −1 forward, +1 inverse.
pub(crate) fn twiddle(k: usize, n: usize, direction: Direction) -> Complex {
    let sign = match direction {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    Complex::from_polar(1.0, sign * 2.0 * PI * k as f64 / n as f64)
}

/// An in-place radix-4 transform of one power-of-two length.
#[derive(Debug)]
pub(crate) struct Plan {
    n: usize,
    direction: Direction,
    /// The radix-4 passes' tables, concatenated in pass order: the pass
    /// over blocks of `4q` holds `(W^j, W^2j, W^3j)` with `W = W_{4q}` for
    /// `j < q`.
    twiddles: Vec<[Complex; 3]>,
    /// Bit-reversal permutation as swap pairs `(i, j)` with `i < j`.
    swaps: Vec<(u32, u32)>,
}

impl Plan {
    /// The plan of power-of-two length `n` in `direction`.
    pub(crate) fn new(n: usize, direction: Direction) -> Self {
        assert!(n.is_power_of_two(), "FFT plans need a power of two");
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
        let twiddles = radix4_quarters(n)
            .flat_map(|q| (0..q).map(move |j| (q, j)))
            .map(|(q, j)| [1, 2, 3].map(|p| twiddle(p * j, 4 * q, direction)))
            .collect();
        Self {
            n,
            direction,
            twiddles,
            swaps,
        }
    }

    /// Transforms `buf` (exactly the plan's length of values) in place.
    pub(crate) fn run(&self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must equal the plan length"
        );
        for &(i, j) in &self.swaps {
            buf.swap(i as usize, j as usize);
        }
        if self.n.trailing_zeros() % 2 == 1 {
            for pair in buf.chunks_exact_mut(2) {
                let (a, b) = (pair[0], pair[1]);
                pair[0] = a + b;
                pair[1] = a - b;
            }
        }
        let mut table = self.twiddles.as_slice();
        for quarter in radix4_quarters(self.n) {
            let (pass, rest) = table.split_at(quarter);
            match self.direction {
                Direction::Forward => radix4_pass::<false>(buf, pass),
                Direction::Inverse => radix4_pass::<true>(buf, pass),
            }
            table = rest;
        }
    }
}

/// The quarter-block sizes `q` of the radix-4 passes of a length-`n`
/// plan, in pass order: `1, 4, 16, …` for an even `log2 n`, `2, 8, 32, …`
/// after the radix-2 pass of an odd one.
fn radix4_quarters(n: usize) -> impl Iterator<Item = usize> {
    let first = 1 << (n.trailing_zeros() % 2);
    std::iter::successors(Some(first), |q| Some(q * 4)).take_while(move |q| 4 * q <= n)
}

/// One radix-4 pass over blocks of `4q`, `q = twiddles.len()`: the two
/// radix-2 passes over blocks of `2q` and `4q`, fused. Point `r·q + j` of
/// a block (`x_r`, in the bit-reversed order the radix-2 passes would
/// read) is multiplied by `W^{2j}`, `W^j`, `W^{3j}` for `r = 1, 2, 3` —
/// three multiplies per four points — before [`butterfly4`]. The first
/// pass (`q = 1`) has only `W^0` and multiplies nothing.
fn radix4_pass<const INVERSE: bool>(buf: &mut [Complex], twiddles: &[[Complex; 3]]) {
    let quarter = twiddles.len();
    if quarter == 1 {
        for x in buf.chunks_exact_mut(4) {
            [x[0], x[1], x[2], x[3]] = butterfly4::<INVERSE>(x[0], x[1], x[2], x[3]);
        }
        return;
    }
    for block in buf.chunks_exact_mut(4 * quarter) {
        let (front, back) = block.split_at_mut(2 * quarter);
        let (x0, x1) = front.split_at_mut(quarter);
        let (x2, x3) = back.split_at_mut(quarter);
        let points = x0.iter_mut().zip(x1).zip(x2).zip(x3);
        for ((((p0, p1), p2), p3), [w1, w2, w3]) in points.zip(twiddles) {
            [*p0, *p1, *p2, *p3] = butterfly4::<INVERSE>(*p0, *w2 * *p1, *w1 * *p2, *w3 * *p3);
        }
    }
}

/// The radix-4 butterfly on `a = x₀` and the twiddled `b`, `c`, `d`:
/// `(a + b) ± (c + d)` and `(a − b) ∓ i·(c − d)` forward, `±i` inverse.
#[inline(always)]
fn butterfly4<const INVERSE: bool>(a: Complex, b: Complex, c: Complex, d: Complex) -> [Complex; 4] {
    let (sum, diff) = (a + b, a - b);
    let (csum, cdiff) = (c + d, c - d);
    let turned = if INVERSE {
        Complex::new(-cdiff.im, cdiff.re)
    } else {
        Complex::new(cdiff.im, -cdiff.re)
    };
    [sum + csum, diff + turned, sum - csum, diff - turned]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(input: &[Complex], direction: Direction) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                input.iter().enumerate().fold(Complex::ZERO, |acc, (j, x)| {
                    acc + *x * twiddle((j * k) % n, n, direction)
                })
            })
            .collect()
    }

    #[test]
    fn both_directions_match_the_naive_dft_up_to_4096() {
        // Every bits = 0..=12: both parities of log2 n, so the radix-2
        // lead-in pass runs (odd) and does not (even).
        for bits in 0..=12 {
            let n = 1usize << bits;
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos()))
                .collect();
            for direction in [Direction::Forward, Direction::Inverse] {
                let mut got = input.clone();
                Plan::new(n, direction).run(&mut got);
                for (k, (g, w)) in got.iter().zip(naive(&input, direction)).enumerate() {
                    assert!(
                        (*g - w).norm_sqr().sqrt() < 1e-9 * n as f64,
                        "{direction:?} n={n} bin {k}: {g:?} vs {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_round_trip_scales_by_n() {
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut buf = input.clone();
        Plan::new(n, Direction::Forward).run(&mut buf);
        Plan::new(n, Direction::Inverse).run(&mut buf);
        for (b, x) in buf.iter().zip(&input) {
            assert!(
                (*b - *x * n as f64).norm_sqr().sqrt() < 1e-9,
                "{b:?} vs {x:?}"
            );
        }
    }

    #[test]
    fn a_round_trip_at_2_16_scales_by_n() {
        let n = 1 << 16;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos()))
            .collect();
        let mut buf = input.clone();
        Plan::new(n, Direction::Forward).run(&mut buf);
        Plan::new(n, Direction::Inverse).run(&mut buf);
        for (b, x) in buf.iter().zip(&input) {
            assert!(
                (*b - *x * n as f64).norm_sqr().sqrt() < 1e-9 * n as f64,
                "{b:?} vs {x:?}"
            );
        }
    }
}
