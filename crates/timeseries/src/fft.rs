//! Complex arithmetic and the power-of-two FFT under every spectral step.
//!
//! Since every transform runs at a power-of-two length
//! ([`workspace`](crate::workspace)), one kernel suffices: an iterative
//! decimation-in-time `Plan` that runs radix-4 passes in place, with no
//! scratch buffer. It takes its input in bit-reversed order only: callers
//! write point `j` to slot `Plan::reversed()[j]` as they fill the buffer,
//! so no pass of the transform moves a point without computing with it. A
//! radix-4 pass is two radix-2 passes fused: each butterfly reads four
//! points a quarter-block apart and one contiguous `(W^j, W^2j, W^3j)`
//! entry of the pass's twiddle table, and spends three complex multiplies
//! where the two radix-2 passes spent four. An odd `log2 n` adds one
//! twiddle-free radix-2 pass first. Transforms are unnormalized in both
//! directions, so a forward/inverse round trip scales by `n`.
//!
//! # Two builds of one source
//!
//! The passes are compiled twice from the same source: the portable build
//! and, on x86-64, a build under `#[target_feature(enable = "avx2")]` that
//! the plan picks once, when it is made, if the host has AVX2. The AVX2
//! build only widens the registers the same operations run in. It never
//! enables `fma`, and nothing here calls `mul_add`, so no multiply is fused
//! into an add and no sum is reordered: both builds compute every output
//! bit for bit alike (`avx2_and_portable_passes_agree_bit_for_bit`), and a
//! transform stays a pure function of its input.

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
    /// `reversed[j]`: `j` with its `log2 n` bits reversed, the slot input
    /// point `j` is written to.
    reversed: Vec<u32>,
    /// Whether the host has AVX2, read once when the plan is made.
    avx2: bool,
}

impl Plan {
    /// The plan of power-of-two length `n` in `direction`.
    pub(crate) fn new(n: usize, direction: Direction) -> Self {
        assert!(n.is_power_of_two(), "FFT plans need a power of two");
        let bits = n.trailing_zeros();
        let reversed = (0..n)
            .map(|j| {
                if bits == 0 {
                    0
                } else {
                    (j.reverse_bits() >> (usize::BITS - bits)) as u32
                }
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
            reversed,
            avx2: avx2_detected(),
        }
    }

    /// The slot of each input point: `buf[reversed[j]]` holds point `j`
    /// when [`run`](Self::run) starts. An involution, so it also maps a
    /// slot back to its point.
    pub(crate) fn reversed(&self) -> &[u32] {
        &self.reversed
    }

    /// Transforms `buf` (exactly the plan's length of values, point `j` in
    /// slot [`reversed`](Self::reversed)`[j]`) in place; the output is in
    /// natural order.
    pub(crate) fn run(&self, buf: &mut [Complex]) {
        assert_eq!(
            buf.len(),
            self.n,
            "buffer length must equal the plan length"
        );
        if self.avx2 && !portable_forced() {
            #[cfg(target_arch = "x86_64")]
            {
                #[expect(
                    unsafe_code,
                    reason = "calling the AVX2 build of the passes after the runtime check"
                )]
                // SAFETY: `avx2` is `is_x86_feature_detected!("avx2")` on
                // the host running this plan, so the AVX2 build only
                // executes instructions the CPU has.
                unsafe {
                    avx2_passes(self, buf);
                }
                return;
            }
        }
        self.passes(buf);
    }

    /// The passes over a bit-reversed `buf`, inlined into the portable
    /// [`run`](Self::run) and into [`avx2_passes`] alike.
    #[inline(always)]
    fn passes(&self, buf: &mut [Complex]) {
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

/// The passes compiled for AVX2: the same source as the portable build,
/// with wider registers and without `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2_passes(plan: &Plan, buf: &mut [Complex]) {
    plan.passes(buf);
}

/// Whether this host can run the AVX2 build.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
thread_local! {
    static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling test pinned this thread to the portable build.
#[cfg(test)]
fn portable_forced() -> bool {
    PORTABLE.get()
}

#[cfg(not(test))]
#[inline(always)]
fn portable_forced() -> bool {
    false
}

/// Runs `f` with every plan on this thread taking the portable build.
#[cfg(test)]
pub(crate) fn with_portable_passes<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE.set(true);
    let out = f();
    PORTABLE.set(false);
    out
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
#[inline(always)]
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

/// The dense reference the workspace's packed and placed transforms are
/// tested against: real samples as a complex series, one full transform
/// at the padded length.
#[cfg(test)]
impl Plan {
    /// `samples` zero-padded to `N` as the workspace pads them, through one
    /// full complex transform: the one-sided spectrum `X(0..=N/2)`.
    pub(crate) fn dense_half_spectrum(samples: &[f64]) -> Vec<Complex> {
        let plan = Self::new(
            crate::workspace::padded_len(samples.len()),
            Direction::Forward,
        );
        let mut buf = plan.load(samples.iter().map(|&v| Complex::new(v, 0.0)));
        plan.run(&mut buf);
        buf.truncate(plan.n / 2 + 1);
        buf
    }

    /// The raw linear autocorrelation of `samples` by the full complex
    /// round trip at the power of two at or above `2·len`: every padded
    /// lag, scaled by that length.
    pub(crate) fn dense_autocorrelation(samples: &[f64]) -> Vec<f64> {
        let padded = crate::workspace::padded_len(2 * samples.len());
        let forward = Self::new(padded, Direction::Forward);
        let mut buf = forward.load(samples.iter().map(|&v| Complex::new(v, 0.0)));
        forward.run(&mut buf);
        let inverse = Self::new(padded, Direction::Inverse);
        let mut buf = inverse.load(buf.iter().map(|v| Complex::new(v.norm_sqr(), 0.0)));
        inverse.run(&mut buf);
        buf.iter().map(|c| c.re).collect()
    }

    /// `points` in natural order, zero-padded to the plan's length, as the
    /// bit-reversed input [`run`](Self::run) takes.
    pub(crate) fn load(&self, points: impl IntoIterator<Item = Complex>) -> Vec<Complex> {
        let mut buf = vec![Complex::ZERO; self.n];
        for (&slot, z) in self.reversed.iter().zip(points) {
            buf[slot as usize] = z;
        }
        buf
    }
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
                let plan = Plan::new(n, direction);
                let mut got = plan.load(input.iter().copied());
                plan.run(&mut got);
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
    fn the_reversal_is_an_involution_over_every_slot() {
        for bits in 0..=12 {
            let plan = Plan::new(1 << bits, Direction::Forward);
            let reversed = plan.reversed();
            assert_eq!(reversed.len(), 1 << bits);
            for (j, &slot) in reversed.iter().enumerate() {
                assert_eq!(reversed[slot as usize] as usize, j, "n = 2^{bits}");
            }
        }
    }

    /// `input` forward and back through fresh plans of its length.
    fn round_trip(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        let forward = Plan::new(n, Direction::Forward);
        let mut buf = forward.load(input.iter().copied());
        forward.run(&mut buf);
        let inverse = Plan::new(n, Direction::Inverse);
        let mut buf = inverse.load(buf);
        inverse.run(&mut buf);
        buf
    }

    #[test]
    fn a_round_trip_scales_by_n() {
        let n = 64;
        let input: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        for (b, x) in round_trip(&input).iter().zip(&input) {
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
        for (b, x) in round_trip(&input).iter().zip(&input) {
            assert!(
                (*b - *x * n as f64).norm_sqr().sqrt() < 1e-9 * n as f64,
                "{b:?} vs {x:?}"
            );
        }
    }

    #[test]
    fn avx2_and_portable_passes_agree_bit_for_bit() {
        use crate::permutation::{permutation_filter, PermutationConfig};
        use crate::series::corpus::round_corpus;
        use crate::workspace::SpectralWorkspace;

        if !avx2_detected() {
            println!("no AVX2 on this host: the portable build is the only one");
            return;
        }
        let bits = |v: &[Complex]| -> Vec<u64> {
            v.iter()
                .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
                .collect()
        };
        for log2 in 1..=16 {
            let n = 1usize << log2;
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos() - 0.25))
                .collect();
            for direction in [Direction::Forward, Direction::Inverse] {
                let plan = Plan::new(n, direction);
                let mut wide = plan.load(input.iter().copied());
                let mut portable = wide.clone();
                plan.run(&mut wide);
                with_portable_passes(|| plan.run(&mut portable));
                assert_eq!(bits(&wide), bits(&portable), "{direction:?} n = 2^{log2}");
            }
        }
        // The placed rounds of the permutation filter, every row layout.
        let ws = SpectralWorkspace::new();
        for series in round_corpus() {
            for permutations in [5, 20] {
                let cfg = PermutationConfig {
                    permutations,
                    ..Default::default()
                };
                let maxima = || {
                    let full = permutation_filter(&ws, &series, &cfg, f64::INFINITY);
                    full.map(|t| {
                        t.shuffled_maxima
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    })
                };
                let wide = maxima();
                let portable = with_portable_passes(maxima);
                assert_eq!(wide, portable, "n = {} m = {permutations}", series.len());
            }
        }
    }
}
