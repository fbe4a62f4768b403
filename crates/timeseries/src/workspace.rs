//! Spectral workspace — cached FFT plans and reusable scratch buffers.
//!
//! Every step of the detection pipeline is FFT-bound: the periodogram
//! (Step 1) transforms the count series once, the permutation filter
//! transforms `m` shuffled copies of the *same length*, and the ACF
//! verifier (Step 3) runs a forward/inverse pair at the padded length.
//! Planning an FFT is far from free — rustfft decomposes the length into
//! a recipe of butterflies and allocates twiddle tables — and the seed
//! implementation rebuilt a fresh [`FftPlanner`] for every single
//! transform, i.e. 20+ times per communication pair.
//!
//! [`SpectralWorkspace`] amortizes that cost: it owns one planner, maps of
//! already-built plans keyed by `(kind, length)` — complex-to-complex
//! forward/inverse plus the real-to-complex ([`R2cPlan`]) and
//! complex-to-real ([`C2rPlan`]) wrappers — and recycled complex, real and
//! half-spectrum buffers. A workspace is deliberately single-threaded
//! (`!Sync`, interior mutability via [`RefCell`]); each MapReduce worker
//! thread gets its own instance through [`with_thread_workspace`], so
//! plans are reused across every pair and permutation round the thread
//! processes during a window without any locking.
//!
//! # Real-valued spectral path
//!
//! Detection input is always real (binned event counts), so the full
//! complex DFT computes every output twice: `X(n−k) = conj(X(k))`. The
//! workspace exploits that Hermitian symmetry two ways, selected by
//! [`SpectralMode`]:
//!
//! - **Single series** ([`with_half_spectrum`](SpectralWorkspace::with_half_spectrum),
//!   [`with_autocorrelation`](SpectralWorkspace::with_autocorrelation)):
//!   an even-length real series of length `n` is packed into a
//!   half-length complex series `z(j) = x(2j) + i·x(2j+1)`, transformed
//!   with one FFT of length `n/2`, and unpacked into the one-sided
//!   spectrum `X(0..=n/2)` with `O(n)` twiddle arithmetic — about half
//!   the transform work. Odd lengths fall back to the full complex
//!   transform (the ACF's padded length is always a power of two, so the
//!   round trip is always packed).
//! - **Batched permutation rounds**
//!   ([`shuffled_half_power_maxima`](SpectralWorkspace::shuffled_half_power_maxima)):
//!   two shuffled *rounds* `a`, `b` of the same length ride one complex
//!   FFT as `z = a + i·b` and are separated per bin by
//!   `A(k) = (Z(k) + conj(Z(n−k)))/2`, `B(k) = (Z(k) − conj(Z(n−k)))/(2i)`.
//!   This halves transform count for *any* length — including the odd and
//!   prime (Bluestein) lengths arbitrary observation spans produce.
//!
//! [`SpectralMode::ComplexFull`] keeps the pre-r2c full-complex pipeline
//! reachable; its output is bit-for-bit identical to planning from
//! scratch (rustfft plans are deterministic functions of the length) and
//! serves as the reference for equivalence tests and for the before/after
//! benchmark in `BENCH_detector.json`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use rustfft::{num_complex::Complex, Fft, FftPlanner};

/// Which spectral algorithm the workspace uses for real input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpectralMode {
    /// Real-input transforms run through the packed half-length r2c/c2r
    /// plans and permutation rounds are batched two-per-FFT. Output agrees
    /// with [`ComplexFull`](SpectralMode::ComplexFull) to within FFT
    /// rounding (a few ULPs); roughly half the transform work. The
    /// default.
    #[default]
    RealHalf,
    /// The legacy full complex-to-complex pipeline, bit-for-bit identical
    /// to the pre-r2c implementation. Kept as the reference path for
    /// equivalence tests and benchmarks.
    ComplexFull,
}

/// A per-thread cache of FFT plans plus reusable transform buffers.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::workspace::SpectralWorkspace;
///
/// let ws = SpectralWorkspace::new();
/// let samples = vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
/// // The Nyquist bin carries all the energy of an alternating series.
/// let max = ws.with_spectrum(&samples, |spectrum| {
///     spectrum[1..=4].iter().map(|v| v.norm_sqr()).fold(0.0, f64::max)
/// });
/// assert!(max > 0.0);
/// // A second transform of the same length reuses the cached plan.
/// ws.with_spectrum(&samples, |_| ());
/// assert_eq!(ws.plans_built(), 1);
/// assert_eq!(ws.transforms_run(), 2);
/// ```
pub struct SpectralWorkspace {
    inner: RefCell<Inner>,
    mode: SpectralMode,
}

struct Inner {
    planner: FftPlanner<f64>,
    forward: HashMap<usize, Arc<dyn Fft<f64>>>,
    inverse: HashMap<usize, Arc<dyn Fft<f64>>>,
    /// Real-to-complex plans, keyed by the *real* length `n` (even). Kept
    /// in their own map: a length-`n` r2c plan and a length-`n` c2c plan
    /// are different transforms and must never alias in the cache.
    r2c: HashMap<usize, Arc<R2cPlan>>,
    /// Complex-to-real plans, keyed by the real length `n` (even).
    c2r: HashMap<usize, Arc<C2rPlan>>,
    /// Recycled complex working buffer (the transform target).
    buffer: Vec<Complex<f64>>,
    /// Recycled rustfft scratch space.
    scratch: Vec<Complex<f64>>,
    /// Recycled one-sided (half) spectrum buffer for the r2c path.
    half: Vec<Complex<f64>>,
    /// Recycled real sample buffer (r2c input / c2r output).
    real: Vec<f64>,
    /// Recycled two-round (`2·n`) arena for the permutation filter.
    rows: Vec<f64>,
    plans_built: usize,
    plans_built_c2c: usize,
    plans_built_r2c: usize,
    plan_requests: usize,
    plan_hits: usize,
    transforms_run: usize,
}

const ZERO: Complex<f64> = Complex { re: 0.0, im: 0.0 };

/// A cached real-to-complex transform of even real length `n`: the packed
/// half-length complex FFT plus the `O(n)` Hermitian unpack.
///
/// The classic packing trick: `z(j) = x(2j) + i·x(2j+1)` is transformed
/// with an FFT of length `h = n/2`, and the one-sided spectrum of `x` is
/// recovered as
///
/// ```text
/// X(k) = (Z(k) + conj(Z(h−k)))/2 − (i/2)·W(k)·(Z(k) − conj(Z(h−k)))
/// ```
///
/// for `k = 0..=h`, with `Z(h) ≡ Z(0)` and twiddle `W(k) = e^(−2πik/n)`.
pub struct R2cPlan {
    n: usize,
    half_fft: Arc<dyn Fft<f64>>,
    /// `W(k) = e^(−2πik/n)` for `k = 0..=n/2`.
    twiddles: Vec<Complex<f64>>,
}

impl R2cPlan {
    fn new(n: usize, half_fft: Arc<dyn Fft<f64>>) -> Self {
        debug_assert!(n >= 2 && n.is_multiple_of(2), "r2c requires even n >= 2");
        Self {
            n,
            half_fft,
            twiddles: twiddle_table(n),
        }
    }

    /// Real transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the degenerate length 0 (never built).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms `input` (length `n`) into the one-sided spectrum
    /// `out[k] = X(k)` for `k = 0..=n/2`, using `work` for the packed
    /// half-length FFT and `scratch` for rustfft scratch space.
    fn process(
        &self,
        input: &[f64],
        work: &mut Vec<Complex<f64>>,
        out: &mut Vec<Complex<f64>>,
        scratch: &mut Vec<Complex<f64>>,
    ) {
        let h = self.n / 2;
        debug_assert_eq!(input.len(), self.n);
        work.clear();
        work.extend(input.chunks_exact(2).map(|p| Complex::new(p[0], p[1])));
        run_in_place(&*self.half_fft, work, scratch);
        out.clear();
        out.reserve(h + 1);
        for (k, w) in self.twiddles.iter().enumerate() {
            let zk = work[k % h];
            let zc = work[(h - k) % h].conj();
            let s = zk + zc;
            let d = zk - zc;
            let wd = w * d;
            // X(k) = (s − i·w·d)/2, with i·wd = (−wd.im, wd.re).
            out.push(Complex::new(0.5 * (s.re + wd.im), 0.5 * (s.im - wd.re)));
        }
    }
}

/// A cached complex-to-real inverse transform of even real length `n`:
/// the Hermitian repack plus a half-length inverse FFT.
///
/// Given the one-sided spectrum `X(0..=h)` of a real series (`h = n/2`),
/// the packed half-length series is rebuilt from
///
/// ```text
/// Xe(k) = (X(k) + conj(X(h−k)))/2
/// Xo(k) = (X(k) − conj(X(h−k)))/2 · conj(W(k))
/// Z(k)  = Xe(k) + i·Xo(k)
/// ```
///
/// and one unnormalized inverse FFT of length `h` yields `h·z(j)` with
/// `z(j) = x(2j) + i·x(2j+1)`. The unpack doubles each component, so the
/// output carries the same `n·x` scaling as the full-length unnormalized
/// inverse (the factor 2 is exact in binary floating point).
pub struct C2rPlan {
    n: usize,
    half_inv: Arc<dyn Fft<f64>>,
    /// `W(k) = e^(−2πik/n)` for `k = 0..=n/2`.
    twiddles: Vec<Complex<f64>>,
}

impl C2rPlan {
    fn new(n: usize, half_inv: Arc<dyn Fft<f64>>) -> Self {
        debug_assert!(n >= 2 && n.is_multiple_of(2), "c2r requires even n >= 2");
        Self {
            n,
            half_inv,
            twiddles: twiddle_table(n),
        }
    }

    /// Real transform length `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the degenerate length 0 (never built).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transforms the one-sided spectrum `spectrum` (length `n/2 + 1`)
    /// into the real series `out` (length `n`, scaled by `n` like the
    /// unnormalized full-length inverse FFT).
    fn process(
        &self,
        spectrum: &[Complex<f64>],
        work: &mut Vec<Complex<f64>>,
        out: &mut Vec<f64>,
        scratch: &mut Vec<Complex<f64>>,
    ) {
        let h = self.n / 2;
        debug_assert_eq!(spectrum.len(), h + 1);
        work.clear();
        work.reserve(h);
        for (k, w) in self.twiddles.iter().enumerate().take(h) {
            let xk = spectrum[k];
            let xc = spectrum[h - k].conj();
            let e = 0.5 * (xk + xc);
            let u = 0.5 * (xk - xc);
            // Xo(k) = u·conj(W(k)); Z(k) = Xe(k) + i·Xo(k).
            let uc = u * w.conj();
            work.push(Complex::new(e.re - uc.im, e.im + uc.re));
        }
        run_in_place(&*self.half_inv, work, scratch);
        out.clear();
        out.reserve(self.n);
        out.extend(work.iter().flat_map(|z| [2.0 * z.re, 2.0 * z.im]));
    }
}

/// `W(k) = e^(−2πik/n)` for `k = 0..=n/2`.
fn twiddle_table(n: usize) -> Vec<Complex<f64>> {
    (0..=n / 2)
        .map(|k| Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / n as f64))
        .collect()
}

impl SpectralWorkspace {
    /// Creates an empty workspace in the default [`SpectralMode::RealHalf`]
    /// mode; plans are built lazily on first use.
    pub fn new() -> Self {
        Self::with_mode(SpectralMode::default())
    }

    /// Creates an empty workspace with an explicit [`SpectralMode`] —
    /// [`SpectralMode::ComplexFull`] reproduces the pre-r2c pipeline
    /// bit-for-bit for equivalence tests and benchmarks.
    pub fn with_mode(mode: SpectralMode) -> Self {
        Self {
            inner: RefCell::new(Inner {
                planner: FftPlanner::new(),
                forward: HashMap::new(),
                inverse: HashMap::new(),
                r2c: HashMap::new(),
                c2r: HashMap::new(),
                buffer: Vec::new(),
                scratch: Vec::new(),
                half: Vec::new(),
                real: Vec::new(),
                rows: Vec::new(),
                plans_built: 0,
                plans_built_c2c: 0,
                plans_built_r2c: 0,
                plan_requests: 0,
                plan_hits: 0,
                transforms_run: 0,
            }),
            mode,
        }
    }

    /// The spectral mode the workspace was created with.
    pub fn mode(&self) -> SpectralMode {
        self.mode
    }

    /// The cached forward plan for length `n`, building it on first use.
    pub fn forward(&self, n: usize) -> Arc<dyn Fft<f64>> {
        self.plan(n, true)
    }

    /// The cached inverse plan for length `n`, building it on first use.
    pub fn inverse(&self, n: usize) -> Arc<dyn Fft<f64>> {
        self.plan(n, false)
    }

    fn plan(&self, n: usize, forward: bool) -> Arc<dyn Fft<f64>> {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.plan_requests += 1;
        let map = if forward {
            &mut inner.forward
        } else {
            &mut inner.inverse
        };
        if let Some(plan) = map.get(&n) {
            inner.plan_hits += 1;
            return Arc::clone(plan);
        }
        let plan = if forward {
            inner.planner.plan_fft_forward(n)
        } else {
            inner.planner.plan_fft_inverse(n)
        };
        inner.plans_built += 1;
        inner.plans_built_c2c += 1;
        map.insert(n, Arc::clone(&plan));
        plan
    }

    /// The cached real-to-complex plan for even real length `n`, building
    /// it (and its inner half-length c2c plan) on first use. The r2c map
    /// is keyed separately from the c2c maps, so a same-length c2c request
    /// never aliases with it.
    pub fn r2c(&self, n: usize) -> Arc<R2cPlan> {
        {
            let mut inner = self.inner.borrow_mut();
            inner.plan_requests += 1;
            if let Some(plan) = inner.r2c.get(&n) {
                let plan = Arc::clone(plan);
                inner.plan_hits += 1;
                return plan;
            }
        }
        // Build outside the borrow: the inner half-length plan goes
        // through the shared c2c cache (and its own counters).
        let half_fft = self.forward(n / 2);
        let plan = Arc::new(R2cPlan::new(n, half_fft));
        let mut inner = self.inner.borrow_mut();
        inner.plans_built += 1;
        inner.plans_built_r2c += 1;
        inner.r2c.insert(n, Arc::clone(&plan));
        plan
    }

    /// The cached complex-to-real plan for even real length `n`, building
    /// it (and its inner half-length inverse plan) on first use.
    pub fn c2r(&self, n: usize) -> Arc<C2rPlan> {
        {
            let mut inner = self.inner.borrow_mut();
            inner.plan_requests += 1;
            if let Some(plan) = inner.c2r.get(&n) {
                let plan = Arc::clone(plan);
                inner.plan_hits += 1;
                return plan;
            }
        }
        let half_inv = self.inverse(n / 2);
        let plan = Arc::new(C2rPlan::new(n, half_inv));
        let mut inner = self.inner.borrow_mut();
        inner.plans_built += 1;
        inner.plans_built_r2c += 1;
        inner.c2r.insert(n, Arc::clone(&plan));
        plan
    }

    /// Number of distinct plans built so far (cache misses), summed over
    /// every plan kind: c2c forward/inverse plus the r2c/c2r wrappers
    /// (whose inner half-length c2c plans are counted by the c2c tally
    /// when first built).
    pub fn plans_built(&self) -> usize {
        self.inner.borrow().plans_built
    }

    /// Number of distinct complex-to-complex plans built so far.
    pub fn plans_built_c2c(&self) -> usize {
        self.inner.borrow().plans_built_c2c
    }

    /// Number of distinct r2c/c2r wrapper plans built so far. Counted
    /// apart from [`plans_built_c2c`](Self::plans_built_c2c): a cache
    /// keyed only by length would silently alias a length-`n` r2c plan
    /// with a length-`n` c2c plan, which compute different transforms.
    pub fn plans_built_r2c(&self) -> usize {
        self.inner.borrow().plans_built_r2c
    }

    /// Number of plan lookups (any kind) served so far.
    pub fn plan_requests(&self) -> usize {
        self.inner.borrow().plan_requests
    }

    /// Number of plan lookups answered from cache.
    pub fn plan_hits(&self) -> usize {
        self.inner.borrow().plan_hits
    }

    /// Number of physical FFT executions run through the workspace. A
    /// packed r2c/c2r transform counts 1 (one half-length FFT); a batched
    /// permutation pass over `m` rounds counts `⌈m/2⌉` in
    /// [`SpectralMode::RealHalf`] (two rounds per FFT) and `m` in
    /// [`SpectralMode::ComplexFull`].
    pub fn transforms_run(&self) -> usize {
        self.inner.borrow().transforms_run
    }

    /// Runs the forward DFT of `samples` into the recycled buffer and hands
    /// the *full* complex spectrum to `f`. No allocation occurs once the
    /// buffers have grown to the working length. This is always a
    /// complex-to-complex transform, regardless of [`SpectralMode`].
    pub fn with_spectrum<R>(&self, samples: &[f64], f: impl FnOnce(&[Complex<f64>]) -> R) -> R {
        let fft = self.forward(samples.len());
        let (mut buffer, mut scratch) = self.take_buffers();
        buffer.clear();
        buffer.extend(samples.iter().map(|&v| Complex::new(v, 0.0)));
        run_in_place(&*fft, &mut buffer, &mut scratch);
        let out = f(&buffer);
        self.put_buffers(buffer, scratch, 1);
        out
    }

    /// Runs the forward DFT of real `samples` and hands the *one-sided*
    /// spectrum `X(0..=n/2)` to `f` — everything a real signal carries, by
    /// Hermitian symmetry. In [`SpectralMode::RealHalf`] an even-length
    /// series runs through the packed half-length [`R2cPlan`] (half the
    /// transform work); odd lengths and [`SpectralMode::ComplexFull`] run
    /// the full complex transform and hand out its first `n/2 + 1` bins,
    /// bit-for-bit those of [`with_spectrum`](Self::with_spectrum).
    pub fn with_half_spectrum<R>(
        &self,
        samples: &[f64],
        f: impl FnOnce(&[Complex<f64>]) -> R,
    ) -> R {
        let n = samples.len();
        if n == 0 {
            return f(&[]);
        }
        if self.mode == SpectralMode::ComplexFull || !n.is_multiple_of(2) {
            return self.with_spectrum(samples, |spectrum| f(&spectrum[..n / 2 + 1]));
        }
        let plan = self.r2c(n);
        let (mut buffer, mut scratch) = self.take_buffers();
        let mut half = self.take_half();
        plan.process(samples, &mut buffer, &mut half, &mut scratch);
        let out = f(&half);
        self.put_half(half);
        self.put_buffers(buffer, scratch, 1);
        out
    }

    /// Computes the *raw* (unnormalized) circular autocorrelation of
    /// `samples` via Wiener–Khinchin — zero-pad to the next power of two at
    /// or above `2·len` (making the circular convolution linear), forward
    /// transform, squared magnitude, inverse transform — and hands the
    /// padded real result buffer to `f`. Entries `0..len` are the
    /// meaningful lags, scaled by the padded length `p` exactly like the
    /// unnormalized full-length round trip; callers normalize by the lag-0
    /// value.
    ///
    /// In [`SpectralMode::RealHalf`] the round trip runs packed
    /// ([`R2cPlan`] → `|X|²` over the half spectrum → [`C2rPlan`]): the
    /// padded length is a power of two, so this path always applies. In
    /// [`SpectralMode::ComplexFull`] the legacy full complex round trip
    /// runs and the real parts are handed to `f`, bit-for-bit the pre-r2c
    /// values. All plans come from the cache and every buffer is recycled.
    pub fn with_autocorrelation<R>(&self, samples: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
        let padded = (2 * samples.len()).next_power_of_two();
        if self.mode == SpectralMode::ComplexFull || padded < 2 {
            let fwd = self.forward(padded);
            let inv = self.inverse(padded);
            let (mut buffer, mut scratch) = self.take_buffers();
            let mut real = self.take_real();
            buffer.clear();
            buffer.extend(samples.iter().map(|&v| Complex::new(v, 0.0)));
            buffer.resize(padded, ZERO);
            run_in_place(&*fwd, &mut buffer, &mut scratch);
            for v in buffer.iter_mut() {
                *v = Complex::new(v.norm_sqr(), 0.0);
            }
            run_in_place(&*inv, &mut buffer, &mut scratch);
            real.clear();
            real.extend(buffer.iter().map(|c| c.re));
            let out = f(&real);
            self.put_real(real);
            self.put_buffers(buffer, scratch, 2);
            return out;
        }
        let r2c = self.r2c(padded);
        let c2r = self.c2r(padded);
        let (mut buffer, mut scratch) = self.take_buffers();
        let mut half = self.take_half();
        let mut real = self.take_real();
        real.clear();
        real.extend_from_slice(samples);
        real.resize(padded, 0.0);
        r2c.process(&real, &mut buffer, &mut half, &mut scratch);
        for v in half.iter_mut() {
            *v = Complex::new(v.norm_sqr(), 0.0);
        }
        c2r.process(&half, &mut buffer, &mut real, &mut scratch);
        let out = f(&real);
        self.put_real(real);
        self.put_half(half);
        self.put_buffers(buffer, scratch, 2);
        out
    }

    /// Batched spectral maxima for the permutation filter: `rows` is a
    /// contiguous `m × n` matrix of shuffled series (row-major), and the
    /// result holds, per row, the maximum *unnormalized* power
    /// `|X(k)|²` over the one-sided bins `k = 1..=n/2` (callers divide by
    /// `n` once — exact for the maximum, since division by a positive
    /// constant is monotone under IEEE round-to-nearest).
    ///
    /// In [`SpectralMode::RealHalf`] consecutive rows are packed two per
    /// complex FFT (`z = a + i·b`) and separated per bin by Hermitian
    /// symmetry, halving the transform count at *every* length; a trailing
    /// odd row runs through the single-series half-spectrum path. In
    /// [`SpectralMode::ComplexFull`] each row runs its own full transform,
    /// making every per-row maximum bit-identical to the unbatched legacy
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len()` is not a multiple of `n` (debug builds).
    pub fn shuffled_half_power_maxima(&self, rows: &[f64], n: usize) -> Vec<f64> {
        debug_assert!(n > 0 && rows.len().is_multiple_of(n));
        let m = rows.len() / n;
        let mut maxima = Vec::with_capacity(m);
        if n < 2 {
            maxima.resize(m, 0.0);
            return maxima;
        }
        if self.mode == SpectralMode::ComplexFull {
            let fft = self.forward(n);
            let (mut buffer, mut scratch) = self.take_buffers();
            let mut ran = 0usize;
            for row in rows.chunks_exact(n) {
                buffer.clear();
                buffer.extend(row.iter().map(|&v| Complex::new(v, 0.0)));
                run_in_place(&*fft, &mut buffer, &mut scratch);
                ran += 1;
                let max = buffer[1..=n / 2]
                    .iter()
                    .map(Complex::norm_sqr)
                    .fold(0.0, f64::max);
                maxima.push(max);
            }
            self.put_buffers(buffer, scratch, ran);
            return maxima;
        }

        let mut pairs = rows.chunks_exact(2 * n);
        if m >= 2 {
            // The full-length plan is only needed when at least one pair of
            // rounds rides a packed transform; a lone row (m = 1) goes
            // straight to the half-spectrum path below.
            let fft = self.forward(n);
            let (mut buffer, mut scratch) = self.take_buffers();
            let mut ran = 0usize;
            for pair in pairs.by_ref() {
                let (a, b) = pair.split_at(n);
                buffer.clear();
                buffer.extend(a.iter().zip(b).map(|(&x, &y)| Complex::new(x, y)));
                run_in_place(&*fft, &mut buffer, &mut scratch);
                ran += 1;
                let mut max_a = 0.0f64;
                let mut max_b = 0.0f64;
                for k in 1..=n / 2 {
                    let zk = buffer[k];
                    let zc = buffer[n - k].conj();
                    // A(k) = (zk + zc)/2, B(k) = (zk − zc)/(2i): only the
                    // squared magnitudes are needed, so no twiddles appear.
                    max_a = max_a.max(0.25 * (zk + zc).norm_sqr());
                    max_b = max_b.max(0.25 * (zk - zc).norm_sqr());
                }
                maxima.push(max_a);
                maxima.push(max_b);
            }
            self.put_buffers(buffer, scratch, ran);
        }

        let rest = pairs.remainder();
        if !rest.is_empty() {
            // Odd trailing row: one single-series half-spectrum transform.
            let max = self.with_half_spectrum(rest, |spectrum| {
                spectrum[1..=n / 2]
                    .iter()
                    .map(Complex::norm_sqr)
                    .fold(0.0, f64::max)
            });
            maxima.push(max);
        }
        maxima
    }

    /// Detaches the recycled buffers so a transform can run without holding
    /// the `RefCell` borrow — re-entrant calls (a closure that itself uses
    /// the workspace) then simply start from empty buffers instead of
    /// panicking.
    fn take_buffers(&self) -> (Vec<Complex<f64>>, Vec<Complex<f64>>) {
        let mut inner = self.inner.borrow_mut();
        (
            std::mem::take(&mut inner.buffer),
            std::mem::take(&mut inner.scratch),
        )
    }

    fn put_buffers(&self, buffer: Vec<Complex<f64>>, scratch: Vec<Complex<f64>>, ran: usize) {
        let mut inner = self.inner.borrow_mut();
        // Keep the larger allocation: nested use may have grown a fresh pair.
        if buffer.capacity() >= inner.buffer.capacity() {
            inner.buffer = buffer;
        }
        if scratch.capacity() >= inner.scratch.capacity() {
            inner.scratch = scratch;
        }
        inner.transforms_run += ran;
    }

    fn take_half(&self) -> Vec<Complex<f64>> {
        std::mem::take(&mut self.inner.borrow_mut().half)
    }

    fn put_half(&self, half: Vec<Complex<f64>>) {
        let mut inner = self.inner.borrow_mut();
        if half.capacity() >= inner.half.capacity() {
            inner.half = half;
        }
    }

    fn take_real(&self) -> Vec<f64> {
        std::mem::take(&mut self.inner.borrow_mut().real)
    }

    fn put_real(&self, real: Vec<f64>) {
        let mut inner = self.inner.borrow_mut();
        if real.capacity() >= inner.real.capacity() {
            inner.real = real;
        }
    }

    /// Lends the recycled two-round arena of the permutation filter (see
    /// [`shuffled_half_power_maxima`](Self::shuffled_half_power_maxima))
    /// to `f`, detached like the other buffers so `f` may use the workspace.
    pub(crate) fn with_rows<R>(&self, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        let mut rows = std::mem::take(&mut self.inner.borrow_mut().rows);
        let out = f(&mut rows);
        let mut inner = self.inner.borrow_mut();
        if rows.capacity() >= inner.rows.capacity() {
            inner.rows = rows;
        }
        out
    }
}

/// Runs `fft` in place over `buffer`, growing `scratch` as required.
fn run_in_place(fft: &dyn Fft<f64>, buffer: &mut [Complex<f64>], scratch: &mut Vec<Complex<f64>>) {
    let need = fft.get_inplace_scratch_len();
    if scratch.len() < need {
        scratch.resize(need, ZERO);
    }
    fft.process_with_scratch(buffer, scratch);
}

impl Default for SpectralWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SpectralWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("SpectralWorkspace")
            .field("mode", &self.mode)
            .field("forward_plans", &inner.forward.len())
            .field("inverse_plans", &inner.inverse.len())
            .field("r2c_plans", &inner.r2c.len())
            .field("c2r_plans", &inner.c2r.len())
            .field("plans_built", &inner.plans_built)
            .field("plan_requests", &inner.plan_requests)
            .field("plan_hits", &inner.plan_hits)
            .field("transforms_run", &inner.transforms_run)
            .finish()
    }
}

thread_local! {
    static THREAD_WORKSPACE: SpectralWorkspace = SpectralWorkspace::new();
}

/// Runs `f` with the calling thread's shared [`SpectralWorkspace`].
///
/// This is how the detection pipeline gets plan reuse without threading a
/// workspace through every signature: `Periodogram::compute`,
/// `permutation_threshold`, `Autocorrelation::compute` and
/// `PeriodicityDetector::detect` all route here, so a MapReduce worker
/// thread builds each plan once per window and reuses it for every pair
/// and every permutation round it processes. The thread workspace runs in
/// the default [`SpectralMode::RealHalf`].
pub fn with_thread_workspace<R>(f: impl FnOnce(&SpectralWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference spectrum computed the way the seed code did: fresh
    /// planner, fresh buffers, every call.
    fn naive_spectrum(samples: &[f64]) -> Vec<Complex<f64>> {
        let mut buf: Vec<Complex<f64>> = samples.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let mut planner = FftPlanner::new();
        planner.plan_fft_forward(samples.len()).process(&mut buf);
        buf
    }

    fn test_samples(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 7.3).sin() + 0.1 * i as f64)
            .collect()
    }

    /// Tolerance for comparing two FFT algorithms on the same input:
    /// relative to the spectrum's largest magnitude, a generous multiple
    /// of the O(ε·log n) FFT rounding bound.
    fn spectral_tolerance(reference: &[Complex<f64>]) -> f64 {
        let scale = reference
            .iter()
            .map(|v| v.norm_sqr())
            .fold(0.0, f64::max)
            .sqrt();
        1e-12 * scale.max(1.0)
    }

    #[test]
    fn spectrum_matches_fresh_planner_exactly() {
        let ws = SpectralWorkspace::new();
        for n in [8usize, 60, 256, 1000] {
            let samples = test_samples(n);
            let expected = naive_spectrum(&samples);
            ws.with_spectrum(&samples, |got| {
                assert_eq!(got.len(), expected.len());
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(g, e, "n = {n}");
                }
            });
        }
    }

    #[test]
    fn half_spectrum_matches_full_spectrum() {
        // The packed r2c unpack agrees with the full complex transform to
        // within FFT rounding at every even length, including tiny ones.
        let ws = SpectralWorkspace::new();
        for n in [2usize, 4, 6, 8, 60, 96, 128, 256, 1000] {
            let samples = test_samples(n);
            let expected = naive_spectrum(&samples);
            let tol = spectral_tolerance(&expected);
            ws.with_half_spectrum(&samples, |got| {
                assert_eq!(got.len(), n / 2 + 1, "n = {n}");
                for (k, (g, e)) in got.iter().zip(&expected).enumerate() {
                    assert!(
                        (g - e).norm() <= tol,
                        "n = {n}, bin {k}: {g} vs {e} (tol {tol})"
                    );
                }
            });
        }
    }

    #[test]
    fn half_spectrum_odd_and_complex_full_are_bit_exact() {
        // Odd lengths (no r2c packing) and ComplexFull mode both hand out
        // the full transform's leading bins, bit-for-bit.
        let odd = test_samples(61);
        let expected = naive_spectrum(&odd);
        let ws = SpectralWorkspace::new();
        ws.with_half_spectrum(&odd, |got| {
            assert_eq!(got.len(), 31);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g, e);
            }
        });

        let even = test_samples(64);
        let expected = naive_spectrum(&even);
        let legacy = SpectralWorkspace::with_mode(SpectralMode::ComplexFull);
        legacy.with_half_spectrum(&even, |got| {
            assert_eq!(got.len(), 33);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g, e);
            }
        });
    }

    #[test]
    fn plans_are_cached_per_length() {
        let ws = SpectralWorkspace::new();
        let samples = test_samples(128);
        for _ in 0..10 {
            ws.with_spectrum(&samples, |_| ());
        }
        assert_eq!(ws.plans_built(), 1);
        assert_eq!(ws.transforms_run(), 10);
        assert_eq!(ws.plan_requests(), 10);
        assert_eq!(ws.plan_hits(), 9);

        let other = test_samples(96);
        ws.with_spectrum(&other, |_| ());
        assert_eq!(ws.plans_built(), 2);
    }

    #[test]
    fn r2c_and_c2c_plans_do_not_alias() {
        // Regression: a same-length r2c and c2c request must build two
        // distinct plans — a cache keyed only by length would alias them.
        let ws = SpectralWorkspace::new();
        let samples = test_samples(64);
        ws.with_spectrum(&samples, |_| ());
        assert_eq!((ws.plans_built_c2c(), ws.plans_built_r2c()), (1, 0));

        ws.with_half_spectrum(&samples, |_| ());
        // The r2c wrapper plus its inner half-length (32) c2c plan.
        assert_eq!((ws.plans_built_c2c(), ws.plans_built_r2c()), (2, 1));
        assert_eq!(ws.plans_built(), 3);

        // Both caches now hit; no further builds.
        ws.with_spectrum(&samples, |_| ());
        ws.with_half_spectrum(&samples, |_| ());
        assert_eq!(ws.plans_built(), 3);
        assert_eq!(
            ws.plans_built(),
            ws.plans_built_c2c() + ws.plans_built_r2c()
        );
    }

    #[test]
    fn forward_and_inverse_plans_are_distinct() {
        let ws = SpectralWorkspace::new();
        let f = ws.forward(64);
        let i = ws.inverse(64);
        assert_eq!(ws.plans_built(), 2);
        // Round trip: forward then inverse scales by n.
        let mut buf: Vec<Complex<f64>> = test_samples(64)
            .iter()
            .map(|&v| Complex::new(v, 0.0))
            .collect();
        let original = buf.clone();
        f.process(&mut buf);
        i.process(&mut buf);
        for (got, want) in buf.iter().zip(&original) {
            assert!((got.re / 64.0 - want.re).abs() < 1e-9);
            assert!((got.im / 64.0 - want.im).abs() < 1e-9);
        }
    }

    #[test]
    fn autocorrelation_lag0_dominates() {
        let ws = SpectralWorkspace::new();
        let samples = test_samples(100);
        ws.with_autocorrelation(&samples, |buf| {
            assert_eq!(buf.len(), 256); // (2·100).next_power_of_two()
            let r0 = buf[0];
            assert!(r0 > 0.0);
            for (lag, v) in buf.iter().enumerate().take(100).skip(1) {
                assert!(v.abs() <= r0 * (1.0 + 1e-9), "lag {lag}");
            }
        });
        // Packed round trip: r2c + c2r wrappers, each with an inner
        // half-length (128) c2c plan; two physical FFT executions.
        assert_eq!(ws.plans_built(), 4);
        assert_eq!(ws.plans_built_r2c(), 2);
        assert_eq!(ws.transforms_run(), 2);
    }

    #[test]
    fn autocorrelation_modes_agree() {
        let samples = test_samples(100);
        let legacy = SpectralWorkspace::with_mode(SpectralMode::ComplexFull);
        let packed = SpectralWorkspace::new();
        let expected = legacy.with_autocorrelation(&samples, |buf| buf.to_vec());
        // Legacy mode keeps the pre-r2c plan/transform accounting.
        assert_eq!(legacy.plans_built(), 2);
        assert_eq!(legacy.transforms_run(), 2);
        packed.with_autocorrelation(&samples, |got| {
            assert_eq!(got.len(), expected.len());
            let tol = 1e-9 * expected[0].abs().max(1.0);
            for (lag, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert!((g - e).abs() <= tol, "lag {lag}: {g} vs {e}");
            }
        });
    }

    #[test]
    fn batched_maxima_match_per_row_transforms() {
        // RealHalf batching (two rounds per FFT) agrees with row-by-row
        // full transforms; ComplexFull batching is bit-identical to them.
        for n in [7usize, 12, 31, 60] {
            for m in [1usize, 2, 3, 20] {
                let rows: Vec<f64> = (0..m * n)
                    .map(|i| (i as f64 * 0.37).sin() + 0.05 * (i % n) as f64)
                    .collect();
                let reference: Vec<f64> = rows
                    .chunks_exact(n)
                    .map(|row| {
                        naive_spectrum(row)[1..=n / 2]
                            .iter()
                            .map(Complex::norm_sqr)
                            .fold(0.0, f64::max)
                    })
                    .collect();

                let legacy = SpectralWorkspace::with_mode(SpectralMode::ComplexFull);
                let got = legacy.shuffled_half_power_maxima(&rows, n);
                assert_eq!(got, reference, "ComplexFull n={n} m={m}");
                assert_eq!(legacy.transforms_run(), m);

                let packed = SpectralWorkspace::new();
                let got = packed.shuffled_half_power_maxima(&rows, n);
                assert_eq!(got.len(), m);
                assert_eq!(packed.transforms_run(), m.div_ceil(2));
                for (i, (g, e)) in got.iter().zip(&reference).enumerate() {
                    let tol = 1e-9 * e.max(1.0);
                    assert!((g - e).abs() <= tol, "RealHalf n={n} m={m} row {i}");
                }
            }
        }
    }

    #[test]
    fn reentrant_use_does_not_panic() {
        let ws = SpectralWorkspace::new();
        let outer = test_samples(64);
        let inner = test_samples(32);
        let expected = naive_spectrum(&inner);
        ws.with_spectrum(&outer, |_| {
            // Nested use of the same workspace from inside a closure.
            ws.with_spectrum(&inner, |got| {
                for (g, e) in got.iter().zip(&expected) {
                    assert_eq!(g, e);
                }
            });
        });
    }

    #[test]
    fn thread_workspace_persists_across_calls() {
        let before = with_thread_workspace(|ws| ws.plans_built());
        let samples = test_samples(333);
        with_thread_workspace(|ws| ws.with_spectrum(&samples, |_| ()));
        with_thread_workspace(|ws| ws.with_spectrum(&samples, |_| ()));
        let after = with_thread_workspace(|ws| ws.plans_built());
        // Both calls hit the same per-thread cache: one new plan at most
        // (another test on this thread may have planned length 333 first).
        assert!(after <= before + 1);
    }

    #[test]
    fn debug_format_mentions_plan_counts() {
        let ws = SpectralWorkspace::new();
        ws.forward(16);
        let s = format!("{ws:?}");
        assert!(s.contains("plans_built"), "{s}");
        assert!(s.contains("r2c_plans"), "{s}");
    }
}
