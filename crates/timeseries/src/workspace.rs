//! Spectral workspace — every transform at a power-of-two length, every
//! plan from one process-wide table.
//!
//! Every step of the detection pipeline is FFT-bound: the periodogram
//! (Step 1) transforms the count series once, the permutation filter
//! transforms up to `m` shuffled copies of it, and the ACF verifier
//! (Step 3) runs a forward/inverse pair for a series with too many events
//! to correlate pairwise ([`acf`](crate::acf)). A pair's series has the
//! accidental length `n = last − first + 1` bins, and transforming at that
//! length makes cost a function of `n`'s factorisation (a prime `n` needs a
//! Bluestein or Rader transform, several times the work of its
//! power-of-two neighbour) and makes every pair need plans of its own. The
//! workspace therefore owns one rule:
//!
//! **Every transform runs at a power-of-two length.** The `n` observed bins
//! are zero-padded inside the recycled buffers — to `N = n.next_power_of_two()`
//! for the spectrum ([`with_half_spectrum`](SpectralWorkspace::with_half_spectrum)
//! and the permutation filter's placed rounds) and to the next power of two
//! at or above `2n` for the linear autocorrelation
//! ([`with_autocorrelation`](SpectralWorkspace::with_autocorrelation)).
//! Padding a (mean-centered) series with zeros does not change its
//! discrete-time Fourier transform `X(f) = Σ_j x_j·e^(−2πifj)`; it only
//! changes where that one function is sampled — at `f = k/N` instead of
//! `k/n`. Parseval then reads `Σ_k |X(k)|² = N·Σ_j x_j²` over the `N` bins.
//!
//! # One plan table per process
//!
//! With only powers of two left there are at most `log2` many lengths
//! (22 under the default `max_bins = 2²⁰`: the ACF pads to `2²¹`), so plans
//! live in four process-wide tables — complex forward, complex inverse,
//! and the real-to-complex / complex-to-real wrappers below — indexed by
//! `log2 N`. Each entry is built at most once per process (a
//! [`OnceLock`]) and then shared by every reduce thread of every job, every
//! window and the stream thread; a long-lived process can never hold more
//! than `4 × usize::BITS` plans. A [`SpectralWorkspace`] keeps what is
//! per-thread: the recycled complex, real and half-spectrum buffers, the
//! permutation filter's round state, and counters of its own traffic
//! against the tables. It is deliberately
//! single-threaded (`!Sync`, interior mutability via [`RefCell`]); each
//! worker thread reaches its own through [`with_thread_workspace`].
//!
//! # Real-valued spectral path
//!
//! Detection input is always real (binned event counts), so the full
//! complex DFT computes every output twice: `X(N−k) = conj(X(k))`. The
//! workspace exploits that Hermitian symmetry two ways:
//!
//! - **Single series** (`with_half_spectrum`, `with_autocorrelation`): the
//!   padded real series of length `N` is packed into a half-length complex
//!   series `z(j) = x(2j) + i·x(2j+1)`, transformed with one FFT of length
//!   `N/2`, and unpacked into the one-sided spectrum `X(0..=N/2)` with
//!   `O(N)` twiddle arithmetic — about half the transform work. The packed
//!   input is written straight from the series' events: `−μ` on the `n`
//!   observed bins, `v − μ` on each event bin, zeros up to `N`. No dense
//!   copy of the series exists.
//! - **Batched permutation rounds** (`placed_power_maxima`): two shuffle
//!   *rounds* `a`, `b` ride one complex transform as `z = a + i·b` and
//!   are separated per bin by `A(k) = (Z(k) + conj(Z(N−k)))/2`,
//!   `B(k) = (Z(k) − conj(Z(N−k)))/(2i)`.
//!
//! # A round is its events
//!
//! A shuffle round reaches the workspace as a *placement* — the series'
//! `c` non-zero bin values and the `c` positions they were dropped on —
//! never as `n` dense bins, and its transform starts from those events.
//! Split `N = L·M`, `t = t₁ + L·t₂`, `k = M·k₁ + k₂`; then
//!
//! ```text
//! Z(M·k₁ + k₂) = Σ_{t₁<L} W_L^{t₁k₁} · G_{k₂}[t₁],
//! G_{k₂}[t₁]   = Σ_{t ≡ t₁ (mod L)} z(t) · W_N^{t·k₂}
//! ```
//!
//! — the first `log2 M` decimation-in-frequency passes of the length-`N`
//! transform, written out. On a dense input they cost `N·log2 M`
//! butterflies; here row `k₂` is one phasor update per event on top of the
//! closed-form row of the `−μ` centring plateau, so the round costs
//! `events·M` updates plus `M` FFTs of length `L` that stay in cache.
//! `M` follows from `(N, events)` alone (`placed_rows`) and `M = 1` is the
//! plain packed transform, so there is one code path and nothing to
//! configure. The phasors are the twiddle table of the length-`N` r2c plan
//! the pair's periodogram has just used; nothing is built ahead of use.
//!
//! The tests hold every path to one dense reference: a full complex
//! transform of the densified, padded series, kept on `fft::Plan` under
//! `cfg(test)` only.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::fft::{twiddle, Complex, Direction, Plan};
use crate::series::TimeSeries;

/// One slot per `log2 N`; see the module docs.
type PlanTable<P> = [OnceLock<P>; usize::BITS as usize];

static FORWARD: PlanTable<Plan> = [const { OnceLock::new() }; usize::BITS as usize];
static INVERSE: PlanTable<Plan> = [const { OnceLock::new() }; usize::BITS as usize];
static R2C: PlanTable<R2cPlan> = [const { OnceLock::new() }; usize::BITS as usize];
static C2R: PlanTable<C2rPlan> = [const { OnceLock::new() }; usize::BITS as usize];

/// The calling thread's transform buffers and its counters against the
/// process-wide plan tables.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::series::TimeSeries;
/// use baywatch_timeseries::workspace::SpectralWorkspace;
///
/// let ws = SpectralWorkspace::new();
/// // Six observed bins are transformed at N = 8: five one-sided bins.
/// let six = TimeSeries::from_timestamps(&[0, 2, 4, 5], 1).unwrap();
/// let bins = ws.with_half_spectrum(&six, |spectrum| spectrum.len());
/// assert_eq!(bins, 8 / 2 + 1);
/// // Lengths 5..=8 share that plan, whichever thread built it.
/// let five = TimeSeries::from_timestamps(&[0, 2, 4], 1).unwrap();
/// ws.with_half_spectrum(&five, |_| ());
/// assert_eq!(ws.transforms_run(), 2);
/// assert!(ws.plan_hits() >= 1 && ws.plans_built() <= 2);
/// ```
pub struct SpectralWorkspace {
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Recycled complex working buffer (the transform target).
    buffer: Vec<Complex>,
    /// Recycled one-sided (half) spectrum buffer for the r2c path.
    half: Vec<Complex>,
    /// Recycled real output buffer of the c2r path.
    real: Vec<f64>,
    /// Recycled round state of the permutation filter.
    placement: Placement,
    plans_built_c2c: usize,
    plans_built_r2c: usize,
    plan_requests: usize,
    transforms_run: usize,
}

/// Which of a workspace's two build tallies a plan counts toward.
#[derive(Clone, Copy)]
enum PlanKind {
    C2c,
    Wrapper,
}

/// What the permutation filter keeps per pair and per packed pair of
/// rounds, lent by [`SpectralWorkspace::with_placement`] so no pair
/// allocates: a shuffle round never exists as a dense series, only as the
/// positions its non-zero bins landed on.
#[derive(Default)]
pub(crate) struct Placement {
    /// Index permutation of the pair's `n` bins. Each round's partial
    /// Fisher–Yates continues from wherever the last one left it.
    pub(crate) order: Vec<u32>,
    /// The pair's non-zero bin values, in series order.
    pub(crate) values: Vec<f64>,
    /// The positions the current rounds drew: `values.len()` per round.
    pub(crate) spots: Vec<u32>,
}

/// A real-to-complex transform of power-of-two real length `n`: the packed
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
struct R2cPlan {
    n: usize,
    half_fft: &'static Plan,
    /// `W(k) = e^(−2πik/n)` for `k = 0..=n/2`.
    twiddles: Vec<Complex>,
}

impl R2cPlan {
    fn new(n: usize, half_fft: &'static Plan) -> Self {
        Self {
            n,
            half_fft,
            twiddles: twiddle_table(n),
        }
    }

    /// Transforms the mean-centred `series` — at most `n` bins,
    /// zero-padded to `n` — into the one-sided spectrum `out[k] = X(k)` for
    /// `k = 0..=n/2`, using `work` for the packed half-length FFT.
    fn process(&self, series: &TimeSeries, work: &mut Vec<Complex>, out: &mut Vec<Complex>) {
        let h = self.n / 2;
        load_centred(work, series, h);
        self.half_fft.run(work);
        out.clear();
        out.reserve(h + 1);
        for (k, w) in self.twiddles.iter().enumerate() {
            let zk = work[k % h];
            let zc = work[(h - k) % h].conj();
            let s = zk + zc;
            let d = zk - zc;
            let wd = *w * d;
            // X(k) = (s − i·w·d)/2, with i·wd = (−wd.im, wd.re).
            out.push(Complex::new(0.5 * (s.re + wd.im), 0.5 * (s.im - wd.re)));
        }
    }
}

/// A complex-to-real inverse transform of power-of-two real length `n`:
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
struct C2rPlan {
    n: usize,
    half_inv: &'static Plan,
    /// `W(k) = e^(−2πik/n)` for `k = 0..=n/2`.
    twiddles: Vec<Complex>,
}

impl C2rPlan {
    fn new(n: usize, half_inv: &'static Plan) -> Self {
        Self {
            n,
            half_inv,
            twiddles: twiddle_table(n),
        }
    }

    /// Transforms the one-sided spectrum `spectrum` (length `n/2 + 1`)
    /// into the real series `out` (length `n`, scaled by `n` like the
    /// unnormalized full-length inverse FFT).
    fn process(&self, spectrum: &[Complex], work: &mut Vec<Complex>, out: &mut Vec<f64>) {
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
        self.half_inv.run(work);
        out.clear();
        out.reserve(self.n);
        out.extend(work.iter().flat_map(|z| [2.0 * z.re, 2.0 * z.im]));
    }
}

/// `W(k) = e^(−2πik/n)` for `k = 0..=n/2`.
fn twiddle_table(n: usize) -> Vec<Complex> {
    (0..=n / 2)
        .map(|k| twiddle(k, n, Direction::Forward))
        .collect()
}

/// The transform length for `bins` real samples: the next power of two, at
/// least 2 so the packed half-length FFT exists.
pub(crate) fn padded_len(bins: usize) -> usize {
    bins.next_power_of_two().max(2)
}

impl SpectralWorkspace {
    /// Creates a workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            inner: RefCell::default(),
        }
    }

    /// The process's plan in `slot`, built by this call if no thread has
    /// yet; counts the request, and the build when it happened here.
    fn fetch<P>(
        &self,
        slot: &'static OnceLock<P>,
        kind: PlanKind,
        build: impl FnOnce() -> P,
    ) -> &'static P {
        let mut built = false;
        let plan = slot.get_or_init(|| {
            built = true;
            build()
        });
        let mut inner = self.inner.borrow_mut();
        inner.plan_requests += 1;
        if built {
            match kind {
                PlanKind::C2c => inner.plans_built_c2c += 1,
                PlanKind::Wrapper => inner.plans_built_r2c += 1,
            }
        }
        plan
    }

    /// The complex plan of power-of-two length `n`.
    fn c2c(&self, n: usize, direction: Direction) -> &'static Plan {
        let table = match direction {
            Direction::Forward => &FORWARD,
            Direction::Inverse => &INVERSE,
        };
        let slot = &table[n.trailing_zeros() as usize];
        self.fetch(slot, PlanKind::C2c, || Plan::new(n, direction))
    }

    /// The real-to-complex plan of power-of-two real length `n >= 2` (its
    /// inner half-length complex plan comes from the same tables).
    fn r2c(&self, n: usize) -> &'static R2cPlan {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let slot = &R2C[n.trailing_zeros() as usize];
        self.fetch(slot, PlanKind::Wrapper, || {
            R2cPlan::new(n, self.c2c(n / 2, Direction::Forward))
        })
    }

    /// The complex-to-real plan of power-of-two real length `n >= 2`.
    fn c2r(&self, n: usize) -> &'static C2rPlan {
        debug_assert!(n.is_power_of_two() && n >= 2);
        let slot = &C2R[n.trailing_zeros() as usize];
        self.fetch(slot, PlanKind::Wrapper, || {
            C2rPlan::new(n, self.c2c(n / 2, Direction::Inverse))
        })
    }

    /// Number of plans *this workspace* built, over every kind: a plan is
    /// built by whichever thread asks for it first in the process, so a
    /// workspace that finds the tables warm reports 0, and the sum over all
    /// workspaces of a process is the number of distinct `(kind, N)` used.
    pub fn plans_built(&self) -> usize {
        let inner = self.inner.borrow();
        inner.plans_built_c2c + inner.plans_built_r2c
    }

    /// Number of complex-to-complex plans this workspace built (including
    /// the half-length ones inside the r2c/c2r wrappers it built).
    pub fn plans_built_c2c(&self) -> usize {
        self.inner.borrow().plans_built_c2c
    }

    /// Number of r2c/c2r wrapper plans this workspace built.
    pub fn plans_built_r2c(&self) -> usize {
        self.inner.borrow().plans_built_r2c
    }

    /// Number of plan lookups (any kind) this workspace made.
    pub fn plan_requests(&self) -> usize {
        self.inner.borrow().plan_requests
    }

    /// Number of plan lookups answered by an already-built table entry.
    pub fn plan_hits(&self) -> usize {
        self.plan_requests() - self.plans_built()
    }

    /// Number of transforms run through the workspace. A packed r2c/c2r
    /// transform counts 1 (one half-length FFT); a permutation pass over
    /// `m` rounds counts `⌈m/2⌉` — one per packed pair of rounds, into
    /// however many rows it was split.
    pub fn transforms_run(&self) -> usize {
        self.inner.borrow().transforms_run
    }

    /// Centres `series` on its mean, zero-pads its `n` bins to
    /// `N = n.next_power_of_two()`, runs the forward DFT through the packed
    /// half-length real-to-complex plan and hands the *one-sided* spectrum
    /// `X(0..=N/2)` to `f` — everything a real signal carries, by Hermitian
    /// symmetry. Bin `k` is the series' discrete-time Fourier transform at
    /// `k/N` cycles per sample.
    pub fn with_half_spectrum<R>(&self, series: &TimeSeries, f: impl FnOnce(&[Complex]) -> R) -> R {
        let plan = self.r2c(padded_len(series.len()));
        let mut buffer = self.take_buffer();
        let mut half = self.take_half();
        plan.process(series, &mut buffer, &mut half);
        let out = f(&half);
        self.put_half(half);
        self.put_buffer(buffer, 1);
        out
    }

    /// Computes the *raw* (unnormalized) autocorrelation of the
    /// mean-centred `series` via Wiener–Khinchin — zero-pad to the next
    /// power of two `p` at or above `2n` (making the circular convolution
    /// linear), r2c, squared magnitude over the half spectrum, c2r — and
    /// hands the padded real result buffer to `f`. Entries `0..n` are the
    /// meaningful lags, scaled by `p` exactly like the unnormalized
    /// full-length round trip; callers normalize by the lag-0 value.
    pub fn with_autocorrelation<R>(&self, series: &TimeSeries, f: impl FnOnce(&[f64]) -> R) -> R {
        let padded = padded_len(2 * series.len());
        let r2c = self.r2c(padded);
        let c2r = self.c2r(padded);
        let mut buffer = self.take_buffer();
        let mut half = self.take_half();
        let mut real = self.take_real();
        r2c.process(series, &mut buffer, &mut half);
        for v in half.iter_mut() {
            *v = Complex::new(v.norm_sqr(), 0.0);
        }
        c2r.process(&half, &mut buffer, &mut real);
        let out = f(&real);
        self.put_real(real);
        self.put_half(half);
        self.put_buffer(buffer, 2);
        out
    }

    /// Spectral maxima of one packed pair of *placed* permutation rounds
    /// (`rounds` = 2, or 1 for the odd last round): each round is the
    /// series' non-zero bin `values` dropped on its own `values.len()`
    /// positions of `spots`, every other of the `n` observed bins zero,
    /// the whole centred by `mean` and zero-padded to `N` like
    /// [`with_half_spectrum`](Self::with_half_spectrum) pads the observed
    /// series. Returns, per round, the maximum *unnormalized* power
    /// `|X(k)|²` over `k = 1..=N/2` (callers divide by `n` once — exact
    /// for the maximum, since division by a positive constant is monotone
    /// under IEEE round-to-nearest).
    ///
    /// The rounds ride one transform as `z = a + i·b`, run as `M` rows
    /// from the events (module docs, "A round is its events"). Bin `N − k`
    /// lives in row `M − k₂` at column `L − 1 − k₁` (row 0: column
    /// `(L − k₁) mod L`), so rows are transformed in mirror pairs and split
    /// per bin by `A(k) = (Z(k) + conj(Z(N−k)))/2`,
    /// `B(k) = (Z(k) − conj(Z(N−k)))/(2i)`; only the two running maxima are
    /// kept.
    pub(crate) fn placed_power_maxima(
        &self,
        n: usize,
        mean: f64,
        values: &[f64],
        spots: &[u32],
        rounds: usize,
    ) -> [f64; 2] {
        debug_assert!(n >= 2 && (1..=2).contains(&rounds));
        debug_assert_eq!(spots.len(), rounds * values.len());
        let mut maxima = [0.0f64; 2];
        let (first, second) = spots.split_at(values.len());
        let padded = padded_len(n);
        let row_count = placed_rows(padded, spots.len());
        let len = padded / row_count;
        let fft = self.c2c(len, Direction::Forward);
        // The phasors `W_N^j` are the twiddles of the r2c plan the pair's
        // periodogram has just used; row 0 (all of `M = 1`) needs none.
        let table = (row_count > 1).then(|| self.r2c(padded));
        let rows = PlacedRows {
            len,
            n,
            level: Complex::new(-mean, if rounds == 2 { -mean } else { 0.0 }),
            values,
            spots: [first, second],
            phasors: table.map_or(&[], |plan| &plan.twiddles[..padded / 2]),
        };
        let mut row = self.take_buffer();
        let mut mirror = self.take_half();
        let transform = |k2: usize, out: &mut Vec<Complex>| {
            rows.fill(k2, out);
            fft.run(out);
        };
        transform(0, &mut row);
        for k1 in 1..=len / 2 {
            fold_split(&mut maxima, row[k1], row[len - k1]);
        }
        if row_count > 1 {
            transform(row_count / 2, &mut row);
            for k1 in 0..len / 2 {
                fold_split(&mut maxima, row[k1], row[len - 1 - k1]);
            }
            for k2 in 1..row_count / 2 {
                transform(k2, &mut row);
                transform(row_count - k2, &mut mirror);
                for (&zk, &zm) in row.iter().zip(mirror.iter().rev()) {
                    fold_split(&mut maxima, zk, zm);
                }
            }
        }
        self.put_half(mirror);
        self.put_buffer(row, 1);
        maxima.map(|quadrupled| 0.25 * quadrupled)
    }

    /// Detaches the recycled buffer so a transform can run without holding
    /// the `RefCell` borrow — re-entrant calls (a closure that itself uses
    /// the workspace) then simply start from an empty buffer instead of
    /// panicking.
    fn take_buffer(&self) -> Vec<Complex> {
        std::mem::take(&mut self.inner.borrow_mut().buffer)
    }

    fn put_buffer(&self, buffer: Vec<Complex>, ran: usize) {
        let mut inner = self.inner.borrow_mut();
        // Keep the larger allocation: nested use may have grown a fresh one.
        if buffer.capacity() >= inner.buffer.capacity() {
            inner.buffer = buffer;
        }
        inner.transforms_run += ran;
    }

    fn take_half(&self) -> Vec<Complex> {
        std::mem::take(&mut self.inner.borrow_mut().half)
    }

    fn put_half(&self, half: Vec<Complex>) {
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

    /// Lends the recycled [`Placement`] of the permutation filter to `f`,
    /// detached like the other buffers so `f` may use the workspace.
    pub(crate) fn with_placement<R>(&self, f: impl FnOnce(&mut Placement) -> R) -> R {
        let mut placement = std::mem::take(&mut self.inner.borrow_mut().placement);
        let out = f(&mut placement);
        let mut inner = self.inner.borrow_mut();
        if placement.order.capacity() >= inner.placement.order.capacity() {
            inner.placement = placement;
        }
        out
    }
}

/// How many rows `M` a packed pair of placed rounds is split into: the
/// largest power of two at most `N / events`, rows kept at least 64 bins
/// long. Doubling `M` costs one more phasor update per event and row and
/// saves one butterfly pass over the `N` bins; measured, the two balance
/// near `M·events ≈ N` (`results/pr23_sparse_rounds.md` lists the rules
/// tried). A series with more than `N/2` events gets `M = 1`, the plain
/// packed transform.
fn placed_rows(padded: usize, events: usize) -> usize {
    match (padded / events.max(1)).min(padded / 64) {
        0 => 1,
        cap => 1 << cap.ilog2(),
    }
}

/// The `M` rows of [`SpectralWorkspace::placed_power_maxima`].
struct PlacedRows<'a> {
    /// Row length `L`.
    len: usize,
    /// Observed bins: the centring plateau covers `[0, n)`.
    n: usize,
    /// A plateau bin of the packed pair, `−μ·(1 + i)` (`−μ` for a lone
    /// round).
    level: Complex,
    values: &'a [f64],
    spots: [&'a [u32]; 2],
    /// `W_N^j` for `j < N/2`; empty when row 0 is the only row.
    phasors: &'a [Complex],
}

impl PlacedRows<'_> {
    /// `W_N^j` for any `j`, from the half-turn table: `W^{j+N/2} = −W^j`,
    /// the minus sign XORed in (bit `log2 N − 1` of `j` moved onto the sign
    /// bits) so a random `j` costs no mispredicted branch. Index products
    /// may wrap: `N` divides the word size.
    fn phasor(&self, j: usize) -> Complex {
        let half = self.phasors.len();
        let w = self.phasors[j & (half - 1)];
        let flip = ((j & half) as u64) << (63 - half.trailing_zeros());
        Complex::new(
            f64::from_bits(w.re.to_bits() ^ flip),
            f64::from_bits(w.im.to_bits() ^ flip),
        )
    }

    /// `Σ_{t₂<count} W_M^{t₂·k₂}` for `0 < k₂ < M`, `count >= 1`: the
    /// Dirichlet kernel `e^(−iθ(count−1)/2)·sin(θ·count/2)/sin(θ/2)` at
    /// `θ = 2πk₂/M`, every factor read off the table (`sin x = −Im e^(−ix)`,
    /// `θ/2` is `L/2·k₂` table steps) instead of a cancelling `1 − W`.
    fn plateau_sum(&self, k2: usize, count: usize) -> Complex {
        let step = self.len / 2 * k2;
        let ratio = self.phasor(step.wrapping_mul(count)).im / self.phasor(step).im;
        self.phasor(step.wrapping_mul(count - 1)) * ratio
    }

    /// Fills `out` with row `k₂`,
    /// `G_{k₂}[t₁] = Σ_{t ≡ t₁ (mod L)} z(t)·W_N^{t·k₂}`: the closed-form
    /// row of the plateau — column `t₁` holds `⌊n/L⌋` plateau bins, one
    /// more if `t₁ < n mod L`, a geometric sum in `W_M^{k₂}` — plus one
    /// phasor update per event (round b rides as `i·v`).
    fn fill(&self, k2: usize, out: &mut Vec<Complex>) {
        let (count, extra) = (self.n / self.len, self.n % self.len);
        let column = self.len - 1;
        out.clear();
        if k2 == 0 {
            out.resize(extra, self.level * (count + 1) as f64);
            out.resize(self.len, self.level * count as f64);
            for (&v, &t) in self.values.iter().zip(self.spots[0]) {
                out[t as usize & column].re += v;
            }
            for (&v, &t) in self.values.iter().zip(self.spots[1]) {
                out[t as usize & column].im += v;
            }
            return;
        }
        let tall = self.level * self.plateau_sum(k2, count + 1);
        let short = self.level * self.plateau_sum(k2, count);
        out.extend((0..extra).map(|t1| self.phasor(t1 * k2) * tall));
        out.extend((extra..self.len).map(|t1| self.phasor(t1 * k2) * short));
        for (&v, &t) in self.values.iter().zip(self.spots[0]) {
            let w = self.phasor((t as usize).wrapping_mul(k2));
            let g = &mut out[t as usize & column];
            g.re += v * w.re;
            g.im += v * w.im;
        }
        for (&v, &t) in self.values.iter().zip(self.spots[1]) {
            let w = self.phasor((t as usize).wrapping_mul(k2));
            let g = &mut out[t as usize & column];
            g.re -= v * w.im;
            g.im += v * w.re;
        }
    }
}

/// Folds bin `k`'s two powers into the running maxima of a packed pair
/// of real series, given `Z(k)` and `Z(N−k)`: `4·|A(k)|² = |Z(k) +
/// conj(Z(N−k))|²`, `4·|B(k)|² = |Z(k) − conj(Z(N−k))|²` — only squared
/// magnitudes are needed, so no twiddles appear; the caller scales by the
/// exact `1/4` once.
fn fold_split(maxima: &mut [f64; 2], zk: Complex, mirror: Complex) {
    let zc = mirror.conj();
    for (max, power) in maxima
        .iter_mut()
        .zip([(zk + zc).norm_sqr(), (zk - zc).norm_sqr()])
    {
        if power > *max {
            *max = power;
        }
    }
}

/// Refills `buffer` with the `h` packed points `x(2j) + i·x(2j+1)` of the
/// mean-centred `series` zero-padded to `2h` samples: `0 − μ` on each of
/// its `n` bins, `v − μ` on each event bin, `0` from `n` on — bit for bit
/// the dense centred series' samples.
fn load_centred(buffer: &mut Vec<Complex>, series: &TimeSeries, h: usize) {
    let n = series.len();
    debug_assert!(n <= 2 * h);
    let mean = series.mean();
    let level = 0.0 - mean;
    buffer.clear();
    buffer.resize(n / 2, Complex::new(level, level));
    if n % 2 == 1 {
        buffer.push(Complex::new(level, 0.0));
    }
    buffer.resize(h, Complex::ZERO);
    for &(t, v) in series.events() {
        let z = &mut buffer[t / 2];
        if t % 2 == 0 {
            z.re = v - mean;
        } else {
            z.im = v - mean;
        }
    }
}

impl Default for SpectralWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for SpectralWorkspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectralWorkspace")
            .field("plans_built", &self.plans_built())
            .field("plan_requests", &self.plan_requests())
            .field("transforms_run", &self.transforms_run())
            .finish()
    }
}

thread_local! {
    static THREAD_WORKSPACE: SpectralWorkspace = SpectralWorkspace::new();
}

/// Runs `f` with the calling thread's shared [`SpectralWorkspace`].
///
/// This is how the detection pipeline recycles transform buffers without
/// threading a workspace through every signature: `Periodogram::compute`,
/// `permutation_threshold`, `Autocorrelation::compute` and
/// `PeriodicityDetector::detect` all route here.
pub fn with_thread_workspace<R>(f: impl FnOnce(&SpectralWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::corpus::centred;

    fn test_samples(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 7.3).sin() + 0.1 * i as f64)
            .collect()
    }

    fn test_series(n: usize) -> TimeSeries {
        TimeSeries::from_values(0, 1, test_samples(n)).unwrap()
    }

    /// `samples` twice over as a packed pair of placed rounds that leaves
    /// every value where it is (uncentred): so dense that `M = 1`.
    fn placed_in_order(ws: &SpectralWorkspace, samples: &[f64]) -> [f64; 2] {
        let bins = samples.len() as u32;
        let spots: Vec<u32> = (0..bins).chain(0..bins).collect();
        ws.placed_power_maxima(samples.len(), 0.0, samples, &spots, 2)
    }

    /// The contract, literally: `X(k) = Σ_{j<n} x_j·e^(−2πijk/N)` for
    /// `k = 0..=N/2`, summed term by term in `O(n·N)`.
    fn naive_padded_half_spectrum(samples: &[f64]) -> Vec<Complex> {
        let padded = padded_len(samples.len());
        let unit: Vec<Complex> = (0..padded)
            .map(|t| {
                Complex::from_polar(1.0, -2.0 * std::f64::consts::PI * t as f64 / padded as f64)
            })
            .collect();
        (0..=padded / 2)
            .map(|k| {
                samples
                    .iter()
                    .enumerate()
                    .fold(Complex::ZERO, |acc, (j, &x)| {
                        acc + unit[(j * k) % padded] * x
                    })
            })
            .collect()
    }

    /// Tolerance for comparing two DFT algorithms on the same input:
    /// relative to the spectrum's largest magnitude, a generous multiple
    /// of the O(ε·log n) FFT rounding bound.
    fn spectral_tolerance(reference: &[Complex]) -> f64 {
        let scale = reference
            .iter()
            .map(|v| v.norm_sqr())
            .fold(0.0, f64::max)
            .sqrt();
        1e-11 * scale.max(1.0)
    }

    #[test]
    fn padded_half_spectrum_is_the_dtft_sampled_at_k_over_n() {
        // Every length 4..=300 — odd, prime, power of two — against the
        // naive sum and the dense oracle.
        let ws = SpectralWorkspace::new();
        for n in 4..=300usize {
            let series = test_series(n);
            let samples = centred(&series);
            let expected = naive_padded_half_spectrum(&samples);
            let oracle = Plan::dense_half_spectrum(&samples);
            let tol = spectral_tolerance(&expected);
            ws.with_half_spectrum(&series, |got| {
                assert_eq!(got.len(), n.next_power_of_two() / 2 + 1, "n = {n}");
                for (k, ((g, e), o)) in got.iter().zip(&expected).zip(&oracle).enumerate() {
                    for (path, v) in [("packed", g), ("oracle", o)] {
                        assert!(
                            (*v - *e).norm_sqr().sqrt() <= tol,
                            "{path} n = {n}, bin {k}: {v:?} vs {e:?} (tol {tol})"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn tiny_inputs_pad_to_two() {
        // n = 0, 1, 2 all transform at N = 2: X(0) = Σx = 0 after
        // centring, X(1) = x0 − x1.
        let ws = SpectralWorkspace::new();
        for (series, want) in [
            (TimeSeries::from_timestamps_capped(&[5], 1, 0).unwrap(), 0.0),
            (TimeSeries::from_values(0, 1, vec![3.0]).unwrap(), 0.0),
            (TimeSeries::from_values(0, 1, vec![3.0, 1.0]).unwrap(), 2.0),
        ] {
            ws.with_half_spectrum(&series, |got| {
                assert_eq!(got.len(), 2);
                assert_eq!([got[0].re, got[1].re], [0.0, want]);
                assert!(got[0].im.abs() + got[1].im.abs() < 1e-15);
            });
        }
    }

    #[test]
    fn packing_from_the_events_is_the_dense_centred_series() {
        // Odd and even n, events on even and odd bins, the last bin, a
        // fractional count: the packed points are the dense samples' bits.
        for series in [
            TimeSeries::from_values(0, 1, vec![0.0, 2.0, 0.0, 0.0, 1.5]).unwrap(),
            TimeSeries::from_values(0, 1, vec![1.0, 0.0, 0.0, 3.0, 0.0, 1.0]).unwrap(),
            TimeSeries::from_timestamps(&[0, 3, 3, 10], 1).unwrap(),
        ] {
            let h = padded_len(series.len()) / 2;
            let mut packed = Vec::new();
            load_centred(&mut packed, &series, h);
            let mut dense = centred(&series);
            dense.resize(2 * h, 0.0);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let unpacked: Vec<f64> = packed.iter().flat_map(|z| [z.re, z.im]).collect();
            assert_eq!(bits(&unpacked), bits(&dense), "{series:?}");
        }
    }

    #[test]
    fn counters_are_per_workspace() {
        let ws = SpectralWorkspace::new();
        let series = test_series(100);
        for _ in 0..10 {
            ws.with_half_spectrum(&series, |_| ());
        }
        // One wrapper lookup per call; its inner half-length lookup only
        // if this workspace is the one that built the wrapper.
        assert_eq!(ws.transforms_run(), 10);
        assert_eq!(ws.plan_requests(), 10 + ws.plans_built_r2c());
        assert_eq!(ws.plan_hits() + ws.plans_built(), ws.plan_requests());
        assert!(ws.plans_built_r2c() <= 1 && ws.plans_built_c2c() <= 1);

        // A second workspace finds the table warm.
        let other = SpectralWorkspace::new();
        other.with_half_spectrum(&series, |_| ());
        assert_eq!((other.plan_requests(), other.plans_built()), (1, 0));
    }

    #[test]
    fn plans_are_shared_across_threads_and_built_once() {
        // Eight threads, released together, each transforming a different
        // length in (2^k/2, 2^k]: every one must end up holding the same
        // plan objects, and between them they build each (kind, N) at most
        // once (never, if another test of this process got there first).
        const N: usize = 1 << 11;
        let barrier = std::sync::Barrier::new(8);
        let per_thread: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8usize)
                .map(|t| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let ws = SpectralWorkspace::new();
                        let n = N / 2 + 1 + t * (N / 2 - 1) / 7;
                        let samples = test_samples(n);
                        let series = test_series(n);
                        barrier.wait();
                        ws.with_half_spectrum(&series, |_| ());
                        placed_in_order(&ws, &samples);
                        ws.with_autocorrelation(&series, |_| ());
                        let built = (ws.plans_built_c2c(), ws.plans_built_r2c());
                        let plans = (
                            ws.r2c(N),
                            ws.r2c(2 * N),
                            ws.c2r(2 * N),
                            [
                                ws.c2c(N / 2, Direction::Forward),
                                ws.c2c(N, Direction::Forward),
                                ws.c2c(N, Direction::Inverse),
                            ],
                        );
                        (built, plans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let (_, first) = &per_thread[0];
        for (_, plans) in &per_thread {
            assert!(std::ptr::eq(plans.0, first.0));
            assert!(std::ptr::eq(plans.1, first.1));
            assert!(std::ptr::eq(plans.2, first.2));
            for (a, b) in plans.3.iter().zip(&first.3) {
                assert!(std::ptr::eq(*a, *b));
            }
        }
        let c2c: usize = per_thread.iter().map(|((c, _), _)| c).sum();
        let r2c: usize = per_thread.iter().map(|((_, r), _)| r).sum();
        assert!(c2c <= 3, "forward N/2, forward N, inverse N; built {c2c}");
        assert!(r2c <= 3, "r2c N, r2c 2N, c2r 2N; built {r2c}");
    }

    #[test]
    fn a_thousand_lengths_need_a_handful_of_plans() {
        // The stream thread sees a new series length on almost every
        // detection; per-length plans made its cache grow for the life of
        // the process. 1 000 distinct lengths up to 1 200 touch N = 256 …
        // 2 048 (and the ACF's 2N): at most 4 kinds × 11 sizes.
        let ws = SpectralWorkspace::new();
        for n in 201..=1200usize {
            let series = test_series(n);
            ws.with_half_spectrum(&series, |_| ());
            placed_in_order(&ws, &test_samples(n));
            ws.with_autocorrelation(&series, |_| ());
        }
        assert!(ws.plans_built() <= 4 * 11, "built {}", ws.plans_built());
        assert_eq!(ws.transforms_run(), 1000 * 4);
    }

    #[test]
    fn autocorrelation_lag0_dominates() {
        let ws = SpectralWorkspace::new();
        ws.with_autocorrelation(&test_series(100), |buf| {
            assert_eq!(buf.len(), 256); // (2·100).next_power_of_two()
            let r0 = buf[0];
            assert!(r0 > 0.0);
            for (lag, v) in buf.iter().enumerate().take(100).skip(1) {
                assert!(v.abs() <= r0 * (1.0 + 1e-9), "lag {lag}");
            }
        });
        // Packed round trip: two physical (half-length) FFT executions.
        assert_eq!(ws.transforms_run(), 2);
    }

    #[test]
    fn autocorrelation_matches_the_dense_round_trip() {
        let series = test_series(100);
        let expected = Plan::dense_autocorrelation(&centred(&series));
        let packed = SpectralWorkspace::new();
        packed.with_autocorrelation(&series, |got| {
            assert_eq!(got.len(), expected.len());
            let tol = 1e-9 * expected[0].abs().max(1.0);
            for (lag, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert!((g - e).abs() <= tol, "lag {lag}: {g} vs {e}");
            }
        });
    }

    #[test]
    fn row_count_follows_the_events() {
        // M is the largest power of two ≤ N/events, rows ≥ 64 bins.
        for (padded, events, want) in [
            (1usize << 15, 254usize, 128usize), // detect_mix's average pair
            (1 << 15, 256, 128),
            (1 << 15, 257, 64),
            (1 << 15, 2, 512),     // capped by the 64-bin row
            (1 << 15, 0, 512),     // an all-zero series
            (1 << 15, 1 << 14, 2), // events = N/2
            (1 << 15, 16_385, 1),  // denser: the plain transform
            (1 << 15, 60_000, 1),
            (128, 2, 2),
            (64, 2, 1),
            (4, 1, 1),
        ] {
            assert_eq!(
                placed_rows(padded, events),
                want,
                "N={padded} events={events}"
            );
        }
    }

    #[test]
    fn placed_maxima_match_the_densified_rounds() {
        // Per round, the maximum is that of the round's dense series'
        // padded half spectrum by the dense oracle, within rounding at
        // every M — and for any `mean`, not only the series' own.
        for (n, events) in [
            (7usize, 2usize),
            (64, 1),
            (64, 64),
            (300, 3),
            (1000, 1),
            (2048, 5),
            (5000, 9),
            (5000, 700),
        ] {
            for rounds in [1usize, 2] {
                let values: Vec<f64> = (0..events).map(|i| 1.0 + (i % 3) as f64).collect();
                // Distinct per round: a stride coprime to n, two offsets.
                let stride = (1..n).rev().find(|s| gcd(*s, n) == 1).unwrap_or(1);
                let spots: Vec<u32> = (0..rounds)
                    .flat_map(|r| (0..events).map(move |i| ((r * 3 + i * stride) % n) as u32))
                    .collect();
                let mean = 0.37;
                let expected: Vec<f64> = spots
                    .chunks_exact(events)
                    .map(|round| {
                        let mut dense = vec![-mean; n];
                        for (&v, &t) in values.iter().zip(round) {
                            dense[t as usize] = v - mean;
                        }
                        Plan::dense_half_spectrum(&dense)[1..]
                            .iter()
                            .map(Complex::norm_sqr)
                            .fold(0.0, f64::max)
                    })
                    .collect();
                let tag = format!("n={n} events={events} rounds={rounds}");
                let packed = SpectralWorkspace::new();
                let got = packed.placed_power_maxima(n, mean, &values, &spots, rounds);
                assert_eq!(packed.transforms_run(), 1);
                for (g, e) in got.iter().zip(&expected) {
                    assert!((g - e).abs() <= 1e-9 * e.max(1.0), "{tag}: {g} vs {e}");
                }
            }
        }
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn reentrant_use_does_not_panic() {
        let ws = SpectralWorkspace::new();
        let outer = test_series(64);
        let inner = test_series(32);
        let expected = ws.with_half_spectrum(&inner, |got| got.to_vec());
        ws.with_half_spectrum(&outer, |_| {
            // Nested use of the same workspace from inside a closure.
            ws.with_half_spectrum(&inner, |got| assert_eq!(got, expected));
        });
    }

    #[test]
    fn thread_workspace_persists_across_calls() {
        let series = test_series(333);
        let before = with_thread_workspace(|ws| ws.transforms_run());
        with_thread_workspace(|ws| ws.with_half_spectrum(&series, |_| ()));
        with_thread_workspace(|ws| ws.with_half_spectrum(&series, |_| ()));
        let after = with_thread_workspace(|ws| ws.transforms_run());
        assert_eq!(after, before + 2);
    }

    #[test]
    fn debug_format_mentions_plan_counts() {
        let ws = SpectralWorkspace::new();
        ws.with_half_spectrum(&test_series(16), |_| ());
        let s = format!("{ws:?}");
        assert!(s.contains("plans_built"), "{s}");
        assert!(s.contains("plan_requests: "), "{s}");
    }
}
