//! One-dimensional Gaussian mixture models for multi-period detection
//! (§IV, Fig. 7 of the paper).
//!
//! Malware such as Conficker beacons at two time scales at once: rapid 7–8 s
//! requests inside bursts, and a ~3 h gap between bursts. A single
//! period hypothesis cannot describe the interval list of such traffic, but
//! a Gaussian mixture over the intervals separates the scales cleanly — the
//! paper's Fig. 7 recovers components with means ≈ 175 s and ≈ 4.5 s (plus a
//! tiny outlier component) from a TDSS-style trace.
//!
//! This module implements EM for 1-D GMMs with k-means++-style
//! initialization, and model selection over the number of components via the
//! Bayesian information criterion (BIC).

use baywatch_stats::dist::Normal;
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::budget::ExecBudget;
use crate::TimeSeriesError;

/// One Gaussian component of a fitted mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmComponent {
    /// Component mean.
    pub mean: f64,
    /// Component standard deviation (floored at [`GmmConfig::min_std`]).
    pub std_dev: f64,
    /// Mixing weight in `[0, 1]`; weights of a fit sum to 1.
    pub weight: f64,
}

/// A fitted 1-D Gaussian mixture model.
#[derive(Debug, Clone, PartialEq)]
pub struct Gmm {
    components: Vec<GmmComponent>,
    log_likelihood: f64,
    n_observations: usize,
    iterations: usize,
    converged: bool,
}

impl Gmm {
    /// The fitted components, sorted by descending weight.
    pub fn components(&self) -> &[GmmComponent] {
        &self.components
    }

    /// Total log-likelihood of the training data under the fit.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Number of observations the model was fitted on.
    pub fn n_observations(&self) -> usize {
        self.n_observations
    }

    /// Number of EM iterations actually run.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether EM reached the log-likelihood tolerance before
    /// [`GmmConfig::max_iterations`]. A `false` here means the fit was cut
    /// off mid-climb and its parameters should be treated as approximate —
    /// the detector surfaces this in its diagnostics instead of silently
    /// treating every fit as converged.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Bayesian information criterion: `−2·lnL + p·ln(n)` where a
    /// k-component 1-D mixture has `p = 3k − 1` free parameters.
    pub fn bic(&self) -> f64 {
        let k = self.components.len() as f64;
        let p = 3.0 * k - 1.0;
        -2.0 * self.log_likelihood + p * (self.n_observations as f64).ln()
    }

    /// Index of the component with the highest responsibility for `x`.
    pub fn assign(&self, x: f64) -> usize {
        let mut best = 0;
        let mut best_ll = f64::NEG_INFINITY;
        for (i, c) in self.components.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "std_dev is clamped to min_std (strictly positive) before every Normal::new; no fallback density exists"
            )]
            let n = Normal::new(c.mean, c.std_dev).expect("component std floored positive");
            let ll = c.weight.max(f64::MIN_POSITIVE).ln() + n.ln_pdf(x);
            if ll > best_ll {
                best_ll = ll;
                best = i;
            }
        }
        best
    }

    /// Density of the mixture at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| {
                #[expect(
                    clippy::expect_used,
                    reason = "std_dev is clamped to min_std (strictly positive) before every Normal::new; no fallback density exists"
                )]
                let n = Normal::new(c.mean, c.std_dev).expect("component std floored positive");
                c.weight * n.pdf(x)
            })
            .sum()
    }

    /// Component means with weight at least `min_weight`, sorted descending
    /// by weight — the "multiple periods" the paper reads off Fig. 7.
    pub fn dominant_means(&self, min_weight: f64) -> Vec<f64> {
        self.components
            .iter()
            .filter(|c| c.weight >= min_weight)
            .map(|c| c.mean)
            .collect()
    }
}

/// Configuration for GMM fitting and BIC model selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmConfig {
    /// Maximum number of mixture components tried during model selection.
    pub max_components: usize,
    /// Maximum EM iterations per fit.
    pub max_iterations: usize,
    /// EM convergence tolerance on the log-likelihood.
    pub tolerance: f64,
    /// Floor for component standard deviations (prevents variance collapse
    /// onto repeated interval values).
    pub min_std: f64,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        Self {
            max_components: 4,
            max_iterations: 200,
            tolerance: 1e-6,
            min_std: 1e-3,
            seed: 0x6A4A,
        }
    }
}

/// Fits a GMM with exactly `k` components via EM.
///
/// # Errors
///
/// * [`TimeSeriesError::TooFewEvents`] if `data.len() < k` or data is empty,
/// * [`TimeSeriesError::InvalidConfig`] for `k == 0` or bad config values.
pub fn fit_gmm(data: &[f64], k: usize, config: &GmmConfig) -> Result<Gmm, TimeSeriesError> {
    fit_gmm_budgeted(data, k, config, &ExecBudget::unlimited())
}

/// Like [`fit_gmm`] under an [`ExecBudget`]: each EM iteration first
/// charges `n·k` work units (one E+M pass over `n` observations and `k`
/// components) and the fit aborts with
/// [`TimeSeriesError::BudgetExhausted`] once the budget is spent. With an
/// unlimited budget the result is byte-identical to [`fit_gmm`].
///
/// # Errors
///
/// As [`fit_gmm`], plus budget exhaustion.
pub fn fit_gmm_budgeted(
    data: &[f64],
    k: usize,
    config: &GmmConfig,
    budget: &ExecBudget,
) -> Result<Gmm, TimeSeriesError> {
    if k == 0 {
        return Err(TimeSeriesError::InvalidConfig {
            name: "k",
            constraint: "must be at least 1",
        });
    }
    if config.min_std <= 0.0 {
        return Err(TimeSeriesError::InvalidConfig {
            name: "min_std",
            constraint: "must be positive",
        });
    }
    if data.len() < k {
        return Err(TimeSeriesError::TooFewEvents {
            required: k,
            actual: data.len(),
        });
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut means = kmeanspp_init(data, k, &mut rng, budget)?;
    let global_std = std_of(data).max(config.min_std);
    let mut stds = vec![global_std; k];
    let mut weights = vec![1.0 / k as f64; k];

    let n = data.len();
    let mut resp = vec![0.0f64; n * k];
    let mut prev_ll = f64::NEG_INFINITY;
    let mut ll = prev_ll;
    let mut iterations = 0usize;
    let mut converged = false;

    for _ in 0..config.max_iterations {
        budget.checkpoint((n * k) as u64)?;
        iterations += 1;
        // E-step: responsibilities via log-sum-exp.
        ll = 0.0;
        for (i, &x) in data.iter().enumerate() {
            let mut logs = vec![0.0f64; k];
            for j in 0..k {
                #[expect(
                    clippy::expect_used,
                    reason = "std_dev is clamped to min_std (strictly positive) before every Normal::new; no fallback density exists"
                )]
                let nrm = Normal::new(means[j], stds[j]).expect("std floored positive");
                logs[j] = weights[j].max(f64::MIN_POSITIVE).ln() + nrm.ln_pdf(x);
            }
            let mx = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let sum_exp: f64 = logs.iter().map(|l| (l - mx).exp()).sum();
            let log_norm = mx + sum_exp.ln();
            ll += log_norm;
            for j in 0..k {
                resp[i * k + j] = (logs[j] - log_norm).exp();
            }
        }

        // M-step.
        for j in 0..k {
            let nj: f64 = (0..n).map(|i| resp[i * k + j]).sum();
            if nj < 1e-12 {
                // Dead component: re-seed it at a random data point.
                means[j] = data[rng.random_range(0..n)];
                stds[j] = global_std;
                weights[j] = 1e-6;
                continue;
            }
            let mu: f64 = (0..n).map(|i| resp[i * k + j] * data[i]).sum::<f64>() / nj;
            let var: f64 = (0..n)
                .map(|i| resp[i * k + j] * (data[i] - mu) * (data[i] - mu))
                .sum::<f64>()
                / nj;
            means[j] = mu;
            stds[j] = var.sqrt().max(config.min_std);
            weights[j] = nj / n as f64;
        }
        let wsum: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= wsum;
        }

        if (ll - prev_ll).abs() < config.tolerance * (1.0 + ll.abs()) {
            converged = true;
            break;
        }
        prev_ll = ll;
    }

    let mut components: Vec<GmmComponent> = (0..k)
        .map(|j| GmmComponent {
            mean: means[j],
            std_dev: stds[j],
            weight: weights[j],
        })
        .collect();
    components.sort_by(|a, b| b.weight.total_cmp(&a.weight));

    Ok(Gmm {
        components,
        log_likelihood: ll,
        n_observations: n,
        iterations,
        converged,
    })
}

/// Fits GMMs with 1..=`max_components` components and returns the fit with
/// the lowest BIC, together with the BIC of every candidate (for Fig. 7's
/// "BIC vs #components" panel).
///
/// # Errors
///
/// Returns the underlying error if even the single-component fit fails.
///
/// # Example
///
/// ```
/// use baywatch_timeseries::gmm::{select_gmm, GmmConfig};
///
/// // Two interval scales: ~5 s within bursts, ~175 s between bursts.
/// let mut data: Vec<f64> = Vec::new();
/// for i in 0..200 {
///     data.push(5.0 + (i % 5) as f64 * 0.1);
///     if i % 4 == 0 {
///         data.push(175.0 + (i % 7) as f64);
///     }
/// }
/// let (best, bics) = select_gmm(&data, &GmmConfig::default()).unwrap();
/// assert!(best.components().len() >= 2);
/// assert_eq!(bics.len(), 4);
/// let means = best.dominant_means(0.05);
/// assert!(means.iter().any(|&m| (m - 5.0).abs() < 2.0));
/// assert!(means.iter().any(|&m| (m - 178.0).abs() < 8.0));
/// ```
pub fn select_gmm(data: &[f64], config: &GmmConfig) -> Result<(Gmm, Vec<f64>), TimeSeriesError> {
    select_gmm_budgeted(data, config, &ExecBudget::unlimited())
}

/// Like [`select_gmm`] under an [`ExecBudget`]. Budget exhaustion at *any*
/// `k` aborts the whole sweep with
/// [`TimeSeriesError::BudgetExhausted`] — unlike a data-shortage error,
/// which merely ends the scan at the largest feasible `k` — so a timed-out
/// pair is never misreported as "best fit so far".
///
/// # Errors
///
/// As [`select_gmm`], plus budget exhaustion.
pub fn select_gmm_budgeted(
    data: &[f64],
    config: &GmmConfig,
    budget: &ExecBudget,
) -> Result<(Gmm, Vec<f64>), TimeSeriesError> {
    if config.max_components == 0 {
        return Err(TimeSeriesError::InvalidConfig {
            name: "max_components",
            constraint: "must be at least 1",
        });
    }
    let mut best: Option<Gmm> = None;
    let mut bics = Vec::new();
    for k in 1..=config.max_components {
        match fit_gmm_budgeted(data, k, config, budget) {
            Ok(g) => {
                let bic = g.bic();
                bics.push(bic);
                let better = match &best {
                    None => true,
                    Some(b) => bic < b.bic(),
                };
                if better {
                    best = Some(g);
                }
            }
            Err(TimeSeriesError::BudgetExhausted) => {
                return Err(TimeSeriesError::BudgetExhausted);
            }
            Err(e) => {
                if k == 1 {
                    return Err(e);
                }
                // Not enough data for more components: stop the scan.
                break;
            }
        }
    }
    // Unreachable in practice — the k = 1 outcome either sets `best` or
    // returns early above — but degrade to an error, not a panic.
    best.map(|g| (g, bics))
        .ok_or(TimeSeriesError::TooFewEvents {
            required: 1,
            actual: data.len(),
        })
}

/// k-means++ style seeding: first center uniform, the rest proportional to
/// squared distance from the nearest existing center. Each round scans all
/// of `data` against every existing center, so the budget is charged per
/// round like the EM iterations are.
fn kmeanspp_init(
    data: &[f64],
    k: usize,
    rng: &mut StdRng,
    budget: &ExecBudget,
) -> Result<Vec<f64>, TimeSeriesError> {
    let mut centers = Vec::with_capacity(k);
    centers.push(data[rng.random_range(0..data.len())]);
    while centers.len() < k {
        budget.checkpoint((data.len() * centers.len()) as u64)?;
        let d2: Vec<f64> = data
            .iter()
            .map(|&x| {
                centers
                    .iter()
                    .map(|&c| (x - c) * (x - c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centers; duplicate one.
            centers.push(centers[0]);
            continue;
        }
        let mut target = rng.random_range(0.0..total);
        let mut chosen = data.len() - 1;
        for (i, &d) in d2.iter().enumerate() {
            if target < d {
                chosen = i;
                break;
            }
            target -= d;
        }
        centers.push(data[chosen]);
    }
    Ok(centers)
}

fn std_of(data: &[f64]) -> f64 {
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_cluster_data(seed: u64) -> Vec<f64> {
        // 300 points near 5, 100 points near 175 — Conficker-like interval
        // structure, deterministic jitter.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..300 {
            data.push(5.0 + rng.random_range(-1.0..1.0));
        }
        for _ in 0..100 {
            data.push(175.0 + rng.random_range(-8.0..8.0));
        }
        data
    }

    #[test]
    fn single_component_recovers_mean() {
        let data: Vec<f64> = (0..100).map(|i| 50.0 + (i % 10) as f64 * 0.1).collect();
        let g = fit_gmm(&data, 1, &GmmConfig::default()).unwrap();
        assert_eq!(g.components().len(), 1);
        let c = g.components()[0];
        assert!((c.mean - 50.45).abs() < 0.2, "mean = {}", c.mean);
        assert!((c.weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_components_separate_scales() {
        let data = two_cluster_data(3);
        let g = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        let mut means: Vec<f64> = g.components().iter().map(|c| c.mean).collect();
        means.sort_by(f64::total_cmp);
        assert!((means[0] - 5.0).abs() < 2.0, "means = {means:?}");
        assert!((means[1] - 175.0).abs() < 10.0, "means = {means:?}");
        // Weight ratio ~ 3:1.
        let big = g.components()[0];
        assert!(big.weight > 0.6);
    }

    #[test]
    fn weights_sum_to_one() {
        let data = two_cluster_data(11);
        for k in 1..=4 {
            let g = fit_gmm(&data, k, &GmmConfig::default()).unwrap();
            let sum: f64 = g.components().iter().map(|c| c.weight).sum();
            assert!((sum - 1.0).abs() < 1e-9, "k={k} sum={sum}");
        }
    }

    #[test]
    fn bic_prefers_two_for_bimodal() {
        let data = two_cluster_data(17);
        let (best, bics) = select_gmm(&data, &GmmConfig::default()).unwrap();
        assert!(bics[1] < bics[0], "2-component BIC must beat 1-component");
        assert!(best.components().len() >= 2);
    }

    #[test]
    fn bic_prefers_one_for_unimodal() {
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<f64> = (0..400)
            .map(|_| 60.0 + rng.random_range(-0.5..0.5))
            .collect();
        let (best, _bics) = select_gmm(&data, &GmmConfig::default()).unwrap();
        // Tight unimodal data: dominant means should all be near 60.
        for m in best.dominant_means(0.2) {
            assert!((m - 60.0).abs() < 2.0, "mean = {m}");
        }
    }

    #[test]
    fn assign_routes_points_to_right_cluster() {
        let data = two_cluster_data(23);
        let g = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        let c5 = g.assign(5.0);
        let c175 = g.assign(175.0);
        assert_ne!(c5, c175);
        assert_eq!(g.assign(4.0), c5);
        assert_eq!(g.assign(180.0), c175);
    }

    #[test]
    fn pdf_is_positive_and_peaks_at_clusters() {
        let data = two_cluster_data(31);
        let g = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        assert!(g.pdf(5.0) > g.pdf(90.0));
        assert!(g.pdf(175.0) > g.pdf(90.0));
        assert!(g.pdf(90.0) >= 0.0);
    }

    #[test]
    fn dominant_means_filters_by_weight() {
        let data = two_cluster_data(41);
        let g = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        assert_eq!(g.dominant_means(0.0).len(), 2);
        assert!(g.dominant_means(0.9).len() <= 1);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(fit_gmm(&[], 1, &GmmConfig::default()).is_err());
        assert!(fit_gmm(&[1.0, 2.0], 3, &GmmConfig::default()).is_err());
        assert!(fit_gmm(&[1.0, 2.0], 0, &GmmConfig::default()).is_err());
        let bad = GmmConfig {
            min_std: 0.0,
            ..Default::default()
        };
        assert!(fit_gmm(&[1.0, 2.0], 1, &bad).is_err());
        let bad_sel = GmmConfig {
            max_components: 0,
            ..Default::default()
        };
        assert!(select_gmm(&[1.0, 2.0], &bad_sel).is_err());
    }

    #[test]
    fn constant_data_does_not_collapse() {
        // All identical intervals: the std floor must prevent NaNs.
        let data = vec![60.0; 50];
        let g = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        for c in g.components() {
            assert!(c.std_dev > 0.0);
            assert!(c.mean.is_finite());
            assert!(c.weight.is_finite());
        }
        assert!(g.log_likelihood().is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_cluster_data(47);
        let a = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        let b = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn convergence_diagnostics_exposed() {
        let data = two_cluster_data(61);
        let g = fit_gmm(&data, 2, &GmmConfig::default()).unwrap();
        assert!(g.converged(), "well-separated clusters converge under 200");
        assert!(g.iterations() >= 1);
        assert!(g.iterations() <= GmmConfig::default().max_iterations);

        // One iteration cannot reach tolerance from ll = -inf on real data.
        let starved = GmmConfig {
            max_iterations: 1,
            ..Default::default()
        };
        let g = fit_gmm(&data, 2, &starved).unwrap();
        assert_eq!(g.iterations(), 1);
        assert!(
            !g.converged(),
            "a single EM step must not claim convergence"
        );
    }

    #[test]
    fn budget_aborts_em_deterministically() {
        let data = two_cluster_data(67);
        let n = data.len() as u64;
        // Room for exactly 2 iterations at k = 2 (each charges 2n).
        let budget = ExecBudget::new(None, Some(4 * n));
        let err = fit_gmm_budgeted(&data, 2, &GmmConfig::default(), &budget);
        assert_eq!(err, Err(TimeSeriesError::BudgetExhausted));

        // Unlimited budget is byte-identical to the plain entry point.
        let a = fit_gmm_budgeted(&data, 2, &GmmConfig::default(), &ExecBudget::unlimited());
        let b = fit_gmm(&data, 2, &GmmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn budgeted_select_propagates_exhaustion() {
        let data = two_cluster_data(71);
        // Enough for the k = 1 fit but not the k = 2 sweep: exhaustion must
        // surface as an error, not a silent "best so far".
        let budget = ExecBudget::new(None, Some(8 * data.len() as u64));
        let err = select_gmm_budgeted(&data, &GmmConfig::default(), &budget);
        assert_eq!(err, Err(TimeSeriesError::BudgetExhausted));

        let a = select_gmm_budgeted(&data, &GmmConfig::default(), &ExecBudget::unlimited());
        let b = select_gmm(&data, &GmmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn select_reports_bic_per_k() {
        let data = two_cluster_data(53);
        let cfg = GmmConfig {
            max_components: 3,
            ..Default::default()
        };
        let (_best, bics) = select_gmm(&data, &cfg).unwrap();
        assert_eq!(bics.len(), 3);
        assert!(bics.iter().all(|b| b.is_finite()));
    }
}
