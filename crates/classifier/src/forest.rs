//! Random forest ensemble (§VI-B of the paper; Breiman 2001).
//!
//! The investigation phase trains a 200-tree random forest on a small
//! manually labeled window and applies it to the remaining months of
//! candidates. Beyond the hard benign/malicious vote, the *uncertainty* of
//! each prediction drives the paper's Fig. 11: the analyst examines the most
//! uncertain cases first, which empties the false-negative pool quickly.

use crate::tree::{DecisionTree, Label, TrainError, TreeConfig};
use baywatch_stats::rng::Rng;

/// Hyper-parameters of the forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Number of trees (the paper uses 200).
    pub n_trees: usize,
    /// Per-tree settings; `features_per_split` of `None` here means
    /// "√d, chosen automatically at fit time".
    pub tree: TreeConfig,
    /// Fraction of the training set drawn (with replacement) per tree.
    pub bootstrap_fraction: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 200,
            tree: TreeConfig::default(),
            bootstrap_fraction: 1.0,
            seed: 0xF0_1E57,
        }
    }
}

/// A trained random forest.
///
/// # Example
///
/// ```
/// use baywatch_classifier::forest::{ForestConfig, RandomForest};
///
/// let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 100) as f64, (i % 7) as f64]).collect();
/// let ys: Vec<bool> = (0..200).map(|i| (i % 100) >= 50).collect();
/// let cfg = ForestConfig { n_trees: 25, ..Default::default() };
/// let rf = RandomForest::fit(&xs, &ys, &cfg).unwrap();
/// assert!(rf.predict(&[80.0, 3.0]));
/// assert!(!rf.predict(&[10.0, 3.0]));
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    oob_error: Option<f64>,
}

impl RandomForest {
    /// Trains the forest with bootstrap aggregation and per-split feature
    /// subsampling (√d by default).
    ///
    /// # Errors
    ///
    /// See [`TrainError`].
    pub fn fit(xs: &[Vec<f64>], ys: &[Label], config: &ForestConfig) -> Result<Self, TrainError> {
        crate::tree::validate(xs, ys)?;
        if config.n_trees == 0 {
            return Err(TrainError::InvalidConfig("n_trees must be >= 1"));
        }
        if !(config.bootstrap_fraction > 0.0 && config.bootstrap_fraction <= 1.0) {
            return Err(TrainError::InvalidConfig(
                "bootstrap_fraction must be in (0, 1]",
            ));
        }
        let n = xs.len();
        let d = xs[0].len();
        let per_split = config
            .tree
            .features_per_split
            .unwrap_or(((d as f64).sqrt().round() as usize).max(1));

        let mut rng = Rng::seed_from_u64(config.seed);
        let sample_size = ((n as f64 * config.bootstrap_fraction).round() as usize).max(1);

        let mut trees = Vec::with_capacity(config.n_trees);
        // Out-of-bag vote accumulators.
        let mut oob_votes_pos = vec![0usize; n];
        let mut oob_votes_total = vec![0usize; n];

        for t in 0..config.n_trees {
            let mut in_bag = vec![false; n];
            let mut bxs = Vec::with_capacity(sample_size);
            let mut bys = Vec::with_capacity(sample_size);
            for _ in 0..sample_size {
                let i = rng.random_range(0..n);
                in_bag[i] = true;
                bxs.push(xs[i].clone());
                bys.push(ys[i]);
            }
            let tree_cfg = TreeConfig {
                features_per_split: Some(per_split),
                seed: config.seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15),
                ..config.tree
            };
            let tree = DecisionTree::fit(&bxs, &bys, &tree_cfg)?;
            for i in 0..n {
                if !in_bag[i] {
                    oob_votes_total[i] += 1;
                    if tree.predict(&xs[i]) {
                        oob_votes_pos[i] += 1;
                    }
                }
            }
            trees.push(tree);
        }

        // OOB error across samples that received at least one OOB vote.
        let mut wrong = 0usize;
        let mut counted = 0usize;
        for i in 0..n {
            if oob_votes_total[i] > 0 {
                counted += 1;
                let pred = oob_votes_pos[i] * 2 >= oob_votes_total[i];
                if pred != ys[i] {
                    wrong += 1;
                }
            }
        }
        let oob_error = (counted > 0).then(|| wrong as f64 / counted as f64);

        Ok(Self { trees, oob_error })
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Out-of-bag error estimate, when at least one sample was OOB for
    /// some tree.
    pub fn oob_error(&self) -> Option<f64> {
        self.oob_error
    }

    /// Fraction of trees voting "malicious" — the ensemble probability.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let pos = self.trees.iter().filter(|t| t.predict(x)).count();
        pos as f64 / self.trees.len() as f64
    }

    /// Majority vote ("the output of the random forest is the mode of the
    /// outputs of the decision trees").
    pub fn predict(&self, x: &[f64]) -> Label {
        self.predict_proba(x) >= 0.5
    }

    /// Prediction uncertainty in `[0, 1]`: `1 − |2p − 1|`. A unanimous
    /// ensemble scores 0; an evenly split one scores 1. This ordering
    /// drives the Fig. 11 triage curve.
    pub fn uncertainty(&self, x: &[f64]) -> f64 {
        let p = self.predict_proba(x);
        1.0 - (2.0 * p - 1.0).abs()
    }

    /// Forest-level feature importances: the per-tree mean-decrease-in-
    /// impurity importances averaged over the ensemble, normalized to sum
    /// to 1 (all zeros when no tree ever split).
    pub fn feature_importances(&self) -> Vec<f64> {
        let n = self
            .trees
            .first()
            .map(|t| t.feature_importances().len())
            .unwrap_or(0);
        let mut acc = vec![0.0; n];
        for t in &self.trees {
            for (a, &v) in acc.iter_mut().zip(t.feature_importances()) {
                *a += v;
            }
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in acc.iter_mut() {
                *v /= total;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    (i % 100) as f64,
                    ((i * 13) % 29) as f64,
                    ((i * 7) % 11) as f64,
                ]
            })
            .collect();
        let ys: Vec<bool> = (0..n).map(|i| (i % 100) >= 50).collect();
        (xs, ys)
    }

    fn small_forest() -> ForestConfig {
        ForestConfig {
            n_trees: 30,
            ..Default::default()
        }
    }

    #[test]
    fn forest_learns_and_outperforms_chance() {
        let (xs, ys) = linear_data(300);
        let rf = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| rf.predict(x) == **y)
            .count();
        assert!(correct as f64 / xs.len() as f64 > 0.95);
        assert_eq!(rf.n_trees(), 30);
    }

    #[test]
    fn oob_error_reported_and_small() {
        let (xs, ys) = linear_data(400);
        let rf = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        let oob = rf.oob_error().expect("OOB votes must exist");
        assert!(oob < 0.15, "OOB error = {oob}");
    }

    #[test]
    fn proba_in_unit_interval() {
        let (xs, ys) = linear_data(120);
        let rf = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        for x in &xs {
            let p = rf.predict_proba(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn uncertainty_extremes() {
        let (xs, ys) = linear_data(300);
        let rf = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        // Deep in each class: low uncertainty.
        assert!(rf.uncertainty(&[5.0, 1.0, 1.0]) < 0.3);
        assert!(rf.uncertainty(&[95.0, 1.0, 1.0]) < 0.3);
        // On the decision boundary: higher uncertainty than deep inside.
        let boundary = rf.uncertainty(&[50.0, 1.0, 1.0]);
        let deep = rf.uncertainty(&[95.0, 1.0, 1.0]);
        assert!(boundary >= deep);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = linear_data(150);
        let a = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        let b = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        for x in xs.iter().take(20) {
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    fn config_validation() {
        let (xs, ys) = linear_data(10);
        let bad = ForestConfig {
            n_trees: 0,
            ..Default::default()
        };
        assert!(RandomForest::fit(&xs, &ys, &bad).is_err());
        let bad = ForestConfig {
            bootstrap_fraction: 0.0,
            ..Default::default()
        };
        assert!(RandomForest::fit(&xs, &ys, &bad).is_err());
        assert!(RandomForest::fit(&[], &[], &small_forest()).is_err());
    }

    #[test]
    fn forest_importances_normalized_and_informative() {
        let (xs, ys) = linear_data(300);
        let rf = RandomForest::fit(&xs, &ys, &small_forest()).unwrap();
        let imp = rf.feature_importances();
        assert_eq!(imp.len(), 3);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Feature 0 carries the label; it must dominate.
        assert!(imp[0] > imp[1] && imp[0] > imp[2], "importances = {imp:?}");
    }

    #[test]
    fn single_tree_forest_works() {
        let (xs, ys) = linear_data(100);
        let cfg = ForestConfig {
            n_trees: 1,
            ..Default::default()
        };
        let rf = RandomForest::fit(&xs, &ys, &cfg).unwrap();
        assert_eq!(rf.n_trees(), 1);
        let p = rf.predict_proba(&xs[0]);
        assert!(p == 0.0 || p == 1.0);
    }
}
