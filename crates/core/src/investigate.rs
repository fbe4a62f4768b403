//! Investigation & verification — filter 8 (§VI, Table IV, Fig. 11).
//!
//! Even after all triage filters, a months-long window over a large network
//! yields thousands of suspicious destinations. The paper's bootstrap
//! procedure:
//!
//! 1. manually label a small window (one month) of cases,
//! 2. train a random forest (200 trees) on Table-II features,
//! 3. classify the remaining cases,
//! 4. rank residual cases by classifier *uncertainty* and hand analysts
//!    the most uncertain first — Fig. 11 shows the false-negative pool
//!    emptying rapidly under this order.

use baywatch_classifier::features::{CaseFeatures, CaseInput};
use baywatch_classifier::forest::{ForestConfig, RandomForest};

use crate::rank::BeaconCase;
use crate::CoreError;

/// A 2×2 confusion matrix of benign/malicious classification
/// (Table IV of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// True benign classified benign.
    pub true_negative: usize,
    /// True benign classified malicious.
    pub false_positive: usize,
    /// True malicious classified benign.
    pub false_negative: usize,
    /// True malicious classified malicious.
    pub true_positive: usize,
}

impl ConfusionMatrix {
    /// Adds one observation.
    pub fn record(&mut self, truth: bool, predicted: bool) {
        match (truth, predicted) {
            (false, false) => self.true_negative += 1,
            (false, true) => self.false_positive += 1,
            (true, false) => self.false_negative += 1,
            (true, true) => self.true_positive += 1,
        }
    }

    /// Total cases.
    pub fn total(&self) -> usize {
        self.true_negative + self.false_positive + self.false_negative + self.true_positive
    }

    /// False-positive rate (`FP / (FP + TN)`), 0 when undefined.
    pub fn false_positive_rate(&self) -> f64 {
        let denom = self.false_positive + self.true_negative;
        if denom == 0 {
            0.0
        } else {
            self.false_positive as f64 / denom as f64
        }
    }

    /// Recall / true-positive rate (`TP / (TP + FN)`), 0 when undefined.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positive + self.false_negative;
        if denom == 0 {
            0.0
        } else {
            self.true_positive as f64 / denom as f64
        }
    }

    /// Precision (`TP / (TP + FP)`), 0 when undefined.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positive + self.false_positive;
        if denom == 0 {
            0.0
        } else {
            self.true_positive as f64 / denom as f64
        }
    }

    /// Accuracy over all cases, 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.true_positive + self.true_negative) as f64 / self.total() as f64
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "                  classified benign  classified malicious"
        )?;
        writeln!(
            f,
            "true benign       {:>17}  {:>20}",
            self.true_negative, self.false_positive
        )?;
        write!(
            f,
            "true malicious    {:>17}  {:>20}",
            self.false_negative, self.true_positive
        )
    }
}

/// Converts a pipeline case into the classifier's feature input.
pub fn case_to_input(case: &BeaconCase) -> CaseInput {
    CaseInput {
        intervals: case.intervals.clone(),
        dominant_periods: case.candidates.iter().map(|c| c.period).collect(),
        power: case.candidates.first().map(|c| c.power).unwrap_or(0.0),
        acf_score: case.candidates.first().map(|c| c.acf_score).unwrap_or(0.0),
        similar_sources: case.similar_sources,
        lm_score: case.lm_score,
        popularity: case.popularity,
    }
}

/// Extracts the Table-II feature vector of a case.
pub fn case_features(case: &BeaconCase) -> Vec<f64> {
    CaseFeatures::extract(&case_to_input(case)).to_vector()
}

/// The trained bootstrap classifier.
#[derive(Debug, Clone)]
pub struct Investigator {
    forest: RandomForest,
}

/// The classifier's output for one case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseVerdict {
    /// Ensemble vote: `true` = malicious.
    pub malicious: bool,
    /// Ensemble probability of maliciousness.
    pub probability: f64,
    /// Prediction uncertainty in `[0, 1]` (1 = evenly split ensemble).
    pub uncertainty: f64,
}

impl Investigator {
    /// Trains the random forest on manually labeled cases
    /// (`true` = malicious).
    ///
    /// # Errors
    ///
    /// Propagates classifier training errors (empty set, degenerate
    /// config).
    pub fn train(labeled: &[(BeaconCase, bool)], config: &ForestConfig) -> Result<Self, CoreError> {
        let xs: Vec<Vec<f64>> = labeled.iter().map(|(c, _)| case_features(c)).collect();
        let ys: Vec<bool> = labeled.iter().map(|(_, y)| *y).collect();
        let forest = RandomForest::fit(&xs, &ys, config)?;
        Ok(Self { forest })
    }

    /// The underlying forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Table-II feature importances, named and sorted descending — which
    /// evidence actually drives the benign/malicious separation.
    pub fn feature_importances(&self) -> Vec<(&'static str, f64)> {
        const NAMES: [&str; baywatch_classifier::N_FEATURES] = [
            "series length",
            "primary period",
            "secondary period",
            "power",
            "acf score",
            "similar sources",
            "ngram distinct",
            "ngram top fraction",
            "symbol entropy",
            "compressibility",
            "interval cv",
            "match fraction",
            "lm score",
            "popularity",
        ];
        let mut out: Vec<(&'static str, f64)> = NAMES
            .iter()
            .copied()
            .zip(self.forest.feature_importances())
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Classifies one case.
    pub fn classify(&self, case: &BeaconCase) -> CaseVerdict {
        let x = case_features(case);
        let probability = self.forest.predict_proba(&x);
        CaseVerdict {
            malicious: probability >= 0.5,
            probability,
            uncertainty: self.forest.uncertainty(&x),
        }
    }

    /// Classifies a batch and evaluates against ground truth.
    pub fn confusion(&self, cases: &[(BeaconCase, bool)]) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::default();
        for (case, truth) in cases {
            m.record(*truth, self.classify(case).malicious);
        }
        m
    }

    /// Reproduces Fig. 11: cases are examined in descending-uncertainty
    /// order; examining a case reveals its true label (fixing any
    /// classification error). Returns `curve[k]` = number of false
    /// negatives remaining after examining `k` cases (so `curve[0]` is the
    /// classifier's raw FN count and the curve is non-increasing).
    pub fn false_negative_curve(&self, cases: &[(BeaconCase, bool)]) -> Vec<usize> {
        let verdicts: Vec<CaseVerdict> = cases.iter().map(|(c, _)| self.classify(c)).collect();
        let mut order: Vec<usize> = (0..cases.len()).collect();
        order.sort_by(|&a, &b| {
            verdicts[b]
                .uncertainty
                .total_cmp(&verdicts[a].uncertainty)
                .then(a.cmp(&b))
        });

        let mut remaining_fn = cases
            .iter()
            .zip(&verdicts)
            .filter(|((_, truth), v)| *truth && !v.malicious)
            .count();
        let mut curve = Vec::with_capacity(cases.len() + 1);
        curve.push(remaining_fn);
        for &i in &order {
            let (_, truth) = &cases[i];
            if *truth && !verdicts[i].malicious {
                remaining_fn -= 1;
            }
            curve.push(remaining_fn);
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::CommunicationPair;
    use baywatch_timeseries::detector::CandidatePeriod;

    fn mk_case(dest: &str, periodic: bool, seed: u64) -> BeaconCase {
        let intervals: Vec<f64> = if periodic {
            (0..40)
                .map(|i| 60.0 + ((seed + i) % 5) as f64 * 0.4)
                .collect()
        } else {
            (0..40)
                .map(|i| (((seed + i) * 2654435761) % 900) as f64 + 1.0)
                .collect()
        };
        let candidates = if periodic {
            vec![CandidatePeriod {
                frequency: 1.0 / 60.0,
                period: 60.0,
                power: 8.0,
                acf_score: 0.85,
                p_value: Some(0.4),
            }]
        } else {
            vec![CandidatePeriod {
                frequency: 1.0 / 450.0,
                period: 450.0,
                power: 1.2,
                acf_score: 0.15,
                p_value: Some(0.06),
            }]
        };
        BeaconCase {
            pair: CommunicationPair::new("s", dest),
            intervals,
            candidates,
            url_tokens: Default::default(),
            popularity: if periodic { 0.0002 } else { 0.006 },
            lm_score: if periodic { -3.6 } else { -1.7 },
            similar_sources: 1,
        }
    }

    fn labeled_population(n: usize) -> Vec<(BeaconCase, bool)> {
        (0..n)
            .map(|i| {
                let malicious = i % 3 == 0;
                (
                    mk_case(&format!("d{i}.com"), malicious, i as u64),
                    malicious,
                )
            })
            .collect()
    }

    fn forest_cfg() -> ForestConfig {
        ForestConfig {
            n_trees: 40,
            ..Default::default()
        }
    }

    #[test]
    fn confusion_matrix_arithmetic() {
        let mut m = ConfusionMatrix::default();
        m.record(false, false);
        m.record(false, true);
        m.record(true, false);
        m.record(true, true);
        assert_eq!(m.total(), 4);
        assert_eq!(m.false_positive_rate(), 0.5);
        assert_eq!(m.recall(), 0.5);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.accuracy(), 0.5);
        assert!(m.to_string().contains("classified malicious"));
    }

    #[test]
    fn empty_matrix_rates_are_zero() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.false_positive_rate(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn bootstrap_classifier_separates_populations() {
        let train = labeled_population(90);
        let inv = Investigator::train(&train, &forest_cfg()).unwrap();
        let test = labeled_population(60);
        let m = inv.confusion(&test);
        assert!(m.accuracy() > 0.9, "accuracy = {}", m.accuracy());
    }

    #[test]
    fn verdict_fields_consistent() {
        let inv = Investigator::train(&labeled_population(60), &forest_cfg()).unwrap();
        let v = inv.classify(&mk_case("x.com", true, 999));
        assert_eq!(v.malicious, v.probability >= 0.5);
        assert!((0.0..=1.0).contains(&v.uncertainty));
    }

    #[test]
    fn fn_curve_non_increasing_and_terminates_at_zero() {
        let inv = Investigator::train(&labeled_population(60), &forest_cfg()).unwrap();
        let test = labeled_population(120);
        let curve = inv.false_negative_curve(&test);
        assert_eq!(curve.len(), test.len() + 1);
        for w in curve.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(*curve.last().unwrap(), 0);
    }

    #[test]
    fn training_on_empty_set_errors() {
        assert!(Investigator::train(&[], &forest_cfg()).is_err());
    }

    #[test]
    fn importances_named_and_sorted() {
        let inv = Investigator::train(&labeled_population(90), &forest_cfg()).unwrap();
        let imp = inv.feature_importances();
        assert_eq!(imp.len(), baywatch_classifier::N_FEATURES);
        for w in imp.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let total: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The synthetic populations differ most in ACF/lm/popularity; one
        // of those should top the list.
        let top = imp[0].0;
        assert!(
            [
                "acf score",
                "lm score",
                "popularity",
                "power",
                "match fraction",
                "interval cv",
                "compressibility",
                "symbol entropy"
            ]
            .contains(&top),
            "unexpected top feature {top}"
        );
    }

    #[test]
    fn feature_vector_arity() {
        let case = mk_case("x.com", true, 1);
        assert_eq!(case_features(&case).len(), baywatch_classifier::N_FEATURES);
    }
}
