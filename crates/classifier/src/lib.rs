//! Bootstrap classification for the BAYWATCH investigation phase (§VI).
//!
//! After the filtering phases, a large network still produces more
//! suspicious cases than analysts can examine exhaustively. The paper's
//! alternative: label a small sample manually, train a random forest on it,
//! classify the rest, and hand analysts the *most uncertain* residual cases
//! first. This crate provides the pieces:
//!
//! * [`features`] — the Table-II feature extractor (series statistics,
//!   symbolized-series entropy / n-grams / compressibility, language-model
//!   score, popularity),
//! * [`tree`] / [`forest`] — from-scratch CART decision trees and the
//!   200-tree random-forest ensemble with out-of-bag estimates and
//!   per-case uncertainty (the triage order is `core::investigate`'s),
//! * [`compress`] — an LZ77 + Huffman compressor standing in for gzip in
//!   the compressibility feature (see DESIGN.md for the substitution).
//!
//! ```
//! use baywatch_classifier::features::{CaseFeatures, CaseInput};
//! use baywatch_classifier::forest::{ForestConfig, RandomForest};
//!
//! // Two toy populations: regular beacons (malicious) and noisy traffic.
//! let mut xs = Vec::new();
//! let mut ys = Vec::new();
//! for i in 0..60 {
//!     let malicious = i % 2 == 0;
//!     let input = CaseInput {
//!         intervals: if malicious { vec![60.0; 40] } else {
//!             (0..40).map(|j| ((i * 37 + j * 101) % 500) as f64 + 1.0).collect()
//!         },
//!         dominant_periods: if malicious { vec![60.0] } else { vec![] },
//!         power: if malicious { 10.0 } else { 0.4 },
//!         acf_score: if malicious { 0.9 } else { 0.05 },
//!         similar_sources: 1,
//!         lm_score: if malicious { -3.4 } else { -1.1 },
//!         popularity: 1e-4,
//!     };
//!     xs.push(CaseFeatures::extract(&input).to_vector());
//!     ys.push(malicious);
//! }
//! let rf = RandomForest::fit(&xs, &ys, &ForestConfig { n_trees: 20, ..Default::default() })
//!     .unwrap();
//! assert!(rf.oob_error().unwrap() < 0.2);
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

pub mod compress;
pub mod features;
pub mod forest;
pub mod tree;

pub use features::{CaseFeatures, CaseInput, N_FEATURES};
pub use forest::{ForestConfig, RandomForest};
pub use tree::{DecisionTree, TrainError, TreeConfig};
