//! Character n-gram language model for DGA domain detection
//! (BAYWATCH §V-C).
//!
//! Botnets commonly use *domain generation algorithms* (DGAs) to rendezvous
//! with their command-and-control servers: the bot derives a large pool of
//! pseudo-random names and tries them until one resolves. Such names avoid
//! collisions with existing registrations by construction, which makes their
//! character statistics starkly different from human-chosen names.
//!
//! BAYWATCH trains a 3-gram character model (with Kneser-Ney smoothing for
//! unseen n-grams) on a corpus of popular domains and scores each candidate
//! destination with `S = log P(D)`. Low scores flag algorithmically
//! generated names; the paper's example scores
//! `skmnikrzhrrzcjcxwfprgt.com` at −45.2 versus −7.4 for `google.com`.
//!
//! ```
//! use baywatch_langmodel::{corpus, DomainScorer};
//!
//! let scorer = DomainScorer::train(corpus::training_corpus(), 3);
//! let human = scorer.score("google.com");
//! let dga = scorer.score("skmnikrzhrrzcjcxwfprgt.com");
//! assert!(human > dga + 10.0, "human {human} vs dga {dga}");
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod corpus;
pub mod dga;
pub mod ngram;

pub use ngram::NgramModel;

/// Convenience wrapper: a trained n-gram model specialized to scoring
/// domain names (lower-cased, scored including a terminal marker).
#[derive(Debug, Clone)]
pub struct DomainScorer {
    model: NgramModel,
}

impl DomainScorer {
    /// Trains a scorer of the given n-gram order on an iterator of domain
    /// names.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` (propagated from [`NgramModel::train`]).
    pub fn train<I, S>(names: I, order: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self {
            model: NgramModel::train(names, order),
        }
    }

    /// Total log-probability `log P(D)` of the (lower-cased) domain name —
    /// the score `S` of §V-C. More negative ⇒ more anomalous.
    pub fn score(&self, domain: &str) -> f64 {
        self.model.log_prob(&domain.to_lowercase())
    }

    /// Length-normalized score (`log P(D)` divided by the number of scored
    /// transitions); useful to compare domains of different lengths.
    pub fn score_per_char(&self, domain: &str) -> f64 {
        self.model.log_prob_per_char(&domain.to_lowercase())
    }

    /// The underlying model.
    pub fn model(&self) -> &NgramModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scorer_separates_dga_from_human() {
        let scorer = DomainScorer::train(corpus::training_corpus(), 3);
        // Paper's worked examples (§V-C).
        let google = scorer.score("google.com");
        let dga = scorer.score("skmnikrzhrrzcjcxwfprgt.com");
        assert!(google > -25.0, "google scored {google}");
        assert!(dga < google - 15.0, "dga scored {dga}, google {google}");
    }

    #[test]
    fn scorer_is_case_insensitive() {
        let scorer = DomainScorer::train(corpus::training_corpus(), 3);
        assert_eq!(scorer.score("GOOGLE.COM"), scorer.score("google.com"));
    }

    #[test]
    fn per_char_score_comparable_across_lengths() {
        let scorer = DomainScorer::train(corpus::training_corpus(), 3);
        // A long human-readable domain should out-score a short DGA one per
        // char even though its total log-prob is lower.
        let long_human = scorer.score_per_char("internationalbusinessmachines.com");
        let short_dga = scorer.score_per_char("xq7zk.com");
        assert!(long_human > short_dga);
    }
}
