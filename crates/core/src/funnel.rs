//! The filter funnel around periodicity detection (Fig. 3 of the paper):
//! filters 1, 2, 4–7 and case assembly, independent of how the window was
//! produced. [`Baywatch`](crate::pipeline::Baywatch) calls it once per
//! window, [`StreamingHunt`](crate::stream::StreamingHunt) once per tick;
//! each brings what depends on how its window was assembled — a
//! destination's popularity, filter 3's survivors, the novelty memory —
//! and gets the same filters in the same order.

use std::collections::BTreeMap;

use baywatch_langmodel::{corpus, DomainScorer};
use baywatch_obs::StageTracer;
use baywatch_timeseries::CandidatePeriod;

use crate::activity::ActivitySummary;
use crate::pair::CommunicationPair;
use crate::pipeline::BaywatchConfig;
use crate::rank::{rank_cases, BeaconCase, RankConfig, RankedCase};
use crate::tokens::TokenFilter;
use crate::whitelist::{GlobalWhitelist, LocalWhitelist};

/// Filter 3's survivors: each verified-periodic pair's window summary with
/// the detector's candidate periods.
pub(crate) type Hits = Vec<(ActivitySummary, Vec<CandidatePeriod>)>;

/// Everything filters 1, 2 and 4–7 need that outlives a window: the
/// trained language model, both whitelists, the token vocabulary and the
/// ranking weights.
#[derive(Debug)]
pub(crate) struct Funnel {
    pub(crate) scorer: DomainScorer,
    pub(crate) global_whitelist: GlobalWhitelist,
    local_whitelist: LocalWhitelist,
    token_filter: TokenFilter,
    rank: RankConfig,
}

impl Funnel {
    /// Trains the domain language model on the embedded corpus and loads
    /// the whitelists. Panics if `config.lm_order == 0` or
    /// `config.local_tau` is out of `(0, 1]`.
    pub(crate) fn new(config: &BaywatchConfig) -> Self {
        Self {
            scorer: DomainScorer::train(corpus::training_corpus(), config.lm_order),
            global_whitelist: if config.use_builtin_whitelist {
                GlobalWhitelist::from_seed_corpus()
            } else {
                GlobalWhitelist::default()
            },
            local_whitelist: LocalWhitelist::new(config.local_tau),
            token_filter: config.token_filter.clone(),
            rank: config.rank,
        }
    }

    /// Filter 1: whether `destination` is on the global whitelist.
    pub(crate) fn globally_whitelisted(&self, destination: &str) -> bool {
        self.global_whitelist.contains(destination)
    }

    /// Filter 2: whether a destination contacted by the fraction
    /// `popularity` of the monitored population is organizational
    /// infrastructure (τ_P).
    pub(crate) fn locally_whitelisted(&self, popularity: f64) -> bool {
        self.local_whitelist.is_whitelisted(popularity)
    }

    /// Filters 4–7 over filter 3's survivors: URL-token filter (§V-A),
    /// novelty (§V-B), language-model score and case assembly (§V-C),
    /// weighted ranking and percentile threshold (§V-D). Returns
    /// `(after_token_filter, after_novelty, ranked, report_cutoff)`.
    ///
    /// `popularity` gives a destination's share of the population;
    /// `is_novel` is asked once per token-filter survivor and may record
    /// the answer. The order of `hits` does not matter. With a `tracer`,
    /// the `token_filter`, `novelty` and `lm_rank` spans are recorded.
    pub(crate) fn rank(
        &self,
        hits: Hits,
        popularity: impl Fn(&str) -> f64,
        mut is_novel: impl FnMut(&CommunicationPair) -> bool,
        tracer: Option<&StageTracer>,
    ) -> (usize, usize, Vec<RankedCase>, usize) {
        // Sources sharing a destination are counted among *all* periodic
        // pairs — before the token filter, so a beacon keeps the siblings
        // whose tokens look benign.
        let mut per_destination: BTreeMap<&str, usize> = BTreeMap::new();
        for (summary, _) in &hits {
            *per_destination
                .entry(summary.pair.destination.as_str())
                .or_insert(0) += 1;
        }
        let similar: Vec<usize> = hits
            .iter()
            .map(|(summary, _)| per_destination[summary.pair.destination.as_str()])
            .collect();
        let mut hits: Vec<_> = hits.into_iter().zip(similar).collect();
        {
            let _span = tracer.map(|t| t.span("token_filter"));
            hits.retain(|((summary, _), _)| !self.token_filter.is_benign(&summary.url_tokens));
        }
        let after_token_filter = hits.len();
        {
            let _span = tracer.map(|t| t.span("novelty"));
            hits.retain(|((summary, _), _)| is_novel(&summary.pair));
        }
        let after_novelty = hits.len();

        let _span = tracer.map(|t| t.span("lm_rank"));
        let cases: Vec<BeaconCase> = hits
            .into_iter()
            .map(|((summary, candidates), similar_sources)| BeaconCase {
                popularity: popularity(&summary.pair.destination),
                lm_score: self.scorer.score_per_char(&summary.pair.destination),
                similar_sources,
                intervals: summary.intervals_f64(),
                url_tokens: summary.url_tokens,
                pair: summary.pair,
                candidates,
            })
            .collect();
        let (ranked, report_cutoff) = rank_cases(&cases, &self.rank);
        (after_token_filter, after_novelty, ranked, report_cutoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn funnel() -> Funnel {
        Funnel::new(&BaywatchConfig {
            use_builtin_whitelist: false,
            ..Default::default()
        })
    }

    /// A verified-periodic pair: `n` requests every `period` seconds, all
    /// carrying `token`, with one candidate of the given ACF score.
    fn hit(
        source: &str,
        destination: &str,
        period: u64,
        n: u64,
        token: &str,
        acf_score: f64,
    ) -> (ActivitySummary, Vec<CandidatePeriod>) {
        let events: Vec<(u64, &str)> = (0..n).map(|i| (1_000 + i * period, token)).collect();
        let pair = CommunicationPair::new(source, destination);
        let summary = ActivitySummary::from_events(pair, &events, 1).unwrap();
        let candidate = CandidatePeriod {
            frequency: 1.0 / period as f64,
            period: period as f64,
            power: 1.0,
            acf_score,
            p_value: None,
        };
        (summary, vec![candidate])
    }

    /// Lexicographic successor of `order`; false once it wraps around.
    fn next_permutation(order: &mut [usize]) -> bool {
        let Some(i) = (1..order.len()).rev().find(|&i| order[i - 1] < order[i]) else {
            return false;
        };
        let j = (i..order.len())
            .rev()
            .find(|&j| order[j] > order[i - 1])
            .unwrap();
        order.swap(i - 1, j);
        order[i..].reverse();
        true
    }

    #[test]
    fn rank_is_invariant_under_permutation_of_hits() {
        let funnel = funnel();
        let hits = vec![
            hit("a", "qzkxwv.com", 60, 40, "9f3ac1", 0.9),
            hit("b", "qzkxwv.com", 60, 35, "b27e90", 0.7),
            hit("c", "updates.vendor.io", 600, 30, "update", 0.8),
            hit("d", "news-portal.com", 300, 50, "cc1444", 0.6),
            hit("e", "seen-before.net", 45, 60, "e01f22", 0.95),
        ];
        let popularity = |d: &str| d.len() as f64 / 1_000.0;
        let is_novel = |p: &CommunicationPair| p.destination != "seen-before.net";
        let reference = funnel.rank(hits.clone(), popularity, is_novel, None);
        assert_eq!((reference.0, reference.1), (4, 3));
        assert_eq!(reference.2.len(), 3);

        let mut order: Vec<usize> = (0..hits.len()).collect();
        let mut permutations = 0;
        while next_permutation(&mut order) {
            let shuffled = order.iter().map(|&i| hits[i].clone()).collect();
            assert_eq!(
                funnel.rank(shuffled, popularity, is_novel, None),
                reference,
                "{order:?}"
            );
            permutations += 1;
        }
        assert_eq!(permutations, 119);
    }

    #[test]
    fn similar_sources_count_pairs_the_token_filter_drops() {
        let hits = vec![
            hit("victim", "shared-dest.biz", 60, 40, "9f3ac1", 0.9),
            hit("updater", "shared-dest.biz", 60, 40, "update", 0.9),
        ];
        let (after_token_filter, after_novelty, ranked, _) =
            funnel().rank(hits, |_| 0.0, |_| true, None);
        assert_eq!((after_token_filter, after_novelty), (1, 1));
        assert_eq!(ranked[0].case.pair.source, "victim");
        assert_eq!(ranked[0].case.similar_sources, 2);
    }

    #[test]
    fn a_pair_novelty_rejects_still_passed_the_token_filter() {
        let hits = vec![
            hit("a", "old-news.org", 60, 40, "9f3ac1", 0.9),
            hit("b", "fresh.org", 60, 40, "b27e90", 0.9),
        ];
        let mut asked = Vec::new();
        let (after_token_filter, after_novelty, ranked, cutoff) = funnel().rank(
            hits,
            |_| 0.0,
            |pair| {
                asked.push(pair.source.clone());
                pair.destination != "old-news.org"
            },
            None,
        );
        assert_eq!((after_token_filter, after_novelty), (2, 1));
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].case.pair.destination, "fresh.org");
        assert!(cutoff <= 1);
        assert_eq!(asked, ["a", "b"], "novelty is asked once per survivor");
    }
}
