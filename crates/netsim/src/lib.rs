//! Enterprise web-proxy traffic simulation for evaluating BAYWATCH.
//!
//! The paper's evaluation (§VIII) runs on 35.6 TB of BlueCoat proxy logs —
//! 34.6 billion events from 130 K devices over five months — which are not
//! available outside the authors' organization. This crate substitutes a
//! *statistical* reproduction: an enterprise simulator that generates proxy
//! events with the structures the paper describes, at laptop scale and with
//! full ground truth (see DESIGN.md for the substitution argument).
//!
//! What is modeled:
//!
//! * **Benign browsing** ([`benign`]): bursty human sessions against a
//!   Zipf-weighted popular-domain catalog — the bulk of traffic that the
//!   whitelists remove.
//! * **Legitimate periodic services** ([`benign`]): software-update checks,
//!   AV signature polls, news/stream refreshes — the Challenge-4 lookalikes
//!   that make beaconing detection hard.
//! * **Malware beaconing** ([`malware`]): TDSS-, Zeus-, ZeroAccess- and
//!   Conficker-style callback schedules with the real-world perturbations
//!   of Fig. 2 (jitter, gaps, multi-scale on/off patterns) and DGA
//!   destinations.
//! * **Synthetic noise models** ([`synth`]): the Gaussian / missing-event /
//!   adding-event noise injections of the robustness evaluation (Fig. 10).
//! * **Ground truth** ([`oracle`]): a VirusTotal-style oracle labeling
//!   destinations, with a configurable miss rate.
//! * **Adversarial workloads** ([`adversarial`]): the deterministic slow
//!   beacon (a few events strided over an extreme span), the heaviest
//!   kind of pair `max_bins` admits.
//!
//! ```
//! use baywatch_netsim::enterprise::{EnterpriseConfig, EnterpriseSimulator};
//!
//! let mut sim = EnterpriseSimulator::new(EnterpriseConfig {
//!     hosts: 50,
//!     days: 2,
//!     ..Default::default()
//! });
//! let trace = sim.generate();
//! assert!(trace.events.len() > 1_000);
//! assert!(!trace.ground_truth.malicious_domains.is_empty());
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

pub mod adversarial;
pub mod benign;
pub mod corrupt;
pub mod dns;
pub mod enterprise;
pub mod longtrace;
pub mod malware;
pub mod netflow;
pub mod oracle;
pub mod rngutil;
pub mod synth;
pub mod types;

pub use enterprise::{EnterpriseConfig, EnterpriseSimulator, Trace};
pub use longtrace::{LongTraceConfig, LongTraceGenerator};
pub use oracle::ThreatIntelOracle;
pub use types::{GroundTruth, HostId, ProxyEvent};
