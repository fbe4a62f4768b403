//! BAYWATCH — robust beaconing detection for large-scale enterprise
//! networks (reproduction of Hu et al., DSN 2016).
//!
//! This umbrella crate re-exports the workspace so applications can depend
//! on a single crate:
//!
//! * [`core`] — the 8-step filtering pipeline ([`core::pipeline::Baywatch`]),
//! * [`timeseries`] — the periodicity-detection algorithm,
//! * [`langmodel`] — the DGA-scoring character language model,
//! * [`classifier`] — random-forest bootstrap investigation,
//! * [`mapreduce`] — the in-process MapReduce engine,
//! * [`netsim`] — the enterprise traffic simulator and noise models,
//! * [`obs`] — the metrics registry and stage tracer,
//! * [`resilience`] — circuit breakers and admission control,
//! * [`stats`] — the statistical substrate.
//!
//! See `examples/quickstart.rs` for the five-minute tour and DESIGN.md for
//! the system inventory.

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

pub use baywatch_classifier as classifier;
pub use baywatch_core as core;
pub use baywatch_langmodel as langmodel;
pub use baywatch_mapreduce as mapreduce;
pub use baywatch_netsim as netsim;
pub use baywatch_obs as obs;
pub use baywatch_resilience as resilience;
pub use baywatch_stats as stats;
pub use baywatch_timeseries as timeseries;

/// Converts a simulator event into a pipeline log record (the adapter the
/// examples and benches use).
pub fn record_from_event(event: &netsim::ProxyEvent) -> core::LogRecord {
    core::LogRecord::new(
        event.timestamp,
        event.host.to_string(),
        event.domain.clone(),
        event.url_path.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::types::HostId;

    #[test]
    fn event_adapter_maps_fields() {
        let e = netsim::ProxyEvent {
            timestamp: 42,
            host: HostId(7),
            source_ip: 0x0A00_0001,
            domain: "d.com".into(),
            url_path: "tok".into(),
        };
        let r = record_from_event(&e);
        assert_eq!(r.timestamp, 42);
        assert_eq!(r.domain, "d.com");
        assert_eq!(r.url_token, "tok");
        assert_eq!(r.source, HostId(7).to_string());
    }
}
