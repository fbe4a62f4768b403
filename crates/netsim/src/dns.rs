//! DNS-log simulation (§X of the paper).
//!
//! BAYWATCH applies to DNS logs, with two DNS-specific distortions the
//! paper calls out:
//!
//! * **caching** — a client re-resolving the same name inside the record's
//!   TTL hits its cache, so the DNS log *subsamples* the underlying beacon:
//!   a 60 s beacon behind a 300 s TTL shows up as a 300 s query train;
//! * **aggregation** — a regional resolver sees the merged behaviour of all
//!   clients behind a local resolver, blurring per-host periodicity.
//!
//! This module models both so the pipeline's behaviour on DNS-shaped input
//! can be evaluated.

use crate::types::HostId;

/// One DNS query log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsEvent {
    /// Epoch seconds.
    pub timestamp: u64,
    /// The client (or resolver, when aggregated) issuing the query.
    pub client: HostId,
    /// Queried name.
    pub qname: String,
}

/// Applies a resolver cache to an underlying request schedule: a query
/// reaches the log only when the cached record has expired.
///
/// # Panics
///
/// Panics if `ttl == 0` (a zero TTL means no caching — call sites should
/// pass the schedule through unchanged instead).
///
/// # Example
///
/// ```
/// use baywatch_netsim::dns::cache_filter;
///
/// // 60 s beacon, 300 s TTL: only every 5th request resolves.
/// let requests: Vec<u64> = (0..20).map(|i| i * 60).collect();
/// let logged = cache_filter(&requests, 300);
/// assert_eq!(logged, vec![0, 300, 600, 900]);
/// ```
pub fn cache_filter(requests: &[u64], ttl: u64) -> Vec<u64> {
    assert!(
        ttl > 0,
        "zero TTL disables caching; skip the filter instead"
    );
    let mut out = Vec::new();
    let mut expires_at: Option<u64> = None;
    for &t in requests {
        match expires_at {
            Some(e) if t < e => {}
            _ => {
                out.push(t);
                expires_at = Some(t + ttl);
            }
        }
    }
    out
}

/// Merges the query schedules of many clients into the view of one
/// regional resolver: events are interleaved, the client identity replaced
/// by the resolver's.
pub fn aggregate_behind_resolver(
    resolver: HostId,
    per_client: &[(HostId, Vec<u64>)],
    qname: &str,
) -> Vec<DnsEvent> {
    let mut out: Vec<DnsEvent> = per_client
        .iter()
        .flat_map(|(_, ts)| {
            ts.iter().map(|&t| DnsEvent {
                timestamp: t,
                client: resolver,
                qname: qname.to_owned(),
            })
        })
        .collect();
    out.sort_by_key(|e| e.timestamp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_subsamples_fast_beacon() {
        let requests: Vec<u64> = (0..100).map(|i| i * 60).collect();
        let logged = cache_filter(&requests, 300);
        assert_eq!(logged.len(), 20);
        for w in logged.windows(2) {
            assert_eq!(w[1] - w[0], 300);
        }
    }

    #[test]
    fn cache_transparent_for_slow_beacon() {
        // Period longer than TTL: every request resolves.
        let requests: Vec<u64> = (0..50).map(|i| i * 900).collect();
        let logged = cache_filter(&requests, 300);
        assert_eq!(logged, requests);
    }

    #[test]
    fn cache_expiry_boundary_is_inclusive() {
        // Request exactly at expiry resolves.
        let logged = cache_filter(&[0, 300], 300);
        assert_eq!(logged, vec![0, 300]);
        // One second early: cached.
        let logged = cache_filter(&[0, 299, 600], 300);
        assert_eq!(logged, vec![0, 600]);
    }

    #[test]
    #[should_panic]
    fn zero_ttl_panics() {
        cache_filter(&[1, 2], 0);
    }

    #[test]
    fn aggregation_merges_and_sorts() {
        let a = (HostId(1), vec![0u64, 100, 200]);
        let b = (HostId(2), vec![50u64, 150]);
        let events = aggregate_behind_resolver(HostId(99), &[a, b], "c2.evil.com");
        let ts: Vec<u64> = events.iter().map(|e| e.timestamp).collect();
        assert_eq!(ts, vec![0, 50, 100, 150, 200]);
        assert!(events.iter().all(|e| e.client == HostId(99)));
        assert!(events.iter().all(|e| e.qname == "c2.evil.com"));
    }

    #[test]
    fn cached_beacon_still_periodic_at_ttl_scale() {
        // The paper's point: caching changes the *observed* period (to the
        // TTL), but the log remains periodic and detectable.
        let requests: Vec<u64> = (0..200).map(|i| i * 60).collect();
        let logged = cache_filter(&requests, 300);
        let intervals: Vec<u64> = logged.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(intervals.iter().all(|&i| i == 300));
    }
}
