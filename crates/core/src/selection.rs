//! Client-side selection: delay estimation, weighting, target set,
//! final choice.
//!
//! Paper §6: the requester estimates one-way delays by subtracting each
//! response's NTP-based UTC timestamp from its own UTC clock at arrival
//! (accurate to the NTP residual), sorts responses by delay, folds in the
//! usage metrics through the configurable weighting formula (§9), keeps
//! the best `size(T)` as the **target set**, measures precise RTTs with
//! UDP pings, and connects to the broker with the lowest ping RTT.

use nb_wire::{DiscoveryResponse, NodeId, UsageMetrics};

use crate::config::SelectionWeights;

/// One collected discovery response plus derived measurements.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The raw response.
    pub response: DiscoveryResponse,
    /// Estimated one-way delay, µs (can be slightly negative under clock
    /// residuals — the estimate is honest, not clamped).
    pub est_delay_us: i64,
    /// Usage weight under the active weighting (filled by [`shortlist`]).
    pub weight: f64,
}

/// Estimates the one-way delay of a response: the requester's UTC at
/// arrival minus the UTC the responder stamped at issue (paper §6).
pub fn estimate_delay_us(own_utc_at_arrival: u64, response: &DiscoveryResponse) -> i64 {
    own_utc_at_arrival as i64 - response.issued_at_utc as i64
}

/// The paper's weighting formula over a usage metric, extended with the
/// delay term ("OTHER factors may be similarly added").
///
/// ```
/// use nb_discovery::{weigh, SelectionWeights};
/// use nb_wire::UsageMetrics;
///
/// let weights = SelectionWeights::default();
/// let fresh = UsageMetrics {
///     active_connections: 2, num_links: 1, cpu_load_permille: 50,
///     total_memory: 1 << 30, used_memory: 100 << 20,
/// };
/// let loaded = UsageMetrics { active_connections: 500, used_memory: 900 << 20, ..fresh };
/// assert!(weigh(&fresh, 10_000, &weights) > weigh(&loaded, 10_000, &weights));
/// ```
pub fn weigh(metrics: &UsageMetrics, est_delay_us: i64, w: &SelectionWeights) -> f64 {
    let mut weight = 0.0;
    // Higher the better
    weight += metrics.free_memory_ratio() * w.free_to_total_memory;
    weight += (metrics.total_memory as f64 / (1024.0 * 1024.0)) * w.total_memory_mb;
    // Lower the better
    weight -= f64::from(metrics.num_links) * w.num_links;
    weight -= f64::from(metrics.active_connections) * w.connections;
    weight -= metrics.cpu_load() * w.cpu_load;
    weight -= (est_delay_us.max(0) as f64 / 1e3) * w.delay_ms;
    weight
}

/// Builds the target set: keeps the first `max_responses` candidates in
/// delay order, weighs them, and returns the best `target_size` sorted by
/// descending weight (stable for ties: lower delay first).
pub fn shortlist(
    mut candidates: Vec<Candidate>,
    weights: &SelectionWeights,
    max_responses: usize,
    target_size: usize,
) -> Vec<Candidate> {
    // Deduplicate by broker: keep the lowest-delay response per broker
    // (retransmissions can produce several).
    candidates.sort_by_key(|c| (c.response.broker, c.est_delay_us));
    candidates.dedup_by(|a, b| a.response.broker == b.response.broker);

    // Sort by estimated delay; consider only the first N.
    candidates.sort_by(|a, b| {
        a.est_delay_us.cmp(&b.est_delay_us).then(a.response.broker.cmp(&b.response.broker))
    });
    candidates.truncate(max_responses.max(1));

    // Weigh and keep the top T.
    for c in &mut candidates {
        c.weight = weigh(&c.response.metrics, c.est_delay_us, weights);
    }
    candidates.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.est_delay_us.cmp(&b.est_delay_us))
            .then(a.response.broker.cmp(&b.response.broker))
    });
    candidates.truncate(target_size.max(1));
    candidates
}

/// Chooses the final broker from measured ping RTTs: lowest average RTT
/// wins (paper §6); brokers that answered no pings are skipped. Ties
/// break on target-set order (higher weight first).
pub fn choose_by_rtt(targets: &[Candidate], rtts_us: &[(NodeId, u64)]) -> Option<NodeId> {
    let mut best: Option<(u64, NodeId)> = None;
    for t in targets {
        let broker = t.response.broker;
        let (sum, count) = rtts_us
            .iter()
            .filter(|(n, _)| *n == broker)
            .fold((0u64, 0u64), |(sum, count), &(_, rtt)| (sum + rtt, count + 1));
        if count == 0 {
            continue;
        }
        let avg = sum / count;
        if best.is_none_or(|(b, _)| avg < b) {
            best = Some((avg, broker));
        }
    }
    best.map(|(_, broker)| broker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_wire::{RealmId, TransportKind};
    use nb_wire::message::TransportEndpoint;
    use nb_util::Uuid;

    fn metrics(total_mb: u64, used_mb: u64, links: u32, conns: u32, cpu: u16) -> UsageMetrics {
        UsageMetrics {
            active_connections: conns,
            num_links: links,
            cpu_load_permille: cpu,
            total_memory: total_mb * 1024 * 1024,
            used_memory: used_mb * 1024 * 1024,
        }
    }

    fn cand(broker: u32, delay_us: i64, m: UsageMetrics) -> Candidate {
        Candidate {
            response: DiscoveryResponse {
                request_id: Uuid::from_u128(1),
                broker: NodeId(broker),
                hostname: format!("b{broker}"),
                realm: RealmId(0),
                transports: vec![TransportEndpoint {
                    kind: TransportKind::Tcp,
                    port: nb_wire::Port(5045),
                }],
                issued_at_utc: 0,
                metrics: m,
            },
            est_delay_us: delay_us,
            weight: 0.0,
        }
    }

    #[test]
    fn delay_estimation_is_a_subtraction() {
        let c = cand(1, 0, metrics(1024, 100, 0, 0, 0));
        let mut resp = c.response;
        resp.issued_at_utc = 1_000_000;
        assert_eq!(estimate_delay_us(1_050_000, &resp), 50_000);
        // Clock residual can push it negative; it must not be clamped.
        assert_eq!(estimate_delay_us(990_000, &resp), -10_000);
    }

    #[test]
    fn paper_formula_prefers_free_memory_and_penalises_links() {
        let w = SelectionWeights::default();
        let fresh = weigh(&metrics(1024, 100, 0, 0, 0), 0, &w);
        let loaded = weigh(&metrics(1024, 900, 0, 0, 0), 0, &w);
        assert!(fresh > loaded, "freer memory must score higher");
        let few_links = weigh(&metrics(1024, 100, 1, 0, 0), 0, &w);
        let many_links = weigh(&metrics(1024, 100, 10, 0, 0), 0, &w);
        assert!(few_links > many_links, "fewer links must score higher");
    }

    #[test]
    fn shortlist_keeps_best_and_orders_by_weight() {
        let w = SelectionWeights::default();
        let cands = vec![
            cand(1, 10_000, metrics(1024, 900, 5, 50, 500)), // close but loaded
            cand(2, 20_000, metrics(1024, 100, 1, 2, 10)),   // slightly farther, fresh
            cand(3, 500_000, metrics(4096, 100, 0, 0, 0)),   // far, very fresh
        ];
        let out = shortlist(cands, &w, 5, 2);
        assert_eq!(out.len(), 2);
        // The fresh nearby broker must beat the loaded one.
        assert_eq!(out[0].response.broker, NodeId(2));
    }

    #[test]
    fn shortlist_caps_at_max_responses_by_delay() {
        let w = SelectionWeights::default();
        // Broker 9 has wonderful metrics but is beyond the first N by delay.
        let mut cands: Vec<Candidate> =
            (0..5).map(|i| cand(i, i64::from(i) * 1_000, metrics(512, 400, 3, 30, 300))).collect();
        cands.push(cand(9, 1_000_000, metrics(8192, 0, 0, 0, 0)));
        let out = shortlist(cands, &w, 5, 10);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|c| c.response.broker != NodeId(9)));
    }

    #[test]
    fn shortlist_dedups_retransmitted_responses() {
        let w = SelectionWeights::default();
        let cands = vec![
            cand(1, 30_000, metrics(1024, 100, 0, 0, 0)),
            cand(1, 10_000, metrics(1024, 100, 0, 0, 0)), // same broker, lower delay
            cand(2, 20_000, metrics(1024, 100, 0, 0, 0)),
        ];
        let out = shortlist(cands, &w, 5, 5);
        assert_eq!(out.len(), 2);
        let b1 = out.iter().find(|c| c.response.broker == NodeId(1)).unwrap();
        assert_eq!(b1.est_delay_us, 10_000, "keep the lowest-delay duplicate");
    }

    #[test]
    fn choose_by_rtt_picks_minimum_average() {
        let targets = vec![
            cand(1, 0, metrics(1024, 100, 0, 0, 0)),
            cand(2, 0, metrics(1024, 100, 0, 0, 0)),
        ];
        let rtts = vec![
            (NodeId(1), 50_000),
            (NodeId(1), 70_000), // avg 60k
            (NodeId(2), 55_000), // avg 55k
        ];
        assert_eq!(choose_by_rtt(&targets, &rtts), Some(NodeId(2)));
    }

    #[test]
    fn choose_by_rtt_skips_silent_brokers() {
        let targets = vec![
            cand(1, 0, metrics(1024, 100, 0, 0, 0)),
            cand(2, 0, metrics(1024, 100, 0, 0, 0)),
        ];
        // Broker 1 never answered a ping (lost over many hops — exactly
        // the paper's rationale for UDP).
        let rtts = vec![(NodeId(2), 90_000)];
        assert_eq!(choose_by_rtt(&targets, &rtts), Some(NodeId(2)));
        assert_eq!(choose_by_rtt(&targets, &[]), None);
    }

    #[test]
    fn proximity_only_weights_pick_nearest() {
        let w = SelectionWeights::proximity_only();
        let cands = vec![
            cand(1, 5_000, metrics(128, 127, 20, 500, 999)), // near, terrible load
            cand(2, 80_000, metrics(8192, 0, 0, 0, 0)),      // far, perfect
        ];
        let out = shortlist(cands, &w, 5, 1);
        assert_eq!(out[0].response.broker, NodeId(1));
    }
}
