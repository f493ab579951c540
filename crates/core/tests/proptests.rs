//! Property-based tests for the selection algorithm, BDN injection
//! ordering, retry backoff and duplicate suppression — the paper's
//! decision logic under arbitrary inputs — and the semilattice laws of
//! the BDN registry's merge.

use std::time::Duration;

use proptest::prelude::*;

use nb_discovery::bdn::injection_order;
use nb_discovery::{shortlist, weigh, Candidate, RetryPolicy, SelectionWeights};
use nb_util::{BoundedDedup, Uuid};
use nb_wire::message::TransportEndpoint;
use nb_wire::{DiscoveryResponse, NodeId, Port, RealmId, TransportKind, UsageMetrics};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_metrics() -> impl Strategy<Value = UsageMetrics> {
    (any::<u16>(), 0u32..64, 0u16..=1000, 1u64..=(64 << 30), any::<u64>()).prop_map(
        |(conns, links, cpu, total, used)| UsageMetrics {
            active_connections: u32::from(conns),
            num_links: links,
            cpu_load_permille: cpu,
            total_memory: total,
            used_memory: used % (total + 1),
        },
    )
}

fn arb_candidate() -> impl Strategy<Value = Candidate> {
    (0u32..40, -30_000i64..500_000, arb_metrics()).prop_map(|(broker, delay, metrics)| Candidate {
        response: DiscoveryResponse {
            request_id: Uuid::from_u128(1),
            broker: NodeId(broker),
            hostname: format!("b{broker}"),
            realm: RealmId(0),
            transports: vec![TransportEndpoint { kind: TransportKind::Tcp, port: Port(5045) }],
            issued_at_utc: 0,
            metrics,
        },
        est_delay_us: delay,
        weight: 0.0,
    })
}

fn arb_weights() -> impl Strategy<Value = SelectionWeights> {
    (0.0f64..200.0, 0.0f64..0.1, 0.0f64..5.0, 0.0f64..1.0, 0.0f64..100.0, 0.0f64..2.0).prop_map(
        |(free, total, links, conns, cpu, delay)| SelectionWeights {
            free_to_total_memory: free,
            total_memory_mb: total,
            num_links: links,
            connections: conns,
            cpu_load: cpu,
            delay_ms: delay,
        },
    )
}

/// [`injection_order`] on a copy, as node ids.
fn ordered(targets: &[(NodeId, Option<u64>)]) -> Vec<NodeId> {
    let mut order = targets.to_vec();
    injection_order(&mut order);
    order.into_iter().map(|(n, _)| n).collect()
}

proptest! {
    #[test]
    fn shortlist_output_is_bounded_and_from_input(
        cands in prop::collection::vec(arb_candidate(), 0..60),
        weights in arb_weights(),
        max_resp in 1usize..20,
        target in 1usize..20,
    ) {
        let input_brokers: Vec<NodeId> =
            cands.iter().map(|c| c.response.broker).collect();
        let out = shortlist(cands, &weights, max_resp, target);
        prop_assert!(out.len() <= target.min(max_resp).max(1));
        for c in &out {
            prop_assert!(input_brokers.contains(&c.response.broker));
        }
    }

    #[test]
    fn shortlist_never_repeats_a_broker(
        cands in prop::collection::vec(arb_candidate(), 0..60),
        weights in arb_weights(),
    ) {
        let out = shortlist(cands, &weights, 32, 32);
        let mut brokers: Vec<NodeId> = out.iter().map(|c| c.response.broker).collect();
        let before = brokers.len();
        brokers.sort_unstable();
        brokers.dedup();
        prop_assert_eq!(brokers.len(), before, "duplicate broker in target set");
    }

    #[test]
    fn shortlist_orders_by_descending_weight(
        cands in prop::collection::vec(arb_candidate(), 2..60),
        weights in arb_weights(),
    ) {
        let out = shortlist(cands, &weights, 64, 64);
        for pair in out.windows(2) {
            prop_assert!(
                pair[0].weight >= pair[1].weight,
                "{} before {}", pair[0].weight, pair[1].weight
            );
        }
        // Reported weights match the formula.
        for c in &out {
            let w = weigh(&c.response.metrics, c.est_delay_us, &weights);
            prop_assert!((c.weight - w).abs() < 1e-9);
        }
    }

    #[test]
    fn shortlist_respects_the_delay_gate(
        cands in prop::collection::vec(arb_candidate(), 1..60),
        weights in arb_weights(),
        max_resp in 1usize..10,
    ) {
        // Every selected candidate must be within the first `max_resp`
        // distinct brokers by estimated delay.
        let mut per_broker_best: std::collections::BTreeMap<NodeId, i64> = Default::default();
        for c in &cands {
            let e = per_broker_best.entry(c.response.broker).or_insert(c.est_delay_us);
            *e = (*e).min(c.est_delay_us);
        }
        let mut by_delay: Vec<(i64, NodeId)> =
            per_broker_best.iter().map(|(&b, &d)| (d, b)).collect();
        by_delay.sort();
        let gate: Vec<NodeId> =
            by_delay.iter().take(max_resp).map(|&(_, b)| b).collect();
        let out = shortlist(cands, &weights, max_resp, 64);
        for c in &out {
            prop_assert!(gate.contains(&c.response.broker));
        }
    }

    #[test]
    fn weigh_is_monotone_in_each_penalty(
        m in arb_metrics(),
        weights in arb_weights(),
        delay in 0i64..1_000_000,
    ) {
        let base = weigh(&m, delay, &weights);
        let mut more_links = m;
        more_links.num_links += 1;
        prop_assert!(weigh(&more_links, delay, &weights) <= base);
        let mut more_conns = m;
        more_conns.active_connections += 1;
        prop_assert!(weigh(&more_conns, delay, &weights) <= base);
        prop_assert!(weigh(&m, delay + 1_000, &weights) <= base);
    }

    #[test]
    fn injection_order_is_a_permutation(
        rtts in prop::collection::vec(prop::option::of(1u64..1_000_000), 0..20),
    ) {
        let targets: Vec<(NodeId, Option<u64>)> =
            rtts.iter().enumerate().map(|(i, &r)| (NodeId(i as u32), r)).collect();
        let order = ordered(&targets);
        prop_assert_eq!(order.len(), targets.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), targets.len(), "order must not repeat targets");
    }

    #[test]
    fn injection_order_closest_and_farthest_lead(
        rtts in prop::collection::vec(1u64..1_000_000, 2..20),
    ) {
        let targets: Vec<(NodeId, Option<u64>)> =
            rtts.iter().enumerate().map(|(i, &r)| (NodeId(i as u32), Some(r))).collect();
        let order = ordered(&targets);
        let min = targets.iter().min_by_key(|(n, r)| (r.unwrap(), *n)).unwrap().0;
        let max_rtt = targets.iter().map(|(_, r)| r.unwrap()).max().unwrap();
        prop_assert_eq!(order[0], min, "closest first");
        let second_rtt = targets.iter().find(|(n, _)| *n == order[1]).unwrap().1.unwrap();
        prop_assert_eq!(second_rtt, max_rtt, "farthest second");
    }

    #[test]
    fn backoff_nominal_schedule_is_monotone_and_capped(
        base_ms in 1u64..10_000,
        multiplier in 1.0f64..4.0,
        cap_ms in 1u64..120_000,
        attempts in 1u32..80,
    ) {
        let policy = RetryPolicy::new(
            Duration::from_millis(base_ms),
            multiplier,
            Duration::from_millis(cap_ms),
            0.0,
        );
        let mut prev = Duration::ZERO;
        for attempt in 0..attempts {
            let nominal = policy.nominal(attempt);
            prop_assert!(nominal >= prev, "schedule shrank at attempt {attempt}");
            prop_assert!(nominal <= policy.cap, "attempt {attempt} exceeded the cap");
            prop_assert!(nominal >= policy.base.min(policy.cap));
            prev = nominal;
        }
    }

    #[test]
    fn backoff_jitter_stays_within_bounds(
        base_ms in 1u64..5_000,
        multiplier in 1.0f64..3.0,
        cap_ms in 1u64..60_000,
        jitter in 0.0f64..0.9,
        attempt in 0u32..40,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy::new(
            Duration::from_millis(base_ms),
            multiplier,
            Duration::from_millis(cap_ms),
            jitter,
        );
        let nominal = policy.nominal(attempt).as_secs_f64();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let d = policy.delay(attempt, &mut rng).as_secs_f64();
            prop_assert!(d >= nominal * (1.0 - jitter) - 1e-9, "{d} under the jitter floor");
            prop_assert!(d <= nominal * (1.0 + jitter) + 1e-9, "{d} over the jitter ceiling");
        }
    }

    #[test]
    fn dedup_cache_rejects_every_duplicate_under_packet_duplication(
        keys in prop::collection::vec(0u64..500, 1..200),
        copies in prop::collection::vec(1usize..4, 1..200),
    ) {
        // Model the duplication fault: every key arrives 1..=3 times,
        // interleaved in arrival order. A cache at least as large as
        // the distinct key count must accept each key exactly once.
        let mut distinct: Vec<u64> = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut cache = BoundedDedup::new(distinct.len().max(1));
        let mut accepted = 0usize;
        let mut seen: Vec<u64> = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let n = copies[i % copies.len()];
            for _ in 0..n {
                if cache.check_and_insert(k) {
                    prop_assert!(!seen.contains(&k), "key {k} accepted twice");
                    seen.push(k);
                    accepted += 1;
                }
            }
        }
        prop_assert_eq!(accepted, distinct.len(), "each distinct key accepted exactly once");
    }
}

// ---------------------------------------------------------------- federation

use nb_discovery::LeaseBook;
use nb_net::SimTime;
use nb_wire::BrokerAdvertisement;

/// One federated registry mutation: a lease application or a tombstone.
#[derive(Debug, Clone)]
enum FedOp {
    Lease { broker: u32, issued: u64, expires: u64 },
    Tombstone { broker: u32, stamp: u64 },
}

/// Ads are content-addressed by (broker, issued): every BDN that hears
/// the same heartbeat holds byte-identical ad fields, which is exactly
/// what the real advertiser produces.
fn fed_ad(broker: u32, issued: u64) -> BrokerAdvertisement {
    BrokerAdvertisement {
        broker: NodeId(broker),
        hostname: format!("b{broker}"),
        logical_address: format!("nb://fed/{broker}-{issued}"),
        realm: RealmId(1),
        transports: vec![],
        geography: None,
        institution: None,
        issued_at_utc: issued,
    }
}

fn arb_fed_op() -> impl Strategy<Value = FedOp> {
    prop_oneof![
        (0u32..6, 0u64..200, 0u64..400).prop_map(|(broker, issued, expires)| FedOp::Lease {
            broker,
            issued,
            expires,
        }),
        (0u32..6, 0u64..200).prop_map(|(broker, stamp)| FedOp::Tombstone { broker, stamp }),
    ]
}

/// A book as a federated BDN builds it (the default tombstone bound).
fn book_from(ops: &[FedOp]) -> LeaseBook {
    let mut book = LeaseBook::new(nb_discovery::federation::MAX_TOMBSTONES);
    for op in ops {
        match *op {
            FedOp::Lease { broker, issued, expires } => {
                book.apply_lease(fed_ad(broker, issued), SimTime::from_micros(expires));
            }
            FedOp::Tombstone { broker, stamp } => {
                book.apply_tombstone(NodeId(broker), stamp);
            }
        }
    }
    book
}

/// Every lease in these books is live at time zero.
const T0: SimTime = SimTime::ZERO;

/// `a` after merging `b`'s snapshot exactly as a BDN merges a peer's
/// push leg: every live record, then every tombstone.
fn merged(a: &LeaseBook, b: &LeaseBook) -> LeaseBook {
    let mut out = a.clone();
    for rec in b.live_records(T0) {
        out.apply_lease(rec.ad, SimTime::from_micros(rec.expires_at_us));
    }
    for tomb in b.tombstone_records() {
        out.apply_tombstone(tomb.broker, tomb.lease_issued_utc);
    }
    out
}

proptest! {
    #[test]
    fn lease_merge_is_commutative(
        ops_a in prop::collection::vec(arb_fed_op(), 0..40),
        ops_b in prop::collection::vec(arb_fed_op(), 0..40),
    ) {
        let a = book_from(&ops_a);
        let b = book_from(&ops_b);
        let ab = merged(&a, &b);
        let ba = merged(&b, &a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.digest(T0), ba.digest(T0));
    }

    #[test]
    fn lease_merge_is_idempotent(
        ops in prop::collection::vec(arb_fed_op(), 0..40),
    ) {
        let a = book_from(&ops);
        let aa = merged(&a, &a);
        prop_assert_eq!(&aa, &a);
        // Re-merging a remote book twice changes nothing either.
        let twice = merged(&merged(&a, &aa), &aa);
        prop_assert_eq!(&twice, &a);
    }

    #[test]
    fn lease_merge_is_associative(
        ops_a in prop::collection::vec(arb_fed_op(), 0..30),
        ops_b in prop::collection::vec(arb_fed_op(), 0..30),
        ops_c in prop::collection::vec(arb_fed_op(), 0..30),
    ) {
        let a = book_from(&ops_a);
        let b = book_from(&ops_b);
        let c = book_from(&ops_c);
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(&left, &right);
        prop_assert_eq!(left.digest(T0), right.digest(T0));
    }

    #[test]
    fn tombstone_never_coexists_with_a_retired_lease(
        ops in prop::collection::vec(arb_fed_op(), 0..60),
    ) {
        let book = book_from(&ops);
        for (broker, t) in book.tombstones() {
            if let Some(lease) = book.get(broker) {
                prop_assert!(
                    lease.ad.issued_at_utc > t,
                    "broker {broker:?}: live lease at {} under tombstone {t}",
                    lease.ad.issued_at_utc
                );
            }
        }
    }
}
