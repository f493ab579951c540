//! Property-based tests for the broker substrate: the subscription table
//! against a naive reference model, and topology invariants.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use nb_broker::topics::Destination;
use nb_broker::{SubscriptionTable, Topology, TopologyKind};
use nb_wire::{NodeId, Topic, TopicFilter};

#[derive(Debug, Clone)]
enum Op {
    Subscribe(u8, u8),   // (dest, filter index)
    Unsubscribe(u8, u8),
    RemoveDest(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Subscribe(d % 6, f % 8)),
        (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Unsubscribe(d % 6, f % 8)),
        any::<u8>().prop_map(|d| Op::RemoveDest(d % 6)),
    ]
}

fn dest(i: u8) -> Destination {
    if i.is_multiple_of(2) {
        Destination::Client(NodeId(u32::from(i)))
    } else {
        Destination::Link(NodeId(u32::from(i)))
    }
}

fn filters() -> Vec<TopicFilter> {
    ["a", "a/b", "a/*", "a/**", "b/c", "b/*", "**", "c"]
        .iter()
        .map(|s| TopicFilter::parse(s).unwrap())
        .collect()
}

/// The model test's filters, ascending by string. Their segments appear
/// in no other test of this binary and are interned here first, in
/// reverse string order, so the trie's segment ids run against the
/// strings: a walk that handed records back in id order instead of
/// sorting them fails the test.
fn model_filters() -> Vec<TopicFilter> {
    let mut names = ["mq", "mq/mb", "mq/*", "mq/**", "mq/ma/mc", "mq/ma/*", "**", "mc"];
    names.sort_unstable_by(|a, b| b.cmp(a));
    let mut fs: Vec<TopicFilter> = names.iter().map(|s| TopicFilter::parse(s).unwrap()).collect();
    fs.sort();
    fs
}

fn model_topics() -> Vec<Topic> {
    ["mq", "mq/mb", "mq/ma/mc", "mq/mz", "mc", "mc/mq"].iter().map(|s| Topic::parse(s).unwrap()).collect()
}

proptest! {
    /// The table behaves exactly like a naive refcount map under any
    /// operation sequence: what each call returns — `remove_destination`'s
    /// filters in string order included — and, after every op, `len`,
    /// `filters_of` and `dest_matches` for every destination.
    #[test]
    fn subscription_table_matches_reference_model(ops in prop::collection::vec(arb_op(), 0..200)) {
        let fs = model_filters();
        let topics = model_topics();
        let mut table = SubscriptionTable::new();
        let mut model: BTreeMap<(u8, u8), usize> = BTreeMap::new();
        // The model's filters at `d`, in string order: `fs` is sorted.
        let filters_at = |model: &BTreeMap<(u8, u8), usize>, d: u8| -> Vec<TopicFilter> {
            model.keys().filter(|(dd, _)| *dd == d).map(|(_, f)| fs[*f as usize].clone()).collect()
        };
        for op in ops {
            match op {
                Op::Subscribe(d, f) => {
                    let fresh = table.subscribe(dest(d), fs[f as usize].clone());
                    let count = model.entry((d, f)).or_insert(0);
                    *count += 1;
                    prop_assert_eq!(fresh, *count == 1);
                }
                Op::Unsubscribe(d, f) => {
                    let gone = table.unsubscribe(dest(d), &fs[f as usize]);
                    match model.get_mut(&(d, f)) {
                        None => prop_assert!(!gone),
                        Some(count) => {
                            *count -= 1;
                            let model_gone = *count == 0;
                            if model_gone {
                                model.remove(&(d, f));
                            }
                            prop_assert_eq!(gone, model_gone);
                        }
                    }
                }
                Op::RemoveDest(d) => {
                    let removed = table.remove_destination(dest(d));
                    prop_assert_eq!(removed, filters_at(&model, d));
                    model.retain(|(dd, _), _| *dd != d);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            for d in 0..6 {
                prop_assert_eq!(table.filters_of(dest(d)), filters_at(&model, d));
                for topic in &topics {
                    let expected = model.keys().any(|&(dd, f)| dd == d && fs[f as usize].matches(topic));
                    prop_assert_eq!(table.dest_matches(dest(d), topic), expected, "{:?} on {}", dest(d), topic);
                }
            }
        }
    }

    /// `matches` agrees with brute-force filter evaluation.
    #[test]
    fn matches_agrees_with_bruteforce(
        ops in prop::collection::vec(arb_op(), 0..100),
        topic_idx in 0usize..6,
    ) {
        let fs = filters();
        let topics: Vec<Topic> =
            ["a", "a/b", "a/b/c", "b/c", "c", "zz/yy"].iter().map(|s| Topic::parse(s).unwrap()).collect();
        let mut table = SubscriptionTable::new();
        let mut model: BTreeMap<(u8, u8), usize> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Subscribe(d, f) => {
                    table.subscribe(dest(d), fs[f as usize].clone());
                    *model.entry((d, f)).or_insert(0) += 1;
                }
                Op::Unsubscribe(d, f) => {
                    table.unsubscribe(dest(d), &fs[f as usize]);
                    if let Some(c) = model.get_mut(&(d, f)) {
                        *c -= 1;
                        if *c == 0 {
                            model.remove(&(d, f));
                        }
                    }
                }
                Op::RemoveDest(d) => {
                    table.remove_destination(dest(d));
                    model.retain(|(dd, _), _| *dd != d);
                }
            }
        }
        let topic = &topics[topic_idx];
        let expected: BTreeSet<Destination> = model
            .keys()
            .filter(|(_, f)| fs[*f as usize].matches(topic))
            .map(|(d, _)| dest(*d))
            .collect();
        let got: BTreeSet<Destination> = table.matches(topic).iter().copied().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn built_topologies_have_expected_edge_counts(n in 0usize..40) {
        for kind in TopologyKind::ALL {
            let t = Topology::build(kind, n);
            let expected = match kind {
                TopologyKind::Unconnected => 0,
                TopologyKind::Star | TopologyKind::Linear | TopologyKind::Tree => n.saturating_sub(1),
                TopologyKind::Ring => {
                    if n <= 1 { 0 } else if n == 2 { 1 } else { n }
                }
            };
            prop_assert_eq!(t.edges().len(), expected, "{:?} n={}", kind, n);
            if n >= 1 && kind != TopologyKind::Unconnected {
                prop_assert!(t.is_connected(), "{:?} n={}", kind, n);
            }
        }
    }

    #[test]
    fn random_topology_connected_with_min_edges(
        n in 2usize..50,
        extra in 0usize..10,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = Topology::random(n, extra, &mut rng);
        prop_assert!(t.is_connected());
        prop_assert!(t.edges().len() >= n - 1);
        prop_assert!(t.edges().len() <= n - 1 + extra);
        // dial_lists covers each edge exactly once, dialling downwards.
        let total: usize = t.dial_lists().iter().map(Vec::len).sum();
        prop_assert_eq!(total, t.edges().len());
    }

    #[test]
    fn neighbors_symmetric(n in 2usize..30, extra in 0usize..6, seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = Topology::random(n, extra, &mut rng);
        for i in 0..n {
            for nb in t.neighbors(i) {
                prop_assert!(t.neighbors(nb).contains(&i), "{i} <-> {nb}");
            }
        }
    }
}
