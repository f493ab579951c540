//! Property-based tests for the broker substrate's topology invariants.
//! The subscription table's model tests live with the table, in
//! `src/topics.rs`.

use proptest::prelude::*;

use nb_broker::{Topology, TopologyKind};

proptest! {
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
