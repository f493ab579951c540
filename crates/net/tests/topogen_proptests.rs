//! Property tests for the WAN topology generators (`nb_net::topogen`):
//! seed determinism, connectivity, install accounting, and — the
//! property the scale campaign's byte-identity gate rests on — engine
//! digest equality across worker counts over generated topologies.

use std::time::Duration;

use nb_net::topogen::{TopologyKind, TopologySpec};
use nb_net::{impl_actor_any, Actor, ClockProfile, Context, Incoming, ShardedSim};
use nb_wire::{Endpoint, Message, NodeId, Port, RealmId};
use proptest::prelude::*;

const KINDS: [TopologyKind; 4] = [
    TopologyKind::Star,
    TopologyKind::Linear,
    TopologyKind::RandomGeometric,
    TopologyKind::HierarchicalIsp,
];

fn kind_strategy() -> impl Strategy<Value = TopologyKind> {
    (0usize..KINDS.len()).prop_map(|i| KINDS[i])
}

proptest! {
    /// Same `(kind, brokers, seed)` → the same topology, byte for byte
    /// (witnessed by the digest); generation is a pure function.
    #[test]
    fn generation_is_seed_deterministic(
        kind in kind_strategy(),
        brokers in 2usize..150,
        seed in any::<u64>(),
    ) {
        let a = TopologySpec::new(kind, brokers, seed).generate();
        let b = TopologySpec::new(kind, brokers, seed).generate();
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a.edges.len(), b.edges.len());
        prop_assert_eq!(&a.region_of, &b.region_of);
    }

    /// The randomized families actually consume the seed: two seeds
    /// give two different geometries (the degenerate star/linear shapes
    /// are deliberately seed-independent).
    #[test]
    fn randomized_families_consume_the_seed(
        randomized in any::<bool>(),
        brokers in 20usize..150,
        seed in 0u64..u64::MAX - 1,
    ) {
        let kind = if randomized {
            TopologyKind::RandomGeometric
        } else {
            TopologyKind::HierarchicalIsp
        };
        let a = TopologySpec::new(kind, brokers, seed).generate();
        let b = TopologySpec::new(kind, brokers, seed + 1).generate();
        prop_assert_ne!(a.digest(), b.digest());
    }

    /// Every generated topology is one connected component — the flood
    /// injection proof (`repro scale` attach) needs a path between any
    /// broker pair.
    #[test]
    fn every_family_generates_connected_topologies(
        kind in kind_strategy(),
        brokers in 2usize..150,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::new(kind, brokers, seed).generate();
        prop_assert_eq!(topo.brokers(), brokers);
        prop_assert_eq!(topo.components(), 1, "{:?} seed {} split", kind, seed);
    }

    /// Region bookkeeping: every broker is placed in a valid region and
    /// every region is populated (regions scale at one per 50 brokers).
    #[test]
    fn regions_are_dense_and_in_bounds(
        kind in kind_strategy(),
        brokers in 2usize..150,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::new(kind, brokers, seed).generate();
        prop_assert_eq!(topo.region_of.len(), brokers);
        prop_assert!(topo.regions >= 1);
        let mut seen = vec![false; topo.regions];
        for &r in &topo.region_of {
            prop_assert!(r < topo.regions);
            seen[r] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "empty region");
    }

    /// Edge endpoints index real brokers and no edge is a self-loop.
    #[test]
    fn edges_index_real_brokers(
        kind in kind_strategy(),
        brokers in 2usize..150,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::new(kind, brokers, seed).generate();
        for &(a, b, latency) in &topo.edges {
            prop_assert!(a < brokers && b < brokers);
            prop_assert_ne!(a, b, "self-loop");
            prop_assert!(latency > Duration::ZERO);
        }
    }

    /// The broker overlay `repro scale` dials: every dial targets a
    /// lower index in the dialler's own region, and each region's
    /// overlay is one component, so a region-scoped discovery flood
    /// reaches every broker of its region.
    #[test]
    fn overlay_dials_stay_in_region_and_connect_each_region(
        kind in kind_strategy(),
        brokers in 2usize..150,
        seed in any::<u64>(),
    ) {
        let topo = TopologySpec::new(kind, brokers, seed).generate();
        let dials = topo.overlay_dials();
        prop_assert_eq!(dials.len(), brokers);
        // Every dial points down, so labelling in index order merges
        // each broker into the component of everything it dials.
        let mut component: Vec<usize> = (0..brokers).collect();
        for (i, list) in dials.iter().enumerate() {
            for &j in list {
                prop_assert!(j < i, "broker {} dials {} upward", i, j);
                prop_assert_eq!(topo.region_of[j], topo.region_of[i], "cross-region dial");
                let (from, to) = (component[i].max(component[j]), component[i].min(component[j]));
                for c in component.iter_mut().filter(|c| **c == from) {
                    *c = to;
                }
            }
        }
        let mut root_of_region: Vec<Option<usize>> = vec![None; topo.regions];
        for (i, &r) in topo.region_of.iter().enumerate() {
            let root = *root_of_region[r].get_or_insert(component[i]);
            prop_assert_eq!(root, component[i], "region {} overlay is split", r);
        }
    }
}

// --------------------------------------------------------------------
// Engine digest identity over generated topologies.
// --------------------------------------------------------------------

const GOSSIP_PORT: Port = Port(7);

/// Floods a TTL-carrying ping over the generated overlay: each node
/// greets its neighbors on start; every received hop is re-sent to all
/// neighbors with the budget (carried in `nonce`) decremented. Multi-hop
/// cross-shard traffic, which is exactly what the worker-invariance
/// claim must hold under.
struct Gossip {
    neighbors: Vec<NodeId>,
    heard: u64,
}

impl Actor for Gossip {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let me = ctx.me();
        for &n in &self.neighbors {
            let ping = Message::Ping {
                nonce: 3, // hop budget
                sent_at: ctx.now().as_micros(),
                reply_to: Endpoint::new(me, GOSSIP_PORT),
            };
            ctx.send_udp(GOSSIP_PORT, Endpoint::new(n, GOSSIP_PORT), &ping);
        }
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let Incoming::Datagram { msg, .. } = event else { return };
        let Message::Ping { nonce, .. } = msg.message() else { return };
        self.heard += 1;
        if *nonce == 0 {
            return;
        }
        let me = ctx.me();
        let hop = Message::Ping {
            nonce: nonce - 1,
            sent_at: ctx.now().as_micros(),
            reply_to: Endpoint::new(me, GOSSIP_PORT),
        };
        for &n in &self.neighbors {
            ctx.send_udp(GOSSIP_PORT, Endpoint::new(n, GOSSIP_PORT), &hop);
        }
    }

    impl_actor_any!();
}

/// Builds a sim over the generated topology and floods it.
fn run_gossip(kind: TopologyKind, brokers: usize, seed: u64, workers: usize) -> (u64, u64) {
    let topo = TopologySpec::new(kind, brokers, seed).generate();
    let mut neighbors: Vec<Vec<NodeId>> = vec![Vec::new(); brokers];
    for &(a, b, _) in &topo.edges {
        neighbors[a].push(NodeId(b as u32));
        neighbors[b].push(NodeId(a as u32));
    }
    for list in &mut neighbors {
        list.sort_unstable();
        list.dedup();
    }
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    let ids: Vec<NodeId> = (0..brokers)
        .map(|i| {
            let actor = Gossip { neighbors: std::mem::take(&mut neighbors[i]), heard: 0 };
            sim.add_node(
                &format!("g{i}"),
                RealmId(topo.region_of[i] as u16),
                Box::new(actor),
            )
        })
        .collect();
    topo.install(sim.network_mut(), &ids);
    sim.set_workers(workers);
    sim.run_for(Duration::from_secs(2));
    (sim.digest(), sim.events_processed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The worker-invariance contract at the foundation of the scale
    /// campaign's byte-identity gate: the same generated topology under
    /// the same flood produces identical engine digests and event
    /// counts at 1, 2, and 4 workers.
    #[test]
    fn engine_digest_is_worker_invariant_over_generated_topologies(
        kind in kind_strategy(),
        brokers in 3usize..40,
        seed in any::<u64>(),
    ) {
        let (d1, e1) = run_gossip(kind, brokers, seed, 1);
        let (d2, e2) = run_gossip(kind, brokers, seed, 2);
        let (d4, e4) = run_gossip(kind, brokers, seed, 4);
        prop_assert!(e1 > 0, "flood must generate traffic");
        prop_assert_eq!(d1, d2, "1 vs 2 workers");
        prop_assert_eq!(d1, d4, "1 vs 4 workers");
        prop_assert_eq!(e1, e2);
        prop_assert_eq!(e1, e4);
    }
}
