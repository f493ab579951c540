//! Determinism contract of the sharded engine.
//!
//! The conservative-lookahead engine promises byte-identical digests
//! for every worker count: RNG streams key on node id, every queued
//! event carries a key (its origin and that origin's emission count)
//! that fixes its place among same-instant events, and the deal of LPs
//! to workers only chooses *where* an LP executes, never *what* it
//! observes. These properties pin that contract over two topology
//! families — random geometric graphs (latencies drawn from node
//! placement) and the paper's star overlay under a full discovery —
//! both with and without a generated chaos plan in flight.
//!
//! `cargo test` builds nb-net with debug assertions, so every event of
//! every case below also checks that its LP runs its events in strictly
//! increasing (time, key), but for an event the node or the harness
//! queued for the instant it stands at (`Executor::check_order` in
//! `nb_net::shard`).

use std::time::Duration;

use nb_broker::{BrokerConfig, Topology, TopologyKind};
use nb_discovery::scenario::ScenarioBuilder;
use nb_discovery::{DiscoveryBrokerActor, Entity, ResponsePolicy};
use nb_net::wan::{BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};
use nb_net::{impl_actor_any, Actor, ChaosProfile, ChaosTargets, Context, FaultPlan, Incoming, LinkSpec, NodeId, RealmId, ShardedSim};
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Message, Topic, TopicFilter};
use proptest::prelude::*;

/// Pings a fixed peer on a timer cadence, echoes pings back as pongs:
/// enough traffic to exercise RNG streams, timers and cross-shard
/// delivery without any protocol machinery on top.
struct Gossip {
    peer: NodeId,
    rounds_left: u32,
    pongs: u32,
}

impl Actor for Gossip {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(Duration::from_millis(50), 1);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Timer { token: 1 } => {
                let ping = Message::Ping {
                    nonce: self.rounds_left as u64,
                    sent_at: ctx.now().as_micros(),
                    reply_to: Endpoint::new(ctx.me(), well_known::PING),
                };
                ctx.send_udp(
                    well_known::PING,
                    Endpoint::new(self.peer, well_known::PING),
                    &ping,
                );
                if self.rounds_left > 0 {
                    self.rounds_left -= 1;
                    ctx.set_timer(Duration::from_millis(120), 1);
                }
            }
            Incoming::Datagram { to_port, msg, .. } => {
                if let Message::Ping { nonce, sent_at, reply_to } = *msg.message() {
                    let pong = Message::Pong {
                        nonce,
                        echoed_sent_at: sent_at,
                        responder: ctx.me(),
                    };
                    ctx.send_udp(to_port, reply_to, &pong);
                } else if let Message::Pong { .. } = msg.message() {
                    self.pongs += 1;
                }
            }
            _ => {}
        }
    }

    impl_actor_any!();
}

/// Builds a random geometric deployment from `points` (one node per
/// point, pairwise latency a function of squared distance), runs it
/// for six virtual seconds — optionally under a generated chaos plan —
/// and returns `(digest, events_processed)`.
fn geometric_fingerprint(
    seed: u64,
    points: &[(u16, u16)],
    chaos: bool,
    workers: usize,
) -> (u64, u64) {
    let mut sim = ShardedSim::new(seed);
    sim.set_workers(workers);
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, _) in points.iter().enumerate() {
        // Node 0 has no predecessor and gossips with itself (loopback
        // stays inside its own LP); node i pings node i-1.
        let peer = *nodes.last().unwrap_or(&NodeId(0));
        let rounds = if i == 0 { 0 } else { 12 };
        let node = sim.add_node(
            &format!("geo-{i}"),
            RealmId(i as u16 % 3),
            Box::new(Gossip { peer, rounds_left: rounds, pongs: 0 }),
        );
        nodes.push(node);
    }
    // Geometric latencies: every pair's link is derived from where the
    // two nodes landed, so the latency structure (and with it the
    // conservative lookahead) varies per generated instance.
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            let (xi, yi) = points[i];
            let (xj, yj) = points[j];
            let dx = (xi as i64 - xj as i64).unsigned_abs();
            let dy = (yi as i64 - yj as i64).unsigned_abs();
            let micros = 200 + (dx * dx + dy * dy) * 40;
            let spec = LinkSpec::wan(Duration::from_micros(micros)).with_loss(0.001);
            sim.network_mut().set_link(nodes[i], nodes[j], spec);
        }
    }
    if chaos {
        let targets = ChaosTargets {
            bdns: vec![nodes[0]],
            brokers: nodes[1..nodes.len() - 1].to_vec(),
            clients: vec![*nodes.last().expect("nodes")],
        };
        let plan =
            FaultPlan::generate(seed, &ChaosProfile::light(), &targets, Duration::from_secs(4));
        sim.apply_fault_plan(&plan);
    }
    sim.run_for(Duration::from_secs(6));
    (sim.digest(), sim.events_processed())
}

/// Builds the paper's star scenario on the sharded engine and returns
/// `(digest, events, now_ns)`. Without chaos it runs one full
/// discovery; with chaos it applies a generated plan over the booted
/// deployment and lets it fight through.
fn star_fingerprint(seed: u64, site: usize, chaos: bool, workers: usize) -> (u64, u64) {
    let builder = ScenarioBuilder::new(TopologyKind::Star, site, seed);
    let mut sim = builder.describe().build();
    sim.set_workers(workers);
    let mut scenario = builder.scenario(sim);
    if chaos {
        let targets = ChaosTargets {
            bdns: scenario.bdn.into_iter().collect(),
            brokers: scenario.brokers.clone(),
            clients: vec![scenario.client],
        };
        let plan =
            FaultPlan::generate(seed, &ChaosProfile::light(), &targets, Duration::from_secs(8));
        scenario.sim.apply_fault_plan(&plan);
        scenario.sim.run_for(Duration::from_secs(12));
    } else {
        let _ = scenario.run_discovery_once();
    }
    (scenario.sim.digest(), scenario.sim.events_processed())
}

fn client_sites() -> impl Strategy<Value = usize> {
    prop_oneof![Just(BLOOMINGTON), Just(UMN), Just(NCSA), Just(FSU), Just(CARDIFF)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random geometric topologies: the digest is invariant to the
    /// worker count, chaos plan or not.
    #[test]
    fn geometric_digest_invariant_across_workers_and_shards(
        seed in any::<u64>(),
        points in prop::collection::vec((0u16..100, 0u16..100), 4..8),
        chaos in any::<bool>(),
    ) {
        let reference = geometric_fingerprint(seed, &points, chaos, 1);
        for workers in [2usize, 3, 4] {
            let got = geometric_fingerprint(seed, &points, chaos, workers);
            prop_assert_eq!(got, reference, "diverged at workers={} chaos={}", workers, chaos);
        }
    }

    /// The paper's star overlay under a full discovery (or a chaos
    /// plan): same invariance on the real protocol stack.
    #[test]
    fn star_digest_invariant_across_workers_and_shards(
        seed in any::<u64>(),
        site in client_sites(),
        chaos in any::<bool>(),
    ) {
        let reference = star_fingerprint(seed, site, chaos, 1);
        for workers in [2usize, 4] {
            let got = star_fingerprint(seed, site, chaos, workers);
            prop_assert_eq!(got, reference, "diverged at workers={} chaos={}", workers, chaos);
        }
    }
}

/// A meshed pub/sub overlay — an eight-broker ring with three chords,
/// two subscribers a broker, four publishers, one link flapping
/// mid-stream — so that the data plane's per-publisher prune state (a
/// `Prune` answers a duplicate; which copy of an event is the duplicate
/// is an arrival order) is under the contract too. Returns `(digest,
/// events, deliveries, prunes sent)`.
fn meshed_pubsub_fingerprint(workers: usize) -> (u64, u64, usize, u64) {
    let mut sim = ShardedSim::new(77);
    sim.set_workers(workers);
    let mut edges = Topology::build(TopologyKind::Ring, 8).edges().to_vec();
    edges.extend([(0, 4), (1, 5), (2, 6)]);
    let topo = Topology::from_edges(8, edges);
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
        let broker = DiscoveryBrokerActor::new(cfg, Vec::new(), ResponsePolicy::open());
        brokers.push(sim.add_node(&format!("b{i}"), RealmId(0), Box::new(broker)));
    }
    let client = |sim: &mut ShardedSim, name: String, broker: NodeId, filters: Vec<TopicFilter>| {
        sim.add_node(&name, RealmId(0), Box::new(Entity::of_broker(broker, filters)))
    };
    let subs: Vec<NodeId> = (0..16)
        .map(|i| {
            let filter = TopicFilter::parse(&format!("mesh/t{}/**", i % 4)).expect("filter");
            client(&mut sim, format!("s{i}"), brokers[i % 8], vec![filter])
        })
        .collect();
    let pubs: Vec<NodeId> =
        (0..4).map(|p| client(&mut sim, format!("p{p}"), brokers[2 * p], Vec::new())).collect();
    let plan = FaultPlan::new().flap_at(
        Duration::from_millis(4_300),
        brokers[0],
        brokers[4],
        Duration::from_secs(3),
    );
    sim.apply_fault_plan(&plan);
    sim.run_for(Duration::from_secs(3));
    for round in 0..60u8 {
        for (p, &node) in pubs.iter().enumerate() {
            let topic = Topic::parse(&format!("mesh/t{}/x", (p + round as usize) % 4)).expect("topic");
            sim.actor_mut::<Entity>(node).expect("publisher").queue_publish(topic, vec![round]);
        }
        sim.run_for(Duration::from_millis(150));
    }
    sim.run_for(Duration::from_secs(2));
    // What arrived, a repeat included: an `Entity` keeps a repeated id
    // out of `received` and counts it.
    let deliveries = subs
        .iter()
        .map(|&s| sim.actor::<Entity>(s).expect("sub"))
        .map(|sub| sub.received.len() + sub.duplicates_dropped as usize)
        .sum();
    let prunes = brokers.iter().map(|&b| sim.actor::<DiscoveryBrokerActor>(b).expect("broker").broker.prunes_sent).sum();
    (sim.digest(), sim.events_processed(), deliveries, prunes)
}

#[test]
fn meshed_pubsub_digest_invariant_across_workers() {
    let reference = meshed_pubsub_fingerprint(1);
    assert!(reference.3 > 0, "the overlay has cycles: something was pruned");
    // 960 are owed (900 arrive); the flap may cost what one subtree misses
    // in a lease. Repeats count, so a broker that hands each event over
    // twice fails.
    assert!((800..=960).contains(&reference.2), "{} deliveries", reference.2);
    for workers in [2, 4] {
        assert_eq!(meshed_pubsub_fingerprint(workers), reference, "diverged at workers={workers}");
    }
}

/// A fixed-seed repeat of the same invocation is also stable from run
/// to run — no hidden global state leaks into the sharded engine.
#[test]
fn repeat_sharded_invocations_are_stable() {
    let points = [(3u16, 4u16), (40, 8), (80, 77), (12, 60), (55, 30)];
    let first = geometric_fingerprint(9, &points, true, 4);
    let second = geometric_fingerprint(9, &points, true, 4);
    assert_eq!(first, second);
}
