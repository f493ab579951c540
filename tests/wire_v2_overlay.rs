//! Wire v2 end to end in tier-1: the same cyclic overlay, traffic and
//! seed run once on the v1 codec and once with v2 negotiated on every
//! broker link. The codec may change bytes and timing, never what is
//! delivered to whom — and the v2 run's event, byte and segment counts
//! and its arrival times are pinned, so a change to the send path that
//! reorders RNG draws (or to the codec that moves a byte) fails here,
//! not only on the benchmark's digest line. A second case restarts a
//! relay broker mid-run: the links it re-dials start from empty symbol
//! tables on both sides, and v2 must still deliver what v1 does.
//!
//! Both engines run the codec. `Sim` carries the pins and everything
//! read off its trace; `ShardedSim`, which has no trace, must give one
//! digest at 1 and 4 workers and deliver what its own v1 run delivers.

use std::collections::BTreeSet;
use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, PubSubClient, Topology, TopologyKind};
use nb::net::{ClockProfile, DiscoveryEngine, LinkSpec, NetStats, ShardedSim, Sim, SimTime};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const BROKERS: usize = 6;
const SEED: u64 = 2005;
/// Subscriber `i` sits on broker `i % BROKERS` with filter `i % 3`.
const SUBSCRIBERS: usize = 12;
const FILTERS: [&str; 3] = ["telemetry/**", "telemetry/*/cpu", "alerts/disk"];
const TOPICS: [&str; 4] =
    ["telemetry/rack1/cpu", "telemetry/rack2/mem", "alerts/disk", "alerts/fan"];
const ROUNDS: u8 = 12;
/// The broker the fault case restarts (no publisher of its own; three
/// links) and the round it is restarted before.
const RELAY: usize = 3;
const RESTART_BEFORE_ROUND: u8 = 6;
/// `BrokerConfig::default()`'s heartbeat deadline: how long a link, and
/// so a mute, is believed.
const LEASE: Duration = Duration::from_secs(6);

/// One delivery: topic and payload (event ids are drawn from the sim's
/// RNG, whose draw order the codec is allowed to change).
type Delivery = (String, Vec<u8>);

struct Run {
    /// Sorted deliveries per subscriber: the multiset, order-free.
    delivered: Vec<Vec<Delivery>>,
    stats: NetStats,
    events_processed: u64,
    /// Stream messages delivered broker-to-broker, link handshakes (the
    /// only thing brokers say before v2 is negotiated) excluded.
    post_handshake_link_msgs: u64,
    duplicates_suppressed: u64,
    /// Sum of the virtual arrival times (µs) of every delivery to a
    /// subscriber. The counts above survive a permutation of the
    /// latency draws (the first event of a publisher floods, and a
    /// flood forwards the same number of copies whichever arrives
    /// first); this does not.
    arrival_micros: u64,
    /// Publishes [`RELAY`] forwarded to another broker after its restart.
    relayed_after_restart: usize,
}

/// What the overlay needs of an engine beyond what builds on it.
trait Engine: DiscoveryEngine {
    /// Restarts `node`, keeping its actor's state.
    fn restart_keeping_state(&mut self, node: NodeId);
}

impl Engine for Sim {
    fn restart_keeping_state(&mut self, node: NodeId) {
        self.restart(node, false);
    }
}

impl Engine for ShardedSim {
    fn restart_keeping_state(&mut self, node: NodeId) {
        self.restart(node, false);
    }
}

/// `node`'s actor, as the `T` it is.
fn actor<T: 'static>(engine: &impl DiscoveryEngine, node: NodeId) -> &T {
    engine.actor_dyn(node).and_then(|a| a.as_any().downcast_ref()).expect("an actor of its type")
}

/// Who is who in a deployment that has run.
struct Overlay {
    brokers: Vec<NodeId>,
    subscribers: Vec<NodeId>,
    /// When [`RELAY`] was back up, if it was restarted.
    restarted_at: Option<SimTime>,
}

/// Builds the overlay on `engine` and runs every round of traffic.
fn drive<E: Engine>(engine: &mut E, wire_v2: bool, restart_relay: bool) -> Overlay {
    engine.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);

    // A ring plus two chords: a publisher's first event reaches most
    // brokers twice, and what each duplicate prunes keeps the rest to
    // one copy a broker.
    let mut edges = Topology::build(TopologyKind::Ring, BROKERS).edges().to_vec();
    edges.extend([(0, 3), (1, 4)]);
    let topo = Topology::from_edges(BROKERS, edges);
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig { neighbors, wire_v2, ..BrokerConfig::default() };
        brokers.push(engine.add_node(&format!("b{i}"), RealmId(0), Box::new(BrokerActor::new(cfg))));
    }
    let subscribers: Vec<NodeId> = (0..SUBSCRIBERS)
        .map(|i| {
            let filter = TopicFilter::parse(FILTERS[i % FILTERS.len()]).unwrap();
            let client = PubSubClient::new(brokers[i % BROKERS], vec![filter]);
            engine.add_node(&format!("s{i}"), RealmId(0), Box::new(client))
        })
        .collect();
    let publishers: Vec<NodeId> = [0, 2, 5]
        .iter()
        .map(|&b| {
            let client = PubSubClient::new(brokers[b], vec![]);
            engine.add_node(&format!("p{b}"), RealmId(0), Box::new(client))
        })
        .collect();
    engine.run_for(Duration::from_secs(5));

    let mut restarted_at = None;
    for round in 0..ROUNDS {
        if restart_relay && round == RESTART_BEFORE_ROUND {
            // A quiet instant: the last round's traffic drained 200 ms
            // of LAN ago. The broker keeps its state, its links do not.
            engine.restart_keeping_state(brokers[RELAY]);
            engine.run_for(LEASE);
            restarted_at = Some(engine.now());
        }
        for (p, &publisher) in publishers.iter().enumerate() {
            let topic = Topic::parse(TOPICS[(round as usize + p) % TOPICS.len()]).unwrap();
            let client = engine.actor_dyn_mut(publisher).and_then(|a| a.as_any_mut().downcast_mut());
            let client: &mut PubSubClient = client.expect("a publisher");
            client.queue_publish(topic, vec![p as u8, round]);
        }
        engine.run_for(Duration::from_millis(200));
    }
    engine.run_for(Duration::from_secs(5));
    Overlay { brokers, subscribers, restarted_at }
}

/// Sorted deliveries per subscriber.
fn delivered(engine: &impl DiscoveryEngine, overlay: &Overlay) -> Vec<Vec<Delivery>> {
    overlay
        .subscribers
        .iter()
        .map(|&s| {
            let client: &PubSubClient = actor(engine, s);
            let mut got: Vec<Delivery> = client
                .received
                .iter()
                .map(|ev| (ev.topic.as_str().to_string(), ev.payload.to_vec()))
                .collect();
            got.sort();
            got
        })
        .collect()
}

/// What each subscriber received of the rounds from `first` on.
fn from_round(delivered: &[Vec<Delivery>], first: u8) -> Vec<Vec<Delivery>> {
    let keep = |d: &&Delivery| d.1[1] >= first;
    delivered.iter().map(|got| got.iter().filter(keep).cloned().collect()).collect()
}

fn run(wire_v2: bool, restart_relay: bool) -> Run {
    let mut sim = Sim::with_clock_profile(SEED, ClockProfile::perfect());
    sim.enable_trace();
    let overlay = drive(&mut sim, wire_v2, restart_relay);
    let Overlay { brokers, subscribers, restarted_at } = &overlay;

    let broker_set: BTreeSet<NodeId> = brokers.iter().copied().collect();
    let trace = sim.take_trace();
    let post_handshake_link_msgs = trace
        .iter()
        .filter(|r| r.stream)
        .filter(|r| broker_set.contains(&r.from.node) && broker_set.contains(&r.to.node))
        .filter(|r| !matches!(r.kind, "link-hello" | "link-accept"))
        .count() as u64;
    let arrival_micros = trace
        .iter()
        .filter(|r| r.kind == "publish" && subscribers.contains(&r.to.node))
        .map(|r| r.at.as_micros())
        .sum();
    let relayed_after_restart = trace
        .iter()
        .filter(|r| r.kind == "publish" && r.from.node == brokers[RELAY])
        .filter(|r| broker_set.contains(&r.to.node) && restarted_at.is_some_and(|t| r.at > t))
        .count();
    let duplicates_suppressed =
        brokers.iter().map(|&b| actor::<BrokerActor>(&sim, b).broker.duplicates_suppressed).sum();
    Run {
        delivered: delivered(&sim, &overlay),
        stats: sim.stats().clone(),
        events_processed: sim.events_processed(),
        post_handshake_link_msgs,
        duplicates_suppressed,
        arrival_micros,
        relayed_after_restart,
    }
}

/// One `ShardedSim` run.
struct ShardedRun {
    delivered: Vec<Vec<Delivery>>,
    stats: NetStats,
    digest: u64,
}

fn run_sharded(workers: usize, wire_v2: bool, restart_relay: bool) -> ShardedRun {
    let mut sim = ShardedSim::with_clock_profile(SEED, ClockProfile::perfect());
    sim.set_workers(workers);
    let overlay = drive(&mut sim, wire_v2, restart_relay);
    ShardedRun { delivered: delivered(&sim, &overlay), stats: sim.stats(), digest: sim.digest() }
}

/// The `ShardedSim` arm of a case, whose rounds from `first` on are
/// compared: v2 gives one digest at 1 and 4 workers, delivers what this
/// engine's own v1 run delivers — the right events, exactly once —
/// decodes every segment, and moves fewer bytes.
fn sharded_v2_delivers_what_its_v1_run_delivers(restart_relay: bool, first: u8) {
    let v1 = run_sharded(1, false, restart_relay);
    let v2 = run_sharded(1, true, restart_relay);
    assert_eq!(v2.digest, run_sharded(4, true, restart_relay).digest, "v2 digest at 1 and 4 workers");
    let (got_v1, got_v2) = (from_round(&v1.delivered, first), from_round(&v2.delivered, first));
    assert_eq!(got_v1, got_v2);
    for (i, got) in got_v2.iter().enumerate() {
        assert_eq!(got, &expected(i, first..ROUNDS), "subscriber {i}");
    }
    assert_eq!((v1.stats.segments_sent, v1.stats.frames_coalesced), (0, 0));
    assert!(v2.stats.segments_delivered > 0, "no segments crossed the overlay");
    assert_eq!(v2.stats.segment_decode_errors, 0);
    assert_eq!(v2.stats.frames_coalesced, v2.stats.segments_delivered);
    assert!(
        v2.stats.bytes_delivered < v1.stats.bytes_delivered,
        "v2 moved {} bytes, v1 {}",
        v2.stats.bytes_delivered,
        v1.stats.bytes_delivered
    );
}

/// What subscriber `i` must receive of `rounds`: every event whose topic
/// its filter matches, exactly once.
fn expected(i: usize, rounds: std::ops::Range<u8>) -> Vec<Delivery> {
    let filter = TopicFilter::parse(FILTERS[i % FILTERS.len()]).unwrap();
    let mut want: Vec<Delivery> = rounds
        .flat_map(|round| (0..3usize).map(move |p| (round, p)))
        .map(|(round, p)| (TOPICS[(round as usize + p) % TOPICS.len()], vec![p as u8, round]))
        .filter(|(topic, _)| filter.matches(&Topic::parse(topic).unwrap()))
        .map(|(topic, payload)| (topic.to_string(), payload))
        .collect();
    want.sort();
    want
}

#[test]
fn v2_delivers_what_v1_delivers_in_fewer_bytes_and_its_counts_are_pinned() {
    let v1 = run(false, false);
    let v2 = run(true, false);

    // Same deliveries, subscriber by subscriber, and they are the right
    // ones.
    assert_eq!(v1.delivered, v2.delivered);
    for (i, got) in v2.delivered.iter().enumerate() {
        assert_eq!(got, &expected(i, 0..ROUNDS), "subscriber {i}");
    }
    assert!(v1.duplicates_suppressed > 0, "the mesh must duplicate");
    assert!(v2.duplicates_suppressed > 0, "the mesh must duplicate");

    // v1 never touches the segment path; on v2 everything brokers say
    // to each other after the handshake travels in segments, and every
    // segment decodes.
    assert_eq!((v1.stats.segments_sent, v1.stats.frames_coalesced), (0, 0));
    assert_eq!(v2.stats.segment_decode_errors, 0);
    assert_eq!(v2.stats.segments_delivered, v2.stats.segments_sent);
    assert_eq!(v2.stats.frames_coalesced, v2.stats.segments_delivered);
    assert_eq!(v2.stats.frames_coalesced, v2.post_handshake_link_msgs);
    assert!(
        v2.stats.bytes_delivered < v1.stats.bytes_delivered,
        "v2 moved {} bytes, v1 {}",
        v2.stats.bytes_delivered,
        v1.stats.bytes_delivered
    );

    // The pin. These move only if the codec's bytes, the order of the
    // send path's latency draws or the frames brokers route change
    // (DESIGN.md §18 re-pinned it: fewer copies, a `Prune` per redundant
    // link). Retiring the flush epoch did not move it (§16): a broker
    // handler's link sends already came after its client sends, in peer
    // order, one frame a link.
    assert_eq!(
        (v2.events_processed, v2.stats.bytes_delivered, v2.stats.segments_sent),
        (4366, 15_520, 315),
    );
    assert_eq!(v2.arrival_micros, 883_381_870);
}

#[test]
fn v2_delivers_what_v1_delivers_after_a_relay_broker_restarts() {
    let v1 = run(false, true);
    let v2 = run(true, true);
    let after_v1 = from_round(&v1.delivered, RESTART_BEFORE_ROUND);
    let after_v2 = from_round(&v2.delivered, RESTART_BEFORE_ROUND);
    assert_eq!(after_v1, after_v2);
    for (i, got) in after_v2.iter().enumerate() {
        assert_eq!(got, &expected(i, RESTART_BEFORE_ROUND..ROUNDS), "subscriber {i}");
    }
    // The restarted broker is on the path again, and every segment on
    // its re-dialled links — cold tables on both sides — decoded.
    assert!(v1.relayed_after_restart > 0 && v2.relayed_after_restart > 0);
    assert_eq!(v2.stats.segment_decode_errors, 0);
    assert_eq!(v2.stats.frames_coalesced, v2.stats.segments_delivered);
}

#[test]
fn sharded_v2_delivers_what_its_v1_run_delivers_at_1_and_4_workers() {
    sharded_v2_delivers_what_its_v1_run_delivers(false, 0);
}

#[test]
fn sharded_v2_delivers_what_its_v1_run_delivers_after_a_relay_broker_restarts() {
    sharded_v2_delivers_what_its_v1_run_delivers(true, RESTART_BEFORE_ROUND);
}
