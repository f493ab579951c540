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
//! At 1 and at 4 workers the codec must deliver what the same worker
//! count's v1 run delivers, and what its trace shows must not depend on
//! latency draws: every post-handshake broker message in a segment, and
//! the restarted relay back on the path. The 1-worker run alone carries
//! the pins. Two cases of two brokers check the handshake itself at 1
//! and at 4 workers: v2 when both ends ask for it, v1 when only one does.

use std::collections::BTreeSet;
use std::time::Duration;

use nb::broker::{BrokerConfig, Topology, TopologyKind};
use nb::discovery::{at_one_and_four_workers, Deployment, DiscoveryBrokerActor, Entity, Network, ResponsePolicy};
use nb::net::{ClockProfile, Fault, LinkSpec, NetStats, ShardedSim, SimTime, Trace, TraceLog};
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

/// Node `i`, for `i` in `range`.
fn ids(range: std::ops::Range<usize>) -> Vec<NodeId> {
    range.map(|i| NodeId(i as u32)).collect()
}

/// The brokers, then the subscribers, then publishers at brokers 0, 2
/// and 5.
fn brokers() -> Vec<NodeId> {
    ids(0..BROKERS)
}

fn subscribers() -> Vec<NodeId> {
    ids(BROKERS..BROKERS + SUBSCRIBERS)
}

/// A ring plus two chords — a publisher's first event reaches most
/// brokers twice, and what each duplicate prunes keeps the rest to one
/// copy a broker — on a lossless LAN, every broker link on `wire_v2`.
fn overlay(wire_v2: bool) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(40)), wan: None };
    let mut d = Deployment { seed: SEED, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    let mut edges = Topology::build(TopologyKind::Ring, BROKERS).edges().to_vec();
    edges.extend([(0, 3), (1, 4)]);
    let topo = Topology::from_edges(BROKERS, edges);
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| NodeId(j as u32)).collect();
        let cfg = BrokerConfig { neighbors, wire_v2, ..BrokerConfig::default() };
        d.add(format!("b{i}"), RealmId(0), false, move || {
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![], ResponsePolicy::open()))
        });
    }
    for i in 0..SUBSCRIBERS {
        let broker = NodeId((i % BROKERS) as u32);
        let filters = vec![TopicFilter::parse(FILTERS[i % FILTERS.len()]).unwrap()];
        d.add(format!("s{i}"), RealmId(0), false, move || Box::new(Entity::of_broker(broker, filters.clone())));
    }
    for b in [0, 2, 5] {
        d.add(format!("p{b}"), RealmId(0), false, move || Box::new(Entity::of_broker(NodeId(b), vec![])));
    }
    d
}

/// Runs every round of traffic on [`overlay`]; returns when [`RELAY`]
/// was back up, if it was restarted.
fn drive(engine: &mut ShardedSim, restart_relay: bool) -> Option<SimTime> {
    let publishers = ids(BROKERS + SUBSCRIBERS..BROKERS + SUBSCRIBERS + 3);
    engine.run_for(Duration::from_secs(5));
    let mut restarted_at = None;
    for round in 0..ROUNDS {
        if restart_relay && round == RESTART_BEFORE_ROUND {
            // A quiet instant: the last round's traffic drained 200 ms
            // of LAN ago. The broker keeps its state, its links do not.
            engine.apply_fault(Fault::Restart { node: brokers()[RELAY], lose_state: false });
            engine.run_for(LEASE);
            restarted_at = Some(engine.now());
        }
        for (p, &publisher) in publishers.iter().enumerate() {
            let topic = Topic::parse(TOPICS[(round as usize + p) % TOPICS.len()]).unwrap();
            let client = engine.actor_mut::<Entity>(publisher).expect("a publisher");
            client.queue_publish(topic, vec![p as u8, round]);
        }
        engine.run_for(Duration::from_millis(200));
    }
    engine.run_for(Duration::from_secs(5));
    restarted_at
}

/// Sorted deliveries per subscriber; none may have arrived twice (an
/// `Entity` keeps a repeated id out of `received` and counts it).
fn delivered(engine: &ShardedSim) -> Vec<Vec<Delivery>> {
    subscribers()
        .iter()
        .map(|&s| {
            let client = engine.actor::<Entity>(s).expect("a subscriber");
            assert_eq!(client.duplicates_dropped, 0, "a repeated delivery to {}", engine.node_name(s));
            let mut got: Vec<Delivery> =
                client.received.iter().map(|ev| (ev.topic.as_str().to_string(), ev.payload.to_vec())).collect();
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

/// Runs [`drive`] on `engine`, built by [`Deployment::traced`] with a
/// trace into `log`, and reads off what `log` took:
/// `(post_handshake_link_msgs, arrival_micros, relayed_after_restart)`
/// of [`Run`].
fn drive_traced(engine: &mut ShardedSim, log: &TraceLog, restart_relay: bool) -> (u64, u64, usize) {
    let restarted_at = drive(engine, restart_relay);
    let (brokers, subscribers) = (brokers(), subscribers());
    let broker_set: BTreeSet<NodeId> = brokers.iter().copied().collect();
    let trace = log.take();
    let post_handshake_link_msgs = trace
        .iter()
        .filter(|r| r.stream)
        .filter(|r| broker_set.contains(&r.from.node) && broker_set.contains(&r.to.node))
        .filter(|r| !matches!(r.msg.kind(), "link-hello" | "link-accept"))
        .count() as u64;
    let arrival_micros = trace
        .iter()
        .filter(|r| r.msg.kind() == "publish" && subscribers.contains(&r.to.node))
        .map(|r| r.at.as_micros())
        .sum();
    let relayed_after_restart = trace
        .iter()
        .filter(|r| r.msg.kind() == "publish" && r.from.node == brokers[RELAY])
        .filter(|r| broker_set.contains(&r.to.node) && restarted_at.is_some_and(|t| r.at > t))
        .count();
    (post_handshake_link_msgs, arrival_micros, relayed_after_restart)
}

/// One traced run at one worker.
fn run(wire_v2: bool, restart_relay: bool) -> Run {
    let (trace, log) = Trace::new();
    let mut sim = overlay(wire_v2).traced(&trace).build();
    let (post_handshake_link_msgs, arrival_micros, relayed_after_restart) =
        drive_traced(&mut sim, &log, restart_relay);
    let duplicates_suppressed =
        brokers().iter().map(|&b| sim.actor::<DiscoveryBrokerActor>(b).expect("a broker").broker.duplicates_suppressed).sum();
    Run {
        delivered: delivered(&sim),
        stats: sim.stats().clone(),
        events_processed: sim.events_processed(),
        post_handshake_link_msgs,
        duplicates_suppressed,
        arrival_micros,
        relayed_after_restart,
    }
}

/// A case at 1 and at 4 workers, whose rounds from `first` on are
/// compared: v2 delivers what the same worker count's v1 run delivers —
/// the right events, exactly once — decodes every segment, carries every
/// post-handshake broker message in one, and moves fewer bytes; a
/// restarted relay forwards again on both codecs.
fn v2_delivers_what_its_v1_run_delivers(restart_relay: bool, first: u8) {
    let (trace, log) = Trace::new();
    let v1_run = |sim: &mut ShardedSim| {
        let (_, _, relayed_after_restart) = drive_traced(sim, &log, restart_relay);
        assert!(!restart_relay || relayed_after_restart > 0, "the restarted relay forwards nothing on v1");
        (delivered(sim), sim.stats().clone())
    };
    let mut v1 = at_one_and_four_workers(|| overlay(false).traced(&trace), v1_run).into_iter();
    at_one_and_four_workers(
        || overlay(true).traced(&trace),
        |sim| {
            let (post_handshake_link_msgs, _, relayed_after_restart) = drive_traced(sim, &log, restart_relay);
            assert!(!restart_relay || relayed_after_restart > 0, "the restarted relay forwards nothing on v2");
            let (v1_delivered, v1_stats) = v1.next().expect("a v1 run at this worker count");
            let (got_v1, got_v2) = (from_round(&v1_delivered, first), from_round(&delivered(sim), first));
            assert_eq!(got_v1, got_v2);
            for (i, got) in got_v2.iter().enumerate() {
                assert_eq!(got, &expected(i, first..ROUNDS), "subscriber {i}");
            }
            let v2_stats = sim.stats();
            assert_eq!((v1_stats.segments_sent, v1_stats.frames_coalesced), (0, 0));
            assert!(v2_stats.segments_delivered > 0, "no segments crossed the overlay");
            assert_eq!(v2_stats.segment_decode_errors, 0);
            assert_eq!(v2_stats.frames_coalesced, v2_stats.segments_delivered);
            assert_eq!(v2_stats.frames_coalesced, post_handshake_link_msgs);
            let (bytes_v1, bytes_v2) = (v1_stats.bytes_delivered, v2_stats.bytes_delivered);
            assert!(bytes_v2 < bytes_v1, "v2 moved {bytes_v2} bytes, v1 {bytes_v1}");
        },
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
    // order, one frame a link. They also move with what a broker draws
    // from its own RNG stream: each broker's advertiser publishes its
    // advertisement at start and at clock sync, an event id drawn each
    // time, before any of the latency draws pinned here. And they
    // move with the clients, each an `Entity` homed on its broker: its
    // three attach pings and its 2 s keepalive pings are in the event
    // and byte counts, and its flush timer, armed at attachment, sets
    // when a publish leaves.
    assert_eq!(
        (v2.events_processed, v2.stats.bytes_delivered, v2.stats.segments_sent),
        (4741, 21_340, 315),
    );
    assert_eq!(v2.arrival_micros, 876_528_765);
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
    v2_delivers_what_its_v1_run_delivers(false, 0);
}

#[test]
fn sharded_v2_delivers_what_its_v1_run_delivers_after_a_relay_broker_restarts() {
    v2_delivers_what_its_v1_run_delivers(true, RESTART_BEFORE_ROUND);
}

/// Brokers `b0` and `b1`, which dials `b0`, with `wire_v2` as given,
/// on a lossless LAN; a subscriber to `sports/*` on `b0`, a publisher
/// on `b1`.
fn two_brokers(wire_v2: [bool; 2]) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(10)), wan: None };
    let mut d = Deployment { seed: 1234, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    for (i, wire_v2) in wire_v2.into_iter().enumerate() {
        let neighbors = (0..i).map(|j| NodeId(j as u32)).collect();
        let cfg = BrokerConfig { neighbors, wire_v2, ..BrokerConfig::default() };
        d.add(format!("b{i}"), RealmId(0), false, move || {
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![], ResponsePolicy::open()))
        });
    }
    let filter = TopicFilter::parse("sports/*").unwrap();
    d.add("sub".into(), RealmId(0), false, move || Box::new(Entity::of_broker(NodeId(0), vec![filter.clone()])));
    d.add("pub".into(), RealmId(0), false, || Box::new(Entity::of_broker(NodeId(1), vec![])));
    d
}

fn linked(sim: &ShardedSim, a: NodeId, b: NodeId) -> bool {
    sim.actor::<DiscoveryBrokerActor>(a).expect("a broker").broker.is_linked(b)
}

#[test]
fn v2_links_negotiate_and_route_through_segments() {
    let (a, b, subscriber, publisher) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    at_one_and_four_workers(|| two_brokers([true, true]), |sim| {
        sim.run_for(Duration::from_secs(2));
        assert!(linked(sim, a, b));
        let p = sim.actor_mut::<Entity>(publisher).expect("the publisher");
        p.queue_publish(Topic::parse("sports/nba").unwrap(), b"42".to_vec());
        sim.run_for(Duration::from_secs(8));
        let s = sim.actor::<Entity>(subscriber).expect("the subscriber");
        assert_eq!((s.received.len(), s.duplicates_dropped), (1, 0), "event crossed the v2 link once");
        assert_eq!(s.received[0].topic.as_str(), "sports/nba");
        // Broker-to-broker traffic (interest advertisement, heartbeats,
        // the forwarded publish) travelled in segments, one frame each.
        let stats = sim.stats();
        assert!(stats.segments_delivered > 0, "no segments crossed the overlay");
        assert_eq!(stats.frames_coalesced, stats.segments_delivered);
        assert_eq!(stats.segment_decode_errors, 0);
    });
}

#[test]
fn v1_peer_on_a_v2_broker_stays_on_v1() {
    // Only `b1` is v2-configured; `b0` never announces, so the link
    // negotiates down to v1 and no segments flow.
    let (a, b) = (NodeId(0), NodeId(1));
    at_one_and_four_workers(|| two_brokers([false, true]), |sim| {
        sim.run_for(Duration::from_secs(10));
        assert!(linked(sim, a, b) && linked(sim, b, a));
        assert_eq!(sim.stats().segments_sent, 0, "mixed-version link must stay v1");
    });
}
