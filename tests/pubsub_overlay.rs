//! The pub/sub substrate, from two brokers to larger and randomly
//! shaped overlays: links and heartbeats, client connections, routing
//! correctness, flooding of the discovery-plane topics, interest that
//! follows links going and coming back, advertisement dissemination
//! over the well-known topic, and private-BDN bootstrap (§2.3, §2.4).
//! Every broker is the [`DiscoveryBrokerActor`] and every client the
//! [`Entity`] every program builds.

use std::time::Duration;

use nb::broker::{Broker, BrokerConfig, Topology, TopologyKind};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{at_one_and_four_workers, Deployment, DiscoveryBrokerActor, Entity, Network, ResponsePolicy};
use nb::net::{impl_actor_any, Actor, ClockProfile, Context, Fault, Incoming, LinkSpec, ShardedSim};
use nb::util::Uuid;
use nb::wire::addr::well_known;
use nb::wire::topic::DISCOVERY_REQUEST_TOPIC;
use nb::wire::{DiscoveryRequest, Endpoint, Message, NodeId, RealmId, Topic, TopicFilter, Wire};

/// A lossless LAN, and 10 ms lossless WAN links between realms.
fn quiet(seed: u64) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let inter = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
    let network = Network::Realms { intra, inter, wan: None };
    Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network }
}

/// Appends `topo`'s brokers to `d`; returns their ids.
fn add_overlay(d: &mut Deployment, topo: &Topology) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let cfg = BrokerConfig { neighbors: dials.iter().map(|&j| ids[j]).collect(), ..BrokerConfig::default() };
        ids.push(d.add(format!("b{i}"), RealmId(0), false, move || discovery_broker(cfg.clone(), vec![])));
    }
    ids
}

/// A lossless LAN (`seed`) with `topo`'s brokers, then a client of
/// broker `at` for each `(at, filters)` of `clients`: brokers first,
/// clients after them, in order.
fn overlay_with_clients(seed: u64, topo: &Topology, clients: &[(usize, &[&str])]) -> Deployment {
    let mut d = quiet(seed);
    let brokers = add_overlay(&mut d, topo);
    for (k, &(at, filters)) in clients.iter().enumerate() {
        let filters = filters.iter().map(|f| TopicFilter::parse(f).unwrap()).collect();
        add_client(&mut d, format!("c{k}"), brokers[at], filters);
    }
    d
}

/// The broker of the discovery broker `node`.
fn broker_of(sim: &ShardedSim, node: NodeId) -> &Broker {
    &sim.actor::<DiscoveryBrokerActor>(node).unwrap().broker
}

fn client_at(sim: &ShardedSim, node: NodeId) -> &Entity {
    sim.actor::<Entity>(node).unwrap()
}

/// Every event that reached the client `node`, a repeat included: an
/// `Entity` keeps a repeated id out of `received`, so a broker that
/// delivers an event twice still shows here.
fn arrivals(sim: &ShardedSim, node: NodeId) -> usize {
    let client = client_at(sim, node);
    client.received.len() + client.duplicates_dropped as usize
}

/// Delivers `msg` to `to`'s broker port as if `from` had sent it.
fn say(sim: &mut ShardedSim, from: NodeId, to: NodeId, msg: Message) {
    let from = Endpoint::new(from, well_known::BROKER);
    sim.inject(to, Duration::ZERO, Incoming::Stream { from, to_port: well_known::BROKER, msg: msg.into() });
    sim.run_for(Duration::from_millis(100));
}

#[test]
fn links_establish_both_ways() {
    let topo = Topology::build(TopologyKind::Linear, 2);
    let (a, b) = (NodeId(0), NodeId(1));
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[]), |sim| {
        sim.run_for(Duration::from_secs(1));
        assert!(broker_of(sim, a).is_linked(b));
        assert!(broker_of(sim, b).is_linked(a));
        assert_eq!(broker_of(sim, a).num_links(), 1);
    });
}

#[test]
fn heartbeats_detect_dead_peer() {
    let topo = Topology::build(TopologyKind::Linear, 2);
    let (a, b) = (NodeId(0), NodeId(1));
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[]), |sim| {
        sim.run_for(Duration::from_secs(1));
        assert!(broker_of(sim, a).is_linked(b));
        sim.apply_fault(Fault::Crash { node: b });
        sim.run_for(Duration::from_secs(30));
        assert!(!broker_of(sim, a).is_linked(b));
        assert_eq!(broker_of(sim, a).num_links(), 0);
    });
}

/// Has the client `publisher` publish a discovery request on the
/// well-known topic, and every broker of `brokers` must answer it once:
/// the flood surfaced it at each of them exactly once.
fn a_flooded_request_is_answered_once_by_each_of(sim: &mut ShardedSim, publisher: NodeId, brokers: &[NodeId]) {
    let request = DiscoveryRequest {
        request_id: Uuid::from_u128(1),
        requester: publisher,
        hostname: "client".into(),
        realm: RealmId(0),
        reply_to: Endpoint::new(publisher, well_known::DISCOVERY_REPLY),
        transports: vec![],
        credentials: None,
        issued_at_utc: 0,
    };
    let routed = |sim: &ShardedSim, b| broker_of(sim, b).events_routed;
    let before: Vec<u64> = brokers.iter().map(|&b| routed(sim, b)).collect();
    publish(sim, publisher, DISCOVERY_REQUEST_TOPIC, Message::Discovery(request).to_bytes().to_vec());
    sim.run_for(Duration::from_secs(2));
    for (&b, before) in brokers.iter().zip(before) {
        let answered = sim.actor::<DiscoveryBrokerActor>(b).unwrap().responder.responses_sent;
        let passed = routed(sim, b) - before;
        assert_eq!((answered, passed), (1, 1), "{} answered, copies past its cache", sim.node_name(b));
    }
}

#[test]
fn flood_topic_reaches_every_broker_in_a_chain_once() {
    // chain b0 - b1 - b2 - b3, the requester on b0
    let topo = Topology::build(TopologyKind::Linear, 4);
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[(0, &[])]), |sim| {
        sim.run_for(Duration::from_secs(2));
        a_flooded_request_is_answered_once_by_each_of(sim, NodeId(4), &[0, 1, 2, 3].map(NodeId));
    });
}

#[test]
fn duplicate_events_suppressed_in_a_cycle() {
    // triangle b0 - b1 - b2 - b0, the requester on b0
    let topo = Topology::build(TopologyKind::Ring, 3);
    let brokers = [0, 1, 2].map(NodeId);
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[(0, &[])]), |sim| {
        sim.run_for(Duration::from_secs(2));
        a_flooded_request_is_answered_once_by_each_of(sim, NodeId(3), &brokers);
        let dupes: u64 = brokers.iter().map(|&b| broker_of(sim, b).duplicates_suppressed).sum();
        assert!(dupes >= 1, "the cycle must have produced suppressed duplicates");
    });
}

#[test]
fn subscription_routing_across_two_brokers() {
    let topo = Topology::build(TopologyKind::Linear, 2);
    let (subscriber, publisher) = (NodeId(2), NodeId(3));
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[(0, &["sports/*"]), (1, &[])]), |sim| {
        sim.run_for(Duration::from_secs(2));
        publish(sim, publisher, "sports/nba", b"42".to_vec());
        publish(sim, publisher, "news/world", b"x".to_vec());
        sim.run_for(Duration::from_secs(2));
        assert_eq!(arrivals(sim, subscriber), 1, "only the matching event arrives");
        let s = client_at(sim, subscriber);
        assert_eq!(s.received[0].topic.as_str(), "sports/nba");
        assert_eq!(&s.received[0].payload[..], b"42");
    });
}

#[test]
fn client_connect_limit_enforced() {
    let describe = || {
        let mut d = quiet(1234);
        let cfg = BrokerConfig { max_clients: Some(1), ..BrokerConfig::default() };
        let broker = d.add("bk".into(), RealmId(0), false, move || discovery_broker(cfg.clone(), vec![]));
        add_client(&mut d, "c1".into(), broker, vec![]);
        d
    };
    let (broker, c1) = (NodeId(0), NodeId(1));
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(1));
        let c2 = sim.add_node("c2", RealmId(0), Box::new(Entity::of_broker(broker, vec![])));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(client_at(sim, c1).broker(), Some(broker));
        assert_eq!(client_at(sim, c2).broker(), None, "the broker turned c2 away");
        assert_eq!(broker_of(sim, broker).num_clients(), 1);
    });
}

#[test]
fn metrics_reflect_connections_and_links() {
    let topo = Topology::build(TopologyKind::Linear, 2);
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[(0, &[]), (0, &[])]), |sim| {
        sim.run_for(Duration::from_secs(2));
        let a = broker_of(sim, NodeId(0));
        assert_eq!(a.num_clients(), 2);
        assert_eq!(a.num_links(), 1);
    });
}

#[test]
fn interest_filters_follow_growth_and_shrink() {
    let topo = Topology::build(TopologyKind::Linear, 2);
    let (a, b) = (NodeId(0), NodeId(1));
    let (f1, f2) = (TopicFilter::parse("sports/*").unwrap(), TopicFilter::parse("news/**").unwrap());
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &[(0, &["sports/*"]), (1, &["news/**"])]), |sim| {
        sim.run_for(Duration::from_secs(2));
        // Growth: both brokers hold local + link-learned interest.
        let mut both = vec![f1.clone(), f2.clone()];
        both.sort();
        for node in [a, b] {
            assert_eq!(broker_of(sim, node).interest_filters(), both, "sorted, after growth");
        }
        // Shrink: kill b, let a's heartbeats reap the link and its
        // interest contribution.
        sim.apply_fault(Fault::Crash { node: b });
        sim.run_for(Duration::from_secs(30));
        assert_eq!(broker_of(sim, a).interest_filters(), vec![f1.clone()], "link-learned filter must be gone");
    });
}

#[test]
fn restarted_peer_is_told_its_neighbours_interest_again() {
    let (a, b, sub) = (NodeId(0), NodeId(1), NodeId(2));
    let filter = TopicFilter::parse("sports/*").unwrap();
    let describe = || {
        let mut d = quiet(1234);
        d.add("a".into(), RealmId(0), false, || discovery_broker(BrokerConfig::default(), vec![]));
        let cfg = BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() };
        d.add("b".into(), RealmId(0), true, move || discovery_broker(cfg.clone(), vec![]));
        add_client(&mut d, "sub".into(), a, vec![filter.clone()]);
        d
    };
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(2));
        assert_eq!(broker_of(sim, b).interest_filters(), vec![filter.clone()]);
        // `b` loses its state and is back, dialling `a` again, long
        // before `a` could miss a heartbeat: to `a` the link never went
        // away, and only the hello says that its peer knows nothing.
        sim.apply_fault(Fault::Restart { node: b, lose_state: true });
        sim.run_for(Duration::from_secs(20));
        assert!(broker_of(sim, a).is_linked(b) && broker_of(sim, b).is_linked(a));
        assert_eq!(broker_of(sim, b).interest_filters(), vec![filter.clone()], "a advertised again");
        let publisher = sim.add_node("pub", RealmId(0), Box::new(Entity::of_broker(b, vec![])));
        sim.run_for(Duration::from_secs(1));
        publish(sim, publisher, "sports/nba", vec![1]);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(arrivals(sim, sub), 1);
    });
}

/// A discovery broker whose owner dials `peer` again when poked.
struct Redialler {
    inner: DiscoveryBrokerActor,
    peer: NodeId,
}

const REDIAL: u64 = 7;

impl Actor for Redialler {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if matches!(event, Incoming::Timer { token: REDIAL }) {
            self.inner.broker.link_to(self.peer, ctx);
        } else {
            self.inner.on_incoming(event, ctx);
        }
    }

    impl_actor_any!();
}

#[test]
fn dialling_a_linked_peer_again_counts_its_interest_once() {
    let (a, b, sub_a, sub_b) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let describe = || {
        let mut d = quiet(1234);
        d.add("a".into(), RealmId(0), false, || discovery_broker(BrokerConfig::default(), vec![]));
        d.add("b".into(), RealmId(0), false, move || {
            let cfg = BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() };
            let inner = DiscoveryBrokerActor::new(cfg, vec![], ResponsePolicy::open());
            Box::new(Redialler { inner, peer: a })
        });
        add_client(&mut d, "sa".into(), a, vec![TopicFilter::parse("at/a").unwrap()]);
        add_client(&mut d, "sb".into(), b, vec![TopicFilter::parse("at/b").unwrap()]);
        d
    };
    let (at_a, at_b) = (TopicFilter::parse("at/a").unwrap(), TopicFilter::parse("at/b").unwrap());
    let filters = vec![at_a.clone(), at_b.clone()];
    let at_b_broker = |sim: &ShardedSim| sim.actor::<Redialler>(b).unwrap().inner.broker.interest_filters();
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(2));
        assert_eq!(broker_of(sim, a).interest_filters(), filters);

        sim.inject(b, Duration::ZERO, Incoming::Timer { token: REDIAL });
        sim.run_for(Duration::from_secs(2));
        assert!(broker_of(sim, a).is_linked(b));
        assert_eq!(broker_of(sim, a).interest_filters(), filters);
        assert_eq!(at_b_broker(sim), filters);
        // Registered once on the far side, not twice: one withdrawal
        // each way and neither broker holds the other's filter.
        say(sim, sub_a, a, Message::ClientUnsubscribe { filter: at_a.clone() });
        say(sim, sub_b, b, Message::ClientUnsubscribe { filter: at_b.clone() });
        sim.run_for(Duration::from_secs(1));
        assert!(broker_of(sim, a).interest_filters().is_empty());
        assert!(at_b_broker(sim).is_empty());
    });
}

#[test]
fn a_dialler_revived_with_its_state_starts_its_links_over_on_both_sides() {
    let topo = Topology::build(TopologyKind::Linear, 2);
    let (a, b, sub_a, sub_b, publisher) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
    let (at_a, at_b) = (TopicFilter::parse("at/a").unwrap(), TopicFilter::parse("at/b").unwrap());
    let clients: [(usize, &[&str]); 3] = [(0, &["at/a"]), (1, &["at/b"]), (0, &[])];
    at_one_and_four_workers(|| overlay_with_clients(1234, &topo, &clients), |sim| {
        sim.run_for(Duration::from_secs(2));
        // `b` is down for two seconds — `a` misses no heartbeat deadline
        // — and is back with all it knew, its `on_start` run again: the
        // hello resets the link at `a`, so `b` must have reset it too, or
        // it would neither re-advertise nor take `a`'s filters as new.
        sim.apply_fault(Fault::Crash { node: b });
        sim.run_for(Duration::from_secs(2));
        sim.apply_fault(Fault::Restart { node: b, lose_state: false });
        sim.run_for(Duration::from_secs(2));
        assert!(broker_of(sim, a).is_linked(b) && broker_of(sim, b).is_linked(a));
        let filters = vec![at_a.clone(), at_b.clone()];
        assert_eq!(broker_of(sim, a).interest_filters(), filters, "b advertised again");
        assert_eq!(broker_of(sim, b).interest_filters(), filters);
        publish(sim, publisher, "at/b", vec![1]);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(arrivals(sim, sub_b), 1);
        // Registered once each way: one withdrawal and it is gone.
        say(sim, sub_a, a, Message::ClientUnsubscribe { filter: at_a.clone() });
        assert_eq!(broker_of(sim, b).interest_filters(), vec![at_b.clone()]);
        say(sim, sub_b, b, Message::ClientUnsubscribe { filter: at_b.clone() });
        assert!(broker_of(sim, a).interest_filters().is_empty());
        assert!(broker_of(sim, b).interest_filters().is_empty());
    });
}

#[test]
fn client_reconnects_after_lost_connect() {
    // The broker is unreachable for the client's first attempt; the
    // retry timer must eventually connect it.
    let (broker, client) = (NodeId(0), NodeId(1));
    at_one_and_four_workers(|| overlay_with_clients(7, &Topology::build(TopologyKind::Linear, 1), &[(0, &[])]), |sim| {
        sim.network_mut().partition(broker, client);
        sim.run_for(Duration::from_secs(3));
        assert_eq!(client_at(sim, client).broker(), None);
        sim.network_mut().heal(broker, client);
        sim.run_for(Duration::from_secs(5));
        assert_eq!(client_at(sim, client).broker(), Some(broker));
    });
}

#[test]
fn self_publish_not_echoed_back() {
    let client = NodeId(1);
    at_one_and_four_workers(|| overlay_with_clients(8, &Topology::build(TopologyKind::Linear, 1), &[(0, &["a/**"])]), |sim| {
        sim.run_for(Duration::from_secs(1));
        publish(sim, client, "a/b", vec![1]);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(client_at(sim, client).published, 1);
        assert_eq!(arrivals(sim, client), 0, "publisher must not receive its own event");
    });
}

#[test]
fn two_subscribers_same_broker_both_receive() {
    let (s1, s2, p) = (NodeId(1), NodeId(2), NodeId(3));
    let clients: [(usize, &[&str]); 3] = [(0, &["t"]), (0, &["t"]), (0, &[])];
    at_one_and_four_workers(|| overlay_with_clients(9, &Topology::build(TopologyKind::Linear, 1), &clients), |sim| {
        sim.run_for(Duration::from_secs(1));
        publish(sim, p, "t", vec![9]);
        sim.run_for(Duration::from_secs(1));
        assert_eq!(arrivals(sim, s1), 1);
        assert_eq!(arrivals(sim, s2), 1);
    });
}

/// Appends a client homed on `broker` ([`Entity::of_broker`]) and
/// subscribed to `filters`.
fn add_client(d: &mut Deployment, name: String, broker: NodeId, filters: Vec<TopicFilter>) -> NodeId {
    d.add(name, RealmId(0), false, move || Box::new(Entity::of_broker(broker, filters.clone())))
}

fn publish(sim: &mut ShardedSim, publisher: NodeId, topic: &str, payload: Vec<u8>) {
    let client = sim.actor_mut::<Entity>(publisher).unwrap();
    client.queue_publish(Topic::parse(topic).unwrap(), payload);
}

#[test]
fn exactly_once_delivery_across_a_random_overlay() {
    let topo = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Topology::random(20, 6, &mut rng) // spanning tree + 6 chords (cycles!)
    };
    assert!(topo.is_connected());
    // One subscriber per broker, one publisher at broker 0.
    let filter = TopicFilter::parse("telemetry/**").unwrap();
    let describe = || {
        let mut d = quiet(31);
        let brokers = add_overlay(&mut d, &topo);
        for (i, &b) in brokers.iter().enumerate() {
            add_client(&mut d, format!("sub{i}"), b, vec![filter.clone()]);
        }
        add_client(&mut d, "pub".into(), brokers[0], vec![]);
        d
    };
    let brokers: Vec<NodeId> = (0..20).map(NodeId).collect();
    let (subs, publisher): (Vec<NodeId>, _) = ((20..40).map(NodeId).collect(), NodeId(40));
    at_one_and_four_workers(describe, |sim| {
        // Let links + subscription propagation settle across 20 brokers.
        sim.run_for(Duration::from_secs(5));
        for i in 0..10 {
            publish(sim, publisher, "telemetry/cpu", vec![i]);
        }
        sim.run_for(Duration::from_secs(5));

        for (i, &sub) in subs.iter().enumerate() {
            assert_eq!(arrivals(sim, sub), 10, "subscriber {i} must receive each event exactly once");
        }
        // The chords created duplicate paths; dedup must have fired somewhere.
        let dupes: u64 =
            brokers.iter().map(|&b| broker_of(sim, b).duplicates_suppressed).sum();
        assert!(dupes > 0, "cyclic overlay must exercise duplicate suppression");
    });
}

/// `topo`'s brokers, one subscriber at its last broker and one publisher
/// at broker 0.
fn unsubscriber(seed: u64, topo: &Topology) -> Deployment {
    let mut d = quiet(seed);
    let brokers = add_overlay(&mut d, topo);
    let filter = TopicFilter::parse("news/*").unwrap();
    add_client(&mut d, "sub".into(), brokers[brokers.len() - 1], vec![filter]);
    add_client(&mut d, "pub".into(), brokers[0], vec![]);
    d
}

/// On [`unsubscriber`]'s deployment of `n` brokers: an event arrives,
/// the subscriber unsubscribes, a second event does not. Returns the
/// publisher for what else a caller checks.
fn unsubscribe_stops_delivery(sim: &mut ShardedSim, n: u32) -> NodeId {
    let (last, sub, publisher) = (NodeId(n - 1), NodeId(n), NodeId(n + 1));
    sim.run_for(Duration::from_secs(3));
    publish(sim, publisher, "news/world", vec![1]);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(arrivals(sim, sub), 1);

    // Unsubscribe: deliver a ClientUnsubscribe to the subscriber's broker
    // as if it came from the subscriber's connection.
    use nb::net::Incoming;
    use nb::wire::{Endpoint, Message};
    let filter = TopicFilter::parse("news/*").unwrap();
    let from = Endpoint::new(sub, nb::wire::addr::well_known::BROKER);
    let msg = Message::ClientUnsubscribe { filter }.into();
    sim.inject(last, Duration::from_millis(5), Incoming::Stream { from, to_port: from.port, msg });
    sim.run_for(Duration::from_secs(2));
    publish(sim, publisher, "news/world", vec![2]);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(arrivals(sim, sub), 1, "no delivery after unsubscribe");
    publisher
}

#[test]
fn unsubscribe_stops_delivery_overlay_wide() {
    let topo = Topology::build(TopologyKind::Linear, 4);
    at_one_and_four_workers(|| unsubscriber(32, &topo), |sim| unsubscribe_stops_delivery(sim, 4));
}

/// On a cycle the per-neighbour split horizon reflects interest back:
/// each broker of a triangle advertises the filter to one neighbour on
/// behalf of the other, so after the only subscriber is gone all three
/// still hold it and still route every matching event to each other.
/// Pruning removes the duplicates of that traffic, not the traffic.
#[test]
#[ignore = "ROADMAP item 5: interest plane on cyclic overlays"]
fn unsubscribe_stops_delivery_on_a_triangle_too() {
    let topo = Topology::build(TopologyKind::Ring, 3);
    at_one_and_four_workers(|| unsubscriber(36, &topo), |sim| {
        let publisher = unsubscribe_stops_delivery(sim, 3);
        let brokers = [NodeId(0), NodeId(1), NodeId(2)];
        for b in brokers {
            let held = broker_of(sim, b).interest_filters();
            assert!(held.is_empty(), "{} still holds {held:?}", sim.node_name(b));
        }
        let routed = |sim: &ShardedSim| -> u64 {
            brokers.iter().map(|&b| broker_of(sim, b).events_routed).sum()
        };
        let before = routed(sim);
        publish(sim, publisher, "news/world", vec![3]);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(routed(sim) - before, 1, "the ingress broker routes it; no link carries it");
    });
}

/// A discovery broker dialling `neighbors` and advertising to `bdns`.
fn discovery_broker(cfg: BrokerConfig, bdns: Vec<NodeId>) -> Box<DiscoveryBrokerActor> {
    Box::new(DiscoveryBrokerActor::new(cfg, bdns, ResponsePolicy::open()))
}

#[test]
fn topic_based_advertisements_reach_a_bdn_attached_elsewhere() {
    // §2.3: a broker "might send this advertisement over a public topic …
    // which all BDNs within the substrate subscribe to". The BDN attaches
    // to broker A only; broker B's topic advertisement must still arrive
    // through the overlay.
    let (a, b, bdn) = (NodeId(0), NodeId(1), NodeId(2));
    let describe = || {
        let mut d = quiet(33);
        // No direct BDN registration!
        d.add("a".into(), RealmId(0), false, || discovery_broker(BrokerConfig::default(), vec![]));
        let cfg = BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() };
        d.add("b".into(), RealmId(0), false, move || discovery_broker(cfg.clone(), vec![]));
        let cfg = BdnConfig { attached_brokers: vec![a], auto_attach: false, ..BdnConfig::default() };
        d.add("bdn".into(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        d
    };
    at_one_and_four_workers(describe, |sim| {
        // Brokers re-advertise on ClockSynced (instant here) and every
        // 120 s; their start-up ads fired before the BDN subscribed, so
        // wait for the next periodic round.
        sim.run_for(Duration::from_secs(125));
        let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
        assert!(
            bdn_actor.registered(b).is_some(),
            "broker B advertised over the topic and through the overlay \
             (registry has {} brokers)",
            bdn_actor.registry_len()
        );
    });
}

#[test]
fn geography_filtered_bdn_ignores_other_regions() {
    // §2.3: "a BDN in the US may be interested only in broker additions
    // in North America".
    let (bdn, us, uk) = (NodeId(0), NodeId(1), NodeId(2));
    let describe = || {
        let mut d = quiet(34);
        let cfg = BdnConfig {
            accept_geography: Some("USA".into()),
            auto_attach: false,
            ..BdnConfig::default()
        };
        d.add("bdn".into(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        for (name, realm, geography) in [("us", 1, "Indianapolis, IN, USA"), ("uk", 2, "Cardiff, UK")] {
            d.add(name.into(), RealmId(realm), false, move || {
                let cfg = BrokerConfig { hostname: format!("{name}.host"), ..BrokerConfig::default() };
                let mut actor = discovery_broker(cfg, vec![bdn]);
                actor.advertiser.geography = Some(geography.to_string());
                actor
            });
        }
        d
    };
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(8));
        let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
        assert!(bdn_actor.registered(us).is_some(), "US broker accepted");
        assert!(bdn_actor.registered(uk).is_none(), "UK broker filtered out");
        assert!(bdn_actor.ads_filtered > 0);
    });
}

#[test]
fn private_bdn_announcement_triggers_readvertisement() {
    // §2.4: a private BDN advertises its services on the overlay and
    // brokers re-advertise to it.
    let (public_bdn, broker) = (NodeId(0), NodeId(1));
    let describe = || {
        let mut d = quiet(35);
        d.add("public-bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
        let (cfg, bdns) = (BrokerConfig::default(), vec![public_bdn]);
        d.add("broker".into(), RealmId(0), false, move || discovery_broker(cfg.clone(), bdns.clone()));
        d
    };
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(2));
        // The private BDN attaches to the broker and announces itself.
        let private_cfg = BdnConfig {
            attached_brokers: vec![broker],
            auto_attach: false,
            advertise_as_private: true,
            ..BdnConfig::default()
        };
        let private_bdn = sim.add_node("private-bdn", RealmId(0), Box::new(Bdn::new(private_cfg)));
        sim.run_for(Duration::from_secs(5));
        let broker_actor = sim.actor::<DiscoveryBrokerActor>(broker).unwrap();
        assert!(
            broker_actor.advertiser.discovered_bdns.contains(&private_bdn),
            "broker learned about the private BDN"
        );
        let private_actor = sim.actor::<Bdn>(private_bdn).unwrap();
        assert!(private_actor.registered(broker).is_some(), "broker re-advertised to the private BDN");
    });
}

mod routing_convergence {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Expensive sim runs: keep the case count modest.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The regression guard for the interest-propagation protocol:
        /// on ANY connected overlay with ANY subscriber placement, every
        /// subscriber receives every published event exactly once.
        /// (The naive split-horizon protocol failed this whenever two
        /// subscribers' interest floods met mid-overlay.)
        #[test]
        fn any_overlay_any_subscribers_exactly_once(
            n in 3usize..16,
            extra in 0usize..5,
            topo_seed in any::<u64>(),
            sim_seed in any::<u64>(),
            sub_mask in 1u16..0x7FFF,
            publisher_pick in any::<prop::sample::Index>(),
        ) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(topo_seed);
            let topo = Topology::random(n, extra, &mut rng);
            prop_assume!(topo.is_connected());
            // Subscribers on the brokers selected by the mask bits.
            let subscribed: Vec<usize> = (0..n).filter(|i| sub_mask & (1 << (i % 15)) != 0).collect();
            prop_assume!(!subscribed.is_empty());
            let mut clients: Vec<(usize, &[&str])> = subscribed.iter().map(|&i| (i, &["t/**"][..])).collect();
            clients.push((publisher_pick.index(n), &[]));
            let publisher = NodeId((n + subscribed.len()) as u32);
            at_one_and_four_workers(|| overlay_with_clients(sim_seed, &topo, &clients), |sim| {
                // Links + interest propagation settle.
                sim.run_for(Duration::from_secs(5));
                for i in 0..3u8 {
                    publish(sim, publisher, "t/x", vec![i]);
                }
                sim.run_for(Duration::from_secs(5));
                for k in 0..subscribed.len() {
                    let s = NodeId((n + k) as u32);
                    assert_eq!(
                        arrivals(sim, s),
                        3,
                        "subscriber {:?} on overlay n={} extra={} seed={}",
                        s, n, extra, topo_seed
                    );
                }
            });
        }
    }
}
