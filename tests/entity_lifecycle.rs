//! The full entity life cycle over the simulator: discover → attach →
//! pub/sub → broker failure → rediscover → resume, a stranded entity's
//! retries, an entity homed on one broker ([`Entity::of_broker`]),
//! which attaches without discovery and returns to that broker when it
//! revives, an entity that is itself revived, and a broker revived with
//! its state after its entity left.

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{
    at_one_and_four_workers, Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, Network,
    ResponsePolicy,
};
use nb::net::{ClockProfile, Fault, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const BDN: NodeId = NodeId(0);

/// A BDN and `n_brokers` brokers in a star around the first, then the
/// `(name, discovery configuration, filters)` of each of `entities`.
type Entities = [(&'static str, DiscoveryConfig, Vec<TopicFilter>)];

fn world(seed: u64, n_brokers: usize, entities: &Entities) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let inter = LinkSpec::wan(Duration::from_millis(8)).with_loss(0.0);
    let network = Network::Realms { intra, inter, wan: None };
    let mut d = Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    d.add("bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
    for i in 0..n_brokers {
        let cfg = BrokerConfig {
            hostname: format!("b{i}.local"),
            machine: MachineProfile::default_2005(),
            neighbors: if i == 0 { vec![] } else { vec![NodeId(1)] },
            ..BrokerConfig::default()
        };
        d.add(format!("b{i}"), RealmId(0), false, move || {
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![BDN], ResponsePolicy::open()))
        });
    }
    for (name, cfg, filters) in entities.iter().cloned() {
        d.add(name.into(), RealmId(0), false, move || Box::new(Entity::new(cfg.clone(), filters.clone())));
    }
    d
}

fn entity_cfg(max_responses: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        bdns: vec![BDN],
        collection_window: Duration::from_millis(1200),
        max_responses,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(500),
        ..DiscoveryConfig::default()
    }
}

/// A subscriber to `filter` and a publisher, on two brokers.
fn pub_sub(seed: u64, filter: &str) -> impl Fn() -> Deployment {
    let filters = vec![TopicFilter::parse(filter).unwrap()];
    let entities = [("sub", entity_cfg(2), filters), ("pub", entity_cfg(2), vec![])];
    move || world(seed, 2, &entities)
}

fn entity(sim: &ShardedSim, node: NodeId) -> &Entity {
    sim.actor::<Entity>(node).unwrap()
}

fn broker(sim: &ShardedSim, node: NodeId) -> &nb::broker::Broker {
    &sim.actor::<DiscoveryBrokerActor>(node).unwrap().broker
}

fn publish(sim: &mut ShardedSim, publisher: NodeId, topic: &str, payload: Vec<u8>) {
    sim.actor_mut::<Entity>(publisher).unwrap().queue_publish(Topic::parse(topic).unwrap(), payload);
}

#[test]
fn entity_discovers_attaches_and_exchanges_events() {
    let (subscriber, publisher) = (NodeId(3), NodeId(4));
    at_one_and_four_workers(pub_sub(61, "telemetry/**"), |sim| {
        sim.run_for(Duration::from_secs(5));
        assert!(matches!(entity(sim, subscriber).state(), EntityState::Attached(_)));
        assert!(matches!(entity(sim, publisher).state(), EntityState::Attached(_)));
        // Publish through the publisher's broker; routing crosses the
        // overlay if the two entities attached to different brokers.
        for i in 0..5u8 {
            publish(sim, publisher, "telemetry/cpu", vec![i]);
        }
        sim.run_for(Duration::from_secs(3));
        assert_eq!(entity(sim, subscriber).received.len(), 5, "every event delivered");
        assert_eq!(entity(sim, publisher).published, 5);
    });
}

#[test]
fn entity_fails_over_when_its_broker_dies() {
    let (subscriber, publisher) = (NodeId(3), NodeId(4));
    at_one_and_four_workers(pub_sub(62, "news/**"), |sim| {
        sim.run_for(Duration::from_secs(5));
        let first_broker = entity(sim, subscriber).broker().expect("attached");

        // Kill the subscriber's broker; keepalives (2s × 3 misses) notice.
        sim.apply_fault(Fault::Crash { node: first_broker });
        sim.run_for(Duration::from_secs(30));
        let sub = entity(sim, subscriber);
        assert!(sub.failovers >= 1, "keepalive loss must trigger failover");
        let second_broker = sub.broker().expect("reattached");
        assert_ne!(second_broker, first_broker, "attached to the survivor");
        assert_eq!(sub.attachments.len(), 2);

        // Subscriptions resumed: a fresh publish still reaches it. The
        // publisher may share the dead broker — check and let it fail
        // over too before publishing.
        sim.run_for(Duration::from_secs(10));
        publish(sim, publisher, "news/world", vec![7]);
        sim.run_for(Duration::from_secs(5));
        assert_eq!(entity(sim, subscriber).received.len(), 1, "subscription survived the failover");
    });
}

#[test]
fn stranded_entity_retries_and_recovers() {
    let mut cfg = entity_cfg(1);
    cfg.retransmits_per_bdn = 1;
    cfg.collection_window = Duration::from_millis(600);
    cfg.ping_window = Duration::from_millis(300);
    let (broker, entity_node) = (NodeId(1), NodeId(2));
    at_one_and_four_workers(|| world(63, 1, &[("e", cfg.clone(), vec![])]), |sim| {
        // Everything is down from the start.
        sim.apply_fault(Fault::Crash { node: broker });
        sim.apply_fault(Fault::Crash { node: BDN });
        sim.run_for(Duration::from_secs(8));
        // At this point the entity is either stranded (between backoff
        // retries) or mid-retry — never attached.
        let state = entity(sim, entity_node).state();
        assert!(
            matches!(state, EntityState::Stranded | EntityState::Discovering),
            "must not be attached during the outage, got {state:?}"
        );
        assert!(entity(sim, entity_node).discovery().runs_started >= 1);

        // The infrastructure returns; the backoff retry must find it.
        sim.apply_fault(Fault::Restart { node: broker, lose_state: false });
        sim.apply_fault(Fault::Restart { node: BDN, lose_state: false });
        sim.run_for(Duration::from_secs(40));
        let e = entity(sim, entity_node);
        assert!(
            matches!(e.state(), EntityState::Attached(_)),
            "recovered after the outage, state {:?} (runs {})",
            e.state(),
            e.discovery().runs_started
        );
    });
}

/// Brokers `b0` and `b1`, which dials `b0`, and no BDN; a subscriber to
/// `news/**` homed on `b1` and a publisher homed on `b0`.
fn homed(seed: u64) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(8)), wan: None };
    let mut d = Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    for i in 0..2 {
        let cfg = BrokerConfig { neighbors: (0..i).map(NodeId).collect(), ..BrokerConfig::default() };
        d.add(format!("b{i}"), RealmId(0), false, move || {
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![], ResponsePolicy::open()))
        });
    }
    let filter = TopicFilter::parse("news/**").unwrap();
    d.add("sub".into(), RealmId(0), false, move || Box::new(Entity::of_broker(NodeId(1), vec![filter.clone()])));
    d.add("pub".into(), RealmId(0), false, || Box::new(Entity::of_broker(NodeId(0), vec![])));
    d
}

#[test]
fn an_entity_homed_on_a_broker_attaches_without_discovery_and_returns_to_it() {
    let (b0, b1, subscriber, publisher) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    at_one_and_four_workers(|| homed(64), |sim| {
        sim.run_for(Duration::from_secs(2));
        assert_eq!(entity(sim, subscriber).attachments, [b1], "attached to its broker, and no other");
        assert_eq!(entity(sim, publisher).attachments, [b0]);
        let outcome = entity(sim, subscriber).discovery().outcome().expect("a finished run");
        assert!(outcome.used_cached_targets, "{outcome:?}");
        assert!(!outcome.used_multicast && outcome.bdn_used.is_none(), "{outcome:?}");
        publish(sim, publisher, "news/a", vec![1]);
        sim.run_for(Duration::from_secs(1));
        // Down for 10 s, longer than three 2 s keepalive intervals.
        sim.apply_fault(Fault::Crash { node: b1 });
        sim.run_for(Duration::from_secs(10));
        let sub = entity(sim, subscriber);
        assert_eq!((sub.failovers, sub.broker()), (1, None), "the keepalives noticed");
        sim.apply_fault(Fault::Restart { node: b1, lose_state: false });
        sim.run_for(Duration::from_secs(60));
        assert_eq!(entity(sim, subscriber).attachments, [b1, b1], "re-attached to its broker, and no other");
        publish(sim, publisher, "news/b", vec![2]);
        sim.run_for(Duration::from_secs(1));
        let sub = entity(sim, subscriber);
        let payloads: Vec<&[u8]> = sub.received.iter().map(|ev| &ev.payload[..]).collect();
        assert_eq!(payloads, [[1], [2]], "deliveries resumed");
        assert_eq!(sub.duplicates_dropped, 0);
        assert!(!sim.stats().by_kind.contains_key("discovery-request"), "a request was sent or multicast");
    });
}

/// A publisher crashed and revived with its actor kept starts over: it
/// re-attaches to its broker at once, publishes what was queued while it
/// was down, and watches that broker again.
#[test]
fn a_revived_entity_reattaches_publishes_and_fails_over() {
    let (b0, subscriber, publisher) = (NodeId(0), NodeId(2), NodeId(3));
    at_one_and_four_workers(|| homed(65), |sim| {
        sim.run_for(Duration::from_secs(2));
        sim.apply_fault(Fault::Crash { node: publisher });
        sim.run_for(Duration::from_secs(1));
        sim.apply_fault(Fault::Restart { node: publisher, lose_state: false });
        publish(sim, publisher, "news/a", vec![1]);
        sim.run_for(Duration::from_secs(5));
        let p = entity(sim, publisher);
        assert_eq!((p.published, p.broker()), (1, Some(b0)), "re-attached and published");
        assert_eq!(entity(sim, subscriber).received.len(), 1);
        sim.apply_fault(Fault::Crash { node: b0 });
        sim.run_for(Duration::from_secs(10));
        assert_eq!(entity(sim, publisher).failovers, 1, "its keepalives noticed");
    });
}

/// A broker revived with its state still holds the record and the
/// subscription of an entity that failed over while it was down. The
/// entity answers the first event that broker forwards with
/// `ClientDisconnect`, so the record goes and every later event arrives
/// once.
#[test]
fn a_broker_revived_with_its_state_stops_forwarding_to_an_entity_that_left() {
    let (subscriber, publisher) = (NodeId(3), NodeId(4));
    at_one_and_four_workers(pub_sub(66, "news/**"), |sim| {
        sim.run_for(Duration::from_secs(5));
        let first = entity(sim, subscriber).broker().expect("attached");
        sim.apply_fault(Fault::Crash { node: first });
        sim.run_for(Duration::from_secs(30));
        let second = entity(sim, subscriber).broker().expect("re-attached");
        assert_ne!(second, first, "attached to the survivor");
        sim.apply_fault(Fault::Restart { node: first, lose_state: false });
        sim.run_for(Duration::from_secs(10));
        assert!(broker(sim, first).has_client(subscriber), "came back with the stale record");
        for (i, topic) in ["news/a", "news/b", "news/c"].into_iter().enumerate() {
            publish(sim, publisher, topic, vec![i as u8]);
            sim.run_for(Duration::from_secs(5));
        }
        let sub = entity(sim, subscriber);
        assert_eq!(sub.received.len(), 3, "each event once in `received`");
        assert!(sub.duplicates_dropped <= 1, "{} repeats: the stale broker kept forwarding", sub.duplicates_dropped);
        assert!(!broker(sim, first).has_client(subscriber), "the stale record went");
    });
}
