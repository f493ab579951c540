//! The full entity life cycle over the simulator: discover → attach →
//! pub/sub → broker failure → rediscover → resume, and a stranded
//! entity's retries.

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{
    on_every_engine, Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, Network,
    ResponsePolicy,
};
use nb::net::{ClockProfile, DiscoveryEngine, LinkSpec};
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

fn entity(sim: &dyn DiscoveryEngine, node: NodeId) -> &Entity {
    sim.actor::<Entity>(node).unwrap()
}

fn publish(sim: &mut dyn DiscoveryEngine, publisher: NodeId, topic: &str, payload: Vec<u8>) {
    sim.actor_mut::<Entity>(publisher).unwrap().queue_publish(Topic::parse(topic).unwrap(), payload);
}

#[test]
fn entity_discovers_attaches_and_exchanges_events() {
    let (subscriber, publisher) = (NodeId(3), NodeId(4));
    on_every_engine(pub_sub(61, "telemetry/**"), |sim| {
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
    on_every_engine(pub_sub(62, "news/**"), |sim| {
        sim.run_for(Duration::from_secs(5));
        let first_broker = entity(sim, subscriber).broker().expect("attached");

        // Kill the subscriber's broker; keepalives (2s × 3 misses) notice.
        sim.crash(first_broker);
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
    on_every_engine(|| world(63, 1, &[("e", cfg.clone(), vec![])]), |sim| {
        // Everything is down from the start.
        sim.crash(broker);
        sim.crash(BDN);
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
        sim.revive(broker);
        sim.revive(BDN);
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
