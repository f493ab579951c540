//! The entity life cycle end to end: an application entity discovers its
//! broker, exchanges events, loses the broker, and transparently
//! rediscovers — the paper's §1.2 "very dynamic and fluid system" made
//! concrete.
//!
//! ```sh
//! cargo run --release --example resilient_entity
//! ```

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{
    Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, Network, ResponsePolicy,
};
use nb::net::{ClockProfile, Fault, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const BDN: NodeId = NodeId(0);
const SUBSCRIBER: NodeId = NodeId(3);
const PUBLISHER: NodeId = NodeId(4);

/// A BDN, two linked brokers, a subscriber to `alerts/**` and a
/// publisher on one lossless LAN.
fn describe() -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(40)), wan: None };
    let mut d = Deployment { seed: 17, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    d.add("bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
    for (i, neighbors) in [vec![], vec![NodeId(1)]].into_iter().enumerate() {
        let cfg = BrokerConfig {
            hostname: format!("broker-{i}.local"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        d.add(format!("broker-{i}"), RealmId(0), false, move || {
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![BDN], ResponsePolicy::open()))
        });
    }
    let cfg = DiscoveryConfig {
        bdns: vec![BDN],
        collection_window: Duration::from_millis(1000),
        max_responses: 2,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(500),
        ..DiscoveryConfig::default()
    };
    let filter = TopicFilter::parse("alerts/**").unwrap();
    for (name, filters) in [("subscriber", vec![filter]), ("publisher", vec![])] {
        let cfg = cfg.clone();
        d.add(name.into(), RealmId(0), false, move || Box::new(Entity::new(cfg.clone(), filters.clone())));
    }
    d
}

fn entity(sim: &ShardedSim, node: NodeId) -> &Entity {
    sim.actor::<Entity>(node).unwrap()
}

fn publish(sim: &mut ShardedSim, topic: &str, payload: &[u8]) {
    let publisher = sim.actor_mut::<Entity>(PUBLISHER).unwrap();
    publisher.queue_publish(Topic::parse(topic).unwrap(), payload.to_vec());
}

fn life_cycle(sim: &mut ShardedSim) {
    sim.run_for(Duration::from_secs(4));
    let sub_broker = entity(sim, SUBSCRIBER).broker().expect("attached");
    println!("subscriber attached to {} ({})", sub_broker, sim.node_name(sub_broker));
    println!("publisher attached to {}", sim.node_name(entity(sim, PUBLISHER).broker().unwrap()));

    publish(sim, "alerts/disk", b"disk full");
    sim.run_for(Duration::from_secs(2));
    println!("subscriber received {} event(s) before the failure", entity(sim, SUBSCRIBER).received.len());

    println!("\ncrashing {} …", sim.node_name(sub_broker));
    sim.apply_fault(Fault::Crash { node: sub_broker });
    sim.run_for(Duration::from_secs(30));

    let sub = entity(sim, SUBSCRIBER);
    let new_broker = sub.broker().expect("reattached");
    println!(
        "subscriber failed over to {} after {} keepalive losses (attachment history: {:?})",
        sim.node_name(new_broker),
        sub.failovers,
        sub.attachments
    );
    assert_ne!(new_broker, sub_broker);

    // The publisher may also have lived on the dead broker; give it time,
    // then prove the subscription survived the move.
    sim.run_for(Duration::from_secs(10));
    publish(sim, "alerts/cpu", b"cpu hot");
    sim.run_for(Duration::from_secs(3));
    let received = entity(sim, SUBSCRIBER).received.len();
    println!("subscriber received {received} event(s) in total — subscriptions survived");
    assert_eq!(received, 2);
}

fn main() {
    life_cycle(&mut describe().build());
}

#[test]
fn runs_to_completion() {
    nb::discovery::at_one_and_four_workers(describe, life_cycle);
}
