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
use nb::discovery::{DiscoveryBrokerActor, DiscoveryConfig, Entity, ResponsePolicy};
use nb::net::{ClockProfile, LinkSpec, Sim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

fn main() {
    let mut sim = Sim::with_clock_profile(17, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));
    let mk = |name: &str, neighbors: Vec<NodeId>| {
        DiscoveryBrokerActor::new(
            BrokerConfig {
                hostname: name.to_string(),
                machine: MachineProfile::default_2005(),
                neighbors,
                ..BrokerConfig::default()
            },
            vec![bdn],
            ResponsePolicy::open(),
        )
    };
    let b0 = sim.add_node("broker-0", RealmId(0), Box::new(mk("broker-0.local", vec![])));
    let _b1 = sim.add_node("broker-1", RealmId(0), Box::new(mk("broker-1.local", vec![b0])));

    let cfg = DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1000),
        max_responses: 2,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(500),
        ..DiscoveryConfig::default()
    };
    let filter = TopicFilter::parse("alerts/**").unwrap();
    let subscriber =
        sim.add_node("subscriber", RealmId(0), Box::new(Entity::new(cfg.clone(), vec![filter])));
    let publisher = sim.add_node("publisher", RealmId(0), Box::new(Entity::new(cfg, vec![])));

    sim.run_for(Duration::from_secs(4));
    let sub_broker = sim.actor::<Entity>(subscriber).unwrap().broker().expect("attached");
    println!("subscriber attached to {} ({})", sub_broker, sim.node_name(sub_broker));
    println!(
        "publisher attached to {}",
        sim.node_name(sim.actor::<Entity>(publisher).unwrap().broker().unwrap())
    );

    sim.actor_mut::<Entity>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("alerts/disk").unwrap(), b"disk full".to_vec());
    sim.run_for(Duration::from_secs(2));
    println!(
        "subscriber received {} event(s) before the failure",
        sim.actor::<Entity>(subscriber).unwrap().received.len()
    );

    println!("\ncrashing {} …", sim.node_name(sub_broker));
    sim.crash(sub_broker);
    sim.run_for(Duration::from_secs(30));

    let entity = sim.actor::<Entity>(subscriber).unwrap();
    let new_broker = entity.broker().expect("reattached");
    println!(
        "subscriber failed over to {} after {} keepalive losses (attachment history: {:?})",
        sim.node_name(new_broker),
        entity.failovers,
        entity.attachments
    );
    assert_ne!(new_broker, sub_broker);

    // The publisher may also have lived on the dead broker; give it time,
    // then prove the subscription survived the move.
    sim.run_for(Duration::from_secs(10));
    sim.actor_mut::<Entity>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("alerts/cpu").unwrap(), b"cpu hot".to_vec());
    sim.run_for(Duration::from_secs(3));
    let received = sim.actor::<Entity>(subscriber).unwrap().received.len();
    println!("subscriber received {received} event(s) in total — subscriptions survived");
    assert_eq!(received, 2);
}

#[test]
fn runs_to_completion() {
    main();
}
