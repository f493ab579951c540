//! A scripted chaos run: the BDN is restarted with **full state loss**
//! and the subscriber's WAN path flaps while an unruly packet window
//! (duplication, corruption, reordering) runs over the top. Recovery is
//! lease-driven — broker re-advertisement heartbeats repopulate the
//! empty registry, the entities' capped-exponential backoff rides out
//! the outage, and the dedup cache absorbs the duplicated packets.
//!
//! ```sh
//! cargo run --release --example chaos_campaign
//! ```

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, ResponsePolicy, RetryPolicy,
};
use nb::net::{ClockProfile, FaultPlan, LinkSpec, PacketFaults, Sim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

fn main() {
    let mut sim = Sim::with_clock_profile(42, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0005);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(15)).with_loss(0.001);

    // Short 20 s advertisement leases: only heartbeating brokers are
    // ever injection targets.
    let bdn_cfg = BdnConfig {
        ad_ttl: Duration::from_secs(20),
        ping_interval: Duration::from_secs(5),
        ..BdnConfig::default()
    };
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(bdn_cfg.clone())));
    sim.set_respawn(bdn, Box::new(move || Box::new(Bdn::new(bdn_cfg.clone()))));

    // Three brokers re-advertising every 5 s (four heartbeats per lease).
    let mut brokers: Vec<NodeId> = Vec::new();
    for i in 0..3u16 {
        let cfg = BrokerConfig {
            hostname: format!("broker-{i}.local"),
            machine: MachineProfile::default_2005(),
            neighbors: brokers.clone(),
            ..BrokerConfig::default()
        };
        let mut actor = DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open());
        actor.advertiser.set_readvertise(Duration::from_secs(5));
        let node = sim.add_node(&format!("broker-{i}"), RealmId(i % 2), Box::new(actor));
        sim.set_respawn(
            node,
            Box::new(move || {
                let mut fresh =
                    DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open());
                fresh.advertiser.set_readvertise(Duration::from_secs(5));
                Box::new(fresh)
            }),
        );
        brokers.push(node);
    }

    // Entities with capped-exponential request backoff (300 ms → 3 s).
    let cfg = DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1000),
        max_responses: 5,
        ping_window: Duration::from_millis(400),
        retransmits_per_bdn: 2,
        backoff: Some(RetryPolicy::new(
            Duration::from_millis(300),
            2.0,
            Duration::from_secs(3),
            0.2,
        )),
        ..DiscoveryConfig::default()
    };
    let filter = TopicFilter::parse("alerts/**").unwrap();
    let subscriber =
        sim.add_node("subscriber", RealmId(0), Box::new(Entity::new(cfg.clone(), vec![filter])));
    let publisher = sim.add_node("publisher", RealmId(1), Box::new(Entity::new(cfg, vec![])));

    sim.run_for(Duration::from_secs(8));
    let sub_broker = sim.actor::<Entity>(subscriber).unwrap().broker().expect("attached");
    println!(
        "attached: subscriber -> {}, publisher -> {}",
        sim.node_name(sub_broker),
        sim.node_name(sim.actor::<Entity>(publisher).unwrap().broker().unwrap()),
    );
    println!(
        "registry before the storm: {} leases\n",
        sim.actor::<Bdn>(bdn).unwrap().registry_len()
    );

    // The storm: BDN loses its registry, the subscriber's broker link
    // flaps for 10 s, and packets get duplicated/corrupted/reordered.
    let plan = FaultPlan::new()
        .lossy_restart_at(Duration::from_secs(2), bdn, Duration::from_secs(10))
        .flap_at(Duration::from_secs(15), subscriber, sub_broker, Duration::from_secs(10))
        .packet_fault_window(
            Duration::from_secs(15),
            Duration::from_secs(10),
            PacketFaults::unruly(),
        )
        .sorted();
    println!("installing fault plan:\n{}", plan.describe());
    sim.apply_fault_plan(&plan);
    sim.run_for(Duration::from_secs(60));

    // Post-recovery traffic proves the system healed.
    sim.actor_mut::<Entity>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("alerts/recovered").unwrap(), b"all clear".to_vec());
    sim.run_for(Duration::from_secs(5));

    let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
    println!(
        "registry after heartbeat-driven recovery: {} leases \
         ({} stale targets skipped along the way)",
        bdn_actor.registry_len(),
        bdn_actor.stale_targets_skipped,
    );
    let sub = sim.actor::<Entity>(subscriber).unwrap();
    println!(
        "subscriber: attached to {}, {} failover(s), received {} event(s), \
         {} duplicate(s) suppressed",
        sim.node_name(sub.broker().expect("re-attached")),
        sub.failovers,
        sub.received.len(),
        sub.duplicates_dropped,
    );
    let stats = sim.stats();
    println!(
        "packet faults endured: {} duplicated, {} corrupted, {} reordered, \
         {} blocked by partitions",
        stats.datagrams_duplicated,
        stats.datagrams_corrupted,
        stats.datagrams_reordered,
        stats.unreachable_partitioned,
    );
    assert!(sub.broker().is_some(), "the subscriber must end attached");
    assert_eq!(sub.received.len(), 1, "the post-recovery event must arrive exactly once");
    println!("\nrecovered: the lease registry was rebuilt from heartbeats alone");
}

#[test]
fn runs_to_completion() {
    main();
}
