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
    Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, Network, ResponsePolicy,
    RetryPolicy,
};
use nb::net::{ClockProfile, FaultPlan, LinkSpec, PacketFaults, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const BDN: NodeId = NodeId(0);
const SUBSCRIBER: NodeId = NodeId(4);
const PUBLISHER: NodeId = NodeId(5);

/// A restartable BDN and three brokers over two realms, a subscriber to
/// `alerts/**` and a publisher.
fn describe() -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0005);
    let inter = LinkSpec::wan(Duration::from_millis(15)).with_loss(0.001);
    let network = Network::Realms { intra, inter, wan: None };
    let mut d = Deployment { seed: 42, clock: ClockProfile::perfect(), nodes: Vec::new(), network };

    // Short 20 s advertisement leases: only heartbeating brokers are
    // ever injection targets.
    let bdn_cfg = BdnConfig {
        ad_ttl: Duration::from_secs(20),
        ping_interval: Duration::from_secs(5),
        ..BdnConfig::default()
    };
    d.add("bdn".into(), RealmId(0), true, move || Box::new(Bdn::new(bdn_cfg.clone())));

    // Three brokers re-advertising every 5 s (four heartbeats per lease),
    // each rebuilt from its configuration by a lossy restart.
    for i in 0..3u16 {
        let cfg = BrokerConfig {
            hostname: format!("broker-{i}.local"),
            machine: MachineProfile::default_2005(),
            neighbors: (1..=i as u32).map(NodeId).collect(),
            ..BrokerConfig::default()
        };
        d.add(format!("broker-{i}"), RealmId(i % 2), true, move || {
            let mut actor = DiscoveryBrokerActor::new(cfg.clone(), vec![BDN], ResponsePolicy::open());
            actor.advertiser.set_readvertise(Duration::from_secs(5));
            Box::new(actor)
        });
    }

    // Entities with capped-exponential request backoff (300 ms → 3 s).
    let cfg = DiscoveryConfig {
        bdns: vec![BDN],
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
    for (name, realm, filters) in [("subscriber", 0, vec![filter]), ("publisher", 1, vec![])] {
        let cfg = cfg.clone();
        d.add(name.into(), RealmId(realm), false, move || Box::new(Entity::new(cfg.clone(), filters.clone())));
    }
    d
}

fn entity(sim: &ShardedSim, node: NodeId) -> &Entity {
    sim.actor::<Entity>(node).unwrap()
}

fn storm(sim: &mut ShardedSim) {
    sim.run_for(Duration::from_secs(8));
    let sub_broker = entity(sim, SUBSCRIBER).broker().expect("attached");
    println!(
        "attached: subscriber -> {}, publisher -> {}",
        sim.node_name(sub_broker),
        sim.node_name(entity(sim, PUBLISHER).broker().unwrap()),
    );
    println!("registry before the storm: {} leases\n", sim.actor::<Bdn>(BDN).unwrap().registry_len());

    // The storm: BDN loses its registry, the subscriber's broker link
    // flaps for 10 s, and packets get duplicated/corrupted/reordered.
    let plan = FaultPlan::new()
        .lossy_restart_at(Duration::from_secs(2), BDN, Duration::from_secs(10))
        .flap_at(Duration::from_secs(15), SUBSCRIBER, sub_broker, Duration::from_secs(10))
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
    let publisher = sim.actor_mut::<Entity>(PUBLISHER).unwrap();
    publisher.queue_publish(Topic::parse("alerts/recovered").unwrap(), b"all clear".to_vec());
    sim.run_for(Duration::from_secs(5));

    let bdn_actor = sim.actor::<Bdn>(BDN).unwrap();
    println!(
        "registry after heartbeat-driven recovery: {} leases \
         ({} stale targets skipped along the way)",
        bdn_actor.registry_len(),
        bdn_actor.stale_targets_skipped,
    );
    let sub = entity(sim, SUBSCRIBER);
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

fn main() {
    storm(&mut describe().build());
}

#[test]
fn runs_to_completion() {
    nb::discovery::at_one_and_four_workers(describe, storm);
}
