//! Load balancing: a newly added broker is preferentially selected (§8.3).
//!
//! The paper's advantage #3: "since broker discovery responses include
//! the usage metric, a newly added broker within a cluster would be
//! preferentially utilized by the discovery algorithms". We load one
//! broker with many clients, then add a fresh idle broker at the same
//! site and show discovery steering the next entities to it.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile, TopologyKind};
use nb::discovery::scenario::ScenarioBuilder;
use nb::discovery::{Deployment, DiscoveryBrokerActor, Entity, ResponsePolicy, SelectionWeights};
use nb::net::wan::{BLOOMINGTON, INDIANAPOLIS};
use nb::net::{DiscoveryEngine, ShardedSim};
use nb::wire::NodeId;

fn builder() -> ScenarioBuilder {
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 7);
    // Ignore proximity; choose on load alone so the effect is starkly
    // visible (the default weights blend both). The paper's *final*
    // choice is the lowest ping RTT among the target set (§6), so to let
    // the usage metric decide outright we shrink the target set to one.
    builder.discovery.weights = SelectionWeights::load_only();
    builder.discovery.target_set_size = 1;
    builder.discovery.max_responses = 10;
    builder
}

/// The star testbed, its hub broker (Indianapolis) saturated with 60
/// client connections.
fn describe() -> Deployment {
    let b = builder();
    let mut d = b.describe();
    let hub = NodeId(b.broker_ids().start as u32);
    let realm = nb::net::wan::WanModel::paper().site(INDIANAPOLIS).realm;
    for i in 0..60 {
        d.add(format!("load-client-{i}"), realm, false, move || Box::new(Entity::of_broker(hub, vec![])));
    }
    d
}

fn balance(sim: &mut dyn DiscoveryEngine) {
    let mut scenario = builder().scenario(sim);
    let hub = scenario.brokers[0];
    scenario.sim.run_for(Duration::from_secs(8));
    let hub_actor = scenario.sim.actor::<DiscoveryBrokerActor>(hub).unwrap();
    println!("hub broker now carries {} client connections", hub_actor.broker.num_clients());

    let before = scenario.run_discovery_once();
    let before_site = scenario.site_of_broker(before.chosen.unwrap()).unwrap();
    println!(
        "discovery before the new broker: chose {} at {}",
        before.chosen.unwrap(),
        scenario.wan.site(before_site).name
    );

    // Bring up a fresh broker at Indianapolis, register it with the BDN,
    // and link it to the hub so it joins the overlay.
    let site = scenario.wan.site(INDIANAPOLIS);
    let cfg = BrokerConfig {
        hostname: "fresh.ucs.indiana.edu".into(),
        logical_address: "nb://paper/broker-new".into(),
        machine: MachineProfile::with_memory(site.total_memory),
        neighbors: vec![hub],
        ..BrokerConfig::default()
    };
    let bdns = scenario.bdn.into_iter().collect();
    let actor = DiscoveryBrokerActor::new(cfg, bdns, ResponsePolicy::open());
    let fresh = scenario.sim.add_node("broker-new@Indianapolis", site.realm, Box::new(actor));
    // Wire its WAN links like any Indianapolis host.
    let placements = scenario.brokers.iter().copied().zip(scenario.broker_sites.iter().copied());
    let placements: Vec<(NodeId, usize)> = placements.chain([(scenario.client, scenario.client_site)]).collect();
    for (node, s) in placements {
        let spec = scenario.wan.link_spec(INDIANAPOLIS, s);
        scenario.sim.network_mut().set_link(fresh, node, spec);
    }
    if let Some(bdn) = scenario.bdn {
        let spec = scenario.wan.link_spec(INDIANAPOLIS, INDIANAPOLIS);
        scenario.sim.network_mut().set_link(fresh, bdn, spec);
    }
    // Let it sync clocks, advertise and link up.
    scenario.sim.run_for(Duration::from_secs(8));
    println!("added an idle broker {fresh} at Indianapolis");

    let after = scenario.run_discovery_once();
    let chosen = after.chosen.unwrap();
    println!(
        "discovery after the new broker:  chose {chosen}{}",
        if chosen == fresh { " — the freshly added broker" } else { "" }
    );
    assert_eq!(chosen, fresh, "the idle newcomer must win under load-aware selection");
}

fn main() {
    balance(&mut describe().build(ShardedSim::with_clock_profile));
}

#[test]
fn runs_to_completion() {
    nb::discovery::on_every_engine(describe, balance);
}
