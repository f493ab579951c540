//! Broker churn: the chosen broker dies and rediscovery finds the survivor.
//!
//! Two brokers and a BDN come up, a client discovers and picks one, that
//! broker crashes, and a second discovery lands on the other — the
//! paper's "very dynamic and fluid system where broker processes may
//! join and leave at arbitrary times" (§1.2). Seeded and in virtual
//! time; `tests/self_healing.rs` owns the exhaustive version.
//!
//! ```sh
//! cargo run --release --example broker_churn
//! ```

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::client::TIMER_START;
use nb::discovery::{
    Deployment, DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, DiscoveryOutcome,
    Network, ResponsePolicy,
};
use nb::net::{ClockProfile, Fault, Incoming, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId};

const BDN: NodeId = NodeId(0);
const CLIENT: NodeId = NodeId(3);

/// A BDN, two linked brokers and a client on one LAN.
fn describe() -> Deployment {
    // Fast clocks (sync within ~100 ms) so a second of warm-up is enough.
    let clock = ClockProfile {
        max_true_offset: Duration::from_millis(200),
        min_residual: Duration::from_millis(1),
        max_residual: Duration::from_millis(5),
        min_sync_delay: Duration::from_millis(50),
        max_sync_delay: Duration::from_millis(120),
    };
    let inter = LinkSpec::wan(Duration::from_millis(40));
    let network = Network::Realms { intra: LinkSpec::lan(), inter, wan: None };
    let mut d = Deployment { seed: 11, clock, nodes: Vec::new(), network };
    let realm = RealmId(0);
    // The BDN's default `auto_attach` makes it maintain connections to
    // every broker that registers — no manual wiring needed.
    d.add("bdn".into(), realm, false, || Box::new(Bdn::new(BdnConfig::default())));
    for (i, neighbors) in [vec![], vec![NodeId(1)]].into_iter().enumerate() {
        let cfg = BrokerConfig {
            hostname: format!("broker-{i}.local"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        d.add(format!("broker-{i}"), realm, false, move || {
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![BDN], ResponsePolicy::open()))
        });
    }
    let cfg = DiscoveryConfig {
        bdns: vec![BDN],
        collection_window: Duration::from_millis(1500),
        max_responses: 2,
        ping_window: Duration::from_millis(500),
        ack_timeout: Duration::from_millis(700),
        ..DiscoveryConfig::default()
    };
    d.add("client".into(), realm, false, move || Box::new(DiscoveryClient::with_auto_start(cfg.clone(), false)));
    d
}

fn discover(sim: &mut ShardedSim, run: usize) -> DiscoveryOutcome {
    sim.inject(CLIENT, Duration::from_millis(1), Incoming::Timer { token: TIMER_START });
    sim.run_for(Duration::from_secs(4));
    let o = sim
        .actor::<DiscoveryClient>(CLIENT)
        .and_then(|c| c.completed.get(run))
        .unwrap_or_else(|| panic!("discovery #{} completes within 4 s", run + 1))
        .clone();
    println!(
        "discovery #{}: chose {} in {:?} ({} responses)",
        run + 1,
        o.chosen.map_or("nobody", |b| sim.node_name(b)),
        o.phases.total(),
        o.responses_received
    );
    o
}

fn churn(sim: &mut ShardedSim) {
    // Clocks sync and brokers advertise.
    sim.run_for(Duration::from_millis(800));

    let first = discover(sim, 0).chosen.expect("discovery #1 finds a broker");
    println!("{} crashes", sim.node_name(first));
    sim.apply_fault(Fault::Crash { node: first });
    let second = discover(sim, 1).chosen.expect("discovery #2 finds a broker");

    assert_ne!(second, first, "rediscovery must not choose the dead broker");
    assert!(sim.is_up(second));
    println!("rediscovery landed on the survivor");
}

fn main() {
    churn(&mut describe().build());
}

#[test]
fn runs_to_completion() {
    nb::discovery::at_one_and_four_workers(describe, churn);
}
