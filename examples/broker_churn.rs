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
    DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, DiscoveryOutcome, ResponsePolicy,
};
use nb::net::{ClockProfile, Incoming, LinkSpec, Sim};
use nb::wire::{NodeId, RealmId};

fn discover(sim: &mut Sim, client: NodeId, run: usize) -> DiscoveryOutcome {
    sim.inject(client, Duration::from_millis(1), Incoming::Timer { token: TIMER_START });
    sim.run_for(Duration::from_secs(4));
    let o = sim
        .actor::<DiscoveryClient>(client)
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

fn main() {
    // Fast clocks (sync within ~100 ms) so a second of warm-up is enough.
    let clocks = ClockProfile {
        max_true_offset: Duration::from_millis(200),
        min_residual: Duration::from_millis(1),
        max_residual: Duration::from_millis(5),
        min_sync_delay: Duration::from_millis(50),
        max_sync_delay: Duration::from_millis(120),
    };
    let mut sim = Sim::with_clock_profile(11, clocks);
    sim.network_mut().intra_realm_spec = LinkSpec::lan();

    let realm = RealmId(0);
    // The BDN's default `auto_attach` makes it maintain connections to
    // every broker that registers — no manual wiring needed.
    let bdn = sim.add_node("bdn", realm, Box::new(Bdn::new(BdnConfig::default())));
    let mk_broker = |name: &str, neighbors| {
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
    let b0 = sim.add_node("broker-0", realm, Box::new(mk_broker("broker-0.local", vec![])));
    sim.add_node("broker-1", realm, Box::new(mk_broker("broker-1.local", vec![b0])));

    let cfg = DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1500),
        max_responses: 2,
        ping_window: Duration::from_millis(500),
        ack_timeout: Duration::from_millis(700),
        ..DiscoveryConfig::default()
    };
    let client =
        sim.add_node("client", realm, Box::new(DiscoveryClient::with_auto_start(cfg, false)));

    // Clocks sync and brokers advertise.
    sim.run_for(Duration::from_millis(800));

    let first = discover(&mut sim, client, 0).chosen.expect("discovery #1 finds a broker");
    println!("{} crashes", sim.node_name(first));
    sim.crash(first);
    let second = discover(&mut sim, client, 1).chosen.expect("discovery #2 finds a broker");

    assert_ne!(second, first, "rediscovery must not choose the dead broker");
    assert!(sim.is_up(second));
    println!("rediscovery landed on the survivor");
}

#[test]
fn runs_to_completion() {
    main();
}
