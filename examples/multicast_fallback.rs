//! Fault tolerance: discovery survives dead BDNs via multicast (§7).
//!
//! Demonstrates the paper's claim that "the approach could work even if
//! none of the BDNs within the system are functioning": the client's
//! configured BDN is crashed, its ack times out, the request is
//! retransmitted, fails over, and finally goes out over realm-scoped
//! multicast — where the lab brokers answer.
//!
//! ```sh
//! cargo run --release --example multicast_fallback
//! ```

use std::time::Duration;

use nb::broker::TopologyKind;
use nb::discovery::scenario::ScenarioBuilder;
use nb::net::wan::BLOOMINGTON;

fn main() {
    // Five brokers: two in the Bloomington lab realm (multicast-reachable),
    // three on remote sites. A real BDN exists but we will kill it.
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 99);
    builder.broker_sites = vec![BLOOMINGTON, BLOOMINGTON, 2, 4, 5]; // 2 lab + UMN/FSU/Cardiff
    builder.discovery.ack_timeout = Duration::from_millis(500);
    builder.discovery.retransmits_per_bdn = 1;
    let mut scenario = builder.build();

    // Healthy run first: the BDN path works.
    let healthy = scenario.run_discovery_once();
    println!(
        "with the BDN up:   broker {:?} in {:?} (multicast used: {})",
        healthy.chosen.unwrap(),
        healthy.phases.total(),
        healthy.used_multicast
    );
    assert!(!healthy.used_multicast);

    // Kill the BDN and discover again.
    let bdn = scenario.bdn.expect("scenario has a BDN");
    scenario.sim.crash(bdn);
    println!("crashing the BDN ({bdn}) …");

    let fallback = scenario.run_discovery_once();
    let chosen = fallback.chosen.expect("multicast fallback must find a lab broker");
    let site = scenario.site_of_broker(chosen).unwrap();
    println!(
        "with the BDN down: broker {chosen} at {} in {:?} (multicast used: {})",
        scenario.wan.site(site).name,
        fallback.phases.total(),
        fallback.used_multicast
    );
    assert!(fallback.used_multicast, "the multicast path must have been used");
    assert_eq!(site, BLOOMINGTON, "only lab-realm brokers are reachable by multicast");
    println!(
        "note: issue phase now includes the ack timeouts ({:?}) before the fallback",
        fallback.phases.issue
    );
}

#[test]
fn runs_to_completion() {
    main();
}
