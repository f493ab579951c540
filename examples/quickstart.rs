//! Quickstart: discover the nearest broker on the paper's WAN testbed.
//!
//! Builds the five-broker star overlay of Figure 8 inside the
//! deterministic simulator, runs one full discovery from the Bloomington
//! client lab, and prints what happened at every phase.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nb::broker::TopologyKind;
use nb::discovery::scenario::ScenarioBuilder;
use nb::net::wan::BLOOMINGTON;

fn main() {
    let seed = 2005;
    println!("building the star topology (Figure 8) with seed {seed}…");
    let mut scenario = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed).build();

    println!("testbed:");
    for (i, &site) in scenario.broker_sites.clone().iter().enumerate() {
        let s = scenario.wan.site(site);
        println!("  broker-{i} at {:<12} ({})", s.name, s.host);
    }
    println!("  client   at Bloomington (Community Grids Lab)");
    println!();

    let outcome = scenario.run_discovery_once();

    let chosen = outcome.chosen.expect("discovery should succeed on a healthy network");
    let site = scenario.site_of_broker(chosen).expect("chosen broker has a site");
    println!("discovered broker: {chosen} at {}", scenario.wan.site(site).name);
    println!("responses gathered: {}", outcome.responses_received);
    println!("target set: {:?}", outcome.target_set);
    println!();
    println!("phase breakdown (total {:?}):", outcome.phases.total());
    for (label, share) in outcome.phases.shares() {
        println!("  {:<18} {:>5.1} %", label, share * 100.0);
    }
    println!();
    println!("measured ping RTTs:");
    let mut rtts = outcome.rtts_us.clone();
    rtts.sort_by_key(|&(_, rtt)| rtt);
    for (broker, rtt) in rtts {
        let label = scenario
            .site_of_broker(broker)
            .map(|s| scenario.wan.site(s).name)
            .unwrap_or("?");
        println!("  {broker} ({label:<12}) {:>8.2} ms", rtt as f64 / 1e3);
    }
}

#[test]
fn runs_to_completion() {
    main();
}
