//! WAN discovery sweep: the paper's §9 evaluation in miniature.
//!
//! Runs discovery from every Table-1 site over all three broker-network
//! topologies (unconnected / star / linear) and prints the per-site
//! discovery-time statistics plus the sub-activity breakdown — a compact
//! rendition of Figures 2–11.
//!
//! ```sh
//! cargo run --release --example wan_discovery
//! ```

use nb::broker::TopologyKind;
use nb::discovery::scenario::ScenarioBuilder;
use nb::net::wan::{WanModel, BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};
use nb::util::stats::{paper_protocol, Summary};

const RUNS: usize = 24;
const SEED: u64 = 7;

fn main() {
    let wan = WanModel::paper();
    println!("== Table 1 testbed ==\n{wan}");

    for kind in [TopologyKind::Unconnected, TopologyKind::Star, TopologyKind::Linear] {
        println!("== {} topology ==", kind.label());
        for site in [BLOOMINGTON, FSU, CARDIFF, UMN, NCSA] {
            let mut scenario = ScenarioBuilder::new(kind, site, SEED).build();
            let outcomes = scenario.run_discovery(RUNS);
            let totals: Vec<f64> = outcomes
                .iter()
                .filter(|o| o.chosen.is_some())
                .map(|o| o.phases.total().as_secs_f64() * 1e3)
                .collect();
            let kept = paper_protocol(&totals, RUNS);
            let s = Summary::of(&kept).expect("outcomes");
            let chosen_site = outcomes
                .last()
                .and_then(|o| o.chosen)
                .and_then(|b| scenario.site_of_broker(b))
                .map(|i| wan.site(i).name)
                .unwrap_or("-");
            println!(
                "  client {:<12} mean {:>7.1} ms  sd {:>6.1}  min {:>7.1}  max {:>7.1}  -> {}",
                wan.site(site).name,
                s.mean,
                s.std_dev,
                s.min,
                s.max,
                chosen_site,
            );
        }
        // Breakdown for the Bloomington client (the paper's Figures 2/9/11).
        let mut scenario = ScenarioBuilder::new(kind, BLOOMINGTON, SEED).build();
        let outcomes = scenario.run_discovery(RUNS);
        let mut sums = [0.0f64; 5];
        let mut total = 0.0;
        for o in &outcomes {
            let p = &o.phases;
            for (slot, d) in
                [p.issue, p.collect, p.select, p.ping, p.connect].iter().enumerate()
            {
                sums[slot] += d.as_secs_f64();
            }
            total += p.total().as_secs_f64();
        }
        let labels = ["issue+ack", "await responses", "selection", "ping", "connect"];
        print!("  breakdown (Bloomington):");
        for (label, sum) in labels.iter().zip(sums) {
            print!("  {label} {:.0}%", 100.0 * sum / total);
        }
        println!("\n");
    }
}

#[test]
fn runs_to_completion() {
    main();
}
