//! One deployment description builds on both engines. The chaos
//! testbed (one BDN), the federation testbed (three BDNs) and a
//! 20-broker / 60-entity scale tier are each described once and built
//! on `Sim` and on `ShardedSim` at one worker: both engines hold the
//! same nodes under the same names in the same realms, and every
//! entity attaches on both. Digests are not compared: the engines draw
//! from different RNG streams (DESIGN.md §8).

use std::time::Duration;

use nb_bench::campaign::{describe_testbed, Testbed};
use nb_bench::scale::{describe_tier, TierSpec};
use nb_bench::{chaos, federation};
use nb_discovery::{Deployment, EntityState};
use nb_net::topogen::TopologyKind;
use nb_net::{ShardedSim, Sim};
use nb_wire::{NodeId, RealmId};

/// Long enough for every entity of every description to attach.
const RUN: Duration = Duration::from_secs(20);

/// Each node's `(name, realm)`, in id order.
macro_rules! node_table {
    ($sim:expr, $nodes:expr) => {
        (0..$nodes)
            .map(|i| {
                let id = NodeId(i as u32);
                ($sim.node_name(id).to_string(), $sim.network().realm_of(id))
            })
            .collect::<Vec<(String, Option<RealmId>)>>()
    };
}

/// Entities not attached to a live broker, by name.
macro_rules! unattached {
    ($tb:expr) => {
        $tb.entities
            .iter()
            .filter(|&&e| {
                !matches!($tb.entity(e).state(), EntityState::Attached(b) if $tb.sim.is_up(b))
            })
            .map(|&e| $tb.sim.node_name(e).to_string())
            .collect::<Vec<String>>()
    };
}

fn on_both_engines(what: &str, describe: impl Fn() -> Testbed<Deployment>) {
    let nodes = describe().sim.nodes.len();
    let mut sim = describe().build(Sim::with_clock_profile);
    let mut sharded = describe().build(|seed, clock| {
        let mut sim = ShardedSim::with_clock_profile(seed, clock);
        sim.set_workers(1);
        sim
    });
    assert_eq!(
        node_table!(sim.sim, nodes),
        node_table!(sharded.sim, nodes),
        "{what}: the engines hold different nodes"
    );
    sim.sim.run_for(RUN);
    sharded.sim.run_for(RUN);
    assert!(!sim.entities.is_empty(), "{what}: no entities");
    assert_eq!(unattached!(sim), Vec::<String>::new(), "{what} on Sim");
    assert_eq!(unattached!(sharded), Vec::<String>::new(), "{what} on ShardedSim");
}

#[test]
fn chaos_testbed_builds_on_both_engines() {
    on_both_engines("chaos testbed", || describe_testbed::<chaos::ScenarioStats>(2005));
}

#[test]
fn federation_testbed_builds_on_both_engines() {
    on_both_engines("federation testbed", || describe_testbed::<federation::ScenarioStats>(2005));
}

#[test]
fn scale_tier_builds_on_both_engines() {
    let spec = TierSpec {
        name: "engines",
        kind: TopologyKind::RandomGeometric,
        brokers: 20,
        entities: 60,
    };
    on_both_engines("scale tier", || describe_tier(&spec, 2005).0);
}
