//! One deployment description builds on every engine. The chaos
//! testbed with one BDN and with three, and a
//! 20-broker / 60-entity scale tier are each described once and built
//! on `Sim` and on `ShardedSim` at one and at four workers: every
//! engine holds the same nodes under the same names in the same realms,
//! and every entity attaches on each. `Sim`'s digest is not compared:
//! the engines draw from different RNG streams (DESIGN.md §8).

use std::time::Duration;

use nb_bench::campaign::Testbed;
use nb_bench::chaos::describe_testbed;
use nb_bench::scale::{describe_tier, TierSpec};
use nb_discovery::{on_every_engine, Deployment, EntityState};
use nb_net::topogen::TopologyKind;
use nb_net::DiscoveryEngine;
use nb_wire::{NodeId, RealmId};

/// Long enough for every entity of every description to attach.
const RUN: Duration = Duration::from_secs(20);

/// Each node's `(name, realm)`, in id order.
fn node_table(sim: &dyn DiscoveryEngine, nodes: usize) -> Vec<(String, Option<RealmId>)> {
    (0..nodes as u32).map(|i| (sim.node_name(NodeId(i)).to_string(), sim.network().realm_of(NodeId(i)))).collect()
}

/// Entities not attached to a live broker, by name.
fn unattached(tb: &Testbed<&mut dyn DiscoveryEngine>) -> Vec<String> {
    let live = |e| matches!(tb.entity(e).state(), EntityState::Attached(b) if tb.sim.is_up(b));
    tb.entities.iter().filter(|&&e| !live(e)).map(|&e| tb.sim.node_name(e).to_string()).collect()
}

fn on_every_engine_builds(what: &str, describe: impl Fn() -> Testbed<Deployment>) {
    let nodes = describe().sim.nodes.len();
    let tables = on_every_engine(
        || describe().sim,
        |sim| {
            let table = node_table(sim, nodes);
            let tb = describe().on(sim);
            tb.sim.run_for(RUN);
            assert!(!tb.entities.is_empty(), "{what}: no entities");
            assert_eq!(unattached(&tb), Vec::<String>::new(), "{what}");
            table
        },
    );
    assert!(tables.windows(2).all(|w| w[0] == w[1]), "{what}: the engines hold different nodes");
}

#[test]
fn chaos_testbed_builds_on_both_engines() {
    on_every_engine_builds("chaos testbed", || describe_testbed(2005, 1));
}

#[test]
fn three_bdn_testbed_builds_on_both_engines() {
    on_every_engine_builds("three-BDN testbed", || describe_testbed(2005, 3));
}

#[test]
fn scale_tier_builds_on_both_engines() {
    let spec = TierSpec {
        name: "engines",
        kind: TopologyKind::RandomGeometric,
        brokers: 20,
        entities: 60,
    };
    on_every_engine_builds("scale tier", || describe_tier(&spec, 2005).0);
}
