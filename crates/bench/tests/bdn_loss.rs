//! Discovery survives the loss of n−1 of n BDNs with nothing but the
//! paper's mechanisms (§1): three independent BDNs, one a realm, each
//! told directly only of its own realm's brokers and of the rest by the
//! advertisement topic it subscribes to, and entities that retransmit to
//! the next BDN in their list (home first, then the other two).

use std::collections::BTreeSet;
use std::time::Duration;

use nb_bench::chaos::describe_testbed;
use nb_discovery::bdn::Bdn;
use nb_discovery::{at_one_and_four_workers, EntityState};
use nb_net::{Fault, FaultPlan};
use nb_wire::NodeId;

/// BDN 2 crashes keeping its state, BDN 1 crashes: one BDN of three is
/// left. Broker 5 dies for good, BDN 2 revives with its old registry,
/// BDN 1 restarts with none, and a one-way flap severs BDN 0 → BDN 1.
#[test]
fn losing_two_of_three_bdns_leaves_every_entity_attached_and_every_bdn_full() {
    let describe = || describe_testbed(2005, 3);
    at_one_and_four_workers(
        || describe().sim,
        |sim| {
            let tb = describe().on(sim);
            let plan = FaultPlan::new()
                .crash_at(Duration::from_secs(20), tb.bdns[2])
                .crash_at(Duration::from_secs(25), tb.bdns[1])
                .crash_at(Duration::from_secs(30), tb.brokers[5])
                .restart_at(Duration::from_secs(42), tb.bdns[2], false)
                .restart_at(Duration::from_secs(50), tb.bdns[1], true)
                .one_way_flap_at(Duration::from_secs(55), tb.bdns[0], tb.bdns[1], Duration::from_secs(8))
                .sorted();
            tb.sim.run_for(Duration::from_secs(12));
            tb.sim.apply_fault_plan(&plan);
            tb.sim.run_for(Duration::from_secs(63 + 10 + 60));

            for &e in &tb.entities {
                let state = tb.entity(e).state();
                assert!(matches!(state, EntityState::Attached(b) if tb.sim.is_up(b)), "{}: {state:?}", tb.sim.node_name(e));
            }
            let live: BTreeSet<NodeId> = tb.brokers.iter().copied().filter(|&b| tb.sim.is_up(b)).collect();
            assert_eq!(live.len(), 5, "broker 5 stays down");
            let now = tb.sim.now();
            for &b in &tb.bdns {
                assert!(tb.sim.is_up(b), "{} is back", tb.sim.node_name(b));
                let bdn = tb.sim.actor::<Bdn>(b).expect("bdn actor");
                let leased: BTreeSet<NodeId> =
                    tb.brokers.iter().copied().filter(|&broker| bdn.lease_valid(broker, now)).collect();
                assert_eq!(leased, live, "{} holds exactly the live brokers' leases", tb.sim.node_name(b));
            }
        },
    );
}

#[test]
fn entity_whose_home_bdn_is_down_attaches_through_another() {
    let describe = || describe_testbed(49, 3);
    at_one_and_four_workers(
        || describe().sim,
        |sim| {
            let tb = describe().on(sim);
            let (home, entity) = (tb.bdns[0], tb.entities[0]);
            assert_eq!(tb.entity(entity).discovery().config().bdns[0], home, "entity 0's home BDN");
            tb.sim.apply_fault(Fault::Crash { node: home });
            tb.sim.run_for(Duration::from_secs(12));
            let e = tb.entity(entity);
            assert!(
                matches!(e.state(), EntityState::Attached(b) if tb.sim.is_up(b)),
                "the rotation reaches a live BDN: {:?}",
                e.state()
            );
            let served_by = e.discovery().outcome().and_then(|o| o.bdn_used);
            assert!(
                served_by.is_some_and(|b| b != home && tb.bdns.contains(&b)),
                "another BDN served the discovery: {served_by:?}"
            );
        },
    );
}
