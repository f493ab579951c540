//! The federated BDNs on the federation campaign's testbed (three BDNs
//! in one anti-entropy federation, six brokers advertising to all of
//! them, four entities with one home BDN each): quiescent registries
//! agree and the sharded run is worker-invariant, and an entity whose
//! home BDN is down attaches through another member of the federation.

use std::time::Duration;

use nb_bench::campaign::{describe_testbed, Testbed};
use nb_bench::federation::ScenarioStats;
use nb_discovery::bdn::Bdn;
use nb_discovery::EntityState;
use nb_net::{ShardedSim, Sim};

#[test]
fn federated_bdns_converge_and_stay_worker_invariant() {
    let run = |workers| {
        let mut tb = describe_testbed::<ScenarioStats>(48).build(|seed, clock| {
            let mut sim = ShardedSim::with_clock_profile(seed, clock);
            sim.set_workers(workers);
            sim
        });
        // Attach every entity, then quiesce a few anti-entropy rounds.
        tb.sim.run_for(Duration::from_secs(20));
        let attached = tb
            .entities
            .iter()
            .filter(|&&e| matches!(tb.entity(e).state(), EntityState::Attached(_)))
            .count();
        let now = tb.sim.now();
        let digests: Vec<u64> = tb
            .bdns
            .iter()
            .map(|&b| tb.sim.actor::<Bdn>(b).expect("bdn actor").registry_digest(now))
            .collect();
        (attached, digests, tb.sim.digest(), tb.sim.events_processed())
    };
    let reference = run(1);
    assert_eq!(reference.0, 4, "every entity attaches");
    assert_eq!(reference.1.len(), 3);
    assert!(
        reference.1.windows(2).all(|w| w[0] == w[1]),
        "quiescent federated BDNs agree: {:x?}",
        reference.1
    );
    assert_eq!(reference, run(2), "sync traffic is worker-invariant");
    assert_eq!(reference, run(4));
}

#[test]
fn entity_whose_home_bdn_is_down_attaches_through_another() {
    let mut tb: Testbed = describe_testbed::<ScenarioStats>(49).build(Sim::with_clock_profile);
    let (home, entity) = (tb.bdns[0], tb.entities[0]);
    assert_eq!(tb.entity(entity).discovery().config().bdns[0], home, "entity 0's home BDN");
    tb.sim.crash(home);
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
        "another federation member served the discovery: {served_by:?}"
    );
}
