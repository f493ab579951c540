//! The federated BDNs on the federation campaign's testbed (three BDNs
//! in one anti-entropy federation, six brokers advertising to all of
//! them, four entities with one home BDN each): quiescent registries
//! agree and the sharded run is worker-invariant, and an entity whose
//! home BDN is down attaches through another member of the federation.

use std::time::Duration;

use nb_bench::campaign::describe_testbed;
use nb_bench::federation::ScenarioStats;
use nb_discovery::bdn::Bdn;
use nb_discovery::{on_every_engine, EntityState};

#[test]
fn federated_bdns_converge_and_stay_worker_invariant() {
    let describe = || describe_testbed::<ScenarioStats>(48);
    let digests = on_every_engine(
        || describe().sim,
        |sim| {
            let tb = describe().on(sim);
            // Attach every entity, then quiesce a few anti-entropy rounds.
            tb.sim.run_for(Duration::from_secs(20));
            let attached = |&&e: &_| matches!(tb.entity(e).state(), EntityState::Attached(_));
            assert_eq!(tb.entities.iter().filter(attached).count(), 4, "every entity attaches");
            let now = tb.sim.now();
            let bdn = |b| tb.sim.actor::<Bdn>(b).expect("bdn actor").registry_digest(now);
            let digests: Vec<u64> = tb.bdns.iter().map(|&b| bdn(b)).collect();
            assert_eq!(digests.len(), 3);
            assert!(digests.windows(2).all(|w| w[0] == w[1]), "quiescent federated BDNs agree: {digests:x?}");
            digests
        },
    );
    assert_eq!(digests[1], digests[2], "sync traffic is worker-invariant");
}

#[test]
fn entity_whose_home_bdn_is_down_attaches_through_another() {
    let describe = || describe_testbed::<ScenarioStats>(49);
    on_every_engine(
        || describe().sim,
        |sim| {
            let tb = describe().on(sim);
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
        },
    );
}
