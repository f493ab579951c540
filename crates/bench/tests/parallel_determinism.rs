//! Determinism contract of the parallel executor.
//!
//! Sharding the figure suite across threads is only acceptable if the
//! output is a pure function of `(seed_root, runs)` — otherwise the
//! checked-in figures would drift with the core count of the machine
//! that produced them. These properties pin the contract: for every
//! topology, client site, seed root and worker count, the parallel
//! executor must reproduce the serial executor's outcome vector
//! *exactly*, ordering included.

use nb_bench::discoveries;
use nb_bench::parallel::ParallelExecutor;
use nb_broker::TopologyKind;
use nb_net::wan::{BLOOMINGTON, CARDIFF, FSU, NCSA, UMN};
use proptest::prelude::*;

fn topologies() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Unconnected),
        Just(TopologyKind::Star),
        Just(TopologyKind::Linear),
        Just(TopologyKind::Ring),
        Just(TopologyKind::Tree),
    ]
}

fn client_sites() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(BLOOMINGTON),
        Just(UMN),
        Just(NCSA),
        Just(FSU),
        Just(CARDIFF),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Parallel outcomes equal serial outcomes element-for-element, in
    /// the same order, for arbitrary topology/site/seed/worker-count.
    #[test]
    fn parallel_matches_serial(
        kind in topologies(),
        site in client_sites(),
        seed_root in any::<u64>(),
        runs in 2usize..7,
        workers in 2usize..6,
    ) {
        let builder = nb_discovery::scenario::ScenarioBuilder::new(kind, site, 0);
        let serial = discoveries(ParallelExecutor::serial(), &builder, seed_root, runs);
        let parallel =
            discoveries(ParallelExecutor::with_workers(workers), &builder, seed_root, runs);
        prop_assert_eq!(serial, parallel);
    }

    /// Worker count never leaks into the result: any two parallel
    /// executors agree with each other, not just with serial.
    #[test]
    fn worker_count_is_invisible(
        seed_root in any::<u64>(),
        wa in 2usize..5,
        wb in 5usize..9,
    ) {
        let builder =
            nb_discovery::scenario::ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 0);
        let a = discoveries(ParallelExecutor::with_workers(wa), &builder, seed_root, 5);
        let b = discoveries(ParallelExecutor::with_workers(wb), &builder, seed_root, 5);
        prop_assert_eq!(a, b);
    }

    /// Engine event totals are as worker-invariant as the outcomes: the
    /// generic `run` hands back per-run `(outcome, events)` pairs in
    /// run order whatever the worker count.
    #[test]
    fn counted_runs_agree(seed_root in any::<u64>(), workers in 2usize..6) {
        let builder =
            nb_discovery::scenario::ScenarioBuilder::new(TopologyKind::Ring, UMN, 0);
        let counted = |ex: ParallelExecutor| {
            ex.run(4, |i| {
                let mut b = builder.clone();
                b.seed = seed_root.wrapping_add(i as u64);
                let mut scenario = b.build();
                let outcome = scenario.run_discovery_once();
                (outcome, scenario.sim.events_processed())
            })
        };
        let plain = discoveries(ParallelExecutor::serial(), &builder, seed_root, 4);
        let par = counted(ParallelExecutor::with_workers(workers));
        let ser = counted(ParallelExecutor::serial());
        prop_assert_eq!(plain, par.iter().map(|(o, _)| o.clone()).collect::<Vec<_>>());
        prop_assert_eq!(&ser, &par);
        prop_assert!(ser.iter().all(|(_, events)| *events > 0));
    }
}

/// A repeated identical invocation is also stable run-to-run (no hidden
/// global state in the executor itself).
#[test]
fn repeat_invocations_are_stable() {
    let builder =
        nb_discovery::scenario::ScenarioBuilder::new(TopologyKind::Tree, NCSA, 0);
    let ex = ParallelExecutor::with_workers(4);
    let first = discoveries(ex, &builder, 7, 6);
    let second = discoveries(ex, &builder, 7, 6);
    assert_eq!(first, second);
}
