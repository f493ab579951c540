//! An allocation budget for the attach path, in tier-1.
//!
//! One small sharded attach — 10 brokers, 1 BDN, 200 entities, 1
//! worker — counted by this binary's own `#[global_allocator]`. The
//! count is exact and repeats, so a new allocation on the flood hop,
//! the responder or the epoch barrier shows here as a failed test
//! instead of needing an `LD_PRELOAD` census to find. This file must
//! stay the only test in its binary: libtest runs tests on parallel
//! threads, and a sibling would allocate into the same counter.

use std::time::Duration;

use nb_bench::alloc::{calls, CountingAlloc};
use nb_bench::scale::{build_tier, TierSpec, SCALE_SHARDS};
use nb_discovery::{Entity, EntityState};
use nb_net::topogen::TopologyKind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ENTITIES: usize = 200;
/// Allocations per attached entity, boot excluded. The change that
/// added this test reaches 196 under `cargo test` (39 320 in all; an
/// optimised build elides some: 172) where its parent made 345, and not
/// the same count twice. The budget is the 196 plus 10 %.
const BUDGET_PER_ATTACH: u64 = 216;

/// Boots the deployment uncounted, then counts the allocator calls of
/// the window in which the whole fleet discovers, attaches and
/// subscribes.
fn allocations_of_one_attach_run() -> u64 {
    let spec = TierSpec {
        name: "alloc_budget",
        kind: TopologyKind::RandomGeometric,
        brokers: 10,
        entities: ENTITIES,
    };
    let mut dep = build_tier(&spec, 2005);
    assert_eq!(dep.bdns.len(), 1);
    dep.sim.set_workers(1);
    dep.sim.set_shards(SCALE_SHARDS);
    dep.sim.run_for(Duration::from_secs(5));
    let before = calls();
    dep.sim.run_for(Duration::from_secs(10));
    let counted = calls() - before;
    for &e in &dep.entities {
        let state = dep.sim.actor::<Entity>(e).expect("entity").state();
        assert!(matches!(state, EntityState::Attached(_)), "an entity ended {state:?}");
    }
    counted
}

#[test]
fn attach_path_allocations_repeat_exactly_and_stay_under_budget() {
    // The first run also fills the process-wide topic intern tables and
    // the thread's encode pool; the two after it do identical work.
    allocations_of_one_attach_run();
    let first = allocations_of_one_attach_run();
    let second = allocations_of_one_attach_run();
    assert_eq!(first, second, "the allocation count is a pure function of the run");
    let per_attach = first / ENTITIES as u64;
    assert!(
        per_attach <= BUDGET_PER_ATTACH,
        "{per_attach} allocations per attached entity, budget {BUDGET_PER_ATTACH} ({first} in all)"
    );
}
