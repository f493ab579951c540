//! Campaign-level guarantees of the federated-BDN anti-entropy engine.
//!
//! * determinism — the same base seed yields a byte-identical fault
//!   schedule and a byte-identical campaign report across two runs and
//!   any worker count,
//! * the acceptance campaign — ten seeded scenarios (the scripted
//!   n−1-of-n BDN loss with a stale-replica rejoin, plus nine
//!   randomized plans that crash BDNs freely) all pass the three
//!   invariant checkers: every entity attached (100% discovery
//!   success), every live BDN digest-identical after quiescence, and
//!   no tombstoned broker resurrected,
//! * a pinned report digest at 1 and 4 workers, the regression proof
//!   that anti-entropy message flow is worker-invariant.

use nb_bench::campaign::{
    describe_testbed, fault_scenario, run_campaign, CampaignReport, FaultCampaign, N_ENTITIES,
};
use nb_bench::federation::ScenarioStats;
use nb_discovery::federation::{fnv1a64_step, FNV_OFFSET};

fn campaign(base_seed: u64, scenarios: usize, workers: usize) -> CampaignReport<ScenarioStats> {
    run_campaign(base_seed, scenarios, workers, fault_scenario::<ScenarioStats>)
}

#[test]
fn same_seed_produces_byte_identical_schedule_and_report() {
    let plan_a = ScenarioStats::scripted_plan(&describe_testbed::<ScenarioStats>(77));
    let plan_b = ScenarioStats::scripted_plan(&describe_testbed::<ScenarioStats>(77));
    assert_eq!(plan_a.describe(), plan_b.describe(), "fault schedules diverged");

    let first = campaign(77, 2, 1).to_json();
    let second = campaign(77, 2, 1).to_json();
    assert_eq!(first, second, "campaign reports diverged for one seed");

    let other = campaign(78, 2, 1).to_json();
    assert_ne!(first, other, "base seed had no effect on the campaign");
}

#[test]
fn ten_seed_campaign_passes_every_invariant() {
    let report = campaign(2005, 10, 1);
    assert_eq!(report.scenarios.len(), 10);
    for s in &report.scenarios {
        for inv in &s.invariants {
            assert!(
                inv.passed,
                "scenario {} (seed {}): invariant {} failed: {}",
                s.name, s.seed, inv.name, inv.detail
            );
        }
        // Discovery success is 100%: the federation kept every entity
        // attachable even when its preferred BDNs were down.
        assert_eq!(
            s.stats.attached, s.stats.total_entities,
            "scenario {} (seed {}): only {}/{} entities attached",
            s.name, s.seed, s.stats.attached, s.stats.total_entities
        );
    }
    // Scenario 0 is the acceptance scenario: two of three BDNs die
    // (k = n−1 leaves one survivor), a broker is lost for good, and a
    // stale replica rejoins — the tombstone must propagate and the
    // state-lossy BDN must be repopulated purely by anti-entropy.
    let scripted = &report.scenarios[0];
    assert_eq!(scripted.name, "scripted_bdn_federation_loss");
    assert_eq!(scripted.stats.attached, N_ENTITIES, "100% discovery success under n-1 BDN loss");
    let bdns = &scripted.stats.bdn_reports;
    let tombstones_applied: u64 = bdns.iter().map(|b| b.stats.tombstones_applied).sum();
    assert!(tombstones_applied >= 1, "the dead broker's tombstone propagated");
    let pulled: u64 = bdns.iter().map(|b| b.stats.entries_pulled).sum();
    assert!(pulled >= 1, "anti-entropy repopulated the state-lossy BDN");
    let rounds: u64 = bdns.iter().map(|b| b.stats.rounds_run).sum();
    assert!(rounds > 0, "anti-entropy rounds actually ran");
    let json = report.to_json();
    assert!(json.contains("\"passed\": true"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Pinned digest of the seed-11 three-scenario report, held at 1 and 4
/// campaign workers: scenarios shard across threads but merge in
/// scenario order, so the report — and therefore its digest — must not
/// move a byte when the campaign runs scenario-parallel. Any
/// nondeterminism in the anti-entropy message flow (partner selection,
/// snapshot ordering, digest computation) trips this pin. Re-pinned
/// once (`0xfd665210489673df` until then) with the chaos seed-11 pin,
/// for the same reason: a restarted broker's peers re-advertise to it.
/// And once more (`0xd8628ea83fdb2360` until then), again with the
/// chaos pin: stream sends a partition ate now count in the report's
/// `unreachable_partitioned` column (DESIGN.md §9); nothing else moved.
/// And once more (`0xa9034d72b101e9cb` until then), with the chaos pin
/// again: a BDN's injections of one request share one event id, so the
/// request floods once (DESIGN.md §17). And once more
/// (`0x1c2c8ffe1a4a3570` until then), with the chaos pin: that id is the
/// request's own UUID, so the BDN draws none.
#[test]
fn campaign_report_pinned_at_one_and_four_workers() {
    const PINNED_FNV1A64: u64 = 0xb4f8_2c03_28fc_eb57;
    for workers in [1, 4] {
        let json = campaign(11, 3, workers).to_json();
        let h = fnv1a64_step(FNV_OFFSET, json.as_bytes());
        assert_eq!(
            h, PINNED_FNV1A64,
            "federation report bytes drifted at {workers} workers (got {h:016x})"
        );
    }
}
