//! Campaign-level guarantees of the chaos engine.
//!
//! * determinism — the same base seed yields a byte-identical fault
//!   schedule and a byte-identical campaign report across two runs,
//! * the acceptance campaign — ten seeded scenarios (the scripted BDN
//!   state-loss restart plus nine randomized plans) all pass the three
//!   invariant checkers,
//! * chaos-smoke — the three-seed tier-1 wrapper beside the
//!   three-scenario report `repro gate chaos` checks.

use nb_bench::campaign::{run_campaign, CampaignReport};
use nb_bench::chaos::{describe_testbed, scenario, scripted_plan, ScenarioStats, N_BROKERS, N_ENTITIES};
use nb_util::{fnv1a64_step, FNV_OFFSET};

fn campaign(base_seed: u64, scenarios: usize, workers: usize) -> CampaignReport<ScenarioStats> {
    run_campaign(base_seed, scenarios, workers, scenario)
}

#[test]
fn same_seed_produces_byte_identical_schedule_and_report() {
    // The fault schedule alone must already be reproducible…
    let plan_a = scripted_plan(&describe_testbed(77, 1));
    let plan_b = scripted_plan(&describe_testbed(77, 1));
    assert_eq!(plan_a.describe(), plan_b.describe(), "fault schedules diverged");

    // …and so must the whole campaign report, which folds in every
    // outcome of actually running the plans.
    let first = campaign(77, 2, 1).to_json();
    let second = campaign(77, 2, 1).to_json();
    assert_eq!(first, second, "campaign reports diverged for one seed");

    // A different seed must actually change the randomized scenarios.
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
    }
    // Scenario 0 is the acceptance scenario: the BDN restarted with
    // state loss and recovered solely through broker re-advertisement
    // heartbeats — every entity failed over at least once through the
    // rebuilt registry.
    let scripted = &report.scenarios[0];
    assert_eq!(scripted.name, "scripted_bdn_loss");
    let failovers = scripted.stats.failovers;
    assert!(failovers >= N_ENTITIES as u64, "every entity rediscovered: {failovers}");
    assert_eq!(scripted.stats.registry_len, N_BROKERS, "heartbeats repopulated every lease");
    let json = report.to_json();
    assert!(json.contains("\"passed\": true"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Tier-1 smoke: three fixed seeds, scripted scenario only per seed,
/// well under a second in a release build.
#[test]
fn chaos_smoke_three_fixed_seeds() {
    for seed in [11, 23, 2005] {
        let report = campaign(seed, 1, 1);
        assert!(report.passed(), "smoke seed {seed} failed:\n{}", report.to_json());
    }
}

/// Pinned digest of the seed-11 three-scenario report, captured before
/// the determinism-hardening pass that replaced `HashMap` state with
/// ordered collections across `net/{sim,link}.rs` and
/// `core/{responder,client,entity,bdn}.rs`. The maps
/// were only ever iterated in sorted or order-insensitive ways, so the
/// swap must not move a single byte of the report — this pin is the
/// regression proof, and any future reordering of sim-visible state
/// will trip it. Re-pinned once since (`0x495b4adddf3f44fe` until then):
/// a restarted broker's `LinkHello` now starts the link over on both
/// sides, and each re-advertises its interest (DESIGN.md §18) — more
/// link frames, and latency draws after them, in every scenario that
/// bounces a broker. And once more (`0x35da1aa4d05e848b` until then):
/// a v1 stream send a partition ate now counts in
/// `unreachable_partitioned` like a datagram or a v2 send (DESIGN.md
/// §9) — that column of the report, and nothing else in it, moved. And
/// once more (`0x1909f559a0c83757` until then): a BDN's injections of
/// one request share one event id, so the overlay floods it once, not
/// once an injection point (DESIGN.md §17) — fewer broker frames, and
/// one RNG draw a request where there was one an injection. And once
/// more (`0x88d50990f85bcf50` until then): that id is the request's own
/// UUID, so a BDN draws none and a multicast re-flood none (DESIGN.md
/// §17) — every later draw moves. And once more (`0x7fde_f2aa_6de4_bfce`
/// until then): `no_duplicates` judges what reached each entity, its
/// dropped repeats included, not its `received`, which holds no repeat —
/// only that row's detail text moved, no event. And once more
/// (`0x2f42_b579_b4b1_5e81` until then): a revived entity starts over,
/// and an entity answers a broker it left with `ClientDisconnect` — the
/// scripted row's repeats fell from 9 to 2, and nothing else moved.
#[test]
fn campaign_report_unchanged_by_ordered_state() {
    const PINNED_FNV1A64: u64 = 0x95c2_dd96_6c3f_17a0;
    let json = campaign(11, 3, 1).to_json();
    let h = fnv1a64_step(FNV_OFFSET, json.as_bytes());
    assert_eq!(
        h, PINNED_FNV1A64,
        "chaos report bytes drifted (got {h:016x}) — sim-visible ordering changed"
    );
}

/// The same pin, now also held at 1 and 4 campaign workers: scenarios
/// shard across threads but merge in scenario order, so the report —
/// and therefore its digest — must not move a byte when the campaign
/// runs scenario-parallel.
#[test]
fn campaign_report_pinned_at_one_and_four_workers() {
    const PINNED_FNV1A64: u64 = 0x95c2_dd96_6c3f_17a0;
    for workers in [1, 4] {
        let json = campaign(11, 3, workers).to_json();
        let h = fnv1a64_step(FNV_OFFSET, json.as_bytes());
        assert_eq!(
            h, PINNED_FNV1A64,
            "chaos report bytes drifted at {workers} workers (got {h:016x})"
        );
    }
}
