//! What the seeded fault campaigns ([`crate::chaos`],
//! [`crate::federation`]) share: a scenario row is a name, a seed, a
//! fault plan's size and digest and a list of invariant verdicts, plus
//! the campaign's own counters; a campaign is `base_seed` and its rows,
//! run scenario-parallel and rendered as wall-clock-free JSON. Each
//! campaign module keeps only its deployment, its invariants and the
//! body of its JSON rows.

use crate::parallel::ParallelExecutor;

/// One invariant checker's verdict.
#[derive(Debug, Clone)]
pub struct InvariantResult {
    /// Checker name (`attached`, `no_duplicates`, `no_resurrection`, …).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Deterministic evidence (counts and node names, no wall time).
    pub detail: String,
}

/// The campaign-specific half of a scenario row, and how to produce and
/// render it.
pub trait CampaignStats: Send + Sized {
    /// The report's `"campaign"` value.
    const CAMPAIGN: &'static str;

    /// Runs scenario `i` of a campaign rooted at `base_seed`. Must be a
    /// pure function of `(base_seed, i)` alone — the property that lets
    /// campaigns shard across worker threads without changing a byte of
    /// the report.
    fn run_scenario(base_seed: u64, i: usize) -> ScenarioResult<Self>;

    /// Appends what follows the invariants array in the row's JSON
    /// object, up to (not including) the object's closing brace.
    fn write_json(&self, out: &mut String);
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult<S> {
    /// Scenario name (`scripted_…` or `generated_<profile>`).
    pub name: String,
    /// The seed the deployment and (for generated plans) the schedule
    /// were drawn from.
    pub seed: u64,
    /// Faults in the installed plan.
    pub faults: usize,
    /// FNV-1a digest of the plan's canonical description — two runs
    /// with the same seed must agree on this before anything else.
    pub plan_digest: u64,
    /// The invariant verdicts.
    pub invariants: Vec<InvariantResult>,
    /// The campaign's own counters.
    pub stats: S,
}

impl<S> ScenarioResult<S> {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.invariants.iter().all(|i| i.passed)
    }
}

/// A whole campaign: scenario 0 scripted, the rest generated.
#[derive(Debug, Clone)]
pub struct CampaignReport<S> {
    /// Base seed; scenario `i` runs under `base_seed + i`.
    pub base_seed: u64,
    /// Per-scenario outcomes.
    pub scenarios: Vec<ScenarioResult<S>>,
}

impl<S: CampaignStats> CampaignReport<S> {
    /// Did every scenario pass every invariant?
    pub fn passed(&self) -> bool {
        self.scenarios.iter().all(|s| s.passed())
    }

    /// Renders the campaign as JSON. Deliberately free of wall-clock
    /// fields: the report is a pure function of the base seed, which
    /// the determinism tests assert byte-for-byte at 1 and 4 workers.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"campaign\": \"{}\",\n", S::CAMPAIGN));
        out.push_str(&format!("  \"base_seed\": {},\n", self.base_seed));
        out.push_str(&format!("  \"scenarios\": {},\n", self.scenarios.len()));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str("  \"results\": [\n");
        for (i, s) in self.scenarios.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seed\": {}, \"faults\": {}, \
                 \"plan_digest\": \"{:016x}\", \"passed\": {},\n",
                s.name,
                s.seed,
                s.faults,
                s.plan_digest,
                s.passed()
            ));
            out.push_str("     \"invariants\": [\n");
            for (j, inv) in s.invariants.iter().enumerate() {
                out.push_str(&format!(
                    "       {{\"name\": \"{}\", \"passed\": {}, \"detail\": \"{}\"}}{}\n",
                    inv.name,
                    inv.passed,
                    inv.detail.replace('\\', "\\\\").replace('"', "\\\""),
                    if j + 1 < s.invariants.len() { "," } else { "" },
                ));
            }
            out.push_str("     ],\n");
            s.stats.write_json(&mut out);
            out.push_str(if i + 1 < self.scenarios.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Runs a campaign of `scenarios` runs from `base_seed` on one worker.
pub fn run_campaign<S: CampaignStats>(base_seed: u64, scenarios: usize) -> CampaignReport<S> {
    run_campaign_with_workers(base_seed, scenarios, 1)
}

/// Scenario-parallel campaign: scenarios are independent deployments,
/// so they shard across `workers` threads and merge back in scenario
/// order. The report is a pure function of `(base_seed, scenarios)` —
/// byte-identical for every worker count — which the worker-pinned
/// digest tests in `tests/{chaos,federation}_campaign.rs` assert at 1
/// and 4 workers.
pub fn run_campaign_with_workers<S: CampaignStats>(
    base_seed: u64,
    scenarios: usize,
    workers: usize,
) -> CampaignReport<S> {
    let results = ParallelExecutor::with_workers(workers)
        .run(scenarios, |i| S::run_scenario(base_seed, i));
    CampaignReport { base_seed, scenarios: results }
}
