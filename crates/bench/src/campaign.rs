//! What the seed-pure campaigns share. A report row is a name, a seed,
//! a fault plan's size and digest and a list of invariant verdicts, plus
//! the campaign's own counters; a campaign is its root seed and its
//! rows, rendered as wall-clock-free JSON. A row of the fault campaign
//! ([`crate::chaos`]) runs a fault plan over its testbed; a scale tier
//! ([`crate::scale`]) is a row with an empty plan. Both describe their
//! deployment as a [`Testbed`] and add brokers with [`add_broker`].

use std::borrow::{Borrow, BorrowMut};
use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile};
use nb_discovery::{Deployment, DiscoveryBrokerActor, Entity, ResponsePolicy};
use nb_net::{FaultPlan, ShardedSim};
use nb_util::{fnv1a64_step, FNV_OFFSET};
use nb_wire::{NodeId, RealmId};

/// One invariant checker's verdict.
#[derive(Debug, Clone)]
pub struct InvariantResult {
    /// Checker name (`attached`, `no_duplicates`, `fresh_leases`, …).
    pub name: &'static str,
    /// Whether the invariant held.
    pub passed: bool,
    /// Deterministic evidence (counts and node names, no wall time).
    pub detail: String,
}

/// The campaign-specific half of a report row.
pub trait CampaignStats {
    /// The report's `"campaign"` value.
    const CAMPAIGN: &'static str;

    /// Appends what follows the invariants array in the row's JSON
    /// object, up to (not including) the object's closing brace.
    fn write_json(&self, out: &mut String);
}

/// Everything one scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioResult<S> {
    /// Scenario name (`scripted_…`, `generated_<profile>` or a tier).
    pub name: String,
    /// The seed the deployment and (for generated plans) the schedule
    /// were drawn from.
    pub seed: u64,
    /// Faults in the installed plan.
    pub faults: usize,
    /// [`plan_digest`] of the installed plan — two runs with the same
    /// seed must agree on this before anything else.
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

/// FNV-1a over a fault plan's canonical description.
pub fn plan_digest(plan: &FaultPlan) -> u64 {
    fnv1a64_step(FNV_OFFSET, plan.describe().as_bytes())
}

/// A whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport<S> {
    /// Root seed: fault scenario `i` runs under `base_seed + i`, every
    /// scale tier under `base_seed`.
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
    /// and worker-count fields: the report is a pure function of its
    /// arguments, which `repro gate` asserts byte-for-byte at 1 and 4
    /// workers and against the committed copy.
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

/// Runs `scenario(base_seed, i)` for every `i < scenarios`, in order,
/// on this thread. How many engine workers a scenario runs on is the
/// scenario's business; the report must not move a byte with it, which
/// the pinned digest in `tests/chaos_campaign.rs` asserts at 1 and 4.
pub fn run_campaign<S>(
    base_seed: u64,
    scenarios: usize,
    scenario: impl Fn(u64, usize) -> ScenarioResult<S>,
) -> CampaignReport<S> {
    CampaignReport { base_seed, scenarios: (0..scenarios).map(|i| scenario(base_seed, i)).collect() }
}

/// A deployment and the ids of its roles: the fault campaign's testbed
/// and a scale tier. `E` is the engine it was built on, or
/// [`Deployment`] while it is only described.
pub struct Testbed<E = ShardedSim> {
    /// The simulator (owns every actor), or the description.
    pub sim: E,
    /// The BDNs.
    pub bdns: Vec<NodeId>,
    /// The brokers.
    pub brokers: Vec<NodeId>,
    /// The entities.
    pub entities: Vec<NodeId>,
}

impl Testbed<Deployment> {
    /// Builds the described deployment on a one-worker engine.
    pub fn build(self) -> Testbed<ShardedSim> {
        let Testbed { sim, bdns, brokers, entities } = self;
        Testbed { sim: sim.build(), bdns, brokers, entities }
    }

    /// The described roles on `sim`, an engine this testbed's deployment
    /// was built on.
    pub fn on<E: BorrowMut<ShardedSim>>(self, sim: E) -> Testbed<E> {
        let Testbed { bdns, brokers, entities, .. } = self;
        Testbed { sim, bdns, brokers, entities }
    }
}

impl<E: Borrow<ShardedSim>> Testbed<E> {
    /// Entity `e`'s actor.
    pub fn entity(&self, e: NodeId) -> &Entity {
        self.sim.borrow().actor(e).expect("entity")
    }

    /// Rediscoveries entities performed because a broker went silent.
    pub fn failovers(&self) -> u64 {
        self.entities.iter().map(|&e| self.entity(e).failovers).sum()
    }
}

/// Appends broker `b{i}`, which dials `neighbors`, advertises to `bdns`
/// and re-advertises every `readvertise`.
pub(crate) fn add_broker(
    d: &mut Deployment,
    i: usize,
    realm: RealmId,
    restartable: bool,
    neighbors: Vec<NodeId>,
    bdns: Vec<NodeId>,
    readvertise: Duration,
) {
    let cfg = BrokerConfig {
        hostname: format!("b{i}"),
        machine: MachineProfile::default_2005(),
        neighbors,
        ..BrokerConfig::default()
    };
    d.add(format!("b{i}"), realm, restartable, move || {
        let mut actor =
            DiscoveryBrokerActor::new(cfg.clone(), bdns.clone(), ResponsePolicy::open());
        actor.advertiser.set_readvertise(readvertise);
        Box::new(actor)
    });
}
