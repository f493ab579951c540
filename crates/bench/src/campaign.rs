//! What the seed-pure campaigns share. A report row is a name, a seed,
//! a fault plan's size and digest and a list of invariant verdicts, plus
//! the campaign's own counters; a campaign is its root seed and its
//! rows, rendered as wall-clock-free JSON. The two fault campaigns
//! ([`crate::chaos`], [`crate::federation`]) also share one testbed
//! ([`build_testbed`]), one scenario skeleton ([`fault_scenario`]) and
//! one `attached` checker; each keeps only its constants, its scripted
//! plan, its own invariants and its counters. A scale tier
//! ([`crate::scale`]) is a row with an empty plan.

use std::time::Duration;

use crate::parallel::ParallelExecutor;
use nb_broker::{BrokerConfig, MachineProfile, Topology, TopologyKind};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::federation::{fnv1a64_step, FNV_OFFSET};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, FederationConfig, ResponsePolicy,
    RetryPolicy,
};
use nb_net::{Actor, ChaosProfile, ChaosTargets, ClockProfile, FaultPlan, LinkSpec, Sim};
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};

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

/// Runs `scenario(base_seed, i)` for every `i < scenarios`, sharded
/// across `workers` threads and merged back in scenario order. When
/// `scenario` is a pure function of its arguments the report is
/// byte-identical for every worker count, which the pinned digests in
/// `tests/{chaos,federation}_campaign.rs` assert at 1 and 4 workers.
pub fn run_campaign<S: CampaignStats + Send>(
    base_seed: u64,
    scenarios: usize,
    workers: usize,
    scenario: impl Fn(u64, usize) -> ScenarioResult<S> + Sync,
) -> CampaignReport<S> {
    let results = ParallelExecutor::with_workers(workers).run(scenarios, |i| scenario(base_seed, i));
    CampaignReport { base_seed, scenarios: results }
}

// --------------------------------------------------------------------
// The fault campaigns' testbed and scenario skeleton.
// --------------------------------------------------------------------

/// Brokers in the fault campaigns' testbed.
pub const N_BROKERS: usize = 6;
/// Entities in the fault campaigns' testbed.
pub const N_ENTITIES: usize = 4;
/// Realms the testbed's nodes are spread over.
const N_REALMS: u16 = 3;
/// Anti-entropy round period of a federated testbed.
pub const ROUND_INTERVAL: Duration = Duration::from_secs(2);
/// Horizon handed to [`FaultPlan::generate`] for generated scenarios.
const GEN_HORIZON: Duration = Duration::from_secs(90);

/// A seeded fault campaign over the shared [`Testbed`]: what it adds to
/// the one scenario skeleton, [`fault_scenario`].
pub trait FaultCampaign: CampaignStats + Sized {
    /// BDNs in the testbed; more than one run as a federation.
    const BDNS: usize;
    /// Topic prefix the entities subscribe and publish under.
    const PREFIX: &'static str;
    /// Recovery window between the fault plan's tail and the second
    /// round of traffic.
    const RECOVERY: Duration;
    /// Scenario 0's name.
    const SCRIPTED: &'static str;

    /// Scenario 0's scripted plan.
    fn scripted_plan(tb: &Testbed) -> FaultPlan;

    /// The invariant verdicts and counters once the second round of
    /// traffic has landed.
    fn check(tb: &mut Testbed) -> (Vec<InvariantResult>, Self);
}

/// The fault campaigns' testbed.
pub struct Testbed {
    /// The simulator (owns every actor).
    pub sim: Sim,
    /// The BDNs: one, or a federation.
    pub bdns: Vec<NodeId>,
    /// The six brokers.
    pub brokers: Vec<NodeId>,
    /// The four entities.
    pub entities: Vec<NodeId>,
}

impl Testbed {
    /// Entity `e`'s actor.
    pub fn entity(&self, e: NodeId) -> &Entity {
        self.sim.actor::<Entity>(e).expect("entity")
    }

    /// Rediscoveries entities performed because a broker went silent.
    pub fn failovers(&self) -> u64 {
        self.entities.iter().map(|&e| self.entity(e).failovers).sum()
    }
}

/// Builds campaign `C`'s testbed: `C::BDNS` BDNs first (short 30 s
/// advertisement leases, strict lease mode; a federation adds 2 s
/// anti-entropy rounds), then six brokers on a star overlay over three
/// realms (10 s re-advertisement heartbeats — three a lease — to *every*
/// BDN, so origin stamps agree across replicas), then four entities
/// subscribed to `C::PREFIX/**` (exponential-backoff discovery, short
/// stranded-retry cap; one home BDN each, extended to the whole
/// federation by [`Entity::federate_bdns`], a no-op for one BDN). Every
/// restartable node gets a respawn factory so `lose_state` restarts
/// rebuild it from configuration alone.
pub fn build_testbed<C: FaultCampaign>(seed: u64) -> Testbed {
    let mut sim = Sim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0005);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(12)).with_loss(0.001);

    // BDN node ids are only known after `add_node`, but a federation's
    // peer list needs all of them — add placeholders first, then swap in
    // the real configuration (the scenario-builder idiom).
    let bdns: Vec<NodeId> = (0..C::BDNS)
        .map(|i| {
            sim.add_node(
                &format!("bdn{i}"),
                RealmId(i as u16 % N_REALMS),
                Box::new(Bdn::new(BdnConfig::default())),
            )
        })
        .collect();
    for &b in &bdns {
        let cfg = BdnConfig {
            ad_ttl: Duration::from_secs(30),
            ping_interval: Duration::from_secs(5),
            require_lease: true,
            federation: (C::BDNS > 1).then(|| FederationConfig {
                peers: bdns.clone(),
                round_interval: ROUND_INTERVAL,
                tombstone_ttl: Duration::from_secs(300),
                seed,
                ..FederationConfig::default()
            }),
            ..BdnConfig::default()
        };
        *sim.actor_mut::<Bdn>(b).expect("bdn actor") = Bdn::new(cfg.clone());
        sim.set_respawn(b, Box::new(move || Box::new(Bdn::new(cfg.clone()))));
    }

    let heartbeat = Duration::from_secs(10);
    let topo = Topology::build(TopologyKind::Star, N_BROKERS);
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors: Vec<NodeId> = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        let ad_targets = bdns.clone();
        let broker = move || -> Box<dyn Actor> {
            let mut actor =
                DiscoveryBrokerActor::new(cfg.clone(), ad_targets.clone(), ResponsePolicy::open());
            actor.advertiser.set_readvertise(heartbeat);
            Box::new(actor)
        };
        let node = sim.add_node(&format!("b{i}"), RealmId(i as u16 % N_REALMS), broker());
        sim.set_respawn(node, Box::new(broker));
        brokers.push(node);
    }

    let discovery = DiscoveryConfig {
        collection_window: Duration::from_millis(1500),
        max_responses: 10,
        target_set_size: 3,
        ping_window: Duration::from_millis(500),
        ack_timeout: Duration::from_millis(600),
        retransmits_per_bdn: 2,
        backoff: Some(RetryPolicy::new(
            Duration::from_millis(400),
            2.0,
            Duration::from_secs(5),
            0.2,
        )),
        ..DiscoveryConfig::default()
    };
    let filter = TopicFilter::parse(&format!("{}/**", C::PREFIX)).expect("valid filter");
    let entities: Vec<NodeId> = (0..N_ENTITIES)
        .map(|i| {
            // One home BDN each; the federation extends the rotation, so
            // the retry budget ((retransmits+1) × BDNs) spans every
            // replica.
            let cfg = DiscoveryConfig { bdns: vec![bdns[i % bdns.len()]], ..discovery.clone() };
            let mut entity = Entity::new(cfg, vec![filter.clone()]);
            entity.set_retry_policy(RetryPolicy::new(
                Duration::from_secs(2),
                2.0,
                Duration::from_secs(15),
                0.2,
            ));
            entity.federate_bdns(&bdns);
            sim.add_node(&format!("e{i}"), RealmId(i as u16 % N_REALMS), Box::new(entity))
        })
        .collect();

    Testbed { sim, bdns, brokers, entities }
}

/// Scenario `i` of campaign `C`, under seed `base_seed + i`: boot and
/// attach (12 s), a round of publishes, the fault plan — scenario 0's
/// scripted one, else one drawn from [`FaultPlan::generate`] with every
/// BDN, broker and entity a target, alternating the light and heavy
/// profiles — its tail and `C::RECOVERY`, a second round of publishes,
/// then `C`'s checks. A pure function of `(base_seed, i)`, so scenarios
/// shard across workers without moving a report byte.
pub fn fault_scenario<C: FaultCampaign>(base_seed: u64, i: usize) -> ScenarioResult<C> {
    let seed = base_seed.wrapping_add(i as u64);
    let (name, profile) = match i {
        0 => (C::SCRIPTED, None),
        _ if i % 2 == 1 => ("generated_light", Some(ChaosProfile::light())),
        _ => ("generated_heavy", Some(ChaosProfile::heavy())),
    };
    let mut tb = build_testbed::<C>(seed);
    let publish = |tb: &mut Testbed, round: &str| {
        for (i, &e) in tb.entities.iter().enumerate() {
            let topic = Topic::parse(&format!("{}/{round}/e{i}", C::PREFIX)).expect("valid topic");
            tb.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
        }
    };

    tb.sim.run_for(Duration::from_secs(12));
    publish(&mut tb, "round1");
    tb.sim.run_for(Duration::from_secs(4));

    let plan = match &profile {
        None => C::scripted_plan(&tb),
        Some(profile) => {
            let targets = ChaosTargets {
                bdns: tb.bdns.clone(),
                brokers: tb.brokers.clone(),
                clients: tb.entities.clone(),
            };
            FaultPlan::generate(seed, profile, &targets, GEN_HORIZON)
        }
    };
    let last_fault = plan.events().iter().map(|e| e.at).max().unwrap_or_default();
    tb.sim.apply_fault_plan(&plan);
    tb.sim.run_for(last_fault + Duration::from_secs(10));
    tb.sim.run_for(C::RECOVERY);

    publish(&mut tb, "round2");
    tb.sim.run_for(Duration::from_secs(8));

    let (invariants, stats) = C::check(&mut tb);
    ScenarioResult {
        name: name.to_string(),
        seed,
        faults: plan.len(),
        plan_digest: plan_digest(&plan),
        invariants,
        stats,
    }
}

/// The `attached` invariant of both fault campaigns — every entity ends
/// attached to a live broker (§1.2: the environment is fluid, but
/// discovery must re-converge once faults stop) — and how many are.
pub fn attached(tb: &Testbed) -> (InvariantResult, usize) {
    let mut count = 0;
    let verdicts: Vec<String> = tb
        .entities
        .iter()
        .map(|&e| {
            let name = tb.sim.node_name(e);
            match tb.entity(e).state() {
                EntityState::Attached(b) if tb.sim.is_up(b) => {
                    count += 1;
                    format!("{name}->{}", tb.sim.node_name(b))
                }
                EntityState::Attached(b) => format!("{name}->DOWN({})", tb.sim.node_name(b)),
                other => format!("{name}={other:?}"),
            }
        })
        .collect();
    let passed = count == tb.entities.len();
    (InvariantResult { name: "attached", passed, detail: verdicts.join(" ") }, count)
}
