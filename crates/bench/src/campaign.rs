//! What the seed-pure campaigns share. A report row is a name, a seed,
//! a fault plan's size and digest and a list of invariant verdicts, plus
//! the campaign's own counters; a campaign is its root seed and its
//! rows, rendered as wall-clock-free JSON. The two fault campaigns
//! ([`crate::chaos`], [`crate::federation`]) also share one testbed
//! ([`describe_testbed`]), one scenario skeleton ([`fault_scenario`]) and
//! one `attached` checker; each keeps only its constants, its scripted
//! plan, its own invariants and its counters. A scale tier
//! ([`crate::scale`]) is a row with an empty plan, over a [`Testbed`] of
//! its own.

use std::time::Duration;

use crate::parallel::ParallelExecutor;
use nb_broker::{BrokerConfig, MachineProfile, Topology, TopologyKind};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::federation::{fnv1a64_step, FNV_OFFSET};
use nb_discovery::{
    Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, FederationConfig,
    Network, ResponsePolicy, RetryPolicy,
};
use nb_net::{ChaosProfile, ChaosTargets, ClockProfile, DiscoveryEngine, FaultPlan, LinkSpec, Sim};
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

    /// Scenario 0's scripted plan, over the testbed's node ids.
    fn scripted_plan<E>(tb: &Testbed<E>) -> FaultPlan;

    /// The invariant verdicts and counters once the second round of
    /// traffic has landed.
    fn check(tb: &mut Testbed) -> (Vec<InvariantResult>, Self);
}

/// A deployment and the ids of its roles: the fault campaigns' testbed
/// and a scale tier. `E` is the engine it was built on, or
/// [`Deployment`] while it is only described.
pub struct Testbed<E = Sim> {
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
    /// Builds the described deployment on the engine `engine` makes.
    pub fn build<E: DiscoveryEngine>(
        self,
        engine: impl FnOnce(u64, ClockProfile) -> E,
    ) -> Testbed<E> {
        let Testbed { sim, bdns, brokers, entities } = self;
        Testbed { sim: sim.build(engine), bdns, brokers, entities }
    }
}

impl<E: DiscoveryEngine> Testbed<E> {
    /// Entity `e`'s actor.
    pub fn entity(&self, e: NodeId) -> &Entity {
        self.sim.actor_dyn(e).and_then(|a| a.as_any().downcast_ref()).expect("entity")
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

/// Describes campaign `C`'s testbed: `C::BDNS` BDNs (30 s leases; a
/// federation adds 2 s anti-entropy rounds), six
/// brokers on a star over three realms re-advertising every 10 s — three
/// times a lease — to *every* BDN, so origin stamps agree across
/// replicas, and four entities subscribed to `C::PREFIX/**` (backoff
/// discovery; one home BDN each, extended to the whole federation by
/// [`Entity::federate_bdns`]). A lossy restart rebuilds a BDN or broker
/// from configuration alone.
pub fn describe_testbed<C: FaultCampaign>(seed: u64) -> Testbed<Deployment> {
    let intra = LinkSpec::lan().with_loss(0.0005);
    let inter = LinkSpec::wan(Duration::from_millis(12)).with_loss(0.001);
    let network = Network::Realms { intra, inter, wan: None };
    let mut d = Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    let realm = |i: usize| RealmId(i as u16 % N_REALMS);
    let id = |i: usize| NodeId(i as u32);
    let bdns: Vec<NodeId> = (0..C::BDNS).map(id).collect();
    let brokers: Vec<NodeId> = (C::BDNS..C::BDNS + N_BROKERS).map(id).collect();

    for i in 0..C::BDNS {
        let cfg = BdnConfig {
            ad_ttl: Duration::from_secs(30),
            ping_interval: Duration::from_secs(5),
            federation: (C::BDNS > 1).then(|| FederationConfig {
                peers: bdns.clone(),
                round_interval: ROUND_INTERVAL,
                tombstone_ttl: Duration::from_secs(300),
                seed,
                ..FederationConfig::default()
            }),
            ..BdnConfig::default()
        };
        d.add(format!("bdn{i}"), realm(i), true, move || Box::new(Bdn::new(cfg.clone())));
    }

    let topo = Topology::build(TopologyKind::Star, N_BROKERS);
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        add_broker(&mut d, i, realm(i), true, neighbors, bdns.clone(), Duration::from_secs(10));
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
            let (filter, federation) = (filter.clone(), bdns.clone());
            d.add(format!("e{i}"), realm(i), false, move || {
                let mut entity = Entity::new(cfg.clone(), vec![filter.clone()]);
                let (base, cap) = (Duration::from_secs(2), Duration::from_secs(15));
                entity.set_retry_policy(RetryPolicy::new(base, 2.0, cap, 0.2));
                entity.federate_bdns(&federation);
                Box::new(entity)
            })
        })
        .collect();

    Testbed { sim: d, bdns, brokers, entities }
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
    let mut tb = describe_testbed::<C>(seed).build(Sim::with_clock_profile);
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
