//! `repro chaos` — seeded fault-injection campaigns over a live
//! deployment.
//!
//! Each scenario builds the same small testbed (one BDN, six brokers on
//! a star overlay spread across three realms, four publishing and
//! subscribing entities), installs a [`FaultPlan`] — scripted for
//! scenario 0, drawn from [`FaultPlan::generate`] for the rest — lets
//! the system fight through it, and then checks three invariants:
//!
//! 1. **attached** — every entity ends the run attached to a live
//!    broker (§1.2: the environment is fluid, but discovery must always
//!    re-converge once faults stop),
//! 2. **no-duplicates** — no entity observed the same event id twice,
//!    even under packet-duplication windows (the dedup caches hold),
//! 3. **fresh-leases** — every broker an entity ends up attached to
//!    holds a live advertisement lease at the BDN (nobody is riding a
//!    stale registry entry).
//!
//! Scenario 0 is the acceptance scenario: the BDN is restarted *with
//! state loss* early on, and every broker is then bounced in a
//! staggered wave — each entity is forced through at least one
//! rediscovery that can only be served because broker re-advertisement
//! heartbeats repopulated the empty registry. The whole campaign is a
//! pure function of its base seed; the JSON report contains no
//! wall-clock measurements, so two runs with the same seed produce
//! byte-identical reports.

use std::time::Duration;

use crate::campaign::{CampaignStats, InvariantResult};
use nb_broker::{BrokerConfig, MachineProfile, Topology, TopologyKind};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::federation::{fnv1a64_step, FNV_OFFSET};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, ResponsePolicy, RetryPolicy,
};
use nb_net::{
    ChaosProfile, ChaosTargets, ClockProfile, FaultPlan, LinkSpec, PacketFaults, Sim,
};
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};

/// Brokers in the campaign testbed.
pub const N_BROKERS: usize = 6;
/// Entities in the campaign testbed.
pub const N_ENTITIES: usize = 4;
/// Realms the brokers and entities are spread over.
const N_REALMS: u16 = 3;
/// Horizon handed to [`FaultPlan::generate`] for randomized scenarios.
const GEN_HORIZON: Duration = Duration::from_secs(90);

/// The built campaign testbed.
pub struct ChaosDeployment {
    /// The simulator (owns every actor).
    pub sim: Sim,
    /// The broker discovery node.
    pub bdn: NodeId,
    /// The six brokers.
    pub brokers: Vec<NodeId>,
    /// The four entities.
    pub entities: Vec<NodeId>,
}

/// Builds the testbed: BDN first (short 30 s advertisement leases,
/// strict lease mode), then the brokers (10 s re-advertisement
/// heartbeats — three heartbeats per lease), then the entities
/// (exponential-backoff discovery, short stranded-retry cap). Every
/// restartable node gets a respawn factory so `lose_state` restarts
/// rebuild it from configuration alone.
pub fn build_deployment(seed: u64) -> ChaosDeployment {
    let mut sim = Sim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0005);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(12)).with_loss(0.001);

    let bdn_cfg = BdnConfig {
        ad_ttl: Duration::from_secs(30),
        ping_interval: Duration::from_secs(5),
        require_lease: true,
        ..BdnConfig::default()
    };
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(bdn_cfg.clone())));
    sim.set_respawn(bdn, Box::new(move || Box::new(Bdn::new(bdn_cfg.clone()))));

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
        let mut actor = DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open());
        actor.advertiser.set_readvertise(heartbeat);
        let node = sim.add_node(&format!("b{i}"), RealmId(i as u16 % N_REALMS), Box::new(actor));
        sim.set_respawn(
            node,
            Box::new(move || {
                let mut fresh =
                    DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open());
                fresh.advertiser.set_readvertise(heartbeat);
                Box::new(fresh)
            }),
        );
        brokers.push(node);
    }

    let discovery = DiscoveryConfig {
        bdns: vec![bdn],
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
    let filter = TopicFilter::parse("chaos/**").expect("valid filter");
    let entities: Vec<NodeId> = (0..N_ENTITIES)
        .map(|i| {
            let mut entity = Entity::new(discovery.clone(), vec![filter.clone()]);
            entity.set_retry_policy(RetryPolicy::new(
                Duration::from_secs(2),
                2.0,
                Duration::from_secs(15),
                0.2,
            ));
            sim.add_node(&format!("e{i}"), RealmId(i as u16 % N_REALMS), Box::new(entity))
        })
        .collect();

    ChaosDeployment { sim, bdn, brokers, entities }
}

/// The scripted acceptance plan: the BDN is crashed at t=10 s and
/// restarted with **state loss** at t=25 s (registry and attachments
/// gone — only broker heartbeats can repopulate it); every broker is
/// then bounced in a staggered 6 s wave (even indices lose state too),
/// so each entity's broker dies at some point and its rediscovery must
/// be served by the heartbeat-rebuilt registry. A one-way WAN flap and
/// an unruly packet window run over the tail.
pub fn acceptance_plan(dep: &ChaosDeployment) -> FaultPlan {
    let mut plan = FaultPlan::new().crash_at(Duration::from_secs(10), dep.bdn).restart_at(
        Duration::from_secs(25),
        dep.bdn,
        true,
    );
    for (i, &b) in dep.brokers.iter().enumerate() {
        let down_at = Duration::from_secs(40 + 6 * i as u64);
        plan = plan
            .crash_at(down_at, b)
            .restart_at(down_at + Duration::from_secs(12), b, i % 2 == 0);
    }
    plan.one_way_flap_at(
        Duration::from_secs(60),
        dep.entities[0],
        dep.brokers[0],
        Duration::from_secs(10),
    )
    .packet_fault_window(Duration::from_secs(65), Duration::from_secs(15), PacketFaults::unruly())
    .sorted()
}

/// The chaos campaign's own counters for one scenario (the three
/// invariants are `attached`, `no_duplicates`, `fresh_leases`).
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Rediscoveries entities performed because a broker went silent.
    pub failovers: u64,
    /// Injection targets the BDN skipped over expired/absent leases.
    pub stale_targets_skipped: u64,
    /// Duplicate discovery requests absorbed by the BDN dedup cache.
    pub duplicate_requests: u64,
    /// Brokers holding live leases when the run ended.
    pub registry_len: usize,
    /// Extra datagram copies injected by the duplication fault.
    pub datagrams_duplicated: u64,
    /// Datagrams dropped by the corruption fault.
    pub datagrams_corrupted: u64,
    /// Datagrams held back by the reordering fault.
    pub datagrams_reordered: u64,
    /// Sends dropped on a severed (one- or two-way) path.
    pub unreachable_partitioned: u64,
}

/// Everything one chaos scenario run produced.
pub type ScenarioResult = crate::campaign::ScenarioResult<ScenarioStats>;
/// A whole chaos campaign.
pub type CampaignReport = crate::campaign::CampaignReport<ScenarioStats>;

impl CampaignStats for ScenarioStats {
    const CAMPAIGN: &'static str = "chaos";

    /// Scenario 0 is the scripted acceptance plan, scenario `i > 0`
    /// draws a randomized plan from seed `base_seed + i`, alternating
    /// the light and heavy profiles.
    fn run_scenario(base_seed: u64, i: usize) -> ScenarioResult {
        let seed = base_seed.wrapping_add(i as u64);
        if i == 0 {
            run_scenario("scripted_bdn_loss", seed, &acceptance_plan)
        } else {
            let profile = if i % 2 == 1 { ChaosProfile::light() } else { ChaosProfile::heavy() };
            let name = if i % 2 == 1 { "generated_light" } else { "generated_heavy" };
            run_scenario(name, seed, &move |dep: &ChaosDeployment| {
                let targets = ChaosTargets {
                    bdns: vec![dep.bdn],
                    brokers: dep.brokers.clone(),
                    clients: dep.entities.clone(),
                };
                FaultPlan::generate(seed, &profile, &targets, GEN_HORIZON)
            })
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "     \"stats\": {{\"failovers\": {}, \"stale_targets_skipped\": {}, \
             \"duplicate_requests\": {}, \"registry_len\": {}, \
             \"datagrams_duplicated\": {}, \"datagrams_corrupted\": {}, \
             \"datagrams_reordered\": {}, \"unreachable_partitioned\": {}}}",
            self.failovers,
            self.stale_targets_skipped,
            self.duplicate_requests,
            self.registry_len,
            self.datagrams_duplicated,
            self.datagrams_corrupted,
            self.datagrams_reordered,
            self.unreachable_partitioned,
        ));
    }
}

/// Runs one scenario under `seed`: boot and attach, a round of
/// traffic, the fault plan, a recovery window, a second round of
/// traffic, then the invariant checks.
pub fn run_scenario(name: &str, seed: u64, make_plan: &dyn Fn(&ChaosDeployment) -> FaultPlan) -> ScenarioResult {
    let mut dep = build_deployment(seed);

    // Boot: everyone discovers and attaches.
    dep.sim.run_for(Duration::from_secs(12));

    // Round 1 of traffic (exercises the pub/sub path before faults).
    for (i, &e) in dep.entities.iter().enumerate() {
        let topic = Topic::parse(&format!("chaos/round1/e{i}")).expect("valid topic");
        dep.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
    }
    dep.sim.run_for(Duration::from_secs(4));

    // The storm.
    let plan = make_plan(&dep);
    // FNV-1a over the plan's canonical description.
    let digest = fnv1a64_step(FNV_OFFSET, plan.describe().as_bytes());
    let faults = plan.len();
    let last_fault = plan.events().iter().map(|e| e.at).max().unwrap_or_default();
    dep.sim.apply_fault_plan(&plan);
    dep.sim.run_for(last_fault + Duration::from_secs(10));

    // Recovery: keepalives notice dead brokers (6 s), stranded retries
    // back off to a 15 s cap, heartbeats refresh 30 s leases.
    dep.sim.run_for(Duration::from_secs(75));

    // Round 2 of traffic against the healed deployment.
    for (i, &e) in dep.entities.iter().enumerate() {
        let topic = Topic::parse(&format!("chaos/round2/e{i}")).expect("valid topic");
        dep.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
    }
    dep.sim.run_for(Duration::from_secs(8));

    // Invariant 1: every entity attached to a live broker.
    let mut attached_ok = true;
    let mut attached_detail = String::new();
    for &e in &dep.entities {
        let entity = dep.sim.actor::<Entity>(e).expect("entity");
        let verdict = match entity.state() {
            EntityState::Attached(b) if dep.sim.is_up(b) => {
                format!("{}->{}", dep.sim.node_name(e), dep.sim.node_name(b))
            }
            EntityState::Attached(b) => {
                attached_ok = false;
                format!("{}->DOWN({})", dep.sim.node_name(e), dep.sim.node_name(b))
            }
            other => {
                attached_ok = false;
                format!("{}={:?}", dep.sim.node_name(e), other)
            }
        };
        if !attached_detail.is_empty() {
            attached_detail.push(' ');
        }
        attached_detail.push_str(&verdict);
    }

    // Invariant 2: no entity saw the same event id twice.
    let mut dedup_ok = true;
    let mut total = 0usize;
    let mut dupes = 0usize;
    for &e in &dep.entities {
        let entity = dep.sim.actor::<Entity>(e).expect("entity");
        let mut ids: Vec<String> =
            entity.received.iter().map(|ev| format!("{:?}", ev.id)).collect();
        let n = ids.len();
        total += n;
        ids.sort();
        ids.dedup();
        if ids.len() != n {
            dedup_ok = false;
            dupes += n - ids.len();
        }
    }
    let dedup_detail = format!("{total} deliveries, {dupes} duplicate ids");

    // Invariant 3: every attachment is backed by a live lease.
    let mut lease_ok = true;
    let mut lease_detail = String::new();
    let now = dep.sim.now();
    for &e in &dep.entities {
        let broker = dep.sim.actor::<Entity>(e).expect("entity").broker();
        let Some(b) = broker else { continue };
        let valid =
            dep.sim.actor::<Bdn>(dep.bdn).map(|bdn| bdn.lease_valid(b, now)).unwrap_or(false);
        if !valid {
            lease_ok = false;
            if !lease_detail.is_empty() {
                lease_detail.push(' ');
            }
            lease_detail.push_str(&format!(
                "{} attached to unleased {}",
                dep.sim.node_name(e),
                dep.sim.node_name(b)
            ));
        }
    }
    let bdn_actor = dep.sim.actor::<Bdn>(dep.bdn).expect("bdn actor");
    if lease_ok {
        lease_detail = format!("{} live leases", bdn_actor.live_entries(now));
    }

    let failovers: u64 = dep
        .entities
        .iter()
        .map(|&e| dep.sim.actor::<Entity>(e).expect("entity").failovers)
        .sum();
    let stats = dep.sim.stats();
    ScenarioResult {
        name: name.to_string(),
        seed,
        faults,
        plan_digest: digest,
        invariants: vec![
            InvariantResult { name: "attached", passed: attached_ok, detail: attached_detail },
            InvariantResult { name: "no_duplicates", passed: dedup_ok, detail: dedup_detail },
            InvariantResult { name: "fresh_leases", passed: lease_ok, detail: lease_detail },
        ],
        stats: ScenarioStats {
            failovers,
            stale_targets_skipped: bdn_actor.stale_targets_skipped,
            duplicate_requests: bdn_actor.duplicate_requests,
            // Live leases only (`live_entries`), so an entry whose lease
            // lapsed between sweep timers is never reported as present.
            registry_len: bdn_actor.live_entries(now),
            datagrams_duplicated: stats.datagrams_duplicated,
            datagrams_corrupted: stats.datagrams_corrupted,
            datagrams_reordered: stats.datagrams_reordered,
            unreachable_partitioned: stats.unreachable_partitioned,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_plan_bounces_everything() {
        let dep = build_deployment(7);
        let plan = acceptance_plan(&dep);
        // BDN crash+lossy restart, every broker crash+restart, one-way
        // flap (2 events), packet window (2 events).
        assert_eq!(plan.len(), 2 + 2 * N_BROKERS + 2 + 2);
        let text = plan.describe();
        assert!(text.contains("restart node=0 lose_state=true"), "BDN loses state:\n{text}");
    }

    #[test]
    fn scripted_scenario_passes_all_invariants() {
        let r = run_scenario("scripted_bdn_loss", 2005, &acceptance_plan);
        for inv in &r.invariants {
            assert!(inv.passed, "{} failed: {}", inv.name, inv.detail);
        }
        let stats = &r.stats;
        assert!(stats.failovers >= N_ENTITIES as u64, "every entity failed over: {stats:?}");
        assert_eq!(stats.registry_len, N_BROKERS, "all brokers re-leased after the wave");
        assert!(stats.datagrams_duplicated > 0, "the packet window injected duplicates");
    }
}
