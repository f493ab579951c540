//! `repro chaos` — seeded fault-injection campaigns over a live
//! deployment.
//!
//! Each scenario ([`scenario`]) boots the testbed ([`describe_testbed`]
//! with one BDN: six brokers on a star overlay spread across three
//! realms and four publishing and subscribing entities), runs a fault
//! plan and a recovery window, and then checks three invariants
//! ([`check`]):
//!
//! 1. **attached** — every entity ends the run attached to a live
//!    broker (§1.2: the environment is fluid, but discovery must always
//!    re-converge once faults stop),
//! 2. **no-duplicates** — no entity that attached once was handed the
//!    same event twice, even under packet-duplication windows (the
//!    brokers' caches hold); a repeat at an entity that re-attached is
//!    reported, since its old broker may still forward for a while,
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

use crate::campaign::{add_broker, plan_digest, CampaignStats, InvariantResult, ScenarioResult, Testbed};
use nb_broker::{Topology, TopologyKind};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{Deployment, DiscoveryConfig, Entity, EntityState, Network, RetryPolicy};
use nb_net::{ChaosProfile, ChaosTargets, ClockProfile, FaultPlan, LinkSpec, PacketFaults};
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};

/// Brokers in the testbed.
pub const N_BROKERS: usize = 6;
/// Entities in the testbed.
pub const N_ENTITIES: usize = 4;
/// Realms the testbed's nodes are spread over.
const N_REALMS: u16 = 3;
/// Topic prefix the entities subscribe and publish under.
pub const PREFIX: &str = "chaos";
/// Recovery window between the fault plan's tail and the second round
/// of traffic: keepalives notice dead brokers (6 s), stranded retries
/// back off to a 15 s cap, heartbeats refresh 30 s leases.
const RECOVERY: Duration = Duration::from_secs(75);
/// Scenario 0's name.
const SCRIPTED: &str = "scripted_bdn_loss";
/// Horizon handed to [`FaultPlan::generate`] for generated scenarios.
const GEN_HORIZON: Duration = Duration::from_secs(90);

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

impl CampaignStats for ScenarioStats {
    const CAMPAIGN: &'static str = "chaos";

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

/// Describes the testbed: `bdns` BDNs (30 s leases), six brokers on a
/// star over three realms re-advertising every 10 s — three times a
/// lease — directly to their own realm's BDN (BDN `i` is in realm `i`;
/// with one BDN, to it), and four entities subscribed to `PREFIX/**`
/// (backoff discovery; a home BDN each, the others after it). A BDN
/// learns the other realms' brokers on the advertisement topic. A lossy
/// restart rebuilds a BDN or broker from configuration alone.
pub fn describe_testbed(seed: u64, n_bdns: usize) -> Testbed<Deployment> {
    let intra = LinkSpec::lan().with_loss(0.0005);
    let inter = LinkSpec::wan(Duration::from_millis(12)).with_loss(0.001);
    let network = Network::Realms { intra, inter, wan: None };
    let mut d = Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
    let realm = |i: usize| RealmId(i as u16 % N_REALMS);
    let id = |i: usize| NodeId(i as u32);
    let bdns: Vec<NodeId> = (0..n_bdns).map(id).collect();
    let brokers: Vec<NodeId> = (n_bdns..n_bdns + N_BROKERS).map(id).collect();

    for i in 0..n_bdns {
        let cfg = BdnConfig {
            ad_ttl: Duration::from_secs(30),
            ping_interval: Duration::from_secs(5),
            ..BdnConfig::default()
        };
        d.add(format!("bdn{i}"), realm(i), true, move || Box::new(Bdn::new(cfg.clone())));
    }

    let topo = Topology::build(TopologyKind::Star, N_BROKERS);
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let home = vec![bdns[usize::from(realm(i).0) % n_bdns]];
        add_broker(&mut d, i, realm(i), true, neighbors, home, Duration::from_secs(10));
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
    let filter = TopicFilter::parse(&format!("{PREFIX}/**")).expect("valid filter");
    let entities: Vec<NodeId> = (0..N_ENTITIES)
        .map(|i| {
            // The home BDN first, then the others: the retry budget
            // ((retransmits+1) × BDNs) spans every BDN.
            let home = bdns[i % n_bdns];
            let rotation = std::iter::once(home).chain(bdns.iter().copied().filter(|&b| b != home));
            let cfg = DiscoveryConfig { bdns: rotation.collect(), ..discovery.clone() };
            let filter = filter.clone();
            d.add(format!("e{i}"), realm(i), false, move || {
                let mut entity = Entity::new(cfg.clone(), vec![filter.clone()]);
                let (base, cap) = (Duration::from_secs(2), Duration::from_secs(15));
                entity.set_retry_policy(RetryPolicy::new(base, 2.0, cap, 0.2));
                Box::new(entity)
            })
        })
        .collect();

    Testbed { sim: d, bdns, brokers, entities }
}

/// Scenario `i` under seed `base_seed + i`: boot and attach (12 s), a
/// round of publishes, the fault plan — scenario 0's scripted one, else
/// one drawn from [`FaultPlan::generate`] with every BDN, broker and
/// entity a target, alternating the light and heavy profiles — its tail
/// and the recovery window, a second round of publishes, then [`check`].
/// A pure function of `(base_seed, i)`, so scenarios shard across
/// workers without moving a report byte.
pub fn scenario(base_seed: u64, i: usize) -> ScenarioResult<ScenarioStats> {
    let seed = base_seed.wrapping_add(i as u64);
    let (name, profile) = match i {
        0 => (SCRIPTED, None),
        _ if i % 2 == 1 => ("generated_light", Some(ChaosProfile::light())),
        _ => ("generated_heavy", Some(ChaosProfile::heavy())),
    };
    let mut tb = describe_testbed(seed, 1).build();
    let publish = |tb: &mut Testbed, round: &str| {
        for (i, &e) in tb.entities.iter().enumerate() {
            let topic = Topic::parse(&format!("{PREFIX}/{round}/e{i}")).expect("valid topic");
            tb.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
        }
    };

    tb.sim.run_for(Duration::from_secs(12));
    publish(&mut tb, "round1");
    tb.sim.run_for(Duration::from_secs(4));

    let plan = match &profile {
        None => scripted_plan(&tb),
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
    tb.sim.run_for(RECOVERY);

    publish(&mut tb, "round2");
    tb.sim.run_for(Duration::from_secs(8));

    let (invariants, stats) = check(&mut tb);
    ScenarioResult {
        name: name.to_string(),
        seed,
        faults: plan.len(),
        plan_digest: plan_digest(&plan),
        invariants,
        stats,
    }
}

/// The `attached` invariant — every entity ends attached to a live
/// broker (§1.2: the environment is fluid, but discovery must
/// re-converge once faults stop) — with each entity's verdict.
fn attached(tb: &Testbed) -> InvariantResult {
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
    InvariantResult { name: "attached", passed, detail: verdicts.join(" ") }
}

/// The scripted acceptance plan: the BDN is crashed at t=10 s and
/// restarted with **state loss** at t=25 s (registry and attachments
/// gone — only broker heartbeats can repopulate it); every broker is
/// then bounced in a staggered 6 s wave (even indices lose state
/// too), so each entity's broker dies at some point and its
/// rediscovery must be served by the heartbeat-rebuilt registry. A
/// one-way WAN flap and an unruly packet window run over the tail.
pub fn scripted_plan<E>(tb: &Testbed<E>) -> FaultPlan {
    let bdn = tb.bdns[0];
    let mut plan = FaultPlan::new().crash_at(Duration::from_secs(10), bdn).restart_at(
        Duration::from_secs(25),
        bdn,
        true,
    );
    for (i, &b) in tb.brokers.iter().enumerate() {
        let down_at = Duration::from_secs(40 + 6 * i as u64);
        plan = plan
            .crash_at(down_at, b)
            .restart_at(down_at + Duration::from_secs(12), b, i % 2 == 0);
    }
    plan.one_way_flap_at(
        Duration::from_secs(60),
        tb.entities[0],
        tb.brokers[0],
        Duration::from_secs(10),
    )
    .packet_fault_window(
        Duration::from_secs(65),
        Duration::from_secs(15),
        PacketFaults::unruly(),
    )
    .sorted()
}

/// The three invariant verdicts and the counters once the second round
/// of traffic has landed.
pub fn check(tb: &mut Testbed) -> (Vec<InvariantResult>, ScenarioStats) {
    let attached = attached(tb);

    // An `Entity` keeps a repeat out of `received` and counts it, so
    // arrivals are judged, the re-attached only reported (see above).
    let (mut arrivals, mut repeats) = (0u64, 0u64);
    let (mut faults, mut after_failover) = (Vec::new(), Vec::new());
    for &e in &tb.entities {
        let entity = tb.entity(e);
        let n = entity.duplicates_dropped;
        arrivals += entity.received.len() as u64 + n;
        repeats += n;
        if n == 0 {
            continue;
        }
        let (name, attachments) = (tb.sim.node_name(e), &entity.attachments);
        if attachments.len() > 1 {
            after_failover.push(format!("{name} got {n} after {} attachments", attachments.len()));
        } else {
            let at = attachments.first().map_or("no broker", |&b| tb.sim.node_name(b));
            faults.push(format!("{name} got {n} at {at}"));
        }
    }
    let mut detail = format!("{arrivals} arrivals, {repeats} repeats");
    if !faults.is_empty() {
        detail.push_str(&format!("; attached once: {}", faults.join(", ")));
    }
    if !after_failover.is_empty() {
        detail.push_str(&format!("; re-attached: {}", after_failover.join(", ")));
    }
    let no_duplicates = InvariantResult { name: "no_duplicates", passed: faults.is_empty(), detail };

    // Every attachment is backed by a live lease.
    let now = tb.sim.now();
    let bdn = tb.sim.actor::<Bdn>(tb.bdns[0]).expect("bdn actor");
    let unleased: Vec<String> = tb
        .entities
        .iter()
        .filter_map(|&e| {
            let b = tb.entity(e).broker()?;
            (!bdn.lease_valid(b, now)).then(|| {
                format!("{} attached to unleased {}", tb.sim.node_name(e), tb.sim.node_name(b))
            })
        })
        .collect();
    let fresh_leases = InvariantResult {
        name: "fresh_leases",
        passed: unleased.is_empty(),
        detail: if unleased.is_empty() {
            format!("{} live leases", bdn.live_entries(now))
        } else {
            unleased.join(" ")
        },
    };

    let stats = tb.sim.stats();
    let stats = ScenarioStats {
        failovers: tb.failovers(),
        stale_targets_skipped: bdn.stale_targets_skipped,
        duplicate_requests: bdn.duplicate_requests,
        // Live leases only (`live_entries`), so an entry whose lease
        // lapsed between sweep timers is never reported as present.
        registry_len: bdn.live_entries(now),
        datagrams_duplicated: stats.datagrams_duplicated,
        datagrams_corrupted: stats.datagrams_corrupted,
        datagrams_reordered: stats.datagrams_reordered,
        unreachable_partitioned: stats.unreachable_partitioned,
    };
    (vec![attached, no_duplicates, fresh_leases], stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_plan_bounces_everything() {
        let plan = scripted_plan(&describe_testbed(7, 1));
        // BDN crash+lossy restart, every broker crash+restart, one-way
        // flap (2 events), packet window (2 events).
        assert_eq!(plan.len(), 2 + 2 * N_BROKERS + 2 + 2);
        let text = plan.describe();
        assert!(text.contains("restart node=0 lose_state=true"), "BDN loses state:\n{text}");
    }

    #[test]
    fn scripted_scenario_passes_all_invariants() {
        let r = scenario(2005, 0);
        assert_eq!(r.name, "scripted_bdn_loss");
        for inv in &r.invariants {
            assert!(inv.passed, "{} failed: {}", inv.name, inv.detail);
        }
        let stats = &r.stats;
        assert!(stats.failovers >= N_ENTITIES as u64, "every entity failed over: {stats:?}");
        assert_eq!(stats.registry_len, N_BROKERS, "all brokers re-leased after the wave");
        assert!(stats.datagrams_duplicated > 0, "the packet window injected duplicates");
    }
}
