//! `repro scale` — the seeded WAN scale campaign (ROADMAP item 1's
//! population axis).
//!
//! The paper's evaluation stops at five sites and a handful of brokers;
//! this campaign drives the *same* protocol stack — BDN registration,
//! discovery, attach, pub/sub steady state — through the sharded engine
//! at 1e2–1e3 brokers and 1e3–1e5 entities (1e6 reachable via
//! `--entities`), over generated WAN topologies
//! ([`nb_net::topogen`]): the paper's star and linear shapes as
//! degenerate tiers, a random-geometric mesh, and a hierarchical
//! ISP-like shape with regional gateways.
//!
//! The report (`BENCH_scale.json`) is a [`CampaignReport`] with one row
//! per tier: a pure function of `(tier list, seed)` with **no
//! wall-clock fields**, so two invocations at any worker counts emit
//! byte-identical JSON — `repro gate scale` runs the campaign at 1 and
//! 4 workers and compares both with the committed bytes. Events/sec
//! goes to stdout only; the perf record is `BENCHMARK.json`
//! (`ops_per_s` on `attach_geo`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::campaign::{
    self, add_broker, plan_digest, CampaignReport, CampaignStats, InvariantResult, ScenarioResult,
    Testbed,
};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{
    Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, Network, RetryPolicy,
};
use nb_net::shard::BOUND_WORKERS;
use nb_net::topogen::{TopologyKind as WanKind, TopologySpec};
use nb_net::{ClockProfile, FaultPlan, LinkSpec, ShardedSim, SimTime};
use nb_wire::frame::DEFAULT_TTL;
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};

/// Topics the entity population shares; entity `i` subscribes to pool
/// slot `i % TOPIC_POOL`, so steady-state fan-out stays bounded as the
/// population grows.
pub const TOPIC_POOL: usize = 256;
/// One entity in `PUBLISH_EVERY` publishes during the steady-state
/// window (deterministic sample, prime so it cycles the topic pool).
pub const PUBLISH_EVERY: usize = 509;
/// Boot window before the first entity starts discovering.
const BOOT: Duration = Duration::from_secs(5);
/// Injection points per BDN (closest/farthest, paper §4); the overlay
/// flood carries the request to every other broker in the component.
const INJECTION_POINTS: usize = 2;
/// BDN pacing between queued injections.
const INJECT_SPACING: Duration = Duration::from_micros(500);
/// Minimum gap between two discovery requests landing on the same BDN
/// (2.5x the per-request injection service time, so the inject queue
/// stays stable at any population).
const PER_BDN_SPACING_US: u64 = 2_500;

/// Entity start stagger for a tier: entity `i` begins at
/// `BOOT + i·stagger`. Entities are dealt round-robin over regions, so
/// one BDN sees every `regions`-th start; the stagger is set so each
/// BDN's request inter-arrival stays at [`PER_BDN_SPACING_US`].
fn tier_stagger(regions: usize) -> Duration {
    Duration::from_micros((PER_BDN_SPACING_US / regions.max(1) as u64).max(100))
}
/// Attach-poll step; `time_to_all_attached_us` is quantised to it.
const POLL_STEP: Duration = Duration::from_secs(5);
/// Steady-state pub/sub window after the fleet is attached.
const STEADY_STATE: Duration = Duration::from_secs(10);
/// Attach polls abandoned after this many steps past the last start.
const MAX_EXTRA_POLLS: usize = 24;
/// Ceiling on the heap bytes a tier's build may retain per entity
/// (counting allocator; measured 4.2–6.4 KiB).
pub const MAX_MEM_BYTES_PER_ENTITY: u64 = 16_384;

/// One campaign tier: a topology family at a population.
#[derive(Debug, Clone, Copy)]
pub struct TierSpec {
    /// Tier name (JSON + stdout row label).
    pub name: &'static str,
    /// Generator family.
    pub kind: WanKind,
    /// Broker count.
    pub brokers: usize,
    /// Entity count.
    pub entities: usize,
}

/// The tiers `--tier small|large|all` selects: `small` the gate tiers
/// (the degenerate shapes plus the 1e4-entity mesh), `large` the
/// acceptance tier (1e3 brokers / 1e5 entities, ISP-shaped), `all`
/// both; `None` for any other name.
pub fn default_tiers(selection: &str) -> Option<Vec<TierSpec>> {
    let small = [
        TierSpec { name: "star_1e2_2e3", kind: WanKind::Star, brokers: 100, entities: 2_000 },
        TierSpec { name: "linear_1e2_2e3", kind: WanKind::Linear, brokers: 100, entities: 2_000 },
        TierSpec {
            name: "geo_1e2_1e4",
            kind: WanKind::RandomGeometric,
            brokers: 100,
            entities: 10_000,
        },
    ];
    let large = [TierSpec {
        name: "isp_1e3_1e5",
        kind: WanKind::HierarchicalIsp,
        brokers: 1_000,
        entities: 100_000,
    }];
    match selection {
        "small" => Some(small.to_vec()),
        "large" => Some(large.to_vec()),
        "all" => Some(small.iter().chain(&large).copied().collect()),
        _ => None,
    }
}

/// Describes one tier, with its topology's digest: one BDN per region,
/// injecting at the region's first [`INJECTION_POINTS`] brokers (the
/// overlay flood reaches the rest), then the region-scoped broker
/// overlay (each broker advertises to its region's BDN only), then the
/// entity fleet with staggered starts and stretched cadences.
pub fn describe_tier(spec: &TierSpec, seed: u64) -> (Testbed<Deployment>, u64) {
    let topo = TopologySpec::new(spec.kind, spec.brokers, seed).generate();
    let (topology_digest, regions) = (topo.digest(), topo.regions);
    let id = |i: usize| NodeId(i as u32);
    let bdns: Vec<NodeId> = (0..regions).map(id).collect();
    let brokers: Vec<NodeId> = (regions..regions + spec.brokers).map(id).collect();
    let (dials, region_of) = (topo.overlay_dials(), topo.region_of.clone());
    let intra = LinkSpec::lan().with_loss(0.0);
    let inter = LinkSpec::wan(Duration::from_millis(25)).with_loss(0.0);
    let network = Network::Realms { intra, inter, wan: Some((topo, brokers.clone())) };
    let mut d = Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network };

    for r in 0..regions {
        let in_region = brokers.iter().zip(&region_of).filter(|&(_, &g)| g == r);
        let cfg = BdnConfig {
            attached_brokers: in_region.map(|(&b, _)| b).take(INJECTION_POINTS).collect(),
            auto_attach: false,
            per_send_delay: INJECT_SPACING,
            ad_ttl: Duration::from_secs(600),
            ping_interval: Duration::from_secs(120),
            ..BdnConfig::default()
        };
        d.add(format!("bdn{r}"), RealmId(r as u16), false, move || Box::new(Bdn::new(cfg.clone())));
    }

    // The region-scoped broker overlay; cross-region edges are network
    // links only.
    for (i, (dials, &region)) in dials.iter().zip(&region_of).enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let (realm, bdns) = (RealmId(region as u16), vec![bdns[region]]);
        add_broker(&mut d, i, realm, false, neighbors, bdns, Duration::from_secs(120));
    }

    let discovery = Arc::new(DiscoveryConfig {
        collection_window: Duration::from_millis(600),
        max_responses: 6,
        target_set_size: 2,
        ping_count: 1,
        ping_window: Duration::from_millis(300),
        ack_timeout: Duration::from_millis(800),
        retransmits_per_bdn: 2,
        multicast_enabled: false,
        backoff: Some(RetryPolicy::new(
            Duration::from_millis(500),
            2.0,
            Duration::from_secs(8),
            0.2,
        )),
        ..DiscoveryConfig::default()
    });
    let entities: Vec<NodeId> = (0..spec.entities)
        .map(|i| {
            let region = i % regions;
            let (discovery, bdn) = (Arc::clone(&discovery), bdns[region]);
            d.add(format!("e{i}"), RealmId(region as u16), false, move || {
                let mut cfg = DiscoveryConfig::clone(&discovery);
                cfg.bdns = vec![bdn];
                let filter = TopicFilter::parse(&format!("scale/t{}/**", i % TOPIC_POOL))
                    .expect("pool filter parses");
                let mut entity = Entity::new(cfg, vec![filter]);
                entity.set_keepalive_interval(Duration::from_secs(60));
                entity.set_flush_interval(Duration::from_secs(2));
                entity.set_dedup_capacity(64, 64);
                entity.set_start_delay(BOOT + tier_stagger(regions) * i as u32);
                Box::new(entity)
            })
        })
        .collect();

    (Testbed { sim: d, bdns, brokers, entities }, topology_digest)
}

/// One tier ([`describe_tier`]) built on the sharded engine.
pub fn build_tier(spec: &TierSpec, seed: u64) -> Testbed<ShardedSim> {
    describe_tier(spec, seed).0.build(ShardedSim::with_clock_profile)
}

/// One tier's columns, the `stats` of its campaign row. Wall time is
/// carried for stdout but never serialised — the JSON stays a pure
/// function of the seed.
#[derive(Debug, Clone)]
pub struct TierOutcome {
    /// Generator family name.
    pub topology: &'static str,
    /// Broker count.
    pub brokers: usize,
    /// Entity count.
    pub entities: usize,
    /// Regions (realms/BDNs).
    pub regions: usize,
    /// Topology digest (structure witness).
    pub topology_digest: u64,
    /// Engine run digest ([`ShardedSim::digest`]); the byte-compare gate
    /// rests on this field being worker-count-invariant.
    pub digest: u64,
    /// Engine events processed.
    pub events: u64,
    /// [`ShardedSim::parallel_bound_milli`]: the speed-up, in
    /// thousandths, that 1, 2, 4 and 8 workers reach if a barrier costs
    /// nothing. Counted from events, so worker-count-invariant.
    pub parallel_bound_milli: [u64; 4],
    /// Entities attached to a live broker at the end.
    pub attached: usize,
    /// Virtual µs until every entity was attached (quantised to the
    /// poll step); 0 when the fleet never fully attached.
    pub time_to_all_attached_us: u64,
    /// Discovery-latency percentiles over completed first discoveries,
    /// virtual µs.
    pub discovery_p50_us: u64,
    /// 99th percentile.
    pub discovery_p99_us: u64,
    /// 99.9th percentile.
    pub discovery_p999_us: u64,
    /// First discoveries completed (percentile sample size).
    pub discoveries: usize,
    /// Steady-state publishes issued.
    pub publishes: u64,
    /// Steady-state events delivered to subscribers.
    pub deliveries: u64,
    /// Entity failovers (should be 0 — nothing faults in this campaign).
    pub failovers: u64,
    /// Network payload bytes delivered, divided by the entity count.
    pub wire_bytes_per_entity: u64,
    /// Heap bytes the deployment build retained once the engine shed its
    /// node table's growth slack, divided by the entity count (counting
    /// allocator; 0 when not installed). The duplicate
    /// caches grow after the build; `dedup_bytes_per_entity` has them.
    pub mem_bytes_per_entity: u64,
    /// Heap bytes every node's duplicate caches hold after the run
    /// ([`nb_util::BoundedDedup::heap_bytes`]), divided by the entity
    /// count: brokers' last-1000 caches (events and requests alike),
    /// BDNs', entities'.
    pub dedup_bytes_per_entity: u64,
    /// Whether the counting allocator was active for the memory column.
    pub alloc_counting: bool,
    /// Wall milliseconds for the whole tier (stdout only).
    pub wall_ms: f64,
}

impl TierOutcome {
    /// Peak engine throughput for the stdout table.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 { self.events as f64 / (self.wall_ms / 1e3) } else { 0.0 }
    }
}

impl CampaignStats for TierOutcome {
    const CAMPAIGN: &'static str = "scale";

    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "     \"stats\": {{\"topology\": \"{}\", \"brokers\": {}, \"entities\": {}, \
             \"regions\": {},\n",
            self.topology, self.brokers, self.entities, self.regions
        ));
        out.push_str(&format!(
            "       \"topology_digest\": \"{:016x}\", \"digest\": \"{:016x}\", \"events\": {},\n",
            self.topology_digest, self.digest, self.events
        ));
        let bound: Vec<String> = BOUND_WORKERS
            .iter()
            .zip(self.parallel_bound_milli)
            .map(|(w, milli)| format!("\"w{w}\": {milli}"))
            .collect();
        out.push_str(&format!("       \"parallel_bound_milli\": {{{}}},\n", bound.join(", ")));
        out.push_str(&format!(
            "       \"attached\": {}, \"time_to_all_attached_us\": {}, \"failovers\": {},\n",
            self.attached, self.time_to_all_attached_us, self.failovers
        ));
        out.push_str(&format!(
            "       \"discovery_us\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}, \
             \"samples\": {}}},\n",
            self.discovery_p50_us, self.discovery_p99_us, self.discovery_p999_us, self.discoveries
        ));
        out.push_str(&format!(
            "       \"publishes\": {}, \"deliveries\": {},\n",
            self.publishes, self.deliveries
        ));
        out.push_str(&format!(
            "       \"wire_bytes_per_entity\": {}, \"mem_bytes_per_entity\": {}, \
             \"dedup_bytes_per_entity\": {}, \"alloc_counting\": {}}}",
            self.wire_bytes_per_entity,
            self.mem_bytes_per_entity,
            self.dedup_bytes_per_entity,
            self.alloc_counting
        ));
    }
}

fn percentile(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) * num) / den;
    sorted[idx]
}

/// Runs one tier ([`describe_tier`]) at `workers` event workers; see
/// [`run_description`].
pub fn run_tier(spec: &TierSpec, seed: u64, workers: usize) -> ScenarioResult<TierOutcome> {
    run_description(spec, seed, workers, || describe_tier(spec, seed))
}

/// `answered_once`: every broker answered every request its region's
/// BDN (the BDN in its realm) injected exactly once if the request's
/// TTL reaches it — at most [`DEFAULT_TTL`] overlay hops from an
/// injection point — and never otherwise. Nothing faults in a tier, so
/// each broker is live for every request; its responder's last-1000
/// cache answers a request at most once, so a broker whose answers
/// number its region's requests answered each of them once.
fn answered_once(tb: &Testbed<ShardedSim>) -> InvariantResult {
    let sim = &tb.sim;
    let broker = |b: NodeId| sim.actor::<DiscoveryBrokerActor>(b).expect("broker");
    let bdn = |d: NodeId| sim.actor::<Bdn>(d).expect("bdn");
    // The overlay: each broker's dials, both ways.
    let mut adjacent: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &b in &tb.brokers {
        for &n in &broker(b).broker.config().neighbors {
            adjacent.entry(b).or_default().push(n);
            adjacent.entry(n).or_default().push(b);
        }
    }
    let mut queue: VecDeque<NodeId> =
        tb.bdns.iter().flat_map(|&d| bdn(d).attached_brokers()).copied().collect();
    let mut hops: BTreeMap<NodeId, u8> = queue.iter().map(|&b| (b, 0)).collect();
    while let Some(b) = queue.pop_front() {
        let next = hops[&b] + 1;
        for &n in adjacent.get(&b).into_iter().flatten() {
            if next <= DEFAULT_TTL && !hops.contains_key(&n) {
                hops.insert(n, next);
                queue.push_back(n);
            }
        }
    }
    let realm = |node: NodeId| sim.network().realm_of(node);
    let (mut answers, mut requests, mut off) = (0u64, 0u64, 0usize);
    for &b in &tb.brokers {
        let region = tb.bdns.iter().filter(|&&d| realm(d) == realm(b));
        let asked: u64 = region.map(|&d| bdn(d).requests_handled).sum();
        let asked = if hops.contains_key(&b) { asked } else { 0 };
        let answered = broker(b).responder.responses_sent;
        (answers, requests) = (answers + answered, requests + asked);
        off += usize::from(answered != asked);
    }
    let beyond = tb.brokers.len() - hops.len();
    InvariantResult {
        name: "answered_once",
        passed: off == 0,
        detail: format!(
            "{answers} answers to {requests} broker-requests; {off} of {} brokers off, \
             {beyond} beyond the {DEFAULT_TTL}-hop TTL",
            tb.brokers.len()
        ),
    }
}

/// Runs the tier `describe` returns, with its topology digest, at
/// `workers` event workers, as a campaign row with an empty fault plan
/// and four invariants: `attached` (the whole fleet), `no_failovers`
/// (nothing faults here), `answered_once` and `heap_ceiling`
/// ([`MAX_MEM_BYTES_PER_ENTITY`]). `spec` names the row and sizes its
/// per-entity columns; the heap column counts from before `describe`
/// runs to after the build has shed its growth slack
/// ([`ShardedSim::shed_slack`]), which is why the description comes as a
/// function. Every reported field except `wall_ms` is
/// virtual-time-derived or taken before workers spawn, and therefore
/// identical for every worker count — that is the campaign's
/// determinism contract.
pub fn run_description(
    spec: &TierSpec,
    seed: u64,
    workers: usize,
    describe: impl FnOnce() -> (Testbed<Deployment>, u64),
) -> ScenarioResult<TierOutcome> {
    let wall = Instant::now();
    // The topic-segment interner is process-wide and never shrinks. A
    // throwaway build interns every segment this build will, so the
    // interner adds nothing to the heap column whatever ran earlier in
    // the process (`repro gate` runs the campaign twice in one). The
    // column also needs no other thread to free heap while it is
    // measured: every worker pool joins its threads, thread-local
    // destructors included, before its run returns.
    drop(build_tier(&TierSpec { brokers: 1, entities: TOPIC_POOL, ..*spec }, seed));
    let live0 = crate::alloc::live_bytes();
    let (tier, topology_digest) = describe();
    let mut dep = tier.build(ShardedSim::with_clock_profile);
    dep.sim.shed_slack();
    let live1 = crate::alloc::live_bytes();
    let alloc_counting = live1 > live0;
    dep.sim.set_workers(workers.max(1));

    // Boot: brokers link up and advertise; BDNs fill their registries.
    dep.sim.run_for(BOOT);

    // Attach: poll in fixed steps until the fleet is attached. The last
    // entity starts at BOOT + entities·STAGGER; allow a bounded number
    // of extra polls past that before giving up.
    let last_start = BOOT + tier_stagger(dep.bdns.len()) * spec.entities as u32;
    let mut polls_past_start = 0usize;
    let mut attached;
    loop {
        dep.sim.run_for(POLL_STEP);
        let live = |e: &&NodeId| {
            matches!(dep.entity(**e).state(), EntityState::Attached(b) if dep.sim.is_up(b))
        };
        attached = dep.entities.iter().filter(live).count();
        if attached == dep.entities.len() {
            break;
        }
        if dep.sim.now() >= SimTime::ZERO + last_start {
            polls_past_start += 1;
            if polls_past_start > MAX_EXTRA_POLLS {
                break;
            }
        }
    }
    let time_to_all_attached_us =
        if attached == dep.entities.len() { dep.sim.now().as_micros() } else { 0 };

    // Steady state: a deterministic sample of the fleet publishes one
    // event each; subscribers sharing the topic slot receive it.
    let mut publishers = 0u64;
    for (i, &e) in dep.entities.iter().enumerate() {
        if i % PUBLISH_EVERY != 0 {
            continue;
        }
        publishers += 1;
        let topic = Topic::parse(&format!("scale/t{}/e{i}", i % TOPIC_POOL))
            .expect("pool topic parses");
        dep.sim
            .actor_mut::<Entity>(e)
            .expect("entity")
            .queue_publish(topic, vec![0xA5; 32]);
    }
    dep.sim.run_for(STEADY_STATE);

    // Harvest. Iterations run in node-id order, so every fold below is
    // deterministic.
    let mut latencies: Vec<u64> = Vec::with_capacity(dep.entities.len());
    let mut publishes = 0u64;
    let mut deliveries = 0u64;
    let mut failovers = 0u64;
    for &e in &dep.entities {
        let entity = dep.entity(e);
        if let Some(outcome) = entity.discovery().completed.first() {
            latencies.push(outcome.phases.total().as_micros() as u64);
        }
        publishes += entity.published;
        deliveries += entity.received.len() as u64;
        failovers += entity.failovers;
    }
    latencies.sort_unstable();
    let sim = &dep.sim;
    let broker_cache = |&b: &NodeId| sim.actor::<DiscoveryBrokerActor>(b).expect("broker").broker.dedup_bytes();
    let dedup_bytes = dep.brokers.iter().map(broker_cache).sum::<usize>()
        + dep.bdns.iter().map(|&d| sim.actor::<Bdn>(d).expect("bdn").dedup_bytes()).sum::<usize>()
        + dep.entities.iter().map(|&e| dep.entity(e).dedup_bytes()).sum::<usize>();
    let stats = dep.sim.stats();
    debug_assert!(publishes >= publishers, "queued publishes must flush");
    let mem_bytes_per_entity = live1.saturating_sub(live0) / spec.entities.max(1) as u64;
    let invariants = vec![
        InvariantResult {
            name: "attached",
            passed: attached == spec.entities,
            detail: format!("{attached}/{} entities attached", spec.entities),
        },
        InvariantResult {
            name: "no_failovers",
            passed: failovers == 0,
            detail: format!("{failovers} failovers"),
        },
        answered_once(&dep),
        InvariantResult {
            name: "heap_ceiling",
            passed: mem_bytes_per_entity <= MAX_MEM_BYTES_PER_ENTITY,
            detail: format!(
                "{mem_bytes_per_entity} heap bytes/entity, ceiling {MAX_MEM_BYTES_PER_ENTITY}"
            ),
        },
    ];
    ScenarioResult {
        name: spec.name.to_string(),
        seed,
        faults: 0,
        plan_digest: plan_digest(&FaultPlan::new()),
        invariants,
        stats: TierOutcome {
            topology: spec.kind.name(),
            brokers: spec.brokers,
            entities: spec.entities,
            regions: dep.bdns.len(),
            topology_digest,
            digest: dep.sim.digest(),
            events: dep.sim.events_processed(),
            parallel_bound_milli: dep.sim.parallel_bound_milli(),
            attached,
            time_to_all_attached_us,
            discovery_p50_us: percentile(&latencies, 50, 100),
            discovery_p99_us: percentile(&latencies, 99, 100),
            discovery_p999_us: percentile(&latencies, 999, 1000),
            discoveries: latencies.len(),
            publishes,
            deliveries,
            failovers,
            wire_bytes_per_entity: stats.bytes_delivered / spec.entities.max(1) as u64,
            mem_bytes_per_entity,
            dedup_bytes_per_entity: dedup_bytes as u64 / spec.entities.max(1) as u64,
            alloc_counting,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        },
    }
}

/// Runs the campaign: one row per tier, in order, each on `workers`
/// event workers. Tiers run one after another, never side by side,
/// because the heap column reads the process-wide allocator.
pub fn run_campaign(tiers: &[TierSpec], seed: u64, workers: usize) -> CampaignReport<TierOutcome> {
    campaign::run_campaign(seed, tiers.len(), 1, |seed, i| run_tier(&tiers[i], seed, workers))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny tier the test suite can afford.
    fn smoke_tier() -> TierSpec {
        TierSpec { name: "smoke", kind: WanKind::RandomGeometric, brokers: 20, entities: 60 }
    }

    #[test]
    fn smoke_tier_attaches_and_is_deterministic() {
        let spec = smoke_tier();
        let row = run_tier(&spec, 2005, 1);
        assert!(row.passed(), "{:?}", row.invariants);
        let a = row.stats;
        assert_eq!(a.attached, spec.entities, "fleet must fully attach");
        assert!(a.time_to_all_attached_us > 0);
        assert_eq!(a.discoveries, spec.entities);
        assert!(a.discovery_p50_us > 0);
        assert!(a.discovery_p50_us <= a.discovery_p99_us);
        assert!(a.discovery_p99_us <= a.discovery_p999_us);
        assert_eq!(a.failovers, 0);
        let b = run_tier(&spec, 2005, 2).stats;
        assert_eq!(a.digest, b.digest, "digest must not move with the worker count");
        assert_eq!(a.events, b.events);
        assert_eq!(a.parallel_bound_milli, b.parallel_bound_milli, "the bound counts events only");
        assert_eq!(a.parallel_bound_milli[0], 1000, "one worker runs every event itself");
        assert_eq!(a.time_to_all_attached_us, b.time_to_all_attached_us);
        assert_eq!(
            (a.discovery_p50_us, a.discovery_p99_us, a.discovery_p999_us),
            (b.discovery_p50_us, b.discovery_p99_us, b.discovery_p999_us)
        );
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.wire_bytes_per_entity, b.wire_bytes_per_entity);
        assert_eq!(a.dedup_bytes_per_entity, b.dedup_bytes_per_entity);
        assert!(a.dedup_bytes_per_entity > 0, "every node holds a duplicate cache");
    }

    #[test]
    fn steady_state_delivers_to_topic_sharers() {
        // 300 entities, PUBLISH_EVERY=509 → exactly one publisher (e0),
        // on pool slot 0, which entities 0 and 256 subscribe.
        let spec =
            TierSpec { name: "pubsub", kind: WanKind::Star, brokers: 10, entities: 300 };
        let out = run_tier(&spec, 7, 1).stats;
        assert_eq!(out.attached, spec.entities);
        assert!(out.publishes >= 1, "the sampled publisher must flush");
        assert!(out.deliveries >= 1, "topic sharers must receive the publish");
    }

    #[test]
    fn report_json_is_wall_free_and_balanced() {
        let spec = smoke_tier();
        let report = run_campaign(&[spec], 3, 1);
        let json = report.to_json();
        assert!(json.contains("\"campaign\": \"scale\""));
        assert!(json.contains("\"heap_ceiling\""));
        assert!(json.contains("\"parallel_bound_milli\": {\"w1\": 1000, \"w2\": "));
        assert!(!json.contains("wall"), "wall-clock fields must stay out of the report");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
