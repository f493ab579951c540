//! `attach_geo` — a population attaching, open loop in virtual time on
//! `ShardedSim` (1 worker, 8 shards).
//!
//! A random-geometric WAN of [`BROKERS`] brokers in two regions, one
//! BDN per region, and [`ENTITIES`] entities that start on a fixed
//! 1.25 ms stagger whatever the backlog (an open loop: arrivals do not
//! wait for earlier attaches). Each entity runs discovery → shortlist →
//! ping → attach → subscribe. The BDNs inject each request at two
//! brokers and the region-scoped flood does the rest. The run stops at
//! a fixed horizon: boot + last start + [`DRAIN`].
//!
//! This is the population path: BDN inject queue, flood, responder,
//! broker client tables, one subscription *write* per entity with its
//! interest re-broadcast, and the LP engine's epoch machinery do the
//! work; steady-state event routing does none.
//!
//! The WAN itself is fixed ([`TOPOLOGY_SEED`]): a different graph is a
//! different deployment, not another sample of this one (events per
//! attach move 9 % between graphs). `--seed` drives the engine's RNG
//! (link jitter, request ids) and each entity's start jitter.

use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, ResponsePolicy, RetryPolicy,
};
use nb_net::topogen::{TopologyKind, TopologySpec};
use nb_net::{ClockProfile, LinkSpec, ShardedSim};
use nb_wire::{NodeId, RealmId, TopicFilter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::deploy::{engine_digest, mix, overlay_dials};
use crate::trace::{self, Layer};
use crate::workload::{timed_measure, timed_setups, HostSample, NetCounts, Outcome, Rep};

pub const BROKERS: usize = 100;
pub const REGIONS: usize = 2;
/// With the brokers and BDNs that makes 2 102 nodes — on purpose past
/// `nb_net::shard`'s 2 048-node switch from its all-pairs partition
/// planner to the sparse one: at 1 600 entities the planner alone makes
/// one set-up cost 0.30 s instead of 0.015 s.
pub const ENTITIES: usize = 2_000;
pub const TOPOLOGY_SEED: u64 = 2005;
/// Executor groups (fixed so the partition never depends on the host).
const SHARDS: usize = 8;
/// Brokers link up and advertise; BDNs fill their registries.
const BOOT: Duration = Duration::from_secs(5);
/// Gap between consecutive entity starts: each BDN sees every second
/// start, i.e. one request per 2.5 ms, 2.5× its injection service time.
const STAGGER: Duration = Duration::from_micros(1_250);
/// Virtual time allowed after the last start.
const DRAIN: Duration = Duration::from_secs(5);
/// Brokers per region a BDN injects each request at.
const INJECTION_POINTS: usize = 2;
/// Topics the population's filters are dealt from.
const TOPIC_POOL: usize = 256;
/// Set-ups per timed set-up sample: one takes ~10 ms, far below the
/// 0.25 s a host-time sample needs to be worth taking.
pub const SETUP_BATCH: u32 = 32;

struct Deployment {
    sim: ShardedSim,
    brokers: Vec<NodeId>,
    entities: Vec<NodeId>,
}

fn build(seed: u64, traced: bool, entities: usize) -> Deployment {
    let mut spec = TopologySpec::new(TopologyKind::RandomGeometric, BROKERS, TOPOLOGY_SEED);
    spec.regions = REGIONS;
    let topo = spec.generate();
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.set_workers(1);
    sim.set_shards(SHARDS);
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(25)).with_loss(0.0);

    // BDNs first (brokers advertise at their ids); injection lists are
    // patched in once broker ids exist.
    let bdn_cfg = |attached: Vec<NodeId>| BdnConfig {
        attached_brokers: attached,
        auto_attach: false,
        per_send_delay: Duration::from_micros(500),
        ad_ttl: Duration::from_secs(600),
        ping_interval: Duration::from_secs(120),
        ..BdnConfig::default()
    };
    let bdns: Vec<NodeId> = (0..topo.regions)
        .map(|r| {
            let actor = trace::boxed(traced, Layer::Bdn, Bdn::new(bdn_cfg(Vec::new())));
            sim.add_node(&format!("bdn{r}"), RealmId(r as u16), actor)
        })
        .collect();

    let dials = overlay_dials(&topo);
    let mut brokers: Vec<NodeId> = Vec::with_capacity(BROKERS);
    let mut injection: Vec<Vec<NodeId>> = vec![Vec::new(); topo.regions];
    for (i, dial) in dials.iter().enumerate() {
        let region = topo.region_of[i];
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors: dial.iter().map(|&j| brokers[j]).collect(),
            ..BrokerConfig::default()
        };
        let mut actor = DiscoveryBrokerActor::new(cfg, vec![bdns[region]], ResponsePolicy::open());
        actor.advertiser.set_readvertise(Duration::from_secs(120));
        let id = sim.add_node(
            &format!("b{i}"),
            RealmId(region as u16),
            trace::boxed(traced, Layer::Broker, actor),
        );
        if injection[region].len() < INJECTION_POINTS {
            injection[region].push(id);
        }
        brokers.push(id);
    }
    topo.install(sim.network_mut(), &brokers);
    for (r, &bdn) in bdns.iter().enumerate() {
        let attached = std::mem::take(&mut injection[r]);
        *sim.actor_mut::<Bdn>(bdn).expect("bdn actor") = Bdn::new(bdn_cfg(attached));
    }

    let discovery = DiscoveryConfig {
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
    };
    let mut starts = StdRng::seed_from_u64(seed);
    let entities: Vec<NodeId> = (0..entities)
        .map(|i| {
            let region = i % topo.regions;
            let mut cfg = discovery.clone();
            cfg.bdns = vec![bdns[region]];
            let filter = TopicFilter::parse(&format!("bench/t{}/**", i % TOPIC_POOL))
                .expect("pool filter parses");
            let mut entity = Entity::new(cfg, vec![filter]);
            entity.set_keepalive_interval(Duration::from_secs(60));
            entity.set_flush_interval(Duration::from_secs(2));
            entity.set_dedup_capacity(64, 64);
            let jitter = Duration::from_nanos(starts.gen_range(0..STAGGER.as_nanos() as u64));
            entity.set_start_delay(BOOT + STAGGER * i as u32 + jitter);
            sim.add_node(
                &format!("e{i}"),
                RealmId(region as u16),
                trace::boxed(traced, Layer::Entity, entity),
            )
        })
        .collect();
    Deployment {
        sim,
        brokers,
        entities,
    }
}

pub fn rep(seed: u64, traced: bool) -> Rep {
    rep_sized(seed, traced, ENTITIES, SETUP_BATCH)
}

/// [`rep`] for a population of `entities` with `setup_batch` set-ups in
/// its set-up sample.
pub fn rep_sized(seed: u64, traced: bool, entities: usize, setup_batch: u32) -> Rep {
    trace::span(trace::REP, || {
        let live0 = alloc::snapshot().live;
        let (mut dep, setup) = timed_setups(setup_batch, || {
            let mut dep = build(seed, traced, entities);
            trace::span(trace::ENGINE, || dep.sim.run_for(BOOT));
            dep
        });
        let setup_live_bytes = alloc::snapshot().live.saturating_sub(live0);

        let events0 = dep.sim.events_processed();
        let net0 = NetCounts::of(&dep.sim.stats());
        let a0 = alloc::snapshot();
        let horizon = STAGGER * entities as u32 + DRAIN;
        let measure = timed_measure(|| {
            trace::span(trace::ENGINE, || dep.sim.run_for(horizon));
        });
        let a1 = alloc::snapshot();

        let stats = dep.sim.stats();
        let mut out = Outcome {
            ops: entities as u64,
            events: dep.sim.events_processed() - events0,
            net: NetCounts::of(&stats).minus(&net0),
            latencies_us: Vec::with_capacity(entities),
            engine_digest: engine_digest(dep.sim.now(), dep.sim.events_processed(), &stats),
            ..Outcome::default()
        };
        for (i, &e) in dep.entities.iter().enumerate() {
            let entity = dep.sim.actor::<Entity>(e).expect("entity actor");
            let first = entity.discovery().completed.first();
            out.bdn_ops += u64::from(first.is_some_and(|o| o.bdn_used.is_some()));
            match (entity.state(), first) {
                (EntityState::Attached(b), Some(o)) if dep.sim.is_up(b) => {
                    out.latencies_us.push(o.phases.total().as_micros() as u64);
                    out.delivery_digest = mix(out.delivery_digest, u64::from(b.0));
                }
                (state, _) => out.fail(1, || {
                    format!("entity {i} ended {state:?}, not attached to a live broker")
                }),
            }
        }
        out.count_broker_dedup(
            dep.brokers
                .iter()
                .map(|&b| dep.sim.actor(b).expect("broker actor")),
        );
        out.latencies_us.sort_unstable();
        let host = HostSample {
            setup,
            setups: setup_batch,
            measure,
            allocs: a1.calls - a0.calls,
            alloc_bytes: a1.bytes - a0.bytes,
            setup_live_bytes,
        };
        Rep { host, outcome: out }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `TracedActor` must be invisible to the system: a traced and an
    /// untraced rep of one seed do the same work, event for event.
    #[test]
    fn traced_rep_matches_untraced() {
        let plain = rep_sized(7, false, 40, 1);
        trace::install(0);
        let traced = rep_sized(7, true, 40, 1);
        let collected = trace::uninstall();
        assert_eq!(plain.outcome.failed, 0, "{:?}", plain.outcome.failures);
        assert_eq!(plain.outcome, traced.outcome);
        // ... and the wrappers saw every event the engine dispatched.
        let handled = collected.measure.all_handlers().count;
        assert!(handled > 0 && handled <= plain.outcome.events);
    }

    #[test]
    fn same_seed_same_work_other_seed_other_work() {
        let a = rep_sized(7, false, 40, 1).outcome;
        assert_eq!(a, rep_sized(7, false, 40, 1).outcome);
        assert_ne!(
            a.engine_digest,
            rep_sized(8, false, 40, 1).outcome.engine_digest
        );
    }
}
