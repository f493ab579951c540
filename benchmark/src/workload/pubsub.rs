//! `pubsub_v1` / `pubsub_v2` — the steady-state data plane, open loop
//! in virtual time on `Sim`.
//!
//! [`BROKERS`] brokers in one region over a fixed random-geometric
//! overlay; [`ENTITIES`] entities, each attached to one broker and
//! subscribed to one of [`FILTERS`] `bench/t{k}/**` filters (exactly
//! eight subscribers per filter, dealt over the brokers by the seed, so
//! most deliveries cross broker links first); [`PUBLISHERS`] publishers
//! that each emit [`EVENTS_PER_PUBLISHER`] 64-byte events at a fixed
//! virtual interval over [`TOPICS`] concrete topics — inside the
//! brokers' 1 024-entry match memo. An op is one delivery to one
//! subscriber; its latency runs from publish to arrival.
//!
//! Set-up is build + boot + every entity attaching and subscribing, to
//! quiescence. Entities attach through the client's cached-target path
//! (ping + connect to a pinned broker): BDN discovery is the business
//! of the other two workloads, and here it would only add a second
//! source of seed-to-seed variation.
//!
//! This is `Broker::route_event`'s memoized reads, `WireMsg::forward_hop`,
//! the link model and entity dedup. `pubsub_v2` is the same deployment,
//! traffic and seed with the v2 codec negotiated on broker links: a
//! codec change must move one of the pair and leave the other still.

use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile};
use nb_discovery::{DiscoveryBrokerActor, DiscoveryConfig, Entity, EntityState, ResponsePolicy};
use nb_net::topogen::{TopologyKind, TopologySpec};
use nb_net::{ClockProfile, Incoming, LinkSpec, Sim, WireV2Config};
use nb_util::Uuid;
use nb_wire::{NodeId, RealmId, Topic, TopicFilter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::deploy::{
    engine_digest, event_id, mix, overlay_dials, Probe, Publisher, FNV_OFFSET, PUBLISH_TICK,
};
use crate::trace::{self, Layer};
use crate::workload::{timed_measure, timed_setups, HostSample, NetCounts, Outcome, Rep};

pub const BROKERS: usize = 32;
pub const ENTITIES: usize = 2_048;
pub const FILTERS: usize = 256;
pub const TOPICS: usize = 512;
pub const PUBLISHERS: usize = 64;
/// Sized once so that eight `pubsub_v2` reps fit the run and one
/// `pubsub_v1` measure phase is still a quarter of a second: 2 816
/// events × 8 subscribers = 22 528 deliveries per rep.
pub const EVENTS_PER_PUBLISHER: usize = 44;
pub const TOPOLOGY_SEED: u64 = 2005;
/// Each publisher's fixed virtual inter-event gap (3 200 events/s in
/// all, a fraction of any one link's capacity: queues do not build).
const PUBLISH_INTERVAL: Duration = Duration::from_millis(20);
/// Entity starts are spread over the first second.
const START_GAP: Duration = Duration::from_micros(500);
/// Virtual time for the set-up to go quiet after the last start.
const SETTLE: Duration = Duration::from_secs(4);
/// Virtual time for in-flight events to land after the last publish.
const DRAIN: Duration = Duration::from_secs(2);
/// Set-ups per timed set-up sample: one takes ~0.2 s, two make a sample
/// worth timing.
const SETUP_BATCH: u32 = 2;

struct Deployment {
    sim: Sim,
    brokers: Vec<NodeId>,
    entities: Vec<NodeId>,
    publishers: Vec<NodeId>,
    /// `schedule[p][s]` is the topic index of publisher `p`'s event `s`.
    schedule: Vec<Vec<usize>>,
}

/// Filter index of concrete topic `t` (two topics per filter).
fn filter_of_topic(t: usize) -> usize {
    t % FILTERS
}

fn topic(t: usize) -> Topic {
    let leaf = if t < FILTERS { "a" } else { "b" };
    Topic::parse(&format!("bench/t{}/{leaf}", filter_of_topic(t))).expect("bench topic parses")
}

fn build(seed: u64, traced: bool, wire_v2: bool) -> Deployment {
    let mut spec = TopologySpec::new(TopologyKind::RandomGeometric, BROKERS, TOPOLOGY_SEED);
    spec.regions = 1;
    let topo = spec.generate();
    let mut sim = Sim::with_clock_profile(seed, ClockProfile::perfect());
    if wire_v2 {
        sim.set_wire_v2(Some(WireV2Config::default()));
    }
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);

    let dials = overlay_dials(&topo);
    let mut brokers: Vec<NodeId> = Vec::with_capacity(BROKERS);
    for (i, dial) in dials.iter().enumerate() {
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors: dial.iter().map(|&j| brokers[j]).collect(),
            wire_v2,
            ..BrokerConfig::default()
        };
        let actor = DiscoveryBrokerActor::new(cfg, Vec::new(), ResponsePolicy::open());
        brokers.push(sim.add_node(
            &format!("b{i}"),
            RealmId(0),
            trace::boxed(traced, Layer::Broker, actor),
        ));
    }
    topo.install(sim.network_mut(), &brokers);

    // The seed deals entities onto brokers (each broker gets the same
    // number) and draws every publisher's topic schedule.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut home: Vec<usize> = (0..ENTITIES).map(|i| i % BROKERS).collect();
    for i in (1..ENTITIES).rev() {
        home.swap(i, rng.gen_range(0..=i));
    }
    let entities: Vec<NodeId> = (0..ENTITIES)
        .map(|i| {
            let cfg = DiscoveryConfig {
                bdns: Vec::new(),
                multicast_enabled: false,
                cached_targets: vec![brokers[home[i]]],
                ping_count: 1,
                ping_window: Duration::from_millis(300),
                ..DiscoveryConfig::default()
            };
            let filter = TopicFilter::parse(&format!("bench/t{}/**", i % FILTERS))
                .expect("bench filter parses");
            let mut entity = Entity::new(cfg, vec![filter]);
            entity.set_keepalive_interval(Duration::from_secs(60));
            entity.set_flush_interval(Duration::from_secs(60));
            // The scale campaign's population setting: the default
            // 1000-id cache is 40 KB an entity, 2 048 times over.
            entity.set_dedup_capacity(64, 64);
            entity.set_start_delay(START_GAP * i as u32);
            sim.add_node(
                &format!("e{i}"),
                RealmId(0),
                trace::boxed(traced, Layer::Entity, Probe::new(entity)),
            )
        })
        .collect();

    let schedule: Vec<Vec<usize>> = (0..PUBLISHERS)
        .map(|_| {
            (0..EVENTS_PER_PUBLISHER)
                .map(|_| rng.gen_range(0..TOPICS))
                .collect()
        })
        .collect();
    let topics: Vec<Topic> = (0..TOPICS).map(topic).collect();
    let publishers: Vec<NodeId> = schedule
        .iter()
        .enumerate()
        .map(|(p, topic_ids)| {
            let actor = Publisher::new(
                p,
                brokers[p % BROKERS],
                PUBLISH_INTERVAL,
                topic_ids.iter().map(|&t| topics[t].clone()).collect(),
            );
            sim.add_node(
                &format!("p{p}"),
                RealmId(0),
                trace::boxed(traced, Layer::Harness, actor),
            )
        })
        .collect();
    Deployment {
        sim,
        brokers,
        entities,
        publishers,
        schedule,
    }
}

/// One (subscriber, event id) pair's contribution to the delivery
/// digest. Contributions are summed, so the digest is of the multiset:
/// arrival order, which the codec may change, does not enter.
fn pair_hash(entity: usize, id: Uuid) -> u64 {
    let id = id.as_u128();
    mix(
        mix(mix(FNV_OFFSET, entity as u64), id as u64),
        (id >> 64) as u64,
    )
}

/// What the subscription assignment and the schedule say must arrive:
/// per-entity delivery counts and the multiset digest.
fn oracle(schedule: &[Vec<usize>]) -> (Vec<u64>, u64) {
    let mut per_entity = vec![0u64; ENTITIES];
    let mut digest = 0u64;
    for (p, topic_ids) in schedule.iter().enumerate() {
        for (s, &t) in topic_ids.iter().enumerate() {
            let id = event_id(p, s);
            for e in (filter_of_topic(t)..ENTITIES).step_by(FILTERS) {
                per_entity[e] += 1;
                digest = digest.wrapping_add(pair_hash(e, id));
            }
        }
    }
    (per_entity, digest)
}

pub fn rep(seed: u64, traced: bool, wire_v2: bool) -> Rep {
    trace::span(trace::REP, || {
        let live0 = alloc::snapshot().live;
        let (mut dep, setup) = timed_setups(SETUP_BATCH, || {
            let mut dep = build(seed, traced, wire_v2);
            let settle = START_GAP * ENTITIES as u32 + SETTLE;
            trace::span(trace::ENGINE, || dep.sim.run_for(settle));
            dep
        });
        let setup_live_bytes = alloc::snapshot().live.saturating_sub(live0);

        let events0 = dep.sim.events_processed();
        let net0 = NetCounts::of(dep.sim.stats());
        let a0 = alloc::snapshot();
        let horizon = PUBLISH_INTERVAL * EVENTS_PER_PUBLISHER as u32 + DRAIN;
        let measure = timed_measure(|| {
            // Publishers' first events are spread over one interval so
            // the offered load is smooth from the start.
            trace::span(trace::HARNESS, || {
                for (p, &node) in dep.publishers.iter().enumerate() {
                    let offset = PUBLISH_INTERVAL * p as u32 / PUBLISHERS as u32;
                    let kick = Incoming::Timer {
                        token: PUBLISH_TICK,
                    };
                    dep.sim.inject(node, offset, kick);
                }
            });
            trace::span(trace::ENGINE, || dep.sim.run_for(horizon));
        });
        let a1 = alloc::snapshot();

        let (expected, expected_digest) = oracle(&dep.schedule);
        let mut out = Outcome {
            ops: expected.iter().sum(),
            events: dep.sim.events_processed() - events0,
            net: NetCounts::of(dep.sim.stats()).minus(&net0),
            latencies_us: Vec::with_capacity(expected.iter().sum::<u64>() as usize),
            engine_digest: engine_digest(
                dep.sim.now(),
                dep.sim.events_processed(),
                dep.sim.stats(),
            ),
            ..Outcome::default()
        };
        for (i, &e) in dep.entities.iter().enumerate() {
            let probe = dep.sim.actor::<Probe>(e).expect("probe actor");
            let got = probe.entity.received.len() as u64;
            let attached =
                matches!(probe.entity.state(), EntityState::Attached(b) if dep.sim.is_up(b));
            let wrong = got.abs_diff(expected[i]) + probe.entity.duplicates_dropped;
            if wrong > 0 || !attached {
                out.fail(wrong.max(1), || {
                    format!(
                        "entity {i}: {got} deliveries, {} expected, {} duplicates, attached: {attached}",
                        expected[i], probe.entity.duplicates_dropped
                    )
                });
            }
            for ev in &probe.entity.received {
                out.delivery_digest = out.delivery_digest.wrapping_add(pair_hash(i, ev.id));
            }
            out.duplicates_dropped += probe.entity.duplicates_dropped;
            out.dedup_admitted += got;
            out.latencies_us
                .extend(probe.latencies_us.iter().map(|&l| u64::from(l)));
        }
        if out.failed == 0 && out.delivery_digest != expected_digest {
            let got = out.delivery_digest;
            out.fail(1, || {
                format!("delivery digest {got:016x} != oracle {expected_digest:016x}")
            });
        }
        for (p, &node) in dep.publishers.iter().enumerate() {
            let sent = dep
                .sim
                .actor::<Publisher>(node)
                .expect("publisher actor")
                .sent;
            if sent != EVENTS_PER_PUBLISHER {
                out.fail(1, || format!("publisher {p} sent {sent} events"));
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
            setups: SETUP_BATCH,
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

    #[test]
    fn every_filter_has_eight_subscribers_and_two_topics() {
        let schedule = vec![(0..TOPICS).collect::<Vec<_>>()];
        let (per_entity, _) = oracle(&schedule);
        // One event on each topic: each entity's filter has two topics.
        assert!(per_entity.iter().all(|&n| n == 2));
        assert_eq!(
            per_entity.iter().sum::<u64>(),
            (TOPICS * ENTITIES / FILTERS) as u64
        );
        for t in 0..TOPICS {
            let f = TopicFilter::parse(&format!("bench/t{}/**", filter_of_topic(t))).unwrap();
            assert!(f.matches(&topic(t)));
        }
    }

    #[test]
    fn delivery_digest_ignores_order_but_not_content() {
        let a = pair_hash(1, event_id(0, 0)).wrapping_add(pair_hash(2, event_id(0, 1)));
        let b = pair_hash(2, event_id(0, 1)).wrapping_add(pair_hash(1, event_id(0, 0)));
        assert_eq!(a, b);
        let c = pair_hash(2, event_id(0, 0)).wrapping_add(pair_hash(1, event_id(0, 1)));
        assert_ne!(a, c);
    }
}
