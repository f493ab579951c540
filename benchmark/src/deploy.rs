//! Pieces the workloads' deployments share: the broker-overlay plan,
//! the benchmark's own in-engine actors (traffic generator, delivery
//! probe), the digests the validity gates compare, and a context for
//! running actors outside an engine.

use std::hint::black_box;
use std::time::Duration;

use nb_discovery::federation::fnv1a64_step;
use nb_discovery::Entity;
use nb_net::topogen::WanTopology;
use nb_net::{impl_actor_any, Actor, Context, Incoming, NetStats, SimTime};
use nb_util::Uuid;
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Event, GroupId, Message, NodeId, Port, RealmId, Topic};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

pub use nb_discovery::federation::FNV_OFFSET;

/// Folds `x` into the FNV-1a digest `h` (the repo's own primitive).
pub fn mix(h: u64, x: u64) -> u64 {
    fnv1a64_step(h, &x.to_le_bytes())
}

/// A digest of everything an engine reports about a run through the
/// surface `Sim` and `ShardedSim` share: virtual time, event count and
/// every traffic counter. Two reps of one seed must agree on it; a
/// traced and an untraced rep must too.
pub fn engine_digest(now: SimTime, events: u64, stats: &NetStats) -> u64 {
    let mut h = FNV_OFFSET;
    for x in [
        now.as_micros(),
        events,
        stats.datagrams_sent,
        stats.datagrams_delivered,
        stats.datagrams_lost,
        stats.unreachable,
        stats.stream_delivered,
        stats.bytes_delivered,
        stats.dropped_node_down,
        stats.segments_sent,
        stats.segments_delivered,
        stats.frames_coalesced,
        stats.segment_decode_errors,
    ] {
        h = mix(h, x);
    }
    for (kind, count) in &stats.by_kind {
        h = mix(fnv1a64_step(h, kind.as_bytes()), *count);
    }
    h
}

/// Broker `i`'s dial list over a generated topology: for each
/// intra-region edge the higher index dials the lower (which already
/// exists when it boots), plus a chain fallback so every region's
/// overlay is one component. Cross-region edges stay network links
/// only. This is the scale campaign's overlay rule (`nb-bench`'s
/// `build_tier`), restated here because the benchmark must not depend
/// on that crate.
pub fn overlay_dials(topo: &WanTopology) -> Vec<Vec<usize>> {
    fn find(uf: &mut [usize], mut x: usize) -> usize {
        while uf[x] != x {
            uf[x] = uf[uf[x]];
            x = uf[x];
        }
        x
    }
    let n = topo.brokers();
    let mut dials: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut uf: Vec<usize> = (0..n).collect();
    for &(a, b, _) in &topo.edges {
        if topo.region_of[a] != topo.region_of[b] {
            continue;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        dials[hi].push(lo);
        let (ra, rb) = (find(&mut uf, lo), find(&mut uf, hi));
        uf[ra.max(rb)] = ra.min(rb);
    }
    let mut prev_in_region: Vec<Option<usize>> = vec![None; topo.regions];
    for (i, dial) in dials.iter_mut().enumerate() {
        let r = topo.region_of[i];
        if let Some(p) = prev_in_region[r] {
            let (ra, rb) = (find(&mut uf, p), find(&mut uf, i));
            if ra != rb {
                dial.push(p);
                uf[ra.max(rb)] = ra.min(rb);
            }
        }
        prev_in_region[r] = Some(i);
    }
    for d in &mut dials {
        d.sort_unstable();
        d.dedup();
    }
    dials
}

/// The timer token the harness injects to start a [`Publisher`], and
/// that it re-arms for each following event.
pub const PUBLISH_TICK: u64 = 0xBE7C_0000_0000_0001;
/// Payload size of every published event.
pub const PAYLOAD_LEN: usize = 64;

/// The event id publisher `publisher` gives its `seq`-th event. Fixed by
/// the schedule, not drawn from the engine's RNG, so the v1 and v2 runs
/// of one seed publish the same ids.
pub fn event_id(publisher: usize, seq: usize) -> Uuid {
    Uuid::from_u128(((publisher as u128 + 1) << 64) | (seq as u128 + 1))
}

/// Open-loop traffic generator: a broker client that publishes its
/// schedule at a fixed virtual interval once the harness kicks it with
/// [`PUBLISH_TICK`], whatever the system's backlog. Each payload opens
/// with the publish time (virtual µs, little-endian) for the
/// subscribers' [`Probe`]s.
pub struct Publisher {
    index: usize,
    broker: Endpoint,
    interval: Duration,
    schedule: Vec<Topic>,
    /// Events published so far.
    pub sent: usize,
}

impl Publisher {
    pub fn new(index: usize, broker: NodeId, interval: Duration, schedule: Vec<Topic>) -> Self {
        Publisher {
            index,
            broker: Endpoint::new(broker, well_known::BROKER),
            interval,
            schedule,
            sent: 0,
        }
    }
}

impl Actor for Publisher {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let hello = Message::ClientConnect {
            client: ctx.me(),
            reply_port: well_known::BROKER,
        };
        ctx.send_stream(well_known::BROKER, self.broker, &hello);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let Incoming::Timer {
            token: PUBLISH_TICK,
        } = event
        else {
            return;
        };
        let Some(topic) = self.schedule.get(self.sent) else {
            return;
        };
        let mut payload = vec![0xA5u8; PAYLOAD_LEN];
        payload[..8].copy_from_slice(&ctx.now().as_micros().to_le_bytes());
        let ev = Event {
            id: event_id(self.index, self.sent),
            topic: topic.clone(),
            source: ctx.me(),
            payload: payload.into(),
        };
        ctx.send_stream(well_known::BROKER, self.broker, &Message::Publish(ev));
        self.sent += 1;
        if self.sent < self.schedule.len() {
            ctx.set_timer(self.interval, PUBLISH_TICK);
        }
    }

    impl_actor_any!();
}

/// An [`Entity`] plus the one thing it does not record: *when* each
/// event arrived. The probe reads the publish time out of the payload
/// and keeps publish→delivery latency for every event the entity
/// accepted (duplicates it dropped are not deliveries).
pub struct Probe {
    pub entity: Entity,
    /// Publish→delivery virtual latency per accepted event, µs.
    pub latencies_us: Vec<u32>,
}

impl Probe {
    pub fn new(entity: Entity) -> Probe {
        Probe {
            entity,
            latencies_us: Vec::new(),
        }
    }
}

impl Actor for Probe {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.entity.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let sent_at = match &event {
            Incoming::Stream { msg, .. } => match msg.message() {
                Message::Publish(ev) => ev
                    .payload
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))),
                _ => None,
            },
            _ => None,
        };
        let before = self.entity.received.len();
        self.entity.on_incoming(event, ctx);
        if let Some(sent_at) = sent_at {
            if self.entity.received.len() > before {
                let lat = ctx.now().as_micros().saturating_sub(sent_at);
                self.latencies_us
                    .push(u32::try_from(lat).unwrap_or(u32::MAX));
            }
        }
    }

    impl_actor_any!();
}

/// A context outside any engine: sends vanish, armed timers are
/// remembered so the caller can fire them back. The ex-situ probes and
/// the tracer's calibration run actors against it.
pub struct NullCtx {
    now: SimTime,
    rng: StdRng,
    pub armed: Vec<u64>,
}

impl NullCtx {
    /// A context at virtual second 1 whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> NullCtx {
        NullCtx {
            now: SimTime::ZERO + Duration::from_secs(1),
            rng: StdRng::seed_from_u64(seed),
            armed: Vec::new(),
        }
    }
}

impl Context for NullCtx {
    fn me(&self) -> NodeId {
        NodeId(u32::MAX)
    }
    fn realm(&self) -> RealmId {
        RealmId(0)
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn utc_micros(&self) -> u64 {
        self.now.as_micros()
    }
    fn clock_synced(&self) -> bool {
        true
    }
    fn raw_local_micros(&self) -> u64 {
        self.now.as_micros()
    }
    fn set_clock_estimate_ns(&mut self, _est_offset_ns: i64) {}
    fn send_udp(&mut self, _from_port: Port, _to: Endpoint, msg: &Message) {
        black_box(msg);
    }
    fn send_stream(&mut self, _from_port: Port, _to: Endpoint, msg: &Message) {
        black_box(msg);
    }
    fn send_multicast(&mut self, _from: Port, _group: GroupId, _to: Port, msg: &Message) {
        black_box(msg);
    }
    fn join_group(&mut self, _group: GroupId) {}
    fn leave_group(&mut self, _group: GroupId) {}
    fn set_timer(&mut self, _delay: Duration, token: u64) {
        self.armed.push(token);
    }
    fn cancel_timer(&mut self, token: u64) {
        self.armed.retain(|t| *t != token);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_net::topogen::{TopologyKind, TopologySpec};

    #[test]
    fn overlay_is_one_component_per_region_and_dials_downwards() {
        for seed in [1, 2005, 77] {
            let mut spec = TopologySpec::new(TopologyKind::RandomGeometric, 100, seed);
            spec.regions = 2;
            let topo = spec.generate();
            let dials = overlay_dials(&topo);
            let mut comp: Vec<usize> = (0..100).collect();
            for (i, d) in dials.iter().enumerate() {
                for &j in d {
                    assert!(j < i, "broker {i} dials an earlier broker");
                    assert_eq!(topo.region_of[i], topo.region_of[j]);
                    let (a, b) = (comp[i], comp[j]);
                    for c in comp.iter_mut() {
                        if *c == a {
                            *c = b;
                        }
                    }
                }
            }
            let mut roots = comp.clone();
            roots.sort_unstable();
            roots.dedup();
            assert_eq!(roots.len(), topo.regions, "seed {seed}");
        }
    }

    #[test]
    fn event_ids_are_distinct_and_never_nil() {
        assert_ne!(event_id(0, 0), event_id(0, 1));
        assert_ne!(event_id(0, 1), event_id(1, 0));
        assert!(!event_id(0, 0).is_nil());
    }
}
