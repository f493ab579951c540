//! The single-queue discrete-event engine.
//!
//! Single-threaded, seeded, fully deterministic: every figure in the
//! reproduction harness is generated by this engine. Nodes are
//! [`Actor`]s; what a node is, what it draws, how its events are keyed,
//! how a send fares and what an actor can do are the shared node
//! model's (`node.rs`, and `link.rs` for the send path — DESIGN.md §8),
//! so a run processes the same events, to the same counters, as
//! [`crate::shard::ShardedSim`]'s. This module is the scheduler around
//! it: one event heap for every node, multicast group changes and peer
//! resets that land at once, and network-wide faults applied between
//! events.
//!
//! Node ids are assigned densely from zero, so nodes live in an
//! index-addressed slab and every event touches its node by direct
//! index. Delivered payloads travel the queue as [`nb_wire::WireMsg`] —
//! the decoded message plus its shared, lazily encoded frame — so
//! fan-outs clone the handle, never the bytes.

use std::time::Duration;

use nb_wire::message::{KINDS, LABELS_BY_TAG};
use nb_wire::{GroupId, Message, NodeId, RealmId};

use crate::chaos::{Fault, FaultPlan, PacketFaults};
use crate::clock::ClockProfile;
use crate::link::NetworkModel;
use crate::node::{forget_peer, EventHeap, Host, Key, NetFaults, Node, NodeCtx, NodeEvent, Queued, RespawnFn, Scheduler};
use crate::runtime::{Actor, Incoming};
use crate::time::SimTime;

/// Inert, like [`Sim::set_wire_v2`] that takes it: v2 is a property of
/// a link, not of an engine. Kept only because
/// `benchmark/src/workload/pubsub.rs` compiles against both; the next
/// PR allowed to touch `benchmark/` deletes them.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireV2Config;

/// Aggregate traffic counters, useful for assertions and overhead tables.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network.
    pub datagrams_sent: u64,
    /// Datagrams delivered.
    pub datagrams_delivered: u64,
    /// Datagrams lost to the loss model.
    pub datagrams_lost: u64,
    /// Sends with no path (partition/unknown node); the sum of the two
    /// per-fate counters below.
    pub unreachable: u64,
    /// Unreachable sends whose path was severed by a partition
    /// (symmetric or one-way).
    pub unreachable_partitioned: u64,
    /// Unreachable sends with no route at all (unregistered peer).
    pub unreachable_no_path: u64,
    /// Stream messages delivered.
    pub stream_delivered: u64,
    /// Total payload bytes moved (delivered messages only).
    pub bytes_delivered: u64,
    /// Deliveries dropped because the destination node was down.
    pub dropped_node_down: u64,
    /// Extra copies injected by the duplication fault.
    pub datagrams_duplicated: u64,
    /// Datagrams dropped by the corruption fault (checksum failures).
    pub datagrams_corrupted: u64,
    /// Datagrams held back by the reordering fault.
    pub datagrams_reordered: u64,
    /// v2 segments handed to the network.
    pub segments_sent: u64,
    /// v2 segments delivered.
    pub segments_delivered: u64,
    /// Stream messages that travelled inside delivered v2 segments
    /// (each also counts in `stream_delivered`). The engine sends one
    /// frame a segment, so this equals `segments_delivered`.
    pub frames_coalesced: u64,
    /// Delivered segments discarded because they failed to decode; the
    /// receive path surfaces these as a counter, never a panic.
    pub segment_decode_errors: u64,
    /// Delivered message counts by message kind.
    pub by_kind: KindCounts,
}

/// Delivered-message counts by [`Message::kind`] label. It reads like
/// the ordered map it replaced — iteration yields `(label, &count)` in
/// label order with uncounted kinds absent, so rendering and digests
/// are deterministic — and counts like an array: one
/// slot per wire tag, allocated at the first delivery.
#[derive(Default, Clone)]
pub struct KindCounts {
    by_tag: Option<Box<[u64; KIND_SLOTS]>>,
}

/// One slot per wire tag, the tag its index.
const KIND_SLOTS: usize = LABELS_BY_TAG.len();

impl KindCounts {
    /// The slots, allocated at first use.
    fn slots(&mut self) -> &mut [u64; KIND_SLOTS] {
        self.by_tag.get_or_insert_with(|| Box::new([0; KIND_SLOTS]))
    }

    /// The count of `kind`, if any were delivered.
    pub fn get(&self, kind: &str) -> Option<&u64> {
        let at = KINDS.binary_search_by_key(&kind, |&(label, _)| label).ok()?;
        self.by_tag.as_ref().map(|counts| &counts[KINDS[at].1 as usize]).filter(|&&n| n > 0)
    }

    /// Whether any message of `kind` was delivered.
    pub fn contains_key(&self, kind: &str) -> bool {
        self.get(kind).is_some()
    }

    /// The counted kinds in label order.
    pub fn iter(&self) -> std::vec::IntoIter<(&'static str, &u64)> {
        let counted = |&(label, tag): &(&'static str, u8)| {
            let n = &self.by_tag.as_ref()?[tag as usize];
            (*n > 0).then_some((label, n))
        };
        KINDS.iter().filter_map(counted).collect::<Vec<_>>().into_iter()
    }
}

impl<'a> IntoIterator for &'a KindCounts {
    type Item = (&'static str, &'a u64);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The count of `kind`; zero if none were delivered.
impl std::ops::Index<&str> for KindCounts {
    type Output = u64;

    fn index(&self, kind: &str) -> &u64 {
        self.get(kind).unwrap_or(&0)
    }
}

/// Equal when every kind's count is: a set never counted equals one
/// whose slots are all zero.
impl PartialEq for KindCounts {
    fn eq(&self, other: &KindCounts) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for KindCounts {}

impl std::fmt::Debug for KindCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl NetStats {
    /// Counts one message handed to its node.
    #[inline]
    pub(crate) fn count_delivery(&mut self, msg: &Message, stream: bool) {
        self.by_kind.slots()[msg.tag() as usize] += 1;
        if stream {
            self.stream_delivered += 1;
        } else {
            self.datagrams_delivered += 1;
        }
    }

    /// Counts one send that found no path, by fate: severed by a
    /// partition, or no route at all.
    pub(crate) fn count_unreachable(&mut self, partitioned: bool) {
        self.unreachable += 1;
        if partitioned {
            self.unreachable_partitioned += 1;
        } else {
            self.unreachable_no_path += 1;
        }
    }

    /// Folds `other` into `self`. The sharded engine keeps one counter
    /// set per worker and sums them: every field is a count, so the
    /// total is independent of worker count.
    pub fn merge(&mut self, other: &NetStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_delivered += other.datagrams_delivered;
        self.datagrams_lost += other.datagrams_lost;
        self.unreachable += other.unreachable;
        self.unreachable_partitioned += other.unreachable_partitioned;
        self.unreachable_no_path += other.unreachable_no_path;
        self.stream_delivered += other.stream_delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.dropped_node_down += other.dropped_node_down;
        self.datagrams_duplicated += other.datagrams_duplicated;
        self.datagrams_corrupted += other.datagrams_corrupted;
        self.datagrams_reordered += other.datagrams_reordered;
        self.segments_sent += other.segments_sent;
        self.segments_delivered += other.segments_delivered;
        self.frames_coalesced += other.frames_coalesced;
        self.segment_decode_errors += other.segment_decode_errors;
        if let Some(theirs) = &other.by_kind.by_tag {
            for (sum, n) in self.by_kind.slots().iter_mut().zip(theirs.iter()) {
                *sum += n;
            }
        }
    }
}

/// `Sim` as its nodes see it.
struct SimSched<'a> {
    id: NodeId,
    emitted: &'a mut u64,
    events: &'a mut EventHeap<NodeEvent>,
}

impl<'a> Scheduler for SimSched<'a> {
    type Net = &'a mut NetworkModel;

    #[inline]
    fn schedule(&mut self, at: SimTime, ev: NodeEvent) {
        self.events.push(at, Key::node(self.id, self.emitted), ev);
    }

    fn join_group(&mut self, net: &mut Self::Net, node: NodeId, group: GroupId) {
        net.join_group(group, node);
    }

    fn leave_group(&mut self, net: &mut Self::Net, node: NodeId, group: GroupId) {
        net.leave_group(group, node);
    }
}

/// The simulator: virtual time, nodes, network, actors.
pub struct Sim {
    seed: u64,
    now: SimTime,
    events: EventHeap<NodeEvent>,
    /// Events the harness queued so far (`add_node`'s `Start` and
    /// `ClockSync`, injections, node-scoped faults): the counter half of
    /// each one's [`Key::harness`].
    harness: u64,
    network: NetworkModel,
    net_faults: NetFaults,
    stats: NetStats,
    /// Indexed by `NodeId.0` (ids are assigned sequentially from zero).
    nodes: Vec<Host>,
    events_processed: u64,
    clock_profile: ClockProfile,
    /// Per-datagram chaos faults; all-zero (the default) rolls no extra
    /// dice, keeping legacy seeds bit-identical.
    packet_faults: PacketFaults,
}

impl Sim {
    /// A simulator with the given RNG seed and the paper's clock profile.
    pub fn new(seed: u64) -> Sim {
        Sim::with_clock_profile(seed, ClockProfile::paper())
    }

    /// A simulator whose nodes all use `profile` for their clocks.
    pub fn with_clock_profile(seed: u64, profile: ClockProfile) -> Sim {
        Sim {
            seed,
            now: SimTime::ZERO,
            events: EventHeap::default(),
            harness: 0,
            network: NetworkModel::new(),
            net_faults: NetFaults::default(),
            stats: NetStats::default(),
            nodes: Vec::new(),
            events_processed: 0,
            clock_profile: profile,
            packet_faults: PacketFaults::none(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Events processed since construction (throughput accounting).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The static network model (latencies, partitions, groups).
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        &mut self.network
    }

    /// Read-only network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Adds a node running `actor` in `realm`. Its `on_start` runs at the
    /// current virtual time; its clock follows the simulator's profile,
    /// sampled by the first draws of the node's own RNG stream.
    pub fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let host = Host::new(self.seed, id, name, realm, &self.clock_profile, self.now, actor);
        let sync_at = host.node.clock.sync_at;
        self.nodes.push(host);
        self.network.register_node(id, realm);
        self.push(self.now, NodeEvent::Start { node: id });
        self.push(sync_at, NodeEvent::ClockSync { node: id });
        id
    }

    /// Queues a harness event for its node: keyed below every node's at
    /// the same instant, in call order among the harness's.
    fn push(&mut self, at: SimTime, ev: NodeEvent) {
        self.events.push(at, Key::harness(&mut self.harness), ev);
    }

    fn node(&self, node: NodeId) -> Option<&Node> {
        self.nodes.get(node.0 as usize).map(|host| &host.node)
    }

    fn node_mut(&mut self, node: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(node.0 as usize).map(|host| &mut host.node)
    }

    /// `node` at the current instant.
    fn ctx(&mut self, node: NodeId) -> Option<NodeCtx<'_, SimSched<'_>>> {
        let Host { node, link, emitted } = self.nodes.get_mut(node.0 as usize)?;
        Some(NodeCtx {
            sched: SimSched { id: node.id, emitted, events: &mut self.events },
            node,
            link,
            stats: &mut self.stats,
            net: &mut self.network,
            faults: self.packet_faults,
            now: self.now,
        })
    }

    /// Acts on `node` at the current instant, then, if that reset it (a
    /// crash or restart), forgets its far halves in every other node's
    /// connections.
    fn at_once(&mut self, node: NodeId, f: impl FnOnce(&mut NodeCtx<'_, SimSched<'_>>)) {
        let Some(mut ctx) = self.ctx(node) else {
            return;
        };
        f(&mut ctx);
        if ctx.link.take_peers_stale() {
            forget_peer(self.nodes.iter_mut(), node);
        }
    }

    /// Human-readable node name.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.node(node).map_or("?", |n| n.name.as_str())
    }

    /// Immutable access to a node's actor, downcast to `T`.
    pub fn actor<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.node(node)?.actor_as()
    }

    /// Mutable access to a node's actor, downcast to `T`.
    pub fn actor_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.node_mut(node)?.actor_as_mut()
    }

    /// Immutable access to a node's actor as a trait object (callers
    /// downcast via [`Actor::as_any`]). This is the engine-agnostic
    /// accessor used by [`crate::shard::DiscoveryEngine`].
    pub fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor> {
        self.node(node)?.actor.as_deref()
    }

    /// Mutable counterpart of [`Sim::actor_dyn`].
    pub fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
        Some(self.node_mut(node)?.actor.as_mut()?.as_mut())
    }

    /// Marks a node down: queued and future deliveries/timers are dropped
    /// until [`Sim::revive`]. Stream connections involving it are reset.
    pub fn crash(&mut self, node: NodeId) {
        self.at_once(node, |ctx| ctx.crash());
    }

    /// Revives a crashed node and re-runs its `on_start`.
    pub fn revive(&mut self, node: NodeId) {
        self.at_once(node, |ctx| ctx.revive());
    }

    /// Registers the factory that rebuilds `node`'s actor when it is
    /// restarted with state loss (see [`Sim::restart`]).
    pub fn set_respawn(&mut self, node: NodeId, factory: RespawnFn) {
        if let Some(n) = self.node_mut(node) {
            n.respawn = Some(factory);
        }
    }

    /// Restarts a node: crash (if still up) then revive. With
    /// `lose_state` the actor is replaced by a fresh instance from the
    /// node's respawn factory first — registries, caches and all other
    /// volatile actor state are lost, modelling a process restart rather
    /// than a network blip. Without a registered factory the restart
    /// degrades to a state-preserving revive. The node keeps its
    /// identity, realm and hardware clock either way.
    pub fn restart(&mut self, node: NodeId, lose_state: bool) {
        self.at_once(node, |ctx| ctx.apply_fault(Fault::Restart { node, lose_state }));
    }

    /// Queues every fault in `plan`, offset from the current virtual
    /// time: a node-scoped one as its node's event, a network-wide one
    /// on the schedule applied between events.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            let (at, fault) = (self.now + ev.at, ev.fault.clone());
            match fault.node() {
                Some(node) if self.node(node).is_some() => self.push(at, NodeEvent::Fault { fault }),
                Some(_) => {}
                None => self.net_faults.push(at, fault),
            }
        }
    }

    /// Does nothing. A link speaks v2 when both its ends negotiated it
    /// (`BrokerConfig::wire_v2`) or a caller sends on it with
    /// [`crate::Context::send_stream_v2`], on either engine; there is no
    /// engine switch left to set. Kept, with [`WireV2Config`], only
    /// because `benchmark/src/workload/pubsub.rs` compiles against it.
    pub fn set_wire_v2(&mut self, _cfg: Option<WireV2Config>) {}

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.node(node).is_some_and(|n| n.up)
    }

    #[cfg(test)]
    pub(crate) fn armed_timer_slots(&self, node: NodeId) -> usize {
        self.node(node).map_or(0, |n| n.timers.len())
    }

    /// Queues an [`Incoming`] for delivery to `node` after `delay`
    /// (harness-driven stimulus, e.g. kicking off a discovery).
    pub fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
        if self.node(node).is_some() {
            self.push(self.now + delay, NodeEvent::Inject { node, incoming });
        }
    }

    /// Processes the earliest event.
    fn step(&mut self) {
        let Some(Queued { at, ev, .. }) = self.events.pop() else {
            return;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        let node = ev.owner();
        let Some(host) = self.nodes.get_mut(node.0 as usize) else {
            return;
        };
        if let Some((until, key)) = host.deferral(at, &ev) {
            self.events.push(until, key, ev);
            return;
        }
        self.events_processed += 1;
        if let NodeEvent::Fault { fault } = ev {
            self.at_once(node, |ctx| ctx.apply_fault(fault));
        } else if let Some(ctx) = self.ctx(node) {
            ctx.handle(ev);
        }
    }

    /// Runs until virtual time reaches `deadline` (processing every event
    /// scheduled at or before it) or the queue empties, applying each
    /// network-wide fault before the events due at or after its instant.
    /// Nodes join only between runs, so the node table sheds its growth
    /// slack once.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        self.nodes.shrink_to_fit();
        loop {
            let next = self.events.next_at();
            if let Some((at, fault)) = self.net_faults.pop_due(next, deadline) {
                self.now = self.now.max(at);
                NetFaults::apply(fault, &mut self.packet_faults, &mut self.network);
            } else if next.is_some_and(|at| at <= deadline) {
                self.step();
            } else {
                break;
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impl_actor_any;
    use crate::runtime::{Context, IdleActor, Trace, TraceRecord};
    use crate::timer_tests::{lossless, Echo, Pinger};
    use nb_wire::{Bytes, Endpoint, Message, WireMsg};
    use nb_wire::addr::well_known;

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            let p: &Pinger = sim.actor(pinger).unwrap();
            (p.rtts.clone(), sim.stats().datagrams_delivered)
        };
        assert_eq!(run(99), run(99));
        // and (overwhelmingly likely) different across seeds
        assert_ne!(run(1).0, run(2).0);
    }

    /// 2 049 nodes leave `add_node`'s table at capacity 4 096; a run
    /// holds it at its length.
    #[test]
    fn a_run_holds_the_node_table_at_its_length() {
        let mut sim = Sim::with_clock_profile(0, ClockProfile::perfect());
        for _ in 0..2_049 {
            sim.add_node("idle", RealmId(0), Box::new(crate::runtime::IdleActor));
        }
        assert!(sim.nodes.capacity() > sim.nodes.len(), "add_node grows by doubling");
        sim.run_for(Duration::from_millis(1));
        assert_eq!(sim.nodes.capacity(), sim.nodes.len());
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        struct Canceller {
            fired: bool,
        }
        impl Actor for Canceller {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(100), 1);
                ctx.cancel_timer(1);
                ctx.set_timer(Duration::from_millis(50), 2);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                match event {
                    Incoming::Timer { token: 1 } => self.fired = true,
                    Incoming::Timer { token: 2 } => {
                        // re-arm then cancel again: still must not fire
                        ctx.set_timer(Duration::from_millis(10), 1);
                        ctx.cancel_timer(1);
                    }
                    _ => {}
                }
            }
            impl_actor_any!();
        }
        let mut sim = Sim::new(5);
        let n = sim.add_node("c", RealmId(0), Box::new(Canceller { fired: false }));
        sim.run_for(Duration::from_secs(1));
        assert!(!sim.actor::<Canceller>(n).unwrap().fired);
    }

    #[test]
    fn rearming_timer_replaces_previous() {
        struct Rearm {
            fire_times: Vec<SimTime>,
        }
        impl Actor for Rearm {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(100), 9);
                ctx.set_timer(Duration::from_millis(200), 9); // replaces
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::Timer { token: 9 } = event {
                    self.fire_times.push(ctx.now());
                }
            }
            impl_actor_any!();
        }
        let mut sim = Sim::new(5);
        let n = sim.add_node("r", RealmId(0), Box::new(Rearm { fire_times: vec![] }));
        sim.run_for(Duration::from_secs(1));
        let a: &Rearm = sim.actor(n).unwrap();
        assert_eq!(a.fire_times.len(), 1);
        assert_eq!(a.fire_times[0].as_millis(), 200);
    }

    #[test]
    fn clock_sync_event_delivered_and_utc_tightens() {
        struct SyncWatcher {
            synced_at: Option<SimTime>,
            err_before_us: Option<i64>,
            err_after_us: Option<i64>,
        }
        impl Actor for SyncWatcher {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                self.err_before_us =
                    Some(ctx.utc_micros() as i64 - crate::time::true_utc_micros(ctx.now()) as i64);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::ClockSynced = event {
                    self.synced_at = Some(ctx.now());
                    self.err_after_us =
                        Some(ctx.utc_micros() as i64 - crate::time::true_utc_micros(ctx.now()) as i64);
                }
            }
            impl_actor_any!();
        }
        let mut sim = Sim::new(17);
        let n = sim.add_node(
            "w",
            RealmId(0),
            Box::new(SyncWatcher { synced_at: None, err_before_us: None, err_after_us: None }),
        );
        sim.run_for(Duration::from_secs(6));
        let w: &SyncWatcher = sim.actor(n).unwrap();
        let synced_at = w.synced_at.expect("sync event");
        let ms = synced_at.as_millis();
        assert!((3000..=5000).contains(&ms), "synced at {ms}ms");
        let after = w.err_after_us.unwrap().unsigned_abs();
        assert!((1_000..=20_000).contains(&after), "post-sync error {after}µs");
    }

    #[test]
    fn stats_track_kinds() {
        let mut sim = Sim::with_clock_profile(1, ClockProfile::perfect());
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.stats().by_kind["ping"], 5);
        assert_eq!(sim.stats().by_kind["pong"], 5);
        assert!(sim.stats().bytes_delivered > 0);
    }

    #[test]
    fn packet_duplication_delivers_extra_copies() {
        let mut sim = Sim::with_clock_profile(6, ClockProfile::perfect());
        lossless(&mut sim);
        let faults =
            PacketFaults { duplicate: 1.0, corrupt: 0.0, reorder: 0.0, extra_delay: Duration::from_millis(5) };
        // Queued before the nodes start, so their first sends roll it.
        let plan = FaultPlan::new().fault_at(Duration::ZERO, Fault::SetPacketFaults { faults });
        sim.apply_fault_plan(&plan);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        // Every ping arrives twice, so the echo answers 10 pongs (each
        // also duplicated in flight).
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 10);
        assert!(sim.stats().datagrams_duplicated >= 10);
        assert_eq!(sim.stats().datagrams_delivered, sim.stats().datagrams_sent * 2);
    }

    #[test]
    fn packet_corruption_drops_and_counts() {
        let mut sim = Sim::with_clock_profile(6, ClockProfile::perfect());
        lossless(&mut sim);
        let faults = PacketFaults { duplicate: 0.0, corrupt: 1.0, reorder: 0.0, extra_delay: Duration::ZERO };
        // Queued before the nodes start, so their first sends roll it.
        let plan = FaultPlan::new().fault_at(Duration::ZERO, Fault::SetPacketFaults { faults });
        sim.apply_fault_plan(&plan);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0);
        assert_eq!(sim.stats().datagrams_corrupted, 5);
        assert_eq!(sim.stats().datagrams_delivered, 0);
    }

    #[test]
    fn one_way_partition_blocks_single_direction_and_is_counted() {
        let mut sim = Sim::with_clock_profile(2, ClockProfile::perfect());
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        // Block only the reply direction: pings arrive, pongs vanish.
        sim.network_mut().partition_one_way(echo, pinger);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
        assert!(sim.actor::<Pinger>(pinger).unwrap().rtts.is_empty());
        assert_eq!(sim.stats().unreachable_partitioned, 5);
        assert_eq!(sim.stats().unreachable, 5);
        let stats = sim.stats();
        assert_eq!(stats.unreachable, stats.unreachable_partitioned + stats.unreachable_no_path);
        sim.network_mut().heal_one_way(echo, pinger);
        let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Pinger>(pinger2).unwrap().rtts.len(), 5);
    }

    #[test]
    fn fault_plan_runs_are_deterministic_and_seed_sensitive() {
        use crate::chaos::{ChaosProfile, ChaosTargets};
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
            let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            let targets = ChaosTargets { bdns: vec![echo], brokers: vec![], clients: vec![pinger] };
            let plan = FaultPlan::generate(
                seed,
                &ChaosProfile::light(),
                &targets,
                Duration::from_secs(10),
            );
            let desc = plan.describe();
            sim.apply_fault_plan(&plan);
            sim.run_for(Duration::from_secs(12));
            (desc, sim.stats().datagrams_delivered, sim.events_processed())
        };
        assert_eq!(run(77), run(77), "same seed, same schedule, same outcome");
    }

    /// The one small publish the v2 tests send, under `id`.
    fn alpha_publish(id: u128, source: NodeId) -> WireMsg {
        WireMsg::new(Message::Publish(nb_wire::Event {
            id: nb_util::Uuid::from_u128(id),
            topic: nb_wire::Topic::parse("sensors/room/alpha").unwrap(),
            source,
            payload: Bytes::from_static(b"1"),
        }))
    }

    /// Sends `count` publishes on the same topic to `target` via the v2
    /// stream path in one dispatch, then `count` more on a later timer
    /// (a second burst on a now-warm symbol table).
    struct V2Burst {
        target: NodeId,
        count: u32,
    }

    impl V2Burst {
        /// `count` publishes with ids from `first_id`, in one dispatch.
        fn burst(&self, first_id: u128, ctx: &mut dyn Context) {
            for i in 0..self.count {
                ctx.send_stream_v2(
                    well_known::BROKER,
                    Endpoint::new(self.target, well_known::BROKER),
                    &alpha_publish(first_id + i as u128, ctx.me()),
                );
            }
        }
    }

    impl Actor for V2Burst {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            self.burst(1, ctx);
            ctx.set_timer(Duration::from_secs(1), 1);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { token: 1 } = event {
                self.burst(1000, ctx);
            }
        }
        impl_actor_any!();
    }

    /// `(event id, body length)` of each publish handed to `node` on a
    /// stream, in `records`' order.
    fn publishes_to(records: &[TraceRecord], node: NodeId) -> Vec<(u128, usize)> {
        let to_node = records.iter().filter(|r| r.stream && r.to.node == node);
        let publish = |r: &TraceRecord| match r.msg.message() {
            Message::Publish(ev) => Some((ev.id.as_u128(), r.msg.body_len())),
            _ => None,
        };
        to_node.filter_map(publish).collect()
    }

    /// Nothing coalesces any more — a send is a send; the test keeps the
    /// name the test floor knows it by.
    #[test]
    fn v2_streams_coalesce_deliver_in_order_and_warm_symbols_shrink() {
        let mut sim = Sim::with_clock_profile(8, ClockProfile::perfect());
        lossless(&mut sim);
        let (trace, log) = Trace::new();
        let sink = sim.add_node("sink", RealmId(0), trace.wrap(Box::new(IdleActor)));
        sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 6 }));
        sim.run_for(Duration::from_secs(3));
        let got = publishes_to(&log.take(), sink);
        assert_eq!(got.len(), 12, "every frame dispatched");
        let ids: Vec<u128> = got.iter().map(|(id, _)| *id).collect();
        let want: Vec<u128> = (1..=6).chain(1000..1006).collect();
        assert_eq!(ids, want, "frames arrive in send order across bursts");
        // A send is a send: two bursts of six, twelve one-frame segments.
        assert_eq!(sim.stats().segments_sent, 12);
        assert_eq!(sim.stats().segments_delivered, 12);
        assert_eq!(sim.stats().frames_coalesced, 12);
        assert_eq!(sim.stats().stream_delivered, 12);
        assert_eq!(sim.stats().segment_decode_errors, 0);
        // The first frame of burst one paid for the symbol definition;
        // every later frame on the warm table is smaller, and all are
        // smaller than the v1 encoding of the same message.
        let v1 = alpha_publish(1, NodeId(1)).body_len();
        assert!(got[0].1 < v1, "cold v2 frame {} < v1 body {v1}", got[0].1);
        assert!(got[1].1 < got[0].1, "warm frame drops the symbol definition");
        for (_, len) in &got[1..] {
            assert_eq!(*len, got[1].1, "warm frames are uniformly compact");
        }
    }

    #[test]
    fn v2_send_to_an_unreachable_peer_mints_no_symbols_anywhere() {
        /// One handler: a publish to a partitioned peer, then the same
        /// publish to a reachable one.
        struct TwoSends {
            cut: NodeId,
            ok: NodeId,
        }
        impl Actor for TwoSends {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(100), 1);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::Timer { .. } = event {
                    let msg = alpha_publish(ctx.now().as_micros() as u128, ctx.me());
                    for to in [self.cut, self.ok] {
                        ctx.send_stream_v2(
                            well_known::BROKER,
                            Endpoint::new(to, well_known::BROKER),
                            &msg,
                        );
                    }
                    ctx.set_timer(Duration::from_millis(100), 1);
                }
            }
            impl_actor_any!();
        }
        let mut sim = Sim::with_clock_profile(8, ClockProfile::perfect());
        lossless(&mut sim);
        let (trace, log) = Trace::new();
        let cut = sim.add_node("cut", RealmId(0), trace.wrap(Box::new(IdleActor)));
        let ok = sim.add_node("ok", RealmId(0), trace.wrap(Box::new(IdleActor)));
        let sender = sim.add_node("sender", RealmId(0), Box::new(TwoSends { cut, ok }));
        sim.network_mut().partition(sender, cut);
        sim.run_for(Duration::from_millis(250));
        // Two rounds: both drops counted by fate, nothing sent to `cut`.
        assert_eq!(sim.stats().unreachable, 2);
        assert_eq!(sim.stats().unreachable_partitioned, 2);
        assert_eq!(sim.stats().unreachable_no_path, 0);
        assert_eq!(sim.stats().segments_sent, 2);
        let records = log.take();
        assert!(publishes_to(&records, cut).is_empty());
        // The reachable link saw exactly a cold frame then a warm one:
        // the drop before each send neither defined its symbol nor
        // consumed one.
        let to_ok = publishes_to(&records, ok);
        assert_eq!(to_ok.len(), 2);
        assert!(to_ok[1].1 < to_ok[0].1, "second frame rides the warm table");
        // Heal: the cut link starts cold — the two drops minted nothing
        // on it — and decodes cleanly.
        sim.network_mut().heal(sender, cut);
        sim.run_for(Duration::from_millis(100));
        let to_cut = publishes_to(&log.take(), cut);
        assert_eq!(to_cut.len(), 1);
        assert_eq!(to_cut[0].1, to_ok[0].1, "first frame after the heal defines the symbol");
        assert_eq!(sim.stats().segment_decode_errors, 0);
    }

    #[test]
    fn v2_crash_resets_link_symbol_tables() {
        let mut sim = Sim::with_clock_profile(8, ClockProfile::perfect());
        lossless(&mut sim);
        let (trace, log) = Trace::new();
        let sink = sim.add_node("sink", RealmId(0), trace.wrap(Box::new(IdleActor)));
        let burst = sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 3 }));
        sim.set_respawn(burst, Box::new(move || Box::new(V2Burst { target: sink, count: 3 })));
        sim.run_for(Duration::from_millis(500));
        let mut got = publishes_to(&log.take(), sink);
        let (cold, warm) = (got[0].1, got[1].1);
        assert!(warm < cold);
        // Restart the sender: its link state (and the sink's reader) is
        // torn down, so the next burst re-ships the symbol definition
        // and still decodes cleanly.
        sim.restart(burst, true);
        sim.run_for(Duration::from_millis(500));
        got.extend(publishes_to(&log.take(), sink));
        assert_eq!(got.len(), 6);
        assert_eq!(got[3].1, cold, "post-restart first frame redefines the symbol");
        assert_eq!(got[4].1, warm);
        assert_eq!(sim.stats().segment_decode_errors, 0);
    }

    #[test]
    fn events_processed_counts_every_step() {
        let mut sim = Sim::with_clock_profile(1, ClockProfile::perfect());
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        assert_eq!(sim.events_processed(), 0);
        sim.run_for(Duration::from_secs(2));
        // 2 starts + 2 clock syncs + 5 pings + 5 pongs + 1 timer.
        assert_eq!(sim.events_processed(), 15);
    }
}
