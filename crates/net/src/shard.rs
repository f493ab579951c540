//! Conservative parallel discrete-event execution.
//!
//! [`crate::sim::Sim`] is single-threaded: one queue, one RNG, one clock.
//! That is perfect for pinned-seed reproductions but leaves every core
//! but one idle during large campaigns. This module shards the engine
//! *by node id*: every node becomes its own logical process (LP) with a
//! private event queue, RNG stream, stream/wire books and traffic
//! counters, and a coordinator runs the classic conservative-lookahead
//! protocol (Chandy/Misra/Bryant by way of a barrier-synchronous epoch
//! loop) over them:
//!
//! 1. **Lookahead.** The WAN model gives a hard floor on cross-node
//!    delay: no message between two distinct nodes can arrive sooner
//!    than [`NetworkModel::min_cross_node_latency`] after it was sent
//!    (jitter, bandwidth serialisation and stream setup only add time,
//!    and self-sends never leave their LP). With `m` the earliest
//!    pending event anywhere, every event below the safe horizon
//!    `H = m + lookahead` is therefore causally independent across LPs.
//! 2. **Epoch.** Each LP processes its own events with `at < H` in
//!    (time, seq) order. Cross-LP deliveries are not pushed into the
//!    destination queue (that would race); they are buffered in the
//!    sender's *outbox*, in emission order.
//! 3. **Barrier.** The coordinator drains outboxes in ascending node id
//!    (then emission order) and enqueues each message at its
//!    destination, assigns fresh per-LP sequence numbers, and applies
//!    deferred network mutations (multicast joins/leaves, crash-induced
//!    connection resets) in the same node order.
//!
//! Because LP state, RNG streams (`SplitMix64(seed ^ node_id)` — that is
//! exactly what [`StdRng::seed_from_u64`] expands the xor through), the
//! lookahead window, the horizon sequence and the merge order are all
//! pure functions of (topology, seed), the run — including its event
//! digest — is **byte-identical for any worker count and any shard
//! count**. A [`ShardPlan`] only decides which worker executes which
//! LP, never what the LPs compute; with one worker the engine is the
//! degenerate serial case of the same algorithm.
//!
//! Two scheduling semantics intentionally differ from `Sim` (documented
//! here because digests are *not* comparable between the engines, only
//! across configurations of the same engine):
//!
//! * Globally-scoped faults (partitions, packet-fault windows) apply at
//!   epoch boundaries, always before protocol events carrying the same
//!   timestamp; `Sim` interleaves them by scheduling order.
//! * `join_group`/`leave_group` become visible at the next barrier
//!   rather than immediately. Warmed-up scenarios never notice (joins
//!   happen at start-up, multicasts seconds later), but a same-instant
//!   join-then-multicast would.
//!
//! Threading is confined to [`ShardedSim::run_epochs_threaded`]: a
//! scoped worker pool on `std::sync::mpsc`, moving whole LP groups
//! through per-worker channels each epoch. Workers share nothing
//! mutable — they own the LPs they were handed and borrow an immutable
//! snapshot of the network — which is why this module is the only
//! sanctioned home for thread primitives in nb-net (lint rule D008).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::chaos::{Fault, FaultPlan, PacketFaults};
use crate::clock::{ClockProfile, ClockState};
use crate::link::{NetworkModel, StreamBook, WireBook};
use crate::runtime::{Actor, Context, Incoming};
use crate::sim::{NetStats, Sim, TimerSlots};
use crate::time::SimTime;

/// Builds a fresh actor for a node restarted with state loss under the
/// sharded engine. Unlike [`crate::sim::RespawnFn`] it must be `Send`:
/// the factory lives inside its node's logical process, which migrates
/// across worker threads.
pub type ShardRespawnFn = Box<dyn FnMut() -> Box<dyn Actor> + Send>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, x: u64) {
    *h ^= x;
    *h = h.wrapping_mul(FNV_PRIME);
}

fn mix_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        mix(h, b as u64);
    }
}

/// Assignment of logical processes (nodes) to executor groups.
///
/// Greedy min-cut over link latencies, Kruskal-style: all node pairs
/// are visited from the lowest-latency link upwards and their clusters
/// merged while the combined size stays within `ceil(n / shards)`, so
/// the links left *cut* are the highest-latency ones and chatty
/// low-latency clusters — brokers behind the same switch — co-locate.
/// Clusters are then dealt into groups in ascending order of their
/// smallest node id, splitting only at capacity boundaries. The plan is
/// a pure function of the network model, so it is identical on every
/// run — but even a pathological plan cannot change results, only wall
/// time: grouping decides *where* an LP executes, never *what* it sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of executor groups.
    pub shards: usize,
    /// `assignment[node_id] = group index`.
    pub assignment: Vec<usize>,
}

/// Above this node count the planner stops materialising all O(n²)
/// pairs and clusters from the *sparse* view of the model instead:
/// explicit link overrides plus a per-realm chain. Both paths are pure
/// functions of the model, and the plan never affects results — only
/// which worker runs which LP.
const DENSE_PARTITION_NODES: usize = 2048;

/// Union-find `find` with path halving. Roots are kept at the smallest
/// member id (see `union` below), matching the label-relabel scheme the
/// dense planner historically used, so cluster identity — and therefore
/// the dealt assignment — is unchanged by the union-find rewrite.
fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

impl ShardPlan {
    /// Partitions `nodes` logical processes into at most `shards` groups.
    pub fn partition(net: &NetworkModel, nodes: usize, shards: usize) -> ShardPlan {
        let shards = shards.clamp(1, nodes.max(1));
        let cap = nodes.div_ceil(shards);
        // Candidate edges, cheapest link first; ties break on the pair's
        // ids so the ordering is total and deterministic.
        let mut edges: Vec<(Duration, usize, usize)> = Vec::new();
        if nodes <= DENSE_PARTITION_NODES {
            // Every reachable pair (the historical exact path).
            for a in 0..nodes {
                for b in (a + 1)..nodes {
                    if let Some(spec) = net.spec_between(NodeId(a as u32), NodeId(b as u32)) {
                        edges.push((spec.latency, a, b));
                    }
                }
            }
        } else {
            // Sparse path: a realm's members form an intra-realm-latency
            // chain (enough connectivity to co-locate the realm without
            // materialising its clique), plus every explicit override.
            let mut prev_by_realm: BTreeMap<RealmId, usize> = BTreeMap::new();
            for (n, realm) in net.registered_nodes() {
                let idx = n.0 as usize;
                if idx >= nodes {
                    continue;
                }
                if let Some(prev) = prev_by_realm.insert(realm, idx) {
                    edges.push((net.intra_realm_spec.latency, prev, idx));
                }
            }
            for (a, b, spec) in net.link_overrides() {
                let (ai, bi) = (a.0 as usize, b.0 as usize);
                if a == b || ai >= nodes || bi >= nodes {
                    continue;
                }
                edges.push((spec.latency, ai, bi));
            }
        }
        edges.sort();
        // Kruskal-style greedy merge under the capacity bound, on a
        // union-find whose roots stay at each cluster's smallest id.
        let mut parent: Vec<usize> = (0..nodes).collect();
        let mut sizes: Vec<usize> = vec![1; nodes];
        let mut count = nodes;
        for (_, a, b) in edges {
            if count <= shards {
                break;
            }
            let (ra, rb) = (uf_find(&mut parent, a), uf_find(&mut parent, b));
            if ra == rb || sizes[ra] + sizes[rb] > cap {
                continue;
            }
            let (keep, gone) = (ra.min(rb), ra.max(rb));
            parent[gone] = keep;
            sizes[keep] += sizes[gone];
            count -= 1;
        }
        // Flatten clusters (ordered by smallest member id, members
        // ascending) and deal sequentially into capacity-`cap` groups:
        // cluster members stay adjacent, so a cluster splits across
        // groups only when a capacity boundary forces it.
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(nodes);
        for v in 0..nodes {
            let root = uf_find(&mut parent, v);
            order.push((root, v));
        }
        order.sort_unstable();
        let mut assignment = vec![0usize; nodes];
        for (dealt, &(_, v)) in order.iter().enumerate() {
            assignment[v] = dealt / cap;
        }
        ShardPlan { shards, assignment }
    }
}

/// An event in one LP's private queue. Unlike [`crate::sim::Sim`]'s
/// kinds these carry no node id — the queue they sit in *is* the node.
enum LpEvent {
    Deliver { from: Endpoint, to_port: Port, msg: WireMsg, len: usize, stream: bool },
    Timer { token: u64, generation: u64 },
    ClockSync,
    Start,
    Inject { incoming: Incoming },
    Fault { fault: Fault },
}

impl LpEvent {
    /// Faults execute on schedule even while their target is stalled
    /// (mirrors `Sim`, where fault events have no target node).
    fn defers_under_stall(&self) -> bool {
        !matches!(self, LpEvent::Fault { .. })
    }
}

struct Queued {
    at: SimTime,
    seq: u64,
    ev: LpEvent,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    // Reversed so the BinaryHeap pops the earliest event first; `seq`
    // breaks ties deterministically in scheduling order.
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A cross-LP delivery buffered in the sender's outbox until the epoch
/// barrier. Emission order within one outbox is preserved by the merge.
struct OutMsg {
    at: SimTime,
    to: Endpoint,
    from: Endpoint,
    msg: WireMsg,
    len: usize,
    stream: bool,
}

/// A network-model mutation requested mid-epoch. The model is shared
/// read-only during an epoch, so these apply at the barrier, in node
/// order.
enum DeferredOp {
    Join(GroupId),
    Leave(GroupId),
    /// The emitting node crashed: every *other* LP must forget its
    /// stream connections and wire-clock entries. The crashed LP resets
    /// its own books inline (a same-epoch restart may already have
    /// created fresh entries that must survive the barrier).
    ResetPeer,
}

/// One logical process: a node plus every piece of engine state that
/// only it touches. `Send`, so whole LPs migrate between workers.
struct Lp {
    id: NodeId,
    name: String,
    realm: RealmId,
    clock: ClockState,
    up: bool,
    stalled_until: SimTime,
    timers: TimerSlots,
    actor: Option<Box<dyn Actor>>,
    respawn: Option<ShardRespawnFn>,
    queue: BinaryHeap<Queued>,
    seq: u64,
    /// Private RNG stream, seeded `root_seed ^ node_id` — a function of
    /// the node's identity, never of which worker runs it.
    rng: StdRng,
    streams: StreamBook,
    wires: WireBook,
    stats: NetStats,
    events_processed: u64,
    digest: u64,
    /// Local virtual time: the timestamp of the last processed event.
    now: SimTime,
    outbox: Vec<OutMsg>,
    ops: Vec<DeferredOp>,
}

impl Lp {
    fn new(id: NodeId, name: &str, realm: RealmId, clock: ClockState, rng: StdRng) -> Lp {
        Lp {
            id,
            name: name.to_string(),
            realm,
            clock,
            up: true,
            stalled_until: SimTime::ZERO,
            timers: TimerSlots::default(),
            actor: None,
            respawn: None,
            queue: BinaryHeap::new(),
            seq: 0,
            rng,
            streams: StreamBook::new(),
            wires: WireBook::new(),
            stats: NetStats::default(),
            events_processed: 0,
            digest: FNV_OFFSET,
            now: SimTime::ZERO,
            outbox: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn enqueue(&mut self, at: SimTime, ev: LpEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Queued { at, seq, ev });
    }

    /// Runs this LP's events strictly below `horizon`. Within the
    /// window the LP is causally closed: nothing another LP does this
    /// epoch can reach it before `horizon`.
    fn process_until(&mut self, horizon: SimTime, net: &NetworkModel, pf: PacketFaults) {
        while let Some(top) = self.queue.peek() {
            if top.at >= horizon {
                break;
            }
            let ev = self.queue.pop().expect("peeked");
            self.handle(ev, net, pf);
        }
    }

    fn handle(&mut self, ev: Queued, net: &NetworkModel, pf: PacketFaults) {
        // Monotonic clamp rather than an assert: with a (degenerate)
        // zero-latency link override the 1 ns lookahead floor exceeds
        // the true minimum and a merged delivery can carry a timestamp
        // the LP already passed. Ordering stays deterministic.
        if self.now < ev.at {
            self.now = ev.at;
        }
        if ev.ev.defers_under_stall() && self.stalled_until > ev.at {
            let until = self.stalled_until;
            self.enqueue(until, ev.ev);
            return;
        }
        self.events_processed += 1;
        digest_event(&mut self.digest, ev.at, &ev.ev);
        match ev.ev {
            LpEvent::Start => {
                if self.up {
                    self.with_actor(net, pf, |actor, ctx| actor.on_start(ctx));
                }
            }
            LpEvent::ClockSync => {
                let up = self.up;
                self.clock.mark_synced();
                if up {
                    self.dispatch(net, pf, Incoming::ClockSynced);
                }
            }
            LpEvent::Timer { token, generation } => {
                if self.up && self.timers.fire(token, generation) {
                    self.dispatch(net, pf, Incoming::Timer { token });
                }
            }
            LpEvent::Inject { incoming } => {
                if self.up {
                    self.dispatch(net, pf, incoming);
                }
            }
            LpEvent::Fault { fault } => self.apply_local_fault(fault),
            LpEvent::Deliver { from, to_port, msg, len, stream } => {
                if !self.up {
                    self.stats.dropped_node_down += 1;
                    return;
                }
                self.stats.bytes_delivered += len as u64;
                *self.stats.by_kind.entry(msg.kind()).or_insert(0) += 1;
                if stream {
                    self.stats.stream_delivered += 1;
                    // Accepting the first framed message establishes the
                    // connection server-side too, so replies on the same
                    // port pair skip the setup RTTs (the sender's book
                    // already charged them).
                    self.streams.mark_established(Endpoint::new(self.id, to_port), from);
                    self.dispatch(net, pf, Incoming::Stream { from, to_port, msg });
                } else {
                    self.stats.datagrams_delivered += 1;
                    self.dispatch(net, pf, Incoming::Datagram { from, to_port, msg });
                }
            }
        }
    }

    /// Node-scoped faults routed to this LP's queue (the "owning node's
    /// shard queue" of the chaos pipeline).
    fn apply_local_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash { .. } => self.crash_local(),
            Fault::Restart { lose_state, .. } => {
                if self.up {
                    self.crash_local();
                }
                if lose_state {
                    if let Some(factory) = self.respawn.as_mut() {
                        self.actor = Some(factory());
                    }
                }
                self.up = true;
                let now = self.now;
                self.enqueue(now, LpEvent::Start);
            }
            Fault::Stall { dur, .. } => {
                let until = self.now + dur;
                if until > self.stalled_until {
                    self.stalled_until = until;
                }
            }
            Fault::ClockStep { delta_ns, .. } => self.clock.step_ns(delta_ns),
            // Globally-scoped faults never reach an LP queue; the
            // coordinator applies them at epoch boundaries.
            _ => {}
        }
    }

    fn crash_local(&mut self) {
        self.up = false;
        self.timers.clear();
        let id = self.id;
        self.streams.reset_node(id);
        self.wires.reset_node(id);
        self.ops.push(DeferredOp::ResetPeer);
    }

    fn dispatch(&mut self, net: &NetworkModel, pf: PacketFaults, incoming: Incoming) {
        self.with_actor(net, pf, |actor, ctx| actor.on_incoming(incoming, ctx));
    }

    fn with_actor(
        &mut self,
        net: &NetworkModel,
        pf: PacketFaults,
        f: impl FnOnce(&mut dyn Actor, &mut dyn Context),
    ) {
        let Some(mut actor) = self.actor.take() else {
            return;
        };
        {
            let mut ctx = LpCtx { lp: self, net, pf };
            f(actor.as_mut(), &mut ctx);
        }
        self.actor = Some(actor);
    }
}

/// Folds one processed event into the LP's running FNV-1a digest. The
/// encoding is positional (tag first, then fields), so distinct event
/// shapes can never collide by concatenation.
fn digest_event(h: &mut u64, at: SimTime, ev: &LpEvent) {
    mix(h, at.as_nanos());
    match ev {
        LpEvent::Start => mix(h, 1),
        LpEvent::ClockSync => mix(h, 2),
        LpEvent::Timer { token, generation } => {
            mix(h, 3);
            mix(h, *token);
            mix(h, *generation);
        }
        LpEvent::Inject { incoming } => {
            mix(h, 4);
            match incoming {
                Incoming::Datagram { from, to_port, msg } => {
                    mix(h, 40);
                    mix(h, from.node.0 as u64);
                    mix(h, from.port.0 as u64);
                    mix(h, to_port.0 as u64);
                    mix_bytes(h, msg.kind().as_bytes());
                }
                Incoming::Stream { from, to_port, msg } => {
                    mix(h, 41);
                    mix(h, from.node.0 as u64);
                    mix(h, from.port.0 as u64);
                    mix(h, to_port.0 as u64);
                    mix_bytes(h, msg.kind().as_bytes());
                }
                Incoming::Timer { token } => {
                    mix(h, 42);
                    mix(h, *token);
                }
                Incoming::ClockSynced => mix(h, 43),
            }
        }
        LpEvent::Fault { fault } => {
            mix(h, 5);
            mix_bytes(h, fault.to_string().as_bytes());
        }
        LpEvent::Deliver { from, to_port, msg, len, stream } => {
            mix(h, 6);
            mix(h, from.node.0 as u64);
            mix(h, from.port.0 as u64);
            mix(h, to_port.0 as u64);
            mix(h, *len as u64);
            mix(h, *stream as u64);
            mix_bytes(h, msg.kind().as_bytes());
        }
    }
}

struct LpCtx<'a> {
    lp: &'a mut Lp,
    net: &'a NetworkModel,
    pf: PacketFaults,
}

impl LpCtx<'_> {
    /// Routes a scheduled delivery: self-sends go straight into the
    /// local queue (they never cross an LP boundary, which is why the
    /// loopback spec is excluded from the lookahead), everything else
    /// into the outbox for the barrier merge.
    fn deliver_out(
        &mut self,
        at: SimTime,
        from: Endpoint,
        to: Endpoint,
        msg: WireMsg,
        len: usize,
        stream: bool,
    ) {
        if to.node == self.lp.id {
            self.lp.enqueue(at, LpEvent::Deliver { from, to_port: to.port, msg, len, stream });
        } else {
            self.lp.outbox.push(OutMsg { at, to, from, msg, len, stream });
        }
    }

    /// Mirror of `SimInner::send_datagram_from`, drawing from the LP's
    /// private RNG stream with the identical roll order.
    fn send_datagram(&mut self, from: Endpoint, to: Endpoint, msg: &WireMsg, len: &mut Option<usize>) {
        self.lp.stats.datagrams_sent += 1;
        // Sends to down nodes still roll the dice and schedule delivery;
        // the up-check happens at delivery time so RNG consumption does
        // not depend on destination state.
        let Some(spec) = self.net.spec_between(from.node, to.node) else {
            self.lp.stats.unreachable += 1;
            if self.net.path_blocked(from.node, to.node) {
                self.lp.stats.unreachable_partitioned += 1;
            } else {
                self.lp.stats.unreachable_no_path += 1;
            }
            return;
        };
        // One spec lookup per send; the dice roll in
        // `NetworkModel::datagram_fate`'s order: loss, then latency.
        if spec.sample_loss(&mut self.lp.rng) {
            self.lp.stats.datagrams_lost += 1;
            return;
        }
        let lat = spec.sample_latency(&mut self.lp.rng);
        let len = *len.get_or_insert_with(|| msg.body_len());
        let now = self.lp.now;
        let serialized_at = self.lp.wires.serialize(from.node, to.node, now, len, &spec);
        let mut at = serialized_at + lat;
        let mut duplicate_at = None;
        if self.pf.is_active() {
            // Fixed roll order (corrupt, reorder, duplicate) so a
            // given fault window consumes an identical RNG stream
            // regardless of which probabilities are zero.
            let f = self.pf;
            let extra_ns = f.extra_delay.as_nanos() as u64;
            if f.corrupt > 0.0 && self.lp.rng.gen::<f64>() < f.corrupt {
                self.lp.stats.datagrams_corrupted += 1;
                return;
            }
            if f.reorder > 0.0 && self.lp.rng.gen::<f64>() < f.reorder {
                self.lp.stats.datagrams_reordered += 1;
                if extra_ns > 0 {
                    at += Duration::from_nanos(self.lp.rng.gen_range(0..=extra_ns));
                }
            }
            if f.duplicate > 0.0 && self.lp.rng.gen::<f64>() < f.duplicate {
                self.lp.stats.datagrams_duplicated += 1;
                let extra = if extra_ns > 0 {
                    Duration::from_nanos(self.lp.rng.gen_range(0..=extra_ns))
                } else {
                    Duration::ZERO
                };
                duplicate_at = Some(at + extra);
            }
        }
        self.deliver_out(at, from, to, msg.clone(), len, false);
        if let Some(dup_at) = duplicate_at {
            self.deliver_out(dup_at, from, to, msg.clone(), len, false);
        }
    }
}

impl Context for LpCtx<'_> {
    fn me(&self) -> NodeId {
        self.lp.id
    }

    fn realm(&self) -> RealmId {
        self.lp.realm
    }

    fn now(&self) -> SimTime {
        self.lp.now
    }

    fn utc_micros(&self) -> u64 {
        self.lp.clock.utc_micros(self.lp.now)
    }

    fn clock_synced(&self) -> bool {
        self.lp.clock.synced
    }

    fn raw_local_micros(&self) -> u64 {
        self.lp.clock.raw_local_micros(self.lp.now)
    }

    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        self.lp.clock.set_estimate_ns(est_offset_ns);
    }

    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let wire = WireMsg::new(msg.clone());
        self.send_udp_wire(from_port, to, &wire);
    }

    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let wire = WireMsg::new(msg.clone());
        self.send_stream_wire(from_port, to, &wire);
    }

    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let from = Endpoint::new(self.lp.id, from_port);
        let mut len = None;
        self.send_datagram(from, to, msg, &mut len);
    }

    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let from = Endpoint::new(self.lp.id, from_port);
        let Some(spec) = self.net.stream_spec(from.node, to.node) else {
            self.lp.stats.unreachable += 1;
            return;
        };
        let lat = spec.sample_latency(&mut self.lp.rng);
        let len = msg.body_len();
        let now = self.lp.now;
        let serialized_at = self.lp.wires.serialize(from.node, to.node, now, len, &spec);
        let at = self.lp.streams.delivery_time(from, to, serialized_at, lat);
        self.deliver_out(at, from, to, msg.clone(), len, true);
    }

    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        let from = Endpoint::new(self.lp.id, from_port);
        let recipients = self.net.multicast_recipients(group, self.lp.id);
        // One shared handle and at most one serialisation for the whole
        // fan-out; recipients iterate in ascending node order, so the
        // outbox order is deterministic.
        let wire = WireMsg::new(msg.clone());
        let mut len = None;
        for r in recipients {
            let to = Endpoint::new(r, to_port);
            self.send_datagram(from, to, &wire, &mut len);
        }
    }

    fn join_group(&mut self, group: GroupId) {
        self.lp.ops.push(DeferredOp::Join(group));
    }

    fn leave_group(&mut self, group: GroupId) {
        self.lp.ops.push(DeferredOp::Leave(group));
    }

    fn set_timer(&mut self, delay: Duration, token: u64) {
        let generation = self.lp.timers.arm(token);
        let at = self.lp.now + delay;
        self.lp.enqueue(at, LpEvent::Timer { token, generation });
    }

    fn cancel_timer(&mut self, token: u64) {
        self.lp.timers.cancel(token);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.lp.rng
    }
}

/// The epoch scheduler: an indexed binary min-heap with exactly one
/// entry per non-empty LP, keyed by that LP's true head time and
/// re-keyed in place whenever the head moves — after the LP processes
/// its window, and when the barrier merges a delivery earlier than
/// everything the destination already held. Because an entry is never
/// stale, the next horizon is a read of the root and the epoch's active
/// set is a pruned walk from it: no pop, no re-push, no validation
/// against the LP queues.
struct HeadHeap {
    /// Node ids in heap order of `head`.
    heap: Vec<u32>,
    /// `head[node]`: the LP's earliest queued time while it has an entry.
    head: Vec<SimTime>,
    /// `pos[node]`: the entry's index in `heap`, or [`HeadHeap::ABSENT`].
    pos: Vec<u32>,
}

impl HeadHeap {
    const ABSENT: u32 = u32::MAX;

    fn new(n: usize) -> HeadHeap {
        HeadHeap {
            heap: Vec::with_capacity(n),
            head: vec![SimTime::ZERO; n],
            pos: vec![HeadHeap::ABSENT; n],
        }
    }

    /// The earliest head anywhere.
    fn min(&self) -> Option<SimTime> {
        self.heap.first().map(|&node| self.head[node as usize])
    }

    /// Records `node`'s head: `Some` inserts or re-keys its entry,
    /// `None` (queue drained) removes it.
    fn set(&mut self, node: u32, head: Option<SimTime>) {
        let at = self.pos[node as usize];
        match head {
            Some(t) if at == HeadHeap::ABSENT => {
                self.head[node as usize] = t;
                self.heap.push(node);
                self.sift_up(self.heap.len() - 1);
            }
            Some(t) => {
                let earlier = t < self.head[node as usize];
                self.head[node as usize] = t;
                if earlier {
                    self.sift_up(at as usize);
                } else {
                    self.sift_down(at as usize);
                }
            }
            None if at == HeadHeap::ABSENT => {}
            None => {
                self.pos[node as usize] = HeadHeap::ABSENT;
                let last = self.heap.pop().expect("an entry implies a non-empty heap");
                if last != node {
                    // Re-home the displaced tail entry in the hole.
                    self.heap[at as usize] = last;
                    self.pos[last as usize] = at;
                    self.sift_up(at as usize);
                    self.sift_down(self.pos[last as usize] as usize);
                }
            }
        }
    }

    /// A delivery at `t` was merged into `node`'s queue: its head moves
    /// only if `t` is earlier than everything it already held.
    fn lower(&mut self, node: u32, t: SimTime) {
        if self.pos[node as usize] == HeadHeap::ABSENT || t < self.head[node as usize] {
            self.set(node, Some(t));
        }
    }

    /// Fills `out` with every node whose head lies below `horizon`,
    /// ascending by id. Walks only the heap's sub-tree of such entries
    /// (a child is never earlier than its parent), using `out` itself as
    /// the worklist of heap indices.
    fn below(&self, horizon: SimTime, out: &mut Vec<u32>) {
        out.clear();
        let early = |i: usize| {
            self.heap.get(i).is_some_and(|&node| self.head[node as usize] < horizon)
        };
        if early(0) {
            out.push(0);
        }
        let mut next = 0;
        while let Some(&i) = out.get(next) {
            for child in [2 * i as usize + 1, 2 * i as usize + 2] {
                if early(child) {
                    out.push(child as u32);
                }
            }
            next += 1;
        }
        for slot in out.iter_mut() {
            *slot = self.heap[*slot as usize];
        }
        out.sort_unstable();
    }

    fn key(&self, i: usize) -> SimTime {
        self.head[self.heap[i] as usize]
    }

    fn place(&mut self, i: usize, node: u32) {
        self.heap[i] = node;
        self.pos[node as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let node = self.heap[i];
        let t = self.head[node as usize];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.key(parent) <= t {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, node);
    }

    fn sift_down(&mut self, mut i: usize) {
        let node = self.heap[i];
        let t = self.head[node as usize];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.key(child + 1) < self.key(child) {
                child += 1;
            }
            if t <= self.key(child) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, node);
    }

    /// The oracle the scheduler is checked against in debug builds
    /// (every `cargo test` epoch): a scan of every LP queue. The heap
    /// must hold one entry per non-empty LP at its true head, and the
    /// scan's horizon floor and active set must be the scheduler's.
    fn assert_matches_scan(&self, groups: &[Vec<Lp>], horizon: SimTime, active: &[u32]) {
        let mut non_empty = 0;
        let mut earliest = None;
        let mut below = Vec::new();
        for lp in groups.iter().flatten() {
            let node = lp.id.0 as usize;
            let Some(q) = lp.queue.peek() else {
                assert_eq!(self.pos[node], HeadHeap::ABSENT, "entry for drained LP {node}");
                continue;
            };
            non_empty += 1;
            assert_ne!(self.pos[node], HeadHeap::ABSENT, "no entry for LP {node}");
            assert_eq!(self.heap[self.pos[node] as usize], lp.id.0, "misplaced entry of LP {node}");
            assert_eq!(self.head[node], q.at, "stale head for LP {node}");
            if earliest.is_none_or(|m| q.at < m) {
                earliest = Some(q.at);
            }
            if q.at < horizon {
                below.push(lp.id.0);
            }
        }
        below.sort_unstable();
        assert_eq!(self.heap.len(), non_empty, "one entry per non-empty LP");
        assert_eq!(self.min(), earliest, "horizon floor");
        assert_eq!(active, below, "active set");
    }
}

/// One epoch's worth of work handed to a worker: the LPs of one group,
/// an immutable network snapshot and the horizon. Ownership-passing —
/// nothing here is shared mutably across threads.
struct EpochTask {
    gidx: usize,
    lps: Vec<Lp>,
    /// Slots (within `lps`) that actually have events this epoch; the
    /// worker touches only these, so a mostly-idle group costs O(active)
    /// rather than O(group).
    active_slots: Vec<usize>,
    net: Arc<NetworkModel>,
    pf: PacketFaults,
    horizon: SimTime,
}

/// Cached topology products: the shard plan and the lookahead window,
/// both pure functions of the network model. Recomputed whenever the
/// model may have changed ([`ShardedSim::network_mut`], node additions)
/// — so every `run_until` sees exactly the values an uncached run would
/// have derived, without paying the O(n²)/O(E) planning walk per call.
struct TopoCache {
    plan: ShardPlan,
    lookahead: Duration,
    nodes: usize,
    shards: usize,
}

/// The sharded simulator. API mirrors [`Sim`] (construction, node
/// management, faults, injection, `run_for`/`run_until`, actor access)
/// plus [`ShardedSim::digest`], [`ShardedSim::set_workers`] and
/// [`ShardedSim::set_shards`].
pub struct ShardedSim {
    seed: u64,
    now: SimTime,
    lps: Vec<Lp>,
    network: Arc<NetworkModel>,
    clock_profile: ClockProfile,
    packet_faults: PacketFaults,
    /// Globally-scoped faults (partitions, packet-fault windows), keyed
    /// `(time, schedule seq)`; applied between epochs.
    global_faults: BTreeMap<(SimTime, u64), Fault>,
    gseq: u64,
    workers: usize,
    shards: Option<usize>,
    topo_cache: Option<TopoCache>,
}

impl ShardedSim {
    /// A sharded simulator with the given RNG root seed and the paper's
    /// clock profile. Defaults to one worker — parallelism is opt-in.
    pub fn new(seed: u64) -> ShardedSim {
        ShardedSim::with_clock_profile(seed, ClockProfile::paper())
    }

    /// A sharded simulator whose nodes all use `profile` for clocks.
    pub fn with_clock_profile(seed: u64, profile: ClockProfile) -> ShardedSim {
        ShardedSim {
            seed,
            now: SimTime::ZERO,
            lps: Vec::new(),
            network: Arc::new(NetworkModel::new()),
            clock_profile: profile,
            packet_faults: PacketFaults::none(),
            global_faults: BTreeMap::new(),
            gseq: 0,
            workers: 1,
            shards: None,
            topo_cache: None,
        }
    }

    /// Sets the worker-thread count (≥ 1). Results are identical for
    /// every value; only wall time changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Pins the executor-group count independently of the worker count
    /// (by default one group per worker). Results are identical for
    /// every value.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = Some(shards.max(1));
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Current (coordinator) virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregated traffic counters, folded over LPs in node order.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for lp in &self.lps {
            total.merge(&lp.stats);
        }
        total
    }

    /// Events processed since construction, summed over LPs.
    pub fn events_processed(&self) -> u64 {
        self.lps.iter().map(|lp| lp.events_processed).sum()
    }

    /// The run digest: an FNV-1a fold, in node order, of every LP's
    /// event-stream digest and event count. Byte-identical across
    /// worker and shard counts: `crates/bench/tests/sharded_determinism.rs`
    /// compares exactly this value, and the scale campaign's tier rows
    /// carry it into the report `tools/bench.sh scale` byte-compares at
    /// 1 and 4 workers.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for lp in &self.lps {
            mix(&mut h, lp.id.0 as u64);
            mix(&mut h, lp.events_processed);
            mix(&mut h, lp.digest);
        }
        h
    }

    /// The static network model (latencies, partitions, groups).
    /// Coordinator-time only; epochs snapshot it immutably. Handing out
    /// the mutable borrow drops the cached plan/lookahead — the caller
    /// may be about to change what they are derived from.
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        self.topo_cache = None;
        Arc::make_mut(&mut self.network)
    }

    /// Read-only network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Adds a node running `actor` in `realm`.
    pub fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        let profile = self.clock_profile;
        self.add_node_with_clock(name, realm, profile, actor)
    }

    /// Adds a node with an explicit clock profile. The node's clock is
    /// sampled from its *own* RNG stream (first draws), so it is a pure
    /// function of (seed, node id) — not of insertion interleaving with
    /// other nodes' traffic, and not of worker count.
    pub fn add_node_with_clock(
        &mut self,
        name: &str,
        realm: RealmId,
        profile: ClockProfile,
        actor: Box<dyn Actor>,
    ) -> NodeId {
        let id = NodeId(self.lps.len() as u32);
        self.topo_cache = None;
        let mut rng = StdRng::seed_from_u64(self.seed ^ id.0 as u64);
        let clock = profile.sample(self.now, &mut rng);
        let sync_at = clock.sync_at;
        Arc::make_mut(&mut self.network).register_node(id, realm);
        let mut lp = Lp::new(id, name, realm, clock, rng);
        lp.now = self.now;
        lp.actor = Some(actor);
        let now = self.now;
        lp.enqueue(now, LpEvent::Start);
        lp.enqueue(sync_at, LpEvent::ClockSync);
        self.lps.push(lp);
        id
    }

    /// Human-readable node name.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.lps.get(node.0 as usize).map_or("?", |lp| lp.name.as_str())
    }

    /// The node's UTC estimate right now (what its protocol code sees).
    pub fn utc_of(&self, node: NodeId) -> Option<u64> {
        self.lps.get(node.0 as usize).map(|lp| lp.clock.utc_micros(self.now))
    }

    /// Immutable access to a node's actor, downcast to `T`.
    pub fn actor<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.lps.get(node.0 as usize)?.actor.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable access to a node's actor, downcast to `T`.
    pub fn actor_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.lps.get_mut(node.0 as usize)?.actor.as_mut()?.as_any_mut().downcast_mut::<T>()
    }

    /// Immutable access to a node's actor as a trait object.
    pub fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor> {
        self.lps.get(node.0 as usize)?.actor.as_deref()
    }

    /// Mutable access to a node's actor as a trait object.
    pub fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
        match self.lps.get_mut(node.0 as usize) {
            Some(lp) => match lp.actor.as_mut() {
                Some(actor) => Some(actor.as_mut()),
                None => None,
            },
            None => None,
        }
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.lps.get(node.0 as usize).is_some_and(|lp| lp.up)
    }

    #[cfg(test)]
    pub(crate) fn armed_timer_slots(&self, node: NodeId) -> usize {
        self.lps.get(node.0 as usize).map_or(0, |lp| lp.timers.len())
    }

    /// Marks a node down immediately (coordinator time).
    pub fn crash(&mut self, node: NodeId) {
        for lp in &mut self.lps {
            if lp.id != node {
                lp.streams.reset_node(node);
                lp.wires.reset_node(node);
            }
        }
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.up = false;
            lp.timers.clear();
            lp.streams.reset_node(node);
            lp.wires.reset_node(node);
        }
    }

    /// Revives a crashed node and re-runs its `on_start`.
    pub fn revive(&mut self, node: NodeId) {
        let now = self.now;
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.up = true;
            lp.enqueue(now, LpEvent::Start);
        }
    }

    /// Registers the factory that rebuilds `node`'s actor on a lossy
    /// restart.
    pub fn set_respawn(&mut self, node: NodeId, factory: ShardRespawnFn) {
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.respawn = Some(factory);
        }
    }

    /// Restarts a node: crash (if still up) then revive; with
    /// `lose_state` the actor is rebuilt from its respawn factory.
    pub fn restart(&mut self, node: NodeId, lose_state: bool) {
        if self.is_up(node) {
            self.crash(node);
        }
        if lose_state {
            if let Some(lp) = self.lps.get_mut(node.0 as usize) {
                if let Some(factory) = lp.respawn.as_mut() {
                    lp.actor = Some(factory());
                }
            }
        }
        self.revive(node);
    }

    /// Queues every fault in `plan`, offset from the current virtual
    /// time. Node-scoped faults land in the owning node's shard queue;
    /// globally-scoped ones go to the coordinator's schedule.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            let at = self.now + ev.at;
            self.schedule_fault_at(at, ev.fault.clone());
        }
    }

    /// Queues a single fault after `delay`.
    pub fn schedule_fault(&mut self, delay: Duration, fault: Fault) {
        let at = self.now + delay;
        self.schedule_fault_at(at, fault);
    }

    fn schedule_fault_at(&mut self, at: SimTime, fault: Fault) {
        match fault {
            Fault::Crash { node }
            | Fault::Restart { node, .. }
            | Fault::Stall { node, .. }
            | Fault::ClockStep { node, .. } => {
                if let Some(lp) = self.lps.get_mut(node.0 as usize) {
                    lp.enqueue(at, LpEvent::Fault { fault });
                }
            }
            _ => {
                self.global_faults.insert((at, self.gseq), fault);
                self.gseq += 1;
            }
        }
    }

    fn apply_global_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Partition { a, b } => Arc::make_mut(&mut self.network).partition(a, b),
            Fault::Heal { a, b } => Arc::make_mut(&mut self.network).heal(a, b),
            Fault::PartitionOneWay { from, to } => {
                Arc::make_mut(&mut self.network).partition_one_way(from, to);
            }
            Fault::HealOneWay { from, to } => {
                Arc::make_mut(&mut self.network).heal_one_way(from, to);
            }
            Fault::SetPacketFaults { faults } => self.packet_faults = faults,
            Fault::ClearPacketFaults => self.packet_faults = PacketFaults::none(),
            // Node-scoped faults are routed to LP queues at scheduling
            // time and never reach here.
            _ => {}
        }
    }

    /// Sets the per-datagram fault probabilities immediately.
    pub fn set_packet_faults(&mut self, faults: PacketFaults) {
        self.packet_faults = faults;
    }

    /// Enables or disables multicast delivery network-wide.
    pub fn set_multicast_enabled(&mut self, enabled: bool) {
        Arc::make_mut(&mut self.network).multicast_enabled = enabled;
    }

    /// Queues an [`Incoming`] for delivery to `node` after `delay`.
    pub fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
        let at = self.now + delay;
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.enqueue(at, LpEvent::Inject { incoming });
        }
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until virtual time reaches `deadline`, processing every
    /// event scheduled at or before it, epoch by epoch.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.lps.is_empty() {
            // Still consume due global faults so schedules don't leak
            // across runs, then advance time.
            while let Some((&key, _)) = self.global_faults.iter().next() {
                if key.0 > deadline {
                    break;
                }
                let fault = self.global_faults.remove(&key).expect("keyed");
                if self.now < key.0 {
                    self.now = key.0;
                }
                self.apply_global_fault(fault);
            }
            if self.now < deadline {
                self.now = deadline;
            }
            return;
        }
        let n = self.lps.len();
        let shard_count = self.shards.unwrap_or(self.workers).clamp(1, n);
        let cache_ok = self
            .topo_cache
            .as_ref()
            .is_some_and(|c| c.nodes == n && c.shards == shard_count);
        if !cache_ok {
            self.topo_cache = Some(TopoCache {
                plan: ShardPlan::partition(&self.network, n, shard_count),
                lookahead: self.network.min_cross_node_latency().max(Duration::from_nanos(1)),
                nodes: n,
                shards: shard_count,
            });
        }
        let cache = self.topo_cache.as_ref().expect("just ensured");
        let lookahead = cache.lookahead;
        let plan_shards = cache.plan.shards;
        let assignment = cache.plan.assignment.clone();

        // Deal the LPs out to their executor groups. `index[node]` maps
        // back to `(group, slot)` for the barrier's node-order walks.
        let mut groups: Vec<Vec<Lp>> = (0..plan_shards).map(|_| Vec::new()).collect();
        let mut index = vec![(0usize, 0usize); n];
        for (node, lp) in self.lps.drain(..).enumerate() {
            let g = assignment[node];
            index[node] = (g, groups[g].len());
            groups[g].push(lp);
        }

        let mut heads = HeadHeap::new(n);
        for lp in groups.iter().flatten() {
            heads.set(lp.id.0, lp.queue.peek().map(|q| q.at));
        }
        let mut active: Vec<u32> = Vec::new();

        let workers = self.workers.min(plan_shards).max(1);
        if workers == 1 {
            while let Some(horizon) =
                self.next_active_epoch(&groups, &mut heads, deadline, lookahead, &mut active)
            {
                for &node in &active {
                    let (g, s) = index[node as usize];
                    let lp = &mut groups[g][s];
                    lp.process_until(horizon, &self.network, self.packet_faults);
                    heads.set(node, lp.queue.peek().map(|q| q.at));
                }
                self.barrier(&mut groups, &index, &active, &mut heads);
                let reached = if horizon < deadline { horizon } else { deadline };
                if self.now < reached {
                    self.now = reached;
                }
            }
        } else {
            self.run_epochs_threaded(
                &mut groups, &index, deadline, lookahead, workers, &mut heads, &mut active,
            );
        }

        // Put the LPs back in node order and let their local clocks
        // catch up to the coordinator's.
        let mut slots: Vec<Option<Lp>> = (0..n).map(|_| None).collect();
        for group in groups {
            for lp in group {
                let i = lp.id.0 as usize;
                slots[i] = Some(lp);
            }
        }
        self.lps = slots.into_iter().map(|s| s.expect("every LP returns")).collect();
        if self.now < deadline {
            self.now = deadline;
        }
        for lp in &mut self.lps {
            if lp.now < self.now {
                lp.now = self.now;
            }
        }
    }

    /// Computes the next epoch's safe horizon, applying due global
    /// faults first, and leaves the epoch's active set — the ids,
    /// ascending, of the LPs whose head lies below it — in `active`.
    /// Returns `None` when nothing remains at or before `deadline`.
    ///
    /// Safety sketch: let `m` be the earliest pending event anywhere
    /// and `L` the lookahead. Any event executing at `t ∈ [m, H)` with
    /// `H = m + L` can only schedule a cross-LP delivery at
    /// `t + spec.latency + extras ≥ m + L = H` (wire serialisation
    /// starts no earlier than `t`, jitter and stream setup are
    /// non-negative), so no delivery merged at the barrier lands inside
    /// the epoch that produced it. The horizon additionally never
    /// crosses the next global fault (the model must not change
    /// mid-epoch) nor `deadline` (events *at* the deadline run,
    /// matching `Sim::run_until`, hence the +1 ns).
    fn next_active_epoch(
        &mut self,
        groups: &[Vec<Lp>],
        heads: &mut HeadHeap,
        deadline: SimTime,
        lookahead: Duration,
        active: &mut Vec<u32>,
    ) -> Option<SimTime> {
        loop {
            let m = heads.min();
            if let Some((&key, _)) = self.global_faults.iter().next() {
                let due = m.is_none_or(|m| key.0 <= m);
                if due && key.0 <= deadline {
                    let fault = self.global_faults.remove(&key).expect("keyed");
                    if self.now < key.0 {
                        self.now = key.0;
                    }
                    self.apply_global_fault(fault);
                    continue;
                }
            }
            let m = m?;
            if m > deadline {
                return None;
            }
            let mut horizon = m + lookahead;
            if let Some((&(at, _), _)) = self.global_faults.iter().next() {
                if at < horizon {
                    horizon = at;
                }
            }
            let cap = deadline + Duration::from_nanos(1);
            if cap < horizon {
                horizon = cap;
            }
            heads.below(horizon, active);
            if cfg!(debug_assertions) {
                heads.assert_matches_scan(groups, horizon, active);
            }
            return Some(horizon);
        }
    }

    /// The epoch barrier: applies deferred network ops, then merges
    /// every outbox into its destination queue — both in ascending node
    /// order, so sequence assignment is a pure function of the event
    /// streams themselves. Only the epoch's active LPs are walked: an LP
    /// that processed nothing since the last barrier has an empty outbox
    /// and no deferred ops, and `active` is sorted, so the walk order is
    /// exactly the historical full 0..n ascending sweep minus its
    /// no-ops. A merged delivery that becomes its destination's head
    /// re-keys the scheduler entry; outboxes are drained in place, so an
    /// LP that sends every epoch allocates its buffer once.
    fn barrier(
        &mut self,
        groups: &mut [Vec<Lp>],
        index: &[(usize, usize)],
        active: &[u32],
        heads: &mut HeadHeap,
    ) {
        let mut ops: Vec<(NodeId, DeferredOp)> = Vec::new();
        for &node in active {
            let (g, i) = index[node as usize];
            for op in groups[g][i].ops.drain(..) {
                ops.push((NodeId(node), op));
            }
        }
        for (node, op) in ops {
            match op {
                DeferredOp::Join(group) => {
                    Arc::make_mut(&mut self.network).join_group(group, node);
                }
                DeferredOp::Leave(group) => {
                    Arc::make_mut(&mut self.network).leave_group(group, node);
                }
                DeferredOp::ResetPeer => {
                    for g in groups.iter_mut() {
                        for lp in g.iter_mut() {
                            if lp.id != node {
                                lp.streams.reset_node(node);
                                lp.wires.reset_node(node);
                            }
                        }
                    }
                }
            }
        }
        for &node in active {
            let (g, i) = index[node as usize];
            // Checked out so destinations can be borrowed while it
            // drains (a sender is never its own cross-LP destination).
            let mut outbox = std::mem::take(&mut groups[g][i].outbox);
            for m in outbox.drain(..) {
                let dest = m.to.node.0;
                let (dg, di) = index[dest as usize];
                heads.lower(dest, m.at);
                groups[dg][di].enqueue(
                    m.at,
                    LpEvent::Deliver {
                        from: m.from,
                        to_port: m.to.port,
                        msg: m.msg,
                        len: m.len,
                        stream: m.stream,
                    },
                );
            }
            groups[g][i].outbox = outbox;
        }
    }

    /// The worker-pool epoch loop. Whole LP groups travel through
    /// channels: a worker owns the group for the duration of one epoch
    /// and hands it back, so there is no shared mutable state at all —
    /// the coordinator is the only thread alive at every barrier.
    #[allow(clippy::too_many_arguments)]
    fn run_epochs_threaded(
        &mut self,
        groups: &mut Vec<Vec<Lp>>,
        index: &[(usize, usize)],
        deadline: SimTime,
        lookahead: Duration,
        workers: usize,
        heads: &mut HeadHeap,
        active: &mut Vec<u32>,
    ) {
        let (result_tx, result_rx) = mpsc::channel::<(usize, Vec<Lp>, Vec<usize>)>();
        // Per-group active-slot buckets, reused across epochs.
        let mut group_slots: Vec<Vec<usize>> = (0..groups.len()).map(|_| Vec::new()).collect();
        std::thread::scope(|scope| {
            // One queue per worker; group `g` always runs on worker
            // `g % workers`. The senders drop with this closure, which is
            // what ends the workers before the scope joins them.
            let task_txs: Vec<mpsc::Sender<EpochTask>> = (0..workers)
                .map(|_| {
                    let (task_tx, task_rx) = mpsc::channel::<EpochTask>();
                    let result_tx = result_tx.clone();
                    scope.spawn(move || {
                        while let Ok(mut task) = task_rx.recv() {
                            for &slot in &task.active_slots {
                                task.lps[slot].process_until(task.horizon, &task.net, task.pf);
                            }
                            if result_tx.send((task.gidx, task.lps, task.active_slots)).is_err() {
                                break;
                            }
                        }
                    });
                    task_tx
                })
                .collect();
            while let Some(horizon) =
                self.next_active_epoch(groups, heads, deadline, lookahead, active)
            {
                for &node in active.iter() {
                    let (g, s) = index[node as usize];
                    group_slots[g].push(s);
                }
                let mut outstanding = 0usize;
                for (gidx, slots) in group_slots.iter_mut().enumerate() {
                    if slots.is_empty() {
                        continue;
                    }
                    let lps = std::mem::take(&mut groups[gidx]);
                    let sent = task_txs[gidx % workers].send(EpochTask {
                        gidx,
                        lps,
                        active_slots: std::mem::take(slots),
                        net: Arc::clone(&self.network),
                        pf: self.packet_faults,
                        horizon,
                    });
                    assert!(sent.is_ok(), "workers outlive the epoch loop");
                    outstanding += 1;
                }
                for _ in 0..outstanding {
                    let (gidx, lps, slots) = result_rx.recv().expect("worker returns its group");
                    groups[gidx] = lps;
                    for slot in slots {
                        let lp = &groups[gidx][slot];
                        heads.set(lp.id.0, lp.queue.peek().map(|q| q.at));
                    }
                }
                self.barrier(groups, index, active, heads);
                let reached = if horizon < deadline { horizon } else { deadline };
                if self.now < reached {
                    self.now = reached;
                }
            }
        });
    }
}

/// The engine surface scenario builders program against, so one
/// topology-construction path can target both the reference serial
/// engine and the sharded engine (`crates/core`'s `ScenarioBuilder`
/// builds through this trait).
pub trait DiscoveryEngine {
    /// Adds a node running `actor` in `realm`.
    fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId;
    /// The mutable network model (coordinator time).
    fn network_mut(&mut self) -> &mut NetworkModel;
    /// A node's actor as a trait object.
    fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor>;
    /// Mutable counterpart of [`DiscoveryEngine::actor_dyn`].
    fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor>;
    /// Queues an [`Incoming`] for `node` after `delay`.
    fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming);
    /// Runs for `d` of virtual time.
    fn run_for(&mut self, d: Duration);
    /// Current virtual time.
    fn now(&self) -> SimTime;
}

impl DiscoveryEngine for Sim {
    fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        Sim::add_node(self, name, realm, actor)
    }
    fn network_mut(&mut self) -> &mut NetworkModel {
        Sim::network_mut(self)
    }
    fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor> {
        Sim::actor_dyn(self, node)
    }
    fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
        Sim::actor_dyn_mut(self, node)
    }
    fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
        Sim::inject(self, node, delay, incoming);
    }
    fn run_for(&mut self, d: Duration) {
        Sim::run_for(self, d);
    }
    fn now(&self) -> SimTime {
        Sim::now(self)
    }
}

impl DiscoveryEngine for ShardedSim {
    fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        ShardedSim::add_node(self, name, realm, actor)
    }
    fn network_mut(&mut self) -> &mut NetworkModel {
        ShardedSim::network_mut(self)
    }
    fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor> {
        ShardedSim::actor_dyn(self, node)
    }
    fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
        ShardedSim::actor_dyn_mut(self, node)
    }
    fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
        ShardedSim::inject(self, node, delay, incoming);
    }
    fn run_for(&mut self, d: Duration) {
        ShardedSim::run_for(self, d);
    }
    fn now(&self) -> SimTime {
        ShardedSim::now(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosProfile, ChaosTargets};
    use crate::impl_actor_any;
    use crate::link::LinkSpec;
    use nb_wire::addr::well_known;
    use std::collections::HashMap;

    /// Echoes every ping as a pong from the same port.
    #[derive(Default)]
    struct Echo {
        pings_seen: u32,
    }

    impl Actor for Echo {
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Datagram { to_port, msg, .. } = event {
                if let Message::Ping { nonce, sent_at, reply_to } = *msg.message() {
                    self.pings_seen += 1;
                    let pong =
                        Message::Pong { nonce, echoed_sent_at: sent_at, responder: ctx.me() };
                    ctx.send_udp(to_port, reply_to, &pong);
                }
            }
        }
        impl_actor_any!();
    }

    /// Sends pings on start, records the pong RTTs by its local clock.
    struct Pinger {
        target: NodeId,
        rtts: Vec<Duration>,
        sent: HashMap<u64, SimTime>,
        timer_fired: u32,
    }

    impl Pinger {
        fn new(target: NodeId) -> Pinger {
            Pinger { target, rtts: Vec::new(), sent: HashMap::new(), timer_fired: 0 }
        }
    }

    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            for nonce in 0..5u64 {
                let ping = Message::Ping {
                    nonce,
                    sent_at: ctx.now().as_micros(),
                    reply_to: Endpoint::new(ctx.me(), well_known::PING),
                };
                self.sent.insert(nonce, ctx.now());
                ctx.send_udp(well_known::PING, Endpoint::new(self.target, well_known::PING), &ping);
            }
            ctx.set_timer(Duration::from_secs(1), 7);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            match event {
                Incoming::Datagram { msg, .. } => {
                    if let Message::Pong { nonce, .. } = msg.message() {
                        let sent = self.sent[nonce];
                        self.rtts.push(ctx.now() - sent);
                    }
                }
                Incoming::Timer { token: 7 } => self.timer_fired += 1,
                _ => {}
            }
        }
        impl_actor_any!();
    }

    fn lossless(sim: &mut ShardedSim) {
        sim.network_mut().local_spec = LinkSpec::local().with_loss(0.0);
        sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
        sim.network_mut().inter_realm_spec =
            LinkSpec::wan(Duration::from_millis(40)).with_loss(0.0);
    }

    /// Three echo/pinger pairs spread over three realms, paper clocks,
    /// a light chaos plan: a workload exercising RNG streams, timers,
    /// faults and cross-realm traffic.
    fn mixed_workload(workers: usize, shards: usize) -> (u64, u64, u64) {
        let mut sim = ShardedSim::new(42);
        sim.set_workers(workers);
        sim.set_shards(shards);
        let mut echoes = Vec::new();
        for i in 0..3u32 {
            let echo = sim.add_node(&format!("echo-{i}"), RealmId(0), Box::new(Echo::default()));
            sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
            echoes.push(echo);
        }
        let mut pingers = Vec::new();
        for (i, &echo) in echoes.iter().enumerate() {
            let realm = RealmId(1 + (i as u16 % 2));
            let p = sim.add_node(&format!("pinger-{i}"), realm, Box::new(Pinger::new(echo)));
            pingers.push(p);
        }
        let targets = ChaosTargets { bdns: vec![echoes[0]], brokers: echoes[1..].to_vec(), clients: pingers };
        let plan =
            FaultPlan::generate(42, &ChaosProfile::light(), &targets, Duration::from_secs(6));
        sim.apply_fault_plan(&plan);
        sim.run_for(Duration::from_secs(8));
        (sim.digest(), sim.events_processed(), sim.stats().datagrams_delivered)
    }

    /// The scheduler heap against a plain table of heads, under a
    /// seeded stream of the three updates the epoch loop makes: an LP's
    /// head moves later (it processed its window), a merge lowers it,
    /// its queue drains. (Every epoch of every test in this crate and
    /// of `crates/bench/tests/sharded_determinism.rs` re-checks the
    /// same agreement against the real LP queues — see
    /// `HeadHeap::assert_matches_scan`.)
    #[test]
    fn head_heap_agrees_with_a_scanned_table() {
        const N: usize = 37;
        let mut rng = StdRng::seed_from_u64(11);
        let mut heap = HeadHeap::new(N);
        let mut table: Vec<Option<SimTime>> = vec![None; N];
        let mut active = Vec::new();
        for _ in 0..20_000 {
            let node = rng.gen_range(0..N);
            let t = SimTime::from_millis(rng.gen_range(0..50u64));
            match rng.gen_range(0..4u32) {
                0 => {
                    table[node] = None;
                    heap.set(node as u32, None);
                }
                1 => {
                    table[node] = Some(t);
                    heap.set(node as u32, Some(t));
                }
                _ => {
                    if table[node].is_none_or(|head| t < head) {
                        table[node] = Some(t);
                    }
                    heap.lower(node as u32, t);
                }
            }
            assert_eq!(heap.heap.len(), table.iter().flatten().count(), "one entry per head");
            assert_eq!(heap.min(), table.iter().flatten().min().copied());
            let horizon = SimTime::from_millis(rng.gen_range(0..60u64));
            heap.below(horizon, &mut active);
            let scanned: Vec<u32> = (0..N as u32)
                .filter(|&n| table[n as usize].is_some_and(|head| head < horizon))
                .collect();
            assert_eq!(active, scanned);
        }
    }

    #[test]
    fn digest_invariant_across_workers_and_shards() {
        let reference = mixed_workload(1, 1);
        for (workers, shards) in [(1, 2), (2, 2), (4, 4), (1, 4), (4, 2), (3, 3), (2, 6)] {
            assert_eq!(
                mixed_workload(workers, shards),
                reference,
                "diverged at workers={workers} shards={shards}"
            );
        }
    }

    #[test]
    fn ping_pong_rtt_matches_link_latency() {
        let mut sim = ShardedSim::with_clock_profile(1, ClockProfile::perfect());
        sim.set_workers(2);
        sim.set_shards(2);
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        let p: &Pinger = sim.actor(pinger).unwrap();
        assert_eq!(p.rtts.len(), 5);
        let spec = sim.network().inter_realm_spec;
        for rtt in &p.rtts {
            assert!(*rtt >= spec.latency * 2, "rtt {rtt:?}");
            assert!(*rtt <= (spec.latency + spec.jitter) * 2, "rtt {rtt:?}");
        }
        assert_eq!(p.timer_fired, 1);
        let e: &Echo = sim.actor(echo).unwrap();
        assert_eq!(e.pings_seen, 5);
    }

    #[test]
    fn crash_drops_traffic_and_revive_restores() {
        let mut sim = ShardedSim::with_clock_profile(3, ClockProfile::perfect());
        sim.set_workers(2);
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.crash(echo);
        assert!(!sim.is_up(echo));
        sim.run_for(Duration::from_secs(2));
        let p: &Pinger = sim.actor(pinger).unwrap();
        assert!(p.rtts.is_empty());
        assert!(sim.stats().dropped_node_down > 0);
        sim.revive(echo);
        assert!(sim.is_up(echo));
        let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        let p2: &Pinger = sim.actor(pinger2).unwrap();
        assert_eq!(p2.rtts.len(), 5);
    }

    #[test]
    fn stall_defers_delivery_until_it_ends() {
        let mut sim = ShardedSim::with_clock_profile(4, ClockProfile::perfect());
        sim.set_workers(2);
        sim.set_shards(2);
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.schedule_fault(Duration::ZERO, Fault::Stall { node: echo, dur: Duration::from_secs(3) });
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0, "stalled node is frozen");
        sim.run_for(Duration::from_secs(4));
        let p: &Pinger = sim.actor(pinger).unwrap();
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5, "deferred events replay");
        assert_eq!(p.rtts.len(), 5);
        for rtt in &p.rtts {
            assert!(*rtt >= Duration::from_secs(3), "replies waited out the stall: {rtt:?}");
        }
    }

    #[test]
    fn lossy_restart_rebuilds_actor_from_respawn_factory() {
        let mut sim = ShardedSim::with_clock_profile(9, ClockProfile::perfect());
        lossless(&mut sim);
        let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
        sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
        sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
        sim.restart(echo, false);
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
        sim.restart(echo, true);
        assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0);
        sim.run_for(Duration::from_secs(1));
        let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
        sim.run_for(Duration::from_secs(2));
        assert_eq!(sim.actor::<Pinger>(pinger2).unwrap().rtts.len(), 5);
    }

    #[test]
    fn packet_fault_window_via_global_fault_is_deterministic() {
        let run = |workers: usize| {
            let mut sim = ShardedSim::with_clock_profile(6, ClockProfile::perfect());
            sim.set_workers(workers);
            sim.set_shards(4);
            lossless(&mut sim);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            sim.schedule_fault(
                Duration::ZERO,
                Fault::SetPacketFaults { faults: PacketFaults::unruly() },
            );
            sim.schedule_fault(Duration::from_secs(1), Fault::ClearPacketFaults);
            sim.run_for(Duration::from_secs(3));
            (sim.digest(), sim.events_processed())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn shard_plan_co_locates_chatty_pairs_and_balances() {
        let mut net = NetworkModel::new();
        for i in 0..4u32 {
            net.register_node(NodeId(i), RealmId(i as u16));
        }
        // Nodes 0 and 3 sit behind the same fast link.
        net.set_link(NodeId(0), NodeId(3), LinkSpec::local());
        let plan = ShardPlan::partition(&net, 4, 2);
        assert_eq!(plan, ShardPlan::partition(&net, 4, 2), "plan is deterministic");
        assert_eq!(plan.assignment[0], plan.assignment[3], "chatty pair co-locates");
        for g in 0..2 {
            let size = plan.assignment.iter().filter(|&&a| a == g).count();
            assert!(size <= 2, "group {g} holds {size} > cap");
        }
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = ShardedSim::new(0);
        sim.add_node("idle", RealmId(0), Box::new(crate::runtime::IdleActor));
        sim.run_until(SimTime::from_secs(30));
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    fn multicast_joins_visible_after_barrier() {
        /// Joins a group on start; multicasts into it after 100 ms.
        struct Caster {
            group: GroupId,
            heard: u32,
        }
        impl Actor for Caster {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.join_group(self.group);
                ctx.set_timer(Duration::from_millis(100), 1);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                match event {
                    Incoming::Timer { token: 1 } => {
                        let ping = Message::Ping {
                            nonce: ctx.me().0 as u64,
                            sent_at: 0,
                            reply_to: Endpoint::new(ctx.me(), well_known::PING),
                        };
                        ctx.send_multicast(well_known::PING, self.group, well_known::PING, &ping);
                    }
                    Incoming::Datagram { .. } => self.heard += 1,
                    _ => {}
                }
            }
            impl_actor_any!();
        }
        let group = GroupId(7);
        let mut sim = ShardedSim::with_clock_profile(8, ClockProfile::perfect());
        sim.set_workers(2);
        lossless(&mut sim);
        sim.set_multicast_enabled(true);
        let a = sim.add_node("a", RealmId(0), Box::new(Caster { group, heard: 0 }));
        let b = sim.add_node("b", RealmId(0), Box::new(Caster { group, heard: 0 }));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.actor::<Caster>(a).unwrap().heard, 1);
        assert_eq!(sim.actor::<Caster>(b).unwrap().heard, 1);
    }
}
