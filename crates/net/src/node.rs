//! The node model the engine runs.
//!
//! A node of [`crate::shard::ShardedSim`] is a [`Host`] — the [`Node`] (identity,
//! clock, liveness, armed timers, its actor), its [`Transport`] (its own
//! RNG stream and connections) and its emission counter — the
//! [`NodeEvent`]s addressed to it, the [`Key`] and [`EventHeap`] order
//! they come due in, the admission rules a due event passes
//! ([`NodeCtx::handle`]), the node-scoped fault rules
//! ([`NodeCtx::apply_fault`]) and the [`Context`] its actor acts
//! through, the v2 link codec's encode and decode included. All of that
//! is stated here once; the send path it uses is [`Transport`]'s,
//! beside the link model. Every event names the node it is for; a fault
//! is not an event.
//!
//! What the engine adds is where a scheduled event goes (the running
//! worker's [`Executor`]) and the [`NetSchedule`] of changes that land
//! between events — every fault, node-scoped or network-wide, and the
//! group changes and peer resets nodes emit (DESIGN.md §8).

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Duration;

use nb_wire::v2::decode_segment_into;
use nb_wire::{Bytes, Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::chaos::Fault;
use crate::clock::{ClockProfile, ClockState};
use crate::link::{NetworkModel, Transport};
use crate::runtime::{Actor, Context, Incoming};
use crate::shard::Executor;
use crate::time::SimTime;

/// A node's armed timers: one `(token, generation)` slot per token with
/// a firing in flight. Arming stamps a generation from a per-node
/// counter that only ever grows, so a slot can be dropped the moment
/// its firing is dispatched, its token is cancelled or the node crashes
/// — a queued firing from before can never match a later arming of the
/// same token. The linear scans are therefore over the timers in
/// flight, not over every token the node ever armed.
#[derive(Debug, Default)]
pub(crate) struct TimerSlots {
    armed: Vec<(u64, u64)>,
    last_generation: u64,
}

impl TimerSlots {
    /// Arms (or re-arms) `token`; returns the generation its firing
    /// must carry to be dispatched.
    pub(crate) fn arm(&mut self, token: u64) -> u64 {
        self.last_generation += 1;
        let generation = self.last_generation;
        match self.armed.iter_mut().find(|slot| slot.0 == token) {
            Some(slot) => slot.1 = generation,
            None => self.armed.push((token, generation)),
        }
        generation
    }

    /// Invalidates any in-flight firing of `token`.
    pub(crate) fn cancel(&mut self, token: u64) {
        if let Some(i) = self.armed.iter().position(|slot| slot.0 == token) {
            self.armed.swap_remove(i);
        }
    }

    /// Whether a popped firing is the one its token is armed for; if
    /// so the slot is released (timers are one-shot).
    pub(crate) fn fire(&mut self, token: u64, generation: u64) -> bool {
        match self.armed.iter().position(|&slot| slot == (token, generation)) {
            Some(i) => {
                self.armed.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Invalidates every armed timer (node crash).
    pub(crate) fn clear(&mut self) {
        self.armed.clear();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.armed.len()
    }
}

/// Builds a fresh actor for a node restarted with state loss. It is
/// `Send`: the factory lives inside its node's logical process, which
/// migrates between worker threads.
pub type RespawnFn = Box<dyn FnMut() -> Box<dyn Actor> + Send>;

/// One simulated node.
pub(crate) struct Node {
    pub(crate) id: NodeId,
    pub(crate) name: String,
    pub(crate) realm: RealmId,
    pub(crate) clock: ClockState,
    pub(crate) up: bool,
    /// Events addressed to this node are deferred until this instant
    /// (stop-the-world stall fault; `ZERO` = not stalled).
    pub(crate) stalled_until: SimTime,
    pub(crate) timers: TimerSlots,
    /// `None` only while the actor is checked out for a dispatch.
    pub(crate) actor: Option<Box<dyn Actor>>,
    /// Rebuilds the actor on a restart with state loss.
    pub(crate) respawn: Option<RespawnFn>,
}

impl Node {
    pub(crate) fn new(
        id: NodeId,
        name: &str,
        realm: RealmId,
        clock: ClockState,
        actor: Box<dyn Actor>,
    ) -> Node {
        Node {
            id,
            name: name.to_string(),
            realm,
            clock,
            up: true,
            stalled_until: SimTime::ZERO,
            timers: TimerSlots::default(),
            actor: Some(actor),
            respawn: None,
        }
    }

    /// The node's actor, downcast to `T`.
    pub(crate) fn actor_as<T: 'static>(&self) -> Option<&T> {
        self.actor.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable counterpart of [`Node::actor_as`].
    pub(crate) fn actor_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.actor.as_mut()?.as_any_mut().downcast_mut::<T>()
    }
}

/// A node with what only it touches: its [`Transport`] and the count of
/// events it has queued, the counter half of each one's [`Key`]. Each
/// logical process holds one, so what a node draws, how its connections
/// stand and how its events sort are a function of the seed, its id and
/// what it was sent, never of the worker count or of other nodes' draws.
pub(crate) struct Host {
    pub(crate) node: Node,
    pub(crate) link: Transport,
    pub(crate) emitted: u64,
}

impl Host {
    /// Node `id`, its RNG stream seeded `seed ^ id`: the stream's first
    /// draws sample its clock from `clock` at `now`.
    pub(crate) fn new(
        seed: u64,
        id: NodeId,
        name: &str,
        realm: RealmId,
        clock: &ClockProfile,
        now: SimTime,
        actor: Box<dyn Actor>,
    ) -> Host {
        assert!(id.0 <= Key::MAX_NODE, "an event key names at most {} nodes", Key::MAX_NODE + 1);
        let mut rng = StdRng::seed_from_u64(seed ^ u64::from(id.0));
        let clock = clock.sample(now, &mut rng);
        Host { node: Node::new(id, name, realm, clock, actor), link: Transport::for_node(rng, id), emitted: 0 }
    }

    /// Where an event due at `at` waits if the node is still stalled
    /// then: a stalled node is frozen mid-world, so the event is
    /// re-queued for the thaw, keyed as the node's own, and replays in
    /// the order it arrived, whoever sent it. Deferral is not
    /// "processing": it is neither counted nor digested.
    pub(crate) fn deferral(&mut self, at: SimTime) -> Option<(SimTime, Key)> {
        let until = self.node.stalled_until;
        (until > at).then(|| (until, Key::node(self.node.id, &mut self.emitted)))
    }
}

/// An event addressed to a node.
#[derive(Debug)]
pub(crate) enum NodeEvent {
    /// One message arriving; its `body_len()` is the wire charge.
    Deliver { to: NodeId, from: Endpoint, to_port: Port, msg: WireMsg, stream: bool },
    /// One v2 segment arriving on a stream link, decoded on delivery.
    /// Its length is the wire charge, so it is not stored.
    Segment { to: NodeId, from: Endpoint, to_port: Port, seg: Bytes },
    Timer { node: NodeId, token: u64, generation: u64 },
    ClockSync { node: NodeId },
    Start { node: NodeId },
    Inject { node: NodeId, incoming: Incoming },
}

impl NodeEvent {
    /// The node the event is addressed to: whose LP holds and runs it.
    pub(crate) fn target(&self) -> NodeId {
        match self {
            NodeEvent::Deliver { to, .. } | NodeEvent::Segment { to, .. } => *to,
            NodeEvent::Timer { node, .. }
            | NodeEvent::ClockSync { node }
            | NodeEvent::Start { node }
            | NodeEvent::Inject { node, .. } => *node,
        }
    }
}

/// An event's place among those due at one instant, packed in one word:
/// the high bits name who queued the event — the harness driving the
/// engine, or a node — and the low bits count that origin's emissions
/// ([`Key::harness`], [`Key::node`]). Ties at a node therefore run
/// harness pushes first, in call order, then by sender id, each
/// sender's in emission order: a function of what was sent, never of
/// which barrier merged it or of which worker ran its sender.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Key(u64);

impl Key {
    /// The low bits: an origin's emission counter.
    const COUNTER_BITS: u32 = 40;
    /// The largest node id a key can name: the high bits hold the
    /// id plus one, zero being the harness's.
    pub(crate) const MAX_NODE: u32 = (1 << (64 - Key::COUNTER_BITS)) - 2;

    /// The key of the harness's next push (a node's `Start` and
    /// `ClockSync`, an injection): below every node's at the same
    /// instant. `pushed` counts them.
    pub(crate) fn harness(pushed: &mut u64) -> Key {
        Key::next(0, pushed)
    }

    /// The key of `node`'s next emission; `emitted` counts them.
    pub(crate) fn node(node: NodeId, emitted: &mut u64) -> Key {
        Key::next(node.0 + 1, emitted)
    }

    fn next(origin: u32, counter: &mut u64) -> Key {
        let n = *counter;
        *counter += 1;
        debug_assert!(n < 1 << Key::COUNTER_BITS, "emission counter overflow");
        Key(u64::from(origin) << Key::COUNTER_BITS | n)
    }

    /// The node that queued the event; `None` for the harness.
    pub(crate) fn queued_by(self) -> Option<NodeId> {
        let origin = (self.0 >> Key::COUNTER_BITS) as u32;
        origin.checked_sub(1).map(NodeId)
    }
}

pub(crate) struct Queued<E> {
    pub(crate) at: SimTime,
    pub(crate) key: Key,
    pub(crate) ev: E,
}

impl<E> PartialEq for Queued<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.key) == (other.at, other.key)
    }
}
impl<E> Eq for Queued<E> {}
impl<E> PartialOrd for Queued<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Queued<E> {
    // Reversed so the BinaryHeap pops the earliest event first; the key
    // breaks ties.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.key).cmp(&(self.at, self.key))
    }
}

/// An event heap: earliest first, ties by [`Key`]. Every worker has one
/// for all the LPs it runs.
pub(crate) struct EventHeap<E> {
    heap: BinaryHeap<Queued<E>>,
}

impl<E> Default for EventHeap<E> {
    fn default() -> EventHeap<E> {
        EventHeap { heap: BinaryHeap::new() }
    }
}

impl<E> EventHeap<E> {
    pub(crate) fn push(&mut self, at: SimTime, key: Key, ev: E) {
        self.heap.push(Queued { at, key, ev });
    }

    /// Queues an event that keeps the time and key it was queued with.
    pub(crate) fn requeue(&mut self, q: Queued<E>) {
        self.heap.push(q);
    }

    /// When the earliest event is due.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|q| q.at)
    }

    pub(crate) fn pop(&mut self) -> Option<Queued<E>> {
        self.heap.pop()
    }

    /// Empties the heap, handing back every event in no order.
    pub(crate) fn take(&mut self) -> Vec<Queued<E>> {
        std::mem::take(&mut self.heap).into_vec()
    }
}

/// A change to the world that lands between events.
pub(crate) enum NetChange {
    /// A fault the harness queued: a crash, restart, stall or clock
    /// step of one node, or a partition, heal or packet-fault window of
    /// the network.
    Fault(Fault),
    Join(NodeId, GroupId),
    Leave(NodeId, GroupId),
    /// The node crashed or restarted: every other node forgets its half
    /// of the connections they shared. The node's own row reset at once.
    ResetPeer(NodeId),
}

/// The [`NetChange`]s queued so far, by time, then in the order they
/// were queued: the harness's faults at their instants, and the group
/// changes and peer resets a node emits at `t`, at `t + L` (DESIGN.md
/// §8). The engine applies each before any event due at or after its
/// instant ([`NetSchedule::pop_due`]) and counts none in
/// `events_processed` or in a digest. Changes of one instant commute
/// but for two kinds, each applied in the order it was queued: one
/// node's joins and leaves of one group, in the order the node emitted
/// them, and one node's faults — a crash and a restart of one node do
/// not commute — in plan order, as a plan is queued.
#[derive(Default)]
pub(crate) struct NetSchedule {
    due: BTreeMap<(SimTime, u64), NetChange>,
    queued: u64,
}

impl NetSchedule {
    pub(crate) fn push(&mut self, at: SimTime, change: NetChange) {
        self.due.insert((at, self.queued), change);
        self.queued += 1;
    }

    /// When the next one is due.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.due.first_key_value().map(|(&(at, _), _)| at)
    }

    /// The next one, with its instant, if that is at or before
    /// `deadline` and no later than `next`, the earliest pending event.
    pub(crate) fn pop_due(&mut self, next: Option<SimTime>, deadline: SimTime) -> Option<(SimTime, NetChange)> {
        let at = self.next_at()?;
        if at > deadline || next.is_some_and(|next| next < at) {
            return None;
        }
        self.due.pop_first().map(|((at, _), change)| (at, change))
    }
}

/// A node at one instant of a run: the handle a due event is admitted
/// through, faults are applied through, and — as the one [`Context`]
/// implementation — the node's actor acts through.
pub(crate) struct NodeCtx<'a> {
    pub(crate) node: &'a mut Node,
    pub(crate) link: &'a mut Transport,
    pub(crate) emitted: &'a mut u64,
    /// The worker running this node's LP: where the node's events go,
    /// and whose traffic counters it bumps.
    pub(crate) exec: &'a mut Executor,
    /// The model as the run holds it while nodes run, its packet-fault
    /// window included: read-only.
    pub(crate) net: &'a NetworkModel,
    pub(crate) now: SimTime,
}

impl NodeCtx<'_> {
    /// Admits one due event: the liveness rules, the delivery
    /// accounting, then the actor.
    #[inline] // one caller: the event is matched where it was popped
    pub(crate) fn handle(mut self, ev: NodeEvent) {
        match ev {
            NodeEvent::Start { .. } => {
                if self.node.up {
                    self.with_actor(|actor, ctx| actor.on_start(ctx));
                }
            }
            NodeEvent::ClockSync { .. } => {
                self.node.clock.mark_synced();
                self.dispatch(Incoming::ClockSynced);
            }
            NodeEvent::Timer { token, generation, .. } => {
                if self.node.up && self.node.timers.fire(token, generation) {
                    self.dispatch(Incoming::Timer { token });
                }
            }
            NodeEvent::Inject { incoming, .. } => self.dispatch(incoming),
            NodeEvent::Deliver { from, to_port, msg, stream, .. } => {
                if !self.admits_delivery() {
                    return;
                }
                if stream {
                    self.accept(from, to_port);
                }
                self.exec.stats.bytes_delivered += msg.body_len() as u64;
                self.exec.stats.count_delivery(msg.message(), stream);
                self.dispatch(if stream {
                    Incoming::Stream { from, to_port, msg }
                } else {
                    Incoming::Datagram { from, to_port, msg }
                });
            }
            NodeEvent::Segment { from, to_port, seg, .. } => {
                if self.admits_delivery() {
                    self.accept(from, to_port);
                    self.deliver_segment(from, to_port, &seg);
                }
            }
        }
    }

    /// Establishes the stream `from` opened to `to_port` at this end too.
    /// Each node keeps its own connections: the sender's paid the
    /// handshake, and accepting the first framed message establishes the
    /// connection server-side, so replies on the same port pair skip the
    /// setup RTTs — but one sent before it arrived paid its own.
    fn accept(&mut self, from: Endpoint, to_port: Port) {
        let me = Endpoint::new(self.node.id, to_port);
        self.link.mark_established(me, from, self.now);
    }

    /// Whether the node takes deliveries; one to a down node is counted
    /// and dropped. (The send rolled its dice regardless: RNG
    /// consumption never depends on destination state.)
    fn admits_delivery(&mut self) -> bool {
        if !self.node.up {
            self.exec.stats.dropped_node_down += 1;
        }
        self.node.up
    }

    /// Decodes a v2 segment from `from` against the reader in this
    /// node's record of the connection back to it, and hands the frames
    /// to the actor in order, each charged its own encoded length. A bad
    /// segment is dropped whole and counted; the decode rolled the
    /// symbol table back, so later segments on the link still decode.
    fn deliver_segment(&mut self, from: Endpoint, to_port: Port, seg: &Bytes) {
        let now = self.now;
        let v2 = self.link.conn(from.node, now).v2();
        // Checked out for the dispatches below (an actor may send on
        // this very connection) and returned after, keeping its capacity.
        let mut frames = std::mem::take(&mut v2.frames);
        if decode_segment_into(seg, &mut v2.dec, &mut frames).is_err() {
            self.exec.stats.segment_decode_errors += 1;
        } else {
            self.exec.stats.segments_delivered += 1;
            self.exec.stats.frames_coalesced += frames.len() as u64;
            self.exec.stats.bytes_delivered += seg.len() as u64;
            for f in frames.drain(..) {
                self.exec.stats.count_delivery(&f.msg, true);
                let msg = WireMsg::from_v2_frame(f.msg, f.ttl, f.hops, f.encoded_len);
                self.dispatch(Incoming::Stream { from, to_port, msg });
            }
        }
        self.link.conn(from.node, now).v2().frames = frames;
    }

    /// Hands `incoming` to the actor, if the node is up.
    fn dispatch(&mut self, incoming: Incoming) {
        if self.node.up {
            self.with_actor(|actor, ctx| actor.on_incoming(incoming, ctx));
        }
    }

    fn with_actor(&mut self, f: impl FnOnce(&mut dyn Actor, &mut dyn Context)) {
        let Some(mut actor) = self.node.actor.take() else {
            return;
        };
        f(actor.as_mut(), self);
        self.node.actor = Some(actor);
    }

    /// The node-scoped fault rules, applied at coordinator time. Link-
    /// and window-scoped faults are not a node's: they are the model's
    /// ([`NetworkModel::apply_fault`]).
    pub(crate) fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash { .. } => self.crash(),
            // See `ShardedSim::apply_fault` for what survives.
            Fault::Restart { lose_state, .. } => {
                if self.node.up {
                    self.crash();
                }
                if lose_state {
                    if let Some(factory) = self.node.respawn.as_mut() {
                        self.node.actor = Some(factory());
                    }
                }
                self.revive();
            }
            Fault::Stall { dur, .. } => {
                self.node.stalled_until = self.node.stalled_until.max(self.now + dur);
            }
            Fault::ClockStep { delta_ns, .. } => self.node.clock.step_ns(delta_ns),
            _ => {}
        }
    }

    /// Puts `ev` on the schedule at `at`, keyed as the node's next
    /// emission.
    fn schedule(&mut self, at: SimTime, ev: NodeEvent) {
        let key = Key::node(self.node.id, self.emitted);
        self.exec.schedule(at, key, ev);
    }

    /// Marks the node down: its timers are invalidated, its stream
    /// connections and wire queues reset; queued and future deliveries
    /// are dropped until it is revived.
    pub(crate) fn crash(&mut self) {
        self.node.up = false;
        self.node.timers.clear();
        self.link.reset_node(self.node.id);
    }

    /// Marks the node up and re-runs its `on_start`.
    pub(crate) fn revive(&mut self) {
        self.node.up = true;
        self.schedule(self.now, NodeEvent::Start { node: self.node.id });
    }

    /// Schedules one delivery of `msg` at `at`.
    fn deliver(&mut self, at: SimTime, from: Endpoint, to: Endpoint, msg: &WireMsg, stream: bool) {
        let (to_port, msg) = (to.port, msg.clone());
        self.schedule(at, NodeEvent::Deliver { to: to.node, from, to_port, msg, stream });
    }

    /// Sends one datagram.
    fn send_datagram(&mut self, from: Endpoint, to: Endpoint, msg: &WireMsg) {
        let sent = self.link.send_datagram(&mut self.exec.stats, self.net, self.now, (from.node, to.node), || msg.body_len());
        if let Some(sent) = sent {
            self.deliver(sent.at, from, to, msg, false);
            if let Some(at) = sent.duplicate_at {
                self.deliver(at, from, to, msg, false);
            }
        }
    }
}

impl Context for NodeCtx<'_> {
    fn me(&self) -> NodeId {
        self.node.id
    }

    fn realm(&self) -> RealmId {
        self.node.realm
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn utc_micros(&self) -> u64 {
        self.node.clock.utc_micros(self.now)
    }

    fn clock_synced(&self) -> bool {
        self.node.clock.synced
    }

    fn raw_local_micros(&self) -> u64 {
        self.node.clock.raw_local_micros(self.now)
    }

    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        self.node.clock.set_estimate_ns(est_offset_ns);
    }

    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.send_udp_wire(from_port, to, &WireMsg::new(msg.clone()));
    }

    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.send_stream_wire(from_port, to, &WireMsg::new(msg.clone()));
    }

    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let from = Endpoint::new(self.node.id, from_port);
        self.send_datagram(from, to, msg);
    }

    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let from = Endpoint::new(self.node.id, from_port);
        if let Some(sent) = self.link.send_stream(&mut self.exec.stats, self.net, self.now, from, to, |_| msg.body_len()) {
            self.deliver(sent.at, from, to, msg, true);
        }
    }

    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let (from, now) = (Endpoint::new(self.node.id, from_port), self.now);
        // The frame is encoded only once the link is known to carry it:
        // an unreachable link drops it *before* any symbol definition is
        // minted, so the peer never desyncs.
        let mut seg = None;
        let sent = self.link.send_stream(&mut self.exec.stats, self.net, now, from, to, |conn| {
            let v2 = conn.v2();
            v2.segment.begin(now.as_micros());
            v2.segment.push(msg.ttl(), msg.hops(), msg.message(), &mut v2.enc);
            seg.insert(v2.segment.finish()).len()
        });
        if let (Some(arrival), Some(seg)) = (sent, seg) {
            self.exec.stats.segments_sent += 1;
            self.schedule(arrival.at, NodeEvent::Segment { to: to.node, from, to_port: to.port, seg });
        }
    }

    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        let from = Endpoint::new(self.node.id, from_port);
        // One shared handle, so one sizing, for the whole fan-out;
        // recipients come in ascending node order, so the scheduling
        // order is deterministic.
        let wire = WireMsg::new(msg.clone());
        for r in self.net.multicast_recipients(group, self.node.id) {
            self.send_datagram(from, Endpoint::new(r, to_port), &wire);
        }
    }

    fn join_group(&mut self, group: GroupId) {
        self.exec.change(self.now, NetChange::Join(self.node.id, group));
    }

    fn leave_group(&mut self, group: GroupId) {
        self.exec.change(self.now, NetChange::Leave(self.node.id, group));
    }

    fn set_timer(&mut self, delay: Duration, token: u64) {
        let node = self.node.id;
        let generation = self.node.timers.arm(token);
        self.schedule(self.now + delay, NodeEvent::Timer { node, token, generation });
    }

    fn cancel_timer(&mut self, token: u64) {
        self.node.timers.cancel(token);
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.link.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::FaultPlan;
    use crate::clock::ClockProfile;
    use crate::impl_actor_any;
    use crate::link::LinkSpec;
    use crate::runtime::{Trace, TraceRecord};
    use crate::shard::ShardedSim;
    use nb_wire::addr::well_known;

    const GROUP: GroupId = GroupId(3);

    /// `(arrival, receiver, nonce, on a stream, body length)`.
    type Logged = (SimTime, NodeId, u64, bool, usize);

    /// Joins [`GROUP`]; the node with peers also runs the script.
    struct Scripted {
        peers: Vec<NodeId>,
    }

    impl Scripted {
        fn ping(ctx: &dyn Context, nonce: u64) -> Message {
            let reply_to = Endpoint::new(ctx.me(), well_known::PING);
            Message::Ping { nonce, sent_at: 0, reply_to }
        }

        /// A publish with `nonce` for its id on the one topic `a/x`.
        fn publish(ctx: &dyn Context, nonce: u64) -> WireMsg {
            WireMsg::new(Message::Publish(nb_wire::Event {
                id: nb_util::Uuid::from_u128(nonce.into()),
                topic: nb_wire::Topic::parse("a/x").expect("a topic"),
                source: ctx.me(),
                payload: Bytes::from_static(b"1"),
            }))
        }
    }

    impl Actor for Scripted {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.join_group(GROUP);
            if !self.peers.is_empty() {
                ctx.set_timer(Duration::from_millis(100), 1);
            }
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            let port = well_known::PING;
            match event {
                Incoming::Timer { token: 1 } => {
                    let to = Endpoint::new(self.peers[0], port);
                    ctx.send_udp(port, to, &Scripted::ping(ctx, 1));
                    // First use of the connection: pays the handshake.
                    ctx.send_stream(port, to, &Scripted::ping(ctx, 2));
                    // A v2 link's first frame: the handshake, and the
                    // topic's symbol definition.
                    let v2 = Endpoint::new(self.peers[1], port);
                    ctx.send_stream_v2(port, v2, &Scripted::publish(ctx, 6));
                    ctx.set_timer(Duration::from_millis(100), 2);
                }
                Incoming::Timer { .. } => {
                    let to = Endpoint::new(self.peers[0], port);
                    ctx.send_stream(port, to, &Scripted::ping(ctx, 3));
                    ctx.send_multicast(port, GROUP, port, &Scripted::ping(ctx, 4));
                    ctx.send_udp(port, Endpoint::new(ctx.me(), port), &Scripted::ping(ctx, 5));
                    let v2 = Endpoint::new(self.peers[1], port);
                    ctx.send_stream_v2(port, v2, &Scripted::publish(ctx, 7));
                }
                Incoming::Datagram { .. } | Incoming::Stream { .. } | Incoming::ClockSynced => {}
            }
        }
        impl_actor_any!();
    }

    /// Runs the script on `engine` — with `cut`, behind a one-way
    /// partition that severs its streams and nothing else; the trace of
    /// what the nodes were handed, in `TraceLog::take`'s order.
    fn arrivals(engine: &mut ShardedSim, cut: bool) -> Vec<Logged> {
        let still = |spec: LinkSpec| LinkSpec { jitter: Duration::ZERO, ..spec.with_loss(0.0) };
        let net = engine.network_mut();
        net.local_spec = still(LinkSpec::local());
        net.intra_realm_spec = still(LinkSpec::lan());
        let (trace, log) = Trace::new();
        let mut add = |peers: Vec<NodeId>| engine.add_node("n", RealmId(0), trace.wrap(Box::new(Scripted { peers })));
        let (r1, r2) = (add(Vec::new()), add(Vec::new()));
        let nodes = [r1, r2, add(vec![r1, r2])];
        if cut {
            // The ACK direction only: datagrams to `r1` still flow.
            engine.network_mut().partition_one_way(r1, nodes[2]);
        }
        engine.run_for(Duration::from_secs(1));
        let nonce = |msg: &Message| match msg {
            Message::Ping { nonce, .. } => *nonce,
            Message::Publish(ev) => ev.id.as_u128() as u64,
            other => panic!("the script sends no {}", other.kind()),
        };
        let logged = |r: &TraceRecord| (r.at, r.to.node, nonce(r.msg.message()), r.stream, r.msg.body_len());
        log.take().iter().map(logged).collect()
    }

    /// What the `i`-th node added was handed, in order.
    fn to(trace: &[Logged], i: u32) -> Vec<Logged> {
        trace.iter().filter(|a| a.1 == NodeId(i)).copied().collect()
    }

    /// On a net with no dice to roll — lossless, jitter-free, perfect
    /// clocks — the same sends arrive at the same virtual times, charged
    /// the same lengths, at 1 worker and at 4: a datagram, a stream's
    /// first message and a warm one, a v2 link's cold frame and a warm
    /// one, a multicast to two members, a self-send.
    #[test]
    fn scripted_sends_arrive_at_the_same_times_at_one_and_four_workers() {
        let serial = arrivals(&mut ShardedSim::with_clock_profile(5, ClockProfile::perfect()), false);
        let mut sharded = ShardedSim::with_clock_profile(5, ClockProfile::perfect());
        sharded.set_workers(4);
        assert_eq!(serial, arrivals(&mut sharded, false), "at 4 workers");
        let (r1, r2, sender) = (to(&serial, 0), to(&serial, 1), to(&serial, 2));
        assert_eq!(serial.len(), r1.len() + r2.len() + sender.len());
        let nonces = |log: &[Logged]| log.iter().map(|a| (a.2, a.3)).collect::<Vec<_>>();
        assert_eq!(nonces(&r1), [(1, false), (2, true), (3, true), (4, false)]);
        assert_eq!(nonces(&r2), [(6, true), (4, false), (7, true)]);
        assert_eq!(nonces(&sender), [(5, false)]);
        // The handshake was charged once a connection; the symbol
        // definition once a v2 link.
        for (first, warm) in [(&r1[1], &r1[2]), (&r2[0], &r2[2])] {
            let (cold, hot) = (first.0 - SimTime::from_millis(100), warm.0 - SimTime::from_millis(200));
            assert!(cold > hot * 2, "first {cold:?}, warm {hot:?}");
        }
        assert!(r2[0].4 > r2[2].4, "cold frame {} B, warm {} B", r2[0].4, r2[2].4);
    }

    /// A stream send a partition ate is counted by fate like a datagram
    /// one, at 1 worker and at 4 — `unreachable` is the sum of its two
    /// per-fate counters whatever was sent.
    #[test]
    fn stream_sends_over_a_partition_are_counted_by_fate_at_one_and_four_workers() {
        for workers in [1, 4] {
            let mut sim = ShardedSim::with_clock_profile(5, ClockProfile::perfect());
            sim.set_workers(workers);
            let log = arrivals(&mut sim, true);
            let stats = sim.stats();
            // The datagram and the multicast arrived; both streams did not.
            assert_eq!(to(&log, 0).iter().map(|a| a.2).collect::<Vec<_>>(), [1, 4]);
            assert_eq!(stats.unreachable, 2);
            assert_eq!(stats.unreachable_partitioned, 2);
            assert_eq!(stats.unreachable, stats.unreachable_partitioned + stats.unreachable_no_path);
        }
    }

    /// The one topic the reset test's sender names at each of its three
    /// sends, 100 ms apart.
    const RESET_TOPICS: [&str; 3] = ["a/x", "a/y", "a/y"];

    /// Publishes [`RESET_TOPICS`] over v2 to `to`, from 100 ms on.
    struct TopicSender {
        to: NodeId,
        sent: usize,
    }

    impl Actor for TopicSender {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(Duration::from_millis(100), 1);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { .. } = event {
                let msg = WireMsg::new(Message::Publish(nb_wire::Event {
                    id: nb_util::Uuid::from_u128(self.sent as u128),
                    topic: nb_wire::Topic::parse(RESET_TOPICS[self.sent]).expect("a topic"),
                    source: ctx.me(),
                    payload: Bytes::from_static(b"1"),
                }));
                let port = well_known::BROKER;
                ctx.send_stream_v2(port, Endpoint::new(self.to, port), &msg);
                self.sent += 1;
                if self.sent < RESET_TOPICS.len() {
                    ctx.set_timer(Duration::from_millis(100), 1);
                }
            }
        }
        impl_actor_any!();
    }

    /// Logs the topic of every publish it receives.
    #[derive(Default)]
    struct TopicSink {
        topics: Vec<String>,
    }

    impl Actor for TopicSink {
        fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
            if let Incoming::Stream { msg, .. } = event {
                if let Message::Publish(ev) = msg.message() {
                    self.topics.push(ev.topic.as_str().to_string());
                }
            }
        }
        impl_actor_any!();
    }

    /// What the sink receives when it is restarted while the sender's
    /// first, symbol-defining frame is on the wire.
    fn topics_across_a_reset(engine: &mut ShardedSim) -> Vec<String> {
        let still = LinkSpec { jitter: Duration::ZERO, ..LinkSpec::lan().with_loss(0.0) };
        engine.network_mut().intra_realm_spec = still;
        let sink = engine.add_node("sink", RealmId(0), Box::new(TopicSink::default()));
        engine.add_node("sender", RealmId(0), Box::new(TopicSender { to: sink, sent: 0 }));
        // The frame sent at 100 ms pays a handshake: it lands ~1 ms later.
        engine.apply_fault_plan(&FaultPlan::new().restart_at(Duration::from_micros(100_001), sink, false));
        engine.run_for(Duration::from_secs(1));
        engine.actor::<TopicSink>(sink).expect("the sink").topics.clone()
    }

    /// v2 symbol definitions are positional — a link's n-th definition
    /// is id n — so both ends must forget a link together, and they do,
    /// except for a segment already on the wire: the restarted
    /// receiver's fresh reader takes that segment's definition (`a/x`)
    /// as id 0, the sender's fresh writer numbers its next one (`a/y`)
    /// 0 as well, and every later reference on the link resolves one
    /// definition off — the wrong topic, silently, with no decode
    /// error. The peers forget their halves one lookahead after the
    /// reset, which widens the window.
    #[test]
    #[ignore = "ROADMAP item 3: a v2 segment in flight across a reset shifts the fresh reader's symbol ids"]
    fn a_v2_segment_in_flight_across_a_reset_does_not_shift_later_topics() {
        for workers in [1, 4] {
            let mut sim = ShardedSim::with_clock_profile(5, ClockProfile::perfect());
            sim.set_workers(workers);
            let got = topics_across_a_reset(&mut sim);
            // Today it delivers `a/x`, `a/y`, `a/x`, with no error.
            assert_eq!(sim.stats().segment_decode_errors, 0);
            assert_eq!(got, RESET_TOPICS, "at {workers} workers");
        }
    }
}
