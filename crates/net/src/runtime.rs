//! The actor abstraction all protocol logic is written against.
//!
//! Brokers, BDNs, discovery clients, pub/sub clients — every node is an
//! [`Actor`]: a state machine that reacts to [`Incoming`] events and acts
//! on the world exclusively through a [`Context`]. The engine
//! ([`crate::shard::ShardedSim`]) has one `Context` implementation
//! (`node.rs`), so the same actor code runs unmodified at every worker
//! count. A [`Trace`] wraps actors to record what each is handed, at
//! any worker count; a [`ScriptCtx`] is the context an actor's unit
//! tests drive it through by hand.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::time::SimTime;

/// An event delivered to an actor.
#[derive(Debug, Clone)]
pub enum Incoming {
    /// A UDP or multicast datagram arrived.
    Datagram {
        /// The sender's endpoint (source node + source port).
        from: Endpoint,
        /// The local port it arrived on.
        to_port: Port,
        /// The decoded payload, still attached to its wire frame so the
        /// receiver can peek or re-forward without re-encoding.
        msg: WireMsg,
    },
    /// One framed message arrived on a reliable (TCP-like) stream.
    Stream {
        /// The sender's endpoint.
        from: Endpoint,
        /// The local port it arrived on.
        to_port: Port,
        /// The decoded payload, still attached to its wire frame.
        msg: WireMsg,
    },
    /// A timer set via [`Context::set_timer`] fired.
    Timer {
        /// The caller-chosen token identifying the timer.
        token: u64,
    },
    /// The node's NTP service finished initialising; UTC estimates are
    /// now accurate to the configured residual.
    ClockSynced,
}

/// A node's interface to the world. The engine implements it once
/// (`node.rs`'s `NodeCtx`).
pub trait Context {
    /// This node's identity.
    fn me(&self) -> NodeId;

    /// This node's network realm.
    fn realm(&self) -> RealmId;

    /// The node-local *monotonic* clock. Correct for measuring durations;
    /// not comparable across nodes.
    fn now(&self) -> SimTime;

    /// The node's current UTC estimate, in microseconds. Before NTP sync
    /// this can be off by seconds; afterwards by the NTP residual
    /// (1–20 ms under the paper's profile).
    fn utc_micros(&self) -> u64;

    /// Whether the node's NTP service has finished initialising.
    fn clock_synced(&self) -> bool;

    /// The node's *raw* local clock (µs), uncorrected by any NTP
    /// estimate. No actor calls this: NTP is modelled per node by
    /// [`crate::ClockProfile`]. It stays only because the `benchmark/`
    /// crate implements `Context`.
    fn raw_local_micros(&self) -> u64;

    /// Overrides the clock-offset estimate (ns). No actor calls this
    /// either; it stays for the same `benchmark/` implementation.
    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64);

    /// Sends `msg` as an unreliable datagram from local `from_port`.
    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message);

    /// Sends `msg` on a reliable, ordered stream from local `from_port`.
    /// Connection setup (one extra RTT) is modelled on first use of a
    /// `(local endpoint, remote endpoint)` pair.
    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message);

    /// Sends an already-wrapped [`WireMsg`] as a datagram. Fan-out paths
    /// use this so the frame is encoded once and every send clones the
    /// handle. The default delegates to [`Context::send_udp`] (decoded
    /// message, legacy encode); it exists for the `benchmark/` crate's
    /// `NullCtx`, which implements only the decoded forms.
    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send_udp(from_port, to, msg.message());
    }

    /// Stream counterpart of [`Context::send_udp_wire`].
    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send_stream(from_port, to, msg.message());
    }

    /// Sends on a reliable stream in the v2 compact codec: the message is
    /// encoded against the link's symbol table (topic symbols sync lazily
    /// per link) and sent at once as a one-frame segment. Callers use this only for peers that announced v2
    /// capability on their link handshake. The default falls back to the
    /// per-message v1 stream path, for the same `NullCtx`.
    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.send_stream_wire(from_port, to, msg);
    }

    /// Multicasts `msg` to every member of `group` within this node's
    /// realm. Cross-realm members never receive it (paper §9: "multicast
    /// was disabled for network traffic outside the lab").
    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message);

    /// Joins a multicast group (idempotent).
    fn join_group(&mut self, group: GroupId);

    /// Leaves a multicast group.
    fn leave_group(&mut self, group: GroupId);

    /// Arms a one-shot timer firing `delay` from now, identified by
    /// `token`. Re-arming an armed token replaces it.
    fn set_timer(&mut self, delay: Duration, token: u64);

    /// Cancels the timer with `token`, if armed.
    fn cancel_timer(&mut self, token: u64);

    /// Deterministic per-run randomness.
    fn rng(&mut self) -> &mut dyn RngCore;
}

/// A protocol state machine bound to one node.
pub trait Actor: Send + 'static {
    /// Invoked once when the node starts.
    fn on_start(&mut self, _ctx: &mut dyn Context) {}

    /// Invoked for every incoming event.
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context);

    /// Downcasting support so harnesses can inspect actor state after a
    /// run. Implementations are one-liners returning `self`.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the two `as_any` boilerplate methods for an actor type.
#[macro_export]
macro_rules! impl_actor_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

/// A no-op actor: joins nothing, answers nothing. Handy as a placeholder
/// node in topology tests.
#[derive(Debug, Default)]
pub struct IdleActor;

impl Actor for IdleActor {
    fn on_incoming(&mut self, _event: Incoming, _ctx: &mut dyn Context) {}
    impl_actor_any!();
}

/// How a message left a [`ScriptCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// [`Context::send_udp`] or [`Context::send_udp_wire`].
    Datagram,
    /// [`Context::send_stream`] or [`Context::send_stream_wire`].
    Stream,
    /// [`Context::send_stream_v2`].
    StreamV2,
    /// [`Context::send_multicast`] to this group.
    Multicast(GroupId),
}

/// One message an actor handed a [`ScriptCtx`] to send.
#[derive(Debug, Clone)]
pub struct Sent {
    /// The local port it left from.
    pub from_port: Port,
    /// The receiver. A multicast has none: its `to` is its target port
    /// on node `u32::MAX`, and its group is in `via`.
    pub to: Endpoint,
    /// How it left.
    pub via: Via,
    /// The message.
    pub msg: WireMsg,
}

/// The [`Context`] an actor's unit tests drive it through by hand: it
/// records every send with its form, every timer armed and every group
/// joined, and moves its clock only when a test sets `now`. Build it
/// with struct-update syntax over `ScriptCtx::default()` (node 0, realm
/// 0, time zero, RNG seed 0).
#[derive(Debug, Clone)]
pub struct ScriptCtx {
    /// This node.
    pub me: NodeId,
    /// This node's realm.
    pub realm: RealmId,
    /// The monotonic clock; the UTC estimate and the raw clock read it
    /// too, and the clock counts as synced.
    pub now: SimTime,
    /// The node's randomness.
    pub rng: StdRng,
    /// Every send, in order.
    pub sent: Vec<Sent>,
    /// Every arming `(delay, token)`, in order.
    pub timers: Vec<(Duration, u64)>,
    /// The tokens armed and not cancelled since. Re-arming an armed
    /// token supersedes it, as the engine's timer slots do. A test that
    /// hands the actor a firing takes its token out itself.
    pub armed: BTreeSet<u64>,
    /// The groups joined, in the order joined, each as often as joined;
    /// a leave takes its group out.
    pub groups: Vec<GroupId>,
}

impl Default for ScriptCtx {
    fn default() -> ScriptCtx {
        ScriptCtx {
            me: NodeId(0),
            realm: RealmId(0),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(0),
            sent: Vec::new(),
            timers: Vec::new(),
            armed: BTreeSet::new(),
            groups: Vec::new(),
        }
    }
}

impl Context for ScriptCtx {
    fn me(&self) -> NodeId {
        self.me
    }
    fn realm(&self) -> RealmId {
        self.realm
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
    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.sent.push(Sent { from_port, to, via: Via::Datagram, msg: WireMsg::new(msg.clone()) });
    }
    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.sent.push(Sent { from_port, to, via: Via::Stream, msg: WireMsg::new(msg.clone()) });
    }
    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.sent.push(Sent { from_port, to, via: Via::Datagram, msg: msg.clone() });
    }
    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.sent.push(Sent { from_port, to, via: Via::Stream, msg: msg.clone() });
    }
    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.sent.push(Sent { from_port, to, via: Via::StreamV2, msg: msg.clone() });
    }
    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        let (to, via) = (Endpoint::new(NodeId(u32::MAX), to_port), Via::Multicast(group));
        self.sent.push(Sent { from_port, to, via, msg: WireMsg::new(msg.clone()) });
    }
    fn join_group(&mut self, group: GroupId) {
        self.groups.push(group);
    }
    fn leave_group(&mut self, group: GroupId) {
        self.groups.retain(|&g| g != group);
    }
    fn set_timer(&mut self, delay: Duration, token: u64) {
        self.timers.push((delay, token));
        self.armed.insert(token);
    }
    fn cancel_timer(&mut self, token: u64) {
        self.armed.remove(&token);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        &mut self.rng
    }
}

/// One datagram or stream message handed to a traced actor.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// When it was handed over.
    pub at: SimTime,
    /// Sender endpoint.
    pub from: Endpoint,
    /// Receiver endpoint.
    pub to: Endpoint,
    /// Whether it travelled on a stream (true) or as a datagram.
    pub stream: bool,
    /// The message; its `body_len()` is the length the engine charged.
    pub msg: WireMsg,
}

/// Records every datagram and stream message handed to the actors it
/// wraps, whichever engine runs them, into its [`TraceLog`]. Clones
/// record into the same log, so a factory can wrap each actor it makes;
/// a wrapped actor sends its records down a channel, so it records on
/// any worker.
#[derive(Clone)]
pub struct Trace {
    tx: Sender<TraceRecord>,
}

/// What a [`Trace`] and its clones recorded.
pub struct TraceLog {
    rx: Receiver<TraceRecord>,
}

impl Trace {
    /// A trace and the log it records into.
    pub fn new() -> (Trace, TraceLog) {
        let (tx, rx) = channel();
        (Trace { tx }, TraceLog { rx })
    }

    /// `actor`, recording into this trace. Downcasts reach `actor`.
    pub fn wrap(&self, actor: Box<dyn Actor>) -> Box<dyn Actor> {
        Box::new(Traced { inner: actor, trace: self.clone() })
    }
}

impl TraceLog {
    /// Every record since the last take, stably sorted by (time,
    /// receiving node): each node's records keep the order its actor
    /// was handed them, so the result is the same at any worker count.
    pub fn take(&self) -> Vec<TraceRecord> {
        let mut records: Vec<TraceRecord> = self.rx.try_iter().collect();
        records.sort_by_key(|r| (r.at, r.to.node));
        records
    }
}

/// An actor that records what it is handed, then hands it on.
struct Traced {
    inner: Box<dyn Actor>,
    trace: Trace,
}

impl Actor for Traced {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Datagram { from, to_port, ref msg } | Incoming::Stream { from, to_port, ref msg } = event {
            let (at, to) = (ctx.now(), Endpoint::new(ctx.me(), to_port));
            let stream = matches!(event, Incoming::Stream { .. });
            // A send fails only once the log is dropped: nothing to record.
            let _ = self.trace.tx.send(TraceRecord { at, from, to, stream, msg: msg.clone() });
        }
        self.inner.on_incoming(event, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
