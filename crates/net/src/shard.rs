//! The simulation engine: conservative parallel discrete-event
//! execution over the node model (`node.rs`; DESIGN.md §8).
//!
//! Every node is its own logical process (LP) holding the node's `Host`
//! — the node, its private RNG stream and connections, its emission
//! counter — and a coordinator runs the classic conservative-lookahead
//! protocol (Chandy/Misra/Bryant by way of a barrier-synchronous epoch
//! loop) over them. What is only ever summed, merged or ordered by key
//! — pending events, counters, outbox, emitted network changes — is the
//! running worker's:
//!
//! 1. **Lookahead.** The WAN model gives a hard floor on cross-node
//!    delay: no message between two distinct nodes can arrive sooner
//!    than [`NetworkModel::min_cross_node_latency`] after it was sent
//!    (jitter, bandwidth serialisation and stream setup only add time,
//!    and self-sends never leave their LP). With `m` the earliest
//!    pending event anywhere, every event below the safe horizon
//!    `H = m + lookahead` is therefore causally independent across LPs.
//! 2. **Epoch.** Each worker pops its one heap — the pending events of
//!    every LP it runs — while the head lies below `H`, in (time, key)
//!    order. The [`Key`] is the event's origin and that origin's
//!    emission counter: the harness first, then the sending node's id.
//!    An event for an LP the worker runs (a timer, a self-send, a
//!    restart's `Start`, a delivery between two of its LPs) goes
//!    straight into its heap. A delivery to another worker's LP is not
//!    pushed into that worker's heap (that would race); it waits in the
//!    worker's *outbox*, already keyed.
//! 3. **Barrier.** The coordinator queues the network changes the epoch
//!    emitted, then moves every outbox into the heap of the
//!    destination's worker, in any order: the key alone fixes where a
//!    delivery sorts.
//!
//! A group change or a peer reset a node emits at `t` lands at `t + L`,
//! `L` the lookahead, from the schedule that also holds every fault the
//! harness queued: each applies before any event at its instant, a
//! node's crash, restart, stall or clock step on the node's LP at
//! coordinator time, wherever it is dealt. `t + L` is at or past the
//! emitting epoch's horizon, so the rule reads the same at every worker
//! count. One worker runs every LP, so its outbox stays empty and no
//! horizon needs `m + L`: its epochs end only at the next fault, change
//! or deadline, or early at the first change stamped inside one.
//!
//! Because LP state, RNG streams (`SplitMix64(seed ^ node_id)` — that is
//! exactly what `StdRng::seed_from_u64` expands the xor through), the
//! lookahead, every change's instant and every event's key are all pure
//! functions of (topology, seed), the run — including its event digest —
//! is **byte-identical for any worker count**. The deal — worker `w` of
//! `W` owns the LPs whose id ≡ w (mod W), and their events — only
//! decides which worker executes which LP, never what the LPs compute
//! (and the counters are sums).
//!
//! Threading is confined to [`with_pool`]: a scoped worker pool on
//! `std::sync::mpsc`, moving each worker's LP group and executor
//! through its channel each epoch. Workers share nothing mutable — they
//! own what they were handed and borrow an immutable snapshot of the
//! network — which is why that function is the only sanctioned home for
//! thread primitives in nb-net (clippy.toml bans them everywhere else).

use std::sync::{mpsc, Arc};
use std::time::Duration;

use nb_util::{fnv1a64_step, fnv1a64_word, FNV_OFFSET};
use nb_wire::{NodeId, RealmId};

use crate::chaos::{Fault, FaultPlan};
use crate::clock::ClockProfile;
use crate::link::NetworkModel;
use crate::node::{EventHeap, Host, Key, NetChange, NetSchedule, Node, NodeCtx, NodeEvent, Queued, RespawnFn};
use crate::runtime::{Actor, Incoming};
use crate::stats::{NetStats, WireV2Config};
use crate::time::SimTime;

/// The engine's old name, kept only because the frozen `benchmark/`
/// crate imports it; everything else names [`ShardedSim`] (ROADMAP item
/// 7(d) retires it).
pub type Sim = ShardedSim;

/// Folds one word into an LP's FNV-1a digest.
fn mix(h: &mut u64, x: u64) {
    *h = fnv1a64_word(*h, x);
}

/// What one worker keeps for every LP it runs: their pending events in
/// one heap, their traffic counters (the first executor's hold the
/// run's total: the others fold into them at the end of each run), and
/// for the barrier their deliveries to other workers' LPs and the
/// network changes they emitted.
#[derive(Default)]
pub(crate) struct Executor {
    events: EventHeap<NodeEvent>,
    pub(crate) stats: NetStats,
    outbox: Vec<Queued<NodeEvent>>,
    /// Each stamped with the instant it lands, in emission order.
    changes: Vec<(SimTime, NetChange)>,
    /// The deal it runs under: the LPs whose id ≡ `worker` (mod `dealt`).
    worker: usize,
    dealt: usize,
    lookahead: Duration,
    /// Debug builds: the latest (time, key) each node ran here, by id.
    ran: Vec<Option<(SimTime, Key)>>,
}

/// Where an LP sits in its group, `id / W` for `W` workers, by a
/// multiply instead of a divide: a node id is 32 bits, so with
/// `m = ⌈2⁶⁴ / W⌉` the quotient is the high word of `m · id` (Lemire,
/// Kaser and Kurz, "Faster remainder by direct computation", 2019). One
/// worker's `m` would need 65 bits; it is 0, and the id is the index.
#[derive(Debug, Clone, Copy)]
struct Stride(u64);

impl Stride {
    fn new(workers: usize) -> Stride {
        Stride(if workers <= 1 { 0 } else { u64::MAX / workers as u64 + 1 })
    }

    #[inline]
    fn index(self, id: NodeId) -> usize {
        match self.0 {
            0 => id.0 as usize,
            m => ((u128::from(m) * u128::from(id.0)) >> 64) as usize,
        }
    }
}

impl Executor {
    /// Queues a node's event: into this worker's heap if the LP it is
    /// for runs here, else into the outbox for the barrier.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, key: Key, ev: NodeEvent) {
        if self.dealt > 1 && ev.target().0 as usize % self.dealt != self.worker {
            self.outbox.push(Queued { at, key, ev });
        } else {
            self.events.push(at, key, ev);
        }
    }

    /// Queues `change`, emitted at `now`, to land one lookahead later.
    pub(crate) fn change(&mut self, now: SimTime, change: NetChange) {
        self.changes.push((now + self.lookahead, change));
    }

    /// Runs every event of the heap below `horizon` and below the first
    /// change stamped meanwhile, each on its LP in `lps`: the group
    /// holding the ids ≡ w (mod W), ascending, so the LP of `id` is at
    /// `stride.index(id)`. Within the window every LP is causally
    /// closed: nothing another LP does this epoch can reach it before
    /// `horizon`, and the model does not change.
    fn run_epoch(&mut self, lps: &mut [Lp], stride: Stride, horizon: SimTime, net: &NetworkModel) {
        while let Some(at) = self.events.next_at() {
            if at >= horizon || self.changes.first().is_some_and(|&(lands, _)| at >= lands) {
                break;
            }
            let Some(q) = self.events.pop() else { break };
            let lp = &mut lps[stride.index(q.ev.target())];
            if cfg!(debug_assertions) {
                self.check_order(lp.host.node.id, q.at, q.key);
            }
            lp.handle(q, net, self);
        }
    }

    /// The scheduler check of debug builds (every `cargo test` event):
    /// each LP runs its events in strictly increasing (time, key). The
    /// one exception is an event its own node or the harness queued for
    /// the instant the LP stands at — a zero-delay timer, a revive's
    /// `Start`, a zero-delay injection — whose key may sort below the
    /// event that ran before it.
    fn check_order(&mut self, node: NodeId, at: SimTime, key: Key) {
        let i = node.0 as usize;
        if self.ran.len() <= i {
            self.ran.resize(i + 1, None);
        }
        if let Some(last) = self.ran[i] {
            let own = key.queued_by().is_none_or(|by| by == node);
            assert!((at, key) > last || (at == last.0 && own), "LP {i} ran {key:?} at {at:?} after {last:?}");
        }
        self.ran[i] = self.ran[i].max(Some((at, key)));
    }
}

/// One logical process: a node's [`Host`] — the node, its transport and
/// its emission counter — plus its event count, digest and local time.
/// `Send`, so whole LPs migrate between workers.
struct Lp {
    host: Host,
    events_processed: u64,
    digest: u64,
    /// Local virtual time: the timestamp of the last processed event, or
    /// the coordinator's when it last acted on the node.
    now: SimTime,
}

impl Lp {
    /// The node at the LP's current instant, run by `exec`.
    fn ctx<'a>(&'a mut self, net: &'a NetworkModel, exec: &'a mut Executor) -> NodeCtx<'a> {
        let Host { node, link, emitted } = &mut self.host;
        NodeCtx { node, link, emitted, exec, net, now: self.now }
    }

    fn handle(&mut self, q: Queued<NodeEvent>, net: &NetworkModel, exec: &mut Executor) {
        let Queued { at, ev, .. } = q;
        // Monotonic clamp rather than an assert: with a (degenerate)
        // zero-latency link override the 1 ns lookahead floor exceeds
        // the true minimum and a merged delivery can carry a timestamp
        // the LP already passed. Ordering stays deterministic.
        self.now = self.now.max(at);
        if let Some((until, key)) = self.host.deferral(at) {
            exec.events.push(until, key, ev);
            return;
        }
        self.events_processed += 1;
        digest_event(&mut self.digest, at, &ev);
        self.ctx(net, exec).handle(ev);
    }
}

/// Folds one processed event into the LP's running FNV-1a digest. The
/// encoding is positional (tag first, then fields), so distinct event
/// shapes can never collide by concatenation. The addressee is not
/// folded: the digest is the LP's own.
fn digest_event(h: &mut u64, at: SimTime, ev: &NodeEvent) {
    mix(h, at.as_nanos());
    match ev {
        NodeEvent::Start { .. } => mix(h, 1),
        NodeEvent::ClockSync { .. } => mix(h, 2),
        NodeEvent::Timer { token, generation, .. } => {
            mix(h, 3);
            mix(h, *token);
            mix(h, *generation);
        }
        NodeEvent::Inject { incoming, .. } => {
            mix(h, 4);
            match incoming {
                Incoming::Datagram { from, to_port, msg }
                | Incoming::Stream { from, to_port, msg } => {
                    mix(h, if matches!(incoming, Incoming::Stream { .. }) { 41 } else { 40 });
                    mix(h, from.node.0 as u64);
                    mix(h, from.port.0 as u64);
                    mix(h, to_port.0 as u64);
                    *h = fnv1a64_step(*h, msg.kind().as_bytes());
                }
                Incoming::Timer { token } => {
                    mix(h, 42);
                    mix(h, *token);
                }
                Incoming::ClockSynced => mix(h, 43),
            }
        }
        NodeEvent::Deliver { from, to_port, msg, stream, .. } => {
            mix(h, 6);
            mix(h, from.node.0 as u64);
            mix(h, from.port.0 as u64);
            mix(h, to_port.0 as u64);
            mix(h, msg.body_len() as u64);
            mix(h, *stream as u64);
            *h = fnv1a64_step(*h, msg.kind().as_bytes());
        }
        NodeEvent::Segment { from, to_port, seg, .. } => {
            mix(h, 7);
            mix(h, from.node.0 as u64);
            mix(h, from.port.0 as u64);
            mix(h, to_port.0 as u64);
            mix(h, seg.len() as u64);
        }
    }
}

/// One epoch's worth of work handed to a worker and handed back: the
/// worker's LP group and executor, an immutable network snapshot and
/// the horizon. Ownership-passing — nothing here is shared mutably
/// across threads.
struct EpochTask {
    worker: usize,
    lps: Vec<Lp>,
    exec: Executor,
    net: Arc<NetworkModel>,
    horizon: SimTime,
}

/// An epoch's dispatch step: each dealt group's executor runs its heap
/// up to the horizon on the network snapshot.
type Dispatch<'a> = dyn FnMut(&mut [Vec<Lp>], &mut [Executor], SimTime, &Arc<NetworkModel>) + 'a;

/// Runs `f` with the epoch dispatch for `workers` groups: inline at one
/// worker, and otherwise through a pool of `workers` scoped threads —
/// worker `w` runs group `w` — that is joined before this returns. A
/// worker with nothing below the horizon is not woken.
#[expect(
    clippy::disallowed_methods,
    reason = "the shard executor is the one sanctioned thread pool in the simulated crates; \
              the epoch barrier keeps its result independent of scheduling (DESIGN.md §13)"
)]
fn with_pool(workers: usize, f: impl FnOnce(&mut Dispatch<'_>)) {
    if workers == 1 {
        let one = Stride::new(1);
        f(&mut |groups, execs, horizon, net| execs[0].run_epoch(&mut groups[0], one, horizon, net));
        return;
    }
    let stride = Stride::new(workers);
    let (result_tx, results) = mpsc::channel::<EpochTask>();
    std::thread::scope(|scope| {
        let (tasks, handles): (Vec<mpsc::Sender<EpochTask>>, Vec<_>) = (0..workers)
            .map(|_| {
                let (task_tx, task_rx) = mpsc::channel::<EpochTask>();
                let result_tx = result_tx.clone();
                let handle = scope.spawn(move || {
                    while let Ok(mut task) = task_rx.recv() {
                        task.exec.run_epoch(&mut task.lps, stride, task.horizon, &task.net);
                        if result_tx.send(task).is_err() {
                            break;
                        }
                    }
                });
                (task_tx, handle)
            })
            .unzip();
        f(&mut |groups, execs, horizon, net| {
            let mut outstanding = 0usize;
            for (worker, tx) in tasks.iter().enumerate() {
                if execs[worker].events.next_at().is_none_or(|at| at >= horizon) {
                    continue;
                }
                let sent = tx.send(EpochTask {
                    worker,
                    lps: std::mem::take(&mut groups[worker]),
                    exec: std::mem::take(&mut execs[worker]),
                    net: Arc::clone(net),
                    horizon,
                });
                assert!(sent.is_ok(), "workers outlive the epoch loop");
                outstanding += 1;
            }
            for _ in 0..outstanding {
                let task = results.recv().expect("worker returns its group");
                groups[task.worker] = task.lps;
                execs[task.worker] = task.exec;
            }
        });
        // Dropping the senders ends the workers' receive loops. The
        // scope alone waits only for each closure to return; a join
        // waits for the thread to exit, thread-local destructors
        // included, so no worker frees heap after the run returns.
        drop(tasks);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// The simulator: virtual time, nodes, network, actors. Every node is a
/// logical process; [`ShardedSim::set_workers`] spreads them over
/// worker threads (one by default) without changing any result, and
/// [`ShardedSim::digest`] witnesses that.
pub struct ShardedSim {
    seed: u64,
    now: SimTime,
    lps: Vec<Lp>,
    /// One per worker of the widest run so far. The first `dealt` hold
    /// every pending node event, node `n`'s in the heap of executor
    /// `n % dealt`; the first holds the traffic counters.
    executors: Vec<Executor>,
    dealt: usize,
    /// Events the harness queued so far (`add_node`'s `Start` and
    /// `ClockSync`, injections): the counter half of each one's
    /// [`Key::harness`].
    harness: u64,
    network: Arc<NetworkModel>,
    clock_profile: ClockProfile,
    /// The faults the harness queued and the changes nodes emitted,
    /// applied between epochs.
    changes: NetSchedule,
    workers: usize,
    /// The lookahead, a pure function of the network model: dropped
    /// whenever the model may have changed ([`ShardedSim::network_mut`],
    /// node additions), so every `run_until` sees the value an uncached
    /// run would derive without walking the link overrides per call.
    lookahead: Option<Duration>,
}

impl ShardedSim {
    /// A simulator with the given RNG root seed and the paper's clock
    /// profile. Defaults to one worker — parallelism is opt-in.
    pub fn new(seed: u64) -> ShardedSim {
        ShardedSim::with_clock_profile(seed, ClockProfile::paper())
    }

    /// A simulator whose nodes all use `profile` for clocks.
    pub fn with_clock_profile(seed: u64, profile: ClockProfile) -> ShardedSim {
        ShardedSim {
            seed,
            now: SimTime::ZERO,
            lps: Vec::new(),
            executors: vec![Executor::default()],
            dealt: 1,
            harness: 0,
            network: Arc::new(NetworkModel::new()),
            clock_profile: profile,
            changes: NetSchedule::default(),
            workers: 1,
            lookahead: None,
        }
    }

    /// Sets the worker-thread count (≥ 1; more workers than LPs run one
    /// LP each). Results are identical for every value; only wall time
    /// changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// Sheds the node table's growth slack now, as a run's first step would.
    pub fn shed_slack(&mut self) {
        self.lps.shrink_to_fit();
    }

    /// Does nothing. Each worker runs one executor group, dealt
    /// round-robin by node id, so there is no group count left to set.
    /// Kept only because `benchmark/src/workload/attach_geo.rs` calls
    /// it.
    pub fn set_shards(&mut self, _shards: usize) {}

    /// Does nothing. A link speaks v2 when both its ends negotiated it
    /// (`BrokerConfig::wire_v2`) or a caller sends on it with
    /// [`crate::Context::send_stream_v2`]; there is no engine switch
    /// left to set. Kept, with [`WireV2Config`], only because
    /// `benchmark/src/workload/pubsub.rs` compiles against it.
    pub fn set_wire_v2(&mut self, _cfg: Option<WireV2Config>) {}

    /// Current (coordinator) virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic counters: every worker's, folded into one at the end of
    /// each run.
    pub fn stats(&self) -> &NetStats {
        &self.executors[0].stats
    }

    /// Events processed since construction, summed over LPs.
    pub fn events_processed(&self) -> u64 {
        self.lps.iter().map(|lp| lp.events_processed).sum()
    }

    /// The run digest: an FNV-1a fold, in node order, of every LP's
    /// event-stream digest and event count. Byte-identical across
    /// worker counts: `crates/bench/tests/sharded_determinism.rs`
    /// compares exactly this value, and the scale campaign's tier rows
    /// carry it into the report `repro gate scale` byte-compares at 1
    /// and 4 workers.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for lp in &self.lps {
            mix(&mut h, lp.host.node.id.0 as u64);
            mix(&mut h, lp.events_processed);
            mix(&mut h, lp.digest);
        }
        h
    }

    /// The static network model (latencies, partitions, groups).
    /// Coordinator-time only; epochs snapshot it immutably. Handing out
    /// the mutable borrow drops the cached lookahead — the caller may be
    /// about to change what it is derived from.
    pub fn network_mut(&mut self) -> &mut NetworkModel {
        self.lookahead = None;
        Arc::make_mut(&mut self.network)
    }

    /// Read-only network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// The least cross-node latency, floored at 1 ns.
    fn lookahead(&mut self) -> Duration {
        *self.lookahead.get_or_insert_with(|| self.network.min_cross_node_latency().max(Duration::from_nanos(1)))
    }

    /// Adds a node running `actor` in `realm`. Its `on_start` runs at the
    /// current virtual time; its clock is sampled from its *own* RNG
    /// stream (first draws), so it is a pure function of (seed, node id)
    /// — not of insertion interleaving with other nodes' traffic, and
    /// not of worker count.
    pub fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.lps.len() as u32);
        let host = Host::new(self.seed, id, name, realm, &self.clock_profile, self.now, actor);
        let sync_at = host.node.clock.sync_at;
        self.lookahead = None;
        Arc::make_mut(&mut self.network).register_node(id, realm);
        self.lps.push(Lp {
            host,
            events_processed: 0,
            digest: FNV_OFFSET,
            now: self.now,
        });
        self.push(self.now, NodeEvent::Start { node: id });
        self.push(sync_at, NodeEvent::ClockSync { node: id });
        id
    }

    /// Queues a harness event for its node: keyed below every node's at
    /// the same instant, in call order among the harness's.
    fn push(&mut self, at: SimTime, ev: NodeEvent) {
        let key = Key::harness(&mut self.harness);
        let home = ev.target().0 as usize % self.dealt;
        self.executors[home].events.push(at, key, ev);
    }

    fn node(&self, node: NodeId) -> Option<&Node> {
        self.lps.get(node.0 as usize).map(|lp| &lp.host.node)
    }

    fn node_mut(&mut self, node: NodeId) -> Option<&mut Node> {
        self.lps.get_mut(node.0 as usize).map(|lp| &mut lp.host.node)
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

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.node(node).is_some_and(|n| n.up)
    }

    #[cfg(test)]
    pub(crate) fn armed_timer_slots(&self, node: NodeId) -> usize {
        self.node(node).map_or(0, |n| n.timers.len())
    }

    /// Applies one change at coordinator time: a node-scoped fault to its
    /// node, whose LP `groups` holds as dealt (one group: in node order);
    /// a network-wide fault or a group change to the model; a peer reset
    /// to every other node's connections. A reset forgets nothing a
    /// join or leave touches, and a second forgets nothing the first left.
    fn apply_change(&mut self, groups: &mut [Vec<Lp>], change: NetChange) {
        match change {
            NetChange::Fault(fault) => match fault.node() {
                Some(node) => self.apply_node_fault(groups, node, fault),
                None => Arc::make_mut(&mut self.network).apply_fault(&fault),
            },
            NetChange::Join(node, group) => Arc::make_mut(&mut self.network).join_group(group, node),
            NetChange::Leave(node, group) => Arc::make_mut(&mut self.network).leave_group(group, node),
            NetChange::ResetPeer(node) => {
                for lp in groups.iter_mut().flatten().filter(|lp| lp.host.node.id != node) {
                    lp.host.link.reset_node(node);
                }
            }
        }
    }

    /// Applies `fault` to `node` — its LP's clock catches up to `now` —
    /// through the executor holding its events, and queues what the act
    /// emitted, a crash's peer reset one lookahead later. A fault sends
    /// nothing; a restart's `Start` is the node's own event.
    fn apply_node_fault(&mut self, groups: &mut [Vec<Lp>], node: NodeId, fault: Fault) {
        let lookahead = self.lookahead();
        let (id, dealt) = (node.0 as usize, groups.len());
        let Some(lp) = groups[id % dealt].get_mut(id / dealt) else {
            return;
        };
        lp.now = lp.now.max(self.now);
        let exec = &mut self.executors[id % self.dealt];
        exec.lookahead = lookahead;
        lp.ctx(&self.network, exec).apply_fault(fault);
        if lp.host.link.take_peers_stale() {
            exec.change(lp.now, NetChange::ResetPeer(node));
        }
        debug_assert!(exec.outbox.is_empty(), "a fault sent a message");
        for (at, change) in exec.changes.drain(..) {
            self.changes.push(at, change);
        }
    }

    /// Registers the factory that rebuilds `node`'s actor on a lossy
    /// restart.
    pub fn set_respawn(&mut self, node: NodeId, factory: RespawnFn) {
        if let Some(n) = self.node_mut(node) {
            n.respawn = Some(factory);
        }
    }

    /// Applies `fault` now, at coordinator time, as the schedule applies
    /// a fault plan's at its instant. A node-scoped fault acts on its
    /// node: a crash marks it down — queued and future deliveries and
    /// timers are dropped, its stream connections reset at once and its
    /// peers' halves one lookahead later; a restart crashes it if it is
    /// still up and brings it back, so restarting a crashed node without
    /// `lose_state` revives it. With `lose_state` the actor is first
    /// replaced from the node's respawn factory, if it has one:
    /// registries, caches and all other volatile actor state are lost, a
    /// process restart rather than a network blip. The node keeps its
    /// identity, realm and hardware clock either way; a stall defers
    /// every event due at the node before it thaws. A network-wide fault
    /// changes the model.
    pub fn apply_fault(&mut self, fault: Fault) {
        let mut lps = std::mem::take(&mut self.lps);
        self.apply_change(std::slice::from_mut(&mut lps), NetChange::Fault(fault));
        self.lps = lps;
    }

    /// Puts every fault in `plan` on the schedule, offset from the
    /// current virtual time. Each applies as [`ShardedSim::apply_fault`]
    /// would, before any event due at its instant; one instant's faults
    /// apply in plan order. A fault of a node the run does not hold at
    /// its instant does nothing.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.changes.push(self.now + ev.at, NetChange::Fault(ev.fault.clone()));
        }
    }

    /// Queues an [`Incoming`] for delivery to `node` after `delay`.
    pub fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
        if self.node(node).is_some() {
            self.push(self.now + delay, NodeEvent::Inject { node, incoming });
        }
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Deals the pending events out to `workers` executors — node `n`'s
    /// to executor `n % workers`, each keeping its key, so where it sorts
    /// does not change — when the last run dealt them over another
    /// count, and hands each executor its place in the deal and the
    /// run's lookahead.
    fn deal_events(&mut self, workers: usize, lookahead: Duration) {
        if self.executors.len() < workers {
            self.executors.resize_with(workers, Executor::default);
        }
        if workers != self.dealt {
            let pending: Vec<_> = self.executors[..self.dealt].iter_mut().flat_map(|exec| exec.events.take()).collect();
            self.dealt = workers;
            for q in pending {
                self.executors[q.ev.target().0 as usize % workers].events.requeue(q);
            }
        }
        for (worker, exec) in self.executors[..workers].iter_mut().enumerate() {
            (exec.worker, exec.dealt, exec.lookahead) = (worker, workers, lookahead);
        }
    }

    /// Folds every other executor's traffic counters into the first's.
    fn fold_stats(&mut self) {
        if let [first, rest @ ..] = self.executors.as_mut_slice() {
            for exec in rest {
                first.stats.merge(&std::mem::take(&mut exec.stats));
            }
        }
    }

    /// Runs until virtual time reaches `deadline`, processing every
    /// event scheduled at or before it, epoch by epoch. One worker runs
    /// the node table in place; more deal it out (`deal`) for the run.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        let lookahead = self.lookahead();
        let workers = self.workers.clamp(1, self.lps.len().max(1));
        self.deal_events(workers, lookahead);
        let mut lps = std::mem::take(&mut self.lps);
        let mut dealt = Vec::new();
        let groups = if workers == 1 {
            lps.shrink_to_fit();
            std::slice::from_mut(&mut lps)
        } else {
            dealt = deal(std::mem::take(&mut lps), workers);
            dealt.as_mut_slice()
        };
        with_pool(workers, |dispatch| {
            while let Some(horizon) = self.next_horizon(groups, deadline, lookahead) {
                dispatch(groups, &mut self.executors[..workers], horizon, &self.network);
                self.barrier();
                self.now = self.now.max(horizon.min(deadline));
            }
        });
        self.lps = if workers == 1 { lps } else { undeal(dealt) };
        self.fold_stats();
        self.now = self.now.max(deadline);
    }

    /// Computes the next epoch's horizon, applying the network changes
    /// due first. Returns `None` when nothing remains at or before
    /// `deadline`.
    ///
    /// Safety sketch: let `m` be the earliest pending event anywhere
    /// and `L` the lookahead. Any event executing at `t ∈ [m, H)` with
    /// `H = m + L` can only schedule a cross-LP delivery at
    /// `t + spec.latency + extras ≥ m + L = H` (wire serialisation
    /// starts no earlier than `t`, jitter and stream setup are
    /// non-negative), so no delivery merged at the barrier lands inside
    /// the epoch that produced it, and no change the epoch emits lands
    /// before `H`. One worker merges nothing, so its horizon drops the
    /// `m + L` term. The horizon never crosses the next queued change
    /// (the model must not change mid-epoch) nor `deadline` (events *at*
    /// the deadline run, hence the +1 ns).
    fn next_horizon(&mut self, groups: &mut [Vec<Lp>], deadline: SimTime, lookahead: Duration) -> Option<SimTime> {
        loop {
            let m = self.executors[..self.dealt].iter().filter_map(|exec| exec.events.next_at()).min();
            if let Some((at, change)) = self.changes.pop_due(m, deadline) {
                self.now = self.now.max(at);
                self.apply_change(groups, change);
                continue;
            }
            let m = m?;
            if m > deadline {
                return None;
            }
            let mut horizon = deadline + Duration::from_nanos(1);
            if self.dealt > 1 {
                horizon = horizon.min(m + lookahead);
            }
            if let Some(at) = self.changes.next_at() {
                horizon = horizon.min(at);
            }
            return Some(horizon);
        }
    }

    /// The epoch barrier: queues the network changes the workers' LPs
    /// emitted, then moves every outbox into the heaps of the
    /// destinations' executors. Each delivery carries its key, so the
    /// order the outboxes drain in decides nothing; the buffers keep
    /// their capacity.
    fn barrier(&mut self) {
        let execs = &mut self.executors[..self.dealt];
        for (at, change) in execs.iter_mut().flat_map(|exec| exec.changes.drain(..)) {
            self.changes.push(at, change);
        }
        for worker in 0..execs.len() {
            let mut outbox = std::mem::take(&mut execs[worker].outbox);
            for q in outbox.drain(..) {
                let home = q.ev.target().0 as usize % execs.len();
                execs[home].events.requeue(q);
            }
            execs[worker].outbox = outbox;
        }
    }
}

/// Deals `lps`, in node order, to `workers` groups, round-robin: group
/// `w` holds the ids ≡ w (mod W), ascending. Which group an LP runs in
/// decides where it executes, never what it sees or sends.
fn deal(lps: Vec<Lp>, workers: usize) -> Vec<Vec<Lp>> {
    let mut groups: Vec<Vec<Lp>> = (0..workers).map(|_| Vec::with_capacity(lps.len().div_ceil(workers))).collect();
    for (i, lp) in lps.into_iter().enumerate() {
        groups[i % workers].push(lp);
    }
    groups
}

/// Puts dealt groups back in node order, at exact capacity: the
/// inverse of [`deal`].
fn undeal(groups: Vec<Vec<Lp>>) -> Vec<Lp> {
    let workers = groups.len();
    let n = groups.iter().map(Vec::len).sum();
    let mut dealt: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut lps = Vec::with_capacity(n);
    lps.extend((0..n).map_while(|i| dealt[i % workers].next()));
    lps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosProfile, ChaosTargets, PacketFaults};
    use crate::impl_actor_any;
    use crate::runtime::Context;
    use crate::timer_tests::{lossless, Echo, Pinger};
    use nb_wire::addr::well_known;
    use crate::link::LinkSpec;
    use nb_wire::{Endpoint, GroupId, Message};

    /// Three echo/pinger pairs spread over three realms, paper clocks,
    /// a light chaos plan: a workload exercising RNG streams, timers,
    /// faults and cross-realm traffic.
    fn mixed_workload(workers: usize) -> (u64, u64, u64) {
        let mut sim = ShardedSim::new(42);
        sim.set_workers(workers);
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

    /// Sends one ping to `to` at `after`.
    struct Sender {
        to: NodeId,
        after: Duration,
    }

    impl Actor for Sender {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(self.after, 1);
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { .. } = event {
                let reply_to = Endpoint::new(ctx.me(), well_known::PING);
                let ping = Message::Ping { nonce: 0, sent_at: 0, reply_to };
                ctx.send_udp(well_known::PING, Endpoint::new(self.to, well_known::PING), &ping);
            }
        }
        impl_actor_any!();
    }

    /// Logs what it is handed: a datagram as its sender's id, a timer as
    /// 1000 + its token. Arms token 7 for `timer`, if any.
    struct Recorder {
        timer: Option<Duration>,
        log: Vec<(SimTime, u32)>,
    }

    impl Actor for Recorder {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            if let Some(after) = self.timer {
                ctx.set_timer(after, 7);
            }
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            match event {
                Incoming::Datagram { from, .. } => self.log.push((ctx.now(), from.node.0)),
                Incoming::Timer { token } => self.log.push((ctx.now(), 1000 + token as u32)),
                _ => {}
            }
        }
        impl_actor_any!();
    }

    /// Lossless, jitter-free, unlimited links and perfect clocks: every
    /// ping takes exactly the LAN latency.
    fn still_net(workers: usize) -> ShardedSim {
        let mut sim = ShardedSim::with_clock_profile(3, ClockProfile::perfect());
        sim.set_workers(workers);
        let still = LinkSpec { jitter: Duration::ZERO, bandwidth: None, ..LinkSpec::lan().with_loss(0.0) };
        sim.network_mut().intra_realm_spec = still;
        sim
    }

    /// Three senders' pings and the receiver's own timer come due at
    /// the receiver (node 2) at one nanosecond, with a harness injection.
    /// They run in key order — the harness first, then by origin, the
    /// receiver's timer between senders 1 and 3 — although the timer was
    /// queued an epoch before the pings were merged, and identically at
    /// every worker count.
    #[test]
    fn same_instant_events_run_in_key_order_at_every_worker_count() {
        let latency = LinkSpec::lan().latency;
        let due = SimTime::ZERO + Duration::from_millis(100) + latency;
        let run = |workers: usize| {
            let mut sim = still_net(workers);
            let receiver = NodeId(2);
            let send = Duration::from_millis(100);
            for id in 0..4 {
                let actor: Box<dyn Actor> = if id == 2 {
                    Box::new(Recorder { timer: Some(send + latency), log: Vec::new() })
                } else {
                    Box::new(Sender { to: receiver, after: send })
                };
                assert_eq!(sim.add_node("n", RealmId(0), actor), NodeId(id));
            }
            sim.inject(receiver, due - SimTime::ZERO, Incoming::Timer { token: 99 });
            sim.run_for(Duration::from_secs(1));
            let log = sim.actor::<Recorder>(receiver).expect("the receiver").log.clone();
            (log, sim.digest(), sim.events_processed())
        };
        let reference = run(1);
        assert_eq!(reference.0, [1099, 0, 1, 1007, 3].map(|what| (due, what)));
        for workers in [2, 4] {
            assert_eq!(run(workers), reference, "at {workers} workers");
        }
    }

    /// A stalled node's deferred events replay in the order they
    /// arrived, not by sender: node 2's ping arrives 5 ms before node
    /// 1's and still runs first once the stall ends, at every worker
    /// count.
    #[test]
    fn a_stall_replays_in_arrival_order() {
        let stall = Duration::from_millis(50);
        let script = |sim: &mut ShardedSim| {
            let receiver = sim.add_node("r", RealmId(0), Box::new(Recorder { timer: None, log: Vec::new() }));
            for after in [10, 5] {
                let sender = Sender { to: receiver, after: Duration::from_millis(after) };
                sim.add_node("s", RealmId(0), Box::new(sender));
            }
            let fault = Fault::Stall { node: receiver, dur: stall };
            sim.apply_fault_plan(&FaultPlan::new().fault_at(Duration::ZERO, fault));
            sim.run_for(Duration::from_secs(1));
            sim.actor::<Recorder>(receiver).expect("the receiver").log.clone()
        };
        let thawed = SimTime::ZERO + stall;
        for workers in [1, 2, 4] {
            assert_eq!(script(&mut still_net(workers)), [(thawed, 2), (thawed, 1)], "at {workers} workers");
        }
    }

    /// A node fault lands before every event due at its instant, at
    /// every worker count: node 0 crashes at 200 ms and never sees the
    /// datagram the harness injected for that instant before it queued
    /// the crash; node 1, stalled at the instant a ping and its own timer
    /// come due, runs both at the thaw, in the order they arrived.
    #[test]
    fn a_node_fault_lands_before_every_event_at_its_instant() {
        let ms = Duration::from_millis;
        let (x, y, sender) = (NodeId(0), NodeId(1), NodeId(2));
        let (crash, due, stall) = (ms(200), ms(100) + LinkSpec::lan().latency, ms(50));
        let run = |workers: usize| {
            let mut sim = still_net(workers);
            let (trace, log) = crate::runtime::Trace::new();
            for timer in [None, Some(due)] {
                sim.add_node("r", RealmId(0), trace.wrap(Box::new(Recorder { timer, log: Vec::new() })));
            }
            sim.add_node("s", RealmId(0), trace.wrap(Box::new(Sender { to: y, after: ms(100) })));
            let from = Endpoint::new(sender, well_known::PING);
            let msg = nb_wire::WireMsg::new(Message::Ping { nonce: 0, sent_at: 0, reply_to: from });
            sim.inject(x, crash, Incoming::Datagram { from, to_port: well_known::PING, msg });
            let stalled = Fault::Stall { node: y, dur: stall };
            sim.apply_fault_plan(&FaultPlan::new().crash_at(crash, x).fault_at(due, stalled));
            sim.run_for(Duration::from_secs(1));
            let logged = |r: &crate::runtime::TraceRecord| (r.to.node, (r.at, r.msg.kind(), r.msg.body_len()));
            let recorded = |node| sim.actor::<Recorder>(node).expect("a recorder").log.clone();
            (log.take().iter().map(logged).collect::<Vec<_>>(), recorded(x), recorded(y))
        };
        let reference = run(1);
        let (arrivals, at_x, at_y) = &reference;
        let thawed = SimTime::ZERO + due + stall;
        assert!(at_x.is_empty(), "the crashed node was handed {at_x:?}");
        assert_eq!(arrivals.iter().map(|a| (a.0, a.1 .0)).collect::<Vec<_>>(), [(y, thawed)]);
        assert_eq!(*at_y, [(thawed, 1007), (thawed, sender.0)], "the timer, then the ping, at the thaw");
        for workers in [2, 4] {
            assert_eq!(run(workers), reference, "at {workers} workers");
        }
    }

    #[test]
    fn digest_invariant_across_workers() {
        let reference = mixed_workload(1);
        for workers in [2, 3, 4, 6, 8] {
            assert_eq!(mixed_workload(workers), reference, "diverged at workers={workers}");
        }
    }

    #[test]
    fn packet_fault_window_via_global_fault_is_deterministic() {
        let run = |workers: usize| {
            let mut sim = ShardedSim::with_clock_profile(6, ClockProfile::perfect());
            sim.set_workers(workers);
            lossless(&mut sim);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
            let window = FaultPlan::new().packet_fault_window(Duration::ZERO, Duration::from_secs(1), PacketFaults::unruly());
            sim.apply_fault_plan(&window);
            sim.run_for(Duration::from_secs(3));
            (sim.digest(), sim.events_processed())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn groups_deal_ids_round_robin_and_undeal_in_node_order() {
        let dealt = |n: usize, workers: usize| {
            let mut sim = ShardedSim::new(0);
            for _ in 0..n {
                sim.add_node("idle", RealmId(0), Box::new(crate::runtime::IdleActor));
            }
            let groups = deal(std::mem::take(&mut sim.lps), workers);
            let ids = |g: &Vec<Lp>| g.iter().map(|lp| lp.host.node.id.0).collect::<Vec<_>>();
            let dealt: Vec<Vec<u32>> = groups.iter().map(ids).collect();
            let order: Vec<u32> = undeal(groups).iter().map(|lp| lp.host.node.id.0).collect();
            assert_eq!(order, (0..n as u32).collect::<Vec<_>>(), "undeal restores node order");
            dealt
        };
        // Group w holds the ids ≡ w (mod W), ascending.
        assert_eq!(dealt(7, 3), vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        assert_eq!(dealt(6, 2), vec![vec![0, 2, 4], vec![1, 3, 5]]);
        assert_eq!(dealt(5, 1), vec![vec![0, 1, 2, 3, 4]]);
        assert_eq!(dealt(3, 3), vec![vec![0], vec![1], vec![2]]);
    }

    /// 2 049 nodes leave `add_node`'s table at capacity 4 096; a run
    /// holds it at its length, in place at one worker and dealt at
    /// three, and so does `shed_slack` before any run.
    #[test]
    fn a_run_holds_the_lp_table_at_its_length() {
        for (workers, shed) in [(1, false), (3, false), (1, true)] {
            let mut sim = ShardedSim::with_clock_profile(0, ClockProfile::perfect());
            sim.set_workers(workers);
            for _ in 0..2_049 {
                sim.add_node("idle", RealmId(0), Box::new(crate::runtime::IdleActor));
            }
            assert!(sim.lps.capacity() > sim.lps.len(), "add_node grows by doubling");
            if shed {
                sim.shed_slack();
                assert_eq!(sim.lps.capacity(), sim.lps.len(), "shed before a run");
            }
            sim.run_for(Duration::from_millis(1));
            assert_eq!(sim.lps.capacity(), sim.lps.len(), "workers={workers}");
        }
    }

    /// The multiply finds the quotient a divide would, for every worker
    /// count a run can have and ids from 0 to `u32::MAX`.
    #[test]
    fn stride_index_is_the_quotient() {
        let ids = (0..4_096).chain((0..64).map(|k| u32::MAX - k)).chain((1..32).map(|b| 1 << b));
        let ids: Vec<u32> = ids.collect();
        for workers in (1..=64).chain([97, 1_000, 65_537, u32::MAX as usize]) {
            let stride = Stride::new(workers);
            for &id in &ids {
                assert_eq!(stride.index(NodeId(id)), id as usize / workers, "{id} / {workers}");
            }
        }
    }

    /// ROADMAP items 3 and 6 want these smaller, never larger, than
    /// they were: `Lp` is what `mem_bytes_per_entity` in
    /// BENCH_scale.json mostly counts (496 bytes until its transport
    /// held one connection table where it had three books, 440 until
    /// its counters, outbox and deferred ops moved to the worker, 256
    /// until its event heap did); a heap entry, which is also an outbox
    /// entry, was 72 bytes until a `WireMsg` stopped carrying its own v2
    /// length.
    #[test]
    fn heap_entry_and_lp_are_no_larger_than_at_the_parent() {
        use std::mem::size_of;
        assert!(size_of::<Queued<NodeEvent>>() <= 64);
        assert!(size_of::<Lp>() <= 232);
    }

    /// What a [`Script`] node does at one instant.
    #[derive(Clone, Copy)]
    enum Step {
        Join,
        /// A timer that does nothing but run.
        Nudge,
        Cast(u64),
        Stream(NodeId, u64),
    }

    /// Runs its steps at their instants: multicasts and stream sends are
    /// pings carrying the step's nonce.
    struct Script(Vec<(SimTime, Step)>);

    const GROUP: GroupId = GroupId(7);

    impl Actor for Script {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            for (token, &(at, _)) in self.0.iter().enumerate() {
                if at >= ctx.now() {
                    ctx.set_timer(at - ctx.now(), token as u64);
                }
            }
        }
        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            let Incoming::Timer { token } = event else { return };
            let ping = |nonce| Message::Ping { nonce, sent_at: 0, reply_to: Endpoint::new(ctx.me(), well_known::PING) };
            match self.0[token as usize].1 {
                Step::Join => ctx.join_group(GROUP),
                Step::Nudge => {}
                Step::Cast(nonce) => ctx.send_multicast(well_known::PING, GROUP, well_known::PING, &ping(nonce)),
                Step::Stream(to, nonce) => {
                    ctx.send_stream(well_known::PING, Endpoint::new(to, well_known::PING), &ping(nonce));
                }
            }
        }
        impl_actor_any!();
    }

    /// A group change and a peer reset emitted at `t` land at `t + L`,
    /// `L` the least cross-node latency, at every worker count: node 0
    /// joins at 100 ms, so the multicast sent at `t + L − 1 ns` misses
    /// it and the one sent at `t + L` reaches it; node 3 restarts at
    /// 300 ms, so node 2 still holds its established connection at
    /// `t + L − 1 ns` and pays a fresh handshake at `t + L`. Node 1's
    /// nudges open an epoch `L / 2` before each change, where a change
    /// that landed at the epoch's barrier would land `L / 2` early.
    #[test]
    fn group_changes_and_peer_resets_land_one_lookahead_later() {
        let ms = |ms| SimTime::ZERO + Duration::from_millis(ms);
        let (join, crash, x) = (ms(100), ms(300), NodeId(3));
        // Each node's `(arrival, kind, body length)` and the ping's nonce.
        let run = |workers: usize| {
            let mut sim = still_net(workers);
            sim.network_mut().multicast_enabled = true;
            let lookahead = sim.network().min_cross_node_latency();
            let early = lookahead - Duration::from_nanos(1);
            let nudge = |at: SimTime| SimTime::ZERO + ((at - SimTime::ZERO) - lookahead / 2);
            let (trace, log) = crate::runtime::Trace::new();
            let scripts = [
                vec![(join, Step::Join)],
                vec![(ms(0), Step::Join), (nudge(join), Step::Nudge), (nudge(crash), Step::Nudge)],
                vec![
                    (join + early, Step::Cast(1)),
                    (join + lookahead, Step::Cast(2)),
                    (ms(200), Step::Stream(x, 3)),
                    (crash + early, Step::Stream(x, 4)),
                    (crash + lookahead, Step::Stream(x, 5)),
                ],
                Vec::new(),
            ];
            for script in scripts {
                sim.add_node("n", RealmId(0), trace.wrap(Box::new(Script(script))));
            }
            sim.apply_fault_plan(&FaultPlan::new().restart_at(crash - SimTime::ZERO, x, false));
            sim.run_for(Duration::from_secs(1));
            let logged = |r: &crate::runtime::TraceRecord| {
                let Message::Ping { nonce, .. } = *r.msg.message() else { panic!("the script sends pings") };
                (r.to.node, (r.at, r.msg.kind(), r.msg.body_len()), nonce)
            };
            (log.take().iter().map(logged).collect::<Vec<_>>(), lookahead)
        };
        let (reference, lookahead) = run(1);
        let nonces = |node: NodeId| reference.iter().filter(|r| r.0 == node).map(|r| r.2).collect::<Vec<_>>();
        assert_eq!(nonces(NodeId(0)), [2], "the joiner hears the cast sent once its join landed, not the one before");
        assert_eq!(nonces(NodeId(1)), [1, 2]);
        assert_eq!(nonces(x), [3, 4, 5]);
        // Node 2 forgets its half of the connection at `crash + L`: the
        // send before rides it, the send at that instant pays a handshake.
        let arrival = |nonce: u64| reference.iter().find(|r| r.2 == nonce).map(|r| r.1 .0).expect("delivered");
        assert_eq!(arrival(4), crash + (lookahead * 2 - Duration::from_nanos(1)), "no handshake");
        assert!(arrival(5) > crash + lookahead * 2, "a fresh handshake");
        for workers in [2, 4] {
            assert_eq!(run(workers), (reference.clone(), lookahead), "at {workers} workers");
        }
    }
}
