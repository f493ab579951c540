//! Conservative parallel discrete-event execution.
//!
//! [`crate::sim::Sim`] is single-threaded: one queue, one RNG, one clock.
//! That is perfect for pinned-seed reproductions but leaves every core
//! but one idle during large campaigns. This module runs the same node
//! model (`node.rs`; DESIGN.md §8) under a different scheduler: the
//! engine is sharded *by node id*, every node its own logical process
//! (LP) with a private RNG stream and its own row of the connection
//! table, and a coordinator runs the classic conservative-lookahead
//! protocol (Chandy/Misra/Bryant by way of a barrier-synchronous epoch
//! loop) over them. What is only ever summed, merged or ordered by key —
//! pending events, counters, outbox, deferred ops — is the running
//! worker's:
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
//!    An LP's own events (timers, self-sends, a restart's `Start`) go
//!    straight into the heap. Cross-LP deliveries are not pushed into
//!    the destination's heap (that would race); they wait in the
//!    worker's *outbox*, already keyed.
//! 3. **Barrier.** The coordinator applies deferred network mutations
//!    (multicast joins/leaves, crash-induced connection resets), then
//!    moves every outbox into the heap of the destination's worker, in
//!    any order: the key alone fixes where a delivery sorts.
//!
//! Because LP state, RNG streams (`SplitMix64(seed ^ node_id)` — that is
//! exactly what [`StdRng::seed_from_u64`] expands the xor through), the
//! lookahead window, the horizon sequence and every event's key are all
//! pure functions of (topology, seed), the run — including its event
//! digest — is **byte-identical for any worker count**. The deal —
//! worker `w` of `W` owns the LPs whose id ≡ w (mod W), and their
//! events — only decides which worker executes which LP, never what the
//! LPs compute (and the counters are sums); with one worker the engine
//! is the degenerate serial case of the same algorithm.
//!
//! What an actor can observe differently from `Sim` (digests are *not*
//! comparable between the engines, only across configurations of the
//! same engine; DESIGN.md §8 has the full list of what each scheduler
//! owns):
//!
//! * Globally-scoped faults (partitions, packet-fault windows) apply at
//!   epoch boundaries, always before protocol events carrying the same
//!   timestamp; `Sim` interleaves them by scheduling order.
//! * Events due at one node at one instant run harness pushes first
//!   (node-scoped faults, injections), then by sender id; `Sim` runs
//!   them in push order.
//! * `join_group`/`leave_group` become visible at the next barrier
//!   rather than immediately. Warmed-up scenarios never notice (joins
//!   happen at start-up, multicasts seconds later), but a same-instant
//!   join-then-multicast would.
//! * Every LP draws from its own RNG stream, so which dice a send rolls
//!   is a function of the sender, not of global send order.
//! * A stream connection is established at the receiver when its first
//!   message *arrives* (each LP keeps its own connections), not when it
//!   is sent: a reply sent before then pays its own handshake.
//!
//! Threading is confined to [`with_pool`]: a scoped worker pool on
//! `std::sync::mpsc`, moving each worker's LP group and executor
//! through its channel each epoch. Workers share nothing mutable — they
//! own what they were handed and borrow an immutable snapshot of the
//! network — which is why that function is the only sanctioned home for
//! thread primitives in nb-net (clippy.toml bans them everywhere else).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nb_util::{fnv1a64_step, fnv1a64_word, FNV_OFFSET};
use nb_wire::{Endpoint, GroupId, NodeId, RealmId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chaos::{Fault, FaultPlan, PacketFaults};
use crate::clock::ClockProfile;
use crate::link::{NetworkModel, Transport};
use crate::node::{EventHeap, Key, Node, NodeCtx, NodeEvent, Queued, RespawnFn, Scheduler};
use crate::runtime::{Actor, Incoming};
use crate::sim::{NetStats, Sim};
use crate::time::SimTime;

/// Folds one word into an LP's FNV-1a digest.
fn mix(h: &mut u64, x: u64) {
    *h = fnv1a64_word(*h, x);
}

/// The worker counts [`ShardedSim::parallel_bound_milli`] is tallied for.
pub const BOUND_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The widest of [`BOUND_WORKERS`]: events are tallied by `node % TALLY`,
/// which every bound's `node % W` is a function of.
const TALLY: usize = 8;

/// What one worker keeps for every LP it runs: their pending events in
/// one heap, their traffic counters (which [`ShardedSim::stats`] sums),
/// this epoch's processed events by `node % TALLY`, and for the barrier
/// their cross-LP deliveries and their network ops.
#[derive(Default)]
struct Executor {
    events: EventHeap<NodeEvent>,
    stats: NetStats,
    tally: [u64; TALLY],
    outbox: Vec<Queued<NodeEvent>>,
    ops: Vec<(NodeId, DeferredOp)>,
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
    /// Runs every event of the heap below `horizon`, each on its LP in
    /// `lps`: the group holding the ids ≡ w (mod W), ascending, so the
    /// LP of `id` is at `stride.index(id)`. Within the window every LP is
    /// causally closed: nothing another LP does this epoch can reach it
    /// before `horizon`.
    fn run_epoch(&mut self, lps: &mut [Lp], stride: Stride, horizon: SimTime, net: &NetworkModel, pf: PacketFaults) {
        while self.events.next_at().is_some_and(|at| at < horizon) {
            let Some(q) = self.events.pop() else { break };
            let lp = &mut lps[stride.index(q.ev.owner())];
            if cfg!(debug_assertions) {
                self.check_order(lp.node.id, q.at, q.key);
            }
            lp.handle(q, net, pf, self);
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

/// A network-model mutation requested mid-epoch. The model is shared
/// read-only during an epoch, so these apply at the barrier.
enum DeferredOp {
    Join(GroupId),
    Leave(GroupId),
    /// The emitting node crashed: every *other* LP must forget its
    /// half of the connections they shared. The crashed LP reset its own
    /// row inline (a same-epoch restart may already have created fresh
    /// records that must survive the barrier).
    ResetPeer,
}

/// One logical process: a node plus every piece of engine state that
/// only it touches and whose value depends on it alone. `Send`, so whole
/// LPs migrate between workers.
struct Lp {
    node: Node,
    /// Private RNG stream (seeded `root_seed ^ node_id` — a function of
    /// the node's identity, never of which worker runs it) and the
    /// node's row of the connection table.
    link: Transport,
    /// Events the node queued so far: the counter half of each one's
    /// [`Key`].
    emitted: u64,
    events_processed: u64,
    digest: u64,
    /// Local virtual time: the timestamp of the last processed event.
    now: SimTime,
}

/// An LP as its node sees it.
struct LpSched<'a> {
    id: NodeId,
    emitted: &'a mut u64,
    events: &'a mut EventHeap<NodeEvent>,
    outbox: &'a mut Vec<Queued<NodeEvent>>,
    ops: &'a mut Vec<(NodeId, DeferredOp)>,
}

impl<'a> Scheduler for LpSched<'a> {
    type Net = &'a NetworkModel;

    /// The LP's own events — timers, a restart's `Start`, self-sends —
    /// go straight into its worker's heap (they never cross an LP
    /// boundary, which is why the loopback spec is excluded from the
    /// lookahead); everything else into its worker's outbox for the
    /// barrier.
    #[inline]
    fn schedule(&mut self, at: SimTime, ev: NodeEvent) {
        let key = Key::node(self.id, self.emitted);
        match ev.target() {
            Some(to) if to != self.id => self.outbox.push(Queued { at, key, ev }),
            _ => self.events.push(at, key, ev),
        }
    }

    fn join_group(&mut self, _net: &mut Self::Net, _node: NodeId, group: GroupId) {
        self.ops.push((self.id, DeferredOp::Join(group)));
    }

    fn leave_group(&mut self, _net: &mut Self::Net, _node: NodeId, group: GroupId) {
        self.ops.push((self.id, DeferredOp::Leave(group)));
    }
}

impl Lp {
    /// The node at the LP's current instant, run by `exec`.
    fn ctx<'a>(&'a mut self, net: &'a NetworkModel, pf: PacketFaults, exec: &'a mut Executor) -> NodeCtx<'a, LpSched<'a>> {
        NodeCtx {
            sched: LpSched {
                id: self.node.id,
                emitted: &mut self.emitted,
                events: &mut exec.events,
                outbox: &mut exec.outbox,
                ops: &mut exec.ops,
            },
            node: &mut self.node,
            link: &mut self.link,
            stats: &mut exec.stats,
            net,
            faults: pf,
            now: self.now,
        }
    }

    /// Leaves `exec` the peer reset a crash of this node owes, once it
    /// has run. Group changes and peer resets touch disjoint state, and
    /// a second reset of one barrier forgets nothing the first left.
    fn defer_peer_reset(&mut self, exec: &mut Executor) {
        if self.link.take_peers_stale() {
            exec.ops.push((self.node.id, DeferredOp::ResetPeer));
        }
    }

    fn handle(&mut self, q: Queued<NodeEvent>, net: &NetworkModel, pf: PacketFaults, exec: &mut Executor) {
        let Queued { at, ev, .. } = q;
        // Monotonic clamp rather than an assert: with a (degenerate)
        // zero-latency link override the 1 ns lookahead floor exceeds
        // the true minimum and a merged delivery can carry a timestamp
        // the LP already passed. Ordering stays deterministic.
        self.now = self.now.max(at);
        if let Some(until) = ev.target().and_then(|_| self.node.stalled_past(at)) {
            // Re-keyed as the node's own, so the replay runs in the
            // order the events arrived, whoever sent them.
            exec.events.push(until, Key::node(self.node.id, &mut self.emitted), ev);
            return;
        }
        self.events_processed += 1;
        exec.tally[self.node.id.0 as usize % TALLY] += 1;
        digest_event(&mut self.digest, at, &ev);
        if let NodeEvent::Deliver { from, to_port, stream: true, .. } | NodeEvent::Segment { from, to_port, .. } =
            &ev
        {
            if self.node.up {
                // The tables are private: the sender's charged the
                // handshake, and accepting the first framed message
                // establishes the connection server-side too, so
                // replies on the same port pair skip the setup RTTs.
                let me = Endpoint::new(self.node.id, *to_port);
                self.link.mark_established(me, *from, self.now);
            }
        }
        self.ctx(net, pf, exec).handle(ev);
        self.defer_peer_reset(exec);
    }
}

/// Folds `Display` text into an FNV-1a digest byte by byte, as
/// [`fnv1a64_step`] over the formatted string would, without the string.
struct FnvSink<'a>(&'a mut u64);

impl std::fmt::Write for FnvSink<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        *self.0 = fnv1a64_step(*self.0, s.as_bytes());
        Ok(())
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
        NodeEvent::Fault { fault } => {
            mix(h, 5);
            // A `Display` impl that writes into the sink cannot fail.
            let _ = write!(FnvSink(h), "{fault}");
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

/// Applies one of `node`'s deferred ops to the model and the other LPs.
fn apply_deferred<'a>(
    network: &mut Arc<NetworkModel>,
    lps: impl Iterator<Item = &'a mut Lp>,
    node: NodeId,
    op: DeferredOp,
) {
    match op {
        DeferredOp::Join(group) => Arc::make_mut(network).join_group(group, node),
        DeferredOp::Leave(group) => Arc::make_mut(network).leave_group(group, node),
        DeferredOp::ResetPeer => {
            for lp in lps.filter(|lp| lp.node.id != node) {
                lp.link.reset_node(node);
            }
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
    pf: PacketFaults,
    horizon: SimTime,
}

/// An epoch's dispatch step: each dealt group's executor runs its heap
/// up to the horizon on the network snapshot.
type Dispatch<'a> = dyn FnMut(&mut [Vec<Lp>], &mut [Executor], SimTime, &Arc<NetworkModel>, PacketFaults) + 'a;

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
        f(&mut |groups, execs, horizon, net, pf| execs[0].run_epoch(&mut groups[0], one, horizon, net, pf));
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
                        task.exec.run_epoch(&mut task.lps, stride, task.horizon, &task.net, task.pf);
                        if result_tx.send(task).is_err() {
                            break;
                        }
                    }
                });
                (task_tx, handle)
            })
            .unzip();
        f(&mut |groups, execs, horizon, net, pf| {
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
                    pf,
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

/// The sharded simulator: [`Sim`]'s surface (construction, node
/// management, faults, injection, `run_for`/`run_until`, actor access),
/// plus [`ShardedSim::digest`],
/// [`ShardedSim::set_workers`] and [`ShardedSim::parallel_bound_milli`].
pub struct ShardedSim {
    seed: u64,
    now: SimTime,
    lps: Vec<Lp>,
    /// One per worker group of the widest run so far; each keeps its
    /// traffic counters. The first `dealt` hold every pending node
    /// event, node `n`'s in the heap of executor `n % dealt`.
    executors: Vec<Executor>,
    dealt: usize,
    /// Events the harness queued so far (`add_node`'s `Start` and
    /// `ClockSync`, injections, node-scoped faults): the counter half of
    /// each one's [`Key::harness`].
    harness: u64,
    network: Arc<NetworkModel>,
    clock_profile: ClockProfile,
    packet_faults: PacketFaults,
    /// Globally-scoped faults (partitions, packet-fault windows), keyed
    /// `(time, schedule seq)`; applied between epochs.
    global_faults: BTreeMap<(SimTime, u64), Fault>,
    gseq: u64,
    workers: usize,
    /// Σ over epochs of the busiest worker's events, at each of
    /// [`BOUND_WORKERS`].
    busiest: [u64; 4],
    /// The lookahead window, a pure function of the network model:
    /// dropped whenever the model may have changed
    /// ([`ShardedSim::network_mut`], node additions), so every
    /// `run_until` sees the value an uncached run would derive without
    /// walking the link overrides per call.
    lookahead: Option<Duration>,
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
            executors: vec![Executor::default()],
            dealt: 1,
            harness: 0,
            network: Arc::new(NetworkModel::new()),
            clock_profile: profile,
            packet_faults: PacketFaults::none(),
            global_faults: BTreeMap::new(),
            gseq: 0,
            workers: 1,
            busiest: [0; 4],
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

    /// The parallel bound at each of [`BOUND_WORKERS`], in thousandths,
    /// over every epoch run so far: the events processed ÷ the Σ over
    /// epochs of the busiest worker's events when worker `w` of `W` runs
    /// the LPs whose id ≡ w (mod W). 1000 means no speed-up. It counts
    /// events only, so it is identical for every worker count.
    pub fn parallel_bound_milli(&self) -> [u64; 4] {
        let events = self.events_processed();
        self.busiest.map(|busiest| (events * 1000).checked_div(busiest).unwrap_or(0))
    }

    /// Current (coordinator) virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregated traffic counters: the sum of every executor's.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for exec in &self.executors {
            total.merge(&exec.stats);
        }
        total
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
            mix(&mut h, lp.node.id.0 as u64);
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

    /// Adds a node running `actor` in `realm`. The node's clock is
    /// sampled from its *own* RNG stream (first draws), so it is a pure
    /// function of (seed, node id) — not of insertion interleaving with
    /// other nodes' traffic, and not of worker count.
    pub fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.lps.len() as u32);
        assert!(id.0 <= Key::MAX_NODE, "an event key names at most {} nodes", Key::MAX_NODE + 1);
        self.lookahead = None;
        let mut rng = StdRng::seed_from_u64(self.seed ^ id.0 as u64);
        let clock = self.clock_profile.sample(self.now, &mut rng);
        let sync_at = clock.sync_at;
        Arc::make_mut(&mut self.network).register_node(id, realm);
        self.lps.push(Lp {
            node: Node::new(id, name, realm, clock, actor),
            link: Transport::for_node(rng, id),
            emitted: 0,
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
        let home = ev.owner().0 as usize % self.dealt;
        self.executors[home].events.push(at, key, ev);
    }

    fn node(&self, node: NodeId) -> Option<&Node> {
        self.lps.get(node.0 as usize).map(|lp| &lp.node)
    }

    fn node_mut(&mut self, node: NodeId) -> Option<&mut Node> {
        self.lps.get_mut(node.0 as usize).map(|lp| &mut lp.node)
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

    /// Immutable access to a node's actor as a trait object.
    pub fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor> {
        self.node(node)?.actor.as_deref()
    }

    /// Mutable access to a node's actor as a trait object.
    fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
        Some(self.node_mut(node)?.actor.as_mut()?.as_mut())
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.node(node).is_some_and(|n| n.up)
    }

    #[cfg(test)]
    pub(crate) fn armed_timer_slots(&self, node: NodeId) -> usize {
        self.node(node).map_or(0, |n| n.timers.len())
    }

    /// Acts on `node` at coordinator time — every LP's clock stands at
    /// `now` between runs — through the executor holding its events,
    /// and applies what it deferred right away: there is no epoch in
    /// flight to protect. A crash, revive or restart sends nothing.
    fn at_coordinator_time(&mut self, node: NodeId, f: impl FnOnce(&mut NodeCtx<'_, LpSched<'_>>)) {
        let Some(lp) = self.lps.get_mut(node.0 as usize) else {
            return;
        };
        let exec = &mut self.executors[node.0 as usize % self.dealt];
        f(&mut lp.ctx(&self.network, self.packet_faults, exec));
        lp.defer_peer_reset(exec);
        for (node, op) in exec.ops.drain(..) {
            apply_deferred(&mut self.network, self.lps.iter_mut(), node, op);
        }
        debug_assert!(exec.outbox.is_empty(), "a coordinator-time act sent a message");
    }

    /// Marks a node down immediately (coordinator time).
    pub fn crash(&mut self, node: NodeId) {
        self.at_coordinator_time(node, |ctx| ctx.crash());
    }

    /// Revives a crashed node and re-runs its `on_start`.
    pub fn revive(&mut self, node: NodeId) {
        self.at_coordinator_time(node, |ctx| ctx.revive());
    }

    /// Registers the factory that rebuilds `node`'s actor on a lossy
    /// restart.
    pub fn set_respawn(&mut self, node: NodeId, factory: RespawnFn) {
        if let Some(n) = self.node_mut(node) {
            n.respawn = Some(factory);
        }
    }

    /// Restarts a node: crash (if still up) then revive; with
    /// `lose_state` the actor is rebuilt from its respawn factory.
    pub fn restart(&mut self, node: NodeId, lose_state: bool) {
        self.at_coordinator_time(node, |ctx| ctx.apply_fault(Fault::Restart { node, lose_state }));
    }

    /// Queues every fault in `plan`, offset from the current virtual
    /// time. Node-scoped faults are queued for the owning node;
    /// globally-scoped ones go to the coordinator's schedule.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.schedule_fault(ev.at, ev.fault.clone());
        }
    }

    /// Queues a single fault after `delay`.
    fn schedule_fault(&mut self, delay: Duration, fault: Fault) {
        let at = self.now + delay;
        match fault.node() {
            Some(node) => {
                if self.node(node).is_some() {
                    self.push(at, NodeEvent::Fault { fault });
                }
            }
            None => {
                self.global_faults.insert((at, self.gseq), fault);
                self.gseq += 1;
            }
        }
    }

    fn apply_global_fault(&mut self, fault: Fault) {
        match fault.packet_faults() {
            Some(faults) => self.packet_faults = faults,
            None => Arc::make_mut(&mut self.network).apply_fault(&fault),
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

    /// Deals the LPs out to the worker groups, round-robin: group `w` of
    /// `W` holds the ids ≡ w (mod W), ascending, and executor `w` their
    /// pending events. `W` is the worker count clamped to the LP count;
    /// one worker takes the whole vector, moving no LP, and sheds its
    /// growth slack (a no-op until nodes join again). Which group an LP
    /// runs in decides where it executes, never what it sees or sends:
    /// everything but a self-send goes through the outbox and the
    /// barrier whichever group holds the destination.
    fn deal(&mut self) -> Vec<Vec<Lp>> {
        let workers = self.workers.clamp(1, self.lps.len().max(1));
        self.redeal_events(workers);
        let mut lps = std::mem::take(&mut self.lps);
        if workers == 1 {
            lps.shrink_to_fit();
            return vec![lps];
        }
        let mut groups: Vec<Vec<Lp>> =
            (0..workers).map(|_| Vec::with_capacity(lps.len().div_ceil(workers))).collect();
        for (i, lp) in lps.into_iter().enumerate() {
            groups[i % workers].push(lp);
        }
        groups
    }

    /// Moves every pending event to executor `node % workers` when the
    /// last run dealt them over another count. Each keeps its key, so
    /// where it sorts does not change.
    fn redeal_events(&mut self, workers: usize) {
        if workers == self.dealt {
            return;
        }
        if self.executors.len() < workers {
            self.executors.resize_with(workers, Executor::default);
        }
        let pending: Vec<_> = self.executors[..self.dealt].iter_mut().flat_map(|exec| exec.events.take()).collect();
        self.dealt = workers;
        for q in pending {
            self.executors[q.ev.owner().0 as usize % workers].events.requeue(q);
        }
    }

    /// Puts dealt groups back in node order, at exact capacity: the
    /// inverse of [`ShardedSim::deal`].
    fn undeal(&mut self, mut groups: Vec<Vec<Lp>>) {
        let workers = groups.len();
        if workers == 1 {
            self.lps = groups.pop().unwrap_or_default();
            return;
        }
        let n = groups.iter().map(Vec::len).sum();
        let mut dealt: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
        self.lps = Vec::with_capacity(n);
        self.lps.extend((0..n).map_while(|i| dealt[i % workers].next()));
    }

    /// Runs until virtual time reaches `deadline`, processing every
    /// event scheduled at or before it, epoch by epoch, and folds each
    /// epoch's per-worker event tallies into the parallel bound.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        let lookahead = *self.lookahead.get_or_insert_with(|| {
            self.network.min_cross_node_latency().max(Duration::from_nanos(1))
        });
        let mut groups = self.deal();
        with_pool(groups.len(), |dispatch| {
            while let Some(horizon) = self.next_horizon(deadline, lookahead) {
                let execs = &mut self.executors[..groups.len()];
                dispatch(&mut groups, execs, horizon, &self.network, self.packet_faults);
                self.fold_bound();
                self.barrier(&mut groups);
                self.now = self.now.max(horizon.min(deadline));
            }
        });
        // Put the LPs back and let their local clocks catch up to the
        // coordinator's.
        self.undeal(groups);
        self.now = self.now.max(deadline);
        for lp in &mut self.lps {
            lp.now = lp.now.max(self.now);
        }
    }

    /// Computes the next epoch's safe horizon, applying due global
    /// faults first. Returns `None` when nothing remains at or before
    /// `deadline`.
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
    fn next_horizon(&mut self, deadline: SimTime, lookahead: Duration) -> Option<SimTime> {
        loop {
            let m = self.executors[..self.dealt].iter().filter_map(|exec| exec.events.next_at()).min();
            if let Some(next) = self.global_faults.first_entry() {
                let at = next.key().0;
                if m.is_none_or(|m| at <= m) && at <= deadline {
                    let fault = next.remove();
                    self.now = self.now.max(at);
                    self.apply_global_fault(fault);
                    continue;
                }
            }
            let m = m?;
            if m > deadline {
                return None;
            }
            let mut horizon = (m + lookahead).min(deadline + Duration::from_nanos(1));
            if let Some((&(at, _), _)) = self.global_faults.first_key_value() {
                horizon = horizon.min(at);
            }
            return Some(horizon);
        }
    }

    /// Folds the epoch's tallies into the busiest worker's events at
    /// each of [`BOUND_WORKERS`]: worker `w` of `W` ran the LPs whose
    /// id ≡ w (mod W), and `W` divides [`TALLY`].
    fn fold_bound(&mut self) {
        let mut by_residue = [0u64; TALLY];
        for exec in &mut self.executors[..self.dealt] {
            for (sum, n) in by_residue.iter_mut().zip(std::mem::take(&mut exec.tally)) {
                *sum += n;
            }
        }
        for (busiest, w) in self.busiest.iter_mut().zip(BOUND_WORKERS) {
            let mut per_worker = [0u64; TALLY];
            for (residue, n) in by_residue.iter().enumerate() {
                per_worker[residue % w] += n;
            }
            *busiest += per_worker.into_iter().max().unwrap_or(0);
        }
    }

    /// The epoch barrier: applies the workers' deferred network ops —
    /// they commute across nodes (group membership is a set, and a peer
    /// reset forgets one peer in each other row) — then moves every
    /// outbox into the heaps of the destinations' executors. Each
    /// delivery carries its key, so the order the outboxes drain in
    /// decides nothing; the buffers keep their capacity.
    fn barrier(&mut self, groups: &mut [Vec<Lp>]) {
        let execs = &mut self.executors[..self.dealt];
        for (node, op) in execs.iter_mut().flat_map(|exec| exec.ops.drain(..)) {
            apply_deferred(&mut self.network, groups.iter_mut().flatten(), node, op);
        }
        for worker in 0..execs.len() {
            let mut outbox = std::mem::take(&mut execs[worker].outbox);
            for q in outbox.drain(..) {
                let home = q.ev.owner().0 as usize % execs.len();
                execs[home].events.requeue(q);
            }
            execs[worker].outbox = outbox;
        }
    }
}


/// The engine surface deployments are built through and tests run on,
/// so one construction path (`crates/core`'s `Deployment::build`) and
/// one test body (its `on_every_engine`) target both engines. A
/// borrowed engine is an engine too, so a testbed type can hold one.
pub trait DiscoveryEngine {
    /// Adds a node running `actor` in `realm`.
    fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId;
    /// Registers the factory that rebuilds `node`'s actor on a restart
    /// with state loss.
    fn set_respawn(&mut self, node: NodeId, factory: RespawnFn);
    /// The network model.
    fn network(&self) -> &NetworkModel;
    /// The mutable network model (coordinator time).
    fn network_mut(&mut self) -> &mut NetworkModel;
    /// A node's name.
    fn node_name(&self, node: NodeId) -> &str;
    /// A node's actor as a trait object.
    fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor>;
    /// Mutable counterpart of [`DiscoveryEngine::actor_dyn`].
    fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor>;
    /// Whether `node` is up.
    fn is_up(&self, node: NodeId) -> bool;
    /// Marks `node` down now.
    fn crash(&mut self, node: NodeId);
    /// Revives a crashed `node` and re-runs its `on_start`.
    fn revive(&mut self, node: NodeId);
    /// Restarts `node` now; with `lose_state` from its respawn factory.
    fn restart(&mut self, node: NodeId, lose_state: bool);
    /// Queues every fault in `plan`, offset from now.
    fn apply_fault_plan(&mut self, plan: &FaultPlan);
    /// Queues an [`Incoming`] for `node` after `delay`.
    fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming);
    /// Runs for `d` of virtual time.
    fn run_for(&mut self, d: Duration);
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Traffic counters.
    fn stats(&self) -> NetStats;
    /// Events processed so far.
    fn events_processed(&self) -> u64;
}

impl dyn DiscoveryEngine + '_ {
    /// A node's actor, downcast to `T`.
    pub fn actor<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.actor_dyn(node)?.as_any().downcast_ref()
    }

    /// Mutable counterpart of `actor`.
    pub fn actor_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.actor_dyn_mut(node)?.as_any_mut().downcast_mut()
    }
}

/// Implements [`DiscoveryEngine`] for `$engine` with `$to`'s method of
/// each name: an engine's own, or, through `[*]`, the borrowed engine's.
macro_rules! discovery_engine {
    ($([$($g:tt)*] $engine:ty => $to:ty, [$($d:tt)?];)*) => {$(
        impl<$($g)*> DiscoveryEngine for $engine {
            fn add_node(&mut self, name: &str, realm: RealmId, actor: Box<dyn Actor>) -> NodeId {
                <$to>::add_node($($d)? self, name, realm, actor)
            }
            fn set_respawn(&mut self, node: NodeId, factory: RespawnFn) {
                <$to>::set_respawn($($d)? self, node, factory)
            }
            fn network(&self) -> &NetworkModel { <$to>::network($($d)? self) }
            fn network_mut(&mut self) -> &mut NetworkModel { <$to>::network_mut($($d)? self) }
            fn node_name(&self, node: NodeId) -> &str { <$to>::node_name($($d)? self, node) }
            fn actor_dyn(&self, node: NodeId) -> Option<&dyn Actor> { <$to>::actor_dyn($($d)? self, node) }
            fn actor_dyn_mut(&mut self, node: NodeId) -> Option<&mut dyn Actor> {
                <$to>::actor_dyn_mut($($d)? self, node)
            }
            fn is_up(&self, node: NodeId) -> bool { <$to>::is_up($($d)? self, node) }
            fn crash(&mut self, node: NodeId) { <$to>::crash($($d)? self, node) }
            fn revive(&mut self, node: NodeId) { <$to>::revive($($d)? self, node) }
            fn restart(&mut self, node: NodeId, lose_state: bool) { <$to>::restart($($d)? self, node, lose_state) }
            fn apply_fault_plan(&mut self, plan: &FaultPlan) { <$to>::apply_fault_plan($($d)? self, plan) }
            fn inject(&mut self, node: NodeId, delay: Duration, incoming: Incoming) {
                <$to>::inject($($d)? self, node, delay, incoming)
            }
            fn run_for(&mut self, d: Duration) { <$to>::run_for($($d)? self, d) }
            fn now(&self) -> SimTime { <$to>::now($($d)? self) }
            fn stats(&self) -> NetStats { <$to>::stats($($d)? self).clone() }
            fn events_processed(&self) -> u64 { <$to>::events_processed($($d)? self) }
        }
    )*};
}

discovery_engine! {
    [] Sim => Sim, [];
    [] ShardedSim => ShardedSim, [];
    [E: DiscoveryEngine + ?Sized] &mut E => E, [*];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosProfile, ChaosTargets};
    use crate::impl_actor_any;
    use crate::runtime::Context;
    use crate::timer_tests::{lossless, Echo, Pinger};
    use nb_wire::addr::well_known;
    use crate::link::LinkSpec;
    use nb_wire::Message;

    /// Three echo/pinger pairs spread over three realms, paper clocks,
    /// a light chaos plan: a workload exercising RNG streams, timers,
    /// faults and cross-realm traffic.
    fn mixed_workload(workers: usize) -> (u64, u64, u64, [u64; 4]) {
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
        (sim.digest(), sim.events_processed(), sim.stats().datagrams_delivered, sim.parallel_bound_milli())
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
    /// 1's and still runs first once the stall ends, on `Sim` and at
    /// every worker count.
    #[test]
    fn a_stall_replays_in_arrival_order() {
        let stall = Duration::from_millis(50);
        let script = |sim: &mut dyn DiscoveryEngine| {
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
        let mut serial = Sim::with_clock_profile(3, ClockProfile::perfect());
        serial.network_mut().intra_realm_spec = still_net(1).network().intra_realm_spec;
        assert_eq!(script(&mut serial), [(thawed, 2), (thawed, 1)], "on Sim");
        for workers in [1, 2, 4] {
            assert_eq!(script(&mut still_net(workers)), [(thawed, 2), (thawed, 1)], "at {workers} workers");
        }
    }

    #[test]
    fn digest_and_bound_invariant_across_workers() {
        let reference = mixed_workload(1);
        assert_eq!(reference.3[0], 1000, "one worker runs every event itself");
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
    fn groups_deal_ids_round_robin_and_undeal_in_node_order() {
        let dealt = |n: usize, workers: usize| {
            let mut sim = ShardedSim::new(0);
            for _ in 0..n {
                sim.add_node("idle", RealmId(0), Box::new(crate::runtime::IdleActor));
            }
            sim.set_workers(workers);
            let groups = sim.deal();
            let ids = |g: &Vec<Lp>| g.iter().map(|lp| lp.node.id.0).collect::<Vec<_>>();
            let dealt: Vec<Vec<u32>> = groups.iter().map(ids).collect();
            sim.undeal(groups);
            let order: Vec<u32> = sim.lps.iter().map(|lp| lp.node.id.0).collect();
            assert_eq!(order, (0..n as u32).collect::<Vec<_>>(), "undeal restores node order");
            dealt
        };
        // Group w holds the ids ≡ w (mod W), ascending.
        assert_eq!(dealt(7, 3), vec![vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        assert_eq!(dealt(6, 2), vec![vec![0, 2, 4], vec![1, 3, 5]]);
        assert_eq!(dealt(5, 1), vec![vec![0, 1, 2, 3, 4]]);
        // More workers than LPs clamps to one LP a group.
        assert_eq!(dealt(3, 100), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(dealt(0, 4), vec![Vec::<u32>::new()]);
    }

    /// 2 049 nodes leave `add_node`'s table at capacity 4 096; a run
    /// holds it at its length, on the one-group path and the dealt one,
    /// and so does `shed_slack` before any run.
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

    /// Two idle LPs with known per-epoch loads, through the bound tally.
    /// Perfect clocks put each LP's `Start` and `ClockSync` at 0, so the
    /// epochs are {0: 2, 1: 2}, then three injections on LP 0 at 1 s,
    /// then one on LP 1 at 2 s: 8 events. One worker runs all 8; at
    /// W ≥ 2 the busiest worker runs 2 + 3 + 1 = 6, a bound of 8/6.
    #[test]
    fn parallel_bound_tallies_the_busiest_worker_per_epoch() {
        for workers in [1, 2, 4] {
            let mut sim = ShardedSim::with_clock_profile(0, ClockProfile::perfect());
            sim.set_workers(workers);
            let a = sim.add_node("a", RealmId(0), Box::new(crate::runtime::IdleActor));
            let b = sim.add_node("b", RealmId(0), Box::new(crate::runtime::IdleActor));
            for (node, at, token) in [(a, 1, 1), (a, 1, 2), (a, 1, 3), (b, 2, 4)] {
                sim.inject(node, Duration::from_secs(at), Incoming::Timer { token });
            }
            assert_eq!(sim.parallel_bound_milli(), [0; 4], "no event yet");
            sim.run_for(Duration::from_secs(3));
            assert_eq!(sim.events_processed(), 8);
            assert_eq!(sim.parallel_bound_milli(), [1000, 1333, 1333, 1333], "workers={workers}");
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
        sim.network_mut().multicast_enabled = true;
        let a = sim.add_node("a", RealmId(0), Box::new(Caster { group, heard: 0 }));
        let b = sim.add_node("b", RealmId(0), Box::new(Caster { group, heard: 0 }));
        sim.run_for(Duration::from_secs(1));
        assert_eq!(sim.actor::<Caster>(a).unwrap().heard, 1);
        assert_eq!(sim.actor::<Caster>(b).unwrap().heard, 1);
    }
}
