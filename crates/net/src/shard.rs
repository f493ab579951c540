//! Conservative parallel discrete-event execution.
//!
//! [`crate::sim::Sim`] is single-threaded: one queue, one RNG, one clock.
//! That is perfect for pinned-seed reproductions but leaves every core
//! but one idle during large campaigns. This module runs the same node
//! model (`node.rs`; DESIGN.md §8) under a different scheduler: the
//! engine is sharded *by node id*, every node its own logical process
//! (LP) with a private event heap, RNG stream, its own row of the
//! connection table and traffic counters, and a coordinator runs the
//! classic conservative-lookahead protocol (Chandy/Misra/Bryant by way
//! of a barrier-synchronous epoch loop) over them:
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
//! digest — is **byte-identical for any worker count**. The deal —
//! worker `w` of `W` owns the LPs whose id ≡ w (mod W) — only decides
//! which worker executes which LP, never what the LPs compute; with one
//! worker the engine is the degenerate serial case of the same
//! algorithm.
//!
//! What an actor can observe differently from `Sim` (digests are *not*
//! comparable between the engines, only across configurations of the
//! same engine; DESIGN.md §8 has the full list of what each scheduler
//! owns):
//!
//! * Globally-scoped faults (partitions, packet-fault windows) apply at
//!   epoch boundaries, always before protocol events carrying the same
//!   timestamp; `Sim` interleaves them by scheduling order.
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
//! `std::sync::mpsc`, moving each worker's LP group through its channel
//! each epoch. Workers share nothing mutable — they own the LPs they
//! were handed and borrow an immutable snapshot of the network — which
//! is why that function is the only sanctioned home for thread
//! primitives in nb-net (clippy.toml bans them everywhere else).

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use nb_util::{fnv1a64_step, fnv1a64_word, FNV_OFFSET};
use nb_wire::{Endpoint, GroupId, NodeId, RealmId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chaos::{Fault, FaultPlan, PacketFaults};
use crate::clock::ClockProfile;
use crate::link::{NetworkModel, Transport};
use crate::node::{EventHeap, Node, NodeCtx, NodeEvent, RespawnFn, Scheduler};
use crate::runtime::{Actor, Incoming};
use crate::sim::{NetStats, Sim};
use crate::time::SimTime;

/// Folds one word into an LP's FNV-1a digest.
fn mix(h: &mut u64, x: u64) {
    *h = fnv1a64_word(*h, x);
}

/// A cross-LP delivery buffered in the sender's outbox until the epoch
/// barrier. Emission order within one outbox is preserved by the merge.
struct OutMsg {
    at: SimTime,
    to: NodeId,
    ev: NodeEvent,
}

/// A network-model mutation requested mid-epoch. The model is shared
/// read-only during an epoch, so these apply at the barrier, in node
/// order.
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
/// only it touches. `Send`, so whole LPs migrate between workers.
struct Lp {
    node: Node,
    /// Private RNG stream (seeded `root_seed ^ node_id` — a function of
    /// the node's identity, never of which worker runs it), the node's
    /// row of the connection table and its counters.
    link: Transport,
    events: EventHeap<NodeEvent>,
    events_processed: u64,
    digest: u64,
    /// Local virtual time: the timestamp of the last processed event.
    now: SimTime,
    outbox: Vec<OutMsg>,
    ops: Vec<DeferredOp>,
}

/// An LP as its node sees it.
struct LpSched<'a> {
    id: NodeId,
    events: &'a mut EventHeap<NodeEvent>,
    outbox: &'a mut Vec<OutMsg>,
    ops: &'a mut Vec<DeferredOp>,
}

impl<'a> Scheduler for LpSched<'a> {
    type Net = &'a NetworkModel;

    /// The LP's own events — timers, a restart's `Start`, self-sends —
    /// go straight into its heap (they never cross an LP boundary,
    /// which is why the loopback spec is excluded from the lookahead);
    /// everything else into the outbox for the barrier merge.
    #[inline]
    fn schedule(&mut self, at: SimTime, ev: NodeEvent) {
        match ev.target() {
            Some(to) if to != self.id => self.outbox.push(OutMsg { at, to, ev }),
            _ => self.events.push(at, ev),
        }
    }

    fn join_group(&mut self, _net: &mut Self::Net, _node: NodeId, group: GroupId) {
        self.ops.push(DeferredOp::Join(group));
    }

    fn leave_group(&mut self, _net: &mut Self::Net, _node: NodeId, group: GroupId) {
        self.ops.push(DeferredOp::Leave(group));
    }
}

impl Lp {
    /// The node at the LP's current instant.
    fn ctx<'a>(&'a mut self, net: &'a NetworkModel, faults: PacketFaults) -> NodeCtx<'a, LpSched<'a>> {
        NodeCtx {
            sched: LpSched {
                id: self.node.id,
                events: &mut self.events,
                outbox: &mut self.outbox,
                ops: &mut self.ops,
            },
            node: &mut self.node,
            link: &mut self.link,
            net,
            faults,
            now: self.now,
            trace: None,
        }
    }

    /// What the node left for the barrier. A crash comes last whenever
    /// it happened: group changes and peer resets touch disjoint state,
    /// and nothing runs between two resets of one barrier.
    fn take_deferred(&mut self) -> Vec<DeferredOp> {
        if self.link.take_peers_stale() {
            self.ops.push(DeferredOp::ResetPeer);
        }
        std::mem::take(&mut self.ops)
    }

    /// Runs this LP's events strictly below `horizon`. Within the
    /// window the LP is causally closed: nothing another LP does this
    /// epoch can reach it before `horizon`.
    fn process_until(&mut self, horizon: SimTime, net: &NetworkModel, pf: PacketFaults) {
        while self.events.next_at().is_some_and(|at| at < horizon) {
            if let Some(q) = self.events.pop() {
                self.handle(q.at, q.ev, net, pf);
            }
        }
    }

    fn handle(&mut self, at: SimTime, ev: NodeEvent, net: &NetworkModel, pf: PacketFaults) {
        // Monotonic clamp rather than an assert: with a (degenerate)
        // zero-latency link override the 1 ns lookahead floor exceeds
        // the true minimum and a merged delivery can carry a timestamp
        // the LP already passed. Ordering stays deterministic.
        self.now = self.now.max(at);
        if let Some(until) = ev.target().and_then(|_| self.node.stalled_past(at)) {
            self.events.push(until, ev);
            return;
        }
        self.events_processed += 1;
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
        self.ctx(net, pf).handle(ev);
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
            *h = fnv1a64_step(*h, fault.to_string().as_bytes());
        }
        NodeEvent::Deliver { from, to_port, msg, len, stream, .. } => {
            mix(h, 6);
            mix(h, from.node.0 as u64);
            mix(h, from.port.0 as u64);
            mix(h, to_port.0 as u64);
            mix(h, *len as u64);
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

/// `node`'s LP among groups dealt round-robin ([`ShardedSim::deal`]):
/// group `node % W`, slot `node / W`. One group skips the divisions,
/// which the serial path would pay several times an active LP.
fn lp_of(groups: &mut [Vec<Lp>], node: u32) -> &mut Lp {
    match groups {
        [lps] => &mut lps[node as usize],
        _ => {
            let w = groups.len();
            &mut groups[node as usize % w][node as usize / w]
        }
    }
}

/// The worker counts [`ShardedSim::parallel_bound_milli`] is tallied for.
pub const BOUND_WORKERS: [usize; 4] = [1, 2, 4, 8];

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
            let node = lp.node.id.0 as usize;
            let Some(head) = lp.events.next_at() else {
                assert_eq!(self.pos[node], HeadHeap::ABSENT, "entry for drained LP {node}");
                continue;
            };
            non_empty += 1;
            assert_ne!(self.pos[node], HeadHeap::ABSENT, "no entry for LP {node}");
            assert_eq!(self.heap[self.pos[node] as usize], lp.node.id.0, "misplaced entry of LP {node}");
            assert_eq!(self.head[node], head, "stale head for LP {node}");
            if earliest.is_none_or(|m| head < m) {
                earliest = Some(head);
            }
            if head < horizon {
                below.push(lp.node.id.0);
            }
        }
        below.sort_unstable();
        assert_eq!(self.heap.len(), non_empty, "one entry per non-empty LP");
        assert_eq!(self.min(), earliest, "horizon floor");
        assert_eq!(active, below, "active set");
    }
}

/// One epoch's worth of work handed to a worker and handed back: the
/// worker's LP group, an immutable network snapshot and the horizon.
/// Ownership-passing — nothing here is shared mutably across threads.
struct EpochTask {
    worker: usize,
    lps: Vec<Lp>,
    /// Slots (within `lps`) that actually have events this epoch; the
    /// worker touches only these, so a mostly-idle group costs O(active)
    /// rather than O(group).
    active_slots: Vec<usize>,
    net: Arc<NetworkModel>,
    pf: PacketFaults,
    horizon: SimTime,
}

/// An epoch's dispatch step: runs each active LP (ids ascending) of the
/// dealt groups up to the horizon, on the network snapshot.
type Dispatch<'a> = dyn FnMut(&mut [Vec<Lp>], &[u32], SimTime, &Arc<NetworkModel>, PacketFaults) + 'a;

/// Runs `f` with the epoch dispatch for `workers` groups: inline at one
/// worker, and otherwise through a pool of `workers` scoped threads —
/// worker `w` runs group `w` — that is joined before this returns.
#[expect(
    clippy::disallowed_methods,
    reason = "the shard executor is the one sanctioned thread pool in the simulated crates; \
              the epoch barrier keeps its result independent of scheduling (DESIGN.md §13)"
)]
fn with_pool(workers: usize, f: impl FnOnce(&mut Dispatch<'_>)) {
    if workers == 1 {
        f(&mut |groups, active, horizon, net, pf| {
            for &node in active {
                lp_of(groups, node).process_until(horizon, net, pf);
            }
        });
        return;
    }
    let (result_tx, results) = mpsc::channel::<EpochTask>();
    std::thread::scope(|scope| {
        let (tasks, handles): (Vec<mpsc::Sender<EpochTask>>, Vec<_>) = (0..workers)
            .map(|_| {
                let (task_tx, task_rx) = mpsc::channel::<EpochTask>();
                let result_tx = result_tx.clone();
                let handle = scope.spawn(move || {
                    while let Ok(mut task) = task_rx.recv() {
                        for &slot in &task.active_slots {
                            task.lps[slot].process_until(task.horizon, &task.net, task.pf);
                        }
                        if result_tx.send(task).is_err() {
                            break;
                        }
                    }
                });
                (task_tx, handle)
            })
            .unzip();
        // Each worker's active slots; a bucket travels with its task.
        let mut slots = vec![Vec::new(); workers];
        f(&mut |groups, active, horizon, net, pf| {
            for &node in active {
                slots[node as usize % workers].push(node as usize / workers);
            }
            let mut outstanding = 0usize;
            for (worker, (tx, slots)) in tasks.iter().zip(&mut slots).enumerate() {
                if slots.is_empty() {
                    continue;
                }
                let sent = tx.send(EpochTask {
                    worker,
                    lps: std::mem::take(&mut groups[worker]),
                    active_slots: std::mem::take(slots),
                    net: Arc::clone(net),
                    pf,
                    horizon,
                });
                assert!(sent.is_ok(), "workers outlive the epoch loop");
                outstanding += 1;
            }
            for _ in 0..outstanding {
                let mut task = results.recv().expect("worker returns its group");
                groups[task.worker] = task.lps;
                task.active_slots.clear();
                slots[task.worker] = task.active_slots;
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
/// management, faults, injection, `run_for`/`run_until`, actor access)
/// without the trace, plus [`ShardedSim::digest`],
/// [`ShardedSim::set_workers`] and [`ShardedSim::parallel_bound_milli`].
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

    /// Aggregated traffic counters, folded over LPs in node order.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::default();
        for lp in &self.lps {
            total.merge(&lp.link.stats);
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
        self.lookahead = None;
        let mut rng = StdRng::seed_from_u64(self.seed ^ id.0 as u64);
        let clock = self.clock_profile.sample(self.now, &mut rng);
        let sync_at = clock.sync_at;
        Arc::make_mut(&mut self.network).register_node(id, realm);
        let mut events = EventHeap::new();
        events.push(self.now, NodeEvent::Start { node: id });
        events.push(sync_at, NodeEvent::ClockSync { node: id });
        self.lps.push(Lp {
            node: Node::new(id, name, realm, clock, actor),
            link: Transport::for_node(rng, id),
            events,
            events_processed: 0,
            digest: FNV_OFFSET,
            now: self.now,
            outbox: Vec::new(),
            ops: Vec::new(),
        });
        id
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
    /// `now` between runs — and applies what it deferred right away:
    /// there is no epoch in flight to protect.
    fn at_coordinator_time(&mut self, node: NodeId, f: impl FnOnce(&mut NodeCtx<'_, LpSched<'_>>)) {
        let Some(lp) = self.lps.get_mut(node.0 as usize) else {
            return;
        };
        f(&mut lp.ctx(&self.network, self.packet_faults));
        for op in lp.take_deferred() {
            apply_deferred(&mut self.network, self.lps.iter_mut(), node, op);
        }
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
    /// time. Node-scoped faults land in the owning node's LP queue;
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
                if let Some(lp) = self.lps.get_mut(node.0 as usize) {
                    lp.events.push(at, NodeEvent::Fault { fault });
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
        let at = self.now + delay;
        if let Some(lp) = self.lps.get_mut(node.0 as usize) {
            lp.events.push(at, NodeEvent::Inject { node, incoming });
        }
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.now + d);
    }

    /// Deals the LPs out to the worker groups, round-robin: group `w` of
    /// `W` holds the ids ≡ w (mod W), ascending, so [`lp_of`] finds each
    /// LP. `W` is the worker count clamped to the LP count; one worker
    /// takes the whole vector, moving no LP, and sheds its growth slack
    /// (a no-op until nodes join again). Which group an LP runs in
    /// decides where it executes, never what it sees or sends:
    /// everything but a self-send goes through the outbox and the
    /// barrier whichever group holds the destination.
    fn deal(&mut self) -> Vec<Vec<Lp>> {
        let workers = self.workers.clamp(1, self.lps.len().max(1));
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
    /// epoch's per-LP event counts into the parallel bound.
    pub(crate) fn run_until(&mut self, deadline: SimTime) {
        let lookahead = *self.lookahead.get_or_insert_with(|| {
            self.network.min_cross_node_latency().max(Duration::from_nanos(1))
        });
        let mut heads = HeadHeap::new(self.lps.len());
        let mut groups = self.deal();
        for lp in groups.iter().flatten() {
            heads.set(lp.node.id.0, lp.events.next_at());
        }
        with_pool(groups.len(), |dispatch| {
            let (mut active, mut before) = (Vec::new(), Vec::new());
            while let Some(horizon) =
                self.next_active_epoch(&groups, &mut heads, deadline, lookahead, &mut active)
            {
                before.clear();
                before.extend(active.iter().map(|&node| lp_of(&mut groups, node).events_processed));
                dispatch(&mut groups, &active, horizon, &self.network, self.packet_faults);
                let mut per_worker = [[0u64; 8]; 4];
                for (&node, &start) in active.iter().zip(&before) {
                    let lp = lp_of(&mut groups, node);
                    heads.set(node, lp.events.next_at());
                    for (per, w) in per_worker.iter_mut().zip(BOUND_WORKERS) {
                        per[node as usize % w] += lp.events_processed - start;
                    }
                }
                for (busiest, per) in self.busiest.iter_mut().zip(per_worker) {
                    *busiest += per.into_iter().max().unwrap_or(0);
                }
                self.barrier(&mut groups, &active, &mut heads);
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
            heads.below(horizon, active);
            if cfg!(debug_assertions) {
                heads.assert_matches_scan(groups, horizon, active);
            }
            return Some(horizon);
        }
    }

    /// The epoch barrier: applies each LP's deferred network ops and
    /// merges its outbox into the destination queues (the two touch
    /// disjoint state), in ascending node order, so sequence assignment
    /// is a pure function of the event streams themselves. Only the
    /// epoch's active LPs are walked: an LP
    /// that processed nothing since the last barrier has an empty outbox
    /// and no deferred ops, and `active` is sorted, so the walk order is
    /// exactly the historical full 0..n ascending sweep minus its
    /// no-ops. A merged delivery that becomes its destination's head
    /// re-keys the scheduler entry; outboxes are drained in place, so an
    /// LP that sends every epoch allocates its buffer once.
    fn barrier(&mut self, groups: &mut [Vec<Lp>], active: &[u32], heads: &mut HeadHeap) {
        for &node in active {
            for op in lp_of(groups, node).take_deferred() {
                apply_deferred(&mut self.network, groups.iter_mut().flatten(), NodeId(node), op);
            }
            // Checked out so destinations can be borrowed while it
            // drains (a sender is never its own cross-LP destination).
            let mut outbox = std::mem::take(&mut lp_of(groups, node).outbox);
            for m in outbox.drain(..) {
                heads.lower(m.to.0, m.at);
                lp_of(groups, m.to.0).events.push(m.at, m.ev);
            }
            lp_of(groups, node).outbox = outbox;
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
    use nb_wire::Message;
    use rand::Rng;

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
    /// holds it at its length, on the one-group path and the dealt one.
    #[test]
    fn a_run_holds_the_lp_table_at_its_length() {
        for workers in [1, 3] {
            let mut sim = ShardedSim::with_clock_profile(0, ClockProfile::perfect());
            sim.set_workers(workers);
            for _ in 0..2_049 {
                sim.add_node("idle", RealmId(0), Box::new(crate::runtime::IdleActor));
            }
            assert!(sim.lps.capacity() > sim.lps.len(), "add_node grows by doubling");
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

    /// ROADMAP items 3 and 6 want these smaller, never larger, than
    /// they were: `Lp` is what `mem_bytes_per_entity` in
    /// BENCH_scale.json mostly counts (496 bytes until its transport
    /// held one connection table where it had three books); a heap
    /// entry was 72 bytes until a `WireMsg` stopped carrying its own
    /// v2 length.
    #[test]
    fn heap_entry_and_lp_are_no_larger_than_at_the_parent() {
        use std::mem::size_of;
        assert!(size_of::<crate::node::Queued<NodeEvent>>() <= 64);
        assert!(size_of::<OutMsg>() <= 64);
        assert!(size_of::<Lp>() <= 440);
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
