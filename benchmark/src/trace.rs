//! Wrapper tracing: where a rep's host time goes, by layer.
//!
//! The engines expose no timing hook, so the ledger is built from the
//! outside. A traced run hands the engine [`TracedActor`]s instead of
//! bare actors; each times its `on_start`/`on_incoming` and passes the
//! actor a [`TracedCtx`] that times the calls back into the engine
//! (`send_*`, `set_timer`). Around that, [`span`] records the coarse
//! run → rep → phase → engine-call tree. A span's self time is its
//! duration minus what its children cover, so the pieces sum to the
//! whole:
//!
//! ```text
//! measure phase = engine calls + harness spans + (unattributed)
//! engine call   = engine self + actor handlers
//! actor handler = handler self (by layer, by message kind) + ctx calls
//! ```
//!
//! Everything lives in a thread-local: the benchmark runs every engine
//! at one worker, which executes actors on the calling thread.
//! End-to-end metrics come from runs where none of this is installed.

use std::any::Any;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

use nb_net::{Actor, Context, Incoming, SimTime};
use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId, WireMsg};
use rand::RngCore;

use crate::clock::HostClock;
use crate::deploy::NullCtx;

/// Which crate's code an actor runs; the ledger's first key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `nb-broker` routing plus the responder/advertiser riding on it
    /// (`DiscoveryBrokerActor`).
    Broker,
    /// `nb-discovery`'s BDN.
    Bdn,
    /// `nb-discovery`'s `Entity`.
    Entity,
    /// `nb-discovery`'s bare `DiscoveryClient`.
    Client,
    /// The benchmark's own in-engine actors (traffic generators).
    Harness,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Broker => "broker",
            Layer::Bdn => "core.bdn",
            Layer::Entity => "core.entity",
            Layer::Client => "core.client",
            Layer::Harness => "bench.harness",
        }
    }
}

/// The engine entry points a [`TracedCtx`] times. The discriminant
/// indexes [`Ledger::calls`]; [`CALLS`] lists them in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    SendUdp,
    SendStream,
    SendStreamV2,
    Multicast,
    SetTimer,
}

pub const CALLS: [Call; 5] = [
    Call::SendUdp,
    Call::SendStream,
    Call::SendStreamV2,
    Call::Multicast,
    Call::SetTimer,
];

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::SendUdp => "send_udp",
            Call::SendStream => "send_stream",
            Call::SendStreamV2 => "send_stream_v2",
            Call::Multicast => "send_multicast",
            Call::SetTimer => "set_timer",
        }
    }
}

/// Span names the harness uses; the report keys on them.
pub const RUN: &str = "run";
pub const REP: &str = "rep";
pub const SETUP: &str = "setup";
pub const MEASURE: &str = "measure";
/// One call into the engine (`run_for`, or `run_discovery_once`, which
/// is a loop of them).
pub const ENGINE: &str = "engine";
/// Harness work inside a phase that is not the engine: injecting
/// traffic, harvesting outcomes.
pub const HARNESS: &str = "harness";

const HIST_BUCKETS: usize = 40;

/// Count, time and a log2 histogram of one kind of timed thing.
#[derive(Debug, Clone)]
pub struct Stat {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// The part of `total_ns` spent in timed child calls, and how many
    /// of those there were.
    pub child_ns: u64,
    pub child_calls: u64,
    /// `hist[b]` counts durations with `floor(log2(ns)) == b`.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for Stat {
    fn default() -> Self {
        Stat {
            count: 0,
            total_ns: 0,
            child_ns: 0,
            child_calls: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl Stat {
    fn record(&mut self, ns: u64, child_ns: u64, child_calls: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.child_ns += child_ns;
        self.child_calls += child_calls;
        let bucket = (63 - (ns | 1).leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Time not covered by timed children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Per-(layer, message kind) handler stats and per-call stats for one
/// phase.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// `(layer, kind)` of each handler row, first seen first, and apart
    /// from the rows' stats: every traced event looks its row up, and a
    /// dozen-odd keys packed like this share a few cache lines where the
    /// rows themselves span dozens.
    keys: Vec<(Layer, &'static str)>,
    stats: Vec<Stat>,
    pub calls: [Stat; CALLS.len()],
}

impl Ledger {
    fn handler(&mut self, layer: Layer, kind: &'static str) -> &mut Stat {
        // Kinds are string literals, so the same kind is nearly always
        // the same address: compare that, and read the text only for a
        // kind not seen at this address before.
        let same = |k: &str| std::ptr::eq(k.as_ptr(), kind.as_ptr()) && k.len() == kind.len();
        let seen = self.keys.iter().position(|(l, k)| *l == layer && same(k));
        let at = seen
            .or_else(|| self.keys.iter().position(|key| *key == (layer, kind)))
            .unwrap_or_else(|| {
                self.keys.push((layer, kind));
                self.stats.push(Stat::default());
                self.keys.len() - 1
            });
        &mut self.stats[at]
    }

    /// The handler rows, first seen first.
    pub fn handlers(&self) -> impl Iterator<Item = (Layer, &'static str, &Stat)> {
        self.keys
            .iter()
            .zip(&self.stats)
            .map(|(&(layer, kind), stat)| (layer, kind, stat))
    }

    /// Sum over the handlers `pick(layer, kind)` selects.
    pub fn sum(&self, pick: impl Fn(Layer, &str) -> bool) -> Stat {
        let mut out = Stat::default();
        for (l, k, s) in self.handlers() {
            if pick(l, k) {
                out.count += s.count;
                out.total_ns += s.total_ns;
                out.child_ns += s.child_ns;
                out.child_calls += s.child_calls;
            }
        }
        out
    }

    /// Sum over every handler.
    pub fn all_handlers(&self) -> Stat {
        self.sum(|_, _| true)
    }

    pub fn call(&self, call: Call) -> &Stat {
        &self.calls[call as usize]
    }

    pub fn all_calls(&self) -> Stat {
        let mut out = Stat::default();
        for s in &self.calls {
            out.count += s.count;
            out.total_ns += s.total_ns;
        }
        out
    }
}

/// One recorded coarse span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals for one span name, split by whether it ran inside a measure
/// phase.
#[derive(Debug, Clone, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Full span records kept per run; totals are always complete.
const MAX_SPANS: usize = 20_000;

struct Open {
    id: u32,
    name: &'static str,
    start: HostClock,
    child_ns: u64,
}

/// What one traced run collected.
#[derive(Default)]
pub struct Collected {
    /// Handler/call stats while a set-up phase was open.
    pub setup: Ledger,
    /// Handler/call stats while a measure phase was open.
    pub measure: Ledger,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
    /// `(name, inside measure?, totals)`.
    pub totals: Vec<(&'static str, bool, SpanTotal)>,
    /// Publish frames seen on the stream send path, in send order.
    pub captured: Vec<WireMsg>,
}

impl Collected {
    pub fn total(&self, name: &str, in_measure: bool) -> SpanTotal {
        self.totals
            .iter()
            .find(|(n, m, _)| *n == name && *m == in_measure)
            .map(|(_, _, t)| t.clone())
            .unwrap_or_default()
    }
}

struct Tracer {
    origin: HostClock,
    open: Vec<Open>,
    next_id: u32,
    rep: u32,
    in_measure: bool,
    /// Timed ctx calls inside the handler now running: their time and
    /// their number.
    handler_child_ns: u64,
    handler_child_calls: u64,
    capture_limit: usize,
    out: Collected,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts collecting on this thread. `capture_limit` is how many
/// publish frames to keep from the stream send path (0 = none).
pub fn install(capture_limit: usize) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: HostClock::now(),
            open: Vec::new(),
            next_id: 0,
            rep: 0,
            in_measure: false,
            handler_child_ns: 0,
            handler_child_calls: 0,
            capture_limit,
            out: Collected::default(),
        })
    });
}

/// Stops collecting and returns what was gathered.
pub fn uninstall() -> Collected {
    TRACER
        .with(|t| t.borrow_mut().take())
        .map(|t| t.out)
        .unwrap_or_default()
}

/// Runs `f` with the tracer set aside, as if none were installed.
pub fn paused<R>(f: impl FnOnce() -> R) -> R {
    let held = TRACER.with(|t| t.borrow_mut().take());
    let r = f();
    TRACER.with(|t| *t.borrow_mut() = held);
    r
}

/// Tags subsequently opened spans with `rep`.
pub fn set_rep(rep: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.rep = rep;
        }
    });
}

/// Runs `f` inside a span named `name`. Without an installed tracer it
/// just runs `f`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return false;
        };
        let id = t.next_id;
        t.next_id += 1;
        if name == MEASURE {
            t.in_measure = true;
        }
        t.open.push(Open {
            id,
            name,
            start: HostClock::now(),
            child_ns: 0,
        });
        true
    });
    let r = f();
    if opened {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let t = t.as_mut().expect("tracer outlives its open spans");
            let end = HostClock::now();
            let o = t.open.pop().expect("span stack balanced");
            debug_assert_eq!(o.name, name);
            let ns = (end - o.start).as_nanos() as u64;
            let in_measure = t.in_measure;
            if name == MEASURE {
                t.in_measure = false;
            }
            let parent = t.open.last_mut().map(|p| {
                p.child_ns += ns;
                p.id
            });
            let at = match t
                .out
                .totals
                .iter()
                .position(|(n, m, _)| *n == name && *m == in_measure)
            {
                Some(at) => at,
                None => {
                    t.out.totals.push((name, in_measure, SpanTotal::default()));
                    t.out.totals.len() - 1
                }
            };
            let total = &mut t.out.totals[at].2;
            total.count += 1;
            total.total_ns += ns;
            total.self_ns += ns.saturating_sub(o.child_ns);
            if t.out.spans.len() < MAX_SPANS {
                t.out.spans.push(Span {
                    id: o.id,
                    parent,
                    name,
                    rep: t.rep,
                    start_ns: (o.start - t.origin).as_nanos() as u64,
                    end_ns: (end - t.origin).as_nanos() as u64,
                });
            } else {
                t.out.spans_dropped += 1;
            }
        });
    }
    r
}

fn record_handler(layer: Layer, kind: &'static str, started: HostClock) {
    let ns = started.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let child = std::mem::take(&mut t.handler_child_ns);
            let calls = std::mem::take(&mut t.handler_child_calls);
            let ledger = if t.in_measure {
                &mut t.out.measure
            } else {
                &mut t.out.setup
            };
            ledger.handler(layer, kind).record(ns, child, calls);
        }
    });
}

fn record_call(call: Call, started: HostClock) {
    let ns = started.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.handler_child_ns += ns;
            t.handler_child_calls += 1;
            let ledger = if t.in_measure {
                &mut t.out.measure
            } else {
                &mut t.out.setup
            };
            ledger.calls[call as usize].record(ns, 0, 0);
        }
    });
}

fn capture(msg: &WireMsg) {
    if !matches!(msg.message(), Message::Publish(_)) {
        return;
    }
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            if t.out.captured.len() < t.capture_limit {
                t.out.captured.push(msg.clone());
            }
        }
    });
}

/// The ledger's second key for an incoming event. Publishes on the
/// discovery plane's system topics are split from data publishes: to a
/// broker they are the flooded discovery request, a different path.
fn kind_of(event: &Incoming) -> &'static str {
    match event {
        Incoming::Datagram { msg, .. } | Incoming::Stream { msg, .. } => match msg.message() {
            Message::Publish(ev) if ev.topic.as_str().starts_with("Services/") => "publish-system",
            m => m.kind(),
        },
        Incoming::Timer { .. } => "timer",
        Incoming::ClockSynced => "clock-synced",
    }
}

/// An actor whose handlers are timed into the ledger under `layer`.
/// Downcasts see the inner actor, so harness code that reads actor
/// state (`sim.actor::<Entity>(..)`) works unchanged on a traced run.
pub struct TracedActor<A: Actor> {
    layer: Layer,
    inner: A,
}

/// Boxes `actor` for `add_node`: bare when `traced` is false, wrapped
/// when true.
pub fn boxed<A: Actor>(traced: bool, layer: Layer, actor: A) -> Box<dyn Actor> {
    if traced {
        Box::new(TracedActor {
            layer,
            inner: actor,
        })
    } else {
        Box::new(actor)
    }
}

impl<A: Actor> Actor for TracedActor<A> {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let started = HostClock::now();
        self.inner.on_start(&mut TracedCtx { inner: ctx });
        record_handler(self.layer, "start", started);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let kind = kind_of(&event);
        let started = HostClock::now();
        self.inner.on_incoming(event, &mut TracedCtx { inner: ctx });
        record_handler(self.layer, kind, started);
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// Forwards every [`Context`] method to the engine's context, timing
/// the ones that do engine work.
struct TracedCtx<'a> {
    inner: &'a mut dyn Context,
}

impl Context for TracedCtx<'_> {
    fn me(&self) -> NodeId {
        self.inner.me()
    }
    fn realm(&self) -> RealmId {
        self.inner.realm()
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn utc_micros(&self) -> u64 {
        self.inner.utc_micros()
    }
    fn clock_synced(&self) -> bool {
        self.inner.clock_synced()
    }
    fn raw_local_micros(&self) -> u64 {
        self.inner.raw_local_micros()
    }
    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        self.inner.set_clock_estimate_ns(est_offset_ns);
    }
    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let started = HostClock::now();
        self.inner.send_udp(from_port, to, msg);
        record_call(Call::SendUdp, started);
    }
    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        let started = HostClock::now();
        self.inner.send_stream(from_port, to, msg);
        record_call(Call::SendStream, started);
    }
    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let started = HostClock::now();
        self.inner.send_udp_wire(from_port, to, msg);
        record_call(Call::SendUdp, started);
    }
    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let started = HostClock::now();
        self.inner.send_stream_wire(from_port, to, msg);
        record_call(Call::SendStream, started);
        capture(msg);
    }
    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        let started = HostClock::now();
        self.inner.send_stream_v2(from_port, to, msg);
        record_call(Call::SendStreamV2, started);
        capture(msg);
    }
    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        let started = HostClock::now();
        self.inner.send_multicast(from_port, group, to_port, msg);
        record_call(Call::Multicast, started);
    }
    fn join_group(&mut self, group: GroupId) {
        self.inner.join_group(group);
    }
    fn leave_group(&mut self, group: GroupId) {
        self.inner.leave_group(group);
    }
    fn set_timer(&mut self, delay: Duration, token: u64) {
        let started = HostClock::now();
        self.inner.set_timer(delay, token);
        record_call(Call::SetTimer, started);
    }
    fn cancel_timer(&mut self, token: u64) {
        self.inner.cancel_timer(token);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.inner.rng()
    }
}

/// What the wrappers themselves cost, measured on no-op work: the
/// host time one traced handler dispatch, and one traced `Context`
/// call, take beyond the bare ones, and the part of each that falls
/// *inside* the interval the wrapper times (what a no-op reads as in
/// the ledger). The rest of a call's cost lands in the handler that
/// made it; the rest of a handler's, in the engine around it.
/// [`crate::metrics::in_situ`] takes all four back out.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub handler_ns: f64,
    pub handler_inside_ns: f64,
    pub call_ns: f64,
    pub call_inside_ns: f64,
}

struct Noop;

impl Actor for Noop {
    fn on_start(&mut self, _ctx: &mut dyn Context) {}
    fn on_incoming(&mut self, _event: Incoming, _ctx: &mut dyn Context) {}
    nb_net::impl_actor_any!();
}

/// No-op dispatches, and no-op calls, per calibration pass.
const CALIBRATION_ITEMS: usize = 20_000;
/// Passes per calibrated quantity; the fastest is kept.
const CALIBRATION_SAMPLES: usize = 16;

/// The fastest of [`CALIBRATION_SAMPLES`] passes of `one`, in ns per
/// run, each under a fresh tracer; `after` runs after each pass, untimed,
/// and its smallest value comes back too.
fn fastest_ns(mut one: impl FnMut(), mut after: impl FnMut() -> f64) -> (f64, f64) {
    let (mut best, mut best_after) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..CALIBRATION_SAMPLES {
        install(0);
        let t = HostClock::now();
        for _ in 0..CALIBRATION_ITEMS {
            one();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / CALIBRATION_ITEMS as f64);
        best_after = best_after.min(after());
    }
    (best, best_after)
}

/// Measures [`Calibration`] on no-op dispatches and no-op calls,
/// wrapped and bare, against a context that does nothing. A tight loop
/// keeps the tracer's few cache lines hot, so this is a floor on what
/// the wrappers cost among a workload's own memory traffic.
pub fn calibrate() -> Calibration {
    let tick = || Incoming::Timer { token: 0 };
    // What the ledger recorded per item in the pass just run.
    let recorded = |pick: fn(&Ledger) -> Stat| {
        move || {
            let seen = pick(&uninstall().setup);
            seen.total_ns as f64 / seen.count.max(1) as f64
        }
    };
    let mut null = NullCtx::new(0);
    let mut bare = black_box(boxed(false, Layer::Harness, Noop));
    let mut wrapped = black_box(boxed(true, Layer::Harness, Noop));
    let (bare_handler, _) = fastest_ns(
        || bare.on_incoming(tick(), &mut null),
        recorded(Ledger::all_handlers),
    );
    let (handler, handler_inside_ns) = fastest_ns(
        || wrapped.on_incoming(tick(), &mut null),
        recorded(Ledger::all_handlers),
    );
    let (bare_call, _) = fastest_ns(
        || {
            let ctx: &mut dyn Context = black_box(&mut null);
            ctx.set_timer(Duration::ZERO, 0);
            null.armed.clear();
        },
        recorded(Ledger::all_calls),
    );
    let (call, call_inside_ns) = fastest_ns(
        || {
            let mut ctx = TracedCtx { inner: &mut null };
            let ctx: &mut dyn Context = black_box(&mut ctx);
            ctx.set_timer(Duration::ZERO, 0);
            null.armed.clear();
        },
        recorded(Ledger::all_calls),
    );
    Calibration {
        handler_ns: handler - bare_handler,
        handler_inside_ns,
        call_ns: call - bare_call,
        call_inside_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = HostClock::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn span_self_times_sum_to_the_root() {
        install(0);
        span(RUN, || {
            spin(Duration::from_millis(2));
            span(REP, || {
                span(SETUP, || spin(Duration::from_millis(1)));
                span(MEASURE, || {
                    span(ENGINE, || spin(Duration::from_millis(3)));
                    span(HARNESS, || spin(Duration::from_millis(1)));
                });
            });
        });
        let c = uninstall();
        let root = c.total(RUN, false);
        let self_sum: u64 = c.totals.iter().map(|(_, _, t)| t.self_ns).sum();
        assert_eq!(
            self_sum, root.total_ns,
            "self times partition the root span"
        );
        // Children never exceed their parent.
        for s in &c.spans {
            let kids: u64 = c
                .spans
                .iter()
                .filter(|k| k.parent == Some(s.id))
                .map(|k| k.end_ns - k.start_ns)
                .sum();
            assert!(kids <= s.end_ns - s.start_ns, "{} children overrun", s.name);
        }
        // Spans opened under `measure` are keyed as inside it.
        assert_eq!(c.total(ENGINE, true).count, 1);
        assert_eq!(c.total(ENGINE, false).count, 0);
        assert!(c.total(MEASURE, true).self_ns < Duration::from_millis(1).as_nanos() as u64);
    }

    #[test]
    fn paused_work_leaves_no_trace() {
        install(0);
        span(RUN, || {
            paused(|| span(ENGINE, || ()));
            span(HARNESS, || ());
        });
        let c = uninstall();
        assert_eq!(c.total(ENGINE, false).count, 0);
        assert_eq!(c.total(HARNESS, false).count, 1);
        assert_eq!(c.total(RUN, false).count, 1);
    }

    /// The wrappers cost something, part of it inside the interval they
    /// time; a calibration pass leaves no tracer installed behind it.
    #[test]
    fn calibration_measures_a_positive_cost() {
        let c = calibrate();
        for ns in [
            c.handler_ns,
            c.handler_inside_ns,
            c.call_ns,
            c.call_inside_ns,
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{c:?}");
        }
        assert!(uninstall().totals.is_empty());
    }

    #[test]
    fn span_without_tracer_just_runs() {
        assert_eq!(span(ENGINE, || 7), 7);
        assert!(uninstall().totals.is_empty());
    }

    #[test]
    fn stat_histogram_buckets_by_log2() {
        let mut s = Stat::default();
        s.record(0, 0, 0);
        s.record(1, 0, 0);
        s.record(1023, 100, 2);
        s.record(1024, 0, 0);
        assert_eq!(s.hist[0], 2);
        assert_eq!(s.hist[9], 1);
        assert_eq!(s.hist[10], 1);
        assert_eq!(s.self_ns(), 2048 - 100);
        assert_eq!(s.child_calls, 2);
    }
}
