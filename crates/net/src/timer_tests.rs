//! Scenarios both engines are held to, each run on `Sim` and on
//! `ShardedSim` (2 workers) through [`DiscoveryEngine`] by
//! [`on_both_engines!`], so the engines cannot drift apart on them.
//!
//! Timer slots: [`crate::node::TimerSlots`] keeps a slot only while its
//! token is armed and stamps generations from a per-node counter that
//! never restarts — a slot count bounded by the timers in flight, no
//! firing resurrected by re-arming or by a crash, cancel of nothing a
//! no-op. Node faults and time: a ping's RTT is the link's, a crash
//! drops traffic and a revive restores it, a stall defers delivery, a
//! lossy restart rebuilds the actor, `run_until` advances an idle clock.
//! And [`ScriptCtx`], the actor unit tests' context, is held to the
//! engines' timer semantics.
//! [`Echo`], [`Pinger`] and [`lossless`] serve `sim.rs`'s and
//! `shard.rs`'s own tests too.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Message, NodeId, RealmId};

use crate::chaos::{Fault, FaultPlan};
use crate::clock::ClockProfile;
use crate::impl_actor_any;
use crate::link::LinkSpec;
use crate::runtime::{Actor, Context, IdleActor, Incoming, ScriptCtx};
use crate::shard::{DiscoveryEngine, ShardedSim};
use crate::sim::Sim;
use crate::time::SimTime;

/// `node`'s armed timer slots on `engine`, a `Sim` or a `ShardedSim`.
fn armed_slots(engine: &dyn Any, node: NodeId) -> usize {
    match engine.downcast_ref::<Sim>() {
        Some(sim) => sim.armed_timer_slots(node),
        None => engine.downcast_ref::<ShardedSim>().expect("an engine").armed_timer_slots(node),
    }
}

/// Runs `engine`, a `Sim` or a `ShardedSim`, until `deadline`.
fn run_until(engine: &mut dyn Any, deadline: SimTime) {
    match engine.downcast_mut::<Sim>() {
        Some(sim) => sim.run_until(deadline),
        None => engine.downcast_mut::<ShardedSim>().expect("an engine").run_until(deadline),
    }
}

/// Adds a node running `actor`.
fn add(engine: &mut dyn DiscoveryEngine, actor: Box<dyn Actor>) -> NodeId {
    engine.add_node("n", RealmId(0), actor)
}

fn sim(seed: u64) -> Sim {
    Sim::with_clock_profile(seed, ClockProfile::perfect())
}

fn sharded(seed: u64) -> ShardedSim {
    let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
    sim.set_workers(2);
    sim
}

const MS: Duration = Duration::from_millis(1);

/// Echoes every ping as a pong from the same port.
#[derive(Default)]
pub(crate) struct Echo {
    pub(crate) pings_seen: u32,
}

impl Actor for Echo {
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Datagram { to_port, msg, .. } = event {
            if let Message::Ping { nonce, sent_at, reply_to } = *msg.message() {
                self.pings_seen += 1;
                let pong = Message::Pong { nonce, echoed_sent_at: sent_at, responder: ctx.me() };
                ctx.send_udp(to_port, reply_to, &pong);
            }
        }
    }
    impl_actor_any!();
}

/// Sends pings on start, records the pong RTTs by its local clock.
pub(crate) struct Pinger {
    target: NodeId,
    pub(crate) rtts: Vec<Duration>,
    sent: HashMap<u64, SimTime>,
    timer_fired: u32,
}

impl Pinger {
    pub(crate) fn new(target: NodeId) -> Pinger {
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

/// Takes the loss out of every link class of `engine`'s network.
pub(crate) fn lossless(engine: &mut dyn DiscoveryEngine) {
    let net = engine.network_mut();
    net.local_spec = LinkSpec::local().with_loss(0.0);
    net.intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    net.inter_realm_spec = LinkSpec::wan(Duration::from_millis(40)).with_loss(0.0);
}

fn ping_pong_rtt_matches_link_latency(mut engine: impl DiscoveryEngine + 'static) {
    let sim: &mut dyn DiscoveryEngine = &mut engine;
    lossless(sim);
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

fn crash_drops_traffic_and_revive_restores(mut engine: impl DiscoveryEngine + 'static) {
    let sim: &mut dyn DiscoveryEngine = &mut engine;
    lossless(sim);
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
    // A fresh pinger run against the revived echo succeeds.
    let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
    sim.run_for(Duration::from_secs(2));
    let p2: &Pinger = sim.actor(pinger2).unwrap();
    assert_eq!(p2.rtts.len(), 5);
}

fn stall_defers_delivery_until_it_ends(mut engine: impl DiscoveryEngine + 'static) {
    let sim: &mut dyn DiscoveryEngine = &mut engine;
    lossless(sim);
    let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
    let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
    // Freeze the echo node for 3 s starting just before the pings land.
    let stall = Fault::Stall { node: echo, dur: Duration::from_secs(3) };
    sim.apply_fault_plan(&FaultPlan::new().fault_at(Duration::ZERO, stall));
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

fn lossy_restart_rebuilds_actor_from_respawn_factory(mut engine: impl DiscoveryEngine + 'static) {
    let sim: &mut dyn DiscoveryEngine = &mut engine;
    lossless(sim);
    let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
    sim.set_respawn(echo, Box::new(|| Box::new(Echo::default())));
    sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
    // State-preserving restart keeps the counter...
    sim.restart(echo, false);
    assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
    // ...a lossy restart wipes it.
    sim.restart(echo, true);
    assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0);
    // And the rebuilt actor still serves traffic.
    sim.run_for(Duration::from_secs(1));
    let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.actor::<Pinger>(pinger2).unwrap().rtts.len(), 5);
}

fn run_until_advances_time_even_when_idle(mut sim: impl DiscoveryEngine + 'static) {
    sim.add_node("idle", RealmId(0), Box::new(IdleActor));
    run_until(&mut sim, SimTime::from_secs(30));
    assert_eq!(sim.now(), SimTime::from_secs(30));
}

/// Keeps [`Churn::WINDOW`] one-shot timers in flight, each firing
/// arming one never-used token, until [`Churn::TOKENS`] have fired —
/// the responder's pattern (a fresh token per response).
#[derive(Default)]
struct Churn {
    next_token: u64,
    fired: BTreeSet<u64>,
}

impl Churn {
    const WINDOW: u64 = 16;
    const TOKENS: u64 = 10_000;

    fn arm_next(&mut self, ctx: &mut dyn Context) {
        if self.next_token < Churn::TOKENS {
            ctx.set_timer(MS * (1 + (self.next_token % 5) as u32), self.next_token);
            self.next_token += 1;
        }
    }
}

impl Actor for Churn {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        for _ in 0..Churn::WINDOW {
            self.arm_next(ctx);
        }
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Timer { token } = event {
            assert!(self.fired.insert(token), "token {token} fired twice");
            self.arm_next(ctx);
        }
    }
    impl_actor_any!();
}

fn slots_never_outgrow_the_timers_in_flight(mut engine: impl DiscoveryEngine + 'static) {
    let node = add(&mut engine, Box::new(Churn::default()));
    let churn = |e: &dyn DiscoveryEngine| e.actor::<Churn>(node).map(|c| (c.next_token, c.fired.len()));
    let mut steps = 0;
    while churn(&engine).expect("a churn").1 < Churn::TOKENS as usize {
        engine.run_for(MS);
        steps += 1;
        assert!(steps < 10_000, "churn stalled");
        let (armed, fired) = churn(&engine).expect("a churn");
        let in_flight = armed as usize - fired;
        assert!(in_flight <= Churn::WINDOW as usize);
        assert_eq!(armed_slots(&engine, node), in_flight, "after {steps} ms");
    }
    assert_eq!(armed_slots(&engine, node), 0, "every slot released");
}

/// Arms token 1 to a script and records when each firing of it was
/// dispatched.
struct Recorder {
    /// `on_start` arms with each of these delays in turn, every one
    /// replacing the last.
    arm_on_start: Vec<Duration>,
    /// The n-th firing re-arms with the n-th delay, while there is one.
    rearm_on_firing: Vec<Duration>,
    fired_at: Vec<SimTime>,
}

/// When the [`Recorder`] at `node` saw each firing, in ms.
fn fired_at_ms(engine: &dyn DiscoveryEngine, node: NodeId) -> Vec<u64> {
    let recorder = engine.actor::<Recorder>(node).expect("a recorder");
    recorder.fired_at.iter().map(|t| t.as_millis()).collect()
}

impl Actor for Recorder {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        for &delay in &self.arm_on_start {
            ctx.set_timer(delay, 1);
        }
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Timer { token: 1 } = event {
            if let Some(&delay) = self.rearm_on_firing.get(self.fired_at.len()) {
                ctx.set_timer(delay, 1);
            }
            self.fired_at.push(ctx.now());
        }
    }
    impl_actor_any!();
}

/// The collision a "drop the slot on fire, count generations per token
/// from 1 again" scheme would cause: T armed far out (its firing stays
/// queued), re-armed near, the near firing releases the slot, T armed
/// again past the first deadline. The stale far firing must not pass
/// for the new arming.
fn rearming_after_a_firing_never_resurrects_a_replaced_one(mut e: impl DiscoveryEngine + 'static) {
    let node = add(&mut e, Box::new(Recorder {
        arm_on_start: vec![MS * 100, MS * 10],
        rearm_on_firing: vec![MS * 200],
        fired_at: Vec::new(),
    }));
    e.run_for(Duration::from_secs(1));
    assert_eq!(fired_at_ms(&e, node), [10, 210], "the replaced 100 ms firing stays dead");
    assert_eq!(armed_slots(&e, node), 0);
}

/// A crash drops the slots; the restarted node arms the same token
/// while the pre-crash firing is still queued.
fn crash_then_revive_never_delivers_a_pre_crash_firing(mut e: impl DiscoveryEngine + 'static) {
    let node = add(&mut e, Box::new(Recorder {
        arm_on_start: vec![MS * 100],
        rearm_on_firing: Vec::new(),
        fired_at: Vec::new(),
    }));
    e.run_for(MS * 50);
    e.crash(node);
    assert_eq!(armed_slots(&e, node), 0, "a crash releases every slot");
    e.run_for(MS * 10);
    e.revive(node); // `on_start` again: armed for 160 ms
    e.run_for(Duration::from_secs(1));
    assert_eq!(fired_at_ms(&e, node), [160], "only the post-revive arming fires");
}

/// Cancels tokens that are not armed, around one that is.
struct CancelsNothing {
    fired: u32,
}

impl Actor for CancelsNothing {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.cancel_timer(99);
        ctx.set_timer(MS * 10, 1);
        ctx.cancel_timer(99);
        ctx.set_timer(MS * 10, 2);
        ctx.cancel_timer(2);
        ctx.cancel_timer(2);
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Timer { token } = event {
            assert_eq!(token, 1, "token 2 was cancelled");
            self.fired += 1;
            ctx.cancel_timer(1); // already released by this firing
        }
    }
    impl_actor_any!();
}

fn cancelling_an_unarmed_token_is_a_no_op(mut e: impl DiscoveryEngine + 'static) {
    let node = add(&mut e, Box::new(CancelsNothing { fired: 0 }));
    e.run_for(MS);
    assert_eq!(armed_slots(&e, node), 1, "only token 1 is armed");
    e.run_for(Duration::from_secs(1));
    let view: &dyn DiscoveryEngine = &e;
    assert_eq!(view.actor::<CancelsNothing>(node).expect("the node").fired, 1);
    assert_eq!(armed_slots(&e, node), 0);
}

/// Arms, re-arms, cancels and re-arms after a cancel, on `ctx`.
fn timer_script(ctx: &mut dyn Context) {
    ctx.set_timer(MS * 30, 1);
    ctx.set_timer(MS * 10, 2);
    ctx.set_timer(MS * 20, 3);
    ctx.set_timer(MS * 5, 1); // supersedes the 30 ms arming
    ctx.cancel_timer(2);
    ctx.cancel_timer(3);
    ctx.set_timer(MS * 40, 3); // armed again after its cancel
    ctx.set_timer(MS * 15, 4);
    ctx.cancel_timer(4);
}

/// Runs [`timer_script`] on start and records each firing; on the
/// first, arms the cancelled token 2 again and cancels it again.
#[derive(Default)]
struct Scripted {
    fired: Vec<(u64, SimTime)>,
}

impl Actor for Scripted {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        timer_script(ctx);
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Timer { token } = event {
            if self.fired.is_empty() {
                ctx.set_timer(MS, 2);
                ctx.cancel_timer(2);
            }
            self.fired.push((token, ctx.now()));
        }
    }
    impl_actor_any!();
}

/// [`ScriptCtx`] holds the engines' timer semantics: the tokens a node
/// running [`timer_script`] sees fire are the ones the script leaves in
/// a `ScriptCtx`'s armed set, each once, at the delay of its last arming.
fn a_script_fires_what_a_script_ctx_leaves_armed(mut e: impl DiscoveryEngine + 'static) {
    let mut script = ScriptCtx::default();
    timer_script(&mut script);
    assert_eq!(script.armed, [1, 3].into());
    let last_arming = |token| script.timers.iter().rev().find(|&&(_, t)| t == token).map(|&(delay, _)| delay);
    let expected: Vec<_> = script.armed.iter().map(|&t| (t, SimTime::ZERO + last_arming(t).expect("armed"))).collect();
    let node = add(&mut e, Box::new(Scripted::default()));
    e.run_for(Duration::from_secs(1));
    let view: &dyn DiscoveryEngine = &e;
    let fired = &view.actor::<Scripted>(node).expect("the node").fired;
    assert_eq!(fired, &expected, "each armed token fires once, at its last arming, and no other");
    assert_eq!(armed_slots(&e, node), 0);
}

/// A `#[test]` a scenario an engine: each scenario runs on a `Sim` and
/// on a 2-worker `ShardedSim` built from the seed it names.
macro_rules! on_both_engines {
    ($($scenario:ident($seed:expr) => $on_sim:ident, $on_sharded:ident;)*) => {$(
        #[test]
        fn $on_sim() {
            $scenario(sim($seed));
        }
        #[test]
        fn $on_sharded() {
            $scenario(sharded($seed));
        }
    )*};
}

on_both_engines! {
    slots_never_outgrow_the_timers_in_flight(7) =>
        sim_slots_never_outgrow_the_timers_in_flight,
        sharded_slots_never_outgrow_the_timers_in_flight;
    rearming_after_a_firing_never_resurrects_a_replaced_one(7) =>
        sim_rearming_after_a_firing_never_resurrects_a_replaced_one,
        sharded_rearming_after_a_firing_never_resurrects_a_replaced_one;
    crash_then_revive_never_delivers_a_pre_crash_firing(7) =>
        sim_crash_then_revive_never_delivers_a_pre_crash_firing,
        sharded_crash_then_revive_never_delivers_a_pre_crash_firing;
    cancelling_an_unarmed_token_is_a_no_op(7) =>
        sim_cancelling_an_unarmed_token_is_a_no_op,
        sharded_cancelling_an_unarmed_token_is_a_no_op;
    a_script_fires_what_a_script_ctx_leaves_armed(7) =>
        sim_a_script_fires_what_a_script_ctx_leaves_armed,
        sharded_a_script_fires_what_a_script_ctx_leaves_armed;
    ping_pong_rtt_matches_link_latency(1) =>
        sim_ping_pong_rtt_matches_link_latency,
        sharded_ping_pong_rtt_matches_link_latency;
    crash_drops_traffic_and_revive_restores(3) =>
        sim_crash_drops_traffic_and_revive_restores,
        sharded_crash_drops_traffic_and_revive_restores;
    stall_defers_delivery_until_it_ends(4) =>
        sim_stall_defers_delivery_until_it_ends,
        sharded_stall_defers_delivery_until_it_ends;
    lossy_restart_rebuilds_actor_from_respawn_factory(9) =>
        sim_lossy_restart_rebuilds_actor_from_respawn_factory,
        sharded_lossy_restart_rebuilds_actor_from_respawn_factory;
    run_until_advances_time_even_when_idle(0) =>
        sim_run_until_advances_time_even_when_idle,
        sharded_run_until_advances_time_even_when_idle;
}
