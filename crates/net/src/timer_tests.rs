//! Timer-slot scenarios both engines are held to.
//!
//! [`crate::node::TimerSlots`] keeps a slot only while its token is
//! armed and stamps generations from a per-node counter that never
//! restarts. Each scenario below runs on `Sim` and on `ShardedSim`
//! through [`Engine`], so the engines cannot drift apart on timer
//! semantics: a slot count bounded by the timers in flight, no firing
//! resurrected by re-arming or by a crash, cancel of nothing a no-op.

use std::collections::BTreeSet;
use std::time::Duration;

use nb_wire::{NodeId, RealmId};

use crate::clock::ClockProfile;
use crate::impl_actor_any;
use crate::runtime::{Actor, Context, Incoming};
use crate::shard::{DiscoveryEngine, ShardedSim};
use crate::sim::Sim;
use crate::time::SimTime;

/// What the scenarios need from an engine beyond [`DiscoveryEngine`].
trait Engine: DiscoveryEngine {
    fn crash(&mut self, node: NodeId);
    fn revive(&mut self, node: NodeId);
    fn armed_slots(&self, node: NodeId) -> usize;

    fn add(&mut self, actor: Box<dyn Actor>) -> NodeId {
        self.add_node("n", RealmId(0), actor)
    }

    fn actor<T: 'static>(&self, node: NodeId) -> &T {
        let actor = self.actor_dyn(node).expect("node exists");
        actor.as_any().downcast_ref().expect("actor type")
    }
}

impl Engine for Sim {
    fn crash(&mut self, node: NodeId) {
        Sim::crash(self, node);
    }
    fn revive(&mut self, node: NodeId) {
        Sim::revive(self, node);
    }
    fn armed_slots(&self, node: NodeId) -> usize {
        self.armed_timer_slots(node)
    }
}

impl Engine for ShardedSim {
    fn crash(&mut self, node: NodeId) {
        ShardedSim::crash(self, node);
    }
    fn revive(&mut self, node: NodeId) {
        ShardedSim::revive(self, node);
    }
    fn armed_slots(&self, node: NodeId) -> usize {
        self.armed_timer_slots(node)
    }
}

fn sim() -> Sim {
    Sim::with_clock_profile(7, ClockProfile::perfect())
}

fn sharded() -> ShardedSim {
    ShardedSim::with_clock_profile(7, ClockProfile::perfect())
}

const MS: Duration = Duration::from_millis(1);

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

fn slots_never_outgrow_the_timers_in_flight(mut e: impl Engine) {
    let node = e.add(Box::new(Churn::default()));
    let mut steps = 0;
    while e.actor::<Churn>(node).fired.len() < Churn::TOKENS as usize {
        e.run_for(MS);
        steps += 1;
        assert!(steps < 10_000, "churn stalled");
        let churn = e.actor::<Churn>(node);
        let in_flight = churn.next_token as usize - churn.fired.len();
        assert!(in_flight <= Churn::WINDOW as usize);
        assert_eq!(e.armed_slots(node), in_flight, "after {steps} ms");
    }
    assert_eq!(e.armed_slots(node), 0, "every slot released");
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

impl Recorder {
    fn fired_at_ms(&self) -> Vec<u64> {
        self.fired_at.iter().map(|t| t.as_millis()).collect()
    }
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
fn rearming_after_a_firing_never_resurrects_a_replaced_one(mut e: impl Engine) {
    let node = e.add(Box::new(Recorder {
        arm_on_start: vec![MS * 100, MS * 10],
        rearm_on_firing: vec![MS * 200],
        fired_at: Vec::new(),
    }));
    e.run_for(Duration::from_secs(1));
    let fired = e.actor::<Recorder>(node).fired_at_ms();
    assert_eq!(fired, [10, 210], "the replaced 100 ms firing stays dead");
    assert_eq!(e.armed_slots(node), 0);
}

/// A crash drops the slots; the restarted node arms the same token
/// while the pre-crash firing is still queued.
fn crash_then_revive_never_delivers_a_pre_crash_firing(mut e: impl Engine) {
    let node = e.add(Box::new(Recorder {
        arm_on_start: vec![MS * 100],
        rearm_on_firing: Vec::new(),
        fired_at: Vec::new(),
    }));
    e.run_for(MS * 50);
    e.crash(node);
    assert_eq!(e.armed_slots(node), 0, "a crash releases every slot");
    e.run_for(MS * 10);
    e.revive(node); // `on_start` again: armed for 160 ms
    e.run_for(Duration::from_secs(1));
    let fired = e.actor::<Recorder>(node).fired_at_ms();
    assert_eq!(fired, [160], "only the post-revive arming fires");
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

fn cancelling_an_unarmed_token_is_a_no_op(mut e: impl Engine) {
    let node = e.add(Box::new(CancelsNothing { fired: 0 }));
    e.run_for(MS);
    assert_eq!(e.armed_slots(node), 1, "only token 1 is armed");
    e.run_for(Duration::from_secs(1));
    assert_eq!(e.actor::<CancelsNothing>(node).fired, 1);
    assert_eq!(e.armed_slots(node), 0);
}

macro_rules! on_both_engines {
    ($($scenario:ident => $on_sim:ident, $on_sharded:ident;)*) => {$(
        #[test]
        fn $on_sim() {
            $scenario(sim());
        }
        #[test]
        fn $on_sharded() {
            $scenario(sharded());
        }
    )*};
}

on_both_engines! {
    slots_never_outgrow_the_timers_in_flight =>
        sim_slots_never_outgrow_the_timers_in_flight,
        sharded_slots_never_outgrow_the_timers_in_flight;
    rearming_after_a_firing_never_resurrects_a_replaced_one =>
        sim_rearming_after_a_firing_never_resurrects_a_replaced_one,
        sharded_rearming_after_a_firing_never_resurrects_a_replaced_one;
    crash_then_revive_never_delivers_a_pre_crash_firing =>
        sim_crash_then_revive_never_delivers_a_pre_crash_firing,
        sharded_crash_then_revive_never_delivers_a_pre_crash_firing;
    cancelling_an_unarmed_token_is_a_no_op =>
        sim_cancelling_an_unarmed_token_is_a_no_op,
        sharded_cancelling_an_unarmed_token_is_a_no_op;
}
