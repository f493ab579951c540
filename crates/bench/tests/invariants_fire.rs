//! Campaign invariants seen to fail, for the checkers that need no
//! counting allocator (`checkers_fire.rs` holds the one that does, alone
//! in its binary). Each case runs a campaign's deployment with
//! deliberately broken actors, each wrapped around the real one through
//! `Deployment`'s public factories, through that campaign's own checks,
//! and asserts that the row fails that invariant and says why; the same
//! deployment with the real actor passes it.

use std::any::Any;
use std::time::Duration;

use nb_bench::campaign::{InvariantResult, Testbed};
use nb_bench::chaos::{check, describe_testbed, PREFIX};
use nb_bench::scale::{describe_tier, run_description, TierSpec};
use nb_discovery::Entity;
use nb_net::runtime::IdleActor;
use nb_net::topogen::TopologyKind;
use nb_net::{Actor, Context, Incoming, Sim, SimTime};
use nb_util::Uuid;
use nb_wire::topic::DISCOVERY_REQUEST_TOPIC;
use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId, Topic, WireMsg};
use rand::RngCore;

/// A broker that drops every copy of the first discovery request to
/// reach it, and nothing else. `as_any` forwards to the inner actor, so
/// the runner still sees a `DiscoveryBrokerActor`.
struct Swallowing {
    inner: Box<dyn Actor>,
    swallowed: Option<Uuid>,
}

impl Actor for Swallowing {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Stream { msg, .. } = &event {
            if let Message::Publish(ev) = msg.message() {
                if ev.topic.as_str() == DISCOVERY_REQUEST_TOPIC && *self.swallowed.get_or_insert(ev.id) == ev.id {
                    return;
                }
            }
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

#[test]
fn answered_once_fails_a_tier_where_one_broker_swallows_one_request() {
    let spec = TierSpec { name: "swallowing", kind: TopologyKind::Star, brokers: 4, entities: 40 };
    let answered_once = |row: &nb_bench::campaign::ScenarioResult<_>| {
        row.invariants.iter().find(|i| i.name == "answered_once").expect("an answered_once row").clone()
    };
    let real = run_description(&spec, 2005, 1, || describe_tier(&spec, 2005));
    assert!(real.passed(), "the real tier fails: {:?}", real.invariants);
    assert!(answered_once(&real).detail.starts_with("160 answers to 160 broker-requests"), "{:?}", real.invariants);

    let row = run_description(&spec, 2005, 1, || {
        let (mut tier, digest) = describe_tier(&spec, 2005);
        let last = *tier.brokers.last().expect("brokers");
        let node = &mut tier.sim.nodes[last.0 as usize];
        let mut broker = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
        node.make = Box::new(move || Box::new(Swallowing { inner: broker(), swallowed: None }));
        (tier, digest)
    });
    let check = answered_once(&row);
    assert!(!check.passed, "answered_once passed: {}", check.detail);
    assert!(
        check.detail.starts_with("159 answers to 160 broker-requests; 1 of 4 brokers off"),
        "the detail names no missing answer: {}",
        check.detail
    );
    // Only the swallowed request broke the row: the fleet still attached.
    let others: Vec<_> = row.invariants.iter().filter(|i| i.name != "answered_once").collect();
    assert!(others.iter().all(|i| i.passed), "{others:?}");
}

/// A broker's context that sends each `Publish` bound for `to` twice,
/// and passes everything else through.
struct Doubling<'a> {
    ctx: &'a mut dyn Context,
    to: NodeId,
}

impl Doubling<'_> {
    fn copies(&self, to: Endpoint, msg: &Message) -> usize {
        if to.node == self.to && matches!(msg, Message::Publish(_)) { 2 } else { 1 }
    }
}

impl Context for Doubling<'_> {
    fn me(&self) -> NodeId {
        self.ctx.me()
    }
    fn realm(&self) -> RealmId {
        self.ctx.realm()
    }
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn utc_micros(&self) -> u64 {
        self.ctx.utc_micros()
    }
    fn clock_synced(&self) -> bool {
        self.ctx.clock_synced()
    }
    fn raw_local_micros(&self) -> u64 {
        self.ctx.raw_local_micros()
    }
    fn set_clock_estimate_ns(&mut self, est_offset_ns: i64) {
        self.ctx.set_clock_estimate_ns(est_offset_ns);
    }
    fn send_udp(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        self.ctx.send_udp(from_port, to, msg);
    }
    fn send_udp_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        self.ctx.send_udp_wire(from_port, to, msg);
    }
    fn send_stream(&mut self, from_port: Port, to: Endpoint, msg: &Message) {
        for _ in 0..self.copies(to, msg) {
            self.ctx.send_stream(from_port, to, msg);
        }
    }
    fn send_stream_wire(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        for _ in 0..self.copies(to, msg.message()) {
            self.ctx.send_stream_wire(from_port, to, msg);
        }
    }
    fn send_stream_v2(&mut self, from_port: Port, to: Endpoint, msg: &WireMsg) {
        for _ in 0..self.copies(to, msg.message()) {
            self.ctx.send_stream_v2(from_port, to, msg);
        }
    }
    fn send_multicast(&mut self, from_port: Port, group: GroupId, to_port: Port, msg: &Message) {
        self.ctx.send_multicast(from_port, group, to_port, msg);
    }
    fn join_group(&mut self, group: GroupId) {
        self.ctx.join_group(group);
    }
    fn leave_group(&mut self, group: GroupId) {
        self.ctx.leave_group(group);
    }
    fn set_timer(&mut self, delay: Duration, token: u64) {
        self.ctx.set_timer(delay, token);
    }
    fn cancel_timer(&mut self, token: u64) {
        self.ctx.cancel_timer(token);
    }
    fn rng(&mut self) -> &mut dyn RngCore {
        self.ctx.rng()
    }
}

/// A broker that forwards each `Publish` for entity `to` once more.
/// `as_any` forwards to the inner actor, as [`Swallowing`]'s does.
struct DoublingTo {
    inner: Box<dyn Actor>,
    to: NodeId,
}

impl Actor for DoublingTo {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(&mut Doubling { ctx, to: self.to });
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        self.inner.on_incoming(event, &mut Doubling { ctx, to: self.to });
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The chaos testbed booted and attached, with no fault plan: every
/// entity publishes one event, the traffic lands, and the campaign's own
/// check runs. `describe` may rewire the testbed first.
fn chaos_testbed_checked(describe: impl FnOnce(&mut Testbed<nb_discovery::Deployment>)) -> (Testbed, Vec<InvariantResult>) {
    let mut tb = describe_testbed(2005, 1);
    describe(&mut tb);
    let mut tb = tb.build(Sim::with_clock_profile);
    tb.sim.run_for(Duration::from_secs(12));
    for (i, &e) in tb.entities.clone().iter().enumerate() {
        let topic = Topic::parse(&format!("{PREFIX}/drill/e{i}")).expect("valid topic");
        tb.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
    }
    tb.sim.run_for(Duration::from_secs(4));
    let (invariants, _) = check(&mut tb);
    (tb, invariants)
}

#[test]
fn no_duplicates_fails_a_testbed_where_one_broker_hands_an_entity_each_event_twice() {
    let no_duplicates = |invariants: &[InvariantResult]| {
        invariants.iter().find(|i| i.name == "no_duplicates").expect("a no_duplicates row").clone()
    };
    let (real, real_invariants) = chaos_testbed_checked(|_| {});
    assert!(real_invariants.iter().all(|i| i.passed), "the real testbed fails: {real_invariants:?}");
    let e0 = real.entities[0];
    let home = real.entity(e0).broker().expect("e0 attached");
    assert_eq!(real.entity(e0).attachments, [home], "e0 attached once");

    let (tb, invariants) = chaos_testbed_checked(|tb| {
        let node = &mut tb.sim.nodes[home.0 as usize];
        let mut broker = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
        node.make = Box::new(move || Box::new(DoublingTo { inner: broker(), to: e0 }));
    });
    let check = no_duplicates(&invariants);
    assert!(!check.passed, "no_duplicates passed: {}", check.detail);
    let named = format!("attached once: e0 got 3 at {}", tb.sim.node_name(home));
    assert!(check.detail.ends_with(&named), "the detail does not name e0 and its broker: {}", check.detail);
    assert!(check.detail.starts_with("15 arrivals, 3 repeats"), "{}", check.detail);
    assert_eq!(no_duplicates(&real_invariants).detail, "12 arrivals, 0 repeats");
    // Only the repeats broke the row: the fleet still attached.
    let others: Vec<_> = invariants.iter().filter(|i| i.name != "no_duplicates").collect();
    assert!(others.iter().all(|i| i.passed), "{others:?}");
}

/// A broker that drops every `ClientConnect` from `client`, and nothing
/// else. `as_any` forwards to the inner actor, as [`Swallowing`]'s does.
struct Refusing {
    inner: Box<dyn Actor>,
    client: NodeId,
}

impl Actor for Refusing {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Stream { msg, .. } = &event {
            if matches!(msg.message(), Message::ClientConnect { client, .. } if *client == self.client) {
                return;
            }
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

#[test]
fn attached_fails_a_testbed_where_every_broker_refuses_one_entity() {
    let attached = |invariants: &[InvariantResult]| {
        invariants.iter().find(|i| i.name == "attached").expect("an attached row").clone()
    };
    let (real, real_invariants) = chaos_testbed_checked(|_| {});
    assert!(attached(&real_invariants).passed, "the real testbed fails: {real_invariants:?}");
    let e0 = real.entities[0];

    let (_, invariants) = chaos_testbed_checked(|tb| {
        for &b in &tb.brokers {
            let node = &mut tb.sim.nodes[b.0 as usize];
            let mut broker = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
            node.make = Box::new(move || Box::new(Refusing { inner: broker(), client: e0 }));
        }
    });
    let check = attached(&invariants);
    assert!(!check.passed, "attached passed: {}", check.detail);
    assert!(check.detail.starts_with("e0="), "the detail does not name e0 as not attached: {}", check.detail);
    // Only e0 is refused: every other entity still attached.
    assert_eq!(check.detail.matches("->").count(), real.entities.len() - 1, "{}", check.detail);
}
