//! Campaign invariants seen to fail, for the checkers that need no
//! counting allocator (`checkers_fire.rs` holds the one that does, alone
//! in its binary). Each case runs a campaign's deployment with
//! deliberately broken actors, each wrapped around or reconfigured from
//! the real one through `Deployment`'s public factories, through that
//! campaign's own checks, and asserts that the row fails that invariant
//! and says why; the same deployment with the real actor passes it.

use std::any::Any;
use std::collections::BTreeMap;
use std::time::Duration;

use nb_bench::campaign::{InvariantResult, Testbed};
use nb_bench::chaos::{check, describe_testbed, PREFIX};
use nb_bench::scale::{describe_tier, run_description, TierSpec};
use nb_discovery::{Deployment, DiscoveryBrokerActor, Entity};
use nb_net::runtime::IdleActor;
use nb_net::topogen::TopologyKind;
use nb_net::{Actor, Context, Incoming, SimTime};
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

/// How long the drills' publishes are given to land.
const SETTLE: Duration = Duration::from_secs(4);

/// The chaos testbed booted and attached, with no fault plan: every
/// entity publishes one event, the traffic lands within `settle`, and
/// the campaign's own check runs. `describe` may rewire the testbed
/// first.
fn chaos_testbed_checked(
    settle: Duration,
    describe: impl FnOnce(&mut Testbed<Deployment>),
) -> (Testbed, Vec<InvariantResult>) {
    let mut tb = describe_testbed(2005, 1);
    describe(&mut tb);
    let mut tb = tb.build();
    tb.sim.run_for(Duration::from_secs(12));
    for (i, &e) in tb.entities.clone().iter().enumerate() {
        let topic = Topic::parse(&format!("{PREFIX}/drill/e{i}")).expect("valid topic");
        tb.sim.actor_mut::<Entity>(e).expect("entity").queue_publish(topic, vec![i as u8]);
    }
    tb.sim.run_for(settle);
    let (invariants, _) = check(&mut tb);
    (tb, invariants)
}

#[test]
fn no_duplicates_fails_a_testbed_where_one_broker_hands_an_entity_each_event_twice() {
    let no_duplicates = |invariants: &[InvariantResult]| {
        invariants.iter().find(|i| i.name == "no_duplicates").expect("a no_duplicates row").clone()
    };
    let (real, real_invariants) = chaos_testbed_checked(SETTLE, |_| {});
    assert!(real_invariants.iter().all(|i| i.passed), "the real testbed fails: {real_invariants:?}");
    let e0 = real.entities[0];
    let home = real.entity(e0).broker().expect("e0 attached");
    assert_eq!(real.entity(e0).attachments, [home], "e0 attached once");

    let (tb, invariants) = chaos_testbed_checked(SETTLE, |tb| {
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
    let (real, real_invariants) = chaos_testbed_checked(SETTLE, |_| {});
    assert!(attached(&real_invariants).passed, "the real testbed fails: {real_invariants:?}");
    let e0 = real.entities[0];

    let (_, invariants) = chaos_testbed_checked(SETTLE, |tb| {
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

/// Long enough for a broker's lease (the chaos BDN's 30 s `ad_ttl`) to
/// lapse after its last advertisement.
const PAST_A_LEASE: Duration = Duration::from_secs(30);

#[test]
fn fresh_leases_fails_a_testbed_where_one_broker_never_readvertises() {
    let fresh_leases = |invariants: &[InvariantResult]| {
        invariants.iter().find(|i| i.name == "fresh_leases").expect("a fresh_leases row").clone()
    };
    let (real, real_invariants) = chaos_testbed_checked(PAST_A_LEASE, |_| {});
    assert!(real_invariants.iter().all(|i| i.passed), "the real testbed fails: {real_invariants:?}");
    let e0 = real.entities[0];
    let home = real.entity(e0).broker().expect("e0 attached");

    // e0's broker advertises on start and on its clock sync, and then
    // not again within the run: its lease lapses while e0 stays.
    let (tb, invariants) = chaos_testbed_checked(PAST_A_LEASE, |tb| {
        let node = &mut tb.sim.nodes[home.0 as usize];
        let mut broker = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
        node.make = Box::new(move || {
            let mut actor = broker();
            let inner = actor.as_any_mut().downcast_mut::<DiscoveryBrokerActor>().expect("a broker");
            inner.advertiser.set_readvertise(Duration::from_secs(3600));
            actor
        });
    });
    let check = fresh_leases(&invariants);
    assert!(!check.passed, "fresh_leases passed: {}", check.detail);
    let named = format!("e0 attached to unleased {}", tb.sim.node_name(home));
    assert!(check.detail.contains(&named), "the detail does not name e0 and its broker: {}", check.detail);
    // Only the lapsed lease broke the row: the fleet still attached.
    let others: Vec<_> = invariants.iter().filter(|i| i.name != "fresh_leases").collect();
    assert!(others.iter().all(|i| i.passed), "{others:?}");
}

/// A broker that drops each client's connection once: it leaves
/// unanswered the first [`Dropping::MISSES`] pings each client sends
/// after connecting, so the client gives the broker up and fails over.
/// `as_any` forwards to the inner actor, as [`Swallowing`]'s does.
struct Dropping {
    inner: Box<dyn Actor>,
    /// Pings still to drop, by client.
    dropping: BTreeMap<NodeId, u8>,
}

impl Dropping {
    /// The keepalive pings in a row an entity leaves unanswered before
    /// it rediscovers.
    const MISSES: u8 = 3;
}

impl Actor for Dropping {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match &event {
            Incoming::Stream { msg, .. } => {
                if let Message::ClientConnect { client, .. } = msg.message() {
                    self.dropping.entry(*client).or_insert(Dropping::MISSES);
                }
            }
            Incoming::Datagram { from, msg, .. } if matches!(msg.message(), Message::Ping { .. }) => {
                if let Some(left @ 1..) = self.dropping.get_mut(&from.node) {
                    *left -= 1;
                    return;
                }
            }
            _ => {}
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
fn no_failovers_fails_a_tier_where_one_broker_drops_each_client_once() {
    let spec = TierSpec { name: "dropping", kind: TopologyKind::Star, brokers: 4, entities: 40 };
    // A tier's entities ping their broker every 60 s, so three misses
    // outlast the run; at 1 s they fit in its steady state.
    let describe = || {
        let (mut tier, digest) = describe_tier(&spec, 2005);
        for &e in &tier.entities {
            let node = &mut tier.sim.nodes[e.0 as usize];
            let mut entity = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
            node.make = Box::new(move || {
                let mut actor = entity();
                let inner = actor.as_any_mut().downcast_mut::<Entity>().expect("an entity");
                inner.set_keepalive_interval(Duration::from_secs(1));
                actor
            });
        }
        (tier, digest)
    };
    let no_failovers = |row: &nb_bench::campaign::ScenarioResult<_>| {
        row.invariants.iter().find(|i| i.name == "no_failovers").expect("a no_failovers row").clone()
    };
    // "<n> failovers, <k> keepalive pings sent", as two numbers.
    let counts = |detail: &str| -> (u64, u64) {
        let parsed = detail.split_once(" failovers, ").and_then(|(n, rest)| {
            Some((n.parse().ok()?, rest.strip_suffix(" keepalive pings sent")?.parse().ok()?))
        });
        parsed.unwrap_or_else(|| panic!("not \"N failovers, K keepalive pings sent\": {detail}"))
    };
    let real = run_description(&spec, 2005, 1, describe);
    assert!(real.passed(), "the real tier fails: {:?}", real.invariants);
    let (failovers, pings) = counts(&no_failovers(&real).detail);
    assert_eq!(failovers, 0, "{}", no_failovers(&real).detail);
    assert!(pings > 0, "the check inspected no keepalive: {}", no_failovers(&real).detail);

    let row = run_description(&spec, 2005, 1, || {
        let (mut tier, digest) = describe();
        let first = tier.brokers[0];
        let node = &mut tier.sim.nodes[first.0 as usize];
        let mut broker = std::mem::replace(&mut node.make, Box::new(|| Box::new(IdleActor)));
        node.make = Box::new(move || Box::new(Dropping { inner: broker(), dropping: BTreeMap::new() }));
        (tier, digest)
    });
    let check = no_failovers(&row);
    assert!(!check.passed, "no_failovers passed: {}", check.detail);
    let (failovers, pings) = counts(&check.detail);
    assert!(failovers > 0 && pings > 0, "{}", check.detail);
}
