//! Campaign invariants seen to fail, for the checkers that need no
//! counting allocator (`checkers_fire.rs` holds the one that does, alone
//! in its binary). Each case hands a campaign runner a deployment with
//! one deliberately broken actor, wrapped around the real one through
//! `Deployment`'s public factories, and asserts that the row fails that
//! invariant and says why; the same deployment with the real actor
//! passes it.

use std::any::Any;

use nb_bench::scale::{describe_tier, run_description, TierSpec};
use nb_net::runtime::IdleActor;
use nb_net::topogen::TopologyKind;
use nb_net::{Actor, Context, Incoming};
use nb_util::Uuid;
use nb_wire::topic::DISCOVERY_REQUEST_TOPIC;
use nb_wire::Message;

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
