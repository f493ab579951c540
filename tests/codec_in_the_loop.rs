//! The v1 codec on every hop. `Sim` hands a receiver the sender's
//! `WireMsg` by refcount, so a frame whose bytes do not decode back to
//! the message that was sent would go unnoticed. Here every node is
//! wrapped in an actor that takes each arriving message's frame,
//! decodes it from bytes, checks it against the original and delivers
//! the *re-decoded* message — so the protocol runs on what the wire
//! carried, not on what the sender held.

use std::any::Any;
use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, MachineProfile, PubSubClient};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::client::TIMER_START;
use nb::discovery::{
    DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, DiscoveryOutcome, ResponsePolicy,
};
use nb::net::{Actor, ClockProfile, Context, Incoming, LinkSpec, Sim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter, WireMsg};

/// Delivers to the inner actor what `frame → bytes → from_frame` yields.
/// `as_any` forwards to the inner actor, so `sim.actor::<T>()` sees
/// straight through the wrapper.
struct Recoded(Box<dyn Actor>);

fn recoded(actor: impl Actor) -> Box<dyn Actor> {
    Box::new(Recoded(Box::new(actor)))
}

fn through_bytes(msg: WireMsg) -> WireMsg {
    let back = WireMsg::from_frame(msg.frame().clone()).expect("a sent frame decodes");
    assert_eq!(back.message(), msg.message());
    assert_eq!(back.ttl(), msg.ttl());
    assert_eq!(back.hops(), msg.hops());
    assert_eq!(back.peek(), msg.peek());
    back
}

impl Actor for Recoded {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.0.on_start(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let event = match event {
            Incoming::Datagram { from, to_port, msg } => {
                Incoming::Datagram { from, to_port, msg: through_bytes(msg) }
            }
            Incoming::Stream { from, to_port, msg } => {
                Incoming::Stream { from, to_port, msg: through_bytes(msg) }
            }
            other => other,
        };
        self.0.on_incoming(event, ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

const REALM: RealmId = RealmId(0);

fn lan_sim(seed: u64) -> Sim {
    let clocks = ClockProfile {
        max_true_offset: Duration::from_millis(100),
        min_residual: Duration::from_millis(1),
        max_residual: Duration::from_millis(5),
        min_sync_delay: Duration::from_millis(40),
        max_sync_delay: Duration::from_millis(90),
    };
    let mut sim = Sim::with_clock_profile(seed, clocks);
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim
}

fn discovery_broker(name: &str, bdn: NodeId, neighbors: Vec<NodeId>) -> DiscoveryBrokerActor {
    DiscoveryBrokerActor::new(
        BrokerConfig {
            hostname: name.to_string(),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        },
        vec![bdn],
        ResponsePolicy::open(),
    )
}

/// A BDN, a three-broker star and a client, every node recoded; runs
/// one discovery (with the BDN crashed first if `bdn_down`) and returns
/// its outcome and the engine's event count.
fn star_discovery(seed: u64, bdn_down: bool) -> (DiscoveryOutcome, u64) {
    let mut sim = lan_sim(seed);
    let bdn = sim.add_node("bdn", REALM, recoded(Bdn::new(BdnConfig::default())));
    let hub = sim.add_node("b0", REALM, recoded(discovery_broker("b0.local", bdn, vec![])));
    for name in ["b1", "b2"] {
        let spoke = discovery_broker(&format!("{name}.local"), bdn, vec![hub]);
        sim.add_node(name, REALM, recoded(spoke));
    }
    let cfg = DiscoveryConfig {
        bdns: vec![bdn],
        collection_window: Duration::from_millis(1200),
        max_responses: 3,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(250),
        retransmits_per_bdn: 1,
        ..DiscoveryConfig::default()
    };
    let client =
        sim.add_node("client", REALM, recoded(DiscoveryClient::with_auto_start(cfg, false)));
    // Clocks sync within ~100 ms; brokers advertise on start and on sync.
    sim.run_for(Duration::from_millis(400));
    if bdn_down {
        sim.crash(bdn);
    }
    sim.inject(client, Duration::from_millis(1), Incoming::Timer { token: TIMER_START });
    sim.run_for(Duration::from_secs(4));

    let stats = sim.stats();
    assert!(stats.datagrams_delivered > 0 && stats.stream_delivered > 0, "both transports ran");
    assert!(stats.by_kind.contains_key("discovery-request"));
    assert!(stats.by_kind.contains_key("discovery-response"));
    let completed = &sim.actor::<DiscoveryClient>(client).expect("client").completed;
    assert_eq!(completed.len(), 1, "one discovery completed");
    (completed[0].clone(), sim.events_processed())
}

#[test]
fn bdn_discovery_runs_on_decoded_bytes() {
    let (outcome, events) = star_discovery(41, false);
    assert!(outcome.chosen.is_some(), "discovery succeeds");
    assert_eq!(outcome.responses_received, 3, "every broker answered");
    assert!(!outcome.used_multicast);
    assert_eq!(star_discovery(41, false), (outcome, events), "same seed, same run");
}

#[test]
fn multicast_fallback_runs_on_decoded_bytes() {
    let (outcome, events) = star_discovery(42, true);
    assert!(outcome.used_multicast, "fallback must engage");
    assert!(outcome.chosen.is_some(), "a lab broker answers via multicast");
    assert_eq!(star_discovery(42, true), (outcome, events), "same seed, same run");
}

#[test]
fn publish_crosses_two_hops_on_decoded_bytes() {
    let run = || {
        let mut sim = lan_sim(43);
        // A chain b0 – b1 – b2: publisher on b0, subscriber on b2.
        let mut brokers: Vec<NodeId> = Vec::new();
        for i in 0..3 {
            let cfg = BrokerConfig {
                neighbors: brokers.last().copied().into_iter().collect(),
                ..BrokerConfig::default()
            };
            brokers.push(sim.add_node(&format!("b{i}"), REALM, recoded(BrokerActor::new(cfg))));
        }
        let filter = TopicFilter::parse("news/*").unwrap();
        let sub = sim.add_node("sub", REALM, recoded(PubSubClient::new(brokers[2], vec![filter])));
        let publisher = sim.add_node("pub", REALM, recoded(PubSubClient::new(brokers[0], vec![])));
        sim.run_for(Duration::from_secs(3));
        sim.actor_mut::<PubSubClient>(publisher)
            .expect("publisher")
            .queue_publish(Topic::parse("news/world").unwrap(), vec![7, 7, 7]);
        sim.run_for(Duration::from_secs(2));

        let received = &sim.actor::<PubSubClient>(sub).expect("subscriber").received;
        assert_eq!(received.len(), 1, "the event is delivered exactly once");
        assert_eq!(received[0].topic.as_str(), "news/world");
        assert_eq!(received[0].payload, vec![7, 7, 7]);
        assert_eq!(sim.actor::<BrokerActor>(brokers[1]).expect("middle").broker.events_routed, 1);
        sim.events_processed()
    };
    assert_eq!(run(), run(), "same seed, same run");
}
