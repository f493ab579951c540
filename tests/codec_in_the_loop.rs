//! The v1 codec on every hop. The engine hands a receiver the sender's
//! `WireMsg` by refcount, so a frame whose bytes do not decode back to
//! the message that was sent would go unnoticed. Here every node is
//! wrapped in an actor that takes each arriving message's frame,
//! decodes it from bytes, checks it against the original and delivers
//! the *re-decoded* message — so the protocol runs on what the wire
//! carried, not on what the sender held.

use std::any::Any;
use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::client::TIMER_START;
use nb::discovery::{
    at_one_and_four_workers, Deployment, DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, DiscoveryOutcome, Entity,
    Network, ResponsePolicy,
};
use nb::net::{Actor, ClockProfile, Context, Fault, Incoming, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter, WireMsg};

/// Delivers to the inner actor what `frame → bytes → from_frame` yields.
/// `as_any` forwards to the inner actor, so `sim.actor::<T>()` sees
/// straight through the wrapper.
struct Recoded(Box<dyn Actor>);

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

/// A lossless LAN whose clocks sync within ~100 ms.
fn lan(seed: u64) -> Deployment {
    let clock = ClockProfile {
        max_true_offset: Duration::from_millis(100),
        min_residual: Duration::from_millis(1),
        max_residual: Duration::from_millis(5),
        min_sync_delay: Duration::from_millis(40),
        max_sync_delay: Duration::from_millis(90),
    };
    let intra = LinkSpec::lan().with_loss(0.0);
    let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(40)), wan: None };
    Deployment { seed, clock, nodes: Vec::new(), network }
}

/// Appends a recoded node whose actor `make` builds.
fn add(d: &mut Deployment, name: &str, make: impl Fn() -> Box<dyn Actor> + Send + 'static) -> NodeId {
    d.add(name.into(), REALM, false, move || Box::new(Recoded(make())))
}

fn discovery_broker(name: &str, bdn: NodeId, neighbors: Vec<NodeId>) -> Box<dyn Actor> {
    let cfg = BrokerConfig {
        hostname: name.to_string(),
        machine: MachineProfile::default_2005(),
        neighbors,
        ..BrokerConfig::default()
    };
    Box::new(DiscoveryBrokerActor::new(cfg, vec![bdn], ResponsePolicy::open()))
}

/// A BDN, a three-broker star and a client, every node recoded; runs
/// one discovery (with the BDN crashed first if `bdn_down`), `check`s
/// its outcome and returns it with the engine's event count, at 1 and
/// at 4 workers.
fn star_discovery(seed: u64, bdn_down: bool, check: impl Fn(&DiscoveryOutcome)) -> Vec<(DiscoveryOutcome, u64)> {
    let (bdn, hub, client) = (NodeId(0), NodeId(1), NodeId(4));
    let describe = || {
        let mut d = lan(seed);
        add(&mut d, "bdn", || Box::new(Bdn::new(BdnConfig::default())));
        add(&mut d, "b0", move || discovery_broker("b0.local", bdn, vec![]));
        for name in ["b1", "b2"] {
            add(&mut d, name, move || discovery_broker(&format!("{name}.local"), bdn, vec![hub]));
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
        add(&mut d, "client", move || Box::new(DiscoveryClient::with_auto_start(cfg.clone(), false)));
        d
    };
    at_one_and_four_workers(describe, |sim| {
        // Clocks sync within ~100 ms; brokers advertise on start and on sync.
        sim.run_for(Duration::from_millis(400));
        if bdn_down {
            sim.apply_fault(Fault::Crash { node: bdn });
        }
        sim.inject(client, Duration::from_millis(1), Incoming::Timer { token: TIMER_START });
        sim.run_for(Duration::from_secs(4));

        let stats = sim.stats();
        assert!(stats.datagrams_delivered > 0 && stats.stream_delivered > 0, "both transports ran");
        assert!(stats.by_kind.contains_key("discovery-request"));
        assert!(stats.by_kind.contains_key("discovery-response"));
        let completed = &sim.actor::<DiscoveryClient>(client).expect("client").completed;
        assert_eq!(completed.len(), 1, "one discovery completed");
        check(&completed[0]);
        (completed[0].clone(), sim.events_processed())
    })
}

#[test]
fn bdn_discovery_runs_on_decoded_bytes() {
    let runs = star_discovery(41, false, |outcome| {
        assert!(outcome.chosen.is_some(), "discovery succeeds");
        assert_eq!(outcome.responses_received, 3, "every broker answered");
        assert!(!outcome.used_multicast);
    });
    assert_eq!(star_discovery(41, false, |_| {}), runs, "same seed, same run");
}

#[test]
fn multicast_fallback_runs_on_decoded_bytes() {
    let runs = star_discovery(42, true, |outcome| {
        assert!(outcome.used_multicast, "fallback must engage");
        assert!(outcome.chosen.is_some(), "a lab broker answers via multicast");
    });
    assert_eq!(star_discovery(42, true, |_| {}), runs, "same seed, same run");
}

#[test]
fn publish_crosses_two_hops_on_decoded_bytes() {
    // A chain b0 – b1 – b2: publisher on b0, subscriber on b2.
    let (brokers, sub, publisher) = ([NodeId(0), NodeId(1), NodeId(2)], NodeId(3), NodeId(4));
    let describe = || {
        let mut d = lan(43);
        for i in 0..3 {
            let neighbors: Vec<NodeId> = brokers[..i].last().copied().into_iter().collect();
            let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
            add(&mut d, &format!("b{i}"), move || {
                Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![], ResponsePolicy::open()))
            });
        }
        let filter = TopicFilter::parse("news/*").unwrap();
        add(&mut d, "sub", move || Box::new(Entity::of_broker(brokers[2], vec![filter.clone()])));
        add(&mut d, "pub", move || Box::new(Entity::of_broker(brokers[0], vec![])));
        d
    };
    let run = || {
        at_one_and_four_workers(describe, |sim| {
            sim.run_for(Duration::from_secs(3));
            let routed = |sim: &ShardedSim| {
                sim.actor::<DiscoveryBrokerActor>(brokers[1]).expect("middle").broker.events_routed
            };
            let before = routed(sim);
            let client = sim.actor_mut::<Entity>(publisher).expect("publisher");
            client.queue_publish(Topic::parse("news/world").unwrap(), vec![7, 7, 7]);
            sim.run_for(Duration::from_secs(2));

            let subscriber = sim.actor::<Entity>(sub).expect("subscriber");
            let received = &subscriber.received;
            assert_eq!((received.len(), subscriber.duplicates_dropped), (1, 0), "the event is delivered exactly once");
            assert_eq!(received[0].topic.as_str(), "news/world");
            assert_eq!(received[0].payload, vec![7, 7, 7]);
            assert_eq!(routed(sim) - before, 1, "the middle broker routes the event once");
            sim.events_processed()
        })
    };
    assert_eq!(run(), run(), "same seed, same run");
}
