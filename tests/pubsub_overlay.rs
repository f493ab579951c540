//! The pub/sub substrate at scale: routing correctness over larger and
//! randomly shaped overlays, advertisement dissemination over the
//! well-known topic, and private-BDN bootstrap (§2.3, §2.4).

use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, PubSubClient, Topology, TopologyKind};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{on_every_engine, Deployment, DiscoveryBrokerActor, Network, ResponsePolicy};
use nb::net::{ClockProfile, DiscoveryEngine, LinkSpec};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

/// A lossless LAN, and 10 ms lossless WAN links between realms.
fn quiet(seed: u64) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let inter = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
    let network = Network::Realms { intra, inter, wan: None };
    Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network }
}

/// Appends `topo`'s brokers to `d`; returns their ids.
fn add_overlay(d: &mut Deployment, topo: &Topology) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let cfg = BrokerConfig { neighbors: dials.iter().map(|&j| ids[j]).collect(), ..BrokerConfig::default() };
        ids.push(d.add(format!("b{i}"), RealmId(0), false, move || Box::new(BrokerActor::new(cfg.clone()))));
    }
    ids
}

/// Appends a [`PubSubClient`] of `broker` subscribed to `filters`.
fn add_client(d: &mut Deployment, name: String, broker: NodeId, filters: Vec<TopicFilter>) -> NodeId {
    d.add(name, RealmId(0), false, move || Box::new(PubSubClient::new(broker, filters.clone())))
}

fn publish(sim: &mut dyn DiscoveryEngine, publisher: NodeId, topic: &str, payload: Vec<u8>) {
    let client = sim.actor_mut::<PubSubClient>(publisher).unwrap();
    client.queue_publish(Topic::parse(topic).unwrap(), payload);
}

#[test]
fn exactly_once_delivery_across_a_random_overlay() {
    let topo = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Topology::random(20, 6, &mut rng) // spanning tree + 6 chords (cycles!)
    };
    assert!(topo.is_connected());
    // One subscriber per broker, one publisher at broker 0.
    let filter = TopicFilter::parse("telemetry/**").unwrap();
    let describe = || {
        let mut d = quiet(31);
        let brokers = add_overlay(&mut d, &topo);
        for (i, &b) in brokers.iter().enumerate() {
            add_client(&mut d, format!("sub{i}"), b, vec![filter.clone()]);
        }
        add_client(&mut d, "pub".into(), brokers[0], vec![]);
        d
    };
    let brokers: Vec<NodeId> = (0..20).map(NodeId).collect();
    let (subs, publisher): (Vec<NodeId>, _) = ((20..40).map(NodeId).collect(), NodeId(40));
    on_every_engine(describe, |sim| {
        // Let links + subscription propagation settle across 20 brokers.
        sim.run_for(Duration::from_secs(5));
        for i in 0..10 {
            publish(sim, publisher, "telemetry/cpu", vec![i]);
        }
        sim.run_for(Duration::from_secs(5));

        for (i, &sub) in subs.iter().enumerate() {
            let received = sim.actor::<PubSubClient>(sub).unwrap().received.len();
            assert_eq!(received, 10, "subscriber {i} must receive each event exactly once");
        }
        // The chords created duplicate paths; dedup must have fired somewhere.
        let dupes: u64 =
            brokers.iter().map(|&b| sim.actor::<BrokerActor>(b).unwrap().broker.duplicates_suppressed).sum();
        assert!(dupes > 0, "cyclic overlay must exercise duplicate suppression");
    });
}

/// `topo`'s brokers, one subscriber at its last broker and one publisher
/// at broker 0.
fn unsubscriber(seed: u64, topo: &Topology) -> Deployment {
    let mut d = quiet(seed);
    let brokers = add_overlay(&mut d, topo);
    let filter = TopicFilter::parse("news/*").unwrap();
    add_client(&mut d, "sub".into(), brokers[brokers.len() - 1], vec![filter]);
    add_client(&mut d, "pub".into(), brokers[0], vec![]);
    d
}

/// On [`unsubscriber`]'s deployment of `n` brokers: an event arrives,
/// the subscriber unsubscribes, a second event does not. Returns the
/// publisher for what else a caller checks.
fn unsubscribe_stops_delivery(sim: &mut dyn DiscoveryEngine, n: u32) -> NodeId {
    let (last, sub, publisher) = (NodeId(n - 1), NodeId(n), NodeId(n + 1));
    sim.run_for(Duration::from_secs(3));
    publish(sim, publisher, "news/world", vec![1]);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.actor::<PubSubClient>(sub).unwrap().received.len(), 1);

    // Unsubscribe: deliver a ClientUnsubscribe to the subscriber's broker
    // as if it came from the subscriber's connection.
    use nb::net::Incoming;
    use nb::wire::{Endpoint, Message};
    let filter = TopicFilter::parse("news/*").unwrap();
    let from = Endpoint::new(sub, nb::wire::addr::well_known::BROKER);
    let msg = Message::ClientUnsubscribe { filter }.into();
    sim.inject(last, Duration::from_millis(5), Incoming::Stream { from, to_port: from.port, msg });
    sim.run_for(Duration::from_secs(2));
    publish(sim, publisher, "news/world", vec![2]);
    sim.run_for(Duration::from_secs(2));
    let received = sim.actor::<PubSubClient>(sub).unwrap().received.len();
    assert_eq!(received, 1, "no delivery after unsubscribe");
    publisher
}

#[test]
fn unsubscribe_stops_delivery_overlay_wide() {
    let topo = Topology::build(TopologyKind::Linear, 4);
    on_every_engine(|| unsubscriber(32, &topo), |sim| unsubscribe_stops_delivery(sim, 4));
}

/// On a cycle the per-neighbour split horizon reflects interest back:
/// each broker of a triangle advertises the filter to one neighbour on
/// behalf of the other, so after the only subscriber is gone all three
/// still hold it and still route every matching event to each other.
/// Pruning removes the duplicates of that traffic, not the traffic.
#[test]
#[ignore = "ROADMAP item 5: interest plane on cyclic overlays"]
fn unsubscribe_stops_delivery_on_a_triangle_too() {
    let topo = Topology::build(TopologyKind::Ring, 3);
    on_every_engine(|| unsubscriber(36, &topo), |sim| {
        let publisher = unsubscribe_stops_delivery(sim, 3);
        let brokers = [NodeId(0), NodeId(1), NodeId(2)];
        for b in brokers {
            let held = sim.actor::<BrokerActor>(b).unwrap().broker.interest_filters();
            assert!(held.is_empty(), "{} still holds {held:?}", sim.node_name(b));
        }
        let routed = |sim: &dyn DiscoveryEngine| -> u64 {
            brokers.iter().map(|&b| sim.actor::<BrokerActor>(b).unwrap().broker.events_routed).sum()
        };
        let before = routed(sim);
        publish(sim, publisher, "news/world", vec![3]);
        sim.run_for(Duration::from_secs(2));
        assert_eq!(routed(sim) - before, 1, "the ingress broker routes it; no link carries it");
    });
}

/// A discovery broker dialling `neighbors` and advertising to `bdns`.
fn discovery_broker(cfg: BrokerConfig, bdns: Vec<NodeId>) -> Box<DiscoveryBrokerActor> {
    Box::new(DiscoveryBrokerActor::new(cfg, bdns, ResponsePolicy::open()))
}

#[test]
fn topic_based_advertisements_reach_a_bdn_attached_elsewhere() {
    // §2.3: a broker "might send this advertisement over a public topic …
    // which all BDNs within the substrate subscribe to". The BDN attaches
    // to broker A only; broker B's topic advertisement must still arrive
    // through the overlay.
    let (a, b, bdn) = (NodeId(0), NodeId(1), NodeId(2));
    let describe = || {
        let mut d = quiet(33);
        // No direct BDN registration!
        d.add("a".into(), RealmId(0), false, || discovery_broker(BrokerConfig::default(), vec![]));
        let cfg = BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() };
        d.add("b".into(), RealmId(0), false, move || discovery_broker(cfg.clone(), vec![]));
        let cfg = BdnConfig { attached_brokers: vec![a], auto_attach: false, ..BdnConfig::default() };
        d.add("bdn".into(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        d
    };
    on_every_engine(describe, |sim| {
        // Brokers re-advertise on ClockSynced (instant here) and every
        // 120 s; their start-up ads fired before the BDN subscribed, so
        // wait for the next periodic round.
        sim.run_for(Duration::from_secs(125));
        let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
        assert!(
            bdn_actor.registered(b).is_some(),
            "broker B advertised over the topic and through the overlay \
             (registry has {} brokers)",
            bdn_actor.registry_len()
        );
    });
}

#[test]
fn geography_filtered_bdn_ignores_other_regions() {
    // §2.3: "a BDN in the US may be interested only in broker additions
    // in North America".
    let (bdn, us, uk) = (NodeId(0), NodeId(1), NodeId(2));
    let describe = || {
        let mut d = quiet(34);
        let cfg = BdnConfig {
            accept_geography: Some("USA".into()),
            auto_attach: false,
            ..BdnConfig::default()
        };
        d.add("bdn".into(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        for (name, realm, geography) in [("us", 1, "Indianapolis, IN, USA"), ("uk", 2, "Cardiff, UK")] {
            d.add(name.into(), RealmId(realm), false, move || {
                let cfg = BrokerConfig { hostname: format!("{name}.host"), ..BrokerConfig::default() };
                let mut actor = discovery_broker(cfg, vec![bdn]);
                actor.advertiser.geography = Some(geography.to_string());
                actor
            });
        }
        d
    };
    on_every_engine(describe, |sim| {
        sim.run_for(Duration::from_secs(8));
        let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
        assert!(bdn_actor.registered(us).is_some(), "US broker accepted");
        assert!(bdn_actor.registered(uk).is_none(), "UK broker filtered out");
        assert!(bdn_actor.ads_filtered > 0);
    });
}

#[test]
fn private_bdn_announcement_triggers_readvertisement() {
    // §2.4: a private BDN advertises its services on the overlay and
    // brokers re-advertise to it.
    let (public_bdn, broker) = (NodeId(0), NodeId(1));
    let describe = || {
        let mut d = quiet(35);
        d.add("public-bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
        let (cfg, bdns) = (BrokerConfig::default(), vec![public_bdn]);
        d.add("broker".into(), RealmId(0), false, move || discovery_broker(cfg.clone(), bdns.clone()));
        d
    };
    on_every_engine(describe, |sim| {
        sim.run_for(Duration::from_secs(2));
        // The private BDN attaches to the broker and announces itself.
        let private_cfg = BdnConfig {
            attached_brokers: vec![broker],
            auto_attach: false,
            advertise_as_private: true,
            ..BdnConfig::default()
        };
        let private_bdn = sim.add_node("private-bdn", RealmId(0), Box::new(Bdn::new(private_cfg)));
        sim.run_for(Duration::from_secs(5));
        let broker_actor = sim.actor::<DiscoveryBrokerActor>(broker).unwrap();
        assert!(
            broker_actor.advertiser.discovered_bdns.contains(&private_bdn),
            "broker learned about the private BDN"
        );
        let private_actor = sim.actor::<Bdn>(private_bdn).unwrap();
        assert!(private_actor.registered(broker).is_some(), "broker re-advertised to the private BDN");
    });
}
