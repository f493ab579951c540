//! The pub/sub substrate at scale: routing correctness over larger and
//! randomly shaped overlays, advertisement dissemination over the
//! well-known topic, and private-BDN bootstrap (§2.3, §2.4).

use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, PubSubClient, Topology, TopologyKind};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{DiscoveryBrokerActor, ResponsePolicy};
use nb::net::{ClockProfile, LinkSpec, Sim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

fn quiet_sim(seed: u64) -> Sim {
    let mut sim = Sim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
    sim
}

fn build_overlay(sim: &mut Sim, topo: &Topology) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| ids[j]).collect();
        let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
        ids.push(sim.add_node(&format!("b{i}"), RealmId(0), Box::new(BrokerActor::new(cfg))));
    }
    ids
}

#[test]
fn exactly_once_delivery_across_a_random_overlay() {
    let mut sim = quiet_sim(31);
    let topo = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Topology::random(20, 6, &mut rng) // spanning tree + 6 chords (cycles!)
    };
    assert!(topo.is_connected());
    let brokers = build_overlay(&mut sim, &topo);

    // One subscriber per broker, one publisher at broker 0.
    let filter = TopicFilter::parse("telemetry/**").unwrap();
    let subs: Vec<NodeId> = brokers
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            sim.add_node(
                &format!("sub{i}"),
                RealmId(0),
                Box::new(PubSubClient::new(b, vec![filter.clone()])),
            )
        })
        .collect();
    let publisher =
        sim.add_node("pub", RealmId(0), Box::new(PubSubClient::new(brokers[0], vec![])));
    // Let links + subscription propagation settle across 20 brokers.
    sim.run_for(Duration::from_secs(5));

    for i in 0..10 {
        sim.actor_mut::<PubSubClient>(publisher)
            .unwrap()
            .queue_publish(Topic::parse("telemetry/cpu").unwrap(), vec![i]);
    }
    sim.run_for(Duration::from_secs(5));

    for (i, &sub) in subs.iter().enumerate() {
        let client = sim.actor::<PubSubClient>(sub).unwrap();
        assert_eq!(
            client.received.len(),
            10,
            "subscriber {i} must receive each event exactly once"
        );
    }
    // The chords created duplicate paths; dedup must have fired somewhere.
    let dupes: u64 = brokers
        .iter()
        .map(|&b| sim.actor::<BrokerActor>(b).unwrap().broker.duplicates_suppressed)
        .sum();
    assert!(dupes > 0, "cyclic overlay must exercise duplicate suppression");
}

/// One subscriber at the last broker of `topo`, one publisher at
/// broker 0: an event arrives, the subscriber unsubscribes, a second
/// event does not. Returns the deployment for what else a caller checks.
fn unsubscribe_stops_delivery(seed: u64, topo: &Topology) -> (Sim, Vec<NodeId>, NodeId) {
    let mut sim = quiet_sim(seed);
    let brokers = build_overlay(&mut sim, topo);
    let last = *brokers.last().unwrap();
    let filter = TopicFilter::parse("news/*").unwrap();
    let sub =
        sim.add_node("sub", RealmId(0), Box::new(PubSubClient::new(last, vec![filter.clone()])));
    let publisher =
        sim.add_node("pub", RealmId(0), Box::new(PubSubClient::new(brokers[0], vec![])));
    sim.run_for(Duration::from_secs(3));

    sim.actor_mut::<PubSubClient>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("news/world").unwrap(), vec![1]);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.actor::<PubSubClient>(sub).unwrap().received.len(), 1);

    // Unsubscribe: deliver a ClientUnsubscribe to the subscriber's broker
    // as if it came from the subscriber's connection.
    use nb::net::Incoming;
    use nb::wire::{Endpoint, Message};
    sim.inject(
        last,
        Duration::from_millis(5),
        Incoming::Stream {
            from: Endpoint::new(sub, nb::wire::addr::well_known::BROKER),
            to_port: nb::wire::addr::well_known::BROKER,
            msg: Message::ClientUnsubscribe { filter: filter.clone() }.into(),
        },
    );
    sim.run_for(Duration::from_secs(2));
    sim.actor_mut::<PubSubClient>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("news/world").unwrap(), vec![2]);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(
        sim.actor::<PubSubClient>(sub).unwrap().received.len(),
        1,
        "no delivery after unsubscribe"
    );
    (sim, brokers, publisher)
}

#[test]
fn unsubscribe_stops_delivery_overlay_wide() {
    unsubscribe_stops_delivery(32, &Topology::build(TopologyKind::Linear, 4));
}

/// On a cycle the per-neighbour split horizon reflects interest back:
/// each broker of a triangle advertises the filter to one neighbour on
/// behalf of the other, so after the only subscriber is gone all three
/// still hold it and still route every matching event to each other.
/// Pruning removes the duplicates of that traffic, not the traffic.
#[test]
#[ignore = "ROADMAP item 2: interest plane on cyclic overlays"]
fn unsubscribe_stops_delivery_on_a_triangle_too() {
    let (mut sim, brokers, publisher) =
        unsubscribe_stops_delivery(36, &Topology::build(TopologyKind::Ring, 3));
    for &b in &brokers {
        let held = sim.actor::<BrokerActor>(b).unwrap().broker.interest_filters();
        assert!(held.is_empty(), "{} still holds {held:?}", sim.node_name(b));
    }
    let routed = |sim: &Sim| -> u64 {
        brokers.iter().map(|&b| sim.actor::<BrokerActor>(b).unwrap().broker.events_routed).sum()
    };
    let before = routed(&sim);
    sim.actor_mut::<PubSubClient>(publisher)
        .unwrap()
        .queue_publish(Topic::parse("news/world").unwrap(), vec![3]);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(routed(&sim) - before, 1, "the ingress broker routes it; no link carries it");
}

#[test]
fn topic_based_advertisements_reach_a_bdn_attached_elsewhere() {
    // §2.3: a broker "might send this advertisement over a public topic …
    // which all BDNs within the substrate subscribe to". The BDN attaches
    // to broker A only; broker B's topic advertisement must still arrive
    // through the overlay.
    let mut sim = quiet_sim(33);
    let a = sim.add_node(
        "a",
        RealmId(0),
        Box::new(DiscoveryBrokerActor::new(
            BrokerConfig::default(),
            vec![], // no direct BDN registration!
            ResponsePolicy::open(),
        )),
    );
    let b = sim.add_node(
        "b",
        RealmId(0),
        Box::new(DiscoveryBrokerActor::new(
            BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() },
            vec![],
            ResponsePolicy::open(),
        )),
    );
    let bdn_cfg = BdnConfig {
        attached_brokers: vec![a],
        auto_attach: false,
        ..BdnConfig::default()
    };
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(bdn_cfg)));
    // Brokers re-advertise on ClockSynced (instant here) and every 120 s;
    // their start-up ads fired before the BDN subscribed, so wait for the
    // next periodic round.
    sim.run_for(Duration::from_secs(125));
    let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
    assert!(
        bdn_actor.registered(b).is_some(),
        "broker B advertised over the topic and through the overlay \
         (registry has {} brokers)",
        bdn_actor.registry_len()
    );
}

#[test]
fn geography_filtered_bdn_ignores_other_regions() {
    // §2.3: "a BDN in the US may be interested only in broker additions
    // in North America".
    let mut sim = quiet_sim(34);
    let bdn_cfg = BdnConfig {
        accept_geography: Some("USA".into()),
        auto_attach: false,
        ..BdnConfig::default()
    };
    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(bdn_cfg)));
    let mk = |name: &str, geography: &str, bdn| {
        let mut actor = DiscoveryBrokerActor::new(
            BrokerConfig { hostname: name.into(), ..BrokerConfig::default() },
            vec![bdn],
            ResponsePolicy::open(),
        );
        actor.advertiser.geography = Some(geography.to_string());
        Box::new(actor)
    };
    let us = sim.add_node("us", RealmId(1), mk("us.host", "Indianapolis, IN, USA", bdn));
    let uk = sim.add_node("uk", RealmId(2), mk("uk.host", "Cardiff, UK", bdn));
    sim.run_for(Duration::from_secs(8));
    let bdn_actor = sim.actor::<Bdn>(bdn).unwrap();
    assert!(bdn_actor.registered(us).is_some(), "US broker accepted");
    assert!(bdn_actor.registered(uk).is_none(), "UK broker filtered out");
    assert!(bdn_actor.ads_filtered > 0);
}

#[test]
fn private_bdn_announcement_triggers_readvertisement() {
    // §2.4: a private BDN advertises its services on the overlay and
    // brokers re-advertise to it.
    let mut sim = quiet_sim(35);
    let public_bdn =
        sim.add_node("public-bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));
    let broker = sim.add_node(
        "broker",
        RealmId(0),
        Box::new(DiscoveryBrokerActor::new(
            BrokerConfig::default(),
            vec![public_bdn],
            ResponsePolicy::open(),
        )),
    );
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
    assert!(
        private_actor.registered(broker).is_some(),
        "broker re-advertised to the private BDN"
    );
}
