//! Overlay self-healing: a partitioned broker rediscovers its way back
//! into the network (§8.3's "incorporation of brokers" applied to
//! partition repair).

use std::time::Duration;

use nb::broker::BrokerConfig;
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{on_every_engine, Deployment, DiscoveryConfig, Entity, JoiningBroker, Network, ResponsePolicy};
use nb::net::{Actor, ClockProfile, LinkSpec};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const BDN: NodeId = NodeId(0);
const ANCHOR: NodeId = NodeId(1);

fn discovery_cfg() -> DiscoveryConfig {
    DiscoveryConfig {
        bdns: vec![BDN],
        collection_window: Duration::from_millis(1200),
        max_responses: 3,
        ping_window: Duration::from_millis(400),
        ack_timeout: Duration::from_millis(500),
        ..DiscoveryConfig::default()
    }
}

/// A broker named `name` that joins the overlay by discovery.
fn joining(name: &str, cfg: DiscoveryConfig) -> Box<dyn Actor> {
    let broker = BrokerConfig { hostname: name.to_string(), ..BrokerConfig::default() };
    Box::new(JoiningBroker::new(broker, vec![BDN], ResponsePolicy::open(), cfg))
}

/// A lossless LAN holding [`BDN`] and [`ANCHOR`], a joining broker.
fn bdn_and_anchor(seed: u64) -> impl Fn() -> Deployment {
    move || {
        let intra = LinkSpec::lan().with_loss(0.0);
        let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(40)), wan: None };
        let mut d = Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
        d.add("bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
        d.add("anchor".into(), RealmId(0), false, move || joining("anchor", discovery_cfg()));
        d
    }
}

#[test]
fn partitioned_brokers_relink_through_discovery() {
    // A chain built from joining brokers: anchor <- mid <- edge. Each
    // joins by discovery, so the chain assembles itself.
    on_every_engine(bdn_and_anchor(91), |sim| {
        sim.run_for(Duration::from_secs(2));
        let mid = sim.add_node("mid", RealmId(0), joining("mid", discovery_cfg()));
        sim.run_for(Duration::from_secs(6));
        let edge = sim.add_node("edge", RealmId(0), joining("edge", discovery_cfg()));
        sim.run_for(Duration::from_secs(8));

        // All three are in one component (each joined *somebody*).
        for (n, label) in [(mid, "mid"), (edge, "edge")] {
            assert!(sim.actor::<JoiningBroker>(n).unwrap().joined(), "{label} joined");
        }

        // Find a broker whose death would hurt, and kill it: crash
        // whichever broker `edge` is linked to (its only connection if
        // the chain formed linearly). If edge linked straight to anchor,
        // crash anchor instead.
        let edge_peer = sim.actor::<JoiningBroker>(edge).unwrap().joined_to.unwrap();
        sim.crash(edge_peer);
        // Heartbeats (2s × 3) notice, the heal timer (5s) fires,
        // discovery runs against the survivors.
        sim.run_for(Duration::from_secs(40));

        let survivors: Vec<NodeId> = [ANCHOR, mid, edge].into_iter().filter(|&n| n != edge_peer).collect();
        assert_eq!(survivors.len(), 2);
        let healer = sim.actor::<JoiningBroker>(edge).unwrap();
        assert!(healer.heals >= 1, "edge must have healed (heals = {})", healer.heals);
        let links = healer.inner.broker.num_links();
        assert!(links >= 1, "edge re-linked (links = {links})");
        let new_peer = healer.joined_to.expect("rejoined");
        assert_ne!(new_peer, edge_peer, "not the corpse");

        // Pub/sub works across the healed overlay: a client on each survivor.
        let filter = TopicFilter::parse("healed/**").unwrap();
        let sub = sim.add_node("sub", RealmId(0), Box::new(Entity::of_broker(survivors[0], vec![filter])));
        let publisher = sim.add_node("pub", RealmId(0), Box::new(Entity::of_broker(survivors[1], vec![])));
        sim.run_for(Duration::from_secs(2));
        let client = sim.actor_mut::<Entity>(publisher).unwrap();
        client.queue_publish(Topic::parse("healed/ok").unwrap(), vec![1]);
        sim.run_for(Duration::from_secs(3));
        let sub = sim.actor::<Entity>(sub).unwrap();
        let arrived = sub.received.len() + sub.duplicates_dropped as usize;
        assert_eq!(arrived, 1, "traffic flows across the healed link, once");
    });
}

#[test]
fn healing_survives_a_failed_attempt() {
    // Regression: a heal attempt that fails (every path down) must not
    // permanently disable healing — once the infrastructure returns, the
    // broker re-links.
    on_every_engine(bdn_and_anchor(92), |sim| {
        sim.run_for(Duration::from_secs(2));
        let mut cfg = discovery_cfg();
        cfg.ack_timeout = Duration::from_millis(300);
        cfg.retransmits_per_bdn = 1;
        cfg.collection_window = Duration::from_millis(600);
        cfg.ping_window = Duration::from_millis(300);
        let edge = sim.add_node("edge", RealmId(0), joining("edge", cfg));
        sim.run_for(Duration::from_secs(6));
        assert!(sim.actor::<JoiningBroker>(edge).unwrap().joined(), "initial join");

        // Total blackout: both the anchor and the BDN die. The edge's
        // heal attempts all fail.
        sim.crash(ANCHOR);
        sim.crash(BDN);
        sim.run_for(Duration::from_secs(60));
        let e = sim.actor::<JoiningBroker>(edge).unwrap();
        assert!(e.heals >= 1, "healing attempted during the blackout");
        assert!(!e.joined(), "nothing to join during the blackout");

        // The infrastructure returns; a later heal round must succeed.
        sim.revive(ANCHOR);
        sim.revive(BDN);
        sim.run_for(Duration::from_secs(180)); // re-advertisement (120s) + heal ticks
        let e = sim.actor::<JoiningBroker>(edge).unwrap();
        assert!(
            e.joined(),
            "healing must recover after a failed attempt (heals = {}, finder {:?})",
            e.heals,
            e.finder().phase()
        );
        assert!(e.inner.broker.num_links() >= 1);
    });
}
