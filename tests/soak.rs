//! Soak test: a large, churning deployment end to end. 30 brokers on a
//! random overlay, a BDN, 12 entities publishing and subscribing, five
//! broker crashes mid-run — every surviving entity must end attached and
//! still receiving events.

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile, Topology};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{
    at_one_and_four_workers, Deployment, DiscoveryBrokerActor, DiscoveryConfig, Entity, Network, ResponsePolicy,
};
use nb::net::{ClockProfile, Fault, LinkSpec, ShardedSim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const N_BROKERS: usize = 30;
const N_ENTITIES: usize = 12;

fn entity(sim: &ShardedSim, e: NodeId) -> &Entity {
    sim.actor::<Entity>(e).unwrap()
}

#[test]
fn large_churning_overlay_keeps_every_entity_attached() {
    // Random connected overlay with some chords, brokers spread over 3
    // realms.
    let topo = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Topology::random(N_BROKERS, 8, &mut rng)
    };
    let bdn = NodeId(0);
    let brokers: Vec<NodeId> = (1..=N_BROKERS as u32).map(NodeId).collect();
    let entities: Vec<NodeId> = (0..N_ENTITIES as u32).map(|i| NodeId(1 + N_BROKERS as u32 + i)).collect();
    let describe = || {
        let intra = LinkSpec::lan().with_loss(0.0005);
        let inter = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.001);
        let network = Network::Realms { intra, inter, wan: None };
        let mut d = Deployment { seed: 2005, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
        d.add("bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
        for (i, dials) in topo.dial_lists().into_iter().enumerate() {
            let cfg = BrokerConfig {
                hostname: format!("b{i}"),
                machine: MachineProfile::default_2005(),
                neighbors: dials.iter().map(|&j| brokers[j]).collect(),
                ..BrokerConfig::default()
            };
            d.add(format!("b{i}"), RealmId((i % 3) as u16), false, move || {
                Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open()))
            });
        }
        let cfg = DiscoveryConfig {
            bdns: vec![bdn],
            collection_window: Duration::from_millis(1500),
            max_responses: 10,
            target_set_size: 5,
            ping_window: Duration::from_millis(500),
            ack_timeout: Duration::from_millis(600),
            ..DiscoveryConfig::default()
        };
        let filter = TopicFilter::parse("soak/**").unwrap();
        for i in 0..N_ENTITIES {
            let (cfg, filter) = (cfg.clone(), filter.clone());
            d.add(format!("e{i}"), RealmId((i % 3) as u16), false, move || {
                Box::new(Entity::new(cfg.clone(), vec![filter.clone()]))
            });
        }
        d
    };

    // Whether the brokers outside `dead` are still one component (links
    // are not self-healing).
    let connected_without = |dead: &[NodeId]| -> bool {
        let alive = |i: usize| !dead.contains(&brokers[i]);
        let Some(start) = (0..N_BROKERS).find(|&i| alive(i)) else { return true };
        let mut seen = [false; N_BROKERS];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(i) = stack.pop() {
            for nb in topo.neighbors(i) {
                if !seen[nb] && alive(nb) {
                    seen[nb] = true;
                    stack.push(nb);
                }
            }
        }
        (0..N_BROKERS).all(|i| seen[i] || !alive(i))
    };

    at_one_and_four_workers(describe, |sim| {
        // Everyone discovers and attaches.
        sim.run_for(Duration::from_secs(10));
        for &e in &entities {
            assert!(entity(sim, e).broker().is_some(), "{} attached", sim.node_name(e));
        }

        // A round of traffic: entity 0 publishes, all others receive.
        let round = |sim: &mut ShardedSim, n: u8| {
            let topic = Topic::parse(&format!("soak/round/{n}")).unwrap();
            sim.actor_mut::<Entity>(entities[0]).unwrap().queue_publish(topic, vec![n]);
        };
        round(sim, 1);
        sim.run_for(Duration::from_secs(5));
        for &e in &entities[1..] {
            assert_eq!(entity(sim, e).received.len(), 1, "{} got round 1", sim.node_name(e));
        }

        // Crash five brokers, brokers that entities are attached to
        // first — but only ones the surviving overlay stays connected
        // without, so that wherever the entities re-attach, round 2
        // below has subscribers to reach: which component the publisher
        // lands in is not left to the seed.
        let attached = entities.iter().filter_map(|&e| entity(sim, e).broker());
        let candidates: Vec<NodeId> = attached.chain(brokers.iter().copied()).collect();
        let mut victims: Vec<NodeId> = Vec::new();
        for candidate in candidates {
            if victims.len() == 5 || victims.contains(&candidate) {
                continue;
            }
            victims.push(candidate);
            if !connected_without(&victims) {
                victims.pop();
            }
        }
        assert_eq!(victims.len(), 5);
        let bereft = entities.iter().filter(|&&e| victims.contains(&entity(sim, e).broker().unwrap())).count();
        assert!(bereft >= 3, "the crashes must take some entities' brokers");
        for &v in &victims {
            sim.apply_fault(Fault::Crash { node: v });
        }
        // Let heartbeats tear down links, keepalives notice, entities
        // rediscover, and the BDN expire nothing yet (TTL 300s).
        sim.run_for(Duration::from_secs(60));

        for &e in &entities {
            let broker = entity(sim, e).broker().unwrap_or_else(|| {
                panic!("{} must be reattached, state {:?}", sim.node_name(e), entity(sim, e).state())
            });
            assert!(!victims.contains(&broker), "{} attached to a corpse", sim.node_name(e));
        }

        // A second round of traffic must reach every entity: by the
        // choice of victims the survivors are one component.
        round(sim, 2);
        sim.run_for(Duration::from_secs(8));
        for &e in &entities[1..] {
            assert_eq!(entity(sim, e).received.len(), 2, "{} must get round 2", sim.node_name(e));
        }

        // Sanity on the system's bookkeeping.
        let stats = sim.stats();
        assert!(stats.datagrams_delivered > 100);
        assert!(stats.stream_delivered > 100);
        assert!(stats.dropped_node_down > 0, "crashes produced drops");
    });
}
