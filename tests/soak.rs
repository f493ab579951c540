//! Soak test: a large, churning deployment end to end. 30 brokers on a
//! random overlay, a BDN, 12 entities publishing and subscribing, five
//! broker crashes mid-run — every surviving entity must end attached and
//! still receiving events.

use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile, Topology};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::{DiscoveryBrokerActor, DiscoveryConfig, Entity, ResponsePolicy};
use nb::net::{ClockProfile, LinkSpec, Sim};
use nb::wire::{NodeId, RealmId, Topic, TopicFilter};

const N_BROKERS: usize = 30;
const N_ENTITIES: usize = 12;

#[test]
fn large_churning_overlay_keeps_every_entity_attached() {
    let mut sim = Sim::with_clock_profile(2005, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0005);
    sim.network_mut().inter_realm_spec =
        LinkSpec::wan(Duration::from_millis(10)).with_loss(0.001);

    let bdn = sim.add_node("bdn", RealmId(0), Box::new(Bdn::new(BdnConfig::default())));

    // Random connected overlay with some chords, brokers spread over 3
    // realms.
    let topo = {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        Topology::random(N_BROKERS, 8, &mut rng)
    };
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig {
            hostname: format!("b{i}"),
            machine: MachineProfile::default_2005(),
            neighbors,
            ..BrokerConfig::default()
        };
        let actor = DiscoveryBrokerActor::new(cfg, vec![bdn], ResponsePolicy::open());
        brokers.push(sim.add_node(
            &format!("b{i}"),
            RealmId((i % 3) as u16),
            Box::new(actor),
        ));
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
    let entities: Vec<NodeId> = (0..N_ENTITIES)
        .map(|i| {
            sim.add_node(
                &format!("e{i}"),
                RealmId((i % 3) as u16),
                Box::new(Entity::new(cfg.clone(), vec![filter.clone()])),
            )
        })
        .collect();

    // Everyone discovers and attaches.
    sim.run_for(Duration::from_secs(10));
    for &e in &entities {
        assert!(
            sim.actor::<Entity>(e).unwrap().broker().is_some(),
            "{} attached",
            sim.node_name(e)
        );
    }

    // A round of traffic: entity 0 publishes, all others receive.
    sim.actor_mut::<Entity>(entities[0])
        .unwrap()
        .queue_publish(Topic::parse("soak/round/1").unwrap(), vec![1]);
    sim.run_for(Duration::from_secs(5));
    for &e in &entities[1..] {
        assert_eq!(
            sim.actor::<Entity>(e).unwrap().received.len(),
            1,
            "{} got round 1",
            sim.node_name(e)
        );
    }

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

    // Crash five brokers, brokers that entities are attached to first —
    // but only ones the surviving overlay stays connected without, so
    // that wherever the entities re-attach, round 2 below has
    // subscribers to reach: which component the publisher lands in is
    // not left to the seed.
    let attached = entities.iter().filter_map(|&e| sim.actor::<Entity>(e).unwrap().broker());
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
    let bereft = entities
        .iter()
        .filter(|&&e| victims.contains(&sim.actor::<Entity>(e).unwrap().broker().unwrap()))
        .count();
    assert!(bereft >= 3, "the crashes must take some entities' brokers");
    for &v in &victims {
        sim.crash(v);
    }
    // Let heartbeats tear down links, keepalives notice, entities
    // rediscover, and the BDN expire nothing yet (TTL 300s).
    sim.run_for(Duration::from_secs(60));

    for &e in &entities {
        let entity = sim.actor::<Entity>(e).unwrap();
        let broker = entity.broker().unwrap_or_else(|| {
            panic!("{} must be reattached, state {:?}", sim.node_name(e), entity.state())
        });
        assert!(!victims.contains(&broker), "{} attached to a corpse", sim.node_name(e));
    }

    // A second round of traffic must reach every entity: by the choice
    // of victims the survivors are one component.
    sim.actor_mut::<Entity>(entities[0])
        .unwrap()
        .queue_publish(Topic::parse("soak/round/2").unwrap(), vec![2]);
    sim.run_for(Duration::from_secs(8));
    for &e in &entities[1..] {
        let got = sim.actor::<Entity>(e).unwrap().received.len();
        assert_eq!(got, 2, "{} must get round 2", sim.node_name(e));
    }

    // Sanity on the system's bookkeeping.
    let stats = sim.stats();
    assert!(stats.datagrams_delivered > 100);
    assert!(stats.stream_delivered > 100);
    assert!(stats.dropped_node_down > 0, "crashes produced drops");
}
