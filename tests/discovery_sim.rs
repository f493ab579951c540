//! End-to-end discovery over the simulated WAN testbed: nearest-broker
//! selection, flood dissemination, dedup behaviour and idempotent
//! retransmission — the paper's core claims, §4–§6 and §8.

use std::time::Duration;

use nb::broker::{Broker, BrokerConfig, TopologyKind};
use nb::discovery::bdn::Bdn;
use nb::discovery::client::TIMER_START;
use nb::discovery::scenario::{Scenario, ScenarioBuilder};
use nb::discovery::{
    on_every_engine, BdnConfig, Deployment, DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, Network,
    ResponsePolicy,
};
use nb::net::wan::{BLOOMINGTON, CARDIFF, FSU, INDIANAPOLIS, NCSA, UMN};
use nb::net::{ClockProfile, DiscoveryEngine, FaultPlan, Incoming, LinkSpec};
use nb::util::Uuid;
use nb::wire::addr::well_known;
use nb::wire::topic::BDN_ADVERTISEMENT;
use nb::wire::{Bytes, Endpoint, Event, Message, NodeId, RealmId};

/// Runs `body` on the testbed `b` describes, on every engine.
fn on_every_engine_with<T>(
    b: &ScenarioBuilder,
    mut body: impl FnMut(Scenario<&mut dyn DiscoveryEngine>) -> T,
) -> Vec<T> {
    on_every_engine(|| b.describe(), |sim| body(b.clone().scenario(sim)))
}

#[test]
fn every_client_site_finds_a_nearby_broker() {
    // Advantage #1 (§8): "the broker will be connected to one of the
    // closest available brokers". With default weights the chosen broker
    // must be among the two nearest sites to the client.
    let wan = nb::net::wan::WanModel::paper();
    for (seed, client_site) in
        [(1u64, BLOOMINGTON), (2, FSU), (3, CARDIFF), (4, UMN), (5, NCSA)]
    {
        on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Star, client_site, seed), |mut s| {
            let outcome = s.run_discovery_once();
            let chosen_site = s.site_of_broker(outcome.chosen.expect("success")).unwrap();
            // Rank broker sites by distance from the client.
            let mut by_distance: Vec<usize> = vec![INDIANAPOLIS, UMN, NCSA, FSU, CARDIFF];
            by_distance.sort_by_key(|&b| wan.one_way(client_site, b));
            let rank = by_distance.iter().position(|&b| b == chosen_site).unwrap();
            assert!(
                rank <= 1,
                "client at {} chose {} (distance rank {rank})",
                wan.site(client_site).name,
                wan.site(chosen_site).name
            );
        });
    }
}

#[test]
fn star_flood_reaches_every_spoke_exactly_once() {
    on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 10), |mut s| {
        let routed = |s: &Scenario<&mut dyn DiscoveryEngine>, b| {
            s.sim.actor::<DiscoveryBrokerActor>(b).unwrap().broker.events_routed
        };
        let before: Vec<u64> = s.brokers.iter().map(|&b| routed(&s, b)).collect();
        let outcome = s.run_discovery_once();
        assert_eq!(outcome.responses_received, 5, "all five brokers respond");
        for (i, &broker) in s.brokers.iter().enumerate() {
            let actor = s.sim.actor::<DiscoveryBrokerActor>(broker).unwrap();
            assert_eq!(actor.responder.responses_sent, 1, "broker {i} must answer exactly once");
            // The BDN injects at every broker and the hub floods to
            // every spoke, all under the request's UUID: whatever copies
            // arrive, one passes the broker's cache.
            assert_eq!(routed(&s, broker) - before[i], 1, "broker {i} routed the request once");
        }
    });
}

#[test]
fn linear_chain_propagates_to_the_far_end() {
    on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Linear, BLOOMINGTON, 11), |mut s| {
        let outcome = s.run_discovery_once();
        // The last broker in the chain (Cardiff) is 4 hops from the
        // injection point; it must still have been reached.
        let last = *s.brokers.last().unwrap();
        let actor = s.sim.actor::<DiscoveryBrokerActor>(last).unwrap();
        assert_eq!(actor.responder.responses_sent, 1, "chain end answered");
        assert!(outcome.responses_received >= 4);
    });
}

#[test]
fn repeated_runs_are_deduplicated_not_reanswered() {
    // Each run uses a fresh UUID, so brokers answer each run once; the
    // dedup cache only suppresses *within* a run (multi-point injection).
    on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, 12), |mut s| {
        let runs = s.run_discovery(3);
        assert!(runs.iter().all(|o| o.chosen.is_some()));
        for &broker in &s.brokers {
            let actor = s.sim.actor::<DiscoveryBrokerActor>(broker).unwrap();
            assert_eq!(actor.responder.responses_sent, 3, "one response per run");
        }
    });
}

#[test]
fn lossy_bdn_path_is_survived_by_retransmission() {
    // §7: "the scheme outlined sustains loss of both the discovery
    // requests (retransmission after predefined period of inactivity)
    // and discovery responses".
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 13);
    builder.discovery.retransmits_per_bdn = 10;
    builder.discovery.ack_timeout = Duration::from_millis(300);
    on_every_engine_with(&builder, |mut s| {
        let (bdn, client) = (s.bdn.unwrap(), s.client);
        // Half of all datagrams between client and BDN vanish.
        let mut spec = s.sim.network().spec_between(client, bdn).unwrap();
        spec.loss = 0.5;
        s.sim.network_mut().set_link(client, bdn, spec);

        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some(), "discovery succeeds despite 50% loss to the BDN");
        let bdn_actor = s.sim.actor::<Bdn>(bdn).unwrap();
        assert_eq!(
            bdn_actor.requests_handled, 1,
            "retransmissions must be idempotent at the BDN (duplicates {})",
            bdn_actor.duplicate_requests
        );
    });
}

#[test]
fn a_request_retransmitted_to_the_same_bdn_floods_once() {
    // §3: retransmission is idempotent at the BDN. Its acks to the
    // client are cut, and the ack timeout (25 ms) is shorter than the
    // wait for the first response (an implicit ack, 45–62 ms here), so
    // the same request reaches the same BDN again: acked, counted, and
    // not injected a second time.
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 13);
    builder.discovery.retransmits_per_bdn = 10;
    builder.discovery.ack_timeout = Duration::from_millis(25);
    on_every_engine_with(&builder, |mut s| {
        let (bdn, client) = (s.bdn.unwrap(), s.client);
        let acks_lost =
            FaultPlan::new().one_way_flap_at(Duration::ZERO, bdn, client, Duration::from_secs(2));
        s.sim.apply_fault_plan(&acks_lost);
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some(), "discovery completes on responses alone");
        let bdn_actor = s.sim.actor::<Bdn>(bdn).unwrap();
        assert!(bdn_actor.duplicate_requests >= 1, "a retransmission reached the BDN");
        assert_eq!(bdn_actor.requests_handled, 1, "and was not handled a second time");
    });
}

#[test]
fn bdn_registry_learns_all_advertisers_and_measures_rtt() {
    on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, 14), |s| {
        // Warmup already ran; give the BDN another ping round.
        s.sim.run_for(Duration::from_secs(10));
        let bdn_actor = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
        assert_eq!(bdn_actor.registry_len(), 5, "all brokers registered");
        for &broker in &s.brokers {
            let reg = bdn_actor.registered(broker).expect("registered");
            let rtt = reg.rtt_us.expect("RTT measured by the BDN's ping loop");
            assert!(rtt > 0);
        }
    });
}

#[test]
fn outcome_reports_consistent_target_set_and_rtts() {
    on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Star, FSU, 15), |mut s| {
        let outcome = s.run_discovery_once();
        let chosen = outcome.chosen.unwrap();
        assert!(
            outcome.target_set.contains(&chosen),
            "the connected broker must come from the target set"
        );
        assert!(
            outcome.rtts_us.iter().any(|(b, _)| *b == chosen),
            "the chosen broker must have answered pings"
        );
        // RTTs only from target-set members.
        for (b, _) in &outcome.rtts_us {
            assert!(outcome.target_set.contains(b));
        }
    });
}

#[test]
fn deterministic_reproduction_under_a_seed() {
    let run = |seed| {
        on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Linear, BLOOMINGTON, seed), |mut s| {
            let o = s.run_discovery_once();
            (o.chosen, o.phases.total(), o.responses_received)
        })
    };
    assert_eq!(run(77), run(77), "same seed, same outcome");
}

#[test]
fn refused_connection_walks_down_the_target_set() {
    // The nearest broker is full: its one client slot holds the BDN's
    // connection, so it refuses the discovery client, which must walk
    // down the target set instead of failing (§6's "arrive at the target
    // broker" made robust).
    use nb::broker::MachineProfile;

    let wan = nb::net::wan::WanModel::paper();
    let broker_sites = [INDIANAPOLIS, UMN, NCSA];
    let (bdn, full, client) = (NodeId(0), NodeId(1), NodeId(4));
    let brokers = [NodeId(1), NodeId(2), NodeId(3)];
    let describe = || {
        let mut sites = vec![INDIANAPOLIS];
        sites.extend(broker_sites);
        sites.push(BLOOMINGTON);
        let mut d = Deployment {
            seed: 16,
            clock: ClockProfile::paper(),
            nodes: Vec::new(),
            network: Network::PaperSites { sites, loss_factor: 1.0 },
        };
        let attached_brokers = brokers.to_vec();
        let cfg = BdnConfig { attached_brokers, auto_attach: false, ..BdnConfig::default() };
        let realm = wan.site(INDIANAPOLIS).realm;
        d.add("bdn".into(), realm, false, move || Box::new(Bdn::new(cfg.clone())));
        for (i, &site) in broker_sites.iter().enumerate() {
            let site = wan.site(site);
            let cfg = BrokerConfig {
                hostname: site.host.to_string(),
                machine: MachineProfile::with_memory(site.total_memory),
                max_clients: (i == 0).then_some(1),
                ..BrokerConfig::default()
            };
            d.add(format!("broker-{i}"), site.realm, false, move || {
                Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open()))
            });
        }
        let discovery = DiscoveryConfig { bdns: vec![bdn], ..DiscoveryConfig::default() };
        d.add("client".into(), wan.site(BLOOMINGTON).realm, false, move || {
            Box::new(DiscoveryClient::new(discovery.clone()))
        });
        d
    };
    on_every_engine(describe, |sim| {
        sim.run_for(Duration::from_secs(30));
        let outcome = sim.actor::<DiscoveryClient>(client).unwrap().outcome().cloned();
        let outcome = outcome.expect("the client finished a discovery");
        assert!(outcome.target_set.contains(&full), "the full broker answered discovery");
        let chosen = outcome.chosen.expect("an alternative broker accepted");
        assert_ne!(chosen, full, "the saturated nearest broker was skipped");
        let full_actor = sim.actor::<DiscoveryBrokerActor>(full).unwrap();
        assert!(full_actor.broker.has_client(bdn), "the BDN holds the full broker's one slot");
        assert!(!full_actor.broker.has_client(client), "the full broker must not hold the client");
    });
}

#[test]
fn one_request_floods_once_however_many_brokers_it_is_injected_at() {
    // §4: the BDN injects a request at several brokers, and a broker drops
    // an event whose id it has seen, so the request makes one flood: over
    // a ring with chords, every broker routes it once and answers it once.

    const BROKERS: u32 = 6;
    let bdn = NodeId(0);
    let brokers: Vec<NodeId> = (1..=BROKERS).map(NodeId).collect();
    let client = NodeId(BROKERS + 1);
    // A ring b0–…–b5–b0 with chords b0–b3 and b1–b4; each broker dials
    // the neighbours added before it.
    let dials = |i: usize| -> Vec<usize> {
        match i {
            0 => vec![],
            3 => vec![2, 0],
            4 => vec![3, 1],
            5 => vec![4, 0],
            _ => vec![i - 1],
        }
    };
    let describe = || {
        let intra = LinkSpec::lan().with_loss(0.0);
        let inter = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
        let network = Network::Realms { intra, inter, wan: None };
        let mut d = Deployment { seed: 17, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
        let attached_brokers = vec![brokers[0], brokers[2], brokers[4]];
        let cfg = BdnConfig { attached_brokers, auto_attach: false, ..BdnConfig::default() };
        d.add("bdn".into(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        for i in 0..brokers.len() {
            let neighbors = dials(i).into_iter().map(|j| brokers[j]).collect();
            let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
            d.add(format!("b{i}"), RealmId(0), false, move || {
                Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open()))
            });
        }
        let discovery = DiscoveryConfig { bdns: vec![bdn], ..DiscoveryConfig::default() };
        d.add("client".into(), RealmId(0), false, move || {
            Box::new(DiscoveryClient::with_auto_start(discovery.clone(), false))
        });
        d
    };
    on_every_engine(describe, |sim| {
        // Warm up: links up, every broker registered with the BDN. The
        // brokers' next topic advertisement is due at 120 s, after the
        // window below.
        sim.run_for(Duration::from_secs(10));
        let counts = |sim: &dyn DiscoveryEngine| -> Vec<(u64, u64)> {
            brokers
                .iter()
                .map(|&b| {
                    let actor = sim.actor::<DiscoveryBrokerActor>(b).unwrap();
                    (actor.broker.events_routed, actor.responder.responses_sent)
                })
                .collect()
        };
        let before = counts(&*sim);
        sim.inject(client, Duration::ZERO, Incoming::Timer { token: TIMER_START });
        sim.run_for(Duration::from_secs(20));
        let outcome = sim.actor::<DiscoveryClient>(client).unwrap().outcome().cloned();
        let outcome = outcome.expect("the client finished its discovery");
        assert!(outcome.chosen.is_some(), "the discovery chose a broker");
        assert_eq!(sim.actor::<Bdn>(bdn).unwrap().requests_handled, 1);
        let grew: Vec<(u64, u64)> =
            counts(&*sim).iter().zip(&before).map(|(a, b)| (a.0 - b.0, a.1 - b.1)).collect();
        assert_eq!(
            grew,
            vec![(1, 1); brokers.len()],
            "(events routed, responses sent) per broker over one discovery"
        );
    });
}

/// The jitter-free ring b0–…–b5–b0 of DESIGN.md §18's request pruning:
/// the BDN [`RING_BDN`] injects each request at b0 and, 60 ms later, at
/// b3; [`RING_CLIENT`] discovers through it, collecting under
/// `discovery` (its `bdns` filled in).
fn pruned_ring(discovery: DiscoveryConfig) -> impl Fn() -> Deployment {
    move || {
        let intra = LinkSpec { jitter: Duration::ZERO, ..LinkSpec::lan() }.with_loss(0.0);
        let network = Network::Realms { intra, inter: intra, wan: None };
        let mut d = Deployment { seed: 19, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
        let brokers = ring_brokers();
        let attached_brokers = vec![brokers[0], brokers[3]];
        let cfg = BdnConfig { attached_brokers, auto_attach: false, ..BdnConfig::default() };
        d.add("bdn".into(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        for i in 0..brokers.len() {
            let neighbors = match i {
                0 => vec![],
                5 => vec![brokers[4], brokers[0]],
                _ => vec![brokers[i - 1]],
            };
            let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
            d.add(format!("b{i}"), RealmId(0), false, move || {
                Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![RING_BDN], ResponsePolicy::open()))
            });
        }
        let discovery = DiscoveryConfig { bdns: vec![RING_BDN], ..discovery.clone() };
        d.add("client".into(), RealmId(0), false, move || {
            Box::new(DiscoveryClient::with_auto_start(discovery.clone(), false))
        });
        d
    }
}

const RING_BDN: NodeId = NodeId(0);
const RING_CLIENT: NodeId = NodeId(7);

/// b0–b5 of [`pruned_ring`].
fn ring_brokers() -> Vec<NodeId> {
    (1..=6).map(NodeId).collect()
}

/// Each broker's answers so far, b0 first.
fn ring_answers(sim: &dyn DiscoveryEngine) -> Vec<u64> {
    let answered = |b| sim.actor::<DiscoveryBrokerActor>(b).unwrap().responder.responses_sent;
    ring_brokers().into_iter().map(answered).collect()
}

#[test]
fn a_pruned_request_flood_answers_once_everywhere_and_leaves_advertisements_alone() {
    // DESIGN.md §18: a discovery request prunes like any topic, with the
    // BDN that injected it as its publisher. The flood from b0 reaches
    // b3 long before the BDN's own injection there, both ways round, so
    // b3–b4 carries a copy each way and b3 gets the BDN's injection
    // late. The first request's duplicates make routes with no parent;
    // the second's name the parents and prune the b3–b4 link.
    let brokers = ring_brokers();
    let discovery = DiscoveryConfig { max_responses: 6, ..DiscoveryConfig::default() };
    on_every_engine(pruned_ring(discovery), |sim| {
        sim.run_for(Duration::from_secs(10));
        // (duplicates dropped, Prunes sent, Prunes received, events routed)
        // summed over the brokers.
        let totals = |sim: &dyn DiscoveryEngine| -> [u64; 4] {
            let of = |b: &Broker| [b.duplicates_suppressed, b.prunes_sent, b.prunes_received, b.events_routed];
            let each = brokers.iter().map(|&b| of(&sim.actor::<DiscoveryBrokerActor>(b).unwrap().broker));
            each.fold([0; 4], |acc, x| std::array::from_fn(|i| acc[i] + x[i]))
        };
        let request = |sim: &mut dyn DiscoveryEngine| -> [u64; 4] {
            let before = totals(sim);
            sim.inject(RING_CLIENT, Duration::ZERO, Incoming::Timer { token: TIMER_START });
            sim.run_for(Duration::from_millis(1200));
            std::array::from_fn(|i| totals(sim)[i] - before[i])
        };
        let [dups, prunes, ..] = request(sim);
        assert_eq!((dups, prunes), (3, 0), "first request: both ends of b3–b4 and b3's late injection");
        let [_, prunes, pruned, _] = request(sim);
        assert_eq!((prunes, pruned), (2, 2), "second request: b3–b4 pruned both ways, the BDN never");
        // While the mutes live (a lease, 6 s), a request crosses b3–b4 in
        // neither direction, and the one duplicate left is the BDN's own
        // injection at b3, which no broker answers with a `Prune`.
        for _ in 0..3 {
            assert_eq!(request(sim), [1, 0, 0, 6], "(dups, prunes, pruned, routed) a request");
        }
        assert_eq!(ring_answers(sim), [5; 6], "each broker answers each of the five requests once");
        let completed = sim.actor::<DiscoveryClient>(RING_CLIENT).unwrap().completed.len();
        assert_eq!(completed, 5, "every discovery finished");
        // The BDN's advertisement, injected at b0 by the same BDN, still
        // crosses b3–b4 both ways: a flood with nothing pruned.
        let before = totals(sim);
        let event = Event {
            id: Uuid::from_u128(0xAD),
            topic: BDN_ADVERTISEMENT.topic(),
            source: RING_BDN,
            payload: Bytes::new(),
        };
        let from = Endpoint::new(RING_BDN, well_known::BDN);
        let msg = Message::Publish(event).into();
        sim.inject(brokers[0], Duration::ZERO, Incoming::Stream { from, to_port: well_known::BROKER, msg });
        sim.run_for(Duration::from_millis(100));
        let grew: [u64; 4] = std::array::from_fn(|i| totals(sim)[i] - before[i]);
        assert_eq!(grew, [2, 0, 0, 6], "(dups, prunes, pruned, routed) for the advertisement");
    });
}

#[test]
fn a_pruned_request_flood_answers_once_across_a_crash() {
    // DESIGN.md §18 under a fault, on the ring above. Once the second
    // request has pruned b3–b4 both ways (b3 mutes it towards b4, b4
    // towards b3, for a lease), a broker crashes: b3, the upstream end
    // of the b3→b4 mute and the BDN's second injection point, or b5,
    // the parent through which b4 gets every request while b3 holds
    // that mute. Requests then go out every 1.5 s. No live broker may
    // answer a request twice, and each answers every request issued
    // more than a lease after the crash; inside the lease a broker may
    // miss one, and the test pins which. With b3 down nobody misses one:
    // the mute died with it. With b5 down, b4 misses the four requests
    // issued 0–4.5 s after the crash: b3's mute towards it, set by the
    // second request's `Prune`, lapses 6 s after that, one hop after the
    // fourth request reaches b3. A 1 s collection window ends each run
    // before the next starts, however many brokers answer.
    const LEASE: Duration = Duration::from_secs(6);
    let brokers = ring_brokers();
    let discovery = DiscoveryConfig {
        max_responses: 6,
        collection_window: Duration::from_secs(1),
        ..DiscoveryConfig::default()
    };
    for (victim, missed) in [(3, vec![]), (5, vec![4; 4])] {
        on_every_engine(pruned_ring(discovery.clone()), |sim| {
            sim.run_for(Duration::from_secs(10));
            // Issues one request and returns each broker's answers to it.
            let request = |sim: &mut dyn DiscoveryEngine| -> Vec<u64> {
                let before = ring_answers(sim);
                sim.inject(RING_CLIENT, Duration::ZERO, Incoming::Timer { token: TIMER_START });
                sim.run_for(Duration::from_millis(1500));
                ring_answers(sim).iter().zip(&before).map(|(after, before)| after - before).collect()
            };
            assert_eq!(request(sim), [1; 6]);
            assert_eq!(request(sim), [1; 6]);
            let prunes: u64 = brokers
                .iter()
                .map(|&b| sim.actor::<DiscoveryBrokerActor>(b).unwrap().broker.prunes_received)
                .sum();
            assert_eq!(prunes, 2, "b3–b4 is pruned both ways before the crash");
            sim.crash(brokers[victim]);
            let crashed_at = sim.now();
            let mut misses = Vec::new();
            for k in 0..10 {
                let issued = sim.now();
                let answers = request(sim);
                for (i, &n) in answers.iter().enumerate().filter(|&(i, _)| i != victim) {
                    assert!(n <= 1, "b{i} answered request {k} after the crash {n} times");
                    if n == 0 {
                        assert!(issued - crashed_at <= LEASE, "b{i} missed request {k}, a lease after the crash");
                        misses.push(i);
                    }
                }
                assert_eq!(answers[victim], 0, "the crashed b{victim} answered");
            }
            assert_eq!(misses, missed, "live brokers that missed a request inside the lease, b{victim} down");
            let completed = sim.actor::<DiscoveryClient>(RING_CLIENT).unwrap().completed.len();
            assert_eq!(completed, 12, "every discovery finished");
        });
    }
}
