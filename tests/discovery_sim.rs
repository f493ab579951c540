//! End-to-end discovery over the simulated WAN testbed: nearest-broker
//! selection, flood dissemination, dedup behaviour and idempotent
//! retransmission — the paper's core claims, §4–§6 and §8.

use std::time::Duration;

use nb::broker::TopologyKind;
use nb::discovery::bdn::Bdn;
use nb::discovery::scenario::{Scenario, ScenarioBuilder};
use nb::discovery::{on_every_engine, DiscoveryBrokerActor};
use nb::net::wan::{BLOOMINGTON, CARDIFF, FSU, INDIANAPOLIS, NCSA, UMN};
use nb::net::DiscoveryEngine;

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
        let outcome = s.run_discovery_once();
        assert_eq!(outcome.responses_received, 5, "all five brokers respond");
        for (i, &broker) in s.brokers.iter().enumerate() {
            let actor = s.sim.actor::<DiscoveryBrokerActor>(broker).unwrap();
            assert_eq!(actor.responder.responses_sent, 1, "broker {i} must answer exactly once");
            assert_eq!(actor.responder.duplicates_suppressed, 0, "no duplicate requests in a tree");
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
        assert!(
            bdn_actor.duplicate_requests > 0 || bdn_actor.requests_handled == 1,
            "retransmissions must be idempotent at the BDN \
             (handled {}, duplicates {})",
            bdn_actor.requests_handled,
            bdn_actor.duplicate_requests
        );
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
    use nb::broker::{BrokerConfig, MachineProfile};
    use nb::discovery::{BdnConfig, Deployment, DiscoveryClient, DiscoveryConfig, Network};
    use nb::discovery::ResponsePolicy;
    use nb::net::ClockProfile;
    use nb::wire::NodeId;

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
