//! Fault-tolerance paths of §7: dead BDNs, multicast fallback, the
//! cached target set after prolonged disconnects, broker churn and
//! policy-based refusals.

use std::time::Duration;

use nb::broker::TopologyKind;
use nb::discovery::bdn::Bdn;
use nb::discovery::scenario::{Scenario, ScenarioBuilder};
use nb::discovery::{on_every_engine, DiscoveryClient, Phase, ResponsePolicy};
use nb::net::wan::BLOOMINGTON;
use nb::net::{DiscoveryEngine, Incoming};
use nb::wire::{Credential, RealmId};

/// Runs `body` on the testbed `b` describes, on every engine.
fn on_every_engine_with(b: &ScenarioBuilder, mut body: impl FnMut(Scenario<&mut dyn DiscoveryEngine>)) {
    on_every_engine(|| b.describe(), |sim| body(b.clone().scenario(sim)));
}

fn fast_failover(builder: &mut ScenarioBuilder) {
    builder.discovery.ack_timeout = Duration::from_millis(400);
    builder.discovery.retransmits_per_bdn = 1;
}

/// A fast-failover builder whose discoveries give up quickly.
fn quick_to_fail(seed: u64) -> ScenarioBuilder {
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, seed);
    fast_failover(&mut builder);
    builder.discovery.collection_window = Duration::from_millis(800);
    builder.discovery.ping_window = Duration::from_millis(300);
    builder
}

#[test]
fn dead_bdn_falls_back_to_multicast() {
    // Lab brokers exist, so multicast can save the day.
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 21);
    builder.broker_sites = vec![BLOOMINGTON, BLOOMINGTON, 2, 3, 4];
    fast_failover(&mut builder);
    on_every_engine_with(&builder, |mut s| {
        s.sim.crash(s.bdn.unwrap());
        let outcome = s.run_discovery_once();
        assert!(outcome.used_multicast, "must have fallen back to multicast");
        let chosen = outcome.chosen.expect("a lab broker answers");
        assert_eq!(s.site_of_broker(chosen), Some(BLOOMINGTON));
    });
}

#[test]
fn dead_bdn_and_no_multicast_uses_cached_targets() {
    // §7: "if the requesting node is arriving after a prolonged
    // disconnect, and if none of the BDNs are available, the requesting
    // node can issue a broker request to one or more of the nodes in the
    // [remembered] target set".
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 22);
    fast_failover(&mut builder);
    // The client will not even try multicast; a healthy run uses the BDN
    // and never consults it.
    builder.discovery.multicast_enabled = false;
    on_every_engine_with(&builder, |mut s| {
        // First run (healthy): populates the cached target set.
        let first = s.run_discovery_once();
        assert!(first.chosen.is_some());
        assert!(!first.used_multicast);
        assert!(!first.target_set.is_empty());

        // Now the BDN dies and the network model delivers no multicast
        // either, forcing the cached path.
        s.sim.crash(s.bdn.unwrap());
        s.sim.network_mut().multicast_enabled = false;
        let client = s.sim.actor::<DiscoveryClient>(s.client).unwrap();
        assert_eq!(client.last_target_set, first.target_set, "target set remembered");
        let second = s.run_discovery_once();
        assert!(!second.used_multicast, "multicast is disabled and must not be attempted");
        assert!(second.used_cached_targets, "cached target set must be used");
        assert!(second.chosen.is_some(), "reconnection through remembered brokers succeeds");
        assert!(
            first.target_set.contains(&second.chosen.unwrap()),
            "the reconnect lands on a remembered broker"
        );
    });
}

#[test]
fn chosen_broker_crash_then_rediscovery_picks_another() {
    on_every_engine_with(&ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 23), |mut s| {
        let first = s.run_discovery_once();
        let victim = first.chosen.unwrap();
        s.sim.crash(victim);
        // Give the overlay time to notice the dead hub/spoke via heartbeats.
        s.sim.run_for(Duration::from_secs(15));
        let second = s.run_discovery_once();
        let survivor = second.chosen.expect("rediscovery succeeds");
        assert_ne!(survivor, victim, "a different broker is selected");
    });
}

#[test]
fn no_brokers_at_all_fails_cleanly() {
    let mut builder = quick_to_fail(24);
    builder.kind = TopologyKind::Unconnected;
    on_every_engine_with(&builder, |mut s| {
        for &b in &s.brokers {
            s.sim.crash(b);
        }
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_none(), "no broker can be discovered");
        let client = s.sim.actor::<DiscoveryClient>(s.client).expect("client");
        assert_eq!(client.phase(), Phase::Failed);
        assert!(outcome.used_multicast, "every fallback was attempted");
    });
}

#[test]
fn realm_policy_restricts_responses() {
    // §5/§7: "the policy may also dictate that responses be issued only
    // if the request originated from within a set of pre-defined network
    // realms". The client's realm is not on the list, so nothing answers.
    let mut builder = quick_to_fail(25);
    builder.policy = ResponsePolicy::realms(vec![RealmId(999)]);
    on_every_engine_with(&builder, |mut s| {
        let outcome = s.run_discovery_once();
        assert_eq!(outcome.responses_received, 0);
        assert!(outcome.chosen.is_none());
    });
}

#[test]
fn credential_policy_admits_the_right_principal() {
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 26);
    builder.policy = ResponsePolicy::principals(vec!["alice".into()]);
    builder.discovery.credentials =
        Some(Box::new(Credential { principal: "alice".into(), token: b"tok".to_vec() }));
    on_every_engine_with(&builder, |mut s| {
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some(), "credentialed client is served");
        assert_eq!(outcome.responses_received, 5);
    });
}

#[test]
fn credential_policy_rejects_the_wrong_principal() {
    let mut builder = quick_to_fail(27);
    builder.policy = ResponsePolicy::principals(vec!["alice".into()]);
    builder.discovery.credentials =
        Some(Box::new(Credential { principal: "mallory".into(), token: b"tok".to_vec() }));
    on_every_engine_with(&builder, |mut s| {
        let outcome = s.run_discovery_once();
        assert_eq!(outcome.responses_received, 0, "mallory gets no responses");
        assert!(outcome.chosen.is_none());
    });
}

#[test]
fn client_can_be_rerun_many_times_across_faults() {
    // A long life of one client: healthy runs, a BDN blip, recovery.
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 28);
    fast_failover(&mut builder);
    on_every_engine_with(&builder, |mut s| {
        let healthy = s.run_discovery(2);
        assert!(healthy.iter().all(|o| o.chosen.is_some()));

        let bdn = s.bdn.unwrap();
        s.sim.crash(bdn);
        let degraded = s.run_discovery_once();
        // Remote-only brokers: multicast finds nobody; cached targets save us.
        assert!(degraded.used_cached_targets || degraded.used_multicast);
        assert!(degraded.chosen.is_some());

        s.sim.revive(bdn);
        s.sim.run_for(Duration::from_secs(130)); // brokers re-advertise (120s period)
        let recovered = s.run_discovery_once();
        assert!(recovered.chosen.is_some());
        assert!(!recovered.used_cached_targets, "BDN path works again");
        let client = s.sim.actor::<DiscoveryClient>(s.client).unwrap();
        assert_eq!(client.completed.len(), 4);
        // Injecting a stray start while idle is harmless.
        let start = Incoming::Timer { token: nb::discovery::client::TIMER_START };
        s.sim.inject(s.client, Duration::from_millis(1), start);
        s.sim.run_for(Duration::from_secs(30));
    });
}

#[test]
fn private_bdn_refuses_to_disseminate_without_credentials() {
    // §2.4: "A private BDN must also require the presentation of
    // appropriate credentials before it decides whether it will
    // disseminate the broker discovery request." The uncredentialed
    // client is acked (receipt confirmation) but its request goes
    // nowhere; with no lab brokers, the multicast fallback also fails,
    // so the run ends with zero responses.
    let mut builder = quick_to_fail(29);
    builder.bdn.policy = ResponsePolicy::principals(vec!["alice".into()]);
    on_every_engine_with(&builder, |mut s| {
        let outcome = s.run_discovery_once();
        let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
        assert!(bdn.rejected_requests >= 1, "dissemination refused");
        assert_eq!(bdn.requests_handled, 0);
        assert_eq!(outcome.responses_received, 0);
        assert!(outcome.chosen.is_none());
    });

    // The same scenario with credentials sails through.
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 30);
    builder.bdn.policy = ResponsePolicy::principals(vec!["alice".into()]);
    builder.discovery.credentials =
        Some(Box::new(Credential { principal: "alice".into(), token: vec![] }));
    on_every_engine_with(&builder, |mut s| {
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some());
        let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
        assert_eq!(bdn.requests_handled, 1);
    });
}

#[test]
fn bdn_registry_expires_dead_brokers() {
    // §1.2's fluid environment: a broker that stops re-advertising drops
    // out of the registry, so later discoveries are not steered at a
    // ghost.
    let mut builder = ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, 31);
    builder.bdn.ad_ttl = Duration::from_secs(150); // one missed 120s re-ad
    on_every_engine_with(&builder, |mut s| {
        let victim = s.brokers[4]; // Cardiff
        s.sim.crash(victim);
        // Over ~3 re-advertisement periods the survivors refresh while the
        // victim's entry ages out.
        s.sim.run_for(Duration::from_secs(400));
        let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
        assert!(bdn.registered(victim).is_none(), "dead broker expired from the registry");
        assert_eq!(bdn.registry_len(), 4, "survivors remain registered");
        assert!(bdn.ads_expired >= 1);
        // Discovery still succeeds against the four survivors.
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some());
        assert!(outcome.responses_received >= 3);
    });
}

#[test]
fn bdn_skips_stale_lease_targets_between_pings() {
    // The lease gate must hold even before the ping timer prunes the
    // registry: a broker whose advertisement lease lapsed is never an
    // injection target, so no discovery is ever steered at it.
    let mut builder = ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, 35);
    builder.bdn.ad_ttl = Duration::from_secs(150); // one missed 120s re-ad
    builder.bdn.ping_interval = Duration::from_secs(100_000); // pruning never runs
    on_every_engine_with(&builder, |mut s| {
        let victim = s.brokers[4]; // Cardiff
        s.sim.crash(victim);
        s.sim.run_for(Duration::from_secs(200)); // the victim's lease lapses
        {
            let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
            assert!(bdn.registered(victim).is_some(), "entry still present (no pruning)");
            assert!(!bdn.lease_valid(victim, s.sim.now()), "but its lease has lapsed");
        }
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some(), "survivors still serve the request");
        assert_ne!(outcome.chosen, Some(victim));
        let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
        assert!(bdn.stale_targets_skipped >= 1, "the expired lease was skipped at injection time");
    });
}

#[test]
fn client_fails_over_to_the_second_bdn() {
    // §3: the node configuration file lists several BDNs
    // (gridservicelocator.org/.com/…); when the first is down the client's
    // next send, round-robin down the list, reaches the second.
    use nb::broker::{BrokerConfig, MachineProfile};
    use nb::discovery::bdn::BdnConfig;
    use nb::discovery::{Deployment, DiscoveryBrokerActor, DiscoveryConfig, Network};
    use nb::net::{ClockProfile, LinkSpec};
    use nb::wire::NodeId;

    let (bdn_org, bdn_com, client) = (NodeId(0), NodeId(1), NodeId(3));
    let describe = || {
        let intra = LinkSpec::lan().with_loss(0.0);
        let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(40)), wan: None };
        let mut d = Deployment { seed: 33, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
        for name in ["bdn.org", "bdn.com"] {
            d.add(name.into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
        }
        let cfg = BrokerConfig {
            hostname: "b0".into(),
            machine: MachineProfile::default_2005(),
            ..BrokerConfig::default()
        };
        d.add("b0".into(), RealmId(0), false, move || {
            // Registers with both (§2.1).
            Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![bdn_org, bdn_com], ResponsePolicy::open()))
        });
        let cfg = DiscoveryConfig {
            bdns: vec![bdn_org, bdn_com],
            max_responses: 1,
            collection_window: Duration::from_millis(800),
            ping_window: Duration::from_millis(300),
            ack_timeout: Duration::from_millis(300),
            retransmits_per_bdn: 1,
            ..DiscoveryConfig::default()
        };
        d.add("client".into(), RealmId(0), false, move || {
            Box::new(DiscoveryClient::with_auto_start(cfg.clone(), true))
        });
        d
    };
    on_every_engine(describe, |sim| {
        sim.crash(bdn_org);
        sim.run_for(Duration::from_secs(10));
        let c = sim.actor::<DiscoveryClient>(client).unwrap();
        let outcome = c.outcome().expect("completed");
        assert!(outcome.chosen.is_some(), "the second BDN served the request");
        assert_eq!(outcome.bdn_used, Some(bdn_com), "failover landed on bdn.com");
        assert!(!outcome.used_multicast, "no need for the multicast fallback");
        let com = sim.actor::<Bdn>(bdn_com).unwrap();
        assert_eq!(com.requests_handled, 1);
    });
}
