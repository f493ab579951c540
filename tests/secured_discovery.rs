//! The secured discovery path of §9.1: signed + encrypted discovery
//! requests between client and BDN, and the failure modes when trust is
//! misconfigured.

use std::time::Duration;

use nb::broker::TopologyKind;
use nb::discovery::bdn::Bdn;
use nb::discovery::config::SecuritySuite;
use nb::discovery::scenario::ScenarioBuilder;
use nb::net::wan::BLOOMINGTON;
use nb::security::{Authority, Identity};

use rand::rngs::StdRng;
use rand::SeedableRng;

struct Pki {
    ca: Authority,
    client: Identity,
    bdn: Identity,
}

fn pki(seed: u64) -> Pki {
    let mut rng = StdRng::seed_from_u64(seed);
    // Validity window covering the simulation's 2005-era UTC timestamps.
    let ca = Authority::new_root("GridServiceLocator Root CA", 0, u64::MAX, &mut rng);
    let client = Identity::issued_by("discovery-client", &ca, &mut rng);
    let bdn = Identity::issued_by("gridservicelocator.org", &ca, &mut rng);
    Pki { ca, client, bdn }
}

#[test]
fn secured_request_is_opened_and_served() {
    let p = pki(1);
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 51);
    builder.discovery.security = Some(Box::new(SecuritySuite {
        identity: p.client.clone(),
        trust_root: p.ca.root_cert.clone(),
        peer_public: p.bdn.public(),
    }));
    builder.bdn.security = Some(Box::new(SecuritySuite {
        identity: p.bdn.clone(),
        trust_root: p.ca.root_cert.clone(),
        peer_public: p.client.public(), // unused on the BDN side
    }));
    let mut s = builder.build();
    let outcome = s.run_discovery_once();
    assert!(outcome.chosen.is_some(), "secured discovery succeeds");
    assert!(!outcome.used_multicast);
    let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
    assert_eq!(bdn.secured_requests, 1, "the BDN opened exactly one envelope");
    assert_eq!(bdn.rejected_envelopes, 0);
}

#[test]
fn untrusted_client_falls_back_to_multicast() {
    // The client's certificate chains to a rogue CA the BDN does not
    // trust: every envelope is rejected, no ack ever comes, and the
    // client's §7 fallback machinery kicks in.
    let p = pki(2);
    let mut rng = StdRng::seed_from_u64(3);
    let rogue_ca = Authority::new_root("Rogue CA", 0, u64::MAX, &mut rng);
    let rogue_client = Identity::issued_by("mallory", &rogue_ca, &mut rng);

    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 52);
    // Put one broker in the lab realm so the multicast fallback has
    // something to find.
    builder.broker_sites = vec![BLOOMINGTON, 2, 3, 4, 5];
    builder.discovery.ack_timeout = Duration::from_millis(400);
    builder.discovery.retransmits_per_bdn = 1;
    builder.discovery.security = Some(Box::new(SecuritySuite {
        identity: rogue_client,
        trust_root: rogue_ca.root_cert.clone(),
        peer_public: p.bdn.public(),
    }));
    builder.bdn.security = Some(Box::new(SecuritySuite {
        identity: p.bdn.clone(),
        trust_root: p.ca.root_cert.clone(),
        peer_public: p.client.public(),
    }));
    let mut s = builder.build();
    let outcome = s.run_discovery_once();
    let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
    assert!(bdn.rejected_envelopes >= 2, "every (re)transmission was rejected");
    assert_eq!(bdn.secured_requests, 0);
    assert!(outcome.used_multicast, "the client fell back to multicast");
    assert_eq!(
        s.site_of_broker(outcome.chosen.expect("lab broker answers")),
        Some(BLOOMINGTON)
    );
}

#[test]
fn unsecured_bdn_drops_secured_requests() {
    // Client speaks envelopes to a BDN with no security configured: the
    // BDN cannot open them and discovery proceeds via fallback.
    let p = pki(4);
    let mut builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 53);
    builder.broker_sites = vec![BLOOMINGTON, BLOOMINGTON, 3, 4, 5];
    builder.discovery.ack_timeout = Duration::from_millis(400);
    builder.discovery.retransmits_per_bdn = 1;
    builder.discovery.security = Some(Box::new(SecuritySuite {
        identity: p.client.clone(),
        trust_root: p.ca.root_cert.clone(),
        peer_public: p.bdn.public(),
    }));
    // builder.bdn.security stays None.
    let mut s = builder.build();
    let outcome = s.run_discovery_once();
    let bdn = s.sim.actor::<Bdn>(s.bdn.unwrap()).unwrap();
    assert!(bdn.rejected_envelopes > 0);
    assert!(outcome.used_multicast);
    assert!(outcome.chosen.is_some());
}
