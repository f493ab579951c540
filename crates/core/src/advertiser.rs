//! Broker advertisement dissemination.
//!
//! Paper §2: brokers "advertise and register their presence with one or
//! more of these BDNs" — either **directly** (the BDNs listed in the
//! broker's configuration file) or by publishing on the well-known
//! **advertisement topic** all BDNs subscribe to. Advertisements may be
//! lost (§7), so they are re-issued periodically. When a **private BDN**
//! announces itself on the BDN-advertisement topic (§2.4), brokers may
//! re-advertise to it.

use std::time::Duration;

use nb_broker::Broker;
use nb_wire::addr::well_known;
use nb_wire::topic::BROKER_ADVERTISEMENT;
use nb_wire::{BrokerAdvertisement, Endpoint, Message, NodeId, Topic, Wire, WireMsg};

use nb_net::{Context, Incoming};

use crate::responder::Responder;

const TIMER_READVERTISE: u64 = 0xAD00_0000_0000_0001;
/// The re-advertisement period a broker starts with.
const READVERTISE: Duration = Duration::from_secs(120);

/// The advertisement service embedded in a discovery-enabled broker.
#[derive(Debug)]
pub struct Advertiser {
    /// BDNs advertised to directly (from the broker configuration file).
    bdns: Vec<NodeId>,
    /// The well-known advertisement topic every advertisement is also
    /// published on (a clone of nb-wire's process-wide value).
    topic: Topic,
    /// Re-advertisement period (ads are fire-and-forget and can be lost).
    readvertise: Duration,
    /// Optional geographical information for the advertisement.
    pub geography: Option<String>,
    /// Optional institutional information.
    pub institution: Option<String>,
    /// Advertisements issued (direct sends + topic publishes).
    pub ads_sent: u64,
    /// Private BDNs discovered at runtime via BDN advertisements.
    pub discovered_bdns: Vec<NodeId>,
}

impl Advertiser {
    /// Advertises to `bdns` directly and on the advertisement topic,
    /// every 120 s until [`Advertiser::set_readvertise`] says otherwise.
    pub fn new(bdns: Vec<NodeId>) -> Advertiser {
        Advertiser {
            bdns,
            topic: BROKER_ADVERTISEMENT.topic(),
            readvertise: READVERTISE,
            geography: None,
            institution: None,
            ads_sent: 0,
            discovered_bdns: Vec::new(),
        }
    }

    /// Changes the re-advertisement heartbeat period. The new period
    /// takes effect when the current timer fires; existing timers are
    /// not rescheduled. Leases at the BDN expire after its `ad_ttl`, so
    /// this must stay comfortably below that TTL for the broker to
    /// remain discoverable.
    pub fn set_readvertise(&mut self, period: Duration) {
        self.readvertise = period;
    }

    /// The current re-advertisement heartbeat period.
    pub fn readvertise(&self) -> Duration {
        self.readvertise
    }

    /// Builds this broker's advertisement.
    pub fn build_ad(&self, broker: &Broker, ctx: &mut dyn Context) -> BrokerAdvertisement {
        BrokerAdvertisement {
            broker: ctx.me(),
            hostname: broker.config().hostname.clone(),
            logical_address: broker.config().logical_address.clone(),
            realm: ctx.realm(),
            transports: Responder::transports(),
            geography: self.geography.clone(),
            institution: self.institution.clone(),
            issued_at_utc: ctx.utc_micros(),
        }
    }

    /// Issues the advertisement now: direct UDP to every known BDN, plus
    /// a topic publish. The ad is built and wrapped once; every BDN is
    /// sent the same handle.
    pub fn advertise(&mut self, broker: &mut Broker, ctx: &mut dyn Context) {
        let ad = WireMsg::new(Message::Advertisement(self.build_ad(broker, ctx)));
        for &bdn in self.bdns.iter().chain(&self.discovered_bdns) {
            ctx.send_udp_wire(well_known::BROKER, Endpoint::new(bdn, well_known::BDN), &ad);
            self.ads_sent += 1;
        }
        let payload = ad.message().to_bytes();
        let _ = broker.publish_local(self.topic.clone(), payload, ctx);
        self.ads_sent += 1;
    }

    /// Call from the owning actor's `on_start`.
    pub fn on_start(&mut self, broker: &mut Broker, ctx: &mut dyn Context) {
        self.advertise(broker, ctx);
        ctx.set_timer(self.readvertise, TIMER_READVERTISE);
    }

    /// Offers an incoming runtime event; returns `true` if consumed.
    pub fn handle(&mut self, event: &Incoming, broker: &mut Broker, ctx: &mut dyn Context) -> bool {
        match event {
            Incoming::Timer { token } if *token == TIMER_READVERTISE => {
                self.advertise(broker, ctx);
                ctx.set_timer(self.readvertise, TIMER_READVERTISE);
                true
            }
            // Re-advertise with a fresh (synced) timestamp as soon as the
            // NTP service completes.
            Incoming::ClockSynced => {
                self.advertise(broker, ctx);
                false // others may care about ClockSynced too
            }
            _ => false,
        }
    }

    /// A private BDN announced itself (paper §2.4): remember it and
    /// re-advertise immediately.
    pub fn on_bdn_advertisement(
        &mut self,
        bdn: NodeId,
        broker: &mut Broker,
        ctx: &mut dyn Context,
    ) {
        if self.bdns.contains(&bdn) || self.discovered_bdns.contains(&bdn) {
            return;
        }
        self.discovered_bdns.push(bdn);
        self.advertise(broker, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;
    use nb_broker::BrokerConfig;
    use nb_wire::RealmId;

    fn new_ctx() -> TestCtx {
        TestCtx::new(NodeId(7), RealmId(3), nb_net::SimTime::from_micros(42), 2)
    }

    #[test]
    fn advertises_to_every_configured_bdn_on_start() {
        let mut adv = Advertiser::new(vec![NodeId(100), NodeId(101)]);
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        adv.on_start(&mut broker, &mut ctx);
        assert_eq!(adv.ads_sent, 3, "two BDNs and the topic");
        assert_eq!(ctx.sent.len(), 2, "no link or client asked for the topic");
        for (_, to, msg) in &ctx.sent {
            assert_eq!(to.port, well_known::BDN);
            let Message::Advertisement(ad) = msg else { panic!("expected ad") };
            assert_eq!(ad.broker, NodeId(7));
            assert_eq!(ad.realm, RealmId(3));
            assert_eq!(ad.issued_at_utc, 42);
        }
        assert_eq!(ctx.timers, vec![(Duration::from_secs(120), TIMER_READVERTISE)]);
    }

    #[test]
    fn readvertise_timer_consumed_and_rearmed() {
        let mut adv = Advertiser::new(vec![NodeId(100)]);
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        let consumed =
            adv.handle(&Incoming::Timer { token: TIMER_READVERTISE }, &mut broker, &mut ctx);
        assert!(consumed);
        assert_eq!(adv.ads_sent, 2);
        assert_eq!(ctx.tokens(), vec![TIMER_READVERTISE]);
        // unrelated timers untouched
        assert!(!adv.handle(&Incoming::Timer { token: 5 }, &mut broker, &mut ctx));
    }

    #[test]
    fn topic_publication_counts() {
        let mut adv = Advertiser::new(vec![]);
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        adv.advertise(&mut broker, &mut ctx);
        assert_eq!(adv.ads_sent, 1);
        assert_eq!(broker.events_routed, 1, "topic ad routed through the broker");
    }

    #[test]
    fn private_bdn_discovery_triggers_readvertisement() {
        let mut adv = Advertiser::new(vec![NodeId(100)]);
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        adv.on_bdn_advertisement(NodeId(200), &mut broker, &mut ctx);
        assert_eq!(adv.discovered_bdns, vec![NodeId(200)]);
        // Re-advertisement went to both the configured and the new BDN,
        // and on the topic.
        assert_eq!(adv.ads_sent, 3);
        // Duplicate announcements are ignored.
        adv.on_bdn_advertisement(NodeId(200), &mut broker, &mut ctx);
        assert_eq!(adv.discovered_bdns.len(), 1);
        assert_eq!(adv.ads_sent, 3);
        // Known/configured BDNs are not re-added.
        adv.on_bdn_advertisement(NodeId(100), &mut broker, &mut ctx);
        assert!(adv.discovered_bdns.len() == 1);
    }

    #[test]
    fn clock_sync_triggers_fresh_ad_but_is_not_consumed() {
        let mut adv = Advertiser::new(vec![NodeId(100)]);
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        assert!(!adv.handle(&Incoming::ClockSynced, &mut broker, &mut ctx));
        assert_eq!(adv.ads_sent, 2);
    }
}
