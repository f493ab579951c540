//! The combined discovery-enabled broker actor.
//!
//! One node = one actor: the pub/sub [`Broker`] plus the discovery
//! [`Responder`] and [`Advertiser`] services, wired so that flood-topic
//! events surfaced by the broker reach the right service.

use std::time::Duration;

use nb_broker::{Broker, BrokerConfig, DEDUP_CAPACITY};
use nb_wire::topic::{BDN_ADVERTISEMENT, BDN_ADVERTISEMENT_TOPIC, DISCOVERY_REQUEST, DISCOVERY_REQUEST_TOPIC};
use nb_wire::{Message, NodeId, Wire, WireMsg};

use nb_net::{impl_actor_any, Actor, Context, Incoming};

use crate::advertiser::Advertiser;
use crate::policy::ResponsePolicy;
use crate::responder::Responder;

/// A broker that participates in discovery.
pub struct DiscoveryBrokerActor {
    /// The pub/sub broker.
    pub broker: Broker,
    /// The discovery responder.
    pub responder: Responder,
    /// The advertisement service.
    pub advertiser: Advertiser,
}

impl DiscoveryBrokerActor {
    /// Builds the combined actor. `bdns` is the broker configuration
    /// file's BDN list (may be empty: registration is optional, §2.1).
    pub fn new(mut cfg: BrokerConfig, bdns: Vec<NodeId>, policy: ResponsePolicy) -> Self {
        // The broker floods the discovery-plane topics.
        for topic in [&DISCOVERY_REQUEST, &BDN_ADVERTISEMENT] {
            let filter = topic.filter();
            if !cfg.flood_topics.contains(&filter) {
                cfg.flood_topics.push(filter);
            }
        }
        DiscoveryBrokerActor {
            broker: Broker::new(cfg),
            responder: Responder::new(policy, DEDUP_CAPACITY, true),
            advertiser: Advertiser::new(bdns, true, Duration::from_secs(120)),
        }
    }

    fn process_surfaced(&mut self, surfaced: Option<WireMsg>, ctx: &mut dyn Context) {
        let Some(msg) = surfaced else {
            return;
        };
        let Message::Publish(ev) = msg.message() else {
            return;
        };
        if ev.topic.as_str() == DISCOVERY_REQUEST_TOPIC {
            self.responder.on_flooded(&ev.payload, &mut self.broker, ctx);
        } else if ev.topic.as_str() == BDN_ADVERTISEMENT_TOPIC {
            if let Ok(Message::BdnAdvertisement { bdn, .. }) = Message::from_shared(&ev.payload) {
                self.advertiser.on_bdn_advertisement(bdn, &mut self.broker, ctx);
            }
        }
    }
}

impl Actor for DiscoveryBrokerActor {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.broker.on_start(ctx);
        self.responder.on_start(ctx);
        self.advertiser.on_start(&mut self.broker, ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if self.responder.handle(&event, &mut self.broker, ctx) {
            return;
        }
        if self.advertiser.handle(&event, &mut self.broker, ctx) {
            return;
        }
        let surfaced = self.broker.handle(event, ctx);
        self.process_surfaced(surfaced, ctx);
    }

    impl_actor_any!();
}
