//! The Broker Discovery Node (BDN).
//!
//! BDNs are "registered nodes that facilitate the discovery of brokers"
//! (paper §2). A BDN:
//!
//! * maintains a **registry** of broker advertisements (direct sends and
//!   the well-known topic, optionally filtered by geography — "a BDN in
//!   the US may be interested only in broker additions in North
//!   America"),
//! * measures **network distance** to registered brokers with periodic
//!   UDP pings (§4),
//! * on a discovery request: **acks** immediately (§3), suppresses
//!   duplicates (idempotency), and **injects** the request into the
//!   broker network at the brokers it maintains connections to —
//!   *closest and farthest first* "to ensure that the broker discovery
//!   request propagates faster through the broker network" (§4) — with a
//!   per-send processing cost that makes the unconnected topology's
//!   O(N) distribution visible (§9),
//! * optionally requires credentials before disseminating (private BDNs,
//!   §2.4).

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::topic::{BDN_ADVERTISEMENT, BROKER_ADVERTISEMENT, BROKER_ADVERTISEMENT_TOPIC, DISCOVERY_REQUEST};
use nb_wire::{
    BrokerAdvertisement, Endpoint, Event, Message, NodeId, Topic, TopicFilter, Wire, WireMsg,
    WireWriter,
};

use nb_net::{impl_actor_any, Actor, Context, Incoming, SimTime};

use crate::config::SecuritySuite;
use crate::policy::ResponsePolicy;

const TIMER_PING: u64 = 0xBD00_0000_0000_0001;
const TIMER_INJECT: u64 = 0xBD00_0000_0000_0002;

/// Capacity of the request-UUID duplicate cache (paper §4's last 1000).
const DEDUP_CAPACITY: usize = 1000;

/// BDN configuration.
#[derive(Debug, Clone)]
pub struct BdnConfig {
    /// Brokers this BDN maintains active connections to; discovery
    /// requests are injected at these.
    pub attached_brokers: Vec<NodeId>,
    /// RTT refresh interval for registered brokers.
    pub ping_interval: Duration,
    /// Per-send processing cost when distributing a request to several
    /// brokers (serialisation at the BDN; drives the O(N) behaviour of
    /// the unconnected topology).
    pub per_send_delay: Duration,
    /// Policy gating dissemination (private BDNs require credentials).
    pub policy: ResponsePolicy,
    /// Only store advertisements whose geography contains this substring.
    pub accept_geography: Option<String>,
    /// Announce this BDN on the BDN-advertisement topic via an attached
    /// broker (private-BDN bootstrap, §2.4).
    pub advertise_as_private: bool,
    /// Automatically maintain a connection to every broker that
    /// registers ("a given BDN may maintain active connections to one or
    /// more broker nodes", §2). Scenario builders that pin an explicit
    /// attachment set this to `false`.
    pub auto_attach: bool,
    /// When set, [`nb_wire::Message::Secure`] envelopes are opened with
    /// this identity and the sender chain validated against the trust
    /// root (§9.1); boxed. `peer_public` is unused on the BDN side.
    pub security: Option<Box<SecuritySuite>>,
    /// Registry entries not refreshed by a new advertisement within this
    /// period are dropped (§1.2: "broker processes may join and leave the
    /// broker network at arbitrary times" — the registry must not serve
    /// ghosts). Brokers re-advertise every 120 s by default. Each
    /// advertisement is a **lease**: refreshing extends its
    /// `Registered::expires_at` by this TTL. Only brokers holding a
    /// live lease are injection targets: an attached broker whose lease
    /// has lapsed, or that never advertised, is skipped (and counted in
    /// [`Bdn::stale_targets_skipped`]) even before the ping timer prunes
    /// it.
    pub ad_ttl: Duration,
}

impl Default for BdnConfig {
    fn default() -> Self {
        BdnConfig {
            attached_brokers: Vec::new(),
            ping_interval: Duration::from_secs(5),
            per_send_delay: Duration::from_millis(60),
            policy: ResponsePolicy::open(),
            accept_geography: None,
            advertise_as_private: false,
            auto_attach: true,
            security: None,
            ad_ttl: Duration::from_secs(300),
        }
    }
}

/// A registry entry for one advertised broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registered {
    /// The most recent advertisement.
    pub ad: BrokerAdvertisement,
    /// Measured round-trip time to the broker, µs, kept across lease
    /// refreshes.
    pub rtt_us: Option<u64>,
    /// When the lease lapses. A broker past this instant is never chosen
    /// for injection.
    pub expires_at: SimTime,
}

/// Does a lease `(ad, expires_at)` supersede `held`? Leases are ordered
/// by the origin-stamped `issued_at_utc`, then by the ad's bytes, then by
/// expiry, so a registry ends the same whatever order it hears the same
/// leases in. Ties do **not** supersede: re-applying a lease is a no-op.
fn lease_supersedes(ad: &BrokerAdvertisement, expires_at: SimTime, held: &Registered) -> bool {
    let by_bytes = || {
        let (mut wi, mut wh) = (WireWriter::new(), WireWriter::new());
        ad.encode(&mut wi);
        held.ad.encode(&mut wh);
        wi.as_slice().cmp(wh.as_slice())
    };
    let order = match ad.issued_at_utc.cmp(&held.ad.issued_at_utc) {
        Ordering::Equal if *ad == held.ad => Ordering::Equal,
        Ordering::Equal => by_bytes(),
        stamp => stamp,
    };
    order.then(expires_at.cmp(&held.expires_at)) == Ordering::Greater
}

/// The BDN registry: one lease per broker, in broker order so that sweeps
/// are deterministic whatever the insertion history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LeaseBook {
    leases: BTreeMap<NodeId, Registered>,
}

impl LeaseBook {
    /// Registered broker count (live or lapsed but not yet swept).
    fn len(&self) -> usize {
        self.leases.len()
    }

    /// The entry for `broker`.
    fn get(&self, broker: NodeId) -> Option<&Registered> {
        self.leases.get(&broker)
    }

    /// Records a measured RTT to `broker`, if it is registered.
    fn set_rtt(&mut self, broker: NodeId, rtt_us: u64) {
        if let Some(entry) = self.leases.get_mut(&broker) {
            entry.rtt_us = Some(rtt_us);
        }
    }

    /// Every entry, in broker order.
    fn entries(&self) -> impl Iterator<Item = (NodeId, &Registered)> {
        self.leases.iter().map(|(&b, r)| (b, r))
    }

    /// Stores a lease unless an equal-or-newer one is held. A stored
    /// refresh keeps the entry's measured RTT. Returns whether it was
    /// stored.
    fn apply_lease(&mut self, ad: BrokerAdvertisement, expires_at: SimTime) -> bool {
        let broker = ad.broker;
        let rtt_us = match self.leases.get(&broker) {
            Some(held) if !lease_supersedes(&ad, expires_at, held) => return false,
            held => held.and_then(|h| h.rtt_us),
        };
        self.leases.insert(broker, Registered { ad, rtt_us, expires_at });
        true
    }

    /// The ping sweep: drops every lease lapsed at `now`. Returns how
    /// many lapsed.
    fn expire(&mut self, now: SimTime) -> usize {
        let before = self.leases.len();
        self.leases.retain(|_, reg| now <= reg.expires_at);
        before - self.leases.len()
    }
}

/// Puts injection targets `(broker, rtt)` in injection order, in place:
/// closest first, farthest second, the rest by ascending RTT, unknown-RTT
/// targets last (paper §4). RTT ties and the unknowns go by node id.
pub fn injection_order(targets: &mut [(NodeId, Option<u64>)]) {
    targets.sort_unstable_by_key(|&(n, r)| (r.is_none(), r, n));
    let known = targets.partition_point(|(_, r)| r.is_some());
    // [closest, 2nd, …, farthest] → [closest, farthest, 2nd, …].
    if let Some(rest) = targets.get_mut(1..known).filter(|rest| !rest.is_empty()) {
        rest.rotate_right(1);
    }
}

/// The BDN actor.
pub struct Bdn {
    cfg: BdnConfig,
    /// The registry: every lease this BDN holds.
    registry: LeaseBook,
    dedup: BoundedDedup<Uuid>,
    ping_nonces: HashMap<u64, (NodeId, SimTime)>,
    next_nonce: u64,
    /// Well-known topics, cloned from nb-wire's process-wide values at
    /// construction so receive paths never carry a panicking read.
    flood_topic: Topic,
    ad_filter: TopicFilter,
    bdn_ad_topic: Topic,
    /// Injections queued behind the per-send processing delay, each a
    /// handle to its request's one `Publish`: every injection of a
    /// request carries the same event id, so the brokers' last-1000
    /// cache merges them into one flood (paper §4).
    inject_queue: VecDeque<(NodeId, WireMsg)>,
    inject_timer_armed: bool,
    /// Requests accepted for dissemination.
    pub requests_handled: u64,
    /// Duplicate requests acked but not re-disseminated.
    pub duplicate_requests: u64,
    /// Requests refused by the policy.
    pub rejected_requests: u64,
    /// Advertisements stored.
    pub ads_registered: u64,
    /// Advertisements filtered out (geography).
    pub ads_filtered: u64,
    /// Registry entries expired for lack of re-advertisement.
    pub ads_expired: u64,
    /// Injection targets skipped because their lease was expired or
    /// absent.
    pub stale_targets_skipped: u64,
    /// Secured requests successfully opened.
    pub secured_requests: u64,
    /// Envelopes that failed validation or decryption.
    pub rejected_envelopes: u64,
    /// Publish payloads on well-known topics that failed to decode.
    pub malformed_messages: u64,
}

impl Bdn {
    /// A BDN from `cfg`.
    pub fn new(cfg: BdnConfig) -> Bdn {
        let dedup = BoundedDedup::new(DEDUP_CAPACITY);
        Bdn {
            cfg,
            registry: LeaseBook::default(),
            dedup,
            ping_nonces: HashMap::new(),
            next_nonce: 1,
            flood_topic: DISCOVERY_REQUEST.topic(),
            ad_filter: BROKER_ADVERTISEMENT.filter(),
            bdn_ad_topic: BDN_ADVERTISEMENT.topic(),
            inject_queue: VecDeque::new(),
            inject_timer_armed: false,
            requests_handled: 0,
            duplicate_requests: 0,
            rejected_requests: 0,
            ads_registered: 0,
            ads_filtered: 0,
            ads_expired: 0,
            stale_targets_skipped: 0,
            secured_requests: 0,
            rejected_envelopes: 0,
            malformed_messages: 0,
        }
    }

    /// The brokers requests are injected at, while their leases live.
    pub fn attached_brokers(&self) -> &[NodeId] {
        &self.cfg.attached_brokers
    }

    /// Heap bytes of the request duplicate cache.
    pub fn dedup_bytes(&self) -> usize {
        self.dedup.heap_bytes()
    }

    /// Registered broker count.
    pub fn registry_len(&self) -> usize {
        self.registry.len()
    }

    /// The registry entry for `broker`, live or lapsed but not yet swept.
    pub fn registered(&self, broker: NodeId) -> Option<&Registered> {
        self.registry.get(broker)
    }

    /// Whether `broker` holds a live advertisement lease at `now`.
    pub fn lease_valid(&self, broker: NodeId, now: SimTime) -> bool {
        self.registry.get(broker).is_some_and(|r| now <= r.expires_at)
    }

    /// Registry entries whose lease is live at `now`. Unlike
    /// [`Bdn::registry_len`], this never counts an entry whose lease
    /// lapsed between sweep timers — the silent-ghost window — so all
    /// size reporting goes through here.
    pub fn live_entries(&self, now: SimTime) -> usize {
        self.registry.entries().filter(|(_, r)| now <= r.expires_at).count()
    }

    /// The geography filter: whether `ad` may enter this registry at all.
    fn admits(&mut self, ad: &BrokerAdvertisement) -> bool {
        let Some(filter) = &self.cfg.accept_geography else {
            return true;
        };
        let admits = ad.geography.as_deref().is_some_and(|g| g.contains(filter.as_str()));
        if !admits {
            self.ads_filtered += 1;
        }
        admits
    }

    /// Stores `ad` as a lease, geography permitting, and attaches to a
    /// newly registered broker.
    fn register_ad(&mut self, ad: BrokerAdvertisement, ctx: &mut dyn Context) {
        if !self.admits(&ad) {
            return;
        }
        let broker = ad.broker;
        if !self.registry.apply_lease(ad, ctx.now() + self.cfg.ad_ttl) {
            return;
        }
        self.ads_registered += 1;
        if self.cfg.auto_attach && !self.cfg.attached_brokers.contains(&broker) {
            self.cfg.attached_brokers.push(broker);
            send_connect(broker, ctx);
        }
    }

    fn ping_registered(&mut self, ctx: &mut dyn Context) {
        // Expire lapsed leases first.
        let expired = self.registry.expire(ctx.now());
        if expired > 0 {
            self.ads_expired += expired as u64;
            if self.cfg.auto_attach {
                // Auto-managed attachments follow the registry; pinned
                // (scenario-configured) attachments are left alone so a
                // returning broker is usable immediately.
                let registry = &self.registry;
                self.cfg.attached_brokers.retain(|&b| registry.get(b).is_some());
            }
        }
        // Nonce table hygiene, before this sweep's pings go in: drop
        // entries that never got a pong.
        if self.ping_nonces.len() > 4096 {
            self.ping_nonces.clear();
        }
        for (broker, _) in self.registry.entries() {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.ping_nonces.insert(nonce, (broker, ctx.now()));
            let ping = Message::Ping {
                nonce,
                sent_at: ctx.now().as_micros(),
                reply_to: Endpoint::new(ctx.me(), well_known::BDN),
            };
            let to = Endpoint::new(broker, well_known::PING);
            ctx.send_udp_wire(well_known::BDN, to, &WireMsg::new(ping));
        }
        ctx.set_timer(self.cfg.ping_interval, TIMER_PING);
    }

    /// Handles `request`, a `Message::Discovery`, where it lies: the
    /// requester keeps its handle to retransmit, so nothing here takes
    /// the request apart or copies it.
    fn on_discovery_request(&mut self, request: &Message, ctx: &mut dyn Context) {
        let Message::Discovery(req) = request else {
            return;
        };
        // Always ack — "a BDN is expected to acknowledge the receipt of a
        // discovery request in a timely manner"; retransmissions are
        // idempotent (§3).
        let ack = Message::DiscoveryAck { request_id: req.request_id, bdn: ctx.me() };
        ctx.send_udp_wire(well_known::BDN, req.reply_to, &WireMsg::new(ack));
        if !self.dedup.check_and_insert(req.request_id) {
            self.duplicate_requests += 1;
            return;
        }
        if !self.cfg.policy.permits(req) {
            self.rejected_requests += 1;
            return;
        }
        self.requests_handled += 1;
        // Injection order over attached brokers, closest/farthest first.
        // Lease gate: a broker without a live lease is never injected at,
        // even before the ping timer prunes it.
        let now = ctx.now();
        let mut targets: Vec<(NodeId, Option<u64>)> =
            Vec::with_capacity(self.cfg.attached_brokers.len());
        for &b in &self.cfg.attached_brokers {
            match self.registry.get(b) {
                Some(reg) if now <= reg.expires_at => targets.push((b, reg.rtt_us)),
                _ => self.stale_targets_skipped += 1,
            }
        }
        injection_order(&mut targets);
        if targets.is_empty() {
            return;
        }
        // One event for every injection (closest, farthest, the rest),
        // under the request's own UUID: a broker drops a copy whose id
        // its last-1000 cache holds, so the request floods once however
        // many brokers, or BDNs, inject it.
        let event = Event {
            id: req.request_id,
            topic: self.flood_topic.clone(),
            source: ctx.me(),
            payload: request.to_bytes(),
        };
        let publish = WireMsg::new(Message::Publish(event));
        self.inject_queue.reserve(targets.len());
        self.inject_queue.extend(targets.iter().map(|&(target, _)| (target, publish.clone())));
        self.pump_injections(ctx);
    }

    /// Sends the next queued injection, charging the per-send delay
    /// between consecutive sends (the O(N) distribution cost). Each send
    /// is a handle to its request's one `Publish`, so it encodes and
    /// draws nothing.
    fn pump_injections(&mut self, ctx: &mut dyn Context) {
        if self.inject_timer_armed {
            return;
        }
        let Some((target, publish)) = self.inject_queue.pop_front() else {
            return;
        };
        let to = Endpoint::new(target, well_known::BROKER);
        ctx.send_stream_wire(well_known::BDN, to, &publish);
        if !self.inject_queue.is_empty() {
            self.inject_timer_armed = true;
            ctx.set_timer(self.cfg.per_send_delay, TIMER_INJECT);
        }
    }

    fn attach(&mut self, ctx: &mut dyn Context) {
        for &broker in &self.cfg.attached_brokers {
            send_connect(broker, ctx);
        }
    }
}

/// Opens this BDN's client connection to `broker`.
fn send_connect(broker: NodeId, ctx: &mut dyn Context) {
    let connect = Message::ClientConnect { client: ctx.me(), reply_port: well_known::BDN };
    let to = Endpoint::new(broker, well_known::BROKER);
    ctx.send_stream_wire(well_known::BDN, to, &WireMsg::new(connect));
}

impl Actor for Bdn {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.attach(ctx);
        ctx.set_timer(self.cfg.ping_interval, TIMER_PING);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Timer { token: TIMER_PING } => self.ping_registered(ctx),
            Incoming::Timer { token: TIMER_INJECT } => {
                self.inject_timer_armed = false;
                self.pump_injections(ctx);
            }
            Incoming::Datagram { msg, .. } | Incoming::Stream { msg, .. }
                if matches!(msg.message(), Message::Discovery(_)) =>
            {
                self.on_discovery_request(msg.message(), ctx);
            }
            Incoming::Datagram { msg, .. } | Incoming::Stream { msg, .. } => match msg.into_message() {
                Message::Advertisement(ad) => self.register_ad(ad, ctx),
                Message::Secure(env) => {
                    let Some(suite) = &self.cfg.security else {
                        self.rejected_envelopes += 1;
                        return;
                    };
                    match nb_security::open_envelope(
                        &env,
                        &suite.identity,
                        &suite.trust_root,
                        ctx.utc_micros(),
                    ) {
                        Ok(request @ Message::Discovery(_)) => {
                            self.secured_requests += 1;
                            self.on_discovery_request(&request, ctx);
                        }
                        _ => self.rejected_envelopes += 1,
                    }
                }
                Message::Pong { nonce, .. } => {
                    if let Some((broker, sent)) = self.ping_nonces.remove(&nonce) {
                        self.registry.set_rtt(broker, (ctx.now() - sent).as_micros() as u64);
                    }
                }
                Message::ClientConnectAck { broker, accepted }
                    if accepted => {
                        // Subscribe to the advertisement topic through
                        // this broker.
                        ctx.send_stream(
                            well_known::BDN,
                            Endpoint::new(broker, well_known::BROKER),
                            &Message::ClientSubscribe { filter: self.ad_filter.clone() },
                        );
                        if self.cfg.advertise_as_private {
                            let topic = self.bdn_ad_topic.clone();
                            let announce = Message::BdnAdvertisement {
                                bdn: ctx.me(),
                                endpoint: Endpoint::new(ctx.me(), well_known::BDN),
                                requires_credentials: self.cfg.policy.allowed_principals.is_some()
                                    || self.cfg.policy.required_token.is_some(),
                            };
                            let ev = Event {
                                id: Uuid::random(ctx.rng()),
                                topic,
                                source: ctx.me(),
                                payload: announce.to_bytes(),
                            };
                            ctx.send_stream(
                                well_known::BDN,
                                Endpoint::new(broker, well_known::BROKER),
                                &Message::Publish(ev),
                            );
                        }
                    }
                // Topic-based advertisements arrive as Publish events on
                // our client attachment.
                Message::Publish(ev)
                    if ev.topic.as_str() == BROKER_ADVERTISEMENT_TOPIC => {
                        // Malformed payloads on the advertisement topic
                        // are counted, never panicked on.
                        match Message::from_shared(&ev.payload) {
                            Ok(Message::Advertisement(ad)) => self.register_ad(ad, ctx),
                            _ => self.malformed_messages += 1,
                        }
                    }
                _ => {}
            },
            _ => {}
        }
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_net::{ScriptCtx, Via};
    use nb_wire::{DiscoveryRequest, Port, RealmId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn new_ctx() -> ScriptCtx {
        let (me, realm, now) = (NodeId(200), RealmId(1), SimTime::from_secs(100));
        ScriptCtx { me, realm, now, rng: StdRng::seed_from_u64(3), ..ScriptCtx::default() }
    }

    fn ad_for(broker: u32, issued_at_utc: u64) -> BrokerAdvertisement {
        BrokerAdvertisement {
            broker: NodeId(broker),
            hostname: format!("b{broker}"),
            logical_address: format!("nb://t/{broker}"),
            realm: RealmId(1),
            transports: vec![],
            geography: None,
            institution: None,
            issued_at_utc,
        }
    }

    fn discovery_request(issued_at_utc: u64) -> Message {
        Message::Discovery(DiscoveryRequest {
            request_id: Uuid::from_u128(9),
            requester: NodeId(50),
            hostname: "c".into(),
            realm: RealmId(1),
            reply_to: Endpoint::new(NodeId(50), Port(4000)),
            transports: vec![],
            credentials: None,
            issued_at_utc,
        })
    }

    #[test]
    fn attached_broker_that_never_advertised_is_never_injected_at() {
        let mut bdn = Bdn::new(BdnConfig {
            attached_brokers: vec![NodeId(5), NodeId(6)],
            auto_attach: false,
            ..BdnConfig::default()
        });
        let mut ctx = new_ctx();
        bdn.register_ad(ad_for(6, 10), &mut ctx);
        bdn.on_discovery_request(&discovery_request(ctx.now.as_micros()), &mut ctx);
        let publishes = ctx.sent.iter().filter(|s| matches!(s.msg.message(), Message::Publish(_)));
        let injected: Vec<NodeId> = publishes.map(|s| s.to.node).collect();
        assert_eq!(injected, vec![NodeId(6)], "only the leased broker is a target");
        assert_eq!(bdn.stale_targets_skipped, 1);
    }

    #[test]
    fn a_retransmitted_request_is_acked_again_and_injected_once() {
        let mut bdn = Bdn::new(BdnConfig {
            attached_brokers: vec![NodeId(5), NodeId(6)],
            auto_attach: false,
            ..BdnConfig::default()
        });
        let mut ctx = new_ctx();
        bdn.register_ad(ad_for(5, 10), &mut ctx);
        bdn.register_ad(ad_for(6, 10), &mut ctx);
        let from = Endpoint::new(NodeId(50), Port(4000));
        for _ in 0..2 {
            let msg = discovery_request(ctx.now.as_micros()).into();
            bdn.on_incoming(Incoming::Datagram { from, to_port: well_known::BDN, msg }, &mut ctx);
        }
        while ctx.armed.remove(&TIMER_INJECT) {
            bdn.on_incoming(Incoming::Timer { token: TIMER_INJECT }, &mut ctx);
        }
        let sent = |kind: &str| -> Vec<(NodeId, Via)> {
            ctx.sent.iter().filter(|s| s.msg.kind() == kind).map(|s| (s.to.node, s.via)).collect()
        };
        assert_eq!(sent("discovery-ack"), [(NodeId(50), Via::Datagram); 2], "every copy is acked by datagram");
        let injections = [(NodeId(5), Via::Stream), (NodeId(6), Via::Stream)];
        assert_eq!(sent("publish"), injections, "one injection per live target, on a stream");
        assert_eq!((bdn.requests_handled, bdn.duplicate_requests), (1, 1));
    }

    #[test]
    fn one_sweep_past_the_nonce_bound_measures_every_rtt() {
        // One more broker than the nonce table's hygiene bound: the
        // sweep's own pings must survive it.
        const BROKERS: u32 = 4_097;
        let mut bdn = Bdn::new(BdnConfig { auto_attach: false, ..BdnConfig::default() });
        let mut ctx = new_ctx();
        for b in 0..BROKERS {
            bdn.register_ad(ad_for(b, 10), &mut ctx);
        }
        bdn.on_incoming(Incoming::Timer { token: TIMER_PING }, &mut ctx);
        let nonces: Vec<u64> = ctx
            .sent
            .iter()
            .filter_map(|s| match s.msg.message() {
                Message::Ping { nonce, .. } => Some(*nonce),
                _ => None,
            })
            .collect();
        assert_eq!(nonces.len(), BROKERS as usize, "one ping per registered broker");
        ctx.now += Duration::from_millis(3);
        for nonce in nonces {
            let pong = Message::Pong { nonce, echoed_sent_at: 0, responder: NodeId(0) };
            let from = Endpoint::new(NodeId(0), well_known::PING);
            let event = Incoming::Datagram { from, to_port: well_known::BDN, msg: pong.into() };
            bdn.on_incoming(event, &mut ctx);
        }
        let measured = bdn.registry.entries().filter(|(_, r)| r.rtt_us == Some(3_000)).count();
        assert_eq!(measured, BROKERS as usize, "every pong of the sweep was matched");
    }

    /// The order the three-`Vec` implementation gave, kept as the
    /// oracle the in-place [`injection_order`] is held to.
    fn reference_injection_order(targets: &[(NodeId, Option<u64>)]) -> Vec<NodeId> {
        let mut known: Vec<(NodeId, u64)> =
            targets.iter().filter_map(|(n, r)| r.map(|r| (*n, r))).collect();
        known.sort_by_key(|&(n, r)| (r, n));
        let mut unknown: Vec<NodeId> =
            targets.iter().filter(|(_, r)| r.is_none()).map(|(n, _)| *n).collect();
        unknown.sort_unstable();
        let mut order = Vec::with_capacity(targets.len());
        if let Some(&(closest, _)) = known.first() {
            order.push(closest);
        }
        if known.len() > 1 {
            if let Some(&(farthest, _)) = known.last() {
                order.push(farthest);
            }
        }
        for &(n, _) in known.iter().skip(1).take(known.len().saturating_sub(2)) {
            order.push(n);
        }
        order.extend(unknown);
        order
    }

    /// [`injection_order`] on a copy, as node ids.
    fn ordered(targets: &[(NodeId, Option<u64>)]) -> Vec<NodeId> {
        let mut order = targets.to_vec();
        injection_order(&mut order);
        order.into_iter().map(|(n, _)| n).collect()
    }

    #[test]
    fn injection_order_closest_then_farthest() {
        let targets = vec![
            (NodeId(1), Some(50_000u64)),
            (NodeId(2), Some(10_000)),
            (NodeId(3), Some(120_000)),
            (NodeId(4), Some(80_000)),
        ];
        let order = ordered(&targets);
        assert_eq!(order[0], NodeId(2), "closest first");
        assert_eq!(order[1], NodeId(3), "farthest second");
        assert_eq!(order.len(), 4);
        // middle ones by ascending RTT
        assert_eq!(&order[2..], &[NodeId(1), NodeId(4)]);
    }

    #[test]
    fn injection_order_unknown_rtts_last() {
        let targets = vec![
            (NodeId(1), None),
            (NodeId(2), Some(10_000)),
            (NodeId(3), None),
        ];
        let order = ordered(&targets);
        assert_eq!(order, vec![NodeId(2), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn injection_order_degenerate_cases() {
        assert!(ordered(&[]).is_empty());
        assert_eq!(ordered(&[(NodeId(5), Some(1))]), vec![NodeId(5)]);
        assert_eq!(ordered(&[(NodeId(5), None), (NodeId(6), None)]), vec![NodeId(5), NodeId(6)]);
        // two known: closest then farthest, no repeats
        assert_eq!(
            ordered(&[(NodeId(1), Some(5)), (NodeId(2), Some(9))]),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn stale_lease_is_superseded() {
        let mut book = LeaseBook::default();
        let mut lease = |issued, expires_us| {
            book.apply_lease(ad_for(1, issued), SimTime::from_micros(expires_us))
        };
        assert!(lease(200, 900));
        assert!(!lease(150, 900), "an older stamp");
        assert!(!lease(200, 900), "the same lease again");
        book.set_rtt(NodeId(1), 7);
        // Same stamp, longer expiry: refresh, measured RTT kept.
        assert!(book.apply_lease(ad_for(1, 200), SimTime::from_micros(950)));
        assert_eq!(book.get(NodeId(1)).and_then(|r| r.rtt_us), Some(7));
    }

    /// Ads are content-addressed by (broker, stamp, geography), as every
    /// BDN that hears one heartbeat holds the same bytes. Few brokers and
    /// stamps, so refreshes and same-stamp ties are common.
    fn arb_ad() -> impl Strategy<Value = BrokerAdvertisement> {
        (0u32..5, 0u64..40, 0u8..3).prop_map(|(broker, issued, geo)| BrokerAdvertisement {
            geography: [None, Some("us-east".to_string()), Some("eu-west".to_string())]
                .into_iter()
                .nth(usize::from(geo))
                .flatten(),
            ..ad_for(broker, issued)
        })
    }

    /// Delivers each ad to a BDN through `on_incoming`, in three seeded
    /// orders, and returns each one's registry, so the geography filter
    /// the BDN applies before it stores is in the loop.
    fn deliver_in_three_orders(
        ads: &[BrokerAdvertisement],
        seeds: [u64; 3],
        accept_geography: Option<&str>,
    ) -> Vec<LeaseBook> {
        seeds
            .iter()
            .map(|&seed| {
                let mut bdn = Bdn::new(BdnConfig {
                    auto_attach: false,
                    accept_geography: accept_geography.map(String::from),
                    ..BdnConfig::default()
                });
                let mut ctx = new_ctx();
                let mut order = ads.to_vec();
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                for ad in order {
                    let from = Endpoint::new(ad.broker, well_known::BROKER);
                    let msg = Message::Advertisement(ad).into();
                    bdn.on_incoming(Incoming::Datagram { from, to_port: well_known::BDN, msg }, &mut ctx);
                }
                bdn.registry
            })
            .collect()
    }

    proptest! {
        /// Few node ids and fewer RTT values, so ties, repeated ids and
        /// unknowns are common.
        #[test]
        fn injection_order_in_place_equals_the_reference(
            targets in prop::collection::vec(
                (0u32..12, prop::option::of(0u64..6)).prop_map(|(n, r)| (NodeId(n), r)),
                0..16,
            ),
        ) {
            prop_assert_eq!(ordered(&targets), reference_injection_order(&targets));
        }

        /// The lease order is total: the same leases applied in any
        /// order leave the same book.
        #[test]
        fn leases_applied_in_any_order_leave_one_book(
            leases in prop::collection::vec((arb_ad(), 0u64..400), 0..40),
            seed in any::<u64>(),
        ) {
            let book_of = |leases: &[(BrokerAdvertisement, u64)]| {
                let mut book = LeaseBook::default();
                for (ad, expires_us) in leases {
                    book.apply_lease(ad.clone(), SimTime::from_micros(*expires_us));
                }
                book
            };
            let mut shuffled = leases.clone();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(book_of(&leases), book_of(&shuffled));
        }

        #[test]
        fn geography_filtered_bdns_converge_under_any_delivery_order(
            ads in prop::collection::vec(arb_ad(), 0..16),
            seeds in any::<[u64; 3]>(),
        ) {
            let ends = deliver_in_three_orders(&ads, seeds, Some("us"));
            prop_assert_eq!(&ends[0], &ends[1]);
            prop_assert_eq!(&ends[0], &ends[2]);
            for (_, reg) in ends[0].entries() {
                prop_assert!(reg.ad.geography.as_deref().is_some_and(|g| g.contains("us")));
            }
        }
    }
}
