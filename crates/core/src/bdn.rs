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

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::topic::{BDN_ADVERTISEMENT, BROKER_ADVERTISEMENT, BROKER_ADVERTISEMENT_TOPIC, DISCOVERY_REQUEST};
use nb_wire::{
    BrokerAdvertisement, Endpoint, Event, FederationSync, Message, NodeId,
    SyncPhase, Topic, TopicFilter, Wire, WireMsg,
};

use nb_net::{impl_actor_any, Actor, Context, Incoming, SimTime};

use crate::config::SecuritySuite;
use crate::federation::{
    Federation, FederationConfig, LeaseBook, LeaseOutcome, MAX_SYNC_ENTRIES, MAX_TOMBSTONES,
};
use crate::policy::ResponsePolicy;

const TIMER_PING: u64 = 0xBD00_0000_0000_0001;
const TIMER_INJECT: u64 = 0xBD00_0000_0000_0002;
const TIMER_FEDERATION: u64 = 0xBD00_0000_0000_0003;

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
    /// Anti-entropy federation with peer BDNs (see
    /// [`crate::federation`]). `None` — the default — disables the
    /// subsystem entirely: no timers, no RNG draws, no wire traffic, so
    /// a non-federated BDN behaves byte-identically to earlier builds.
    pub federation: Option<FederationConfig>,
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
            federation: None,
        }
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
    /// The registry: every lease (and, when federated, every tombstone)
    /// this BDN holds. All mutations go through the book's operations.
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
    /// Federation runtime state; `Some` iff [`BdnConfig::federation`]
    /// was set.
    federation: Option<Federation>,
}

impl Bdn {
    /// A BDN from `cfg`.
    pub fn new(cfg: BdnConfig) -> Bdn {
        let dedup = BoundedDedup::new(DEDUP_CAPACITY);
        let federation = cfg.federation.clone().map(Federation::new);
        // Only a federated registry keeps tombstones.
        let registry = LeaseBook::new(if cfg.federation.is_some() { MAX_TOMBSTONES } else { 0 });
        Bdn {
            cfg,
            registry,
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
            federation,
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

    /// The whole registry.
    pub fn registry(&self) -> &LeaseBook {
        &self.registry
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

    /// Federation runtime state, when federated.
    pub fn federation(&self) -> Option<&Federation> {
        self.federation.as_ref()
    }

    /// The registry digest at `now` ([`LeaseBook::digest`]): two
    /// quiescent federated BDNs agree on it byte-for-byte.
    pub fn registry_digest(&self, now: SimTime) -> u64 {
        self.registry.digest(now)
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

    /// Offers one lease to the registry — a local advertisement and a
    /// peer's record alike — and attaches to a newly stored broker.
    /// Returns whether it was stored.
    fn offer_lease(
        &mut self,
        ad: BrokerAdvertisement,
        expires_at: SimTime,
        ctx: &mut dyn Context,
    ) -> bool {
        let broker = ad.broker;
        match self.registry.apply_lease(ad, expires_at) {
            LeaseOutcome::Stored => {}
            LeaseOutcome::Superseded => return false,
            LeaseOutcome::Tombstoned => {
                if let Some(fed) = self.federation.as_mut() {
                    fed.stats.resurrections_blocked += 1;
                }
                return false;
            }
        }
        if self.cfg.auto_attach && !self.cfg.attached_brokers.contains(&broker) {
            self.cfg.attached_brokers.push(broker);
            send_connect(broker, ctx);
        }
        true
    }

    /// Applies one tombstone — a peer's, or one minted from a record that
    /// expired in flight — and detaches from a broker it retired.
    fn apply_tombstone(&mut self, broker: NodeId, t: u64) {
        let out = self.registry.apply_tombstone(broker, t);
        if out.retired && self.cfg.auto_attach {
            self.cfg.attached_brokers.retain(|&b| b != broker);
        }
        if out.recorded {
            if let Some(fed) = self.federation.as_mut() {
                fed.stats.tombstones_applied += 1;
            }
        }
    }

    fn register_ad(&mut self, ad: BrokerAdvertisement, ctx: &mut dyn Context) {
        if !self.admits(&ad) {
            return;
        }
        let expires_at = ctx.now() + self.cfg.ad_ttl;
        if self.offer_lease(ad, expires_at, ctx) {
            self.ads_registered += 1;
        }
    }

    fn ping_registered(&mut self, ctx: &mut dyn Context) {
        // Expire lapsed leases first (under federation each leaves a
        // tombstone, so a stale peer can never gossip it back).
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

    /// One anti-entropy round: prune the tombstone cache, pick this
    /// round's partner from the private seeded stream, and probe it with
    /// a digest. Snapshots only travel when digests disagree.
    fn federation_round(&mut self, ctx: &mut dyn Context) {
        let me = ctx.me();
        let Some(fed) = self.federation.as_mut() else {
            return;
        };
        fed.stats.tombstones_expired +=
            self.registry.prune(ctx.utc_micros(), self.cfg.ad_ttl, fed.cfg.tombstone_ttl);
        fed.stats.rounds_run += 1;
        if let Some(peer) = fed.pick_partner(me) {
            let probe = Message::FederationSync(FederationSync {
                from: me,
                phase: SyncPhase::Digest,
                digest: self.registry.digest(ctx.now()),
                leases: Vec::new(),
                tombstones: Vec::new(),
            });
            ctx.send_udp(well_known::BDN, Endpoint::new(peer, well_known::BDN), &probe);
        }
        ctx.set_timer(fed.cfg.round_interval, TIMER_FEDERATION);
    }

    /// Sends a full snapshot (live leases + tombstones) to `peer`.
    fn send_sync_snapshot(&mut self, peer: NodeId, phase: SyncPhase, ctx: &mut dyn Context) {
        let now = ctx.now();
        let leases = self.registry.live_records(now);
        if let Some(fed) = self.federation.as_mut() {
            fed.stats.entries_pushed += leases.len() as u64;
        }
        let sync = Message::FederationSync(FederationSync {
            from: ctx.me(),
            phase,
            digest: self.registry.digest(now),
            leases,
            tombstones: self.registry.tombstone_records(),
        });
        ctx.send_udp(well_known::BDN, Endpoint::new(peer, well_known::BDN), &sync);
    }

    /// Handles one leg of a peer's anti-entropy exchange. Everything in
    /// `sync` is peer-supplied: record counts are bounded and every
    /// record goes through the registry's merge — malformed or oversized
    /// payloads are counted, never panicked on.
    fn on_federation_sync(&mut self, sync: FederationSync, peer: NodeId, ctx: &mut dyn Context) {
        if self.federation.is_none() {
            // Not federated: sync traffic is unexpected noise.
            return;
        }
        if sync.leases.len() > MAX_SYNC_ENTRIES || sync.tombstones.len() > MAX_SYNC_ENTRIES {
            self.malformed_messages += 1;
            return;
        }
        match sync.phase {
            SyncPhase::Digest => {
                let mine = self.registry.digest(ctx.now());
                if let Some(fed) = self.federation.as_mut() {
                    if mine == sync.digest {
                        fed.stats.digests_matched += 1;
                        return;
                    }
                    fed.stats.digests_mismatched += 1;
                }
                self.send_sync_snapshot(peer, SyncPhase::Push, ctx);
            }
            SyncPhase::Push => {
                self.apply_sync_snapshot(sync, ctx);
                self.send_sync_snapshot(peer, SyncPhase::PushReply, ctx);
            }
            SyncPhase::PushReply => {
                self.apply_sync_snapshot(sync, ctx);
            }
        }
    }

    /// Merges a peer snapshot into the registry, record by record, past
    /// the same geography filter a local advertisement meets.
    fn apply_sync_snapshot(&mut self, sync: FederationSync, ctx: &mut dyn Context) {
        for rec in sync.leases {
            if !self.admits(&rec.ad) {
                continue;
            }
            let expires_at = SimTime::from_micros(rec.expires_at_us);
            if expires_at <= ctx.now() {
                // Expired in flight: the lease is proof of its own
                // death — treat it as the tombstone it implies rather
                // than letting it linger or resurrect anything.
                self.apply_tombstone(rec.ad.broker, rec.ad.issued_at_utc);
            } else if self.offer_lease(rec.ad, expires_at, ctx) {
                if let Some(fed) = self.federation.as_mut() {
                    fed.stats.entries_pulled += 1;
                }
            }
        }
        for tomb in sync.tombstones {
            self.apply_tombstone(tomb.broker, tomb.lease_issued_utc);
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
        if let Some(fed) = &self.federation {
            ctx.set_timer(fed.cfg.round_interval, TIMER_FEDERATION);
        }
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Timer { token: TIMER_PING } => self.ping_registered(ctx),
            Incoming::Timer { token: TIMER_FEDERATION } => self.federation_round(ctx),
            Incoming::Timer { token: TIMER_INJECT } => {
                self.inject_timer_armed = false;
                self.pump_injections(ctx);
            }
            Incoming::Datagram { msg, .. } | Incoming::Stream { msg, .. }
                if matches!(msg.message(), Message::Discovery(_)) =>
            {
                self.on_discovery_request(msg.message(), ctx);
            }
            Incoming::Datagram { from, msg, .. } | Incoming::Stream { from, msg, .. } => match msg.into_message() {
                Message::Advertisement(ad) => self.register_ad(ad, ctx),
                Message::FederationSync(sync) => self.on_federation_sync(sync, from.node, ctx),
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
    use nb_wire::{DiscoveryRequest, LeaseRecord, Port, RealmId, TombstoneRecord};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn new_ctx() -> ScriptCtx {
        let (me, realm, now) = (NodeId(200), RealmId(1), SimTime::from_secs(100));
        ScriptCtx { me, realm, now, rng: StdRng::seed_from_u64(3), ..ScriptCtx::default() }
    }

    fn fed_bdn() -> Bdn {
        Bdn::new(BdnConfig {
            federation: Some(FederationConfig {
                peers: vec![NodeId(200), NodeId(201)],
                ..FederationConfig::default()
            }),
            auto_attach: false,
            ..BdnConfig::default()
        })
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

    fn push_sync(leases: Vec<LeaseRecord>, tombstones: Vec<TombstoneRecord>) -> FederationSync {
        FederationSync {
            from: NodeId(201),
            phase: SyncPhase::Push,
            digest: 0,
            leases,
            tombstones,
        }
    }

    #[test]
    fn merged_expired_lease_becomes_tombstone_and_is_never_injected_at() {
        let mut bdn = fed_bdn();
        bdn.cfg.attached_brokers = vec![NodeId(5)];
        let mut ctx = new_ctx();
        let now_us = ctx.now.as_micros();
        // A peer pushes a lease that expired in flight.
        let rec = LeaseRecord { ad: ad_for(5, 10), expires_at_us: now_us - 1 };
        bdn.on_federation_sync(push_sync(vec![rec], vec![]), NodeId(201), &mut ctx);
        assert!(!bdn.lease_valid(NodeId(5), ctx.now), "expired lease never enters");
        assert_eq!(bdn.live_entries(ctx.now), 0);
        let tombstones: Vec<(NodeId, u64)> = bdn.registry().tombstones().collect();
        assert_eq!(tombstones, vec![(NodeId(5), 10)], "it tombstones instead");
        // The BDN then refuses to inject at the pinned attachment.
        bdn.on_discovery_request(&discovery_request(now_us), &mut ctx);
        assert_eq!(bdn.stale_targets_skipped, 1);
        assert_eq!(bdn.requests_handled, 1);
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
    fn tombstone_blocks_direct_resurrection_until_fresher_ad() {
        let mut bdn = fed_bdn();
        let mut ctx = new_ctx();
        bdn.on_federation_sync(
            push_sync(vec![], vec![TombstoneRecord { broker: NodeId(5), lease_issued_utc: 50 }]),
            NodeId(201),
            &mut ctx,
        );
        // A stale re-advertisement (at or below the stamp) is blocked…
        bdn.register_ad(ad_for(5, 50), &mut ctx);
        assert_eq!(bdn.live_entries(ctx.now), 0);
        assert_eq!(bdn.federation().map(|f| f.stats.resurrections_blocked), Some(1));
        // …a genuinely fresh one clears the tombstone and registers.
        bdn.register_ad(ad_for(5, 51), &mut ctx);
        assert!(bdn.lease_valid(NodeId(5), ctx.now));
        assert_eq!(bdn.registry().tombstones().next(), None);
    }

    #[test]
    fn oversized_sync_counts_malformed_and_merges_nothing() {
        let mut bdn = fed_bdn();
        let mut ctx = new_ctx();
        let now_us = ctx.now.as_micros();
        let leases: Vec<LeaseRecord> = (0..MAX_SYNC_ENTRIES as u32 + 1)
            .map(|i| LeaseRecord { ad: ad_for(i, 10), expires_at_us: now_us + 1_000_000 })
            .collect();
        bdn.on_federation_sync(push_sync(leases, vec![]), NodeId(201), &mut ctx);
        assert_eq!(bdn.malformed_messages, 1);
        assert_eq!(bdn.live_entries(ctx.now), 0);
        assert!(ctx.sent.is_empty(), "no reply to a malformed push");
    }

    #[test]
    fn digest_match_skips_snapshot_exchange() {
        let mut a = fed_bdn();
        let mut b = fed_bdn();
        let mut ctx = new_ctx();
        let now_us = ctx.now.as_micros();
        let rec = LeaseRecord { ad: ad_for(5, 10), expires_at_us: now_us + 1_000_000 };
        a.on_federation_sync(push_sync(vec![rec.clone()], vec![]), NodeId(201), &mut ctx);
        // `a` replied to the push with its merged snapshot; feed it to `b`.
        let Some(Message::FederationSync(reply)) = ctx.sent.pop().map(|s| s.msg.message().clone()) else {
            panic!("push reply expected");
        };
        assert_eq!(reply.phase, SyncPhase::PushReply);
        b.on_federation_sync(reply, NodeId(200), &mut ctx);
        assert_eq!(a.registry_digest(ctx.now), b.registry_digest(ctx.now));
        // A digest probe between equals is absorbed without a push.
        let probe = FederationSync {
            from: NodeId(201),
            phase: SyncPhase::Digest,
            digest: b.registry_digest(ctx.now),
            leases: vec![],
            tombstones: vec![],
        };
        let sent_before = ctx.sent.len();
        a.on_federation_sync(probe, NodeId(201), &mut ctx);
        assert_eq!(ctx.sent.len(), sent_before, "matched digest sends nothing");
        assert_eq!(a.federation().map(|f| f.stats.digests_matched), Some(1));
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
        let measured = bdn.registry().entries().filter(|(_, r)| r.rtt_us == Some(3_000)).count();
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

    // The book's own proptests (`tests/proptests.rs`) see only the merge.
    // These deliver one op set through `on_incoming`, so the filters the
    // BDN applies before it merges are in the loop too.

    /// The test context's clock, µs.
    const NOW_US: u64 = 100_000_000;

    /// Ads are content-addressed by (broker, stamp, geography), as every
    /// BDN that hears one heartbeat holds the same bytes.
    fn arb_ad() -> impl Strategy<Value = BrokerAdvertisement> {
        (0u32..5, 0u64..40, 0u8..3).prop_map(|(broker, issued, geo)| BrokerAdvertisement {
            geography: [None, Some("us-east".to_string()), Some("eu-west".to_string())]
                .into_iter()
                .nth(usize::from(geo))
                .flatten(),
            ..ad_for(broker, issued)
        })
    }

    /// A `Push` or `PushReply` leg: live leases (up to ten minutes out)
    /// and tombstones.
    fn arb_leg() -> impl Strategy<Value = FederationSync> {
        (
            any::<bool>(),
            prop::collection::vec((arb_ad(), 1u64..600), 0..4),
            prop::collection::vec((0u32..5, 0u64..40), 0..3),
        )
            .prop_map(|(reply, leases, tombstones)| FederationSync {
                from: NodeId(201),
                phase: if reply { SyncPhase::PushReply } else { SyncPhase::Push },
                digest: 0,
                leases: leases
                    .into_iter()
                    .map(|(ad, secs)| LeaseRecord { ad, expires_at_us: NOW_US + secs * 1_000_000 })
                    .collect(),
                tombstones: tombstones
                    .into_iter()
                    .map(|(b, t)| TombstoneRecord { broker: NodeId(b), lease_issued_utc: t })
                    .collect(),
            })
    }

    /// Local ads, sync legs, and one leg whose record expired in flight.
    fn arb_ops() -> impl Strategy<Value = Vec<Message>> {
        (prop::collection::vec(arb_ad(), 0..10), prop::collection::vec(arb_leg(), 0..6), arb_ad())
            .prop_map(|(ads, legs, dead)| {
                let mut ops: Vec<Message> = ads.into_iter().map(Message::Advertisement).collect();
                ops.extend(legs.into_iter().map(Message::FederationSync));
                let dead = LeaseRecord { ad: dead, expires_at_us: NOW_US };
                ops.push(Message::FederationSync(FederationSync {
                    phase: SyncPhase::PushReply,
                    ..push_sync(vec![dead], vec![])
                }));
                ops
            })
    }

    /// Delivers `ops` to three federated BDNs, each in its own seeded
    /// order, and returns each one's registry digest and live records.
    fn deliver_in_three_orders(
        ops: &[Message],
        seeds: [u64; 3],
        accept_geography: Option<&str>,
    ) -> Vec<(u64, Vec<LeaseRecord>)> {
        seeds
            .iter()
            .map(|&seed| {
                let mut bdn = fed_bdn();
                bdn.cfg.accept_geography = accept_geography.map(String::from);
                let mut ctx = new_ctx();
                let mut order = ops.to_vec();
                order.shuffle(&mut StdRng::seed_from_u64(seed));
                for msg in order {
                    let from = Endpoint::new(NodeId(201), well_known::BDN);
                    let event =
                        Incoming::Datagram { from, to_port: well_known::BDN, msg: msg.into() };
                    bdn.on_incoming(event, &mut ctx);
                }
                (bdn.registry_digest(ctx.now), bdn.registry().live_records(ctx.now))
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

        #[test]
        fn federated_bdns_converge_under_any_delivery_order(
            ops in arb_ops(),
            seeds in any::<[u64; 3]>(),
        ) {
            let ends = deliver_in_three_orders(&ops, seeds, None);
            prop_assert_eq!(&ends[0], &ends[1]);
            prop_assert_eq!(&ends[0], &ends[2]);
        }

        #[test]
        fn geography_filtered_bdns_converge_under_any_delivery_order(
            ops in arb_ops(),
            seeds in any::<[u64; 3]>(),
        ) {
            let ends = deliver_in_three_orders(&ops, seeds, Some("us"));
            prop_assert_eq!(&ends[0], &ends[1]);
            prop_assert_eq!(&ends[0], &ends[2]);
            for rec in &ends[0].1 {
                prop_assert!(rec.ad.geography.as_deref().is_some_and(|g| g.contains("us")));
            }
        }
    }
}
