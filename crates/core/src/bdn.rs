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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::topic::{BDN_ADVERTISEMENT_TOPIC, BROKER_ADVERTISEMENT_TOPIC, DISCOVERY_REQUEST_TOPIC};
use nb_wire::{
    BrokerAdvertisement, DiscoveryRequest, Endpoint, Event, FederationSync, LeaseRecord, Message,
    NodeId, SyncPhase, Topic, TopicFilter, Wire, WireMsg, WireWriter,
};

use nb_net::{impl_actor_any, Actor, Context, Incoming, SimTime};

use crate::config::SecuritySuite;
use crate::federation::{self, Federation, FederationConfig};
use crate::policy::ResponsePolicy;

const TIMER_PING: u64 = 0xBD00_0000_0000_0001;
const TIMER_INJECT: u64 = 0xBD00_0000_0000_0002;
const TIMER_FEDERATION: u64 = 0xBD00_0000_0000_0003;

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
    /// Dedup-cache capacity for request UUIDs.
    pub dedup_capacity: usize,
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
    /// root (§9.1). `peer_public` is unused on the BDN side.
    pub security: Option<SecuritySuite>,
    /// Registry entries not refreshed by a new advertisement within this
    /// period are dropped (§1.2: "broker processes may join and leave the
    /// broker network at arbitrary times" — the registry must not serve
    /// ghosts). Brokers re-advertise every 120 s by default. Each
    /// advertisement is a **lease**: refreshing extends
    /// [`Registered::expires_at`] by this TTL, and expired leases are
    /// never injection targets even before the ping timer prunes them.
    pub ad_ttl: Duration,
    /// Strict lease mode: injection targets must hold a *live* lease in
    /// the registry. Pinned attachments without one are skipped (and
    /// counted in [`Bdn::stale_targets_skipped`]) instead of trusted.
    /// Off by default so scenario-pinned attachments keep working before
    /// the first advertisement lands.
    pub require_lease: bool,
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
            dedup_capacity: 1000,
            policy: ResponsePolicy::open(),
            accept_geography: None,
            advertise_as_private: false,
            auto_attach: true,
            security: None,
            ad_ttl: Duration::from_secs(300),
            require_lease: false,
            federation: None,
        }
    }
}

/// A registry entry for one advertised broker.
#[derive(Debug, Clone)]
pub struct Registered {
    /// The most recent advertisement.
    pub ad: BrokerAdvertisement,
    /// Measured round-trip time to the broker, µs.
    pub rtt_us: Option<u64>,
    /// When the advertisement was last refreshed (BDN-local time).
    pub last_seen: SimTime,
    /// When the lease lapses (`last_seen + ad_ttl` at refresh time). A
    /// broker past this instant is never chosen for injection.
    pub expires_at: SimTime,
}

/// Orders injection targets: closest first, farthest second, the rest by
/// ascending RTT, unknown-RTT targets last (paper §4).
pub fn injection_order(targets: &[(NodeId, Option<u64>)]) -> Vec<NodeId> {
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

/// Memoized live-lease view of the registry: the FNV fold over the
/// sorted live leases (plus the section separator) and the wire-ready
/// record list, both exactly as [`Bdn::registry_digest`] /
/// [`Bdn::live_lease_records`] would rebuild them. Valid while the
/// registry generation is unchanged AND no included lease has lapsed
/// (`valid_until_us` is the earliest included expiry) — the two ways
/// the live set can move without a wire event.
#[derive(Debug)]
struct LeaseCache {
    /// Registry generation this view was computed against.
    version: u64,
    /// When it was computed (a cache is never served backwards in time).
    computed_at: SimTime,
    /// Earliest `expires_at` among the included leases (µs); `u64::MAX`
    /// when the live set is empty.
    valid_until_us: u64,
    /// FNV state over the sorted live leases and the `0xFF` separator;
    /// tombstones are folded on top per call (they can change without a
    /// registry mutation, e.g. federation pruning).
    lease_digest: u64,
    /// Wire-ready snapshot, in registry (NodeId) order.
    records: Vec<LeaseRecord>,
}

/// The BDN actor.
pub struct Bdn {
    cfg: BdnConfig,
    /// Ordered so that registry sweeps and key collection are
    /// deterministic regardless of insertion history (lint rule D002).
    registry: BTreeMap<NodeId, Registered>,
    /// Bumped on every mutation that can change the live-lease view
    /// (ad upsert, expiry sweep, sync merge, tombstone removal) — NOT on
    /// RTT refreshes, which the digest and records exclude by design.
    registry_version: u64,
    /// Per-round memo replacing the old rebuild of the digest and the
    /// `live_lease_records` Vec on every federation round / digest probe.
    lease_cache: Option<LeaseCache>,
    dedup: BoundedDedup<Uuid>,
    ping_nonces: HashMap<u64, (NodeId, SimTime)>,
    next_nonce: u64,
    /// Broker-topic attachment state (client-connect handshake).
    attach_ok: BTreeMap<NodeId, bool>,
    /// Well-known topics, parsed once at construction so receive paths
    /// never carry a panicking parse (lint rule D004).
    flood_topic: Topic,
    ad_filter: TopicFilter,
    bdn_ad_topic: Topic,
    /// Injections queued behind the per-send processing delay. The
    /// request body is encoded once when the queue is filled; each
    /// queued entry shares the same payload bytes.
    inject_queue: VecDeque<(NodeId, Bytes)>,
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
    /// Injection targets skipped because their lease was expired (or, in
    /// strict mode, absent).
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
        let dedup = BoundedDedup::new(cfg.dedup_capacity);
        let federation = cfg.federation.clone().map(Federation::new);
        Bdn {
            cfg,
            registry: BTreeMap::new(),
            registry_version: 0,
            lease_cache: None,
            dedup,
            ping_nonces: HashMap::new(),
            next_nonce: 1,
            attach_ok: BTreeMap::new(),
            flood_topic: crate::well_known_topic(DISCOVERY_REQUEST_TOPIC),
            ad_filter: crate::well_known_filter(BROKER_ADVERTISEMENT_TOPIC),
            bdn_ad_topic: crate::well_known_topic(BDN_ADVERTISEMENT_TOPIC),
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

    /// Registered broker count.
    pub fn registry_len(&self) -> usize {
        self.registry.len()
    }

    /// The registry entry for `broker`.
    pub fn registered(&self, broker: NodeId) -> Option<&Registered> {
        self.registry.get(&broker)
    }

    /// Whether `broker` holds a live advertisement lease at `now`.
    pub fn lease_valid(&self, broker: NodeId, now: SimTime) -> bool {
        self.registry.get(&broker).is_some_and(|r| now <= r.expires_at)
    }

    /// Registry entries whose lease is live at `now`. Unlike
    /// [`Bdn::registry_len`], this never counts an entry whose lease
    /// lapsed between sweep timers — the silent-ghost window — so all
    /// size reporting goes through here.
    pub fn live_entries(&self, now: SimTime) -> usize {
        self.registry.values().filter(|r| now <= r.expires_at).count()
    }

    /// Federation runtime state, when federated.
    pub fn federation(&self) -> Option<&Federation> {
        self.federation.as_ref()
    }

    /// FNV-1a-64 digest of the replicated registry state at `now`:
    /// sorted live leases (broker, origin stamp, ad bytes — local expiry
    /// and RTT excluded, they carry arrival jitter), then sorted
    /// tombstones. Mirrors [`crate::federation::LeaseBook::digest`], so
    /// two quiescent federated BDNs agree byte-for-byte.
    pub fn registry_digest(&self, now: SimTime) -> u64 {
        let mut h = federation::FNV_OFFSET;
        let mut w = WireWriter::new();
        for (broker, reg) in &self.registry {
            if now > reg.expires_at {
                continue;
            }
            h = federation::fnv1a64_step(h, &broker.0.to_le_bytes());
            h = federation::fnv1a64_step(h, &reg.ad.issued_at_utc.to_le_bytes());
            w.clear();
            reg.ad.encode(&mut w);
            h = federation::fnv1a64_step(h, w.as_slice());
        }
        h = federation::fnv1a64_step(h, &[0xFF]);
        if let Some(fed) = &self.federation {
            for (broker, t) in fed.tombstones() {
                h = federation::fnv1a64_step(h, &broker.0.to_le_bytes());
                h = federation::fnv1a64_step(h, &t.to_le_bytes());
            }
        }
        h
    }

    /// Wire-ready snapshot of the live leases at `now` — the uncached
    /// oracle [`LeaseCache::records`] must always match.
    pub fn live_lease_records(&self, now: SimTime) -> Vec<LeaseRecord> {
        self.registry
            .values()
            .filter(|reg| now <= reg.expires_at)
            .map(|reg| LeaseRecord {
                ad: reg.ad.clone(),
                expires_at_us: reg.expires_at.as_micros(),
            })
            .collect()
    }

    /// Rebuilds the lease cache iff it cannot be proven current: the
    /// registry generation moved, time ran backwards past the compute
    /// point (never in one run, but cheap to guard), or a cached lease
    /// lapsed since. At quiescence — the common federation steady state —
    /// every round hits the memo and pays O(tombstones), not O(registry).
    fn ensure_lease_cache(&mut self, now: SimTime) -> &LeaseCache {
        let fresh = self.lease_cache.as_ref().is_some_and(|c| {
            c.version == self.registry_version
                && c.computed_at <= now
                && now.as_micros() <= c.valid_until_us
        });
        if !fresh {
            let mut h = federation::FNV_OFFSET;
            let mut w = WireWriter::new();
            let mut records = Vec::with_capacity(self.registry.len());
            let mut valid_until_us = u64::MAX;
            for (broker, reg) in &self.registry {
                if now > reg.expires_at {
                    continue;
                }
                h = federation::fnv1a64_step(h, &broker.0.to_le_bytes());
                h = federation::fnv1a64_step(h, &reg.ad.issued_at_utc.to_le_bytes());
                w.clear();
                reg.ad.encode(&mut w);
                h = federation::fnv1a64_step(h, w.as_slice());
                valid_until_us = valid_until_us.min(reg.expires_at.as_micros());
                records.push(LeaseRecord { ad: reg.ad.clone(), expires_at_us: reg.expires_at.as_micros() });
            }
            h = federation::fnv1a64_step(h, &[0xFF]);
            self.lease_cache = Some(LeaseCache {
                version: self.registry_version,
                computed_at: now,
                valid_until_us,
                lease_digest: h,
                records,
            });
        }
        // Both branches leave `lease_cache` populated; the insert arm is
        // the empty-registry view, kept so no panic path exists here
        // (lint rule D004).
        let version = self.registry_version;
        self.lease_cache.get_or_insert_with(|| LeaseCache {
            version,
            computed_at: now,
            valid_until_us: u64::MAX,
            lease_digest: federation::fnv1a64_step(federation::FNV_OFFSET, &[0xFF]),
            records: Vec::new(),
        })
    }

    /// [`Bdn::registry_digest`] through the memo: the cached lease fold
    /// plus a per-call tombstone fold (tombstones move independently of
    /// the registry). Equality with the oracle is pinned by
    /// `lease_cache_tracks_digest_and_records_oracles`.
    pub fn cached_registry_digest(&mut self, now: SimTime) -> u64 {
        let mut h = self.ensure_lease_cache(now).lease_digest;
        if let Some(fed) = &self.federation {
            for (broker, t) in fed.tombstones() {
                h = federation::fnv1a64_step(h, &broker.0.to_le_bytes());
                h = federation::fnv1a64_step(h, &t.to_le_bytes());
            }
        }
        h
    }

    fn register_ad(&mut self, ad: BrokerAdvertisement, ctx: &mut dyn Context) {
        if let Some(filter) = &self.cfg.accept_geography {
            let matches = ad.geography.as_deref().is_some_and(|g| g.contains(filter.as_str()));
            if !matches {
                self.ads_filtered += 1;
                return;
            }
        }
        let now = ctx.now();
        let broker = ad.broker;
        if self.federation.is_some() {
            // Federated registries only move forward under the merge
            // order: a tombstoned or out-of-date stamp must not regress
            // state another BDN already retired.
            if let Some(fed) = self.federation.as_mut() {
                if let Some(t) = fed.tombstone_for(broker) {
                    if federation::tombstone_blocks(t, ad.issued_at_utc) {
                        fed.stats.resurrections_blocked += 1;
                        return;
                    }
                    fed.clear_tombstone(broker);
                }
            }
            if let Some(existing) = self.registry.get(&broker) {
                if ad.issued_at_utc < existing.ad.issued_at_utc {
                    return;
                }
            }
        }
        let expires_at = now + self.cfg.ad_ttl;
        let entry = self.registry.entry(broker).or_insert(Registered {
            ad: ad.clone(),
            rtt_us: None,
            last_seen: now,
            expires_at,
        });
        entry.ad = ad;
        entry.last_seen = now;
        entry.expires_at = expires_at;
        self.registry_version += 1;
        self.ads_registered += 1;
        if self.cfg.auto_attach && !self.cfg.attached_brokers.contains(&broker) {
            self.cfg.attached_brokers.push(broker);
            self.attach_ok.insert(broker, false);
            send_connect(broker, ctx);
        }
    }

    fn ping_registered(&mut self, ctx: &mut dyn Context) {
        // Expire lapsed leases first. Under federation an expiry leaves
        // a tombstone carrying the retired ad's origin stamp, so a stale
        // peer can never gossip the dead lease back.
        let now = ctx.now();
        let before = self.registry.len();
        if self.federation.is_some() {
            let lapsed: Vec<(NodeId, u64)> = self
                .registry
                .iter()
                .filter(|(_, reg)| now > reg.expires_at)
                .map(|(&b, reg)| (b, reg.ad.issued_at_utc))
                .collect();
            for &(b, _) in &lapsed {
                self.registry.remove(&b);
            }
            if let Some(fed) = self.federation.as_mut() {
                for &(b, stamp) in &lapsed {
                    fed.note_expired(b, stamp);
                }
            }
        } else {
            self.registry.retain(|_, reg| now <= reg.expires_at);
        }
        let expired = before - self.registry.len();
        if expired > 0 {
            self.registry_version += 1;
            self.ads_expired += expired as u64;
            if self.cfg.auto_attach {
                // Auto-managed attachments follow the registry; pinned
                // (scenario-configured) attachments are left alone so a
                // returning broker is usable immediately.
                let registry = &self.registry;
                self.cfg.attached_brokers.retain(|b| registry.contains_key(b));
                self.attach_ok.retain(|b, _| registry.contains_key(b));
            }
        }
        let mut brokers: Vec<NodeId> = self.registry.keys().copied().collect();
        brokers.sort_unstable();
        for broker in brokers {
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
        // Nonce table hygiene: drop entries that never got a pong.
        if self.ping_nonces.len() > 4096 {
            self.ping_nonces.clear();
        }
        ctx.set_timer(self.cfg.ping_interval, TIMER_PING);
    }

    fn on_discovery_request(&mut self, req: DiscoveryRequest, ctx: &mut dyn Context) {
        // Always ack — "a BDN is expected to acknowledge the receipt of a
        // discovery request in a timely manner"; retransmissions are
        // idempotent (§3).
        let ack = Message::DiscoveryAck { request_id: req.request_id, bdn: ctx.me() };
        ctx.send_udp_wire(well_known::BDN, req.reply_to, &WireMsg::new(ack));
        if !self.dedup.check_and_insert(req.request_id) {
            self.duplicate_requests += 1;
            return;
        }
        if !self.cfg.policy.permits(&req) {
            self.rejected_requests += 1;
            return;
        }
        self.requests_handled += 1;
        // Injection order over attached brokers, closest/farthest first.
        // Lease gate: a broker whose lease has lapsed is known-stale and
        // is never injected at, even before the ping timer prunes it; in
        // strict mode a missing lease disqualifies a pinned attachment
        // too.
        let now = ctx.now();
        let mut targets: Vec<(NodeId, Option<u64>)> =
            Vec::with_capacity(self.cfg.attached_brokers.len());
        for &b in &self.cfg.attached_brokers {
            match self.registry.get(&b) {
                Some(reg) if now > reg.expires_at => self.stale_targets_skipped += 1,
                Some(reg) => targets.push((b, reg.rtt_us)),
                None if self.cfg.require_lease => self.stale_targets_skipped += 1,
                None => targets.push((b, None)),
            }
        }
        // Encode the flooded request body once; every queued injection
        // (closest, farthest, the rest) shares the same bytes.
        let payload = Message::Discovery(req).to_bytes();
        for target in injection_order(&targets) {
            self.inject_queue.push_back((target, payload.clone()));
        }
        self.pump_injections(ctx);
    }

    /// Sends the next queued injection, charging the per-send delay
    /// between consecutive sends (the O(N) distribution cost).
    fn pump_injections(&mut self, ctx: &mut dyn Context) {
        if self.inject_timer_armed {
            return;
        }
        let Some((target, payload)) = self.inject_queue.pop_front() else {
            return;
        };
        let event = Event {
            id: Uuid::random(ctx.rng()),
            topic: self.flood_topic.clone(),
            source: ctx.me(),
            payload,
        };
        ctx.send_stream(
            well_known::BDN,
            Endpoint::new(target, well_known::BROKER),
            &Message::Publish(event),
        );
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
        let utc_now = ctx.utc_micros();
        let ad_ttl = self.cfg.ad_ttl;
        let (partner, interval) = match self.federation.as_mut() {
            Some(fed) => {
                fed.prune(utc_now, ad_ttl);
                fed.stats.rounds_run += 1;
                (fed.pick_partner(me), fed.cfg.round_interval)
            }
            None => return,
        };
        if let Some(peer) = partner {
            let digest = self.cached_registry_digest(ctx.now());
            let probe = Message::FederationSync(FederationSync {
                from: me,
                phase: SyncPhase::Digest,
                digest,
                leases: Vec::new(),
                tombstones: Vec::new(),
            });
            ctx.send_udp(well_known::BDN, Endpoint::new(peer, well_known::BDN), &probe);
        }
        ctx.set_timer(interval, TIMER_FEDERATION);
    }

    /// Sends a full snapshot (live leases + tombstones) to `peer`.
    fn send_sync_snapshot(&mut self, peer: NodeId, phase: SyncPhase, ctx: &mut dyn Context) {
        let now = ctx.now();
        let digest = self.cached_registry_digest(now);
        let leases = self.ensure_lease_cache(now).records.clone();
        let tombstones = match self.federation.as_mut() {
            Some(fed) => {
                fed.stats.entries_pushed += leases.len() as u64;
                fed.tombstone_records()
            }
            None => return,
        };
        let sync = Message::FederationSync(FederationSync {
            from: ctx.me(),
            phase,
            digest,
            leases,
            tombstones,
        });
        ctx.send_udp(well_known::BDN, Endpoint::new(peer, well_known::BDN), &sync);
    }

    /// Handles one leg of a peer's anti-entropy exchange. Everything in
    /// `sync` is peer-supplied: record counts are bounded and every
    /// record is validated through the merge predicates — malformed or
    /// oversized payloads are counted, never panicked on (lint D004).
    fn on_federation_sync(&mut self, sync: FederationSync, peer: NodeId, ctx: &mut dyn Context) {
        let Some(cap) = self.federation.as_ref().map(|f| f.cfg.max_sync_entries) else {
            // Not federated: sync traffic is unexpected noise.
            return;
        };
        if sync.leases.len() > cap || sync.tombstones.len() > cap {
            self.malformed_messages += 1;
            return;
        }
        match sync.phase {
            SyncPhase::Digest => {
                let mine = self.cached_registry_digest(ctx.now());
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

    /// Merges a peer snapshot into the registry: the same join the pure
    /// [`crate::federation::LeaseBook`] computes, with local arrival
    /// bookkeeping (RTT preserved, `last_seen` re-stamped) layered on.
    fn apply_sync_snapshot(&mut self, sync: FederationSync, ctx: &mut dyn Context) {
        let now = ctx.now();
        let now_us = now.as_micros();
        for rec in sync.leases {
            if let Some(filter) = &self.cfg.accept_geography {
                let matches =
                    rec.ad.geography.as_deref().is_some_and(|g| g.contains(filter.as_str()));
                if !matches {
                    self.ads_filtered += 1;
                    continue;
                }
            }
            let broker = rec.ad.broker;
            if rec.expires_at_us <= now_us {
                // Expired in flight: the lease is proof of its own
                // death — treat it as the tombstone it implies rather
                // than letting it linger or resurrect anything.
                self.apply_peer_tombstone(broker, rec.ad.issued_at_utc);
                continue;
            }
            let blocked = match self.federation.as_mut() {
                Some(fed) => match fed.tombstone_for(broker) {
                    Some(t) if federation::tombstone_blocks(t, rec.ad.issued_at_utc) => {
                        fed.stats.resurrections_blocked += 1;
                        true
                    }
                    Some(_) => {
                        fed.clear_tombstone(broker);
                        false
                    }
                    None => false,
                },
                None => return,
            };
            if blocked {
                continue;
            }
            if let Some(existing) = self.registry.get(&broker) {
                let held = LeaseRecord {
                    ad: existing.ad.clone(),
                    expires_at_us: existing.expires_at.as_micros(),
                };
                if !federation::lease_supersedes(&rec, &held) {
                    continue;
                }
            }
            let rtt_us = self.registry.get(&broker).and_then(|r| r.rtt_us);
            self.registry.insert(
                broker,
                Registered {
                    ad: rec.ad,
                    rtt_us,
                    last_seen: now,
                    expires_at: SimTime::from_micros(rec.expires_at_us),
                },
            );
            self.registry_version += 1;
            if let Some(fed) = self.federation.as_mut() {
                fed.stats.entries_pulled += 1;
            }
            if self.cfg.auto_attach && !self.cfg.attached_brokers.contains(&broker) {
                self.cfg.attached_brokers.push(broker);
                self.attach_ok.insert(broker, false);
                send_connect(broker, ctx);
            }
        }
        for tomb in sync.tombstones {
            self.apply_peer_tombstone(tomb.broker, tomb.lease_issued_utc);
        }
    }

    /// Applies one tombstone: retires any local lease at or below the
    /// stamp (a strictly newer lease beats it) and records the stamp.
    fn apply_peer_tombstone(&mut self, broker: NodeId, t: u64) {
        if let Some(existing) = self.registry.get(&broker) {
            if !federation::tombstone_blocks(t, existing.ad.issued_at_utc) {
                return;
            }
            self.registry.remove(&broker);
            self.registry_version += 1;
            if self.cfg.auto_attach {
                self.cfg.attached_brokers.retain(|&b| b != broker);
                self.attach_ok.remove(&broker);
            }
        }
        if let Some(fed) = self.federation.as_mut() {
            if fed.absorb_tombstone(broker, t) {
                fed.stats.tombstones_applied += 1;
            }
        }
    }

    fn attach(&mut self, ctx: &mut dyn Context) {
        for &broker in &self.cfg.attached_brokers {
            self.attach_ok.insert(broker, false);
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
            Incoming::Datagram { from, msg, .. } | Incoming::Stream { from, msg, .. } => match msg.into_message() {
                Message::Advertisement(ad) => self.register_ad(ad, ctx),
                Message::Discovery(req) => self.on_discovery_request(req, ctx),
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
                        Ok(Message::Discovery(req)) => {
                            self.secured_requests += 1;
                            self.on_discovery_request(req, ctx);
                        }
                        _ => self.rejected_envelopes += 1,
                    }
                }
                Message::Pong { nonce, .. } => {
                    if let Some((broker, sent)) = self.ping_nonces.remove(&nonce) {
                        let rtt = (ctx.now() - sent).as_micros() as u64;
                        if let Some(entry) = self.registry.get_mut(&broker) {
                            entry.rtt_us = Some(rtt);
                        }
                    }
                }
                Message::ClientConnectAck { broker, accepted }
                    if accepted => {
                        self.attach_ok.insert(broker, true);
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
                        // are counted, never panicked on (lint D004).
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
    use nb_wire::{Port, RealmId, TombstoneRecord};

    struct FakeCtx {
        now: SimTime,
        sent: Vec<(Endpoint, Message)>,
        rng: rand::rngs::StdRng,
    }

    impl FakeCtx {
        fn new() -> FakeCtx {
            use rand::SeedableRng;
            FakeCtx {
                now: SimTime::from_secs(100),
                sent: vec![],
                rng: rand::rngs::StdRng::seed_from_u64(3),
            }
        }
    }

    impl Context for FakeCtx {
        fn me(&self) -> NodeId {
            NodeId(200)
        }
        fn realm(&self) -> RealmId {
            RealmId(1)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn utc_micros(&self) -> u64 {
            self.now.as_micros()
        }
        fn clock_synced(&self) -> bool {
            true
        }
        fn raw_local_micros(&self) -> u64 {
            self.now.as_micros()
        }
        fn set_clock_estimate_ns(&mut self, _est: i64) {}
        fn send_udp(&mut self, _from: Port, to: Endpoint, msg: &Message) {
            self.sent.push((to, msg.clone()));
        }
        fn send_stream(&mut self, _from: Port, to: Endpoint, msg: &Message) {
            self.sent.push((to, msg.clone()));
        }
        fn send_multicast(&mut self, _f: Port, _g: nb_wire::GroupId, _t: Port, _m: &Message) {}
        fn join_group(&mut self, _g: nb_wire::GroupId) {}
        fn leave_group(&mut self, _g: nb_wire::GroupId) {}
        fn set_timer(&mut self, _d: Duration, _token: u64) {}
        fn cancel_timer(&mut self, _t: u64) {}
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    fn fed_bdn(require_lease: bool) -> Bdn {
        Bdn::new(BdnConfig {
            federation: Some(FederationConfig {
                peers: vec![NodeId(200), NodeId(201)],
                ..FederationConfig::default()
            }),
            require_lease,
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
    fn merged_expired_lease_becomes_tombstone_and_fails_require_lease() {
        let mut bdn = fed_bdn(true);
        bdn.cfg.attached_brokers = vec![NodeId(5)];
        let mut ctx = FakeCtx::new();
        let now_us = ctx.now.as_micros();
        // A peer pushes a lease that expired in flight.
        let rec = LeaseRecord { ad: ad_for(5, 10), expires_at_us: now_us - 1 };
        bdn.on_federation_sync(push_sync(vec![rec], vec![]), NodeId(201), &mut ctx);
        assert!(!bdn.lease_valid(NodeId(5), ctx.now), "expired lease never enters");
        assert_eq!(bdn.live_entries(ctx.now), 0);
        let fed = bdn.federation().expect("federated");
        assert_eq!(fed.tombstone_for(NodeId(5)), Some(10), "it tombstones instead");
        // Strict mode then refuses to inject at the pinned attachment.
        let req = DiscoveryRequest {
            request_id: Uuid::from_u128(9),
            requester: NodeId(50),
            hostname: "c".into(),
            realm: RealmId(1),
            reply_to: Endpoint::new(NodeId(50), Port(4000)),
            transports: vec![],
            credentials: None,
            issued_at_utc: now_us,
        };
        bdn.on_discovery_request(req, &mut ctx);
        assert_eq!(bdn.stale_targets_skipped, 1);
        assert_eq!(bdn.requests_handled, 1);
    }

    #[test]
    fn tombstone_blocks_direct_resurrection_until_fresher_ad() {
        let mut bdn = fed_bdn(false);
        let mut ctx = FakeCtx::new();
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
        assert_eq!(bdn.federation().and_then(|f| f.tombstone_for(NodeId(5))), None);
    }

    #[test]
    fn oversized_sync_counts_malformed_and_merges_nothing() {
        let mut bdn = Bdn::new(BdnConfig {
            federation: Some(FederationConfig {
                max_sync_entries: 2,
                ..FederationConfig::default()
            }),
            auto_attach: false,
            ..BdnConfig::default()
        });
        let mut ctx = FakeCtx::new();
        let now_us = ctx.now.as_micros();
        let leases: Vec<LeaseRecord> = (0..3)
            .map(|i| LeaseRecord { ad: ad_for(i, 10), expires_at_us: now_us + 1_000_000 })
            .collect();
        bdn.on_federation_sync(push_sync(leases, vec![]), NodeId(201), &mut ctx);
        assert_eq!(bdn.malformed_messages, 1);
        assert_eq!(bdn.live_entries(ctx.now), 0);
        assert!(ctx.sent.is_empty(), "no reply to a malformed push");
    }

    #[test]
    fn digest_match_skips_snapshot_exchange() {
        let mut a = fed_bdn(false);
        let mut b = fed_bdn(false);
        let mut ctx = FakeCtx::new();
        let now_us = ctx.now.as_micros();
        let rec = LeaseRecord { ad: ad_for(5, 10), expires_at_us: now_us + 1_000_000 };
        a.on_federation_sync(push_sync(vec![rec.clone()], vec![]), NodeId(201), &mut ctx);
        // `a` replied to the push with its merged snapshot; feed it to `b`.
        let Some((_, Message::FederationSync(reply))) = ctx.sent.pop() else {
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
    fn lease_cache_tracks_digest_and_records_oracles() {
        let mut bdn = fed_bdn(false);
        let mut ctx = FakeCtx::new();
        let check = |bdn: &mut Bdn, now: SimTime, label: &str| {
            assert_eq!(
                bdn.cached_registry_digest(now),
                bdn.registry_digest(now),
                "digest memo diverged from oracle: {label}"
            );
            let cached = bdn.lease_cache.as_ref().expect("cache populated").records.clone();
            let oracle = bdn.live_lease_records(now);
            assert_eq!(cached.len(), oracle.len(), "record memo diverged: {label}");
            for (c, o) in cached.iter().zip(&oracle) {
                assert_eq!(c.ad.broker, o.ad.broker, "{label}");
                assert_eq!(c.expires_at_us, o.expires_at_us, "{label}");
            }
        };
        check(&mut bdn, ctx.now, "empty registry");
        // Growth via direct ads.
        for b in [5u32, 9, 3] {
            bdn.register_ad(ad_for(b, 10 + u64::from(b)), &mut ctx);
            check(&mut bdn, ctx.now, "after register_ad");
        }
        // A refresh (same broker, newer stamp) changes the digest too.
        bdn.register_ad(ad_for(5, 40), &mut ctx);
        check(&mut bdn, ctx.now, "after lease refresh");
        // RTT update must NOT invalidate (excluded from the view) — and
        // must not change either side.
        let before = bdn.cached_registry_digest(ctx.now);
        bdn.registry.get_mut(&NodeId(5)).unwrap().rtt_us = Some(123);
        check(&mut bdn, ctx.now, "after rtt refresh");
        assert_eq!(bdn.cached_registry_digest(ctx.now), before);
        // Pure time advance past a lease's expiry: no mutation, but the
        // live set shrinks — valid_until must catch it.
        let past_expiry = ctx.now + bdn.cfg.ad_ttl + Duration::from_secs(1);
        check(&mut bdn, past_expiry, "after silent expiry");
        assert_eq!(bdn.live_lease_records(past_expiry).len(), 0);
        // Tombstones fold per call: removing via a peer tombstone moves
        // both the registry and the tombstone set.
        bdn.register_ad(ad_for(7, 99), &mut ctx);
        bdn.apply_peer_tombstone(NodeId(7), 100);
        check(&mut bdn, ctx.now, "after tombstone removal");
    }

    #[test]
    fn injection_order_closest_then_farthest() {
        let targets = vec![
            (NodeId(1), Some(50_000u64)),
            (NodeId(2), Some(10_000)),
            (NodeId(3), Some(120_000)),
            (NodeId(4), Some(80_000)),
        ];
        let order = injection_order(&targets);
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
        let order = injection_order(&targets);
        assert_eq!(order, vec![NodeId(2), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn injection_order_degenerate_cases() {
        assert!(injection_order(&[]).is_empty());
        assert_eq!(injection_order(&[(NodeId(5), Some(1))]), vec![NodeId(5)]);
        assert_eq!(
            injection_order(&[(NodeId(5), None), (NodeId(6), None)]),
            vec![NodeId(5), NodeId(6)]
        );
        // two known: closest then farthest, no repeats
        assert_eq!(
            injection_order(&[(NodeId(1), Some(5)), (NodeId(2), Some(9))]),
            vec![NodeId(1), NodeId(2)]
        );
    }
}
