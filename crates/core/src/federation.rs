//! The BDN registry ([`LeaseBook`]) and BDN federation: gossip-replicated
//! advertisement leases.
//!
//! The paper keeps each BDN an isolated registry — BDNs "need not agree"
//! — so a client whose configured BDNs all die simply cannot discover
//! anyone. This module goes past the paper (ROADMAP item 2): BDNs form a
//! seeded peer set and run periodic **anti-entropy** rounds. Each round a
//! BDN picks a deterministic partner, sends an FNV-1a digest of its
//! registry, and on mismatch the pair exchanges full lease/tombstone
//! snapshots ([`nb_wire::FederationSync`], three legs: Digest → Push →
//! PushReply).
//!
//! [`LeaseBook`] is the registry every [`crate::Bdn`] owns, and the merge
//! that lets replicas converge: a join-semilattice over each broker's
//! states, ordered by the origin-stamped `issued_at_utc`, in which an
//! expired lease leaves a tombstone so a stale peer cannot resurrect it
//! (DESIGN.md §14 gives the order and why a tombstone may be forgotten).
//! A local advertisement and a peer's lease record pass the same rule
//! ([`LeaseBook::apply_lease`]), a peer tombstone and a record that
//! expired in flight the same tombstone operation, and the ping sweep one
//! expiry operation. Federation adds only gossip and the tombstone an
//! expiry leaves behind.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::time::Duration;

use nb_net::SimTime;
use nb_wire::{BrokerAdvertisement, LeaseRecord, NodeId, TombstoneRecord, Wire, WireWriter};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

pub use nb_util::{fnv1a64_step, FNV_OFFSET};

/// The most tombstones a federated BDN keeps: oldest retired stamps are
/// evicted first.
pub const MAX_TOMBSTONES: usize = 1024;
/// The most lease or tombstone records a BDN accepts in one sync
/// (peer-supplied — anything larger is counted malformed).
pub const MAX_SYNC_ENTRIES: usize = 4096;

/// Federation configuration. `None` in [`crate::BdnConfig::federation`]
/// disables the subsystem entirely: no timers, no RNG draws, no wire
/// traffic — a non-federated BDN is byte-identical to the pre-federation
/// build.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Every BDN in the federation (the local node may be listed; it
    /// never picks itself as a partner).
    pub peers: Vec<NodeId>,
    /// Anti-entropy round period.
    pub round_interval: Duration,
    /// How long a tombstone outlives the last lease it could block.
    pub tombstone_ttl: Duration,
    /// Seed for the partner-selection stream. Each BDN derives a private
    /// RNG from `seed ^ node_id`, so partner choice is deterministic and
    /// never perturbs the node's main RNG stream.
    pub seed: u64,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            peers: Vec::new(),
            round_interval: Duration::from_secs(2),
            tombstone_ttl: Duration::from_secs(300),
            seed: 0,
        }
    }
}

/// Per-fate federation counters, mirroring the `NetStats` pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FederationStats {
    /// Anti-entropy rounds initiated.
    pub rounds_run: u64,
    /// Digest probes answered whose digest already matched.
    pub digests_matched: u64,
    /// Digest probes answered whose digest mismatched (snapshot pushed).
    pub digests_mismatched: u64,
    /// Lease records sent in push legs.
    pub entries_pushed: u64,
    /// Lease records accepted from a peer into the registry.
    pub entries_pulled: u64,
    /// Tombstones accepted from a peer (or minted from an expired
    /// incoming lease).
    pub tombstones_applied: u64,
    /// Tombstones dropped by TTL pruning.
    pub tombstones_expired: u64,
    /// Stale advertisements or lease records rejected by a tombstone.
    pub resurrections_blocked: u64,
}

/// A registry entry for one advertised broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registered {
    /// The most recent advertisement.
    pub ad: BrokerAdvertisement,
    /// Measured round-trip time to the broker, µs. Local to this BDN:
    /// never gossiped, never digested, kept across lease refreshes.
    pub rtt_us: Option<u64>,
    /// When the lease lapses (BDN-local). A broker past this instant is
    /// never chosen for injection.
    pub expires_at: SimTime,
}

/// What [`LeaseBook::apply_lease`] did with a lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseOutcome {
    /// Stored (fresh entry or superseding refresh).
    Stored,
    /// Dropped: an equal-or-newer lease is already held.
    Superseded,
    /// Dropped: a tombstone retires it.
    Tombstoned,
}

/// What [`LeaseBook::apply_tombstone`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TombstoneOutcome {
    /// A held lease at or below the stamp was retired.
    pub retired: bool,
    /// The stamp was recorded: no equal-or-newer one was held.
    pub recorded: bool,
}

/// Does a lease `(ad, expires_at)` supersede `held` under the lease total
/// order? Ties (identical stamp, bytes and expiry) do **not** supersede,
/// so re-applying a lease is a no-op (idempotence).
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

/// Does a tombstone at stamp `t` retire a lease issued at `issued_at`?
/// The tombstone wins exact ties: it was minted *from* that lease.
fn tombstone_blocks(t: u64, issued_at: u64) -> bool {
    issued_at <= t
}

/// The BDN registry: live leases by broker plus, when federated, the
/// bounded tombstone cache, with merge as the pointwise join described
/// in the module docs. Every lease and tombstone a [`crate::Bdn`] takes
/// in goes through [`LeaseBook::apply_lease`] or
/// [`LeaseBook::apply_tombstone`] (the ping sweep's `expire` too), so the
/// semilattice proptests drive the code the BDN runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseBook {
    /// Ordered so that sweeps, snapshots and the digest are deterministic
    /// regardless of insertion history.
    leases: BTreeMap<NodeId, Registered>,
    tombstones: BTreeMap<NodeId, u64>,
    max_tombstones: usize,
}

impl LeaseBook {
    /// An empty book keeping at most `max_tombstones` tombstones (oldest
    /// stamp evicted first). A book that keeps none is the non-federated
    /// registry: an expired lease simply drops.
    pub fn new(max_tombstones: usize) -> LeaseBook {
        LeaseBook { leases: BTreeMap::new(), tombstones: BTreeMap::new(), max_tombstones }
    }

    /// Registered broker count (live or lapsed but not yet swept).
    pub(crate) fn len(&self) -> usize {
        self.leases.len()
    }

    /// The entry for `broker`.
    pub fn get(&self, broker: NodeId) -> Option<&Registered> {
        self.leases.get(&broker)
    }

    /// Records a measured RTT to `broker`, if it is registered.
    pub(crate) fn set_rtt(&mut self, broker: NodeId, rtt_us: u64) {
        if let Some(entry) = self.leases.get_mut(&broker) {
            entry.rtt_us = Some(rtt_us);
        }
    }

    /// Every entry, in broker order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (NodeId, &Registered)> {
        self.leases.iter().map(|(&b, r)| (b, r))
    }

    /// Every tombstone `(broker, retired stamp)`, in broker order.
    pub fn tombstones(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.tombstones.iter().map(|(&b, &t)| (b, t))
    }

    /// Whether `broker` holds a lease live at `now` that its own
    /// tombstone retires — a resurrected ghost. Never true while the
    /// merge keeps its invariant.
    pub fn resurrected(&self, broker: NodeId, now: SimTime) -> bool {
        match (self.leases.get(&broker), self.tombstones.get(&broker)) {
            (Some(reg), Some(&t)) => {
                now <= reg.expires_at && tombstone_blocks(t, reg.ad.issued_at_utc)
            }
            _ => false,
        }
    }

    /// Applies one lease (the per-broker join with a lease). A stored
    /// refresh keeps the entry's measured RTT.
    pub fn apply_lease(&mut self, ad: BrokerAdvertisement, expires_at: SimTime) -> LeaseOutcome {
        let broker = ad.broker;
        if let Some(&t) = self.tombstones.get(&broker) {
            if tombstone_blocks(t, ad.issued_at_utc) {
                return LeaseOutcome::Tombstoned;
            }
            // Strictly newer lease: the tombstone is fully retired.
            self.tombstones.remove(&broker);
        }
        let rtt_us = match self.leases.get(&broker) {
            Some(held) if !lease_supersedes(&ad, expires_at, held) => {
                return LeaseOutcome::Superseded;
            }
            held => held.and_then(|h| h.rtt_us),
        };
        self.leases.insert(broker, Registered { ad, rtt_us, expires_at });
        LeaseOutcome::Stored
    }

    /// Applies one tombstone (the per-broker join with a tombstone): a
    /// strictly newer lease beats it; otherwise it retires the held lease
    /// and its stamp is kept, bound permitting.
    pub fn apply_tombstone(&mut self, broker: NodeId, t: u64) -> TombstoneOutcome {
        let mut out = TombstoneOutcome::default();
        if let Some(held) = self.leases.get(&broker) {
            if !tombstone_blocks(t, held.ad.issued_at_utc) {
                return out;
            }
            self.leases.remove(&broker);
            out.retired = true;
        }
        if self.max_tombstones == 0 || self.tombstones.get(&broker).is_some_and(|&have| have >= t) {
            return out;
        }
        self.tombstones.insert(broker, t);
        out.recorded = true;
        while self.tombstones.len() > self.max_tombstones {
            // Evict the oldest retired stamp (ties: lowest broker id).
            let Some((&oldest, _)) = self.tombstones.iter().min_by_key(|&(b, &t)| (t, b.0)) else {
                break;
            };
            self.tombstones.remove(&oldest);
        }
        out
    }

    /// The ping sweep: drops every lease lapsed at `now`, each through
    /// [`LeaseBook::apply_tombstone`] at its own stamp, so a federated
    /// book keeps a tombstone a stale peer cannot gossip past. Returns
    /// how many lapsed.
    pub(crate) fn expire(&mut self, now: SimTime) -> usize {
        let lapsed: Vec<(NodeId, u64)> = self
            .leases
            .iter()
            .filter(|(_, reg)| now > reg.expires_at)
            .map(|(&b, reg)| (b, reg.ad.issued_at_utc))
            .collect();
        for &(broker, stamp) in &lapsed {
            self.apply_tombstone(broker, stamp);
        }
        lapsed.len()
    }

    /// TTL pruning: a tombstone is safe to forget once every lease it
    /// could block has certainly expired (`t + ad_ttl`) and the grace
    /// window `tombstone_ttl` has passed. Returns how many were dropped.
    pub(crate) fn prune(&mut self, now_us: u64, ad_ttl: Duration, tombstone_ttl: Duration) -> u64 {
        let horizon = ad_ttl.as_micros() as u64 + tombstone_ttl.as_micros() as u64;
        let before = self.tombstones.len();
        self.tombstones.retain(|_, &mut t| t.saturating_add(horizon) > now_us);
        (before - self.tombstones.len()) as u64
    }

    /// FNV-1a-64 digest of the replicated state at `now`: sorted live
    /// leases (broker, stamp, ad bytes — expiry and RTT deliberately
    /// excluded, they are arrival-local), then sorted tombstones. Two
    /// BDNs with equal digests hold interchangeable registries.
    pub fn digest(&self, now: SimTime) -> u64 {
        let mut h = FNV_OFFSET;
        let mut w = WireWriter::new();
        for (broker, reg) in self.leases.iter().filter(|(_, reg)| now <= reg.expires_at) {
            h = fnv1a64_step(h, &broker.0.to_le_bytes());
            h = fnv1a64_step(h, &reg.ad.issued_at_utc.to_le_bytes());
            w.clear();
            reg.ad.encode(&mut w);
            h = fnv1a64_step(h, w.as_slice());
        }
        h = fnv1a64_step(h, &[0xFF]);
        for (broker, t) in &self.tombstones {
            h = fnv1a64_step(h, &broker.0.to_le_bytes());
            h = fnv1a64_step(h, &t.to_le_bytes());
        }
        h
    }

    /// Wire-ready snapshot of the leases live at `now`, in broker order.
    pub fn live_records(&self, now: SimTime) -> Vec<LeaseRecord> {
        self.leases
            .values()
            .filter(|reg| now <= reg.expires_at)
            .map(|reg| LeaseRecord {
                ad: reg.ad.clone(),
                expires_at_us: reg.expires_at.as_micros(),
            })
            .collect()
    }

    /// Wire-ready snapshot of the tombstone cache, in broker order.
    pub fn tombstone_records(&self) -> Vec<TombstoneRecord> {
        self.tombstones()
            .map(|(broker, t)| TombstoneRecord { broker, lease_issued_utc: t })
            .collect()
    }
}

/// Per-BDN federation runtime state: config, counters and the private
/// partner-selection RNG. The tombstones live in the BDN's [`LeaseBook`].
#[derive(Debug)]
pub struct Federation {
    /// Static configuration.
    pub cfg: FederationConfig,
    /// Counters surfaced in campaign reports.
    pub stats: FederationStats,
    rng: Option<StdRng>,
}

impl Federation {
    /// Fresh state from `cfg`.
    pub fn new(cfg: FederationConfig) -> Federation {
        Federation { cfg, stats: FederationStats::default(), rng: None }
    }

    /// Picks this round's partner: a uniformly-drawn peer other than
    /// `me`, from a private seeded stream keyed on the node id.
    pub fn pick_partner(&mut self, me: NodeId) -> Option<NodeId> {
        let candidates: Vec<NodeId> =
            self.cfg.peers.iter().copied().filter(|&p| p != me).collect();
        if candidates.is_empty() {
            return None;
        }
        let seed = self.cfg.seed ^ u64::from(me.0);
        let rng = self.rng.get_or_insert_with(|| StdRng::seed_from_u64(seed));
        let idx = (rng.next_u64() % candidates.len() as u64) as usize;
        candidates.get(idx).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_wire::RealmId;

    fn ad(broker: u32, issued: u64) -> BrokerAdvertisement {
        BrokerAdvertisement {
            broker: NodeId(broker),
            hostname: format!("b{broker}"),
            logical_address: format!("nb://x/{broker}"),
            realm: RealmId(1),
            transports: vec![],
            geography: None,
            institution: None,
            issued_at_utc: issued,
        }
    }

    fn lease(book: &mut LeaseBook, broker: u32, issued: u64, expires_us: u64) -> LeaseOutcome {
        book.apply_lease(ad(broker, issued), SimTime::from_micros(expires_us))
    }

    #[test]
    fn newer_lease_wins_and_clears_tombstone() {
        let mut book = LeaseBook::new(16);
        assert!(book.apply_tombstone(NodeId(1), 100).recorded);
        assert_eq!(lease(&mut book, 1, 100, 500), LeaseOutcome::Tombstoned);
        assert_eq!(lease(&mut book, 1, 101, 500), LeaseOutcome::Stored);
        assert_eq!(book.tombstones().count(), 0);
        // Re-applying the tombstone now loses to the newer lease.
        assert_eq!(book.apply_tombstone(NodeId(1), 100), TombstoneOutcome::default());
        assert!(book.get(NodeId(1)).is_some());
    }

    #[test]
    fn stale_lease_is_superseded() {
        let mut book = LeaseBook::new(16);
        assert_eq!(lease(&mut book, 1, 200, 900), LeaseOutcome::Stored);
        book.set_rtt(NodeId(1), 7);
        assert_eq!(lease(&mut book, 1, 150, 900), LeaseOutcome::Superseded);
        assert_eq!(lease(&mut book, 1, 200, 900), LeaseOutcome::Superseded);
        // Same stamp, longer expiry: refresh, measured RTT kept.
        assert_eq!(lease(&mut book, 1, 200, 950), LeaseOutcome::Stored);
        assert_eq!(book.get(NodeId(1)).and_then(|r| r.rtt_us), Some(7));
    }

    #[test]
    fn digest_ignores_expiry_but_sees_tombstones() {
        let mut a = LeaseBook::new(16);
        let mut b = LeaseBook::new(16);
        lease(&mut a, 1, 200, 900);
        lease(&mut b, 1, 200, 905); // arrival jitter on the expiry
        let now = SimTime::ZERO;
        assert_eq!(a.digest(now), b.digest(now));
        b.apply_tombstone(NodeId(2), 50);
        assert_ne!(a.digest(now), b.digest(now));
    }

    #[test]
    fn tombstone_cache_is_bounded_and_evicts_oldest() {
        let mut book = LeaseBook::new(2);
        book.apply_tombstone(NodeId(1), 100);
        book.apply_tombstone(NodeId(2), 50);
        book.apply_tombstone(NodeId(3), 200);
        let kept: Vec<(NodeId, u64)> = book.tombstones().collect();
        assert_eq!(kept, vec![(NodeId(1), 100), (NodeId(3), 200)], "oldest stamp evicted");
    }

    #[test]
    fn prune_respects_combined_horizon() {
        let mut book = LeaseBook::new(16);
        let (ad_ttl, tombstone_ttl) = (Duration::from_secs(30), Duration::from_secs(10));
        // An expired lease leaves its stamp behind.
        lease(&mut book, 1, 1_000_000, 5);
        assert_eq!(book.expire(SimTime::from_micros(6)), 1);
        // 1s stamp + 30s ad_ttl + 10s grace = safe from 41s.
        assert_eq!(book.prune(40_999_999, ad_ttl, tombstone_ttl), 0);
        assert_eq!(book.tombstones().collect::<Vec<_>>(), vec![(NodeId(1), 1_000_000)]);
        assert_eq!(book.prune(41_000_000, ad_ttl, tombstone_ttl), 1);
        assert_eq!(book.tombstones().count(), 0);
    }

    #[test]
    fn partner_stream_is_deterministic_and_excludes_self() {
        let cfg = FederationConfig {
            peers: vec![NodeId(10), NodeId(11), NodeId(12)],
            seed: 42,
            ..FederationConfig::default()
        };
        let mut a = Federation::new(cfg.clone());
        let mut b = Federation::new(cfg);
        for _ in 0..32 {
            let pa = a.pick_partner(NodeId(11));
            assert_eq!(pa, b.pick_partner(NodeId(11)));
            assert_ne!(pa, Some(NodeId(11)));
        }
    }
}
