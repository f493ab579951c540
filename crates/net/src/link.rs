//! Link models: latency, jitter, loss, realm-scoped multicast membership
//! and TCP-like stream bookkeeping.
//!
//! The model is deliberately simple and explicit — discovery time is
//! dominated by propagation latency, datagram loss and topology, so those
//! are what we model. Loss applies to datagrams only; streams are
//! reliable but pay connection setup (one RTT on first use) and preserve
//! per-connection ordering.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use nb_wire::v2::SegmentWriter;
use nb_wire::{Endpoint, GroupId, NodeId, Port, RealmId, SegmentFrame, SymTabReader, SymTabWriter};
use rand::rngs::StdRng;
use rand::Rng;

use crate::chaos::{Fault, PacketFaults};
use crate::stats::NetStats;
use crate::time::SimTime;

/// One direction of a network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way latency.
    pub latency: Duration,
    /// Uniform jitter: each packet adds `U(0, jitter)`.
    pub jitter: Duration,
    /// Probability an individual datagram is lost.
    pub loss: f64,
    /// Link bandwidth in bytes/second (`None` = unlimited). Messages pay
    /// a serialisation delay of `len / bandwidth`, and back-to-back sends
    /// from the same node to the same peer queue behind one another.
    pub bandwidth: Option<u64>,
}

impl LinkSpec {
    /// Loopback within a single machine.
    pub fn local() -> LinkSpec {
        LinkSpec {
            latency: Duration::from_micros(20),
            jitter: Duration::from_micros(10),
            loss: 0.0,
            bandwidth: None,
        }
    }

    /// A LAN hop within one realm (100 Mbit/s, 2005-era switched LAN).
    pub fn lan() -> LinkSpec {
        LinkSpec {
            latency: Duration::from_micros(300),
            jitter: Duration::from_micros(150),
            loss: 0.0005,
            bandwidth: Some(12_500_000),
        }
    }

    /// A WAN path with the given one-way latency. Jitter scales to 10% of
    /// latency; loss grows with distance (~0.1% per 25 ms), modelling the
    /// paper's observation that responses crossing more router hops are
    /// likelier to be lost. Bandwidth defaults to 10 Mbit/s (a 2005-era
    /// academic WAN path's per-flow share).
    pub fn wan(one_way: Duration) -> LinkSpec {
        let ms = one_way.as_secs_f64() * 1e3;
        LinkSpec {
            latency: one_way,
            jitter: one_way.mul_f64(0.10),
            loss: (0.001 * ms / 25.0).min(0.05),
            bandwidth: Some(1_250_000),
        }
    }

    /// Serialisation delay for a message of `len` bytes. Every send
    /// asks, so it divides in `u64`: `len · 10⁹` fits for any frame
    /// (up to 18 GB).
    fn transmission_delay(&self, len: usize) -> Duration {
        match self.bandwidth {
            None => Duration::ZERO,
            Some(bw) => Duration::from_nanos((len as u64).saturating_mul(1_000_000_000) / bw.max(1)),
        }
    }

    /// Replaces the loss probability.
    pub fn with_loss(mut self, loss: f64) -> LinkSpec {
        self.loss = loss;
        self
    }

    /// Samples a one-way latency for one packet.
    pub fn sample_latency<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        let j = self.jitter.as_nanos() as u64;
        if j == 0 {
            self.latency
        } else {
            self.latency + Duration::from_nanos(rng.gen_range(0..=j))
        }
    }

    /// Samples whether a datagram is lost.
    pub fn sample_loss<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss > 0.0 && rng.gen::<f64>() < self.loss
    }

    /// Rolls the dice for one datagram on this path — loss, then
    /// latency — and returns its one-way delay unless it is lost.
    pub(crate) fn roll<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Duration> {
        (!self.sample_loss(rng)).then(|| self.sample_latency(rng))
    }
}

/// The outcome of sending one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatagramFate {
    /// Delivered after the given one-way delay.
    Deliver(Duration),
    /// Lost in transit.
    Lost,
    /// No path (partition or unknown node).
    Unreachable,
}

/// The static network model: who is where, and what the paths look like.
/// Its collections are ordered, so every walk of one is deterministic.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// `realms[node id]`; node ids are dense from zero, and every send
    /// reads two of these.
    realms: Vec<Option<RealmId>>,
    overrides: BTreeMap<(NodeId, NodeId), LinkSpec>,
    /// `overridden[node id]`: whether an override names the node at all.
    overridden: Vec<bool>,
    partitions: BTreeSet<(NodeId, NodeId)>,
    /// Directed severed paths `(from, to)` — asymmetric partitions where
    /// traffic one way is black-holed while replies still flow.
    directed_partitions: BTreeSet<(NodeId, NodeId)>,
    groups: BTreeMap<GroupId, BTreeSet<NodeId>>,
    /// Path used within a node (loopback).
    pub local_spec: LinkSpec,
    /// Default path between nodes sharing a realm.
    pub intra_realm_spec: LinkSpec,
    /// Default path between realms (overridden per pair for WAN scenarios).
    pub inter_realm_spec: LinkSpec,
    /// Whether multicast delivery works at all. Networks without
    /// multicast routing (the common WAN case in the paper) set this
    /// false: sends succeed but reach nobody.
    pub multicast_enabled: bool,
    /// The packet-fault window every datagram send meets: inactive
    /// outside a plan's `SetPacketFaults` … `ClearPacketFaults`.
    pub(crate) packet_faults: PacketFaults,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel::new()
    }
}

impl NetworkModel {
    /// A model with loopback/LAN/WAN defaults and no nodes.
    pub fn new() -> NetworkModel {
        NetworkModel {
            realms: Vec::new(),
            overrides: BTreeMap::new(),
            overridden: Vec::new(),
            partitions: BTreeSet::new(),
            directed_partitions: BTreeSet::new(),
            groups: BTreeMap::new(),
            local_spec: LinkSpec::local(),
            intra_realm_spec: LinkSpec::lan(),
            inter_realm_spec: LinkSpec::wan(Duration::from_millis(40)),
            multicast_enabled: true,
            packet_faults: PacketFaults::none(),
        }
    }

    /// Registers a node in a realm. Must be called before traffic flows.
    pub fn register_node(&mut self, node: NodeId, realm: RealmId) {
        let slot = node.0 as usize;
        if slot >= self.realms.len() {
            self.realms.resize(slot + 1, None);
        }
        self.realms[slot] = Some(realm);
    }

    /// The realm a node lives in, if registered.
    pub fn realm_of(&self, node: NodeId) -> Option<RealmId> {
        self.realms.get(node.0 as usize).copied().flatten()
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Overrides the path between `a` and `b` (symmetric).
    pub fn set_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.overrides.insert(Self::key(a, b), spec);
        let len = self.overridden.len().max(a.0.max(b.0) as usize + 1);
        self.overridden.resize(len, false);
        (self.overridden[a.0 as usize], self.overridden[b.0 as usize]) = (true, true);
    }

    /// Severs the path between `a` and `b` (fault injection).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(Self::key(a, b));
    }

    /// Restores a severed path.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&Self::key(a, b));
    }

    /// Whether `a`↔`b` is currently severed.
    fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::key(a, b))
    }

    /// Severs only the directed path `from -> to` (asymmetric fault:
    /// `to` can still send back to `from`).
    pub fn partition_one_way(&mut self, from: NodeId, to: NodeId) {
        self.directed_partitions.insert((from, to));
    }

    /// Restores the directed path `from -> to`.
    pub fn heal_one_way(&mut self, from: NodeId, to: NodeId) {
        self.directed_partitions.remove(&(from, to));
    }

    /// Whether traffic `from -> to` is blocked by any partition,
    /// symmetric or directed.
    pub fn path_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.is_partitioned(from, to) || self.directed_partitions.contains(&(from, to))
    }

    /// The effective path spec for traffic `a -> b`, or `None` when
    /// unreachable (partitioned or unregistered).
    pub fn spec_between(&self, a: NodeId, b: NodeId) -> Option<LinkSpec> {
        if self.path_blocked(a, b) {
            return None;
        }
        let named = |n: NodeId| self.overridden.get(n.0 as usize) == Some(&true);
        if let Some(s) = (named(a) && named(b)).then(|| self.overrides.get(&Self::key(a, b))).flatten() {
            return Some(*s);
        }
        if a == b {
            return Some(self.local_spec);
        }
        let (ra, rb) = (self.realm_of(a)?, self.realm_of(b)?);
        Some(if ra == rb { self.intra_realm_spec } else { self.inter_realm_spec })
    }

    /// Rolls the dice for one datagram from `a` to `b`.
    pub fn datagram_fate<R: Rng + ?Sized>(&self, a: NodeId, b: NodeId, rng: &mut R) -> DatagramFate {
        match self.spec_between(a, b) {
            None => DatagramFate::Unreachable,
            Some(spec) => spec.roll(rng).map_or(DatagramFate::Lost, DatagramFate::Deliver),
        }
    }

    /// The path a reliable stream message `a -> b` travels (no loss;
    /// retransmission cost is folded into jitter), or `None` when it
    /// cannot. Streams need both directions — ACKs must flow — so a
    /// directed partition either way stalls them. The send path looks
    /// this up once per send, then samples the latency and charges the
    /// wire from the same copy.
    fn stream_spec(&self, a: NodeId, b: NodeId) -> Option<LinkSpec> {
        if self.directed_partitions.contains(&(b, a)) {
            return None;
        }
        self.spec_between(a, b)
    }

    /// Adds `node` to `group`.
    pub fn join_group(&mut self, group: GroupId, node: NodeId) {
        self.groups.entry(group).or_default().insert(node);
    }

    /// Removes `node` from `group`.
    pub fn leave_group(&mut self, group: GroupId, node: NodeId) {
        if let Some(members) = self.groups.get_mut(&group) {
            members.remove(&node);
        }
    }

    /// Scales the loss probability of every path (defaults and per-pair
    /// overrides) by `factor`, clamping at 1.0. Used by loss-sensitivity
    /// ablations.
    pub fn scale_loss(&mut self, factor: f64) {
        let scale = |spec: &mut LinkSpec| spec.loss = (spec.loss * factor).clamp(0.0, 1.0);
        scale(&mut self.local_spec);
        scale(&mut self.intra_realm_spec);
        scale(&mut self.inter_realm_spec);
        for spec in self.overrides.values_mut() {
            scale(spec);
        }
    }

    /// The smallest base latency any message between two *distinct*
    /// nodes can experience: the minimum over the intra-realm and
    /// inter-realm defaults and every distinct-pair override. This is
    /// the conservative lookahead window of the sharded engine
    /// ([`crate::shard::ShardedSim`]): no event executed at time `t` can
    /// schedule a cross-node delivery earlier than `t + min_latency`
    /// (jitter, bandwidth serialisation and stream setup only add
    /// delay). The loopback spec is deliberately excluded — self-sends
    /// never cross a shard boundary.
    pub fn min_cross_node_latency(&self) -> Duration {
        let mut min = self.intra_realm_spec.latency.min(self.inter_realm_spec.latency);
        for ((a, b), spec) in &self.overrides {
            if a != b && spec.latency < min {
                min = spec.latency;
            }
        }
        min
    }

    /// Applies a network-wide fault: a partition or a heal, symmetric or
    /// one-way, or the opening or closing of a packet-fault window. A
    /// node-scoped fault is not the model's and is ignored.
    pub(crate) fn apply_fault(&mut self, fault: &Fault) {
        match *fault {
            Fault::Partition { a, b } => self.partition(a, b),
            Fault::Heal { a, b } => self.heal(a, b),
            Fault::PartitionOneWay { from, to } => self.partition_one_way(from, to),
            Fault::HealOneWay { from, to } => self.heal_one_way(from, to),
            Fault::SetPacketFaults { faults } => self.packet_faults = faults,
            Fault::ClearPacketFaults => self.packet_faults = PacketFaults::none(),
            _ => {}
        }
    }

    /// Multicast recipients for a sender: members of `group` in the
    /// sender's realm, excluding the sender itself. Multicast never
    /// crosses realms.
    pub fn multicast_recipients(&self, group: GroupId, sender: NodeId) -> Vec<NodeId> {
        if !self.multicast_enabled {
            return Vec::new();
        }
        let Some(sender_realm) = self.realm_of(sender) else {
            return Vec::new();
        };
        let Some(members) = self.groups.get(&group) else {
            return Vec::new();
        };
        // `members` is a BTreeSet, so iteration is already ascending:
        // the fan-out order is deterministic without an explicit sort.
        members
            .iter()
            .copied()
            .filter(|&n| n != sender && self.realm_of(n) == Some(sender_realm))
            .collect()
    }
}

/// The v2 codec state of a connection, seen from the node that owns the
/// record: the symbol-table writer for what it sends the peer, with the
/// segment encoder it reuses, and the reader for what the peer sends
/// it, with the frame buffer it decodes into. Reused, the two buffers
/// leave a warm hop one allocation a side: the segment's bytes, the
/// delivered message. A crash of either end forgets both ends' halves.
#[derive(Default)]
pub(crate) struct V2Link {
    pub(crate) enc: SymTabWriter,
    pub(crate) segment: SegmentWriter,
    pub(crate) dec: SymTabReader,
    pub(crate) frames: Vec<SegmentFrame>,
}

/// What few connections carry, kept out of line: the streams of port
/// pairs beyond the first (each with the arrival of its last message)
/// and, on a v2 link, the codec.
#[derive(Default)]
struct Extra {
    streams: Vec<((Port, Port), SimTime)>,
    v2: Option<V2Link>,
}

/// Everything a node holds about its connection to one peer — the
/// record of a directed node pair.
pub(crate) struct Conn {
    peer: NodeId,
    /// The `(from, to)` ports of the first stream opened on the
    /// connection. A stream exists from the send that paid its
    /// handshake, or from the accept that spared it one.
    ports: Option<(Port, Port)>,
    /// That stream's FIFO clamp: the arrival of the last message sent
    /// on it.
    last_arrival: SimTime,
    /// The instant the sender's wire to the peer is free: a message of
    /// `len` bytes occupies it for `transmission_delay(len)`, starting
    /// no earlier than the previous one finished serialising.
    free_at: SimTime,
    extra: Option<Box<Extra>>,
}

impl Conn {
    fn idle(peer: NodeId) -> Conn {
        Conn { peer, ports: None, last_arrival: SimTime::ZERO, free_at: SimTime::ZERO, extra: None }
    }

    /// Whether the record says nothing an absent one would not: no
    /// stream, no codec table, and a wire that is free by `now`.
    fn is_idle(&self, now: SimTime) -> bool {
        self.ports.is_none() && self.extra.is_none() && self.free_at <= now
    }

    /// Computes when a `len`-byte message sent at `now` finishes
    /// serialising onto the wire, and holds the wire until then.
    fn serialize(&mut self, now: SimTime, len: usize, spec: &LinkSpec) -> SimTime {
        self.free_at = self.free_at.max(now) + spec.transmission_delay(len);
        self.free_at
    }

    /// The FIFO clamp of the stream on `ports`, if it is open.
    fn stream(&mut self, ports: (Port, Port)) -> Option<&mut SimTime> {
        if self.ports == Some(ports) {
            return Some(&mut self.last_arrival);
        }
        let more = &mut self.extra.as_mut()?.streams;
        more.iter_mut().find(|s| s.0 == ports).map(|s| &mut s.1)
    }

    /// Opens the stream on `ports`, which must not be open.
    fn open(&mut self, ports: (Port, Port)) -> &mut SimTime {
        if self.ports.is_none() {
            self.ports = Some(ports);
            return &mut self.last_arrival;
        }
        let more = &mut self.extra.get_or_insert_with(Box::default).streams;
        more.push((ports, SimTime::ZERO));
        let newest = more.len() - 1;
        &mut more[newest].1
    }

    /// Opens the stream on `ports` without charging setup, unless it is
    /// open already.
    fn accept(&mut self, ports: (Port, Port)) {
        if self.stream(ports).is_none() {
            self.open(ports);
        }
    }

    /// Computes the arrival time of a stream message that left the wire
    /// at `now` with a sampled `one_way` latency, charging connection
    /// setup (two extra one-way trips: SYN + SYN-ACK) on first use of
    /// the port pair and enforcing in-order delivery per direction.
    /// Also says whether this was that first use.
    fn delivery_time(&mut self, ports: (Port, Port), now: SimTime, one_way: Duration) -> (SimTime, bool) {
        let mut arrival = now + one_way;
        let (last, opened) = match self.stream(ports) {
            Some(last) => (last, false),
            None => {
                arrival += one_way + one_way;
                (self.open(ports), true)
            }
        };
        *last = arrival.max(*last);
        (*last, opened)
    }

    /// The connection's v2 codec, empty until first asked for.
    pub(crate) fn v2(&mut self) -> &mut V2Link {
        self.extra.get_or_insert_with(Box::default).v2.get_or_insert_with(V2Link::default)
    }
}

/// One node's connections: a record per peer, sorted by peer and
/// binary-searched, what a send reads and writes reached by one probe.
/// The far half of each connection lives in the peer's own table, so
/// when the node resets, `peers_stale` remembers that those halves are
/// still to be forgotten. `now` must never go backwards across calls (a
/// node's clock does not): idle records are dropped on that premise.
struct ConnTable {
    node: NodeId,
    conns: Vec<Conn>,
    peers_stale: bool,
}

impl ConnTable {
    fn new(node: NodeId) -> ConnTable {
        ConnTable { node, conns: Vec::new(), peers_stale: false }
    }

    /// The record of the node's connection to `peer`, made idle if
    /// absent. A table about to grow first drops its idle records — a
    /// wire that has drained is indistinguishable from one never used —
    /// so a node that answers many peers once each (a BDN, a broker's
    /// responder) keeps a table the size of what it has in flight.
    fn conn(&mut self, peer: NodeId, now: SimTime) -> &mut Conn {
        let conns = &mut self.conns;
        let i = match conns.binary_search_by_key(&peer, |c| c.peer) {
            Ok(i) => i,
            Err(mut i) => {
                if conns.len() == conns.capacity() {
                    conns.retain(|c| !c.is_idle(now));
                    i = conns.partition_point(|c| c.peer < peer);
                }
                conns.insert(i, Conn::idle(peer));
                i
            }
        };
        &mut conns[i]
    }

    /// When one stream message from this table's node `from -> to`
    /// arrives: `depart` charges the connection's wire and says when the
    /// message has left it, then the stream's setup charge and FIFO
    /// apply. A handshake opens the peer's side too, if that side is
    /// this table's (a stream to the node itself).
    fn stream_arrival(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        now: SimTime,
        one_way: Duration,
        depart: impl FnOnce(&mut Conn) -> SimTime,
    ) -> SimTime {
        debug_assert_eq!(self.node, from.node, "a node sends from its own table");
        let conn = self.conn(to.node, now);
        let departs = depart(conn);
        let (at, opened) = conn.delivery_time((from.port, to.port), departs, one_way);
        if opened {
            self.accept(to, from, now);
        }
        at
    }

    /// Opens `at -> from` without charging setup, if `at` is this
    /// table's node.
    fn accept(&mut self, at: Endpoint, from: Endpoint, now: SimTime) {
        if at.node == self.node {
            self.conn(from.node, now).accept((at.port, from.port));
        }
    }

    /// Opens `a <-> b` without charging setup: whichever halves are this
    /// table's.
    fn mark_established(&mut self, a: Endpoint, b: Endpoint, now: SimTime) {
        self.accept(a, b, now);
        self.accept(b, a, now);
    }

    /// Whether `from -> to` has an established connection here.
    #[cfg(test)]
    fn is_established(&self, from: Endpoint, to: Endpoint) -> bool {
        let ports = (from.port, to.port);
        let conn = self.conns.binary_search_by_key(&to.node, |c| c.peer).ok().map(|i| &self.conns[i]);
        from.node == self.node
            && conn.is_some_and(|conn| {
                conn.ports == Some(ports)
                    || conn.extra.as_ref().is_some_and(|e| e.streams.iter().any(|s| s.0 == ports))
            })
    }

    /// Forgets every connection involving `node` (crash/restart):
    /// streams, wire queues and codec tables alike. The table's own node
    /// empties it; any other node is forgotten as a peer.
    fn reset_node(&mut self, node: NodeId) {
        if node == self.node {
            self.conns.clear();
            self.peers_stale = true;
        } else if let Ok(i) = self.conns.binary_search_by_key(&node, |c| c.peer) {
            self.conns.remove(i);
        }
    }
}

/// Whether a send arrives, when, and whether twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arrival {
    pub(crate) at: SimTime,
    /// The duplication fault's extra copy (datagrams only).
    pub(crate) duplicate_at: Option<SimTime>,
}

/// The two things a send touches besides the model and the counters,
/// one pair per node: the node's RNG stream (seeded
/// `seed ^ node_id`, its first draws the node's clock) and its
/// connection table, so what a node draws and how its connections stand
/// are a function of the seed, its id and its own sends and accepts.
/// The counters a send bumps are its engine's, handed in: they are
/// sums, so who holds them never moves a total.
pub(crate) struct Transport {
    pub(crate) rng: StdRng,
    conns: ConnTable,
}

impl Transport {
    /// The transport of `node`.
    pub(crate) fn for_node(rng: StdRng, node: NodeId) -> Transport {
        Transport { rng, conns: ConnTable::new(node) }
    }

    /// Forgets everything the connections involving `node` carried:
    /// streams, wire queues, v2 symbol tables.
    pub(crate) fn reset_node(&mut self, node: NodeId) {
        self.conns.reset_node(node);
    }

    /// Whether the node has reset since last asked, leaving its peers'
    /// transports holding the far halves of connections that no longer
    /// exist.
    pub(crate) fn take_peers_stale(&mut self) -> bool {
        std::mem::take(&mut self.conns.peers_stale)
    }

    /// Records `a <-> b` as established without charging setup, for
    /// whichever end is this transport's node: the receiver of a
    /// stream's first message accepts it (`NodeCtx::accept`).
    pub(crate) fn mark_established(&mut self, a: Endpoint, b: Endpoint, now: SimTime) {
        self.conns.mark_established(a, b, now);
    }

    /// The record of the node's connection to `peer`: where a v2 segment
    /// from `peer` is decoded.
    pub(crate) fn conn(&mut self, peer: NodeId, now: SimTime) -> &mut Conn {
        self.conns.conn(peer, now)
    }

    /// Sends one datagram at `now`; `None` if it never arrives. The
    /// draws, in order: loss, latency ([`LinkSpec::roll`], as
    /// [`NetworkModel::datagram_fate`]), then — inside the model's
    /// packet-fault window — corrupt, reorder and its delay, duplicate
    /// and its delay. A probability of zero rolls no die and a path with no
    /// jitter draws no latency, so what a send consumes depends on the
    /// link and the window it meets, never on the destination's state:
    /// a send to a down node rolls and schedules like any other, and
    /// the up-check happens at delivery.
    ///
    /// `len` is asked for the body length only once the datagram is
    /// known to occupy the wire. It is the legacy body length (frame
    /// minus prelude) that is charged, which keeps pinned-seed timing —
    /// and thus delivery order — identical to the pre-frame engine. The
    /// counters a send bumps are the engine's, `stats`.
    pub(crate) fn send_datagram(
        &mut self,
        stats: &mut NetStats,
        net: &NetworkModel,
        now: SimTime,
        (from, to): (NodeId, NodeId),
        len: impl FnOnce() -> usize,
    ) -> Option<Arrival> {
        stats.datagrams_sent += 1;
        let Some(spec) = net.spec_between(from, to) else {
            stats.count_unreachable(net.path_blocked(from, to));
            return None;
        };
        let Some(lat) = spec.roll(&mut self.rng) else {
            stats.datagrams_lost += 1;
            return None;
        };
        let len = len();
        // Serialisation onto the wire (bandwidth model), then the
        // sampled propagation latency.
        let mut at = self.conns.conn(to, now).serialize(now, len, &spec) + lat;
        let mut duplicate_at = None;
        let faults = &net.packet_faults;
        if faults.is_active() {
            let extra_ns = faults.extra_delay.as_nanos() as u64;
            let extra_delay = |rng: &mut StdRng| match extra_ns {
                0 => Duration::ZERO,
                _ => Duration::from_nanos(rng.gen_range(0..=extra_ns)),
            };
            if faults.corrupt > 0.0 && self.rng.gen::<f64>() < faults.corrupt {
                // Arrived with a bad checksum: the wire was paid for,
                // the receiver drops it.
                stats.datagrams_corrupted += 1;
                return None;
            }
            if faults.reorder > 0.0 && self.rng.gen::<f64>() < faults.reorder {
                stats.datagrams_reordered += 1;
                at += extra_delay(&mut self.rng);
            }
            if faults.duplicate > 0.0 && self.rng.gen::<f64>() < faults.duplicate {
                stats.datagrams_duplicated += 1;
                duplicate_at = Some(at + extra_delay(&mut self.rng));
            }
        }
        Some(Arrival { at, duplicate_at })
    }

    /// Sends a message on the reliable stream `from -> to` at `now`;
    /// `None` (counted by fate, `len` never asked) if the stream has no
    /// path. `len` is handed the connection's record and answers the
    /// bytes to charge. One draw — the latency — then one probe for the
    /// record: serialisation onto its wire, then its setup charge and
    /// FIFO, which is also what keeps a v2 link's symbol definitions
    /// ahead of the frames that refer to them.
    pub(crate) fn send_stream(
        &mut self,
        stats: &mut NetStats,
        net: &NetworkModel,
        now: SimTime,
        from: Endpoint,
        to: Endpoint,
        len: impl FnOnce(&mut Conn) -> usize,
    ) -> Option<Arrival> {
        let Some(spec) = net.stream_spec(from.node, to.node) else {
            // A stream needs both directions: a partition of either
            // severs it.
            let (a, b) = (from.node, to.node);
            stats.count_unreachable(net.path_blocked(a, b) || net.path_blocked(b, a));
            return None;
        };
        let lat = spec.sample_latency(&mut self.rng);
        let at = self.conns.stream_arrival(from, to, now, lat, |conn| {
            let sent = len(conn);
            conn.serialize(now, sent, &spec)
        });
        Some(Arrival { at, duplicate_at: None })
    }
}

/// The three ordered books the connection table replaced — wire clocks
/// by node pair, established streams and FIFO clamps by endpoint pair —
/// kept as the oracle `differential` compares against: every arrival
/// time and every established bit must agree. (The third, the retired
/// serial engine's map of v2 link tables, answered nothing but presence.)
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet};
    use std::time::Duration;

    use nb_wire::{Endpoint, NodeId};

    use super::LinkSpec;
    use crate::time::SimTime;

    #[derive(Default)]
    pub struct WireBook {
        free_at: BTreeMap<(NodeId, NodeId), SimTime>,
    }

    impl WireBook {
        pub fn serialize(
            &mut self,
            from: NodeId,
            to: NodeId,
            now: SimTime,
            len: usize,
            spec: &LinkSpec,
        ) -> SimTime {
            let tx = spec.transmission_delay(len);
            let entry = self.free_at.entry((from, to)).or_insert(SimTime::ZERO);
            let start = if *entry > now { *entry } else { now };
            let done = start + tx;
            *entry = done;
            done
        }

        pub fn reset_node(&mut self, node: NodeId) {
            self.free_at.retain(|(a, b), _| *a != node && *b != node);
        }
    }

    #[derive(Default)]
    pub struct StreamBook {
        established: BTreeSet<(Endpoint, Endpoint)>,
        last_arrival: BTreeMap<(Endpoint, Endpoint), SimTime>,
    }

    impl StreamBook {
        pub fn delivery_time(
            &mut self,
            from: Endpoint,
            to: Endpoint,
            now: SimTime,
            one_way: Duration,
        ) -> SimTime {
            let key = (from, to);
            let mut arrival = now + one_way;
            if !self.established.contains(&key) {
                // Full-duplex: establishing a->b also establishes b->a.
                self.established.insert(key);
                self.established.insert((to, from));
                arrival += one_way + one_way;
            }
            if let Some(&last) = self.last_arrival.get(&key) {
                if arrival < last {
                    arrival = last;
                }
            }
            self.last_arrival.insert(key, arrival);
            arrival
        }

        pub fn is_established(&self, from: Endpoint, to: Endpoint) -> bool {
            self.established.contains(&(from, to))
        }

        pub fn mark_established(&mut self, a: Endpoint, b: Endpoint) {
            if !self.established.contains(&(a, b)) {
                self.established.insert((a, b));
                self.established.insert((b, a));
            }
        }

        pub fn reset_node(&mut self, node: NodeId) {
            self.established.retain(|(a, b)| a.node != node && b.node != node);
            self.last_arrival.retain(|(a, b), _| a.node != node && b.node != node);
        }
    }
}

/// Random interleavings of every connection-state operation, against
/// one table a node and the books it replaced.
#[cfg(test)]
mod differential {
    use proptest::prelude::*;

    use super::reference::{StreamBook, WireBook};
    use super::*;

    const NODES: u32 = 8;

    #[derive(Debug, Clone)]
    enum Op {
        /// A datagram's wire charge.
        Serialize { from: u32, to: u32, len: usize },
        /// A stream message that leaves the wire the instant it is sent.
        DeliveryTime { from: Endpoint, to: Endpoint, lat_us: u64 },
        /// A stream send: the wire charge, then the delivery time.
        Send { from: Endpoint, to: Endpoint, len: usize, lat_us: u64 },
        MarkEstablished { a: Endpoint, b: Endpoint },
        IsEstablished { from: Endpoint, to: Endpoint },
        ResetNode(u32),
    }

    /// Half of what happens, happens at node 0: its row fills, grows
    /// and drops idle records while wires in it are still busy.
    fn arb_actor() -> impl Strategy<Value = u32> {
        (0..NODES, any::<bool>()).prop_map(|(node, hub)| if hub { 0 } else { node })
    }

    fn arb_ends() -> impl Strategy<Value = (Endpoint, Endpoint)> {
        (arb_actor(), 0u16..3, 0..NODES, 0u16..3).prop_map(|(a, p, b, q)| {
            (Endpoint::new(NodeId(a), Port(p)), Endpoint::new(NodeId(b), Port(q)))
        })
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let len = || 0usize..200_000;
        let lat = || 0u64..50_000;
        let serialize = || {
            (arb_actor(), 0..NODES, len()).prop_map(|(from, to, len)| Op::Serialize { from, to, len })
        };
        let send = || {
            (arb_ends(), len(), lat())
                .prop_map(|((from, to), len, lat_us)| Op::Send { from, to, len, lat_us })
        };
        prop_oneof![
            serialize(),
            serialize(),
            send(),
            send(),
            (arb_ends(), lat()).prop_map(|((from, to), lat_us)| Op::DeliveryTime { from, to, lat_us }),
            arb_ends().prop_map(|(a, b)| Op::MarkEstablished { a, b }),
            arb_ends().prop_map(|(from, to)| Op::IsEstablished { from, to }),
            arb_ends().prop_map(|(to, from)| Op::IsEstablished { from, to }),
            (0..NODES).prop_map(Op::ResetNode),
        ]
    }

    /// What an operation answered, if it answers anything.
    #[derive(Debug, PartialEq)]
    enum Answer {
        At(SimTime),
        Established(bool),
        Nothing,
    }

    /// A table and the books it must agree with.
    struct Pair {
        table: ConnTable,
        wires: WireBook,
        streams: StreamBook,
    }

    impl Pair {
        fn new(table: ConnTable) -> Pair {
            Pair { table, wires: WireBook::default(), streams: StreamBook::default() }
        }

        /// Applies `op` at `now` to both; their answers.
        fn apply(&mut self, op: &Op, now: SimTime) -> (Answer, Answer) {
            let spec = LinkSpec::lan();
            let Pair { table, wires, streams } = self;
            match *op {
                Op::Serialize { from, to, len } => {
                    let (from, to) = (NodeId(from), NodeId(to));
                    (
                        Answer::At(table.conn(to, now).serialize(now, len, &spec)),
                        Answer::At(wires.serialize(from, to, now, len, &spec)),
                    )
                }
                Op::DeliveryTime { from, to, lat_us } => {
                    let lat = Duration::from_micros(lat_us);
                    (
                        Answer::At(table.stream_arrival(from, to, now, lat, |_| now)),
                        Answer::At(streams.delivery_time(from, to, now, lat)),
                    )
                }
                Op::Send { from, to, len, lat_us } => {
                    let lat = Duration::from_micros(lat_us);
                    let departs = wires.serialize(from.node, to.node, now, len, &spec);
                    (
                        Answer::At(table.stream_arrival(from, to, now, lat, |conn| {
                            conn.serialize(now, len, &spec)
                        })),
                        Answer::At(streams.delivery_time(from, to, departs, lat)),
                    )
                }
                Op::MarkEstablished { a, b } => {
                    table.mark_established(a, b, now);
                    streams.mark_established(a, b);
                    (Answer::Nothing, Answer::Nothing)
                }
                Op::IsEstablished { from, to } => (
                    Answer::Established(table.is_established(from, to)),
                    Answer::Established(streams.is_established(from, to)),
                ),
                Op::ResetNode(node) => {
                    table.reset_node(NodeId(node));
                    wires.reset_node(NodeId(node));
                    streams.reset_node(NodeId(node));
                    (Answer::Nothing, Answer::Nothing)
                }
            }
        }
    }

    /// The node whose state `op` reads and writes: the sender, the
    /// accepting end, the end asked about. A reset is every node's.
    fn acting_node(op: &Op) -> Option<u32> {
        match op {
            Op::Serialize { from, .. } => Some(*from),
            Op::DeliveryTime { from, .. } | Op::Send { from, .. } | Op::IsEstablished { from, .. } => {
                Some(from.node.0)
            }
            Op::MarkEstablished { a, .. } => Some(a.node.0),
            Op::ResetNode(_) => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn the_connection_table_agrees_with_the_books_it_replaced(
            steps in prop::collection::vec((0u64..2_000, arb_op()), 1..200),
        ) {
            // A table and a set of books per node, each touched only by
            // what its own node does.
            let mut per_node: Vec<Pair> = (0..NODES).map(|n| Pair::new(ConnTable::new(NodeId(n)))).collect();
            let mut now = SimTime::ZERO;
            for (advance_us, op) in &steps {
                now += Duration::from_micros(*advance_us);
                let acting = match acting_node(op) {
                    Some(n) => n as usize..n as usize + 1,
                    None => 0..NODES as usize,
                };
                for pair in &mut per_node[acting] {
                    let (got, want) = pair.apply(op, now);
                    prop_assert_eq!(got, want, "{:?} at {:?}", op, now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_wire::Port;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn model_with(n: u32) -> NetworkModel {
        let mut m = NetworkModel::new();
        for i in 0..n {
            m.register_node(NodeId(i), RealmId((i % 2) as u16));
        }
        m
    }

    /// How many draws `send` took from the transport's RNG stream.
    fn draws<T>(t: &mut Transport, send: impl FnOnce(&mut Transport) -> T) -> (usize, T) {
        let mut reference = t.rng.clone();
        let out = send(t);
        let mut taken = 0;
        while reference != t.rng {
            reference.next_u64();
            taken += 1;
            assert!(taken <= 16, "the stream diverged");
        }
        (taken, out)
    }

    /// What a datagram send consumes, fate by fate. A zero probability
    /// rolls no die — a fault window does *not* consume a fixed number
    /// of draws — and pinned digests depend on exactly this table.
    #[test]
    fn datagram_draws_per_fate() {
        let (a, b) = (NodeId(0), NodeId(1));
        let at = SimTime::from_millis(5);
        // A loss probability that always rolls and never loses.
        let rolls = LinkSpec::lan().with_loss(f64::MIN_POSITIVE);
        let send = |spec: LinkSpec, to: NodeId, faults: PacketFaults| {
            let mut net = model_with(2);
            net.intra_realm_spec = spec;
            net.inter_realm_spec = spec;
            net.packet_faults = faults;
            let (mut t, mut stats) = (Transport::for_node(rng(), a), NetStats::default());
            let (taken, sent) = draws(&mut t, |t| t.send_datagram(&mut stats, &net, at, (a, to), || 100));
            (taken, sent, stats)
        };
        let window = |corrupt: f64, reorder: f64, duplicate: f64, extra_ms: u64| PacketFaults {
            corrupt,
            reorder,
            duplicate,
            extra_delay: Duration::from_millis(extra_ms),
        };
        let off = PacketFaults::none();

        // No path: nothing rolled, counted by fate.
        let (taken, sent, stats) = send(rolls, NodeId(9), off);
        assert_eq!((taken, sent), (0, None));
        assert_eq!((stats.unreachable, stats.unreachable_no_path), (1, 1));
        // Lost: the loss roll only.
        let (taken, sent, stats) = send(rolls.with_loss(1.0), b, off);
        assert_eq!((taken, sent, stats.datagrams_lost), (1, None, 1));
        // Delivered, faults off: loss, then latency; each only if the
        // link can lose, can jitter.
        assert_eq!(send(rolls, b, off).0, 2);
        assert_eq!(send(rolls.with_loss(0.0), b, off).0, 1);
        assert_eq!(send(LinkSpec { jitter: Duration::ZERO, ..rolls.with_loss(0.0) }, b, off).0, 0);
        // Corrupt at 1: its roll, and the send ends there.
        let (taken, sent, stats) = send(rolls, b, window(1.0, 1.0, 1.0, 80));
        assert_eq!((taken, sent, stats.datagrams_corrupted), (3, None, 1));
        // Reorder at 1, the others at 0: its roll and its delay.
        let (taken, sent, stats) = send(rolls, b, window(0.0, 1.0, 0.0, 80));
        assert_eq!((taken, stats.datagrams_reordered), (4, 1));
        assert_eq!(sent.and_then(|s| s.duplicate_at), None);
        // ...and with no extra delay configured, its roll alone.
        assert_eq!(send(rolls, b, window(0.0, 1.0, 0.0, 0)).0, 3);
        // Duplicate at 1, the others at 0: its roll and its delay.
        let (taken, sent, stats) = send(rolls, b, window(0.0, 0.0, 1.0, 80));
        assert_eq!((taken, stats.datagrams_duplicated), (4, 1));
        let sent = sent.expect("delivered");
        assert!(sent.duplicate_at.is_some_and(|dup| dup >= sent.at));
        // Reorder and duplicate at 1: both pairs, in that order.
        assert_eq!(send(rolls, b, window(0.0, 1.0, 1.0, 80)).0, 6);
    }

    #[test]
    fn stream_send_draws_the_latency_only_and_charges_setup_once() {
        let net = model_with(4);
        let a = Endpoint::new(NodeId(0), Port(1));
        let b = Endpoint::new(NodeId(2), Port(2));
        let (mut t, mut stats) = (Transport::for_node(rng(), a.node), NetStats::default());
        let (taken, first) = draws(&mut t, |t| t.send_stream(&mut stats, &net, SimTime::ZERO, a, b, |_| 100));
        let (_, warm) = draws(&mut t, |t| t.send_stream(&mut stats, &net, SimTime::from_secs(1), a, b, |_| 100));
        assert_eq!(taken, 1);
        let lan = net.intra_realm_spec.latency;
        assert!(first.expect("same realm").at >= SimTime::ZERO + lan * 3);
        assert!(warm.expect("same realm").at < SimTime::from_secs(1) + lan * 3);
        // No path: the length is never asked for, nothing is drawn.
        let gone = Endpoint::new(NodeId(9), Port(2));
        let sent = draws(&mut t, |t| t.send_stream(&mut stats, &net, SimTime::ZERO, a, gone, |_| unreachable!()));
        assert_eq!(sent, (0, None));
        assert_eq!((stats.unreachable, stats.unreachable_no_path), (1, 1));
    }

    #[test]
    fn defaults_by_realm() {
        let m = model_with(4);
        // 0 and 2 share realm 0 -> LAN
        assert_eq!(m.spec_between(NodeId(0), NodeId(2)).unwrap(), m.intra_realm_spec);
        // 0 and 1 differ -> WAN
        assert_eq!(m.spec_between(NodeId(0), NodeId(1)).unwrap(), m.inter_realm_spec);
        // loopback
        assert_eq!(m.spec_between(NodeId(0), NodeId(0)).unwrap(), m.local_spec);
        // unregistered
        assert!(m.spec_between(NodeId(0), NodeId(99)).is_none());
    }

    #[test]
    fn overrides_and_partitions() {
        let mut m = model_with(2);
        let fast = LinkSpec::wan(Duration::from_millis(5));
        m.set_link(NodeId(0), NodeId(1), fast);
        assert_eq!(m.spec_between(NodeId(1), NodeId(0)).unwrap(), fast);
        m.partition(NodeId(0), NodeId(1));
        assert!(m.spec_between(NodeId(0), NodeId(1)).is_none());
        assert_eq!(m.datagram_fate(NodeId(0), NodeId(1), &mut rng()), DatagramFate::Unreachable);
        m.heal(NodeId(0), NodeId(1));
        assert_eq!(m.spec_between(NodeId(0), NodeId(1)).unwrap(), fast);
    }

    #[test]
    fn latency_sampling_within_bounds() {
        let spec = LinkSpec::wan(Duration::from_millis(50));
        let mut r = rng();
        for _ in 0..1000 {
            let l = spec.sample_latency(&mut r);
            assert!(l >= spec.latency);
            assert!(l <= spec.latency + spec.jitter);
        }
    }

    #[test]
    fn loss_rate_roughly_matches() {
        let spec = LinkSpec::local().with_loss(0.3);
        let mut r = rng();
        let lost = (0..20_000).filter(|_| spec.sample_loss(&mut r)).count();
        let rate = lost as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn wan_loss_grows_with_distance() {
        let near = LinkSpec::wan(Duration::from_millis(5));
        let far = LinkSpec::wan(Duration::from_millis(100));
        assert!(far.loss > near.loss);
        assert!(far.loss <= 0.05);
    }

    #[test]
    fn multicast_is_realm_scoped_and_excludes_sender() {
        let mut m = model_with(6); // realms: even->0, odd->1
        let g = GroupId(9);
        for i in 0..6 {
            m.join_group(g, NodeId(i));
        }
        let got = m.multicast_recipients(g, NodeId(0));
        assert_eq!(got, vec![NodeId(2), NodeId(4)]);
        m.leave_group(g, NodeId(2));
        assert_eq!(m.multicast_recipients(g, NodeId(0)), vec![NodeId(4)]);
        // sender not in the group still reaches members in its realm
        assert_eq!(m.multicast_recipients(g, NodeId(4)), vec![NodeId(0)]);
    }

    fn ends() -> (Endpoint, Endpoint) {
        (Endpoint::new(NodeId(0), Port(1)), Endpoint::new(NodeId(1), Port(2)))
    }

    #[test]
    fn stream_book_charges_setup_once() {
        let (a, b) = ends();
        let (mut at_a, mut at_b) = (ConnTable::new(a.node), ConnTable::new(b.node));
        let lat = Duration::from_millis(10);
        let t1 = at_a.stream_arrival(a, b, SimTime::ZERO, lat, |_| SimTime::ZERO);
        assert_eq!(t1.as_millis(), 30); // 1 data + 2 setup trips
        let t2 = at_a.stream_arrival(a, b, t1, lat, |_| t1);
        assert_eq!(t2.as_millis(), 40); // established now
        // The receiver accepts on the first message's arrival, so the
        // reverse direction pays no handshake.
        assert!(!at_b.is_established(b, a));
        at_b.mark_established(b, a, t1);
        let t3 = at_b.stream_arrival(b, a, t2, lat, |_| SimTime::from_millis(35));
        assert_eq!(t3.as_millis(), 45);
        // A second port pair on the same connection is its own stream.
        let c = Endpoint::new(a.node, Port(7));
        let t4 = at_a.stream_arrival(c, b, t3, lat, |_| t3);
        assert_eq!((t4 - t3).as_millis(), 30);
        assert!(at_a.is_established(c, b) && at_a.is_established(a, b) && !at_b.is_established(b, c));
    }

    #[test]
    fn stream_book_enforces_ordering() {
        let (a, b) = ends();
        let mut book = ConnTable::new(a.node);
        let t1 = book.stream_arrival(a, b, SimTime::ZERO, Duration::from_millis(50), |_| SimTime::ZERO);
        // Second message sent later but with much lower sampled latency
        // must not overtake the first.
        let later = SimTime::from_millis(60);
        let t2 = book.stream_arrival(a, b, later, Duration::from_millis(1), |_| later);
        assert!(t2 >= t1);
    }

    #[test]
    fn stream_book_reset_node_forces_new_handshake() {
        let (a, b) = ends();
        let mut book = ConnTable::new(a.node);
        book.stream_arrival(a, b, SimTime::ZERO, Duration::from_millis(10), |_| SimTime::ZERO);
        assert!(book.is_established(a, b));
        book.reset_node(b.node);
        assert!(!book.is_established(a, b));
        assert!(!book.peers_stale, "forgetting a peer leaves the peers nothing to forget");
        let later = SimTime::from_millis(100);
        let t = book.stream_arrival(a, b, later, Duration::from_millis(10), |_| later);
        assert_eq!(t.as_millis(), 130); // setup charged again
        book.reset_node(a.node);
        assert!(book.conns.is_empty() && book.peers_stale);
    }

    /// The hazard a by-sender index inside every node would be: 2 102
    /// rows in each of 2 102 transports. A node's transport holds its
    /// own connections and nothing else, whatever its id, and never the
    /// far half of a connection — nothing at the node would read it.
    #[test]
    fn a_transport_built_for_one_node_holds_one_row() {
        let mut net = NetworkModel::new();
        for n in [3, 7, 2000] {
            net.register_node(NodeId(n), RealmId(0));
        }
        let me = Endpoint::new(NodeId(2000), Port(1));
        let (dialled, accepted) = (Endpoint::new(NodeId(3), Port(2)), Endpoint::new(NodeId(7), Port(2)));
        let mut own = Transport::for_node(rng(), me.node);
        assert!(own.send_stream(&mut NetStats::default(), &net, SimTime::ZERO, me, dialled, |_| 100).is_some());
        own.mark_established(me, accepted, SimTime::ZERO);
        assert!(own.conns.is_established(me, dialled) && own.conns.is_established(me, accepted));
        assert_eq!(own.conns.conns.iter().map(|c| c.peer).collect::<Vec<_>>(), [dialled.node, accepted.node]);
        assert!(!own.conns.is_established(dialled, me) && !own.conns.is_established(accepted, me));
    }

    /// ROADMAP item 4's leak: a responder's wire state kept one dead
    /// record per peer it ever answered.
    #[test]
    fn datagrams_to_many_idle_peers_leave_a_bounded_row() {
        const PEERS: u32 = 10_000;
        let mut net = NetworkModel::new();
        for n in 0..=PEERS {
            net.register_node(NodeId(n), RealmId(0));
        }
        let mut t = Transport::for_node(rng(), NodeId(0));
        let (mut now, mut stats) = (SimTime::ZERO, NetStats::default());
        for peer in 1..=PEERS {
            // Each answer has long left the wire by the next one.
            now += Duration::from_millis(10);
            let sent = t.send_datagram(&mut stats, &net, now, (NodeId(0), NodeId(peer)), || 200);
            assert!(sent.is_some() || stats.datagrams_lost > 0);
        }
        let records = t.conns.conns.len();
        assert!(records <= 4, "{records} wire records after {PEERS} one-off peers");
        // A wire still busy is never dropped: back-to-back sends to
        // fresh peers all queue, and each peer's second message
        // queues behind its first.
        let burst: Vec<NodeId> = (1..=64).map(NodeId).collect();
        let spec = net.intra_realm_spec;
        let first: Vec<SimTime> =
            burst.iter().map(|&p| t.conns.conn(p, now).serialize(now, 12_500, &spec)).collect();
        for (&p, &done) in burst.iter().zip(&first) {
            let again = t.conns.conn(p, now).serialize(now, 12_500, &spec);
            assert_eq!(again, done + spec.transmission_delay(12_500));
        }
    }
}

#[cfg(test)]
mod bandwidth_tests {
    use super::*;
    use nb_wire::NodeId;
    use std::time::Duration;

    #[test]
    fn transmission_delay_math() {
        let spec = LinkSpec::lan(); // 12.5 MB/s
        assert_eq!(spec.transmission_delay(0), Duration::ZERO);
        assert_eq!(spec.transmission_delay(12_500_000), Duration::from_secs(1));
        assert_eq!(spec.transmission_delay(1_250), Duration::from_micros(100));
        let unlimited = LinkSpec::local();
        assert_eq!(unlimited.transmission_delay(1 << 30), Duration::ZERO);
    }

    #[test]
    fn transmission_delay_divides_in_u64_as_it_did_in_u128() {
        for len in [0, 1, 1_500, 64 * 1024, nb_wire::MAX_FRAME_LEN, 1 << 30] {
            for bw in [1, 1_250_000, 12_500_000, u64::MAX] {
                let spec = LinkSpec { bandwidth: Some(bw), ..LinkSpec::lan() };
                let u128_nanos = ((len as u128).saturating_mul(1_000_000_000) / u128::from(bw)) as u64;
                assert_eq!(spec.transmission_delay(len), Duration::from_nanos(u128_nanos), "{len} B at {bw} B/s");
            }
        }
    }

    #[test]
    fn wire_book_serialises_back_to_back_sends() {
        let (a, b) = (NodeId(0), NodeId(1));
        let mut book = ConnTable::new(a);
        let spec = LinkSpec::wan(Duration::from_millis(10)); // 1.25 MB/s
        let mut send = |to, at_ms| {
            let now = SimTime::from_millis(at_ms);
            book.conn(to, now).serialize(now, 125_000, &spec)
        };
        // Two 125 KB messages sent at t=0: the second queues behind the
        // first (100 ms serialisation each).
        assert_eq!(send(b, 0).as_millis(), 100);
        assert_eq!(send(b, 0).as_millis(), 200);
        // A different destination has its own wire.
        assert_eq!(send(NodeId(2), 0).as_millis(), 100);
        // After the wire drains, sends start fresh.
        assert_eq!(send(b, 500).as_millis(), 600);
    }

    #[test]
    fn wire_book_reset_clears_node_state() {
        let (a, b, now) = (NodeId(0), NodeId(1), SimTime::ZERO);
        let mut book = ConnTable::new(a);
        let spec = LinkSpec::wan(Duration::from_millis(10));
        book.conn(b, now).serialize(now, 1_250_000, &spec); // busy 1s
        book.reset_node(b);
        let d = book.conn(b, now).serialize(now, 1_250, &spec);
        assert_eq!(d.as_millis(), 1, "queue state was cleared");
    }
}
