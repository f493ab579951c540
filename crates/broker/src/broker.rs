//! The broker state machine.
//!
//! A broker maintains overlay **links** to neighbouring brokers and
//! **client** connections, routes published events to interested parties
//! (subscription-based routing with split-horizon interest propagation),
//! and *floods* events on the two discovery-plane topics, the discovery
//! request and the BDN advertisement — the mechanism the discovery
//! scheme uses so that "the request can reach each broker connected in
//! the network" (paper §10) — with UUID duplicate suppression bounding
//! the cost (paper §4's last-1000 cache).
//!
//! A cyclic overlay pays for that cache with discarded copies, so every
//! topic but the BDN advertisement prunes per publisher (DESIGN.md §18;
//! a request's is the BDN that injected it): the neighbour a duplicate
//! came from is asked, with a leased [`Message::Prune`], to stop sending
//! that publisher's events on this link. Flooding is what the same loop
//! does wherever no live mute says otherwise, and the duplicate cache
//! stays underneath, so delivery never depends on the tree being right.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::topic::{BDN_ADVERTISEMENT, DISCOVERY_REQUEST};
use nb_wire::{Endpoint, Event, Message, NodeId, Topic, TopicFilter, WireMsg, FLAG_V2_CAPABLE};

use nb_net::{Context, Incoming, SimTime};

use crate::metrics::{MachineProfile, UsageMeter};
use crate::topics::{Destination, Interest, SubscriptionTable};

/// Timer token namespace reserved by the broker (owners embedding a
/// [`Broker`] must not use tokens with this prefix).
const BROKER_TIMER_BASE: u64 = 0xB00B_0000_0000_0000;
const TIMER_HEARTBEAT: u64 = BROKER_TIMER_BASE | 1;

/// Capacity of the event duplicate-suppression cache (paper §4's last
/// 1000), and the most publishers [`Routes`] keeps reverse paths for.
pub const DEDUP_CAPACITY: usize = 1000;
/// Interval between link heartbeats.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(2);
/// Consecutive missed heartbeats before a link is declared dead.
const HEARTBEAT_MISSES: u32 = 3;

/// Static broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Hostname reported in advertisements and responses.
    pub hostname: String,
    /// NaradaBrokering logical address within the overlay.
    pub logical_address: String,
    /// Host machine model (memory, CPU scale).
    pub machine: MachineProfile,
    /// Brokers to establish overlay links to at start.
    pub neighbors: Vec<NodeId>,
    /// Maximum concurrent client connections (`None` = unlimited).
    pub max_clients: Option<u32>,
    /// Announce v2 wire-codec capability on link handshakes and use the
    /// compact v2 stream path towards peers that announced it too.
    /// Off by default; links to v1-only peers (and all client traffic)
    /// stay on the v1 path either way.
    pub wire_v2: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            hostname: "broker.local".into(),
            logical_address: "nb://default/broker".into(),
            machine: MachineProfile::default_2005(),
            neighbors: Vec::new(),
            max_clients: None,
            wire_v2: false,
        }
    }
}

/// An established overlay link: `link_up` is the only place one is
/// made, and `link_down` the only place one goes.
#[derive(Debug)]
struct LinkState {
    endpoint: Endpoint,
    last_heard: SimTime,
    /// Whether the peer announced v2 wire-codec capability on its
    /// handshake; only then does traffic to it take the v2 path.
    peer_v2: bool,
}

impl LinkState {
    /// Sends a control message to the peer, wrapped once, on the codec
    /// the link negotiated.
    fn send(&self, msg: Message, ctx: &mut dyn Context) {
        self.forward(&WireMsg::new(msg), ctx);
    }

    /// Forwards an already-wrapped event to the peer, on the codec the
    /// link negotiated.
    fn forward(&self, fwd: &WireMsg, ctx: &mut dyn Context) {
        if self.peer_v2 {
            ctx.send_stream_v2(well_known::BROKER, self.endpoint, fwd);
        } else {
            ctx.send_stream_wire(well_known::BROKER, self.endpoint, fwd);
        }
    }
}

#[derive(Debug)]
struct ClientState {
    endpoint: Endpoint,
}

impl Interest {
    /// Brings the advertisement of the filter to each of `links` in line
    /// with its registrations: neighbour `L` should see it advertised
    /// iff a destination other than `L` itself registers it
    /// (per-neighbour split horizon). Each message sent takes the next
    /// `seq`.
    fn reconcile(&mut self, links: &BTreeMap<NodeId, LinkState>, seq: &mut u64, ctx: &mut dyn Context) {
        let me = ctx.me();
        for (&peer, link) in links {
            let should = self.wanted_beyond(peer);
            let at = self.advertised.binary_search(&peer);
            if should == at.is_ok() {
                continue;
            }
            *seq += 1;
            let filter = self.filter().clone();
            let msg = match at {
                Err(i) => {
                    if self.advertised.capacity() == 0 {
                        self.advertised.reserve_exact(links.len());
                    }
                    self.advertised.insert(i, peer);
                    Message::Subscribe { filter, origin: me, seq: *seq }
                }
                Ok(i) => {
                    self.advertised.remove(i);
                    Message::Unsubscribe { filter, origin: me, seq: *seq }
                }
            };
            link.send(msg, ctx);
        }
        if cfg!(debug_assertions) {
            self.assert_matches_recount(links.keys().copied());
        }
    }
}

/// What one link and this broker have asked of each other about one
/// publisher. `SimTime::ZERO` is "never": no instant is earlier.
#[derive(Debug, Clone, Copy, Default)]
struct LinkLease {
    /// The link was sent a `Prune` it honours until (about) this instant.
    asked_until: SimTime,
    /// The link sent a `Prune`: nothing of the publisher goes to it
    /// before this instant.
    muted_until: SimTime,
}

/// Soft reverse-path state for one publisher (`Event.source`).
#[derive(Debug)]
struct SourceRoute {
    /// The neighbour — a link, a local client, or this broker for its own
    /// events — the first fresh copy came from. It is never sent a
    /// `Prune`, so the parents of a publisher's events chain back to its
    /// ingress broker through links nobody muted.
    parent: Option<NodeId>,
    /// The neighbour every fresh copy since `feed_since` came from.
    feed: Option<NodeId>,
    /// When the feed last changed hands: R4's hold-down counts from it.
    feed_since: SimTime,
    /// When the latest fresh copy arrived. One lease of silence later
    /// nothing here can still be live and the entry counts as gone.
    last_fresh: SimTime,
    /// Sorted by peer; sized for every link by the first lease written.
    leases: Vec<(NodeId, LinkLease)>,
}

impl SourceRoute {
    /// A fresh copy arrived from `neighbour`: the first one names the
    /// parent.
    fn fresh_from(&mut self, neighbour: NodeId, now: SimTime) {
        self.parent.get_or_insert(neighbour);
        if self.feed != Some(neighbour) {
            self.feed = Some(neighbour);
            self.feed_since = now;
        }
        self.last_fresh = now;
    }

    fn find(&self, peer: NodeId) -> Result<usize, usize> {
        self.leases.binary_search_by_key(&peer, |&(p, _)| p)
    }

    fn lease(&self, peer: NodeId) -> LinkLease {
        self.find(peer).map(|i| self.leases[i].1).unwrap_or_default()
    }

    /// The lease of `peer`, one of `links` links: the first write sizes
    /// the vector for all of them, exactly and once.
    fn lease_mut(&mut self, peer: NodeId, links: usize) -> &mut LinkLease {
        let i = self.find(peer).unwrap_or_else(|i| {
            if self.leases.capacity() == 0 {
                self.leases.reserve_exact(links);
            }
            self.leases.insert(i, (peer, LinkLease::default()));
            i
        });
        &mut self.leases[i].1
    }

    /// R5: whatever was known through or about the link to `peer` is
    /// forgotten; a lost parent is simply unset.
    fn forget_link(&mut self, peer: NodeId) {
        if self.parent == Some(peer) {
            self.parent = None;
        }
        if self.feed == Some(peer) {
            self.feed = None;
        }
        if let Ok(i) = self.find(peer) {
            self.leases.remove(i);
        }
    }
}

/// Every publisher's [`SourceRoute`], behind one pointer: a broker
/// whose links no event has crossed yet carries no table.
#[derive(Debug, Default)]
struct Routes {
    by_source: BTreeMap<NodeId, SourceRoute>,
    /// The publishers in `by_source`, oldest entry first.
    order: VecDeque<NodeId>,
}

impl Routes {
    /// The live entry of `source`: one silent for longer than `lease`
    /// starts over (its allocation kept), an unknown one is not created.
    fn live(&mut self, source: NodeId, now: SimTime, lease: Duration) -> Option<&mut SourceRoute> {
        let route = self.by_source.get_mut(&source)?;
        if now - route.last_fresh > lease {
            route.parent = None;
            route.feed = None;
            route.leases.clear();
            route.last_fresh = now;
        }
        Some(route)
    }

    /// [`Routes::live`], creating the entry if need be. At `cap`
    /// publishers the oldest entry makes room, as in `BoundedDedup` —
    /// all it costs is that its publisher's next event floods again.
    fn entry(&mut self, source: NodeId, now: SimTime, lease: Duration, cap: usize) -> &mut SourceRoute {
        if !self.by_source.contains_key(&source) {
            if self.by_source.len() >= cap.max(1) {
                let oldest = self.order.pop_front().expect("at capacity, so not empty");
                self.by_source.remove(&oldest);
            }
            self.order.push_back(source);
            let route = SourceRoute {
                parent: None,
                feed: None,
                feed_since: now,
                last_fresh: now,
                leases: Vec::new(),
            };
            self.by_source.insert(source, route);
        }
        self.live(source, now, lease).expect("present or just inserted")
    }
}

/// The broker state machine. Embed it in an actor and feed it events via
/// [`Broker::handle`]; a system-topic event it routed is handed back, as
/// the frame it travels in, for the owner to act on.
pub struct Broker {
    cfg: BrokerConfig,
    /// The discovery-plane topics, request then BDN advertisement: their
    /// events go to every link and back to the owning actor.
    flood: [TopicFilter; 2],
    links: BTreeMap<NodeId, LinkState>,
    clients: BTreeMap<NodeId, ClientState>,
    /// Who registers each filter and which neighbours it is advertised
    /// to, one record a filter ([`Interest::reconcile`]).
    subs: SubscriptionTable,
    event_dedup: BoundedDedup<Uuid>,
    /// Per-publisher reverse-path state, allocated by the first
    /// non-flood event that crosses a link or the first duplicate
    /// request (so an acyclic overlay never holds a request's).
    routes: Option<Box<Routes>>,
    meter: UsageMeter,
    hb_seq: u64,
    /// Events routed through this broker (observability).
    pub events_routed: u64,
    /// Duplicate events suppressed (observability).
    pub duplicates_suppressed: u64,
    /// `Prune`s sent to neighbours (observability).
    pub prunes_sent: u64,
    /// `Prune`s received from neighbours (observability).
    pub prunes_received: u64,
    /// Times a publisher's parent moved to a faster feed (observability).
    pub reparented: u64,
    /// `Publish`es dropped because a sender that is not an overlay link
    /// named another node as the event's source (observability).
    pub forged_sources_dropped: u64,
}

impl Broker {
    /// A broker from `cfg`.
    pub fn new(cfg: BrokerConfig) -> Broker {
        let meter = UsageMeter::new(cfg.machine);
        Broker {
            cfg,
            flood: [DISCOVERY_REQUEST.filter(), BDN_ADVERTISEMENT.filter()],
            links: BTreeMap::new(),
            clients: BTreeMap::new(),
            subs: SubscriptionTable::new(),
            event_dedup: BoundedDedup::new(DEDUP_CAPACITY),
            routes: None,
            meter,
            hb_seq: 0,
            events_routed: 0,
            duplicates_suppressed: 0,
            prunes_sent: 0,
            prunes_received: 0,
            reparented: 0,
            forged_sources_dropped: 0,
        }
    }

    /// The broker's configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.cfg
    }

    /// Heap bytes of the event duplicate cache.
    pub fn dedup_bytes(&self) -> usize {
        self.event_dedup.heap_bytes()
    }

    /// Established overlay link count.
    pub fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Connected client count.
    pub fn num_clients(&self) -> u32 {
        self.clients.len() as u32
    }

    /// Whether an established link to `peer` exists.
    pub fn is_linked(&self, peer: NodeId) -> bool {
        self.links.contains_key(&peer)
    }

    /// Whether `client` is connected.
    pub fn has_client(&self, client: NodeId) -> bool {
        self.clients.contains_key(&client)
    }

    /// The distinct filters in this broker's aggregate interest, sorted.
    pub fn interest_filters(&self) -> Vec<TopicFilter> {
        self.subs.filters()
    }

    /// Diagnostic: the neighbour `source`'s events are expected from —
    /// the link or local client its first fresh copy came from — while
    /// this broker holds reverse-path state for that publisher.
    pub fn route_parent(&self, source: NodeId) -> Option<NodeId> {
        self.routes.as_ref()?.by_source.get(&source)?.parent
    }

    /// Current usage metric snapshot (paper §5.1(c)).
    pub fn metrics(&mut self, ctx: &mut dyn Context) -> nb_wire::UsageMetrics {
        let subs = self.subs.len() as u32;
        self.meter.snapshot(ctx.now(), self.num_clients(), self.num_links(), subs)
    }

    /// How long a silent link is still believed up — and so how long a
    /// `Prune` is believed: a mute is trusted exactly as long as the
    /// link it arrived on would be.
    fn lease(&self) -> Duration {
        HEARTBEAT_INTERVAL * HEARTBEAT_MISSES
    }

    /// Sends a link handshake message, announcing v2 wire capability on
    /// the frame prelude when this broker is configured for it. The
    /// flags byte is outside the body, so a v1 peer decodes the message
    /// unchanged and simply never reciprocates.
    fn send_handshake(&self, to: Endpoint, msg: Message, ctx: &mut dyn Context) {
        let flags = if self.cfg.wire_v2 { FLAG_V2_CAPABLE } else { 0 };
        ctx.send_stream_wire(well_known::BROKER, to, &WireMsg::new(msg).with_flags(flags));
    }

    /// Call from the owning actor's `on_start` — which a runtime also
    /// runs on a broker revived with its state kept, so every configured
    /// neighbour is dialled the way [`Broker::link_to`] dials.
    pub fn on_start(&mut self, ctx: &mut dyn Context) {
        for peer in self.cfg.neighbors.clone() {
            self.link_to(peer, ctx);
        }
        ctx.set_timer(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
    }

    /// Opens a link to `peer` at runtime (topology growth). Dialling a
    /// peer already linked starts the link over on both sides — the
    /// `LinkHello` does at the peer what `link_down` does here — so what
    /// the handshake re-advertises is counted once.
    pub fn link_to(&mut self, peer: NodeId, ctx: &mut dyn Context) {
        self.link_down(peer, ctx);
        let hello = Message::LinkHello { from: ctx.me(), realm: ctx.realm() };
        self.send_handshake(Endpoint::new(peer, well_known::BROKER), hello, ctx);
    }

    /// Publishes an event originating at this broker itself (the owner's
    /// services use this, e.g. a BDN flooding a discovery request).
    /// Returns what [`Broker::handle`] would for the same event.
    pub fn publish_local(
        &mut self,
        topic: Topic,
        payload: impl Into<Bytes>,
        ctx: &mut dyn Context,
    ) -> Option<WireMsg> {
        let id = Uuid::random(ctx.rng());
        let ev = Event { id, topic, source: ctx.me(), payload: payload.into() };
        self.route_event(ev, None, ctx)
    }

    /// Feeds one incoming runtime event. When it was a fresh event on a
    /// system (flood) topic, the `Publish` frame it arrived in is
    /// returned for the owning actor to act on — one input surfaces at
    /// most one event, and handing back the handle copies nothing.
    pub fn handle(&mut self, event: Incoming, ctx: &mut dyn Context) -> Option<WireMsg> {
        match event {
            Incoming::Stream { from, to_port, msg } if to_port == well_known::BROKER => {
                self.handle_stream(from, msg, ctx)
            }
            Incoming::Timer { token } if token == TIMER_HEARTBEAT => {
                self.heartbeat_tick(ctx);
                None
            }
            _ => None,
        }
    }

    fn handle_stream(
        &mut self,
        from: Endpoint,
        msg: WireMsg,
        ctx: &mut dyn Context,
    ) -> Option<WireMsg> {
        let from_link = match self.links.get_mut(&from.node) {
            Some(link) => {
                link.last_heard = ctx.now();
                true
            }
            None => false,
        };
        // Peek-dedup fast path (paper §4's last-1000 cache): a `Publish`
        // frame carries its event UUID at a fixed header offset, so a
        // duplicate is recognised and dropped from the header alone —
        // no traversal of the decoded event, no per-field work. A fresh
        // event continues into `route_deduped`, which must NOT insert
        // into the cache again.
        let header = msg.peek();
        if header.is_publish() {
            // Only a link relays others' events; any other sender speaks
            // for itself, or it could steer another publisher's reverse
            // path. Checked before the cache, so a forgery claims no id.
            if !from_link && matches!(msg.message(), Message::Publish(ev) if ev.source != from.node) {
                self.forged_sources_dropped += 1;
                return None;
            }
            let id = header.uuid.expect("publish frames carry an event id");
            if !self.event_dedup.check_and_insert(id) {
                self.duplicates_suppressed += 1;
                self.duplicate_from(&msg, from.node, ctx);
                return None;
            }
            return self.route_deduped(msg, Some(from.node), ctx);
        }
        // Capability bits live in the frame prelude; capture them before
        // the message is unwrapped.
        let peer_v2 = self.cfg.wire_v2 && msg.flags() & FLAG_V2_CAPABLE != 0;
        match msg.into_message() {
            Message::LinkHello { from: peer, .. } => {
                // A peer that says hello on a link that is up has
                // started over (a restart inside the heartbeat deadline,
                // or a repeat `link_to`) and holds nothing it was told:
                // start the link over here too, so `link_up` tells it
                // again. Only a `LinkHello` does this — on two brokers
                // dialling each other the `LinkAccept`s land on links
                // the crossing hellos already brought up, and must not
                // reset them.
                self.link_down(peer, ctx);
                let accept = Message::LinkAccept { from: ctx.me(), realm: ctx.realm() };
                self.send_handshake(Endpoint::new(peer, well_known::BROKER), accept, ctx);
                self.link_up(peer, peer_v2, ctx);
            }
            Message::LinkAccept { from: peer, .. } => {
                self.link_up(peer, peer_v2, ctx);
            }
            Message::LinkClose { from: peer } => {
                self.link_down(peer, ctx);
            }
            Message::Heartbeat { .. } => { /* freshness already recorded */ }
            // R3: the neighbour has a faster feed for `source`; nothing
            // of that publisher goes to it until the lease runs out.
            Message::Prune { source, lease_ms } if from_link => {
                let (now, lease) = (ctx.now(), self.lease());
                let routes = self.routes.get_or_insert_with(Default::default);
                let route = routes.entry(source, now, lease, DEDUP_CAPACITY);
                route.lease_mut(from.node, self.links.len()).muted_until =
                    now + lease.min(Duration::from_millis(lease_ms.into()));
                self.prunes_received += 1;
            }
            Message::Subscribe { filter, .. } if from_link => {
                self.subscribe(Destination::Link(from.node), filter, ctx);
            }
            Message::Unsubscribe { filter, .. } if from_link => {
                self.unsubscribe(Destination::Link(from.node), &filter, ctx);
            }
            Message::ClientConnect { client, reply_port } => {
                let accepted = self
                    .cfg
                    .max_clients
                    .is_none_or(|max| (self.clients.len() as u32) < max);
                if accepted {
                    self.clients
                        .insert(client, ClientState { endpoint: Endpoint::new(client, reply_port) });
                }
                let ack = Message::ClientConnectAck { broker: ctx.me(), accepted };
                ctx.send_stream(well_known::BROKER, Endpoint::new(client, reply_port), &ack);
            }
            Message::ClientSubscribe { filter } if self.clients.contains_key(&from.node) => {
                self.subscribe(Destination::Client(from.node), filter, ctx);
            }
            Message::ClientUnsubscribe { filter } if self.clients.contains_key(&from.node) => {
                self.unsubscribe(Destination::Client(from.node), &filter, ctx);
            }
            Message::ClientDisconnect { client } if self.clients.remove(&client).is_some() => {
                let (links, seq) = (&self.links, &mut self.hb_seq);
                self.subs.remove_destination_with(Destination::Client(client), |rec| {
                    rec.reconcile(links, seq, ctx);
                });
            }
            _ => {}
        }
        None
    }

    fn link_up(&mut self, peer: NodeId, peer_v2: bool, ctx: &mut dyn Context) {
        // Capability can only be granted by a handshake frame; a repeat
        // handshake may upgrade an existing link but never downgrades it.
        if let Some(link) = self.links.get_mut(&peer) {
            link.peer_v2 |= peer_v2;
            return;
        }
        let endpoint = Endpoint::new(peer, well_known::BROKER);
        self.links.insert(peer, LinkState { endpoint, last_heard: ctx.now(), peer_v2 });
        // Sync interest to the new neighbour. Every filter keeps the
        // registrations it had, so none falls idle here.
        for rec in self.subs.records_sorted() {
            rec.reconcile(&self.links, &mut self.hb_seq, ctx);
        }
    }

    fn link_down(&mut self, peer: NodeId, ctx: &mut dyn Context) {
        if self.links.remove(&peer).is_none() {
            return;
        }
        for route in self.routes.iter_mut().flat_map(|routes| routes.by_source.values_mut()) {
            route.forget_link(peer);
        }
        for rec in self.subs.records_sorted() {
            if let Ok(i) = rec.advertised.binary_search(&peer) {
                rec.advertised.remove(i);
            }
        }
        // Drop every registration learned from that link, then reconcile
        // the affected filters towards the survivors.
        let (links, seq) = (&self.links, &mut self.hb_seq);
        self.subs.remove_destination_with(Destination::Link(peer), |rec| rec.reconcile(links, seq, ctx));
    }

    /// Registers `filter` for `dest` and, when it is the destination's
    /// first registration of it, reconciles the per-neighbour
    /// advertisements. A new record has room for every link and one
    /// local client.
    fn subscribe(&mut self, dest: Destination, filter: TopicFilter, ctx: &mut dyn Context) {
        let (links, seq) = (&self.links, &mut self.hb_seq);
        self.subs.subscribe_with(dest, filter, links.len() + 1, |rec| rec.reconcile(links, seq, ctx));
    }

    /// Withdraws one registration of `filter` at `dest` and, when it was
    /// the last, reconciles.
    fn unsubscribe(&mut self, dest: Destination, filter: &TopicFilter, ctx: &mut dyn Context) {
        let (links, seq) = (&self.links, &mut self.hb_seq);
        self.subs.unsubscribe_with(dest, filter, |rec| rec.reconcile(links, seq, ctx));
    }

    /// Routes a locally originated event: dedup-inserts its UUID, then
    /// hands off to the shared zero-copy dispatch.
    fn route_event(
        &mut self,
        ev: Event,
        source: Option<NodeId>,
        ctx: &mut dyn Context,
    ) -> Option<WireMsg> {
        if !self.event_dedup.check_and_insert(ev.id) {
            self.duplicates_suppressed += 1;
            return None;
        }
        self.route_deduped(WireMsg::new(Message::Publish(ev)), source, ctx)
    }

    /// Dispatches an event already admitted past the duplicate cache.
    /// The frame is encoded (at most) once: local client deliveries
    /// reuse `msg`'s handle verbatim, and every link forward shares one
    /// hop-bumped handle on the same frame. A flood-topic event is
    /// returned to the caller — `msg` itself, not a copy of its event.
    fn route_deduped(
        &mut self,
        msg: WireMsg,
        source: Option<NodeId>,
        ctx: &mut dyn Context,
    ) -> Option<WireMsg> {
        self.events_routed += 1;
        let now = ctx.now();
        self.meter.record_message(now);

        let Message::Publish(ev) = msg.message() else {
            return None;
        };
        let flood = self.flood.iter().any(|f| f.matches(&ev.topic));
        let pruned = !self.flood[1].matches(&ev.topic);
        // One memoized trie lookup; the shared set detaches the borrow on
        // `subs` so dispatch below can consult clients/links freely.
        let matched = self.subs.matches(&ev.topic);
        // `None` when the TTL is spent: local deliveries still happen
        // (they are terminal), link forwards stop.
        let fwd = msg.forward_hop();
        // The publisher's reverse-path state, if it has any yet. The BDN
        // advertisement keeps none — every link carries it.
        let neighbour = source.unwrap_or_else(|| ctx.me());
        let lease = self.lease();
        let mut route = match &mut self.routes {
            Some(routes) if pruned => routes.live(ev.source, now, lease),
            _ => None,
        };
        if let Some(route) = route.as_deref_mut() {
            route.fresh_from(neighbour, now);
        }
        let mut crossed_link = false;
        // Local clients whose filters match always get a copy.
        for &dest in matched.iter() {
            match dest {
                Destination::Client(c) => {
                    if Some(c) == source {
                        continue;
                    }
                    if let Some(client) = self.clients.get(&c) {
                        ctx.send_stream_wire(well_known::BROKER, client.endpoint, &msg);
                    }
                }
                Destination::Link(l) => {
                    if flood {
                        continue; // flooding below covers every link
                    }
                    if Some(l) == source {
                        continue;
                    }
                    if let (Some(link), Some(fwd)) = (self.links.get(&l), fwd.as_ref()) {
                        // R1: not to a link that asked, within the
                        // lease, not to be sent this publisher's events.
                        let muted = route.as_ref().is_some_and(|r| r.lease(l).muted_until > now);
                        if !muted {
                            crossed_link = true;
                            link.forward(fwd, ctx);
                        }
                    }
                }
            }
        }
        if !flood {
            // State starts with the first event that crosses a link,
            // either way: before that no copy can come back.
            if route.is_none()
                && (crossed_link || source.is_some_and(|n| self.links.contains_key(&n)))
            {
                let routes = self.routes.get_or_insert_with(Default::default);
                routes.entry(ev.source, now, lease, DEDUP_CAPACITY).fresh_from(neighbour, now);
            }
            return None;
        }
        if let Some(fwd) = fwd.as_ref() {
            for (&peer, link) in &self.links {
                let muted = route.as_ref().is_some_and(|r| r.lease(peer).muted_until > now);
                if Some(peer) != source && !muted {
                    link.forward(fwd, ctx);
                }
            }
        }
        Some(msg)
    }

    /// A copy of an event already routed arrived from `from`. When that
    /// is a link, the copy need not have been sent: R2 asks the link to
    /// stop, unless it is the publisher's parent, no parent is known yet
    /// or it was asked within the lease; R4 moves the parent to a feed
    /// that has beaten it for a whole lease and asks the old parent.
    fn duplicate_from(&mut self, msg: &WireMsg, from: NodeId, ctx: &mut dyn Context) {
        let Message::Publish(ev) = msg.message() else {
            return;
        };
        let Some(link) = self.links.get(&from) else {
            return;
        };
        if self.flood[1].matches(&ev.topic) {
            return;
        }
        let (now, lease) = (ctx.now(), self.lease());
        let routes = self.routes.get_or_insert_with(Default::default);
        let route = routes.entry(ev.source, now, lease, DEDUP_CAPACITY);
        if route.parent == Some(from) {
            // The hold-down: a feed that won once may have been asked to
            // stop (the `Prune` still in flight), or may be a neighbour
            // about to take *this* broker for its parent on the strength
            // of a copy sent it a moment ago. One that brought every
            // fresh copy for a lease was neither asked nor sent anything
            // in all that time.
            match route.feed {
                Some(feed) if feed != from && now - route.feed_since >= lease => {
                    route.parent = Some(feed);
                    self.reparented += 1;
                }
                _ => return,
            }
        } else if route.parent.is_none() || route.lease(from).asked_until > now {
            return;
        }
        route.lease_mut(from, self.links.len()).asked_until = now + lease;
        self.prunes_sent += 1;
        let lease_ms = u32::try_from(lease.as_millis()).unwrap_or(u32::MAX);
        link.send(Message::Prune { source: ev.source, lease_ms }, ctx);
    }

    fn heartbeat_tick(&mut self, ctx: &mut dyn Context) {
        self.hb_seq += 1;
        let seq = self.hb_seq;
        let deadline = self.lease();
        let now = ctx.now();
        let mut dead: Vec<NodeId> = Vec::new();
        for (&peer, link) in &self.links {
            if now - link.last_heard > deadline {
                dead.push(peer);
            } else {
                link.send(Message::Heartbeat { from: ctx.me(), seq }, ctx);
            }
        }
        for peer in dead {
            self.link_down(peer, ctx);
        }
        ctx.set_timer(HEARTBEAT_INTERVAL, TIMER_HEARTBEAT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_wire::{GroupId, Port, RealmId};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn broker_cfg(neighbors: Vec<NodeId>) -> BrokerConfig {
        BrokerConfig { neighbors, ..BrokerConfig::default() }
    }

    const ME: NodeId = NodeId(1);

    /// A context at the epoch that keeps every stream message a broker
    /// sends, with its destination.
    struct Recorder {
        rng: StdRng,
        sent: Vec<(NodeId, Message)>,
    }

    impl Recorder {
        fn new() -> Recorder {
            Recorder { rng: StdRng::seed_from_u64(7), sent: Vec::new() }
        }
    }

    impl Context for Recorder {
        fn me(&self) -> NodeId {
            ME
        }
        fn realm(&self) -> RealmId {
            RealmId(0)
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn utc_micros(&self) -> u64 {
            0
        }
        fn clock_synced(&self) -> bool {
            true
        }
        fn raw_local_micros(&self) -> u64 {
            0
        }
        fn set_clock_estimate_ns(&mut self, _est_offset_ns: i64) {}
        fn send_udp(&mut self, _from_port: Port, _to: Endpoint, _msg: &Message) {}
        fn send_stream(&mut self, _from_port: Port, to: Endpoint, msg: &Message) {
            self.sent.push((to.node, msg.clone()));
        }
        fn send_multicast(&mut self, _from: Port, _group: GroupId, _to: Port, _msg: &Message) {}
        fn join_group(&mut self, _group: GroupId) {}
        fn leave_group(&mut self, _group: GroupId) {}
        fn set_timer(&mut self, _delay: Duration, _token: u64) {}
        fn cancel_timer(&mut self, _token: u64) {}
        fn rng(&mut self) -> &mut dyn RngCore {
            &mut self.rng
        }
    }

    /// Hands `broker` `msg` on its broker port as if `from` had sent it.
    fn feed(broker: &mut Broker, ctx: &mut Recorder, from: NodeId, msg: Message) {
        let from = Endpoint::new(from, well_known::BROKER);
        broker.handle(Incoming::Stream { from, to_port: well_known::BROKER, msg: msg.into() }, ctx);
    }

    #[test]
    fn the_discovery_plane_floods_and_only_requests_are_pruned() {
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = Recorder::new();
        let links = [NodeId(10), NodeId(11), NodeId(12)];
        for l in links {
            feed(&mut broker, &mut ctx, l, Message::LinkHello { from: l, realm: RealmId(0) });
        }
        let sent_to = |ctx: &mut Recorder, kind: &str| -> Vec<NodeId> {
            let sent = std::mem::take(&mut ctx.sent);
            sent.into_iter().filter(|(_, m)| m.kind() == kind).map(|(to, _)| to).collect()
        };
        ctx.sent.clear();
        for topic in [&DISCOVERY_REQUEST, &BDN_ADVERTISEMENT] {
            let surfaced = broker.publish_local(topic.topic(), Bytes::from_static(b"request"), &mut ctx);
            assert!(surfaced.is_some(), "{}: handed back to the owner", topic.topic());
            assert_eq!(sent_to(&mut ctx, "publish"), links, "{}: to every link", topic.topic());
        }
        let topic = Topic::parse("feed/x").unwrap();
        assert!(broker.publish_local(topic, Bytes::new(), &mut ctx).is_none());
        assert!(sent_to(&mut ctx, "publish").is_empty(), "no link asked for it");
        assert!(broker.routes.is_none(), "a copy that came back once is what makes route state");

        // Events a BDN (node 50) published, each first over link 11, then
        // again over link 12. The first duplicate request makes a route
        // with no parent and asks nothing; the next, with the parent
        // known, prunes link 12. An advertisement is never pruned.
        let bdn = NodeId(50);
        let event = |topic: &nb_wire::topic::WellKnownTopic, ctx: &mut Recorder| {
            let id = Uuid::random(&mut ctx.rng);
            Message::Publish(Event { id, topic: topic.topic(), source: bdn, payload: Bytes::new() })
        };
        let (ad, req) = (&BDN_ADVERTISEMENT, &DISCOVERY_REQUEST);
        for (topic, prunes) in [(ad, vec![]), (ad, vec![]), (req, vec![]), (req, vec![NodeId(12)])] {
            let publish = event(topic, &mut ctx);
            feed(&mut broker, &mut ctx, NodeId(11), publish.clone());
            assert_eq!(sent_to(&mut ctx, "publish"), [NodeId(10), NodeId(12)], "{}", topic.topic());
            feed(&mut broker, &mut ctx, NodeId(12), publish);
            assert_eq!(sent_to(&mut ctx, "prune"), prunes, "{}", topic.topic());
        }
        // Link 10 asks not to be sent the BDN's events: its requests
        // skip that link, its advertisements still cross it.
        feed(&mut broker, &mut ctx, NodeId(10), Message::Prune { source: bdn, lease_ms: 6_000 });
        let (only_12, both) = (vec![NodeId(12)], vec![NodeId(10), NodeId(12)]);
        for (topic, to) in [(&DISCOVERY_REQUEST, only_12), (&BDN_ADVERTISEMENT, both)] {
            let publish = event(topic, &mut ctx);
            feed(&mut broker, &mut ctx, NodeId(11), publish);
            assert_eq!(sent_to(&mut ctx, "publish"), to, "{}", topic.topic());
        }
    }

    #[test]
    fn routes_die_after_a_lease_of_silence_and_stay_under_their_cap() {
        let lease = Duration::from_secs(6);
        let at = SimTime::from_secs;
        let mut routes = Routes::default();
        for source in 0..4 {
            let route = routes.entry(NodeId(source), at(u64::from(source)), lease, 4);
            route.parent = Some(NodeId(100 + source));
            route.lease_mut(NodeId(7), 3).muted_until = at(u64::from(source)) + lease;
        }
        assert!(routes.live(NodeId(9), at(3), lease).is_none(), "reading creates nothing");
        // A fifth publisher: the oldest entry makes room.
        routes.entry(NodeId(4), at(4), lease, 4);
        assert_eq!(routes.by_source.len(), 4);
        assert!(!routes.by_source.contains_key(&NodeId(0)));
        assert_eq!(routes.order, [1, 2, 3, 4].map(NodeId));
        // Heard of within the lease: kept as it is. Later: blank.
        let kept = routes.live(NodeId(1), at(7), lease).unwrap();
        assert_eq!(kept.parent, Some(NodeId(101)));
        assert_eq!(kept.leases.len(), 1, "one entry, for the one peer written");
        assert_eq!(kept.leases.capacity(), 3, "sized once for every link");
        let blank = routes.live(NodeId(1), at(8), lease).unwrap();
        assert_eq!((blank.parent, blank.feed, blank.leases.len()), (None, None, 0));
        assert_eq!(blank.lease(NodeId(7)).muted_until, SimTime::ZERO);
    }

    /// The one-record interest plane against the two-map version it
    /// replaced: over any script of registrations, withdrawals, link
    /// losses and repeat hellos, the broker sends the same
    /// advertisements, with the same sequence numbers, and keeps the
    /// same filters.
    mod two_map_oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// A `Subscribe` (`true`) or an `Unsubscribe` sent to a peer,
        /// with its filter and sequence number.
        type Advert = (NodeId, bool, TopicFilter, u64);

        fn advert(to: NodeId, msg: &Message) -> Option<Advert> {
            match msg {
                Message::Subscribe { filter, seq, .. } => Some((to, true, filter.clone(), *seq)),
                Message::Unsubscribe { filter, seq, .. } => Some((to, false, filter.clone(), *seq)),
                _ => None,
            }
        }

        #[derive(Debug, Default)]
        struct RefInterest {
            local: usize,
            links: BTreeMap<NodeId, usize>,
        }

        impl RefInterest {
            fn total(&self) -> usize {
                self.local + self.links.values().sum::<usize>()
            }

            fn excluding(&self, l: NodeId) -> usize {
                self.local + self.links.iter().filter(|(&n, _)| n != l).map(|(_, c)| c).sum::<usize>()
            }
        }

        /// The broker before its interest state was merged, reduced to
        /// its interest plane: interest and advertisement in two maps,
        /// and a per-neighbour sum.
        #[derive(Default)]
        struct Reference {
            links: BTreeSet<NodeId>,
            clients: BTreeSet<NodeId>,
            registrations: BTreeMap<(Destination, TopicFilter), usize>,
            interest: BTreeMap<TopicFilter, RefInterest>,
            advertised: BTreeMap<TopicFilter, BTreeSet<NodeId>>,
            seq: u64,
            sent: Vec<Advert>,
        }

        impl Reference {
            fn handle(&mut self, from: NodeId, msg: &Message) {
                match msg {
                    Message::LinkHello { from: peer, .. } => {
                        self.link_down(*peer);
                        self.link_up(*peer);
                    }
                    Message::LinkClose { from: peer } => self.link_down(*peer),
                    Message::Subscribe { filter, .. }
                        if self.links.contains(&from) && self.register(Destination::Link(from), filter) =>
                    {
                        self.gained(filter, Some(from));
                    }
                    Message::Unsubscribe { filter, .. }
                        if self.links.contains(&from) && self.withdraw(Destination::Link(from), filter) =>
                    {
                        self.lost(filter, Some(from));
                    }
                    Message::ClientConnect { client, .. } => {
                        self.clients.insert(*client);
                    }
                    Message::ClientSubscribe { filter }
                        if self.clients.contains(&from) && self.register(Destination::Client(from), filter) =>
                    {
                        self.gained(filter, None);
                    }
                    Message::ClientUnsubscribe { filter }
                        if self.clients.contains(&from) && self.withdraw(Destination::Client(from), filter) =>
                    {
                        self.lost(filter, None);
                    }
                    Message::ClientDisconnect { client } if self.clients.remove(client) => {
                        for filter in self.remove_destination(Destination::Client(*client)) {
                            self.lost(&filter, None);
                        }
                    }
                    _ => {}
                }
            }

            fn register(&mut self, dest: Destination, filter: &TopicFilter) -> bool {
                let count = self.registrations.entry((dest, filter.clone())).or_insert(0);
                *count += 1;
                *count == 1
            }

            fn withdraw(&mut self, dest: Destination, filter: &TopicFilter) -> bool {
                let key = (dest, filter.clone());
                let Some(count) = self.registrations.get_mut(&key) else {
                    return false;
                };
                *count -= 1;
                if *count > 0 {
                    return false;
                }
                self.registrations.remove(&key);
                true
            }

            fn remove_destination(&mut self, dest: Destination) -> Vec<TopicFilter> {
                let filters: Vec<TopicFilter> =
                    self.registrations.keys().filter(|(d, _)| *d == dest).map(|(_, f)| f.clone()).collect();
                self.registrations.retain(|(d, _), _| *d != dest);
                filters
            }

            fn link_up(&mut self, peer: NodeId) {
                if self.links.insert(peer) {
                    for filter in self.interest.keys().cloned().collect::<Vec<_>>() {
                        self.reconcile(&filter);
                    }
                }
            }

            fn link_down(&mut self, peer: NodeId) {
                if !self.links.remove(&peer) {
                    return;
                }
                self.advertised.retain(|_, peers| {
                    peers.remove(&peer);
                    !peers.is_empty()
                });
                for filter in self.remove_destination(Destination::Link(peer)) {
                    if let Some(state) = self.interest.get_mut(&filter) {
                        state.links.remove(&peer);
                        if state.total() == 0 {
                            self.interest.remove(&filter);
                        }
                    }
                    self.reconcile(&filter);
                }
            }

            fn gained(&mut self, filter: &TopicFilter, source: Option<NodeId>) {
                let state = self.interest.entry(filter.clone()).or_default();
                match source {
                    None => state.local += 1,
                    Some(l) => *state.links.entry(l).or_insert(0) += 1,
                }
                self.reconcile(filter);
            }

            fn lost(&mut self, filter: &TopicFilter, source: Option<NodeId>) {
                let Some(state) = self.interest.get_mut(filter) else {
                    return;
                };
                match source {
                    None => state.local = state.local.saturating_sub(1),
                    Some(l) => {
                        if let Some(c) = state.links.get_mut(&l) {
                            *c -= 1;
                            if *c == 0 {
                                state.links.remove(&l);
                            }
                        }
                    }
                }
                if state.total() == 0 {
                    self.interest.remove(filter);
                }
                self.reconcile(filter);
            }

            /// `reconcile_advertisements` as it was.
            fn reconcile(&mut self, filter: &TopicFilter) {
                let state = self.interest.get(filter);
                for &peer in &self.links {
                    let should = state.is_some_and(|state| state.excluding(peer) > 0);
                    let is = self.advertised.get(filter).is_some_and(|peers| peers.contains(&peer));
                    if should == is {
                        continue;
                    }
                    self.seq += 1;
                    if should {
                        self.advertised.entry(filter.clone()).or_default().insert(peer);
                    } else if let Some(peers) = self.advertised.get_mut(filter) {
                        peers.remove(&peer);
                        if peers.is_empty() {
                            self.advertised.remove(filter);
                        }
                    }
                    self.sent.push((peer, should, filter.clone(), self.seq));
                }
            }
        }

        /// The advertisements among what `ctx` recorded.
        fn adverts(ctx: &Recorder) -> Vec<Advert> {
            ctx.sent.iter().filter_map(|(to, msg)| advert(*to, msg)).collect()
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// Client `c` subscribes (`true`) to or withdraws filter `f`.
            Client(bool, u8, u8),
            /// Link `l` advertises (`true`) or withdraws filter `f`.
            Link(bool, u8, u8),
            /// Client `c` disconnects, or connects if it is not connected.
            Toggle(u8),
            /// Link `l`'s peer closes it.
            Close(u8),
            /// Link `l`'s peer says hello, on a link that is up or down.
            Hello(u8),
        }

        fn client_op() -> impl Strategy<Value = Op> {
            (0u8..2, 0u8..3, 0u8..5).prop_map(|(sub, c, f)| Op::Client(sub == 1, c, f))
        }

        fn link_op() -> impl Strategy<Value = Op> {
            (0u8..2, 0u8..6, 0u8..5).prop_map(|(sub, l, f)| Op::Link(sub == 1, l, f))
        }

        /// Registrations twice as often as each of the other ops.
        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                client_op(),
                client_op(),
                link_op(),
                link_op(),
                (0u8..3).prop_map(Op::Toggle),
                (0u8..6).prop_map(Op::Close),
                (0u8..6).prop_map(Op::Hello),
            ]
        }

        fn filters() -> Vec<TopicFilter> {
            ["a", "a/*", "a/**", "b/c", "**"].map(|s| TopicFilter::parse(s).unwrap()).to_vec()
        }

        /// `link_up` to a fresh neighbour advertises every filter, and
        /// `link_down` withdraws what only that neighbour registered, in
        /// filter-string order with consecutive `seq`s, as the
        /// string-keyed map did. The segments are interned in reverse
        /// string order, so the trie's ids run against the strings.
        #[test]
        fn link_up_and_link_down_advertise_in_filter_string_order() {
            let mut names = ["lud", "lud/*", "lud/**", "lud/lua", "lud/lub/**", "lud/luc/*"];
            names.sort_unstable_by(|a, b| b.cmp(a));
            let filters: Vec<TopicFilter> = names.iter().map(|s| TopicFilter::parse(s).unwrap()).collect();
            let (b, a, c) = (NodeId(10), NodeId(11), NodeId(100));
            let mut broker = Broker::new(broker_cfg(vec![]));
            let mut ctx = Recorder::new();
            let mut feed = |from: NodeId, msg: Message| feed(&mut broker, &mut ctx, from, msg);
            feed(b, Message::LinkHello { from: b, realm: RealmId(0) });
            feed(c, Message::ClientConnect { client: c, reply_port: well_known::BROKER });
            // The client takes the three last in string order, the
            // neighbour-to-be the three first, each in reverse order.
            for filter in &filters[..3] {
                feed(c, Message::ClientSubscribe { filter: filter.clone() });
            }
            feed(a, Message::LinkHello { from: a, realm: RealmId(0) });
            for filter in &filters[3..] {
                feed(a, Message::Subscribe { filter: filter.clone(), origin: a, seq: 0 });
            }
            feed(a, Message::LinkClose { from: a });
            let expected: Vec<Advert> = [
                (b, true, "lud/luc/*", 1),
                (b, true, "lud/lub/**", 2),
                (b, true, "lud/lua", 3),
                // `link_up(a)`: every filter, in string order.
                (a, true, "lud/lua", 4),
                (a, true, "lud/lub/**", 5),
                (a, true, "lud/luc/*", 6),
                (b, true, "lud/**", 7),
                (b, true, "lud/*", 8),
                (b, true, "lud", 9),
                // `link_down(a)`: what only `a` registered, in string order.
                (b, false, "lud", 10),
                (b, false, "lud/*", 11),
                (b, false, "lud/**", 12),
            ]
            .map(|(to, sub, f, seq)| (to, sub, TopicFilter::parse(f).unwrap(), seq))
            .to_vec();
            assert_eq!(adverts(&ctx), expected);
            assert_eq!(broker.interest_filters(), filters[..3].iter().rev().cloned().collect::<Vec<_>>());
        }

        proptest! {
            #[test]
            fn merged_interest_sends_what_the_two_maps_sent(
                links in 3usize..7,
                ops in prop::collection::vec(arb_op(), 0..120),
            ) {
                let fs = filters();
                let filter = |f: u8| fs[usize::from(f)].clone();
                let client = |c: u8| NodeId(100 + u32::from(c));
                let link = |l: u8| NodeId(10 + u32::from(l) % links as u32);
                let hello = |l: u8| Message::LinkHello { from: link(l), realm: RealmId(0) };
                let connect = |c: u8| Message::ClientConnect { client: client(c), reply_port: well_known::BROKER };
                let mut broker = Broker::new(broker_cfg(vec![]));
                let mut ctx = Recorder::new();
                let mut reference = Reference::default();
                let mut step = |from: NodeId, msg: Message, broker: &mut Broker, ctx: &mut Recorder| {
                    reference.handle(from, &msg);
                    feed(broker, ctx, from, msg);
                    reference.interest.keys().cloned().collect::<Vec<_>>() == broker.interest_filters()
                        && reference.sent == adverts(ctx)
                };
                let mut script: Vec<(NodeId, Message)> = (0..links as u8).map(|l| (link(l), hello(l))).collect();
                script.extend((0..2).map(|c| (client(c), connect(c))));
                let mut connected = [true, true, false];
                for op in ops {
                    script.push(match op {
                        Op::Client(true, c, f) => (client(c), Message::ClientSubscribe { filter: filter(f) }),
                        Op::Client(false, c, f) => (client(c), Message::ClientUnsubscribe { filter: filter(f) }),
                        Op::Link(true, l, f) => {
                            (link(l), Message::Subscribe { filter: filter(f), origin: link(l), seq: 0 })
                        }
                        Op::Link(false, l, f) => {
                            (link(l), Message::Unsubscribe { filter: filter(f), origin: link(l), seq: 0 })
                        }
                        Op::Toggle(c) => {
                            let on = &mut connected[usize::from(c)];
                            *on = !*on;
                            let msg = if *on { connect(c) } else { Message::ClientDisconnect { client: client(c) } };
                            (client(c), msg)
                        }
                        Op::Close(l) => (link(l), Message::LinkClose { from: link(l) }),
                        Op::Hello(l) => (link(l), hello(l)),
                    });
                }
                for (i, (from, msg)) in script.into_iter().enumerate() {
                    let kind = msg.kind();
                    prop_assert!(
                        step(from, msg, &mut broker, &mut ctx),
                        "step {} ({} from {:?}) diverged from the two-map reference", i, kind, from
                    );
                }
            }
        }
    }
}
