//! The entity facade: the full life cycle the paper motivates.
//!
//! §1.2: *"The brokering environment … is a very dynamic and fluid
//! system where broker processes may join and leave the broker network
//! at arbitrary times … It is thus not possible for any entity to assume
//! that a given broker may be available indefinitely."*
//!
//! An [`Entity`] is what a downstream application actually runs: it
//! discovers the best broker (embedding a [`DiscoveryClient`]), attaches
//! to it, registers its subscriptions, publishes queued events, monitors
//! the broker with UDP keepalive pings, and — when the broker stops
//! answering — **rediscovers** and reattaches, transparently resuming
//! its subscriptions.

use std::collections::VecDeque;
use std::time::Duration;

use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Event, Message, NodeId, Topic, TopicFilter, WireMsg};

use nb_net::{impl_actor_any, Actor, Context, Incoming};

use crate::client::{DiscoveryClient, Phase};
use crate::config::{DiscoveryConfig, RetryPolicy};

const TIMER_KEEPALIVE: u64 = 0xE171_0000_0000_0001;
const TIMER_FLUSH: u64 = 0xE171_0000_0000_0002;
const TIMER_START_DELAY: u64 = 0xE171_0000_0000_0003;
/// Discovery-client timers live in this namespace (see `client.rs`).
const DISCOVERY_TIMER_PREFIX: u64 = 0xD15C_0000_0000_0000;
/// Keepalive pings in a row left unanswered that give the broker up.
const KEEPALIVE_MISSES: u8 = 3;

/// Where the entity is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityState {
    /// Running (or about to run) broker discovery.
    Discovering,
    /// Attached to a broker and exchanging events.
    Attached(NodeId),
    /// Discovery exhausted every path; will retry after a backoff.
    Stranded,
}

/// A messaging entity: discovery + attachment + pub/sub + failover.
pub struct Entity {
    discovery: DiscoveryClient,
    filters: Vec<TopicFilter>,
    state: EntityState,
    outbox: VecDeque<(Topic, Vec<u8>)>,
    keepalive_interval: Duration,
    /// Outbox drain cadence while attached. The 50 ms default is right
    /// for a handful of chatty entities; the scale suite stretches it so
    /// 1e5+ mostly-idle entities do not each contribute 20 timer events
    /// per virtual second to the engine.
    flush_interval: Duration,
    /// When set, `on_start` arms a one-shot timer for this delay instead
    /// of discovering immediately — the scale campaign staggers entity
    /// start-up so 1e5 discoveries do not land on the same instant.
    start_delay: Option<Duration>,
    /// Stranded-retry schedule: capped exponential with jitter, so a
    /// fleet of entities stranded by the same outage desynchronises its
    /// re-discovery attempts instead of producing a retry storm.
    retry_policy: RetryPolicy,
    /// Consecutive failed discovery runs since the last attachment.
    retry_attempt: u32,
    /// Suppresses re-deliveries of events already seen: a broker that
    /// survives a restart with its subscription table intact forwards to
    /// an entity that has since failed over elsewhere until the entity
    /// answers it with `ClientDisconnect`, so the entity can briefly be
    /// subscribed at two brokers at once.
    dedup: BoundedDedup<Uuid>,
    /// The keepalive ping awaiting its pong, if any.
    ping_nonce: Option<u64>,
    next_nonce: u64,
    missed: u8,
    /// Whether `on_start` has run: a second start is a revival.
    started: bool,
    /// Events delivered to this entity.
    pub received: Vec<Event>,
    /// Events published.
    pub published: u64,
    /// Every broker this entity has attached to, in order.
    pub attachments: Vec<NodeId>,
    /// Failovers performed (keepalive losses leading to rediscovery).
    pub failovers: u64,
    /// Duplicate event deliveries suppressed by the dedup cache.
    pub duplicates_dropped: u64,
    /// Inconsistent internal state observed on a receive path (counted
    /// instead of panicking).
    pub internal_errors: u64,
}

impl Entity {
    /// An entity using `cfg` for discovery and subscribing to `filters`
    /// once attached.
    pub fn new(cfg: DiscoveryConfig, filters: Vec<TopicFilter>) -> Entity {
        Entity {
            discovery: DiscoveryClient::new(cfg),
            filters,
            state: EntityState::Discovering,
            outbox: VecDeque::new(),
            keepalive_interval: Duration::from_secs(2),
            flush_interval: Duration::from_millis(50),
            start_delay: None,
            // First retry ~5 s (the historical fixed backoff), doubling
            // to a 60 s cap with ±10% jitter.
            retry_policy: RetryPolicy::new(Duration::from_secs(5), 2.0, Duration::from_secs(60), 0.1),
            retry_attempt: 0,
            // Remembers the last 1000 events; sized as they arrive, since
            // population runs replace it through `set_dedup_capacity`.
            dedup: BoundedDedup::with_expected(1000, 0),
            ping_nonce: None,
            next_nonce: 1,
            missed: 0,
            started: false,
            received: Vec::new(),
            published: 0,
            attachments: Vec::new(),
            failovers: 0,
            duplicates_dropped: 0,
            internal_errors: 0,
        }
    }

    /// An entity homed on `broker`: no BDN, no multicast, and `broker` as
    /// the remembered target set of §7 ("every node keeps track of its
    /// last target set of brokers"), which it pings, connects to and
    /// subscribes at, and pings again after a keepalive loss until it is
    /// back. It sends no timestamped request, so it starts before NTP sync.
    pub fn of_broker(broker: NodeId, filters: Vec<TopicFilter>) -> Entity {
        let cfg = DiscoveryConfig { multicast_enabled: false, cached_targets: vec![broker], ..DiscoveryConfig::default() };
        let mut entity = Entity::new(cfg, filters);
        entity.set_start_delay(Duration::ZERO);
        entity
    }

    /// Current life-cycle state.
    pub fn state(&self) -> EntityState {
        self.state
    }

    /// The broker currently attached to, if any.
    pub fn broker(&self) -> Option<NodeId> {
        match self.state {
            EntityState::Attached(b) => Some(b),
            _ => None,
        }
    }

    /// The embedded discovery client (read-only observability).
    pub fn discovery(&self) -> &DiscoveryClient {
        &self.discovery
    }

    /// Keepalive pings sent so far, each under the next nonce from 1.
    pub fn keepalive_pings_sent(&self) -> u64 {
        self.next_nonce - 1
    }

    /// Replaces the stranded-retry backoff policy.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry_policy = policy;
    }

    /// Overrides the keepalive ping cadence (default 2 s). Population
    /// knob: at 1e5 entities the default is 5e4 pings per virtual
    /// second; failure detection latency scales with it accordingly.
    pub fn set_keepalive_interval(&mut self, interval: Duration) {
        self.keepalive_interval = interval;
    }

    /// Overrides the outbox drain cadence (default 50 ms); see
    /// [`Entity::set_keepalive_interval`] for the population rationale.
    pub fn set_flush_interval(&mut self, interval: Duration) {
        self.flush_interval = interval;
    }

    /// Delays the initial discovery by `delay` after start (staggered
    /// ramp-up for population runs). Only affects the first discovery;
    /// failover rediscovery and a revival's are immediate. Call before
    /// the actor starts: the embedded discovery client's auto-start is
    /// turned off so the one-shot timer is the sole trigger.
    pub fn set_start_delay(&mut self, delay: Duration) {
        self.start_delay = Some(delay);
        self.discovery.set_auto_start(false);
    }

    /// Replaces the receive-dedup cache with one of `capacity`, pre-sized
    /// for `expected` keys (see [`BoundedDedup::with_expected`]). Call
    /// before traffic flows: the cache contents are reset.
    pub fn set_dedup_capacity(&mut self, capacity: usize, expected: usize) {
        self.dedup = BoundedDedup::with_expected(capacity, expected);
    }

    /// Heap bytes of the receive-dedup cache.
    pub fn dedup_bytes(&self) -> usize {
        self.dedup.heap_bytes()
    }

    /// Queues an event for publication (flushed while attached).
    pub fn queue_publish(&mut self, topic: Topic, payload: Vec<u8>) {
        self.outbox.push_back((topic, payload));
    }

    fn on_attached(&mut self, broker: NodeId, ctx: &mut dyn Context) {
        // Best-effort unsubscribe at the previous broker: it may have
        // survived (or been revived) with our subscription intact and
        // would otherwise keep forwarding. The dedup cache below covers
        // the cases where this message cannot land.
        if let Some(&old) = self.attachments.last() {
            if old != broker {
                let ep = Endpoint::new(old, well_known::BROKER);
                for filter in &self.filters {
                    let unsubscribe = WireMsg::new(Message::ClientUnsubscribe { filter: filter.clone() });
                    ctx.send_stream_wire(well_known::BROKER, ep, &unsubscribe);
                }
            }
        }
        self.state = EntityState::Attached(broker);
        self.attachments.push(broker);
        self.missed = 0;
        self.retry_attempt = 0;
        self.ping_nonce = None;
        let ep = Endpoint::new(broker, well_known::BROKER);
        for filter in &self.filters {
            let subscribe = WireMsg::new(Message::ClientSubscribe { filter: filter.clone() });
            ctx.send_stream_wire(well_known::BROKER, ep, &subscribe);
        }
        self.flush(ctx);
        ctx.set_timer(self.keepalive_interval, TIMER_KEEPALIVE);
        ctx.set_timer(self.flush_interval, TIMER_FLUSH);
    }

    fn flush(&mut self, ctx: &mut dyn Context) {
        let Some(ep) = self.broker().map(|b| Endpoint::new(b, well_known::BROKER)) else {
            return;
        };
        while let Some((topic, payload)) = self.outbox.pop_front() {
            let ev =
                Event { id: Uuid::random(ctx.rng()), topic, source: ctx.me(), payload: payload.into() };
            ctx.send_stream_wire(well_known::BROKER, ep, &WireMsg::new(Message::Publish(ev)));
            self.published += 1;
        }
    }

    fn keepalive_tick(&mut self, ctx: &mut dyn Context) {
        let EntityState::Attached(broker) = self.state else {
            return;
        };
        // Count an outstanding unanswered ping as a miss.
        if self.ping_nonce.take().is_some() {
            self.missed += 1;
        }
        if self.missed >= KEEPALIVE_MISSES {
            // The broker is gone (§1.2): rediscover.
            self.failovers += 1;
            self.state = EntityState::Discovering;
            self.discovery.begin(ctx);
            return;
        }
        self.ping_nonce = Some(self.next_nonce);
        let reply_to = Endpoint::new(ctx.me(), well_known::PING);
        let ping = Message::Ping { nonce: self.next_nonce, sent_at: ctx.now().as_micros(), reply_to };
        self.next_nonce += 1;
        let to = Endpoint::new(broker, well_known::PING);
        ctx.send_udp_wire(well_known::PING, to, &WireMsg::new(ping));
        ctx.set_timer(self.keepalive_interval, TIMER_KEEPALIVE);
    }

    fn check_discovery_progress(&mut self, ctx: &mut dyn Context) {
        if self.state != EntityState::Discovering {
            return; // only act on a discovery we are waiting for
        }
        match self.discovery.phase() {
            Phase::Done => match self.discovery.outcome().and_then(|o| o.chosen) {
                Some(chosen) => self.on_attached(chosen, ctx),
                // `Done` should imply a chosen broker; if the invariant
                // ever breaks, strand and retry rather than panic.
                None => {
                    self.internal_errors += 1;
                    self.strand(ctx);
                }
            },
            Phase::Failed => self.strand(ctx),
            _ => {}
        }
    }

    /// Strands the entity and arms a retry after a backoff (the
    /// environment is fluid; brokers may return). Each consecutive
    /// failure lengthens the wait up to the cap.
    fn strand(&mut self, ctx: &mut dyn Context) {
        self.state = EntityState::Stranded;
        let delay = self.retry_policy.delay(self.retry_attempt, ctx.rng());
        self.retry_attempt = self.retry_attempt.saturating_add(1);
        ctx.set_timer(delay, TIMER_KEEPALIVE);
    }
}

impl Actor for Entity {
    /// The first start discovers, after the start delay if one is set.
    /// A revival with the actor kept starts over at once: the crash
    /// cleared every timer, so the keepalive watch, the flush cadence
    /// and any discovery in flight died with them.
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if std::mem::replace(&mut self.started, true) {
            self.state = EntityState::Discovering;
            self.ping_nonce = None;
            self.missed = 0;
            self.discovery.begin_afresh(ctx);
            self.check_discovery_progress(ctx);
            return;
        }
        if let Some(delay) = self.start_delay {
            ctx.set_timer(delay, TIMER_START_DELAY);
            return;
        }
        self.discovery.on_start(ctx);
        self.check_discovery_progress(ctx);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match &event {
            Incoming::Timer { token: TIMER_KEEPALIVE } => {
                match self.state {
                    EntityState::Attached(_) => self.keepalive_tick(ctx),
                    EntityState::Stranded => {
                        self.state = EntityState::Discovering;
                        self.discovery.begin(ctx);
                        self.check_discovery_progress(ctx);
                    }
                    EntityState::Discovering => {}
                }
                return;
            }
            Incoming::Timer { token: TIMER_FLUSH } => {
                if matches!(self.state, EntityState::Attached(_)) {
                    self.flush(ctx);
                    ctx.set_timer(self.flush_interval, TIMER_FLUSH);
                }
                return;
            }
            Incoming::Timer { token: TIMER_START_DELAY } => {
                self.discovery.begin(ctx);
                self.check_discovery_progress(ctx);
                return;
            }
            Incoming::Timer { token } if *token & 0xFFFF_0000_0000_0000 == DISCOVERY_TIMER_PREFIX => {
                self.discovery.on_incoming(event, ctx);
                self.check_discovery_progress(ctx);
                return;
            }
            Incoming::Stream { msg, from, to_port } => {
                if let Message::Publish(ev) = msg.message() {
                    if *to_port == well_known::BROKER && matches!(self.state, EntityState::Attached(b) if b != from.node)
                    {
                        // A broker left behind still holds our record
                        // (it came back with its state after we failed
                        // over): it drops the record and its
                        // subscriptions on this.
                        let bye = Message::ClientDisconnect { client: ctx.me() };
                        ctx.send_stream(well_known::BROKER, Endpoint::new(from.node, well_known::BROKER), &bye);
                    }
                    if self.dedup.check_and_insert(ev.id) {
                        self.received.push(ev.clone());
                    } else {
                        self.duplicates_dropped += 1;
                    }
                    self.missed = 0;
                    return;
                }
            }
            Incoming::Datagram { msg, .. } => {
                if let Message::Pong { nonce, .. } = msg.message() {
                    if self.ping_nonce == Some(*nonce) {
                        self.ping_nonce = None;
                        self.missed = 0;
                        return;
                    }
                }
            }
            _ => {}
        }
        // Everything else (discovery acks, responses, discovery pongs,
        // connect acks, clock sync) belongs to the discovery machinery.
        self.discovery.on_incoming(event, ctx);
        self.check_discovery_progress(ctx);
    }

    impl_actor_any!();
}
