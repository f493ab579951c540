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

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Event, Message, NodeId, Topic, TopicFilter, WireMsg};

use nb_net::{impl_actor_any, Actor, Context, Incoming, SimTime};

use crate::client::{DiscoveryClient, Phase};
use crate::config::{DiscoveryConfig, RetryPolicy};

const TIMER_KEEPALIVE: u64 = 0xE171_0000_0000_0001;
const TIMER_FLUSH: u64 = 0xE171_0000_0000_0002;
const TIMER_START_DELAY: u64 = 0xE171_0000_0000_0003;
/// Discovery-client timers live in this namespace (see `client.rs`).
const DISCOVERY_TIMER_PREFIX: u64 = 0xD15C_0000_0000_0000;

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
    keepalive_misses: u32,
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
    /// survives a restart with its subscription table intact keeps
    /// forwarding to an entity that has since failed over elsewhere, so
    /// the entity can briefly be subscribed at two brokers at once.
    dedup: BoundedDedup<Uuid>,
    last_heard: SimTime,
    ping_nonces: HashMap<u64, SimTime>,
    next_nonce: u64,
    missed: u32,
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
            keepalive_misses: 3,
            flush_interval: Duration::from_millis(50),
            start_delay: None,
            // First retry ~5 s (the historical fixed backoff), doubling
            // to a 60 s cap with ±10% jitter.
            retry_policy: RetryPolicy::new(
                Duration::from_secs(5),
                2.0,
                Duration::from_secs(60),
                0.1,
            ),
            retry_attempt: 0,
            // Remembers the last 1000 events; sized as they arrive, since
            // population runs replace it through `set_dedup_capacity`.
            dedup: BoundedDedup::with_expected(1000, 0),
            last_heard: SimTime::ZERO,
            ping_nonces: HashMap::new(),
            next_nonce: 1,
            missed: 0,
            received: Vec::new(),
            published: 0,
            attachments: Vec::new(),
            failovers: 0,
            duplicates_dropped: 0,
            internal_errors: 0,
        }
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
    /// failover rediscovery is immediate as ever. Call before the actor
    /// starts: the embedded discovery client's auto-start is turned off
    /// so the one-shot timer is the sole trigger.
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

    /// Extends the discovery client's BDN rotation with federated peers
    /// (see [`DiscoveryClient::federate_bdns`]): entity discovery then
    /// survives the loss of every originally-configured BDN.
    pub fn federate_bdns(&mut self, peers: &[NodeId]) {
        self.discovery.federate_bdns(peers);
    }

    /// Queues an event for publication (flushed while attached).
    pub fn queue_publish(&mut self, topic: Topic, payload: Vec<u8>) {
        self.outbox.push_back((topic, payload));
    }

    fn broker_endpoint(&self) -> Option<Endpoint> {
        self.broker().map(|b| Endpoint::new(b, well_known::BROKER))
    }

    fn on_attached(&mut self, broker: NodeId, ctx: &mut dyn Context) {
        // Best-effort unsubscribe at the previous broker: it may have
        // survived (or been revived) with our subscription intact and
        // would otherwise keep forwarding. The dedup cache below covers
        // the cases where this message cannot land.
        if let Some(&old) = self.attachments.last() {
            if old != broker {
                let ep = Endpoint::new(old, well_known::BROKER);
                for filter in self.filters.clone() {
                    let unsubscribe = WireMsg::new(Message::ClientUnsubscribe { filter });
                    ctx.send_stream_wire(well_known::BROKER, ep, &unsubscribe);
                }
            }
        }
        self.state = EntityState::Attached(broker);
        self.attachments.push(broker);
        self.last_heard = ctx.now();
        self.missed = 0;
        self.retry_attempt = 0;
        self.ping_nonces.clear();
        let ep = Endpoint::new(broker, well_known::BROKER);
        for filter in self.filters.clone() {
            let subscribe = WireMsg::new(Message::ClientSubscribe { filter });
            ctx.send_stream_wire(well_known::BROKER, ep, &subscribe);
        }
        self.flush(ctx);
        ctx.set_timer(self.keepalive_interval, TIMER_KEEPALIVE);
        ctx.set_timer(self.flush_interval, TIMER_FLUSH);
    }

    fn flush(&mut self, ctx: &mut dyn Context) {
        let Some(ep) = self.broker_endpoint() else {
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
        if !self.ping_nonces.is_empty() {
            self.missed += 1;
            self.ping_nonces.clear();
        }
        if self.missed >= self.keepalive_misses {
            // The broker is gone (§1.2): rediscover.
            self.failovers += 1;
            self.state = EntityState::Discovering;
            self.discovery.begin(ctx);
            return;
        }
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.ping_nonces.insert(nonce, ctx.now());
        let ping = Message::Ping {
            nonce,
            sent_at: ctx.now().as_micros(),
            reply_to: Endpoint::new(ctx.me(), well_known::PING),
        };
        let to = Endpoint::new(broker, well_known::PING);
        ctx.send_udp_wire(well_known::PING, to, &WireMsg::new(ping));
        ctx.set_timer(self.keepalive_interval, TIMER_KEEPALIVE);
    }

    fn check_discovery_progress(&mut self, ctx: &mut dyn Context) {
        if self.state != EntityState::Discovering {
            return; // only act on a discovery we are waiting for
        }
        match self.discovery.phase() {
            Phase::Done => {
                // `Done` should imply a chosen broker; if the invariant
                // ever breaks, strand and retry rather than panic.
                let Some(chosen) = self.discovery.outcome().and_then(|o| o.chosen) else {
                    self.internal_errors += 1;
                    self.state = EntityState::Stranded;
                    let delay = self.retry_policy.delay(self.retry_attempt, ctx.rng());
                    self.retry_attempt = self.retry_attempt.saturating_add(1);
                    ctx.set_timer(delay, TIMER_KEEPALIVE);
                    return;
                };
                self.on_attached(chosen, ctx);
            }
            Phase::Failed
                if self.state != EntityState::Stranded => {
                    self.state = EntityState::Stranded;
                    // Retry after a backoff (the environment is fluid;
                    // brokers may return). Each consecutive failure
                    // lengthens the wait up to the cap.
                    let delay = self.retry_policy.delay(self.retry_attempt, ctx.rng());
                    self.retry_attempt = self.retry_attempt.saturating_add(1);
                    ctx.set_timer(delay, TIMER_KEEPALIVE);
                }
            _ => {}
        }
    }
}

impl Actor for Entity {
    fn on_start(&mut self, ctx: &mut dyn Context) {
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
            Incoming::Stream { msg, .. } => {
                if let Message::Publish(ev) = msg.message() {
                    if self.dedup.check_and_insert(ev.id) {
                        self.received.push(ev.clone());
                    } else {
                        self.duplicates_dropped += 1;
                    }
                    self.last_heard = ctx.now();
                    self.missed = 0;
                    return;
                }
            }
            Incoming::Datagram { msg, .. } => {
                if let Message::Pong { nonce, .. } = msg.message() {
                    if self.ping_nonces.remove(nonce).is_some() {
                        self.last_heard = ctx.now();
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
