//! The requesting node's discovery state machine.
//!
//! Implements the full client side of the paper's scheme:
//!
//! 1. **Issue** a UUID-tagged discovery request to one configured BDN
//!    (§3), retransmitting on each ack timeout to the next BDN of the
//!    list, round-robin — requests are idempotent at the BDN.
//! 2. **Collect** UDP discovery responses for a configurable window,
//!    closing early once `max_responses` have arrived (§9's timeout /
//!    max-responses trade-off).
//! 3. **Select** the target set: estimate one-way delays from the NTP
//!    timestamps, apply the weighting formula, keep the best
//!    `size(T)` (§6, §9).
//! 4. **Ping** every target over UDP, `ping_count` times each, and
//!    choose the lowest average RTT (§6).
//! 5. **Connect** to the chosen broker, walking down the target set if a
//!    broker refuses or times out.
//!
//! Fallbacks (§7): when no BDN acks, the request goes out over
//! **multicast** (realm-limited); when that also fails, the client pings
//! its **cached target set** from the previous session directly.
//!
//! Every phase is timed — these timings are exactly the "percentage of
//! time spent in various sub-activities" of Figures 2, 9 and 11.

use std::time::Duration;

use nb_util::Uuid;
use nb_wire::addr::{well_known, DISCOVERY_GROUP};
use nb_wire::message::TransportEndpoint;
use nb_wire::{
    DiscoveryRequest, DiscoveryResponse, Endpoint, Message, NodeId, RealmId, TransportKind,
    UsageMetrics, WireMsg,
};

use nb_net::{impl_actor_any, Actor, Context, Incoming, SimTime};

use crate::config::DiscoveryConfig;
use crate::selection::{choose_by_rtt, estimate_delay_us, shortlist, Candidate};

/// Timer token that kicks off a discovery run (harnesses inject
/// `Incoming::Timer { token: TIMER_START }` to re-run discovery).
pub const TIMER_START: u64 = 0xD15C_0000_0000_0001;
const TIMER_ACK: u64 = 0xD15C_0000_0000_0002;
const TIMER_WINDOW: u64 = 0xD15C_0000_0000_0003;
const TIMER_PING: u64 = 0xD15C_0000_0000_0004;
const TIMER_CONNECT: u64 = 0xD15C_0000_0000_0005;
/// The most responses a collection round reserves room for up front; a
/// larger `max_responses` still collects them all, growing as they come.
const RESERVED_RESPONSES: usize = 64;

/// Where the client is in the discovery process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Not currently discovering.
    Idle,
    /// Request sent; waiting for the BDN ack.
    AwaitingAck,
    /// Gathering UDP responses.
    Collecting,
    /// Measuring RTTs to the target set.
    Pinging,
    /// Connecting to the chosen broker.
    Connecting,
    /// Finished successfully.
    Done,
    /// Exhausted every path without connecting.
    Failed,
}

/// Wall-clock (virtual) time spent in each sub-activity of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Issuing the request until the BDN ack (or first response).
    pub issue: Duration,
    /// Waiting for the initial set of responses.
    pub collect: Duration,
    /// Computing the target set.
    pub select: Duration,
    /// UDP ping measurement.
    pub ping: Duration,
    /// Connection establishment.
    pub connect: Duration,
}

impl PhaseTimes {
    /// Total discovery time.
    pub fn total(&self) -> Duration {
        self.issue + self.collect + self.select + self.ping + self.connect
    }

    /// `(label, share)` pairs — the paper's sub-activity percentage
    /// breakdown (Figures 2/9/11). Empty if the total is zero.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return Vec::new();
        }
        vec![
            ("issue+ack", self.issue.as_secs_f64() / total),
            ("await responses", self.collect.as_secs_f64() / total),
            ("selection", self.select.as_secs_f64() / total),
            ("ping measurement", self.ping.as_secs_f64() / total),
            ("connect", self.connect.as_secs_f64() / total),
        ]
    }
}

/// The result of one discovery run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryOutcome {
    /// The broker connected to (`None` on failure).
    pub chosen: Option<NodeId>,
    /// The broker's TCP endpoint.
    pub endpoint: Option<Endpoint>,
    /// Per-phase timings.
    pub phases: PhaseTimes,
    /// Responses gathered in the collection window.
    pub responses_received: usize,
    /// The target set (broker ids, best weight first).
    pub target_set: Vec<NodeId>,
    /// Measured ping RTTs (µs).
    pub rtts_us: Vec<(NodeId, u64)>,
    /// Whether the multicast path was used.
    pub used_multicast: bool,
    /// Whether the cached target set was used.
    pub used_cached_targets: bool,
    /// The BDN that served the request, if any.
    pub bdn_used: Option<NodeId>,
}

/// The discovery client actor.
pub struct DiscoveryClient {
    cfg: DiscoveryConfig,
    /// Start a discovery automatically once the clock syncs.
    auto_start: bool,
    /// The requester is itself a broker joining the overlay (§1.1's
    /// second case): the final step opens an overlay **link** to the
    /// chosen broker (`LinkHello`/`LinkAccept`) instead of a client
    /// connection.
    joining: bool,
    phase: Phase,
    phase_started: SimTime,
    times: PhaseTimes,
    /// This run's request (`Message::Discovery`), wrapped once: every
    /// retransmission sends this handle, or seals its message afresh.
    request: Option<WireMsg>,
    bdn_idx: usize,
    /// Request sends this run: the backoff attempt number and what the
    /// send budget is counted against.
    attempts: u32,
    candidates: Vec<Candidate>,
    targets: Vec<Candidate>,
    used_multicast: bool,
    used_cache: bool,
    bdn_used: Option<NodeId>,
    /// The ping round: slot `i` is the target pinged with nonce
    /// `ping_base + i`, emptied when its pong is recorded.
    pings: Vec<Option<NodeId>>,
    ping_base: u64,
    /// When the round's pings went out (all in one handler).
    pings_sent_at: SimTime,
    next_nonce: u64,
    rtts: Vec<(NodeId, u64)>,
    connect_order: Vec<(NodeId, Endpoint)>,
    connect_idx: usize,
    responses_count: usize,
    /// Completed runs, oldest first.
    pub completed: Vec<DiscoveryOutcome>,
    /// Target set remembered across runs (§7: "every node keeps track of
    /// its last target set of brokers").
    pub last_target_set: Vec<NodeId>,
    /// Runs kicked off.
    pub runs_started: u64,
    /// Inconsistent internal state observed on a receive path (e.g. a
    /// connect index past the order list). Counted instead of panicking:
    /// malformed or unexpected traffic must never take the client down.
    pub internal_errors: u64,
}

impl DiscoveryClient {
    /// A client that will discover automatically after NTP sync.
    pub fn new(cfg: DiscoveryConfig) -> DiscoveryClient {
        DiscoveryClient::with_auto_start(cfg, true)
    }

    /// A client; when `auto_start` is false, runs only start on
    /// [`TIMER_START`] injections.
    pub fn with_auto_start(cfg: DiscoveryConfig, auto_start: bool) -> DiscoveryClient {
        let cached = cfg.cached_targets.clone();
        DiscoveryClient {
            cfg,
            auto_start,
            joining: false,
            phase: Phase::Idle,
            phase_started: SimTime::ZERO,
            times: PhaseTimes::default(),
            request: None,
            bdn_idx: 0,
            attempts: 0,
            candidates: Vec::new(),
            targets: Vec::new(),
            used_multicast: false,
            used_cache: false,
            bdn_used: None,
            pings: Vec::new(),
            ping_base: 0,
            pings_sent_at: SimTime::ZERO,
            next_nonce: 1,
            rtts: Vec::new(),
            connect_order: Vec::new(),
            connect_idx: 0,
            responses_count: 0,
            completed: Vec::new(),
            last_target_set: cached,
            runs_started: 0,
            internal_errors: 0,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The finder of a [`crate::JoiningBroker`]: it discovers after NTP
    /// sync and ends by linking to the chosen broker.
    pub(crate) fn joining(cfg: DiscoveryConfig) -> DiscoveryClient {
        DiscoveryClient { joining: true, ..DiscoveryClient::new(cfg) }
    }

    /// The most recent completed outcome.
    pub fn outcome(&self) -> Option<&DiscoveryOutcome> {
        self.completed.last()
    }

    /// The discovery configuration.
    pub fn config(&self) -> &DiscoveryConfig {
        &self.cfg
    }

    /// Turns auto-start on or off (see
    /// [`DiscoveryClient::with_auto_start`]); call before the actor
    /// starts.
    pub(crate) fn set_auto_start(&mut self, auto_start: bool) {
        self.auto_start = auto_start;
    }

    /// The current run's request id.
    fn request_id(&self) -> Option<Uuid> {
        match self.request.as_ref().map(WireMsg::message) {
            Some(Message::Discovery(req)) => Some(req.request_id),
            _ => None,
        }
    }

    fn mark_phase(&mut self, ctx: &dyn Context) -> Duration {
        let now = ctx.now();
        let spent = now - self.phase_started;
        self.phase_started = now;
        spent
    }

    /// Begins a fresh discovery run, abandoning one in flight: after a
    /// crash, whose timers died with it.
    pub(crate) fn begin_afresh(&mut self, ctx: &mut dyn Context) {
        self.phase = Phase::Idle;
        self.begin(ctx);
    }

    /// Begins a fresh discovery run.
    pub fn begin(&mut self, ctx: &mut dyn Context) {
        if !matches!(self.phase, Phase::Idle | Phase::Done | Phase::Failed) {
            return; // a run is already in flight
        }
        self.runs_started += 1;
        self.phase_started = ctx.now();
        self.times = PhaseTimes::default();
        self.candidates.clear();
        self.connect_idx = 0;
        self.responses_count = 0;
        self.bdn_idx = 0;
        self.attempts = 0;
        self.used_multicast = false;
        self.used_cache = false;
        self.bdn_used = None;
        self.request = Some(WireMsg::new(Message::Discovery(self.build_request(ctx))));
        if self.cfg.bdns.is_empty() {
            // No BDN configured: multicast (Figure 12), else §7's cache.
            if self.cfg.multicast_enabled {
                self.go_multicast(ctx);
            } else if !self.last_target_set.is_empty() {
                self.ping_cached_targets(ctx);
            } else {
                self.phase = Phase::AwaitingAck;
                self.finish(None, ctx);
            }
        } else {
            self.phase = Phase::AwaitingAck;
            self.send_to_bdn(ctx);
        }
    }

    fn build_request(&self, ctx: &mut dyn Context) -> DiscoveryRequest {
        DiscoveryRequest {
            request_id: Uuid::random(ctx.rng()),
            requester: ctx.me(),
            hostname: format!("node-{}", ctx.me()),
            realm: ctx.realm(),
            reply_to: Endpoint::new(ctx.me(), well_known::DISCOVERY_REPLY),
            transports: vec![
                TransportEndpoint { kind: TransportKind::Udp, port: well_known::DISCOVERY_REPLY },
                TransportEndpoint { kind: TransportKind::Tcp, port: well_known::BROKER },
            ],
            credentials: self.cfg.credentials.as_deref().cloned(),
            issued_at_utc: ctx.utc_micros(),
        }
    }

    fn send_to_bdn(&mut self, ctx: &mut dyn Context) {
        let Some(&bdn) = self.cfg.bdns.get(self.bdn_idx) else {
            self.internal_errors += 1;
            self.finish(None, ctx);
            return;
        };
        let Some(request) = &self.request else {
            self.internal_errors += 1;
            self.finish(None, ctx);
            return;
        };
        let to = Endpoint::new(bdn, well_known::BDN);
        // Secured configuration (§9.1): sign + encrypt the request to the
        // BDN's key, afresh on every send. The multicast fallback stays in
        // the clear, matching the paper's prototype.
        match &self.cfg.security {
            None => ctx.send_udp_wire(well_known::DISCOVERY_REPLY, to, request),
            Some(suite) => {
                let sealed = nb_security::seal_envelope(
                    request.message(),
                    &suite.identity,
                    suite.peer_public,
                    ctx.rng(),
                );
                ctx.send_udp_wire(well_known::DISCOVERY_REPLY, to, &WireMsg::new(Message::Secure(sealed)));
            }
        }
        // A fixed ack timeout, or with a backoff policy the jittered
        // capped-exponential delay, so a herd of clients losing the same
        // BDN desynchronises its retries.
        let delay = match self.cfg.backoff {
            None => self.cfg.ack_timeout,
            Some(policy) => policy.delay(self.attempts, ctx.rng()),
        };
        self.attempts += 1;
        ctx.set_timer(delay, TIMER_ACK);
    }

    fn go_multicast(&mut self, ctx: &mut dyn Context) {
        self.used_multicast = true;
        // Fresh UUID so brokers that deduplicated the BDN-path request
        // still answer the multicast retry.
        let mut req = self.build_request(ctx);
        req.issued_at_utc = ctx.utc_micros();
        let request = WireMsg::new(Message::Discovery(req));
        ctx.send_multicast(
            well_known::DISCOVERY_REPLY,
            DISCOVERY_GROUP,
            well_known::MULTICAST_DISCOVERY,
            request.message(),
        );
        self.request = Some(request);
        // Multicast has no ack; the issue phase ends immediately.
        self.start_collecting(ctx);
    }

    fn start_collecting(&mut self, ctx: &mut dyn Context) {
        { let spent = self.mark_phase(ctx); self.times.issue += spent; }
        self.phase = Phase::Collecting;
        self.candidates.reserve(self.cfg.max_responses.min(RESERVED_RESPONSES));
        ctx.cancel_timer(TIMER_ACK);
        ctx.set_timer(self.cfg.collection_window, TIMER_WINDOW);
    }

    fn on_response(&mut self, resp: DiscoveryResponse, ctx: &mut dyn Context) {
        if Some(resp.request_id) != self.request_id() {
            return; // stale response from an earlier run/request
        }
        if resp.broker == ctx.me() {
            return; // a joining broker must not select itself
        }
        match self.phase {
            Phase::AwaitingAck => {
                // Implicit ack: responses prove the request got through.
                self.start_collecting(ctx);
            }
            Phase::Collecting => {}
            _ => return,
        }
        // A second copy of one broker's answer (a duplicated datagram, or
        // a broker restarted without its dedup cache) is not a second
        // response toward `max_responses`: keep the first copy, which for a
        // duplicated datagram is the lowest-delay one `shortlist` keeps.
        if self.candidates.iter().any(|c| c.response.broker == resp.broker) {
            return;
        }
        let est = estimate_delay_us(ctx.utc_micros(), &resp);
        self.candidates.push(Candidate { response: resp, est_delay_us: est, weight: 0.0 });
        if self.candidates.len() >= self.cfg.max_responses {
            self.end_collection(ctx);
        }
    }

    fn end_collection(&mut self, ctx: &mut dyn Context) {
        ctx.cancel_timer(TIMER_WINDOW);
        { let spent = self.mark_phase(ctx); self.times.collect += spent; }
        // Selection (pure computation; negligible under virtual time but
        // timed for the breakdown's completeness).
        let candidates = std::mem::take(&mut self.candidates);
        let n = candidates.len();
        self.responses_count = self.responses_count.max(n);
        self.targets = shortlist(
            candidates,
            &self.cfg.weights,
            self.cfg.max_responses,
            self.cfg.target_set_size,
        );
        { let spent = self.mark_phase(ctx); self.times.select += spent; }
        if self.targets.is_empty() {
            // No broker answered (§7 fallbacks).
            if self.cfg.multicast_enabled && !self.used_multicast && n == 0 {
                self.phase = Phase::AwaitingAck;
                self.go_multicast(ctx);
            } else if !self.last_target_set.is_empty() && !self.used_cache {
                self.ping_cached_targets(ctx);
            } else {
                self.finish(None, ctx);
            }
            return;
        }
        self.start_pinging(ctx);
    }

    /// §7: after a prolonged disconnect with no BDN available, ping the
    /// remembered target set directly.
    fn ping_cached_targets(&mut self, ctx: &mut dyn Context) {
        self.used_cache = true;
        let request_id = self.request_id().unwrap_or(Uuid::NIL);
        self.targets = self
            .last_target_set
            .iter()
            .map(|&broker| Candidate {
                response: DiscoveryResponse {
                    request_id,
                    broker,
                    hostname: String::new(),
                    realm: RealmId(0),
                    transports: vec![
                        TransportEndpoint { kind: TransportKind::Tcp, port: well_known::BROKER },
                        TransportEndpoint { kind: TransportKind::Udp, port: well_known::PING },
                    ],
                    issued_at_utc: 0,
                    metrics: UsageMetrics {
                        active_connections: 0,
                        num_links: 0,
                        cpu_load_permille: 0,
                        total_memory: 0,
                        used_memory: 0,
                    },
                },
                est_delay_us: 0,
                weight: 0.0,
            })
            .collect();
        self.start_pinging(ctx);
    }

    fn start_pinging(&mut self, ctx: &mut dyn Context) {
        self.phase = Phase::Pinging;
        let round = self.targets.len().saturating_mul(self.cfg.ping_count as usize);
        self.rtts.clear();
        self.rtts.reserve(round);
        self.pings.clear();
        self.pings.reserve(round);
        self.ping_base = self.next_nonce;
        self.pings_sent_at = ctx.now();
        let reply_to = Endpoint::new(ctx.me(), well_known::PING);
        for t in &self.targets {
            let broker = t.response.broker;
            let port = t.response.port_for(TransportKind::Udp).unwrap_or(well_known::PING);
            for _ in 0..self.cfg.ping_count {
                let ping = Message::Ping { nonce: self.next_nonce, sent_at: ctx.now().as_micros(), reply_to };
                self.next_nonce += 1;
                self.pings.push(Some(broker));
                ctx.send_udp_wire(well_known::PING, Endpoint::new(broker, port), &WireMsg::new(ping));
            }
        }
        ctx.set_timer(self.cfg.ping_window, TIMER_PING);
    }

    /// Records a pong of this round's, once: a nonce from an earlier
    /// round, one never sent and a repeat all find no slot.
    fn on_pong(&mut self, nonce: u64, ctx: &mut dyn Context) {
        if self.phase != Phase::Pinging {
            return;
        }
        let slot = nonce
            .checked_sub(self.ping_base)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| self.pings.get_mut(i));
        if let Some(broker) = slot.and_then(Option::take) {
            let rtt = (ctx.now() - self.pings_sent_at).as_micros() as u64;
            self.rtts.push((broker, rtt));
            if self.rtts.len() >= self.pings.len() {
                self.end_pinging(ctx);
            }
        }
    }

    fn end_pinging(&mut self, ctx: &mut dyn Context) {
        ctx.cancel_timer(TIMER_PING);
        { let spent = self.mark_phase(ctx); self.times.ping += spent; }
        // Connection order: ping winner first, then the rest of the
        // target set by weight (so refused connections walk down the
        // list).
        let winner = choose_by_rtt(&self.targets, &self.rtts);
        let mut order: Vec<(NodeId, Endpoint)> = Vec::with_capacity(self.targets.len());
        if let Some(w) = winner {
            if let Some(t) = self.targets.iter().find(|t| t.response.broker == w) {
                let port = t.response.port_for(TransportKind::Tcp).unwrap_or(well_known::BROKER);
                order.push((w, Endpoint::new(w, port)));
            }
        }
        for t in &self.targets {
            let b = t.response.broker;
            if Some(b) == winner {
                continue;
            }
            let port = t.response.port_for(TransportKind::Tcp).unwrap_or(well_known::BROKER);
            order.push((b, Endpoint::new(b, port)));
        }
        if order.is_empty() {
            self.finish(None, ctx);
            return;
        }
        self.connect_order = order;
        self.connect_idx = 0;
        self.phase = Phase::Connecting;
        self.try_connect(ctx);
    }

    fn try_connect(&mut self, ctx: &mut dyn Context) {
        let Some(&(_broker, ep)) = self.connect_order.get(self.connect_idx) else {
            self.internal_errors += 1;
            self.finish(None, ctx);
            return;
        };
        let msg = if self.joining {
            // §1.1: a joining broker opens an overlay link instead.
            Message::LinkHello { from: ctx.me(), realm: ctx.realm() }
        } else {
            Message::ClientConnect { client: ctx.me(), reply_port: well_known::BROKER }
        };
        ctx.send_stream_wire(well_known::BROKER, ep, &WireMsg::new(msg));
        ctx.set_timer(self.cfg.ack_timeout, TIMER_CONNECT);
    }

    fn on_connect_ack(&mut self, broker: NodeId, accepted: bool, ctx: &mut dyn Context) {
        if self.phase != Phase::Connecting {
            return;
        }
        let Some(&(expected, ep)) = self.connect_order.get(self.connect_idx) else {
            self.internal_errors += 1;
            return;
        };
        if broker != expected {
            return;
        }
        if accepted {
            ctx.cancel_timer(TIMER_CONNECT);
            self.finish(Some((broker, ep)), ctx);
        } else {
            self.advance_connect(ctx);
        }
    }

    fn advance_connect(&mut self, ctx: &mut dyn Context) {
        self.connect_idx += 1;
        if self.connect_idx < self.connect_order.len() {
            self.try_connect(ctx);
        } else {
            ctx.cancel_timer(TIMER_CONNECT);
            self.finish(None, ctx);
        }
    }

    fn finish(&mut self, chosen: Option<(NodeId, Endpoint)>, ctx: &mut dyn Context) {
        match self.phase {
            Phase::Connecting => { let spent = self.mark_phase(ctx); self.times.connect += spent; }
            Phase::Pinging => { let spent = self.mark_phase(ctx); self.times.ping += spent; }
            Phase::Collecting => { let spent = self.mark_phase(ctx); self.times.collect += spent; }
            _ => {
                { let spent = self.mark_phase(ctx); self.times.issue += spent; }
            }
        }
        // The outcome keeps the broker ids; the run's buffers go (a `Done`
        // or `Failed` client drops late traffic by its phase).
        self.request = None;
        self.pings = Vec::new();
        self.connect_order = Vec::new();
        let targets = std::mem::take(&mut self.targets);
        let target_set: Vec<NodeId> = targets.iter().map(|t| t.response.broker).collect();
        if !target_set.is_empty() {
            self.last_target_set.clone_from(&target_set);
        }
        let outcome = DiscoveryOutcome {
            chosen: chosen.map(|(b, _)| b),
            endpoint: chosen.map(|(_, e)| e),
            phases: self.times,
            responses_received: self.responses_count.max(self.candidates.len()),
            target_set,
            rtts_us: std::mem::take(&mut self.rtts),
            used_multicast: self.used_multicast,
            used_cached_targets: self.used_cache,
            bdn_used: self.bdn_used,
        };
        self.phase = if outcome.chosen.is_some() { Phase::Done } else { Phase::Failed };
        self.completed.reserve_exact(1); // a client finishes one run or two
        self.completed.push(outcome);
    }

    fn on_ack_timeout(&mut self, ctx: &mut dyn Context) {
        if self.phase != Phase::AwaitingAck {
            return;
        }
        // Idempotent retransmission (§3), round-robin across the BDN list
        // on every timeout: a down BDN costs one wait, not a full
        // retransmit budget.
        let budget = (self.cfg.retransmits_per_bdn + 1) * self.cfg.bdns.len().max(1) as u32;
        if self.attempts < budget {
            self.bdn_idx = (self.bdn_idx + 1) % self.cfg.bdns.len();
            self.send_to_bdn(ctx);
            return;
        }
        // Every BDN is unreachable (§7).
        if self.cfg.multicast_enabled && !self.used_multicast {
            self.go_multicast(ctx);
        } else if !self.last_target_set.is_empty() && !self.used_cache {
            { let spent = self.mark_phase(ctx); self.times.issue += spent; }
            self.ping_cached_targets(ctx);
        } else {
            self.finish(None, ctx);
        }
    }
}

impl Actor for DiscoveryClient {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.auto_start && ctx.clock_synced() {
            self.begin(ctx);
        }
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::ClockSynced => {
                if self.auto_start && self.runs_started == 0 {
                    self.begin(ctx);
                }
            }
            Incoming::Timer { token } => match token {
                TIMER_START => self.begin(ctx),
                TIMER_ACK => self.on_ack_timeout(ctx),
                TIMER_WINDOW
                    if self.phase == Phase::Collecting => {
                        self.end_collection(ctx);
                    }
                TIMER_PING
                    if self.phase == Phase::Pinging => {
                        self.end_pinging(ctx);
                    }
                TIMER_CONNECT
                    if self.phase == Phase::Connecting => {
                        self.advance_connect(ctx);
                    }
                _ => {}
            },
            Incoming::Datagram { msg, .. } => match msg.into_message() {
                Message::DiscoveryAck { request_id, bdn }
                    if self.phase == Phase::AwaitingAck && Some(request_id) == self.request_id() =>
                {
                    self.bdn_used = Some(bdn);
                    self.start_collecting(ctx);
                }
                Message::Response(resp) => self.on_response(resp, ctx),
                Message::Pong { nonce, .. } => self.on_pong(nonce, ctx),
                _ => {}
            },
            Incoming::Stream { msg, .. } => match msg.into_message() {
                Message::ClientConnectAck { broker, accepted } => {
                    self.on_connect_ack(broker, accepted, ctx);
                }
                // Broker-join mode: the peer's LinkAccept seals the join.
                Message::LinkAccept { from, .. } if self.joining => {
                    self.on_connect_ack(from, true, ctx);
                }
                _ => {}
            },
        }
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_shares_sum_to_one() {
        let times = PhaseTimes {
            issue: Duration::from_millis(10),
            collect: Duration::from_millis(70),
            select: Duration::from_millis(1),
            ping: Duration::from_millis(15),
            connect: Duration::from_millis(4),
        };
        let shares = times.shares();
        assert_eq!(shares.len(), 5);
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(times.total(), Duration::from_millis(100));
        // The dominant share is awaiting responses.
        let max = shares.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert_eq!(max.0, "await responses");
    }

    #[test]
    fn zero_total_has_no_shares() {
        assert!(PhaseTimes::default().shares().is_empty());
    }
}

#[cfg(test)]
mod state_machine_tests {
    use super::*;
    use nb_net::{ScriptCtx, Sent, Via};
    use nb_wire::message::TransportEndpoint;
    use nb_wire::{RealmId, UsageMetrics};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn new_ctx() -> ScriptCtx {
        ScriptCtx { me: NodeId(9), rng: StdRng::seed_from_u64(1), ..ScriptCtx::default() }
    }

    /// The kind of the last message sent.
    fn last_kind(ctx: &ScriptCtx) -> Option<&'static str> {
        ctx.sent.last().map(|s| s.msg.kind())
    }

    fn response_from(broker: u32, request_id: Uuid, utc: u64) -> Message {
        Message::Response(DiscoveryResponse {
            request_id,
            broker: NodeId(broker),
            hostname: format!("b{broker}"),
            realm: RealmId(0),
            transports: vec![
                TransportEndpoint { kind: TransportKind::Tcp, port: well_known::BROKER },
                TransportEndpoint { kind: TransportKind::Udp, port: well_known::PING },
            ],
            issued_at_utc: utc,
            metrics: UsageMetrics {
                active_connections: 0,
                num_links: 1,
                cpu_load_permille: 0,
                total_memory: 1 << 30,
                used_memory: 100 << 20,
            },
        })
    }

    fn datagram(msg: Message) -> Incoming {
        Incoming::Datagram {
            from: Endpoint::new(NodeId(100), well_known::BDN),
            to_port: well_known::DISCOVERY_REPLY,
            msg: msg.into(),
        }
    }

    fn client_with(max_responses: usize) -> DiscoveryClient {
        DiscoveryClient::with_auto_start(
            DiscoveryConfig {
                bdns: vec![NodeId(100)],
                max_responses,
                target_set_size: 2,
                ping_count: 1,
                ..DiscoveryConfig::default()
            },
            false,
        )
    }

    #[test]
    fn full_walk_request_to_done_with_implicit_ack() {
        let mut ctx = new_ctx();
        let mut c = client_with(2);
        c.begin(&mut ctx);
        assert_eq!(c.phase(), Phase::AwaitingAck);
        assert_eq!(last_kind(&ctx), Some("discovery-request"));
        let rid = c.request_id().unwrap();

        // A response lands before any ack: implicit transition into
        // Collecting (the paper's ack is a receipt, not a gate).
        ctx.now = SimTime::from_millis(20);
        c.on_incoming(datagram(response_from(1, rid, 15_000)), &mut ctx);
        assert_eq!(c.phase(), Phase::Collecting);

        // The second response hits max_responses: straight to Pinging.
        ctx.now = SimTime::from_millis(40);
        c.on_incoming(datagram(response_from(2, rid, 30_000)), &mut ctx);
        assert_eq!(c.phase(), Phase::Pinging);
        let pings: Vec<&Message> =
            ctx.sent.iter().map(|s| s.msg.message()).filter(|m| m.kind() == "ping").collect();
        assert_eq!(pings.len(), 2, "one ping per target");

        // Pongs for both targets: broker 1 answers faster.
        let nonce_of = |m: &&Message| match m {
            Message::Ping { nonce, .. } => *nonce,
            _ => unreachable!(),
        };
        let nonces: Vec<u64> = pings.iter().map(nonce_of).collect();
        ctx.now = SimTime::from_millis(45);
        c.on_incoming(
            datagram(Message::Pong { nonce: nonces[0], echoed_sent_at: 0, responder: NodeId(1) }),
            &mut ctx,
        );
        ctx.now = SimTime::from_millis(70);
        c.on_incoming(
            datagram(Message::Pong { nonce: nonces[1], echoed_sent_at: 0, responder: NodeId(2) }),
            &mut ctx,
        );
        assert_eq!(c.phase(), Phase::Connecting);
        assert_eq!(last_kind(&ctx), Some("client-connect"));

        // The winner (broker 1, lower RTT) accepts.
        ctx.now = SimTime::from_millis(80);
        c.on_incoming(
            Incoming::Stream {
                from: Endpoint::new(NodeId(1), well_known::BROKER),
                to_port: well_known::BROKER,
                msg: Message::ClientConnectAck { broker: NodeId(1), accepted: true }.into(),
            },
            &mut ctx,
        );
        assert_eq!(c.phase(), Phase::Done);
        let outcome = c.outcome().unwrap();
        assert_eq!(outcome.chosen, Some(NodeId(1)));
        assert_eq!(outcome.responses_received, 2);
        assert_eq!(outcome.phases.total(), Duration::from_millis(80));
        assert_eq!(c.last_target_set.len(), 2, "target set cached for §7 reconnects");
    }

    /// Begins a run, answers it from brokers 1 and 2 and returns the
    /// nonces of the pings that sent.
    fn run_to_pinging(c: &mut DiscoveryClient, ctx: &mut ScriptCtx) -> Vec<u64> {
        c.begin(ctx);
        let rid = c.request_id().unwrap();
        let sent_before = ctx.sent.len();
        c.on_incoming(datagram(response_from(1, rid, 1000)), ctx);
        c.on_incoming(datagram(response_from(2, rid, 2000)), ctx);
        assert_eq!(c.phase(), Phase::Pinging);
        ctx.sent[sent_before..]
            .iter()
            .filter_map(|s| match s.msg.message() {
                Message::Ping { nonce, .. } => Some(*nonce),
                _ => None,
            })
            .collect()
    }

    fn pong(nonce: u64) -> Incoming {
        datagram(Message::Pong { nonce, echoed_sent_at: 0, responder: NodeId(1) })
    }

    #[test]
    fn an_ended_phase_leaves_its_timer_disarmed() {
        let mut ctx = new_ctx();
        let mut c = client_with(2);
        let nonces = run_to_pinging(&mut c, &mut ctx);
        // The second response reached max_responses: the window closed early.
        assert_eq!(ctx.armed, [TIMER_PING].into());
        for nonce in nonces {
            c.on_incoming(pong(nonce), &mut ctx);
        }
        assert_eq!(c.phase(), Phase::Connecting, "every pong is in");
        assert_eq!(ctx.armed, [TIMER_CONNECT].into());
    }

    #[test]
    fn stale_unknown_and_repeated_pongs_record_no_rtt() {
        let mut ctx = new_ctx();
        let mut c = client_with(2);
        // Round one runs out its ping window, connects and finishes.
        let earlier = run_to_pinging(&mut c, &mut ctx);
        c.on_incoming(Incoming::Timer { token: TIMER_PING }, &mut ctx);
        let first = c.connect_order[0].0;
        let ack = Message::ClientConnectAck { broker: first, accepted: true };
        let from = Endpoint::new(first, well_known::BROKER);
        c.on_incoming(Incoming::Stream { from, to_port: well_known::BROKER, msg: ack.into() }, &mut ctx);
        assert_eq!(c.phase(), Phase::Done);

        let nonces = run_to_pinging(&mut c, &mut ctx);
        assert_eq!(nonces.len(), 2);
        ctx.now = SimTime::from_millis(30);
        let never_sent = nonces.iter().max().unwrap() + 1;
        for nonce in [earlier[0], earlier[1], never_sent, u64::MAX, 0] {
            c.on_incoming(pong(nonce), &mut ctx);
        }
        assert!(c.rtts.is_empty(), "no pong of this round arrived yet: {:?}", c.rtts);
        assert_eq!(c.phase(), Phase::Pinging);
        c.on_incoming(pong(nonces[0]), &mut ctx);
        c.on_incoming(pong(nonces[0]), &mut ctx);
        assert_eq!(c.rtts.len(), 1, "a repeated pong is recorded once");
        assert_eq!(c.phase(), Phase::Pinging, "the round still waits for its second pong");
        c.on_incoming(pong(nonces[1]), &mut ctx);
        assert_eq!(c.phase(), Phase::Connecting);
        assert_eq!(c.rtts.len(), 2);
    }

    #[test]
    fn a_duplicated_response_does_not_count_toward_max_responses() {
        let mut ctx = new_ctx();
        let mut c = client_with(2);
        c.begin(&mut ctx);
        let rid = c.request_id().unwrap();
        ctx.now = SimTime::from_millis(20);
        c.on_incoming(datagram(response_from(1, rid, 15_000)), &mut ctx);
        let first_delay = c.candidates[0].est_delay_us;
        ctx.now = SimTime::from_millis(25);
        c.on_incoming(datagram(response_from(1, rid, 15_000)), &mut ctx);
        assert_eq!(c.phase(), Phase::Collecting, "two copies of broker 1's answer are one response");
        assert_eq!(c.candidates.len(), 1);
        assert_eq!(c.candidates[0].est_delay_us, first_delay, "the first copy is kept");

        ctx.now = SimTime::from_millis(40);
        c.on_incoming(datagram(response_from(2, rid, 30_000)), &mut ctx);
        assert_eq!(c.phase(), Phase::Pinging);
        let mut pinged: Vec<NodeId> = ctx.sent.iter().filter(|s| s.msg.kind() == "ping").map(|s| s.to.node).collect();
        pinged.sort_unstable();
        assert_eq!(pinged, vec![NodeId(1), NodeId(2)], "both brokers are in the target set");
    }

    #[test]
    fn stale_responses_from_previous_runs_are_ignored() {
        let mut ctx = new_ctx();
        let mut c = client_with(5);
        c.begin(&mut ctx);
        let old = Uuid::from_u128(0xDEAD);
        c.on_incoming(datagram(response_from(1, old, 1000)), &mut ctx);
        assert_eq!(c.phase(), Phase::AwaitingAck, "foreign request id must not transition");
    }

    #[test]
    fn no_bdn_configured_begins_in_collecting() {
        let mut ctx = new_ctx();
        let mut c = DiscoveryClient::with_auto_start(DiscoveryConfig::default(), false);
        c.begin(&mut ctx);
        assert_eq!(c.phase(), Phase::Collecting);
        assert!(c.used_multicast);
        let last = ctx.sent.last().unwrap();
        let multicast = (well_known::MULTICAST_DISCOVERY, Via::Multicast(DISCOVERY_GROUP), "discovery-request");
        assert_eq!((last.to.port, last.via, last.msg.kind()), multicast, "multicast");
        // The window timer is armed.
        assert!(ctx.timers.iter().any(|(_, t)| *t == TIMER_WINDOW));
    }

    #[test]
    fn backoff_rotates_bdns_with_exponential_delays() {
        use crate::config::RetryPolicy;
        let mut ctx = new_ctx();
        let mut c = DiscoveryClient::with_auto_start(
            DiscoveryConfig {
                bdns: vec![NodeId(100), NodeId(200)],
                retransmits_per_bdn: 1, // budget: 2 sends per BDN = 4 total
                // jitter 0 so the schedule is exact
                backoff: Some(RetryPolicy::new(
                    Duration::from_millis(100),
                    2.0,
                    Duration::from_millis(800),
                    0.0,
                )),
                ..DiscoveryConfig::default()
            },
            false,
        );
        c.begin(&mut ctx);
        for _ in 0..4 {
            c.on_incoming(Incoming::Timer { token: TIMER_ACK }, &mut ctx);
        }
        // Requests alternate across the BDN list instead of exhausting
        // one BDN first.
        let unicast = |s: &&Sent| s.msg.kind() == "discovery-request" && !matches!(s.via, Via::Multicast(_));
        let reqs: Vec<NodeId> = ctx.sent.iter().filter(unicast).map(|s| s.to.node).collect();
        assert_eq!(reqs, vec![NodeId(100), NodeId(200), NodeId(100), NodeId(200)]);
        // Ack timers follow the capped exponential schedule.
        let acks: Vec<Duration> =
            ctx.timers.iter().filter(|(_, t)| *t == TIMER_ACK).map(|(d, _)| *d).collect();
        assert_eq!(
            acks,
            vec![
                Duration::from_millis(100),
                Duration::from_millis(200),
                Duration::from_millis(400),
                Duration::from_millis(800),
            ]
        );
        // Budget exhausted: the 5th timeout fell back to multicast.
        assert!(c.used_multicast);
        assert_eq!(c.phase(), Phase::Collecting);
    }

    #[test]
    fn fixed_schedule_rotates_bdns_then_multicasts_without_rng_draws() {
        let mut ctx = new_ctx();
        let ack_timeout = Duration::from_millis(700);
        let mut c = DiscoveryClient::with_auto_start(
            DiscoveryConfig {
                bdns: vec![NodeId(100), NodeId(200)],
                retransmits_per_bdn: 2, // budget: 3 sends per BDN = 6 total
                ack_timeout,
                backoff: None,
                ..DiscoveryConfig::default()
            },
            false,
        );
        c.begin(&mut ctx);
        let rng_after_begin = ctx.rng.clone();
        // Neither BDN ever answers: each timeout fires `ack_timeout` after
        // the send that armed it.
        for _ in 0..5 {
            ctx.now += ack_timeout;
            c.on_incoming(Incoming::Timer { token: TIMER_ACK }, &mut ctx);
        }
        assert_eq!(ctx.rng, rng_after_begin, "retries draw nothing from the client's RNG");
        let requests = ctx.sent.iter().filter(|s| s.msg.kind() == "discovery-request");
        let reqs: Vec<(Endpoint, Via)> = requests.map(|s| (s.to, s.via)).collect();
        let bdn = |n| (Endpoint::new(NodeId(n), well_known::BDN), Via::Datagram);
        assert_eq!(reqs, [100, 200, 100, 200, 100, 200].map(bdn), "each BDN is asked by datagram");
        let acks: Vec<Duration> =
            ctx.timers.iter().filter(|(_, t)| *t == TIMER_ACK).map(|(d, _)| *d).collect();
        assert_eq!(acks, vec![ack_timeout; 6], "every wait is exactly ack_timeout");
        assert_eq!(c.phase(), Phase::AwaitingAck);
        assert!(!c.used_multicast);
        // The sixth send's timeout exhausts the budget: multicast starts.
        ctx.now += ack_timeout;
        c.on_incoming(Incoming::Timer { token: TIMER_ACK }, &mut ctx);
        assert!(c.used_multicast);
        assert_eq!(c.phase(), Phase::Collecting);
        let last = ctx.sent.last().unwrap();
        let multicast = (well_known::MULTICAST_DISCOVERY, Via::Multicast(DISCOVERY_GROUP), "discovery-request");
        assert_eq!((last.to.port, last.via, last.msg.kind()), multicast, "then the fallback multicasts");
        assert_eq!(c.outcome(), None);
        assert_eq!(c.times.issue, ack_timeout * 6);
    }

    #[test]
    fn jittered_backoff_delays_stay_within_bounds() {
        use crate::config::RetryPolicy;
        let p = RetryPolicy::new(Duration::from_millis(100), 2.0, Duration::from_secs(2), 0.25);
        let mut ctx = new_ctx();
        for attempt in 0..12 {
            let nominal = p.nominal(attempt);
            for _ in 0..50 {
                let d = p.delay(attempt, &mut ctx.rng);
                assert!(d >= nominal.mul_f64(0.75), "delay {d:?} under bound at {attempt}");
                assert!(d <= nominal.mul_f64(1.25), "delay {d:?} over bound at {attempt}");
            }
        }
    }

    #[test]
    fn multicast_disabled_skips_fallback_and_uses_cached_targets() {
        let mut ctx = new_ctx();
        let mut c = DiscoveryClient::with_auto_start(
            DiscoveryConfig {
                bdns: vec![NodeId(100)],
                retransmits_per_bdn: 0,
                multicast_enabled: false,
                cached_targets: vec![NodeId(7)],
                ..DiscoveryConfig::default()
            },
            false,
        );
        c.begin(&mut ctx);
        // The only BDN times out; multicast is disabled, so the client
        // goes straight to pinging its cached target set.
        c.on_incoming(Incoming::Timer { token: TIMER_ACK }, &mut ctx);
        assert_eq!(c.phase(), Phase::Pinging);
        assert!(!c.used_multicast);
        assert!(ctx.sent.iter().all(|s| !matches!(s.via, Via::Multicast(_))), "no multicast sent");
        assert!(ctx.sent.iter().any(|s| s.msg.kind() == "ping" && s.to.node == NodeId(7)));
    }

    #[test]
    fn connect_rejection_walks_then_fails() {
        let mut ctx = new_ctx();
        let mut c = client_with(2);
        c.begin(&mut ctx);
        let rid = c.request_id().unwrap();
        c.on_incoming(datagram(response_from(1, rid, 1000)), &mut ctx);
        c.on_incoming(datagram(response_from(2, rid, 2000)), &mut ctx);
        // Skip pongs entirely: the ping window expires, the client falls
        // back to target-set order.
        c.on_incoming(Incoming::Timer { token: TIMER_PING }, &mut ctx);
        assert_eq!(c.phase(), Phase::Connecting);
        // First choice refuses…
        let first = c.connect_order[0].0;
        c.on_incoming(
            Incoming::Stream {
                from: Endpoint::new(first, well_known::BROKER),
                to_port: well_known::BROKER,
                msg: Message::ClientConnectAck { broker: first, accepted: false }.into(),
            },
            &mut ctx,
        );
        assert_eq!(c.phase(), Phase::Connecting, "walked to the next target");
        let second = c.connect_order[1].0;
        assert_ne!(first, second);
        // …second times out: exhausted, Failed.
        c.on_incoming(Incoming::Timer { token: TIMER_CONNECT }, &mut ctx);
        assert_eq!(c.phase(), Phase::Failed);
        assert!(c.outcome().unwrap().chosen.is_none());
    }
}
