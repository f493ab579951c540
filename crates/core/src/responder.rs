//! The broker-side discovery responder.
//!
//! Handles three duties of a broker participating in discovery:
//!
//! 1. **Answering discovery requests** (paper §5): dedup by request UUID
//!    (the last-1000 cache of §4), consult the [`ResponsePolicy`], then
//!    send a [`nb_wire::DiscoveryResponse`] — NTP timestamp, process
//!    info, usage metrics — over **UDP** directly to the requester.
//! 2. **Answering UDP pings** (paper §6) with pongs echoing the sender's
//!    timestamp.
//! 3. **Listening on the discovery multicast group** (paper §7): a
//!    request received via multicast is answered *and* re-flooded into
//!    the overlay so that "the discovery request would be propagated
//!    through the system".

use std::collections::VecDeque;
use std::time::Duration;

use nb_broker::{Broker, DEDUP_CAPACITY};
use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::{well_known, DISCOVERY_GROUP};
use nb_wire::message::TransportEndpoint;
use nb_wire::topic::DISCOVERY_REQUEST;
use nb_wire::{
    DiscoveryRequest, DiscoveryRequestView, DiscoveryResponse, Endpoint, Message, Topic,
    TransportKind, Wire, WireMsg,
};

use nb_net::{Context, Incoming};

use crate::policy::ResponsePolicy;

/// Timer-token namespace used for delayed responses.
const RESPONDER_TIMER_BASE: u64 = 0x5E50_0000_0000_0000;
/// Service time before a response leaves the broker: policy check,
/// metrics collection and serialisation (the paper ran a 2005 JVM).
/// Each response is delayed by `SERVICE_TIME + U(0, SERVICE_TIME/2)`.
const SERVICE_TIME: Duration = Duration::from_millis(40);

/// The responder service embedded in a discovery-enabled broker actor.
#[derive(Debug)]
pub struct Responder {
    policy: ResponsePolicy,
    dedup: BoundedDedup<Uuid>,
    /// Responses waiting out their service time, as they will go on the
    /// wire. Timer tokens carry a sequence number and slot `i` belongs
    /// to number `pending_head + i`, so a firing finds its response by
    /// index; firings arrive out of order (the delay is jittered), so a
    /// sent slot empties in place and leaves the ring once everything
    /// before it has too.
    pending: VecDeque<Option<(Endpoint, WireMsg)>>,
    pending_head: u64,
    /// The re-flood topic, cloned from nb-wire's process-wide value at
    /// construction so the multicast receive path never carries a
    /// panicking read (the crate denies panics outside its tests).
    flood_topic: Topic,
    /// Responses actually sent.
    pub responses_sent: u64,
    /// Requests suppressed as duplicates.
    pub duplicates_suppressed: u64,
    /// Requests rejected by policy.
    pub rejected_by_policy: u64,
    /// Pings answered.
    pub pings_answered: u64,
}

impl Responder {
    /// A responder with the given policy and the paper's last-1000
    /// request cache.
    pub fn new(policy: ResponsePolicy) -> Responder {
        Responder {
            policy,
            dedup: BoundedDedup::new(DEDUP_CAPACITY),
            pending: VecDeque::new(),
            pending_head: 0,
            flood_topic: DISCOVERY_REQUEST.topic(),
            responses_sent: 0,
            duplicates_suppressed: 0,
            rejected_by_policy: 0,
            pings_answered: 0,
        }
    }

    /// Heap bytes of the request duplicate cache.
    pub fn dedup_bytes(&self) -> usize {
        self.dedup.heap_bytes()
    }

    /// Transports this broker advertises: TCP broker service + UDP ping.
    pub fn transports() -> Vec<TransportEndpoint> {
        vec![
            TransportEndpoint { kind: TransportKind::Tcp, port: well_known::BROKER },
            TransportEndpoint { kind: TransportKind::Udp, port: well_known::PING },
            TransportEndpoint { kind: TransportKind::Multicast, port: well_known::MULTICAST_DISCOVERY },
        ]
    }

    /// Joins the discovery multicast group. A (re)start also abandons
    /// responses still waiting: their timers died with the crash, so
    /// nothing would ever send them or free their slots.
    pub fn on_start(&mut self, ctx: &mut dyn Context) {
        self.pending_head += self.pending.len() as u64;
        self.pending.clear();
        ctx.join_group(DISCOVERY_GROUP);
    }

    /// Offers an incoming runtime event; returns `true` if consumed.
    pub fn handle(&mut self, event: &Incoming, broker: &mut Broker, ctx: &mut dyn Context) -> bool {
        if let Incoming::Timer { token } = event {
            if (token & !0xFFFF_FFFFu64) == RESPONDER_TIMER_BASE {
                // Sequence numbers travel truncated to 32 bits; the
                // wrapping distance from the head recovers the slot.
                let slot = (*token as u32).wrapping_sub(self.pending_head as u32) as usize;
                if let Some((dest, msg)) = self.pending.get_mut(slot).and_then(Option::take) {
                    ctx.send_udp_wire(well_known::DISCOVERY_REPLY, dest, &msg);
                    self.responses_sent += 1;
                }
                while let Some(None) = self.pending.front() {
                    self.pending.pop_front();
                    self.pending_head += 1;
                }
                return true;
            }
            return false;
        }
        let Incoming::Datagram { to_port, msg, .. } = event else {
            return false;
        };
        match (*to_port, msg.message()) {
            (p, &Message::Ping { nonce, sent_at, reply_to }) if p == well_known::PING => {
                self.pings_answered += 1;
                let pong = Message::Pong { nonce, echoed_sent_at: sent_at, responder: ctx.me() };
                ctx.send_udp_wire(well_known::PING, reply_to, &WireMsg::new(pong));
                true
            }
            (p, Message::Discovery(req)) if p == well_known::MULTICAST_DISCOVERY => {
                // Multicast path: answer, then propagate through the
                // overlay on the predefined topic (paper §7).
                self.reflood(req, broker, ctx);
                self.on_request(req, broker, ctx);
                true
            }
            _ => false,
        }
    }

    /// Handles the payload of a flood-topic event surfaced by the
    /// broker: an encoded request, or something to ignore.
    ///
    /// The request's UUID sits at a fixed body offset, so one this
    /// broker already handled is dropped on a header peek alone.
    /// State-equivalent to going through `Responder::on_request`:
    /// `check_and_insert` on a present key does not mutate the cache,
    /// so `contains` plus early-out leaves identical dedup state and the
    /// same suppression count. A fresh request is validated in full but
    /// acted on from its borrowed fields — the broker keeps no part of
    /// it, so nothing of it is allocated.
    pub fn on_flooded(&mut self, event_payload: &[u8], broker: &mut Broker, ctx: &mut dyn Context) {
        match nb_wire::frame::peek_body(event_payload) {
            Ok(h) if h.is_discovery() => {
                if h.uuid.is_some_and(|id| self.dedup.contains(&id)) {
                    self.duplicates_suppressed += 1;
                    return;
                }
            }
            _ => return,
        }
        if let Ok(req) = DiscoveryRequestView::decode(event_payload) {
            self.answer(req, broker, ctx);
        }
    }

    fn reflood(&mut self, req: &DiscoveryRequest, broker: &mut Broker, ctx: &mut dyn Context) {
        // Only re-flood requests we haven't seen (dedup is checked again
        // in on_request for the response decision; peek here).
        if self.dedup.contains(&req.request_id) {
            return;
        }
        let topic = self.flood_topic.clone();
        let payload = Message::Discovery(req.clone()).to_bytes();
        // Flood-topic events surface back to the owning actor, which
        // routes them to `on_request`; dedup keeps us idempotent.
        let _ = broker.publish_local(topic, payload, ctx);
    }

    /// Processes a discovery request however it arrived (overlay flood or
    /// multicast).
    fn on_request(
        &mut self,
        req: &DiscoveryRequest,
        broker: &mut Broker,
        ctx: &mut dyn Context,
    ) {
        self.answer(DiscoveryRequestView::of(req), broker, ctx);
    }

    fn answer(
        &mut self,
        req: DiscoveryRequestView<'_>,
        broker: &mut Broker,
        ctx: &mut dyn Context,
    ) {
        if !self.dedup.check_and_insert(req.request_id) {
            self.duplicates_suppressed += 1;
            return;
        }
        if !self.policy.permits_view(&req) {
            self.rejected_by_policy += 1;
            return;
        }
        let metrics = broker.metrics(ctx);
        let response = DiscoveryResponse {
            request_id: req.request_id,
            broker: ctx.me(),
            hostname: broker.config().hostname.clone(),
            realm: ctx.realm(),
            transports: Self::transports(),
            issued_at_utc: ctx.utc_micros(),
            metrics,
        };
        // UDP, per §5.2: cheap for the requester, and loss over long
        // paths naturally filters out distant brokers. The response is
        // stamped — and wrapped for the wire — now but leaves after the
        // modelled service time, so the requester's delay estimate
        // honestly includes broker processing.
        use rand::Rng;
        let msg = WireMsg::new(Message::Response(response));
        let jitter = SERVICE_TIME.as_nanos() as u64 / 2;
        let delay = SERVICE_TIME + Duration::from_nanos(ctx.rng().gen_range(0..=jitter));
        let seq = self.pending_head + self.pending.len() as u64;
        self.pending.push_back(Some((req.reply_to, msg)));
        ctx.set_timer(delay, RESPONDER_TIMER_BASE | (seq & 0xFFFF_FFFF));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_ctx::TestCtx;
    use nb_broker::BrokerConfig;
    use nb_wire::{Credential, NodeId, Port, RealmId};

    // Unit-level tests drive the responder against a scripted context;
    // end-to-end behaviour is covered in the scenario tests.
    fn new_ctx() -> TestCtx {
        TestCtx::new(NodeId(5), RealmId(2), nb_net::SimTime::from_micros(123_456_789), 1)
    }

    /// Fires every response timer armed so far, in arming order, and
    /// forgets them.
    fn fire_all(r: &mut Responder, broker: &mut Broker, ctx: &mut TestCtx) {
        for token in ctx.tokens() {
            assert!(r.handle(&Incoming::Timer { token }, broker, ctx));
        }
        ctx.timers.clear();
    }

    fn request(id: u128) -> DiscoveryRequest {
        DiscoveryRequest {
            request_id: Uuid::from_u128(id),
            requester: NodeId(9),
            hostname: "client".into(),
            realm: RealmId(0),
            reply_to: Endpoint::new(NodeId(9), well_known::DISCOVERY_REPLY),
            transports: vec![],
            credentials: None,
            issued_at_utc: 7,
        }
    }

    #[test]
    fn responds_once_per_request_id() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        r.on_request(&request(1), &mut broker, &mut ctx);
        r.on_request(&request(1), &mut broker, &mut ctx);
        r.on_request(&request(2), &mut broker, &mut ctx);
        fire_all(&mut r, &mut broker, &mut ctx);
        assert_eq!(r.responses_sent, 2);
        assert_eq!(r.duplicates_suppressed, 1);
        assert_eq!(ctx.sent.len(), 2);
        let Message::Response(resp) = &ctx.sent[0].2 else {
            panic!("expected response");
        };
        assert_eq!(resp.request_id, Uuid::from_u128(1));
        assert_eq!(resp.broker, NodeId(5));
        assert_eq!(resp.issued_at_utc, 123_456_789);
        assert!(resp.port_for(TransportKind::Tcp).is_some());
    }

    #[test]
    fn policy_rejection_counts_and_sends_nothing() {
        let mut r = Responder::new(ResponsePolicy::principals(vec!["alice".into()]));
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        r.on_request(&request(1), &mut broker, &mut ctx); // no credentials
        assert_eq!(r.rejected_by_policy, 1);
        assert!(ctx.timers.is_empty(), "nothing waits to be sent");
        let mut ok = request(2);
        ok.credentials = Some(Credential { principal: "alice".into(), token: vec![] });
        r.on_request(&ok, &mut broker, &mut ctx);
        fire_all(&mut r, &mut broker, &mut ctx);
        assert_eq!(r.responses_sent, 1);
        assert_eq!(ctx.sent.len(), 1);
    }

    #[test]
    fn answers_pings_with_echoed_timestamp() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        let consumed = r.handle(
            &Incoming::Datagram {
                from: Endpoint::new(NodeId(9), well_known::PING),
                to_port: well_known::PING,
                msg: Message::Ping {
                    nonce: 44,
                    sent_at: 9_000,
                    reply_to: Endpoint::new(NodeId(9), well_known::PING),
                }
                .into(),
            },
            &mut broker,
            &mut ctx,
        );
        assert!(consumed);
        assert_eq!(r.pings_answered, 1);
        let Message::Pong { nonce, echoed_sent_at, responder } = &ctx.sent[0].2 else {
            panic!("expected pong");
        };
        assert_eq!((*nonce, *echoed_sent_at, *responder), (44, 9_000, NodeId(5)));
    }

    #[test]
    fn multicast_request_answered_and_reflooded() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        r.on_start(&mut ctx);
        assert_eq!(ctx.joined, vec![DISCOVERY_GROUP]);
        let consumed = r.handle(
            &Incoming::Datagram {
                from: Endpoint::new(NodeId(9), well_known::MULTICAST_DISCOVERY),
                to_port: well_known::MULTICAST_DISCOVERY,
                msg: Message::Discovery(request(3)).into(),
            },
            &mut broker,
            &mut ctx,
        );
        assert!(consumed);
        fire_all(&mut r, &mut broker, &mut ctx);
        assert_eq!(r.responses_sent, 1);
        // With no links the reflood sends nothing over the wire, but the
        // broker must have routed the event locally exactly once.
        assert_eq!(broker.events_routed, 1);
    }

    #[test]
    fn non_discovery_traffic_not_consumed() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        let consumed = r.handle(
            &Incoming::Datagram {
                from: Endpoint::new(NodeId(1), Port(9)),
                to_port: Port(9),
                msg: Message::Heartbeat { from: NodeId(1), seq: 0 }.into(),
            },
            &mut broker,
            &mut ctx,
        );
        assert!(!consumed);
        assert!(!r.handle(&Incoming::Timer { token: 1 }, &mut broker, &mut ctx));
    }

    #[test]
    fn service_time_delays_the_response_until_the_timer() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        r.on_request(&request(9), &mut broker, &mut ctx);
        assert_eq!(r.responses_sent, 0, "nothing on the wire yet");
        assert!(ctx.sent.is_empty());
        assert_eq!(ctx.timers.len(), 1);
        let token = ctx.tokens()[0];
        let consumed = r.handle(&Incoming::Timer { token }, &mut broker, &mut ctx);
        assert!(consumed);
        assert_eq!(r.responses_sent, 1);
        assert!(matches!(ctx.sent[0].2, Message::Response(_)));
        // A stale/duplicate firing is consumed but sends nothing more.
        assert!(r.handle(&Incoming::Timer { token }, &mut broker, &mut ctx));
        assert_eq!(r.responses_sent, 1);
        // Foreign timers are not consumed.
        assert!(!r.handle(&Incoming::Timer { token: 1 }, &mut broker, &mut ctx));
    }

    #[test]
    fn pending_responses_fired_in_any_order_each_reach_their_own_requester_once() {
        use rand::Rng;
        const N: u32 = 1_000;
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        for i in 0..N {
            let mut req = request(u128::from(i) + 1);
            req.reply_to = Endpoint::new(NodeId(1_000 + i), well_known::DISCOVERY_REPLY);
            r.on_request(&req, &mut broker, &mut ctx);
        }
        assert_eq!(r.pending.len(), N as usize);
        let service = Duration::from_millis(40)..=Duration::from_millis(60);
        assert!(ctx.timers.iter().all(|(delay, _)| service.contains(delay)), "40 ms plus up to half again");
        // Fisher-Yates over the armed tokens; each also fires a second
        // time somewhere later in the order, as a stale duplicate.
        let mut order = ctx.tokens();
        order.extend(ctx.tokens());
        for i in (1..order.len()).rev() {
            let j = ctx.rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for token in order {
            assert!(r.handle(&Incoming::Timer { token }, &mut broker, &mut ctx));
        }
        assert_eq!(r.responses_sent, u64::from(N));
        assert!(r.pending.is_empty(), "the ring drained");
        let mut answered: Vec<(NodeId, Uuid)> = ctx
            .sent
            .iter()
            .map(|(_, to, msg)| match msg {
                Message::Response(resp) => (to.node, resp.request_id),
                other => panic!("expected a response, got {}", other.kind()),
            })
            .collect();
        answered.sort_unstable();
        let expected: Vec<(NodeId, Uuid)> =
            (0..N).map(|i| (NodeId(1_000 + i), Uuid::from_u128(u128::from(i) + 1))).collect();
        assert_eq!(answered, expected, "one response per requester, carrying its own request id");
    }

    #[test]
    fn restart_abandons_pending_responses_and_keeps_the_ring_bounded() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        for id in 1..=3 {
            r.on_request(&request(id), &mut broker, &mut ctx);
        }
        // Crash + revive: the engine dropped the three timers, so their
        // slots must not pin the ring's head for ever.
        r.on_start(&mut ctx);
        assert!(r.pending.is_empty());
        r.on_request(&request(4), &mut broker, &mut ctx);
        let fresh = ctx.tokens()[3];
        assert!(!ctx.tokens()[..3].contains(&fresh), "tokens are never reused");
        // A pre-crash token (which the engine would never deliver) finds nothing.
        assert!(r.handle(&Incoming::Timer { token: ctx.tokens()[0] }, &mut broker, &mut ctx));
        assert_eq!(r.responses_sent, 0);
        assert!(r.handle(&Incoming::Timer { token: fresh }, &mut broker, &mut ctx));
        assert_eq!(r.responses_sent, 1);
        assert!(r.pending.is_empty());
    }

    #[test]
    fn flooded_request_is_answered_once_from_its_encoded_form() {
        let mut r = Responder::new(ResponsePolicy::principals(vec!["alice".into()]));
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        let mut req = request(5);
        req.credentials = Some(Credential { principal: "alice".into(), token: vec![1, 2] });
        let payload = Message::Discovery(req.clone()).to_bytes();
        r.on_flooded(&payload, &mut broker, &mut ctx);
        fire_all(&mut r, &mut broker, &mut ctx);
        assert_eq!(r.responses_sent, 1, "the borrowed credential satisfied the policy");
        assert_eq!(ctx.sent[0].1, req.reply_to);
        let Message::Response(resp) = &ctx.sent[0].2 else {
            panic!("expected response");
        };
        assert_eq!(resp.request_id, req.request_id);
        // The second copy of the flood is dropped on its header UUID ...
        r.on_flooded(&payload, &mut broker, &mut ctx);
        // ... and the same request arriving decoded (multicast) is the
        // same request.
        r.on_request(&req, &mut broker, &mut ctx);
        // No credential: rejected from the encoded form too.
        r.on_flooded(&Message::Discovery(request(6)).to_bytes(), &mut broker, &mut ctx);
        assert!(ctx.timers.is_empty(), "no second response was armed");
        assert_eq!((r.responses_sent, r.duplicates_suppressed, r.rejected_by_policy), (1, 2, 1));
    }

    #[test]
    fn flooded_junk_and_truncated_requests_are_ignored() {
        let mut r = Responder::new(ResponsePolicy::open());
        let mut broker = Broker::new(BrokerConfig::default());
        let mut ctx = new_ctx();
        r.on_flooded(b"junk", &mut broker, &mut ctx);
        let heartbeat = Message::Heartbeat { from: NodeId(1), seq: 0 }.to_bytes();
        r.on_flooded(&heartbeat, &mut broker, &mut ctx);
        let payload = Message::Discovery(request(7)).to_bytes();
        // Long enough for the header peek, short of a whole request.
        r.on_flooded(&payload[..payload.len() - 1], &mut broker, &mut ctx);
        assert_eq!(r.duplicates_suppressed, 0);
        assert!(ctx.timers.is_empty(), "nothing was answered");
        // A malformed copy must not poison the cache against the real one.
        r.on_flooded(&payload, &mut broker, &mut ctx);
        fire_all(&mut r, &mut broker, &mut ctx);
        assert_eq!(r.responses_sent, 1);
    }
}
