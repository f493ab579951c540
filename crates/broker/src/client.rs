//! A publish/subscribe client actor.
//!
//! Connects to a broker over the stream transport, registers its
//! subscriptions, and publishes queued events. Harnesses queue publishes
//! from outside ([`PubSubClient::queue_publish`]); a short flush timer
//! picks them up.

use std::collections::VecDeque;
use std::time::Duration;

use nb_util::Uuid;
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Event, Message, NodeId, Topic, TopicFilter};

use nb_net::{impl_actor_any, Actor, Context, Incoming};

const TIMER_FLUSH: u64 = 0xC11E_0000_0000_0001;
const TIMER_RECONNECT: u64 = 0xC11E_0000_0000_0002;
const FLUSH_INTERVAL: Duration = Duration::from_millis(50);
const CONNECT_RETRY: Duration = Duration::from_secs(2);

/// A client entity attached to one broker.
pub struct PubSubClient {
    broker: NodeId,
    filters: Vec<TopicFilter>,
    connected: bool,
    awaiting_ack: bool,
    outbox: VecDeque<(Topic, Vec<u8>)>,
    /// Events delivered to this client.
    pub received: Vec<Event>,
    /// Events published so far.
    pub published: u64,
}

impl PubSubClient {
    /// A client that connects to `broker` and subscribes to `filters`.
    pub fn new(broker: NodeId, filters: Vec<TopicFilter>) -> PubSubClient {
        PubSubClient {
            broker,
            filters,
            connected: false,
            awaiting_ack: false,
            outbox: VecDeque::new(),
            received: Vec::new(),
            published: 0,
        }
    }

    /// Whether the broker accepted the connection.
    pub fn connected(&self) -> bool {
        self.connected
    }

    /// The broker this client targets.
    pub fn broker(&self) -> NodeId {
        self.broker
    }

    /// Queues an event for publication on the next flush tick.
    pub fn queue_publish(&mut self, topic: Topic, payload: Vec<u8>) {
        self.outbox.push_back((topic, payload));
    }

    fn broker_endpoint(&self) -> Endpoint {
        Endpoint::new(self.broker, well_known::BROKER)
    }

    fn try_connect(&mut self, ctx: &mut dyn Context) {
        self.awaiting_ack = true;
        let connect = Message::ClientConnect { client: ctx.me(), reply_port: well_known::BROKER };
        ctx.send_stream(well_known::BROKER, self.broker_endpoint(), &connect);
        ctx.set_timer(CONNECT_RETRY, TIMER_RECONNECT);
    }

    fn flush(&mut self, ctx: &mut dyn Context) {
        while let Some((topic, payload)) = self.outbox.pop_front() {
            let ev =
                Event { id: Uuid::random(ctx.rng()), topic, source: ctx.me(), payload: payload.into() };
            ctx.send_stream(well_known::BROKER, self.broker_endpoint(), &Message::Publish(ev));
            self.published += 1;
        }
    }
}

impl Actor for PubSubClient {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.try_connect(ctx);
        ctx.set_timer(FLUSH_INTERVAL, TIMER_FLUSH);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        match event {
            Incoming::Stream { msg, .. } => match msg.into_message() {
                Message::ClientConnectAck { accepted, .. } => {
                    self.awaiting_ack = false;
                    if accepted && !self.connected {
                        self.connected = true;
                        ctx.cancel_timer(TIMER_RECONNECT);
                        for filter in self.filters.clone() {
                            let sub = Message::ClientSubscribe { filter };
                            ctx.send_stream(well_known::BROKER, self.broker_endpoint(), &sub);
                        }
                    }
                }
                Message::Publish(ev) => {
                    self.received.push(ev);
                }
                _ => {}
            },
            Incoming::Timer { token: TIMER_FLUSH } => {
                if self.connected {
                    self.flush(ctx);
                }
                ctx.set_timer(FLUSH_INTERVAL, TIMER_FLUSH);
            }
            Incoming::Timer { token: TIMER_RECONNECT }
                if !self.connected => {
                    self.try_connect(ctx);
                }
            _ => {}
        }
    }

    impl_actor_any!();
}

