//! # nb-discovery
//!
//! The paper's contribution: **discovery of brokers in distributed
//! messaging infrastructures**. A node joining the system (client or new
//! broker) finds the *nearest, least-loaded* broker through Broker
//! Discovery Nodes (BDNs), topic-flooded discovery requests, UDP
//! responses carrying NTP timestamps and usage metrics, weighted
//! target-set selection and UDP ping refinement — with multicast and
//! cached-target fallbacks when no BDN is reachable.
//!
//! Module map (paper section in parentheses):
//!
//! * [`config`] — discovery configuration: BDN lists, collection window,
//!   response caps, target-set size, selection weights (§3, §9),
//! * [`selection`] — delay estimation from NTP timestamps, the weighting
//!   formula, target-set shortlisting, final ping-based choice (§6, §9),
//! * [`policy`] — broker response policies: credentials and realm
//!   restrictions (§5, §7, §9.1),
//! * [`advertiser`] — broker advertisements, direct and topic-based
//!   dissemination, private-BDN handling (§2),
//! * [`responder`] — the broker-side responder: answers what the broker's
//!   last-1000 cache surfaces (response construction, UDP delivery),
//!   multicast listening and re-flood (§4, §5, §7),
//! * [`bdn`] — the Broker Discovery Node actor: registry, RTT
//!   measurement, closest/farthest-first request injection, acks (§2–§4),
//! * [`client`] — the requesting node's discovery state machine with
//!   per-phase timing (the sub-activity breakdown of Figures 2/9/11),
//!   retransmission, BDN failover, multicast fallback and the cached
//!   target set for reconnects (§3, §6, §7),
//! * [`broker_actor`] — the combined actor: pub/sub broker + responder +
//!   advertiser,
//! * [`deployment`] — a deployment described as one value (nodes in id
//!   order, network), built on either engine, and the one helper that
//!   runs a test body on every engine,
//! * [`scenario`] — harness builders assembling the paper's WAN testbed
//!   topologies inside the simulator (§9).
//!
//! Every actor here parses and reacts to bytes from the network, so
//! nothing outside the tests may panic: malformed input is counted and
//! dropped. Clippy holds that for the whole crate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

pub mod advertiser;
pub mod bdn;
pub mod broker_actor;
pub mod client;
pub mod config;
pub mod deployment;
pub mod entity;
pub mod federation;
pub mod joining;
pub mod policy;
pub mod responder;
pub mod scenario;
pub mod selection;

pub use advertiser::Advertiser;
pub use bdn::{Bdn, BdnConfig};
pub use broker_actor::DiscoveryBrokerActor;
pub use client::{DiscoveryClient, DiscoveryOutcome, Phase, PhaseTimes};
pub use config::{DiscoveryConfig, RetryPolicy, SelectionWeights};
pub use deployment::{on_every_engine, Deployment, DeploymentNode, Network};
pub use entity::{Entity, EntityState};
pub use federation::{Federation, FederationConfig, FederationStats, LeaseBook, LeaseOutcome};
pub use joining::JoiningBroker;
pub use policy::ResponsePolicy;
pub use responder::Responder;
pub use scenario::{Scenario, ScenarioBuilder};
pub use selection::{estimate_delay_us, shortlist, weigh, Candidate};

/// The recording [`nb_net::Context`] every unit test in this crate drives
/// its actor against. Each test module builds it with its own node,
/// realm, clock and RNG seed; the clock (UTC reads the same one) moves
/// only when a test sets `now`.
#[cfg(test)]
pub(crate) mod test_ctx {
    use std::collections::BTreeSet;
    use std::time::Duration;

    use nb_net::{Context, SimTime};
    use nb_wire::{Endpoint, GroupId, Message, NodeId, Port, RealmId};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    pub(crate) struct TestCtx {
        me: NodeId,
        realm: RealmId,
        pub now: SimTime,
        /// Every send in order; a multicast is logged to node `u32::MAX`
        /// at its target port.
        pub sent: Vec<(Port, Endpoint, Message)>,
        /// Every armed timer `(delay, token)` in order.
        pub timers: Vec<(Duration, u64)>,
        /// The tokens armed and not cancelled since. Arming an armed
        /// token supersedes it, as the engines' timer slots do; a test
        /// that fires a timer itself does not take it out.
        pub armed: BTreeSet<u64>,
        pub joined: Vec<GroupId>,
        pub rng: StdRng,
    }

    impl TestCtx {
        pub fn new(me: NodeId, realm: RealmId, now: SimTime, seed: u64) -> TestCtx {
            TestCtx {
                me,
                realm,
                now,
                sent: Vec::new(),
                timers: Vec::new(),
                armed: BTreeSet::new(),
                joined: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
            }
        }

        /// The armed timer tokens, in arming order.
        pub fn tokens(&self) -> Vec<u64> {
            self.timers.iter().map(|&(_, token)| token).collect()
        }

        /// The kind of the last message sent, `"-"` before any.
        pub fn last_kind(&self) -> &'static str {
            self.sent.last().map(|(_, _, m)| m.kind()).unwrap_or("-")
        }
    }

    impl Context for TestCtx {
        fn me(&self) -> NodeId {
            self.me
        }
        fn realm(&self) -> RealmId {
            self.realm
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
        fn send_udp(&mut self, from: Port, to: Endpoint, msg: &Message) {
            self.sent.push((from, to, msg.clone()));
        }
        fn send_stream(&mut self, from: Port, to: Endpoint, msg: &Message) {
            self.sent.push((from, to, msg.clone()));
        }
        fn send_multicast(&mut self, from: Port, _group: GroupId, to_port: Port, msg: &Message) {
            self.sent.push((from, Endpoint::new(NodeId(u32::MAX), to_port), msg.clone()));
        }
        fn join_group(&mut self, group: GroupId) {
            self.joined.push(group);
        }
        fn leave_group(&mut self, _group: GroupId) {}
        fn set_timer(&mut self, delay: Duration, token: u64) {
            self.timers.push((delay, token));
            self.armed.insert(token);
        }
        fn cancel_timer(&mut self, token: u64) {
            self.armed.remove(&token);
        }
        fn rng(&mut self) -> &mut dyn RngCore {
            &mut self.rng
        }
    }
}
