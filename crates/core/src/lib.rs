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
/// `nb_util`'s FNV-1a primitives under the path `benchmark/` imports
/// them from; ROADMAP item 7(d) drops it.
pub mod federation {
    pub use nb_util::{fnv1a64_step, FNV_OFFSET};
}
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
pub use joining::JoiningBroker;
pub use policy::ResponsePolicy;
pub use responder::Responder;
pub use scenario::{Scenario, ScenarioBuilder};
pub use selection::{estimate_delay_us, shortlist, weigh, Candidate};

