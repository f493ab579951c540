//! # nb — broker discovery for distributed messaging infrastructures
//!
//! Umbrella crate re-exporting the full public API of the workspace; the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`) live here.
//!
//! Layer map, bottom to top:
//!
//! | Module | Crate | Role |
//! |--------|-------|------|
//! | [`util`] | `nb-util` | UUIDs, dedup caches, config files, statistics |
//! | [`wire`] | `nb-wire` | binary codec, protocol messages, topics |
//! | [`net`] | `nb-net` | actor runtime, the discrete-event and sharded simulators, WAN model, clocks with the NTP sync model |
//! | [`broker`] | `nb-broker` | publish/subscribe broker overlay |
//! | [`security`] | `nb-security` | SHA-256, XTEA, Schnorr, certificates, envelopes |
//! | [`discovery`] | `nb-discovery` | **the paper's contribution**: BDNs, advertisements, the discovery protocol and selection |
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//! use nb::broker::TopologyKind;
//! use nb::discovery::scenario::ScenarioBuilder;
//! use nb::net::wan::BLOOMINGTON;
//!
//! // Five brokers on the paper's WAN sites in a star overlay, a BDN,
//! // and a client in Bloomington — all inside the deterministic
//! // simulator.
//! let mut scenario = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 42).build();
//! let outcome = scenario.run_discovery_once();
//! let broker = outcome.chosen.expect("a broker was discovered");
//! println!(
//!     "connected to {broker} in {:?} ({} responses)",
//!     outcome.phases.total(),
//!     outcome.responses_received,
//! );
//! ```

pub use nb_broker as broker;
pub use nb_discovery as discovery;
pub use nb_net as net;
pub use nb_security as security;
pub use nb_util as util;
pub use nb_wire as wire;
