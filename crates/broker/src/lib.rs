//! # nb-broker
//!
//! The distributed publish/subscribe broker substrate (the NaradaBrokering
//! role in the paper):
//!
//! * [`broker`] — the broker state machine: overlay links with
//!   hello/accept/heartbeat management, client connections, and event
//!   routing with duplicate suppression and reverse-path pruning,
//! * [`metrics`] — the usage-metric model (active connections, link
//!   count, CPU load from message rate, memory from connection and
//!   subscription state) reported in discovery responses,
//! * [`topics`] — the subscription table mapping filters to local clients
//!   and remote links,
//! * [`client`] — a publish/subscribe client actor,
//! * [`topology`] — overlay topology builders for the paper's three
//!   experimental configurations (unconnected, star, linear) and more,
//!   with ASCII renderings for Figures 1, 8 and 10.
//!
//! The broker is deliberately *not* an [`nb_net::Actor`] itself: it is a
//! composable state machine ([`Broker::handle`]) so higher layers (the
//! discovery crate) can wrap it together with their own services in one
//! actor, as `nb_discovery::DiscoveryBrokerActor` does.

pub mod broker;
pub mod client;
pub mod metrics;
pub mod topics;
pub mod topology;

pub use broker::{Broker, BrokerConfig, DEDUP_CAPACITY};
pub use client::PubSubClient;
pub use metrics::{MachineProfile, UsageMeter};
pub use topics::{Destination, SubscriptionTable};
pub use topology::{Topology, TopologyKind};
