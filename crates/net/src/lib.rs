//! # nb-net
//!
//! The network substrate every protocol in this workspace runs on. It
//! replaces the paper's five-site WAN testbed (Table 1) with a faithful,
//! deterministic model:
//!
//! * [`time`] — virtual time ([`SimTime`]),
//! * [`clock`] — per-node clocks with true offsets and NTP-estimated
//!   offsets (the paper's "every node is within 1–20 msecs" guarantee is a
//!   *model parameter* here, not an assumption),
//! * [`runtime`] — the [`Actor`]/[`Context`] abstraction all protocol
//!   logic is written against,
//! * [`link`] — link latency/jitter/loss models, TCP-like ordering and
//!   connection setup, realm-scoped multicast, and the one send path
//!   over them,
//! * `node` (private) — the node model both engines run: per-node state,
//!   event admission and accounting, the node-scoped fault rules and the
//!   one [`Context`] implementation (DESIGN.md §8),
//! * [`sim`] — the single-queue scheduler over that model: seeded,
//!   single-threaded, used by every figure reproduction,
//! * [`shard`] — the conservative-lookahead scheduler over it: one
//!   logical process per node, per-epoch safe horizons, byte-identical
//!   digests at every worker count (DESIGN.md §13),
//! * [`chaos`] — seeded fault plans both engines install,
//! * [`topogen`] — generated WAN topologies for the scale tiers,
//! * [`wan`] — the Table-1 site inventory and its latency matrix.

pub mod chaos;
pub mod clock;
pub mod link;
mod node;
pub mod runtime;
pub mod shard;
pub mod sim;
pub mod time;
#[cfg(test)]
mod timer_tests;
pub mod topogen;
pub mod wan;

pub use chaos::{ChaosProfile, ChaosTargets, Fault, FaultPlan, PacketFaults, TimedFault};
pub use clock::{ClockProfile, ClockState};
pub use link::{LinkSpec, NetworkModel};
pub use node::RespawnFn;
pub use runtime::{Actor, Context, Incoming};
pub use shard::{DiscoveryEngine, ShardedSim};
pub use sim::{NetStats, Sim, TraceRecord, WireV2Config};
pub use time::SimTime;
pub use topogen::{TopologyKind, TopologySpec, WanTopology};
pub use wan::{Site, WanModel};

/// Re-export of the wire-level address types for convenience.
pub use nb_wire::{Endpoint, GroupId, NodeId, Port, RealmId};
