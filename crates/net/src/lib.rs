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
//!   logic is written against, the [`Trace`] that records what wrapped
//!   actors are handed, and the [`ScriptCtx`] actor unit tests drive
//!   their actor through,
//! * [`link`] — link latency/jitter/loss models, TCP-like ordering and
//!   connection setup, realm-scoped multicast, and the one send path
//!   over them,
//! * `node` (private) — the node model: per-node state, event
//!   admission and accounting, the node-scoped fault rules, the one
//!   [`Context`] implementation and the schedule of changes that land
//!   between events, every fault among them (DESIGN.md §8),
//! * [`shard`] — the engine over that model, [`ShardedSim`]: one
//!   logical process per node, conservative-lookahead epochs over any
//!   number of workers, byte-identical digests at every count (DESIGN.md
//!   §13), one fault verb ([`ShardedSim::apply_fault`]) beside the
//!   fault plans; [`Sim`] is an old name kept for the frozen benchmark,
//! * [`stats`] — the traffic counters a run keeps,
//! * [`chaos`] — seeded fault plans the engine installs,
//! * [`topogen`] — generated WAN topologies for the scale tiers,
//! * [`wan`] — the Table-1 site inventory and its latency matrix.

pub mod chaos;
pub mod clock;
pub mod link;
mod node;
pub mod runtime;
pub mod shard;
#[cfg(test)]
mod sim;
pub mod stats;
pub mod time;
#[cfg(test)]
mod timer_tests;
pub mod topogen;
pub mod wan;

pub use chaos::{ChaosProfile, ChaosTargets, Fault, FaultPlan, PacketFaults, TimedFault};
pub use clock::{ClockProfile, ClockState};
pub use link::{LinkSpec, NetworkModel};
pub use node::RespawnFn;
pub use runtime::{Actor, Context, Incoming, ScriptCtx, Sent, Trace, TraceLog, TraceRecord, Via};
pub use shard::{ShardedSim, Sim};
pub use stats::{NetStats, WireV2Config};
pub use time::SimTime;
pub use topogen::{TopologyKind, TopologySpec, WanTopology};
pub use wan::{Site, WanModel};

/// Re-export of the wire-level address types for convenience.
pub use nb_wire::{Endpoint, GroupId, NodeId, Port, RealmId};
