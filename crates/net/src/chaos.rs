//! Deterministic chaos engine: seeded fault schedules for [`crate::Sim`].
//!
//! A [`FaultPlan`] is an ordered list of `(at, Fault)` pairs. Plans are
//! built two ways:
//!
//! * **scripted** — the builder methods (`crash_at`, `flap_at`, …) append
//!   faults at explicit virtual times, for targeted regression tests;
//! * **generated** — [`FaultPlan::generate`] draws a randomized schedule
//!   from its *own* `StdRng` seeded with a campaign seed, so the schedule
//!   is a pure function of `(seed, profile, targets, horizon)` and never
//!   depends on workload interleaving. The same seed replays the
//!   identical schedule bit-for-bit; [`FaultPlan::describe`] renders the
//!   canonical text form that campaign reports embed and determinism
//!   tests compare byte-for-byte.
//!
//! Installing a plan ([`crate::Sim::apply_fault_plan`] or
//! [`crate::ShardedSim::apply_fault_plan`]) pushes each fault into the
//! event queue; faults execute at their scheduled instant interleaved with
//! protocol events, and everything downstream (packet fates, retries,
//! lease expiries) remains driven by the engine's seeded RNG streams.

use std::fmt;
use std::time::Duration;

use nb_wire::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-datagram fault probabilities, applied to every datagram that the
/// loss model decided to deliver. All-zero means inactive: the sim rolls
/// no extra dice, so legacy seeds stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketFaults {
    /// Probability a delivered datagram arrives twice.
    pub duplicate: f64,
    /// Probability a datagram is corrupted in flight (dropped at the
    /// receiver as a checksum failure, counted separately from loss).
    pub corrupt: f64,
    /// Probability a datagram is held back and re-injected later, letting
    /// younger packets overtake it.
    pub reorder: f64,
    /// Maximum extra delay applied to reordered packets and to the second
    /// copy of duplicated packets (uniformly sampled).
    pub extra_delay: Duration,
}

impl PacketFaults {
    /// No packet faults (the default).
    pub fn none() -> PacketFaults {
        PacketFaults { duplicate: 0.0, corrupt: 0.0, reorder: 0.0, extra_delay: Duration::ZERO }
    }

    /// A mildly hostile network: 2% duplication, 1% corruption, 5%
    /// reordering with up to 80 ms of extra delay.
    pub fn unruly() -> PacketFaults {
        PacketFaults {
            duplicate: 0.02,
            corrupt: 0.01,
            reorder: 0.05,
            extra_delay: Duration::from_millis(80),
        }
    }

    /// Whether any fault probability is non-zero. When false the sim's
    /// send path consumes zero additional RNG draws.
    pub fn is_active(&self) -> bool {
        self.duplicate > 0.0 || self.corrupt > 0.0 || self.reorder > 0.0
    }
}

impl Default for PacketFaults {
    fn default() -> PacketFaults {
        PacketFaults::none()
    }
}

/// One injectable fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Take the node down (state preserved, as [`crate::Sim::crash`]).
    Crash { node: NodeId },
    /// Bring a crashed node back. With `lose_state` the actor is rebuilt
    /// from its respawn factory (registered via
    /// [`crate::Sim::set_respawn`]) — volatile state such as registries,
    /// caches and pending timers is gone; without it this is a plain
    /// [`crate::Sim::revive`].
    Restart { node: NodeId, lose_state: bool },
    /// Sever both directions between `a` and `b`.
    Partition { a: NodeId, b: NodeId },
    /// Restore both directions between `a` and `b`.
    Heal { a: NodeId, b: NodeId },
    /// Sever only `from -> to` (asymmetric partition: replies still flow).
    PartitionOneWay { from: NodeId, to: NodeId },
    /// Restore the directed path `from -> to`.
    HealOneWay { from: NodeId, to: NodeId },
    /// Activate per-datagram duplication/corruption/reordering.
    SetPacketFaults { faults: PacketFaults },
    /// Deactivate per-datagram faults.
    ClearPacketFaults,
    /// Freeze the node for `dur` — a stop-the-world pause: every event
    /// addressed to it (deliveries, timers, injects) is deferred until
    /// the stall ends, then processed in original order.
    Stall { node: NodeId, dur: Duration },
    /// Step the node's raw hardware clock by `delta_ns` (its NTP estimate
    /// goes stale until the next sync or estimate override).
    ClockStep { node: NodeId, delta_ns: i64 },
}

impl Fault {
    /// The node a node-scoped fault (crash, restart, stall, clock step)
    /// happens to; `None` for faults of the network as a whole.
    pub(crate) fn node(&self) -> Option<NodeId> {
        match *self {
            Fault::Crash { node }
            | Fault::Restart { node, .. }
            | Fault::Stall { node, .. }
            | Fault::ClockStep { node, .. } => Some(node),
            _ => None,
        }
    }

    /// The per-datagram fault setting a packet-fault window installs.
    pub(crate) fn packet_faults(&self) -> Option<PacketFaults> {
        match *self {
            Fault::SetPacketFaults { faults } => Some(faults),
            Fault::ClearPacketFaults => Some(PacketFaults::none()),
            _ => None,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Crash { node } => write!(f, "crash node={}", node.0),
            Fault::Restart { node, lose_state } => {
                write!(f, "restart node={} lose_state={}", node.0, lose_state)
            }
            Fault::Partition { a, b } => write!(f, "partition a={} b={}", a.0, b.0),
            Fault::Heal { a, b } => write!(f, "heal a={} b={}", a.0, b.0),
            Fault::PartitionOneWay { from, to } => {
                write!(f, "partition_one_way from={} to={}", from.0, to.0)
            }
            Fault::HealOneWay { from, to } => {
                write!(f, "heal_one_way from={} to={}", from.0, to.0)
            }
            Fault::SetPacketFaults { faults } => write!(
                f,
                "set_packet_faults dup={:.4} corrupt={:.4} reorder={:.4} extra_us={}",
                faults.duplicate,
                faults.corrupt,
                faults.reorder,
                faults.extra_delay.as_micros()
            ),
            Fault::ClearPacketFaults => write!(f, "clear_packet_faults"),
            Fault::Stall { node, dur } => {
                write!(f, "stall node={} dur_us={}", node.0, dur.as_micros())
            }
            Fault::ClockStep { node, delta_ns } => {
                write!(f, "clock_step node={} delta_ns={}", node.0, delta_ns)
            }
        }
    }
}

/// A fault with its scheduled (virtual) time, relative to plan install.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFault {
    /// Offset from the instant the plan is installed.
    pub at: Duration,
    /// What happens.
    pub fault: Fault,
}

/// Which nodes a generated plan may target, by role. Restart-class
/// faults (crash/restart, stalls) hit infrastructure (BDNs + brokers);
/// partitions and clock steps may involve any node.
#[derive(Debug, Clone, Default)]
pub struct ChaosTargets {
    /// Broker discovery nodes (restartable; prime lease-expiry targets).
    pub bdns: Vec<NodeId>,
    /// Brokers (restartable).
    pub brokers: Vec<NodeId>,
    /// Client/entity nodes (partition + clock-step targets only).
    pub clients: Vec<NodeId>,
}

impl ChaosTargets {
    fn restartable(&self) -> Vec<NodeId> {
        let mut v = self.bdns.clone();
        v.extend_from_slice(&self.brokers);
        v
    }

    fn all(&self) -> Vec<NodeId> {
        let mut v = self.restartable();
        v.extend_from_slice(&self.clients);
        v
    }
}

/// Knobs for randomized plan generation: how many faults of each class
/// to draw over the horizon and their magnitude ranges.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Crash→restart cycles on restartable nodes.
    restarts: u32,
    /// Probability a restart loses volatile state.
    lose_state_prob: f64,
    /// Down-time range between a crash and its restart.
    down_min: Duration,
    /// See `down_min`.
    down_max: Duration,
    /// Partition-then-heal link flaps.
    link_flaps: u32,
    /// Probability a flap is asymmetric (one direction only).
    one_way_prob: f64,
    /// Flap duration range.
    flap_min: Duration,
    /// See `flap_min`.
    flap_max: Duration,
    /// Transient stop-the-world stalls ("GC pauses").
    stalls: u32,
    /// Stall duration range.
    stall_min: Duration,
    /// See `stall_min`.
    stall_max: Duration,
    /// Hardware clock steps.
    clock_steps: u32,
    /// Maximum magnitude of a clock step (sign is drawn).
    clock_step_max: Duration,
    /// Windows during which `packet_faults` is active.
    packet_fault_windows: u32,
    /// The per-datagram faults applied inside those windows.
    packet_faults: PacketFaults,
    /// Packet-fault window duration range.
    window_min: Duration,
    /// See `window_min`.
    window_max: Duration,
}

impl ChaosProfile {
    /// A light campaign: one lossy restart, one flap, one stall.
    pub fn light() -> ChaosProfile {
        ChaosProfile {
            restarts: 1,
            lose_state_prob: 0.5,
            down_min: Duration::from_secs(2),
            down_max: Duration::from_secs(8),
            link_flaps: 1,
            one_way_prob: 0.25,
            flap_min: Duration::from_secs(2),
            flap_max: Duration::from_secs(10),
            stalls: 1,
            stall_min: Duration::from_millis(200),
            stall_max: Duration::from_secs(2),
            clock_steps: 1,
            clock_step_max: Duration::from_millis(250),
            packet_fault_windows: 1,
            packet_faults: PacketFaults::unruly(),
            window_min: Duration::from_secs(5),
            window_max: Duration::from_secs(15),
        }
    }

    /// A heavy campaign: several restarts and flaps, longer stalls.
    pub fn heavy() -> ChaosProfile {
        ChaosProfile {
            restarts: 3,
            lose_state_prob: 0.7,
            down_min: Duration::from_secs(2),
            down_max: Duration::from_secs(12),
            link_flaps: 3,
            one_way_prob: 0.4,
            flap_min: Duration::from_secs(3),
            flap_max: Duration::from_secs(15),
            stalls: 2,
            stall_min: Duration::from_millis(500),
            stall_max: Duration::from_secs(4),
            clock_steps: 2,
            clock_step_max: Duration::from_secs(1),
            packet_fault_windows: 2,
            packet_faults: PacketFaults::unruly(),
            window_min: Duration::from_secs(5),
            window_max: Duration::from_secs(20),
        }
    }
}

/// An ordered fault schedule. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// An empty plan, for scripting.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends an arbitrary fault at `at`.
    pub fn fault_at(mut self, at: Duration, fault: Fault) -> FaultPlan {
        self.events.push(TimedFault { at, fault });
        self
    }

    /// Crash `node` at `at`.
    pub fn crash_at(self, at: Duration, node: NodeId) -> FaultPlan {
        self.fault_at(at, Fault::Crash { node })
    }

    /// Restart `node` at `at`, optionally losing volatile state.
    pub fn restart_at(self, at: Duration, node: NodeId, lose_state: bool) -> FaultPlan {
        self.fault_at(at, Fault::Restart { node, lose_state })
    }

    /// Crash `node` at `at` and restart it with state loss after `down`.
    pub fn lossy_restart_at(self, at: Duration, node: NodeId, down: Duration) -> FaultPlan {
        self.crash_at(at, node).restart_at(at + down, node, true)
    }

    /// Sever `a`↔`b` at `at` and heal it after `dur` (a link flap).
    pub fn flap_at(self, at: Duration, a: NodeId, b: NodeId, dur: Duration) -> FaultPlan {
        self.fault_at(at, Fault::Partition { a, b }).fault_at(at + dur, Fault::Heal { a, b })
    }

    /// Sever only `from -> to` at `at` and heal it after `dur`.
    pub fn one_way_flap_at(
        self,
        at: Duration,
        from: NodeId,
        to: NodeId,
        dur: Duration,
    ) -> FaultPlan {
        self.fault_at(at, Fault::PartitionOneWay { from, to })
            .fault_at(at + dur, Fault::HealOneWay { from, to })
    }

    /// Stall `node` for `dur` starting at `at`.
    fn stall_at(self, at: Duration, node: NodeId, dur: Duration) -> FaultPlan {
        self.fault_at(at, Fault::Stall { node, dur })
    }

    /// Step `node`'s hardware clock by `delta_ns` at `at`.
    fn clock_step_at(self, at: Duration, node: NodeId, delta_ns: i64) -> FaultPlan {
        self.fault_at(at, Fault::ClockStep { node, delta_ns })
    }

    /// Activate packet faults over `[at, at + dur)`.
    pub fn packet_fault_window(
        self,
        at: Duration,
        dur: Duration,
        faults: PacketFaults,
    ) -> FaultPlan {
        self.fault_at(at, Fault::SetPacketFaults { faults })
            .fault_at(at + dur, Fault::ClearPacketFaults)
    }

    /// Draws a randomized schedule from a dedicated RNG seeded with
    /// `seed`. The result is a pure function of the arguments — it does
    /// not touch the sim's RNG, so installing a generated plan never
    /// perturbs packet-level randomness, and two calls with equal
    /// arguments return equal plans.
    pub fn generate(
        seed: u64,
        profile: &ChaosProfile,
        targets: &ChaosTargets,
        horizon: Duration,
    ) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let h_ns = horizon.as_nanos() as u64;
        // Faults start after 5% of the horizon (let the deployment boot)
        // and are injected before 75% of it (leave room to recover).
        let window = |rng: &mut StdRng| {
            Duration::from_nanos(rng.gen_range(h_ns / 20..=h_ns * 3 / 4))
        };
        let dur_in = |rng: &mut StdRng, lo: Duration, hi: Duration| {
            let (lo, hi) = (lo.as_nanos() as u64, hi.as_nanos() as u64);
            Duration::from_nanos(if hi <= lo { lo } else { rng.gen_range(lo..=hi) })
        };

        let restartable = targets.restartable();
        for _ in 0..profile.restarts {
            if restartable.is_empty() {
                break;
            }
            let node = restartable[rng.gen_range(0..restartable.len())];
            let at = window(&mut rng);
            let down = dur_in(&mut rng, profile.down_min, profile.down_max);
            let lose = rng.gen::<f64>() < profile.lose_state_prob;
            plan = plan.crash_at(at, node).restart_at(at + down, node, lose);
        }

        let all = targets.all();
        for _ in 0..profile.link_flaps {
            if all.len() < 2 {
                break;
            }
            let a = all[rng.gen_range(0..all.len())];
            let mut b = all[rng.gen_range(0..all.len())];
            if b == a {
                b = all[(all.iter().position(|&n| n == a).unwrap() + 1) % all.len()];
            }
            let at = window(&mut rng);
            let dur = dur_in(&mut rng, profile.flap_min, profile.flap_max);
            plan = if rng.gen::<f64>() < profile.one_way_prob {
                plan.one_way_flap_at(at, a, b, dur)
            } else {
                plan.flap_at(at, a, b, dur)
            };
        }

        for _ in 0..profile.stalls {
            if restartable.is_empty() {
                break;
            }
            let node = restartable[rng.gen_range(0..restartable.len())];
            let at = window(&mut rng);
            let dur = dur_in(&mut rng, profile.stall_min, profile.stall_max);
            plan = plan.stall_at(at, node, dur);
        }

        for _ in 0..profile.clock_steps {
            if all.is_empty() {
                break;
            }
            let node = all[rng.gen_range(0..all.len())];
            let at = window(&mut rng);
            let max_ns = profile.clock_step_max.as_nanos() as i64;
            let delta = if max_ns == 0 { 0 } else { rng.gen_range(-max_ns..=max_ns) };
            plan = plan.clock_step_at(at, node, delta);
        }

        for _ in 0..profile.packet_fault_windows {
            let at = window(&mut rng);
            let dur = dur_in(&mut rng, profile.window_min, profile.window_max);
            plan = plan.packet_fault_window(at, dur, profile.packet_faults);
        }

        plan.sorted()
    }

    /// Stable-sorts the schedule by time (generation order breaks ties).
    pub fn sorted(mut self) -> FaultPlan {
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The scheduled faults, in order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical text rendering: one line per fault, microsecond
    /// timestamps. Two plans are identical iff their descriptions are
    /// byte-identical — campaign reports embed this for determinism
    /// checks.
    pub fn describe(&self) -> String {
        let mut out = String::from("fault_plan v1\n");
        for ev in &self.events {
            out.push_str(&format!("t={}us {}\n", ev.at.as_micros(), ev.fault));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> ChaosTargets {
        ChaosTargets {
            bdns: vec![NodeId(0)],
            brokers: vec![NodeId(1), NodeId(2), NodeId(3)],
            clients: vec![NodeId(4), NodeId(5)],
        }
    }

    #[test]
    fn generate_is_a_pure_function_of_seed() {
        let profile = ChaosProfile::heavy();
        let t = targets();
        let h = Duration::from_secs(120);
        let a = FaultPlan::generate(7, &profile, &t, h);
        let b = FaultPlan::generate(7, &profile, &t, h);
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        let c = FaultPlan::generate(8, &profile, &t, h);
        assert_ne!(a.describe(), c.describe(), "different seeds diverge");
    }

    #[test]
    fn generated_plans_are_sorted_and_in_window() {
        let plan = FaultPlan::generate(3, &ChaosProfile::heavy(), &targets(), Duration::from_secs(100));
        assert!(!plan.is_empty());
        let mut last = Duration::ZERO;
        for ev in plan.events() {
            assert!(ev.at >= last, "schedule must be time-ordered");
            last = ev.at;
            assert!(ev.at >= Duration::from_secs(5), "faults start after boot window");
        }
    }

    #[test]
    fn scripted_builder_orders_and_describes() {
        let plan = FaultPlan::new()
            .lossy_restart_at(Duration::from_secs(10), NodeId(2), Duration::from_secs(5))
            .flap_at(Duration::from_secs(3), NodeId(0), NodeId(1), Duration::from_secs(2))
            .sorted();
        let desc = plan.describe();
        let lines: Vec<&str> = desc.lines().collect();
        assert_eq!(lines[0], "fault_plan v1");
        assert_eq!(lines[1], "t=3000000us partition a=0 b=1");
        assert_eq!(lines[2], "t=5000000us heal a=0 b=1");
        assert_eq!(lines[3], "t=10000000us crash node=2");
        assert_eq!(lines[4], "t=15000000us restart node=2 lose_state=true");
    }

    #[test]
    fn packet_faults_active_flag() {
        assert!(!PacketFaults::none().is_active());
        assert!(PacketFaults::unruly().is_active());
        let mut f = PacketFaults::none();
        f.reorder = 0.1;
        assert!(f.is_active());
    }
}
