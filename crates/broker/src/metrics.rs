//! The broker usage-metric model.
//!
//! Discovery responses carry "the total number of active concurrent
//! connections to the broker, the CPU and memory utilizations" (paper
//! §5.1) and the client weighs free/total memory and link count when
//! shortlisting brokers (§9). Since our brokers are simulated processes,
//! CPU and memory are *modelled*: CPU load follows the recent message
//! rate through the broker; memory usage grows with connections,
//! subscriptions and routed traffic against the host machine's capacity.

use nb_util::RateMeter;
use nb_wire::UsageMetrics;

use nb_net::SimTime;

/// Static description of the machine hosting a broker.
#[derive(Debug, Clone, Copy)]
pub struct MachineProfile {
    /// Memory available to the broker process, bytes.
    pub total_memory: u64,
    /// Messages per second that drive the modelled CPU to 100%.
    pub cpu_full_scale_mps: u32,
}

impl MachineProfile {
    /// A mid-range 2005 server: 1 GiB for the process, 5000 msg/s flat out.
    pub fn default_2005() -> MachineProfile {
        MachineProfile { total_memory: 1 << 30, cpu_full_scale_mps: 5_000 }
    }

    /// A machine with the given memory and default CPU scale.
    pub fn with_memory(total_memory: u64) -> MachineProfile {
        MachineProfile { total_memory, ..MachineProfile::default_2005() }
    }
}

/// Memory charged per active client connection (buffers, session state).
const BYTES_PER_CONNECTION: u64 = 256 * 1024;
/// Memory charged per subscription entry.
const BYTES_PER_SUBSCRIPTION: u64 = 4 * 1024;
/// Memory charged per overlay link.
const BYTES_PER_LINK: u64 = 512 * 1024;
/// Baseline process footprint.
const BASE_FOOTPRINT: u64 = 48 * 1024 * 1024;

/// Live usage accounting for one broker.
#[derive(Debug)]
pub struct UsageMeter {
    profile: MachineProfile,
    rate: RateMeter,
}

impl UsageMeter {
    /// A meter for a broker on `profile`, with a 1-second CPU window.
    pub fn new(profile: MachineProfile) -> UsageMeter {
        UsageMeter {
            profile,
            rate: RateMeter::new(1_000_000_000, profile.cpu_full_scale_mps as usize), // 1s window in ns
        }
    }

    /// Records one routed message at `now`.
    pub fn record_message(&mut self, now: SimTime) {
        self.rate.record(now.as_nanos());
    }

    /// The machine profile.
    pub fn profile(&self) -> MachineProfile {
        self.profile
    }

    /// Snapshot of the usage metric given current broker state.
    pub fn snapshot(
        &mut self,
        now: SimTime,
        active_connections: u32,
        num_links: u32,
        subscriptions: u32,
    ) -> UsageMetrics {
        let cpu = self.rate.load(now.as_nanos());
        let used = BASE_FOOTPRINT
            + u64::from(active_connections) * BYTES_PER_CONNECTION
            + u64::from(subscriptions) * BYTES_PER_SUBSCRIPTION
            + u64::from(num_links) * BYTES_PER_LINK;
        UsageMetrics {
            active_connections,
            num_links,
            cpu_load_permille: (cpu * 1000.0).round() as u16,
            total_memory: self.profile.total_memory,
            used_memory: used.min(self.profile.total_memory),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_broker_reports_base_footprint_and_zero_cpu() {
        let mut m = UsageMeter::new(MachineProfile::default_2005());
        let s = m.snapshot(SimTime::from_secs(1), 0, 0, 0);
        assert_eq!(s.cpu_load_permille, 0);
        assert_eq!(s.used_memory, BASE_FOOTPRINT);
        assert_eq!(s.total_memory, 1 << 30);
    }

    #[test]
    fn memory_grows_with_state() {
        let mut m = UsageMeter::new(MachineProfile::default_2005());
        let idle = m.snapshot(SimTime::ZERO, 0, 0, 0).used_memory;
        let busy = m.snapshot(SimTime::ZERO, 100, 4, 500).used_memory;
        assert_eq!(
            busy - idle,
            100 * BYTES_PER_CONNECTION + 4 * BYTES_PER_LINK + 500 * BYTES_PER_SUBSCRIPTION
        );
    }

    #[test]
    fn memory_saturates_at_capacity() {
        let mut m = UsageMeter::new(MachineProfile::with_memory(64 * 1024 * 1024));
        let s = m.snapshot(SimTime::ZERO, 10_000, 100, 100_000);
        assert_eq!(s.used_memory, s.total_memory);
        assert_eq!(s.free_memory_ratio(), 0.0);
    }

    #[test]
    fn cpu_follows_message_rate() {
        let mut m = UsageMeter::new(MachineProfile { total_memory: 1 << 30, cpu_full_scale_mps: 1000 });
        // 500 messages within the last second -> 50% CPU.
        for i in 0..500u64 {
            m.record_message(SimTime::from_millis(500 + i));
        }
        let s = m.snapshot(SimTime::from_millis(1000), 0, 0, 0);
        assert_eq!(s.cpu_load_permille, 500);
        // After a quiet second the load decays to zero.
        let s2 = m.snapshot(SimTime::from_millis(3000), 0, 0, 0);
        assert_eq!(s2.cpu_load_permille, 0);
    }

    #[test]
    fn cpu_saturates_at_1000_permille() {
        let mut m = UsageMeter::new(MachineProfile { total_memory: 1 << 30, cpu_full_scale_mps: 10 });
        for i in 0..100u64 {
            m.record_message(SimTime::from_millis(900 + i));
        }
        let s = m.snapshot(SimTime::from_millis(1000), 0, 0, 0);
        assert_eq!(s.cpu_load_permille, 1000);
    }

    #[test]
    fn a_full_scale_above_8192_saturates() {
        let mut m = UsageMeter::new(MachineProfile { total_memory: 1 << 30, cpu_full_scale_mps: 10_000 });
        for i in 0..10_000u64 {
            m.record_message(SimTime::from_micros(i * 100));
        }
        let s = m.snapshot(SimTime::from_secs(1), 0, 0, 0);
        assert_eq!(s.cpu_load_permille, 1000);
    }
}
