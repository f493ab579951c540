//! Sliding-window event-rate meter.
//!
//! Backs the simulated CPU-load component of the broker **usage metric**
//! (paper §5.1: the discovery response carries "the CPU and memory
//! utilizations at the broker"). Time is an abstract `u64` of
//! caller-defined units (the simulator feeds nanoseconds), so the meter
//! works identically under virtual and wall-clock time.

use std::collections::VecDeque;

/// Counts events inside a sliding time window, up to the count that
/// reads as full load.
#[derive(Debug, Clone)]
pub struct RateMeter {
    window: u64,
    events: VecDeque<u64>,
    full_scale: usize,
}

impl RateMeter {
    /// Creates a meter with a sliding window of `window` time units
    /// that reads full load at `full_scale` events in the window. It
    /// keeps at most the latest `full_scale` timestamps: once that many
    /// are in the window, older ones change no reading.
    pub fn new(window: u64, full_scale: usize) -> Self {
        assert!(window > 0, "RateMeter window must be positive");
        RateMeter { window, events: VecDeque::new(), full_scale }
    }

    /// Records one event at time `now`.
    ///
    /// Timestamps must be non-decreasing; out-of-order samples are clamped
    /// to the latest time seen (simulators deliver in order anyway).
    pub fn record(&mut self, now: u64) {
        let now = self.events.back().map_or(now, |&last| now.max(last));
        if self.events.len() == self.full_scale {
            self.events.pop_front();
        }
        if self.full_scale > 0 {
            self.events.push_back(now);
        }
        self.expire(now);
    }

    /// Number of events within `[now - window, now]`, at most
    /// `full_scale`.
    fn count(&mut self, now: u64) -> usize {
        self.expire(now);
        self.events.len()
    }

    /// A load factor in `[0, 1]`: the window count relative to
    /// `full_scale` events, saturating at 1; a zero full scale reads as
    /// saturated. This is how the broker converts message throughput
    /// into a CPU-utilisation figure.
    pub fn load(&mut self, now: u64) -> f64 {
        if self.full_scale == 0 {
            return 1.0;
        }
        self.count(now) as f64 / self.full_scale as f64
    }

    fn expire(&mut self, now: u64) {
        let cutoff = now.saturating_sub(self.window);
        while let Some(&front) = self.events.front() {
            if front < cutoff {
                self.events.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_events_in_window() {
        let mut m = RateMeter::new(100, 1000);
        for t in [0u64, 10, 20, 90] {
            m.record(t);
        }
        assert_eq!(m.count(90), 4);
        // At t=150 the cutoff is 50, so events at 0,10,20 expire.
        assert_eq!(m.count(150), 1);
        assert_eq!(m.count(500), 0);
    }

    #[test]
    fn load_saturates_at_one() {
        let load = |full_scale| {
            let mut m = RateMeter::new(100, full_scale);
            for t in 0..50u64 {
                m.record(t);
            }
            m.load(49)
        };
        assert!((load(100) - 0.5).abs() < 1e-12);
        assert_eq!(load(10), 1.0);
        assert_eq!(load(0), 1.0);
    }

    #[test]
    fn bounded_memory_under_bursts() {
        let mut m = RateMeter::new(1_000_000, 16);
        for t in 0..10_000u64 {
            m.record(t);
        }
        assert_eq!(m.count(10_000), 16);
        assert_eq!(m.load(10_000), 1.0);
    }

    #[test]
    fn out_of_order_samples_are_clamped() {
        let mut m = RateMeter::new(100, 100);
        m.record(50);
        m.record(10); // clamped to 50
        assert_eq!(m.count(50), 2);
        assert_eq!(m.count(151), 0);
    }
}
