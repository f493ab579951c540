//! Virtual time.
//!
//! [`SimTime`] is a nanosecond count since the simulation epoch; only
//! the engines advance it. Durations are plain [`std::time::Duration`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in simulated time (nanoseconds since the simulation epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// The UTC instant corresponding to [`SimTime::ZERO`], in nanoseconds
/// since the Unix epoch (2005-06-29, roughly when the paper's experiments
/// ran). Node clocks read `sim time + UTC_EPOCH_NS ± skew`, so clock
/// arithmetic never saturates near the simulation start.
pub const UTC_EPOCH_NS: u64 = 1_120_000_000_000_000_000;

/// The true UTC time (µs since the Unix epoch) at simulated instant `now`.
pub fn true_utc_micros(now: SimTime) -> u64 {
    (UTC_EPOCH_NS + now.as_nanos()) / 1_000
}

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimTime {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Applies a signed offset (clock skew), saturating at the epoch.
    pub fn offset_by(self, offset_ns: i64) -> SimTime {
        if offset_ns >= 0 {
            SimTime(self.0.saturating_add(offset_ns as u64))
        } else {
            SimTime(self.0.saturating_sub(offset_ns.unsigned_abs()))
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(u64::try_from(rhs.as_nanos()).unwrap_or(u64::MAX)))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_agree() {
        let t = SimTime::from_millis(1500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_millis(), 1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_micros(3), SimTime::from_nanos(3000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + Duration::from_millis(5);
        assert_eq!(t.as_millis(), 15);
        assert_eq!(t - SimTime::from_millis(10), Duration::from_millis(5));
        // saturating subtraction
        assert_eq!(SimTime::ZERO - SimTime::from_millis(1), Duration::ZERO);
    }

    #[test]
    fn adding_a_longer_duration_never_gives_an_earlier_instant() {
        // 2^64 ns is about 584 years: a longer duration saturates at
        // `u64::MAX` instead of wrapping to its low 64 bits (0.29 s here).
        let wraps = Duration::from_secs(18_446_744_074);
        let durations =
            [Duration::from_secs(1), Duration::from_nanos(u64::MAX), wraps, Duration::MAX];
        for pair in durations.windows(2) {
            let (shorter, longer) = (SimTime::ZERO + pair[0], SimTime::ZERO + pair[1]);
            let (a, b) = (pair[0], pair[1]);
            assert!(longer >= shorter, "+{b:?} gives {longer}, before +{a:?}'s {shorter}");
        }
        let mut t = SimTime::from_secs(1);
        t += wraps;
        assert_eq!(t.as_nanos(), u64::MAX);
    }

    #[test]
    fn signed_offsets() {
        let t = SimTime::from_millis(100);
        assert_eq!(t.offset_by(1_000_000).as_millis(), 101);
        assert_eq!(t.offset_by(-1_000_000).as_millis(), 99);
        assert_eq!(SimTime::from_nanos(5).offset_by(-10), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::from_millis(1250).to_string(), "1.250000s");
    }
}
