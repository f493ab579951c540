//! Per-node clocks and their NTP synchronisation model.
//!
//! Paper §5: *"Timestamps in NaradaBrokering are based on the Network
//! Time Protocol (NTP) which ensures that every node … is within 1-20
//! msecs of each other. NTP services at nodes are initialized during node
//! initializations and generally take between 3-5 seconds before the
//! local clock offsets are computed."*
//!
//! A [`ClockState`] models exactly that: the node's *true* offset from
//! global time (unknown to the node, potentially seconds) and the node's
//! *estimate* of that offset (available only after the NTP init delay,
//! accurate to a residual in the 1–20 ms band). Protocol code can only
//! ever read the estimate — the discovery algorithm's delay computation
//! therefore sees honest clock error.

use std::time::Duration;

use rand::Rng;

use crate::time::SimTime;

/// How a node's clock is created and synchronised.
#[derive(Debug, Clone, Copy)]
pub struct ClockProfile {
    /// True offset drawn uniformly from `[-max_true_offset, +max_true_offset]`.
    pub max_true_offset: Duration,
    /// NTP residual error magnitude drawn uniformly from
    /// `[min_residual, max_residual]` (paper: 1–20 ms), with random sign.
    pub min_residual: Duration,
    pub max_residual: Duration,
    /// NTP init completes after a delay drawn uniformly from
    /// `[min_sync_delay, max_sync_delay]` (paper: 3–5 s).
    pub min_sync_delay: Duration,
    pub max_sync_delay: Duration,
}

impl ClockProfile {
    /// The paper's parameters: offsets up to ±2 s, residual 1–20 ms,
    /// sync after 3–5 s.
    pub fn paper() -> ClockProfile {
        ClockProfile {
            max_true_offset: Duration::from_secs(2),
            min_residual: Duration::from_millis(1),
            max_residual: Duration::from_millis(20),
            min_sync_delay: Duration::from_secs(3),
            max_sync_delay: Duration::from_secs(5),
        }
    }

    /// A perfectly synchronised clock (useful for isolating other effects
    /// in ablations and unit tests).
    pub fn perfect() -> ClockProfile {
        ClockProfile {
            max_true_offset: Duration::ZERO,
            min_residual: Duration::ZERO,
            max_residual: Duration::ZERO,
            min_sync_delay: Duration::ZERO,
            max_sync_delay: Duration::ZERO,
        }
    }

    /// Draws a concrete clock state for a node starting at `start`.
    pub fn sample<R: Rng + ?Sized>(&self, start: SimTime, rng: &mut R) -> ClockState {
        let true_offset = sample_signed(rng, self.max_true_offset);
        let residual_mag = sample_range(rng, self.min_residual, self.max_residual);
        let residual = if rng.gen::<bool>() { residual_mag } else { -residual_mag };
        let delay = sample_range_unsigned(rng, self.min_sync_delay, self.max_sync_delay);
        ClockState {
            true_offset_ns: true_offset,
            // The estimate the node will adopt: true offset minus the
            // residual, so that post-sync UTC error equals `residual`.
            synced_estimate_ns: true_offset - residual,
            sync_at: start + delay,
            synced: false,
        }
    }
}

fn sample_signed<R: Rng + ?Sized>(rng: &mut R, max: Duration) -> i64 {
    let max_ns = max.as_nanos() as i64;
    if max_ns == 0 {
        0
    } else {
        rng.gen_range(-max_ns..=max_ns)
    }
}

fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Duration, hi: Duration) -> i64 {
    let (lo, hi) = (lo.as_nanos() as i64, hi.as_nanos() as i64);
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..=hi)
    }
}

fn sample_range_unsigned<R: Rng + ?Sized>(rng: &mut R, lo: Duration, hi: Duration) -> Duration {
    let (lo_n, hi_n) = (lo.as_nanos() as u64, hi.as_nanos() as u64);
    if hi_n <= lo_n {
        lo
    } else {
        Duration::from_nanos(rng.gen_range(lo_n..=hi_n))
    }
}

/// The concrete clock of one node.
#[derive(Debug, Clone, Copy)]
pub struct ClockState {
    /// True offset of the node's raw clock from global time (ns). Hidden
    /// from protocol code.
    pub true_offset_ns: i64,
    /// The offset estimate the node adopts once NTP init completes.
    pub synced_estimate_ns: i64,
    /// When NTP init completes.
    pub sync_at: SimTime,
    /// Whether the estimate is active yet.
    pub synced: bool,
}

impl ClockState {
    /// A perfect clock, already synced.
    pub fn perfect() -> ClockState {
        ClockState { true_offset_ns: 0, synced_estimate_ns: 0, sync_at: SimTime::ZERO, synced: true }
    }

    /// The node's raw local clock reading (µs since the Unix epoch) at
    /// global time `now`. Based at [`crate::time::UTC_EPOCH_NS`] so skew
    /// arithmetic never saturates.
    pub fn raw_local_micros(&self, now: SimTime) -> u64 {
        let base = crate::time::UTC_EPOCH_NS + now.as_nanos();
        let ns = if self.true_offset_ns >= 0 {
            base.saturating_add(self.true_offset_ns as u64)
        } else {
            base.saturating_sub(self.true_offset_ns.unsigned_abs())
        };
        ns / 1_000
    }

    /// The node's best UTC estimate (µs since the Unix epoch) at global
    /// time `now`.
    ///
    /// Before NTP sync the raw clock is returned (error up to the full
    /// true offset); afterwards the error is the sampled residual.
    pub fn utc_micros(&self, now: SimTime) -> u64 {
        let est_us = if self.synced { self.synced_estimate_ns / 1_000 } else { 0 };
        let raw = self.raw_local_micros(now);
        if est_us >= 0 {
            raw.saturating_sub(est_us as u64)
        } else {
            raw.saturating_add(est_us.unsigned_abs())
        }
    }

    /// Post-sync UTC error (signed, ns): `utc_estimate - true_utc`.
    pub fn residual_ns(&self) -> i64 {
        self.true_offset_ns - self.synced_estimate_ns
    }

    /// Marks the NTP estimate active. The engine calls this at `sync_at`.
    pub fn mark_synced(&mut self) {
        self.synced = true;
    }

    /// Overrides the offset estimate (backs `Context::set_clock_estimate_ns`).
    pub(crate) fn set_estimate_ns(&mut self, est: i64) {
        self.synced_estimate_ns = est;
        self.synced = true;
    }

    /// Steps the raw hardware clock by `delta_ns` (chaos fault). The NTP
    /// estimate is left as-is, so the node's UTC estimate degrades by
    /// exactly `delta_ns` until the next estimate override.
    pub(crate) fn step_ns(&mut self, delta_ns: i64) {
        self.true_offset_ns += delta_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_profile_residual_within_band() {
        let mut rng = StdRng::seed_from_u64(11);
        let profile = ClockProfile::paper();
        for _ in 0..500 {
            let c = profile.sample(SimTime::ZERO, &mut rng);
            let residual = c.residual_ns().unsigned_abs();
            assert!(
                (1_000_000..=20_000_000).contains(&residual),
                "residual {residual}ns outside 1-20ms"
            );
            let sync_ms = (c.sync_at - SimTime::ZERO).as_millis();
            assert!((3000..=5000).contains(&sync_ms), "sync delay {sync_ms}ms outside 3-5s");
            assert!(c.true_offset_ns.unsigned_abs() <= 2_000_000_000);
            assert!(!c.synced);
        }
    }

    #[test]
    fn utc_error_shrinks_after_sync() {
        let mut rng = StdRng::seed_from_u64(5);
        let profile = ClockProfile::paper();
        let mut c = profile.sample(SimTime::ZERO, &mut rng);
        // Force a visible offset for the pre-sync check.
        c.true_offset_ns = 1_500_000_000; // +1.5s
        let now = SimTime::from_secs(10);
        let pre_err =
            (c.utc_micros(now) as i64 - crate::time::true_utc_micros(now) as i64).unsigned_abs();
        assert!(pre_err >= 1_000_000, "pre-sync error should be ~1.5s, was {pre_err}µs");
        c.synced_estimate_ns = c.true_offset_ns - 5_000_000; // 5ms residual
        c.mark_synced();
        let post_err =
            (c.utc_micros(now) as i64 - crate::time::true_utc_micros(now) as i64).unsigned_abs();
        assert_eq!(post_err, 5_000);
    }

    #[test]
    fn perfect_clock_reads_true_time() {
        let c = ClockState::perfect();
        let now = SimTime::from_millis(1234);
        assert_eq!(c.utc_micros(now), crate::time::true_utc_micros(now));
        assert_eq!(c.residual_ns(), 0);
    }

    #[test]
    fn raw_local_applies_true_offset() {
        let mut c = ClockState::perfect();
        c.true_offset_ns = -500_000; // 0.5ms behind
        let now = SimTime::from_millis(10);
        assert_eq!(c.raw_local_micros(now), crate::time::true_utc_micros(now) - 500);
    }

    #[test]
    fn set_estimate_overrides() {
        let mut c = ClockState::perfect();
        c.true_offset_ns = 1_000_000;
        c.set_estimate_ns(990_000);
        assert!(c.synced);
        assert_eq!(c.residual_ns(), 10_000);
    }

    #[test]
    fn perfect_profile_samples_are_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = ClockProfile::perfect().sample(SimTime::from_secs(1), &mut rng);
        assert_eq!(c.true_offset_ns, 0);
        assert_eq!(c.synced_estimate_ns, 0);
        assert_eq!(c.sync_at, SimTime::from_secs(1));
    }
}
