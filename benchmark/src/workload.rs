//! The four workloads and what one repetition of any of them yields.

use std::time::Duration;

use nb_discovery::DiscoveryBrokerActor;
use nb_net::NetStats;

use crate::clock::CpuClock;
use crate::trace;

pub mod attach_geo;
pub mod paper_figs;
pub mod pubsub;

/// A workload of the benchmark. `BENCHMARK.json` carries the one-line
/// reason for each; README.md the long form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFigs,
    AttachGeo,
    PubsubV1,
    PubsubV2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperFigs,
        Workload::AttachGeo,
        Workload::PubsubV1,
        Workload::PubsubV2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigs => "paper_figs",
            Workload::AttachGeo => "attach_geo",
            Workload::PubsubV1 => "pubsub_v1",
            Workload::PubsubV2 => "pubsub_v2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Identical reps a `--trace 0` run does per 20 s of `--seconds`:
    /// sized on the machine this was written on so the reps take half to
    /// nine tenths of the time when the host is at its fastest (README,
    /// "Noise", for what it does when it is not). The count is a function
    /// of the arguments alone, never of how fast the reps turn out to be:
    /// faster code must not buy itself a better-measured run.
    fn reps_per_20s(self) -> f64 {
        match self {
            Workload::PaperFigs => 8.0,
            Workload::AttachGeo => 8.0,
            Workload::PubsubV1 => 12.0,
            Workload::PubsubV2 => 8.0,
        }
    }

    /// How many identical reps a `--trace 0` run of `seconds` does.
    pub fn reps(self, seconds: f64) -> usize {
        ((self.reps_per_20s() * seconds / 20.0) as usize).max(MIN_REPS)
    }

    /// One repetition: set up, measure, harvest, check. The same `seed`
    /// always does the same work; `traced` swaps in the wrappers of
    /// [`crate::trace`] and changes nothing else.
    pub fn rep(self, seed: u64, traced: bool) -> Rep {
        match self {
            Workload::PaperFigs => paper_figs::rep(seed, traced),
            Workload::AttachGeo => attach_geo::rep(seed, traced),
            Workload::PubsubV1 => pubsub::rep(seed, traced, false),
            Workload::PubsubV2 => pubsub::rep(seed, traced, true),
        }
    }
}

/// The traffic counters the metrics use, as absolute readings or (after
/// [`NetCounts::minus`]) as deltas over a measure phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    pub bytes: u64,
    pub stream_msgs: u64,
    pub datagrams_sent: u64,
    pub datagrams_delivered: u64,
    pub datagrams_lost: u64,
    pub segments: u64,
    pub frames_coalesced: u64,
}

impl NetCounts {
    pub fn of(stats: &NetStats) -> NetCounts {
        NetCounts {
            bytes: stats.bytes_delivered,
            stream_msgs: stats.stream_delivered,
            datagrams_sent: stats.datagrams_sent,
            datagrams_delivered: stats.datagrams_delivered,
            datagrams_lost: stats.datagrams_lost,
            segments: stats.segments_delivered,
            frames_coalesced: stats.frames_coalesced,
        }
    }

    pub fn minus(&self, before: &NetCounts) -> NetCounts {
        NetCounts {
            bytes: self.bytes - before.bytes,
            stream_msgs: self.stream_msgs - before.stream_msgs,
            datagrams_sent: self.datagrams_sent - before.datagrams_sent,
            datagrams_delivered: self.datagrams_delivered - before.datagrams_delivered,
            datagrams_lost: self.datagrams_lost - before.datagrams_lost,
            segments: self.segments - before.segments,
            frames_coalesced: self.frames_coalesced - before.frames_coalesced,
        }
    }

    pub fn add(&mut self, o: &NetCounts) {
        self.bytes += o.bytes;
        self.stream_msgs += o.stream_msgs;
        self.datagrams_sent += o.datagrams_sent;
        self.datagrams_delivered += o.datagrams_delivered;
        self.datagrams_lost += o.datagrams_lost;
        self.segments += o.segments;
        self.frames_coalesced += o.frames_coalesced;
    }
}

/// Everything about a rep that is a function of the seed alone. All N
/// reps of a run must produce equal `Outcome`s or the run fails.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted (discoveries, attaches, expected deliveries).
    pub ops: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// Why, for the first few (empty when `failed == 0`).
    pub failures: Vec<String>,
    /// Engine events dispatched over the measure phase.
    pub events: u64,
    /// Traffic over the measure phase.
    pub net: NetCounts,
    /// Per-op virtual latency, µs, ascending.
    pub latencies_us: Vec<u64>,
    /// Digest of the engine's own account of the run
    /// ([`crate::deploy::engine_digest`]).
    pub engine_digest: u64,
    /// Digest of *what was delivered to whom* (chosen brokers,
    /// attachments, or the (subscriber, event id) multiset).
    pub delivery_digest: u64,
    /// Discoveries that went through a BDN (the base for
    /// `core.retransmits_per_op`).
    pub bdn_ops: u64,
    /// Duplicate frames the brokers' and entities' dedup caches dropped
    /// over the whole rep, and the frames they admitted.
    pub duplicates_dropped: u64,
    pub dedup_admitted: u64,
}

/// Fewest identical reps a host-time metric is the median of.
pub const MIN_REPS: usize = 8;

/// One repetition's host-side measurements: what differs between reps
/// of one seed. Times are the thread's CPU time ([`CpuClock`]), one
/// sample per phase; each is a quarter of a second or more on the
/// machine this was written on.
#[derive(Debug, Clone)]
pub struct HostSample {
    /// CPU time of the set-up sample.
    pub setup: Duration,
    /// How many set-ups the sample holds (cheap set-ups are batched).
    pub setups: u32,
    /// CPU time of the measure phase.
    pub measure: Duration,
    /// Allocator calls / bytes over the measure phase.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Live heap the set-up left behind.
    pub setup_live_bytes: u64,
}

/// One repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    pub host: HostSample,
    pub outcome: Outcome,
}

/// `Outcome::failures` keeps at most this many explanations.
pub const MAX_FAILURE_NOTES: usize = 5;

impl Outcome {
    /// Counts `count` failed ops, keeping `why` if there is room.
    pub fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(why());
        }
    }

    /// Adds what the brokers' duplicate-suppression caches saw.
    pub fn count_broker_dedup<'a>(
        &mut self,
        brokers: impl Iterator<Item = &'a DiscoveryBrokerActor>,
    ) {
        for actor in brokers {
            self.duplicates_dropped += actor.broker.duplicates_suppressed;
            self.dedup_admitted += actor.broker.events_routed;
        }
    }
}

/// Runs `one` set-up `batch` times inside a set-up span, times the
/// whole batch as one sample, and keeps the last set-up. All but the
/// last exist only to lengthen the sample: a single cheap set-up is too
/// short to time.
pub fn timed_setups<D>(batch: u32, mut one: impl FnMut() -> D) -> (D, Duration) {
    trace::span(trace::SETUP, || {
        let t = CpuClock::now();
        let mut last = one();
        for _ in 1..batch {
            drop(last);
            last = one();
        }
        (last, t.elapsed())
    })
}

/// Runs `phase` inside a measure span and times it.
pub fn timed_measure(phase: impl FnOnce()) -> Duration {
    trace::span(trace::MEASURE, || {
        let t = CpuClock::now();
        phase();
        t.elapsed()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rep count is a function of the arguments alone, and what
    /// `BENCHMARK.json` says it is at its `run_seconds`.
    #[test]
    fn rep_count_is_fixed_by_the_arguments() {
        let at = |seconds| Workload::ALL.map(|w| w.reps(seconds));
        assert_eq!(at(20.0), [8, 8, 12, 8]);
        assert_eq!(at(40.0), [16, 16, 24, 16]);
        assert_eq!(at(1.0), [MIN_REPS; 4]);
    }
}
