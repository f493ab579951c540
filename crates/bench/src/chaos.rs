//! `repro chaos` — seeded fault-injection campaigns over a live
//! deployment.
//!
//! Each scenario runs the shared fault-campaign skeleton
//! ([`crate::campaign::fault_scenario`]) on the testbed with one BDN,
//! six brokers on a star overlay spread across three realms and four
//! publishing and subscribing entities, and then checks three
//! invariants:
//!
//! 1. **attached** — every entity ends the run attached to a live
//!    broker (§1.2: the environment is fluid, but discovery must always
//!    re-converge once faults stop),
//! 2. **no-duplicates** — no entity that attached once was handed the
//!    same event twice, even under packet-duplication windows (the
//!    brokers' caches hold); a repeat at an entity that re-attached is
//!    reported, since its old broker may still forward for a while,
//! 3. **fresh-leases** — every broker an entity ends up attached to
//!    holds a live advertisement lease at the BDN (nobody is riding a
//!    stale registry entry).
//!
//! Scenario 0 is the acceptance scenario: the BDN is restarted *with
//! state loss* early on, and every broker is then bounced in a
//! staggered wave — each entity is forced through at least one
//! rediscovery that can only be served because broker re-advertisement
//! heartbeats repopulated the empty registry. The whole campaign is a
//! pure function of its base seed; the JSON report contains no
//! wall-clock measurements, so two runs with the same seed produce
//! byte-identical reports.

use std::time::Duration;

use crate::campaign::{attached, CampaignStats, FaultCampaign, InvariantResult, Testbed};
use nb_discovery::bdn::Bdn;
use nb_net::{FaultPlan, PacketFaults};

/// The chaos campaign's own counters for one scenario (the three
/// invariants are `attached`, `no_duplicates`, `fresh_leases`).
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Rediscoveries entities performed because a broker went silent.
    pub failovers: u64,
    /// Injection targets the BDN skipped over expired/absent leases.
    pub stale_targets_skipped: u64,
    /// Duplicate discovery requests absorbed by the BDN dedup cache.
    pub duplicate_requests: u64,
    /// Brokers holding live leases when the run ended.
    pub registry_len: usize,
    /// Extra datagram copies injected by the duplication fault.
    pub datagrams_duplicated: u64,
    /// Datagrams dropped by the corruption fault.
    pub datagrams_corrupted: u64,
    /// Datagrams held back by the reordering fault.
    pub datagrams_reordered: u64,
    /// Sends dropped on a severed (one- or two-way) path.
    pub unreachable_partitioned: u64,
}

impl CampaignStats for ScenarioStats {
    const CAMPAIGN: &'static str = "chaos";

    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "     \"stats\": {{\"failovers\": {}, \"stale_targets_skipped\": {}, \
             \"duplicate_requests\": {}, \"registry_len\": {}, \
             \"datagrams_duplicated\": {}, \"datagrams_corrupted\": {}, \
             \"datagrams_reordered\": {}, \"unreachable_partitioned\": {}}}",
            self.failovers,
            self.stale_targets_skipped,
            self.duplicate_requests,
            self.registry_len,
            self.datagrams_duplicated,
            self.datagrams_corrupted,
            self.datagrams_reordered,
            self.unreachable_partitioned,
        ));
    }
}

impl FaultCampaign for ScenarioStats {
    const BDNS: usize = 1;
    const PREFIX: &'static str = "chaos";
    /// Keepalives notice dead brokers (6 s), stranded retries back off
    /// to a 15 s cap, heartbeats refresh 30 s leases.
    const RECOVERY: Duration = Duration::from_secs(75);
    const SCRIPTED: &'static str = "scripted_bdn_loss";

    /// The scripted acceptance plan: the BDN is crashed at t=10 s and
    /// restarted with **state loss** at t=25 s (registry and attachments
    /// gone — only broker heartbeats can repopulate it); every broker is
    /// then bounced in a staggered 6 s wave (even indices lose state
    /// too), so each entity's broker dies at some point and its
    /// rediscovery must be served by the heartbeat-rebuilt registry. A
    /// one-way WAN flap and an unruly packet window run over the tail.
    fn scripted_plan<E>(tb: &Testbed<E>) -> FaultPlan {
        let bdn = tb.bdns[0];
        let mut plan = FaultPlan::new().crash_at(Duration::from_secs(10), bdn).restart_at(
            Duration::from_secs(25),
            bdn,
            true,
        );
        for (i, &b) in tb.brokers.iter().enumerate() {
            let down_at = Duration::from_secs(40 + 6 * i as u64);
            plan = plan
                .crash_at(down_at, b)
                .restart_at(down_at + Duration::from_secs(12), b, i % 2 == 0);
        }
        plan.one_way_flap_at(
            Duration::from_secs(60),
            tb.entities[0],
            tb.brokers[0],
            Duration::from_secs(10),
        )
        .packet_fault_window(
            Duration::from_secs(65),
            Duration::from_secs(15),
            PacketFaults::unruly(),
        )
        .sorted()
    }

    fn check(tb: &mut Testbed) -> (Vec<InvariantResult>, Self) {
        let (attached, _) = attached(tb);

        // An `Entity` keeps a repeat out of `received` and counts it, so
        // arrivals are judged, the re-attached only reported (see above).
        let (mut arrivals, mut repeats) = (0u64, 0u64);
        let (mut faults, mut after_failover) = (Vec::new(), Vec::new());
        for &e in &tb.entities {
            let entity = tb.entity(e);
            let n = entity.duplicates_dropped;
            arrivals += entity.received.len() as u64 + n;
            repeats += n;
            if n == 0 {
                continue;
            }
            let (name, attachments) = (tb.sim.node_name(e), &entity.attachments);
            if attachments.len() > 1 {
                after_failover.push(format!("{name} got {n} after {} attachments", attachments.len()));
            } else {
                let at = attachments.first().map_or("no broker", |&b| tb.sim.node_name(b));
                faults.push(format!("{name} got {n} at {at}"));
            }
        }
        let mut detail = format!("{arrivals} arrivals, {repeats} repeats");
        if !faults.is_empty() {
            detail.push_str(&format!("; attached once: {}", faults.join(", ")));
        }
        if !after_failover.is_empty() {
            detail.push_str(&format!("; re-attached: {}", after_failover.join(", ")));
        }
        let no_duplicates = InvariantResult { name: "no_duplicates", passed: faults.is_empty(), detail };

        // Every attachment is backed by a live lease.
        let now = tb.sim.now();
        let bdn = tb.sim.actor::<Bdn>(tb.bdns[0]).expect("bdn actor");
        let unleased: Vec<String> = tb
            .entities
            .iter()
            .filter_map(|&e| {
                let b = tb.entity(e).broker()?;
                (!bdn.lease_valid(b, now)).then(|| {
                    format!("{} attached to unleased {}", tb.sim.node_name(e), tb.sim.node_name(b))
                })
            })
            .collect();
        let fresh_leases = InvariantResult {
            name: "fresh_leases",
            passed: unleased.is_empty(),
            detail: if unleased.is_empty() {
                format!("{} live leases", bdn.live_entries(now))
            } else {
                unleased.join(" ")
            },
        };

        let stats = tb.sim.stats();
        let stats = ScenarioStats {
            failovers: tb.failovers(),
            stale_targets_skipped: bdn.stale_targets_skipped,
            duplicate_requests: bdn.duplicate_requests,
            // Live leases only (`live_entries`), so an entry whose lease
            // lapsed between sweep timers is never reported as present.
            registry_len: bdn.live_entries(now),
            datagrams_duplicated: stats.datagrams_duplicated,
            datagrams_corrupted: stats.datagrams_corrupted,
            datagrams_reordered: stats.datagrams_reordered,
            unreachable_partitioned: stats.unreachable_partitioned,
        };
        (vec![attached, no_duplicates, fresh_leases], stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{describe_testbed, fault_scenario, N_BROKERS, N_ENTITIES};

    #[test]
    fn acceptance_plan_bounces_everything() {
        let plan = ScenarioStats::scripted_plan(&describe_testbed::<ScenarioStats>(7));
        // BDN crash+lossy restart, every broker crash+restart, one-way
        // flap (2 events), packet window (2 events).
        assert_eq!(plan.len(), 2 + 2 * N_BROKERS + 2 + 2);
        let text = plan.describe();
        assert!(text.contains("restart node=0 lose_state=true"), "BDN loses state:\n{text}");
    }

    #[test]
    fn scripted_scenario_passes_all_invariants() {
        let r = fault_scenario::<ScenarioStats>(2005, 0);
        assert_eq!(r.name, "scripted_bdn_loss");
        for inv in &r.invariants {
            assert!(inv.passed, "{} failed: {}", inv.name, inv.detail);
        }
        let stats = &r.stats;
        assert!(stats.failovers >= N_ENTITIES as u64, "every entity failed over: {stats:?}");
        assert_eq!(stats.registry_len, N_BROKERS, "all brokers re-leased after the wave");
        assert!(stats.datagrams_duplicated > 0, "the packet window injected duplicates");
    }
}
