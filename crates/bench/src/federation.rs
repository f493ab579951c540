//! `repro federation` — seeded BDN-loss campaigns over a federated
//! deployment.
//!
//! Where the chaos campaign (`chaos.rs`) proves discovery survives the
//! loss of its *single* BDN only because broker heartbeats repopulate
//! the registry, this campaign federates **three** BDNs running
//! anti-entropy (DESIGN.md §14) and kills up to n−1 of them. Each
//! scenario runs the shared fault-campaign skeleton
//! ([`crate::campaign::fault_scenario`]) on the testbed with three
//! federated BDNs spread over three realms, six brokers on a star
//! overlay and four entities whose BDN rotation spans the whole
//! federation, probes convergence, and checks three invariants:
//!
//! 1. **attached** — every entity ends the run attached to a live
//!    broker, even though its originally-preferred BDN may have spent
//!    most of the run dead (discovery success must be 100%),
//! 2. **cross_bdn_convergence** — once faults stop and the system
//!    quiesces, every live BDN reports the same registry digest
//!    ([`Bdn::registry_digest`], its registry's one digest):
//!    anti-entropy reconverged the federation, including tombstone sets,
//! 3. **no_resurrection** — no live BDN holds a lease that one of its
//!    own tombstones retires (asked of the registry itself,
//!    [`nb_discovery::LeaseBook::resurrected`], so the check applies the
//!    merge's own rule), and no entity is attached to a broker the
//!    federation has tombstoned: a dead broker's advertisement must not
//!    crawl back out of a stale replica.
//!
//! Scenario 0 is the acceptance scenario: BDN 2 is crashed early
//! *preserving* its state and revived mid-run, so it rejoins holding a
//! registry from before a broker was permanently lost — the exact
//! stale-replica push that tombstones exist to block. BDN 1 is crashed
//! and later restarted *losing* its state, so for a window only one of
//! three BDNs is alive (k = n−1 loss) and every discovery in that
//! window must be served by the survivor. The whole campaign is a pure
//! function of its base seed; the JSON report contains no wall-clock
//! measurements, so two runs with the same seed — at any worker count —
//! produce byte-identical reports.

use std::time::Duration;

use crate::campaign::{
    attached, CampaignStats, FaultCampaign, InvariantResult, Testbed, ROUND_INTERVAL,
};
use nb_discovery::bdn::Bdn;
use nb_discovery::FederationStats;
use nb_net::FaultPlan;
use nb_wire::NodeId;

/// Convergence probes abandoned after this many rounds.
const MAX_CONVERGENCE_ROUNDS: u64 = 30;

/// Federation counters reported for one BDN.
#[derive(Debug, Clone)]
pub struct BdnReport {
    /// The BDN's node name.
    pub name: String,
    /// Whether the BDN was up when the run ended.
    pub up: bool,
    /// Live leases held at the end of the run ([`Bdn::live_entries`]).
    pub live_leases: usize,
    /// Anti-entropy counters.
    pub stats: FederationStats,
    /// Malformed (or oversized) sync payloads rejected.
    pub malformed_messages: u64,
}

/// The federation campaign's own counters for one scenario (the three
/// invariants are `attached`, `cross_bdn_convergence`,
/// `no_resurrection`).
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Anti-entropy rounds of quiescence it took for every live BDN to
    /// report the same registry digest (0 = already converged;
    /// [`MAX_CONVERGENCE_ROUNDS`] = never).
    pub convergence_rounds: u64,
    /// Entities attached to a live broker when the run ended.
    pub attached: usize,
    /// Entities in the deployment (discovery success = attached/total).
    pub total_entities: usize,
    /// Rediscoveries entities performed because a broker went silent.
    pub failovers: u64,
    /// Per-BDN federation counters.
    pub bdn_reports: Vec<BdnReport>,
    /// Sends dropped on a severed (one- or two-way) path.
    pub unreachable_partitioned: u64,
}

impl CampaignStats for ScenarioStats {
    const CAMPAIGN: &'static str = "federation";

    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "     \"stats\": {{\"convergence_rounds\": {}, \"attached\": {}, \
             \"total_entities\": {}, \"failovers\": {}, \
             \"unreachable_partitioned\": {}}},\n",
            self.convergence_rounds,
            self.attached,
            self.total_entities,
            self.failovers,
            self.unreachable_partitioned,
        ));
        out.push_str("     \"federation\": [\n");
        for (j, b) in self.bdn_reports.iter().enumerate() {
            out.push_str(&format!(
                "       {{\"name\": \"{}\", \"up\": {}, \"live_leases\": {}, \
                 \"rounds_run\": {}, \"digests_matched\": {}, \
                 \"digests_mismatched\": {}, \"entries_pushed\": {}, \
                 \"entries_pulled\": {}, \"tombstones_applied\": {}, \
                 \"tombstones_expired\": {}, \"resurrections_blocked\": {}, \
                 \"malformed_messages\": {}}}{}\n",
                b.name,
                b.up,
                b.live_leases,
                b.stats.rounds_run,
                b.stats.digests_matched,
                b.stats.digests_mismatched,
                b.stats.entries_pushed,
                b.stats.entries_pulled,
                b.stats.tombstones_applied,
                b.stats.tombstones_expired,
                b.stats.resurrections_blocked,
                b.malformed_messages,
                if j + 1 < self.bdn_reports.len() { "," } else { "" },
            ));
        }
        out.push_str("     ]");
    }
}

impl FaultCampaign for ScenarioStats {
    const BDNS: usize = 3;
    const PREFIX: &'static str = "fed";
    /// Keepalives notice dead brokers (6 s), stranded retries back off
    /// to a 15 s cap, heartbeats refresh 30 s leases, and the lease a
    /// permanently-dead broker left behind expires and becomes a
    /// tombstone that anti-entropy must propagate.
    const RECOVERY: Duration = Duration::from_secs(60);
    const SCRIPTED: &'static str = "scripted_bdn_federation_loss";

    /// The scripted acceptance plan, built around the stale-replica
    /// resurrection hazard:
    ///
    /// * t=20 s: BDN 2 crashes **preserving state** (a frozen replica),
    /// * t=25 s: BDN 1 crashes — two of three BDNs are now dead, every
    ///   discovery must be served by BDN 0 alone,
    /// * t=30 s: broker 5 crashes permanently — its lease expires at the
    ///   survivor and becomes a tombstone,
    /// * t=42 s: BDN 2 revives still holding its pre-crash registry (with
    ///   broker 5's old lease) and rejoins anti-entropy — the tombstone
    ///   must block the ghost,
    /// * t=50 s: BDN 1 restarts **losing state** and must be repopulated
    ///   entirely by anti-entropy,
    /// * t=55 s: a one-way flap severs BDN 0 → BDN 1 for 8 s, exercising
    ///   sync under partial partition.
    fn scripted_plan<E>(tb: &Testbed<E>) -> FaultPlan {
        FaultPlan::new()
            .crash_at(Duration::from_secs(20), tb.bdns[2])
            .crash_at(Duration::from_secs(25), tb.bdns[1])
            .crash_at(Duration::from_secs(30), tb.brokers[5])
            .restart_at(Duration::from_secs(42), tb.bdns[2], false)
            .restart_at(Duration::from_secs(50), tb.bdns[1], true)
            .one_way_flap_at(
                Duration::from_secs(55),
                tb.bdns[0],
                tb.bdns[1],
                Duration::from_secs(8),
            )
            .sorted()
    }

    /// Steps one anti-entropy round at a time until every live BDN
    /// reports the same registry digest, then checks the invariants.
    fn check(tb: &mut Testbed) -> (Vec<InvariantResult>, Self) {
        let mut convergence_rounds = 0u64;
        let mut converged = false;
        while convergence_rounds <= MAX_CONVERGENCE_ROUNDS {
            let digests = live_digests(tb);
            if !digests.is_empty() && digests.iter().all(|&(_, d)| d == digests[0].1) {
                converged = true;
                break;
            }
            if convergence_rounds == MAX_CONVERGENCE_ROUNDS {
                break;
            }
            tb.sim.run_for(ROUND_INTERVAL);
            convergence_rounds += 1;
        }

        // Discovery success is 100% despite k = n−1 BDN loss.
        let (attached, attached_count) = attached(tb);

        // The live federation agrees on one registry digest.
        let digests = live_digests(tb);
        let convergence_detail = if converged {
            format!(
                "{} live BDNs agree on {:016x} after {} rounds",
                digests.len(),
                digests.first().map(|&(_, d)| d).unwrap_or(0),
                convergence_rounds
            )
        } else {
            let parts: Vec<String> =
                digests.iter().map(|&(b, d)| format!("{}={d:016x}", tb.sim.node_name(b))).collect();
            format!("diverged after {MAX_CONVERGENCE_ROUNDS} rounds: {}", parts.join(" "))
        };

        // No resurrection — no live BDN holds a lease its own tombstone
        // retires, and no entity rides a tombstoned broker.
        let now = tb.sim.now();
        let mut ghosts = String::new();
        let mut total_tombstones = 0usize;
        for &b in &tb.bdns {
            if !tb.sim.is_up(b) {
                continue;
            }
            let registry = tb.sim.actor::<Bdn>(b).expect("bdn actor").registry();
            for (broker, _) in registry.tombstones() {
                total_tombstones += 1;
                if registry.resurrected(broker, now) {
                    ghosts.push_str(&format!(
                        "{} resurrected at {} ",
                        tb.sim.node_name(broker),
                        tb.sim.node_name(b)
                    ));
                }
                for &e in &tb.entities {
                    if tb.entity(e).broker() == Some(broker) && !tb.sim.is_up(broker) {
                        ghosts.push_str(&format!(
                            "{} attached to tombstoned {} ",
                            tb.sim.node_name(e),
                            tb.sim.node_name(broker)
                        ));
                    }
                }
            }
        }
        let no_resurrection = InvariantResult {
            name: "no_resurrection",
            passed: ghosts.is_empty(),
            detail: if ghosts.is_empty() {
                format!("{total_tombstones} tombstones, 0 ghosts")
            } else {
                ghosts.trim_end().to_string()
            },
        };

        let bdn_reports: Vec<BdnReport> = tb
            .bdns
            .iter()
            .map(|&b| {
                let bdn = tb.sim.actor::<Bdn>(b).expect("bdn actor");
                BdnReport {
                    name: tb.sim.node_name(b).to_string(),
                    up: tb.sim.is_up(b),
                    live_leases: bdn.live_entries(now),
                    stats: bdn.federation().map(|f| f.stats).unwrap_or_default(),
                    malformed_messages: bdn.malformed_messages,
                }
            })
            .collect();
        let invariants = vec![
            attached,
            InvariantResult {
                name: "cross_bdn_convergence",
                passed: converged,
                detail: convergence_detail,
            },
            no_resurrection,
        ];
        let stats = ScenarioStats {
            convergence_rounds,
            attached: attached_count,
            total_entities: tb.entities.len(),
            failovers: tb.failovers(),
            bdn_reports,
            unreachable_partitioned: tb.sim.stats().unreachable_partitioned,
        };
        (invariants, stats)
    }
}

/// Live BDNs' registry digests at the simulator's current instant.
fn live_digests(tb: &Testbed) -> Vec<(NodeId, u64)> {
    let now = tb.sim.now();
    tb.bdns
        .iter()
        .filter(|&&b| tb.sim.is_up(b))
        .filter_map(|&b| tb.sim.actor::<Bdn>(b).map(|bdn| (b, bdn.registry_digest(now))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{describe_testbed, fault_scenario, N_ENTITIES};

    #[test]
    fn acceptance_plan_kills_n_minus_one_bdns() {
        let plan = ScenarioStats::scripted_plan(&describe_testbed::<ScenarioStats>(7));
        // 2 BDN crashes + 1 broker crash + 2 restarts + flap (2 events).
        assert_eq!(plan.len(), 7);
        let text = plan.describe();
        assert!(text.contains("restart node=1 lose_state=true"), "BDN 1 loses state:\n{text}");
        assert!(text.contains("restart node=2 lose_state=false"), "BDN 2 keeps state:\n{text}");
    }

    #[test]
    fn scripted_scenario_passes_all_invariants() {
        let r = fault_scenario::<ScenarioStats>(2005, 0);
        assert_eq!(r.name, "scripted_bdn_federation_loss");
        for inv in &r.invariants {
            assert!(inv.passed, "{} failed: {}", inv.name, inv.detail);
        }
        assert_eq!(r.stats.attached, N_ENTITIES, "100% discovery success under n-1 BDN loss");
        let bdns = &r.stats.bdn_reports;
        let tombstones_applied: u64 = bdns.iter().map(|b| b.stats.tombstones_applied).sum();
        assert!(tombstones_applied >= 1, "the dead broker's tombstone propagated: {r:?}");
        let pulled: u64 = bdns.iter().map(|b| b.stats.entries_pulled).sum();
        assert!(pulled >= 1, "anti-entropy repopulated the state-lossy BDN: {r:?}");
    }
}
