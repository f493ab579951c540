//! The rule registry: one row per lint rule, used by `repro lint
//! --rules` and by the golden test that keeps the README table from
//! drifting. The table is data, not prose — docs are generated from it.

/// Static metadata for one rule.
pub struct RuleMeta {
    pub id: &'static str,
    /// "deny" (fixable/suppressable) or "forbid" (unsuppressable).
    pub severity: &'static str,
    /// Which zone of the tree the rule patrols.
    pub zone: &'static str,
    pub summary: &'static str,
}

pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "D001",
        severity: "deny",
        zone: "all-but-wall-clock",
        summary: "no wall-clock reads (SystemTime/Instant) outside the benches",
    },
    RuleMeta {
        id: "D002",
        severity: "deny",
        zone: "deterministic",
        summary: "no HashMap/HashSet iteration-order dependence; use ordered collections",
    },
    RuleMeta {
        id: "D003",
        severity: "deny",
        zone: "all",
        summary: "no ambient RNG construction (thread_rng/from_entropy/OsRng) at the call site",
    },
    RuleMeta {
        id: "D004",
        severity: "deny",
        zone: "protocol-handler",
        summary: "no unwrap/expect/panic tokens inside protocol receive paths",
    },
    RuleMeta {
        id: "D005",
        severity: "deny",
        zone: "deterministic",
        summary: "no floating-point folds over hash-ordered iteration; accumulation order must reproduce",
    },
    RuleMeta {
        id: "D006",
        severity: "deny",
        zone: "all-but-wall-clock",
        summary: "seeded pub fns are pure functions of their arguments: no ambient reads in the body",
    },
    RuleMeta {
        id: "D007",
        severity: "deny",
        zone: "wire-receive",
        summary: "no decode-for-one-field (peek the frame header) and no Bytes payload copies",
    },
    RuleMeta {
        id: "D008",
        severity: "deny",
        zone: "single-threaded",
        summary: "no ad-hoc threads/locks/atomics outside the shard executor (shard.rs)",
    },
    RuleMeta {
        id: "D009",
        severity: "deny",
        zone: "deterministic",
        summary: "interprocedural wall-clock taint: no call path from deterministic code to a clock read",
    },
    RuleMeta {
        id: "D010",
        severity: "deny",
        zone: "all",
        summary: "RNG seed discipline: seeds derive from parameters/config/id mixes, never ambient state, transitively",
    },
    RuleMeta {
        id: "D011",
        severity: "deny",
        zone: "protocol-handler",
        summary: "interprocedural panic reachability: receive paths must not call out-of-zone panicking helpers",
    },
    RuleMeta {
        id: "L001",
        severity: "forbid",
        zone: "all",
        summary: "suppressions must carry a non-empty reason; L001 itself cannot be suppressed",
    },
];

/// Stable machine-readable table: one `id\tseverity\tzone\tsummary`
/// row per rule, in registry order.
pub fn rules_table() -> String {
    let mut out = String::from("id\tseverity\tzone\tsummary\n");
    for r in RULES {
        out.push_str(&format!("{}\t{}\t{}\t{}\n", r.id, r.severity, r.zone, r.summary));
    }
    out
}

/// The README rules table, generated so docs can't drift.
pub fn rules_markdown() -> String {
    let mut out = String::from("| Rule | Severity | Zone | Summary |\n|---|---|---|---|\n");
    for r in RULES {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            r.id, r.severity, r.zone, r.summary
        ));
    }
    out
}
