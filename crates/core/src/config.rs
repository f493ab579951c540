//! Discovery configuration.
//!
//! Mirrors the knobs the paper calls out: the node configuration file's
//! BDN list (§3), the configurable collection timeout and maximum
//! response count (§9), the target-set size `size(T) <= size(N)` —
//! "usually … between 5 and 20, and configurable" (§10) — the ping
//! repetition count, and the weighting factors of the selection formula.

use std::time::Duration;

use nb_security::{Certificate, Identity, PublicKey};
use nb_wire::{Credential, NodeId};
use rand::Rng;

/// Weighting factors for broker selection — the paper's §9 snippet:
///
/// ```text
/// weight += (freemem / totalmem) * WEIGHTAGE_FREE_TO_TOTAL_MEMORY;
/// weight += (totalmem / (1024 * 1024)) * WEIGHTAGE_TOTAL_MEMORY;
/// weight -= numlinks * WEIGHTAGE_NUM_LINKS;
/// // OTHER factors may be similarly added
/// ```
///
/// We add connection count, CPU load and estimated delay as the paper's
/// "OTHER factors".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionWeights {
    /// Reward per unit of free/total memory ratio (higher is better).
    pub free_to_total_memory: f64,
    /// Reward per MiB of total memory (higher is better).
    pub total_memory_mb: f64,
    /// Penalty per overlay link (lower is better).
    pub num_links: f64,
    /// Penalty per active client connection.
    pub connections: f64,
    /// Penalty per unit CPU load in `[0, 1]`.
    pub cpu_load: f64,
    /// Penalty per millisecond of estimated one-way delay.
    pub delay_ms: f64,
}

impl Default for SelectionWeights {
    fn default() -> Self {
        SelectionWeights {
            free_to_total_memory: 100.0,
            total_memory_mb: 0.01,
            num_links: 1.0,
            connections: 0.1,
            cpu_load: 50.0,
            delay_ms: 0.5,
        }
    }
}

impl SelectionWeights {
    /// Weights that ignore load entirely and optimise pure proximity
    /// (ablation: "nearest-only" selection).
    pub fn proximity_only() -> SelectionWeights {
        SelectionWeights {
            free_to_total_memory: 0.0,
            total_memory_mb: 0.0,
            num_links: 0.0,
            connections: 0.0,
            cpu_load: 0.0,
            delay_ms: 1.0,
        }
    }

    /// Weights that ignore proximity and optimise pure load (ablation).
    pub fn load_only() -> SelectionWeights {
        SelectionWeights { delay_ms: 0.0, ..SelectionWeights::default() }
    }
}

/// Capped exponential backoff with bounded jitter, used by retry paths
/// (BDN request retransmission, stranded-entity re-discovery). The
/// nominal schedule is `base * multiplier^attempt` capped at `cap`; a
/// concrete delay jitters the nominal uniformly within `±jitter_frac`
/// so synchronized failures don't produce synchronized retry storms —
/// the retry-storm failure mode the network-utilization literature
/// flags for discovery protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First-attempt nominal delay.
    pub base: Duration,
    /// Growth factor per attempt (>= 1).
    pub multiplier: f64,
    /// Nominal delays never exceed this.
    pub cap: Duration,
    /// Jitter half-width as a fraction of nominal, in `[0, 1)`.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// A policy with sanitised parameters (`multiplier` floored at 1,
    /// `jitter_frac` clamped into `[0, 1)`).
    pub fn new(base: Duration, multiplier: f64, cap: Duration, jitter_frac: f64) -> RetryPolicy {
        RetryPolicy {
            base,
            multiplier: multiplier.max(1.0),
            cap: cap.max(base),
            jitter_frac: jitter_frac.clamp(0.0, 0.999),
        }
    }

    /// The nominal (un-jittered) delay for the 0-based `attempt`:
    /// monotone non-decreasing in `attempt` and capped at `cap`.
    pub fn nominal(&self, attempt: u32) -> Duration {
        let base = self.base.as_secs_f64();
        let cap = self.cap.as_secs_f64();
        let exp = self.multiplier.powi(attempt.min(63) as i32);
        Duration::from_secs_f64((base * exp).min(cap))
    }

    /// A concrete jittered delay for `attempt`, uniform in
    /// `[nominal * (1 - jitter_frac), nominal * (1 + jitter_frac)]`.
    pub fn delay<R: Rng + ?Sized>(&self, attempt: u32, rng: &mut R) -> Duration {
        let nominal = self.nominal(attempt);
        if self.jitter_frac <= 0.0 {
            return nominal;
        }
        let f = 1.0 - self.jitter_frac + 2.0 * self.jitter_frac * rng.gen::<f64>();
        nominal.mul_f64(f)
    }
}

/// Credentials for the secured request path (paper §9.1): the client
/// signs + encrypts its discovery request to the BDN's public key; the
/// BDN validates the certificate chain against the shared trust root.
#[derive(Debug, Clone)]
pub struct SecuritySuite {
    /// This node's identity (keys + certificate chain).
    pub identity: Identity,
    /// The trust anchor for peer certificate chains.
    pub trust_root: Certificate,
    /// The peer's (BDN's) public key requests are encrypted to.
    pub peer_public: PublicKey,
}

/// Full configuration of the discovery process at a requesting node.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// BDNs to try, in preference order (the node configuration file's
    /// `gridservicelocator.org/.com/.net/.info` list plus private BDNs).
    pub bdns: Vec<NodeId>,
    /// How long to gather discovery responses before deciding
    /// (paper: "typically 4-5 seconds", configurable).
    pub collection_window: Duration,
    /// Stop collecting once this many responses arrived ("a client might
    /// … specify that only the first N responses must be considered").
    pub max_responses: usize,
    /// Target set size `size(T)` (paper: 5–20, typically ~10).
    pub target_set_size: usize,
    /// UDP pings sent per target broker ("may be repeated multiple times
    /// to compute the average RTT").
    pub ping_count: u32,
    /// How long to wait for pongs before deciding.
    pub ping_window: Duration,
    /// BDN ack timeout before retransmitting the request.
    pub ack_timeout: Duration,
    /// Retransmissions per BDN: a request is sent at most
    /// `(retransmits_per_bdn + 1) × bdns.len()` times, round-robin over
    /// the BDN list, before the client turns to §7's fallbacks.
    pub retransmits_per_bdn: u32,
    /// Master multicast switch. When on, the client multicasts within
    /// its realm when no BDN is configured (Figure 12) or none answers
    /// (§7); when off the node behaves as if the network had no
    /// multicast routing and goes straight to its cached-target fallback.
    pub multicast_enabled: bool,
    /// The wait after each BDN request send. `None` waits exactly
    /// `ack_timeout` every time; `Some` waits the policy's capped
    /// exponential, jittered delay.
    pub backoff: Option<RetryPolicy>,
    /// Selection weights.
    pub weights: SelectionWeights,
    /// Credentials presented with requests (§3); boxed, 8 bytes unset.
    pub credentials: Option<Box<Credential>>,
    /// A remembered target set from a previous session (§7): pinged
    /// directly when BDNs and multicast both fail.
    pub cached_targets: Vec<NodeId>,
    /// When set, requests to BDNs are signed + encrypted (§9.1); boxed.
    pub security: Option<Box<SecuritySuite>>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            bdns: Vec::new(),
            collection_window: Duration::from_secs(4),
            max_responses: 5,
            target_set_size: 10,
            ping_count: 3,
            ping_window: Duration::from_secs(1),
            ack_timeout: Duration::from_secs(1),
            retransmits_per_bdn: 2,
            multicast_enabled: true,
            backoff: None,
            weights: SelectionWeights::default(),
            credentials: None,
            cached_targets: Vec::new(),
            security: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_bands() {
        let c = DiscoveryConfig::default();
        let window_s = c.collection_window.as_secs_f64();
        assert!((4.0..=5.0).contains(&window_s), "paper: 4-5s window");
        assert!((5..=20).contains(&c.target_set_size), "paper: target set 5-20");
        assert!(c.multicast_enabled);
    }

    /// Cold configuration stays out of line: `DiscoveryConfig`'s
    /// `security` and `credentials` and `BdnConfig`'s `security` are
    /// boxed, so an unsecured node pays 8 bytes for each, not 160 + 48
    /// inline. Every entity of a population carries a `DiscoveryConfig`.
    #[test]
    fn configs_and_entity_are_no_larger_than_with_cold_fields_boxed() {
        use std::mem::size_of;
        assert!(size_of::<DiscoveryConfig>() <= 240);
        assert!(size_of::<crate::bdn::BdnConfig>() <= 248);
        assert!(size_of::<crate::Entity>() <= 992);
    }

    #[test]
    fn retry_policy_nominal_is_monotone_and_capped() {
        let p = RetryPolicy::new(Duration::from_millis(500), 2.0, Duration::from_secs(8), 0.2);
        let mut prev = Duration::ZERO;
        for attempt in 0..40 {
            let n = p.nominal(attempt);
            assert!(n >= prev, "nominal must not shrink");
            assert!(n <= Duration::from_secs(8), "nominal must respect cap");
            prev = n;
        }
        assert_eq!(p.nominal(0), Duration::from_millis(500));
        assert_eq!(p.nominal(63), Duration::from_secs(8));
    }

    #[test]
    fn ablation_weight_presets() {
        let p = SelectionWeights::proximity_only();
        assert_eq!(p.free_to_total_memory, 0.0);
        assert!(p.delay_ms > 0.0);
        let l = SelectionWeights::load_only();
        assert_eq!(l.delay_ms, 0.0);
        assert!(l.free_to_total_memory > 0.0);
    }
}
