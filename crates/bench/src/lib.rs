//! # nb-bench
//!
//! The reproduction harness, driven by the `repro` binary. Every table
//! of discovery runs, figure or ablation, is one [`Sweep`]: a base
//! deployment, the points that vary it and the columns read off their
//! outcomes, run by [`Sweep::run`] into one [`Table`]. Each follows the
//! paper's protocol — "the discovery process was carried out 120 times
//! and the first 100 results were selected after removing outliers"
//! (§9) — and the figures report its five metrics (mean, standard
//! deviation, maximum, minimum, error); an ablation caps the runs per
//! point, and every title says how many ran.

pub mod ab;
pub mod alloc;
pub mod campaign;
pub mod census;
pub mod chaos;
pub mod parallel;
pub mod scale;
pub mod sweep;
pub mod table;

pub use sweep::Sweep;
pub use table::{Cell, Table};

use std::time::Instant;

use crate::parallel::ParallelExecutor;
use crate::sweep::SITE_FIGURES;
use nb_broker::TopologyKind;
use nb_discovery::scenario::ScenarioBuilder;
use nb_discovery::DiscoveryOutcome;
use nb_net::wan::{WanModel, BLOOMINGTON, CARDIFF};
use nb_security::{open_envelope, seal_envelope, Authority, Certificate, Identity};
use nb_util::stats::{paper_protocol, Summary};
use nb_util::Uuid;
use nb_wire::{Credential, DiscoveryRequest, Endpoint, Message, NodeId, Port, RealmId};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs in the paper's protocol.
pub const PAPER_RUNS: usize = 120;
/// Samples kept after outlier trimming.
pub const PAPER_KEEP: usize = 100;

/// The Table-1 machine inventory.
pub fn table1() -> Table {
    let columns = [("site", 0), ("host", 0), ("machine", 0), ("memory_mib", 0)];
    let wan = WanModel::paper();
    let rows =
        wan.sites().iter().map(|s| row![s.name, s.host, s.machine, s.total_memory / (1024 * 1024)]);
    Table::new("Table 1: machines used in the testing process", &columns, rows)
}

/// Renders the topology diagram figures (1, 8, 10).
pub fn topology_figure(kind: TopologyKind) -> String {
    let wan = WanModel::paper();
    let labels: Vec<String> = [1usize, 2, 3, 4, 5] // broker sites
        .iter()
        .map(|&s| wan.site(s).name.to_string())
        .collect();
    let topo = nb_broker::Topology::build(kind, 5);
    topo.render_ascii(kind, &labels)
}

/// `runs` discoveries, one each: run `i` builds an independent
/// deployment of `builder` seeded `seed.wrapping_add(i)`. Runs shard
/// across `ex`'s workers and come back in run order, so the outcomes
/// are identical to a serial loop over the same seeds.
pub fn discoveries(
    ex: ParallelExecutor,
    builder: &ScenarioBuilder,
    seed: u64,
    runs: usize,
) -> Vec<DiscoveryOutcome> {
    ex.run(runs, |i| {
        let mut b = builder.clone();
        b.seed = seed.wrapping_add(i as u64);
        b.build().run_discovery_once()
    })
}

// --------------------------------------------------------------------
// Security cost figures (13, 14) — wall-clock measurements of real work.
// --------------------------------------------------------------------

/// Test fixtures for the security measurements.
pub struct SecurityFixture {
    /// The certificate authority.
    pub ca: Authority,
    /// Client identity (request sender).
    pub client: Identity,
    /// Broker identity (request recipient).
    pub broker: Identity,
    /// A representative discovery request message.
    pub request: Message,
    /// RNG for nonces.
    pub rng: StdRng,
}

impl SecurityFixture {
    /// Builds CA, identities and a sample request.
    pub fn new(seed: u64) -> SecurityFixture {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = Authority::new_root("GridServiceLocator Root CA", 0, u64::MAX, &mut rng);
        let client = Identity::issued_by("discovery-client", &ca, &mut rng);
        let broker = Identity::issued_by("broker-indy", &ca, &mut rng);
        let request = Message::Discovery(DiscoveryRequest {
            request_id: Uuid::from_u128(7),
            requester: NodeId(9),
            hostname: "client.bloomington.in".into(),
            realm: RealmId(0),
            reply_to: Endpoint::new(NodeId(9), Port(5060)),
            transports: vec![],
            credentials: Some(Credential {
                principal: "discovery-client".into(),
                token: vec![0xAB; 16],
            }),
            issued_at_utc: 1_120_000_000_000_000,
        });
        SecurityFixture { ca, client, broker, request, rng }
    }

    /// The client's certificate chain.
    pub fn client_chain(&self) -> &[Certificate] {
        &self.client.chain
    }
}

/// Figure 13: time to validate a client's X.509-style certificate chain.
pub fn figure_cert_validation(seed: u64, iters: usize) -> Summary {
    let fx = SecurityFixture::new(seed);
    let now = 1_000_000u64;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        Certificate::validate_chain(fx.client_chain(), &fx.ca.root_cert, now)
            .expect("valid chain");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let kept = paper_protocol(&samples, PAPER_KEEP.min(iters));
    Summary::of(&kept).expect("non-empty")
}

/// Figure 14: time to sign + encrypt a discovery request and later
/// decrypt + verify it.
pub fn figure_sign_encrypt(seed: u64, iters: usize) -> Summary {
    let mut fx = SecurityFixture::new(seed);
    let now = 1_000_000u64;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        let env = seal_envelope(&fx.request, &fx.client, fx.broker.public(), &mut fx.rng);
        let opened = open_envelope(&env, &fx.broker, &fx.ca.root_cert, now).expect("opens");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(opened, fx.request);
    }
    let kept = paper_protocol(&samples, PAPER_KEEP.min(iters));
    Summary::of(&kept).expect("non-empty")
}

// --------------------------------------------------------------------
// Self-verification: the paper's qualitative claims as checks.
// --------------------------------------------------------------------

/// One shape claim verified against fresh measurements.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// What the paper claims.
    pub claim: &'static str,
    /// Evidence measured this run.
    pub evidence: String,
    /// Whether the claim held.
    pub passed: bool,
}

/// Re-measures every qualitative claim of the evaluation at reduced run
/// counts and reports pass/fail per claim (`repro check`). Each table it
/// reads is run once.
pub fn shape_checks(ex: ParallelExecutor, seed: u64, runs: usize) -> Vec<ShapeCheck> {
    let table = |name, runs| Sweep::named(name).expect("a sweep").run(ex, seed, runs);
    // Each breakdown's (phase, share) rows.
    let slices = |name| {
        let t = table(name, runs);
        let shares = t.column("share").into_iter().map(Cell::real);
        t.column("phase").into_iter().map(|c| c.label().to_string()).zip(shares).collect::<Vec<_>>()
    };
    let [unconnected, star, linear] = ["fig2", "fig9", "fig11"].map(slices);
    let wait = |s: &[(String, f64)]| s.iter().find(|(l, _)| l == "await responses").map_or(0.0, |(_, s)| *s);
    let (wu, wl, ws) = (wait(&unconnected), wait(&linear), wait(&star));
    let max_slice = |claim, slices: &[(String, f64)]| {
        let (label, share) = slices.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        let evidence = format!("max slice = {label} at {:.0}%", share * 100.0);
        ShapeCheck { claim, evidence, passed: label == "await responses" }
    };
    let mean_ms = |name| table(name, runs).column("mean_ms")[0].real();
    let sites: Vec<_> = SITE_FIGURES.iter().map(|&(name, site, label)| (site, mean_ms(name), label)).collect();
    let mean_at = |site| sites.iter().find(|s| s.0 == site).map_or(f64::NAN, |s| s.1);
    let (cardiff, blo, mc) = (mean_at(CARDIFF), mean_at(BLOOMINGTON), mean_ms("fig12"));
    let others = sites.iter().filter(|s| s.0 != CARDIFF);
    let worst_other = others.fold((0.0, ""), |a, &(_, mean, label)| if mean > a.0 { (mean, label) } else { a });
    let (cert, env) = (figure_cert_validation(seed, 100).mean, figure_sign_encrypt(seed, 100).mean);
    let scale = table("ablation-scale", (runs / 4).max(3));
    let (brokers, kinds, totals) = (scale.column("brokers"), scale.column("topology"), scale.column("total_ms"));
    let total = |n: usize, k: &str| {
        let row = (0..totals.len()).find(|&i| *brokers[i] == Cell::from(n) && kinds[i].label() == k);
        row.map_or(f64::NAN, |i| totals[i].real())
    };
    let (u5, u20) = (total(5, "unconnected"), total(20, "unconnected"));
    let (s5, s20) = (total(5, "star"), total(20, "star"));
    vec![
        ShapeCheck {
            claim: "waiting share ranks unconnected > linear > star (Figs 2/9/11)",
            evidence: format!("unconnected {:.0}%, linear {:.0}%, star {:.0}%", wu * 100.0, wl * 100.0, ws * 100.0),
            passed: wu > wl && wl > ws,
        },
        max_slice("Fig 2: the maximum time is spent awaiting responses (unconnected)", &unconnected),
        max_slice("Fig 9: the maximum time is spent awaiting responses (star)", &star),
        max_slice("Fig 11: the maximum time is spent awaiting responses (linear)", &linear),
        ShapeCheck {
            claim: "Figs 3-7: the transatlantic client (Cardiff) is slowest",
            evidence: format!("cardiff {:.0} ms vs next-worst {} {:.0} ms", cardiff, worst_other.1, worst_other.0),
            passed: cardiff > worst_other.0,
        },
        ShapeCheck {
            claim: "Fig 12: multicast-only discovery is fast (local realm only)",
            evidence: format!("multicast {mc:.0} ms vs BDN-path {blo:.0} ms"),
            passed: mc < blo && mc < 200.0,
        },
        ShapeCheck {
            claim: "Figs 13/14: security costs are small relative to discovery time",
            evidence: format!("validate {cert:.3} ms, sign+encrypt+extract {env:.3} ms"),
            passed: cert > 0.0 && env > 0.0 && env < blo / 10.0,
        },
        ShapeCheck {
            claim: "scaling: the BDN's O(N) distribution grows with broker count; the star overlay does not",
            evidence: format!("unconnected 5→20 brokers: {u5:.0}→{u20:.0} ms; star: {s5:.0}→{s20:.0} ms"),
            passed: u20 > u5 * 1.5 && s20 < s5 * 1.4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex() -> ParallelExecutor {
        ParallelExecutor::new()
    }

    /// Sweep `name` run `runs` times from `seed`.
    fn table(name: &str, seed: u64, runs: usize) -> Table {
        Sweep::named(name).expect("a sweep").run(ex(), seed, runs)
    }

    /// Column `name` of `t` as numbers.
    fn reals(t: &Table, name: &str) -> Vec<f64> {
        t.column(name).into_iter().map(Cell::real).collect()
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let sum: f64 = reals(&table("fig9", 1, 10), "share").iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn waiting_share_ordering_matches_paper() {
        // §9: waiting dominates in the unconnected topology; the star
        // topology reduces it significantly; linear sits between.
        let wait = |name| {
            let t = table(name, 7, 30);
            let row = t.column("phase").iter().position(|c| c.label() == "await responses");
            reals(&t, "share")[row.unwrap()]
        };
        let unconnected = wait("fig2");
        let star = wait("fig9");
        let linear = wait("fig11");
        assert!(
            unconnected > star,
            "unconnected wait share {unconnected:.2} must exceed star {star:.2}"
        );
        assert!(linear > star, "linear wait share {linear:.2} must exceed star {star:.2}");
        assert!(unconnected > 0.4, "waiting must dominate unconnected, got {unconnected:.2}");
    }

    #[test]
    fn cardiff_clients_take_longest() {
        // The transatlantic client must be the slowest of all five sites
        // (Figures 3-7's robust ordering); intra-US differences are
        // within noise because the BDN's O(N) distribution cost is
        // client-independent.
        let mean_ms = |name| reals(&table(name, 11, 20), "mean_ms")[0];
        let cardiff = mean_ms("fig4");
        for (name, site, label) in SITE_FIGURES {
            if site == CARDIFF {
                continue;
            }
            let mean = mean_ms(name);
            assert!(
                cardiff > mean,
                "{name} {label}: cardiff {cardiff:.1} must exceed {mean:.1}"
            );
        }
    }

    #[test]
    fn multicast_discovery_is_fast_and_local() {
        let t = table("fig12", 13, 20);
        let (mean, min) = (reals(&t, "mean_ms")[0], reals(&t, "min")[0]);
        // Only lab brokers answer: LAN RTTs, no BDN hop — a few ms.
        assert!(mean < 100.0, "multicast mean {mean} ms");
        assert!(min >= 0.0);
    }

    #[test]
    fn security_figures_are_positive_and_small() {
        let cert = figure_cert_validation(1, 50);
        assert!(cert.mean > 0.0);
        assert!(cert.mean < 50.0, "cert validation {} ms", cert.mean);
        let env = figure_sign_encrypt(1, 50);
        assert!(env.mean > 0.0);
        assert!(env.mean < 100.0, "sign+encrypt {} ms", env.mean);
    }

    #[test]
    fn timeout_ablation_monotone_total() {
        let total = reals(&table("ablation-timeout", 3, 5), "total_ms");
        assert_eq!(total.len(), 5);
        assert!(total.last().unwrap() > total.first().unwrap());
    }

    #[test]
    fn loss_ablation_degrades_gracefully() {
        let t = table("ablation-loss", 9, 12);
        let (factor, success, responses) =
            (reals(&t, "loss_factor"), reals(&t, "success_rate"), reals(&t, "responses"));
        assert_eq!(factor.len(), 5);
        assert_eq!(factor[0], 0.0);
        assert!((success[0] - 1.0).abs() < 1e-9, "lossless runs always succeed");
        assert!(
            responses[4] <= responses[0],
            "response count must not grow with loss ({} vs {})",
            responses[4],
            responses[0]
        );
    }

    #[test]
    fn clock_ablation_accuracy_degrades_with_residual() {
        // At the sweep's own run count (its cap of 40): a rate over 12
        // runs moves by 1/12 a run, too coarse for the bars below.
        let rates = reals(&table("ablation-clock", 9, PAPER_RUNS), "nearest_rate");
        assert_eq!(rates.len(), 4);
        let perfect = rates[0];
        let broken = rates[3];
        assert!(
            perfect >= broken,
            "perfect clocks ({perfect}) must pick the nearest at least as often as broken \
             clocks ({broken})"
        );
        // Even perfect clocks see broker service-time jitter in the
        // estimate, so the bar is "clearly better", not "always right".
        assert!(perfect >= 0.5, "perfect clocks mostly pick the nearest, got {perfect}");
        assert!(
            perfect - broken >= 0.2,
            "±0.5-2s residuals must visibly corrupt proximity selection \
             (perfect {perfect} vs broken {broken})"
        );
    }

    #[test]
    fn topology_ablation_covers_all_kinds() {
        let t = table("ablation-topology", 4, 6);
        let (kinds, total, diameter) = (t.column("topology"), reals(&t, "total_ms"), t.column("diameter"));
        assert_eq!(kinds.len(), TopologyKind::ALL.len());
        let get = |k: &str| kinds.iter().position(|c| c.label() == k).unwrap();
        let (unconnected, star) = (get("unconnected"), get("star"));
        assert!(total[unconnected] > total[star], "overlay dissemination beats O(N) distribution");
        assert_eq!(*diameter[star], Cell::Int(2));
        assert_eq!(*diameter[unconnected], Cell::Empty, "no overlay, no diameter");
        // Denser overlays (smaller diameter) disseminate no slower than
        // the chain.
        let (linear, ring) = (get("linear"), get("ring"));
        assert_eq!(*diameter[linear], Cell::Int(9));
        assert!(total[ring] <= total[linear] * 1.1, "ring halves the worst-case hop count");
    }

    #[test]
    fn weight_ablation_produces_winners() {
        let t = table("ablation-weights", 5, 10);
        let (presets, wins) = (t.column("preset"), reals(&t, "wins"));
        let mut names: Vec<&str> = presets.iter().map(|c| c.label()).collect();
        names.dedup();
        assert_eq!(names.len(), 3);
        for preset in names {
            let rows = presets.iter().zip(&wins).filter(|(p, _)| p.label() == preset);
            let total: f64 = rows.map(|(_, n)| n).sum();
            assert_eq!(total, 10.0, "{preset}: every run must have a winner");
        }
    }
}
