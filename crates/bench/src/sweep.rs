//! One runner for every discovery table. A [`Sweep`] is a base
//! deployment, the points that vary it and the columns read off each
//! point's outcomes; [`Sweep::run`] runs every point and returns the
//! [`Table`] that `repro` prints and `repro gate figs` pins. Adding a
//! point to a sweep is one line of [`sweeps`].

use std::time::Duration;

use nb_broker::{Topology, TopologyKind};
use nb_discovery::scenario::ScenarioBuilder;
use nb_discovery::{DiscoveryOutcome, PhaseTimes, SelectionWeights};
use nb_net::wan::{SiteIdx, WanModel, BLOOMINGTON, CARDIFF, FSU, INDIANAPOLIS, NCSA, UMN};
use nb_net::ClockProfile;
use nb_util::stats::{paper_protocol, paper_protocol_indices, Summary};
use nb_wire::NodeId;

use crate::{discoveries, Cell, Table, PAPER_KEEP};

/// One setting of a sweep: its label and what it changes in the base.
type Point = (&'static str, fn(&mut ScenarioBuilder));

/// One column: its CSV name, the decimals its reals get in text, and
/// its cells for one point, one per row the point yields; a column that
/// yields one cell fills every row of its point.
type Column = (&'static str, usize, fn(&Runs) -> Vec<Cell>);

/// What a column reads: one point's label, its builder (the base with
/// the point applied) and its discoveries in run order.
struct Runs<'a> {
    label: &'static str,
    builder: &'a ScenarioBuilder,
    outcomes: &'a [DiscoveryOutcome],
}

/// A discovery table as an experiment.
pub struct Sweep {
    /// The `repro` command and CSV file name.
    pub name: &'static str,
    /// What the table shows, ending in a parenthetical that
    /// [`Sweep::run`] extends with the runs and the seed.
    title: String,
    /// The deployment every point starts from.
    base: ScenarioBuilder,
    /// The most runs a point takes, whatever `--runs` asks.
    cap: usize,
    /// The settings, one or more rows each, in row order.
    points: &'static [Point],
    /// The columns, in order.
    columns: &'static [Column],
    /// How a point's `runs` discoveries are made from its builder:
    /// [`discoveries`], one deployment a run, in every sweep but
    /// `ablation-topology`.
    discover: fn(&ScenarioBuilder, u64, usize) -> Vec<DiscoveryOutcome>,
}

impl Sweep {
    /// The sweep `repro` runs as command `name`.
    pub fn named(name: &str) -> Option<Sweep> {
        sweeps().into_iter().find(|s| s.name == name)
    }

    /// Runs every point `runs` times (at most the sweep's cap), seeded
    /// from `seed`, in order, and reads the columns off the outcomes.
    pub fn run(&self, seed: u64, runs: usize) -> Table {
        let runs = runs.min(self.cap);
        let mut rows = Vec::new();
        for &(label, set) in self.points {
            let mut builder = self.base.clone();
            set(&mut builder);
            let outcomes = (self.discover)(&builder, seed, runs);
            let r = Runs { label, builder: &builder, outcomes: &outcomes };
            let cells: Vec<Vec<Cell>> = self.columns.iter().map(|c| (c.2)(&r)).collect();
            let n = cells.iter().map(Vec::len).find(|&n| n != 1).unwrap_or(1);
            assert!(cells.iter().all(|c| c.len() == 1 || c.len() == n), "{}: column lengths", self.name);
            rows.extend((0..n).map(|i| cells.iter().map(|c| c[i.min(c.len() - 1)].clone()).collect()));
        }
        let title = format!("{}, {runs} runs, seed {seed})", self.title.trim_end_matches(')'));
        let columns: Vec<_> = self.columns.iter().map(|&(name, decimals, _)| (name, decimals)).collect();
        Table::new(title, &columns, rows)
    }
}

/// A sweep whose every run builds its own deployment ([`discoveries`]).
fn sweep(name: &'static str, title: impl Into<String>, base: ScenarioBuilder, cap: usize,
         points: &'static [Point], columns: &'static [Column]) -> Sweep {
    Sweep { name, title: title.into(), base, cap, points, columns, discover: discoveries }
}

/// The client sites of Figures 3–7: command, site and label.
pub(crate) const SITE_FIGURES: [(&str, SiteIdx, &str); 5] = [
    ("fig3", FSU, "FSU, FL"),
    ("fig4", CARDIFF, "Cardiff, UK"),
    ("fig5", UMN, "UMN, MN"),
    ("fig6", NCSA, "NCSA, UIUC, IL"),
    ("fig7", BLOOMINGTON, "Bloomington, IN"),
];

/// Every discovery table `repro` prints: the figures, then the ablations.
pub fn sweeps() -> Vec<Sweep> {
    use TopologyKind::{Linear, Ring, Star, Tree, Unconnected};
    const ONCE: &[Point] = &[("", |_| {})];
    const PHASES: fn(&Runs) -> Vec<Cell> = |_| PhaseTimes::default().phases().map(|(label, _)| label.into()).into();
    let at = |kind| ScenarioBuilder::new(kind, BLOOMINGTON, 0);
    let breakdown = |name: &'static str, kind: TopologyKind| {
        let title = format!("Figure {}: share of time per discovery sub-activity, {} topology \
                             (client in Bloomington)", &name[3..], kind.label());
        let columns: &[Column] = &[("phase", 0, PHASES), ("share", 3, shares)];
        sweep(name, title, at(kind), usize::MAX, ONCE, columns)
    };
    let mut sweeps = vec![breakdown("fig2", Unconnected)];
    sweeps.extend(SITE_FIGURES.map(|(name, site, label)| {
        let title = format!("Figure {}: discovery time, client in {label} (unconnected topology)", &name[3..]);
        sweep(name, title, ScenarioBuilder::new(Unconnected, site, 0), usize::MAX, ONCE, &SUMMARY)
    }));
    let mut window_bound = at(Star);
    window_bound.discovery.max_responses = 100;
    let mut bounded_loss = at(Unconnected);
    // Bound the windows so heavy loss doesn't stall the sweep.
    bounded_loss.discovery.collection_window = Duration::from_millis(1500);
    bounded_loss.discovery.ping_window = Duration::from_millis(500);
    bounded_loss.discovery.ack_timeout = Duration::from_millis(400);
    bounded_loss.discovery.retransmits_per_bdn = 3;
    // Selection by the timestamp estimate alone: proximity only, and a
    // target set of one, so no ping re-measures the RTTs (§6).
    let mut estimate_only = at(Star);
    estimate_only.discovery.weights = SelectionWeights::proximity_only();
    estimate_only.discovery.target_set_size = 1;
    let mut ten_brokers = at(Star);
    on_every_site(&mut ten_brokers, Star, 10);
    sweeps.extend([
        breakdown("fig9", Star),
        breakdown("fig11", Linear),
        sweep("fig12", "Figure 12: broker discovery using ONLY multicast (2 lab brokers reachable)",
              ScenarioBuilder::multicast(0, 2), usize::MAX, ONCE, &SUMMARY),
        sweep("ablation-timeout", "Ablation: collection-timeout sweep (star topology)", window_bound, 30, &[
            ("250 ms", |b| b.discovery.collection_window = Duration::from_millis(250)),
            ("500 ms", |b| b.discovery.collection_window = Duration::from_millis(500)),
            ("1 s", |b| b.discovery.collection_window = Duration::from_millis(1000)),
            ("2 s", |b| b.discovery.collection_window = Duration::from_millis(2000)),
            ("4 s", |b| b.discovery.collection_window = Duration::from_millis(4000)),
        ], &[("timeout_ms", 0, |r| one(r.builder.discovery.collection_window.as_millis() as u64)), TOTAL_MS, RESPONSES]),
        sweep("ablation-maxresp", "Ablation: max-responses cap sweep (star topology)", at(Star), 30, &[
            ("1", |b| b.discovery.max_responses = 1),
            ("2", |b| b.discovery.max_responses = 2),
            ("3", |b| b.discovery.max_responses = 3),
            ("5", |b| b.discovery.max_responses = 5),
            ("100", |b| b.discovery.max_responses = 100),
        ], &[("cap", 0, |r| one(r.builder.discovery.max_responses)), TOTAL_MS, RESPONSES]),
        sweep("ablation-weights", "Ablation: selection-weight presets (winning site, star topology)", at(Star), 30, &[
            ("default", |b| b.discovery.weights = SelectionWeights::default()),
            ("proximity-only", |b| b.discovery.weights = SelectionWeights::proximity_only()),
            ("load-only", |b| b.discovery.weights = SelectionWeights::load_only()),
        ], &[
            ("preset", 0, |r| one(r.label)),
            ("site", 0, |r| wins(r).into_iter().map(|(site, _)| site.into()).collect()),
            ("wins", 0, |r| wins(r).into_iter().map(|(_, n)| n.into()).collect()),
        ]),
        sweep("ablation-scale", "Ablation: broker-count scaling (5-20 brokers)", at(Star), 20, &[
            ("5 unconnected", |b| on_every_site(b, Unconnected, 5)),
            ("5 star", |b| on_every_site(b, Star, 5)),
            ("5 linear", |b| on_every_site(b, Linear, 5)),
            ("10 unconnected", |b| on_every_site(b, Unconnected, 10)),
            ("10 star", |b| on_every_site(b, Star, 10)),
            ("10 linear", |b| on_every_site(b, Linear, 10)),
            ("20 unconnected", |b| on_every_site(b, Unconnected, 20)),
            ("20 star", |b| on_every_site(b, Star, 20)),
            ("20 linear", |b| on_every_site(b, Linear, 20)),
        ], &[("brokers", 0, |r| one(r.builder.broker_sites.len())), TOPOLOGY, TOTAL_MS]),
        sweep("ablation-loss", "Ablation: UDP loss sensitivity (unconnected topology)", bounded_loss, 30, &[
            ("lossless", |b| b.loss_factor = 0.0),
            ("paper", |b| b.loss_factor = 1.0),
            ("10x", |b| b.loss_factor = 10.0),
            ("50x", |b| b.loss_factor = 50.0),
            ("200x", |b| b.loss_factor = 200.0),
        ], &[
            ("loss_factor", 1, |r| one(r.builder.loss_factor)),
            ("success_rate", 3, |r| one(rate(r, |o| o.chosen.is_some()))),
            RESPONSES,
            ("total_ms", 1, |r| one(mean_total_ms(r.outcomes.iter().filter(|o| o.chosen.is_some())))),
        ]),
        sweep("ablation-clock", "Ablation: NTP residual sensitivity (proximity-only selection, \
                                  target set of 1 — no ping disambiguation)", estimate_only, 40, &[
            ("perfect", |b| b.clock = ClockProfile::perfect()),
            ("paper 1-20ms", |b| b.clock = ClockProfile::paper()),
            ("loose 50-200ms", |b| b.clock = residuals(50, 200)),
            ("broken 0.5-2s", |b| b.clock = residuals(500, 2000)),
        ], &[
            ("residual", 0, |r| one(r.label)),
            ("nearest_rate", 3, |r| one(rate(r, |o| o.chosen.is_some_and(|b| r.builder.site_of_broker(b) == Some(INDIANAPOLIS))))),
            ("extra_distance_ms", 1, |r| one(mean(r.outcomes.iter().filter_map(|o| o.chosen).map(|b| extra_ms(r, b))))),
        ]),
        Sweep {
            // Back-to-back discoveries on one deployment per point.
            discover: |builder, seed, runs| ScenarioBuilder { seed, ..builder.clone() }.build().run_discovery(runs),
            ..sweep("ablation-topology", "Ablation: overlay shapes (10 brokers)", ten_brokers, 20, &[
                ("unconnected", |b| b.kind = Unconnected),
                ("star", |b| b.kind = Star),
                ("linear", |b| b.kind = Linear),
                ("ring", |b| b.kind = Ring),
                ("tree", |b| b.kind = Tree),
            ], &[TOPOLOGY, TOTAL_MS, WAIT_SHARE, DIAMETER])
        },
    ]);
    sweeps
}

/// `n` brokers cycling over the five broker sites in a `kind` overlay,
/// every one of them counted in the responses awaited.
fn on_every_site(b: &mut ScenarioBuilder, kind: TopologyKind, n: usize) {
    b.kind = kind;
    b.broker_sites = (0..n).map(|i| 1 + i % 5).collect();
    b.discovery.max_responses = n;
}

/// The paper's clock model with NTP residuals of `min_ms`–`max_ms`.
fn residuals(min_ms: u64, max_ms: u64) -> ClockProfile {
    let (min_residual, max_residual) = (Duration::from_millis(min_ms), Duration::from_millis(max_ms));
    ClockProfile { min_residual, max_residual, ..ClockProfile::paper() }
}

fn one(cell: impl Into<Cell>) -> Vec<Cell> {
    vec![cell.into()]
}

const TOPOLOGY: Column = ("topology", 0, |r| one(r.builder.kind.label()));
const DIAMETER: Column =
    ("diameter", 0, |r| one(Topology::build(r.builder.kind, r.builder.broker_sites.len()).diameter()));
/// The share of every run's time spent awaiting responses.
const WAIT_SHARE: Column = ("wait_share", 3, |r| one(phase_shares(r.outcomes.iter())[1]));
const TOTAL_MS: Column = ("total_ms", 1, |r| one(mean_total_ms(r.outcomes)));
const RESPONSES: Column =
    ("responses", 2, |r| one(mean(r.outcomes.iter().map(|o| o.responses_received as f64))));

/// The paper's five metrics of the successful runs' total time (Figures
/// 3–7 and 12), after outlier trimming.
const SUMMARY: [Column; 6] = [
    ("n", 0, |r| one(summary(r).n)),
    ("mean_ms", 3, |r| one(summary(r).mean)),
    ("std_dev", 3, |r| one(summary(r).std_dev)),
    ("max", 3, |r| one(summary(r).max)),
    ("min", 3, |r| one(summary(r).min)),
    ("error", 3, |r| one(summary(r).error)),
];

fn summary(r: &Runs) -> Summary {
    assert!(
        !r.builder.without_bdn || r.outcomes.iter().all(|o| o.used_multicast),
        "a deployment without a BDN must exercise the multicast path"
    );
    let ok = r.outcomes.iter().filter(|o| o.chosen.is_some());
    let totals_ms: Vec<f64> = ok.map(|o| o.phases.total().as_secs_f64() * 1e3).collect();
    Summary::of(&paper_protocol(&totals_ms, PAPER_KEEP)).expect("non-empty sample")
}

/// Each phase's share of the total discovery time of the runs the paper
/// protocol keeps (Figures 2, 9, 11).
fn shares(r: &Runs) -> Vec<Cell> {
    let totals: Vec<f64> = r.outcomes.iter().map(|o| o.phases.total().as_secs_f64() * 1e3).collect();
    let kept = paper_protocol_indices(&totals, PAPER_KEEP).into_iter().map(|i| &r.outcomes[i]);
    phase_shares(kept).map(Cell::from).into()
}

/// Each phase's share of the summed total time of `outcomes`, in
/// [`PhaseTimes::phases`] order; 0 when no time passed.
fn phase_shares<'a>(outcomes: impl Iterator<Item = &'a DiscoveryOutcome>) -> [f64; 5] {
    let (mut sums, mut total) = ([0.0f64; 5], 0.0f64);
    for p in outcomes.map(|o| &o.phases) {
        for (sum, (_, d)) in sums.iter_mut().zip(p.phases()) {
            *sum += d.as_secs_f64();
        }
        total += p.total().as_secs_f64();
    }
    sums.map(|sum| if total > 0.0 { sum / total } else { 0.0 })
}

/// How often each site's broker won, most wins first.
fn wins(r: &Runs) -> Vec<(String, usize)> {
    let wan = WanModel::paper();
    let mut wins: Vec<(String, usize)> = Vec::new();
    for chosen in r.outcomes.iter().filter_map(|o| o.chosen) {
        let label = wan.site(r.builder.site_of_broker(chosen).expect("broker site")).name.to_string();
        match wins.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => wins.push((label, 1)),
        }
    }
    wins.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    wins
}

/// How much farther, one way, the chosen broker is from the client than
/// the true nearest, Indianapolis; both are exact in the model.
fn extra_ms(r: &Runs, chosen: NodeId) -> f64 {
    let one_way = |s| WanModel::paper().one_way(BLOOMINGTON, s).as_secs_f64() * 1e3;
    one_way(r.builder.site_of_broker(chosen).expect("broker site")) - one_way(INDIANAPOLIS)
}

/// The share of all runs for which `hit` holds.
fn rate(r: &Runs, hit: impl Fn(&DiscoveryOutcome) -> bool) -> f64 {
    r.outcomes.iter().filter(|o| hit(o)).count() as f64 / r.outcomes.len() as f64
}

/// The mean total discovery time, in ms.
fn mean_total_ms<'a>(outcomes: impl IntoIterator<Item = &'a DiscoveryOutcome>) -> f64 {
    mean(outcomes.into_iter().map(|o| o.phases.total().as_secs_f64() * 1e3))
}

/// The mean, summed in order; `NaN` for no values.
fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_cell_fills_every_row_of_its_point_and_the_title_gets_runs_and_seed() {
        let sweep = Sweep {
            discover: |_, _, _| Vec::new(),
            ..sweep("rows", "Rows (star topology)", ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 0), 2, &[
                ("two", |_| {}),
                ("none", |_| {}),
            ], &[
                ("point", 0, |r| one(r.label)),
                ("row", 0, |r| if r.label == "two" { vec![1u64.into(), 2u64.into()] } else { Vec::new() }),
            ])
        };
        let table = sweep.run(7, 5);
        assert_eq!(table.to_csv(), "point,row\ntwo,1\ntwo,2\n");
        assert!(table.to_string().starts_with("=== Rows (star topology, 2 runs, seed 7) ===\n"));
    }
}
