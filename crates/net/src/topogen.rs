//! Seeded WAN topology generators for the scale suite.
//!
//! The paper evaluates discovery on a five-site testbed; ROADMAP item 1
//! pushes *population*. These generators produce broker-overlay
//! topologies at 1e2–1e3 brokers that stress the same structural
//! regimes the paper's figures probe, as pure functions of
//! `(kind, brokers, regions, seed)`:
//!
//! * [`TopologyKind::Star`] / [`TopologyKind::Linear`] — the paper's
//!   connected topologies as degenerate cases (one hub; a chain),
//! * [`TopologyKind::RandomGeometric`] — brokers at seeded fixed-point
//!   grid coordinates, linked when within a radius chosen for ~6
//!   expected neighbours; disconnected components are stitched
//!   deterministically so discovery floods always have a path,
//! * [`TopologyKind::HierarchicalIsp`] — contiguous regions, one
//!   gateway each, a chorded backbone ring between gateways, and
//!   region-local broker meshes — the "ISP-like" shape where most links
//!   are short and a few are long.
//!
//! Everything is integer arithmetic (fixed-point coordinates, µs
//! latencies) drawn from a `StdRng` seeded by the spec, so a topology
//! is byte-identical across hosts and across worker counts — the
//! property the scale campaign's digest gate depends on. Generators
//! emit an explicit *edge list* (installed via
//! [`NetworkModel::set_link`], never all-pairs), which is what keeps
//! the sharded engine's lookahead derivation O(E) at 1e5-node
//! populations.

use std::time::Duration;

use nb_util::{fnv1a64_word, FNV_OFFSET};
use nb_wire::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::link::{LinkSpec, NetworkModel};

/// The generator family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Every broker links to broker 0 (the paper's star).
    Star,
    /// A chain `0 - 1 - … - n-1` (the paper's linear topology).
    Linear,
    /// Random geometric graph on a fixed-point grid.
    RandomGeometric,
    /// Regions with gateways on a chorded backbone ring.
    HierarchicalIsp,
}

impl TopologyKind {
    fn tag(self) -> u64 {
        match self {
            TopologyKind::Star => 1,
            TopologyKind::Linear => 2,
            TopologyKind::RandomGeometric => 3,
            TopologyKind::HierarchicalIsp => 4,
        }
    }

    /// Stable lowercase name (JSON reports, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Star => "star",
            TopologyKind::Linear => "linear",
            TopologyKind::RandomGeometric => "random-geometric",
            TopologyKind::HierarchicalIsp => "hierarchical-isp",
        }
    }
}

/// What to generate. `generate` is a pure function of this value.
#[derive(Debug, Clone, Copy)]
pub struct TopologySpec {
    /// Generator family.
    pub kind: TopologyKind,
    /// Broker count (graph vertices).
    pub brokers: usize,
    /// Region count (realms); clamped to `1..=brokers`. Star and linear
    /// collapse to one region.
    pub regions: usize,
    /// RNG root seed for coordinates, chords and latency draws.
    pub seed: u64,
}

impl TopologySpec {
    /// A spec with `regions` defaulted to ~one per 50 brokers.
    pub fn new(kind: TopologyKind, brokers: usize, seed: u64) -> TopologySpec {
        TopologySpec { kind, brokers, regions: brokers.div_ceil(50), seed }
    }

    /// Generates the topology (deterministic; same spec, same graph).
    pub fn generate(&self) -> WanTopology {
        let n = self.brokers.max(1);
        let regions = match self.kind {
            TopologyKind::Star | TopologyKind::Linear => 1,
            _ => self.regions.clamp(1, n),
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ self.kind.tag().rotate_left(32));
        // Contiguous region blocks: broker i -> region i·R/n. Nothing
        // schedules by it any more (the shard planner it was ordered
        // for is gone); it stays because every topology digest pins it.
        let region_of: Vec<usize> = (0..n).map(|i| i * regions / n).collect();
        let mut edges: Vec<(usize, usize, Duration)> = Vec::new();
        match self.kind {
            TopologyKind::Star => {
                for i in 1..n {
                    edges.push((0, i, us(rng.gen_range(10_000..=50_000))));
                }
            }
            TopologyKind::Linear => {
                for i in 1..n {
                    edges.push((i - 1, i, us(rng.gen_range(10_000..=50_000))));
                }
            }
            TopologyKind::RandomGeometric => {
                generate_geometric(n, &region_of, &mut rng, &mut edges);
            }
            TopologyKind::HierarchicalIsp => {
                generate_isp(n, regions, &region_of, &mut rng, &mut edges);
            }
        }
        stitch_components(n, &mut edges);
        WanTopology { kind: self.kind, regions, region_of, edges }
    }
}

fn us(v: u64) -> Duration {
    Duration::from_micros(v)
}

const GRID: i64 = 1 << 16;

fn generate_geometric(
    n: usize,
    region_of: &[usize],
    rng: &mut StdRng,
    edges: &mut Vec<(usize, usize, Duration)>,
) {
    // Fixed-point coordinates on a GRID×GRID plane; radius² chosen for
    // ~6 expected neighbours (n·π·r²/A² ≈ 6 at r² = 2A²/n).
    let coords: Vec<(i64, i64)> =
        (0..n).map(|_| (rng.gen_range(0..GRID), rng.gen_range(0..GRID))).collect();
    let r2: i64 = (GRID * GRID / n.max(1) as i64) * 2;
    for i in 0..n {
        for j in (i + 1)..n {
            let (dx, dy) = (coords[i].0 - coords[j].0, coords[i].1 - coords[j].1);
            let d2 = dx * dx + dy * dy;
            if d2 > r2 {
                continue;
            }
            // Latency ∝ distance: the full grid diagonal maps to ~60 ms
            // one-way, floor 200 µs.
            let dist = (d2 as u64).isqrt();
            let lat = 200 + dist * 60_000 / (GRID as u64 * 3 / 2);
            edges.push((i, j, us(lat)));
        }
    }
    // Same-region neighbours tend to be near each other already; the
    // region assignment is positional only (realms drive defaults, not
    // generated edges), so nothing more to do here.
    let _ = region_of;
}

fn generate_isp(
    n: usize,
    regions: usize,
    region_of: &[usize],
    rng: &mut StdRng,
    edges: &mut Vec<(usize, usize, Duration)>,
) {
    // Gateway of region r: its first (lowest-index) broker.
    let mut gateway = vec![usize::MAX; regions];
    for (i, &r) in region_of.iter().enumerate().take(n) {
        if gateway[r] == usize::MAX {
            gateway[r] = i;
        }
    }
    // Backbone: ring over gateways plus ~R/2 random chords, 20–80 ms.
    for r in 0..regions {
        let next = (r + 1) % regions;
        if regions > 1 && gateway[r] != gateway[next] && (r < next || regions > 2) {
            edges.push((
                gateway[r].min(gateway[next]),
                gateway[r].max(gateway[next]),
                us(rng.gen_range(20_000..=80_000)),
            ));
        }
    }
    for _ in 0..regions / 2 {
        let a = rng.gen_range(0..regions);
        let b = rng.gen_range(0..regions);
        if gateway[a] != gateway[b] {
            edges.push((
                gateway[a].min(gateway[b]),
                gateway[a].max(gateway[b]),
                us(rng.gen_range(20_000..=80_000)),
            ));
        }
    }
    // Access tier: every non-gateway broker to its gateway (1–5 ms),
    // plus one chord to a seeded same-region peer for local meshiness.
    for i in 0..n {
        let gw = gateway[region_of[i]];
        if i == gw {
            continue;
        }
        edges.push((gw.min(i), gw.max(i), us(rng.gen_range(1_000..=5_000))));
        let peer = rng.gen_range(0..n);
        if peer != i && region_of[peer] == region_of[i] {
            edges.push((peer.min(i), peer.max(i), us(rng.gen_range(1_000..=5_000))));
        }
    }
}

/// Union-find root of `x`, halving the path on the way.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Joins the components of `a` and `b` under the lower root; false when
/// they were already one.
fn union(parent: &mut [usize], a: usize, b: usize) -> bool {
    let (ra, rb) = (find(parent, a), find(parent, b));
    parent[ra.max(rb)] = ra.min(rb);
    ra != rb
}

/// Connects a possibly-fragmented edge set: union-find the components,
/// then chain their (sorted) lowest-id members with long-haul links.
/// Deterministic — component representatives are minima, the chain walks
/// them in ascending order.
fn stitch_components(n: usize, edges: &mut Vec<(usize, usize, Duration)>) {
    let mut parent: Vec<usize> = (0..n).collect();
    for &(a, b, _) in edges.iter() {
        union(&mut parent, a, b);
    }
    let mut roots: Vec<usize> = Vec::new();
    for v in 0..n {
        if find(&mut parent, v) == v {
            roots.push(v);
        }
    }
    for pair in roots.windows(2) {
        edges.push((pair[0], pair[1], us(40_000)));
    }
}

/// A generated broker overlay: region (realm) assignment plus an
/// explicit inter-broker edge list.
#[derive(Debug, Clone)]
pub struct WanTopology {
    /// Which generator produced this.
    pub kind: TopologyKind,
    /// Number of regions (realms).
    pub regions: usize,
    /// `region_of[broker_index] = region`.
    pub region_of: Vec<usize>,
    /// `(low_index, high_index, one_way_latency)` links.
    pub edges: Vec<(usize, usize, Duration)>,
}

impl WanTopology {
    /// Broker count.
    pub fn brokers(&self) -> usize {
        self.region_of.len()
    }

    /// Number of connected components over the generated edges (1 means
    /// every discovery flood has a path).
    pub fn components(&self) -> usize {
        let n = self.brokers();
        let mut parent: Vec<usize> = (0..n).collect();
        n - self.edges.iter().filter(|&&(a, b, _)| union(&mut parent, a, b)).count()
    }

    /// The broker overlay's dial lists, sorted and deduplicated:
    /// `dials[i]` holds the brokers broker `i` dials. Only intra-region
    /// edges join the overlay — discovery floods are region-scoped (one
    /// BDN a region), so a flood costs O(region), not O(topology) — and
    /// for each the higher index dials the lower, which already exists
    /// when it boots. A region whose intra-region subgraph is split
    /// (possible for the geometric family) gets consecutive same-region
    /// brokers chained until its overlay is one component. Cross-region
    /// edges stay network links only ([`WanTopology::install`]).
    pub fn overlay_dials(&self) -> Vec<Vec<usize>> {
        let n = self.brokers();
        let mut dials: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut parent: Vec<usize> = (0..n).collect();
        for &(a, b, _) in &self.edges {
            if self.region_of[a] == self.region_of[b] {
                dials[a.max(b)].push(a.min(b));
                union(&mut parent, a, b);
            }
        }
        let mut prev_in_region: Vec<Option<usize>> = vec![None; self.regions];
        for (i, &r) in self.region_of.iter().enumerate() {
            if let Some(p) = prev_in_region[r] {
                if union(&mut parent, p, i) {
                    dials[i].push(p);
                }
            }
            prev_in_region[r] = Some(i);
        }
        for list in &mut dials {
            list.sort_unstable();
            list.dedup();
        }
        dials
    }

    /// Installs the edge list as explicit loss-free link overrides,
    /// mapping broker index `i` to `ids[i]`. O(E) — never all pairs.
    pub fn install(&self, net: &mut NetworkModel, ids: &[NodeId]) {
        for &(a, b, lat) in &self.edges {
            net.set_link(ids[a], ids[b], LinkSpec::wan(lat).with_loss(0.0));
        }
    }

    /// FNV-1a-64 over the region assignment and edge list — the
    /// identity the generator proptests pin across reruns.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut mix = |x: u64| h = fnv1a64_word(h, x);
        mix(self.kind.tag());
        mix(self.regions as u64);
        for &r in &self.region_of {
            mix(r as u64);
        }
        for &(a, b, lat) in &self.edges {
            mix(a as u64);
            mix(b as u64);
            mix(lat.as_micros() as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_and_linear_are_degenerate_and_connected() {
        for kind in [TopologyKind::Star, TopologyKind::Linear] {
            let t = TopologySpec::new(kind, 12, 7).generate();
            assert_eq!(t.brokers(), 12);
            assert_eq!(t.regions, 1);
            assert_eq!(t.edges.len(), 11);
            assert_eq!(t.components(), 1);
        }
    }

    #[test]
    fn generators_are_pure_functions_of_the_spec() {
        for kind in [TopologyKind::RandomGeometric, TopologyKind::HierarchicalIsp] {
            let a = TopologySpec::new(kind, 120, 42).generate();
            let b = TopologySpec::new(kind, 120, 42).generate();
            let c = TopologySpec::new(kind, 120, 43).generate();
            assert_eq!(a.digest(), b.digest(), "{} not deterministic", kind.name());
            assert_ne!(a.digest(), c.digest(), "{} ignores its seed", kind.name());
        }
    }

    #[test]
    fn install_registers_only_explicit_edges() {
        let t = TopologySpec::new(TopologyKind::HierarchicalIsp, 60, 9).generate();
        let mut net = NetworkModel::new();
        let ids: Vec<NodeId> = (0..60).map(|i| NodeId(i as u32)).collect();
        t.install(&mut net, &ids);
        // No node has a realm, so only an installed edge has a spec.
        let pairs = (0..60).flat_map(|i| (i + 1..60).map(move |j| (i, j)));
        let installed = pairs.filter(|&(i, j)| net.spec_between(ids[i], ids[j]).is_some());
        assert_eq!(installed.count(), {
            // set_link normalises pairs, so duplicates collapse.
            let mut keys: Vec<(usize, usize)> =
                t.edges.iter().map(|&(a, b, _)| (a, b)).collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        });
    }
}
