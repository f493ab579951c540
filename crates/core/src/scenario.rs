//! Scenario builders: the paper's §9 testbed in the simulator.
//!
//! Five brokers on the Table-1 WAN sites, one BDN (the
//! `gridservicelocator` role, hosted at Indianapolis), and a discovery
//! client at a configurable site (usually the Bloomington lab). The
//! overlay follows one of the paper's topologies:
//!
//! * **unconnected** (Figure 1): every broker registers with and is
//!   attached to the BDN; no overlay links — the BDN distributes
//!   requests O(N),
//! * **star** (Figure 8): brokers link to a hub; the BDN injects at the
//!   hub and the network disseminates,
//! * **linear** (Figure 10): a chain; only the first broker is
//!   registered with the BDN.
//!
//! [`ScenarioBuilder::multicast`] builds the Figure-12 configuration:
//! no BDN configured, so the client discovers by multicast, with only
//! some brokers inside the client's realm.
#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    reason = "a test harness that builds fixed deployments, not a receive path: \
              a misbuilt scenario should stop the run that built it"
)]

use std::ops::Range;
use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile, Topology, TopologyKind};
use nb_wire::NodeId;

use nb_net::wan::{SiteIdx, WanModel, BLOOMINGTON, CARDIFF, FSU, INDIANAPOLIS, NCSA, UMN};
use nb_net::{ClockProfile, DiscoveryEngine, Sim, SimTime};

use crate::bdn::{Bdn, BdnConfig};
use crate::broker_actor::DiscoveryBrokerActor;
use crate::client::{DiscoveryClient, DiscoveryOutcome, TIMER_START};
use crate::config::DiscoveryConfig;
use crate::deployment::{Deployment, Network};
use crate::policy::ResponsePolicy;

/// Configures and builds a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Overlay shape.
    pub kind: TopologyKind,
    /// Where the discovery client sits.
    pub client_site: SiteIdx,
    /// RNG seed (reported by every harness for reproducibility).
    pub seed: u64,
    /// Sites hosting the brokers (defaults to the paper's five).
    pub broker_sites: Vec<SiteIdx>,
    /// Client discovery configuration (`bdns` filled in at build).
    pub discovery: DiscoveryConfig,
    /// BDN configuration (`attached_brokers` filled in at build).
    pub bdn: BdnConfig,
    /// Broker response policy.
    pub policy: ResponsePolicy,
    /// Virtual time to run before the first discovery (NTP settling:
    /// the paper's 3–5 s init plus slack).
    pub warmup: Duration,
    /// Build without any BDN node (multicast-only experiments).
    pub without_bdn: bool,
    /// Clock model for every node (paper: ±2 s offsets, 1–20 ms NTP
    /// residuals, 3–5 s init).
    pub clock: ClockProfile,
    /// Multiplies the loss probability of every link (1.0 = the WAN
    /// model's defaults; 0.0 = lossless).
    pub loss_factor: f64,
}

impl ScenarioBuilder {
    /// The standard five-broker WAN scenario of §9.
    pub fn new(kind: TopologyKind, client_site: SiteIdx, seed: u64) -> ScenarioBuilder {
        ScenarioBuilder {
            kind,
            client_site,
            seed,
            broker_sites: vec![INDIANAPOLIS, UMN, NCSA, FSU, CARDIFF],
            discovery: DiscoveryConfig::default(),
            bdn: BdnConfig::default(),
            policy: ResponsePolicy::open(),
            warmup: Duration::from_secs(6),
            without_bdn: false,
            clock: ClockProfile::paper(),
            loss_factor: 1.0,
        }
    }

    /// The Figure-12 configuration: no BDN, so the client discovers by
    /// multicast from the Bloomington lab, with `n_local` brokers inside
    /// the lab realm and the rest on remote sites (unreachable by
    /// multicast).
    pub fn multicast(seed: u64, n_local: usize) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, seed);
        let remote = [UMN, FSU, CARDIFF, NCSA, INDIANAPOLIS];
        let mut sites = vec![BLOOMINGTON; n_local.min(5)];
        sites.extend(remote.iter().copied().take(5 - sites.len()));
        b.broker_sites = sites;
        // Multicast cannot reach beyond the realm, so the client caps the
        // responses it waits for at the local broker count (the paper's
        // "only the first N responses must be considered" knob); the
        // window timeout still bounds the wait if some are lost.
        b.discovery.max_responses = n_local.clamp(1, 5);
        b.without_bdn = true;
        b
    }

    /// Builds the testbed on the reference serial engine.
    pub fn build(self) -> Scenario {
        let sim = self.describe().build(Sim::with_clock_profile);
        self.scenario(sim)
    }

    /// The node ids every build gives the brokers, in `broker_sites`
    /// order: after the paper's one BDN unless
    /// [`ScenarioBuilder::without_bdn`], before the client.
    pub fn broker_ids(&self) -> Range<usize> {
        let first = usize::from(!self.without_bdn);
        first..first + self.broker_sites.len()
    }

    /// The site of `broker` in every deployment this builder builds:
    /// ids depend on the configuration, not on the seed.
    pub fn site_of_broker(&self, broker: NodeId) -> Option<SiteIdx> {
        let i = (broker.0 as usize).checked_sub(self.broker_ids().start)?;
        self.broker_sites.get(i).copied()
    }

    /// Describes the testbed as a [`Deployment`]: the BDN, then the
    /// brokers in index order, then the client (see
    /// [`ScenarioBuilder::broker_ids`]). Nodes a caller adds come after.
    pub fn describe(&self) -> Deployment {
        let wan = WanModel::paper();
        let ids = self.broker_ids();
        let node_id = |i: usize| NodeId(i as u32);
        let bdn = (ids.start > 0).then_some(node_id(0));
        let brokers: Vec<NodeId> = ids.clone().map(node_id).collect();
        let sites: Vec<SiteIdx> = std::iter::repeat_n(INDIANAPOLIS, ids.start)
            .chain(self.broker_sites.iter().copied())
            .chain([self.client_site])
            .collect();
        let mut d = Deployment {
            seed: self.seed,
            clock: self.clock,
            nodes: Vec::with_capacity(sites.len()),
            network: Network::PaperSites { sites, loss_factor: self.loss_factor },
        };

        // Unconnected: the BDN attaches to every broker; otherwise it
        // injects at the first (the hub, or the head of the chain).
        let unconnected = self.kind == TopologyKind::Unconnected;
        let attached = if unconnected { brokers.clone() } else { brokers[..1].to_vec() };
        if bdn.is_some() {
            let cfg =
                BdnConfig { attached_brokers: attached, auto_attach: false, ..self.bdn.clone() };
            let (name, realm) = ("bdn.gridservicelocator.org".into(), wan.site(INDIANAPOLIS).realm);
            d.add(name, realm, false, move || Box::new(Bdn::new(cfg.clone())));
        }

        let topology = Topology::build(self.kind, self.broker_sites.len());
        let sites_and_dials = self.broker_sites.iter().zip(topology.dial_lists());
        for (i, (&site_idx, dials)) in sites_and_dials.enumerate() {
            let site = wan.site(site_idx);
            let neighbors: Vec<NodeId> = dials.iter().map(|&j| brokers[j]).collect();
            // Figure 10: "only one broker is registered with the BDN".
            let registers = self.kind != TopologyKind::Linear || i == 0;
            let policy = self.policy.clone();
            let (host, memory) = (site.host, site.total_memory);
            d.add(format!("broker-{i}@{}", site.name), site.realm, false, move || {
                let cfg = BrokerConfig {
                    hostname: host.to_string(),
                    logical_address: format!("nb://paper/broker-{i}"),
                    machine: MachineProfile::with_memory(memory),
                    neighbors: neighbors.clone(),
                    ..BrokerConfig::default()
                };
                let bdns = if registers { Vec::from_iter(bdn) } else { Vec::new() };
                Box::new(DiscoveryBrokerActor::new(cfg, bdns, policy.clone()))
            });
        }

        let discovery = DiscoveryConfig { bdns: Vec::from_iter(bdn), ..self.discovery.clone() };
        let site = wan.site(self.client_site);
        d.add(format!("client@{}", site.name), site.realm, false, move || {
            Box::new(DiscoveryClient::with_auto_start(discovery.clone(), false))
        });
        d
    }

    /// The testbed on `sim`, an engine [`ScenarioBuilder::describe`]'s
    /// deployment was built on, after the warm-up.
    pub fn scenario<E: DiscoveryEngine>(self, sim: E) -> Scenario<E> {
        let ids = self.broker_ids();
        let node_id = |i: usize| NodeId(i as u32);
        let bdns: Vec<NodeId> = (0..ids.start).map(node_id).collect();
        let mut scenario = Scenario {
            sim,
            wan: WanModel::paper(),
            topology: Topology::build(self.kind, self.broker_sites.len()),
            kind: self.kind,
            bdn: bdns.first().copied(),
            bdns,
            brokers: ids.clone().map(node_id).collect(),
            client: node_id(ids.end),
            broker_sites: self.broker_sites,
            client_site: self.client_site,
        };
        scenario.sim.run_for(self.warmup);
        scenario
    }
}

/// A built testbed: simulator plus the node ids of every role. The
/// same type serves both engines — [`ScenarioBuilder::build`] yields
/// `Scenario<Sim>`, and [`ScenarioBuilder::scenario`] wraps any engine
/// [`ScenarioBuilder::describe`]'s deployment was built on.
pub struct Scenario<E: DiscoveryEngine = Sim> {
    /// The simulator.
    pub sim: E,
    /// The WAN model used.
    pub wan: WanModel,
    /// The overlay topology.
    pub topology: Topology,
    /// The topology kind.
    pub kind: TopologyKind,
    /// The first BDN node (absent in multicast-only scenarios) — the
    /// paper's single-BDN role, kept for all the §9 reproductions.
    pub bdn: Option<NodeId>,
    /// Every BDN node: the one in [`Scenario::bdn`], or none.
    pub bdns: Vec<NodeId>,
    /// Broker nodes, index-aligned with `broker_sites`.
    pub brokers: Vec<NodeId>,
    /// The discovery client node.
    pub client: NodeId,
    /// Site of each broker.
    pub broker_sites: Vec<SiteIdx>,
    /// Site of the client.
    pub client_site: SiteIdx,
}

impl<E: DiscoveryEngine> Scenario<E> {
    /// Runs one discovery and returns its outcome.
    pub fn run_discovery_once(&mut self) -> DiscoveryOutcome {
        let before = self.client_actor().completed.len();
        self.sim.inject(self.client, Duration::from_millis(1), nb_net::Incoming::Timer { token: TIMER_START });
        // Run until the outcome lands, bounded by a generous cap.
        let cap = self.sim.now() + Duration::from_secs(60);
        loop {
            self.sim.run_for(Duration::from_millis(100));
            let client = self.client_actor();
            if client.completed.len() > before {
                break;
            }
            if self.sim.now() > cap {
                panic!(
                    "discovery run did not complete within 60s of virtual time (phase {:?})",
                    client.phase()
                );
            }
        }
        // Small gap between runs.
        self.sim.run_for(Duration::from_millis(200));
        self.client_actor().completed.last().expect("outcome").clone()
    }

    /// Runs `count` back-to-back discoveries (the paper ran 120),
    /// returning the outcomes in order.
    pub fn run_discovery(&mut self, count: usize) -> Vec<DiscoveryOutcome> {
        (0..count).map(|_| self.run_discovery_once()).collect()
    }

    fn client_actor(&self) -> &DiscoveryClient {
        <dyn DiscoveryEngine>::actor(&self.sim, self.client).expect("client actor")
    }

    /// Maps a broker node id back to its site index.
    pub fn site_of_broker(&self, broker: NodeId) -> Option<SiteIdx> {
        self.brokers.iter().position(|&b| b == broker).map(|i| self.broker_sites[i])
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconnected_scenario_discovers_nearest_broker() {
        let mut s = ScenarioBuilder::new(TopologyKind::Unconnected, BLOOMINGTON, 42).build();
        let outcome = s.run_discovery_once();
        let chosen = outcome.chosen.expect("discovery must succeed");
        // From Bloomington the Indianapolis broker is by far the nearest;
        // with default weights it should win (it also has the most RAM).
        assert_eq!(s.site_of_broker(chosen), Some(INDIANAPOLIS));
        assert!(outcome.responses_received >= 4, "most brokers respond");
        assert!(!outcome.used_multicast);
        assert_eq!(outcome.bdn_used, s.bdn);
        let t = outcome.phases.total();
        assert!(t > Duration::from_millis(10), "total {t:?}");
        assert!(t < Duration::from_secs(10), "total {t:?}");
    }

    #[test]
    fn star_scenario_disseminates_through_hub() {
        let mut s = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 43).build();
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some());
        assert!(outcome.responses_received >= 4, "flooding reaches the spokes");
    }

    #[test]
    fn linear_scenario_traverses_the_chain() {
        let mut s = ScenarioBuilder::new(TopologyKind::Linear, BLOOMINGTON, 44).build();
        let outcome = s.run_discovery_once();
        assert!(outcome.chosen.is_some());
        assert!(
            outcome.responses_received >= 4,
            "requests reach the end of the chain (got {})",
            outcome.responses_received
        );
    }

    #[test]
    fn multicast_scenario_reaches_lab_brokers_only() {
        let mut s = ScenarioBuilder::multicast(45, 2).build();
        let outcome = s.run_discovery_once();
        assert!(outcome.used_multicast);
        let chosen = outcome.chosen.expect("a lab broker answers");
        assert_eq!(s.site_of_broker(chosen), Some(BLOOMINGTON));
        // Remote brokers are unreachable by multicast and unconnected.
        assert!(outcome.responses_received <= 2, "got {}", outcome.responses_received);
    }

    #[test]
    fn the_builder_maps_broker_ids_to_sites_as_the_build_does() {
        for builder in [ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 48), ScenarioBuilder::multicast(48, 2)] {
            let s = builder.clone().build();
            for id in 0..=s.client.0 {
                assert_eq!(builder.site_of_broker(NodeId(id)), s.site_of_broker(NodeId(id)), "node {id}");
            }
        }
    }

    #[test]
    fn sharded_build_discovers_and_is_worker_invariant() {
        let run = |workers| {
            let builder = ScenarioBuilder::new(TopologyKind::Star, BLOOMINGTON, 47);
            let sim = builder.describe().build(|seed, clock| {
                let mut sim = nb_net::ShardedSim::with_clock_profile(seed, clock);
                sim.set_workers(workers);
                sim
            });
            let mut s = builder.scenario(sim);
            let o = s.run_discovery_once();
            (o.chosen.is_some(), s.sim.digest(), s.sim.events_processed())
        };
        let reference = run(1);
        assert!(reference.0, "sharded discovery completes");
        assert_eq!(reference, run(2));
        assert_eq!(reference, run(4));
    }

    #[test]
    fn repeated_runs_accumulate_outcomes() {
        let mut s = ScenarioBuilder::new(TopologyKind::Star, FSU, 46).build();
        let outcomes = s.run_discovery(3);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.chosen.is_some()));
    }
}
