//! A deployment described before it is built: the engine seed and clock
//! profile, the nodes in insertion order and the network they sit on:
//! the paper's sites, or realm link specs with an optional generated WAN.
//! A node's id is its index in [`Deployment::nodes`], so every id is
//! fixed while the deployment is described, and a BDN's attachment list
//! may name brokers that come after it. A node's factory makes its actor
//! and, when the node is restartable, is also what a lossy restart
//! calls. [`Deployment::build`] makes one value on either engine, and
//! [`on_every_engine`] runs one test body on every engine.

use std::panic::{self, AssertUnwindSafe};

use nb_net::topogen::WanTopology;
use nb_net::wan::{SiteIdx, WanModel};
use nb_net::{Actor, ClockProfile, DiscoveryEngine, LinkSpec, RespawnFn, ShardedSim, Sim, Trace};
use nb_wire::{NodeId, RealmId};

/// One node of a [`Deployment`].
pub struct DeploymentNode {
    /// The node's name.
    pub name: String,
    /// The realm the node lives in.
    pub realm: RealmId,
    /// Makes the node's actor.
    pub make: RespawnFn,
    /// Whether `make` is also the node's respawn factory; a lossy
    /// restart of any other node keeps its actor.
    pub restartable: bool,
}

/// The network a [`Deployment`]'s nodes sit on.
pub enum Network {
    /// The paper's Table-1 WAN ([`WanModel::paper`]): node `i` sits on
    /// `sites[i]`, and every link's loss is multiplied by `loss_factor`
    /// (1.0 keeps the model's losses, 0.0 makes every link lossless).
    PaperSites { sites: Vec<SiteIdx>, loss_factor: f64 },
    /// `intra` between nodes that share a realm, `inter` across realms,
    /// and the edges of a generated WAN when `wan` holds one with its
    /// brokers' ids (topology broker `i` is node `wan.1[i]`).
    Realms { intra: LinkSpec, inter: LinkSpec, wan: Option<(WanTopology, Vec<NodeId>)> },
}

/// A described deployment.
pub struct Deployment {
    /// The engine's RNG seed.
    pub seed: u64,
    /// Clock model for every node.
    pub clock: ClockProfile,
    /// The nodes; node `i` gets id `NodeId(i)`.
    pub nodes: Vec<DeploymentNode>,
    /// The network, installed once every node exists.
    pub network: Network,
}

impl Deployment {
    /// Appends a node whose actor `make` builds, and returns its id.
    pub fn add(
        &mut self,
        name: String,
        realm: RealmId,
        restartable: bool,
        make: impl FnMut() -> Box<dyn Actor> + Send + 'static,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(DeploymentNode { name, realm, make: Box::new(make), restartable });
        id
    }

    /// The deployment with every actor its factories make, respawns
    /// included, recording into `trace`.
    pub fn traced(self, trace: &Trace) -> Deployment {
        let wrap = |mut node: DeploymentNode| {
            let trace = trace.clone();
            DeploymentNode { make: Box::new(move || trace.wrap((node.make)())), ..node }
        };
        Deployment { nodes: self.nodes.into_iter().map(wrap).collect(), ..self }
    }

    /// Builds the deployment on the fresh engine `engine(seed, clock)`
    /// makes: every node in order, each restartable node's factory as
    /// its respawn factory, then the network.
    pub fn build<E: DiscoveryEngine>(self, engine: impl FnOnce(u64, ClockProfile) -> E) -> E {
        let mut sim = engine(self.seed, self.clock);
        for (i, mut node) in self.nodes.into_iter().enumerate() {
            let id = sim.add_node(&node.name, node.realm, (node.make)());
            assert_eq!(id, NodeId(i as u32), "a deployment builds on a fresh engine");
            if node.restartable {
                sim.set_respawn(id, node.make);
            }
        }
        let net = sim.network_mut();
        match self.network {
            Network::PaperSites { sites, loss_factor } => {
                let placement: Vec<(NodeId, SiteIdx)> =
                    sites.into_iter().enumerate().map(|(i, s)| (NodeId(i as u32), s)).collect();
                WanModel::paper().install(net, &placement);
                if (loss_factor - 1.0).abs() > f64::EPSILON {
                    net.scale_loss(loss_factor);
                }
            }
            Network::Realms { intra, inter, wan } => {
                net.intra_realm_spec = intra;
                net.inter_realm_spec = inter;
                if let Some((topology, brokers)) = wan {
                    topology.install(net, &brokers);
                }
            }
        }
        sim
    }
}

/// Builds `describe()`'s deployment on `Sim`, on `ShardedSim` at one
/// worker and on `ShardedSim` at four, and runs `body` on each in that
/// order; returns what each run returned. A panic in `body` is raised
/// again with the engine's name in front of its message. The two
/// `ShardedSim` runs must then end with equal digests, event counts and
/// traffic counters: the worker count decides where an LP runs, never
/// what it does, and the counters are sums over the workers.
#[expect(clippy::panic, reason = "a test harness: a failing body fails the test that runs it")]
pub fn on_every_engine<T>(
    describe: impl Fn() -> Deployment,
    mut body: impl FnMut(&mut dyn DiscoveryEngine) -> T,
) -> Vec<T> {
    let mut run = |engine: &str, sim: &mut dyn DiscoveryEngine| {
        panic::catch_unwind(AssertUnwindSafe(|| body(sim))).unwrap_or_else(|cause| {
            let text = cause.downcast_ref::<String>().map(String::as_str);
            let text = text.or(cause.downcast_ref::<&str>().copied()).unwrap_or("a panic");
            panic!("on {engine}: {text}")
        })
    };
    let mut out = vec![run("Sim", &mut describe().build(Sim::with_clock_profile))];
    let [one, four] = [(1, "ShardedSim at 1 worker"), (4, "ShardedSim at 4 workers")].map(|(workers, engine)| {
        let mut sim = describe().build(|seed, clock| {
            let mut sim = ShardedSim::with_clock_profile(seed, clock);
            sim.set_workers(workers);
            sim
        });
        out.push(run(engine, &mut sim));
        (sim.digest(), sim.events_processed(), sim.stats())
    });
    assert_eq!(one, four, "(digest, events, stats) of ShardedSim at 1 and at 4 workers");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn one_idle_node() -> Deployment {
        let network = Network::Realms { intra: LinkSpec::lan(), inter: LinkSpec::lan(), wan: None };
        let mut d = Deployment { seed: 1, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
        d.add("idle".into(), RealmId(0), false, || Box::new(nb_net::runtime::IdleActor));
        d
    }

    #[test]
    fn the_body_runs_once_on_each_engine() {
        let ran = on_every_engine(one_idle_node, |sim| {
            sim.run_for(Duration::from_secs(1));
            (sim.node_name(NodeId(0)).to_string(), sim.now())
        });
        assert_eq!(ran, vec![("idle".to_string(), nb_net::SimTime::from_millis(1000)); 3]);
    }

    #[test]
    #[should_panic(expected = "on ShardedSim at 4 workers: the third run fails")]
    fn a_body_that_fails_on_one_engine_names_it() {
        let mut runs = 0;
        on_every_engine(one_idle_node, |_| {
            runs += 1;
            assert!(runs < 3, "the third run fails");
        });
    }
}
