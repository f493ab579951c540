//! A deployment described before it is built: the engine seed and clock
//! profile, the nodes in insertion order and the network they sit on:
//! the paper's sites, or realm link specs with an optional generated WAN.
//! A node's id is its index in [`Deployment::nodes`], so every id is
//! fixed while the deployment is described, and a BDN's attachment list
//! may name brokers that come after it. A node's factory makes its actor
//! and, when the node is restartable, is also what a lossy restart
//! calls. [`Deployment::build`] makes one value on either engine.

use nb_net::topogen::WanTopology;
use nb_net::wan::{SiteIdx, WanModel};
use nb_net::{Actor, ClockProfile, DiscoveryEngine, LinkSpec, ShardRespawnFn};
use nb_wire::{NodeId, RealmId};

/// One node of a [`Deployment`].
pub struct DeploymentNode {
    /// The node's name.
    pub name: String,
    /// The realm the node lives in.
    pub realm: RealmId,
    /// Makes the node's actor.
    pub make: ShardRespawnFn,
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
