//! A broker that joins the overlay through discovery.
//!
//! The problem statement's second case (§1.1): *"an entity may wish to
//! add a broker to this network. In both these cases it is essential for
//! the entity to discover a broker"*. A [`JoiningBroker`] is a full
//! discovery-enabled broker whose embedded finder runs the discovery
//! protocol and then opens an **overlay link** to the chosen broker —
//! after which the newcomer participates in routing, floods discovery
//! requests, answers them, and (per §8.3) is preferentially selected by
//! subsequent discoveries thanks to its fresh usage metrics.

use std::time::Duration;

use nb_broker::BrokerConfig;
use nb_wire::NodeId;

use nb_net::{impl_actor_any, Actor, Context, Incoming};

use crate::broker_actor::DiscoveryBrokerActor;
use crate::client::{DiscoveryClient, Phase};
use crate::config::DiscoveryConfig;
use crate::policy::ResponsePolicy;

const TIMER_HEAL: u64 = 0x4EA1_0000_0000_0001;
const HEAL_CHECK: Duration = Duration::from_secs(5);

/// A broker that finds its attachment point via discovery: its finder
/// is a joining [`DiscoveryClient`], whose last step opens an overlay
/// link where a client's opens a client connection.
pub struct JoiningBroker {
    /// The full broker (routing + responder + advertiser).
    pub inner: DiscoveryBrokerActor,
    /// The embedded discovery state machine, built by
    /// `DiscoveryClient::joining`: its last step links to the chosen
    /// broker.
    finder: DiscoveryClient,
    /// The broker this node linked to, once joined.
    pub joined_to: Option<NodeId>,
    /// Healing rounds performed: each time the broker is left with no
    /// overlay link, discovery runs again and a fresh link is opened
    /// (§8.3's "incorporation of brokers" applied to partition repair).
    pub heals: u64,
    /// Set once the first join succeeds; healing retries (including
    /// after failed heal attempts) are gated on this, not on the
    /// transient `joined_to`.
    ever_joined: bool,
}

impl JoiningBroker {
    /// A joining broker: `cfg`/`bdns`/`policy` configure the broker side
    /// (it advertises to `bdns` once up), `discovery` drives the join,
    /// which ends in an overlay link rather than a client connection.
    pub fn new(
        cfg: BrokerConfig,
        bdns: Vec<NodeId>,
        policy: ResponsePolicy,
        discovery: DiscoveryConfig,
    ) -> JoiningBroker {
        JoiningBroker {
            inner: DiscoveryBrokerActor::new(cfg, bdns, policy),
            finder: DiscoveryClient::joining(discovery),
            joined_to: None,
            heals: 0,
            ever_joined: false,
        }
    }

    /// Whether the join completed.
    pub fn joined(&self) -> bool {
        self.joined_to.is_some()
    }

    /// The embedded joining finder (observability).
    pub fn finder(&self) -> &DiscoveryClient {
        &self.finder
    }

    fn check_join(&mut self) {
        if self.joined_to.is_none() && self.finder.phase() == Phase::Done {
            self.joined_to = self.finder.outcome().and_then(|o| o.chosen);
            if self.joined_to.is_some() {
                self.ever_joined = true;
            }
        }
    }

    fn heal_tick(&mut self, ctx: &mut dyn Context) {
        if self.inner.broker.num_links() == 0
            && matches!(self.finder.phase(), Phase::Idle | Phase::Done | Phase::Failed)
            && self.ever_joined
        {
            // We had joined once but the overlay has since shrunk under
            // us: rediscover and re-link.
            self.heals += 1;
            self.joined_to = None;
            self.finder.begin(ctx);
        }
        ctx.set_timer(HEAL_CHECK, TIMER_HEAL);
    }
}

impl Actor for JoiningBroker {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.inner.on_start(ctx);
        self.finder.on_start(ctx);
        ctx.set_timer(HEAL_CHECK, TIMER_HEAL);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if matches!(event, Incoming::Timer { token: TIMER_HEAL }) {
            self.heal_tick(ctx);
            return;
        }
        // Both halves see every event: the finder consumes discovery
        // traffic (acks, responses, pongs, the LinkAccept that seals the
        // join), the broker half consumes overlay traffic — including
        // that same LinkAccept, which establishes its side of the link.
        self.finder.on_incoming(event.clone(), ctx);
        self.check_join();
        self.inner.on_incoming(event, ctx);
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdn::{Bdn, BdnConfig};
    use crate::client::DiscoveryClient;
    use crate::deployment::{on_every_engine, Deployment, Network};
    use nb_broker::MachineProfile;
    use nb_net::{ClockProfile, LinkSpec};
    use nb_wire::RealmId;
    use std::time::Duration;

    fn discovery_cfg(bdn: NodeId) -> DiscoveryConfig {
        DiscoveryConfig {
            bdns: vec![bdn],
            collection_window: Duration::from_millis(1200),
            max_responses: 2,
            ping_window: Duration::from_millis(400),
            ack_timeout: Duration::from_millis(500),
            ..DiscoveryConfig::default()
        }
    }

    #[test]
    fn a_new_broker_discovers_and_links_into_the_overlay() {
        let describe = || {
            let intra = LinkSpec::lan().with_loss(0.0);
            let inter = LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0);
            let network = Network::Realms { intra, inter, wan: None };
            let mut d = Deployment { seed: 81, clock: ClockProfile::perfect(), nodes: Vec::new(), network };
            let bdn = d.add("bdn".into(), RealmId(0), false, || Box::new(Bdn::new(BdnConfig::default())));
            for (i, realm) in [0, 1].into_iter().enumerate() {
                // b1 is farther away, and dials b0.
                let neighbors = if i == 0 { vec![] } else { vec![NodeId(1)] };
                let cfg = BrokerConfig { hostname: format!("b{i}"), neighbors, ..BrokerConfig::default() };
                d.add(format!("b{i}"), RealmId(realm), false, move || {
                    Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![bdn], ResponsePolicy::open()))
                });
            }
            d
        };
        let (bdn, b0) = (NodeId(0), NodeId(1));
        on_every_engine(describe, |sim| {
            sim.run_for(Duration::from_secs(2));
            // The newcomer joins from the same realm as b0.
            let cfg = BrokerConfig {
                hostname: "new.broker".into(),
                machine: MachineProfile::default_2005(),
                ..BrokerConfig::default()
            };
            let joining = JoiningBroker::new(cfg, vec![bdn], ResponsePolicy::open(), discovery_cfg(bdn));
            let newcomer = sim.add_node("newcomer", RealmId(0), Box::new(joining));
            sim.run_for(Duration::from_secs(8));

            let joining = sim.actor::<JoiningBroker>(newcomer).unwrap();
            assert!(joining.joined(), "join completed (finder {:?})", joining.finder().phase());
            assert_eq!(joining.joined_to, Some(b0), "linked to the nearest broker");
            assert!(joining.inner.broker.is_linked(b0), "overlay link up on the newcomer's side");
            let b0_actor = sim.actor::<DiscoveryBrokerActor>(b0).unwrap();
            assert!(b0_actor.broker.is_linked(newcomer), "…and on the existing broker's side");

            // The newcomer now participates in discovery: a later client
            // run receives a response from it too.
            let cfg = DiscoveryConfig { max_responses: 3, ..discovery_cfg(bdn) };
            let client = sim.add_node("client", RealmId(0), Box::new(DiscoveryClient::with_auto_start(cfg, true)));
            sim.run_for(Duration::from_secs(6));
            let client = sim.actor::<DiscoveryClient>(client).unwrap();
            let outcome = client.outcome().cloned().expect("client discovery finished");
            assert_eq!(outcome.responses_received, 3, "the newcomer answered as well");
            assert!(outcome.chosen.is_some());
        });
    }
}
