//! Per-publisher reverse-path pruning (DESIGN.md §18) where it can lose
//! what a flood would not: on meshed overlays, under faults. Steady
//! state must be the flood's deliveries with a fraction of its frames;
//! after a silent link loss, a publisher re-homing or a broker restart,
//! nothing published more than one lease after the fault may be missed
//! by a subscriber that still has a path — with no failure detection to
//! help — and no subscriber may ever see an event twice.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use nb::broker::{BrokerConfig, Topology, TopologyKind};
use nb::discovery::{at_one_and_four_workers, Deployment, DiscoveryBrokerActor, Network, ResponsePolicy};
use nb::net::runtime::IdleActor;
use nb::net::{impl_actor_any, Actor, ClockProfile, Context, Fault, FaultPlan, Incoming, LinkSpec, ShardedSim, SimTime};
use nb::util::Uuid;
use nb::wire::addr::well_known;
use nb::wire::{Endpoint, Event, Message, NodeId, RealmId, Topic, TopicFilter};

/// The broker's heartbeat interval times the heartbeats a link may miss
/// (2 s × 3): how long a `Prune` is honoured.
const LEASE: Duration = Duration::from_secs(6);
/// A publishing station's inter-event gap.
const EVERY: Duration = Duration::from_millis(200);
const TICK: u64 = 1;

/// One event as a subscriber saw it.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    source: NodeId,
    seq: u64,
    sent: SimTime,
    arrived: SimTime,
}

/// A client of one broker: subscribes to `filters`, publishes a numbered
/// event on `topic` every [`EVERY`] while `publishing`, and keeps what it
/// is delivered, and when.
struct Station {
    broker: NodeId,
    connected_to: Option<NodeId>,
    filters: Vec<TopicFilter>,
    topic: Topic,
    publishing: bool,
    /// Publish time of event `seq`, by index: the schedule oracle.
    sent: Vec<SimTime>,
    got: Vec<Delivery>,
}

impl Station {
    fn new(broker: NodeId, filters: Vec<TopicFilter>) -> Station {
        Station {
            broker,
            connected_to: None,
            filters,
            topic: Topic::parse("feed/x").unwrap(),
            publishing: false,
            sent: Vec::new(),
            got: Vec::new(),
        }
    }

    fn subscriber(broker: NodeId) -> Station {
        Station::new(broker, vec![TopicFilter::parse("feed/**").unwrap()])
    }
}

impl Actor for Station {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(Duration::ZERO, TICK);
    }

    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        let to = Endpoint::new(self.broker, well_known::BROKER);
        match event {
            Incoming::Timer { token: TICK } => {
                // (Re-)homing: the stream is ordered, so the connect and
                // the subscriptions are in before anything sent after.
                if self.connected_to != Some(self.broker) {
                    self.connected_to = Some(self.broker);
                    let hello =
                        Message::ClientConnect { client: ctx.me(), reply_port: well_known::BROKER };
                    ctx.send_stream(well_known::BROKER, to, &hello);
                    for filter in self.filters.clone() {
                        ctx.send_stream(well_known::BROKER, to, &Message::ClientSubscribe { filter });
                    }
                }
                if self.publishing {
                    let mut payload = (self.sent.len() as u64).to_le_bytes().to_vec();
                    payload.extend_from_slice(&ctx.now().as_nanos().to_le_bytes());
                    let ev = Event {
                        id: Uuid::random(ctx.rng()),
                        topic: self.topic.clone(),
                        source: ctx.me(),
                        payload: payload.into(),
                    };
                    ctx.send_stream(well_known::BROKER, to, &Message::Publish(ev));
                    self.sent.push(ctx.now());
                }
                ctx.set_timer(EVERY, TICK);
            }
            Incoming::Stream { msg, .. } => {
                if let Message::Publish(ev) = msg.message() {
                    let word = |i: usize| u64::from_le_bytes(ev.payload[i..i + 8].try_into().unwrap());
                    self.got.push(Delivery {
                        source: ev.source,
                        seq: word(0),
                        sent: SimTime::from_nanos(word(8)),
                        arrived: ctx.now(),
                    });
                }
            }
            _ => {}
        }
    }

    impl_actor_any!();
}

/// A broker from `cfg`, as every program builds one.
fn broker(cfg: BrokerConfig) -> Box<DiscoveryBrokerActor> {
    Box::new(DiscoveryBrokerActor::new(cfg, Vec::new(), ResponsePolicy::open()))
}

/// A six-broker ring with two chords: three links more than a tree.
fn ring_with_chords() -> Topology {
    let mut edges = Topology::build(TopologyKind::Ring, 6).edges().to_vec();
    edges.extend([(0, 3), (1, 4)]);
    Topology::from_edges(6, edges)
}

/// The overlay `tests/pubsub_overlay.rs` floods: a 20-broker spanning
/// tree plus six chords.
fn random_overlay() -> Topology {
    use rand::SeedableRng;
    Topology::random(20, 6, &mut rand::rngs::StdRng::seed_from_u64(9))
}

/// A lossless LAN.
fn lan(seed: u64) -> Deployment {
    let intra = LinkSpec::lan().with_loss(0.0);
    let network = Network::Realms { intra, inter: LinkSpec::wan(Duration::from_millis(40)), wan: None };
    Deployment { seed, clock: ClockProfile::perfect(), nodes: Vec::new(), network }
}

/// Runs `body` at 1 and at 4 workers, on the overlay `topo` with one
/// subscriber per broker and a station at each broker of `publishers`
/// that starts publishing once the overlay has settled (see
/// [`Net::start`]); hands it the stations' ids.
fn on_every_net<const P: usize>(
    seed: u64,
    topo: &Topology,
    publishers: [usize; P],
    mut body: impl FnMut(Net<'_>, [NodeId; P]),
) {
    let n = topo.dial_lists().len();
    let describe = || {
        let mut d = lan(seed);
        for (i, dials) in topo.dial_lists().into_iter().enumerate() {
            let neighbors = dials.iter().map(|&j| NodeId(j as u32)).collect();
            let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
            d.add(format!("b{i}"), RealmId(0), false, move || broker(cfg.clone()));
        }
        for i in 0..n {
            d.add(format!("s{i}"), RealmId(0), false, move || Box::new(Station::subscriber(NodeId(i as u32))));
        }
        for at in publishers {
            let broker = NodeId(at as u32);
            d.add(format!("p{at}"), RealmId(0), false, move || Box::new(Station::new(broker, Vec::new())));
        }
        d
    };
    let ids = |range: std::ops::Range<usize>| range.map(|i| NodeId(i as u32)).collect::<Vec<_>>();
    at_one_and_four_workers(describe, |sim| {
        let net = Net { sim, topo, brokers: ids(0..n), subs: ids(n..2 * n) };
        body(net, std::array::from_fn(|k| NodeId((2 * n + k) as u32)));
    });
}

/// A deployment on the engine: the overlay, one subscriber per broker,
/// publishers.
struct Net<'a> {
    sim: &'a mut ShardedSim,
    topo: &'a Topology,
    brokers: Vec<NodeId>,
    subs: Vec<NodeId>,
}

impl Net<'_> {
    fn run_to(&mut self, secs: f64) {
        let to = SimTime::from_nanos((secs * 1e9) as u64);
        self.sim.run_for(to.since(self.sim.now()));
    }

    /// Links and interest settle for four seconds, then `publishers`
    /// start.
    fn start(&mut self, publishers: &[NodeId]) {
        self.run_to(4.0);
        for &p in publishers {
            self.station_mut(p).publishing = true;
        }
    }

    fn station(&self, node: NodeId) -> &Station {
        self.sim.actor::<Station>(node).unwrap()
    }

    fn station_mut(&mut self, node: NodeId) -> &mut Station {
        self.sim.actor_mut::<Station>(node).unwrap()
    }

    fn broker(&self, i: usize) -> &nb::broker::Broker {
        broker_of(self.sim, self.brokers[i])
    }

    /// `(duplicates suppressed, events routed)` over every broker.
    fn broker_counts(&self) -> (u64, u64) {
        (0..self.brokers.len()).map(|i| self.broker(i)).fold((0, 0), |(d, r), b| {
            (d + b.duplicates_suppressed, r + b.events_routed)
        })
    }

    /// Brokers reachable from `from` with the link `cut` gone.
    fn reachable_without(&self, from: usize, cut: (usize, usize)) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([from]);
        let mut stack = vec![from];
        while let Some(i) = stack.pop() {
            for j in self.topo.neighbors(i) {
                let is_cut = (i, j) == cut || (j, i) == cut;
                if !is_cut && seen.insert(j) {
                    stack.push(j);
                }
            }
        }
        seen
    }

    /// How often subscriber `sub` was delivered each event of `source`.
    fn counts(&self, sub: usize, source: NodeId) -> BTreeMap<u64, usize> {
        let mut counts = BTreeMap::new();
        for d in self.station(self.subs[sub]).got.iter().filter(|d| d.source == source) {
            *counts.entry(d.seq).or_insert(0) += 1;
        }
        counts
    }

    /// Every subscriber in `subs` got every event `source` published in
    /// `[from, to)` seconds exactly once.
    fn assert_exactly_once(&self, subs: &[usize], source: NodeId, from: f64, to: f64, what: &str) {
        let sent = &self.station(source).sent;
        let window = |t: &SimTime| (from..to).contains(&t.as_secs_f64());
        let seqs: Vec<u64> = (0..sent.len()).filter(|&s| window(&sent[s])).map(|s| s as u64).collect();
        assert!(!seqs.is_empty(), "{what}: nothing was published in [{from}, {to})");
        for &sub in subs {
            let counts = self.counts(sub, source);
            for &seq in &seqs {
                let n = counts.get(&seq).copied().unwrap_or(0);
                assert_eq!(n, 1, "{what}: subscriber {sub} got event {seq} of {source:?} {n} times");
            }
        }
    }

    /// No subscriber was ever delivered an event twice, nor one that was
    /// never published.
    fn assert_no_duplicates(&self, sources: &[NodeId]) {
        for sub in 0..self.subs.len() {
            for &source in sources {
                let published = self.station(source).sent.len() as u64;
                for (seq, n) in self.counts(sub, source) {
                    assert!(n == 1 && seq < published, "subscriber {sub}: event {seq} × {n}");
                }
            }
        }
    }

    /// Mean publish→delivery latency, in µs, of what was published in
    /// `[from, to)` seconds.
    fn mean_latency_us(&self, from: f64, to: f64) -> f64 {
        let all = self.subs.iter().flat_map(|&s| self.station(s).got.iter());
        let lat: Vec<f64> = all
            .filter(|d| (from..to).contains(&d.sent.as_secs_f64()))
            .map(|d| (d.arrived - d.sent).as_secs_f64() * 1e6)
            .collect();
        assert!(!lat.is_empty());
        lat.iter().sum::<f64>() / lat.len() as f64
    }
}

/// Runs `net` to `to` seconds and returns the share of broker arrivals
/// since `from` (now) that were duplicates.
fn duplicate_ratio(net: &mut Net<'_>, to: f64) -> f64 {
    let (d0, r0) = net.broker_counts();
    net.run_to(to);
    let (d1, r1) = net.broker_counts();
    (d1 - d0) as f64 / ((d1 - d0) + (r1 - r0)) as f64
}

fn all_subs(net: &Net<'_>) -> Vec<usize> {
    (0..net.subs.len()).collect()
}

// (a) -----------------------------------------------------------------

#[test]
fn steady_state_is_the_floods_deliveries_with_a_fraction_of_its_frames() {
    for (topo, seed) in [(ring_with_chords(), 41), (random_overlay(), 42)] {
        let far = topo.dial_lists().len() / 2;
        on_every_net(seed, &topo, [0, far], |mut net, publishers| {
            net.start(&publishers);
            // The first event of each publisher floods and is what prunes;
            // from the second second on the tree carries the stream — across
            // two renewals of every mute (16 s is more than two leases).
            net.run_to(5.0);
            let ratio = duplicate_ratio(&mut net, 20.0);
            for &p in &publishers {
                net.station_mut(p).publishing = false;
            }
            net.run_to(21.0);
            for &p in &publishers {
                assert_eq!(net.station(p).sent.len(), 80);
                net.assert_exactly_once(&all_subs(&net), p, 0.0, 21.0, "steady state");
            }
            net.assert_no_duplicates(&publishers);
            assert!(ratio < 0.15, "duplicate ratio {ratio:.3} after the first second");
            let brokers = 0..net.brokers.len();
            let (sent, received, dropped) = brokers.map(|i| net.broker(i)).fold((0, 0, 0), |acc, b| {
                (acc.0 + b.prunes_sent, acc.1 + b.prunes_received, acc.2 + b.duplicates_suppressed)
            });
            assert!(sent > 0 && sent == received, "{sent} prunes sent, {received} received");
            assert!(sent <= dropped, "a prune answers a duplicate: {sent} prunes, {dropped} duplicates");
        });
    }
}

// (b) -----------------------------------------------------------------

/// The first broker (not the ingress, broker 0) whose parent for
/// `source` is a link the overlay stays connected without; returns
/// `(child, parent)` as broker indices.
fn redundant_tree_link(net: &Net<'_>, source: NodeId) -> (usize, usize) {
    let index_of = |n: NodeId| net.brokers.iter().position(|&b| b == n);
    (1..net.brokers.len())
        .filter_map(|c| Some((c, index_of(net.broker(c).route_parent(source)?)?)))
        .find(|&(c, p)| net.reachable_without(0, (c, p)).len() == net.brokers.len())
        .expect("a meshed overlay has a tree link that is not a bridge")
}

/// Runs `net`, with one `publisher` at broker 0, to 20.5 s — half a
/// second after a heartbeat crossed every link, so that no link can be
/// called dead before 28.0; returns the pre-fault duplicate ratio and
/// mean latency of 5–17 s, and a tree link to fail.
fn streaming_until_the_fault(net: &mut Net<'_>, publisher: NodeId) -> (f64, f64, (usize, usize)) {
    net.start(&[publisher]);
    net.run_to(5.0);
    let ratio = duplicate_ratio(net, 17.0);
    let latency = net.mean_latency_us(5.0, 17.0);
    net.run_to(20.5);
    (ratio, latency, redundant_tree_link(net, publisher))
}

#[test]
fn a_silent_link_loss_is_routed_around_inside_one_lease_with_no_failure_detection() {
    for (topo, seed) in [(ring_with_chords(), 43), (random_overlay(), 44)] {
        on_every_net(seed, &topo, [0], |mut net, [publisher]| {
            let (_, _, (child, parent)) = streaming_until_the_fault(&mut net, publisher);
            let (c, p) = (net.brokers[child], net.brokers[parent]);
            net.sim.network_mut().partition(c, p);
            let lapsed = 20.5 + LEASE.as_secs_f64();
            net.run_to(27.9);
            // Both ends still believe in the link: what routed around it is
            // a mute running out, not a heartbeat going missing.
            assert!(net.broker(child).is_linked(p) && net.broker(parent).is_linked(c));
            let subs = all_subs(&net);
            net.assert_exactly_once(&subs, publisher, lapsed, 27.8, "one lease after, link still up");
            net.assert_exactly_once(&subs, publisher, 0.0, 20.3, "before the fault");
            let fed = net.counts(child, publisher).len();
            assert!(fed < net.station(publisher).sent.len() - 2, "the fault did cut a feed");
            // Failure detection, when it comes, loses nothing either.
            net.run_to(40.0);
            assert!(!net.broker(child).is_linked(p) && !net.broker(parent).is_linked(c));
            net.station_mut(publisher).publishing = false;
            net.run_to(41.0);
            net.assert_exactly_once(&subs, publisher, lapsed, 41.0, "through link_down");
            net.assert_no_duplicates(&[publisher]);
        });
    }
}

#[test]
fn after_a_flap_the_tree_is_back_to_one_copy_a_broker_inside_two_leases() {
    for (topo, seed) in [(ring_with_chords(), 43), (random_overlay(), 44)] {
        on_every_net(seed, &topo, [0], |mut net, [publisher]| {
            let (before_ratio, before_latency, (child, parent)) = streaming_until_the_fault(&mut net, publisher);
            let (c, p) = (net.brokers[child], net.brokers[parent]);
            // Three seconds: feeds move (every mute that lapses meanwhile
            // opens one), but a heartbeat crosses before either end gives up.
            net.sim.network_mut().partition(c, p);
            net.run_to(23.5);
            net.sim.network_mut().heal(c, p);
            let settled = 23.5 + 2.0 * LEASE.as_secs_f64();
            net.run_to(settled);
            let after_ratio = duplicate_ratio(&mut net, settled + 12.0);
            let after_latency = net.mean_latency_us(settled, settled + 12.0);
            net.station_mut(publisher).publishing = false;
            net.run_to(settled + 13.0);
            assert!(net.broker(child).is_linked(p) && net.broker(parent).is_linked(c));
            let subs = all_subs(&net);
            net.assert_exactly_once(&subs, publisher, 0.0, 20.3, "before the flap");
            let calm = 23.5 + LEASE.as_secs_f64();
            net.assert_exactly_once(&subs, publisher, calm, settled + 13.0, "a lease after the heal");
            net.assert_no_duplicates(&[publisher]);
            assert!(before_ratio < 0.15, "duplicate ratio {before_ratio:.3} before the fault");
            assert!(
                after_ratio <= before_ratio * 1.5 + 0.01,
                "duplicate ratio {before_ratio:.3} before the flap, {after_ratio:.3} two leases after"
            );
            assert!(
                after_latency <= before_latency * 1.02,
                "mean latency {before_latency:.0} µs before the flap, {after_latency:.0} µs two leases after"
            );
        });
    }
}

// (c) -----------------------------------------------------------------

#[test]
fn a_publisher_that_re_homes_is_followed_at_once() {
    for (topo, seed) in [(ring_with_chords(), 45), (random_overlay(), 46)] {
        on_every_net(seed, &topo, [0], |mut net, [publisher]| {
            net.start(&[publisher]);
            net.run_to(15.0);
            // The farthest-numbered broker. No broker ever sent its parent a
            // copy, so no parent ever muted its child: the old tree, walked
            // upwards from the new home and down every other branch, is open
            // — the one-lease allowance is not even drawn on.
            let new_home = net.brokers[net.brokers.len() - 1];
            net.station_mut(publisher).broker = new_home;
            net.run_to(15.0 + 2.0 * LEASE.as_secs_f64());
            let ratio = duplicate_ratio(&mut net, 40.0);
            net.station_mut(publisher).publishing = false;
            net.run_to(41.0);
            net.assert_exactly_once(&all_subs(&net), publisher, 0.0, 41.0, "old home and new");
            net.assert_no_duplicates(&[publisher]);
            assert!(ratio < 0.15, "duplicate ratio {ratio:.3} two leases after the move");
        });
    }
}

// (d) -----------------------------------------------------------------

#[test]
fn a_tree_broker_that_restarts_with_state_loss_is_routed_through_again() {
    for (topo, seed) in [(ring_with_chords(), 47), (random_overlay(), 48)] {
        on_every_net(seed, &topo, [0], |mut net, [publisher]| {
            net.start(&[publisher]);
            net.run_to(20.3);
            // A broker some other broker is fed through.
            let index_of = |n: NodeId| net.brokers.iter().position(|&b| b == n);
            let parents = (1..net.brokers.len()).filter_map(|c| index_of(net.broker(c).route_parent(publisher)?));
            let victim = parents.filter(|&p| p != 0).min().expect("a tree deeper than one hop");
            // It comes back knowing nothing and dials every neighbour, inside
            // the heartbeat deadline: only its hello says it started over.
            let neighbours: Vec<NodeId> =
                net.topo.neighbors(victim).iter().map(|&j| net.brokers[j]).collect();
            let cfg = BrokerConfig { neighbors: neighbours, ..BrokerConfig::default() };
            let respawn = move || broker(cfg.clone()) as Box<dyn Actor>;
            net.sim.set_respawn(net.brokers[victim], Box::new(respawn));
            net.sim.apply_fault(Fault::Crash { node: net.brokers[victim] });
            net.run_to(20.8);
            net.sim.apply_fault(Fault::Restart { node: net.brokers[victim], lose_state: true });
            let back = 20.8;
            net.run_to(back + 2.0 * LEASE.as_secs_f64());
            let ratio = duplicate_ratio(&mut net, 45.0);
            net.station_mut(publisher).publishing = false;
            net.run_to(46.0);
            // Its own subscriber's connection died with it.
            let subs: Vec<usize> = all_subs(&net).into_iter().filter(|&s| s != victim).collect();
            net.assert_exactly_once(&subs, publisher, 0.0, 20.0, "before the crash");
            net.assert_exactly_once(&subs, publisher, back + LEASE.as_secs_f64(), 46.0, "after the restart");
            net.assert_no_duplicates(&[publisher]);
            assert!(ratio < 0.15, "duplicate ratio {ratio:.3} two leases after the restart");
            let links = net.topo.neighbors(victim).len() as u32;
            assert_eq!(net.broker(victim).num_links(), links, "every neighbour took the hello");
        });
    }
}

// (e) -----------------------------------------------------------------

/// Delivers `msg` to broker `to` as if `from` had sent it.
fn say(sim: &mut ShardedSim, from: NodeId, to: NodeId, msg: Message) {
    let from = Endpoint::new(from, well_known::BROKER);
    sim.inject(to, Duration::ZERO, Incoming::Stream { from, to_port: well_known::BROKER, msg: msg.into() });
    sim.run_for(Duration::from_millis(50));
}

/// A stand-in neighbour: keeps what the broker under test sends it.
#[derive(Default)]
struct Peer {
    got: Vec<Message>,
}

impl Actor for Peer {
    fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
        if let Incoming::Stream { msg, .. } = event {
            self.got.push(msg.into_message());
        }
    }

    impl_actor_any!();
}

/// The `Publish`es the stand-in `peer` was sent.
fn publishes(sim: &ShardedSim, peer: NodeId) -> usize {
    let got = &sim.actor::<Peer>(peer).unwrap().got;
    got.iter().filter(|m| matches!(m, Message::Publish(_))).count()
}

/// Event `n` of `source`, on `t/x`.
fn event(n: u128, source: NodeId) -> Message {
    let topic = Topic::parse("t/x").unwrap();
    Message::Publish(Event { id: Uuid::from_u128(n), topic, source, payload: Default::default() })
}

/// Broker `x` and three stand-ins: `l` and `m`, which link to it and
/// want `t/**` once the body calls [`link_the_peers`], and `c` to
/// publish as. Returns the deployment and `(x, l, m, c)`.
fn broker_between_two_peers() -> (Deployment, [NodeId; 4]) {
    let mut d = lan(1234);
    let x = d.add("x".into(), RealmId(0), false, || broker(BrokerConfig::default()));
    let peers = ["l", "m", "c"].map(|name| d.add(name.into(), RealmId(0), false, || Box::new(Peer::default())));
    (d, [x, peers[0], peers[1], peers[2]])
}

/// `l` and `m` say hello to `x` and subscribe to `t/**`.
fn link_the_peers(sim: &mut ShardedSim, [x, l, m, _]: [NodeId; 4]) {
    for peer in [l, m] {
        say(sim, peer, x, Message::LinkHello { from: peer, realm: RealmId(0) });
        let filter = TopicFilter::parse("t/**").unwrap();
        say(sim, peer, x, Message::Subscribe { filter, origin: peer, seq: 1 });
    }
}

fn broker_of(sim: &ShardedSim, x: NodeId) -> &nb::broker::Broker {
    &sim.actor::<DiscoveryBrokerActor>(x).unwrap().broker
}

#[test]
fn a_prune_mutes_its_link_for_one_lease_and_no_longer() {
    let ids @ [x, l, m, client] = broker_between_two_peers().1;
    at_one_and_four_workers(|| broker_between_two_peers().0, |sim| {
        link_the_peers(sim, ids);
        say(sim, client, x, event(1, client));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (1, 1), "no mute: every link");

        say(sim, l, x, Message::Prune { source: client, lease_ms: 6_000 });
        assert_eq!(broker_of(sim, x).prunes_received, 1);
        say(sim, client, x, event(2, client));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (1, 2), "R1: not to the muted link");
        say(sim, l, x, event(3, l));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (1, 3), "another publisher's event");
        say(sim, m, x, event(4, m));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (2, 3), "is none of that mute's business");

        // Keep both links alive past the lease; the mute is not renewed.
        let lease_on = |sim: &mut ShardedSim| {
            for _ in 0..3 {
                sim.run_for(Duration::from_secs(2));
                for peer in [l, m] {
                    say(sim, peer, x, Message::Heartbeat { from: peer, seq: 0 });
                }
                let fresh = event(sim.now().as_nanos().into(), client);
                say(sim, client, x, fresh);
            }
        };
        lease_on(sim);
        assert_eq!(publishes(sim, m), 6);
        assert_eq!(publishes(sim, l), 3, "flooding again once the lease is out");
        // A peer cannot buy more than this broker's own lease.
        say(sim, l, x, Message::Prune { source: client, lease_ms: u32::MAX });
        lease_on(sim);
        assert_eq!(publishes(sim, l), 4, "two events muted, the third is past the lease");
        // Nor does a `Prune` from a stranger mean anything.
        say(sim, client, x, Message::Prune { source: client, lease_ms: 6_000 });
        assert_eq!(broker_of(sim, x).prunes_received, 2);
    });
}

#[test]
fn link_down_forgets_the_link_in_every_route() {
    let ids @ [x, l, m, client] = broker_between_two_peers().1;
    at_one_and_four_workers(|| broker_between_two_peers().0, |sim| {
        link_the_peers(sim, ids);
        say(sim, l, x, event(1, client));
        say(sim, m, x, event(1, client));
        assert_eq!(broker_of(sim, x).route_parent(client), Some(l));
        assert_eq!(broker_of(sim, x).prunes_sent, 1, "R2: the duplicate's link is asked to stop");
        say(sim, m, x, Message::Prune { source: client, lease_ms: 6_000 });

        say(sim, l, x, Message::LinkClose { from: l });
        assert_eq!(broker_of(sim, x).route_parent(client), None, "R5: a lost parent is unset");
        say(sim, m, x, Message::LinkClose { from: m });
        // A peer that links again starts with none of its old leases.
        say(sim, m, x, Message::LinkHello { from: m, realm: RealmId(0) });
        let filter = TopicFilter::parse("t/**").unwrap();
        say(sim, m, x, Message::Subscribe { filter, origin: m, seq: 2 });
        let before = publishes(sim, m);
        say(sim, client, x, event(2, client));
        assert_eq!(publishes(sim, m), before + 1, "the old link's mute went with it");
        assert_eq!(broker_of(sim, x).route_parent(client), Some(client));
    });
}

#[test]
fn a_client_cannot_publish_in_another_nodes_name() {
    let ids @ [x, l, m, client] = broker_between_two_peers().1;
    let other = NodeId(900);
    at_one_and_four_workers(|| broker_between_two_peers().0, |sim| {
        link_the_peers(sim, ids);
        say(sim, client, x, event(1, other));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (0, 0), "a forged source goes nowhere");
        assert_eq!(broker_of(sim, x).forged_sources_dropped, 1);
        assert_eq!(broker_of(sim, x).route_parent(other), None, "and steers no reverse path");
        // The forgery claimed no event id: the real event still routes.
        say(sim, l, x, event(1, other));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (0, 1), "a link relays any source");
        say(sim, client, x, event(2, client));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (1, 2), "a client speaks for itself");
        assert_eq!(broker_of(sim, x).forged_sources_dropped, 1);
    });
}

#[test]
fn a_mute_outlives_the_loss_of_a_lower_peer_and_not_its_own_link() {
    let ids @ [x, l, m, client] = broker_between_two_peers().1;
    assert!(l < m, "l's lease sorts first");
    at_one_and_four_workers(|| broker_between_two_peers().0, |sim| {
        link_the_peers(sim, ids);
        say(sim, client, x, event(1, client));
        for peer in [l, m] {
            say(sim, peer, x, Message::Prune { source: client, lease_ms: 6_000 });
        }
        say(sim, client, x, event(2, client));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (1, 1), "both links muted");

        // l's entry leaves the sorted leases and m's shifts down.
        say(sim, l, x, Message::LinkClose { from: l });
        say(sim, client, x, event(3, client));
        assert_eq!(publishes(sim, m), 1, "m's mute holds after the shift");

        // l links again under the same id: no lease, so it is sent to.
        say(sim, l, x, Message::LinkHello { from: l, realm: RealmId(0) });
        let filter = TopicFilter::parse("t/**").unwrap();
        say(sim, l, x, Message::Subscribe { filter, origin: l, seq: 2 });
        say(sim, client, x, event(4, client));
        assert_eq!((publishes(sim, l), publishes(sim, m)), (2, 1), "only the old mute went");
    });
}

#[test]
fn a_prune_in_flight_when_the_faster_feed_flips_never_mutes_both_feeds() {
    // Broker `x`, a subscriber on it, and two feeds of near-equal
    // latency played by hand.
    let (x, sub, l, m) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
    let describe = || {
        let mut d = lan(49);
        d.add("x".into(), RealmId(0), false, || broker(BrokerConfig::default()));
        d.add("sub".into(), RealmId(0), false, move || Box::new(Station::subscriber(x)));
        for feed in ["l", "m"] {
            d.add(feed.into(), RealmId(0), false, || Box::new(IdleActor));
        }
        d
    };
    let source = NodeId(900);
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(1));
        for feed in [l, m] {
            say(sim, feed, x, Message::LinkHello { from: feed, realm: RealmId(0) });
        }
        let mut seq = 0u64;
        // The next event, a copy from each of `feeds` in that order.
        let mut copies = |sim: &mut ShardedSim, feeds: &[NodeId]| {
            let mut payload = seq.to_le_bytes().to_vec();
            payload.extend_from_slice(&sim.now().as_nanos().to_le_bytes());
            let topic = Topic::parse("feed/x").unwrap();
            let ev = Event { id: Uuid::from_u128(seq.into()), topic, source, payload: payload.into() };
            seq += 1;
            for &feed in feeds {
                say(sim, feed, x, Message::Publish(ev.clone()));
            }
        };
        let broker = |sim: &ShardedSim| {
            let b = broker_of(sim, x);
            (b.route_parent(source), b.prunes_sent, b.reparented)
        };

        copies(sim, &[m, l]);
        assert_eq!(broker(sim), (Some(m), 1, 0), "R2: m is the parent, l is asked to stop");
        // l's next copy was sent before the prune reached it, and this time
        // it wins. Muting m now would leave no feed once l complies.
        copies(sim, &[l, m]);
        assert_eq!(broker(sim), (Some(m), 1, 0), "R4's hold-down: l won once, and has been asked; m stays");
        copies(sim, &[m, l]);
        assert_eq!(broker(sim), (Some(m), 1, 0), "one ask a lease, however many duplicates");

        // l complies. A lease on, its mute has lapsed and it is the faster
        // feed. Winning once proves nothing — that is how the race above
        // began; winning for a whole lease does: the parent moves, and it is
        // m that is asked.
        for _ in 0..3 {
            sim.run_for(Duration::from_secs(2));
            say(sim, l, x, Message::Heartbeat { from: l, seq: 0 });
            copies(sim, &[m]);
        }
        copies(sim, &[l, m]);
        assert_eq!(broker(sim), (Some(m), 1, 0), "R4's hold-down: one win moves nothing");
        for _ in 0..3 {
            sim.run_for(Duration::from_secs(2));
            copies(sim, &[l, m]);
        }
        assert_eq!(broker(sim), (Some(l), 2, 1), "R4: re-parented to the feed that beat the parent for a lease");
        copies(sim, &[l, m]);
        assert_eq!(broker(sim), (Some(l), 2, 1), "m has been asked; its copies in flight change nothing");
        let got: Vec<u64> = sim.actor::<Station>(sub).unwrap().got.iter().map(|d| d.seq).collect();
        assert_eq!(got, (0..11).collect::<Vec<u64>>(), "the subscriber saw every event once");
    });
}

/// A stand-in ingress broker: keeps who sent it a `Prune`.
#[derive(Default)]
struct Ingress {
    pruned_by: Vec<NodeId>,
}

impl Actor for Ingress {
    fn on_incoming(&mut self, event: Incoming, _ctx: &mut dyn Context) {
        if let Incoming::Stream { from, msg, .. } = event {
            if matches!(msg.message(), Message::Prune { .. }) {
                self.pruned_by.push(from.node);
            }
        }
    }

    impl_actor_any!();
}

#[test]
fn two_neighbours_that_each_beat_the_ingress_once_never_take_each_other_for_parent() {
    // A triangle with no fault anywhere: brokers `a` and `b`, linked, a
    // subscriber on each, and their common upstream `i` played by hand.
    let (a, b, subs, i) = (NodeId(0), NodeId(1), [NodeId(2), NodeId(3)], NodeId(4));
    let describe = || {
        let mut d = lan(50);
        d.add("a".into(), RealmId(0), false, || broker(BrokerConfig::default()));
        let cfg = BrokerConfig { neighbors: vec![a], ..BrokerConfig::default() };
        d.add("b".into(), RealmId(0), false, move || broker(cfg.clone()));
        for x in [a, b] {
            d.add("s".into(), RealmId(0), false, move || Box::new(Station::subscriber(x)));
        }
        d.add("i".into(), RealmId(0), false, || Box::new(Ingress::default()));
        d
    };
    let source = NodeId(900);
    at_one_and_four_workers(describe, |sim| {
        sim.run_for(Duration::from_secs(1));
        for x in [a, b] {
            say(sim, i, x, Message::LinkHello { from: i, realm: RealmId(0) });
        }
        let mut seq = 0u64;
        // The next event: `i`'s copies to `first`, all at once, and 50 ms
        // later — the neighbour's copy has crossed by then — to `then`.
        let mut publish = |sim: &mut ShardedSim, first: &[NodeId], then: &[NodeId]| {
            let mut payload = seq.to_le_bytes().to_vec();
            payload.extend_from_slice(&sim.now().as_nanos().to_le_bytes());
            let topic = Topic::parse("feed/x").unwrap();
            let ev = Event { id: Uuid::from_u128(seq.into()), topic, source, payload: payload.into() };
            seq += 1;
            let from = Endpoint::new(i, well_known::BROKER);
            for wave in [first, then] {
                for &to in wave {
                    let msg = Message::Publish(ev.clone()).into();
                    sim.inject(to, Duration::ZERO, Incoming::Stream { from, to_port: well_known::BROKER, msg });
                }
                sim.run_for(Duration::from_millis(50));
            }
        };
        let state = |sim: &ShardedSim, x: NodeId| {
            let b = broker_of(sim, x);
            (b.route_parent(source), b.prunes_sent, b.reparented)
        };

        // `i` feeds both; their copies to each other are duplicates, and
        // each asks the other to stop for a lease.
        publish(sim, &[a, b], &[]);
        for _ in 0..2 {
            sim.run_for(Duration::from_secs(2));
            publish(sim, &[a, b], &[]);
        }
        assert_eq!((state(sim, a), state(sim, b)), ((Some(i), 1, 0), (Some(i), 1, 0)));
        // Both mutes lapse together. The next event reaches `a` through `b`
        // first: were `a` to move to `b` now and prune `i` …
        sim.run_for(Duration::from_secs(2));
        publish(sim, &[b], &[a]);
        // … then with that `Prune` in flight, the event after — `i`'s copy
        // fresh at `a`, forwarded, and at `b` ahead of `i`'s own — would
        // move `b` to `a`: each the other's parent, `i` muting both, and
        // both subscribers starved until a lease runs out.
        publish(sim, &[a], &[b]);
        assert!(sim.actor::<Ingress>(i).unwrap().pruned_by.is_empty(), "the only real feed was asked to stop");
        assert_eq!((state(sim, a), state(sim, b)), ((Some(i), 1, 0), (Some(i), 1, 0)));
        // The copies that crossed were fresh, so nobody was asked anything;
        // the next pair of duplicates renews the asks, as every lease does.
        publish(sim, &[a, b], &[]);
        assert_eq!((state(sim, a), state(sim, b)), ((Some(i), 2, 0), (Some(i), 2, 0)));
        assert!(sim.actor::<Ingress>(i).unwrap().pruned_by.is_empty());
        for sub in subs {
            let got: Vec<u64> = sim.actor::<Station>(sub).unwrap().got.iter().map(|d| d.seq).collect();
            assert_eq!(got, (0..6).collect::<Vec<u64>>(), "every event, once");
        }
    });
}

// proptest ------------------------------------------------------------

mod any_overlay_any_schedule_one_link_fault {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Over any connected overlay of up to eight brokers, with the
        /// publisher anywhere and going quiet for any stretch, and any one
        /// link failing — for good, or for a flap short enough that both
        /// ends keep it: nothing is delivered twice, and everything
        /// published outside one lease of the partition and of the heal
        /// reaches every subscriber the overlay without that link still
        /// connects to the publisher, exactly once.
        #[test]
        fn exactly_once_outside_one_lease_of_the_fault(
            seed in 0u64..1_000,
            parents in prop::collection::vec(any::<prop::sample::Index>(), 2..8),
            chords in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 0..5),
            home in any::<prop::sample::Index>(),
            link in any::<prop::sample::Index>(),
            fault_ds in 60u64..200,
            flap_ds in prop::option::of(5u64..35),
            quiet_from_ds in 0u64..150,
            quiet_ds in 0u64..100,
        ) {
            let n = parents.len() + 1;
            let mut edges: Vec<(usize, usize)> =
                parents.iter().enumerate().map(|(i, p)| (p.index(i + 1), i + 1)).collect();
            edges.extend(chords.iter().map(|(a, b)| (a.index(n), b.index(n))));
            let topo = Topology::from_edges(n, edges);
            prop_assert!(topo.is_connected());
            let cut = topo.edges()[link.index(topo.edges().len())];
            let home = home.index(n);

            on_every_net(seed, &topo, [home], |mut net, [publisher]| {
                let (a, b) = (net.brokers[cut.0], net.brokers[cut.1]);
                let at = Duration::from_millis(fault_ds * 100);
                let fault = at.as_secs_f64();
                let (plan, heal) = match flap_ds {
                    Some(ds) => {
                        let down = Duration::from_millis(ds * 100);
                        (FaultPlan::new().flap_at(at, a, b, down), Some(fault + down.as_secs_f64()))
                    }
                    None => (FaultPlan::new().fault_at(at, Fault::Partition { a, b }), None),
                };
                net.sim.apply_fault_plan(&plan);
                net.start(&[publisher]);
                let quiet = 4.0 + quiet_from_ds as f64 / 10.0;
                net.run_to(quiet);
                net.station_mut(publisher).publishing = false;
                net.run_to(quiet + quiet_ds as f64 / 10.0);
                net.station_mut(publisher).publishing = true;
                let lease = LEASE.as_secs_f64();
                let end = (fault + 3.5).max(quiet + quiet_ds as f64 / 10.0) + 2.0 * lease + 2.0;
                net.run_to(end);
                net.station_mut(publisher).publishing = false;
                net.run_to(end + 1.0);

                net.assert_no_duplicates(&[publisher]);
                let near = |t: f64, fault: f64| (fault - 0.2..fault + lease + 0.05).contains(&t);
                let connected = net.reachable_without(home, cut);
                let sent = net.station(publisher).sent.clone();
                for sub in 0..n {
                    let counts = net.counts(sub, publisher);
                    for (seq, at) in sent.iter().enumerate() {
                        let at = at.as_secs_f64();
                        let calm = !near(at, fault) && !heal.is_some_and(|heal| near(at, heal));
                        let owed = calm && (at < fault || connected.contains(&sub));
                        let n = counts.get(&(seq as u64)).copied().unwrap_or(0);
                        assert!(
                            n == 1 || !owed,
                            "subscriber {} missed event {} published at {:.1} s (link {:?} down at {:.1} s, up at {:?}, publisher at {}, seed {})",
                            sub, seq, at, cut, fault, heal, home, seed
                        );
                    }
                }
            });
        }
    }
}

/// Two BDNs flood one request under its UUID at once (a client that lost
/// its first BDN's ack asks the next) into a ring that pruned for both, after
/// B was silent for more than a lease, so every broker's route for B has
/// lapsed to no parent. A copy from BDN B that reaches a broker after
/// BDN A's is a duplicate for source B: it is dropped at the cache, and
/// a route with no parent sends no `Prune` for it (R2), so B's tree stays
/// whole — every broker answers the shared request once, and B's next
/// request alone still reaches every broker.
#[test]
fn two_bdns_flooding_one_request_leave_each_bdns_tree_whole() {
    use nb::discovery::bdn::{Bdn, BdnConfig};
    let topo = ring_with_chords();
    let n = topo.dial_lists().len();
    let (a, b, requester) = (NodeId(n as u32), NodeId(n as u32 + 1), NodeId(n as u32 + 2));
    let describe = || {
        let mut d = lan(53);
        for (i, dials) in topo.dial_lists().into_iter().enumerate() {
            let neighbors = dials.iter().map(|&j| NodeId(j as u32)).collect();
            let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
            d.add(format!("b{i}"), RealmId(0), false, move || {
                Box::new(DiscoveryBrokerActor::new(cfg.clone(), vec![a, b], ResponsePolicy::open()))
            });
        }
        // b2 is two hops from b0 whichever way, so the floods race.
        for (name, ingress) in [("bdnA", 0), ("bdnB", 2)] {
            let cfg = BdnConfig { attached_brokers: vec![NodeId(ingress)], auto_attach: false, ..BdnConfig::default() };
            d.add(name.to_string(), RealmId(0), false, move || Box::new(Bdn::new(cfg.clone())));
        }
        d.add("requester".to_string(), RealmId(0), false, || Box::new(IdleActor));
        d
    };
    at_one_and_four_workers(describe, |sim| {
        let brokers: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let ask = |sim: &mut ShardedSim, bdn: NodeId, id: u128, delay: Duration| {
            let request = nb::wire::DiscoveryRequest {
                request_id: Uuid::from_u128(id),
                requester,
                hostname: "requester".into(),
                realm: RealmId(0),
                reply_to: Endpoint::new(requester, well_known::DISCOVERY_REPLY),
                transports: vec![],
                credentials: None,
                issued_at_utc: 0,
            };
            let from = Endpoint::new(requester, well_known::DISCOVERY_REPLY);
            let msg = Message::Discovery(request).into();
            sim.inject(bdn, delay, Incoming::Datagram { from, to_port: well_known::BDN, msg });
        };
        let answered = |sim: &ShardedSim| -> Vec<u64> {
            brokers.iter().map(|&x| sim.actor::<DiscoveryBrokerActor>(x).unwrap().responder.responses_sent).collect()
        };
        let prunes = |sim: &ShardedSim| -> u64 { brokers.iter().map(|&x| broker_of(sim, x).prunes_sent).sum() };
        sim.run_for(Duration::from_secs(4));

        // Each BDN floods its own requests until both trees have pruned.
        for k in 0..8 {
            ask(sim, a, 100 + k, Duration::ZERO);
            ask(sim, b, 200 + k, Duration::from_millis(100));
            sim.run_for(Duration::from_millis(300));
        }
        sim.run_for(Duration::from_secs(1));
        assert!(answered(sim).iter().all(|&r| r == 16), "each request answered once: {:?}", answered(sim));
        assert!(prunes(sim) > 0, "the ring pruned");

        // A keeps asking while B is silent for longer than a lease.
        for k in 0..8 {
            ask(sim, a, 300 + k, Duration::ZERO);
            sim.run_for(LEASE / 6);
        }
        assert!(answered(sim).iter().all(|&r| r == 24), "A's requests answered once: {:?}", answered(sim));

        // One request through both BDNs at once.
        ask(sim, a, 400, Duration::ZERO);
        ask(sim, b, 400, Duration::ZERO);
        sim.run_for(Duration::from_secs(1));
        let handled: Vec<u64> = [a, b].iter().map(|&x| sim.actor::<Bdn>(x).unwrap().requests_handled).collect();
        assert_eq!(handled, [17, 9], "both BDNs flooded it");
        assert!(answered(sim).iter().all(|&r| r == 25), "the shared request answered once: {:?}", answered(sim));
        let dropped: u64 = brokers.iter().map(|&x| broker_of(sim, x).duplicates_suppressed).sum();
        assert!(dropped > 0, "the second BDN's copies stopped at the caches");

        // B alone, then A alone, inside a lease: neither tree lost a broker.
        ask(sim, b, 500, Duration::ZERO);
        ask(sim, a, 501, Duration::from_millis(300));
        sim.run_for(Duration::from_secs(1));
        assert!(answered(sim).iter().all(|&r| r == 27), "no broker starved: {:?}", answered(sim));
    });
}
