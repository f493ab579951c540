//! `cluster` — run a BDN/broker/client deployment from a configuration
//! file on the simulator: seeded, in virtual time, so the same file
//! prints the same bytes on every run.
//!
//! ```sh
//! cargo run --release --bin cluster -- examples/cluster.conf
//! ```
//!
//! The configuration format is the workspace's `key = value` format
//! (see `nb_util::Config`). Cluster-wide keys:
//!
//! ```text
//! cluster.seed = 7            # RNG seed
//! cluster.duration.ms = 5000  # virtual time to run before the summary
//! cluster.wan.ms = 15         # inter-realm one-way latency
//! ```
//!
//! Each node is declared by a `node.<name>.role` key (`bdn`, `broker` or
//! `client`) plus per-role settings; `examples/cluster.conf` is a whole
//! deployment:
//!
//! ```text
//! node.edge.role = broker
//! node.edge.realm = 1                # default 0
//! node.edge.bdns = locator           # bdn nodes to advertise to / ask
//! node.edge.neighbors = hub          # brokers this one dials
//! node.app.discover.after.ms = 900   # a client's discovery (default 1000)
//! ```
//!
//! A malformed number, a reference to an undeclared node or a `bdns`
//! entry that is not a bdn exits 2 with the key or node named.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::client::TIMER_START;
use nb::discovery::{
    Deployment, DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, Network, ResponsePolicy,
};
use nb::net::{ClockProfile, Incoming, LinkSpec, Sim};
use nb::util::Config;
use nb::wire::{NodeId, RealmId};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    Bdn,
    Broker,
    Client,
}

#[derive(Debug)]
struct NodeDecl {
    name: String,
    role: Role,
    realm: RealmId,
    bdns: Vec<String>,
    neighbors: Vec<String>,
    discover_after: Duration,
}

fn fail(msg: &str) -> ! {
    eprintln!("cluster: {msg}");
    std::process::exit(2);
}

fn parse_decls(cfg: &Config) -> Vec<NodeDecl> {
    let mut names: Vec<String> = cfg
        .iter()
        .filter_map(|(k, _)| {
            let rest = k.strip_prefix("node.")?;
            let (name, key) = rest.split_once('.')?;
            (key == "role").then(|| name.to_string())
        })
        .collect();
    names.sort();
    if names.is_empty() {
        fail("no `node.<name>.role` declarations found");
    }
    let mut decls: Vec<NodeDecl> = names
        .into_iter()
        .map(|name| {
            let key = |key: &str| format!("node.{name}.{key}");
            let role = match cfg.get(&key("role")) {
                Some("bdn") => Role::Bdn,
                Some("broker") => Role::Broker,
                Some("client") => Role::Client,
                other => fail(&format!("node {name}: unknown role {other:?}")),
            };
            let number = |k: &str, default: u64| {
                cfg.get_u64(&key(k), default).unwrap_or_else(|e| fail(&e.to_string()))
            };
            let realm = u16::try_from(number("realm", 0)).unwrap_or_else(|_| {
                fail(&format!("config key {:?} is not a realm (0-65535)", key("realm")))
            });
            let discover_after = Duration::from_millis(number("discover.after.ms", 1000));
            let bdns = cfg.get_list(&key("bdns"));
            let neighbors = cfg.get_list(&key("neighbors"));
            NodeDecl { name, role, realm: RealmId(realm), bdns, neighbors, discover_after }
        })
        .collect();
    // Every referenced name must be a declared node — catch typos here
    // rather than silently dropping them during cycle-breaking below —
    // and every `bdns` entry must name a bdn.
    let roles: BTreeMap<&str, Role> = decls.iter().map(|d| (d.name.as_str(), d.role)).collect();
    for d in &decls {
        for r in d.bdns.iter().chain(&d.neighbors) {
            if !roles.contains_key(r.as_str()) {
                fail(&format!("node {}: reference to undeclared node {r:?}", d.name));
            }
        }
        if let Some(r) = d.bdns.iter().find(|r| roles[r.as_str()] != Role::Bdn) {
            let role = format!("{:?}", roles[r.as_str()]).to_lowercase();
            fail(&format!("node {}: bdns entry {r:?} is a {role}, not a bdn", d.name));
        }
    }
    // Creation order: BDNs, then brokers, then clients, each in name
    // order. Brokers are also ordered by their neighbor references (links
    // are mutual once established, so each edge needs one dialler): each
    // pass creates every broker whose neighbours all exist; on a
    // declaration cycle the first pending broker is created dialling only
    // those that exist (the rest dial it if they declare the edge too).
    decls.sort_by_key(|d| d.role);
    let (mut pending, mut ordered): (Vec<NodeDecl>, Vec<NodeDecl>) =
        decls.into_iter().partition(|d| d.role == Role::Broker);
    let mut created: BTreeSet<String> = ordered.iter().map(|d| d.name.clone()).collect();
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&i| pending[i].neighbors.iter().all(|n| created.contains(n)))
            .collect();
        let picked: Vec<NodeDecl> = if ready.is_empty() {
            let mut d = pending.remove(0);
            d.neighbors.retain(|n| created.contains(n));
            vec![d]
        } else {
            ready.into_iter().rev().map(|i| pending.remove(i)).collect()
        };
        created.extend(picked.iter().map(|d| d.name.clone()));
        ordered.extend(picked);
    }
    ordered.sort_by_key(|d| d.role);
    ordered
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "examples/cluster.conf".to_string());
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let cfg = Config::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));

    let seed = cfg.get_u64("cluster.seed", 7).unwrap_or_else(|e| fail(&e.to_string()));
    let duration = Duration::from_millis(
        cfg.get_u64("cluster.duration.ms", 5000).unwrap_or_else(|e| fail(&e.to_string())),
    );
    let wan_ms = cfg.get_u64("cluster.wan.ms", 15).unwrap_or_else(|e| fail(&e.to_string()));

    let decls = parse_decls(&cfg);
    println!("cluster: {} nodes from {path} (seed {seed})", decls.len());

    // A node's id is its index in creation order.
    let ids: BTreeMap<&str, NodeId> =
        decls.iter().enumerate().map(|(i, d)| (d.name.as_str(), NodeId(i as u32))).collect();
    // Fast clock sync so short demo runs see synced timestamps.
    let clock = ClockProfile {
        max_true_offset: Duration::from_millis(250),
        min_residual: Duration::from_millis(1),
        max_residual: Duration::from_millis(10),
        min_sync_delay: Duration::from_millis(60),
        max_sync_delay: Duration::from_millis(150),
    };
    let inter = LinkSpec::wan(Duration::from_millis(wan_ms));
    let network = Network::Realms { intra: LinkSpec::lan(), inter, wan: None };
    let mut deployment = Deployment { seed, clock, nodes: Vec::new(), network };
    let mut clients: Vec<(&str, NodeId, Duration)> = Vec::new();
    for decl in &decls {
        let me = ids[decl.name.as_str()];
        // A broker dials only nodes created before it.
        let resolve = |names: &[String]| -> Vec<NodeId> {
            let resolved = |n: &String| match ids[n.as_str()] {
                id if id < me => id,
                _ => fail(&format!(
                    "node {}: reference to {n:?} (not created yet or unknown — \
                     note creation order is bdn < broker < client)",
                    decl.name
                )),
            };
            names.iter().map(resolved).collect()
        };
        let (name, realm) = (decl.name.clone(), decl.realm);
        match decl.role {
            Role::Bdn => {
                deployment.add(name, realm, false, || Box::new(Bdn::new(BdnConfig::default())))
            }
            Role::Broker => {
                let (bdns, neighbors) = (resolve(&decl.bdns), resolve(&decl.neighbors));
                let cfg = BrokerConfig {
                    hostname: format!("{}.cluster.local", decl.name),
                    machine: MachineProfile::default_2005(),
                    neighbors,
                    ..BrokerConfig::default()
                };
                let policy = ResponsePolicy::open();
                deployment.add(name, realm, false, move || {
                    Box::new(DiscoveryBrokerActor::new(cfg.clone(), bdns.clone(), policy.clone()))
                })
            }
            Role::Client => {
                let cfg = DiscoveryConfig {
                    bdns: resolve(&decl.bdns),
                    collection_window: Duration::from_millis(1500),
                    max_responses: 8,
                    ping_window: Duration::from_millis(500),
                    ack_timeout: Duration::from_millis(700),
                    ..DiscoveryConfig::default()
                };
                clients.push((&decl.name, me, decl.discover_after));
                deployment.add(name, realm, false, move || {
                    Box::new(DiscoveryClient::with_auto_start(cfg.clone(), false))
                })
            }
        };
        println!("  + {:<12} {:?} as {me}", decl.name, decl.role);
    }
    let mut sim = deployment.build(Sim::with_clock_profile);

    // Queue each client's discovery at its configured delay, then run.
    clients.sort_by_key(|(_, _, after)| *after);
    for (name, id, after) in &clients {
        println!("  > {name}: discovery at +{} ms", after.as_millis());
        sim.inject(*id, *after, Incoming::Timer { token: TIMER_START });
    }
    sim.run_for(duration);

    println!("\n=== cluster summary ===");
    let name_of = |id: NodeId| decls.get(id.0 as usize).map(|d| d.name.as_str());
    for (i, NodeDecl { name, .. }) in decls.iter().enumerate() {
        let any = sim.actor_dyn(NodeId(i as u32)).expect("every declared node is up").as_any();
        if let Some(b) = any.downcast_ref::<Bdn>() {
            println!(
                "  {name:<12} bdn     registry={} requests={} dupes={}",
                b.registry_len(),
                b.requests_handled,
                b.duplicate_requests
            );
        } else if let Some(b) = any.downcast_ref::<DiscoveryBrokerActor>() {
            println!(
                "  {name:<12} broker  links={} clients={} responses={} events={}",
                b.broker.num_links(),
                b.broker.num_clients(),
                b.responder.responses_sent,
                b.broker.events_routed
            );
        } else if let Some(c) = any.downcast_ref::<DiscoveryClient>() {
            for (i, o) in c.completed.iter().enumerate() {
                let chosen = o.chosen.and_then(name_of).unwrap_or("-");
                println!(
                    "  {name:<12} client  run {i}: -> {chosen} in {:?} ({} responses{})",
                    o.phases.total(),
                    o.responses_received,
                    if o.used_multicast { ", multicast" } else { "" }
                );
            }
            if c.completed.is_empty() {
                println!("  {name:<12} client  (no completed discovery — still {:?})", c.phase());
            }
        }
    }
}
