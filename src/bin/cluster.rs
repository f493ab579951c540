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
//! Each node is declared by a `node.<name>.role` key plus per-role
//! settings:
//!
//! ```text
//! node.locator.role = bdn
//! node.locator.realm = 0
//!
//! node.hub.role = broker
//! node.hub.realm = 0
//! node.hub.bdns = locator
//! node.hub.neighbors =
//!
//! node.edge.role = broker
//! node.edge.realm = 1
//! node.edge.bdns = locator
//! node.edge.neighbors = hub
//!
//! node.app.role = client
//! node.app.realm = 0
//! node.app.bdns = locator
//! node.app.discover.after.ms = 900   # virtual time of the discovery
//! ```

use std::collections::BTreeMap;
use std::time::Duration;

use nb::broker::{BrokerConfig, MachineProfile};
use nb::discovery::bdn::{Bdn, BdnConfig};
use nb::discovery::client::TIMER_START;
use nb::discovery::{DiscoveryBrokerActor, DiscoveryClient, DiscoveryConfig, ResponsePolicy};
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
    names.dedup();
    if names.is_empty() {
        fail("no `node.<name>.role` declarations found");
    }
    let mut decls: Vec<NodeDecl> = names
        .into_iter()
        .map(|name| {
            let get = |key: &str| cfg.get(&format!("node.{name}.{key}"));
            let role = match get("role") {
                Some("bdn") => Role::Bdn,
                Some("broker") => Role::Broker,
                Some("client") => Role::Client,
                other => fail(&format!("node {name}: unknown role {other:?}")),
            };
            let realm = RealmId(
                get("realm").and_then(|v| v.parse().ok()).unwrap_or(0u16),
            );
            let list = |key: &str| cfg.get_list(&format!("node.{name}.{key}"));
            let discover_after = Duration::from_millis(
                get("discover.after.ms").and_then(|v| v.parse().ok()).unwrap_or(1000u64),
            );
            let bdns = list("bdns");
            let neighbors = list("neighbors");
            NodeDecl { name, role, realm, bdns, neighbors, discover_after }
        })
        .collect();
    // Every referenced name must be a declared node — catch typos here
    // rather than silently dropping them during cycle-breaking below.
    let declared: std::collections::BTreeSet<&str> =
        decls.iter().map(|d| d.name.as_str()).collect();
    for d in &decls {
        for r in d.bdns.iter().chain(d.neighbors.iter()) {
            if !declared.contains(r.as_str()) {
                fail(&format!("node {}: reference to undeclared node {r:?}", d.name));
            }
        }
    }
    // Creation order: BDNs, then brokers, then clients — so every name a
    // node references already has an id. Brokers are additionally
    // topologically ordered by their neighbor references (links are
    // mutual once established, so each edge only needs one dialler; on a
    // declaration cycle the remaining brokers are created in name order
    // and dial the neighbours that already exist).
    decls.sort_by(|a, b| a.role.cmp(&b.role).then(a.name.cmp(&b.name)));
    let mut ordered: Vec<NodeDecl> = Vec::with_capacity(decls.len());
    let mut pending: Vec<NodeDecl> = Vec::new();
    let mut created: std::collections::BTreeSet<String> = Default::default();
    for decl in decls {
        if decl.role == Role::Broker {
            pending.push(decl);
        } else {
            created.insert(decl.name.clone());
            ordered.push(decl);
        }
    }
    // BDNs sorted first already (Role ordering); slot brokers before
    // clients: remember where clients start.
    while !pending.is_empty() {
        let ready: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, d)| d.neighbors.iter().all(|n| created.contains(n)))
            .map(|(i, _)| i)
            .collect();
        if ready.is_empty() {
            // Cycle: create the first pending broker, dropping the dials
            // to not-yet-created peers (they will dial us instead if the
            // edge is declared on their side too).
            let mut d = pending.remove(0);
            d.neighbors.retain(|n| created.contains(n));
            created.insert(d.name.clone());
            ordered.push(d);
            continue;
        }
        for i in ready.into_iter().rev() {
            let d = pending.remove(i);
            created.insert(d.name.clone());
            ordered.push(d);
        }
    }
    // Re-sort so clients still come last (topological pass appended
    // brokers after them).
    ordered.sort_by_key(|a| a.role);
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

    // Fast clock sync so short demo runs see synced timestamps.
    let clocks = ClockProfile {
        max_true_offset: Duration::from_millis(250),
        min_residual: Duration::from_millis(1),
        max_residual: Duration::from_millis(10),
        min_sync_delay: Duration::from_millis(60),
        max_sync_delay: Duration::from_millis(150),
    };
    let mut sim = Sim::with_clock_profile(seed, clocks);
    sim.network_mut().intra_realm_spec = LinkSpec::lan();
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(wan_ms));

    let mut ids: BTreeMap<String, NodeId> = BTreeMap::new();
    let mut clients: Vec<(String, NodeId, Duration)> = Vec::new();
    let resolve = |ids: &BTreeMap<String, NodeId>, names: &[String], me: &str| -> Vec<NodeId> {
        names
            .iter()
            .map(|n| {
                *ids.get(n).unwrap_or_else(|| {
                    fail(&format!(
                        "node {me}: reference to {n:?} (not created yet or unknown — \
                         note creation order is bdn < broker < client)"
                    ))
                })
            })
            .collect()
    };

    for decl in &decls {
        let id = match decl.role {
            Role::Bdn => {
                sim.add_node(&decl.name, decl.realm, Box::new(Bdn::new(BdnConfig::default())))
            }
            Role::Broker => {
                let bdns = resolve(&ids, &decl.bdns, &decl.name);
                let neighbors = resolve(&ids, &decl.neighbors, &decl.name);
                let actor = DiscoveryBrokerActor::new(
                    BrokerConfig {
                        hostname: format!("{}.cluster.local", decl.name),
                        machine: MachineProfile::default_2005(),
                        neighbors,
                        ..BrokerConfig::default()
                    },
                    bdns,
                    ResponsePolicy::open(),
                );
                sim.add_node(&decl.name, decl.realm, Box::new(actor))
            }
            Role::Client => {
                let bdns = resolve(&ids, &decl.bdns, &decl.name);
                let dcfg = DiscoveryConfig {
                    bdns,
                    collection_window: Duration::from_millis(1500),
                    max_responses: 8,
                    ping_window: Duration::from_millis(500),
                    ack_timeout: Duration::from_millis(700),
                    ..DiscoveryConfig::default()
                };
                let id = sim.add_node(
                    &decl.name,
                    decl.realm,
                    Box::new(DiscoveryClient::with_auto_start(dcfg, false)),
                );
                clients.push((decl.name.clone(), id, decl.discover_after));
                id
            }
        };
        println!("  + {:<12} {:?} as {id}", decl.name, decl.role);
        ids.insert(decl.name.clone(), id);
    }

    // Queue each client's discovery at its configured delay, then run.
    clients.sort_by_key(|(_, _, after)| *after);
    for (name, id, after) in &clients {
        println!("  > {name}: discovery at +{} ms", after.as_millis());
        sim.inject(*id, *after, Incoming::Timer { token: TIMER_START });
    }
    sim.run_for(duration);

    println!("\n=== cluster summary ===");
    let by_id: BTreeMap<NodeId, String> = ids.iter().map(|(n, i)| (*i, n.clone())).collect();
    for (id, name) in &by_id {
        let any = sim.actor_dyn(*id).expect("every declared node is up").as_any();
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
                let chosen = o
                    .chosen
                    .and_then(|b| by_id.get(&b).cloned())
                    .unwrap_or_else(|| "-".to_string());
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
