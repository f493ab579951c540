//! `paper_figs` — the paper's own experiment, closed loop on `Sim`.
//!
//! The nine timing figures of §9 (Figs 2, 9, 11: unconnected / star /
//! linear from Bloomington; Figs 3–7: unconnected with the client at
//! each of five sites; Fig 12: multicast-only), each as
//! [`DEPLOYMENTS`] independent five-broker deployments, [`PASSES`]
//! times over with fresh scenario seeds: 8 640 discoveries per rep.
//! One client per deployment issues one discovery and waits for it —
//! a closed loop with one client.
//!
//! Set-up is every `ScenarioBuilder::build()` (construction + the 6 s
//! virtual warm-up); the measure phase is every
//! `run_discovery_once()`. The two alternate deployment by deployment
//! and are timed separately, so nothing need hold 8 640 simulators.
//!
//! Deployments are tiny: per-event engine overhead, scenario
//! construction and the client state machine do the work; routing
//! tables and fan-out do almost none.

use std::time::Duration;

use nb_broker::{BrokerConfig, MachineProfile, Topology, TopologyKind};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{DiscoveryBrokerActor, DiscoveryClient, Scenario, ScenarioBuilder};
use nb_net::wan::{WanModel, BLOOMINGTON, CARDIFF, FSU, INDIANAPOLIS, NCSA, UMN};
use nb_net::Sim;
use nb_wire::NodeId;

use crate::alloc;
use crate::clock::CpuClock;
use crate::deploy::{engine_digest, mix, FNV_OFFSET};
use crate::trace::{self, Layer};
use crate::workload::{HostSample, NetCounts, Outcome, Rep};

/// Independent deployments per figure per pass (the paper ran 120).
pub const DEPLOYMENTS: u64 = 120;
/// Passes over the nine figures per rep, each with fresh seeds.
pub const PASSES: u64 = 8;
/// Brokers Fig 12 places inside the client's multicast realm.
const FIG12_LOCAL_BROKERS: usize = 2;

/// How to configure one deployment of a figure from a scenario seed.
type Configure = fn(u64) -> ScenarioBuilder;

/// The nine figures, paper order of appearance.
pub const FIGURES: [(&str, Configure); 9] = {
    use TopologyKind::{Linear, Star, Unconnected};
    [
        ("fig2", |s| {
            ScenarioBuilder::new(Unconnected, BLOOMINGTON, s)
        }),
        ("fig3", |s| ScenarioBuilder::new(Unconnected, FSU, s)),
        ("fig4", |s| ScenarioBuilder::new(Unconnected, CARDIFF, s)),
        ("fig5", |s| ScenarioBuilder::new(Unconnected, UMN, s)),
        ("fig6", |s| ScenarioBuilder::new(Unconnected, NCSA, s)),
        ("fig7", |s| {
            ScenarioBuilder::new(Unconnected, BLOOMINGTON, s)
        }),
        ("fig9", |s| ScenarioBuilder::new(Star, BLOOMINGTON, s)),
        ("fig11", |s| ScenarioBuilder::new(Linear, BLOOMINGTON, s)),
        ("fig12", |s| {
            ScenarioBuilder::multicast(s, FIG12_LOCAL_BROKERS)
        }),
    ]
};

fn scenario_seed(seed: u64, pass: u64, fig: u64, deployment: u64) -> u64 {
    mix(mix(mix(mix(FNV_OFFSET, seed), pass), fig), deployment)
}

/// `ScenarioBuilder::build()` with every actor wrapped for tracing.
/// `build()` constructs its `Sim` internally, so a traced run has to
/// restate the node order, BDN patch-up and link install; the traced
/// run checks the two produce the same digest for the same seed
/// (single BDN, no federation, default loss — all the figures use).
fn build_traced(b: ScenarioBuilder) -> Scenario {
    let wan = WanModel::paper();
    let mut sim = Sim::with_clock_profile(b.seed, b.clock);
    let n = b.broker_sites.len();
    let topology = Topology::build(b.kind, n);
    let dial_lists = topology.dial_lists();
    let attached_idx: Vec<usize> = match b.kind {
        TopologyKind::Unconnected => (0..n).collect(),
        _ => vec![0],
    };
    let bdn_cfg = |attached: Vec<NodeId>| BdnConfig {
        attached_brokers: attached,
        auto_attach: false,
        ..b.bdn.clone()
    };
    let bdns: Vec<NodeId> = if b.without_bdn {
        Vec::new()
    } else {
        let actor = trace::boxed(true, Layer::Bdn, Bdn::new(bdn_cfg(Vec::new())));
        vec![sim.add_node(
            "bdn.gridservicelocator.org",
            wan.site(INDIANAPOLIS).realm,
            actor,
        )]
    };
    let mut brokers: Vec<NodeId> = Vec::with_capacity(n);
    for (i, &site_idx) in b.broker_sites.iter().enumerate() {
        let site = wan.site(site_idx);
        let cfg = BrokerConfig {
            hostname: site.host.to_string(),
            logical_address: format!("nb://paper/broker-{i}"),
            machine: MachineProfile::with_memory(site.total_memory),
            neighbors: dial_lists[i].iter().map(|&j| brokers[j]).collect(),
            ..BrokerConfig::default()
        };
        // Figure 10/11: only the chain's first broker registers.
        let registers = b.kind != TopologyKind::Linear || i == 0;
        let ad_targets = if registers { bdns.clone() } else { Vec::new() };
        let actor = DiscoveryBrokerActor::new(cfg, ad_targets, b.policy.clone());
        let name = format!("broker-{i}@{}", site.name);
        brokers.push(sim.add_node(&name, site.realm, trace::boxed(true, Layer::Broker, actor)));
    }
    for &bdn in &bdns {
        let attached = attached_idx.iter().map(|&i| brokers[i]).collect();
        *sim.actor_mut::<Bdn>(bdn).expect("bdn actor") = Bdn::new(bdn_cfg(attached));
    }
    let mut discovery = b.discovery.clone();
    discovery.bdns = bdns.clone();
    let client_site = wan.site(b.client_site);
    let client = sim.add_node(
        &format!("client@{}", client_site.name),
        client_site.realm,
        trace::boxed(
            true,
            Layer::Client,
            DiscoveryClient::with_auto_start(discovery, false),
        ),
    );
    let mut placement: Vec<(NodeId, usize)> = bdns.iter().map(|&b| (b, INDIANAPOLIS)).collect();
    placement.extend(brokers.iter().copied().zip(b.broker_sites.iter().copied()));
    placement.push((client, b.client_site));
    wan.install(sim.network_mut(), &placement);
    sim.run_for(b.warmup);
    Scenario {
        sim,
        wan,
        topology,
        kind: b.kind,
        bdn: bdns.first().copied(),
        bdns,
        brokers,
        client,
        broker_sites: b.broker_sites,
        client_site: b.client_site,
    }
}

pub fn rep(seed: u64, traced: bool) -> Rep {
    trace::span(trace::REP, || {
        let (mut setup, mut measure) = (Duration::ZERO, Duration::ZERO);
        let (mut allocs, mut alloc_bytes, mut setup_live_bytes) = (0u64, 0u64, 0u64);
        let mut out = Outcome {
            latencies_us: Vec::with_capacity((PASSES * DEPLOYMENTS) as usize * FIGURES.len()),
            ..Outcome::default()
        };
        for pass in 0..PASSES {
            for (fig, &(fig_name, configure)) in FIGURES.iter().enumerate() {
                for deployment in 0..DEPLOYMENTS {
                    let s = scenario_seed(seed, pass, fig as u64, deployment);
                    let builder = configure(s);

                    let live0 = alloc::snapshot().live;
                    let t0 = CpuClock::now();
                    let mut sc = trace::span(trace::SETUP, || {
                        if traced {
                            build_traced(builder)
                        } else {
                            builder.build()
                        }
                    });
                    setup += t0.elapsed();
                    setup_live_bytes += alloc::snapshot().live.saturating_sub(live0);

                    let events0 = sc.sim.events_processed();
                    let net0 = NetCounts::of(sc.sim.stats());
                    let a0 = alloc::snapshot();
                    let t1 = CpuClock::now();
                    let o = trace::span(trace::MEASURE, || {
                        trace::span(trace::ENGINE, || sc.run_discovery_once())
                    });
                    measure += t1.elapsed();
                    let a1 = alloc::snapshot();
                    allocs += a1.calls - a0.calls;
                    alloc_bytes += a1.bytes - a0.bytes;

                    out.ops += 1;
                    out.events += sc.sim.events_processed() - events0;
                    out.net.add(&NetCounts::of(sc.sim.stats()).minus(&net0));
                    out.latencies_us.push(o.phases.total().as_micros() as u64);
                    out.bdn_ops += u64::from(o.bdn_used.is_some());
                    match o.chosen {
                        Some(b) if sc.sim.is_up(b) => {
                            out.delivery_digest = mix(out.delivery_digest, u64::from(b.0));
                        }
                        _ => out.fail(1, || {
                            format!(
                                "{fig_name} pass {pass} deployment {deployment}: no live broker chosen"
                            )
                        }),
                    }
                    out.engine_digest = mix(
                        out.engine_digest,
                        engine_digest(sc.sim.now(), sc.sim.events_processed(), sc.sim.stats()),
                    );
                    out.count_broker_dedup(
                        sc.brokers
                            .iter()
                            .map(|&b| sc.sim.actor(b).expect("broker actor")),
                    );
                }
            }
        }
        out.latencies_us.sort_unstable();
        // Deployments are built and dropped one at a time: what a set-up
        // leaves live is one deployment, so report the mean of them.
        let setup_live_bytes = setup_live_bytes / out.ops;
        let host = HostSample {
            setup,
            setups: 1,
            measure,
            allocs,
            alloc_bytes,
            setup_live_bytes,
        };
        Rep { host, outcome: out }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced mirror of `ScenarioBuilder::build()` must be the same
    /// deployment: same events, same traffic, same choice.
    #[test]
    fn traced_build_matches_scenario_builder() {
        for (fig, &(name, configure)) in FIGURES.iter().enumerate() {
            let s = scenario_seed(2005, 0, fig as u64, 3);
            let mut plain = configure(s).build();
            let mut mirrored = build_traced(configure(s));
            let (a, b) = (plain.run_discovery_once(), mirrored.run_discovery_once());
            assert_eq!(a, b, "{name} outcome");
            assert_eq!(
                engine_digest(
                    plain.sim.now(),
                    plain.sim.events_processed(),
                    plain.sim.stats()
                ),
                engine_digest(
                    mirrored.sim.now(),
                    mirrored.sim.events_processed(),
                    mirrored.sim.stats()
                ),
                "{name} digest"
            );
        }
    }

    #[test]
    fn scenario_seeds_do_not_collide() {
        let mut seen = std::collections::BTreeSet::new();
        for pass in 0..PASSES {
            for fig in 0..FIGURES.len() as u64 {
                for d in 0..DEPLOYMENTS {
                    assert!(seen.insert(scenario_seed(2005, pass, fig, d)));
                }
            }
        }
    }
}
