//! Ex-situ layer probes: each layer's public functions timed alone, on
//! inputs captured from a `pubsub_v1` rep (the first [`CAPTURE`] publish
//! frames brokers sent, and their topics) or drawn from the seed.
//!
//! These are per-layer metrics, never end-to-end ones: they say what a
//! layer's operations cost in isolation, which bounds what a change to
//! that layer can buy. Every number is the fastest of [`SAMPLES`]
//! passes over the input set (README, "Noise"); passes are short, so
//! read them against each other rather than to the last digit.

use std::hint::black_box;
use std::time::Duration;

use nb_broker::{Destination, SubscriptionTable};
use nb_discovery::bdn::{Bdn, BdnConfig};
use nb_discovery::{shortlist, Candidate, SelectionWeights};
use nb_net::topogen::{TopologyKind, TopologySpec};
use nb_net::{
    impl_actor_any, Actor, ClockProfile, Context, Incoming, NetworkModel, ShardedSim, Sim,
};
use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::message::TransportEndpoint;
use nb_wire::{
    decode_framed, frame_message, v2, Bytes, DiscoveryRequest, DiscoveryResponse, Endpoint,
    Message, NodeId, RealmId, SymTabReader, SymTabWriter, Topic, TopicFilter, TransportKind,
    UsageMetrics, WireMsg,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::CpuClock;
use crate::deploy::NullCtx;
use crate::trace;
use crate::workload::{attach_geo, pubsub};

/// Publish frames captured as input.
pub const CAPTURE: usize = 4096;
/// Passes per probe; the fastest is reported.
pub const SAMPLES: usize = 24;

/// Fastest pass of `pass`, in ns per item, where one pass handles
/// `items` items.
fn fastest_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..SAMPLES {
        let t = CpuClock::now();
        pass();
        best = best.min(t.elapsed());
    }
    best.as_nanos() as f64 / items.max(1) as f64
}

/// Re-arms a 1 ms timer forever: the cheapest actor an engine can
/// dispatch to, so events/s with it is the engine's floor.
struct Ticker;

impl Actor for Ticker {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(Duration::from_millis(1), 1);
    }
    fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
        if let Incoming::Timer { .. } = event {
            ctx.set_timer(Duration::from_millis(1), 1);
        }
    }
    impl_actor_any!();
}

const NULL_TICKERS: usize = 16;
const NULL_HORIZON: Duration = Duration::from_secs(1);

/// Runs every probe; `(metric name, value)` in declaration order.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);

    trace::install(CAPTURE);
    let capture_rep = pubsub::rep(seed, true, false);
    let msgs: Vec<WireMsg> = trace::uninstall().captured;
    assert_eq!(
        capture_rep.outcome.failed, 0,
        "capture rep is a valid pubsub_v1 rep"
    );
    assert_eq!(
        msgs.len(),
        CAPTURE,
        "a pubsub_v1 rep sends at least {CAPTURE} publish frames"
    );
    let n = msgs.len();
    let frames: Vec<Bytes> = msgs.iter().map(|m| m.frame().clone()).collect();
    let events: Vec<(Uuid, String)> = msgs
        .iter()
        .map(|m| match m.message() {
            Message::Publish(ev) => (ev.id, ev.topic.as_str().to_string()),
            other => unreachable!("capture keeps publishes only, got {}", other.kind()),
        })
        .collect();

    // --- wire --------------------------------------------------------
    out.push((
        "wire.encode_v1_ns",
        fastest_ns(n, || {
            for m in &msgs {
                black_box(frame_message(m.message(), m.ttl(), m.hops()));
            }
        }),
    ));
    out.push((
        "wire.decode_v1_ns",
        fastest_ns(n, || {
            for f in &frames {
                black_box(decode_framed(f).expect("captured frame decodes"));
            }
        }),
    ));
    out.push((
        "wire.peek_ns",
        fastest_ns(n, || {
            for f in &frames {
                black_box(nb_wire::frame::peek(f).expect("captured frame peeks"));
            }
        }),
    ));
    out.push((
        "wire.forward_hop_ns",
        fastest_ns(n, || {
            for m in &msgs {
                black_box(m.forward_hop());
            }
        }),
    ));
    // One frame per segment, as the brokers' per-event flush produces on
    // this overlay; the symbol table persists across the link's life.
    let mut v2_bytes = 0usize;
    let mut segments: Vec<Bytes> = Vec::with_capacity(n);
    {
        let mut syms = SymTabWriter::new();
        for m in &msgs {
            let (seg, lens) = v2::encode_segment(&[(m.ttl(), m.hops(), m.message())], 0, &mut syms);
            v2_bytes += lens.iter().sum::<usize>();
            segments.push(seg);
        }
    }
    out.push((
        "wire.encode_v2_ns_per_frame",
        fastest_ns(n, || {
            let mut syms = SymTabWriter::new();
            for m in &msgs {
                black_box(v2::encode_segment(
                    &[(m.ttl(), m.hops(), m.message())],
                    0,
                    &mut syms,
                ));
            }
        }),
    ));
    out.push((
        "wire.decode_v2_ns_per_frame",
        fastest_ns(n, || {
            let mut syms = SymTabReader::new();
            for s in &segments {
                black_box(v2::decode_segment(s, &mut syms).expect("own segment decodes"));
            }
        }),
    ));
    let v1_bytes: usize = msgs.iter().map(WireMsg::body_len).sum();
    out.push(("wire.v2_bytes_ratio", v2_bytes as f64 / v1_bytes as f64));
    out.push((
        "wire.topic_parse_ns",
        fastest_ns(n, || {
            for (_, t) in &events {
                black_box(Topic::parse(t).expect("captured topic parses"));
            }
        }),
    ));

    // --- broker ------------------------------------------------------
    let topics: Vec<Topic> = events
        .iter()
        .map(|(_, t)| Topic::parse(t).expect("parses"))
        .collect();
    let subs: Vec<(Destination, TopicFilter)> = (0..pubsub::ENTITIES)
        .map(|i| {
            let f = TopicFilter::parse(&format!("bench/t{}/**", i % pubsub::FILTERS));
            (
                Destination::Client(NodeId(i as u32)),
                f.expect("bench filter parses"),
            )
        })
        .collect();
    let mut table = SubscriptionTable::new();
    for (d, f) in &subs {
        table.subscribe(*d, f.clone());
    }
    out.push((
        "broker.match_memo_ns",
        fastest_ns(n, || {
            for t in &topics {
                black_box(table.matches(t));
            }
        }),
    ));
    out.push((
        "broker.match_cold_ns",
        fastest_ns(n, || {
            for t in &topics {
                black_box(table.matches_uncached(t));
            }
        }),
    ));
    // Subscribe and unsubscribe alternate on one table, so they are
    // timed inside a shared loop rather than by `fastest_ns`.
    let (mut sub_best, mut unsub_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..SAMPLES {
        let mut fresh = SubscriptionTable::new();
        let t = CpuClock::now();
        for (d, f) in &subs {
            black_box(fresh.subscribe(*d, f.clone()));
        }
        sub_best = sub_best.min(t.elapsed());
        let t = CpuClock::now();
        for (d, f) in &subs {
            black_box(fresh.unsubscribe(*d, f));
        }
        unsub_best = unsub_best.min(t.elapsed());
    }
    out.push((
        "broker.subscribe_ns",
        sub_best.as_nanos() as f64 / subs.len() as f64,
    ));
    out.push((
        "broker.unsubscribe_ns",
        unsub_best.as_nanos() as f64 / subs.len() as f64,
    ));

    // --- util --------------------------------------------------------
    out.push((
        "util.dedup_insert_ns",
        fastest_ns(n, || {
            let mut dedup: BoundedDedup<Uuid> = BoundedDedup::new(1000);
            for (id, _) in &events {
                black_box(dedup.check_and_insert(*id));
            }
        }),
    ));
    out.push((
        "util.uuid_ns",
        fastest_ns(n, || {
            for _ in 0..n {
                black_box(Uuid::random(&mut rng));
            }
        }),
    ));

    // --- net ---------------------------------------------------------
    let null_events = |events: u64, took: Duration| took.as_nanos() as f64 / events.max(1) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES / 4 {
        let mut sim = Sim::with_clock_profile(seed, ClockProfile::perfect());
        for i in 0..NULL_TICKERS {
            sim.add_node(&format!("t{i}"), RealmId(0), Box::new(Ticker));
        }
        let t = CpuClock::now();
        sim.run_for(NULL_HORIZON);
        best = best.min(null_events(sim.events_processed(), t.elapsed()));
    }
    out.push(("net.sim_null_event_ns", best));
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES / 4 {
        let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
        sim.set_workers(1);
        for i in 0..NULL_TICKERS {
            sim.add_node(&format!("t{i}"), RealmId(0), Box::new(Ticker));
        }
        let t = CpuClock::now();
        sim.run_for(NULL_HORIZON);
        best = best.min(null_events(sim.events_processed(), t.elapsed()));
    }
    out.push(("net.shard_null_event_ns", best));
    let mut model = NetworkModel::new();
    model.register_node(NodeId(0), RealmId(0));
    model.register_node(NodeId(1), RealmId(1));
    out.push((
        "net.fate_roll_ns",
        fastest_ns(n, || {
            for _ in 0..n {
                black_box(model.datagram_fate(NodeId(0), NodeId(1), &mut rng));
            }
        }),
    ));
    let spec = TopologySpec::new(TopologyKind::RandomGeometric, attach_geo::BROKERS, seed);
    out.push((
        "net.topogen_ms",
        fastest_ns(1, || drop(black_box(spec.generate()))) / 1e6,
    ));
    // --- core --------------------------------------------------------
    let mut bdn = Bdn::new(BdnConfig {
        attached_brokers: vec![NodeId(1), NodeId(2)],
        auto_attach: false,
        ..BdnConfig::default()
    });
    let mut ctx = NullCtx::new(seed);
    bdn.on_start(&mut ctx);
    ctx.armed.clear();
    let requests: Vec<WireMsg> = (0..n)
        .map(|i| {
            let requester = NodeId(1000 + i as u32);
            WireMsg::new(Message::Discovery(DiscoveryRequest {
                request_id: Uuid::random(&mut rng),
                requester,
                hostname: format!("node-{requester}"),
                realm: RealmId(0),
                reply_to: Endpoint::new(requester, well_known::DISCOVERY_REPLY),
                transports: vec![
                    TransportEndpoint {
                        kind: TransportKind::Udp,
                        port: well_known::DISCOVERY_REPLY,
                    },
                    TransportEndpoint {
                        kind: TransportKind::Tcp,
                        port: well_known::BROKER,
                    },
                ],
                credentials: None,
                issued_at_utc: 1_000_000,
            }))
        })
        .collect();
    // One pass only: a second would hit the BDN's request dedup cache.
    let t = CpuClock::now();
    for req in &requests {
        let from = Endpoint::new(NodeId(1000), well_known::DISCOVERY_REPLY);
        bdn.on_incoming(
            Incoming::Datagram {
                from,
                to_port: well_known::BDN,
                msg: req.clone(),
            },
            &mut ctx,
        );
        // Fire the injection pacing timer back until the queue drains.
        while let Some(token) = ctx.armed.pop() {
            bdn.on_incoming(Incoming::Timer { token }, &mut ctx);
        }
    }
    out.push((
        "core.bdn_discovery_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    ));

    let candidates: Vec<Candidate> = (0..6u32)
        .map(|b| Candidate {
            response: DiscoveryResponse {
                request_id: Uuid::random(&mut rng),
                broker: NodeId(b),
                hostname: format!("b{b}"),
                realm: RealmId(0),
                transports: vec![
                    TransportEndpoint {
                        kind: TransportKind::Tcp,
                        port: well_known::BROKER,
                    },
                    TransportEndpoint {
                        kind: TransportKind::Udp,
                        port: well_known::PING,
                    },
                ],
                issued_at_utc: 1_000_000,
                metrics: UsageMetrics {
                    active_connections: 10 * b,
                    num_links: 2 + b,
                    cpu_load_permille: 100 + 50 * b as u16,
                    total_memory: 1 << 30,
                    used_memory: (u64::from(b) + 1) << 26,
                },
            },
            est_delay_us: 1_000 * i64::from(b + 1),
            weight: 0.0,
        })
        .collect();
    let weights = SelectionWeights::default();
    out.push((
        "core.shortlist_ns",
        fastest_ns(n, || {
            for _ in 0..n {
                black_box(shortlist(candidates.clone(), &weights, 6, 2));
            }
        }),
    ));
    out
}
