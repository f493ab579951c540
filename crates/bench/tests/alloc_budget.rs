//! Allocation budgets for the attach path, subscription writes, the
//! data plane and the paper's own deployment and discovery, in tier-1.
//!
//! Three small deployments counted by this binary's own
//! `#[global_allocator]`: a sharded attach — 10 brokers, 1 BDN, 200
//! entities, 1 worker — a meshed pub/sub run — 8 brokers, 64
//! subscribers, 8 publishers, counted while it subscribes and while it
//! publishes — and the Fig 2 deployment on `Sim`, counted while it is
//! built and warmed up and while it runs one discovery; the heap bytes
//! that deployment holds once warmed up, and its client once its
//! discovery finished; the heap bytes two duplicate caches hold, the
//! paper's last-1000 one and an entity's 64-key one, pre-sized and
//! grown; the heap one broker's interest plane holds; and the
//! allocator calls of fresh topics' first events through one
//! subscription table. The counts
//! are exact and repeat, so a new allocation on the flood hop, the
//! responder, the epoch barrier, the interest state, the match memo,
//! the per-publisher route state or the client's rounds, or a buffer a
//! node keeps without using it, shows here as a failed test instead of
//! needing an `LD_PRELOAD` census to find. This file must
//! stay one test, the only one in its binary: libtest runs tests on
//! parallel threads, and a sibling would allocate into the same
//! counter.

use std::hint::black_box;
use std::time::Duration;

use nb_bench::alloc::{calls, live_bytes, CountingAlloc};
use nb_bench::scale::{build_tier, TierSpec};
use nb_broker::{Broker, BrokerConfig, Destination, SubscriptionTable, Topology};
use nb_discovery::{
    DiscoveryBrokerActor, DiscoveryClient, Entity, EntityState, ResponsePolicy, Scenario, ScenarioBuilder,
};
use nb_net::topogen::TopologyKind;
use nb_net::wan::BLOOMINGTON;
use nb_net::{ClockProfile, Incoming, LinkSpec, NodeId, RealmId, ScriptCtx, Sim};
use nb_util::{BoundedDedup, Uuid};
use nb_wire::addr::well_known;
use nb_wire::{Endpoint, Message, Topic, TopicFilter};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ENTITIES: usize = 200;
/// Allocations per attached entity, boot excluded. The change that
/// added this test reached 196 under `cargo test` (39 320 in all; an
/// optimised build elides some) where its parent made 345, and not
/// the same count twice. Since an LP keeps its connections in one row
/// of records where it kept three ordered books it is 192 (38 457 in
/// all, 39 283 before). Since a send is sized by counting instead of
/// encoding a frame nobody reads, and senders hand `NodeCtx` the
/// message they built instead of a copy, it is 149 (29 904 in all,
/// 38 457 before). Since the discovery client reserves its rounds once
/// and the BDN reads a request where it lies, it is 139 (27 896 in
/// all). It had drifted to 132 (26 459 in all) by the time a BDN
/// wrapped each request's `Publish` once for all its injections, which
/// made it 129 (25 979 in all). It had drifted to 25 898 in all when
/// an entity came to keep its one outstanding keepalive nonce where it
/// kept a map, which made it 128 (25 698). Since an LP's traffic
/// counters and outbox are its worker's, so that no entity allocates a
/// counter box or an outbox buffer of its own, it is 126 (25 294). The
/// budget is 126 plus 10 %.
const BUDGET_PER_ATTACH: u64 = 139;

/// Boots the deployment uncounted, then counts the allocator calls of
/// the window in which the whole fleet discovers, attaches and
/// subscribes.
fn allocations_of_one_attach_run() -> u64 {
    let spec = TierSpec {
        name: "alloc_budget",
        kind: TopologyKind::RandomGeometric,
        brokers: 10,
        entities: ENTITIES,
    };
    let mut dep = build_tier(&spec, 2005);
    assert_eq!(dep.bdns.len(), 1);
    dep.sim.set_workers(1);
    dep.sim.run_for(Duration::from_secs(5));
    let before = calls();
    dep.sim.run_for(Duration::from_secs(10));
    let counted = calls() - before;
    for &e in &dep.entities {
        let state = dep.sim.actor::<Entity>(e).expect("entity").state();
        assert!(matches!(state, EntityState::Attached(_)), "an entity ended {state:?}");
    }
    counted
}

const PUBLISHERS: usize = 8;
const EVENTS_PER_PUBLISHER: usize = 40;
/// Four subscribers a filter, one filter an event.
const DELIVERIES: u64 = (PUBLISHERS * EVENTS_PER_PUBLISHER * 4) as u64;
/// Allocations per delivery over the publishing window, everything in
/// it counted — the harness queueing the events, clients, brokers,
/// engine. The change that added this case reaches 1.74 under `cargo
/// test` (2 221 in all, and still exactly that with the connections in
/// one table: they are all open by then). With sends sized by counting
/// (no frame encoded for a publish, heartbeat or prune) it is 1.40
/// (1 793 in all, 2 221 before). It had drifted to 1 770 in all when the
/// clients became entities homed on a broker ([`Entity::of_broker`]),
/// which made it 2.01 (2 569): an entity pings its broker every 2 s
/// and fills its last-1000 cache as events arrive. Since a broker keeps
/// every match set in one arena, so that a topic's first event there
/// allocates nothing but the arena's geometric growth, and wraps each
/// heartbeat once for all its links, it is 1.81 (2 317). The budget is
/// the 1.81 plus 10 %. What it holds down: no allocation for a topic's
/// first event at a broker, match set or memo key, beyond the arena's
/// and the memo's growth; at most two a publisher a broker for route
/// state; a `Prune` a lease per redundant link, not one per duplicate.
const BUDGET_PER_DELIVERY: f64 = 1.99;

const SUBSCRIBERS: u64 = 64;
/// Allocations per client subscription over the window in which the
/// ring absorbs them: the subscribers' connects, their subscribes, every
/// broker's trie and interest writes and the advertisements that carry
/// each filter round the ring (the window also holds the eight
/// publishers' connects). The change that added this case reaches
/// 22.45 under `cargo test` (1 437 in all) where its parent made 22.83
/// (1 461): each filter's entry carries its advertised list, one
/// allocation sized to the link count, where a second map kept a set.
/// The budget is the 22.45 plus 10 %. Since a broker keeps one record a
/// filter, its registrations in one list, it is 20.17 (1 291). Since the
/// clients join before the boot run, so the engine's one-time node-table
/// shrink falls outside the window, it is 19.55 (1 251, 1 252 before).
/// Since the clients are entities homed on a broker
/// ([`Entity::of_broker`]), it is 37.67 (2 411): each of the 72 attaches
/// through the discovery client's cached-target path, a request built,
/// a ping round of three and a finished run's outcome kept, where the
/// old client sent a connect. The budget is the 37.67 plus 10 %.
const BUDGET_PER_SUBSCRIPTION: f64 = 41.4;

/// An eight-broker ring with three chords boots uncounted; 64
/// subscribers over 16 filters join it, and the window in which they
/// subscribe is counted; then the window in which 8 publishers emit 40
/// events each, one a publisher every 50 ms, over 32 topics. Returns
/// both counts, subscription window first. Every client is added before
/// the boot run, so the run that sheds the node table's growth slack is
/// not counted; the clients stay down through it and start (connect,
/// then subscribe) in the counted window.
fn allocations_of_one_pubsub_run() -> (u64, u64) {
    let mut sim = Sim::with_clock_profile(2005, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    let mut edges = Topology::build(nb_broker::TopologyKind::Ring, 8).edges().to_vec();
    edges.extend([(0, 4), (1, 5), (2, 6)]);
    let topo = Topology::from_edges(8, edges);
    let mut brokers: Vec<NodeId> = Vec::new();
    for (i, dials) in topo.dial_lists().into_iter().enumerate() {
        let neighbors = dials.iter().map(|&j| brokers[j]).collect();
        let cfg = BrokerConfig { neighbors, ..BrokerConfig::default() };
        let broker = DiscoveryBrokerActor::new(cfg, Vec::new(), ResponsePolicy::open());
        brokers.push(sim.add_node(&format!("b{i}"), RealmId(0), Box::new(broker)));
    }
    let subs: Vec<NodeId> = (0..SUBSCRIBERS as usize)
        .map(|i| {
            let filter = TopicFilter::parse(&format!("budget/t{}/**", i % 16)).expect("filter");
            let client = Entity::of_broker(brokers[i % 8], vec![filter]);
            sim.add_node(&format!("s{i}"), RealmId(0), Box::new(client))
        })
        .collect();
    let pubs: Vec<NodeId> = (0..PUBLISHERS)
        .map(|p| {
            let client = Entity::of_broker(brokers[p], Vec::new());
            sim.add_node(&format!("p{p}"), RealmId(0), Box::new(client))
        })
        .collect();
    let topics: Vec<Topic> = (0..32)
        .map(|t| Topic::parse(&format!("budget/t{}/{}", t % 16, t / 16)).expect("topic"))
        .collect();
    for &client in subs.iter().chain(&pubs) {
        sim.crash(client);
    }
    sim.run_for(Duration::from_secs(1));
    for &client in subs.iter().chain(&pubs) {
        sim.revive(client);
    }
    let before = calls();
    sim.run_for(Duration::from_secs(2));
    let subscribing = calls() - before;

    let before = calls();
    for round in 0..EVENTS_PER_PUBLISHER {
        for (p, &node) in pubs.iter().enumerate() {
            let topic = topics[(5 * p + round) % topics.len()].clone();
            sim.actor_mut::<Entity>(node).expect("publisher").queue_publish(topic, vec![0; 64]);
        }
        sim.run_for(Duration::from_millis(50));
    }
    sim.run_for(Duration::from_secs(1));
    let counted = calls() - before;
    let subscribers = subs.iter().map(|&s| sim.actor::<Entity>(s).expect("subscriber"));
    let arrived: u64 = subscribers.map(|sub| sub.received.len() as u64 + sub.duplicates_dropped).sum();
    assert_eq!(arrived, DELIVERIES);
    (subscribing, counted)
}

/// Allocations of one paper discovery — BDN injection, the response
/// fan-in, the UDP pings, the connect — everything in it counted:
/// client, BDN, brokers, engine and the harness's own outcome. The
/// change that added this case reaches 77 under `cargo test` where its
/// parent made 104: the shared empty match set, the ping round as a
/// `Vec` reserved once, averages taken in place, the request wrapped
/// once and read where it lies, the injection order sorted in one
/// buffer. It had reached 76 when the BDN came to wrap the request's
/// `Publish` once for all five injections, not once each, which made
/// it 72. The budget is the 72 plus 10 %.
const BUDGET_PER_DISCOVERY: u64 = 79;

/// Builds the Fig 2 deployment (unconnected, client at Bloomington,
/// seed 2005) and its 6 s warm-up uncounted, then counts
/// `run_discovery_once`.
fn allocations_of_one_paper_discovery() -> u64 {
    let mut scenario = ScenarioBuilder::new(nb_broker::TopologyKind::Unconnected, BLOOMINGTON, 2005).build();
    let before = calls();
    let outcome = scenario.run_discovery_once();
    let counted = calls() - before;
    assert!(outcome.chosen.is_some(), "the discovery chose no broker");
    counted
}

/// Allocations of one Fig 2 deployment's set-up: construction and the
/// 6 s warm-up, everything in it counted — the WAN model, five brokers,
/// the BDN, the client, the links, and the warm-up's NTP syncs,
/// advertisements and link handshakes. The parent of the change that
/// added this case made 329 under `cargo test`; with the
/// well-known topics parsed once per process, a static WAN table, each
/// BDN built once and `to_bytes` encoding through the pooled writer it
/// makes 284. The budget is that plus 10 %.
const BUDGET_PER_BUILD: u64 = 312;

/// Counts one `ScenarioBuilder::build()` of the Fig 2 deployment
/// (unconnected, client at Bloomington, seed 2005).
fn allocations_of_one_paper_build() -> u64 {
    let before = calls();
    let scenario = ScenarioBuilder::new(nb_broker::TopologyKind::Unconnected, BLOOMINGTON, 2005).build();
    let counted = calls() - before;
    drop(scenario);
    counted
}

/// Heap bytes of a broker's last-1000 cache of UUIDs and of an
/// entity's 64-key one. Each key is held once, in a ring, plus a `u32`
/// index at load ≤ ½: 16 000 + 8 192 and 1 024 + 512 bytes, where a
/// `HashSet` beside a `VecDeque` held about 50 KiB and 3.2 KiB.
const BUDGET_1000_KEY_CACHE: u64 = 26 * 1024;
const BUDGET_64_KEY_CACHE: u64 = 1792;

/// Live bytes and allocator calls of one cache built by `make` and
/// filled with `keys` distinct keys; its `heap_bytes` must read the
/// live bytes the allocator counted.
fn bytes_and_calls_of_a_cache(make: impl FnOnce() -> BoundedDedup<Uuid>, keys: usize) -> (u64, u64) {
    let (live, before) = (live_bytes(), calls());
    let mut cache = make();
    for k in 0..keys as u128 {
        cache.check_and_insert(Uuid::from_u128(k << 64 | k));
    }
    let counted = (live_bytes() - live, calls() - before);
    assert_eq!(cache.heap_bytes() as u64, counted.0, "heap_bytes of a cache after {keys} keys");
    drop(cache);
    counted
}

/// Live bytes one Fig 2 deployment (unconnected, client at
/// Bloomington, seed 2005) holds once built and warmed up: WAN model,
/// five brokers, the BDN, the client, their links and caches, the
/// engine. The parent of the change that added this case held
/// 296 261 B under `cargo test`, 266 112 B of them in eleven 1000-key
/// duplicate caches (each broker's event and request caches, the
/// BDN's request cache) allocated whole at build and holding a dozen
/// keys each. Sized by what they hold, they take 384 B each and the
/// deployment 34 373 B. It had drifted to 31 309 B when a topic or filter
/// became one pointer to a shared parse, not 80 B of string, inline
/// segment ids and symbol id by value, which made it 29 293 B. The
/// budget is that plus 10 %.
const BUDGET_PAPER_BUILD_BYTES: u64 = 32_222;

/// Live bytes a [`ScenarioBuilder::build`] of the Fig 2 deployment
/// retains.
fn bytes_of_one_paper_build() -> (u64, Scenario) {
    let live = live_bytes();
    let scenario = ScenarioBuilder::new(nb_broker::TopologyKind::Unconnected, BLOOMINGTON, 2005).build();
    (live_bytes() - live, scenario)
}

/// Heap bytes the Fig 2 client holds after one finished discovery:
/// its configuration, the outcome it keeps and its last target set.
/// The parent of the change that added this case held 2 148 B under
/// `cargo test`: it kept the shortlisted candidates, with their
/// hostnames and transports, until the next run began, and a four-slot
/// outcome history. Letting go of the candidates and growing the
/// history a slot at a time made it 842 B; dropping the run's request,
/// ping slots and connect order at the finish, which nothing reads
/// before the next `begin` builds them afresh, makes it 452 B. The
/// budget is that plus 10 %.
const BUDGET_FINISHED_CLIENT_BYTES: u64 = 497;

/// Runs one discovery on a built Fig 2 deployment, swaps the client
/// for a fresh one and counts the bytes the finished one frees.
fn bytes_of_one_finished_client(mut scenario: Scenario) -> u64 {
    let outcome = scenario.run_discovery_once();
    assert!(outcome.chosen.is_some(), "the discovery chose no broker");
    let client = scenario.client;
    let cfg = scenario.sim.actor::<DiscoveryClient>(client).expect("client").config().clone();
    let fresh = DiscoveryClient::with_auto_start(cfg, false);
    let finished = std::mem::replace(scenario.sim.actor_mut::<DiscoveryClient>(client).expect("client"), fresh);
    assert_eq!(finished.completed.len(), 1);
    let live = live_bytes();
    drop(finished);
    live - live_bytes()
}

/// Heap bytes of one broker's interest plane — the trie, one record a
/// filter, each record's registrations and the links it is advertised
/// to — with 128 `bench/t{k}/**` filters, each registered by all 9
/// links and by one of 20 clients: 1 280 registrations, about what
/// `attach_geo`'s busiest broker holds. The change that added this case
/// measured 49 488 B under `cargo test`, where the three string-keyed
/// structures it replaced held 289 088 B. Since a filter is one pointer
/// to a shared parse (8 B a copy where it was 80), it is 40 272 B; the
/// budget is that plus 10 %.
const BUDGET_INTEREST_PLANE: u64 = 44_299;

/// Drops what `ctx` recorded, so a `live_bytes()` read after it counts
/// the broker's heap alone.
fn forget_records(ctx: &mut ScriptCtx) {
    (ctx.sent, ctx.timers, ctx.armed, ctx.groups) = Default::default();
}

/// Live bytes one broker's registrations add once its 9 links and 20
/// clients are up, the filters parsed beforehand.
fn bytes_of_one_interest_plane() -> u64 {
    const LINKS: u32 = 9;
    const CLIENTS: u32 = 20;
    let filters: Vec<TopicFilter> =
        (0..128).map(|k| TopicFilter::parse(&format!("bench/t{k}/**")).expect("filter")).collect();
    let mut broker = Broker::new(BrokerConfig::default());
    let mut ctx = ScriptCtx { me: NodeId(1), rng: StdRng::seed_from_u64(2005), ..ScriptCtx::default() };
    let feed = |broker: &mut Broker, ctx: &mut ScriptCtx, from: NodeId, msg: Message| {
        let from = Endpoint::new(from, well_known::BROKER);
        broker.handle(Incoming::Stream { from, to_port: well_known::BROKER, msg: msg.into() }, ctx);
    };
    let links: Vec<NodeId> = (0..LINKS).map(|l| NodeId(10 + l)).collect();
    let clients: Vec<NodeId> = (0..CLIENTS).map(|c| NodeId(100 + c)).collect();
    for &l in &links {
        feed(&mut broker, &mut ctx, l, Message::LinkHello { from: l, realm: RealmId(0) });
    }
    for &c in &clients {
        feed(&mut broker, &mut ctx, c, Message::ClientConnect { client: c, reply_port: well_known::BROKER });
    }
    forget_records(&mut ctx);
    let live = live_bytes();
    for (k, filter) in filters.iter().enumerate() {
        for &l in &links {
            feed(&mut broker, &mut ctx, l, Message::Subscribe { filter: filter.clone(), origin: l, seq: 0 });
        }
        let c = clients[k % clients.len()];
        feed(&mut broker, &mut ctx, c, Message::ClientSubscribe { filter: filter.clone() });
    }
    assert_eq!(broker.interest_filters().len(), filters.len());
    forget_records(&mut ctx);
    let bytes = live_bytes() - live;
    drop(broker);
    bytes
}

/// Fresh topics routed through one warmed table.
const FRESH_TOPICS: usize = 256;

/// Allocator calls of [`FRESH_TOPICS`] first events, each on a topic
/// the table has not seen, over 16 `fresh/t{k}/**` filters each
/// registered by a client and a link. The table is warmed by as many
/// other topics, whose sets a `fresh/**` subscription then kills: more
/// dead destinations than live reset the memo and its arena, which keep
/// their capacity. So only the arena's growth to sets one destination
/// larger is left to count, at most `⌈log₂ N⌉ + 1` calls for N topics
/// where a set allocated apiece made N.
fn allocations_of_fresh_topics() -> u64 {
    let mut table = SubscriptionTable::new();
    for k in 0..16 {
        let filter = TopicFilter::parse(&format!("fresh/t{k}/**")).expect("filter");
        table.subscribe(Destination::Client(NodeId(k % 4)), filter.clone());
        table.subscribe(Destination::Link(NodeId(100 + k % 3)), filter);
    }
    let batch = |name: &str| -> Vec<Topic> {
        (0..FRESH_TOPICS).map(|i| Topic::parse(&format!("fresh/t{}/{name}{i}", i % 16)).expect("topic")).collect()
    };
    let (warm, fresh) = (batch("w"), batch("f"));
    for topic in &warm {
        assert_eq!(table.matches(topic).len(), 2);
    }
    table.subscribe(Destination::Client(NodeId(9)), TopicFilter::parse("fresh/**").expect("filter"));
    let before = calls();
    for topic in &fresh {
        black_box(table.matches(topic));
    }
    let counted = calls() - before;
    assert!(fresh.iter().all(|topic| table.matches(topic).len() == 3));
    counted
}

#[test]
fn allocations_repeat_exactly_and_stay_under_budget() {
    // The first run also fills the process-wide topic intern tables;
    // the two after it do identical work.
    allocations_of_one_attach_run();
    let first = allocations_of_one_attach_run();
    let second = allocations_of_one_attach_run();
    assert_eq!(first, second, "the allocation count is a pure function of the run");
    let per_attach = first / ENTITIES as u64;
    assert!(
        per_attach <= BUDGET_PER_ATTACH,
        "{per_attach} allocations per attached entity, budget {BUDGET_PER_ATTACH} ({first} in all)"
    );

    allocations_of_one_pubsub_run();
    let (subscribing, first) = allocations_of_one_pubsub_run();
    let (subscribing_again, second) = allocations_of_one_pubsub_run();
    assert_eq!((subscribing, first), (subscribing_again, second), "the allocation count is a pure function of the run");
    let per_subscription = subscribing as f64 / SUBSCRIBERS as f64;
    assert!(
        per_subscription <= BUDGET_PER_SUBSCRIPTION,
        "{per_subscription:.2} allocations per subscription, budget {BUDGET_PER_SUBSCRIPTION} ({subscribing} in all)"
    );
    let per_delivery = first as f64 / DELIVERIES as f64;
    assert!(
        per_delivery <= BUDGET_PER_DELIVERY,
        "{per_delivery:.2} allocations per delivery, budget {BUDGET_PER_DELIVERY} ({first} in all)"
    );

    allocations_of_one_paper_discovery();
    let first = allocations_of_one_paper_discovery();
    let second = allocations_of_one_paper_discovery();
    assert_eq!(first, second, "the allocation count is a pure function of the run");
    assert!(
        first <= BUDGET_PER_DISCOVERY,
        "{first} allocations in one paper discovery, budget {BUDGET_PER_DISCOVERY}"
    );

    allocations_of_one_paper_build();
    let first = allocations_of_one_paper_build();
    let second = allocations_of_one_paper_build();
    assert_eq!(first, second, "the allocation count is a pure function of the build");
    assert!(
        first <= BUDGET_PER_BUILD,
        "{first} allocations in one paper build, budget {BUDGET_PER_BUILD}"
    );

    for (capacity, budget) in [(1000, BUDGET_1000_KEY_CACHE), (64, BUDGET_64_KEY_CACHE)] {
        let (bytes, calls) =
            bytes_and_calls_of_a_cache(|| BoundedDedup::with_expected(capacity, capacity), 3 * capacity);
        assert_eq!(calls, 2, "a pre-sized {capacity}-key cache made {calls} allocator calls");
        assert!(bytes <= budget, "a {capacity}-key cache holds {bytes} B, budget {budget} B");
        // Built by `new`, the cache holds 16 keys in 384 B, and the 17th
        // takes the whole capacity: the same bytes, two calls more.
        let dozen = bytes_and_calls_of_a_cache(|| BoundedDedup::new(capacity), 12);
        assert_eq!(dozen, (16 * 16 + 32 * 4, 2), "(bytes, calls) of a {capacity}-key cache holding 12 keys");
        let grown = bytes_and_calls_of_a_cache(|| BoundedDedup::new(capacity), 3 * capacity);
        assert_eq!(grown, (bytes, 4), "(bytes, calls) of a filled {capacity}-key cache built by `new`");
    }

    drop(bytes_of_one_paper_build());
    let (first, scenario) = bytes_of_one_paper_build();
    drop(scenario);
    let (second, scenario) = bytes_of_one_paper_build();
    assert_eq!(first, second, "the heap is a pure function of the build");
    assert!(
        first <= BUDGET_PAPER_BUILD_BYTES,
        "one paper build holds {first} B, budget {BUDGET_PAPER_BUILD_BYTES} B"
    );
    let client = bytes_of_one_finished_client(scenario);
    assert_eq!(client, bytes_of_one_finished_client(bytes_of_one_paper_build().1), "the client's heap repeats");
    assert!(
        client <= BUDGET_FINISHED_CLIENT_BYTES,
        "a finished client holds {client} B, budget {BUDGET_FINISHED_CLIENT_BYTES} B"
    );

    let fresh = allocations_of_fresh_topics();
    let bound = u64::from(FRESH_TOPICS.next_power_of_two().ilog2()) + 1;
    assert!(fresh <= bound, "{fresh} allocator calls for {FRESH_TOPICS} fresh topics, bound {bound}");

    let bytes = bytes_of_one_interest_plane();
    assert_eq!(bytes, bytes_of_one_interest_plane(), "the heap is a pure function of the registrations");
    assert!(bytes <= BUDGET_INTEREST_PLANE, "one broker's interest plane holds {bytes} B, budget {BUDGET_INTEREST_PLANE} B");
}
