//! Property-based tests for the network substrate: time arithmetic,
//! link-model bounds, stream ordering, multicast scoping and clock
//! residuals.

use std::time::Duration;

use proptest::prelude::*;

use nb_net::clock::ClockProfile;
use nb_net::link::{DatagramFate, LinkSpec, NetworkModel};
use nb_net::runtime::IdleActor;
use nb_net::{ChaosProfile, ChaosTargets, FaultPlan, ShardedSim, Trace};
use nb_net::time::{true_utc_micros, SimTime};
use nb_wire::{GroupId, Message, NodeId, RealmId};

use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn simtime_add_then_subtract_roundtrips(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = Duration::from_nanos(delta);
        let later = t + d;
        prop_assert_eq!(later - t, d);
        prop_assert!(later >= t);
    }

    #[test]
    fn simtime_offset_roundtrips_when_in_range(
        base in 1_000_000_000u64..u64::MAX / 4,
        off in -1_000_000i64..1_000_000i64,
    ) {
        let t = SimTime::from_nanos(base);
        prop_assert_eq!(t.offset_by(off).offset_by(-off), t);
    }

    #[test]
    fn true_utc_is_monotonic(a in 0u64..u64::MAX / 8, b in 0u64..u64::MAX / 8) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(true_utc_micros(SimTime::from_nanos(lo)) <= true_utc_micros(SimTime::from_nanos(hi)));
    }

    #[test]
    fn latency_samples_stay_within_spec(
        base_us in 1u64..200_000,
        jitter_us in 0u64..50_000,
        seed in any::<u64>(),
    ) {
        let spec = LinkSpec {
            latency: Duration::from_micros(base_us),
            jitter: Duration::from_micros(jitter_us),
            loss: 0.0,
            bandwidth: None,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let l = spec.sample_latency(&mut rng);
            prop_assert!(l >= spec.latency);
            prop_assert!(l <= spec.latency + spec.jitter);
        }
    }

    #[test]
    fn zero_loss_never_drops_and_full_loss_always_drops(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let never = LinkSpec::local().with_loss(0.0);
        let always = LinkSpec::local().with_loss(1.0);
        for _ in 0..100 {
            prop_assert!(!never.sample_loss(&mut rng));
            prop_assert!(always.sample_loss(&mut rng));
        }
    }

    #[test]
    fn stream_book_never_reorders_a_direction(
        gaps_us in prop::collection::vec(0u64..2_000_000, 1..60),
        jitter_us in 0u64..100_000,
        seed in any::<u64>(),
    ) {
        // Arbitrary send-time advances under arbitrary jitter — sampled
        // latencies far apart or far closer than the gaps — must arrive
        // in send order, none before it was sent. (The connection state
        // is private to the engine, so the property is checked where a
        // protocol would see it: at the receiving actor.)
        let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
        sim.network_mut().intra_realm_spec =
            LinkSpec { jitter: Duration::from_micros(jitter_us), ..LinkSpec::lan() };
        let (trace, log) = Trace::new();
        let sink = sim.add_node("sink", RealmId(0), trace.wrap(Box::new(IdleActor)));
        let gaps = gaps_us.iter().map(|&us| Duration::from_micros(us)).collect();
        sim.add_node("paced", RealmId(0), Box::new(stream_order::Paced { to: sink, gaps, sent: 0 }));
        sim.run_for(Duration::from_secs(200));
        // `(nonce, sent, arrived)` per ping, in arrival order.
        let arrivals: Vec<(u64, SimTime, SimTime)> = log
            .take()
            .iter()
            .filter(|r| r.stream && r.to.node == sink)
            .filter_map(|r| match *r.msg.message() {
                Message::Ping { nonce, sent_at, .. } => Some((nonce, SimTime::from_nanos(sent_at), r.at)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(arrivals.len(), gaps_us.len());
        for (i, &(nonce, sent_at, at)) in arrivals.iter().enumerate() {
            prop_assert_eq!(nonce, i as u64, "reordered: {:?}", arrivals);
            prop_assert!(at >= sent_at);
        }
    }

    #[test]
    fn multicast_recipients_are_same_realm_group_members(
        realms in prop::collection::vec(0u16..4, 2..30),
        members in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
        sender_idx in any::<prop::sample::Index>(),
    ) {
        let mut net = NetworkModel::new();
        let n = realms.len();
        for (i, &r) in realms.iter().enumerate() {
            net.register_node(NodeId(i as u32), RealmId(r));
        }
        let group = GroupId(5);
        for idx in &members {
            net.join_group(group, NodeId(idx.index(n) as u32));
        }
        let sender = NodeId(sender_idx.index(n) as u32);
        let got = net.multicast_recipients(group, sender);
        let sender_realm = net.realm_of(sender).unwrap();
        for r in &got {
            prop_assert_ne!(*r, sender, "sender never receives its own cast");
            prop_assert_eq!(net.realm_of(*r), Some(sender_realm), "realm-scoped");
        }
        // Sorted and unique.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(got, sorted);
    }

    #[test]
    fn partition_makes_both_directions_unreachable(
        a in 0u32..10, b in 0u32..10, seed in any::<u64>(),
    ) {
        prop_assume!(a != b);
        let mut net = NetworkModel::new();
        for i in 0..10 {
            net.register_node(NodeId(i), RealmId(0));
        }
        net.partition(NodeId(a), NodeId(b));
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(net.datagram_fate(NodeId(a), NodeId(b), &mut rng), DatagramFate::Unreachable);
        prop_assert_eq!(net.datagram_fate(NodeId(b), NodeId(a), &mut rng), DatagramFate::Unreachable);
        net.heal(NodeId(a), NodeId(b));
        prop_assert!(net.spec_between(NodeId(a), NodeId(b)).is_some());
    }

    #[test]
    fn one_way_partition_blocks_exactly_one_direction(
        a in 0u32..10, b in 0u32..10, seed in any::<u64>(),
    ) {
        prop_assume!(a != b);
        let mut net = NetworkModel::new();
        for i in 0..10 {
            net.register_node(NodeId(i), RealmId(0));
        }
        net.partition_one_way(NodeId(a), NodeId(b));
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(
            net.datagram_fate(NodeId(a), NodeId(b), &mut rng),
            DatagramFate::Unreachable
        );
        prop_assert!(net.spec_between(NodeId(b), NodeId(a)).is_some(), "reverse stays open");
        prop_assert!(net.path_blocked(NodeId(a), NodeId(b)));
        prop_assert!(!net.path_blocked(NodeId(b), NodeId(a)));
        net.heal_one_way(NodeId(a), NodeId(b));
        prop_assert!(net.spec_between(NodeId(a), NodeId(b)).is_some());
    }

    #[test]
    fn fault_plans_are_pure_functions_of_their_seed(
        seed in any::<u64>(),
        horizon_s in 20u64..300,
        heavy in any::<bool>(),
    ) {
        let profile = if heavy { ChaosProfile::heavy() } else { ChaosProfile::light() };
        let targets = ChaosTargets {
            bdns: vec![NodeId(0)],
            brokers: (1..5).map(NodeId).collect(),
            clients: vec![NodeId(5), NodeId(6)],
        };
        let horizon = Duration::from_secs(horizon_s);
        let p1 = FaultPlan::generate(seed, &profile, &targets, horizon);
        let p2 = FaultPlan::generate(seed, &profile, &targets, horizon);
        prop_assert_eq!(p1.describe(), p2.describe(), "same seed must reproduce the plan");
        prop_assert!(!p1.is_empty());
        let times: Vec<_> = p1.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        prop_assert_eq!(times, sorted, "plans are time-sorted");
    }

    #[test]
    fn clock_residuals_respect_the_profile(seed in any::<u64>()) {
        let profile = ClockProfile::paper();
        let mut rng = StdRng::seed_from_u64(seed);
        let c = profile.sample(SimTime::ZERO, &mut rng);
        let residual = c.residual_ns().unsigned_abs();
        prop_assert!((1_000_000..=20_000_000).contains(&residual));
        // Post-sync UTC error equals the residual (to µs rounding).
        let mut synced = c;
        synced.mark_synced();
        let now = SimTime::from_secs(100);
        let err = (synced.utc_micros(now) as i64 - true_utc_micros(now) as i64).unsigned_abs();
        prop_assert!(err.abs_diff(residual / 1_000) <= 2, "err {err} vs residual {}", residual / 1_000);
    }
}

/// The sender of `stream_book_never_reorders_a_direction`.
mod stream_order {
    use std::time::Duration;

    use nb_net::{impl_actor_any, Actor, Context, Incoming};
    use nb_wire::{Endpoint, Message, NodeId, Port};

    /// Sends ping `i` on one stream `gaps[i]` after ping `i - 1`.
    pub struct Paced {
        pub to: NodeId,
        pub gaps: Vec<Duration>,
        pub sent: usize,
    }

    impl Paced {
        fn arm(&self, ctx: &mut dyn Context) {
            if let Some(&gap) = self.gaps.get(self.sent) {
                ctx.set_timer(gap, 1);
            }
        }
    }

    impl Actor for Paced {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            self.arm(ctx);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { .. } = event {
                let reply_to = Endpoint::new(ctx.me(), Port(1));
                let ping = Message::Ping {
                    nonce: self.sent as u64,
                    sent_at: ctx.now().as_nanos(),
                    reply_to,
                };
                ctx.send_stream(Port(1), Endpoint::new(self.to, Port(2)), &ping);
                self.sent += 1;
                self.arm(ctx);
            }
        }
        impl_actor_any!();
    }
}

mod bandwidth_end_to_end {
    use std::time::Duration;

    use nb_net::runtime::IdleActor;
    use nb_net::{impl_actor_any, Actor, ClockProfile, Context, Incoming, LinkSpec, ShardedSim, Trace};
    use nb_util::Uuid;
    use nb_wire::{Endpoint, Event, Message, NodeId, Port, RealmId, Topic};

    struct Sender {
        peer: NodeId,
    }
    impl Actor for Sender {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            // A 125 KB event first (100 ms of serialisation at 1.25 MB/s),
            // then a tiny ping: the ping queues behind the bulk transfer.
            let bulk = Message::Publish(Event {
                id: Uuid::from_u128(1),
                topic: Topic::parse("bulk").unwrap(),
                source: ctx.me(),
                payload: vec![0u8; 125_000].into(),
            });
            ctx.send_udp(Port(1), Endpoint::new(self.peer, Port(1)), &bulk);
            let ping = Message::Ping {
                nonce: 1,
                sent_at: 0,
                reply_to: Endpoint::new(ctx.me(), Port(1)),
            };
            ctx.send_udp(Port(1), Endpoint::new(self.peer, Port(1)), &ping);
        }
        fn on_incoming(&mut self, _event: Incoming, _ctx: &mut dyn Context) {}
        impl_actor_any!();
    }

    #[test]
    fn bulk_traffic_delays_messages_queued_behind_it() {
        let mut sim = ShardedSim::with_clock_profile(5, ClockProfile::perfect());
        sim.network_mut().inter_realm_spec =
            LinkSpec { jitter: Duration::ZERO, ..LinkSpec::wan(Duration::from_millis(10)).with_loss(0.0) };
        let (trace, log) = Trace::new();
        let rx = sim.add_node("rx", RealmId(0), trace.wrap(Box::new(IdleActor)));
        sim.add_node("tx", RealmId(1), Box::new(Sender { peer: rx }));
        sim.run_for(Duration::from_secs(2));
        let arrivals = log.take();
        assert_eq!(arrivals.len(), 2);
        assert!(arrivals.iter().all(|r| !r.stream && r.to.node == rx));
        let bulk_at = arrivals.iter().find(|r| r.msg.kind() == "publish").unwrap().at;
        let ping_at = arrivals.iter().find(|r| r.msg.kind() == "ping").unwrap().at;
        // Bulk: 100 ms serialisation + 10 ms propagation.
        assert_eq!(bulk_at.as_millis(), 110);
        // The ping queued behind the bulk transfer: ~100 ms + tiny tx + 10 ms.
        assert!(ping_at > bulk_at, "ping {ping_at} must queue behind bulk {bulk_at}");
        assert!(ping_at.as_millis() <= 115, "ping {ping_at} only pays queueing, not more");
    }
}
