//! Traffic-model scenarios the engine is held to, each at one worker
//! and at four: a run is a function of its seed, the clock-sync event,
//! per-kind counters, the packet-fault window's duplication and
//! corruption, one-way partitions, v2 links' send order and symbol
//! tables across a crash, and the event count.

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use nb_wire::addr::well_known;
    use nb_wire::{Bytes, Endpoint, Message, NodeId, RealmId, WireMsg};

    use crate::chaos::{Fault, FaultPlan, PacketFaults};
    use crate::clock::ClockProfile;
    use crate::impl_actor_any;
    use crate::runtime::{Actor, Context, IdleActor, Incoming, Trace, TraceRecord};
    use crate::shard::ShardedSim;
    use crate::time::SimTime;
    use crate::timer_tests::{lossless, Echo, Pinger};

    /// The engine seeded `seed`, with perfect clocks and lossless links,
    /// at `workers` workers.
    fn engine(seed: u64, workers: usize) -> ShardedSim {
        let mut sim = ShardedSim::with_clock_profile(seed, ClockProfile::perfect());
        sim.set_workers(workers);
        lossless(&mut sim);
        sim
    }

    #[test]
    fn deterministic_given_seed() {
        for workers in [1, 4] {
            let run = |seed| {
                let mut sim = ShardedSim::new(seed);
                sim.set_workers(workers);
                let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
                let pinger = sim.add_node("pinger", RealmId(1), Box::new(Pinger::new(echo)));
                sim.run_for(Duration::from_secs(2));
                let p: &Pinger = sim.actor(pinger).unwrap();
                (p.rtts.clone(), sim.stats().datagrams_delivered)
            };
            assert_eq!(run(99), run(99));
            // and (overwhelmingly likely) different across seeds
            assert_ne!(run(1).0, run(2).0);
        }
    }

    #[test]
    fn clock_sync_event_delivered_and_utc_tightens() {
        struct SyncWatcher {
            synced_at: Option<SimTime>,
            err_before_us: Option<i64>,
            err_after_us: Option<i64>,
        }
        impl Actor for SyncWatcher {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                self.err_before_us =
                    Some(ctx.utc_micros() as i64 - crate::time::true_utc_micros(ctx.now()) as i64);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::ClockSynced = event {
                    self.synced_at = Some(ctx.now());
                    self.err_after_us =
                        Some(ctx.utc_micros() as i64 - crate::time::true_utc_micros(ctx.now()) as i64);
                }
            }
            impl_actor_any!();
        }
        for workers in [1, 4] {
            let mut sim = ShardedSim::new(17);
            sim.set_workers(workers);
            let n = sim.add_node(
                "w",
                RealmId(0),
                Box::new(SyncWatcher { synced_at: None, err_before_us: None, err_after_us: None }),
            );
            sim.run_for(Duration::from_secs(6));
            let w: &SyncWatcher = sim.actor(n).unwrap();
            let synced_at = w.synced_at.expect("sync event");
            let ms = synced_at.as_millis();
            assert!((3000..=5000).contains(&ms), "synced at {ms}ms");
            let after = w.err_after_us.unwrap().unsigned_abs();
            assert!((1_000..=20_000).contains(&after), "post-sync error {after}µs");
        }
    }

    #[test]
    fn stats_track_kinds() {
        for workers in [1, 4] {
            let mut sim = engine(1, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            assert_eq!(sim.stats().by_kind["ping"], 5);
            assert_eq!(sim.stats().by_kind["pong"], 5);
            assert!(sim.stats().bytes_delivered > 0);
        }
    }

    #[test]
    fn packet_duplication_delivers_extra_copies() {
        for workers in [1, 4] {
            let mut sim = engine(6, workers);
            let faults =
                PacketFaults { duplicate: 1.0, corrupt: 0.0, reorder: 0.0, extra_delay: Duration::from_millis(5) };
            // Queued before the nodes start, so their first sends roll it.
            let plan = FaultPlan::new().fault_at(Duration::ZERO, Fault::SetPacketFaults { faults });
            sim.apply_fault_plan(&plan);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            // Every ping arrives twice, so the echo answers 10 pongs (each
            // also duplicated in flight).
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 10);
            assert!(sim.stats().datagrams_duplicated >= 10);
            assert_eq!(sim.stats().datagrams_delivered, sim.stats().datagrams_sent * 2);
        }
    }

    #[test]
    fn packet_corruption_drops_and_counts() {
        for workers in [1, 4] {
            let mut sim = engine(6, workers);
            let faults = PacketFaults { duplicate: 0.0, corrupt: 1.0, reorder: 0.0, extra_delay: Duration::ZERO };
            // Queued before the nodes start, so their first sends roll it.
            let plan = FaultPlan::new().fault_at(Duration::ZERO, Fault::SetPacketFaults { faults });
            sim.apply_fault_plan(&plan);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 0);
            assert_eq!(sim.stats().datagrams_corrupted, 5);
            assert_eq!(sim.stats().datagrams_delivered, 0);
        }
    }

    #[test]
    fn one_way_partition_blocks_single_direction_and_is_counted() {
        for workers in [1, 4] {
            let mut sim = engine(2, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            let pinger = sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            // Block only the reply direction: pings arrive, pongs vanish.
            sim.network_mut().partition_one_way(echo, pinger);
            sim.run_for(Duration::from_secs(2));
            assert_eq!(sim.actor::<Echo>(echo).unwrap().pings_seen, 5);
            assert!(sim.actor::<Pinger>(pinger).unwrap().rtts.is_empty());
            assert_eq!(sim.stats().unreachable_partitioned, 5);
            assert_eq!(sim.stats().unreachable, 5);
            let stats = sim.stats();
            assert_eq!(stats.unreachable, stats.unreachable_partitioned + stats.unreachable_no_path);
            sim.network_mut().heal_one_way(echo, pinger);
            let pinger2 = sim.add_node("pinger2", RealmId(0), Box::new(Pinger::new(echo)));
            sim.run_for(Duration::from_secs(2));
            assert_eq!(sim.actor::<Pinger>(pinger2).unwrap().rtts.len(), 5);
        }
    }

    /// The one small publish the v2 tests send, under `id`.
    fn alpha_publish(id: u128, source: NodeId) -> WireMsg {
        WireMsg::new(Message::Publish(nb_wire::Event {
            id: nb_util::Uuid::from_u128(id),
            topic: nb_wire::Topic::parse("sensors/room/alpha").unwrap(),
            source,
            payload: Bytes::from_static(b"1"),
        }))
    }

    /// Sends `count` publishes on the same topic to `target` via the v2
    /// stream path in one dispatch, then `count` more on a later timer
    /// (a second burst on a now-warm symbol table).
    struct V2Burst {
        target: NodeId,
        count: u32,
    }

    impl V2Burst {
        /// `count` publishes with ids from `first_id`, in one dispatch.
        fn burst(&self, first_id: u128, ctx: &mut dyn Context) {
            for i in 0..self.count {
                ctx.send_stream_v2(
                    well_known::BROKER,
                    Endpoint::new(self.target, well_known::BROKER),
                    &alpha_publish(first_id + i as u128, ctx.me()),
                );
            }
        }
    }

    impl Actor for V2Burst {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            self.burst(1, ctx);
            ctx.set_timer(Duration::from_secs(1), 1);
        }

        fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
            if let Incoming::Timer { token: 1 } = event {
                self.burst(1000, ctx);
            }
        }
        impl_actor_any!();
    }

    /// `(event id, body length)` of each publish handed to `node` on a
    /// stream, in `records`' order.
    fn publishes_to(records: &[TraceRecord], node: NodeId) -> Vec<(u128, usize)> {
        let to_node = records.iter().filter(|r| r.stream && r.to.node == node);
        let publish = |r: &TraceRecord| match r.msg.message() {
            Message::Publish(ev) => Some((ev.id.as_u128(), r.msg.body_len())),
            _ => None,
        };
        to_node.filter_map(publish).collect()
    }

    /// Nothing coalesces any more — a send is a send; the test keeps the
    /// name the test floor knows it by.
    #[test]
    fn v2_streams_coalesce_deliver_in_order_and_warm_symbols_shrink() {
        for workers in [1, 4] {
            let mut sim = engine(8, workers);
            let (trace, log) = Trace::new();
            let sink = sim.add_node("sink", RealmId(0), trace.wrap(Box::new(IdleActor)));
            sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 6 }));
            sim.run_for(Duration::from_secs(3));
            let got = publishes_to(&log.take(), sink);
            assert_eq!(got.len(), 12, "every frame dispatched");
            let ids: Vec<u128> = got.iter().map(|(id, _)| *id).collect();
            let want: Vec<u128> = (1..=6).chain(1000..1006).collect();
            assert_eq!(ids, want, "frames arrive in send order across bursts");
            // A send is a send: two bursts of six, twelve one-frame segments.
            assert_eq!(sim.stats().segments_sent, 12);
            assert_eq!(sim.stats().segments_delivered, 12);
            assert_eq!(sim.stats().frames_coalesced, 12);
            assert_eq!(sim.stats().stream_delivered, 12);
            assert_eq!(sim.stats().segment_decode_errors, 0);
            // The first frame of burst one paid for the symbol definition;
            // every later frame on the warm table is smaller, and all are
            // smaller than the v1 encoding of the same message.
            let v1 = alpha_publish(1, NodeId(1)).body_len();
            assert!(got[0].1 < v1, "cold v2 frame {} < v1 body {v1}", got[0].1);
            assert!(got[1].1 < got[0].1, "warm frame drops the symbol definition");
            for (_, len) in &got[1..] {
                assert_eq!(*len, got[1].1, "warm frames are uniformly compact");
            }
        }
    }

    #[test]
    fn v2_send_to_an_unreachable_peer_mints_no_symbols_anywhere() {
        /// One handler: a publish to a partitioned peer, then the same
        /// publish to a reachable one.
        struct TwoSends {
            cut: NodeId,
            ok: NodeId,
        }
        impl Actor for TwoSends {
            fn on_start(&mut self, ctx: &mut dyn Context) {
                ctx.set_timer(Duration::from_millis(100), 1);
            }
            fn on_incoming(&mut self, event: Incoming, ctx: &mut dyn Context) {
                if let Incoming::Timer { .. } = event {
                    let msg = alpha_publish(ctx.now().as_micros() as u128, ctx.me());
                    for to in [self.cut, self.ok] {
                        ctx.send_stream_v2(
                            well_known::BROKER,
                            Endpoint::new(to, well_known::BROKER),
                            &msg,
                        );
                    }
                    ctx.set_timer(Duration::from_millis(100), 1);
                }
            }
            impl_actor_any!();
        }
        for workers in [1, 4] {
            let mut sim = engine(8, workers);
            let (trace, log) = Trace::new();
            let cut = sim.add_node("cut", RealmId(0), trace.wrap(Box::new(IdleActor)));
            let ok = sim.add_node("ok", RealmId(0), trace.wrap(Box::new(IdleActor)));
            let sender = sim.add_node("sender", RealmId(0), Box::new(TwoSends { cut, ok }));
            sim.network_mut().partition(sender, cut);
            sim.run_for(Duration::from_millis(250));
            // Two rounds: both drops counted by fate, nothing sent to `cut`.
            assert_eq!(sim.stats().unreachable, 2);
            assert_eq!(sim.stats().unreachable_partitioned, 2);
            assert_eq!(sim.stats().unreachable_no_path, 0);
            assert_eq!(sim.stats().segments_sent, 2);
            let records = log.take();
            assert!(publishes_to(&records, cut).is_empty());
            // The reachable link saw exactly a cold frame then a warm one:
            // the drop before each send neither defined its symbol nor
            // consumed one.
            let to_ok = publishes_to(&records, ok);
            assert_eq!(to_ok.len(), 2);
            assert!(to_ok[1].1 < to_ok[0].1, "second frame rides the warm table");
            // Heal: the cut link starts cold — the two drops minted nothing
            // on it — and decodes cleanly.
            sim.network_mut().heal(sender, cut);
            sim.run_for(Duration::from_millis(100));
            let to_cut = publishes_to(&log.take(), cut);
            assert_eq!(to_cut.len(), 1);
            assert_eq!(to_cut[0].1, to_ok[0].1, "first frame after the heal defines the symbol");
            assert_eq!(sim.stats().segment_decode_errors, 0);
        }
    }

    #[test]
    fn v2_crash_resets_link_symbol_tables() {
        for workers in [1, 4] {
            let mut sim = engine(8, workers);
            let (trace, log) = Trace::new();
            let sink = sim.add_node("sink", RealmId(0), trace.wrap(Box::new(IdleActor)));
            let burst = sim.add_node("burst", RealmId(0), Box::new(V2Burst { target: sink, count: 3 }));
            sim.set_respawn(burst, Box::new(move || Box::new(V2Burst { target: sink, count: 3 })));
            sim.run_for(Duration::from_millis(500));
            let mut got = publishes_to(&log.take(), sink);
            let (cold, warm) = (got[0].1, got[1].1);
            assert!(warm < cold);
            // Restart the sender: its link state (and the sink's reader) is
            // torn down, so the next burst re-ships the symbol definition
            // and still decodes cleanly.
            sim.apply_fault(Fault::Restart { node: burst, lose_state: true });
            sim.run_for(Duration::from_millis(500));
            got.extend(publishes_to(&log.take(), sink));
            assert_eq!(got.len(), 6);
            assert_eq!(got[3].1, cold, "post-restart first frame redefines the symbol");
            assert_eq!(got[4].1, warm);
            assert_eq!(sim.stats().segment_decode_errors, 0);
        }
    }

    #[test]
    fn events_processed_counts_every_step() {
        for workers in [1, 4] {
            let mut sim = engine(1, workers);
            let echo = sim.add_node("echo", RealmId(0), Box::new(Echo::default()));
            sim.add_node("pinger", RealmId(0), Box::new(Pinger::new(echo)));
            assert_eq!(sim.events_processed(), 0);
            sim.run_for(Duration::from_secs(2));
            // 2 starts + 2 clock syncs + 5 pings + 5 pongs + 1 timer.
            assert_eq!(sim.events_processed(), 15);
        }
    }
}
