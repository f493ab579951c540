//! Wire v2's headline number as a deterministic byte tally: a broker
//! sending control-plane messages to `fan_out` overlay links. v1 charges
//! one framed copy (prelude + body) per message per link; v2 keeps a
//! symbol table per link and sends each message as the engine does —
//! [`BATCH`] frame to a segment. No timing — what v2 costs in time is
//! `pubsub_v2` vs `pubsub_v1` in `BENCHMARK.json`.

use nb_util::Uuid;
use nb_wire::frame::{DEFAULT_TTL, PRELUDE_LEN};
use nb_wire::v2::{decode_segment, encode_segment};
use nb_wire::{
    DiscoveryRequest, Endpoint, Event, Message, NodeId, Port, RealmId, SymTabReader, SymTabWriter,
    Topic, TopicFilter, Wire,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frames per segment: what `Sim` sends (`net.frames_per_segment` is
/// 1.0 by construction).
const BATCH: usize = 1;
/// Segments per link.
const EPOCHS: usize = 1024;
/// Fixed base the segments' delta timestamps encode against.
const BASE_UTC: u64 = 1_100_000_000_000_000;

/// The control-plane mix a broker link carries between bulk publishes:
/// small sensor readings on a bounded topic pool, heartbeats, interest
/// advertisements, discovery floods. Small messages are where framing
/// overhead dominates, so this is the population v2 is aimed at.
fn control_population(seed: u64) -> Vec<Message> {
    let rng = &mut StdRng::seed_from_u64(seed ^ 0x5_e9ab);
    (0..BATCH * EPOCHS)
        .map(|i| match i % 5 {
            0 | 1 => {
                let raw = format!(
                    "devices/rack{:02}/sensor{:02}/reading",
                    rng.gen_range(0..3usize),
                    rng.gen_range(0..6usize)
                );
                let len = rng.gen_range(16..=32usize);
                let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                Message::Publish(Event {
                    id: Uuid::random(rng),
                    topic: Topic::parse(&raw).expect("generated topic is valid"),
                    source: NodeId(rng.gen_range(1..100)),
                    payload: payload.into(),
                })
            }
            2 => Message::Heartbeat {
                from: NodeId(rng.gen_range(1..100)),
                seq: rng.gen_range(0..1000),
            },
            3 => Message::Subscribe {
                filter: TopicFilter::parse(&format!(
                    "devices/rack{:02}/**",
                    rng.gen_range(0..3usize)
                ))
                .expect("generated filter is valid"),
                origin: NodeId(rng.gen_range(1..100)),
                seq: rng.gen_range(0..1000),
            },
            _ => Message::Discovery(DiscoveryRequest {
                request_id: Uuid::random(rng),
                requester: NodeId(rng.gen_range(1..100)),
                hostname: format!("host-{:02}.lab", rng.gen_range(0..20)),
                realm: RealmId(1),
                reply_to: Endpoint::new(NodeId(rng.gen_range(1..100)), Port(5060)),
                transports: vec![],
                credentials: None,
                issued_at_utc: BASE_UTC + rng.gen_range(0..5_000u64),
            }),
        })
        .collect()
}

/// `(v1, v2)` wire bytes per delivered message at `fan_out` links.
fn bytes_per_delivery(msgs: &[Message], fan_out: usize) -> (f64, f64) {
    let v1: usize = msgs.iter().map(|m| PRELUDE_LEN + m.to_bytes().len()).sum::<usize>() * fan_out;
    let mut writers: Vec<SymTabWriter> = (0..fan_out).map(|_| SymTabWriter::new()).collect();
    let mut v2 = 0usize;
    for epoch in msgs.chunks(BATCH) {
        let items: Vec<(u8, u8, &Message)> = epoch.iter().map(|m| (DEFAULT_TTL, 0, m)).collect();
        for w in &mut writers {
            let (segment, frame_lens) = encode_segment(&items, BASE_UTC, w);
            assert_eq!(frame_lens.len(), BATCH);
            v2 += segment.len();
        }
    }
    let deliveries = (msgs.len() * fan_out) as f64;
    (v1 as f64 / deliveries, v2 as f64 / deliveries)
}

#[test]
fn v2_cuts_bytes_per_delivery_at_seed_11() {
    let msgs = control_population(11);

    // The segment stream one link receives decodes back to exactly the
    // sent messages, so the tally below counts a correct encoding.
    let (mut w, mut r) = (SymTabWriter::new(), SymTabReader::new());
    for epoch in msgs.chunks(BATCH) {
        let items: Vec<(u8, u8, &Message)> = epoch.iter().map(|m| (DEFAULT_TTL, 0, m)).collect();
        let (segment, _) = encode_segment(&items, BASE_UTC, &mut w);
        let frames = decode_segment(&segment, &mut r).expect("segment decodes");
        assert!(frames.iter().map(|f| &f.msg).eq(epoch.iter()), "v2 diverged from what was sent");
    }

    let (v1, v2) = bytes_per_delivery(&msgs, 32);
    // The figures README and DESIGN.md §16 quote (1.34×).
    assert_eq!((format!("{v1:.1}"), format!("{v2:.1}")), ("58.3".into(), "43.4".into()));
    // Every link gets an identical segment stream: fan-out is a
    // throughput axis, not a size axis.
    assert_eq!(bytes_per_delivery(&msgs, 4), (v1, v2));
}
