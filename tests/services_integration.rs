//! The substrate services composed over the live overlay: compressed +
//! fragmented bulk transfer through brokers.

use std::time::Duration;

use nb::broker::{BrokerActor, BrokerConfig, PubSubClient};
use nb::net::{ClockProfile, LinkSpec, Sim};
use nb::services::compress::{compress_payload, decompress_payload};
use nb::services::fragment::{fragment_payload, Fragment, Reassembler};
use nb::util::Uuid;
use nb::wire::{RealmId, Topic, TopicFilter, Wire};

fn quiet_sim(seed: u64) -> Sim {
    let mut sim = Sim::with_clock_profile(seed, ClockProfile::perfect());
    sim.network_mut().intra_realm_spec = LinkSpec::lan().with_loss(0.0);
    sim.network_mut().inter_realm_spec = LinkSpec::wan(Duration::from_millis(12)).with_loss(0.0);
    sim
}

#[test]
fn compressed_fragmented_bulk_transfer_over_the_overlay() {
    let mut sim = quiet_sim(71);
    let a = sim.add_node("a", RealmId(0), Box::new(BrokerActor::new(BrokerConfig::default())));
    let b = sim.add_node(
        "b",
        RealmId(1),
        Box::new(BrokerActor::new(BrokerConfig {
            neighbors: vec![a],
            ..BrokerConfig::default()
        })),
    );
    let filter = TopicFilter::parse("bulk/**").unwrap();
    let rx = sim.add_node("rx", RealmId(1), Box::new(PubSubClient::new(b, vec![filter])));
    let tx = sim.add_node("tx", RealmId(0), Box::new(PubSubClient::new(a, vec![])));
    sim.run_for(Duration::from_secs(3));

    // A large, compressible dataset: compress, then fragment to 1 KiB
    // chunks, publishing each chunk as its own event.
    let dataset = b"field,value\ntemperature,21.5\npressure,101.3\n".repeat(800);
    let envelope = compress_payload(&dataset);
    assert!(envelope.len() < dataset.len() / 2, "dataset should compress well");
    let frags = fragment_payload(Uuid::from_u128(99), &envelope, 1024);
    let n_frags = frags.len();
    assert!(n_frags > 3, "need a real multi-fragment transfer");
    {
        let sender = sim.actor_mut::<PubSubClient>(tx).unwrap();
        for f in frags {
            sender.queue_publish(Topic::parse("bulk/dataset").unwrap(), f.to_bytes().to_vec());
        }
    }
    sim.run_for(Duration::from_secs(5));

    let receiver = sim.actor::<PubSubClient>(rx).unwrap();
    assert_eq!(receiver.received.len(), n_frags, "every fragment-event arrived");
    let mut reassembler = Reassembler::new(Duration::from_secs(60), 8);
    let mut rebuilt = None;
    for ev in &receiver.received {
        let frag = Fragment::from_bytes(&ev.payload).expect("valid fragment");
        if let Some(payload) = reassembler.accept(frag, sim.now()) {
            rebuilt = Some(payload);
        }
    }
    let rebuilt = rebuilt.expect("dataset reassembled");
    assert_eq!(decompress_payload(&rebuilt).unwrap(), dataset);
}
