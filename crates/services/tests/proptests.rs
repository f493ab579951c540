//! Property-based tests for the substrate services: compression and
//! fragmentation round-trip arbitrary payloads under arbitrary delivery
//! schedules.

use proptest::prelude::*;

use nb_services::compress::{compress_payload, decompress_payload};
use nb_services::fragment::{fragment_payload, Reassembler};
use nb_util::Uuid;

use nb_net::SimTime;

proptest! {
    #[test]
    fn compression_roundtrips_arbitrary_payloads(
        data in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        let env = compress_payload(&data);
        prop_assert!(env.len() <= data.len() + 5, "bounded overhead");
        prop_assert_eq!(decompress_payload(&env).unwrap(), data);
    }

    #[test]
    fn compression_roundtrips_structured_payloads(
        word in "[a-d]{1,6}",
        repeats in 1usize..400,
    ) {
        let data = word.repeat(repeats).into_bytes();
        let env = compress_payload(&data);
        prop_assert_eq!(decompress_payload(&env).unwrap(), data.clone());
        if data.len() > 256 {
            prop_assert!(env.len() < data.len(), "repetitive text must compress");
        }
    }

    #[test]
    fn decompress_never_panics_on_junk(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decompress_payload(&junk);
    }

    #[test]
    fn fragmentation_roundtrips_under_any_permutation(
        data in prop::collection::vec(any::<u8>(), 0..5000),
        mtu in 1usize..800,
        shuffle_seed in any::<u64>(),
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut frags = fragment_payload(Uuid::from_u128(1), &data, mtu);
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        frags.shuffle(&mut rng);
        let mut r = Reassembler::new(std::time::Duration::from_secs(60), 16);
        let mut out = None;
        for f in frags {
            if let Some(p) = r.accept(f, SimTime::ZERO) {
                prop_assert!(out.is_none(), "completed twice");
                out = Some(p);
            }
        }
        prop_assert_eq!(out.expect("message completed"), data);
    }

    #[test]
    fn fragment_sizes_respect_the_mtu(
        len in 0usize..5000,
        mtu in 1usize..800,
    ) {
        let data = vec![7u8; len];
        let frags = fragment_payload(Uuid::from_u128(2), &data, mtu);
        let total: usize = frags.iter().map(|f| f.chunk.len()).sum();
        prop_assert_eq!(total, data.len());
        for f in &frags {
            prop_assert!(f.chunk.len() <= mtu);
            prop_assert_eq!(f.count as usize, frags.len());
        }
        // Indices are 0..count in order.
        for (i, f) in frags.iter().enumerate() {
            prop_assert_eq!(f.index as usize, i);
        }
    }
}
