//! Property-based tests for the security substrate: round-trips under
//! arbitrary inputs, and rejection of arbitrary tampering.

use proptest::prelude::*;

use nb_security::{
    decrypt_cbc, encrypt_cbc, open_envelope, seal_envelope, sha256, sign, verify,
    Authority, Certificate, Identity, KeyPair,
};
use nb_util::Uuid;
use nb_wire::{Event, Message, NodeId, Topic};

use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn sha256_incremental_matches_oneshot(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        split in any::<prop::sample::Index>(),
    ) {
        let cut = split.index(data.len() + 1);
        let mut h = nb_security::Sha256::new();
        h.update(&data[..cut]).update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha256_is_injective_in_practice(
        a in prop::collection::vec(any::<u8>(), 0..256),
        b in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn cbc_roundtrip_arbitrary(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 8]>(),
        pt in prop::collection::vec(any::<u8>(), 0..1024),
    ) {
        let ct = encrypt_cbc(&key, &iv, &pt);
        prop_assert_eq!(ct.len() % 8, 0);
        prop_assert!(ct.len() > pt.len());
        prop_assert_eq!(decrypt_cbc(&key, &iv, &ct).unwrap(), pt);
    }

    #[test]
    fn signatures_verify_and_reject_tampering(
        secret in 1u64..nb_security::keys::Q,
        msg in prop::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyPair::from_private(secret);
        let sig = sign(&keys, &msg, &mut rng);
        prop_assert!(verify(keys.public, &msg, &sig));
        if !msg.is_empty() {
            let mut tampered = msg.clone();
            let i = flip.index(tampered.len());
            tampered[i] ^= 0x80;
            prop_assert!(!verify(keys.public, &tampered, &sig));
        }
    }

    #[test]
    fn certificate_encoding_roundtrips(
        subject in "[a-zA-Z0-9 .-]{1,40}",
        from in any::<u32>(),
        span in 1u32..u32::MAX,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let valid_from = u64::from(from);
        let valid_until = valid_from + u64::from(span);
        let ca = Authority::new_root("CA", valid_from, valid_until, &mut rng);
        let keys = KeyPair::generate(&mut rng);
        let cert = ca.issue(&subject, keys.public, valid_from, valid_until, &mut rng);
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        prop_assert_eq!(&decoded, &cert);
        prop_assert!(decoded.verify_signature(ca.keys.public));
        Certificate::validate_chain(
            &[decoded],
            &ca.root_cert,
            valid_from + u64::from(span) / 2,
        ).unwrap();
    }

    #[test]
    fn envelope_roundtrips_arbitrary_payload(
        payload in prop::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = Authority::new_root("CA", 0, u64::MAX, &mut rng);
        let alice = Identity::issued_by("alice", &ca, &mut rng);
        let bob = Identity::issued_by("bob", &ca, &mut rng);
        let inner = Message::Publish(Event {
            id: Uuid::from_u128(9),
            topic: Topic::parse("x/y").unwrap(),
            source: NodeId(1),
            payload: payload.into(),
        });
        let env = seal_envelope(&inner, &alice, bob.public(), &mut rng);
        let opened = open_envelope(&env, &bob, &ca.root_cert, 5).unwrap();
        prop_assert_eq!(opened, inner);
    }

    #[test]
    fn envelope_rejects_arbitrary_ciphertext_corruption(
        seed in any::<u64>(),
        flip in any::<prop::sample::Index>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ca = Authority::new_root("CA", 0, u64::MAX, &mut rng);
        let alice = Identity::issued_by("alice", &ca, &mut rng);
        let bob = Identity::issued_by("bob", &ca, &mut rng);
        let inner = Message::Heartbeat { from: NodeId(1), seq: 1 };
        let mut env = seal_envelope(&inner, &alice, bob.public(), &mut rng);
        let i = flip.index(env.ciphertext.len());
        let mut tampered = env.ciphertext.to_vec();
        tampered[i] ^= 0xFF;
        env.ciphertext = tampered.into();
        prop_assert!(open_envelope(&env, &bob, &ca.root_cert, 5).is_err());
    }

    #[test]
    fn modpow_matches_naive_for_small_inputs(
        base in 0u64..1000,
        exp in 0u64..64,
        modulus in 2u64..10_000,
    ) {
        let fast = nb_security::keys::modpow(base, exp, modulus);
        let mut naive = 1u64 % modulus;
        for _ in 0..exp {
            naive = (naive as u128 * base as u128 % modulus as u128) as u64;
        }
        prop_assert_eq!(fast, naive);
    }
}
