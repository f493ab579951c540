//! Property-based tests for the wire layer: arbitrary messages round-trip
//! through the codec and are sized exactly as they encode, arbitrary
//! topic/filter pairs obey matching laws, and frame peeks agree with a
//! full decode.

use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use nb_util::Uuid;
use nb_wire::intern::{intern_symbol, symbol_filter, symbol_topic};
use nb_wire::message::{SecureEnvelope, TransportEndpoint};
use nb_wire::topic::{
    BDN_ADVERTISEMENT_TOPIC, BROKER_ADVERTISEMENT_TOPIC, DISCOVERY_REQUEST_TOPIC,
};
use nb_wire::{
    BrokerAdvertisement, Credential, DiscoveryRequest, DiscoveryResponse, Endpoint, Event,
    Message, NodeId, Port, RealmId, SegId, SymId, Topic, TopicFilter, TransportKind, UsageMetrics,
    Wire,
};

fn arb_node() -> impl Strategy<Value = NodeId> {
    any::<u32>().prop_map(NodeId)
}

fn arb_port() -> impl Strategy<Value = Port> {
    any::<u16>().prop_map(Port)
}

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (arb_node(), arb_port()).prop_map(|(n, p)| Endpoint::new(n, p))
}

fn arb_realm() -> impl Strategy<Value = RealmId> {
    any::<u16>().prop_map(RealmId)
}

fn arb_transport_kind() -> impl Strategy<Value = TransportKind> {
    prop_oneof![
        Just(TransportKind::Udp),
        Just(TransportKind::Tcp),
        Just(TransportKind::Multicast)
    ]
}

fn arb_transport() -> impl Strategy<Value = TransportEndpoint> {
    (arb_transport_kind(), arb_port()).prop_map(|(kind, port)| TransportEndpoint { kind, port })
}

fn arb_uuid() -> impl Strategy<Value = Uuid> {
    any::<u128>().prop_map(Uuid::from_u128)
}

/// A topic segment: 1–8 alphanumeric chars (never a wildcard).
fn arb_segment() -> impl Strategy<Value = String> {
    "[a-z0-9]{1,8}"
}

/// A valid concrete topic string.
fn arb_topic_str() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_segment(), 1..5).prop_map(|segs| segs.join("/"))
}

fn arb_topic() -> impl Strategy<Value = Topic> {
    arb_topic_str().prop_map(|s| Topic::parse(&s).unwrap())
}

/// A valid filter string: segments and `*`s, sometimes a final `**`.
fn arb_filter_str() -> impl Strategy<Value = String> {
    let seg = prop_oneof![arb_segment(), Just("*".to_string())];
    (prop::collection::vec(seg, 1..5), any::<bool>()).prop_map(|(mut segs, tail)| {
        if tail {
            segs.push("**".to_string());
        }
        segs.join("/")
    })
}

fn arb_filter() -> impl Strategy<Value = TopicFilter> {
    arb_filter_str().prop_map(|s| TopicFilter::parse(&s).unwrap())
}

/// Holds a local parse to the symbol table's parse of the same string:
/// same string, segment ids, symbol id, and Eq/Ord/Hash; and a clone of
/// either shares its original's string.
fn parses_agree<T>(
    local: &T,
    table: &T,
    view: fn(&T) -> (&str, &[SegId], SymId),
) -> Result<(), TestCaseError>
where
    T: Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let hash = |x: &T| BuildHasherDefault::<DefaultHasher>::default().hash_one(x);
    prop_assert_eq!(view(local), view(table));
    prop_assert_eq!(local, table);
    prop_assert_eq!(local.cmp(table), std::cmp::Ordering::Equal);
    prop_assert_eq!(hash(local), hash(table));
    for parse in [local, table] {
        prop_assert_eq!(view(&parse.clone()).0.as_ptr(), view(parse).0.as_ptr(), "a clone shares the string");
    }
    Ok(())
}

fn arb_string() -> impl Strategy<Value = String> {
    "[ -~]{0,40}" // printable ASCII
}

fn arb_credential() -> impl Strategy<Value = Credential> {
    (arb_string(), prop::collection::vec(any::<u8>(), 0..64))
        .prop_map(|(principal, token)| Credential { principal, token })
}

fn arb_metrics() -> impl Strategy<Value = UsageMetrics> {
    (any::<u32>(), any::<u32>(), 0u16..=1000, any::<u64>(), any::<u64>()).prop_map(
        |(active_connections, num_links, cpu_load_permille, total_memory, used_memory)| {
            UsageMetrics {
                active_connections,
                num_links,
                cpu_load_permille,
                total_memory,
                used_memory,
            }
        },
    )
}

fn arb_advertisement() -> impl Strategy<Value = BrokerAdvertisement> {
    (
        arb_node(),
        arb_string(),
        arb_string(),
        arb_realm(),
        prop::collection::vec(arb_transport(), 0..4),
        prop::option::of(arb_string()),
        prop::option::of(arb_string()),
        any::<u64>(),
    )
        .prop_map(
            |(broker, hostname, logical_address, realm, transports, geography, institution, t)| {
                BrokerAdvertisement {
                    broker,
                    hostname,
                    logical_address,
                    realm,
                    transports,
                    geography,
                    institution,
                    issued_at_utc: t,
                }
            },
        )
}

fn arb_request() -> impl Strategy<Value = DiscoveryRequest> {
    (
        arb_uuid(),
        arb_node(),
        arb_string(),
        arb_realm(),
        arb_endpoint(),
        prop::collection::vec(arb_transport(), 0..4),
        prop::option::of(arb_credential()),
        any::<u64>(),
    )
        .prop_map(
            |(request_id, requester, hostname, realm, reply_to, transports, credentials, t)| {
                DiscoveryRequest {
                    request_id,
                    requester,
                    hostname,
                    realm,
                    reply_to,
                    transports,
                    credentials,
                    issued_at_utc: t,
                }
            },
        )
}

fn arb_response() -> impl Strategy<Value = DiscoveryResponse> {
    (
        arb_uuid(),
        arb_node(),
        arb_string(),
        arb_realm(),
        prop::collection::vec(arb_transport(), 0..4),
        any::<u64>(),
        arb_metrics(),
    )
        .prop_map(|(request_id, broker, hostname, realm, transports, issued_at_utc, metrics)| {
            DiscoveryResponse {
                request_id,
                broker,
                hostname,
                realm,
                transports,
                issued_at_utc,
                metrics,
            }
        })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (arb_uuid(), arb_topic(), arb_node(), prop::collection::vec(any::<u8>(), 0..128))
        .prop_map(|(id, topic, source, payload)| Event {
            id,
            topic,
            source,
            payload: payload.into(),
        })
}

/// A `Publish` on one of the well-known flooding topics, its payload an
/// encoded message nested inside the event.
fn arb_flood_publish() -> impl Strategy<Value = Message> {
    let nested = prop_oneof![
        arb_request().prop_map(|req| (DISCOVERY_REQUEST_TOPIC, Message::Discovery(req))),
        arb_advertisement().prop_map(|ad| (BROKER_ADVERTISEMENT_TOPIC, Message::Advertisement(ad))),
        (arb_node(), arb_endpoint(), any::<bool>()).prop_map(|(bdn, endpoint, creds)| (
            BDN_ADVERTISEMENT_TOPIC,
            Message::BdnAdvertisement { bdn, endpoint, requires_credentials: creds }
        )),
    ];
    (arb_uuid(), arb_node(), nested).prop_map(|(id, source, (topic, inner))| {
        Message::Publish(Event {
            id,
            topic: Topic::parse(topic).unwrap(),
            source,
            payload: inner.to_bytes(),
        })
    })
}

/// Every message kind, flooded publishes with a nested message included.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_node(), arb_realm()).prop_map(|(from, realm)| Message::LinkHello { from, realm }),
        (arb_node(), arb_realm()).prop_map(|(from, realm)| Message::LinkAccept { from, realm }),
        arb_node().prop_map(|from| Message::LinkClose { from }),
        (arb_node(), any::<u64>()).prop_map(|(from, seq)| Message::Heartbeat { from, seq }),
        (arb_filter(), arb_node(), any::<u64>())
            .prop_map(|(filter, origin, seq)| Message::Subscribe { filter, origin, seq }),
        (arb_filter(), arb_node(), any::<u64>())
            .prop_map(|(filter, origin, seq)| Message::Unsubscribe { filter, origin, seq }),
        arb_event().prop_map(Message::Publish),
        arb_flood_publish(),
        (arb_node(), arb_port())
            .prop_map(|(client, reply_port)| Message::ClientConnect { client, reply_port }),
        (arb_node(), any::<bool>())
            .prop_map(|(broker, accepted)| Message::ClientConnectAck { broker, accepted }),
        arb_filter().prop_map(|filter| Message::ClientSubscribe { filter }),
        arb_filter().prop_map(|filter| Message::ClientUnsubscribe { filter }),
        arb_node().prop_map(|client| Message::ClientDisconnect { client }),
        (arb_node(), arb_endpoint(), any::<bool>()).prop_map(
            |(bdn, endpoint, requires_credentials)| Message::BdnAdvertisement {
                bdn,
                endpoint,
                requires_credentials
            }
        ),
        (arb_node(), any::<u32>())
            .prop_map(|(source, lease_ms)| Message::Prune { source, lease_ms }),
        arb_advertisement().prop_map(Message::Advertisement),
        arb_request().prop_map(Message::Discovery),
        (arb_uuid(), arb_node())
            .prop_map(|(request_id, bdn)| Message::DiscoveryAck { request_id, bdn }),
        arb_response().prop_map(Message::Response),
        (any::<u64>(), any::<u64>(), arb_endpoint())
            .prop_map(|(nonce, sent_at, reply_to)| Message::Ping { nonce, sent_at, reply_to }),
        (any::<u64>(), any::<u64>(), arb_node()).prop_map(
            |(nonce, echoed_sent_at, responder)| Message::Pong {
                nonce,
                echoed_sent_at,
                responder
            }
        ),
        (
            arb_string(),
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 0..3),
            prop::collection::vec(any::<u8>(), 0..64),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(sender, cert_chain, ciphertext, signature)| Message::Secure(
                SecureEnvelope {
                    sender,
                    cert_chain: cert_chain.into_iter().map(Into::into).collect(),
                    ciphertext: ciphertext.into(),
                    signature: signature.into(),
                }
            )),
    ]
}

/// The pre-frame decode path — [`Message::from_bytes`] over a plain
/// slice, every field freshly allocated — kept as the oracle the
/// zero-copy peek/forward paths must agree with.
fn full_decode_oracle(body: &[u8]) -> Result<Message, nb_wire::WireError> {
    Message::from_bytes(body)
}

proptest! {
    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let bytes = msg.to_bytes();
        let back = Message::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn message_decode_never_panics_on_junk(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::from_bytes(&bytes); // must not panic
    }

    #[test]
    fn exact_filter_matches_its_topic(topic in arb_topic()) {
        prop_assert!(TopicFilter::exact(&topic).matches(&topic));
    }

    #[test]
    fn star_matches_any_same_depth(topic in arb_topic()) {
        let stars = vec!["*"; topic.seg_ids().len()].join("/");
        let f = TopicFilter::parse(&stars).unwrap();
        prop_assert!(f.matches(&topic));
    }

    #[test]
    fn doublestar_prefix_matching(topic in arb_topic()) {
        // "<first>/**" matches iff first segment agrees.
        let first = topic.as_str().split('/').next().unwrap().to_string();
        let f = TopicFilter::parse(&format!("{first}/**")).unwrap();
        prop_assert!(f.matches(&topic));
        let g = TopicFilter::parse("zzzzzzzzz/**").unwrap();
        prop_assert!(!g.matches(&topic) || first == "zzzzzzzzz");
    }

    #[test]
    fn a_local_parse_agrees_with_the_symbol_table_parse(t in arb_topic_str(), f in arb_filter_str()) {
        let table_topic = symbol_topic(intern_symbol(&t)).unwrap();
        parses_agree(&Topic::parse(&t).unwrap(), &table_topic, |x| (x.as_str(), x.seg_ids(), x.symbol()))?;
        let table_filter = symbol_filter(intern_symbol(&f)).unwrap();
        let view: fn(&TopicFilter) -> (&str, &[SegId], SymId) = |x| (x.as_str(), x.seg_ids(), x.symbol());
        parses_agree(&TopicFilter::parse(&f).unwrap(), &table_filter, view)?;
        // An exact filter shares its topic's parse and agrees with the
        // table's filter of the same string.
        let exact = TopicFilter::exact(&Topic::parse(&t).unwrap());
        parses_agree(&exact, &symbol_filter(intern_symbol(&t)).unwrap(), view)?;
    }

    #[test]
    fn filter_matching_is_deterministic(f in arb_filter(), t in arb_topic()) {
        prop_assert_eq!(f.matches(&t), f.matches(&t));
    }

    #[test]
    fn subsumption_implies_matching(f in arb_filter(), g in arb_filter(), t in arb_topic()) {
        // Soundness: if f subsumes g, every topic g matches, f matches.
        if f.subsumes(&g) && g.matches(&t) {
            prop_assert!(
                f.matches(&t),
                "{} subsumes {} but missed topic {}", f, g, t
            );
        }
        // Reflexivity.
        prop_assert!(f.subsumes(&f));
    }

    // ---------------------------------------- zero-copy wire path -----

    #[test]
    fn peek_agrees_with_full_decode(msg in arb_message(), ttl in any::<u8>(), hops in any::<u8>()) {
        let frame = nb_wire::frame_message(&msg, ttl, hops);
        let h = nb_wire::frame::peek(&frame).unwrap();
        prop_assert_eq!((h.ttl, h.hops), (ttl, hops));

        // Oracle: the old decode-everything path on the body bytes.
        let body = &frame[nb_wire::PRELUDE_LEN..];
        let oracle = full_decode_oracle(body).unwrap();
        prop_assert_eq!(h.tag, oracle.to_bytes()[0]);
        let (want_uuid, want_topic_len) = match &oracle {
            Message::Publish(ev) => (Some(ev.id), Some(ev.topic.as_str().len())),
            Message::Discovery(req) => (Some(req.request_id), None),
            Message::DiscoveryAck { request_id, .. } => (Some(*request_id), None),
            Message::Response(resp) => (Some(resp.request_id), None),
            _ => (None, None),
        };
        prop_assert_eq!(h.uuid, want_uuid);
        prop_assert_eq!(h.topic_len, want_topic_len);
    }

    #[test]
    fn framed_decode_agrees_with_oracle(msg in arb_message()) {
        let frame = nb_wire::frame_message(&msg, nb_wire::DEFAULT_TTL, 0);
        let (_, zero_copy) = nb_wire::decode_framed(&frame).unwrap();
        let oracle = full_decode_oracle(&frame[nb_wire::PRELUDE_LEN..]).unwrap();
        prop_assert_eq!(&zero_copy, &oracle);
        prop_assert_eq!(zero_copy, msg);
    }

    #[test]
    fn counted_size_equals_encoded_bytes(msg in arb_message()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(msg.wire_len(), bytes.len(), "{}", msg.kind());
        prop_assert_eq!(nb_wire::WireMsg::new(msg.clone()).body_len(), bytes.len());
        if let Message::Publish(ev) = &msg {
            prop_assert_eq!(ev.wire_len(), bytes.len() - 1, "tag + event");
        }
    }

    #[test]
    fn forwarded_frame_agrees_with_reencode_oracle(
        msg in arb_message(),
        ttl in 32u8..=255,
        hops in 0u8..=223,
        received in any::<bool>(),
        chain_len in 1usize..=32,
    ) {
        // A received frame (sized by its bytes), or a local message
        // nothing has encoded (sized by counting).
        let origin = if received {
            nb_wire::WireMsg::from_frame(nb_wire::frame_message(&msg, ttl, hops)).unwrap()
        } else {
            nb_wire::WireMsg::from_decoded(msg.clone(), ttl, hops)
        };
        let mut chain = vec![origin];
        for _ in 0..chain_len {
            let next = chain.last().unwrap().forward_hop().unwrap();
            chain.push(next);
        }
        let body_len = msg.to_bytes().len();
        for (k, hop) in chain.iter().enumerate() {
            // Oracle: the message encoded afresh at this hop's counters.
            let oracle = nb_wire::frame_message(&msg, ttl - k as u8, hops + k as u8);
            let frame = hop.frame();
            prop_assert_eq!(frame.as_ref(), oracle.as_ref(), "hop {}", k);
            prop_assert_eq!(hop.body_len(), body_len);
            prop_assert_eq!(hop.body_len(), frame.len() - nb_wire::PRELUDE_LEN);
            prop_assert_eq!(hop.peek(), nb_wire::frame::peek(&frame).unwrap());
        }
    }

    #[test]
    fn request_view_agrees_with_full_decode(
        req in arb_request(),
        other in arb_message(),
        cut_frac in 0.0f64..1.0,
    ) {
        let body = Message::Discovery(req.clone()).to_bytes();
        let view = nb_wire::DiscoveryRequestView::decode(&body).unwrap();
        prop_assert_eq!(view, nb_wire::DiscoveryRequestView::of(&req));
        // Cut anywhere, or followed by anything, it is rejected — as
        // the owned decode rejects it.
        let cut = ((body.len() as f64) * cut_frac) as usize;
        prop_assert!(full_decode_oracle(&body[..cut]).is_err());
        prop_assert!(nb_wire::DiscoveryRequestView::decode(&body[..cut]).is_err());
        let mut trailing = body.to_vec();
        trailing.push(0);
        prop_assert!(full_decode_oracle(&trailing).is_err());
        prop_assert!(nb_wire::DiscoveryRequestView::decode(&trailing).is_err());
        // No other message kind passes for a request.
        if !matches!(other, Message::Discovery(_)) {
            prop_assert!(nb_wire::DiscoveryRequestView::decode(&other.to_bytes()).is_err());
        }
    }

    #[test]
    fn truncated_frames_error_never_panic(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let frame = nb_wire::frame_message(&msg, nb_wire::DEFAULT_TTL, 0);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        let truncated = frame.slice(..cut);
        prop_assert!(nb_wire::decode_framed(&truncated).is_err());
        let _ = nb_wire::frame::peek(&truncated); // may succeed (header-only) but must not panic
        if cut < frame.len() {
            prop_assert!(Message::from_bytes(&truncated[nb_wire::PRELUDE_LEN.min(cut)..]).is_err());
        }
    }

    #[test]
    fn bitflipped_frames_error_or_decode_never_panic(
        msg in arb_message(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..8),
    ) {
        let frame = nb_wire::frame_message(&msg, nb_wire::DEFAULT_TTL, 0);
        let mut bytes = frame.to_vec();
        for (idx, bit) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
        }
        // Corruption must surface as a WireError (or a clean decode of
        // some other valid message when the flip lands in payload bytes)
        // — never a panic.
        let _ = nb_wire::decode_framed(&bytes.clone().into());
        let _ = nb_wire::frame::peek(&bytes);
        let _ = Message::from_bytes(&bytes[nb_wire::PRELUDE_LEN..]);
    }

    #[test]
    fn prune_roundtrips_embeds_in_v2_and_rejects_damage(
        source in arb_node(),
        lease_ms in any::<u32>(),
        base in any::<u64>(),
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        use nb_wire::symtab::{SymTabReader, SymTabWriter};
        let msg = Message::Prune { source, lease_ms };
        prop_assert_eq!(msg.kind(), "prune");
        let body = msg.to_bytes();
        prop_assert_eq!(body.len(), 9, "tag + node id + lease");
        prop_assert_eq!(&full_decode_oracle(&body).unwrap(), &msg);
        // No compact v2 layout: the v1 body travels behind the embed kind.
        let mut w = nb_wire::WireWriter::new();
        nb_wire::v2::encode_v2_body(&msg, base, &mut SymTabWriter::new(), &mut w);
        let v2 = w.finish();
        prop_assert_eq!(v2[0], nb_wire::v2::V2_EMBED_V1);
        prop_assert_eq!(&v2[1..], &body[..]);
        let mut r = nb_wire::WireReader::shared(&v2);
        let back = nb_wire::v2::decode_v2_body(&mut r, base, &mut SymTabReader::new()).unwrap();
        prop_assert_eq!(&back, &msg);
        // Cut anywhere or followed by anything: a typed error.
        let cut = at.index(body.len());
        prop_assert!(matches!(
            full_decode_oracle(&body[..cut]),
            Err(nb_wire::WireError::UnexpectedEof)
        ));
        let mut trailing = body.to_vec();
        trailing.push(0);
        prop_assert!(full_decode_oracle(&trailing).is_err());
        // One flipped bit: a `WireError` or some other message — in
        // the tag another kind's damaged body, anywhere else another
        // `Prune` — never this one, never a panic.
        let mut flipped = body.to_vec();
        let i = at.index(flipped.len());
        flipped[i] ^= 1 << bit;
        if let Ok(other) = full_decode_oracle(&flipped) {
            prop_assert_ne!(other, msg);
        }
    }

    // ---------------------------------------------- wire v2 codec -----

    #[test]
    fn v2_roundtrip_equals_v1_oracle(msg in arb_message(), base in any::<u64>()) {
        use nb_wire::symtab::{SymTabReader, SymTabWriter};
        let mut sw = SymTabWriter::new();
        let mut w = nb_wire::WireWriter::new();
        nb_wire::v2::encode_v2_body(&msg, base, &mut sw, &mut w);
        let bytes = w.finish();
        let mut sr = SymTabReader::new();
        let mut r = nb_wire::WireReader::shared(&bytes);
        let back = nb_wire::v2::decode_v2_body(&mut r, base, &mut sr).unwrap();
        r.expect_end().unwrap();
        // The v1 codec is the oracle: the v2 round-trip must agree with
        // what v1 decodes from the v1 encoding of the same message.
        let oracle = full_decode_oracle(&msg.to_bytes()).unwrap();
        prop_assert_eq!(&back, &oracle);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn v2_segment_stream_roundtrip(
        msgs in prop::collection::vec(arb_message(), 1..8),
        base in any::<u64>(),
        split in any::<prop::sample::Index>(),
    ) {
        use nb_wire::symtab::{SymTabReader, SymTabWriter};
        // One link, two segments sharing the symbol table.
        let cut = split.index(msgs.len() + 1);
        let mut sw = SymTabWriter::new();
        let items_a: Vec<(u8, u8, &Message)> = msgs[..cut].iter().map(|m| (32, 0, m)).collect();
        let items_b: Vec<(u8, u8, &Message)> = msgs[cut..].iter().map(|m| (32, 0, m)).collect();
        let (seg_a, lens_a) = nb_wire::v2::encode_segment(&items_a, base, &mut sw);
        let (seg_b, lens_b) = nb_wire::v2::encode_segment(&items_b, base, &mut sw);
        let mut sr = SymTabReader::new();
        let mut back = Vec::new();
        let mut lens = Vec::new();
        for seg in [&seg_a, &seg_b] {
            for f in nb_wire::v2::decode_segment(seg, &mut sr).unwrap() {
                lens.push(f.encoded_len);
                back.push(f.msg);
            }
        }
        prop_assert_eq!(back, msgs);
        let want: Vec<usize> = lens_a.into_iter().chain(lens_b).collect();
        prop_assert_eq!(lens, want);
    }

    #[test]
    fn v2_corrupt_segment_typed_error_never_panics_or_poisons_symbols(
        msgs_a in prop::collection::vec(arb_message(), 1..5),
        msgs_b in prop::collection::vec(arb_message(), 1..5),
        truncate in any::<bool>(),
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
        base in any::<u64>(),
    ) {
        use nb_wire::symtab::{SymTabReader, SymTabWriter};
        use nb_wire::v2::decode_segment;
        let encode = |sw: &mut SymTabWriter, msgs: &[Message]| {
            let items: Vec<(u8, u8, &Message)> = msgs.iter().map(|m| (32, 0, m)).collect();
            nb_wire::v2::encode_segment(&items, base, sw).0
        };
        // Two links carry the same traffic over the one process symbol
        // table; only link A's second segment is damaged in flight.
        let (mut sw_a, mut sr_a) = (SymTabWriter::new(), SymTabReader::new());
        let (mut sw_b, mut sr_b) = (SymTabWriter::new(), SymTabReader::new());
        let seg_a = encode(&mut sw_a, &msgs_a);
        let seg_b = encode(&mut sw_a, &msgs_b);
        let link_b_first = encode(&mut sw_b, &msgs_a);
        prop_assert_eq!(&link_b_first, &seg_a, "link ids depend on the link's own history only");
        // What link B's second segment must be, from a twin that runs
        // before anything is corrupted.
        let mut sw_twin = SymTabWriter::new();
        encode(&mut sw_twin, &msgs_a);
        let link_b_second_want = encode(&mut sw_twin, &msgs_b);
        prop_assert!(decode_segment(&seg_a, &mut sr_a).is_ok());
        prop_assert!(decode_segment(&link_b_first, &mut sr_b).is_ok());
        let state_after_a = sr_a.len();
        let link_b_state = sr_b.len();
        // Corrupt the second segment: truncation or a single bit flip.
        let corrupt: nb_wire::Bytes = if truncate {
            seg_b.slice(..at.index(seg_b.len()))
        } else {
            let mut v = seg_b.to_vec();
            let i = at.index(v.len());
            v[i] ^= 1 << bit;
            v.into()
        };
        // Must never panic; a failure must be a typed error that leaves
        // the symbol table exactly as segment A left it.
        match decode_segment(&corrupt, &mut sr_a) {
            Ok(_) => {} // flip landed in payload bytes: a clean decode is fine
            Err(_e) => {
                prop_assert_eq!(sr_a.len(), state_after_a, "failed decode leaked symbols");
                // The pristine segment then still decodes against the
                // same table: later frames' symbol state is uncorrupted.
                let frames = decode_segment(&seg_b, &mut sr_a).unwrap();
                let back: Vec<Message> = frames.into_iter().map(|f| f.msg).collect();
                prop_assert_eq!(back, msgs_b.clone());
            }
        }
        // Whatever the damaged segment made link A's reader (or the
        // process table) learn, link B encodes and decodes as if it had
        // never happened.
        prop_assert_eq!(sr_b.len(), link_b_state);
        let link_b_second = encode(&mut sw_b, &msgs_b);
        prop_assert_eq!(&link_b_second, &link_b_second_want);
        let frames = decode_segment(&link_b_second, &mut sr_b).unwrap();
        let back: Vec<Message> = frames.into_iter().map(|f| f.msg).collect();
        prop_assert_eq!(back, msgs_b);
    }
}
