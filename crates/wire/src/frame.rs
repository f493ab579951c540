//! The wire frame: the unit the runtime hands each actor, a fixed
//! 4-byte prelude (`[ttl, hops, flags, reserved]`) followed by the
//! legacy message body. The prelude holds exactly the fields a
//! forwarder mutates per hop, so a forwarded hop's body is the body it
//! arrived with (no decode→mutate→re-encode), and [`peek`] reads
//! kind/UUID/topic-length at fixed offsets without decoding the body at
//! all.

use bytes::Bytes;
use nb_util::Uuid;

use crate::codec::{encode_pooled, Wire, WireError};
use crate::message::{Message, TAG_DISCOVERY, TAG_DISCOVERY_ACK, TAG_PUBLISH, TAG_RESPONSE};

/// Maximum v2 segment, frame, length or count accepted (16 MiB),
/// matching the codec's field cap.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Length of the mutable per-hop prelude: `[ttl, hops, flags, reserved]`.
pub const PRELUDE_LEN: usize = 4;

/// TTL stamped on locally originated frames: past the 99 hops of the
/// scale campaign's 100-broker chain, yet bounding routing loops, and one
/// prelude byte on both codecs.
pub const DEFAULT_TTL: u8 = 128;

/// Prelude flag: the sender speaks wire protocol v2. Stamped on link
/// handshake frames (`LinkHello`/`LinkAccept`) by v2-enabled peers;
/// v1 peers leave the flags byte zero, so negotiation degrades cleanly.
pub const FLAG_V2_CAPABLE: u8 = 0b0000_0001;

/// Prelude flag: this frame is a v2 segment (see [`crate::v2`]), not a
/// single v1 body.
pub const FLAG_SEGMENT: u8 = 0b0000_0010;

/// Everything a receive path can learn about a frame without decoding
/// its body: the per-hop prelude plus the fixed-offset body fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Hops this frame may still travel (decremented by forwarders).
    pub ttl: u8,
    /// Hops travelled so far (incremented by forwarders).
    pub hops: u8,
    /// Capability/format flag bits ([`FLAG_V2_CAPABLE`],
    /// [`FLAG_SEGMENT`]). Zero on every v1 frame.
    pub flags: u8,
    /// The message's wire tag (first body byte).
    pub tag: u8,
    /// The dedup UUID, for the message kinds that carry one at a fixed
    /// offset: `Publish` (event id), `Discovery`/`DiscoveryAck`/
    /// `Response` (request id).
    pub uuid: Option<Uuid>,
    /// For `Publish` frames, the byte length of the topic string.
    pub topic_len: Option<usize>,
}

impl FrameHeader {
    /// Whether this frame carries a `Publish` (the broker's peek-dedup
    /// fast path keys off this plus [`FrameHeader::uuid`]).
    pub fn is_publish(&self) -> bool {
        self.tag == TAG_PUBLISH
    }

    /// Whether this frame carries a `Discovery` request.
    pub fn is_discovery(&self) -> bool {
        self.tag == TAG_DISCOVERY
    }
}

/// Reads the fixed-offset fields of a message *body* (no prelude).
///
/// The body layout guarantees: tag at offset 0; for the UUID-bearing
/// tags the UUID is the 16 bytes at `body[1..17]` (big-endian `u128`,
/// matching `WireWriter::put_uuid`); for `Publish` the topic's `u32`
/// length prefix sits at `body[17..21]`.
fn peek_fields(body: &[u8]) -> Result<(u8, Option<Uuid>, Option<usize>), WireError> {
    let Some(&tag) = body.first() else {
        return Err(WireError::UnexpectedEof);
    };
    let uuid = match tag {
        TAG_PUBLISH | TAG_DISCOVERY | TAG_DISCOVERY_ACK | TAG_RESPONSE => {
            let raw: [u8; 16] =
                body.get(1..17).ok_or(WireError::UnexpectedEof)?.try_into().unwrap();
            Some(Uuid::from_u128(u128::from_be_bytes(raw)))
        }
        _ => None,
    };
    let topic_len = if tag == TAG_PUBLISH {
        let raw: [u8; 4] = body.get(17..21).ok_or(WireError::UnexpectedEof)?.try_into().unwrap();
        Some(u32::from_be_bytes(raw) as usize)
    } else {
        None
    };
    Ok((tag, uuid, topic_len))
}

/// Peeks a full wire frame (prelude + body) without decoding the body.
pub fn peek(framed: &[u8]) -> Result<FrameHeader, WireError> {
    if framed.len() < PRELUDE_LEN {
        return Err(WireError::UnexpectedEof);
    }
    let (tag, uuid, topic_len) = peek_fields(&framed[PRELUDE_LEN..])?;
    Ok(FrameHeader { ttl: framed[0], hops: framed[1], flags: framed[2], tag, uuid, topic_len })
}

/// Peeks a bare message body that never grew a prelude — e.g. the
/// encoded messages nested inside `Event::payload` on the well-known
/// flooding topics. TTL/hops report their local-origin defaults.
pub fn peek_body(body: &[u8]) -> Result<FrameHeader, WireError> {
    let (tag, uuid, topic_len) = peek_fields(body)?;
    Ok(FrameHeader { ttl: DEFAULT_TTL, hops: 0, flags: 0, tag, uuid, topic_len })
}

/// Encodes `msg` into a wire frame (`[ttl, hops, 0, 0]` prelude + body)
/// using the per-thread pooled writer.
pub fn frame_message(msg: &Message, ttl: u8, hops: u8) -> Bytes {
    frame_message_flags(msg, ttl, hops, 0)
}

/// [`frame_message`] with explicit prelude flag bits. The body stays
/// the plain v1 encoding — flags only announce capabilities (or, for
/// [`FLAG_SEGMENT`], are written by the v2 segment assembler instead).
pub fn frame_message_flags(msg: &Message, ttl: u8, hops: u8, flags: u8) -> Bytes {
    encode_pooled(|w| {
        w.put_u8(ttl);
        w.put_u8(hops);
        w.put_u8(flags);
        w.put_u8(0); // reserved
        msg.encode(w);
    })
}

/// Fully decodes a wire frame: peeked header + decoded body. Payload
/// fields borrow the backing buffer (zero-copy) via the shared reader.
pub fn decode_framed(frame: &Bytes) -> Result<(FrameHeader, Message), WireError> {
    let header = peek(frame)?;
    let body = frame.slice(PRELUDE_LEN..);
    let msg = Message::from_shared(&body)?;
    Ok((header, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Endpoint, NodeId, Port};
    use crate::message::Event;
    use crate::topic::Topic;
    use crate::Wire;

    fn publish() -> Message {
        Message::Publish(Event {
            id: Uuid::from_u128(0xDEAD_BEEF),
            topic: Topic::parse("sports/scores").unwrap(),
            source: NodeId(6),
            payload: Bytes::from_static(b"3-1"),
        })
    }

    #[test]
    fn frame_is_prelude_plus_legacy_body() {
        let msg = publish();
        let frame = frame_message(&msg, 17, 3);
        assert_eq!(&frame[..PRELUDE_LEN], &[17, 3, 0, 0]);
        assert_eq!(&frame[PRELUDE_LEN..], msg.to_bytes().as_ref());
    }

    #[test]
    fn peek_reads_without_decoding() {
        let frame = frame_message(&publish(), DEFAULT_TTL, 0);
        let h = peek(&frame).unwrap();
        assert_eq!(h.ttl, DEFAULT_TTL);
        assert_eq!(h.hops, 0);
        assert_eq!(h.tag, TAG_PUBLISH);
        assert_eq!(h.uuid, Some(Uuid::from_u128(0xDEAD_BEEF)));
        assert_eq!(h.topic_len, Some("sports/scores".len()));
    }

    #[test]
    fn peek_covers_every_uuid_bearing_kind() {
        let reply = Endpoint::new(NodeId(9), Port(1));
        let cases: Vec<(Message, Option<Uuid>)> = vec![
            (publish(), Some(Uuid::from_u128(0xDEAD_BEEF))),
            (
                Message::DiscoveryAck { request_id: Uuid::from_u128(7), bdn: NodeId(2) },
                Some(Uuid::from_u128(7)),
            ),
            (Message::Heartbeat { from: NodeId(1), seq: 4 }, None),
            (Message::Ping { nonce: 1, sent_at: 2, reply_to: reply }, None),
        ];
        for (msg, want) in cases {
            let h = peek(&frame_message(&msg, 1, 0)).unwrap();
            assert_eq!(h.tag, msg.tag(), "{}", msg.kind());
            assert_eq!(h.uuid, want, "{}", msg.kind());
        }
    }

    #[test]
    fn peek_body_matches_peek_modulo_prelude() {
        let msg = publish();
        let framed = peek(&frame_message(&msg, 5, 2)).unwrap();
        let bare = peek_body(&msg.to_bytes()).unwrap();
        assert_eq!((bare.tag, bare.uuid, bare.topic_len), (framed.tag, framed.uuid, framed.topic_len));
        assert_eq!((bare.ttl, bare.hops), (DEFAULT_TTL, 0));
    }

    #[test]
    fn flags_survive_framing_and_prelude_patch() {
        let frame = frame_message_flags(&publish(), 9, 0, FLAG_V2_CAPABLE);
        assert_eq!(peek(&frame).unwrap().flags, FLAG_V2_CAPABLE);
        // Flags live in the prelude only: the body is byte-identical to
        // the flagless frame, so body_len accounting cannot change.
        assert_eq!(&frame[PRELUDE_LEN..], &frame_message(&publish(), 9, 0)[PRELUDE_LEN..]);
        // A forwarded hop re-stamps ttl/hops but not flags, and its body
        // is the one it arrived with.
        let hop = crate::WireMsg::from_frame(frame.clone()).unwrap().forward_hop().unwrap();
        let patched = hop.frame();
        let h = peek(&patched).unwrap();
        assert_eq!((h.ttl, h.hops, h.flags), (8, 1, FLAG_V2_CAPABLE));
        assert_eq!(&patched[PRELUDE_LEN..], &frame[PRELUDE_LEN..]);
    }

    #[test]
    fn decode_framed_roundtrips_header_and_message() {
        let msg = publish();
        let frame = frame_message(&msg, 3, 9);
        let (h, back) = decode_framed(&frame).unwrap();
        assert_eq!((h.ttl, h.hops), (3, 9));
        assert_eq!(back, msg);
    }

    #[test]
    fn truncated_frames_peek_to_errors_not_panics() {
        // A Publish peek needs prelude + tag + uuid + topic length
        // prefix = PRELUDE_LEN + 21 bytes; every shorter cut must error.
        let frame = frame_message(&publish(), 1, 0);
        assert!(frame.len() > PRELUDE_LEN + 21);
        for cut in 0..PRELUDE_LEN + 21 {
            assert!(peek(&frame[..cut]).is_err(), "cut {cut} peeked successfully");
        }
        assert!(peek(&frame[..PRELUDE_LEN + 21]).is_ok());
        assert!(peek_body(&[]).is_err());
    }
}
