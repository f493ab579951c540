//! A message plus its hop counters, shared and sized once.
//!
//! [`WireMsg`] is what the runtimes move around: the decoded
//! [`Message`] behind an `Arc`, the per-hop TTL/hop counters, and the
//! length the message is charged on the wire, fixed when the handle is
//! built and shared by every clone and every forwarded hop. The
//! invariants the send path rests on:
//!
//! * **Size is counted once, at construction.** [`WireMsg::new`],
//!   [`from_decoded`](WireMsg::from_decoded) and
//!   [`from_frame`](WireMsg::from_frame) run the message's one `encode`
//!   against a counting [`WireWriter`](crate::WireWriter) and store the
//!   `u32`: no bytes are written and nothing is allocated.
//!   [`body_len`](WireMsg::body_len) — what the simulators charge
//!   transmission on — is a field read.
//! * **A v2-decoded message carries its frame length.**
//!   [`from_v2_frame`](WireMsg::from_v2_frame) is the one constructor
//!   that stores a length it did not count: the size the frame occupied
//!   in its v2 segment.
//! * **Bytes materialise only on [`frame`](WireMsg::frame).** A caller
//!   that wants the wire bytes gets a fresh encode at its handle's own
//!   ttl/hops/flags. Nothing is cached, and inside the simulators
//!   nobody asks.
//! * **Decode once.** [`WireMsg::from_frame`] decodes eagerly — so
//!   malformed bytes are rejected at the wire boundary and never reach
//!   an actor. It keeps no bytes; its size is counted like any other.
//! * **Forwarding touches no bytes.** [`WireMsg::forward_hop`] is a
//!   handle with the hop counters bumped: one `Arc` clone. Every hop
//!   carries the same body, so every hop shares the one length.

use std::sync::Arc;

use bytes::Bytes;

use crate::codec::{Wire, WireError};
use crate::frame::{decode_framed, frame_message_flags, FrameHeader, DEFAULT_TTL};
use crate::message::{Event, Message};

/// What every hop and every clone of one message shares: the decoded
/// message and the length it is charged. One allocation per message
/// received or originated.
#[derive(Debug)]
struct Shared {
    msg: Message,
    /// `msg.wire_len()`, counted at construction — or, for a message
    /// decoded out of a v2 segment, its frame's length there.
    body_len: u32,
}

/// A [`Message`] bundled with its per-hop prelude fields and the length
/// it is charged. Cheap to clone: an `Arc` bump only.
#[derive(Debug, Clone)]
pub struct WireMsg {
    shared: Arc<Shared>,
    ttl: u8,
    hops: u8,
    /// Prelude flag bits stamped on the frame (v2 capability
    /// announcement); zero for plain v1 traffic.
    flags: u8,
}

impl WireMsg {
    /// Wraps a locally originated message (fresh TTL, zero hops).
    pub fn new(msg: Message) -> Self {
        WireMsg::from_decoded(msg, DEFAULT_TTL, 0)
    }

    /// Wraps a message that already travelled: `ttl`/`hops` as carried
    /// on the wire, its v1 body counted now.
    pub fn from_decoded(msg: Message, ttl: u8, hops: u8) -> Self {
        let body_len = u32::try_from(msg.wire_len()).expect("a body fits in u32");
        WireMsg::sized(msg, ttl, hops, body_len)
    }

    /// Wraps a frame decoded out of a v2 segment, charged `len` — the
    /// bytes the frame occupied in its segment — instead of its v1
    /// body. Every clone and forwarded hop keeps that charge, a v1 hop
    /// included (ROADMAP item 4(a)); this is the one place it is set.
    pub fn from_v2_frame(msg: Message, ttl: u8, hops: u8, len: usize) -> Self {
        let len = u32::try_from(len).expect("a v2 frame fits in u32");
        WireMsg::sized(msg, ttl, hops, len)
    }

    fn sized(msg: Message, ttl: u8, hops: u8, body_len: u32) -> Self {
        WireMsg { shared: Arc::new(Shared { msg, body_len }), ttl, hops, flags: 0 }
    }

    /// Decodes a received frame, keeping its prelude counters and flags
    /// but not its bytes.
    pub fn from_frame(frame: Bytes) -> Result<Self, WireError> {
        let (header, msg) = decode_framed(&frame)?;
        Ok(WireMsg::from_decoded(msg, header.ttl, header.hops).with_flags(header.flags))
    }

    /// The decoded message.
    pub fn message(&self) -> &Message {
        &self.shared.msg
    }

    /// Unwraps the message, cloning only if other handles are alive.
    pub fn into_message(self) -> Message {
        Arc::try_unwrap(self.shared).map_or_else(|arc| arc.msg.clone(), |shared| shared.msg)
    }

    /// Short kind label (delegates to [`Message::kind`]).
    pub fn kind(&self) -> &'static str {
        self.shared.msg.kind()
    }

    /// Remaining hop budget.
    pub fn ttl(&self) -> u8 {
        self.ttl
    }

    /// Hops travelled so far.
    pub fn hops(&self) -> u8 {
        self.hops
    }

    /// Prelude flag bits this message carries.
    pub fn flags(&self) -> u8 {
        self.flags
    }

    /// Stamps prelude flag bits (e.g.
    /// [`FLAG_V2_CAPABLE`](crate::frame::FLAG_V2_CAPABLE) on a link
    /// handshake) on this handle's frame.
    pub fn with_flags(mut self, flags: u8) -> Self {
        self.flags = flags;
        self
    }

    /// The header a receiver would [`frame::peek`] off this message's
    /// frame — synthesised from the decoded fields, so calling it never
    /// forces an encode.
    pub fn peek(&self) -> FrameHeader {
        let (uuid, topic_len) = match &self.shared.msg {
            Message::Publish(Event { id, topic, .. }) => (Some(*id), Some(topic.as_str().len())),
            Message::Discovery(req) => (Some(req.request_id), None),
            Message::DiscoveryAck { request_id, .. } => (Some(*request_id), None),
            Message::Response(resp) => (Some(resp.request_id), None),
            _ => (None, None),
        };
        FrameHeader {
            ttl: self.ttl,
            hops: self.hops,
            flags: self.flags,
            tag: self.shared.msg.tag(),
            uuid,
            topic_len,
        }
    }

    /// This handle's wire frame, encoded now (via the per-thread pooled
    /// writer) with its own ttl/hops/flags in the prelude.
    pub fn frame(&self) -> Bytes {
        frame_message_flags(&self.shared.msg, self.ttl, self.hops, self.flags)
    }

    /// On-wire size of this message's body (the sim charges
    /// transmission delay on this): the v1 body length —
    /// `Message::to_bytes().len()`, counted when the handle was built —
    /// or, for a message built by [`from_v2_frame`](WireMsg::from_v2_frame),
    /// its v2 frame length. The same at every hop.
    pub fn body_len(&self) -> usize {
        self.shared.body_len as usize
    }

    /// The handle this message would be forwarded as: TTL spent, hop
    /// recorded, message and body length shared. `None` when the TTL
    /// is exhausted — the caller must drop the message, not forward it.
    pub fn forward_hop(&self) -> Option<WireMsg> {
        let ttl = self.ttl.checked_sub(1)?;
        Some(WireMsg {
            shared: Arc::clone(&self.shared),
            ttl,
            hops: self.hops.saturating_add(1),
            flags: self.flags,
        })
    }
}

impl From<Message> for WireMsg {
    fn from(msg: Message) -> Self {
        WireMsg::new(msg)
    }
}

impl PartialEq for WireMsg {
    fn eq(&self, other: &Self) -> bool {
        self.shared.msg == other.shared.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeId;
    use crate::frame::{frame_message, PRELUDE_LEN};
    use crate::topic::Topic;
    use nb_util::Uuid;

    fn publish() -> Message {
        Message::Publish(Event {
            id: Uuid::from_u128(42),
            topic: Topic::parse("a/b").unwrap(),
            source: NodeId(1),
            payload: Bytes::from_static(b"hi"),
        })
    }

    #[test]
    fn frame_is_encoded_on_demand_and_equal_across_clones() {
        let wire = WireMsg::new(publish());
        let clone = wire.clone();
        assert_eq!(clone.frame(), wire.frame());
        assert_eq!(wire.frame(), frame_message(&publish(), DEFAULT_TTL, 0));
    }

    #[test]
    fn from_frame_keeps_counters_and_body_len() {
        let original = WireMsg::new(publish());
        let frame = original.frame();
        let back = WireMsg::from_frame(frame.clone()).unwrap();
        assert_eq!(back.message(), original.message());
        assert_eq!((back.ttl(), back.hops()), (DEFAULT_TTL, 0));
        assert_eq!(back.body_len(), frame.len() - PRELUDE_LEN);
        assert_eq!(back.frame(), frame, "re-encoding a received message gives its bytes back");
    }

    #[test]
    fn body_len_matches_legacy_encoding() {
        let msg = publish();
        let legacy = msg.to_bytes().len();
        assert_eq!(WireMsg::new(msg).body_len(), legacy);
    }

    #[test]
    fn peek_agrees_with_frame_peek() {
        for msg in [
            publish(),
            Message::Heartbeat { from: NodeId(3), seq: 9 },
            Message::DiscoveryAck { request_id: Uuid::from_u128(5), bdn: NodeId(2) },
        ] {
            let wire = WireMsg::new(msg);
            assert_eq!(wire.peek(), crate::frame::peek(&wire.frame()).unwrap());
        }
    }

    #[test]
    fn forward_hop_patches_prelude_and_reuses_body() {
        let wire = WireMsg::from_frame(WireMsg::new(publish()).frame()).unwrap();
        let next = wire.forward_hop().unwrap();
        assert_eq!((next.ttl(), next.hops()), (DEFAULT_TTL - 1, 1));
        assert_eq!(next.frame(), frame_message(&publish(), DEFAULT_TTL - 1, 1));
        assert_eq!(&next.frame()[PRELUDE_LEN..], &wire.frame()[PRELUDE_LEN..]);
        assert_eq!(next.body_len(), wire.body_len());
        assert_eq!(next.message(), wire.message());
    }

    #[test]
    fn exhausted_ttl_stops_forwarding() {
        let mut wire = WireMsg::new(publish());
        let mut hops = 0;
        while let Some(next) = wire.forward_hop() {
            wire = next;
            hops += 1;
            assert!(hops <= DEFAULT_TTL, "forwarded past the TTL budget");
        }
        assert_eq!(hops, DEFAULT_TTL);
        assert_eq!(wire.ttl(), 0);
    }

    #[test]
    fn encoded_len_overrides_body_len_and_survives_forwarding() {
        let v1 = WireMsg::new(publish()).body_len();
        let wire = WireMsg::from_v2_frame(publish(), DEFAULT_TTL, 0, 9);
        assert!(v1 > 9);
        assert_eq!(wire.body_len(), 9, "negotiated size wins");
        let next = wire.forward_hop().unwrap();
        assert_eq!(next.body_len(), 9, "forward keeps the negotiated size");
    }

    /// A handle is a pointer and three counter bytes: what the event
    /// heap and every queued delivery carry per message.
    #[test]
    fn a_handle_is_no_larger_than_two_words() {
        assert!(std::mem::size_of::<WireMsg>() <= 16);
    }

    #[test]
    fn flags_roundtrip_through_frame_and_back() {
        use crate::frame::FLAG_V2_CAPABLE;
        let wire = WireMsg::new(publish()).with_flags(FLAG_V2_CAPABLE);
        assert_eq!(wire.peek().flags, FLAG_V2_CAPABLE);
        assert_eq!(wire.peek(), crate::frame::peek(&wire.frame()).unwrap());
        let back = WireMsg::from_frame(wire.frame()).unwrap();
        assert_eq!(back.flags(), FLAG_V2_CAPABLE);
        // The body is unchanged, so timing accounting is too.
        assert_eq!(back.body_len(), WireMsg::new(publish()).body_len());
    }

    #[test]
    fn into_message_avoids_clone_when_unique() {
        let wire = WireMsg::new(publish());
        assert_eq!(wire.into_message(), publish());
    }
}
