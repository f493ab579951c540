//! # nb-wire
//!
//! The wire protocol spoken by every node in the messaging infrastructure:
//!
//! * [`codec`] — a compact, hand-rolled binary codec ([`WireWriter`],
//!   [`WireReader`], the [`Wire`] trait),
//! * [`addr`] — protocol-level identities: nodes, ports, endpoints,
//!   transports, network realms and multicast groups,
//! * [`topic`] — `/`-separated topic names and subscription filters with
//!   single-segment (`*`) and multi-segment (`**`) wildcards,
//! * [`intern`] — the process interners: topics/filters carry
//!   pre-resolved segment-id slices so matching never re-splits
//!   strings, and whole topic strings are interned with their parses
//!   cached so the v2 codec never compares or re-parses one,
//! * [`message`] — the full protocol message set: pub/sub events and
//!   subscriptions, broker link management, broker advertisements,
//!   discovery requests/acks/responses, UDP pings and secured
//!   envelopes,
//! * [`frame`] — the prelude-framed wire format ([`frame::peek`],
//!   [`frame_message`]) that receive paths header-peek without decoding,
//! * [`wiremsg`] — [`WireMsg`]: a decoded message sharing its counted
//!   body length across clones and hops, so a send sizes without
//!   encoding and forwards by refcount,
//! * [`v2`] — the negotiated compact codec: varint lengths, delta
//!   timestamps, symbol-referenced topics, and multi-frame segments
//!   with non-decoding peeks,
//! * [`symtab`] — the per-link topic symbol tables v2 syncs lazily
//!   (first use ships the string, later uses ship a small id): integer
//!   views of the process symbol table in [`intern`].
//!
//! Every message is sized and charged on the simulated network as the
//! bytes this crate encodes, counted by running that encode against a
//! counting writer ([`Wire::wire_len`]). The engines hand a receiver the sender's
//! [`WireMsg`] by refcount rather than decoding those bytes again;
//! `tests/codec_in_the_loop.rs` puts the decode back on every hop and
//! checks it against what was sent.

pub mod addr;
pub mod codec;
pub mod frame;
pub mod intern;
pub mod message;
pub mod symtab;
pub mod topic;
pub mod v2;
pub mod wiremsg;

/// Re-exported so downstream crates name the payload byte type without
/// depending on the `bytes` crate directly.
pub use bytes::Bytes;

pub use addr::{Endpoint, GroupId, NodeId, Port, RealmId, TransportKind};
pub use codec::{Wire, WireError, WireReader, WireWriter, MAX_FIELD_LEN, MAX_MESSAGE_LEN};
pub use frame::{
    decode_framed, frame_message, frame_message_flags, FrameHeader, DEFAULT_TTL,
    FLAG_SEGMENT, FLAG_V2_CAPABLE, MAX_FRAME_LEN, PRELUDE_LEN,
};
pub use intern::{SegId, SymId};
pub use message::{
    BrokerAdvertisement, Credential, DiscoveryRequest, DiscoveryRequestView, DiscoveryResponse,
    Event, Message, UsageMetrics,
};
pub use symtab::{SymTabReader, SymTabWriter};
pub use topic::{Topic, TopicError, TopicFilter, WellKnownTopic};
pub use v2::SegmentFrame;
pub use wiremsg::WireMsg;
