//! Wire protocol v2: varint compact frames in symbol-synced segments.
//!
//! The v1 codec (PR 1) spends fixed-width lengths, full topic strings
//! and one frame per message on every hop. v2 is the negotiated compact
//! encoding layered on the same message set:
//!
//! * **Varints** — LEB128 lengths, counts and small integers
//!   ([`put_varint`] / [`get_varint`]), zigzag deltas for signed values.
//! * **Compact bodies** — the hot control-plane kinds (`Publish`,
//!   `Heartbeat`, `Subscribe`/`Unsubscribe`, `Discovery`) get dedicated
//!   layouts; every other kind embeds its v1 body verbatim behind
//!   [`V2_EMBED_V1`], so coverage is total and the v1 codec remains the
//!   round-trip oracle.
//! * **Symbol-synced topics** — topic and filter strings ship as
//!   per-link symbol references ([`crate::symtab`]).
//! * **Delta timestamps** — `issued_at_utc` encodes as a zigzag varint
//!   of its (wrapping) distance from the segment's `base_utc`, so a
//!   fresh timestamp costs one or two bytes instead of eight.
//! * **Segments** — frames travel behind a `[ttl, hops, FLAG_SEGMENT, 0]`
//!   prelude that carries `base_utc` and a frame count. The engine sends
//!   one frame a segment; the layout and [`decode_segment`] take any
//!   number, and the decoder rolls the symbol table back on any error so
//!   a corrupt segment never poisons later frames' symbol state.
//!
//! Layout of one segment (all integers varint unless sized):
//!
//! ```text
//! [ttl u8][hops u8][flags u8 = FLAG_SEGMENT][reserved u8]
//! [base_utc][frame_count]
//! frame*: [frame_len][ttl u8][hops u8][v2 body]
//! v2 body: [kind u8][kind-specific fields]
//! ```
//!
//! UUID-bearing compact kinds keep the UUID at byte 1 of the v2 body,
//! the fixed offset the v1 [`peek`](crate::frame::peek) path reads
//! dedup ids at.

use bytes::Bytes;

use crate::addr::{Endpoint, NodeId, Port, RealmId};
use crate::codec::{Wire, WireError, WireReader, WireWriter};
use crate::frame::{DEFAULT_TTL, FLAG_SEGMENT, MAX_FRAME_LEN, PRELUDE_LEN};
use crate::intern;
use crate::message::{DiscoveryRequest, Event, Message};
use crate::symtab::{SymTabReader, SymTabWriter};

/// Most bytes one LEB128-encoded `u64` may occupy. Reading an eleventh
/// continuation byte means the stream is corrupt, not the value large.
const MAX_VARINT_BYTES: usize = 10;

/// v2 body kind: the v1-encoded body follows verbatim.
pub const V2_EMBED_V1: u8 = 0;
/// v2 body kind: compact `Publish`.
const V2_PUBLISH: u8 = 1;
/// v2 body kind: compact `Heartbeat`.
const V2_HEARTBEAT: u8 = 2;
/// v2 body kind: compact `Subscribe`.
const V2_SUBSCRIBE: u8 = 3;
/// v2 body kind: compact `Unsubscribe`.
const V2_UNSUBSCRIBE: u8 = 4;
/// v2 body kind: compact `Discovery` request.
const V2_DISCOVERY: u8 = 5;

// ------------------------------------------------------------------
// Varints.
// ------------------------------------------------------------------

/// Writes `v` as an LEB128 varint (little groups first) at the front of
/// `out`, returning the 1–10 bytes used.
fn write_varint(mut v: u64, out: &mut [u8]) -> usize {
    let mut n = 0;
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out[n] = b;
            return n + 1;
        }
        out[n] = b | 0x80;
        n += 1;
    }
}

/// Appends `v` as an LEB128 varint (1–10 bytes, little groups first).
pub fn put_varint(w: &mut WireWriter, v: u64) {
    let mut buf = [0; MAX_VARINT_BYTES];
    let n = write_varint(v, &mut buf);
    w.put_raw(&buf[..n]);
}

/// Reads one LEB128 varint, reading at most `MAX_VARINT_BYTES` (10) bytes.
pub fn get_varint(r: &mut WireReader<'_>) -> Result<u64, WireError> {
    let mut out: u64 = 0;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT_BYTES {
        let b = r.get_u8()?;
        if i == MAX_VARINT_BYTES - 1 {
            // Tenth byte: only the low bit fits in a u64, and it must
            // terminate the sequence.
            if b > 0x01 {
                return Err(WireError::Invalid("varint overflow"));
            }
        }
        out |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
    Err(WireError::Invalid("varint too long"))
}

/// Zigzag-maps `v` so small magnitudes (either sign) encode small.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends a signed value as a zigzag varint.
fn put_zigzag(w: &mut WireWriter, v: i64) {
    put_varint(w, zigzag(v));
}

/// Reads a zigzag varint.
fn get_zigzag(r: &mut WireReader<'_>) -> Result<i64, WireError> {
    Ok(unzigzag(get_varint(r)?))
}

fn get_varint_u32(r: &mut WireReader<'_>, what: &'static str) -> Result<u32, WireError> {
    let v = get_varint(r)?;
    u32::try_from(v).map_err(|_| WireError::Invalid(what))
}

fn get_varint_u16(r: &mut WireReader<'_>, what: &'static str) -> Result<u16, WireError> {
    let v = get_varint(r)?;
    u16::try_from(v).map_err(|_| WireError::Invalid(what))
}

/// Reads a varint length or count, rejecting one over [`MAX_FRAME_LEN`]
/// before anything is sized or looped by it: every v2 length and count
/// a peer controls is read here.
pub(crate) fn get_varint_len(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let len = get_varint(r)? as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FieldTooLong(len));
    }
    Ok(len)
}

/// Varint-length-prefixed raw bytes.
fn put_varint_bytes(w: &mut WireWriter, v: &[u8]) {
    put_varint(w, v.len() as u64);
    w.put_raw(v);
}

/// Reads a bounded varint length, then that many raw bytes (zero-copy on
/// a shared reader).
fn take_varint_bytes(r: &mut WireReader<'_>) -> Result<Bytes, WireError> {
    let len = get_varint_len(r)?;
    r.take_raw_bytes(len)
}

fn get_varint_str(r: &mut WireReader<'_>) -> Result<String, WireError> {
    let len = get_varint_len(r)?;
    let raw = r.get_raw(len)?;
    std::str::from_utf8(raw).map(str::to_owned).map_err(|_| WireError::InvalidUtf8)
}

// ------------------------------------------------------------------
// Compact bodies.
// ------------------------------------------------------------------

/// Encodes `msg` as a v2 body: a kind byte, then either a compact
/// layout or the embedded v1 encoding. Timestamps are written relative
/// to `base_utc` (wrapping, so the mapping is bijective for any `u64`);
/// topic and filter strings go through the per-link symbol table.
pub fn encode_v2_body(
    msg: &Message,
    base_utc: u64,
    syms: &mut SymTabWriter,
    w: &mut WireWriter,
) {
    match msg {
        Message::Publish(ev) => {
            w.put_u8(V2_PUBLISH);
            w.put_uuid(ev.id);
            syms.encode_ref(w, ev.topic.symbol());
            put_varint(w, u64::from(ev.source.0));
            put_varint_bytes(w, &ev.payload);
        }
        Message::Heartbeat { from, seq } => {
            w.put_u8(V2_HEARTBEAT);
            put_varint(w, u64::from(from.0));
            put_varint(w, *seq);
        }
        Message::Subscribe { filter, origin, seq } => {
            w.put_u8(V2_SUBSCRIBE);
            syms.encode_ref(w, filter.symbol());
            put_varint(w, u64::from(origin.0));
            put_varint(w, *seq);
        }
        Message::Unsubscribe { filter, origin, seq } => {
            w.put_u8(V2_UNSUBSCRIBE);
            syms.encode_ref(w, filter.symbol());
            put_varint(w, u64::from(origin.0));
            put_varint(w, *seq);
        }
        Message::Discovery(req) => {
            w.put_u8(V2_DISCOVERY);
            w.put_uuid(req.request_id);
            put_varint(w, u64::from(req.requester.0));
            put_varint_bytes(w, req.hostname.as_bytes());
            put_varint(w, u64::from(req.realm.0));
            put_varint(w, u64::from(req.reply_to.node.0));
            put_varint(w, u64::from(req.reply_to.port.0));
            put_varint(w, req.transports.len() as u64);
            for t in &req.transports {
                t.encode(w);
            }
            w.put_option(&req.credentials);
            put_zigzag(w, req.issued_at_utc.wrapping_sub(base_utc) as i64);
        }
        other => {
            w.put_u8(V2_EMBED_V1);
            other.encode(w);
        }
    }
}

/// Decodes one v2 body as written by [`encode_v2_body`].
pub fn decode_v2_body(
    r: &mut WireReader<'_>,
    base_utc: u64,
    syms: &mut SymTabReader,
) -> Result<Message, WireError> {
    let kind = r.get_u8()?;
    Ok(match kind {
        V2_EMBED_V1 => Message::decode(r)?,
        V2_PUBLISH => {
            let id = r.get_uuid()?;
            let topic = intern::symbol_topic(syms.decode_ref(r)?)
                .map_err(|_| WireError::Invalid("topic"))?;
            let source = NodeId(get_varint_u32(r, "node id")?);
            let payload = take_varint_bytes(r)?;
            Message::Publish(Event { id, topic, source, payload })
        }
        V2_HEARTBEAT => Message::Heartbeat {
            from: NodeId(get_varint_u32(r, "node id")?),
            seq: get_varint(r)?,
        },
        V2_SUBSCRIBE | V2_UNSUBSCRIBE => {
            let filter = intern::symbol_filter(syms.decode_ref(r)?)
                .map_err(|_| WireError::Invalid("topic filter"))?;
            let origin = NodeId(get_varint_u32(r, "node id")?);
            let seq = get_varint(r)?;
            if kind == V2_SUBSCRIBE {
                Message::Subscribe { filter, origin, seq }
            } else {
                Message::Unsubscribe { filter, origin, seq }
            }
        }
        V2_DISCOVERY => {
            let request_id = r.get_uuid()?;
            let requester = NodeId(get_varint_u32(r, "node id")?);
            let hostname = get_varint_str(r)?;
            let realm = RealmId(get_varint_u16(r, "realm id")?);
            let reply_to = Endpoint::new(
                NodeId(get_varint_u32(r, "node id")?),
                Port(get_varint_u16(r, "port")?),
            );
            let n = get_varint_len(r)?;
            let mut transports = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                transports.push(Wire::decode(r)?);
            }
            let credentials = r.get_option()?;
            let delta = get_zigzag(r)?;
            let issued_at_utc = base_utc.wrapping_add(delta as u64);
            Message::Discovery(DiscoveryRequest {
                request_id,
                requester,
                hostname,
                realm,
                reply_to,
                transports,
                credentials,
                issued_at_utc,
            })
        }
        other => return Err(WireError::InvalidTag { context: "v2 body", tag: other }),
    })
}

// ------------------------------------------------------------------
// Segments.
// ------------------------------------------------------------------

/// Most bytes a segment head can occupy: the prelude plus two varints
/// (`base_utc`, `frame_count`).
const MAX_HEAD_LEN: usize = PRELUDE_LEN + 2 * MAX_VARINT_BYTES;

/// Assembles segments, reusing its buffers: a long-lived writer reaches
/// a steady state where closing a segment costs one allocation (the
/// segment's [`Bytes`]) and encoding a frame costs none.
///
/// Frames are encoded as `[ttl, hops, v2 body]` and appended behind
/// their varint length. The segment head — prelude, `base_utc`, frame
/// count — is only known when the segment closes, so the buffer keeps
/// [`MAX_HEAD_LEN`] bytes of room in front of the first frame and the
/// head is written right-aligned into it. Symbol definitions travel
/// inside whichever frame first used them.
#[derive(Debug)]
pub struct SegmentWriter {
    /// `MAX_HEAD_LEN` bytes of head room, then the open segment's
    /// length-prefixed frames.
    seg: WireWriter,
    /// The frame being encoded (its length prefix needs its length).
    frame: WireWriter,
    base_utc: u64,
    frames: usize,
}

impl SegmentWriter {
    /// A writer with an empty segment open at `base_utc` 0.
    pub fn new() -> Self {
        let mut seg = WireWriter::new();
        seg.put_raw(&[0; MAX_HEAD_LEN]);
        SegmentWriter { seg, frame: WireWriter::new(), base_utc: 0, frames: 0 }
    }

    /// Sets the `base_utc` the next segment's timestamps are relative to.
    pub fn begin(&mut self, base_utc: u64) {
        debug_assert_eq!(self.frames, 0, "begin with a segment still open");
        self.base_utc = base_utc;
    }

    /// Encodes one frame into the open segment and returns the frame's
    /// encoded length (hop bytes included).
    pub fn push(&mut self, ttl: u8, hops: u8, msg: &Message, syms: &mut SymTabWriter) -> usize {
        self.frame.clear();
        self.frame.put_u8(ttl);
        self.frame.put_u8(hops);
        encode_v2_body(msg, self.base_utc, syms, &mut self.frame);
        let len = self.frame.len();
        put_varint(&mut self.seg, len as u64);
        self.seg.put_raw(self.frame.as_slice());
        self.frames += 1;
        len
    }

    /// Closes the open segment and returns it (a well-formed zero-frame
    /// segment if nothing was pushed).
    pub fn finish(&mut self) -> Bytes {
        let mut head = [0; MAX_HEAD_LEN];
        head[..PRELUDE_LEN].copy_from_slice(&[DEFAULT_TTL, 0, FLAG_SEGMENT, 0]);
        let mut len = PRELUDE_LEN;
        len += write_varint(self.base_utc, &mut head[len..]);
        len += write_varint(self.frames as u64, &mut head[len..]);
        let start = MAX_HEAD_LEN - len;
        self.seg.patch(start, &head[..len]);
        let segment = &self.seg.as_slice()[start..];
        assert!(segment.len() <= MAX_FRAME_LEN, "segment exceeds MAX_FRAME_LEN");
        let out = Bytes::copy_from_slice(segment);
        self.seg.clear();
        self.seg.put_raw(&[0; MAX_HEAD_LEN]);
        self.frames = 0;
        out
    }
}

impl Default for SegmentWriter {
    fn default() -> Self {
        SegmentWriter::new()
    }
}

/// Convenience: encode `items` (`(ttl, hops, message)`) into a single
/// segment, returning it plus each frame's encoded length (hop bytes
/// included).
pub fn encode_segment(
    items: &[(u8, u8, &Message)],
    base_utc: u64,
    syms: &mut SymTabWriter,
) -> (Bytes, Vec<usize>) {
    let mut w = SegmentWriter::new();
    w.begin(base_utc);
    let lens = items.iter().map(|&(ttl, hops, msg)| w.push(ttl, hops, msg, syms)).collect();
    (w.finish(), lens)
}

/// One frame fully decoded out of a segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFrame {
    /// Remaining hop budget carried for this frame.
    pub ttl: u8,
    /// Hops travelled so far.
    pub hops: u8,
    /// The decoded message.
    pub msg: Message,
    /// This frame's encoded length inside the segment (hop bytes
    /// included) — what the negotiated encoding actually cost, the
    /// charge [`WireMsg::from_v2_frame`](crate::WireMsg::from_v2_frame)
    /// gives the delivered message.
    pub encoded_len: usize,
}

/// Decodes a whole segment into `out` (cleared first), so a receive
/// loop reuses one frame buffer across segments. On any error the
/// symbol table is rolled back to its pre-segment state and `out` is
/// left empty, so a truncated or corrupted segment never leaves partial
/// definitions behind to corrupt later frames.
pub fn decode_segment_into(
    seg: &Bytes,
    syms: &mut SymTabReader,
    out: &mut Vec<SegmentFrame>,
) -> Result<(), WireError> {
    out.clear();
    let cp = syms.checkpoint();
    let decoded = decode_frames(seg, syms, out);
    if decoded.is_err() {
        syms.rollback(cp);
        out.clear();
    }
    decoded
}

/// [`decode_segment_into`] a fresh `Vec`.
pub fn decode_segment(
    seg: &Bytes,
    syms: &mut SymTabReader,
) -> Result<Vec<SegmentFrame>, WireError> {
    let mut out = Vec::new();
    decode_segment_into(seg, syms, &mut out)?;
    Ok(out)
}

fn decode_frames(
    seg: &Bytes,
    syms: &mut SymTabReader,
    out: &mut Vec<SegmentFrame>,
) -> Result<(), WireError> {
    if seg.len() < PRELUDE_LEN {
        return Err(WireError::UnexpectedEof);
    }
    if seg.len() > MAX_FRAME_LEN {
        return Err(WireError::MessageTooLong(seg.len()));
    }
    if seg[2] & FLAG_SEGMENT == 0 {
        return Err(WireError::Invalid("missing segment flag"));
    }
    // One reader over the whole segment: frames are sub-readers of it,
    // so payloads alias the segment's allocation directly.
    let mut r = WireReader::shared(seg);
    r.get_raw(PRELUDE_LEN)?;
    let base_utc = get_varint(&mut r)?;
    let count = get_varint_len(&mut r)?;
    out.reserve(count.min(1024));
    for _ in 0..count {
        let flen = get_varint_len(&mut r)?;
        if flen < 3 {
            return Err(WireError::Invalid("segment frame too short"));
        }
        let mut fr = r.sub_reader(flen)?;
        let (ttl, hops) = (fr.get_u8()?, fr.get_u8()?);
        let msg = decode_v2_body(&mut fr, base_utc, syms)?;
        fr.expect_end()?;
        out.push(SegmentFrame { ttl, hops, msg, encoded_len: flen });
    }
    r.expect_end()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::TransportKind;
    use crate::message::TransportEndpoint;
    use crate::topic::{Topic, TopicFilter};
    use nb_util::Uuid;

    #[test]
    fn varint_roundtrip_across_widths() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in cases {
            let mut w = WireWriter::new();
            put_varint(&mut w, v);
            let bytes = w.finish();
            assert!(bytes.len() <= MAX_VARINT_BYTES);
            let mut r = WireReader::new(&bytes);
            assert_eq!(get_varint(&mut r).unwrap(), v, "value {v}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        for v in [0u64, 1, 42, 127] {
            let mut w = WireWriter::new();
            put_varint(&mut w, v);
            assert_eq!(w.len(), 1);
        }
    }

    #[test]
    fn overlong_varint_is_a_typed_error() {
        // Eleven continuation bytes: must fail before reading forever.
        let bytes = [0x80u8; 11];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(get_varint(&mut r), Err(WireError::Invalid(_))));
        // Tenth byte carrying more than the last u64 bit overflows.
        let mut over = [0x80u8; 10];
        over[9] = 0x02;
        let mut r = WireReader::new(&over);
        assert_eq!(get_varint(&mut r), Err(WireError::Invalid("varint overflow")));
    }

    #[test]
    fn zigzag_roundtrip_and_small_magnitudes() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < 128, "small negatives stay one byte");
        assert!(zigzag(63) < 128);
    }

    fn discovery(issued_at_utc: u64) -> Message {
        Message::Discovery(DiscoveryRequest {
            request_id: Uuid::from_u128(77),
            requester: NodeId(9),
            hostname: "grids.ucs.indiana.edu".into(),
            realm: RealmId(2),
            reply_to: Endpoint::new(NodeId(9), Port(5060)),
            transports: vec![TransportEndpoint { kind: TransportKind::Udp, port: Port(5060) }],
            credentials: None,
            issued_at_utc,
        })
    }

    fn publish(topic: &str) -> Message {
        Message::Publish(Event {
            id: Uuid::from_u128(0xABCD),
            topic: Topic::parse(topic).unwrap(),
            source: NodeId(3),
            payload: Bytes::from_static(b"score 3-1"),
        })
    }

    fn body_roundtrip(msg: &Message, base: u64) -> Message {
        let mut sw = SymTabWriter::new();
        let mut sr = SymTabReader::new();
        let mut w = WireWriter::new();
        encode_v2_body(msg, base, &mut sw, &mut w);
        let bytes = w.finish();
        let mut r = WireReader::shared(&bytes);
        let back = decode_v2_body(&mut r, base, &mut sr).unwrap();
        r.expect_end().unwrap();
        back
    }

    #[test]
    fn compact_kinds_roundtrip() {
        let base = 1_000_000u64;
        for msg in [
            publish("sports/scores"),
            Message::Heartbeat { from: NodeId(1), seq: 42 },
            Message::Subscribe {
                filter: TopicFilter::parse("sports/*").unwrap(),
                origin: NodeId(2),
                seq: 7,
            },
            Message::Unsubscribe {
                filter: TopicFilter::parse("news/**").unwrap(),
                origin: NodeId(2),
                seq: 8,
            },
            discovery(base + 12),
            discovery(0),
            discovery(u64::MAX), // wrapping delta must still roundtrip
        ] {
            assert_eq!(body_roundtrip(&msg, base), msg, "{}", msg.kind());
        }
    }

    #[test]
    fn non_compact_kinds_embed_v1_and_roundtrip() {
        let msg = Message::LinkHello { from: NodeId(4), realm: RealmId(0) };
        let mut sw = SymTabWriter::new();
        let mut w = WireWriter::new();
        encode_v2_body(&msg, 0, &mut sw, &mut w);
        let bytes = w.finish();
        assert_eq!(bytes[0], V2_EMBED_V1);
        assert_eq!(&bytes[1..], msg.to_bytes().as_ref(), "embedded body is v1 verbatim");
        assert_eq!(body_roundtrip(&msg, 0), msg);
    }

    #[test]
    fn warm_symbols_shrink_publish_frames() {
        let base = 0;
        let mut sw = SymTabWriter::new();
        let msg = publish("sports/scores");
        let mut w = SegmentWriter::new();
        w.begin(base);
        let cold = w.push(32, 0, &msg, &mut sw);
        let warm = w.push(32, 0, &msg, &mut sw);
        assert!(warm + "sports/scores".len() <= cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn segment_roundtrip_preserves_order_ttl_and_lens() {
        let base = 5_000u64;
        let msgs =
            [publish("a/b"), Message::Heartbeat { from: NodeId(1), seq: 1 }, publish("a/b")];
        let items: Vec<(u8, u8, &Message)> =
            msgs.iter().enumerate().map(|(i, m)| (30 - i as u8, i as u8, m)).collect();
        let mut sw = SymTabWriter::new();
        let (seg, lens) = encode_segment(&items, base, &mut sw);
        let mut sr = SymTabReader::new();
        let frames = decode_segment(&seg, &mut sr).unwrap();
        assert_eq!(frames.len(), 3);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.msg, msgs[i]);
            assert_eq!((f.ttl, f.hops), (30 - i as u8, i as u8));
            assert_eq!(f.encoded_len, lens[i]);
        }
        // Third frame reuses the symbol the first defined.
        assert!(lens[2] < lens[0]);
    }

    /// The segment layout written the obvious way — every frame in its
    /// own buffer, then head and frames concatenated — as the oracle for
    /// [`SegmentWriter`]'s in-place assembly.
    fn reference_segment(
        items: &[(u8, u8, &Message)],
        base: u64,
        syms: &mut SymTabWriter,
    ) -> Bytes {
        let mut w = WireWriter::new();
        w.put_raw(&[DEFAULT_TTL, 0, FLAG_SEGMENT, 0]);
        put_varint(&mut w, base);
        put_varint(&mut w, items.len() as u64);
        for &(ttl, hops, msg) in items {
            let mut f = WireWriter::new();
            f.put_u8(ttl);
            f.put_u8(hops);
            encode_v2_body(msg, base, syms, &mut f);
            put_varint(&mut w, f.len() as u64);
            w.put_raw(f.as_slice());
        }
        w.finish()
    }

    #[test]
    fn segment_writer_matches_the_reference_layout_at_every_varint_width() {
        let big = Message::Publish(Event {
            id: Uuid::from_u128(9),
            topic: Topic::parse("wide/frames").unwrap(),
            source: NodeId(3),
            payload: Bytes::from(vec![7u8; 300]), // frame length needs a 2-byte varint
        });
        let small = Message::Heartbeat { from: NodeId(1), seq: 1 };
        // One-byte and two-byte frame counts; one-byte and ten-byte bases.
        for (count, base) in [(0usize, 0u64), (1, 5), (3, u64::MAX), (130, 1 << 40)] {
            let msgs: Vec<&Message> =
                (0..count).map(|i| if i % 3 == 0 { &big } else { &small }).collect();
            let items: Vec<(u8, u8, &Message)> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| (32 - (i % 8) as u8, (i % 8) as u8, *m))
                .collect();
            let (seg, lens) = encode_segment(&items, base, &mut SymTabWriter::new());
            let want = reference_segment(&items, base, &mut SymTabWriter::new());
            assert_eq!(seg, want, "{count} frames at base {base}");
            assert_eq!(lens.len(), count);
            let frames = decode_segment(&seg, &mut SymTabReader::new()).unwrap();
            assert_eq!(frames.iter().map(|f| f.encoded_len).collect::<Vec<_>>(), lens);
        }
    }

    /// The reuse half of a test that also covered the byte/frame
    /// budgets until they were deleted; it keeps the name the test
    /// floor knows it by.
    #[test]
    fn segment_writer_closes_on_either_budget_and_is_reusable() {
        let mut sw = SymTabWriter::new();
        let mut sr = SymTabReader::new();
        let mut w = SegmentWriter::new();
        // One writer, three segments of different sizes and bases: each
        // decodes to exactly what was pushed since the last `finish`.
        for (base, count) in [(0u64, 4usize), (7, 1), (1 << 40, 2)] {
            let msg = discovery(base + 5);
            w.begin(base);
            for _ in 0..count {
                w.push(32, 0, &msg, &mut sw);
            }
            let frames = decode_segment(&w.finish(), &mut sr).unwrap();
            assert_eq!(frames.len(), count, "base {base}");
            assert!(frames.iter().all(|f| f.msg == msg), "base {base}");
        }
    }

    #[test]
    fn decode_into_reuses_the_buffer_and_empties_it_on_error() {
        let msgs = [publish("r/1"), publish("r/2")];
        let items: Vec<(u8, u8, &Message)> = msgs.iter().map(|m| (32, 0, m)).collect();
        let (seg, _) = encode_segment(&items, 0, &mut SymTabWriter::new());
        let mut sr = SymTabReader::new();
        let mut out = Vec::new();
        decode_segment_into(&seg, &mut sr, &mut out).unwrap();
        assert_eq!(out.len(), 2);
        let cap = out.capacity();
        // A truncated copy fails after decoding its first frame: nothing
        // of it may be left in the buffer.
        let cut = seg.slice(..seg.len() - 1);
        assert!(decode_segment_into(&cut, &mut SymTabReader::new(), &mut out).is_err());
        assert!(out.is_empty());
        decode_segment_into(&seg, &mut SymTabReader::new(), &mut out).unwrap();
        assert_eq!(out.iter().map(|f| &f.msg).collect::<Vec<_>>(), msgs.iter().collect::<Vec<_>>());
        assert_eq!(out.capacity(), cap, "decoded in place");
    }

    #[test]
    fn non_segment_frame_is_rejected() {
        let plain = crate::frame::frame_message(&publish("a/b"), 32, 0);
        assert_eq!(
            decode_segment(&plain, &mut SymTabReader::new()).unwrap_err(),
            WireError::Invalid("missing segment flag")
        );
    }

    #[test]
    fn hostile_lengths_are_typed_errors_that_roll_back() {
        let over = MAX_FRAME_LEN + 1;
        let segment = |count: usize, frames: &[&[u8]]| {
            let mut w = WireWriter::new();
            w.put_raw(&[DEFAULT_TTL, 0, FLAG_SEGMENT, 0]);
            put_varint(&mut w, 0); // base_utc
            put_varint(&mut w, count as u64);
            for f in frames {
                w.put_raw(f);
            }
            w.finish()
        };
        // A frame: its true length, then `[ttl, hops]` and `body`.
        let frame = |body: &dyn Fn(&mut WireWriter)| {
            let mut f = WireWriter::new();
            f.put_raw(&[32, 0]);
            body(&mut f);
            let mut w = WireWriter::new();
            put_varint(&mut w, f.len() as u64);
            w.put_raw(f.as_slice());
            w.finish()
        };
        // A well-formed frame defining a symbol, so that a failure in the
        // frame after it has a definition and a decoded frame to undo.
        let ok = publish("hostile/ok");
        let good = frame(&|w| encode_v2_body(&ok, 0, &mut SymTabWriter::new(), w));
        let mut long_frame_len = WireWriter::new();
        put_varint(&mut long_frame_len, over as u64);
        let long_payload = frame(&|w| {
            w.put_u8(V2_PUBLISH);
            w.put_uuid(Uuid::from_u128(2));
            put_varint(w, 0); // inline symbol definition
            put_varint_bytes(w, b"hostile/new");
            put_varint(w, 3); // source
            put_varint(w, over as u64);
        });
        let discovery_head = |w: &mut WireWriter| {
            w.put_u8(V2_DISCOVERY);
            w.put_uuid(Uuid::from_u128(1));
            put_varint(w, 9); // requester
        };
        let long_hostname = frame(&|w| {
            discovery_head(w);
            put_varint(w, over as u64);
        });
        let many_transports = frame(&|w| {
            discovery_head(w);
            put_varint_bytes(w, b"h");
            for field in [2, 9, 5060] {
                put_varint(w, field); // realm, reply node, reply port
            }
            put_varint(w, over as u64);
        });
        let cases = [
            ("frame count", segment(over, &[])),
            ("frame length", segment(2, &[&good, long_frame_len.as_slice()])),
            ("Publish payload length", segment(2, &[&good, &long_payload])),
            ("Discovery hostname length", segment(2, &[&good, &long_hostname])),
            ("Discovery transports count", segment(2, &[&good, &many_transports])),
        ];
        let mut sr = SymTabReader::new();
        let warm = publish("hostile/warm");
        let (warm, _) = encode_segment(&[(32, 0, &warm)], 0, &mut SymTabWriter::new());
        decode_segment(&warm, &mut sr).unwrap();
        let mut out = Vec::new();
        for (what, seg) in &cases {
            // The error names the hostile number itself: it was refused
            // where it was read, before anything was sized or looped by
            // it. Without `get_varint_len`'s bound the other segments
            // still fail, later, as `UnexpectedEof`; the payload is
            // bounded a second time by `take_raw_bytes`.
            let got = decode_segment_into(seg, &mut sr, &mut out);
            assert_eq!(got, Err(WireError::FieldTooLong(over)), "{what}");
            assert!(out.is_empty(), "{what}: decoded frames left behind");
            assert_eq!(sr.len(), 1, "{what}: symbol table not rolled back");
        }
        // A segment longer than the cap is refused whole.
        let mut long = vec![0; over];
        long[..PRELUDE_LEN].copy_from_slice(&[DEFAULT_TTL, 0, FLAG_SEGMENT, 0]);
        let got = decode_segment_into(&long.into(), &mut sr, &mut out);
        assert_eq!(got, Err(WireError::MessageTooLong(over)));
        // The good frame still decodes on its own.
        decode_segment_into(&segment(1, &[&good]), &mut sr, &mut out).unwrap();
        assert_eq!((out.len(), sr.len()), (1, 2));
    }

    #[test]
    fn truncated_segment_errors_and_rolls_back_symbols() {
        let base = 0u64;
        let msgs = [publish("t/1"), publish("t/2")];
        let items: Vec<(u8, u8, &Message)> = msgs.iter().map(|m| (32, 0, m)).collect();
        let mut sw = SymTabWriter::new();
        let (seg, _) = encode_segment(&items, base, &mut sw);
        let mut sr = SymTabReader::new();
        for cut in 0..seg.len() {
            let trunc = seg.slice(0..cut);
            assert!(decode_segment(&trunc, &mut sr).is_err(), "cut {cut} decoded");
            assert_eq!(sr.len(), 0, "cut {cut} leaked symbol definitions");
        }
        // The intact segment still decodes against the same table.
        let frames = decode_segment(&seg, &mut sr).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(sr.len(), 2);
    }
}
