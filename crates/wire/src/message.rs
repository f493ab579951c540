//! The protocol message set.
//!
//! One tagged union, [`Message`], covers every datagram and stream payload
//! in the system: pub/sub traffic, broker link management, and the whole
//! discovery plane (advertisements, requests, acks, responses, BDN
//! federation sync, pings and secured envelopes). The discovery structures
//! follow the paper's "anatomy" sections (§2.2 advertisements, §3
//! requests, §5.1 responses). NTP is not a message kind: response
//! timestamps come from each node's modelled clock (`nb_net::clock`).
//! Tags 20, 21, 23, 24 and 25 are retired and decode as
//! [`WireError::InvalidTag`]; surviving tags keep their values.

use crate::addr::{Endpoint, NodeId, Port, RealmId, TransportKind};
use crate::codec::{Wire, WireError, WireReader, WireWriter, MAX_FIELD_LEN, MAX_MESSAGE_LEN};
use crate::topic::{Topic, TopicFilter};
use bytes::Bytes;
use nb_util::Uuid;

/// One advertised transport: protocol kind plus its service port
/// (paper §2.2: "transport protocols supported and communication ports").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransportEndpoint {
    pub kind: TransportKind,
    pub port: Port,
}

impl Wire for TransportEndpoint {
    fn encode(&self, w: &mut WireWriter) {
        self.kind.encode(w);
        self.port.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TransportEndpoint { kind: TransportKind::decode(r)?, port: Port::decode(r)? })
    }
}

/// Authentication material presented with requests (paper §3/§5: "sometimes
/// also includes credentials for authorized accesses").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credential {
    /// The principal this credential identifies.
    pub principal: String,
    /// An opaque token (in the secured configuration this is a signature
    /// produced by `nb-security`).
    pub token: Vec<u8>,
}

impl Wire for Credential {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.principal);
        w.put_bytes(&self.token);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Credential { principal: r.get_str()?, token: r.get_bytes()? })
    }
}

/// A published event (paper §1: producers publish events on a topic and
/// the substrate routes them to registered consumers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Unique event identifier (duplicate suppression during flooding).
    pub id: Uuid,
    /// The concrete topic published on.
    pub topic: Topic,
    /// The originating entity.
    pub source: NodeId,
    /// Opaque application payload. Held as [`Bytes`] so forwarding an
    /// event is a refcount bump, and decoding from a shared buffer
    /// borrows rather than copies.
    pub payload: Bytes,
}

impl Wire for Event {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uuid(self.id);
        self.topic.encode(w);
        self.source.encode(w);
        w.put_bytes(&self.payload);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Event {
            id: r.get_uuid()?,
            topic: Topic::decode(r)?,
            source: NodeId::decode(r)?,
            payload: r.take_bytes()?,
        })
    }
}

/// A broker advertisement (paper §2.2): registered with BDNs directly or
/// published on the well-known advertisement topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrokerAdvertisement {
    /// The advertising broker.
    pub broker: NodeId,
    /// Hostname of the broker process.
    pub hostname: String,
    /// NaradaBrokering logical address within the overlay.
    pub logical_address: String,
    /// Network realm the broker lives in.
    pub realm: RealmId,
    /// Supported transports and their ports.
    pub transports: Vec<TransportEndpoint>,
    /// Optional geographical information ("a BDN in the US may be
    /// interested only in broker additions in North America").
    pub geography: Option<String>,
    /// Optional institutional information.
    pub institution: Option<String>,
    /// UTC time (µs) the advertisement was issued, by the broker's clock.
    pub issued_at_utc: u64,
}

impl BrokerAdvertisement {
    /// The advertised port for `kind`, if any.
    pub fn port_for(&self, kind: TransportKind) -> Option<Port> {
        self.transports.iter().find(|t| t.kind == kind).map(|t| t.port)
    }
}

impl Wire for BrokerAdvertisement {
    fn encode(&self, w: &mut WireWriter) {
        self.broker.encode(w);
        w.put_str(&self.hostname);
        w.put_str(&self.logical_address);
        self.realm.encode(w);
        w.put_vec(&self.transports);
        w.put_option(&self.geography);
        w.put_option(&self.institution);
        w.put_u64(self.issued_at_utc);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(BrokerAdvertisement {
            broker: NodeId::decode(r)?,
            hostname: r.get_str()?,
            logical_address: r.get_str()?,
            realm: RealmId::decode(r)?,
            transports: r.get_vec()?,
            geography: r.get_option()?,
            institution: r.get_option()?,
            issued_at_utc: r.get_u64()?,
        })
    }
}

/// A broker discovery request (paper §3): "includes information regarding
/// the requesting node process such as hostname, ports and transport
/// protocols … also contains a UUID which uniquely identifies the
/// request".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryRequest {
    /// Unique request identifier (idempotency + dedup).
    pub request_id: Uuid,
    /// The requesting node.
    pub requester: NodeId,
    /// Hostname of the requesting process.
    pub hostname: String,
    /// Realm the requester originates from (response policies may filter
    /// on this).
    pub realm: RealmId,
    /// Where UDP discovery responses should be sent.
    pub reply_to: Endpoint,
    /// Transports the requester can speak.
    pub transports: Vec<TransportEndpoint>,
    /// Optional credentials for authorized access.
    pub credentials: Option<Credential>,
    /// UTC time (µs) the request was issued, by the requester's clock.
    pub issued_at_utc: u64,
}

impl Wire for DiscoveryRequest {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uuid(self.request_id);
        self.requester.encode(w);
        w.put_str(&self.hostname);
        self.realm.encode(w);
        self.reply_to.encode(w);
        w.put_vec(&self.transports);
        w.put_option(&self.credentials);
        w.put_u64(self.issued_at_utc);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscoveryRequest {
            request_id: r.get_uuid()?,
            requester: NodeId::decode(r)?,
            hostname: r.get_str()?,
            realm: RealmId::decode(r)?,
            reply_to: Endpoint::decode(r)?,
            transports: r.get_vec()?,
            credentials: r.get_option()?,
            issued_at_utc: r.get_u64()?,
        })
    }
}

/// What a broker acts on when it answers a [`DiscoveryRequest`] — the
/// dedup key, what a response policy may ask about, and where the
/// response goes — borrowed from the encoded request. A broker sees
/// every flooded request once per attach and needs none of the strings
/// or vectors the owned decode would allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveryRequestView<'a> {
    /// [`DiscoveryRequest::request_id`].
    pub request_id: Uuid,
    /// [`DiscoveryRequest::realm`].
    pub realm: RealmId,
    /// [`DiscoveryRequest::reply_to`].
    pub reply_to: Endpoint,
    /// `(principal, token)` of [`DiscoveryRequest::credentials`].
    pub credentials: Option<(&'a str, &'a [u8])>,
}

impl<'a> DiscoveryRequestView<'a> {
    /// The view of an already decoded request.
    pub fn of(req: &'a DiscoveryRequest) -> Self {
        DiscoveryRequestView {
            request_id: req.request_id,
            realm: req.realm,
            reply_to: req.reply_to,
            credentials: req
                .credentials
                .as_ref()
                .map(|c| (c.principal.as_str(), c.token.as_slice())),
        }
    }

    /// Strictly decodes `body`, a complete encoded
    /// [`Message::Discovery`] (the payload of a flooded discovery
    /// event). Every field is walked and validated exactly as
    /// [`Message::from_bytes`] would — a body this accepts is one that
    /// accepts, and the reverse — but nothing is allocated.
    pub fn decode(body: &'a [u8]) -> Result<Self, WireError> {
        if body.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(body.len()));
        }
        let mut r = WireReader::new(body);
        match r.get_u8()? {
            TAG_DISCOVERY => {}
            tag => return Err(WireError::InvalidTag { context: "discovery request", tag }),
        }
        let request_id = r.get_uuid()?;
        NodeId::decode(&mut r)?;
        r.get_str_ref()?;
        let realm = RealmId::decode(&mut r)?;
        let reply_to = Endpoint::decode(&mut r)?;
        let transports = r.get_u32()? as usize;
        if transports > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong(transports));
        }
        for _ in 0..transports {
            TransportEndpoint::decode(&mut r)?;
        }
        let credentials = match r.get_u8()? {
            0 => None,
            1 => {
                let principal = r.get_str_ref()?;
                let len = r.get_u32()? as usize;
                if len > MAX_FIELD_LEN {
                    return Err(WireError::FieldTooLong(len));
                }
                Some((principal, r.get_raw(len)?))
            }
            tag => return Err(WireError::InvalidTag { context: "option", tag }),
        };
        r.get_u64()?;
        r.expect_end()?;
        Ok(DiscoveryRequestView { request_id, realm, reply_to, credentials })
    }
}

/// The usage metric carried in every discovery response (paper §5.1(c)
/// and §9: total memory, used memory, number of links, CPU load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsageMetrics {
    /// Active concurrent client connections at the broker.
    pub active_connections: u32,
    /// Number of overlay links the broker maintains.
    pub num_links: u32,
    /// CPU load, in thousandths (0–1000).
    pub cpu_load_permille: u16,
    /// Total memory available to the broker process, bytes.
    pub total_memory: u64,
    /// Memory currently used, bytes.
    pub used_memory: u64,
}

impl UsageMetrics {
    /// Fraction of memory free, in `[0, 1]`.
    pub fn free_memory_ratio(&self) -> f64 {
        if self.total_memory == 0 {
            return 0.0;
        }
        let used = self.used_memory.min(self.total_memory);
        (self.total_memory - used) as f64 / self.total_memory as f64
    }

    /// CPU load in `[0, 1]`.
    pub fn cpu_load(&self) -> f64 {
        f64::from(self.cpu_load_permille.min(1000)) / 1000.0
    }
}

impl Wire for UsageMetrics {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.active_connections);
        w.put_u32(self.num_links);
        w.put_u16(self.cpu_load_permille);
        w.put_u64(self.total_memory);
        w.put_u64(self.used_memory);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(UsageMetrics {
            active_connections: r.get_u32()?,
            num_links: r.get_u32()?,
            cpu_load_permille: r.get_u16()?,
            total_memory: r.get_u64()?,
            used_memory: r.get_u64()?,
        })
    }
}

/// A broker discovery response (paper §5.1): the request UUID, the
/// current NTP-based timestamp, broker process information and the usage
/// metric. Always sent over UDP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveryResponse {
    /// UUID of the request being answered.
    pub request_id: Uuid,
    /// The responding broker.
    pub broker: NodeId,
    /// Hostname of the responding broker.
    pub hostname: String,
    /// Realm of the responding broker.
    pub realm: RealmId,
    /// Transports the broker supports (connect info + ping port).
    pub transports: Vec<TransportEndpoint>,
    /// NTP-based UTC timestamp (µs) when the response was issued.
    pub issued_at_utc: u64,
    /// Load at the broker.
    pub metrics: UsageMetrics,
}

impl DiscoveryResponse {
    /// The advertised port for `kind`, if any.
    pub fn port_for(&self, kind: TransportKind) -> Option<Port> {
        self.transports.iter().find(|t| t.kind == kind).map(|t| t.port)
    }
}

impl Wire for DiscoveryResponse {
    fn encode(&self, w: &mut WireWriter) {
        w.put_uuid(self.request_id);
        self.broker.encode(w);
        w.put_str(&self.hostname);
        self.realm.encode(w);
        w.put_vec(&self.transports);
        w.put_u64(self.issued_at_utc);
        self.metrics.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(DiscoveryResponse {
            request_id: r.get_uuid()?,
            broker: NodeId::decode(r)?,
            hostname: r.get_str()?,
            realm: RealmId::decode(r)?,
            transports: r.get_vec()?,
            issued_at_utc: r.get_u64()?,
            metrics: UsageMetrics::decode(r)?,
        })
    }
}

/// A signed + encrypted payload (paper §9.1: "a discovery request and
/// response may be secured by sending credentials verifying the
/// authenticity of the clients and also encrypting the discovery request
/// and response"). The cryptography lives in `nb-security`; the wire
/// format only carries the opaque material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureEnvelope {
    /// Principal name of the sender.
    pub sender: String,
    /// Encoded certificate chain, leaf first.
    pub cert_chain: Vec<Bytes>,
    /// Ciphertext of the encoded inner [`Message`].
    pub ciphertext: Bytes,
    /// Signature over the ciphertext.
    pub signature: Bytes,
}

impl Wire for Vec<u8> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

impl Wire for SecureEnvelope {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(&self.sender);
        w.put_vec(&self.cert_chain);
        w.put_bytes(&self.ciphertext);
        w.put_bytes(&self.signature);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SecureEnvelope {
            sender: r.get_str()?,
            cert_chain: r.get_vec()?,
            ciphertext: r.take_bytes()?,
            signature: r.take_bytes()?,
        })
    }
}

/// One replicated advertisement lease inside a [`FederationSync`]. The
/// absolute expiry travels with the ad so a merged lease never slides
/// forward: a dead broker's lease expires at the same virtual instant on
/// every BDN that holds it, no matter how many gossip hops it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// The advertisement the lease covers (LWW key: `ad.issued_at_utc`).
    pub ad: BrokerAdvertisement,
    /// Absolute UTC expiry (µs) of the lease at the origin BDN.
    pub expires_at_us: u64,
}

impl Wire for LeaseRecord {
    fn encode(&self, w: &mut WireWriter) {
        self.ad.encode(w);
        w.put_u64(self.expires_at_us);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LeaseRecord { ad: BrokerAdvertisement::decode(r)?, expires_at_us: r.get_u64()? })
    }
}

/// A tombstone for an expired lease: retires every advertisement for
/// `broker` issued at or before `lease_issued_utc`. A fresher ad (strictly
/// newer `issued_at_utc`) beats the tombstone, so a live broker that keeps
/// heartbeating is never suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TombstoneRecord {
    /// The broker whose lease expired.
    pub broker: NodeId,
    /// `issued_at_utc` of the newest advertisement the tombstone retires.
    pub lease_issued_utc: u64,
}

impl Wire for TombstoneRecord {
    fn encode(&self, w: &mut WireWriter) {
        self.broker.encode(w);
        w.put_u64(self.lease_issued_utc);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TombstoneRecord { broker: NodeId::decode(r)?, lease_issued_utc: r.get_u64()? })
    }
}

/// Which leg of the anti-entropy exchange a [`FederationSync`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPhase {
    /// Opening probe: digest only, no records.
    Digest,
    /// Digest mismatched — full snapshot travels to the partner.
    Push,
    /// Partner's merged snapshot travels back, closing the round.
    PushReply,
}

impl Wire for SyncPhase {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(match self {
            SyncPhase::Digest => 0,
            SyncPhase::Push => 1,
            SyncPhase::PushReply => 2,
        });
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(SyncPhase::Digest),
            1 => Ok(SyncPhase::Push),
            2 => Ok(SyncPhase::PushReply),
            tag => Err(WireError::InvalidTag { context: "SyncPhase", tag }),
        }
    }
}

/// One BDN-to-BDN anti-entropy exchange. `digest` is the sender's FNV-1a
/// registry digest at send time; `leases`/`tombstones` are empty on the
/// [`SyncPhase::Digest`] leg and carry full snapshots on the push legs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederationSync {
    /// The BDN that sent this leg.
    pub from: NodeId,
    /// Which leg of the exchange this is.
    pub phase: SyncPhase,
    /// FNV-1a-64 digest of the sender's live registry.
    pub digest: u64,
    /// Replicated leases (push legs only).
    pub leases: Vec<LeaseRecord>,
    /// Replicated tombstones (push legs only).
    pub tombstones: Vec<TombstoneRecord>,
}

impl Wire for FederationSync {
    fn encode(&self, w: &mut WireWriter) {
        self.from.encode(w);
        self.phase.encode(w);
        w.put_u64(self.digest);
        w.put_vec(&self.leases);
        w.put_vec(&self.tombstones);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(FederationSync {
            from: NodeId::decode(r)?,
            phase: SyncPhase::decode(r)?,
            digest: r.get_u64()?,
            leases: r.get_vec()?,
            tombstones: r.get_vec()?,
        })
    }
}

/// Every payload that crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ------------------------------------------------ broker overlay ----
    /// Open an overlay link between two brokers.
    LinkHello { from: NodeId, realm: RealmId },
    /// Accept an overlay link.
    LinkAccept { from: NodeId, realm: RealmId },
    /// Tear down an overlay link.
    LinkClose { from: NodeId },
    /// Liveness probe on a link.
    Heartbeat { from: NodeId, seq: u64 },
    /// Propagated subscription state (origin + sequence for dedup).
    Subscribe { filter: TopicFilter, origin: NodeId, seq: u64 },
    /// Propagated unsubscription.
    Unsubscribe { filter: TopicFilter, origin: NodeId, seq: u64 },
    /// A routed event.
    Publish(Event),
    /// Asks the neighbour to stop forwarding events published by
    /// `source` on this link for `lease_ms`: the sender already has a
    /// faster feed for that publisher. Soft state — the mute lapses on
    /// its own, so a lost `Prune` or a dead feed costs at most one lease.
    Prune { source: NodeId, lease_ms: u32 },

    // ------------------------------------------------ client plane ------
    /// A client asks a broker for a connection.
    ClientConnect { client: NodeId, reply_port: Port },
    /// Broker's verdict on a connection request.
    ClientConnectAck { broker: NodeId, accepted: bool },
    /// A client subscribes through its broker.
    ClientSubscribe { filter: TopicFilter },
    /// A client unsubscribes.
    ClientUnsubscribe { filter: TopicFilter },
    /// A client disconnects.
    ClientDisconnect { client: NodeId },

    // ------------------------------------------------ discovery plane ---
    /// A broker registers itself (direct-to-BDN or via the well-known topic).
    Advertisement(BrokerAdvertisement),
    /// A (private) BDN advertises its own existence to brokers (paper §2.4).
    BdnAdvertisement { bdn: NodeId, endpoint: Endpoint, requires_credentials: bool },
    /// A node asks for the nearest available broker.
    Discovery(DiscoveryRequest),
    /// A BDN acknowledges receipt of a discovery request (paper §3:
    /// "a BDN is expected to acknowledge the receipt of a discovery
    /// request in a timely manner").
    DiscoveryAck { request_id: Uuid, bdn: NodeId },
    /// A broker answers a discovery request, over UDP.
    Response(DiscoveryResponse),
    /// BDN-to-BDN anti-entropy exchange: digest probe or lease/tombstone
    /// snapshot (see `nb-discovery::federation`).
    FederationSync(FederationSync),

    // ------------------------------------------------ measurement -------
    /// UDP ping carrying the sender's local send timestamp (paper §6).
    Ping { nonce: u64, sent_at: u64, reply_to: Endpoint },
    /// UDP pong echoing the ping's timestamp.
    Pong { nonce: u64, echoed_sent_at: u64, responder: NodeId },

    // ------------------------------------------------ security ----------
    /// A signed + encrypted inner message.
    Secure(SecureEnvelope),
}

impl Message {
    /// Short human-readable kind label (logging, metrics): its tag's
    /// entry in [`LABELS_BY_TAG`].
    pub fn kind(&self) -> &'static str {
        LABELS_BY_TAG[usize::from(self.tag())]
    }

    /// The wire tag this message encodes with — the first body byte.
    /// Lets [`crate::wiremsg::WireMsg`] synthesise a peeked header from
    /// an already-decoded message without encoding it, and per-kind
    /// tallies index their slots by it ([`KINDS`] names the tags).
    pub fn tag(&self) -> u8 {
        match self {
            Message::LinkHello { .. } => TAG_LINK_HELLO,
            Message::LinkAccept { .. } => TAG_LINK_ACCEPT,
            Message::LinkClose { .. } => TAG_LINK_CLOSE,
            Message::Heartbeat { .. } => TAG_HEARTBEAT,
            Message::Subscribe { .. } => TAG_SUBSCRIBE,
            Message::Unsubscribe { .. } => TAG_UNSUBSCRIBE,
            Message::Publish(_) => TAG_PUBLISH,
            Message::Prune { .. } => TAG_PRUNE,
            Message::ClientConnect { .. } => TAG_CLIENT_CONNECT,
            Message::ClientConnectAck { .. } => TAG_CLIENT_CONNECT_ACK,
            Message::ClientSubscribe { .. } => TAG_CLIENT_SUBSCRIBE,
            Message::ClientUnsubscribe { .. } => TAG_CLIENT_UNSUBSCRIBE,
            Message::ClientDisconnect { .. } => TAG_CLIENT_DISCONNECT,
            Message::Advertisement(_) => TAG_ADVERTISEMENT,
            Message::BdnAdvertisement { .. } => TAG_BDN_ADVERTISEMENT,
            Message::Discovery(_) => TAG_DISCOVERY,
            Message::DiscoveryAck { .. } => TAG_DISCOVERY_ACK,
            Message::Response(_) => TAG_RESPONSE,
            Message::FederationSync(_) => TAG_FEDERATION_SYNC,
            Message::Ping { .. } => TAG_PING,
            Message::Pong { .. } => TAG_PONG,
            Message::Secure(_) => TAG_SECURE,
        }
    }
}

pub(crate) const TAG_LINK_HELLO: u8 = 1;
pub(crate) const TAG_LINK_ACCEPT: u8 = 2;
pub(crate) const TAG_LINK_CLOSE: u8 = 3;
pub(crate) const TAG_HEARTBEAT: u8 = 4;
pub(crate) const TAG_SUBSCRIBE: u8 = 5;
pub(crate) const TAG_UNSUBSCRIBE: u8 = 6;
pub(crate) const TAG_PUBLISH: u8 = 7;
pub(crate) const TAG_CLIENT_CONNECT: u8 = 8;
pub(crate) const TAG_CLIENT_CONNECT_ACK: u8 = 9;
pub(crate) const TAG_CLIENT_SUBSCRIBE: u8 = 10;
pub(crate) const TAG_CLIENT_UNSUBSCRIBE: u8 = 11;
pub(crate) const TAG_CLIENT_DISCONNECT: u8 = 12;
pub(crate) const TAG_ADVERTISEMENT: u8 = 13;
pub(crate) const TAG_BDN_ADVERTISEMENT: u8 = 14;
pub(crate) const TAG_DISCOVERY: u8 = 15;
pub(crate) const TAG_DISCOVERY_ACK: u8 = 16;
pub(crate) const TAG_RESPONSE: u8 = 17;
pub(crate) const TAG_PING: u8 = 18;
pub(crate) const TAG_PONG: u8 = 19;
pub(crate) const TAG_SECURE: u8 = 22;
pub(crate) const TAG_FEDERATION_SYNC: u8 = 26;
pub(crate) const TAG_PRUNE: u8 = 27;

/// Every [`Message::kind`] label with its wire tag, in label order: the
/// wire's one tag registry, and the way from a tag-indexed tally back to
/// names, already sorted for rendering. A new message kind is added in
/// three places: here, the encode/decode arms and `tag()`; its label
/// reaches `kind()` through [`LABELS_BY_TAG`]. The tests below
/// hold the registry to the code that runs:
/// `wire_tag_registry_complete_and_unique` encodes a sample of every
/// variant, and the test module's exhaustive-match witness stops
/// compiling until a new variant is sampled, so a forgotten registration
/// fails `cargo test` instead of surfacing as a protocol drift.
pub const KINDS: [(&str, u8); 22] = [
    ("advertisement", TAG_ADVERTISEMENT),
    ("bdn-advertisement", TAG_BDN_ADVERTISEMENT),
    ("client-connect", TAG_CLIENT_CONNECT),
    ("client-connect-ack", TAG_CLIENT_CONNECT_ACK),
    ("client-disconnect", TAG_CLIENT_DISCONNECT),
    ("client-subscribe", TAG_CLIENT_SUBSCRIBE),
    ("client-unsubscribe", TAG_CLIENT_UNSUBSCRIBE),
    ("discovery-ack", TAG_DISCOVERY_ACK),
    ("discovery-request", TAG_DISCOVERY),
    ("discovery-response", TAG_RESPONSE),
    ("federation-sync", TAG_FEDERATION_SYNC),
    ("heartbeat", TAG_HEARTBEAT),
    ("link-accept", TAG_LINK_ACCEPT),
    ("link-close", TAG_LINK_CLOSE),
    ("link-hello", TAG_LINK_HELLO),
    ("ping", TAG_PING),
    ("pong", TAG_PONG),
    ("prune", TAG_PRUNE),
    ("publish", TAG_PUBLISH),
    ("secure", TAG_SECURE),
    ("subscribe", TAG_SUBSCRIBE),
    ("unsubscribe", TAG_UNSUBSCRIBE),
];

/// One slot per wire tag up to the highest in [`KINDS`].
const TAG_SLOTS: usize = {
    let (mut slots, mut i) = (0, 0);
    while i < KINDS.len() {
        if KINDS[i].1 as usize >= slots {
            slots = KINDS[i].1 as usize + 1;
        }
        i += 1;
    }
    slots
};

/// [`KINDS`] indexed by tag (`""` where no kind has the tag): what
/// [`Message::kind`] reads, and the size of a tag-indexed tally.
pub const LABELS_BY_TAG: [&str; TAG_SLOTS] = {
    let (mut labels, mut i) = ([""; TAG_SLOTS], 0);
    while i < KINDS.len() {
        labels[KINDS[i].1 as usize] = KINDS[i].0;
        i += 1;
    }
    labels
};

impl Wire for Message {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Message::LinkHello { from, realm } => {
                w.put_u8(TAG_LINK_HELLO);
                from.encode(w);
                realm.encode(w);
            }
            Message::LinkAccept { from, realm } => {
                w.put_u8(TAG_LINK_ACCEPT);
                from.encode(w);
                realm.encode(w);
            }
            Message::LinkClose { from } => {
                w.put_u8(TAG_LINK_CLOSE);
                from.encode(w);
            }
            Message::Heartbeat { from, seq } => {
                w.put_u8(TAG_HEARTBEAT);
                from.encode(w);
                w.put_u64(*seq);
            }
            Message::Subscribe { filter, origin, seq } => {
                w.put_u8(TAG_SUBSCRIBE);
                filter.encode(w);
                origin.encode(w);
                w.put_u64(*seq);
            }
            Message::Unsubscribe { filter, origin, seq } => {
                w.put_u8(TAG_UNSUBSCRIBE);
                filter.encode(w);
                origin.encode(w);
                w.put_u64(*seq);
            }
            Message::Publish(ev) => {
                w.put_u8(TAG_PUBLISH);
                ev.encode(w);
            }
            Message::Prune { source, lease_ms } => {
                w.put_u8(TAG_PRUNE);
                source.encode(w);
                w.put_u32(*lease_ms);
            }
            Message::ClientConnect { client, reply_port } => {
                w.put_u8(TAG_CLIENT_CONNECT);
                client.encode(w);
                reply_port.encode(w);
            }
            Message::ClientConnectAck { broker, accepted } => {
                w.put_u8(TAG_CLIENT_CONNECT_ACK);
                broker.encode(w);
                w.put_bool(*accepted);
            }
            Message::ClientSubscribe { filter } => {
                w.put_u8(TAG_CLIENT_SUBSCRIBE);
                filter.encode(w);
            }
            Message::ClientUnsubscribe { filter } => {
                w.put_u8(TAG_CLIENT_UNSUBSCRIBE);
                filter.encode(w);
            }
            Message::ClientDisconnect { client } => {
                w.put_u8(TAG_CLIENT_DISCONNECT);
                client.encode(w);
            }
            Message::Advertisement(ad) => {
                w.put_u8(TAG_ADVERTISEMENT);
                ad.encode(w);
            }
            Message::BdnAdvertisement { bdn, endpoint, requires_credentials } => {
                w.put_u8(TAG_BDN_ADVERTISEMENT);
                bdn.encode(w);
                endpoint.encode(w);
                w.put_bool(*requires_credentials);
            }
            Message::Discovery(req) => {
                w.put_u8(TAG_DISCOVERY);
                req.encode(w);
            }
            Message::DiscoveryAck { request_id, bdn } => {
                w.put_u8(TAG_DISCOVERY_ACK);
                w.put_uuid(*request_id);
                bdn.encode(w);
            }
            Message::Response(resp) => {
                w.put_u8(TAG_RESPONSE);
                resp.encode(w);
            }
            Message::FederationSync(sync) => {
                w.put_u8(TAG_FEDERATION_SYNC);
                sync.encode(w);
            }
            Message::Ping { nonce, sent_at, reply_to } => {
                w.put_u8(TAG_PING);
                w.put_u64(*nonce);
                w.put_u64(*sent_at);
                reply_to.encode(w);
            }
            Message::Pong { nonce, echoed_sent_at, responder } => {
                w.put_u8(TAG_PONG);
                w.put_u64(*nonce);
                w.put_u64(*echoed_sent_at);
                responder.encode(w);
            }
            Message::Secure(env) => {
                w.put_u8(TAG_SECURE);
                env.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        if r.remaining() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(r.remaining()));
        }
        let tag = r.get_u8()?;
        Ok(match tag {
            TAG_LINK_HELLO => {
                Message::LinkHello { from: NodeId::decode(r)?, realm: RealmId::decode(r)? }
            }
            TAG_LINK_ACCEPT => {
                Message::LinkAccept { from: NodeId::decode(r)?, realm: RealmId::decode(r)? }
            }
            TAG_LINK_CLOSE => Message::LinkClose { from: NodeId::decode(r)? },
            TAG_HEARTBEAT => Message::Heartbeat { from: NodeId::decode(r)?, seq: r.get_u64()? },
            TAG_SUBSCRIBE => Message::Subscribe {
                filter: TopicFilter::decode(r)?,
                origin: NodeId::decode(r)?,
                seq: r.get_u64()?,
            },
            TAG_UNSUBSCRIBE => Message::Unsubscribe {
                filter: TopicFilter::decode(r)?,
                origin: NodeId::decode(r)?,
                seq: r.get_u64()?,
            },
            TAG_PUBLISH => Message::Publish(Event::decode(r)?),
            TAG_PRUNE => Message::Prune { source: NodeId::decode(r)?, lease_ms: r.get_u32()? },
            TAG_CLIENT_CONNECT => Message::ClientConnect {
                client: NodeId::decode(r)?,
                reply_port: Port::decode(r)?,
            },
            TAG_CLIENT_CONNECT_ACK => Message::ClientConnectAck {
                broker: NodeId::decode(r)?,
                accepted: r.get_bool()?,
            },
            TAG_CLIENT_SUBSCRIBE => Message::ClientSubscribe { filter: TopicFilter::decode(r)? },
            TAG_CLIENT_UNSUBSCRIBE => {
                Message::ClientUnsubscribe { filter: TopicFilter::decode(r)? }
            }
            TAG_CLIENT_DISCONNECT => Message::ClientDisconnect { client: NodeId::decode(r)? },
            TAG_ADVERTISEMENT => Message::Advertisement(BrokerAdvertisement::decode(r)?),
            TAG_BDN_ADVERTISEMENT => Message::BdnAdvertisement {
                bdn: NodeId::decode(r)?,
                endpoint: Endpoint::decode(r)?,
                requires_credentials: r.get_bool()?,
            },
            TAG_DISCOVERY => Message::Discovery(DiscoveryRequest::decode(r)?),
            TAG_DISCOVERY_ACK => {
                Message::DiscoveryAck { request_id: r.get_uuid()?, bdn: NodeId::decode(r)? }
            }
            TAG_RESPONSE => Message::Response(DiscoveryResponse::decode(r)?),
            TAG_FEDERATION_SYNC => Message::FederationSync(FederationSync::decode(r)?),
            TAG_PING => Message::Ping {
                nonce: r.get_u64()?,
                sent_at: r.get_u64()?,
                reply_to: Endpoint::decode(r)?,
            },
            TAG_PONG => Message::Pong {
                nonce: r.get_u64()?,
                echoed_sent_at: r.get_u64()?,
                responder: NodeId::decode(r)?,
            },
            TAG_SECURE => Message::Secure(SecureEnvelope::decode(r)?),
            other => return Err(WireError::InvalidTag { context: "Message", tag: other }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> UsageMetrics {
        UsageMetrics {
            active_connections: 12,
            num_links: 3,
            cpu_load_permille: 250,
            total_memory: 512 * 1024 * 1024,
            used_memory: 128 * 1024 * 1024,
        }
    }

    fn sample_ad() -> BrokerAdvertisement {
        BrokerAdvertisement {
            broker: NodeId(5),
            hostname: "complexity.ucs.indiana.edu".into(),
            logical_address: "nb://cluster-1/broker-5".into(),
            realm: RealmId(1),
            transports: vec![
                TransportEndpoint { kind: TransportKind::Tcp, port: Port(5045) },
                TransportEndpoint { kind: TransportKind::Udp, port: Port(5061) },
            ],
            geography: Some("Indianapolis, IN, USA".into()),
            institution: Some("Indiana University".into()),
            issued_at_utc: 1_234_567,
        }
    }

    fn sample_request() -> DiscoveryRequest {
        DiscoveryRequest {
            request_id: Uuid::from_u128(77),
            requester: NodeId(9),
            hostname: "client.bloomington.in".into(),
            realm: RealmId(1),
            reply_to: Endpoint::new(NodeId(9), Port(5060)),
            transports: vec![TransportEndpoint { kind: TransportKind::Udp, port: Port(5060) }],
            credentials: Some(Credential { principal: "alice".into(), token: vec![1, 2, 3] }),
            issued_at_utc: 42,
        }
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::LinkHello { from: NodeId(1), realm: RealmId(0) },
            Message::LinkAccept { from: NodeId(2), realm: RealmId(0) },
            Message::LinkClose { from: NodeId(3) },
            Message::Heartbeat { from: NodeId(1), seq: 99 },
            Message::Subscribe {
                filter: TopicFilter::parse("a/*/c").unwrap(),
                origin: NodeId(4),
                seq: 7,
            },
            Message::Unsubscribe {
                filter: TopicFilter::parse("a/**").unwrap(),
                origin: NodeId(4),
                seq: 8,
            },
            Message::Publish(Event {
                id: Uuid::from_u128(1),
                topic: Topic::parse("sports/scores").unwrap(),
                source: NodeId(6),
                payload: Bytes::from_static(b"3-1"),
            }),
            Message::Prune { source: NodeId(6), lease_ms: 6_000 },
            Message::ClientConnect { client: NodeId(9), reply_port: Port(4000) },
            Message::ClientConnectAck { broker: NodeId(5), accepted: true },
            Message::ClientSubscribe { filter: TopicFilter::parse("x/y").unwrap() },
            Message::ClientUnsubscribe { filter: TopicFilter::parse("x/y").unwrap() },
            Message::ClientDisconnect { client: NodeId(9) },
            Message::Advertisement(sample_ad()),
            Message::BdnAdvertisement {
                bdn: NodeId(100),
                endpoint: Endpoint::new(NodeId(100), Port(5050)),
                requires_credentials: true,
            },
            Message::Discovery(sample_request()),
            Message::DiscoveryAck { request_id: Uuid::from_u128(77), bdn: NodeId(100) },
            Message::Response(DiscoveryResponse {
                request_id: Uuid::from_u128(77),
                broker: NodeId(5),
                hostname: "webis.msi.umn.edu".into(),
                realm: RealmId(2),
                transports: vec![TransportEndpoint {
                    kind: TransportKind::Tcp,
                    port: Port(5045),
                }],
                issued_at_utc: 1_000_000,
                metrics: sample_metrics(),
            }),
            Message::FederationSync(FederationSync {
                from: NodeId(100),
                phase: SyncPhase::Push,
                digest: 0xDEAD_BEEF_CAFE_F00D,
                leases: vec![LeaseRecord { ad: sample_ad(), expires_at_us: 31_234_567 }],
                tombstones: vec![TombstoneRecord { broker: NodeId(6), lease_issued_utc: 900 }],
            }),
            Message::Ping {
                nonce: 5,
                sent_at: 123,
                reply_to: Endpoint::new(NodeId(9), Port(5061)),
            },
            Message::Pong { nonce: 5, echoed_sent_at: 123, responder: NodeId(5) },
            Message::Secure(SecureEnvelope {
                sender: "alice".into(),
                cert_chain: vec![vec![1, 2].into(), vec![3].into()],
                ciphertext: vec![9; 64].into(),
                signature: vec![7; 32].into(),
            }),
        ]
    }

    /// `Message`'s variant count, as numbered by [`mark_variant`].
    const VARIANTS: usize = 22;

    /// The witness: one arm per `Message` variant and no `_` arm, so a
    /// new variant does not compile until it is numbered here, and a
    /// number past `VARIANTS` is a constant out-of-bounds index, which
    /// does not compile either. `all_messages_sample_every_variant_once`
    /// then fails until `all_messages()` samples it.
    fn mark_variant(seen: &mut [bool; VARIANTS], msg: &Message) {
        match msg {
            Message::LinkHello { .. } => seen[0] = true,
            Message::LinkAccept { .. } => seen[1] = true,
            Message::LinkClose { .. } => seen[2] = true,
            Message::Heartbeat { .. } => seen[3] = true,
            Message::Subscribe { .. } => seen[4] = true,
            Message::Unsubscribe { .. } => seen[5] = true,
            Message::Publish(_) => seen[6] = true,
            Message::Prune { .. } => seen[7] = true,
            Message::ClientConnect { .. } => seen[8] = true,
            Message::ClientConnectAck { .. } => seen[9] = true,
            Message::ClientSubscribe { .. } => seen[10] = true,
            Message::ClientUnsubscribe { .. } => seen[11] = true,
            Message::ClientDisconnect { .. } => seen[12] = true,
            Message::Advertisement(_) => seen[13] = true,
            Message::BdnAdvertisement { .. } => seen[14] = true,
            Message::Discovery(_) => seen[15] = true,
            Message::DiscoveryAck { .. } => seen[16] = true,
            Message::Response(_) => seen[17] = true,
            Message::FederationSync(_) => seen[18] = true,
            Message::Ping { .. } => seen[19] = true,
            Message::Pong { .. } => seen[20] = true,
            Message::Secure(_) => seen[21] = true,
        }
    }

    #[test]
    fn all_messages_sample_every_variant_once() {
        let msgs = all_messages();
        let mut seen = [false; VARIANTS];
        for msg in &msgs {
            mark_variant(&mut seen, msg);
        }
        let missing: Vec<usize> = (0..VARIANTS).filter(|&i| !seen[i]).collect();
        assert!(missing.is_empty(), "all_messages() samples no variant numbered {missing:?}");
        assert_eq!(msgs.len(), VARIANTS, "all_messages() samples some variant twice");
        assert_eq!(KINDS.len(), VARIANTS, "KINDS names every variant");
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in all_messages() {
            let bytes = msg.to_bytes();
            let back = Message::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("decode {} failed: {e}", msg.kind()));
            assert_eq!(back, msg, "{}", msg.kind());
        }
    }

    #[test]
    fn wire_tag_registry_complete_and_unique() {
        use std::collections::BTreeSet;
        // Every tag in KINDS is unique.
        let registry: BTreeSet<u8> = KINDS.iter().map(|&(_, tag)| tag).collect();
        assert_eq!(registry.len(), KINDS.len(), "duplicate tag value in KINDS");

        // Every variant encodes the tag `tag()` reports, that tag is
        // registered, and — via `covered == registry` — every
        // registered tag is exercised by a sample message, so the
        // registry and `all_messages()` can't silently go stale.
        let msgs = all_messages();
        let mut covered = BTreeSet::new();
        for msg in &msgs {
            let bytes = msg.to_bytes();
            assert_eq!(
                bytes[0],
                msg.tag(),
                "{} encodes a different tag than tag() reports",
                msg.kind()
            );
            assert!(
                registry.contains(&bytes[0]),
                "{} tag {} missing from KINDS",
                msg.kind(),
                bytes[0]
            );
            assert!(covered.insert(bytes[0]), "{} reuses an already-seen tag", msg.kind());
        }
        assert_eq!(covered, registry, "KINDS lists tags no Message variant encodes");
    }

    #[test]
    fn kinds_are_distinct() {
        let msgs = all_messages();
        let kinds: std::collections::HashSet<_> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds.len(), msgs.len());
    }

    #[test]
    fn kinds_registry_is_sorted_and_agrees_with_kind_and_tag() {
        assert!(KINDS.windows(2).all(|w| w[0].0 < w[1].0), "KINDS is in strict label order");
        let msgs = all_messages();
        assert_eq!(KINDS.len(), msgs.len());
        for msg in &msgs {
            assert!(KINDS.contains(&(msg.kind(), msg.tag())), "{} missing from KINDS", msg.kind());
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // 20, 21 and 23–25 are retired kinds; 200 was never assigned.
        for tag in [20u8, 21, 23, 24, 25, 200] {
            assert!(KINDS.iter().all(|&(_, t)| t != tag), "tag {tag} is registered");
            assert!(
                matches!(
                    Message::from_bytes(&[tag]),
                    Err(WireError::InvalidTag { context: "Message", tag: t }) if t == tag
                ),
                "tag {tag} decoded"
            );
            let framed = Bytes::from(vec![crate::frame::DEFAULT_TTL, 0, 0, 0, tag]);
            assert!(crate::WireMsg::from_frame(framed).is_err(), "framed tag {tag} decoded");
        }
    }

    #[test]
    fn invalid_sync_phase_byte_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u8(9); // no SyncPhase encodes as 9
        let bytes = w.finish();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            SyncPhase::decode(&mut r),
            Err(WireError::InvalidTag { context: "SyncPhase", tag: 9 })
        ));
    }

    #[test]
    fn truncation_anywhere_fails_cleanly() {
        for msg in all_messages() {
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Message::from_bytes(&bytes[..cut]).is_err(),
                    "truncated {} at {cut} decoded successfully",
                    msg.kind()
                );
            }
        }
    }

    #[test]
    fn tag_matches_first_encoded_byte() {
        for msg in all_messages() {
            assert_eq!(msg.tag(), msg.to_bytes()[0], "{}", msg.kind());
        }
    }

    #[test]
    fn oversized_message_rejected_at_boundary() {
        // One byte over the cap: rejected before any field parsing.
        let over = vec![0u8; MAX_MESSAGE_LEN + 1];
        assert!(matches!(
            Message::from_bytes(&over),
            Err(WireError::MessageTooLong(n)) if n == MAX_MESSAGE_LEN + 1
        ));
        // Exactly at the cap: the size gate passes and decoding proceeds
        // far enough to reject the bogus tag instead.
        let mut at = vec![0u8; MAX_MESSAGE_LEN];
        at[0] = 200;
        assert!(matches!(
            Message::from_bytes(&at),
            Err(WireError::InvalidTag { context: "Message", tag: 200 })
        ));
    }

    #[test]
    fn nested_fields_cannot_multiply_past_message_cap() {
        // Each cert element stays under MAX_FIELD_LEN, but the envelope
        // total exceeds MAX_MESSAGE_LEN — the per-message cap catches it.
        let chunk: Bytes = vec![0xAB; 8 * 1024 * 1024].into();
        let env = SecureEnvelope {
            sender: "mallory".into(),
            cert_chain: vec![chunk; 9], // 72 MiB total
            ciphertext: Bytes::new(),
            signature: Bytes::new(),
        };
        let bytes = Message::Secure(env).to_bytes();
        assert!(bytes.len() > MAX_MESSAGE_LEN);
        assert!(matches!(
            Message::from_bytes(&bytes),
            Err(WireError::MessageTooLong(_))
        ));
    }

    #[test]
    fn metrics_derived_quantities() {
        let m = sample_metrics();
        assert!((m.free_memory_ratio() - 0.75).abs() < 1e-12);
        assert!((m.cpu_load() - 0.25).abs() < 1e-12);
        let zero = UsageMetrics {
            active_connections: 0,
            num_links: 0,
            cpu_load_permille: 2000, // out of range, clamped
            total_memory: 0,
            used_memory: 10,
        };
        assert_eq!(zero.free_memory_ratio(), 0.0);
        assert_eq!(zero.cpu_load(), 1.0);
    }

    #[test]
    fn port_lookup_helpers() {
        let ad = sample_ad();
        assert_eq!(ad.port_for(TransportKind::Tcp), Some(Port(5045)));
        assert_eq!(ad.port_for(TransportKind::Multicast), None);
    }
}
