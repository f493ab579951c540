//! Protocol-level identities.
//!
//! * [`NodeId`] — one process in the infrastructure (broker, BDN, client,
//!   time server),
//! * [`Port`] — a service port within a node (brokers listen for links,
//!   clients listen for UDP discovery responses, …),
//! * [`Endpoint`] — `(node, port)`, the unit of addressing,
//! * [`TransportKind`] — UDP / TCP / multicast, matching the paper's
//!   "transport protocols supported" advertisement field,
//! * [`RealmId`] — a network realm (administrative domain / lab network);
//!   multicast does not cross realm boundaries and response policies can
//!   be realm-scoped,
//! * [`GroupId`] — a multicast group.

use crate::codec::{Wire, WireError, WireReader, WireWriter};
use std::fmt;

/// Identifies one node (process) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A service port within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u16);

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, ":{}", self.0)
    }
}

/// Well-known ports, mirroring the fixed service ports a NaradaBrokering
/// deployment would configure.
pub mod well_known {
    use super::Port;

    /// Broker link/client TCP service.
    pub const BROKER: Port = Port(5045);
    /// BDN discovery service.
    pub const BDN: Port = Port(5050);
    /// UDP discovery responses arrive here at the requesting node.
    pub const DISCOVERY_REPLY: Port = Port(5060);
    /// UDP ping service (brokers answer, clients measure RTT).
    pub const PING: Port = Port(5061);
    /// Multicast discovery listener.
    pub const MULTICAST_DISCOVERY: Port = Port(5070);
}

/// `(node, port)` address of a service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    pub node: NodeId,
    pub port: Port,
}

impl Endpoint {
    pub const fn new(node: NodeId, port: Port) -> Endpoint {
        Endpoint { node, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.node, self.port)
    }
}

/// Transport protocols a node can speak (paper §2.2: advertisements list
/// "transport protocols supported and communication ports").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Connectionless, lossy, unordered datagrams.
    Udp,
    /// Reliable, ordered, connection-oriented streams.
    Tcp,
    /// Realm-scoped group datagrams.
    Multicast,
}

impl TransportKind {
    const ALL: [TransportKind; 3] =
        [TransportKind::Udp, TransportKind::Tcp, TransportKind::Multicast];

    fn tag(self) -> u8 {
        match self {
            TransportKind::Udp => 0,
            TransportKind::Tcp => 1,
            TransportKind::Multicast => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<TransportKind> {
        Self::ALL.into_iter().find(|t| t.tag() == tag)
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Udp => "udp",
            TransportKind::Tcp => "tcp",
            TransportKind::Multicast => "mcast",
        })
    }
}

/// A network realm: an administrative network boundary. Multicast traffic
/// never leaves a realm, and broker response policies may be limited to
/// "requests that originate within specific network realms" (paper §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RealmId(pub u16);

impl fmt::Display for RealmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "realm{}", self.0)
    }
}

/// A multicast group identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The well-known multicast group for BDN-less discovery (paper §7).
pub const DISCOVERY_GROUP: GroupId = GroupId(1);

impl Wire for NodeId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(r.get_u32()?))
    }
}

impl Wire for Port {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Port(r.get_u16()?))
    }
}

impl Wire for Endpoint {
    fn encode(&self, w: &mut WireWriter) {
        self.node.encode(w);
        self.port.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Endpoint { node: NodeId::decode(r)?, port: Port::decode(r)? })
    }
}

impl Wire for TransportKind {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u8(self.tag());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        TransportKind::from_tag(tag)
            .ok_or(WireError::InvalidTag { context: "TransportKind", tag })
    }
}

impl Wire for RealmId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RealmId(r.get_u16()?))
    }
}

impl Wire for GroupId {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(GroupId(r.get_u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_roundtrip() {
        let e = Endpoint::new(NodeId(42), Port(5045));
        assert_eq!(Endpoint::from_bytes(&e.to_bytes()).unwrap(), e);
        assert_eq!(e.to_string(), "n42:5045");
    }

    #[test]
    fn transport_kind_roundtrip_all() {
        for t in TransportKind::ALL {
            assert_eq!(TransportKind::from_bytes(&t.to_bytes()).unwrap(), t);
        }
    }

    #[test]
    fn transport_kind_rejects_unknown_tag() {
        assert!(matches!(
            TransportKind::from_bytes(&[9]),
            Err(WireError::InvalidTag { context: "TransportKind", tag: 9 })
        ));
    }

    #[test]
    fn realm_and_group_roundtrip() {
        let r = RealmId(3);
        let g = GroupId(17);
        assert_eq!(RealmId::from_bytes(&r.to_bytes()).unwrap(), r);
        assert_eq!(GroupId::from_bytes(&g.to_bytes()).unwrap(), g);
    }

    #[test]
    fn displays_are_compact() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(RealmId(2).to_string(), "realm2");
        assert_eq!(GroupId(1).to_string(), "g1");
        assert_eq!(TransportKind::Multicast.to_string(), "mcast");
    }
}
