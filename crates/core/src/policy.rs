//! Broker response policies.
//!
//! Paper §5: "A broker's response policy may predicate responses based on
//! the presentation of appropriate credentials. Furthermore the policy
//! may also dictate that responses be issued only if the request
//! originated from within a set of pre-defined network realms."

use nb_wire::{DiscoveryRequest, DiscoveryRequestView, RealmId};

/// Who a broker (or private BDN) answers.
#[derive(Debug, Clone, Default)]
pub struct ResponsePolicy {
    /// If set, requests must carry a credential whose principal appears
    /// in this list.
    pub allowed_principals: Option<Vec<String>>,
    /// If set, requests must carry a credential token equal to this
    /// value (shared-secret style check; the secured configuration uses
    /// `nb-security` envelopes instead).
    pub required_token: Option<Vec<u8>>,
    /// If set, requests must originate within one of these realms.
    pub allowed_realms: Option<Vec<RealmId>>,
}

impl ResponsePolicy {
    /// The open policy: answer everyone.
    pub fn open() -> ResponsePolicy {
        ResponsePolicy::default()
    }

    /// Restricts responses to the given realms.
    pub fn realms(realms: Vec<RealmId>) -> ResponsePolicy {
        ResponsePolicy { allowed_realms: Some(realms), ..ResponsePolicy::default() }
    }

    /// Requires a credential naming one of `principals`.
    pub fn principals(principals: Vec<String>) -> ResponsePolicy {
        ResponsePolicy { allowed_principals: Some(principals), ..ResponsePolicy::default() }
    }

    /// Whether this policy permits answering `request`.
    pub fn permits(&self, request: &DiscoveryRequest) -> bool {
        self.permits_view(&DiscoveryRequestView::of(request))
    }

    /// [`ResponsePolicy::permits`] on the borrowed fields of a request
    /// that was never decoded into an owned one.
    pub fn permits_view(&self, request: &DiscoveryRequestView<'_>) -> bool {
        if let Some(realms) = &self.allowed_realms {
            if !realms.contains(&request.realm) {
                return false;
            }
        }
        if let Some(principals) = &self.allowed_principals {
            match request.credentials {
                None => return false,
                Some((principal, _)) => {
                    if !principals.iter().any(|p| p == principal) {
                        return false;
                    }
                }
            }
        }
        if let Some(token) = &self.required_token {
            match request.credentials {
                None => return false,
                Some((_, presented)) => {
                    if presented != token.as_slice() {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nb_util::Uuid;
    use nb_wire::{Credential, Endpoint, NodeId, Port};

    fn request(realm: u16, cred: Option<Credential>) -> DiscoveryRequest {
        DiscoveryRequest {
            request_id: Uuid::from_u128(1),
            requester: NodeId(1),
            hostname: "h".into(),
            realm: RealmId(realm),
            reply_to: Endpoint::new(NodeId(1), Port(5060)),
            transports: vec![],
            credentials: cred,
            issued_at_utc: 0,
        }
    }

    fn cred(p: &str, token: &[u8]) -> Credential {
        Credential { principal: p.into(), token: token.to_vec() }
    }

    #[test]
    fn open_policy_permits_everything() {
        let p = ResponsePolicy::open();
        assert!(p.permits(&request(0, None)));
        assert!(p.permits(&request(9, Some(cred("x", b"t")))));
    }

    #[test]
    fn realm_restriction() {
        let p = ResponsePolicy::realms(vec![RealmId(1), RealmId(2)]);
        assert!(p.permits(&request(1, None)));
        assert!(p.permits(&request(2, None)));
        assert!(!p.permits(&request(3, None)));
    }

    #[test]
    fn principal_restriction() {
        let p = ResponsePolicy::principals(vec!["alice".into()]);
        assert!(p.permits(&request(0, Some(cred("alice", b"")))));
        assert!(!p.permits(&request(0, Some(cred("bob", b"")))));
        assert!(!p.permits(&request(0, None)), "missing credentials rejected");
    }

    #[test]
    fn token_restriction() {
        let p = ResponsePolicy {
            required_token: Some(b"secret".to_vec()),
            ..ResponsePolicy::default()
        };
        assert!(p.permits(&request(0, Some(cred("any", b"secret")))));
        assert!(!p.permits(&request(0, Some(cred("any", b"wrong")))));
        assert!(!p.permits(&request(0, None)));
    }

    #[test]
    fn combined_restrictions_all_apply() {
        let p = ResponsePolicy {
            allowed_principals: Some(vec!["alice".into()]),
            required_token: Some(b"s".to_vec()),
            allowed_realms: Some(vec![RealmId(1)]),
        };
        assert!(p.permits(&request(1, Some(cred("alice", b"s")))));
        assert!(!p.permits(&request(2, Some(cred("alice", b"s")))));
        assert!(!p.permits(&request(1, Some(cred("alice", b"x")))));
        assert!(!p.permits(&request(1, Some(cred("eve", b"s")))));
    }
}
