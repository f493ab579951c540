//! X.509-style certificates and chain validation.
//!
//! Figure 13 of the paper measures "the time required to verify a
//! client's identity" by validating an X.509 certificate. This module
//! provides the equivalent workload: certificates binding a subject name
//! to a public key, signed by an issuer, validated by walking the chain
//! to a trusted root with signature verification and validity-window
//! checks at every hop.

use std::fmt;

use rand::Rng;

use nb_wire::{WireError, WireReader, WireWriter};

use crate::keys::{KeyPair, PublicKey};
use crate::sig::{sign, verify, Signature};

/// Errors from certificate validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The chain was empty.
    EmptyChain,
    /// A signature failed to verify.
    BadSignature { subject: String },
    /// A certificate was outside its validity window.
    Expired { subject: String },
    /// Adjacent chain entries disagree (issuer name mismatch).
    BrokenChain { subject: String, expected_issuer: String },
    /// The chain did not terminate at the given trust root.
    UntrustedRoot { issuer: String },
    /// A certificate failed to decode.
    Malformed,
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::EmptyChain => f.write_str("empty certificate chain"),
            CertificateError::BadSignature { subject } => {
                write!(f, "bad signature on certificate for {subject}")
            }
            CertificateError::Expired { subject } => {
                write!(f, "certificate for {subject} outside validity window")
            }
            CertificateError::BrokenChain { subject, expected_issuer } => {
                write!(f, "chain broken at {subject}: expected issuer {expected_issuer}")
            }
            CertificateError::UntrustedRoot { issuer } => {
                write!(f, "chain terminates at untrusted issuer {issuer}")
            }
            CertificateError::Malformed => f.write_str("malformed certificate encoding"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// A certificate binding `subject` to `subject_key`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The principal this certificate identifies.
    pub subject: String,
    /// The principal that signed it.
    pub issuer: String,
    /// The subject's public key.
    pub subject_key: PublicKey,
    /// Validity window start (µs since the Unix epoch).
    pub valid_from: u64,
    /// Validity window end (µs since the Unix epoch).
    pub valid_until: u64,
    /// Issuer's Schnorr signature over the TBS (to-be-signed) bytes.
    pub signature: Signature,
}

impl Certificate {
    /// The bytes covered by the signature.
    fn tbs_bytes(
        subject: &str,
        issuer: &str,
        subject_key: PublicKey,
        valid_from: u64,
        valid_until: u64,
    ) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_str(subject);
        w.put_str(issuer);
        w.put_u64(subject_key.0);
        w.put_u64(valid_from);
        w.put_u64(valid_until);
        w.finish().to_vec()
    }

    /// Verifies this certificate's signature against `issuer_key`.
    pub fn verify_signature(&self, issuer_key: PublicKey) -> bool {
        let tbs = Self::tbs_bytes(
            &self.subject,
            &self.issuer,
            self.subject_key,
            self.valid_from,
            self.valid_until,
        );
        verify(issuer_key, &tbs, &self.signature)
    }

    /// Whether `now_utc_micros` falls inside the validity window.
    fn is_valid_at(&self, now_utc_micros: u64) -> bool {
        (self.valid_from..=self.valid_until).contains(&now_utc_micros)
    }

    /// Encodes to bytes (wire transport inside [`nb_wire::message::SecureEnvelope`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_str(&self.subject);
        w.put_str(&self.issuer);
        w.put_u64(self.subject_key.0);
        w.put_u64(self.valid_from);
        w.put_u64(self.valid_until);
        w.put_bytes(&self.signature.to_bytes());
        w.finish().to_vec()
    }

    /// Decodes the [`Certificate::encode`] form.
    pub fn decode(bytes: &[u8]) -> Result<Certificate, CertificateError> {
        fn inner(bytes: &[u8]) -> Result<Certificate, WireError> {
            let mut r = WireReader::new(bytes);
            let subject = r.get_str()?;
            let issuer = r.get_str()?;
            let subject_key = PublicKey(r.get_u64()?);
            let valid_from = r.get_u64()?;
            let valid_until = r.get_u64()?;
            let sig_bytes = r.get_bytes()?;
            r.expect_end()?;
            let signature =
                Signature::from_bytes(&sig_bytes).ok_or(WireError::Invalid("signature"))?;
            Ok(Certificate { subject, issuer, subject_key, valid_from, valid_until, signature })
        }
        inner(bytes).map_err(|_| CertificateError::Malformed)
    }

    /// Validates a chain (leaf first) against `root`: every signature
    /// verifies, every certificate is in-window at `now_utc_micros`,
    /// adjacent issuers/subjects agree, and the last certificate was
    /// issued by `root`.
    pub fn validate_chain(
        chain: &[Certificate],
        root: &Certificate,
        now_utc_micros: u64,
    ) -> Result<(), CertificateError> {
        if chain.is_empty() {
            return Err(CertificateError::EmptyChain);
        }
        for (i, cert) in chain.iter().enumerate() {
            if !cert.is_valid_at(now_utc_micros) {
                return Err(CertificateError::Expired { subject: cert.subject.clone() });
            }
            let issuer_key = if let Some(parent) = chain.get(i + 1) {
                if parent.subject != cert.issuer {
                    return Err(CertificateError::BrokenChain {
                        subject: cert.subject.clone(),
                        expected_issuer: cert.issuer.clone(),
                    });
                }
                parent.subject_key
            } else {
                // Chain must terminate at the trust root.
                if cert.issuer != root.subject {
                    return Err(CertificateError::UntrustedRoot { issuer: cert.issuer.clone() });
                }
                root.subject_key
            };
            if !cert.verify_signature(issuer_key) {
                return Err(CertificateError::BadSignature { subject: cert.subject.clone() });
            }
        }
        if !root.is_valid_at(now_utc_micros) {
            return Err(CertificateError::Expired { subject: root.subject.clone() });
        }
        Ok(())
    }
}

/// A certificate authority: a named key pair that issues certificates.
#[derive(Debug, Clone)]
pub struct Authority {
    /// CA name (becomes the issuer field).
    pub name: String,
    /// The CA key pair.
    pub keys: KeyPair,
    /// The CA's self-signed certificate (the trust root).
    pub root_cert: Certificate,
}

impl Authority {
    /// Creates a root CA with a self-signed certificate valid over
    /// `[valid_from, valid_until]` (µs since the Unix epoch).
    pub fn new_root<R: Rng + ?Sized>(
        name: &str,
        valid_from: u64,
        valid_until: u64,
        rng: &mut R,
    ) -> Authority {
        let keys = KeyPair::generate(rng);
        let tbs = Certificate::tbs_bytes(name, name, keys.public, valid_from, valid_until);
        let signature = sign(&keys, &tbs, rng);
        let root_cert = Certificate {
            subject: name.to_string(),
            issuer: name.to_string(),
            subject_key: keys.public,
            valid_from,
            valid_until,
            signature,
        };
        Authority { name: name.to_string(), keys, root_cert }
    }

    /// Issues a certificate for `subject` holding `subject_key`.
    pub fn issue<R: Rng + ?Sized>(
        &self,
        subject: &str,
        subject_key: PublicKey,
        valid_from: u64,
        valid_until: u64,
        rng: &mut R,
    ) -> Certificate {
        let tbs = Certificate::tbs_bytes(subject, &self.name, subject_key, valid_from, valid_until);
        let signature = sign(&self.keys, &tbs, rng);
        Certificate {
            subject: subject.to_string(),
            issuer: self.name.clone(),
            subject_key,
            valid_from,
            valid_until,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FROM: u64 = 1_000;
    const UNTIL: u64 = 1_000_000_000;
    const NOW: u64 = 500_000;

    fn setup() -> (Authority, KeyPair, Certificate, StdRng) {
        let mut rng = StdRng::seed_from_u64(77);
        let ca = Authority::new_root("GridServiceLocator Root CA", FROM, UNTIL, &mut rng);
        let client_keys = KeyPair::generate(&mut rng);
        let cert = ca.issue("alice", client_keys.public, FROM, UNTIL, &mut rng);
        (ca, client_keys, cert, rng)
    }

    /// A subordinate CA named `name` whose certificate `ca` issues.
    fn issue_sub_authority(
        ca: &Authority,
        name: &str,
        rng: &mut StdRng,
    ) -> (Authority, Certificate) {
        let keys = KeyPair::generate(rng);
        let cert = ca.issue(name, keys.public, FROM, UNTIL, rng);
        let sub = Authority { name: name.to_string(), keys, root_cert: cert.clone() };
        (sub, cert)
    }

    #[test]
    fn direct_chain_validates() {
        let (ca, _keys, cert, _) = setup();
        Certificate::validate_chain(&[cert], &ca.root_cert, NOW).unwrap();
    }

    #[test]
    fn intermediate_chain_validates() {
        let (ca, _keys, _cert, mut rng) = setup();
        let (sub, sub_cert) = issue_sub_authority(&ca, "Regional CA", &mut rng);
        let leaf_keys = KeyPair::generate(&mut rng);
        let leaf = sub.issue("bob", leaf_keys.public, FROM, UNTIL, &mut rng);
        Certificate::validate_chain(&[leaf, sub_cert], &ca.root_cert, NOW).unwrap();
    }

    #[test]
    fn expired_certificate_rejected() {
        let (ca, _keys, cert, _) = setup();
        let err = Certificate::validate_chain(&[cert], &ca.root_cert, UNTIL + 1).unwrap_err();
        assert!(matches!(err, CertificateError::Expired { .. }));
        let (ca2, _k, cert2, _) = setup();
        let err = Certificate::validate_chain(&[cert2], &ca2.root_cert, FROM - 1).unwrap_err();
        assert!(matches!(err, CertificateError::Expired { .. }));
    }

    #[test]
    fn forged_certificate_rejected() {
        let (ca, _keys, mut cert, _) = setup();
        cert.subject = "mallory".into(); // changes TBS bytes
        let err = Certificate::validate_chain(&[cert], &ca.root_cert, NOW).unwrap_err();
        assert!(matches!(err, CertificateError::BadSignature { .. }));
    }

    #[test]
    fn wrong_root_rejected() {
        let (_ca, _keys, cert, mut rng) = setup();
        let other = Authority::new_root("Evil CA", FROM, UNTIL, &mut rng);
        let err = Certificate::validate_chain(&[cert], &other.root_cert, NOW).unwrap_err();
        // alice's issuer string matches neither Evil CA's subject…
        assert!(matches!(err, CertificateError::UntrustedRoot { .. }));
        // …and a name-colliding root with a different key fails on the
        // signature.
        let fake =
            Authority::new_root("GridServiceLocator Root CA", FROM, UNTIL, &mut rng);
        let (_, _, cert2, _) = setup();
        let err = Certificate::validate_chain(&[cert2], &fake.root_cert, NOW).unwrap_err();
        assert!(matches!(err, CertificateError::BadSignature { .. }));
    }

    #[test]
    fn broken_chain_rejected() {
        let (ca, _keys, cert, mut rng) = setup();
        let unrelated = Authority::new_root("Unrelated", FROM, UNTIL, &mut rng);
        let err =
            Certificate::validate_chain(&[cert, unrelated.root_cert.clone()], &ca.root_cert, NOW)
                .unwrap_err();
        assert!(matches!(err, CertificateError::BrokenChain { .. }));
    }

    #[test]
    fn empty_chain_rejected() {
        let (ca, ..) = setup();
        assert_eq!(
            Certificate::validate_chain(&[], &ca.root_cert, NOW),
            Err(CertificateError::EmptyChain)
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_ca, _keys, cert, _) = setup();
        let bytes = cert.encode();
        assert_eq!(Certificate::decode(&bytes).unwrap(), cert);
        assert_eq!(Certificate::decode(&bytes[..bytes.len() - 1]), Err(CertificateError::Malformed));
        assert_eq!(Certificate::decode(&[]), Err(CertificateError::Malformed));
    }
}
