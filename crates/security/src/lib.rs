//! # nb-security
//!
//! The security substrate for the discovery scheme (paper §7/§9.1): the
//! paper measures the cost of validating an X.509 certificate (Figure 13)
//! and of signing + encrypting a discovery request and decrypting it
//! (Figure 14). This crate implements every primitive from scratch so
//! those costs are *real CPU work*, not stubs:
//!
//! * [`sha256`](mod@crate::sha256) — FIPS 180-4 SHA-256,
//! * [`cipher`] — the XTEA block cipher in CBC mode with PKCS#7 padding,
//! * [`keys`] — a Schnorr group over a 64-bit safe prime with modular
//!   exponentiation, key pairs and Diffie–Hellman agreement,
//! * [`sig`] — Schnorr signatures (hash via SHA-256),
//! * [`cert`] — X.509-style certificates and chain validation,
//! * [`envelope`] — sign-then-encrypt envelopes around wire messages
//!   ([`nb_wire::Message::Secure`]).
//!
//! There is no MAC: the paper secures a request by signing and then
//! encrypting it, which is what [`envelope`] does.
//!
//! **Substitution note** (documented in DESIGN.md): the paper used JCE
//! X.509/PKI on a 2005 JVM. A 64-bit Schnorr group is *not* secure by
//! modern standards — it is a simulation-grade stand-in whose code path
//! (hashing, modular exponentiation, block encryption, chain walking)
//! mirrors the real workload shape.

pub mod cert;
pub mod cipher;
pub mod envelope;
pub mod keys;
pub mod sha256;
pub mod sig;

pub use cert::{Authority, Certificate, CertificateError};
pub use cipher::{decrypt_cbc, encrypt_cbc, CipherError};
pub use envelope::{open_envelope, seal_envelope, EnvelopeError, Identity};
pub use keys::{KeyPair, PublicKey};
pub use sha256::{sha256, Sha256};
pub use sig::{sign, verify, Signature};
