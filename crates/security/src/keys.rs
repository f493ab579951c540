//! The Schnorr group, key pairs and Diffie–Hellman agreement.
//!
//! All arithmetic happens in the order-`q` subgroup of `Z_p*` for the
//! 62-bit safe prime `p = 2q + 1` below. 62 bits keep every product
//! inside `u128` without a bignum library; see the crate-level
//! substitution note about security strength.

use rand::Rng;

/// The safe prime modulus (`p = 2q + 1`).
pub const P: u64 = 4_611_686_018_427_377_339; // 0x3FFFFFFFFFFFD6BB
/// The subgroup order (`q` prime).
pub const Q: u64 = 2_305_843_009_213_688_669; // 0x1FFFFFFFFFFFEB5D
/// A generator of the order-`q` subgroup (`g = 2² mod p`).
pub const G: u64 = 4;

/// Multiplies modulo `P` without overflow.
#[inline]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

/// Computes `base^exp mod m` by square-and-multiply.
pub fn modpow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc: u64 = 1 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod(acc, base, m);
        }
        base = mulmod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// A public key: `g^x mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub u64);

/// A private/public key pair in the Schnorr group.
#[derive(Debug, Clone, Copy)]
pub struct KeyPair {
    /// The secret scalar `x ∈ [1, q)`.
    pub private: u64,
    /// `g^x mod p`.
    pub public: PublicKey,
}

impl KeyPair {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> KeyPair {
        let x = rng.gen_range(1..Q);
        KeyPair::from_private(x)
    }

    /// Derives the pair from a given secret scalar.
    pub fn from_private(x: u64) -> KeyPair {
        let x = x % Q;
        let x = if x == 0 { 1 } else { x };
        KeyPair { private: x, public: PublicKey(modpow(G, x, P)) }
    }

    /// Diffie–Hellman: the shared group element `peer^x mod p`, hashed by
    /// callers into a symmetric key.
    fn agree(&self, peer: PublicKey) -> u64 {
        modpow(peer.0, self.private, P)
    }

    /// Derives a 128-bit symmetric key from a DH agreement with `peer`.
    pub fn session_key(&self, peer: PublicKey) -> [u8; 16] {
        let shared = self.agree(peer);
        let digest = crate::sha256::sha256(&shared.to_be_bytes());
        digest[..16].try_into().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn group_parameters_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        // g generates the order-q subgroup: g^q = 1, g != 1.
        assert_eq!(modpow(G, Q, P), 1);
        assert_ne!(modpow(G, 1, P), 1);
    }

    #[test]
    fn modpow_basics() {
        assert_eq!(modpow(2, 10, 1_000_000), 1024);
        assert_eq!(modpow(5, 0, 7), 1);
        assert_eq!(modpow(0, 5, 7), 0);
        // Fermat: a^(p-1) = 1 mod p for prime p.
        assert_eq!(modpow(123_456_789, P - 1, P), 1);
    }

    #[test]
    fn mulmod_never_overflows() {
        let near = P - 1;
        // (p-1)^2 mod p = 1
        assert_eq!(mulmod(near, near, P), 1);
    }

    #[test]
    fn dh_agreement_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = KeyPair::generate(&mut rng);
            let b = KeyPair::generate(&mut rng);
            assert_eq!(a.agree(b.public), b.agree(a.public));
            assert_eq!(a.session_key(b.public), b.session_key(a.public));
        }
    }

    #[test]
    fn distinct_pairs_distinct_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let c = KeyPair::generate(&mut rng);
        assert_ne!(a.public, b.public);
        assert_ne!(a.session_key(b.public), a.session_key(c.public));
    }

    #[test]
    fn from_private_is_deterministic_and_nonzero() {
        assert_eq!(KeyPair::from_private(5).public, KeyPair::from_private(5).public);
        // zero maps to a valid scalar
        assert_eq!(KeyPair::from_private(0).private, 1);
        assert_eq!(KeyPair::from_private(Q).private, 1);
    }
}
