//! FNV-1a-64, the one hash every digest in the workspace folds with:
//! the engines' run digests, a generated topology's identity, a fault
//! plan's digest and the campaign reports' pins.

/// The FNV-1a-64 offset basis: the hash of no input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a-64 step per byte of `bytes`, continuing from `hash`
/// ([`FNV_OFFSET`] to start).
pub fn fnv1a64_step(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| fnv1a64_word(h, u64::from(b)))
}

/// One FNV-1a-64 step over a whole word: `word` is XORed in at once,
/// not byte by byte, so this is not [`fnv1a64_step`] over its bytes.
/// The engine and topology digests fold their fields with it.
pub fn fnv1a64_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        assert_eq!(fnv1a64_step(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a64_step(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_word(FNV_OFFSET, 1), 0xaf63_bc4c_8601_b62c);
        assert_eq!(
            fnv1a64_step(fnv1a64_step(FNV_OFFSET, b"fo"), b"o"),
            fnv1a64_step(FNV_OFFSET, b"foo"),
            "a step continues from where the last one stopped"
        );
    }
}
