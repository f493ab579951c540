//! Bounded duplicate-suppression cache.
//!
//! Paper §4: *"Every broker keeps track of the last 1000 (this number can
//! be configured through the broker configuration file) broker discovery
//! requests so that additional CPU/network cycles are not expended on
//! previously processed requests."*
//!
//! [`BoundedDedup`] remembers the most recent `capacity` distinct keys in
//! insertion order; when full, the oldest key is evicted. All operations
//! are O(1) expected.
//!
//! Every flood arrival, fresh or duplicate, probes one of these, so the
//! set hashes with a multiply-rotate fold instead of SipHash. The keys
//! are request and event UUIDs — 128 random bits minted by simulated
//! nodes — so there is no adversary to defend the buckets against, and
//! the set is never iterated (eviction order lives in the queue), so
//! nothing observable depends on the hash.

use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Word-at-a-time multiply-rotate hasher (the FxHash recurrence), for
/// keys no adversary picks, in a container nothing iterates into output.
/// The broker's match memo hashes its segment ids with it too.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FoldHasher::K);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    // UUID keys arrive as one `write_u128`; going through `write`'s
    // chunking instead doubles `util.dedup_insert_ns` (3.5 → 7 ns).
    fn write_u64(&mut self, word: u64) {
        self.fold(word);
    }

    fn write_u128(&mut self, word: u128) {
        self.fold(word as u64);
        self.fold((word >> 64) as u64);
    }

    // A `[SegId]` memo key hashes as its length and then one `u32` an id.
    fn write_u32(&mut self, word: u32) {
        self.fold(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.fold(word as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits on top; the table
        // indexes with the bottom ones.
        self.0.rotate_left(26)
    }
}

/// Remembers the last `capacity` distinct keys seen.
///
/// ```
/// use nb_util::BoundedDedup;
///
/// let mut seen = BoundedDedup::new(1000); // the paper's last-1000 cache
/// assert!(seen.check_and_insert("req-1"), "first sighting: process it");
/// assert!(!seen.check_and_insert("req-1"), "retransmission: suppress it");
/// ```
#[derive(Debug, Clone)]
pub struct BoundedDedup<K: Hash + Eq + Clone> {
    capacity: usize,
    seen: HashSet<K, BuildHasherDefault<FoldHasher>>,
    order: VecDeque<K>,
}

impl<K: Hash + Eq + Clone> BoundedDedup<K> {
    /// Creates a cache remembering at most `capacity` keys.
    ///
    /// A capacity of zero is allowed and makes every key "fresh"
    /// (no suppression), which is useful for disabling the cache.
    pub fn new(capacity: usize) -> Self {
        Self::with_expected(capacity, capacity.min(4096))
    }

    /// Creates a cache remembering at most `capacity` keys, pre-sized
    /// for an expected working set of `expected` keys. The scale-suite
    /// sizing knob: a light client (one entity among 1e5+) passes a
    /// small `expected` so it does not carry a full-capacity allocation
    /// it will never fill, while a hot broker passes `capacity` itself
    /// and never pays incremental rehash growth. Capacity semantics are
    /// unchanged — only the up-front allocation differs.
    pub fn with_expected(capacity: usize, expected: usize) -> Self {
        let pre = capacity.min(expected);
        BoundedDedup {
            capacity,
            seen: HashSet::with_capacity_and_hasher(pre, BuildHasherDefault::default()),
            order: VecDeque::with_capacity(pre),
        }
    }

    /// Records `key`; returns `true` if it was *not* already remembered
    /// (i.e. the caller should process it), `false` for a duplicate.
    pub fn check_and_insert(&mut self, key: K) -> bool {
        if self.capacity == 0 {
            return true;
        }
        if self.seen.contains(&key) {
            return false;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.seen.insert(key.clone());
        self.order.push_back(key);
        true
    }

    /// Whether `key` is currently remembered (no mutation).
    pub fn contains(&self, key: &K) -> bool {
        self.seen.contains(key)
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the cache currently remembers nothing.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.seen.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sight_is_fresh_second_is_duplicate() {
        let mut d = BoundedDedup::new(10);
        assert!(d.check_and_insert("a"));
        assert!(!d.check_and_insert("a"));
        assert!(d.check_and_insert("b"));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut d = BoundedDedup::new(3);
        for k in 0..3 {
            assert!(d.check_and_insert(k));
        }
        assert!(d.check_and_insert(3)); // evicts 0
        assert!(!d.contains(&0));
        assert!(d.contains(&1));
        assert!(d.check_and_insert(0)); // 0 is fresh again
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn with_expected_keeps_capacity_semantics() {
        let mut d = BoundedDedup::with_expected(3, 1);
        assert_eq!(d.capacity(), 3);
        for k in 0..3 {
            assert!(d.check_and_insert(k));
        }
        assert!(d.check_and_insert(3)); // evicts 0, exactly like new(3)
        assert!(!d.contains(&0));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn zero_capacity_never_suppresses() {
        let mut d = BoundedDedup::new(0);
        assert!(d.check_and_insert(1));
        assert!(d.check_and_insert(1));
        assert!(d.is_empty());
    }

    #[test]
    fn clear_forgets() {
        let mut d = BoundedDedup::new(4);
        d.check_and_insert(1);
        d.clear();
        assert!(d.is_empty());
        assert!(d.check_and_insert(1));
    }

    #[test]
    fn len_never_exceeds_capacity_under_churn() {
        let mut d = BoundedDedup::new(100);
        for k in 0..10_000u32 {
            d.check_and_insert(k % 173);
            assert!(d.len() <= 100);
        }
    }

    /// The hasher must not change what is remembered: against a
    /// linear-scan model of "the last N distinct keys", every answer
    /// agrees over a stream of 128-bit keys with clustered low and high
    /// words (sequential counters, the worst case for a multiply fold).
    #[test]
    fn agrees_with_a_linear_scan_model_on_128_bit_keys() {
        let mut d = BoundedDedup::new(64);
        let mut model: VecDeque<u128> = VecDeque::new();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..20_000u64 {
            // xorshift: a deterministic stream with frequent revisits.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = match step % 3 {
                0 => u128::from(x % 200),
                1 => u128::from(x % 200) << 64,
                _ => u128::from(x % 200) << 64 | u128::from(step % 7),
            };
            let fresh = !model.contains(&key);
            if fresh {
                if model.len() == 64 {
                    model.pop_front();
                }
                model.push_back(key);
            }
            assert_eq!(d.check_and_insert(key), fresh, "step {step}");
            assert_eq!(d.len(), model.len());
        }
    }

    #[test]
    fn set_and_queue_stay_consistent() {
        let mut d = BoundedDedup::new(5);
        for k in 0..50u32 {
            d.check_and_insert(k);
            assert_eq!(d.order.len(), d.seen.len());
            for key in &d.order {
                assert!(d.seen.contains(key));
            }
        }
    }
}
