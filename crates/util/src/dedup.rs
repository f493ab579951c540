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
//! Each key is stored once, in a ring (`Vec<K>`) whose oldest slot is
//! overwritten at capacity. An open-addressed table of `u32` entries
//! finds a key's slot: `slot + 1` in the low bits, the hash's low bits
//! above as a tag, 0 for an empty bucket. The table keeps load ≤ ½,
//! probes linearly and deletes by backward shift, so it holds no
//! tombstones and, once sized for `capacity`, never rehashes. A
//! 1000-key cache of UUIDs is 16 000 B of keys plus 8 KiB of index
//! (24.2 B a key); a 64-key one 1 KiB plus 512 B.
//!
//! Every flood arrival, fresh or duplicate, probes one of these, so it
//! hashes with a multiply-rotate fold instead of SipHash. The keys are
//! request and event UUIDs — 128 random bits minted by simulated nodes —
//! so there is no adversary to defend the buckets against, and the table
//! is never iterated (eviction order lives in the ring), so nothing
//! observable depends on the hash.

use std::hash::{Hash, Hasher};

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

/// The 128-bit key with low word `low` that leaves a [`FoldHasher`] in
/// `state`, so hashes to `state.rotate_left(26)`: its high word cancels
/// the first fold. Tests build colliding keys with it.
#[doc(hidden)]
pub fn key_with_fold_state(low: u64, state: u64) -> u128 {
    let mut k_inv = FoldHasher::K;
    for _ in 0..5 {
        k_inv = k_inv.wrapping_mul(2u64.wrapping_sub(FoldHasher::K.wrapping_mul(k_inv)));
    }
    let high = low.wrapping_mul(FoldHasher::K).rotate_left(5) ^ state.wrapping_mul(k_inv);
    u128::from(high) << 64 | u128::from(low)
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
    /// Every remembered key once, in insertion order until the ring is
    /// full; from then on slot `oldest` holds the next key to evict.
    ring: Vec<K>,
    oldest: usize,
    /// Open-addressed buckets, a power of two of them, each `tag |
    /// (slot + 1)` or 0 when empty.
    index: Vec<u32>,
    /// The low bits of an entry, which hold `slot + 1`; the ones above
    /// hold the low bits of the key's hash as a tag. At most 31, so
    /// that a tag bit is left and every shift by it is defined.
    slot_bits: u32,
}

/// Index buckets for a ring of `keys` slots: load ≤ ½.
fn index_len(keys: usize) -> usize {
    if keys == 0 {
        0
    } else {
        (2 * keys).next_power_of_two()
    }
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = FoldHasher::default();
    key.hash(&mut h);
    h.finish()
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
            ring: Vec::with_capacity(pre),
            oldest: 0,
            index: vec![0; index_len(pre)],
            slot_bits: (usize::BITS - capacity.leading_zeros()).min(31),
        }
    }

    /// Records `key`; returns `true` if it was *not* already remembered
    /// (i.e. the caller should process it), `false` for a duplicate.
    #[inline]
    pub fn check_and_insert(&mut self, key: K) -> bool {
        if self.capacity == 0 {
            return true;
        }
        let hash = hash_of(&key);
        let Err(free) = self.probe(&key, hash) else {
            return false;
        };
        self.insert(key, hash, free);
        true
    }

    /// Whether `key` is currently remembered (no mutation).
    pub fn contains(&self, key: &K) -> bool {
        self.probe(key, hash_of(key)).is_ok()
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the cache currently remembers nothing.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.index.fill(0);
        self.oldest = 0;
    }

    /// Remembers the fresh `key`, evicting the oldest at capacity;
    /// `free` is the empty bucket that ended its probe. Kept apart from
    /// the `#[inline]` `check_and_insert`, so that a duplicate, the
    /// common arrival, inlines as one probe.
    fn insert(&mut self, key: K, hash: u64, mut free: usize) {
        let slot = if self.ring.len() < self.capacity {
            if 2 * (self.ring.len() + 1) > self.index.len() {
                self.grow();
                free = self.first_free(hash);
            }
            self.ring.push(key);
            self.ring.len() - 1
        } else {
            let slot = self.oldest;
            self.unindex(slot);
            free = self.first_free(hash);
            self.ring[slot] = key;
            self.oldest = if slot + 1 == self.capacity {
                0
            } else {
                slot + 1
            };
            slot
        };
        self.index[free] = self.entry(slot, hash);
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    fn slot_mask(&self) -> u32 {
        (1 << self.slot_bits) - 1
    }

    fn tag(&self, hash: u64) -> u32 {
        (hash as u32) << self.slot_bits
    }

    fn slot(&self, entry: u32) -> usize {
        (entry & self.slot_mask()) as usize - 1
    }

    /// The home bucket of the key `entry` points at.
    fn home(&self, entry: u32) -> usize {
        hash_of(&self.ring[self.slot(entry)]) as usize & self.mask()
    }

    /// `Ok` with the bucket whose entry points at `key`'s slot, or `Err`
    /// with the empty bucket that ends its probe (0 while there are no
    /// buckets: the insert then grows them first).
    fn probe(&self, key: &K, hash: u64) -> Result<usize, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let tag = self.tag(hash);
        let mut b = hash as usize & self.mask();
        loop {
            let entry = self.index[b];
            if entry == 0 {
                return Err(b);
            }
            if entry & !self.slot_mask() == tag && self.ring[self.slot(entry)] == *key {
                return Ok(b);
            }
            b = (b + 1) & self.mask();
        }
    }

    /// The first empty bucket on `hash`'s probe.
    fn first_free(&self, hash: u64) -> usize {
        let mut b = hash as usize & self.mask();
        while self.index[b] != 0 {
            b = (b + 1) & self.mask();
        }
        b
    }

    fn entry(&self, slot: usize, hash: u64) -> u32 {
        assert!(
            slot < self.slot_mask() as usize,
            "a BoundedDedup indexes at most 2^31 - 1 keys"
        );
        self.tag(hash) | (slot + 1) as u32
    }

    /// Removes the entry pointing at `slot`, shifting the rest of its
    /// cluster back so that no probe meets a gap it should not.
    fn unindex(&mut self, slot: usize) {
        let mask = self.mask();
        let mut hole = hash_of(&self.ring[slot]) as usize & mask;
        while self.slot(self.index[hole]) != slot {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let entry = self.index[b];
            if entry == 0 {
                break;
            }
            // The entry fills the hole if its home bucket is not
            // cyclically after the hole, i.e. the hole is on its probe;
            // else it is written back where it is. No branch to miss.
            let moves = b.wrapping_sub(self.home(entry)) & mask >= b.wrapping_sub(hole) & mask;
            let (to, next_hole) = if moves { (hole, b) } else { (b, hole) };
            self.index[to] = entry;
            hole = next_hole;
        }
        self.index[hole] = 0;
    }

    /// Doubles the ring's room, up to `capacity`, and rebuilds the
    /// index for it. Runs only before the ring first fills, so slots
    /// are still in insertion order from 0.
    fn grow(&mut self) {
        let len = self.ring.len();
        let room = (2 * len).max(4).min(self.capacity);
        self.ring.reserve_exact(room - len);
        self.index = vec![0; index_len(room)];
        for slot in 0..len {
            let hash = hash_of(&self.ring[slot]);
            let free = self.first_free(hash);
            self.index[free] = self.entry(slot, hash);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

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

    /// The structure's invariant: every live ring slot is indexed
    /// exactly once, with its key's tag, where a probe from its key's
    /// home bucket reaches it; every entry points at a live slot.
    fn assert_indexed_exactly_once<K: Hash + Eq + Clone>(d: &BoundedDedup<K>) {
        let mut seen = vec![0u32; d.ring.len()];
        for (b, &entry) in d.index.iter().enumerate() {
            if entry == 0 {
                continue;
            }
            let slot = d.slot(entry);
            assert!(slot < d.ring.len(), "bucket {b} points at dead slot {slot}");
            seen[slot] += 1;
            let hash = hash_of(&d.ring[slot]);
            assert_eq!(
                entry & !d.slot_mask(),
                d.tag(hash),
                "bucket {b} carries a wrong tag"
            );
            let mut probe = hash as usize & d.mask();
            while probe != b {
                assert_ne!(
                    d.index[probe], 0,
                    "a gap cuts slot {slot} off its home bucket"
                );
                probe = (probe + 1) & d.mask();
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "slots indexed {seen:?} times");
        assert!(2 * d.ring.len() <= d.index.len(), "load above one half");
    }

    #[test]
    fn every_live_slot_is_indexed_exactly_once() {
        // In the small caches, keys that share their low 14 hash bits,
        // and so their home bucket, alternate with keys spread by the
        // hash, and those 64 apart share their whole hash: each
        // eviction shifts back entries of one long cluster and of short
        // ones.
        for (cap, expected) in [(5, 5), (5, 0), (7, 2), (64, 64), (100, 3), (1000, 1000)] {
            let mut d = BoundedDedup::with_expected(cap, expected);
            let check_every = 1 + cap as u64 / 10;
            for k in 0..(3 * cap as u64) {
                let key = match k % 2 {
                    0 if cap <= 100 => key_with_fold_state(k, 0x5eed ^ (k % 64) << 52),
                    _ => u128::from(k % (2 * cap as u64)),
                };
                d.check_and_insert(key);
                if k % check_every == 0 {
                    assert_indexed_exactly_once(&d);
                }
                if k == cap as u64 + 1 {
                    d.clear();
                    assert_indexed_exactly_once(&d);
                }
            }
            assert_indexed_exactly_once(&d);
        }
    }
}
