//! Property-based tests for the utility substrate.

use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use nb_util::dedup::key_with_fold_state;
use nb_util::stats::{paper_protocol, trim_outliers};
use nb_util::{BoundedDedup, Config, FoldHasher, RateMeter, Summary, Uuid};

fn fold_hash(key: u128) -> u64 {
    let mut h = FoldHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Key `id` of the dedup model's pool: sequential words low (0–63) and
/// high (64–127); then keys whose hash is one value (even ids), and keys
/// whose hashes differ only above their low 14 bits (odd ids), so that
/// every table size up to 2^14 buckets homes them all in one bucket.
fn key(id: usize) -> u128 {
    const STATE: u64 = 0x0123_4567_89ab_cdef;
    match id {
        0..=63 => id as u128,
        64..=127 => (id as u128) << 64,
        _ if id.is_multiple_of(2) => key_with_fold_state(id as u64, STATE),
        _ => key_with_fold_state(id as u64, STATE ^ (id as u64) << 52),
    }
}

#[test]
fn the_colliding_keys_collide() {
    let full: Vec<u64> = (128..200).step_by(2).map(|id| fold_hash(key(id))).collect();
    assert!(
        full.iter().all(|&h| h == full[0]),
        "even ids share one hash"
    );
    let low: Vec<u64> = (129..200).step_by(2).map(|id| fold_hash(key(id))).collect();
    assert!(
        low.iter().all(|&h| h & 0x3fff == low[0] & 0x3fff),
        "odd ids share 14 low bits"
    );
    assert!(
        low.iter().any(|&h| h != low[0]),
        "odd ids differ above them"
    );
}

proptest! {
    /// A linear-scan model of "the last `cap` distinct keys" against the
    /// cache, over 128-bit keys of which many share their home bucket
    /// (and some their whole hash), through the growth path of a cache
    /// pre-sized below its capacity, with lookups and clears between the
    /// inserts and runs long enough for the ring to wrap three times.
    #[test]
    fn dedup_never_exceeds_capacity_and_remembers_the_newest(
        cap in 1usize..64,
        expected in 0usize..66,
        ops in prop::collection::vec((0u8..4, 0usize..200), 192..600),
        clears in prop::collection::vec(0usize..600, 0..3),
    ) {
        let mut d = BoundedDedup::with_expected(cap, expected);
        let mut recent: Vec<u128> = Vec::new();
        for (step, &(op, id)) in ops.iter().enumerate() {
            let k = key(id);
            if clears.contains(&step) {
                d.clear();
                recent.clear();
                prop_assert!(d.is_empty());
            }
            if op == 0 {
                prop_assert_eq!(d.contains(&k), recent.contains(&k), "contains {} at step {}", id, step);
                continue;
            }
            let fresh = d.check_and_insert(k);
            prop_assert_eq!(fresh, !recent.contains(&k), "freshness of {} at step {}", id, step);
            if fresh {
                recent.push(k);
                if recent.len() > cap {
                    recent.remove(0);
                }
            }
            prop_assert_eq!(d.len(), recent.len());
            prop_assert!(d.len() <= cap);
        }
        // Everything in the model window is remembered.
        for k in &recent {
            prop_assert!(d.contains(k));
        }
    }

    #[test]
    fn summary_matches_naive_computation(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&samples).unwrap();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        prop_assert!((s.mean - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert_eq!(s.max, max);
        prop_assert_eq!(s.min, min);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.error <= s.std_dev + 1e-12);
    }

    #[test]
    fn trim_outliers_is_idempotent_enough(
        samples in prop::collection::vec(-100f64..100.0, 3..100),
    ) {
        let once = trim_outliers(&samples, 3.0);
        prop_assert!(once.len() <= samples.len());
        // Survivors are a subsequence of the input.
        let mut it = samples.iter();
        for v in &once {
            prop_assert!(it.any(|x| x == v), "order preserved");
        }
    }

    #[test]
    fn paper_protocol_bounds(samples in prop::collection::vec(0f64..1e4, 0..200), keep in 1usize..150) {
        let kept = paper_protocol(&samples, keep);
        prop_assert!(kept.len() <= keep.min(samples.len()));
    }

    #[test]
    fn config_roundtrips_through_display(
        entries in prop::collection::btree_map("[a-z][a-z0-9.]{0,12}", "[ -<>-~]{0,20}", 0..20),
    ) {
        // Values avoid '=' (excluded from the char class) and leading or
        // trailing spaces are trimmed by the parser, so trim the model.
        let mut c = Config::new();
        for (k, v) in &entries {
            c.set(k, v);
        }
        let reparsed = Config::parse(&c.to_string()).unwrap();
        for (k, v) in &entries {
            prop_assert_eq!(reparsed.get(k), Some(v.trim()), "key {}", k);
        }
    }

    #[test]
    fn rate_meter_counts_window_events(
        gaps in prop::collection::vec(0u64..50, 1..100),
        window in 1u64..200,
        full_scale in 1usize..120,
    ) {
        let mut m = RateMeter::new(window, full_scale);
        let mut times = Vec::new();
        let mut t = 0u64;
        for g in gaps {
            t += g;
            m.record(t);
            times.push(t);
        }
        let now = t;
        let count = times.iter().filter(|&&x| x >= now.saturating_sub(window)).count();
        let expected = count.min(full_scale) as f64 / full_scale as f64;
        prop_assert_eq!(m.load(now), expected);
    }

    #[test]
    fn uuid_parse_display_roundtrip(bits in any::<u128>()) {
        let u = Uuid::from_random_bits(bits);
        let parsed: Uuid = u.to_string().parse().unwrap();
        prop_assert_eq!(parsed, u);
    }
}
