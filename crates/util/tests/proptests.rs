//! Property-based tests for the utility substrate.

use proptest::prelude::*;

use nb_util::stats::{paper_protocol, trim_outliers};
use nb_util::{BoundedDedup, Config, RateMeter, Summary, Uuid};

proptest! {
    #[test]
    fn dedup_never_exceeds_capacity_and_remembers_the_newest(
        keys in prop::collection::vec(0u32..200, 1..500),
        cap in 1usize..64,
    ) {
        let mut d = BoundedDedup::new(cap);
        let mut recent: Vec<u32> = Vec::new();
        for &k in &keys {
            let fresh = d.check_and_insert(k);
            prop_assert_eq!(fresh, !recent.contains(&k), "freshness for {}", k);
            if fresh {
                recent.push(k);
                if recent.len() > cap {
                    recent.remove(0);
                }
            }
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
    ) {
        let mut m = RateMeter::new(window, 4096);
        let mut times = Vec::new();
        let mut t = 0u64;
        for g in gaps {
            t += g;
            m.record(t);
            times.push(t);
        }
        let now = t;
        let expected =
            times.iter().filter(|&&x| x >= now.saturating_sub(window)).count();
        prop_assert_eq!(m.count(now), expected);
    }

    #[test]
    fn uuid_parse_display_roundtrip(bits in any::<u128>()) {
        let u = Uuid::from_random_bits(bits);
        let parsed: Uuid = u.to_string().parse().unwrap();
        prop_assert_eq!(parsed, u);
    }
}
