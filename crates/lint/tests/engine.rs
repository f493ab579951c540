//! End-to-end engine tests over throwaway fixture workspaces: rule
//! detection per zone, suppressions, and exit semantics.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static FIXTURE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A throwaway workspace under the system temp dir, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new() -> Fixture {
        let n = FIXTURE_SEQ.fetch_add(1, Ordering::SeqCst);
        let root = std::env::temp_dir().join(format!(
            "nb-lint-fixture-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n").expect("manifest");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdirs");
        fs::write(path, content).expect("write fixture file");
        self
    }

    fn run(&self) -> nb_lint::Report {
        nb_lint::run_root(&self.root).expect("scan fixture")
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn rules(report: &nb_lint::Report) -> Vec<&'static str> {
    report.new.iter().map(|f| f.rule).collect()
}

#[test]
fn d001_wall_clock_zone_split() {
    let fx = Fixture::new();
    // Deterministic zone: flagged.
    fx.write(
        "crates/net/src/sim.rs",
        "pub fn tick() { let _t = std::time::Instant::now(); }\n",
    );
    // Wall-clock zone: allowed.
    fx.write(
        "crates/bench/src/stopwatch.rs",
        "pub fn tick() { let _t = std::time::Instant::now(); let _e = std::time::SystemTime::now(); }\n",
    );
    fx.write(
        "crates/bench/src/lib.rs",
        "pub fn measure() { let _t = std::time::Instant::now(); }\n",
    );
    fx.write("benchmark/src/x.rs", "pub fn measure() { let _t = std::time::Instant::now(); }\n");
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D001"]);
    assert_eq!(report.new[0].file, "crates/net/src/sim.rs");
}

#[test]
fn d001_applies_even_inside_test_modules() {
    // Wall-clock reads corrupt determinism wherever they run, including
    // tests, so the test-region exemption does not cover D001.
    let fx = Fixture::new();
    fx.write(
        "crates/util/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _x = std::time::SystemTime::now(); }\n}\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D001"]);
}

#[test]
fn d002_hash_iteration_detection() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/selection.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "pub struct S { weights: HashMap<u32, u64> }\n",
            "impl S {\n",
            "    pub fn sweep(&mut self) {\n",
            "        self.weights.retain(|_, w| *w > 0);\n",
            "        for (k, v) in &self.weights { let _ = (k, v); }\n",
            "        let _total: u64 = self.weights.values().sum();\n",
            "    }\n",
            "    pub fn lookup(&self, k: u32) -> Option<&u64> { self.weights.get(&k) }\n",
            "}\n",
        ),
    );
    let report = fx.run();
    // retain + for + values (point lookups are fine).
    assert_eq!(rules(&report), vec!["D002", "D002", "D002"]);
}

#[test]
fn d002_ignores_btreemap_and_test_regions() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/selection.rs",
        concat!(
            "use std::collections::{BTreeMap, HashMap};\n",
            "pub struct S { weights: BTreeMap<u32, u64> }\n",
            "impl S {\n",
            "    pub fn sweep(&mut self) { self.weights.retain(|_, w| *w > 0); }\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use super::*;\n",
            "    #[test]\n",
            "    fn t() {\n",
            "        let m: HashMap<u32, u64> = HashMap::new();\n",
            "        for (k, v) in &m { let _ = (k, v); }\n",
            "    }\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert!(report.new.is_empty(), "unexpected: {:?}", report.new);
}

#[test]
fn d003_unseeded_rng_flagged_everywhere() {
    let fx = Fixture::new();
    fx.write("crates/bench/src/lib.rs", "pub fn r() { let _g = rand::thread_rng(); }\n");
    fx.write(
        "crates/util/src/lib.rs",
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _r = StdRng::from_entropy(); }\n}\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D003", "D003"]);
}

#[test]
fn d004_protocol_handler_zone() {
    let body = concat!(
        "pub fn on_msg(buf: &[u8], order: &[u32], idx: usize) -> u32 {\n",
        "    let first = buf.first().unwrap();\n",
        "    let _parsed: u32 = parse(buf).expect(\"valid\");\n",
        "    let picked = order[idx];\n",
        "    let _ = first;\n",
        "    picked\n",
        "}\n",
    );
    let fx = Fixture::new();
    fx.write("crates/core/src/client.rs", body);
    // Same code outside the handler zone: not D004's business.
    fx.write("crates/core/src/selection.rs", body);
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D004", "D004", "D004"]);
    assert!(report.new.iter().all(|f| f.file == "crates/core/src/client.rs"));
}

#[test]
fn d005_float_fold_over_hash_iteration() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/selection.rs",
        concat!(
            "use std::collections::HashMap;\n",
            "pub struct S { weights: HashMap<u32, f64> }\n",
            "impl S {\n",
            "    pub fn total(&self) -> f64 { self.weights.values().sum() }\n",
            "}\n",
        ),
    );
    let report = fx.run();
    // The iteration itself (D002) and the order-sensitive fold (D005).
    assert_eq!(rules(&report), vec!["D002", "D005"]);
}

#[test]
fn d006_seeded_pub_fn_purity() {
    let fx = Fixture::new();
    fx.write(
        "crates/util/src/lib.rs",
        concat!(
            "pub fn derive_plan(seed: u64) -> u64 {\n",
            "    let noise = std::time::SystemTime::now();\n",
            "    let _ = noise;\n",
            "    seed\n",
            "}\n",
            "pub fn pure_plan(seed: u64, horizon: u64) -> u64 { seed ^ horizon }\n",
            "pub fn unseeded() -> u64 { 7 }\n",
        ),
    );
    let report = fx.run();
    // SystemTime in a seeded pub fn trips both D001 and D006.
    assert_eq!(rules(&report), vec!["D001", "D006"]);
}

#[test]
fn d007_decode_for_one_field_and_bytes_copies() {
    let fx = Fixture::new();
    fx.write(
        "crates/broker/src/broker.rs",
        concat!(
            "pub fn on_frame(buf: &[u8]) -> bool {\n",
            "    let dup = Message::from_bytes(buf).unwrap().id;\n",
            "    let _kind = decode_framed(&frame)?.1.kind();\n",
            "    let copy = ev.payload.to_vec();\n",
            "    let _ = (dup, copy);\n",
            "    false\n",
            "}\n",
            "pub fn full_use(buf: &[u8]) {\n",
            "    // Decoding for the whole message is fine.\n",
            "    let msg = Message::from_bytes(buf).unwrap();\n",
            "    route(msg);\n",
            "    // And copying a non-payload slice is fine.\n",
            "    let _t = token.to_vec();\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D007", "D007", "D007"]);
}

#[test]
fn d007_only_fires_in_wire_receive_crates() {
    let fx = Fixture::new();
    // Same patterns outside broker/core/net: not D007's business.
    fx.write(
        "crates/security/src/envelope.rs",
        "pub fn peek(buf: &[u8]) -> u8 { Message::from_bytes(buf).unwrap().kind() }\n",
    );
    fx.write(
        "crates/services/src/replay.rs",
        "pub fn copy(ev: &Event) -> Vec<u8> { ev.payload.to_vec() }\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), Vec::<&str>::new());
}

#[test]
fn d008_threading_primitives_outside_the_shard_executor() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "pub fn fan_out() {\n",
            "    let h = std::thread::spawn(|| 1);\n",
            "    let _m = std::sync::Mutex::new(0);\n",
            "    let _ = h.join();\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/core/src/selection.rs",
        "pub struct Flags { ready: std::sync::atomic::AtomicBool }\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D008", "D008", "D008"]);
}

#[test]
fn d008_shard_executor_and_cmp_ordering_are_exempt() {
    let fx = Fixture::new();
    // The shard executor is the one place threads and locks belong.
    fx.write(
        "crates/net/src/shard.rs",
        concat!(
            "pub fn epochs() { std::thread::scope(|_s| {}); let _m = std::sync::Mutex::new(0); }\n",
            "pub fn pump() { let h = std::thread::spawn(|| 1); let _ = h.join(); }\n",
        ),
    );
    // `cmp::Ordering` in comparators is everyday engine code, not an
    // atomic memory ordering — the bare ident must not trip D008.
    fx.write(
        "crates/core/src/weights.rs",
        concat!(
            "use std::cmp::Ordering;\n",
            "pub fn rank(a: u64, b: u64) -> Ordering { a.cmp(&b) }\n",
        ),
    );
    // Outside net/core entirely: not D008's business.
    fx.write(
        "crates/bench/src/pool.rs",
        "pub fn pool() { let _h = std::thread::spawn(|| 2); }\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), Vec::<&str>::new());
}

#[test]
fn d008_skips_test_regions() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/wan.rs",
        concat!(
            "pub fn model() -> u32 { 7 }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn cross_check() { let h = std::thread::spawn(|| 1); let _ = h.join(); }\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert_eq!(rules(&report), Vec::<&str>::new());
}

#[test]
fn suppression_same_line_and_next_line() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "pub fn a() {\n",
            "    let _t = std::time::Instant::now(); // nb-lint::allow(D001, reason = \"trailing directive\")\n",
            "}\n",
            "pub fn b() {\n",
            "    // nb-lint::allow(D001, reason = \"next-line directive\")\n",
            "    let _t = std::time::Instant::now();\n",
            "}\n",
            "pub fn c() {\n",
            "    // nb-lint::allow(D001, reason = \"too far away\")\n",
            "    let _gap = 1;\n",
            "    let _t = std::time::Instant::now();\n",
            "}\n",
        ),
    );
    let report = fx.run();
    // a and b suppressed; c's directive only covers the gap line.
    assert_eq!(rules(&report), vec!["D001"]);
    assert_eq!(report.new[0].line, 11);
    assert_eq!(report.suppressed.len(), 2);
    assert_eq!(report.unused_allows.len(), 1, "c's allow matched nothing");
}

#[test]
fn suppression_requires_reason_and_valid_rules() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "// nb-lint::allow(D001)\n",
            "pub fn a() { let _t = std::time::Instant::now(); }\n",
            "// nb-lint::allow(BOGUS, reason = \"rule name is wrong\")\n",
            "pub fn b() {}\n",
        ),
    );
    let report = fx.run();
    // Both directives malformed (L001) and the D001 is NOT suppressed.
    assert_eq!(rules(&report), vec!["L001", "D001", "L001"]);
    assert!(report.suppressed.is_empty());
    assert!(report.has_new());
}

#[test]
fn suppression_wrong_rule_does_not_cover() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "// nb-lint::allow(D003, reason = \"covers the wrong rule\")\n",
            "pub fn a() { let _t = std::time::Instant::now(); }\n",
        ),
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D001"]);
    assert_eq!(report.unused_allows.len(), 1);
}

#[test]
fn shims_and_target_are_not_scanned() {
    let fx = Fixture::new();
    fx.write("shims/rand/src/lib.rs", "pub fn r() { let _g = rand::thread_rng(); }\n");
    fx.write("target/debug/build/gen.rs", "pub fn t() { let _t = std::time::Instant::now(); }\n");
    fx.write("crates/util/src/lib.rs", "pub fn ok() {}\n");
    let report = fx.run();
    assert!(report.new.is_empty(), "unexpected: {:?}", report.new);
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn report_json_is_stable_and_digest_tracks_findings() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/sim.rs",
        "pub fn a() { let _t = std::time::Instant::now(); }\n",
    );
    let r1 = fx.run();
    let r2 = fx.run();
    assert_eq!(r1.to_json(), r2.to_json(), "same tree must render identically");
    assert_eq!(r1.digest(), r2.digest());
    // Fixing the finding changes the digest.
    fx.write("crates/net/src/sim.rs", "pub fn a() {}\n");
    let r3 = fx.run();
    assert_ne!(r1.digest(), r3.digest());
}

// ---------------------------------------------------------------------
// Suppressions over attribute-bearing items
// ---------------------------------------------------------------------

#[test]
fn suppression_reaches_item_through_derive_attribute() {
    // The directive sits above `#[derive(...)]`; the finding is on the
    // struct line below it. Attribute lines must not consume the
    // next-code-line coverage.
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/state.rs",
        concat!(
            "// nb-lint::allow(D008, reason = \"handle owned by the worker pool\")\n",
            "#[derive(Default)]\n",
            "pub struct Handle { guard: Option<std::sync::Mutex<u8>> }\n",
        ),
    );
    let report = fx.run();
    assert!(report.new.is_empty(), "unexpected: {:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "D008");
    assert!(report.unused_allows.is_empty());
}

#[test]
fn suppression_reaches_item_through_stacked_attributes() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/state.rs",
        concat!(
            "// nb-lint::allow(D008, reason = \"handle owned by the worker pool\")\n",
            "#[derive(Default)]\n",
            "#[allow(dead_code)]\n",
            "pub struct Handle { guard: Option<std::sync::Mutex<u8>> }\n",
        ),
    );
    let report = fx.run();
    assert!(report.new.is_empty(), "unexpected: {:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn suppression_reaches_item_through_multi_line_attribute() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/state.rs",
        concat!(
            "// nb-lint::allow(D008, reason = \"handle owned by the worker pool\")\n",
            "#[derive(\n",
            "    Default,\n",
            ")]\n",
            "pub struct Handle { guard: Option<std::sync::Mutex<u8>> }\n",
        ),
    );
    let report = fx.run();
    assert!(report.new.is_empty(), "unexpected: {:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
}

#[test]
fn suppression_covers_finding_on_attribute_line_itself() {
    // cfg_attr and friends can hold expressions that trip rules; the
    // attribute lines themselves are covered too.
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/state.rs",
        concat!(
            "// nb-lint::allow(D008, reason = \"cfg carries the lock type name\")\n",
            "#[cfg(feature = \"Mutex\")]\n",
            "pub struct Handle;\n",
        ),
    );
    let report = fx.run();
    // No finding fires here (the string literal is opaque), but the
    // directive must count as unused rather than panicking the matcher.
    assert!(report.new.is_empty(), "unexpected: {:?}", report.new);
}

#[test]
fn suppression_does_not_leak_past_attributed_item() {
    // Coverage stops at the attributed item: a second offending item
    // further down is still reported.
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/state.rs",
        concat!(
            "// nb-lint::allow(D008, reason = \"handle owned by the worker pool\")\n",
            "#[derive(Default)]\n",
            "pub struct Handle { guard: Option<std::sync::Mutex<u8>> }\n",
            "pub struct Other { guard: Option<std::sync::Mutex<u8>> }\n",
        ),
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D008"], "{:?}", report.new);
    assert_eq!(report.new[0].line, 4);
    assert_eq!(report.suppressed.len(), 1);
}
