//! Fixture-workspace tests for the interprocedural rules D009/D010/D011
//! (DESIGN.md §15). Each rule gets a positive finding, a suppressed
//! variant, and — the reason these rules exist — a laundering case that
//! the corresponding token rule (D001/D003/D004) provably misses:
//! every laundering test asserts the old rule is ABSENT from the report
//! while the new rule fires.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static FIXTURE_SEQ: AtomicU64 = AtomicU64::new(0);

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new() -> Fixture {
        let n = FIXTURE_SEQ.fetch_add(1, Ordering::SeqCst);
        let root = std::env::temp_dir()
            .join(format!("nb-lint-interproc-{}-{n}", std::process::id()));
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

// ---------------------------------------------------------------------
// D009: wall-clock taint
// ---------------------------------------------------------------------

/// The laundering hole: a one-line helper whose own clock read carries
/// a justified D001 allow, read from the deterministic sim. The allow
/// covers the helper's line, not its callers — no file has an open D001
/// finding, and only the interprocedural taint sees the call path.
#[test]
fn d009_catches_clock_laundering_that_d001_misses() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/shard.rs",
        concat!(
            "pub fn now_ms() -> u64 {\n",
            "    // nb-lint::allow(D001, reason = \"fixture: progress log stamps wall time\")\n",
            "    let d = std::time::SystemTime::now();\n",
            "    let _ = d;\n",
            "    7\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/net/src/sim.rs",
        "pub fn step() -> u64 {\n    now_ms()\n}\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D009"], "{:?}", report.new);
    assert!(!rules(&report).contains(&"D001"), "D001 must not see this: it is the laundering hole");
    assert_eq!(report.new[0].file, "crates/net/src/sim.rs");
    assert!(report.new[0].message.contains("now_ms"), "{}", report.new[0].message);
    assert!(report.new[0].message.contains("SystemTime"), "witness chain: {}", report.new[0].message);
}

/// Taint propagates through intermediate hops: sim → helper → helper →
/// clock read, with the full chain in the message. The helpers' own
/// sites are allowed; the allows do not extend to the sim's call.
#[test]
fn d009_multi_hop_chain() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/shard.rs",
        concat!(
            "// nb-lint::allow(D001, reason = \"fixture: progress log stamps wall time\")\n",
            "fn raw_clock() -> u64 { let _x = std::time::SystemTime::now(); 1 }\n",
            "// nb-lint::allow(D009, reason = \"fixture: the log helper may read it\")\n",
            "pub fn stamp() -> u64 { raw_clock() }\n",
        ),
    );
    fx.write(
        "crates/net/src/sim.rs",
        "pub fn tick() -> u64 {\n    stamp()\n}\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D009"], "{:?}", report.new);
    let msg = &report.new[0].message;
    assert!(msg.contains("stamp") && msg.contains("raw_clock"), "chain missing hops: {msg}");
}

/// An ambiguous method call (two same-crate candidates) resolves to no
/// edge: the sim's own `now` must not inherit a wall clock's taint just
/// by sharing a name.
#[test]
fn d009_ambiguous_method_produces_no_edge() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/shard.rs",
        concat!(
            "pub struct WallClock;\n",
            "impl WallClock {\n",
            "    // nb-lint::allow(D001, reason = \"fixture: progress log stamps wall time\")\n",
            "    pub fn now(&self) -> u64 { let _x = std::time::SystemTime::now(); 1 }\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "pub struct SimClock { t: u64 }\n",
            "impl SimClock {\n",
            "    pub fn now(&self) -> u64 { self.t }\n",
            "}\n",
            "pub struct Ctx { clock: SimClock }\n",
            "impl Ctx {\n",
            "    pub fn step(&self) -> u64 { self.clock.now() }\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "ambiguity must kill the edge: {:?}", report.new);
}

#[test]
fn d009_suppression_works() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/shard.rs",
        concat!(
            "// nb-lint::allow(D001, reason = \"fixture: progress log stamps wall time\")\n",
            "pub fn now_ms() -> u64 { let _x = std::time::SystemTime::now(); 7 }\n",
        ),
    );
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "pub fn step() -> u64 {\n",
            "    // nb-lint::allow(D009, reason = \"fixture: replay tooling needs wall time\")\n",
            "    now_ms()\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
    // The helper's own D001 allow, then the caller's D009 allow.
    let suppressed: Vec<&str> = report.suppressed.iter().map(|f| f.rule).collect();
    assert_eq!(suppressed, vec!["D001", "D009"]);
}

// ---------------------------------------------------------------------
// D010: RNG seed discipline
// ---------------------------------------------------------------------

/// The bench crate is exempt from D001 (wall-clock zone) and the seed
/// site has no D003 token — yet the RNG is clock-seeded. Only D010's
/// transitive seed-expression check sees it.
#[test]
fn d010_catches_seed_laundering_that_d001_d003_miss() {
    let fx = Fixture::new();
    fx.write(
        "crates/bench/src/lib.rs",
        concat!(
            "pub fn wall_ms() -> u64 {\n",
            "    let d = std::time::SystemTime::now();\n",
            "    let _ = d;\n",
            "    9\n",
            "}\n",
            "pub fn campaign_rng() -> u64 {\n",
            "    let rng = StdRng::seed_from_u64(wall_ms());\n",
            "    let _ = rng;\n",
            "    0\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D010"], "{:?}", report.new);
    assert!(!rules(&report).contains(&"D001"), "wall-clock zone: D001 is exempt here");
    assert!(!rules(&report).contains(&"D003"), "no ambient-RNG token at the seed site");
    assert!(report.new[0].message.contains("wall_ms"), "{}", report.new[0].message);
}

/// Taint flows through a local binding before reaching the seed.
#[test]
fn d010_tainted_local_flows_into_seed() {
    let fx = Fixture::new();
    fx.write(
        "crates/bench/src/lib.rs",
        concat!(
            "pub fn wall_ms() -> u64 { let _d = std::time::SystemTime::now(); 9 }\n",
            "pub fn campaign_rng() -> u64 {\n",
            "    let t = wall_ms();\n",
            "    let rng = StdRng::seed_from_u64(t);\n",
            "    let _ = rng;\n",
            "    0\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D010"], "{:?}", report.new);
    assert!(report.new[0].message.contains("`t`"), "{}", report.new[0].message);
}

/// Seeds derived from parameters and id mixes are the sanctioned
/// pattern and stay clean — including the `seed ^ node_id` idiom.
#[test]
fn d010_parameter_and_id_derived_seeds_are_clean() {
    let fx = Fixture::new();
    fx.write(
        "crates/net/src/sim.rs",
        concat!(
            "pub fn node_rng(seed: u64, id: u64) -> u64 {\n",
            "    let rng = StdRng::seed_from_u64(seed ^ id.wrapping_mul(0x9e37));\n",
            "    let _ = rng;\n",
            "    0\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
}

#[test]
fn d010_suppression_works() {
    let fx = Fixture::new();
    fx.write(
        "crates/bench/src/lib.rs",
        concat!(
            "pub fn wall_ms() -> u64 { let _d = std::time::SystemTime::now(); 9 }\n",
            "pub fn jitter_rng() -> u64 {\n",
            "    // nb-lint::allow(D010, reason = \"fixture: warmup jitter is non-reported\")\n",
            "    let rng = StdRng::seed_from_u64(wall_ms());\n",
            "    let _ = rng;\n",
            "    0\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "D010");
}

// ---------------------------------------------------------------------
// D011: panic reachability from receive paths
// ---------------------------------------------------------------------

/// The escape hatch D004 cannot see: the handler file itself is clean
/// of panic tokens, but a helper one call away (outside the zone)
/// unwraps. D004 never fires; D011 follows the call.
#[test]
fn d011_catches_out_of_zone_panic_that_d004_misses() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/client.rs",
        concat!(
            "pub struct Client;\n",
            "impl Client {\n",
            "    pub fn on_event(&mut self, raw: &[u8]) -> u8 {\n",
            "        decode_strict(raw)\n",
            "    }\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/core/src/policy.rs",
        "pub fn decode_strict(raw: &[u8]) -> u8 {\n    raw.first().copied().unwrap()\n}\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D011"], "{:?}", report.new);
    assert!(!rules(&report).contains(&"D004"), "no panic token in the handler file itself");
    assert_eq!(report.new[0].file, "crates/core/src/client.rs");
    assert!(report.new[0].message.contains("decode_strict"), "{}", report.new[0].message);
}

/// Reachability is transitive: the receive entry calls an in-zone
/// helper, which calls out of the zone into a panicking fn.
#[test]
fn d011_transitive_through_in_zone_helper() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/client.rs",
        concat!(
            "pub fn on_frame(raw: &[u8]) -> u8 {\n",
            "    route(raw)\n",
            "}\n",
            "fn route(raw: &[u8]) -> u8 {\n",
            "    decode_strict(raw)\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/core/src/policy.rs",
        "pub fn decode_strict(raw: &[u8]) -> u8 {\n    raw.first().copied().unwrap()\n}\n",
    );
    let report = fx.run();
    assert_eq!(rules(&report), vec!["D011"], "{:?}", report.new);
    // The flagged edge is the zone escape: route → decode_strict.
    assert!(report.new[0].message.contains("route"), "{}", report.new[0].message);
}

/// Constructors and other non-receive fns in handler files may call
/// panicking helpers (e.g. parsing compile-time well-known constants):
/// D011 only patrols paths reachable from receive entry points.
#[test]
fn d011_ignores_paths_not_reachable_from_receive_entries() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/client.rs",
        concat!(
            "pub struct Client { topic: u8 }\n",
            "impl Client {\n",
            "    pub fn new() -> Client {\n",
            "        Client { topic: well_known(b\"x\") }\n",
            "    }\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/core/src/policy.rs",
        "pub fn well_known(raw: &[u8]) -> u8 {\n    raw.first().copied().unwrap()\n}\n",
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "constructor calls are not receive paths: {:?}", report.new);
}

#[test]
fn d011_suppression_works() {
    let fx = Fixture::new();
    fx.write(
        "crates/core/src/client.rs",
        concat!(
            "pub fn on_event(raw: &[u8]) -> u8 {\n",
            "    // nb-lint::allow(D011, reason = \"fixture: fed by trusted local pipe\")\n",
            "    decode_strict(raw)\n",
            "}\n",
        ),
    );
    fx.write(
        "crates/core/src/policy.rs",
        "pub fn decode_strict(raw: &[u8]) -> u8 {\n    raw.first().copied().unwrap()\n}\n",
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "D011");
}
