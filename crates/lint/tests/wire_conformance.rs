//! Fixture-workspace tests for the wire-conformance pass W001–W005
//! (DESIGN.md §15): miniature `crates/wire/src/message.rs` +
//! `frame.rs` (+ `v2.rs`/`symtab.rs` for the bounded-decode rule)
//! replicas that pass clean, and one mutant per rule that must fail —
//! so the pass is proven to detect exactly the drift modes it exists
//! for.

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
        let root =
            std::env::temp_dir().join(format!("nb-lint-wire-{}-{n}", std::process::id()));
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

/// The clean miniature protocol: two tags, one UUID-first payload
/// variant registered in the peek table, guarded decode paths.
fn base_message_rs() -> String {
    concat!(
        "pub(crate) const TAG_ALPHA: u8 = 1;\n",
        "pub(crate) const TAG_BETA: u8 = 2;\n",
        "\n",
        "pub const ALL_TAGS: [u8; 2] = [TAG_ALPHA, TAG_BETA];\n",
        "\n",
        "pub struct Payload { pub id: u128 }\n",
        "\n",
        "pub enum Message {\n",
        "    Alpha { x: u8 },\n",
        "    Beta(Payload),\n",
        "}\n",
        "\n",
        "impl Message {\n",
        "    pub fn tag(&self) -> u8 {\n",
        "        match self {\n",
        "            Message::Alpha { .. } => TAG_ALPHA,\n",
        "            Message::Beta(_) => TAG_BETA,\n",
        "        }\n",
        "    }\n",
        "}\n",
        "\n",
        "impl Wire for Payload {\n",
        "    fn encode(&self, w: &mut WireWriter) {\n",
        "        w.put_uuid(self.id);\n",
        "    }\n",
        "    fn decode(r: &mut WireReader) -> Result<Payload, WireError> {\n",
        "        Ok(Payload { id: r.get_uuid()? })\n",
        "    }\n",
        "}\n",
        "\n",
        "impl Wire for Message {\n",
        "    fn encode(&self, w: &mut WireWriter) {\n",
        "        match self {\n",
        "            Message::Alpha { x } => {\n",
        "                w.put_u8(TAG_ALPHA);\n",
        "                w.put_u8(*x);\n",
        "            }\n",
        "            Message::Beta(p) => {\n",
        "                w.put_u8(TAG_BETA);\n",
        "                p.encode(w);\n",
        "            }\n",
        "        }\n",
        "    }\n",
        "    fn decode(r: &mut WireReader) -> Result<Message, WireError> {\n",
        "        if r.remaining() > MAX_MESSAGE_LEN {\n",
        "            return Err(WireError::MessageTooLong(r.remaining()));\n",
        "        }\n",
        "        Ok(match r.get_u8()? {\n",
        "            TAG_ALPHA => Message::Alpha { x: r.get_u8()? },\n",
        "            TAG_BETA => Message::Beta(Payload::decode(r)?),\n",
        "            other => return Err(WireError::InvalidTag { context: \"Message\", tag: other }),\n",
        "        })\n",
        "    }\n",
        "}\n",
    )
    .to_string()
}

fn base_frame_rs() -> String {
    concat!(
        "pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;\n",
        "\n",
        "fn peek_fields(body: &[u8]) -> Option<(u8, Option<u128>)> {\n",
        "    let tag = *body.first()?;\n",
        "    let uuid = match tag {\n",
        "        TAG_BETA => Some(0u128),\n",
        "        _ => None,\n",
        "    };\n",
        "    Some((tag, uuid))\n",
        "}\n",
        "\n",
        "pub struct FrameDecoder { len: usize }\n",
        "\n",
        "impl FrameDecoder {\n",
        "    pub fn next_frame(&mut self) -> Option<usize> {\n",
        "        if self.len > MAX_FRAME_LEN {\n",
        "            return None;\n",
        "        }\n",
        "        Some(self.len)\n",
        "    }\n",
        "}\n",
    )
    .to_string()
}

/// A miniature v2 codec: one varint reader bounded by
/// `MAX_VARINT_BYTES`, one segment walker bounded by `MAX_FRAME_LEN`.
fn base_v2_rs() -> String {
    concat!(
        "pub const MAX_VARINT_BYTES: usize = 10;\n",
        "\n",
        "pub fn get_varint(r: &mut WireReader<'_>) -> Result<u64, WireError> {\n",
        "    let mut out = 0u64;\n",
        "    for i in 0..MAX_VARINT_BYTES {\n",
        "        let b = r.get_u8()?;\n",
        "        out |= ((b & 0x7f) as u64) << (7 * i);\n",
        "        if b & 0x80 == 0 {\n",
        "            return Ok(out);\n",
        "        }\n",
        "    }\n",
        "    Err(WireError::Invalid(\"varint overlong\"))\n",
        "}\n",
        "\n",
        "pub fn decode_segment(seg: &[u8]) -> Result<usize, WireError> {\n",
        "    let mut frames = 0usize;\n",
        "    let mut at = 0usize;\n",
        "    while at < seg.len() {\n",
        "        if frames > MAX_FRAME_LEN {\n",
        "            return Err(WireError::Invalid(\"segment frame flood\"));\n",
        "        }\n",
        "        frames += 1;\n",
        "        at += 1;\n",
        "    }\n",
        "    Ok(frames)\n",
        "}\n",
    )
    .to_string()
}

/// A miniature symbol-table reader whose definition loop is bounded.
fn base_symtab_rs() -> String {
    concat!(
        "pub struct SymTabReader { defs: Vec<String> }\n",
        "\n",
        "impl SymTabReader {\n",
        "    pub fn decode_ref(&mut self, r: &mut WireReader<'_>) -> Result<String, WireError> {\n",
        "        let mut len = 0usize;\n",
        "        while r.has_remaining() {\n",
        "            len += 1;\n",
        "            if len > MAX_FRAME_LEN {\n",
        "                return Err(WireError::Invalid(\"symbol too long\"));\n",
        "            }\n",
        "        }\n",
        "        Ok(String::new())\n",
        "    }\n",
        "}\n",
    )
    .to_string()
}

#[test]
fn clean_protocol_passes_all_w_rules() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/message.rs", &base_message_rs());
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
}

#[test]
fn w001_duplicate_tag_value() {
    let fx = Fixture::new();
    let src = base_message_rs().replace(
        "pub(crate) const TAG_BETA: u8 = 2;",
        "pub(crate) const TAG_BETA: u8 = 1;",
    );
    fx.write("crates/wire/src/message.rs", &src);
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    assert!(rules(&report).contains(&"W001"), "{:?}", report.new);
    let f = report.new.iter().find(|f| f.rule == "W001").unwrap();
    assert!(f.message.contains("duplicate wire tag value 1"), "{}", f.message);
}

#[test]
fn w001_tag_missing_from_all_tags() {
    let fx = Fixture::new();
    let src = base_message_rs().replace(
        "pub const ALL_TAGS: [u8; 2] = [TAG_ALPHA, TAG_BETA];",
        "pub const ALL_TAGS: [u8; 1] = [TAG_ALPHA];",
    );
    fx.write("crates/wire/src/message.rs", &src);
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    let w001: Vec<_> = report.new.iter().filter(|f| f.rule == "W001").collect();
    assert_eq!(w001.len(), 1, "{:?}", report.new);
    assert!(w001[0].message.contains("TAG_BETA"), "{}", w001[0].message);
}

#[test]
fn w001_encode_and_tag_fn_disagree() {
    let fx = Fixture::new();
    // `tag()` says Beta is TAG_BETA, but encode writes TAG_ALPHA.
    let src = base_message_rs().replace(
        "            Message::Beta(p) => {\n                w.put_u8(TAG_BETA);",
        "            Message::Beta(p) => {\n                w.put_u8(TAG_ALPHA);",
    );
    fx.write("crates/wire/src/message.rs", &src);
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    let w001: Vec<_> = report.new.iter().filter(|f| f.rule == "W001").collect();
    assert!(
        w001.iter().any(|f| f.message.contains("tag()")),
        "{:?}",
        report.new
    );
}

#[test]
fn w002_uuid_kind_missing_from_peek_table() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/message.rs", &base_message_rs());
    // Peek table forgets TAG_BETA (the real drift mode this PR fixed
    // for `Message::Response`).
    let src = base_frame_rs().replace("        TAG_BETA => Some(0u128),\n", "");
    fx.write("crates/wire/src/frame.rs", &src);
    let report = fx.run();
    assert!(rules(&report).contains(&"W002"), "{:?}", report.new);
    let f = report.new.iter().find(|f| f.rule == "W002").unwrap();
    assert_eq!(f.file, "crates/wire/src/frame.rs");
    assert!(f.message.contains("Beta"), "{}", f.message);
}

#[test]
fn w002_peek_table_lists_non_uuid_kind() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/message.rs", &base_message_rs());
    // Alpha does not start with a UUID, so peeking it would read
    // garbage bytes as an id.
    let src = base_frame_rs().replace(
        "        TAG_BETA => Some(0u128),",
        "        TAG_ALPHA | TAG_BETA => Some(0u128),",
    );
    fx.write("crates/wire/src/frame.rs", &src);
    let report = fx.run();
    let w002: Vec<_> = report.new.iter().filter(|f| f.rule == "W002").collect();
    assert_eq!(w002.len(), 1, "{:?}", report.new);
    assert!(w002[0].message.contains("TAG_ALPHA"), "{}", w002[0].message);
}

#[test]
fn w003_missing_decode_arm() {
    let fx = Fixture::new();
    let src = base_message_rs()
        .replace("            TAG_BETA => Message::Beta(Payload::decode(r)?),\n", "");
    fx.write("crates/wire/src/message.rs", &src);
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    let w003: Vec<_> = report.new.iter().filter(|f| f.rule == "W003").collect();
    assert_eq!(w003.len(), 1, "{:?}", report.new);
    assert!(w003[0].message.contains("TAG_BETA"), "{}", w003[0].message);
}

#[test]
fn w003_variant_without_encode_arm() {
    let fx = Fixture::new();
    // A third variant exists in the enum but never learned to encode.
    let src = base_message_rs().replace(
        "    Beta(Payload),\n}",
        "    Beta(Payload),\n    Gamma { y: u8 },\n}",
    );
    fx.write("crates/wire/src/message.rs", &src);
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    let w003: Vec<_> = report.new.iter().filter(|f| f.rule == "W003").collect();
    assert_eq!(w003.len(), 1, "{:?}", report.new);
    assert!(w003[0].message.contains("Gamma"), "{}", w003[0].message);
}

#[test]
fn w004_unguarded_message_decode() {
    let fx = Fixture::new();
    let src = base_message_rs().replace(
        concat!(
            "        if r.remaining() > MAX_MESSAGE_LEN {\n",
            "            return Err(WireError::MessageTooLong(r.remaining()));\n",
            "        }\n",
        ),
        "",
    );
    fx.write("crates/wire/src/message.rs", &src);
    fx.write("crates/wire/src/frame.rs", &base_frame_rs());
    let report = fx.run();
    let w004: Vec<_> = report.new.iter().filter(|f| f.rule == "W004").collect();
    assert_eq!(w004.len(), 1, "{:?}", report.new);
    assert!(w004[0].message.contains("MAX_MESSAGE_LEN"), "{}", w004[0].message);
}

#[test]
fn w004_unguarded_next_frame() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/message.rs", &base_message_rs());
    let src = base_frame_rs().replace(
        concat!(
            "        if self.len > MAX_FRAME_LEN {\n",
            "            return None;\n",
            "        }\n",
        ),
        "",
    );
    fx.write("crates/wire/src/frame.rs", &src);
    let report = fx.run();
    let w004: Vec<_> = report.new.iter().filter(|f| f.rule == "W004").collect();
    assert_eq!(w004.len(), 1, "{:?}", report.new);
    assert!(w004[0].message.contains("MAX_FRAME_LEN"), "{}", w004[0].message);
}

#[test]
fn w005_bounded_decode_loops_pass() {
    let fx = Fixture::new();
    // No message.rs needed: the bounded-decode pass stands alone.
    fx.write("crates/wire/src/v2.rs", &base_v2_rs());
    fx.write("crates/wire/src/symtab.rs", &base_symtab_rs());
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
}

#[test]
fn w005_unbounded_varint_loop() {
    let fx = Fixture::new();
    // The overlong-varint guard vanishes: a hostile continuation-bit
    // stream now spins until the reader runs dry.
    let src = base_v2_rs().replace(
        concat!(
            "    for i in 0..MAX_VARINT_BYTES {\n",
            "        let b = r.get_u8()?;\n",
            "        out |= ((b & 0x7f) as u64) << (7 * i);\n",
        ),
        concat!(
            "    let mut i = 0usize;\n",
            "    loop {\n",
            "        let b = r.get_u8()?;\n",
            "        out |= ((b & 0x7f) as u64) << (7 * i);\n",
            "        i += 1;\n",
        ),
    );
    fx.write("crates/wire/src/v2.rs", &src);
    fx.write("crates/wire/src/symtab.rs", &base_symtab_rs());
    let report = fx.run();
    let w005: Vec<_> = report.new.iter().filter(|f| f.rule == "W005").collect();
    assert_eq!(w005.len(), 1, "{:?}", report.new);
    assert_eq!(w005[0].file, "crates/wire/src/v2.rs");
    assert!(w005[0].message.contains("get_varint"), "{}", w005[0].message);
}

#[test]
fn w005_unbounded_symbol_definition_loop() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/v2.rs", &base_v2_rs());
    let src = base_symtab_rs().replace(
        concat!(
            "            if len > MAX_FRAME_LEN {\n",
            "                return Err(WireError::Invalid(\"symbol too long\"));\n",
            "            }\n",
        ),
        "",
    );
    fx.write("crates/wire/src/symtab.rs", &src);
    let report = fx.run();
    let w005: Vec<_> = report.new.iter().filter(|f| f.rule == "W005").collect();
    assert_eq!(w005.len(), 1, "{:?}", report.new);
    assert_eq!(w005[0].file, "crates/wire/src/symtab.rs");
    assert!(w005[0].message.contains("decode_ref"), "{}", w005[0].message);
}

#[test]
fn w005_is_suppressable_with_reason() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/v2.rs", &base_v2_rs());
    let src = base_symtab_rs()
        .replace(
            concat!(
                "            if len > MAX_FRAME_LEN {\n",
                "                return Err(WireError::Invalid(\"symbol too long\"));\n",
                "            }\n",
            ),
            "",
        )
        .replace(
            "    pub fn decode_ref",
            concat!(
                "    // nb-lint::allow(W005, reason = \"fixture: bound lands next PR\")\n",
                "    pub fn decode_ref",
            ),
        );
    fx.write("crates/wire/src/symtab.rs", &src);
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "W005");
}

#[test]
fn w_rules_are_suppressable() {
    let fx = Fixture::new();
    fx.write("crates/wire/src/message.rs", &base_message_rs());
    // Same W002 mutant as above, but with a justified allow directly
    // above the peek-table match.
    let src = base_frame_rs()
        .replace("        TAG_BETA => Some(0u128),\n", "")
        .replace(
            "    let uuid = match tag {",
            concat!(
                "    // nb-lint::allow(W002, reason = \"fixture: Beta peek lands next PR\")\n",
                "    let uuid = match tag {",
            ),
        );
    fx.write("crates/wire/src/frame.rs", &src);
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].rule, "W002");
}

/// The wire pass only runs against the canonical workspace paths: a
/// message.rs elsewhere (fixtures, unrelated crates) is not conformance
/// checked.
#[test]
fn pass_is_scoped_to_canonical_paths() {
    let fx = Fixture::new();
    // Would be riddled with W-findings if it were checked.
    fx.write(
        "crates/other/src/message.rs",
        "pub enum Message { A }\npub(crate) const TAG_A: u8 = 1;\npub(crate) const TAG_B: u8 = 1;\n",
    );
    // An unbounded decode loop outside the canonical v2/symtab paths is
    // not W005's business either.
    fx.write(
        "crates/other/src/v2.rs",
        concat!(
            "pub fn decode_all(xs: &[u8]) -> usize {\n",
            "    let mut n = 0;\n",
            "    for _ in xs {\n",
            "        n += 1;\n",
            "    }\n",
            "    n\n",
            "}\n",
        ),
    );
    let report = fx.run();
    assert!(rules(&report).is_empty(), "{:?}", report.new);
}
