//! Per-link topic symbol tables for the v2 wire codec.
//!
//! A v2 sender and receiver each keep one table per directed link. The
//! first time a topic (or filter) string crosses the link it ships as an
//! inline definition — `varint 0`, then the UTF-8 bytes — and both sides
//! append it, assigning the next dense id in first-use order. Every
//! later use ships `varint (id + 1)` instead of the string. Ids are
//! **link-local**: two links to the same peer can disagree on ids
//! without either being wrong.
//!
//! The tables hold no strings. Each is an integer *view* of the
//! process-wide symbol table in [`intern`](crate::intern): the writer
//! maps a process [`SymId`] to the id this link assigned it, the reader
//! maps a link id back to the [`SymId`], and the string, its parsed
//! [`Topic`](crate::Topic) and its parsed
//! [`TopicFilter`](crate::TopicFilter) live once per process on the
//! interned entry. Process ids never cross the wire — they are
//! interning order, which differs between processes and (under
//! threads) between runs — what does is the deterministic first-use
//! order on this one link.
//!
//! Sync relies on the stream transport being reliable and in-order per
//! link (the sim's per-connection stream FIFO guarantees this), so the
//! decoder sees definitions before references. Corruption must never poison the
//! table: [`SymTabReader::checkpoint`] / [`SymTabReader::rollback`] let
//! a segment decoder undo every definition a failed segment added, so
//! later frames resolve against exactly the state the sender assumed.
//! (The strings such a segment defined stay interned in the process
//! table; that is the growth [`intern`](crate::intern) documents, and it
//! is invisible to every link.)

use crate::codec::{WireError, WireReader, WireWriter};
use crate::intern::{intern_symbol, symbol_str, SymId};
use crate::v2::{get_varint, get_varint_len, put_varint};

/// Cap on distinct symbols per link. A hostile peer streaming endless
/// definitions is cut off here rather than growing the table without
/// bound; legitimate topic working sets are orders of magnitude smaller.
const MAX_SYMBOLS: usize = 65_536;

/// Encoder side: maps process symbol ids to the link-local id this link
/// assigned them, in first-use order.
#[derive(Debug, Default)]
pub struct SymTabWriter {
    /// Indexed by [`SymId::index`]: the link-local id plus one, or zero
    /// for a symbol this link has not shipped yet.
    link_ids: Vec<u32>,
    defined: usize,
}

impl SymTabWriter {
    /// A fresh, empty table.
    pub fn new() -> Self {
        SymTabWriter::default()
    }

    /// Distinct symbols defined so far.
    pub fn len(&self) -> usize {
        self.defined
    }

    /// Whether no symbol has been defined yet.
    pub fn is_empty(&self) -> bool {
        self.defined == 0
    }

    /// Writes a reference to `sym`: the link id if this link has shipped
    /// it before, otherwise an inline definition (which also assigns the
    /// next id). Once the table is full every symbol is sent inline —
    /// correctness degrades to v1-sized output, never to desync.
    pub fn encode_ref(&mut self, w: &mut WireWriter, sym: SymId) {
        let global = sym.index();
        if let Some(&id) = self.link_ids.get(global).filter(|&&id| id != 0) {
            put_varint(w, u64::from(id));
            return;
        }
        if self.defined < MAX_SYMBOLS {
            if self.link_ids.len() <= global {
                self.link_ids.resize(global + 1, 0);
            }
            self.defined += 1;
            self.link_ids[global] = self.defined as u32;
        }
        let sym = symbol_str(sym);
        put_varint(w, 0);
        put_varint(w, sym.len() as u64);
        w.put_raw(sym.as_bytes());
    }
}

/// Decoder side: the definitions received on this link, indexed by the
/// id the sender assigned (= arrival order).
#[derive(Debug, Default)]
pub struct SymTabReader {
    defs: Vec<SymId>,
}

impl SymTabReader {
    /// A fresh, empty table.
    pub fn new() -> Self {
        SymTabReader::default()
    }

    /// Distinct symbols learned so far.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no symbol has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Marks the current table extent. Pair with [`rollback`] around a
    /// segment decode so a corrupt segment cannot leave half its
    /// definitions behind.
    ///
    /// [`rollback`]: SymTabReader::rollback
    pub fn checkpoint(&self) -> usize {
        self.defs.len()
    }

    /// Discards every definition added after `cp` was taken.
    pub fn rollback(&mut self, cp: usize) {
        self.defs.truncate(cp);
    }

    /// Reads one symbol reference as written by
    /// [`SymTabWriter::encode_ref`]: either a known id or an inline
    /// definition, which is interned and recorded for later references.
    /// Every length is bounded against
    /// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN) before the string is
    /// looked at; the caller resolves the returned id through
    /// [`intern::symbol_topic`](crate::intern::symbol_topic) or
    /// [`intern::symbol_filter`](crate::intern::symbol_filter).
    pub fn decode_ref(&mut self, r: &mut WireReader<'_>) -> Result<SymId, WireError> {
        let v = get_varint(r)?;
        if v == 0 {
            let len = get_varint_len(r)?;
            let raw = r.get_raw(len)?;
            let sym = intern_symbol(std::str::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)?);
            if self.defs.len() < MAX_SYMBOLS {
                self.defs.push(sym);
            }
            return Ok(sym);
        }
        let idx = (v - 1) as usize;
        self.defs.get(idx).copied().ok_or(WireError::Invalid("unknown symbol id"))
    }
}

/// The string-keyed tables the interned ones replaced, kept as the
/// oracle the tests below compare against: every byte, every decoded
/// string and every `len()` must agree.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::MAX_SYMBOLS;
    use crate::codec::{WireError, WireReader, WireWriter};
    use crate::frame::MAX_FRAME_LEN;
    use crate::v2::{get_varint, put_varint};

    #[derive(Debug, Default)]
    pub struct SymTabWriter {
        ids: BTreeMap<String, u32>,
    }

    impl SymTabWriter {
        pub fn len(&self) -> usize {
            self.ids.len()
        }

        pub fn encode_ref(&mut self, w: &mut WireWriter, sym: &str) {
            if let Some(&id) = self.ids.get(sym) {
                put_varint(w, u64::from(id) + 1);
                return;
            }
            if self.ids.len() < MAX_SYMBOLS {
                self.ids.insert(sym.to_string(), self.ids.len() as u32);
            }
            put_varint(w, 0);
            put_varint(w, sym.len() as u64);
            w.put_raw(sym.as_bytes());
        }
    }

    #[derive(Debug, Default)]
    pub struct SymTabReader {
        defs: Vec<String>,
    }

    impl SymTabReader {
        pub fn len(&self) -> usize {
            self.defs.len()
        }

        pub fn checkpoint(&self) -> usize {
            self.defs.len()
        }

        pub fn rollback(&mut self, cp: usize) {
            self.defs.truncate(cp);
        }

        pub fn decode_ref(&mut self, r: &mut WireReader<'_>) -> Result<String, WireError> {
            let v = get_varint(r)?;
            if v == 0 {
                let len = get_varint(r)? as usize;
                if len > MAX_FRAME_LEN {
                    return Err(WireError::FieldTooLong(len));
                }
                let raw = r.get_raw(len)?;
                let sym =
                    std::str::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)?.to_string();
                if self.defs.len() < MAX_SYMBOLS {
                    self.defs.push(sym.clone());
                }
                return Ok(sym);
            }
            let idx = (v - 1) as usize;
            self.defs.get(idx).cloned().ok_or(WireError::Invalid("unknown symbol id"))
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::frame::MAX_FRAME_LEN;
    use crate::intern::{symbol_filter, symbol_topic};
    use crate::topic::{Topic, TopicFilter};

    fn roundtrip_one(w: &mut SymTabWriter, r: &mut SymTabReader, sym: &str) -> (usize, String) {
        let mut ww = WireWriter::new();
        w.encode_ref(&mut ww, intern_symbol(sym));
        let bytes = ww.finish();
        let mut rr = WireReader::new(&bytes);
        let back = r.decode_ref(&mut rr).unwrap();
        rr.expect_end().unwrap();
        (bytes.len(), symbol_str(back).to_string())
    }

    fn defs(r: &SymTabReader) -> Vec<String> {
        r.defs.iter().map(|&id| symbol_str(id).to_string()).collect()
    }

    #[test]
    fn first_use_defines_later_uses_reference() {
        let mut w = SymTabWriter::new();
        let mut r = SymTabReader::new();
        let (first_len, back) = roundtrip_one(&mut w, &mut r, "sports/scores");
        assert_eq!(back, "sports/scores");
        assert!(first_len > "sports/scores".len(), "definition ships the string");
        let (second_len, back) = roundtrip_one(&mut w, &mut r, "sports/scores");
        assert_eq!(back, "sports/scores");
        assert_eq!(second_len, 1, "warm reference is one varint byte");
        assert_eq!(w.len(), 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ids_follow_first_use_order() {
        let mut w = SymTabWriter::new();
        let mut r = SymTabReader::new();
        for sym in ["b", "a", "c", "a", "b"] {
            let (_, back) = roundtrip_one(&mut w, &mut r, sym);
            assert_eq!(back, sym);
        }
        assert_eq!(defs(&r), vec!["b", "a", "c"]);
    }

    #[test]
    fn unknown_id_is_a_typed_error() {
        let mut ww = WireWriter::new();
        put_varint(&mut ww, 5); // reference to id 4, never defined
        let bytes = ww.finish();
        let mut r = SymTabReader::new();
        assert_eq!(
            r.decode_ref(&mut WireReader::new(&bytes)),
            Err(WireError::Invalid("unknown symbol id"))
        );
    }

    #[test]
    fn oversized_definition_is_rejected() {
        let mut ww = WireWriter::new();
        put_varint(&mut ww, 0);
        put_varint(&mut ww, (MAX_FRAME_LEN + 1) as u64);
        let bytes = ww.finish();
        let mut r = SymTabReader::new();
        assert!(matches!(
            r.decode_ref(&mut WireReader::new(&bytes)),
            Err(WireError::FieldTooLong(_))
        ));
    }

    #[test]
    fn rollback_discards_definitions_after_checkpoint() {
        let mut w = SymTabWriter::new();
        let mut r = SymTabReader::new();
        roundtrip_one(&mut w, &mut r, "keep");
        let cp = r.checkpoint();
        roundtrip_one(&mut w, &mut r, "drop1");
        roundtrip_one(&mut w, &mut r, "drop2");
        r.rollback(cp);
        assert_eq!(defs(&r), vec!["keep"]);
        // A reference to a rolled-back id now fails instead of resolving
        // to a stale string.
        let mut ww = WireWriter::new();
        put_varint(&mut ww, 2);
        let bytes = ww.finish();
        assert!(r.decode_ref(&mut WireReader::new(&bytes)).is_err());
    }

    #[test]
    fn non_utf8_definition_is_rejected() {
        let mut ww = WireWriter::new();
        put_varint(&mut ww, 0);
        put_varint(&mut ww, 2);
        ww.put_raw(&[0xFF, 0xFE]);
        let bytes = ww.finish();
        let mut r = SymTabReader::new();
        assert_eq!(
            r.decode_ref(&mut WireReader::new(&bytes)),
            Err(WireError::InvalidUtf8)
        );
        assert!(r.is_empty(), "failed definition must not be recorded");
    }

    #[test]
    fn links_assign_ids_independently_over_the_shared_process_table() {
        let (mut wa, mut ra) = (SymTabWriter::new(), SymTabReader::new());
        let (mut wb, mut rb) = (SymTabWriter::new(), SymTabReader::new());
        for sym in ["shared/x", "shared/y"] {
            roundtrip_one(&mut wa, &mut ra, sym);
        }
        // Link B first uses them in the other order: same process ids,
        // opposite link ids, and a cold definition despite A's warmth.
        let (cold, _) = roundtrip_one(&mut wb, &mut rb, "shared/y");
        assert!(cold > "shared/y".len());
        roundtrip_one(&mut wb, &mut rb, "shared/x");
        assert_eq!(defs(&ra), vec!["shared/x", "shared/y"]);
        assert_eq!(defs(&rb), vec!["shared/y", "shared/x"]);
        assert_eq!(ra.defs[0], rb.defs[1], "one process id per string");
    }

    /// One link under both implementations, stepped in lockstep.
    #[derive(Default)]
    struct Pair {
        w: SymTabWriter,
        r: SymTabReader,
        ref_w: reference::SymTabWriter,
        ref_r: reference::SymTabReader,
        cp: Option<usize>,
    }

    impl Pair {
        /// Ships `sym` on this link under both implementations and
        /// checks they agree on the bytes, the decoded string (or the
        /// error — after a rollback the reader may be behind the
        /// writer, and both must be behind identically), its parse in
        /// the requested role, and every table size.
        fn reference(&mut self, sym: &str, as_filter: bool) -> Result<(), TestCaseError> {
            let mut w = WireWriter::new();
            self.w.encode_ref(&mut w, intern_symbol(sym));
            let bytes = w.finish();
            let mut w = WireWriter::new();
            self.ref_w.encode_ref(&mut w, sym);
            prop_assert_eq!(&bytes, &w.finish(), "bytes for {:?}", sym);

            let got = self.r.decode_ref(&mut WireReader::new(&bytes));
            let want = self.ref_r.decode_ref(&mut WireReader::new(&bytes));
            prop_assert_eq!(got.clone().map(|id| symbol_str(id).to_string()), want.clone());
            if let (Ok(id), Ok(want)) = (got, want) {
                if as_filter {
                    let parsed = symbol_filter(id).map(|f| f.as_str().to_string());
                    prop_assert_eq!(parsed, TopicFilter::parse(&want).map(|f| f.to_string()));
                } else {
                    let parsed = symbol_topic(id).map(|t| t.as_str().to_string());
                    prop_assert_eq!(parsed, Topic::parse(&want).map(|t| t.to_string()));
                }
            }
            self.sizes_agree()
        }

        fn sizes_agree(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.w.len(), self.ref_w.len());
            prop_assert_eq!(self.r.len(), self.ref_r.len());
            Ok(())
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Ref { link: usize, sym: usize, as_filter: bool },
        Checkpoint { link: usize },
        Rollback { link: usize },
    }

    const LINKS: usize = 3;
    /// Few enough strings that references repeat; valid topics, filters
    /// that are not topics, and strings that are neither.
    const POOL: [&str; 10] = [
        "a/b", "a/c", "a/b/c", "sports/scores", "a/*", "a/**", "*/b", "a//b", "", "a/**/b",
    ];

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..LINKS, 0..POOL.len(), any::<bool>())
                .prop_map(|(link, sym, as_filter)| Op::Ref { link, sym, as_filter }),
            (0..LINKS, 0..POOL.len(), any::<bool>())
                .prop_map(|(link, sym, as_filter)| Op::Ref { link, sym, as_filter }),
            (0..LINKS).prop_map(|link| Op::Checkpoint { link }),
            (0..LINKS).prop_map(|link| Op::Rollback { link }),
        ]
    }

    proptest! {
        #[test]
        fn interned_tables_match_the_string_keyed_reference(
            ops in prop::collection::vec(arb_op(), 1..80),
        ) {
            let mut links: Vec<Pair> = (0..LINKS).map(|_| Pair::default()).collect();
            for op in ops {
                match op {
                    Op::Ref { link, sym, as_filter } => {
                        links[link].reference(POOL[sym], as_filter)?;
                    }
                    Op::Checkpoint { link } => {
                        let l = &mut links[link];
                        prop_assert_eq!(l.r.checkpoint(), l.ref_r.checkpoint());
                        l.cp = Some(l.r.checkpoint());
                    }
                    Op::Rollback { link } => {
                        let l = &mut links[link];
                        if let Some(cp) = l.cp.take() {
                            l.r.rollback(cp);
                            l.ref_r.rollback(cp);
                            l.sizes_agree()?;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn at_the_cap_every_further_symbol_ships_inline_on_both_implementations() {
        let mut l = Pair::default();
        for i in 0..MAX_SYMBOLS {
            l.reference(&format!("cap/{i}"), false).unwrap();
        }
        assert_eq!(l.w.len(), MAX_SYMBOLS);
        assert_eq!(l.r.len(), MAX_SYMBOLS);
        // Past the cap: inline every time, never recorded, still
        // round-trips (`reference` checks bytes and strings agree).
        for _ in 0..2 {
            let mut w = WireWriter::new();
            l.w.encode_ref(&mut w, intern_symbol("cap/over"));
            assert!(w.len() > "cap/over".len(), "shipped inline");
            l.reference("cap/over", false).unwrap();
            assert_eq!(l.w.len(), MAX_SYMBOLS);
            assert_eq!(l.r.len(), MAX_SYMBOLS);
        }
        // What was defined before the cap stays warm.
        let mut w = WireWriter::new();
        l.w.encode_ref(&mut w, intern_symbol("cap/7"));
        assert_eq!(w.len(), 1);
        l.reference("cap/7", false).unwrap();
    }
}
