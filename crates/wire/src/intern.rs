//! The process interners: topic segments and whole topic strings as
//! small integer ids.
//!
//! Every `/`-separated topic segment in the process is registered in one
//! crate-level segment table and mapped to a dense [`SegId`]. Topics and
//! filters resolve their segments exactly once — at parse/decode time —
//! and matching, subsumption and the broker's subscription trie then
//! operate on `&[SegId]` integer slices, never on `str::split`.
//!
//! Beside it sits the **symbol table**: every whole topic or filter
//! string that crosses a v2 link is registered once per process and
//! mapped to a dense [`SymId`], with its parse as a [`Topic`] and as a
//! [`TopicFilter`] cached on the entry the first time each is asked for.
//! The per-link tables of [`crate::symtab`] are integer views over these
//! ids, so a warm reference encodes as an index and decodes as a clone
//! of the cached parse — no string is compared, copied or re-split on
//! the hop.
//!
//! # Determinism
//!
//! The table is insertion-ordered: the id of a segment is the number of
//! distinct segments interned before it. Under concurrent interning the
//! *numeric values* therefore depend on thread interleaving — which is
//! fine, because ids are a process-local compression and never leak into
//! anything observable: they are compared only for *equality* during
//! matching, trie children are looked up by key (never iterated into
//! output), and every destination list the broker emits is ordered by
//! [`Destination`](../../nb_broker/topics/enum.Destination.html)'s own
//! `Ord`, not by segment id. The lookup index is a `BTreeMap`, so there
//! is no hash-iteration order to leak either (clippy.toml's hash-map
//! method list applies to this module as to every simulated crate).
//!
//! Wildcard filter segments are represented by two reserved sentinel ids
//! at the top of the id space ([`SegId::STAR`], [`SegId::MULTI`]);
//! concrete segments can never collide with them because the table
//! refuses to grow that far (a process would need ~4.29 billion distinct
//! segments first).
//!
//! # Growth
//!
//! Neither table ever shrinks. A peer that streams endless distinct
//! topic strings grows the symbol table by one entry per string — exactly
//! as the segments of those strings already grow the segment table, and
//! bounded the same way: by the bytes the peer manages to deliver (each
//! definition is capped at `MAX_FRAME_LEN` and must be valid UTF-8 before
//! it is interned). The per-link views stay capped at
//! `MAX_SYMBOLS` entries each, so the
//! symbol table adds no new class of exposure.
#![expect(
    clippy::disallowed_types,
    reason = "the two process-wide tables are shared by the sharded engine's workers; \
              ids never reach anything observable (see Determinism above)"
)]

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::topic::{Topic, TopicError, TopicFilter};

/// Maximum number of segments in a topic or filter. Hostile frames with
/// absurdly deep topics are rejected at decode time ([`TopicError::TooDeep`])
/// instead of ballooning tries and match walks; the paper's well-known
/// topics are depth 3.
pub(crate) const MAX_TOPIC_DEPTH: usize = 32;

/// An interned topic segment (or a wildcard sentinel).
///
/// `Ord`/`Hash` follow the raw id — adequate for map keys, but note the
/// id order is interning order, not lexicographic order of the segment
/// text; nothing observable may be ordered by it (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegId(u32);

impl SegId {
    /// The `*` single-segment wildcard (filters only).
    pub const STAR: SegId = SegId(u32::MAX);
    /// The `**` zero-or-more-trailing-segments wildcard (filters only).
    pub const MULTI: SegId = SegId(u32::MAX - 1);

    /// The raw id value (diagnostics).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Debug for SegId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SegId::STAR => f.write_str("SegId(*)"),
            SegId::MULTI => f.write_str("SegId(**)"),
            SegId(id) => write!(f, "SegId({id})"),
        }
    }
}

fn table() -> &'static RwLock<BTreeMap<Box<str>, u32>> {
    static TABLE: OnceLock<RwLock<BTreeMap<Box<str>, u32>>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Interns one segment, returning its id. Existing segments take only a
/// read lock (the overwhelmingly common case after warm-up).
pub fn intern(seg: &str) -> SegId {
    let t = table();
    {
        let read = t.read().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = read.get(seg) {
            return SegId(id);
        }
    }
    let mut write = t.write().unwrap_or_else(|p| p.into_inner());
    let next = write.len() as u32;
    assert!(
        next < SegId::MULTI.0,
        "segment interner exhausted the id space below the wildcard sentinels"
    );
    SegId(*write.entry(seg.into()).or_insert(next))
}

/// A whole topic or filter string interned in the process symbol table.
///
/// Like [`SegId`], the numeric value is interning order and purely
/// process-local: it never crosses the wire (links ship their own
/// first-use-ordered ids, see [`crate::symtab`]) and nothing observable
/// is ordered by it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SymId(u32);

impl SymId {
    /// The raw id value: dense from zero, so per-link tables index by it.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One symbol: the raw string plus its lazily cached parses. A string
/// may legitimately be asked for as both (`a/b` is a topic and an exact
/// filter); an invalid parse is cached too, so a hostile definition is
/// validated once, not once per reference.
struct Symbol {
    raw: Arc<str>,
    topic: OnceLock<Result<Topic, TopicError>>,
    filter: OnceLock<Result<TopicFilter, TopicError>>,
}

#[derive(Default)]
struct SymbolTable {
    ids: BTreeMap<Arc<str>, u32>,
    symbols: Vec<Symbol>,
}

fn symbols() -> &'static RwLock<SymbolTable> {
    static SYMBOLS: OnceLock<RwLock<SymbolTable>> = OnceLock::new();
    SYMBOLS.get_or_init(|| RwLock::new(SymbolTable::default()))
}

/// Interns one whole topic/filter string, returning its id. Known
/// strings take only a read lock.
pub fn intern_symbol(s: &str) -> SymId {
    let t = symbols();
    {
        let read = t.read().unwrap_or_else(|p| p.into_inner());
        if let Some(&id) = read.ids.get(s) {
            return SymId(id);
        }
    }
    let mut write = t.write().unwrap_or_else(|p| p.into_inner());
    if let Some(&id) = write.ids.get(s) {
        return SymId(id);
    }
    let id = u32::try_from(write.symbols.len()).expect("symbol table exhausted the u32 id space");
    let raw: Arc<str> = Arc::from(s);
    write.ids.insert(Arc::clone(&raw), id);
    write.symbols.push(Symbol { raw, topic: OnceLock::new(), filter: OnceLock::new() });
    SymId(id)
}

fn with_symbol<R>(id: SymId, f: impl FnOnce(&Symbol) -> R) -> R {
    let read = symbols().read().unwrap_or_else(|p| p.into_inner());
    f(&read.symbols[id.index()])
}

/// The string `id` was interned from.
pub fn symbol_str(id: SymId) -> Arc<str> {
    with_symbol(id, |s| Arc::clone(&s.raw))
}

/// The symbol parsed as a concrete [`Topic`]: parsed on first request,
/// a clone of the cached value ever after.
pub fn symbol_topic(id: SymId) -> Result<Topic, TopicError> {
    with_symbol(id, |s| s.topic.get_or_init(|| Topic::parse_symbol(id, &s.raw)).clone())
}

/// The symbol parsed as a [`TopicFilter`], cached like
/// [`symbol_topic`].
pub fn symbol_filter(id: SymId) -> Result<TopicFilter, TopicError> {
    with_symbol(id, |s| s.filter.get_or_init(|| TopicFilter::parse_symbol(id, &s.raw)).clone())
}

/// A `SmallVec`-style segment-id sequence: topics up to `INLINE`
/// segments deep (every well-known topic, and the proptest corpus) live
/// entirely inline; deeper ones spill to the heap once at parse time.
pub(crate) enum SegVec {
    Inline(u8, [SegId; SegVec::INLINE]),
    Spill(Vec<SegId>),
}

impl SegVec {
    const INLINE: usize = 6;

    /// An empty sequence.
    fn new() -> SegVec {
        SegVec::Inline(0, [SegId(0); SegVec::INLINE])
    }

    /// Appends one id (spilling to the heap past the inline capacity).
    fn push(&mut self, id: SegId) {
        match self {
            SegVec::Inline(len, ids) if usize::from(*len) < SegVec::INLINE => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            SegVec::Inline(_, ids) => {
                let mut spill = ids.to_vec();
                spill.push(id);
                *self = SegVec::Spill(spill);
            }
            SegVec::Spill(spill) => spill.push(id),
        }
    }

    /// The ids as a slice.
    pub(crate) fn as_slice(&self) -> &[SegId] {
        match self {
            SegVec::Inline(len, ids) => &ids[..usize::from(*len)],
            SegVec::Spill(spill) => spill,
        }
    }

    /// Number of ids.
    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

impl std::fmt::Debug for SegVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Resolves a concrete topic string in one pass: split, validate (empty
/// segments, wildcards, depth cap) and intern together, so wire decode
/// touches each byte once.
pub(crate) fn resolve_topic(s: &str) -> Result<SegVec, TopicError> {
    if s.is_empty() {
        return Err(TopicError::EmptySegment);
    }
    let mut segs = SegVec::new();
    for seg in s.split('/') {
        if seg.is_empty() {
            return Err(TopicError::EmptySegment);
        }
        if seg == "*" || seg == "**" {
            return Err(TopicError::WildcardInTopic);
        }
        if segs.len() == MAX_TOPIC_DEPTH {
            return Err(TopicError::TooDeep);
        }
        segs.push(intern(seg));
    }
    Ok(segs)
}

/// Resolves a filter string in one pass; wildcards become the sentinel
/// ids and `**` is checked for final position on the fly.
pub(crate) fn resolve_filter(s: &str) -> Result<SegVec, TopicError> {
    if s.is_empty() {
        return Err(TopicError::EmptySegment);
    }
    let mut segs = SegVec::new();
    let mut multi_seen = false;
    for seg in s.split('/') {
        if seg.is_empty() {
            return Err(TopicError::EmptySegment);
        }
        if multi_seen {
            return Err(TopicError::MultiWildcardNotLast);
        }
        if segs.len() == MAX_TOPIC_DEPTH {
            return Err(TopicError::TooDeep);
        }
        match seg {
            "*" => segs.push(SegId::STAR),
            "**" => {
                segs.push(SegId::MULTI);
                multi_seen = true;
            }
            _ => segs.push(intern(seg)),
        }
    }
    Ok(segs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_distinct() {
        let a1 = intern("intern-test-alpha");
        let b = intern("intern-test-beta");
        let a2 = intern("intern-test-alpha");
        assert_eq!(a1, a2, "same segment, same id");
        assert_ne!(a1, b, "distinct segments, distinct ids");
        assert!(![SegId::STAR, SegId::MULTI].contains(&a1));
    }

    #[test]
    fn sentinels_are_wildcards_and_reserved() {
        assert_ne!(SegId::STAR, SegId::MULTI);
        // A literal asterisk *inside* a segment is an ordinary segment.
        assert!(![SegId::STAR, SegId::MULTI].contains(&intern("a*b")));
    }

    #[test]
    fn segvec_spills_past_inline_capacity() {
        assert_eq!(std::mem::size_of::<SegVec>(), 32, "six ids inline, or a spilled Vec");
        let mut v = SegVec::new();
        assert!(v.as_slice().is_empty());
        let ids: Vec<SegId> = (0..SegVec::INLINE + 3)
            .map(|i| intern(&format!("segvec-spill-{i}")))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            v.push(id);
            assert_eq!(v.len(), i + 1);
            assert_eq!(v.as_slice(), &ids[..=i], "slice stable across the spill boundary");
        }
    }

    #[test]
    fn resolve_topic_validates_in_one_pass() {
        assert!(resolve_topic("a/b/c").is_ok());
        assert_eq!(resolve_topic("").err(), Some(TopicError::EmptySegment));
        assert_eq!(resolve_topic("a//b").err(), Some(TopicError::EmptySegment));
        assert_eq!(resolve_topic("a/*").err(), Some(TopicError::WildcardInTopic));
        let deep = vec!["d"; MAX_TOPIC_DEPTH + 1].join("/");
        assert_eq!(resolve_topic(&deep).err(), Some(TopicError::TooDeep));
        let at_cap = vec!["d"; MAX_TOPIC_DEPTH].join("/");
        assert_eq!(resolve_topic(&at_cap).unwrap().len(), MAX_TOPIC_DEPTH);
    }

    #[test]
    fn resolve_filter_places_sentinels() {
        let segs = resolve_filter("a/*/b/**").unwrap();
        let s = segs.as_slice();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1], SegId::STAR);
        assert_eq!(s[3], SegId::MULTI);
        assert_eq!(resolve_filter("a/**/b").err(), Some(TopicError::MultiWildcardNotLast));
        assert_eq!(resolve_filter("**/").err(), Some(TopicError::EmptySegment));
        let deep = vec!["d"; MAX_TOPIC_DEPTH + 1].join("/");
        assert_eq!(resolve_filter(&deep).err(), Some(TopicError::TooDeep));
    }
}
