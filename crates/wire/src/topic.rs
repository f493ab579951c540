//! Topics and subscription filters.
//!
//! Paper §1: *"In its simplest form these topics are typically `/`
//! separated Strings"*. A [`Topic`] is a concrete, wildcard-free topic an
//! event is published on; a [`TopicFilter`] is what a subscriber
//! registers and may contain wildcards:
//!
//! * `*`  — matches exactly one segment,
//! * `**` — matches zero or more trailing segments (only legal as the
//!   final segment).
//!
//! Each is one pointer to a shared parse that carries its segments
//! pre-resolved to interned [`SegId`]s (see [`crate::intern`]), computed
//! exactly once at parse/decode time, so [`TopicFilter::matches`] and
//! [`TopicFilter::subsumes`] are integer-slice walks that never re-split
//! the string. The well-known discovery topics of the paper are exported as
//! constants, and as process-wide [`WellKnownTopic`] values parsed once.

use crate::codec::{Wire, WireError, WireReader, WireWriter};
use crate::intern::{self, SegId, SegVec, SymId};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The public topic every BDN subscribes to for broker advertisements
/// (paper §2.3).
pub const BROKER_ADVERTISEMENT_TOPIC: &str = "Services/BrokerDiscoveryNodes/BrokerAdvertisement";

/// The predefined topic brokers use to propagate discovery requests
/// through the overlay (paper §10: "brokers also propagate discovery
/// requests on a predefined topic").
pub const DISCOVERY_REQUEST_TOPIC: &str = "Services/BrokerDiscoveryNodes/DiscoveryRequest";

/// Topic used by private BDNs to advertise their own services to brokers
/// (paper §2.4).
pub const BDN_ADVERTISEMENT_TOPIC: &str = "Services/BrokerDiscoveryNodes/BdnAdvertisement";

/// [`BROKER_ADVERTISEMENT_TOPIC`], parsed once per process.
pub static BROKER_ADVERTISEMENT: WellKnownTopic = WellKnownTopic::new(BROKER_ADVERTISEMENT_TOPIC);
/// [`DISCOVERY_REQUEST_TOPIC`], parsed once per process.
pub static DISCOVERY_REQUEST: WellKnownTopic = WellKnownTopic::new(DISCOVERY_REQUEST_TOPIC);
/// [`BDN_ADVERTISEMENT_TOPIC`], parsed once per process.
pub static BDN_ADVERTISEMENT: WellKnownTopic = WellKnownTopic::new(BDN_ADVERTISEMENT_TOPIC);

/// A well-known topic constant as a process-wide value. The first read
/// interns the string in the process symbol table (see
/// [`crate::intern`]), which caches its parse as a [`Topic`] and as a
/// [`TopicFilter`]; every read hands out a clone of that one parse, the
/// string shared and nothing allocated. The values are equal to
/// `parse` of the constant whichever thread reads first.
pub struct WellKnownTopic {
    raw: &'static str,
    sym: OnceLock<SymId>,
}

impl WellKnownTopic {
    const fn new(raw: &'static str) -> WellKnownTopic {
        WellKnownTopic { raw, sym: OnceLock::new() }
    }

    fn symbol(&self) -> SymId {
        *self.sym.get_or_init(|| intern::intern_symbol(self.raw))
    }

    /// The constant as a concrete topic.
    pub fn topic(&self) -> Topic {
        intern::symbol_topic(self.symbol()).expect("a well-known topic constant parses as a topic")
    }

    /// The constant as an exact filter.
    pub fn filter(&self) -> TopicFilter {
        intern::symbol_filter(self.symbol()).expect("a well-known topic constant parses as a filter")
    }
}

/// Errors raised by topic/filter validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopicError {
    /// Empty topic string, or an empty segment (`a//b`).
    EmptySegment,
    /// A concrete topic contained a wildcard character.
    WildcardInTopic,
    /// `**` appeared somewhere other than the final segment.
    MultiWildcardNotLast,
    /// More than `MAX_TOPIC_DEPTH` (32) segments (hostile frames).
    TooDeep,
}

impl fmt::Display for TopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicError::EmptySegment => f.write_str("topic has an empty segment"),
            TopicError::WildcardInTopic => f.write_str("concrete topic may not contain wildcards"),
            TopicError::MultiWildcardNotLast => f.write_str("`**` is only legal as the final segment"),
            TopicError::TooDeep => f.write_str("topic exceeds the maximum segment depth"),
        }
    }
}

impl std::error::Error for TopicError {}

/// One immutable parse of a topic or filter string: the string, its
/// segment ids and its process symbol id, cached on the first
/// [`Topic::symbol`] call (or known up front when the parse came out of
/// the symbol table). [`Topic`] and [`TopicFilter`] are each one `Arc`
/// to a parse, so a clone is one refcount bump and
/// [`TopicFilter::exact`] shares its topic's parse.
///
/// Equality, ordering and hashing follow the string (segment ids are a
/// derived cache), so map/set ordering over topics is byte-stable across
/// processes regardless of interning order.
#[derive(Debug)]
struct Parse {
    raw: Box<str>,
    segs: SegVec,
    sym: OnceLock<SymId>,
}

impl Parse {
    fn new(
        s: &str,
        resolve: fn(&str) -> Result<SegVec, TopicError>,
        sym: OnceLock<SymId>,
    ) -> Result<Arc<Parse>, TopicError> {
        Ok(Arc::new(Parse { segs: resolve(s)?, raw: s.into(), sym }))
    }

    fn symbol(&self) -> SymId {
        *self.sym.get_or_init(|| intern::intern_symbol(&self.raw))
    }
}

impl PartialEq for Parse {
    fn eq(&self, other: &Parse) -> bool {
        self.raw == other.raw
    }
}
impl Eq for Parse {}
impl PartialOrd for Parse {
    fn partial_cmp(&self, other: &Parse) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Parse {
    fn cmp(&self, other: &Parse) -> std::cmp::Ordering {
        self.raw.cmp(&other.raw)
    }
}
impl std::hash::Hash for Parse {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}
impl fmt::Display for Parse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.raw)
    }
}

/// A concrete (wildcard-free) `/`-separated topic: one pointer to a
/// shared parse. Eq/Ord/Hash/Display follow the string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Topic(Arc<Parse>);

impl Topic {
    /// Parses and validates a concrete topic.
    pub fn parse(s: &str) -> Result<Topic, TopicError> {
        Parse::new(s, intern::resolve_topic, OnceLock::new()).map(Topic)
    }

    /// Parses the string symbol `sym` was interned from.
    pub(crate) fn parse_symbol(sym: SymId, s: &str) -> Result<Topic, TopicError> {
        Parse::new(s, intern::resolve_topic, OnceLock::from(sym)).map(Topic)
    }

    /// This topic's id in the process symbol table (see
    /// [`intern`](crate::intern)): the v2 encoder references topics by
    /// it. A topic that did not come from the table interns its string
    /// on the first call and caches the id in its parse.
    pub fn symbol(&self) -> SymId {
        self.0.symbol()
    }

    /// The raw topic string.
    pub fn as_str(&self) -> &str {
        &self.0.raw
    }

    /// The interned segment ids (wildcard-free by construction).
    pub fn seg_ids(&self) -> &[SegId] {
        self.0.segs.as_slice()
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A subscription filter, possibly containing wildcards: one pointer to
/// a shared parse, like [`Topic`].
///
/// ```
/// use nb_wire::{Topic, TopicFilter};
///
/// let topic = Topic::parse("Services/BrokerDiscoveryNodes/BrokerAdvertisement").unwrap();
/// let all_services = TopicFilter::parse("Services/**").unwrap();
/// let one_level = TopicFilter::parse("Services/*").unwrap();
/// assert!(all_services.matches(&topic));
/// assert!(!one_level.matches(&topic)); // `*` spans exactly one segment
/// assert!(all_services.subsumes(&one_level));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicFilter(Arc<Parse>);

impl TopicFilter {
    /// Parses and validates a filter.
    pub fn parse(s: &str) -> Result<TopicFilter, TopicError> {
        Parse::new(s, intern::resolve_filter, OnceLock::new()).map(TopicFilter)
    }

    /// Parses the string symbol `sym` was interned from.
    pub(crate) fn parse_symbol(sym: SymId, s: &str) -> Result<TopicFilter, TopicError> {
        Parse::new(s, intern::resolve_filter, OnceLock::from(sym)).map(TopicFilter)
    }

    /// This filter's id in the process symbol table; see
    /// [`Topic::symbol`].
    pub fn symbol(&self) -> SymId {
        self.0.symbol()
    }

    /// A filter that matches exactly one concrete topic: the topic's
    /// own parse, shared.
    pub fn exact(topic: &Topic) -> TopicFilter {
        TopicFilter(Arc::clone(&topic.0))
    }

    /// The raw filter string.
    pub fn as_str(&self) -> &str {
        &self.0.raw
    }

    /// The interned segment ids; wildcards are the sentinel ids
    /// [`SegId::STAR`] and [`SegId::MULTI`].
    pub fn seg_ids(&self) -> &[SegId] {
        self.0.segs.as_slice()
    }

    /// Whether this filter matches `topic`.
    pub fn matches(&self, topic: &Topic) -> bool {
        self.matches_ids(topic.seg_ids())
    }

    /// [`TopicFilter::matches`] against a pre-resolved (wildcard-free)
    /// topic id slice — the form the broker's trie and memo operate on.
    pub fn matches_ids(&self, topic: &[SegId]) -> bool {
        let f = self.seg_ids();
        let mut i = 0;
        loop {
            match (f.get(i), topic.get(i)) {
                (None, None) => return true,
                (Some(&SegId::MULTI), _) => return true, // `**` swallows the rest (incl. zero)
                (Some(_), None) | (None, Some(_)) => return false,
                (Some(&fs), Some(&ts)) => {
                    if fs != SegId::STAR && fs != ts {
                        return false;
                    }
                }
            }
            i += 1;
        }
    }

    /// Whether every topic matched by `other` is also matched by `self`
    /// (filter covering). Brokers can use this to skip propagating a
    /// subscription already covered by a broader one.
    pub fn subsumes(&self, other: &TopicFilter) -> bool {
        fn go(f: &[SegId], g: &[SegId]) -> bool {
            match (f.first(), g.first()) {
                (None, None) => true,
                // `**` swallows anything g may still produce.
                (Some(&SegId::MULTI), _) => true,
                // f is exhausted but g still requires segments (g == "**"
                // could also match zero further segments only if f is
                // also done — handled above by (None, None)).
                (None, Some(_)) => false,
                (Some(_), None) => false,
                (Some(&fs), Some(&gs)) => {
                    if gs == SegId::MULTI {
                        // g matches arbitrarily long suffixes; only `**`
                        // on f's side can cover that (handled above).
                        false
                    } else if fs == SegId::STAR || fs == gs {
                        go(&f[1..], &g[1..])
                    } else {
                        false
                    }
                }
            }
        }
        go(self.seg_ids(), other.seg_ids())
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Wire for Topic {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self.as_str());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Topic::parse(r.get_str_ref()?).map_err(|_| WireError::Invalid("topic"))
    }
}

impl Wire for TopicFilter {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self.as_str());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        TopicFilter::parse(r.get_str_ref()?).map_err(|_| WireError::Invalid("topic filter"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::MAX_TOPIC_DEPTH;

    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }
    fn f(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }
    /// Whether `s` is one of the two wildcard sentinels.
    fn is_sentinel(s: &SegId) -> bool {
        [SegId::STAR, SegId::MULTI].contains(s)
    }

    #[test]
    fn exact_match() {
        assert!(f("a/b/c").matches(&t("a/b/c")));
        assert!(!f("a/b/c").matches(&t("a/b")));
        assert!(!f("a/b").matches(&t("a/b/c")));
        assert!(!f("a/b/c").matches(&t("a/b/d")));
    }

    #[test]
    fn single_segment_wildcard() {
        assert!(f("a/*/c").matches(&t("a/b/c")));
        assert!(f("a/*/c").matches(&t("a/x/c")));
        assert!(!f("a/*/c").matches(&t("a/b/b/c")));
        assert!(!f("*").matches(&t("a/b")));
        assert!(f("*").matches(&t("a")));
    }

    #[test]
    fn multi_segment_wildcard() {
        assert!(f("a/**").matches(&t("a")));
        assert!(f("a/**").matches(&t("a/b")));
        assert!(f("a/**").matches(&t("a/b/c/d")));
        assert!(!f("a/**").matches(&t("b/a")));
        assert!(f("**").matches(&t("anything/at/all")));
    }

    #[test]
    fn multi_wildcard_must_be_last() {
        assert_eq!(TopicFilter::parse("a/**/b"), Err(TopicError::MultiWildcardNotLast));
        assert!(TopicFilter::parse("a/b/**").is_ok());
    }

    #[test]
    fn empty_segments_rejected() {
        assert_eq!(Topic::parse(""), Err(TopicError::EmptySegment));
        assert_eq!(Topic::parse("a//b"), Err(TopicError::EmptySegment));
        assert_eq!(Topic::parse("/a"), Err(TopicError::EmptySegment));
        assert_eq!(Topic::parse("a/"), Err(TopicError::EmptySegment));
        assert_eq!(TopicFilter::parse(""), Err(TopicError::EmptySegment));
    }

    #[test]
    fn wildcards_rejected_in_concrete_topics() {
        assert_eq!(Topic::parse("a/*/c"), Err(TopicError::WildcardInTopic));
        assert_eq!(Topic::parse("a/**"), Err(TopicError::WildcardInTopic));
    }

    #[test]
    fn a_topic_is_one_pointer_and_an_event_fits_a_cache_line() {
        use std::mem::size_of;
        assert_eq!(size_of::<Topic>(), size_of::<usize>());
        assert_eq!(size_of::<TopicFilter>(), size_of::<usize>());
        let event = size_of::<crate::Event>();
        assert!(event <= 64, "an Event is {event} B");
    }

    #[test]
    fn exact_filter_matches_only_its_topic() {
        let topic = t("Services/BrokerDiscoveryNodes/BrokerAdvertisement");
        let filter = TopicFilter::exact(&topic);
        assert_eq!(filter.seg_ids(), topic.seg_ids(), "no wildcard");
        assert!(std::ptr::eq(filter.as_str(), topic.as_str()), "one parse, shared");
        assert!(filter.matches(&topic));
        assert!(!filter.matches(&t("Services/BrokerDiscoveryNodes/DiscoveryRequest")));
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "reads the process-wide values from several threads, as the sharded engine's workers do"
    )]
    fn well_known_topics_are_valid() {
        let all = [
            (&BROKER_ADVERTISEMENT, BROKER_ADVERTISEMENT_TOPIC),
            (&DISCOVERY_REQUEST, DISCOVERY_REQUEST_TOPIC),
            (&BDN_ADVERTISEMENT, BDN_ADVERTISEMENT_TOPIC),
        ];
        for (wk, s) in all {
            let (topic, filter) = (Topic::parse(s).unwrap(), TopicFilter::parse(s).unwrap());
            assert_eq!(wk.topic(), topic);
            assert_eq!(wk.topic().seg_ids(), topic.seg_ids());
            assert_eq!(wk.filter(), filter);
            assert_eq!(wk.filter().seg_ids(), filter.seg_ids());
            // Every read is a clone of one parse: the string is shared.
            assert!(std::ptr::eq(wk.topic().as_str(), wk.topic().as_str()), "{s}");
            assert!(std::ptr::eq(wk.filter().as_str(), wk.filter().as_str()), "{s}");
        }
        let reads: Vec<Vec<(Topic, TopicFilter)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || all.map(|(wk, _)| (wk.topic(), wk.filter())).to_vec()))
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for read in &reads {
            for ((topic, filter), (wk, _)) in read.iter().zip(all) {
                assert_eq!((topic, filter), (&wk.topic(), &wk.filter()));
                assert_eq!(topic.seg_ids(), wk.topic().seg_ids());
                assert!(std::ptr::eq(topic.as_str(), wk.topic().as_str()));
            }
        }
    }

    #[test]
    fn wire_roundtrip() {
        let topic = t("a/b/c");
        assert_eq!(Topic::from_bytes(&topic.to_bytes()).unwrap(), topic);
        let filter = f("a/*/c/**");
        assert_eq!(TopicFilter::from_bytes(&filter.to_bytes()).unwrap(), filter);
    }

    #[test]
    fn wire_decode_validates() {
        use crate::codec::WireWriter;
        let mut w = WireWriter::new();
        w.put_str("a//b");
        assert!(matches!(Topic::from_bytes(&w.finish()), Err(WireError::Invalid("topic"))));
    }

    #[test]
    fn wire_decode_rejects_over_deep_topics() {
        use crate::codec::WireWriter;
        // A hostile frame with one segment over the depth cap must be a
        // decode error for both topics and filters…
        let deep = vec!["s"; MAX_TOPIC_DEPTH + 1].join("/");
        let mut w = WireWriter::new();
        w.put_str(&deep);
        let bytes = w.finish();
        assert!(matches!(Topic::from_bytes(&bytes), Err(WireError::Invalid("topic"))));
        assert!(matches!(
            TopicFilter::from_bytes(&bytes),
            Err(WireError::Invalid("topic filter"))
        ));
        assert_eq!(Topic::parse(&deep), Err(TopicError::TooDeep));
        // …while exactly the cap is legal.
        let at_cap = vec!["s"; MAX_TOPIC_DEPTH].join("/");
        let topic = Topic::parse(&at_cap).unwrap();
        assert_eq!(topic.seg_ids().len(), MAX_TOPIC_DEPTH);
        assert_eq!(Topic::from_bytes(&topic.to_bytes()).unwrap(), topic);
    }

    #[test]
    fn seg_ids_align_with_segments() {
        let topic = t("Services/BrokerDiscoveryNodes/BrokerAdvertisement");
        assert_eq!(topic.seg_ids().len(), 3);
        assert!(!topic.seg_ids().iter().any(is_sentinel));
        // Shared segments intern to the same ids across values.
        let other = t("Services/BrokerDiscoveryNodes/DiscoveryRequest");
        assert_eq!(topic.seg_ids()[..2], other.seg_ids()[..2]);
        assert_ne!(topic.seg_ids()[2], other.seg_ids()[2]);
        // Filters share the same table; sentinel wildcards are distinct.
        let filter = f("Services/*/BrokerAdvertisement");
        assert_eq!(filter.seg_ids()[0], topic.seg_ids()[0]);
        assert_eq!(filter.seg_ids()[1], SegId::STAR);
        assert_eq!(filter.seg_ids()[2], topic.seg_ids()[2]);
    }

    #[test]
    fn subsumption_basics() {
        assert!(f("a/**").subsumes(&f("a/b")));
        assert!(f("a/**").subsumes(&f("a/*/c")));
        assert!(f("a/**").subsumes(&f("a/**")));
        assert!(f("**").subsumes(&f("x/y/z")));
        assert!(f("a/*").subsumes(&f("a/b")));
        assert!(f("a/*").subsumes(&f("a/*")));
        assert!(!f("a/b").subsumes(&f("a/*")));
        assert!(!f("a/*").subsumes(&f("a/**")), "`a/**` also matches deeper topics");
        assert!(!f("a/*").subsumes(&f("b/c")));
        assert!(!f("a").subsumes(&f("a/b")));
        assert!(f("a/b").subsumes(&f("a/b")));
    }

    #[test]
    fn is_wildcard_detection() {
        let wild = |s: &str| f(s).seg_ids().iter().any(is_sentinel);
        assert!(wild("a/*"));
        assert!(wild("**"));
        assert!(!wild("a/b"));
        // a segment merely *containing* an asterisk is not a wildcard
        assert!(!wild("a*b/c"));
    }
}
