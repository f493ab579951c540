//! The subscription table: a segment-id trie with memoized match sets.
//!
//! Tracks which *destinations* (local clients or overlay links) are
//! interested in which topic filters. Link interest is reference-counted:
//! the same filter can be propagated through a link on behalf of several
//! downstream origins, and only disappears when every registration is
//! withdrawn.
//!
//! # Index layout
//!
//! Each filter has one record ([`Interest`]): its registrations as a
//! sorted `(Destination, count)` list and, at a broker, the links it is
//! advertised to. Records live in a trie keyed on interned segment ids
//! ([`nb_wire::SegId`]): one child edge per concrete segment, one `star`
//! edge for `*`, and two record slots per node — `exact` for the filter
//! ending at that node and `multi` for the `prefix/**` filter anchored
//! there — so a filter is found by walking its own ids, never by
//! comparing strings. Matching a topic of depth *d* walks at most `2^d`
//! narrow paths (in practice a handful), instead of evaluating every
//! registered filter: the classic Siena-style content-matching index,
//! O(depth) rather than O(subscriptions).
//!
//! # Memoization
//!
//! [`SubscriptionTable::matches`] caches each topic's sorted match set.
//! The sets lie back to back in one arena, a `Vec<Destination>`, and a
//! hash map takes the topic's segment ids ([`MemoKey`]: inline up to
//! five, boxed past that) to its set's `(start, len)` there, 8 bytes.
//! The dominant traffic — heartbeats, advertisements and discovery
//! floods on the same few well-known topics — therefore routes with
//! **zero allocation and zero trie walk**: one hashed probe, a slice
//! borrowed from the table. A miss walks the trie onto the arena's tail
//! and sorts and deduplicates it there, so a first event allocates only
//! when the arena or the map grows, geometrically. A subscribe or
//! unsubscribe that changes membership (first registration or last
//! withdrawal of a filter at a destination) drops exactly the entries
//! whose topic that filter matches, leaving their sets dead in the
//! arena; refcount-only changes keep the memo intact. Map and arena are
//! reset together when a miss finds [`MEMO_CAP`] entries or an
//! invalidation leaves more dead destinations than live, so the arena
//! holds at most twice what its entries name and nothing walks the map
//! to compact it.
//!
//! # Determinism
//!
//! Match sets are sorted by [`Destination`]'s `Ord` and deduplicated, so
//! the emitted order is byte-identical to the old sorted linear scan
//! (pinned by the chaos seed-11 report digest in
//! `crates/bench/tests/chaos_campaign.rs`). Segment-id *values* vary
//! with interning order but never reach the output: a walk over the
//! records sorts them by filter string before it emits anything or
//! returns them, and the memo is a hash
//! map only ever probed by key — its one walk, `invalidate`, drops
//! entries by a test on each key alone, so which survive does not depend
//! on the order it visits them in.

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use nb_util::FoldHasher;
use nb_wire::{NodeId, SegId, Topic, TopicFilter};

/// Memo entries kept before the cache is wholesale reset (a backstop
/// against unbounded growth under adversarially diverse topics; the
/// expected working set is a handful of well-known topics).
const MEMO_CAP: usize = 1024;

/// Segment ids a [`MemoKey`] holds inline: with their count they fill
/// the 24 bytes a boxed slice and the variant tag take anyway.
const MEMO_INLINE: usize = 5;

/// A memo key: a topic's segment ids — inline up to [`MEMO_INLINE`] of
/// them (every well-known topic is three deep), so that caching a match
/// set costs no allocation beyond the set, and boxed past that, as all
/// of them used to be. Compared and hashed as the ids it holds, so a
/// lookup borrows the topic's own and builds no key.
#[derive(Debug, Clone)]
enum MemoKey {
    Inline(u8, [SegId; MEMO_INLINE]),
    Boxed(Box<[SegId]>),
}

impl MemoKey {
    fn of(topic: &[SegId]) -> MemoKey {
        let mut ids = [SegId::STAR; MEMO_INLINE];
        match ids.get_mut(..topic.len()) {
            Some(head) => {
                head.copy_from_slice(topic);
                MemoKey::Inline(topic.len() as u8, ids)
            }
            None => MemoKey::Boxed(topic.into()),
        }
    }

    fn ids(&self) -> &[SegId] {
        match self {
            MemoKey::Inline(len, ids) => &ids[..usize::from(*len)],
            MemoKey::Boxed(ids) => ids,
        }
    }
}

impl Borrow<[SegId]> for MemoKey {
    fn borrow(&self) -> &[SegId] {
        self.ids()
    }
}

impl PartialEq for MemoKey {
    fn eq(&self, other: &MemoKey) -> bool {
        self.ids() == other.ids()
    }
}
impl Eq for MemoKey {}
impl Hash for MemoKey {
    // Exactly as the `[SegId]` it borrows as, or a probe would miss.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.ids().hash(state);
    }
}

/// Each memoized topic's `(start, len)` in the arena, hashed by the
/// multiply-rotate fold `BoundedDedup` uses, one word per segment id. A
/// publisher picks topic strings, not ids — the interner numbers
/// segments in the order it first meets them — and the memo holds at
/// most [`MEMO_CAP`] keys, so even keys that all collided would cost a
/// probe no more than that many compares.
type Spans = HashMap<MemoKey, (u32, u32), BuildHasherDefault<FoldHasher>>;

/// The match memo: every cached set back to back in one arena, and the
/// span of each topic's set there.
#[derive(Debug, Default)]
struct MatchMemo {
    spans: Spans,
    arena: Vec<Destination>,
    /// Destinations in the arena that some span covers; the rest are
    /// dead, left by invalidations.
    live: usize,
}

impl MatchMemo {
    /// Forgets every set at once, keeping both buffers' capacity.
    fn reset(&mut self) {
        self.spans.clear();
        self.arena.clear();
        self.live = 0;
    }

    /// Drops exactly the entries whose topic `filter` matches — the
    /// only match sets a membership change to `filter` can affect — and
    /// resets the memo if that leaves more dead destinations in the
    /// arena than live ones.
    #[expect(
        clippy::disallowed_methods,
        reason = "whether an entry survives depends on its key alone and the dropped lengths are summed, so the visit order cannot show"
    )]
    fn invalidate(&mut self, filter: &TopicFilter) {
        let mut dropped = 0;
        self.spans.retain(|topic, &mut (_, len)| {
            let hit = filter.matches_ids(topic.ids());
            dropped += if hit { len as usize } else { 0 };
            !hit
        });
        self.live -= dropped;
        if self.arena.len() - self.live > self.live {
            self.reset();
        }
    }

    /// Memoizes the match set of `topic`, walked from `root` onto the
    /// arena's tail and sorted and deduplicated there.
    fn fill(&mut self, topic: &[SegId], root: &TrieNode) -> (u32, u32) {
        if self.spans.len() >= MEMO_CAP {
            self.reset();
        }
        let start = self.arena.len();
        root.collect(topic, &mut self.arena);
        let set = &mut self.arena[start..];
        set.sort_unstable();
        let mut len = 0;
        for i in 0..set.len() {
            if len == 0 || set[i] != set[len - 1] {
                set[len] = set[i];
                len += 1;
            }
        }
        self.arena.truncate(start + len);
        self.live += len;
        let span = (u32::try_from(start).expect("an arena under 2^32 destinations"), len as u32);
        self.spans.insert(MemoKey::of(topic), span);
        span
    }
}

/// A routing destination for matched events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Destination {
    /// A directly connected client.
    Client(NodeId),
    /// An overlay link to a neighbouring broker.
    Link(NodeId),
}

/// Everything known about one filter: the destinations that register
/// it, how often each, and — at a broker — the links it is advertised
/// to. The one record of the filter; the trie holds it at the node its
/// segment ids lead to.
#[derive(Debug)]
pub(crate) struct Interest {
    filter: TopicFilter,
    /// Registrations per destination, ascending by destination, each
    /// count at least one.
    regs: Vec<(Destination, u32)>,
    /// The links the filter is advertised to, ascending. The broker's
    /// reconcile keeps it: the first advertisement sizes it to the link
    /// count, and `link_down` takes its peer out of every list, so each
    /// entry is a live link.
    pub(crate) advertised: Vec<NodeId>,
}

impl Interest {
    pub(crate) fn filter(&self) -> &TopicFilter {
        &self.filter
    }

    fn position(&self, dest: Destination) -> Result<usize, usize> {
        self.regs.binary_search_by_key(&dest, |&(d, _)| d)
    }

    fn has(&self, dest: Destination) -> bool {
        self.position(dest).is_ok()
    }

    fn destinations(&self) -> impl Iterator<Item = Destination> + '_ {
        self.regs.iter().map(|&(d, _)| d)
    }

    /// Whether a destination other than the link to `peer` registers
    /// the filter: the split horizon, registrations in all minus the
    /// link's own (zero or one), read off the list.
    pub(crate) fn wanted_beyond(&self, peer: NodeId) -> bool {
        match self.regs.as_slice() {
            [] => false,
            [(only, _)] => *only != Destination::Link(peer),
            _ => true,
        }
    }

    /// Nothing registers the filter and no neighbour is told of it: the
    /// record can go.
    fn is_idle(&self) -> bool {
        self.regs.is_empty() && self.advertised.is_empty()
    }

    /// The oracle a broker checks each record against after a change in
    /// debug builds (every `cargo test`): the list is strictly ascending
    /// with no zero count, the split horizon equals the recount the
    /// per-source totals gave — local registrations plus one a link,
    /// against the link's own — and the record is advertised to exactly
    /// the `links` that recount says should see it.
    pub(crate) fn assert_matches_recount(&self, links: impl Iterator<Item = NodeId>) {
        assert!(self.regs.windows(2).all(|w| w[0].0 < w[1].0), "{}: registrations out of order", self.filter);
        assert!(self.regs.iter().all(|&(_, n)| n > 0), "{}: a zero registration count", self.filter);
        let local = self.destinations().filter(|d| matches!(d, Destination::Client(_))).count();
        let total = local + self.destinations().filter(|d| matches!(d, Destination::Link(_))).count();
        assert!(self.advertised.windows(2).all(|w| w[0] < w[1]), "{}: advertised out of order", self.filter);
        let mut should = 0;
        for peer in links {
            let own = usize::from(self.has(Destination::Link(peer)));
            assert_eq!(self.wanted_beyond(peer), total > own, "{}: split horizon towards {peer:?}", self.filter);
            let advertised = self.advertised.binary_search(&peer).is_ok();
            assert_eq!(advertised, total > own, "{}: advertisement towards {peer:?}", self.filter);
            should += usize::from(advertised);
        }
        assert_eq!(self.advertised.len(), should, "{}: advertised to a link that is down", self.filter);
    }
}

/// One trie node: concrete-segment edges, the `*` edge, and the records
/// of the filters that end here.
#[derive(Debug, Default)]
struct TrieNode {
    children: BTreeMap<SegId, TrieNode>,
    star: Option<Box<TrieNode>>,
    /// The filter ending exactly at this node.
    exact: Option<Box<Interest>>,
    /// The `prefix/**` filter anchored at this node (matches zero or
    /// more further segments).
    multi: Option<Box<Interest>>,
}

impl TrieNode {
    fn is_unused(&self) -> bool {
        self.children.is_empty() && self.star.is_none() && self.exact.is_none() && self.multi.is_none()
    }

    /// The record slot `path` ends at, creating the nodes on the way.
    fn slot_mut(&mut self, path: &[SegId]) -> &mut Option<Box<Interest>> {
        match path.split_first() {
            None => &mut self.exact,
            // `**` is validated to be final; it anchors here.
            Some((&SegId::MULTI, _)) => &mut self.multi,
            Some((&SegId::STAR, rest)) => self.star.get_or_insert_with(Default::default).slot_mut(rest),
            Some((&id, rest)) => self.children.entry(id).or_default().slot_mut(rest),
        }
    }

    /// Runs `edit` on the record slot `path` ends at, if the path
    /// exists, and prunes the nodes it leaves unused on the way back, so
    /// a long-lived broker's trie tracks its live subscriptions.
    fn edit<R>(&mut self, path: &[SegId], edit: impl FnOnce(&mut Option<Box<Interest>>) -> R) -> Option<R> {
        match path.split_first() {
            None => Some(edit(&mut self.exact)),
            Some((&SegId::MULTI, _)) => Some(edit(&mut self.multi)),
            Some((&SegId::STAR, rest)) => {
                let star = self.star.as_mut()?;
                let out = star.edit(rest, edit);
                if star.is_unused() {
                    self.star = None;
                }
                out
            }
            Some((&id, rest)) => {
                let child = self.children.get_mut(&id)?;
                let out = child.edit(rest, edit);
                if child.is_unused() {
                    self.children.remove(&id);
                }
                out
            }
        }
    }

    /// Drops every idle record and every node left unused.
    fn prune(&mut self) {
        for slot in [&mut self.exact, &mut self.multi] {
            if slot.as_deref().is_some_and(Interest::is_idle) {
                *slot = None;
            }
        }
        self.children.retain(|_, child| {
            child.prune();
            !child.is_unused()
        });
        if let Some(star) = self.star.as_mut() {
            star.prune();
            if star.is_unused() {
                self.star = None;
            }
        }
    }

    /// Every record `keep` accepts, in trie order.
    fn records<'a>(&'a self, keep: &impl Fn(&Interest) -> bool, out: &mut Vec<&'a Interest>) {
        out.extend([&self.exact, &self.multi].into_iter().flatten().map(|rec| &**rec).filter(|rec| keep(rec)));
        for child in self.children.values().chain(self.star.as_deref()) {
            child.records(keep, out);
        }
    }

    /// [`TrieNode::records`], mutably.
    fn records_mut<'a>(&'a mut self, keep: &impl Fn(&Interest) -> bool, out: &mut Vec<&'a mut Interest>) {
        let here = [&mut self.exact, &mut self.multi].into_iter().flatten().map(|rec| &mut **rec);
        out.extend(here.filter(|rec| keep(rec)));
        for child in self.children.values_mut().chain(self.star.as_deref_mut()) {
            child.records_mut(keep, out);
        }
    }

    /// Collects every destination whose filter matches the remaining
    /// `topic` suffix into `out` (unsorted, may contain duplicates).
    fn collect(&self, topic: &[SegId], out: &mut Vec<Destination>) {
        // `prefix/**` matches zero or more remaining segments, so every
        // node on the walk contributes its `multi` record…
        out.extend(self.multi.iter().flat_map(|rec| rec.destinations()));
        match topic.split_first() {
            // …and the end node additionally contributes exact endings.
            None => out.extend(self.exact.iter().flat_map(|rec| rec.destinations())),
            Some((&id, rest)) => {
                if let Some(child) = self.children.get(&id) {
                    child.collect(rest, out);
                }
                if let Some(star) = &self.star {
                    star.collect(rest, out);
                }
            }
        }
    }
}

/// Puts records in filter-string order, the order every walk that
/// emits messages takes (segment ids follow interning order instead).
fn by_filter<T: std::ops::Deref<Target = Interest>>(records: &mut [T]) {
    records.sort_unstable_by(|a, b| a.filter.cmp(&b.filter));
}

/// One record per filter in a trie on its segment ids, the count of
/// (destination, filter) registrations, and the per-topic match-set
/// memo derived from the records. Walks that feed messages or results
/// run in filter-string order, so emission (and the RNG consumption
/// behind it) is deterministic under a fixed simulation seed.
#[derive(Debug, Default)]
pub struct SubscriptionTable {
    root: TrieNode,
    /// Distinct (destination, filter) registrations.
    len: usize,
    memo: MatchMemo,
}

impl SubscriptionTable {
    /// An empty table.
    pub fn new() -> SubscriptionTable {
        SubscriptionTable::default()
    }

    /// Registers `filter` for `dest`; returns `true` if this is the first
    /// registration of that filter at that destination.
    pub fn subscribe(&mut self, dest: Destination, filter: TopicFilter) -> bool {
        self.subscribe_with(dest, filter, 1, |_| {})
    }

    /// [`SubscriptionTable::subscribe`], running `then` on the filter's
    /// record when the registration is the destination's first. A new
    /// record's list is sized for `room` destinations.
    pub(crate) fn subscribe_with(
        &mut self,
        dest: Destination,
        filter: TopicFilter,
        room: usize,
        then: impl FnOnce(&mut Interest),
    ) -> bool {
        let slot = self.root.slot_mut(filter.seg_ids());
        let rec = slot.get_or_insert_with(|| {
            Box::new(Interest { filter, regs: Vec::with_capacity(room), advertised: Vec::new() })
        });
        match rec.position(dest) {
            Ok(i) => {
                // Refcount bump only: membership (and thus every match
                // set) is unchanged — the memo stays warm.
                rec.regs[i].1 += 1;
                false
            }
            Err(i) => {
                rec.regs.insert(i, (dest, 1));
                self.len += 1;
                self.memo.invalidate(&rec.filter);
                then(rec);
                true
            }
        }
    }

    /// Withdraws one registration of `filter` at `dest`; returns `true`
    /// if the filter is now gone from that destination.
    pub fn unsubscribe(&mut self, dest: Destination, filter: &TopicFilter) -> bool {
        self.unsubscribe_with(dest, filter, |_| {})
    }

    /// [`SubscriptionTable::unsubscribe`], running `then` on the
    /// filter's record when the withdrawal was the destination's last;
    /// a record left idle goes.
    pub(crate) fn unsubscribe_with(
        &mut self,
        dest: Destination,
        filter: &TopicFilter,
        then: impl FnOnce(&mut Interest),
    ) -> bool {
        let Self { root, len, memo, .. } = self;
        let gone = root.edit(filter.seg_ids(), |slot| {
            let Some(rec) = slot.as_deref_mut() else {
                return false;
            };
            let Ok(i) = rec.position(dest) else {
                return false;
            };
            rec.regs[i].1 -= 1;
            if rec.regs[i].1 != 0 {
                return false;
            }
            rec.regs.remove(i);
            *len -= 1;
            memo.invalidate(filter);
            then(rec);
            if rec.is_idle() {
                *slot = None;
            }
            true
        });
        gone == Some(true)
    }

    /// Removes every registration for `dest` (client disconnect or link
    /// down), running `then` on each record `dest` was registered at, in
    /// filter-string order, once the registration is gone; records left
    /// idle go.
    pub(crate) fn remove_destination_with(&mut self, dest: Destination, mut then: impl FnMut(&mut Interest)) {
        let mut hit = Vec::new();
        self.root.records_mut(&|rec| rec.has(dest), &mut hit);
        if hit.is_empty() {
            return;
        }
        by_filter(&mut hit);
        for rec in hit {
            let i = rec.position(dest).expect("collected for registering `dest`");
            rec.regs.remove(i);
            self.len -= 1;
            self.memo.invalidate(&rec.filter);
            then(rec);
        }
        self.root.prune();
    }

    /// Every record, in filter-string order.
    pub(crate) fn records_sorted(&mut self) -> Vec<&mut Interest> {
        let mut all = Vec::new();
        self.root.records_mut(&|_| true, &mut all);
        by_filter(&mut all);
        all
    }

    /// Every filter some destination registers, in string order.
    pub(crate) fn filters(&self) -> Vec<TopicFilter> {
        self.filters_where(|_| true)
    }

    fn filters_where(&self, keep: impl Fn(&Interest) -> bool) -> Vec<TopicFilter> {
        let mut hit = Vec::new();
        self.root.records(&keep, &mut hit);
        by_filter(&mut hit);
        hit.into_iter().map(|rec| rec.filter.clone()).collect()
    }

    /// Destinations whose filters match `topic`, sorted for determinism.
    ///
    /// Repeated queries for the same topic between subscription changes
    /// return the memoized set — zero allocation, zero walk. The
    /// ordering contract is identical to the pre-trie linear scan:
    /// distinct destinations in `Destination` order.
    pub fn matches(&mut self, topic: &Topic) -> &[Destination] {
        let ids = topic.seg_ids();
        let (start, len) = match self.memo.spans.get(ids) {
            Some(&span) => span,
            None => self.memo.fill(ids, &self.root),
        };
        &self.memo.arena[start as usize..][..len as usize]
    }

    /// [`SubscriptionTable::matches`] without touching the memo
    /// (read-only diagnostics paths).
    pub fn matches_uncached(&self, topic: &Topic) -> Vec<Destination> {
        let mut out = Vec::new();
        self.root.collect(topic.seg_ids(), &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total number of distinct (destination, filter) registrations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }
    fn t(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    /// The pre-trie reference implementation as the oracle: evaluate
    /// every registered filter linearly and sort. The trie + memo must
    /// be extensionally equal to this under any operation sequence (see
    /// the proptests below).
    impl SubscriptionTable {
        fn matches_linear(&self, topic: &Topic) -> Vec<Destination> {
            let mut all = Vec::new();
            self.root.records(&|_| true, &mut all);
            let mut out: Vec<Destination> =
                all.iter().filter(|rec| rec.filter.matches(topic)).flat_map(|rec| rec.destinations()).collect();
            out.sort_unstable();
            out.dedup();
            out
        }

        /// Removes every registration for `dest`, returning the filters
        /// that were registered there, in string order.
        fn remove_destination(&mut self, dest: Destination) -> Vec<TopicFilter> {
            let mut out = Vec::new();
            self.remove_destination_with(dest, |rec| out.push(rec.filter.clone()));
            out
        }

        /// All distinct filters registered at `dest`, in string order.
        fn filters_of(&self, dest: Destination) -> Vec<TopicFilter> {
            self.filters_where(|rec| rec.has(dest))
        }

        /// Whether `dest` has any filter matching `topic`.
        fn dest_matches(&self, dest: Destination, topic: &Topic) -> bool {
            self.matches_uncached(topic).binary_search(&dest).is_ok()
        }

        /// Cached match sets currently held.
        fn memo_len(&self) -> usize {
            self.memo.spans.len()
        }

        /// Destinations the arena holds, live and dead.
        fn arena_len(&self) -> usize {
            self.memo.arena.len()
        }

        /// Destinations in the arena that a memo entry covers.
        fn arena_live(&self) -> usize {
            self.memo.live
        }
    }

    #[test]
    fn subscribe_match_unsubscribe() {
        let mut tab = SubscriptionTable::new();
        let c = Destination::Client(NodeId(1));
        assert!(tab.subscribe(c, f("sports/*")));
        assert_eq!(tab.matches(&t("sports/nba")).to_vec(), vec![c]);
        assert!(tab.matches(&t("news/world")).is_empty());
        assert!(tab.unsubscribe(c, &f("sports/*")));
        assert!(tab.matches(&t("sports/nba")).is_empty());
        assert!(tab.is_empty());
    }

    #[test]
    fn refcounted_link_interest() {
        let mut tab = SubscriptionTable::new();
        let l = Destination::Link(NodeId(7));
        assert!(tab.subscribe(l, f("a/b")));
        assert!(!tab.subscribe(l, f("a/b"))); // second origin, same filter
        assert!(!tab.unsubscribe(l, &f("a/b"))); // one registration remains
        assert!(tab.dest_matches(l, &t("a/b")));
        assert!(tab.unsubscribe(l, &f("a/b")));
        assert!(!tab.dest_matches(l, &t("a/b")));
    }

    #[test]
    fn unsubscribe_of_unknown_is_noop() {
        let mut tab = SubscriptionTable::new();
        assert!(!tab.unsubscribe(Destination::Client(NodeId(1)), &f("x")));
        tab.subscribe(Destination::Client(NodeId(1)), f("x"));
        assert!(!tab.unsubscribe(Destination::Client(NodeId(1)), &f("y")));
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn multiple_destinations_sorted() {
        let mut tab = SubscriptionTable::new();
        tab.subscribe(Destination::Link(NodeId(9)), f("a/**"));
        tab.subscribe(Destination::Client(NodeId(2)), f("a/b"));
        tab.subscribe(Destination::Client(NodeId(1)), f("a/*"));
        let got = tab.matches(&t("a/b"));
        assert_eq!(
            got.to_vec(),
            vec![
                Destination::Client(NodeId(1)),
                Destination::Client(NodeId(2)),
                Destination::Link(NodeId(9)),
            ]
        );
    }

    #[test]
    fn remove_destination_returns_filters() {
        let mut tab = SubscriptionTable::new();
        let c = Destination::Client(NodeId(3));
        tab.subscribe(c, f("a"));
        tab.subscribe(c, f("b/*"));
        let mut removed = tab.remove_destination(c);
        removed.sort();
        assert_eq!(removed, vec![f("a"), f("b/*")]);
        assert!(tab.is_empty());
        assert!(tab.remove_destination(c).is_empty());
    }

    #[test]
    fn filters_of_lists_distinct() {
        let mut tab = SubscriptionTable::new();
        let l = Destination::Link(NodeId(4));
        tab.subscribe(l, f("x/*"));
        tab.subscribe(l, f("x/*"));
        tab.subscribe(l, f("y"));
        assert_eq!(tab.filters_of(l), vec![f("x/*"), f("y")]);
    }

    #[test]
    fn doublestar_matches_zero_segments_through_the_trie() {
        let mut tab = SubscriptionTable::new();
        let c = Destination::Client(NodeId(1));
        tab.subscribe(c, f("a/**"));
        assert_eq!(tab.matches(&t("a")).to_vec(), vec![c], "`a/**` matches `a` itself");
        assert_eq!(tab.matches(&t("a/b/c")).to_vec(), vec![c]);
        assert!(tab.matches(&t("b")).is_empty());
        tab.subscribe(c, f("**"));
        assert_eq!(tab.matches(&t("zz/yy")).to_vec(), vec![c], "bare `**` matches everything");
    }

    #[test]
    fn memo_hits_between_membership_changes_and_invalidates_precisely() {
        let mut tab = SubscriptionTable::new();
        let c1 = Destination::Client(NodeId(1));
        let c2 = Destination::Client(NodeId(2));
        let c3 = Destination::Client(NodeId(3));
        tab.subscribe(c1, f("a/*"));
        tab.subscribe(c3, f("x"));
        assert_eq!(tab.matches(&t("a/b")), [c1]);
        assert_eq!(tab.matches(&t("x")), [c3]);
        assert_eq!((tab.memo_len(), tab.arena_len()), (2, 2));
        // Memo hit: the set is read where it lies, nothing appended.
        assert_eq!(tab.matches(&t("a/b")), [c1]);
        assert_eq!(tab.arena_len(), 2, "warm query must hit the memo");

        // A refcount-only bump must NOT invalidate…
        tab.subscribe(c1, f("a/*"));
        assert_eq!((tab.memo_len(), tab.arena_len()), (2, 2));

        // …but a membership change drops exactly the affected topics;
        // their sets stay in the arena, dead, while no more are dead than
        // live.
        tab.subscribe(c2, f("a/b"));
        assert_eq!((tab.memo_len(), tab.arena_len(), tab.arena_live()), (1, 2, 1), "only the matching entry is dropped");
        assert_eq!(tab.matches(&t("a/b")), [c1, c2]);
        assert_eq!(tab.matches(&t("x")), [c3]);
        assert_eq!((tab.memo_len(), tab.arena_len()), (2, 4), "unrelated topics stay cached");

        // Unsubscribe down to zero invalidates again; the intermediate
        // (refcounted) withdrawal does not.
        assert!(!tab.unsubscribe(c1, &f("a/*")));
        assert_eq!(tab.matches(&t("a/b")), [c1, c2]);
        assert!(tab.unsubscribe(c1, &f("a/*")));
        // Three dead destinations against one live: memo and arena reset.
        assert_eq!((tab.memo_len(), tab.arena_len(), tab.arena_live()), (0, 0, 0));
        assert_eq!(tab.matches(&t("a/b")), [c2]);
        assert_eq!(tab.matches_linear(&t("a/b")), vec![c2]);
    }

    #[test]
    fn topics_too_deep_for_the_inline_key_are_memoized_all_the_same() {
        assert_eq!(std::mem::size_of::<MemoKey>(), 24, "what the boxed variant needs anyway");
        let mut tab = SubscriptionTable::new();
        let c = Destination::Client(NodeId(1));
        tab.subscribe(c, f("d/**"));
        let inline = t("d/1/2/3/4");
        let boxed = t("d/1/2/3/4/5");
        assert!(matches!(MemoKey::of(inline.seg_ids()), MemoKey::Inline(5, _)));
        assert!(matches!(MemoKey::of(boxed.seg_ids()), MemoKey::Boxed(_)));
        for (k, topic) in [&inline, &boxed, &t("d/1/2/3/4/5/6/7/8")].into_iter().enumerate() {
            assert_eq!(tab.matches(topic), [c]);
            assert_eq!(tab.matches(topic), [c]);
            assert_eq!(tab.arena_len(), k + 1, "{topic}: the second lookup is a hit");
        }
        assert_eq!(tab.memo_len(), 3);
        assert!(tab.unsubscribe(c, &f("d/**")));
        assert_eq!(tab.memo_len(), 0, "invalidation reads either kind of key");
        assert!(tab.matches(&inline).is_empty() && tab.matches(&boxed).is_empty());
    }

    /// Past `MEMO_CAP` distinct topics, with membership changes in
    /// between: every `matches` equals the uncached walk, and the hashed
    /// memo and its arena hold what an ordered model of their four rules
    /// holds — a set appended on a miss, everything wiped at the cap, the
    /// topics a changed filter matches cut, and everything wiped when
    /// that leaves more dead destinations than live ones. The arena never
    /// holds more than twice its live destinations plus one set. Each
    /// script alternates 3 000 steps that only query, which fill the
    /// memo to its cap, with 3 000 that change membership on one step in
    /// sixteen, five, three or two, which kill sets faster than queries
    /// replace them.
    #[test]
    fn hashed_memo_agrees_with_an_ordered_model_past_its_cap() {
        const TOPICS: usize = 1_500;
        let topics: Vec<Topic> = (0..TOPICS).map(|k| t(&format!("m/a{}/{k}", k % 5))).collect();
        let mut filters: Vec<TopicFilter> = (0..30).map(|k| f(&format!("m/a{}/{}", k % 5, k * 37))).collect();
        filters.extend((0..5).map(|j| f(&format!("m/a{j}/**"))));
        filters.extend((0..4).map(|k| f(&format!("m/*/{}", k * 11))));
        filters.push(f("m/**"));
        // Per script, the percentage of a churning step's rolls that
        // subscribe, and as many that unsubscribe; the rest query.
        for churn in [3, 10, 17, 25] {
            let (mut at_cap, mut by_dead) = (0, 0);
            let mut tab = SubscriptionTable::new();
            // The model: each memoized topic's index in `topics` (each a
            // distinct string) with its set's length, and the arena's.
            let mut model: BTreeMap<usize, usize> = BTreeMap::new();
            let (mut arena, mut live) = (0, 0);
            let mut s: u64 = 0x2545_f491_4f6c_dd1d ^ churn;
            let mut next = move |n: usize| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 33) as usize % n
            };
            for step in 0..24_000 {
                let dest = Destination::Client(NodeId(next(3) as u32));
                let roll = if step / 3_000 % 2 == 1 { next(100) as u64 } else { 100 };
                let changed = if roll < churn {
                    let filter = &filters[next(filters.len())];
                    tab.subscribe(dest, filter.clone()).then_some(filter)
                } else if roll < 2 * churn {
                    let filter = &filters[next(filters.len())];
                    tab.unsubscribe(dest, filter).then_some(filter)
                } else {
                    let k = next(TOPICS);
                    let topic = &topics[k];
                    let set = tab.matches_uncached(topic);
                    assert_eq!(tab.matches(topic), set.as_slice(), "{topic}");
                    if !model.contains_key(&k) {
                        if model.len() >= MEMO_CAP {
                            (model, arena, live) = (BTreeMap::new(), 0, 0);
                            at_cap += 1;
                        }
                        model.insert(k, set.len());
                        arena += set.len();
                        live += set.len();
                    }
                    None
                };
                if let Some(filter) = changed {
                    model.retain(|&k, len| {
                        let hit = filter.matches(&topics[k]);
                        live -= if hit { *len } else { 0 };
                        !hit
                    });
                    if arena - live > live {
                        (model, arena, live) = (BTreeMap::new(), 0, 0);
                        by_dead += 1;
                    }
                }
                assert_eq!(tab.memo_len(), model.len());
                assert_eq!((tab.arena_len(), tab.arena_live()), (arena, live));
                // No topic matches more than the three destinations.
                assert!(arena <= 2 * live + 3, "{arena} destinations in the arena for {live} live");
            }
            assert!(at_cap > 0, "churn {churn}: the script never filled the memo");
            assert!(by_dead > 0, "churn {churn}: the script never left more dead destinations than live");
        }
    }

    /// The table against a naive refcount map of (destination, filter)
    /// registrations.
    mod against_a_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        #[derive(Debug, Clone)]
        enum Op {
            Subscribe(u8, u8),   // (dest, filter index)
            Unsubscribe(u8, u8),
            RemoveDest(u8),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Subscribe(d % 6, f % 8)),
                (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Unsubscribe(d % 6, f % 8)),
                any::<u8>().prop_map(|d| Op::RemoveDest(d % 6)),
            ]
        }

        fn dest(i: u8) -> Destination {
            if i.is_multiple_of(2) {
                Destination::Client(NodeId(u32::from(i)))
            } else {
                Destination::Link(NodeId(u32::from(i)))
            }
        }

        fn filters() -> Vec<TopicFilter> {
            ["a", "a/b", "a/*", "a/**", "b/c", "b/*", "**", "c"]
                .iter()
                .map(|s| TopicFilter::parse(s).unwrap())
                .collect()
        }

        /// The model test's filters, ascending by string. Their segments appear
        /// in no other test of this binary and are interned here first, in
        /// reverse string order, so the trie's segment ids run against the
        /// strings: a walk that handed records back in id order instead of
        /// sorting them fails the test.
        fn model_filters() -> Vec<TopicFilter> {
            let mut names = ["mq", "mq/mb", "mq/*", "mq/**", "mq/ma/mc", "mq/ma/*", "**", "mc"];
            names.sort_unstable_by(|a, b| b.cmp(a));
            let mut fs: Vec<TopicFilter> = names.iter().map(|s| TopicFilter::parse(s).unwrap()).collect();
            fs.sort();
            fs
        }

        fn model_topics() -> Vec<Topic> {
            ["mq", "mq/mb", "mq/ma/mc", "mq/mz", "mc", "mc/mq"].iter().map(|s| Topic::parse(s).unwrap()).collect()
        }

        proptest! {
            /// The table behaves exactly like a naive refcount map under any
            /// operation sequence: what each call returns — `remove_destination`'s
            /// filters in string order included — and, after every op, `len`,
            /// `filters_of` and `dest_matches` for every destination.
            #[test]
            fn subscription_table_matches_reference_model(ops in prop::collection::vec(arb_op(), 0..200)) {
                let fs = model_filters();
                let topics = model_topics();
                let mut table = SubscriptionTable::new();
                let mut model: BTreeMap<(u8, u8), usize> = BTreeMap::new();
                // The model's filters at `d`, in string order: `fs` is sorted.
                let filters_at = |model: &BTreeMap<(u8, u8), usize>, d: u8| -> Vec<TopicFilter> {
                    model.keys().filter(|(dd, _)| *dd == d).map(|(_, f)| fs[*f as usize].clone()).collect()
                };
                for op in ops {
                    match op {
                        Op::Subscribe(d, f) => {
                            let fresh = table.subscribe(dest(d), fs[f as usize].clone());
                            let count = model.entry((d, f)).or_insert(0);
                            *count += 1;
                            prop_assert_eq!(fresh, *count == 1);
                        }
                        Op::Unsubscribe(d, f) => {
                            let gone = table.unsubscribe(dest(d), &fs[f as usize]);
                            match model.get_mut(&(d, f)) {
                                None => prop_assert!(!gone),
                                Some(count) => {
                                    *count -= 1;
                                    let model_gone = *count == 0;
                                    if model_gone {
                                        model.remove(&(d, f));
                                    }
                                    prop_assert_eq!(gone, model_gone);
                                }
                            }
                        }
                        Op::RemoveDest(d) => {
                            let removed = table.remove_destination(dest(d));
                            prop_assert_eq!(removed, filters_at(&model, d));
                            model.retain(|(dd, _), _| *dd != d);
                        }
                    }
                    prop_assert_eq!(table.len(), model.len());
                    prop_assert_eq!(table.is_empty(), model.is_empty());
                    for d in 0..6 {
                        prop_assert_eq!(table.filters_of(dest(d)), filters_at(&model, d));
                        for topic in &topics {
                            let expected = model.keys().any(|&(dd, f)| dd == d && fs[f as usize].matches(topic));
                            prop_assert_eq!(table.dest_matches(dest(d), topic), expected, "{:?} on {}", dest(d), topic);
                        }
                    }
                }
            }

            /// `matches` agrees with brute-force filter evaluation.
            #[test]
            fn matches_agrees_with_bruteforce(
                ops in prop::collection::vec(arb_op(), 0..100),
                topic_idx in 0usize..6,
            ) {
                let fs = filters();
                let topics: Vec<Topic> =
                    ["a", "a/b", "a/b/c", "b/c", "c", "zz/yy"].iter().map(|s| Topic::parse(s).unwrap()).collect();
                let mut table = SubscriptionTable::new();
                let mut model: BTreeMap<(u8, u8), usize> = BTreeMap::new();
                for op in ops {
                    match op {
                        Op::Subscribe(d, f) => {
                            table.subscribe(dest(d), fs[f as usize].clone());
                            *model.entry((d, f)).or_insert(0) += 1;
                        }
                        Op::Unsubscribe(d, f) => {
                            table.unsubscribe(dest(d), &fs[f as usize]);
                            if let Some(c) = model.get_mut(&(d, f)) {
                                *c -= 1;
                                if *c == 0 {
                                    model.remove(&(d, f));
                                }
                            }
                        }
                        Op::RemoveDest(d) => {
                            table.remove_destination(dest(d));
                            model.retain(|(dd, _), _| *dd != d);
                        }
                    }
                }
                let topic = &topics[topic_idx];
                let expected: BTreeSet<Destination> = model
                    .keys()
                    .filter(|(_, f)| fs[*f as usize].matches(topic))
                    .map(|(d, _)| dest(*d))
                    .collect();
                let got: BTreeSet<Destination> = table.matches(topic).iter().copied().collect();
                prop_assert_eq!(got, expected);
            }
        }
    }

    mod trie_vs_linear_oracle {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Subscribe(u8, u8),
            Unsubscribe(u8, u8),
            RemoveDest(u8),
            /// Query a topic mid-sequence: exercises memo population,
            /// hits, and invalidation interleaved with mutations.
            Query(u8),
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Subscribe(d % 6, f % 12)),
                (any::<u8>(), any::<u8>()).prop_map(|(d, f)| Op::Unsubscribe(d % 6, f % 12)),
                any::<u8>().prop_map(|d| Op::RemoveDest(d % 6)),
                any::<u8>().prop_map(|t| Op::Query(t % 8)),
            ]
        }

        fn dest(i: u8) -> Destination {
            if i.is_multiple_of(2) {
                Destination::Client(NodeId(u32::from(i)))
            } else {
                Destination::Link(NodeId(u32::from(i)))
            }
        }

        fn corpus_filters() -> Vec<TopicFilter> {
            // Includes `**`-tails at several depths, bare wildcards and
            // overlapping exact/star shapes.
            [
                "a", "a/b", "a/*", "a/**", "a/b/c", "a/*/c", "a/b/**", "b/c", "b/*", "*",
                "**", "c",
            ]
            .iter()
            .map(|s| TopicFilter::parse(s).unwrap())
            .collect()
        }

        fn corpus_topics() -> Vec<Topic> {
            ["a", "a/b", "a/b/c", "a/x/c", "b/c", "c", "zz/yy", "a/b/c/d"]
                .iter()
                .map(|s| Topic::parse(s).unwrap())
                .collect()
        }

        proptest! {
            /// Under any interleaving of subscribes (incl. refcounted
            /// duplicates), unsubscribes, destination removals and
            /// queries, the trie + memo result equals the naive linear
            /// scan — and so does the uncached walk.
            #[test]
            fn matches_equals_linear_oracle(ops in prop::collection::vec(arb_op(), 0..250)) {
                let fs = corpus_filters();
                let ts = corpus_topics();
                let mut tab = SubscriptionTable::new();
                for op in ops {
                    match op {
                        Op::Subscribe(d, f) => {
                            tab.subscribe(dest(d), fs[f as usize].clone());
                        }
                        Op::Unsubscribe(d, f) => {
                            tab.unsubscribe(dest(d), &fs[f as usize]);
                        }
                        Op::RemoveDest(d) => {
                            tab.remove_destination(dest(d));
                        }
                        Op::Query(t) => {
                            let topic = &ts[t as usize];
                            let expected = tab.matches_linear(topic);
                            prop_assert_eq!(tab.matches_uncached(topic), expected.clone());
                            prop_assert_eq!(tab.matches(topic), expected.as_slice());
                        }
                    }
                }
                // Final sweep over the whole topic corpus.
                for topic in &ts {
                    let expected = tab.matches_linear(topic);
                    prop_assert_eq!(tab.matches(topic), expected.as_slice());
                }
            }

            /// subscribe → unsubscribe → resubscribe cycles around warm
            /// memo entries: every transition re-converges to the oracle.
            #[test]
            fn resubscribe_cycles_keep_memo_coherent(
                d in 0u8..6,
                fidx in 0usize..12,
                repeats in 1usize..4,
            ) {
                let fs = corpus_filters();
                let ts = corpus_topics();
                let filter = fs[fidx].clone();
                let mut tab = SubscriptionTable::new();
                // Background subscriptions so match sets are non-trivial.
                tab.subscribe(dest((d + 1) % 6), fs[(fidx + 3) % fs.len()].clone());
                tab.subscribe(dest((d + 2) % 6), fs[(fidx + 7) % fs.len()].clone());
                for _ in 0..3 {
                    for _ in 0..repeats {
                        tab.subscribe(dest(d), filter.clone());
                    }
                    for topic in &ts {
                        prop_assert_eq!(tab.matches(topic).to_vec(), tab.matches_linear(topic));
                    }
                    for _ in 0..repeats {
                        tab.unsubscribe(dest(d), &filter);
                    }
                    for topic in &ts {
                        prop_assert_eq!(tab.matches(topic).to_vec(), tab.matches_linear(topic));
                    }
                }
            }
        }
    }
}
