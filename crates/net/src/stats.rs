//! The engine's traffic counters: [`NetStats`], summed over the
//! workers that ran a run, and its per-kind [`KindCounts`].

use nb_wire::message::{KINDS, LABELS_BY_TAG};
use nb_wire::Message;

/// Inert, like [`crate::ShardedSim::set_wire_v2`] that takes it: v2 is
/// a property of a link, not of an engine. Kept only because
/// `benchmark/src/workload/pubsub.rs` compiles against both; the next
/// PR allowed to touch `benchmark/` deletes them.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireV2Config;

/// Aggregate traffic counters, useful for assertions and overhead tables.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Datagrams handed to the network.
    pub datagrams_sent: u64,
    /// Datagrams delivered.
    pub datagrams_delivered: u64,
    /// Datagrams lost to the loss model.
    pub datagrams_lost: u64,
    /// Sends with no path (partition/unknown node); the sum of the two
    /// per-fate counters below.
    pub unreachable: u64,
    /// Unreachable sends whose path was severed by a partition
    /// (symmetric or one-way).
    pub unreachable_partitioned: u64,
    /// Unreachable sends with no route at all (unregistered peer).
    pub unreachable_no_path: u64,
    /// Stream messages delivered.
    pub stream_delivered: u64,
    /// Total payload bytes moved (delivered messages only).
    pub bytes_delivered: u64,
    /// Deliveries dropped because the destination node was down.
    pub dropped_node_down: u64,
    /// Extra copies injected by the duplication fault.
    pub datagrams_duplicated: u64,
    /// Datagrams dropped by the corruption fault (checksum failures).
    pub datagrams_corrupted: u64,
    /// Datagrams held back by the reordering fault.
    pub datagrams_reordered: u64,
    /// v2 segments handed to the network.
    pub segments_sent: u64,
    /// v2 segments delivered.
    pub segments_delivered: u64,
    /// Stream messages that travelled inside delivered v2 segments
    /// (each also counts in `stream_delivered`). The engine sends one
    /// frame a segment, so this equals `segments_delivered`.
    pub frames_coalesced: u64,
    /// Delivered segments discarded because they failed to decode; the
    /// receive path surfaces these as a counter, never a panic.
    pub segment_decode_errors: u64,
    /// Delivered message counts by message kind.
    pub by_kind: KindCounts,
}

/// Delivered-message counts by [`Message::kind`] label. It reads like
/// the ordered map it replaced — iteration yields `(label, &count)` in
/// label order with uncounted kinds absent, so rendering and digests
/// are deterministic — and counts like an array: one
/// slot per wire tag, allocated at the first delivery.
#[derive(Default, Clone)]
pub struct KindCounts {
    by_tag: Option<Box<[u64; KIND_SLOTS]>>,
}

/// One slot per wire tag, the tag its index.
const KIND_SLOTS: usize = LABELS_BY_TAG.len();

impl KindCounts {
    /// The slots, allocated at first use.
    fn slots(&mut self) -> &mut [u64; KIND_SLOTS] {
        self.by_tag.get_or_insert_with(|| Box::new([0; KIND_SLOTS]))
    }

    /// The count of `kind`, if any were delivered.
    pub fn get(&self, kind: &str) -> Option<&u64> {
        let at = KINDS.binary_search_by_key(&kind, |&(label, _)| label).ok()?;
        self.by_tag.as_ref().map(|counts| &counts[KINDS[at].1 as usize]).filter(|&&n| n > 0)
    }

    /// Whether any message of `kind` was delivered.
    pub fn contains_key(&self, kind: &str) -> bool {
        self.get(kind).is_some()
    }

    /// The counted kinds in label order.
    pub fn iter(&self) -> std::vec::IntoIter<(&'static str, &u64)> {
        let counted = |&(label, tag): &(&'static str, u8)| {
            let n = &self.by_tag.as_ref()?[tag as usize];
            (*n > 0).then_some((label, n))
        };
        KINDS.iter().filter_map(counted).collect::<Vec<_>>().into_iter()
    }
}

impl<'a> IntoIterator for &'a KindCounts {
    type Item = (&'static str, &'a u64);
    type IntoIter = std::vec::IntoIter<Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The count of `kind`; zero if none were delivered.
impl std::ops::Index<&str> for KindCounts {
    type Output = u64;

    fn index(&self, kind: &str) -> &u64 {
        self.get(kind).unwrap_or(&0)
    }
}

/// Equal when every kind's count is: a set never counted equals one
/// whose slots are all zero.
impl PartialEq for KindCounts {
    fn eq(&self, other: &KindCounts) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for KindCounts {}

impl std::fmt::Debug for KindCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl NetStats {
    /// Counts one message handed to its node.
    #[inline]
    pub(crate) fn count_delivery(&mut self, msg: &Message, stream: bool) {
        self.by_kind.slots()[msg.tag() as usize] += 1;
        if stream {
            self.stream_delivered += 1;
        } else {
            self.datagrams_delivered += 1;
        }
    }

    /// Counts one send that found no path, by fate: severed by a
    /// partition, or no route at all.
    pub(crate) fn count_unreachable(&mut self, partitioned: bool) {
        self.unreachable += 1;
        if partitioned {
            self.unreachable_partitioned += 1;
        } else {
            self.unreachable_no_path += 1;
        }
    }

    /// Folds `other` into `self`. The sharded engine keeps one counter
    /// set per worker and sums them: every field is a count, so the
    /// total is independent of worker count.
    pub fn merge(&mut self, other: &NetStats) {
        self.datagrams_sent += other.datagrams_sent;
        self.datagrams_delivered += other.datagrams_delivered;
        self.datagrams_lost += other.datagrams_lost;
        self.unreachable += other.unreachable;
        self.unreachable_partitioned += other.unreachable_partitioned;
        self.unreachable_no_path += other.unreachable_no_path;
        self.stream_delivered += other.stream_delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.dropped_node_down += other.dropped_node_down;
        self.datagrams_duplicated += other.datagrams_duplicated;
        self.datagrams_corrupted += other.datagrams_corrupted;
        self.datagrams_reordered += other.datagrams_reordered;
        self.segments_sent += other.segments_sent;
        self.segments_delivered += other.segments_delivered;
        self.frames_coalesced += other.frames_coalesced;
        self.segment_decode_errors += other.segment_decode_errors;
        if let Some(theirs) = &other.by_kind.by_tag {
            for (sum, n) in self.by_kind.slots().iter_mut().zip(theirs.iter()) {
                *sum += n;
            }
        }
    }
}
