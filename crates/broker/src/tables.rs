//! Slab-indexed per-node state tables.
//!
//! `Broker` used to keep its link and client state in
//! `BTreeMap<NodeId, _>` — fine at 5 brokers, but at the scale suite's
//! populations every lookup pays pointer-chasing tree descent and every
//! insert allocates a node. [`DenseNodeTable`] applies the PR 1 slab
//! treatment: values live in a dense `Vec` slab (stable slots, free-list
//! reuse), and a *sorted* `(NodeId, slot)` index provides binary-search
//! lookup and — critically — **NodeId-ascending iteration**, which is
//! what keeps message emission order (flood fan-out, heartbeat sweeps,
//! advertisement reconciliation) byte-identical to the BTreeMap it
//! replaces. Determinism proof: every public iterator walks `index`,
//! and `index` is maintained sorted by NodeId; therefore iteration
//! order is a pure function of the key *set*, exactly like a BTreeMap.

use nb_wire::NodeId;

/// A map from [`NodeId`] to `V` with slab storage and ordered iteration.
#[derive(Debug)]
pub struct DenseNodeTable<V> {
    /// Value slab; `None` slots are on the free list.
    slots: Vec<Option<V>>,
    /// Sorted by NodeId: `(node, slot)`.
    index: Vec<(NodeId, u32)>,
    /// Reusable vacant slots.
    free: Vec<u32>,
}

impl<V> Default for DenseNodeTable<V> {
    fn default() -> Self {
        DenseNodeTable::new()
    }
}

impl<V> DenseNodeTable<V> {
    /// An empty table.
    pub fn new() -> DenseNodeTable<V> {
        DenseNodeTable { slots: Vec::new(), index: Vec::new(), free: Vec::new() }
    }

    /// An empty table with room for `capacity` entries before any slab
    /// growth (scale-suite pre-sizing).
    pub fn with_capacity(capacity: usize) -> DenseNodeTable<V> {
        DenseNodeTable {
            slots: Vec::with_capacity(capacity),
            index: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn pos(&self, node: NodeId) -> Result<usize, usize> {
        self.index.binary_search_by_key(&node, |&(n, _)| n)
    }

    /// Whether `node` has an entry.
    pub fn contains_key(&self, node: NodeId) -> bool {
        self.pos(node).is_ok()
    }

    /// The value for `node`, if any.
    pub fn get(&self, node: NodeId) -> Option<&V> {
        let i = self.pos(node).ok()?;
        self.slots[self.index[i].1 as usize].as_ref()
    }

    /// The value for `node` with the slab slot it occupies. The slot is
    /// stable until the entry is removed (and then reused), so side
    /// tables can index by it as long as they forget a slot when its
    /// node goes.
    pub fn get_with_slot(&self, node: NodeId) -> Option<(usize, &V)> {
        let slot = self.index[self.pos(node).ok()?].1 as usize;
        Some((slot, self.slots[slot].as_ref()?))
    }

    /// Mutable value for `node`, if any.
    pub fn get_mut(&mut self, node: NodeId) -> Option<&mut V> {
        let i = self.pos(node).ok()?;
        self.slots[self.index[i].1 as usize].as_mut()
    }

    /// Inserts (or replaces) the value for `node`; returns the previous
    /// value when replacing.
    pub fn insert(&mut self, node: NodeId, value: V) -> Option<V> {
        match self.pos(node) {
            Ok(i) => self.slots[self.index[i].1 as usize].replace(value),
            Err(i) => {
                let slot = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize] = Some(value);
                        s
                    }
                    None => {
                        self.slots.push(Some(value));
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index.insert(i, (node, slot));
                None
            }
        }
    }

    /// Removes and returns the value for `node`, freeing its slot.
    pub fn remove(&mut self, node: NodeId) -> Option<V> {
        let i = self.pos(node).ok()?;
        let (_, slot) = self.index.remove(i);
        self.free.push(slot);
        self.slots[slot as usize].take()
    }

    /// Iterates entries in ascending NodeId order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.index
            .iter()
            .map(|&(n, s)| (n, self.slots[s as usize].as_ref().expect("indexed slot is occupied")))
    }

    /// Iterates values in ascending NodeId order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Mutable values, in slot order (callers that emit nothing while
    /// they sweep need no more).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.slots.iter_mut().flatten()
    }

    /// Slots the slab holds, occupied or free: every slot
    /// [`DenseNodeTable::get_with_slot`] reports is below this.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Oracle test: against a BTreeMap, every operation and — the
    /// deterministic-emission property — every iteration order agree.
    #[test]
    fn mirrors_btreemap_under_a_seeded_op_stream() {
        let mut table: DenseNodeTable<u64> = DenseNodeTable::new();
        let mut oracle: BTreeMap<NodeId, u64> = BTreeMap::new();
        // Simple seeded LCG so the op stream is stable without rand.
        let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        for step in 0..4000u64 {
            let node = NodeId((next() % 64) as u32);
            match next() % 4 {
                0 => {
                    assert_eq!(table.insert(node, step), oracle.insert(node, step));
                }
                1 => {
                    assert_eq!(table.remove(node), oracle.remove(&node));
                }
                2 => {
                    assert_eq!(table.get(node), oracle.get(&node));
                    assert_eq!(table.contains_key(node), oracle.contains_key(&node));
                }
                _ => {
                    match table.get_mut(node) {
                        Some(count) => *count += 1,
                        None => assert_eq!(table.insert(node, 1), None),
                    }
                    *oracle.entry(node).or_insert(0) += 1;
                }
            }
            assert_eq!(table.len(), oracle.len());
        }
        let got: Vec<(NodeId, u64)> = table.iter().map(|(n, &v)| (n, v)).collect();
        let want: Vec<(NodeId, u64)> = oracle.iter().map(|(&n, &v)| (n, v)).collect();
        assert_eq!(got, want, "iteration order must match BTreeMap exactly");
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut table: DenseNodeTable<&'static str> = DenseNodeTable::with_capacity(4);
        table.insert(NodeId(3), "three");
        table.insert(NodeId(1), "one");
        let (one, _) = table.get_with_slot(NodeId(1)).unwrap();
        let (three, _) = table.get_with_slot(NodeId(3)).unwrap();
        table.remove(NodeId(3));
        assert!(table.get_with_slot(NodeId(3)).is_none());
        table.insert(NodeId(9), "nine");
        assert_eq!(table.slots.len(), 2, "freed slot was reused, slab did not grow");
        assert_eq!(table.get_with_slot(NodeId(9)), Some((three, &"nine")));
        assert_eq!(table.get_with_slot(NodeId(1)), Some((one, &"one")), "survivors keep their slot");
        assert_eq!(
            table.iter().map(|(n, _)| n.0).collect::<Vec<_>>(),
            vec![1, 9],
            "ascending NodeId order"
        );
    }
}
