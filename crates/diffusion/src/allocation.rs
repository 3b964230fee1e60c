//! Seed allocations `S ⊆ V × 𝓘`.
//!
//! An allocation pairs seed nodes with items, subject to per-item budgets
//! `⃗b` (at most `b_i` seeds for item `i`). The same node may be seeded with
//! several items — its initial desire set is then their union (§3).

use cwelmax_graph::NodeId;
use cwelmax_utility::{ItemId, ItemSet};
use serde::{Deserialize, Serialize};

/// A seed allocation: a set of `(node, item)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    pairs: Vec<(NodeId, ItemId)>,
}

impl Allocation {
    /// The empty allocation.
    pub fn new() -> Allocation {
        Allocation::default()
    }

    /// Build from `(node, item)` pairs; duplicates are collapsed.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (NodeId, ItemId)>) -> Allocation {
        let mut a = Allocation::new();
        for (v, i) in pairs {
            a.add(v, i);
        }
        a
    }

    /// Allocate every node in `nodes` with item `item`.
    pub fn from_item_seeds(item: ItemId, nodes: &[NodeId]) -> Allocation {
        Allocation::from_pairs(nodes.iter().map(|&v| (v, item)))
    }

    /// Add one `(node, item)` pair (idempotent).
    pub fn add(&mut self, node: NodeId, item: ItemId) {
        if !self.pairs.contains(&(node, item)) {
            self.pairs.push((node, item));
        }
    }

    /// Number of `(node, item)` pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True iff no pair is allocated.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// All pairs, in insertion order.
    pub fn pairs(&self) -> &[(NodeId, ItemId)] {
        &self.pairs
    }

    /// The seed set `S^S = {v | (v,i) ∈ S}` (deduplicated, sorted).
    pub fn seed_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.pairs.iter().map(|&(n, _)| n).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The seeds of one item, `S_i = {v | (v,i) ∈ S}` (insertion order).
    pub fn seeds_of(&self, item: ItemId) -> Vec<NodeId> {
        self.pairs
            .iter()
            .filter(|&&(_, i)| i == item)
            .map(|&(n, _)| n)
            .collect()
    }

    /// Items with at least one seed.
    pub fn items(&self) -> ItemSet {
        ItemSet::from_items(self.pairs.iter().map(|&(_, i)| i))
    }

    /// The union `self ∪ other` (duplicates collapsed).
    #[must_use]
    pub fn union(&self, other: &Allocation) -> Allocation {
        let mut a = self.clone();
        for &(v, i) in &other.pairs {
            a.add(v, i);
        }
        a
    }

    /// All pairs in ascending order — the allocation as the set it is,
    /// however it was assembled; what a cache keys it by.
    pub fn sorted_pairs(&self) -> Vec<(NodeId, ItemId)> {
        let mut sorted = self.pairs.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Per-node initial desire sets: `(node, items allocated to it)`,
    /// sorted by node.
    pub fn desire_by_node(&self) -> Vec<(NodeId, ItemSet)> {
        let mut out: Vec<(NodeId, ItemSet)> = Vec::new();
        for (v, i) in self.sorted_pairs() {
            match out.last_mut() {
                Some((node, set)) if *node == v => *set = set.insert(i),
                _ => out.push((v, ItemSet::singleton(i))),
            }
        }
        out
    }

    /// Check the budget constraint `∀i: |S_i| ≤ b_i` (`budgets[i]` is item
    /// `i`'s budget; items outside the vector have budget 0).
    pub fn respects_budgets(&self, budgets: &[usize]) -> bool {
        let mut counts = vec![0usize; budgets.len()];
        for &(_, i) in &self.pairs {
            if i >= budgets.len() {
                return false;
            }
            counts[i] += 1;
        }
        counts.iter().zip(budgets).all(|(&c, &b)| c <= b)
    }
}

impl FromIterator<(NodeId, ItemId)> for Allocation {
    fn from_iter<T: IntoIterator<Item = (NodeId, ItemId)>>(iter: T) -> Self {
        Allocation::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_on_add() {
        let mut a = Allocation::new();
        a.add(1, 0);
        a.add(1, 0);
        a.add(1, 1);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn seed_queries() {
        let a = Allocation::from_pairs([(3, 0), (1, 0), (3, 1)]);
        assert_eq!(a.seed_nodes(), vec![1, 3]);
        assert_eq!(a.seeds_of(0), vec![3, 1]);
        assert_eq!(a.seeds_of(1), vec![3]);
        assert_eq!(a.seeds_of(2), Vec::<NodeId>::new());
        assert_eq!(a.items(), ItemSet::from_items([0, 1]));
    }

    #[test]
    fn desire_by_node_merges_items() {
        let a = Allocation::from_pairs([(3, 0), (1, 0), (3, 1)]);
        let d = a.desire_by_node();
        assert_eq!(
            d,
            vec![(1, ItemSet::singleton(0)), (3, ItemSet::from_items([0, 1])),]
        );
    }

    #[test]
    fn budgets() {
        let a = Allocation::from_pairs([(0, 0), (1, 0), (2, 1)]);
        assert!(a.respects_budgets(&[2, 1]));
        assert!(!a.respects_budgets(&[1, 1]));
        assert!(!a.respects_budgets(&[2])); // item 1 missing from vector
        assert!(Allocation::new().respects_budgets(&[]));
    }

    #[test]
    fn union_collapses() {
        let a = Allocation::from_pairs([(0, 0)]);
        let b = Allocation::from_pairs([(0, 0), (1, 1)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn from_item_seeds() {
        let a = Allocation::from_item_seeds(2, &[5, 6, 7]);
        assert_eq!(a.seeds_of(2), vec![5, 6, 7]);
        assert_eq!(a.items(), ItemSet::singleton(2));
    }
}
