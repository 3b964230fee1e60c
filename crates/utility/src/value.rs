//! Value functions `V : 2^𝓘 → ℝ` and the structural checkers
//! (monotonicity / submodularity / supermodularity) the model assumes.
//!
//! The paper requires `V` monotone and submodular with `V(∅) = 0` (§3,
//! "Welfare maximization under competition"). We store value functions as
//! explicit tables over the `2^m` itemsets — the paper's configurations have
//! at most five items — plus convenience constructors for additive and
//! symmetric (cardinality-based) functions.

use crate::itemset::{all_itemsets, ItemSet, MAX_ITEMS};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Tolerance used by the structural checkers.
const EPS: f64 = 1e-9;

/// An explicit value table over all `2^m` itemsets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableValue {
    num_items: usize,
    /// `values[s.mask()] = V(s)`; length `2^m`.
    values: Vec<f64>,
}

impl TableValue {
    /// Build from a full table indexed by mask (length must be `2^m`).
    pub fn from_table(num_items: usize, values: Vec<f64>) -> TableValue {
        assert!(
            num_items <= MAX_ITEMS,
            "at most {MAX_ITEMS} items supported"
        );
        assert_eq!(
            values.len(),
            1 << num_items,
            "table must cover all 2^m itemsets"
        );
        assert!(values[0].abs() < EPS, "V(∅) must be 0 (got {})", values[0]);
        TableValue { num_items, values }
    }

    /// Build from explicit `(itemset, value)` pairs; unspecified itemsets
    /// default to the *maximum value of their specified subsets* (the
    /// minimal monotone completion).
    pub fn from_pairs(num_items: usize, pairs: &[(ItemSet, f64)]) -> TableValue {
        assert!(num_items <= MAX_ITEMS);
        let size = 1usize << num_items;
        let mut values = vec![f64::NAN; size];
        values[0] = 0.0;
        for &(s, v) in pairs {
            assert!(
                s.mask() < size,
                "itemset {s} outside universe of {num_items}"
            );
            values[s.mask()] = v;
        }
        // monotone completion in mask order (all subsets of `mask` with one
        // bit removed precede it)
        for mask in 1..size {
            if values[mask].is_nan() {
                let mut best = 0.0f64;
                let mut bits = mask;
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    best = best.max(values[mask & !bit]);
                    bits &= bits - 1;
                }
                values[mask] = best;
            }
        }
        TableValue { num_items, values }
    }

    /// Additive (modular) value: `V(I) = Σ_{i∈I} per_item[i]`.
    pub fn additive(per_item: &[f64]) -> TableValue {
        let m = per_item.len();
        assert!(m <= MAX_ITEMS);
        let values = (0usize..1 << m)
            .map(|mask| {
                ItemSet(mask as u32)
                    .iter()
                    .map(|i| per_item[i])
                    .sum::<f64>()
            })
            .collect();
        TableValue {
            num_items: m,
            values,
        }
    }

    /// Symmetric value depending only on cardinality: `V(I) = by_size[|I|]`.
    /// `by_size[0]` must be 0.
    pub fn symmetric(num_items: usize, by_size: &[f64]) -> TableValue {
        assert!(num_items <= MAX_ITEMS);
        assert_eq!(by_size.len(), num_items + 1);
        assert!(by_size[0].abs() < EPS, "V(∅) must be 0");
        let values = (0usize..1 << num_items)
            .map(|mask| by_size[(mask as u32).count_ones() as usize])
            .collect();
        TableValue { num_items, values }
    }

    /// Number of items `m`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// `V(s)`.
    #[inline]
    pub fn value(&self, s: ItemSet) -> f64 {
        self.values[s.mask()]
    }

    /// Marginal value `V(s ∪ {i}) − V(s)`.
    #[inline]
    pub fn marginal(&self, i: usize, s: ItemSet) -> f64 {
        self.value(s.insert(i)) - self.value(s)
    }

    /// True iff `V(S) ≤ V(T)` whenever `S ⊆ T` (checked exhaustively via
    /// single-item extensions).
    pub fn is_monotone(&self) -> bool {
        all_itemsets(self.num_items).all(|s| {
            (0..self.num_items)
                .filter(|&i| !s.contains(i))
                .all(|i| self.marginal(i, s) >= -EPS)
        })
    }

    /// True iff `V` is submodular: marginals are non-increasing,
    /// `V(S∪{x}) − V(S) ≥ V(T∪{x}) − V(T)` for all `S ⊆ T`, `x ∉ T`.
    /// Checked via the equivalent local condition over pairs.
    pub fn is_submodular(&self) -> bool {
        // local characterization: for all S, distinct x,y ∉ S:
        // marginal(x | S) ≥ marginal(x | S ∪ {y})
        all_itemsets(self.num_items).all(|s| {
            (0..self.num_items).filter(|&x| !s.contains(x)).all(|x| {
                (0..self.num_items)
                    .filter(|&y| y != x && !s.contains(y))
                    .all(|y| self.marginal(x, s) >= self.marginal(x, s.insert(y)) - EPS)
            })
        })
    }

    /// True iff `V` is supermodular (i.e. `−V` is submodular).
    pub fn is_supermodular(&self) -> bool {
        all_itemsets(self.num_items).all(|s| {
            (0..self.num_items).filter(|&x| !s.contains(x)).all(|x| {
                (0..self.num_items)
                    .filter(|&y| y != x && !s.contains(y))
                    .all(|y| self.marginal(x, s) <= self.marginal(x, s.insert(y)) + EPS)
            })
        })
    }

    /// Expose the raw table (read-only).
    pub fn table(&self) -> &[f64] {
        &self.values
    }

    /// Feed every parameter's bit pattern to `h` (see
    /// `UtilityModel::hash_bits`).
    pub(crate) fn hash_bits(&self, h: &mut impl Hasher) {
        let TableValue { num_items, values } = self;
        num_items.hash(h);
        values.iter().for_each(|v| v.to_bits().hash(h));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_is_modular() {
        let v = TableValue::additive(&[1.0, 2.0, 4.0]);
        assert_eq!(v.value(ItemSet::from_items([0, 2])), 5.0);
        assert!(v.is_monotone());
        assert!(v.is_submodular());
        assert!(v.is_supermodular());
    }

    #[test]
    fn symmetric_concave_is_submodular() {
        // sqrt-like: 0, 1, 1.7, 2.2 — decreasing marginals
        let v = TableValue::symmetric(3, &[0.0, 1.0, 1.7, 2.2]);
        assert!(v.is_monotone());
        assert!(v.is_submodular());
        assert!(!v.is_supermodular());
    }

    #[test]
    fn symmetric_convex_is_supermodular() {
        let v = TableValue::symmetric(3, &[0.0, 1.0, 3.0, 6.0]);
        assert!(v.is_monotone());
        assert!(!v.is_submodular());
        assert!(v.is_supermodular());
    }

    #[test]
    fn non_monotone_detected() {
        let v = TableValue::from_table(1, vec![0.0, -1.0]);
        assert!(!v.is_monotone());
    }

    #[test]
    fn from_pairs_monotone_completion() {
        // specify only singletons; pair must default to max of subsets
        let v = TableValue::from_pairs(
            2,
            &[(ItemSet::singleton(0), 3.0), (ItemSet::singleton(1), 2.0)],
        );
        assert_eq!(v.value(ItemSet::from_items([0, 1])), 3.0);
        assert!(v.is_monotone());
        assert!(v.is_submodular());
    }

    #[test]
    fn marginal_values() {
        let v = TableValue::from_pairs(
            2,
            &[
                (ItemSet::singleton(0), 3.0),
                (ItemSet::singleton(1), 2.0),
                (ItemSet::from_items([0, 1]), 4.0),
            ],
        );
        assert_eq!(v.marginal(1, ItemSet::EMPTY), 2.0);
        assert_eq!(v.marginal(1, ItemSet::singleton(0)), 1.0);
        assert!(v.is_submodular());
    }

    #[test]
    #[should_panic]
    fn nonzero_empty_value_panics() {
        let _ = TableValue::from_table(1, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_table_size_panics() {
        let _ = TableValue::from_table(2, vec![0.0, 1.0]);
    }
}
