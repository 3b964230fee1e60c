//! The assembled utility model `U(I) = V(I) − P(I) + N(I)` and the derived
//! quantities the algorithms need (`umin`, `umax`, superior items,
//! noise-world sampling).

use crate::itemset::{all_itemsets, ItemId, ItemSet};
use crate::noise::NoiseDist;
use crate::value::TableValue;
use crate::world::NoiseWorld;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// The model parameters `Param = (V, P, {D_i})` of §3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UtilityModel {
    value: TableValue,
    /// Additive per-item prices (`P(I) = Σ_{i∈I} prices[i]`).
    prices: Vec<f64>,
    /// One independent zero-mean noise distribution per item.
    noise: Vec<NoiseDist>,
}

impl UtilityModel {
    /// Assemble a model. Panics if the dimensions disagree.
    pub fn new(value: TableValue, prices: Vec<f64>, noise: Vec<NoiseDist>) -> UtilityModel {
        assert_eq!(value.num_items(), prices.len(), "one price per item");
        assert_eq!(
            value.num_items(),
            noise.len(),
            "one noise distribution per item"
        );
        UtilityModel {
            value,
            prices,
            noise,
        }
    }

    /// Build a model directly from target *deterministic utilities*
    /// `U(I) = V(I) − P(I)`: prices are chosen automatically as the smallest
    /// per-item constants making `V = U + P` monotone (plus `margin`), so
    /// that the result satisfies the paper's structural assumptions whenever
    /// the supplied utilities are submodular.
    pub fn from_utilities(
        num_items: usize,
        utilities: &[(ItemSet, f64)],
        noise: Vec<NoiseDist>,
        margin: f64,
    ) -> UtilityModel {
        assert_eq!(noise.len(), num_items);
        let size = 1usize << num_items;
        let mut u = vec![f64::NAN; size];
        u[0] = 0.0;
        for &(s, x) in utilities {
            u[s.mask()] = x;
        }
        for (mask, val) in u.iter().enumerate() {
            assert!(
                !val.is_nan(),
                "utility for itemset mask {mask:#b} not specified"
            );
        }
        // price_i ≥ −min_S (U(S∪{i}) − U(S)) so that V is monotone
        let mut prices = vec![0.0f64; num_items];
        for i in 0..num_items {
            let mut min_marg = f64::INFINITY;
            for s in all_itemsets(num_items) {
                if !s.contains(i) {
                    min_marg = min_marg.min(u[s.insert(i).mask()] - u[s.mask()]);
                }
            }
            prices[i] = (-min_marg).max(0.0) + margin;
        }
        let values: Vec<f64> = (0..size)
            .map(|mask| {
                let p: f64 = ItemSet(mask as u32).iter().map(|i| prices[i]).sum();
                u[mask] + p
            })
            .collect();
        UtilityModel::new(TableValue::from_table(num_items, values), prices, noise)
    }

    /// Feed the bit pattern of every parameter to `h`: two models hash
    /// alike only if they agree to the last bit, which is what a cache of
    /// results computed from the model keys on. Not `Hash` — `0.0` and
    /// `-0.0` are equal and hash apart. The destructuring is exhaustive
    /// here and in the parts, so a new field cannot be left out silently.
    pub fn hash_bits(&self, h: &mut impl Hasher) {
        let UtilityModel {
            value,
            prices,
            noise,
        } = self;
        value.hash_bits(h);
        prices.iter().for_each(|p| p.to_bits().hash(h));
        noise.iter().for_each(|n| n.hash_bits(h));
    }

    /// Number of items `m = |𝓘|`.
    #[inline]
    pub fn num_items(&self) -> usize {
        self.value.num_items()
    }

    /// The value function.
    pub fn value_fn(&self) -> &TableValue {
        &self.value
    }

    /// Per-item prices.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Per-item noise distributions.
    pub fn noise(&self) -> &[NoiseDist] {
        &self.noise
    }

    /// Additive price `P(I)`.
    pub fn price(&self, s: ItemSet) -> f64 {
        s.iter().map(|i| self.prices[i]).sum()
    }

    /// Deterministic utility `V(I) − P(I)` (equal to `E[U(I)]` because
    /// noise has zero mean).
    pub fn deterministic_utility(&self, s: ItemSet) -> f64 {
        self.value.value(s) - self.price(s)
    }

    /// Expected *truncated* utility `E[U⁺(i)] = E[max(0, U({i}))]` of a
    /// single item — analytic through the item's noise distribution.
    pub fn expected_truncated_item(&self, i: ItemId) -> f64 {
        self.noise[i].expected_positive_part(self.deterministic_utility(ItemSet::singleton(i)))
    }

    /// `umin = min_i E[U⁺(i)]` over a restricted item subset (§5,
    /// "minimum and maximum utility bundle"). Pass `ItemSet::full(m)` for
    /// the paper's definition over all items.
    pub fn umin_over(&self, items: ItemSet) -> f64 {
        items
            .iter()
            .map(|i| self.expected_truncated_item(i))
            .fold(f64::INFINITY, f64::min)
    }

    /// `umin` over all items.
    pub fn umin(&self) -> f64 {
        self.umin_over(ItemSet::full(self.num_items()))
    }

    /// `umax = E[max_{I⊆𝓘} U⁺(I)]` — the expectation (over noise worlds) of
    /// the best truncated bundle utility. Deterministic models are evaluated
    /// exactly; noisy models by Monte Carlo with `samples` noise worlds.
    pub fn umax_mc(&self, rng: &mut impl Rng, samples: usize) -> f64 {
        if !self.has_noise() {
            return self.best_bundle_utility_noiseless();
        }
        let samples = samples.max(1);
        let mut acc = 0.0;
        for _ in 0..samples {
            let w = self.sample_noise_world(rng);
            let best = all_itemsets(self.num_items())
                .map(|s| w.utility(s).max(0.0))
                .fold(0.0f64, f64::max);
            acc += best;
        }
        acc / samples as f64
    }

    fn best_bundle_utility_noiseless(&self) -> f64 {
        all_itemsets(self.num_items())
            .map(|s| self.deterministic_utility(s).max(0.0))
            .fold(0.0f64, f64::max)
    }

    /// True iff any item carries non-degenerate noise.
    pub fn has_noise(&self) -> bool {
        self.noise.iter().any(|d| !d.is_zero())
    }

    /// Detect a *superior item* (§5): an item whose least possible utility
    /// strictly exceeds the highest possible utility of every other item.
    /// Requires every noise distribution to be bounded; returns `None`
    /// otherwise, or when no item dominates.
    pub fn superior_item(&self) -> Option<ItemId> {
        let m = self.num_items();
        if m == 0 {
            return None;
        }
        let mut bounds = Vec::with_capacity(m);
        for i in 0..m {
            let b = self.noise[i].max_abs()?;
            let mu = self.deterministic_utility(ItemSet::singleton(i));
            bounds.push((mu - b, mu + b)); // (min possible, max possible)
        }
        let (best, _) = bounds
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))?;
        let dominated = bounds
            .iter()
            .enumerate()
            .all(|(i, &(_, hi))| i == best || bounds[best].0 > hi);
        dominated.then_some(best)
    }

    /// Sample one noise possible world `w2`: draw every item's noise once
    /// and tabulate `U_{w2}(I)` for all `2^m` itemsets (§3, possible-world
    /// model — noise is sampled before the diffusion and fixed throughout).
    pub fn sample_noise_world(&self, rng: &mut impl Rng) -> NoiseWorld {
        let m = self.num_items();
        let draws: Vec<f64> = self.noise.iter().map(|d| d.sample(rng)).collect();
        let utils = (0usize..1 << m)
            .map(|mask| {
                let s = ItemSet(mask as u32);
                let noise_sum: f64 = s.iter().map(|i| draws[i]).sum();
                self.deterministic_utility(s) + noise_sum
            })
            .collect();
        NoiseWorld::new(m, utils)
    }

    /// The noise-free world (utilities equal to the deterministic
    /// utilities) — exact for noiseless configurations.
    pub fn noiseless_world(&self) -> NoiseWorld {
        let m = self.num_items();
        let utils = (0usize..1 << m)
            .map(|mask| self.deterministic_utility(ItemSet(mask as u32)))
            .collect();
        NoiseWorld::new(m, utils)
    }

    /// Items sorted by decreasing expected truncated utility — the order
    /// SeqGRD allocates in (Algorithm 1, line 4). Restricted to `items`.
    pub fn items_by_truncated_utility(&self, items: ItemSet) -> Vec<ItemId> {
        let mut v: Vec<ItemId> = items.iter().collect();
        v.sort_by(|&a, &b| {
            self.expected_truncated_item(b)
                .total_cmp(&self.expected_truncated_item(a))
                .then(a.cmp(&b))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_item_model(noise: NoiseDist) -> UtilityModel {
        // U(i0)=1, U(i1)=0.9, U({i0,i1})=-2.1 (config C1 shape)
        UtilityModel::new(
            TableValue::from_table(2, vec![0.0, 4.0, 4.9, 4.9]),
            vec![3.0, 4.0],
            vec![noise, noise],
        )
    }

    #[test]
    fn deterministic_utilities() {
        let m = two_item_model(NoiseDist::None);
        assert!((m.deterministic_utility(ItemSet::singleton(0)) - 1.0).abs() < 1e-12);
        assert!((m.deterministic_utility(ItemSet::singleton(1)) - 0.9).abs() < 1e-12);
        assert!((m.deterministic_utility(ItemSet::full(2)) + 2.1).abs() < 1e-12);
        assert_eq!(m.deterministic_utility(ItemSet::EMPTY), 0.0);
    }

    #[test]
    fn umin_umax_noiseless() {
        let m = two_item_model(NoiseDist::None);
        assert!((m.umin() - 0.9).abs() < 1e-12);
        let mut rng = SmallRng::seed_from_u64(1);
        // best bundle is {i0} with utility 1
        assert!((m.umax_mc(&mut rng, 10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn umax_with_noise_exceeds_noiseless() {
        // max over items of a noisy draw has positive expectation gain
        let m = two_item_model(NoiseDist::Normal { std: 1.0 });
        let mut rng = SmallRng::seed_from_u64(2);
        let umax = m.umax_mc(&mut rng, 20_000);
        assert!(umax > 1.05, "umax {umax} should exceed 1 under noise");
        assert!(umax < 3.0, "umax {umax} implausibly large");
    }

    #[test]
    fn superior_item_detection() {
        // bounded noise, clear dominance: U(i0)=1 ± 0.4 vs U(i1)=0.1 ± 0.4
        let m = UtilityModel::new(
            TableValue::from_table(2, vec![0.0, 4.0, 4.1, 4.1]),
            vec![3.0, 4.0],
            vec![
                NoiseDist::Uniform { half_width: 0.4 },
                NoiseDist::Uniform { half_width: 0.4 },
            ],
        );
        assert_eq!(m.superior_item(), Some(0));
    }

    #[test]
    fn no_superior_item_when_overlapping() {
        let m = two_item_model(NoiseDist::Uniform { half_width: 0.4 });
        // 1 - 0.4 = 0.6 < 0.9 + 0.4: ranges overlap
        assert_eq!(m.superior_item(), None);
    }

    #[test]
    fn no_superior_item_with_unbounded_noise() {
        let m = two_item_model(NoiseDist::Normal { std: 0.001 });
        assert_eq!(m.superior_item(), None);
    }

    #[test]
    fn noise_world_tabulation() {
        let m = two_item_model(NoiseDist::None);
        let w = m.noiseless_world();
        for s in crate::itemset::all_itemsets(2) {
            assert!((w.utility(s) - m.deterministic_utility(s)).abs() < 1e-12);
        }
    }

    #[test]
    fn sampled_noise_world_is_consistent_additive() {
        // noise enters additively: U_w({0,1}) - U_w({0}) - U_w({1}) must be
        // noise-free (= deterministic interaction term)
        let m = two_item_model(NoiseDist::Normal { std: 2.0 });
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let w = m.sample_noise_world(&mut rng);
            let interaction = w.utility(ItemSet::full(2))
                - w.utility(ItemSet::singleton(0))
                - w.utility(ItemSet::singleton(1));
            let det = m.deterministic_utility(ItemSet::full(2))
                - m.deterministic_utility(ItemSet::singleton(0))
                - m.deterministic_utility(ItemSet::singleton(1));
            assert!((interaction - det).abs() < 1e-9);
        }
    }

    #[test]
    fn item_ordering_by_truncated_utility() {
        let m = two_item_model(NoiseDist::None);
        assert_eq!(m.items_by_truncated_utility(ItemSet::full(2)), vec![0, 1]);
        assert_eq!(m.items_by_truncated_utility(ItemSet::singleton(1)), vec![1]);
    }

    #[test]
    fn from_utilities_builds_monotone_submodular_value() {
        // Table 4 shape: U(i)=2, U(j)=0.11, U(k)=0.1, U(ik)=2.1, rest < 0
        let i = ItemSet::singleton(0);
        let j = ItemSet::singleton(1);
        let k = ItemSet::singleton(2);
        let m = UtilityModel::from_utilities(
            3,
            &[
                (i, 2.0),
                (j, 0.11),
                (k, 0.1),
                (i.union(j), -1.0),
                (i.union(k), 2.1),
                (j.union(k), -1.0),
                (ItemSet::full(3), -3.5),
            ],
            vec![NoiseDist::None; 3],
            0.5,
        );
        assert!(m.value_fn().is_monotone(), "V must be monotone");
        assert!((m.deterministic_utility(i) - 2.0).abs() < 1e-9);
        assert!((m.deterministic_utility(i.union(k)) - 2.1).abs() < 1e-9);
        assert!(m.deterministic_utility(i.union(j)) < 0.0);
    }

    #[test]
    fn price_is_additive() {
        let m = two_item_model(NoiseDist::None);
        assert_eq!(m.price(ItemSet::full(2)), 7.0);
        assert_eq!(m.price(ItemSet::EMPTY), 0.0);
    }
}
