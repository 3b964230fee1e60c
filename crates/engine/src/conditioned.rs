//! SP-conditioned index views — the warm path for **follow-up** campaigns.
//!
//! The base [`RrIndex`] is sampled with `StandardRr`, so its greedy pool is
//! only valid for fresh campaigns (`SP = ∅`); PRIMA+ answers follow-ups by
//! sampling *marginal* RR sets conditioned on the fixed prior allocation.
//! But marginal sampling is just standard sampling plus a filter: an RR set
//! that touches `SP` is zeroed, one that doesn't is **bit-identical** to
//! its standard counterpart (`cwelmax_rrset::condition_parts` documents and
//! tests the identity). So a follow-up can be served from the frozen
//! standard index with *zero resampling*:
//!
//! 1. [`ConditionedView::derive`] filters the base index's canonical parts
//!    against `SP`'s node set (θ is preserved — the estimator becomes the
//!    marginal estimator, exactly as `prima_plus` scores it) and freezes
//!    the survivors into an inner [`RrIndex`];
//! 2. the view runs one ordered greedy selection at the base budget cap —
//!    prefix preservation then serves every follow-up budget `≤ cap`;
//! 3. [`ConditionedCache`] (bounded LRU keyed by the SP node-set
//!    fingerprint) keeps derived views hot, so repeated follow-ups against
//!    the same prior allocation skip both the filter and the selection.
//!
//! The cache keys on the **node set**, not the full `(node, item)`
//! allocation: RR-set conditioning only sees which nodes are taken (the
//! items matter to welfare evaluation, which has its own cache), so two
//! allocations placing different items on the same nodes share one view.
//!
//! Guarantee honesty: the view inherits the base index's θ, which IMM
//! sized against *unconditioned* lower bounds. The marginal optimum
//! `OPT(·|SP)` is no larger than the fresh optimum, so a heavily covering
//! `SP` can push the conditioned θ requirement above what the base index
//! holds — the `(1 − 1/e − ε)` bound then degrades gracefully rather than
//! holding exactly. What *is* exact: the view's answer equals the cold
//! PRIMA+ selection over the same sampled world (tested bit-for-bit in
//! `tests/warm_vs_cold.rs`). See DESIGN.md §5b.

use crate::error::EngineError;
use crate::index::{IndexMeta, RrIndex};
use crate::lru::LruCache;
use cwelmax_graph::NodeId;
use cwelmax_rrset::collection::GreedySelection;
use cwelmax_rrset::condition_parts;
use std::sync::{Arc, Mutex};

/// Default capacity of the engine's conditioned-view cache (entries).
/// Views are heavyweight (a filtered copy of the index), so the default is
/// far smaller than the welfare cache's.
pub const DEFAULT_CONDITIONED_CAP: usize = 32;

/// A 64-bit FNV-1a fingerprint of an SP **node set** (sorted, deduped —
/// insertion order and duplicates don't change the view).
pub fn sp_fingerprint(sp_nodes: &[NodeId]) -> u64 {
    let mut nodes = sp_nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in nodes {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Reject out-of-range SP nodes and return the sorted, deduped node set —
/// the canonical conditioning key every backend derives from. A silent
/// clamp would serve a *differently* conditioned answer than the query
/// asked for, hence the `BadQuery` error.
pub fn validated_sp_nodes(
    num_nodes: usize,
    sp_nodes: &[NodeId],
) -> Result<Vec<NodeId>, EngineError> {
    if let Some(&v) = sp_nodes.iter().find(|&&v| v as usize >= num_nodes) {
        return Err(EngineError::BadQuery(format!(
            "SP node {v} out of range for a {num_nodes}-node graph"
        )));
    }
    let mut nodes = sp_nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    Ok(nodes)
}

/// A frozen, SP-conditioned view of a base [`RrIndex`]: the surviving
/// RR sets (θ preserved) plus the precomputed ordered greedy pool at the
/// base budget cap. Immutable and cheaply shareable behind `Arc`.
#[derive(Debug)]
pub struct ConditionedView {
    /// The conditioning node set (sorted, deduped).
    sp_nodes: Vec<NodeId>,
    /// Cache key: [`sp_fingerprint`] of `sp_nodes`.
    fingerprint: u64,
    /// The filtered index: base sets minus those covered by SP, same θ.
    inner: RrIndex,
    /// Sets the filter removed (covered by SP).
    removed_sets: usize,
    /// Ordered greedy pool at the base budget cap — prefixes serve every
    /// follow-up budget, exactly like the engine's fresh pool.
    pool: Vec<NodeId>,
}

impl ConditionedView {
    /// Filter `base` against the seed nodes of a fixed allocation and run
    /// the one-time greedy selection. Rejects out-of-range SP nodes
    /// (`BadQuery`) — a silent clamp would serve a *differently*
    /// conditioned answer than the query asked for.
    pub fn derive(base: &RrIndex, sp_nodes: &[NodeId]) -> Result<ConditionedView, EngineError> {
        let n = base.num_nodes();
        let nodes = validated_sp_nodes(n, sp_nodes)?;
        let (set_offsets, members, weights) = base.canonical_parts();
        let (o, m, w) = condition_parts(n, set_offsets, members, weights, &nodes);
        let removed_sets = base.num_sets() - w.len();
        Self::from_conditioned_parts(
            nodes,
            n,
            base.num_sampled(),
            o,
            m,
            w,
            *base.meta(),
            removed_sets,
        )
    }

    /// Assemble a view from **already-filtered** canonical parts — the
    /// hook sharded backends use: they run `condition_parts` shard by
    /// shard (contiguous set ranges, so concatenating the survivors in
    /// shard order is bit-identical to filtering the monolithic parts)
    /// and hand the concatenation here. `sp_nodes` must be sorted,
    /// deduped, and in range; `num_sampled` is the **base** θ (filtering
    /// preserves it — that is what makes the estimator marginal);
    /// `removed_sets` is how many base sets the filter dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn from_conditioned_parts(
        sp_nodes: Vec<NodeId>,
        num_nodes: usize,
        num_sampled: usize,
        set_offsets: Vec<usize>,
        members: Vec<NodeId>,
        weights: Vec<f64>,
        meta: IndexMeta,
        removed_sets: usize,
    ) -> Result<ConditionedView, EngineError> {
        let inner =
            RrIndex::from_canonical(num_nodes, num_sampled, set_offsets, members, weights, meta)?;
        let pool = inner.greedy_select(meta.budget_cap as usize).seeds;
        Ok(ConditionedView {
            fingerprint: sp_fingerprint(&sp_nodes),
            sp_nodes,
            inner,
            removed_sets,
            pool,
        })
    }

    /// The conditioning node set (sorted, deduped).
    pub fn sp_nodes(&self) -> &[NodeId] {
        &self.sp_nodes
    }

    /// The cache key this view is stored under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The filtered index (θ preserved — its estimator is marginal).
    pub fn index(&self) -> &RrIndex {
        &self.inner
    }

    /// How many base sets the conditioning removed.
    pub fn removed_sets(&self) -> usize {
        self.removed_sets
    }

    /// The precomputed ordered seed pool at the base budget cap.
    pub fn pool(&self) -> &[NodeId] {
        &self.pool
    }

    /// Ordered greedy selection over the *conditioned* sets — identical to
    /// `select_from_collection` on the same-world marginal collection
    /// (same float-add order, same tie-breaks).
    pub fn greedy_select(&self, b: usize) -> GreedySelection {
        self.inner.greedy_select(b)
    }

    /// Marginal estimate `σ̂(covered | SP) = n · M / θ`.
    pub fn estimate(&self, covered_weight: f64) -> f64 {
        self.inner.estimate(covered_weight)
    }
}

/// Bounded LRU of derived views keyed by SP fingerprint, shared by all
/// query threads of a [`crate::CampaignEngine`].
pub struct ConditionedCache {
    views: Mutex<LruCache<u64, Arc<ConditionedView>>>,
    /// Metrics hook: bumped when an insert pushes out a resident view
    /// (set once at engine assembly, before the cache is shared).
    evictions: Option<Arc<cwelmax_obs::Counter>>,
}

impl ConditionedCache {
    /// A cache holding at most `cap` views (0 disables caching — every
    /// lookup derives afresh).
    pub fn new(cap: usize) -> ConditionedCache {
        ConditionedCache {
            views: Mutex::new(LruCache::new(cap)),
            evictions: None,
        }
    }

    /// Count capacity evictions into `counter` (engine assembly hook).
    pub fn with_eviction_counter(mut self, counter: Arc<cwelmax_obs::Counter>) -> ConditionedCache {
        self.evictions = Some(counter);
        self
    }

    /// Canonicalise `sp_nodes` (sorted, deduped) and look its slot up:
    /// the node set, its key, and whatever view is resident under that
    /// key — which, fingerprints being 64 bits, may be another set's.
    fn probe(&self, sp_nodes: &[NodeId]) -> (Vec<NodeId>, u64, Option<Arc<ConditionedView>>) {
        let mut nodes = sp_nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        let key = sp_fingerprint(&nodes);
        let resident = crate::lock_recover(&self.views).get(&key).cloned();
        (nodes, key, resident)
    }

    /// The cached view for `sp_nodes`, if there is one (confirmed by node
    /// set, as in [`ConditionedCache::get_or_derive`]).
    pub fn get(&self, sp_nodes: &[NodeId]) -> Option<Arc<ConditionedView>> {
        let (nodes, _, resident) = self.probe(sp_nodes);
        resident.filter(|view| view.sp_nodes() == nodes)
    }

    /// Fetch the view for `sp_nodes`, deriving (and caching) it on a miss
    /// via `derive` — the caller's backend hook ([`ConditionedView::derive`]
    /// for a monolithic [`RrIndex`]; sharded backends filter shard by
    /// shard). `derive` receives the sorted, deduped node set. Returns the
    /// view and whether it was served from cache. Derivation happens
    /// outside the lock, so a slow first derivation never blocks hits for
    /// other SPs; two racing first queries may both derive — the loser's
    /// work is wasted, not wrong.
    ///
    /// A hit is confirmed by comparing the stored node set, not the
    /// 64-bit fingerprint alone: `sp` arrives from untrusted wire
    /// clients, and serving a view conditioned on a *different* SP after
    /// a fingerprint collision would be a silent wrong answer. A
    /// colliding request is derived fresh and served uncached (the
    /// resident entry keeps its slot).
    pub fn get_or_derive(
        &self,
        sp_nodes: &[NodeId],
        derive: impl FnOnce(&[NodeId]) -> Result<ConditionedView, EngineError>,
    ) -> Result<(Arc<ConditionedView>, bool), EngineError> {
        let (nodes, key, resident) = self.probe(sp_nodes);
        let collision = resident.is_some();
        if let Some(v) = resident.filter(|v| v.sp_nodes() == nodes) {
            return Ok((v, true));
        }
        let view = Arc::new(derive(&nodes)?);
        if !collision {
            let evicted = crate::lock_recover(&self.views).insert(key, view.clone());
            if evicted.is_some() {
                if let Some(c) = &self.evictions {
                    c.incr();
                }
            }
        }
        Ok((view, false))
    }

    /// [`ConditionedCache::get_or_derive`] against a monolithic base
    /// index (test convenience).
    #[cfg(test)]
    fn get_or_derive_test(
        &self,
        base: &RrIndex,
        sp_nodes: &[NodeId],
    ) -> Result<(Arc<ConditionedView>, bool), EngineError> {
        self.get_or_derive(sp_nodes, |nodes| ConditionedView::derive(base, nodes))
    }

    /// Number of views currently cached.
    pub fn len(&self) -> usize {
        crate::lock_recover(&self.views).len()
    }

    /// True when no view is cached.
    pub fn is_empty(&self) -> bool {
        crate::lock_recover(&self.views).is_empty()
    }

    /// Drop every cached view. A θ top-up calls this: the views were
    /// derived from the smaller population and are stale the moment the
    /// backend grows.
    pub fn clear(&self) {
        crate::lock_recover(&self.views).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{graph_fingerprint, IndexMeta};
    use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
    use cwelmax_rrset::{MarginalRr, RrCollection, StandardRr};

    fn base_index(n: usize, m: usize, seed: u64, sets: usize, cap: u32) -> (RrIndex, Graph) {
        let g = generators::erdos_renyi(n, m, seed, PM::WeightedCascade);
        let mut c = RrCollection::new(n);
        c.extend_parallel(&g, &StandardRr, sets, seed ^ 0xD00D, 2);
        let idx = RrIndex::freeze(
            &c,
            IndexMeta {
                eps: 0.5,
                ell: 1.0,
                seed,
                budget_cap: cap,
                graph_fingerprint: graph_fingerprint(&g),
            },
        );
        (idx, g)
    }

    #[test]
    fn view_equals_marginal_collection_on_same_world() {
        // the exact-match bar, at the view level: derive(filter) must give
        // the same selection as sampling MarginalRr with the same
        // (seed, count) — the same sampled world
        let (idx, g) = base_index(100, 500, 3, 2000, 6);
        let sp = [0u32, 13, 57];
        let view = ConditionedView::derive(&idx, &sp).unwrap();
        let mut marg = RrCollection::new(100);
        marg.extend_parallel(&g, &MarginalRr::new(100, &sp), 2000, 3 ^ 0xD00D, 2);
        assert_eq!(view.index().canonical_parts(), marg.parts());
        assert_eq!(view.index().num_sampled(), marg.num_sampled());
        let a = view.greedy_select(6);
        let b = marg.greedy_select(6);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(view.pool(), &b.seeds[..]);
    }

    #[test]
    fn empty_sp_view_equals_base() {
        let (idx, _) = base_index(60, 300, 5, 800, 4);
        let view = ConditionedView::derive(&idx, &[]).unwrap();
        assert_eq!(view.index().canonical_parts(), idx.canonical_parts());
        assert_eq!(view.removed_sets(), 0);
        assert_eq!(view.pool(), &idx.greedy_select(4).seeds[..]);
    }

    #[test]
    fn sp_pool_avoids_covered_hub() {
        // two hubs; SP takes hub 0 → the conditioned pool must lead with
        // hub 30 (hub 0's marginal is 0)
        let mut b = cwelmax_graph::GraphBuilder::new(60);
        for v in 1..30u32 {
            b.add_edge(0, v);
        }
        for v in 31..60u32 {
            b.add_edge(30, v);
        }
        let g = b.build(PM::Constant(1.0));
        let mut c = RrCollection::new(60);
        c.extend_parallel(&g, &StandardRr, 3000, 7, 2);
        let idx = RrIndex::freeze(
            &c,
            IndexMeta {
                eps: 0.5,
                ell: 1.0,
                seed: 7,
                budget_cap: 2,
                graph_fingerprint: graph_fingerprint(&g),
            },
        );
        assert_eq!(idx.greedy_select(1).seeds, vec![0], "fresh pool: hub 0");
        let view = ConditionedView::derive(&idx, &[0]).unwrap();
        assert_eq!(view.pool()[0], 30, "conditioned pool: the other hub");
        assert!(view.removed_sets() > 0);
    }

    #[test]
    fn rejects_out_of_range_sp() {
        let (idx, _) = base_index(30, 120, 1, 200, 3);
        match ConditionedView::derive(&idx, &[1000]) {
            Err(EngineError::BadQuery(msg)) => assert!(msg.contains("out of range")),
            other => panic!("expected BadQuery, got {:?}", other.err()),
        }
    }

    #[test]
    fn fingerprint_is_order_and_dup_insensitive() {
        assert_eq!(sp_fingerprint(&[3, 1, 2]), sp_fingerprint(&[1, 2, 3]));
        assert_eq!(sp_fingerprint(&[1, 1, 2]), sp_fingerprint(&[2, 1]));
        assert_ne!(sp_fingerprint(&[1, 2]), sp_fingerprint(&[1, 3]));
        assert_ne!(sp_fingerprint(&[]), sp_fingerprint(&[0]));
    }

    #[test]
    fn cache_hits_on_equivalent_sp_and_evicts_lru() {
        let (idx, _) = base_index(50, 250, 9, 500, 3);
        let cache = ConditionedCache::new(2);
        let (_, hit) = cache.get_or_derive_test(&idx, &[1, 2]).unwrap();
        assert!(!hit);
        // same node set, different order/dups → cache hit
        let (_, hit) = cache.get_or_derive_test(&idx, &[2, 1, 1]).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_derive_test(&idx, &[3]).unwrap();
        assert!(!hit);
        // [1,2] was last touched before [3], so a third SP evicts it
        let (_, hit) = cache.get_or_derive_test(&idx, &[4]).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_derive_test(&idx, &[3]).unwrap();
        assert!(hit, "[3] must have survived");
        let (_, hit) = cache.get_or_derive_test(&idx, &[1, 2]).unwrap();
        assert!(!hit, "[1,2] was the LRU and must have been evicted");
        assert_eq!(cache.len(), 2);
    }
}
