//! SP-conditioned index views — the warm path for **follow-up** campaigns.
//!
//! The base [`RrIndex`] is sampled with `StandardRr`, so its greedy pool is
//! only valid for fresh campaigns (`SP = ∅`); PRIMA+ answers follow-ups by
//! sampling *marginal* RR sets conditioned on the fixed prior allocation.
//! But marginal sampling is just standard sampling plus a filter: an RR set
//! that touches `SP` is zeroed, one that doesn't is **bit-identical** to
//! its standard counterpart (`cwelmax_rrset::condition_parts` documents and
//! tests the identity). And to a greedy selection a zeroed set is simply a
//! set that is covered before the first pick. So a follow-up is served
//! from the frozen standard index with *zero resampling and zero copying*:
//!
//! 1. [`ConditionedView::derive`] marks the sets `SP` touches by walking
//!    the postings of SP's nodes — all the mask reads of the index — and
//!    runs the one ordered greedy selection ([`greedy_select_parts`]) at
//!    the base budget cap with those sets already covered; prefix
//!    preservation then serves every follow-up budget `≤ cap`. θ is
//!    untouched, so the estimator is `prima_plus`'s marginal one;
//! 2. the view keeps what the engine reads of it — node set, fingerprint,
//!    pool, how many sets SP covered — and no per-set data;
//! 3. [`ConditionedCache`] (bounded LRU keyed by the SP node-set
//!    fingerprint) keeps derived views hot, so repeated follow-ups against
//!    the same prior allocation skip the selection too.
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
use crate::index::{greedy_select_parts, RrIndex};
use crate::lru::LruCache;
use cwelmax_graph::NodeId;
use std::sync::{Arc, Mutex};

/// Default capacity of the engine's conditioned-view cache (entries). A
/// view is a node set and a pool — a few hundred bytes — so memory is not
/// what bounds this; the value is the working-set size the benchmark's
/// `followup_churn` workload is defined against (3× this cache).
pub const DEFAULT_CONDITIONED_CAP: usize = 32;

/// A 64-bit FNV-1a fingerprint of an SP **node set** (sorted, deduped —
/// insertion order and duplicates don't change the view).
pub fn sp_fingerprint(sp_nodes: &[NodeId]) -> u64 {
    let mut nodes = sp_nodes.to_vec();
    nodes.sort_unstable();
    nodes.dedup();
    canonical_fingerprint(&nodes)
}

/// [`sp_fingerprint`] of a node set already in canonical form (the output
/// of [`validated_sp_nodes`]) — no copy, no sort.
pub(crate) fn canonical_fingerprint(nodes: &[NodeId]) -> u64 {
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
/// the one canonicalisation of a conditioning key: raw input is sorted
/// here once, and a slice that is already canonical (a query's
/// `seed_nodes()`, this function's own output) is only verified. A silent
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
    if !nodes.windows(2).all(|w| w[0] < w[1]) {
        nodes.sort_unstable();
        nodes.dedup();
    }
    Ok(nodes)
}

/// The SP-conditioned view of an index: what a follow-up campaign reads
/// of it. It holds no per-set data — the sets `SP` covers are a mask
/// applied while selecting, not a copy of the survivors — so a view is a
/// few hundred bytes. Immutable and cheaply shareable behind `Arc`.
#[derive(Debug)]
pub struct ConditionedView {
    /// The conditioning node set (sorted, deduped).
    sp_nodes: Vec<NodeId>,
    /// Cache key: [`sp_fingerprint`] of `sp_nodes`.
    fingerprint: u64,
    /// Sets covered by SP (zeroed by Algorithm 3; θ is unchanged).
    removed_sets: usize,
    /// Ordered greedy pool at the base budget cap — prefixes serve every
    /// follow-up budget, exactly like the engine's fresh pool.
    pool: Vec<NodeId>,
}

impl ConditionedView {
    /// Select the follow-up pool of `base` given the seed nodes of a fixed
    /// allocation. Rejects out-of-range SP nodes (`BadQuery`) — a silent
    /// clamp would serve a *differently* conditioned answer than the
    /// query asked for.
    pub fn derive(base: &RrIndex, sp_nodes: &[NodeId]) -> Result<ConditionedView, EngineError> {
        let n = base.num_nodes();
        let nodes = validated_sp_nodes(n, sp_nodes)?;
        Ok(Self::over_parts(&[base], n, base.meta().budget_cap, nodes))
    }

    /// [`ConditionedView::derive`] over an index held as ordered `parts`
    /// (contiguous global set ranges — a store's shards, then its
    /// overlay): the hook a sharded backend uses. `sp_nodes` must be the
    /// output of [`validated_sp_nodes`] for `num_nodes`.
    pub fn over_parts<P: std::ops::Deref<Target = RrIndex>>(
        parts: &[P],
        num_nodes: usize,
        budget_cap: u32,
        sp_nodes: Vec<NodeId>,
    ) -> ConditionedView {
        let (selection, removed_sets) =
            greedy_select_parts(parts, num_nodes, budget_cap as usize, &sp_nodes);
        ConditionedView {
            fingerprint: canonical_fingerprint(&sp_nodes),
            sp_nodes,
            removed_sets,
            pool: selection.seeds,
        }
    }

    /// The conditioning node set (sorted, deduped).
    pub fn sp_nodes(&self) -> &[NodeId] {
        &self.sp_nodes
    }

    /// The cache key this view is stored under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// How many base sets the conditioning covered.
    pub fn removed_sets(&self) -> usize {
        self.removed_sets
    }

    /// The precomputed ordered seed pool at the base budget cap.
    pub fn pool(&self) -> &[NodeId] {
        &self.pool
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

    /// The key of `nodes` and whatever view is resident under it —
    /// which, fingerprints being 64 bits, may be another set's.
    fn probe(&self, nodes: &[NodeId]) -> (u64, Option<Arc<ConditionedView>>) {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "not canonical");
        let key = canonical_fingerprint(nodes);
        (key, crate::lock_recover(&self.views).get(&key).cloned())
    }

    /// The cached view for `nodes` (canonical: the output of
    /// [`validated_sp_nodes`]), if there is one — confirmed by node set,
    /// as in [`ConditionedCache::get_or_derive`].
    pub fn get(&self, nodes: &[NodeId]) -> Option<Arc<ConditionedView>> {
        let (_, resident) = self.probe(nodes);
        resident.filter(|view| view.sp_nodes() == nodes)
    }

    /// Fetch the view for `nodes` (canonical: the output of
    /// [`validated_sp_nodes`] — a set in any other order misses and is
    /// served uncached), deriving and caching it on a miss via `derive`,
    /// the caller's backend hook. Returns the view and whether it was
    /// served from cache. Derivation happens outside the lock, so it never
    /// blocks hits for other SPs; two racing first queries may both
    /// derive — the loser's millisecond is wasted, not wrong.
    ///
    /// A hit is confirmed by comparing the stored node set, not the
    /// 64-bit fingerprint alone: `sp` arrives from untrusted wire
    /// clients, and serving a view conditioned on a *different* SP after
    /// a fingerprint collision would be a silent wrong answer. A
    /// colliding request is derived fresh and served uncached (the
    /// resident entry keeps its slot).
    pub fn get_or_derive(
        &self,
        nodes: &[NodeId],
        derive: impl FnOnce(&[NodeId]) -> Result<ConditionedView, EngineError>,
    ) -> Result<(Arc<ConditionedView>, bool), EngineError> {
        let (key, resident) = self.probe(nodes);
        let collision = resident.is_some();
        if let Some(v) = resident.filter(|v| v.sp_nodes() == nodes) {
            return Ok((v, true));
        }
        let view = Arc::new(derive(nodes)?);
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
        let nodes = validated_sp_nodes(base.num_nodes(), sp_nodes)?;
        self.get_or_derive(&nodes, |nodes| ConditionedView::derive(base, nodes))
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
        // the exact-match bar, at the view level: the mask must give the
        // same selection as sampling MarginalRr with the same
        // (seed, count) — the same sampled world
        let (idx, g) = base_index(100, 500, 3, 2000, 6);
        let sp = [0u32, 13, 57];
        let view = ConditionedView::derive(&idx, &sp).unwrap();
        let mut marg = RrCollection::new(100);
        marg.extend_parallel(&g, &MarginalRr::new(100, &sp), 2000, 3 ^ 0xD00D, 2);
        // it covers exactly the sets marginal sampling zeroes …
        assert_eq!(view.removed_sets(), idx.num_sets() - marg.num_sets());
        // … and selects over the rest as the cold path does, bit for bit
        let cold = marg.greedy_select(6);
        assert_eq!(view.pool(), &cold.seeds[..]);
        let (masked, removed) = greedy_select_parts(&[&idx], 100, 6, &sp);
        assert_eq!(masked.seeds, cold.seeds);
        assert_eq!(masked.coverage, cold.coverage);
        assert_eq!(removed, view.removed_sets());
    }

    #[test]
    fn empty_sp_view_equals_base() {
        let (idx, _) = base_index(60, 300, 5, 800, 4);
        let view = ConditionedView::derive(&idx, &[]).unwrap();
        assert_eq!(view.removed_sets(), 0);
        assert_eq!(view.pool(), &idx.greedy_select(4).seeds[..]);
        assert_eq!(view.pool(), &idx.to_collection().greedy_select(4).seeds[..]);
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
