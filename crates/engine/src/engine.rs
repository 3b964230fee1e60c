//! [`CampaignEngine`] — load a graph and an RR-set index once, answer many
//! allocation queries (budgets × utility configs × algorithm choice) with
//! **zero RR-set resampling**.
//!
//! The architecture exploits two structural facts:
//!
//! 1. RR-set sampling is model-independent — a `StandardRr` collection
//!    depends only on the graph, so one index serves every utility
//!    configuration and budget vector (up to the index's budget cap);
//! 2. greedy `NodeSelection` is prefix-preserving — the ordered selection
//!    at the budget cap contains the greedy solution for **every** smaller
//!    budget as a prefix, so the engine runs selection once (lazily) and
//!    answers each query by slicing prefixes and running only the cheap
//!    item-assignment stage (`SeqGrd::solve_with_pool` /
//!    `MaxGrd::solve_with_pool`).
//!
//! A small welfare-evaluation cache (keyed by model fingerprint ×
//! allocation × simulation settings) deduplicates the Monte-Carlo work that
//! repeated or overlapping queries would otherwise redo, and
//! [`CampaignEngine::query_batch`] fans independent queries out across
//! threads — the engine is immutable-shared (`&self`) by construction.

use crate::backend::{IndexBackend, StorageStats};
use crate::conditioned::{ConditionedCache, ConditionedView};
use crate::error::EngineError;
use crate::index::graph_fingerprint;
use crate::lru::LruCache;
use crate::query::{CampaignAnswer, CampaignQuery, QueryAlgorithm};
use cwelmax_core::{MaxGrd, Problem, SeqGrd};
use cwelmax_diffusion::{Allocation, WelfareEstimator};
use cwelmax_graph::{Graph, NodeId};
use cwelmax_obs::{Counter, Histogram, MetricsRegistry, TraceScope};
use serde::{Serialize, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Point-in-time counters describing what the engine has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered (successfully).
    pub queries: u64,
    /// Greedy node-selections run against the index (lazily once).
    pub pool_selections: u64,
    /// Welfare evaluations requested at the engine level.
    pub welfare_evals: u64,
    /// Of those, how many were served from the cache.
    pub welfare_cache_hits: u64,
    /// SP-conditioned views derived (the expensive follow-up step:
    /// filter + one greedy selection).
    pub conditioned_views: u64,
    /// Follow-up queries whose view came from the conditioned cache.
    pub conditioned_hits: u64,
    /// Shards the index backend is made of (1 for a monolithic index).
    pub shards_total: u64,
    /// Shards currently resident in memory (lazy stores grow this from 0
    /// as queries touch shards; monolithic indexes are always fully
    /// resident).
    pub shards_loaded: u64,
    /// On-disk footprint of the index backend in bytes (0 when the index
    /// lives only in memory).
    pub store_bytes_on_disk: u64,
    /// Mutation-journal records overlaying the backend's base store (0
    /// for immutable backends).
    pub journal_records: u64,
    /// Committed journal bytes on disk (0 for immutable backends).
    pub journal_bytes: u64,
    /// θ top-ups performed by the backend since it was opened.
    pub topups_total: u64,
}

/// Multi-campaign query engine over a shared graph + prebuilt index
/// backend (a monolithic [`crate::RrIndex`] or a lazy sharded store).
pub struct CampaignEngine {
    graph: Arc<Graph>,
    backend: Arc<dyn IndexBackend>,
    /// The ordered greedy selection at the index's budget cap; computed
    /// (or fetched from the backend's persisted pool) on first use,
    /// prefixes serve every query. A backend failure is cached too — a
    /// store whose shards are corrupt fails every fresh query the same
    /// way instead of re-reading broken files. `None` means "not yet
    /// fetched": a θ top-up resets the slot so the next fresh query
    /// re-selects over the grown population (hence `Mutex<Option<…>>`
    /// rather than a write-once `OnceLock`). The pool is shared as an
    /// `Arc` so in-flight queries keep their selection across an
    /// invalidation.
    pool: Mutex<Option<Result<Arc<Vec<NodeId>>, EngineError>>>,
    /// Welfare cache: `(model, allocation, sim)` fingerprint → estimate.
    /// Bounded LRU — hot keys survive sustained mixed traffic instead of
    /// being dropped wholesale when the cache fills.
    cache: Mutex<LruCache<u64, f64>>,
    /// SP-conditioned index views, keyed by SP node-set fingerprint, so
    /// repeated follow-up campaigns against the same prior allocation are
    /// served warm (no filtering, no re-selection).
    conditioned: ConditionedCache,
    /// The stack's metrics registry (shared with the backend when the
    /// builder opened it, and adopted by the server). The counter and
    /// histogram handles below are fetched once at assembly so the hot
    /// path never touches the registry's name map.
    metrics: Arc<MetricsRegistry>,
    queries: Arc<Counter>,
    pool_selections: Arc<Counter>,
    welfare_evals: Arc<Counter>,
    welfare_cache_hits: Arc<Counter>,
    welfare_cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    conditioned_views: Arc<Counter>,
    conditioned_hits: Arc<Counter>,
    query_ns: Arc<Histogram>,
    batch_ns: Arc<Histogram>,
    conditioned_derive_ns: Arc<Histogram>,
}

/// Default welfare-cache capacity (entries); override with
/// `EngineBuilder::cache_capacity`.
pub const DEFAULT_CACHE_CAP: usize = 4096;

impl CampaignEngine {
    /// The one real constructor, `EngineBuilder::build`'s workhorse:
    /// verify the graph fingerprint, size both caches, zero the
    /// counters. Everything public funnels here.
    pub(crate) fn assemble(
        graph: Arc<Graph>,
        backend: Arc<dyn IndexBackend>,
        cache_cap: usize,
        conditioned_cap: usize,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<CampaignEngine, EngineError> {
        let actual = graph_fingerprint(&graph);
        let expected = backend.meta().graph_fingerprint;
        if expected != actual {
            return Err(EngineError::GraphMismatch { expected, actual });
        }
        // one eviction counter covers both engine LRUs (welfare +
        // conditioned views) — "is the cache churning?" is one question
        let cache_evictions = metrics.counter("engine.cache_evictions");
        Ok(CampaignEngine {
            graph,
            backend,
            pool: Mutex::new(None),
            cache: Mutex::new(LruCache::new(cache_cap)),
            conditioned: ConditionedCache::new(conditioned_cap)
                .with_eviction_counter(Arc::clone(&cache_evictions)),
            cache_evictions,
            queries: metrics.counter("engine.queries"),
            pool_selections: metrics.counter("engine.pool_selections"),
            welfare_evals: metrics.counter("engine.welfare_evals"),
            welfare_cache_hits: metrics.counter("engine.welfare_cache_hits"),
            welfare_cache_misses: metrics.counter("engine.welfare_cache_misses"),
            conditioned_views: metrics.counter("engine.conditioned_views"),
            conditioned_hits: metrics.counter("engine.conditioned_hits"),
            query_ns: metrics.histogram("engine.query_ns"),
            batch_ns: metrics.histogram("engine.batch_ns"),
            conditioned_derive_ns: metrics.histogram("engine.conditioned_derive_ns"),
            metrics,
        })
    }

    /// Derive (and cache) the SP-conditioned view for `sp_nodes` ahead
    /// of traffic — `EngineBuilder::prewarm_sp`'s build-time hook.
    pub(crate) fn prewarm_view(&self, sp_nodes: &[NodeId]) -> Result<(), EngineError> {
        self.conditioned_view(sp_nodes, None).map(|_| ())
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The shared index backend.
    pub fn backend(&self) -> &Arc<dyn IndexBackend> {
        &self.backend
    }

    /// The stack's metrics registry. The server adopts this so one
    /// registry spans engine, backend, and serving layer; a snapshot of
    /// it is the payload of the wire `metrics` request.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Counters snapshot, including the backend's storage shape.
    pub fn stats(&self) -> EngineStats {
        let StorageStats {
            shards_total,
            shards_loaded,
            bytes_on_disk,
            journal_records,
            journal_bytes,
            topups_total,
        } = self.backend.storage();
        EngineStats {
            queries: self.queries.get(),
            pool_selections: self.pool_selections.get(),
            welfare_evals: self.welfare_evals.get(),
            welfare_cache_hits: self.welfare_cache_hits.get(),
            conditioned_views: self.conditioned_views.get(),
            conditioned_hits: self.conditioned_hits.get(),
            shards_total,
            shards_loaded,
            store_bytes_on_disk: bytes_on_disk,
            journal_records,
            journal_bytes,
            topups_total,
        }
    }

    /// The ordered seed pool at the budget cap (fetched from the backend
    /// lazily — success or failure — and kept until a θ top-up
    /// invalidates it).
    fn pool(&self) -> Result<Arc<Vec<NodeId>>, EngineError> {
        let mut slot = crate::lock_recover(&self.pool);
        match slot.get_or_insert_with(|| {
            self.pool_selections.incr();
            // lint:allow(no-blocking-under-lock) -- single-flight by design: the mutex spans the backend selection so concurrent callers wait for one computation instead of racing duplicates, and `invalidate_pool` serializes on the same mutex
            self.backend.pool_at_cap().map(Arc::new)
        }) {
            Ok(p) => Ok(Arc::clone(p)),
            Err(e) => Err(e.duplicate()),
        }
    }

    /// Grow the backend's sampled population to at least `target` RR
    /// sets (the wire `topup` request's engine half). Delegates to
    /// [`IndexBackend::ensure_theta`] — only a journaled store accepts a
    /// real deficit — and, when θ actually grew, drops the cached pool
    /// and every cached conditioned view: both were selected over the
    /// smaller population and must be re-derived to stay bit-identical
    /// to a cold build at the new θ. The welfare cache survives (its
    /// keys are allocation × model × sim — θ-independent).
    pub fn ensure_theta(&self, target: usize) -> Result<usize, EngineError> {
        let before = self.backend.num_sampled();
        let theta = self.backend.ensure_theta(&self.graph, target)?;
        if theta != before {
            *crate::lock_recover(&self.pool) = None;
            self.conditioned.clear();
        }
        Ok(theta)
    }

    /// The SP-conditioned view for `sp_nodes`, from the cache when warm.
    /// A cache miss derives under an `engine.conditioned_derive` span
    /// (when traced) with the SP fingerprint attached; the backend gets
    /// the span's child scope so storage-side work (shard faults) nests
    /// under the derive.
    fn conditioned_view(
        &self,
        sp_nodes: &[NodeId],
        scope: Option<TraceScope<'_>>,
    ) -> Result<Arc<ConditionedView>, EngineError> {
        let (view, hit) = self.conditioned.get_or_derive(sp_nodes, |nodes| {
            let mut span = scope.map(|s| s.span("engine.conditioned_derive"));
            if let Some(sp) = span.as_mut() {
                sp.attr(
                    "sp_fingerprint",
                    format!("{:016x}", crate::conditioned::sp_fingerprint(nodes)),
                );
                sp.attr("sp_nodes", nodes.len() as u64);
            }
            let child = span.as_ref().map(|s| s.scope());
            let start = std::time::Instant::now();
            let derived = self.backend.derive_conditioned_traced(nodes, child);
            self.conditioned_derive_ns.record_since(start);
            derived
        })?;
        if hit {
            self.conditioned_hits.incr();
        } else {
            self.conditioned_views.incr();
        }
        Ok(view)
    }

    fn validate(&self, q: &CampaignQuery) -> Result<(), EngineError> {
        if q.budgets.len() != q.model.num_items() {
            return Err(EngineError::BadQuery(format!(
                "{} budgets for a {}-item model",
                q.budgets.len(),
                q.model.num_items()
            )));
        }
        for &(v, i) in q.sp.pairs() {
            if v as usize >= self.graph.num_nodes() {
                return Err(EngineError::BadQuery(format!(
                    "SP node {v} out of range for a {}-node graph",
                    self.graph.num_nodes()
                )));
            }
            if i >= q.model.num_items() {
                return Err(EngineError::BadQuery(format!(
                    "SP item i{i} out of range for a {}-item model",
                    q.model.num_items()
                )));
            }
        }
        // only free items (positive budget, not fixed in SP) draw from the
        // pool: SeqGRD consumes it block by block across all free items,
        // MaxGRD only ever takes one free item's prefix
        let sp_items = q.sp.items();
        let free_budgets = (0..q.budgets.len())
            .filter(|&i| !sp_items.contains(i))
            .map(|i| q.budgets[i]);
        let needed = match q.algorithm {
            QueryAlgorithm::MaxGrd => free_budgets.max().unwrap_or(0),
            _ => free_budgets.sum(),
        };
        let cap = self.backend.meta().budget_cap as usize;
        if needed > cap {
            return Err(EngineError::BadQuery(format!(
                "query needs {needed} pool seeds but the index supports at most {cap} \
                 (rebuild the index with a larger --budget-cap)"
            )));
        }
        Ok(())
    }

    /// Answer one campaign query. Never samples RR sets: fresh campaigns
    /// draw their pool from the prebuilt index, follow-up campaigns
    /// (`SP ≠ ∅`) from an SP-conditioned view of it (cached per SP node
    /// set), assignment runs against the borrowed pool, and welfare of
    /// `allocation ∪ SP` is Monte-Carlo-evaluated (cached).
    pub fn query(&self, q: &CampaignQuery) -> Result<CampaignAnswer, EngineError> {
        self.query_traced(q, None)
    }

    /// [`CampaignEngine::query`] recording spans into a request trace:
    /// an `engine.query` root under `parent`, with the conditioned
    /// derive, storage faults, and each welfare evaluation nested
    /// beneath it. `parent = None` is exactly `query` — the untraced
    /// hot path allocates nothing for tracing.
    pub fn query_traced(
        &self,
        q: &CampaignQuery,
        parent: Option<TraceScope<'_>>,
    ) -> Result<CampaignAnswer, EngineError> {
        let start = std::time::Instant::now();
        let mut root = parent.map(|s| s.span("engine.query"));
        if let Some(sp) = root.as_mut() {
            sp.attr("algorithm", q.algorithm.name());
            sp.attr("follow_up", !q.sp.is_empty());
        }
        let scope = root.as_ref().map(|s| s.scope());
        self.validate(q)?;
        // whichever Arc backs `pool` must outlive it, hence the bindings
        let view;
        let pool_arc;
        let pool: &[NodeId] = if q.sp.is_empty() {
            pool_arc = self.pool()?;
            &pool_arc
        } else {
            view = self.conditioned_view(&q.sp.seed_nodes(), scope)?;
            view.pool()
        };
        let problem = Problem::new_shared(self.graph.clone(), q.model.clone())
            .with_budgets(q.budgets.clone())
            .with_fixed_allocation(q.sp.clone())
            .with_sim(q.sim);
        let model_fp = model_fingerprint(&q.model);
        // the objective is ρ(S ∪ SP); for fresh campaigns the union is S
        let eval =
            |alloc: &Allocation| self.evaluate(&problem, model_fp, &alloc.union(&q.sp), scope);

        let (algorithm, allocation) = match q.algorithm {
            QueryAlgorithm::SeqGrdNm => {
                let s = SeqGrd::nm().solve_with_pool(&problem, pool);
                (s.algorithm, s.allocation)
            }
            QueryAlgorithm::SeqGrd => {
                let s = SeqGrd::full().solve_with_pool(&problem, pool);
                (s.algorithm, s.allocation)
            }
            QueryAlgorithm::MaxGrd => {
                let s = MaxGrd.solve_with_pool(&problem, pool);
                (s.algorithm, s.allocation)
            }
            QueryAlgorithm::BestOf => {
                let a = SeqGrd::full().solve_with_pool(&problem, pool);
                let b = MaxGrd.solve_with_pool(&problem, pool);
                let chosen = if eval(&a.allocation) >= eval(&b.allocation) {
                    a
                } else {
                    b
                };
                (format!("BestOf({})", chosen.algorithm), chosen.allocation)
            }
        };
        let welfare = eval(&allocation);
        self.queries.incr();
        self.query_ns.record_since(start);
        Ok(CampaignAnswer {
            algorithm,
            allocation,
            sp: q.sp.clone(),
            welfare,
            elapsed: start.elapsed(),
        })
    }

    /// Answer a batch of independent queries across `threads` workers
    /// (0 = one per core). Answers come back in query order; the pool
    /// selection, index, and welfare cache are shared by all workers.
    pub fn query_batch(
        &self,
        queries: &[CampaignQuery],
        threads: usize,
    ) -> Vec<Result<CampaignAnswer, EngineError>> {
        self.query_batch_traced(queries, threads, None)
    }

    /// [`CampaignEngine::query_batch`] under a trace: one
    /// `engine.batch` span with an `engine.query` child per entry.
    /// Workers record concurrently into the same trace — span records
    /// are flat and parent-linked, so cross-thread nesting is safe.
    pub fn query_batch_traced(
        &self,
        queries: &[CampaignQuery],
        threads: usize,
        parent: Option<TraceScope<'_>>,
    ) -> Vec<Result<CampaignAnswer, EngineError>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let batch_start = std::time::Instant::now();
        let mut batch_span = parent.map(|s| s.span("engine.batch"));
        if let Some(sp) = batch_span.as_mut() {
            sp.attr("queries", queries.len() as u64);
        }
        let trace_scope = batch_span.as_ref().map(|s| s.scope());
        // materialize the pool up front so workers never race the OnceLock
        // initialization work (get_or_init would serialize them anyway —
        // this just keeps the first query's latency out of every worker).
        // An all-follow-up batch never needs the fresh pool — don't pay
        // the budget-cap selection for it. A pool failure surfaces
        // per-query below, not here.
        if queries.iter().any(|q| q.sp.is_empty()) {
            let _ = self.pool();
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        } else {
            threads
        }
        .min(queries.len());
        let mut results: Vec<Option<Result<CampaignAnswer, EngineError>>> =
            (0..queries.len()).map(|_| None).collect();
        let slots: Vec<(usize, &CampaignQuery)> = queries.iter().enumerate().collect();
        let chunk = slots.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (shard, out) in slots.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for ((_, q), slot) in shard.iter().zip(out.iter_mut()) {
                        *slot = Some(self.query_traced(q, trace_scope));
                    }
                });
            }
        });
        self.batch_ns.record_since(batch_start);
        results
            .into_iter()
            // lint:allow(no-panic-in-serving) -- the scoped workers above fill every slot before the scope joins; an empty slot is a local logic bug
            .map(|r| r.expect("every slot filled by its worker"))
            .collect()
    }

    /// Cached Monte-Carlo welfare of `alloc` under the query's model/sim.
    /// Traced as one `engine.welfare` span per evaluation, with the
    /// cache outcome attached (a BestOf query legitimately emits
    /// several).
    fn evaluate(
        &self,
        problem: &Problem,
        model_fp: u64,
        alloc: &Allocation,
        scope: Option<TraceScope<'_>>,
    ) -> f64 {
        self.welfare_evals.incr();
        let mut h = DefaultHasher::new();
        model_fp.hash(&mut h);
        alloc.pairs().hash(&mut h);
        problem.sim.samples.hash(&mut h);
        problem.sim.base_seed.hash(&mut h);
        let key = h.finish();
        let mut span = scope.map(|s| s.span("engine.welfare"));
        if let Some(&w) = crate::lock_recover(&self.cache).get(&key) {
            self.welfare_cache_hits.incr();
            if let Some(sp) = span.as_mut() {
                sp.attr("cache_hit", true);
            }
            return w;
        }
        self.welfare_cache_misses.incr();
        if let Some(sp) = span.as_mut() {
            sp.attr("cache_hit", false);
        }
        let est = WelfareEstimator::new(&self.graph, &problem.model, problem.sim);
        let w = est.welfare(alloc);
        if crate::lock_recover(&self.cache).insert(key, w).is_some() {
            self.cache_evictions.incr();
        }
        w
    }
}

/// A stable 64-bit fingerprint of a utility model, via its canonical serde
/// value tree (`BTreeMap`-backed objects make traversal order, and hence
/// the fingerprint, deterministic).
pub fn model_fingerprint(model: &cwelmax_utility::UtilityModel) -> u64 {
    let mut h = DefaultHasher::new();
    hash_value(&model.to_value(), &mut h);
    h.finish()
}

fn hash_value(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Bool(b) => {
            1u8.hash(h);
            b.hash(h);
        }
        Value::Int(i) => {
            2u8.hash(h);
            i.hash(h);
        }
        Value::UInt(u) => {
            3u8.hash(h);
            u.hash(h);
        }
        Value::Float(f) => {
            4u8.hash(h);
            f.to_bits().hash(h);
        }
        Value::String(s) => {
            5u8.hash(h);
            s.hash(h);
        }
        Value::Array(a) => {
            6u8.hash(h);
            a.len().hash(h);
            for x in a {
                hash_value(x, h);
            }
        }
        Value::Object(m) => {
            7u8.hash(h);
            m.len().hash(h);
            for (k, x) in m {
                k.hash(h);
                hash_value(x, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineBuilder, RrIndex};
    use cwelmax_graph::{generators, ProbabilityModel as PM};
    use cwelmax_rrset::ImmParams;
    use cwelmax_utility::configs::{self, TwoItemConfig};

    fn builder(n: usize, m: usize, seed: u64, cap: u32) -> EngineBuilder {
        let graph = Arc::new(generators::erdos_renyi(n, m, seed, PM::WeightedCascade));
        let params = ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed: 7,
            threads: 2,
            max_rr_sets: 500_000,
        };
        let index = Arc::new(RrIndex::build(&graph, cap, &params));
        EngineBuilder::from_index(index).graph(graph)
    }

    fn engine(n: usize, m: usize, seed: u64, cap: u32) -> CampaignEngine {
        builder(n, m, seed, cap).build().unwrap()
    }

    fn query(algorithm: QueryAlgorithm, cfg: TwoItemConfig, b: usize) -> CampaignQuery {
        CampaignQuery::new(configs::two_item_config(cfg), vec![b, b], algorithm).with_samples(200)
    }

    #[test]
    fn rejects_foreign_index() {
        let g1 = Arc::new(generators::erdos_renyi(50, 200, 1, PM::WeightedCascade));
        let g2 = Arc::new(generators::erdos_renyi(50, 200, 2, PM::WeightedCascade));
        let params = ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed: 7,
            threads: 2,
            max_rr_sets: 100_000,
        };
        let index = Arc::new(RrIndex::build(&g1, 4, &params));
        match EngineBuilder::from_index(index).graph(g2).build() {
            Err(EngineError::GraphMismatch { .. }) => {}
            other => panic!("expected GraphMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn rejects_budget_above_cap() {
        let e = engine(60, 240, 3, 4);
        let q = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 3); // Σ = 6 > 4
        match e.query(&q) {
            Err(EngineError::BadQuery(msg)) => assert!(msg.contains("budget-cap")),
            other => panic!("expected BadQuery, got {:?}", other.err()),
        }
        // MaxGRD only needs max_i b_i = 3 ≤ 4
        let q = query(QueryAlgorithm::MaxGrd, TwoItemConfig::C1, 3);
        e.query(&q).unwrap();
    }

    #[test]
    fn many_campaigns_one_pool_selection() {
        let e = engine(150, 700, 5, 10);
        for cfg in [TwoItemConfig::C1, TwoItemConfig::C2, TwoItemConfig::C3] {
            for algo in [QueryAlgorithm::SeqGrdNm, QueryAlgorithm::MaxGrd] {
                let a = e.query(&query(algo, cfg, 3)).unwrap();
                assert!(a.welfare.is_finite());
            }
        }
        let s = e.stats();
        assert_eq!(s.queries, 6);
        assert_eq!(s.pool_selections, 1, "one shared selection serves all");
    }

    #[test]
    fn repeated_query_hits_welfare_cache() {
        let e = engine(100, 400, 9, 6);
        let q = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 2);
        let a1 = e.query(&q).unwrap();
        let a2 = e.query(&q).unwrap();
        assert_eq!(a1.allocation, a2.allocation);
        assert_eq!(a1.welfare, a2.welfare);
        let s = e.stats();
        assert_eq!(s.welfare_evals, 2);
        assert_eq!(s.welfare_cache_hits, 1);
    }

    #[test]
    fn hot_key_survives_welfare_cache_eviction_cycle() {
        // regression for the old wholesale-clearing cache: once the cache
        // filled, *every* entry was dropped — including the hot key — so
        // sustained mixed traffic periodically lost its working set. With
        // the LRU, an entry touched between insertions must never be
        // evicted.
        let e = builder(80, 320, 13, 6).cache_capacity(4).build().unwrap();
        let hot = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 2);
        e.query(&hot).unwrap(); // populate the hot entry
        let mut expected_hits = 0;
        for seed in 0..12u64 {
            // distinct cold entry (different sim seed → different cache key)
            let mut cold = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C2, 2);
            cold.sim.base_seed = 0xC01D + seed;
            e.query(&cold).unwrap();
            // the hot query must still be served from cache, even though
            // cold traffic has cycled the 4-entry cache multiple times over
            e.query(&hot).unwrap();
            expected_hits += 1;
            assert_eq!(
                e.stats().welfare_cache_hits,
                expected_hits,
                "hot key evicted after {} cold inserts",
                seed + 1
            );
        }
    }

    #[test]
    fn zero_capacity_cache_disables_caching_without_breaking_queries() {
        // regression: cache capacity 0 used to clamp to a 1-entry cache;
        // it must mean "no welfare caching" — same answers, zero hits, no
        // panic or eviction churn
        let cached = engine(80, 320, 17, 6);
        let uncached = builder(80, 320, 17, 6).cache_capacity(0).build().unwrap();
        let q = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 2);
        let want = cached.query(&q).unwrap();
        for _ in 0..3 {
            let got = uncached.query(&q).unwrap();
            assert_eq!(got.allocation, want.allocation);
            assert_eq!(got.welfare, want.welfare);
        }
        let s = uncached.stats();
        assert_eq!(s.welfare_evals, 3);
        assert_eq!(s.welfare_cache_hits, 0, "a disabled cache never hits");
        // conditioned-view cache: capacity 0 re-derives per follow-up
        let follow = builder(80, 320, 17, 6)
            .conditioned_capacity(0)
            .build()
            .unwrap();
        let fq = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 2)
            .with_sp(Allocation::from_pairs(vec![(3, 1)]));
        follow.query(&fq).unwrap();
        follow.query(&fq).unwrap();
        let s = follow.stats();
        assert_eq!(s.conditioned_views, 2, "every follow-up re-derives");
        assert_eq!(s.conditioned_hits, 0);
    }

    #[test]
    fn batch_matches_serial_in_order() {
        let e = engine(120, 500, 11, 8);
        let queries: Vec<CampaignQuery> = [
            (QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 2),
            (QueryAlgorithm::MaxGrd, TwoItemConfig::C2, 3),
            (QueryAlgorithm::SeqGrdNm, TwoItemConfig::C3, 4),
            (QueryAlgorithm::BestOf, TwoItemConfig::C4, 2),
            (QueryAlgorithm::SeqGrd, TwoItemConfig::C1, 1),
        ]
        .into_iter()
        .map(|(a, c, b)| query(a, c, b))
        .collect();
        let serial: Vec<_> = queries
            .iter()
            .map(|q| e.query(q).unwrap().allocation)
            .collect();
        let batch = e.query_batch(&queries, 3);
        assert_eq!(batch.len(), queries.len());
        for (got, want) in batch.into_iter().zip(serial) {
            assert_eq!(got.unwrap().allocation, want);
        }
    }

    #[test]
    fn model_fingerprint_is_stable_and_discriminating() {
        let a = configs::two_item_config(TwoItemConfig::C1);
        let b = configs::two_item_config(TwoItemConfig::C2);
        assert_eq!(model_fingerprint(&a), model_fingerprint(&a));
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
    }
}
