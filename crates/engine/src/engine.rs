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
//! Every welfare number a query needs — the marginals inside SeqGRD and
//! MaxGRD, best-of's comparison, the answer's own welfare — is asked of
//! one per-query oracle (`QueryOracle`): the welfare cache first (keyed
//! by model fingerprint × allocation × base × simulation settings, kept
//! across queries), then the query's world records (each allocation
//! simulated at most once per query), and only then a Monte-Carlo pass.
//!
//! [`CampaignEngine::query_batch`] answers on the calling thread every
//! entry the caches already cover — any algorithm over a resident pool
//! or view, every evaluation of which is cached, microseconds each — and
//! fans only the residue that has to simulate out across threads (the engine is
//! immutable-shared, `&self`, by construction). What selects the path is
//! cache state the engine observes, never a size threshold: a thread
//! spawn costs more than a dozen cache hits, and less than one
//! Monte-Carlo estimate.

use crate::backend::{IndexBackend, StorageStats};
use crate::conditioned::{ConditionedCache, ConditionedView};
use crate::error::EngineError;
use crate::index::graph_fingerprint;
use crate::lru::LruCache;
use crate::query::{CampaignAnswer, CampaignQuery, QueryAlgorithm};
use cwelmax_core::{CwelMaxAlgorithm, MaxGrd, Problem, SeqGrd};
use cwelmax_diffusion::{Allocation, WelfareOracle, WorldRecords};
use cwelmax_graph::{Graph, NodeId};
use cwelmax_obs::{Counter, Histogram, MetricsRegistry, SpanGuard, TraceScope};
use cwelmax_utility::ItemId;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::convert::Infallible;
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
    /// SP's sets masked + one greedy selection).
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
    /// Welfare cache: hash of a [`WelfareKey`] → the key and its
    /// estimate (see [`welfare_lookup`]). Bounded LRU — hot keys survive
    /// sustained mixed traffic instead of being dropped wholesale when
    /// the cache fills.
    cache: Mutex<WelfareCache>,
    /// SP-conditioned index views, keyed by SP node-set fingerprint, so
    /// repeated follow-up campaigns against the same prior allocation are
    /// served warm (no re-selection).
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
    /// Worlds simulated for welfare-cache misses — the miss path's unit
    /// of work; a query answered from the caches adds none.
    sim_worlds: Arc<Counter>,
    /// World records a query asked for again after simulating them.
    world_record_hits: Arc<Counter>,
    conditioned_views: Arc<Counter>,
    conditioned_hits: Arc<Counter>,
    /// Threads spawned for the deferred residue of batches; stays 0
    /// while every batch is answered from the caches.
    batch_workers: Arc<Counter>,
    query_ns: Arc<Histogram>,
    batch_ns: Arc<Histogram>,
    conditioned_derive_ns: Arc<Histogram>,
}

/// What [`CampaignEngine::answer`] hands back for a query it stopped
/// short of: one it was told to defer where the caches end — at an
/// uncached SP view or the first welfare-cache miss. The `defer: Option<D>` parameter of the query path
/// is `Some(Deferred)` for that, and `None` to do the work instead; the
/// caller that passes `None` picks `D = Infallible`, so that its answer
/// cannot be a deferral is a fact of the types.
#[derive(Debug, Clone, Copy)]
struct Deferred;

/// Everything a welfare estimate is a function of: `ρ(pairs)` when `base`
/// is empty, the marginal `ρ(pairs) − ρ(base)` in identical worlds
/// otherwise (`base ⊆ pairs`). Both lists are in the order the solver
/// assembled them — a repeat assembles them the same way, and a lookup
/// then borrows them unsorted; the same set in another order is only a
/// miss, which the query's world records (keyed sorted) absorb. The
/// cache is keyed by this value's 64-bit hash and keeps the
/// value beside the estimate, so a hash collision is a detected miss, not
/// another query's welfare.
#[derive(Debug, Hash, PartialEq)]
struct WelfareKey<'a> {
    model_fp: u64,
    pairs: Cow<'a, [(NodeId, ItemId)]>,
    base: Cow<'a, [(NodeId, ItemId)]>,
    samples: usize,
    base_seed: u64,
}

impl WelfareKey<'_> {
    fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

type WelfareCache = LruCache<u64, (WelfareKey<'static>, f64)>;

/// Outcome of [`welfare_lookup`].
#[derive(Debug, PartialEq)]
enum Cached {
    Hit(f64),
    Absent,
    /// The slot holds another key with the same hash: compute, serve
    /// uncached, leave the resident entry alone (as
    /// `ConditionedCache::get_or_derive` treats a fingerprint collision).
    Collision,
}

fn welfare_lookup(cache: &mut WelfareCache, hash: u64, asked: &WelfareKey<'_>) -> Cached {
    match cache.get(&hash) {
        Some((held, welfare)) if held == asked => Cached::Hit(*welfare),
        Some(_) => Cached::Collision,
        None => Cached::Absent,
    }
}

/// Drop a deferred probe's span unrecorded.
fn discard(span: Option<SpanGuard<'_>>) {
    if let Some(s) = span {
        s.discard();
    }
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
            sim_worlds: metrics.counter("engine.sim_worlds"),
            world_record_hits: metrics.counter("engine.world_record_hits"),
            conditioned_views: metrics.counter("engine.conditioned_views"),
            conditioned_hits: metrics.counter("engine.conditioned_hits"),
            batch_workers: metrics.counter("engine.batch_workers"),
            query_ns: metrics.histogram("engine.query_ns"),
            batch_ns: metrics.histogram("engine.batch_ns"),
            conditioned_derive_ns: metrics.histogram("engine.conditioned_derive_ns"),
            metrics,
        })
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

    /// The SP-conditioned view for `sp_nodes` (canonical — a query's
    /// `seed_nodes()`) and whether the cache held it. A cache miss
    /// derives under an `engine.conditioned_derive` span (when traced)
    /// carrying the SP fingerprint and how many sets SP covered; the
    /// backend gets the span's child scope so storage-side work (shard
    /// faults) nests under the derive. The caller counts the outcome
    /// ([`Self::count_view`]) once the query it serves is past its last
    /// deferral point.
    fn conditioned_view(
        &self,
        sp_nodes: &[NodeId],
        scope: Option<TraceScope<'_>>,
    ) -> Result<(Arc<ConditionedView>, bool), EngineError> {
        self.conditioned.get_or_derive(sp_nodes, |nodes| {
            let mut span = scope.map(|s| s.span("engine.conditioned_derive"));
            if let Some(sp) = span.as_mut() {
                let fingerprint = crate::conditioned::canonical_fingerprint(nodes);
                sp.attr("sp_fingerprint", format!("{fingerprint:016x}"));
                sp.attr("sp_nodes", nodes.len() as u64);
            }
            let child = span.as_ref().map(|s| s.scope());
            let start = std::time::Instant::now();
            let derived = self.backend.derive_conditioned_traced(nodes, child);
            self.conditioned_derive_ns.record_since(start);
            if let (Some(sp), Ok(view)) = (span.as_mut(), &derived) {
                sp.attr("removed_sets", view.removed_sets() as u64);
            }
            derived
        })
    }

    fn count_view(&self, hit: bool) {
        if hit {
            self.conditioned_hits.incr();
        } else {
            self.conditioned_views.incr();
        }
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
        self.answer(q, parent, None::<Infallible>)
            .map(|answered| answered.unwrap_or_else(|never| match never {}))
    }

    /// The one query body: answer `q`, or — given `defer` — hand `defer`
    /// back where the caches end, leaving no counter, histogram sample
    /// or span behind (a query counts once, when it is answered).
    fn answer<D: Copy>(
        &self,
        q: &CampaignQuery,
        parent: Option<TraceScope<'_>>,
        defer: Option<D>,
    ) -> Result<Result<CampaignAnswer, D>, EngineError> {
        let start = std::time::Instant::now();
        let mut root = parent.map(|s| s.span("engine.query"));
        if let Some(sp) = root.as_mut() {
            sp.attr("algorithm", q.algorithm.name());
            sp.attr("follow_up", !q.sp.is_empty());
        }
        let scope = root.as_ref().map(|s| s.scope());
        self.validate(q)?;
        // whichever Arc backs `pool` must outlive it, hence the bindings
        let mut view = None;
        let pool_arc;
        let pool: &[NodeId] = if q.sp.is_empty() {
            pool_arc = self.pool()?;
            &pool_arc
        } else {
            let nodes = q.sp.seed_nodes();
            let found = match defer {
                None => self.conditioned_view(&nodes, scope)?,
                Some(d) => match self.conditioned.get(&nodes) {
                    Some(cached) => (cached, true),
                    None => {
                        discard(root);
                        return Ok(Err(d));
                    }
                },
            };
            view.insert(found).0.pool()
        };
        let problem = Problem::new_shared(self.graph.clone(), q.model.clone())
            .with_budgets(q.budgets.clone())
            .with_fixed_allocation(q.sp.clone())
            .with_sim(q.sim);
        let oracle = QueryOracle {
            engine: self,
            records: problem.oracle(),
            sp: &q.sp,
            model_fp: model_fingerprint(&q.model),
            scope,
            defer,
            deferred: Cell::new(None),
            hits: Cell::new(0),
            misses: Cell::new(0),
            evictions: Cell::new(0),
            spans: RefCell::default(),
        };
        let seqgrd = |solver: SeqGrd| {
            let allocation = solver.assign_items(&problem, pool, &oracle);
            (solver.name().to_string(), allocation)
        };
        let maxgrd = || {
            let (allocation, _) = MaxGrd.best_single_item(&problem, pool, &oracle);
            (MaxGrd.name().to_string(), allocation)
        };
        let (algorithm, allocation) = match q.algorithm {
            QueryAlgorithm::SeqGrdNm => seqgrd(SeqGrd::nm()),
            QueryAlgorithm::SeqGrd => seqgrd(SeqGrd::full()),
            QueryAlgorithm::MaxGrd => maxgrd(),
            QueryAlgorithm::BestOf => {
                let (a, b) = (seqgrd(SeqGrd::full()), maxgrd());
                let (name, chosen) = if oracle.objective(&a.1) >= oracle.objective(&b.1) {
                    a
                } else {
                    b
                };
                (format!("BestOf({name})"), chosen)
            }
        };
        let welfare = oracle.objective(&allocation);
        if let Err(d) = oracle.finish() {
            discard(root);
            return Ok(Err(d));
        }
        if let Some((_, hit)) = view {
            self.count_view(hit);
        }
        self.queries.incr();
        self.query_ns.record_since(start);
        Ok(Ok(CampaignAnswer {
            algorithm,
            allocation,
            sp: q.sp.clone(),
            welfare,
            elapsed: start.elapsed(),
        }))
    }

    /// Answer a batch of independent queries; answers come back in query
    /// order. Entries the caches cover are answered on the calling
    /// thread; the rest run across up to `threads` workers (0 = one per
    /// core) sharing the pool selection, index, and welfare cache.
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
        let scope = batch_span.as_ref().map(|s| s.scope());
        // select the pool once, here, so that workers do not queue on its
        // mutex behind the first of them. An all-follow-up batch never
        // needs the fresh pool — don't pay the budget-cap selection for
        // it. A pool failure surfaces per-query below, not here.
        if queries.iter().any(|q| q.sp.is_empty()) {
            let _ = self.pool();
        }
        let mut results: Vec<Option<Result<CampaignAnswer, EngineError>>> = queries
            .iter()
            .map(|q| match self.answer(q, scope, Some(Deferred)) {
                Ok(Ok(answer)) => Some(Ok(answer)),
                Ok(Err(Deferred)) => None,
                Err(e) => Some(Err(e)),
            })
            .collect();
        let mut deferred: Vec<_> = queries
            .iter()
            .zip(results.iter_mut())
            .filter(|(_, slot)| slot.is_none())
            .collect();
        let compute = |part: &mut [(&CampaignQuery, &mut Option<_>)]| {
            for (q, slot) in part {
                **slot = Some(self.query_traced(q, scope));
            }
        };
        // the core count is a file read on Linux: look it up only when
        // there is a residue to share out
        let threads = match (deferred.len(), threads) {
            (0 | 1, _) => 1,
            (n, 0) => std::thread::available_parallelism().map_or(1, |t| t.get().min(n)),
            (n, t) => t.min(n),
        };
        if threads == 1 {
            compute(&mut deferred);
        } else {
            let chunk = deferred.len().div_ceil(threads);
            std::thread::scope(|workers| {
                for part in deferred.chunks_mut(chunk) {
                    self.batch_workers.incr();
                    workers.spawn(move || compute(part));
                }
            });
        }
        self.batch_ns.record_since(batch_start);
        results
            .into_iter()
            // lint:allow(no-panic-in-serving) -- the first pass fills a slot or defers it, and every deferred slot is filled before the scope joins; an empty slot is a local logic bug
            .map(|r| r.expect("every slot filled by the first pass or the residue"))
            .collect()
    }
}

/// One query's welfare oracle, and the only way the engine evaluates
/// anything: the welfare cache in front of the query's world records in
/// front of the simulator. The solvers' assignment bodies ask it for
/// their marginals, [`CampaignEngine::answer`] for best-of's comparison
/// and the answer's welfare, so a byte-identical repeat of any query is
/// cache hits from end to end, and within one query an allocation met
/// twice (SeqGRD's next base, MaxGRD's winner, the final allocation) is
/// simulated once.
///
/// Given `defer`, the first evaluation the cache does not hold ends the
/// probe: it and every later one read as NaN, and [`Self::finish`] hands
/// `defer` back. What the query did is tallied here and reaches the
/// registry and the trace only from `finish`, so a probe that deferred
/// leaves nothing behind.
struct QueryOracle<'q, D> {
    engine: &'q CampaignEngine,
    records: WorldRecords<'q>,
    /// The query's prior allocation: its objective is `ρ(S ∪ SP)`.
    sp: &'q Allocation,
    model_fp: u64,
    scope: Option<TraceScope<'q>>,
    defer: Option<D>,
    deferred: Cell<Option<D>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    evictions: Cell<u64>,
    /// One stopped `engine.welfare` span per evaluation.
    spans: RefCell<Vec<SpanGuard<'q>>>,
}

impl<'q, D: Copy> QueryOracle<'q, D> {
    /// `ρ(alloc ∪ SP)`; for a fresh campaign the union is `alloc`.
    fn objective(&self, alloc: &Allocation) -> f64 {
        self.welfare(&alloc.union(self.sp))
    }

    /// The estimate `pairs`/`base` name (see [`WelfareKey`]): from the
    /// welfare cache, else — unless deferring — from `simulate` over the
    /// query's world records, cached for the next query.
    fn cached(
        &self,
        pairs: &[(NodeId, ItemId)],
        base: &[(NodeId, ItemId)],
        simulate: impl FnOnce(&WorldRecords<'_>) -> f64,
    ) -> f64 {
        if self.deferred.get().is_some() {
            return f64::NAN;
        }
        let sim = self.records.config();
        let asked = WelfareKey {
            model_fp: self.model_fp,
            pairs: Cow::Borrowed(pairs),
            base: Cow::Borrowed(base),
            samples: sim.samples,
            base_seed: sim.base_seed,
        };
        let hash = asked.hash64();
        let span = self.scope.map(|s| s.span("engine.welfare"));
        let cached = {
            let mut cache = crate::lock_recover(&self.engine.cache);
            welfare_lookup(&mut cache, hash, &asked)
        };
        let Cached::Hit(welfare) = cached else {
            if let Some(d) = self.defer {
                discard(span);
                self.deferred.set(Some(d));
                return f64::NAN;
            }
            self.misses.set(self.misses.get() + 1);
            let before = self.records.worlds_simulated();
            let welfare = simulate(&self.records);
            if cached == Cached::Absent {
                let held = WelfareKey {
                    pairs: Cow::Owned(pairs.to_vec()),
                    base: Cow::Owned(base.to_vec()),
                    ..asked
                };
                if crate::lock_recover(&self.engine.cache)
                    .insert(hash, (held, welfare))
                    .is_some()
                {
                    self.evictions.set(self.evictions.get() + 1);
                }
            }
            self.keep(span, false, self.records.worlds_simulated() - before);
            return welfare;
        };
        self.hits.set(self.hits.get() + 1);
        self.keep(span, true, 0);
        welfare
    }

    /// Close an evaluation's span and hold it until [`Self::finish`].
    fn keep(&self, span: Option<SpanGuard<'q>>, cache_hit: bool, worlds: u64) {
        if let Some(mut sp) = span {
            sp.attr("cache_hit", cache_hit);
            sp.attr("worlds", worlds);
            sp.stop();
            self.spans.borrow_mut().push(sp);
        }
    }

    /// The query is answered: commit its tallies and spans — or hand back
    /// `defer` and drop them, if an evaluation was deferred.
    fn finish(self) -> Result<(), D> {
        let spans = self.spans.into_inner();
        if let Some(d) = self.deferred.get() {
            spans.into_iter().for_each(SpanGuard::discard);
            return Err(d);
        }
        drop(spans);
        let e = self.engine;
        for (counter, n) in [
            (&e.welfare_evals, self.hits.get() + self.misses.get()),
            (&e.welfare_cache_hits, self.hits.get()),
            (&e.welfare_cache_misses, self.misses.get()),
            (&e.cache_evictions, self.evictions.get()),
            (&e.sim_worlds, self.records.worlds_simulated()),
            (&e.world_record_hits, self.records.record_hits()),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
        Ok(())
    }
}

impl<D: Copy> WelfareOracle for QueryOracle<'_, D> {
    fn welfare(&self, alloc: &Allocation) -> f64 {
        self.cached(alloc.pairs(), &[], |records| records.welfare(alloc))
    }

    fn marginal_welfare(&self, add: &Allocation, base: &Allocation) -> f64 {
        self.cached(base.union(add).pairs(), base.pairs(), |records| {
            records.marginal_welfare(add, base)
        })
    }
}

/// A 64-bit fingerprint of a utility model: the hash of every
/// parameter's bit pattern (`UtilityModel::hash_bits`), stable within a
/// process and across processes of one build.
pub fn model_fingerprint(model: &cwelmax_utility::UtilityModel) -> u64 {
    let mut h = DefaultHasher::new();
    model.hash_bits(&mut h);
    h.finish()
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

    /// Positional equality of two result lists: allocation, welfare bits
    /// and algorithm where both answered, the message where both failed.
    fn assert_same_results(
        got: &[Result<CampaignAnswer, EngineError>],
        want: &[Result<CampaignAnswer, EngineError>],
    ) {
        assert_eq!(got.len(), want.len());
        for (k, pair) in got.iter().zip(want).enumerate() {
            match pair {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.allocation, w.allocation, "entry {k}");
                    assert_eq!(g.welfare.to_bits(), w.welfare.to_bits(), "entry {k}");
                    assert_eq!(g.algorithm, w.algorithm, "entry {k}");
                    assert_eq!(g.sp, w.sp, "entry {k}");
                }
                (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "entry {k}"),
                (g, w) => panic!("entry {k}: batch {g:?} vs serial {w:?}"),
            }
        }
    }

    #[test]
    fn batch_matches_serial_in_order() {
        // twins over the same index: one answers one by one, the other
        // in batches; answers and every counter must agree throughout
        let serial = engine(120, 500, 11, 8);
        let batched = engine(120, 500, 11, 8);
        let nm = |c, b| query(QueryAlgorithm::SeqGrdNm, c, b);
        let one_by_one =
            |qs: &[CampaignQuery]| qs.iter().map(|q| serial.query(q)).collect::<Vec<_>>();

        // all cold, two threads: nothing is answered inline and the
        // residue still fans out over two workers
        let hot = [
            nm(TwoItemConfig::C1, 2),
            nm(TwoItemConfig::C3, 4),
            nm(TwoItemConfig::C2, 1).with_sp(Allocation::from_pairs(vec![(3, 1)])),
        ];
        assert_same_results(&batched.query_batch(&hot, 2), &one_by_one(&hot));
        assert_eq!(batched.batch_workers.get(), 2);
        assert_eq!(batched.stats(), serial.stats());

        // all warm: answered on the caller, no worker spawned whatever
        // `threads` says, and each query counted exactly once
        assert_same_results(&batched.query_batch(&hot, 0), &one_by_one(&hot));
        assert_eq!(
            batched.batch_workers.get(),
            2,
            "a warm batch spawns nothing"
        );
        assert_eq!(batched.stats(), serial.stats());
        assert_eq!(batched.stats().queries, 6);
        assert_eq!(batched.stats().welfare_evals, 6);
        assert_eq!(batched.stats().welfare_cache_hits, 3);
        assert_eq!(batched.stats().conditioned_hits, 1);

        // mixed: warm hits around a novel Monte-Carlo seed, solvers that
        // simulate, an uncached SP and a query the engine rejects
        let mut novel = nm(TwoItemConfig::C1, 2);
        novel.sim.base_seed = 0xD1FF;
        let mixed = [
            hot[0].clone(),
            novel,
            query(QueryAlgorithm::MaxGrd, TwoItemConfig::C2, 3),
            nm(TwoItemConfig::C4, 2).with_sp(Allocation::from_pairs(vec![(9, 0)])),
            nm(TwoItemConfig::C1, 5), // Σ = 10 > cap 8
            hot[2].clone(),
            query(QueryAlgorithm::BestOf, TwoItemConfig::C4, 2),
            query(QueryAlgorithm::SeqGrd, TwoItemConfig::C1, 1),
        ];
        let got = batched.query_batch(&mixed, 3);
        assert!(matches!(got[4], Err(EngineError::BadQuery(_))));
        assert_same_results(&got, &one_by_one(&mixed));
        // five deferred entries over three threads: chunks of two
        assert_eq!(batched.batch_workers.get(), 2 + 3);
        assert_eq!(batched.stats(), serial.stats());
        assert_eq!(batched.stats().queries, 6 + 7);

        // a residue of one runs on the caller
        let mut lone = nm(TwoItemConfig::C2, 2);
        lone.sim.base_seed = 0xA10E;
        let last = [hot[1].clone(), lone];
        assert_same_results(&batched.query_batch(&last, 0), &one_by_one(&last));
        assert_eq!(batched.batch_workers.get(), 2 + 3);
        assert_eq!(batched.stats(), serial.stats());
    }

    #[test]
    fn passes_per_query_are_the_distinct_allocations_it_asks_about() {
        let e = engine(150, 700, 5, 10);
        let mut seed = 0x9A55;
        // worlds simulated by `q` at a Monte-Carlo seed nobody has used,
        // in units of its sample count; its repeat must simulate none
        let mut passes = |mut q: CampaignQuery| {
            seed += 1;
            q.sim.base_seed = seed;
            let before = e.sim_worlds.get();
            let cold = e.query(&q).unwrap();
            let simulated = e.sim_worlds.get() - before;
            let misses = e.welfare_cache_misses.get();
            let warm = e.query(&q).unwrap();
            assert_eq!(warm.allocation, cold.allocation);
            assert_eq!(warm.welfare.to_bits(), cold.welfare.to_bits());
            assert_eq!(e.sim_worlds.get() - before, simulated, "a repeat simulates");
            assert_eq!(e.welfare_cache_misses.get(), misses, "a repeat misses");
            assert_eq!(simulated % 200, 0);
            simulated / 200
        };
        // nothing is postponed under soft competition: SeqGRD asks about
        // its first candidate and the final allocation; MaxGRD about one
        // candidate per item; best-of about SeqGRD's two and MaxGRD's
        // other candidate (SeqGRD's first *is* MaxGRD's for that item)
        let c3 = |algorithm| query(algorithm, TwoItemConfig::C3, 3);
        assert_eq!(passes(c3(QueryAlgorithm::SeqGrdNm)), 1);
        assert_eq!(passes(c3(QueryAlgorithm::SeqGrd)), 2);
        assert_eq!(passes(c3(QueryAlgorithm::MaxGrd)), 2);
        assert_eq!(passes(c3(QueryAlgorithm::BestOf)), 3);
        // two items nobody adopts (price above value, no noise): every
        // marginal is 0, both are postponed, and the final allocation is
        // one no marginal asked about — a third pass
        let unsold = cwelmax_utility::UtilityModel::new(
            cwelmax_utility::TableValue::from_table(2, vec![0.0, 1.0, 1.0, 1.0]),
            vec![5.0, 5.0],
            vec![cwelmax_utility::NoiseDist::None; 2],
        );
        let postponing =
            |algorithm| CampaignQuery::new(unsold.clone(), vec![3, 2], algorithm).with_samples(200);
        assert_eq!(passes(postponing(QueryAlgorithm::SeqGrd)), 3);
        assert_eq!(passes(postponing(QueryAlgorithm::BestOf)), 3);
    }

    #[test]
    fn welfare_cache_hit_is_confirmed_by_key_material() {
        let key = |pairs: &'static [(NodeId, ItemId)]| WelfareKey {
            model_fp: 1,
            pairs: Cow::Borrowed(pairs),
            base: Cow::Borrowed(&[]),
            samples: 100,
            base_seed: 7,
        };
        let mut cache = WelfareCache::new(4);
        cache.insert(42, (key(&[(3, 0)]), 10.5));
        assert_eq!(
            welfare_lookup(&mut cache, 42, &key(&[(3, 0)])),
            Cached::Hit(10.5)
        );
        // another allocation arriving under the same 64-bit hash
        assert_eq!(
            welfare_lookup(&mut cache, 42, &key(&[(4, 0)])),
            Cached::Collision
        );
        assert_eq!(
            welfare_lookup(&mut cache, 43, &key(&[(3, 0)])),
            Cached::Absent
        );

        // end to end: plant a foreign entry where a query's key hashes;
        // the query must compute its own welfare, every time, and leave
        // the resident entry alone
        let twin = engine(100, 400, 9, 6);
        let e = engine(100, 400, 9, 6);
        let q = query(QueryAlgorithm::SeqGrdNm, TwoItemConfig::C1, 2);
        let want = twin.query(&q).unwrap();
        let hash = WelfareKey {
            model_fp: model_fingerprint(&q.model),
            pairs: Cow::Borrowed(want.allocation.pairs()),
            base: Cow::Borrowed(&[]),
            samples: q.sim.samples,
            base_seed: q.sim.base_seed,
        }
        .hash64();
        crate::lock_recover(&e.cache).insert(hash, (key(&[(3, 0)]), -1.0));
        for _ in 0..2 {
            let got = e.query(&q).unwrap();
            assert_eq!(got.welfare.to_bits(), want.welfare.to_bits());
        }
        assert_eq!(e.stats().welfare_cache_hits, 0);
        assert_eq!(
            welfare_lookup(&mut crate::lock_recover(&e.cache), hash, &key(&[(3, 0)])),
            Cached::Hit(-1.0)
        );
    }

    #[test]
    fn model_fingerprint_is_stable_and_discriminating() {
        let a = configs::two_item_config(TwoItemConfig::C1);
        let b = configs::two_item_config(TwoItemConfig::C2);
        assert_eq!(model_fingerprint(&a), model_fingerprint(&a));
        assert_ne!(model_fingerprint(&a), model_fingerprint(&b));
    }
}
