//! [`EngineBuilder`] — the one way to assemble a [`CampaignEngine`].
//!
//! One declarative surface for source, cache capacities, and
//! pre-warming:
//!
//! ```no_run
//! use cwelmax_engine::EngineBuilder;
//! # fn demo(graph: std::sync::Arc<cwelmax_graph::Graph>)
//! #     -> Result<(), cwelmax_engine::EngineError> {
//! let engine = EngineBuilder::from_snapshot("index.cwrx")
//!     .graph(graph)
//!     .cache_capacity(8192)
//!     .prewarm_sp([17, 42])
//!     .build()?;
//! # Ok(())
//! # }
//! ```
//!
//! Sources: [`EngineBuilder::from_snapshot`] (a monolithic snapshot
//! file, persisted conditioned views pre-warmed), [`from_index`]
//! (an in-memory [`RrIndex`]), [`from_backend`] (any
//! [`IndexBackend`]), and [`from_backend_fn`] (a deferred backend
//! opener — `cwelmax-store`'s `FromStore` extension trait uses it to
//! provide `EngineBuilder::from_journaled_store(dir)` without a
//! dependency cycle, so store-open errors surface at [`build`] like
//! every other source's).
//!
//! Everything else is optional: cache capacities default to the engine's
//! documented defaults, and [`prewarm_sp`] derives SP-conditioned views
//! eagerly at build time so the first follow-up query against a known
//! prior allocation is already warm.
//!
//! [`from_index`]: EngineBuilder::from_index
//! [`from_backend`]: EngineBuilder::from_backend
//! [`from_backend_fn`]: EngineBuilder::from_backend_fn
//! [`prewarm_sp`]: EngineBuilder::prewarm_sp
//! [`build`]: EngineBuilder::build

use crate::backend::IndexBackend;
use crate::conditioned::DEFAULT_CONDITIONED_CAP;
use crate::engine::{CampaignEngine, DEFAULT_CACHE_CAP};
use crate::error::EngineError;
use crate::index::RrIndex;
use crate::snapshot;
use cwelmax_graph::{Graph, NodeId};
use cwelmax_obs::MetricsRegistry;
use std::path::PathBuf;
use std::sync::Arc;

/// Where the engine's index comes from.
enum Source {
    /// A monolithic snapshot file; persisted conditioned views (format
    /// v2) are pre-warmed on build.
    Snapshot(PathBuf),
    /// A ready backend (an in-memory index or an opened store).
    Backend(Arc<dyn IndexBackend>),
    /// A deferred backend opener, run at build time with the stack's
    /// metrics registry so the backend records into the same registry
    /// as the engine.
    #[allow(clippy::type_complexity)]
    Deferred(
        Box<dyn FnOnce(&Arc<MetricsRegistry>) -> Result<Arc<dyn IndexBackend>, EngineError> + Send>,
    ),
}

/// Builder for [`CampaignEngine`] — see the module docs. Construct with
/// one of the `from_*` sources, chain options, finish with
/// [`EngineBuilder::build`].
pub struct EngineBuilder {
    source: Source,
    graph: Option<Arc<Graph>>,
    cache_capacity: Option<usize>,
    conditioned_capacity: Option<usize>,
    prewarm: Vec<Vec<NodeId>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl EngineBuilder {
    fn with_source(source: Source) -> EngineBuilder {
        EngineBuilder {
            source,
            graph: None,
            cache_capacity: None,
            conditioned_capacity: None,
            prewarm: Vec::new(),
            metrics: None,
        }
    }

    /// Load the index from a monolithic snapshot file. SP node sets
    /// persisted in the snapshot's conditioned-views section (format v2)
    /// are pre-warmed at build time, exactly as if passed to
    /// [`EngineBuilder::prewarm_sp`].
    pub fn from_snapshot(path: impl Into<PathBuf>) -> EngineBuilder {
        EngineBuilder::with_source(Source::Snapshot(path.into()))
    }

    /// Serve from an in-memory monolithic [`RrIndex`].
    pub fn from_index(index: Arc<RrIndex>) -> EngineBuilder {
        EngineBuilder::with_source(Source::Backend(index))
    }

    /// Serve from any ready [`IndexBackend`] (a monolithic index or a
    /// store already opened).
    pub fn from_backend(backend: Arc<dyn IndexBackend>) -> EngineBuilder {
        EngineBuilder::with_source(Source::Backend(backend))
    }

    /// Serve from a backend that is *opened at build time* — the hook
    /// downstream crates use to extend the builder with sources this
    /// crate cannot name (`cwelmax-store`'s `FromStore` trait builds
    /// `EngineBuilder::from_journaled_store(dir)` on it). Open errors
    /// surface from [`EngineBuilder::build`], uniformly with the
    /// snapshot source. The opener receives the stack's
    /// [`MetricsRegistry`] (the one passed to
    /// [`EngineBuilder::metrics`], or the fresh default) so the backend's
    /// fault counters land in the same registry the engine and server
    /// report from.
    pub fn from_backend_fn(
        open: impl FnOnce(&Arc<MetricsRegistry>) -> Result<Arc<dyn IndexBackend>, EngineError>
            + Send
            + 'static,
    ) -> EngineBuilder {
        EngineBuilder::with_source(Source::Deferred(Box::new(open)))
    }

    /// The graph the index was built for (required; [`build`] verifies
    /// the fingerprint and rejects a foreign index).
    ///
    /// [`build`]: EngineBuilder::build
    pub fn graph(mut self, graph: Arc<Graph>) -> EngineBuilder {
        self.graph = Some(graph);
        self
    }

    /// Welfare-cache capacity in entries (default
    /// [`DEFAULT_CACHE_CAP`]; 0 disables welfare caching).
    pub fn cache_capacity(mut self, cap: usize) -> EngineBuilder {
        self.cache_capacity = Some(cap);
        self
    }

    /// Conditioned-view cache capacity in entries (default
    /// [`DEFAULT_CONDITIONED_CAP`], grown to hold every pre-warmed view;
    /// 0 disables view caching — follow-ups re-derive every time).
    pub fn conditioned_capacity(mut self, cap: usize) -> EngineBuilder {
        self.conditioned_capacity = Some(cap);
        self
    }

    /// Derive the SP-conditioned view for this node set eagerly at build
    /// time (repeatable), so the first follow-up campaign against a
    /// known prior allocation is served warm.
    pub fn prewarm_sp(mut self, sp_nodes: impl Into<Vec<NodeId>>) -> EngineBuilder {
        self.prewarm.push(sp_nodes.into());
        self
    }

    /// The metrics registry the engine (and a deferred backend) record
    /// into. Defaults to a fresh registry per build, so independently
    /// built engines never share counters; pass one explicitly to
    /// aggregate several stacks into a single scrape surface.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> EngineBuilder {
        self.metrics = Some(registry);
        self
    }

    /// Assemble the engine: resolve the source, verify the graph
    /// fingerprint, size the caches, and derive every pre-warm view
    /// (persisted snapshot views first, then explicit
    /// [`EngineBuilder::prewarm_sp`] sets — duplicates are cache hits,
    /// not re-derivations).
    pub fn build(self) -> Result<CampaignEngine, EngineError> {
        let graph = self.graph.ok_or_else(|| {
            EngineError::Builder(".graph(...) is required before .build()".into())
        })?;
        let metrics = self.metrics.unwrap_or_default();
        let (backend, mut prewarm): (Arc<dyn IndexBackend>, Vec<Vec<NodeId>>) = match self.source {
            Source::Snapshot(path) => {
                let (index, views) = snapshot::load_full(path)?;
                (Arc::new(index), views)
            }
            Source::Backend(backend) => (backend, Vec::new()),
            Source::Deferred(open) => (open(&metrics)?, Vec::new()),
        };
        prewarm.extend(self.prewarm);
        // unless the operator pinned a capacity, make sure pre-warming
        // cannot evict itself (never below the default either)
        let conditioned_cap = self
            .conditioned_capacity
            .unwrap_or_else(|| DEFAULT_CONDITIONED_CAP.max(prewarm.len()));
        let engine = CampaignEngine::assemble(
            graph,
            backend,
            self.cache_capacity.unwrap_or(DEFAULT_CACHE_CAP),
            conditioned_cap,
            metrics,
        )?;
        // capacity 0 means "no view caching": deriving views here would
        // be build-time work the disabled cache immediately discards
        if conditioned_cap > 0 {
            for sp in &prewarm {
                engine.prewarm_view(sp)?;
            }
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{CampaignQuery, QueryAlgorithm};
    use cwelmax_graph::{generators, ProbabilityModel as PM};
    use cwelmax_rrset::ImmParams;
    use cwelmax_utility::configs::{self, TwoItemConfig};

    fn graph_and_index(seed: u64) -> (Arc<Graph>, Arc<RrIndex>) {
        let graph = Arc::new(generators::erdos_renyi(80, 320, seed, PM::WeightedCascade));
        let params = ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed: 7,
            threads: 2,
            max_rr_sets: 200_000,
        };
        let index = Arc::new(RrIndex::build(&graph, 6, &params));
        (graph, index)
    }

    #[test]
    fn build_requires_a_graph() {
        let (_, index) = graph_and_index(3);
        match EngineBuilder::from_index(index).build() {
            Err(EngineError::Builder(msg)) => assert!(msg.contains("graph"), "{msg}"),
            other => panic!("expected Builder, got {:?}", other.err()),
        }
    }

    #[test]
    fn build_rejects_a_foreign_graph() {
        let (_, index) = graph_and_index(3);
        let other = Arc::new(generators::erdos_renyi(80, 320, 4, PM::WeightedCascade));
        match EngineBuilder::from_index(index).graph(other).build() {
            Err(EngineError::GraphMismatch { .. }) => {}
            other => panic!("expected GraphMismatch, got {:?}", other.err()),
        }
    }

    #[test]
    fn built_engine_answers_queries_and_honors_capacities() {
        let (graph, index) = graph_and_index(5);
        let engine = EngineBuilder::from_index(index)
            .graph(graph)
            .cache_capacity(0)
            .build()
            .unwrap();
        let q = CampaignQuery::new(
            configs::two_item_config(TwoItemConfig::C1),
            vec![2, 2],
            QueryAlgorithm::SeqGrdNm,
        )
        .with_samples(100);
        engine.query(&q).unwrap();
        engine.query(&q).unwrap();
        let s = engine.stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.welfare_cache_hits, 0, "capacity 0 disables the cache");
    }

    #[test]
    fn prewarm_sp_makes_the_first_followup_a_cache_hit() {
        let (graph, index) = graph_and_index(9);
        let engine = EngineBuilder::from_index(index)
            .graph(graph)
            .prewarm_sp(vec![3, 11])
            .build()
            .unwrap();
        assert_eq!(engine.stats().conditioned_views, 1, "derived at build");
        let q = CampaignQuery::new(
            configs::two_item_config(TwoItemConfig::C1),
            vec![2, 2],
            QueryAlgorithm::SeqGrdNm,
        )
        .with_sp(cwelmax_diffusion::Allocation::from_pairs(vec![
            (3, 1),
            (11, 1),
        ]))
        .with_samples(100);
        engine.query(&q).unwrap();
        let s = engine.stats();
        assert_eq!(s.conditioned_views, 1, "no new derivation at query time");
        assert_eq!(s.conditioned_hits, 1, "served from the pre-warmed view");
    }

    #[test]
    fn prewarm_is_skipped_when_view_caching_is_disabled() {
        // capacity 0 disables the view cache; deriving views at build
        // would be pure waste (each one dropped on insert)
        let (graph, index) = graph_and_index(21);
        let engine = EngineBuilder::from_index(index)
            .graph(graph)
            .conditioned_capacity(0)
            .prewarm_sp(vec![3, 11])
            .build()
            .unwrap();
        assert_eq!(engine.stats().conditioned_views, 0, "no wasted derivation");
    }

    #[test]
    fn deferred_backend_errors_surface_at_build() {
        let (graph, _) = graph_and_index(13);
        let result =
            EngineBuilder::from_backend_fn(|_| Err(EngineError::Corrupt("store is broken".into())))
                .graph(graph)
                .build();
        match result {
            Err(EngineError::Corrupt(msg)) => assert!(msg.contains("broken")),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }
}
