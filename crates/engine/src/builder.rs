//! [`EngineBuilder`] — the one way to assemble a [`CampaignEngine`].
//!
//! One declarative surface for source, cache capacities and metrics:
//!
//! ```no_run
//! use cwelmax_engine::{EngineBuilder, RrIndex};
//! # fn demo(graph: std::sync::Arc<cwelmax_graph::Graph>, index: std::sync::Arc<RrIndex>)
//! #     -> Result<(), cwelmax_engine::EngineError> {
//! let engine = EngineBuilder::from_index(index)
//!     .graph(graph)
//!     .cache_capacity(8192)
//!     .build()?;
//! # Ok(())
//! # }
//! ```
//!
//! Sources: [`from_index`] (an in-memory [`RrIndex`]), [`from_backend`]
//! (any [`IndexBackend`]), and [`from_backend_fn`] (a deferred backend
//! opener — `cwelmax-store`'s `FromStore` extension trait uses it to
//! provide `EngineBuilder::from_journaled_store(dir)` without a
//! dependency cycle, so store-open errors surface at [`build`] like
//! every other source's).
//!
//! Everything else is optional: cache capacities default to the engine's
//! documented defaults.
//!
//! [`from_index`]: EngineBuilder::from_index
//! [`from_backend`]: EngineBuilder::from_backend
//! [`from_backend_fn`]: EngineBuilder::from_backend_fn
//! [`build`]: EngineBuilder::build

use crate::backend::IndexBackend;
use crate::conditioned::DEFAULT_CONDITIONED_CAP;
use crate::engine::{CampaignEngine, DEFAULT_CACHE_CAP};
use crate::error::EngineError;
use crate::index::RrIndex;
use cwelmax_graph::Graph;
use cwelmax_obs::MetricsRegistry;
use std::sync::Arc;

/// Opens the engine's backend at build time, with the stack's metrics
/// registry so the backend records into the same registry as the
/// engine.
type Opener =
    Box<dyn FnOnce(&Arc<MetricsRegistry>) -> Result<Arc<dyn IndexBackend>, EngineError> + Send>;

/// Builder for [`CampaignEngine`] — see the module docs. Construct with
/// one of the `from_*` sources, chain options, finish with
/// [`EngineBuilder::build`].
pub struct EngineBuilder {
    open: Opener,
    graph: Option<Arc<Graph>>,
    cache_capacity: Option<usize>,
    conditioned_capacity: Option<usize>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl EngineBuilder {
    fn with_opener(open: Opener) -> EngineBuilder {
        EngineBuilder {
            open,
            graph: None,
            cache_capacity: None,
            conditioned_capacity: None,
            metrics: None,
        }
    }

    /// Serve from an in-memory monolithic [`RrIndex`].
    pub fn from_index(index: Arc<RrIndex>) -> EngineBuilder {
        EngineBuilder::from_backend(index)
    }

    /// Serve from any ready [`IndexBackend`] (a monolithic index or a
    /// store already opened).
    pub fn from_backend(backend: Arc<dyn IndexBackend>) -> EngineBuilder {
        EngineBuilder::with_opener(Box::new(move |_| Ok(backend)))
    }

    /// Serve from a backend that is *opened at build time* — the hook
    /// downstream crates use to extend the builder with sources this
    /// crate cannot name (`cwelmax-store`'s `FromStore` trait builds
    /// `EngineBuilder::from_journaled_store(dir)` on it). Open errors
    /// surface from [`EngineBuilder::build`]. The opener receives the
    /// stack's [`MetricsRegistry`] (the one passed to
    /// [`EngineBuilder::metrics`], or the fresh default) so the backend's
    /// fault counters land in the same registry the engine and server
    /// report from.
    pub fn from_backend_fn(
        open: impl FnOnce(&Arc<MetricsRegistry>) -> Result<Arc<dyn IndexBackend>, EngineError>
            + Send
            + 'static,
    ) -> EngineBuilder {
        EngineBuilder::with_opener(Box::new(open))
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
    /// [`DEFAULT_CONDITIONED_CAP`]; 0 disables view caching — follow-ups
    /// re-derive every time).
    pub fn conditioned_capacity(mut self, cap: usize) -> EngineBuilder {
        self.conditioned_capacity = Some(cap);
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
    /// fingerprint and size the caches.
    pub fn build(self) -> Result<CampaignEngine, EngineError> {
        let graph = self.graph.ok_or_else(|| {
            EngineError::Builder(".graph(...) is required before .build()".into())
        })?;
        let metrics = self.metrics.unwrap_or_default();
        let backend = (self.open)(&metrics)?;
        CampaignEngine::assemble(
            graph,
            backend,
            self.cache_capacity.unwrap_or(DEFAULT_CACHE_CAP),
            self.conditioned_capacity.unwrap_or(DEFAULT_CONDITIONED_CAP),
            metrics,
        )
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
