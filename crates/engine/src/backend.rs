//! [`IndexBackend`] — the engine's pluggable index abstraction.
//!
//! [`crate::CampaignEngine`] needs exactly three things from an index:
//! its build metadata (budget cap + graph fingerprint, to validate
//! queries and refuse foreign graphs), the ordered greedy pool at the
//! budget cap (whose prefixes serve every fresh campaign), and a way to
//! derive SP-conditioned views for follow-up campaigns. This trait
//! captures that surface so the engine can serve from exactly two
//! physical representations:
//!
//! * the monolithic in-memory [`RrIndex`] (this module's impl) —
//!   everything resident, selections computed on demand; the reference
//!   oracle every bit-identity test compares against;
//! * `cwelmax-store`'s `JournaledStore` — a manifest opened eagerly, N
//!   shard files loaded lazily on first touch, and an in-memory overlay
//!   of journaled θ top-ups (empty for a plain store). The budget-cap
//!   pool is *persisted in the manifest*, so fresh campaigns against an
//!   un-topped-up store are answered without loading a single shard.
//!
//! [`StorageStats`] makes the physical shape observable: the server's
//! `{"type": "stats"}` response reports how many shards exist, how many
//! were actually faulted in, and the store's on-disk footprint, so lazy
//! loading is verifiable over the wire rather than an article of faith.

use crate::conditioned::ConditionedView;
use crate::error::EngineError;
use crate::index::{IndexMeta, RrIndex};
use cwelmax_graph::{Graph, NodeId};
use cwelmax_obs::TraceScope;

/// Point-in-time description of a backend's physical storage shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Shards the backend is made of (1 for a monolithic index).
    pub shards_total: u64,
    /// Shards currently resident in memory. For a monolithic index this
    /// is always 1; for a sharded store it grows from 0 as queries touch
    /// shards.
    pub shards_loaded: u64,
    /// Bytes the backend occupies on disk (0 for an index that was built
    /// in memory rather than opened from a store).
    pub bytes_on_disk: u64,
    /// Mutation-journal records currently replayed on top of the base
    /// store (0 for immutable backends and freshly compacted stores).
    pub journal_records: u64,
    /// Bytes of committed journal on disk (0 for immutable backends).
    pub journal_bytes: u64,
    /// θ top-ups performed since this backend was opened (cumulative —
    /// compaction folds the journal away but does not reset this).
    pub topups_total: u64,
}

/// What the campaign engine requires of an index representation. All
/// methods take `&self`: backends are shared across query threads, so
/// any lazy loading happens behind interior mutability.
pub trait IndexBackend: Send + Sync {
    /// Build metadata (ε, ℓ, seed, budget cap, graph fingerprint).
    fn meta(&self) -> &IndexMeta;

    /// Node-universe size.
    fn num_nodes(&self) -> usize;

    /// θ — total RR sets sampled (including discarded ones): the
    /// estimator denominator, and the cursor a θ top-up grows from.
    fn num_sampled(&self) -> usize;

    /// Grow the backend's sampled population to at least `target` sets,
    /// returning the θ actually held afterwards. Already satisfied
    /// targets are a no-op. Immutable backends (the default) refuse a
    /// real deficit with [`EngineError::BadQuery`] — only a journaled
    /// store can grow. Implementations that do grow must produce sets
    /// **bit-identical** to a cold build at `(seed, target)`: they
    /// continue the build's seed stream from the current cursor rather
    /// than resampling from scratch.
    fn ensure_theta(&self, _graph: &Graph, target: usize) -> Result<usize, EngineError> {
        let have = self.num_sampled();
        if target <= have {
            Ok(have)
        } else {
            Err(EngineError::BadQuery(format!(
                "backend holds θ = {have} and cannot grow to {target}: \
                 only a journaled store supports θ top-up"
            )))
        }
    }

    /// The ordered greedy seed pool at the budget cap. Prefix
    /// preservation makes this one selection serve every fresh query
    /// with a smaller budget. Fallible: a sharded backend may have to
    /// fault shards in (or may serve a pool persisted at build time
    /// without touching any shard).
    fn pool_at_cap(&self) -> Result<Vec<NodeId>, EngineError>;

    /// Derive the SP-conditioned view for `sp_nodes` (unsorted, possibly
    /// with duplicates — implementations canonicalize), hanging any
    /// storage-side spans (shard faults) under
    /// `scope`. The engine caches the result; implementations only build
    /// it. This is the required method, so a backend with real I/O
    /// cannot lose its spans by forgetting an override; an in-memory
    /// index, which has no storage story worth a span, ignores the scope.
    fn derive_conditioned_traced(
        &self,
        sp_nodes: &[NodeId],
        scope: Option<TraceScope<'_>>,
    ) -> Result<ConditionedView, EngineError>;

    /// [`IndexBackend::derive_conditioned_traced`] outside any trace.
    fn derive_conditioned(&self, sp_nodes: &[NodeId]) -> Result<ConditionedView, EngineError> {
        self.derive_conditioned_traced(sp_nodes, None)
    }

    /// The backend's physical storage shape, for observability.
    fn storage(&self) -> StorageStats;
}

impl IndexBackend for RrIndex {
    fn meta(&self) -> &IndexMeta {
        self.meta()
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes()
    }

    fn num_sampled(&self) -> usize {
        self.num_sampled()
    }

    fn pool_at_cap(&self) -> Result<Vec<NodeId>, EngineError> {
        Ok(self.greedy_select(self.meta().budget_cap as usize).seeds)
    }

    fn derive_conditioned_traced(
        &self,
        sp_nodes: &[NodeId],
        _scope: Option<TraceScope<'_>>,
    ) -> Result<ConditionedView, EngineError> {
        ConditionedView::derive(self, sp_nodes)
    }

    fn storage(&self) -> StorageStats {
        StorageStats {
            shards_total: 1,
            shards_loaded: 1,
            ..StorageStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::graph_fingerprint;
    use cwelmax_graph::{generators, ProbabilityModel as PM};
    use cwelmax_rrset::{RrCollection, StandardRr};

    #[test]
    fn monolithic_backend_mirrors_the_index() {
        let g = generators::erdos_renyi(60, 240, 3, PM::WeightedCascade);
        let mut c = RrCollection::new(60);
        c.extend_parallel(&g, &StandardRr, 600, 11, 2);
        let idx = RrIndex::freeze(
            &c,
            IndexMeta {
                eps: 0.5,
                ell: 1.0,
                seed: 11,
                budget_cap: 4,
                graph_fingerprint: graph_fingerprint(&g),
            },
        );
        let backend: &dyn IndexBackend = &idx;
        assert_eq!(backend.num_nodes(), 60);
        assert_eq!(backend.meta().budget_cap, 4);
        assert_eq!(backend.num_sampled(), 600);
        assert_eq!(backend.pool_at_cap().unwrap(), idx.greedy_select(4).seeds);
        let view = backend.derive_conditioned(&[5, 1, 5]).unwrap();
        assert_eq!(view.sp_nodes(), &[1, 5]);
        assert_eq!(
            backend.storage(),
            StorageStats {
                shards_total: 1,
                shards_loaded: 1,
                bytes_on_disk: 0,
                journal_records: 0,
                journal_bytes: 0,
                topups_total: 0,
            }
        );
    }

    #[test]
    fn immutable_backends_refuse_a_theta_deficit() {
        let g = generators::erdos_renyi(30, 90, 5, PM::WeightedCascade);
        let mut c = RrCollection::new(30);
        c.extend_parallel(&g, &StandardRr, 200, 5, 2);
        let idx = RrIndex::freeze(
            &c,
            IndexMeta {
                eps: 0.5,
                ell: 1.0,
                seed: 5,
                budget_cap: 2,
                graph_fingerprint: graph_fingerprint(&g),
            },
        );
        let backend: &dyn IndexBackend = &idx;
        // satisfied targets are a no-op and report the θ actually held
        assert_eq!(backend.ensure_theta(&g, 150).unwrap(), 200);
        assert_eq!(backend.ensure_theta(&g, 200).unwrap(), 200);
        // a real deficit is a typed refusal, not a panic or silent clamp
        assert!(matches!(
            backend.ensure_theta(&g, 201),
            Err(EngineError::BadQuery(_))
        ));
    }
}
