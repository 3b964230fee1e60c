//! # cwelmax-engine
//!
//! Persistent RR-set index + multi-campaign query engine: the serving
//! architecture on top of the CWelMax reproduction.
//!
//! Every cold `solve()` in `cwelmax-core` spends nearly all of its time
//! sampling RR sets — yet the sampled collection depends only on the graph
//! and the accuracy parameters, not on the campaign's utility model or
//! budgets. This crate makes that expensive artifact **persistent and
//! shared**:
//!
//! * [`RrIndex`] — an immutable, shareable index frozen from an
//!   [`cwelmax_rrset::RrCollection`], with an inverted node → RR-set
//!   postings layout so coverage updates during greedy selection cost
//!   `O(postings touched)` with no per-call index construction;
//! * [`codec`] — the frame every persisted file shares (magic/version
//!   header, little-endian sections, CRC-32 over the payload); the one
//!   persisted form of an index is `cwelmax-store`'s sharded, journaled
//!   store, so an index built once on a large graph is reused across
//!   processes;
//! * [`conditioned`] — SP-conditioned views of the frozen index: marginal
//!   sampling is standard sampling plus a filter, so **follow-up**
//!   campaigns (fixed prior allocation `SP`) are also served warm, from a
//!   view selected with SP's sets masked out of the base postings (and
//!   LRU-cached per SP node set) — zero resampling, zero copying;
//! * [`CampaignEngine`] — loads a graph + index once and answers many
//!   allocation queries (budgets × utility configs × algorithm choice ×
//!   optional `SP`) over the shared index **without resampling**, with a
//!   welfare-evaluation cache, and batches whose cache-covered entries are
//!   answered inline while the rest run in parallel;
//! * [`EngineBuilder`] — the **one** way to assemble an engine: pick a
//!   source (`from_index` / `from_backend`, or `cwelmax-store`'s
//!   `from_journaled_store` extension), set cache capacities, `build()`;
//! * [`backend`] — the [`IndexBackend`] trait the engine serves through:
//!   a monolithic [`RrIndex`] or `cwelmax-store`'s lazily loaded,
//!   journaled store plug in interchangeably, and [`StorageStats`] makes
//!   the physical shape (shards total/loaded, bytes on disk) observable
//!   in [`EngineStats`] and over the wire.
//!
//! ```
//! use cwelmax_engine::{CampaignQuery, EngineBuilder, QueryAlgorithm, RrIndex};
//! use cwelmax_graph::{generators, ProbabilityModel};
//! use cwelmax_rrset::ImmParams;
//! use cwelmax_utility::configs::{self, TwoItemConfig};
//! use std::sync::Arc;
//!
//! // Expensive, once: build (or open a store of) the index.
//! let graph = Arc::new(generators::erdos_renyi(
//!     200, 1000, 7, ProbabilityModel::WeightedCascade));
//! let params = ImmParams { threads: 2, max_rr_sets: 200_000, ..Default::default() };
//! let index = Arc::new(RrIndex::build(&graph, 10, &params));
//!
//! // Cheap, many times: answer campaigns over the shared index.
//! let engine = EngineBuilder::from_index(index).graph(graph).build().unwrap();
//! let q1 = CampaignQuery::new(
//!     configs::two_item_config(TwoItemConfig::C1), vec![3, 3],
//!     QueryAlgorithm::SeqGrdNm).with_samples(100);
//! let q2 = CampaignQuery::new(
//!     configs::two_item_config(TwoItemConfig::C2), vec![5, 5],
//!     QueryAlgorithm::MaxGrd).with_samples(100);
//! let answers = engine.query_batch(&[q1, q2], 2);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! assert_eq!(engine.stats().pool_selections, 1); // one selection served both
//! ```

pub mod backend;
pub mod builder;
pub mod codec;
pub mod conditioned;
pub mod engine;
pub mod error;
pub mod index;
pub mod lru;
pub mod query;
pub mod wire;

pub use backend::{IndexBackend, StorageStats};

/// Lock `m`, recovering the guard when a previous holder panicked.
/// Every critical section over the engine's mutexes (welfare-cache
/// get/insert, conditioned-view cache, logger swap) leaves the guarded
/// structure valid, so continuing with the data is always sound — and a
/// poisoned cache must degrade to a cache miss, never take the serving
/// path down (the `no-panic-in-serving` invariant).
pub(crate) fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
pub use builder::EngineBuilder;
pub use conditioned::{sp_fingerprint, validated_sp_nodes, ConditionedCache, ConditionedView};
pub use engine::{model_fingerprint, CampaignEngine, EngineStats};
pub use error::{EngineError, ErrorKind};
pub use index::{graph_fingerprint, greedy_select_parts, IndexMeta, RrIndex};
pub use lru::LruCache;
pub use query::{CampaignAnswer, CampaignQuery, QueryAlgorithm};
