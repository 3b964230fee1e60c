//! # cwelmax-store
//!
//! The **sharded on-disk index store** — the one persisted form of an
//! RR-set index. A store is a directory, opened without loading the
//! index whole, so server cold-start is `O(manifest)`, not `O(index)`,
//! and graph size is not capped by startup RAM:
//!
//! ```text
//! store/
//!   manifest.bin      build metadata, persisted budget-cap pool,
//!                     per-shard integrity records   (read eagerly)
//!   shard-0000.cwsx   contiguous RR-set range 0     (loaded lazily)
//!   shard-0001.cwsx   contiguous RR-set range 1     (loaded lazily)
//!   …
//!   journal.bin       θ top-ups since the last compaction (optional)
//! ```
//!
//! * [`write_store`] partitions a frozen [`cwelmax_engine::RrIndex`]
//!   into N shard files (written in parallel, each framed and
//!   CRC-checked with the engine codec under store-specific magics) and
//!   persists the ordered greedy pool at the budget cap in the manifest;
//! * [`ShardedIndex::open`] reads **only** the manifest — cold-open is
//!   `O(manifest)`, independent of index size;
//! * shards fault in lazily on first touch (per-shard `OnceLock` slots)
//!   and in parallel for whole-index operations; a corrupt shard fails
//!   its own loads with a precise [`cwelmax_engine::EngineError`] while
//!   its siblings keep serving;
//! * [`JournaledStore`] — the base [`ShardedIndex`] plus the replayed
//!   journal overlay (empty journal = a plain store) — is the **one**
//!   store-side [`cwelmax_engine::IndexBackend`]: a
//!   [`cwelmax_engine::CampaignEngine`] serves from a store unchanged,
//!   fresh campaigns draw the manifest's persisted pool and touch **zero**
//!   shards, the first SP-conditioned follow-up faults all shards in;
//! * every whole-store query (`coverage_of`, `greedy_select`,
//!   conditioning, compaction's fold) is one walk, in the private `walk`
//!   module, over "base shards in global set order, then the overlay" —
//!   contiguous ranges preserve global set order, hence
//!   float-accumulation order and greedy tie-breaks, so results are
//!   **bit-identical** to the monolithic index cold-built at the same
//!   `(seed, θ)`.
//!
//! ```no_run
//! use cwelmax_engine::EngineBuilder;
//! use cwelmax_store::FromStore; // adds EngineBuilder::from_journaled_store
//! use std::sync::Arc;
//!
//! # fn demo(graph: Arc<cwelmax_graph::Graph>) -> Result<(), cwelmax_engine::EngineError> {
//! let engine = EngineBuilder::from_journaled_store("big-graph.store") // manifest + journal only
//!     .graph(graph)
//!     .build()?; // still no shard I/O
//! assert_eq!(engine.stats().shards_loaded, 0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Growing a store
//!
//! A store is not frozen at build time: [`JournaledStore`] wraps the
//! sharded base with an append-only mutation journal (`journal.bin`,
//! [`journal`] module) and a **θ top-up** path —
//! `ensure_theta(graph, target)` continues the build's sampling stream
//! from the current cursor, fsyncs the new sets as one CRC-framed
//! journal record, and serves them immediately through an in-memory
//! overlay whose answers are bit-identical to a cold build at
//! `(seed, target)`. `compact()` folds the journal into fresh shards.

pub mod format;
pub mod journal;
pub mod sharded;
pub mod topup;
mod walk;

pub use format::{Manifest, ShardInfo, MANIFEST_FILE};
pub use journal::{JournalRecord, Replay, JOURNAL_FILE, JOURNAL_MAGIC, JOURNAL_VERSION};
pub use sharded::{write_store, ShardedIndex, StoreSummary};
pub use topup::{FromStore, JournaledStore};
