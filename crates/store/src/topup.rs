//! [`JournaledStore`] — a sharded store that can **grow**: the frozen
//! [`ShardedIndex`] base plus an in-memory overlay of journaled θ
//! top-ups, served through the same [`IndexBackend`] surface.
//!
//! ## Why growing is safe
//!
//! The store's answers are a deterministic function of `(seed, θ)`:
//! set `k` of the build stream depends only on the seed and `k`, never
//! on thread scheduling (see `RrCollection::extend_parallel`). A top-up
//! therefore does not "add more random sets" — it *continues the exact
//! stream the store was built from*, via `RrCollection::resume_at` at
//! the current cursor with the build's regeneration seed
//! (`seed ^ REGEN_SEED_XOR`, the stream `sampled_collection` uses for
//! its final sampling pass). The grown store is bit-identical to a cold
//! build at `(seed, target)`:
//!
//! * **coverage / greedy** — base shards hold contiguous global set
//!   ranges and the overlay's sets come after all of them, so every
//!   composed walk visits sets in global order: the same `f64`
//!   additions happen in the same order as in the cold monolith, and
//!   the argmax breaks ties identically;
//! * **conditioning** — a follow-up view is that same selection with
//!   the sets SP touches masked in every part, so the surviving sets
//!   are visited in exactly the cold store's filtered global order.
//!
//! ## Durability lifecycle
//!
//! `ensure_theta` samples the deficit, appends **one** journal record
//! (fsync — see [`crate::journal`]), and only then splices the sets
//! into the overlay: a record is serveable exactly when it is durable,
//! so an acknowledged top-up survives a killed process and a power loss.
//!
//! `compact` folds base + overlay into a fresh store with the store
//! writer behind [`crate::write_store`] (stage every file as `.tmp`,
//! delete the old manifest, swap the shards in, rename the new manifest
//! in), then deletes the journal. It fsyncs nothing, so what it promises
//! is less:
//!
//! * killed after the new manifest is renamed in but before the journal
//!   is deleted, it leaves a journal whose records are all ≤ the new
//!   manifest's θ, which the next open detects and discards (they are
//!   already folded in);
//! * killed between the writer deleting the old manifest and renaming
//!   the new one in, it leaves a directory with **no manifest**: the
//!   store does not open, though the journal survives beside it;
//! * on a power loss the compacted shards and manifest may not be on
//!   disk at all, and the journal that held the same sets is already
//!   deleted — compacted files are not power-loss durable.

use crate::journal::{self, JournalRecord};
use crate::sharded::{worker_count, write_contents, ShardedIndex, StoreContents, StoreSummary};
use crate::walk::{self, Canonical};
use cwelmax_engine::conditioned::validated_sp_nodes;
use cwelmax_engine::{
    graph_fingerprint, greedy_select_parts, ConditionedView, EngineBuilder, EngineError,
    IndexBackend, IndexMeta, RrIndex, StorageStats,
};
use cwelmax_graph::{Graph, NodeId};
use cwelmax_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceScope};
use cwelmax_rrset::collection::GreedySelection;
use cwelmax_rrset::{RrCollection, StandardRr, REGEN_SEED_XOR};
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Extends [`EngineBuilder`] with the store source this crate provides:
/// with the trait in scope, `EngineBuilder::from_journaled_store(dir)`
/// builds an engine over a [`JournaledStore`] opened at `build()` time —
/// the manifest is read and the journal (if any) replayed then, so open
/// errors surface from `build()` — and the engine
/// can grow the store live through `ensure_theta` (the wire `topup`
/// request).
///
/// ```no_run
/// use cwelmax_engine::EngineBuilder;
/// use cwelmax_store::FromStore;
/// # fn demo(graph: std::sync::Arc<cwelmax_graph::Graph>)
/// #     -> Result<(), cwelmax_engine::EngineError> {
/// let engine = EngineBuilder::from_journaled_store("big-graph.store")
///     .graph(graph)
///     .build()?;
/// # Ok(())
/// # }
/// ```
pub trait FromStore {
    /// Serve from a store directory (manifest and journal eagerly at
    /// build, shards lazily at query time).
    fn from_journaled_store(dir: impl AsRef<Path>) -> EngineBuilder;
}

impl FromStore for EngineBuilder {
    fn from_journaled_store(dir: impl AsRef<Path>) -> EngineBuilder {
        let dir = dir.as_ref().to_path_buf();
        // the opener receives the builder's registry, so the store's
        // fault counters land next to the engine's query counters
        EngineBuilder::from_backend_fn(move |metrics| {
            Ok(
                Arc::new(JournaledStore::open_with_metrics(dir, Arc::clone(metrics))?)
                    as Arc<dyn IndexBackend>,
            )
        })
    }
}

/// The mutable half of a [`JournaledStore`]: the current base store and
/// the overlay of journaled sets not yet folded into it. Swapped as a
/// unit under one lock so readers always see a consistent (base,
/// overlay, θ) triple.
struct State {
    base: Arc<ShardedIndex>,
    /// The journaled sets, frozen into a postings-indexed mini-index —
    /// logically the store's one extra, memory-only shard (global set
    /// ids `base.num_sets()..`). Replaced on each top-up; empty (zero
    /// sets) right after open-with-no-journal and after `compact`. Its
    /// `num_sampled` is the composed θ (base + journal), so θ and the
    /// sets that justify it can never be observed apart.
    overlay: Arc<RrIndex>,
    /// Composed budget-cap pool, cached per overlay version (the base
    /// manifest's persisted pool is stale the moment the overlay is
    /// non-empty).
    pool: Option<Vec<NodeId>>,
}

impl State {
    /// θ including the overlay (the composed estimator denominator).
    fn num_sampled(&self) -> usize {
        self.overlay.num_sampled()
    }

    /// True when nothing is journaled on top of the base.
    fn overlay_is_empty(&self) -> bool {
        self.overlay.num_sets() == 0 && self.num_sampled() == self.base.num_sampled()
    }
}

/// A store directory opened for serving **and growing**: the lazy
/// [`ShardedIndex`] base, the replayed journal overlay, and the θ
/// top-up machinery. Shared behind an `Arc` and `&self`-queryable like
/// every other backend.
pub struct JournaledStore {
    dir: PathBuf,
    /// Build metadata — identical across top-ups and compactions (the
    /// seed and ε/ℓ of the one sampling stream being continued).
    meta: IndexMeta,
    num_nodes: usize,
    state: RwLock<State>,
    metrics: Arc<MetricsRegistry>,
    /// Journal records currently overlaying the base (gauge: compaction
    /// folds them away and resets to 0).
    journal_records: Arc<Gauge>,
    /// Committed journal bytes on disk.
    journal_bytes: Arc<Gauge>,
    /// θ top-ups performed by this instance (cumulative).
    topups_total: Arc<Counter>,
    /// Wall-clock duration of each top-up (sample + journal + splice).
    topup_ns: Arc<Histogram>,
}

impl JournaledStore {
    /// Open a store directory and replay its journal (if any) into the
    /// serving overlay. Records into a private registry; serving paths
    /// use [`JournaledStore::open_with_metrics`] to share the stack's.
    pub fn open(dir: impl AsRef<Path>) -> Result<JournaledStore, EngineError> {
        JournaledStore::open_with_metrics(dir, MetricsRegistry::new())
    }

    /// [`JournaledStore::open`] recording into the given registry.
    ///
    /// Replay applies the journal's crash-recovery rule (torn tail
    /// dropped — and physically truncated away, so the next append
    /// lands on the committed prefix; interior corruption fails
    /// loudly), then chain-validates every surviving record against
    /// the manifest: same graph fingerprint, same seed, `theta_before`
    /// linking to the manifest's θ (or the previous record). Records
    /// entirely at or below the manifest's θ were already folded in by
    /// a `compact` that crashed before deleting the journal; they are
    /// skipped, and a journal containing only such records is removed.
    pub fn open_with_metrics(
        dir: impl AsRef<Path>,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<JournaledStore, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        let base = Arc::new(ShardedIndex::open_with_metrics(&dir, Arc::clone(&metrics))?);
        let meta = *base.meta();
        let num_nodes = base.num_nodes();
        let replayed = journal::replay_file(&dir)?;
        if replayed.torn_bytes > 0 {
            journal::truncate_to(&dir, replayed.committed_bytes)?;
        }
        let mut cursor = base.num_sampled();
        let mut applied: u64 = 0;
        let mut journaled = Canonical::new();
        for rec in &replayed.records {
            if rec.graph_fingerprint != meta.graph_fingerprint {
                return Err(EngineError::Corrupt(format!(
                    "journal record is for graph {:#018x}, store is for {:#018x}",
                    rec.graph_fingerprint, meta.graph_fingerprint
                )));
            }
            if rec.seed != meta.seed {
                return Err(EngineError::Corrupt(format!(
                    "journal record continues seed {}, store was built with seed {}",
                    rec.seed, meta.seed
                )));
            }
            if rec.theta_after <= base.num_sampled() {
                // already folded into the manifest by a compact that
                // crashed before removing the journal — skip
                continue;
            }
            if rec.theta_before != cursor {
                return Err(EngineError::Corrupt(format!(
                    "journal chain break: record starts at θ = {}, expected {cursor}",
                    rec.theta_before
                )));
            }
            if let Some(&v) = rec.members.iter().find(|&&v| v as usize >= num_nodes) {
                return Err(EngineError::Corrupt(format!(
                    "journal record member node {v} out of range n={num_nodes}"
                )));
            }
            journaled.push(&rec.set_offsets, &rec.members, &rec.weights);
            cursor = rec.theta_after;
            applied += 1;
        }
        let mut journal_disk_bytes = replayed.committed_bytes;
        if applied == 0 && journal_disk_bytes > 0 {
            // every record was stale (post-compact crash): the journal
            // carries no information the manifest doesn't — drop it
            journal::remove(&dir)?;
            journal_disk_bytes = 0;
        }
        let state = State {
            base,
            overlay: Arc::new(journaled.freeze(num_nodes, cursor, meta)?),
            pool: None,
        };
        let journal_records = metrics.gauge("store.journal_records");
        journal_records.set(applied as i64);
        let journal_bytes = metrics.gauge("store.journal_bytes");
        journal_bytes.set(journal_disk_bytes as i64);
        Ok(JournaledStore {
            dir,
            meta,
            num_nodes,
            state: RwLock::new(state),
            journal_records,
            journal_bytes,
            topups_total: metrics.counter("store.topups_total"),
            topup_ns: metrics.histogram("store.topup_ns"),
            metrics,
        })
    }

    fn read(&self) -> RwLockReadGuard<'_, State> {
        // a panicked writer cannot leave State torn: every mutation
        // completes its splice before releasing the guard, and poisoning
        // is about panics, not partial writes
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// A consistent `(parts, θ)` snapshot for one composed walk: the
    /// base shards in global set order (missing ones faulted in, one
    /// `store.shard_fault` span each under `trace`), then the overlay as
    /// the last part. Only the snapshot is taken under the lock; the
    /// walk then runs on the `Arc`s it holds, so a long selection never
    /// stalls a top-up.
    fn snapshot(
        &self,
        trace: Option<TraceScope<'_>>,
    ) -> Result<(Vec<Arc<RrIndex>>, usize), EngineError> {
        let st = self.read();
        // lint:allow(no-blocking-under-lock) -- the read guard must span the shard loads: compact() swaps the base files on disk under the write lock, so dropping the guard could interleave a base swap between two loads; a read guard blocks only writers, and shards are cached after first touch
        let mut parts = st.base.load_all_traced(trace)?;
        parts.push(Arc::clone(&st.overlay));
        Ok((parts, st.num_sampled()))
    }

    /// The registry this store records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Build metadata (identical to the base store's).
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Node-universe size.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// θ — total sets sampled, **including** the journaled overlay.
    pub fn num_sampled(&self) -> usize {
        self.read().num_sampled()
    }

    /// Retained sets across base shards and overlay.
    pub fn num_sets(&self) -> usize {
        let st = self.read();
        st.base.num_sets() + st.overlay.num_sets()
    }

    /// Journal records currently overlaying the base.
    pub fn journal_records(&self) -> u64 {
        self.journal_records.get().max(0) as u64
    }

    /// Committed journal bytes on disk.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes.get().max(0) as u64
    }

    /// θ top-ups performed since open.
    pub fn topups_total(&self) -> u64 {
        self.topups_total.get()
    }

    /// Grow the sampled population to at least `target` sets by
    /// continuing the build's seed stream over `graph`, journaling the
    /// new sets (fsync), and serving them immediately. Returns the θ
    /// actually held afterwards; satisfied targets are a no-op. The
    /// graph must be the one the store was built for.
    pub fn ensure_theta(&self, graph: &Graph, target: usize) -> Result<usize, EngineError> {
        let actual = graph_fingerprint(graph);
        if actual != self.meta.graph_fingerprint {
            return Err(EngineError::GraphMismatch {
                expected: self.meta.graph_fingerprint,
                actual,
            });
        }
        loop {
            let have = self.read().num_sampled();
            if target <= have {
                return Ok(have);
            }
            let start = std::time::Instant::now();
            let deficit = target - have;
            // continue the exact sampling stream the store was built
            // from, with no lock held — reads keep serving while the
            // deficit is sampled: same regeneration seed, cursor picked
            // up where the stream stopped, so set `have + k` here is
            // bit-identical to set `have + k` of a cold build at
            // (seed, target)
            let mut c = RrCollection::resume_at(self.num_nodes, have);
            c.extend_parallel(
                graph,
                &StandardRr,
                deficit,
                self.meta.seed ^ REGEN_SEED_XOR,
                worker_count(deficit),
            );
            let (set_offsets, members, weights) = c.into_parts();
            let record = JournalRecord {
                graph_fingerprint: self.meta.graph_fingerprint,
                seed: self.meta.seed,
                theta_before: have,
                theta_after: target,
                set_offsets,
                members,
                weights,
            };
            let mut st = self.write();
            if st.num_sampled() != have {
                // a concurrent top-up moved θ while we sampled; our
                // cursor is stale, so the sampled sets are the wrong
                // slice of the stream — resample from the new θ
                drop(st);
                continue;
            }
            // durability point: the record is on disk (fsynced) before
            // any query can observe the new sets. The append must stay
            // under the write lock: it serializes with the θ recheck
            // above, so `theta_before` always equals the committed θ at
            // apply time and journal order equals application order —
            // replay on open depends on both.
            // lint:allow(no-blocking-under-lock) -- durability ordering: the fsync must complete before the sets become visible, and the append must serialize with the theta recheck so replay sees records in application order
            let appended = journal::append(&self.dir, &record)?;
            let mut grown = walk::concat(std::slice::from_ref(&st.overlay));
            grown.push(&record.set_offsets, &record.members, &record.weights);
            st.overlay = Arc::new(grown.freeze(self.num_nodes, target, self.meta)?);
            st.pool = None;
            self.journal_records.add(1);
            self.journal_bytes.add(appended as i64);
            self.topups_total.incr();
            self.topup_ns.record_since(start);
            return Ok(target);
        }
    }

    /// Total weight covered by `seeds` over base + overlay —
    /// bit-identical to a cold build at the composed `(seed, θ)` (the
    /// composed walk visits sets in the cold build's global order).
    pub fn coverage_of(&self, seeds: &[NodeId]) -> Result<f64, EngineError> {
        let (parts, _) = self.snapshot(None)?;
        Ok(walk::coverage(&parts, seeds))
    }

    /// Greedy selection over base + overlay — bit-identical to the cold
    /// build's (same accumulation order, same argmax tie-breaks); the
    /// equivalence oracle for the top-up tests.
    pub fn greedy_select(&self, b: usize) -> Result<GreedySelection, EngineError> {
        let (parts, _) = self.snapshot(None)?;
        Ok(greedy_select_parts(&parts, self.num_nodes, b, &[]).0)
    }

    /// Fold base + overlay into a fresh sharded store and delete the
    /// journal. `shards` defaults to the base's current shard count.
    ///
    /// The store is written from its parts: the composed walk's
    /// concatenated sets, validated as a frozen index would be, and the
    /// composed budget-cap pool ([`IndexBackend::pool_at_cap`]: the
    /// cached one, else one selection over the parts) — no monolithic
    /// index and no postings are built. The compacted store is
    /// byte-deterministic: identical to [`crate::write_store`] of a cold
    /// build at the composed `(seed, θ)`.
    ///
    /// Crash behaviour (module docs): the journal is deleted after the
    /// new manifest is renamed in, and a process killed between those
    /// two steps is recovered by the next open, which skips the stale
    /// records. A process killed while the writer swaps shards leaves no
    /// manifest, and nothing here is fsynced, so a compaction is not
    /// durable against power loss.
    pub fn compact(&self, shards: Option<usize>) -> Result<StoreSummary, EngineError> {
        loop {
            // the pool is taken before the write lock, like every
            // selection over the parts; it answers the θ it was taken
            // at, so a top-up landing before the lock means taking it
            // again (θ only grows: equal before and after ⇒ unchanged)
            let theta = self.num_sampled();
            let pool = self.pool_at_cap()?;
            let mut st = self.write();
            if st.num_sampled() != theta {
                continue; // releases the guard
            }
            let shard_count = shards.unwrap_or_else(|| st.base.shards_total());
            if st.overlay_is_empty() && shard_count == st.base.shards_total() {
                // nothing journaled and no reshape requested: just make sure
                // no stale journal file lingers
                // lint:allow(no-blocking-under-lock) -- the remove must hold the write lock or it could race a concurrent top-up's append and delete a live record
                journal::remove(&self.dir)?;
                self.journal_records.set(0);
                self.journal_bytes.set(0);
                return Ok(StoreSummary {
                    shards: st.base.shards_total(),
                    total_sets: st.base.num_sets(),
                    bytes_on_disk: st.base.bytes_on_disk(),
                    stale_files_pruned: 0,
                });
            }
            // lint:allow(no-blocking-under-lock) -- compact is stop-the-world by design: fold, write-then-rename, journal delete, and base re-open must be atomic with respect to every reader and top-up, so the write lock spans all of it
            let mut parts = st.base.load_all()?;
            parts.push(Arc::clone(&st.overlay));
            let sets = walk::concat(&parts).validated(self.num_nodes, st.num_sampled())?;
            let contents = StoreContents {
                set_offsets: &sets.set_offsets,
                members: &sets.members,
                weights: &sets.weights,
                num_nodes: self.num_nodes,
                num_sampled: st.num_sampled(),
                meta: self.meta,
                pool,
            };
            // lint:allow(no-blocking-under-lock) -- stop-the-world compact (see above): the new manifest must be renamed in before the journal is deleted, and both before any reader can observe the folded base
            let summary = write_contents(contents, &self.dir, shard_count)?;
            // the new manifest is renamed in — the journal is now redundant
            // (not fsynced: a killed process is covered, a power loss is not)
            // lint:allow(no-blocking-under-lock) -- stop-the-world compact (see above): deleting the journal only after the new manifest is renamed in is what lets an open after a killed compaction skip its stale records
            journal::remove(&self.dir)?;
            // lint:allow(no-blocking-under-lock) -- stop-the-world compact (see above): the re-open must happen before any reader sees the swapped base
            st.base = Arc::new(ShardedIndex::open_with_metrics(
                &self.dir,
                Arc::clone(&self.metrics),
            )?);
            st.overlay = Arc::new(Canonical::new().freeze(
                self.num_nodes,
                st.base.num_sampled(),
                self.meta,
            )?);
            st.pool = None;
            self.journal_records.set(0);
            self.journal_bytes.set(0);
            return Ok(summary);
        }
    }
}

impl IndexBackend for JournaledStore {
    fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_sampled(&self) -> usize {
        self.num_sampled()
    }

    fn ensure_theta(&self, graph: &Graph, target: usize) -> Result<usize, EngineError> {
        self.ensure_theta(graph, target)
    }

    /// The composed budget-cap pool: the manifest's persisted pool
    /// while nothing is journaled (**zero** shard loads — a fresh
    /// campaign against a cold store touches no shard file at all),
    /// else recomputed over base + overlay and cached until the next
    /// top-up.
    fn pool_at_cap(&self) -> Result<Vec<NodeId>, EngineError> {
        let plain_base = {
            let st = self.read();
            if let Some(p) = &st.pool {
                return Ok(p.clone());
            }
            st.overlay_is_empty().then(|| Arc::clone(&st.base))
        };
        if let Some(base) = plain_base {
            // immutable manifest data: read it off the handle, lock released
            return Ok(base.pool().to_vec());
        }
        let (parts, num_sampled) = self.snapshot(None)?;
        let cap = self.meta.budget_cap as usize;
        let (selection, _) = greedy_select_parts(&parts, self.num_nodes, cap, &[]);
        let seeds = selection.seeds;
        // cache it unless a top-up moved θ while we selected: the pool
        // answers the snapshot it was selected over, never a later one
        let mut st = self.write();
        if st.num_sampled() == num_sampled {
            st.pool = Some(seeds.clone());
        }
        Ok(seeds)
    }

    /// Select over base shards in global order, then the overlay, with
    /// the sets SP touches masked — bit-identical to filtering the cold
    /// build's monolithic parts and selecting on the survivors. Hangs
    /// one `store.derive_conditioned` span off the engine's derive span,
    /// with one `store.shard_fault` span per shard this derivation had
    /// to fault in nested underneath — so a follow-up campaign's trace
    /// shows exactly which shards its first SP query paid for. This is
    /// the one follow-up cost a store pays over a monolithic index: the
    /// first SP query faults all shards in (the mask reads only SP's
    /// postings, but a global argmax needs every shard's gains).
    fn derive_conditioned_traced(
        &self,
        sp_nodes: &[NodeId],
        trace: Option<TraceScope<'_>>,
    ) -> Result<ConditionedView, EngineError> {
        let mut span = trace.map(|s| s.span("store.derive_conditioned"));
        let child = span.as_ref().map(|sp| sp.scope());
        let nodes = validated_sp_nodes(self.num_nodes, sp_nodes)?;
        let (parts, _) = self.snapshot(child)?;
        if let Some(sp) = span.as_mut() {
            // every part but the overlay
            sp.attr("shards_total", (parts.len() - 1) as u64);
        }
        let cap = self.meta.budget_cap;
        Ok(ConditionedView::over_parts(
            &parts,
            self.num_nodes,
            cap,
            nodes,
        ))
    }

    fn storage(&self) -> StorageStats {
        let st = self.read();
        StorageStats {
            shards_total: st.base.shards_total() as u64,
            shards_loaded: st.base.shards_loaded() as u64,
            bytes_on_disk: st.base.bytes_on_disk(),
            journal_records: self.journal_records(),
            journal_bytes: self.journal_bytes(),
            topups_total: self.topups_total(),
        }
    }
}
