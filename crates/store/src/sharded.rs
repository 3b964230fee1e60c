//! [`ShardedIndex`] — the lazy, shard-parallel runtime view of a store
//! directory, plus [`write_store`], the build-side partitioner.
//!
//! Opening a store reads **only** the manifest: cold-open cost is
//! `O(manifest)`, not `O(index)`, which is what makes server restarts on
//! huge graphs near-instant. Shard files are faulted in on first touch
//! through per-shard `OnceLock` slots (success *and* failure are cached —
//! a corrupt shard fails the same way every time instead of re-reading
//! the broken file), and whole-index operations fault the missing shards
//! in **in parallel**.
//!
//! This type is the store's resident skeleton — manifest, lazy slots,
//! CRC-checked faults — not a serving backend: engines serve through
//! [`crate::JournaledStore`], which walks these shards (plus its journal
//! overlay) with the one composed walk in `crate::walk`. Shards hold
//! *contiguous* global set ranges, which is what lets that walk stay
//! byte-identical to the monolithic [`RrIndex`] the store was written
//! from.

use crate::format::{
    shard_from_bytes, shard_path, shard_to_bytes, Manifest, ShardInfo, ShardParts, MANIFEST_FILE,
};
use cwelmax_engine::codec::crc32;
use cwelmax_engine::{EngineError, IndexMeta, RrIndex};
use cwelmax_graph::NodeId;
use cwelmax_obs::{Counter, Gauge, Histogram, MetricsRegistry, TraceScope};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What [`write_store`] produced, for logs and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Shard files written.
    pub shards: usize,
    /// Retained sets distributed across them.
    pub total_sets: usize,
    /// Total bytes on disk (manifest + shards).
    pub bytes_on_disk: u64,
    /// Leftover shard files (from a crashed or larger previous write)
    /// that were pruned because the new manifest does not name them.
    pub stale_files_pruned: usize,
}

/// Partition a frozen index into a store directory: N shard files
/// holding contiguous set ranges (written in parallel across a bounded
/// worker pool), then the manifest — last, and by rename. The
/// budget-cap greedy pool is computed once here and persisted in the
/// manifest; serving never recomputes it.
///
/// Overwriting an existing store never leaves a manifest that disagrees
/// with its shards: all new files are staged as `.tmp` first, then the
/// **old manifest is deleted** before any shard is swapped in, so a
/// process killed at any instant leaves a directory that either parses
/// as the complete old store, fails to open with a "no manifest" error
/// (killed mid-swap — the store must be rebuilt or re-compacted), or
/// parses as the complete new store. Nothing here is fsynced, so this
/// holds against a killed process, not against power loss. Any leftover
/// shard files the new manifest does not name — a previous larger shard
/// count, a crashed half-written store, stranded `.tmp` stages — are
/// swept away ([`StoreSummary::stale_files_pruned`]).
///
/// Output bytes are a pure function of `(index, shards)`: no timestamps,
/// no iteration-order dependence — writing twice is byte-identical,
/// which makes stores diffable and content-addressable.
pub fn write_store(
    index: &RrIndex,
    dir: impl AsRef<Path>,
    shards: usize,
) -> Result<StoreSummary, EngineError> {
    let (set_offsets, members, weights) = index.canonical_parts();
    let contents = StoreContents {
        set_offsets,
        members,
        weights,
        num_nodes: index.num_nodes(),
        num_sampled: index.num_sampled(),
        meta: *index.meta(),
        pool: index.greedy_select(index.meta().budget_cap as usize).seeds,
    };
    write_contents(contents, dir.as_ref(), shards)
}

/// Everything a store directory holds: the retained sets as canonical
/// slices in global order, and what the manifest declares beside them.
/// `pool` must be the ordered greedy pool at `meta.budget_cap` over
/// exactly these sets.
pub(crate) struct StoreContents<'a> {
    pub(crate) set_offsets: &'a [usize],
    pub(crate) members: &'a [NodeId],
    pub(crate) weights: &'a [f64],
    pub(crate) num_nodes: usize,
    pub(crate) num_sampled: usize,
    pub(crate) meta: IndexMeta,
    pub(crate) pool: Vec<NodeId>,
}

/// The one store writer behind [`write_store`] and compaction: stages
/// every shard, swaps them in, then renames the manifest in (see
/// [`write_store`] for the staging order and what a kill leaves).
pub(crate) fn write_contents(
    contents: StoreContents<'_>,
    dir: &Path,
    shards: usize,
) -> Result<StoreSummary, EngineError> {
    if shards == 0 {
        return Err(EngineError::BadQuery("shard count must be positive".into()));
    }
    std::fs::create_dir_all(dir)?;
    let StoreContents {
        set_offsets,
        members,
        weights,
        num_nodes,
        num_sampled,
        meta,
        pool,
    } = contents;
    let total = weights.len();
    let chunk = total.div_ceil(shards).max(1);
    let fingerprint = meta.graph_fingerprint;
    // stage 1: serialize + write every shard as `.tmp`, in parallel over
    // a bounded pool (shard counts are user-controlled — don't spawn one
    // thread per shard). Each job is a pure function of its contiguous
    // set range; per-worker results are concatenated in shard order.
    let workers = worker_count(shards);
    let per_worker = shards.div_ceil(workers);
    let write_range = |w: usize| -> Result<Vec<ShardInfo>, EngineError> {
        let mut infos = Vec::new();
        for k in (w * per_worker)..((w + 1) * per_worker).min(shards) {
            let lo = (k * chunk).min(total);
            let hi = ((k + 1) * chunk).min(total);
            let base = set_offsets[lo];
            let local_offsets: Vec<u64> = set_offsets[lo..=hi]
                .iter()
                .map(|&x| (x - base) as u64)
                .collect();
            let bytes = shard_to_bytes(&ShardParts {
                shard_id: k,
                graph_fingerprint: fingerprint,
                set_start: lo,
                set_offsets: local_offsets,
                members: &members[base..set_offsets[hi]],
                weights: &weights[lo..hi],
            });
            std::fs::write(shard_path(dir, k).with_extension("tmp"), &bytes)?;
            infos.push(ShardInfo {
                set_start: lo,
                set_count: hi - lo,
                file_bytes: bytes.len() as u64,
                file_crc: crc32(&bytes),
            });
        }
        Ok(infos)
    };
    // the caller writes the first range itself: `workers − 1` spawns,
    // and a single-shard store spawns nothing
    let worker_results: Vec<Result<Vec<ShardInfo>, EngineError>> = std::thread::scope(|scope| {
        let write_range = &write_range;
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || write_range(w)))
            .collect();
        let first = write_range(0);
        std::iter::once(first)
            .chain(
                handles
                    .into_iter()
                    // lint:allow(no-panic-in-serving) -- build-time path, not serving; a panicked writer thread means a torn store and must propagate
                    .map(|h| h.join().expect("shard writer panicked")),
            )
            .collect()
    });
    let mut infos = Vec::with_capacity(shards);
    for r in worker_results {
        infos.extend(r?);
    }
    // stage 2: point of no return — delete the old manifest (if any), so
    // a crash while shards are being swapped leaves a directory that
    // cleanly fails to open instead of an old manifest over new shards
    match std::fs::remove_file(dir.join(MANIFEST_FILE)) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }
    // stage 3: swap the staged shards in, then sweep the whole directory
    // for shard files the new manifest will not name — not just a
    // contiguous run above `shards`, but *any* leftover from a crashed,
    // larger, or interrupted previous write (`shard-0007.cwsx` behind a
    // gap, stranded `.tmp` stages). Anything matching the shard naming
    // scheme that isn't one of the files just written is stale: serving
    // never reads it, but it silently inflates the directory and a
    // future manual copy could resurrect it.
    for k in 0..shards {
        let path = shard_path(dir, k);
        std::fs::rename(path.with_extension("tmp"), &path)?;
    }
    let stale_files_pruned = prune_stale_shards(dir, shards);
    // stage 4: the new manifest, by rename — its appearance is what
    // makes the directory a store again
    let shard_bytes: u64 = infos.iter().map(|s| s.file_bytes).sum();
    let manifest = Manifest {
        meta,
        num_nodes,
        num_sampled,
        total_sets: total,
        pool,
        shards: infos,
    };
    let bytes = manifest.to_bytes();
    let path = dir.join(MANIFEST_FILE);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, &path)?;
    Ok(StoreSummary {
        shards,
        total_sets: total,
        bytes_on_disk: shard_bytes + bytes.len() as u64,
        stale_files_pruned,
    })
}

/// Delete every file in `dir` that matches the shard naming scheme but
/// is not one of the `shards` files the new manifest names: shard files
/// with an index at or above the new count (including ones stranded
/// behind gaps), non-canonical spellings of in-range indices, and
/// `.tmp` staging leftovers from a crashed writer. Returns how many
/// were removed.
///
/// Strictly best-effort: by the time this runs the new store is fully
/// on disk except for its manifest, and serving never reads stale
/// files — an un-removable leftover (held open elsewhere, or a
/// directory wearing a shard name) must not abort the write and strand
/// a manifest-less directory.
fn prune_stale_shards(dir: &Path, shards: usize) -> usize {
    // the exact file names the manifest names — membership is by full
    // name, not parsed index, so a non-canonical spelling of a valid
    // index ("shard-1.cwsx", "shard-+0001.cwsx") is still stale
    let named: std::collections::HashSet<std::ffi::OsString> = (0..shards)
        .filter_map(|k| shard_path(dir, k).file_name().map(|n| n.to_os_string()))
        .collect();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut pruned = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        if named.contains(&name) {
            continue;
        }
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("shard-") else {
            continue;
        };
        // sweep only shapes a shard writer ever creates: shard files and
        // `.tmp` stages (ours are all renamed away by now). Anything
        // else under the prefix is not ours to delete.
        if (rest.ends_with(".cwsx") || rest.ends_with(".tmp"))
            && std::fs::remove_file(entry.path()).is_ok()
        {
            pruned += 1;
        }
    }
    pruned
}

/// Bounded parallelism for shard I/O (and top-up sampling): one worker
/// per core, never more than there are jobs, at least one — and one
/// when the core count is unknown, like every other pool.
pub(crate) fn worker_count(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .clamp(1, jobs.max(1))
}

/// A store directory opened for serving: eager manifest, lazy shards.
/// Immutable and `&self`-queryable — share it behind an `Arc` exactly
/// like an [`RrIndex`].
pub struct ShardedIndex {
    dir: PathBuf,
    manifest: Manifest,
    /// One lazy slot per shard; a slot holds the loaded per-shard index
    /// or the (cached) load error.
    slots: Vec<OnceLock<Result<Arc<RrIndex>, EngineError>>>,
    /// Shards successfully resident (monotone; drives `shards_loaded`).
    loaded: AtomicU64,
    /// Manifest + declared shard file bytes.
    bytes_on_disk: u64,
    /// The registry the fault metrics below live in (shared with the
    /// engine when opened through `EngineBuilder::from_journaled_store`).
    metrics: Arc<MetricsRegistry>,
    /// Shard-file fault attempts (each shard faults at most once —
    /// success and failure are both cached).
    shard_faults: Arc<Counter>,
    /// Fault attempts that failed (missing file, CRC mismatch, identity
    /// mismatch) — a flaky disk shows up here, not just as slow queries.
    shard_fault_errors: Arc<Counter>,
    /// Bytes read from shard files (counted even when validation then
    /// rejects them).
    shard_fault_bytes: Arc<Counter>,
    /// Wall-clock fault duration (read + validate + freeze), per attempt.
    shard_fault_ns: Arc<Histogram>,
    /// Bytes of shard files currently resident in memory (grows from 0
    /// as shards fault in; compare against `bytes_on_disk` for a live
    /// residency ratio — the bigger-than-RAM observability hook).
    resident_bytes: Arc<Gauge>,
}

impl ShardedIndex {
    /// Open a store by reading and validating **only** its manifest —
    /// `O(manifest)` work no matter how large the index is. Shard files
    /// are not read, not even `stat`ed, until a query touches them.
    /// Records into a private registry; serving paths use
    /// [`ShardedIndex::open_with_metrics`] to share the stack's.
    pub fn open(dir: impl AsRef<Path>) -> Result<ShardedIndex, EngineError> {
        ShardedIndex::open_with_metrics(dir, MetricsRegistry::new())
    }

    /// [`ShardedIndex::open`], recording fault metrics (and the manifest
    /// open time, `store.manifest_open_ns`) into the given registry.
    pub fn open_with_metrics(
        dir: impl AsRef<Path>,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<ShardedIndex, EngineError> {
        let start = std::time::Instant::now();
        let dir = dir.as_ref().to_path_buf();
        let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
        let manifest = Manifest::from_bytes(&bytes)?;
        metrics
            .histogram("store.manifest_open_ns")
            .record_since(start);
        let shard_bytes: u64 = manifest.shards.iter().map(|s| s.file_bytes).sum();
        let slots = (0..manifest.shards.len())
            .map(|_| OnceLock::new())
            .collect();
        // a freshly opened store has zero shards resident; reset rather
        // than add so a reopen (compaction swaps the base in-place over
        // the same registry) doesn't inherit the old instance's residency
        let resident_bytes = metrics.gauge("store.resident_bytes");
        resident_bytes.set(0);
        Ok(ShardedIndex {
            dir,
            manifest,
            slots,
            loaded: AtomicU64::new(0),
            bytes_on_disk: shard_bytes + bytes.len() as u64,
            shard_faults: metrics.counter("store.shard_faults"),
            shard_fault_errors: metrics.counter("store.shard_fault_errors"),
            shard_fault_bytes: metrics.counter("store.shard_fault_bytes"),
            shard_fault_ns: metrics.histogram("store.shard_fault_ns"),
            resident_bytes,
            metrics,
        })
    }

    /// The registry this store records into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Fault attempts that failed so far (tests and health checks).
    pub fn shard_fault_errors(&self) -> u64 {
        self.shard_fault_errors.get()
    }

    /// Build metadata, as the index was built with it.
    pub fn meta(&self) -> &IndexMeta {
        &self.manifest.meta
    }

    /// Node-universe size.
    pub fn num_nodes(&self) -> usize {
        self.manifest.num_nodes
    }

    /// θ — total sets sampled (estimator denominator).
    pub fn num_sampled(&self) -> usize {
        self.manifest.num_sampled
    }

    /// Total retained sets across all shards.
    pub fn num_sets(&self) -> usize {
        self.manifest.total_sets
    }

    /// Number of shards the store is partitioned into.
    pub fn shards_total(&self) -> usize {
        self.slots.len()
    }

    /// Shards currently resident in memory.
    pub fn shards_loaded(&self) -> usize {
        self.loaded.load(Ordering::Relaxed) as usize
    }

    /// Manifest + shard bytes on disk (from the manifest's declarations).
    pub fn bytes_on_disk(&self) -> u64 {
        self.bytes_on_disk
    }

    /// Shard-file bytes currently resident in memory (the
    /// `store.resident_bytes` gauge; ≤ [`ShardedIndex::bytes_on_disk`]).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.get().max(0) as u64
    }

    /// The persisted ordered greedy pool at the budget cap. Serving fresh
    /// campaigns from here is what lets a store answer queries with
    /// **zero** shards resident.
    pub fn pool(&self) -> &[NodeId] {
        &self.manifest.pool
    }

    /// The estimator scale `n · M / θ` (same contract as
    /// [`RrIndex::estimate`]; needs no shard).
    pub fn estimate(&self, covered_weight: f64) -> f64 {
        if self.manifest.num_sampled == 0 {
            0.0
        } else {
            self.manifest.num_nodes as f64 * covered_weight / self.manifest.num_sampled as f64
        }
    }

    /// Shard `k`, faulting it in on first touch. The load verifies the
    /// manifest's whole-file CRC and byte length, the shard frame's own
    /// CRC, and the shard/manifest cross-identity (id, graph fingerprint,
    /// set range) before freezing the parts through the validating
    /// [`RrIndex::from_canonical`]. A failure is cached: a corrupt shard
    /// keeps failing without re-reading the file, and — crucially — it
    /// never poisons its siblings, which proptests assert still serve.
    pub fn shard(&self, k: usize) -> Result<Arc<RrIndex>, EngineError> {
        let slot = self.slots.get(k).ok_or_else(|| {
            EngineError::BadQuery(format!(
                "shard {k} out of range: store has {} shards",
                self.slots.len()
            ))
        })?;
        let result = slot.get_or_init(|| {
            self.shard_faults.incr();
            let start = std::time::Instant::now();
            let loaded = self.load_shard(k);
            self.shard_fault_ns.record_since(start);
            match loaded {
                Ok(idx) => {
                    self.loaded.fetch_add(1, Ordering::Relaxed);
                    self.resident_bytes
                        .add(self.manifest.shards[k].file_bytes as i64);
                    Ok(Arc::new(idx))
                }
                Err(e) => {
                    self.shard_fault_errors.incr();
                    Err(e)
                }
            }
        });
        match result {
            Ok(idx) => Ok(idx.clone()),
            Err(e) => Err(e.duplicate()),
        }
    }

    /// True when shard `k` is resident (tests observe laziness with this).
    pub fn shard_is_loaded(&self, k: usize) -> bool {
        matches!(self.slots.get(k).and_then(OnceLock::get), Some(Ok(_)))
    }

    /// The uncached load path for shard `k`.
    fn load_shard(&self, k: usize) -> Result<RrIndex, EngineError> {
        let info = &self.manifest.shards[k];
        let bytes = std::fs::read(shard_path(&self.dir, k))?;
        self.shard_fault_bytes.add(bytes.len() as u64);
        if bytes.len() as u64 != info.file_bytes {
            return Err(EngineError::Corrupt(format!(
                "shard {k}: file is {} bytes, manifest declares {}",
                bytes.len(),
                info.file_bytes
            )));
        }
        let crc = crc32(&bytes);
        if crc != info.file_crc {
            return Err(EngineError::Corrupt(format!(
                "shard {k}: file checksum {crc:#010x} does not match manifest {:#010x}",
                info.file_crc
            )));
        }
        let payload = shard_from_bytes(&bytes)?;
        if payload.shard_id != k {
            return Err(EngineError::Corrupt(format!(
                "shard {k}: file claims to be shard {}",
                payload.shard_id
            )));
        }
        if payload.graph_fingerprint != self.manifest.meta.graph_fingerprint {
            return Err(EngineError::Corrupt(format!(
                "shard {k}: graph fingerprint {:#018x} does not match the store's {:#018x}",
                payload.graph_fingerprint, self.manifest.meta.graph_fingerprint
            )));
        }
        if payload.set_start != info.set_start || payload.weights.len() != info.set_count {
            return Err(EngineError::Corrupt(format!(
                "shard {k}: holds sets {}..{} but the manifest assigns {}..{}",
                payload.set_start,
                payload.set_start + payload.weights.len(),
                info.set_start,
                info.set_start + info.set_count
            )));
        }
        // θ is global: each shard's estimator is the *marginal* share of
        // the one sampling effort, and the structural check "retained ≤ θ"
        // holds a fortiori for a subset
        RrIndex::from_canonical(
            self.manifest.num_nodes,
            self.manifest.num_sampled,
            payload.set_offsets,
            payload.members,
            payload.weights,
            self.manifest.meta,
        )
    }

    /// All shards, faulting the missing ones in **in parallel** across a
    /// bounded worker pool (at most one worker per core — shard counts
    /// are user-controlled, so a 1000-shard store must not stampede 1000
    /// threads of file I/O on its first whole-index query; resident
    /// shards cost an `Arc` clone). The first failing shard's error
    /// (lowest id, deterministically) is returned; siblings that loaded
    /// stay resident.
    pub fn load_all(&self) -> Result<Vec<Arc<RrIndex>>, EngineError> {
        self.load_all_traced(None)
    }

    /// [`ShardedIndex::load_all`] recording one `store.shard_fault` span
    /// per *missing* shard under `trace` (resident shards cost an `Arc`
    /// clone and earn no span). Spans are recorded from the fault worker
    /// threads — [`TraceScope`] is `Copy + Sync`, so each scoped thread
    /// carries its own copy and pushes into the shared trace.
    pub(crate) fn load_all_traced(
        &self,
        trace: Option<TraceScope<'_>>,
    ) -> Result<Vec<Arc<RrIndex>>, EngineError> {
        let missing: Vec<usize> = (0..self.slots.len())
            .filter(|&k| self.slots[k].get().is_none())
            .collect();
        let fault = |k: usize| {
            let mut span = trace.map(|s| s.span("store.shard_fault"));
            if let Some(sp) = span.as_mut() {
                sp.attr("shard", k as u64);
            }
            let faulted = self.shard(k);
            if faulted.is_err() {
                if let Some(sp) = span.as_mut() {
                    sp.attr("error", true);
                }
            }
        };
        if missing.len() > 1 {
            let workers = worker_count(missing.len());
            let chunk = missing.len().div_ceil(workers);
            std::thread::scope(|scope| {
                // the caller faults the first chunk itself: at most
                // `workers − 1` spawns
                let mut chunks = missing.chunks(chunk);
                let first = chunks.next().unwrap_or_default();
                for ids in chunks {
                    let fault = &fault;
                    scope.spawn(move || {
                        for &k in ids {
                            fault(k);
                        }
                    });
                }
                for &k in first {
                    fault(k);
                }
            });
        } else if let Some(&k) = missing.first() {
            fault(k);
        }
        (0..self.slots.len()).map(|k| self.shard(k)).collect()
    }

    /// Global ids of the sets containing node `v` (each shard's postings
    /// shifted by its `set_start`; increasing, like the monolithic
    /// index's).
    pub fn postings(&self, v: NodeId) -> Result<Vec<u32>, EngineError> {
        let shards = self.load_all()?;
        let mut out = Vec::new();
        for (sh, info) in shards.iter().zip(&self.manifest.shards) {
            out.extend(sh.postings(v).iter().map(|&j| j + info.set_start as u32));
        }
        Ok(out)
    }
}
