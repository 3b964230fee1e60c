//! Property and adversarial tests for the sharded store: equivalence
//! with the monolithic index (bit-identical, across shard counts, with
//! and without a journaled top-up), corruption robustness, lazy-load
//! observability, and engine integration.

use cwelmax_engine::{
    graph_fingerprint, ConditionedView, EngineBuilder, EngineError, IndexBackend, IndexMeta,
    RrIndex,
};
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_rrset::{conditioned_collection, RrCollection, StandardRr, REGEN_SEED_XOR};
use cwelmax_store::{write_store, FromStore, JournaledStore, ShardedIndex};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh per-call scratch directory (unique across tests and proptest
/// cases in this process; stale runs are overwritten, not appended to).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cwelmax-store-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    dir
}

/// A graph and the cold index over it at θ = `sets`, on the sampling
/// stream a top-up continues (`seed ^ REGEN_SEED_XOR`): a build at θ₂ is
/// the prefix-extension of a build at θ₁ < θ₂, so it is the oracle for a
/// store written at θ₁ and topped up to θ₂.
fn cold_build(seed: u64, n: usize, sets: usize, cap: u32) -> (Graph, RrIndex) {
    let g = generators::erdos_renyi(n, n * 4, seed, PM::WeightedCascade);
    let mut c = RrCollection::new(n);
    c.extend_parallel(&g, &StandardRr, sets, seed ^ REGEN_SEED_XOR, 2);
    let index = RrIndex::freeze(
        &c,
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed,
            budget_cap: cap,
            graph_fingerprint: graph_fingerprint(&g),
        },
    );
    (g, index)
}

fn index_from(seed: u64, n: usize, sets: usize, cap: u32) -> RrIndex {
    cold_build(seed, n, sets, cap).1
}

/// `idx` with the weights of its first `upto` sets replaced by per-set
/// fractions, whose sums depend on the order they are added in.
fn fractional(idx: &RrIndex, upto: usize) -> RrIndex {
    let (o, m, w) = idx.canonical_parts();
    let w = (0..w.len())
        .map(|j| {
            if j < upto {
                0.1 + (j % 7) as f64 * 0.37
            } else {
                w[j]
            }
        })
        .collect();
    let (n, theta) = (idx.num_nodes(), idx.num_sampled());
    RrIndex::from_canonical(n, theta, o.to_vec(), m.to_vec(), w, *idx.meta()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The tentpole equivalence bar: for arbitrary build inputs, any
    /// shard count 1..8 — including counts exceeding the set count — and
    /// an optional journaled top-up (`topup = 0` is the plain store; a
    /// positive one is left in the overlay, not compacted), the served
    /// store's `coverage_of`, `greedy_select` and budget-cap pool are
    /// **byte-identical** to the monolithic index cold-built at the
    /// composed θ; the manifest's persisted pool and the shards' global
    /// posting ids are those of the index the store was written from.
    #[test]
    fn sharded_queries_equal_monolithic_bit_for_bit(
        seed in 0u64..5_000,
        n in 5usize..60,
        sets in 0usize..400,
        shards in 1usize..8,
        topup in 0usize..200,
    ) {
        let (g, written) = cold_build(seed, n, sets, 6);
        let dir = scratch("equiv");
        write_store(&written, &dir, shards).unwrap();
        let sharded = ShardedIndex::open(&dir).unwrap();
        // the persisted pool is the monolithic budget-cap selection
        prop_assert_eq!(sharded.pool(), &written.greedy_select(6).seeds[..]);
        prop_assert_eq!(sharded.estimate(2.5), written.estimate(2.5));
        // postings: global ids in the monolithic order
        for v in 0..(n as u32) {
            prop_assert_eq!(&sharded.postings(v).unwrap()[..], written.postings(v), "node {}", v);
        }

        let store = JournaledStore::open(&dir).unwrap();
        prop_assert_eq!(store.ensure_theta(&g, sets + topup).unwrap(), sets + topup);
        let idx = index_from(seed, n, sets + topup, 6);
        prop_assert_eq!(store.num_nodes(), idx.num_nodes());
        prop_assert_eq!(store.num_sampled(), idx.num_sampled());
        prop_assert_eq!(store.num_sets(), idx.num_sets());
        prop_assert_eq!(store.meta(), idx.meta());
        prop_assert_eq!(store.pool_at_cap().unwrap(), idx.greedy_select(6).seeds);

        // coverage: identical bits (same f64 accumulation order)
        let probes: [&[u32]; 4] = [&[], &[0], &[1, 3, 2], &[(n as u32) - 1, 0, 2]];
        for seeds in probes {
            prop_assert_eq!(
                store.coverage_of(seeds).unwrap().to_bits(),
                idx.coverage_of(seeds).to_bits(),
                "coverage diverged for {:?}", seeds
            );
        }

        // greedy selection: same seeds, same coverage prefix, same bits
        for b in [1usize, 3, 6] {
            let a = store.greedy_select(b).unwrap();
            let e = idx.greedy_select(b);
            prop_assert_eq!(&a.seeds, &e.seeds, "budget {}", b);
            let a_bits: Vec<u64> = a.coverage.iter().map(|x| x.to_bits()).collect();
            let e_bits: Vec<u64> = e.coverage.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(a_bits, e_bits, "budget {}", b);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// SP-conditioned derivation through every backend — N shards with
    /// and without a journaled top-up left in the overlay, and the
    /// monolithic index — equals an oracle that shares no code with it:
    /// `condition_parts` filters a copy of the cold build's sets at the
    /// composed θ and `RrCollection::greedy_select` selects on the copy.
    /// Weights are integral (the cached-totals initialiser) or fractional
    /// (the ordered walk); SP is empty, a few nodes, unsorted with
    /// duplicates, or every node (which covers every set).
    #[test]
    fn sharded_conditioning_equals_monolithic(
        seed in 0u64..3_000,
        shards in 1usize..8,
        sp_seed in 0u64..500,
        sp_kind in 0usize..4,
        topup in 0usize..200,
        integral in any::<bool>(),
    ) {
        let n = 40usize;
        let (g, mut written) = cold_build(seed, n, 300, 5);
        let mut idx = index_from(seed, n, 300 + topup, 5);
        if !integral {
            // the top-up's own sets keep weight 1.0, in store and oracle
            let base_sets = written.num_sets();
            written = fractional(&written, base_sets);
            idx = fractional(&idx, base_sets);
        }
        let dir = scratch("cond");
        write_store(&written, &dir, shards).unwrap();
        let store = JournaledStore::open(&dir).unwrap();
        store.ensure_theta(&g, 300 + topup).unwrap();
        let few: Vec<u32> = (0..4).map(|j| ((sp_seed + 11 * j) % n as u64) as u32).collect();
        let sp: Vec<u32> = match sp_kind {
            0 => vec![],
            1 => few,
            2 => few.iter().rev().chain(&few[..2]).copied().collect(),
            _ => (0..n as u32).rev().collect(),
        };
        let kept = conditioned_collection(&idx.to_collection(), &sp);
        let want = kept.greedy_select(5);
        let mut canonical = sp.clone();
        canonical.sort_unstable();
        canonical.dedup();
        for got in [
            store.derive_conditioned(&sp).unwrap(),
            ConditionedView::derive(&idx, &sp).unwrap(),
        ] {
            prop_assert_eq!(got.sp_nodes(), &canonical[..]);
            prop_assert_eq!(got.pool(), &want.seeds[..]);
            prop_assert_eq!(got.removed_sets(), idx.num_sets() - kept.num_sets());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption robustness: flip one bit anywhere in one shard file —
    /// the store still opens (manifest intact), the persisted pool still
    /// serves, the damaged shard fails with `EngineError` (never a
    /// panic), and **every other shard keeps serving**.
    #[test]
    fn bit_flipped_shard_fails_alone(
        seed in 0u64..2_000,
        victim_frac in 0.0f64..1.0,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let shards = 4usize;
        let idx = index_from(seed, 30, 200, 4);
        let dir = scratch("flip");
        write_store(&idx, &dir, shards).unwrap();
        let victim = ((shards - 1) as f64 * victim_frac) as usize;
        let path = dir.join(format!("shard-{victim:04}.cwsx"));
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let store = ShardedIndex::open(&dir).unwrap();
        prop_assert_eq!(store.pool(), &idx.greedy_select(4).seeds[..]);
        prop_assert_eq!(store.shard_fault_errors(), 0, "no faults attempted yet");
        match store.shard(victim) {
            Err(EngineError::Corrupt(_)) | Err(EngineError::UnsupportedVersion(_)) => {}
            Ok(_) => prop_assert!(false, "flipped shard {} accepted", victim),
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
        // the failed fault is counted — a flaky disk is visible in
        // metrics, not only in per-query errors
        prop_assert_eq!(store.shard_fault_errors(), 1);
        // the error is cached, not flapping — and not double-counted
        prop_assert!(store.shard(victim).is_err());
        prop_assert_eq!(store.shard_fault_errors(), 1);
        // every sibling still loads and serves its share of the data
        for k in (0..shards).filter(|&k| k != victim) {
            let sh = store.shard(k).unwrap_or_else(|e| {
                panic!("sibling shard {k} must keep serving, got {e}")
            });
            // spot-check the shard against the monolithic range it holds
            let probe = sh.coverage_of(&[0, 1, 2]);
            prop_assert!(probe.is_finite());
        }
        prop_assert_eq!(store.shards_loaded(), shards - 1);
        // the registry view agrees with the accessors: every shard was
        // faulted exactly once, one fault failed, duration was measured
        let snap = store.metrics().snapshot();
        prop_assert_eq!(snap.counters["store.shard_faults"], shards as u64);
        prop_assert_eq!(snap.counters["store.shard_fault_errors"], 1);
        prop_assert!(snap.counters["store.shard_fault_bytes"] > 0);
        prop_assert_eq!(snap.histograms["store.shard_fault_ns"].count, shards as u64);
        // whole-index operations over a damaged store are errors, not UB
        let served = JournaledStore::open(&dir).unwrap();
        prop_assert!(served.coverage_of(&[0]).is_err());
        prop_assert!(served.greedy_select(2).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A truncated manifest is rejected with `EngineError` at open time.
    #[test]
    fn truncated_manifest_is_rejected(seed in 0u64..1_000, frac in 0.0f64..1.0) {
        let idx = index_from(seed, 20, 100, 3);
        let dir = scratch("trunc");
        write_store(&idx, &dir, 3).unwrap();
        let path = dir.join("manifest.bin");
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match ShardedIndex::open(&dir) {
            Err(EngineError::Corrupt(_)) | Err(EngineError::UnsupportedVersion(_)) => {}
            Ok(_) => prop_assert!(false, "truncation to {} accepted", cut),
            Err(e) => prop_assert!(false, "unexpected error kind: {}", e),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// More shards than retained sets: trailing shards are empty but valid,
/// and every query surface still matches the monolithic index.
#[test]
fn shard_count_exceeding_set_count_is_valid() {
    let g = generators::erdos_renyi(20, 80, 3, PM::WeightedCascade);
    let mut c = RrCollection::new(20);
    // push exactly 3 tiny sets by sampling very few
    c.extend_parallel(&g, &StandardRr, 3, 9, 1);
    let idx = RrIndex::freeze(
        &c,
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed: 3,
            budget_cap: 2,
            graph_fingerprint: graph_fingerprint(&g),
        },
    );
    assert!(idx.num_sets() <= 3);
    let dir = scratch("excess");
    let summary = write_store(&idx, &dir, 8).unwrap();
    assert_eq!(summary.shards, 8);
    let store = JournaledStore::open(&dir).unwrap();
    assert_eq!(store.storage().shards_total, 8);
    let a = store.greedy_select(2).unwrap();
    let e = idx.greedy_select(2);
    assert_eq!(a.seeds, e.seeds);
    assert_eq!(a.coverage, e.coverage);
    assert_eq!(
        store.storage().shards_loaded,
        8,
        "all shards (even empty) load"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Zero shards is an explicit error, not a panic or an empty store.
#[test]
fn zero_shard_count_is_rejected() {
    let idx = index_from(1, 15, 50, 2);
    let dir = scratch("zero");
    match write_store(&idx, &dir, 0) {
        Err(EngineError::BadQuery(msg)) => assert!(msg.contains("positive")),
        other => panic!("expected BadQuery, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Writing the same index at the same shard count twice is byte-identical
/// file by file — stores are diffable and content-addressable like
/// snapshots.
#[test]
fn store_writes_are_deterministic() {
    let idx = index_from(11, 40, 300, 5);
    let (a, b) = (scratch("det-a"), scratch("det-b"));
    write_store(&idx, &a, 4).unwrap();
    write_store(&idx, &b, 4).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 5, "manifest + 4 shards, no leftovers");
    for name in &names {
        assert_eq!(
            std::fs::read(a.join(name)).unwrap(),
            std::fs::read(b.join(name)).unwrap(),
            "{name} diverged between identical writes"
        );
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

/// Rewriting a store in place is safe: a smaller shard count prunes the
/// stale trailing shard files, no `.tmp` staging files are left behind,
/// and the rewritten store opens and serves identically.
#[test]
fn rewriting_a_store_prunes_stale_shards() {
    let idx = index_from(17, 40, 300, 5);
    let dir = scratch("rewrite");
    write_store(&idx, &dir, 8).unwrap();
    let summary = write_store(&idx, &dir, 3).unwrap();
    assert_eq!(summary.shards, 3);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec![
            "manifest.bin",
            "shard-0000.cwsx",
            "shard-0001.cwsx",
            "shard-0002.cwsx"
        ],
        "stale shards from the 8-shard write must be pruned, no .tmp left"
    );
    let store = JournaledStore::open(&dir).unwrap();
    assert_eq!(store.storage().shards_total, 3);
    let a = store.greedy_select(5).unwrap();
    let e = idx.greedy_select(5);
    assert_eq!(a.seeds, e.seeds);
    assert_eq!(a.coverage, e.coverage);
    std::fs::remove_dir_all(&dir).ok();
}

/// The lazy-load lifecycle, observed through the counters the server
/// exposes: open loads nothing, the persisted pool loads nothing,
/// touching one shard loads one, whole-index ops load all.
#[test]
fn shards_load_lazily_and_exactly_once() {
    let idx = index_from(21, 50, 400, 6);
    let dir = scratch("lazy");
    let summary = write_store(&idx, &dir, 5).unwrap();
    let store = ShardedIndex::open(&dir).unwrap();
    assert_eq!(store.shards_total(), 5);
    assert_eq!(store.shards_loaded(), 0, "open reads only the manifest");
    assert_eq!(store.bytes_on_disk(), summary.bytes_on_disk);

    let _ = store.pool();
    let _ = store.estimate(1.0);
    assert_eq!(store.shards_loaded(), 0, "the persisted pool is shard-free");

    let sh0 = store.shard(0).unwrap();
    assert_eq!(store.shards_loaded(), 1);
    assert!(store.shard_is_loaded(0) && !store.shard_is_loaded(1));
    // a second touch is the cached Arc, not a re-read
    assert!(Arc::ptr_eq(&sh0, &store.shard(0).unwrap()));

    let served = JournaledStore::open(&dir).unwrap();
    served.coverage_of(&[0, 3]).unwrap();
    assert_eq!(
        served.storage().shards_loaded,
        5,
        "coverage needs every shard"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A store-backed engine answers byte-identically to a monolithic-index
/// engine, and its stats expose the lazy behavior: a fresh campaign
/// touches zero shards, the first follow-up faults all of them in.
#[test]
fn engine_over_store_matches_monolithic_and_stays_lazy() {
    use cwelmax_diffusion::Allocation;
    use cwelmax_engine::{CampaignQuery, QueryAlgorithm};
    use cwelmax_utility::configs::{self, TwoItemConfig};

    let graph = Arc::new(generators::erdos_renyi(80, 320, 7, PM::WeightedCascade));
    let mut c = RrCollection::new(80);
    c.extend_parallel(&graph, &StandardRr, 2000, 7 ^ 0x51AB, 2);
    let idx = RrIndex::freeze(
        &c,
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed: 7,
            budget_cap: 6,
            graph_fingerprint: graph_fingerprint(&graph),
        },
    );
    let dir = scratch("engine");
    write_store(&idx, &dir, 4).unwrap();
    // the builder's store source: manifest read at build(), shards lazy
    let lazy = EngineBuilder::from_journaled_store(&dir)
        .graph(graph.clone())
        .build()
        .unwrap();
    let mono = EngineBuilder::from_index(Arc::new(idx))
        .graph(graph)
        .build()
        .unwrap();

    let fresh = CampaignQuery::new(
        configs::two_item_config(TwoItemConfig::C1),
        vec![2, 2],
        QueryAlgorithm::SeqGrdNm,
    )
    .with_samples(200);
    let a = lazy.query(&fresh).unwrap();
    let b = mono.query(&fresh).unwrap();
    assert_eq!(a.allocation, b.allocation);
    assert_eq!(a.welfare, b.welfare);
    let s = lazy.stats();
    assert_eq!(s.shards_total, 4);
    assert_eq!(s.shards_loaded, 0, "a fresh campaign must touch no shard");
    assert!(s.store_bytes_on_disk > 0);

    let follow = CampaignQuery::new(
        configs::two_item_config(TwoItemConfig::C2),
        vec![2, 2],
        QueryAlgorithm::SeqGrdNm,
    )
    .with_sp(Allocation::from_pairs(vec![(5, 1), (11, 1)]))
    .with_samples(200);
    let a = lazy.query(&follow).unwrap();
    let b = mono.query(&follow).unwrap();
    assert_eq!(a.allocation, b.allocation);
    assert_eq!(a.welfare, b.welfare);
    assert_eq!(
        lazy.stats().shards_loaded,
        4,
        "conditioning filters every shard"
    );
    // graph-fingerprint protection applies to stores too
    let other = Arc::new(generators::erdos_renyi(80, 320, 8, PM::WeightedCascade));
    match EngineBuilder::from_journaled_store(&dir)
        .graph(other)
        .build()
    {
        Err(EngineError::GraphMismatch { .. }) => {}
        other => panic!("expected GraphMismatch, got {:?}", other.err()),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Rewriting a store over a half-written (or differently sharded)
/// directory must not leave stale shard files behind: anything matching
/// the shard naming scheme that the new manifest does not name — files
/// above the new count, files stranded behind gaps, `.tmp` staging
/// leftovers — is swept, and the sweep is reported in the summary.
#[test]
fn rewrite_prunes_stale_shards_the_new_manifest_does_not_name() {
    let idx = index_from(47, 30, 200, 3);
    let dir = scratch("stale");
    std::fs::create_dir_all(&dir).unwrap();
    // simulate a crashed, larger previous write: a shard beyond the new
    // count, one stranded behind a gap, an abandoned staging file, and a
    // non-canonical spelling of an in-range index (the manifest names
    // only the zero-padded form, so this is stale too)
    for stale in [
        "shard-0005.cwsx",
        "shard-0009.cwsx",
        "shard-0007.tmp",
        "shard-1.cwsx",
    ] {
        std::fs::write(dir.join(stale), b"leftover garbage").unwrap();
    }
    let summary = write_store(&idx, &dir, 2).unwrap();
    assert_eq!(summary.stale_files_pruned, 4, "all four leftovers swept");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["manifest.bin", "shard-0000.cwsx", "shard-0001.cwsx"],
        "directory holds exactly the manifest and its named shards"
    );
    // ...and the store still opens and serves
    let store = ShardedIndex::open(&dir).unwrap();
    assert_eq!(store.shards_total(), 2);
    assert!(store.load_all().is_ok());
    // a clean rewrite reports zero pruned
    assert_eq!(write_store(&idx, &dir, 2).unwrap().stale_files_pruned, 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A missing shard file surfaces as a clean `Io` error on first touch —
/// open itself stays lazy and cheap.
#[test]
fn missing_shard_file_is_io_error_on_first_touch() {
    let idx = index_from(31, 25, 150, 3);
    let dir = scratch("missing");
    write_store(&idx, &dir, 3).unwrap();
    std::fs::remove_file(dir.join("shard-0001.cwsx")).unwrap();
    let store = ShardedIndex::open(&dir).unwrap(); // lazy: no stat, no error yet
    assert!(store.shard(0).is_ok());
    match store.shard(1) {
        Err(EngineError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
    assert!(store.shard(2).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
