//! Crash-recovery and equivalence tests for the mutation journal and θ
//! top-up: torn-tail replay over arbitrary truncation points, single-bit
//! flips (final record dropped, interior corruption loud), compaction
//! byte-determinism, and the acceptance bar — a topped-up store answers
//! **bit-identically** to a cold build at the same `(seed, θ)` across
//! coverage, greedy selection, and SP-conditioned views.

use cwelmax_engine::{
    graph_fingerprint, EngineBuilder, EngineError, IndexBackend, IndexMeta, RrIndex,
};
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_rrset::{conditioned_collection, RrCollection, StandardRr, REGEN_SEED_XOR};
use cwelmax_store::{write_store, FromStore, JournaledStore, JOURNAL_FILE};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh per-call scratch directory (unique across tests and proptest
/// cases in this process).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cwelmax-journal-test-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    dir
}

fn graph_of(seed: u64, n: usize) -> Graph {
    generators::erdos_renyi(n, n * 4, seed, PM::WeightedCascade)
}

/// A cold index over the **same sampling stream a top-up continues**:
/// set `k` is seeded from `(meta.seed ^ REGEN_SEED_XOR, k)`, so a build
/// at θ₂ is the prefix-extension of a build at θ₁ < θ₂ by construction.
fn cold_index(g: &Graph, seed: u64, theta: usize, cap: u32) -> RrIndex {
    let mut c = RrCollection::new(g.num_nodes());
    c.extend_parallel(g, &StandardRr, theta, seed ^ REGEN_SEED_XOR, 2);
    RrIndex::freeze(
        &c,
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed,
            budget_cap: cap,
            graph_fingerprint: graph_fingerprint(g),
        },
    )
}

/// Write a journaled store holding a cold build at `theta`.
fn store_at(g: &Graph, seed: u64, theta: usize, cap: u32, shards: usize, tag: &str) -> PathBuf {
    let dir = scratch(tag);
    write_store(&cold_index(g, seed, theta, cap), &dir, shards).unwrap();
    dir
}

/// `(start, end)` byte ranges of the complete frames in a journal image
/// (frame = 16-byte header + payload + 4-byte CRC).
fn frame_bounds(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off + 16 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap()) as usize;
        let end = off + len + 20;
        if end > bytes.len() {
            break;
        }
        out.push((off, end));
        off = end;
    }
    out
}

/// Assert `js` answers bit-identically to the cold-built `want` across
/// every query surface the acceptance bar names: coverage, greedy
/// selection (seeds + coverage bits), the budget-cap pool, and
/// SP-conditioned views.
fn assert_matches_cold(js: &JournaledStore, want: &RrIndex, cap: u32) {
    assert_eq!(js.num_sampled(), want.num_sampled());
    assert_eq!(js.num_sets(), want.num_sets());
    let n = want.num_nodes() as u32;
    let probes: [&[u32]; 4] = [&[], &[0], &[1, 3, 2], &[n - 1, 0, 2]];
    for seeds in probes {
        assert_eq!(
            js.coverage_of(seeds).unwrap().to_bits(),
            want.coverage_of(seeds).to_bits(),
            "coverage diverged for {seeds:?}"
        );
    }
    for b in [1usize, 3, cap as usize] {
        let a = js.greedy_select(b).unwrap();
        let e = want.greedy_select(b);
        assert_eq!(a.seeds, e.seeds, "budget {b}");
        let a_bits: Vec<u64> = a.coverage.iter().map(|x| x.to_bits()).collect();
        let e_bits: Vec<u64> = e.coverage.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a_bits, e_bits, "budget {b}");
    }
    assert_eq!(
        js.pool_at_cap().unwrap(),
        want.greedy_select(cap as usize).seeds
    );
    // the oracle filters a copy of the cold sets and selects on the copy
    for sp in [vec![0u32], vec![5, 11], vec![2, 9, 17, 4]] {
        let got = js.derive_conditioned(&sp).unwrap();
        let kept = conditioned_collection(&want.to_collection(), &sp);
        let mut canonical = sp.clone();
        canonical.sort_unstable();
        assert_eq!(got.sp_nodes(), &canonical[..]);
        assert_eq!(
            got.pool(),
            &kept.greedy_select(cap as usize).seeds[..],
            "conditioned pool for sp {sp:?}"
        );
        assert_eq!(got.removed_sets(), want.num_sets() - kept.num_sets());
    }
}

/// The acceptance bar: grow θ 150 → 400 via the journal and compare
/// every surface, live (overlay) and after reopen (replay).
#[test]
fn topup_is_bit_identical_to_a_cold_build_live_and_after_reopen() {
    let (seed, n, cap) = (13u64, 40usize, 5u32);
    let g = graph_of(seed, n);
    let dir = store_at(&g, seed, 150, cap, 4, "identity");
    let cold = cold_index(&g, seed, 400, cap);

    let js = JournaledStore::open(&dir).unwrap();
    assert_eq!(js.num_sampled(), 150);
    assert_eq!(js.ensure_theta(&g, 400).unwrap(), 400);
    assert_eq!(js.journal_records(), 1, "one top-up, one journal record");
    assert!(js.journal_bytes() > 0);
    assert_matches_cold(&js, &cold, cap);

    // already satisfied: a no-op, no new journal record
    assert_eq!(js.ensure_theta(&g, 300).unwrap(), 400);
    assert_eq!(js.journal_records(), 1);

    // a different graph must not be able to extend this journal
    let other = graph_of(seed + 1, n);
    match js.ensure_theta(&other, 500) {
        Err(EngineError::GraphMismatch { .. }) => {}
        other => panic!("expected GraphMismatch, got {other:?}"),
    }

    // reopen: the overlay is rebuilt from the journal, answers identical
    drop(js);
    let js = JournaledStore::open(&dir).unwrap();
    assert_eq!(js.journal_records(), 1);
    assert_matches_cold(&js, &cold, cap);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill-anywhere durability: truncate the journal at an arbitrary
    /// byte (a torn final write) — reopen recovers exactly the committed
    /// record prefix, physically truncates the tail, and answers
    /// bit-identically to a cold build at the recovered θ.
    #[test]
    fn torn_truncation_recovers_the_committed_prefix(
        seed in 0u64..500,
        cut_frac in 0.0f64..=1.0,
    ) {
        let (n, cap) = (30usize, 4u32);
        let g = graph_of(seed, n);
        let dir = store_at(&g, seed, 80, cap, 3, "torn");
        let js = JournaledStore::open(&dir).unwrap();
        js.ensure_theta(&g, 160).unwrap();
        js.ensure_theta(&g, 240).unwrap();
        drop(js);

        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let frames = frame_bounds(&bytes);
        prop_assert_eq!(frames.len(), 2);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut.min(bytes.len())]).unwrap();

        let survivors = frames.iter().filter(|&&(_, end)| end <= cut).count();
        let theta = 80 + 80 * survivors;
        let js = JournaledStore::open(&dir).unwrap();
        prop_assert_eq!(js.num_sampled(), theta);
        prop_assert_eq!(js.journal_records(), survivors as u64);
        // the torn tail was physically dropped at open
        let committed = frames.get(survivors.wrapping_sub(1)).map_or(0, |&(_, e)| e);
        prop_assert_eq!(std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0), committed as u64);

        let want = cold_index(&g, seed, theta, cap);
        prop_assert_eq!(
            js.coverage_of(&[0, 2, 5]).unwrap().to_bits(),
            want.coverage_of(&[0, 2, 5]).to_bits()
        );
        prop_assert_eq!(js.greedy_select(3).unwrap().seeds, want.greedy_select(3).seeds);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Single-bit flips in the journal body: a flip in the FINAL
    /// record's payload/CRC is an interrupted append — dropped, the
    /// committed prefix serves. The same flip in an INTERIOR record is
    /// silent data loss if tolerated, so open fails loudly instead.
    #[test]
    fn bit_flips_drop_the_tail_but_interior_corruption_is_loud(
        seed in 0u64..500,
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
        victim_is_final in any::<bool>(),
    ) {
        let (n, cap) = (30usize, 4u32);
        let g = graph_of(seed, n);
        let dir = store_at(&g, seed, 80, cap, 3, "flip");
        let js = JournaledStore::open(&dir).unwrap();
        js.ensure_theta(&g, 160).unwrap();
        js.ensure_theta(&g, 240).unwrap();
        drop(js);

        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let frames = frame_bounds(&bytes);
        let (start, end) = frames[if victim_is_final { 1 } else { 0 }];
        // flip past the 16-byte header: the payload or the CRC word
        // (header flips are classified separately — journal.rs unit
        // tests pin magic → Corrupt, version → UnsupportedVersion,
        // oversized length → torn)
        let body = start + 16;
        let pos = body + (((end - body - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        if victim_is_final {
            let js = JournaledStore::open(&dir).unwrap();
            prop_assert_eq!(js.num_sampled(), 160, "final record dropped, prefix kept");
            prop_assert_eq!(js.journal_records(), 1);
            let want = cold_index(&g, seed, 160, cap);
            prop_assert_eq!(
                js.coverage_of(&[1, 4]).unwrap().to_bits(),
                want.coverage_of(&[1, 4]).to_bits()
            );
        } else {
            match JournaledStore::open(&dir) {
                Err(EngineError::Corrupt(_)) => {}
                Ok(_) => prop_assert!(false, "interior corruption at {pos} accepted"),
                Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Compaction folds the journal into shards **byte-deterministically**:
/// the compacted directory is file-for-file identical to a cold build of
/// the same `(seed, θ)` written at the same shard count — and keeps
/// answering identically afterwards.
#[test]
fn compaction_is_byte_deterministic_and_answer_identical() {
    let (seed, n, cap, shards) = (29u64, 35usize, 5u32, 3usize);
    let g = graph_of(seed, n);
    let dir = store_at(&g, seed, 100, cap, shards, "compact");
    let js = JournaledStore::open(&dir).unwrap();
    js.ensure_theta(&g, 250).unwrap();
    let summary = js.compact(None).unwrap();
    assert_eq!(summary.shards, shards);
    assert_eq!(js.journal_records(), 0);
    assert_eq!(js.journal_bytes(), 0);
    assert!(
        !dir.join(JOURNAL_FILE).exists(),
        "compaction removes the folded journal"
    );

    // byte-for-byte against a cold build at θ = 250
    let cold = cold_index(&g, seed, 250, cap);
    let cold_dir = scratch("compact-cold");
    write_store(&cold, &cold_dir, shards).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), shards + 1, "manifest + shards, nothing else");
    for name in &names {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(cold_dir.join(name)).unwrap(),
            "{name} diverged from the cold build"
        );
    }

    // the live handle keeps serving post-compact, still bit-identical
    assert_matches_cold(&js, &cold, cap);
    drop(js);
    let js = JournaledStore::open(&dir).unwrap();
    assert_matches_cold(&js, &cold, cap);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cold_dir).ok();
}

/// Crash window between compaction's manifest rename and the journal
/// unlink: the leftover journal's records are all ≤ the compacted base θ
/// and must be skipped (and the stale file removed), not re-applied.
#[test]
fn stale_journal_left_by_a_compact_crash_is_skipped() {
    let (seed, n, cap) = (41u64, 30usize, 4u32);
    let g = graph_of(seed, n);
    let dir = store_at(&g, seed, 100, cap, 3, "stale");
    let js = JournaledStore::open(&dir).unwrap();
    js.ensure_theta(&g, 200).unwrap();
    let journal_bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    js.compact(None).unwrap();
    drop(js);
    // resurrect the journal exactly as a crash-before-unlink leaves it
    std::fs::write(dir.join(JOURNAL_FILE), &journal_bytes).unwrap();

    let js = JournaledStore::open(&dir).unwrap();
    assert_eq!(js.num_sampled(), 200, "stale records must not re-apply");
    assert_eq!(js.journal_records(), 0);
    assert!(
        !dir.join(JOURNAL_FILE).exists(),
        "a fully stale journal is removed at open"
    );
    assert_matches_cold(&js, &cold_index(&g, seed, 200, cap), cap);
    std::fs::remove_dir_all(&dir).ok();
}

/// Engine integration: a journaled-store engine grows θ live through
/// `CampaignEngine::ensure_theta`, invalidates its pool and conditioned
/// caches, and then answers exactly like an engine cold-built at the
/// target θ. Stats surface the journal counters.
#[test]
fn engine_over_journaled_store_grows_theta_live() {
    use cwelmax_diffusion::Allocation;
    use cwelmax_engine::{CampaignQuery, QueryAlgorithm};
    use cwelmax_utility::configs::{self, TwoItemConfig};

    let (seed, n, cap) = (7u64, 60usize, 6u32);
    let g = Arc::new(graph_of(seed, n));
    let dir = store_at(&g, seed, 300, cap, 4, "engine");
    let live = EngineBuilder::from_journaled_store(&dir)
        .graph(Arc::clone(&g))
        .build()
        .unwrap();
    let want = EngineBuilder::from_index(Arc::new(cold_index(&g, seed, 900, cap)))
        .graph(Arc::clone(&g))
        .build()
        .unwrap();

    let fresh = CampaignQuery::new(
        configs::two_item_config(TwoItemConfig::C1),
        vec![2, 2],
        QueryAlgorithm::SeqGrdNm,
    )
    .with_samples(200);
    // prime the pool and a conditioned view at the small θ, so the grow
    // must actually invalidate both
    live.query(&fresh).unwrap();
    let follow = CampaignQuery::new(
        configs::two_item_config(TwoItemConfig::C2),
        vec![2, 2],
        QueryAlgorithm::SeqGrdNm,
    )
    .with_sp(Allocation::from_pairs(vec![(5, 1), (11, 1)]))
    .with_samples(200);
    live.query(&follow).unwrap();

    assert_eq!(live.ensure_theta(900).unwrap(), 900);
    let a = live.query(&fresh).unwrap();
    let b = want.query(&fresh).unwrap();
    assert_eq!(a.allocation, b.allocation);
    assert_eq!(a.welfare, b.welfare);
    let a = live.query(&follow).unwrap();
    let b = want.query(&follow).unwrap();
    assert_eq!(a.allocation, b.allocation);
    assert_eq!(a.welfare, b.welfare);

    let s = live.stats();
    assert_eq!(s.journal_records, 1);
    assert!(s.journal_bytes > 0);
    assert_eq!(s.topups_total, 1);
    // an in-memory index refuses a real deficit instead of lying
    match want.ensure_theta(5_000) {
        Err(EngineError::BadQuery(msg)) => assert!(msg.contains("top-up")),
        other => panic!("expected BadQuery, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the `store.resident_bytes` gauge tracks decoded shard
/// residency — zero at open, the full on-disk payload once every shard
/// has faulted in.
#[test]
fn resident_bytes_gauge_tracks_lazy_shard_faults() {
    use cwelmax_store::ShardedIndex;
    let (seed, n, cap) = (53u64, 30usize, 4u32);
    let g = graph_of(seed, n);
    let dir = store_at(&g, seed, 200, cap, 4, "resident");
    let store = ShardedIndex::open(&dir).unwrap();
    assert_eq!(store.resident_bytes(), 0, "open faults nothing in");
    let snap = store.metrics().snapshot();
    assert_eq!(snap.gauges["store.resident_bytes"], 0);

    store.shard(1).unwrap();
    let one = store.resident_bytes();
    assert!(one > 0);
    store.load_all().unwrap();
    // fully faulted = every shard file resident (bytes_on_disk also
    // counts the manifest, which is read eagerly, not lazily resident)
    let shard_bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".cwsx"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    assert!(one < shard_bytes);
    assert_eq!(store.resident_bytes(), shard_bytes);
    assert!(store.resident_bytes() < store.bytes_on_disk());
    assert_eq!(
        store.metrics().snapshot().gauges["store.resident_bytes"],
        shard_bytes as i64
    );
    std::fs::remove_dir_all(&dir).ok();
}
