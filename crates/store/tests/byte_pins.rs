//! Byte pins against history: every hash below was captured from the
//! commit *before* the monolithic snapshot format was deleted, when the
//! store was still one of two persisted forms. A pass here is evidence
//! that not one byte of a store directory moved — not of a manifest, a
//! shard, a journal record, or a compacted store — so a store written by
//! an older build stays readable, and two builds with one seed stay
//! diffable with `diff -r`.

use cwelmax_engine::RrIndex;
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_rrset::ImmParams;
use cwelmax_store::{write_store, JournaledStore, ShardedIndex};
use std::path::{Path, PathBuf};

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fresh per-test scratch directory.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cwelmax-byte-pins-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// `(file name, FNV-1a of its bytes)` for every file in `dir`, by name.
fn file_hashes(dir: &Path) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, fnv(&std::fs::read(e.path()).unwrap()))
        })
        .collect();
    out.sort();
    out
}

fn pinned(pins: &[(&str, u64)]) -> Vec<(String, u64)> {
    pins.iter().map(|&(n, h)| (n.to_string(), h)).collect()
}

fn graph() -> Graph {
    generators::erdos_renyi(120, 600, 77, PM::WeightedCascade)
}

fn build(g: &Graph, threads: usize) -> RrIndex {
    let p = ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 99,
        threads,
        max_rr_sets: 400_000,
    };
    RrIndex::build(g, 6, &p)
}

const SHARDS: usize = 3;

/// The store `write_store` makes of `build(graph(), threads)` at three
/// shards.
#[rustfmt::skip]
const STORE_PINS: [(&str, u64); 4] = [
    ("manifest.bin", 0x771f_0ccb_f4b2_9d17),
    ("shard-0000.cwsx", 0x8ecb_4965_5556_65fd),
    ("shard-0001.cwsx", 0x085d_a083_3054_6c1a),
    ("shard-0002.cwsx", 0xea8d_4aed_8a94_e9b7),
];

/// The journal after one top-up of that store by `TOPUP` sets.
const TOPUP: usize = 300;
const JOURNAL_PIN: u64 = 0x17dd_1645_7738_1c71;

/// The same store once `compact` has folded that journal.
#[rustfmt::skip]
const COMPACTED_PINS: [(&str, u64); 4] = [
    ("manifest.bin", 0xf8ad_a633_c724_d2f9),
    ("shard-0000.cwsx", 0x596d_3478_b5d9_d228),
    ("shard-0001.cwsx", 0x0920_aacf_4297_98c6),
    ("shard-0002.cwsx", 0xd831_1028_c8f5_caa6),
];

/// Parallel sampling seeds per set index, not per thread, so the index —
/// and with it every file of its store — is the same at every thread
/// count.
#[test]
fn same_seed_same_store_bytes_across_thread_counts() {
    let g = graph();
    for threads in [1, 2, 4] {
        let dir = scratch(&format!("threads-{threads}"));
        write_store(&build(&g, threads), &dir, SHARDS).unwrap();
        assert_eq!(
            file_hashes(&dir),
            pinned(&STORE_PINS),
            "{threads} thread(s)"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One θ top-up appends a pinned `journal.bin`; compaction folds it into
/// pinned shard files and removes it.
#[test]
fn topup_journal_and_compaction_bytes_are_pinned() {
    let g = graph();
    let dir = scratch("lifecycle");
    let index = build(&g, 2);
    write_store(&index, &dir, SHARDS).unwrap();
    let js = JournaledStore::open(&dir).unwrap();
    let target = index.num_sampled() + TOPUP;
    assert_eq!(js.ensure_theta(&g, target).unwrap(), target);
    let mut want = pinned(&STORE_PINS);
    want.push(("journal.bin".into(), JOURNAL_PIN));
    want.sort();
    assert_eq!(file_hashes(&dir), want, "store + journal after the top-up");
    js.compact(None).unwrap();
    assert_eq!(file_hashes(&dir), pinned(&COMPACTED_PINS), "after compact");
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance-scale round trip: a 10 000-node graph's index, written
/// as a store, reopened and fully faulted in, holds exactly the index's
/// canonical sets.
#[test]
fn ten_k_node_store_roundtrip() {
    let g = generators::erdos_renyi(10_000, 40_000, 1234, PM::WeightedCascade);
    let params = ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 42,
        threads: 0,
        max_rr_sets: 200_000,
    };
    let idx = RrIndex::build(&g, 10, &params);
    assert_eq!(idx.num_nodes(), 10_000);
    assert!(idx.num_sets() > 0, "index must retain sets");
    let dir = scratch("ten-k");
    write_store(&idx, &dir, 8).unwrap();
    let store = ShardedIndex::open(&dir).unwrap();
    assert_eq!(store.num_nodes(), idx.num_nodes());
    assert_eq!(store.num_sampled(), idx.num_sampled());
    assert_eq!(store.meta(), idx.meta());
    let (mut offsets, mut members, mut weights) = (vec![0usize], Vec::new(), Vec::new());
    for shard in store.load_all().unwrap() {
        let (o, m, w) = shard.canonical_parts();
        let base = members.len();
        offsets.extend(o[1..].iter().map(|&x| x + base));
        members.extend_from_slice(m);
        weights.extend_from_slice(w);
    }
    assert_eq!(
        (&offsets[..], &members[..], &weights[..]),
        idx.canonical_parts()
    );
    std::fs::remove_dir_all(&dir).ok();
}
