//! Compaction writes the store from its parts, taking the manifest's
//! pool from one of two sources: the composed pool a query cached after
//! the top-up, or — on a freshly reopened store, where nothing is cached
//! — one selection over the parts. Both must write exactly the bytes
//! `write_store` writes for a cold build at the grown θ.

use cwelmax_engine::{graph_fingerprint, IndexBackend, IndexMeta, RrIndex};
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_rrset::{RrCollection, StandardRr, REGEN_SEED_XOR};
use cwelmax_store::{write_store, JournaledStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cwelmax-compact-pool-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ok();
    }
    dir
}

/// A cold index over the stream a top-up continues (the regeneration
/// seed), so a build at θ₁ is what topping up a θ₀ build must give.
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

/// Every file of a directory, by name, sorted.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn cached_and_uncached_pools_compact_to_the_cold_build_bytes() {
    let (seed, n, cap) = (53u64, 300usize, 6u32);
    let (theta0, theta1, shards) = (400usize, 900usize, 3usize);
    let g = generators::erdos_renyi(n, n * 4, seed, PM::WeightedCascade);
    let base = cold_index(&g, seed, theta0, cap);
    let cold = cold_index(&g, seed, theta1, cap);
    for reshape in [None, Some(5)] {
        let want_dir = scratch("cold");
        write_store(&cold, &want_dir, reshape.unwrap_or(shards)).unwrap();
        let want = files(&want_dir);

        // pool cached: a query after the top-up selects and caches it
        let cached = scratch("cached");
        write_store(&base, &cached, shards).unwrap();
        let js = JournaledStore::open(&cached).unwrap();
        js.ensure_theta(&g, theta1).unwrap();
        assert_eq!(
            js.pool_at_cap().unwrap(),
            cold.greedy_select(cap as usize).seeds
        );
        js.compact(reshape).unwrap();
        drop(js);
        assert_eq!(files(&cached), want, "cached pool, shards {reshape:?}");

        // pool uncached: reopen after the top-up (the journal replays,
        // nothing is selected), then compact
        let uncached = scratch("uncached");
        write_store(&base, &uncached, shards).unwrap();
        JournaledStore::open(&uncached)
            .unwrap()
            .ensure_theta(&g, theta1)
            .unwrap();
        JournaledStore::open(&uncached)
            .unwrap()
            .compact(reshape)
            .unwrap();
        assert_eq!(files(&uncached), want, "uncached pool, shards {reshape:?}");

        for dir in [want_dir, cached, uncached] {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
