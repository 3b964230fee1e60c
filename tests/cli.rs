//! The `cwelmax` binary end to end: `index build` writes a store,
//! `query-batch --store` answers from it, and every file-level failure —
//! a retired flag or subcommand, an `--out` that is a file, a corrupt
//! manifest — is a clean exit 2 with a message, never a panic.

use serde::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_cwelmax");

/// A fresh per-test scratch directory holding a 300-node edge list.
fn fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cwelmax-cli-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    // a fixed pseudo-random digraph (LCG), no self-loops
    let mut x: u64 = 4;
    let mut next = || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (x >> 33) % 300
    };
    let mut edges = String::new();
    for _ in 0..1200 {
        let (u, v) = (next(), next());
        if u != v {
            edges.push_str(&format!("{u} {v}\n"));
        }
    }
    std::fs::write(dir.join("edges.txt"), edges).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `index build` into `dir/name` at a fixed seed; must succeed.
fn build_store(dir: &Path, name: &str) -> PathBuf {
    let store = dir.join(name);
    let out = run(&[
        "index",
        "build",
        "--graph",
        dir.join("edges.txt").to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
        "--shards",
        "3",
        "--budget-cap",
        "4",
        "--seed",
        "7",
        "--threads",
        "2",
        "--max-rr-sets",
        "20000",
    ]);
    assert!(out.status.success(), "index build: {}", stderr(&out));
    store
}

/// Every file of a store directory, by name.
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
fn index_build_twice_with_one_seed_writes_identical_directories() {
    let dir = fixture("twice");
    let a = files(&build_store(&dir, "a.store"));
    let b = files(&build_store(&dir, "b.store"));
    let names: Vec<&str> = a.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "manifest.bin",
            "shard-0000.cwsx",
            "shard-0001.cwsx",
            "shard-0002.cwsx"
        ]
    );
    assert!(a == b, "same flags and seed must write the same bytes");
    std::fs::remove_dir_all(&dir).ok();
}

/// `query-batch` over `store` with `queries` (a JSON array) plus `extra`
/// flags.
fn query_batch(dir: &Path, store: &Path, queries: &str, extra: &[&str]) -> Output {
    let file = dir.join("queries.json");
    std::fs::write(&file, queries).unwrap();
    let edges = dir.join("edges.txt");
    let mut args = vec![
        "query-batch",
        "--graph",
        edges.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--queries",
        file.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    run(&args)
}

#[test]
fn query_batch_answers_a_duplicate_from_one_pool_and_the_welfare_cache() {
    let dir = fixture("batch");
    let store = build_store(&dir, "index.store");
    let q = r#"{"config": "C1", "budgets": [2, 2], "algorithm": "seqgrd-nm", "samples": 100}"#;
    let out = query_batch(
        &dir,
        &store,
        &format!("[{q}, {q}]"),
        &["--threads", "1", "--json"],
    );
    assert!(out.status.success(), "query-batch: {}", stderr(&out));
    let report: Value = serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let report = report.as_object().unwrap();
    let answers: Vec<&Map> = report["answers"]
        .as_array()
        .unwrap()
        .iter()
        .map(|a| a.as_object().unwrap())
        .collect();
    assert_eq!(answers.len(), 2);
    assert!(answers.iter().all(|a| a["ok"] == Value::Bool(true)));
    assert_eq!(answers[0]["welfare"], answers[1]["welfare"]);
    let engine = report["engine"].as_object().unwrap();
    assert_eq!(engine["pool_selections"], Value::Int(1));
    assert_eq!(engine["welfare_cache_hits"], Value::Int(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retired_snapshot_surface_and_file_out_exit_2() {
    let dir = fixture("retired");
    let edges = dir.join("edges.txt");
    let edges = edges.to_str().unwrap();
    for args in [
        &["serve", "--graph", edges, "--index", "index.cwrx"][..],
        &["query-batch", "--graph", edges, "--index", "index.cwrx"][..],
        &["index", "shard", "--graph", edges, "--out", "x.store"][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("error: "), "{args:?}");
    }
    // an existing regular file is refused before the index is sampled
    let file = dir.join("index.cwrx");
    std::fs::write(&file, b"not a store").unwrap();
    let out = run(&[
        "index",
        "build",
        "--graph",
        edges,
        "--out",
        file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("not a directory"), "{}", stderr(&out));
    assert!(
        !stderr(&out).contains("building index"),
        "--out must be checked before the build"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupt_or_missing_store_exits_2_not_a_panic() {
    let dir = fixture("corrupt");
    let store = build_store(&dir, "index.store");
    let manifest = store.join("manifest.bin");
    let mut bytes = std::fs::read(&manifest).unwrap();
    bytes[20] ^= 0x01; // inside the payload: the 16-byte header parses
    std::fs::write(&manifest, bytes).unwrap();
    for (store, want) in [
        (store, "checksum mismatch"),
        (dir.join("no.store"), "io error"),
    ] {
        let out = query_batch(&dir, &store, "[]", &[]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(err.contains(want), "{err}");
        assert!(!err.contains("panicked"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
