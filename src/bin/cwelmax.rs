//! `cwelmax` — command-line CWelMax solver and campaign-engine driver.
//!
//! ## Solve one instance (cold path)
//!
//! ```text
//! cwelmax --graph edges.txt --config model.json --budgets 10,10 \
//!         [--algorithm seqgrd-nm] [--samples 1000] [--eps 0.5] \
//!         [--fixed fixed.json] [--seed 7] [--json]
//! ```
//!
//! * `--graph` — SNAP-style edge list (`u v [p]`; without probabilities the
//!   weighted-cascade model `1/din(v)` is applied);
//! * `--config` — a JSON-serialized [`cwelmax::utility::UtilityModel`]
//!   (see `examples/model.json` emitted by `--emit-example-config`);
//! * `--budgets` — comma-separated per-item budgets;
//! * `--fixed` — optional JSON allocation `[[node, item], ...]` for `SP`;
//! * `--algorithm` — `seqgrd | seqgrd-nm | maxgrd | supgrd | best-of |
//!   tcim | round-robin | snake` (default `seqgrd-nm`).
//!
//! ## Build a persistent RR-set index (expensive, once per graph)
//!
//! ```text
//! cwelmax index build --graph edges.txt --out index.store [--shards 8] \
//!         [--budget-cap 20] [--eps 0.5] [--ell 1.0] [--seed S] [--threads T]
//! ```
//!
//! `index build` writes `--out` as a store **directory**: a
//! `manifest.bin` carrying the build metadata, the precomputed
//! budget-cap greedy pool, and per-shard integrity records, plus
//! `--shards` shard files each holding a contiguous CRC-checked range of
//! RR sets (written in parallel). Servers open the manifest eagerly and
//! fault shards in lazily — fresh campaigns are answered from the
//! persisted pool without reading a single shard. The same flags and
//! seed always write byte-identical files.
//!
//! ## Grow a store in place (θ top-up) and fold the journal
//!
//! ```text
//! cwelmax index topup --store index.store --graph edges.txt --theta N
//! cwelmax index compact --store index.store [--shards N]
//! ```
//!
//! `index topup` continues the build's deterministic sampling stream to
//! at least `--theta` sets, fsyncing the delta into the store's
//! append-only `journal.bin` — no rebuild, answers bit-identical to a
//! cold build at the same `(seed, theta)`. `index compact` folds the
//! journal into fresh shard files (write-then-rename; the journal is
//! removed only after the new manifest is durable). A live server does
//! the same over the wire via `{"v": 2, "type": "topup", "theta": N}`.
//!
//! ## Answer a batch of campaigns from the index (warm, no resampling)
//!
//! ```text
//! cwelmax query-batch --graph edges.txt --store index.store \
//!         --queries queries.json [--threads N] [--json]
//! ```
//!
//! `queries.json` is an array of campaign objects:
//!
//! ```json
//! [{"config": "C1", "budgets": [5, 5], "algorithm": "seqgrd-nm",
//!   "sp": [[17, 1]], "samples": 1000, "seed": 7}]
//! ```
//!
//! where `config` is either a named paper configuration (`C1`–`C4`) or an
//! inline JSON utility model, `algorithm` is one of `seqgrd-nm | seqgrd |
//! maxgrd | best-of`, and the optional `sp` (`[[node, item], …]`) makes
//! the entry a **follow-up** campaign conditioned on that fixed prior
//! allocation — served warm from an SP-conditioned view of the index,
//! still with zero resampling. A malformed query produces a per-query
//! error entry; the rest of the batch still runs.
//!
//! ## Serve campaigns over TCP (long-lived, index loaded once)
//!
//! ```text
//! cwelmax serve --graph edges.txt --store index.store \
//!         [--addr 127.0.0.1:7878] [--cache-cap N] [--max-conns N] \
//!         [--log-level error|warn|info|debug|trace] [--slow-query-ms N] \
//!         [--metrics-dump SECS] [--metrics-file PATH] \
//!         [--trace-sample RATE] [--trace-buffer N]
//! ```
//!
//! Startup reads only the store's manifest and journal (cold-open is
//! `O(manifest)`, not `O(index)`) and shard files are loaded lazily as
//! queries touch them — `{"type": "stats"}` reports `shards_total` /
//! `shards_loaded` / `store_bytes_on_disk` so the lazy path is
//! observable over the wire.
//!
//! Newline-delimited JSON: each request line is a query object (same shape
//! as a `query-batch` entry — SP-bearing follow-ups included — plus
//! optional `"id"` echoed back), a `{"type": "batch", "queries": [...]}`
//! envelope answered on one line, `{"type": "stats"}`, or
//! `{"type": "shutdown"}`; each response line carries `"ok": true|false`.
//! `--max-conns` refuses connections beyond the limit with a JSON "server
//! busy" line instead of spawning unbounded threads. See
//! `cwelmax_engine::wire`.
//!
//! Observability: `{"v": 2, "type": "metrics"}` scrapes the full metrics
//! registry (counters, gauges, latency histograms across engine, store,
//! and server); `--metrics-dump SECS` appends the same snapshot as one
//! NDJSON line every `SECS` seconds to `--metrics-file` (stderr when
//! omitted). `--log-level` tunes the structured NDJSON logger (default
//! `warn`); `--slow-query-ms N` logs any request slower than `N` ms —
//! and marks its trace as always-keep. `--trace-sample RATE` records a
//! span tree per request, tail-retaining errors, slow requests, and a
//! `RATE` sample of the rest into a ring of `--trace-buffer N` traces
//! (default 256), scraped via `{"v": 2, "type": "traces"}`; a client may
//! also pin one request by sending a hex `"trace"` id, echoed on the
//! answer.
//!
//! Prints the chosen allocation(s), estimated welfare and per-item
//! adoption counts; `--json` switches to machine-readable output.

use cwelmax::core::baselines::{RoundRobin, Snake, Tcim};
use cwelmax::core::{best_of, MaxGrd, SupGrd};
use cwelmax::diffusion::SimulationConfig;
use cwelmax::engine::wire::Protocol;
use cwelmax::engine::{wire, CampaignEngine, CampaignQuery, RrIndex};
use cwelmax::graph::{io as graph_io, ProbabilityModel};
use cwelmax::obs;
use cwelmax::prelude::*;
use cwelmax::rrset::ImmParams;
use cwelmax::server::CampaignServer;
use cwelmax::store::write_store;
use std::sync::Arc;

struct Args {
    graph: Option<String>,
    config: Option<String>,
    budgets: Vec<usize>,
    fixed: Option<String>,
    algorithm: String,
    samples: usize,
    eps: f64,
    seed: u64,
    json: bool,
    emit_example: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        graph: None,
        config: None,
        budgets: Vec::new(),
        fixed: None,
        algorithm: "seqgrd-nm".into(),
        samples: 1000,
        eps: 0.5,
        seed: 0x5EED,
        json: false,
        emit_example: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let next = |i: &mut usize, what: &str| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| die(&format!("{what} expects a value")))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--graph" => a.graph = Some(next(&mut i, "--graph")),
            "--config" => a.config = Some(next(&mut i, "--config")),
            "--fixed" => a.fixed = Some(next(&mut i, "--fixed")),
            "--algorithm" => a.algorithm = next(&mut i, "--algorithm"),
            "--budgets" => {
                a.budgets = next(&mut i, "--budgets")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| die("bad budget")))
                    .collect()
            }
            "--samples" => {
                a.samples = next(&mut i, "--samples")
                    .parse()
                    .unwrap_or_else(|_| die("bad samples"))
            }
            "--eps" => {
                a.eps = next(&mut i, "--eps")
                    .parse()
                    .unwrap_or_else(|_| die("bad eps"))
            }
            "--seed" => {
                a.seed = next(&mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad seed"))
            }
            "--json" => a.json = true,
            "--emit-example-config" => a.emit_example = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: cwelmax --graph EDGES --config MODEL.json --budgets B0,B1,… \
                     [--algorithm seqgrd|seqgrd-nm|maxgrd|supgrd|best-of|tcim|round-robin|snake] \
                     [--fixed FIXED.json] [--samples N] [--eps E] [--seed S] [--json] \
                     [--emit-example-config]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    a
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Tiny flag cursor shared by the subcommand parsers.
struct Flags {
    argv: Vec<String>,
    i: usize,
}

impl Flags {
    fn new(argv: Vec<String>) -> Flags {
        Flags { argv, i: 0 }
    }

    fn next_flag(&mut self) -> Option<String> {
        let f = self.argv.get(self.i).cloned();
        self.i += 1;
        f
    }

    fn value(&mut self, what: &str) -> String {
        let v = self
            .argv
            .get(self.i)
            .unwrap_or_else(|| die(&format!("{what} expects a value")))
            .clone();
        self.i += 1;
        v
    }

    fn parsed<T: std::str::FromStr>(&mut self, what: &str) -> T {
        self.value(what)
            .parse()
            .unwrap_or_else(|_| die(&format!("bad value for {what}")))
    }
}

fn load_graph(path: &str) -> cwelmax::graph::Graph {
    graph_io::read_edge_list_file(path, ProbabilityModel::WeightedCascade)
        .unwrap_or_else(|e| die(&format!("cannot read graph: {e}")))
}

/// `cwelmax index build …` — sample an RR-set index and persist it as a
/// sharded store directory.
fn cmd_index_build(argv: Vec<String>) {
    let mut graph_path = None;
    let mut out = None;
    let mut budget_cap: u32 = 20;
    let mut shards: usize = 8;
    let mut params = ImmParams {
        threads: 0,
        max_rr_sets: 50_000_000,
        ..Default::default()
    };
    let mut f = Flags::new(argv);
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--graph" => graph_path = Some(f.value("--graph")),
            "--out" => out = Some(f.value("--out")),
            "--budget-cap" => budget_cap = f.parsed("--budget-cap"),
            "--eps" => params.eps = f.parsed("--eps"),
            "--ell" => params.ell = f.parsed("--ell"),
            "--seed" => params.seed = f.parsed("--seed"),
            "--threads" => params.threads = f.parsed("--threads"),
            "--max-rr-sets" => params.max_rr_sets = f.parsed("--max-rr-sets"),
            "--shards" => shards = f.parsed("--shards"),
            other => die(&format!("unknown `index build` argument `{other}`")),
        }
    }
    let graph_path = graph_path.unwrap_or_else(|| die("--graph is required"));
    let out = out.unwrap_or_else(|| die("--out is required"));
    if budget_cap == 0 {
        die("--budget-cap must be positive");
    }
    if shards == 0 {
        die("--shards must be positive");
    }
    // a store is a directory: refuse an existing file before paying for
    // the build, not after
    if std::fs::metadata(&out).is_ok_and(|m| !m.is_dir()) {
        die(&format!(
            "cannot write store: --out {out} is an existing file, not a directory"
        ));
    }
    let graph = load_graph(&graph_path);
    eprintln!(
        "building index: {} nodes, {} edges, budget cap {budget_cap}, eps {}",
        graph.num_nodes(),
        graph.num_edges(),
        params.eps
    );
    let start = std::time::Instant::now();
    let index = RrIndex::build(&graph, budget_cap, &params);
    let build_time = start.elapsed();
    let summary = write_store(&index, &out, shards)
        .unwrap_or_else(|e| die(&format!("cannot write store: {e}")));
    println!(
        "store built in {build_time:?}: θ = {} sampled, {} retained sets \
         across {} shard(s), {} bytes -> {out}/",
        index.num_sampled(),
        summary.total_sets,
        summary.shards,
        summary.bytes_on_disk
    );
}

/// `cwelmax index topup …` — grow a journaled store's sampled population
/// to at least `--theta` RR sets, continuing the build's deterministic
/// sampling stream. The new sets are fsynced into `journal.bin` before
/// the command reports success; reopening the store (or a live server's
/// `{"v": 2, "type": "topup"}`) serves them immediately.
fn cmd_index_topup(argv: Vec<String>) {
    let mut store = None;
    let mut graph_path = None;
    let mut theta: Option<usize> = None;
    let mut f = Flags::new(argv);
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--store" => store = Some(f.value("--store")),
            "--graph" => graph_path = Some(f.value("--graph")),
            "--theta" => theta = Some(f.parsed("--theta")),
            other => die(&format!("unknown `index topup` argument `{other}`")),
        }
    }
    let store = store.unwrap_or_else(|| die("--store is required"));
    let graph_path = graph_path.unwrap_or_else(|| die("--graph is required"));
    let theta = theta.unwrap_or_else(|| die("--theta is required"));
    let graph = load_graph(&graph_path);
    let js = cwelmax::store::JournaledStore::open(&store)
        .unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
    let before = js.num_sampled();
    let start = std::time::Instant::now();
    let have = js
        .ensure_theta(&graph, theta)
        .unwrap_or_else(|e| die(&format!("top-up failed: {e}")));
    println!(
        "store topped up in {:?}: θ {before} -> {have} \
         ({} journal record(s), {} journal bytes) -> {store}/",
        start.elapsed(),
        js.journal_records(),
        js.journal_bytes()
    );
}

/// `cwelmax index compact …` — fold a journaled store's `journal.bin`
/// into fresh shard files and remove the journal. Also reshards when
/// `--shards` differs from the current layout.
fn cmd_index_compact(argv: Vec<String>) {
    let mut store = None;
    let mut shards: Option<usize> = None;
    let mut f = Flags::new(argv);
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--store" => store = Some(f.value("--store")),
            "--shards" => shards = Some(f.parsed("--shards")),
            other => die(&format!("unknown `index compact` argument `{other}`")),
        }
    }
    let store = store.unwrap_or_else(|| die("--store is required"));
    if shards == Some(0) {
        die("--shards must be positive");
    }
    let js = cwelmax::store::JournaledStore::open(&store)
        .unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
    let start = std::time::Instant::now();
    let summary = js
        .compact(shards)
        .unwrap_or_else(|e| die(&format!("compaction failed: {e}")));
    println!(
        "store compacted in {:?}: θ = {} sampled, {} retained sets across \
         {} shard(s), {} bytes, journal folded -> {store}/",
        start.elapsed(),
        js.num_sampled(),
        summary.total_sets,
        summary.shards,
        summary.bytes_on_disk
    );
}

/// Load the graph and open the store at `store` into an engine (shared
/// by `query-batch` and `serve`). The store is opened **journaled** —
/// manifest and journal now, shards lazily as queries touch them — so a
/// server can grow θ live (`{"v": 2, "type": "topup"}`).
fn load_engine(graph_path: &str, store: &str, cache_cap: Option<usize>) -> CampaignEngine {
    let graph = Arc::new(load_graph(graph_path));
    eprintln!("loading engine from store {store} (lazy shards, journaled)");
    let mut builder = EngineBuilder::from_journaled_store(store).graph(graph);
    if let Some(cap) = cache_cap {
        builder = builder.cache_capacity(cap);
    }
    builder
        .build()
        .unwrap_or_else(|e| die(&format!("cannot load engine: {e}")))
}

/// `cwelmax query-batch …` — answer many campaigns from a prebuilt index.
/// A malformed query yields a per-query error entry in the output; the
/// rest of the batch still runs.
fn cmd_query_batch(argv: Vec<String>) {
    let mut graph_path = None;
    let mut store_path = None;
    let mut queries_path = None;
    let mut threads = 0usize;
    let mut json = false;
    let mut f = Flags::new(argv);
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--graph" => graph_path = Some(f.value("--graph")),
            "--store" => store_path = Some(f.value("--store")),
            "--queries" => queries_path = Some(f.value("--queries")),
            "--threads" => threads = f.parsed("--threads"),
            "--json" => json = true,
            other => die(&format!("unknown `query-batch` argument `{other}`")),
        }
    }
    let graph_path = graph_path.unwrap_or_else(|| die("--graph is required"));
    let store_path = store_path.unwrap_or_else(|| die("--store is required"));
    let queries_path = queries_path.unwrap_or_else(|| die("--queries is required"));

    let engine = load_engine(&graph_path, &store_path, None);
    let text = std::fs::read_to_string(&queries_path)
        .unwrap_or_else(|e| die(&format!("cannot read queries: {e}")));
    let root: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("bad queries JSON: {e}")));
    // parse every query up front; bad ones become per-slot errors instead
    // of killing the whole batch
    let parsed: Vec<Result<CampaignQuery, String>> = root
        .as_array()
        .unwrap_or_else(|| die("queries file must hold a JSON array"))
        .iter()
        .enumerate()
        .map(|(k, v)| wire::parse_query(v).map_err(|e| format!("query {k}: {e}")))
        .collect();
    let runnable: Vec<CampaignQuery> = parsed.iter().filter_map(|r| r.clone().ok()).collect();

    let start = std::time::Instant::now();
    let mut answers = engine.query_batch(&runnable, threads).into_iter();
    let elapsed = start.elapsed();
    let stats = engine.stats();
    // re-interleave answers with the parse errors, in query order
    let rows: Vec<Result<_, String>> = parsed
        .iter()
        .map(|r| match r {
            Ok(_) => answers
                .next()
                .expect("one answer per runnable query")
                .map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        })
        .collect();

    if json {
        let out = serde_json::json!({
            "answers": rows
                .iter()
                .map(|r| match r {
                    // the offline report keeps the v1 shape — it is a
                    // file, not a negotiated connection
                    Ok(a) => wire::answer_response(a, Protocol::V1),
                    Err(e) => wire::error_response(e),
                })
                .collect::<Vec<_>>(),
            "batch_seconds": elapsed.as_secs_f64(),
            "engine": wire::engine_stats_value(&stats),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    } else {
        for (k, r) in rows.iter().enumerate() {
            match r {
                Ok(a) => println!(
                    "query {k}: {} welfare {:.2} in {:?}  {:?}",
                    a.algorithm,
                    a.welfare,
                    a.elapsed,
                    a.allocation.pairs()
                ),
                Err(e) => println!("query {k}: error: {e}"),
            }
        }
        println!(
            "batch: {} queries in {elapsed:?} ({} pool selection(s), \
             {} welfare evals, {} cache hits)",
            rows.len(),
            stats.pool_selections,
            stats.welfare_evals,
            stats.welfare_cache_hits
        );
    }
}

/// `cwelmax serve …` — long-lived NDJSON-over-TCP query server over one
/// engine. Loads the graph and index once; answers until a
/// `{"type": "shutdown"}` request.
fn cmd_serve(argv: Vec<String>) {
    let mut graph_path = None;
    let mut store_path = None;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cache_cap: Option<usize> = None;
    let mut max_conns: Option<usize> = None;
    let mut log_level = "warn".to_string();
    let mut slow_query_ms: Option<u64> = None;
    let mut metrics_dump_secs: Option<u64> = None;
    let mut metrics_file: Option<String> = None;
    let mut trace_sample: Option<f64> = None;
    let mut trace_buffer: Option<usize> = None;
    let mut f = Flags::new(argv);
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--graph" => graph_path = Some(f.value("--graph")),
            "--store" => store_path = Some(f.value("--store")),
            "--addr" => addr = f.value("--addr"),
            "--cache-cap" => cache_cap = Some(f.parsed("--cache-cap")),
            "--max-conns" => max_conns = Some(f.parsed("--max-conns")),
            "--log-level" => log_level = f.value("--log-level"),
            "--slow-query-ms" => slow_query_ms = Some(f.parsed("--slow-query-ms")),
            "--metrics-dump" => metrics_dump_secs = Some(f.parsed("--metrics-dump")),
            "--metrics-file" => metrics_file = Some(f.value("--metrics-file")),
            "--trace-sample" => trace_sample = Some(f.parsed("--trace-sample")),
            "--trace-buffer" => trace_buffer = Some(f.parsed("--trace-buffer")),
            other => die(&format!("unknown `serve` argument `{other}`")),
        }
    }
    if let Some(rate) = trace_sample {
        if !(0.0..=1.0).contains(&rate) {
            die("--trace-sample must be in [0, 1]");
        }
    }
    let graph_path = graph_path.unwrap_or_else(|| die("--graph is required"));
    let store_path = store_path.unwrap_or_else(|| die("--store is required"));
    let level: obs::Level = log_level
        .parse()
        .unwrap_or_else(|e: String| die(&format!("bad --log-level: {e}")));
    let logger = Arc::new(obs::Logger::new(level));
    if let Some(ms) = slow_query_ms {
        logger.set_slow_query_ns(ms.saturating_mul(1_000_000));
    }

    let engine = load_engine(&graph_path, &store_path, cache_cap);
    let mut server = CampaignServer::bind(Arc::new(engine), addr.as_str())
        .unwrap_or_else(|e| die(&format!("cannot bind {addr}: {e}")))
        .with_logger(Arc::clone(&logger));
    if let Some(n) = max_conns {
        server = server.with_max_conns(n);
    }
    if let Some(rate) = trace_sample {
        server = server.with_trace_sample(rate);
    }
    if let Some(cap) = trace_buffer {
        server = server.with_trace_buffer(cap);
    }
    // periodic registry snapshots, one NDJSON line each, until the
    // server stops (the dump thread is a daemon: detached on purpose)
    if let Some(secs) = metrics_dump_secs {
        let registry = server.metrics();
        let path = metrics_file.clone();
        let dump_log = Arc::clone(&logger);
        std::thread::spawn(move || {
            let period = std::time::Duration::from_secs(secs.max(1));
            loop {
                std::thread::sleep(period);
                dump_metrics_line(&registry, path.as_deref(), &dump_log);
            }
        });
    }
    // announce readiness on stdout so drivers (tests, CI) can wait for it
    println!("cwelmax-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server
        .run()
        .unwrap_or_else(|e| die(&format!("server failed: {e}")));
    eprintln!("cwelmax-serve: shut down");
}

/// Append one `{"ts_ms": …, "metrics": {…}}` NDJSON line to `path` (or
/// stderr when no `--metrics-file` is given), flushing after the line so
/// tail-readers see complete records. Failures never take the server
/// down — metrics are best-effort by design — but they are *counted*
/// (`server.metrics_dump_errors`, visible in the next successful dump
/// and over the wire) and warned about through the structured logger, so
/// a wedged metrics file is an observable condition rather than a
/// silently dead NDJSON stream.
fn dump_metrics_line(registry: &obs::MetricsRegistry, path: Option<&str>, log: &obs::Logger) {
    use std::io::Write as _;
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut m = serde::Map::new();
    m.insert("ts_ms".into(), serde::Serialize::to_value(&ts_ms));
    m.insert("metrics".into(), registry.snapshot().to_value());
    let mut line = serde_json::to_string(&serde::Value::Object(m)).unwrap();
    line.push('\n');
    let result = match path {
        Some(p) => std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .and_then(|mut f| f.write_all(line.as_bytes()).and_then(|()| f.flush())),
        None => std::io::stderr()
            .write_all(line.as_bytes())
            .and_then(|()| std::io::stderr().flush()),
    };
    if let Err(e) = result {
        registry.counter("server.metrics_dump_errors").incr();
        log.warn(
            "metrics_dump_error",
            &[
                ("error", serde::Serialize::to_value(&e.to_string())),
                (
                    "path",
                    serde::Serialize::to_value(&path.unwrap_or("<stderr>").to_string()),
                ),
            ],
        );
    }
}

fn main() {
    // subcommand dispatch: `index build …` / `query-batch …` are the warm
    // serving paths; bare flags fall through to the classic one-shot solver
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("index") => {
            let rest = argv.get(2..).unwrap_or(&[]).to_vec();
            return match argv.get(1).map(String::as_str) {
                Some("build") => cmd_index_build(rest),
                Some("topup") => cmd_index_topup(rest),
                Some("compact") => cmd_index_compact(rest),
                _ => die(
                    "usage: cwelmax index build --graph EDGES --out STORE_DIR [--shards N] [...] \
                     | cwelmax index topup --store STORE_DIR --graph EDGES --theta N \
                     | cwelmax index compact --store STORE_DIR [--shards N]",
                ),
            };
        }
        Some("query-batch") => return cmd_query_batch(argv[1..].to_vec()),
        Some("serve") => return cmd_serve(argv[1..].to_vec()),
        _ => {}
    }
    let args = parse_args();
    if args.emit_example {
        // the paper's C1 configuration, ready to edit
        let model = configs::two_item_config(TwoItemConfig::C1);
        println!(
            "{}",
            serde_json::to_string_pretty(&model).expect("serializable")
        );
        return;
    }
    let graph_path = args
        .graph
        .as_deref()
        .unwrap_or_else(|| die("--graph is required"));
    let config_path = args
        .config
        .as_deref()
        .unwrap_or_else(|| die("--config is required"));
    if args.budgets.is_empty() {
        die("--budgets is required");
    }

    let graph = graph_io::read_edge_list_file(graph_path, ProbabilityModel::WeightedCascade)
        .unwrap_or_else(|e| die(&format!("cannot read graph: {e}")));
    let model: UtilityModel = serde_json::from_str(
        &std::fs::read_to_string(config_path)
            .unwrap_or_else(|e| die(&format!("cannot read config: {e}"))),
    )
    .unwrap_or_else(|e| die(&format!("bad model JSON: {e}")));
    if args.budgets.len() != model.num_items() {
        die(&format!(
            "budgets ({}) must match the model's item count ({})",
            args.budgets.len(),
            model.num_items()
        ));
    }
    let fixed = match &args.fixed {
        None => Allocation::new(),
        Some(path) => {
            let pairs: Vec<(u32, usize)> = serde_json::from_str(
                &std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read fixed allocation: {e}"))),
            )
            .unwrap_or_else(|e| die(&format!("bad fixed-allocation JSON: {e}")));
            Allocation::from_pairs(pairs)
        }
    };

    let problem = Problem::new(graph, model)
        .with_budgets(args.budgets.clone())
        .with_fixed_allocation(fixed)
        .with_sim(SimulationConfig {
            samples: args.samples,
            threads: 0,
            base_seed: args.seed,
        })
        .with_imm(ImmParams {
            eps: args.eps,
            ell: 1.0,
            seed: args.seed,
            threads: 0,
            max_rr_sets: 50_000_000,
        });

    let solution = match args.algorithm.as_str() {
        "seqgrd" => SeqGrd::new(SeqGrdMode::Marginal).solve(&problem),
        "seqgrd-nm" => SeqGrd::new(SeqGrdMode::NoMarginal).solve(&problem),
        "maxgrd" => MaxGrd.solve(&problem),
        "supgrd" => {
            if let Err(issues) = SupGrd::check_conditions(&problem) {
                eprintln!("warning: SupGRD conditions violated (bound forfeited):");
                for i in &issues {
                    eprintln!("  - {i}");
                }
            }
            SupGrd.solve(&problem)
        }
        "best-of" => best_of(&problem, SeqGrd::new(SeqGrdMode::Marginal)),
        "tcim" => Tcim.solve(&problem),
        "round-robin" => RoundRobin.solve(&problem),
        "snake" => Snake.solve(&problem),
        other => die(&format!("unknown algorithm `{other}`")),
    };

    let report = problem.evaluate_report(&solution.allocation);
    if args.json {
        let out = serde_json::json!({
            "algorithm": solution.algorithm,
            "allocation": solution.allocation.pairs(),
            "welfare": report.welfare,
            "adoption_counts": report.adoption_counts,
            "total_adopters": report.total_adopters,
            "solve_seconds": solution.elapsed.as_secs_f64(),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&out).expect("serializable")
        );
    } else {
        println!("algorithm: {}", solution.algorithm);
        println!("solve time: {:?}", solution.elapsed);
        println!("welfare (±MC noise): {:.2}", report.welfare);
        for (i, c) in report.adoption_counts.iter().enumerate() {
            println!(
                "  item {i}: {} seeds, {c:.1} expected adopters",
                solution.allocation.seeds_of(i).len()
            );
        }
        println!("allocation: {:?}", solution.allocation.pairs());
    }
}
