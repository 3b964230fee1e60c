//! End-to-end tests for `CampaignServer`: real TCP connections against a
//! real engine on a small deterministic graph.

use cwelmax_engine::wire::Protocol;
use cwelmax_engine::{CampaignEngine, EngineBuilder, RrIndex};
use cwelmax_graph::{generators, ProbabilityModel};
use cwelmax_rrset::ImmParams;
use cwelmax_server::{CampaignServer, ServerHandle};
use cwelmax_store::FromStore;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A small warm engine: 100-node Erdős–Rényi graph, budget cap 8.
fn engine() -> Arc<CampaignEngine> {
    let graph = Arc::new(generators::erdos_renyi(
        100,
        400,
        7,
        ProbabilityModel::WeightedCascade,
    ));
    let params = ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 7,
        threads: 2,
        max_rr_sets: 500_000,
    };
    let index = Arc::new(RrIndex::build(&graph, 8, &params));
    Arc::new(
        EngineBuilder::from_index(index)
            .graph(graph)
            .build()
            .unwrap(),
    )
}

/// Start a server on an ephemeral loopback port; returns the handle and
/// the thread running `run()`.
fn start(engine: Arc<CampaignEngine>) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = CampaignServer::bind(engine, "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join)
}

/// One client connection with line-oriented send/receive.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed the connection unexpectedly");
        serde_json::from_str(&line).expect("response is valid JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }

    /// Probe for a line the server pushed *unprompted* (the busy refusal
    /// is written at accept time): returns it, or `None` if nothing
    /// arrives within a grace window — an admitted connection stays
    /// silent until queried.
    fn try_recv_refusal(&mut self) -> Option<Value> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(std::time::Duration::from_millis(150)))
            .unwrap();
        let mut line = String::new();
        let got = match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(serde_json::from_str(&line).expect("response is valid JSON")),
            _ => None,
        };
        self.reader.get_ref().set_read_timeout(None).unwrap();
        got
    }
}

fn ok(v: &Value) -> bool {
    v.as_object().unwrap().get("ok") == Some(&Value::Bool(true))
}

/// A parsed JSON number as u64 (the shim parses literals as `Int`, the
/// wire emits `UInt`; responses that round-tripped compare numerically).
fn uint(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::UInt(x)) => Some(*x),
        Some(Value::Int(x)) if *x >= 0 => Some(*x as u64),
        _ => None,
    }
}

fn error_text(v: &Value) -> String {
    match v.as_object().unwrap().get("error") {
        Some(Value::String(s)) => s.clone(),
        other => panic!("expected error string, got {other:?}"),
    }
}

const Q1: &str = r#"{"config": "C1", "budgets": [3, 3], "algorithm": "seqgrd-nm", "samples": 100}"#;
const Q2: &str = r#"{"config": "C2", "budgets": [2, 2], "algorithm": "maxgrd", "samples": 100}"#;

#[test]
fn answers_match_direct_engine_queries_byte_identically() {
    // the server must be a transparent transport: its allocation JSON is
    // exactly what the engine (and hence `query-batch`) produces for the
    // same wire query
    let eng = engine();
    let (handle, join) = start(eng.clone());
    let mut c = Client::connect(&handle);
    for q in [Q1, Q2] {
        let response = c.roundtrip(q);
        assert!(ok(&response), "query failed: {response:?}");
        let parsed =
            cwelmax_engine::wire::parse_query(&serde_json::from_str::<Value>(q).unwrap()).unwrap();
        let direct = eng.query(&parsed).unwrap();
        let direct_json = serde_json::to_string(&cwelmax_engine::wire::answer_response(
            &direct,
            Protocol::V1,
        ))
        .unwrap();
        let got = response.as_object().unwrap();
        let want: Value = serde_json::from_str(&direct_json).unwrap();
        let want = want.as_object().unwrap();
        assert_eq!(got.get("allocation"), want.get("allocation"));
        assert_eq!(got.get("algorithm"), want.get("algorithm"));
        assert_eq!(got.get("welfare"), want.get("welfare"));
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_clients_get_correct_independent_answers() {
    let eng = engine();
    // reference answers straight from the engine
    let parse = |q: &str| {
        cwelmax_engine::wire::parse_query(&serde_json::from_str::<Value>(q).unwrap()).unwrap()
    };
    let want1 = eng.query(&parse(Q1)).unwrap().allocation;
    let want2 = eng.query(&parse(Q2)).unwrap().allocation;
    let want1 = serde_json::to_string(&want1.pairs()).unwrap();
    let want2 = serde_json::to_string(&want2.pairs()).unwrap();

    let (handle, join) = start(eng);
    let workers: Vec<_> = (0..8)
        .map(|k| {
            let handle = handle.clone();
            let (q, want) = if k % 2 == 0 {
                (Q1, want1.clone())
            } else {
                (Q2, want2.clone())
            };
            std::thread::spawn(move || {
                let mut c = Client::connect(&handle);
                for _ in 0..5 {
                    let response = c.roundtrip(q);
                    assert!(ok(&response), "{response:?}");
                    let alloc = response.as_object().unwrap().get("allocation").unwrap();
                    assert_eq!(serde_json::to_string(alloc).unwrap(), want);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.queries, 40);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.connections, 8);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn malformed_requests_get_error_responses_and_the_connection_survives() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);

    // malformed JSON
    let r = c.roundtrip("this is { not json");
    assert!(!ok(&r));
    assert!(error_text(&r).contains("bad request JSON"), "{r:?}");

    // unknown algorithm
    let r = c.roundtrip(r#"{"config": "C1", "budgets": [2, 2], "algorithm": "quantum"}"#);
    assert!(!ok(&r));
    assert!(error_text(&r).contains("unknown algorithm"), "{r:?}");

    // budget-length mismatch (C1 is a two-item model) — rejected by the
    // engine, answered as an error, connection still alive
    let r = c.roundtrip(r#"{"config": "C1", "budgets": [2, 2, 2], "samples": 50}"#);
    assert!(!ok(&r));
    assert!(error_text(&r).contains("budgets"), "{r:?}");

    // budget above the index cap
    let r = c.roundtrip(r#"{"config": "C1", "budgets": [50, 50], "samples": 50}"#);
    assert!(!ok(&r));
    assert!(error_text(&r).contains("budget-cap"), "{r:?}");

    // ...and the same connection still answers real queries afterwards
    let r = c.roundtrip(Q1);
    assert!(ok(&r), "{r:?}");

    let stats = handle.stats();
    assert_eq!(stats.errors, 4);
    assert_eq!(stats.queries, 1);
    assert_eq!(stats.requests, 5);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_line_past_the_cap_is_refused_and_the_connection_closed() {
    use cwelmax_server::MAX_REQUEST_LINE_BYTES as CAP;
    let (handle, join) = start(engine());
    let bytes_read = || handle.metrics().snapshot().counters["server.bytes_read"];

    // a request of exactly the cap (newline not counted) is still served
    let mut c = Client::connect(&handle);
    let head = r#"{"config": "C1", "budgets": [3, 3], "samples": 100, "pad": ""#;
    let line = format!("{head}{}\"}}", "x".repeat(CAP - head.len() - 2));
    assert_eq!(line.len(), CAP);
    assert!(ok(&c.roundtrip(&line)));
    assert_eq!(bytes_read(), CAP as u64 + 1);
    drop(c);

    // a peer streaming newline-free bytes past the cap gets one error
    // line and an EOF; the server stopped buffering at cap + 1 bytes
    let mut c = Client::connect(&handle);
    let chunk = vec![b'x'; 64 << 10];
    for _ in 0..CAP / chunk.len() + 1 {
        c.writer.write_all(&chunk).unwrap();
    }
    let r = c.recv();
    assert!(!ok(&r));
    assert!(error_text(&r).contains("exceeds"), "{r:?}");
    let mut rest = String::new();
    assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0, "must be closed");
    assert_eq!(bytes_read(), 2 * (CAP as u64 + 1));

    // the next connection is served normally
    let mut c = Client::connect(&handle);
    assert!(ok(&c.roundtrip(Q1)));
    let stats = handle.stats();
    assert_eq!((stats.requests, stats.queries, stats.errors), (3, 2, 1));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn warm_repeat_query_is_served_from_cache() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    let a1 = c.roundtrip(Q1);
    let a2 = c.roundtrip(Q1);
    assert!(ok(&a1) && ok(&a2));
    // identical answers...
    assert_eq!(
        a1.as_object().unwrap().get("allocation"),
        a2.as_object().unwrap().get("allocation")
    );
    assert_eq!(
        a1.as_object().unwrap().get("welfare"),
        a2.as_object().unwrap().get("welfare")
    );
    // ...and the stats request proves the repeat hit the welfare cache
    let stats = c.roundtrip(r#"{"type": "stats"}"#);
    assert!(ok(&stats));
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert_eq!(engine_stats["welfare_evals"], Value::Int(2));
    assert_eq!(engine_stats["welfare_cache_hits"], Value::Int(1));
    let server_stats = stats.as_object().unwrap()["server"].as_object().unwrap();
    assert_eq!(server_stats["queries"], Value::Int(2));
    handle.shutdown();
    join.join().unwrap();
}

/// `answer` minus the one field that times the request.
fn without_elapsed(answer: &Value) -> Value {
    let mut fields = answer.as_object().unwrap().clone();
    assert!(fields.remove("elapsed_seconds").is_some());
    Value::Object(fields)
}

#[test]
fn a_repeated_full_solver_query_simulates_nothing() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    let counter = |name: &str| {
        let snap = handle.metrics().snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    };
    let line = |algorithm: &str| {
        format!(
            r#"{{"config": "C3", "budgets": [3, 2], "algorithm": "{algorithm}", "samples": 100}}"#
        )
    };
    // cold, on two items, nothing postponed: SeqGRD simulates its first
    // candidate and its final allocation and nothing else — the empty
    // base is no pass, the second base is the first candidate's record,
    // the answer's welfare the second candidate's
    let first = c.roundtrip(&line("seqgrd"));
    assert!(ok(&first), "{first:?}");
    let allocated = first.as_object().unwrap()["allocation"].as_array().unwrap();
    assert_eq!(allocated.len(), 5, "both items placed: {first:?}");
    assert_eq!(counter("engine.sim_worlds"), 2 * 100);
    assert_eq!(counter("engine.welfare_cache_misses"), 3);
    assert_eq!(counter("engine.world_record_hits"), 2);

    for algorithm in ["seqgrd", "maxgrd", "best-of"] {
        let cold = c.roundtrip(&line(algorithm));
        let before = (
            counter("engine.welfare_cache_misses"),
            counter("engine.sim_worlds"),
            counter("engine.queries"),
        );
        let warm = c.roundtrip(&line(algorithm));
        assert!(ok(&warm), "{warm:?}");
        assert_eq!(
            without_elapsed(&warm),
            without_elapsed(&cold),
            "{algorithm}"
        );
        assert_eq!(
            (
                counter("engine.welfare_cache_misses"),
                counter("engine.sim_worlds"),
                counter("engine.queries"),
            ),
            (before.0, before.1, before.2 + 1),
            "{algorithm}: a byte-identical repeat is cache hits from end to end"
        );
    }
    // best-of after SeqGRD and MaxGRD asked nothing new either
    assert_eq!(counter("engine.sim_worlds"), 3 * 100);

    // so a batch of warm full-solver entries is answered on the
    // connection's thread, whatever the core count
    let batch = format!(
        r#"{{"type": "batch", "queries": [{}, {}, {}]}}"#,
        line("seqgrd"),
        line("best-of"),
        line("maxgrd")
    );
    let r = c.roundtrip(&batch);
    assert!(ok(&r), "{r:?}");
    assert_eq!(counter("engine.batch_workers"), 0);
    assert_eq!(counter("engine.sim_worlds"), 3 * 100);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_deferred_probe_leaves_nothing_behind() {
    // MaxGRD caches both single-item marginals; SeqGRD on the same
    // campaign then *hits* on its first marginal and misses on its
    // second, so a batch's probe of it defers after a hit. Whatever the
    // probe tallied must be gone: the batch has to leave exactly the
    // counters, samples and spans of the same entries asked one by one.
    let maxgrd = r#"{"config": "C3", "budgets": [3, 2], "algorithm": "maxgrd", "samples": 100}"#;
    let seqgrd = r#"{"config": "C3", "budgets": [3, 2], "algorithm": "seqgrd", "samples": 100}"#;
    let novel = r#"{"config": "C1", "budgets": [2, 2], "samples": 100, "seed": 41}"#;
    let state = |handle: &ServerHandle| {
        let snap = handle.metrics().snapshot();
        let engine: Vec<(String, u64)> = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("engine.") && *name != "engine.batch_workers")
            .map(|(name, n)| (name.clone(), *n))
            .collect();
        (engine, snap.histograms["engine.query_ns"].count)
    };

    let (serial, serial_join) = start(engine());
    let mut c = Client::connect(&serial);
    for line in [maxgrd, seqgrd, novel] {
        assert!(ok(&c.roundtrip(line)));
    }
    let want = state(&serial);
    serial.shutdown();
    serial_join.join().unwrap();

    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    assert!(ok(&c.roundtrip(maxgrd)));
    let r = c.roundtrip(&format!(
        r#"{{"v": 2, "trace": "d0", "type": "batch", "queries": [{seqgrd}, {novel}]}}"#
    ));
    assert!(ok(&r), "{r:?}");
    assert_eq!(state(&handle), want);

    let resp = c.roundtrip(r#"{"v": 2, "type": "traces"}"#);
    let arr = resp.as_object().unwrap()["traces"].as_array().unwrap();
    let trace = cwelmax_obs::Trace::from_value(&arr[0]).unwrap();
    assert_eq!(trace.spans.len(), 1, "no orphaned probe span: {trace:?}");
    let engine_batch = trace.find_span("engine.batch").unwrap();
    assert_eq!(engine_batch.children.len(), 2, "one engine.query per entry");
    let evaluations = |query: &cwelmax_obs::SpanNode| -> Vec<(bool, u64)> {
        query
            .children
            .iter()
            .filter(|s| s.name == "engine.welfare")
            .map(|s| {
                let attr = |key: &str| s.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                match (attr("cache_hit"), attr("worlds")) {
                    (
                        Some(cwelmax_obs::AttrValue::Bool(hit)),
                        Some(cwelmax_obs::AttrValue::U64(worlds)),
                    ) => (*hit, *worlds),
                    other => panic!("engine.welfare attrs: {other:?}"),
                }
            })
            .collect()
    };
    let mut per_query: Vec<_> = engine_batch.children.iter().map(evaluations).collect();
    per_query.sort();
    assert_eq!(
        per_query,
        [
            // SeqGRD-NM at a novel seed: one evaluation, one pass
            vec![(false, 100)],
            // SeqGRD: the first marginal is MaxGRD's, from the cache; the
            // second needs both of its records — the base's was never
            // made in this query — so two passes; the answer's welfare
            // folds the record the second marginal made
            vec![(true, 0), (false, 200), (false, 0)],
        ]
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn ids_are_echoed_for_pipelined_clients() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    // pipeline two requests before reading anything; ids disambiguate
    c.send(r#"{"type": "query", "id": "first", "config": "C1", "budgets": [2, 2], "samples": 50}"#);
    c.send(
        r#"{"type": "query", "id": "second", "config": "C2", "budgets": [2, 2], "samples": 50}"#,
    );
    let r1 = c.recv();
    let r2 = c.recv();
    assert_eq!(
        r1.as_object().unwrap().get("id"),
        Some(&Value::String("first".into()))
    );
    assert_eq!(
        r2.as_object().unwrap().get("id"),
        Some(&Value::String("second".into()))
    );
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn batch_envelope_answers_all_queries_on_one_line() {
    let eng = engine();
    // reference answers straight from the engine for the two valid entries
    let parse = |q: &str| {
        cwelmax_engine::wire::parse_query(&serde_json::from_str::<Value>(q).unwrap()).unwrap()
    };
    let want1 = eng.query(&parse(Q1)).unwrap();
    let want2 = eng.query(&parse(Q2)).unwrap();

    let (handle, join) = start(eng);
    let mut c = Client::connect(&handle);
    let line =
        format!(r#"{{"type": "batch", "id": 11, "queries": [{Q1}, {{"budgets": [1]}}, {Q2}]}}"#);
    let r = c.roundtrip(&line);
    assert!(ok(&r), "{r:?}");
    let obj = r.as_object().unwrap();
    assert_eq!(obj.get("id"), Some(&Value::Int(11)));
    let answers = obj.get("answers").unwrap().as_array().unwrap();
    assert_eq!(answers.len(), 3);
    // positional: entry 1 is the parse error, 0 and 2 match direct answers
    for (k, want) in [(0usize, &want1), (2, &want2)] {
        let a = answers[k].as_object().unwrap();
        assert_eq!(a.get("ok"), Some(&Value::Bool(true)), "entry {k}");
        let direct = cwelmax_engine::wire::answer_response(want, Protocol::V1);
        assert_eq!(
            a.get("allocation"),
            direct.as_object().unwrap().get("allocation")
        );
        assert_eq!(a.get("welfare"), direct.as_object().unwrap().get("welfare"));
    }
    let e = answers[1].as_object().unwrap();
    assert_eq!(e.get("ok"), Some(&Value::Bool(false)));
    assert!(error_text(&answers[1]).contains("query 1"), "{e:?}");
    // the whole batch was one request but counted per-entry
    let stats = handle.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.errors, 1);
    // both were answered above, so every evaluation of Q1 and of Q2 —
    // MaxGRD's two marginals included — is cached: answered inline
    let workers = || handle.metrics().snapshot().counters["engine.batch_workers"];
    assert_eq!(workers(), 0);

    // a mixed batch answers entry for entry what the same lines answer
    // one at a time: warm hits (MaxGRD among them), a Monte-Carlo seed
    // nobody has asked, an uncached SP, a line that does not parse and a
    // query the engine rejects
    let entries = [
        Q1.to_string(),
        r#"{"config": "C1", "budgets": [3, 3], "samples": 100, "seed": 99}"#.to_string(),
        Q2.to_string(),
        r#"{"config": "C3", "budgets": [2, 2], "sp": [[5, 1]], "samples": 100}"#.to_string(),
        r#"{"config": "C7", "budgets": [1, 1]}"#.to_string(),
        r#"{"config": "C1", "budgets": [50, 50], "samples": 50}"#.to_string(),
        Q1.to_string(),
    ];
    let r = c.roundtrip(&format!(
        r#"{{"type": "batch", "queries": [{}]}}"#,
        entries.join(", ")
    ));
    assert!(ok(&r), "{r:?}");
    // a residue of two (novel seed, uncached SP): one worker each, or
    // inline on a single core
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(workers(), if cores == 1 { 0 } else { 2 });
    let answers = r.as_object().unwrap()["answers"].as_array().unwrap();
    assert_eq!(answers.len(), entries.len());
    for (k, (entry, got)) in entries.iter().zip(answers).enumerate() {
        let single = c.roundtrip(entry);
        let (single, got) = (single.as_object().unwrap(), got.as_object().unwrap());
        for field in ["ok", "algorithm", "allocation", "sp", "welfare"] {
            assert_eq!(got.get(field), single.get(field), "entry {k}: {field}");
        }
        if k == 4 {
            // only the batch names the position of a line it could not parse
            assert!(error_text(&answers[k]).contains("query 4: unknown named config"));
        } else {
            assert_eq!(got.get("error"), single.get("error"), "entry {k}");
        }
    }
    assert!(error_text(&answers[5]).contains("budget-cap"));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn connections_above_max_conns_get_a_busy_refusal() {
    let server = CampaignServer::bind(engine(), "127.0.0.1:0")
        .unwrap()
        .with_max_conns(2);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    // two admitted connections, proven live with a real round-trip each
    let mut a = Client::connect(&handle);
    let mut b = Client::connect(&handle);
    assert!(ok(&a.roundtrip(Q1)));
    assert!(ok(&b.roundtrip(Q2)));

    // the third gets one clean JSON refusal and then EOF
    let mut c = Client::connect(&handle);
    let refusal = c.recv();
    assert!(!ok(&refusal));
    assert!(error_text(&refusal).contains("server busy"), "{refusal:?}");
    // the refusal carries a machine-readable back-off hint
    assert_eq!(
        uint(refusal.as_object().unwrap().get("retry_after_ms")),
        Some(cwelmax_server::BUSY_RETRY_AFTER_MS),
        "{refusal:?}"
    );
    let mut line = String::new();
    assert_eq!(c.reader.read_line(&mut line).unwrap(), 0, "must be closed");

    // the admitted connections keep serving...
    assert!(ok(&a.roundtrip(Q1)));
    let stats = handle.stats();
    assert_eq!(stats.busy_rejections, 1);
    assert_eq!(stats.connections, 2);

    // ...and closing one frees a slot for a new client
    drop(b);
    let mut d = loop {
        // the server prunes the slot when its reader thread unwinds;
        // retry until admission succeeds
        let mut d = Client::connect(&handle);
        match d.try_recv_refusal() {
            None => break d,
            Some(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    };
    assert!(ok(&d.roundtrip(Q2)));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn followup_queries_are_served_warm_and_match_fresh_semantics() {
    let eng = engine();
    let (handle, join) = start(eng.clone());
    let mut c = Client::connect(&handle);

    // fresh query, then an SP-conditioned follow-up twice: the second
    // follow-up must hit the conditioned-view cache (asserted via stats)
    let fresh = c.roundtrip(Q1);
    assert!(ok(&fresh), "{fresh:?}");
    let sp_q = r#"{"config": "C1", "budgets": [3, 3], "sp": [[0, 1], [17, 1]], "samples": 100}"#;
    let f1 = c.roundtrip(sp_q);
    let f2 = c.roundtrip(sp_q);
    assert!(ok(&f1) && ok(&f2), "{f1:?} / {f2:?}");
    // identical answers modulo wall-clock time
    for key in ["algorithm", "allocation", "sp", "welfare"] {
        assert_eq!(
            f1.as_object().unwrap().get(key),
            f2.as_object().unwrap().get(key),
            "follow-up repeat diverged on {key}"
        );
    }
    // the response echoes the conditioning allocation
    assert_eq!(
        serde_json::to_string(f1.as_object().unwrap().get("sp").unwrap()).unwrap(),
        "[[0,1],[17,1]]"
    );
    // item 1 is fixed in SP, so only item 0 gets new seeds
    let alloc = f1.as_object().unwrap()["allocation"].as_array().unwrap();
    assert_eq!(alloc.len(), 3);
    for pair in alloc {
        assert_eq!(pair.as_array().unwrap()[1], Value::Int(0));
    }
    // byte-identical to a direct engine answer for the same wire query
    let parsed =
        cwelmax_engine::wire::parse_query(&serde_json::from_str::<Value>(sp_q).unwrap()).unwrap();
    let direct = cwelmax_engine::wire::answer_response(&eng.query(&parsed).unwrap(), Protocol::V1);
    assert_eq!(
        f1.as_object().unwrap().get("allocation"),
        direct.as_object().unwrap().get("allocation")
    );
    assert_eq!(
        f1.as_object().unwrap().get("welfare"),
        direct.as_object().unwrap().get("welfare")
    );

    let stats = c.roundtrip(r#"{"type": "stats"}"#);
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert_eq!(
        engine_stats["conditioned_views"],
        Value::Int(1),
        "one view derivation serves every same-SP follow-up"
    );
    // two server repeats + one direct engine call above = two cache hits
    assert_eq!(engine_stats["conditioned_hits"], Value::Int(2));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn store_backed_server_loads_shards_lazily_and_reports_it_in_stats() {
    // the sharded-store serving path, end to end over real TCP: bind an
    // engine whose backend is a lazily loaded store, answer a fresh
    // campaign having loaded *zero* shards (the manifest's persisted
    // pool serves it), then watch a follow-up fault every shard in — all
    // observable through the new store-level stats fields
    let graph = Arc::new(generators::erdos_renyi(
        100,
        400,
        7,
        ProbabilityModel::WeightedCascade,
    ));
    let params = ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 7,
        threads: 2,
        max_rr_sets: 500_000,
    };
    let index = RrIndex::build(&graph, 8, &params);
    let dir = std::env::temp_dir().join(format!("cwelmax-server-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cwelmax_store::write_store(&index, &dir, 6).unwrap();
    let eng = Arc::new(
        EngineBuilder::from_journaled_store(&dir)
            .graph(graph.clone())
            .build()
            .unwrap(),
    );
    // reference answers from a monolithic-index engine over the same data
    let mono = EngineBuilder::from_index(Arc::new(index))
        .graph(graph)
        .build()
        .unwrap();

    let (handle, join) = start(eng);
    let mut c = Client::connect(&handle);

    // a fresh single-campaign query touches only the shards it needs: none
    let fresh = c.roundtrip(Q1);
    assert!(ok(&fresh), "{fresh:?}");
    let parse = |q: &str| {
        cwelmax_engine::wire::parse_query(&serde_json::from_str::<Value>(q).unwrap()).unwrap()
    };
    let direct =
        cwelmax_engine::wire::answer_response(&mono.query(&parse(Q1)).unwrap(), Protocol::V1);
    assert_eq!(
        fresh.as_object().unwrap().get("allocation"),
        direct.as_object().unwrap().get("allocation"),
        "store-backed answer must be byte-identical to the monolithic one"
    );
    let stats = c.roundtrip(r#"{"type": "stats"}"#);
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert_eq!(engine_stats["shards_total"], Value::Int(6));
    assert_eq!(
        engine_stats["shards_loaded"],
        Value::Int(0),
        "a fresh campaign is served from the manifest pool: fewer shards \
         loaded than exist — zero, in fact"
    );
    let on_disk = match engine_stats["store_bytes_on_disk"] {
        Value::Int(b) => b,
        Value::UInt(b) => b as i64,
        ref other => panic!("store_bytes_on_disk not a number: {other:?}"),
    };
    assert!(on_disk > 0, "the store footprint is reported");

    // the first SP-conditioned follow-up filters every shard → all loaded
    let sp_q = r#"{"config": "C1", "budgets": [3, 3], "sp": [[0, 1], [17, 1]], "samples": 100}"#;
    let follow = c.roundtrip(sp_q);
    assert!(ok(&follow), "{follow:?}");
    let direct =
        cwelmax_engine::wire::answer_response(&mono.query(&parse(sp_q)).unwrap(), Protocol::V1);
    assert_eq!(
        follow.as_object().unwrap().get("allocation"),
        direct.as_object().unwrap().get("allocation")
    );
    assert_eq!(
        follow.as_object().unwrap().get("welfare"),
        direct.as_object().unwrap().get("welfare")
    );
    let stats = c.roundtrip(r#"{"type": "stats"}"#);
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert_eq!(engine_stats["shards_loaded"], Value::Int(6));

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topup_request_grows_theta_live_and_reports_journal_stats() {
    // live index mutation over the wire: a journaled-store-backed server
    // accepts {"v": 2, "type": "topup"}, grows θ without a restart, and
    // surfaces the journal counters in v2 stats (v1 stats stay pinned)
    let graph = Arc::new(generators::erdos_renyi(
        100,
        400,
        7,
        ProbabilityModel::WeightedCascade,
    ));
    let params = ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 7,
        threads: 2,
        max_rr_sets: 500_000,
    };
    let index = RrIndex::build(&graph, 8, &params);
    let theta0 = index.num_sampled();
    let dir = std::env::temp_dir().join(format!("cwelmax-server-topup-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cwelmax_store::write_store(&index, &dir, 4).unwrap();
    let store = Arc::new(cwelmax_store::JournaledStore::open(&dir).unwrap());
    let eng = Arc::new(
        EngineBuilder::from_backend(store)
            .graph(graph)
            .build()
            .unwrap(),
    );
    let (handle, join) = start(eng);
    let mut c = Client::connect(&handle);

    // hello advertises the capability, appended last
    let hello = c.roundtrip(r#"{"v": 2, "type": "hello"}"#);
    let features = hello.as_object().unwrap()["features"].as_array().unwrap();
    assert_eq!(features.last().and_then(|f| f.as_str()), Some("topup"));

    // v2 stats before: a journaled backend with an empty journal
    let stats = c.roundtrip(r#"{"v": 2, "type": "stats"}"#);
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert_eq!(uint(engine_stats.get("journal_records")), Some(0));
    assert_eq!(uint(engine_stats.get("topups_total")), Some(0));

    // grow θ live; the response reports the resulting population
    let target = theta0 + 400;
    let grown = c.roundtrip(&format!(
        r#"{{"v": 2, "type": "topup", "theta": {target}}}"#
    ));
    assert!(ok(&grown), "{grown:?}");
    assert_eq!(
        uint(grown.as_object().unwrap().get("theta")),
        Some(target as u64)
    );
    // an already-satisfied target is a cheap no-op, not an error
    let noop = c.roundtrip(r#"{"v": 2, "type": "topup", "theta": 1}"#);
    assert!(ok(&noop), "{noop:?}");
    assert_eq!(
        uint(noop.as_object().unwrap().get("theta")),
        Some(target as u64)
    );

    // v2 stats after: one journal record, one top-up, bytes on disk
    let stats = c.roundtrip(r#"{"v": 2, "type": "stats"}"#);
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert_eq!(uint(engine_stats.get("journal_records")), Some(1));
    assert_eq!(uint(engine_stats.get("topups_total")), Some(1));
    assert!(uint(engine_stats.get("journal_bytes")).unwrap() > 0);

    // the v1 stats block is byte-pinned: no journal keys leak into it
    let stats = c.roundtrip(r#"{"type": "stats"}"#);
    let engine_stats = stats.as_object().unwrap()["engine"].as_object().unwrap();
    assert!(engine_stats.get("journal_records").is_none());
    assert!(engine_stats.get("topups_total").is_none());

    // topup does not exist in the v1 dialect — exact legacy error bytes
    c.send(r#"{"type": "topup", "theta": 5}"#);
    let mut line = String::new();
    c.reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        r#"{"error":"unknown request type `topup`","ok":false}"#
    );

    // the grown index keeps answering queries on the same connection
    assert!(ok(&c.roundtrip(Q1)));
    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_transcript_replays_byte_identically_against_the_v2_server() {
    // the compatibility acceptance bar: a recorded v1 session (the lines
    // this suite has always sent) replayed against the v2-speaking
    // server yields byte-identical response lines — no `v` key, error
    // strings verbatim, answers exactly `wire::answer_response` v1 bytes
    let eng = engine();
    let (handle, join) = start(eng.clone());
    let mut c = Client::connect(&handle);
    let parse = |q: &str| {
        cwelmax_engine::wire::parse_query(&serde_json::from_str::<Value>(q).unwrap()).unwrap()
    };

    // deterministic answers: expected line = the v1 encoder over the
    // direct engine answer
    for q in [Q1, Q2] {
        c.send(q);
        let mut line = String::new();
        c.reader.read_line(&mut line).unwrap();
        let direct = eng.query(&parse(q)).unwrap();
        let want = cwelmax_engine::wire::to_line(&cwelmax_engine::wire::answer_response(
            &direct,
            Protocol::V1,
        ));
        // elapsed_seconds differs per run; compare with it normalized
        let strip = |s: &str| {
            let v: Value = serde_json::from_str(s).unwrap();
            let mut m = v.as_object().unwrap().clone();
            m.remove("elapsed_seconds").expect("elapsed present");
            serde_json::to_string(&Value::Object(m)).unwrap()
        };
        assert_eq!(strip(line.trim_end()), strip(&want), "for {q}");
        assert!(
            !line.contains("\"v\""),
            "v1 response must carry no v: {line}"
        );
    }

    // deterministic error lines, pinned to the exact historical bytes
    for (request, want) in [
        (
            "this is { not json",
            r#"{"error":"bad request JSON: expected value at byte 0","ok":false}"#,
        ),
        (
            r#"{"budgets": [1, 1]}"#,
            r#"{"error":"`config` is required","ok":false}"#,
        ),
        (
            r#"{"type": "hello"}"#,
            r#"{"error":"unknown request type `hello`","ok":false}"#,
        ),
        (
            r#"{"config": "C1", "budgets": [2, 2], "algorithm": "quantum"}"#,
            r#"{"error":"unknown algorithm `quantum`","ok":false}"#,
        ),
    ] {
        let mut line = String::new();
        c.send(request);
        c.reader.read_line(&mut line).unwrap();
        // `bad request JSON` detail wording comes from the JSON shim;
        // pin the stable prefix instead of the parser's message tail
        if request.starts_with("this") {
            assert!(
                line.trim_end()
                    .starts_with(r#"{"error":"bad request JSON:"#),
                "{line}"
            );
            assert!(line.trim_end().ends_with(r#"","ok":false}"#), "{line}");
            let _ = want;
        } else {
            assert_eq!(line.trim_end(), want, "for {request}");
        }
    }

    // the shutdown acknowledgement is bit-stable too
    c.send(r#"{"type": "shutdown", "id": 5}"#);
    let mut line = String::new();
    c.reader.read_line(&mut line).unwrap();
    assert_eq!(
        line.trim_end(),
        r#"{"id":5,"ok":true,"shutting_down":true}"#
    );
    join.join().unwrap();
}

#[test]
fn v2_session_negotiates_and_speaks_structured_versioned_responses() {
    let eng = engine();
    let (handle, join) = start(eng.clone());
    let mut c = Client::connect(&handle);

    // hello: protocol, features, server version
    let hello = c.roundtrip(r#"{"v": 2, "type": "hello"}"#);
    assert!(ok(&hello), "{hello:?}");
    let obj = hello.as_object().unwrap();
    assert_eq!(uint(obj.get("v")), Some(2));
    assert_eq!(uint(obj.get("protocol")), Some(2));
    let features = obj.get("features").unwrap().as_array().unwrap();
    for want in ["batch", "sp", "stats", "store"] {
        assert!(features.iter().any(|f| f.as_str() == Some(want)), "{want}");
    }

    // a v2 query answers with the same payload as v1 plus the version key
    let q2 = format!(r#"{{"v": 2, {}"#, &Q1[1..]);
    let versioned = c.roundtrip(&q2);
    assert!(ok(&versioned), "{versioned:?}");
    assert_eq!(uint(versioned.as_object().unwrap().get("v")), Some(2));
    let plain = c.roundtrip(Q1);
    for key in ["algorithm", "allocation", "welfare"] {
        assert_eq!(
            versioned.as_object().unwrap().get(key),
            plain.as_object().unwrap().get(key),
            "v1/v2 payload diverged on {key}"
        );
    }
    assert_eq!(plain.as_object().unwrap().get("v"), None);

    // engine refusals carry the stable structured triple
    let r = c.roundtrip(r#"{"v": 2, "config": "C1", "budgets": [50, 50]}"#);
    assert!(!ok(&r));
    let err = r
        .as_object()
        .unwrap()
        .get("error")
        .unwrap()
        .as_object()
        .unwrap();
    assert_eq!(uint(err.get("code")), Some(422));
    assert_eq!(err.get("kind"), Some(&Value::String("bad-query".into())));
    assert_eq!(err.get("retryable"), Some(&Value::Bool(false)));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("budget-cap"));

    // malformed batch entries keep their per-entry structured codes
    // inside the envelope: a parse failure (400) next to an engine
    // refusal (422) next to a success
    let batch = format!(
        r#"{{"v": 2, "type": "batch", "queries": [{{"budgets": [1]}}, {{"config": "C1", "budgets": [50, 50]}}, {Q1}]}}"#
    );
    let r = c.roundtrip(&batch);
    assert!(ok(&r), "{r:?}");
    assert_eq!(uint(r.as_object().unwrap().get("v")), Some(2));
    let answers = r
        .as_object()
        .unwrap()
        .get("answers")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(answers.len(), 3);
    let entry = |k: usize| answers[k].as_object().unwrap();
    let e0 = entry(0).get("error").unwrap().as_object().unwrap();
    assert_eq!(uint(e0.get("code")), Some(400));
    assert_eq!(e0.get("kind"), Some(&Value::String("bad-request".into())));
    assert!(e0
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("query 0"));
    let e1 = entry(1).get("error").unwrap().as_object().unwrap();
    assert_eq!(uint(e1.get("code")), Some(422));
    assert_eq!(e1.get("kind"), Some(&Value::String("bad-query".into())));
    assert_eq!(entry(2).get("ok"), Some(&Value::Bool(true)));

    // unsupported versions are refused with the taxonomy's 426
    let r = c.roundtrip(r#"{"v": 7, "type": "stats"}"#);
    assert!(!ok(&r));
    let err = r
        .as_object()
        .unwrap()
        .get("error")
        .unwrap()
        .as_object()
        .unwrap();
    assert_eq!(uint(err.get("code")), Some(426));
    assert_eq!(
        err.get("kind"),
        Some(&Value::String("unsupported-version".into()))
    );

    // stats and the shutdown ack are versioned as well
    let stats = c.roundtrip(r#"{"v": 2, "type": "stats"}"#);
    assert!(ok(&stats));
    assert_eq!(uint(stats.as_object().unwrap().get("v")), Some(2));
    let bye = c.roundtrip(r#"{"v": 2, "type": "shutdown"}"#);
    assert!(ok(&bye));
    assert_eq!(uint(bye.as_object().unwrap().get("v")), Some(2));
    join.join().unwrap();
}

#[test]
fn shutdown_request_stops_the_server_gracefully() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    assert!(ok(&c.roundtrip(Q1)));
    let bye = c.roundtrip(r#"{"type": "shutdown"}"#);
    assert!(ok(&bye));
    assert_eq!(
        bye.as_object().unwrap().get("shutting_down"),
        Some(&Value::Bool(true))
    );
    // run() returns; new connections are refused or closed immediately
    join.join().unwrap();
    let refused = match TcpStream::connect(handle.local_addr()) {
        Err(_) => true,
        Ok(s) => {
            // the listener socket is gone, so at best the OS accepts and
            // immediately resets; a read must yield EOF/error
            let mut r = BufReader::new(s);
            let mut line = String::new();
            matches!(r.read_line(&mut line), Ok(0) | Err(_))
        }
    };
    assert!(refused, "server still serving after shutdown");
}

// --------------------------------------------------------------- metrics

/// The `{"type": "metrics"}` scrape is the observability tentpole: one
/// v2 request must surface engine, store, and server instrumentation in
/// a single registry snapshot.
#[test]
fn metrics_scrape_covers_the_whole_stack_over_live_tcp() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);

    // hello advertises the feature before anyone relies on it
    let hello = c.roundtrip(r#"{"v": 2, "type": "hello"}"#);
    assert!(ok(&hello));
    let features = hello
        .as_object()
        .unwrap()
        .get("features")
        .unwrap()
        .as_array()
        .unwrap();
    assert!(
        features.contains(&Value::String("metrics".into())),
        "hello must advertise the metrics feature: {features:?}"
    );

    // generate traffic across request types: two identical queries (the
    // second hits the welfare cache) plus a batch
    assert!(ok(&c.roundtrip(Q1)));
    assert!(ok(&c.roundtrip(Q1)));
    let batch = format!(r#"{{"type": "batch", "queries": [{Q1}, {Q2}]}}"#);
    assert!(ok(&c.roundtrip(&batch)));

    let r = c.roundtrip(r#"{"v": 2, "type": "metrics"}"#);
    assert!(ok(&r), "metrics scrape failed: {r:?}");
    let obj = r.as_object().unwrap();
    assert_eq!(uint(obj.get("v")), Some(2));
    let snap = cwelmax_obs::Snapshot::from_value(obj.get("metrics").unwrap())
        .expect("metrics payload round-trips into a Snapshot");

    // server layer: accepts, per-type request latency
    assert_eq!(snap.counters["server.connections"], 1);
    assert!(snap.counters["server.requests_total"] >= 4);
    assert!(snap.histograms["server.request_ns.query"].count >= 2);
    assert_eq!(snap.histograms["server.request_ns.batch"].count, 1);
    assert_eq!(snap.histograms["server.request_ns.hello"].count, 1);

    // engine layer: query latency and welfare-cache hit/miss traffic
    assert!(snap.counters["engine.queries"] >= 2);
    assert!(snap.histograms["engine.query_ns"].count >= 2);
    assert!(snap.histograms["engine.query_ns"].sum > 0);
    assert!(snap.histograms["engine.batch_ns"].count >= 1);
    assert!(
        snap.counters["engine.welfare_cache_hits"] >= 1,
        "repeating an identical query must hit the welfare cache"
    );
    assert!(snap.counters["engine.welfare_cache_misses"] >= 1);

    handle.shutdown();
    join.join().unwrap();
}

/// v1 never learns new request types: `{"type": "metrics"}` without
/// `"v": 2` gets the exact legacy unknown-type error, and the v1 stats
/// body stays free of the new latency percentile fields.
#[test]
fn metrics_and_percentiles_stay_out_of_the_v1_dialect() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    assert!(ok(&c.roundtrip(Q1)));

    let r = c.roundtrip(r#"{"type": "metrics"}"#);
    assert!(!ok(&r));
    assert_eq!(error_text(&r), "unknown request type `metrics`");

    let v1 = c.roundtrip(r#"{"type": "stats"}"#);
    assert!(ok(&v1));
    let server = v1
        .as_object()
        .unwrap()
        .get("server")
        .unwrap()
        .as_object()
        .unwrap();
    assert!(server.get("mean_latency_seconds").is_some());
    assert!(
        server.get("latency_p50_ns").is_none(),
        "v1 stats bytes must not grow new fields"
    );

    handle.shutdown();
    join.join().unwrap();
}

/// v2 stats report histogram-backed latency percentiles that are
/// ordered and consistent with the recorded request traffic.
#[test]
fn v2_stats_report_ordered_latency_percentiles() {
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);
    for _ in 0..3 {
        assert!(ok(&c.roundtrip(Q1)));
    }
    let r = c.roundtrip(r#"{"v": 2, "type": "stats"}"#);
    assert!(ok(&r));
    let server = r
        .as_object()
        .unwrap()
        .get("server")
        .unwrap()
        .as_object()
        .unwrap();
    let p50 = uint(server.get("latency_p50_ns")).expect("v2 stats carry latency_p50_ns");
    let p99 = uint(server.get("latency_p99_ns")).expect("v2 stats carry latency_p99_ns");
    let max = uint(server.get("latency_max_ns")).expect("v2 stats carry latency_max_ns");
    assert!(p50 > 0, "three real queries cannot all take zero time");
    assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
    assert!(p99 <= max, "p99 {p99} must not exceed max {max}");
    assert_eq!(uint(server.get("requests")), Some(3));

    handle.shutdown();
    join.join().unwrap();
}

/// Connection lifecycle and error paths speak through the structured
/// logger: debug level shows conn_open/conn_closed NDJSON events with
/// correlating connection ids.
#[test]
fn structured_logger_traces_connection_lifecycle() {
    use std::sync::Mutex;

    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = Buf::default();
    let logger = Arc::new(cwelmax_obs::Logger::with_sink(
        cwelmax_obs::Level::Debug,
        Box::new(buf.clone()),
    ));
    // an aggressive slow-query threshold so real queries trip it
    logger.set_slow_query_ns(1);

    let server = CampaignServer::bind(engine(), "127.0.0.1:0")
        .unwrap()
        .with_logger(logger);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());

    let mut c = Client::connect(&handle);
    assert!(ok(&c.roundtrip(Q1)));
    drop(c); // EOF closes the connection
             // the worker thread logs conn_closed after the socket drops; give it
             // a moment before shutting down
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.shutdown();
    join.join().unwrap();

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let events: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every log line is valid JSON"))
        .collect();
    let with_event = |name: &str| -> Vec<&Value> {
        events
            .iter()
            .filter(|e| e.as_object().unwrap().get("event") == Some(&Value::String(name.into())))
            .collect()
    };
    let opens = with_event("conn_open");
    let closes = with_event("conn_closed");
    assert_eq!(opens.len(), 1, "one connection, one conn_open: {text}");
    assert_eq!(closes.len(), 1, "one connection, one conn_closed: {text}");
    // open and close correlate through the same connection id
    assert_eq!(
        opens[0].as_object().unwrap().get("conn"),
        closes[0].as_object().unwrap().get("conn")
    );
    // the 1ns threshold makes every request a slow query
    let slow = with_event("slow_query");
    assert!(!slow.is_empty(), "expected slow_query events in: {text}");
    let slow_obj = slow[0].as_object().unwrap();
    assert!(uint(slow_obj.get("elapsed_ns")).unwrap() >= 1);
    assert_eq!(
        slow_obj.get("request_type"),
        Some(&Value::String("query".into()))
    );
    assert_eq!(slow_obj.get("level"), Some(&Value::String("warn".into())));
}

#[test]
fn client_trace_ids_are_echoed_and_their_span_trees_retained() {
    // the tentpole contract at rate 0.0: only client-pinned traces are
    // recorded, the id is echoed canonically, and the retained span tree
    // nests server → engine → welfare
    let (handle, join) = start(engine());
    let mut c = Client::connect(&handle);

    let traced = c.roundtrip(
        r#"{"v": 2, "trace": "c0ffee", "config": "C1", "budgets": [3, 3], "samples": 100}"#,
    );
    assert!(ok(&traced), "{traced:?}");
    assert_eq!(
        traced.as_object().unwrap().get("trace"),
        Some(&Value::String("0000000000c0ffee".into())),
        "client trace ids come back zero-padded to canonical 16-hex"
    );
    // untraced v2 and every v1 answer stay trace-free (v1 byte pin)
    let plain = c.roundtrip(r#"{"v": 2, "config": "C1", "budgets": [3, 3], "samples": 100}"#);
    assert!(plain.as_object().unwrap().get("trace").is_none());
    let v1 = c.roundtrip(Q1);
    assert!(v1.as_object().unwrap().get("trace").is_none());

    let resp = c.roundtrip(r#"{"v": 2, "type": "traces"}"#);
    assert!(ok(&resp), "{resp:?}");
    let arr = resp.as_object().unwrap()["traces"].as_array().unwrap();
    assert_eq!(arr.len(), 1, "rate 0.0 retains only the pinned trace");
    let trace = cwelmax_obs::Trace::from_value(&arr[0]).expect("wire trace parses");
    assert_eq!(trace.trace_id, 0xc0ffee);
    assert!(trace.pinned);
    assert!(!trace.error);
    assert!(trace.duration_ns > 0);
    assert_eq!(trace.spans.len(), 1, "one root span per request");
    let root = &trace.spans[0];
    assert_eq!(root.name, "server.query");
    let engine_span = root
        .children
        .iter()
        .find(|s| s.name == "engine.query")
        .expect("engine.query nests under server.query");
    assert!(
        engine_span
            .attrs
            .iter()
            .any(|(k, v)| k == "algorithm" && *v == cwelmax_obs::AttrValue::Str("seqgrd-nm".into())),
        "engine span names its algorithm: {:?}",
        engine_span.attrs
    );
    let welfare: Vec<_> = engine_span
        .children
        .iter()
        .filter(|s| s.name == "engine.welfare")
        .collect();
    assert!(
        !welfare.is_empty(),
        "welfare evaluations hang under the engine query span"
    );
    assert!(
        welfare
            .iter()
            .all(|w| w.attrs.iter().any(|(k, _)| k == "cache_hit")),
        "every welfare span reports its cache outcome"
    );
    // a v1 line asking for traces gets the legacy unknown-type bytes
    let legacy = c.roundtrip(r#"{"type": "traces"}"#);
    assert!(!ok(&legacy));
    assert!(error_text(&legacy).contains("unknown request type"));

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn sampled_tracing_mints_ids_and_stats_report_windowed_percentiles() {
    // --trace-sample 1.0: every request is recorded under a server-minted
    // id (echoed on v2 answers), and v2 stats carry last-minute windowed
    // percentiles next to the lifetime ones
    let server = CampaignServer::bind(engine(), "127.0.0.1:0")
        .unwrap()
        .with_trace_sample(1.0)
        .with_trace_buffer(8);
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    let mut c = Client::connect(&handle);

    let a = c.roundtrip(r#"{"v": 2, "config": "C1", "budgets": [3, 3], "samples": 100}"#);
    assert!(ok(&a), "{a:?}");
    let minted = a.as_object().unwrap()["trace"]
        .as_str()
        .expect("sampled v2 answers echo a server-minted trace id")
        .to_string();
    assert_eq!(minted.len(), 16);
    // batches are traced too, as one trace under server.batch
    let b = c.roundtrip(
        r#"{"v": 2, "type": "batch", "queries": [{"config": "C1", "budgets": [2, 2], "samples": 100}, {"config": "C2", "budgets": [2, 2], "samples": 100}]}"#,
    );
    assert!(ok(&b), "{b:?}");
    assert!(b.as_object().unwrap().get("trace").is_some());

    let resp = c.roundtrip(r#"{"v": 2, "type": "traces"}"#);
    let arr = resp.as_object().unwrap()["traces"].as_array().unwrap();
    assert_eq!(arr.len(), 2, "both requests were retained at rate 1.0");
    let traces: Vec<_> = arr
        .iter()
        .map(|t| cwelmax_obs::Trace::from_value(t).unwrap())
        .collect();
    // newest first: the batch, then the single query
    assert_eq!(traces[0].spans[0].name, "server.batch");
    assert_eq!(traces[1].spans[0].name, "server.query");
    assert_eq!(
        cwelmax_obs::trace::format_trace_id(traces[1].trace_id),
        minted,
        "the echoed id finds its trace in the buffer"
    );
    assert!(!traces[1].pinned, "server-minted traces are not pinned");
    let engine_batch = traces[0].spans[0]
        .children
        .iter()
        .find(|s| s.name == "engine.batch")
        .expect("engine.batch nests under server.batch");
    assert_eq!(
        engine_batch
            .children
            .iter()
            .filter(|s| s.name == "engine.query")
            .count(),
        2,
        "each batch entry contributes its own engine.query span"
    );
    // limit is honored, newest first
    let limited = c.roundtrip(r#"{"v": 2, "type": "traces", "limit": 1}"#);
    let arr = limited.as_object().unwrap()["traces"].as_array().unwrap();
    assert_eq!(arr.len(), 1);

    // windowed percentiles: v2-only, fresh (everything above happened
    // within the first 5s interval, so window == lifetime-ish counts)
    let stats = c.roundtrip(r#"{"v": 2, "type": "stats"}"#);
    let s = stats.as_object().unwrap()["server"].as_object().unwrap();
    let window_reqs = uint(s.get("latency_window_requests")).unwrap();
    let lifetime_reqs = uint(s.get("requests")).unwrap();
    assert!(window_reqs >= 1 && window_reqs <= lifetime_reqs);
    assert!(uint(s.get("latency_window_p50_ns")).is_some());
    assert!(uint(s.get("latency_window_p99_ns")).is_some());
    assert_eq!(uint(s.get("latency_window_seconds")), Some(60));
    assert!(
        uint(s.get("latency_window_p99_ns")).unwrap() <= uint(s.get("latency_max_ns")).unwrap(),
        "windowed p99 is bounded by the lifetime max"
    );
    // and none of it leaks into the v1 stats body
    let v1_stats = c.roundtrip(r#"{"type": "stats"}"#);
    let s = v1_stats.as_object().unwrap()["server"].as_object().unwrap();
    assert!(s.get("latency_window_p50_ns").is_none());

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn sp_follow_up_trace_shows_conditioned_derive_and_per_shard_faults() {
    // with an empty journal, and with a top-up's non-empty overlay as the
    // walk's last part
    for topped_up in [false, true] {
        assert_follow_up_trace_shows_derive_and_faults(topped_up);
    }
}

fn assert_follow_up_trace_shows_derive_and_faults(topped_up: bool) {
    // the storage acceptance bar: a traced SP follow-up against a 4-shard
    // store, opened the way `serve --store` opens it, retains a span tree
    // proving the conditioned derive faulted exactly shards 0..4, each
    // under its own store.shard_fault span
    use cwelmax_obs::AttrValue;
    let graph = Arc::new(generators::erdos_renyi(
        100,
        400,
        7,
        ProbabilityModel::WeightedCascade,
    ));
    let params = ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 7,
        threads: 2,
        max_rr_sets: 500_000,
    };
    let index = RrIndex::build(&graph, 8, &params);
    let dir = std::env::temp_dir().join(format!("cwelmax-server-trace-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cwelmax_store::write_store(&index, &dir, 4).unwrap();
    let eng = Arc::new(
        EngineBuilder::from_journaled_store(&dir)
            .graph(graph)
            .build()
            .unwrap(),
    );
    let (handle, join) = start(eng);
    let mut c = Client::connect(&handle);
    if topped_up {
        let target = index.num_sampled() + 400;
        let grown = c.roundtrip(&format!(
            r#"{{"v": 2, "type": "topup", "theta": {target}}}"#
        ));
        assert!(ok(&grown), "{grown:?}");
    }

    let resp = c.roundtrip(
        r#"{"v": 2, "trace": "feed", "config": "C1", "budgets": [3, 3], "sp": [[0, 1], [17, 1]], "samples": 100}"#,
    );
    assert!(ok(&resp), "{resp:?}");
    assert_eq!(
        resp.as_object().unwrap().get("trace"),
        Some(&Value::String("000000000000feed".into()))
    );

    let traces = c.roundtrip(r#"{"v": 2, "type": "traces", "limit": 1}"#);
    let arr = traces.as_object().unwrap()["traces"].as_array().unwrap();
    assert_eq!(arr.len(), 1);
    let trace = cwelmax_obs::Trace::from_value(&arr[0]).unwrap();
    assert_eq!(trace.trace_id, 0xfeed);
    let root = &trace.spans[0];
    assert_eq!(root.name, "server.query");
    let engine_span = root
        .children
        .iter()
        .find(|s| s.name == "engine.query")
        .expect("engine.query under server.query");
    assert!(
        engine_span
            .attrs
            .iter()
            .any(|(k, v)| k == "follow_up" && *v == AttrValue::Bool(true)),
        "an SP-bearing query is a follow-up: {:?}",
        engine_span.attrs
    );
    let derive = engine_span
        .children
        .iter()
        .find(|s| s.name == "engine.conditioned_derive")
        .expect("first follow-up pays the conditioned derive");
    assert!(
        derive.attrs.iter().any(|(k, _)| k == "sp_fingerprint"),
        "derive span carries the SP fingerprint: {:?}",
        derive.attrs
    );
    assert!(
        derive
            .attrs
            .iter()
            .any(|(k, v)| k == "removed_sets" && matches!(v, AttrValue::U64(_))),
        "derive span says how many sets SP covered: {:?}",
        derive.attrs
    );
    let store_span = derive
        .children
        .iter()
        .find(|s| s.name == "store.derive_conditioned")
        .expect("storage derive nests under the engine derive");
    let mut shards: Vec<u64> = store_span
        .children
        .iter()
        .filter(|s| s.name == "store.shard_fault")
        .map(|s| {
            match s
                .attrs
                .iter()
                .find(|(k, _)| k == "shard")
                .map(|(_, v)| v.clone())
            {
                Some(AttrValue::U64(k)) => k,
                other => panic!("shard fault span lacks a shard attr: {other:?}"),
            }
        })
        .collect();
    shards.sort_unstable();
    assert_eq!(
        shards,
        vec![0, 1, 2, 3],
        "the first SP follow-up faults every shard, one span each"
    );
    // span timing is consistent: faults fall inside the derive span
    for fault in store_span
        .children
        .iter()
        .filter(|s| s.name == "store.shard_fault")
    {
        assert!(fault.start_ns >= store_span.start_ns);
        assert!(fault.end_ns <= store_span.end_ns);
    }

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
