//! Live-TCP tests for `CwelmaxClient`: negotiation, typed round-trips
//! byte-identical to in-process engine calls (against both a monolithic
//! index and a sharded store), v1 fallback, and reconnect-once.

use cwelmax_client::{ClientError, CwelmaxClient};
use cwelmax_diffusion::{Allocation, SimulationConfig};
use cwelmax_engine::{CampaignQuery, EngineBuilder, QueryAlgorithm, RrIndex};
use cwelmax_graph::{generators, Graph, ProbabilityModel};
use cwelmax_rrset::ImmParams;
use cwelmax_server::{CampaignServer, ServerHandle};
use cwelmax_store::FromStore;
use cwelmax_utility::configs::{self, TwoItemConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::sync::Arc;

fn graph_and_index() -> (Arc<Graph>, Arc<RrIndex>) {
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
    (graph, index)
}

fn start(engine: cwelmax_engine::CampaignEngine) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = CampaignServer::bind(Arc::new(engine), "127.0.0.1:0").unwrap();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join)
}

fn query(cfg: TwoItemConfig, b: usize, sp: Allocation) -> CampaignQuery {
    CampaignQuery {
        model: configs::two_item_config(cfg),
        budgets: vec![b, b],
        algorithm: QueryAlgorithm::SeqGrdNm,
        sp,
        // threads: 1 matches what the wire decoder reconstructs, so the
        // in-process reference query is the byte-identical twin of what
        // the server executes
        sim: SimulationConfig {
            samples: 100,
            threads: 1,
            base_seed: 0x5EED,
        },
    }
}

/// The acceptance bar: fresh, SP-follow-up, and batch queries through
/// the typed client answer **byte-identically** to in-process engine
/// calls — against a monolithic-index server and a sharded-store server.
#[test]
fn typed_round_trips_match_in_process_engine_on_index_and_store_backends() {
    let (graph, index) = graph_and_index();
    // the in-process reference engine
    let reference = EngineBuilder::from_index(index.clone())
        .graph(graph.clone())
        .build()
        .unwrap();
    // a store written from the same index
    let dir = std::env::temp_dir().join(format!("cwelmax-client-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cwelmax_store::write_store(&index, &dir, 5).unwrap();

    let backends: Vec<(&str, cwelmax_engine::CampaignEngine)> = vec![
        (
            "index",
            EngineBuilder::from_index(index.clone())
                .graph(graph.clone())
                .build()
                .unwrap(),
        ),
        (
            "store",
            EngineBuilder::from_journaled_store(&dir)
                .graph(graph.clone())
                .build()
                .unwrap(),
        ),
    ];
    for (name, engine) in backends {
        let (handle, join) = start(engine);
        let mut client = CwelmaxClient::connect(handle.local_addr().to_string()).unwrap();

        // negotiation: a v2 session with the full feature set
        assert_eq!(client.protocol(), 2, "{name}: v2 must be negotiated");
        for feature in ["batch", "sp", "stats", "store"] {
            assert!(client.has_feature(feature), "{name}: missing {feature}");
        }
        assert!(!client.negotiated().unwrap().server_version.is_empty());

        // fresh query
        let fresh = query(TwoItemConfig::C1, 3, Allocation::new());
        let got = client.query(&fresh).unwrap();
        let want = reference.query(&fresh).unwrap();
        assert_eq!(got.allocation, want.allocation.pairs(), "{name}: fresh");
        assert_eq!(
            got.welfare.to_bits(),
            want.welfare.to_bits(),
            "{name}: fresh welfare must be bit-identical"
        );
        assert!(got.sp.is_empty());

        // SP follow-up
        let follow = query(
            TwoItemConfig::C1,
            3,
            Allocation::from_pairs(vec![(0, 1), (17, 1)]),
        );
        let got = client.query(&follow).unwrap();
        let want = reference.query(&follow).unwrap();
        assert_eq!(got.allocation, want.allocation.pairs(), "{name}: follow");
        assert_eq!(got.sp, follow.sp.pairs(), "{name}: sp echoed");
        assert_eq!(got.welfare.to_bits(), want.welfare.to_bits(), "{name}");

        // batch: two good entries around one the engine must refuse
        // (budget above the cap), whose structured code must survive the
        // envelope
        let too_big = query(TwoItemConfig::C2, 50, Allocation::new());
        let batch = vec![fresh.clone(), too_big, follow.clone()];
        let rows = client.query_batch(&batch).unwrap();
        assert_eq!(rows.len(), 3, "{name}");
        for k in [0usize, 2] {
            let got = rows[k].as_ref().unwrap();
            let want = reference.query(&batch[k]).unwrap();
            assert_eq!(got.allocation, want.allocation.pairs(), "{name} entry {k}");
            assert_eq!(got.welfare.to_bits(), want.welfare.to_bits(), "{name}");
        }
        let err = rows[1].as_ref().unwrap_err();
        assert_eq!(err.code, 422, "{name}: engine refusal is bad-query");
        assert_eq!(err.kind, "bad-query", "{name}");
        assert!(!err.retryable, "{name}");

        // typed stats see the backend shape
        let stats = client.stats().unwrap();
        assert_eq!(stats.server_queries, 4);
        match name {
            "store" => {
                assert_eq!(stats.shards_total, 5);
                assert!(stats.store_bytes_on_disk > 0);
            }
            _ => assert_eq!(stats.shards_total, 1),
        }

        client.shutdown().unwrap();
        join.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A pre-v2 server rejects `hello`; the client must fall back to v1
/// silently and keep every typed call working (with string-only errors).
#[test]
fn client_falls_back_to_v1_when_hello_is_rejected() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let write = |line: &str| {
            let mut s = &stream;
            s.write_all(line.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        };
        let mut line = String::new();
        // 1: hello → the legacy unknown-type error, verbatim
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("hello"), "{line}");
        write(r#"{"error":"unknown request type `hello`","ok":false}"#);
        // 2: the query → a canned v1 answer
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(
            !line.contains("\"v\""),
            "v1 fallback must not tag requests: {line}"
        );
        write(
            r#"{"algorithm":"SeqGRD-NM","allocation":[[4,0],[9,1]],"elapsed_seconds":0.001,"ok":true,"welfare":12.5}"#,
        );
        // 3: a failing query → a v1 string error
        line.clear();
        reader.read_line(&mut line).unwrap();
        write(r#"{"error":"bad query: budget too big","ok":false}"#);
    });

    let mut client = CwelmaxClient::connect(addr.to_string()).unwrap();
    assert_eq!(client.protocol(), 1, "fallback must report v1");
    assert!(client.negotiated().is_none());
    assert!(!client.has_feature("batch"), "v1 advertises nothing");

    let q = query(TwoItemConfig::C1, 2, Allocation::new());
    let answer = client.query(&q).unwrap();
    assert_eq!(answer.allocation, vec![(4, 0), (9, 1)]);
    assert_eq!(answer.welfare, 12.5);

    match client.query(&q) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, 0, "v1 errors carry no stable code");
            assert_eq!(e.kind, "error");
            assert!(e.message.contains("budget too big"));
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    server.join().unwrap();
}

/// The accept-time `--max-conns` busy refusal arrives before the server
/// reads anything — it must surface as a server error from `connect`,
/// not masquerade as a v1 fallback on a socket that is already dead.
///
/// The mock refuses exactly like CampaignServer's `refuse_busy`: write
/// the line, half-close, drain the client's unread `hello`. Closing with
/// the `hello` unread instead makes the kernel answer with RST, which
/// loses the refusal about once in 250 connects on an idle machine (far
/// more often under a full test run) — hence the loop, long enough to
/// catch a refusal path that regresses to the plain close.
#[test]
fn busy_refusal_at_connect_surfaces_as_a_server_error_not_v1_fallback() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    const CONNECTS: usize = 1000;
    let server = std::thread::spawn(move || {
        for _ in 0..CONNECTS {
            let (stream, _) = listener.accept().unwrap();
            let mut s = &stream;
            s.write_all(
                b"{\"error\":\"server busy: connection limit 2 reached, retry later\",\"ok\":false}\n",
            )
            .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_millis(100)))
                .unwrap();
            let mut sink = [0u8; 512];
            while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
        }
    });
    for attempt in 0..CONNECTS {
        match CwelmaxClient::connect(addr.to_string()) {
            Err(ClientError::Server(e)) => {
                assert!(e.message.contains("server busy"), "{e}");
            }
            Ok(c) => panic!("connect succeeded at protocol v{}", c.protocol()),
            Err(other) => panic!("attempt {attempt}: expected Server error, got {other:?}"),
        }
    }
    server.join().unwrap();
}

/// A connection that dies underneath the client (server restart, idle
/// reap) is re-established — and re-negotiated — once, transparently.
#[test]
fn client_reconnects_once_when_the_connection_breaks() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hello = r#"{"features":["batch","sp","stats","store"],"ok":true,"protocol":2,"server_version":"0.1.0","v":2}"#;
    let server = std::thread::spawn(move || {
        // connection 1: negotiate, then drop dead before the first query
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        {
            let mut s = &stream;
            s.write_all(hello.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        }
        drop(reader);
        drop(stream);
        // connection 2: full service
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let write = |text: &str| {
            let mut s = &stream;
            s.write_all(text.as_bytes()).unwrap();
            s.write_all(b"\n").unwrap();
            s.flush().unwrap();
        };
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // re-negotiation
        assert!(line.contains("hello"), "{line}");
        write(hello);
        line.clear();
        reader.read_line(&mut line).unwrap(); // the retried query
        assert!(line.contains("\"v\""), "retry keeps the v2 dialect");
        write(
            r#"{"algorithm":"SeqGRD-NM","allocation":[[2,0]],"elapsed_seconds":0.001,"ok":true,"v":2,"welfare":3.25}"#,
        );
    });

    let mut client = CwelmaxClient::connect(addr.to_string()).unwrap();
    assert_eq!(client.protocol(), 2);
    // the first connection is already dead; this must succeed anyway
    let answer = client
        .query(&query(TwoItemConfig::C1, 1, Allocation::new()))
        .unwrap();
    assert_eq!(answer.allocation, vec![(2, 0)]);
    assert_eq!(answer.welfare, 3.25);
    assert_eq!(client.protocol(), 2, "re-negotiated back to v2");
    server.join().unwrap();
}

/// The typed `metrics()` scrape against a real server: hello advertises
/// the feature, and the decoded snapshot carries server counters and
/// engine latency histograms reflecting the traffic the client itself
/// just generated.
#[test]
fn metrics_round_trips_a_typed_registry_snapshot() {
    let (graph, index) = graph_and_index();
    let engine = EngineBuilder::from_index(index)
        .graph(graph)
        .build()
        .unwrap();
    let (handle, join) = start(engine);

    let mut client = CwelmaxClient::connect(handle.local_addr().to_string()).unwrap();
    assert_eq!(client.protocol(), 2);
    assert!(
        client.has_feature("metrics"),
        "a v2 server advertises the metrics feature"
    );

    let q = query(TwoItemConfig::C1, 2, Allocation::new());
    client.query(&q).unwrap();
    client.query(&q).unwrap();

    let snap = client.metrics().unwrap();
    // the hello + two queries all count as requests
    assert!(snap.counters["server.requests_total"] >= 3);
    assert_eq!(snap.counters["engine.queries"], 2);
    let query_ns = &snap.histograms["engine.query_ns"];
    assert_eq!(query_ns.count, 2);
    assert!(query_ns.sum > 0, "two real queries take nonzero time");
    assert!(query_ns.quantile(0.5) <= query_ns.max);
    assert_eq!(snap.counters["engine.welfare_cache_hits"], 1);
    assert_eq!(snap.counters["engine.welfare_cache_misses"], 1);

    client.shutdown().unwrap();
    join.join().unwrap();
}

/// On a fallen-back v1 connection `metrics()` fails fast with a clear
/// protocol error instead of sending a request v1 cannot answer.
#[test]
fn metrics_fails_fast_on_a_v1_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut s = &stream;
        s.write_all(b"{\"error\":\"unknown request type `hello`\",\"ok\":false}\n")
            .unwrap();
        s.flush().unwrap();
    });
    let mut client = CwelmaxClient::connect(addr.to_string()).unwrap();
    assert_eq!(client.protocol(), 1);
    match client.metrics() {
        Err(ClientError::Protocol(msg)) => {
            assert!(msg.contains("v2"), "error names the protocol gap: {msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.join().unwrap();
}

/// The typed tracing surface against a real server: `query_traced`
/// echoes the pinned id on the answer, `traces()` returns the retained
/// trace with its span tree, and both fail fast on a v1 connection.
#[test]
fn query_traced_pins_a_trace_and_traces_fetches_its_span_tree() {
    let (graph, index) = graph_and_index();
    let engine = EngineBuilder::from_index(index)
        .graph(graph)
        .build()
        .unwrap();
    let (handle, join) = start(engine);

    let mut client = CwelmaxClient::connect(handle.local_addr().to_string()).unwrap();
    assert!(
        client.has_feature("traces"),
        "a v2 server advertises the traces feature"
    );

    let q = query(TwoItemConfig::C1, 2, Allocation::new());
    // untraced queries stay trace-free
    let plain = client.query(&q).unwrap();
    assert!(plain.trace.is_none());
    // a pinned trace comes back canonical on the answer
    let traced = client.query_traced(&q, 0xbead).unwrap();
    assert_eq!(traced.trace.as_deref(), Some("000000000000bead"));

    let traces = client.traces(0).unwrap();
    assert_eq!(traces.len(), 1, "only the pinned trace is retained");
    let trace = &traces[0];
    assert_eq!(trace.trace_id, 0xbead);
    assert!(trace.pinned && !trace.error);
    assert_eq!(trace.spans[0].name, "server.query");
    assert!(
        trace.spans[0]
            .children
            .iter()
            .any(|s| s.name == "engine.query"),
        "the engine span survives the typed round-trip"
    );
    // limit is honored
    assert_eq!(client.traces(1).unwrap().len(), 1);

    client.shutdown().unwrap();
    join.join().unwrap();
}

/// On a fallen-back v1 connection both tracing entry points fail fast
/// with a protocol error instead of emitting bytes v1 cannot parse.
#[test]
fn tracing_fails_fast_on_a_v1_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut s = &stream;
        s.write_all(b"{\"error\":\"unknown request type `hello`\",\"ok\":false}\n")
            .unwrap();
        s.flush().unwrap();
    });
    let mut client = CwelmaxClient::connect(addr.to_string()).unwrap();
    assert_eq!(client.protocol(), 1);
    let q = query(TwoItemConfig::C1, 1, Allocation::new());
    for result in [
        client.query_traced(&q, 1).map(|_| ()),
        client.traces(0).map(|_| ()),
    ] {
        match result {
            Err(ClientError::Protocol(msg)) => {
                assert!(msg.contains("v2"), "error names the protocol gap: {msg}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    server.join().unwrap();
}

/// A busy refusal that carries the server's `retry_after_ms` hint is
/// honored with exactly one bounded back-off and reconnect: the second
/// attempt lands on a freed slot and negotiates v2 normally.
#[test]
fn busy_refusal_with_a_retry_hint_is_retried_once() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hello = r#"{"features":["batch","sp","stats","store"],"ok":true,"protocol":2,"server_version":"0.1.0","v":2}"#;
    let server = std::thread::spawn(move || {
        // connection 1: the hinted refusal, then close — like
        // CampaignServer's refuse_busy with BUSY_RETRY_AFTER_MS attached
        // (the hello is drained first so the close cannot race the
        // client's in-flight write into a reset)
        let (stream, _) = listener.accept().unwrap();
        {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut s = &stream;
            s.write_all(
                b"{\"error\":\"server busy: connection limit 1 reached, retry later\",\"ok\":false,\"retry_after_ms\":100}\n",
            )
            .unwrap();
            s.flush().unwrap();
        }
        drop(stream);
        // connection 2: the slot freed up; full negotiation
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("hello"), "{line}");
        let mut s = &stream;
        s.write_all(hello.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        s.flush().unwrap();
    });

    let started = std::time::Instant::now();
    let client = CwelmaxClient::connect(addr.to_string()).unwrap();
    assert_eq!(
        client.protocol(),
        2,
        "the retry negotiates a normal v2 session"
    );
    assert!(
        started.elapsed() >= std::time::Duration::from_millis(100),
        "the hint's back-off must actually be waited out"
    );
    server.join().unwrap();
}

/// A server that is *still* busy after the hinted back-off gets exactly
/// one retry — the second refusal surfaces as the final error, hint and
/// all, instead of looping.
#[test]
fn a_second_busy_refusal_after_the_hinted_retry_is_final() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let refusal =
        b"{\"error\":\"server busy: connection limit 1 reached, retry later\",\"ok\":false,\"retry_after_ms\":50}\n";
    let server = std::thread::spawn(move || {
        for _ in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut s = &stream;
            s.write_all(refusal).unwrap();
            s.flush().unwrap();
        }
        // a third connection attempt would hang the test right here
    });
    match CwelmaxClient::connect(addr.to_string()) {
        Err(ClientError::Server(e)) => {
            assert!(e.message.contains("server busy"), "{e}");
            assert_eq!(e.retry_after_ms, Some(50), "the hint survives decoding");
        }
        Ok(c) => panic!("connect succeeded at protocol v{}", c.protocol()),
        Err(other) => panic!("expected Server error, got {other:?}"),
    }
    server.join().unwrap();
}

/// The typed `topup()` call against a real journaled-store server: the
/// feature is advertised, θ grows live, the journal counters appear in
/// typed stats, and queries keep answering on the same connection.
#[test]
fn topup_round_trips_typed_against_a_journaled_store_server() {
    let (graph, index) = graph_and_index();
    let theta0 = index.num_sampled();
    let dir = std::env::temp_dir().join(format!("cwelmax-client-topup-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    cwelmax_store::write_store(&index, &dir, 4).unwrap();
    let store = Arc::new(cwelmax_store::JournaledStore::open(&dir).unwrap());
    let engine = EngineBuilder::from_backend(store)
        .graph(graph)
        .build()
        .unwrap();
    let (handle, join) = start(engine);

    let mut client = CwelmaxClient::connect(handle.local_addr().to_string()).unwrap();
    assert!(
        client.has_feature("topup"),
        "a v2 server advertises the topup feature"
    );

    let before = client.stats().unwrap();
    assert_eq!(before.journal_records, 0);
    assert_eq!(before.topups_total, 0);

    let target = theta0 + 300;
    assert_eq!(client.topup(target).unwrap(), target as u64);
    // an already-satisfied target is a no-op that reports the population
    assert_eq!(client.topup(1).unwrap(), target as u64);

    let after = client.stats().unwrap();
    assert_eq!(after.journal_records, 1);
    assert_eq!(after.topups_total, 1);
    assert!(after.journal_bytes > 0);

    // the grown index keeps serving typed queries
    let answer = client
        .query(&query(TwoItemConfig::C1, 2, Allocation::new()))
        .unwrap();
    assert!(answer.welfare > 0.0);

    client.shutdown().unwrap();
    join.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// On a fallen-back v1 connection `topup()` fails fast with a protocol
/// error instead of sending a request v1 cannot answer.
#[test]
fn topup_fails_fast_on_a_v1_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let mut s = &stream;
        s.write_all(b"{\"error\":\"unknown request type `hello`\",\"ok\":false}\n")
            .unwrap();
        s.flush().unwrap();
    });
    let mut client = CwelmaxClient::connect(addr.to_string()).unwrap();
    assert_eq!(client.protocol(), 1);
    match client.topup(10_000) {
        Err(ClientError::Protocol(msg)) => {
            assert!(msg.contains("v2"), "error names the protocol gap: {msg}")
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.join().unwrap();
}
