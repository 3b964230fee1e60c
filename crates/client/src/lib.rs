//! # cwelmax-client
//!
//! A typed NDJSON-over-TCP client for `cwelmax-server` — the programmatic
//! counterpart to driving the socket by hand with `printf | nc`.
//!
//! ```no_run
//! use cwelmax_client::CwelmaxClient;
//! use cwelmax_engine::{CampaignQuery, QueryAlgorithm};
//! use cwelmax_utility::configs::{self, TwoItemConfig};
//!
//! # fn demo() -> Result<(), cwelmax_client::ClientError> {
//! let mut client = CwelmaxClient::connect("127.0.0.1:7878")?;
//! println!("negotiated protocol v{}", client.protocol());
//! let q = CampaignQuery::new(
//!     configs::two_item_config(TwoItemConfig::C1),
//!     vec![3, 3],
//!     QueryAlgorithm::SeqGrdNm,
//! );
//! let answer = client.query(&q)?;
//! println!("welfare {:.1} via {}", answer.welfare, answer.algorithm);
//! # Ok(())
//! # }
//! ```
//!
//! ## Protocol negotiation
//!
//! [`CwelmaxClient::connect`] sends `{"v": 2, "type": "hello"}` first.
//! A v2 server answers with its protocol, feature list, and version
//! ([`Hello`]); a pre-v2 server answers with an `unknown request type`
//! error, which the client treats as an automatic **v1 fallback** — the
//! same typed calls keep working, encoded in the legacy dialect (errors
//! then carry only a message, no stable code).
//!
//! ## Connection handling
//!
//! One persistent connection, request/response in lockstep. If the
//! socket dies mid-call (server restart, idle timeout, broken pipe), the
//! client transparently reconnects — and re-negotiates — **once** and
//! retries the request; a second failure surfaces as
//! [`ClientError::Io`]. Queries are idempotent (the engine is a pure
//! cache over immutable state), so the single retry is safe.
//!
//! ## Errors
//!
//! Transport failures are [`ClientError::Io`]; unintelligible responses
//! are [`ClientError::Protocol`]; a well-formed server-side refusal is
//! [`ClientError::Server`] carrying the structured [`ServerError`]
//! (`{code, kind, message, retryable}` on v2 — [`ServerError::kind`]
//! maps back to [`cwelmax_engine::ErrorKind`] via
//! [`ServerError::error_kind`]).

use cwelmax_engine::wire;
use cwelmax_engine::{CampaignQuery, ErrorKind};
pub use cwelmax_obs::{HistogramSnapshot, Snapshot as MetricsSnapshot, SpanNode, Trace};
use serde::{Deserialize, Map, Value};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// What the server told us in its `hello` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Negotiated wire protocol (2 for every v2 server).
    pub protocol: u64,
    /// Capability names (`"batch"`, `"sp"`, `"stats"`, `"store"`, …;
    /// append-only across versions).
    pub features: Vec<String>,
    /// The server build's crate version.
    pub server_version: String,
}

/// A structured server-side refusal. On v2 the code/kind/retryable
/// triple is the stable taxonomy from `cwelmax_engine::ErrorKind`; on v1
/// only the message is real (code 0, kind `"error"`, not retryable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// Stable numeric code (0 when the server spoke v1).
    pub code: u16,
    /// Stable kebab-case kind name (`"error"` when the server spoke v1).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// Whether retrying the same request may succeed.
    pub retryable: bool,
    /// Server-suggested back-off before retrying, when it gave one (the
    /// accept-time busy refusal does; `None` everywhere else).
    pub retry_after_ms: Option<u64>,
}

impl ServerError {
    /// The typed classification, when the kind names one this build
    /// knows (`None` for v1 errors and future kinds).
    pub fn error_kind(&self) -> Option<ErrorKind> {
        ErrorKind::parse(&self.kind)
    }

    fn from_value(err: &Value) -> ServerError {
        match err {
            // v2: structured object
            Value::Object(m) => ServerError {
                code: match m.get("code") {
                    Some(Value::Int(x)) => *x as u16,
                    Some(Value::UInt(x)) => *x as u16,
                    _ => 0,
                },
                kind: m
                    .get("kind")
                    .and_then(|k| k.as_str())
                    .unwrap_or("error")
                    .to_string(),
                message: m
                    .get("message")
                    .and_then(|s| s.as_str())
                    .unwrap_or_default()
                    .to_string(),
                retryable: m.get("retryable") == Some(&Value::Bool(true)),
                retry_after_ms: None,
            },
            // v1: bare string
            Value::String(s) => ServerError {
                code: 0,
                kind: "error".into(),
                message: s.clone(),
                retryable: false,
                retry_after_ms: None,
            },
            other => ServerError {
                code: 0,
                kind: "error".into(),
                message: format!("unintelligible error payload: {other:?}"),
                retryable: false,
                retry_after_ms: None,
            },
        }
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}] {}", self.code, self.kind, self.message)
    }
}

/// Everything a typed call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (including after the one reconnect retry).
    Io(std::io::Error),
    /// The server sent bytes this client cannot interpret.
    Protocol(String),
    /// The server understood the request and refused it.
    Server(ServerError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One answered campaign query, decoded from the wire.
#[derive(Debug, Clone)]
pub struct RemoteAnswer {
    /// Algorithm display name (e.g. `"SeqGRD-NM"`).
    pub algorithm: String,
    /// The newly selected `(node, item)` pairs.
    pub allocation: Vec<(u32, usize)>,
    /// The conditioning prior allocation (empty for fresh campaigns).
    pub sp: Vec<(u32, usize)>,
    /// Monte-Carlo welfare estimate of `allocation ∪ sp`.
    pub welfare: f64,
    /// Server-side handling time in seconds.
    pub elapsed_seconds: f64,
    /// The trace id the server recorded this request under (canonical
    /// 16-hex), echoed when the request was traced — client-pinned via
    /// [`CwelmaxClient::query_traced`], or server-sampled. `None` on
    /// untraced requests and every v1 answer.
    pub trace: Option<String>,
}

/// Server + engine counters from a `stats` request, decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RemoteStats {
    pub connections: u64,
    pub busy_rejections: u64,
    pub requests: u64,
    pub server_queries: u64,
    pub errors: u64,
    pub mean_latency_seconds: f64,
    pub engine_queries: u64,
    pub pool_selections: u64,
    pub welfare_evals: u64,
    pub welfare_cache_hits: u64,
    pub conditioned_views: u64,
    pub conditioned_hits: u64,
    pub shards_total: u64,
    pub shards_loaded: u64,
    pub store_bytes_on_disk: u64,
    /// Records in the mutation journal (0 on v1 and journal-less stores).
    pub journal_records: u64,
    /// Bytes of committed journal (0 on v1 and journal-less stores).
    pub journal_bytes: u64,
    /// θ top-ups served since bind (0 on v1 and journal-less stores).
    pub topups_total: u64,
}

/// A typed connection to a `cwelmax serve` instance. See the module
/// docs for negotiation and reconnect semantics.
pub struct CwelmaxClient {
    addr: String,
    conn: Conn,
    negotiated: Option<Hello>,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The framed request, then the response line: one buffer serves
    /// every round trip of the connection.
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// One request line out, one response line in. The line and its
    /// newline leave in one write: on a `TCP_NODELAY` stream every write
    /// is a segment of its own and a read of its own at the server.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<&str> {
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        self.writer.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(&self.buf)
    }
}

/// Longest back-off `connect` will honor from a busy refusal's
/// `retry_after_ms` hint — a misbehaving (or hostile) server must not be
/// able to park the client for minutes.
const MAX_RETRY_AFTER_MS: u64 = 2_000;

impl CwelmaxClient {
    /// Connect and negotiate: hello first, automatic v1 fallback if the
    /// server rejects it (see the module docs). A busy refusal carrying
    /// a `retry_after_ms` hint is honored with **one** bounded back-off
    /// and reconnect (capped at [`MAX_RETRY_AFTER_MS`]); a second
    /// refusal surfaces as [`ClientError::Server`].
    pub fn connect(addr: impl Into<String>) -> Result<CwelmaxClient, ClientError> {
        let addr = addr.into();
        match Self::connect_once(&addr) {
            Err(ClientError::Server(err)) if err.retry_after_ms.is_some() => {
                let hint = err.retry_after_ms.unwrap_or(0).min(MAX_RETRY_AFTER_MS);
                std::thread::sleep(std::time::Duration::from_millis(hint));
                Self::connect_once(&addr)
            }
            other => other,
        }
    }

    fn connect_once(addr: &str) -> Result<CwelmaxClient, ClientError> {
        let mut conn = Conn::open(addr)?;
        let negotiated = Self::negotiate(&mut conn)?;
        Ok(CwelmaxClient {
            addr: addr.to_string(),
            conn,
            negotiated,
        })
    }

    fn negotiate(conn: &mut Conn) -> Result<Option<Hello>, ClientError> {
        let v = parse_line(conn.roundtrip(r#"{"v": 2, "type": "hello"}"#)?)?;
        let obj = object_of(&v)?;
        if obj.get("ok") == Some(&Value::Bool(true)) {
            return Self::negotiate_payload(obj);
        }
        // a pre-v2 server answers hello with exactly the unknown-type
        // error and keeps the connection alive — that *is* the v1
        // detection signal. Any OTHER error line here is a real refusal
        // (most importantly the accept-time `--max-conns` busy line,
        // which arrives before the server ever reads our hello) and must
        // surface, not masquerade as a v1 fallback on a dead socket.
        match failure_of(obj) {
            Some(err) if err.message.contains("unknown request type") => Ok(None),
            Some(err) => Err(ClientError::Server(err)),
            // a non-ok line with no error payload is a server this
            // client does not understand — a protocol error, not a panic
            None => Err(ClientError::Protocol(
                "non-ok hello response without an error payload".into(),
            )),
        }
    }

    /// The negotiated protocol version: 2 against a v2 server, 1 after
    /// the automatic fallback.
    pub fn protocol(&self) -> u64 {
        self.negotiated.as_ref().map_or(1, |h| h.protocol)
    }

    /// The server's `hello` payload, when it spoke v2.
    pub fn negotiated(&self) -> Option<&Hello> {
        self.negotiated.as_ref()
    }

    /// True when the server advertised `feature` (always false on v1 —
    /// a v1 server advertises nothing, even capabilities it has).
    pub fn has_feature(&self, feature: &str) -> bool {
        self.negotiated
            .as_ref()
            .is_some_and(|h| h.features.iter().any(|f| f == feature))
    }

    /// Re-issue `hello` explicitly (v2 servers only; on a v1 connection
    /// this reports the fallback as a [`ClientError::Server`]).
    pub fn hello(&mut self) -> Result<Hello, ClientError> {
        let v = self.request(r#"{"v": 2, "type": "hello"}"#.to_string())?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        self.negotiated = Self::negotiate_payload(obj)?;
        self.negotiated
            .clone()
            .ok_or_else(|| ClientError::Protocol("hello succeeded without a payload".into()))
    }

    fn negotiate_payload(obj: &Map) -> Result<Option<Hello>, ClientError> {
        let protocol = u64_of(obj.get("protocol"))
            .ok_or_else(|| ClientError::Protocol("hello response lacks `protocol`".into()))?;
        let features: Vec<String> = match obj.get("features") {
            Some(f) => Deserialize::from_value(f)
                .map_err(|e| ClientError::Protocol(format!("bad hello features: {e}")))?,
            None => Vec::new(),
        };
        Ok(Some(Hello {
            protocol,
            features,
            server_version: obj
                .get("server_version")
                .and_then(|s| s.as_str())
                .unwrap_or_default()
                .to_string(),
        }))
    }

    /// Answer one campaign query (fresh or SP-conditioned).
    pub fn query(&mut self, q: &CampaignQuery) -> Result<RemoteAnswer, ClientError> {
        self.query_inner(q, None)
    }

    /// [`CwelmaxClient::query`] under a client-originated trace id (wire
    /// v2 only): the server records the request's full span tree pinned
    /// past tail sampling, echoes the id on the answer
    /// ([`RemoteAnswer::trace`], canonical 16-hex), and retains the
    /// trace for [`CwelmaxClient::traces`] to fetch.
    pub fn query_traced(
        &mut self,
        q: &CampaignQuery,
        trace_id: u64,
    ) -> Result<RemoteAnswer, ClientError> {
        if self.negotiated.is_none() {
            return Err(ClientError::Protocol(
                "traced queries require wire protocol v2 (server negotiated v1)".into(),
            ));
        }
        self.query_inner(q, Some(trace_id))
    }

    fn query_inner(
        &mut self,
        q: &CampaignQuery,
        trace_id: Option<u64>,
    ) -> Result<RemoteAnswer, ClientError> {
        let Value::Object(mut obj) = wire::query_to_value(q) else {
            // query_to_value returns an object today; if that ever
            // changes, fail the one query instead of the process
            return Err(ClientError::Protocol(
                "query serialized to a non-object value".into(),
            ));
        };
        if self.negotiated.is_some() {
            obj.insert("v".into(), Value::UInt(wire::PROTOCOL_VERSION));
        }
        if let Some(id) = trace_id {
            obj.insert(
                "trace".into(),
                Value::String(cwelmax_obs::trace::format_trace_id(id)),
            );
        }
        let v = self.request(wire::to_line(&Value::Object(obj)))?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        answer_of(obj).map_err(ClientError::Protocol)
    }

    /// Answer many queries over one wire line (one entry per query, in
    /// order; per-entry failures do not fail the batch).
    pub fn query_batch(
        &mut self,
        queries: &[CampaignQuery],
    ) -> Result<Vec<Result<RemoteAnswer, ServerError>>, ClientError> {
        let mut m = Map::new();
        if self.negotiated.is_some() {
            m.insert("v".into(), Value::UInt(wire::PROTOCOL_VERSION));
        }
        m.insert("type".into(), Value::String("batch".into()));
        m.insert(
            "queries".into(),
            Value::Array(queries.iter().map(wire::query_to_value).collect()),
        );
        let v = self.request(wire::to_line(&Value::Object(m)))?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        let answers = obj
            .get("answers")
            .and_then(|a| a.as_array())
            .ok_or_else(|| ClientError::Protocol("batch response lacks `answers`".into()))?;
        if answers.len() != queries.len() {
            return Err(ClientError::Protocol(format!(
                "batch response has {} entries for {} queries",
                answers.len(),
                queries.len()
            )));
        }
        answers
            .iter()
            .map(|entry| {
                let obj = object_of(entry)?;
                Ok(match failure_of(obj) {
                    Some(err) => Err(err),
                    None => Ok(answer_of(obj).map_err(ClientError::Protocol)?),
                })
            })
            .collect()
    }

    /// Server + engine counters.
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        let line = if self.negotiated.is_some() {
            r#"{"v": 2, "type": "stats"}"#
        } else {
            r#"{"type": "stats"}"#
        };
        let v = self.request(line.to_string())?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        let server = obj
            .get("server")
            .and_then(|s| s.as_object())
            .ok_or_else(|| ClientError::Protocol("stats response lacks `server`".into()))?;
        let engine = obj
            .get("engine")
            .and_then(|s| s.as_object())
            .ok_or_else(|| ClientError::Protocol("stats response lacks `engine`".into()))?;
        let g = |m: &Map, k: &str| u64_of(m.get(k)).unwrap_or(0);
        Ok(RemoteStats {
            connections: g(server, "connections"),
            busy_rejections: g(server, "busy_rejections"),
            requests: g(server, "requests"),
            server_queries: g(server, "queries"),
            errors: g(server, "errors"),
            mean_latency_seconds: f64_of(server.get("mean_latency_seconds")).unwrap_or(0.0),
            engine_queries: g(engine, "queries"),
            pool_selections: g(engine, "pool_selections"),
            welfare_evals: g(engine, "welfare_evals"),
            welfare_cache_hits: g(engine, "welfare_cache_hits"),
            conditioned_views: g(engine, "conditioned_views"),
            conditioned_hits: g(engine, "conditioned_hits"),
            shards_total: g(engine, "shards_total"),
            shards_loaded: g(engine, "shards_loaded"),
            store_bytes_on_disk: g(engine, "store_bytes_on_disk"),
            journal_records: g(engine, "journal_records"),
            journal_bytes: g(engine, "journal_bytes"),
            topups_total: g(engine, "topups_total"),
        })
    }

    /// Grow the server's sampled population to at least `theta` RR sets
    /// (wire v2 only; the server's backend must be a journaled store to
    /// accept a real deficit). Returns the population after the grow.
    /// Check [`CwelmaxClient::has_feature`]`("topup")` to probe support
    /// without a failing request.
    pub fn topup(&mut self, theta: usize) -> Result<u64, ClientError> {
        if self.negotiated.is_none() {
            return Err(ClientError::Protocol(
                "topup requires wire protocol v2 (server negotiated v1)".into(),
            ));
        }
        let mut m = Map::new();
        m.insert("v".into(), Value::UInt(wire::PROTOCOL_VERSION));
        m.insert("type".into(), Value::String("topup".into()));
        m.insert("theta".into(), Value::UInt(theta as u64));
        let v = self.request(wire::to_line(&Value::Object(m)))?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        u64_of(obj.get("theta"))
            .ok_or_else(|| ClientError::Protocol("topup response lacks `theta`".into()))
    }

    /// Scrape the server's full metrics registry (wire v2 only — the
    /// `"metrics"` request type does not exist in the v1 dialect, so a
    /// fallen-back connection fails fast instead of collecting the
    /// legacy unknown-type error). Check [`CwelmaxClient::has_feature`]
    /// with `"metrics"` to probe support without a failing request.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        if self.negotiated.is_none() {
            return Err(ClientError::Protocol(
                "metrics requires wire protocol v2 (server negotiated v1)".into(),
            ));
        }
        let v = self.request(r#"{"v": 2, "type": "metrics"}"#.to_string())?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        let payload = obj
            .get("metrics")
            .ok_or_else(|| ClientError::Protocol("metrics response lacks `metrics`".into()))?;
        MetricsSnapshot::from_value(payload)
            .ok_or_else(|| ClientError::Protocol("unintelligible metrics snapshot".into()))
    }

    /// Fetch the server's recently retained traces, newest first, up to
    /// `limit` (0 = everything retained). Wire v2 only, like
    /// [`CwelmaxClient::metrics`]; check
    /// [`CwelmaxClient::has_feature`]`("traces")` to probe support
    /// without a failing request.
    pub fn traces(&mut self, limit: usize) -> Result<Vec<Trace>, ClientError> {
        if self.negotiated.is_none() {
            return Err(ClientError::Protocol(
                "traces requires wire protocol v2 (server negotiated v1)".into(),
            ));
        }
        let mut m = Map::new();
        m.insert("v".into(), Value::UInt(wire::PROTOCOL_VERSION));
        m.insert("type".into(), Value::String("traces".into()));
        if limit > 0 {
            m.insert("limit".into(), Value::UInt(limit as u64));
        }
        let v = self.request(wire::to_line(&Value::Object(m)))?;
        let obj = object_of(&v)?;
        if let Some(err) = failure_of(obj) {
            return Err(ClientError::Server(err));
        }
        let traces = obj
            .get("traces")
            .and_then(|t| t.as_array())
            .ok_or_else(|| ClientError::Protocol("traces response lacks `traces`".into()))?;
        traces
            .iter()
            .map(|t| {
                Trace::from_value(t)
                    .ok_or_else(|| ClientError::Protocol("unintelligible trace payload".into()))
            })
            .collect()
    }

    /// Ask the server to stop gracefully (acknowledged before it does).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let line = if self.negotiated.is_some() {
            r#"{"v": 2, "type": "shutdown"}"#
        } else {
            r#"{"type": "shutdown"}"#
        };
        let v = self.request(line.to_string())?;
        let obj = object_of(&v)?;
        match failure_of(obj) {
            Some(err) => Err(ClientError::Server(err)),
            None => Ok(()),
        }
    }

    /// Send one line, read one line — reconnecting (and re-negotiating)
    /// once if the connection broke underneath us.
    fn request(&mut self, line: String) -> Result<Value, ClientError> {
        match self.conn.roundtrip(&line) {
            Ok(response) => parse_line(response),
            Err(_) => {
                // the socket died (restart, idle reap, broken pipe):
                // reconnect once and retry; a fresh failure is real
                let mut conn = Conn::open(&self.addr)?;
                self.negotiated = Self::negotiate(&mut conn)?;
                self.conn = conn;
                parse_line(self.conn.roundtrip(&line)?)
            }
        }
    }
}

fn parse_line(line: &str) -> Result<Value, ClientError> {
    serde_json::from_str(line)
        .map_err(|e| ClientError::Protocol(format!("unparseable response line: {e}")))
}

fn object_of(v: &Value) -> Result<&Map, ClientError> {
    v.as_object()
        .ok_or_else(|| ClientError::Protocol(format!("expected a response object, got {v:?}")))
}

/// `Some(error)` when the response object reports failure.
fn failure_of(obj: &Map) -> Option<ServerError> {
    if obj.get("ok") == Some(&Value::Bool(true)) {
        return None;
    }
    let mut err = match obj.get("error") {
        Some(err) => ServerError::from_value(err),
        None => ServerError {
            code: 0,
            kind: "error".into(),
            message: "server reported failure without an error payload".into(),
            retryable: false,
            retry_after_ms: None,
        },
    };
    // the back-off hint rides at the top level of the refusal line, next
    // to the (byte-pinned) `error`/`ok` pair
    err.retry_after_ms = u64_of(obj.get("retry_after_ms"));
    Some(err)
}

fn answer_of(obj: &Map) -> Result<RemoteAnswer, String> {
    let allocation: Vec<(u32, usize)> = match obj.get("allocation") {
        Some(a) => Deserialize::from_value(a).map_err(|e| format!("bad allocation: {e}"))?,
        None => return Err("answer lacks `allocation`".into()),
    };
    let sp: Vec<(u32, usize)> = match obj.get("sp") {
        Some(s) => Deserialize::from_value(s).map_err(|e| format!("bad sp: {e}"))?,
        None => Vec::new(),
    };
    Ok(RemoteAnswer {
        algorithm: obj
            .get("algorithm")
            .and_then(|a| a.as_str())
            .unwrap_or_default()
            .to_string(),
        allocation,
        sp,
        welfare: f64_of(obj.get("welfare")).ok_or("answer lacks `welfare`")?,
        elapsed_seconds: f64_of(obj.get("elapsed_seconds")).unwrap_or(0.0),
        trace: obj
            .get("trace")
            .and_then(|t| t.as_str())
            .map(str::to_string),
    })
}

fn u64_of(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::UInt(x)) => Some(*x),
        Some(Value::Int(x)) if *x >= 0 => Some(*x as u64),
        _ => None,
    }
}

fn f64_of(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Float(x)) => Some(*x),
        Some(Value::UInt(x)) => Some(*x as f64),
        Some(Value::Int(x)) => Some(*x as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_error_decodes_v2_objects_and_v1_strings() {
        let v2: Value = serde_json::from_str(
            r#"{"code": 422, "kind": "bad-query", "message": "too big", "retryable": false}"#,
        )
        .unwrap();
        let e = ServerError::from_value(&v2);
        assert_eq!(e.code, 422);
        assert_eq!(e.kind, "bad-query");
        assert_eq!(e.error_kind(), Some(ErrorKind::BadQuery));
        assert!(!e.retryable);

        let e = ServerError::from_value(&Value::String("boom".into()));
        assert_eq!(e.code, 0);
        assert_eq!(e.kind, "error");
        assert_eq!(e.message, "boom");
        assert_eq!(e.error_kind(), None);
    }

    #[test]
    fn unknown_future_kinds_degrade_gracefully() {
        let v: Value = serde_json::from_str(
            r#"{"code": 599, "kind": "quantum-flux", "message": "??", "retryable": true}"#,
        )
        .unwrap();
        let e = ServerError::from_value(&v);
        assert_eq!(e.code, 599);
        assert_eq!(e.error_kind(), None, "unknown kinds parse, not panic");
        assert!(e.retryable);
    }

    #[test]
    fn answers_decode_with_and_without_sp() {
        let v: Value = serde_json::from_str(
            r#"{"ok": true, "algorithm": "SeqGRD-NM", "allocation": [[3, 0], [7, 1]],
                "welfare": 41.5, "elapsed_seconds": 0.002}"#,
        )
        .unwrap();
        let a = answer_of(v.as_object().unwrap()).unwrap();
        assert_eq!(a.allocation, vec![(3, 0), (7, 1)]);
        assert!(a.sp.is_empty());
        assert_eq!(a.welfare, 41.5);

        let v: Value = serde_json::from_str(
            r#"{"ok": true, "algorithm": "MaxGRD", "allocation": [[1, 0]],
                "sp": [[9, 1]], "welfare": 7.0, "elapsed_seconds": 0.001}"#,
        )
        .unwrap();
        let a = answer_of(v.as_object().unwrap()).unwrap();
        assert_eq!(a.sp, vec![(9, 1)]);
    }
}
