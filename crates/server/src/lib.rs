//! # cwelmax-server
//!
//! A long-lived TCP front-end over one [`CampaignEngine`]: bind the graph
//! and RR-set index **once**, then answer campaign queries from many
//! concurrent connections — the serving shape the engine was built for
//! (`query-batch` re-loads both on every invocation, throwing away exactly
//! the amortization the index exists to provide).
//!
//! The protocol is newline-delimited JSON (`engine::wire`), **versioned
//! per line**: legacy v1 lines (no `"v"` field) are served byte-for-byte
//! as before, `{"v": 2, ...}` lines get versioned responses with
//! structured `{code, kind, message, retryable}` errors, and
//! `{"v": 2, "type": "hello"}` negotiates protocol, features, and server
//! version (the typed `cwelmax-client` does this on connect). Std-only —
//! no HTTP stack, no external dependencies. The request types:
//!
//! * a campaign query (bare object or `{"type": "query", ...}`, fresh or
//!   SP-conditioned via `"sp"`) — answered with the allocation, welfare,
//!   and latency;
//! * `{"type": "batch", "queries": [...]}` — many queries answered over
//!   one wire line (round-trip amortization; per-entry errors);
//! * `{"type": "stats"}` — server request/latency counters plus engine
//!   counters (pool selections, welfare-cache hits, conditioned views, …);
//! * `{"type": "shutdown"}` — graceful stop: in-flight requests finish,
//!   open connections are closed, `run()` returns.
//!
//! Threading model: one acceptor thread (the caller of
//! [`CampaignServer::run`]) plus one thread per connection, all borrowing
//! the shared engine — `CampaignEngine` is `&self`-queryable by
//! construction (immutable index + atomics + mutexed LRU cache), so no
//! request ever blocks another except on the welfare-cache mutex.
//! [`CampaignServer::with_max_conns`] caps concurrent connections:
//! arrivals past the cap get one JSON "server busy" line and a close
//! instead of an unbounded worker thread. Malformed input of any kind is
//! answered with a JSON error line; it never terminates the process, and
//! the connection only when the line never ends: past
//! [`MAX_REQUEST_LINE_BYTES`] the peer gets its error line and a close.
//!
//! ```no_run
//! use cwelmax_engine::CampaignEngine;
//! use cwelmax_server::CampaignServer;
//! use std::sync::Arc;
//!
//! # fn demo(engine: CampaignEngine) -> std::io::Result<()> {
//! let server = CampaignServer::bind(Arc::new(engine), "127.0.0.1:7878")?;
//! println!("serving on {}", server.local_addr());
//! let handle = server.handle(); // shut down from another thread
//! server.run()?;               // blocks until shutdown
//! # let _ = handle; Ok(())
//! # }
//! ```

use cwelmax_engine::wire::{self, Protocol, RequestKind, WireError};
use cwelmax_engine::{CampaignEngine, EngineStats};
use cwelmax_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramWindow, Logger, MetricsRegistry,
    TraceBuffer, TraceCtx, TraceIdGen,
};
use serde::{Map, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default retention capacity of the trace ring (`--trace-buffer`).
pub const DEFAULT_TRACE_BUFFER: usize = 256;

/// How long a busy-refused client should wait before retrying, echoed as
/// `retry_after_ms` on the refusal line. Connection slots free on the
/// order of a request round-trip, so a fixed small hint beats anything
/// derived from load at the refusal instant.
pub const BUSY_RETRY_AFTER_MS: u64 = 100;

/// Longest request line the server reads, newline excluded. The largest
/// legitimate line is a batch of inline-config queries at well under a
/// kilobyte each, so 4 MiB is thousands of entries; a peer that streams
/// past it gets one `bad-request` error line and a closed connection
/// instead of an allocation that grows until it sends a newline.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

/// What a connection's line buffers may keep between requests: one large
/// request does not pin its capacity for the connection's life.
const RETAINED_BUFFER_BYTES: usize = 64 << 10;

/// The sliding latency window v2 stats report percentiles over: 12
/// intervals of 5 s. Lifetime percentiles converge and stop moving on a
/// long-lived server; the windowed pair tracks what the server did in
/// the *last minute*.
const WINDOW_INTERVAL: Duration = Duration::from_secs(5);
const WINDOW_SLOTS: usize = 12;

/// Lock `m`, recovering the guard when a previous holder panicked. The
/// server's mutexes guard a slot vector and an `Arc<Logger>` swap —
/// both valid after any interrupted critical section — and a serving
/// thread must shed a poisoned lock, not propagate the panic
/// (the `no-panic-in-serving` invariant).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Point-in-time server counters (monotonic since bind).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused because the `--max-conns` limit was reached.
    pub busy_rejections: u64,
    /// Requests parsed off the wire (well-formed or not).
    pub requests: u64,
    /// Campaign queries answered successfully.
    pub queries: u64,
    /// Requests answered with an error response.
    pub errors: u64,
    /// Cumulative request-handling time in nanoseconds (divide by
    /// `requests` for the mean latency). Derived from the per-type
    /// latency histograms' exact sums — identical arithmetic to the
    /// flat counter it replaced.
    pub latency_nanos: u64,
}

/// The per-request-type latency histograms, `server.request_ns.<type>`
/// in the registry. Handles are fetched once at bind; recording is
/// lock-free.
struct RequestTimers {
    query: Arc<Histogram>,
    batch: Arc<Histogram>,
    stats: Arc<Histogram>,
    hello: Arc<Histogram>,
    metrics: Arc<Histogram>,
    traces: Arc<Histogram>,
    topup: Arc<Histogram>,
    shutdown: Arc<Histogram>,
    /// Lines that never parsed into a request (bad JSON, bad envelope,
    /// unsupported version) — they cost handling time too.
    invalid: Arc<Histogram>,
}

impl RequestTimers {
    fn new(reg: &MetricsRegistry) -> RequestTimers {
        RequestTimers {
            query: reg.histogram("server.request_ns.query"),
            batch: reg.histogram("server.request_ns.batch"),
            stats: reg.histogram("server.request_ns.stats"),
            hello: reg.histogram("server.request_ns.hello"),
            metrics: reg.histogram("server.request_ns.metrics"),
            traces: reg.histogram("server.request_ns.traces"),
            topup: reg.histogram("server.request_ns.topup"),
            shutdown: reg.histogram("server.request_ns.shutdown"),
            invalid: reg.histogram("server.request_ns.invalid"),
        }
    }

    fn of(&self, label: &'static str) -> &Arc<Histogram> {
        match label {
            "query" => &self.query,
            "batch" => &self.batch,
            "stats" => &self.stats,
            "hello" => &self.hello,
            "metrics" => &self.metrics,
            "traces" => &self.traces,
            "topup" => &self.topup,
            "shutdown" => &self.shutdown,
            _ => &self.invalid,
        }
    }

    /// All request types folded into one latency distribution — the
    /// `{"type": "stats"}` percentiles and the mean's exact sum.
    fn aggregate(&self) -> HistogramSnapshot {
        let mut agg = HistogramSnapshot::default();
        for h in [
            &self.query,
            &self.batch,
            &self.stats,
            &self.hello,
            &self.metrics,
            &self.traces,
            &self.topup,
            &self.shutdown,
            &self.invalid,
        ] {
            agg.merge(&h.snapshot());
        }
        agg
    }
}

/// State shared by the acceptor, every connection thread, and handles.
struct Shared {
    engine: Arc<CampaignEngine>,
    addr: SocketAddr,
    stop: AtomicBool,
    /// Concurrent-connection cap; 0 = unlimited.
    max_conns: AtomicUsize,
    /// Structured event log (connection lifecycle, IO errors, slow
    /// queries). Swappable at construction via `with_logger`; the lock
    /// is taken once per connection, not per request.
    log: Mutex<Arc<Logger>>,
    /// Monotonic connection ids for log correlation.
    next_conn_id: AtomicU64,
    connections: Arc<Counter>,
    accept_errors: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    requests: Arc<Counter>,
    queries: Arc<Counter>,
    errors: Arc<Counter>,
    parse_errors: Arc<Counter>,
    open_conns: Arc<Gauge>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    request_ns: RequestTimers,
    /// Sliding per-interval baselines over the aggregate latency
    /// histogram, backing the v2 stats `latency_window_*` fields.
    latency_window: HistogramWindow,
    /// Tail-sampled ring of completed request traces. Always present:
    /// with the default rate 0.0 only client-pinned traces are recorded,
    /// so an untraced request costs one atomic load.
    trace_buf: Arc<TraceBuffer>,
    /// Mints server-originated trace ids when `--trace-sample` is on.
    trace_ids: TraceIdGen,
    /// Clones of live connection streams, so shutdown can unblock their
    /// reader threads; slots are pruned as connections close. The count of
    /// occupied slots is also the live-connection count `--max-conns`
    /// enforces.
    conns: Mutex<Vec<Option<TcpStream>>>,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        self.stats_with(&self.request_ns.aggregate())
    }

    fn stats_with(&self, latency: &HistogramSnapshot) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            busy_rejections: self.busy_rejections.get(),
            requests: self.requests.get(),
            queries: self.queries.get(),
            errors: self.errors.get(),
            latency_nanos: latency.sum,
        }
    }

    fn logger(&self) -> Arc<Logger> {
        Arc::clone(&lock_recover(&self.log))
    }

    /// Flip the stop flag, close every live connection, and poke the
    /// listener so a blocked `accept` returns. Idempotent.
    fn shutdown(&self) {
        // AcqRel: the swap only elects the one thread that runs the
        // sweep below. The sweep itself synchronizes through the `conns`
        // mutex — a racing `register` either inserts before the sweep
        // (its stream gets closed here) or after the sweep's unlock, in
        // which case the mutex ordering makes this store visible to the
        // acceptor's post-register re-check. No full fence needed.
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // close only the read half: blocked reader threads unwind with
        // EOF, but a worker mid-query can still write its response —
        // "in-flight requests finish" is part of the shutdown contract
        for conn in lock_recover(&self.conns).iter().flatten() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // wake the acceptor: it re-checks `stop` after every accept
        let _ = TcpStream::connect(self.addr);
    }
}

/// A remote control for a running [`CampaignServer`] — safe to clone into
/// other threads.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Gracefully stop the server: in-flight requests finish, connections
    /// close, and [`CampaignServer::run`] returns.
    pub fn shutdown(&self) {
        self.shared.shutdown();
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Server counters snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The metrics registry the server records into (the engine's).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.shared.engine.metrics())
    }

    /// The server's tail-sampled trace buffer.
    pub fn trace_buffer(&self) -> Arc<TraceBuffer> {
        Arc::clone(&self.shared.trace_buf)
    }
}

/// The long-lived query server: one engine, many connections.
pub struct CampaignServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl CampaignServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over a
    /// loaded engine. Binding is cheap; the engine carries all the warm
    /// state.
    pub fn bind(engine: Arc<CampaignEngine>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // the server records into the engine's registry, so one
        // `{"type": "metrics"}` scrape sees the whole stack
        let reg = Arc::clone(engine.metrics());
        Ok(CampaignServer {
            listener,
            shared: Arc::new(Shared {
                engine,
                addr,
                stop: AtomicBool::new(false),
                max_conns: AtomicUsize::new(0),
                log: Mutex::new(Arc::new(Logger::new(cwelmax_obs::Level::Warn))),
                next_conn_id: AtomicU64::new(0),
                connections: reg.counter("server.connections"),
                accept_errors: reg.counter("server.accept_errors"),
                busy_rejections: reg.counter("server.busy_rejections"),
                requests: reg.counter("server.requests_total"),
                queries: reg.counter("server.queries"),
                errors: reg.counter("server.errors"),
                parse_errors: reg.counter("server.parse_errors"),
                open_conns: reg.gauge("server.open_conns"),
                bytes_read: reg.counter("server.bytes_read"),
                bytes_written: reg.counter("server.bytes_written"),
                request_ns: RequestTimers::new(&reg),
                latency_window: HistogramWindow::new(Instant::now(), WINDOW_INTERVAL, WINDOW_SLOTS),
                trace_buf: Arc::new(TraceBuffer::new(DEFAULT_TRACE_BUFFER)),
                // fixed seed: ids only need to be unique within one
                // server lifetime, and a deterministic stream keeps the
                // sampling decision reproducible across runs
                trace_ids: TraceIdGen::new(0x7261_6365_5F69_6473),
                conns: Mutex::new(Vec::new()),
            }),
        })
    }

    /// Replace the structured logger (default: warn-level to stderr).
    /// Call before [`CampaignServer::run`]; the CLI uses this to apply
    /// `--log-level` and the slow-query threshold. The logger's
    /// slow-query threshold doubles as the trace buffer's "always keep"
    /// rule: a request slow enough to warn about is slow enough to keep
    /// the trace of.
    pub fn with_logger(self, logger: Arc<Logger>) -> Self {
        self.shared.trace_buf.set_slow_ns(logger.slow_query_ns());
        *lock_recover(&self.shared.log) = logger;
        self
    }

    /// Probability of retaining an unremarkable request trace
    /// (`--trace-sample`; default 0.0). Any non-zero rate turns span
    /// recording on for *every* request — tail-based retention needs the
    /// finished trace to decide — while 0.0 records only client-pinned
    /// traces.
    pub fn with_trace_sample(self, rate: f64) -> Self {
        self.shared.trace_buf.set_sample_rate(rate);
        self
    }

    /// Retention capacity of the trace ring (`--trace-buffer`; default
    /// [`DEFAULT_TRACE_BUFFER`], 0 disables retention entirely).
    pub fn with_trace_buffer(self, cap: usize) -> Self {
        self.shared.trace_buf.set_capacity(cap);
        self
    }

    /// The tail-sampled trace buffer (tests and embedders inspect it
    /// directly; the wire surface is `{"v": 2, "type": "traces"}`).
    pub fn trace_buffer(&self) -> Arc<TraceBuffer> {
        Arc::clone(&self.shared.trace_buf)
    }

    /// The metrics registry this server records into (the engine's).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.shared.engine.metrics())
    }

    /// Cap concurrent connections at `n` (0 = unlimited). A connection
    /// arriving at the cap is answered with **one** JSON "server busy"
    /// line and closed instead of getting an unbounded worker thread —
    /// overload sheds load at accept time rather than by thread
    /// exhaustion, and the refusal is machine-readable so clients can
    /// back off and retry.
    pub fn with_max_conns(self, n: usize) -> Self {
        // Relaxed: written once here, before `run` spawns any thread
        // (spawn itself is the happens-before edge), and the admission
        // check that enforces the cap reads it under the `conns` mutex.
        self.shared.max_conns.store(n, Ordering::Relaxed);
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A clonable handle for shutdown and stats from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Serve until shutdown (via [`ServerHandle::shutdown`] or a
    /// `{"type": "shutdown"}` request). Blocks the calling thread; every
    /// accepted connection gets its own worker thread, all joined before
    /// this returns.
    pub fn run(self) -> std::io::Result<()> {
        let shared = &self.shared;
        let log = shared.logger();
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                // Acquire (pairs with the AcqRel swap in `shutdown`):
                // sufficient — the state shutdown mutates is behind the
                // `conns` mutex, the flag itself is the only payload
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                let stream = match stream {
                    Ok(s) => s,
                    // accept errors (aborted handshake, fd exhaustion)
                    // must not take the server down; back off briefly so
                    // a persistent error cannot busy-spin the acceptor
                    Err(e) => {
                        shared.accept_errors.incr();
                        log.warn("accept_error", &[("error", e.to_string().to_value())]);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        continue;
                    }
                };
                let slot = match register(shared, &stream) {
                    Registration::Slot(slot) => slot,
                    // at the --max-conns cap: shed load with one clean
                    // JSON refusal instead of an unbounded worker thread
                    Registration::Busy => {
                        shared.busy_rejections.incr();
                        log.info(
                            "busy_rejection",
                            &[(
                                "max_conns",
                                shared.max_conns.load(Ordering::Relaxed).to_value(),
                            )],
                        );
                        refuse_busy(shared, stream);
                        continue;
                    }
                    // a connection shutdown cannot reach (clone failure
                    // under fd pressure) would hang the final join —
                    // refuse it
                    Registration::Failed => {
                        log.warn("conn_register_failed", &[]);
                        continue;
                    }
                };
                // re-check *after* registering: a shutdown between the
                // check above and `register` has already swept `conns`
                // and would never close this stream. Acquire suffices:
                // `register` took the `conns` mutex after the sweep
                // released it, which orders the sweep's flag store
                // before this load.
                if shared.stop.load(Ordering::Acquire) {
                    let _ = stream.shutdown(Shutdown::Both);
                    lock_recover(&shared.conns)[slot] = None;
                    break;
                }
                shared.connections.incr();
                shared.open_conns.add(1);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                scope.spawn(move || {
                    serve_connection(shared, stream, conn_id);
                    lock_recover(&shared.conns)[slot] = None;
                    shared.open_conns.sub(1);
                });
            }
        });
        Ok(())
    }
}

/// Outcome of trying to admit a new connection.
enum Registration {
    /// Admitted; the slot index in `Shared::conns`.
    Slot(usize),
    /// Refused: the `--max-conns` limit is reached.
    Busy,
    /// The stream could not be cloned (fd pressure) — drop it.
    Failed,
}

/// Park a clone of the stream where `Shared::shutdown` can reach it. The
/// occupancy check and the insertion happen under one lock, so the
/// connection cap cannot be raced past.
fn register(shared: &Shared, stream: &TcpStream) -> Registration {
    let Ok(clone) = stream.try_clone() else {
        return Registration::Failed;
    };
    let mut conns = lock_recover(&shared.conns);
    // Relaxed: set once before any thread existed; see `with_max_conns`
    let max = shared.max_conns.load(Ordering::Relaxed);
    if max > 0 && conns.iter().flatten().count() >= max {
        return Registration::Busy;
    }
    match conns.iter().position(Option::is_none) {
        Some(i) => {
            conns[i] = Some(clone);
            Registration::Slot(i)
        }
        None => {
            conns.push(Some(clone));
            Registration::Slot(conns.len() - 1)
        }
    }
}

/// Answer an over-limit connection with one JSON error line and close it.
fn refuse_busy(shared: &Shared, stream: TcpStream) {
    // Relaxed: the refusal message only echoes the configured cap
    let max = shared.max_conns.load(Ordering::Relaxed);
    let mut body = wire::error_response(&format!(
        "server busy: connection limit {max} reached, retry later"
    ));
    // machine-readable back-off hint; a top-level key (not inside the
    // error body) keeps the historical `error`/`ok` bytes untouched
    if let Value::Object(m) = &mut body {
        m.insert("retry_after_ms".into(), Value::UInt(BUSY_RETRY_AFTER_MS));
    }
    let mut text = wire::to_line(&body);
    text.push('\n');
    let _ = (&stream).write_all(text.as_bytes());
    close_after_refusal(&stream);
}

/// Close a connection whose peer may still be sending, after the refusal
/// line is written. Closing with the peer's bytes still unread makes the
/// kernel answer with RST, which can discard the refusal before the peer
/// reads it. Half-close instead and drain until the peer hangs up —
/// bounded, so a silent or endless peer holds the thread no longer than
/// the back-off a busy refusal itself asks for.
fn close_after_refusal(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(BUSY_RETRY_AFTER_MS);
    let mut sink = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match (&*stream).read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

/// One connection: read request lines, write response lines, until EOF,
/// an unrecoverable socket error, an outsized line, or shutdown. One
/// line buffer serves every request of the connection, and each response
/// goes to the socket as one write that already ends in its newline.
fn serve_connection(shared: &Shared, stream: TcpStream, conn_id: u64) {
    let log = shared.logger();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            log.warn("conn_clone_failed", &[("conn", conn_id.to_value())]);
            return;
        }
    });
    log.debug("conn_open", &[("conn", conn_id.to_value())]);
    let mut writer = stream;
    let mut line = String::new();
    let mut req_no = 0u64;
    loop {
        line.clear();
        line.shrink_to(RETAINED_BUFFER_BYTES);
        // `read_line` alone reads until a newline, however far away: the
        // cap (+ 1, for the newline of a line of exactly the cap) is put
        // on the reader it draws from
        let mut capped = (&mut reader).take(MAX_REQUEST_LINE_BYTES as u64 + 1);
        let read = match capped.read_line(&mut line) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) => {
                // connection reset / shutdown mid-read
                log.warn(
                    "conn_read_error",
                    &[
                        ("conn", conn_id.to_value()),
                        ("error", e.to_string().to_value()),
                    ],
                );
                break;
            }
        };
        shared.bytes_read.add(read as u64);
        if line.trim().is_empty() {
            continue; // blank keep-alive lines are not requests
        }
        req_no += 1;
        let start = Instant::now();
        let outsized = read > MAX_REQUEST_LINE_BYTES && !line.ends_with('\n');
        let (response, is_shutdown, label) = if outsized {
            shared.errors.incr();
            shared.parse_errors.incr();
            let err = WireError::bad_request(format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
            ));
            // the dialect of a line that was never parsed is unknown: v1,
            // as for every other line that never parsed
            let body = wire::wire_error_response(&err, Protocol::V1);
            (body, false, "invalid")
        } else {
            handle_line(shared, &line)
        };
        let elapsed_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared.requests.incr();
        shared.request_ns.of(label).record(elapsed_ns);
        log.slow(
            elapsed_ns,
            &[
                ("conn", conn_id.to_value()),
                ("req", req_no.to_value()),
                ("request_type", label.to_value()),
            ],
        );
        let mut text = wire::to_line(&response);
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() || writer.flush().is_err() {
            log.warn(
                "conn_write_error",
                &[("conn", conn_id.to_value()), ("req", req_no.to_value())],
            );
            break;
        }
        shared.bytes_written.add(text.len() as u64);
        if outsized {
            log.warn("conn_line_too_long", &[("conn", conn_id.to_value())]);
            close_after_refusal(&writer);
            break;
        }
        if is_shutdown {
            shared.shutdown();
            break;
        }
    }
    log.debug(
        "conn_closed",
        &[
            ("conn", conn_id.to_value()),
            ("requests", req_no.to_value()),
        ],
    );
}

/// Answer one request line. Returns the response, whether it was a
/// shutdown request (acted on by the caller *after* the response is
/// written, so the client gets an acknowledgement), and the request-type
/// label its latency is recorded under. The response is encoded in the
/// dialect the request spoke — v1 lines get the exact historical bytes,
/// `"v": 2` lines get versioned responses with structured errors.
fn handle_line(shared: &Shared, line: &str) -> (Value, bool, &'static str) {
    let request = match wire::parse_request_line(line) {
        Ok(r) => r,
        Err((proto, err)) => {
            shared.errors.incr();
            shared.parse_errors.incr();
            return (wire::wire_error_response(&err, proto), false, "invalid");
        }
    };
    let id = request.id.as_ref();
    let proto = request.proto;
    match request.kind {
        RequestKind::Query(q) => {
            let ctx = trace_ctx(shared, request.trace);
            let result = {
                let root = ctx.as_ref().map(|c| c.root().span("server.query"));
                let scope = root.as_ref().map(|s| s.scope());
                shared.engine.query_traced(&q, scope)
            };
            let body = match result {
                Ok(answer) => {
                    shared.queries.incr();
                    wire::answer_response(&answer, proto)
                }
                Err(e) => {
                    shared.errors.incr();
                    if let Some(c) = &ctx {
                        c.mark_error();
                    }
                    wire::wire_error_response(&WireError::from_engine(&e), proto)
                }
            };
            let body = wire::with_trace(body, ctx.as_ref().map(TraceCtx::trace_id), proto);
            if let Some(c) = ctx {
                shared.trace_buf.offer(c.finish());
            }
            (wire::with_id(body, id), false, "query")
        }
        RequestKind::Batch(entries) => {
            let ctx = trace_ctx(shared, request.trace);
            // run the parseable entries through the engine's batch path
            // (warm entries on this thread, the rest on workers), then
            // re-interleave with the parse errors so the response is
            // positional
            let runnable: Vec<_> = entries.iter().filter_map(|r| r.clone().ok()).collect();
            let batch_answers = {
                let root = ctx.as_ref().map(|c| c.root().span("server.batch"));
                let scope = root.as_ref().map(|s| s.scope());
                shared.engine.query_batch_traced(&runnable, 0, scope)
            };
            let mut answers = batch_answers.into_iter();
            let rows: Vec<Result<_, WireError>> = entries
                .iter()
                .map(|r| match r {
                    Ok(_) => answers
                        .next()
                        // lint:allow(no-panic-in-serving) -- `query_batch` returns exactly one answer per runnable entry by construction
                        .expect("one answer per runnable query")
                        .map_err(|e| WireError::from_engine(&e)),
                    Err(e) => Err(WireError::bad_request(e.clone())),
                })
                .collect();
            for row in &rows {
                match row {
                    Ok(_) => shared.queries.incr(),
                    Err(_) => {
                        shared.errors.incr();
                        if let Some(c) = &ctx {
                            c.mark_error();
                        }
                    }
                };
            }
            let body = wire::with_trace(
                wire::batch_response(&rows, proto),
                ctx.as_ref().map(TraceCtx::trace_id),
                proto,
            );
            if let Some(c) = ctx {
                shared.trace_buf.offer(c.finish());
            }
            (wire::with_id(body, id), false, "batch")
        }
        RequestKind::Stats => {
            let latency = shared.request_ns.aggregate();
            let windowed = shared.latency_window.observe(&latency, Instant::now());
            (
                wire::with_id(
                    wire::with_version(
                        stats_response(
                            &shared.stats_with(&latency),
                            &latency,
                            &windowed,
                            shared.latency_window.window(),
                            &shared.engine.stats(),
                            proto,
                        ),
                        proto,
                    ),
                    id,
                ),
                false,
                "stats",
            )
        }
        RequestKind::Hello => (wire::with_id(wire::hello_response(), id), false, "hello"),
        RequestKind::Metrics => (
            wire::with_id(
                wire::metrics_response(&shared.engine.metrics().snapshot()),
                id,
            ),
            false,
            "metrics",
        ),
        RequestKind::Traces { limit } => {
            let traces: Vec<Value> = shared
                .trace_buf
                .recent(limit)
                .iter()
                .map(|t| t.to_value())
                .collect();
            (
                wire::with_id(wire::traces_response(&traces), id),
                false,
                "traces",
            )
        }
        RequestKind::Topup { theta } => {
            let body = match shared.engine.ensure_theta(theta) {
                Ok(have) => wire::topup_response(have),
                Err(e) => {
                    shared.errors.incr();
                    wire::wire_error_response(&WireError::from_engine(&e), proto)
                }
            };
            (wire::with_id(body, id), false, "topup")
        }
        RequestKind::Shutdown => {
            let mut m = Map::new();
            m.insert("ok".into(), Value::Bool(true));
            m.insert("shutting_down".into(), Value::Bool(true));
            (
                wire::with_id(wire::with_version(Value::Object(m), proto), id),
                true,
                "shutdown",
            )
        }
    }
}

/// Start a trace for one request, if anything will want it: a
/// client-supplied id is always recorded (pinned past sampling — the
/// client asked by name), and a non-zero sample rate records every
/// request so the tail rule can decide at completion. Neither → `None`,
/// and the whole span machinery is skipped.
fn trace_ctx(shared: &Shared, client: Option<u64>) -> Option<TraceCtx> {
    match client {
        Some(id) => Some(TraceCtx::new(id, true)),
        None if shared.trace_buf.sample_rate() > 0.0 => {
            Some(TraceCtx::new(shared.trace_ids.mint(), false))
        }
        None => None,
    }
}

/// The stats response body: server counters + engine counters. The v1
/// body is byte-for-byte what it has always been; v2 adds histogram
/// percentiles of per-request handling time (`latency` aggregates every
/// request type) and their sliding-window counterparts (`windowed`, the
/// last `window` of it).
fn stats_response(
    server: &ServerStats,
    latency: &HistogramSnapshot,
    windowed: &HistogramSnapshot,
    window: Duration,
    engine: &EngineStats,
    proto: Protocol,
) -> Value {
    let mut s = Map::new();
    s.insert("connections".into(), server.connections.to_value());
    s.insert("busy_rejections".into(), server.busy_rejections.to_value());
    s.insert("requests".into(), server.requests.to_value());
    s.insert("queries".into(), server.queries.to_value());
    s.insert("errors".into(), server.errors.to_value());
    let mean_seconds = if server.requests > 0 {
        server.latency_nanos as f64 / server.requests as f64 / 1e9
    } else {
        0.0
    };
    s.insert("mean_latency_seconds".into(), mean_seconds.to_value());
    if proto == Protocol::V2 {
        s.insert("latency_p50_ns".into(), latency.quantile(0.50).to_value());
        s.insert("latency_p99_ns".into(), latency.quantile(0.99).to_value());
        s.insert("latency_max_ns".into(), latency.max.to_value());
        s.insert(
            "latency_window_p50_ns".into(),
            windowed.quantile(0.50).to_value(),
        );
        s.insert(
            "latency_window_p99_ns".into(),
            windowed.quantile(0.99).to_value(),
        );
        s.insert("latency_window_requests".into(), windowed.count.to_value());
        s.insert("latency_window_seconds".into(), window.as_secs().to_value());
    }
    let mut engine_v = wire::engine_stats_value(engine);
    if proto == Protocol::V2 {
        // journal/top-up counters postdate v1, whose engine block is
        // byte-pinned — they ride only on v2 stats
        if let Value::Object(e) = &mut engine_v {
            e.insert("journal_records".into(), engine.journal_records.to_value());
            e.insert("journal_bytes".into(), engine.journal_bytes.to_value());
            e.insert("topups_total".into(), engine.topups_total.to_value());
        }
    }
    let mut m = Map::new();
    m.insert("ok".into(), Value::Bool(true));
    m.insert("server".into(), Value::Object(s));
    m.insert("engine".into(), engine_v);
    Value::Object(m)
}
