//! Request-scoped tracing: span trees, deterministic trace ids, and a
//! bounded tail-sampled [`TraceBuffer`] of completed traces.
//!
//! ## Model
//!
//! A [`TraceCtx`] is one request's trace: a 64-bit trace id plus a flat,
//! append-only list of timed [`SpanRecord`]s. Code that wants to emit
//! spans takes an `Option<TraceScope>` — a `Copy` handle naming the
//! trace and the span to parent under — and opens children with
//! [`TraceScope::span`]. The returned [`SpanGuard`] is RAII: it stamps
//! the start offset at creation, collects typed attributes, and pushes
//! the finished record on drop. Because records are flat (`parent` is a
//! span id, not a reference), guards can drop on any thread in any
//! order — `query_batch` workers and store shard-fault workers record
//! into one trace without coordination beyond a short mutex push.
//!
//! [`TraceCtx::finish`] reassembles the flat records into a [`Trace`]:
//! a tree of [`SpanNode`]s sorted by start offset, serialized as
//! deterministic key-sorted JSON ([`Trace::to_value`] /
//! [`Trace::from_value`] round-trip).
//!
//! ## Tail-based retention
//!
//! The cost decision (trace this request at all?) is made at request
//! start; the *keep* decision is made at completion, when the outcome
//! is known — that is what makes it tail sampling:
//!
//! * error traces are always kept;
//! * traces at least as slow as the configured threshold are always
//!   kept;
//! * pinned traces (the client supplied the trace id and expects to
//!   find it again) are always kept;
//! * everything else is sampled with probability `rate`, decided by a
//!   **deterministic** hash of the trace id — the same id always makes
//!   the same decision, so tests and replays agree.
//!
//! The buffer is a bounded ring: accepting a trace beyond capacity
//! evicts the oldest. All ids are deterministic ([`TraceIdGen`] is a
//! seeded splitmix64 stream), so a server given the same requests
//! produces the same trace ids and the same retention decisions.

use crate::hist::bucket_of;
use serde::{Map, Serialize, Value};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl AttrValue {
    fn to_value(&self) -> Value {
        match self {
            AttrValue::U64(v) => Serialize::to_value(v),
            AttrValue::I64(v) => Serialize::to_value(v),
            AttrValue::F64(v) => Serialize::to_value(v),
            AttrValue::Bool(v) => Serialize::to_value(v),
            AttrValue::Str(v) => Serialize::to_value(v),
        }
    }

    fn from_value(v: &Value) -> Option<AttrValue> {
        match v {
            Value::UInt(u) => Some(AttrValue::U64(*u)),
            // the JSON layer has one integer type; non-negative comes
            // back as the unsigned variant it was almost surely sent as
            Value::Int(i) if *i >= 0 => Some(AttrValue::U64(*i as u64)),
            Value::Int(i) => Some(AttrValue::I64(*i)),
            Value::Float(f) => Some(AttrValue::F64(*f)),
            Value::Bool(b) => Some(AttrValue::Bool(*b)),
            Value::String(s) => Some(AttrValue::Str(s.clone())),
            _ => None,
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// One completed span, flat form: `parent` is the id of the enclosing
/// span (0 = a root of the trace), offsets are nanoseconds since the
/// trace started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Shared interior of one in-flight trace.
#[derive(Debug)]
struct TraceShared {
    start: Instant,
    next_span: AtomicU64,
    error: AtomicBool,
    spans: Mutex<Vec<SpanRecord>>,
}

/// One request's in-flight trace. Create with [`TraceCtx::new`], hand
/// out [`TraceScope`]s via [`TraceCtx::root`], and assemble the final
/// [`Trace`] with [`TraceCtx::finish`].
#[derive(Debug)]
pub struct TraceCtx {
    trace_id: u64,
    /// True when the client supplied the trace id (always retained).
    pinned: bool,
    shared: Arc<TraceShared>,
}

impl TraceCtx {
    /// Start a trace now. `pinned` marks a client-originated trace id —
    /// the buffer retains it unconditionally so the client can fetch it
    /// back.
    pub fn new(trace_id: u64, pinned: bool) -> TraceCtx {
        TraceCtx {
            trace_id,
            pinned,
            shared: Arc::new(TraceShared {
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                error: AtomicBool::new(false),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// This trace's id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The top-level scope — spans opened on it are roots of the tree.
    pub fn root(&self) -> TraceScope<'_> {
        TraceScope {
            ctx: self,
            parent: 0,
        }
    }

    /// Mark the whole trace as failed (tail retention always keeps it).
    pub fn mark_error(&self) {
        self.shared.error.store(true, Relaxed);
    }

    fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.shared.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Close the trace: total duration stamped now, flat records
    /// reassembled into a tree (children sorted by start offset; a
    /// record whose parent never closed becomes a root rather than
    /// being dropped).
    pub fn finish(self) -> Trace {
        let duration_ns = self.elapsed_ns();
        let error = self.shared.error.load(Relaxed);
        let mut records = std::mem::take(&mut *self.shared.spans.lock().unwrap());
        records.sort_by_key(|r| (r.start_ns, r.id));
        let ids: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
        let mut nodes: std::collections::HashMap<u64, SpanNode> = records
            .iter()
            .map(|r| {
                (
                    r.id,
                    SpanNode {
                        name: r.name.to_string(),
                        start_ns: r.start_ns,
                        end_ns: r.end_ns,
                        attrs: r
                            .attrs
                            .iter()
                            .map(|(k, v)| (k.to_string(), v.clone()))
                            .collect(),
                        children: Vec::new(),
                    },
                )
            })
            .collect();
        // children attach to parents deepest-first: records were pushed
        // in drop order (children close before parents), so walking the
        // start-sorted list *backwards* moves leaves into their parents
        // before the parents move themselves
        let mut roots = Vec::new();
        for r in records.iter().rev() {
            let node = match nodes.remove(&r.id) {
                Some(n) => n,
                None => continue,
            };
            if r.parent != 0 && ids.contains(&r.parent) {
                if let Some(p) = nodes.get_mut(&r.parent) {
                    p.children.push(node);
                    continue;
                }
            }
            roots.push(node);
        }
        roots.reverse();
        for n in &mut roots {
            n.sort_children();
        }
        Trace {
            trace_id: self.trace_id,
            pinned: self.pinned,
            error,
            duration_ns,
            spans: roots,
        }
    }
}

/// A `Copy` handle naming (trace, parent span) — what instrumented code
/// threads through call chains as `Option<TraceScope>`.
#[derive(Clone, Copy, Debug)]
pub struct TraceScope<'a> {
    ctx: &'a TraceCtx,
    parent: u64,
}

impl<'a> TraceScope<'a> {
    /// Open a child span under this scope. The guard records on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard<'a> {
        let id = self.ctx.shared.next_span.fetch_add(1, Relaxed);
        SpanGuard {
            ctx: self.ctx,
            id,
            parent: self.parent,
            name,
            start_ns: self.ctx.elapsed_ns(),
            end_ns: None,
            attrs: Vec::new(),
        }
    }

    /// The owning trace's id.
    pub fn trace_id(&self) -> u64 {
        self.ctx.trace_id
    }

    /// Mark the owning trace as failed.
    pub fn mark_error(&self) {
        self.ctx.mark_error();
    }
}

/// RAII span: records a [`SpanRecord`] into the trace when dropped.
pub struct SpanGuard<'a> {
    ctx: &'a TraceCtx,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    /// Set by [`SpanGuard::stop`]; otherwise the span ends when dropped.
    end_ns: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl<'a> SpanGuard<'a> {
    /// Attach a typed attribute to this span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.attrs.push((key, value.into()));
    }

    /// A scope parented under this span — pass it down to nest children.
    pub fn scope(&self) -> TraceScope<'a> {
        TraceScope {
            ctx: self.ctx,
            parent: self.id,
        }
    }
}

impl SpanGuard<'_> {
    /// End the span now and keep the guard: it is still recorded on drop
    /// (with this end time) or thrown away by [`SpanGuard::discard`] —
    /// for work whose fate is decided after it is done.
    pub fn stop(&mut self) {
        self.end_ns = Some(self.ctx.elapsed_ns());
    }

    /// Close the span without recording it — for a probe that turned out
    /// not to be the work the span names.
    pub fn discard(self) {
        let mut span = std::mem::ManuallyDrop::new(self);
        drop(std::mem::take(&mut span.attrs));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.end_ns.unwrap_or_else(|| self.ctx.elapsed_ns()),
            attrs: std::mem::take(&mut self.attrs),
        };
        self.ctx.shared.spans.lock().unwrap().push(record);
    }
}

/// One node of a finished span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Attributes in insertion order (serialized key-sorted).
    pub attrs: Vec<(String, AttrValue)>,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn sort_children(&mut self) {
        self.children.sort_by_key(|a| a.start_ns);
        for c in &mut self.children {
            c.sort_children();
        }
    }

    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("name".into(), Serialize::to_value(&self.name));
        m.insert("start_ns".into(), Serialize::to_value(&self.start_ns));
        m.insert("end_ns".into(), Serialize::to_value(&self.end_ns));
        if !self.attrs.is_empty() {
            let mut attrs = Map::new();
            for (k, v) in &self.attrs {
                attrs.insert(k.clone(), v.to_value());
            }
            m.insert("attrs".into(), Value::Object(attrs));
        }
        if !self.children.is_empty() {
            m.insert(
                "spans".into(),
                Value::Array(self.children.iter().map(SpanNode::to_value).collect()),
            );
        }
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Option<SpanNode> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        let name = match m.get("name")? {
            Value::String(s) => s.clone(),
            _ => return None,
        };
        let mut attrs = Vec::new();
        if let Some(a) = m.get("attrs") {
            let am = match a {
                Value::Object(am) => am,
                _ => return None,
            };
            for (k, v) in am {
                attrs.push((k.clone(), AttrValue::from_value(v)?));
            }
        }
        let mut children = Vec::new();
        if let Some(s) = m.get("spans") {
            let arr = match s {
                Value::Array(arr) => arr,
                _ => return None,
            };
            for c in arr {
                children.push(SpanNode::from_value(c)?);
            }
        }
        Some(SpanNode {
            name,
            start_ns: uint_of(m.get("start_ns")?)?,
            end_ns: uint_of(m.get("end_ns")?)?,
            attrs,
            children,
        })
    }
}

fn uint_of(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// A completed trace: id, outcome, and the span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub trace_id: u64,
    /// The client supplied the trace id (always retained).
    pub pinned: bool,
    /// The request failed (always retained).
    pub error: bool,
    pub duration_ns: u64,
    /// Root spans, sorted by start offset.
    pub spans: Vec<SpanNode>,
}

/// Render a trace id the way the wire shows it: 16 lowercase hex digits.
pub fn format_trace_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parse a wire trace id: a hex string (with or without leading zeros).
pub fn parse_trace_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

impl Trace {
    /// Deterministic key-sorted JSON view (the wire `traces` payload).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "trace_id".into(),
            Serialize::to_value(&format_trace_id(self.trace_id)),
        );
        m.insert("pinned".into(), Serialize::to_value(&self.pinned));
        m.insert("error".into(), Serialize::to_value(&self.error));
        m.insert("duration_ns".into(), Serialize::to_value(&self.duration_ns));
        m.insert(
            "spans".into(),
            Value::Array(self.spans.iter().map(SpanNode::to_value).collect()),
        );
        Value::Object(m)
    }

    /// Parse [`Trace::to_value`] output back (None on any shape
    /// mismatch — wire payloads are untrusted).
    pub fn from_value(v: &Value) -> Option<Trace> {
        let m = match v {
            Value::Object(m) => m,
            _ => return None,
        };
        let trace_id = match m.get("trace_id")? {
            Value::String(s) => parse_trace_id(s)?,
            _ => return None,
        };
        let spans = match m.get("spans")? {
            Value::Array(arr) => arr
                .iter()
                .map(SpanNode::from_value)
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(Trace {
            trace_id,
            pinned: matches!(m.get("pinned")?, Value::Bool(true)),
            error: matches!(m.get("error")?, Value::Bool(true)),
            duration_ns: uint_of(m.get("duration_ns")?)?,
            spans,
        })
    }

    /// Depth-first search for the first span with this name.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        fn walk<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
            for n in nodes {
                if n.name == name {
                    return Some(n);
                }
                if let Some(hit) = walk(&n.children, name) {
                    return Some(hit);
                }
            }
            None
        }
        walk(&self.spans, name)
    }

    /// Every span name in the tree, depth-first.
    pub fn span_names(&self) -> Vec<String> {
        fn walk(nodes: &[SpanNode], out: &mut Vec<String>) {
            for n in nodes {
                out.push(n.name.clone());
                walk(&n.children, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.spans, &mut out);
        out
    }
}

/// splitmix64 — the deterministic mixer behind trace-id generation and
/// sampling decisions.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic trace-id stream: seeded splitmix64 over a counter, so
/// a server handed the same request sequence mints the same ids.
#[derive(Debug)]
pub struct TraceIdGen {
    seed: u64,
    next: AtomicU64,
}

impl TraceIdGen {
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen {
            seed,
            next: AtomicU64::new(0),
        }
    }

    /// Mint the next id (never 0 — 0 is reserved as "no parent").
    pub fn mint(&self) -> u64 {
        let n = self.next.fetch_add(1, Relaxed);
        splitmix64(self.seed ^ n).max(1)
    }
}

/// Deterministic sampling decision: keep `trace_id` at `rate` ∈ [0, 1].
/// The same id always decides the same way.
pub fn sampled(trace_id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    // top 53 bits → uniform in [0, 1)
    let u = (splitmix64(trace_id) >> 11) as f64 / (1u64 << 53) as f64;
    u < rate
}

/// Bounded ring of completed traces with tail-based retention — see the
/// module docs for the keep rule.
#[derive(Debug)]
pub struct TraceBuffer {
    cap: AtomicUsize,
    /// Sampling rate for unremarkable traces, stored as `f64` bits.
    rate_bits: AtomicU64,
    /// "Slow" threshold in ns (0 = no slow rule).
    slow_ns: AtomicU64,
    completed: AtomicU64,
    kept: AtomicU64,
    ring: Mutex<VecDeque<Arc<Trace>>>,
}

impl TraceBuffer {
    /// A buffer holding at most `cap` traces (0 disables retention
    /// entirely — every offer is dropped).
    pub fn new(cap: usize) -> TraceBuffer {
        TraceBuffer {
            cap: AtomicUsize::new(cap),
            rate_bits: AtomicU64::new(0.0f64.to_bits()),
            slow_ns: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Probability of keeping an unremarkable trace.
    pub fn set_sample_rate(&self, rate: f64) {
        self.rate_bits
            .store(rate.clamp(0.0, 1.0).to_bits(), Relaxed);
    }

    pub fn sample_rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Relaxed))
    }

    /// Traces at least this slow are always kept (0 disables the rule).
    pub fn set_slow_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Relaxed);
    }

    pub fn slow_ns(&self) -> u64 {
        self.slow_ns.load(Relaxed)
    }

    /// Maximum number of retained traces.
    pub fn capacity(&self) -> usize {
        self.cap.load(Relaxed)
    }

    /// Resize the retention cap (0 disables retention; shrinking evicts
    /// the oldest retained traces immediately).
    pub fn set_capacity(&self, cap: usize) {
        self.cap.store(cap, Relaxed);
        let mut ring = self.ring.lock().unwrap();
        while ring.len() > cap {
            ring.pop_front();
        }
    }

    /// Traces offered to the buffer (kept or not).
    pub fn completed(&self) -> u64 {
        self.completed.load(Relaxed)
    }

    /// Traces the tail rule retained.
    pub fn kept(&self) -> u64 {
        self.kept.load(Relaxed)
    }

    /// Tail-retention decision + ring insert. Returns whether the trace
    /// was kept.
    pub fn offer(&self, trace: Trace) -> bool {
        self.completed.fetch_add(1, Relaxed);
        let cap = self.capacity();
        if cap == 0 {
            return false;
        }
        let slow_ns = self.slow_ns();
        let keep = trace.pinned
            || trace.error
            || (slow_ns > 0 && trace.duration_ns >= slow_ns)
            || sampled(trace.trace_id, self.sample_rate());
        if !keep {
            return false;
        }
        self.kept.fetch_add(1, Relaxed);
        // allocate outside the ring lock; the critical section is just
        // the two pointer moves
        let trace = Arc::new(trace);
        let mut ring = self.ring.lock().unwrap();
        while ring.len() >= cap {
            ring.pop_front();
        }
        ring.push_back(trace);
        true
    }

    /// The most recent retained traces, newest first, at most `limit`
    /// (0 = everything retained).
    pub fn recent(&self, limit: usize) -> Vec<Arc<Trace>> {
        let ring = self.ring.lock().unwrap();
        let take = if limit == 0 {
            ring.len()
        } else {
            limit.min(ring.len())
        };
        ring.iter().rev().take(take).cloned().collect()
    }

    /// Find a retained trace by id (newest match).
    pub fn find(&self, trace_id: u64) -> Option<Arc<Trace>> {
        let ring = self.ring.lock().unwrap();
        ring.iter().rev().find(|t| t.trace_id == trace_id).cloned()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.lock().unwrap().is_empty()
    }
}

/// Attribute helper: the histogram octave a duration falls in — handy
/// for bucketing span durations in attributes without leaking raw ns
/// into cardinality-sensitive consumers.
pub fn duration_octave(ns: u64) -> u64 {
    bucket_of(ns) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_tree_nests_and_sorts() {
        let ctx = TraceCtx::new(0xABCD, false);
        {
            let mut root = ctx.root().span("server.query");
            root.attr("kind", "query");
            {
                let engine = root.scope().span("engine.query");
                let scope = engine.scope();
                {
                    let mut d = scope.span("engine.conditioned_derive");
                    d.attr("sp_fingerprint", "deadbeef");
                }
                {
                    let mut w = scope.span("engine.welfare");
                    w.attr("cache_hit", false);
                }
            }
        }
        let t = ctx.finish();
        assert_eq!(t.trace_id, 0xABCD);
        assert!(!t.error);
        assert_eq!(t.spans.len(), 1);
        let root = &t.spans[0];
        assert_eq!(root.name, "server.query");
        assert_eq!(root.children.len(), 1);
        let engine = &root.children[0];
        assert_eq!(engine.name, "engine.query");
        let names: Vec<&str> = engine.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["engine.conditioned_derive", "engine.welfare"]);
        // children start no earlier than their parent
        assert!(engine.children[0].start_ns >= engine.start_ns);
        assert!(engine.children[1].start_ns >= engine.children[0].start_ns);
        assert_eq!(
            t.span_names(),
            [
                "server.query",
                "engine.query",
                "engine.conditioned_derive",
                "engine.welfare"
            ]
        );
        assert!(t.find_span("engine.welfare").is_some());
        assert!(t.find_span("nope").is_none());
    }

    #[test]
    fn a_stopped_span_keeps_its_end_time_until_its_fate_is_decided() {
        let ctx = TraceCtx::new(9, false);
        let root = ctx.root().span("engine.query");
        let mut kept = root.scope().span("engine.welfare");
        kept.stop();
        let mut dropped = root.scope().span("engine.welfare");
        dropped.stop();
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(kept);
        dropped.discard();
        drop(root);
        let t = ctx.finish();
        let root = &t.spans[0];
        assert_eq!(root.children.len(), 1, "the discarded span left nothing");
        let kept = &root.children[0];
        assert!(
            kept.end_ns - kept.start_ns < 5_000_000 && root.end_ns - kept.end_ns >= 5_000_000,
            "held for 5 ms after it stopped, recorded as it stopped: {kept:?}"
        );
    }

    #[test]
    fn spans_recorded_from_other_threads_join_the_same_tree() {
        let ctx = TraceCtx::new(7, false);
        {
            let root = ctx.root().span("server.batch");
            let scope = root.scope();
            std::thread::scope(|s| {
                for k in 0..4u64 {
                    s.spawn(move || {
                        let mut g = scope.span("engine.query");
                        g.attr("slot", k);
                    });
                }
            });
        }
        let t = ctx.finish();
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].children.len(), 4);
        for c in &t.spans[0].children {
            assert_eq!(c.name, "engine.query");
        }
    }

    #[test]
    fn value_round_trip_is_lossless_and_key_sorted() {
        let ctx = TraceCtx::new(0x00F0_0BA2, true);
        {
            let mut root = ctx.root().span("server.query");
            root.attr("shard", 3u64);
            root.attr("ok", true);
            root.attr("why", "test");
        }
        ctx.mark_error();
        let t = ctx.finish();
        let v = t.to_value();
        let line = serde_json::to_string(&v).unwrap();
        // object keys come out sorted (BTreeMap-backed)
        let d = line.find("duration_ns").unwrap();
        let e = line.find("error").unwrap();
        let p = line.find("pinned").unwrap();
        let s = line.find("\"spans\"").unwrap();
        let i = line.find("trace_id").unwrap();
        assert!(d < e && e < p && p < s && s < i, "{line}");
        assert!(line.contains("\"trace_id\":\"0000000000f00ba2\""));
        let back = Trace::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
        // canonical-JSON round trip (attrs re-serialize key-sorted, so
        // compare the canonical forms, not insertion order)
        assert_eq!(serde_json::to_string(&back.to_value()).unwrap(), line);
        assert_eq!(back.trace_id, t.trace_id);
        assert!(back.pinned && back.error);
        assert_eq!(back.duration_ns, t.duration_ns);
        assert_eq!(
            back.spans[0].attrs,
            vec![
                ("ok".to_string(), AttrValue::Bool(true)),
                ("shard".to_string(), AttrValue::U64(3)),
                ("why".to_string(), AttrValue::Str("test".into())),
            ]
        );
    }

    #[test]
    fn from_value_rejects_malformed_shapes() {
        for bad in [
            "17",
            "{}",
            r#"{"trace_id":"xyz","pinned":false,"error":false,"duration_ns":1,"spans":[]}"#,
            r#"{"trace_id":"ab","pinned":false,"error":false,"duration_ns":-2,"spans":[]}"#,
            r#"{"trace_id":"ab","pinned":false,"error":false,"duration_ns":1,"spans":[{}]}"#,
            r#"{"trace_id":"ab","pinned":false,"error":false,"duration_ns":1,"spans":[{"name":"x","start_ns":0,"end_ns":1,"attrs":[]}]}"#,
        ] {
            let v: Value = serde_json::from_str(bad).unwrap();
            assert!(Trace::from_value(&v).is_none(), "{bad}");
        }
    }

    #[test]
    fn trace_id_format_parse_round_trip() {
        for id in [1u64, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(parse_trace_id(&format_trace_id(id)), Some(id));
        }
        assert_eq!(parse_trace_id(""), None);
        assert_eq!(parse_trace_id("g"), None);
        assert_eq!(parse_trace_id("00000000000000000"), None, "17 digits");
        assert_eq!(parse_trace_id("ff"), Some(255), "short forms accepted");
    }

    #[test]
    fn id_gen_is_deterministic_and_never_zero() {
        let a = TraceIdGen::new(42);
        let b = TraceIdGen::new(42);
        let ids: Vec<u64> = (0..100).map(|_| a.mint()).collect();
        let same: Vec<u64> = (0..100).map(|_| b.mint()).collect();
        assert_eq!(ids, same);
        assert!(ids.iter().all(|&i| i != 0));
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), ids.len());
    }

    #[test]
    fn sampling_is_deterministic_and_rate_shaped() {
        assert!(sampled(123, 1.0));
        assert!(!sampled(123, 0.0));
        let kept = (0..10_000u64).filter(|&i| sampled(i, 0.1)).count();
        assert!(
            (800..1200).contains(&kept),
            "10% of 10k ids ≈ 1000, got {kept}"
        );
        for id in 0..100u64 {
            assert_eq!(sampled(id, 0.3), sampled(id, 0.3));
        }
    }

    fn quick_trace(id: u64, pinned: bool, error: bool, duration_ns: u64) -> Trace {
        Trace {
            trace_id: id,
            pinned,
            error,
            duration_ns,
            spans: Vec::new(),
        }
    }

    #[test]
    fn tail_retention_keeps_error_slow_and_pinned() {
        let buf = TraceBuffer::new(8);
        buf.set_slow_ns(1_000_000);
        // rate 0: only the tail rules keep anything
        assert!(!buf.offer(quick_trace(1, false, false, 10)));
        assert!(buf.offer(quick_trace(2, false, true, 10)), "error kept");
        assert!(buf.offer(quick_trace(3, false, false, 2_000_000)), "slow");
        assert!(buf.offer(quick_trace(4, true, false, 10)), "pinned");
        assert_eq!(buf.completed(), 4);
        assert_eq!(buf.kept(), 3);
        assert_eq!(buf.len(), 3);
        let recent = buf.recent(0);
        assert_eq!(recent[0].trace_id, 4, "newest first");
        assert_eq!(buf.recent(1).len(), 1);
        assert!(buf.find(2).is_some());
        assert!(buf.find(1).is_none());
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let buf = TraceBuffer::new(3);
        buf.set_sample_rate(1.0);
        for id in 1..=5u64 {
            assert!(buf.offer(quick_trace(id, false, false, 1)));
        }
        assert_eq!(buf.len(), 3);
        let ids: Vec<u64> = buf.recent(0).iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [5, 4, 3], "oldest evicted, newest first");
    }

    #[test]
    fn zero_capacity_buffer_drops_everything() {
        let buf = TraceBuffer::new(0);
        buf.set_sample_rate(1.0);
        assert!(!buf.offer(quick_trace(1, true, true, u64::MAX)));
        assert!(buf.is_empty());
        assert_eq!(buf.kept(), 0);
        assert_eq!(buf.completed(), 1);
    }

    #[test]
    fn duration_octave_matches_bucket_of() {
        assert_eq!(duration_octave(0), 0);
        assert_eq!(duration_octave(1024), 11);
    }
}
