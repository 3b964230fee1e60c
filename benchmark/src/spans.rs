//! The benchmark's own spans, recorded around calls into each layer.
//!
//! A span is `(name, start_ns, end_ns, parent, op_id)`; spans of one
//! operation share its `op_id`. They are kept in memory and written out
//! when the workload ends. A span's self time is its duration minus its
//! direct children's; an operation's residual is its root span minus the
//! children of the root — the part of the round trip that no call made
//! from outside the program can see (socket, wake-ups, queueing).
//!
//! Spans inside the program are a later issue; until then the children of
//! a serving operation are an in-process replay of the same request, so
//! they are attributed to the root by `parent`, not by time containment.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. A disabled log reads no clock and stores
/// nothing, so running the same replay with it measures what recording
/// costs.
#[derive(Debug)]
pub struct SpanLog {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn enabled() -> SpanLog {
        SpanLog {
            origin: Some(Instant::now()),
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> SpanLog {
        SpanLog {
            origin: None,
            spans: Vec::new(),
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span now; pair with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let Some(origin) = self.origin else {
            return 0;
        };
        let now = Self::now_ns(origin);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(origin) = self.origin {
            self.spans[id as usize].end_ns = Self::now_ns(origin);
        }
    }

    /// Time `f` as a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op_id);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus direct children. Negative when
/// replayed children took longer than the root they are attributed to.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns() as i64;
        }
    }
    own
}

/// One operation's budget: `children_ns + residual_ns == root_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpBudget {
    pub op_id: u64,
    pub root_ns: u64,
    pub children_ns: u64,
    pub residual_ns: i64,
}

/// The budget of every root span (a span without a parent).
pub fn op_budgets(spans: &[Span]) -> Vec<OpBudget> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, &residual_ns)| OpBudget {
            op_id: s.op_id,
            root_ns: s.duration_ns(),
            children_ns: (s.duration_ns() as i64 - residual_ns) as u64,
            residual_ns,
        })
        .collect()
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: i64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// One JSON object per span, then one `budget` line per operation, then
/// one `total` line per span name.
pub fn to_ndjson(spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        );
    }
    for b in op_budgets(spans) {
        let _ = writeln!(
            out,
            "{{\"budget\":{},\"root_ns\":{},\"children_ns\":{},\"residual_ns\":{}}}",
            b.op_id, b.root_ns, b.children_ns, b.residual_ns
        );
    }
    for (name, t) in totals_by_name(spans) {
        let _ = writeln!(
            out,
            "{{\"total\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100; a 10..40 with child c 15..25; b 50..70
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["a"].total_ns, 30);
        // self times of a tree sum to its root
        assert_eq!(self_times_ns(&spans).iter().sum::<i64>(), 100);
    }

    #[test]
    fn budgets_reconcile_exactly_even_when_children_outlast_the_root() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 200, 260, Some(0)),
            span("y", 260, 330, Some(0)),
            Span {
                op_id: 2,
                ..span("root", 400, 450, None)
            },
        ];
        let budgets = op_budgets(&spans);
        assert_eq!(budgets.len(), 2);
        assert_eq!(budgets[0].children_ns, 130);
        assert_eq!(budgets[0].residual_ns, -30);
        assert_eq!(budgets[1].children_ns, 0);
        assert_eq!(budgets[1].residual_ns, 50);
        for b in budgets {
            assert_eq!(b.children_ns as i64 + b.residual_ns, b.root_ns as i64);
        }
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::disabled();
        let root = log.open("root", None, 7);
        assert_eq!(log.leaf("child", Some(root), 7, || 41 + 1), 42);
        log.close(root);
        assert!(log.spans().is_empty());
    }

    #[test]
    fn an_enabled_log_nests_and_serialises() {
        let mut log = SpanLog::enabled();
        let root = log.open("root", None, 3);
        log.leaf("child", Some(root), 3, || std::hint::black_box(1 + 1));
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = to_ndjson(spans);
        // two spans, one budget, two totals
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("\"name\":\"child\"") && text.contains("\"budget\":3"));
        assert!(text.contains("\"total\":\"root\",\"count\":1"));
    }
}
