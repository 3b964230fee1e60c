//! Engine error type and the stable wire-level error taxonomy.

use std::fmt;

/// The stable classification every error carries on wire protocol v2.
///
/// Each kind maps to a **frozen** `(code, name, retryable)` triple —
/// clients dispatch on `code`/`kind`, never on message text, so messages
/// stay free to improve. The codes deliberately reuse the HTTP numbers
/// whose semantics they mirror; a test per kind pins the triple.
///
/// The taxonomy is wider than [`EngineError`]: [`ErrorKind::BadRequest`]
/// (the line never parsed into a request) and [`ErrorKind::Busy`] (the
/// server shed the connection at accept time) are protocol-level
/// conditions with no engine counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The request line is not a well-formed request (bad JSON, unknown
    /// envelope type, malformed fields). Code 400.
    BadRequest,
    /// The index was built for a different graph. Code 409.
    GraphMismatch,
    /// A well-formed query the engine cannot serve (budget/model
    /// mismatch, budget above the index cap, out-of-range SP). Code 422.
    BadQuery,
    /// Store file format version not supported by this build. Code 426.
    UnsupportedVersion,
    /// Corrupt manifest, shard, or journal bytes. Code 500.
    Corrupt,
    /// Filesystem-level failure under the index backend. Code 502 —
    /// retryable: a transient I/O error may clear.
    Io,
    /// The server refused the connection at its `--max-conns` cap. Code
    /// 503 — retryable by definition.
    Busy,
}

impl ErrorKind {
    /// Every kind, for exhaustive pin-the-triple tests.
    pub const ALL: [ErrorKind; 7] = [
        ErrorKind::BadRequest,
        ErrorKind::GraphMismatch,
        ErrorKind::BadQuery,
        ErrorKind::UnsupportedVersion,
        ErrorKind::Corrupt,
        ErrorKind::Io,
        ErrorKind::Busy,
    ];

    /// The frozen numeric wire code.
    pub fn code(self) -> u16 {
        match self {
            ErrorKind::BadRequest => 400,
            ErrorKind::GraphMismatch => 409,
            ErrorKind::BadQuery => 422,
            ErrorKind::UnsupportedVersion => 426,
            ErrorKind::Corrupt => 500,
            ErrorKind::Io => 502,
            ErrorKind::Busy => 503,
        }
    }

    /// The frozen kebab-case wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::GraphMismatch => "graph-mismatch",
            ErrorKind::BadQuery => "bad-query",
            ErrorKind::UnsupportedVersion => "unsupported-version",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Io => "io",
            ErrorKind::Busy => "busy",
        }
    }

    /// Whether retrying the same request may succeed without operator
    /// intervention.
    pub fn retryable(self) -> bool {
        matches!(self, ErrorKind::Io | ErrorKind::Busy)
    }

    /// Parse a wire name back into a kind (clients use this to type
    /// structured errors; unknown names stay `None` so future kinds
    /// degrade gracefully instead of failing the parse).
    pub fn parse(name: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything that can go wrong building, persisting, loading, or querying
/// an index.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// A store file's bytes are malformed: bad magic, truncation,
    /// checksum mismatch, or invalid structural invariants.
    Corrupt(String),
    /// A store file's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The index was built for a different graph than the one supplied.
    GraphMismatch { expected: u64, actual: u64 },
    /// A query is inconsistent with the index or model (bad budgets, budget
    /// above the index's supported cap, …).
    BadQuery(String),
    /// `EngineBuilder` was driven incorrectly (e.g. `build()` without a
    /// graph) — a local API-misuse error, distinct from any per-query
    /// refusal a server would relay.
    Builder(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Io(e) => write!(f, "io error: {e}"),
            EngineError::Corrupt(msg) => write!(f, "corrupt store file: {msg}"),
            EngineError::UnsupportedVersion(v) => {
                write!(f, "unsupported store file version {v}")
            }
            EngineError::GraphMismatch { expected, actual } => write!(
                f,
                "index/graph mismatch: index built for graph {expected:#018x}, \
                 got {actual:#018x}"
            ),
            EngineError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            EngineError::Builder(msg) => write!(f, "builder misuse: {msg}"),
        }
    }
}

impl EngineError {
    /// The stable wire-level classification of this error (protocol v2
    /// encodes it as `{code, kind, retryable}` alongside the message).
    pub fn kind(&self) -> ErrorKind {
        match self {
            EngineError::Io(_) => ErrorKind::Io,
            EngineError::Corrupt(_) => ErrorKind::Corrupt,
            EngineError::UnsupportedVersion(_) => ErrorKind::UnsupportedVersion,
            EngineError::GraphMismatch { .. } => ErrorKind::GraphMismatch,
            EngineError::BadQuery(_) => ErrorKind::BadQuery,
            // builder misuse never legitimately crosses the wire; if it
            // does, a malformed construction is a malformed request
            EngineError::Builder(_) => ErrorKind::BadRequest,
        }
    }

    /// A best-effort copy of this error. `EngineError` cannot be `Clone`
    /// (`std::io::Error` isn't), but lazy-loading slots cache a failure
    /// and must hand each caller its own instance: the `Io` variant is
    /// rebuilt from its kind and message, every other variant copies
    /// exactly.
    pub fn duplicate(&self) -> EngineError {
        match self {
            EngineError::Io(e) => EngineError::Io(std::io::Error::new(e.kind(), e.to_string())),
            EngineError::Corrupt(msg) => EngineError::Corrupt(msg.clone()),
            EngineError::UnsupportedVersion(v) => EngineError::UnsupportedVersion(*v),
            EngineError::GraphMismatch { expected, actual } => EngineError::GraphMismatch {
                expected: *expected,
                actual: *actual,
            },
            EngineError::BadQuery(msg) => EngineError::BadQuery(msg.clone()),
            EngineError::Builder(msg) => EngineError::Builder(msg.clone()),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pin one kind's frozen wire triple. Changing any of these numbers
    /// or names is a breaking protocol change — clients dispatch on them.
    fn pin(kind: ErrorKind, code: u16, name: &str, retryable: bool) {
        assert_eq!(kind.code(), code, "{kind:?} code drifted");
        assert_eq!(kind.name(), name, "{kind:?} name drifted");
        assert_eq!(kind.retryable(), retryable, "{kind:?} retryable drifted");
        assert_eq!(ErrorKind::parse(name), Some(kind), "{kind:?} parse");
    }

    #[test]
    fn bad_request_triple_is_stable() {
        pin(ErrorKind::BadRequest, 400, "bad-request", false);
    }

    #[test]
    fn graph_mismatch_triple_is_stable() {
        pin(ErrorKind::GraphMismatch, 409, "graph-mismatch", false);
    }

    #[test]
    fn bad_query_triple_is_stable() {
        pin(ErrorKind::BadQuery, 422, "bad-query", false);
    }

    #[test]
    fn unsupported_version_triple_is_stable() {
        pin(
            ErrorKind::UnsupportedVersion,
            426,
            "unsupported-version",
            false,
        );
    }

    #[test]
    fn corrupt_triple_is_stable() {
        pin(ErrorKind::Corrupt, 500, "corrupt", false);
    }

    #[test]
    fn io_triple_is_stable() {
        pin(ErrorKind::Io, 502, "io", true);
    }

    #[test]
    fn busy_triple_is_stable() {
        pin(ErrorKind::Busy, 503, "busy", true);
    }

    #[test]
    fn all_lists_every_kind_exactly_once_with_unique_codes_and_names() {
        let mut codes: Vec<u16> = ErrorKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ErrorKind::ALL.len(), "duplicate codes");
        let mut names: Vec<&str> = ErrorKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ErrorKind::ALL.len(), "duplicate names");
        assert_eq!(ErrorKind::parse("no-such-kind"), None);
    }

    #[test]
    fn engine_errors_classify_into_the_taxonomy() {
        let io: EngineError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert_eq!(io.kind(), ErrorKind::Io);
        assert_eq!(EngineError::Corrupt("x".into()).kind(), ErrorKind::Corrupt);
        assert_eq!(
            EngineError::UnsupportedVersion(9).kind(),
            ErrorKind::UnsupportedVersion
        );
        assert_eq!(
            EngineError::GraphMismatch {
                expected: 1,
                actual: 2
            }
            .kind(),
            ErrorKind::GraphMismatch
        );
        assert_eq!(
            EngineError::BadQuery("x".into()).kind(),
            ErrorKind::BadQuery
        );
        // the duplicate of an error keeps its classification
        assert_eq!(io.duplicate().kind(), ErrorKind::Io);
    }

    /// `ALL` must enumerate every variant exactly once. The match below
    /// has no wildcard arm, so adding a variant without revisiting this
    /// test (and `ALL`, which the lint's error-kinds golden pins) is a
    /// compile error.
    #[test]
    fn all_enumerates_every_variant_once() {
        let mut seen = [0usize; ErrorKind::ALL.len()];
        for k in ErrorKind::ALL {
            let slot = match k {
                ErrorKind::BadRequest => 0,
                ErrorKind::GraphMismatch => 1,
                ErrorKind::BadQuery => 2,
                ErrorKind::UnsupportedVersion => 3,
                ErrorKind::Corrupt => 4,
                ErrorKind::Io => 5,
                ErrorKind::Busy => 6,
            };
            seen[slot] += 1;
        }
        assert_eq!(seen, [1; ErrorKind::ALL.len()]);
    }
}
