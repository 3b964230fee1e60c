//! The rule engine: named, individually-suppressible invariant lints.
//!
//! Each rule walks the token stream of one [`SourceFile`] and yields
//! [`Diagnostic`]s. Rules are **scoped by path** (serving crates,
//! deterministic paths, print-exempt binaries) and **test-aware** (both
//! `#[cfg(test)]` regions and files under `tests/`/`benches/`), so a
//! clean workspace stays meaningful — no rule fires on code that is
//! allowed to do the thing it polices.
//!
//! Suppression syntax, checked here too:
//!
//! ```text
//! // lint:allow(rule-name) -- why this site is sound
//! ```
//!
//! on the offending line or the line directly above. The reason is
//! mandatory (`bad-suppression` otherwise) and a suppression that
//! matches no diagnostic is itself an error (`unused-suppression`), so
//! allows cannot rot in place after the code they excused is gone.

use crate::lexer::{lex, Comment, Lexed, TokKind, Token};

/// One lint finding: `file:line:col rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Stable rule name (see [`RULES`]).
    pub rule: &'static str,
    pub message: String,
    /// Witness steps for cross-function findings (`lock-order-acyclic`
    /// cycles, transitive `no-blocking-under-lock` paths). Empty for
    /// token-local rules.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        for step in &self.chain {
            write!(f, "\n        {step}")?;
        }
        Ok(())
    }
}

/// Rule names (stable identifiers — suppressions and CI greps key on
/// them).
pub const NO_PARTIAL_CMP_UNWRAP: &str = "no-partial-cmp-unwrap";
pub const NO_PANIC_IN_SERVING: &str = "no-panic-in-serving";
pub const ATOMICS_ORDERING_JUSTIFIED: &str = "atomics-ordering-justified";
pub const NO_UNSAFE: &str = "no-unsafe";
pub const NO_DIRECT_PRINT: &str = "no-direct-print";
pub const NO_WALLCLOCK_IN_DETERMINISTIC: &str = "no-wallclock-in-deterministic";
pub const WIRE_V1_PIN: &str = "wire-v1-pin";
pub const LOCK_ORDER_ACYCLIC: &str = "lock-order-acyclic";
pub const NO_BLOCKING_UNDER_LOCK: &str = "no-blocking-under-lock";
pub const WIRE_CONFORMANCE: &str = "wire-conformance";
/// Meta rule: malformed `lint:allow` comments. Not suppressible.
pub const BAD_SUPPRESSION: &str = "bad-suppression";
/// Meta rule: `lint:allow` comments that matched no diagnostic. Not
/// suppressible.
pub const UNUSED_SUPPRESSION: &str = "unused-suppression";

/// The rule catalog: `(name, what it enforces)`.
pub const RULES: &[(&str, &str)] = &[
    (
        NO_PARTIAL_CMP_UNWRAP,
        "float ordering must use `total_cmp`, never `.partial_cmp(..).unwrap()` (NaN-safety, PR 2 discipline)",
    ),
    (
        NO_PANIC_IN_SERVING,
        "no `unwrap`/`expect`/`panic!` in non-test code of engine/server/store/client — serving crates return `EngineError`",
    ),
    (
        ATOMICS_ORDERING_JUSTIFIED,
        "every `SeqCst` needs a `// seqcst:` reason comment on the same line or the line above",
    ),
    (
        NO_UNSAFE,
        "no `unsafe` outside `shims/`",
    ),
    (
        NO_DIRECT_PRINT,
        "no `println!`/`eprintln!` outside binaries, examples, and `crates/bench` — diagnostics flow through `obs::Logger`",
    ),
    (
        NO_WALLCLOCK_IN_DETERMINISTIC,
        "no `SystemTime::now`/`Instant::now` in `rrset`, `engine::codec`, `store::format`, `store::journal` (determinism)",
    ),
    (
        WIRE_V1_PIN,
        "string literals in `engine/src/wire.rs` must match the committed golden file (frozen v1 bytes cannot drift silently)",
    ),
    (
        LOCK_ORDER_ACYCLIC,
        "the workspace lock-order graph (guard held while acquiring, tracked through the call graph) must be a DAG — any cycle is a latent deadlock",
    ),
    (
        NO_BLOCKING_UNDER_LOCK,
        "no fsync/file/socket I/O or `thread::sleep` reachable while a guard is held in serving crates — blocking under a lock is a tail-latency cliff",
    ),
    (
        WIRE_CONFORMANCE,
        "hello features are append-only and order-pinned; ErrorKind triples match their golden and `ALL` is exhaustive; every feature has a typed-client method or an explicit exemption",
    ),
    (
        BAD_SUPPRESSION,
        "meta: a `lint:allow` comment that is malformed, names an unknown rule, or lacks a `-- reason`",
    ),
    (
        UNUSED_SUPPRESSION,
        "meta: a `lint:allow` comment that matched no diagnostic",
    ),
];

/// Crates whose non-test code must never panic or block under a lock
/// (they serve traffic).
pub const SERVING_CRATES: &[&str] = &["engine", "server", "store", "client"];

/// Paths whose non-test code must never read the wall clock (they
/// produce byte-deterministic artifacts).
const DETERMINISTIC_PATHS: &[&str] = &[
    "crates/rrset/src/",
    "crates/engine/src/codec.rs",
    "crates/store/src/format.rs",
    "crates/store/src/journal.rs",
];

/// One classified, lexed workspace source file.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    pub lexed: Lexed,
    /// Under a `tests/` or `benches/` directory — test code wholesale.
    pub is_test_file: bool,
    /// `crates/<name>/…` → `Some(name)`; root package files → `None`.
    pub crate_name: Option<String>,
    /// Under `shims/` (API stand-ins for external crates).
    pub is_shim: bool,
    /// Allowed to print directly: binaries (`src/bin/`), `examples/`,
    /// the bench harness crate, and shims (criterion's reporter).
    pub print_exempt: bool,
}

impl SourceFile {
    /// Classify `rel_path` and lex `src`.
    pub fn new(rel_path: &str, src: &str) -> SourceFile {
        let rel_path = rel_path.replace('\\', "/");
        let components: Vec<&str> = rel_path.split('/').collect();
        let is_shim = components.first() == Some(&"shims");
        let is_test_file = components.iter().any(|c| *c == "tests" || *c == "benches");
        let crate_name = (components.first() == Some(&"crates"))
            .then(|| components.get(1).map(|s| s.to_string()))
            .flatten();
        let in_src_bin = rel_path.contains("src/bin/");
        let print_exempt = in_src_bin
            || components.first() == Some(&"examples")
            || (components.len() > 2 && components[2] == "examples")
            || crate_name.as_deref() == Some("bench")
            || is_shim;
        SourceFile {
            rel_path,
            lexed: lex(src),
            is_test_file,
            crate_name,
            is_shim,
            print_exempt,
        }
    }

    fn in_deterministic_path(&self) -> bool {
        DETERMINISTIC_PATHS
            .iter()
            .any(|p| self.rel_path.starts_with(p) || self.rel_path == *p)
    }

    fn is_serving(&self) -> bool {
        self.crate_name
            .as_deref()
            .is_some_and(|c| SERVING_CRATES.contains(&c))
    }
}

/// Run every token rule on one file (no suppressions applied — the
/// driver applies them workspace-wide after the structural rules, so a
/// `lint:allow` can cover cross-function findings too). The
/// `wire-v1-pin` and `wire-conformance` rules need files and goldens
/// and run at the driver level.
pub fn token_rules(file: &SourceFile) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    no_partial_cmp_unwrap(file, &mut diags);
    no_panic_in_serving(file, &mut diags);
    atomics_ordering_justified(file, &mut diags);
    no_unsafe(file, &mut diags);
    no_direct_print(file, &mut diags);
    no_wallclock_in_deterministic(file, &mut diags);
    diags
}

/// Token rules plus this one file's suppressions — the single-file
/// fixture surface.
pub fn check_file(file: &SourceFile) -> Vec<Diagnostic> {
    let diags = token_rules(file);
    let mut sups = collect_suppressions(&[file]);
    apply_suppressions(&mut sups, diags)
}

fn diag(file: &SourceFile, t: &Token, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.rel_path.clone(),
        line: t.line,
        col: t.col,
        rule,
        message,
        chain: Vec::new(),
    }
}

/// `.partial_cmp(..).unwrap()` / `.expect(..)`: flag the method chain
/// (everywhere — NaN-unsafety is wrong in tests too). `fn partial_cmp`
/// definitions (a `PartialOrd` impl) are not calls and do not match.
fn no_partial_cmp_unwrap(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "partial_cmp" || i == 0 || toks[i - 1].text != "." {
            continue;
        }
        // skip the balanced argument list
        let Some(mut j) = open_paren_at(toks, i + 1) else {
            continue;
        };
        let mut depth = 0usize;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if toks.get(j + 1).is_some_and(|t| t.text == ".")
            && toks
                .get(j + 2)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
        {
            out.push(diag(
                file,
                &toks[i],
                NO_PARTIAL_CMP_UNWRAP,
                format!(
                    "`.partial_cmp(..).{}()` panics on NaN; use `f64::total_cmp` (or `f32::total_cmp`)",
                    toks[j + 2].text
                ),
            ));
        }
    }
}

fn open_paren_at(toks: &[Token], i: usize) -> Option<usize> {
    (toks.get(i)?.text == "(").then_some(i)
}

/// `unwrap`/`expect` calls and panic-family macros in non-test code of
/// the serving crates.
fn no_panic_in_serving(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_serving() || file.is_test_file {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let is_method = |name| t.text == name && i > 0 && toks[i - 1].text == ".";
        let is_macro = |name| t.text == name && toks.get(i + 1).is_some_and(|n| n.text == "!");
        if is_method("unwrap") || is_method("expect") {
            out.push(diag(
                file,
                t,
                NO_PANIC_IN_SERVING,
                format!(
                    "`.{}()` can panic; serving crates return `EngineError` instead",
                    t.text
                ),
            ));
        } else if is_macro("panic")
            || is_macro("unreachable")
            || is_macro("todo")
            || is_macro("unimplemented")
        {
            out.push(diag(
                file,
                t,
                NO_PANIC_IN_SERVING,
                format!(
                    "`{}!` aborts the worker; serving crates return `EngineError` instead",
                    t.text
                ),
            ));
        }
    }
}

/// Any `SeqCst` token in non-test code needs a `// seqcst:` reason
/// comment on its line or the line above. (Bare `SeqCst` imports count
/// too — the justification belongs wherever the ordering is chosen.)
fn atomics_ordering_justified(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.is_test_file {
        return;
    }
    for t in &file.lexed.tokens {
        if t.in_test || t.kind != TokKind::Ident || t.text != "SeqCst" {
            continue;
        }
        let justified = file
            .lexed
            .comments
            .iter()
            .any(|c| (c.line == t.line || c.line + 1 == t.line) && c.text.contains("seqcst:"));
        if !justified {
            out.push(diag(
                file,
                t,
                ATOMICS_ORDERING_JUSTIFIED,
                "`Ordering::SeqCst` without a `// seqcst:` reason comment — justify the full fence or relax the ordering".into(),
            ));
        }
    }
}

/// The `unsafe` keyword anywhere outside `shims/`.
fn no_unsafe(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.is_shim {
        return;
    }
    for t in &file.lexed.tokens {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            out.push(diag(
                file,
                t,
                NO_UNSAFE,
                "`unsafe` is confined to `shims/`; the workspace proper is 100% safe Rust".into(),
            ));
        }
    }
}

/// Direct terminal output in non-test, non-binary library code.
fn no_direct_print(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.print_exempt || file.is_test_file {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        ) && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            out.push(diag(
                file,
                t,
                NO_DIRECT_PRINT,
                format!(
                    "`{}!` in library code; route diagnostics through `obs::Logger`",
                    t.text
                ),
            ));
        }
    }
}

/// Wall-clock reads in the deterministic (byte-reproducible) paths.
fn no_wallclock_in_deterministic(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.in_deterministic_path() || file.is_test_file {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 3..toks.len() {
        let t = &toks[i];
        if t.in_test || t.text != "now" {
            continue;
        }
        let qualified = toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && matches!(toks[i - 3].text.as_str(), "Instant" | "SystemTime");
        if qualified {
            out.push(diag(
                file,
                t,
                NO_WALLCLOCK_IN_DETERMINISTIC,
                format!(
                    "`{}::now()` in a deterministic path; store files and codecs must be byte-reproducible",
                    toks[i - 3].text
                ),
            ));
        }
    }
}

// ------------------------------------------------------------ suppressions

/// One parsed (well-formed) `lint:allow`, or the `bad-suppression`
/// finding a malformed one produces.
pub struct Suppressions {
    sups: Vec<Suppression>,
    bad: Vec<Diagnostic>,
}

struct Suppression {
    file: String,
    rule: String,
    line: u32,
    col: u32,
    used: bool,
}

/// Parse every `lint:allow` comment of the given files. The result is
/// applied once, after *all* rules have run — token-local and
/// structural alike — so every rule family is suppressible with the
/// same syntax and `unused-suppression` sees the full picture.
pub fn collect_suppressions(files: &[&SourceFile]) -> Suppressions {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    for file in files {
        for c in &file.lexed.comments {
            match parse_suppression(c) {
                Some(Ok(rule)) => sups.push(Suppression {
                    file: file.rel_path.clone(),
                    rule,
                    line: c.line,
                    col: c.col,
                    used: false,
                }),
                Some(Err(why)) => bad.push(Diagnostic {
                    file: file.rel_path.clone(),
                    line: c.line,
                    col: c.col,
                    rule: BAD_SUPPRESSION,
                    message: why,
                    chain: Vec::new(),
                }),
                None => {}
            }
        }
    }
    Suppressions { sups, bad }
}

/// Drop the diagnostics the suppressions cover; emit
/// `bad-suppression`/`unused-suppression` findings.
pub fn apply_suppressions(sups: &mut Suppressions, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut out = std::mem::take(&mut sups.bad);
    for d in diags {
        let covered = sups.sups.iter_mut().find(|s| {
            s.rule == d.rule && s.file == d.file && (s.line == d.line || s.line + 1 == d.line)
        });
        match covered {
            Some(s) => s.used = true,
            None => out.push(d),
        }
    }
    for s in sups.sups.iter().filter(|s| !s.used) {
        out.push(Diagnostic {
            file: s.file.clone(),
            line: s.line,
            col: s.col,
            rule: UNUSED_SUPPRESSION,
            message: format!(
                "`lint:allow({})` matches no diagnostic on this or the next line — remove it",
                s.rule
            ),
            chain: Vec::new(),
        });
    }
    out
}

/// `None` if the comment is not a suppression at all; `Some(Err)` if it
/// tries to be one but is malformed.
fn parse_suppression(c: &Comment) -> Option<Result<String, String>> {
    // only comments that *start* with the marker are suppressions —
    // prose that merely mentions the syntax (like this module's docs)
    // must not parse as one
    let text = c.text.trim();
    let rest = text.strip_prefix("lint:allow")?;
    let Some(rest) = rest.strip_prefix('(') else {
        return Some(Err("`lint:allow` needs a parenthesized rule name".into()));
    };
    let Some(close) = rest.find(')') else {
        return Some(Err("`lint:allow(` without a closing `)`".into()));
    };
    let rule = rest[..close].trim();
    if rule == BAD_SUPPRESSION || rule == UNUSED_SUPPRESSION {
        return Some(Err(format!("meta rule `{rule}` cannot be suppressed")));
    }
    if !RULES.iter().any(|(name, _)| *name == rule) {
        return Some(Err(format!(
            "unknown rule `{rule}` (see `cwelmax-lint rules`)"
        )));
    }
    let after = rest[close + 1..].trim();
    match after.strip_prefix("--") {
        Some(reason) if !reason.trim().is_empty() => Some(Ok(rule.to_string())),
        _ => Some(Err(format!(
            "suppression of `{rule}` lacks a reason: `// lint:allow({rule}) -- why`"
        ))),
    }
}
