//! Fixture tests: for every rule, a snippet that must trip it and the
//! neighboring snippets that must not (string literals, comments,
//! `#[cfg(test)]` regions, exempt paths), plus the suppression
//! machinery's full contract.

use cwelmax_lint::check_source;
use cwelmax_lint::rules::*;

/// Rules tripped by `src` when placed at `path`.
fn tripped(path: &str, src: &str) -> Vec<&'static str> {
    check_source(path, src)
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

fn assert_clean(path: &str, src: &str) {
    let diags = check_source(path, src);
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

// --------------------------------------------------- no-partial-cmp-unwrap

#[test]
fn partial_cmp_unwrap_trips_anywhere() {
    let src = "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap(); }";
    assert_eq!(
        tripped("crates/graph/src/x.rs", src),
        [NO_PARTIAL_CMP_UNWRAP]
    );
    // …including in test files — NaN-unsafety is wrong there too
    assert_eq!(
        tripped("crates/graph/tests/x.rs", src),
        [NO_PARTIAL_CMP_UNWRAP]
    );
    // expect() is the same panic with a nicer message
    let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b).expect(\"cmp\"); }";
    assert_eq!(tripped("src/lib.rs", src), [NO_PARTIAL_CMP_UNWRAP]);
}

#[test]
fn partial_cmp_diagnostic_points_at_the_call() {
    let src = "fn f(a: f64, b: f64) {\n    let _ = a.partial_cmp(&b).unwrap();\n}";
    let d = &check_source("crates/graph/src/x.rs", src)[0];
    assert_eq!((d.line, d.col), (2, 15));
    assert!(d.message.contains("total_cmp"));
}

#[test]
fn partial_cmp_false_positives_do_not_trip() {
    // a PartialOrd impl *defines* partial_cmp — not a call
    assert_clean(
        "crates/core/src/x.rs",
        "impl PartialOrd for G { fn partial_cmp(&self, o: &G) -> Option<Ordering> { Some(Ordering::Equal) } }",
    );
    // mention in a string or comment
    assert_clean(
        "crates/graph/src/x.rs",
        "// the old a.partial_cmp(b).unwrap() pattern\nfn f() { let _ = \"partial_cmp(x).unwrap()\"; }",
    );
    // NaN-safe replacement
    assert_clean(
        "crates/graph/src/x.rs",
        "fn f(a: f64, b: f64) { let _ = a.total_cmp(&b); }",
    );
    // partial_cmp without the panicking tail
    assert_clean(
        "crates/graph/src/x.rs",
        "fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Less); }",
    );
}

// ----------------------------------------------------- no-panic-in-serving

#[test]
fn panics_trip_only_in_serving_crates() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    for serving in ["engine", "server", "store", "client"] {
        assert_eq!(
            tripped(&format!("crates/{serving}/src/lib.rs"), src),
            [NO_PANIC_IN_SERVING],
            "{serving}"
        );
    }
    // non-serving crates may unwrap (solvers assert invariants freely)
    assert_clean("crates/graph/src/x.rs", src);
    assert_clean("crates/core/src/x.rs", src);
    assert_clean("src/lib.rs", src);
}

#[test]
fn panic_family_macros_trip() {
    for mac in [
        "panic!(\"x\")",
        "unreachable!()",
        "todo!()",
        "unimplemented!()",
    ] {
        let src = format!("fn f() {{ {mac}; }}");
        assert_eq!(
            tripped("crates/server/src/lib.rs", &src),
            [NO_PANIC_IN_SERVING],
            "{mac}"
        );
    }
}

#[test]
fn test_code_is_exempt_from_panic_rule() {
    // a #[cfg(test)] module inside a serving crate
    assert_clean(
        "crates/engine/src/x.rs",
        "fn live() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); panic!(\"boom\"); }\n}",
    );
    // an integration-test file of a serving crate
    assert_clean(
        "crates/engine/tests/x.rs",
        "fn f() { None::<u32>.unwrap(); }",
    );
    // …but non-test code *before* the test module still trips
    let src = "fn live(x: Option<u32>) -> u32 { x.unwrap() }\n#[cfg(test)]\nmod tests {}";
    assert_eq!(
        tripped("crates/engine/src/x.rs", src),
        [NO_PANIC_IN_SERVING]
    );
}

#[test]
fn non_panicking_lookalikes_do_not_trip() {
    assert_clean(
        "crates/engine/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }",
    );
    assert_clean(
        "crates/engine/src/x.rs",
        "fn f(m: &std::sync::Mutex<u32>) -> u32 { *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner) }",
    );
    // string and comment mentions
    assert_clean(
        "crates/engine/src/x.rs",
        "// never .unwrap() here\nfn f() -> &'static str { \"panic!()\" }",
    );
}

// ---------------------------------------------- atomics-ordering-justified

#[test]
fn seqcst_needs_a_reason_comment() {
    let src = "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }";
    assert_eq!(
        tripped("crates/server/src/lib.rs", src),
        [ATOMICS_ORDERING_JUSTIFIED]
    );
    // same line justification
    assert_clean(
        "crates/server/src/lib.rs",
        "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); } // seqcst: full fence pairs store with x",
    );
    // line-above justification
    assert_clean(
        "crates/server/src/lib.rs",
        "fn f(a: &AtomicBool) {\n    // seqcst: this store must totally order with the load in g()\n    a.store(true, Ordering::SeqCst);\n}",
    );
    // relaxed/acquire/release need no justification
    assert_clean(
        "crates/server/src/lib.rs",
        "fn f(a: &AtomicBool) { a.store(true, Ordering::Release); a.load(Ordering::Acquire); }",
    );
}

#[test]
fn seqcst_rule_applies_outside_serving_crates_but_not_tests() {
    let src = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }";
    assert_eq!(
        tripped("crates/obs/src/hist.rs", src),
        [ATOMICS_ORDERING_JUSTIFIED]
    );
    assert_clean("crates/obs/tests/x.rs", src);
    assert_clean(
        "crates/obs/src/hist.rs",
        "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.load(Ordering::SeqCst); }\n}",
    );
}

// ---------------------------------------------------------------- no-unsafe

#[test]
fn unsafe_trips_everywhere_but_shims() {
    let src = "fn f() -> u32 { unsafe { std::mem::zeroed() } }";
    assert_eq!(tripped("crates/graph/src/x.rs", src), [NO_UNSAFE]);
    assert_eq!(tripped("src/lib.rs", src), [NO_UNSAFE]);
    assert_eq!(tripped("crates/engine/tests/x.rs", src), [NO_UNSAFE]);
    assert_clean("shims/rand/src/lib.rs", src);
    // string/comment mentions are fine
    assert_clean(
        "crates/graph/src/x.rs",
        "// no unsafe here\nfn f() -> &'static str { \"unsafe\" }",
    );
}

// ---------------------------------------------------------- no-direct-print

#[test]
fn direct_print_trips_in_library_code_only() {
    let src = "fn f() { println!(\"hi\"); eprintln!(\"oops\"); }";
    let t = tripped("crates/engine/src/x.rs", src);
    assert_eq!(t, [NO_DIRECT_PRINT, NO_DIRECT_PRINT]);
    // binaries, examples, the bench crate, and shims may print
    assert_clean("src/bin/cwelmax.rs", src);
    assert_clean("examples/quickstart.rs", src);
    assert_clean("crates/bench/src/lib.rs", src);
    assert_clean("shims/criterion/src/lib.rs", src);
    // test code may print while debugging
    assert_clean("crates/engine/tests/x.rs", src);
    assert_clean(
        "crates/engine/src/x.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() { println!(\"dbg\"); }\n}",
    );
}

#[test]
fn print_lookalikes_do_not_trip() {
    // a method or variable named println is not the macro
    assert_clean(
        "crates/engine/src/x.rs",
        "fn f(w: &mut impl std::io::Write) { let _ = writeln!(w, \"println! lives in strings\"); }",
    );
}

// ------------------------------------------- no-wallclock-in-deterministic

#[test]
fn wallclock_trips_only_in_deterministic_paths() {
    let instant = "fn f() { let _ = Instant::now(); }";
    let systime = "fn f() { let _ = SystemTime::now(); }";
    assert_eq!(
        tripped("crates/rrset/src/sampler.rs", instant),
        [NO_WALLCLOCK_IN_DETERMINISTIC]
    );
    assert_eq!(
        tripped("crates/engine/src/codec.rs", systime),
        [NO_WALLCLOCK_IN_DETERMINISTIC]
    );
    assert_eq!(
        tripped("crates/store/src/format.rs", instant),
        [NO_WALLCLOCK_IN_DETERMINISTIC]
    );
    assert_eq!(
        tripped("crates/store/src/journal.rs", systime),
        [NO_WALLCLOCK_IN_DETERMINISTIC]
    );
    // latency timing in the engine/server proper is fine
    assert_clean("crates/engine/src/engine.rs", instant);
    assert_clean("crates/server/src/lib.rs", instant);
    // the store's serving and top-up paths time their spans
    assert_clean("crates/store/src/sharded.rs", instant);
    assert_clean("crates/store/src/topup.rs", instant);
    // tests of deterministic code may time things
    assert_clean("crates/rrset/tests/properties.rs", instant);
    // an unrelated `now()` call is not a wall-clock read
    assert_clean(
        "crates/rrset/src/sampler.rs",
        "fn f(c: &Clock) { c.now(); }",
    );
}

// ------------------------------------------------------------ suppressions

#[test]
fn suppression_on_same_line_and_line_above() {
    assert_clean(
        "crates/engine/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(no-panic-in-serving) -- invariant: x is Some by construction",
    );
    assert_clean(
        "crates/engine/src/x.rs",
        "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic-in-serving) -- invariant: x is Some by construction\n    x.unwrap()\n}",
    );
}

#[test]
fn suppression_reason_is_mandatory() {
    let src =
        "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic-in-serving)\n    x.unwrap()\n}";
    let rules = tripped("crates/engine/src/x.rs", src);
    // the malformed allow reports AND the violation still stands
    assert!(rules.contains(&BAD_SUPPRESSION), "{rules:?}");
    assert!(rules.contains(&NO_PANIC_IN_SERVING), "{rules:?}");
}

#[test]
fn suppression_of_unknown_rule_is_an_error() {
    let src = "fn f() {}\n// lint:allow(no-such-rule) -- because";
    assert_eq!(tripped("crates/engine/src/x.rs", src), [BAD_SUPPRESSION]);
    // meta rules cannot be suppressed
    let src = "fn f() {}\n// lint:allow(unused-suppression) -- because";
    assert_eq!(tripped("crates/engine/src/x.rs", src), [BAD_SUPPRESSION]);
}

#[test]
fn unused_suppression_is_an_error() {
    let src =
        "// lint:allow(no-panic-in-serving) -- stale excuse\nfn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
    let diags = check_source("crates/engine/src/x.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, UNUSED_SUPPRESSION);
    assert_eq!(diags[0].line, 1);
}

#[test]
fn suppression_only_covers_its_own_rule() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-direct-print) -- wrong rule\n    x.unwrap()\n}";
    let rules = tripped("crates/engine/src/x.rs", src);
    assert!(rules.contains(&NO_PANIC_IN_SERVING), "{rules:?}");
    assert!(rules.contains(&UNUSED_SUPPRESSION), "{rules:?}");
}

#[test]
fn prose_mentioning_the_syntax_is_not_a_suppression() {
    assert_clean(
        "crates/engine/src/x.rs",
        "//! Suppress with `// lint:allow(rule) -- reason` on the line above.\nfn f() {}",
    );
}

#[test]
fn one_suppression_covers_multiple_diagnostics_on_its_line() {
    assert_clean(
        "crates/engine/src/x.rs",
        "fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n    // lint:allow(no-panic-in-serving) -- both invariants hold by construction\n    a.unwrap() + b.unwrap()\n}",
    );
}
