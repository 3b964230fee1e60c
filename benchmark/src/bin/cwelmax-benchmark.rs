//! `cwelmax-benchmark run` measures, `cwelmax-benchmark compare` judges.
//!
//! ```text
//! cwelmax-benchmark run [--seed N] [--seconds S] [--workload NAME] [--traced] [--out FILE]
//! cwelmax-benchmark compare A.json B.json
//! ```
//!
//! `run` without `--workload` runs all five workloads, each in a child
//! process of its own (so `peak_rss_mb` is the workload's and nothing one
//! workload warmed helps the next), prints every metric by name with its
//! unit, and writes one result file. With `--workload` it runs that one
//! workload in this process and ends its output with the one-line JSON
//! result `BENCHMARK.json`'s contract describes; `--trace 0|1` is that
//! contract's spelling of `--traced`. `--rss-probe INDEX` is what
//! `solve_cold` runs its memory probes with: a short untimed run of the
//! workload, then this process's peak resident memory on a line of its
//! own.

use cwelmax_benchmark::compare::{compare_files, Verdict};
use cwelmax_benchmark::machine;
use cwelmax_benchmark::ops::{CALIBRATED_SECONDS, TABLE};
use cwelmax_benchmark::report::{contract_line, workload_value, Metrics};
use cwelmax_benchmark::workloads::{self, RunConfig, NAMES};
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  cwelmax-benchmark run [--seed N] [--seconds S] [--workload NAME] [--traced | --trace 0|1] [--out FILE]
  cwelmax-benchmark run --workload solve_cold --rss-probe INDEX [--seed N] [--seconds S]
  cwelmax-benchmark compare A.json B.json";

const DEFAULT_SEED: u64 = 1;

struct RunArgs {
    seed: u64,
    seconds: u64,
    workload: Option<String>,
    traced: bool,
    /// Run as the memory probe of `workload` with this index: a short
    /// untimed run, then print this process's peak resident memory. What
    /// `solve_cold` spawns.
    rss_probe: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: DEFAULT_SEED,
        seconds: CALIBRATED_SECONDS,
        workload: None,
        traced: false,
        rss_probe: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--traced" => parsed.traced = true,
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--rss-probe" => {
                parsed.rss_probe = Some(value()?.parse().map_err(|e| format!("--rss-probe: {e}"))?);
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if parsed.rss_probe.is_some() && parsed.workload.is_none() {
        return Err(format!("--rss-probe needs --workload\n{USAGE}"));
    }
    Ok(parsed)
}

/// The benchmark package's directory: where cargo says it is when run
/// through `cargo run`, else where it was when this binary was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn out_dir() -> PathBuf {
    package_dir().join("target").join("out")
}

fn scratch_root() -> PathBuf {
    package_dir().join("target").join("tmp")
}

fn print_metrics(workload: &str, kind: &str, metrics: &Metrics) {
    for (name, m) in metrics {
        println!(
            "{workload:<16} {kind:<10} {name:<40} {:>16.4} {:<8} spread {:>6.2} %  n = {}",
            m.value,
            m.unit,
            m.spread * 100.0,
            m.samples
        );
    }
}

/// A result file: fingerprint, then one entry per workload.
fn result_file(seed: u64, seconds: u64, table_hash: u64, workloads: Map) -> Value {
    let mut root = Map::new();
    root.insert("schema".into(), Value::UInt(1));
    root.insert(
        "fingerprint".into(),
        machine::fingerprint(&scratch_root(), seed, table_hash),
    );
    root.insert("seconds".into(), Value::UInt(seconds));
    root.insert("workloads".into(), Value::Object(workloads));
    Value::Object(root)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a single-workload run leaves its part of the result.
fn part_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}{}.json",
        if traced { ".traced" } else { "" }
    ))
}

fn run_one(args: &RunArgs, workload: &str) -> Result<(), String> {
    machine::settle_allocator();
    let cfg = RunConfig {
        seed: args.seed,
        table: TABLE.scaled(args.seconds),
        seconds: args.seconds,
        traced: args.traced,
        scratch_root: scratch_root(),
        out_dir: out_dir(),
    };
    if let Some(index) = args.rss_probe {
        println!("{}", workloads::rss_probe(workload, &cfg, index)?);
        return Ok(());
    }
    let report = workloads::run(workload, &cfg)?;
    print_metrics(workload, "end-to-end", &report.end_to_end);
    print_metrics(workload, "per-layer", &report.per_layer);
    for failure in &report.failures {
        println!("{workload:<16} FAILED     {failure}");
    }
    let mut workloads = Map::new();
    workloads.insert(workload.into(), workload_value(&report));
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| part_path(workload, args.traced));
    write_json(
        &path,
        &result_file(args.seed, args.seconds, cfg.table.hash(), workloads),
    )?;
    println!("{}", contract_line(&report, args.traced)?);
    Ok(())
}

/// Run `workload` in a child process and read back what it wrote.
fn run_child(args: &RunArgs, workload: &str, traced: bool) -> Result<Map, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .status()
        .map_err(|e| format!("{workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload}: the workload's process ended with {status}"
        ));
    }
    let path = part_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let part: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    part.as_object()
        .and_then(|o| o.get("workloads")?.as_object()?.get(workload)?.as_object())
        .cloned()
        .ok_or_else(|| format!("{}: no entry for {workload}", path.display()))
}

fn run_all(args: &RunArgs) -> Result<(), String> {
    let mut workloads = Map::new();
    for name in NAMES {
        println!("== {name}: {}", workloads::why(name));
        let mut entry = run_child(args, name, false)?;
        if args.traced {
            // layer timings and the trace overhead come from the traced
            // run; ratios the program counts come from the full timed run
            let traced = run_child(args, name, true)?;
            let mut layers = match traced.get("per_layer") {
                Some(Value::Object(m)) => m.clone(),
                _ => Map::new(),
            };
            if let Some(Value::Object(counted)) = entry.get("per_layer") {
                layers.extend(counted.clone());
            }
            entry.insert("per_layer".into(), Value::Object(layers));
        }
        workloads.insert(name.into(), Value::Object(entry));
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("result-seed{}.json", args.seed)));
    let table_hash = TABLE.scaled(args.seconds).hash();
    write_json(
        &path,
        &result_file(args.seed, args.seconds, table_hash, workloads),
    )?;
    println!("wrote {}", path.display());
    Ok(())
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let rows = compare_files(a, b)?;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:<8} {:>9} {:>9} {:>9}  verdict",
        "workload", "metric", "A", "B", "unit", "A spread", "B spread", "worse by"
    );
    for r in &rows {
        println!(
            "{:<16} {:<18} {:>14.4} {:>14.4} {:<8} {:>8.2}% {:>8.2}% {:>8.2}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.a_spread * 100.0,
            r.b_spread * 100.0,
            r.worse_by * 100.0,
            r.verdict.name()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["run", ..] => parse_run(&args[1..]).and_then(|run| match &run.workload {
            Some(workload) => run_one(&run, workload).map(|()| true),
            None => run_all(&run).map(|()| true),
        }),
        ["compare", a, b] => compare(a, b),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cwelmax-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
