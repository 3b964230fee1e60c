//! The five workloads and what they share: the run configuration, the
//! repeated set-up, and the per-round bookkeeping every end-to-end metric
//! comes from.

mod serve;
mod solve;
mod store;

use crate::fixture::{err, Res};
use crate::ops::OpTable;
use crate::report::{Measured, WorkloadReport, PER_LAYER, WORKLOAD_LAYER_METRICS};
use crate::spans::{self, Span};
use crate::stats;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Workload names, in the order they run. Later issues cite them.
pub const NAMES: [&str; 5] = [
    "serve_hot",
    "serve_novel",
    "followup_churn",
    "store_lifecycle",
    "solve_cold",
];

/// Why each workload exists; `BENCHMARK.json` and the README say the same.
pub fn why(name: &str) -> &'static str {
    match name {
        "serve_hot" => "every welfare evaluation is a cache hit: wire, server, client and the engine hit path do all the work; diffusion, rrset and store none",
        "serve_novel" => "every query misses the welfare cache: the Monte-Carlo estimator is over 99 % of the time and the wire under 1 %",
        "followup_churn" => "96 prior allocations against a 32-entry view cache: the working set exceeds the program's cache, so view derivation over the store dominates",
        "store_lifecycle" => "open, fault, top up, replay, compact, reopen: the store's write path beside its read path, one thread, in process",
        "solve_cold" => "the paper's Fig. 3/5 solvers cold: RR-set sampling, greedy and in-solver marginals with no cache, no wire, no store",
        _ => "",
    }
}

/// What one workload run needs to know.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// The op-count table, already scaled to the run length.
    pub table: OpTable,
    /// Run length asked for; rounds stop early past three times this.
    pub seconds: u64,
    /// Run the traced pass and the layer timings in place of the timed
    /// rounds.
    pub traced: bool,
    /// Where stores and journals are written.
    pub scratch_root: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

/// Run one workload by name.
pub fn run(name: &str, cfg: &RunConfig) -> Res<WorkloadReport> {
    std::fs::create_dir_all(&cfg.scratch_root).map_err(err)?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(err)?;
    let mut report = match name {
        "serve_hot" => serve::run(serve::Kind::Hot, cfg),
        "serve_novel" => serve::run(serve::Kind::Novel, cfg),
        "followup_churn" => serve::run(serve::Kind::Churn, cfg),
        "store_lifecycle" => store::run(cfg),
        "solve_cold" => solve::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            NAMES.join(", ")
        )),
    }?;
    if cfg.traced {
        // the layer timings do not depend on the workload
        report.per_layer.extend(crate::layers::measure(cfg)?);
        // a workload that does not run a layer reads 0 for what only a
        // workload can supply there
        for m in PER_LAYER.iter() {
            if WORKLOAD_LAYER_METRICS.contains(&m.name) {
                report
                    .per_layer
                    .entry(m.name)
                    .or_insert(Measured::single(0.0, m.unit));
            }
        }
    } else {
        report.end_to_end.insert(
            "failed_ops_share",
            Measured::single(
                report.failed as f64 / report.attempted.max(1) as f64,
                "ratio",
            ),
        );
    }
    Ok(report)
}

/// What the `index`-th `--rss-probe` child of workload `name` reports:
/// its own peak resident memory in MiB after a short untimed run.
pub fn rss_probe(name: &str, cfg: &RunConfig, index: usize) -> Res<f64> {
    match name {
        "solve_cold" => solve::rss_probe(cfg, index),
        other => Err(format!("workload `{other}` has no rss probe")),
    }
}

/// `peak_rss_mb` of a workload whose one process does not say it: the
/// mean peak of `probes` fresh processes, run one after the other, each
/// this binary with `--rss-probe` on this run's seed. glibc hands each
/// thread an arena by who asked first and every arena keeps freed memory
/// of its own; with two threads racing that is decided anew in every
/// process, and it moves the peak of a 14 MB `solve_cold` process by a
/// tenth on the same seed. The peaks fall in clusters with the median
/// between them, which is why this is a mean: a peak has no outliers to
/// guard against, it is bounded by what the program allocates.
pub(crate) fn probed_peak_rss(cfg: &RunConfig, name: &str, probes: usize) -> Res<Measured> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut peaks = Vec::with_capacity(probes);
    for index in 0..probes {
        let out = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--rss-probe", &index.to_string()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .output()
            .map_err(err)?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let peak = stdout.lines().last().and_then(|l| l.parse::<f64>().ok());
        match peak {
            Some(mb) if out.status.success() => peaks.push(mb),
            _ => {
                return Err(format!(
                    "{name}: rss probe {index} ended with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                ))
            }
        }
    }
    Ok(Measured {
        value: peaks.iter().sum::<f64>() / peaks.len().max(1) as f64,
        unit: "MB",
        spread: stats::quartile_spread(&peaks),
        samples: peaks.len() as u64,
    })
}

/// `hits / (hits + misses)`, 0 when nothing was counted.
pub(crate) fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Times a workload's set-ups; `setup_s` is their median. One set-up is
/// a fraction of a second, and a single reading of that moves more
/// between runs than any change would. The first set-up is the one the
/// rounds run on. The others are built and discarded once the rounds are
/// over and the peak memory is read: a process that has set up five
/// times holds what five set-ups left in its heap, 74 MB after the first
/// of `serve_hot` and 100 to 115 MB after the fifth.
#[derive(Debug, Default)]
pub(crate) struct SetupClock {
    seconds: Vec<f64>,
}

impl SetupClock {
    /// Build one set-up and time it.
    pub fn time<S>(&mut self, build: impl FnOnce() -> Res<S>) -> Res<S> {
        let start = Instant::now();
        let built = build()?;
        self.seconds.push(start.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Build, time and discard `repeats` further set-ups.
    pub fn repeat<S>(
        &mut self,
        repeats: usize,
        mut build: impl FnMut() -> Res<S>,
        mut discard: impl FnMut(S) -> Res<()>,
    ) -> Res<()> {
        for _ in 0..repeats {
            let built = self.time(&mut build)?;
            discard(built)?;
        }
        Ok(())
    }

    pub fn finish(self) -> Measured {
        Measured {
            value: stats::median(&self.seconds),
            unit: "s",
            spread: stats::quartile_spread(&self.seconds),
            samples: self.seconds.len() as u64,
        }
    }
}

/// The latency percentiles reported, by metric name.
const PERCENTILES: [(&str, f64); 3] = [
    ("latency_p50_us", 0.50),
    ("latency_p90_us", 0.90),
    ("latency_p99_us", 0.99),
];

/// Per-round values and the latency samples of the timed part.
#[derive(Debug, Default)]
pub(crate) struct Rounds {
    ops_per_s: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    /// Every round's latencies, ascending.
    latencies_ns: Vec<Vec<u64>>,
    started: Option<Instant>,
}

impl Rounds {
    /// Record one round: its wall and CPU seconds and every operation's
    /// latency.
    pub fn record(&mut self, wall_s: f64, cpu_s: f64, mut latencies_ns: Vec<u64>) {
        let ops = latencies_ns.len().max(1) as f64;
        self.ops_per_s.push(ops / wall_s.max(1e-9));
        self.cpu_us_per_op.push(cpu_s * 1e6 / ops);
        latencies_ns.sort_unstable();
        self.latencies_ns.push(latencies_ns);
    }

    /// True once the timed part has overrun three times the run length
    /// (and at least three rounds are in): a machine far slower than the
    /// one the table was calibrated on still finishes.
    pub fn overrun(&mut self, seconds: u64) -> bool {
        let started = *self.started.get_or_insert_with(Instant::now);
        self.ops_per_s.len() >= 3 && started.elapsed().as_secs() >= 3 * seconds.max(1)
    }

    pub fn operations(&self) -> u64 {
        self.latencies_ns.iter().map(|r| r.len() as u64).sum()
    }

    /// Throughput and CPU cost as the median of the rounds. A latency
    /// percentile is the median of the rounds' percentiles when every
    /// round has ten samples beyond it — one disturbed round then moves
    /// nothing — and otherwise the percentile of the pooled samples, if
    /// those have ten beyond it; else it is not reported. The inter-round
    /// spread is kept beside each value.
    pub fn finish(self, report: &mut WorkloadReport) {
        let rounds = self.ops_per_s.len() as u64;
        let per_round = |values: &[f64], unit, samples| Measured {
            value: stats::median(values),
            unit,
            spread: stats::quartile_spread(values),
            samples,
        };
        report
            .end_to_end
            .insert("ops_per_s", per_round(&self.ops_per_s, "1/s", rounds));
        report.end_to_end.insert(
            "cpu_us_per_op",
            per_round(&self.cpu_us_per_op, "us", rounds),
        );
        let operations = self.operations();
        let mut pooled: Vec<u64> = self.latencies_ns.iter().flatten().copied().collect();
        pooled.sort_unstable();
        let us_of = |ns: u64| ns as f64 / 1e3;
        let p50s: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|r| us_of(r[r.len() / 2]))
            .collect();
        for (name, p) in PERCENTILES {
            let each: Option<Vec<f64>> = self
                .latencies_ns
                .iter()
                .map(|r| stats::percentile(r, p).map(us_of))
                .collect();
            let measured = match each {
                Some(values) if !values.is_empty() => per_round(&values, "us", operations),
                _ => match stats::percentile(&pooled, p) {
                    Some(ns) => Measured {
                        value: us_of(ns),
                        unit: "us",
                        spread: stats::quartile_spread(&p50s),
                        samples: operations,
                    },
                    None => continue,
                },
            };
            report.end_to_end.insert(name, measured);
        }
    }
}

/// Write a workload's spans and fold them into its report: what
/// recording costs, and a failure if any operation's budget does not
/// reconcile. `traced_s` and `untraced_s` are the seconds each operation
/// took with recording on and off; the two passes run different
/// operations of the same mix, so the ratio is of their medians (a
/// handful of cache hits more in one pass would swamp a ratio of totals).
pub(crate) fn close_trace(
    cfg: &RunConfig,
    name: &str,
    spans: &[Span],
    traced_s: &[f64],
    untraced_s: &[f64],
    report: &mut WorkloadReport,
) -> Res<()> {
    let path = cfg.out_dir.join(format!("trace-{name}.ndjson"));
    std::fs::write(&path, spans::to_ndjson(spans)).map_err(err)?;
    for b in spans::op_budgets(spans) {
        if b.children_ns as i64 + b.residual_ns != b.root_ns as i64 {
            report.fail(|| format!("op {}: span budget does not reconcile", b.op_id));
        }
    }
    report.per_layer.insert(
        "bench.trace_overhead_ratio",
        Measured::single(
            stats::median(untraced_s) / stats::median(traced_s).max(1e-12),
            "ratio",
        ),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_report_the_median_round_and_only_supported_percentiles() {
        let mut rounds = Rounds::default();
        // five rounds of 40 operations: 200 pooled, so p90 but no p99
        for (k, wall) in [2.0, 1.0, 4.0, 1.0, 1.0].into_iter().enumerate() {
            let lat: Vec<u64> = (1..=40).map(|i| (i + k as u64) * 1_000).collect();
            rounds.record(wall, 0.5, lat);
        }
        assert_eq!(rounds.operations(), 200);
        let mut report = WorkloadReport::default();
        rounds.finish(&mut report);
        let e = &report.end_to_end;
        assert_eq!(e["ops_per_s"].value, 40.0, "median of 20, 40, 10, 40, 40");
        assert_eq!(e["ops_per_s"].samples, 5);
        assert!(e["ops_per_s"].spread > 0.0);
        assert_eq!(e["cpu_us_per_op"].value, 12_500.0);
        assert!(e.contains_key("latency_p50_us") && e.contains_key("latency_p90_us"));
        assert!(!e.contains_key("latency_p99_us"));
        assert_eq!(e["latency_p90_us"].samples, 200);
        // 40 a round: every round supports its own p50 (20 beyond), so the
        // median of the rounds' p50s; p90 (4 beyond a round) is pooled
        assert_eq!(e["latency_p50_us"].value, 22.0, "median of 20..24");
        assert_eq!(e["latency_p90_us"].value, 38.0, "rank 180 of the pool");
    }

    #[test]
    fn every_set_up_is_timed_and_the_repeats_are_discarded() {
        let mut clock = SetupClock::default();
        let mut built = 0;
        let mut build = || {
            built += 1;
            Ok(built)
        };
        let kept = clock.time(&mut build).unwrap();
        let mut discarded = Vec::new();
        clock
            .repeat(2, &mut build, |s| {
                discarded.push(s);
                Ok(())
            })
            .unwrap();
        assert_eq!((kept, discarded), (1, vec![2, 3]));
        let measured = clock.finish();
        assert_eq!(measured.samples, 3);
        assert_eq!(measured.unit, "s");
    }

    #[test]
    fn every_workload_says_why_it_exists() {
        for name in NAMES {
            let why = why(name);
            assert!(!why.is_empty() && why.len() <= 200, "{name}");
        }
    }
}
