//! The metric catalogue (names, units, direction, regression bounds) and
//! the result-file schema.

use serde_json::{Map, Value};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric and the bound by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline the metric may worsen by.
    pub bound: f64,
    /// Absolute worsening always tolerated, in the metric's unit: set-up
    /// of a fraction of a second moves by more than a quarter on noise,
    /// and single 14 MB processes differ in peak memory by a tenth on
    /// where their sampler threads' buffers happened to land.
    pub slack: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    slack: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        slack,
    }
}

/// The nine end-to-end metrics, reported for every workload.
/// `latency_p99_us` is present only where the pooled sample supports it.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.5),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10, 0.0),
    e2e("latency_p50_us", "us", Better::Lower, 0.10, 0.0),
    e2e("latency_p90_us", "us", Better::Lower, 0.10, 0.0),
    e2e("latency_p99_us", "us", Better::Lower, 0.15, 0.0),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.10, 0.0),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, 2.0),
    e2e("failed_ops_share", "ratio", Better::Lower, 0.0, 0.0),
    e2e("welfare_per_op", "welfare", Better::Higher, 0.01, 0.0),
];

/// The end-to-end metrics `BENCHMARK.json` lists. Its contract wants
/// every listed metric on every workload and never zero, which leaves out
/// `latency_p99_us` (unsupported by the 100–200 operations of
/// `store_lifecycle` and `solve_cold`) and `failed_ops_share` (zero on a
/// healthy run; the contract counts failures in its own `failed` field).
pub fn contract_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END
        .iter()
        .filter(|m| m.name != "latency_p99_us" && m.name != "failed_ops_share")
}

/// One per-layer metric; layers are the repository's crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Per-layer metrics a workload's own traced pass supplies (0 where the
/// workload does not run the layer); the rest come from
/// [`crate::layers::measure`] and do not depend on the workload.
pub const WORKLOAD_LAYER_METRICS: [&str; 6] = [
    "engine.welfare_hit_ratio",
    "engine.view_hit_ratio",
    "store.shards_faulted_per_followup",
    "store.resident_mb_after_followup",
    "server.handle_mean_us",
    "bench.trace_overhead_ratio",
];

pub const PER_LAYER: [PerLayer; 47] = [
    lo("graph.generate_ms", "ms"),
    hi("rrset.sample_sets_per_s", "1/s"),
    hi("rrset.weighted_sample_sets_per_s", "1/s"),
    lo("rrset.greedy_select_ms", "ms"),
    lo("rrset.condition_parts_ms", "ms"),
    lo("diffusion.welfare_us_per_world", "us"),
    lo("core.seqgrd_nm_solve_ms", "ms"),
    lo("core.seqgrd_solve_ms", "ms"),
    lo("core.maxgrd_solve_ms", "ms"),
    lo("core.supgrd_solve_ms", "ms"),
    lo("core.assign_with_pool_us", "us"),
    lo("engine.index_build_ms", "ms"),
    lo("engine.index_freeze_ms", "ms"),
    lo("engine.query_hit_us", "us"),
    lo("engine.model_fingerprint_us", "us"),
    lo("engine.wire_encode_query_us", "us"),
    lo("engine.wire_parse_us", "us"),
    lo("engine.wire_serialize_us", "us"),
    lo("engine.batch12_over_12_singles_ratio", "ratio"),
    lo("engine.query_miss_ms", "ms"),
    lo("engine.view_derive_ms", "ms"),
    hi("engine.view_hit_ratio", "ratio"),
    lo("engine.pool_select_ms", "ms"),
    hi("engine.welfare_hit_ratio", "ratio"),
    lo("store.write_store_ms", "ms"),
    lo("store.manifest_open_us", "us"),
    lo("store.shard_read_ms", "ms"),
    lo("store.shard_decode_ms", "ms"),
    lo("store.shard_fault_ms", "ms"),
    lo("store.load_all_ms", "ms"),
    lo("store.journal_append_fsync_ms", "ms"),
    lo("store.journal_replay_ms", "ms"),
    lo("store.topup_ms", "ms"),
    lo("store.compact_ms", "ms"),
    lo("store.bytes_per_set", "B"),
    lo("store.shards_faulted_per_followup", "count"),
    lo("store.resident_mb_after_followup", "MB"),
    lo("server.raw_roundtrip_us", "us"),
    lo("server.batch12_roundtrip_us", "us"),
    lo("server.handle_mean_us", "us"),
    lo("server.socket_residual_us", "us"),
    lo("client.typed_roundtrip_us", "us"),
    lo("client.overhead_us", "us"),
    lo("client.connect_hello_us", "us"),
    lo("client.unexplained_share", "ratio"),
    lo("obs.trace_on_ratio", "ratio"),
    // traced over untraced throughput of the benchmark's own spans
    hi("bench.trace_overhead_ratio", "ratio"),
];

/// A measured value with how it was obtained.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: &'static str,
    /// Inter-round (or inter-sample) quartile spread as a share of the
    /// median; 0 where the metric is a single reading.
    pub spread: f64,
    /// Samples behind the value: pooled operations for a latency, rounds
    /// for a per-round median, iterations for a layer timing.
    pub samples: u64,
}

impl Measured {
    /// A value that is one reading or derived from others: a count, a
    /// ratio, a difference.
    pub fn single(value: f64, unit: &'static str) -> Measured {
        Measured {
            value,
            unit,
            spread: 0.0,
            samples: 1,
        }
    }
}

pub type Metrics = BTreeMap<&'static str, Measured>;

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human reading the output.
    pub failures: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Count one failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

fn metrics_value(metrics: &Metrics) -> Value {
    let mut out = Map::new();
    for (name, m) in metrics {
        let mut o = Map::new();
        o.insert("value".into(), Value::Float(m.value));
        o.insert("unit".into(), Value::String(m.unit.into()));
        o.insert("spread".into(), Value::Float(m.spread));
        o.insert("samples".into(), Value::UInt(m.samples));
        out.insert((*name).into(), Value::Object(o));
    }
    Value::Object(out)
}

/// The result-file entry of one workload.
pub fn workload_value(report: &WorkloadReport) -> Value {
    let mut m = Map::new();
    m.insert("attempted".into(), Value::UInt(report.attempted));
    m.insert("failed".into(), Value::UInt(report.failed));
    m.insert(
        "failures".into(),
        Value::Array(report.failures.iter().cloned().map(Value::String).collect()),
    );
    m.insert("end_to_end".into(), metrics_value(&report.end_to_end));
    m.insert("per_layer".into(), metrics_value(&report.per_layer));
    Value::Object(m)
}

/// The one-line result the pipeline reads: `correct`, `attempted`,
/// `failed`, and `metrics` holding exactly the listed names.
pub fn contract_line(report: &WorkloadReport, traced: bool) -> Result<String, String> {
    let mut metrics = Map::new();
    let mut put = |name: &'static str, from: &Metrics| -> Result<(), String> {
        let m = from
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        let mut o = Map::new();
        o.insert("value".into(), Value::Float(m.value));
        o.insert("unit".into(), Value::String(m.unit.into()));
        metrics.insert(name.into(), Value::Object(o));
        Ok(())
    };
    if traced {
        for m in &PER_LAYER {
            put(m.name, &report.per_layer)?;
        }
    } else {
        for m in contract_end_to_end() {
            put(m.name, &report.end_to_end)?;
        }
    }
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(report.correct()));
    line.insert("attempted".into(), Value::UInt(report.attempted));
    line.insert("failed".into(), Value::UInt(report.failed));
    line.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOAD_LAYER_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == w), "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v: Value = serde_json::from_str(&text).unwrap();
        let root = v.as_object().unwrap();
        let rows = |key: &str| -> Vec<Map> {
            root[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|r| r.as_object().unwrap().clone())
                .collect()
        };
        let text_of = |r: &Map, k: &str| r[k].as_str().unwrap().to_string();
        let listed: Vec<_> = rows("end_to_end");
        let want: Vec<_> = contract_end_to_end().collect();
        assert_eq!(listed.len(), want.len());
        for (row, m) in listed.iter().zip(want) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.name());
            assert_eq!(row["bound"], Value::Float(m.bound), "{}", m.name);
        }
        let listed: Vec<_> = rows("per_layer");
        let want: Vec<_> = PER_LAYER.iter().collect();
        assert_eq!(listed.len(), want.len());
        for (row, m) in listed.iter().zip(want) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.name());
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), crate::workloads::NAMES.len());
        for (row, name) in workloads.iter().zip(crate::workloads::NAMES) {
            assert_eq!(text_of(row, "name"), name);
            assert_eq!(text_of(row, "why"), crate::workloads::why(name));
        }
    }

    #[test]
    fn contract_line_holds_exactly_the_listed_metrics() {
        let mut report = WorkloadReport {
            attempted: 10,
            ..Default::default()
        };
        for m in &END_TO_END {
            report
                .end_to_end
                .insert(m.name, Measured::single(1.5, m.unit));
        }
        let line = contract_line(&report, false).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        let o = v.as_object().unwrap();
        assert_eq!(o["correct"], Value::Bool(true));
        let metrics = o["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), 7);
        assert!(!metrics.contains_key("latency_p99_us"));
        assert!(metrics.contains_key("setup_s"));
        // a missing per-layer metric is an error, not a silent omission
        assert!(contract_line(&report, true).is_err());
        report.fail(|| "boom".into());
        assert!(!report.correct());
    }
}
