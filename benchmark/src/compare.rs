//! `compare A.json B.json`: apply every end-to-end metric's bound per
//! workload. `A` is the baseline, `B` the candidate.
//!
//! A metric is `regressed` when `B` is worse than `A` by more than the
//! bound, `unresolved` when the quartile spread recorded beside either
//! value is wider than what the bound allows (the runs cannot tell, so
//! the row says neither "regressed" nor "unchanged"), and `ok` otherwise.

use crate::fixture::{err, Res};
use crate::report::{Better, EndToEnd, END_TO_END};
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub a_spread: f64,
    pub b_spread: f64,
    /// How much worse `B` is, as a share of `A` (negative = better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// A value and the spread recorded beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

pub fn judge(metric: &EndToEnd, a: Reading, b: Reading) -> (f64, Verdict) {
    let worse = match metric.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let worse_by = if a.value == 0.0 {
        if worse > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse / a.value.abs()
    };
    // what the metric may worsen by, and what the recorded spreads say a
    // run moves by on its own, both in the metric's unit
    let allowed = (metric.bound * a.value.abs()).max(metric.slack);
    let noise = a.spread.max(b.spread) * a.value.abs();
    let verdict = if allowed > 0.0 && noise > allowed {
        Verdict::Unresolved
    } else if worse > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

fn reading(workload: &Value, metric: &str) -> Option<Reading> {
    let m = workload
        .as_object()?
        .get("end_to_end")?
        .as_object()?
        .get(metric)?
        .as_object()?;
    Some(Reading {
        value: number(m.get("value")?)?,
        spread: m.get("spread").and_then(number).unwrap_or(0.0),
    })
}

/// Compare two parsed result files. Workloads or metrics present in only
/// one file are skipped (`latency_p99_us` exists only where the sample
/// supports it); files measured with different op-count tables are
/// refused.
pub fn compare(a: &Value, b: &Value) -> Res<Vec<Row>> {
    let table = |v: &Value| -> Option<String> {
        Some(
            v.as_object()?
                .get("fingerprint")?
                .as_object()?
                .get("op_table_hash")?
                .as_str()?
                .to_string(),
        )
    };
    if table(a) != table(b) {
        return Err(format!(
            "the files were measured with different op-count tables ({:?} and {:?})",
            table(a),
            table(b)
        ));
    }
    let workloads = |v: &Value| v.as_object()?.get("workloads")?.as_object().cloned();
    let (wa, wb) = match (workloads(a), workloads(b)) {
        (Some(x), Some(y)) => (x, y),
        _ => return Err("a result file has no `workloads` object".into()),
    };
    let mut rows = Vec::new();
    for (name, in_a) in &wa {
        let Some(in_b) = wb.get(name) else { continue };
        for metric in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(in_a, metric.name), reading(in_b, metric.name))
            else {
                continue;
            };
            let (worse_by, verdict) = judge(metric, ra, rb);
            rows.push(Row {
                workload: name.clone(),
                metric: metric.name,
                unit: metric.unit,
                a: ra.value,
                b: rb.value,
                a_spread: ra.spread,
                b_spread: rb.spread,
                worse_by,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the files share no (workload, metric) pair".into());
    }
    Ok(rows)
}

pub fn compare_files(a: &str, b: &str) -> Res<Vec<Row>> {
    let load = |path: &str| -> Res<Value> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {}", err(e)))
    };
    compare(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(hash: &str, workloads: &str) -> Value {
        serde_json::from_str(&format!(
            "{{\"fingerprint\": {{\"op_table_hash\": \"{hash}\"}}, \"workloads\": {workloads}}}"
        ))
        .unwrap()
    }

    fn one(metrics: &str) -> Value {
        file(
            "h",
            &format!("{{\"serve_hot\": {{\"end_to_end\": {metrics}}}}}"),
        )
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_on_hand_made_files() {
        let a = one(r#"{"ops_per_s": {"value": 1000.0, "spread": 0.01},
                "latency_p50_us": {"value": 30.0, "spread": 0.02},
                "latency_p90_us": {"value": 40.0, "spread": 0.2},
                "latency_p99_us": {"value": 90.0, "spread": 0.02},
                "setup_s": {"value": 0.4, "spread": 0.0},
                "failed_ops_share": {"value": 0.0, "spread": 0.0},
                "welfare_per_op": {"value": 500.0, "spread": 0.0}}"#);
        let b = one(r#"{"ops_per_s": {"value": 850.0, "spread": 0.01},
                "latency_p50_us": {"value": 32.0, "spread": 0.02},
                "latency_p90_us": {"value": 60.0, "spread": 0.02},
                "setup_s": {"value": 0.8, "spread": 0.0},
                "failed_ops_share": {"value": 0.001, "spread": 0.0},
                "welfare_per_op": {"value": 496.0, "spread": 0.0}}"#);
        let rows = compare(&a, &b).unwrap();
        // 15 % fewer ops/s against a 10 % bound, tight spread
        assert_eq!(verdict_of(&rows, "ops_per_s"), Verdict::Regressed);
        // +6.7 % p50 against a 10 % bound
        assert_eq!(verdict_of(&rows, "latency_p50_us"), Verdict::Ok);
        // +50 % p90 but the baseline's spread is 20 % > the 10 % bound
        assert_eq!(verdict_of(&rows, "latency_p90_us"), Verdict::Unresolved);
        // doubled set-up, yet within the half second always tolerated
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Ok);
        // any increase of the failed share regresses
        assert_eq!(verdict_of(&rows, "failed_ops_share"), Verdict::Regressed);
        // −0.8 % welfare against a 1 % bound
        assert_eq!(verdict_of(&rows, "welfare_per_op"), Verdict::Ok);
        // p99 is only in one file: no row
        assert!(rows.iter().all(|r| r.metric != "latency_p99_us"));
        let ops = rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert!((ops.worse_by - 0.15).abs() < 1e-12);
    }

    #[test]
    fn improvements_and_equal_files_are_ok() {
        let a = one(
            r#"{"ops_per_s": {"value": 1000.0, "spread": 0.01}, "latency_p50_us": {"value": 30.0, "spread": 0.01}}"#,
        );
        let b = one(
            r#"{"ops_per_s": {"value": 1500.0, "spread": 0.01}, "latency_p50_us": {"value": 20.0, "spread": 0.01}}"#,
        );
        assert!(compare(&a, &b)
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by < 0.0));
        assert!(compare(&a, &a)
            .unwrap()
            .iter()
            .all(|r| r.verdict == Verdict::Ok && r.worse_by == 0.0));
    }

    #[test]
    fn a_wide_spread_is_unresolved_even_without_a_difference() {
        let a = one(r#"{"cpu_us_per_op": {"value": 10.0, "spread": 0.3}}"#);
        assert_eq!(
            verdict_of(&compare(&a, &a).unwrap(), "cpu_us_per_op"),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_spread_within_the_absolute_slack_does_not_unsettle_setup() {
        // five set-ups of 0.6 s with a cold first one spread by 47 %, which
        // is 0.28 s: inside the half second set-up may always move by
        let a = one(r#"{"setup_s": {"value": 0.6, "spread": 0.47}}"#);
        let b = one(r#"{"setup_s": {"value": 0.61, "spread": 0.52}}"#);
        assert_eq!(
            verdict_of(&compare(&a, &b).unwrap(), "setup_s"),
            Verdict::Ok
        );
        // the same spread on a 4 s set-up is 1.9 s of noise against 1 s allowed
        let a = one(r#"{"setup_s": {"value": 4.0, "spread": 0.47}}"#);
        assert_eq!(
            verdict_of(&compare(&a, &a).unwrap(), "setup_s"),
            Verdict::Unresolved
        );
    }

    #[test]
    fn files_from_different_tables_or_without_overlap_are_refused() {
        let a = file("h1", "{}");
        let b = file("h2", "{}");
        assert!(compare(&a, &b).unwrap_err().contains("op-count tables"));
        assert!(compare(&a, &a).unwrap_err().contains("share no"));
    }
}
