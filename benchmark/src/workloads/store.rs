//! `store_lifecycle`: one thread, in process, the store's write path
//! beside its read path. One operation is one whole cycle on a fresh copy
//! of the base store:
//!
//! open journaled → fresh query → first follow-up (faults every shard) →
//! top up θ by a quarter (sample the deficit, journal append, fsync) →
//! query → drop → reopen (journal replay) → compact → reopen → query.
//!
//! Queries use few Monte-Carlo samples so the store, not the estimator,
//! dominates. Restoring the base store between cycles is untimed.

use super::{close_trace, ratio, Rounds, RunConfig, SetupClock};
use crate::fixture::{
    cold_index, copy_dir, err, followup_query, nethept, prior_allocations, query, reference_engine,
    Expected, Res, Scratch, WARM_QUERY_SEED,
};
use crate::machine::{peak_rss_mb, process_cpu_seconds};
use crate::report::{Measured, WorkloadReport};
use crate::spans::SpanLog;
use cwelmax_diffusion::Allocation;
use cwelmax_engine::{CampaignEngine, CampaignQuery, EngineBuilder, QueryAlgorithm};
use cwelmax_graph::Graph;
use cwelmax_obs::MetricsRegistry;
use cwelmax_store::{write_store, JournaledStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

struct Setup {
    graph: Arc<Graph>,
    fresh: CampaignQuery,
    followup: CampaignQuery,
    scratch: Scratch,
}

impl Setup {
    fn base_dir(&self) -> PathBuf {
        self.scratch.path().join("base.store")
    }

    fn work_dir(&self) -> PathBuf {
        self.scratch.path().join("work.store")
    }

    fn build(cfg: &RunConfig) -> Res<Setup> {
        let t = &cfg.table;
        let graph = nethept();
        let index = cold_index(&graph, t.theta, t);
        let pool = index.greedy_select(t.budget_cap as usize).seeds;
        let scratch = Scratch::new(&cfg.scratch_root, "store_lifecycle")?;
        let sp = &prior_allocations(&pool, 1)[0];
        let setup = Setup {
            graph,
            fresh: query(
                0,
                [10, 10],
                QueryAlgorithm::SeqGrdNm,
                Allocation::new(),
                t.store_samples,
                WARM_QUERY_SEED,
            ),
            followup: followup_query(0, sp, t.store_samples),
            scratch,
        };
        write_store(&index, setup.base_dir(), t.shards).map_err(err)?;
        // one untimed cycle: page cache, allocator, lazy statics
        setup.restore()?;
        cycle(&setup, cfg, &mut SpanLog::disabled(), 0)?;
        Ok(setup)
    }

    /// Put a fresh copy of the base store in the work directory.
    fn restore(&self) -> Res<()> {
        copy_dir(&self.base_dir(), &self.work_dir())
    }
}

/// A journaled store opened the way `serve --store` opens it, with the
/// handle compaction needs kept beside the engine.
fn open(dir: &Path, graph: &Arc<Graph>) -> Res<(Arc<JournaledStore>, CampaignEngine)> {
    let metrics = MetricsRegistry::new();
    let store =
        Arc::new(JournaledStore::open_with_metrics(dir, Arc::clone(&metrics)).map_err(err)?);
    let engine = EngineBuilder::from_backend(Arc::clone(&store) as _)
        .graph(Arc::clone(graph))
        .metrics(metrics)
        .build()
        .map_err(err)?;
    Ok((store, engine))
}

/// What one cycle returned and counted.
struct Cycle {
    /// Fresh and follow-up answers at θ₀, fresh answers after the top-up
    /// and after compaction.
    answers: [Expected; 4],
    welfare_sum: f64,
    shards_faulted: u64,
    resident_bytes: i64,
    welfare_evals: u64,
    welfare_hits: u64,
    view_hits: u64,
    views_derived: u64,
}

fn cycle(setup: &Setup, cfg: &RunConfig, log: &mut SpanLog, op_id: u64) -> Res<Cycle> {
    let t = &cfg.table;
    let dir = setup.work_dir();
    let root = log.open("store.cycle", None, op_id);
    let parent = Some(root);
    let mut welfare_sum = 0.0;
    let (mut evals, mut hits, mut view_hits, mut views) = (0, 0, 0, 0);
    let mut count = |engine: &CampaignEngine| {
        let s = engine.stats();
        evals += s.welfare_evals;
        hits += s.welfare_cache_hits;
        view_hits += s.conditioned_hits;
        views += s.conditioned_views;
    };
    let mut ask = |log: &mut SpanLog, name, engine: &CampaignEngine, q| -> Res<Expected> {
        let a = log
            .leaf(name, parent, op_id, || engine.query(q))
            .map_err(err)?;
        welfare_sum += a.welfare;
        Ok(Expected::of(&a))
    };

    let (store, engine) = log.leaf("store.open", parent, op_id, || open(&dir, &setup.graph))?;
    let fresh0 = ask(log, "engine.query_fresh", &engine, &setup.fresh)?;
    let before = engine.stats().shards_loaded;
    let follow0 = ask(log, "engine.followup_first", &engine, &setup.followup)?;
    let shards_faulted = engine.stats().shards_loaded - before;
    let resident_bytes = engine
        .metrics()
        .snapshot()
        .gauges
        .get("store.resident_bytes")
        .copied()
        .unwrap_or(0);
    let theta = log
        .leaf("store.topup", parent, op_id, || {
            engine.ensure_theta(t.theta_topped_up)
        })
        .map_err(err)?;
    if theta != t.theta_topped_up {
        return Err(format!(
            "top-up reached θ = {theta}, not {}",
            t.theta_topped_up
        ));
    }
    let topped = ask(log, "engine.query_topped_up", &engine, &setup.fresh)?;
    count(&engine);
    log.leaf("store.close", parent, op_id, || drop((engine, store)));

    let (store, engine) = log.leaf("store.reopen_replay", parent, op_id, || {
        open(&dir, &setup.graph)
    })?;
    log.leaf("store.compact", parent, op_id, || {
        store.compact(Some(t.shards))
    })
    .map_err(err)?;
    drop((engine, store));

    let (store, engine) = log.leaf("store.reopen", parent, op_id, || open(&dir, &setup.graph))?;
    let compacted = ask(log, "engine.query_compacted", &engine, &setup.fresh)?;
    count(&engine);
    drop((engine, store));
    log.close(root);
    Ok(Cycle {
        answers: [fresh0, follow0, topped, compacted],
        welfare_sum,
        shards_faulted,
        resident_bytes,
        welfare_evals: evals,
        welfare_hits: hits,
        view_hits,
        views_derived: views,
    })
}

/// The answers a cold build gives: at θ₀ for the first two queries of a
/// cycle, at θ₁ — same seed — after the top-up and after compaction.
fn expected_answers(setup: &Setup, cfg: &RunConfig) -> Res<[Expected; 4]> {
    let t = &cfg.table;
    let at = |theta| reference_engine(Arc::new(cold_index(&setup.graph, theta, t)), &setup.graph);
    let base = at(t.theta)?;
    let grown = at(t.theta_topped_up)?;
    let ask = |e: &CampaignEngine, q| e.query(q).map(|a| Expected::of(&a)).map_err(err);
    let grown_fresh = ask(&grown, &setup.fresh)?;
    Ok([
        ask(&base, &setup.fresh)?,
        ask(&base, &setup.followup)?,
        grown_fresh.clone(),
        grown_fresh,
    ])
}

/// What a stretch of cycles measured: each cycle's latency, the wall and
/// CPU seconds spent inside cycles, the welfare returned, the last cycle.
struct Stretch {
    latencies_ns: Vec<u64>,
    wall_s: f64,
    cpu_s: f64,
    welfare_sum: f64,
    last: Option<Cycle>,
}

fn run_cycles(
    setup: &Setup,
    cfg: &RunConfig,
    log: &mut SpanLog,
    ids: std::ops::Range<u64>,
    expected: &[Expected; 4],
    report: &mut WorkloadReport,
) -> Res<Stretch> {
    let mut out = Stretch {
        latencies_ns: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        welfare_sum: 0.0,
        last: None,
    };
    for op_id in ids {
        setup.restore()?;
        let cpu = process_cpu_seconds();
        let start = Instant::now();
        let outcome = cycle(setup, cfg, log, op_id);
        let elapsed = start.elapsed();
        out.cpu_s += process_cpu_seconds() - cpu;
        out.wall_s += elapsed.as_secs_f64();
        out.latencies_ns.push(elapsed.as_nanos() as u64);
        report.attempted += 1;
        match outcome {
            Ok(c) => {
                out.welfare_sum += c.welfare_sum;
                if c.answers != *expected {
                    let which = c.answers.iter().zip(expected).position(|(a, b)| a != b);
                    report.fail(|| {
                        format!("cycle {op_id}: answer {which:?} differs from a cold build")
                    });
                }
                out.last = Some(c);
            }
            Err(e) => report.fail(|| format!("cycle {op_id}: {e}")),
        }
    }
    Ok(out)
}

fn layer_metrics(c: &Cycle, report: &mut WorkloadReport) {
    let layer = &mut report.per_layer;
    layer.insert(
        "store.shards_faulted_per_followup",
        Measured::single(c.shards_faulted as f64, "count"),
    );
    layer.insert(
        "store.resident_mb_after_followup",
        Measured::single(c.resident_bytes as f64 / (1024.0 * 1024.0), "MB"),
    );
    layer.insert(
        "engine.welfare_hit_ratio",
        Measured::single(ratio(c.welfare_hits, c.welfare_evals), "ratio"),
    );
    layer.insert(
        "engine.view_hit_ratio",
        Measured::single(ratio(c.view_hits, c.view_hits + c.views_derived), "ratio"),
    );
}

pub(crate) fn run(cfg: &RunConfig) -> Res<WorkloadReport> {
    let t = &cfg.table;
    let mut clock = SetupClock::default();
    let setup = clock.time(|| Setup::build(cfg))?;
    let expected = expected_answers(&setup, cfg)?;
    let mut report = WorkloadReport::default();
    let per_round = t.store_cycles as u64;
    if cfg.traced {
        let n = (per_round / 10).max(3);
        let mut log = SpanLog::enabled();
        let on = run_cycles(&setup, cfg, &mut log, 0..n, &expected, &mut report)?;
        let mut silent = SpanLog::disabled();
        let off = run_cycles(&setup, cfg, &mut silent, n..2 * n, &expected, &mut report)?;
        if let Some(c) = &on.last {
            layer_metrics(c, &mut report);
        }
        let seconds = |s: &Stretch| -> Vec<f64> {
            s.latencies_ns.iter().map(|&ns| ns as f64 / 1e9).collect()
        };
        close_trace(
            cfg,
            "store_lifecycle",
            log.spans(),
            &seconds(&on),
            &seconds(&off),
            &mut report,
        )?;
        report.end_to_end.insert("setup_s", clock.finish());
        return Ok(report);
    }
    let mut rounds = Rounds::default();
    let (mut welfare_sum, mut last) = (0.0, None);
    for round in 0..t.rounds as u64 {
        if rounds.overrun(cfg.seconds) {
            break;
        }
        let ids = round * per_round..(round + 1) * per_round;
        let s = run_cycles(
            &setup,
            cfg,
            &mut SpanLog::disabled(),
            ids,
            &expected,
            &mut report,
        )?;
        welfare_sum += s.welfare_sum;
        last = s.last.or(last);
        rounds.record(s.wall_s, s.cpu_s, s.latencies_ns);
    }
    // four answers per cycle
    report.end_to_end.insert(
        "welfare_per_op",
        Measured::single(
            welfare_sum / (4 * rounds.operations()).max(1) as f64,
            "welfare",
        ),
    );
    rounds.finish(&mut report);
    if let Some(c) = &last {
        layer_metrics(c, &mut report);
    }
    report
        .end_to_end
        .insert("peak_rss_mb", Measured::single(peak_rss_mb(), "MB"));
    drop(setup);
    clock.repeat(t.setup_repeats - 1, || Setup::build(cfg), |_| Ok(()))?;
    report.end_to_end.insert("setup_s", clock.finish());
    Ok(report)
}
