//! The three serving workloads: closed loop, two typed clients against a
//! live `CampaignServer` on loopback over a journaled-store engine (the
//! `serve --store` path). `CwelmaxClient` is synchronous — a caller waits
//! for its reply — so the loop is closed by construction; two clients is
//! one per core, which keeps both cores busy so that a round trip
//! measures the program and not the idle wake-up of a sleeping core.

use super::{close_trace, ratio, Rounds, RunConfig, SetupClock};
use crate::fixture::{
    answer_all, cold_index, engine_over_store, err, followup_query, hot_universe, nethept,
    prior_allocations, query, reference_engine, Expected, Res, Scratch, Served, WARM_QUERY_SEED,
};
use crate::machine::{peak_rss_mb, process_cpu_seconds};
use crate::ops::{self, OpTable, ServeOp};
use crate::report::{Measured, WorkloadReport};
use crate::spans::{SpanId, SpanLog};
use crate::wirekit;
use cwelmax_client::{ClientError, CwelmaxClient, RemoteAnswer};
use cwelmax_diffusion::Allocation;
use cwelmax_engine::wire::{self, Protocol, RequestKind};
use cwelmax_engine::{CampaignEngine, CampaignQuery, EngineStats, QueryAlgorithm, RrIndex};
use cwelmax_graph::Graph;
use cwelmax_server::ServerStats;
use cwelmax_store::write_store;
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Hot,
    Novel,
    Churn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Novel => "serve_novel",
            Kind::Churn => "followup_churn",
        }
    }
}

/// The queries a workload exchanges and the ones set-up runs once.
struct Plan {
    queries: Vec<CampaignQuery>,
    /// `serve_hot`'s batch table, as queries ready to send.
    batches: Vec<Vec<CampaignQuery>>,
    batch_indices: Vec<Vec<u32>>,
    /// Table indices set-up warms (welfare cache, pool, views).
    warm: Vec<u32>,
}

/// `serve_novel` holds two rounds of queries beyond the timed ones: the
/// traced and the untraced replay pass each need queries no cache has
/// seen. The second is the first with this bit flipped in every
/// Monte-Carlo seed (all are below 2^40), so the two passes run the same
/// shapes in the same order and differ only by recording.
const NOVEL_TWIN_BIT: u64 = 1 << 40;

impl Plan {
    fn build(kind: Kind, t: &OpTable, seed: u64, pool: &[u32]) -> Plan {
        let mut plan = Plan {
            queries: Vec::new(),
            batches: Vec::new(),
            batch_indices: Vec::new(),
            warm: Vec::new(),
        };
        match kind {
            Kind::Hot => {
                plan.queries = hot_universe(t);
                let sps = prior_allocations(pool, t.hot_sps);
                plan.queries.extend(
                    sps.iter()
                        .enumerate()
                        .map(|(k, sp)| followup_query(k, sp, t.warm_samples)),
                );
                plan.batch_indices = ops::hot_batches(t);
                plan.batches = plan
                    .batch_indices
                    .iter()
                    .map(|ix| {
                        ix.iter()
                            .map(|&i| plan.queries[i as usize].clone())
                            .collect()
                    })
                    .collect();
                plan.warm = (0..plan.queries.len() as u32).collect();
            }
            Kind::Churn => {
                plan.queries = prior_allocations(pool, t.churn_sps)
                    .iter()
                    .enumerate()
                    .map(|(k, sp)| followup_query(k, sp, t.warm_samples))
                    .collect();
                plan.warm = (0..plan.queries.len() as u32).collect();
            }
            Kind::Novel => {
                for round in 0..=t.rounds {
                    for client in 0..t.clients {
                        plan.queries
                            .extend(ops::novel_shapes(t, seed, round, client).iter().map(|s| {
                                query(
                                    s.config,
                                    s.budgets,
                                    QueryAlgorithm::ALL[s.algorithm],
                                    Allocation::new(),
                                    t.novel_samples,
                                    s.query_seed,
                                )
                            }));
                    }
                }
                let spare = t.rounds * t.clients * t.novel_requests;
                let twins: Vec<CampaignQuery> = plan.queries[spare..]
                    .iter()
                    .map(|q| {
                        let mut twin = q.clone();
                        twin.sim.base_seed ^= NOVEL_TWIN_BIT;
                        twin
                    })
                    .collect();
                plan.queries.extend(twins);
                // one query outside the op lists selects the pool and
                // wakes the path; everything timed stays novel
                plan.warm = vec![plan.queries.len() as u32];
                plan.queries.push(query(
                    0,
                    [10, 10],
                    QueryAlgorithm::SeqGrdNm,
                    Allocation::new(),
                    t.novel_samples,
                    WARM_QUERY_SEED,
                ));
            }
        }
        plan
    }

    /// One client's op list for one round, as phases: the clients start
    /// each phase together. Only `serve_hot` has more than one.
    fn ops(
        &self,
        kind: Kind,
        t: &OpTable,
        seed: u64,
        round: usize,
        client: usize,
    ) -> Vec<Vec<ServeOp>> {
        match kind {
            Kind::Hot => ops::hot_ops(t, seed, client).into(),
            Kind::Churn => vec![ops::churn_ops(t, seed, round, client)],
            Kind::Novel => {
                let first = (round * t.clients + client) * t.novel_requests;
                vec![(first..first + t.novel_requests)
                    .map(|i| ServeOp::Single(i as u32))
                    .collect()]
            }
        }
    }
}

/// Everything set-up builds, in drop order: clients before the server.
struct Stack {
    clients: Vec<CwelmaxClient>,
    served: Served,
    plan: Plan,
    index: Arc<RrIndex>,
    graph: Arc<Graph>,
    scratch: Scratch,
}

impl Stack {
    /// Untimed by the rounds, timed as `setup_s`: graph, index, store on
    /// disk, engine, server, connections, warm-up over the wire.
    fn build(kind: Kind, cfg: &RunConfig) -> Res<Stack> {
        let t = &cfg.table;
        let graph = nethept();
        let index = Arc::new(cold_index(&graph, t.theta, t));
        let pool = index.greedy_select(t.budget_cap as usize).seeds;
        let scratch = Scratch::new(&cfg.scratch_root, kind.name())?;
        let store_dir = scratch.path().join("index.store");
        write_store(&index, &store_dir, t.shards).map_err(err)?;
        let engine = Arc::new(engine_over_store(&store_dir, &graph)?);
        let served = Served::start(engine)?;
        let mut clients = (0..t.clients)
            .map(|_| served.connect())
            .collect::<Res<Vec<_>>>()?;
        let plan = Plan::build(kind, t, cfg.seed, &pool);
        // warm over the wire, the clients sharing the list
        let warm = &plan.warm;
        let queries = &plan.queries;
        let n = clients.len();
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || -> Res<()> {
                        for &i in warm.iter().skip(c).step_by(n) {
                            client.query(&queries[i as usize]).map_err(err)?;
                        }
                        Ok(())
                    })
                })
                .collect();
            handles.into_iter().try_for_each(|h| {
                h.join()
                    .map_err(|_| "a warm-up thread panicked".to_string())?
            })
        })?;
        Ok(Stack {
            clients,
            served,
            plan,
            index,
            graph,
            scratch,
        })
    }

    fn tear_down(self) -> Res<()> {
        drop(self.clients);
        self.served.stop()
    }

    fn store_dir(&self) -> std::path::PathBuf {
        self.scratch.path().join("index.store")
    }
}

/// The reference answers: an in-process engine over the monolithic index
/// the store was written from. `serve_hot` and `followup_churn` check
/// every answer, `serve_novel` a seeded tenth.
fn expected_answers(kind: Kind, cfg: &RunConfig, stack: &Stack) -> Res<Vec<Option<Expected>>> {
    let reference = reference_engine(Arc::clone(&stack.index), &stack.graph)?;
    let queries = &stack.plan.queries;
    let checked: Vec<bool> = match kind {
        Kind::Hot | Kind::Churn => vec![true; queries.len()],
        Kind::Novel => ops::novel_checked(&cfg.table, cfg.seed, queries.len()),
    };
    let picked: Vec<CampaignQuery> = queries
        .iter()
        .zip(&checked)
        .filter(|(_, &c)| c)
        .map(|(q, _)| q.clone())
        .collect();
    let mut answers = answer_all(&reference, &picked)?.into_iter();
    Ok(checked
        .iter()
        .map(|&c| if c { answers.next() } else { None })
        .collect())
}

/// What one client did in one round.
struct Outcome {
    start: Instant,
    end: Instant,
    latencies_ns: Vec<u64>,
    welfare_sum: f64,
    answers: u64,
    failures: Vec<String>,
}

/// Fold one answer into the round's welfare and compare it with the
/// reference where the gate covers it; `Some(description)` on a failure.
fn check(
    outcome: &mut Outcome,
    index: u32,
    answer: Result<&RemoteAnswer, String>,
    expected: &[Option<Expected>],
) -> Option<String> {
    match answer {
        Ok(a) => {
            outcome.welfare_sum += a.welfare;
            outcome.answers += 1;
            let want = expected[index as usize].as_ref()?;
            (!want.matches_remote(a))
                .then(|| format!("query {index}: answer differs from the reference"))
        }
        Err(e) => Some(format!("query {index}: {e}")),
    }
}

/// Send one request, time it, check what comes back.
fn send(
    client: &mut CwelmaxClient,
    op: ServeOp,
    plan: &Plan,
    expected: &[Option<Expected>],
    out: &mut Outcome,
) -> Option<String> {
    let sent = Instant::now();
    match op {
        ServeOp::Single(i) => {
            let answer = client.query(&plan.queries[i as usize]);
            out.latencies_ns.push(sent.elapsed().as_nanos() as u64);
            check(out, i, answer.as_ref().map_err(err), expected)
        }
        ServeOp::Batch(b) => {
            let answers = client.query_batch(&plan.batches[b as usize]);
            out.latencies_ns.push(sent.elapsed().as_nanos() as u64);
            match answers {
                // every entry is checked; the first difference describes
                // the failed request
                Ok(rows) => rows
                    .iter()
                    .zip(&plan.batch_indices[b as usize])
                    .filter_map(|(row, &i)| check(out, i, row.as_ref().map_err(err), expected))
                    .reduce(|first, _| first),
                Err(e) => Some(format!("batch {b}: {e}")),
            }
        }
    }
}

/// Drive one client through its op list, timing every request and
/// checking every answer the gate covers. A failed or mismatched request
/// leaves one description, however many batch entries differed.
fn drive(
    client: &mut CwelmaxClient,
    phases: &[Vec<ServeOp>],
    plan: &Plan,
    expected: &[Option<Expected>],
    barrier: &Barrier,
) -> Outcome {
    barrier.wait();
    let start = Instant::now();
    let mut out = Outcome {
        start,
        end: start,
        latencies_ns: Vec::with_capacity(phases.iter().map(Vec::len).sum()),
        welfare_sum: 0.0,
        answers: 0,
        failures: Vec::new(),
    };
    for (k, phase) in phases.iter().enumerate() {
        // every client enters a phase at the same moment
        if k > 0 {
            barrier.wait();
        }
        for op in phase {
            let failure = send(client, *op, plan, expected, &mut out);
            out.failures.extend(failure);
        }
    }
    out.end = Instant::now();
    out
}

/// Run every client's list concurrently; returns the outcomes and the
/// wall seconds from the first request sent to the last reply read.
fn run_round(
    clients: &mut [CwelmaxClient],
    lists: &[Vec<Vec<ServeOp>>],
    plan: &Plan,
    expected: &[Option<Expected>],
) -> Res<(Vec<Outcome>, f64)> {
    let barrier = Barrier::new(clients.len());
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(lists)
            .map(|(client, ops)| {
                let barrier = &barrier;
                scope.spawn(move || drive(client, ops, plan, expected, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Res<Vec<Outcome>>>()
    })?;
    let first = outcomes.iter().map(|o| o.start).min();
    let last = outcomes.iter().map(|o| o.end).max();
    let wall = match (first, last) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    Ok((outcomes, wall))
}

/// Counter readings before and after a stretch of requests, for the
/// ratios the program counts itself.
struct Counters {
    engine: EngineStats,
    server: ServerStats,
}

impl Counters {
    fn read(served: &Served) -> Counters {
        Counters {
            engine: served.engine.stats(),
            server: served.handle.stats(),
        }
    }

    /// The per-layer metrics a serving workload supplies itself.
    fn layer_metrics(&self, served: &Served, report: &mut WorkloadReport) {
        let now = Counters::read(served);
        let (e0, e1) = (&self.engine, &now.engine);
        let hits = e1.conditioned_hits - e0.conditioned_hits;
        let derived = e1.conditioned_views - e0.conditioned_views;
        let requests = now.server.requests - self.server.requests;
        let handled_us = (now.server.latency_nanos - self.server.latency_nanos) as f64 / 1e3;
        let resident = served
            .engine
            .metrics()
            .snapshot()
            .gauges
            .get("store.resident_bytes")
            .copied()
            .unwrap_or(0);
        let layer = &mut report.per_layer;
        layer.insert(
            "engine.welfare_hit_ratio",
            Measured::single(
                ratio(
                    e1.welfare_cache_hits - e0.welfare_cache_hits,
                    e1.welfare_evals - e0.welfare_evals,
                ),
                "ratio",
            ),
        );
        layer.insert(
            "engine.view_hit_ratio",
            Measured::single(ratio(hits, hits + derived), "ratio"),
        );
        layer.insert(
            "server.handle_mean_us",
            Measured::single(handled_us / requests.max(1) as f64, "us"),
        );
        // shards are faulted by the first follow-up and stay resident, so
        // the stretch itself faults none; report what follow-ups hold
        if hits + derived > 0 {
            layer.insert(
                "store.shards_faulted_per_followup",
                Measured::single(e1.shards_loaded as f64, "count"),
            );
            layer.insert(
                "store.resident_mb_after_followup",
                Measured::single(resident as f64 / (1024.0 * 1024.0), "MB"),
            );
        }
    }
}

pub(crate) fn run(kind: Kind, cfg: &RunConfig) -> Res<WorkloadReport> {
    let t = &cfg.table;
    let mut clock = SetupClock::default();
    let mut stack = clock.time(|| Stack::build(kind, cfg))?;
    let peak_after_setup = peak_rss_mb();
    let expected = expected_answers(kind, cfg, &stack)?;
    let mut report = WorkloadReport::default();
    let outcome = if cfg.traced {
        traced_pass(kind, cfg, &mut stack, &expected, &mut report)
    } else {
        timed_rounds(kind, cfg, &mut stack, &expected, &mut report)
    };
    // the server is stopped whatever happened above
    stack.tear_down()?;
    outcome?;
    if !cfg.traced {
        // What `followup_churn` holds is there when set-up ends: every
        // follow-up answered once, the view cache full, every shard
        // resident, 210 MB within 1 % from process to process. The rounds
        // add nothing that lives, only what two threads freeing 5 MB views
        // leave in their arenas: 30 to 80 MB, a random walk that differs
        // by a tenth between two processes on one seed.
        let peak = match kind {
            Kind::Churn => peak_after_setup,
            Kind::Hot | Kind::Novel => peak_rss_mb(),
        };
        report
            .end_to_end
            .insert("peak_rss_mb", Measured::single(peak, "MB"));
        clock.repeat(
            t.setup_repeats - 1,
            || Stack::build(kind, cfg),
            Stack::tear_down,
        )?;
    }
    report.end_to_end.insert("setup_s", clock.finish());
    Ok(report)
}

fn timed_rounds(
    kind: Kind,
    cfg: &RunConfig,
    stack: &mut Stack,
    expected: &[Option<Expected>],
    report: &mut WorkloadReport,
) -> Res<()> {
    let t = &cfg.table;
    let before = Counters::read(&stack.served);
    let mut rounds = Rounds::default();
    let (mut welfare_sum, mut answers) = (0.0, 0u64);
    for round in 0..t.rounds {
        if rounds.overrun(cfg.seconds) {
            break;
        }
        let lists: Vec<_> = (0..t.clients)
            .map(|c| stack.plan.ops(kind, t, cfg.seed, round, c))
            .collect();
        let cpu = process_cpu_seconds();
        let (outcomes, wall) = run_round(&mut stack.clients, &lists, &stack.plan, expected)?;
        let cpu = process_cpu_seconds() - cpu;
        let mut latencies = Vec::new();
        for mut o in outcomes {
            latencies.append(&mut o.latencies_ns);
            welfare_sum += o.welfare_sum;
            answers += o.answers;
            for f in o.failures {
                report.fail(|| f);
            }
        }
        rounds.record(wall, cpu, latencies);
    }
    report.attempted += rounds.operations();
    report.end_to_end.insert(
        "welfare_per_op",
        Measured::single(welfare_sum / answers.max(1) as f64, "welfare"),
    );
    rounds.finish(report);
    before.layer_metrics(&stack.served, report);
    Ok(())
}

/// Replay one request in process on `shadow`, a second engine over the
/// same store that has seen exactly the requests the server's engine has,
/// so its caches are in the state the server's were in when it answered.
/// Each layer call is a child span of the over-the-wire root.
fn replay(
    log: &mut SpanLog,
    root: SpanId,
    op_id: u64,
    shadow: &CampaignEngine,
    queries: &[CampaignQuery],
) -> Res<()> {
    let parent = Some(root);
    let batch = queries.len() > 1;
    let line = log.leaf("client.encode", parent, op_id, || {
        if batch {
            wirekit::batch_line(queries)
        } else {
            wirekit::query_line(&queries[0])
        }
    });
    let request = log
        .leaf("engine.wire_parse", parent, op_id, || {
            wire::parse_request_line(&line)
        })
        .map_err(|(_, e)| e.message)?;
    let response = match request.kind {
        RequestKind::Query(q) => {
            let answer = log
                .leaf("engine.query", parent, op_id, || shadow.query(&q))
                .map_err(err)?;
            log.leaf("engine.wire_serialize", parent, op_id, || {
                wire::to_line(&wire::answer_response(&answer, Protocol::V2))
            })
        }
        RequestKind::Batch(entries) => {
            let runnable: Vec<CampaignQuery> = entries.into_iter().flatten().collect();
            let rows: Vec<_> = log
                .leaf("engine.query_batch", parent, op_id, || {
                    shadow.query_batch(&runnable, 0)
                })
                .into_iter()
                .map(|r| r.map_err(|e| wire::WireError::from_engine(&e)))
                .collect();
            log.leaf("engine.wire_serialize", parent, op_id, || {
                wire::to_line(&wire::batch_response(&rows, Protocol::V2))
            })
        }
        _ => return Err("the replayed line did not parse as a query".into()),
    };
    log.leaf("client.decode", parent, op_id, || {
        wirekit::decode(&response)
    })?;
    Ok(())
}

/// The traced pass's moving parts: client 0 over the wire, the shadow
/// engine for the in-process replay.
struct Tracer<'a> {
    client: &'a mut CwelmaxClient,
    shadow: &'a CampaignEngine,
    plan: &'a Plan,
    expected: &'a [Option<Expected>],
}

impl Tracer<'_> {
    /// One pass over `ops`: each request over the wire under a root span
    /// of its own, then replayed in process as that root's children.
    /// Returns the seconds each request took, replay included.
    fn pass(
        &mut self,
        log: &mut SpanLog,
        ops: &[ServeOp],
        first_op_id: u64,
        report: &mut WorkloadReport,
    ) -> Res<Vec<f64>> {
        let mut seconds = Vec::with_capacity(ops.len());
        for (k, op) in ops.iter().enumerate() {
            let start = Instant::now();
            let op_id = first_op_id + k as u64;
            let (queries, indices): (&[CampaignQuery], &[u32]) = match op {
                ServeOp::Single(i) => (
                    std::slice::from_ref(&self.plan.queries[*i as usize]),
                    std::slice::from_ref(i),
                ),
                ServeOp::Batch(b) => (
                    &self.plan.batches[*b as usize],
                    &self.plan.batch_indices[*b as usize],
                ),
            };
            let root = log.open("serve.roundtrip", None, op_id);
            let answers: Result<Vec<RemoteAnswer>, ClientError> = match op {
                ServeOp::Single(_) => self.client.query(&queries[0]).map(|a| vec![a]),
                ServeOp::Batch(_) => self
                    .client
                    .query_batch(queries)
                    .map(|rows| rows.into_iter().flatten().collect()),
            };
            log.close(root);
            report.attempted += 1;
            let ok = answers.is_ok_and(|rows| {
                rows.len() == indices.len()
                    && rows.iter().zip(indices).all(|(a, &i)| {
                        self.expected[i as usize]
                            .as_ref()
                            .is_none_or(|want| want.matches_remote(a))
                    })
            });
            if !ok {
                report.fail(|| format!("traced op {op_id}: answer differs from the reference"));
            }
            replay(log, root, op_id, self.shadow, queries)?;
            seconds.push(start.elapsed().as_secs_f64());
        }
        Ok(seconds)
    }
}

fn traced_pass(
    kind: Kind,
    cfg: &RunConfig,
    stack: &mut Stack,
    expected: &[Option<Expected>],
    report: &mut WorkloadReport,
) -> Res<()> {
    let t = &cfg.table;
    // bring the shadow's caches to the state of the server's: the warm
    // list once more, one query at a time, to both. An LRU's contents
    // depend only on the order of its latest accesses, and set-up's two
    // warming clients raced each other.
    let shadow = engine_over_store(&stack.store_dir(), &stack.graph)?;
    for &i in &stack.plan.warm {
        let q = &stack.plan.queries[i as usize];
        stack.clients[0].query(q).map_err(err)?;
        shadow.query(q).map_err(err)?;
    }
    // a tenth of every phase of client 0's list traced, and as many
    // untraced; serve_novel takes both from rounds no timed run uses, so
    // they stay novel
    let list = |round| stack.plan.ops(kind, t, cfg.seed, round, 0);
    let tenth = |phases: Vec<Vec<ServeOp>>, second: bool| -> Vec<ServeOp> {
        phases
            .iter()
            .flat_map(|p| {
                let n = (p.len() / 10).max(10).min(p.len() / 2);
                &p[if second { n..2 * n } else { 0..n }]
            })
            .copied()
            .collect()
    };
    let (traced_ops, untraced_ops) = match kind {
        Kind::Novel => (
            tenth(list(t.rounds), false),
            tenth(list(t.rounds + 1), false),
        ),
        _ => (tenth(list(0), false), tenth(list(0), true)),
    };
    let n = traced_ops.len().min(untraced_ops.len());
    let before = Counters::read(&stack.served);
    let mut tracer = Tracer {
        client: &mut stack.clients[0],
        shadow: &shadow,
        plan: &stack.plan,
        expected,
    };
    let mut log = SpanLog::enabled();
    let traced = tracer.pass(&mut log, &traced_ops[..n], 0, report)?;
    let untraced = tracer.pass(
        &mut SpanLog::disabled(),
        &untraced_ops[..n],
        n as u64,
        report,
    )?;
    before.layer_metrics(&stack.served, report);
    close_trace(cfg, kind.name(), log.spans(), &traced, &untraced, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::TABLE;

    #[test]
    fn novel_rounds_index_disjoint_queries_and_skip_the_warm_one() {
        let t = TABLE.scaled(1);
        let pool: Vec<u32> = (0..20).collect();
        let plan = Plan::build(Kind::Novel, &t, 3, &pool);
        let per_list = t.novel_requests;
        assert_eq!(
            plan.queries.len(),
            (t.rounds + 2) * t.clients * per_list + 1
        );
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..t.rounds + 2 {
            for client in 0..t.clients {
                for op in plan.ops(Kind::Novel, &t, 3, round, client).concat() {
                    let ServeOp::Single(i) = op else {
                        panic!("serve_novel sends single queries")
                    };
                    assert!(seen.insert(i), "query {i} appears twice");
                }
            }
        }
        assert!(!seen.contains(&plan.warm[0]));
        let mut seeds: Vec<u64> = plan.queries.iter().map(|q| q.sim.base_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), plan.queries.len());
    }

    #[test]
    fn the_hot_plan_warms_everything_it_sends() {
        let t = TABLE.scaled(1);
        let pool: Vec<u32> = (0..20).collect();
        let plan = Plan::build(Kind::Hot, &t, 3, &pool);
        assert_eq!(plan.queries.len(), t.hot_universe + t.hot_sps);
        assert_eq!(plan.warm.len(), plan.queries.len());
        assert_eq!(plan.batches.len(), t.hot_batches);
        assert!(plan.batches.iter().all(|b| b.len() == t.hot_batch_len));
        assert!(plan.queries[t.hot_universe..]
            .iter()
            .all(|q| !q.sp.is_empty()));
    }
}
