//! `solve_cold`: the paper's own headline (Fig. 3 and Fig. 5) and the
//! control for every serving-layer change. One caller, solver threads =
//! cores; each solve-set runs SeqGRD-NM, SeqGRD and MaxGRD on C1 at
//! budget 10 and SupGRD on C5 and C6 at budget 20 against 20 IMM-fixed
//! inferior seeds. Nothing is cached between solves: RR-set sampling,
//! greedy selection and the in-solver Monte-Carlo marginals all run.

use super::{close_trace, probed_peak_rss, Rounds, RunConfig, SetupClock};
use crate::fixture::{imm_params, nethept, Res, WORKERS};
use crate::machine::{peak_rss_mb, process_cpu_seconds};
use crate::ops;
use crate::report::{Measured, WorkloadReport};
use crate::spans::{SpanId, SpanLog};
use cwelmax_core::prelude::*;
use cwelmax_diffusion::{Allocation, SimulationConfig};
use cwelmax_rrset::imm::imm_select;
use cwelmax_rrset::prima::prima_plus;
use cwelmax_rrset::{StandardRr, WeightedRr};
use cwelmax_utility::configs::{self, SupConfig, TwoItemConfig};
use std::ops::Range;
use std::time::Instant;

/// Budget per item of the C1 solves, and of SupGRD's superior item.
const C1_BUDGET: usize = 10;
const SUP_BUDGET: usize = 20;
/// Monte-Carlo seed the returned allocations are evaluated under.
const EVALUATION_SEED: u64 = 0xE7A1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Solver {
    SeqGrdNm,
    SeqGrd,
    MaxGrd,
    SupGrd,
}

impl Solver {
    fn solve(self, p: &Problem) -> Solution {
        match self {
            Solver::SeqGrdNm => SeqGrd::nm().solve(p),
            Solver::SeqGrd => SeqGrd::full().solve(p),
            Solver::MaxGrd => MaxGrd.solve(p),
            Solver::SupGrd => SupGrd.solve(p),
        }
    }

    /// The same solve as separate calls into `rrset` and `core`, each a
    /// child span of `root`: the seed pool (PRIMA+ or weighted IMM), then
    /// the assignment over it.
    fn replay(self, p: &Problem, log: &mut SpanLog, root: SpanId, op_id: u64) {
        let parent = Some(root);
        let free: Vec<usize> = p.free_budgets().iter().map(|&(_, b)| b).collect();
        let pool_size = match self {
            Solver::MaxGrd => free.iter().copied().max().unwrap_or(0),
            _ => free.iter().sum(),
        };
        match self {
            Solver::SupGrd => {
                let Some(im) = p.free_items().iter().next() else {
                    return;
                };
                let displaced = p
                    .fixed
                    .pairs()
                    .iter()
                    .map(|&(v, i)| (v, p.model.expected_truncated_item(i)));
                let sampler = WeightedRr::new(
                    p.graph.num_nodes(),
                    p.model.expected_truncated_item(im),
                    displaced,
                );
                log.leaf("rrset.imm_weighted", parent, op_id, || {
                    std::hint::black_box(imm_select(&p.graph, &sampler, p.budgets[im], &p.imm));
                });
            }
            _ => {
                let pool = log.leaf("rrset.prima_plus", parent, op_id, || {
                    prima_plus(&p.graph, &p.fixed.seed_nodes(), &free, pool_size, &p.imm)
                });
                log.leaf("core.assign_with_pool", parent, op_id, || {
                    std::hint::black_box(match self {
                        Solver::SeqGrdNm => SeqGrd::nm().solve_with_pool(p, &pool.seeds),
                        Solver::SeqGrd => SeqGrd::full().solve_with_pool(p, &pool.seeds),
                        _ => MaxGrd.solve_with_pool(p, &pool.seeds),
                    });
                });
            }
        }
    }
}

/// The solves of one round, in order: five per solve-set.
struct Setup {
    ops: Vec<(Solver, Problem)>,
}

impl Setup {
    /// The solve-sets `sets` of the seed's stream: the timed rounds run
    /// the first `solve_sets`, memory probes the ones after.
    fn build(cfg: &RunConfig, sets: Range<usize>) -> Res<Setup> {
        let t = &cfg.table;
        let graph = nethept();
        let mut ops = Vec::with_capacity(5 * sets.len());
        for k in sets {
            let set_seed = ops::solve_set_seed(cfg.seed, k);
            let imm = imm_params(set_seed);
            let sim = SimulationConfig {
                samples: t.solve_samples,
                threads: WORKERS,
                base_seed: set_seed ^ 0xE7A2,
            };
            let c1 =
                Problem::new_shared(graph.clone(), configs::two_item_config(TwoItemConfig::C1))
                    .with_uniform_budget(C1_BUDGET)
                    .with_sim(sim)
                    .with_imm(imm);
            for solver in [Solver::SeqGrdNm, Solver::SeqGrd, Solver::MaxGrd] {
                ops.push((solver, c1.clone()));
            }
            // the inferior item sits on the top IMM seeds, as in Fig. 5
            let inferior = imm_select(&graph, &StandardRr, SUP_BUDGET, &imm).seeds;
            for config in [SupConfig::C5, SupConfig::C6] {
                let p = Problem::new_shared(graph.clone(), configs::supgrd_config(config))
                    .with_budgets(vec![SUP_BUDGET, 0])
                    .with_fixed_allocation(Allocation::from_item_seeds(1, &inferior))
                    .with_sim(sim)
                    .with_imm(imm);
                ops.push((Solver::SupGrd, p));
            }
        }
        // one untimed solve: allocator, thread start-up
        if let Some((solver, p)) = ops.first() {
            std::hint::black_box(solver.solve(p));
        }
        Ok(Setup { ops })
    }
}

pub(crate) fn run(cfg: &RunConfig) -> Res<WorkloadReport> {
    let t = &cfg.table;
    let mut clock = SetupClock::default();
    let setup = clock.time(|| Setup::build(cfg, 0..t.solve_sets))?;
    let mut report = WorkloadReport::default();
    if cfg.traced {
        report.end_to_end.insert("setup_s", clock.finish());
        return traced_pass(cfg, &setup, report);
    }
    let mut rounds = Rounds::default();
    // round 0's solutions; every later round re-solves at the same seeds
    // and must return exactly these
    let mut first: Vec<Allocation> = Vec::new();
    for round in 0..t.rounds {
        if rounds.overrun(cfg.seconds) {
            break;
        }
        let (mut latencies, mut wall) = (Vec::with_capacity(setup.ops.len()), 0.0);
        let cpu = process_cpu_seconds();
        for (k, (solver, p)) in setup.ops.iter().enumerate() {
            let start = Instant::now();
            let solution = solver.solve(p);
            let elapsed = start.elapsed();
            wall += elapsed.as_secs_f64();
            latencies.push(elapsed.as_nanos() as u64);
            report.attempted += 1;
            let feasible = p.check_feasible(&solution.allocation);
            if let Err(why) = &feasible {
                report.fail(|| format!("solve {k} ({solver:?}): infeasible: {why}"));
            }
            if round == 0 {
                first.push(solution.allocation);
            } else if feasible.is_ok() && first[k] != solution.allocation {
                report.fail(|| format!("solve {k} ({solver:?}): differs from round 0"));
            }
        }
        let cpu = process_cpu_seconds() - cpu;
        rounds.record(wall, cpu, latencies);
    }
    // welfare of the distinct solutions, evaluated once, outside the
    // timing, in the same possible worlds on every seed: two seeds then
    // differ by what the solvers chose, not by Monte-Carlo noise
    let welfare: f64 = setup
        .ops
        .iter()
        .zip(&first)
        .map(|((_, p), alloc)| {
            let sim = SimulationConfig {
                base_seed: EVALUATION_SEED,
                ..p.sim
            };
            p.clone().with_sim(sim).evaluate(alloc)
        })
        .sum();
    report.end_to_end.insert(
        "welfare_per_op",
        Measured::single(welfare / first.len().max(1) as f64, "welfare"),
    );
    rounds.finish(&mut report);
    report.end_to_end.insert(
        "peak_rss_mb",
        probed_peak_rss(cfg, "solve_cold", t.solve_rss_probes)?,
    );
    clock.repeat(
        t.setup_repeats - 1,
        || Setup::build(cfg, 0..t.solve_sets),
        |_| Ok(()),
    )?;
    report.end_to_end.insert("setup_s", clock.finish());
    Ok(report)
}

/// What `--rss-probe index` does: set up and run `solve_rss_probe_sets`
/// solve-sets no other probe and no timed round runs, nothing timed, and
/// read this process's peak resident memory. How many RR sets IMM asks
/// for moves that peak from seed to seed by as much as allocator luck
/// does on one seed, so every probe draws sets of its own.
pub(crate) fn rss_probe(cfg: &RunConfig, index: usize) -> Res<f64> {
    let t = &cfg.table;
    let first = t.solve_sets + index * t.solve_rss_probe_sets;
    let setup = Setup::build(cfg, first..first + t.solve_rss_probe_sets)?;
    for (solver, p) in &setup.ops {
        std::hint::black_box(solver.solve(p));
    }
    Ok(peak_rss_mb())
}

/// A tenth of the round's solve-sets (at least one): each solve under a
/// root span, then replayed as separate `rrset` and `core` calls under
/// it; as many further sets run the same way with recording off.
fn traced_pass(cfg: &RunConfig, setup: &Setup, mut report: WorkloadReport) -> Res<WorkloadReport> {
    let n = 5 * (cfg.table.solve_sets / 10).max(1);
    let mut pass = |log: &mut SpanLog, first: usize| -> Vec<f64> {
        let mut seconds = Vec::with_capacity(n);
        for (k, (solver, p)) in setup.ops[first..first + n].iter().enumerate() {
            let start = Instant::now();
            let op_id = (first + k) as u64;
            let root = log.open("core.solve", None, op_id);
            let solution = solver.solve(p);
            log.close(root);
            report.attempted += 1;
            if let Err(why) = p.check_feasible(&solution.allocation) {
                report.fail(|| format!("traced solve {op_id}: infeasible: {why}"));
            }
            solver.replay(p, log, root, op_id);
            seconds.push(start.elapsed().as_secs_f64());
        }
        seconds
    };
    let mut log = SpanLog::enabled();
    let traced = pass(&mut log, 0);
    let untraced = pass(&mut SpanLog::disabled(), n);
    close_trace(
        cfg,
        "solve_cold",
        log.spans(),
        &traced,
        &untraced,
        &mut report,
    )?;
    Ok(report)
}
