//! The engine's answers must match cold solves: campaigns served from one
//! prebuilt index agree with from-scratch `solve()` welfare within
//! Monte-Carlo tolerance (fresh path), and SP-conditioned follow-ups are
//! **byte-identical** to the cold PRIMA+ path on the same sampled world —
//! all with zero RR-set resampling on the warm path.

use cwelmax_core::{CwelMaxAlgorithm, MaxGrd, Problem, SeqGrd};
use cwelmax_diffusion::{Allocation, SimulationConfig};
use cwelmax_engine::{
    graph_fingerprint, CampaignQuery, EngineBuilder, IndexMeta, QueryAlgorithm, RrIndex,
};
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_rrset::{select_from_collection, ImmParams, MarginalRr, RrCollection, StandardRr};
use cwelmax_utility::configs::{self, TwoItemConfig};
use std::sync::Arc;

fn sim() -> SimulationConfig {
    SimulationConfig {
        samples: 2000,
        threads: 2,
        base_seed: 5,
    }
}

fn imm() -> ImmParams {
    ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed: 11,
        threads: 2,
        max_rr_sets: 2_000_000,
    }
}

fn shared_graph() -> Arc<Graph> {
    Arc::new(generators::erdos_renyi(300, 1500, 17, PM::WeightedCascade))
}

fn cold_problem(graph: &Arc<Graph>, cfg: TwoItemConfig, b: usize) -> Problem {
    Problem::new_shared(graph.clone(), configs::two_item_config(cfg))
        .with_uniform_budget(b)
        .with_sim(sim())
        .with_imm(imm())
}

/// Two different campaigns answered from one index match the cold solver's
/// welfare within MC tolerance, and the index is never resampled.
#[test]
fn two_campaigns_match_cold_solve_welfare() {
    let graph = shared_graph();
    let index = Arc::new(RrIndex::build(&graph, 10, &imm()));
    let engine = EngineBuilder::from_index(index)
        .graph(graph.clone())
        .build()
        .unwrap();

    let campaigns = [(TwoItemConfig::C1, 5usize), (TwoItemConfig::C2, 3)];
    for (cfg, b) in campaigns {
        let q = CampaignQuery {
            model: configs::two_item_config(cfg),
            budgets: vec![b, b],
            algorithm: QueryAlgorithm::SeqGrdNm,
            sp: Allocation::new(),
            sim: sim(),
        };
        let warm = engine.query(&q).unwrap();

        let cold_p = cold_problem(&graph, cfg, b);
        let cold = SeqGrd::nm().solve(&cold_p);
        let cold_welfare = cold_p.evaluate(&cold.allocation);

        // same evaluation worlds (same sim seed) — the tolerance only has
        // to absorb the two paths picking slightly different (but equally
        // good) seed pools from independent RR samples
        let rel = (warm.welfare - cold_welfare).abs() / cold_welfare.max(1e-9);
        assert!(
            rel < 0.10,
            "{cfg:?}/b={b}: warm {} vs cold {cold_welfare} (rel {rel})",
            warm.welfare
        );
        // budgets fully allocated on both paths
        assert_eq!(warm.allocation.seeds_of(0).len(), b);
        assert_eq!(warm.allocation.seeds_of(1).len(), b);
    }

    let stats = engine.stats();
    assert_eq!(stats.queries, 2);
    assert_eq!(
        stats.pool_selections, 1,
        "the second campaign must reuse the first's node selection — zero resampling"
    );
}

/// MaxGRD through the engine agrees with cold MaxGRD.
#[test]
fn maxgrd_warm_matches_cold() {
    let graph = shared_graph();
    let index = Arc::new(RrIndex::build(&graph, 6, &imm()));
    let engine = EngineBuilder::from_index(index)
        .graph(graph.clone())
        .build()
        .unwrap();

    let q = CampaignQuery {
        model: configs::two_item_config(TwoItemConfig::C2),
        budgets: vec![4, 4],
        algorithm: QueryAlgorithm::MaxGrd,
        sp: Allocation::new(),
        sim: sim(),
    };
    let warm = engine.query(&q).unwrap();
    // C2's utility gap means both paths must allocate item 0 only
    assert_eq!(warm.allocation.items().len(), 1);
    assert_eq!(warm.allocation.seeds_of(0).len(), 4);

    let cold_p = cold_problem(&graph, TwoItemConfig::C2, 4);
    let cold = MaxGrd.solve(&cold_p);
    let cold_welfare = cold_p.evaluate(&cold.allocation);
    let rel = (warm.welfare - cold_welfare).abs() / cold_welfare.max(1e-9);
    assert!(rel < 0.10, "warm {} vs cold {cold_welfare}", warm.welfare);
}

/// Build an index from an explicit StandardRr world `(seed, count)`, so a
/// cold marginal collection over the **same world** can be reproduced.
fn explicit_world_index(
    graph: &Arc<Graph>,
    theta: usize,
    seed: u64,
    cap: u32,
) -> (RrCollection, Arc<RrIndex>) {
    let n = graph.num_nodes();
    let mut c = RrCollection::new(n);
    c.extend_parallel(graph, &StandardRr, theta, seed, 2);
    let idx = RrIndex::freeze(
        &c,
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed,
            budget_cap: cap,
            graph_fingerprint: graph_fingerprint(graph),
        },
    );
    (c, Arc::new(idx))
}

/// The tentpole correctness bar: a conditioned warm answer is
/// **byte-identical** to the cold PRIMA+ path (marginal sampling +
/// `select_from_collection` + pool assignment) over the same sampled
/// world — same allocation, same welfare bits, zero warm-path sampling.
#[test]
fn conditioned_warm_matches_cold_prima_plus_on_same_world() {
    let graph = shared_graph();
    let n = graph.num_nodes();
    let (theta, world_seed, cap, b) = (25_000usize, 0x0A1Du64, 12u32, 4usize);
    let (_, index) = explicit_world_index(&graph, theta, world_seed, cap);
    let engine = EngineBuilder::from_index(index)
        .graph(graph.clone())
        .build()
        .unwrap();

    let sp = Allocation::from_pairs([(5u32, 1usize), (33, 1), (170, 1)]);
    let sp_nodes = sp.seed_nodes();

    // cold PRIMA+ on the same world: marginal RR sets with the identical
    // (seed, count), then the ordered selection at the cap
    let mut marg = RrCollection::new(n);
    marg.extend_parallel(&graph, &MarginalRr::new(n, &sp_nodes), theta, world_seed, 2);
    let cold_sel = select_from_collection(&marg, cap as usize);

    let model = configs::two_item_config(TwoItemConfig::C1);
    let q = CampaignQuery {
        model: model.clone(),
        budgets: vec![b, b],
        algorithm: QueryAlgorithm::SeqGrdNm,
        sp: sp.clone(),
        sim: sim(),
    };
    let warm = engine.query(&q).unwrap();

    // cold assignment over the cold pool, same problem semantics
    let problem = Problem::new_shared(graph.clone(), model)
        .with_budgets(vec![b, b])
        .with_fixed_allocation(sp.clone())
        .with_sim(sim());
    let cold = SeqGrd::nm().solve_with_pool(&problem, &cold_sel.seeds);
    let cold_welfare = problem.evaluate(&cold.allocation);

    assert_eq!(
        warm.allocation, cold.allocation,
        "conditioned warm allocation must be byte-identical to cold PRIMA+"
    );
    assert_eq!(
        warm.welfare, cold_welfare,
        "same evaluation worlds must give bit-equal welfare"
    );
    assert_eq!(warm.sp, sp, "the answer echoes its conditioning SP");
    // item 1 is fixed in SP: only item 0 gets new seeds, fully budgeted
    assert!(warm.allocation.seeds_of(1).is_empty());
    assert_eq!(warm.allocation.seeds_of(0).len(), b);

    // zero warm-path sampling, one view derivation, and a repeat is warm
    let stats = engine.stats();
    assert_eq!(stats.conditioned_views, 1);
    assert_eq!(stats.conditioned_hits, 0);
    assert_eq!(stats.pool_selections, 0, "the fresh pool was never needed");
    let again = engine.query(&q).unwrap();
    assert_eq!(again.allocation, warm.allocation);
    assert_eq!(again.welfare, warm.welfare);
    assert_eq!(engine.stats().conditioned_views, 1, "no re-derivation");
    assert_eq!(engine.stats().conditioned_hits, 1);
}

/// MaxGRD follow-ups take the conditioned pool's prefix for the single
/// best free item — byte-identical to the cold pool path as well.
#[test]
fn conditioned_maxgrd_matches_cold_pool_path() {
    let graph = shared_graph();
    let n = graph.num_nodes();
    let (theta, world_seed, cap, b) = (20_000usize, 0x5EAu64, 6u32, 3usize);
    let (_, index) = explicit_world_index(&graph, theta, world_seed, cap);
    let engine = EngineBuilder::from_index(index)
        .graph(graph.clone())
        .build()
        .unwrap();

    let sp = Allocation::from_pairs([(7u32, 0usize), (99, 0)]);
    let sp_nodes = sp.seed_nodes();
    let mut marg = RrCollection::new(n);
    marg.extend_parallel(&graph, &MarginalRr::new(n, &sp_nodes), theta, world_seed, 2);
    let cold_sel = select_from_collection(&marg, cap as usize);

    let model = configs::two_item_config(TwoItemConfig::C2);
    let q = CampaignQuery {
        model: model.clone(),
        budgets: vec![b, b],
        algorithm: QueryAlgorithm::MaxGrd,
        sp: sp.clone(),
        sim: sim(),
    };
    let warm = engine.query(&q).unwrap();
    let problem = Problem::new_shared(graph.clone(), model)
        .with_budgets(vec![b, b])
        .with_fixed_allocation(sp)
        .with_sim(sim());
    let cold = MaxGrd.solve_with_pool(&problem, &cold_sel.seeds);
    assert_eq!(warm.allocation, cold.allocation);
    // item 0 is fixed in SP ⇒ MaxGRD's only free item is 1
    assert_eq!(warm.allocation.items().iter().next(), Some(1));
    assert_eq!(warm.welfare, problem.evaluate(&cold.allocation));
}

/// An all-follow-up batch never pays for (or pins) the fresh pool, and
/// its warm repeat is answered from cached views on the calling thread.
#[test]
fn followup_batches_and_bulk_prewarm_avoid_fresh_pool_and_eviction() {
    let graph = shared_graph();
    let (_, index) = explicit_world_index(&graph, 5_000, 0xBA7C, 4);

    // batch of two follow-ups only: zero fresh-pool selections
    let engine = EngineBuilder::from_index(index)
        .graph(graph)
        .build()
        .unwrap();
    let mk = |sp: Allocation| CampaignQuery {
        model: configs::two_item_config(TwoItemConfig::C1),
        budgets: vec![2, 2],
        algorithm: QueryAlgorithm::SeqGrdNm,
        sp,
        sim: sim(),
    };
    let batch = [
        mk(Allocation::from_pairs([(1u32, 1usize)])),
        mk(Allocation::from_pairs([(2u32, 1usize)])),
    ];
    let workers = || engine.metrics().snapshot().counters["engine.batch_workers"];
    let cold: Vec<_> = engine
        .query_batch(&batch, 2)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    assert_eq!(
        engine.stats().pool_selections,
        0,
        "an all-follow-up batch must not select the fresh pool"
    );
    assert_eq!(workers(), 2, "two uncached views derive on two workers");

    // the same batch again is all cached views and cached welfare: it is
    // answered on the calling thread, bit-identically, each entry counted
    // once (a deferred probe would show as a third hit or evaluation)
    let warm = engine.query_batch(&batch, 2);
    assert_eq!(workers(), 2, "a warm batch spawns no worker");
    for (w, c) in warm.iter().zip(&cold) {
        let w = w.as_ref().unwrap();
        assert_eq!(w.allocation, c.allocation);
        assert_eq!(w.welfare.to_bits(), c.welfare.to_bits());
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, 4);
    assert_eq!((stats.conditioned_views, stats.conditioned_hits), (2, 2));
    assert_eq!((stats.welfare_evals, stats.welfare_cache_hits), (4, 2));
}
