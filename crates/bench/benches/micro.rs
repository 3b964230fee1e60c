//! Microbenchmarks and ablations for the design choices DESIGN.md calls
//! out: UIC world simulation, RR-set sampling, the adoption best response,
//! and the epoch-stamped state reuse.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cwelmax_bench::{network, Scale};
use cwelmax_diffusion::{Allocation, EdgeWorld, UicContext};
use cwelmax_graph::generators::benchmark::Network;
use cwelmax_rrset::{MarginalRr, RrCollection, RrContext, RrSampler, StandardRr, WeightedRr};
use cwelmax_utility::configs::{self, TwoItemConfig};
use cwelmax_utility::{ItemSet, NoiseWorld};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// One full UIC world simulation on the NetHEPT stand-in.
fn bench_uic_world(c: &mut Criterion) {
    let g = network(Network::NetHept, Scale::Quick);
    let model = configs::two_item_config(TwoItemConfig::C1);
    let nw = model.noiseless_world();
    let seeds =
        Allocation::from_pairs((0..20u32).map(|v| (v * 13, (v % 2) as usize))).desire_by_node();
    let mut ctx = UicContext::new(g.num_nodes(), 2);
    let mut k = 0u64;
    c.bench_function("uic_single_world", |b| {
        b.iter(|| {
            k += 1;
            ctx.run(&g, &nw, EdgeWorld::new(k), &seeds)
        })
    });
}

/// RR-set sampling cost per sampler flavor.
fn bench_rr_sampling(c: &mut Criterion) {
    let g = network(Network::NetHept, Scale::Quick);
    let sp: Vec<u32> = (0..20u32).map(|v| v * 31).collect();
    let standard = StandardRr;
    let marginal = MarginalRr::new(g.num_nodes(), &sp);
    let weighted = WeightedRr::new(g.num_nodes(), 1.0, sp.iter().map(|&v| (v, 0.5)));
    let mut group = c.benchmark_group("rr_sampling");
    // the way `extend_parallel` samples: one context and one member
    // vector per thread, a fresh stream per set
    let mut ctx = RrContext::new(g.num_nodes());
    let mut set = Vec::new();
    let mut seed = 0u64;
    let samplers: [(&str, &dyn RrSampler); 3] = [
        ("standard", &standard),
        ("marginal", &marginal),
        ("weighted", &weighted),
    ];
    for (name, sampler) in samplers {
        group.bench_function(name, |b| {
            b.iter(|| {
                seed += 1;
                set.clear();
                sampler.sample_into(&g, &mut SmallRng::seed_from_u64(seed), &mut ctx, &mut set)
            })
        });
    }
    group.finish();
}

/// Greedy node selection over a pre-sampled collection.
fn bench_greedy_select(c: &mut Criterion) {
    let g = network(Network::NetHept, Scale::Quick);
    let mut col = RrCollection::new(g.num_nodes());
    col.extend_parallel(&g, &StandardRr, 20_000, 7, 0);
    let mut group = c.benchmark_group("node_selection");
    for b in [10usize, 50] {
        group.bench_with_input(BenchmarkId::from_parameter(b), &b, |bench, &b| {
            bench.iter(|| col.greedy_select(b))
        });
    }
    group.finish();
}

/// Ablation: the `O(2^|R\A|)` best response at different desire widths.
fn bench_best_response(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_adoption");
    for m in [2usize, 4, 8, 12] {
        let utils: Vec<f64> = (0..(1usize << m))
            .map(|mask| ((mask as f64).sin() * 4.0) - 1.0)
            .map(|u| if u.abs() < 1e-12 { 0.0 } else { u })
            .collect();
        let mut utils = utils;
        utils[0] = 0.0;
        let w = NoiseWorld::new(m, utils);
        let desire = ItemSet::full(m);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| w.best_response(desire, ItemSet::EMPTY))
        });
    }
    group.finish();
}

/// Ablation: epoch-stamped state reuse vs allocating a fresh context per
/// world (the cost the epochs avoid).
fn bench_epoch_ablation(c: &mut Criterion) {
    let g = network(Network::NetHept, Scale::Quick);
    let model = configs::two_item_config(TwoItemConfig::C1);
    let nw = model.noiseless_world();
    let seeds = Allocation::from_pairs([(0u32, 0usize), (13, 1)]).desire_by_node();
    let mut group = c.benchmark_group("ablation_epoch");
    let mut reused = UicContext::new(g.num_nodes(), 2);
    let mut k = 0u64;
    group.bench_function("reused_context", |b| {
        b.iter(|| {
            k += 1;
            reused.run(&g, &nw, EdgeWorld::new(k), &seeds)
        })
    });
    group.bench_function("fresh_context", |b| {
        b.iter(|| {
            k += 1;
            let mut ctx = UicContext::new(g.num_nodes(), 2);
            ctx.run(&g, &nw, EdgeWorld::new(k), &seeds)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_uic_world,
    bench_rr_sampling,
    bench_greedy_select,
    bench_best_response,
    bench_epoch_ablation
);
criterion_main!(benches);
