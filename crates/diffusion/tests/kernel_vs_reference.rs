//! The world kernel against an oracle that is not the code under test:
//! `reference::ReferenceContext` is the fixpoint loop as it stood before
//! the kernel was rewritten. Same world, same allocation: the outcomes
//! must be equal down to the welfare's bits, and so must everything the
//! welfare's bits depend on — the order nodes were touched in and every
//! node's final desire and adoption.

mod reference;

use cwelmax_diffusion::{Allocation, EdgeWorld, UicContext};
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_utility::NoiseWorld;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use reference::ReferenceContext;

/// An Erdős–Rényi or preferential-attachment topology whose edge
/// probabilities include exact 0 and exact 1 (a fifth of the edges each).
fn graph(seed: u64, n: usize, preferential: bool) -> Graph {
    let topology = if preferential {
        generators::preferential_attachment_simple(
            n,
            3,
            seed.is_multiple_of(2),
            seed,
            PM::Constant(0.5),
        )
    } else {
        generators::erdos_renyi(n, n * 4, seed, PM::Constant(0.5))
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37);
    topology.with_probabilities(|_, _, _| match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen_range(0.02f32..0.6),
    })
}

/// A utility table over `m` items with no structure imposed: bundles
/// worth more than their parts (complementary), less than their best
/// part (competing), negative, and — values are multiples of 1/4 — tied.
fn noise_world(rng: &mut SmallRng, m: usize) -> NoiseWorld {
    let mut utils: Vec<f64> = (0..1usize << m)
        .map(|_| rng.gen_range(-6..=12i32) as f64 * 0.25)
        .collect();
    utils[0] = 0.0;
    NoiseWorld::new(m, utils)
}

/// Up to `pairs` seeds drawn from a few nodes, so that several items
/// land on one node.
fn allocation(rng: &mut SmallRng, n: usize, m: usize, pairs: usize) -> Allocation {
    let hubs: Vec<u32> = (0..pairs.div_ceil(2))
        .map(|_| rng.gen_range(0..n as u32))
        .collect();
    Allocation::from_pairs(
        (0..pairs).map(|_| (hubs[rng.gen_range(0..hubs.len())], rng.gen_range(0..m))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_the_pre_rewrite_fixpoint(
        seed in any::<u64>(),
        n in 20usize..120,
        // five items is one more than the best-response table covers
        m in 1usize..=5,
        preferential in any::<bool>(),
    ) {
        let g = graph(seed, n, preferential);
        let mut rng = SmallRng::seed_from_u64(seed);
        // both contexts live across worlds, as they do in an estimate
        let mut kernel = UicContext::new(n, m);
        let mut old = ReferenceContext::new(n, m);
        for world in 0..6u64 {
            let nw = noise_world(&mut rng, m);
            let ew = EdgeWorld::new(seed.wrapping_add(world));
            let pairs = rng.gen_range(1..=8usize);
            let alloc = allocation(&mut rng, n, m, pairs);
            let got = kernel.run(&g, &nw, ew, &alloc.desire_by_node());
            let want = old.run(&g, &nw, ew, &alloc);
            prop_assert_eq!(got.welfare.to_bits(), want.welfare.to_bits(), "world {}", world);
            prop_assert_eq!(&got, &want, "world {}", world);
            prop_assert_eq!(kernel.last_touched(), old.last_touched(), "world {}", world);
            for v in g.nodes() {
                prop_assert_eq!(kernel.last_desire(v), old.last_desire(v), "node {}", v);
                prop_assert_eq!(kernel.last_adopted(v), old.last_adopted(v), "node {}", v);
            }
        }
    }
}
