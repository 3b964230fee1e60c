//! The samplers and `greedy_argmax` against oracles that are not the code
//! under test: `reference` holds the allocating hash-set reverse BFS and
//! the `max_by` argmax as they stood before. Same graph, same RNG state:
//! a set must come out with equal members in equal order and equal
//! weight bits, **and the generator must be left in the same state** —
//! how many draws a set makes is part of the contract, because the next
//! consumer of a stream would see the difference.

mod reference;

use cwelmax_graph::{generators, Graph, NodeId, ProbabilityModel as PM};
use cwelmax_rrset::{greedy_argmax, MarginalRr, RrContext, RrSampler, StandardRr, WeightedRr};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The stream the `k`-th set of a case is sampled from.
fn stream(seed: u64, k: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(1000) + k)
}

/// `SP` with utilities: empty, a few nodes (some carrying two items), or
/// a few nodes plus the roots of the first sets — so the BFS stops on its
/// first node.
fn sp_alloc(seed: u64, n: usize, kind: u32) -> Vec<(NodeId, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5B);
    let mut sp = Vec::new();
    if kind >= 1 {
        for _ in 0..rng.gen_range(1..6usize) {
            let v = rng.gen_range(0..n as u32);
            sp.push((v, rng.gen_range(0..12u32) as f64 * 0.25));
            if rng.gen_range(0..3u32) == 0 {
                sp.push((v, rng.gen_range(0..12u32) as f64 * 0.25));
            }
        }
    }
    if kind == 2 {
        for k in 0..4 {
            sp.push((stream(seed, k).gen_range(0..n as u32), 1.0));
        }
    }
    sp
}

/// One sampler against its reference over `SETS` streams, through one
/// shared context and one growing member vector.
fn check(
    g: &Graph,
    seed: u64,
    sampler: &dyn RrSampler,
    oracle: impl Fn(&mut SmallRng) -> (Vec<NodeId>, f64),
) -> Result<(), String> {
    const SETS: u64 = 40;
    let mut ctx = RrContext::new(g.num_nodes());
    let mut members = Vec::new();
    for k in 0..SETS {
        let (mut ours, mut theirs) = (stream(seed, k), stream(seed, k));
        let begin = members.len();
        let weight = sampler.sample_into(g, &mut ours, &mut ctx, &mut members);
        let (set, oracle_weight) = oracle(&mut theirs);
        prop_assert_eq!(&members[begin..], &set[..], "members of set {}", k);
        prop_assert_eq!(weight.to_bits(), oracle_weight.to_bits(), "weight {}", k);
        prop_assert_eq!(ours.next_u64(), theirs.next_u64(), "draws of set {}", k);
        // the provided wrapper is the same set
        let wrapped = sampler.sample(g, &mut stream(seed, k));
        prop_assert_eq!(wrapped, (set, oracle_weight));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn samplers_draw_what_the_reference_draws(
        seed in 0u64..100_000,
        n in 5usize..150,
        preferential in any::<bool>(),
        sp_kind in 0u32..3,
    ) {
        let g = graph(seed, n, preferential);
        let sp = sp_alloc(seed, n, sp_kind);
        let sp_nodes: Vec<NodeId> = sp.iter().map(|&(v, _)| v).collect();

        check(&g, seed, &StandardRr, |rng| reference::standard(&g, rng))?;

        let in_sp = reference::in_sp(n, &sp_nodes);
        check(&g, seed, &MarginalRr::new(n, &sp_nodes), |rng| {
            reference::marginal(&g, &in_sp, rng)
        })?;

        // a superior utility below some SP items: weights clamp to 0
        let superior = 1.75;
        let utilities = reference::sp_item_utility(n, &sp);
        check(&g, seed, &WeightedRr::new(n, superior, sp.iter().copied()), |rng| {
            reference::weighted(&g, superior, &utilities, rng)
        })?;
    }

    /// Few distinct values — so ties run long — drawn from every corner
    /// of `total_cmp`'s order.
    #[test]
    fn greedy_argmax_is_the_comparator_chain(
        picks in proptest::collection::vec(0usize..64, 0..300),
        corners in 1usize..17,
    ) {
        const PALETTE: [f64; 16] = [
            1.0,
            0.0,
            -0.0,
            2.5,
            -3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0000000000000002,
            -1.0,
            0.5,
        ];
        let negative_nan = f64::from_bits(f64::NAN.to_bits() | 1 << 63);
        let gain: Vec<f64> = picks
            .iter()
            .map(|&p| match p % corners {
                7 if p >= 32 => negative_nan,
                i => PALETTE[i],
            })
            .collect();
        let bits = |r: Option<(usize, f64)>| r.map(|(v, g)| (v, g.to_bits()));
        prop_assert_eq!(bits(greedy_argmax(&gain)), bits(reference::greedy_argmax(&gain)));
    }
}
