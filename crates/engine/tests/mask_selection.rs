//! The mask-derived selection against an oracle that is not the code
//! under test: `cwelmax_rrset::condition_parts` filters a **copy** of the
//! sets and `RrCollection::greedy_select` selects on that copy, rebuilding
//! its inverted index per call. The engine's one loop masks the base
//! postings instead; seeds, per-prefix coverage bits and the covered-set
//! count must agree exactly — over one part or many, with integral
//! weights (cached node totals) and non-integral ones (ordered walk).

use cwelmax_engine::{graph_fingerprint, greedy_select_parts, ConditionedView, IndexMeta, RrIndex};
use cwelmax_graph::{generators, NodeId, ProbabilityModel as PM};
use cwelmax_rrset::{conditioned_collection, RrCollection, StandardRr};
use proptest::prelude::*;

const CAP: u32 = 6;

/// Sampled sets over an `n`-node graph; weight 1.0 when `integral`, else
/// a per-set fraction (sums of those depend on the order of addition).
fn collection(seed: u64, n: usize, sets: usize, integral: bool) -> (RrCollection, IndexMeta) {
    let g = generators::erdos_renyi(n, n * 4, seed, PM::WeightedCascade);
    let mut c = RrCollection::new(n);
    c.extend_parallel(&g, &StandardRr, sets, seed ^ 0x3A5C, 2);
    if !integral {
        let (o, m, w) = c.parts();
        let w = (0..w.len()).map(|j| 0.1 + (j % 7) as f64 * 0.37).collect();
        c = RrCollection::from_parts(n, o.to_vec(), m.to_vec(), w, sets).unwrap();
    }
    let meta = IndexMeta {
        eps: 0.5,
        ell: 1.0,
        seed,
        budget_cap: CAP,
        graph_fingerprint: graph_fingerprint(&g),
    };
    (c, meta)
}

/// Sets `lo..hi` of `c` as an index of their own (θ stays global, as in
/// a store's shards).
fn part(c: &RrCollection, lo: usize, hi: usize, meta: IndexMeta) -> RrIndex {
    let (o, m, w) = c.parts();
    let offsets = o[lo..=hi].iter().map(|&x| x - o[lo]).collect();
    RrIndex::from_canonical(
        c.num_nodes(),
        c.num_sampled(),
        offsets,
        m[o[lo]..o[hi]].to_vec(),
        w[lo..hi].to_vec(),
        meta,
    )
    .unwrap()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn masked_selection_equals_filter_then_select(
        seed in 0u64..5_000,
        n in 5usize..60,
        sets in 0usize..400,
        integral in any::<bool>(),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..5),
        sp_kind in 0usize..4,
        sp_seed in 0u64..500,
    ) {
        let (c, meta) = collection(seed, n, sets, integral);
        // SP = ∅, a few nodes, unsorted with duplicates, or every node
        // (which covers every set)
        let few: Vec<NodeId> = (0..4).map(|j| ((sp_seed + 11 * j) % n as u64) as NodeId).collect();
        let sp: Vec<NodeId> = match sp_kind {
            0 => vec![],
            1 => few,
            2 => few.iter().rev().chain(&few[..2]).copied().collect(),
            _ => (0..n as NodeId).rev().collect(),
        };
        let kept = conditioned_collection(&c, &sp);
        let want = kept.greedy_select(CAP as usize);
        let want_removed = c.num_sets() - kept.num_sets();
        if sp_kind == 3 {
            prop_assert_eq!(kept.num_sets(), 0);
        }

        // contiguous parts at arbitrary cut points, empty parts included
        let mut bounds: Vec<usize> =
            cuts.iter().map(|f| (f * c.num_sets() as f64) as usize).collect();
        bounds.extend([0, c.num_sets()]);
        bounds.sort_unstable();
        let parts: Vec<RrIndex> =
            bounds.windows(2).map(|w| part(&c, w[0], w[1], meta)).collect();
        let whole = RrIndex::freeze(&c, meta);
        let split: Vec<&RrIndex> = parts.iter().collect();
        for parts in [&[&whole][..], &split[..]] {
            let (got, removed) = greedy_select_parts(parts, n, CAP as usize, &sp);
            prop_assert_eq!(&got.seeds, &want.seeds, "{} part(s)", parts.len());
            prop_assert_eq!(bits(&got.coverage), bits(&want.coverage), "{} part(s)", parts.len());
            prop_assert_eq!(removed, want_removed);
            // every prefix is the selection at that budget
            let (short, _) = greedy_select_parts(parts, n, 2, &sp);
            prop_assert_eq!(&short.seeds[..], &want.seeds[..short.seeds.len()]);
        }

        let view = ConditionedView::derive(&whole, &sp).unwrap();
        prop_assert_eq!(view.pool(), &want.seeds[..]);
        prop_assert_eq!(view.removed_sets(), want_removed);
        prop_assert!(view.sp_nodes().windows(2).all(|w| w[0] < w[1]));
    }
}
