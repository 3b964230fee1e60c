//! [`RrIndex`] — an immutable, shareable RR-set index.
//!
//! An [`cwelmax_rrset::RrCollection`] is a write-side accumulator: greedy
//! selection on it rebuilds the node → RR-set inverted index on **every**
//! call. `RrIndex` freezes a collection into a read-optimized layout:
//!
//! * flattened set storage (`set_offsets` / `members` / `weights`) — the
//!   canonical data a store's shards and journal persist;
//! * a precomputed inverted postings list (`post_offsets` / `postings`,
//!   node → ids of the sets containing it) — derived, rebuilt on load;
//! * build metadata (`ε`, `ℓ`, sampling seed, supported budget cap, and a
//!   fingerprint of the graph it was sampled from).
//!
//! Greedy selection against the index walks each picked node's postings
//! once — `O(Σ postings touched)` total coverage updates, with no per-call
//! index construction — and the selection's prefix property means one
//! selection at the budget cap serves **every** query with a smaller
//! budget. Sharing is free: the index is immutable, so engines clone an
//! `Arc<RrIndex>` across query threads.
//!
//! [`greedy_select_parts`] is the one selection loop outside
//! `cwelmax_rrset` (whose `RrCollection::greedy_select` is the tests'
//! oracle): it runs over one index or a store's ordered shards, and takes
//! a follow-up's SP as a **mask** — the sets SP touches start out covered.

use crate::error::EngineError;
use cwelmax_graph::{Graph, NodeId};
use cwelmax_rrset::collection::GreedySelection;
use cwelmax_rrset::{sampled_collection, ImmParams, RrCollection, StandardRr};
use std::ops::Deref;

/// Build-time metadata carried by an index (and persisted in a store's
/// manifest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexMeta {
    /// IMM accuracy `ε` the θ requirement was computed for.
    pub eps: f64,
    /// IMM confidence exponent `ℓ`.
    pub ell: f64,
    /// Sampling seed (the index contents are a pure function of
    /// `(graph, eps, ell, seed, budget_cap)`).
    pub seed: u64,
    /// Largest total budget the θ requirement covers; queries above this
    /// cap lose the `(1 − 1/e − ε)` guarantee and are rejected.
    pub budget_cap: u32,
    /// Fingerprint of the graph the sets were sampled from.
    pub graph_fingerprint: u64,
}

/// A 64-bit FNV-1a fingerprint of a graph's structure (nodes, edges, and
/// probability bits). Engines use it to refuse an index built for a
/// different graph.
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3); // FNV-64 prime
        }
    };
    eat(graph.num_nodes() as u64);
    eat(graph.num_edges() as u64);
    for (u, v, p) in graph.edges() {
        eat(((u as u64) << 32) | v as u64);
        eat(p.to_bits() as u64);
    }
    h
}

/// The frozen index. See the module docs for the layout rationale.
#[derive(Debug, Clone)]
pub struct RrIndex {
    num_nodes: usize,
    /// θ — sets sampled, including discarded/empty ones (estimator scale).
    num_sampled: usize,
    /// `members[set_offsets[j]..set_offsets[j+1]]` = retained set `j`.
    set_offsets: Vec<usize>,
    members: Vec<NodeId>,
    weights: Vec<f64>,
    /// `postings[post_offsets[v]..post_offsets[v+1]]` = ids of sets
    /// containing node `v` (derived from the canonical data above).
    post_offsets: Vec<usize>,
    postings: Vec<u32>,
    /// `node_totals[v]` = Σ weights over `postings(v)`, added in set order.
    node_totals: Vec<f64>,
    /// Σ weights when every weight is an integer and the sum stays below
    /// 2^53 (every `StandardRr` index: weight 1.0) — then any sum or
    /// difference of this index's weights is exact in any order, and
    /// `node_totals` can stand in for an ordered walk of the sets.
    integral_weight: Option<f64>,
    meta: IndexMeta,
}

/// Integers below this are exact in an `f64`, and so are their sums.
const EXACT_F64_INTEGERS: f64 = 9_007_199_254_740_992.0; // 2^53

impl RrIndex {
    /// Sample and freeze an index for `graph`: runs the IMM sampling phases
    /// (θ requirement + Chen regeneration) for **every** budget up to
    /// `budget_cap`, then builds the postings. This is the expensive,
    /// once-per-graph step; everything downstream is read-only.
    ///
    /// The θ requirement `λ*_k / LB_k` is not monotone in `k` (a small
    /// budget has a much smaller `OPT_k`, hence a smaller lower bound and
    /// potentially a *larger* requirement), so the sampling phase takes
    /// the union-bounded maximum over `1..=budget_cap` — the same loop
    /// PRIMA+ runs — rather than sizing for the cap alone. That is what
    /// licenses serving any budget `≤ budget_cap` from this one index.
    pub fn build(graph: &Graph, budget_cap: u32, params: &ImmParams) -> RrIndex {
        let budgets: Vec<usize> = (1..=budget_cap as usize).collect();
        let collection = sampled_collection(graph, &StandardRr, &budgets, params);
        Self::freeze(
            &collection,
            IndexMeta {
                eps: params.eps,
                ell: params.ell,
                seed: params.seed,
                budget_cap,
                graph_fingerprint: graph_fingerprint(graph),
            },
        )
    }

    /// Freeze an existing collection (borrowed — the iteration hook) into
    /// an index with the given metadata.
    pub fn freeze(collection: &RrCollection, meta: IndexMeta) -> RrIndex {
        let (offsets, members, weights) = collection.parts();
        Self::from_canonical_unchecked(
            collection.num_nodes(),
            collection.num_sampled(),
            offsets.to_vec(),
            members.to_vec(),
            weights.to_vec(),
            meta,
        )
    }

    /// Rebuild from canonical parts that are already structurally valid
    /// (enforced by `RrCollection::from_parts` on the load path).
    fn from_canonical_unchecked(
        num_nodes: usize,
        num_sampled: usize,
        set_offsets: Vec<usize>,
        members: Vec<NodeId>,
        weights: Vec<f64>,
        meta: IndexMeta,
    ) -> RrIndex {
        let (post_offsets, postings, node_totals) =
            build_postings(num_nodes, &set_offsets, &members, &weights);
        let sum: f64 = weights.iter().sum();
        let integral = sum < EXACT_F64_INTEGERS && weights.iter().all(|w| w.fract() == 0.0);
        RrIndex {
            num_nodes,
            num_sampled,
            set_offsets,
            members,
            weights,
            post_offsets,
            postings,
            node_totals,
            integral_weight: integral.then_some(sum),
            meta,
        }
    }

    /// Validating constructor for the store's load paths (shard faults,
    /// journal replay): structural checks are delegated to
    /// [`RrCollection::from_parts`] so corrupt inputs that slip past the
    /// checksum surface as errors, not UB or panics.
    pub fn from_canonical(
        num_nodes: usize,
        num_sampled: usize,
        set_offsets: Vec<usize>,
        members: Vec<NodeId>,
        weights: Vec<f64>,
        meta: IndexMeta,
    ) -> Result<RrIndex, EngineError> {
        let (o, m, w) =
            RrCollection::from_parts(num_nodes, set_offsets, members, weights, num_sampled)
                .map_err(EngineError::Corrupt)?
                .into_parts();
        Ok(Self::from_canonical_unchecked(
            num_nodes,
            num_sampled,
            o,
            m,
            w,
            meta,
        ))
    }

    /// Build metadata.
    pub fn meta(&self) -> &IndexMeta {
        &self.meta
    }

    /// Node-universe size.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// θ — total sets sampled (estimator denominator).
    pub fn num_sampled(&self) -> usize {
        self.num_sampled
    }

    /// Retained (non-empty) set count.
    pub fn num_sets(&self) -> usize {
        self.weights.len()
    }

    /// Members of retained set `j`.
    pub fn set(&self, j: usize) -> &[NodeId] {
        &self.members[self.set_offsets[j]..self.set_offsets[j + 1]]
    }

    /// Canonical persistent state: `(set_offsets, members, weights)`.
    pub fn canonical_parts(&self) -> (&[usize], &[NodeId], &[f64]) {
        (&self.set_offsets, &self.members, &self.weights)
    }

    /// The ids of the sets containing node `v`.
    pub fn postings(&self, v: NodeId) -> &[u32] {
        &self.postings[self.post_offsets[v as usize]..self.post_offsets[v as usize + 1]]
    }

    /// The estimator scale `n · M / θ` (Lemma 6 / Borgs et al.).
    pub fn estimate(&self, covered_weight: f64) -> f64 {
        if self.num_sampled == 0 {
            0.0
        } else {
            self.num_nodes as f64 * covered_weight / self.num_sampled as f64
        }
    }

    /// Total weight covered by `seeds` — `O(Σ |postings(s)|)` via the
    /// precomputed inverted index (no per-call scan of all sets).
    pub fn coverage_of(&self, seeds: &[NodeId]) -> f64 {
        let mut covered = vec![false; self.num_sets()];
        let mut total = 0.0;
        for &s in seeds {
            for &j in self.postings(s) {
                if !covered[j as usize] {
                    covered[j as usize] = true;
                    total += self.weights[j as usize];
                }
            }
        }
        total
    }

    /// Greedy `NodeSelection` (Algorithm 5) over the frozen postings:
    /// identical output to `RrCollection::greedy_select` on the source
    /// collection (same tie-breaking), but with the inverted index
    /// precomputed once at freeze time instead of per call.
    pub fn greedy_select(&self, b: usize) -> GreedySelection {
        greedy_select_parts(&[self], self.num_nodes, b, &[]).0
    }

    /// Materialize back into an [`RrCollection`] (borrowing hook for code
    /// paths that still speak the collection type, e.g.
    /// `cwelmax_rrset::select_from_collection`).
    pub fn to_collection(&self) -> RrCollection {
        RrCollection::from_parts(
            self.num_nodes,
            self.set_offsets.clone(),
            self.members.clone(),
            self.weights.clone(),
            self.num_sampled,
        )
        // lint:allow(no-panic-in-serving) -- re-validates parts this index itself produced; a failure is a construction bug, not a request condition
        .expect("a frozen index is always structurally valid")
    }
}

/// Greedy `NodeSelection` (Algorithm 5) over `parts` — indexes (or `Arc`s
/// of them) holding contiguous global set ranges, in global order — on
/// the marginal problem given `sp_nodes` (in range; empty for a fresh
/// campaign). Returns the selection and how many sets SP covers.
///
/// SP is a mask, not a filter: the sets it touches (found through SP's
/// postings alone) start out covered, which is all Algorithm 3's zeroing
/// means to a selection. The output — seeds, coverage bits, count — equals
/// `cwelmax_rrset::condition_parts` + `RrCollection::greedy_select` over
/// the parts' concatenated sets: surviving sets are visited in global
/// order, so every `f64` addition and argmax tie-break is the oracle's.
/// Initial gains come from the parts' cached node totals when every
/// weight is integral (sums are then exact in any order), else from an
/// ordered walk of the surviving sets.
pub fn greedy_select_parts<P: Deref<Target = RrIndex>>(
    parts: &[P],
    num_nodes: usize,
    b: usize,
    sp_nodes: &[NodeId],
) -> (GreedySelection, usize) {
    let mut covered: Vec<Vec<bool>> = parts.iter().map(|p| vec![false; p.num_sets()]).collect();
    let mut gain = vec![0.0f64; num_nodes];
    let exact = parts
        .iter()
        .try_fold(0.0, |sum, p| Some(sum + p.integral_weight?))
        .is_some_and(|sum| sum < EXACT_F64_INTEGERS);
    if exact {
        for part in parts {
            for (g, t) in gain.iter_mut().zip(&part.node_totals) {
                *g += t;
            }
        }
    }
    let mut removed_sets = 0;
    for &v in sp_nodes {
        removed_sets += cover(parts, &mut covered, exact.then_some(&mut gain[..]), v);
    }
    if !exact {
        for (part, cov) in parts.iter().zip(&covered) {
            for (j, &w) in part.weights.iter().enumerate() {
                if !cov[j] {
                    for &u in part.set(j) {
                        gain[u as usize] += w;
                    }
                }
            }
        }
    }
    let mut seeds = Vec::with_capacity(b);
    let mut coverage = Vec::with_capacity(b);
    let mut total = 0.0;
    for _ in 0..b.min(num_nodes) {
        let Some((best, best_gain)) = cwelmax_rrset::greedy_argmax(&gain) else {
            break;
        };
        seeds.push(best as NodeId);
        total += best_gain;
        coverage.push(total);
        cover(parts, &mut covered, Some(&mut gain[..]), best as NodeId);
        gain[best] = f64::NEG_INFINITY; // never pick the same node twice
    }
    (GreedySelection { seeds, coverage }, removed_sets)
}

/// Cover every still-uncovered set containing `v`, parts in global order,
/// withdrawing each one's weight from its members' `gain` when given.
/// Returns how many sets that was.
fn cover<P: Deref<Target = RrIndex>>(
    parts: &[P],
    covered: &mut [Vec<bool>],
    mut gain: Option<&mut [f64]>,
    v: NodeId,
) -> usize {
    let mut newly = 0;
    for (part, cov) in parts.iter().zip(covered) {
        for &j in part.postings(v) {
            let j = j as usize;
            if std::mem::replace(&mut cov[j], true) {
                continue;
            }
            newly += 1;
            if let Some(gain) = gain.as_deref_mut() {
                for &u in part.set(j) {
                    gain[u as usize] -= part.weights[j];
                }
            }
        }
    }
    newly
}

/// The postings (node → ids of the sets containing it, in set order) and,
/// from the same pass over the members, each node's total weight.
fn build_postings(
    num_nodes: usize,
    set_offsets: &[usize],
    members: &[NodeId],
    weights: &[f64],
) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
    let mut deg = vec![0usize; num_nodes];
    for &v in members {
        deg[v as usize] += 1;
    }
    let mut post_offsets = vec![0usize; num_nodes + 1];
    for v in 0..num_nodes {
        post_offsets[v + 1] = post_offsets[v] + deg[v];
    }
    let mut postings = vec![0u32; members.len()];
    let mut node_totals = vec![0.0f64; num_nodes];
    let mut cursor = post_offsets.clone();
    for (j, &w) in weights.iter().enumerate() {
        for &v in &members[set_offsets[j]..set_offsets[j + 1]] {
            postings[cursor[v as usize]] = j as u32;
            cursor[v as usize] += 1;
            node_totals[v as usize] += w;
        }
    }
    (post_offsets, postings, node_totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwelmax_graph::{generators, ProbabilityModel as PM};

    fn params(seed: u64) -> ImmParams {
        ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed,
            threads: 2,
            max_rr_sets: 500_000,
        }
    }

    fn sample_collection(n: usize, m: usize, seed: u64, count: usize) -> (RrCollection, Graph) {
        let g = generators::erdos_renyi(n, m, seed, PM::WeightedCascade);
        let mut c = RrCollection::new(n);
        c.extend_parallel(&g, &StandardRr, count, seed ^ 0xABC, 2);
        (c, g)
    }

    fn meta_for(g: &Graph) -> IndexMeta {
        IndexMeta {
            eps: 0.5,
            ell: 1.0,
            seed: 7,
            budget_cap: 10,
            graph_fingerprint: graph_fingerprint(g),
        }
    }

    #[test]
    fn coverage_matches_collection() {
        let (c, g) = sample_collection(80, 400, 3, 2000);
        let idx = RrIndex::freeze(&c, meta_for(&g));
        for seeds in [vec![0u32], vec![5, 9, 33], vec![], vec![79, 0, 41, 7]] {
            assert_eq!(idx.coverage_of(&seeds), c.coverage_of(&seeds), "{seeds:?}");
        }
        assert_eq!(idx.estimate(3.0), c.estimate(3.0));
    }

    #[test]
    fn greedy_select_matches_collection() {
        let (c, g) = sample_collection(120, 600, 9, 3000);
        let idx = RrIndex::freeze(&c, meta_for(&g));
        for b in [1usize, 3, 8] {
            let a = idx.greedy_select(b);
            let e = c.greedy_select(b);
            assert_eq!(a.seeds, e.seeds, "budget {b}");
            assert_eq!(a.coverage, e.coverage, "budget {b}");
        }
    }

    #[test]
    fn postings_are_complete_and_sorted_by_set() {
        let (c, g) = sample_collection(50, 250, 1, 800);
        let idx = RrIndex::freeze(&c, meta_for(&g));
        // every (set, member) pair appears exactly once in the postings
        let mut expected = 0usize;
        for j in 0..idx.num_sets() {
            expected += idx.set(j).len();
            for &v in idx.set(j) {
                assert!(idx.postings(v).contains(&(j as u32)));
            }
        }
        let total: usize = (0..50u32).map(|v| idx.postings(v).len()).sum();
        assert_eq!(total, expected);
        // postings per node are in increasing set order (cursor build)
        for v in 0..50u32 {
            let p = idx.postings(v);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "node {v}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let g = generators::erdos_renyi(100, 500, 5, PM::WeightedCascade);
        let a = RrIndex::build(&g, 5, &params(11));
        let b = RrIndex::build(&g, 5, &params(11));
        assert_eq!(a.canonical_parts(), b.canonical_parts());
        assert_eq!(a.num_sampled(), b.num_sampled());
    }

    #[test]
    fn roundtrip_through_collection() {
        let (c, g) = sample_collection(60, 300, 4, 1000);
        let idx = RrIndex::freeze(&c, meta_for(&g));
        let back = idx.to_collection();
        assert_eq!(back.num_sampled(), c.num_sampled());
        assert_eq!(back.parts(), c.parts());
    }

    #[test]
    fn fingerprint_distinguishes_graphs() {
        let a = generators::erdos_renyi(50, 200, 1, PM::WeightedCascade);
        let b = generators::erdos_renyi(50, 200, 2, PM::WeightedCascade);
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&a));
    }

    #[test]
    fn from_canonical_rejects_corrupt_parts() {
        let (c, g) = sample_collection(30, 120, 2, 200);
        let meta = meta_for(&g);
        let (offsets, members, weights) = c.parts();
        // member out of range
        let mut bad = members.to_vec();
        if !bad.is_empty() {
            bad[0] = 1000;
        }
        assert!(RrIndex::from_canonical(
            30,
            c.num_sampled(),
            offsets.to_vec(),
            bad,
            weights.to_vec(),
            meta,
        )
        .is_err());
        // offsets not monotone
        let mut bad_off = offsets.to_vec();
        if bad_off.len() > 2 {
            bad_off[1] = members.len() + 5;
        }
        assert!(RrIndex::from_canonical(
            30,
            c.num_sampled(),
            bad_off,
            members.to_vec(),
            weights.to_vec(),
            meta,
        )
        .is_err());
    }
}
