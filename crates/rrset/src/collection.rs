//! Collections of (weighted) RR sets and the greedy `NodeSelection`
//! (Algorithm 5).

use crate::sampler::{RrContext, RrSampler};
use cwelmax_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A bag of sampled RR sets with weights and an inverted node → sets index.
pub struct RrCollection {
    num_nodes: usize,
    /// Flattened set storage: `members[set_offsets[j]..set_offsets[j+1]]`.
    set_offsets: Vec<usize>,
    members: Vec<NodeId>,
    weights: Vec<f64>,
    /// Number of sets sampled, **including** discarded/empty ones (the
    /// estimator divides by this θ).
    num_sampled: usize,
}

impl RrCollection {
    /// An empty collection over `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> RrCollection {
        RrCollection {
            num_nodes,
            set_offsets: vec![0],
            members: Vec::new(),
            weights: Vec::new(),
            num_sampled: 0,
        }
    }

    /// An empty collection whose θ cursor is preset to `cursor` — the
    /// resume hook for **deficit-only top-up sampling**. The next
    /// [`RrCollection::extend_parallel`] call seeds set `k` from
    /// `(seed, cursor + k)`, so sampling `target − cursor` sets here
    /// produces exactly the sets a cold `extend_parallel(…, target, …)`
    /// run would have produced at indices `cursor..target`: the seed
    /// stream continues, it does not restart. (`num_sampled` counts
    /// discarded sets too, so the resumed collection retains only the
    /// *new* sets — callers append them to the base they resumed from.)
    pub fn resume_at(num_nodes: usize, cursor: usize) -> RrCollection {
        RrCollection {
            num_nodes,
            set_offsets: vec![0],
            members: Vec::new(),
            weights: Vec::new(),
            num_sampled: cursor,
        }
    }

    /// Rebuild a collection from raw parts (the inverse of
    /// [`RrCollection::parts`]) — the ownership hook snapshot loaders use.
    /// Validates structural invariants so corrupted inputs surface as
    /// errors, never as out-of-bounds panics later.
    pub fn from_parts(
        num_nodes: usize,
        set_offsets: Vec<usize>,
        members: Vec<NodeId>,
        weights: Vec<f64>,
        num_sampled: usize,
    ) -> Result<RrCollection, String> {
        if set_offsets.first() != Some(&0) {
            return Err("set_offsets must start at 0".into());
        }
        if set_offsets.len() != weights.len() + 1 {
            return Err(format!(
                "offset/weight mismatch: {} offsets for {} weights",
                set_offsets.len(),
                weights.len()
            ));
        }
        if set_offsets.last() != Some(&members.len()) {
            return Err(format!(
                "last offset {} does not match member count {}",
                set_offsets.last().unwrap(),
                members.len()
            ));
        }
        if set_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("set_offsets must be non-decreasing".into());
        }
        if weights.len() > num_sampled {
            return Err(format!(
                "{} retained sets exceed θ = {num_sampled}",
                weights.len()
            ));
        }
        if let Some(&v) = members.iter().find(|&&v| v as usize >= num_nodes) {
            return Err(format!("member node {v} out of range n={num_nodes}"));
        }
        if let Some(&w) = weights.iter().find(|&&w| !w.is_finite() || w <= 0.0) {
            return Err(format!("retained set weight {w} is not positive/finite"));
        }
        Ok(RrCollection {
            num_nodes,
            set_offsets,
            members,
            weights,
            num_sampled,
        })
    }

    /// The node-universe size this collection was sampled over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// θ — the number of sets sampled (including empty ones).
    pub fn num_sampled(&self) -> usize {
        self.num_sampled
    }

    /// Iterate over the retained sets as `(members, weight)` — the
    /// borrowed iteration hook index builders use.
    pub fn iter(&self) -> impl Iterator<Item = (&[NodeId], f64)> + '_ {
        (0..self.num_sets()).map(|j| (self.set(j), self.weights[j]))
    }

    /// Borrow the raw storage: `(set_offsets, members, weights)`. Together
    /// with [`RrCollection::num_sampled`] this is the full persistent state
    /// of a collection (see `cwelmax-engine`'s snapshot format).
    pub fn parts(&self) -> (&[usize], &[NodeId], &[f64]) {
        (&self.set_offsets, &self.members, &self.weights)
    }

    /// Give the raw storage up, `(set_offsets, members, weights)` — the
    /// owning counterpart of [`RrCollection::parts`], so a loader that
    /// validated its vectors through [`RrCollection::from_parts`] gets
    /// them back without a copy.
    pub fn into_parts(self) -> (Vec<usize>, Vec<NodeId>, Vec<f64>) {
        (self.set_offsets, self.members, self.weights)
    }

    /// Number of retained (non-empty) sets.
    pub fn num_sets(&self) -> usize {
        self.weights.len()
    }

    /// Members of retained set `j`.
    pub fn set(&self, j: usize) -> &[NodeId] {
        &self.members[self.set_offsets[j]..self.set_offsets[j + 1]]
    }

    /// Weight of retained set `j`.
    pub fn weight(&self, j: usize) -> f64 {
        self.weights[j]
    }

    /// Add one sampled set (empty sets only bump θ).
    pub fn push(&mut self, set: Vec<NodeId>, weight: f64) {
        self.num_sampled += 1;
        let begin = self.members.len();
        self.members.extend_from_slice(&set);
        self.close_set(begin, weight);
    }

    /// Close the set whose members were appended from `begin` on: retain
    /// it with its weight or, empty or weightless, drop its members (θ
    /// counts it either way and is the caller's to bump).
    fn close_set(&mut self, begin: usize, weight: f64) {
        if self.members.len() == begin || weight <= 0.0 {
            self.members.truncate(begin);
        } else {
            self.set_offsets.push(self.members.len());
            self.weights.push(weight);
        }
    }

    /// Sample `count` additional sets in parallel. Set `k` (globally
    /// indexed from the current θ) uses an RNG seeded by `(seed, k)`, so
    /// the collection's contents depend only on `(seed, total count)` —
    /// not on thread scheduling.
    ///
    /// The calling thread samples the first share straight into the
    /// collection; every further thread fills one flat part of its own,
    /// spliced on in thread order. One thread's worth of work spawns
    /// nothing.
    pub fn extend_parallel(
        &mut self,
        graph: &Graph,
        sampler: &(impl RrSampler + ?Sized),
        count: usize,
        seed: u64,
        threads: usize,
    ) {
        if count == 0 {
            return;
        }
        let start = self.num_sampled;
        let threads = threads.clamp(1, count);
        let chunk = count.div_ceil(threads);
        // thread `t`'s share of the stream
        let share = |t: usize| start + (t * chunk).min(count)..start + ((t + 1) * chunk).min(count);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut part = RrCollection::new(graph.num_nodes());
                        part.sample_stream(graph, sampler, seed, share(t));
                        part
                    })
                })
                .collect();
            self.sample_stream(graph, sampler, seed, share(0));
            for handle in handles {
                let part = handle.join().expect("sampler panicked");
                let base = self.members.len();
                self.members.extend_from_slice(&part.members);
                self.set_offsets
                    .extend(part.set_offsets[1..].iter().map(|&end| base + end));
                self.weights.extend_from_slice(&part.weights);
            }
        });
        self.num_sampled = start + count;
    }

    /// Append the retained sets among `indices` of the stream `seed`.
    fn sample_stream(
        &mut self,
        graph: &Graph,
        sampler: &(impl RrSampler + ?Sized),
        seed: u64,
        indices: std::ops::Range<usize>,
    ) {
        let mut ctx = RrContext::new(graph.num_nodes());
        for k in indices {
            let mut rng = SmallRng::seed_from_u64(sample_seed(seed, k as u64));
            let begin = self.members.len();
            let weight = sampler.sample_into(graph, &mut rng, &mut ctx, &mut self.members);
            self.close_set(begin, weight);
        }
    }

    /// Total weight covered by seed set `s`:
    /// `M_R(S) = Σ_{R ∈ R} I[S ∩ R ≠ ∅] · w(R)`.
    pub fn coverage_of(&self, s: &[NodeId]) -> f64 {
        let mut in_s = vec![false; self.num_nodes];
        for &v in s {
            in_s[v as usize] = true;
        }
        (0..self.num_sets())
            .filter(|&j| self.set(j).iter().any(|&v| in_s[v as usize]))
            .map(|j| self.weights[j])
            .sum()
    }

    /// Greedy `NodeSelection` (Algorithm 5): pick `b` nodes maximizing the
    /// covered weight; returns the **ordered** seed list and the covered
    /// weight after each pick (`coverage[i]` = weight covered by the first
    /// `i + 1` seeds). The ordering is what makes PRIMA+ prefix-preserving:
    /// the first `b_i` nodes are exactly the greedy solution for budget
    /// `b_i` on the same collection.
    pub fn greedy_select(&self, b: usize) -> GreedySelection {
        let num_sets = self.num_sets();
        // inverted index: node -> list of set ids
        let mut node_deg = vec![0u32; self.num_nodes];
        for &v in &self.members {
            node_deg[v as usize] += 1;
        }
        let mut index_off = vec![0usize; self.num_nodes + 1];
        for v in 0..self.num_nodes {
            index_off[v + 1] = index_off[v] + node_deg[v] as usize;
        }
        let mut index = vec![0u32; self.members.len()];
        let mut cursor = index_off.clone();
        for j in 0..num_sets {
            for &v in self.set(j) {
                index[cursor[v as usize]] = j as u32;
                cursor[v as usize] += 1;
            }
        }
        // covered weight per node over uncovered sets
        let mut gain = vec![0.0f64; self.num_nodes];
        for j in 0..num_sets {
            for &v in self.set(j) {
                gain[v as usize] += self.weights[j];
            }
        }
        let mut covered = vec![false; num_sets];
        let mut seeds = Vec::with_capacity(b);
        let mut coverage = Vec::with_capacity(b);
        let mut total = 0.0;
        for _ in 0..b.min(self.num_nodes) {
            let (best, best_gain) = match greedy_argmax(&gain) {
                Some(x) => x,
                None => break,
            };
            seeds.push(best as NodeId);
            total += best_gain;
            coverage.push(total);
            // mark this node's uncovered sets covered; decrement members
            for &set_id in &index[index_off[best]..index_off[best + 1]] {
                let j = set_id as usize;
                if covered[j] {
                    continue;
                }
                covered[j] = true;
                for &v in self.set(j) {
                    gain[v as usize] -= self.weights[j];
                }
            }
            debug_assert!(gain[best].abs() < 1e-6);
            gain[best] = f64::NEG_INFINITY; // never pick the same node twice
        }
        GreedySelection { seeds, coverage }
    }

    /// The estimator scale: an estimate of the objective from a covered
    /// weight `M` is `n · M / θ` (Lemma 6 / Borgs et al.).
    pub fn estimate(&self, covered_weight: f64) -> f64 {
        if self.num_sampled == 0 {
            0.0
        } else {
            self.num_nodes as f64 * covered_weight / self.num_sampled as f64
        }
    }
}

/// Deterministic argmax over per-node greedy gains, shared by
/// [`RrCollection::greedy_select`] and the frozen-index selection in
/// `cwelmax-engine`: NaN-safe (the order is [`f64::total_cmp`]'s, so a
/// poisoned gain sorts deterministically instead of panicking the whole
/// query), ties broken toward the **smaller** node id. Returns `None` only
/// for an empty slice.
///
/// One pass over `total_cmp`'s integer key — the bits with the magnitude
/// flipped under a set sign, compared as `i64` — keeping the first
/// maximum: equal keys are equal bits, so a strict `>` is the tie-break.
pub fn greedy_argmax(gain: &[f64]) -> Option<(usize, f64)> {
    let key = |g: f64| {
        let bits = g.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    };
    let mut best = 0;
    let mut best_key = key(*gain.first()?);
    for (v, &g) in gain.iter().enumerate().skip(1) {
        if key(g) > best_key {
            best = v;
            best_key = key(g);
        }
    }
    Some((best, gain[best]))
}

/// Result of greedy node selection.
#[derive(Debug, Clone)]
pub struct GreedySelection {
    /// Seeds in pick order.
    pub seeds: Vec<NodeId>,
    /// `coverage[i]` = covered weight of the first `i + 1` seeds.
    pub coverage: Vec<f64>,
}

impl GreedySelection {
    /// Covered weight of the full selection.
    pub fn total_coverage(&self) -> f64 {
        self.coverage.last().copied().unwrap_or(0.0)
    }
}

fn sample_seed(seed: u64, k: u64) -> u64 {
    // SplitMix64 of (seed, k)
    let mut z = seed ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::StandardRr;
    use cwelmax_graph::{generators, ProbabilityModel as PM};

    fn manual_collection(n: usize, sets: &[(&[NodeId], f64)]) -> RrCollection {
        let mut c = RrCollection::new(n);
        for (s, w) in sets {
            c.push(s.to_vec(), *w);
        }
        c
    }

    #[test]
    fn coverage_counts_weighted_hits() {
        let c = manual_collection(
            5,
            &[(&[0, 1], 1.0), (&[2], 2.0), (&[3, 4], 0.5), (&[0], 1.0)],
        );
        assert_eq!(c.coverage_of(&[0]), 2.0);
        assert_eq!(c.coverage_of(&[2]), 2.0);
        assert_eq!(c.coverage_of(&[0, 2]), 4.0);
        assert_eq!(c.coverage_of(&[]), 0.0);
    }

    #[test]
    fn empty_sets_count_toward_theta_only() {
        let mut c = RrCollection::new(3);
        c.push(vec![0], 1.0);
        c.push(vec![], 1.0);
        c.push(vec![1], 0.0); // zero weight: also discarded
        assert_eq!(c.num_sampled(), 3);
        assert_eq!(c.num_sets(), 1);
        // estimate of covering everything: n * 1 / 3
        assert!((c.estimate(c.coverage_of(&[0, 1, 2])) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_picks_highest_gain_first() {
        // node 2 covers weight 3, nodes 0/1 cover weight 1 each
        let c = manual_collection(4, &[(&[2], 3.0), (&[0], 1.0), (&[1], 1.0)]);
        let sel = c.greedy_select(2);
        assert_eq!(sel.seeds[0], 2);
        assert_eq!(sel.coverage, vec![3.0, 4.0]);
    }

    #[test]
    fn greedy_accounts_for_overlap() {
        // node 0 appears in both sets; picking it covers both, so the
        // second pick gains nothing from those sets
        let c = manual_collection(3, &[(&[0, 1], 1.0), (&[0, 2], 1.0)]);
        let sel = c.greedy_select(2);
        assert_eq!(sel.seeds[0], 0);
        assert_eq!(sel.total_coverage(), 2.0);
        assert_eq!(sel.coverage[0], 2.0); // everything covered by first pick
    }

    #[test]
    fn greedy_prefix_property() {
        // greedy for budget b must be a prefix of greedy for budget b' > b
        let g = generators::erdos_renyi(150, 700, 11, PM::WeightedCascade);
        let mut c = RrCollection::new(150);
        c.extend_parallel(&g, &StandardRr, 3000, 9, 2);
        let s5 = c.greedy_select(5);
        let s10 = c.greedy_select(10);
        assert_eq!(s5.seeds[..], s10.seeds[..5]);
        assert_eq!(s5.coverage[..], s10.coverage[..5]);
    }

    #[test]
    fn parallel_sampling_is_deterministic() {
        let g = generators::erdos_renyi(100, 400, 2, PM::WeightedCascade);
        let build = |threads| {
            let mut c = RrCollection::new(100);
            c.extend_parallel(&g, &StandardRr, 500, 7, threads);
            (0..c.num_sets())
                .map(|j| c.set(j).to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(build(1), build(4));
    }

    #[test]
    fn resumed_sampling_continues_the_seed_stream() {
        // cold: 500 sets in one run. warm: 300, then a resumed collection
        // sampling the 200-set deficit. The resumed sets must be exactly
        // the cold run's sets 300..500 — same members, same weights, same
        // order — which is the identity θ top-up rests on.
        let g = generators::erdos_renyi(100, 400, 5, PM::WeightedCascade);
        let mut cold = RrCollection::new(100);
        cold.extend_parallel(&g, &StandardRr, 500, 21, 3);
        let mut warm = RrCollection::new(100);
        warm.extend_parallel(&g, &StandardRr, 300, 21, 2);
        let mut resumed = RrCollection::resume_at(100, warm.num_sampled());
        assert_eq!(resumed.num_sampled(), 300);
        assert_eq!(resumed.num_sets(), 0);
        resumed.extend_parallel(&g, &StandardRr, 200, 21, 4);
        assert_eq!(resumed.num_sampled(), cold.num_sampled());
        // warm retained + resumed retained == cold retained, in order
        let warm_sets = warm.num_sets();
        assert_eq!(warm_sets + resumed.num_sets(), cold.num_sets());
        for j in 0..resumed.num_sets() {
            assert_eq!(resumed.set(j), cold.set(warm_sets + j));
            assert_eq!(
                resumed.weight(j).to_bits(),
                cold.weight(warm_sets + j).to_bits()
            );
        }
    }

    #[test]
    fn estimate_matches_spread_on_path() {
        // deterministic path of 4: RR sets from root r have size r+1;
        // σ({0}) = 4 (reaches everyone)
        let g = generators::path(4, PM::Constant(1.0));
        let mut c = RrCollection::new(4);
        c.extend_parallel(&g, &StandardRr, 20_000, 3, 2);
        let est = c.estimate(c.coverage_of(&[0]));
        assert!((est - 4.0).abs() < 0.1, "estimate {est}");
        // σ({3}) = 1 (no out-edges)
        let est3 = c.estimate(c.coverage_of(&[3]));
        assert!((est3 - 1.0).abs() < 0.1, "estimate {est3}");
    }

    #[test]
    fn greedy_never_repeats_a_node() {
        let c = manual_collection(2, &[(&[0], 5.0), (&[1], 0.1)]);
        let sel = c.greedy_select(5);
        assert_eq!(sel.seeds.len(), 2);
        assert_eq!(sel.seeds[0], 0);
        assert_eq!(sel.seeds[1], 1);
    }

    #[test]
    fn greedy_argmax_is_nan_safe_and_tie_breaks_low() {
        // plain max with deterministic tie-break toward the smaller index
        assert_eq!(greedy_argmax(&[1.0, 3.0, 3.0, 2.0]), Some((1, 3.0)));
        assert_eq!(greedy_argmax(&[]), None);
        // a NaN gain must not panic the selection (the old
        // `partial_cmp(..).unwrap()` did); total_cmp keeps a total order
        let (i, g) = greedy_argmax(&[0.5, f64::NAN, 2.0]).unwrap();
        assert!(i < 3);
        assert!(g.is_nan() || g == 2.0);
        // all-NaN still yields a deterministic pick instead of a panic
        assert_eq!(greedy_argmax(&[f64::NAN, f64::NAN]).unwrap().0, 0);
    }

    #[test]
    fn greedy_on_empty_collection() {
        let c = RrCollection::new(10);
        let sel = c.greedy_select(3);
        assert_eq!(sel.seeds.len(), 3); // picks arbitrary zero-gain nodes
        assert_eq!(sel.total_coverage(), 0.0);
    }
}
