//! RR-set samplers: standard, marginal (Algorithm 3) and weighted
//! (Definition 2).

use cwelmax_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Per-thread reverse-BFS state, reused from set to set: which nodes the
/// set being sampled already holds. `4·n` bytes, allocated once per
/// sampling thread.
pub struct RrContext {
    /// `visited[v] == epoch` ⇔ `v` is in the set being sampled.
    visited: Vec<u32>,
    /// The current set's stamp. It only grows, so a stale stamp can never
    /// equal a current one, and [`Self::next_epoch`] is the only place it
    /// wraps (the `UicContext` rule: forget every stamp, start over).
    epoch: u32,
}

impl RrContext {
    /// State for graphs of `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> RrContext {
        RrContext {
            visited: vec![0; num_nodes],
            epoch: 0,
        }
    }

    /// A stamp no node carries. No set is in progress between calls, so
    /// running out of stamps only has to forget the old ones.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// A sampler producing one (possibly weighted) RR set per call.
///
/// Implementations must be deterministic functions of the supplied RNG so
/// that sampling is reproducible and parallelizable by seeding per set
/// index.
pub trait RrSampler: Sync {
    /// Sample one RR set rooted at a uniformly random node: append its
    /// members to `out` (what `out` already holds is another set's and is
    /// left alone) and return its weight.
    ///
    /// Appending nothing is a valid sample — e.g. a marginal RR set that
    /// hit `SP` — and must still be counted toward the number of sets
    /// generated; so is a set of weight 0.
    fn sample_into(
        &self,
        graph: &Graph,
        rng: &mut SmallRng,
        ctx: &mut RrContext,
        out: &mut Vec<NodeId>,
    ) -> f64;

    /// [`RrSampler::sample_into`] with a context and a vector of its own:
    /// the node set and its weight. For tests and one-off samples —
    /// anything sampling in a loop keeps an [`RrContext`].
    fn sample(&self, graph: &Graph, rng: &mut SmallRng) -> (Vec<NodeId>, f64) {
        let mut set = Vec::new();
        let mut ctx = RrContext::new(graph.num_nodes());
        let weight = self.sample_into(graph, rng, &mut ctx, &mut set);
        (set, weight)
    }

    /// The largest weight any sampled set can carry (`w_max`). 1 for
    /// unweighted samplers.
    fn max_weight(&self) -> f64 {
        1.0
    }
}

/// The shared reverse BFS: appends the visited set to `out`, which is its
/// own queue; stops early when `stop_at` yields true for a newly added
/// node (the node is still included).
///
/// The draws are the sampling contract (DESIGN §3): one `gen::<f32>()`
/// per in-neighbour not yet in the set, in in-edge order, none for a
/// member — so what tells members apart may change, the stream may not.
fn reverse_bfs(
    graph: &Graph,
    root: NodeId,
    rng: &mut SmallRng,
    ctx: &mut RrContext,
    out: &mut Vec<NodeId>,
    mut stop_at: impl FnMut(NodeId) -> bool,
) {
    let mut head = out.len();
    out.push(root);
    if stop_at(root) {
        return;
    }
    let epoch = ctx.next_epoch();
    let visited = &mut ctx.visited[..];
    visited[root as usize] = epoch;
    while head < out.len() {
        let (sources, probs) = graph.in_edge_slices(out[head]);
        head += 1;
        for (&v, &p) in sources.iter().zip(probs) {
            if visited[v as usize] == epoch {
                continue;
            }
            if rng.gen::<f32>() < p {
                visited[v as usize] = epoch;
                out.push(v);
                if stop_at(v) {
                    return;
                }
            }
        }
    }
}

/// Plain IC RR sets (classic IMM): weight 1, full reverse BFS.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardRr;

impl RrSampler for StandardRr {
    fn sample_into(
        &self,
        graph: &Graph,
        rng: &mut SmallRng,
        ctx: &mut RrContext,
        out: &mut Vec<NodeId>,
    ) -> f64 {
        let n = graph.num_nodes();
        if n == 0 {
            return 0.0;
        }
        let root = rng.gen_range(0..n as u32);
        reverse_bfs(graph, root, rng, ctx, out, |_| false);
        1.0
    }
}

/// Marginal RR sets (Algorithm 3): whenever the reverse BFS touches the
/// fixed seed set `SP`, the whole set is discarded (returned empty), so
/// coverage by a candidate set `S` estimates `σ(S | SP)`.
#[derive(Debug, Clone)]
pub struct MarginalRr {
    /// `in_sp[v]` ⇔ v ∈ SP.
    in_sp: Vec<bool>,
}

impl MarginalRr {
    /// Build for a graph of `num_nodes` nodes with fixed seeds `sp`.
    pub fn new(num_nodes: usize, sp: &[NodeId]) -> MarginalRr {
        let mut in_sp = vec![false; num_nodes];
        for &v in sp {
            in_sp[v as usize] = true;
        }
        MarginalRr { in_sp }
    }
}

impl RrSampler for MarginalRr {
    fn sample_into(
        &self,
        graph: &Graph,
        rng: &mut SmallRng,
        ctx: &mut RrContext,
        out: &mut Vec<NodeId>,
    ) -> f64 {
        let n = graph.num_nodes();
        if n == 0 {
            return 0.0;
        }
        let root = rng.gen_range(0..n as u32);
        let start = out.len();
        let mut hit = false;
        reverse_bfs(graph, root, rng, ctx, out, |v| {
            // stop immediately; the set will be discarded anyway
            hit = self.in_sp[v as usize];
            hit
        });
        if hit {
            out.truncate(start);
            0.0
        } else {
            1.0
        }
    }
}

/// Weighted RR sets (Definition 2) for SupGRD.
///
/// The reverse BFS stops as soon as a node of `SP` is reached (BFS order
/// guarantees every retained node is at distance ≤ dist(SP, root), i.e. a
/// superior-item seed placed on any retained node beats the inferior items
/// to the root). The weight is
/// `U⁺(i_m) − max {U⁺(i) | i allocated to an SP node in the set}`, or
/// `U⁺(i_m)` if no SP node was reached.
#[derive(Debug, Clone)]
pub struct WeightedRr {
    /// Expected truncated utility of the superior item `i_m`.
    superior_utility: f64,
    /// `sp_item_utility[v]` = best `E[U⁺(i)]` among items allocated to `v`
    /// in `SP`, or `NEG_INFINITY` when `v ∉ SP`.
    sp_item_utility: Vec<f64>,
}

impl WeightedRr {
    /// Build for a graph of `num_nodes` nodes. `sp_alloc` lists
    /// `(node, expected truncated utility of an item allocated to it)`;
    /// multiple items on one node keep the maximum.
    pub fn new(
        num_nodes: usize,
        superior_utility: f64,
        sp_alloc: impl IntoIterator<Item = (NodeId, f64)>,
    ) -> WeightedRr {
        let mut sp_item_utility = vec![f64::NEG_INFINITY; num_nodes];
        for (v, u) in sp_alloc {
            let slot = &mut sp_item_utility[v as usize];
            *slot = slot.max(u);
        }
        WeightedRr {
            superior_utility,
            sp_item_utility,
        }
    }

    /// The superior item's expected truncated utility (`w_max`).
    pub fn superior_utility(&self) -> f64 {
        self.superior_utility
    }
}

impl RrSampler for WeightedRr {
    fn sample_into(
        &self,
        graph: &Graph,
        rng: &mut SmallRng,
        ctx: &mut RrContext,
        out: &mut Vec<NodeId>,
    ) -> f64 {
        let n = graph.num_nodes();
        if n == 0 {
            return 0.0;
        }
        let root = rng.gen_range(0..n as u32);
        let mut best_sp = f64::NEG_INFINITY;
        reverse_bfs(graph, root, rng, ctx, out, |v| {
            let u = self.sp_item_utility[v as usize];
            if u > f64::NEG_INFINITY {
                best_sp = best_sp.max(u);
                true // stop: SP reached
            } else {
                false
            }
        });
        let displaced = if best_sp > f64::NEG_INFINITY {
            best_sp.max(0.0)
        } else {
            0.0
        };
        (self.superior_utility - displaced).max(0.0)
    }

    fn max_weight(&self) -> f64 {
        self.superior_utility
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwelmax_graph::{generators, GraphBuilder, ProbabilityModel as PM};
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn standard_rr_on_deterministic_path() {
        // path 0 -> 1 -> 2 with p=1: RR(2) = {2,1,0}, RR(0) = {0}
        let g = generators::path(3, PM::Constant(1.0));
        let mut counts = [0usize; 4];
        for s in 0..3000 {
            let (set, w) = StandardRr.sample(&g, &mut rng(s));
            assert_eq!(w, 1.0);
            counts[set.len()] += 1;
            // membership check: a size-k set on the path must be a suffix
            // of {root, root-1, ...}
            let root = set[0];
            for (d, &v) in set.iter().enumerate() {
                assert_eq!(v, root - d as u32);
            }
        }
        // sizes 1,2,3 each occur for roots 0,1,2 → roughly uniform thirds
        for (len, &count) in counts.iter().enumerate().take(4).skip(1) {
            assert!(count > 800, "len {len}: {count}");
        }
    }

    #[test]
    fn standard_rr_respects_probability() {
        // single edge 0 -> 1 with p = 0.3: RR(1) contains 0 w.p. 0.3
        let g = generators::path(2, PM::Constant(0.3));
        let trials = 60_000;
        let mut with0 = 0;
        let mut root1 = 0;
        for s in 0..trials {
            let (set, _) = StandardRr.sample(&g, &mut rng(s));
            if set[0] == 1 {
                root1 += 1;
                if set.contains(&0) {
                    with0 += 1;
                }
            }
        }
        let frac = with0 as f64 / root1 as f64;
        assert!((frac - 0.3).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn marginal_rr_discards_sp_hits() {
        // path 0 -> 1 -> 2 deterministic, SP = {0}: every RR set rooted at
        // any node includes 0 → all discarded except none… root 0,1,2 all
        // reach back to 0, so ALL sets become empty.
        let g = generators::path(3, PM::Constant(1.0));
        let s = MarginalRr::new(3, &[0]);
        for seed in 0..200 {
            let (set, _) = s.sample(&g, &mut rng(seed));
            assert!(set.is_empty());
        }
    }

    #[test]
    fn marginal_rr_keeps_sets_avoiding_sp() {
        // two disjoint chains: 0 -> 1, 2 -> 3; SP = {0}
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let g = b.build(PM::Constant(1.0));
        let s = MarginalRr::new(4, &[0]);
        let mut kept = 0;
        let mut discarded = 0;
        for seed in 0..4000 {
            let (set, _) = s.sample(&g, &mut rng(seed));
            if set.is_empty() {
                discarded += 1;
            } else {
                kept += 1;
                assert!(!set.contains(&0));
            }
        }
        // roots 0 and 1 are discarded (reach 0), roots 2 and 3 are kept
        assert!((kept as f64 / (kept + discarded) as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn weighted_rr_stops_at_sp_and_weights() {
        // path 0 -> 1 -> 2 -> 3 deterministic; SP = {1} with item utility 2;
        // superior utility 5.
        let g = generators::path(4, PM::Constant(1.0));
        let s = WeightedRr::new(4, 5.0, [(1u32, 2.0)]);
        for seed in 0..400 {
            let (set, w) = s.sample(&g, &mut rng(seed));
            let root = set[0];
            if root == 0 {
                // nothing upstream; SP not reached
                assert_eq!(set, vec![0]);
                assert_eq!(w, 5.0);
            } else if root == 1 {
                // root itself in SP: stop immediately
                assert_eq!(set, vec![1]);
                assert_eq!(w, 3.0);
            } else {
                // BFS walks back and stops upon reaching node 1
                assert!(set.contains(&1), "root {root}: {set:?}");
                assert!(!set.contains(&0), "must stop at SP");
                assert_eq!(w, 3.0);
            }
        }
    }

    #[test]
    fn weighted_rr_without_sp_hit_has_full_weight() {
        let g = generators::path(3, PM::Constant(1.0));
        let s = WeightedRr::new(3, 4.0, std::iter::empty());
        for seed in 0..100 {
            let (_, w) = s.sample(&g, &mut rng(seed));
            assert_eq!(w, 4.0);
        }
        assert_eq!(s.max_weight(), 4.0);
    }

    #[test]
    fn weighted_rr_weight_never_negative() {
        // inferior utility above superior (degenerate): weight clamps to 0
        let g = generators::path(2, PM::Constant(1.0));
        let s = WeightedRr::new(2, 1.0, [(0u32, 3.0)]);
        for seed in 0..100 {
            let (_, w) = s.sample(&g, &mut rng(seed));
            assert!(w >= 0.0);
        }
    }

    #[test]
    fn stamp_wrap_is_invisible() {
        // dense and likely edges: sets are large and full of cycles, so a
        // node wrongly taken for visited (or for new) changes the set
        let g = generators::erdos_renyi(60, 600, 4, PM::Constant(0.5));
        let shared = |ctx: &mut RrContext, k: u64| {
            let mut set = Vec::new();
            let w = StandardRr.sample_into(&g, &mut rng(k), ctx, &mut set);
            (set, w)
        };
        let mut ctx = RrContext::new(60);
        // leave low stamps behind — the ones the counter hands out again
        // after the wrap — then start a few sets below it
        for k in 0..8 {
            shared(&mut ctx, k);
        }
        ctx.epoch = u32::MAX - 3;
        for k in 8..20 {
            let fresh = StandardRr.sample(&g, &mut rng(k));
            assert!(fresh.0.len() > 5, "set {k} is too small to tell");
            assert_eq!(shared(&mut ctx, k), fresh, "set {k}");
        }
        assert!(ctx.epoch < 20, "the counter wrapped");
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let g = generators::erdos_renyi(100, 500, 1, PM::WeightedCascade);
        let (a1, _) = StandardRr.sample(&g, &mut rng(42));
        let (a2, _) = StandardRr.sample(&g, &mut rng(42));
        assert_eq!(a1, a2);
    }
}
