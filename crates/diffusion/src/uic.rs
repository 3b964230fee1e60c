//! The UIC diffusion fixpoint in one possible world.
//!
//! Semantics (§3 of the paper): at `t = 1` every seed's desire set is the
//! items allocated to it and the seed adopts the utility-maximal
//! non-negative bundle. Whenever a node adopts new items at time `t − 1`,
//! every live out-edge delivers those items into the neighbour's desire set
//! at time `t`; the neighbour then re-solves the progressive best response
//! `argmax { U(T) | A(t−1) ⊆ T ⊆ R(t), U(T) ≥ 0 }`. Adoption is
//! progressive (never retracted) and the process converges when no new
//! adoption happens.
//!
//! [`UicContext`] owns reusable stamped node state so that running
//! thousands of Monte-Carlo worlds allocates nothing per world.
//!
//! Two orders are part of the result, not of the implementation: nodes
//! enter `touched` in the order seeds are given and deliveries arrive
//! (frontier order, then edge order), and `welfare` is summed over
//! `touched` in that order — float addition does not associate, so
//! reordering either would change the bits every estimate is pinned to.

use crate::world::EdgeWorld;
use cwelmax_graph::{Graph, NodeId};
use cwelmax_utility::{ItemSet, NoiseWorld};

/// Aggregated outcome of one world.
#[derive(Debug, Clone, PartialEq)]
pub struct UicOutcome {
    /// `ρ_w(S) = Σ_v U_w(A_w(v))`.
    pub welfare: f64,
    /// Nodes with a non-empty adoption set.
    pub adopters: usize,
    /// `adoption_counts[i]` = number of nodes whose final adoption contains
    /// item `i`.
    pub adoption_counts: Vec<usize>,
    /// Nodes with a non-empty desire set (aware of at least one item).
    pub informed: usize,
}

/// Everything the fixpoint knows about one node, in one record: a
/// delivery reads and writes a single cache line instead of one per
/// parallel vector.
#[derive(Clone, Copy, Default)]
struct NodeState {
    /// Stamp of the world that last touched the node; `desire` and
    /// `adopted` are that world's.
    world: u32,
    /// Stamp of the round that last delivered to the node; `pending` is
    /// that round's.
    round: u32,
    desire: u32,
    adopted: u32,
    pending: u32,
}

/// A best response not asked for yet in this world (no itemset: item ids
/// stay below `cwelmax_utility::MAX_ITEMS` = 20).
const UNFILLED: u32 = u32::MAX;

/// The best-response table covers models of up to this many items
/// (`4^m` slots, cleared per world); larger ones ask the noise world
/// every time.
const TABLE_MAX_ITEMS: usize = 4;

/// Reusable simulation state for one thread.
pub struct UicContext {
    num_items: usize,
    nodes: Vec<NodeState>,
    /// The one counter both stamps are drawn from: it only grows, so a
    /// stale `world` or `round` can never equal a current one, and
    /// [`Self::next_stamp`] is the only place it wraps.
    stamp: u32,
    /// The current world's stamp.
    world: u32,
    /// Nodes touched (desire became non-empty) in the current world.
    touched: Vec<NodeId>,
    frontier: Vec<(NodeId, ItemSet)>,
    next_frontier: Vec<(NodeId, ItemSet)>,
    /// Nodes delivered to in the current round, in arrival order.
    pending_nodes: Vec<NodeId>,
    /// Scratch: one frontier node's live targets.
    live: Vec<NodeId>,
    /// This world's best responses by `desire << m | adopted`, filled as
    /// they are asked: a cascade asks a handful of distinct questions
    /// thousands of times, and each answer is a subset enumeration.
    responses: Vec<u32>,
}

impl UicContext {
    /// Allocate state for a graph with `num_nodes` nodes and `num_items`
    /// items.
    pub fn new(num_nodes: usize, num_items: usize) -> UicContext {
        let slots = if num_items <= TABLE_MAX_ITEMS {
            1 << (2 * num_items)
        } else {
            0
        };
        UicContext {
            num_items,
            nodes: vec![NodeState::default(); num_nodes],
            stamp: 0,
            world: 0,
            touched: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            pending_nodes: Vec::new(),
            live: Vec::new(),
            responses: vec![UNFILLED; slots],
        }
    }

    /// A stamp no node carries. When the counter runs out, every stamp
    /// is forgotten and the world in progress (if any — `touched` is
    /// empty between worlds) is re-stamped, so the wrap is invisible to
    /// the fixpoint whichever bump hits it.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            for s in &mut self.nodes {
                s.world = 0;
                s.round = 0;
            }
            self.world = 1;
            for &v in &self.touched {
                self.nodes[v as usize].world = 1;
            }
            self.stamp = 1;
        }
        self.stamp += 1;
        self.stamp
    }

    /// Run the UIC fixpoint from `seeds` — an allocation's
    /// [`desire_by_node`](crate::Allocation::desire_by_node): each seed
    /// node once, with the items allocated to it — in the possible world
    /// `(edge_world, noise_world)` and return the aggregate outcome.
    pub fn run(
        &mut self,
        graph: &Graph,
        noise_world: &NoiseWorld,
        edge_world: EdgeWorld,
        seeds: &[(NodeId, ItemSet)],
    ) -> UicOutcome {
        debug_assert_eq!(noise_world.num_items(), self.num_items);
        self.touched.clear();
        self.frontier.clear();
        self.next_frontier.clear();
        self.responses.fill(UNFILLED);
        self.world = self.next_stamp();

        // t = 1: seeds receive their allocated items and adopt.
        for &(v, items) in seeds {
            self.touch(v);
            self.nodes[v as usize].desire |= items.0;
            let adoption = self.best_response(noise_world, items, ItemSet::EMPTY);
            if !adoption.is_empty() {
                self.nodes[v as usize].adopted = adoption.0;
                self.frontier.push((v, adoption));
            }
        }

        // t ≥ 2: propagate newly adopted items over live edges.
        while !self.frontier.is_empty() {
            let round = self.next_stamp();
            self.pending_nodes.clear();
            // deliver this step's new adoptions into neighbours' pending sets
            for &(u, new_items) in &self.frontier {
                let (first_edge, targets, probs) = graph.out_edge_slices(u);
                for &v in edge_world.gather_live(first_edge, targets, probs, &mut self.live) {
                    let s = &mut self.nodes[v as usize];
                    if s.round != round {
                        s.round = round;
                        s.pending = 0;
                        self.pending_nodes.push(v);
                    }
                    s.pending |= new_items.0;
                }
            }
            self.frontier.clear();
            // all same-step arrivals are combined before the best response
            for k in 0..self.pending_nodes.len() {
                let v = self.pending_nodes[k];
                self.touch(v);
                let s = self.nodes[v as usize];
                let new_desire = s.desire | s.pending;
                if new_desire == s.desire {
                    continue; // nothing new arrived
                }
                let old_adopted = ItemSet(s.adopted);
                let new_adopted = self.best_response(noise_world, ItemSet(new_desire), old_adopted);
                let s = &mut self.nodes[v as usize];
                s.desire = new_desire;
                let delta = new_adopted.difference(old_adopted);
                if !delta.is_empty() {
                    s.adopted = new_adopted.0;
                    self.next_frontier.push((v, delta));
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }

        // aggregate, in touch order
        let mut welfare = 0.0;
        let mut adopters = 0;
        let mut counts = vec![0usize; self.num_items];
        for &v in &self.touched {
            let a = ItemSet(self.nodes[v as usize].adopted);
            if !a.is_empty() {
                adopters += 1;
                welfare += noise_world.utility(a);
                for i in a.iter() {
                    counts[i] += 1;
                }
            }
        }
        UicOutcome {
            welfare,
            adopters,
            adoption_counts: counts,
            informed: self.touched.len(),
        }
    }

    #[inline]
    fn touch(&mut self, v: NodeId) {
        let s = &mut self.nodes[v as usize];
        if s.world != self.world {
            s.world = self.world;
            s.desire = 0;
            s.adopted = 0;
            self.touched.push(v);
        }
    }

    /// `noise_world.best_response(desire, adopted)`, asked once per world.
    #[inline(always)]
    fn best_response(
        &mut self,
        noise_world: &NoiseWorld,
        desire: ItemSet,
        adopted: ItemSet,
    ) -> ItemSet {
        let slot = (desire.mask() << self.num_items) | adopted.mask();
        match self.responses.get(slot) {
            Some(&answer) if answer != UNFILLED => ItemSet(answer),
            _ => self.ask(noise_world, desire, adopted, slot),
        }
    }

    /// The table's miss path: ask the noise world, and keep the answer
    /// if this many items have a table at all.
    #[inline(never)]
    fn ask(
        &mut self,
        noise_world: &NoiseWorld,
        desire: ItemSet,
        adopted: ItemSet,
        slot: usize,
    ) -> ItemSet {
        let answer = noise_world.best_response(desire, adopted);
        if let Some(kept) = self.responses.get_mut(slot) {
            *kept = answer.0;
        }
        answer
    }

    /// The state of `v` if the last world touched it.
    #[inline]
    fn last_state(&self, v: NodeId) -> Option<&NodeState> {
        Some(&self.nodes[v as usize]).filter(|s| s.world == self.world)
    }

    /// After a [`run`](Self::run): the desire set of `v` in the last world.
    pub fn last_desire(&self, v: NodeId) -> ItemSet {
        self.last_state(v)
            .map_or(ItemSet::EMPTY, |s| ItemSet(s.desire))
    }

    /// After a [`run`](Self::run): the adoption set of `v` in the last
    /// world.
    pub fn last_adopted(&self, v: NodeId) -> ItemSet {
        self.last_state(v)
            .map_or(ItemSet::EMPTY, |s| ItemSet(s.adopted))
    }

    /// Nodes whose desire set became non-empty in the last world.
    pub fn last_touched(&self) -> &[NodeId] {
        &self.touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use cwelmax_graph::{generators, GraphBuilder, ProbabilityModel as PM};
    use cwelmax_utility::configs;

    /// Two-node deterministic network of the Theorem-1 counterexample.
    fn two_node() -> Graph {
        generators::path(2, PM::Constant(1.0))
    }

    fn run_det(
        graph: &Graph,
        model: &cwelmax_utility::UtilityModel,
        alloc: &Allocation,
    ) -> UicOutcome {
        let mut ctx = UicContext::new(graph.num_nodes(), model.num_items());
        let nw = model.noiseless_world();
        ctx.run(graph, &nw, EdgeWorld::new(0), &alloc.desire_by_node())
    }

    #[test]
    fn theorem1_monotonicity_counterexample() {
        // ρ({(u,i1)}) = 8 but ρ({(u,i1),(v,i2)}) = 7
        let g = two_node();
        let m = configs::counterexample_theorem1();
        let s1 = Allocation::from_pairs([(0, 0)]);
        let s2 = Allocation::from_pairs([(0, 0), (1, 1)]);
        let o1 = run_det(&g, &m, &s1);
        let o2 = run_det(&g, &m, &s2);
        assert!((o1.welfare - 8.0).abs() < 1e-9, "ρ(S1) = {}", o1.welfare);
        assert!((o2.welfare - 7.0).abs() < 1e-9, "ρ(S2) = {}", o2.welfare);
    }

    #[test]
    fn theorem1_submodularity_counterexample() {
        let g = two_node();
        let m = configs::counterexample_theorem1();
        let s1 = Allocation::from_pairs([(1, 1)]);
        let s2 = Allocation::from_pairs([(1, 1), (1, 2)]);
        let x = (0, 0usize);
        let rho = |a: &Allocation| run_det(&g, &m, a).welfare;
        let m1 = rho(&s1.union(&Allocation::from_pairs([x]))) - rho(&s1);
        let m2 = rho(&s2.union(&Allocation::from_pairs([x]))) - rho(&s2);
        assert!((m1 - 4.0).abs() < 1e-9, "marginal over S1 = {m1}");
        assert!((m2 - 5.0).abs() < 1e-9, "marginal over S2 = {m2}");
        assert!(m2 > m1, "submodularity violated as the paper proves");
    }

    #[test]
    fn theorem1_supermodularity_counterexample() {
        let g = two_node();
        let m = configs::counterexample_theorem1();
        let s1 = Allocation::new();
        let s2 = Allocation::from_pairs([(1, 1)]);
        let x = Allocation::from_pairs([(0, 0)]);
        let rho = |a: &Allocation| run_det(&g, &m, a).welfare;
        let m1 = rho(&s1.union(&x)) - rho(&s1);
        let m2 = rho(&s2.union(&x)) - rho(&s2);
        assert!((m1 - 8.0).abs() < 1e-9);
        assert!((m2 - 4.0).abs() < 1e-9);
        assert!(m2 < m1, "supermodularity violated as the paper proves");
    }

    #[test]
    fn seeds_adopt_best_nonnegative_bundle() {
        let g = two_node();
        let m = configs::two_item_config(configs::TwoItemConfig::C1);
        // noiseless world: seed with both items adopts only item 0 (U=1)
        let alloc = Allocation::from_pairs([(0, 0), (0, 1)]);
        let o = run_det(&g, &m, &alloc);
        assert_eq!(o.adoption_counts, vec![2, 0]); // both nodes adopt i, not j
        assert!((o.welfare - 2.0).abs() < 1e-9);
    }

    #[test]
    fn blocking_under_pure_competition() {
        // path 0 -> 1 -> 2; node 1 seeded with j blocks i from reaching 2
        // under C1 (pure competition), because 1 adopts j first and never
        // switches, but i still reaches 2 through 1? No: 1 never adopts i,
        // so i is never forwarded. Node 2 adopts j.
        let g = generators::path(3, PM::Constant(1.0));
        let m = configs::two_item_config(configs::TwoItemConfig::C1);
        let alloc = Allocation::from_pairs([(0, 0), (1, 1)]);
        let o = run_det(&g, &m, &alloc);
        // node 0: i (1.0); node 1: j at t=1, i arrives t=2 but bundle is
        // negative, keeps j (0.9); node 2: j (0.9)
        assert_eq!(o.adoption_counts, vec![1, 2]);
        assert!((o.welfare - (1.0 + 0.9 + 0.9)).abs() < 1e-9);
    }

    #[test]
    fn soft_competition_allows_bundles() {
        let g = generators::path(3, PM::Constant(1.0));
        let m = configs::two_item_config(configs::TwoItemConfig::C3);
        let alloc = Allocation::from_pairs([(0, 0), (1, 1)]);
        let o = run_det(&g, &m, &alloc);
        // node 1 adopts j then upgrades to {i,j} (1.7 > 0.9);
        // node 2 receives j at t=2 (from 1's initial adoption) and i at t=3
        // (after 1 upgrades), ending with the bundle as well
        assert_eq!(o.adoption_counts, vec![3, 2]);
        let expect = 1.0 + 1.7 + 1.7;
        assert!((o.welfare - expect).abs() < 1e-9, "welfare {}", o.welfare);
    }

    #[test]
    fn unreached_nodes_stay_empty() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build(PM::Constant(1.0));
        let m = configs::two_item_config(configs::TwoItemConfig::C1);
        let alloc = Allocation::from_pairs([(0, 0)]);
        let mut ctx = UicContext::new(g.num_nodes(), m.num_items());
        let nw = m.noiseless_world();
        let o = ctx.run(&g, &nw, EdgeWorld::new(0), &alloc.desire_by_node());
        assert_eq!(o.informed, 2);
        assert_eq!(ctx.last_adopted(2), ItemSet::EMPTY);
        assert_eq!(ctx.last_desire(2), ItemSet::EMPTY);
    }

    #[test]
    fn blocked_edges_stop_propagation() {
        let g = generators::path(3, PM::Constant(0.0)); // all edges dead
        let m = configs::two_item_config(configs::TwoItemConfig::C1);
        let alloc = Allocation::from_pairs([(0, 0)]);
        let o = run_det(&g, &m, &alloc);
        assert_eq!(o.adopters, 1);
        assert!((o.welfare - 1.0).abs() < 1e-9);
    }

    #[test]
    fn state_reuse_across_worlds_is_clean() {
        let g = generators::path(4, PM::Constant(1.0));
        let m = configs::two_item_config(configs::TwoItemConfig::C1);
        let mut ctx = UicContext::new(g.num_nodes(), m.num_items());
        let nw = m.noiseless_world();
        let a1 = Allocation::from_pairs([(0, 0)]);
        let a2 = Allocation::from_pairs([(3, 1)]);
        let o1 = ctx.run(&g, &nw, EdgeWorld::new(1), &a1.desire_by_node());
        let o2 = ctx.run(&g, &nw, EdgeWorld::new(1), &a2.desire_by_node());
        let o1_again = ctx.run(&g, &nw, EdgeWorld::new(1), &a1.desire_by_node());
        assert_eq!(o1, o1_again, "state must not leak between worlds");
        assert_eq!(o2.adopters, 1); // node 3 has no out-edges
    }

    #[test]
    fn negative_seed_adopts_nothing() {
        // an item with negative utility is desired but never adopted
        let g = two_node();
        let m = cwelmax_utility::UtilityModel::new(
            cwelmax_utility::TableValue::from_table(1, vec![0.0, 1.0]),
            vec![5.0], // price 5, value 1 → U = -4
            vec![cwelmax_utility::NoiseDist::None],
        );
        let alloc = Allocation::from_pairs([(0, 0)]);
        let o = run_det(&g, &m, &alloc);
        assert_eq!(o.adopters, 0);
        assert_eq!(o.welfare, 0.0);
    }

    #[test]
    fn simultaneous_arrivals_combine_before_adoption() {
        // diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 with items on 1 and 2;
        // both items reach 3 at the same step, so 3 chooses the better one,
        // not the first in some arbitrary order
        let mut b = GraphBuilder::new(4);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        let g = b.build(PM::Constant(1.0));
        let m = configs::two_item_config(configs::TwoItemConfig::C1);
        // seed worse item j on node 1, better item i on node 2
        let alloc = Allocation::from_pairs([(1, 1), (2, 0)]);
        let mut ctx = UicContext::new(g.num_nodes(), m.num_items());
        let nw = m.noiseless_world();
        ctx.run(&g, &nw, EdgeWorld::new(0), &alloc.desire_by_node());
        assert_eq!(
            ctx.last_adopted(3),
            ItemSet::singleton(0),
            "3 must pick the better item"
        );
    }

    #[test]
    fn stamp_wrap_is_invisible_whichever_bump_hits_it() {
        // a world of many rounds (one per hop of the path, item 1 trailing
        // item 0 by a hop) after a shorter one that leaves stale stamps
        // behind, with the counter 0..=20 bumps short of its end: the wrap
        // lands on each world bump and each round bump of both in turn
        let g = generators::path(10, PM::Constant(1.0));
        let m = configs::two_item_config(configs::TwoItemConfig::C3);
        let nw = m.noiseless_world();
        let stale = Allocation::from_pairs([(4, 1)]).desire_by_node();
        let seeds = Allocation::from_pairs([(0, 0), (1, 1)]).desire_by_node();
        let mut fresh = UicContext::new(g.num_nodes(), m.num_items());
        let stale_want = fresh.run(&g, &nw, EdgeWorld::new(0), &stale);
        let want = fresh.run(&g, &nw, EdgeWorld::new(0), &seeds);
        assert_eq!(want.adoption_counts, vec![10, 9]);
        assert!(fresh.stamp < 20, "both worlds fit in the 20 bumps tried");
        for short in 0..=20 {
            let mut ctx = UicContext::new(g.num_nodes(), m.num_items());
            ctx.stamp = u32::MAX - short;
            assert_eq!(ctx.run(&g, &nw, EdgeWorld::new(0), &stale), stale_want);
            assert_eq!(ctx.run(&g, &nw, EdgeWorld::new(0), &seeds), want);
            assert_eq!(ctx.last_touched(), fresh.last_touched(), "{short} short");
            for v in g.nodes() {
                assert_eq!(ctx.last_desire(v), fresh.last_desire(v), "{short} short");
                assert_eq!(ctx.last_adopted(v), fresh.last_adopted(v), "{short} short");
            }
            // and the context is sound afterwards
            assert_eq!(ctx.run(&g, &nw, EdgeWorld::new(0), &seeds), want);
        }
    }
}
