//! Classic single-item Independent Cascade spread.
//!
//! `σ(S)` — the expected number of nodes reachable from `S` over live edges
//! — is the quantity the welfare bounds of §5 relate welfare to
//! (Lemma 2: `umin·σ(S) ≤ ρ(S) ≤ umax·σ(S)`). UIC with a single
//! positive-utility item degenerates to IC (Proposition 1), which the
//! integration tests verify against this direct implementation.

use crate::world::EdgeWorld;
use cwelmax_graph::{Graph, NodeId};

/// Reusable state for IC spread evaluation.
pub struct IcContext {
    epoch: Vec<u32>,
    current_epoch: u32,
    queue: Vec<NodeId>,
    /// Scratch: one node's live targets.
    live: Vec<NodeId>,
}

impl IcContext {
    /// Allocate for `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> IcContext {
        IcContext {
            epoch: vec![0; num_nodes],
            current_epoch: 0,
            queue: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Number of nodes reachable from `seeds` in `world` (including the
    /// seeds themselves).
    pub fn live_reach(&mut self, graph: &Graph, world: EdgeWorld, seeds: &[NodeId]) -> usize {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            self.epoch.iter_mut().for_each(|e| *e = 0);
            self.current_epoch = 1;
        }
        self.queue.clear();
        let mut count = 0;
        for &s in seeds {
            if self.epoch[s as usize] != self.current_epoch {
                self.epoch[s as usize] = self.current_epoch;
                self.queue.push(s);
                count += 1;
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let (first_edge, targets, probs) = graph.out_edge_slices(u);
            for &v in world.gather_live(first_edge, targets, probs, &mut self.live) {
                if self.epoch[v as usize] != self.current_epoch {
                    self.epoch[v as usize] = self.current_epoch;
                    self.queue.push(v);
                    count += 1;
                }
            }
        }
        count
    }

    /// Marginal reach of `seeds` on top of `base`: nodes reached by
    /// `base ∪ seeds` but not by `base`, in the same world.
    pub fn marginal_live_reach(
        &mut self,
        graph: &Graph,
        world: EdgeWorld,
        seeds: &[NodeId],
        base: &[NodeId],
    ) -> usize {
        let base_reach = self.live_reach(graph, world, base);
        let mut all: Vec<NodeId> = base.to_vec();
        all.extend_from_slice(seeds);
        let union_reach = self.live_reach(graph, world, &all);
        union_reach - base_reach
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::world_seed;
    use cwelmax_graph::{generators, ProbabilityModel as PM};

    #[test]
    fn deterministic_path_reach() {
        let g = generators::path(5, PM::Constant(1.0));
        let mut ctx = IcContext::new(5);
        assert_eq!(ctx.live_reach(&g, EdgeWorld::new(0), &[0]), 5);
        assert_eq!(ctx.live_reach(&g, EdgeWorld::new(0), &[3]), 2);
        assert_eq!(ctx.live_reach(&g, EdgeWorld::new(0), &[0, 3]), 5);
    }

    #[test]
    fn dead_edges_reach_only_seeds() {
        let g = generators::path(5, PM::Constant(0.0));
        let mut ctx = IcContext::new(5);
        assert_eq!(ctx.live_reach(&g, EdgeWorld::new(0), &[0, 2]), 2);
    }

    #[test]
    fn expected_spread_on_single_edge() {
        // one edge with p = 0.3: E[reach from source] = 1.3
        let g = generators::path(2, PM::Constant(0.3));
        let mut ctx = IcContext::new(2);
        let n = 100_000;
        let total: usize = (0..n)
            .map(|k| ctx.live_reach(&g, EdgeWorld::new(world_seed(7, k)), &[0]))
            .sum();
        let avg = total as f64 / n as f64;
        assert!((avg - 1.3).abs() < 0.01, "spread {avg}");
    }

    #[test]
    fn marginal_reach() {
        let g = generators::path(6, PM::Constant(1.0));
        let mut ctx = IcContext::new(6);
        // base {3} reaches {3,4,5}; adding {0} adds {0,1,2}
        let m = ctx.marginal_live_reach(&g, EdgeWorld::new(0), &[0], &[3]);
        assert_eq!(m, 3);
        // adding a node already covered adds nothing
        let m2 = ctx.marginal_live_reach(&g, EdgeWorld::new(0), &[4], &[3]);
        assert_eq!(m2, 0);
    }

    #[test]
    fn duplicate_seeds_counted_once() {
        let g = generators::path(3, PM::Constant(1.0));
        let mut ctx = IcContext::new(3);
        assert_eq!(ctx.live_reach(&g, EdgeWorld::new(0), &[0, 0]), 3);
    }
}
