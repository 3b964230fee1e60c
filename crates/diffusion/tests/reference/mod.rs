//! The UIC fixpoint loop as it stood before the world kernel was
//! rewritten, kept verbatim (type renamed) as the oracle the kernel is
//! tested against: five parallel per-node vectors, one `is_live` branch
//! per scanned edge, `best_response` called per arrival and
//! `desire_by_node` per world. Its only dependencies are the public
//! scalar definitions (`EdgeWorld::is_live`, `NoiseWorld::best_response`,
//! `Graph::out_edges`), none of which the kernel itself goes through.

use cwelmax_diffusion::{Allocation, EdgeWorld, UicOutcome};
use cwelmax_graph::{Graph, NodeId};
use cwelmax_utility::{ItemSet, NoiseWorld};

/// Reusable simulation state for one thread.
pub struct ReferenceContext {
    num_items: usize,
    epoch: Vec<u32>,
    desire: Vec<u32>,
    adopted: Vec<u32>,
    current_epoch: u32,
    /// Nodes touched (desire became non-empty) in the current world.
    touched: Vec<NodeId>,
    frontier: Vec<(NodeId, ItemSet)>,
    next_frontier: Vec<(NodeId, ItemSet)>,
    /// Per-step pending desire additions, keyed by node (epoch-stamped).
    pending_epoch: Vec<u32>,
    pending: Vec<u32>,
    pending_nodes: Vec<NodeId>,
    pending_round: u32,
}

impl ReferenceContext {
    /// Allocate state for a graph with `num_nodes` nodes and `num_items`
    /// items.
    pub fn new(num_nodes: usize, num_items: usize) -> ReferenceContext {
        ReferenceContext {
            num_items,
            epoch: vec![0; num_nodes],
            desire: vec![0; num_nodes],
            adopted: vec![0; num_nodes],
            current_epoch: 0,
            touched: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
            pending_epoch: vec![0; num_nodes],
            pending: vec![0; num_nodes],
            pending_nodes: Vec::new(),
            pending_round: 0,
        }
    }

    #[inline]
    fn desire_of(&self, v: NodeId) -> ItemSet {
        if self.epoch[v as usize] == self.current_epoch {
            ItemSet(self.desire[v as usize])
        } else {
            ItemSet::EMPTY
        }
    }

    #[inline]
    fn adopted_of(&self, v: NodeId) -> ItemSet {
        if self.epoch[v as usize] == self.current_epoch {
            ItemSet(self.adopted[v as usize])
        } else {
            ItemSet::EMPTY
        }
    }

    #[inline]
    fn touch(&mut self, v: NodeId) {
        if self.epoch[v as usize] != self.current_epoch {
            self.epoch[v as usize] = self.current_epoch;
            self.desire[v as usize] = 0;
            self.adopted[v as usize] = 0;
            self.touched.push(v);
        }
    }

    /// Run the UIC fixpoint for `allocation` in the possible world
    /// `(edge_world, noise_world)` and return the aggregate outcome.
    pub fn run(
        &mut self,
        graph: &Graph,
        noise_world: &NoiseWorld,
        edge_world: EdgeWorld,
        allocation: &Allocation,
    ) -> UicOutcome {
        debug_assert_eq!(noise_world.num_items(), self.num_items);
        self.begin_world();

        // t = 1: seeds receive their allocated items and adopt.
        for (v, items) in allocation.desire_by_node() {
            self.touch(v);
            self.desire[v as usize] |= items.0;
            let adoption = noise_world.best_response(items, ItemSet::EMPTY);
            if !adoption.is_empty() {
                self.adopted[v as usize] = adoption.0;
                self.frontier.push((v, adoption));
            }
        }

        // t ≥ 2: propagate newly adopted items over live edges.
        while !self.frontier.is_empty() {
            self.pending_round += 1;
            self.pending_nodes.clear();
            // deliver this step's new adoptions into neighbours' pending sets
            let mut k = 0;
            while k < self.frontier.len() {
                let (u, new_items) = self.frontier[k];
                k += 1;
                for e in graph.out_edges(u) {
                    if !edge_world.is_live(e.id, e.prob) {
                        continue;
                    }
                    let v = e.node as usize;
                    if self.pending_epoch[v] != self.pending_round {
                        self.pending_epoch[v] = self.pending_round;
                        self.pending[v] = 0;
                        self.pending_nodes.push(e.node);
                    }
                    self.pending[v] |= new_items.0;
                }
            }
            self.frontier.clear();
            // all same-step arrivals are combined before the best response
            let mut idx = 0;
            while idx < self.pending_nodes.len() {
                let v = self.pending_nodes[idx];
                idx += 1;
                let add = ItemSet(self.pending[v as usize]);
                self.touch(v);
                let old_desire = ItemSet(self.desire[v as usize]);
                let new_desire = old_desire.union(add);
                if new_desire == old_desire {
                    continue; // nothing new arrived
                }
                self.desire[v as usize] = new_desire.0;
                let old_adopted = ItemSet(self.adopted[v as usize]);
                let new_adopted = noise_world.best_response(new_desire, old_adopted);
                let delta = new_adopted.difference(old_adopted);
                if !delta.is_empty() {
                    self.adopted[v as usize] = new_adopted.0;
                    self.next_frontier.push((v, delta));
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
        }

        // aggregate
        let mut welfare = 0.0;
        let mut adopters = 0;
        let mut counts = vec![0usize; self.num_items];
        let mut informed = 0;
        for k in 0..self.touched.len() {
            let v = self.touched[k];
            informed += 1;
            let a = ItemSet(self.adopted[v as usize]);
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
            informed,
        }
    }

    /// Prepare state for a fresh world (O(1) amortized via epochs).
    fn begin_world(&mut self) {
        self.current_epoch = self.current_epoch.wrapping_add(1);
        if self.current_epoch == 0 {
            // epoch wrapped: hard reset (once per 2^32 worlds)
            self.epoch.iter_mut().for_each(|e| *e = 0);
            self.pending_epoch.iter_mut().for_each(|e| *e = 0);
            self.current_epoch = 1;
            self.pending_round = 0;
        }
        self.touched.clear();
        self.frontier.clear();
        self.next_frontier.clear();
    }

    /// After a [`run`](Self::run): the desire set of `v` in the last world.
    pub fn last_desire(&self, v: NodeId) -> ItemSet {
        self.desire_of(v)
    }

    /// After a [`run`](Self::run): the adoption set of `v` in the last
    /// world.
    pub fn last_adopted(&self, v: NodeId) -> ItemSet {
        self.adopted_of(v)
    }

    /// Nodes whose desire set became non-empty in the last world.
    pub fn last_touched(&self) -> &[NodeId] {
        &self.touched
    }
}
