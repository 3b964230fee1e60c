//! Immutable CSR (compressed sparse row) storage for directed probabilistic
//! graphs.
//!
//! Node ids are dense `u32` indices in `0..n`. Edges are stored twice: once
//! grouped by source (forward / out adjacency, used by forward diffusion) and
//! once grouped by target (reverse / in adjacency, used by reverse-reachable
//! set sampling). Every physical edge has a stable *edge id* in `0..m` equal
//! to its position in the forward arrays; the reverse arrays carry the same
//! ids so that per-edge state (e.g. the sampled liveness of an edge inside
//! one possible world) is shared between the two directions.

use serde::{Deserialize, Serialize};

/// Dense node identifier. The graph owns ids `0..num_nodes`.
pub type NodeId = u32;

/// A borrowed view of one directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Stable edge id in `0..num_edges`, shared between the forward and
    /// reverse adjacency so per-edge state can be keyed by it.
    pub id: u32,
    /// The endpoint on the *other* side of the iteration: the target when
    /// iterating out-edges, the source when iterating in-edges.
    pub node: NodeId,
    /// Influence probability `p(u,v)`.
    pub prob: f32,
}

/// Immutable directed probabilistic graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`] or one of the [`crate::generators`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets`/`out_probs`.
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) out_probs: Vec<f32>,
    /// `in_offsets[v]..in_offsets[v+1]` indexes the reverse arrays.
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<NodeId>,
    pub(crate) in_probs: Vec<f32>,
    /// For reverse slot `k`, `in_edge_ids[k]` is the forward edge id.
    pub(crate) in_edge_ids: Vec<u32>,
}

impl Graph {
    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        (self.in_offsets[v as usize + 1] - self.in_offsets[v as usize]) as usize
    }

    /// Iterate the out-edges of `u`. `EdgeRef::node` is the edge target.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        (lo..hi).map(move |k| EdgeRef {
            id: k as u32,
            node: self.out_targets[k],
            prob: self.out_probs[k],
        })
    }

    /// The out-edges of `u` as parallel slices — the id of the first (ids
    /// are consecutive), the targets, the probabilities — for loops that
    /// want the arrays themselves rather than one [`EdgeRef`] at a time.
    #[inline]
    pub fn out_edge_slices(&self, u: NodeId) -> (u32, &[NodeId], &[f32]) {
        let lo = self.out_offsets[u as usize] as usize;
        let hi = self.out_offsets[u as usize + 1] as usize;
        (
            lo as u32,
            &self.out_targets[lo..hi],
            &self.out_probs[lo..hi],
        )
    }

    /// Iterate the in-edges of `v`. `EdgeRef::node` is the edge source.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        (lo..hi).map(move |k| EdgeRef {
            id: self.in_edge_ids[k],
            node: self.in_sources[k],
            prob: self.in_probs[k],
        })
    }

    /// The in-edges of `v` as parallel slices — the sources and the
    /// probabilities, in [`Graph::in_edges`] order — the mirror of
    /// [`Graph::out_edge_slices`] for reverse traversals (reverse slots
    /// carry scattered edge ids, so there is no first id to return).
    #[inline]
    pub fn in_edge_slices(&self, v: NodeId) -> (&[NodeId], &[f32]) {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        (&self.in_sources[lo..hi], &self.in_probs[lo..hi])
    }

    /// Iterate every edge as `(source, target, prob)` in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f32)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |u| self.out_edges(u).map(move |e| (u, e.node, e.prob)))
    }

    /// All node ids, `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Sum of all edge probabilities; a cheap fingerprint used by tests.
    pub fn total_probability_mass(&self) -> f64 {
        self.out_probs.iter().map(|&p| p as f64).sum()
    }

    /// Replace every edge probability using `f(source, target, old) -> new`.
    ///
    /// Used by the scalability experiment (Fig. 6d) which re-runs the same
    /// topology under `1/din(v)` and constant `0.01` probabilities.
    pub fn with_probabilities(&self, mut f: impl FnMut(NodeId, NodeId, f32) -> f32) -> Graph {
        let mut g = self.clone();
        for u in 0..g.num_nodes() as NodeId {
            let lo = g.out_offsets[u as usize] as usize;
            let hi = g.out_offsets[u as usize + 1] as usize;
            for k in lo..hi {
                g.out_probs[k] = f(u, g.out_targets[k], g.out_probs[k]).clamp(0.0, 1.0);
            }
        }
        // Mirror into the reverse arrays through the shared edge ids.
        for k in 0..g.in_edge_ids.len() {
            g.in_probs[k] = g.out_probs[g.in_edge_ids[k] as usize];
        }
        g
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// Verifies that offsets are monotone, that the reverse adjacency is an
    /// exact mirror of the forward adjacency (same multiset of edges, same
    /// probabilities through shared edge ids) and that probabilities lie in
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        let m = self.num_edges();
        if self.out_offsets[0] != 0 || self.in_offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if *self.out_offsets.last().unwrap() as usize != m {
            return Err("out_offsets must end at m".into());
        }
        if *self.in_offsets.last().unwrap() as usize != m {
            return Err("in_offsets must end at m".into());
        }
        if self.out_offsets.windows(2).any(|w| w[0] > w[1])
            || self.in_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err("offsets must be monotone".into());
        }
        if self.out_probs.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("edge probability outside [0,1]".into());
        }
        // The reverse arrays must mirror forward edges exactly.
        let mut seen = vec![false; m];
        for v in 0..n as NodeId {
            for e in self.in_edges(v) {
                let k = e.id as usize;
                if k >= m {
                    return Err(format!("reverse edge id {k} out of range"));
                }
                if seen[k] {
                    return Err(format!("edge id {k} appears twice in reverse adjacency"));
                }
                seen[k] = true;
                if self.out_targets[k] != v {
                    return Err(format!(
                        "edge {k}: forward target disagrees with reverse slot"
                    ));
                }
                if (self.out_probs[k] - e.prob).abs() > 0.0 {
                    return Err(format!("edge {k}: probability mismatch between directions"));
                }
                let u = e.node;
                let lo = self.out_offsets[u as usize] as usize;
                let hi = self.out_offsets[u as usize + 1] as usize;
                if !(lo..hi).contains(&k) {
                    return Err(format!("edge {k}: reverse source {u} does not own it"));
                }
            }
        }
        if seen.iter().any(|s| !s) {
            return Err("some forward edge missing from reverse adjacency".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, ProbabilityModel};

    fn diamond() -> crate::Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build(ProbabilityModel::Constant(0.25))
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
        g.validate().unwrap();
    }

    #[test]
    fn forward_and_reverse_agree() {
        let g = diamond();
        let mut fwd: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let mut rev: Vec<(u32, u32)> = g
            .nodes()
            .flat_map(|v| g.in_edges(v).map(move |e| (e.node, v)))
            .collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn edge_ids_are_shared() {
        let g = diamond();
        for v in g.nodes() {
            for e in g.in_edges(v) {
                // the forward slot with the same id must point back at v
                assert_eq!(g.out_targets[e.id as usize], v);
                assert_eq!(g.out_probs[e.id as usize], e.prob);
            }
        }
    }

    #[test]
    fn in_edge_slices_mirror_in_edges() {
        let g = diamond();
        for v in g.nodes() {
            let (sources, probs) = g.in_edge_slices(v);
            let by_ref: Vec<(u32, f32)> = g.in_edges(v).map(|e| (e.node, e.prob)).collect();
            let by_slice: Vec<(u32, f32)> =
                sources.iter().copied().zip(probs.iter().copied()).collect();
            assert_eq!(by_slice, by_ref);
        }
    }

    #[test]
    fn with_probabilities_rewrites_both_directions() {
        let g = diamond().with_probabilities(|_, _, _| 0.75);
        assert!(g.out_probs.iter().all(|&p| p == 0.75));
        assert!(g.in_probs.iter().all(|&p| p == 0.75));
        g.validate().unwrap();
    }

    #[test]
    fn with_probabilities_clamps() {
        let g = diamond().with_probabilities(|_, _, _| 7.0);
        assert!(g.out_probs.iter().all(|&p| p == 1.0));
    }

    #[test]
    fn probability_mass() {
        let g = diamond();
        assert!((g.total_probability_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build(ProbabilityModel::Constant(0.5));
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(5).build(ProbabilityModel::WeightedCascade);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        for v in g.nodes() {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
        g.validate().unwrap();
    }
}
