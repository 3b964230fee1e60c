//! The RR-set sampler as it stood before it stopped allocating, kept
//! verbatim as the oracle the stamp-array sampler is tested against: a
//! fresh `vec![root]` and a 16-slot open-addressing `SmallVisited` table
//! per set, one [`EdgeRef`](cwelmax_graph::EdgeRef) per in-edge. The
//! three `sample` bodies are the old trait methods with their private
//! fields (`in_sp`, `sp_item_utility`) rebuilt by [`in_sp`] and
//! [`sp_item_utility`] the way the constructors build them. Its only
//! dependencies are `Graph::in_edges` and the `SmallRng` stream, neither
//! of which the new edge loop goes through the same way.
//!
//! Also here: the `max_by` expression `greedy_argmax` was before it
//! became one pass over an integer key.

use cwelmax_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Shared reverse-BFS engine. Returns the visited set; stops early when
/// `stop_at` yields true for a newly added node (the node is still
/// included).
fn reverse_bfs(
    graph: &Graph,
    root: NodeId,
    rng: &mut SmallRng,
    mut stop_at: impl FnMut(NodeId) -> bool,
) -> Vec<NodeId> {
    let mut set = vec![root];
    if stop_at(root) {
        return set;
    }
    let mut visited = SmallVisited::new();
    visited.insert(root);
    let mut head = 0;
    while head < set.len() {
        let u = set[head];
        head += 1;
        for e in graph.in_edges(u) {
            if visited.contains(e.node) {
                continue;
            }
            if rng.gen::<f32>() < e.prob {
                visited.insert(e.node);
                set.push(e.node);
                if stop_at(e.node) {
                    return set;
                }
            }
        }
    }
    set
}

/// A tiny hash-set specialized for RR sets, which are usually small: open
/// addressing over a power-of-two table grown on demand.
struct SmallVisited {
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl SmallVisited {
    fn new() -> SmallVisited {
        SmallVisited {
            table: vec![EMPTY_SLOT; 16],
            mask: 15,
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, v: u32) -> usize {
        // fibonacci hashing
        ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    fn contains(&self, v: u32) -> bool {
        let mut s = self.slot(v);
        loop {
            match self.table[s] {
                x if x == v => return true,
                EMPTY_SLOT => return false,
                _ => s = (s + 1) & self.mask,
            }
        }
    }

    fn insert(&mut self, v: u32) {
        if self.len * 4 >= self.table.len() * 3 {
            self.grow();
        }
        let mut s = self.slot(v);
        loop {
            match self.table[s] {
                x if x == v => return,
                EMPTY_SLOT => {
                    self.table[s] = v;
                    self.len += 1;
                    return;
                }
                _ => s = (s + 1) & self.mask,
            }
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.table, vec![EMPTY_SLOT; (self.mask + 1) * 2]);
        self.mask = self.table.len() - 1;
        self.len = 0;
        for v in old {
            if v != EMPTY_SLOT {
                self.insert(v);
            }
        }
    }
}

/// `StandardRr::sample`.
pub fn standard(graph: &Graph, rng: &mut SmallRng) -> (Vec<NodeId>, f64) {
    let n = graph.num_nodes();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let root = rng.gen_range(0..n as u32);
    (reverse_bfs(graph, root, rng, |_| false), 1.0)
}

/// `MarginalRr::new`'s membership vector.
pub fn in_sp(num_nodes: usize, sp: &[NodeId]) -> Vec<bool> {
    let mut in_sp = vec![false; num_nodes];
    for &v in sp {
        in_sp[v as usize] = true;
    }
    in_sp
}

/// `MarginalRr::sample`.
pub fn marginal(graph: &Graph, in_sp: &[bool], rng: &mut SmallRng) -> (Vec<NodeId>, f64) {
    let n = graph.num_nodes();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let root = rng.gen_range(0..n as u32);
    let mut hit = false;
    let set = reverse_bfs(graph, root, rng, |v| {
        if in_sp[v as usize] {
            hit = true;
            true // stop immediately; the set will be discarded anyway
        } else {
            false
        }
    });
    if hit {
        (Vec::new(), 0.0)
    } else {
        (set, 1.0)
    }
}

/// `WeightedRr::new`'s per-node best SP item utility.
pub fn sp_item_utility(num_nodes: usize, sp_alloc: &[(NodeId, f64)]) -> Vec<f64> {
    let mut sp_item_utility = vec![f64::NEG_INFINITY; num_nodes];
    for &(v, u) in sp_alloc {
        let slot = &mut sp_item_utility[v as usize];
        *slot = slot.max(u);
    }
    sp_item_utility
}

/// `WeightedRr::sample`.
pub fn weighted(
    graph: &Graph,
    superior_utility: f64,
    sp_item_utility: &[f64],
    rng: &mut SmallRng,
) -> (Vec<NodeId>, f64) {
    let n = graph.num_nodes();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let root = rng.gen_range(0..n as u32);
    let mut best_sp = f64::NEG_INFINITY;
    let set = reverse_bfs(graph, root, rng, |v| {
        let u = sp_item_utility[v as usize];
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
    let w = (superior_utility - displaced).max(0.0);
    (set, w)
}

/// `greedy_argmax` as a comparator chain: the maximum under
/// `total_cmp`, ties toward the smaller index.
pub fn greedy_argmax(gain: &[f64]) -> Option<(usize, f64)> {
    gain.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(v, &g)| (v, g))
}
