//! Edge possible worlds `w1` as pure functions of a 64-bit seed.
//!
//! Instead of flipping edge coins during traversal (whose order depends on
//! the allocation being simulated), an [`EdgeWorld`] decides each edge's
//! liveness by hashing `(world_seed, edge_id)`. Properties:
//!
//! * **allocation-independence** — the same world seed yields the *same*
//!   live-edge graph no matter which seeds are being evaluated, which is
//!   exactly the coupling the possible-world equivalence of §3 requires and
//!   what makes common-random-number marginals unbiased *and* low-variance;
//! * **statelessness** — no per-edge memo arrays to clear between
//!   simulations, and threads can share a world by value;
//! * **determinism** — experiments replay bit-for-bit from the base seed.
//!
//! The hash is SplitMix64, whose output passes PractRand at this use scale;
//! each `(seed, edge)` pair yields an independent-looking uniform in `[0,1)`.

use cwelmax_graph::NodeId;

/// `2⁵³`: a coin is the top 53 bits of an edge's hash.
const COIN_RANGE: f64 = (1u64 << 53) as f64;

/// One sampled edge world.
#[derive(Debug, Clone, Copy)]
pub struct EdgeWorld {
    seed: u64,
}

impl EdgeWorld {
    /// The edge world identified by `seed`.
    #[inline]
    pub fn new(seed: u64) -> EdgeWorld {
        EdgeWorld { seed }
    }

    /// The coin of edge `edge_id`: an integer uniform on `0..2⁵³`.
    #[inline]
    fn coin(&self, edge_id: u32) -> u64 {
        splitmix64(self.seed ^ (edge_id as u64).wrapping_mul(0xa076_1d64_78bd_642f)) >> 11
    }

    /// Is edge `edge_id` (with probability `prob`) live in this world?
    /// The scalar definition of liveness; [`EdgeWorld::gather_live`]
    /// decides the same predicate for a node's whole out-neighbourhood.
    #[inline]
    pub fn is_live(&self, edge_id: u32, prob: f32) -> bool {
        if prob >= 1.0 {
            return true;
        }
        if prob <= 0.0 {
            return false;
        }
        // map to [0,1): the top 53 bits make an unbiased double
        let u = self.coin(edge_id) as f64 * (1.0 / COIN_RANGE);
        u < prob as f64
    }

    /// The targets of the live edges among the consecutive edges
    /// `first_edge..` (the shape of `Graph::out_edge_slices`), in edge
    /// order, gathered into the front of `scratch` (which only ever
    /// grows, so a traversal allocates for its widest node once). The
    /// one place a traversal flips coins.
    ///
    /// Liveness here is `coin < p·2⁵³`, which is [`EdgeWorld::is_live`]
    /// without its branches: scaling by a power of two is exact, so
    /// `coin·2⁻⁵³ < p` and `coin < p·2⁵³` are one comparison; a coin is
    /// below `2⁵³`, so `p ≥ 1` is always live; it is at least `0`, so
    /// `p ≤ 0` never is; and a comparison with NaN is false both ways.
    /// Every edge writes its target and the length advances by the
    /// comparison's result, so there is no per-edge branch to mispredict
    /// (three quarters of scanned edges are dead on the benchmark graph).
    #[inline]
    pub fn gather_live<'a>(
        &self,
        first_edge: u32,
        targets: &[NodeId],
        probs: &[f32],
        scratch: &'a mut Vec<NodeId>,
    ) -> &'a [NodeId] {
        if scratch.len() < targets.len() {
            scratch.resize(targets.len(), 0);
        }
        let mut len = 0;
        for (k, (&target, &prob)) in targets.iter().zip(probs).enumerate() {
            scratch[len] = target;
            let coin = self.coin(first_edge.wrapping_add(k as u32));
            len += usize::from((coin as f64) < prob as f64 * COIN_RANGE);
        }
        &scratch[..len]
    }

    /// The underlying seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// SplitMix64 finalizer.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive the world seed for sample `k` of a run with base seed `base`.
/// Distinct samples get decorrelated seeds.
#[inline]
pub fn world_seed(base: u64, k: u64) -> u64 {
    splitmix64(base.wrapping_add(k.wrapping_mul(0x2545_f491_4f6c_dd1d)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_world() {
        let w = EdgeWorld::new(42);
        for e in 0..100 {
            assert_eq!(w.is_live(e, 0.5), w.is_live(e, 0.5));
        }
    }

    #[test]
    fn extreme_probabilities() {
        let w = EdgeWorld::new(7);
        for e in 0..100 {
            assert!(w.is_live(e, 1.0));
            assert!(!w.is_live(e, 0.0));
        }
    }

    #[test]
    fn gather_is_filter_is_live() {
        let probs = [
            0.0,
            1.0,
            1.5,
            -0.1,
            f32::NAN,
            f32::MIN_POSITIVE,
            1.0 - f32::EPSILON,
            0.25,
            1.0 / 3.0,
        ];
        let targets: Vec<NodeId> = (0..10_000).map(|e| e ^ 0x5a5a).collect();
        let mut scratch = vec![7; 3]; // stale content must not show
        for s in 0..100 {
            let w = EdgeWorld::new(world_seed(13, s));
            for &p in &probs {
                // a window that does not start at edge 0 on odd seeds
                let first = (s as usize % 2) * 137;
                let got = w.gather_live(
                    first as u32,
                    &targets[first..],
                    &vec![p; targets.len() - first],
                    &mut scratch,
                );
                let want: Vec<NodeId> = (first..targets.len())
                    .filter(|&e| w.is_live(e as u32, p))
                    .map(|e| targets[e])
                    .collect();
                assert_eq!(got, want, "p = {p}, world {s}");
            }
            // and with every probability in one neighbourhood
            let mixed: Vec<f32> = (0..targets.len()).map(|e| probs[e % 9]).collect();
            let got = w.gather_live(0, &targets, &mixed, &mut scratch);
            let want: Vec<NodeId> = (0..targets.len())
                .filter(|&e| w.is_live(e as u32, mixed[e]))
                .map(|e| targets[e])
                .collect();
            assert_eq!(got, want, "mixed, world {s}");
        }
    }

    #[test]
    fn liveness_frequency_matches_probability() {
        // across many worlds, a p=0.3 edge should be live ~30% of the time
        let trials = 200_000;
        for &p in &[0.1f32, 0.3, 0.7] {
            let live = (0..trials)
                .filter(|&s| EdgeWorld::new(world_seed(99, s)).is_live(17, p))
                .count();
            let freq = live as f64 / trials as f64;
            assert!((freq - p as f64).abs() < 0.005, "p={p}: observed {freq}");
        }
    }

    #[test]
    fn edges_are_decorrelated() {
        // two different edges in the same world should agree ~p² + (1-p)²
        // of the time for p = 0.5, i.e. about half
        let trials = 100_000;
        let mut agree = 0;
        for s in 0..trials {
            let w = EdgeWorld::new(world_seed(5, s));
            if w.is_live(3, 0.5) == w.is_live(4, 0.5) {
                agree += 1;
            }
        }
        let frac = agree as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.01, "agreement {frac}");
    }

    #[test]
    fn worlds_are_decorrelated() {
        // the same edge across consecutive worlds should look iid
        let trials = 100_000;
        let mut live_then_live = 0;
        let mut live = 0;
        for s in 0..trials {
            let a = EdgeWorld::new(world_seed(1, s)).is_live(9, 0.5);
            let b = EdgeWorld::new(world_seed(1, s + 1)).is_live(9, 0.5);
            if a {
                live += 1;
                if b {
                    live_then_live += 1;
                }
            }
        }
        let cond = live_then_live as f64 / live as f64;
        assert!((cond - 0.5).abs() < 0.02, "P(live|prev live) = {cond}");
    }

    #[test]
    fn monotone_in_probability() {
        // if an edge is live at prob p it must be live at any p' > p
        // (the hash-to-uniform comparison guarantees this coupling)
        for s in 0..1000u64 {
            let w = EdgeWorld::new(world_seed(3, s));
            let mut prev = w.is_live(11, 0.0);
            for step in 1..=10 {
                let cur = w.is_live(11, step as f32 / 10.0);
                assert!(cur || !prev, "liveness must be monotone in p");
                prev = cur;
            }
        }
    }
}
