//! Multi-threaded Monte-Carlo estimators.
//!
//! Every estimate averages over `samples` possible worlds. World `k` of a
//! run with base seed `s` is always the pair (edge world
//! `world_seed(s, k)`, noise world drawn from an RNG seeded by the same
//! value), so:
//!
//! * estimates are reproducible bit-for-bit regardless of the number of
//!   threads (worlds are sharded contiguously, not interleaved);
//! * marginal estimates (`ρ(S | SP)`) evaluate both allocations in the
//!   *same* worlds — common random numbers — which is both an unbiased
//!   estimator of the difference and dramatically lower-variance than
//!   independent runs.
//!
//! The paper runs 5000 simulations per marginal (§6.1.3); the sample count
//! here is a parameter of [`SimulationConfig`].

use crate::allocation::Allocation;
use crate::ic::IcContext;
use crate::uic::UicContext;
use crate::world::{world_seed, EdgeWorld};
use cwelmax_graph::{Graph, NodeId};
use cwelmax_utility::{ItemId, NoiseWorld, UtilityModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Monte-Carlo parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Number of possible worlds to average over (the paper uses 5000).
    pub samples: usize,
    /// Worker threads; 0 = one per available core.
    pub threads: usize,
    /// Base seed; all worlds derive deterministically from it.
    pub base_seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            samples: 5000,
            threads: 0,
            base_seed: 0x5EED,
        }
    }
}

impl SimulationConfig {
    /// Config with a given sample count (seed and threads defaulted).
    pub fn with_samples(samples: usize) -> SimulationConfig {
        SimulationConfig {
            samples,
            ..Default::default()
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Aggregated welfare estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WelfareReport {
    /// Estimated expected social welfare `ρ(S)`.
    pub welfare: f64,
    /// Expected number of adopters of each item.
    pub adoption_counts: Vec<f64>,
    /// Expected number of nodes adopting at least one item.
    pub total_adopters: f64,
    /// Expected number of informed (aware) nodes.
    pub informed: f64,
}

impl WelfareReport {
    /// Total expected adoptions summed over items (a node adopting two
    /// items counts twice, matching Table 6's per-item counting).
    pub fn total_adoptions(&self) -> f64 {
        self.adoption_counts.iter().sum()
    }
}

/// Monte-Carlo estimator bound to one graph and utility model.
pub struct WelfareEstimator<'a> {
    graph: &'a Graph,
    model: &'a UtilityModel,
    cfg: SimulationConfig,
}

impl<'a> WelfareEstimator<'a> {
    /// Bind an estimator.
    pub fn new(graph: &'a Graph, model: &'a UtilityModel, cfg: SimulationConfig) -> Self {
        WelfareEstimator { graph, model, cfg }
    }

    /// The simulation configuration.
    pub fn config(&self) -> SimulationConfig {
        self.cfg
    }

    /// The bound graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The bound utility model.
    pub fn model(&self) -> &UtilityModel {
        self.model
    }

    /// The noise world of sample `k` (shared by every estimate with the
    /// same base seed — part of the common-random-numbers coupling).
    pub fn noise_world_for(&self, k: u64) -> NoiseWorld {
        if self.model.has_noise() {
            let mut rng = SmallRng::seed_from_u64(world_seed(
                self.cfg.base_seed ^ 0x4e4f_4953_455f_5744, // "NOISE_WD"
                k,
            ));
            self.model.sample_noise_world(&mut rng)
        } else {
            self.model.noiseless_world()
        }
    }

    /// The edge world of sample `k`.
    pub fn edge_world_for(&self, k: u64) -> EdgeWorld {
        EdgeWorld::new(world_seed(self.cfg.base_seed, k))
    }

    /// Run world indices `0..samples` in fixed 64-world blocks. Each block
    /// is accumulated sequentially by one thread and the block sums are
    /// combined in block order, so the result is bit-for-bit identical for
    /// any thread count (float addition is non-associative; fixing the
    /// association fixes the result).
    fn run_sharded<C, F, G>(&self, width: usize, make_ctx: G, shard: F) -> Vec<f64>
    where
        C: Send,
        G: Fn() -> C + Sync,
        F: Fn(&mut C, Range<u64>, &mut [f64]) + Sync,
    {
        const BLOCK: u64 = 64;
        let samples = self.cfg.samples.max(1) as u64;
        let num_blocks = samples.div_ceil(BLOCK);
        let threads = (self.cfg.effective_threads() as u64).min(num_blocks).max(1);
        // thread t owns blocks t, t+T, t+2T, ... — each block is still
        // summed internally in world order
        let owned_by = |t: u64| {
            let mut ctx = make_ctx();
            let mut owned = Vec::new();
            let mut b = t;
            while b < num_blocks {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(samples);
                let mut acc = vec![0.0f64; width];
                shard(&mut ctx, lo..hi, &mut acc);
                owned.push(acc);
                b += threads;
            }
            owned
        };
        // one thread is the caller: a spawn per estimate would be paid by
        // every single-threaded (i.e. every served) welfare miss
        let block_sums: Vec<Vec<Vec<f64>>> = if threads == 1 {
            vec![owned_by(0)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| scope.spawn(move || owned_by(t)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
        };
        // reassemble in block order: block b lives at thread b % T, slot b / T
        let mut acc = vec![0.0f64; width];
        for b in 0..num_blocks {
            let part = &block_sums[(b % threads) as usize][(b / threads) as usize];
            for (a, x) in acc.iter_mut().zip(part) {
                *a += x;
            }
        }
        acc
    }

    /// Estimate `ρ(S)`.
    pub fn welfare(&self, alloc: &Allocation) -> f64 {
        self.welfare_report(alloc).welfare
    }

    /// Estimate welfare plus adoption statistics.
    pub fn welfare_report(&self, alloc: &Allocation) -> WelfareReport {
        let m = self.model.num_items();
        let width = 3 + m;
        let sums = self.run_sharded(
            width,
            || UicContext::new(self.graph.num_nodes(), m),
            |ctx, range, acc| {
                for k in range {
                    let nw = self.noise_world_for(k);
                    let o = ctx.run(self.graph, &nw, self.edge_world_for(k), alloc);
                    acc[0] += o.welfare;
                    acc[1] += o.adopters as f64;
                    acc[2] += o.informed as f64;
                    for (i, &c) in o.adoption_counts.iter().enumerate() {
                        acc[3 + i] += c as f64;
                    }
                }
            },
        );
        let s = self.cfg.samples.max(1) as f64;
        WelfareReport {
            welfare: sums[0] / s,
            total_adopters: sums[1] / s,
            informed: sums[2] / s,
            adoption_counts: sums[3..].iter().map(|&x| x / s).collect(),
        }
    }

    /// Estimate `ρ(S)` together with the standard error of the Monte-Carlo
    /// mean (`s / √n`), so reports can carry confidence intervals instead
    /// of bare point estimates.
    pub fn welfare_with_stderr(&self, alloc: &Allocation) -> (f64, f64) {
        let m = self.model.num_items();
        let sums = self.run_sharded(
            2,
            || UicContext::new(self.graph.num_nodes(), m),
            |ctx, range, acc| {
                for k in range {
                    let nw = self.noise_world_for(k);
                    let w = ctx
                        .run(self.graph, &nw, self.edge_world_for(k), alloc)
                        .welfare;
                    acc[0] += w;
                    acc[1] += w * w;
                }
            },
        );
        let n = self.cfg.samples.max(1) as f64;
        let mean = sums[0] / n;
        let var = ((sums[1] / n) - mean * mean).max(0.0);
        let stderr = if n > 1.0 {
            (var / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        (mean, stderr)
    }

    /// Estimate the marginal welfare `ρ(add | base) = ρ(add ∪ base) −
    /// ρ(base)` with common random numbers (both allocations simulated in
    /// identical worlds).
    pub fn marginal_welfare(&self, add: &Allocation, base: &Allocation) -> f64 {
        let m = self.model.num_items();
        let combined = base.union(add);
        let sums = self.run_sharded(
            1,
            || UicContext::new(self.graph.num_nodes(), m),
            |ctx, range, acc| {
                for k in range {
                    let nw = self.noise_world_for(k);
                    let ew = self.edge_world_for(k);
                    let with = ctx.run(self.graph, &nw, ew, &combined).welfare;
                    let without = ctx.run(self.graph, &nw, ew, base).welfare;
                    acc[0] += with - without;
                }
            },
        );
        sums[0] / self.cfg.samples.max(1) as f64
    }

    /// Estimate the IC spread `σ(seeds)`.
    pub fn spread(&self, seeds: &[NodeId]) -> f64 {
        let sums = self.run_sharded(
            1,
            || IcContext::new(self.graph.num_nodes()),
            |ctx, range, acc| {
                for k in range {
                    acc[0] += ctx.live_reach(self.graph, self.edge_world_for(k), seeds) as f64;
                }
            },
        );
        sums[0] / self.cfg.samples.max(1) as f64
    }

    /// Estimate the marginal IC spread `σ(seeds | base)`.
    pub fn marginal_spread(&self, seeds: &[NodeId], base: &[NodeId]) -> f64 {
        let sums = self.run_sharded(
            1,
            || IcContext::new(self.graph.num_nodes()),
            |ctx, range, acc| {
                for k in range {
                    acc[0] +=
                        ctx.marginal_live_reach(self.graph, self.edge_world_for(k), seeds, base)
                            as f64;
                }
            },
        );
        sums[0] / self.cfg.samples.max(1) as f64
    }

    /// Estimate the balanced-exposure objective of Balance-C (Garimella et
    /// al.): the expected number of nodes whose final desire set contains
    /// *both* of `items` or *neither*.
    pub fn balanced_exposure(&self, alloc: &Allocation, items: (ItemId, ItemId)) -> f64 {
        let m = self.model.num_items();
        let n_nodes = self.graph.num_nodes();
        let pair = cwelmax_utility::ItemSet::from_items([items.0, items.1]);
        let sums = self.run_sharded(
            1,
            || UicContext::new(n_nodes, m),
            |ctx, range, acc| {
                for k in range {
                    let nw = self.noise_world_for(k);
                    ctx.run(self.graph, &nw, self.edge_world_for(k), alloc);
                    let mut both = 0usize;
                    let mut seen_some = 0usize;
                    for &v in ctx.last_touched() {
                        let d = ctx.last_desire(v).intersect(pair);
                        if d == pair {
                            both += 1;
                            seen_some += 1;
                        } else if !d.is_empty() {
                            seen_some += 1;
                        }
                    }
                    acc[0] += (both + (n_nodes - seen_some)) as f64;
                }
            },
        );
        sums[0] / self.cfg.samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwelmax_graph::{generators, ProbabilityModel as PM};
    use cwelmax_utility::configs::{self, TwoItemConfig};

    fn cfg(samples: usize) -> SimulationConfig {
        SimulationConfig {
            samples,
            threads: 2,
            base_seed: 77,
        }
    }

    /// C1 utilities without noise, for deterministic assertions.
    fn c1_noiseless() -> cwelmax_utility::UtilityModel {
        cwelmax_utility::UtilityModel::new(
            cwelmax_utility::TableValue::from_table(2, vec![0.0, 4.0, 4.9, 4.9]),
            vec![3.0, 4.0],
            vec![cwelmax_utility::NoiseDist::None; 2],
        )
    }

    #[test]
    fn spread_on_deterministic_path() {
        let g = generators::path(4, PM::Constant(1.0));
        let m = configs::two_item_config(TwoItemConfig::C1);
        let est = WelfareEstimator::new(&g, &m, cfg(400));
        assert!((est.spread(&[0]) - 4.0).abs() < 1e-9);
        assert!((est.spread(&[2]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spread_on_random_edge() {
        let g = generators::path(2, PM::Constant(0.25));
        let m = configs::two_item_config(TwoItemConfig::C1);
        let est = WelfareEstimator::new(&g, &m, cfg(40_000));
        let s = est.spread(&[0]);
        assert!((s - 1.25).abs() < 0.02, "spread {s}");
    }

    #[test]
    fn reproducible_across_thread_counts() {
        let g = generators::erdos_renyi(200, 800, 3, PM::WeightedCascade);
        let m = configs::two_item_config(TwoItemConfig::C1);
        let alloc = Allocation::from_pairs([(0, 0), (5, 1), (10, 0)]);
        let r1 = WelfareEstimator::new(
            &g,
            &m,
            SimulationConfig {
                samples: 500,
                threads: 1,
                base_seed: 9,
            },
        )
        .welfare_report(&alloc);
        let r4 = WelfareEstimator::new(
            &g,
            &m,
            SimulationConfig {
                samples: 500,
                threads: 4,
                base_seed: 9,
            },
        )
        .welfare_report(&alloc);
        assert_eq!(r1, r4, "thread count must not change the estimate");
    }

    #[test]
    fn marginal_equals_difference_of_welfares() {
        let g = generators::erdos_renyi(100, 400, 5, PM::WeightedCascade);
        let m = configs::two_item_config(TwoItemConfig::C1);
        let base = Allocation::from_pairs([(1, 1)]);
        let add = Allocation::from_pairs([(2, 0)]);
        let est = WelfareEstimator::new(&g, &m, cfg(2000));
        let marginal = est.marginal_welfare(&add, &base);
        let direct = est.welfare(&add.union(&base)) - est.welfare(&base);
        // same worlds → identical up to float association, not merely close
        assert!(
            (marginal - direct).abs() < 1e-6,
            "marginal {marginal} vs direct {direct}"
        );
    }

    #[test]
    fn welfare_report_consistency() {
        let g = generators::path(3, PM::Constant(1.0));
        let m = c1_noiseless();
        let alloc = Allocation::from_pairs([(0, 0), (1, 1)]);
        let est = WelfareEstimator::new(&g, &m, cfg(50));
        let r = est.welfare_report(&alloc);
        // deterministic world: 0 adopts i, 1 and 2 adopt j (blocking)
        assert!((r.informed - 3.0).abs() < 1e-9);
        assert!((r.total_adopters - 3.0).abs() < 1e-9);
        assert_eq!(r.adoption_counts, vec![1.0, 2.0]);
        assert!((r.welfare - (1.0 + 0.9 + 0.9)).abs() < 1e-9);
        assert!((r.total_adoptions() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn marginal_spread_matches_difference() {
        let g = generators::erdos_renyi(150, 600, 8, PM::WeightedCascade);
        let m = configs::two_item_config(TwoItemConfig::C1);
        let est = WelfareEstimator::new(&g, &m, cfg(1000));
        let base = vec![3u32, 4];
        let seeds = vec![10u32];
        let marg = est.marginal_spread(&seeds, &base);
        let all: Vec<u32> = base.iter().chain(seeds.iter()).copied().collect();
        let direct = est.spread(&all) - est.spread(&base);
        assert!((marg - direct).abs() < 1e-6);
    }

    #[test]
    fn balanced_exposure_counts_both_or_none() {
        let g = generators::path(3, PM::Constant(1.0));
        let m = c1_noiseless();
        let est = WelfareEstimator::new(&g, &m, cfg(50));
        let only_i = Allocation::from_pairs([(0, 0)]);
        assert!((est.balanced_exposure(&only_i, (0, 1)) - 0.0).abs() < 1e-9);
        // seeding both on node 0: node 0 sees both, but under pure
        // competition it adopts only i, so downstream nodes see only i
        let both = Allocation::from_pairs([(0, 0), (0, 1)]);
        assert!((est.balanced_exposure(&both, (0, 1)) - 1.0).abs() < 1e-9);
        // seeding i upstream and j mid-path: node 1 sees both; node 1
        // adopts j (blocking), so node 2 sees only j; node 0 only i → 1
        let split = Allocation::from_pairs([(0, 0), (1, 1)]);
        assert!((est.balanced_exposure(&split, (0, 1)) - 1.0).abs() < 1e-9);
        // empty allocation: everyone sees neither → 3
        assert!((est.balanced_exposure(&Allocation::new(), (0, 1)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_welfare_close_to_truncated_expectation() {
        // single seeded node, no edges: welfare = E[max(0, U(i))]
        let g = generators::path(1, PM::Constant(1.0));
        let m = configs::two_item_config(TwoItemConfig::C1);
        let est = WelfareEstimator::new(&g, &m, cfg(60_000));
        let w = est.welfare(&Allocation::from_pairs([(0, 0)]));
        let expect = m.expected_truncated_item(0);
        assert!((w - expect).abs() < 0.02, "welfare {w} vs E[U+] {expect}");
    }

    #[test]
    fn stderr_shrinks_with_samples_and_mean_matches() {
        let g = generators::erdos_renyi(100, 400, 6, PM::WeightedCascade);
        let m = configs::two_item_config(TwoItemConfig::C1);
        let alloc = Allocation::from_pairs([(0, 0), (3, 1)]);
        let est_small = WelfareEstimator::new(&g, &m, cfg(200));
        let est_big = WelfareEstimator::new(&g, &m, cfg(5000));
        let (mean_s, se_s) = est_small.welfare_with_stderr(&alloc);
        let (mean_b, se_b) = est_big.welfare_with_stderr(&alloc);
        assert!(se_b < se_s, "stderr must shrink: {se_s} -> {se_b}");
        assert!(se_s > 0.0);
        // mean matches the plain estimator on the same worlds
        assert!((mean_b - est_big.welfare(&alloc)).abs() < 1e-9);
        // the two estimates agree within a few joint standard errors
        assert!(
            (mean_s - mean_b).abs() < 5.0 * (se_s + se_b),
            "{mean_s} vs {mean_b}"
        );
    }

    #[test]
    fn deterministic_world_has_zero_stderr() {
        let g = generators::path(4, PM::Constant(1.0));
        let m = c1_noiseless();
        let est = WelfareEstimator::new(&g, &m, cfg(100));
        let (_, se) = est.welfare_with_stderr(&Allocation::from_pairs([(0, 0)]));
        assert!(se < 1e-9, "stderr {se}");
    }

    #[test]
    fn single_item_uic_welfare_equals_spread() {
        // Proposition 1: one item with U = 1 and no noise → ρ(S) = σ(S)
        let g = generators::erdos_renyi(300, 1500, 4, PM::WeightedCascade);
        let m = cwelmax_utility::UtilityModel::new(
            cwelmax_utility::TableValue::from_table(1, vec![0.0, 1.0]),
            vec![0.0],
            vec![cwelmax_utility::NoiseDist::None],
        );
        let est = WelfareEstimator::new(&g, &m, cfg(2000));
        let seeds = vec![0u32, 7, 23];
        let alloc = Allocation::from_item_seeds(0, &seeds);
        let w = est.welfare(&alloc);
        let s = est.spread(&seeds);
        assert!((w - s).abs() < 1e-9, "welfare {w} vs spread {s}");
    }
}
