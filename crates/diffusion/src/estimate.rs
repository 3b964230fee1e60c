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
use std::cell::{Cell, RefCell};
use std::rc::Rc;

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

/// Worlds per block of the estimator's float association: an estimate
/// is `Σ_blocks (Σ_{k ∈ block} x_k)`, blocks of 64 consecutive worlds,
/// both sums left to right. Every estimate has been pinned to that
/// association since blocks were what threads owned; it is kept now that
/// they own nothing, because changing it changes the low bits of every
/// welfare ever served.
const BLOCK: usize = 64;

/// Sum one value per world, in world order, in the block association.
fn block_sum(per_world: impl IntoIterator<Item = f64>) -> f64 {
    let mut total = 0.0;
    let mut block = 0.0;
    let mut filled = 0;
    for x in per_world {
        block += x;
        filled += 1;
        if filled == BLOCK {
            total += block;
            block = 0.0;
            filled = 0;
        }
    }
    if filled > 0 {
        total += block;
    }
    total
}

/// Monte-Carlo estimator bound to one graph and utility model.
#[derive(Clone, Copy)]
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

    /// Worlds per estimate.
    fn samples(&self) -> usize {
        self.cfg.samples.max(1)
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

    /// Run worlds `0..samples`, `world(ctx, k, row)` writing world `k`'s
    /// `width` values, and return the rows in world order. Threads take
    /// contiguous runs of worlds, and nothing is summed here: the folds
    /// over the rows fix the association, so an estimate is bit-for-bit
    /// the same at any thread count.
    fn run_worlds<C, G, F>(&self, width: usize, make_ctx: G, world: F) -> Vec<f64>
    where
        G: Fn() -> C + Sync,
        F: Fn(&mut C, u64, &mut [f64]) + Sync,
    {
        let samples = self.samples();
        let mut rows = vec![0.0f64; samples * width];
        let threads = self
            .cfg
            .effective_threads()
            .clamp(1, samples.div_ceil(BLOCK));
        let share = samples.div_ceil(threads);
        let run_share = |t: usize, rows: &mut [f64]| {
            let mut ctx = make_ctx();
            for (i, row) in rows.chunks_mut(width).enumerate() {
                world(&mut ctx, (t * share + i) as u64, row);
            }
        };
        // the caller is one of the threads: a spawn per estimate would be
        // paid by every single-threaded (i.e. every served) welfare miss
        std::thread::scope(|scope| {
            let mut shares = rows.chunks_mut(share * width).enumerate();
            let own = shares.next();
            for (t, rows) in shares {
                let run_share = &run_share;
                scope.spawn(move || run_share(t, rows));
            }
            if let Some((t, rows)) = own {
                run_share(t, rows);
            }
        });
        rows
    }

    /// Column `j` of `rows`, summed in the block association and divided
    /// by the sample count.
    fn column_mean(&self, rows: &[f64], width: usize, j: usize) -> f64 {
        block_sum(rows.iter().skip(j).step_by(width).copied()) / self.samples() as f64
    }

    /// The world record of `alloc`: `record[k] = ρ_{w_k}(alloc)`, its
    /// welfare in each of this estimator's worlds. The one expensive
    /// thing an estimate is made of — [`Self::welfare`] and
    /// [`Self::marginal_welfare`] are folds over records, and
    /// [`WorldRecords`] keeps them so that no allocation is simulated
    /// twice. Nothing propagates from no seeds, so the empty allocation's
    /// record is all `+0.0` without a pass (what the fixpoint returns for
    /// it, bit for bit).
    pub fn world_welfares(&self, alloc: &Allocation) -> Vec<f64> {
        if alloc.is_empty() {
            return vec![0.0; self.samples()];
        }
        let m = self.model.num_items();
        let seeds = alloc.desire_by_node();
        self.run_worlds(
            1,
            || UicContext::new(self.graph.num_nodes(), m),
            |ctx, k, row| {
                let nw = self.noise_world_for(k);
                row[0] = ctx
                    .run(self.graph, &nw, self.edge_world_for(k), &seeds)
                    .welfare;
            },
        )
    }

    /// `ρ` from a record.
    fn record_welfare(&self, record: &[f64]) -> f64 {
        self.column_mean(record, 1, 0)
    }

    /// `ρ(with) − ρ(without)` from their records: differences taken world
    /// by world (common random numbers), then summed.
    fn record_marginal(&self, with: &[f64], without: &[f64]) -> f64 {
        block_sum(with.iter().zip(without).map(|(w, wo)| w - wo)) / self.samples() as f64
    }

    /// Estimate `ρ(S)`.
    pub fn welfare(&self, alloc: &Allocation) -> f64 {
        self.record_welfare(&self.world_welfares(alloc))
    }

    /// Estimate welfare plus adoption statistics.
    pub fn welfare_report(&self, alloc: &Allocation) -> WelfareReport {
        let m = self.model.num_items();
        let width = 3 + m;
        let seeds = alloc.desire_by_node();
        let rows = self.run_worlds(
            width,
            || UicContext::new(self.graph.num_nodes(), m),
            |ctx, k, row| {
                let nw = self.noise_world_for(k);
                let o = ctx.run(self.graph, &nw, self.edge_world_for(k), &seeds);
                row[0] = o.welfare;
                row[1] = o.adopters as f64;
                row[2] = o.informed as f64;
                for (cell, &c) in row[3..].iter_mut().zip(&o.adoption_counts) {
                    *cell = c as f64;
                }
            },
        );
        WelfareReport {
            welfare: self.column_mean(&rows, width, 0),
            total_adopters: self.column_mean(&rows, width, 1),
            informed: self.column_mean(&rows, width, 2),
            adoption_counts: (3..width)
                .map(|j| self.column_mean(&rows, width, j))
                .collect(),
        }
    }

    /// Estimate `ρ(S)` together with the standard error of the Monte-Carlo
    /// mean (`s / √n`), so reports can carry confidence intervals instead
    /// of bare point estimates.
    pub fn welfare_with_stderr(&self, alloc: &Allocation) -> (f64, f64) {
        let record = self.world_welfares(alloc);
        let n = self.samples() as f64;
        let mean = self.record_welfare(&record);
        let mean_sq = block_sum(record.iter().map(|w| w * w)) / n;
        let var = (mean_sq - mean * mean).max(0.0);
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
        let with = self.world_welfares(&base.union(add));
        self.record_marginal(&with, &self.world_welfares(base))
    }

    /// Estimate the IC spread `σ(seeds)`.
    pub fn spread(&self, seeds: &[NodeId]) -> f64 {
        let rows = self.run_worlds(
            1,
            || IcContext::new(self.graph.num_nodes()),
            |ctx, k, row| {
                row[0] = ctx.live_reach(self.graph, self.edge_world_for(k), seeds) as f64;
            },
        );
        self.column_mean(&rows, 1, 0)
    }

    /// Estimate the marginal IC spread `σ(seeds | base)`.
    pub fn marginal_spread(&self, seeds: &[NodeId], base: &[NodeId]) -> f64 {
        let rows = self.run_worlds(
            1,
            || IcContext::new(self.graph.num_nodes()),
            |ctx, k, row| {
                row[0] =
                    ctx.marginal_live_reach(self.graph, self.edge_world_for(k), seeds, base) as f64;
            },
        );
        self.column_mean(&rows, 1, 0)
    }

    /// Estimate the balanced-exposure objective of Balance-C (Garimella et
    /// al.): the expected number of nodes whose final desire set contains
    /// *both* of `items` or *neither*.
    pub fn balanced_exposure(&self, alloc: &Allocation, items: (ItemId, ItemId)) -> f64 {
        let m = self.model.num_items();
        let n_nodes = self.graph.num_nodes();
        let pair = cwelmax_utility::ItemSet::from_items([items.0, items.1]);
        let seeds = alloc.desire_by_node();
        let rows = self.run_worlds(
            1,
            || UicContext::new(n_nodes, m),
            |ctx, k, row| {
                let nw = self.noise_world_for(k);
                ctx.run(self.graph, &nw, self.edge_world_for(k), &seeds);
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
                row[0] = (both + (n_nodes - seen_some)) as f64;
            },
        );
        self.column_mean(&rows, 1, 0)
    }
}

/// One allocation's welfare in each of an estimator's worlds, shared
/// between the memo that keeps it and the folds that read it.
type WorldRecord = Rc<[f64]>;

/// A kept record under its allocation's sorted pair list.
type KeptRecord = (Vec<(NodeId, ItemId)>, WorldRecord);

/// What a solver asks about welfare. A solver's assignment body takes
/// one of these, so whoever calls it decides what stands between a
/// question and a simulation: [`WorldRecords`] alone for a cold solve,
/// the serving engine's cross-query cache in front of it for a served
/// one.
pub trait WelfareOracle {
    /// `ρ(alloc)`.
    fn welfare(&self, alloc: &Allocation) -> f64;

    /// `ρ(add | base) = ρ(add ∪ base) − ρ(base)` in identical worlds.
    fn marginal_welfare(&self, add: &Allocation, base: &Allocation) -> f64;
}

/// The world records of one solve: each allocation a solver or its
/// caller asks about is simulated once, and every later question about
/// it — SeqGRD's next base is its last accepted candidate, MaxGRD's
/// answer is one of its candidates, best-of evaluates both arms, the
/// caller evaluates the result — is a fold over the kept record. Keyed
/// by the *sorted* pair list: an allocation is a set, however it was
/// assembled. Scoped to one solve because a record is only worth its
/// 8 bytes per world while the questions that share it are being asked;
/// across queries the engine keeps the folded scalars instead.
pub struct WorldRecords<'a> {
    estimator: WelfareEstimator<'a>,
    /// A handful per solve, so a scan.
    records: RefCell<Vec<KeptRecord>>,
    simulated: Cell<u64>,
    hits: Cell<u64>,
}

impl<'a> WorldRecords<'a> {
    /// An empty memo over `estimator`'s worlds.
    pub fn new(estimator: WelfareEstimator<'a>) -> Self {
        WorldRecords {
            estimator,
            records: RefCell::default(),
            simulated: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// The simulation configuration the records are made under.
    pub fn config(&self) -> SimulationConfig {
        self.estimator.cfg
    }

    /// Worlds simulated so far — the unit of work of a cache miss.
    pub fn worlds_simulated(&self) -> u64 {
        self.simulated.get()
    }

    /// Records asked for again after they were made.
    pub fn record_hits(&self) -> u64 {
        self.hits.get()
    }

    fn record(&self, alloc: &Allocation) -> WorldRecord {
        let key = alloc.sorted_pairs();
        if let Some((_, kept)) = self.records.borrow().iter().find(|(k, _)| *k == key) {
            self.hits.set(self.hits.get() + 1);
            return Rc::clone(kept);
        }
        let made: WorldRecord = self.estimator.world_welfares(alloc).into();
        if !alloc.is_empty() {
            self.simulated.set(self.simulated.get() + made.len() as u64);
        }
        self.records.borrow_mut().push((key, Rc::clone(&made)));
        made
    }
}

impl WelfareOracle for WorldRecords<'_> {
    fn welfare(&self, alloc: &Allocation) -> f64 {
        self.estimator.record_welfare(&self.record(alloc))
    }

    fn marginal_welfare(&self, add: &Allocation, base: &Allocation) -> f64 {
        let with = self.record(&base.union(add));
        self.estimator.record_marginal(&with, &self.record(base))
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
        let base = Allocation::from_pairs([(0, 0), (10, 0)]);
        let add = Allocation::from_pairs([(5, 1)]);
        let alloc = base.union(&add);
        let at = |threads| {
            let est = WelfareEstimator::new(
                &g,
                &m,
                SimulationConfig {
                    samples: 500,
                    threads,
                    base_seed: 9,
                },
            );
            let report = est.welfare_report(&alloc);
            let marginal = est.marginal_welfare(&add, &base);
            let (with, without) = (est.world_welfares(&alloc), est.world_welfares(&base));
            // every scalar is a fold over records, whoever folds
            assert_eq!(est.welfare(&alloc).to_bits(), report.welfare.to_bits());
            assert_eq!(
                marginal.to_bits(),
                est.record_marginal(&with, &without).to_bits()
            );
            // however the union was assembled, and with the base's record
            // asked for twice
            let records = WorldRecords::new(est);
            assert_eq!(
                records.welfare(&add.union(&base)).to_bits(),
                report.welfare.to_bits()
            );
            assert_eq!(
                records.marginal_welfare(&add, &base).to_bits(),
                marginal.to_bits()
            );
            assert_eq!(records.welfare(&base), est.welfare(&base));
            assert_eq!(
                (records.worlds_simulated(), records.record_hits()),
                (1000, 2)
            );
            (report, marginal.to_bits(), with)
        };
        let one = at(1);
        assert_eq!(one, at(2), "thread count must not change an estimate");
        assert_eq!(one, at(4), "thread count must not change an estimate");
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
