//! IMM (Tang, Shi & Xiao 2015) generalized to weighted RR sets, with the
//! Chen (2018) final-regeneration fix.
//!
//! The classic algorithm estimates spread as `n · F_R(S)`; with weighted RR
//! sets (Definition 2) the estimate becomes `n · M_R(S) / θ` for the
//! *welfare* objective (Lemma 6), whose maximum is `UB = n · w_max` instead
//! of `n`. All thresholds (`λ'`, `λ*` of Eqs. 6 and 8) scale by `w_max`
//! accordingly — substituting `w_max = 1` recovers IMM exactly.
//!
//! The pipeline (Algorithm 6):
//! 1. binary search `x = UB / 2^i` with `θ_i = λ' / x` samples until the
//!    greedy estimate certifies a lower bound `LB ≤ OPT` (Lemma 7);
//! 2. **regenerate** a fresh collection of `θ = λ* / LB` sets (the Chen fix:
//!    reusing the search-phase sets breaks the martingale analysis, and
//!    regeneration only doubles the sampling work);
//! 3. run greedy `NodeSelection` (Algorithm 5) on the fresh collection.

use crate::collection::RrCollection;
use crate::sampler::RrSampler;
use cwelmax_graph::{Graph, NodeId};

/// XOR applied to [`ImmParams::seed`] to derive the **regeneration
/// stream** seed of [`sampled_collection`]'s phase 2 (the ASCII bytes
/// `"_RESH"`): the fresh post-search collection — the one indexes are
/// frozen from — samples set `k` from `(seed ^ REGEN_SEED_XOR, k)`.
/// Exported so incremental growth (`cwelmax-store`'s θ top-up) can
/// *continue* exactly this stream from a resumed cursor and stay
/// bit-identical with a cold build at the same `(seed, total_count)`.
pub const REGEN_SEED_XOR: u64 = 0x005F_5245_5348;

/// Accuracy/confidence parameters shared by IMM, PRIMA+ and SupGRD.
#[derive(Debug, Clone, Copy)]
pub struct ImmParams {
    /// Accuracy `ε` of the `(1 − 1/e − ε)` guarantee. The paper defaults
    /// to 0.5 (§6.1.3).
    pub eps: f64,
    /// Confidence exponent `ℓ`: guarantees hold w.p. `1 − n^{−ℓ}`.
    pub ell: f64,
    /// RNG seed (sampling is deterministic given it).
    pub seed: u64,
    /// Sampling threads; 0 = one per core.
    pub threads: usize,
    /// Hard cap on the number of RR sets, as a safety valve for degenerate
    /// inputs (e.g. `OPT ≈ 0` forces `θ → λ*`); `usize::MAX` to disable.
    pub max_rr_sets: usize,
}

impl Default for ImmParams {
    fn default() -> Self {
        ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed: 0x1333,
            threads: 0,
            max_rr_sets: 20_000_000,
        }
    }
}

impl ImmParams {
    /// Params with a given `ε` (rest defaulted).
    pub fn with_eps(eps: f64) -> ImmParams {
        ImmParams {
            eps,
            ..Default::default()
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(1)
        }
    }
}

/// The output of an IMM-style selection.
#[derive(Debug, Clone)]
pub struct ImmResult {
    /// Selected seeds, in greedy pick order (prefixes are the greedy
    /// solutions for smaller budgets on the same collection).
    pub seeds: Vec<NodeId>,
    /// Objective estimate `n · M_R(prefix) / θ` after each pick.
    pub estimates: Vec<f64>,
    /// Number of RR sets in the final (regenerated) collection.
    pub theta: usize,
}

impl ImmResult {
    /// The estimate for the full seed set.
    pub fn estimate(&self) -> f64 {
        self.estimates.last().copied().unwrap_or(0.0)
    }
}

/// `ln C(n, k)` computed stably in `O(min(k, n−k))`.
pub fn ln_choose(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    let k = k.min(n - k);
    (1..=k)
        .map(|i| (((n - k + i) as f64) / i as f64).ln())
        .sum()
}

/// The `λ*` of Eq. 6, scaled by `w_max` for weighted collections.
fn lambda_star(n: usize, k: usize, eps: f64, ell: f64, wmax: f64) -> f64 {
    let n_f = n as f64;
    let ln_n = n_f.ln().max(1e-9);
    let alpha = (ell * ln_n + 2f64.ln()).sqrt();
    let e_term = 1.0 - 1.0 / std::f64::consts::E;
    let beta = (e_term * (ln_choose(n, k) + ell * ln_n + 2f64.ln())).sqrt();
    2.0 * n_f * (e_term * alpha + beta).powi(2) / (eps * eps) * wmax
}

/// The `λ'` of Eq. 8, scaled by `w_max`.
fn lambda_prime(n: usize, k: usize, eps_prime: f64, ell_prime: f64, wmax: f64) -> f64 {
    let n_f = n as f64;
    let ln_n = n_f.ln().max(1e-9);
    let log2n = n_f.log2().max(1.0);
    (2.0 + 2.0 / 3.0 * eps_prime) * (ln_choose(n, k) + ell_prime * ln_n + log2n.ln().max(0.0)) * n_f
        / (eps_prime * eps_prime)
        * wmax
}

/// Phase 1's one growing collection, with the greedy selection of its
/// current size.
///
/// Greedy on a fixed collection is nested — the first `k` picks of a
/// longer run are the run for `k`, and `coverage[k − 1]` the very float
/// it ends on — so one selection at the largest budget asked answers
/// every `(k, doubling step)` until the collection grows.
struct SearchPhase {
    collection: RrCollection,
    /// The largest budget any [`required_theta`] call will ask about.
    k_max: usize,
    /// `collection.greedy_select(k_max).coverage` as of `selected_at` sets.
    coverage: Vec<f64>,
    selected_at: usize,
}

impl SearchPhase {
    fn new(num_nodes: usize, k_max: usize) -> SearchPhase {
        SearchPhase {
            collection: RrCollection::new(num_nodes),
            k_max,
            coverage: Vec::new(),
            selected_at: usize::MAX, // no selection yet, whatever θ is
        }
    }

    /// The estimate of `collection.greedy_select(k)`, `1 ≤ k ≤ k_max`.
    fn estimate(&mut self, k: usize) -> f64 {
        if self.selected_at != self.collection.num_sampled() {
            self.coverage = self.collection.greedy_select(self.k_max).coverage;
            self.selected_at = self.collection.num_sampled();
        }
        self.collection.estimate(self.coverage[k - 1])
    }
}

/// The sampling phase for one budget `k`: grow `search`'s collection
/// until the greedy estimate certifies a lower bound on OPT, and return
/// `θ_k = λ*_k / LB_k` — the number of fresh sets the selection phase
/// needs for this budget. `ell_prime` already includes any union-bound
/// adjustment (PRIMA+ passes `ℓ' = ℓ + ln |⃗b| / ln n`).
fn required_theta(
    graph: &Graph,
    sampler: &(impl RrSampler + ?Sized),
    search: &mut SearchPhase,
    k: usize,
    params: &ImmParams,
    ell_prime: f64,
    threads: usize,
) -> usize {
    let n = graph.num_nodes();
    let wmax = sampler.max_weight();
    let ub = n as f64 * wmax;
    let eps_prime = params.eps * std::f64::consts::SQRT_2;
    let l_star = lambda_star(n, k, params.eps, ell_prime, wmax);
    let l_prime = lambda_prime(n, k, eps_prime, ell_prime, wmax);

    let mut lb = 1.0f64;
    // ub ≤ 2 (including the degenerate w_max = 0 of a worthless superior
    // item) leaves nothing to binary-search — skip straight to θ = λ*/1
    let max_i = if ub > 2.0 {
        ub.log2().floor() as i32 - 1
    } else {
        0
    };
    for i in 1..=max_i.max(0) {
        let x = ub / 2f64.powi(i);
        let theta_i = ((l_prime / x).ceil() as usize).min(params.max_rr_sets);
        let sampled = search.collection.num_sampled();
        if sampled < theta_i {
            search.collection.extend_parallel(
                graph,
                sampler,
                theta_i - sampled,
                params.seed,
                threads,
            );
        }
        let est = search.estimate(k);
        if est >= (1.0 + eps_prime) * x {
            lb = est / (1.0 + eps_prime);
            break;
        }
    }
    ((l_star / lb).ceil() as usize).clamp(1, params.max_rr_sets)
}

/// Run the full IMM pipeline for one budget `k`.
pub fn imm_select(
    graph: &Graph,
    sampler: &(impl RrSampler + ?Sized),
    k: usize,
    params: &ImmParams,
) -> ImmResult {
    select_multi_budget(graph, sampler, &[k], k, params)
}

/// The shared core of IMM and PRIMA+: determine the RR-set requirement for
/// *every* budget in `budgets` (union bound over budgets via
/// `ℓ' = ℓ + ln |budgets| / ln n`, matching Algorithm 4's
/// `ℓ' = log_n(n^ℓ · |⃗b|)`), regenerate a fresh collection of the maximum
/// requirement, and greedily select `b_total` ordered seeds — whose budget
/// prefixes are then simultaneously near-optimal (Definition 1).
pub fn select_multi_budget(
    graph: &Graph,
    sampler: &(impl RrSampler + ?Sized),
    budgets: &[usize],
    b_total: usize,
    params: &ImmParams,
) -> ImmResult {
    if graph.num_nodes() == 0 || b_total == 0 {
        return ImmResult {
            seeds: Vec::new(),
            estimates: Vec::new(),
            theta: 0,
        };
    }
    let all_budgets: Vec<usize> = budgets.iter().copied().chain([b_total]).collect();
    let fresh = sampled_collection(graph, sampler, &all_budgets, params);
    select_from_collection(&fresh, b_total)
}

/// Phases 1–2 of IMM for a set of budget prefixes: determine the RR-set
/// requirement θ for every budget (union-bounded), then return a **fresh**
/// regenerated collection of θ sets (the Chen fix). This is the expensive
/// artifact `cwelmax-engine` persists: a collection built once here can
/// serve any number of [`select_from_collection`] calls with budgets up to
/// `max(budgets)` under the same `(ε, ℓ)` guarantee.
pub fn sampled_collection(
    graph: &Graph,
    sampler: &(impl RrSampler + ?Sized),
    budgets: &[usize],
    params: &ImmParams,
) -> RrCollection {
    let n = graph.num_nodes();
    if n == 0 {
        return RrCollection::new(0);
    }
    let ln_n = (n as f64).ln().max(1e-9);
    let mut all_budgets: Vec<usize> = budgets.iter().copied().filter(|&b| b > 0).collect();
    all_budgets.sort_unstable();
    all_budgets.dedup();
    if all_budgets.is_empty() {
        return RrCollection::new(n);
    }
    // ℓ' = ℓ + log 2 / log n (IMM's halving of the failure probability)
    //        + log |⃗b| / log n (union bound over budget prefixes)
    let ell_prime = params.ell + 2f64.ln() / ln_n + (all_budgets.len() as f64).ln().max(0.0) / ln_n;

    let threads = params.effective_threads();

    // Phase 1: lower bounds / θ requirements, sharing one growing collection.
    let k_max = all_budgets[all_budgets.len() - 1].min(n);
    let mut search = SearchPhase::new(n, k_max);
    let mut theta_needed = 1usize;
    for &k in &all_budgets {
        let t = required_theta(
            graph,
            sampler,
            &mut search,
            k.min(n),
            params,
            ell_prime,
            threads,
        );
        theta_needed = theta_needed.max(t);
    }
    drop(search);

    // Phase 2 (Chen fix): fresh collection of θ sets.
    let mut fresh = RrCollection::new(n);
    fresh.extend_parallel(
        graph,
        sampler,
        theta_needed,
        params.seed ^ REGEN_SEED_XOR, // decorrelate from the search phase
        threads,
    );
    fresh
}

/// Phase 3 of IMM against a borrowed, prebuilt collection: ordered greedy
/// selection of `b_total` seeds plus per-prefix estimates. No sampling
/// happens here — callers holding a shared collection (or an engine index
/// materialized back into one) pay only the selection cost.
pub fn select_from_collection(collection: &RrCollection, b_total: usize) -> ImmResult {
    let n = collection.num_nodes();
    if n == 0 || b_total == 0 {
        return ImmResult {
            seeds: Vec::new(),
            estimates: Vec::new(),
            theta: 0,
        };
    }
    let sel = collection.greedy_select(b_total.min(n));
    let estimates = sel
        .coverage
        .iter()
        .map(|&c| collection.estimate(c))
        .collect();
    ImmResult {
        seeds: sel.seeds,
        estimates,
        theta: collection.num_sampled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{MarginalRr, StandardRr, WeightedRr};
    use cwelmax_graph::{generators, GraphBuilder, ProbabilityModel as PM};

    #[test]
    fn ln_choose_values() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 0) - 0.0).abs() < 1e-12);
        assert!((ln_choose(10, 10) - 0.0).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        // symmetric
        assert!((ln_choose(100, 3) - ln_choose(100, 97)).abs() < 1e-9);
    }

    #[test]
    fn imm_finds_the_hub_on_a_star() {
        // star: node 0 reaches everyone with p = 1 → the only sensible seed
        let g = generators::star(50, PM::Constant(1.0));
        let r = imm_select(&g, &StandardRr, 1, &ImmParams::with_eps(0.5));
        assert_eq!(r.seeds, vec![0]);
        assert!(
            (r.estimate() - 50.0).abs() < 2.0,
            "estimate {}",
            r.estimate()
        );
    }

    #[test]
    fn imm_on_two_stars_picks_both_hubs() {
        // two disjoint stars with hubs 0 and 25
        let mut b = GraphBuilder::new(50);
        for v in 1..25u32 {
            b.add_edge(0, v);
        }
        for v in 26..50u32 {
            b.add_edge(25, v);
        }
        let g = b.build(PM::Constant(1.0));
        let r = imm_select(&g, &StandardRr, 2, &ImmParams::with_eps(0.5));
        let mut seeds = r.seeds.clone();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![0, 25]);
    }

    #[test]
    fn imm_estimate_close_to_true_spread() {
        let g = generators::erdos_renyi(300, 1800, 5, PM::WeightedCascade);
        let params = ImmParams {
            eps: 0.3,
            ..Default::default()
        };
        let r = imm_select(&g, &StandardRr, 5, &params);
        assert_eq!(r.seeds.len(), 5);
        // cross-check the IMM estimate against direct Monte Carlo
        let model = cwelmax_utility::UtilityModel::new(
            cwelmax_utility::TableValue::from_table(1, vec![0.0, 1.0]),
            vec![0.0],
            vec![cwelmax_utility::NoiseDist::None],
        );
        let est = cwelmax_diffusion::WelfareEstimator::new(
            &g,
            &model,
            cwelmax_diffusion::SimulationConfig {
                samples: 5000,
                threads: 2,
                base_seed: 4,
            },
        );
        let mc = est.spread(&r.seeds);
        let rel = (r.estimate() - mc).abs() / mc;
        assert!(rel < 0.15, "IMM {} vs MC {} (rel {rel})", r.estimate(), mc);
    }

    #[test]
    fn marginal_sampler_redirects_selection() {
        // star hub 0 is already taken by SP → IMM over marginal RR sets
        // must NOT pick node 0 (its marginal is 0)
        let mut b = GraphBuilder::new(40);
        for v in 1..20u32 {
            b.add_edge(0, v);
        }
        for v in 21..40u32 {
            b.add_edge(20, v);
        }
        let g = b.build(PM::Constant(1.0));
        let sampler = MarginalRr::new(40, &[0]);
        let r = imm_select(&g, &sampler, 1, &ImmParams::with_eps(0.5));
        assert_eq!(r.seeds, vec![20], "must pick the uncovered hub");
    }

    #[test]
    fn weighted_sampler_scales_estimates() {
        // no SP: weighted RR sets with superior utility 3 → estimates are
        // 3 × the spread
        let g = generators::star(30, PM::Constant(1.0));
        let sampler = WeightedRr::new(30, 3.0, std::iter::empty());
        let r = imm_select(&g, &sampler, 1, &ImmParams::with_eps(0.5));
        assert_eq!(r.seeds, vec![0]);
        assert!(
            (r.estimate() - 90.0).abs() < 6.0,
            "estimate {}",
            r.estimate()
        );
    }

    #[test]
    fn multi_budget_prefixes_are_consistent() {
        let g = generators::erdos_renyi(200, 1000, 9, PM::WeightedCascade);
        let r = select_multi_budget(&g, &StandardRr, &[3, 7], 10, &ImmParams::with_eps(0.5));
        assert_eq!(r.seeds.len(), 10);
        assert_eq!(r.estimates.len(), 10);
        // estimates are monotone in the prefix length
        for w in r.estimates.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
        // no duplicate seeds
        let mut s = r.seeds.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::erdos_renyi(150, 700, 2, PM::WeightedCascade);
        let p = ImmParams {
            eps: 0.5,
            ell: 1.0,
            seed: 42,
            threads: 2,
            max_rr_sets: 1_000_000,
        };
        let r1 = imm_select(&g, &StandardRr, 4, &p);
        let r2 = imm_select(&g, &StandardRr, 4, &p);
        assert_eq!(r1.seeds, r2.seeds);
    }

    #[test]
    fn zero_weight_sampler_regression() {
        // a superior item with zero truncated utility gives UB = 0; this
        // must not underflow the binary-search bound (regression test)
        let g = generators::star(20, PM::Constant(1.0));
        let sampler = WeightedRr::new(20, 0.0, [(0u32, 0.0)]);
        let r = imm_select(&g, &sampler, 2, &ImmParams::with_eps(0.5));
        assert_eq!(r.seeds.len(), 2);
        assert_eq!(r.estimate(), 0.0);
    }

    /// `required_theta` as it stood before the selection was memoised,
    /// verbatim: one `greedy_select(k)` per doubling step per budget.
    fn required_theta_per_call(
        graph: &Graph,
        sampler: &(impl RrSampler + ?Sized),
        collection: &mut RrCollection,
        k: usize,
        params: &ImmParams,
        ell_prime: f64,
    ) -> usize {
        let n = graph.num_nodes();
        let wmax = sampler.max_weight();
        let ub = n as f64 * wmax;
        let eps_prime = params.eps * std::f64::consts::SQRT_2;
        let l_star = lambda_star(n, k, params.eps, ell_prime, wmax);
        let l_prime = lambda_prime(n, k, eps_prime, ell_prime, wmax);
        let threads = params.effective_threads();

        let mut lb = 1.0f64;
        let max_i = if ub > 2.0 {
            ub.log2().floor() as i32 - 1
        } else {
            0
        };
        for i in 1..=max_i.max(0) {
            let x = ub / 2f64.powi(i);
            let theta_i = ((l_prime / x).ceil() as usize).min(params.max_rr_sets);
            if collection.num_sampled() < theta_i {
                collection.extend_parallel(
                    graph,
                    sampler,
                    theta_i - collection.num_sampled(),
                    params.seed,
                    threads,
                );
            }
            let sel = collection.greedy_select(k);
            let est = collection.estimate(sel.total_coverage());
            if est >= (1.0 + eps_prime) * x {
                lb = est / (1.0 + eps_prime);
                break;
            }
        }
        ((l_star / lb).ceil() as usize).clamp(1, params.max_rr_sets)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// One selection at the largest budget per collection size
        /// certifies the same θ, budget by budget, as a selection per
        /// budget per step — on the same growing collection.
        #[test]
        fn memoised_selection_requires_the_same_theta_per_budget(
            seed in 0u64..10_000,
            n in 30usize..160,
            budgets in proptest::collection::vec(1usize..25, 1..6),
            weighted in proptest::any::<bool>(),
        ) {
            let g = generators::erdos_renyi(n, n * 5, seed, PM::WeightedCascade);
            let sampler: Box<dyn RrSampler> = if weighted {
                Box::new(WeightedRr::new(n, 2.5, [(1u32, 1.0), (9, 3.0), (20, 0.5)]))
            } else {
                Box::new(MarginalRr::new(n, &[2, 11]))
            };
            let params = ImmParams { seed, threads: 2, ..ImmParams::with_eps(0.5) };
            let mut budgets = budgets;
            budgets.sort_unstable();
            budgets.dedup();
            let ell_prime = 1.3;

            let mut search = SearchPhase::new(n, budgets[budgets.len() - 1].min(n));
            let mut per_call = RrCollection::new(n);
            for &k in &budgets {
                let k = k.min(n);
                let memoised =
                    required_theta(&g, sampler.as_ref(), &mut search, k, &params, ell_prime, 2);
                let oracle = required_theta_per_call(
                    &g, sampler.as_ref(), &mut per_call, k, &params, ell_prime,
                );
                proptest::prop_assert_eq!(memoised, oracle, "budget {}", k);
                proptest::prop_assert_eq!(search.collection.parts(), per_call.parts());
            }
        }
    }

    #[test]
    fn zero_budget_and_empty_graph() {
        let g = generators::path(5, PM::Constant(1.0));
        let r = imm_select(&g, &StandardRr, 0, &ImmParams::default());
        assert!(r.seeds.is_empty());
        let empty = generators::path(0, PM::Constant(1.0));
        let r2 = imm_select(&empty, &StandardRr, 3, &ImmParams::default());
        assert!(r2.seeds.is_empty());
    }
}
