//! SeqGRD and SeqGRD-NM (Algorithm 1, §5.1).
//!
//! SeqGRD selects one pool of `b = Σ b_i` seeds with PRIMA+ (approximately
//! optimal marginal spread over `SP` at every budget prefix), then assigns
//! items to consecutive prefix blocks in decreasing order of expected
//! truncated utility `E[U⁺(i)]`. The full version performs a *marginal
//! check* before committing each block — if allocating item `i` to its
//! block would *decrease* welfare (item blocking, §6.3.2), the item is
//! postponed and appended at the end (the guarantee needs every budget
//! exhausted). SeqGRD-NM skips the check: same
//! `(umin/umax)(1 − 1/e − ε)`-approximation (Theorem 3's proof never uses
//! the check), orders of magnitude faster, but susceptible to blocking.

use crate::problem::Problem;
use crate::solution::{timed, CwelMaxAlgorithm, Solution};
use cwelmax_diffusion::{Allocation, WelfareOracle};
use cwelmax_rrset::prima::prima_plus;

/// Whether the marginal check (Algorithm 1, lines 8–12) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqGrdMode {
    /// Full SeqGRD: marginal check via Monte-Carlo simulation.
    Marginal,
    /// SeqGRD-NM: skip the check (no simulation at all).
    NoMarginal,
}

/// The SeqGRD solver.
#[derive(Debug, Clone, Copy)]
pub struct SeqGrd {
    mode: SeqGrdMode,
}

impl SeqGrd {
    /// Create a solver in the given mode.
    pub fn new(mode: SeqGrdMode) -> SeqGrd {
        SeqGrd { mode }
    }

    /// Convenience: the full (marginal-checking) variant.
    pub fn full() -> SeqGrd {
        SeqGrd::new(SeqGrdMode::Marginal)
    }

    /// Convenience: the no-marginal variant.
    pub fn nm() -> SeqGrd {
        SeqGrd::new(SeqGrdMode::NoMarginal)
    }

    /// Run only the item-assignment stage (Algorithm 1, lines 4–18)
    /// against a **borrowed, prebuilt** ordered seed pool — no sampling
    /// happens here. The pool must be prefix-preserving for this
    /// problem's budgets (PRIMA+ order, or an engine index selection);
    /// only the first `Σ b_i` seeds are consumed.
    pub fn solve_with_pool(&self, problem: &Problem, pool: &[cwelmax_graph::NodeId]) -> Solution {
        let (alloc, elapsed) = timed(|| self.assign_items(problem, pool, &problem.oracle()));
        debug_assert!(problem.check_feasible(&alloc).is_ok());
        Solution::new(self.name(), alloc, elapsed)
    }

    /// Algorithm 1, lines 4–18: give each free item (in decreasing
    /// `E[U⁺(i)]` order) the next block of the pool, with the optional
    /// marginal check postponing blocking items. Every welfare question
    /// goes to `oracle` — the problem's own for a cold solve, the serving
    /// engine's cached one for a query.
    pub fn assign_items(
        &self,
        problem: &Problem,
        pool: &[cwelmax_graph::NodeId],
        oracle: &dyn WelfareOracle,
    ) -> Allocation {
        let free = problem.free_items();
        if free.is_empty() {
            return Allocation::new();
        }
        let mut remaining: Vec<_> = pool.to_vec(); // ordered; consumed from the front

        // line 4: items in decreasing expected truncated utility
        let order = problem.model.items_by_truncated_utility(free);

        let mut alloc = Allocation::new();
        let mut postponed = Vec::new();

        for &item in &order {
            let bi = problem.budgets[item].min(remaining.len());
            let block: Vec<_> = remaining[..bi].to_vec();
            let candidate = Allocation::from_item_seeds(item, &block);
            let accept = match self.mode {
                SeqGrdMode::NoMarginal => true,
                SeqGrdMode::Marginal => {
                    // lines 8–12: keep only if the marginal welfare over
                    // the allocation committed so far (plus SP) is positive
                    let base = alloc.union(&problem.fixed);
                    oracle.marginal_welfare(&candidate, &base) > 0.0
                }
            };
            if accept {
                alloc = alloc.union(&candidate);
                remaining.drain(..bi);
            } else {
                postponed.push(item);
            }
        }
        // lines 14–18: exhaust the budget with the postponed items (the
        // approximation bound requires the full seed pool allocated)
        for item in postponed {
            let bi = problem.budgets[item].min(remaining.len());
            let block: Vec<_> = remaining.drain(..bi).collect();
            alloc = alloc.union(&Allocation::from_item_seeds(item, &block));
        }
        alloc
    }
}

impl CwelMaxAlgorithm for SeqGrd {
    fn name(&self) -> &str {
        match self.mode {
            SeqGrdMode::Marginal => "SeqGRD",
            SeqGrdMode::NoMarginal => "SeqGRD-NM",
        }
    }

    fn solve(&self, problem: &Problem) -> Solution {
        self.solve_asking(problem, &problem.oracle())
    }
}

impl SeqGrd {
    /// [`CwelMaxAlgorithm::solve`] asking `oracle`, so that `best_of`
    /// can put both of its arms and its comparison behind one.
    pub(crate) fn solve_asking(&self, problem: &Problem, oracle: &dyn WelfareOracle) -> Solution {
        let (alloc, elapsed) = timed(|| {
            let free = problem.free_items();
            if free.is_empty() {
                return Allocation::new();
            }
            let budgets: Vec<usize> = free.iter().map(|i| problem.budgets[i]).collect();
            let b_total: usize = budgets.iter().sum();
            let sp = problem.fixed.seed_nodes();

            // line 2: the prefix-preserving seed pool
            let pool = prima_plus(&problem.graph, &sp, &budgets, b_total, &problem.imm);
            self.assign_items(problem, &pool.seeds, oracle)
        });
        debug_assert!(problem.check_feasible(&alloc).is_ok());
        Solution::new(self.name(), alloc, elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwelmax_diffusion::SimulationConfig;
    use cwelmax_graph::{generators, GraphBuilder, ProbabilityModel as PM};
    use cwelmax_rrset::ImmParams;
    use cwelmax_utility::configs::{self, TwoItemConfig};

    fn fast_problem(graph: cwelmax_graph::Graph, model: cwelmax_utility::UtilityModel) -> Problem {
        Problem::new(graph, model)
            .with_sim(SimulationConfig {
                samples: 300,
                threads: 2,
                base_seed: 5,
            })
            .with_imm(ImmParams {
                eps: 0.5,
                ell: 1.0,
                seed: 11,
                threads: 2,
                max_rr_sets: 2_000_000,
            })
    }

    #[test]
    fn allocates_full_budgets() {
        let g = generators::erdos_renyi(300, 1500, 1, PM::WeightedCascade);
        let p = fast_problem(g, configs::two_item_config(TwoItemConfig::C1)).with_uniform_budget(5);
        for solver in [SeqGrd::full(), SeqGrd::nm()] {
            let s = solver.solve(&p);
            assert_eq!(s.allocation.seeds_of(0).len(), 5, "{}", solver.name());
            assert_eq!(s.allocation.seeds_of(1).len(), 5);
            p.check_feasible(&s.allocation).unwrap();
        }
    }

    #[test]
    fn highest_utility_item_gets_top_seeds() {
        // star: hub 0 dominates. Item 0 has higher E[U+] in C2, so SeqGRD-NM
        // must give the hub to item 0.
        let g = generators::star(100, PM::Constant(1.0));
        let p = fast_problem(g, configs::two_item_config(TwoItemConfig::C2)).with_uniform_budget(1);
        let s = SeqGrd::nm().solve(&p);
        assert_eq!(
            s.allocation.seeds_of(0),
            vec![0],
            "hub goes to the better item"
        );
    }

    #[test]
    fn nm_and_full_agree_without_blocking() {
        // pure competition on a sparse random graph with tiny budgets:
        // blocking is negligible, so the marginal check accepts everything
        // and both variants coincide
        let g = generators::erdos_renyi(200, 600, 3, PM::WeightedCascade);
        let p = fast_problem(g, configs::two_item_config(TwoItemConfig::C1)).with_uniform_budget(3);
        let a = SeqGrd::full().solve(&p);
        let b = SeqGrd::nm().solve(&p);
        assert_eq!(a.allocation, b.allocation);
    }

    #[test]
    fn marginal_check_postpones_blocking_item() {
        // Construct flagrant blocking: a hub chain where seeding the
        // low-utility item j *adjacent* to i's seed cuts off i's propagation.
        // Topology: 0 -> 1 -> 2 -> ... chain; item i utility 2.0, item j
        // utility 0.11, bundle negative (Table-4 style).
        let g = generators::path(30, PM::Constant(1.0));
        let model = configs::three_item_blocking();
        let p = Problem::new(g, model)
            .with_budgets(vec![1, 1, 0])
            .with_sim(SimulationConfig {
                samples: 200,
                threads: 2,
                base_seed: 5,
            })
            .with_imm(ImmParams {
                eps: 0.5,
                ell: 1.0,
                seed: 7,
                threads: 2,
                max_rr_sets: 500_000,
            });
        let nm = SeqGrd::nm().solve(&p);
        let full = SeqGrd::full().solve(&p);
        let w_nm = p.evaluate(&nm.allocation);
        let w_full = p.evaluate(&full.allocation);
        assert!(
            w_full >= w_nm - 1e-9,
            "marginal check must not hurt: full {w_full} vs nm {w_nm}"
        );
    }

    #[test]
    fn respects_fixed_allocation_items() {
        let g = generators::erdos_renyi(100, 400, 9, PM::WeightedCascade);
        let p = fast_problem(g, configs::two_item_config(TwoItemConfig::C1))
            .with_uniform_budget(3)
            .with_fixed_allocation(Allocation::from_pairs([(0, 1), (1, 1)]));
        let s = SeqGrd::nm().solve(&p);
        // item 1 is fixed: only item 0 may be allocated
        assert!(s.allocation.seeds_of(1).is_empty());
        assert_eq!(s.allocation.seeds_of(0).len(), 3);
        p.check_feasible(&s.allocation).unwrap();
    }

    #[test]
    fn avoids_sp_covered_region() {
        // two stars; SP (item 1) takes hub 0 → SeqGRD must seed item 0 at
        // the other hub
        let mut b = GraphBuilder::new(40);
        for v in 1..20u32 {
            b.add_edge(0, v);
        }
        for v in 21..40u32 {
            b.add_edge(20, v);
        }
        let g = b.build(PM::Constant(1.0));
        let p = fast_problem(g, configs::two_item_config(TwoItemConfig::C1))
            .with_budgets(vec![1, 0])
            .with_fixed_allocation(Allocation::from_pairs([(0, 1)]));
        let s = SeqGrd::nm().solve(&p);
        assert_eq!(s.allocation.seeds_of(0), vec![20]);
    }

    #[test]
    fn empty_free_items_yields_empty_allocation() {
        let g = generators::path(5, PM::Constant(1.0));
        let p = fast_problem(g, configs::two_item_config(TwoItemConfig::C1));
        let s = SeqGrd::full().solve(&p); // all budgets zero
        assert!(s.allocation.is_empty());
    }
}
