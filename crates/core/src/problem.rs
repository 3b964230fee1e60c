//! The CWelMax problem instance (Problem 1 of the paper).

use cwelmax_diffusion::{
    Allocation, SimulationConfig, WelfareEstimator, WelfareReport, WorldRecords,
};
use cwelmax_graph::Graph;
use cwelmax_rrset::ImmParams;
use cwelmax_utility::{ItemId, ItemSet, UtilityModel};
use std::sync::Arc;

/// One CWelMax instance: `⟨G, Param⟩`, per-item budgets `⃗b`, the fixed
/// prior allocation `SP` (possibly empty — the "fresh campaigns" special
/// case), and the accuracy knobs shared by all solvers.
#[derive(Clone)]
pub struct Problem {
    /// The social network `G = (V, E, p)`. Held behind `Arc` so serving
    /// layers (`cwelmax-engine`) can mint per-campaign problems against one
    /// shared graph without deep-copying the CSR; deref coercion keeps
    /// every `&problem.graph` call site unchanged.
    pub graph: Arc<Graph>,
    /// The utility model `Param = (V, P, {D_i})`.
    pub model: UtilityModel,
    /// `budgets[i]` — max seeds for item `i` (items in `I1` should be 0).
    pub budgets: Vec<usize>,
    /// The fixed allocation `SP` over `I1`.
    pub fixed: Allocation,
    /// Monte-Carlo settings for welfare estimation and marginal checks.
    pub sim: SimulationConfig,
    /// IMM / PRIMA+ accuracy parameters (`ε`, `ℓ`).
    pub imm: ImmParams,
}

impl Problem {
    /// A fresh problem with zero budgets, no fixed allocation, and default
    /// accuracy parameters (ε = 0.5, ℓ = 1, 5000 MC samples — the paper's
    /// defaults).
    pub fn new(graph: Graph, model: UtilityModel) -> Problem {
        Problem::new_shared(Arc::new(graph), model)
    }

    /// Like [`Problem::new`] but over an already-shared graph — the cheap
    /// constructor serving layers use to answer many campaigns on one
    /// loaded network.
    pub fn new_shared(graph: Arc<Graph>, model: UtilityModel) -> Problem {
        let m = model.num_items();
        Problem {
            graph,
            model,
            budgets: vec![0; m],
            fixed: Allocation::new(),
            sim: SimulationConfig::default(),
            imm: ImmParams::default(),
        }
    }

    /// Set the per-item budget vector (length must equal the item count).
    pub fn with_budgets(mut self, budgets: Vec<usize>) -> Problem {
        assert_eq!(budgets.len(), self.model.num_items(), "one budget per item");
        self.budgets = budgets;
        self
    }

    /// Set the same budget for every item (the paper's "uniform" setting).
    pub fn with_uniform_budget(mut self, b: usize) -> Problem {
        self.budgets = vec![b; self.model.num_items()];
        self
    }

    /// Set the fixed prior allocation `SP`. Items seeded here are excluded
    /// from `I2` (their budget is ignored by the solvers).
    pub fn with_fixed_allocation(mut self, fixed: Allocation) -> Problem {
        self.fixed = fixed;
        self
    }

    /// Set the Monte-Carlo sample count used for welfare estimates and
    /// marginal checks.
    pub fn with_mc_samples(mut self, samples: usize) -> Problem {
        self.sim.samples = samples;
        self
    }

    /// Set the full simulation config.
    pub fn with_sim(mut self, sim: SimulationConfig) -> Problem {
        self.sim = sim;
        self
    }

    /// Set IMM accuracy parameters.
    pub fn with_imm(mut self, imm: ImmParams) -> Problem {
        self.imm = imm;
        self
    }

    /// Number of items `m = |𝓘|`.
    pub fn num_items(&self) -> usize {
        self.model.num_items()
    }

    /// The to-be-allocated items `I2`: positive budget and not already
    /// seeded in `SP`.
    pub fn free_items(&self) -> ItemSet {
        let fixed_items = self.fixed.items();
        ItemSet::from_items(
            (0..self.num_items()).filter(|&i| self.budgets[i] > 0 && !fixed_items.contains(i)),
        )
    }

    /// Budgets of the free items, as `(item, budget)` pairs.
    pub fn free_budgets(&self) -> Vec<(ItemId, usize)> {
        self.free_items()
            .iter()
            .map(|i| (i, self.budgets[i]))
            .collect()
    }

    /// Total seed budget `b = Σ_{i ∈ I2} b_i`.
    pub fn total_free_budget(&self) -> usize {
        self.free_budgets().iter().map(|&(_, b)| b).sum()
    }

    /// A welfare estimator bound to this instance.
    pub fn estimator(&self) -> WelfareEstimator<'_> {
        WelfareEstimator::new(&self.graph, &self.model, self.sim)
    }

    /// This instance's welfare oracle for one solve: every allocation
    /// asked about is simulated once and its world record kept for as
    /// long as the returned value lives (see [`WorldRecords`]).
    pub fn oracle(&self) -> WorldRecords<'_> {
        WorldRecords::new(self.estimator())
    }

    /// Evaluate the expected social welfare of `alloc ∪ SP` — the objective
    /// `ρ(S ∪ SP)` of Problem 1.
    pub fn evaluate(&self, alloc: &Allocation) -> f64 {
        self.estimator().welfare(&alloc.union(&self.fixed))
    }

    /// Full report (welfare + adoption counts) for `alloc ∪ SP`.
    pub fn evaluate_report(&self, alloc: &Allocation) -> WelfareReport {
        self.estimator().welfare_report(&alloc.union(&self.fixed))
    }

    /// Check that `alloc` respects the budget constraint of Problem 1 and
    /// only allocates free items.
    pub fn check_feasible(&self, alloc: &Allocation) -> Result<(), String> {
        if !alloc.respects_budgets(&self.budgets) {
            return Err("allocation exceeds a budget".into());
        }
        let free = self.free_items();
        for &(v, i) in alloc.pairs() {
            if !free.contains(i) {
                return Err(format!("item i{i} is not free (fixed or zero budget)"));
            }
            if v as usize >= self.graph.num_nodes() {
                return Err(format!("node {v} out of range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwelmax_graph::{generators, ProbabilityModel as PM};
    use cwelmax_utility::configs::{self, TwoItemConfig};

    fn problem() -> Problem {
        Problem::new(
            generators::path(5, PM::Constant(1.0)),
            configs::two_item_config(TwoItemConfig::C1),
        )
    }

    #[test]
    fn free_items_excludes_fixed_and_zero_budget() {
        let p = problem().with_budgets(vec![2, 0]);
        assert_eq!(p.free_items(), ItemSet::singleton(0));
        let p2 = problem()
            .with_uniform_budget(2)
            .with_fixed_allocation(Allocation::from_pairs([(0, 1)]));
        assert_eq!(p2.free_items(), ItemSet::singleton(0));
        assert_eq!(p2.total_free_budget(), 2);
    }

    #[test]
    fn feasibility_checks() {
        let p = problem().with_budgets(vec![1, 1]);
        assert!(p.check_feasible(&Allocation::from_pairs([(0, 0)])).is_ok());
        assert!(p
            .check_feasible(&Allocation::from_pairs([(0, 0), (1, 0)]))
            .is_err());
        let p2 = problem()
            .with_budgets(vec![1, 1])
            .with_fixed_allocation(Allocation::from_pairs([(4, 1)]));
        assert!(
            p2.check_feasible(&Allocation::from_pairs([(0, 1)]))
                .is_err(),
            "item 1 is fixed"
        );
        assert!(p2
            .check_feasible(&Allocation::from_pairs([(9, 0)]))
            .is_err());
    }

    #[test]
    fn evaluate_includes_fixed_allocation() {
        let p = problem()
            .with_budgets(vec![1, 0])
            .with_fixed_allocation(Allocation::from_pairs([(4, 1)]))
            .with_mc_samples(50);
        // item 1 on node 4 (no out-edges) contributes its own utility only;
        // adding item 0 on node 0 floods the path
        let w_empty = p.evaluate(&Allocation::new());
        let w_full = p.evaluate(&Allocation::from_pairs([(0, 0)]));
        assert!(w_full > w_empty);
    }

    #[test]
    #[should_panic]
    fn wrong_budget_length_panics() {
        let _ = problem().with_budgets(vec![1]);
    }
}
