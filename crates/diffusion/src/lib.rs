//! # cwelmax-diffusion
//!
//! The UIC (utility-driven independent cascade) diffusion engine and its
//! Monte-Carlo estimators.
//!
//! ## Possible-world semantics (§3 of the paper)
//!
//! A possible world `w = (w1, w2)` is an *edge world* `w1` (each edge
//! independently live with its probability) and a *noise world* `w2` (one
//! noise draw per item). Conditioned on `w`, both propagation and adoption
//! are fully deterministic. We realize `w1` as a pure function of a 64-bit
//! world seed — [`world::EdgeWorld`] hashes `(seed, edge_id)` into the
//! live/blocked coin — so that the *same* world can be replayed under
//! *different* allocations. That gives (a) exact common-random-number
//! marginals `ρ(S | SP) = ρ(S ∪ SP) − ρ(SP)` evaluated in identical worlds
//! and (b) bit-for-bit reproducibility regardless of traversal order or
//! thread count.
//!
//! ## Modules
//!
//! * [`allocation`] — seed allocations `S ⊆ V × 𝓘` with budget checking;
//! * [`world`] — edge worlds (deterministic live-edge coins);
//! * [`uic`] — the UIC fixpoint: desire/adoption propagation with the
//!   progressive utility-maximal best response;
//! * [`ic`] — classic single-item IC spread (the `σ(S)` the bounds of §5
//!   relate welfare to);
//! * [`estimate`] — multi-threaded Monte-Carlo estimators for welfare,
//!   marginal welfare, adoption counts, spread and balanced exposure, and
//!   the per-solve memo of world records the solvers ask through.

pub mod allocation;
pub mod estimate;
pub mod fairness;
pub mod ic;
pub mod uic;
pub mod world;

pub use allocation::Allocation;
pub use estimate::{
    SimulationConfig, WelfareEstimator, WelfareOracle, WelfareReport, WorldRecords,
};
pub use fairness::FairnessReport;
pub use uic::{UicContext, UicOutcome};
pub use world::EdgeWorld;
