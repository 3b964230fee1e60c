//! # cwelmax-rrset
//!
//! Reverse-reachable (RR) set machinery: the sampling engines behind IMM,
//! PRIMA+ and SupGRD (§5.2.1 and §5.3 of the paper).
//!
//! An RR set rooted at a uniformly random node `v` contains every node that
//! reaches `v` in one sampled live-edge world; Borgs et al.'s identity
//! `σ(S) = n · E[ I(S ∩ R ≠ ∅) ]` turns influence estimation into set
//! cover. This crate provides three samplers:
//!
//! * [`StandardRr`] — plain IC RR sets (classic IMM);
//! * [`MarginalRr`] — Algorithm 3: any RR set that touches the fixed seed
//!   set `SP` is zeroed out, so coverage estimates the **marginal** spread
//!   `σ(S | SP)`;
//! * [`WeightedRr`] — Definition 2: the reverse BFS stops as soon as it
//!   reaches `SP`, and the set carries weight
//!   `w(R) = U⁺(i_m) − max_{i ∈ I_s, s ∈ SP ∩ R} U⁺(i)`, so weighted
//!   coverage estimates the **marginal welfare** of seeding the superior
//!   item (Lemma 6).
//!
//! On top sit [`imm`] — the full IMM sampling/selection pipeline with the
//! Chen (2018) final-regeneration fix, generalized to weighted RR sets by
//! replacing the scale `n` with `UB = n · w_max` — and [`prima`], the
//! PRIMA+ wrapper that is *prefix-preserving on marginals* (Definition 1).

pub mod collection;
pub mod imm;
pub mod prima;
pub mod sampler;

pub use collection::{greedy_argmax, RrCollection};
pub use imm::{sampled_collection, select_from_collection, ImmParams, ImmResult, REGEN_SEED_XOR};
pub use prima::{condition_parts, conditioned_collection};
pub use sampler::{MarginalRr, RrContext, RrSampler, StandardRr, WeightedRr};
