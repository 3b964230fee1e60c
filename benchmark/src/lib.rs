//! The repository's one repeatable benchmark.
//!
//! Five workloads over the paper's NetHEPT network, nine end-to-end
//! metrics with regression bounds, and a per-layer budget measured from
//! outside the program through each crate's public functions. See
//! `README.md` beside this crate for why each workload exists and which
//! end-to-end metric each per-layer metric should move.
//!
//! Nothing here prints: the linter confines printing to `src/bin/`.

pub mod compare;
pub mod fixture;
pub mod layers;
pub mod machine;
pub mod ops;
pub mod report;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod wirekit;
pub mod workloads;
