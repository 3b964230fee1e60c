//! # cwelmax-bench
//!
//! The experiment harness reproducing every table and figure of the
//! paper's evaluation (§6). The [`experiments`] module has one function per
//! table/figure; the `experiments` binary drives them and the Criterion
//! benches under `benches/` measure the running-time figures.
//!
//! Two scales are supported:
//!
//! * [`Scale::Quick`] — miniature networks (~2–4K nodes) and reduced Monte
//!   Carlo, finishing in minutes on a laptop; reproduces every *shape*
//!   (who wins, how curves move);
//! * [`Scale::Full`] — the statistic-matched Table-2 networks (NetHEPT and
//!   the Douban networks at paper scale, Orkut/Twitter scaled down per
//!   DESIGN.md) with heavier sampling.

pub mod experiments;
pub mod harness;
pub mod report;

pub use harness::{network, Scale};
pub use report::ExperimentResult;
