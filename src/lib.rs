//! # cwelmax — Maximizing Social Welfare in a Competitive Diffusion Model
//!
//! Facade crate re-exporting the full reproduction of Banerjee, Chen &
//! Lakshmanan (PVLDB 2020). See the README for the architecture overview and
//! `DESIGN.md` for the system inventory.
//!
//! The sub-crates are:
//!
//! * [`graph`] — directed probabilistic graph substrate;
//! * [`utility`] — itemset utility model (value, price, noise) and the
//!   paper's utility configurations;
//! * [`diffusion`] — the UIC diffusion engine and Monte-Carlo estimators;
//! * [`rrset`] — reverse-reachable-set machinery (IMM, PRIMA+, weighted
//!   RR sets);
//! * [`core`] — the CWelMax algorithms (SeqGRD, SeqGRD-NM, MaxGRD, SupGRD)
//!   and all baselines;
//! * [`obs`] — std-only observability kit: metrics registry, lock-free
//!   log2-bucket latency histograms, and a structured NDJSON logger,
//!   shared by engine, store, and server;
//! * [`engine`] — the frozen RR-set index, the checksummed frame its
//!   store files share, and the multi-campaign query engine that answers
//!   many allocation queries over one prebuilt index without resampling;
//! * [`store`] — the sharded, journaled on-disk index store, the one
//!   persisted form of an index (`cwelmax index build` / `topup` /
//!   `compact`): a manifest opened eagerly plus lazily loaded shard
//!   files, so server cold-start is `O(manifest)` instead of `O(index)`;
//!   served through one backend, `JournaledStore`;
//! * [`server`] — long-lived TCP front-end over one `CampaignEngine`
//!   (newline-delimited JSON, versioned wire protocol; `cwelmax serve`);
//! * [`client`] — typed client for that server (`hello` negotiation of
//!   protocol v2 with automatic v1 fallback, structured errors,
//!   reconnect-once-on-broken-pipe).
//!
//! ```
//! use cwelmax::prelude::*;
//!
//! // A tiny fresh campaign: two competing items on a 100-node network.
//! let graph = cwelmax::graph::generators::erdos_renyi(
//!     100, 400, 7, ProbabilityModel::WeightedCascade);
//! let utility = configs::two_item_config(TwoItemConfig::C1);
//! let problem = Problem::new(graph, utility)
//!     .with_budgets(vec![5, 5])
//!     .with_mc_samples(200);
//! let result = SeqGrd::new(SeqGrdMode::NoMarginal).solve(&problem);
//! assert_eq!(result.allocation.len(), 10);
//! assert!(problem.evaluate(&result.allocation) > 0.0);
//! ```

pub use cwelmax_client as client;
pub use cwelmax_core as core;
pub use cwelmax_diffusion as diffusion;
pub use cwelmax_engine as engine;
pub use cwelmax_graph as graph;
pub use cwelmax_obs as obs;
pub use cwelmax_rrset as rrset;
pub use cwelmax_server as server;
pub use cwelmax_store as store;
pub use cwelmax_utility as utility;

/// One-stop imports for applications.
pub mod prelude {
    pub use cwelmax_client::CwelmaxClient;
    pub use cwelmax_core::prelude::*;
    pub use cwelmax_diffusion::{Allocation, WelfareEstimator};
    pub use cwelmax_engine::{
        CampaignEngine, CampaignQuery, EngineBuilder, QueryAlgorithm, RrIndex,
    };
    pub use cwelmax_graph::{Graph, GraphBuilder, ProbabilityModel};
    pub use cwelmax_server::{CampaignServer, ServerHandle};
    pub use cwelmax_store::{FromStore, JournaledStore};
    pub use cwelmax_utility::configs::{self, TwoItemConfig};
    pub use cwelmax_utility::{ItemId, ItemSet, UtilityModel};
}
