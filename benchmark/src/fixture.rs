//! What every workload is built on: the NetHEPT graph, an RR-set index
//! sampled from the regeneration stream, the sharded store on disk, a
//! live server with typed clients, and the queries they exchange.

use crate::ops::OpTable;
use crate::rng::SplitMix64;
use cwelmax_client::{CwelmaxClient, RemoteAnswer};
use cwelmax_diffusion::{Allocation, SimulationConfig};
use cwelmax_engine::{
    graph_fingerprint, CampaignAnswer, CampaignEngine, CampaignQuery, EngineBuilder, IndexMeta,
    QueryAlgorithm, RrIndex,
};
use cwelmax_graph::generators::benchmark::Network;
use cwelmax_graph::{Graph, NodeId};
use cwelmax_rrset::{ImmParams, RrCollection, StandardRr, REGEN_SEED_XOR};
use cwelmax_server::{CampaignServer, ServerHandle};
use cwelmax_store::FromStore;
use cwelmax_utility::configs::{self, TwoItemConfig};
use cwelmax_utility::UtilityModel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Seed of the index's sampling stream. Fixed: `--seed` varies the
/// requests, not the data they are served from, so welfare figures of
/// two seeds are comparable.
pub const INDEX_SEED: u64 = 0x1DD;
/// Monte-Carlo seed of every pre-warmed query.
pub const WARM_QUERY_SEED: u64 = 0x5EED;
/// Stream the prior allocations (SPs) of follow-up queries are drawn from.
const SP_STREAM: u64 = 0x5350_5F53;
/// Seeds per prior allocation.
pub const SP_SIZE: usize = 10;

/// Worker threads for sampling and cold solves (= cores of the reference
/// box; fixed so a result does not silently depend on the machine).
pub const WORKERS: usize = 2;

pub type Res<T> = Result<T, String>;

/// The paper's IMM accuracy (ε = 0.5, ℓ = 1, §6.1.3) on [`WORKERS`]
/// sampling threads.
pub fn imm_params(seed: u64) -> ImmParams {
    ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed,
        threads: WORKERS,
        max_rr_sets: 30_000_000,
    }
}

/// Render any error as the `String` the benchmark reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The paper's Table-2 NetHEPT stand-in (15.2K nodes).
pub fn nethept() -> Arc<Graph> {
    Arc::new(Network::NetHept.default_spec().generate())
}

pub fn index_meta(graph: &Graph, t: &OpTable) -> IndexMeta {
    IndexMeta {
        eps: 0.5,
        ell: 1.0,
        seed: INDEX_SEED,
        budget_cap: t.budget_cap,
        graph_fingerprint: graph_fingerprint(graph),
    }
}

/// `theta` sets of the regeneration stream — the population a journaled
/// top-up continues, so a store grown to θ₁ must answer like this built
/// cold at θ₁.
pub fn sample_sets(graph: &Graph, theta: usize) -> RrCollection {
    let mut c = RrCollection::new(graph.num_nodes());
    c.extend_parallel(
        graph,
        &StandardRr,
        theta,
        INDEX_SEED ^ REGEN_SEED_XOR,
        WORKERS,
    );
    c
}

pub fn cold_index(graph: &Graph, theta: usize, t: &OpTable) -> RrIndex {
    RrIndex::freeze(&sample_sets(graph, theta), index_meta(graph, t))
}

/// A directory under the benchmark's own `target/`, removed on drop.
/// Everything the benchmark writes stays inside the checkout.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(root: &Path, tag: &str) -> Res<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = root.join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Replace directory `to` with a copy of the files of `from` (a store
/// directory is flat).
pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).map_err(err)?;
    for entry in std::fs::read_dir(from).map_err(err)? {
        let entry = entry.map_err(err)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(err)?;
    }
    Ok(())
}

/// The `serve --store` engine: a journaled store opened lazily.
pub fn engine_over_store(dir: &Path, graph: &Arc<Graph>) -> Res<CampaignEngine> {
    EngineBuilder::from_journaled_store(dir)
        .graph(Arc::clone(graph))
        .build()
        .map_err(err)
}

/// The reference the correctness gate compares against: an in-process
/// engine over one monolithic index. It keeps no conditioned views: it is
/// asked each query once, and 32 cached views of its own (160 MB on
/// `followup_churn`) would set the `peak_rss_mb` of the process whose
/// serving engine that metric is about.
pub fn reference_engine(index: Arc<RrIndex>, graph: &Arc<Graph>) -> Res<CampaignEngine> {
    EngineBuilder::from_index(index)
        .graph(Arc::clone(graph))
        .conditioned_capacity(0)
        .build()
        .map_err(err)
}

/// A live `CampaignServer` on a loopback port, run on its own thread.
pub struct Served {
    pub engine: Arc<CampaignEngine>,
    pub handle: ServerHandle,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Served {
    pub fn start(engine: Arc<CampaignEngine>) -> Res<Served> {
        let server = CampaignServer::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(err)?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Served {
            engine,
            handle,
            thread,
        })
    }

    pub fn addr(&self) -> String {
        self.handle.local_addr().to_string()
    }

    pub fn connect(&self) -> Res<CwelmaxClient> {
        let client = CwelmaxClient::connect(self.addr()).map_err(err)?;
        if client.protocol() != 2 {
            return Err("the typed client did not negotiate wire protocol 2".into());
        }
        Ok(client)
    }

    /// Stop the server and wait for its thread (and every connection
    /// thread it scoped) to end.
    pub fn stop(self) -> Res<()> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(r) => r.map_err(err),
            Err(_) => Err("the server thread panicked".into()),
        }
    }
}

pub fn two_item_model(config: usize) -> UtilityModel {
    configs::two_item_config(match config {
        0 => TwoItemConfig::C1,
        1 => TwoItemConfig::C2,
        2 => TwoItemConfig::C3,
        _ => TwoItemConfig::C4,
    })
}

/// A query as the wire carries it (`threads` is not on the wire; the
/// server always evaluates with one).
pub fn query(
    config: usize,
    budgets: [usize; 2],
    algorithm: QueryAlgorithm,
    sp: Allocation,
    samples: usize,
    mc_seed: u64,
) -> CampaignQuery {
    CampaignQuery {
        model: two_item_model(config),
        budgets: budgets.to_vec(),
        algorithm,
        sp,
        sim: SimulationConfig {
            samples,
            threads: 1,
            base_seed: mc_seed,
        },
    }
}

/// Budget pair `p` (0..64) of config `c`. C1–C3 take every pair of
/// `1..=8`, larger first, so the most requested queries are substantial
/// campaigns; C4 is C3's utilities with non-uniform budgets (the paper's
/// Table 3), one side `1..=8` and the other `9..=12`.
fn hot_budgets(config: usize, p: usize) -> [usize; 2] {
    if config < 3 {
        [8 - p / 8, 8 - p % 8]
    } else if p < 32 {
        [1 + p / 4, 9 + p % 4]
    } else {
        [9 + (p - 32) % 4, 1 + (p - 32) / 4]
    }
}

/// The pre-warmed fresh queries of `serve_hot`: C1–C4 × 64 budget pairs,
/// config fastest so the popular ranks cover every config. All are
/// `seqgrd-nm`: the other algorithms run uncached Monte-Carlo marginal
/// checks inside the solver, which would put `diffusion` on a path whose
/// purpose is to keep it idle (they are exercised by `serve_novel`).
pub fn hot_universe(t: &OpTable) -> Vec<CampaignQuery> {
    (0..t.hot_universe)
        .map(|i| {
            let (p, c) = (i / 4, i % 4);
            query(
                c,
                hot_budgets(c, p % 64),
                QueryAlgorithm::SeqGrdNm,
                Allocation::new(),
                t.warm_samples,
                WARM_QUERY_SEED,
            )
        })
        .collect()
}

/// `n` distinct prior allocations: item 1 seeded on [`SP_SIZE`] of the
/// index's top seeds — a realistic prior, since that is where an earlier
/// campaign would have put them. Independent of `--seed`.
pub fn prior_allocations(pool: &[NodeId], n: usize) -> Vec<Allocation> {
    let mut seen: Vec<Vec<NodeId>> = Vec::with_capacity(n);
    let mut rng = SplitMix64::new(SP_STREAM);
    while seen.len() < n {
        let mut nodes = pool.to_vec();
        rng.shuffle(&mut nodes);
        nodes.truncate(SP_SIZE);
        nodes.sort_unstable();
        if !seen.contains(&nodes) {
            seen.push(nodes);
        }
    }
    seen.iter()
        .map(|nodes| Allocation::from_item_seeds(1, nodes))
        .collect()
}

/// The follow-up query over prior allocation `sp`: item 0 gets
/// [`SP_SIZE`] seeds from the SP-conditioned pool.
pub fn followup_query(k: usize, sp: &Allocation, samples: usize) -> CampaignQuery {
    query(
        k % 4,
        [SP_SIZE, SP_SIZE],
        QueryAlgorithm::SeqGrdNm,
        sp.clone(),
        samples,
        WARM_QUERY_SEED,
    )
}

/// What an answer must equal: the allocation and the welfare, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub allocation: Vec<(NodeId, usize)>,
    pub welfare_bits: u64,
}

impl Expected {
    pub fn of(answer: &CampaignAnswer) -> Expected {
        Expected {
            allocation: answer.allocation.pairs().to_vec(),
            welfare_bits: answer.welfare.to_bits(),
        }
    }

    pub fn matches_remote(&self, answer: &RemoteAnswer) -> bool {
        answer.welfare.to_bits() == self.welfare_bits && answer.allocation == self.allocation
    }
}

/// Answer `queries` on `engine` across [`WORKERS`] threads, in order.
pub fn answer_all(engine: &CampaignEngine, queries: &[CampaignQuery]) -> Res<Vec<Expected>> {
    engine
        .query_batch(queries, WORKERS)
        .iter()
        .map(|r| r.as_ref().map(Expected::of).map_err(err))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::TABLE;

    #[test]
    fn the_hot_universe_is_256_distinct_queries_within_the_cap() {
        let u = hot_universe(&TABLE);
        assert_eq!(u.len(), 256);
        let mut keys: Vec<(usize, Vec<usize>)> = u
            .iter()
            .enumerate()
            // C4 shares C3's model, so the config is part of the identity
            .map(|(i, q)| ((i % 4).min(2), q.budgets.clone()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(
            keys.len(),
            256,
            "no two universe entries are the same query"
        );
        for q in &u {
            assert!(q.budgets.iter().sum::<usize>() <= TABLE.budget_cap as usize);
            assert!(q.budgets.iter().all(|&b| b >= 1));
        }
    }

    #[test]
    fn prior_allocations_are_distinct_and_stable() {
        let pool: Vec<NodeId> = (100..120).collect();
        let a = prior_allocations(&pool, 96);
        let b = prior_allocations(&pool, 96);
        assert_eq!(a.len(), 96);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pairs(), y.pairs());
        }
        let mut sets: Vec<_> = a.iter().map(|s| s.seed_nodes()).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 96);
        assert!(a.iter().all(|s| s.len() == SP_SIZE));
        // the first eight (serve_hot's) are a prefix of the 96 (followup_churn's)
        let eight = prior_allocations(&pool, 8);
        assert_eq!(eight[7].pairs(), a[7].pairs());
    }
}
