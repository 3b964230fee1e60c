//! The op-count table and the seeded op lists.
//!
//! Every size the benchmark depends on is a constant in [`TABLE`]; its
//! hash goes into each result file, so two files measured with different
//! tables are never compared by accident. Op lists are a fixed multiset
//! of operation kinds in a seeded order: the mix is exact on every seed,
//! so a different seed changes which request follows which, not how much
//! work a round holds.

use crate::rng::{SplitMix64, Zipf};

/// Sizes of everything the five workloads run. Request counts are per
/// client per round and are calibrated so that [`OpTable::rounds`] rounds
/// take about ten seconds on the two-core reference box.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTable {
    /// Timed rounds per workload; throughput and CPU cost are the median
    /// of the per-round values.
    pub rounds: usize,
    /// Closed-loop typed clients of the serving workloads (= cores).
    pub clients: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// RR sets in the serving store and the `store_lifecycle` base store.
    pub theta: usize,
    /// Top-up target of `store_lifecycle` (θ₀ + 25 %).
    pub theta_topped_up: usize,
    pub shards: usize,
    pub budget_cap: u32,

    pub hot_requests: usize,
    /// Pre-warmed fresh queries `serve_hot` draws from (Zipf).
    pub hot_universe: usize,
    /// Cached prior allocations its follow-ups repeat over.
    pub hot_sps: usize,
    pub hot_batch_len: usize,
    /// Distinct pre-drawn batch compositions.
    pub hot_batches: usize,
    /// Parts per thousand of single fresh / follow-up / batch requests.
    pub hot_mix: [usize; 3],
    pub hot_zipf_s: f64,
    /// Monte-Carlo samples of the pre-warmed queries; the hit path never
    /// looks at it, it only prices the warm-up.
    pub warm_samples: usize,

    pub novel_requests: usize,
    pub novel_samples: usize,
    /// Parts per ten of seqgrd-nm / seqgrd / maxgrd / best-of.
    pub novel_mix: [usize; 4],
    /// Share of `serve_novel` answers re-computed on the reference engine.
    pub novel_checked_percent: usize,

    pub churn_requests: usize,
    /// Distinct prior allocations of `followup_churn` (3× the view cache).
    pub churn_sps: usize,

    pub store_cycles: usize,
    pub store_samples: usize,

    pub solve_sets: usize,
    pub solve_samples: usize,
    /// Fresh processes `solve_cold` reads its `peak_rss_mb` from, which
    /// is their mean, and the solve-sets each of them runs.
    pub solve_rss_probes: usize,
    pub solve_rss_probe_sets: usize,
}

pub const TABLE: OpTable = OpTable {
    rounds: 5,
    clients: 2,
    setup_repeats: 5,
    theta: 100_000,
    theta_topped_up: 125_000,
    shards: 8,
    budget_cap: 20,
    hot_requests: 10_000,
    hot_universe: 256,
    hot_sps: 8,
    hot_batch_len: 12,
    hot_batches: 256,
    hot_mix: [700, 100, 200],
    hot_zipf_s: 1.0,
    warm_samples: 50,
    novel_requests: 50,
    novel_samples: 200,
    novel_mix: [7, 1, 1, 1],
    novel_checked_percent: 10,
    churn_requests: 400,
    churn_sps: 96,
    store_cycles: 20,
    store_samples: 50,
    solve_sets: 12,
    solve_samples: 200,
    solve_rss_probes: 20,
    solve_rss_probe_sets: 4,
};

/// Run length [`TABLE`] is calibrated for, in seconds.
pub const CALIBRATED_SECONDS: u64 = 10;

impl OpTable {
    /// FNV-1a of the table's `Debug` rendering.
    pub fn hash(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// The table with its request counts scaled to a run of `seconds`.
    /// Counts never drop below what a p90 needs (100 pooled operations
    /// per workload), so a short run is shorter, not meaningless.
    pub fn scaled(&self, seconds: u64) -> OpTable {
        let scale = |n: usize, floor: usize| {
            ((n as u64 * seconds).div_ceil(CALIBRATED_SECONDS) as usize).max(floor)
        };
        OpTable {
            hot_requests: scale(self.hot_requests, 100),
            novel_requests: scale(self.novel_requests, 10),
            churn_requests: scale(self.churn_requests, 10),
            store_cycles: scale(self.store_cycles, 20),
            solve_sets: scale(self.solve_sets, 4),
            solve_rss_probes: scale(self.solve_rss_probes, 5),
            ..self.clone()
        }
    }
}

/// One request of a serving workload, by index into the workload's query
/// table or batch table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    Single(u32),
    Batch(u32),
}

// sub-stream tags, so no two lists share draws
const LANE_HOT: u64 = 1;
const LANE_HOT_BATCHES: u64 = 2;
const LANE_NOVEL: u64 = 3;
const LANE_CHURN: u64 = 4;
const LANE_SOLVE: u64 = 5;
const LANE_NOVEL_CHECK: u64 = 6;

/// `total` split by `parts` (any common denominator), remainders going
/// to the first part.
fn exact_counts<const N: usize>(total: usize, parts: [usize; N]) -> [usize; N] {
    let denom: usize = parts.iter().sum();
    let mut out = parts.map(|p| total * p / denom);
    out[0] += total - out.iter().sum::<usize>();
    out
}

/// `total` draws over Zipf-weighted ranks as a multiset: rank `r` appears
/// `total · p(r)` times, remainders going to the heaviest fractions. The
/// popularity skew is Zipf's on every seed; only the order is drawn.
fn zipf_counts(zipf: &Zipf, total: usize) -> Vec<usize> {
    let shares: Vec<f64> = (0..zipf.ranks())
        .map(|r| zipf.mass(r) * total as f64)
        .collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_fraction: Vec<usize> = (0..counts.len()).collect();
    by_fraction.sort_by(|&a, &b| {
        (shares[b] - shares[b].floor()).total_cmp(&(shares[a] - shares[a].floor()))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &r in by_fraction.iter().take(missing) {
        counts[r] += 1;
    }
    counts
}

/// The batch compositions of `serve_hot`: `hot_batches` lists of
/// `hot_batch_len` Zipf-drawn universe indices. The same on every seed,
/// like the universe they draw from.
pub fn hot_batches(t: &OpTable) -> Vec<Vec<u32>> {
    let zipf = Zipf::new(t.hot_universe, t.hot_zipf_s);
    let mut rng = SplitMix64::new(LANE_HOT_BATCHES);
    (0..t.hot_batches)
        .map(|_| {
            (0..t.hot_batch_len)
                .map(|_| zipf.sample(&mut rng) as u32)
                .collect()
        })
        .collect()
}

/// One client's `serve_hot` round (every round replays it), in two
/// phases: the single requests — fresh queries Zipf-weighted over the
/// universe (table indices `0..hot_universe`) and follow-ups spread
/// evenly over the cached SPs (indices from `hot_universe` up) — then the
/// batches, spread evenly over the batch table. Each phase is a fixed
/// multiset in a seeded order, so every seed does the same work.
///
/// The kinds are not interleaved because the server answers a batch on
/// two freshly spawned threads: beside the other client's single requests
/// that flips the scheduler between two thread placements for seconds at
/// a time (median single 55 µs in one, 90 µs in the other), and which one
/// a run sees is luck — a 14 % run-to-run spread no bound survives.
pub fn hot_ops(t: &OpTable, seed: u64, client: usize) -> [Vec<ServeOp>; 2] {
    let zipf = Zipf::new(t.hot_universe, t.hot_zipf_s);
    let mut rng = SplitMix64::stream(seed, &[LANE_HOT, client as u64]);
    let [fresh, follow, batch] = exact_counts(t.hot_requests, t.hot_mix);
    let mut singles = Vec::with_capacity(fresh + follow);
    for (rank, &n) in zipf_counts(&zipf, fresh).iter().enumerate() {
        singles.extend(std::iter::repeat_n(ServeOp::Single(rank as u32), n));
    }
    singles.extend((0..follow).map(|k| ServeOp::Single((t.hot_universe + k % t.hot_sps) as u32)));
    let mut batches: Vec<ServeOp> = (0..batch)
        .map(|k| ServeOp::Batch((k % t.hot_batches) as u32))
        .collect();
    rng.shuffle(&mut singles);
    rng.shuffle(&mut batches);
    [singles, batches]
}

/// One client's `followup_churn` round: every distinct SP equally often,
/// in a seeded order of the round's own. How often a 32-entry cache hits
/// on 96 SPs depends on the order (0.27 to 0.33 from seed to seed, and
/// with it `ops_per_s` by 8 %); five orders a run and the median of their
/// rounds move half as much as one order run five times.
pub fn churn_ops(t: &OpTable, seed: u64, round: usize, client: usize) -> Vec<ServeOp> {
    let mut rng = SplitMix64::stream(seed, &[LANE_CHURN, round as u64, client as u64]);
    let mut ops: Vec<ServeOp> = (0..t.churn_requests)
        .map(|k| ServeOp::Single((k % t.churn_sps) as u32))
        .collect();
    rng.shuffle(&mut ops);
    ops
}

/// The shape of one never-seen-before query of `serve_novel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NovelShape {
    /// 0..4 for C1..C4.
    pub config: usize,
    pub budgets: [usize; 2],
    /// Index into `QueryAlgorithm::ALL`.
    pub algorithm: usize,
    /// The query's Monte-Carlo seed; distinct per query, which is what
    /// makes it miss the welfare cache.
    pub query_seed: u64,
}

/// Budget pairs `serve_novel` cycles through (all within the cap of 20).
const NOVEL_BUDGETS: [[usize; 2]; 5] = [[10, 10], [5, 5], [8, 4], [3, 9], [6, 6]];

/// The queries of one client's `serve_novel` round. The multiset of
/// (config, budgets, algorithm) is the same on every seed, round and
/// client; the order and the Monte-Carlo seeds are drawn.
pub fn novel_shapes(t: &OpTable, seed: u64, round: usize, client: usize) -> Vec<NovelShape> {
    let mut rng = SplitMix64::stream(seed, &[LANE_NOVEL, round as u64, client as u64]);
    let counts = exact_counts(t.novel_requests, t.novel_mix);
    let mut shapes = Vec::with_capacity(t.novel_requests);
    for (algorithm, &n) in counts.iter().enumerate() {
        for k in 0..n {
            shapes.push(NovelShape {
                config: k % 4,
                budgets: NOVEL_BUDGETS[k % NOVEL_BUDGETS.len()],
                algorithm,
                // 40 bits: exact in every JSON number representation
                query_seed: rng.next_u64() >> 24,
            });
        }
    }
    rng.shuffle(&mut shapes);
    shapes
}

/// Which of `n` `serve_novel` answers are re-computed on the reference
/// engine: every one with probability `novel_checked_percent`, at least
/// one.
pub fn novel_checked(t: &OpTable, seed: u64, n: usize) -> Vec<bool> {
    let mut rng = SplitMix64::stream(seed, &[LANE_NOVEL_CHECK]);
    let mut picks: Vec<bool> = (0..n)
        .map(|_| rng.below(100) < t.novel_checked_percent)
        .collect();
    if let Some(first) = picks.first_mut() {
        *first = true;
    }
    picks
}

/// IMM seed of the `k`-th solve-set of `solve_cold`.
pub fn solve_set_seed(seed: u64, k: usize) -> u64 {
    SplitMix64::stream(seed, &[LANE_SOLVE, k as u64]).next_u64() >> 24
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_repeat_per_seed_and_differ_across_seeds_and_clients() {
        let t = TABLE.scaled(1);
        assert_eq!(hot_ops(&t, 11, 0), hot_ops(&t, 11, 0));
        assert_ne!(hot_ops(&t, 11, 0), hot_ops(&t, 12, 0));
        assert_ne!(hot_ops(&t, 11, 0), hot_ops(&t, 11, 1));
        assert_eq!(churn_ops(&t, 5, 0, 1), churn_ops(&t, 5, 0, 1));
        assert_ne!(churn_ops(&t, 5, 0, 1), churn_ops(&t, 6, 0, 1));
        assert_ne!(churn_ops(&t, 5, 0, 1), churn_ops(&t, 5, 1, 1));
        assert_eq!(novel_shapes(&t, 5, 2, 1), novel_shapes(&t, 5, 2, 1));
        assert_ne!(novel_shapes(&t, 5, 2, 1), novel_shapes(&t, 5, 3, 1));
        assert_eq!(hot_batches(&t), hot_batches(&t));
        assert_eq!(solve_set_seed(3, 4), solve_set_seed(3, 4));
        assert_ne!(solve_set_seed(3, 4), solve_set_seed(3, 5));
    }

    #[test]
    fn the_hot_mix_is_exact_on_every_seed() {
        let t = TABLE.scaled(1);
        for seed in [1, 2, 3] {
            let [singles, batches] = hot_ops(&t, seed, 0);
            assert!(singles.iter().all(|o| matches!(o, ServeOp::Single(_))));
            assert!(batches.iter().all(|o| matches!(o, ServeOp::Batch(_))));
            let ops = [singles, batches].concat();
            assert_eq!(ops.len(), t.hot_requests);
            let batches = ops
                .iter()
                .filter(|o| matches!(o, ServeOp::Batch(_)))
                .count();
            let follow = ops
                .iter()
                .filter(|o| matches!(o, ServeOp::Single(i) if *i as usize >= t.hot_universe))
                .count();
            assert_eq!(batches, t.hot_requests / 5);
            assert_eq!(follow, t.hot_requests / 10);
            for op in ops {
                match op {
                    ServeOp::Single(i) => assert!((i as usize) < t.hot_universe + t.hot_sps),
                    ServeOp::Batch(b) => assert!((b as usize) < t.hot_batches),
                }
            }
        }
    }

    #[test]
    fn every_seed_does_the_same_work_in_another_order() {
        let t = TABLE.scaled(1);
        let sorted = |mut ops: Vec<ServeOp>| {
            ops.sort_by_key(|o| match *o {
                ServeOp::Single(i) => (0, i),
                ServeOp::Batch(b) => (1, b),
            });
            ops
        };
        assert_eq!(
            sorted(hot_ops(&t, 1, 0).concat()),
            sorted(hot_ops(&t, 2, 1).concat())
        );
        assert_eq!(
            sorted(churn_ops(&t, 1, 0, 0)),
            sorted(churn_ops(&t, 2, 3, 1))
        );
        // the fresh queries keep Zipf's skew: rank 0 carries 1/H(256) ≈ 16 %
        let fresh = t.hot_requests * 7 / 10;
        let top = hot_ops(&t, 1, 0)[0]
            .iter()
            .filter(|o| **o == ServeOp::Single(0))
            .count();
        assert!((top as f64 / fresh as f64 - 0.163).abs() < 0.005, "{top}");
        let counts = zipf_counts(&Zipf::new(256, 1.0), 3_500);
        assert_eq!(counts.iter().sum::<usize>(), 3_500);
        assert!(
            counts.windows(2).all(|w| w[0] + 1 >= w[1]),
            "never rising by more than rounding"
        );
    }

    #[test]
    fn novel_rounds_hold_the_same_shapes_with_fresh_seeds() {
        let t = TABLE;
        let key = |s: &NovelShape| (s.algorithm, s.config, s.budgets);
        let mut a: Vec<_> = novel_shapes(&t, 1, 0, 0).iter().map(key).collect();
        let mut b: Vec<_> = novel_shapes(&t, 2, 3, 1).iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "the multiset of shapes is seed-independent");
        assert_eq!(a.iter().filter(|k| k.0 == 0).count(), 35);
        assert_eq!(a.iter().filter(|k| k.0 == 3).count(), 5);
        let mut seeds: Vec<u64> = (0..t.rounds)
            .flat_map(|r| (0..t.clients).flat_map(move |c| novel_shapes(&TABLE, 1, r, c)))
            .map(|s| s.query_seed)
            .collect();
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "every novel query has its own seed");
        assert!(seeds.iter().all(|&s| s < 1 << 40));
    }

    #[test]
    fn scaling_keeps_enough_operations_for_a_p90() {
        let t = TABLE.scaled(1);
        assert!(t.rounds * t.clients * t.novel_requests >= 100);
        assert!(t.rounds * t.clients * t.churn_requests >= 100);
        assert!(t.rounds * t.store_cycles >= 100);
        assert!(t.rounds * t.solve_sets * 5 >= 100);
        assert_eq!(TABLE.scaled(CALIBRATED_SECONDS), TABLE);
        assert_eq!(TABLE.scaled(20).hot_requests, 2 * TABLE.hot_requests);
    }

    #[test]
    fn the_table_hash_moves_with_any_field() {
        let mut t = TABLE;
        let h = t.hash();
        assert_eq!(h, TABLE.hash());
        t.novel_samples += 1;
        assert_ne!(h, t.hash());
    }

    #[test]
    fn about_a_tenth_of_novel_answers_are_checked() {
        let picks = novel_checked(&TABLE, 4, 500);
        let n = picks.iter().filter(|&&p| p).count();
        assert!((25..=80).contains(&n), "{n}");
        assert_eq!(picks, novel_checked(&TABLE, 4, 500));
        assert!(picks[0]);
    }
}
