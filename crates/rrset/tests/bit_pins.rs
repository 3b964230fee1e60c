//! Bit pins against history: every value below was captured from the
//! commit *before* the sampler, `extend_parallel`, `required_theta` and
//! `greedy_argmax` changed, so a pass here is evidence against the old
//! code, not against the new code itself. A pinned hash covers the whole
//! persistent state of a collection — offsets, members, weight **bits**
//! and θ — so "every RR set is the same set" is what it asserts, at
//! every thread count the per-thread split changes shape for.

use cwelmax_graph::{generators, Graph, NodeId, ProbabilityModel as PM};
use cwelmax_rrset::imm::imm_select;
use cwelmax_rrset::prima::prima_plus;
use cwelmax_rrset::{
    sampled_collection, ImmParams, ImmResult, MarginalRr, RrCollection, RrSampler, StandardRr,
    WeightedRr,
};

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of a collection's full persistent state.
fn collection_hash(c: &RrCollection) -> u64 {
    let (offsets, members, weights) = c.parts();
    let mut h = Fnv::new();
    h.word(offsets.len() as u64);
    for &o in offsets {
        h.word(o as u64);
    }
    for &v in members {
        h.word(v as u64);
    }
    for &w in weights {
        h.word(w.to_bits());
    }
    h.word(c.num_sampled() as u64);
    h.0
}

/// Hash of an IMM result's seeds and estimate bits.
fn result_hash(r: &ImmResult) -> u64 {
    let mut h = Fnv::new();
    h.word(r.seeds.len() as u64);
    for &v in &r.seeds {
        h.word(v as u64);
    }
    for &e in &r.estimates {
        h.word(e.to_bits());
    }
    h.0
}

fn graphs() -> [(&'static str, Graph); 2] {
    [
        (
            "er_weighted_cascade",
            generators::erdos_renyi(200, 1000, 3, PM::WeightedCascade),
        ),
        (
            "pa_constant",
            generators::preferential_attachment_simple(300, 3, true, 11, PM::Constant(0.2)),
        ),
    ]
}

const SP: [NodeId; 4] = [3, 17, 40, 99];

/// The three samplers over `n` nodes. The weighted one carries an item
/// above the superior utility on node 40, so some sets weigh 0 and are
/// dropped while θ still counts them.
fn samplers(n: usize) -> [(&'static str, Box<dyn RrSampler>); 3] {
    [
        ("standard", Box::new(StandardRr)),
        ("marginal", Box::new(MarginalRr::new(n, &SP))),
        (
            "weighted",
            Box::new(WeightedRr::new(
                n,
                4.0,
                [(3, 1.5), (17, 0.5), (40, 5.0), (99, 0.25), (3, 0.75)],
            )),
        ),
    ]
}

/// `(seed, count, resume_at cursor, second extend's count)`.
const CASES: [(u64, usize, usize, usize); 6] = [
    (7, 0, 0, 5),
    (7, 1, 0, 1),
    (7, 7, 0, 0),
    (9, 2500, 0, 1300),
    (21, 1200, 300, 7),
    (0xDEAD_BEEF, 1000, 123_456, 2),
];

const THREADS: [usize; 3] = [1, 2, 3];

/// `[hash after the first extend, hash after the second]`, one row per
/// `(graph, sampler, case)` in the order of `graphs()` × `samplers()` ×
/// `CASES`.
#[rustfmt::skip]
const EXTEND_PINS: [[u64; 2]; 36] = [
    [0x5b2a969b42d238a4, 0x56aaa045db7b6dcc],
    [0x360e94f315293581, 0x73bb9bc998278e38],
    [0xc6e2354f180f4a7f, 0xc6e2354f180f4a7f],
    [0xd8cbcf2f18e28695, 0x0c444e3486ce152b],
    [0xb24b4ff58298343e, 0x3c78d7d11d0e06d8],
    [0x034713f75e987e30, 0xe51377c735f5b59c],
    [0x5b2a969b42d238a4, 0x56aaa045db7b6dcc],
    [0x360e94f315293581, 0x73bb9bc998278e38],
    [0xc6e2354f180f4a7f, 0xc6e2354f180f4a7f],
    [0x8f75619336d9358f, 0x779fd537362f7d64],
    [0x91051953759b76a8, 0xee1eeb16c9cc9b83],
    [0x3fd4c6df6cf9f6c2, 0x03f2272b5762e6a4],
    [0x5b2a969b42d238a4, 0x132343ac81b9f3c1],
    [0xf99c770b5dd4268c, 0x078ea07c9b809618],
    [0x542c5e363ef14af2, 0x542c5e363ef14af2],
    [0x3eb5a863eb58a23e, 0x8976690d6558ca47],
    [0x779cbecc97eb58a9, 0xf3c7f5fb96208fe7],
    [0x753bf68ab38c5f13, 0x6bf1b7b437252679],
    [0x5b2a969b42d238a4, 0xde4c0703f32b83f3],
    [0xd5512c9e478a8e98, 0xcd3918d97b1fca49],
    [0xa7f10482a1f6541d, 0xa7f10482a1f6541d],
    [0x529afe14d7cf0122, 0xfd09af5c22dcfeef],
    [0x3947bcee2e41aed9, 0xb10ef0cc2a15f500],
    [0x8b2e37937f5f3152, 0x5123b1d1ed112846],
    [0x5b2a969b42d238a4, 0xde4c0703f32b83f3],
    [0xd5512c9e478a8e98, 0xcd3918d97b1fca49],
    [0xa7f10482a1f6541d, 0xa7f10482a1f6541d],
    [0x449b2ccb2cf9a1c5, 0x42bd28b8d73090fa],
    [0xd896d1eeef04de7a, 0x84d4c19ed003d30f],
    [0x0985c886e682a535, 0x9b36fd13cad9de73],
    [0x5b2a969b42d238a4, 0x985cb1f7a705bd92],
    [0x494ac6728b3943b5, 0x90a52f8fcad89fc9],
    [0xcaad6b1cbff20714, 0xcaad6b1cbff20714],
    [0x4aa208c1dac9ee39, 0x40e6967109b94bfc],
    [0xce7ce40327c2cb4b, 0x60622a56fda3700f],
    [0xa135d39c182d2e37, 0x7feb8a87b607be9f],
];

fn extend_twice(
    g: &Graph,
    sampler: &dyn RrSampler,
    case: (u64, usize, usize, usize),
    threads: usize,
) -> [u64; 2] {
    let (seed, count, cursor, again) = case;
    let mut c = RrCollection::resume_at(g.num_nodes(), cursor);
    c.extend_parallel(g, sampler, count, seed, threads);
    assert_eq!(c.num_sampled(), cursor + count);
    let first = collection_hash(&c);
    c.extend_parallel(g, sampler, again, seed, threads);
    assert_eq!(c.num_sampled(), cursor + count + again);
    [first, collection_hash(&c)]
}

#[test]
fn extend_parallel_samples_the_parent_commits_sets_at_every_thread_count() {
    let mut got = Vec::new();
    for (gname, g) in &graphs() {
        for (sname, sampler) in &samplers(g.num_nodes()) {
            for case in CASES {
                let row = extend_twice(g, sampler.as_ref(), case, THREADS[0]);
                for threads in &THREADS[1..] {
                    assert_eq!(
                        extend_twice(g, sampler.as_ref(), case, *threads),
                        row,
                        "{gname}/{sname} {case:?}: {threads} threads ≠ 1 thread"
                    );
                }
                got.push(row);
            }
        }
    }
    assert_eq!(got, EXTEND_PINS);
}

/// The benchmark's `fixture::imm_params`: ε 0.5, ℓ 1, 2 threads.
fn bench_params(seed: u64) -> ImmParams {
    ImmParams {
        eps: 0.5,
        ell: 1.0,
        seed,
        threads: 2,
        max_rr_sets: 30_000_000,
    }
}

fn imm_graph() -> Graph {
    generators::preferential_attachment_simple(1200, 3, true, 5, PM::WeightedCascade)
}

/// `[θ, collection hash]` of `sampled_collection` over `StandardRr` for
/// the budget lists `[20]`, `[10, 20]`, `[10, 10, 20]`, `1..=20`, then
/// over a weighted sampler (`w_max` ≠ 1 scales λ′, λ* and every gain) for
/// `[5, 20]` at another seed.
#[rustfmt::skip]
const SAMPLED_PINS: [[u64; 2]; 5] = [
    [11603, 0xfff0448ac670495d],
    [12979, 0xf9db4107909b6d90],
    [12979, 0xf9db4107909b6d90],
    [45625, 0x32dbcd0b6948500f],
    [15848, 0x432345dc2c0f940b],
];

#[test]
fn sampled_collection_keeps_theta_and_every_set() {
    let g = imm_graph();
    let weighted = WeightedRr::new(g.num_nodes(), 2.5, [(0, 1.0), (7, 2.0), (30, 0.5)]);
    let all: Vec<usize> = (1..=20).collect();
    let runs: [(&dyn RrSampler, &[usize], u64); 5] = [
        (&StandardRr, &[20], 7),
        (&StandardRr, &[10, 20], 7),
        (&StandardRr, &[10, 10, 20], 7),
        (&StandardRr, &all, 7),
        (&weighted, &[5, 20], 31),
    ];
    let got: Vec<[u64; 2]> = runs
        .iter()
        .map(|&(sampler, budgets, seed)| {
            let c = sampled_collection(&g, sampler, budgets, &bench_params(seed));
            [c.num_sampled() as u64, collection_hash(&c)]
        })
        .collect();
    assert_eq!(got, SAMPLED_PINS);
}

/// `[θ, hash of seeds and estimate bits]` of `prima_plus(&[], [10, 10],
/// 20)`, `prima_plus(&[], [10, 10], 10)`, `prima_plus(&SP, [10, 10], 20)`
/// and the weighted `imm_select(…, 20)`.
#[rustfmt::skip]
const RESULT_PINS: [[u64; 2]; 4] = [
    [12979, 0x062528d8154d89a0],
    [12678, 0x65aee58a4ae6a6c4],
    [13012, 0xed0020261e07de82],
    [11648, 0x53d995841aa6db63],
];

#[test]
fn solver_pools_keep_seeds_estimate_bits_and_theta() {
    let g = imm_graph();
    let p = bench_params(7);
    let weighted = WeightedRr::new(
        g.num_nodes(),
        1.0,
        [0u32, 7, 30, 55, 300].iter().map(|&v| (v, 0.9)),
    );
    let results = [
        prima_plus(&g, &[], &[10, 10], 20, &p),
        prima_plus(&g, &[], &[10, 10], 10, &p),
        prima_plus(&g, &SP, &[10, 10], 20, &p),
        imm_select(&g, &weighted, 20, &p),
    ];
    let got: Vec<[u64; 2]> = results
        .iter()
        .map(|r| [r.theta as u64, result_hash(r)])
        .collect();
    assert_eq!(got, RESULT_PINS);
}
