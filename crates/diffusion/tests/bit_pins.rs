//! Bit pins against history: every estimate below was captured from the
//! commit *before* the world kernel and the record folds changed, so a
//! pass here is evidence against the old code, not against the new code
//! itself. The pins cover the three association boundaries of the
//! 64-world block fold (63 / 64 / 65 samples), a single world, and a
//! multi-block run, at every thread count the block distribution
//! changes shape for.

use cwelmax_diffusion::{
    Allocation, SimulationConfig, WelfareEstimator, WelfareOracle, WorldRecords,
};
use cwelmax_graph::{generators, Graph, ProbabilityModel as PM};
use cwelmax_utility::configs::{self, TwoItemConfig};
use cwelmax_utility::UtilityModel;

struct Instance {
    name: &'static str,
    graph: Graph,
    model: UtilityModel,
    base: Allocation,
    add: Allocation,
    base_seed: u64,
}

fn instances() -> Vec<Instance> {
    vec![
        Instance {
            name: "c1_pure_competition",
            graph: generators::erdos_renyi(200, 800, 3, PM::WeightedCascade),
            model: configs::two_item_config(TwoItemConfig::C1),
            base: Allocation::new(),
            add: Allocation::from_pairs([(0, 0), (5, 1), (10, 0), (5, 0)]),
            base_seed: 9,
        },
        Instance {
            name: "c3_soft_competition",
            graph: generators::preferential_attachment_simple(300, 3, true, 11, PM::Constant(0.2)),
            model: configs::two_item_config(TwoItemConfig::C3),
            base: Allocation::new(),
            add: Allocation::from_pairs([(250, 1), (280, 0), (299, 0), (270, 1), (299, 1)]),
            base_seed: 0x5EED,
        },
        Instance {
            name: "c2_follow_up",
            graph: generators::erdos_renyi(200, 800, 3, PM::WeightedCascade),
            model: configs::two_item_config(TwoItemConfig::C2),
            base: Allocation::from_pairs([(3, 1), (17, 1), (40, 1)]),
            add: Allocation::from_pairs([(0, 0), (8, 0), (21, 0)]),
            base_seed: 77,
        },
    ]
}

const SAMPLES: [usize; 5] = [1, 63, 64, 65, 500];
const THREADS: [usize; 3] = [1, 2, 4];

/// `[welfare, marginal_welfare(add | base), report.total_adopters,
/// report.informed, report.adoption_counts[0], report.adoption_counts[1]]`
/// as `to_bits()`, one row per `(instance, samples)` in the order of
/// `instances()` × `SAMPLES`.
#[rustfmt::skip]
const PINS: [[u64; 6]; 15] = [
    [0x3fd8c960b42fe056, 0x3fd8c960b42fe056, 0x4008000000000000, 0x4008000000000000, 0x4008000000000000, 0x0000000000000000],
    [0x404087a40335cbe3, 0x404087a40335cbe3, 0x40399e79e79e79e8, 0x4039db6db6db6db7, 0x4036924924924925, 0x4008618618618618],
    [0x40409cd5b28e1423, 0x40409cd5b28e1423, 0x4039fc0000000000, 0x403a380000000000, 0x4036dc0000000000, 0x4009000000000000],
    [0x40406440a17efc6c, 0x40406440a17efc6c, 0x4039a17a17a17a18, 0x4039dc8dc8dc8dc9, 0x40368dc8dc8dc8dd, 0x40089d89d89d89d9],
    [0x403d69256a4c90b7, 0x403d69256a4c90b7, 0x403667ef9db22d0e, 0x4036b126e978d4fe, 0x403408b439581062, 0x4002f9db22d0e560],
    [0x4024e7c8ad234875, 0x4024e7c8ad234875, 0x4018000000000000, 0x4018000000000000, 0x4010000000000000, 0x4014000000000000],
    [0x40267c384cf35b1e, 0x40267c384cf35b1e, 0x401fefbefbefbefc, 0x4021041041041041, 0x400a69a69a69a69a, 0x40174d34d34d34d3],
    [0x40262a97df51dc8e, 0x40262a97df51dc8e, 0x401fa00000000000, 0x4020e80000000000, 0x400a600000000000, 0x4016f00000000000],
    [0x40263c9368f6c47e, 0x40263c9368f6c47e, 0x401f723723723723, 0x4020cccccccccccd, 0x400a56a56a56a56a, 0x4016d4ad4ad4ad4b],
    [0x402533b834dcf871, 0x402533b834dcf871, 0x401e3f7ced916873, 0x40202e147ae147ae, 0x400c10624dd2f1aa, 0x401524dd2f1a9fbe],
    [0x404a1cfe4d39dbec, 0x404a1cfe4d39dbec, 0x4052400000000000, 0x4052c00000000000, 0x4052400000000000, 0x0000000000000000],
    [0x403df8053e270ea5, 0x40370bcc32176528, 0x4038aaaaaaaaaaab, 0x403a820820820821, 0x4032965965965966, 0x4018514514514514],
    [0x403da402de611168, 0x4036d37ab681a691, 0x40386c0000000000, 0x403a480000000000, 0x4032700000000000, 0x4017f00000000000],
    [0x403d4f39139876c0, 0x4036799464edeed6, 0x40385e85e85e85e8, 0x403a3f03f03f03f0, 0x4032276276276276, 0x4018dc8dc8dc8dc9],
    [0x403f6e7ff87a8e7e, 0x403851dfaa4074f2, 0x4039b33333333333, 0x403b70a3d70a3d71, 0x4031fced916872b0, 0x401ed916872b020c],
];

fn measure(inst: &Instance, samples: usize, threads: usize) -> [u64; 6] {
    let est = WelfareEstimator::new(
        &inst.graph,
        &inst.model,
        SimulationConfig {
            samples,
            threads,
            base_seed: inst.base_seed,
        },
    );
    let all = inst.base.union(&inst.add);
    let report = est.welfare_report(&all);
    assert_eq!(
        est.welfare(&all).to_bits(),
        report.welfare.to_bits(),
        "{}: welfare ≡ welfare_report().welfare",
        inst.name
    );
    assert_eq!(report.adoption_counts.len(), 2);
    let marginal = est.marginal_welfare(&inst.add, &inst.base);
    // the same two numbers as folds over kept records
    let records = WorldRecords::new(est);
    assert_eq!(records.welfare(&all).to_bits(), report.welfare.to_bits());
    assert_eq!(
        records.marginal_welfare(&inst.add, &inst.base).to_bits(),
        marginal.to_bits()
    );
    [
        report.welfare.to_bits(),
        marginal.to_bits(),
        report.total_adopters.to_bits(),
        report.informed.to_bits(),
        report.adoption_counts[0].to_bits(),
        report.adoption_counts[1].to_bits(),
    ]
}

#[test]
fn estimates_match_the_pre_kernel_bits_at_every_thread_count() {
    let mut row = 0;
    for inst in instances() {
        for samples in SAMPLES {
            for threads in THREADS {
                assert_eq!(
                    measure(&inst, samples, threads),
                    PINS[row],
                    "{} at {samples} samples, {threads} threads",
                    inst.name
                );
            }
            row += 1;
        }
    }
}
