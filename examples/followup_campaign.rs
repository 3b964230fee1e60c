//! A follow-up campaign on top of an existing one (§6.2.3 / Fig. 5): the
//! host has already seeded an inferior item `j` (top spreaders chosen with
//! IMM, exactly as the paper fixes C5/C6's inferior seeds) and now
//! allocates the superior item `i`'s seeds to maximize total welfare.
//!
//! SupGRD's weighted RR sets navigate both regimes:
//! * C6 (large utility gap) — displacing `j` at the very top spreaders is
//!   worth it, so SupGRD re-contests them;
//! * C5 (near-tied utilities) — displacement gains almost nothing, so the
//!   budget goes to uncovered regions instead.
//!
//! The second half serves the same follow-up **warm**: a prebuilt
//! standard RR-set index is selected over with SP's sets masked out
//! (an SP-conditioned view, `cwelmax-engine`), so repeated follow-up
//! queries against the fixed allocation never resample.
//!
//! Run with: `cargo run --release --example followup_campaign`

use cwelmax::core::SupGrd;
use cwelmax::engine::{CampaignQuery, EngineBuilder, QueryAlgorithm, RrIndex};
use cwelmax::graph::generators::{preferential_attachment, PaParams};
use cwelmax::prelude::*;
use cwelmax::rrset::imm::imm_select;
use cwelmax::rrset::{ImmParams, StandardRr};
use cwelmax::utility::configs::SupConfig;
use std::sync::Arc;

fn main() {
    let graph = preferential_attachment(
        PaParams {
            n: 8_000,
            edges_per_node: 4,
            directed: true,
            seed: 11,
        },
        ProbabilityModel::WeightedCascade,
    );

    // the existing campaign: inferior item j on the IMM top-20 spreaders
    let imm_params = ImmParams::default();
    let top = imm_select(&graph, &StandardRr, 20, &imm_params);
    let fixed = Allocation::from_item_seeds(1, &top.seeds);
    println!(
        "existing campaign: item j fixed on IMM top-{} seeds",
        fixed.len()
    );

    for (name, cfg) in [
        ("C5 (gap 1.0 vs 0.9)", SupConfig::C5),
        ("C6 (gap 1.0 vs 0.1)", SupConfig::C6),
    ] {
        let model = configs::supgrd_config(cfg);
        let problem = Problem::new(graph.clone(), model)
            .with_budgets(vec![20, 0])
            .with_fixed_allocation(fixed.clone())
            .with_mc_samples(500);

        match SupGrd::check_conditions(&problem) {
            Ok(im) => println!("\n{name}: superior item detected = i{im}"),
            Err(why) => println!("\n{name}: conditions violated: {why:?}"),
        }

        let sup = SupGrd.solve(&problem);
        let seq = SeqGrd::new(SeqGrdMode::NoMarginal).solve(&problem);
        let overlap = sup
            .allocation
            .seeds_of(0)
            .iter()
            .filter(|v| top.seeds.contains(v))
            .count();
        println!(
            "  SupGRD    welfare {:9.1}  (re-contests {overlap}/20 of j's seeds, {:?})",
            problem.evaluate(&sup.allocation),
            sup.elapsed,
        );
        println!(
            "  SeqGRD-NM welfare {:9.1}  ({:?})",
            problem.evaluate(&seq.allocation),
            seq.elapsed,
        );
    }

    // --- the serving path: the same follow-up, warm -----------------------
    // Build the standard index once (the expensive step a real deployment
    // does offline with `cwelmax index build`), then answer SP-conditioned
    // campaigns from it with zero resampling.
    let graph = Arc::new(graph);
    println!("\nbuilding RR-set index for warm follow-up serving…");
    let index = Arc::new(RrIndex::build(&graph, 20, &imm_params));
    let engine = EngineBuilder::from_index(index)
        .graph(graph)
        .build()
        .unwrap();

    let query = CampaignQuery::new(
        configs::two_item_config(configs::TwoItemConfig::C1),
        vec![20, 20],
        QueryAlgorithm::SeqGrdNm,
    )
    .with_sp(fixed.clone())
    .with_samples(500);

    let first = engine.query(&query).unwrap(); // derives + caches the view
    let repeat = engine.query(&query).unwrap(); // served from the view cache
    assert_eq!(first.allocation, repeat.allocation);
    println!(
        "warm follow-up: welfare {:.1}; first query (view derivation) {:?}, \
         repeat {:?} — conditioned views {} / cache hits {}",
        repeat.welfare,
        first.elapsed,
        repeat.elapsed,
        engine.stats().conditioned_views,
        engine.stats().conditioned_hits,
    );
}
