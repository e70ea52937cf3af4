//! The paper's experimental *shapes* (its R1–R7 remarks), asserted as
//! integration tests at small scale. Timing-based remarks (R2, R3, R6, R9)
//! are exercised by the harness binaries instead — wall-clock assertions
//! are too flaky for CI — but every structural/correctness remark is
//! checked here.

use spade::prelude::*;
use spade_bench::{
    analyzed_lattices, compare_systems, evaluate_all_mvd, evaluate_all_mvd_es,
    experiment_config, regen_graph, topk_accuracy,
};
use spade_datagen::RealisticConfig;

const SCALE: usize = 150;

fn cfg() -> RealisticConfig {
    RealisticConfig { scale: SCALE, seed: 17 }
}

/// R1 — "derivations increase the total number of enumerated MDAs" and the
/// interestingness of the best aggregates, on every native-RDF graph.
#[test]
fn r1_derivations_enrich_the_search_space() {
    for name in ["CEOs", "DBLP", "Foodista", "NASA", "Nobel"] {
        let mut g_wod = regen_graph(name, &cfg());
        let mut g_wd = regen_graph(name, &cfg());
        let base = SpadeConfig { k: usize::MAX, ..experiment_config() };
        let wod = Spade::new(base.clone().without_derivations()).run(&mut g_wod);
        let wd = Spade::new(base).run(&mut g_wd);
        assert!(
            wd.profile.aggregates > wod.profile.aggregates,
            "{name}: wD {} ≤ woD {}",
            wd.profile.aggregates,
            wod.profile.aggregates
        );
        let best = |r: &spade::core::SpadeReport| r.top.first().map(|t| t.score).unwrap_or(0.0);
        assert!(best(&wd) >= best(&wod), "{name}: best wD score regressed");
    }
}

/// R1's Airline counterpoint: the converted-relational graph derives
/// nothing, so woD and wD coincide.
#[test]
fn r1_airline_has_no_derivations() {
    let mut g = regen_graph("Airline", &cfg());
    let report = Spade::new(experiment_config()).run(&mut g);
    assert_eq!(report.profile.derivations.total(), 0);
}

/// R4 — both PGCube variants are wrong on a noticeable share of aggregates
/// on the multi-valued graphs; PGCube^d repairs some but not all; the
/// single-valued Airline graph has zero errors.
#[test]
fn r4_pgcube_error_counts() {
    let mut airline = regen_graph("Airline", &cfg());
    let a = compare_systems("Airline", &mut airline, &experiment_config());
    assert_eq!(a.star_report.wrong_aggregates, 0, "Airline is single-valued");
    assert_eq!(a.distinct_report.wrong_aggregates, 0);

    for name in ["CEOs", "Nobel"] {
        let mut g = regen_graph(name, &cfg());
        let c = compare_systems(name, &mut g, &experiment_config());
        assert!(c.star_report.wrong_aggregates > 0, "{name}");
        assert!(c.star_report.wrong_fraction() > 0.05, "{name}: error share too low");
        assert!(
            c.distinct_report.wrong_aggregates <= c.star_report.wrong_aggregates,
            "{name}: count(distinct) must not add errors"
        );
        assert!(c.distinct_report.wrong_aggregates > 0, "{name}: sums stay wrong");
    }
}

/// R5 — error ratios are overcounts and reach multiples of the true value.
#[test]
fn r5_error_ratios_are_large_overcounts() {
    let mut g = regen_graph("CEOs", &cfg());
    let c = compare_systems("CEOs", &mut g, &experiment_config());
    let max = c.distinct_report.max_ratio().expect("errors exist");
    assert!(max > 2.0, "worst ratio {max} too small");
    for (label, ratios) in &c.distinct_report.error_ratios {
        if label.starts_with("count") || label.starts_with("sum") {
            assert!(ratios.iter().all(|&r| r > 1.0), "{label} undercounts");
        }
    }
}

/// R7 — early-stop stays accurate: on every graph, with k = 5 and the
/// paper's 60×2 sampling, the ES top-k matches the exact top-k well.
#[test]
fn r7_early_stop_accuracy() {
    for name in ["Airline", "CEOs", "NASA", "Nobel"] {
        let mut g = regen_graph(name, &cfg());
        let config = experiment_config();
        let prepared = analyzed_lattices(&mut g, &config);
        let (full, _) = evaluate_all_mvd(&prepared, &config);
        let es_config = SpadeConfig { k: 5, ..config }.with_early_stop();
        let (es, pruned, total, _) = evaluate_all_mvd_es(&prepared, &es_config);
        let acc = topk_accuracy(&full, &es, Interestingness::Variance, 5);
        assert!(acc >= 0.8, "{name}: accuracy {acc}");
        assert!(pruned <= total);
    }
}

/// The Figure 6(c) story: on NASA, the crewed/experiment disciplines have
/// far heavier spacecraft, and the aggregate surfaces in the top-k.
#[test]
fn figure6c_mass_by_discipline() {
    let mut g = regen_graph("NASA", &cfg());
    let report = Spade::new(SpadeConfig {
        k: 15,
        dimension_stop_list: vec!["name".into()],
        ..experiment_config()
    })
    .run(&mut g);
    let story = report
        .top
        .iter()
        .find(|t| t.mda.contains("mass") && t.dims.iter().any(|d| d == "discipline"))
        .expect("mass-by-discipline aggregate in top-k");
    // Human crew must be among the heaviest groups shown.
    assert!(
        story.sample_groups.iter().take(4).any(|(l, _)| l.contains("Human crew")),
        "groups: {:?}",
        story.sample_groups
    );
}
