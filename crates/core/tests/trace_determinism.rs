//! Span-tree determinism for traced pipeline runs.
//!
//! `Spade::run_on_traced` must record the same span-tree **shape** (names,
//! nesting, sibling order — `Trace::shape`) no matter the thread budget:
//! parallel fan-outs record index-ordered siblings, so only timings may
//! differ between a serial and a parallel run. The top-level stages must
//! also be exactly the `StepTimings` fields the report exposes — the trace
//! and the timings are the same measurement.
//!
//! The set of distinct span paths (`evaluation/cfs/lattice/translate`, …)
//! is pinned too: per-layer timings are folded from the trace by path, so
//! a renamed or re-parented span would silently empty a layer.

use spade_core::{Budget, OfflineState, RequestConfig, Spade, SpadeConfig, Trace};
use spade_datagen::{realistic, RealisticConfig};
use std::collections::BTreeSet;

const ONLINE_STAGES: [&str; 6] = [
    "offline_analysis",
    "cfs_selection",
    "attribute_analysis",
    "enumeration",
    "evaluation",
    "topk",
];

/// Distinct span paths of a plain (no early-stop) traced run.
const SPAN_PATHS: [&str; 17] = [
    "attribute_analysis",
    "cfs_selection",
    "cfs_selection/summary_based",
    "cfs_selection/type_based",
    "enumeration",
    "enumeration/cfs",
    "enumeration/cfs/mfs",
    "evaluation",
    "evaluation/cfs",
    "evaluation/cfs/lattice",
    "evaluation/cfs/lattice/shard",
    "evaluation/cfs/lattice/translate",
    "offline_analysis",
    "topk",
    "topk/materialize",
    "topk/rank",
    "topk/score",
];

/// The early-stop run adds one path: each lattice's pruning span.
const EARLY_STOP_PATH: &str = "evaluation/cfs/lattice/earlystop";

/// The distinct `/`-joined span paths of a `Trace::shape` string
/// (`a(b;c;);` has paths `a`, `a/b` and `a/c`).
fn span_paths(shape: &str) -> BTreeSet<String> {
    let mut paths = BTreeSet::new();
    let mut stack: Vec<&str> = Vec::new();
    let mut start = 0;
    for (i, c) in shape.char_indices() {
        match c {
            '(' | ';' if start < i => {
                stack.push(&shape[start..i]);
                paths.insert(stack.join("/"));
                if c == ';' {
                    stack.pop();
                }
            }
            ')' => {
                stack.pop();
            }
            _ => {}
        }
        if matches!(c, '(' | ';' | ')') {
            start = i + 1;
        }
    }
    paths
}

fn fixture() -> (Spade, OfflineState, SpadeConfig) {
    let g = realistic::ceos(&RealisticConfig { scale: 200, seed: 2 });
    let config = SpadeConfig { k: 5, min_support: 0.3, ..Default::default() };
    let spade = Spade::new(config.clone());
    let state = OfflineState::from_graph(g, 0);
    (spade, state, config)
}

#[test]
fn trace_shape_is_identical_at_1_2_8_threads() {
    let (spade, state, _) = fixture();
    let mut shapes: Vec<(usize, String)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let trace = Trace::new();
        let request = RequestConfig { threads: Some(threads), ..Default::default() };
        let report = spade
            .run_on_traced(&state, &request, &Budget::unlimited(), Some(&trace))
            .expect("unlimited budget cannot cancel");
        assert!(!report.top.is_empty());

        // Top-level stage set and order == the StepTimings online fields.
        let stages: Vec<&str> = trace.stage_durations().iter().map(|(n, _)| *n).collect();
        assert_eq!(stages, ONLINE_STAGES, "threads={threads}");

        // The stage spans *are* the step timings: same measurement, so the
        // recorded durations agree to the trace's microsecond resolution.
        for (name, dur) in trace.stage_durations() {
            let timing = match name {
                "offline_analysis" => report.timings.offline_analysis,
                "cfs_selection" => report.timings.cfs_selection,
                "attribute_analysis" => report.timings.attribute_analysis,
                "enumeration" => report.timings.enumeration,
                "evaluation" => report.timings.evaluation,
                "topk" => report.timings.topk,
                other => panic!("unexpected stage {other}"),
            };
            let diff = timing.abs_diff(dur);
            assert!(diff.as_micros() <= 2, "stage {name}: span {dur:?} vs timing {timing:?}");
        }

        shapes.push((threads, trace.shape()));
    }
    for w in shapes.windows(2) {
        assert_eq!(
            w[0].1, w[1].1,
            "span-tree shape differs between threads={} and threads={}",
            w[0].0, w[1].0
        );
    }
    // Sanity: the tree actually descends into the evaluation fan-out.
    assert!(shapes[0].1.contains("lattice("), "shape: {}", shapes[0].1);
    assert!(shapes[0].1.contains("translate;"), "shape: {}", shapes[0].1);
    let expected: BTreeSet<String> = SPAN_PATHS.iter().map(|p| p.to_string()).collect();
    assert_eq!(span_paths(&shapes[0].1), expected, "shape: {}", shapes[0].1);
}

#[test]
fn trace_shape_with_early_stop_is_thread_invariant() {
    let (_, state, config) = fixture();
    let spade = Spade::new(SpadeConfig { k: 3, ..config }.with_early_stop());
    let build = |threads: usize| {
        let trace = Trace::new();
        let request = RequestConfig { threads: Some(threads), ..Default::default() };
        spade
            .run_on_traced(&state, &request, &Budget::unlimited(), Some(&trace))
            .expect("unlimited budget cannot cancel");
        trace.shape()
    };
    let serial = build(1);
    assert!(serial.contains("earlystop;"), "shape: {serial}");
    assert_eq!(serial, build(8));
    let expected: BTreeSet<String> =
        SPAN_PATHS.iter().chain([&EARLY_STOP_PATH]).map(|p| p.to_string()).collect();
    assert_eq!(span_paths(&serial), expected, "shape: {serial}");
}

#[test]
fn tracing_is_observation_only() {
    let (spade, state, _) = fixture();
    let untraced = spade.run_on(&state, &RequestConfig::default());
    let trace = Trace::new();
    let traced = spade
        .run_on_traced(&state, &RequestConfig::default(), &Budget::unlimited(), Some(&trace))
        .expect("unlimited budget cannot cancel");
    assert_eq!(untraced.to_json(false), traced.to_json(false));
    assert!(trace.span_count() > 0);
}
