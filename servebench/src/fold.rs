//! Folds per-request span trees (the `{"total_us": …, "spans": […]}`
//! objects `spade-serve` returns under `?profile=1` and keeps in
//! `/debug/slow`) by path into self times, and maps paths onto layers.
//!
//! A span's **self time** is its duration minus its children's. The
//! server evaluates each request on one thread (`threads / workers`), so
//! children never overlap and self times telescope: their sum over a tree
//! equals the sum of its top-level stage spans exactly.

use spade_core::json::Json;
use std::collections::BTreeMap;

/// Cube-engine spans below `evaluation`, and the layer each subtree
/// belongs to. A path's layer is set by the first of these it passes. At
/// one evaluation thread per request the engine emits cells inside its
/// single `shard`, and early-stop is off, so neither has a span of its
/// own here; should one appear, it counts as evaluation self time.
const CUBE_SPANS: [(&str, &str); 2] =
    [("translate", "cube.translate"), ("shard", "cube.shard")];

/// Every layer a folded path can land in.
pub const LAYERS: [&str; 8] = [
    "core.offline_analysis",
    "core.cfs_selection",
    "core.attribute_analysis",
    "core.enumeration",
    "core.evaluation_self",
    "cube.translate",
    "cube.shard",
    "core.topk",
];

/// The layer of a `/`-joined span path.
pub fn layer_of(path: &str) -> &'static str {
    let mut segments = path.split('/');
    let stage = segments.next().unwrap_or("");
    if stage == "evaluation" {
        for segment in segments {
            if let Some((_, layer)) = CUBE_SPANS.iter().find(|(name, _)| *name == segment) {
                return layer;
            }
        }
        return "core.evaluation_self";
    }
    match stage {
        "offline_analysis" => "core.offline_analysis",
        "cfs_selection" => "core.cfs_selection",
        "attribute_analysis" => "core.attribute_analysis",
        "enumeration" => "core.enumeration",
        "topk" => "core.topk",
        _ => "core.other",
    }
}

/// Self time and occurrence count of one span path, summed over requests.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathStat {
    pub count: u64,
    pub self_us: i64,
}

/// How much of one request the stage spans cover.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coverage {
    /// The trace's `total_us`.
    pub total_us: i64,
    /// Sum of the folded self times (= sum of top-level stage spans).
    pub spanned_us: i64,
    /// Spans in the tree.
    pub spans: i64,
}

impl Coverage {
    /// Time inside the traced request that no stage span covers.
    pub fn gap_us(&self) -> i64 {
        self.total_us - self.spanned_us
    }

    /// Whether the stage self times sum to `total_us` within the span
    /// clock's error: every duration is truncated to whole microseconds,
    /// so each span may be off by 1 µs.
    pub fn within_clock_error(&self) -> bool {
        self.gap_us().abs() <= self.spans
    }
}

/// Span trees folded by path.
#[derive(Debug, Default)]
pub struct Fold {
    pub requests: u64,
    pub paths: BTreeMap<String, PathStat>,
    /// Numeric span attributes summed by `(span name, attribute)`.
    pub attrs: BTreeMap<(String, String), u64>,
    /// Summed time no stage span covers (`total_us` − stage spans).
    pub gap_us: i64,
}

impl Fold {
    /// Folds one `{"total_us": …, "spans": […]}` trace.
    pub fn add(&mut self, trace: &Json) -> Result<Coverage, String> {
        let total_us =
            trace.get("total_us").and_then(Json::as_f64).ok_or("trace without total_us")?
                as i64;
        let spans = trace.get("spans").and_then(Json::as_array).ok_or("trace without spans")?;
        let mut coverage = Coverage { total_us, spanned_us: 0, spans: 0 };
        for span in spans {
            self.fold_span(span, "", &mut coverage)?;
        }
        self.requests += 1;
        self.gap_us += coverage.gap_us();
        Ok(coverage)
    }

    fn fold_span(
        &mut self,
        span: &Json,
        parent: &str,
        cov: &mut Coverage,
    ) -> Result<i64, String> {
        let name = span.get("name").and_then(Json::as_str).ok_or("span without name")?;
        let dur =
            span.get("dur_us").and_then(Json::as_f64).ok_or("span without dur_us")? as i64;
        let path = if parent.is_empty() { name.to_owned() } else { format!("{parent}/{name}") };
        cov.spans += 1;
        if let Some(attrs) = span.get("attrs").and_then(Json::as_object) {
            for (key, value) in attrs {
                if let Some(v) = value.as_f64() {
                    *self.attrs.entry((name.to_owned(), key.clone())).or_default() += v as u64;
                }
            }
        }
        let mut children_us = 0;
        if let Some(children) = span.get("children").and_then(Json::as_array) {
            for child in children {
                children_us += self.fold_span(child, &path, cov)?;
            }
        }
        let self_us = dur - children_us;
        cov.spanned_us += self_us;
        let stat = self.paths.entry(path).or_default();
        stat.count += 1;
        stat.self_us += self_us;
        Ok(dur)
    }

    /// Self time per layer in microseconds, summed over requests.
    pub fn layer_us(&self) -> BTreeMap<&'static str, i64> {
        let mut out: BTreeMap<&'static str, i64> = LAYERS.iter().map(|l| (*l, 0)).collect();
        for (path, stat) in &self.paths {
            *out.entry(layer_of(path)).or_default() += stat.self_us;
        }
        out
    }

    /// Sum of attribute `key` over spans named `span`.
    pub fn attr(&self, span: &str, key: &str) -> u64 {
        self.attrs.get(&(span.to_owned(), key.to_owned())).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Json {
        spade_core::json::parse(
            r#"{"total_us": 1000, "spans": [
                {"name": "offline_analysis", "start_us": 1, "dur_us": 50},
                {"name": "evaluation", "start_us": 60, "dur_us": 800, "children": [
                    {"name": "cfs", "start_us": 61, "dur_us": 700, "children": [
                        {"name": "lattice", "start_us": 62, "dur_us": 650,
                         "attrs": {"aggregates": 7}, "children": [
                            {"name": "translate", "start_us": 63, "dur_us": 200},
                            {"name": "shard", "start_us": 270, "dur_us": 300,
                             "attrs": {"cells": 40, "facts": 9, "thread": "w1"}},
                            {"name": "merge_emit", "start_us": 580, "dur_us": 100,
                             "children": [{"name": "emit", "start_us": 590, "dur_us": 80}]}
                        ]}
                    ]}
                ]},
                {"name": "topk", "start_us": 870, "dur_us": 120}
            ]}"#,
        )
        .expect("test trace parses")
    }

    #[test]
    fn self_times_telescope_to_the_stage_sum() {
        let mut fold = Fold::default();
        let cov = fold.add(&trace()).expect("folds");
        assert_eq!(cov.spanned_us, 50 + 800 + 120);
        assert_eq!(cov.gap_us(), 30);
        assert_eq!(cov.spans, 9);
        assert!(!cov.within_clock_error(), "30 µs uncovered by 9 spans");
        let tight = Coverage { total_us: 975, ..cov };
        assert!(tight.within_clock_error(), "5 µs within 9 spans' truncation");
        let lattice = fold.paths["evaluation/cfs/lattice"];
        assert_eq!(lattice, PathStat { count: 1, self_us: 650 - 200 - 300 - 100 });
        assert_eq!(fold.paths["evaluation/cfs/lattice/merge_emit"].self_us, 20);
    }

    #[test]
    fn paths_map_onto_layers() {
        let mut fold = Fold::default();
        fold.add(&trace()).expect("folds");
        fold.add(&trace()).expect("folds");
        let layers = fold.layer_us();
        assert_eq!(layers["cube.translate"], 400);
        assert_eq!(layers["cube.shard"], 600);
        // `merge_emit` has no layer of its own: evaluation self time.
        assert_eq!(layers["core.evaluation_self"], 2 * (100 + 50 + 50 + 100));
        assert_eq!(layers["core.topk"], 240);
        assert_eq!(layers.values().sum::<i64>(), 2 * 970);
        assert_eq!(fold.attr("shard", "cells"), 80);
        assert_eq!(fold.attr("lattice", "aggregates"), 14);
        assert_eq!(fold.attr("shard", "thread"), 0, "string attrs are skipped");
        assert_eq!(layer_of("enumeration/cfs/mfs"), "core.enumeration");
        assert_eq!(layer_of("evaluation/cfs/lattice/earlystop"), "core.evaluation_self");
    }
}
