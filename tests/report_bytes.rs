//! Pins the exact bytes of served reports: a change that alters any
//! score, ranking, label or counter of a report moves this digest.
//!
//! The corpus goes through the serving path's own steps (N-Triples text,
//! parallel ingest, offline analysis) and the config is the serving
//! benchmark's base config. Only variance is pinned: skewness, kurtosis and
//! early-stop call libm `powf`/`ln`/`exp`, whose last bits may differ
//! across platforms.

use spade::core::{OfflineState, RequestConfig, Spade, SpadeConfig};
use spade::datagen::{realistic, RealisticConfig};
use spade::stats::Interestingness;

/// FNV-1a, 64 bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn variance_reports_match_the_pinned_digest() {
    let graph = realistic::ceos(&RealisticConfig { scale: 120, seed: 7 });
    let graph = spade::rdf::ingest(&spade::rdf::write_ntriples(&graph), 1).expect("own output");
    let state = OfflineState::from_graph(graph, 1);
    let spade = Spade::new(SpadeConfig {
        min_support: 0.3,
        min_cfs_size: 20,
        max_cfs: 8,
        interestingness: Interestingness::Variance,
        ..SpadeConfig::default()
    });
    let mut reports = String::new();
    for k in [None, Some(1), Some(25)] {
        let request = RequestConfig { k, ..Default::default() };
        reports.push_str(&spade.run_on(&state, &request).to_json(false));
    }
    assert_eq!(reports.len(), 17_050);
    assert_eq!(format!("{:016x}", fnv1a64(reports.as_bytes())), "54275be11aba080e");
}
