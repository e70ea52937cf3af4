//! Parallel evaluation must be a pure performance knob: any
//! `SpadeConfig::threads` value yields bit-identical `CubeResult`s and an
//! identical top-k list, because the fan-out merges outcomes in input order
//! and every per-lattice computation is single-owner.

use spade_core::analysis::analyze_cfs;
use spade_core::cfs::{select, CfsStrategy};
use spade_core::enumeration::enumerate;
use spade_core::evaluate::evaluate_cfs;
use spade_core::offline;
use spade_core::{Budget, Exec, Spade, SpadeConfig};
use spade_cube::CubeResult;
use spade_datagen::{realistic, RealisticConfig};

/// Exact (bit-level) equality of two cube results: the same labels, nodes
/// and group keys, read as two key-ordered streams, with the same per-MDA
/// values down to the f64 bit pattern.
fn assert_results_identical(a: &CubeResult, b: &CubeResult, context: &str) {
    let bits = |v: &[Option<f64>]| v.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
    assert_eq!(a.mda_labels, b.mda_labels, "{context}: MDA labels");
    assert!(a.nodes.keys().eq(b.nodes.keys()), "{context}: node sets");
    for (na, nb) in a.nodes.values().zip(b.nodes.values()) {
        assert_eq!(na.group_count(), nb.group_count(), "{context}: node {:b}", na.mask);
        for ((ka, va), (kb, vb)) in na.groups().zip(nb.groups()) {
            assert_eq!((ka, bits(va)), (kb, bits(vb)), "{context}: node {:b}", na.mask);
        }
    }
}

fn run_evaluation(threads: usize) -> Vec<CubeResult> {
    let g = realistic::ceos(&RealisticConfig { scale: 250, seed: 9 });
    let config = SpadeConfig { min_support: 0.3, threads, ..Default::default() };
    let stats = offline::analyze_budgeted(&g, 1, &Budget::unlimited()).unwrap();
    let (derived, _) =
        offline::enumerate_derivations(&g, &stats, &config, &Exec::new(1)).unwrap();
    let cfs_list =
        select(&g, &[CfsStrategy::TypeBased], &config, &Exec::new(config.threads)).unwrap();
    let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
    let analysis = analyze_cfs(&g, ceo, &derived, &config);
    let lattices = enumerate(&analysis, &config, &Exec::new(config.threads)).unwrap();
    assert!(lattices.len() > 1, "need multiple lattices to exercise the fan-out");
    let eval = evaluate_cfs(&analysis, &lattices, &config, &Exec::new(config.threads)).unwrap();
    eval.results
}

#[test]
fn evaluation_is_bit_identical_across_thread_counts() {
    let serial = run_evaluation(1);
    for threads in [2usize, 8] {
        let parallel = run_evaluation(threads);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_results_identical(a, b, &format!("threads={threads} lattice={i}"));
        }
    }
}

fn run_pipeline(threads: usize, early_stop: bool) -> Vec<(String, u64, usize)> {
    let mut g = realistic::ceos(&RealisticConfig { scale: 300, seed: 2 });
    let mut config = SpadeConfig { k: 8, min_support: 0.3, threads, ..Default::default() };
    if early_stop {
        config = config.with_early_stop();
    }
    let report = Spade::new(config).run(&mut g);
    report.top.iter().map(|t| (t.description(), t.score.to_bits(), t.groups)).collect()
}

#[test]
fn top_k_is_identical_across_thread_counts() {
    let serial = run_pipeline(1, false);
    assert!(!serial.is_empty());
    for threads in [2usize, 8] {
        assert_eq!(serial, run_pipeline(threads, false), "threads={threads}");
    }
}

#[test]
fn top_k_with_early_stop_is_identical_across_thread_counts() {
    // Early-stop draws per-lattice seeded samples; pruning decisions must
    // not depend on scheduling.
    let serial = run_pipeline(1, true);
    assert!(!serial.is_empty());
    for threads in [2usize, 8] {
        assert_eq!(serial, run_pipeline(threads, true), "threads={threads}");
    }
}

/// The thread counts every intra-lattice test sweeps: 1/2/8 always, plus an
/// optional `SPADE_TEST_THREADS` override so CI can pin an exact worker
/// count (the release job sets 8).
fn thread_sweep() -> Vec<usize> {
    let mut sweep = vec![1usize, 2, 8];
    if let Some(n) = std::env::var("SPADE_TEST_THREADS").ok().and_then(|v| v.parse().ok()) {
        if !sweep.contains(&n) {
            sweep.push(n);
        }
    }
    sweep
}

/// One *single-CFS, single-lattice* workload — the shape the region-sharded
/// executor targets: all parallelism must come from inside the one lattice.
fn single_lattice_run(threads: usize, early_stop: bool) -> (Vec<CubeResult>, usize) {
    let g = realistic::ceos(&RealisticConfig { scale: 300, seed: 11 });
    let mut config = SpadeConfig { min_support: 0.3, threads, ..Default::default() };
    if early_stop {
        config = SpadeConfig { k: 2, ..config }.with_early_stop();
    }
    let stats = offline::analyze_budgeted(&g, 1, &Budget::unlimited()).unwrap();
    let (derived, _) =
        offline::enumerate_derivations(&g, &stats, &config, &Exec::new(1)).unwrap();
    let cfs_list =
        select(&g, &[CfsStrategy::TypeBased], &config, &Exec::new(config.threads)).unwrap();
    let ceo = cfs_list.iter().find(|c| c.name == "type:CEO").unwrap();
    let analysis = analyze_cfs(&g, ceo, &derived, &config);
    let lattices = enumerate(&analysis, &config, &Exec::new(config.threads)).unwrap();
    // Restrict to ONE lattice so the per-CFS/per-lattice fan-out degenerates
    // and only the intra-lattice (region-shard) parallelism remains.
    let one = vec![lattices.into_iter().next().expect("CEOs yield a lattice")];
    let eval = evaluate_cfs(&analysis, &one, &config, &Exec::new(config.threads)).unwrap();
    (eval.results, eval.pruned_by_es)
}

#[test]
fn single_lattice_evaluation_is_bit_identical_across_thread_counts() {
    let (serial, _) = single_lattice_run(1, false);
    assert_eq!(serial.len(), 1);
    for threads in thread_sweep() {
        let (parallel, _) = single_lattice_run(threads, false);
        assert_results_identical(&serial[0], &parallel[0], &format!("threads={threads}"));
    }
}

#[test]
fn single_lattice_early_stop_is_bit_identical_across_thread_counts() {
    // The early-stop pruning loop aggregates per-node shard counters; its
    // decisions (and the pruned evaluation) must not depend on scheduling.
    let (serial, serial_pruned) = single_lattice_run(1, true);
    assert!(serial_pruned > 0, "workload must actually trigger early-stop pruning");
    for threads in thread_sweep() {
        let (parallel, pruned) = single_lattice_run(threads, true);
        assert_eq!(serial_pruned, pruned, "threads={threads}: pruned count");
        assert_results_identical(&serial[0], &parallel[0], &format!("threads={threads} es"));
    }
}
