//! Figure 12 / Experiment 6 — scalability of the online pipeline in the
//! number of facts (a), measures (b), and dimensions (c), with the
//! Aggregate Evaluation step executed through PGCube\*, MVDCube, and
//! MVDCube + early-stop.
//!
//! Base configuration (paper): |CFS| = 5M, N = 3, M = 15, uniform 100-value
//! dimensions, sparsity 0.1 — scaled by 1/20 by default.
//!
//! Expected shape (R9): MVDCube scales linearly in |CFS| and M, grows
//! faster in N; it beats PGCube\* by up to 2.9×; MVDCube+ES is fastest.
//!
//! Run: `cargo run -p spade-bench --release --bin figure12 -- [facts|measures|dims]`

use spade_bench::{ms, HarnessArgs};
use spade_cube::{EarlyStopConfig, PgCubeVariant};
use spade_datagen::{synthetic, SyntheticConfig};
use spade_stats::Interestingness;
use spade_storage::AggFn;
use std::time::Duration;

/// Evaluation time of the three systems on one synthetic configuration.
fn run_config(cfg: &SyntheticConfig) -> (Duration, Duration, Duration) {
    let cols = synthetic::generate_columns(cfg);
    let dims: Vec<_> = cols.dims.iter().collect();
    let measures: Vec<_> = cols
        .measures
        .iter()
        .map(|m| spade_cube::MeasureSpec { preagg: m, fns: vec![AggFn::Sum, AggFn::Avg] })
        .collect();
    let spec = spade_cube::CubeSpec::new(dims, measures, cols.n_facts);
    let opts = Default::default();

    let (_, t_pg) =
        spade_bench::timed(|| spade_cube::pg_cube(&spec, PgCubeVariant::Star, &opts));
    let (_, t_mvd) = spade_bench::timed(|| spade_cube::mvd_cube(&spec, &opts));
    let es = EarlyStopConfig::default();
    let (_, t_es) = spade_bench::timed(|| {
        spade_cube::mvd_cube_with_earlystop(&spec, &opts, &es, 10, Interestingness::Variance)
    });
    (t_pg, t_mvd, t_es)
}

fn print_row(label: &str, t: (Duration, Duration, Duration)) {
    let speedup = t.0.as_secs_f64() / t.1.as_secs_f64().max(1e-9);
    println!("{:<14} {:>12} {:>12} {:>12} {:>9.2}x", label, ms(t.0), ms(t.1), ms(t.2), speedup);
}

fn header(title: &str) {
    println!("{title}");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "param", "PGCube*", "MVDCube", "MVD+ES", "PG/MVD"
    );
    spade_bench::rule(64);
}

fn main() {
    let args = HarnessArgs::parse();
    let which = args.rest.first().map(String::as_str).unwrap_or("all");
    // Paper's base: |CFS| = 5M, scaled 1/20 → 250k at default scale.
    let base_facts = 250_000 * args.scale / spade_bench::DEFAULT_SCALE;
    let base = SyntheticConfig {
        n_facts: base_facts,
        dim_values: vec![100, 100, 100],
        n_measures: 15,
        sparsity: 0.1,
        multi_valued_prob: 0.0,
        seed: args.seed,
    };

    if which == "facts" || which == "all" {
        header(&format!(
            "Figure 12a: varying |CFS| (paper 1M..10M, here x{} smaller)",
            5_000_000 / base_facts.max(1)
        ));
        for mult in [0.2, 0.5, 1.0, 1.5, 2.0] {
            let cfg = SyntheticConfig {
                n_facts: (base_facts as f64 * mult) as usize,
                ..base.clone()
            };
            print_row(&format!("{}k facts", cfg.n_facts / 1000), run_config(&cfg));
        }
        println!();
    }
    if which == "measures" || which == "all" {
        header("Figure 12b: varying M (paper 5..30)");
        for m in [5usize, 10, 15, 20, 25, 30] {
            let cfg = SyntheticConfig { n_measures: m, ..base.clone() };
            print_row(&format!("M={m}"), run_config(&cfg));
        }
        println!();
    }
    if which == "dims" || which == "all" {
        header("Figure 12c: varying N (paper 1..4)");
        for n in 1usize..=4 {
            let cfg = SyntheticConfig { dim_values: vec![100; n], ..base.clone() };
            print_row(&format!("N={n}"), run_config(&cfg));
        }
        println!();
    }
    println!("paper (R9): MVDCube linear in |CFS| and M, steeper in N; up to 2.9x over");
    println!("PGCube*; MVDCube+ES consistently fastest.");
}
