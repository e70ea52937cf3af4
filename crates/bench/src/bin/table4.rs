//! Table 4 / Experiment 4 — early-stop effectiveness on the six graphs:
//! evaluation time without and with ES, gain%, pruned%, and top-k accuracy
//! for k ∈ {3, 5, 10}, sample size 60, 2 batches.
//!
//! Expected shape (R6/R7): ES gains up to ~10–43% and prunes up to ~70%+ of
//! aggregates on graphs with many aggregates; accuracy is 100% in most
//! cells; occasionally ES costs a little more than it saves (sampling
//! overhead) on tiny workloads.
//!
//! Run: `cargo run -p spade-bench --release --bin table4 [-- --scale N]`

use spade_bench::{
    analyzed_lattices, evaluate_all_mvd, evaluate_all_mvd_es, experiment_config, ms,
    regen_graph, topk_accuracy, HarnessArgs,
};
use spade_core::SpadeConfig;
use spade_datagen::RealisticConfig;
use spade_stats::Interestingness;

fn main() {
    let args = HarnessArgs::parse();
    let cfg = RealisticConfig { scale: args.scale, seed: args.seed };
    let config = experiment_config();

    println!("Table 4: early-stop effectiveness (sample 60, 2 batches; scale {})", args.scale);
    println!(
        "{:<10} {:>3} {:>10} {:>10} {:>8} {:>9} {:>7}",
        "Dataset", "k", "MVD ms", "MVD+ES ms", "gain%", "pruned%", "acc%"
    );
    spade_bench::rule(64);

    for name in ["Airline", "CEOs", "DBLP", "Foodista", "NASA", "Nobel"] {
        for k in [3usize, 5, 10] {
            let mut graph = regen_graph(name, &cfg);
            let prepared = analyzed_lattices(&mut graph, &config);
            let (full, t_full) = evaluate_all_mvd(&prepared, &config);
            let es_config =
                SpadeConfig { k, interestingness: Interestingness::Variance, ..config.clone() }
                    .with_early_stop();
            let (es, pruned, total, t_es) = evaluate_all_mvd_es(&prepared, &es_config);
            let gain = 100.0 * (t_full.as_secs_f64() - t_es.as_secs_f64())
                / t_full.as_secs_f64().max(1e-9);
            let pruned_pct = 100.0 * pruned as f64 / total.max(1) as f64;
            let acc = 100.0 * topk_accuracy(&full, &es, Interestingness::Variance, k);
            println!(
                "{:<10} {:>3} {:>10} {:>10} {:>7.1}% {:>8.1}% {:>6.1}%",
                name,
                k,
                ms(t_full),
                ms(t_es),
                gain,
                pruned_pct,
                acc,
            );
        }
    }
    println!();
    println!("paper: gains 10–43% where >100 aggregates exist; pruned frequently ≥70%;");
    println!("accuracy 100% in the majority of cells (Nobel being the hard case).");
    println!();
    println!("reproduction note: pruned% and accuracy match the paper's shape, but the");
    println!("time gain does not transfer to this fully in-memory engine — the paper's");
    println!("evaluation loads measures from PostgreSQL, so skipping an aggregate saves");
    println!("real I/O; here measure computation is a cached array scan and the sampling");
    println!("overhead dominates at laptop scale (the paper itself observes negative ES");
    println!("impact 'due to a sampling overhead' on its smallest workloads).");
}
