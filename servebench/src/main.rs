//! `servebench` — the serving benchmark for Spade.
//!
//! One command generates seeded traffic in this process and sends it over
//! loopback to an in-process `spade-serve` server, checks every answer
//! against an in-process oracle, and prints the metrics by name and unit.
//!
//! ```text
//! servebench --workload <cold|refine> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (the seed drives the traffic; the corpora are fixed):
//!
//! * `cold` — one closed-loop client on the CEOs graph; each iteration
//!   reloads the graph, then sends the default explore, so every explore
//!   runs all five online steps and no cache helps.
//! * `refine` — one closed-loop analyst session per core, each on its own
//!   graph, with the result cache on: first looks, one-knob refinements
//!   and exact repeats (see [`stream::Session`]).
//!
//! A cache-hit-only workload and an open-loop multi-graph catalog workload
//! are not here: on a shared two-core host their tails (p99.9 of a 40 µs
//! hit; snapshot reopen stalls) swing from run to run by more than any
//! regression bound could allow.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced (fresh set-up each time) and reports
//! the per-layer split. The last line of standard output is the result
//! object; the line before it is the full record with its provenance.
//! Exit codes: 0 success, 1 a failed run or correctness check, 2 usage.

mod fold;
mod harness;
mod stats;
mod stream;

use harness::{Deployment, Log, Oracle, Plan};
use spade_core::json::{Json, JsonWriter};
use spade_serve::server::ServeConfig;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Duration;
use stream::{Explore, Req, StreamStats};

/// CEOs scale of the `cold` and `refine` graphs: a cold explore takes
/// about 100 ms through the server on one core, so a 30 s `cold` run has
/// some 300 samples, well above the 100 a p90 needs.
const CEOS_SCALE: usize = 120;
/// Span trees and ledger records the traced server keeps, per request the
/// untraced phase sent (the traced phase sends fewer). A traced run fails
/// if the server still dropped any: a wrapped ring or a worst-N slow log
/// would leave a biased subset to fold and grade.
const RETENTION_PER_REQUEST: usize = 2;

const WORKLOADS: [&str; 2] = ["cold", "refine"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!(
        "servebench: {problem}\nusage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                );
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The graphs and priming of each workload.
fn plan(workload: &str) -> Plan {
    let ceos = |graph: &str, seed| harness::ceos(graph, CEOS_SCALE, seed);
    match workload {
        "cold" => Plan {
            corpora: vec![ceos("ceos", harness::CORPUS_SEED)],
            priming: vec![Req::explore(0, Explore::default())],
        },
        "refine" => {
            // One graph per analyst, each its own CEOs variant; primed
            // with a body no session sends (k = 1).
            let n = nproc();
            Plan {
                corpora: (0..n)
                    .map(|i| ceos(&format!("analyst{i}"), harness::CORPUS_SEED + i as u64))
                    .collect(),
                priming: (0..n)
                    .map(|g| Req::explore(g, Explore { k: Some(1), ..Explore::default() }))
                    .collect(),
            }
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// The client streams of a workload, one per closed-loop client.
fn streams(workload: &str, seed: u64) -> Vec<Box<dyn Iterator<Item = Req> + Send>> {
    match workload {
        "cold" => vec![Box::new(stream::cold())],
        "refine" => {
            (0..nproc()).map(|c| Box::new(stream::Session::new(seed, c, c)) as Box<_>).collect()
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// Server-side state scraped around the measured phase (traced runs).
struct Scrape {
    metrics: HashMap<String, f64>,
    queries: Json,
}

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    Ok(Scrape {
        metrics: harness::scrape_metrics(addr)?,
        queries: harness::get_json(addr, "/debug/queries")?,
    })
}

/// One measured phase: set-up, traffic, scrapes, verification.
struct Phase {
    setup_s: f64,
    setup_reps: Vec<f64>,
    layers: BTreeMap<&'static str, f64>,
    triples: usize,
    snapshot_bytes: u64,
    snapshots: Vec<PathBuf>,
    log: Log,
    wall: f64,
    rss_mb: f64,
    stream: StreamStats,
    /// Closed-loop clients, each on its own keep-alive connection.
    clients: usize,
    /// Traced only: scrapes before and after, and the phase's span trees.
    before: Option<Scrape>,
    after: Option<Scrape>,
    traces: Vec<String>,
    /// Slow-log entries of the phase, whatever their status.
    slow_kept: usize,
    /// Whether `traces` came back on `?profile=1` explores (else from the
    /// server's slow log).
    profiled: bool,
}

/// Runs one phase; `retention` (traced phases only) sizes the server's
/// slow log and ledger ring.
fn run_phase(
    args: &Args,
    plan: &Plan,
    retention: Option<usize>,
    root: &Path,
) -> Result<Phase, String> {
    let names = plan.names();
    let traced = retention.is_some();
    // Servers run the default config: one worker per core, result cache on.
    let mut config = ServeConfig { addr: "127.0.0.1:0".to_owned(), ..ServeConfig::default() };
    if let Some(retention) = retention {
        config.slow_capacity = retention;
        config.ledger_capacity = retention;
    }
    let Deployment {
        server,
        snapshots,
        setup_s,
        setup_reps,
        layers,
        triples,
        snapshot_bytes,
        primed,
    } = harness::deploy(plan, &config, root, nproc())?;
    let addr = server.local_addr();
    let before = if traced { Some(scrape(addr)?) } else { None };
    let mut stream = StreamStats::new(names.len());
    for req in &plan.priming {
        stream.prime(req);
    }
    // Profiled explores return their span tree; only `cold` uses it, where
    // every explore misses anyway. Elsewhere `?profile=1` would bypass the
    // result cache, so the slow log supplies the traces.
    let profile = traced && args.workload == "cold";
    let clients = streams(args.workload, args.seed);
    let client_count = clients.len();
    let (logs, wall) = harness::closed_loop(addr, &names, clients, args.seconds, profile);
    // Read before the bench builds anything more of its own.
    let rss_mb = harness::rss_mb();
    // The streams are deterministic: replay what each client sent.
    let mut log = Log::default();
    for (replay, client_log) in streams(args.workload, args.seed).into_iter().zip(logs) {
        for req in replay.take(client_log.sent) {
            stream.observe(&req);
        }
        log.merge(client_log);
    }
    let after = if traced { Some(scrape(addr)?) } else { None };
    let (traces, slow_kept) = match &before {
        Some(_) if profile => (std::mem::take(&mut log.traces), 0),
        Some(before) => {
            let floor = harness::ledger_max_id(&before.queries);
            let slow = harness::get_json(addr, "/debug/slow")?;
            let entries: Vec<&Json> = slow
                .get("entries")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter(|e| e.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64 > floor)
                .collect();
            let traces = entries
                .iter()
                .filter(|e| e.get("status").and_then(Json::as_f64) == Some(200.0))
                .filter_map(|e| e.get("trace").map(spade_core::json::canonical))
                .collect();
            (traces, entries.len())
        }
        _ => (Vec::new(), 0),
    };
    if !server.shutdown(Duration::from_secs(30)) {
        return Err("server did not drain".to_owned());
    }
    // Priming answers are checked like every other 200.
    for (req, body) in primed {
        if let stream::Op::Explore(e) = req.op {
            log.check_first((req.graph, e), body);
        }
    }
    Ok(Phase {
        setup_s,
        setup_reps,
        layers,
        triples,
        snapshot_bytes,
        snapshots,
        log,
        wall,
        rss_mb,
        stream,
        clients: client_count,
        before,
        after,
        traces,
        slow_kept,
        profiled: profile,
    })
}

/// End-to-end figures of one phase.
struct EndToEnd {
    p50_ms: f64,
    tail: stats::Tail,
    throughput_rps: f64,
    ok_frac: f64,
    samples: usize,
}

fn end_to_end(phase: &Phase) -> Result<EndToEnd, String> {
    let sorted = phase.log.sorted_latencies();
    let p50_ms = stats::percentile(&sorted, 500).ok_or("no successful explores")?;
    let tail = stats::tail(&sorted).ok_or_else(|| {
        format!("{} successful explores: too few for a tail percentile", sorted.len())
    })?;
    Ok(EndToEnd {
        p50_ms,
        tail,
        throughput_rps: sorted.len() as f64 / phase.wall,
        ok_frac: sorted.len() as f64 / phase.log.explores.max(1) as f64,
        samples: sorted.len(),
    })
}

/// Checks every distinct first body of `phase` against the oracle.
fn verify(phase: &Phase, oracle: &mut Option<Oracle>) -> Result<(), String> {
    if !phase.log.mismatches.is_empty() {
        return Err(format!("answers disagree: {}", phase.log.mismatches.join("; ")));
    }
    let oracle = match oracle {
        Some(oracle) => {
            // A second phase serves freshly built snapshots: they must be
            // the very bytes the oracle opened.
            for (mine, theirs) in phase.snapshots.iter().zip(&oracle.snapshots) {
                let same = std::fs::read(mine).map_err(|e| e.to_string())?
                    == std::fs::read(theirs).map_err(|e| e.to_string())?;
                if !same {
                    return Err(format!(
                        "{} is not byte-identical across phases",
                        mine.display()
                    ));
                }
            }
            oracle
        }
        None => oracle.insert(Oracle::new(phase.snapshots.clone())),
    };
    let bad = oracle.check(&phase.log.firsts, nproc())?;
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("{} bodies differ from the oracle: {}", bad.len(), bad.join("; ")))
    }
}

/// Named metric values with units, in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        for (name, value, unit) in &self.0 {
            w.key(name).begin_object();
            w.key("value").f64(*value);
            w.key("unit").string(unit);
            w.end_object();
        }
        w.end_object();
    }
}

fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    let get = |s: &Scrape| s.metrics.get(series).copied().unwrap_or(0.0);
    get(after) - get(before)
}

/// A histogram's observation sum (seconds) and count over the phase.
fn histogram_delta(before: &Scrape, after: &Scrape, name: &str, labels: &str) -> (f64, f64) {
    let sum = delta(before, after, &format!("{name}_sum{labels}"));
    (sum, delta(before, after, &format!("{name}_count{labels}")))
}

/// Mean of `sum` seconds over `count` observations, in ms (0 if none).
fn mean_ms(sum: f64, count: f64) -> f64 {
    if count > 0.0 {
        sum / count * 1e3
    } else {
        0.0
    }
}

/// The ledger records of the phase, or an error when the ring dropped
/// some of them.
fn phase_ledger<'a>(before: &Scrape, after: &'a Scrape) -> Result<Vec<&'a Json>, String> {
    let floor = harness::ledger_max_id(&before.queries);
    let entries: Vec<&Json> = after
        .queries
        .get("entries")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|e| e.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64 > floor)
        .collect();
    let recorded = |s: &Scrape| s.queries.get("recorded_total").and_then(Json::as_f64);
    let recorded = recorded(after).unwrap_or(0.0) - recorded(before).unwrap_or(0.0);
    if (entries.len() as f64) < recorded {
        return Err(format!(
            "the ledger kept {} of the phase's {recorded} records: raise its retention",
            entries.len()
        ));
    }
    Ok(entries)
}

/// Estimate-vs-actual q-errors of the cold successful explores the ledger
/// recorded during the phase (the scorecard's grading rule).
fn q_errors(ledger: &[&Json]) -> Vec<f64> {
    let mut q: Vec<f64> = ledger
        .iter()
        .filter(|e| e.get("class").and_then(Json::as_str) == Some("ok"))
        .filter(|e| e.get("cache").and_then(Json::as_str) != Some("hit"))
        .filter_map(|e| {
            let est = e.get("estimated_cost")?.as_f64()?.max(1.0);
            let act = e.get("actual_cost")?.as_f64()?.max(1.0);
            Some((est / act).max(act / est))
        })
        .collect();
    q.sort_by(f64::total_cmp);
    q
}

/// The per-layer split of a traced phase.
fn per_layer(
    phase: &Phase,
    oracle: &Oracle,
    untraced_p50: f64,
    traced_p50: f64,
    tail: &stats::Tail,
) -> Result<(Metrics, fold::Fold, usize), String> {
    let (before, after) =
        (phase.before.as_ref().expect("traced"), phase.after.as_ref().expect("traced"));
    let mut m = Metrics::default();
    let layer = |name: &str| phase.layers.get(name).copied().unwrap_or(0.0);
    m.put("rdf.ingest_ms", layer("rdf.ingest"), "ms");
    m.put("rdf.saturate_ms", layer("rdf.saturate"), "ms");
    m.put("rdf.triples", phase.triples as f64, "count");
    m.put("core.offline.analyze_ms", layer("core.offline.analyze"), "ms");
    m.put("store.write_ms", layer("store.write"), "ms");
    let opens = oracle.clock.calls.get("store.open").copied().unwrap_or(0).max(1) as f64;
    m.put("store.open_ms", oracle.clock.ms("store.open") / opens, "ms");
    m.put("store.bytes", phase.snapshot_bytes as f64, "bytes");

    let hits = delta(before, after, "spade_serve_cache_hits_total");
    let misses = delta(before, after, "spade_serve_cache_misses_total");
    m.put("serve.cache.hits", hits, "count");
    m.put("serve.cache.misses", misses, "count");
    m.put(
        "serve.cache.hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
        "ratio",
    );
    // Server-side time of result-cache misses, and of all explores (hits
    // included), from the per-route request histograms.
    let route = |r: &str| {
        histogram_delta(
            before,
            after,
            "spade_serve_request_seconds",
            &format!("{{route=\"{r}\"}}"),
        )
    };
    let ((cold_s, cold_n), (warm_s, warm_n)) = (route("explore_cold"), route("explore_warm"));
    m.put("serve.server_ms.explore_cold", mean_ms(cold_s, cold_n), "ms");
    m.put("serve.server_ms.explore", mean_ms(cold_s + warm_s, cold_n + warm_n), "ms");
    m.put(
        "serve.catalog.loads",
        delta(before, after, "spade_serve_graph_loads_total"),
        "count",
    );
    let q = q_errors(&phase_ledger(before, after)?);
    m.put("serve.admission.graded", q.len() as f64, "count");
    let geo = if q.is_empty() {
        0.0
    } else {
        (q.iter().map(|x| x.ln()).sum::<f64>() / q.len() as f64).exp()
    };
    m.put("serve.admission.q_error_geo_mean", geo, "ratio");
    m.put("serve.admission.q_error_p95", stats::percentile(&q, 950).unwrap_or(0.0), "ratio");

    // The pipeline's own span trees, folded by path. The slow log keeps
    // every cache miss (and only those) while under its capacity.
    if !phase.profiled && (phase.slow_kept as f64) < misses {
        return Err(format!(
            "the slow log kept {} of the phase's {misses} misses: raise its retention",
            phase.slow_kept
        ));
    }
    let mut fold = fold::Fold::default();
    let mut outside = 0;
    for text in &phase.traces {
        let trace = spade_core::json::parse(text).map_err(|e| format!("trace JSON: {e}"))?;
        let coverage = fold.add(&trace)?;
        // Only a profiled trace's total_us is the pipeline call alone; the
        // slow log's also covers routing and the catalog lookup.
        if phase.profiled && !coverage.within_clock_error() {
            outside += 1;
        }
    }
    let per_request = |v: f64| if fold.requests > 0 { v / fold.requests as f64 } else { 0.0 };
    let layers = fold.layer_us();
    m.put("core.traced_requests", fold.requests as f64, "count");
    for name in fold::LAYERS {
        let metric = match name {
            "core.evaluation_self" => "core.evaluation_self_ms".to_owned(),
            other => format!("{other}_ms"),
        };
        m.put(&metric, per_request(layers[name] as f64) / 1e3, "ms");
    }
    m.put("core.unspanned_ms", per_request(fold.gap_us as f64) / 1e3, "ms");
    m.put("core.clock_check_failures", outside as f64, "count");
    m.put(
        "core.aggregates",
        per_request(fold.attr("lattice", "aggregates") as f64),
        "count/req",
    );
    m.put("cube.cells", per_request(fold.attr("shard", "cells") as f64), "count/req");
    m.put("cube.facts", per_request(fold.attr("shard", "facts") as f64), "count/req");
    m.put("telemetry.record_ns", harness::telemetry_record_ns(), "ns");
    m.put("bench.trace_overhead_pct", 100.0 * (traced_p50 / untraced_p50 - 1.0), "%");
    m.put("bench.trace_base_p50_ms", untraced_p50, "ms");
    m.put("bench.samples", phase.log.sorted_latencies().len() as f64, "count");
    m.put("bench.tail_percentile", f64::from(tail.permille) / 10.0, "percentile");
    Ok((m, fold, outside))
}

/// `rustc -V`, or `unknown`.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit from `.git`, or `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn write_stream(w: &mut JsonWriter, s: &StreamStats, names: &[String]) {
    w.begin_object();
    w.key("explores").usize(s.explores);
    w.key("reloads").usize(s.reloads);
    w.key("distinct_requests").usize(s.distinct());
    w.key("exact_repeat_share").f64(s.share(s.exact_repeats));
    w.key("shared_generation_cfs_refinement_share").f64(s.share(s.shared_cfs_refinements));
    w.key("requests_per_graph").begin_object();
    for (name, n) in names.iter().zip(&s.per_graph) {
        w.key(name).usize(*n);
    }
    w.end_object();
    w.end_object();
}

fn run(args: &Args, root: &Path) -> Result<(String, String), String> {
    let plan = plan(args.workload);
    let names = plan.names();
    let mut oracle = None;
    let untraced = run_phase(args, &plan, None, &root.join("untraced"))?;
    verify(&untraced, &mut oracle)?;
    let e2e = end_to_end(&untraced)?;
    let traced = if args.trace {
        let retention = RETENTION_PER_REQUEST * untraced.log.sent.max(1024);
        let phase = run_phase(args, &plan, Some(retention), &root.join("traced"))?;
        verify(&phase, &mut oracle)?;
        Some(phase)
    } else {
        None
    };
    let oracle = oracle.expect("verified above");

    let mut record = JsonWriter::compact();
    record.begin_object();
    record.key("bench").string("servebench");
    record.key("workload").string(args.workload);
    record.key("provenance").begin_object();
    record.key("nproc").usize(nproc());
    record.key("commit").string(&commit());
    record.key("rustc").string(&rustc_version());
    record.key("seed").uint(args.seed);
    record.key("seconds").f64(args.seconds);
    record.key("clients").usize(untraced.clients);
    record.key("connections").usize(untraced.clients);
    record.key("setup_reps").usize(harness::SETUP_REPS);
    record.end_object();
    record.key("samples").usize(e2e.samples);
    record.key("latency_deciles_ms").begin_array();
    let sorted = untraced.log.sorted_latencies();
    for permille in (100..=900).step_by(100) {
        record.f64(stats::percentile(&sorted, permille).unwrap_or(0.0));
    }
    record.end_array();
    record.key("tail_percentile").string(&e2e.tail.label());
    record.key("tail_samples_beyond").usize(e2e.tail.beyond);
    record.key("setup_s_reps").begin_array();
    for s in &untraced.setup_reps {
        record.f64(*s);
    }
    record.end_array();
    record.key("failures_by_status").begin_object();
    for (status, n) in &untraced.log.failures {
        record.key(&status.to_string()).usize(*n);
    }
    record.end_object();
    record.key("stream");
    write_stream(&mut record, &untraced.stream, &names);

    let mut end_to_end_metrics = Metrics::default();
    let m = &mut end_to_end_metrics;
    m.put("latency_p50_ms", e2e.p50_ms, "ms");
    m.put("latency_tail_ms", e2e.tail.value, "ms");
    m.put("throughput_rps", e2e.throughput_rps, "1/s");
    m.put("ok_frac", e2e.ok_frac, "ratio");
    m.put("rss_mb", untraced.rss_mb, "MB");
    m.put("setup_s", untraced.setup_s, "s");
    record.key("end_to_end");
    end_to_end_metrics.write(&mut record);

    let (result, attempted, failed) = match &traced {
        None => (end_to_end_metrics, untraced.log.sent, untraced.log.failed()),
        Some(phase) => {
            let traced_e2e = end_to_end(phase)?;
            let (m, folded, outside) =
                per_layer(phase, &oracle, e2e.p50_ms, traced_e2e.p50_ms, &traced_e2e.tail)?;
            if outside > 0 {
                // A finding about the program, not a wrong answer: time
                // inside the request that no stage span covers.
                eprintln!(
                    "servebench: {outside} profiled requests' stage self times miss their \
                     total_us by more than the span clock's error (see core.unspanned_ms)"
                );
            }
            // The folded span paths: occurrences and self time per traced
            // request.
            record.key("span_paths").begin_object();
            let n = folded.requests.max(1) as f64;
            for (path, stat) in &folded.paths {
                record.key(path).begin_object();
                record.key("count_per_req").f64(stat.count as f64 / n);
                record.key("self_ms_per_req").f64(stat.self_us as f64 / n / 1e3);
                record.end_object();
            }
            record.end_object();
            record.key("traced_stream");
            write_stream(&mut record, &phase.stream, &names);
            record.key("per_layer");
            m.write(&mut record);
            (m, untraced.log.sent + phase.log.sent, untraced.log.failed() + phase.log.failed())
        }
    };
    record.end_object();

    let mut line = JsonWriter::compact();
    line.begin_object();
    line.key("correct").bool(true);
    line.key("attempted").usize(attempted);
    line.key("failed").usize(failed);
    line.key("metrics");
    result.write(&mut line);
    line.end_object();
    Ok((record.finish(), line.finish()))
}

fn main() {
    let args = parse_args();
    let root = PathBuf::from(".bench_build").join(format!("servebench-{}", std::process::id()));
    let outcome = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match outcome {
        Ok((record, line)) => {
            println!("{record}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}
