//! `bench_serve` — the serving trajectory: throughput and tail latency of
//! the `spade-serve` daemon over loopback.
//!
//! One snapshot of the CEOs corpus is served by two in-process servers —
//! **cold** (result cache disabled: every request runs the five online
//! steps) and **warm** (cache enabled and primed: every request is an
//! exact byte hit) — and each is driven at 1, 4, and 16 concurrent
//! keep-alive connections. Per-request wall times aggregate into req/sec
//! and p50/p99 latency per `(cache, concurrency)` cell; every response
//! body is checked byte-identical to the serial `run_snapshot` oracle, so
//! the bench doubles as a concurrency-determinism smoke test. Results land
//! in `BENCH_serve.json`.
//!
//! Every run also measures the telemetry substrate's warm-path cost: the
//! exact per-request record sequence (counters, gauges, two histogram
//! observations, one analytics-ledger ring write) is timed in isolation
//! against live registry handles and related to the measured warm request
//! latency. A request without telemetry would skip exactly that sequence,
//! so its cost *is* the telemetry-on vs telemetry-off delta (the
//! `projected_noop_req_per_sec` key); the run asserts it stays under a 2%
//! throughput regression and pins the numbers under `profile_overhead` in
//! `BENCH_serve.json`. `--profile-overhead` runs only the warm mode and
//! this check (a quick gate, skipping the cold cells).
//!
//! A short mixed cheap/expensive cold sequence additionally scrapes
//! `/debug/queries` and pins the estimate-vs-actual **cost scorecard**
//! (q-error geo-mean and quantiles of `admission::estimate_cost` against
//! measured work) under `cost_scorecard` in `BENCH_serve.json`.
//!
//! Usage: `cargo run --release -p spade-bench --bin bench_serve
//! [--scale <facts>] [--seed <n>] [--threads <n>] [--out <path>]
//! [--profile-overhead]`

use spade_bench::HarnessArgs;
use spade_core::json::JsonWriter;
use spade_core::{Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};
use spade_serve::client::Client;
use spade_serve::server::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CONCURRENCY: [usize; 3] = [1, 4, 16];

struct Cell {
    cache: &'static str,
    concurrency: usize,
    requests: usize,
    wall_secs: f64,
    req_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ms.len() as f64).ceil() as usize;
    sorted_ms[rank.clamp(1, sorted_ms.len()) - 1]
}

/// Drives `concurrency` keep-alive connections, each sending
/// `requests_per_conn` empty `/explore` requests, and checks every body
/// against `expected`.
fn drive(
    addr: SocketAddr,
    concurrency: usize,
    requests_per_conn: usize,
    expected: &str,
) -> (Vec<f64>, f64) {
    let wall = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::with_capacity(requests_per_conn);
                    for _ in 0..requests_per_conn {
                        let t = Instant::now();
                        let r = client.post("/explore", b"").expect("explore");
                        out.push((t.elapsed().as_secs_f64() * 1e3, r));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .map(|(ms, r)| {
                assert_eq!(r.status, 200);
                assert_eq!(r.text(), expected, "concurrent body equals the serial oracle");
                ms
            })
            .collect()
    });
    (latencies, wall.elapsed().as_secs_f64())
}

fn run_mode(
    cache: &'static str,
    cache_bytes: usize,
    snapshot: &std::path::Path,
    base: &SpadeConfig,
    expected: &str,
    requests_per_conn: usize,
    cells: &mut Vec<Cell>,
) {
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: *CONCURRENCY.last().expect("non-empty"),
            cache_bytes,
            ..Default::default()
        },
        base.clone(),
        snapshot,
    )
    .expect("server starts");
    let addr = server.local_addr();
    if cache_bytes > 0 {
        // Prime the cache so the warm mode measures pure hits.
        let (_, _) = drive(addr, 1, 1, expected);
    }
    for &concurrency in &CONCURRENCY {
        let (mut latencies, wall_secs) = drive(addr, concurrency, requests_per_conn, expected);
        latencies.sort_by(f64::total_cmp);
        let requests = latencies.len();
        let cell = Cell {
            cache,
            concurrency,
            requests,
            wall_secs,
            req_per_sec: requests as f64 / wall_secs,
            p50_ms: percentile(&latencies, 50.0),
            p99_ms: percentile(&latencies, 99.0),
        };
        eprintln!(
            "{cache:4} cache, {concurrency:2} conns: {:6} req in {:7.2} s | {:8.1} req/s | p50 {:8.2} ms | p99 {:8.2} ms",
            cell.requests, cell.wall_secs, cell.req_per_sec, cell.p50_ms, cell.p99_ms,
        );
        cells.push(cell);
    }
    assert!(server.shutdown(Duration::from_secs(30)), "bench server drains");
}

/// The warm-path telemetry record sequence, timed in isolation: what a
/// cache-hit `/explore` drives through the registry (connection + request
/// counters, in-flight/queue gauges, queue-wait and route-latency
/// histograms) plus one analytics-ledger record (ring write; hits never
/// touch the profile locks). Returns the mean cost per request in
/// nanoseconds.
fn telemetry_ns_per_request() -> f64 {
    use spade_telemetry::ledger::key_hash;
    use spade_telemetry::{CacheOutcome, Ledger, LedgerRecord, ResponseClass};
    let registry = spade_telemetry::Registry::new();
    let requests = registry.counter("bench_requests_total", "requests");
    let explore = registry.counter("bench_explore_total", "explores");
    let cached = registry.counter("bench_explore_cached_total", "cache hits");
    let in_flight = registry.gauge("bench_in_flight", "in flight");
    let queue_depth = registry.gauge("bench_queue_depth", "queued");
    let queue_wait = registry.histogram(
        "bench_queue_wait_seconds",
        "queue wait",
        &spade_telemetry::FINE_DURATION_BOUNDS_SECONDS,
    );
    let warm = registry.histogram_with(
        "bench_request_seconds",
        "latency",
        &[("route", "explore_warm")],
        &spade_telemetry::DURATION_BOUNDS_SECONDS,
    );
    let ledger = Ledger::new(256, &["bench".to_owned()]);
    let hash = key_hash("{}");
    const ITERS: u32 = 1_000_000;
    let start = Instant::now();
    for i in 0..ITERS {
        queue_depth.add(1);
        queue_depth.sub(1);
        queue_wait.observe(1e-6);
        requests.inc();
        in_flight.add(1);
        explore.inc();
        cached.inc();
        warm.observe(2e-5 + f64::from(i & 1023) * 1e-6);
        ledger.record(LedgerRecord {
            id: u64::from(i),
            graph: "bench".to_owned(),
            generation: 1,
            route: "explore",
            key_hash: hash,
            estimated_cost: 1000,
            actual_cost: 0,
            cells: 0,
            facts: 0,
            cache: CacheOutcome::Hit,
            class: ResponseClass::Ok,
            total_us: 20,
            stages: Vec::new(),
            slo_breach: false,
            unix_ms: 0,
        });
        in_flight.sub(1);
    }
    let ns = start.elapsed().as_nanos() as f64 / f64::from(ITERS);
    assert_eq!(requests.get(), u64::from(ITERS), "sequence not optimized away");
    assert_eq!(ledger.recorded_total(), u64::from(ITERS), "ledger writes not optimized away");
    ns
}

/// Drives a short mixed cheap/expensive request sequence against a cold
/// server and returns the ledger's estimate-vs-actual scorecard: how well
/// the admission estimator tracked measured work on this corpus.
fn measure_scorecard(
    snapshot: &std::path::Path,
    base: &SpadeConfig,
) -> (usize, f64, f64, f64, f64, f64) {
    let server = Server::start(
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            cache_bytes: 0,
            ..Default::default()
        },
        base.clone(),
        snapshot,
    )
    .expect("scorecard server starts");
    let mut client = Client::new(server.local_addr());
    // Expensive: the unfiltered default (every CFS, low support floor).
    // Cheap: a narrow CFS filter and a tightened support threshold.
    let bodies: [&[u8]; 4] = [
        b"",
        br#"{"cfs_filter": ["type:CEO"]}"#,
        br#"{"min_support": 0.6}"#,
        br#"{"k": 2, "cfs_filter": ["type:Company"]}"#,
    ];
    for body in bodies {
        assert_eq!(client.post("/explore", body).expect("scorecard explore").status, 200);
    }
    let queries = client.get("/debug/queries").expect("debug/queries");
    let doc = spade_core::json::parse(&queries.text()).expect("ledger JSON");
    let sc = doc.get("scorecard").expect("scorecard");
    let f = |k: &str| sc.get(k).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("{k}"));
    let out = (
        sc.get("count").and_then(|v| v.as_usize()).expect("count"),
        f("q_error_geo_mean"),
        f("q_error_p50"),
        f("q_error_p95"),
        f("q_error_p99"),
        f("q_error_max"),
    );
    assert_eq!(out.0, bodies.len(), "every cold completion grades the estimator");
    assert!(
        out.1.is_finite() && out.1 >= 1.0,
        "q-error geo-mean must be finite and ≥ 1: {}",
        out.1
    );
    assert!(server.shutdown(Duration::from_secs(30)), "scorecard server drains");
    out
}

fn main() {
    let args = HarnessArgs::parse();
    let profile_overhead_only = args.rest.iter().any(|a| a == "--profile-overhead");
    let scale = args.scale_or(250);
    let out_path = args.out_path("BENCH_serve.json");
    let base = SpadeConfig {
        min_support: 0.3,
        min_cfs_size: 20,
        max_cfs: 8,
        threads: args.threads,
        ..Default::default()
    };

    let graph = realistic::ceos(&RealisticConfig { scale, seed: args.seed });
    let nt = spade_rdf::write_ntriples(&graph);
    let dir = std::env::temp_dir().join(format!("spade_bench_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let snapshot = dir.join("ceos.spade");
    let spade = Spade::new(base.clone());
    spade.snapshot_ntriples(&nt, &snapshot).expect("snapshot written");

    // The serial oracle every served body must match, byte for byte.
    let expected = spade.run_snapshot(&snapshot).expect("serial oracle").to_json(false);

    let mut cells = Vec::new();
    if !profile_overhead_only {
        run_mode("cold", 0, &snapshot, &base, &expected, 8, &mut cells);
    }
    run_mode("warm", 64 << 20, &snapshot, &base, &expected, 64, &mut cells);
    let (sc_count, sc_geo, sc_p50, sc_p95, sc_p99, sc_max) =
        measure_scorecard(&snapshot, &base);
    eprintln!(
        "cost scorecard: {sc_count} graded | q-error geo-mean {sc_geo:.2} | \
         p50 {sc_p50:.2} | p95 {sc_p95:.2} | p99 {sc_p99:.2} | max {sc_max:.2}"
    );
    std::fs::remove_dir_all(&dir).ok();

    let throughput = |cache: &str, concurrency: usize| {
        cells
            .iter()
            .find(|c| c.cache == cache && c.concurrency == concurrency)
            .map_or(0.0, |c| c.req_per_sec)
    };
    let warm_speedup_1 = throughput("warm", 1) / throughput("cold", 1).max(f64::MIN_POSITIVE);

    // —— telemetry overhead gate ——
    // The warm path is the worst case for the substrate: the request does
    // almost no other work, so the record sequence is its largest relative
    // cost. Relate the isolated sequence cost to the measured warm request
    // time; without telemetry the sequence would not run, so this ratio is
    // the throughput regression telemetry costs.
    let telemetry_ns = telemetry_ns_per_request();
    let warm_rps = throughput("warm", 1);
    let warm_request_ns = 1e9 / warm_rps.max(f64::MIN_POSITIVE);
    let overhead_pct = 100.0 * telemetry_ns / warm_request_ns;
    let projected_noop_rps = 1e9 / (warm_request_ns - telemetry_ns).max(1.0);
    eprintln!(
        "telemetry warm-path overhead: {telemetry_ns:.1} ns/req of {warm_request_ns:.0} ns \
         ({overhead_pct:.3}% | {warm_rps:.0} req/s on vs {projected_noop_rps:.0} projected noop)"
    );
    assert!(
        overhead_pct < 2.0,
        "telemetry warm-path overhead {overhead_pct:.3}% breaches the 2% budget \
         ({telemetry_ns:.1} ns/req against a {warm_request_ns:.0} ns warm request)"
    );

    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("bench").string("serve");
    w.key("corpus").string("CEOs");
    w.key("scale").usize(scale);
    w.key("n_triples").usize(graph.len());
    w.key("workers").usize(*CONCURRENCY.last().expect("non-empty"));
    w.key("warm_speedup_1conn").f64_fixed(warm_speedup_1, 2);
    w.key("profile_overhead").begin_object();
    w.key("telemetry_ns_per_request").f64_fixed(telemetry_ns, 1);
    w.key("warm_request_ns").f64_fixed(warm_request_ns, 0);
    w.key("overhead_pct").f64_fixed(overhead_pct, 4);
    w.key("warm_req_per_sec").f64_fixed(warm_rps, 2);
    w.key("projected_noop_req_per_sec").f64_fixed(projected_noop_rps, 2);
    w.key("budget_pct").f64_fixed(2.0, 1);
    w.end_object();
    w.key("cost_scorecard").begin_object();
    w.key("requests_graded").usize(sc_count);
    w.key("q_error_geo_mean").f64_fixed(sc_geo, 4);
    w.key("q_error_p50").f64_fixed(sc_p50, 4);
    w.key("q_error_p95").f64_fixed(sc_p95, 4);
    w.key("q_error_p99").f64_fixed(sc_p99, 4);
    w.key("q_error_max").f64_fixed(sc_max, 4);
    w.end_object();
    w.key("cells").begin_array();
    for c in &cells {
        w.begin_object();
        w.key("cache").string(c.cache);
        w.key("concurrency").usize(c.concurrency);
        w.key("requests").usize(c.requests);
        w.key("wall_secs").f64_fixed(c.wall_secs, 6);
        w.key("req_per_sec").f64_fixed(c.req_per_sec, 2);
        w.key("p50_ms").f64_fixed(c.p50_ms, 3);
        w.key("p99_ms").f64_fixed(c.p99_ms, 3);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let json = w.finish();
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("{json}");
    eprintln!("warm/cold throughput at 1 connection: {warm_speedup_1:.1}x → {out_path}");
}
