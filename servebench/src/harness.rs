//! Set-up, the client loops, scrapes and the oracle: everything that talks
//! to the library crates, always through their public entry points.

use crate::stream::{Explore, Op, Req};
use spade_core::json::Json;
use spade_core::{offline, Budget, OfflineState, RequestConfig, Spade, SpadeConfig};
use spade_datagen::{realistic, RealisticConfig};
use spade_serve::client::{Client, Response};
use spade_serve::server::{ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Generator seed of every corpus. Fixed: the cost of one explore varies
/// by ±25% across generator seeds, so the run seed drives the traffic and
/// the corpora stay the same from run to run.
pub const CORPUS_SEED: u64 = 7;

/// The base pipeline configuration every server and oracle starts from.
pub fn base_config() -> SpadeConfig {
    SpadeConfig { min_support: 0.3, min_cfs_size: 20, max_cfs: 8, ..SpadeConfig::default() }
}

/// One served graph: its routing name and generated N-Triples text.
pub struct Corpus {
    pub graph: String,
    pub nt: String,
}

/// Generates the simulated CEOs corpus as N-Triples text (excluded from
/// set-up time: it stands in for a dump on disk).
pub fn ceos(graph: &str, scale: usize, seed: u64) -> Corpus {
    let g = realistic::ceos(&RealisticConfig { scale, seed });
    Corpus { graph: graph.to_owned(), nt: spade_rdf::write_ntriples(&g) }
}

/// Bench-side spans around calls into each layer's public entry points:
/// milliseconds and counts per layer metric name, kept in memory and
/// reported once the run has finished.
#[derive(Clone, Debug, Default)]
pub struct LayerClock {
    pub ms: BTreeMap<&'static str, f64>,
    pub calls: BTreeMap<&'static str, u64>,
}

impl LayerClock {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.ms.entry(name).or_default() += t.elapsed().as_secs_f64() * 1e3;
        *self.calls.entry(name).or_default() += 1;
        out
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }
}

/// The offline phase, one layer call at a time: ingest → saturate →
/// analyze → write. Returns the served triple count and snapshot bytes.
fn build_snapshot(
    corpus: &Corpus,
    path: &Path,
    threads: usize,
    clock: &mut LayerClock,
) -> Result<(usize, u64), String> {
    let mut graph = clock
        .time("rdf.ingest", || spade_rdf::ingest(&corpus.nt, threads))
        .map_err(|e| format!("ingest {}: {e}", corpus.graph))?;
    clock.time("rdf.saturate", || spade_rdf::saturate_with_threads(&mut graph, threads));
    let stats = clock
        .time("core.offline.analyze", || {
            offline::analyze_budgeted(&graph, threads, &Budget::unlimited())
        })
        .map_err(|e| format!("analyze {}: {e}", corpus.graph))?;
    clock
        .time("store.write", || {
            spade_store::write_snapshot(path, &graph, &offline::to_records(&stats))
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok((graph.len(), bytes))
}

/// How a workload's server is built and primed.
pub struct Plan {
    /// The served graphs; the first is the default graph.
    pub corpora: Vec<Corpus>,
    pub priming: Vec<Req>,
}

impl Plan {
    pub fn names(&self) -> Vec<String> {
        self.corpora.iter().map(|c| c.graph.clone()).collect()
    }
}

/// A started, primed server and what set-up measured.
pub struct Deployment {
    pub server: Server,
    pub snapshots: Vec<PathBuf>,
    /// Median-of-reps set-up seconds and every rep's seconds.
    pub setup_s: f64,
    pub setup_reps: Vec<f64>,
    /// Per-layer milliseconds, the median over set-up reps.
    pub layers: BTreeMap<&'static str, f64>,
    pub triples: usize,
    pub snapshot_bytes: u64,
    /// Digests of the bodies the final rep's priming requests returned.
    pub primed: Vec<(Req, u128)>,
}

/// Set-up reps per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Sets up `plan` [`SETUP_REPS`] times from N-Triples text to a primed
/// server (ingest, saturation, offline analysis, snapshot write,
/// `Server::start_catalog`, priming), keeping the last server running.
pub fn deploy(
    plan: &Plan,
    config: &ServeConfig,
    root: &Path,
    threads: usize,
) -> Result<Deployment, String> {
    let names = plan.names();
    let mut reps = Vec::new();
    let mut layer_reps: Vec<LayerClock> = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = root.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut clock = LayerClock::default();
        let started = Instant::now();
        let mut graphs = Vec::new();
        let (mut triples, mut bytes) = (0, 0);
        for corpus in &plan.corpora {
            let path = dir.join(format!("{}.spade", corpus.graph));
            let (t, b) = build_snapshot(corpus, &path, threads, &mut clock)?;
            triples += t;
            bytes += b;
            graphs.push((corpus.graph.clone(), path));
        }
        let server =
            Server::start_catalog(config.clone(), base_config(), graphs.clone(), &names[0])
                .map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::new(server.local_addr()).no_retry();
        let mut primed = Vec::new();
        for req in &plan.priming {
            let response = send(&mut client, &names, req, false)?;
            if response.status != 200 {
                return Err(format!("priming {req:?} answered {}", response.status));
            }
            primed.push((req.clone(), digest(&response.body)));
        }
        reps.push(started.elapsed().as_secs_f64());
        layer_reps.push(clock);
        drop(client);
        if rep + 1 < SETUP_REPS {
            if !server.shutdown(Duration::from_secs(30)) {
                return Err("set-up server did not drain".to_owned());
            }
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        } else {
            let names_ms: Vec<&'static str> =
                layer_reps.iter().flat_map(|c| c.ms.keys().copied()).collect();
            let layers = names_ms
                .into_iter()
                .map(|name| {
                    let values: Vec<f64> = layer_reps.iter().map(|c| c.ms(name)).collect();
                    (name, crate::stats::median(&values).unwrap_or(0.0))
                })
                .collect();
            return Ok(Deployment {
                server,
                snapshots: graphs.into_iter().map(|(_, p)| p).collect(),
                setup_s: crate::stats::median(&reps).unwrap_or(0.0),
                setup_reps: reps,
                layers,
                triples,
                snapshot_bytes: bytes,
                primed,
            });
        }
    }
    unreachable!("SETUP_REPS ≥ 1")
}

/// The route and body of `req`; `profile` attaches the span tree.
fn send(
    client: &mut Client,
    names: &[String],
    req: &Req,
    profile: bool,
) -> Result<Response, String> {
    let graph = &names[req.graph];
    let result = match &req.op {
        Op::Reload => client.post(&format!("/graphs/{graph}/reload"), b""),
        Op::Explore(e) => {
            let query = if profile { "?profile=1" } else { "" };
            client.post(&format!("/graphs/{graph}/explore{query}"), e.body().as_bytes())
        }
    };
    result.map_err(|e| format!("{req:?}: {e}"))
}

/// Splits a `?profile=1` body into the report (the `"trace"` member
/// stripped) and the trace object's JSON text.
pub fn strip_trace(body: &[u8]) -> Option<(Vec<u8>, String)> {
    const KEY: &[u8] = b",\"trace\":";
    const MARKER: &[u8] = b",\"trace\":{\"total_us\":";
    let at = body.windows(MARKER.len()).rposition(|w| w == MARKER)?;
    let mut report = body[..at].to_vec();
    report.push(b'}');
    let trace = std::str::from_utf8(&body[at + KEY.len()..body.len() - 1]).ok()?.to_owned();
    Some((report, trace))
}

/// 128-bit FNV-1a digest of a response body. The run keeps digests, not
/// bodies, so the bench holds no copy of what the server's result cache
/// already holds and `rss_mb` counts only the server's memory.
pub fn digest(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    bytes.iter().fold(OFFSET, |h, b| (h ^ u128::from(*b)).wrapping_mul(PRIME))
}

/// What one client saw.
#[derive(Default)]
pub struct Log {
    /// Explores sent (including failed ones).
    pub explores: usize,
    /// Client-observed latency of each successful explore, ms.
    pub latency_ms: Vec<f64>,
    /// Non-200 answers (and I/O errors), by status (0 = I/O error).
    pub failures: BTreeMap<u16, usize>,
    /// Requests sent, explores and reloads.
    pub sent: usize,
    /// Digest of the first 200 body per distinct `(graph, explore)`; later
    /// bodies for the same key must have the same digest.
    pub firsts: HashMap<(usize, Explore), u128>,
    /// Bodies that differed from the first body of their key.
    pub mismatches: Vec<String>,
    /// `?profile=1` traces, kept in memory until the run ends.
    pub traces: Vec<String>,
}

impl Log {
    fn record(
        &mut self,
        req: &Req,
        response: Result<Response, String>,
        latency_ms: f64,
        profile: bool,
    ) {
        let response = match response {
            Ok(r) => r,
            Err(_) => {
                *self.failures.entry(0).or_default() += 1;
                if matches!(req.op, Op::Explore(_)) {
                    self.explores += 1;
                }
                return;
            }
        };
        let Op::Explore(explore) = &req.op else {
            if response.status != 200 {
                *self.failures.entry(response.status).or_default() += 1;
            }
            return;
        };
        self.explores += 1;
        if response.status != 200 {
            *self.failures.entry(response.status).or_default() += 1;
            return;
        }
        self.latency_ms.push(latency_ms);
        let key = (req.graph, explore.clone());
        let body = if profile {
            match strip_trace(&response.body) {
                Some((report, trace)) => {
                    self.traces.push(trace);
                    digest(&report)
                }
                None => {
                    self.mismatches.push(format!("{req:?}: profiled body without a trace"));
                    return;
                }
            }
        } else {
            digest(&response.body)
        };
        self.check_first(key, body);
    }

    /// Keeps `body` (a digest) as the first answer for `key`, or compares
    /// it with the first answer's.
    pub fn check_first(&mut self, key: (usize, Explore), body: u128) {
        match self.firsts.get(&key) {
            Some(first) if *first != body => {
                self.mismatches.push(format!("{key:?}: body differs from an earlier answer"));
            }
            Some(_) => {}
            None => {
                self.firsts.insert(key, body);
            }
        }
    }

    /// Folds `other` into `self`, checking that keys both saw agree.
    pub fn merge(&mut self, other: Log) {
        self.explores += other.explores;
        self.latency_ms.extend(other.latency_ms);
        self.sent += other.sent;
        for (status, n) in other.failures {
            *self.failures.entry(status).or_default() += n;
        }
        self.mismatches.extend(other.mismatches);
        self.traces.extend(other.traces);
        for (key, body) in other.firsts {
            self.check_first(key, body);
        }
    }

    /// Every successful explore's latency, sorted ascending.
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut all = self.latency_ms.clone();
        all.sort_by(f64::total_cmp);
        all
    }

    pub fn failed(&self) -> usize {
        self.failures.values().sum()
    }
}

/// Runs one closed-loop client per stream until `seconds` have passed;
/// each client sends its next request when the previous answer arrived.
/// Returns each client's log and the measured wall time.
pub fn closed_loop(
    addr: SocketAddr,
    names: &[String],
    streams: Vec<Box<dyn Iterator<Item = Req> + Send>>,
    seconds: f64,
    profile: bool,
) -> (Vec<Log>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut client = Client::new(addr).no_retry();
                    let mut log = Log::default();
                    for req in stream {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let t = Instant::now();
                        let response = send(&mut client, names, &req, profile);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        log.sent += 1;
                        log.record(&req, response, ms, profile);
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    (logs, start.elapsed().as_secs_f64())
}

/// `GET path`, requiring a 200.
fn get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let response = spade_serve::client::get(addr, path).map_err(|e| format!("{path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("{path} answered {}", response.status));
    }
    Ok(response.text())
}

/// `GET path` parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    spade_core::json::parse(&get(addr, path)?).map_err(|e| format!("{path}: {e}"))
}

/// `/metrics` as `series → value` (`name{labels}` keys).
pub fn scrape_metrics(addr: SocketAddr) -> Result<HashMap<String, f64>, String> {
    Ok(get(addr, "/metrics")?
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect())
}

/// The largest request id the ledger has recorded (0 when empty).
pub fn ledger_max_id(queries: &Json) -> u64 {
    queries
        .get("entries")
        .and_then(Json::as_array)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| e.get("id").and_then(Json::as_f64))
                .fold(0.0, f64::max)
        })
        .unwrap_or(0.0) as u64
}

/// The request config an [`Explore`] body decodes to on the server.
fn request_config(explore: &Explore, threads: usize) -> RequestConfig {
    RequestConfig {
        k: explore.k.map(|k| k as usize),
        interestingness: explore.interestingness.map(|h| {
            RequestConfig::interestingness_from_name(h).expect("known interestingness")
        }),
        min_support: explore.min_support.map(|s| s.parse().expect("decimal min_support")),
        cfs_filter: explore.cfs_filter.iter().map(|s| (*s).to_owned()).collect(),
        measure_filter: explore.measure_filter.iter().map(|s| (*s).to_owned()).collect(),
        threads: Some(threads),
    }
}

/// Expected body digests from the in-process oracle: `Spade::run_on` on an
/// `OfflineState` opened from the served snapshot, with the server's base
/// config and the request's knobs. Computed once per key.
pub struct Oracle {
    engine: Spade,
    pub snapshots: Vec<PathBuf>,
    states: Vec<Option<Arc<OfflineState>>>,
    expected: HashMap<(usize, Explore), u128>,
    pub clock: LayerClock,
}

impl Oracle {
    pub fn new(snapshots: Vec<PathBuf>) -> Oracle {
        let states = vec![None; snapshots.len()];
        Oracle {
            engine: Spade::new(base_config()),
            snapshots,
            states,
            expected: HashMap::new(),
            clock: LayerClock::default(),
        }
    }

    /// Checks every first body digest in `firsts` against the oracle's;
    /// returns the mismatching keys.
    pub fn check(
        &mut self,
        firsts: &HashMap<(usize, Explore), u128>,
        threads: usize,
    ) -> Result<Vec<String>, String> {
        let mut todo: Vec<(usize, Explore)> =
            firsts.keys().filter(|k| !self.expected.contains_key(*k)).cloned().collect();
        todo.sort_by_key(|(g, e)| (*g, e.body()));
        for (graph, _) in &todo {
            if self.states[*graph].is_none() {
                let path = &self.snapshots[*graph];
                let state = self
                    .clock
                    .time("store.open", || {
                        OfflineState::open_with(path, threads, spade_store::OpenMode::Mmap)
                    })
                    .map_err(|e| format!("oracle open {}: {e}", path.display()))?;
                self.states[*graph] = Some(Arc::new(state));
            }
        }
        let next = AtomicUsize::new(0);
        let results: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.max(1))
                .map(|_| {
                    let (todo, next, states, engine) =
                        (&todo, &next, &self.states, &self.engine);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some((graph, explore)) = todo.get(i) else { break };
                            let state = states[*graph].as_ref().expect("opened above");
                            let report = engine.run_on(state, &request_config(explore, 1));
                            out.push((i, report.to_json(false)));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
        });
        for (i, body) in results.into_iter().flatten() {
            self.expected.insert(todo[i].clone(), digest(body.as_bytes()));
        }
        let mut bad: Vec<String> = firsts
            .iter()
            .filter(|(key, body)| self.expected[*key] != **body)
            .map(|((g, e), _)| format!("graph {g} body {}", e.body()))
            .collect();
        bad.sort();
        Ok(bad)
    }
}

/// Resident set size of this process, MB (`VmRSS`), after handing freed
/// heap pages back to the kernel, so the figure is memory the process
/// holds rather than what the allocator happened to keep from set-up.
pub fn rss_mb() -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain padding size, has no
        // preconditions, and is thread-safe; it only returns free memory.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The warm-path telemetry record sequence, timed in isolation: what a
/// cache-hit `/explore` drives through the registry (request counters,
/// in-flight and queue gauges, queue-wait and route histograms) plus one
/// analytics-ledger record. Nanoseconds per request.
pub fn telemetry_record_ns() -> f64 {
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
    const ITERS: u32 = 200_000;
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
    assert_eq!(requests.get(), u64::from(ITERS), "record sequence optimized away");
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_trace_restores_the_report() {
        let report = br#"{"profile":{"triples":3},"top":[]}"#;
        let mut body = report[..report.len() - 1].to_vec();
        body.extend_from_slice(br#","trace":{"total_us":12,"spans":[]}}"#);
        let (stripped, trace) = strip_trace(&body).expect("has a trace");
        assert_eq!(stripped, report);
        assert_eq!(trace, r#"{"total_us":12,"spans":[]}"#);
        assert!(strip_trace(report).is_none());
    }

    #[test]
    fn digest_tells_bodies_apart() {
        assert_eq!(digest(b"{\"top\":[]}"), digest(b"{\"top\":[]}"));
        assert_ne!(digest(b"{\"top\":[1]}"), digest(b"{\"top\":[2]}"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
