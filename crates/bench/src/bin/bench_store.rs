//! `bench_store` — the snapshot-store trajectory: offline phase vs. load.
//!
//! For each Table-2-like corpus of the shared catalog
//! (`spade_datagen::corpus::NT_CASES`) this bench measures how long it takes
//! to make the offline state servable two ways:
//!
//! * **offline** — what `Spade::run_ntriples` does before the online steps:
//!   parallel zero-copy parse + dictionary intern + index build, RDFS
//!   saturation, and offline attribute analysis;
//! * **snapshot** — `Snapshot::open(..).load(..)` on the file written once
//!   by the snapshot store, plus rebuilding `OfflineStats` from its records.
//!
//! The loaded state is cross-checked against the freshly computed one for
//! exact agreement (ids, triple order, indexes, statistics) and saturation
//! idempotence, so the bench doubles as a correctness smoke test. Results
//! land in `BENCH_store.json` (triples/sec both ways and the speedup).
//!
//! A second section, **open_mode**, compares the two [`OpenMode`]s of
//! `Snapshot::open_with` per case — `Mmap` (map the file, validate, no
//! copy) against `Read` (allocate + read the whole image) — and probes the
//! resident-memory story behind the multi-graph catalog: VmRSS deltas
//! while holding 1 and 4 materialized [`OfflineState`]s per mode (mapped
//! images are released with `MADV_DONTNEED` after materialization, so the
//! mapped states should cost roughly the heap graph alone).
//!
//! Usage: `cargo run --release -p spade-bench --bin bench_store
//! [--scale <facts>] [--seed <n>] [--threads <n>] [--out <path>]`

use spade_bench::{geo_mean, offline_stats, HarnessArgs};
use spade_core::json::JsonWriter;
use spade_core::{offline, OfflineState};
use spade_datagen::corpus::{NtCase, NT_CASES};
use spade_rdf::{ingest, saturate_with_threads, Graph};
use spade_store::{write_snapshot, OpenMode, Snapshot};
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Outcome {
    name: String,
    n_input_lines: usize,
    n_triples: usize,
    file_bytes: usize,
    offline_secs: f64,
    load_secs: f64,
    offline_triples_per_sec: f64,
    load_triples_per_sec: f64,
    speedup: f64,
    /// `Snapshot::open_with` latency (validate + checksum, no `load`).
    mmap_open_secs: f64,
    read_open_secs: f64,
    open_speedup: f64,
}

fn check_agreement(loaded: &Graph, fresh: &Graph, case: &str) {
    assert_eq!(loaded.triples(), fresh.triples(), "{case}: triple order");
    assert_eq!(loaded.dict.len(), fresh.dict.len(), "{case}: dictionary size");
    for (id, term) in fresh.dict.iter() {
        assert_eq!(loaded.dict.term(id), term, "{case}: term {id}");
    }
    assert_eq!(loaded.rdf_type_id(), fresh.rdf_type_id(), "{case}: rdf:type id");
    for p in fresh.properties() {
        assert_eq!(loaded.property_pairs(p), fresh.property_pairs(p), "{case}: property {p}");
    }
    for s in fresh.subjects() {
        assert_eq!(loaded.outgoing(s), fresh.outgoing(s), "{case}: subject {s}");
    }
    for c in fresh.classes() {
        assert_eq!(loaded.type_extent_raw(c), fresh.type_extent_raw(c), "{case}: class {c}");
    }
}

fn run_case(
    case: &NtCase,
    scale: usize,
    seed: u64,
    threads: usize,
    repeats: usize,
    dir: &Path,
) -> Outcome {
    let nt = case.generate(scale, seed);
    let n_input_lines = nt.lines().count();

    // The offline phase runs once (untimed here) to produce the state the
    // snapshot captures.
    let mut graph = ingest(&nt, threads).expect("corpus parses");
    saturate_with_threads(&mut graph, threads);
    let stats = offline_stats(&graph);
    let records = offline::to_records(&stats);
    let path = dir.join(format!("{}.spade", case.name));
    write_snapshot(&path, &graph, &records).expect("snapshot writes");
    let file_bytes = std::fs::metadata(&path).expect("snapshot file").len() as usize;

    // Round-trip identity: the loaded state is the computed state, bit for
    // bit, and saturating it again derives nothing.
    let loaded =
        Snapshot::open(&path, threads).expect("snapshot opens").load(threads).expect("loads");
    check_agreement(&loaded.graph, &graph, case.name);
    assert_eq!(loaded.stats, records, "{}: statistics records", case.name);
    let mut resaturate = Snapshot::open(&path, threads).unwrap().load(threads).unwrap().graph;
    assert_eq!(
        saturate_with_threads(&mut resaturate, threads),
        0,
        "{}: loaded graph is already saturated",
        case.name
    );

    let mut offline_secs = f64::INFINITY;
    let mut load_secs = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        let mut g = ingest(&nt, threads).unwrap();
        saturate_with_threads(&mut g, threads);
        let s = offline_stats(&g);
        offline_secs = offline_secs.min(t.elapsed().as_secs_f64());
        std::hint::black_box((&g, &s));

        let t = Instant::now();
        let loaded = Snapshot::open(&path, threads).unwrap().load(threads).unwrap();
        let s = offline::from_records(&loaded.graph, &loaded.stats);
        load_secs = load_secs.min(t.elapsed().as_secs_f64());
        std::hint::black_box((&loaded.graph, &s));
    }

    // Open-mode comparison: the same validated open (header, sections,
    // checksum) without materialization. Mmap skips the image allocation
    // and copy; both still stream every byte once for the checksum. More
    // repeats than the load loop — opens are cheap and the page cache is
    // warm either way after the loops above.
    let mut mmap_open_secs = f64::INFINITY;
    let mut read_open_secs = f64::INFINITY;
    for _ in 0..repeats.max(5) {
        let t = Instant::now();
        let snap = Snapshot::open_with(&path, threads, OpenMode::Mmap).unwrap();
        mmap_open_secs = mmap_open_secs.min(t.elapsed().as_secs_f64());
        assert!(snap.is_mapped(), "{}: mmap open must actually map", case.name);
        std::hint::black_box(&snap);

        let t = Instant::now();
        let snap = Snapshot::open_with(&path, threads, OpenMode::Read).unwrap();
        read_open_secs = read_open_secs.min(t.elapsed().as_secs_f64());
        assert!(!snap.is_mapped(), "{}: read open must copy", case.name);
        std::hint::black_box(&snap);
    }
    // The snapshot file is left in place: main's RSS probe reuses it, then
    // removes the whole directory.

    let n_triples = graph.len();
    Outcome {
        name: case.name.to_owned(),
        n_input_lines,
        n_triples,
        file_bytes,
        offline_secs,
        load_secs,
        offline_triples_per_sec: n_triples as f64 / offline_secs,
        load_triples_per_sec: n_triples as f64 / load_secs,
        speedup: offline_secs / load_secs,
        mmap_open_secs,
        read_open_secs,
        open_speedup: read_open_secs / mmap_open_secs,
    }
}

/// Current VmRSS in bytes from `/proc/self/status` (0 when unavailable —
/// the probe then reports zeros instead of failing the bench).
fn vm_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

struct RssProbe {
    mode: &'static str,
    file_bytes: u64,
    /// VmRSS delta over the pre-open baseline while holding 1 state.
    held_1_bytes: u64,
    /// … and while holding 4 states of the same snapshot.
    held_4_bytes: u64,
}

/// Opens 1 then 4 [`OfflineState`]s of `path` under `mode` and records the
/// VmRSS growth over a fresh baseline — the catalog's "what does one more
/// resident graph cost" number. Mapped images are `MADV_DONTNEED`-released
/// after materialization, so `Mmap` should grow by roughly the heap graph
/// alone while `Read` also pays the full image per state.
fn rss_probe(path: &Path, threads: usize, mode: OpenMode, label: &'static str) -> RssProbe {
    let file_bytes = std::fs::metadata(path).expect("snapshot file").len();
    let baseline = vm_rss_bytes();
    let mut states = Vec::new();
    states.push(OfflineState::open_with(path, threads, mode).expect("state opens"));
    let held_1 = vm_rss_bytes().saturating_sub(baseline);
    for _ in 0..3 {
        states.push(OfflineState::open_with(path, threads, mode).expect("state opens"));
    }
    let held_4 = vm_rss_bytes().saturating_sub(baseline);
    std::hint::black_box(&states);
    drop(states);
    RssProbe { mode: label, file_bytes, held_1_bytes: held_1, held_4_bytes: held_4 }
}

fn main() {
    let args = HarnessArgs::parse();
    // Same default corpus size as bench_ingest, so the two artifacts
    // describe the same offline workload.
    let scale = args.scale_or(2_000);
    let out_path = args.out_path("BENCH_store.json");

    let dir: PathBuf =
        std::env::temp_dir().join(format!("spade_bench_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");

    let mut outcomes = Vec::new();
    for case in &NT_CASES {
        let o = run_case(case, scale, args.seed, args.threads, 3, &dir);
        eprintln!(
            "{:14} {:7} triples ({:8} B file) | offline {:8.1} ms ({:9.0} t/s) | load {:8.2} ms ({:9.0} t/s) | speedup {:.1}x | open mmap {:7.3} ms vs read {:7.3} ms ({:.1}x)",
            o.name,
            o.n_triples,
            o.file_bytes,
            o.offline_secs * 1e3,
            o.offline_triples_per_sec,
            o.load_secs * 1e3,
            o.load_triples_per_sec,
            o.speedup,
            o.mmap_open_secs * 1e3,
            o.read_open_secs * 1e3,
            o.open_speedup,
        );
        outcomes.push(o);
    }

    // RSS probe on the largest snapshot left behind by the case loop —
    // Mmap first so the Read probe's heap churn cannot inflate it.
    let largest = outcomes
        .iter()
        .max_by_key(|o| o.file_bytes)
        .map(|o| dir.join(format!("{}.spade", o.name)))
        .expect("at least one case");
    let probes = [
        rss_probe(&largest, args.threads, OpenMode::Mmap, "mmap"),
        rss_probe(&largest, args.threads, OpenMode::Read, "read"),
    ];
    for p in &probes {
        eprintln!(
            "rss[{:4}] {:9} B file | held 1 state: +{:9} B | held 4 states: +{:9} B",
            p.mode, p.file_bytes, p.held_1_bytes, p.held_4_bytes,
        );
    }

    std::fs::remove_dir_all(&dir).ok();

    let speedups: Vec<f64> = outcomes.iter().map(|o| o.speedup).collect();
    let geo_mean_speedup = geo_mean(&speedups);
    let open_speedups: Vec<f64> = outcomes.iter().map(|o| o.open_speedup).collect();
    let geo_mean_open_speedup = geo_mean(&open_speedups);

    // Shared deterministic writer (spade_core::json) — no serde offline.
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.key("bench").string("snapshot_store");
    w.key("offline").string(
        "parallel ingest + semi-naive saturation + offline analysis (run_ntriples offline phase)",
    );
    w.key("snapshot").string("Snapshot::open + zero-copy load + stats reconstitution");
    w.key("geo_mean_speedup").f64_fixed(geo_mean_speedup, 4);
    w.key("cases").begin_array();
    for o in &outcomes {
        w.begin_object();
        w.key("name").string(&o.name);
        w.key("n_input_lines").usize(o.n_input_lines);
        w.key("n_triples").usize(o.n_triples);
        w.key("file_bytes").usize(o.file_bytes);
        w.key("offline_secs").f64_fixed(o.offline_secs, 6);
        w.key("load_secs").f64_fixed(o.load_secs, 6);
        w.key("offline_triples_per_sec").f64_fixed(o.offline_triples_per_sec, 1);
        w.key("load_triples_per_sec").f64_fixed(o.load_triples_per_sec, 1);
        w.key("speedup").f64_fixed(o.speedup, 4);
        w.key("mmap_open_secs").f64_fixed(o.mmap_open_secs, 6);
        w.key("read_open_secs").f64_fixed(o.read_open_secs, 6);
        w.key("open_speedup").f64_fixed(o.open_speedup, 4);
        w.end_object();
    }
    w.end_array();
    w.key("open_mode").begin_object();
    w.key("mmap").string("Snapshot::open_with(OpenMode::Mmap): map + validate, no copy");
    w.key("read").string("Snapshot::open_with(OpenMode::Read): allocate + read whole image");
    w.key("geo_mean_open_speedup").f64_fixed(geo_mean_open_speedup, 4);
    w.key("rss_probes").begin_array();
    for p in &probes {
        w.begin_object();
        w.key("mode").string(p.mode);
        w.key("file_bytes").uint(p.file_bytes);
        w.key("held_1_rss_bytes").uint(p.held_1_bytes);
        w.key("held_4_rss_bytes").uint(p.held_4_bytes);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    let json = w.finish();
    std::fs::write(&out_path, &json).expect("write BENCH_store.json");
    println!("{json}");
    eprintln!(
        "geo-mean snapshot-load speedup {geo_mean_speedup:.1}x, \
         mmap-vs-read open speedup {geo_mean_open_speedup:.1}x → {out_path}"
    );
}
