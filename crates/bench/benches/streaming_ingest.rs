//! Streaming-ingest benchmark (engine subsystem): per-insert latency when
//! merge-chain builds run on background builder threads ([`StreamingMbi`]),
//! and query latency while a writer ingests concurrently.
//!
//! Criterion's per-iteration distribution is the report here: the streaming
//! insert row should show a tight spread (appends + a channel send). The
//! `query_under_ingest` row shows the read side of the same story —
//! snapshot queries never wait for a build.
//!
//! Beyond the criterion groups, the run writes `BENCH_streaming.json`: the
//! per-publication latency series `(sealed_rows, nanos)` from
//! [`EngineStats::publish_nanos`]. With the segment-shared snapshot store,
//! publication is `O(leaves)` pointer copies — the series must stay flat as
//! the sealed prefix grows by an order of magnitude (the old
//! materialise-the-prefix scheme grew linearly with `sealed_rows`).
//!
//! The summary also records the WAL's durability tax: per-insert p50/p99
//! over the same stream with no WAL, with the default seal-time fsync
//! ([`WalSync::OnSeal`]), and with fsync-per-insert ([`WalSync::Always`]) —
//! the `insert/streaming_wal` criterion row shows the same OnSeal cost as a
//! latency distribution.

use criterion::{black_box, criterion_group, Criterion};
use mbi_ann::{NnDescentParams, SearchParams};
use mbi_core::{EngineConfig, GraphBackend, MbiConfig, QueryRequest, StreamingMbi, TimeWindow};
use mbi_data::DriftingMixture;
use mbi_math::Metric;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DIM: usize = 16;
const PREFILL: usize = 4_096; // 8 sealed leaves before measurement starts
const ROW_CAP: usize = 200_000; // writer throttles here to bound memory

fn config() -> MbiConfig {
    MbiConfig::new(DIM, Metric::Euclidean)
        .with_leaf_size(512)
        .with_backend(GraphBackend::NnDescent(NnDescentParams {
            degree: 8,
            max_iters: 4,
            ..Default::default()
        }))
        .with_parallel_build(true)
}

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_builder_threads(2)
        .with_queue_depth(8)
        .with_record_insert_latency(false)
}

fn bench_insert_latency(c: &mut Criterion) {
    let dataset = DriftingMixture::new(DIM, 23).generate("si", Metric::Euclidean, PREFILL, 1);
    let mut group = c.benchmark_group("streaming_ingest");

    group.bench_function("insert/streaming", |b| {
        let engine = StreamingMbi::with_engine_config(config(), engine_config());
        let mut t = 0i64;
        b.iter(|| {
            let v = dataset.train.get(t as usize % dataset.train.len());
            t += 1;
            engine.insert(black_box(v), t).unwrap()
        });
        engine.flush();
    });

    group.bench_function("insert/streaming_wal", |b| {
        // Durable engine: every insert appends a checksummed WAL record
        // before acking (WalSync::OnSeal — fsync at leaf seals only).
        let dir = std::env::temp_dir().join(format!("mbi_bench_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = StreamingMbi::open(&dir, config(), engine_config()).unwrap();
        let mut t = 0i64;
        b.iter(|| {
            let v = dataset.train.get(t as usize % dataset.train.len());
            t += 1;
            engine.insert(black_box(v), t).unwrap()
        });
        engine.flush();
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.finish();
}

fn bench_query_under_ingest(c: &mut Criterion) {
    let dataset = DriftingMixture::new(DIM, 29).generate("sq", Metric::Euclidean, PREFILL, 16);
    let params = SearchParams::new(64, 1.2);
    let window = TimeWindow::new(0, PREFILL as i64);
    let mut group = c.benchmark_group("streaming_ingest");

    {
        let engine = Arc::new(StreamingMbi::with_engine_config(config(), engine_config()));
        for (v, t) in dataset.iter() {
            engine.insert(v, t).unwrap();
        }
        engine.flush();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let pool = dataset.train.clone();
            std::thread::spawn(move || {
                let mut t = PREFILL as i64;
                while !stop.load(Ordering::Acquire) {
                    if engine.len() < ROW_CAP {
                        engine.insert(pool.get(t as usize % pool.len()), t).unwrap();
                        t += 1;
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            })
        };
        group.bench_function("query_under_ingest/streaming", |b| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let q = dataset.test.get(i % dataset.test.len());
                engine.search(&QueryRequest::new(black_box(q), 10, window).with_params(params))
            })
        });
        stop.store(true, Ordering::Release);
        writer.join().unwrap();
    }

    group.finish();
}

/// One publication: how many rows the snapshot covers and how long the
/// publication itself took (staging, pointer-shared snapshot assembly, swap,
/// tail trim — the graph build is excluded, it runs lock-free).
#[derive(Serialize)]
struct PublicationSample {
    sealed_rows: u64,
    publish_micros: u64,
    publish_nanos: u64,
}

/// Insert-latency percentiles for one WAL configuration, over the same row
/// stream: the cost of the durability contract, isolated.
#[derive(Serialize)]
struct WalOverheadRow {
    mode: &'static str,
    /// Micros views round sub-µs inserts to 0 — kept for continuity; the
    /// nanos fields are the measurement.
    p50_micros: u64,
    p99_micros: u64,
    max_micros: u64,
    p50_nanos: u64,
    p99_nanos: u64,
    max_nanos: u64,
}

#[derive(Serialize)]
struct StreamingSummary {
    generated_by: &'static str,
    dim: usize,
    leaf_size: usize,
    /// Mean publication micros over the first and last quarter of the
    /// series; their ratio is the flatness evidence (≈1 for O(leaf)
    /// publication, ≈ sealed-row growth for O(sealed-prefix) memcpy).
    early_mean_micros: f64,
    late_mean_micros: f64,
    late_over_early: f64,
    /// Per-insert latency with no WAL, with the default WAL (fsync on
    /// seal), and with fsync-per-insert — same stream, same engine config.
    wal_overhead_rows: usize,
    wal_overhead: Vec<WalOverheadRow>,
    series: Vec<PublicationSample>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Runs the same insert stream through a no-WAL engine, a WAL engine with
/// the default seal-time fsync, and a WAL engine with fsync-per-insert, and
/// reports the per-insert latency percentiles of each.
fn measure_wal_overhead() -> (usize, Vec<WalOverheadRow>) {
    use mbi_core::WalSync;
    const ROWS: usize = 8 * 512; // 8 sealed leaves
    let dataset = DriftingMixture::new(DIM, 37).generate("sw", Metric::Euclidean, ROWS, 1);
    let engine_config = engine_config().with_record_insert_latency(true);
    let run = |mode: &'static str, engine: StreamingMbi| {
        for (v, t) in dataset.iter() {
            engine.insert(v, t).unwrap();
        }
        engine.flush();
        let mut nanos = engine.stats().insert_nanos;
        nanos.sort_unstable();
        WalOverheadRow {
            mode,
            p50_micros: percentile(&nanos, 0.5) / 1_000,
            p99_micros: percentile(&nanos, 0.99) / 1_000,
            max_micros: nanos.last().copied().unwrap_or(0) / 1_000,
            p50_nanos: percentile(&nanos, 0.5),
            p99_nanos: percentile(&nanos, 0.99),
            max_nanos: nanos.last().copied().unwrap_or(0),
        }
    };
    let dir = std::env::temp_dir().join(format!("mbi_bench_walov_{}", std::process::id()));
    let mut rows = Vec::new();
    rows.push(run("no_wal", StreamingMbi::with_engine_config(config(), engine_config)));
    for (mode, sync) in
        [("wal_fsync_on_seal", WalSync::OnSeal), ("wal_fsync_always", WalSync::Always)]
    {
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(run(
            mode,
            StreamingMbi::open(&dir, config(), engine_config.with_wal_sync(sync)).unwrap(),
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (ROWS, rows)
}

/// Ingests enough rows for the sealed prefix to grow ~64× past the first
/// publication, then dumps the recorded per-publication latency series.
fn write_publication_summary() {
    const LEAVES: usize = 64;
    let leaf = config().leaf_size;
    let rows = LEAVES * leaf;
    let dataset = DriftingMixture::new(DIM, 31).generate("sp", Metric::Euclidean, rows, 1);
    let engine = StreamingMbi::with_engine_config(config(), engine_config());
    for (v, t) in dataset.iter() {
        engine.insert(v, t).unwrap();
    }
    engine.flush();
    let series: Vec<PublicationSample> = engine
        .stats()
        .publish_nanos
        .iter()
        .map(|&(sealed_rows, nanos)| PublicationSample {
            sealed_rows,
            publish_micros: nanos / 1_000,
            publish_nanos: nanos,
        })
        .collect();
    let quarter = (series.len() / 4).max(1);
    let mean = |s: &[PublicationSample]| {
        s.iter().map(|p| p.publish_nanos as f64 / 1_000.0).sum::<f64>() / s.len() as f64
    };
    let early = mean(&series[..quarter]);
    let late = mean(&series[series.len() - quarter..]);
    let (wal_overhead_rows, wal_overhead) = measure_wal_overhead();
    let summary = StreamingSummary {
        generated_by: "cargo bench --bench streaming_ingest",
        dim: DIM,
        leaf_size: leaf,
        early_mean_micros: early,
        late_mean_micros: late,
        late_over_early: late / early.max(f64::MIN_POSITIVE),
        wal_overhead_rows,
        wal_overhead,
        series,
    };
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = std::path::Path::new(root).join("BENCH_streaming.json");
    match serde_json::to_string_pretty(&summary) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                println!("publication series written to {}", path.display());
                println!(
                    "publications: {}  early mean {:.1} µs  late mean {:.1} µs  ratio {:.2}",
                    summary.series.len(),
                    summary.early_mean_micros,
                    summary.late_mean_micros,
                    summary.late_over_early,
                );
                for row in &summary.wal_overhead {
                    println!(
                        "insert {} ({} rows): p50 {} ns  p99 {} ns  max {} ns",
                        row.mode,
                        summary.wal_overhead_rows,
                        row.p50_nanos,
                        row.p99_nanos,
                        row.max_nanos,
                    );
                }
            }
        }
        Err(e) => eprintln!("could not serialise streaming summary: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_insert_latency, bench_query_under_ingest
}

fn main() {
    benches();
    write_publication_summary();
}
