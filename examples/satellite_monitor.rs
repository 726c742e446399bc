//! Satellite feed: continuous ingestion with concurrent queries, plus index
//! persistence across "restarts".
//!
//! Models the paper's COMS scenario — a weather satellite producing frames
//! around the clock (GK2A takes 30 pictures per hour) while forecasters run
//! similarity searches over arbitrary historical windows. Demonstrates:
//!
//! * [`StreamingMbi`]: inserts and queries from different threads, with
//!   merge chains built on background builder threads;
//! * parallel bottom-up block merging (§4.2) for ingest spikes;
//! * saving the index to disk and reloading it.
//!
//! Run with:
//! ```sh
//! cargo run --release --example satellite_monitor
//! ```

use mbi::{
    MbiConfig, MbiIndex, Metric, NnDescentParams, QueryRequest, SearchParams, StreamingMbi,
    TimeWindow,
};
use mbi_data::{DriftingMixture, TimestampModel};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

fn main() {
    // 128-d frame embeddings; weather drifts with the seasons.
    let dataset = DriftingMixture {
        dim: 128,
        clusters: 12,
        spread: 0.1,
        drift: 2.0,
        seed: 11,
        timestamps: TimestampModel::Sequential, // one frame per tick
    }
    .generate("satellite", Metric::Angular, 24_000, 4);

    let config = MbiConfig::new(128, Metric::Angular)
        .with_leaf_size(2000)
        .with_tau(0.4)
        .with_backend(mbi::GraphBackend::NnDescent(NnDescentParams {
            degree: 24,
            ..Default::default()
        }))
        .with_search(SearchParams::new(96, 1.15))
        .with_parallel_build(true); // merge chains build their graphs in parallel

    // Phase 1: backfill half the history.
    let index = StreamingMbi::new(config);
    let backfill = dataset.len() / 2;
    let t = Instant::now();
    for i in 0..backfill {
        index.insert(dataset.train.get(i), dataset.timestamps[i]).unwrap();
    }
    println!("backfilled {backfill} frames in {:.2?}", t.elapsed());

    // Phase 2: live operation — one ingest thread, three query threads.
    let done = AtomicBool::new(false);
    let queries_run = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in backfill..dataset.len() {
                index.insert(dataset.train.get(i), dataset.timestamps[i]).unwrap();
            }
            done.store(true, Ordering::Release);
        });
        for worker in 0..3 {
            let q = dataset.test.get(worker % dataset.test.len());
            let queries_run = &queries_run;
            let done = &done;
            let index = &index;
            s.spawn(move || {
                let mut rounds = 0u64;
                while !done.load(Ordering::Acquire) {
                    // Forecasters compare against the same season last "year".
                    let window = TimeWindow::new(2_000 + rounds as i64 % 1000, 12_000);
                    let res = index.search(&QueryRequest::new(q, 10, window)).results;
                    assert!(res.iter().all(|r| window.contains(r.timestamp)));
                    rounds += 1;
                }
                queries_run.fetch_add(rounds, Ordering::Relaxed);
            });
        }
    });
    println!(
        "live phase: ingested {} frames while serving {} queries in {:.2?}",
        dataset.len() - backfill,
        queries_run.load(Ordering::Relaxed),
        t.elapsed()
    );

    // Phase 3: persistence across a restart.
    let index: MbiIndex = index.to_index();
    let path = std::env::temp_dir().join("satellite.mbi");
    let t = Instant::now();
    index.save_file(&path).expect("save index");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!(
        "\nsaved index: {:.1} MiB in {:.2?} → {}",
        bytes as f64 / (1 << 20) as f64,
        t.elapsed(),
        path.display()
    );

    let t = Instant::now();
    let restored = MbiIndex::load_file(&path).expect("load index");
    println!(
        "reloaded in {:.2?} ({} vectors, {} blocks)",
        t.elapsed(),
        restored.len(),
        restored.blocks().len()
    );

    // The restored index answers identically.
    let q = dataset.test.get(0);
    let w = TimeWindow::new(1_000, 20_000);
    assert_eq!(
        index.search(&QueryRequest::new(q, 10, w)).results,
        restored.search(&QueryRequest::new(q, 10, w)).results
    );
    println!("restored index verified: identical answers on a spot-check query");
    std::fs::remove_file(&path).ok();
}
