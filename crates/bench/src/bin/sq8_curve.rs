//! Recall-vs-speed curve of the SQ8 quantized first pass.
//!
//! Two layers are measured on one synthetic dataset (COMS-like scale,
//! d = 128 by default):
//!
//! * **scan layer** — brute-force candidate scans over a quantized
//!   [`SegmentStore`], sweeping the rerank over-fetch factor. Each point
//!   reports recall@k against the exact scan and the scan throughput in
//!   rows/s — the raw trade-off the `sq8_overfetch` knob controls.
//! * **engine layer** — end-to-end [`StreamingMbi`] queries with
//!   `sq8_scan` off vs on at the default over-fetch, reporting recall
//!   against the engine's exact ground truth and QPS.
//!
//! ```sh
//! cargo run -p mbi-bench --release --bin sq8_curve [-- --n 16384 --dim 128]
//! ```
//!
//! Writes `results/sq8_curve.json`; EXPERIMENTS.md quotes the table.

use mbi_ann::{
    brute_force_prepared, brute_force_sq8_prepared, SearchStats, Segment, SegmentStore, VectorStore,
};
use mbi_bench::Args;
use mbi_core::{MbiConfig, QueryRequest, StreamingMbi, TimeWindow};
use mbi_eval::report::{fmt3, print_table, write_json};
use mbi_math::{Metric, Neighbor, PreparedQuery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct ScanPoint {
    overfetch: f32,
    recall: f64,
    rows_per_sec: f64,
    speedup_vs_exact: f64,
}

#[derive(Serialize)]
struct EnginePoint {
    mode: &'static str,
    recall: f64,
    qps: f64,
}

#[derive(Serialize)]
struct Curve {
    n: usize,
    engine_n: usize,
    dim: usize,
    k: usize,
    queries: usize,
    simd_backend: &'static str,
    scan: Vec<ScanPoint>,
    engine: Vec<EnginePoint>,
}

fn random_rows(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Best of three timed passes (the first also warms the cache).
fn best_of3(mut pass: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn recall(got: &[Neighbor], truth: &[Neighbor]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hit = got.iter().filter(|g| truth.iter().any(|t| t.id == g.id)).count();
    hit as f64 / truth.len() as f64
}

fn main() {
    let args = Args::parse();
    // The scan layer defaults to a working set larger than L3 (64k × 128 ×
    // 4 B = 32 MB of f32 rows vs 8 MB of codes) so the measured gap is the
    // memory-bandwidth one the column exists for; the engine layer builds
    // graphs, so it defaults smaller.
    let n: usize = args.get("n", 65536);
    let engine_n: usize = args.get("engine-n", 16384);
    let dim: usize = args.get("dim", 128);
    let n_queries: usize = args.get("queries", 50);
    let seed: u64 = args.get("seed", 42);
    let out = args.get_str("out", "results");
    let k = 10;
    let seg_rows = 1024;
    let n = (n / seg_rows * seg_rows).max(seg_rows); // whole segments only
    let engine_n = (engine_n / seg_rows * seg_rows).max(seg_rows);

    eprintln!("[sq8] quantizing {n}×{dim} into {}-row segments…", seg_rows);
    let flat = random_rows(n, dim, seed);
    let mut store = SegmentStore::new(dim, seg_rows);
    for c in 0..n / seg_rows {
        let mut vs = VectorStore::new(dim);
        for row in flat[c * seg_rows * dim..(c + 1) * seg_rows * dim].chunks_exact(dim) {
            vs.push(row);
        }
        let mut seg = Segment::from_store(vs);
        seg.build_sq8();
        store.push_segment(std::sync::Arc::new(seg));
    }
    let queries: Vec<Vec<f32>> =
        (0..n_queries).map(|i| random_rows(1, dim, seed ^ (0x5EED + i as u64))).collect();

    // Exact-scan baseline: ground truth + the f32 throughput to beat.
    let mut truth = Vec::with_capacity(n_queries);
    for q in &queries {
        let pq = PreparedQuery::new(Metric::Euclidean, q);
        truth.push(brute_force_prepared(store.view(), &pq, k, &mut SearchStats::default()));
    }
    let exact_elapsed = best_of3(|| {
        for q in &queries {
            let pq = PreparedQuery::new(Metric::Euclidean, q);
            std::hint::black_box(brute_force_prepared(
                store.view(),
                &pq,
                k,
                &mut SearchStats::default(),
            ));
        }
    });
    let exact_rows_per_sec = (n * n_queries) as f64 / exact_elapsed;

    let mut scan = Vec::new();
    for overfetch in [1.0f32, 1.5, 2.0, 3.0, 4.0, 6.0] {
        let mut rec = 0.0;
        for (q, t) in queries.iter().zip(&truth) {
            let pq = PreparedQuery::new(Metric::Euclidean, q);
            let got = brute_force_sq8_prepared(
                store.view(),
                &pq,
                k,
                overfetch,
                &mut SearchStats::default(),
            );
            rec += recall(&got, t);
        }
        let elapsed = best_of3(|| {
            for q in &queries {
                let pq = PreparedQuery::new(Metric::Euclidean, q);
                std::hint::black_box(brute_force_sq8_prepared(
                    store.view(),
                    &pq,
                    k,
                    overfetch,
                    &mut SearchStats::default(),
                ));
            }
        });
        let rows_per_sec = (n * n_queries) as f64 / elapsed;
        scan.push(ScanPoint {
            overfetch,
            recall: rec / n_queries as f64,
            rows_per_sec,
            speedup_vs_exact: rows_per_sec / exact_rows_per_sec,
        });
        eprintln!(
            "[sq8] overfetch {overfetch:.1}: recall {:.4}, {:.1}× exact scan speed",
            scan.last().unwrap().recall,
            scan.last().unwrap().speedup_vs_exact
        );
    }

    eprintln!("[sq8] building {engine_n}-row streaming engines (sq8 off / on)…");
    let engine_flat = random_rows(engine_n, dim, seed ^ 0xE46);
    let mut engine = Vec::new();
    let window = TimeWindow::all();
    for (mode, sq8) in [("exact", false), ("sq8", true)] {
        let config =
            MbiConfig::new(dim, Metric::Euclidean).with_leaf_size(seg_rows).with_sq8_scan(sq8);
        let e = StreamingMbi::new(config);
        for (t, row) in engine_flat.chunks_exact(dim).enumerate() {
            e.insert(row, t as i64).unwrap();
        }
        e.flush();
        let mut rec = 0.0;
        for q in &queries {
            let exact = e.exact_query(q, k, window);
            let got = e.search(&QueryRequest::new(q, k, window)).results;
            let hit = got.iter().filter(|g| exact.iter().any(|t| t.id == g.id)).count();
            rec += hit as f64 / exact.len().max(1) as f64;
        }
        let start = Instant::now();
        for q in &queries {
            std::hint::black_box(e.search(&QueryRequest::new(q, k, window)).results);
        }
        let qps = n_queries as f64 / start.elapsed().as_secs_f64();
        engine.push(EnginePoint { mode, recall: rec / n_queries as f64, qps });
        eprintln!("[sq8] engine {mode}: recall {:.4}, {qps:.1} qps", rec / n_queries as f64);
    }

    let curve = Curve {
        n,
        engine_n,
        dim,
        k,
        queries: n_queries,
        simd_backend: mbi_math::simd::active_backend().name(),
        scan,
        engine,
    };
    print_table(
        "SQ8 scan layer — recall@10 vs throughput (brute-force candidate scan)",
        &["overfetch", "recall@10", "Mrows/s", "speedup vs f32"],
        &curve
            .scan
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}", p.overfetch),
                    format!("{:.4}", p.recall),
                    format!("{:.2}", p.rows_per_sec / 1e6),
                    format!("{:.2}×", p.speedup_vs_exact),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "SQ8 engine layer — end-to-end recall@10 vs QPS (default overfetch 3.0)",
        &["mode", "recall@10", "qps"],
        &curve
            .engine
            .iter()
            .map(|p| vec![p.mode.to_string(), format!("{:.4}", p.recall), fmt3(p.qps)])
            .collect::<Vec<_>>(),
    );
    match write_json(&out, "sq8_curve", &curve) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("could not write json: {e}"),
    }
}
