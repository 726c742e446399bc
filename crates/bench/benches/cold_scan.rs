//! Cold-tier benchmark: query latency/throughput of a [`ColdIndex`] as a
//! function of its RAM budget, against the all-RAM [`IndexSnapshot`]
//! baseline the file was serialised from.
//!
//! Two artefacts come out of a run:
//!
//! * criterion rows (`cold_query/*`) — steady-state per-query latency at
//!   an unlimited budget, at a zero budget (every query re-faults and
//!   re-decodes its whole cover), and for the hot in-RAM snapshot;
//! * `BENCH_cold.json` + `results/cold_tier.json` — the budget sweep: for
//!   each resident fraction (10/25/50/100% of the index's full footprint,
//!   plus an all-cold 0% stress row) a cold pass over a fixed query
//!   stream, a second warm pass, cache hit rate, eviction churn, and a
//!   prefetch-off ablation of the cold pass.
//!
//! **Honesty note.** This container cannot drop the kernel page cache, so
//! "cold" here means *evicted from the block cache*: a cold read re-faults
//! pages that are likely still cached by the OS and pays CRC verification
//! plus graph decode, not disk seeks. That is the cost model of a warm
//! production replica; first-touch-from-disk latency would be strictly
//! worse for both tiers. On a single-vCPU host the scoped decode helper is
//! additionally gated off (`available_parallelism() <= 1` — it cannot
//! overlap anything there), so the prefetch ablation then measures only
//! the `madvise(WILLNEED)` advise thread, which is ~free on a warm page
//! cache. The relative curve (budget vs latency) is what transfers.

use criterion::{black_box, criterion_group, Criterion};
use mbi_ann::{NnDescentParams, SearchParams};
use mbi_core::{
    ColdIndex, GraphBackend, IndexSnapshot, MbiConfig, MbiIndex, QueryRequest, TimeWindow,
};
use mbi_data::{windows_for_fraction, DriftingMixture};
use mbi_math::Metric;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const DIM: usize = 32;
const LEAF: usize = 1024;
const LEAVES: usize = 48;
const ROWS: usize = LEAF * LEAVES;
const K: usize = 10;

fn config() -> MbiConfig {
    MbiConfig::new(DIM, Metric::Euclidean)
        .with_leaf_size(LEAF)
        .with_backend(GraphBackend::NnDescent(NnDescentParams { degree: 16, ..Default::default() }))
        .with_search(SearchParams::new(64, 1.1))
        .with_parallel_build(true)
        .with_sq8_scan(true)
}

struct Workload {
    snapshot: IndexSnapshot,
    file: PathBuf,
    queries: Vec<(Vec<f32>, TimeWindow)>,
}

fn build_workload() -> Workload {
    let dataset = DriftingMixture::new(DIM, 23).generate("cold", Metric::Euclidean, ROWS, 8);
    let mut idx = MbiIndex::new(config());
    for (v, t) in dataset.iter() {
        idx.insert(v, t).unwrap();
    }
    let snapshot = IndexSnapshot::from_index(&idx).expect("row count is leaf-aligned");
    let file = std::env::temp_dir().join(format!("mbi_cold_bench_{}.mbi", std::process::id()));
    snapshot.save_file(&file).unwrap();

    // A fixed stream mixing short, medium, and long windows: long windows
    // touch many leaves (the prefetch showcase), short ones stress cache
    // churn at tiny budgets.
    let mut queries = Vec::new();
    for (i, pct) in [(0usize, 10u32), (1, 50), (2, 95)].into_iter() {
        let windows =
            windows_for_fraction(&dataset.timestamps, pct as f64 / 100.0, 16, 7 + i as u64);
        for (j, w) in windows.iter().enumerate() {
            let q = dataset.test.get((i * 31 + j) % dataset.test.len());
            queries.push((q.to_vec(), *w));
        }
    }
    Workload { snapshot, file, queries }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

#[derive(Serialize, Clone, Copy)]
struct PassStats {
    queries: usize,
    qps: f64,
    p50_micros: f64,
    p99_micros: f64,
}

fn run_pass(
    mut f: impl FnMut(&[f32], TimeWindow),
    queries: &[(Vec<f32>, TimeWindow)],
) -> PassStats {
    let t0 = Instant::now();
    let mut nanos: Vec<u64> = queries
        .iter()
        .map(|(q, w)| {
            let t = Instant::now();
            f(q, *w);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    nanos.sort_unstable();
    PassStats {
        queries: queries.len(),
        qps: queries.len() as f64 / wall,
        p50_micros: percentile(&nanos, 0.5) as f64 / 1_000.0,
        p99_micros: percentile(&nanos, 0.99) as f64 / 1_000.0,
    }
}

#[derive(Serialize)]
struct BudgetRow {
    /// Fraction of the full resident footprint granted as budget.
    resident_fraction: f64,
    budget_bytes: u64,
    pinned_leaves: usize,
    /// First pass over the query stream: every miss decodes from the map.
    cold_pass: PassStats,
    /// Second pass: hits serve from the block cache where the budget allows.
    warm_pass: PassStats,
    /// hits / (hits + misses) over both passes.
    hit_rate: f64,
    evictions: u64,
    prefetches: u64,
    bytes_resident: u64,
    /// Cold pass with the prefetch thread disabled (same budget, fresh
    /// open) — the ablation. `null` where the sweep skips it.
    prefetch_off_cold_pass: Option<PassStats>,
}

#[derive(Serialize)]
struct ColdSummary {
    generated_by: &'static str,
    honesty: &'static str,
    available_parallelism: usize,
    dim: usize,
    leaf_size: usize,
    rows: usize,
    file_bytes: u64,
    full_resident_bytes: u64,
    /// The all-RAM snapshot over the same query stream — the ≤ ~10% target
    /// for warm cache-hit queries.
    hot_baseline: PassStats,
    sweep: Vec<BudgetRow>,
}

fn open_with_budget(file: &PathBuf, budget: u64) -> ColdIndex {
    ColdIndex::open_with_budget(file, budget).unwrap()
}

fn sweep_budgets(w: &Workload) -> ColdSummary {
    let params = config().search;
    let hot_baseline = run_pass(
        |q, win| {
            black_box(w.snapshot.search(&QueryRequest::new(q, K, win).with_params(params)));
        },
        &w.queries,
    );

    // Full footprint: everything loaded, nothing evicted.
    let full = open_with_budget(&w.file, u64::MAX);
    run_pass(
        |q, win| {
            black_box(full.search(&QueryRequest::new(q, K, win)).unwrap().results);
        },
        &w.queries,
    );
    let full_resident_bytes = full.stats().bytes_resident;
    drop(full);

    let mut sweep = Vec::new();
    for fraction in [0.0f64, 0.10, 0.25, 0.50, 1.00] {
        let budget = if fraction >= 1.0 {
            // Headroom over the measured footprint so rounding in the
            // per-shard split cannot evict at "100% resident".
            full_resident_bytes * 2
        } else {
            (full_resident_bytes as f64 * fraction) as u64
        };
        let cold = open_with_budget(&w.file, budget);
        let cold_pass = run_pass(
            |q, win| {
                black_box(cold.search(&QueryRequest::new(q, K, win)).unwrap().results);
            },
            &w.queries,
        );
        let warm_pass = run_pass(
            |q, win| {
                black_box(cold.search(&QueryRequest::new(q, K, win)).unwrap().results);
            },
            &w.queries,
        );
        let stats = cold.stats();
        drop(cold);

        // Ablation at the all-cold and mostly-cold points, where every
        // query pays decode and overlap matters most.
        let prefetch_off_cold_pass = (fraction <= 0.25).then(|| {
            let cold = open_with_budget(&w.file, budget);
            cold.set_prefetch(false);
            run_pass(
                |q, win| {
                    black_box(cold.search(&QueryRequest::new(q, K, win)).unwrap().results);
                },
                &w.queries,
            )
        });

        sweep.push(BudgetRow {
            resident_fraction: fraction,
            budget_bytes: budget,
            pinned_leaves: stats.pinned_leaves,
            cold_pass,
            warm_pass,
            hit_rate: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
            evictions: stats.evictions,
            prefetches: stats.prefetches,
            bytes_resident: stats.bytes_resident,
            prefetch_off_cold_pass,
        });
    }

    ColdSummary {
        generated_by: "cargo bench -p mbi-bench --bench cold_scan",
        honesty: "container cannot drop the OS page cache; 'cold' = block-cache miss \
                  (page re-fault + CRC verify + decode), not disk seeks; on a \
                  single-vCPU host the scoped decode helper is gated off, so the \
                  prefetch ablation covers only the WILLNEED advise thread",
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        dim: DIM,
        leaf_size: LEAF,
        rows: ROWS,
        file_bytes: std::fs::metadata(&w.file).map(|m| m.len()).unwrap_or(0),
        full_resident_bytes,
        hot_baseline,
        sweep,
    }
}

fn write_summary(summary: &ColdSummary) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for rel in ["BENCH_cold.json", "results/cold_tier.json"] {
        let path = std::path::Path::new(root).join(rel);
        match serde_json::to_string_pretty(summary) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json + "\n") {
                    eprintln!("could not write {}: {e}", path.display());
                } else {
                    println!("cold-tier sweep written to {}", path.display());
                }
            }
            Err(e) => eprintln!("could not serialise cold summary: {e}"),
        }
    }
    println!(
        "hot baseline: p50 {:.1} µs  p99 {:.1} µs  ({:.0} qps)",
        summary.hot_baseline.p50_micros, summary.hot_baseline.p99_micros, summary.hot_baseline.qps
    );
    for row in &summary.sweep {
        println!(
            "budget {:>4.0}%: cold p99 {:>8.1} µs  warm p99 {:>8.1} µs  hit rate {:.2}  \
             evictions {}  prefetches {}",
            row.resident_fraction * 100.0,
            row.cold_pass.p99_micros,
            row.warm_pass.p99_micros,
            row.hit_rate,
            row.evictions,
            row.prefetches,
        );
    }
}

fn bench_cold_query(c: &mut Criterion) {
    let w = build_workload();
    let mut group = c.benchmark_group("cold_query");
    let params = config().search;

    group.bench_function("hot_snapshot", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let (q, win) = &w.queries[i % w.queries.len()];
            black_box(
                w.snapshot.search(&QueryRequest::new(black_box(q), K, *win).with_params(params)),
            )
        })
    });

    let resident = open_with_budget(&w.file, u64::MAX);
    group.bench_function("budget_max", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let (q, win) = &w.queries[i % w.queries.len()];
            black_box(resident.search(&QueryRequest::new(black_box(q), K, *win)).unwrap().results)
        })
    });
    drop(resident);

    let all_cold = open_with_budget(&w.file, 0);
    group.bench_function("budget_zero", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            let (q, win) = &w.queries[i % w.queries.len()];
            black_box(all_cold.search(&QueryRequest::new(black_box(q), K, *win)).unwrap().results)
        })
    });
    drop(all_cold);

    group.finish();

    write_summary(&sweep_budgets(&w));
    let _ = std::fs::remove_file(&w.file);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_cold_query
}

fn main() {
    benches();
}
