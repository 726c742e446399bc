//! MBI query micro-benchmarks — the Figure 5 / Figure 9 inner loops at
//! small scale: throughput by window fraction and by τ.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mbi_ann::{NnDescentParams, SearchParams};
use mbi_core::{GraphBackend, MbiConfig, MbiIndex, QueryRequest};
use mbi_data::{windows_for_fraction, DriftingMixture};
use mbi_math::Metric;

fn build(n: usize, tau: f64) -> (MbiIndex, mbi_data::Dataset) {
    build_metric(Metric::Euclidean, n, tau)
}

fn build_metric(metric: Metric, n: usize, tau: f64) -> (MbiIndex, mbi_data::Dataset) {
    let dataset = DriftingMixture::new(32, 23).generate("q", metric, n, 8);
    let config = MbiConfig::new(32, metric)
        .with_leaf_size(1024)
        .with_tau(tau)
        .with_backend(GraphBackend::NnDescent(NnDescentParams { degree: 16, ..Default::default() }))
        .with_search(SearchParams::new(64, 1.1))
        .with_parallel_build(true);
    let mut idx = MbiIndex::new(config);
    for (v, t) in dataset.iter() {
        idx.insert(v, t).unwrap();
    }
    (idx, dataset)
}

fn bench_query(c: &mut Criterion) {
    let (index, dataset) = build(16_384, 0.5);
    let mut group = c.benchmark_group("mbi_query");

    // Figure 5 axis: window fraction.
    for pct in [1u32, 10, 50, 95] {
        let windows = windows_for_fraction(&dataset.timestamps, pct as f64 / 100.0, 16, 7);
        group.bench_with_input(BenchmarkId::new("fraction_pct", pct), &pct, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let q = dataset.test.get(i % dataset.test.len());
                let w = windows[i % windows.len()];
                index.search(&QueryRequest::new(black_box(q), 10, w)).results
            })
        });
    }

    // Angular preset: exercises the norm-cached fused kernel end to end
    // (graph search + brute-forced tail both hit the cached column).
    let (angular_index, angular_dataset) = build_metric(Metric::Angular, 16_384, 0.5);
    for pct in [10u32, 50] {
        let windows = windows_for_fraction(&angular_dataset.timestamps, pct as f64 / 100.0, 16, 7);
        group.bench_with_input(BenchmarkId::new("angular_fraction_pct", pct), &pct, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let q = angular_dataset.test.get(i % angular_dataset.test.len());
                let w = windows[i % windows.len()];
                angular_index.search(&QueryRequest::new(black_box(q), 10, w)).results
            })
        });
    }

    // Figure 9 axis: τ (query-time parameter; same index, re-tau'd clones).
    for tau_pct in [10u32, 50, 90] {
        let mut idx = index.clone();
        idx.set_tau(tau_pct as f64 / 100.0);
        let windows = windows_for_fraction(&dataset.timestamps, 0.3, 16, 7);
        group.bench_with_input(BenchmarkId::new("tau_pct_f30", tau_pct), &tau_pct, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                let q = dataset.test.get(i % dataset.test.len());
                let w = windows[i % windows.len()];
                idx.search(&QueryRequest::new(black_box(q), 10, w)).results
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_query
}
criterion_main!(benches);
