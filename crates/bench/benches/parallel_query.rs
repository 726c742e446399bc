//! Intra-query block fan-out benchmark (§4.2 "Parallelization of MBI",
//! query side): the same query answered with 1, 2, and 4 scoped workers
//! over its selected blocks, at a short and a long time window.
//!
//! On a multi-core machine the ≥ 4-worker rows show the wall-clock win on
//! wide windows (several large blocks searched concurrently); on a single
//! core they bound the fan-out's spawn overhead instead. Results are
//! bit-identical across rows by construction, so the comparison is pure
//! latency.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mbi_ann::{NnDescentParams, SearchParams};
use mbi_core::{GraphBackend, MbiConfig, MbiIndex, QueryRequest};
use mbi_data::{windows_for_fraction, DriftingMixture};
use mbi_math::Metric;

fn bench_parallel_query(c: &mut Criterion) {
    let n = 24_576usize; // 24 leaves → a 16-leaf and an 8-leaf subtree
    let dim = 16usize;
    let dataset = DriftingMixture::new(dim, 61).generate("pq", Metric::Euclidean, n, 16);

    let config = MbiConfig::new(dim, Metric::Euclidean)
        .with_leaf_size(1024)
        .with_tau(0.75) // deeper descent → selections of several blocks
        .with_backend(GraphBackend::NnDescent(NnDescentParams {
            degree: 8,
            max_iters: 4,
            ..Default::default()
        }))
        .with_parallel_build(true);
    let mut index = MbiIndex::new(config);
    for (v, t) in dataset.iter() {
        index.insert(v, t).unwrap();
    }
    let params = SearchParams::new(64, 1.2);

    let mut group = c.benchmark_group("parallel_query");
    for pct in [10u32, 95] {
        let windows = windows_for_fraction(&dataset.timestamps, pct as f64 / 100.0, 16, 7);
        for threads in [1usize, 2, 4] {
            let label = format!("pct{pct}_threads");
            group.bench_with_input(BenchmarkId::new(&label, threads), &threads, |b, &t| {
                let mut i = 0usize;
                b.iter(|| {
                    i += 1;
                    let q = dataset.test.get(i % dataset.test.len());
                    index.search(
                        &QueryRequest::new(black_box(q), 10, windows[i % windows.len()])
                            .with_params(params)
                            .with_threads(t),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_parallel_query
}
criterion_main!(benches);
