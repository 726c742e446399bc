//! Quickstart: index a stream of timestamped vectors and run TkNN queries.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mbi::{MbiConfig, MbiIndex, Metric, QueryRequest, SearchParams, TimeWindow};
use mbi_data::{Dataset, DriftingMixture};

fn main() {
    // A synthetic stream: 20,000 16-dimensional vectors whose distribution
    // drifts over time (like a photo library whose subjects change), plus 5
    // held-out query vectors.
    let dataset: Dataset = DriftingMixture { drift: 1.0, ..DriftingMixture::new(16, 42) }.generate(
        "quickstart",
        Metric::Euclidean,
        20_000,
        5,
    );

    // Configure MBI: leaf blocks of 1024 vectors, τ = 0.5 (the paper's
    // recommendation when nothing is known about the workload).
    let config = MbiConfig::new(dataset.dim(), dataset.metric)
        .with_leaf_size(1024)
        .with_tau(0.5)
        .with_search(SearchParams::new(64, 1.1));
    let mut index = MbiIndex::new(config);

    println!("ingesting {} vectors…", dataset.len());
    let start = std::time::Instant::now();
    for (v, t) in dataset.iter() {
        index.insert(v, t).expect("timestamps arrive in order");
    }
    println!(
        "built {} blocks over {} sealed leaves in {:.2?} ({} tail rows pending)",
        index.blocks().len(),
        index.num_leaves(),
        start.elapsed(),
        index.tail_rows().len(),
    );
    println!(
        "index structures: {:.2} MiB on top of {:.2} MiB of raw data",
        index.index_memory_bytes() as f64 / (1 << 20) as f64,
        index.data_bytes() as f64 / (1 << 20) as f64,
    );

    // TkNN queries over three window lengths: MBI adapts its search block
    // set to each (short windows → small blocks ≈ BSBF; long → big ≈ SF).
    let n = dataset.len() as i64;
    for (label, window) in [
        ("short (2% of history)", TimeWindow::new(n / 2, n / 2 + n / 50)),
        ("medium (30%)", TimeWindow::new(n / 4, n / 4 + 3 * n / 10)),
        ("long (95%)", TimeWindow::new(0, 95 * n / 100)),
    ] {
        let q = dataset.test.get(0);
        let out =
            index.search(&QueryRequest::new(q, 10, window).with_params(index.config().search));
        println!(
            "\n{label}: window [{}, {}) → {} results, {} block(s) searched, {} distance evals",
            window.start,
            window.end,
            out.results.len(),
            out.stats.blocks_searched,
            out.stats.dist_evals,
        );
        for (rank, r) in out.results.iter().take(3).enumerate() {
            println!("  #{:<2} id={:<6} t={:<6} dist={:.4}", rank + 1, r.id, r.timestamp, r.dist);
        }
        // Verify against the exact answer.
        let exact = index.exact_query(q, 10, window);
        let exact_ids: std::collections::HashSet<u32> = exact.iter().map(|r| r.id).collect();
        let hits = out.results.iter().filter(|r| exact_ids.contains(&r.id)).count();
        println!("  recall@10 vs exact scan: {:.2}", hits as f64 / 10.0);
    }
}
