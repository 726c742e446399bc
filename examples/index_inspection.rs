//! Index inspection and querying: the operational side of running MBI in
//! production — structure dumps, per-level size accounting (the
//! `O(|D| log |D|)` of §4.4.1 made visible), integrity validation, and the
//! intra-query fan-out.
//!
//! Run with:
//! ```sh
//! cargo run --release --example index_inspection
//! ```

use mbi::{
    GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, QueryRequest, SearchParams,
    TimeWindow,
};
use mbi_data::DriftingMixture;

fn main() {
    let dataset = DriftingMixture { drift: 1.0, ..DriftingMixture::new(32, 99) }.generate(
        "inspect",
        Metric::Euclidean,
        10_000,
        32,
    );

    let mut index = MbiIndex::new(
        MbiConfig::new(32, Metric::Euclidean)
            .with_leaf_size(1024)
            .with_backend(GraphBackend::NnDescent(NnDescentParams {
                degree: 16,
                ..Default::default()
            }))
            .with_search(SearchParams::new(64, 1.15)),
    );
    for (v, t) in dataset.iter() {
        index.insert(v, t).unwrap();
    }

    // 1. The block tree, as the postorder layout the paper's Figure 1 draws.
    println!("=== block tree ===\n{}", index.render_tree());

    // 2. Per-level accounting: every level stores (nearly) the same graph
    //    bytes — the log factor of the O(|D| log |D|) size bound.
    println!("=== per-level graph bytes ===");
    for l in index.level_stats() {
        println!(
            "height {}: {:>2} blocks covering {:>6} rows — {:>8.1} KiB",
            l.height,
            l.blocks,
            l.rows,
            l.graph_bytes as f64 / 1024.0
        );
    }
    println!(
        "total index: {:.2} MiB over {:.2} MiB of raw data",
        index.index_memory_bytes() as f64 / (1 << 20) as f64,
        index.data_bytes() as f64 / (1 << 20) as f64
    );

    // 3. Structural validation — the same check `from_bytes` runs on loads.
    index.validate().expect("freshly built index is consistent");
    println!("\nvalidate(): ok");

    // 4. Queries run with an intra-query fan-out over the selected blocks;
    //    the width never changes an answer.
    let requests: Vec<(Vec<f32>, TimeWindow)> = (0..32)
        .map(|i| {
            let q = dataset.test.get(i % dataset.test.len()).to_vec();
            let s = (i as i64 * 200) % 8_000;
            (q, TimeWindow::new(s, s + 2_000))
        })
        .collect();
    let t0 = std::time::Instant::now();
    let answers: Vec<_> = requests
        .iter()
        .map(|(q, w)| index.search(&QueryRequest::new(q, 10, *w).with_threads(0)).results)
        .collect();
    let elapsed = t0.elapsed();
    let hits: usize = answers.iter().map(Vec::len).sum();
    println!(
        "
queries: {} requests → {} results in {:.2?} ({:.0} qps)",
        requests.len(),
        hits,
        elapsed,
        requests.len() as f64 / elapsed.as_secs_f64()
    );
    for ((q, w), answer) in requests.iter().zip(&answers).take(2) {
        let sequential = index.search(&QueryRequest::new(q, 10, *w).with_threads(1)).results;
        assert_eq!(&sequential, answer, "fan-out result matches the sequential path");
    }
    println!("fan-out results verified against the sequential path");
}
