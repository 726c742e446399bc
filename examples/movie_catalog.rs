//! Movie catalogue: "which 5 movies released between 1980 and 1995 are most
//! similar to this one?" — the paper's other motivating query, demonstrating
//! the τ auto-tuner (§5.4.2: precompute the optimal τ per query interval and
//! use it at run-time).
//!
//! Run with:
//! ```sh
//! cargo run --release --example movie_catalog
//! ```

use mbi::core::tuner::TunerConfig;
use mbi::{MbiConfig, MbiIndex, QueryRequest, SearchParams, TauTuner, TimeWindow};
use mbi_data::presets::MOVIELENS;
use std::time::Instant;

fn main() {
    // A MovieLens-shaped stand-in: 32-d angular embeddings, release years as
    // timestamps (accelerating — more movies come out each year).
    let dataset = MOVIELENS.generate(0.35, 2024); // ~20k movies
    println!(
        "catalogue: {} movies, {}-d {} embeddings",
        dataset.len(),
        dataset.dim(),
        dataset.metric
    );

    let search = SearchParams::new(64, 1.15);
    let mut index = MbiIndex::new(
        MbiConfig::new(dataset.dim(), dataset.metric)
            .with_leaf_size(1500)
            .with_tau(0.5)
            .with_search(search),
    );
    for (v, t) in dataset.iter() {
        index.insert(v, t).unwrap();
    }

    // Map the timestamp horizon onto "years" for display: the generator's
    // horizon spans 1930–2024.
    let t_min = dataset.timestamps[0];
    let t_max = dataset.timestamps[dataset.len() - 1];
    let year = |t: i64| 1930 + ((t - t_min) * 94 / (t_max - t_min + 1));
    let from_year = |y: i64| t_min + (y - 1930) * (t_max - t_min + 1) / 94;

    // "Movies released 1980–1995 most similar to this query embedding".
    let zootopia = dataset.test.get(0);
    let window = TimeWindow::new(from_year(1980), from_year(1996));
    let hits = index.search(&QueryRequest::new(zootopia, 5, window)).results;
    println!("\nfive most similar movies released 1980–1995:");
    for (rank, h) in hits.iter().enumerate() {
        println!(
            "  {}. movie #{:<6} ({})  distance {:.4}",
            rank + 1,
            h.id,
            year(h.timestamp),
            h.dist
        );
    }

    // Calibrate τ per window length — short windows prefer larger τ (smaller
    // blocks), long windows prefer smaller τ (one big block).
    println!("\ncalibrating τ per window length…");
    let queries: Vec<Vec<f32>> =
        (0..dataset.test.len().min(8)).map(|i| dataset.test.get(i).to_vec()).collect();
    let tuner_cfg = TunerConfig {
        taus: vec![0.1, 0.3, 0.5, 0.7, 0.9],
        bucket_edges: vec![0.05, 0.2, 0.5, 1.0],
        min_recall: 0.9,
        k: 5,
        search,
    };
    let t = Instant::now();
    let tuner = TauTuner::calibrate(&index, &queries, &tuner_cfg);
    println!("calibrated in {:.2?}:", t.elapsed());
    println!("  window fraction ≤ | best τ | mean latency");
    for (edge, tau, lat) in tuner.report() {
        println!(
            "  {:>17} | {:>6} | {}",
            format!("{:.0}%", edge * 100.0),
            tau.map_or("—".into(), |t| format!("{t:.1}")),
            lat.map_or("—".into(), |l| format!("{:.1} µs", l * 1e6)),
        );
    }

    // Use the calibrated τ for a short-window query.
    let short = TimeWindow::new(from_year(1990), from_year(1993));
    let frac = short.len() as f64 / (t_max - t_min + 1) as f64;
    if let Some(tau) = tuner.suggest(frac) {
        index.set_tau(tau);
        let hits = index.search(&QueryRequest::new(zootopia, 5, short).with_params(search)).results;
        println!(
            "\nshort window 1990–1992 (fraction {:.1}%): tuned τ = {tau}, top hit movie #{}",
            frac * 100.0,
            hits.first().map_or(0, |h| h.id),
        );
    }
}
