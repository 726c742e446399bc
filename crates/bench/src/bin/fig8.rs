//! Regenerates **Figure 8** — the effect of the leaf size `S_L` on (a)
//! cumulative indexing time during incremental insertion and (b) query speed
//! measured as the index grows, on the MovieLens stand-in.
//!
//! Expected shape (paper §5.4.1): smaller `S_L` costs somewhat more indexing
//! time (more levels), query speed decreases slowly overall with a zigzag —
//! sudden jumps when the tree completes (a new root covers everything).
//!
//! ```sh
//! cargo run -p mbi-bench --release --bin fig8 [-- --leaves 500,1000,2000,4000 --checkpoints 16]
//! ```

use mbi_ann::SearchParams;
use mbi_bench::*;
use mbi_core::{GraphBackend, MbiConfig, MbiIndex, QueryRequest};
use mbi_data::presets::MOVIELENS;
use mbi_data::windows_for_fraction;
use mbi_eval::report::{fmt3, print_table, write_json};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Checkpoint {
    leaf_size: usize,
    inserted: usize,
    cumulative_index_s: f64,
    qps: f64,
    blocks: usize,
}

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 7);
    let out = args.get_str("out", "results");
    let n_checkpoints: usize = args.get("checkpoints", 16);
    let leaf_sizes: Vec<usize> = args
        .get_str("leaves", "500,1000,2000,4000")
        .split(',')
        .filter_map(|s| s.parse().ok())
        .collect();

    let dataset = generate(&MOVIELENS, scale, seed);
    let params = params_for(&MOVIELENS, &dataset);
    let n = dataset.len();
    let step = (n / n_checkpoints).max(1);
    let search = SearchParams::new(params.max_candidates, 1.1);

    let mut checkpoints: Vec<Checkpoint> = Vec::new();
    for &s_l in &leaf_sizes {
        eprintln!("[movielens] S_L = {s_l}…");
        let config = MbiConfig::new(dataset.dim(), dataset.metric)
            .with_leaf_size(s_l)
            .with_tau(0.5)
            .with_backend(GraphBackend::NnDescent(params.nndescent(0x5EED)))
            .with_search(search);
        let mut index = MbiIndex::new(config);
        let mut cumulative = 0.0f64;
        for (i, (v, t)) in dataset.iter().enumerate() {
            let t0 = Instant::now();
            index.insert(v, t).expect("ordered");
            cumulative += t0.elapsed().as_secs_f64();

            if (i + 1) % step == 0 || i + 1 == n {
                // Query speed at this point: windows 5%–95% of current data
                // (paper: "the size of the time window randomly set from 5%
                // to 95% of the current data size").
                let current_ts = &dataset.timestamps[..i + 1];
                let mut windows = Vec::new();
                for (j, f) in [0.05, 0.25, 0.5, 0.75, 0.95].iter().enumerate() {
                    windows.extend(windows_for_fraction(current_ts, *f, 4, seed + j as u64));
                }
                let t0 = Instant::now();
                let mut count = 0usize;
                for (j, w) in windows.iter().enumerate() {
                    let q = dataset.test.get(j % dataset.test.len());
                    let res = index.search(&QueryRequest::new(q, 10, *w).with_params(search));
                    count += res.results.len();
                }
                let elapsed = t0.elapsed().as_secs_f64();
                assert!(count > 0);
                checkpoints.push(Checkpoint {
                    leaf_size: s_l,
                    inserted: i + 1,
                    cumulative_index_s: cumulative,
                    qps: windows.len() as f64 / elapsed.max(1e-12),
                    blocks: index.blocks().len(),
                });
            }
        }
    }

    for &s_l in &leaf_sizes {
        let rows: Vec<Vec<String>> = checkpoints
            .iter()
            .filter(|c| c.leaf_size == s_l)
            .map(|c| {
                vec![
                    c.inserted.to_string(),
                    format!("{:.2}", c.cumulative_index_s),
                    fmt3(c.qps),
                    c.blocks.to_string(),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 8 [movielens, S_L = {s_l}]: cumulative indexing time & query speed while inserting"),
            &["inserted", "cum index s", "qps", "blocks"],
            &rows,
        );
    }

    match write_json(&out, "fig8", &checkpoints) {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("could not write json: {e}"),
    }
}
