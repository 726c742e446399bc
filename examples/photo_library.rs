//! Photo library: "which 10 photos I took between January 2010 and May 2011
//! are most similar to the one I just took?" — the motivating query from the
//! paper's introduction, with a head-to-head against the BSBF and SF
//! baselines on short vs long date ranges.
//!
//! Run with:
//! ```sh
//! cargo run --release --example photo_library
//! ```

use mbi::baselines::{BsbfIndex, SfConfig, SfIndex};
use mbi::{MbiConfig, MbiIndex, Metric, NnDescentParams, QueryRequest, SearchParams, TimeWindow};
use mbi_data::{DriftingMixture, TimestampModel};
use std::time::Instant;

/// Days since 2000-01-01 for a (year, month) pair — a toy calendar that is
/// good enough for windowing demo purposes.
fn day(year: i64, month: i64) -> i64 {
    (year - 2000) * 365 + (month - 1) * 30
}

fn main() {
    // 30,000 "photo embeddings" accumulated over ~20 years; shooting rate
    // accelerates (phones!), and subjects drift over time.
    let horizon = day(2020, 1);
    let dataset = DriftingMixture {
        dim: 64,
        clusters: 24,
        spread: 0.12,
        drift: 1.5,
        seed: 7,
        timestamps: TimestampModel::Accelerating { horizon },
    }
    .generate("photos", Metric::Angular, 30_000, 3);

    let degree = 24;
    let search = SearchParams::new(96, 1.15);

    // MBI.
    let t = Instant::now();
    let mut mbi = MbiIndex::new(
        MbiConfig::new(64, Metric::Angular)
            .with_leaf_size(2048)
            .with_tau(0.5)
            .with_backend(mbi::GraphBackend::NnDescent(NnDescentParams {
                degree,
                ..Default::default()
            }))
            .with_search(search),
    );
    for (v, ts) in dataset.iter() {
        mbi.insert(v, ts).unwrap();
    }
    println!("MBI built incrementally in {:.2?}", t.elapsed());

    // BSBF: the sorted data is the index.
    let mut bsbf = BsbfIndex::new(64, Metric::Angular);
    for (v, ts) in dataset.iter() {
        bsbf.insert(v, ts).unwrap();
    }

    // SF: one graph over everything.
    let t = Instant::now();
    let mut sf_cfg = SfConfig::new(64, Metric::Angular);
    sf_cfg.graph = NnDescentParams { degree, ..Default::default() };
    sf_cfg.search = search;
    let sf = SfIndex::build(sf_cfg, dataset.iter()).unwrap();
    println!("SF graph built in one shot in {:.2?}", t.elapsed());

    let camera_roll = dataset.test.get(0); // "the photo you just took"

    let scenarios = [
        ("Jan 2010 – May 2011 (short window)", day(2010, 1), day(2011, 5)),
        ("the 2010s (long window)", day(2010, 1), day(2020, 1)),
    ];

    for (label, t_s, t_e) in scenarios {
        let window = TimeWindow::new(t_s, t_e);
        println!("\n=== {label} ===");

        let exact: Vec<u32> =
            bsbf.query(camera_roll, 10, window).into_iter().map(|r| r.id).collect();

        // Time each method over repeated queries.
        let reps = 50;
        for (name, run) in [
            (
                "MBI",
                &(|| mbi.search(&QueryRequest::new(camera_roll, 10, window)).results)
                    as &dyn Fn() -> Vec<mbi::TknnResult>,
            ),
            ("BSBF", &(|| bsbf.query(camera_roll, 10, window))),
            ("SF", &(|| sf.query(camera_roll, 10, window))),
        ] {
            let t = Instant::now();
            let mut res = Vec::new();
            for _ in 0..reps {
                res = run();
            }
            let per_query = t.elapsed() / reps;
            let ids: Vec<u32> = res.iter().map(|r| r.id).collect();
            let hits = ids.iter().filter(|id| exact.contains(id)).count();
            println!(
                "{name:>5}: {per_query:>10.1?}/query   recall@10 {:.2}   first hit: photo #{} (day {})",
                hits as f64 / 10.0,
                res.first().map_or(0, |r| r.id),
                res.first().map_or(0, |r| r.timestamp),
            );
        }
    }

    println!(
        "\nindex sizes — MBI: {:.1} MiB, SF: {:.1} MiB, raw data: {:.1} MiB",
        mbi.index_memory_bytes() as f64 / (1 << 20) as f64,
        sf.index_memory_bytes() as f64 / (1 << 20) as f64,
        mbi.data_bytes() as f64 / (1 << 20) as f64,
    );
}
