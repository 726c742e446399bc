//! End-to-end recall floor for the SQ8 quantized first pass (tentpole
//! acceptance): at the default over-fetch, an engine scanning SQ8 codes must
//! keep ≥ 0.95 of the exact path's recall, and every distance it returns must
//! be the exact f32 distance (the rerank guarantees this bit for bit).

use mbi_core::{MbiConfig, QueryRequest, StreamingMbi, TimeWindow, TknnResult};
use mbi_math::Metric;

const DIM: usize = 32;
const N: usize = 2048;
const K: usize = 10;

/// Deterministic pseudo-random vectors (LCG; tests stay dependency-free).
fn lcg_vec(state: &mut u32, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            *state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((*state >> 8) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect()
}

fn build(metric: Metric, sq8: bool) -> StreamingMbi {
    let config = MbiConfig::new(DIM, metric).with_leaf_size(256).with_sq8_scan(sq8);
    assert_eq!(config.sq8_overfetch, 3.0, "the floor is measured at the default over-fetch");
    let engine = StreamingMbi::new(config);
    let mut state = 0xC0FFEE;
    for t in 0..N {
        engine.insert(&lcg_vec(&mut state, DIM), t as i64).unwrap();
    }
    engine.flush();
    engine
}

fn recall(got: &[TknnResult], truth: &[TknnResult]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hit = got.iter().filter(|g| truth.iter().any(|t| t.id == g.id)).count();
    hit as f64 / truth.len() as f64
}

#[test]
fn sq8_engine_keeps_95_percent_of_exact_recall() {
    for metric in [Metric::Euclidean, Metric::Angular] {
        let exact_engine = build(metric, false);
        let sq8_engine = build(metric, true);
        assert!(sq8_engine.snapshot().store().has_sq8(), "sealed segments carry the column");

        let windows = [
            TimeWindow::all(),
            TimeWindow::new(0, (N / 2) as i64),
            TimeWindow::new((N / 4) as i64, (3 * N / 4) as i64),
        ];
        let mut state = 0xBEEF01;
        let (mut plain_sum, mut sq8_sum, mut queries) = (0.0, 0.0, 0);
        for qi in 0..12 {
            let q = lcg_vec(&mut state, DIM);
            for &w in &windows {
                let truth = sq8_engine.exact_query(&q, K, w);
                let plain = exact_engine.search(&QueryRequest::new(&q, K, w)).results;
                let got = sq8_engine.search(&QueryRequest::new(&q, K, w)).results;
                plain_sum += recall(&plain, &truth);
                sq8_sum += recall(&got, &truth);
                queries += 1;
                // The rerank evaluates survivors on the f32 rows, so every
                // returned distance is exact — compare against ground truth
                // bit for bit wherever the ids agree.
                for g in &got {
                    if let Some(t) = truth.iter().find(|t| t.id == g.id) {
                        assert_eq!(
                            g.dist.to_bits(),
                            t.dist.to_bits(),
                            "{metric} query {qi}: sq8 path must return exact distances"
                        );
                    }
                }
            }
        }
        let plain_recall = plain_sum / queries as f64;
        let sq8_recall = sq8_sum / queries as f64;
        assert!(
            sq8_recall >= 0.95 * plain_recall,
            "{metric}: sq8 recall {sq8_recall:.4} fell below 0.95 × exact-path recall \
             {plain_recall:.4} at the default over-fetch"
        );
        assert!(sq8_recall >= 0.9, "{metric}: absolute sq8 recall {sq8_recall:.4} implausibly low");
    }
}

#[test]
fn sq8_engine_survives_persistence() {
    let engine = build(Metric::Euclidean, true);
    let snap = engine.snapshot();
    let loaded = mbi_core::IndexSnapshot::from_bytes(snap.to_bytes()).unwrap();
    assert!(loaded.store().has_sq8());
    let mut state = 0xAB12;
    let q = lcg_vec(&mut state, DIM);
    let w = TimeWindow::all();
    let params = snap.config().search;
    let a = snap.search(&QueryRequest::new(&q, K, w).with_params(params)).results;
    let b = loaded.search(&QueryRequest::new(&q, K, w).with_params(params)).results;
    assert_eq!(a, b, "reloaded quantized snapshot answers identically");
}
