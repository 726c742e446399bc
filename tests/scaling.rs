//! Deterministic complexity-trend tests: the work *counters* (distance
//! evaluations, scanned rows, visited vertices) are exact and reproducible
//! for fixed seeds, so the asymptotic claims of §3.2 and §4.4 can be
//! asserted without timing anything.

use mbi::baselines::{BsbfIndex, SfConfig, SfIndex};
use mbi::data::DriftingMixture;
use mbi::{
    GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, QueryRequest, SearchParams,
    TimeWindow,
};

const K: usize = 10;

fn dataset(n: usize) -> mbi::data::Dataset {
    DriftingMixture { drift: 0.5, ..DriftingMixture::new(16, 777) }.generate(
        "scaling",
        Metric::Euclidean,
        n,
        4,
    )
}

fn build_all(d: &mbi::data::Dataset) -> (MbiIndex, BsbfIndex, SfIndex) {
    let nd = NnDescentParams { degree: 12, ..Default::default() };
    let mut mbi = MbiIndex::new(
        MbiConfig::new(16, Metric::Euclidean)
            .with_leaf_size(1024)
            .with_tau(0.5)
            .with_backend(GraphBackend::NnDescent(nd))
            .with_search(SearchParams::new(64, 1.15)),
    );
    let mut bsbf = BsbfIndex::new(16, Metric::Euclidean);
    let mut sf_cfg = SfConfig::new(16, Metric::Euclidean);
    sf_cfg.graph = nd;
    sf_cfg.search = SearchParams::new(64, 1.15);
    let mut sf = SfIndex::new(sf_cfg);
    for (v, t) in d.iter() {
        mbi.insert(v, t).unwrap();
        bsbf.insert(v, t).unwrap();
        sf.insert(v, t).unwrap();
    }
    sf.rebuild();
    (mbi, bsbf, sf)
}

/// Work per query by window fraction; averaged over several windows.
fn mean_dist_evals(run: impl Fn(TimeWindow) -> u64, n: i64, fraction: f64) -> f64 {
    let len = (n as f64 * fraction) as i64;
    let offsets = [0i64, n / 7, n / 3, n / 2];
    let mut total = 0u64;
    let mut count = 0u64;
    for off in offsets {
        let s = off.min(n - len);
        total += run(TimeWindow::new(s, s + len));
        count += 1;
    }
    total as f64 / count as f64
}

#[test]
fn bsbf_work_is_linear_in_window() {
    let d = dataset(16_384);
    let (_, bsbf, _) = build_all(&d);
    let q = d.test.get(0).to_vec();
    let n = d.len() as i64;
    let w = |frac: f64| mean_dist_evals(|win| bsbf.query_with_stats(&q, K, win).1.scanned, n, frac);
    let at_5 = w(0.05);
    let at_80 = w(0.80);
    // 16× more window ⇒ ~16× more scanning (tolerate rounding).
    let ratio = at_80 / at_5;
    assert!((12.0..20.0).contains(&ratio), "scan ratio {ratio} (expected ≈ 16)");
}

#[test]
fn sf_work_explodes_on_short_windows() {
    let d = dataset(16_384);
    let (_, _, sf) = build_all(&d);
    let q = d.test.get(1).to_vec();
    let n = d.len() as i64;
    let w = |frac: f64| {
        mean_dist_evals(
            |win| sf.query_with_params(&q, K, win, &SearchParams::new(64, 1.15)).1.dist_evals,
            n,
            frac,
        )
    };
    let short = w(0.02);
    let long = w(0.90);
    assert!(
        short > 4.0 * long,
        "SF short-window work {short} should dwarf long-window work {long}"
    );
}

#[test]
fn mbi_work_is_bounded_across_window_lengths() {
    let d = dataset(16_384);
    let (mbi, bsbf, sf) = build_all(&d);
    let q = d.test.get(2).to_vec();
    let n = d.len() as i64;
    let params = SearchParams::new(64, 1.15);

    let mbi_work = |frac: f64| {
        mean_dist_evals(
            |win| {
                let out = mbi.search(&QueryRequest::new(&q, K, win).with_params(params));
                out.stats.dist_evals + out.stats.scanned
            },
            n,
            frac,
        )
    };
    let bsbf_work =
        |frac: f64| mean_dist_evals(|win| bsbf.query_with_stats(&q, K, win).1.scanned, n, frac);
    let sf_work = |frac: f64| {
        mean_dist_evals(|win| sf.query_with_params(&q, K, win, &params).1.dist_evals, n, frac)
    };

    // MBI must be within a constant factor of the *better* baseline at both
    // extremes — that is the paper's core claim (challenge C1).
    let frac_short = 0.02;
    let frac_long = 0.90;
    assert!(
        mbi_work(frac_short) <= 3.0 * bsbf_work(frac_short).min(sf_work(frac_short)),
        "short: MBI {} vs best baseline {}",
        mbi_work(frac_short),
        bsbf_work(frac_short).min(sf_work(frac_short))
    );
    assert!(
        mbi_work(frac_long) <= 3.0 * bsbf_work(frac_long).min(sf_work(frac_long)),
        "long: MBI {} vs best baseline {}",
        mbi_work(frac_long),
        bsbf_work(frac_long).min(sf_work(frac_long))
    );
    // And it must beat BSBF by a wide margin on long windows.
    assert!(mbi_work(frac_long) * 4.0 < bsbf_work(frac_long));
}

#[test]
fn mbi_blocks_searched_obeys_lemma_4_1_plus_tail() {
    let d = dataset(8_192); // 8 leaves of 1024 → complete tree
    let (mbi, _, _) = build_all(&d);
    assert!(mbi.tail_rows().is_empty());
    let q = d.test.get(3).to_vec();
    let n = d.len() as i64;
    for frac in [0.01, 0.1, 0.33, 0.66, 0.95] {
        let len = (n as f64 * frac) as i64;
        for off in [0i64, n / 5, n / 2] {
            let s = off.min(n - len);
            let out = mbi.search(
                &QueryRequest::new(&q, K, TimeWindow::new(s, s + len))
                    .with_params(SearchParams::new(64, 1.15)),
            );
            assert!(
                out.stats.blocks_searched <= 2,
                "frac {frac} offset {off}: {} blocks",
                out.stats.blocks_searched
            );
        }
    }
}

#[test]
fn index_size_grows_superlinearly_but_gently() {
    // §4.4.1: doubling the data roughly doubles the per-level cost and adds
    // one level — the MBI/SF size ratio grows by about one level's worth.
    let sizes = [2_048usize, 4_096, 8_192, 16_384];
    let mut ratios = Vec::new();
    for &n in &sizes {
        let d = dataset(n);
        let (mbi, _, sf) = build_all(&d);
        ratios.push(mbi.index_memory_bytes() as f64 / sf.index_memory_bytes() as f64);
    }
    for w in ratios.windows(2) {
        assert!(w[1] > w[0], "MBI/SF size ratio should grow with data: {ratios:?}");
    }
    // But by less than a full doubling per step (it's a log factor).
    for w in ratios.windows(2) {
        assert!(w[1] < w[0] * 2.0, "ratio growth too steep: {ratios:?}");
    }
}

#[test]
fn amortized_insert_cost_grows_sublinearly() {
    // §4.4.2: amortised insertion is O(n^0.14 log n) — doubling the data
    // must far less than double the *per-vector* build work. Proxy: total
    // build time is hard to count deterministically, so compare index bytes
    // per vector (graph work tracks graph size for fixed degree).
    let small = dataset(4_096);
    let big = dataset(16_384);
    let (mbi_small, _, _) = build_all(&small);
    let (mbi_big, _, _) = build_all(&big);
    let per_vec_small = mbi_small.index_memory_bytes() as f64 / 4_096.0;
    let per_vec_big = mbi_big.index_memory_bytes() as f64 / 16_384.0;
    let growth = per_vec_big / per_vec_small;
    assert!(growth < 2.5, "per-vector index cost grew {growth:.2}× over a 4× data increase");
    assert!(growth > 1.0, "per-vector cost should still grow (log levels)");
}
