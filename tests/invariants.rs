//! Property-based tests on MBI's structural invariants: postorder layout
//! (Algorithm 3), block selection (Algorithm 4), Lemma 4.1, and query
//! correctness relative to the exact scan.

use mbi::{
    GraphBackend, MbiConfig, MbiIndex, Metric, NnDescentParams, QueryRequest, SearchParams,
    TimeWindow,
};
use proptest::prelude::*;

/// A cheap index: low dim, tiny degree, fast NNDescent, so proptest can
/// build hundreds of instances.
fn build_index(n: usize, leaf_size: usize, tau: f64) -> MbiIndex {
    let config = MbiConfig::new(2, Metric::Euclidean)
        .with_leaf_size(leaf_size)
        .with_tau(tau)
        .with_backend(GraphBackend::NnDescent(NnDescentParams {
            degree: 4,
            max_iters: 3,
            ..Default::default()
        }))
        .with_search(SearchParams::new(32, 1.3));
    let mut idx = MbiIndex::new(config);
    for i in 0..n {
        let x = i as f32;
        idx.insert(&[(x * 0.37).sin() * 20.0, (x * 0.89).cos() * 20.0], i as i64).unwrap();
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Structural invariants of the postorder block layout.
    #[test]
    fn postorder_structure_invariants(
        n in 1usize..400,
        leaf_size in 1usize..32,
    ) {
        let idx = build_index(n, leaf_size, 0.5);
        let blocks = idx.blocks();
        let num_leaves = n / leaf_size;
        prop_assert_eq!(idx.num_leaves(), num_leaves);
        prop_assert_eq!(idx.tail_rows().len(), n - num_leaves * leaf_size);

        // Number of blocks = sum over set bits b of (2^(b+1) − 1).
        let expected: usize = (0..usize::BITS)
            .filter(|b| num_leaves & (1 << b) != 0)
            .map(|b| (1usize << (b + 1)) - 1)
            .sum();
        prop_assert_eq!(blocks.len(), expected);

        for (i, b) in blocks.iter().enumerate() {
            // Block covers 2^height leaves exactly.
            prop_assert_eq!(b.rows.len(), (1usize << b.height) * leaf_size);
            // Timestamps match the covered rows (ts == row id here).
            prop_assert_eq!(b.start_ts, b.rows.start as i64);
            prop_assert_eq!(b.end_ts, b.rows.end as i64);
            // Children sit at the postorder offsets used by selection.
            if b.height > 0 {
                let right = &blocks[i - 1];
                let left = &blocks[i - (1usize << b.height)];
                prop_assert_eq!(right.height, b.height - 1);
                prop_assert_eq!(left.height, b.height - 1);
                prop_assert_eq!(left.rows.start, b.rows.start);
                prop_assert_eq!(right.rows.end, b.rows.end);
                prop_assert_eq!(left.rows.end, right.rows.start);
            }
        }
    }

    /// Selected blocks + tail cover the window's rows exactly once, at any τ.
    #[test]
    fn selection_covers_window_exactly_once(
        n in 1usize..300,
        leaf_size in 1usize..24,
        tau_pct in 1u32..=100,
        s_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let tau = tau_pct as f64 / 100.0;
        let idx = build_index(n, leaf_size, tau);
        let s = (s_frac * n as f64) as i64;
        let e = s + (len_frac * (n as f64 - s as f64)) as i64;
        let w = TimeWindow::new(s, e.max(s));
        let sel = idx.block_selection(w);

        // Count how many selected places cover each in-window row.
        let mut covered = vec![0u32; n];
        for &bi in &sel.blocks {
            let b = &idx.blocks()[bi];
            for r in b.rows.clone() {
                if w.contains(r as i64) {
                    covered[r] += 1;
                }
            }
        }
        if sel.tail {
            for r in idx.tail_rows() {
                if w.contains(r as i64) {
                    covered[r] += 1;
                }
            }
        }
        for (r, &c) in covered.iter().enumerate() {
            let expected = u32::from(w.contains(r as i64));
            prop_assert_eq!(c, expected, "row {} covered {} times (window {:?})", r, c, w);
        }
    }

    /// Lemma 4.1: on a complete tree with τ ≤ 0.5, at most two blocks.
    #[test]
    fn lemma_4_1_holds_on_complete_trees(
        leaves_pow in 1u32..6,
        tau_pct in 1u32..=50,
        s_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let leaf_size = 4usize;
        let n = (1usize << leaves_pow) * leaf_size;
        let idx = build_index(n, leaf_size, tau_pct as f64 / 100.0);
        prop_assert!(idx.tail_rows().is_empty());
        let s = (s_frac * n as f64) as i64;
        let e = s + (len_frac * (n as f64 - s as f64)) as i64;
        let sel = idx.block_selection(TimeWindow::new(s, e.max(s)));
        prop_assert!(
            sel.blocks.len() <= 2,
            "τ={} window [{}, {}) selected {:?}",
            tau_pct as f64 / 100.0, s, e, sel.blocks
        );
    }

    /// Approximate query results are always in-window, sorted, deduplicated,
    /// and no better than the exact answer (distance-wise, element by
    /// element).
    #[test]
    fn query_results_are_sound(
        n in 10usize..300,
        leaf_size in 2usize..24,
        k in 1usize..8,
        s_frac in 0.0f64..0.9,
    ) {
        let idx = build_index(n, leaf_size, 0.5);
        let s = (s_frac * n as f64) as i64;
        let e = ((s + 20).min(n as i64)).max(s);
        let w = TimeWindow::new(s, e);
        let q = [3.0f32, -2.0];
        let got = idx.search(&QueryRequest::new(&q, k, w)).results;
        let exact = idx.exact_query(&q, k, w);

        prop_assert!(got.len() <= k);
        prop_assert!(got.len() <= exact.len());
        let mut seen = std::collections::HashSet::new();
        for (i, r) in got.iter().enumerate() {
            prop_assert!(w.contains(r.timestamp));
            prop_assert!(seen.insert(r.id), "duplicate id {}", r.id);
            if i > 0 {
                prop_assert!(got[i - 1].dist <= r.dist);
            }
            // The i-th approximate answer can't beat the i-th exact answer.
            prop_assert!(r.dist >= exact[i].dist - 1e-5);
        }
    }

    /// Exact query equals a naive filter-and-sort reference.
    #[test]
    fn exact_query_matches_naive_reference(
        n in 1usize..200,
        k in 1usize..6,
        s in 0i64..200,
        len in 0i64..200,
    ) {
        let idx = build_index(n, 8, 0.5);
        let w = TimeWindow::new(s.min(n as i64), (s + len).min(n as i64).max(s.min(n as i64)));
        let q = [7.0f32, 7.0];
        let got: Vec<u32> = idx.exact_query(&q, k, w).into_iter().map(|r| r.id).collect();

        let mut reference: Vec<(f32, u32)> = (0..n as u32)
            .filter(|&i| w.contains(i as i64))
            .map(|i| (Metric::Euclidean.distance(&q, idx.vector_of(i)), i))
            .collect();
        reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
        reference.truncate(k);
        let expect: Vec<u32> = reference.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(got, expect);
    }
}
