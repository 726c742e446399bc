//! Property tests for binary persistence: roundtrip fidelity across
//! arbitrary index shapes (size, leaf size, metric, τ, backend) and
//! structural equality of the reloaded index.

use mbi_ann::{HnswParams, NnDescentParams, SearchParams};
use mbi_core::{GraphBackend, MbiConfig, MbiIndex, QueryRequest, TimeWindow};
use mbi_math::Metric;
use proptest::prelude::*;

fn build(
    n: usize,
    leaf_size: usize,
    metric: Metric,
    tau: f64,
    hnsw: bool,
    ts_stride: i64,
) -> MbiIndex {
    let backend = if hnsw {
        GraphBackend::Hnsw(HnswParams { m: 4, ef_construction: 16, seed: 1 })
    } else {
        GraphBackend::NnDescent(NnDescentParams { degree: 4, max_iters: 2, ..Default::default() })
    };
    let mut idx = MbiIndex::new(
        MbiConfig::new(3, metric)
            .with_leaf_size(leaf_size)
            .with_tau(tau)
            .with_backend(backend)
            .with_search(SearchParams::new(24, 1.2)),
    );
    for i in 0..n {
        let x = i as f32;
        idx.insert(
            &[(x * 0.31).sin() + 1.5, (x * 0.17).cos() + 1.5, 0.1 * x],
            i as i64 * ts_stride,
        )
        .unwrap();
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_preserves_structure_and_answers(
        n in 0usize..220,
        leaf_size in 1usize..40,
        metric_pick in 0u8..3,
        tau_pct in 1u32..=100,
        hnsw in any::<bool>(),
        ts_stride in 1i64..5,
    ) {
        let metric = match metric_pick {
            0 => Metric::Euclidean,
            1 => Metric::Angular,
            _ => Metric::InnerProduct,
        };
        let idx = build(n, leaf_size, metric, tau_pct as f64 / 100.0, hnsw, ts_stride);
        let loaded = MbiIndex::from_bytes(idx.to_bytes()).expect("roundtrip");

        prop_assert_eq!(loaded.len(), idx.len());
        prop_assert_eq!(loaded.num_leaves(), idx.num_leaves());
        prop_assert_eq!(loaded.blocks().len(), idx.blocks().len());
        prop_assert_eq!(loaded.timestamps(), idx.timestamps());
        prop_assert_eq!(loaded.store().as_flat(), idx.store().as_flat());
        prop_assert_eq!(loaded.validate(), Ok(()));

        // Identical answers on a few windows.
        let q = [1.0f32, 2.0, 0.5];
        let hi = n as i64 * ts_stride + 1;
        for (s, e) in [(0i64, hi), (hi / 4, hi / 2), (hi - 3, hi)] {
            let w = TimeWindow::new(s.min(e), e.max(s));
            prop_assert_eq!(idx.search(&QueryRequest::new(&q, 5, w)).results, loaded.search(&QueryRequest::new(&q, 5, w)).results);
        }

        // Re-serialisation is byte-identical (canonical encoding).
        prop_assert_eq!(idx.to_bytes(), loaded.to_bytes());
    }

    /// A reloaded index continues ingesting and stays valid.
    #[test]
    fn reloaded_index_keeps_growing(
        n in 1usize..120,
        leaf_size in 1usize..16,
        extra in 1usize..60,
    ) {
        let idx = build(n, leaf_size, Metric::Euclidean, 0.5, false, 1);
        let mut loaded = MbiIndex::from_bytes(idx.to_bytes()).expect("roundtrip");
        let last = *loaded.timestamps().last().unwrap_or(&-1);
        for j in 0..extra {
            loaded
                .insert(&[j as f32, -(j as f32), 0.0], last + 1 + j as i64)
                .unwrap();
        }
        prop_assert_eq!(loaded.len(), n + extra);
        prop_assert_eq!(loaded.validate(), Ok(()));
        // And the grown index still roundtrips.
        let again = MbiIndex::from_bytes(loaded.to_bytes()).expect("second roundtrip");
        prop_assert_eq!(again.len(), n + extra);
    }

    /// Any single-byte corruption of a stream is rejected — every byte
    /// of the stream is covered by a section CRC, the footer CRC, or a
    /// structural check, so no flip can load as a silently different index
    /// (and none may panic).
    #[test]
    fn any_single_byte_flip_is_rejected(
        n in 1usize..80,
        leaf_size in 1usize..16,
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let idx = build(n, leaf_size, Metric::Euclidean, 0.5, false, 1);
        let bytes = idx.to_bytes().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        let mut bad = bytes;
        bad[pos] ^= 1u8 << bit;
        let res = MbiIndex::from_bytes(bytes::Bytes::from(bad));
        prop_assert!(res.is_err(), "flip at byte {} bit {} accepted", pos, bit);
    }

    /// Any truncation of a stream is rejected (the footer pins the exact
    /// length), and so is any truncation of a snapshot stream.
    #[test]
    fn any_truncation_is_rejected(
        n in 1usize..80,
        leaf_size in 1usize..16,
        cut_seed in any::<u64>(),
    ) {
        let idx = build(n, leaf_size, Metric::Euclidean, 0.5, false, 1);
        let bytes = idx.to_bytes();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(MbiIndex::from_bytes(bytes.slice(0..cut)).is_err(),
            "truncation to {} bytes accepted", cut);
    }
}
