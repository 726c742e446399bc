//! A uniform facade over the three TkNN methods under evaluation.

use mbi_ann::{SearchParams, SearchStats};
use mbi_baselines::{BsbfIndex, SfIndex};
use mbi_core::{MbiIndex, QueryRequest, TimeWindow};

/// Which method a [`TknnMethod`] handle wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// Multi-level Block Indexing (the paper's contribution).
    Mbi,
    /// Binary Search and Brute-Force (exact baseline).
    Bsbf,
    /// Search and Filtering (graph baseline).
    Sf,
}

impl MethodKind {
    /// Display name used in figures ("MBI" / "BSBF" / "SF").
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::Mbi => "MBI",
            MethodKind::Bsbf => "BSBF",
            MethodKind::Sf => "SF",
        }
    }
}

/// Object-safe TkNN query interface implemented by all three methods.
pub trait TknnMethod: Sync {
    /// Which method this is.
    fn kind(&self) -> MethodKind;

    /// Answer a TkNN query; returns result row ids (ascending distance) and
    /// work counters. `search` carries `M_C`/`ε`; BSBF is exact and ignores
    /// it.
    fn tknn(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        search: &SearchParams,
    ) -> (Vec<u32>, SearchStats);

    /// Whether `ε` affects this method (false for the exact BSBF — its
    /// recall is 1.0 at every ε, so sweeps measure it once).
    fn tunable(&self) -> bool {
        true
    }

    /// Bytes of auxiliary index structure (Table 4).
    fn index_memory_bytes(&self) -> usize;
}

impl TknnMethod for MbiIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::Mbi
    }

    fn tknn(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        search: &SearchParams,
    ) -> (Vec<u32>, SearchStats) {
        let out = self.search(&QueryRequest::new(query, k, window).with_params(*search));
        (out.results.into_iter().map(|r| r.id).collect(), out.stats)
    }

    fn index_memory_bytes(&self) -> usize {
        MbiIndex::index_memory_bytes(self)
    }
}

impl TknnMethod for BsbfIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::Bsbf
    }

    fn tknn(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        _search: &SearchParams,
    ) -> (Vec<u32>, SearchStats) {
        let (res, stats) = self.query_with_stats(query, k, window);
        (res.into_iter().map(|r| r.id).collect(), stats)
    }

    fn tunable(&self) -> bool {
        false
    }

    fn index_memory_bytes(&self) -> usize {
        BsbfIndex::index_memory_bytes(self)
    }
}

impl TknnMethod for SfIndex {
    fn kind(&self) -> MethodKind {
        MethodKind::Sf
    }

    fn tknn(
        &self,
        query: &[f32],
        k: usize,
        window: TimeWindow,
        search: &SearchParams,
    ) -> (Vec<u32>, SearchStats) {
        let (res, stats) = self.query_with_params(query, k, window, search);
        (res.into_iter().map(|r| r.id).collect(), stats)
    }

    fn index_memory_bytes(&self) -> usize {
        SfIndex::index_memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_baselines::SfConfig;
    use mbi_core::MbiConfig;
    use mbi_math::Metric;

    fn line_data(n: usize) -> Vec<(Vec<f32>, i64)> {
        (0..n).map(|i| (vec![i as f32, 0.0], i as i64)).collect()
    }

    #[test]
    fn all_three_methods_agree_on_easy_data() {
        let data = line_data(200);

        let mut mbi = MbiIndex::new(MbiConfig::new(2, Metric::Euclidean).with_leaf_size(32));
        let mut bsbf = BsbfIndex::new(2, Metric::Euclidean);
        let mut sf_cfg = SfConfig::new(2, Metric::Euclidean);
        sf_cfg.graph = mbi_ann::NnDescentParams { degree: 8, ..Default::default() };
        let mut sf = SfIndex::new(sf_cfg);
        for (v, t) in &data {
            mbi.insert(v, *t).unwrap();
            bsbf.insert(v, *t).unwrap();
            sf.insert(v, *t).unwrap();
        }
        sf.rebuild();

        let methods: [&dyn TknnMethod; 3] = [&mbi, &bsbf, &sf];
        let search = SearchParams::new(64, 1.2);
        let w = TimeWindow::new(20, 180);
        for m in methods {
            let (ids, stats) = m.tknn(&[100.0, 0.0], 5, w, &search);
            assert_eq!(ids, vec![100, 99, 101, 98, 102], "{}", m.kind().label());
            assert!(stats.dist_evals > 0 || stats.scanned > 0);
            assert!(m.index_memory_bytes() > 0);
        }
        assert!(mbi.tunable() && sf.tunable() && !bsbf.tunable());
        assert_eq!(MethodKind::Mbi.label(), "MBI");
        assert_eq!(MethodKind::Bsbf.label(), "BSBF");
        assert_eq!(MethodKind::Sf.label(), "SF");
    }
}
