//! Inputs made from the seed: rows, held-out query vectors, query windows,
//! and the exact answers the replies are checked against.

use mbi_ann::VectorStore;
use mbi_core::TimeWindow;
use mbi_data::presets::DatasetPreset;
use mbi_math::Metric;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generated rows in insert order: row `i` gets id `i` from the server.
pub struct Rows {
    /// Distance the preset is evaluated under.
    pub metric: Metric,
    /// The vectors.
    pub store: VectorStore,
    /// Non-decreasing timestamps, one per row.
    pub ts: Vec<i64>,
}

impl Rows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Vector of row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        self.store.get(i)
    }

    /// Row range `[lo, hi)` whose timestamps lie in `w`.
    pub fn rows_in(&self, w: TimeWindow) -> (usize, usize) {
        (self.ts.partition_point(|&t| t < w.start), self.ts.partition_point(|&t| t < w.end))
    }

    /// User bytes of the first `n` rows: a vector and a timestamp each.
    pub fn user_bytes(&self, n: usize) -> u64 {
        (n * (4 * self.dim() + 8)) as u64
    }

    /// Exact TkNN ids of `q` in `w`, ascending by distance.
    pub fn exact(&self, q: &[f32], w: TimeWindow, k: usize) -> Vec<u32> {
        mbi_data::truth::exact_ids(&self.store, &self.ts, q, w, k, self.metric)
    }
}

/// Generates `n_rows` rows and `n_queries` query vectors of `preset`. The
/// queries are rows of the same stream held out of the index, as in the
/// paper's set-up.
pub fn generate(
    preset: &DatasetPreset,
    n_rows: usize,
    n_queries: usize,
    seed: u64,
) -> (Rows, Vec<Vec<f32>>) {
    let total = n_rows + n_queries;
    let scale = (total as f64 + 0.5) / preset.paper_train as f64;
    let set = preset.generate(scale, seed);
    assert_eq!(set.len(), total, "preset scale rounding");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0005_eed0_f9e7);
    let mut held = vec![false; total];
    let mut picked = 0;
    while picked < n_queries {
        let i = rng.gen_range(0..total);
        if !held[i] {
            held[i] = true;
            picked += 1;
        }
    }
    let mut rows = Rows {
        metric: set.metric,
        store: VectorStore::with_capacity(set.dim(), n_rows),
        ts: Vec::with_capacity(n_rows),
    };
    let mut queries = Vec::with_capacity(n_queries);
    for (i, (v, t)) in set.iter().enumerate() {
        if held[i] {
            queries.push(v.to_vec());
        } else {
            rows.store.push(v);
            rows.ts.push(t);
        }
    }
    (rows, queries)
}

/// The window covering `fraction` of the first `n` rows, starting at the
/// row offset picked by `pick ∈ [0, 1)`; `end_at_newest` pins it to the
/// newest of those rows instead.
pub fn window(rows: &Rows, n: usize, fraction: f64, pick: f64, end_at_newest: bool) -> TimeWindow {
    let m = ((n as f64 * fraction).round() as usize).clamp(1, n);
    let lo = if end_at_newest { n - m } else { ((pick * (n - m + 1) as f64) as usize).min(n - m) };
    let hi = lo + m;
    let end = if hi == n { rows.ts[n - 1] + 1 } else { rows.ts[hi] };
    TimeWindow::new(rows.ts[lo], end)
}

/// One query of the closed-loop pool: a held-out vector, a window and its
/// exact answer.
pub struct PoolEntry {
    /// Index into the query vectors.
    pub query: usize,
    /// The window.
    pub window: TimeWindow,
    /// Rows inside the window.
    pub rows_in_window: usize,
    /// Exact answer ids.
    pub truth: Vec<u32>,
}

/// The window fractions of the paper's Figure 5 sweep.
pub const FIG5_FRACTIONS: [f64; 6] = [0.01, 0.05, 0.10, 0.20, 0.50, 1.00];

/// `per_fraction` pool entries for each Figure 5 fraction, interleaved so
/// that any prefix of the pool draws the fractions evenly.
pub fn sweep_pool(
    rows: &Rows,
    queries: &[Vec<f32>],
    per_fraction: usize,
    seed: u64,
) -> Vec<PoolEntry> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x900d_f00d);
    let mut pool = Vec::with_capacity(per_fraction * FIG5_FRACTIONS.len());
    for round in 0..per_fraction {
        for (f, &fraction) in FIG5_FRACTIONS.iter().enumerate() {
            let query = (round * FIG5_FRACTIONS.len() + f) % queries.len();
            let w = window(rows, rows.len(), fraction, rng.gen_range(0.0..1.0), false);
            let (lo, hi) = rows.rows_in(w);
            pool.push(PoolEntry { query, window: w, rows_in_window: hi - lo, truth: Vec::new() });
        }
    }
    pool
}

/// Fills in every pool entry's exact answer.
pub fn fill_truth(rows: &Rows, queries: &[Vec<f32>], pool: &mut [PoolEntry], k: usize) {
    let asked: Vec<(Vec<f32>, TimeWindow)> =
        pool.iter().map(|e| (queries[e.query].clone(), e.window)).collect();
    let truth = mbi_data::truth::ground_truth(&rows.store, &rows.ts, &asked, k, rows.metric, 0);
    for (e, t) in pool.iter_mut().zip(truth) {
        e.truth = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_the_requested_rows() {
        // Four rows at timestamps 10, 20, 30, 40.
        let rows = Rows {
            metric: Metric::Euclidean,
            store: VectorStore::from_flat(1, vec![0.0; 4]),
            ts: vec![10, 20, 30, 40],
        };
        assert_eq!(window(&rows, 4, 1.0, 0.0, false), TimeWindow::new(10, 41));
        assert_eq!(window(&rows, 4, 0.5, 0.0, true), TimeWindow::new(30, 41));
        // Over the first three rows only, the newest is row 2.
        assert_eq!(window(&rows, 3, 0.34, 0.0, true), TimeWindow::new(30, 31));
        assert_eq!(window(&rows, 4, 0.25, 0.99, false), TimeWindow::new(40, 41));
        assert_eq!(rows.rows_in(TimeWindow::new(10, 30)), (0, 2));
    }
}
