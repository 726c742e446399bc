//! The benchmark's own arithmetic: percentiles, the rule that says which
//! percentile a sample supports, and recall.

/// Percentiles a report may quote, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Zero-based index of the nearest-rank `p`-th percentile among `n` sorted
/// samples (`n > 0`).
fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps 99.9 % of 10 000 at rank 9990: 99.9 has no exact
    // binary form and the product lands a hair above the integer.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly above the `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p) - 1
    }
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond it, or `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    LADDER.iter().copied().find(|&p| samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile of `samples` (sorted in place); `0.0` when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[rank(samples.len(), p)]
}

/// Samples a slice of [`sliced_percentile`] holds at least.
pub const SLICE_MIN: usize = 1000;
/// Slices [`sliced_percentile`] cuts at most.
pub const SLICES_MAX: usize = 5;

/// The median, over consecutive slices of `samples` (in completion order),
/// of each slice's `p`-th percentile. There are as many slices as fit
/// [`SLICE_MIN`] samples each, at most [`SLICES_MAX`]; with fewer samples
/// the whole set is one slice. A burst of slow operations then moves one
/// slice's percentile rather than the run's.
pub fn sliced_percentile(samples: &[f64], p: f64) -> f64 {
    let slices = (samples.len() / SLICE_MIN).clamp(1, SLICES_MAX);
    let per = samples.len() / slices;
    let at: Vec<f64> = (0..slices)
        .map(|s| {
            let end = if s + 1 == slices { samples.len() } else { (s + 1) * per };
            percentile(&mut samples[s * per..end].to_vec(), p)
        })
        .collect();
    median(&at)
}

/// The median, over `n` equal time slices of `[0, span)`, of `f` applied to
/// the values of `(time, value)` samples that fall in the slice (with the
/// slice length).
pub fn over_time_slices(
    samples: &[(f64, f64)],
    span: f64,
    n: usize,
    f: impl Fn(&mut Vec<f64>, f64) -> f64,
) -> f64 {
    let len = span / n as f64;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(t, v) in samples {
        per[((t / len) as usize).min(n - 1)].push(v);
    }
    let at: Vec<f64> = per.iter_mut().map(|s| f(s, len)).collect();
    median(&at)
}

/// Median of `samples`: the mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Recall@k of `got` against the exact answer `truth` (both id lists, the
/// truth already cut to at most `k`): the share of the truth found. An
/// empty truth is matched by an empty answer, so it scores 1.
pub fn recall(got: &[u32], truth: &[u32], k: usize) -> f64 {
    let want = truth.len().min(k);
    if want == 0 {
        return 1.0;
    }
    let hits = truth[..want].iter().filter(|id| got.iter().take(k).any(|g| g == *id)).count();
    hits as f64 / want as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is the 990th value: exactly ten lie beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(supported_percentile(1000), Some(99.0));
        // One sample fewer and p99 has only nine beyond it; p90 still holds.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        assert_eq!(supported_percentile(9_999), Some(99.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn sliced_percentiles_take_the_median_slice() {
        // Too few samples for two slices: the plain percentile.
        let few: Vec<f64> = (1..=1999).map(f64::from).collect();
        assert_eq!(sliced_percentile(&few, 99.0), percentile(&mut few.clone(), 99.0));
        // Five slices of 1000; one of them holds a burst of slow samples.
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[1000..2000] {
            *x += 1e6;
        }
        assert_eq!(sliced_percentile(&v, 99.0), 989.0);
        assert_eq!(sliced_percentile(&v, 50.0), 499.0);
        // Never more than five slices: 12 000 samples make five of 2400.
        let v: Vec<f64> = (0..12_000).map(|i| f64::from(i / 2400)).collect();
        assert_eq!(sliced_percentile(&v, 50.0), 2.0);
        assert_eq!(sliced_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn time_slices_drop_a_stalled_interval() {
        // 100 completions a second for 5 s, except none in the second
        // second: that slice reads 0, the median slice still 100.
        let samples: Vec<(f64, f64)> = (0..500)
            .map(|i| (f64::from(i) / 100.0, 1.0))
            .filter(|&(t, _)| !(1.0..2.0).contains(&t))
            .collect();
        let rate = |s: &mut Vec<f64>, len: f64| s.len() as f64 / len;
        assert_eq!(over_time_slices(&samples, 5.0, 5, rate), 100.0);
        let mut with_slow = samples.clone();
        with_slow.push((4.5, 1e9));
        let med = |s: &mut Vec<f64>, _: f64| median(s);
        assert_eq!(over_time_slices(&with_slow, 5.0, 5, med), 1.0);
    }

    #[test]
    fn recall_against_hand_built_truth() {
        let truth = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(recall(&truth, &truth, 10), 1.0);
        // Order does not matter, only membership.
        assert_eq!(recall(&[10, 9, 8, 7, 6, 5, 4, 3, 2, 1], &truth, 10), 1.0);
        // Three wrong ids out of ten.
        assert_eq!(recall(&[1, 2, 3, 4, 5, 6, 7, 97, 98, 99], &truth, 10), 0.7);
        // A window holding fewer rows than k: recall is over what exists.
        assert_eq!(recall(&[4, 2], &[2, 4], 10), 1.0);
        assert_eq!(recall(&[4], &[2, 4], 10), 0.5);
        // Only the first k answers count.
        assert_eq!(recall(&[9, 1], &[1], 1), 0.0);
        // An empty window is answered correctly by an empty reply.
        assert_eq!(recall(&[], &[], 10), 1.0);
    }
}
