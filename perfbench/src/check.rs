//! Answer checks and the tally of attempted and failed operations.

use crate::data::Rows;
use mbi_core::{TimeWindow, TknnResult};

/// Checks one reply: `min(k, rows in window)` results, ascending distances,
/// distinct ids, and every id a generated row whose timestamp is the one
/// reported and lies in the window.
pub fn reply(
    rows: &Rows,
    window: TimeWindow,
    rows_in_window: usize,
    k: usize,
    got: &[TknnResult],
) -> Result<(), String> {
    let want = k.min(rows_in_window);
    if got.len() != want {
        return Err(format!("{} results for {want} expected in {window:?}", got.len()));
    }
    for pair in got.windows(2) {
        if pair[1].dist < pair[0].dist {
            return Err(format!("distances not ascending: {} then {}", pair[0].dist, pair[1].dist));
        }
    }
    for (i, r) in got.iter().enumerate() {
        let Some(&t) = rows.ts.get(r.id as usize) else {
            return Err(format!("id {} was never inserted", r.id));
        };
        if t != r.timestamp || !window.contains(t) {
            return Err(format!(
                "id {} at {} (reported {}) outside {window:?}",
                r.id, t, r.timestamp
            ));
        }
        if got[..i].iter().any(|o| o.id == r.id) {
            return Err(format!("id {} returned twice", r.id));
        }
    }
    Ok(())
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed: transport errors, non-OK statuses, partial
    /// answers and replies that failed a check.
    pub failed: u64,
    /// Failures that were wrong answers rather than refusals.
    pub wrong: u64,
    /// The first failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.fail(m);
        }
    }

    /// Counts one failure of an operation already counted as attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    /// Counts a wrong answer: a failure that makes the run incorrect.
    pub fn wrong(&mut self, message: String) {
        self.wrong += 1;
        self.fail(message);
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbi_ann::VectorStore;
    use mbi_math::Metric;

    #[test]
    fn replies_are_checked_against_the_window() {
        let rows =
            Rows { metric: Metric::Euclidean, store: VectorStore::new(1), ts: vec![1, 2, 3, 4] };
        let w = TimeWindow::new(2, 4);
        let r = |id, timestamp, dist| TknnResult { id, timestamp, dist };
        assert!(reply(&rows, w, 2, 10, &[r(1, 2, 0.1), r(2, 3, 0.2)]).is_ok());
        // Too few results for a window holding two rows.
        assert!(reply(&rows, w, 2, 10, &[r(1, 2, 0.1)]).is_err());
        // Descending distances.
        assert!(reply(&rows, w, 2, 10, &[r(1, 2, 0.3), r(2, 3, 0.2)]).is_err());
        // A row outside the window, a misreported timestamp, a duplicate.
        assert!(reply(&rows, w, 2, 10, &[r(1, 2, 0.1), r(3, 4, 0.2)]).is_err());
        assert!(reply(&rows, w, 2, 10, &[r(1, 3, 0.1), r(2, 3, 0.2)]).is_err());
        assert!(reply(&rows, w, 2, 10, &[r(1, 2, 0.1), r(1, 2, 0.1)]).is_err());
        // An id that was never inserted.
        assert!(reply(&rows, w, 1, 1, &[r(9, 2, 0.1)]).is_err());
    }
}
