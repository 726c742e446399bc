//! Open-loop pacing: operation `i` is due at `start + i / rate`, whether or
//! not earlier operations have finished, and is timed from its due time.
//! A stall therefore shows up in the latency of every operation queued
//! behind it, not only in the one that stalled.

use std::time::{Duration, Instant};

/// Timing of one paced operation.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    /// Completion time minus due time.
    pub latency: Duration,
    /// Send time minus due time: how late the generator ran.
    pub late: Duration,
    /// Whether the operation succeeded.
    pub ok: bool,
}

/// Due time of operation `i` at `rate` operations per second.
pub fn due(start: Instant, rate: f64, i: u64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

/// Runs `op(i)` for every operation due before `end`, sleeping until each is
/// due and never skipping one. `between` runs after each operation; work
/// done there delays later operations and is charged to them.
pub fn run(
    rate: f64,
    start: Instant,
    end: Instant,
    mut op: impl FnMut(u64) -> bool,
    mut between: impl FnMut(),
) -> Vec<Paced> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = due(start, rate, i);
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = op(i);
        let done = Instant::now();
        out.push(Paced { latency: done - due, late: sent - due, ok });
        between();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        // A fake responder that answers at once except for one 60 ms stall
        // on operation 3, driven at 200 ops/s (one due every 5 ms).
        let stall = Duration::from_millis(60);
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + Duration::from_millis(200);
        let ops = run(
            200.0,
            start,
            end,
            |i| {
                if i == 3 {
                    std::thread::sleep(stall);
                }
                true
            },
            || {},
        );
        assert_eq!(ops.len(), 40, "every due operation runs, none is skipped");
        assert!(ops.iter().all(|p| p.ok));
        assert!(ops[3].latency >= stall);
        // Operation 4 was due 5 ms after operation 3 but could only be sent
        // when the stall ended: its latency counts that wait.
        for (k, p) in ops[4..14].iter().enumerate() {
            let backlog = stall.saturating_sub(Duration::from_millis(5 * (k as u64 + 1)));
            assert!(p.late >= backlog, "op {} late {:?} < {:?}", k + 4, p.late, backlog);
            assert!(p.latency >= p.late);
        }
        // A closed loop would have reported only one slow operation; the
        // open loop reports the whole backlog.
        let slow = ops.iter().filter(|p| p.latency >= Duration::from_millis(10)).count();
        assert!(slow >= 10, "only {slow} operations saw the stall");
        // Once the backlog drains the generator is on time again.
        assert!(ops.last().unwrap().late < Duration::from_millis(5));
    }

    #[test]
    fn due_times_follow_the_rate() {
        let t0 = Instant::now();
        assert_eq!(due(t0, 4.0, 0), t0);
        assert_eq!(due(t0, 4.0, 3), t0 + Duration::from_millis(750));
    }
}
