//! Order statistics and the one-FIFO-shard queue derivation.

/// Nearest-rank percentile `q` in `[0, 1]` of `xs` (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Interquartile range over the median, the spread measure the benchmark
/// reports for its reference-loop samples.
pub fn rel_iqr(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(xs, 0.75) - percentile(xs, 0.25)) / m
}

/// Queue wait and service time of one job on a single FIFO worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaitService {
    /// Time from enqueue until the worker could start it.
    pub wait: f64,
    /// Time from start to completion.
    pub service: f64,
}

/// Derive per-job wait and service from outside timestamps on one FIFO
/// shard. `jobs` holds `(enqueued, completed)` pairs in completion order,
/// which on one FIFO worker is also service order: a job starts when it
/// is enqueued or when its predecessor completes, whichever is later.
pub fn fifo_wait_service(jobs: &[(f64, f64)]) -> Vec<WaitService> {
    let mut prev_done = f64::NEG_INFINITY;
    jobs.iter()
        .map(|&(enq, done)| {
            let start = enq.max(prev_done);
            prev_done = done;
            WaitService {
                wait: start - enq,
                service: done - start,
            }
        })
        .collect()
}
