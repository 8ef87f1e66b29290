//! The closed-loop driver shared by `seq_fast`, `par_fast` and `dist_caps`,
//! and the repeated, host-normalised set-up every workload uses.

use crate::host::HostClock;
use crate::report::Metrics;
use crate::stats::percentile;
use std::time::Instant;

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Run `build` [`SETUP_REPS`] times, each bracketed by reference probes,
/// dropping the previous state first. Returns the last state and the
/// median normalised set-up time (s).
pub fn setup<S>(clock: &mut HostClock, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut norm = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let before = clock.probe_median(3);
        let t = Instant::now();
        state = Some(build());
        let secs = t.elapsed().as_secs_f64();
        let after = clock.probe_median(3);
        norm.push(secs * clock.factor(before, after));
    }
    (
        state.expect("SETUP_REPS is positive"),
        crate::stats::median(&norm),
    )
}

/// One operation as the closure timed it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall time of the call into the program alone (s).
    pub secs: f64,
    /// Classical-equivalent flops `2·m·k·n` of the operation.
    pub flops: f64,
    /// Latency class: 0 for the workload's lighter operations, 1 for the
    /// heavier, `None` for operations that count in the work rate only.
    pub class: Option<usize>,
}

/// A timed operation with its normalised time.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// The operation as timed.
    pub op: Timed,
    /// `op.secs` scaled to nominal host speed.
    pub norm_secs: f64,
}

/// Run whole cycles of `cycle_len` operations until `seconds` have
/// passed. Each call of `op(i)` times its own call into the program (and
/// checks the output after the clock stops); a reference probe runs
/// between consecutive operations, and the mean of the two around an
/// operation normalises it. (The host's speed persists over about a
/// second, so the adjacent probes track it better than a wider window.)
pub fn run(
    clock: &mut HostClock,
    seconds: f64,
    cycle_len: usize,
    mut op: impl FnMut(usize) -> Timed,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut probes = vec![clock.probe()];
    let mut ops = Vec::new();
    while ops.len() % cycle_len != 0 || start.elapsed().as_secs_f64() < seconds {
        ops.push(op(ops.len()));
        probes.push(clock.probe());
    }
    ops.into_iter()
        .enumerate()
        .map(|(i, t)| Sample {
            op: t,
            norm_secs: t.secs * clock.factor(probes[i], probes[i + 1]),
        })
        .collect()
}

/// The end-to-end timing metrics of a closed loop: the work rate over the
/// whole run, per-class latency percentiles and the sustained operation
/// rate, all normalised; plus the raw work rate.
pub fn summarize(samples: &[Sample], m: &mut Metrics) {
    let flops: f64 = samples.iter().map(|s| s.op.flops).sum();
    let norm: f64 = samples.iter().map(|s| s.norm_secs).sum();
    let raw: f64 = samples.iter().map(|s| s.op.secs).sum();
    m.set("gflops_eq_norm", flops / norm * 1e-9);
    m.set("host.gflops_eq_raw", flops / raw * 1e-9);
    m.set("max_rate_jobs_s", samples.len() as f64 / norm);
    for (class, p50, p99) in [
        (0, "lat_p50_ms_lo", "lat_p99_ms_lo"),
        (1, "lat_p50_ms_hi", "lat_p99_ms_hi"),
    ] {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.op.class == Some(class))
            .map(|s| s.norm_secs * 1e3)
            .collect();
        m.set(p50, percentile(&ms, 0.5));
        m.set(p99, percentile(&ms, 0.99));
    }
}

/// Time one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}
