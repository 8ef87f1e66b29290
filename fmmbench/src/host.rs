//! Host normalisation and run metadata.
//!
//! A shared VM's speed drifts between (and within) launches by more than
//! the changes the benchmark must detect, so every timing is divided by
//! an interleaved fixed reference loop and reported at nominal host
//! speed: `normalised = raw · nominal / reference`. The loop lives here,
//! in the benchmark, never in program code, so no program change can
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// Side of the in-cache dense part (three `DENSE²` f64 arrays, 55 KiB:
/// L1/L2-resident).
const DENSE: usize = 48;
/// Repetitions of the dense part per probe.
const DENSE_REPS: usize = 24;
/// Words of the streaming part: 16 MiB of f64, well beyond one core's
/// 2 MiB L2 and within the last-level cache. An untimed pass brings it
/// into that cache first, so the timed pass starts from the same cache
/// state whatever the benchmark ran just before.
const STREAM_WORDS: usize = 2 << 20;

/// The fixed reference loop: an in-cache dense multiply-accumulate plus
/// one streaming read-modify-write pass larger than L2.
pub struct RefLoop {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    stream: Vec<f64>,
}

impl Default for RefLoop {
    fn default() -> Self {
        Self::new()
    }
}

impl RefLoop {
    /// Allocate (and touch) the loop's buffers.
    pub fn new() -> Self {
        let fill = |len: usize, k: f64| (0..len).map(|i| ((i % 97) as f64) * k).collect();
        RefLoop {
            a: fill(DENSE * DENSE, 1e-3),
            b: fill(DENSE * DENSE, 2e-3),
            c: vec![0.0; DENSE * DENSE],
            stream: fill(STREAM_WORDS, 1e-6),
        }
    }

    fn stream_pass(&mut self) {
        for v in self.stream.iter_mut() {
            *v = *v * 0.999_999 + 1e-9;
        }
        black_box(&mut self.stream);
    }

    /// Run the loop once; its wall time in milliseconds.
    pub fn probe_ms(&mut self) -> f64 {
        self.stream_pass();
        let t = Instant::now();
        for _ in 0..DENSE_REPS {
            for i in 0..DENSE {
                let crow = &mut self.c[i * DENSE..(i + 1) * DENSE];
                for p in 0..DENSE {
                    let aip = self.a[i * DENSE + p];
                    let brow = &self.b[p * DENSE..(p + 1) * DENSE];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aip * bv;
                    }
                }
            }
            black_box(&mut self.c);
        }
        self.stream_pass();
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// The reference loop together with every sample it produced in a run.
pub struct HostClock {
    /// Nominal reference time (ms) the normalised metrics are scaled to;
    /// fixed in `BENCHMARK.json`'s command line.
    pub nominal_ms: f64,
    /// Every probe of the run, in order.
    pub samples: Vec<f64>,
    loops: Vec<RefLoop>,
}

impl HostClock {
    /// A clock normalising to `nominal_ms` whose probe runs the loop on
    /// `threads` threads at once and reads their mean: a workload that
    /// uses every CPU depends on all of them, so its reference must see
    /// every CPU too. (The slowest thread's time is one CPU's worst
    /// moment and tracks the workload less well than the mean.)
    pub fn new(nominal_ms: f64, threads: usize) -> Self {
        let mut clock = HostClock {
            nominal_ms,
            samples: Vec::new(),
            loops: (0..threads.max(1)).map(|_| RefLoop::new()).collect(),
        };
        // One untimed pass faults the buffers in and warms the caches.
        clock.run_loops();
        clock
    }

    fn run_loops(&mut self) -> f64 {
        if let [one] = self.loops.as_mut_slice() {
            return one.probe_ms();
        }
        std::thread::scope(|s| {
            let runs: Vec<_> = self
                .loops
                .iter_mut()
                .map(|l| s.spawn(move || l.probe_ms()))
                .collect();
            let n = runs.len() as f64;
            runs.into_iter()
                .map(|r| r.join().expect("reference loop thread panicked"))
                .sum::<f64>()
                / n
        })
    }

    /// Run the reference loop once, record and return its time (ms).
    pub fn probe(&mut self) -> f64 {
        let ms = self.run_loops();
        self.samples.push(ms);
        ms
    }

    /// The median of `k` fresh probes.
    pub fn probe_median(&mut self, k: usize) -> f64 {
        let v: Vec<f64> = (0..k.max(1)).map(|_| self.probe()).collect();
        crate::stats::median(&v)
    }

    /// Time-scaling factor `nominal / reference` for an interval bracketed
    /// by the probes `before` and `after` (their mean is the reference).
    pub fn factor(&self, before: f64, after: f64) -> f64 {
        self.nominal_ms / (0.5 * (before + after))
    }

    /// Median of every probe so far (ms).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit the checkout was made from, when `.git` sits in the working
/// directory (read directly: nothing outside the checkout is consulted).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Run metadata printed (and written) with every result.
pub fn metadata_json(
    clock: &HostClock,
    cutoff: usize,
    nproc: usize,
    pinned: Option<usize>,
) -> String {
    format!(
        "{{\"ref_nominal_ms\": {}, \"ref_measured_ms\": {}, \"ref_samples\": {}, \
         \"ref_threads\": {}, \"pinned_cpu\": {}, \
         \"simd\": \"{}\", \"fma\": {}, \"cutoff\": {cutoff}, \
         \"available_parallelism\": {nproc}, \"git_rev\": \"{}\"}}",
        clock.nominal_ms,
        clock.median_ms(),
        clock.samples.len(),
        clock.loops.len(),
        pinned.map_or("null".to_string(), |c| c.to_string()),
        fastmm_matrix::active_simd_level(),
        cfg!(feature = "fma"),
        git_rev().replace(['"', '\\'], "")
    )
}

/// Online CPUs the process may use.
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
}

/// Restrict the calling thread (and every thread it starts afterwards) to
/// the highest-numbered CPU it may run on; returns that CPU. Used by the
/// workloads whose threads take turns, so the host cannot migrate them
/// between virtual CPUs or split a hand-off across two of them.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 128-byte buffer, the size passed.
    let rc = unsafe { ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable 128-byte buffer, the size passed.
    let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is implemented for Linux only; elsewhere nothing is pinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
