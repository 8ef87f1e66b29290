//! `par_fast`: a closed loop of `multiply_scheme_parallel` on every core —
//! the same arena and pack layers under the BFS/DFS scheduler.

use crate::check::{digest, freivalds};
use crate::closed::{self, timed, Timed};
use crate::host::HostClock;
use crate::report::{Metrics, Outcome};
use crate::rewalk::arena_words;
use crate::rng::SplitMix64;
use crate::seq::{inputs, schemes};
use crate::trace::{Tracer, NONE};
use crate::Run;
use fastmm_matrix::parallel::{multiply_scheme_parallel, plan_bfs_dfs, ParallelConfig};
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::tune::default_cutoff;

/// `(scheme index, n)` per operation: Strassen at 2048, Winograd at 1100.
pub const CYCLE: [(usize, usize); 2] = [(0, 2048), (1, 1100)];

/// Run `par_fast` (timed, or traced when `trace` is given).
pub fn run(seed: u64, seconds: f64, clock: &mut HostClock, trace: Option<&mut Tracer>) -> Run {
    let cutoff = default_cutoff();
    let schemes = schemes();
    let cfg = ParallelConfig::new(crate::host::cpus());
    let sizes = CYCLE.map(|(_, n)| n);
    let mut outcome = Outcome::default();
    // Set-up: inputs, the sequential goldens every parallel product must
    // match bitwise, and one warm-up parallel multiply.
    let ((inp, goldens, warm), setup_s) = closed::setup(clock, || {
        let inp = inputs(seed, 10, &sizes);
        let goldens: Vec<_> = CYCLE
            .iter()
            .enumerate()
            .map(|(k, &(s, _))| multiply_scheme(&schemes[s], &inp.a[k], &inp.b[k], cutoff))
            .collect();
        let warm = multiply_scheme_parallel(&schemes[1], &inp.a[1], &inp.b[1], cutoff, &cfg);
        (inp, goldens, warm)
    });
    let mut frng = SplitMix64::new(seed, 110);
    for (k, g) in goldens.iter().enumerate() {
        outcome.setup_check(
            "par_fast.golden_freivalds",
            freivalds(&inp.a[k], &inp.b[k], g, &mut frng),
        );
    }
    let golden_digest: Vec<u64> = goldens.iter().map(digest).collect();
    outcome.setup_check(
        "par_fast.warmup_digest",
        if digest(&warm) == golden_digest[1] {
            Ok(())
        } else {
            Err("warm-up parallel product differs from multiply_scheme".into())
        },
    );
    drop(goldens);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set(
        "words_per_rank_max",
        CYCLE
            .iter()
            .map(|&(s, n)| arena_words(&schemes[s], (n, n, n), cutoff))
            .max()
            .unwrap_or(0) as f64,
    );
    let mut check = |k: usize, c: &fastmm_matrix::Matrix<f64>, fails: &mut Vec<(&str, String)>| {
        if let Err(e) = freivalds(&inp.a[k], &inp.b[k], c, &mut frng) {
            fails.push(("par_fast.freivalds", e));
        }
        let d = digest(c);
        if d != golden_digest[k] {
            fails.push((
                "par_fast.digest_vs_multiply_scheme",
                format!("op {k}: {d:016x} != {:016x}", golden_digest[k]),
            ));
        }
    };
    let Some(tr) = trace else {
        let samples = closed::run(clock, seconds, CYCLE.len(), |i| {
            let k = i % CYCLE.len();
            let (s, n) = CYCLE[k];
            let (c, secs) =
                timed(|| multiply_scheme_parallel(&schemes[s], &inp.a[k], &inp.b[k], cutoff, &cfg));
            let mut fails = Vec::new();
            check(k, &c, &mut fails);
            outcome.op(&fails);
            Timed {
                secs,
                flops: 2.0 * (n as f64).powi(3),
                class: Some(usize::from(n == 2048)),
            }
        });
        closed::summarize(&samples, &mut m);
        return Run {
            metrics: m,
            outcome,
        };
    };

    let (mut par_s, mut seq_s, mut plan_s) = (0.0, 0.0, 0.0);
    let mut bfs_levels = 0usize;
    let samples = closed::run(clock, seconds, CYCLE.len(), |i| {
        let k = i % CYCLE.len();
        let (s, n) = CYCLE[k];
        let (a, b) = (&inp.a[k], &inp.b[k]);
        tr.set_request(i as u32);
        let span = tr.begin("parallel.plan", NONE);
        let (plan, ps) =
            timed(|| plan_bfs_dfs(schemes[s].dims(), schemes[s].r, (n, n, n), cutoff, &cfg));
        tr.end(span);
        let span = tr.begin("parallel.multiply", NONE);
        let (c, secs) = timed(|| multiply_scheme_parallel(&schemes[s], a, b, cutoff, &cfg));
        tr.end(span);
        let span = tr.begin("seq.multiply_scheme", NONE);
        let (c_seq, ss) = timed(|| multiply_scheme(&schemes[s], a, b, cutoff));
        tr.end(span);
        let mut fails = Vec::new();
        check(k, &c, &mut fails);
        if !c.bits_eq(&c_seq) {
            fails.push(("par_fast.bitwise_vs_multiply_scheme", format!("op {k}")));
        }
        outcome.op(&fails);
        plan_s += ps;
        par_s += secs;
        seq_s += ss;
        bfs_levels = bfs_levels.max(plan.bfs_levels);
        Timed {
            secs,
            flops: 2.0 * (n as f64).powi(3),
            class: Some(usize::from(n == 2048)),
        }
    });
    closed::summarize(&samples, &mut m);
    let speedup = seq_s / par_s;
    m.set("parallel.plan_us", plan_s / samples.len() as f64 * 1e6);
    m.set("parallel.bfs_levels", bfs_levels as f64);
    m.set("parallel.speedup_vs_seq", speedup);
    m.set("parallel.efficiency", speedup / cfg.threads as f64);
    Run {
        metrics: m,
        outcome,
    }
}
