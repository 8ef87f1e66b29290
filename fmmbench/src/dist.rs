//! `dist_caps`: a closed loop of `dist_caps` on the event runtime — the
//! only workload that runs the distributed simulator. Its words, messages
//! and virtual clocks are exact counts, identical on every run.

use crate::check::digest;
use crate::closed::{self, timed, Timed};
use crate::host::HostClock;
use crate::report::{Metrics, Outcome};
use crate::rng::{random_matrix, SplitMix64};
use crate::trace::{Tracer, NONE};
use crate::Run;
use fastmm_core::bounds::par_bandwidth_lower_bound_mem_independent;
use fastmm_core::registry::SchemeParams;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::strassen;
use fastmm_matrix::Matrix;
use fastmm_parsim::caps::Step;
use fastmm_parsim::{
    caps_plan_for_budget, dist_caps, CapsPlan, DistConfig, MachineConfig, SpmdResult,
};

/// One configuration of the loop.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// Simulated ranks.
    pub p: usize,
    /// Matrix side.
    pub n: usize,
    /// Per-rank memory budget in words (0 = unlimited).
    pub budget: usize,
}

/// The alternating configurations: p=343 at `CapsPlan::suggest_n(343,1,1)`
/// with unlimited memory (all-BFS), and p=49 at n=448 with a budget
/// between the one-DFS-step peak (21 696 words) and the all-BFS peak
/// (37 632), so the planner must take at least one DFS step.
pub fn cases() -> [Case; 2] {
    [
        Case {
            p: 343,
            n: CapsPlan::suggest_n(343, 1, 1),
            budget: 0,
        },
        Case {
            p: 49,
            n: 448,
            budget: 30_000,
        },
    ]
}

/// Operand pairs for [`cases`], drawn from `seed`.
pub fn inputs(seed: u64) -> Vec<(Matrix<f64>, Matrix<f64>)> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let s = 20 + 2 * i as u64;
            (
                random_matrix(c.n, c.n, &mut SplitMix64::new(seed, s)),
                random_matrix(c.n, c.n, &mut SplitMix64::new(seed, s + 1)),
            )
        })
        .collect()
}

fn config(c: Case) -> DistConfig {
    DistConfig::new(c.p).with_memory_budget(c.budget)
}

/// Exact per-layer figures of one run, from its rank statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankFigures {
    msgs_max: f64,
    words_max: f64,
    words_imbalance: f64,
    flops_max: f64,
    mem_hw_max: f64,
    critical_path: f64,
    comm_model: f64,
    compute_model: f64,
    idle_model: f64,
    words_vs_floor: f64,
}

fn figures<R>(c: Case, r: &SpmdResult<R>) -> RankFigures {
    let words: Vec<f64> = r
        .stats
        .iter()
        .map(|s| (s.words_sent + s.words_received) as f64)
        .collect();
    let mean = words.iter().sum::<f64>() / words.len() as f64;
    // The critical rank: the one whose final clock is the critical path.
    let crit = r
        .stats
        .iter()
        .max_by(|x, y| x.clock.total_cmp(&y.clock))
        .copied()
        .unwrap_or_default();
    let mc = MachineConfig::new(c.p);
    let comm = mc.alpha * crit.msgs_sent as f64 + mc.beta * crit.words_sent as f64;
    let compute = mc.gamma * crit.flops as f64;
    let floor =
        par_bandwidth_lower_bound_mem_independent(SchemeParams::of_scheme(&strassen()), c.n, c.p);
    RankFigures {
        msgs_max: r.max_msgs() as f64,
        words_max: r.max_words() as f64,
        words_imbalance: r.max_words() as f64 / mean,
        flops_max: r.stats.iter().map(|s| s.flops).max().unwrap_or(0) as f64,
        mem_hw_max: r.max_memory() as f64,
        critical_path: r.critical_path_time(),
        comm_model: comm,
        compute_model: compute,
        idle_model: crit.clock - comm - compute,
        words_vs_floor: r.max_words() as f64 / floor,
    }
}

/// Run `dist_caps` (timed, or traced when `trace` is given).
pub fn run(seed: u64, seconds: f64, clock: &mut HostClock, trace: Option<&mut Tracer>) -> Run {
    let cases = cases();
    let scheme = strassen();
    let mut outcome = Outcome::default();
    // Set-up: inputs, plans, goldens from `multiply_scheme` at each plan's
    // rank-local cutoff, and one warm-up run of the small configuration.
    let ((inputs, goldens, plans, warm), setup_s) = closed::setup(clock, || {
        let inputs = inputs(seed);
        let plans: Vec<Result<CapsPlan, String>> = cases
            .iter()
            .map(|&c| caps_plan_for_budget(&config(c), &scheme, c.n))
            .collect();
        let goldens: Vec<u64> = plans
            .iter()
            .zip(&inputs)
            .map(|(p, (a, b))| match p {
                Ok(p) => digest(&multiply_scheme(&scheme, a, b, p.local_cutoff())),
                Err(_) => 0,
            })
            .collect();
        let (a, b) = &inputs[1];
        let warm = dist_caps(&config(cases[1]), &scheme, a, b).map(|(c, _)| digest(&c));
        (inputs, goldens, plans, warm)
    });
    for (c, p) in cases.iter().zip(&plans) {
        outcome.setup_check(
            "dist_caps.plan",
            p.as_ref()
                .map(|_| ())
                .map_err(|e| format!("p={}: {e}", c.p)),
        );
    }
    outcome.setup_check(
        "dist_caps.budget_forces_dfs",
        match &plans[1] {
            Ok(p) if p.steps.contains(&Step::Dfs) => Ok(()),
            _ => Err("the p=49 budget did not force a DFS step".into()),
        },
    );
    outcome.setup_check(
        "dist_caps.warmup_gather_bitwise",
        match warm {
            Ok(d) if d == goldens[1] => Ok(()),
            Ok(_) => Err("warm-up gather differs from multiply_scheme".into()),
            Err(e) => Err(e),
        },
    );
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let mut figs = [RankFigures::default(); 2];
    let mut tr = trace;
    let (mut plan_s, mut plans_timed) = (0.0, 0usize);
    let samples = closed::run(clock, seconds, cases.len(), |i| {
        let k = i % cases.len();
        let c = cases[k];
        let cfg = config(c);
        let (a, b) = &inputs[k];
        if let Some(tr) = tr.as_deref_mut() {
            tr.set_request(i as u32);
            let span = tr.begin("parsim.plan", NONE);
            let (_, ps) = timed(|| caps_plan_for_budget(&cfg, &scheme, c.n));
            tr.end(span);
            plan_s += ps;
            plans_timed += 1;
        }
        let span = tr
            .as_deref_mut()
            .map(|tr| tr.begin("parsim.dist_caps", NONE));
        let (res, secs) = timed(|| dist_caps(&cfg, &scheme, a, b));
        if let (Some(tr), Some(span)) = (tr.as_deref_mut(), span) {
            tr.end(span);
        }
        let mut fails = Vec::new();
        match res {
            Ok((prod, spmd)) => {
                if digest(&prod) != goldens[k] {
                    fails.push((
                        "dist_caps.gather_bitwise",
                        format!("p={} n={}: gather differs from multiply_scheme", c.p, c.n),
                    ));
                }
                figs[k] = figures(c, &spmd);
            }
            Err(e) => fails.push(("dist_caps.run", e)),
        }
        outcome.op(&fails);
        Timed {
            secs,
            flops: 2.0 * (c.n as f64).powi(3),
            class: Some(usize::from(c.p == 343)),
        }
    });
    closed::summarize(&samples, &mut m);
    let max = |f: fn(&RankFigures) -> f64| figs.iter().map(f).fold(0.0, f64::max);
    m.set("words_per_rank_max", max(|f| f.words_max));
    if tr.is_some() {
        m.set("parsim.msgs_per_rank_max", max(|f| f.msgs_max));
        m.set("parsim.words_imbalance", max(|f| f.words_imbalance));
        m.set("parsim.flops_per_rank_max", max(|f| f.flops_max));
        m.set("parsim.mem_hw_words_max", max(|f| f.mem_hw_max));
        m.set("parsim.plan_us", plan_s / plans_timed.max(1) as f64 * 1e6);
        m.set("parsim.critical_path_s", max(|f| f.critical_path));
        m.set("parsim.comm_model_s", max(|f| f.comm_model));
        m.set("parsim.compute_model_s", max(|f| f.compute_model));
        m.set("parsim.idle_model_s", max(|f| f.idle_model));
        m.set("parsim.words_vs_floor", max(|f| f.words_vs_floor));
    }
    Run {
        metrics: m,
        outcome,
    }
}
