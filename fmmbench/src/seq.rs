//! `seq_fast`: a closed loop of `multiply_scheme` on one thread at the
//! sizes where the recursion runs, Strassen and Winograd alternating.

use crate::check::{digest, freivalds};
use crate::closed::{self, timed, Timed};
use crate::host::HostClock;
use crate::report::{Metrics, Outcome};
use crate::rewalk::{arena_words, rewalk, WalkCounts};
use crate::rng::{random_matrix, SplitMix64};
use crate::trace::{Tracer, NONE};
use crate::Run;
use fastmm_matrix::arena::ScratchArena;
use fastmm_matrix::pack::multiply_packed_into;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::{strassen, winograd, BilinearScheme};
use fastmm_matrix::tune::default_cutoff;
use fastmm_matrix::Matrix;

/// Square sizes: 1024 and 2048 split evenly; 1100 pads at 275, so the
/// zero-extend path runs too.
pub const SIZES: [usize; 3] = [1024, 1100, 2048];

/// One cycle of `(scheme, size index)`: the schemes alternate and every
/// pair appears once, so a run of whole cycles has a fixed mix.
pub const CYCLE: [(usize, usize); 6] = [(0, 0), (1, 1), (0, 2), (1, 0), (0, 1), (1, 2)];

/// The two schemes, by the index `CYCLE` uses.
pub fn schemes() -> [BilinearScheme; 2] {
    [strassen(), winograd()]
}

/// Square operand pairs, one per size, drawn from `seed`.
pub struct Inputs {
    /// Left operands.
    pub a: Vec<Matrix<f64>>,
    /// Right operands.
    pub b: Vec<Matrix<f64>>,
}

/// Operands for `sizes` from `seed` (stream `base + 2i` and `+1` per size).
pub fn inputs(seed: u64, base: u64, sizes: &[usize]) -> Inputs {
    let gen = |stream: u64, n: usize| random_matrix(n, n, &mut SplitMix64::new(seed, stream));
    Inputs {
        a: sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| gen(base + 2 * i as u64, n))
            .collect(),
        b: sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| gen(base + 2 * i as u64 + 1, n))
            .collect(),
    }
}

/// Latency class: n=1024 is the lighter class, n=2048 the heavier; the
/// padded n=1100 counts in the work rate only, so neither class mixes
/// two sizes.
fn class(n: usize) -> Option<usize> {
    match n {
        1024 => Some(0),
        2048 => Some(1),
        _ => None,
    }
}

fn flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Run `seq_fast` (timed, or traced when `trace` is given).
pub fn run(seed: u64, seconds: f64, clock: &mut HostClock, trace: Option<&mut Tracer>) -> Run {
    let cutoff = default_cutoff();
    let schemes = schemes();
    let mut outcome = Outcome::default();
    let ((inp, warm), setup_s) = closed::setup(clock, || {
        let inp = inputs(seed, 0, &SIZES);
        let warm = multiply_scheme(&schemes[0], &inp.a[0], &inp.b[0], cutoff);
        (inp, warm)
    });
    outcome.setup_check(
        "seq_fast.warmup_freivalds",
        freivalds(&inp.a[0], &inp.b[0], &warm, &mut SplitMix64::new(seed, 100)),
    );
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set(
        "words_per_rank_max",
        CYCLE
            .iter()
            .map(|&(s, k)| arena_words(&schemes[s], (SIZES[k], SIZES[k], SIZES[k]), cutoff))
            .max()
            .unwrap_or(0) as f64,
    );
    let mut frng = SplitMix64::new(seed, 101);
    let mut first_digest = [[None; SIZES.len()]; 2];
    // Shared output checks: Freivalds and repeat-digest equality.
    let mut check = |s: usize, k: usize, c: &Matrix<f64>, fails: &mut Vec<(&str, String)>| {
        if let Err(e) = freivalds(&inp.a[k], &inp.b[k], c, &mut frng) {
            fails.push(("seq_fast.freivalds", e));
        }
        let d = digest(c);
        match first_digest[s][k] {
            None => first_digest[s][k] = Some(d),
            Some(d0) if d0 != d => fails.push((
                "seq_fast.repeat_digest",
                format!("{} n={}: {d:016x} != {d0:016x}", schemes[s].name, SIZES[k]),
            )),
            Some(_) => {}
        }
    };
    let Some(tr) = trace else {
        let samples = closed::run(clock, seconds, CYCLE.len(), |i| {
            let (s, k) = CYCLE[i % CYCLE.len()];
            let (c, secs) = timed(|| multiply_scheme(&schemes[s], &inp.a[k], &inp.b[k], cutoff));
            let mut fails = Vec::new();
            check(s, k, &c, &mut fails);
            outcome.op(&fails);
            Timed {
                secs,
                flops: flops(SIZES[k]),
                class: class(SIZES[k]),
            }
        });
        closed::summarize(&samples, &mut m);
        return Run {
            metrics: m,
            outcome,
        };
    };

    let mut grng = SplitMix64::new(seed, 102);
    let mut arena = ScratchArena::new();
    let mut counts = WalkCounts::default();
    let (mut fast_s, mut gemm_s, mut gemm_flops) = (0.0, 0.0, 0.0);
    let samples = closed::run(clock, seconds, CYCLE.len(), |i| {
        let (s, k) = CYCLE[i % CYCLE.len()];
        let (a, b, n) = (&inp.a[k], &inp.b[k], SIZES[k]);
        tr.set_request(i as u32);
        let mut fails = Vec::new();
        let mut walked = Matrix::zeros(n, n);
        let span = tr.begin("seq.rewalk", NONE);
        rewalk(
            &schemes[s],
            a.view(),
            b.view(),
            &mut walked.view_mut(),
            cutoff,
            &mut arena,
            tr,
            &mut counts,
            0,
        );
        tr.end(span);
        let span = tr.begin("seq.multiply_scheme", NONE);
        let (c, secs) = timed(|| multiply_scheme(&schemes[s], a, b, cutoff));
        tr.end(span);
        if !walked.bits_eq(&c) {
            fails.push((
                "seq_fast.rewalk_bitwise",
                format!(
                    "{} n={n}: re-walk differs from multiply_into",
                    schemes[s].name
                ),
            ));
        }
        check(s, k, &c, &mut fails);
        let mut g = Matrix::zeros(n, n);
        let span = tr.begin("pack.gemm", NONE);
        let ((), gs) =
            timed(|| multiply_packed_into(a.view(), b.view(), &mut g.view_mut(), &mut arena));
        tr.end(span);
        if let Err(e) = freivalds(a, b, &g, &mut grng) {
            fails.push(("seq_fast.gemm_freivalds", e));
        }
        fast_s += secs;
        gemm_s += gs;
        gemm_flops += flops(n);
        outcome.op(&fails);
        Timed {
            secs,
            flops: flops(n),
            class: class(n),
        }
    });
    closed::summarize(&samples, &mut m);
    let ops = samples.len() as f64;
    let levels: [(&str, [&'static str; 3]); 3] = [
        (
            "arena.encode_a",
            [
                "arena.encode_a_ms.l0",
                "arena.encode_a_ms.l1",
                "arena.encode_a_ms.l2",
            ],
        ),
        (
            "arena.encode_b",
            [
                "arena.encode_b_ms.l0",
                "arena.encode_b_ms.l1",
                "arena.encode_b_ms.l2",
            ],
        ),
        (
            "arena.decode",
            [
                "arena.decode_ms.l0",
                "arena.decode_ms.l1",
                "arena.decode_ms.l2",
            ],
        ),
    ];
    for (span, names) in levels {
        for (l, name) in names.into_iter().enumerate() {
            m.set(name, tr.total_ms(span, l as u32) / ops);
        }
    }
    let leaf_ms = tr.total_ms("pack.leaf", NONE);
    m.set("arena.fill_ms", tr.total_ms("arena.fill", NONE) / ops);
    m.set("arena.pad_ms", tr.total_ms("arena.pad", NONE) / ops);
    m.set(
        "arena.outside_kernel_frac",
        1.0 - leaf_ms / tr.total_ms("seq.rewalk", NONE),
    );
    m.set("arena.words_computed", counts.words as f64 / ops);
    m.set("pack.leaf_ms", leaf_ms / ops);
    m.set("pack.leaf_gflops", counts.leaf_flops / leaf_ms * 1e-6);
    m.set("pack.leaf_calls", counts.leaf_calls as f64 / ops);
    m.set("pack.gemm_gflops", gemm_flops / gemm_s * 1e-9);
    m.set("seq.speedup_vs_gemm", gemm_s / fast_s);
    Run {
        metrics: m,
        outcome,
    }
}
