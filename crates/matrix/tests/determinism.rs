//! Determinism suite: every engine is **bit-identical** to every other —
//! over `f64` (exact bit-pattern comparison, so any floating-point
//! reassociation fails loudly) and over the prime field `F_p` (exact ring
//! equality) — for every scheme in `all_schemes()`:
//!
//! * the parallel engine vs the sequential engine, across thread counts
//!   1/2/4/8, divisible and non-divisible shapes, and memory budgets that
//!   force every BFS/DFS split the planner can choose;
//! * the arena-backed sequential engine (`multiply_scheme`) vs the legacy
//!   copy-out engine (`multiply_scheme_legacy`, the golden witness kept
//!   from before the arena unification), across cutoffs `{1, 8, 64}` —
//!   so any reassociation introduced into the fused encode/decode kernels
//!   or the row-wise pad path fails bitwise — including on operands full
//!   of `-0.0` and exactly cancelling blocks, where the write-once
//!   engine's `0 + c·x` first terms must not degrade into copies.
//!
//! * the packed micro-kernel (`pack::multiply_packed_into`, the base case
//!   every engine shares) vs its forced-portable scalar fallback and vs
//!   `multiply_ikj`, across `all_schemes()` × {`f64` bit-pattern, `f32`,
//!   `F_p`} × non-divisible shapes — both at the kernel level (the shapes
//!   the engines hand the base case) and through the full engine at
//!   cutoffs `{1, 8, 64}`.
//!
//! This is the contract that makes the engines drop-in replacements for
//! each other: results can be compared, cached, and golden-tested without
//! caring which engine or how many workers ran.
//!
//! Witnesses that compare the packed (fusable) path against the unfused
//! legacy kernels are gated on `not(feature = "fma")`: the opt-in fused
//! multiply-add is a different well-defined result. The
//! dispatch-vs-portable witnesses stay on under the feature — SIMD
//! selection must never change bits, fused or not.

use fastmm_matrix::arena::ScratchArena;
use fastmm_matrix::classical::multiply_ikj;
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::pack::{multiply_packed_into, multiply_packed_into_scalar};
use fastmm_matrix::parallel::{multiply_scheme_parallel, ParallelConfig};
use fastmm_matrix::recursive::{multiply_scheme, multiply_scheme_legacy};
use fastmm_matrix::scalar::Scalar;
use fastmm_matrix::scheme::{all_schemes, strassen, BilinearScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Divisible and non-divisible shapes exercising a scheme's block grid:
/// two clean levels, a prime-ish shape that pads at every level, and a
/// skewed rectangle.
fn shapes_for(scheme: &BilinearScheme) -> Vec<(usize, usize, usize)> {
    let (bm, bk, bn) = scheme.dims();
    vec![
        (bm * bm * 2, bk * bk * 2, bn * bn * 2),
        (bm * bm + 1, bk * bk + 1, bn * bn + 1),
        (bm * 3 + 1, bk * 5, bn + 2),
    ]
}

fn assert_f64_bit_identical(scheme: &BilinearScheme, mm: usize, kk: usize, nn: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<f64>::random(mm, kk, &mut rng);
    let b = Matrix::<f64>::random(kk, nn, &mut rng);
    for cutoff in [1usize, 4] {
        let seq = multiply_scheme(scheme, &a, &b, cutoff);
        for threads in THREAD_COUNTS {
            let par =
                multiply_scheme_parallel(scheme, &a, &b, cutoff, &ParallelConfig::new(threads));
            let same = par
                .as_slice()
                .iter()
                .zip(seq.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                same,
                "{} {mm}x{kk}x{nn} cutoff={cutoff} threads={threads}: f64 bits differ",
                scheme.name
            );
        }
    }
}

fn assert_fp_identical(scheme: &BilinearScheme, mm: usize, kk: usize, nn: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::random_fp(mm, kk, &mut rng);
    let b = Matrix::random_fp(kk, nn, &mut rng);
    let seq = multiply_scheme(scheme, &a, &b, 1);
    for threads in THREAD_COUNTS {
        let par = multiply_scheme_parallel(scheme, &a, &b, 1, &ParallelConfig::new(threads));
        assert_eq!(
            par, seq,
            "{} {mm}x{kk}x{nn} threads={threads}: F_p mismatch",
            scheme.name
        );
    }
}

#[test]
fn every_scheme_is_bit_deterministic_over_f64() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            assert_f64_bit_identical(scheme, mm, kk, nn, (i * 100 + j) as u64);
        }
    }
}

#[test]
fn every_scheme_is_deterministic_over_fp() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            assert_fp_identical(scheme, mm, kk, nn, (7000 + i * 100 + j) as u64);
        }
    }
}

/// Cutoffs pinning the arena-vs-legacy witnesses: full recursion, a
/// mid-recursion switch, and the default-sized base case.
const LEGACY_CUTOFFS: [usize; 3] = [1, 8, 64];

#[cfg(not(feature = "fma"))]
#[test]
fn arena_sequential_matches_legacy_golden_f64_bits() {
    // The tentpole's hard constraint: the arena engine (strided views,
    // fused kernels, row-wise pad) reproduces the legacy copy-out engine
    // bit for bit on every registry scheme, including shapes that pad at
    // every level.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((3000 + i * 100 + j) as u64);
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                let arena = multiply_scheme(scheme, &a, &b, cutoff);
                let legacy = multiply_scheme_legacy(scheme, &a, &b, cutoff);
                let same = arena
                    .as_slice()
                    .iter()
                    .zip(legacy.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: arena f64 bits differ from legacy",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn arena_sequential_matches_legacy_golden_fp() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((5000 + i * 100 + j) as u64);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                assert_eq!(
                    multiply_scheme(scheme, &a, &b, cutoff),
                    multiply_scheme_legacy(scheme, &a, &b, cutoff),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: F_p mismatch vs legacy",
                    scheme.name
                );
            }
        }
    }
}

/// An operand built to exercise signed zeros: row 1 of every four is
/// `-0.0`, the rest repeat a 4 x 4 tile holding `±0.0` and a few small
/// values, so equal blocks cancel exactly (`x - x = +0.0`) and `-0.0`
/// reaches every encode, decode and leaf accumulator.
fn signed_zero_operand(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<f64> {
    let pool = [-0.0f64, 0.0, 1.0, -1.0, 0.5, -2.0];
    let tile = Matrix::<f64>::random(4, 4, rng);
    let tile = Matrix::from_fn(4, 4, |i, j| {
        let v = tile[(i, j)];
        if (i + j) % 3 == 0 {
            v
        } else {
            pool[((v.abs() * 1e6) as usize) % pool.len()]
        }
    });
    Matrix::from_fn(rows, cols, |i, j| {
        if i % 4 == 1 {
            -0.0
        } else {
            tile[(i % 4, j % 4)]
        }
    })
}

#[cfg(not(feature = "fma"))]
#[test]
fn write_once_engine_matches_legacy_on_signed_zeros_and_cancellation() {
    // The write-once engine assigns every first term as `0 + c·x` rather
    // than zero-filling and accumulating; a copy or negate there would
    // turn these `+0.0`s into `-0.0`s. Shapes are non-divisible at every
    // scheme's grid and scale with the cutoff, so each cutoff recurses
    // and pads.
    for (i, scheme) in all_schemes().iter().enumerate() {
        let (bm, bk, bn) = scheme.dims();
        for cutoff in LEGACY_CUTOFFS {
            let (mm, kk, nn) = (cutoff * bm + 1, cutoff * bk + 3, cutoff * bn + 2);
            let mut rng = StdRng::seed_from_u64((9000 + i * 10 + cutoff) as u64);
            let a = signed_zero_operand(mm, kk, &mut rng);
            let b = signed_zero_operand(kk, nn, &mut rng);
            let engine = multiply_scheme(scheme, &a, &b, cutoff);
            let legacy = multiply_scheme_legacy(scheme, &a, &b, cutoff);
            assert!(
                engine.bits_eq(&legacy),
                "{} {mm}x{kk}x{nn} cutoff={cutoff}: write-once engine bits differ from legacy",
                scheme.name
            );
            assert!(
                engine.as_slice().contains(&0.0),
                "{}: the witness operands should produce zeros in the product",
                scheme.name
            );
        }
    }
}

/// Run the packed kernel (dispatched and forced-portable) on one shape.
fn packed_pair<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> (Matrix<T>, Matrix<T>) {
    let mut arena = ScratchArena::new();
    let mut dispatched = Matrix::zeros(a.rows(), b.cols());
    multiply_packed_into(a.view(), b.view(), &mut dispatched.view_mut(), &mut arena);
    let mut portable = Matrix::zeros(a.rows(), b.cols());
    multiply_packed_into_scalar(a.view(), b.view(), &mut portable.view_mut(), &mut arena);
    (dispatched, portable)
}

#[test]
fn packed_kernel_witnesses_f64_bits() {
    // Kernel-level: on every scheme's divisible and non-divisible shapes
    // (the shapes the engines hand the base case), the dispatched packed
    // kernel, its portable fallback, and multiply_ikj agree to the bit.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((9000 + i * 100 + j) as u64);
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            let (dispatched, portable) = packed_pair(&a, &b);
            assert!(
                dispatched.bits_eq(&portable),
                "{} {mm}x{kk}x{nn}: SIMD dispatch changed f64 bits",
                scheme.name
            );
            #[cfg(not(feature = "fma"))]
            assert!(
                dispatched.bits_eq(&multiply_ikj(&a, &b)),
                "{} {mm}x{kk}x{nn}: packed f64 bits differ from ikj",
                scheme.name
            );
        }
    }
}

#[test]
fn packed_kernel_witnesses_f32_bits() {
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((11000 + i * 100 + j) as u64);
            let a = Matrix::<f32>::random_f32(mm, kk, &mut rng);
            let b = Matrix::<f32>::random_f32(kk, nn, &mut rng);
            let (dispatched, portable) = packed_pair(&a, &b);
            assert!(
                dispatched.bits_eq(&portable),
                "{} {mm}x{kk}x{nn}: SIMD dispatch changed f32 bits",
                scheme.name
            );
            #[cfg(not(feature = "fma"))]
            assert!(
                dispatched.bits_eq(&multiply_ikj(&a, &b)),
                "{} {mm}x{kk}x{nn}: packed f32 bits differ from ikj",
                scheme.name
            );
        }
    }
}

#[test]
fn packed_kernel_witnesses_fp() {
    // Exact field: packed, portable, and ikj must agree identically, fma
    // or not (Fp never fuses — its mul_add is the trait default).
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((13000 + i * 100 + j) as u64);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            let (dispatched, portable) = packed_pair(&a, &b);
            assert_eq!(
                dispatched, portable,
                "{} {mm}x{kk}x{nn}: SIMD dispatch changed F_p result",
                scheme.name
            );
            assert_eq!(
                dispatched,
                multiply_ikj(&a, &b),
                "{} {mm}x{kk}x{nn}: packed F_p differs from ikj",
                scheme.name
            );
        }
    }
}

#[cfg(not(feature = "fma"))]
#[test]
fn packed_engine_matches_legacy_over_f32_bits() {
    // Engine-level f32 leg of the packed-kernel witness matrix: the full
    // recursion with the packed base case vs the legacy copy-out engine
    // (ikj-derived base case), across the same cutoffs as the f64 branch.
    for (i, scheme) in all_schemes().iter().enumerate() {
        for (j, &(mm, kk, nn)) in shapes_for(scheme).iter().enumerate() {
            let mut rng = StdRng::seed_from_u64((15000 + i * 100 + j) as u64);
            let a = Matrix::<f32>::random_f32(mm, kk, &mut rng);
            let b = Matrix::<f32>::random_f32(kk, nn, &mut rng);
            for cutoff in LEGACY_CUTOFFS {
                let packed = multiply_scheme(scheme, &a, &b, cutoff);
                let legacy = multiply_scheme_legacy(scheme, &a, &b, cutoff);
                assert!(
                    packed.bits_eq(&legacy),
                    "{} {mm}x{kk}x{nn} cutoff={cutoff}: f32 bits differ from legacy",
                    scheme.name
                );
            }
        }
    }
}

#[test]
fn determinism_holds_across_memory_budgets() {
    // The budget moves the BFS/DFS switch point; it must never move a bit
    // of the answer. Sweep from "no BFS level fits" to "everything fits".
    let scheme = strassen();
    let (mm, kk, nn) = (48usize, 48usize, 48usize);
    let mut rng = StdRng::seed_from_u64(99);
    let a = Matrix::<f64>::random(mm, kk, &mut rng);
    let b = Matrix::<f64>::random(kk, nn, &mut rng);
    let seq = multiply_scheme(&scheme, &a, &b, 2);
    for budget in [1usize, 10_000, 100_000, usize::MAX] {
        for threads in [2usize, 8] {
            let cfg = ParallelConfig::new(threads).with_memory_budget(budget);
            let par = multiply_scheme_parallel(&scheme, &a, &b, 2, &cfg);
            let same = par
                .as_slice()
                .iter()
                .zip(seq.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "budget={budget} threads={threads}: bits differ");
        }
    }
}

#[test]
fn repeated_parallel_runs_are_self_identical() {
    // Scheduling noise across runs of the *same* config must not show up
    // either (it cannot, structurally — this is the canary).
    let scheme = strassen();
    let mut rng = StdRng::seed_from_u64(5);
    let a = Matrix::<f64>::random(37, 41, &mut rng);
    let b = Matrix::<f64>::random(41, 29, &mut rng);
    let cfg = ParallelConfig::new(4);
    let first = multiply_scheme_parallel(&scheme, &a, &b, 2, &cfg);
    for _ in 0..3 {
        let again = multiply_scheme_parallel(&scheme, &a, &b, 2, &cfg);
        assert!(first
            .as_slice()
            .iter()
            .zip(again.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
