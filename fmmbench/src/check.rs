//! Output checks: Freivalds' test for the large float products and a bit
//! digest for the repeat/cross-engine equality checks.

use crate::rng::SplitMix64;
use fastmm_matrix::Matrix;

/// FNV-1a over every element's IEEE-754 bits (and the shape): equal
/// digests mean bitwise-equal products for the benchmark's purposes.
pub fn digest(m: &Matrix<f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    eat(m.rows() as u64);
    eat(m.cols() as u64);
    for v in m.as_slice() {
        eat(v.to_bits());
    }
    h
}

fn matvec(m: &Matrix<f64>, x: &[f64]) -> Vec<f64> {
    let cols = m.cols();
    m.as_slice()
        .chunks_exact(cols)
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// Freivalds' check of `c == a·b` with one random ±1 vector: compares
/// `a(bx)` with `cx` under a tolerance scaled by `k·ε` (`k` the inner
/// dimension), `max|a|·max|b|` and the row length, which covers the
/// normwise error growth of a few Strassen-like levels with a wide
/// margin while a wrong block (an O(1) error) still fails by orders of
/// magnitude.
pub fn freivalds(
    a: &Matrix<f64>,
    b: &Matrix<f64>,
    c: &Matrix<f64>,
    rng: &mut SplitMix64,
) -> Result<(), String> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if b.rows() != k || c.rows() != m || c.cols() != n {
        return Err(format!(
            "shape mismatch: a {m}x{k}, b {}x{n}, c {}x{}",
            b.rows(),
            c.rows(),
            c.cols()
        ));
    }
    let x: Vec<f64> = (0..n)
        .map(|_| if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 })
        .collect();
    let abx = matvec(a, &matvec(b, &x));
    let cx = matvec(c, &x);
    let amax = a.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let bmax = b.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tol = 64.0 * k as f64 * f64::EPSILON * amax * bmax * (k * n) as f64;
    for (i, (p, q)) in abx.iter().zip(&cx).enumerate() {
        let err = (p - q).abs();
        if err.is_nan() || err > tol {
            return Err(format!("row {i}: |a(bx) - cx| = {err:e} > tol {tol:e}"));
        }
    }
    Ok(())
}
