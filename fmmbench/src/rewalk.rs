//! The arena recursion re-walked from outside the engine, with a span
//! around every call into the arena and pack layers.
//!
//! It mirrors `fastmm_matrix::arena::multiply_into` step by step through
//! that module's public pieces (`splits`, `padded`, `child_shape`,
//! `encode_a_into`, `encode_b_into`, `decode_product_into`) and the
//! packed leaf kernel, drawing every buffer from the same kind of arena,
//! so its product must be bitwise equal to the engine's. The traced run
//! checks that on every operation: if the engine's recursion changes and
//! this copy does not, the check fails loudly instead of the per-level
//! numbers silently describing a different program.

use crate::trace::Tracer;
use fastmm_matrix::arena::{
    child_shape, decode_product_into, encode_a_into, encode_b_into, padded, splits, ScratchArena,
};
use fastmm_matrix::dense::{MatMut, MatRef};
use fastmm_matrix::pack::multiply_packed_into;
use fastmm_matrix::scheme::BilinearScheme;

/// Counters the re-walk accumulates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WalkCounts {
    /// Packed leaf-kernel calls.
    pub leaf_calls: u64,
    /// Classical flops (`2·m·k·n`) the leaves performed.
    pub leaf_flops: f64,
    /// Words read and written outside the leaf kernel (computed; see
    /// [`node_words`] and [`pad_words`]).
    pub words: u64,
}

/// Words one splitting node moves outside the leaf kernel, for children of
/// shape `(sm, sk, sn)`: each encode/decode `accumulate_scaled` reads the
/// destination and the source block and writes the destination (3 words
/// per element, one call per nonzero of `U`'s row, `V`'s row or `W`'s
/// column), and each product zero-fills its three temporaries.
pub fn node_words(scheme: &BilinearScheme, (sm, sk, sn): (usize, usize, usize)) -> u64 {
    let (a, b, c) = ((sm * sk) as u64, (sk * sn) as u64, (sm * sn) as u64);
    let nnz = |x: &fastmm_matrix::scheme::Coeffs| x.nnz() as u64;
    3 * (nnz(&scheme.u) * a + nnz(&scheme.v) * b + nnz(&scheme.w) * c)
        + scheme.r as u64 * (a + b + c)
}

/// Words a non-divisible level moves to zero-extend both operands (read
/// the original, write the padded buffer) and crop the product back.
pub fn pad_words((m, k, n): (usize, usize, usize), (pm, pk, pn): (usize, usize, usize)) -> u64 {
    (m * k + pm * pk + k * n + pk * pn + 2 * m * n) as u64
}

/// Words one multiply of `shape` moves outside the leaf kernel, computed
/// from the recursion shape alone (what [`rewalk`] counts as it runs).
pub fn arena_words(scheme: &BilinearScheme, shape: (usize, usize, usize), cutoff: usize) -> u64 {
    let dims = scheme.dims();
    if shape.0 == 0 || shape.1 == 0 || shape.2 == 0 || !splits(dims, shape, cutoff) {
        return 0;
    }
    let p = padded(dims, shape);
    if p != shape {
        return pad_words(shape, p) + arena_words(scheme, p, cutoff);
    }
    let child = child_shape(dims, shape);
    node_words(scheme, child) + scheme.r as u64 * arena_words(scheme, child, cutoff)
}

/// Compute `c = a·b` into a zeroed `c` exactly as `multiply_into` does,
/// recording `arena.pad`, `arena.fill`, `arena.encode_a`, `arena.encode_b`,
/// `arena.decode` and `pack.leaf` spans tagged with recursion `level`
/// (0 at the top call).
#[allow(clippy::too_many_arguments)]
pub fn rewalk(
    scheme: &BilinearScheme,
    a: MatRef<'_, f64>,
    b: MatRef<'_, f64>,
    c: &mut MatMut<'_, f64>,
    cutoff: usize,
    arena: &mut ScratchArena<f64>,
    tr: &mut Tracer,
    counts: &mut WalkCounts,
    level: u32,
) {
    let shape = (a.rows(), a.cols(), b.cols());
    if shape.0 == 0 || shape.1 == 0 || shape.2 == 0 {
        return;
    }
    let dims = scheme.dims();
    if !splits(dims, shape, cutoff) {
        let s = tr.begin("pack.leaf", level);
        multiply_packed_into(a, b, c, arena);
        tr.end(s);
        counts.leaf_calls += 1;
        counts.leaf_flops += 2.0 * (shape.0 * shape.1 * shape.2) as f64;
        return;
    }
    let (mm, kk, nn) = shape;
    let (pm, pk, pn) = padded(dims, shape);
    if (pm, pk, pn) != shape {
        // The padded shape is the same tree level: it splits next.
        let s = tr.begin("arena.pad", level);
        let mut pa = arena.take_any(pm * pk);
        MatMut::from_slice(&mut pa, pm, pk).zero_extend_from(a);
        let mut pb = arena.take_any(pk * pn);
        MatMut::from_slice(&mut pb, pk, pn).zero_extend_from(b);
        let mut pc = arena.take(pm * pn);
        tr.end(s);
        rewalk(
            scheme,
            MatRef::from_slice(&pa, pm, pk),
            MatRef::from_slice(&pb, pk, pn),
            &mut MatMut::from_slice(&mut pc, pm, pn),
            cutoff,
            arena,
            tr,
            counts,
            level,
        );
        let s = tr.begin("arena.pad", level);
        c.copy_from(MatRef::from_slice(&pc, pm, pn).block(0, 0, mm, nn));
        arena.give(pa);
        arena.give(pb);
        arena.give(pc);
        tr.end(s);
        counts.words += pad_words(shape, (pm, pk, pn));
        return;
    }
    let (bm, bk, bn) = dims;
    let (sm, sk, sn) = (mm / bm, kk / bk, nn / bn);
    counts.words += node_words(scheme, (sm, sk, sn));
    let mut ta = arena.take_any(sm * sk);
    let mut tb = arena.take_any(sk * sn);
    let mut mbuf = arena.take_any(sm * sn);
    for l in 0..scheme.r {
        let s = tr.begin("arena.fill", level);
        ta.fill(0.0);
        tr.end(s);
        let s = tr.begin("arena.encode_a", level);
        encode_a_into(scheme, a, l, &mut MatMut::from_slice(&mut ta, sm, sk));
        tr.end(s);
        let s = tr.begin("arena.fill", level);
        tb.fill(0.0);
        tr.end(s);
        let s = tr.begin("arena.encode_b", level);
        encode_b_into(scheme, b, l, &mut MatMut::from_slice(&mut tb, sk, sn));
        tr.end(s);
        let s = tr.begin("arena.fill", level);
        mbuf.fill(0.0);
        tr.end(s);
        rewalk(
            scheme,
            MatRef::from_slice(&ta, sm, sk),
            MatRef::from_slice(&tb, sk, sn),
            &mut MatMut::from_slice(&mut mbuf, sm, sn),
            cutoff,
            arena,
            tr,
            counts,
            level + 1,
        );
        let s = tr.begin("arena.decode", level);
        decode_product_into(scheme, MatRef::from_slice(&mbuf, sm, sn), l, c);
        tr.end(s);
    }
    arena.give(ta);
    arena.give(tb);
    arena.give(mbuf);
}
