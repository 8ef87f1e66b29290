//! The zero-allocation arena recursion — the single hot-path engine behind
//! [`multiply_scheme`](crate::recursive::multiply_scheme),
//! [`multiply_scheme_parallel`](crate::parallel::multiply_scheme_parallel)
//! (both its `threads == 1` fast path and every DFS leaf of the BFS task
//! tree), and
//! [`multiply_non_stationary`](crate::recursive::multiply_non_stationary).
//!
//! The recursion ([`multiply_into`]) walks strided [`MatRef`]/[`MatMut`]
//! views of the *original* operands instead of materializing block copies:
//!
//! * encoding `T_l = Σ_q U[l][q]·A_q` reads the source blocks straight
//!   through strided views of the operand and writes one preallocated
//!   arena buffer in a single pass, band by band of L1-sized rows, with
//!   the fused row kernels [`crate::dense::assign_row`] and [`crate::dense::axpy_row`]
//!   ([`encode_a_into`]/[`encode_b_into`], shared with the parallel BFS
//!   encoder);
//! * each product `M_l` decodes by writing through strided rows of the
//!   `C` blocks with no intermediate result matrix;
//! * non-divisible levels zero-extend row-wise into the arena
//!   ([`MatMut::zero_extend_from`]) instead of building an
//!   element-at-a-time padded copy.
//!
//! Every temporary comes from — and returns to — a [`ScratchArena`], so
//! after the first recursion warms the pool the hot path performs **zero
//! heap allocation**. This makes the engine's measured word traffic track
//! the in-place model
//! `dfs_arena_io_recurrence_mkn` (crate `fastmm-memsim`) and hence the
//! Equation (1) recurrence `IO(n) ≤ r·IO(n/n₀) + O(n²)` whose solution the
//! paper's Theorem 1.1 lower-bounds.
//!
//! ## Write-once temporaries
//!
//! No temporary is zero-filled. `T_l`, `S_l`, `M_l` and the pad product
//! are each written exactly once per product, whatever the arena buffer
//! held before:
//!
//! * **encode** assigns the first nonzero term of `U[l]` (or `V[l]`) as
//!   `0 + c·x` and accumulates the rest, band by band of rows;
//! * **decode** is *first-touch*: walking `M_l` band by band, block `C_q`
//!   is assigned `0 + w·M_l` when `l` is the first nonzero of `W`'s row
//!   `q`, and accumulates otherwise — every Brent-verified scheme has a
//!   nonzero in each row of `W` (asserted), so every block is written;
//! * the **leaf** is the overwriting packed kernel
//!   [`multiply_packed_overwrite_into`] (`C = A·B`, accumulators start at
//!   zero instead of loading `C`).
//!
//! The public pieces keep their contracts: [`multiply_into`] is called
//! with a zeroed `c`, [`decode_product_into`] and
//! [`crate::pack::multiply_packed_into`] accumulate, and
//! [`encode_a_into`]/[`encode_b_into`] give on any buffer what they gave
//! on a zeroed one — so a re-walk of the recursion that zero-fills and
//! accumulates still reproduces the engine bit for bit.
//!
//! ## Bit-determinism
//!
//! The engine preserves the historical scalar arithmetic exactly: encode
//! combines blocks in ascending `q`, products run in order
//! `l = 0, 1, …, r-1`, decode combines `W`-column nonzeros in ascending
//! `q`, and the base case is the packed micro-kernel, whose default build
//! is bit-identical to `multiply_ikj` (see the [`crate::pack`] contract)
//! — exactly like the cache-blocked kernel it replaced. Writing once
//! changes no bit: the first term of every encode, decode and leaf
//! accumulator is `0 + x` computed from the same `T::zero()` a zeroed
//! buffer would have held — not a copy, which over floats would keep a
//! `-0.0` that `0 + (-0.0) = +0.0` does not. Outputs are therefore
//! bit-identical to the legacy copy-out engine
//! ([`multiply_scheme_legacy`](crate::recursive::multiply_scheme_legacy))
//! at every cutoff and thread count — enforced by the determinism suite
//! (`crates/matrix/tests/determinism.rs`). [`multiply_into_unpacked`]
//! keeps the old base case callable as the perf-trajectory baseline.
//!
//! The packed base case adds `Θ(mk + kn)` pack-buffer traffic per leaf —
//! within the `O(n²)`-per-node constant of the Equation (1) recurrence the
//! word-traffic model charges, so the modeled asymptotics are unchanged.

use crate::classical::multiply_kernel_into;
use crate::dense::{assign_row, axpy_row, MatMut, MatRef};
use crate::pack::multiply_packed_overwrite_into;
use crate::scalar::Scalar;
use crate::scheme::{BilinearScheme, Coeffs};

/// A pool of reusable scratch buffers — the arena backing the DFS hot
/// path (per worker thread in the parallel engine, per worker shard in
/// the `fastmm-serve` batched service).
///
/// [`ScratchArena::take`] hands out a zeroed buffer (recycling a returned
/// one when available), [`ScratchArena::take_any`] one with unspecified
/// contents for callers that overwrite every element, and
/// [`ScratchArena::give`] returns a buffer.
///
/// The pool is **bucketed by capacity class** (powers of two): a returned
/// buffer of capacity in `[2^b, 2^{b+1})` is only reissued to requests of
/// `len ≤ 2^b`, so a take can never pop a too-small buffer and silently
/// reallocate inside the "zero-allocation" hot path. The historical
/// single-stack pool did exactly that under mixed-shape workloads (the
/// batching regime of `fastmm-serve`): a small buffer returned last would
/// be popped for a large request, reallocated, and the large buffers
/// retained underneath forever. Within one capacity class, reuse is
/// LIFO — the recursion takes and gives in stack order with shapes fixed
/// per depth, so after the first descent warms the pool every subsequent
/// node runs without heap allocation.
///
/// Long-lived owners bound idle retention with
/// [`ScratchArena::trim`]; [`ScratchArena::retained_words`] reports the
/// pooled (idle) capacity.
pub struct ScratchArena<T> {
    /// `buckets[b]` holds returned buffers with capacity in
    /// `[2^b, 2^{b+1})`; every buffer in bucket `b` can serve any request
    /// of class `b` (`len ≤ 2^b`) without reallocating.
    buckets: Vec<Vec<Vec<T>>>,
    /// Total capacity (words) currently idle in the pool.
    retained: usize,
}

/// Capacity class a request of `len` words draws from: `⌈log₂ len⌉`, so
/// every buffer in that bucket (capacity `≥ 2^class`) fits the request.
fn class_of_len(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Bucket a returned buffer of capacity `cap ≥ 1` files into:
/// `⌊log₂ cap⌋`, the largest class it can always serve.
fn class_of_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl<T: Scalar> ScratchArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena {
            buckets: Vec::new(),
            retained: 0,
        }
    }

    /// Pop a pooled buffer that fits `len`, if any.
    fn pop_class(&mut self, len: usize) -> Option<Vec<T>> {
        let buf = self.buckets.get_mut(class_of_len(len))?.pop()?;
        self.retained -= buf.capacity();
        Some(buf)
    }

    /// A zeroed buffer of `len` words, recycled from the pool when its
    /// capacity class has one (no allocation once warm). Fresh buffers are
    /// allocated at the class capacity (`len` rounded up to a power of
    /// two), so they return to the same bucket they are served from.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        let mut buf = self
            .pop_class(len)
            .unwrap_or_else(|| Vec::with_capacity(len.max(1).next_power_of_two()));
        buf.clear();
        buf.resize(len, T::zero());
        buf
    }

    /// A buffer of `len` words with **unspecified contents** (stale values
    /// from a previous use are possible), for callers that overwrite every
    /// element — e.g. the pad path, which zero-extends row-wise. Skips the
    /// `memset` that [`ScratchArena::take`] pays.
    pub fn take_any(&mut self, len: usize) -> Vec<T> {
        let mut buf = self
            .pop_class(len)
            .unwrap_or_else(|| Vec::with_capacity(len.max(1).next_power_of_two()));
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, T::zero());
        }
        buf
    }

    /// Return a buffer to the pool for reuse (zero-capacity buffers are
    /// dropped — there is no allocation to retain).
    pub fn give(&mut self, buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let b = class_of_cap(cap);
        if self.buckets.len() <= b {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        self.buckets[b].push(buf);
        self.retained += cap;
    }

    /// Words of capacity currently idle in the pool — what a long-lived
    /// owner is paying to keep the arena warm.
    pub fn retained_words(&self) -> usize {
        self.retained
    }

    /// Drop pooled buffers, largest class first, until at most
    /// `max_retained_words` of idle capacity remain. The serve layer calls
    /// this between batches so one giant request does not pin its
    /// high-water scratch set for the life of the worker. Buffers
    /// currently taken are unaffected.
    pub fn trim(&mut self, max_retained_words: usize) {
        let mut b = self.buckets.len();
        while self.retained > max_retained_words && b > 0 {
            b -= 1;
            while self.retained > max_retained_words {
                match self.buckets[b].pop() {
                    Some(buf) => self.retained -= buf.capacity(),
                    None => break,
                }
            }
        }
    }
}

impl<T: Scalar> Default for ScratchArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Operand/product footprint `MK + KN + MN` of a subproblem shape.
pub fn footprint(s: (usize, usize, usize)) -> usize {
    s.0 * s.1 + s.1 * s.2 + s.0 * s.2
}

/// Next block-grid multiples of a shape under base dims `(bm, bk, bn)` —
/// the per-level zero-padding target of the engine. Public so external
/// schedulers (the shared-memory BFS planner, the distributed-memory
/// engine in `fastmm-parsim`) replicate the engine's recursion shape
/// exactly instead of re-deriving it.
pub fn padded(dims: (usize, usize, usize), s: (usize, usize, usize)) -> (usize, usize, usize) {
    (
        s.0.div_ceil(dims.0) * dims.0,
        s.1.div_ceil(dims.1) * dims.1,
        s.2.div_ceil(dims.2) * dims.2,
    )
}

/// Whether the recursion splits this shape rather than running the base
/// kernel — the per-level test shared by the engine, the shared-memory
/// BFS planner, and the distributed-memory engine. Any scheduler that
/// mirrors the engine's recursion tree must use this exact predicate, or
/// its outputs stop being bit-identical to [`multiply_into`].
pub fn splits(dims: (usize, usize, usize), s: (usize, usize, usize), cutoff: usize) -> bool {
    if s.0.max(s.1).max(s.2) <= cutoff {
        return false;
    }
    let p = padded(dims, s);
    (p.0 / dims.0) * (p.1 / dims.1) * (p.2 / dims.2) < s.0 * s.1 * s.2
}

/// Shape of the `r` subproblems one level down (after per-level padding).
pub fn child_shape(dims: (usize, usize, usize), s: (usize, usize, usize)) -> (usize, usize, usize) {
    let p = padded(dims, s);
    (p.0 / dims.0, p.1 / dims.1, p.2 / dims.2)
}

/// Scratch words one DFS task needs below `shape`: per level, the three
/// temporaries `(T_l, S_l, M_l)`, plus pad buffers on non-divisible levels.
pub(crate) fn dfs_working_set(
    dims: (usize, usize, usize),
    shape: (usize, usize, usize),
    cutoff: usize,
) -> usize {
    let mut total = 0usize;
    let mut cur = shape;
    while splits(dims, cur, cutoff) {
        let p = padded(dims, cur);
        if p != cur {
            total = total.saturating_add(footprint(p));
        }
        let child = child_shape(dims, cur);
        total = total.saturating_add(footprint(child));
        cur = child;
    }
    total
}

/// Bytes of destination rows the encode and decode kernels update per
/// pass over their terms: a band of rows stays in L1 while every term of
/// the combination lands on it. Rows this wide or wider go one at a time;
/// the narrow rows of nodes near the leaves go many at a time, so the
/// coefficient scan and block slicing are paid once per band, not once
/// per row.
const ROW_BAND_BYTES: usize = 8 * 1024;

/// Rows of `cols` elements per band (at least one).
fn band_rows<T>(cols: usize) -> usize {
    (ROW_BAND_BYTES / (cols * std::mem::size_of::<T>()).max(1)).max(1)
}

/// Write-once encode: `t = Σ_q coeffs[l][q] · src_q` over the blocks of
/// the `gr x gc` grid over `src`, whatever `t` held before. Band by band
/// of rows, the first nonzero term is assigned as `0 + c·x`
/// ([`assign_row`]) and the rest accumulate in ascending `q`
/// ([`axpy_row`]) while the band is still in L1, so every source block is
/// read once and `t` written once. A product with no terms encodes to
/// zeros.
fn encode_rows<T: Scalar>(
    coeffs: &Coeffs,
    l: usize,
    src: MatRef<'_, T>,
    (gr, gc): (usize, usize),
    t: &mut MatMut<'_, T>,
) {
    let (rows, cols) = (t.rows(), t.cols());
    assert_eq!(
        (src.rows(), src.cols()),
        (rows * gr, cols * gc),
        "encode target must be one block of the operand grid"
    );
    if coeffs.row_entries(l).next().is_none() {
        t.fill_zero();
        return;
    }
    let band = band_rows::<T>(cols);
    for i0 in (0..rows).step_by(band) {
        for (k, (q, c)) in coeffs.row_entries(l).enumerate() {
            let blk = src.grid_block_rect(gr, gc, q / gc, q % gc);
            for i in i0..(i0 + band).min(rows) {
                if k == 0 {
                    assign_row(t.row_mut(i), blk.row(i), c);
                } else {
                    axpy_row(t.row_mut(i), blk.row(i), c);
                }
            }
        }
    }
}

/// Fused encode of product `l`'s left operand: `ta = Σ_q U[l][q] · A_q`,
/// reading the `A` blocks through strided views of the original operand.
/// Write-once: `ta`'s prior contents are ignored (see the module docs'
/// bit-determinism section); blocks combine in ascending `q`. Shared by
/// the sequential recursion, the non-stationary engine, the parallel BFS
/// encoder and the distributed engine.
#[inline]
pub fn encode_a_into<T: Scalar>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    l: usize,
    ta: &mut MatMut<'_, T>,
) {
    encode_rows(&scheme.u, l, a, (scheme.bm, scheme.bk), ta);
}

/// Fused encode of product `l`'s right operand: `tb = Σ_q V[l][q] · B_q`
/// (see [`encode_a_into`]).
#[inline]
pub fn encode_b_into<T: Scalar>(
    scheme: &BilinearScheme,
    b: MatRef<'_, T>,
    l: usize,
    tb: &mut MatMut<'_, T>,
) {
    encode_rows(&scheme.v, l, b, (scheme.bk, scheme.bn), tb);
}

/// Decode of product `l`, band by band of `M_l`'s rows: every nonzero
/// `W[q][l]`, in ascending `q`, updates the matching rows of `C_q` while
/// the `M_l` band is in L1, so `M_l` is read once. With `first_touch`, a
/// block whose first nonzero of `W`'s row `q` is `l` is assigned
/// (`0 + w·M_l`, [`assign_row`]) instead of accumulated, so the caller's
/// `c` need not be zeroed as long as products arrive in ascending `l`.
fn decode_rows<T: Scalar>(
    scheme: &BilinearScheme,
    m: MatRef<'_, T>,
    l: usize,
    c: &mut MatMut<'_, T>,
    first_touch: bool,
) {
    let (bm, _, bn) = scheme.dims();
    let (rows, cols) = (m.rows(), m.cols());
    assert_eq!(
        (c.rows(), c.cols()),
        (rows * bm, cols * bn),
        "product must be one block of the output grid"
    );
    let band = band_rows::<T>(cols);
    for i0 in (0..rows).step_by(band) {
        for (q, wc) in scheme.w.col_entries(l) {
            let assign = first_touch && scheme.w.row_entries(q).next().map(|(j, _)| j) == Some(l);
            let mut cq = c.grid_block_rect_mut(bm, bn, q / bn, q % bn);
            for i in i0..(i0 + band).min(rows) {
                if assign {
                    assign_row(cq.row_mut(i), m.row(i), wc);
                } else {
                    axpy_row(cq.row_mut(i), m.row(i), wc);
                }
            }
        }
    }
}

/// Fused decode of product `l`: `C_q += W[q][l] · M_l` for every nonzero
/// of `W`'s column `l`, writing through strided `C` grid blocks in
/// ascending `q` — no intermediate result matrix is ever materialized. Accumulates
/// into whatever `c` holds; the engines themselves run a first-touch
/// variant that assigns each block from its first product instead (see
/// the module docs' write-once section).
#[inline]
pub fn decode_product_into<T: Scalar>(
    scheme: &BilinearScheme,
    m: MatRef<'_, T>,
    l: usize,
    c: &mut MatMut<'_, T>,
) {
    decode_rows(scheme, m, l, c, false);
}

/// First-touch decode of product `l`, the engines' decode: as
/// [`decode_product_into`], except that each block `C_q` is *assigned*
/// `0 + W[q][l]·M_l` when `l` is the first nonzero of `W`'s row `q`. Run
/// for `l = 0, 1, …, r-1` in order it writes every element of `c` —
/// whatever `c` held — with the bits the accumulating decode gives on a
/// zeroed `c`. Panics if some row of `W` is all zero (that block would
/// never be written); every Brent-verified scheme has a nonzero in each
/// row, since each output block is a nonzero bilinear form.
pub(crate) fn decode_product_first_touch<T: Scalar>(
    scheme: &BilinearScheme,
    m: MatRef<'_, T>,
    l: usize,
    c: &mut MatMut<'_, T>,
) {
    if l == 0 {
        assert!(
            (0..scheme.w.rows()).all(|q| scheme.w.row_entries(q).next().is_some()),
            "scheme {}: a row of W has no nonzero, so its output block is never decoded",
            scheme.name
        );
    }
    decode_rows(scheme, m, l, c, true);
}

/// The arena recursion: computes `c = a * b` into a **zeroed** `c` with
/// `scheme`, padding per level on non-divisible shapes and running the
/// packed base kernel below `cutoff`, with every temporary drawn from —
/// and returned to — `arena`. (Internally each node overwrites its
/// output — see the module docs' write-once section.)
///
/// Zero-dimension shapes are defined: if any of `M`, `K`, `N` is zero the
/// product is the all-zero `M x N` matrix (empty when `M` or `N` is zero),
/// `c` is left untouched, and the recursion, base kernel, and arena are
/// never entered.
///
/// This is the engine [`multiply_scheme`](crate::recursive::multiply_scheme)
/// wraps; call it directly to amortize one arena (and one output buffer)
/// across many multiplies:
///
/// ```
/// use fastmm_matrix::arena::{multiply_into, ScratchArena};
/// use fastmm_matrix::dense::Matrix;
/// use fastmm_matrix::scheme::strassen;
///
/// let a = Matrix::<i64>::identity(16);
/// let b = Matrix::from_fn(16, 16, |i, j| (i * 16 + j) as i64);
/// let mut arena = ScratchArena::new();
/// let mut c = Matrix::zeros(16, 16);
/// multiply_into(&strassen(), a.view(), b.view(), &mut c.view_mut(), 2, &mut arena);
/// assert_eq!(c, b);
/// ```
pub fn multiply_into<T: Scalar>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cutoff: usize,
    arena: &mut ScratchArena<T>,
) {
    multiply_into_impl::<T, true>(scheme, a, b, c, cutoff, arena);
}

/// [`multiply_into`] with the pre-packing cache-blocked ikj base case
/// ([`multiply_kernel_into`]) instead of the packed micro-kernel — kept
/// callable as the perf-trajectory baseline (the `arena-ikj` rows of the
/// e11 `repro_perf` table), so the kernel swap stays measurable across
/// PRs. Bit-identical to [`multiply_into`] in the default build (both
/// base cases reproduce `multiply_ikj` exactly); under the `fma` feature
/// this variant keeps the unfused arithmetic. Its leaf zero-fills the
/// product block and then accumulates, the one fill the write-once
/// recursion keeps (the ikj kernel has no overwriting form).
pub fn multiply_into_unpacked<T: Scalar>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cutoff: usize,
    arena: &mut ScratchArena<T>,
) {
    multiply_into_impl::<T, false>(scheme, a, b, c, cutoff, arena);
}

/// The recursion body, monomorphized over the base-case choice so the
/// packed default pays no per-leaf branch. Writes every element of `c`
/// whatever it held (the zero-dimension early return aside, which only
/// the top call can take: a splitting node's children have every
/// dimension at least 1).
fn multiply_into_impl<T: Scalar, const PACKED: bool>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cutoff: usize,
    arena: &mut ScratchArena<T>,
) {
    let shape = (a.rows(), a.cols(), b.cols());
    // Zero-dimension operands: the product is the all-zero `M x N` matrix
    // (empty when M or N is 0) and `c` enters zeroed, so there is nothing
    // to compute. Return before the base kernel so a degenerate multiply
    // never packs full-size operand panels or touches the arena.
    if shape.0 == 0 || shape.1 == 0 || shape.2 == 0 {
        return;
    }
    let dims = scheme.dims();
    if !splits(dims, shape, cutoff) {
        if PACKED {
            multiply_packed_overwrite_into(a, b, c, arena);
        } else {
            c.fill_zero();
            multiply_kernel_into(a, b, c);
        }
        return;
    }
    let (mm, kk, nn) = shape;
    let (pm, pk, pn) = padded(dims, shape);
    if (pm, pk, pn) != shape {
        // Non-divisible level: zero-extend both operands row-wise into the
        // arena, recurse at the padded shape, crop back. Every element of
        // the three pad buffers is overwritten (the recursion writes all
        // of `pc`), so they are taken unzeroed.
        let mut pa = arena.take_any(pm * pk);
        MatMut::from_slice(&mut pa, pm, pk).zero_extend_from(a);
        let mut pb = arena.take_any(pk * pn);
        MatMut::from_slice(&mut pb, pk, pn).zero_extend_from(b);
        let mut pc = arena.take_any(pm * pn);
        multiply_into_impl::<T, PACKED>(
            scheme,
            MatRef::from_slice(&pa, pm, pk),
            MatRef::from_slice(&pb, pk, pn),
            &mut MatMut::from_slice(&mut pc, pm, pn),
            cutoff,
            arena,
        );
        c.copy_from(MatRef::from_slice(&pc, pm, pn).block(0, 0, mm, nn));
        arena.give(pa);
        arena.give(pb);
        arena.give(pc);
        return;
    }
    let (bm, bk, bn) = dims;
    let (sm, sk, sn) = (mm / bm, kk / bk, nn / bn);
    let mut ta = arena.take_any(sm * sk);
    let mut tb = arena.take_any(sk * sn);
    let mut mbuf = arena.take_any(sm * sn);
    for l in 0..scheme.r {
        encode_a_into(scheme, a, l, &mut MatMut::from_slice(&mut ta, sm, sk));
        encode_b_into(scheme, b, l, &mut MatMut::from_slice(&mut tb, sk, sn));
        multiply_into_impl::<T, PACKED>(
            scheme,
            MatRef::from_slice(&ta, sm, sk),
            MatRef::from_slice(&tb, sk, sn),
            &mut MatMut::from_slice(&mut mbuf, sm, sn),
            cutoff,
            arena,
        );
        decode_product_first_touch(scheme, MatRef::from_slice(&mbuf, sm, sn), l, c);
    }
    arena.give(ta);
    arena.give(tb);
    arena.give(mbuf);
}

/// Rank-local entry point for distributed runtimes: multiply two flat
/// row-major operand buffers (e.g. the payloads of incoming messages) and
/// return the flat row-major product, running the same arena recursion as
/// [`multiply_scheme`](crate::recursive::multiply_scheme) — so a
/// distributed execution whose per-rank leaves call this is bit-identical
/// to the sequential engine wherever the surrounding schedule preserves
/// the encode/decode order (see the module docs' bit-determinism
/// contract). `shape` is `(M, K, N)`; `a` must hold `M·K` words and `b`
/// `K·N`. Zero-dimension shapes return the correctly-sized all-zero (or
/// empty) product without entering the recursion (see [`multiply_into`]).
///
/// ```
/// use fastmm_matrix::arena::{multiply_flat, ScratchArena};
/// use fastmm_matrix::scheme::strassen;
///
/// let a = vec![1.0f64, 0.0, 0.0, 1.0]; // 2x2 identity
/// let b = vec![3.0f64, 4.0, 5.0, 6.0];
/// let mut arena = ScratchArena::new();
/// assert_eq!(multiply_flat(&strassen(), &a, &b, (2, 2, 2), 1, &mut arena), b);
/// ```
pub fn multiply_flat<T: Scalar>(
    scheme: &BilinearScheme,
    a: &[T],
    b: &[T],
    shape: (usize, usize, usize),
    cutoff: usize,
    arena: &mut ScratchArena<T>,
) -> Vec<T> {
    let (mm, kk, nn) = shape;
    assert_eq!(a.len(), mm * kk, "left operand length");
    assert_eq!(b.len(), kk * nn, "right operand length");
    let mut c = vec![T::zero(); mm * nn];
    multiply_into(
        scheme,
        MatRef::from_slice(a, mm, kk),
        MatRef::from_slice(b, kk, nn),
        &mut MatMut::from_slice(&mut c, mm, nn),
        cutoff.max(1),
        arena,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::multiply_naive;
    use crate::dense::Matrix;
    use crate::scheme::{all_schemes, strassen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arena_recycles_buffers() {
        let mut arena: ScratchArena<i64> = ScratchArena::new();
        let b1 = arena.take(64);
        let ptr = b1.as_ptr();
        arena.give(b1);
        let b2 = arena.take(64);
        assert_eq!(b2.as_ptr(), ptr, "same allocation reused");
        assert!(b2.iter().all(|&x| x == 0), "reissued buffer is zeroed");
    }

    #[test]
    fn arena_buckets_by_capacity_class() {
        // Mixed-shape regression: with the historical single-stack pool,
        // the small buffer (returned last) was popped for the next large
        // request and reallocated, while the large buffer stayed buried.
        // Bucketing must hand each take its own capacity class back.
        let mut arena: ScratchArena<i64> = ScratchArena::new();
        let big = arena.take(1024);
        let small = arena.take(16);
        let (big_ptr, small_ptr) = (big.as_ptr(), small.as_ptr());
        arena.give(big);
        arena.give(small); // small on top of a LIFO stack
        let big2 = arena.take(1024);
        assert_eq!(big2.as_ptr(), big_ptr, "large take reuses the large buffer");
        let small2 = arena.take_any(16);
        assert_eq!(
            small2.as_ptr(),
            small_ptr,
            "small take reuses the small one"
        );
        // alternating take/give across classes stays allocation-stable
        arena.give(big2);
        arena.give(small2);
        for _ in 0..4 {
            let s = arena.take(16);
            assert_eq!(s.as_ptr(), small_ptr);
            let b = arena.take_any(1024);
            assert_eq!(b.as_ptr(), big_ptr);
            arena.give(b);
            arena.give(s);
        }
    }

    #[test]
    fn trim_bounds_idle_retention() {
        let mut arena: ScratchArena<f64> = ScratchArena::new();
        let bufs: Vec<_> = (0..4).map(|_| arena.take(1024)).collect();
        assert_eq!(arena.retained_words(), 0, "taken buffers are not idle");
        for b in bufs {
            arena.give(b);
        }
        assert_eq!(arena.retained_words(), 4 * 1024);
        arena.trim(1024);
        assert!(
            arena.retained_words() <= 1024,
            "retention bounded: {} words",
            arena.retained_words()
        );
        // the survivor is still recycled
        let b = arena.take(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(arena.retained_words(), 0);
        arena.give(b);
        arena.trim(0);
        assert_eq!(arena.retained_words(), 0, "trim(0) empties the pool");
        // trimming an empty pool is a no-op, and give after trim works
        arena.trim(0);
        let b = arena.take(8);
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn take_any_reuses_without_zeroing_contract() {
        let mut arena: ScratchArena<i64> = ScratchArena::new();
        let mut b = arena.take(8);
        b.iter_mut().for_each(|x| *x = 7);
        arena.give(b);
        // contents unspecified but length exact and allocation reused
        let b2 = arena.take_any(4);
        assert_eq!(b2.len(), 4);
        let b3 = arena.take_any(16);
        assert_eq!(b3.len(), 16);
    }

    #[test]
    fn multiply_into_is_exact_for_all_registry_schemes() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut arena = ScratchArena::new();
        for scheme in all_schemes() {
            let (bm, bk, bn) = scheme.dims();
            let (mm, kk, nn) = (bm * bm + 1, bk * bk, bn * bn + 1);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            let mut c = Matrix::zeros(mm, nn);
            multiply_into(
                &scheme,
                a.view(),
                b.view(),
                &mut c.view_mut(),
                1,
                &mut arena,
            );
            assert_eq!(c, multiply_naive(&a, &b), "scheme {}", scheme.name);
        }
    }

    #[test]
    fn multiply_flat_is_bit_identical_to_multiply_scheme() {
        // The rank-local contract: a distributed leaf calling multiply_flat
        // on message payloads computes exactly the sequential engine's bits.
        let mut rng = StdRng::seed_from_u64(67);
        let mut arena = ScratchArena::new();
        for scheme in all_schemes() {
            for (mm, kk, nn) in [(8usize, 8usize, 8usize), (7, 5, 9)] {
                let a = Matrix::<f64>::random(mm, kk, &mut rng);
                let b = Matrix::<f64>::random(kk, nn, &mut rng);
                let flat = multiply_flat(
                    &scheme,
                    a.as_slice(),
                    b.as_slice(),
                    (mm, kk, nn),
                    2,
                    &mut arena,
                );
                let reference = crate::recursive::multiply_scheme(&scheme, &a, &b, 2);
                assert!(
                    flat.iter()
                        .zip(reference.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{} {mm}x{kk}x{nn}",
                    scheme.name
                );
            }
        }
    }

    #[cfg(not(feature = "fma"))]
    #[test]
    fn packed_and_unpacked_base_cases_agree_bitwise() {
        // The kernel swap must be invisible: the packed default and the
        // legacy ikj base case produce identical bits at every cutoff.
        let mut rng = StdRng::seed_from_u64(68);
        let mut arena = ScratchArena::new();
        for scheme in all_schemes() {
            let (mm, kk, nn) = (37usize, 41usize, 29usize);
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            for cutoff in [1usize, 8, 64] {
                let mut packed = Matrix::zeros(mm, nn);
                multiply_into(
                    &scheme,
                    a.view(),
                    b.view(),
                    &mut packed.view_mut(),
                    cutoff,
                    &mut arena,
                );
                let mut unpacked = Matrix::zeros(mm, nn);
                multiply_into_unpacked(
                    &scheme,
                    a.view(),
                    b.view(),
                    &mut unpacked.view_mut(),
                    cutoff,
                    &mut arena,
                );
                assert!(
                    packed.bits_eq(&unpacked),
                    "{} cutoff={cutoff}: packed base case changed bits",
                    scheme.name
                );
            }
        }
    }

    /// A random operand with `-0.0` sprinkled in, so assign-vs-copy
    /// differences (`0 + (-0.0) = +0.0`) would show in the bits.
    fn with_signed_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<f64> {
        let mut m = Matrix::<f64>::random(rows, cols, rng);
        for i in 0..rows {
            for j in 0..cols {
                if (i * 7 + j * 3) % 5 == 0 {
                    m[(i, j)] = -0.0;
                }
            }
        }
        m
    }

    #[test]
    fn encode_is_write_once_into_any_buffer() {
        // The engines hand encode unzeroed arena buffers: into a
        // NaN-filled buffer it must give the bits it gives into a zeroed
        // one, for every product of every registry scheme.
        let mut rng = StdRng::seed_from_u64(69);
        for scheme in all_schemes() {
            let (bm, bk, bn) = scheme.dims();
            let (sm, sk, sn) = (3usize, 5usize, 4usize);
            let a = with_signed_zeros(bm * sm, bk * sk, &mut rng);
            let b = with_signed_zeros(bk * sk, bn * sn, &mut rng);
            for l in 0..scheme.r {
                let mut ta_zero = Matrix::zeros(sm, sk);
                encode_a_into(&scheme, a.view(), l, &mut ta_zero.view_mut());
                let mut ta_nan = Matrix::from_fn(sm, sk, |_, _| f64::NAN);
                encode_a_into(&scheme, a.view(), l, &mut ta_nan.view_mut());
                assert!(ta_nan.bits_eq(&ta_zero), "{} l={l}: T_l", scheme.name);
                let mut tb_zero = Matrix::zeros(sk, sn);
                encode_b_into(&scheme, b.view(), l, &mut tb_zero.view_mut());
                let mut tb_nan = Matrix::from_fn(sk, sn, |_, _| f64::NAN);
                encode_b_into(&scheme, b.view(), l, &mut tb_nan.view_mut());
                assert!(tb_nan.bits_eq(&tb_zero), "{} l={l}: S_l", scheme.name);
            }
        }
    }

    #[test]
    fn first_touch_decode_matches_accumulate_into_zeros() {
        // Decoding l = 0..r in order, first-touch into a NaN-filled C
        // equals the public accumulating decode into a zeroed C, bitwise.
        let mut rng = StdRng::seed_from_u64(70);
        for scheme in all_schemes() {
            let (bm, _, bn) = scheme.dims();
            let (sm, sn) = (3usize, 4usize);
            let products: Vec<Matrix<f64>> = (0..scheme.r)
                .map(|_| with_signed_zeros(sm, sn, &mut rng))
                .collect();
            let mut c_zero = Matrix::zeros(bm * sm, bn * sn);
            let mut c_nan = Matrix::from_fn(bm * sm, bn * sn, |_, _| f64::NAN);
            for (l, m) in products.iter().enumerate() {
                decode_product_into(&scheme, m.view(), l, &mut c_zero.view_mut());
                decode_product_first_touch(&scheme, m.view(), l, &mut c_nan.view_mut());
            }
            assert!(c_nan.bits_eq(&c_zero), "{}", scheme.name);
        }
    }

    #[test]
    #[should_panic(expected = "a row of W has no nonzero")]
    fn first_touch_decode_rejects_a_scheme_that_never_writes_a_block() {
        let mut s = strassen();
        for l in 0..s.r {
            s.w.set(0, l, 0);
        }
        let mut c = Matrix::<f64>::zeros(4, 4);
        multiply_into(
            &s,
            Matrix::identity(4).view(),
            Matrix::identity(4).view(),
            &mut c.view_mut(),
            1,
            &mut ScratchArena::new(),
        );
    }

    #[test]
    fn encode_decode_kernels_match_dense_reference() {
        // One Strassen level by hand: encode/decode kernels vs the flat
        // (U, V, W) definition evaluated through owned block copies.
        let s = strassen();
        let mut rng = StdRng::seed_from_u64(62);
        let a = Matrix::<f64>::random(4, 4, &mut rng);
        let b = Matrix::<f64>::random(4, 4, &mut rng);
        let a_blocks: Vec<Matrix<f64>> = (0..4)
            .map(|q| a.view().grid_block_rect(2, 2, q / 2, q % 2).to_matrix())
            .collect();
        let b_blocks: Vec<Matrix<f64>> = (0..4)
            .map(|q| b.view().grid_block_rect(2, 2, q / 2, q % 2).to_matrix())
            .collect();
        let mut c_fast = Matrix::zeros(4, 4);
        let mut c_ref = Matrix::zeros(4, 4);
        for l in 0..s.r {
            let mut ta = Matrix::zeros(2, 2);
            encode_a_into(&s, a.view(), l, &mut ta.view_mut());
            let mut tb = Matrix::zeros(2, 2);
            encode_b_into(&s, b.view(), l, &mut tb.view_mut());
            let mut ta_ref = Matrix::zeros(2, 2);
            let mut tb_ref = Matrix::zeros(2, 2);
            for q in 0..4 {
                ta_ref
                    .view_mut()
                    .accumulate_scaled(a_blocks[q].view(), s.u.get(l, q));
                tb_ref
                    .view_mut()
                    .accumulate_scaled(b_blocks[q].view(), s.v.get(l, q));
            }
            assert_eq!(ta, ta_ref, "l={l}: encode A");
            assert_eq!(tb, tb_ref, "l={l}: encode B");
            let m = multiply_naive(&ta, &tb);
            decode_product_into(&s, m.view(), l, &mut c_fast.view_mut());
            for q in 0..4 {
                let wc = s.w.get(q, l);
                if wc != 0 {
                    c_ref
                        .view_mut()
                        .grid_block_rect_mut(2, 2, q / 2, q % 2)
                        .accumulate_scaled(m.view(), wc);
                }
            }
        }
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_fast), bits(&c_ref), "decode reassociated");
    }
}
