//! Numerically-stable helpers shared by kernels and tests.
//!
//! The hot microkernels (`dot`, `axpy`, `scale`, `scale_add`, the block
//! kernels [`dot_block`] / [`row_max`] / [`axpy_block`] the attention
//! kernel's inner loop is made of, and the f16/e4m3 widen conversions)
//! dispatch at runtime between the portable 4-lane blocked code in
//! [`portable`] and the explicit SIMD arms in `simd_x86` / `simd_neon`
//! (see [`crate::simd`] for the detection rules and `FI_FORCE_SCALAR`).
//! Every consumer — the flash kernel, the reference
//! oracle, and the runtime's workers — must route through these
//! dispatched functions: kernel-vs-reference and sequential-vs-concurrent
//! comparisons then see identical arithmetic at whatever feature level
//! the process detected.

use crate::fp8::F8E4M3;
use crate::half::F16;
use crate::simd::{active_arm, SimdArm};

/// The portable 4-lane blocked implementations — the fallback arm of the
/// runtime dispatch, and the rounding reference the SIMD arms are tested
/// against. Public so arm-vs-arm tests and benches can call it directly.
pub mod portable {
    /// Dot product in f32, blocked over four independent accumulator
    /// lanes.
    ///
    /// The naive scalar loop carries a dependence on its single
    /// accumulator, so the compiler must serialize the adds; four lanes
    /// let it keep partial sums in SIMD registers. The lane split changes
    /// rounding relative to a strictly sequential sum.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 4];
        let mut ca = a.chunks_exact(4);
        let mut cb = b.chunks_exact(4);
        for (xa, xb) in (&mut ca).zip(&mut cb) {
            lanes[0] += xa[0] * xb[0];
            lanes[1] += xa[1] * xb[1];
            lanes[2] += xa[2] * xb[2];
            lanes[3] += xa[3] * xb[3];
        }
        let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            acc += x * y;
        }
        acc
    }

    /// `y[i] += a * x[i]`, blocked 4-wide.
    ///
    /// Elementwise with no loop-carried dependence, so blocking does not
    /// change rounding — results are bit-identical to the scalar loop.
    #[inline]
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        let n4 = x.len() & !3;
        let (x4, xt) = x.split_at(n4);
        let (y4, yt) = y.split_at_mut(n4);
        for (xc, yc) in x4.chunks_exact(4).zip(y4.chunks_exact_mut(4)) {
            yc[0] += a * xc[0];
            yc[1] += a * xc[1];
            yc[2] += a * xc[2];
            yc[3] += a * xc[3];
        }
        for (yy, &xx) in yt.iter_mut().zip(xt) {
            *yy += a * xx;
        }
    }

    /// `y[i] *= s`, blocked 4-wide. Bit-identical to the scalar loop.
    #[inline]
    pub fn scale(y: &mut [f32], s: f32) {
        let n4 = y.len() & !3;
        let (y4, yt) = y.split_at_mut(n4);
        for yc in y4.chunks_exact_mut(4) {
            yc[0] *= s;
            yc[1] *= s;
            yc[2] *= s;
            yc[3] *= s;
        }
        for yy in yt {
            *yy *= s;
        }
    }

    /// `y[i] = s * y[i] + a * x[i]`, blocked 4-wide.
    ///
    /// Each element performs the same three roundings (`s*y`, `a*x`,
    /// their sum) as a [`scale`] pass followed by an [`axpy`] pass, so
    /// the fusion is bit-identical to the two-pass form.
    #[inline]
    pub fn scale_add(s: f32, a: f32, x: &[f32], y: &mut [f32]) {
        let n4 = x.len() & !3;
        let (x4, xt) = x.split_at(n4);
        let (y4, yt) = y.split_at_mut(n4);
        for (xc, yc) in x4.chunks_exact(4).zip(y4.chunks_exact_mut(4)) {
            yc[0] = s * yc[0] + a * xc[0];
            yc[1] = s * yc[1] + a * xc[1];
            yc[2] = s * yc[2] + a * xc[2];
            yc[3] = s * yc[3] + a * xc[3];
        }
        for (yy, &xx) in yt.iter_mut().zip(xt) {
            *yy = s * *yy + a * xx;
        }
    }
}

/// Numerically stable `log(sum(exp(x)))` over a slice.
///
/// Returns `f32::NEG_INFINITY` for an empty slice, matching the attention
/// scale of an empty index set (Eq. 1 with `I = ∅`).
pub fn log_sum_exp(xs: &[f32]) -> f32 {
    let m = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if m == f32::NEG_INFINITY {
        return f32::NEG_INFINITY;
    }
    if m.is_infinite() {
        // +inf dominates.
        return f32::INFINITY;
    }
    let s: f32 = xs.iter().map(|&x| (x - m).exp()).sum();
    m + s.ln()
}

/// Maximum absolute elementwise difference between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch in max_abs_diff");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// True when every pair differs by at most `atol + rtol * |b|`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn allclose(a: &[f32], b: &[f32], rtol: f32, atol: f32) -> bool {
    assert_eq!(a.len(), b.len(), "length mismatch in allclose");
    a.iter().zip(b).all(|(&x, &y)| {
        if x.is_nan() || y.is_nan() {
            return false;
        }
        (x - y).abs() <= atol + rtol * y.abs()
    })
}

/// Dot product in f32, dispatched across the runtime SIMD arms.
///
/// The AVX2/NEON arms use FMA with wider accumulators, so the result can
/// differ from [`portable::dot`] by normal rounding slop — but *within*
/// a process every consumer sees the same arm, so kernel-vs-oracle and
/// sequential-vs-parallel comparisons stay bit-identical to each other.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch in dot");
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::dot(a, b),
        #[cfg(target_arch = "aarch64")]
        SimdArm::Neon => crate::simd_neon::dot(a, b),
        _ => portable::dot(a, b),
    }
}

/// `y[i] += a * x[i]`, dispatched across the runtime SIMD arms.
///
/// Elementwise with no loop-carried dependence; every arm uses separate
/// multiply and add instructions, so the result is bit-identical across
/// arms and to the scalar loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "length mismatch in axpy");
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::axpy(a, x, y),
        #[cfg(target_arch = "aarch64")]
        SimdArm::Neon => crate::simd_neon::axpy(a, x, y),
        _ => portable::axpy(a, x, y),
    }
}

/// `y[i] *= s`, dispatched across the runtime SIMD arms. Bit-identical
/// across arms and to the scalar loop.
#[inline]
pub fn scale(y: &mut [f32], s: f32) {
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::scale(y, s),
        #[cfg(target_arch = "aarch64")]
        SimdArm::Neon => crate::simd_neon::scale(y, s),
        _ => portable::scale(y, s),
    }
}

/// `y[i] = s * y[i] + a * x[i]`: the fused rescale-and-accumulate step
/// of the online-softmax update, one pass over `y` instead of a
/// [`scale`] pass followed by an [`axpy`] pass.
///
/// Each element performs the same three roundings (`s*y`, `a*x`, their
/// sum) on every arm, so the fusion is bit-identical to the two-pass
/// form and across arms.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn scale_add(s: f32, a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "length mismatch in scale_add");
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::scale_add(s, a, x, y),
        #[cfg(target_arch = "aarch64")]
        SimdArm::Neon => crate::simd_neon::scale_add(s, a, x, y),
        _ => portable::scale_add(s, a, x, y),
    }
}

/// `rows` equal-width rows at a fixed stride inside one f32 slice: how
/// the block kernels see a query tile, a staged KV tile, or a run of KV
/// rows read in place from a pool (where the stride is the full pool
/// row and the width one head's slice of it).
///
/// The bounds are checked once here, so the SIMD arms can walk rows by
/// pointer without re-checking.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    data: &'a [f32],
    stride: usize,
    rows: usize,
    width: usize,
}

impl<'a> RowView<'a> {
    /// View `rows` rows of `width` elements, row `i` starting at
    /// `i * stride`.
    ///
    /// # Panics
    ///
    /// Panics if the last row would end outside `data`.
    pub fn new(data: &'a [f32], stride: usize, rows: usize, width: usize) -> RowView<'a> {
        let end = match rows.checked_sub(1) {
            None => Some(0),
            Some(last) => last
                .checked_mul(stride)
                .and_then(|at| at.checked_add(width)),
        };
        assert!(
            end.is_some_and(|e| e <= data.len()),
            "{rows} rows of {width} at stride {stride} do not fit in {} elements",
            data.len()
        );
        RowView {
            data,
            stride,
            rows,
            width,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Elements per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.data[i * self.stride..][..self.width]
    }

    /// Address of row 0 and the row stride: what the SIMD arms walk
    /// instead of re-slicing per row. Rows `0..rows` of `width` elements
    /// at that stride are inside the slice ([`RowView::new`] checked).
    #[cfg(target_arch = "x86_64")]
    #[inline]
    pub(crate) fn raw(&self) -> (*const f32, usize) {
        (self.data.as_ptr(), self.stride)
    }
}

/// The QKᵀ block: `out[s * out_stride + j] = dot(q.row(s), k.row(j))`
/// for every query row `s` and key row `j`.
///
/// Each entry carries exactly the bits [`dot`] returns for that pair on
/// the active arm. The AVX2+FMA arm computes 2 × 2 entries at a time
/// (eight independent FMA chains, each operand vector loaded once and
/// used twice, four horizontal sums reduced together) but keeps every
/// dot's own accumulation order; the other arms loop [`dot`].
///
/// # Panics
///
/// Panics if the row widths differ or a `k.rows()`-long output row at
/// `out_stride` falls outside `out`.
pub fn dot_block(q: RowView<'_>, k: RowView<'_>, out: &mut [f32], out_stride: usize) {
    assert_eq!(q.width(), k.width(), "row width mismatch in dot_block");
    // The output tile, bounds-checked the way the operand views were.
    let _ = RowView::new(out, out_stride, q.rows(), k.rows());
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::dot_block(q, k, out, out_stride),
        _ => {
            for s in 0..q.rows() {
                for j in 0..k.rows() {
                    out[s * out_stride + j] = dot(q.row(s), k.row(j));
                }
            }
        }
    }
}

/// Largest element of `xs`, `NEG_INFINITY` when empty; NaNs are skipped,
/// exactly as a `fold(NEG_INFINITY, f32::max)` skips them (the two can
/// differ only in the sign of a zero result, which no caller observes).
pub fn row_max(xs: &[f32]) -> f32 {
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::row_max(xs),
        _ => xs.iter().copied().fold(f32::NEG_INFINITY, f32::max),
    }
}

/// The PV block: `y.row(s) += Σ_j w.row(s)[j] * x.row(j)` for every row
/// `s` of the weight tile `w`, keys folded in ascending `j`, every
/// `w.row(s)[j] == NEG_INFINITY` (a masked key) skipped. `y` holds
/// `w.rows()` rows of `x.width()` elements at `y_stride`.
///
/// Per element and key this is [`axpy`]'s `y[i] += w * x[i]` — multiply,
/// then add, never a fused multiply-add — so the bits are those of
/// looping [`axpy`] on every arm; the AVX2 arm keeps each `y` row in
/// registers across the whole run of keys instead of reloading and
/// storing it per key.
///
/// # Panics
///
/// Panics if `w.width() != x.rows()`, `y_stride < x.width()`, or the
/// rows of `y` do not fit in it.
pub fn axpy_block(w: RowView<'_>, x: RowView<'_>, y: &mut [f32], y_stride: usize) {
    assert_eq!(w.width(), x.rows(), "weight count mismatch in axpy_block");
    assert!(y_stride >= x.width(), "overlapping rows in axpy_block");
    let _ = RowView::new(y, y_stride, w.rows(), x.width());
    match active_arm() {
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Fma => crate::simd_x86::axpy_block(w, x, y, y_stride),
        _ => {
            for s in 0..w.rows() {
                let ys = &mut y[s * y_stride..][..x.width()];
                for (j, &wj) in w.row(s).iter().enumerate() {
                    if wj != f32::NEG_INFINITY {
                        axpy(wj, x.row(j), ys);
                    }
                }
            }
        }
    }
}

/// `dst[i] = f32::from(src[i]) * scale` for half-precision rows — the
/// widen-on-stage conversion of the f16 KV path. Exact conversion
/// followed by one multiply, so the only rounding is the scale multiply
/// (none at all when `scale == 1.0`). Bit-identical across arms for all
/// non-NaN inputs; hardware F16C may quiet a signaling-NaN payload.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn widen_f16_into(dst: &mut [f32], src: &[F16], scale_by: f32) {
    assert_eq!(dst.len(), src.len(), "length mismatch in widen_f16_into");
    #[cfg(target_arch = "x86_64")]
    if active_arm() == SimdArm::Avx2Fma {
        crate::simd_x86::widen_f16(dst, src, scale_by);
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f32() * scale_by;
    }
}

/// `dst[i] = f32::from(src[i]) * scale` for e4m3 rows — the
/// widen-on-stage conversion of the fp8 KV path, via a 256-entry exact
/// lookup table. The only rounding is the scale multiply, so results are
/// bit-identical across arms.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn widen_e4m3_into(dst: &mut [f32], src: &[F8E4M3], scale_by: f32) {
    assert_eq!(dst.len(), src.len(), "length mismatch in widen_e4m3_into");
    #[cfg(target_arch = "x86_64")]
    if active_arm() == SimdArm::Avx2Fma {
        crate::simd_x86::widen_e4m3(dst, src, scale_by);
        return;
    }
    let lut = crate::fp8::e4m3_to_f32_lut();
    for (d, s) in dst.iter_mut().zip(src) {
        *d = lut[s.0 as usize] * scale_by;
    }
}

/// Deterministic pairwise tree reduction.
///
/// Combines `items` with a fixed bracket order: each round pairs adjacent
/// elements left-to-right `(0⊕1), (2⊕3), …` and an odd tail carries into
/// the next round unchanged, so the association depends only on the item
/// count and order — never on thread arrival timing or worker count.
/// Every multi-worker reduction in the workspace (scheduler
/// partial-merging, distributed `all_reduce`) routes through this one
/// helper so they all share a single ordering and stay bit-exact across
/// runs.
///
/// Returns `None` for an empty input; a single item is returned untouched
/// (no identity element is injected).
pub fn tree_reduce<T>(mut items: Vec<T>, mut combine: impl FnMut(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        items = next;
    }
    items.pop()
}

/// Elementwise tree-ordered sum of equal-length f32 vectors.
///
/// The reduction association is [`tree_reduce`]'s fixed bracket order, so
/// the result is bit-identical for a given input order regardless of how
/// many threads produced the inputs. This is the arithmetic core of the
/// deterministic `all_reduce` collective.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn tree_reduce_sum(vecs: Vec<Vec<f32>>) -> Option<Vec<f32>> {
    tree_reduce(vecs, |mut a, b| {
        assert_eq!(a.len(), b.len(), "length mismatch in tree_reduce_sum");
        for (x, &y) in a.iter_mut().zip(&b) {
            *x += y;
        }
        a
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lse_matches_naive_when_safe() {
        let xs = [0.5f32, -1.0, 2.0];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-6);
    }

    #[test]
    fn lse_stable_for_large_inputs() {
        // Naive would overflow: exp(1000) = inf.
        let xs = [1000.0f32, 999.0];
        let got = log_sum_exp(&xs);
        let expect = 1000.0 + (1.0f32 + (-1.0f32).exp()).ln();
        assert!((got - expect).abs() < 1e-4);
    }

    #[test]
    fn lse_empty_is_neg_inf() {
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f32::NEG_INFINITY]), f32::NEG_INFINITY);
    }

    #[test]
    fn allclose_and_diff() {
        assert!(allclose(&[1.0, 2.0], &[1.0 + 1e-7, 2.0], 1e-5, 1e-6));
        assert!(!allclose(&[1.0], &[1.1], 1e-5, 1e-6));
        assert!(!allclose(&[f32::NAN], &[f32::NAN], 1.0, 1.0));
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 5.0]), 1.0);
    }

    #[test]
    fn dot_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_blocked_covers_lanes_and_tail() {
        // Length 7 exercises one full 4-lane block plus a 3-element tail;
        // small integers make the sum exact on every dispatch arm (FMA on
        // integer-valued products introduces no rounding).
        let a: Vec<f32> = (1..=7).map(|i| i as f32).collect();
        let b: Vec<f32> = (1..=7).map(|i| (i * i) as f32).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b), expect);
        assert_eq!(portable::dot(&a, &b), expect);
        // Exact multiple of the block width (no tail).
        let c = [2.0f32; 8];
        assert_eq!(dot(&c, &c), 32.0);
    }

    #[test]
    fn axpy_scale_and_scale_add_match_scalar_loops() {
        let x: Vec<f32> = (0..11).map(|i| 0.37 * i as f32 - 1.4).collect();
        let y0: Vec<f32> = (0..11).map(|i| -0.21 * i as f32 + 0.9).collect();
        let (a, s) = (1.7f32, 0.4f32);

        let mut y = y0.clone();
        axpy(a, &x, &mut y);
        for i in 0..x.len() {
            assert_eq!(y[i], y0[i] + a * x[i], "axpy at {i}");
        }

        let mut y = y0.clone();
        scale(&mut y, s);
        for i in 0..x.len() {
            assert_eq!(y[i], y0[i] * s, "scale at {i}");
        }

        // scale_add must be bit-identical to scale-then-axpy.
        let mut fused = y0.clone();
        scale_add(s, a, &x, &mut fused);
        let mut two_pass = y0.clone();
        scale(&mut two_pass, s);
        axpy(a, &x, &mut two_pass);
        assert_eq!(fused, two_pass);
    }

    #[test]
    fn microkernels_handle_empty_slices() {
        let mut y: Vec<f32> = vec![];
        axpy(2.0, &[], &mut y);
        scale(&mut y, 2.0);
        scale_add(2.0, 3.0, &[], &mut y);
        assert!(y.is_empty());
    }

    #[test]
    fn widen_f16_into_matches_scalar_conversion() {
        for n in 0..20 {
            let src: Vec<F16> = (0..n)
                .map(|i| F16::from_f32(0.31 * i as f32 - 2.0))
                .collect();
            for s in [1.0f32, 0.25, 2.5] {
                let mut dst = vec![0.0f32; n];
                widen_f16_into(&mut dst, &src, s);
                for (got, x) in dst.iter().zip(&src) {
                    assert_eq!(got.to_bits(), (x.to_f32() * s).to_bits());
                }
            }
        }
    }

    #[test]
    fn widen_e4m3_into_matches_scalar_conversion() {
        for n in 0..20 {
            let src: Vec<F8E4M3> = (0..n)
                .map(|i| F8E4M3::from_f32(0.17 * i as f32 - 1.0))
                .collect();
            for s in [1.0f32, 0.5, 3.0] {
                let mut dst = vec![0.0f32; n];
                widen_e4m3_into(&mut dst, &src, s);
                for (got, x) in dst.iter().zip(&src) {
                    assert_eq!(got.to_bits(), (x.to_f32() * s).to_bits());
                }
            }
        }
    }

    #[test]
    fn tree_reduce_bracket_order() {
        // Strings record the association: 5 items reduce as
        // round 1: (01)(23)(4)  round 2: ((01)(23))(4)  round 3: all.
        let items: Vec<String> = (0..5).map(|i| i.to_string()).collect();
        let got = tree_reduce(items, |a, b| format!("({a}{b})")).unwrap();
        assert_eq!(got, "(((01)(23))4)");
        // Empty and singleton edge cases.
        assert_eq!(tree_reduce(Vec::<i32>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7], |a, b| a + b), Some(7));
    }

    #[test]
    fn tree_reduce_sum_is_deterministic_and_correct() {
        let vecs: Vec<Vec<f32>> = (0..7)
            .map(|i| (0..5).map(|j| 0.1 * (i * 5 + j) as f32).collect())
            .collect();
        let a = tree_reduce_sum(vecs.clone()).unwrap();
        let b = tree_reduce_sum(vecs.clone()).unwrap();
        assert_eq!(a, b, "same input, same bits");
        let naive: Vec<f32> = (0..5)
            .map(|j| vecs.iter().map(|v| v[j]).sum::<f32>())
            .collect();
        assert!(allclose(&a, &naive, 1e-5, 1e-6));
        assert_eq!(tree_reduce_sum(vec![]), None);
    }
}
