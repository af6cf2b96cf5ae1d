//! AVX2+FMA microkernels (x86-64 arm of the runtime dispatch).
//!
//! This file and `simd_neon.rs` are the only places in the tensor crate
//! allowed to use `unsafe` (CI greps for it): the public functions here
//! are safe wrappers whose callers — the dispatchers in
//! [`crate::numerics`] — only route here after runtime feature
//! detection, and the pointer arithmetic is bounds-checked by the loop
//! structure.
//!
//! Rounding contract (DESIGN.md §11):
//! - `dot` uses FMA and 8-wide accumulators — *more* accurate than the
//!   portable 4-lane sum, but not bit-identical to it.
//! - `axpy` / `scale` / `scale_add` use separate multiply and add
//!   instructions (never `fmadd`), with scalar tails written as the same
//!   per-element expression, so every length produces bits identical to
//!   the portable fallback.
//! - The block kernels change only what is interleaved and where the
//!   running values live: every entry of `dot_block` is accumulated in
//!   `dot`'s order, every element of `axpy_block` sees `axpy`'s multiply
//!   and add key by key, and `row_max` is an exact selection —
//!   bit-identical to looping the single-row kernels above.
//! - The f16/e4m3 widen kernels are exact conversions (F16C hardware
//!   convert, in-register e4m3 bit-field expansion) followed by one
//!   multiply by the dequant scale — the same single rounding as the
//!   scalar path.

#![cfg(target_arch = "x86_64")]

use std::arch::x86_64::*;

use crate::fp8::{e4m3_to_f32_lut, F8E4M3};
use crate::half::F16;
use crate::numerics::RowView;

/// FMA'd dot product. Agrees with `numerics::portable::dot` to
/// tolerance, not bitwise.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { dot_avx2(a, b) }
}

#[target_feature(enable = "avx2,fma")]
fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n keeps both unaligned 8-lane loads in bounds.
        unsafe {
            let x0 = _mm256_loadu_ps(pa.add(i));
            let y0 = _mm256_loadu_ps(pb.add(i));
            acc0 = _mm256_fmadd_ps(x0, y0, acc0);
            let x1 = _mm256_loadu_ps(pa.add(i + 8));
            let y1 = _mm256_loadu_ps(pb.add(i + 8));
            acc1 = _mm256_fmadd_ps(x1, y1, acc1);
        }
        i += 16;
    }
    if i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the load in bounds.
        unsafe {
            let x = _mm256_loadu_ps(pa.add(i));
            let y = _mm256_loadu_ps(pb.add(i));
            acc0 = _mm256_fmadd_ps(x, y, acc0);
        }
        i += 8;
    }
    let mut total = hsum256(_mm256_add_ps(acc0, acc1));
    while i < n {
        total = a[i].mul_add(b[i], total);
        i += 1;
    }
    total
}

/// Horizontal sum of an 8-lane register: pairwise halving, so the
/// reduction order is fixed regardless of input length.
#[target_feature(enable = "avx2")]
fn hsum256(v: __m256) -> f32 {
    let lo = _mm256_castps256_ps128(v);
    let hi = _mm256_extractf128_ps::<1>(v);
    let quad = _mm_add_ps(lo, hi);
    let pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    let single = _mm_add_ss(pair, _mm_movehdup_ps(pair));
    _mm_cvtss_f32(single)
}

/// Horizontal sums of four 8-lane registers at once, lane `i` of the
/// result holding exactly [`hsum256`]`(v[i])`: the same three additions
/// per register — `(q0 + q2) + (q1 + q3)` over the folded halves — done
/// on transposed lanes, so the four reductions share their instructions.
#[inline]
#[target_feature(enable = "avx2")]
fn hsum256x4(v: [__m256; 4]) -> [f32; 4] {
    let mut quad = [_mm_setzero_ps(); 4];
    for (q, r) in quad.iter_mut().zip(v) {
        *q = _mm_add_ps(_mm256_castps256_ps128(r), _mm256_extractf128_ps::<1>(r));
    }
    // (q0+q2, q0'+q2', q1+q3, q1'+q3') for registers 0,1 and for 2,3.
    let s01 = _mm_add_ps(
        _mm_unpacklo_ps(quad[0], quad[1]),
        _mm_unpackhi_ps(quad[0], quad[1]),
    );
    let s23 = _mm_add_ps(
        _mm_unpacklo_ps(quad[2], quad[3]),
        _mm_unpackhi_ps(quad[2], quad[3]),
    );
    let total = _mm_add_ps(_mm_movelh_ps(s01, s23), _mm_movehl_ps(s23, s01));
    let mut out = [0.0f32; 4];
    // SAFETY: `out` is four f32s, the width of the unaligned store.
    unsafe { _mm_storeu_ps(out.as_mut_ptr(), total) };
    out
}

/// Pointer to row `i` of a view, valid for `v.width()` reads.
///
/// # Safety
///
/// `i < v.rows()`: `RowView::new` checked that exactly those rows lie
/// inside the viewed slice.
#[inline]
unsafe fn row_ptr(v: RowView<'_>, i: usize) -> *const f32 {
    debug_assert!(i < v.rows());
    let (base, stride) = v.raw();
    // SAFETY: row i starts `i * stride` elements into the slice.
    unsafe { base.add(i * stride) }
}

/// The QKᵀ block `out[s * out_stride + j] = dot(q.row(s), k.row(j))`,
/// every entry bit-identical to [`dot`] on that pair.
///
/// # Panics
///
/// Panics if the row widths differ or the output tile does not fit.
#[inline]
pub fn dot_block(q: RowView<'_>, k: RowView<'_>, out: &mut [f32], out_stride: usize) {
    assert_eq!(q.width(), k.width(), "row width mismatch in dot_block");
    // The output tile, bounds-checked the way the operand views were.
    let _ = RowView::new(out, out_stride, q.rows(), k.rows());
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { dot_block_avx2(q, k, out, out_stride) }
}

#[target_feature(enable = "avx2,fma")]
fn dot_block_avx2(q: RowView<'_>, k: RowView<'_>, out: &mut [f32], out_stride: usize) {
    let out = out.as_mut_ptr();
    let mut s = 0usize;
    while s + 2 <= q.rows() {
        // SAFETY: rows s and s + 1 exist, and `dot_block` checked that
        // `q.rows()` output rows of `k.rows()` entries fit in `out`.
        unsafe {
            let to = [out.add(s * out_stride), out.add((s + 1) * out_stride)];
            dot_strip([row_ptr(q, s), row_ptr(q, s + 1)], k, to);
        }
        s += 2;
    }
    if s < q.rows() {
        // SAFETY: as above, for the one remaining row.
        unsafe { dot_strip([row_ptr(q, s)], k, [out.add(s * out_stride)]) };
    }
}

/// `R` query rows against every key, two keys at a time.
///
/// # Safety
///
/// Each `q[r]` must be valid for `k.width()` reads and each `out[r]` for
/// `k.rows()` writes.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_strip<const R: usize>(q: [*const f32; R], k: RowView<'_>, out: [*mut f32; R]) {
    let n = k.width();
    let mut j = 0usize;
    while j + 2 <= k.rows() {
        // SAFETY: rows j and j + 1 exist, so their pointers are valid for
        // `n` reads (as the caller promises of `q`), and column j + 1 is
        // inside every output row.
        unsafe {
            let t = dot_tile(q, [row_ptr(k, j), row_ptr(k, j + 1)], n);
            for r in 0..R {
                *out[r].add(j) = t[r][0];
                *out[r].add(j + 1) = t[r][1];
            }
        }
        j += 2;
    }
    if j < k.rows() {
        // SAFETY: as above, for the one remaining key.
        unsafe {
            let t = dot_tile(q, [row_ptr(k, j)], n);
            for r in 0..R {
                *out[r].add(j) = t[r][0];
            }
        }
    }
}

/// `R × C` dot products (`R * C <= 4`) of `n`-element rows advanced
/// together. Each keeps the two accumulators, the strides and the tails
/// of [`dot_avx2`], so its bits are that function's; what the block adds
/// is `2 * R * C` independent FMA chains and `R + C` operand loads per
/// `R * C` FMAs.
///
/// # Safety
///
/// Every pointer must be valid for `n` reads.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_tile<const R: usize, const C: usize>(
    q: [*const f32; R],
    k: [*const f32; C],
    n: usize,
) -> [[f32; C]; R] {
    const { assert!(R * C <= 4) };
    let zero = _mm256_setzero_ps();
    let mut acc0 = [[zero; C]; R];
    let mut acc1 = [[zero; C]; R];
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: every row is valid for n reads and i + 16 <= n keeps
        // both unaligned 8-lane loads of each row in bounds.
        unsafe {
            let (mut q0, mut q1) = ([zero; R], [zero; R]);
            for r in 0..R {
                q0[r] = _mm256_loadu_ps(q[r].add(i));
                q1[r] = _mm256_loadu_ps(q[r].add(i + 8));
            }
            for c in 0..C {
                let k0 = _mm256_loadu_ps(k[c].add(i));
                let k1 = _mm256_loadu_ps(k[c].add(i + 8));
                for r in 0..R {
                    acc0[r][c] = _mm256_fmadd_ps(q0[r], k0, acc0[r][c]);
                    acc1[r][c] = _mm256_fmadd_ps(q1[r], k1, acc1[r][c]);
                }
            }
        }
        i += 16;
    }
    if i + 8 <= n {
        // SAFETY: every row is valid for n reads and i + 8 <= n keeps the
        // load in bounds.
        unsafe {
            for c in 0..C {
                let k0 = _mm256_loadu_ps(k[c].add(i));
                for r in 0..R {
                    acc0[r][c] = _mm256_fmadd_ps(_mm256_loadu_ps(q[r].add(i)), k0, acc0[r][c]);
                }
            }
        }
        i += 8;
    }
    let mut sums = [zero; 4];
    for r in 0..R {
        for c in 0..C {
            sums[r * C + c] = _mm256_add_ps(acc0[r][c], acc1[r][c]);
        }
    }
    let totals = hsum256x4(sums);
    let mut out = [[0.0f32; C]; R];
    for r in 0..R {
        for c in 0..C {
            let mut total = totals[r * C + c];
            for t in i..n {
                // SAFETY: t < n.
                total = unsafe { (*q[r].add(t)).mul_add(*k[c].add(t), total) };
            }
            out[r][c] = total;
        }
    }
    out
}

/// Largest element, `NEG_INFINITY` when empty, NaNs skipped.
#[inline]
pub fn row_max(xs: &[f32]) -> f32 {
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { row_max_avx2(xs) }
}

#[target_feature(enable = "avx2")]
fn row_max_avx2(xs: &[f32]) -> f32 {
    let n = xs.len();
    let p = xs.as_ptr();
    let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the load in bounds.
        // `vmaxps` returns its second operand when the first is NaN, so
        // a NaN element leaves the running maximum as it was — what
        // `f32::max` does — and `best` itself is never NaN.
        best = unsafe { _mm256_max_ps(_mm256_loadu_ps(p.add(i)), best) };
        i += 8;
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is eight f32s, the width of the unaligned store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), best) };
    lanes
        .iter()
        .chain(&xs[i..])
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
}

/// The PV block: `y.row(s) += Σ_j w.row(s)[j] * x.row(j)` over the
/// unmasked `j` in ascending order, for every row `s` of `w`, with
/// `y.row(s)` held in registers across the whole run of keys. See
/// `numerics::axpy_block` for the contract; per element the operations
/// are [`axpy`]'s, key by key.
///
/// # Panics
///
/// Panics if `w.width() != x.rows()` or `w.rows()` rows of `x.width()`
/// elements at `y_stride >= x.width()` do not fit in `y`.
#[inline]
pub fn axpy_block(w: RowView<'_>, x: RowView<'_>, y: &mut [f32], y_stride: usize) {
    assert_eq!(w.width(), x.rows(), "weight count mismatch in axpy_block");
    assert!(y_stride >= x.width(), "overlapping rows in axpy_block");
    let _ = RowView::new(y, y_stride, w.rows(), x.width());
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { axpy_block_avx2(w, x, y, y_stride) }
}

#[target_feature(enable = "avx2")]
fn axpy_block_avx2(w: RowView<'_>, x: RowView<'_>, y: &mut [f32], y_stride: usize) {
    let (d, n) = (x.width(), w.rows());
    // Column panels of 8, 4, 2 and 1 registers, every accumulator row in
    // turn inside each: the order panels and rows are visited in does not
    // matter to any element, the key order inside a panel does.
    let mut col = 0usize;
    for regs in [8usize, 4, 2, 1] {
        while col + 8 * regs <= d {
            for s in 0..n {
                let panel = &mut y[s * y_stride + col..][..8 * regs];
                // SAFETY: `panel` is 8 * regs long, `w.row(s)` has one
                // weight per row of `x` (`axpy_block` checked), and columns
                // `col .. col + 8 * regs` are inside every row of `x`.
                unsafe {
                    match regs {
                        8 => axpy_panel::<8>(w.row(s), x, col, panel.as_mut_ptr()),
                        4 => axpy_panel::<4>(w.row(s), x, col, panel.as_mut_ptr()),
                        2 => axpy_panel::<2>(w.row(s), x, col, panel.as_mut_ptr()),
                        _ => axpy_panel::<1>(w.row(s), x, col, panel.as_mut_ptr()),
                    }
                }
            }
            col += 8 * regs;
        }
    }
    if col < d {
        for s in 0..n {
            let tail = &mut y[s * y_stride + col..][..d - col];
            for (j, &wj) in w.row(s).iter().enumerate() {
                if wj != f32::NEG_INFINITY {
                    for (yy, &xx) in tail.iter_mut().zip(&x.row(j)[col..]) {
                        *yy += wj * xx;
                    }
                }
            }
        }
    }
}

/// Columns `col .. col + 8 * N` of one accumulator row of the PV block.
///
/// # Safety
///
/// `y` must be valid for `8 * N` reads and writes, `w.len() == x.rows()`
/// and `col + 8 * N <= x.width()`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn axpy_panel<const N: usize>(w: &[f32], x: RowView<'_>, col: usize, y: *mut f32) {
    let mut acc = [_mm256_setzero_ps(); N];
    for (i, a) in acc.iter_mut().enumerate() {
        // SAFETY: y is valid for 8 * N reads.
        *a = unsafe { _mm256_loadu_ps(y.add(8 * i)) };
    }
    for (j, &wj) in w.iter().enumerate() {
        if wj == f32::NEG_INFINITY {
            continue;
        }
        let wv = _mm256_set1_ps(wj);
        // SAFETY: j < x.rows(), and the panel's columns are inside the row.
        let xj = unsafe { row_ptr(x, j).add(col) };
        for (i, a) in acc.iter_mut().enumerate() {
            // SAFETY: xj is valid for 8 * N reads.
            let xv = unsafe { _mm256_loadu_ps(xj.add(8 * i)) };
            // axpy: mul + add, not fmadd.
            *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
        }
    }
    for (i, a) in acc.iter().enumerate() {
        // SAFETY: y is valid for 8 * N writes; it cannot alias x (shared
        // vs exclusive borrow in `axpy_block`).
        unsafe { _mm256_storeu_ps(y.add(8 * i), *a) };
    }
}

/// `y[i] += a * x[i]`, bit-identical to the portable fallback.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { axpy_avx2(a, x, y) }
}

#[target_feature(enable = "avx2")]
fn axpy_avx2(a: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let av = _mm256_set1_ps(a);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the loads and store in bounds; x and y
        // are distinct slices so the store cannot alias the loads.
        unsafe {
            let xv = _mm256_loadu_ps(px.add(i));
            let yv = _mm256_loadu_ps(py.add(i));
            // mul + add, not fmadd: keeps rounding identical to portable.
            let r = _mm256_add_ps(yv, _mm256_mul_ps(av, xv));
            _mm256_storeu_ps(py.add(i), r);
        }
        i += 8;
    }
    while i < n {
        y[i] += a * x[i];
        i += 1;
    }
}

/// `y[i] *= s`, bit-identical to the portable fallback.
#[inline]
pub fn scale(y: &mut [f32], s: f32) {
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { scale_avx2(y, s) }
}

#[target_feature(enable = "avx2")]
fn scale_avx2(y: &mut [f32], s: f32) {
    let n = y.len();
    let sv = _mm256_set1_ps(s);
    let py = y.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the load and store in bounds.
        unsafe {
            let yv = _mm256_loadu_ps(py.add(i));
            _mm256_storeu_ps(py.add(i), _mm256_mul_ps(yv, sv));
        }
        i += 8;
    }
    while i < n {
        y[i] *= s;
        i += 1;
    }
}

/// `y[i] = s * y[i] + a * x[i]`, bit-identical to the portable fallback
/// (two multiplies and one add per element, in that order).
#[inline]
pub fn scale_add(s: f32, a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
    unsafe { scale_add_avx2(s, a, x, y) }
}

#[target_feature(enable = "avx2")]
fn scale_add_avx2(s: f32, a: f32, x: &[f32], y: &mut [f32]) {
    let n = x.len();
    let sv = _mm256_set1_ps(s);
    let av = _mm256_set1_ps(a);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the loads and store in bounds; x and y
        // are distinct slices so the store cannot alias the loads.
        unsafe {
            let xv = _mm256_loadu_ps(px.add(i));
            let yv = _mm256_loadu_ps(py.add(i));
            let r = _mm256_add_ps(_mm256_mul_ps(sv, yv), _mm256_mul_ps(av, xv));
            _mm256_storeu_ps(py.add(i), r);
        }
        i += 8;
    }
    while i < n {
        y[i] = s * y[i] + a * x[i];
        i += 1;
    }
}

/// `dst[i] = f32::from(src[i]) * scale` via F16C hardware conversion.
/// Falls back to the scalar loop when F16C is absent. Bit-identical to
/// the software [`F16::to_f32`] for every non-NaN input; NaNs widen to
/// NaN but the hardware may quiet the payload.
#[inline]
pub fn widen_f16(dst: &mut [f32], src: &[F16], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    if crate::simd::has_f16c() {
        // SAFETY: guarded by the runtime F16C check above.
        unsafe { widen_f16_f16c(dst, src, scale) }
    } else {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = s.to_f32() * scale;
        }
    }
}

#[target_feature(enable = "avx,f16c")]
fn widen_f16_f16c(dst: &mut [f32], src: &[F16], scale: f32) {
    let n = dst.len();
    let sv = _mm256_set1_ps(scale);
    // F16 is repr(transparent) over u16, so the element pointer reads as
    // raw half-precision bit patterns.
    let ps = src.as_ptr() as *const u16;
    let pd = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the 8-lane u16 load and f32 store in
        // bounds; the pointer cast is sound because F16 is
        // repr(transparent) over u16.
        unsafe {
            let h = _mm_loadu_si128(ps.add(i) as *const __m128i);
            let w = _mm256_cvtph_ps(h);
            _mm256_storeu_ps(pd.add(i), _mm256_mul_ps(w, sv));
        }
        i += 8;
    }
    while i < n {
        dst[i] = src[i].to_f32() * scale;
        i += 1;
    }
}

/// `dst[i] = f32::from(src[i]) * scale` via in-register bit-field
/// expansion (no table gather — `vgatherdps` costs ~10 cycles per 8
/// lanes on most cores, an order of magnitude more than the shifts and
/// blends below). With F16C, 16 lanes at a time: `mag << 7` reinterprets
/// an e4m3 as an f16 whose magnitude is exactly 2^-8 of the true value —
/// for normals ((exp-15) vs (exp-7)) and subnormals (man·2^-17 vs
/// man·2^-9, both exactly representable) alike — so a hardware
/// `vcvtph2ps` and one multiply by the exact constant `256·scale`
/// recover `f32::from(src[i]) * scale` with the same single rounding as
/// the scalar path. Only `S.1111.111` (NaN; e4m3 has no infinities)
/// needs patching before the convert. Without F16C, an 8-lane f32-domain
/// expansion does the same thing with 32-bit shifts and blends.
#[inline]
pub fn widen_e4m3(dst: &mut [f32], src: &[F8E4M3], scale: f32) {
    debug_assert_eq!(dst.len(), src.len());
    if crate::simd::has_f16c() {
        // SAFETY: dispatch guarantees AVX2; F16C is checked just above.
        unsafe { widen_e4m3_avx2_f16c(dst, src, scale) }
    } else {
        // SAFETY: dispatch only routes here after runtime AVX2+FMA detection.
        unsafe { widen_e4m3_avx2(dst, src, scale) }
    }
}

#[target_feature(enable = "avx2,f16c")]
fn widen_e4m3_avx2_f16c(dst: &mut [f32], src: &[F8E4M3], scale: f32) {
    let n = dst.len();
    let lut = e4m3_to_f32_lut();
    // 256·scale is exact (power-of-two multiply), so the one rounding
    // below matches the scalar `lut[x] * scale`.
    let sv = _mm256_set1_ps(256.0 * scale);
    let sign_mask = _mm256_set1_epi16(0x80);
    let mag_mask = _mm256_set1_epi16(0x7F);
    let qnan16 = _mm256_set1_epi16(0x7E00);
    // F8E4M3 is repr(transparent) over u8.
    let ps = src.as_ptr() as *const u8;
    let pd = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n keeps the 16-byte load and both 8-lane f32
        // stores in bounds; everything in between is register arithmetic.
        unsafe {
            let bytes = _mm_loadu_si128(ps.add(i) as *const __m128i);
            let v = _mm256_cvtepu8_epi16(bytes);
            let mag = _mm256_and_si256(v, mag_mask);
            // mag << 7 is the true magnitude : 256 read as f16 bits.
            let h = _mm256_slli_epi16::<7>(mag);
            let is_nan = _mm256_cmpeq_epi16(mag, mag_mask);
            let h = _mm256_blendv_epi8(h, qnan16, is_nan);
            let h = _mm256_or_si256(h, _mm256_slli_epi16::<8>(_mm256_and_si256(v, sign_mask)));
            let lo = _mm256_castsi256_si128(h);
            let hi = _mm256_extracti128_si256::<1>(h);
            _mm256_storeu_ps(pd.add(i), _mm256_mul_ps(_mm256_cvtph_ps(lo), sv));
            _mm256_storeu_ps(pd.add(i + 8), _mm256_mul_ps(_mm256_cvtph_ps(hi), sv));
        }
        i += 16;
    }
    while i < n {
        dst[i] = lut[src[i].0 as usize] * scale;
        i += 1;
    }
}

#[target_feature(enable = "avx2")]
fn widen_e4m3_avx2(dst: &mut [f32], src: &[F8E4M3], scale: f32) {
    let n = dst.len();
    let lut = e4m3_to_f32_lut();
    let sv = _mm256_set1_ps(scale);
    let mag_mask = _mm256_set1_epi32(0x7F);
    let rebias = _mm256_set1_epi32(120 << 23);
    let seven = _mm256_set1_epi32(7);
    let qnan = _mm256_set1_epi32(0x7FC0_0000);
    let two_pow_m9 = _mm256_set1_ps(1.0 / 512.0);
    // F8E4M3 is repr(transparent) over u8.
    let ps = src.as_ptr() as *const u8;
    let pd = dst.as_mut_ptr();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the 8-byte load and f32 store in
        // bounds; everything in between is register arithmetic.
        unsafe {
            let bytes = _mm_loadl_epi64(ps.add(i) as *const __m128i);
            let v = _mm256_cvtepu8_epi32(bytes);
            // v & 0x80, shifted up to the f32 sign bit.
            let sign = _mm256_slli_epi32::<24>(_mm256_andnot_si256(mag_mask, v));
            let mag = _mm256_and_si256(v, mag_mask);
            // Normal (mag >= 8): exponent and mantissa land in the f32
            // fields after a 20-bit shift; adding 120<<23 rebias-es the
            // exponent from 7 to 127 without carrying into the sign.
            let norm = _mm256_add_epi32(_mm256_slli_epi32::<20>(mag), rebias);
            // Subnormal or zero (mag < 8): value is man * 2^-9, exact.
            let sub = _mm256_castps_si256(_mm256_mul_ps(_mm256_cvtepi32_ps(mag), two_pow_m9));
            let is_norm = _mm256_cmpgt_epi32(mag, seven);
            let mut bits = _mm256_blendv_epi8(sub, norm, is_norm);
            // mag == 0x7F is the sole NaN encoding in e4m3 (no infinities).
            let is_nan = _mm256_cmpeq_epi32(mag, mag_mask);
            bits = _mm256_blendv_epi8(bits, qnan, is_nan);
            let w = _mm256_castsi256_ps(_mm256_or_si256(bits, sign));
            _mm256_storeu_ps(pd.add(i), _mm256_mul_ps(w, sv));
        }
        i += 8;
    }
    while i < n {
        dst[i] = lut[src[i].0 as usize] * scale;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::portable;

    fn avx2_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    #[test]
    fn elementwise_bit_identical_to_portable_all_tail_lengths() {
        if !avx2_available() {
            return;
        }
        for n in 0..40 {
            let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            let base: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos() * 2.0).collect();

            let mut y0 = base.clone();
            let mut y1 = base.clone();
            axpy(1.7, &x, &mut y0);
            portable::axpy(1.7, &x, &mut y1);
            assert_eq!(bits(&y0), bits(&y1), "axpy n={n}");

            let mut y0 = base.clone();
            let mut y1 = base.clone();
            scale(&mut y0, 0.731);
            portable::scale(&mut y1, 0.731);
            assert_eq!(bits(&y0), bits(&y1), "scale n={n}");

            let mut y0 = base.clone();
            let mut y1 = base.clone();
            scale_add(0.41, 2.3, &x, &mut y0);
            portable::scale_add(0.41, 2.3, &x, &mut y1);
            assert_eq!(bits(&y0), bits(&y1), "scale_add n={n}");
        }
    }

    #[test]
    fn dot_close_to_portable() {
        if !avx2_available() {
            return;
        }
        for n in [0, 1, 7, 8, 15, 16, 17, 63, 64, 257] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();
            let fast = dot(&a, &b);
            let slow = portable::dot(&a, &b);
            assert!(
                (fast - slow).abs() <= 1e-5 * (1.0 + slow.abs()),
                "n={n}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn widen_f16_matches_software_for_all_65536_patterns() {
        if !std::arch::is_x86_feature_detected!("f16c") {
            return;
        }
        let src: Vec<F16> = (0..=u16::MAX).map(F16).collect();
        let mut dst = vec![0.0f32; src.len()];
        widen_f16(&mut dst, &src, 1.0);
        for (i, (&got, s)) in dst.iter().zip(&src).enumerate() {
            let want = s.to_f32();
            if want.is_nan() {
                assert!(got.is_nan(), "pattern {i:#06x}: NaN widened to {got}");
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "pattern {i:#06x}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn widen_e4m3_matches_software_for_all_256_patterns_and_scales() {
        if !avx2_available() {
            return;
        }
        for scale_v in [1.0f32, 0.125, 3.5] {
            let src: Vec<F8E4M3> = (0..=u8::MAX).map(F8E4M3).collect();
            let mut dst = vec![0.0f32; src.len()];
            widen_e4m3(&mut dst, &src, scale_v);
            for (i, (&got, s)) in dst.iter().zip(&src).enumerate() {
                let want = s.to_f32() * scale_v;
                if want.is_nan() {
                    assert!(got.is_nan(), "pattern {i:#04x}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "pattern {i:#04x}");
                }
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
