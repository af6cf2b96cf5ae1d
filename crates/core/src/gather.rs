//! Sparse-to-contiguous KV staging (§3.2.1, Figure 4).
//!
//! Tensor cores need contiguous operands, but block-sparse KV rows are
//! scattered through the pool. FlashInfer first copies the tile's rows from
//! global memory into contiguous shared memory (LDGSTS, 128B lanes), after
//! which the sparse and dense kernels are identical. [`Stager`] is that
//! staging step: it widens storage-precision rows into a reused f32 buffer
//! (the "shared memory" tile) and accounts the bytes moved, which feeds the
//! GPU cost model and the Appendix B overhead experiment.
//!
//! The kernel stages only what needs it. Rows of an f32 pool that no
//! dequant scale or key/value transform has to rewrite are read where
//! they lie (the paper's dense path skips the gather), and accounted
//! through the same run detection and [`GatherStats`] bookkeeping.

use fi_tensor::{Scalar, Tensor};

/// Byte-level accounting of staged copies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct GatherStats {
    /// Bytes read from "global memory" (the pool, at storage precision).
    pub global_bytes: usize,
    /// Rows staged.
    pub rows: usize,
    /// Staged copies that were contiguous in the source (dense fast path,
    /// TMA-eligible on Hopper).
    pub contiguous_runs: usize,
    /// Total scattered runs (each needs its own address computation).
    pub scattered_runs: usize,
}

impl GatherStats {
    /// Accumulate another accounting block into this one (used when folding
    /// per-chunk kernel stats across schedule items and worker threads).
    pub fn absorb(&mut self, other: &GatherStats) {
        self.global_bytes += other.global_bytes;
        self.rows += other.rows;
        self.contiguous_runs += other.contiguous_runs;
        self.scattered_runs += other.scattered_runs;
    }

    /// Account one run of `rows` consecutive pool rows, `row_bytes` read
    /// per row (K and V together). A run of one is a scattered read, a
    /// longer one a dense copy (Figure 4 right vs left) — whether the
    /// rows are then copied into a staged tile or read where they lie.
    pub(crate) fn record_run(&mut self, rows: usize, row_bytes: usize) {
        self.rows += rows;
        self.global_bytes += rows * row_bytes;
        if rows > 1 {
            self.contiguous_runs += 1;
        } else {
            self.scattered_runs += 1;
        }
    }
}

/// The maximal runs of consecutive slots in a gather list, as index
/// ranges into `slots`.
pub(crate) fn slot_runs(slots: &[usize]) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut next = 0usize;
    std::iter::from_fn(move || {
        let start = next;
        if start == slots.len() {
            return None;
        }
        next += 1;
        while next < slots.len() && slots[next] == slots[next - 1] + 1 {
            next += 1;
        }
        Some(start..next)
    })
}

/// Per-KV-head dequantization scales applied *during* staging: element
/// `j` of a pool row belongs to head `j / head_dim` and is widened as
/// `f32::from(elem) * k[head]` (resp. `v[head]`). Widening then
/// multiplying is exactly what a post-stage per-head rescale pass would
/// compute, so fusing the scale into the widen kernel changes no bits —
/// it just avoids a second pass over the tile.
#[derive(Debug, Clone, Copy)]
pub struct DequantScales<'a> {
    /// One scale per KV head for the K pool.
    pub k: &'a [f32],
    /// One scale per KV head for the V pool.
    pub v: &'a [f32],
    /// Elements per head within a pool row.
    pub head_dim: usize,
}

/// Widen a run of storage-precision elements into f32 through the
/// runtime-dispatched conversion kernels. For `T = f32` this compiles to
/// a plain memcpy, so a contiguous slot run staged through it is one
/// bulk copy (the software analog of a TMA transfer).
#[inline]
fn widen_into<T: Scalar>(dst: &mut [f32], src: &[T]) {
    T::widen_scaled_into(dst, src, 1.0);
}

/// Widen `rows` full-width rows, applying the per-head scale to each
/// `head_dim`-wide slice (the fp8 dequantize-on-stage path). When every
/// head shares one scale (per-tensor quantization, the common case) the
/// whole run widens in a single bulk call — same bits, since each
/// element sees the same `to_f32() * scale` either way, but without the
/// per-head chunking overhead on the hot path.
#[inline]
fn widen_rows_scaled<T: Scalar>(
    dst: &mut [f32],
    src: &[T],
    width: usize,
    scales: &[f32],
    head_dim: usize,
) {
    if let Some((&first, rest)) = scales.split_first() {
        if rest.iter().all(|&s| s == first) {
            T::widen_scaled_into(dst, src, first);
            return;
        }
    }
    for (drow, srow) in dst.chunks_exact_mut(width).zip(src.chunks_exact(width)) {
        for (h, &s) in scales.iter().enumerate() {
            let cols = h * head_dim..(h + 1) * head_dim;
            T::widen_scaled_into(&mut drow[cols.clone()], &srow[cols], s);
        }
    }
}

/// A reusable staging buffer: the software analog of a shared-memory KV
/// tile.
#[derive(Debug, Default)]
pub struct Stager {
    buf_k: Vec<f32>,
    buf_v: Vec<f32>,
    stats: GatherStats,
}

impl Stager {
    /// Create an empty stager.
    pub fn new() -> Stager {
        Stager::default()
    }

    /// Stage the K and V rows at `slots` (head-sliced: `head * d .. (head+1) * d`
    /// within each pool row) into contiguous f32 buffers. Returns `(k, v)`
    /// tiles of shape `[slots.len(), d]` flattened.
    ///
    /// Contiguity of the slot list is detected and recorded: a run of
    /// consecutive slots models a dense (affine) copy, anything else a
    /// scattered gather (Figure 4 left vs right).
    ///
    /// # Panics
    ///
    /// Panics if a slot or the head slice is out of range for the pools.
    pub fn stage<'a, T: Scalar>(
        &'a mut self,
        k_pool: &Tensor<T>,
        v_pool: &Tensor<T>,
        slots: &[usize],
        head: usize,
        d: usize,
    ) -> (&'a [f32], &'a [f32]) {
        let n = slots.len();
        self.buf_k.clear();
        self.buf_v.clear();
        self.buf_k.reserve(n * d);
        self.buf_v.reserve(n * d);
        for &s in slots {
            let kr = &k_pool.row(s)[head * d..(head + 1) * d];
            let vr = &v_pool.row(s)[head * d..(head + 1) * d];
            self.buf_k.extend(kr.iter().map(|&x| x.to_f32()));
            self.buf_v.extend(vr.iter().map(|&x| x.to_f32()));
        }
        for run in slot_runs(slots) {
            self.stats
                .record_run(run.len(), 2 * d * T::DTYPE.size_bytes());
        }
        (&self.buf_k, &self.buf_v)
    }

    /// Stage full-width K and V rows at `slots` into caller-provided scratch
    /// buffers — the stage-once-per-chunk hot path. One staged tile of width
    /// `num_kv_heads * d` serves every query head of every group, so bytes,
    /// rows, and runs are accounted once per chunk rather than once per
    /// kv head (the old per-head staging overstated global reads by the
    /// head-count factor).
    ///
    /// The buffers are overwritten (clear + resize), not appended; their
    /// capacity grows monotonically, so repeated calls at steady state
    /// allocate nothing. Contiguous slot runs are detected and copied whole
    /// — one widening memcpy per run over the pool's flat storage — while
    /// scattered slots degrade to single-row copies (Figure 4 left vs
    /// right).
    ///
    /// With `dequant` set, each staged element is additionally multiplied
    /// by its KV head's scale during the widen — the fp8
    /// dequantize-on-stage path of Appendix F. `None` keeps the unscaled
    /// bulk-copy fast path.
    ///
    /// # Panics
    ///
    /// Panics if a slot is out of range, `width` is not the pools' row
    /// width, or `dequant` scales don't tile the row width exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn stage_rows_into<T: Scalar>(
        &mut self,
        k_pool: &Tensor<T>,
        v_pool: &Tensor<T>,
        slots: &[usize],
        width: usize,
        k_out: &mut Vec<f32>,
        v_out: &mut Vec<f32>,
        dequant: Option<DequantScales<'_>>,
    ) {
        assert_eq!(k_pool.row_len(), width, "k pool width mismatch");
        assert_eq!(v_pool.row_len(), width, "v pool width mismatch");
        if let Some(dq) = &dequant {
            assert_eq!(dq.k.len() * dq.head_dim, width, "k dequant scale shape");
            assert_eq!(dq.v.len() * dq.head_dim, width, "v dequant scale shape");
        }
        let n = slots.len();
        k_out.clear();
        v_out.clear();
        k_out.resize(n * width, 0.0);
        v_out.resize(n * width, 0.0);
        let ks = k_pool.as_slice();
        let vs = v_pool.as_slice();
        for run in slot_runs(slots) {
            let src = slots[run.start] * width..(slots[run.start] + run.len()) * width;
            let dst = run.start * width..run.end * width;
            match &dequant {
                None => {
                    widen_into(&mut k_out[dst.clone()], &ks[src.clone()]);
                    widen_into(&mut v_out[dst], &vs[src]);
                }
                Some(dq) => {
                    widen_rows_scaled(
                        &mut k_out[dst.clone()],
                        &ks[src.clone()],
                        width,
                        dq.k,
                        dq.head_dim,
                    );
                    widen_rows_scaled(&mut v_out[dst], &vs[src], width, dq.v, dq.head_dim);
                }
            }
            self.stats
                .record_run(run.len(), 2 * width * T::DTYPE.size_bytes());
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> GatherStats {
        self.stats
    }

    /// Reset statistics (buffers are reused regardless).
    pub fn reset_stats(&mut self) {
        self.stats = GatherStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_tensor::F16;

    fn pools() -> (Tensor<f32>, Tensor<f32>) {
        let k = Tensor::from_fn(vec![8, 4], |i| i as f32);
        let v = Tensor::from_fn(vec![8, 4], |i| -(i as f32));
        (k, v)
    }

    #[test]
    fn stages_rows_in_gather_order() {
        let (k, v) = pools();
        let mut s = Stager::new();
        let (tk, tv) = s.stage(&k, &v, &[3, 1], 0, 4);
        assert_eq!(tk, &[12.0, 13.0, 14.0, 15.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(tv[0], -12.0);
    }

    #[test]
    fn head_slicing() {
        let (k, v) = pools();
        let mut s = Stager::new();
        // 2 heads of d=2: head 1 takes columns 2..4.
        let (tk, _) = s.stage(&k, &v, &[0, 1], 1, 2);
        assert_eq!(tk, &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn byte_accounting_tracks_dtype() {
        let (k32, v32) = pools();
        let k16 = k32.cast::<F16>();
        let v16 = v32.cast::<F16>();
        let mut s = Stager::new();
        s.stage(&k32, &v32, &[0, 1], 0, 4);
        assert_eq!(s.stats().global_bytes, 2 * 2 * 4 * 4);
        s.reset_stats();
        s.stage(&k16, &v16, &[0, 1], 0, 4);
        assert_eq!(s.stats().global_bytes, 2 * 2 * 4 * 2);
    }

    #[test]
    fn run_detection() {
        let (k, v) = pools();
        let mut s = Stager::new();
        // [0,1,2] contiguous; [5] scattered; [7] scattered.
        s.stage(&k, &v, &[0, 1, 2, 5, 7], 0, 4);
        assert_eq!(s.stats().contiguous_runs, 1);
        assert_eq!(s.stats().scattered_runs, 2);
        assert_eq!(s.stats().rows, 5);
    }

    #[test]
    fn empty_gather() {
        let (k, v) = pools();
        let mut s = Stager::new();
        let (tk, tv) = s.stage(&k, &v, &[], 0, 4);
        assert!(tk.is_empty() && tv.is_empty());
        assert_eq!(s.stats().rows, 0);
    }

    #[test]
    fn stage_rows_into_writes_full_width_rows() {
        let (k, v) = pools();
        let mut s = Stager::new();
        let (mut bk, mut bv) = (Vec::new(), Vec::new());
        s.stage_rows_into(&k, &v, &[3, 1], 4, &mut bk, &mut bv, None);
        assert_eq!(bk, vec![12.0, 13.0, 14.0, 15.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(bv[0], -12.0);
        assert_eq!(s.stats().rows, 2);
        // Full-width rows counted once: 2 tensors * 2 rows * 4 cols * 4 B.
        assert_eq!(s.stats().global_bytes, 2 * 2 * 4 * 4);
        // Buffers are overwritten on reuse, never appended.
        s.stage_rows_into(&k, &v, &[0], 4, &mut bk, &mut bv, None);
        assert_eq!(bk, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(bv.len(), 4);
    }

    #[test]
    fn adjacent_pages_stage_as_one_contiguous_run() {
        // A paged layout whose pages are physically adjacent in the pool:
        // pages [1, 2] of size 2 yield slots [2,3,4,5] — one memcpy-able
        // run, not four scattered row copies.
        let (k, v) = pools();
        let mut s = Stager::new();
        let (mut bk, mut bv) = (Vec::new(), Vec::new());
        s.stage_rows_into(&k, &v, &[2, 3, 4, 5], 4, &mut bk, &mut bv, None);
        assert_eq!(s.stats().contiguous_runs, 1);
        assert_eq!(s.stats().scattered_runs, 0);
        assert_eq!(bk, (8..24).map(|i| i as f32).collect::<Vec<_>>());
        assert_eq!(bv, (8..24).map(|i| -(i as f32)).collect::<Vec<_>>());
    }

    #[test]
    fn stage_rows_into_accounts_storage_dtype() {
        let (k32, v32) = pools();
        let k16 = k32.cast::<F16>();
        let v16 = v32.cast::<F16>();
        let mut s = Stager::new();
        let (mut bk, mut bv) = (Vec::new(), Vec::new());
        s.stage_rows_into(&k16, &v16, &[0, 1], 4, &mut bk, &mut bv, None);
        assert_eq!(s.stats().global_bytes, 2 * 2 * 4 * 2);
        assert_eq!(bk[5], 5.0, "f16 rows widen exactly for small ints");
    }

    #[test]
    fn dequant_staging_matches_widen_then_rescale_bitwise() {
        use fi_tensor::F8E4M3;
        // 2 KV heads of d=2 per row; per-head scales applied on stage.
        let k8 = Tensor::<F8E4M3>::from_fn(vec![6, 4], |i| F8E4M3::from_f32(0.11 * i as f32));
        let v8 = Tensor::<F8E4M3>::from_fn(vec![6, 4], |i| F8E4M3::from_f32(-0.07 * i as f32));
        let k_scales = [1.5f32, 0.5];
        let v_scales = [2.0f32, 0.25];
        let dq = DequantScales {
            k: &k_scales,
            v: &v_scales,
            head_dim: 2,
        };
        let mut s = Stager::new();
        let (mut bk, mut bv) = (Vec::new(), Vec::new());
        s.stage_rows_into(&k8, &v8, &[4, 1, 2], 4, &mut bk, &mut bv, Some(dq));
        // Reference: widen first, then rescale per head — must be the
        // same bits as the fused widen-with-scale.
        let (mut rk, mut rv) = (Vec::new(), Vec::new());
        let mut s2 = Stager::new();
        s2.stage_rows_into(&k8, &v8, &[4, 1, 2], 4, &mut rk, &mut rv, None);
        for row in 0..3 {
            for col in 0..4 {
                let h = col / 2;
                rk[row * 4 + col] *= k_scales[h];
                rv[row * 4 + col] *= v_scales[h];
            }
        }
        assert_eq!(bk, rk);
        assert_eq!(bv, rv);
        // Byte accounting still reflects fp8 storage width.
        assert_eq!(s.stats().global_bytes, 2 * 3 * 4);
    }

    #[test]
    fn gather_stats_absorb_sums_fields() {
        let mut a = GatherStats {
            global_bytes: 10,
            rows: 2,
            contiguous_runs: 1,
            scattered_runs: 0,
        };
        let b = GatherStats {
            global_bytes: 5,
            rows: 1,
            contiguous_runs: 0,
            scattered_runs: 1,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            GatherStats {
                global_bytes: 15,
                rows: 3,
                contiguous_runs: 1,
                scattered_runs: 1,
            }
        );
    }
}
