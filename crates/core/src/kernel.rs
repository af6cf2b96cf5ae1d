//! The FA2-style tiled attention kernel over dense or block-sparse KV
//! (§3.2).
//!
//! One kernel skeleton serves every configuration, exactly as in the paper:
//!
//! * the **layout** (a `fi_sparse::BlockSparseMatrix`) decides which KV
//!   slots each query tile touches — contiguous KV, paged KV, composable
//!   parts and tree masks all arrive through the same structure;
//! * the **variant** hooks specialize the math at the defined points
//!   (§3.2.3);
//! * the **tile configuration** fixes the chunking of the KV axis
//!   (§3.2.2) — numerics are tile-size independent (online softmax), only
//!   the cost accounting changes;
//! * execution either produces final outputs
//!   ([`FlashKernel::run_with_scratch`]) or mergeable partial attention
//!   states ([`crate::state`]), flat in the scratch, for one KV chunk of
//!   one tile ([`FlashKernel::run_block_row_chunk_scratch`]) — the
//!   scheduler's split-KV unit of work (§3.3.1). Either way a state
//!   becomes an output row in [`finalize_tile`] and nowhere else.
//!
//! The inner loop is the FlashAttention-2 online-softmax update: running
//! max `m`, running denominator `l`, and unnormalized accumulator, all in
//! f32 regardless of storage precision (Appendix F).
//!
//! The hot path is allocation-free: all intermediate buffers live in a
//! caller-owned [`KernelScratch`]
//! ([`FlashKernel::run_block_row_chunk_scratch`] /
//! [`FlashKernel::run_with_scratch`]). Per (KV chunk, KV head) the work is
//! three passes over a logits tile — a QKᵀ block for every query row and
//! group head that shares the KV head (Appendix A fusion: a key row is
//! loaded once for the whole group), one mask/transform/max/exp pass per
//! row, and a PV block with the accumulator held in registers — on the
//! block microkernels in `fi_tensor::numerics`
//! (`dot_block`/`row_max`/`axpy_block`). Their operands are `(slice, row
//! stride)` views: straight into the pool when its rows can be used as
//! they lie (§3.2.1's dense path), else into a tile staged once per chunk
//! at full kv width.

use std::borrow::Cow;

use fi_sparse::BlockSparseMatrix;
use fi_tensor::numerics::{self, RowView};
use fi_tensor::{RaggedTensor, Scalar, Tensor};

use crate::config::HeadConfig;
use crate::error::AttentionError;
use crate::gather::{slot_runs, DequantScales, GatherStats, Stager};
use crate::scratch::KernelScratch;
use crate::tiles::TileConfig;
use crate::variant::{AttentionVariant, KeyCtx, LogitCtx, QueryCtx, VariantParams};

/// Per-query-row metadata the variant contexts need: which request the row
/// belongs to and the request's logical lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RowMeta {
    /// Request index in the batch.
    pub batch_idx: usize,
    /// The row's query position within its request (`0..qo_len`).
    pub qo_pos: usize,
    /// Request query length.
    pub qo_len: usize,
    /// Request **full** KV length (across all composable parts).
    pub kv_len: usize,
}

/// A fully-specified attention computation: tensors + layout + head config.
///
/// `kv_pos_offsets[i]` is the timeline position (within the owning
/// request's KV sequence) of block row `i`'s first gathered slot — 0 for
/// single-format layouts, the shared-prefix length for the suffix part of a
/// composable format.
#[derive(Debug)]
pub struct AttentionProblem<'a, TQ, TKV> {
    q: &'a RaggedTensor<TQ>,
    k: &'a Tensor<TKV>,
    v: &'a Tensor<TKV>,
    layout: &'a BlockSparseMatrix,
    heads: HeadConfig,
    row_meta: Vec<RowMeta>,
    kv_pos_offsets: Vec<usize>,
    /// Per-KV-head `(k_scales, v_scales)` applied during staging — the
    /// dequantize-on-stage path of the quantized KV modes (Appendix F).
    kv_dequant: Option<(Scales<'a>, Scales<'a>)>,
}

/// Per-KV-head scales, owned by the problem or borrowed for its lifetime.
type Scales<'a> = Cow<'a, [f32]>;

impl<'a, TQ: Scalar, TKV: Scalar> AttentionProblem<'a, TQ, TKV> {
    /// Assemble and validate a problem.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidProblem`] when shapes disagree:
    /// `layout.rows() != q.total_rows()`, pool row count != `layout.cols()`,
    /// widths not matching the head config, or metadata lengths wrong.
    pub fn new(
        q: &'a RaggedTensor<TQ>,
        k: &'a Tensor<TKV>,
        v: &'a Tensor<TKV>,
        layout: &'a BlockSparseMatrix,
        heads: HeadConfig,
        row_meta: Vec<RowMeta>,
        kv_pos_offsets: Vec<usize>,
    ) -> Result<Self, AttentionError> {
        if layout.rows() != q.total_rows() {
            return Err(AttentionError::InvalidProblem(format!(
                "layout rows {} != query rows {}",
                layout.rows(),
                q.total_rows()
            )));
        }
        if q.dim() != heads.qo_width() {
            return Err(AttentionError::InvalidProblem(format!(
                "query width {} != H_qo*D {}",
                q.dim(),
                heads.qo_width()
            )));
        }
        for (name, t) in [("k", k), ("v", v)] {
            if t.shape().len() != 2
                || t.shape()[0] != layout.cols()
                || t.shape()[1] != heads.kv_width()
            {
                return Err(AttentionError::InvalidProblem(format!(
                    "{name} pool shape {:?} != [{}, {}]",
                    t.shape(),
                    layout.cols(),
                    heads.kv_width()
                )));
            }
        }
        if row_meta.len() != layout.rows() {
            return Err(AttentionError::InvalidProblem(format!(
                "row_meta length {} != rows {}",
                row_meta.len(),
                layout.rows()
            )));
        }
        if kv_pos_offsets.len() != layout.n_block_rows() {
            return Err(AttentionError::InvalidProblem(format!(
                "kv_pos_offsets length {} != block rows {}",
                kv_pos_offsets.len(),
                layout.n_block_rows()
            )));
        }
        Ok(AttentionProblem {
            q,
            k,
            v,
            layout,
            heads,
            row_meta,
            kv_pos_offsets,
            kv_dequant: None,
        })
    }

    /// Attach per-KV-head dequantization scales, applied to K and V rows
    /// *while they are staged* (fused into the widen kernel, so no extra
    /// pass over the tile). Staging element `e` of head `h` yields
    /// `f32::from(e) * scales[h]` — arithmetically identical to widening
    /// first and rescaling after, which is what the `DequantScale`
    /// variant wrapper in `fi_core::quant` computes.
    ///
    /// The scales may be owned (`Vec<f32>`) or borrowed for the problem's
    /// lifetime (`&[f32]`, what a worker launching many problems over one
    /// arena passes).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidProblem`] when either scale
    /// vector's length differs from the head config's KV head count.
    pub fn with_kv_dequant(
        mut self,
        k_scales: impl Into<Scales<'a>>,
        v_scales: impl Into<Scales<'a>>,
    ) -> Result<Self, AttentionError> {
        let (k_scales, v_scales) = (k_scales.into(), v_scales.into());
        for (name, s) in [("k", &k_scales), ("v", &v_scales)] {
            if s.len() != self.heads.num_kv_heads {
                return Err(AttentionError::InvalidProblem(format!(
                    "{name} dequant scales length {} != num_kv_heads {}",
                    s.len(),
                    self.heads.num_kv_heads
                )));
            }
        }
        self.kv_dequant = Some((k_scales, v_scales));
        Ok(self)
    }

    /// Convenience constructor for the common single-format batch: request
    /// `i` owns the rows `q.indptr()[i]..q.indptr()[i+1]` and every block
    /// row of request `i` sees its full KV from position 0. `kv_lens[i]` is
    /// request `i`'s KV length (must equal each of its block rows' gather
    /// length).
    ///
    /// # Errors
    ///
    /// As [`AttentionProblem::new`], plus a length check on `kv_lens`.
    pub fn standard_batch(
        q: &'a RaggedTensor<TQ>,
        k: &'a Tensor<TKV>,
        v: &'a Tensor<TKV>,
        layout: &'a BlockSparseMatrix,
        heads: HeadConfig,
        kv_lens: &[usize],
    ) -> Result<Self, AttentionError> {
        if kv_lens.len() != q.batch_size() {
            return Err(AttentionError::InvalidProblem(format!(
                "kv_lens length {} != batch size {}",
                kv_lens.len(),
                q.batch_size()
            )));
        }
        let mut row_meta = Vec::with_capacity(q.total_rows());
        #[allow(clippy::needless_range_loop)]
        for b in 0..q.batch_size() {
            let qo_len = q.seq_len(b);
            for qo_pos in 0..qo_len {
                row_meta.push(RowMeta {
                    batch_idx: b,
                    qo_pos,
                    qo_len,
                    kv_len: kv_lens[b],
                });
            }
        }
        let kv_pos_offsets = vec![0; layout.n_block_rows()];
        AttentionProblem::new(q, k, v, layout, heads, row_meta, kv_pos_offsets)
    }

    /// Build the layout for a *ragged* (contiguous per-request) KV cache —
    /// the `BatchPrefillWithRaggedKVCacheWrapper` convention (Appendix B):
    /// request `i`'s KV occupies rows `kv_indptr[i]..kv_indptr[i+1]` of the
    /// pool. Returns the dense-run layout to pass to
    /// [`AttentionProblem::standard_batch`] (one block row per query tile
    /// of height `tq`, each covering the request's whole contiguous span).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidProblem`] on malformed indptr or
    /// `tq == 0`.
    pub fn ragged_kv_layout(
        qo_lens: &[usize],
        kv_indptr: &[usize],
        tq: usize,
    ) -> Result<BlockSparseMatrix, AttentionError> {
        if tq == 0 {
            return Err(AttentionError::InvalidProblem("tq must be positive".into()));
        }
        if kv_indptr.len() != qo_lens.len() + 1 {
            return Err(AttentionError::InvalidProblem(format!(
                "kv_indptr length {} != batch + 1 = {}",
                kv_indptr.len(),
                qo_lens.len() + 1
            )));
        }
        fi_tensor::ragged::validate_indptr(kv_indptr).map_err(AttentionError::Tensor)?;
        let cols = *kv_indptr.last().expect("validated non-empty");
        let rows: usize = qo_lens.iter().sum();
        let mut block_rows = Vec::new();
        let mut row = 0usize;
        for (i, &lq) in qo_lens.iter().enumerate() {
            let (s, e) = (kv_indptr[i], kv_indptr[i + 1]);
            if lq == 0 {
                continue;
            }
            if s == e {
                return Err(AttentionError::InvalidProblem(format!(
                    "request {i} has {lq} queries but no KV"
                )));
            }
            // One contiguous run per tile: a single full-width block with
            // bc = the request's span would violate uniform bc, so use a
            // maximal uniform bc and a partial tail.
            let mut r = 0usize;
            while r < lq {
                let re = (r + tq).min(lq);
                block_rows.push((row + r, row + re, ragged_span_entries(s, e, cols)));
                r = re;
            }
            row += lq;
        }
        // bc = 1 keeps spans exact; gather detects contiguity for TMA-style
        // fast paths (see fi-core::gather run accounting).
        BlockSparseMatrix::new(rows, cols.max(1), 1, block_rows).map_err(AttentionError::Sparse)
    }

    /// The head configuration.
    pub fn heads(&self) -> HeadConfig {
        self.heads
    }

    /// The block-sparse layout.
    pub fn layout(&self) -> &BlockSparseMatrix {
        self.layout
    }

    /// Per-row metadata.
    pub fn row_meta(&self) -> &[RowMeta] {
        &self.row_meta
    }

    /// The query batch.
    pub fn queries(&self) -> &RaggedTensor<TQ> {
        self.q
    }
}

/// Entries covering the contiguous slot span `[s, e)` at `bc = 1`.
pub(crate) fn ragged_span_entries(
    s: usize,
    e: usize,
    _cols: usize,
) -> Vec<fi_sparse::bsr::BlockEntry> {
    (s..e)
        .map(|c| fi_sparse::bsr::BlockEntry {
            col_block: c,
            len: 1,
        })
        .collect()
}

/// Execution statistics, the kernel-side inputs to the GPU cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KernelStats {
    /// Multiply-add FLOPs executed (QK^T and PV GEMMs).
    pub flops: u64,
    /// Bytes moved from "global memory": KV rows read plus Q reads and O
    /// writes. Reflects head-group fusion (unfused multiplies KV traffic by
    /// the group size — Appendix A).
    pub global_bytes: u64,
    /// KV chunks consumed (staged tiles or in-place reads).
    pub kv_tiles: u64,
    /// Tiles executed on the tensor-core path (`Tq >= 16`).
    pub tensor_core_tiles: u64,
    /// Tiles executed on the CUDA-core path (`Tq == 1`).
    pub cuda_core_tiles: u64,
    /// Gather-level detail.
    pub gather: GatherStats,
}

impl KernelStats {
    /// Fold another chunk's statistics into this accumulator — every field,
    /// including the tile-path counters and gather detail. All schedule
    /// executors (sequential, parallel, cascade) fold through this one
    /// method so per-chunk accounting composes identically everywhere.
    ///
    /// Counters are per KV chunk, staged or read in place: a chunk
    /// contributes one `kv_tiles` (and one tensor/CUDA-core tile), not one
    /// per kv head.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.flops += other.flops;
        self.global_bytes += other.global_bytes;
        self.kv_tiles += other.kv_tiles;
        self.tensor_core_tiles += other.tensor_core_tiles;
        self.cuda_core_tiles += other.cuda_core_tiles;
        self.gather.absorb(&other.gather);
    }
}

/// Final outputs of a full kernel run.
#[derive(Debug, Clone)]
pub struct KernelOutput {
    /// Attention outputs, same indptr as the queries, width `H_qo * D`.
    pub o: RaggedTensor<f32>,
    /// Log-sum-exp per (row, qo_head), row-major `[rows, H_qo]`.
    /// `-inf` where a query's visible set is empty; meaningless for
    /// non-softmax variants.
    pub lse: Vec<f32>,
    /// Execution statistics.
    pub stats: KernelStats,
}

/// Shape and accounting of one executed (block row × KV chunk) work item.
///
/// The states themselves are NOT here: they live flat in the
/// [`KernelScratch`] that executed the chunk (see
/// [`KernelScratch::out_o`] / [`KernelScratch::out_lse`]), valid until its
/// next use. This keeps the hot path allocation-free; callers that need
/// owned states use [`KernelScratch::states`].
#[derive(Debug, Clone, Copy)]
pub struct ChunkMeta {
    /// First query row of the tile.
    pub row_start: usize,
    /// One past the last query row.
    pub row_end: usize,
    /// Number of states produced: `(row_end - row_start) * num_qo_heads`,
    /// laid out `[rows_in_tile, H_qo]` row-major in the scratch.
    pub n_states: usize,
    /// Execution statistics for this chunk.
    pub stats: KernelStats,
}

/// The one finalize: write a tile's final flat states — `states_lse.len()`
/// states in `[row, qo_head]` order starting at query row `row_start`,
/// `states_o` their `[n_states, d]` outputs — into the output tensor,
/// applying the variant's `output_transform` with each `(row, head)`'s own
/// [`QueryCtx`], and record LSE into `lse` (`[rows, H_qo]`) when the
/// variant uses softmax. Every executor ends here: the direct kernel run,
/// the plan/run pipeline's writethrough and contracted tiles, the cascade.
///
/// # Panics
///
/// Panics if the states reach past `row_meta`, `o` or `lse`.
#[allow(clippy::too_many_arguments)]
pub fn finalize_tile(
    variant: &dyn AttentionVariant,
    params: &VariantParams,
    heads: HeadConfig,
    row_meta: &[RowMeta],
    row_start: usize,
    states_o: &[f32],
    states_lse: &[f32],
    o: &mut RaggedTensor<f32>,
    lse: &mut [f32],
) {
    let (hq, d) = (heads.num_qo_heads, heads.head_dim);
    assert_eq!(
        states_o.len(),
        states_lse.len() * d,
        "flat o length mismatch"
    );
    if variant.use_softmax() {
        lse[row_start * hq..][..states_lse.len()].copy_from_slice(states_lse);
    }
    for i in 0..states_lse.len() {
        let (row, head) = (row_start + i / hq, i % hq);
        let meta = row_meta[row];
        let out = &mut o.global_row_mut(row)[head * d..(head + 1) * d];
        out.copy_from_slice(&states_o[i * d..(i + 1) * d]);
        variant.output_transform(
            params,
            out,
            QueryCtx {
                batch_idx: meta.batch_idx,
                qo_pos: meta.qo_pos,
                qo_head_idx: head,
                qo_len: meta.qo_len,
                kv_len: meta.kv_len,
            },
        );
    }
}

/// The FA2-style kernel, configured with a tile size and the head-fusion
/// switch (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashKernel {
    /// Tile configuration (`Tq` must equal the layout's block-row heights
    /// only in spirit — numerics never depend on it; stats do).
    pub tile: TileConfig,
    /// Whether query heads are fused into tile rows (shared KV staging).
    pub head_fusion: bool,
}

impl FlashKernel {
    /// Kernel with the tile selected for this problem shape by the §3.2.2
    /// heuristic, head fusion on.
    pub fn auto(avg_fused_qo_len: f64, head_dim: usize) -> FlashKernel {
        FlashKernel {
            tile: crate::tiles::select_tile(
                avg_fused_qo_len,
                head_dim,
                crate::tiles::SmResources::A100,
            ),
            head_fusion: true,
        }
    }

    /// Run the whole problem to final outputs. Only the output tensors are
    /// allocated; all intermediate chunk state reuses `scratch`.
    ///
    /// Rows not covered by any block row produce zero output and `-inf`
    /// LSE (they have an empty visible set).
    ///
    /// # Errors
    ///
    /// Propagates chunk-execution errors (none in practice once the
    /// problem validated; kept for API stability).
    pub fn run_with_scratch<TQ: Scalar, TKV: Scalar>(
        &self,
        problem: &AttentionProblem<'_, TQ, TKV>,
        variant: &dyn AttentionVariant,
        params: &VariantParams,
        scratch: &mut KernelScratch,
    ) -> Result<KernelOutput, AttentionError> {
        let heads = problem.heads;
        let rows = problem.layout.rows();
        let mut o = RaggedTensor::<f32>::zeros(problem.q.indptr().to_vec(), heads.qo_width())?;
        let mut lse = vec![f32::NEG_INFINITY; rows * heads.num_qo_heads];
        let mut stats = KernelStats::default();

        for br in 0..problem.layout.n_block_rows() {
            let n_blocks = problem.layout.block_row(br).len();
            let meta = self.run_block_row_chunk_scratch(
                problem,
                variant,
                params,
                br,
                0..n_blocks,
                scratch,
            )?;
            stats.absorb(&meta.stats);
            // Write through: full-KV states are final.
            finalize_tile(
                variant,
                params,
                heads,
                &problem.row_meta,
                meta.row_start,
                &scratch.out_o,
                &scratch.out_lse,
                &mut o,
                &mut lse,
            );
        }
        // Q read + O write traffic.
        stats.global_bytes +=
            (rows * heads.qo_width()) as u64 * (TQ::DTYPE.size_bytes() as u64 + 4);
        Ok(KernelOutput { o, lse, stats })
    }

    /// The allocation-free hot path: execute one split-KV work item — block
    /// row `block_row`, KV blocks `kv_blocks` (indices into the block row's
    /// nonzero list) — entirely inside `scratch`, leaving the finalized but
    /// NOT output-transformed per-state results in
    /// [`KernelScratch::out_o`] / [`KernelScratch::out_lse`]; the
    /// contraction step applies `output_transform` after merging all chunks.
    ///
    /// Each KV chunk is consumed by all `num_kv_heads × group_size` query
    /// heads before the next is touched: read in place from an f32 pool
    /// when the problem has no dequant scales and the variant reports
    /// identity key/value transforms, else staged ONCE at full kv width
    /// (`num_kv_heads * D`) with those transforms applied once — the
    /// §3.2.1 dense and staged-tile paths; the module docs have the loop.
    /// Scratch buffers are only ever `clear()`ed and re-grown, so after
    /// warmup (largest shape seen) the call performs zero heap allocations;
    /// see `crates/core/tests/alloc_free.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidChunk`] if indices are out of range.
    pub fn run_block_row_chunk_scratch<TQ: Scalar, TKV: Scalar>(
        &self,
        problem: &AttentionProblem<'_, TQ, TKV>,
        variant: &dyn AttentionVariant,
        params: &VariantParams,
        block_row: usize,
        kv_blocks: std::ops::Range<usize>,
        scratch: &mut KernelScratch,
    ) -> Result<ChunkMeta, AttentionError> {
        let heads = problem.heads;
        let d = heads.head_dim;
        let layout = problem.layout;
        if block_row >= layout.n_block_rows() {
            return Err(AttentionError::InvalidChunk(format!(
                "block row {block_row} out of range {}",
                layout.n_block_rows()
            )));
        }
        let blocks = layout.block_row(block_row);
        if kv_blocks.end > blocks.len() {
            return Err(AttentionError::InvalidChunk(format!(
                "kv blocks {:?} out of range {}",
                kv_blocks,
                blocks.len()
            )));
        }
        let (rs, re) = layout.block_row_range(block_row);
        let n_rows = re - rs;
        let softmax = variant.use_softmax();
        let KernelScratch {
            slots,
            q_rows,
            m,
            l,
            acc,
            k_tile,
            v_tile,
            logits,
            out_o,
            out_lse,
        } = scratch;

        // Timeline position of the chunk's first slot = block row offset +
        // slots of the skipped leading blocks.
        let lead: usize = blocks[..kv_blocks.start].iter().map(|b| b.len).sum();
        let base_pos = problem.kv_pos_offsets[block_row] + lead;

        // Gather list for the chunk (reused scratch, overwritten).
        slots.clear();
        for b in &blocks[kv_blocks.clone()] {
            let base = b.col_block * layout.bc();
            slots.extend(base..base + b.len);
        }

        // States are kept KV-head-major while the chunk runs: the
        // `n_rows * group` states that share a KV head are the contiguous
        // query rows of that head's QK^T blocks.
        let group = heads.group_size();
        let per_head = n_rows * group;
        let n_states = n_rows * heads.num_qo_heads;
        let state_of = |row_i: usize, qo_head: usize| {
            (heads.kv_head_of(qo_head) * n_rows + row_i) * group + qo_head % group
        };

        // Pre-transform all query rows once per (row, qo_head), widening
        // straight into the scratch buffer.
        q_rows.clear();
        q_rows.resize(n_states * d, 0.0);
        for row in rs..re {
            let meta = problem.row_meta[row];
            let qsrc = problem.q.global_row(row);
            for h in 0..heads.num_qo_heads {
                let at = state_of(row - rs, h) * d;
                let dst = &mut q_rows[at..at + d];
                for (x, &src) in dst.iter_mut().zip(&qsrc[h * d..(h + 1) * d]) {
                    *x = src.to_f32();
                }
                variant.query_transform(
                    params,
                    dst,
                    QueryCtx {
                        batch_idx: meta.batch_idx,
                        qo_pos: meta.qo_pos,
                        qo_head_idx: h,
                        qo_len: meta.qo_len,
                        kv_len: meta.kv_len,
                    },
                );
            }
        }

        // Online-softmax accumulators per state.
        m.clear();
        m.resize(n_states, f32::NEG_INFINITY);
        l.clear();
        l.resize(n_states, 0.0);
        acc.clear();
        acc.resize(n_states * d, 0.0);
        let mut stats = KernelStats::default();
        let mut stager = Stager::new();

        // KeyCtx batch/kv_len come from the first row's request; key/value
        // transforms must not depend on batch identity when a tall prefix
        // block row spans requests (they never do for the built-in variants).
        let key_meta = problem.row_meta[rs];
        let key_ctx = |kv_pos: usize, kv_head: usize| KeyCtx {
            batch_idx: key_meta.batch_idx,
            kv_pos,
            kv_head_idx: kv_head,
            kv_len: key_meta.kv_len,
        };

        // The operand view: pool rows are read where they lie when they
        // already are what the block kernels consume — f32 storage, no
        // dequant scale to apply, no key/value transform to run. Anything
        // else is staged, transformed once, and viewed in the tile.
        let kw = heads.kv_width();
        let pool = TKV::as_f32_slice(problem.k.as_slice())
            .zip(TKV::as_f32_slice(problem.v.as_slice()))
            .filter(|_| problem.kv_dequant.is_none() && variant.kv_transforms_are_identity());
        let row_bytes = 2 * kw * TKV::DTYPE.size_bytes();

        // Chunk loop, chunks OUTER: each KV chunk is consumed by every
        // query head before the next chunk is touched. Per state the chunk
        // sequence is still strictly ascending, so the online-softmax
        // recurrence sees the exact same update order (and therefore the
        // same bits) as a per-head pass would.
        let tkv = self.tile.tkv.max(1).min(slots.len());
        logits.clear();
        logits.resize(per_head * tkv, 0.0);
        let mut chunk_start = 0usize;
        while chunk_start < slots.len() {
            let chunk_end = (chunk_start + tkv).min(slots.len());
            let n_chunk = chunk_end - chunk_start;
            let chunk = &slots[chunk_start..chunk_end];
            let chunk_pos = base_pos + chunk_start;
            let (k_src, v_src) = match pool {
                Some(pool) => {
                    for run in slot_runs(chunk) {
                        stats.gather.record_run(run.len(), row_bytes);
                    }
                    debug_assert!(
                        (0..heads.num_kv_heads).all(|kv_head| {
                            let head =
                                chunk[0] * kw + kv_head * d..chunk[0] * kw + (kv_head + 1) * d;
                            let ctx = key_ctx(chunk_pos, kv_head);
                            let k_kept = unchanged(&pool.0[head.clone()], k_tile, |row| {
                                variant.key_transform(params, row, ctx)
                            });
                            k_kept
                                && unchanged(&pool.1[head], k_tile, |row| {
                                    variant.value_transform(params, row, ctx)
                                })
                        }),
                        "variant {} claims identity key/value transforms but rewrites rows",
                        variant.name()
                    );
                    pool
                }
                None => {
                    stager.stage_rows_into(
                        problem.k,
                        problem.v,
                        chunk,
                        kw,
                        k_tile,
                        v_tile,
                        problem.kv_dequant.as_ref().map(|(ks, vs)| DequantScales {
                            k: ks,
                            v: vs,
                            head_dim: d,
                        }),
                    );
                    // Key/value transforms once per (slot, kv_head) — never
                    // repeated across the query heads of a group.
                    for j in 0..n_chunk {
                        for kv_head in 0..heads.num_kv_heads {
                            let at = j * kw + kv_head * d;
                            let ctx = key_ctx(chunk_pos + j, kv_head);
                            variant.key_transform(params, &mut k_tile[at..at + d], ctx);
                            variant.value_transform(params, &mut v_tile[at..at + d], ctx);
                        }
                    }
                    (&k_tile[..], &v_tile[..])
                }
            };

            for kv_head in 0..heads.num_kv_heads {
                // (a) QK^T: every state of this KV head against the chunk.
                let q = RowView::new(&q_rows[kv_head * per_head * d..], d, per_head, d);
                for (seg, first) in segments(chunk, pool.is_some()) {
                    let k = RowView::new(&k_src[first * kw + kv_head * d..], kw, seg.len(), d);
                    numerics::dot_block(q, k, &mut logits[seg.start..], tkv);
                }

                // (b) Per state: mask and transform the row; then, for
                // softmax, the running max, the weights `exp(t - m)` —
                // libm's `exp` keeps no vector register, so it runs as a
                // pass of its own rather than inside (c) — and the first
                // visible key, which carries the old accumulator's rescale.
                for s in 0..per_head {
                    let (row_i, qo_head) = (s / group, kv_head * group + s % group);
                    let meta = problem.row_meta[rs + row_i];
                    let si = kv_head * per_head + s;
                    let row = &mut logits[s * tkv..][..n_chunk];
                    variant.logits_row(
                        params,
                        LogitCtx {
                            batch_idx: meta.batch_idx,
                            qo_pos: meta.qo_pos,
                            kv_pos: chunk_pos,
                            qo_head_idx: qo_head,
                            kv_head_idx: kv_head,
                            qo_len: meta.qo_len,
                            kv_len: meta.kv_len,
                        },
                        row,
                    );
                    if !softmax {
                        // A zero weight adds nothing: skip it like a mask.
                        for w in row.iter_mut().filter(|w| **w == 0.0) {
                            *w = f32::NEG_INFINITY;
                        }
                        continue;
                    }
                    let new_m = m[si].max(numerics::row_max(row));
                    if new_m == f32::NEG_INFINITY {
                        // Nothing visible yet (a NaN counts as nothing, as
                        // it does to `f32::max`): (c) must skip the row.
                        row.fill(f32::NEG_INFINITY);
                        continue;
                    }
                    let rescale = if m[si] == f32::NEG_INFINITY {
                        0.0
                    } else {
                        (m[si] - new_m).exp()
                    };
                    m[si] = new_m;
                    let mut l_new = l[si] * rescale;
                    for t in row.iter_mut().filter(|t| **t != f32::NEG_INFINITY) {
                        *t = (*t - new_m).exp();
                        l_new += *t;
                    }
                    l[si] = l_new;
                    // The `exp(m_old - m_new)` rescale of the accumulator
                    // folds into its first touch — two multiplies and an
                    // add on the first visible key, which (c) then skips.
                    let acc_row = &mut acc[si * d..(si + 1) * d];
                    match row.iter().position(|&p| p != f32::NEG_INFINITY) {
                        Some(j) => {
                            let src = if pool.is_some() { chunk[j] } else { j };
                            let v_row = &v_src[src * kw + kv_head * d..][..d];
                            numerics::scale_add(rescale, row[j], v_row, acc_row);
                            row[j] = f32::NEG_INFINITY;
                        }
                        None => numerics::scale(acc_row, rescale),
                    }
                }

                // (c) PV: every state of the head against each run of keys,
                // masked weights skipped, each accumulator row held in
                // registers across the run.
                let acc_head = &mut acc[kv_head * per_head * d..][..per_head * d];
                for (seg, first) in segments(chunk, pool.is_some()) {
                    let w = RowView::new(&logits[seg.start..], tkv, per_head, seg.len());
                    let v = RowView::new(&v_src[first * kw + kv_head * d..], kw, seg.len(), d);
                    numerics::axpy_block(w, v, acc_head, d);
                }
            }

            // Tile accounting: QK^T + PV over every query head that
            // consumed the chunk, 2 FLOPs per MAC; ONE kv tile per chunk
            // (not one per kv head).
            stats.flops += 2 * 2 * (n_rows * heads.num_qo_heads * n_chunk * d) as u64;
            stats.kv_tiles += 1;
            if self.tile.uses_tensor_cores() {
                stats.tensor_core_tiles += 1;
            } else {
                stats.cuda_core_tiles += 1;
            }
            chunk_start = chunk_end;
        }

        // Gather traffic: bytes read from the pool, staged or in place;
        // without head fusion each query head would re-read its group's KV
        // (group_size x traffic).
        stats.gather.absorb(&stager.stats());
        if !self.head_fusion {
            let g = &mut stats.gather;
            g.global_bytes *= group;
            g.rows *= group;
            g.contiguous_runs *= group;
            g.scattered_runs *= group;
        }
        stats.global_bytes += stats.gather.global_bytes as u64;

        // Finalize chunk states into the scratch output buffers, back in
        // `[row, qo_head]` order. The default fill (zeros, -inf) IS the ⊕
        // identity, so fully-masked states need no special case.
        out_o.clear();
        out_o.resize(n_states * d, 0.0);
        out_lse.clear();
        out_lse.resize(n_states, f32::NEG_INFINITY);
        for row_i in 0..n_rows {
            for h in 0..heads.num_qo_heads {
                let (si, oi) = (state_of(row_i, h), row_i * heads.num_qo_heads + h);
                let acc_row = &acc[si * d..(si + 1) * d];
                let out_row = &mut out_o[oi * d..(oi + 1) * d];
                if softmax {
                    if l[si] > 0.0 {
                        let inv = 1.0 / l[si];
                        for (o, &a) in out_row.iter_mut().zip(acc_row) {
                            *o = a * inv;
                        }
                        out_lse[oi] = m[si] + l[si].ln();
                    }
                } else {
                    out_row.copy_from_slice(acc_row);
                }
            }
        }
        Ok(ChunkMeta {
            row_start: rs,
            row_end: re,
            n_states,
            stats,
        })
    }
}

/// A chunk's keys as runs of consecutive source rows, `(range within the
/// chunk, first source row)`: the pool's slot runs when the chunk is read
/// in place, the whole staged tile otherwise.
fn segments(
    chunk: &[usize],
    in_place: bool,
) -> impl Iterator<Item = (std::ops::Range<usize>, usize)> + '_ {
    let staged = (!in_place).then_some((0..chunk.len(), 0));
    slot_runs(if in_place { chunk } else { &[] })
        .map(move |run| (run.clone(), chunk[run.start]))
        .chain(staged)
}

/// Whether `transform`, run on a copy of `row` made in `tmp`, changes no
/// bit: the debug check of
/// [`AttentionVariant::kv_transforms_are_identity`].
fn unchanged(row: &[f32], tmp: &mut Vec<f32>, transform: impl FnOnce(&mut [f32])) -> bool {
    tmp.clear();
    tmp.extend_from_slice(row);
    transform(tmp);
    tmp.iter().zip(row).all(|(a, b)| a.to_bits() == b.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_attention;
    use crate::variant::{SigmoidAttention, VanillaAttention};
    use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
    use fi_tensor::numerics::allclose;

    /// Build a dense single-request problem: l_qo queries, l_kv kv slots.
    fn dense_layout(l_qo: usize, l_kv: usize, tq: usize) -> BlockSparseMatrix {
        let mut rows = Vec::new();
        let mut s = 0;
        while s < l_qo {
            let e = (s + tq).min(l_qo);
            rows.push((
                s,
                e,
                vec![BlockEntry {
                    col_block: 0,
                    len: l_kv,
                }],
            ));
            s = e;
        }
        BlockSparseMatrix::new(l_qo, l_kv, l_kv, rows).unwrap()
    }

    fn filled_ragged(lens: &[usize], dim: usize, f: impl Fn(usize) -> f32) -> RaggedTensor<f32> {
        let mut r = RaggedTensor::<f32>::from_seq_lens(lens, dim);
        for (i, x) in r.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = f(i);
        }
        r
    }

    fn check_against_reference(
        l_qo: usize,
        l_kv: usize,
        heads: HeadConfig,
        variant: &dyn AttentionVariant,
        params: &VariantParams,
        tile: TileConfig,
    ) {
        let q = filled_ragged(&[l_qo], heads.qo_width(), |i| {
            ((i * 37 % 19) as f32 - 9.0) * 0.13
        });
        let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
            ((i * 53 % 23) as f32 - 11.0) * 0.11
        });
        let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
            ((i * 29 % 17) as f32 - 8.0) * 0.17
        });
        let layout = dense_layout(l_qo, l_kv, tile.tq);
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
        let kern = FlashKernel {
            tile,
            head_fusion: true,
        };
        let out = kern
            .run_with_scratch(&problem, variant, params, &mut KernelScratch::new())
            .unwrap();
        let r = reference_attention(
            variant,
            params,
            heads,
            0,
            q.seq(0),
            k.as_slice(),
            v.as_slice(),
        );
        assert!(
            allclose(out.o.seq(0), &r.o, 2e-4, 2e-5),
            "kernel != reference for {} (tq={}, tkv={})",
            variant.name(),
            tile.tq,
            tile.tkv
        );
        if variant.use_softmax() {
            for (a, b) in out.lse.iter().zip(&r.lse) {
                if *b == f32::NEG_INFINITY {
                    assert_eq!(*a, f32::NEG_INFINITY);
                } else {
                    assert!((a - b).abs() < 1e-3, "lse {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn matches_reference_vanilla_causal() {
        let heads = HeadConfig::new(2, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        for tkv in [2usize, 7, 64] {
            check_against_reference(
                5,
                13,
                heads,
                &VanillaAttention { causal: true },
                &params,
                TileConfig { tq: 2, tkv },
            );
        }
    }

    #[test]
    fn matches_reference_noncausal_and_gqa() {
        let heads = HeadConfig::new(4, 2, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        check_against_reference(
            3,
            9,
            heads,
            &VanillaAttention { causal: false },
            &params,
            TileConfig { tq: 16, tkv: 4 },
        );
    }

    #[test]
    fn matches_reference_sigmoid() {
        let heads = HeadConfig::new(1, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4).with_extra("bias", -0.3);
        check_against_reference(
            4,
            6,
            heads,
            &SigmoidAttention,
            &params,
            TileConfig { tq: 1, tkv: 3 },
        );
    }

    #[test]
    fn chunked_states_merge_to_full_run() {
        let heads = HeadConfig::new(2, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: false };
        let l_kv = 12;
        let q = filled_ragged(&[1], heads.qo_width(), |i| i as f32 * 0.1);
        let k = Tensor::<f32>::from_fn(vec![l_kv, 4], |i| (i as f32 * 0.7).sin());
        let v = Tensor::<f32>::from_fn(vec![l_kv, 4], |i| (i as f32 * 0.3).cos());
        // Layout with 4 blocks of 3 slots each.
        let layout = BlockSparseMatrix::new(
            1,
            l_kv,
            3,
            vec![(
                0,
                1,
                (0..4)
                    .map(|c| BlockEntry {
                        col_block: c,
                        len: 3,
                    })
                    .collect(),
            )],
        )
        .unwrap();
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 3 },
            head_fusion: true,
        };

        let full = kern
            .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        // Split: blocks 0..2 and 2..4, merged with the ⊕ operator.
        let mut scratch = KernelScratch::new();
        let mut chunk = |blocks| {
            kern.run_block_row_chunk_scratch(&problem, &variant, &params, 0, blocks, &mut scratch)
                .unwrap();
            scratch.states(heads.head_dim)
        };
        let (a, b) = (chunk(0..2), chunk(2..4));
        for h in 0..heads.num_qo_heads {
            let merged = a[h].merge(&b[h]);
            let d = heads.head_dim;
            assert!(allclose(
                &merged.o,
                &full.o.seq(0)[h * d..(h + 1) * d],
                1e-5,
                1e-6
            ));
            assert!((merged.lse - full.lse[h]).abs() < 1e-4);
        }
    }

    #[test]
    fn paged_kv_matches_contiguous() {
        // Same KV content, one layout contiguous and one scattered through a
        // page pool: outputs must match exactly (order of slots preserved).
        let heads = HeadConfig::new(1, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: true };
        let l_kv = 6;
        let q = filled_ragged(&[2], 4, |i| (i as f32 * 0.9).sin());

        // Contiguous pools.
        let k_c = Tensor::<f32>::from_fn(vec![l_kv, 4], |i| (i as f32 * 0.21).cos());
        let v_c = Tensor::<f32>::from_fn(vec![l_kv, 4], |i| (i as f32 * 0.43).sin());
        let layout_c = dense_layout(2, l_kv, 2);
        let p_c =
            AttentionProblem::standard_batch(&q, &k_c, &v_c, &layout_c, heads, &[l_kv]).unwrap();

        // Paged: pool of 5 pages of 2 slots; request holds pages [3, 0, 4].
        let pages = [3usize, 0, 4];
        let mut k_p = Tensor::<f32>::zeros(vec![10, 4]);
        let mut v_p = Tensor::<f32>::zeros(vec![10, 4]);
        for pos in 0..l_kv {
            let slot = pages[pos / 2] * 2 + pos % 2;
            k_p.row_mut(slot).copy_from_slice(k_c.row(pos));
            v_p.row_mut(slot).copy_from_slice(v_c.row(pos));
        }
        let layout_p = BlockSparseMatrix::new(
            2,
            10,
            2,
            vec![(
                0,
                2,
                pages
                    .iter()
                    .map(|&p| BlockEntry {
                        col_block: p,
                        len: 2,
                    })
                    .collect(),
            )],
        )
        .unwrap();
        let p_p =
            AttentionProblem::standard_batch(&q, &k_p, &v_p, &layout_p, heads, &[l_kv]).unwrap();

        let kern = FlashKernel {
            tile: TileConfig { tq: 2, tkv: 2 },
            head_fusion: true,
        };
        let out_c = kern
            .run_with_scratch(&p_c, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        let out_p = kern
            .run_with_scratch(&p_p, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        assert!(allclose(out_p.o.seq(0), out_c.o.seq(0), 1e-6, 1e-7));
    }

    #[test]
    fn empty_block_row_outputs_zero() {
        let heads = HeadConfig::new(1, 1, 2).unwrap();
        let params = VariantParams::for_head_dim(2);
        let q = filled_ragged(&[1], 2, |_| 1.0);
        let k = Tensor::<f32>::zeros(vec![4, 2]);
        let v = Tensor::<f32>::zeros(vec![4, 2]);
        let layout = BlockSparseMatrix::new(1, 4, 2, vec![(0, 1, vec![])]).unwrap();
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[0]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 32 },
            head_fusion: true,
        };
        let out = kern
            .run_with_scratch(
                &problem,
                &VanillaAttention { causal: false },
                &params,
                &mut KernelScratch::new(),
            )
            .unwrap();
        assert_eq!(out.o.seq(0), &[0.0, 0.0]);
        assert_eq!(out.lse[0], f32::NEG_INFINITY);
    }

    #[test]
    fn ragged_kv_layout_matches_paged_result() {
        // Same KV content stored contiguously (ragged API) and checked
        // against the dense layout path.
        let heads = HeadConfig::new(1, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: true };
        let qo_lens = [2usize, 1];
        let kv_indptr = [0usize, 5, 9];
        let layout =
            AttentionProblem::<f32, f32>::ragged_kv_layout(&qo_lens, &kv_indptr, 2).unwrap();
        assert_eq!(layout.rows(), 3);
        assert_eq!(layout.cols(), 9);
        assert_eq!(layout.gather_columns(0), (0..5).collect::<Vec<_>>());
        assert_eq!(layout.gather_columns(1), (5..9).collect::<Vec<_>>());

        let q = filled_ragged(&qo_lens, 4, |i| (i as f32 * 0.31).sin());
        let k = Tensor::<f32>::from_fn(vec![9, 4], |i| (i as f32 * 0.17).cos());
        let v = Tensor::<f32>::from_fn(vec![9, 4], |i| (i as f32 * 0.13).sin());
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[5, 4]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 2, tkv: 4 },
            head_fusion: true,
        };
        let out = kern
            .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        // Reference per request over its contiguous span.
        for b in 0..2 {
            let (s, e) = (kv_indptr[b], kv_indptr[b + 1]);
            let r = crate::reference::reference_attention(
                &variant,
                &params,
                heads,
                b,
                q.seq(b),
                &k.as_slice()[s * 4..e * 4],
                &v.as_slice()[s * 4..e * 4],
            );
            assert!(fi_tensor::numerics::allclose(
                out.o.seq(b),
                &r.o,
                1e-5,
                1e-6
            ));
        }
        // Ragged spans are contiguous: gathers are dominated by contiguous
        // runs (the TMA-eligible case); only single-slot chunk tails count
        // as scattered.
        assert!(out.stats.gather.contiguous_runs >= out.stats.gather.scattered_runs);
        assert!(out.stats.gather.contiguous_runs > 0);
    }

    #[test]
    fn ragged_kv_layout_validation() {
        type P<'a> = AttentionProblem<'a, f32, f32>;
        assert!(P::ragged_kv_layout(&[1], &[0, 4], 0).is_err());
        assert!(P::ragged_kv_layout(&[1, 1], &[0, 4], 2).is_err());
        assert!(P::ragged_kv_layout(&[1], &[1, 4], 2).is_err());
        assert!(
            P::ragged_kv_layout(&[1], &[0, 0], 2).is_err(),
            "queries without kv"
        );
        assert!(
            P::ragged_kv_layout(&[0], &[0, 0], 2).is_ok(),
            "empty request fine"
        );
    }

    #[test]
    fn problem_validation() {
        let heads = HeadConfig::new(1, 1, 2).unwrap();
        let q = filled_ragged(&[1], 2, |_| 0.0);
        let k = Tensor::<f32>::zeros(vec![4, 2]);
        let v = Tensor::<f32>::zeros(vec![4, 2]);
        let layout = dense_layout(1, 4, 1);
        // Wrong kv_lens length.
        assert!(AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[4, 4]).is_err());
        // Wrong pool shape.
        let bad = Tensor::<f32>::zeros(vec![3, 2]);
        assert!(AttentionProblem::standard_batch(&q, &bad, &v, &layout, heads, &[4]).is_err());
        // Wrong head width.
        let wide_heads = HeadConfig::new(2, 1, 2).unwrap();
        assert!(AttentionProblem::standard_batch(&q, &k, &v, &layout, wide_heads, &[4]).is_err());
    }

    #[test]
    fn chunk_range_validation() {
        let heads = HeadConfig::new(1, 1, 2).unwrap();
        let params = VariantParams::for_head_dim(2);
        let q = filled_ragged(&[1], 2, |_| 0.0);
        let k = Tensor::<f32>::zeros(vec![4, 2]);
        let v = Tensor::<f32>::zeros(vec![4, 2]);
        let layout = dense_layout(1, 4, 1);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[4]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 32 },
            head_fusion: true,
        };
        let v1 = VanillaAttention { causal: false };
        let mut scratch = KernelScratch::new();
        assert!(kern
            .run_block_row_chunk_scratch(&problem, &v1, &params, 1, 0..1, &mut scratch)
            .is_err());
        assert!(kern
            .run_block_row_chunk_scratch(&problem, &v1, &params, 0, 0..2, &mut scratch)
            .is_err());
    }

    /// Rewrites key rows while claiming it does not.
    #[cfg(debug_assertions)]
    struct Liar;

    #[cfg(debug_assertions)]
    impl AttentionVariant for Liar {
        fn name(&self) -> &str {
            "liar"
        }

        fn key_transform(&self, _params: &VariantParams, k: &mut [f32], _ctx: KeyCtx) {
            k[0] += 1.0;
        }

        fn kv_transforms_are_identity(&self) -> bool {
            true
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "claims identity key/value transforms")]
    fn false_identity_claim_is_caught_in_debug_builds() {
        let heads = HeadConfig::new(1, 1, 4).unwrap();
        let q = filled_ragged(&[1], 4, |i| i as f32);
        let k = Tensor::<f32>::from_fn(vec![4, 4], |i| i as f32 * 0.1);
        let layout = dense_layout(1, 4, 1);
        let problem = AttentionProblem::standard_batch(&q, &k, &k, &layout, heads, &[4]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 4 },
            head_fusion: true,
        };
        let params = VariantParams::for_head_dim(4);
        let _ = kern.run_with_scratch(&problem, &Liar, &params, &mut KernelScratch::new());
    }

    #[test]
    fn stats_reflect_head_fusion() {
        let heads = HeadConfig::new(4, 1, 4).unwrap();
        let params = VariantParams::for_head_dim(4);
        let variant = VanillaAttention { causal: false };
        let q = filled_ragged(&[1], heads.qo_width(), |i| i as f32 * 0.01);
        let k = Tensor::<f32>::from_fn(vec![8, 4], |i| i as f32 * 0.1);
        let v = k.clone();
        let layout = dense_layout(1, 8, 1);
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[8]).unwrap();
        let fused = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 8 },
            head_fusion: true,
        }
        .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new())
        .unwrap();
        let unfused = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 8 },
            head_fusion: false,
        }
        .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new())
        .unwrap();
        assert_eq!(
            unfused.stats.gather.global_bytes,
            fused.stats.gather.global_bytes * heads.group_size()
        );
        // Numerics identical.
        assert!(allclose(unfused.o.seq(0), fused.o.seq(0), 0.0, 0.0));
    }

    #[test]
    fn scratch_reused_across_shapes_matches_fresh() {
        // One KernelScratch pushed through two different problem shapes
        // (different head counts, dims, kv lengths) must leave no stale
        // state: results are bit-identical to fresh scratches.
        let variant = VanillaAttention { causal: true };
        let mut reused = KernelScratch::new();
        for (hq, hkv, d, l_qo, l_kv) in [(4usize, 2usize, 8usize, 5usize, 13usize), (2, 1, 4, 3, 6)]
        {
            let heads = HeadConfig::new(hq, hkv, d).unwrap();
            let params = VariantParams::for_head_dim(d);
            let q = filled_ragged(&[l_qo], heads.qo_width(), |i| {
                ((i % 13) as f32 - 6.0) * 0.11
            });
            let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
                ((i % 7) as f32 - 3.0) * 0.21
            });
            let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
                ((i % 5) as f32 - 2.0) * 0.17
            });
            let layout = dense_layout(l_qo, l_kv, 2);
            let problem =
                AttentionProblem::standard_batch(&q, &k, &v, &layout, heads, &[l_kv]).unwrap();
            let kern = FlashKernel {
                tile: TileConfig { tq: 2, tkv: 4 },
                head_fusion: true,
            };
            let out_reused = kern
                .run_with_scratch(&problem, &variant, &params, &mut reused)
                .unwrap();
            let mut fresh = KernelScratch::new();
            let out_fresh = kern
                .run_with_scratch(&problem, &variant, &params, &mut fresh)
                .unwrap();
            assert_eq!(out_reused.o.seq(0), out_fresh.o.seq(0));
            assert_eq!(out_reused.lse, out_fresh.lse);
            assert_eq!(out_reused.stats, out_fresh.stats);
        }
    }

    #[test]
    fn fp16_kv_storage_close_to_f32() {
        use fi_tensor::F16;
        let heads = HeadConfig::new(1, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let q = filled_ragged(&[3], 8, |i| ((i % 7) as f32 - 3.0) * 0.2);
        let k32 = Tensor::<f32>::from_fn(vec![6, 8], |i| ((i % 11) as f32 - 5.0) * 0.15);
        let v32 = Tensor::<f32>::from_fn(vec![6, 8], |i| ((i % 5) as f32 - 2.0) * 0.3);
        let k16 = k32.cast::<F16>();
        let v16 = v32.cast::<F16>();
        let layout = dense_layout(3, 6, 3);
        let p32 = AttentionProblem::standard_batch(&q, &k32, &v32, &layout, heads, &[6]).unwrap();
        let p16 = AttentionProblem::standard_batch(&q, &k16, &v16, &layout, heads, &[6]).unwrap();
        let kern = FlashKernel {
            tile: TileConfig { tq: 3, tkv: 4 },
            head_fusion: true,
        };
        let o32 = kern
            .run_with_scratch(&p32, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        let o16 = kern
            .run_with_scratch(&p16, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        assert!(allclose(o16.o.seq(0), o32.o.seq(0), 2e-2, 2e-3));
        // And f16 traffic is half.
        assert_eq!(
            o16.stats.gather.global_bytes * 2,
            o32.stats.gather.global_bytes
        );
    }
}
