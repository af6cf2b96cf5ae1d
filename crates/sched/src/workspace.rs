//! The CUDAGraph-compatible workspace buffer (Appendix D).
//!
//! FlashInfer stores scheduler metadata and split-KV partial outputs in one
//! user-allocated device buffer. Once a CUDA graph captures a kernel, its
//! pointer arguments are frozen — so every *section* of the buffer lives at
//! a fixed offset sized for the worst case, declared up front:
//!
//! * **metadata section** — the plan information (work queues, merge maps)
//!   copied host→device each generation step,
//! * **partials section** — `2 × #CTA` slots (Appendix D.3's bound: at most
//!   `#CTA` splits, each contributing at most two boundary tiles), each
//!   holding `T_q × H_qo × (D + 1)` floats: a chunk's `n` states stored
//!   planar, `[n · D]` outputs then `[n]` LSEs — the kernel scratch's own
//!   `(o, lse)` form, so a partial is written with two copies and the
//!   contraction ([`crate::contraction`]) reduces the slots where they lie.
//!
//! [`WorkspaceLayout`] computes the offsets; [`Workspace`] owns the buffer
//! and checks every plan against the declared bounds.

use crate::error::SchedError;
use crate::plan::{Plan, WorkItem};

/// Fixed section offsets (in f32 elements) for a workspace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkspaceLayout {
    /// Offset of the metadata section.
    pub metadata_offset: usize,
    /// Length of the metadata section.
    pub metadata_len: usize,
    /// Offset of the partial-output section.
    pub partials_offset: usize,
    /// Floats per partial slot: `max_tile_rows * num_qo_heads * (head_dim + 1)`.
    pub partial_slot_len: usize,
    /// Maximum partial slots (`2 × #CTA`, Appendix D.3).
    pub max_partials: usize,
    /// Total buffer length in f32 elements.
    pub total_len: usize,
}

impl WorkspaceLayout {
    /// Compute a layout from upper bounds: the tallest query tile, the head
    /// configuration, the CTA count, and a bound on scheduled work items
    /// (for metadata sizing).
    pub fn compute(
        max_tile_rows: usize,
        num_qo_heads: usize,
        head_dim: usize,
        num_ctas: usize,
        max_work_items: usize,
    ) -> WorkspaceLayout {
        // Each work item's metadata: block row, block range, chunk index,
        // partial index, CTA — 6 words, stored as f32-width slots like the
        // real int32 arrays.
        let metadata_len = max_work_items * 6 + num_ctas + 16;
        let partial_slot_len = max_tile_rows * num_qo_heads * (head_dim + 1);
        let max_partials = 2 * num_ctas;
        let metadata_offset = 0;
        let partials_offset = metadata_offset + metadata_len;
        WorkspaceLayout {
            metadata_offset,
            metadata_len,
            partials_offset,
            partial_slot_len,
            max_partials,
            total_len: partials_offset + max_partials * partial_slot_len,
        }
    }

    /// Buffer size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.total_len * 4
    }
}

/// An owned workspace buffer with the fixed-section layout.
#[derive(Debug, Clone)]
pub struct Workspace {
    layout: WorkspaceLayout,
    buf: Vec<f32>,
    /// Bytes of metadata staged since creation (the host→device
    /// `cudaMemcpyAsync` traffic, for the cost model).
    metadata_bytes_staged: u64,
}

impl Workspace {
    /// Allocate a workspace for a layout.
    pub fn allocate(layout: WorkspaceLayout) -> Workspace {
        Workspace {
            layout,
            buf: vec![0.0; layout.total_len],
            metadata_bytes_staged: 0,
        }
    }

    /// The layout (offsets never change — the CUDAGraph requirement).
    pub fn layout(&self) -> WorkspaceLayout {
        self.layout
    }

    /// Replace the layout with a larger one, resizing the buffer and
    /// preserving the staged-byte counter. Sections may only grow — a
    /// captured graph's frozen pointers index into the existing sections,
    /// so shrinking (or capture-time growth) is a contract violation the
    /// pipeline enforces.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] if any section would shrink.
    pub fn grow_to(&mut self, layout: WorkspaceLayout) -> Result<(), SchedError> {
        let cur = self.layout;
        if layout.total_len < cur.total_len
            || layout.metadata_len < cur.metadata_len
            || layout.partial_slot_len < cur.partial_slot_len
            || layout.max_partials < cur.max_partials
        {
            return Err(SchedError::InvalidConfig(
                "workspace sections may not shrink".into(),
            ));
        }
        self.layout = layout;
        self.buf.resize(layout.total_len, 0.0);
        Ok(())
    }

    /// Check a plan fits the declared bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::WorkspaceTooSmall`] when the plan needs more
    /// partial slots or taller tiles than the layout reserved.
    pub fn check_plan(
        &self,
        plan: &Plan,
        num_qo_heads: usize,
        head_dim: usize,
    ) -> Result<(), SchedError> {
        if plan.num_partials > self.layout.max_partials {
            return Err(SchedError::WorkspaceTooSmall {
                required: (self.layout.partials_offset
                    + plan.num_partials * self.layout.partial_slot_len)
                    * 4,
                available: self.layout.size_bytes(),
            });
        }
        let needed_slot = plan.max_tile_rows * num_qo_heads * (head_dim + 1);
        if needed_slot > self.layout.partial_slot_len {
            return Err(SchedError::WorkspaceTooSmall {
                required: (self.layout.partials_offset + self.layout.max_partials * needed_slot)
                    * 4,
                available: self.layout.size_bytes(),
            });
        }
        if plan.num_items() * 6 + plan.cta_queues.len() > self.layout.metadata_len {
            return Err(SchedError::WorkspaceTooSmall {
                required: (plan.num_items() * 6 + plan.cta_queues.len()) * 4,
                available: self.layout.metadata_len * 4,
            });
        }
        Ok(())
    }

    /// Stage plan metadata into the metadata section — the analog of the
    /// per-step `cudaMemcpyAsync` of plan info (§3.3.1). Records the bytes
    /// moved and writes a compact encoding so replay-style tests can verify
    /// the section's contents are step-independent in *shape*.
    ///
    /// # Errors
    ///
    /// As [`Workspace::check_plan`].
    pub fn stage_plan_metadata(&mut self, plan: &Plan) -> Result<(), SchedError> {
        let words = plan.num_items() * 6 + plan.cta_queues.len();
        if words > self.layout.metadata_len {
            return Err(SchedError::WorkspaceTooSmall {
                required: words * 4,
                available: self.layout.metadata_len * 4,
            });
        }
        let base = self.layout.metadata_offset;
        let mut w = base;
        for (cta, item) in plan.iter_items() {
            self.buf[w] = item.block_row as f32;
            self.buf[w + 1] = item.kv_block_start as f32;
            self.buf[w + 2] = item.kv_block_end as f32;
            self.buf[w + 3] = item.chunk_index as f32;
            self.buf[w + 4] = item.partial_index.map_or(-1.0, |p| p as f32);
            self.buf[w + 5] = cta as f32;
            w += 6;
        }
        self.metadata_bytes_staged += (words * 4) as u64;
        Ok(())
    }

    /// Total metadata bytes staged (host→device traffic).
    pub fn metadata_bytes_staged(&self) -> u64 {
        self.metadata_bytes_staged
    }

    /// Decode the staged metadata back into `(cta, work item)` tuples —
    /// what the persistent kernel reads device-side. Round-tripping a plan
    /// through [`Workspace::stage_plan_metadata`] and this function is a
    /// test of the on-device plan format.
    pub fn decode_plan_metadata(&self, num_items: usize) -> Vec<(usize, WorkItem)> {
        let base = self.layout.metadata_offset;
        (0..num_items)
            .map(|i| {
                let w = base + i * 6;
                let partial = self.buf[w + 4];
                (
                    self.buf[w + 5] as usize,
                    WorkItem {
                        block_row: self.buf[w] as usize,
                        kv_block_start: self.buf[w + 1] as usize,
                        kv_block_end: self.buf[w + 2] as usize,
                        kv_slots: 0, // not staged; derived from the layout device-side
                        chunk_index: self.buf[w + 3] as usize,
                        partial_index: if partial < 0.0 {
                            None
                        } else {
                            Some(partial as usize)
                        },
                    },
                )
            })
            .collect()
    }

    /// Write one work item's partial states into slot `slot` from the
    /// kernel scratch's flat outputs (`o` is `[n_states, d]` row-major,
    /// `lse` one value per state), planar: outputs, then LSEs.
    ///
    /// # Panics
    ///
    /// Panics if the slot or state sizes exceed the layout (callers are
    /// expected to have run [`Workspace::check_plan`]), or the buffer
    /// lengths disagree.
    pub fn write_partial_flat(&mut self, slot: usize, o: &[f32], lse: &[f32], d: usize) {
        let n = lse.len();
        assert_eq!(o.len(), n * d, "flat o length mismatch");
        let range = self.slot_range(slot, n, d);
        let (slot_o, slot_lse) = self.buf[range].split_at_mut(n * d);
        slot_o.copy_from_slice(o);
        slot_lse.copy_from_slice(lse);
    }

    /// The `n` states of dim `d` held in slot `slot`, as planar
    /// `(o, lse)` views.
    ///
    /// # Panics
    ///
    /// Panics if the slot or state sizes exceed the layout.
    pub fn partial(&self, slot: usize, n: usize, d: usize) -> (&[f32], &[f32]) {
        self.buf[self.slot_range(slot, n, d)].split_at(n * d)
    }

    /// Slot `dst` mutably and slot `src` shared — the two operands of one
    /// in-place ⊕ of the contraction — as planar `(o, lse)` views of `n`
    /// states of dim `d`.
    ///
    /// # Panics
    ///
    /// Panics if the slots or state sizes exceed the layout, or
    /// `dst == src`.
    #[allow(clippy::type_complexity)]
    pub fn partial_pair_mut(
        &mut self,
        dst: usize,
        src: usize,
        n: usize,
        d: usize,
    ) -> ((&mut [f32], &mut [f32]), (&[f32], &[f32])) {
        assert_ne!(dst, src, "a slot cannot be merged into itself");
        let (dst, src) = (self.slot_range(dst, n, d), self.slot_range(src, n, d));
        let (lo, hi) = self.buf.split_at_mut(dst.start.max(src.start));
        let (dst, src) = if dst.start < src.start {
            (&mut lo[dst], &hi[..src.len()])
        } else {
            (&mut hi[..dst.len()], &lo[src])
        };
        (dst.split_at_mut(n * d), src.split_at(n * d))
    }

    /// Buffer range of the `n` states of dim `d` at the head of `slot`.
    fn slot_range(&self, slot: usize, n: usize, d: usize) -> std::ops::Range<usize> {
        assert!(
            slot < self.layout.max_partials,
            "partial slot {slot} out of range"
        );
        assert!(
            n * (d + 1) <= self.layout.partial_slot_len,
            "states overflow partial slot"
        );
        let base = self.layout.partials_offset + slot * self.layout.partial_slot_len;
        base..base + n * (d + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{balanced_plan, CostModel};
    use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};

    fn layout_for(kv: usize) -> BlockSparseMatrix {
        let entries = (0..kv)
            .map(|c| BlockEntry {
                col_block: c,
                len: 1,
            })
            .collect::<Vec<_>>();
        BlockSparseMatrix::new(1, kv.max(1), 1, vec![(0, 1, entries)]).unwrap()
    }

    #[test]
    fn layout_offsets_are_fixed_and_disjoint() {
        let l = WorkspaceLayout::compute(16, 8, 64, 108, 1000);
        assert_eq!(l.metadata_offset, 0);
        assert!(l.partials_offset >= l.metadata_len);
        assert_eq!(l.max_partials, 216);
        assert_eq!(l.partial_slot_len, 16 * 8 * 65);
        assert_eq!(l.total_len, l.partials_offset + 216 * l.partial_slot_len);
    }

    /// Four states of dim 4, `o[i][j] = i*4 + j` scaled, as flat buffers.
    fn flat_states(scale: f32) -> (Vec<f32>, Vec<f32>) {
        (
            (0..16).map(|x| x as f32 * scale).collect(),
            (0..4).map(|i| i as f32 * 0.5 - 1.0).collect(),
        )
    }

    #[test]
    fn partial_roundtrip() {
        let l = WorkspaceLayout::compute(2, 2, 4, 4, 64);
        let mut ws = Workspace::allocate(l);
        let (o, lse) = flat_states(0.3);
        ws.write_partial_flat(3, &o, &lse, 4);
        assert_eq!(ws.partial(3, 4, 4), (&o[..], &lse[..]));
        // Stored planar at the head of the slot: outputs, then LSEs.
        let base = l.partials_offset + 3 * l.partial_slot_len;
        assert_eq!(ws.buf[base..base + 16], o[..]);
        assert_eq!(ws.buf[base + 16..base + 20], lse[..]);
        // Other slots untouched.
        assert!(ws.buf[..base].iter().all(|&x| x == 0.0));
        assert!(ws.partial(0, 4, 4).0.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn partial_pair_views_are_the_two_slots_in_either_order() {
        let l = WorkspaceLayout::compute(2, 2, 4, 4, 64);
        let mut ws = Workspace::allocate(l);
        let (a, b) = (flat_states(0.3), flat_states(-1.5));
        ws.write_partial_flat(1, &a.0, &a.1, 4);
        ws.write_partial_flat(6, &b.0, &b.1, 4);
        for (dst, src, want_dst, want_src) in [(1, 6, &a, &b), (6, 1, &b, &a)] {
            let ((dst_o, dst_lse), src_views) = ws.partial_pair_mut(dst, src, 4, 4);
            assert_eq!((&*dst_o, &*dst_lse), (&want_dst.0[..], &want_dst.1[..]));
            assert_eq!(src_views, (&want_src.0[..], &want_src.1[..]));
        }
    }

    #[test]
    #[should_panic(expected = "states overflow partial slot")]
    fn oversized_partial_is_rejected() {
        let mut ws = Workspace::allocate(WorkspaceLayout::compute(1, 2, 4, 4, 64));
        let (o, lse) = flat_states(1.0);
        ws.write_partial_flat(0, &o, &lse, 4);
    }

    #[test]
    fn check_plan_bounds() {
        let layout = layout_for(64);
        let plan = balanced_plan(&layout, 8, CostModel::default()).unwrap();
        // Generous workspace passes.
        let ok = Workspace::allocate(WorkspaceLayout::compute(1, 2, 4, 8, 64));
        ok.check_plan(&plan, 2, 4).unwrap();
        // Too few CTAs declared -> too few partial slots.
        let small = Workspace::allocate(WorkspaceLayout::compute(1, 2, 4, 1, 64));
        if plan.num_partials > 2 {
            assert!(matches!(
                small.check_plan(&plan, 2, 4),
                Err(SchedError::WorkspaceTooSmall { .. })
            ));
        }
        // Taller tiles than declared.
        let short = Workspace::allocate(WorkspaceLayout::compute(1, 2, 4, 8, 64));
        let mut tall_plan = plan.clone();
        tall_plan.max_tile_rows = 99;
        assert!(short.check_plan(&tall_plan, 2, 4).is_err());
    }

    #[test]
    fn metadata_staging_counts_bytes() {
        let layout = layout_for(16);
        let plan = balanced_plan(&layout, 4, CostModel::default()).unwrap();
        let mut ws = Workspace::allocate(WorkspaceLayout::compute(1, 1, 4, 4, 64));
        ws.stage_plan_metadata(&plan).unwrap();
        let expected = (plan.num_items() * 6 + 4) * 4;
        assert_eq!(ws.metadata_bytes_staged(), expected as u64);
        ws.stage_plan_metadata(&plan).unwrap();
        assert_eq!(ws.metadata_bytes_staged(), 2 * expected as u64);
    }

    #[test]
    fn metadata_roundtrip() {
        let layout = layout_for(40);
        let plan = balanced_plan(&layout, 6, CostModel::default()).unwrap();
        let mut ws = Workspace::allocate(WorkspaceLayout::compute(1, 1, 4, 6, 256));
        ws.stage_plan_metadata(&plan).unwrap();
        let decoded = ws.decode_plan_metadata(plan.num_items());
        for ((cta_a, item_a), (cta_b, item_b)) in plan.iter_items().zip(&decoded) {
            assert_eq!(cta_a, *cta_b);
            assert_eq!(item_a.block_row, item_b.block_row);
            assert_eq!(item_a.kv_block_start, item_b.kv_block_start);
            assert_eq!(item_a.kv_block_end, item_b.kv_block_end);
            assert_eq!(item_a.chunk_index, item_b.chunk_index);
            assert_eq!(item_a.partial_index, item_b.partial_index);
        }
    }

    #[test]
    fn metadata_overflow_rejected() {
        let layout = layout_for(64);
        let plan = balanced_plan(&layout, 32, CostModel::default()).unwrap();
        let mut ws = Workspace::allocate(WorkspaceLayout::compute(1, 1, 4, 32, 1));
        assert!(ws.stage_plan_metadata(&plan).is_err());
    }
}
