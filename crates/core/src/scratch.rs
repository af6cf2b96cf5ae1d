//! Reusable kernel scratch arena — the software analog of a CTA's
//! shared-memory allocation.
//!
//! The FA2-style kernel's working set — gather slot list, transformed query
//! tile, online-softmax accumulators (`m`/`l`/`acc`), staged K/V tiles
//! (untouched when KV rows are read in place from the pool), the logits
//! tile of one KV head, and the finalized per-state outputs — lives in one
//! per-thread [`KernelScratch`].
//!
//! While a chunk runs, per-state buffers are ordered **KV-head-major**,
//! `[kv_head][row][head in group]`, so the states that share a KV head —
//! the query rows of one QKᵀ block — are contiguous; the finalized
//! outputs are written back in the public `[row][qo_head]` order, as the
//! flat `(o, lse)` slice pair that is the one form an attention state takes
//! on any execution path ([`crate::state`]): consumers copy it into a
//! workspace slot, ⊕ it into an accumulator, or finalize it
//! ([`crate::kernel::finalize_tile`]) straight from here. Buffers are grown
//! monotonically with `clear()`/`resize()` (capacity is never released,
//! mirroring the plan/run workspace contract), so after a warmup call the
//! hot path
//! [`crate::kernel::FlashKernel::run_block_row_chunk_scratch`] performs zero
//! heap allocations: every chunk, block row, and pipeline invocation reuses
//! the same backing storage. See `crates/core/tests/alloc_free.rs` for the
//! counting-allocator proof.
//!
//! One scratch must only be used by one thread at a time (it is plain `Send`
//! owned data); every `fi-sched` pipeline, hence every runtime worker,
//! owns one, and every launch through the pipeline — plan/run or cascade —
//! uses that one.

use crate::state::AttentionState;

/// Per-thread scratch buffers for the flash kernel hot path.
///
/// Create once (e.g. per worker thread) and pass to every
/// `run_block_row_chunk_scratch` / `run_with_scratch` call. After a call
/// returns, the finalized states of that chunk are readable through
/// [`KernelScratch::out_o`] / [`KernelScratch::out_lse`] until the next
/// call overwrites them.
#[derive(Debug, Default)]
pub struct KernelScratch {
    /// Gathered KV slot indices for the current block row chunk.
    pub(crate) slots: Vec<usize>,
    /// Query rows after `query_transform`, `[n_states, d]`, KV-head-major.
    pub(crate) q_rows: Vec<f32>,
    /// Online-softmax running maxima, one per state, KV-head-major.
    pub(crate) m: Vec<f32>,
    /// Online-softmax running denominators, one per state, KV-head-major.
    pub(crate) l: Vec<f32>,
    /// Unnormalized output accumulators, `[n_states, d]`, KV-head-major.
    pub(crate) acc: Vec<f32>,
    /// Staged K tile, full kv width (`num_kv_heads * d`) per slot. Stays
    /// empty while every chunk is read in place.
    pub(crate) k_tile: Vec<f32>,
    /// Staged V tile, full kv width per slot.
    pub(crate) v_tile: Vec<f32>,
    /// Logits of one (KV chunk, KV head): `[states of the head, tkv]`,
    /// raw `q·k` first, then masked/transformed, then softmax weights.
    pub(crate) logits: Vec<f32>,
    /// Finalized outputs of the last chunk, `[n_states, d]` row-major.
    pub(crate) out_o: Vec<f32>,
    /// Finalized log-sum-exp values of the last chunk, one per state.
    pub(crate) out_lse: Vec<f32>,
}

impl KernelScratch {
    /// An empty scratch. No allocation happens until first use.
    pub fn new() -> KernelScratch {
        KernelScratch::default()
    }

    /// Finalized per-state outputs of the last chunk run, `[n_states, d]`
    /// row-major (state order: `row_local * num_qo_heads + qo_head`).
    pub fn out_o(&self) -> &[f32] {
        &self.out_o
    }

    /// Finalized per-state log-sum-exp values of the last chunk run.
    /// `NEG_INFINITY` marks an identity state (or a non-softmax variant).
    pub fn out_lse(&self) -> &[f32] {
        &self.out_lse
    }

    /// Number of states produced by the last chunk run.
    pub fn n_states(&self) -> usize {
        self.out_lse.len()
    }

    /// Materialize the last chunk's states as owned [`AttentionState`]s
    /// (one `Vec` per state) — for callers that merge chunks with ⊕ by
    /// hand (examples, tests); no execution path does.
    pub fn states(&self, d: usize) -> Vec<AttentionState> {
        self.out_lse
            .iter()
            .enumerate()
            .map(|(si, &lse)| AttentionState {
                o: self.out_o[si * d..(si + 1) * d].to_vec(),
                lse,
            })
            .collect()
    }

    /// Total bytes of backing storage currently reserved. Monotone
    /// non-decreasing across calls; used by tests to show steady-state
    /// reuse (capacity stops growing after warmup).
    pub fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<usize>()
            + (self.q_rows.capacity()
                + self.m.capacity()
                + self.l.capacity()
                + self.acc.capacity()
                + self.k_tile.capacity()
                + self.v_tile.capacity()
                + self.logits.capacity()
                + self.out_o.capacity()
                + self.out_lse.capacity())
                * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_materialize_flat_outputs() {
        let s = KernelScratch {
            out_o: vec![1.0, 2.0, 3.0, 4.0],
            out_lse: vec![0.5, f32::NEG_INFINITY],
            ..KernelScratch::default()
        };
        let states = s.states(2);
        assert_eq!(s.n_states(), 2);
        assert_eq!(states[0].o, vec![1.0, 2.0]);
        assert_eq!(states[0].lse, 0.5);
        assert_eq!(states[1].o, vec![3.0, 4.0]);
        assert!(states[1].is_identity());
    }

    #[test]
    fn capacity_accounts_all_buffers() {
        let mut s = KernelScratch::new();
        assert_eq!(s.capacity_bytes(), 0);
        s.slots.reserve_exact(4);
        s.acc.reserve_exact(8);
        // reserve_exact may legally round up, so compare against the actual
        // capacities rather than the requested ones.
        assert_eq!(
            s.capacity_bytes(),
            s.slots.capacity() * std::mem::size_of::<usize>()
                + s.acc.capacity() * std::mem::size_of::<f32>()
        );
        assert!(s.capacity_bytes() >= 4 * std::mem::size_of::<usize>());
    }
}
