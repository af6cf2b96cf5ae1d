//! The attention-composition (contraction) kernel (§3.3.1, Figure 6).
//!
//! Split tiles leave partial attention states in the workspace; this step
//! reduces each tile's chunk states with the ⊕ operator **where they lie**,
//! in a deterministic fixed tree order over ascending chunk index: round
//! `s = 1, 2, 4, …` folds slot `i + s` into slot `i` for `i = 0, 2s, 4s, …`
//! — adjacent pairs, an odd tail carried, which is exactly
//! [`fi_tensor::numerics::tree_reduce`]'s bracket. The paper deliberately
//! avoids Stream-K's atomic aggregation so identical inputs give identical
//! bits; sharing the bracket (held equal by test against `tree_reduce`
//! itself) means scheduler partial-merging and the distributed `all_reduce`
//! collective use one association. Variants without softmax reduce with
//! summation instead.

use fi_core::state::{merge_into, merge_sum_into};

use crate::workspace::Workspace;

/// ⊕ `n` planar states into `n` planar accumulators, state by state:
/// `acc[i] ⊕= (o, lse)[i]`, `n = lse.len()`, each of dim `d`.
pub(crate) fn merge_states(
    (acc_o, acc_lse): (&mut [f32], &mut [f32]),
    (o, lse): (&[f32], &[f32]),
    d: usize,
    use_softmax: bool,
) {
    if !use_softmax {
        merge_sum_into(acc_o, o);
        return;
    }
    for (i, (acc_lse, &lse)) in acc_lse.iter_mut().zip(lse).enumerate() {
        let at = i * d..(i + 1) * d;
        merge_into(&mut acc_o[at.clone()], acc_lse, &o[at], lse);
    }
}

/// Reduce one split tile's partials in place: `slots` are its workspace
/// slots in ascending chunk order (a merge group's `partial_indices`), each
/// holding `n` states of dim `d`. Returns the merged states — planar
/// `(o, lse)` views of the first slot.
///
/// # Panics
///
/// Panics if `slots` is empty or reaches outside the workspace layout.
pub fn contract<'w>(
    workspace: &'w mut Workspace,
    slots: &[usize],
    n: usize,
    d: usize,
    use_softmax: bool,
) -> (&'w [f32], &'w [f32]) {
    let mut s = 1;
    while s < slots.len() {
        for i in (0..slots.len() - s).step_by(2 * s) {
            let (acc, part) = workspace.partial_pair_mut(slots[i], slots[i + s], n, d);
            merge_states(acc, part, d, use_softmax);
        }
        s *= 2;
    }
    workspace.partial(slots[0], n, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{balanced_plan, CostModel, Plan};
    use crate::workspace::WorkspaceLayout;
    use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
    use fi_tensor::numerics::{allclose, tree_reduce};

    /// The balanced plan of one single-row tile over `kv` slots.
    fn one_tile_plan(kv: usize, num_ctas: usize) -> Plan {
        let entries = (0..kv)
            .map(|c| BlockEntry {
                col_block: c,
                len: 1,
            })
            .collect::<Vec<_>>();
        let layout = BlockSparseMatrix::new(1, kv, 1, vec![(0, 1, entries)]).unwrap();
        balanced_plan(&layout, num_ctas, CostModel::default()).unwrap()
    }

    /// One owned state: `(o, lse)`.
    type State = (Vec<f32>, f32);

    /// ⊕ written out here, independently of `fi_core::state`.
    fn merge(a: State, b: State, use_softmax: bool) -> State {
        if !use_softmax {
            let o = a.0.iter().zip(&b.0).map(|(x, y)| x + y).collect();
            return (o, f32::NEG_INFINITY);
        }
        if a.1 == f32::NEG_INFINITY {
            return b;
        }
        if b.1 == f32::NEG_INFINITY {
            return a;
        }
        let m = a.1.max(b.1);
        let (wa, wb) = ((a.1 - m).exp(), (b.1 - m).exp());
        let o = (a.0.iter().zip(&b.0))
            .map(|(&x, &y)| (wa * x + wb * y) / (wa + wb))
            .collect();
        (o, m + (wa + wb).ln())
    }

    fn mix(i: usize, salt: u64) -> f32 {
        let x = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(salt);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    /// Partial `p` of `n` states of dim `d`; every seventh state is an
    /// identity (a fully masked chunk), LSEs otherwise spread over ±6.
    fn partial(p: usize, n: usize, d: usize, use_softmax: bool) -> Vec<State> {
        (0..n)
            .map(|i| {
                let id = p * n + i;
                let o = (0..d).map(|j| 4.0 * mix(id * d + j, 7)).collect();
                let lse = if !use_softmax || id % 7 == 3 {
                    f32::NEG_INFINITY
                } else {
                    12.0 * mix(id, 11)
                };
                (o, lse)
            })
            .collect()
    }

    #[test]
    fn merges_in_fixed_tree_order_deterministically() {
        // One tile split into 3 chunks; manually write chunk states and
        // verify the merged result equals the direct merge.
        let plan = one_tile_plan(9, 3);
        assert_eq!(plan.num_partials, 3);
        let slots = &plan.merge_groups[0].partial_indices;

        let d = 2;
        let mut ws = Workspace::allocate(WorkspaceLayout::compute(1, 1, d, 3, 16));
        let chunks: Vec<State> = (0..3)
            .map(|i| (vec![i as f32, -(i as f32)], i as f32 * 0.4))
            .collect();
        let write = |ws: &mut Workspace| {
            for (pi, (o, lse)) in chunks.iter().enumerate() {
                ws.write_partial_flat(pi, o, &[*lse], d);
            }
        };
        write(&mut ws);
        let (o, lse) = contract(&mut ws, slots, 1, d, true);
        let (merged_o, merged_lse) = (o.to_vec(), lse[0]);
        let direct = chunks[1..]
            .iter()
            .fold(chunks[0].clone(), |a, b| merge(a, b.clone(), true));
        assert!(allclose(&merged_o, &direct.0, 1e-6, 1e-7));
        assert!((merged_lse - direct.1).abs() < 1e-6);

        // Re-running produces identical bits (determinism).
        write(&mut ws);
        let (o, lse) = contract(&mut ws, slots, 1, d, true);
        assert_eq!((o, lse[0]), (&merged_o[..], merged_lse));

        // The in-workspace reduction is `tree_reduce`'s bracket, bit for
        // bit: any partial count, state count and dimension, softmax and
        // summation, slots scattered and out of address order.
        for use_softmax in [true, false] {
            for n_partials in 1..=17usize {
                for (n, d) in [(1, 1), (3, 12), (8, 64), (2, 128), (5, 64)] {
                    let mut ws = Workspace::allocate(WorkspaceLayout::compute(n, 1, d, 17, 16));
                    let slots: Vec<usize> = (0..n_partials).map(|p| (p * 7 + 3) % 34).collect();
                    let parts: Vec<Vec<State>> = (0..n_partials)
                        .map(|p| partial(p, n, d, use_softmax))
                        .collect();
                    for (&slot, part) in slots.iter().zip(&parts) {
                        let o: Vec<f32> = part.iter().flat_map(|s| s.0.iter().copied()).collect();
                        let lse: Vec<f32> = part.iter().map(|s| s.1).collect();
                        ws.write_partial_flat(slot, &o, &lse, d);
                    }
                    let want = tree_reduce(parts, |a, b| {
                        (a.into_iter().zip(b))
                            .map(|(x, y)| merge(x, y, use_softmax))
                            .collect()
                    })
                    .unwrap();
                    let (o, lse) = contract(&mut ws, &slots, n, d, use_softmax);
                    for (i, (want_o, want_lse)) in want.iter().enumerate() {
                        let got: Vec<u32> =
                            o[i * d..(i + 1) * d].iter().map(|x| x.to_bits()).collect();
                        let want_o: Vec<u32> = want_o.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(
                            got, want_o,
                            "{n_partials} partials, state {i} of {n}, d {d}"
                        );
                        assert_eq!(lse[i].to_bits(), want_lse.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn sum_semantics_for_non_softmax() {
        let plan = one_tile_plan(4, 2);
        let d = 1;
        let mut ws = Workspace::allocate(WorkspaceLayout::compute(1, 1, d, 2, 16));
        for pi in 0..plan.num_partials {
            ws.write_partial_flat(pi, &[1.5], &[f32::NEG_INFINITY], d);
        }
        let slots = &plan.merge_groups[0].partial_indices;
        let (o, lse) = contract(&mut ws, slots, 1, d, false);
        assert_eq!(o, [1.5 * plan.num_partials as f32]);
        assert_eq!(lse, [f32::NEG_INFINITY]);
    }
}
