//! Tree attention for speculative decoding (§3.1.1): a draft model
//! proposes a token *tree*; the target model scores every node in one
//! attention call where each node attends to the shared context plus its
//! ancestors only. The tree structure is a custom mask (Medusa/SpecInfer
//! style) carried by the block-sparse layout + `LogitsMask`.
//!
//! Run with: `cargo run --release --example speculative_tree`

use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use flashinfer::core::reference::reference_attention;
use flashinfer::core::scratch::KernelScratch;
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{CustomMaskAttention, VariantParams};
use flashinfer::sparse::csr::tree_mask;
use flashinfer::tensor::numerics::max_abs_diff;
use flashinfer::tensor::{RaggedTensor, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let heads = HeadConfig::new(4, 2, 32)?;
    let params = VariantParams::for_head_dim(heads.head_dim);

    // Draft tree over a 24-token shared context:
    //        0
    //       / \
    //      1   2
    //     / \   \
    //    3   4   5
    let parent = [usize::MAX, 0, 0, 1, 1, 2];
    let prefix_len = 24usize;
    let n_nodes = parent.len();
    let mask = tree_mask(&parent, prefix_len);
    println!(
        "tree mask: {} nodes x {} kv, {} visible pairs (dense would be {})",
        mask.rows(),
        mask.cols(),
        mask.nnz(),
        mask.rows() * mask.cols()
    );

    // KV = context + one entry per tree node; queries = the tree nodes.
    let l_kv = prefix_len + n_nodes;
    let k = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
        ((i * 11) as f32).sin() * 0.2
    });
    let v = Tensor::<f32>::from_fn(vec![l_kv, heads.kv_width()], |i| {
        ((i * 5) as f32).cos() * 0.3
    });
    let mut q = RaggedTensor::<f32>::from_seq_lens(&[n_nodes], heads.qo_width());
    for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
        *x = ((i * 17) as f32).sin() * 0.3;
    }

    // Coarse structure: the BSR cover of the mask (block granularity);
    // exact per-element visibility comes from LogitsMask, exactly as the
    // paper handles causal masks on top of block structure.
    let layout = mask.to_bsr(n_nodes, 4)?;
    println!(
        "BSR cover: {} block rows, {} nonzero blocks of width 4",
        layout.n_block_rows(),
        layout.nnz_blocks()
    );

    let variant = CustomMaskAttention {
        masks: vec![mask.clone()],
    };
    // Tree queries are simultaneous draft tokens: give every node the full
    // kv_len context so the custom mask is the only source of visibility.
    let row_meta: Vec<RowMeta> = (0..n_nodes)
        .map(|qo_pos| RowMeta {
            batch_idx: 0,
            qo_pos,
            qo_len: n_nodes,
            kv_len: l_kv,
        })
        .collect();
    let offsets = vec![0; layout.n_block_rows()];
    let problem = AttentionProblem::new(&q, &k, &v, &layout, heads, row_meta, offsets)?;
    let kern = FlashKernel {
        tile: TileConfig { tq: 4, tkv: 8 },
        head_fusion: true,
    };
    let mut scratch = KernelScratch::new();
    let out = kern.run_with_scratch(&problem, &variant, &params, &mut scratch)?;

    // Reference check.
    let r = reference_attention(
        &variant,
        &params,
        heads,
        0,
        q.seq(0),
        k.as_slice(),
        v.as_slice(),
    );
    let diff = max_abs_diff(out.o.seq(0), &r.o);
    println!("tree attention kernel vs reference: max diff = {diff:.2e}");
    assert!(diff < 1e-5);

    // Sanity: siblings must differ (they see disjoint ancestors), and a
    // node must differ from its parent (it additionally sees itself).
    let d = heads.head_dim;
    let node_out = |n: usize| &out.o.seq(0)[n * heads.qo_width()..n * heads.qo_width() + d];
    assert!(
        max_abs_diff(node_out(1), node_out(2)) > 1e-6,
        "siblings attend differently"
    );
    assert!(
        max_abs_diff(node_out(0), node_out(1)) > 1e-6,
        "child != parent"
    );
    println!("ok: one kernel call scored all {n_nodes} draft nodes under the tree mask.");
    Ok(())
}
