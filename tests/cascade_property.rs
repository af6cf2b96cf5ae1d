//! Property gate for cascade grouping (randomized): build live radix
//! trees from random prefix/member traffic, derive decode groups exactly
//! the way the runtime scheduler does (group by matched radix node), and
//! check across GQA shapes that
//!
//! 1. the fused [`CascadeDecodeGroup`] run is **bitwise identical** to
//!    replaying every member through its own single-member group — the
//!    invariant that lets the runtime fuse opportunistically without ever
//!    changing results, and
//! 2. the two-level result agrees with a flat single-level reference over
//!    the concatenated (prefix + suffix) page table to f32 tolerance —
//!    the cascade decomposition computes the same attention, and
//! 3. fusing strictly reduces staged KV rows whenever a group has ≥ 2
//!    members (`gather_slots < flat_gather_slots`).

use std::collections::HashMap;

use flashinfer::core::config::HeadConfig;
use flashinfer::core::kernel::{AttentionProblem, FlashKernel, RowMeta};
use flashinfer::core::tiles::TileConfig;
use flashinfer::core::variant::{VanillaAttention, VariantParams};
use flashinfer::kvcache::paged::{PagedKvCache, PagedKvConfig};
use flashinfer::kvcache::RadixTree;
use flashinfer::runtime::{kv_row, prefix_token, q_row};
use flashinfer::sched::pipeline::AttentionPipeline;
use flashinfer::sched::pipeline::SchedulePolicy;
use flashinfer::sched::plan::CostModel;
use flashinfer::sched::CascadeDecodeGroup;
use flashinfer::sparse::page::PageTable;
use flashinfer::tensor::RaggedTensor;

/// SplitMix64: deterministic pseudo-random stream (no external RNG dep).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Member {
    id: u64,
    seed: u64,
    suffix: usize,
    prefix_idx: usize,
}

fn allclose(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-5 + 1e-5 * y.abs())
}

fn pipeline(tile: TileConfig) -> AttentionPipeline {
    AttentionPipeline::new(
        FlashKernel {
            tile,
            head_fusion: true,
        },
        4,
        CostModel::default(),
        SchedulePolicy::Balanced,
        flashinfer::core::arch::Arch::Hopper,
    )
    .unwrap()
}

/// Flat page table: owner pages (all full — prefix lengths are page
/// multiples) followed by the member's own pages.
fn flat_table(owner: &PageTable, member: &PageTable, num_pages: usize) -> PageTable {
    let ps = owner.page_size();
    let mut pages = owner.request_pages(0).to_vec();
    pages.extend_from_slice(member.request_pages(0));
    let last = member.kv_len(0) - (member.request_pages(0).len() - 1) * ps;
    PageTable::new(ps, num_pages, vec![pages], vec![last]).unwrap()
}

#[test]
fn random_radix_groups_are_bitwise_stable_and_match_flat_reference() {
    let shapes = [
        HeadConfig::new(2, 1, 16).unwrap(),
        HeadConfig::new(4, 2, 8).unwrap(),
        HeadConfig::new(8, 2, 4).unwrap(),
    ];
    for (si, heads) in shapes.iter().enumerate() {
        for case in 0..6u64 {
            let mut rng = Rng(0xFACADE ^ (si as u64) << 32 ^ case);
            let ps = [2usize, 4][rng.below(2)];
            let tile = TileConfig { tq: 4, tkv: 8 };
            let (kvw, qow) = (heads.kv_width(), heads.qo_width());
            let num_pages = 512;
            let mut cache = PagedKvCache::<f32>::new(PagedKvConfig {
                page_size: ps,
                num_pages,
                num_kv_heads: heads.num_kv_heads,
                head_dim: heads.head_dim,
            })
            .unwrap();
            let mut tree = RadixTree::new();

            // Random shared prefixes, stored once under owner requests and
            // registered in the radix tree slot-for-slot.
            let n_prefixes = 1 + rng.below(3);
            let mut prefixes = Vec::new(); // (seed, plen, owner_pt)
            for p in 0..n_prefixes {
                let seed = 0x1000 + p as u64;
                let plen = (1 + rng.below(4)) * ps;
                let owner_id = 1000 + p as u64;
                cache.add_request(owner_id).unwrap();
                for pos in 0..plen {
                    cache
                        .append(
                            owner_id,
                            &kv_row(seed, pos, kvw, false),
                            &kv_row(seed, pos, kvw, true),
                        )
                        .unwrap();
                }
                let pt = cache.page_table(&[owner_id]).unwrap();
                let tokens: Vec<u32> = (0..plen).map(|i| prefix_token(seed, i)).collect();
                let slots: Vec<usize> = (0..plen).map(|i| pt.slot_of(0, i)).collect();
                tree.insert(&tokens, &slots).unwrap();
                prefixes.push((seed, plen, pt));
            }

            // Random members, each attached to one prefix with its own
            // suffix rows at global positions plen..plen+suffix.
            let mut members = Vec::new();
            for m in 0..(2 + rng.below(6)) {
                let prefix_idx = rng.below(n_prefixes);
                let (pseed, plen, _) = prefixes[prefix_idx];
                let _ = pseed;
                let id = m as u64;
                let seed = 0x9_0000 + rng.next() % 0xFFFF;
                let suffix = 1 + rng.below(12);
                cache.add_request(id).unwrap();
                for j in 0..suffix {
                    cache
                        .append(
                            id,
                            &kv_row(seed, plen + j, kvw, false),
                            &kv_row(seed, plen + j, kvw, true),
                        )
                        .unwrap();
                }
                members.push(Member {
                    id,
                    seed,
                    suffix,
                    prefix_idx,
                });
            }

            // Group exactly as the scheduler does: match each member's
            // prefix token stream against the live tree and key the group
            // on the matched node.
            let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
            let mut order = Vec::new();
            for (mi, m) in members.iter().enumerate() {
                let (pseed, plen, _) = prefixes[m.prefix_idx];
                let tokens: Vec<u32> = (0..plen).map(|i| prefix_token(pseed, i)).collect();
                let pm = tree.match_prefix(&tokens);
                assert_eq!(pm.matched_tokens, plen, "stored prefix must fully match");
                let node = pm.node_id();
                if !groups.contains_key(&node) {
                    order.push(node);
                }
                groups.entry(node).or_default().push(mi);
            }

            let params = VariantParams::for_head_dim(heads.head_dim);
            let variant = VanillaAttention { causal: true };
            let mut pipe = pipeline(tile);

            for node in order {
                let idxs = &groups[&node];
                let (_, plen, ref owner_pt) = prefixes[members[idxs[0]].prefix_idx];
                let pts: Vec<PageTable> = idxs
                    .iter()
                    .map(|&mi| cache.page_table(&[members[mi].id]).unwrap())
                    .collect();
                let group = CascadeDecodeGroup::from_page_tables(owner_pt, &pts, plen).unwrap();
                assert_eq!(group.group_size(), idxs.len());
                if idxs.len() >= 2 {
                    assert!(
                        group.gather_slots() < group.flat_gather_slots(),
                        "fusing {} members must stage fewer rows",
                        idxs.len()
                    );
                }

                // One decode row per member at its current timeline end.
                let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; idxs.len()], qow);
                let mut meta = Vec::new();
                for (r, &mi) in idxs.iter().enumerate() {
                    let m = &members[mi];
                    let pos = plen + m.suffix;
                    q.as_tensor_mut().as_mut_slice()[r * qow..(r + 1) * qow]
                        .copy_from_slice(&q_row(m.seed, pos, qow));
                    meta.push(RowMeta {
                        batch_idx: r,
                        qo_pos: 0,
                        qo_len: 1,
                        kv_len: pos,
                    });
                }
                let fused = group
                    .run(
                        &mut pipe,
                        &q,
                        cache.k_pool(),
                        cache.v_pool(),
                        *heads,
                        &meta,
                        &variant,
                        &params,
                        None,
                    )
                    .unwrap();

                for (r, &mi) in idxs.iter().enumerate() {
                    let m = &members[mi];
                    let pos = plen + m.suffix;
                    // (1) Singleton replay must agree bit-for-bit.
                    let solo_group = CascadeDecodeGroup::from_page_tables(
                        owner_pt,
                        std::slice::from_ref(&pts[r]),
                        plen,
                    )
                    .unwrap();
                    let mut solo_q = RaggedTensor::<f32>::from_seq_lens(&[1], qow);
                    solo_q
                        .as_tensor_mut()
                        .as_mut_slice()
                        .copy_from_slice(&q_row(m.seed, pos, qow));
                    let solo_meta = [RowMeta {
                        batch_idx: 0,
                        qo_pos: 0,
                        qo_len: 1,
                        kv_len: pos,
                    }];
                    let solo = solo_group
                        .run(
                            &mut pipe,
                            &solo_q,
                            cache.k_pool(),
                            cache.v_pool(),
                            *heads,
                            &solo_meta,
                            &variant,
                            &params,
                            None,
                        )
                        .unwrap();
                    assert!(
                        fused.o.seq(r) == solo.o.seq(0),
                        "shape {si} case {case}: fused member {r} of {} diverged \
                         from its singleton replay (group width leaked into bits)",
                        idxs.len()
                    );

                    // (2) Flat single-level reference over the stitched
                    // table agrees to f32 tolerance.
                    let ft = flat_table(owner_pt, &pts[r], num_pages);
                    let layout = ft.to_bsr(&[1], tile.tq).unwrap();
                    let problem = AttentionProblem::standard_batch(
                        &solo_q,
                        cache.k_pool(),
                        cache.v_pool(),
                        &layout,
                        *heads,
                        &[pos],
                    )
                    .unwrap();
                    pipe.plan(&layout, heads.num_qo_heads, heads.head_dim)
                        .unwrap();
                    let flat = pipe.run(&problem, &variant, &params).unwrap();
                    assert!(
                        allclose(fused.o.seq(r), flat.o.seq(0)),
                        "shape {si} case {case}: cascade diverged from flat reference"
                    );
                }
            }
        }
    }
}
