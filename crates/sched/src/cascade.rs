//! Multi-level cascade attention: hierarchical shared prefixes.
//!
//! Composable formats (§3.1.2) generalize past one level: a system prompt
//! shared by *all* requests, per-tenant prefixes shared by groups, and
//! unique suffixes form a **prefix tree**. FlashInfer's
//! `MultiLevelCascadeAttentionWrapper` runs one kernel per tree depth —
//! each with block rows as tall as that level's sharing — and composes the
//! per-level attention states with ⊕ (§2.2, "multi-level, multiple-prefix
//! decoding with unified page table management", §5.1).
//!
//! [`PrefixTree`] describes the hierarchy; [`CascadeAttention`] lowers it
//! to one [`fi_sparse::BlockSparseMatrix`] per level (validated disjoint).
//! Execution is the pipeline's: both cascade types hand their levels to the
//! one cascade body of [`AttentionPipeline`], which merges states
//! deterministically level by level.

#![allow(clippy::type_complexity)]

use fi_core::config::HeadConfig;
use fi_core::kernel::{KernelOutput, RowMeta};
use fi_core::variant::{AttentionVariant, VariantParams};
use fi_sparse::bsr::{BlockEntry, BlockSparseMatrix};
use fi_sparse::{ComposableFormat, PageTable};
use fi_tensor::{RaggedTensor, Scalar, Tensor};

use crate::error::SchedError;
use crate::pipeline::AttentionPipeline;

/// One node of the prefix tree: a KV span shared by a contiguous range of
/// query rows, with children sharing sub-ranges.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PrefixNode {
    /// First query row covered by this node.
    pub row_start: usize,
    /// One past the last covered query row.
    pub row_end: usize,
    /// The KV blocks this node owns (visible to all covered rows).
    pub kv_blocks: Vec<BlockEntry>,
    /// Timeline position of this span's first slot within the covered
    /// requests' KV sequences.
    pub kv_offset: usize,
    /// Children covering sub-ranges of `row_start..row_end`.
    pub children: Vec<PrefixNode>,
}

impl PrefixNode {
    fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PrefixNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// A forest of prefix nodes over one (rows × KV slots) plane.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PrefixTree {
    /// Root nodes (depth-0 spans, e.g. the global system prompt).
    pub roots: Vec<PrefixNode>,
    /// Total query rows.
    pub rows: usize,
    /// KV slot pool size.
    pub cols: usize,
    /// Column block width (page size).
    pub bc: usize,
}

/// One cascade level: the layout plus per-block-row timeline offsets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CascadeLevel {
    /// Block-sparse layout of this level.
    pub layout: BlockSparseMatrix,
    /// Timeline offset per block row.
    pub kv_pos_offsets: Vec<usize>,
}

/// An executable multi-level cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeAttention {
    levels: Vec<CascadeLevel>,
    rows: usize,
    cols: usize,
}

impl CascadeAttention {
    /// Lower a prefix tree into per-depth levels and validate that the
    /// union of levels covers each (row, slot) pair at most once.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] for malformed trees (children
    /// outside the parent's rows, overlapping coverage, bad geometry).
    pub fn from_prefix_tree(tree: &PrefixTree) -> Result<CascadeAttention, SchedError> {
        let depth = tree.roots.iter().map(PrefixNode::depth).max().unwrap_or(0);
        let mut per_level: Vec<Vec<(usize, usize, Vec<BlockEntry>, usize)>> =
            vec![Vec::new(); depth];

        fn walk(
            node: &PrefixNode,
            level: usize,
            out: &mut [Vec<(usize, usize, Vec<BlockEntry>, usize)>],
        ) -> Result<(), SchedError> {
            for c in &node.children {
                if c.row_start < node.row_start || c.row_end > node.row_end {
                    return Err(SchedError::InvalidConfig(format!(
                        "child rows {}..{} escape parent {}..{}",
                        c.row_start, c.row_end, node.row_start, node.row_end
                    )));
                }
                walk(c, level + 1, out)?;
            }
            if !node.kv_blocks.is_empty() {
                out[level].push((
                    node.row_start,
                    node.row_end,
                    node.kv_blocks.clone(),
                    node.kv_offset,
                ));
            }
            Ok(())
        }
        for r in &tree.roots {
            walk(r, 0, &mut per_level)?;
        }

        let mut levels = Vec::with_capacity(depth);
        for mut rows_spec in per_level {
            rows_spec.sort_by_key(|&(s, _, _, _)| s);
            let offsets: Vec<usize> = rows_spec.iter().map(|&(_, _, _, o)| o).collect();
            let block_rows: Vec<(usize, usize, Vec<BlockEntry>)> = rows_spec
                .into_iter()
                .map(|(s, e, b, _)| (s, e, b))
                .collect();
            let layout = BlockSparseMatrix::new(tree.rows, tree.cols, tree.bc, block_rows)
                .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
            levels.push(CascadeLevel {
                layout,
                kv_pos_offsets: offsets,
            });
        }

        // Disjointness across all levels (the ⊕ precondition).
        let parts: Vec<BlockSparseMatrix> = levels.iter().map(|l| l.layout.clone()).collect();
        if !parts.is_empty() {
            ComposableFormat::new(parts)
                .and_then(|f| f.verify_disjoint())
                .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
        }
        Ok(CascadeAttention {
            levels,
            rows: tree.rows,
            cols: tree.cols,
        })
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The per-level layouts (for planning / cost evaluation).
    pub fn levels(&self) -> &[CascadeLevel] {
        &self.levels
    }

    /// Total KV slots gathered across levels (the quantity the cascade
    /// minimizes — see `ComposableFormat::gather_slots`).
    pub fn gather_slots(&self) -> usize {
        self.levels
            .iter()
            .map(|l| {
                (0..l.layout.n_block_rows())
                    .map(|i| l.layout.block_row_kv_len(i))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Execute the cascade: plan each level through the shared
    /// [`AttentionPipeline`] (one stage per level, all sharing the
    /// pipeline's shape-keyed plan cache), run the planned work items, and
    /// fold the states with ⊕ as one running left fold per `(row, head)` —
    /// levels in order, within a level the tile's chunks in ascending
    /// chunk index.
    ///
    /// `row_meta` carries each query row's request identity and *total*
    /// lengths (across all levels), exactly as in single-format problems.
    ///
    /// # Errors
    ///
    /// Propagates planning, problem-construction, and kernel errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run<TQ: Scalar, TKV: Scalar>(
        &self,
        pipeline: &mut AttentionPipeline,
        q: &RaggedTensor<TQ>,
        k: &Tensor<TKV>,
        v: &Tensor<TKV>,
        heads: HeadConfig,
        row_meta: &[RowMeta],
        variant: &dyn AttentionVariant,
        params: &VariantParams,
    ) -> Result<KernelOutput, SchedError> {
        pipeline.run_levels(
            &self.levels,
            q,
            k,
            v,
            heads,
            row_meta,
            variant,
            params,
            None,
        )
    }
}

/// A two-level cascade over one shared-prefix decode group, built from
/// prebuilt page tables: the prefix owner's table (staged once for every
/// member) and one suffix table per member.
///
/// This is the runtime-facing bridge between the radix prefix cache and
/// [`CascadeAttention`]: the scheduler resolves `match_prefix` hits into
/// page tables, and this type lowers them through
/// [`CascadeAttention::from_prefix_tree`] for validation (tree geometry +
/// cross-level disjointness) while keeping an execution shape with a
/// stronger property than the generic cascade: **grouping never changes
/// bits**. A group of G members produces, row for row, exactly the bits of
/// G single-member groups, because
///
/// - the prefix level is one block row whose planner chunk bound
///   `L_kv = ceil(prefix_kv / num_ctas)` depends only on the prefix length,
///   not on how many query rows the block row covers, and the kernel's
///   online-softmax state per (row, head) is independent of the other rows
///   in the tile;
/// - each suffix is its *own* single-block-row level, planned
///   independently, so one member's suffix length can never move another
///   member's chunk boundaries (a joint suffix layout would couple them
///   through the shared `L_kv`).
///
/// Execution folds levels with ⊕ in a fixed order — prefix first, then the
/// member's own suffix — which is the same left-fold a single-member group
/// performs. The flat path gathers `prefix + suffix` KV rows per member;
/// the group gathers the prefix once ([`CascadeDecodeGroup::gather_slots`]
/// vs [`CascadeDecodeGroup::flat_gather_slots`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeDecodeGroup {
    prefix_level: CascadeLevel,
    suffix_levels: Vec<CascadeLevel>,
    rows: usize,
    prefix_len: usize,
    suffix_lens: Vec<usize>,
}

/// Full-page-then-partial block entries for request `i` of a page table.
fn table_entries(pt: &PageTable, i: usize) -> Vec<BlockEntry> {
    let ps = pt.page_size();
    let pages = pt.request_pages(i);
    let kv = pt.kv_len(i);
    pages
        .iter()
        .enumerate()
        .map(|(j, &p)| BlockEntry {
            col_block: p,
            len: if j + 1 == pages.len() {
                kv - (pages.len() - 1) * ps
            } else {
                ps
            },
        })
        .collect()
}

impl CascadeDecodeGroup {
    /// Build the group's levels from prebuilt page tables.
    ///
    /// `owner` holds the shared prefix (batch size 1, exactly
    /// `prefix_len` KV slots, which must be a whole number of pages so
    /// every owner page is full); `members[r]` holds member `r`'s suffix
    /// (batch size 1, at least one slot — a decode always attends to at
    /// least its own prompt tail). All tables must address the same pool.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidConfig`] on shape violations, and
    /// propagates [`CascadeAttention::from_prefix_tree`] errors — in
    /// particular the cross-level disjointness check, which catches any
    /// physical page shared between the owner and a suffix.
    pub fn from_page_tables<'m>(
        owner: &PageTable,
        members: impl IntoIterator<Item = &'m PageTable>,
        prefix_len: usize,
    ) -> Result<CascadeDecodeGroup, SchedError> {
        let members: Vec<&PageTable> = members.into_iter().collect();
        if members.is_empty() {
            return Err(SchedError::InvalidConfig("empty cascade group".into()));
        }
        let ps = owner.page_size();
        let cols = owner.num_pages() * ps;
        if owner.batch_size() != 1 {
            return Err(SchedError::InvalidConfig(format!(
                "prefix owner table has batch size {}, want 1",
                owner.batch_size()
            )));
        }
        if prefix_len == 0 || !prefix_len.is_multiple_of(ps) {
            return Err(SchedError::InvalidConfig(format!(
                "prefix length {prefix_len} is not a positive multiple of page size {ps}"
            )));
        }
        if owner.kv_len(0) != prefix_len {
            return Err(SchedError::InvalidConfig(format!(
                "prefix owner holds {} KV slots, want {prefix_len}",
                owner.kv_len(0)
            )));
        }
        let rows = members.len();
        let mut suffix_lens = Vec::with_capacity(rows);
        for (r, m) in members.iter().enumerate() {
            if m.batch_size() != 1 {
                return Err(SchedError::InvalidConfig(format!(
                    "member {r} table has batch size {}, want 1",
                    m.batch_size()
                )));
            }
            if m.page_size() != ps || m.num_pages() != owner.num_pages() {
                return Err(SchedError::InvalidConfig(format!(
                    "member {r} pool geometry ({}, {}) != owner ({ps}, {})",
                    m.page_size(),
                    m.num_pages(),
                    owner.num_pages()
                )));
            }
            if m.kv_len(0) == 0 {
                return Err(SchedError::InvalidConfig(format!(
                    "member {r} has no suffix KV"
                )));
            }
            suffix_lens.push(m.kv_len(0));
        }

        // Validate through the generic lowering: one root (the prefix,
        // covering all rows) with one child per member (its suffix). This
        // checks tree geometry, BSR construction, and that no (row, slot)
        // is covered twice across levels.
        let owner_blocks = table_entries(owner, 0);
        let tree = PrefixTree {
            roots: vec![PrefixNode {
                row_start: 0,
                row_end: rows,
                kv_blocks: owner_blocks.clone(),
                kv_offset: 0,
                children: members
                    .iter()
                    .enumerate()
                    .map(|(r, m)| PrefixNode {
                        row_start: r,
                        row_end: r + 1,
                        kv_blocks: table_entries(m, 0),
                        kv_offset: prefix_len,
                        children: vec![],
                    })
                    .collect(),
            }],
            rows,
            cols,
            bc: ps,
        };
        let validated = CascadeAttention::from_prefix_tree(&tree)?;
        let prefix_level = validated.levels()[0].clone();

        // Per-member suffix levels: each is its own layout so the planner
        // chunks it independently of the rest of the group.
        let suffix_levels = members
            .iter()
            .enumerate()
            .map(|(r, m)| {
                let layout =
                    BlockSparseMatrix::new(rows, cols, ps, vec![(r, r + 1, table_entries(m, 0))])
                        .map_err(|e| SchedError::InvalidConfig(e.to_string()))?;
                Ok(CascadeLevel {
                    layout,
                    kv_pos_offsets: vec![prefix_len],
                })
            })
            .collect::<Result<Vec<_>, SchedError>>()?;

        Ok(CascadeDecodeGroup {
            prefix_level,
            suffix_levels,
            rows,
            prefix_len,
            suffix_lens,
        })
    }

    /// Number of members (query rows).
    pub fn group_size(&self) -> usize {
        self.rows
    }

    /// Shared-prefix KV length.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Per-member suffix KV lengths.
    pub fn suffix_lens(&self) -> &[usize] {
        &self.suffix_lens
    }

    /// KV slots this group gathers: the prefix once plus every suffix.
    pub fn gather_slots(&self) -> usize {
        self.prefix_len + self.suffix_lens.iter().sum::<usize>()
    }

    /// KV slots the flat path would gather: the prefix *per member*.
    pub fn flat_gather_slots(&self) -> usize {
        self.rows * self.prefix_len + self.suffix_lens.iter().sum::<usize>()
    }

    /// Execute the group: [`CascadeAttention::run`]'s body over the prefix
    /// level, then every suffix level (each hits the shape-keyed plan cache
    /// independently). `row_meta[r].kv_len` must be the full timeline
    /// length `prefix_len + suffix_lens[r]`.
    ///
    /// `dequant` optionally attaches per-KV-head dequantization scales
    /// (the reduced-precision KV path), applied during staging at every
    /// level exactly as the flat paged path applies them.
    ///
    /// # Errors
    ///
    /// Propagates planning, problem-construction, and kernel errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run<TQ: Scalar, TKV: Scalar>(
        &self,
        pipeline: &mut AttentionPipeline,
        q: &RaggedTensor<TQ>,
        k: &Tensor<TKV>,
        v: &Tensor<TKV>,
        heads: HeadConfig,
        row_meta: &[RowMeta],
        variant: &dyn AttentionVariant,
        params: &VariantParams,
        dequant: Option<(&[f32], &[f32])>,
    ) -> Result<KernelOutput, SchedError> {
        pipeline.run_levels(
            std::iter::once(&self.prefix_level).chain(&self.suffix_levels),
            q,
            k,
            v,
            heads,
            row_meta,
            variant,
            params,
            dequant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fi_core::kernel::{AttentionProblem, FlashKernel};
    use fi_core::scratch::KernelScratch;
    use fi_core::tiles::TileConfig;
    use fi_core::variant::VanillaAttention;
    use fi_tensor::numerics::allclose;

    /// Three-level tree: global prompt (8 slots, all 4 rows) -> two group
    /// prefixes (4 slots, 2 rows each) -> unique tails (2 slots per row).
    fn three_level_case() -> (PrefixTree, Vec<usize>) {
        let rows = 4usize;
        let global = 8usize;
        let group = 4usize;
        let unique = 2usize;
        let cols = global + 2 * group + rows * unique;
        let group_base = |g: usize| global + g * group;
        let unique_base = |r: usize| global + 2 * group + r * unique;
        let blocks = |base: usize, n: usize| {
            (0..n)
                .map(|i| BlockEntry {
                    col_block: base + i,
                    len: 1,
                })
                .collect::<Vec<_>>()
        };
        let roots = vec![PrefixNode {
            row_start: 0,
            row_end: rows,
            kv_blocks: blocks(0, global),
            kv_offset: 0,
            children: (0..2)
                .map(|g| PrefixNode {
                    row_start: g * 2,
                    row_end: g * 2 + 2,
                    kv_blocks: blocks(group_base(g), group),
                    kv_offset: global,
                    children: (0..2)
                        .map(|r| {
                            let row = g * 2 + r;
                            PrefixNode {
                                row_start: row,
                                row_end: row + 1,
                                kv_blocks: blocks(unique_base(row), unique),
                                kv_offset: global + group,
                                children: vec![],
                            }
                        })
                        .collect(),
                })
                .collect(),
        }];
        let kv_lens = vec![global + group + unique; rows];
        (
            PrefixTree {
                roots,
                rows,
                cols,
                bc: 1,
            },
            kv_lens,
        )
    }

    #[test]
    fn tree_lowers_to_three_levels() {
        let (tree, _) = three_level_case();
        let c = CascadeAttention::from_prefix_tree(&tree).unwrap();
        assert_eq!(c.num_levels(), 3);
        assert_eq!(c.levels()[0].layout.n_block_rows(), 1); // global
        assert_eq!(c.levels()[1].layout.n_block_rows(), 2); // groups
        assert_eq!(c.levels()[2].layout.n_block_rows(), 4); // uniques
                                                            // Gathers: 8 + 2*4 + 4*2 = 24 vs single-format 4 * 14 = 56.
        assert_eq!(c.gather_slots(), 24);
    }

    #[test]
    fn cascade_matches_single_format() {
        let (tree, kv_lens) = three_level_case();
        let heads = HeadConfig::new(2, 1, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let mix = |i: usize, s: u64| {
            let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; tree.rows], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mix(i, 1);
        }
        let k = Tensor::<f32>::from_fn(vec![tree.cols, heads.kv_width()], |i| mix(i, 2));
        let v = Tensor::<f32>::from_fn(vec![tree.cols, heads.kv_width()], |i| mix(i, 3));
        let row_meta: Vec<RowMeta> = (0..tree.rows)
            .map(|b| RowMeta {
                batch_idx: b,
                qo_pos: 0,
                qo_len: 1,
                kv_len: kv_lens[b],
            })
            .collect();
        let kernel = FlashKernel {
            tile: TileConfig { tq: 1, tkv: 4 },
            head_fusion: true,
        };
        let mut pipeline = AttentionPipeline::new(
            kernel,
            8,
            crate::plan::CostModel::default(),
            crate::pipeline::SchedulePolicy::Balanced,
            fi_core::arch::Arch::Ampere,
        )
        .unwrap();

        let cascade = CascadeAttention::from_prefix_tree(&tree).unwrap();
        let out = cascade
            .run(
                &mut pipeline,
                &q,
                &k,
                &v,
                heads,
                &row_meta,
                &variant,
                &params,
            )
            .unwrap();
        // Three levels, three distinct shapes: all planned, none cached yet.
        assert_eq!(pipeline.stats().plans_computed, 3);
        // A second step with identical shapes is served from the cache.
        cascade
            .run(
                &mut pipeline,
                &q,
                &k,
                &v,
                heads,
                &row_meta,
                &variant,
                &params,
            )
            .unwrap();
        assert_eq!(pipeline.stats().plans_computed, 3);
        assert_eq!(pipeline.stats().plan_cache_hits, 3);

        // Single-format equivalent: each row sees its full slot set.
        let single_rows: Vec<(usize, usize, Vec<BlockEntry>)> = (0..tree.rows)
            .map(|r| {
                let g = r / 2;
                let mut b: Vec<BlockEntry> = (0..8)
                    .map(|i| BlockEntry {
                        col_block: i,
                        len: 1,
                    })
                    .collect();
                b.extend((0..4).map(|i| BlockEntry {
                    col_block: 8 + g * 4 + i,
                    len: 1,
                }));
                b.extend((0..2).map(|i| BlockEntry {
                    col_block: 16 + r * 2 + i,
                    len: 1,
                }));
                (r, r + 1, b)
            })
            .collect();
        let single = BlockSparseMatrix::new(tree.rows, tree.cols, 1, single_rows).unwrap();
        let problem =
            AttentionProblem::standard_batch(&q, &k, &v, &single, heads, &kv_lens).unwrap();
        let direct = kernel
            .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new())
            .unwrap();

        for r in 0..tree.rows {
            assert!(
                allclose(out.o.seq(r), direct.o.seq(r), 1e-5, 1e-6),
                "row {r}: cascade != single"
            );
        }
        for (a, b) in out.lse.iter().zip(&direct.lse) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn overlapping_tree_rejected() {
        // Two roots covering the same rows AND slots.
        let node = PrefixNode {
            row_start: 0,
            row_end: 2,
            kv_blocks: vec![BlockEntry {
                col_block: 0,
                len: 1,
            }],
            kv_offset: 0,
            children: vec![],
        };
        let tree = PrefixTree {
            roots: vec![node.clone(), node],
            rows: 2,
            cols: 4,
            bc: 1,
        };
        // Same-level duplicate block rows already violate BSR geometry
        // (overlapping row ranges) — rejected at lowering.
        assert!(CascadeAttention::from_prefix_tree(&tree).is_err());
    }

    #[test]
    fn child_escaping_parent_rejected() {
        let tree = PrefixTree {
            roots: vec![PrefixNode {
                row_start: 0,
                row_end: 2,
                kv_blocks: vec![],
                kv_offset: 0,
                children: vec![PrefixNode {
                    row_start: 1,
                    row_end: 3,
                    kv_blocks: vec![BlockEntry {
                        col_block: 0,
                        len: 1,
                    }],
                    kv_offset: 0,
                    children: vec![],
                }],
            }],
            rows: 3,
            cols: 4,
            bc: 1,
        };
        assert!(CascadeAttention::from_prefix_tree(&tree).is_err());
    }

    #[test]
    fn empty_tree_is_fine() {
        let tree = PrefixTree {
            roots: vec![],
            rows: 2,
            cols: 4,
            bc: 1,
        };
        let c = CascadeAttention::from_prefix_tree(&tree).unwrap();
        assert_eq!(c.num_levels(), 0);
        assert_eq!(c.gather_slots(), 0);
    }

    /// ps=4 pool, owner prefix of 8 slots (pages 0-1), three members with
    /// suffix lengths 3, 5, 1 on disjoint pages.
    fn group_case() -> (PageTable, Vec<PageTable>, usize) {
        let ps = 4;
        let np = 16;
        let owner = PageTable::new(ps, np, vec![vec![0, 1]], vec![4]).unwrap();
        let members = vec![
            PageTable::new(ps, np, vec![vec![2]], vec![3]).unwrap(),
            PageTable::new(ps, np, vec![vec![3, 4]], vec![1]).unwrap(),
            PageTable::new(ps, np, vec![vec![5]], vec![1]).unwrap(),
        ];
        (owner, members, 8)
    }

    fn mixd(i: usize, s: u64) -> f32 {
        let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(s);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    }

    fn test_pipeline(tkv: usize) -> AttentionPipeline {
        AttentionPipeline::new(
            FlashKernel {
                tile: TileConfig { tq: 4, tkv },
                head_fusion: true,
            },
            8,
            crate::plan::CostModel::default(),
            crate::pipeline::SchedulePolicy::Balanced,
            fi_core::arch::Arch::Hopper,
        )
        .unwrap()
    }

    #[test]
    fn decode_group_matches_singletons_bitwise() {
        let (owner, members, prefix) = group_case();
        let heads = HeadConfig::new(4, 2, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let cols = owner.num_pages() * owner.page_size();
        let k = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mixd(i, 2));
        let v = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mixd(i, 3));
        let rows = members.len();
        let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; rows], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mixd(i, 1);
        }
        let row_meta: Vec<RowMeta> = members
            .iter()
            .enumerate()
            .map(|(r, m)| RowMeta {
                batch_idx: r,
                qo_pos: 0,
                qo_len: 1,
                kv_len: prefix + m.kv_len(0),
            })
            .collect();

        let group = CascadeDecodeGroup::from_page_tables(&owner, &members, prefix).unwrap();
        assert_eq!(group.group_size(), 3);
        assert_eq!(group.gather_slots(), 8 + 3 + 5 + 1);
        assert_eq!(group.flat_gather_slots(), 3 * 8 + 3 + 5 + 1);
        let mut pipeline = test_pipeline(4);
        let out = group
            .run(
                &mut pipeline,
                &q,
                &k,
                &v,
                heads,
                &row_meta,
                &variant,
                &params,
                None,
            )
            .unwrap();

        // Grouping is staging-only: each member's row must be bit-for-bit
        // the output of a single-member group over the same tables.
        for (r, m) in members.iter().enumerate() {
            let single =
                CascadeDecodeGroup::from_page_tables(&owner, std::slice::from_ref(m), prefix)
                    .unwrap();
            let mut q1 = RaggedTensor::<f32>::from_seq_lens(&[1], heads.qo_width());
            q1.as_tensor_mut()
                .as_mut_slice()
                .copy_from_slice(q.global_row(r));
            let meta1 = vec![RowMeta {
                batch_idx: 0,
                qo_pos: 0,
                qo_len: 1,
                kv_len: prefix + m.kv_len(0),
            }];
            let mut p1 = test_pipeline(4);
            let o1 = single
                .run(&mut p1, &q1, &k, &v, heads, &meta1, &variant, &params, None)
                .unwrap();
            for (a, b) in out.o.seq(r).iter().zip(o1.o.seq(0)) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}: group != singleton");
            }
            for h in 0..heads.num_qo_heads {
                assert_eq!(
                    out.lse[r * heads.num_qo_heads + h].to_bits(),
                    o1.lse[h].to_bits()
                );
            }
        }
    }

    #[test]
    fn decode_group_matches_flat_reference() {
        let (owner, members, prefix) = group_case();
        let heads = HeadConfig::new(4, 2, 8).unwrap();
        let params = VariantParams::for_head_dim(8);
        let variant = VanillaAttention { causal: true };
        let cols = owner.num_pages() * owner.page_size();
        let ps = owner.page_size();
        let k = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mixd(i, 2));
        let v = Tensor::<f32>::from_fn(vec![cols, heads.kv_width()], |i| mixd(i, 3));
        let rows = members.len();
        let mut q = RaggedTensor::<f32>::from_seq_lens(&vec![1; rows], heads.qo_width());
        for (i, x) in q.as_tensor_mut().as_mut_slice().iter_mut().enumerate() {
            *x = mixd(i, 1);
        }
        let kv_lens: Vec<usize> = members.iter().map(|m| prefix + m.kv_len(0)).collect();
        let row_meta: Vec<RowMeta> = (0..rows)
            .map(|r| RowMeta {
                batch_idx: r,
                qo_pos: 0,
                qo_len: 1,
                kv_len: kv_lens[r],
            })
            .collect();

        let group = CascadeDecodeGroup::from_page_tables(&owner, &members, prefix).unwrap();
        let mut pipeline = test_pipeline(4);
        let out = group
            .run(
                &mut pipeline,
                &q,
                &k,
                &v,
                heads,
                &row_meta,
                &variant,
                &params,
                None,
            )
            .unwrap();
        // Two distinct suffix shapes among three members: prefix level +
        // the 3-slot, 5-slot, and 1-slot suffixes → 4 computed plans, and
        // no accidental coupling between members' plans.
        assert_eq!(pipeline.stats().plans_computed, 4);

        // Flat reference: each row sees owner pages + its own pages in one
        // single-format layout.
        let flat_rows: Vec<(usize, usize, Vec<BlockEntry>)> = members
            .iter()
            .enumerate()
            .map(|(r, m)| {
                let mut blocks: Vec<BlockEntry> = owner
                    .request_pages(0)
                    .iter()
                    .map(|&p| BlockEntry {
                        col_block: p,
                        len: ps,
                    })
                    .collect();
                let mp = m.request_pages(0);
                blocks.extend(mp.iter().enumerate().map(|(j, &p)| BlockEntry {
                    col_block: p,
                    len: if j + 1 == mp.len() {
                        m.kv_len(0) - (mp.len() - 1) * ps
                    } else {
                        ps
                    },
                }));
                (r, r + 1, blocks)
            })
            .collect();
        let flat = BlockSparseMatrix::new(rows, cols, ps, flat_rows).unwrap();
        let problem = AttentionProblem::standard_batch(&q, &k, &v, &flat, heads, &kv_lens).unwrap();
        let kernel = FlashKernel {
            tile: TileConfig { tq: 4, tkv: 4 },
            head_fusion: true,
        };
        let direct = kernel
            .run_with_scratch(&problem, &variant, &params, &mut KernelScratch::new())
            .unwrap();
        for r in 0..rows {
            assert!(
                allclose(out.o.seq(r), direct.o.seq(r), 1e-5, 1e-6),
                "row {r}: cascade group != flat"
            );
        }
        for (a, b) in out.lse.iter().zip(&direct.lse) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn decode_group_rejects_bad_shapes() {
        let (owner, members, prefix) = group_case();
        // No members.
        assert!(CascadeDecodeGroup::from_page_tables(&owner, &[], prefix).is_err());
        // Prefix length not a page multiple / not matching the owner.
        assert!(CascadeDecodeGroup::from_page_tables(&owner, &members, 6).is_err());
        assert!(CascadeDecodeGroup::from_page_tables(&owner, &members, 4).is_err());
        assert!(CascadeDecodeGroup::from_page_tables(&owner, &members, 0).is_err());
        // Pool geometry mismatch.
        let alien = PageTable::new(4, 8, vec![vec![2]], vec![3]).unwrap();
        assert!(CascadeDecodeGroup::from_page_tables(&owner, &[alien], prefix).is_err());
        // A member squatting on an owner page trips the cross-level
        // disjointness check.
        let squatter = PageTable::new(4, 16, vec![vec![1]], vec![2]).unwrap();
        assert!(CascadeDecodeGroup::from_page_tables(&owner, &[squatter], prefix).is_err());
        // Empty suffix.
        let owner2 = PageTable::new(4, 16, vec![vec![0]], vec![4]).unwrap();
        let m = PageTable::new(4, 16, vec![vec![2]], vec![1]).unwrap();
        assert!(CascadeDecodeGroup::from_page_tables(&owner2, &[m], 4).is_ok());
    }
}
