//! Property-based tests for KV-cache managers.

use fi_kvcache::paged::{PagedKvCache, PagedKvConfig};
use fi_kvcache::{RadixTree, ShardedPageAllocator};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Allocator never hands out the same live page twice, and free/alloc
    /// conserve the pool — unsharded and at the default shard count.
    #[test]
    fn allocator_conservation(ops in prop::collection::vec((0usize..4, 0usize..3), 1..60)) {
        for a in [
            ShardedPageAllocator::new(16, 1),
            ShardedPageAllocator::with_default_shards(16),
        ] {
            let mut live: Vec<Vec<usize>> = Vec::new();
            for &(kind, n) in &ops {
                if kind < 3 {
                    if let Ok(pages) = a.alloc(n) {
                        let mut all: HashSet<usize> = live.iter().flatten().copied().collect();
                        for &p in &pages {
                            prop_assert!(all.insert(p), "page {p} double-allocated");
                        }
                        live.push(pages);
                    }
                } else if let Some(pages) = live.pop() {
                    a.free(&pages);
                }
                let live_count: usize = live.iter().map(Vec::len).sum();
                prop_assert_eq!(a.used_pages(), live_count);
                prop_assert_eq!(a.free_pages() + a.used_pages(), 16);
            }
        }
    }

    /// Paged cache: every appended token is retrievable at its slot, for
    /// interleaved appends across requests.
    #[test]
    fn paged_cache_tokens_retrievable(
        seq in prop::collection::vec(0u64..4, 1..80),
    ) {
        let cfg = PagedKvConfig { page_size: 3, num_pages: 64, num_kv_heads: 1, head_dim: 2 };
        let mut c = PagedKvCache::<f32>::new(cfg).unwrap();
        let mut lens = [0usize; 4];
        let mut tags: Vec<Vec<f32>> = vec![Vec::new(); 4];
        for (step, &id) in seq.iter().enumerate() {
            if lens[id as usize] == 0 && !tags[id as usize].is_empty() {
                // already added
            }
            if tags[id as usize].is_empty() {
                c.add_request(id).unwrap();
            }
            let tag = step as f32;
            let row = vec![tag; 2];
            c.append(id, &row, &row).unwrap();
            tags[id as usize].push(tag);
            lens[id as usize] += 1;
        }
        let ids: Vec<u64> = (0..4).filter(|&i| !tags[i as usize].is_empty()).collect();
        let pt = c.page_table(&ids).unwrap();
        for (bi, &id) in ids.iter().enumerate() {
            prop_assert_eq!(pt.kv_len(bi), tags[id as usize].len());
            for (pos, &tag) in tags[id as usize].iter().enumerate() {
                let slot = pt.slot_of(bi, pos);
                prop_assert_eq!(c.k_slot(slot)[0], tag);
            }
        }
    }

    /// Radix tree: match after insert returns a true prefix with the exact
    /// slots that were inserted.
    #[test]
    fn radix_match_is_prefix_of_insert(
        seqs in prop::collection::vec(prop::collection::vec(0u32..4, 1..12), 1..8),
        probe in prop::collection::vec(0u32..4, 0..12),
    ) {
        let mut t = RadixTree::new();
        let mut slot_counter = 0usize;
        // Track ground truth: token sequence -> slot per position, using the
        // first-writer-wins rule.
        let mut truth: Vec<(Vec<u32>, Vec<usize>)> = Vec::new();
        for s in &seqs {
            // Determine which prefix is already cached to assign slots like a
            // real engine would (reuse cached slots for the matched part).
            let m = t.match_prefix(s);
            let mut slots = m.slots.clone();
            for _ in m.matched_tokens..s.len() {
                slots.push(slot_counter);
                slot_counter += 1;
            }
            t.insert(s, &slots).unwrap();
            truth.push((s.clone(), slots));
        }
        let m = t.match_prefix(&probe);
        prop_assert!(m.matched_tokens <= probe.len());
        prop_assert_eq!(m.slots.len(), m.matched_tokens);
        // The matched prefix must be the longest prefix of `probe` present
        // as a prefix of some inserted sequence.
        let best = truth
            .iter()
            .map(|(s, _)| s.iter().zip(&probe).take_while(|(a, b)| a == b).count())
            .max()
            .unwrap_or(0);
        prop_assert_eq!(m.matched_tokens, best);
        // Slots agree with whichever sequence provided that prefix first.
        if m.matched_tokens > 0 {
            let (_, slots) = truth
                .iter()
                .find(|(s, _)| {
                    s.len() >= m.matched_tokens && s[..m.matched_tokens] == probe[..m.matched_tokens]
                })
                .expect("matched prefix must come from an insert");
            prop_assert_eq!(&m.slots, &slots[..m.matched_tokens]);
        }
    }

    /// Copy-on-write forking: random fork/append interleavings never
    /// cross-contaminate branch histories, and removal conserves pages.
    #[test]
    fn cow_forks_isolate_branches(
        ops in prop::collection::vec((0usize..3, 0u64..6), 1..60),
    ) {
        let cfg = PagedKvConfig { page_size: 3, num_pages: 256, num_kv_heads: 1, head_dim: 1 };
        let mut c = PagedKvCache::<f32>::new(cfg).unwrap();
        // Ground truth: per-branch token history.
        let mut truth: Vec<Option<Vec<f32>>> = vec![None; 6];
        c.add_request(0).unwrap();
        truth[0] = Some(Vec::new());
        let mut stamp = 0.0f32;
        for (kind, id) in ops {
            let id = id % 6;
            match kind {
                // Append a token to a live branch.
                0 => {
                    if let Some(h) = truth[id as usize].as_mut() {
                        stamp += 1.0;
                        c.append(id, &[stamp], &[stamp]).unwrap();
                        h.push(stamp);
                    }
                }
                // Fork a live branch into a free slot.
                1 => {
                    if truth[id as usize].is_some() {
                        if let Some(free) = (0..6u64).find(|&x| truth[x as usize].is_none()) {
                            c.fork_request(id, free).unwrap();
                            truth[free as usize] = truth[id as usize].clone();
                        }
                    }
                }
                // Remove a live branch (keep at least one).
                _ => {
                    let live = truth.iter().filter(|t| t.is_some()).count();
                    if live > 1 && truth[id as usize].is_some() {
                        c.remove_request(id).unwrap();
                        truth[id as usize] = None;
                    }
                }
            }
            // Validate every live branch's full history.
            let ids: Vec<u64> =
                (0..6u64).filter(|&x| truth[x as usize].is_some()).collect();
            let pt = c.page_table(&ids).unwrap();
            for (bi, &bid) in ids.iter().enumerate() {
                let h = truth[bid as usize].as_ref().unwrap();
                prop_assert_eq!(pt.kv_len(bi), h.len());
                for (pos, &tok) in h.iter().enumerate() {
                    prop_assert_eq!(c.k_slot(pt.slot_of(bi, pos))[0], tok,
                        "branch {} pos {}", bid, pos);
                }
            }
        }
        // Remove everything: the pool must fully recover.
        for id in 0..6u64 {
            if truth[id as usize].is_some() {
                c.remove_request(id).unwrap();
            }
        }
        prop_assert_eq!(c.free_page_count(), 256);
    }

    /// Radix tree conservation: cached_tokens equals inserted novel tokens
    /// minus evicted tokens; full eviction empties the tree.
    #[test]
    fn radix_eviction_conserves_tokens(
        seqs in prop::collection::vec(prop::collection::vec(0u32..3, 1..10), 1..6),
    ) {
        let mut t = RadixTree::new();
        let mut slot = 0usize;
        let mut inserted = 0usize;
        for s in &seqs {
            let m = t.match_prefix(s);
            let mut slots = m.slots.clone();
            for _ in m.matched_tokens..s.len() {
                slots.push(slot);
                slot += 1;
            }
            inserted += t.insert(s, &slots).unwrap();
        }
        prop_assert_eq!(t.cached_tokens(), inserted);
        let freed = t.evict_lru(usize::MAX);
        prop_assert_eq!(freed.len(), inserted);
        prop_assert_eq!(t.cached_tokens(), 0);
        // Freed slots are unique.
        let set: HashSet<usize> = freed.iter().copied().collect();
        prop_assert_eq!(set.len(), freed.len());
    }
}
