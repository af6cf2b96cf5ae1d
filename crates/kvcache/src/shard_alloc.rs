//! Sharded page allocation: the *allocation* half of the storage/allocation
//! split (DESIGN.md §10).
//!
//! [`ShardedPageAllocator`] partitions the free list into N independently
//! locked shards so concurrent clients (runtime workers, distributed ranks,
//! the scheduler) allocate and free pages without contending on one lock.
//! A shared atomic free-page counter gives admission control an exact,
//! lock-free `free_pages()` read and makes multi-page allocation
//! all-or-nothing: a client first *reserves* its count from the counter,
//! then collects that many pages from the shard lists (home shard first,
//! stealing from the others as needed).
//!
//! The reservation protocol is what makes the sweep loop safe:
//!
//! * `free` pushes pages into a shard list **before** incrementing the
//!   counter (Release), so at every instant the lists hold at least
//!   `free_count + outstanding reservations` pages;
//! * `alloc` decrements the counter **before** popping (Acquire on the
//!   failure path too), so a successful reservation is a proof that its
//!   pages are already in the lists — the sweep can only be delayed by
//!   other clients collecting *their own* reservations, never starved.
//!
//! [`PageCache`] adds an optional per-client LIFO cache on top: frees park
//! pages locally, allocations are served cache-first and refill in one
//! batch from the client's home shard (work-stealing from the rest), so a
//! steady-state decode worker touches no shared state at all for pages.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::KvCacheError;

/// A free-list allocator over `num_pages` pages, sharded N ways.
///
/// Page ids are dealt out ascending for a single client starting from its
/// home shard (shard `i` holds the `i`-th contiguous block of ids, each
/// stored as a LIFO stack with the smallest id on top).
#[derive(Debug)]
pub struct ShardedPageAllocator {
    shards: Vec<Mutex<Vec<usize>>>,
    /// Exact count of free pages *not* reserved by an in-flight `alloc`.
    free_count: AtomicUsize,
    /// Per-page allocated bit: double-free / double-alloc detection.
    allocated: Vec<AtomicBool>,
    peak_in_use: AtomicUsize,
    num_pages: usize,
}

impl Clone for ShardedPageAllocator {
    fn clone(&self) -> ShardedPageAllocator {
        ShardedPageAllocator {
            shards: self
                .shards
                .iter()
                .map(|s| Mutex::new(s.lock().unwrap_or_else(|e| e.into_inner()).clone()))
                .collect(),
            free_count: AtomicUsize::new(self.free_pages()),
            allocated: self
                .allocated
                .iter()
                .map(|a| AtomicBool::new(a.load(Ordering::Relaxed)))
                .collect(),
            peak_in_use: AtomicUsize::new(self.peak_in_use()),
            num_pages: self.num_pages,
        }
    }
}

impl ShardedPageAllocator {
    /// Create an allocator with an explicit shard count (clamped to ≥ 1).
    pub fn new(num_pages: usize, num_shards: usize) -> ShardedPageAllocator {
        let num_shards = num_shards.max(1);
        let chunk = num_pages.div_ceil(num_shards).max(1);
        let mut shards = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let lo = (s * chunk).min(num_pages);
            let hi = ((s + 1) * chunk).min(num_pages);
            // Reversed so `pop()` yields ascending ids.
            shards.push(Mutex::new((lo..hi).rev().collect()));
        }
        ShardedPageAllocator {
            shards,
            free_count: AtomicUsize::new(num_pages),
            allocated: (0..num_pages).map(|_| AtomicBool::new(false)).collect(),
            peak_in_use: AtomicUsize::new(0),
            num_pages,
        }
    }

    /// Create an allocator with the default shard count for this pool size
    /// (one shard per page up to 8 — small pools stay exact, large pools
    /// spread contention across 8 locks).
    pub fn with_default_shards(num_pages: usize) -> ShardedPageAllocator {
        ShardedPageAllocator::new(num_pages, num_pages.clamp(1, 8))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total pages managed.
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Exact free pages (excluding in-flight reservations). Lock-free.
    pub fn free_pages(&self) -> usize {
        self.free_count.load(Ordering::Acquire)
    }

    /// Pages currently allocated (or reserved).
    pub fn used_pages(&self) -> usize {
        self.num_pages - self.free_pages()
    }

    /// High-water mark of `used_pages()`.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use.load(Ordering::Acquire)
    }

    /// Allocate `n` pages from home shard 0.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfPages`] without allocating anything.
    pub fn alloc(&self, n: usize) -> Result<Vec<usize>, KvCacheError> {
        self.alloc_from(0, n)
    }

    /// Allocate `n` pages, preferring the client's `home` shard and
    /// stealing from the others as needed. All-or-nothing.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfPages`] without allocating anything.
    pub fn alloc_from(&self, home: usize, n: usize) -> Result<Vec<usize>, KvCacheError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        // Reserve first: makes multi-page allocation atomic with respect to
        // the admission counter and guarantees the sweep below terminates.
        self.free_count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(n))
            .map_err(|available| KvCacheError::OutOfPages {
                requested: n,
                available,
            })?;
        let num_shards = self.shards.len();
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            for i in 0..num_shards {
                let shard = (home + i) % num_shards;
                let mut list = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
                while got.len() < n {
                    match list.pop() {
                        Some(p) => got.push(p),
                        None => break,
                    }
                }
                if got.len() == n {
                    break;
                }
            }
            // A reservation is a proof its pages exist in the lists; a
            // failed sweep only means another client is mid-collection.
            std::hint::spin_loop();
        }
        for &p in &got {
            let was = self.allocated[p].swap(true, Ordering::Relaxed);
            debug_assert!(!was, "page {p} allocated twice");
        }
        let used = self.used_pages();
        self.peak_in_use.fetch_max(used, Ordering::AcqRel);
        Ok(got)
    }

    /// Return pages to the free pool via shard 0.
    pub fn free(&self, pages: &[usize]) {
        self.free_to(0, pages);
    }

    /// Return pages to the free pool via the client's `home` shard (LIFO:
    /// the next `alloc_from(home, ..)` reuses them first, cache-warm).
    /// Double frees and unknown ids are dropped after a debug assertion —
    /// freeing must never fail (C-DTOR-FAIL).
    pub fn free_to(&self, home: usize, pages: &[usize]) {
        let mut accepted = Vec::with_capacity(pages.len());
        for &p in pages {
            debug_assert!(p < self.num_pages, "free of out-of-range page {p}");
            if p >= self.num_pages {
                continue;
            }
            let was = self.allocated[p].swap(false, Ordering::Relaxed);
            debug_assert!(was, "double free of page {p}");
            if was {
                accepted.push(p);
            }
        }
        if accepted.is_empty() {
            return;
        }
        let shard = home % self.shards.len();
        {
            let mut list = self.shards[shard].lock().unwrap_or_else(|e| e.into_inner());
            list.extend_from_slice(&accepted);
        }
        // Push-then-increment: the counter never promises pages that are
        // not yet in a list (see module docs).
        self.free_count.fetch_add(accepted.len(), Ordering::Release);
    }
}

/// A per-client page cache over a [`ShardedPageAllocator`].
///
/// Frees park pages here (spilling to the home shard past `capacity`);
/// allocations are served cache-first, refilling up to `capacity` extra
/// pages in one batch on a miss. `capacity` 0 is an exact passthrough —
/// the facade uses that so its free counts stay deterministic.
#[derive(Debug, Clone)]
pub struct PageCache {
    home: usize,
    capacity: usize,
    cached: Vec<usize>,
}

impl PageCache {
    /// A cache bound to `home` shard, holding at most `capacity` pages.
    pub fn new(home: usize, capacity: usize) -> PageCache {
        PageCache {
            home,
            capacity,
            cached: Vec::with_capacity(capacity),
        }
    }

    /// Pages currently parked in the cache.
    pub fn cached_pages(&self) -> usize {
        self.cached.len()
    }

    /// Allocate `n` pages, cache-first. On a miss, refills `capacity`
    /// extra pages in the same batch when the pool has them.
    ///
    /// # Errors
    ///
    /// Returns [`KvCacheError::OutOfPages`]; the cache is left unchanged.
    pub fn alloc(
        &mut self,
        alloc: &ShardedPageAllocator,
        n: usize,
    ) -> Result<Vec<usize>, KvCacheError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.cached.pop() {
                Some(p) => out.push(p),
                None => break,
            }
        }
        let need = n - out.len();
        if need > 0 {
            let refill = self.capacity.saturating_sub(self.cached.len());
            let batch = match alloc.alloc_from(self.home, need + refill) {
                Ok(b) => Ok(b),
                // Opportunistic refill failed; retry the exact need.
                Err(_) if refill > 0 => alloc.alloc_from(self.home, need),
                Err(e) => Err(e),
            };
            match batch {
                Ok(mut b) => {
                    let extra = b.split_off(need);
                    out.extend(b);
                    // Reversed so the cache pops them in ascending order.
                    self.cached.extend(extra.into_iter().rev());
                }
                Err(e) => {
                    // Restore the pages drained above, preserving order.
                    self.cached.extend(out.into_iter().rev());
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Park pages in the cache, spilling the oldest past `capacity` back
    /// to the home shard.
    pub fn free(&mut self, alloc: &ShardedPageAllocator, pages: &[usize]) {
        self.cached.extend_from_slice(pages);
        if self.cached.len() > self.capacity {
            let spill: Vec<usize> = self
                .cached
                .drain(..self.cached.len() - self.capacity)
                .collect();
            alloc.free_to(self.home, &spill);
        }
    }

    /// Return every cached page to the pool (drain / shutdown).
    pub fn flush(&mut self, alloc: &ShardedPageAllocator) {
        let parked = std::mem::take(&mut self.cached);
        alloc.free_to(self.home, &parked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_order_is_ascending_across_shards() {
        let a = ShardedPageAllocator::new(8, 4);
        assert_eq!(a.alloc(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(a.alloc(4).unwrap(), vec![3, 4, 5, 6]);
        assert_eq!(a.free_pages(), 1);
    }

    #[test]
    fn alloc_is_all_or_nothing() {
        let a = ShardedPageAllocator::new(4, 2);
        a.alloc(3).unwrap();
        let err = a.alloc(2).unwrap_err();
        assert_eq!(
            err,
            KvCacheError::OutOfPages {
                requested: 2,
                available: 1
            }
        );
        assert_eq!(a.free_pages(), 1);
        assert_eq!(a.alloc(1).unwrap(), vec![3]);
    }

    #[test]
    fn stealing_crosses_shards() {
        let a = ShardedPageAllocator::new(6, 3);
        // Home shard 2 holds pages {4, 5}; the rest are stolen ascending
        // from shards 0 and 1.
        assert_eq!(a.alloc_from(2, 4).unwrap(), vec![4, 5, 0, 1]);
    }

    #[test]
    fn free_returns_to_home_shard_lifo() {
        let a = ShardedPageAllocator::new(4, 1);
        let pages = a.alloc(4).unwrap();
        a.free(&pages[2..]);
        // LIFO: last freed page comes back first.
        assert_eq!(a.alloc(1).unwrap(), vec![3]);
        assert_eq!(a.alloc(1).unwrap(), vec![2]);
    }

    #[test]
    fn zero_page_pool() {
        let a = ShardedPageAllocator::new(0, 4);
        assert_eq!(a.alloc(0).unwrap(), Vec::<usize>::new());
        assert!(a.alloc(1).is_err());
    }

    #[test]
    fn peak_tracks_high_water() {
        let a = ShardedPageAllocator::new(8, 2);
        let p = a.alloc(5).unwrap();
        a.free(&p);
        a.alloc(2).unwrap();
        assert_eq!(a.peak_in_use(), 5);
    }

    #[test]
    fn cache_serves_and_refills() {
        let a = ShardedPageAllocator::new(8, 2);
        let mut c = PageCache::new(0, 2);
        let first = c.alloc(&a, 1).unwrap();
        assert_eq!(first, vec![0]);
        // 1 needed + 2 refill drawn from the pool.
        assert_eq!(a.free_pages(), 5);
        assert_eq!(c.cached_pages(), 2);
        // Cache hit: pool untouched, ascending order preserved.
        assert_eq!(c.alloc(&a, 2).unwrap(), vec![1, 2]);
        assert_eq!(a.free_pages(), 5);
        c.free(&a, &first);
        assert_eq!(c.cached_pages(), 1);
        c.flush(&a);
        assert_eq!(c.cached_pages(), 0);
        assert_eq!(a.free_pages(), 6);
    }

    #[test]
    fn cache_spills_past_capacity() {
        let a = ShardedPageAllocator::new(8, 2);
        let mut c = PageCache::new(0, 2);
        let pages = a.alloc(5).unwrap();
        c.free(&a, &pages);
        assert_eq!(c.cached_pages(), 2);
        assert_eq!(a.free_pages(), 6);
    }

    #[test]
    fn cache_error_restores_drained_pages() {
        let a = ShardedPageAllocator::new(2, 1);
        let mut c = PageCache::new(0, 1);
        let p = c.alloc(&a, 1).unwrap();
        c.free(&a, &p);
        assert_eq!(c.cached_pages(), 1);
        assert!(c.alloc(&a, 3).is_err());
        // The cached page survived the failed allocation.
        assert_eq!(c.cached_pages(), 1);
        assert_eq!(a.free_pages() + c.cached_pages(), 2);
    }

    #[test]
    fn passthrough_cache_is_exact() {
        let a = ShardedPageAllocator::new(4, 2);
        let mut c = PageCache::new(0, 0);
        let p = c.alloc(&a, 3).unwrap();
        assert_eq!(p, vec![0, 1, 2]);
        assert_eq!(a.free_pages(), 1);
        c.free(&a, &p);
        assert_eq!(a.free_pages(), 4);
        assert_eq!(c.cached_pages(), 0);
    }
}
