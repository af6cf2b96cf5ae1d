//! The scheduler's KV-storage backend: either a single-shard stack of the
//! split kvcache layers (tensor_parallel = 1) or a [`ShardedKvPool`] with
//! one storage arena per tensor-parallel rank. The scheduler is
//! width-agnostic — it writes and reads full-width rows; the sharded
//! backend slices columns per rank.
//!
//! The single-shard backend is generic over the arena element type: the
//! runtime's reduced-precision KV modes ([`fi_tensor::KvDtype`]) store
//! rows as f32, f16, or scaled e4m3 and widen them back on stage (f16,
//! fp8) or on swap-out. Narrowing happens exactly once per row, on
//! append, so swap-out/swap-in round-trips are idempotent at storage
//! precision.
//!
//! Since the storage/allocation split (DESIGN.md §10) the backend is
//! *owned* by the scheduler thread — there is no `RwLock` around the
//! pool anywhere in this crate. Workers hold lock-free [`KvStore`] read
//! handles and prebuilt page tables; the scheduler mutates bookkeeping
//! through `&mut self` strictly between steps, and the worker channels
//! provide the happens-before edge that publishes its writes.

use std::sync::Arc;

use fi_dist::ShardedKvPool;
use fi_kvcache::{KvCacheError, KvStore, KvStoreWriter, PageCache, PageMap, ShardedPageAllocator};
use fi_sparse::page::PageTable;
use fi_tensor::{KvDtype, Scalar, F16, F8E4M3};

/// Pages the single-shard scheduler parks in its allocator-shard cache
/// between alloc/free bursts (refilled by stealing when its home shard
/// runs dry; see `fi_kvcache::shard_alloc`).
const SCHEDULER_PAGE_CACHE: usize = 8;

/// Full-width KV rows of one request, flattened in position order
/// (swap-out buffers): `rows * kv_width` elements each. Always f32 at
/// this boundary — reduced-precision backends widen and rescale on read.
pub(crate) struct KvRows {
    pub k: Vec<f32>,
    pub v: Vec<f32>,
    pub rows: usize,
}

/// Per-KV-head `(k, v)` dequantization scales, shared with the workers.
pub(crate) type DequantScales = (Arc<Vec<f32>>, Arc<Vec<f32>>);

/// The single-shard backend: the split kvcache layers, owned directly,
/// storing rows at element type `T`.
pub(crate) struct SingleKv<T: Scalar> {
    map: PageMap,
    alloc: ShardedPageAllocator,
    cache: PageCache,
    writer: KvStoreWriter<T>,
    page_size: usize,
    width: usize,
    head_dim: usize,
    /// Per-KV-head quantization scales (all 1.0 for f32/f16 arenas).
    k_scales: Arc<Vec<f32>>,
    v_scales: Arc<Vec<f32>>,
}

impl<T: Scalar> SingleKv<T> {
    pub fn new(
        page_size: usize,
        num_pages: usize,
        width: usize,
        head_dim: usize,
        k_scales: Vec<f32>,
        v_scales: Vec<f32>,
    ) -> SingleKv<T> {
        debug_assert_eq!(k_scales.len() * head_dim, width);
        debug_assert_eq!(v_scales.len() * head_dim, width);
        let (_, writer) = KvStore::with_writer(num_pages, page_size, width);
        SingleKv {
            map: PageMap::new(page_size, num_pages),
            alloc: ShardedPageAllocator::with_default_shards(num_pages),
            cache: PageCache::new(0, SCHEDULER_PAGE_CACHE),
            writer,
            page_size,
            width,
            head_dim,
            k_scales: Arc::new(k_scales),
            v_scales: Arc::new(v_scales),
        }
    }

    /// The lock-free read handle a worker gets on the arena.
    pub fn store(&self) -> Arc<KvStore<T>> {
        Arc::clone(self.writer.store())
    }

    /// The scales workers apply at stage time (only the fp8 arena needs
    /// them).
    pub fn scales(&self) -> DequantScales {
        (Arc::clone(&self.k_scales), Arc::clone(&self.v_scales))
    }

    fn append(&mut self, id: u64, k: &[f32], v: &[f32]) -> Result<(), KvCacheError> {
        if k.len() != self.width || v.len() != self.width {
            return Err(KvCacheError::ShapeMismatch {
                expected: self.width,
                actual: k.len(),
            });
        }
        let site = self.map.prepare_append(id, &self.alloc, &mut self.cache)?;
        if let Some(cow) = site.cow {
            self.writer
                .copy_page_prefix(cow.src_page, cow.dst_page, cow.valid_slots);
        }
        self.writer
            .write_slot_narrowed(site.slot, k, v, &self.k_scales, &self.v_scales);
        Ok(())
    }

    /// One contiguous slab read per page (the rows of a page are adjacent
    /// in the arena), widened back to f32 — and rescaled by the per-head
    /// quantization scales, so callers always see full-width dequantized
    /// rows regardless of the arena dtype.
    fn request_rows(&self, id: u64) -> Result<KvRows, KvCacheError> {
        let rows = self.map.seq_len(id)?;
        let pages = self.map.request_pages(id)?;
        let store = self.writer.store();
        let mut k = Vec::with_capacity(rows * self.width);
        let mut v = Vec::with_capacity(rows * self.width);
        for (i, &page) in pages.iter().enumerate() {
            let count = (rows - i * self.page_size).min(self.page_size);
            if count == 0 {
                break;
            }
            widen_rows_rescaled(
                &mut k,
                store.k_rows(page * self.page_size, count),
                self.width,
                &self.k_scales,
                self.head_dim,
            );
            widen_rows_rescaled(
                &mut v,
                store.v_rows(page * self.page_size, count),
                self.width,
                &self.v_scales,
                self.head_dim,
            );
        }
        Ok(KvRows { k, v, rows })
    }
}

/// Append widened (and per-head rescaled) rows to `dst`. Unit scales take
/// the bulk path — one dispatched widen per slab, a straight memcpy for
/// `T = f32`.
fn widen_rows_rescaled<T: Scalar>(
    dst: &mut Vec<f32>,
    src: &[T],
    width: usize,
    scales: &[f32],
    head_dim: usize,
) {
    let start = dst.len();
    dst.resize(start + src.len(), 0.0);
    let out = &mut dst[start..];
    // Uniform scales (unit, or per-tensor quantization) widen as one bulk
    // call — identical bits, since every element sees the same
    // `to_f32() * scale` either way.
    if let Some((&first, rest)) = scales.split_first() {
        if rest.iter().all(|&s| s == first) {
            T::widen_scaled_into(out, src, first);
            return;
        }
    }
    for (drow, srow) in out.chunks_exact_mut(width).zip(src.chunks_exact(width)) {
        for (h, &s) in scales.iter().enumerate() {
            let cols = h * head_dim..(h + 1) * head_dim;
            T::widen_scaled_into(&mut drow[cols.clone()], &srow[cols], s);
        }
    }
}

/// Dispatch a `SingleKv<T>` method body across the three storage dtypes.
macro_rules! on_backend {
    ($self:expr, $p:ident => $single:expr, $sh:ident => $sharded:expr) => {
        match $self {
            KvBackend::Single($p) => $single,
            KvBackend::SingleF16($p) => $single,
            KvBackend::SingleFp8($p) => $single,
            KvBackend::Sharded($sh) => $sharded,
        }
    };
}

// Exactly one KvBackend exists per runtime (owned by the scheduler), so
// the size imbalance between variants never multiplies.
#[allow(clippy::large_enum_variant)]
pub(crate) enum KvBackend {
    /// One storage arena holding all KV heads at full precision.
    Single(SingleKv<f32>),
    /// One f16 arena — staged bytes halve, widened on stage.
    SingleF16(SingleKv<F16>),
    /// One scaled-e4m3 arena — staged bytes quarter, dequantized on stage.
    SingleFp8(SingleKv<F8E4M3>),
    /// One storage arena per tensor-parallel rank, shared bookkeeping.
    Sharded(Arc<ShardedKvPool>),
}

impl KvBackend {
    pub fn add_request(&mut self, id: u64) -> Result<(), KvCacheError> {
        on_backend!(self, p => p.map.add_request(id), sh => sh.add_request(id))
    }

    pub fn remove_request(&mut self, id: u64) -> Result<(), KvCacheError> {
        on_backend!(
            self,
            p => {
                let freed = p.map.remove_request(id)?;
                p.cache.free(&p.alloc, &freed);
                Ok(())
            },
            sh => sh.remove_request(id)
        )
    }

    /// Append one full-width f32 KV row, narrowed to the arena dtype on
    /// write (the sharded backend slices columns per rank; on failure no
    /// rank is mutated).
    pub fn append(&mut self, id: u64, k: &[f32], v: &[f32]) -> Result<(), KvCacheError> {
        on_backend!(self, p => p.append(id, k, v), sh => sh.append(id, k, v))
    }

    pub fn free_page_count(&self) -> usize {
        on_backend!(
            self,
            p => p.alloc.free_pages() + p.cache.cached_pages(),
            sh => sh.free_page_count()
        )
    }

    /// Build the page table of one live request (shipped to workers with
    /// each unit so their execute path takes no lock).
    pub fn page_table(&self, id: u64) -> Result<PageTable, KvCacheError> {
        on_backend!(self, p => p.map.page_table(&[id]), sh => sh.page_table(&[id]))
    }

    /// Read a request's KV rows back at full f32 width (swap-out),
    /// flattened and dequantized.
    pub fn request_rows(&self, id: u64) -> Result<KvRows, KvCacheError> {
        on_backend!(
            self,
            p => p.request_rows(id),
            sh => {
                let (k, v, rows) = sh.request_rows(id)?;
                Ok(KvRows { k, v, rows })
            }
        )
    }

    /// Return any pages parked in the scheduler's allocator-shard cache
    /// (drain-time accounting; the sharded pool's internal cache has zero
    /// capacity).
    pub fn flush(&mut self) {
        on_backend!(self, p => p.cache.flush(&p.alloc), _sh => ())
    }

    /// The storage dtype of this backend's arena (the sharded backend is
    /// f32-only).
    pub fn kv_dtype(&self) -> KvDtype {
        match self {
            KvBackend::Single(_) | KvBackend::Sharded(_) => KvDtype::F32,
            KvBackend::SingleF16(_) => KvDtype::F16,
            KvBackend::SingleFp8(_) => KvDtype::Fp8E4M3,
        }
    }
}
