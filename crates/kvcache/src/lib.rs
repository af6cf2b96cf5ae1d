//! # fi-kvcache
//!
//! KV-cache management substrates for LLM serving.
//!
//! The paper's attention engine sits on top of two storage managers that it
//! unifies through the block-sparse view (`fi-sparse`):
//!
//! * [`paged::PagedKvCache`] — PagedAttention-style storage (Kwon et al.,
//!   SOSP '23): KV entries live in fixed-size pages of a global pool
//!   ([`store::KvStore`]) handed out by a
//!   [`shard_alloc::ShardedPageAllocator`] — the one allocator every pool in
//!   the workspace draws from; a request's logical sequence is a scattered
//!   list of pages plus the fill of its last page.
//! * [`radix::RadixTree`] — RadixAttention-style prefix cache (SGLang):
//!   a compressed trie over token ids whose edges carry the KV slot ids of
//!   the cached prefix, with LRU eviction and reference counting for
//!   in-flight requests. Prefix hits let new requests skip prefill for the
//!   matched tokens and enable the shared-prefix decomposition of
//!   `fi-sparse::composable`.
//!
//! Both managers expose their layout as a [`fi_sparse::PageTable`], which is
//! the single input format the attention kernels consume (Figure 2 of the
//! paper).

pub mod error;
pub mod groups;
pub mod map;
pub mod paged;
pub mod radix;
pub mod shard_alloc;
pub mod store;
pub mod swap;

pub use error::KvCacheError;
pub use map::PageMap;
pub use paged::{PageExport, PagedKvCache};
pub use radix::{PrefixMatch, RadixTree};
pub use shard_alloc::{PageCache, ShardedPageAllocator};
pub use store::{KvStore, KvStoreWriter};
