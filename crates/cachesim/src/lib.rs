#![warn(missing_docs)]

//! Cache-hierarchy model for the SD-PCM reproduction (paper Table 2).
//!
//! The paper's simulator "models the entire memory hierarchy including
//! L1, L2 and DRAM last level cache". This crate provides:
//!
//! * [`cache`] — a generic set-associative, write-back, write-allocate
//!   cache with true-LRU replacement, stored as flat demand-paged arrays
//!   of five bytes per way.
//! * [`hierarchy`] — the Table 2 stack: private 32 KB L1, private 2 MB
//!   L2, private 32 MB DRAM L3 (50 ns hit); misses and dirty evictions
//!   propagate downwards and emerge as PCM reads/write-backs.
//!
//! The full-system simulator offers two front ends: this hierarchy fed by
//! instruction-level streams, or the post-cache trace mode matching the
//! paper's PIN methodology. The figures use post-cache mode. The
//! hierarchy runs in the `hierarchy_mode` example, in the integration
//! tests, and in perfbench's `hier-wrf` workload, which drives the Table 2
//! caches of eight cores from empty.

pub mod cache;
pub mod hierarchy;

pub use cache::{AccessKind, AccessOutcome, CacheConfig, SetAssocCache};
pub use hierarchy::{CoreCaches, HierarchyConfig, HierarchyOutcome};
