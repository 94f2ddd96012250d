#![warn(missing_docs)]

//! WD-aware OS page allocation for the SD-PCM reproduction (paper §4.4).
//!
//! SD-PCM's third mechanism, **(n:m)-Alloc**, is an operating-system
//! policy: use only `n` out of every `m` consecutive device strips and
//! mark the rest *no-use*. A line whose bit-line neighbour lies in a
//! no-use strip stores no data there, so the write needs no verification
//! on that side — trading memory capacity for VnC overhead.
//!
//! This crate implements the whole OS story:
//!
//! * [`nm`] — the [`nm::NmRatio`] type and the strip-marking
//!   rule (`strip_index mod m == 1` for the paper's ratios, generalized
//!   to arbitrary `n:m`), applied independently within each 64 MB block.
//!   The allocator and the DMA walk both take their marked strips from it.
//! * [`policy`] — the hardware-side verification policy of Figure 9:
//!   from a strip index and the allocator tag, decide which adjacent
//!   lines need VnC, including the always-verify rules at 64 MB block
//!   boundaries.
//! * [`buddy`] — a classic buddy allocator (power-of-two page blocks,
//!   split/merge).
//! * [`nmalloc`] — the WD-aware allocator, [`NmAllocator`]: one pool of
//!   free frames per (n:m) ratio, each fed with 64 MB blocks from the
//!   (1:1) buddy and holding only frames of the strips its ratio uses.
//! * [`pagetable`] — per-process page tables whose entries carry the
//!   4-bit (n:m) allocator tag; a translation hands the tag to the memory
//!   controller with the physical address.
//! * [`dma`] — DMA address generation under (1:1)/(1:2) allocation.

mod bitset;
pub mod buddy;
pub mod dma;
pub mod nm;
pub mod nmalloc;
pub mod pagetable;
pub mod policy;

pub use nm::{InvalidRatio, NmRatio};
pub use nmalloc::NmAllocator;
pub use pagetable::PageTable;
pub use policy::{AdjacentNeed, VerifyPolicy};
