//! A classic buddy page allocator.
//!
//! The OS baseline of §4.4: free blocks of 2^order pages kept in
//! per-order lists; allocation splits larger blocks, freeing merges
//! buddies back together. [`crate::nmalloc`] layers the (n:m) frame
//! pools on top of this.

use std::collections::BTreeSet;

/// Maximum supported block order (2^16 pages = 256 MB blocks).
pub const MAX_ORDER: u8 = 16;

/// A buddy allocator over page frames `0..total_pages`.
///
/// # Examples
///
/// ```
/// use sdpcm_osalloc::buddy::BuddyAllocator;
///
/// let mut b = BuddyAllocator::new(64);
/// let block = b.alloc(2).unwrap(); // 4 pages
/// assert_eq!(block % 4, 0, "blocks are order-aligned");
/// b.free(block, 2);
/// assert_eq!(b.free_pages(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total_pages: u64,
    /// Free blocks per order; `BTreeSet` gives deterministic (lowest
    /// address first) allocation order.
    free_lists: Vec<BTreeSet<u64>>,
    /// Outstanding allocations, for double-free detection.
    allocated: BTreeSet<(u64, u8)>,
    free_pages: u64,
}

impl BuddyAllocator {
    /// Creates an allocator over `total_pages` frames (need not be a
    /// power of two; the range is tiled greedily with aligned blocks).
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is zero.
    #[must_use]
    pub fn new(total_pages: u64) -> BuddyAllocator {
        assert!(total_pages > 0, "allocator needs pages");
        let mut b = BuddyAllocator {
            total_pages,
            free_lists: vec![BTreeSet::new(); usize::from(MAX_ORDER) + 1],
            allocated: BTreeSet::new(),
            free_pages: 0,
        };
        // Tile [0, total) with maximal aligned blocks.
        let mut base = 0u64;
        while base < total_pages {
            let mut order = MAX_ORDER;
            loop {
                let size = 1u64 << order;
                if base.is_multiple_of(size) && base + size <= total_pages {
                    break;
                }
                order -= 1;
            }
            b.free_lists[usize::from(order)].insert(base);
            b.free_pages += 1 << order;
            base += 1 << order;
        }
        b
    }

    /// Total page frames managed.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Currently free page frames.
    #[must_use]
    pub fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// Number of free blocks at `order` (diagnostic).
    #[must_use]
    pub fn free_blocks_at(&self, order: u8) -> usize {
        self.free_lists[usize::from(order)].len()
    }

    /// Allocates a block of `2^order` pages; returns its base frame.
    /// Splits a larger block if necessary. `None` when no block of
    /// sufficient size exists.
    ///
    /// # Panics
    ///
    /// Panics if `order > MAX_ORDER`.
    pub fn alloc(&mut self, order: u8) -> Option<u64> {
        assert!(order <= MAX_ORDER, "order too large");
        // Find the smallest order with a free block.
        let mut have = order;
        loop {
            if !self.free_lists[usize::from(have)].is_empty() {
                break;
            }
            if have == MAX_ORDER {
                return None;
            }
            have += 1;
        }
        let base = *self.free_lists[usize::from(have)].iter().next()?;
        self.free_lists[usize::from(have)].remove(&base);
        // Split down to the requested order, linking upper halves.
        while have > order {
            have -= 1;
            let buddy = base + (1u64 << have);
            self.free_lists[usize::from(have)].insert(buddy);
        }
        self.free_pages -= 1 << order;
        self.allocated.insert((base, order));
        Some(base)
    }

    /// Frees a block previously returned by [`BuddyAllocator::alloc`],
    /// merging with its buddy where possible.
    ///
    /// # Panics
    ///
    /// Panics on a misaligned base, an out-of-range block, or a double
    /// free.
    pub fn free(&mut self, base: u64, order: u8) {
        assert!(order <= MAX_ORDER, "order too large");
        let size = 1u64 << order;
        assert!(base.is_multiple_of(size), "misaligned free");
        assert!(base + size <= self.total_pages, "block out of range");
        assert!(
            self.allocated.remove(&(base, order)),
            "double free or unallocated block {base} at order {order}"
        );
        let mut base = base;
        let mut order = order;
        loop {
            assert!(
                !self.free_lists[usize::from(order)].contains(&base),
                "double free of block {base} at order {order}"
            );
            let buddy = base ^ (1u64 << order);
            let can_merge = order < MAX_ORDER
                && buddy + (1u64 << order) <= self.total_pages
                && self.free_lists[usize::from(order)].contains(&buddy);
            if !can_merge {
                self.free_lists[usize::from(order)].insert(base);
                break;
            }
            self.free_lists[usize::from(order)].remove(&buddy);
            base = base.min(buddy);
            order += 1;
        }
        self.free_pages += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip_restores_everything() {
        let mut b = BuddyAllocator::new(128);
        let blocks: Vec<u64> = (0..8).map(|_| b.alloc(3).unwrap()).collect();
        assert_eq!(b.free_pages(), 128 - 8 * 8);
        for &blk in &blocks {
            b.free(blk, 3);
        }
        assert_eq!(b.free_pages(), 128);
        // Everything merged back into one 128-page block (order 7).
        assert_eq!(b.free_blocks_at(7), 1);
    }

    #[test]
    fn split_produces_aligned_disjoint_blocks() {
        let mut b = BuddyAllocator::new(64);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let base = b.alloc(2).unwrap();
            assert_eq!(base % 4, 0);
            for p in base..base + 4 {
                assert!(seen.insert(p), "page {p} handed out twice");
            }
        }
        assert_eq!(b.alloc(0), None, "fully exhausted");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut b = BuddyAllocator::new(16);
        assert!(b.alloc(4).is_some());
        assert_eq!(b.alloc(0), None);
    }

    #[test]
    fn merge_requires_true_buddy() {
        let mut b = BuddyAllocator::new(16);
        let a0 = b.alloc(0).unwrap(); // 0
        let a1 = b.alloc(0).unwrap(); // 1
        let a2 = b.alloc(0).unwrap(); // 2
                                      // Free 1 and 2: not buddies of each other (1^1=0, 2^1=3).
        b.free(a1, 0);
        b.free(a2, 0);
        assert_eq!(b.free_blocks_at(1), 1, "only one pair merged"); // pages 2-3 via buddy 3? no: 3 is free from init
        b.free(a0, 0);
        assert_eq!(b.free_pages(), 16);
    }

    #[test]
    fn non_power_of_two_total() {
        let mut b = BuddyAllocator::new(100);
        assert_eq!(b.free_pages(), 100);
        // Largest block is 64 pages (order 6).
        assert!(b.alloc(6).is_some());
        assert_eq!(b.alloc(6), None);
        assert!(b.alloc(5).is_some()); // 32 more
        assert_eq!(b.free_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(8);
        let blk = b.alloc(1).unwrap();
        b.free(blk, 1);
        b.free(blk, 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_free_panics() {
        let mut b = BuddyAllocator::new(8);
        let _ = b.alloc(1).unwrap();
        b.free(1, 1);
    }

    #[test]
    fn deterministic_allocation_order() {
        let mut a = BuddyAllocator::new(64);
        let mut b = BuddyAllocator::new(64);
        for _ in 0..10 {
            assert_eq!(a.alloc(1), b.alloc(1));
        }
    }
}
