//! The B-tree buddy allocator that the bitset buddy replaced, kept as a
//! test oracle: one `BTreeSet` of free block bases per order and one
//! `BTreeSet` of `(base, order)` allocations.

use std::collections::BTreeSet;

use super::MAX_ORDER;

/// The B-tree buddy allocator over page frames `0..total_pages`.
#[derive(Debug, Clone)]
pub struct BTreeBuddy {
    total_pages: u64,
    /// Free blocks per order; `BTreeSet` gives deterministic (lowest
    /// address first) allocation order.
    free_lists: Vec<BTreeSet<u64>>,
    /// Outstanding allocations, for double-free detection.
    allocated: BTreeSet<(u64, u8)>,
    free_pages: u64,
}

impl BTreeBuddy {
    /// Creates an allocator over `total_pages` frames (need not be a
    /// power of two; the range is tiled greedily with aligned blocks).
    ///
    /// # Panics
    ///
    /// Panics if `total_pages` is zero.
    #[must_use]
    pub fn new(total_pages: u64) -> BTreeBuddy {
        assert!(total_pages > 0, "allocator needs pages");
        let mut b = BTreeBuddy {
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

    /// Frees a block previously returned by [`BTreeBuddy::alloc`],
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
