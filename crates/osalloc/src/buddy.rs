//! A classic buddy page allocator.
//!
//! The OS baseline of §4.4: free blocks of 2^order pages kept in
//! per-order sets; allocation splits larger blocks, freeing merges
//! buddies back together. [`crate::nmalloc`] layers the (n:m) frame
//! pools on top of this.
//!
//! Each order's free blocks and allocated blocks are a `BitSet` with
//! block `base` at bit `base >> order`, and a mask records which orders
//! have a free block. Allocation takes the lowest free block of the
//! smallest order that has one, so the allocator hands out the same
//! blocks in the same order as an ordered set of free bases would.

use crate::bitset::BitSet;

#[cfg(test)]
pub(crate) mod oracle;

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
    /// Free blocks per order, block `base` at bit `base >> order`; the
    /// lowest comes out first, so allocation is deterministic.
    free_lists: Vec<BitSet>,
    /// Bit `order` is set while `free_lists[order]` is non-empty.
    nonempty: u32,
    /// Outstanding allocations per order, indexed like `free_lists`, for
    /// double-free detection.
    allocated: Vec<BitSet>,
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
        // A block of order `o` that fits has `base >> o < total >> o`.
        let sets = || {
            (0..=MAX_ORDER)
                .map(|o| BitSet::new(total_pages >> o))
                .collect()
        };
        let mut b = BuddyAllocator {
            total_pages,
            free_lists: sets(),
            nonempty: 0,
            allocated: sets(),
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
            b.push_free(base, order);
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
        self.free_lists[usize::from(order)].len() as usize
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
        // The smallest order with a free block.
        let larger = self.nonempty >> order;
        if larger == 0 {
            return None;
        }
        let mut have = order + larger.trailing_zeros() as u8;
        let base = self.pop_free(have);
        // Split down to the requested order, freeing upper halves.
        while have > order {
            have -= 1;
            self.push_free(base + (1u64 << have), have);
        }
        self.free_pages -= 1 << order;
        self.allocated[usize::from(order)].insert(base >> order);
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
            self.allocated[usize::from(order)].remove(base >> order),
            "double free or unallocated block {base} at order {order}"
        );
        let mut base = base;
        let mut order = order;
        loop {
            assert!(
                !self.free_lists[usize::from(order)].contains(base >> order),
                "double free of block {base} at order {order}"
            );
            let buddy = base ^ (1u64 << order);
            let can_merge = order < MAX_ORDER
                && buddy + (1u64 << order) <= self.total_pages
                && self.remove_free(buddy, order);
            if !can_merge {
                self.push_free(base, order);
                break;
            }
            base = base.min(buddy);
            order += 1;
        }
        self.free_pages += size;
    }

    /// Allocates `count` single frames into `out`: the frames, in order,
    /// that `count` calls of `alloc(0)` return, leaving the allocator as
    /// those calls would, a block at a time.
    ///
    /// `alloc(0)` splits the lowest block of the smallest order that has
    /// one, and hands out that block's frames lowest first: the halves
    /// each split frees are the only smaller blocks until the block is
    /// used up. Its unused end is left as the aligned blocks those splits
    /// leave.
    pub(crate) fn alloc_frames(&mut self, count: u64, out: &mut Vec<u64>) {
        assert!(
            count <= self.free_pages,
            "only {} frames free",
            self.free_pages
        );
        let mut left = count;
        while left > 0 {
            let order = self.nonempty.trailing_zeros() as u8;
            let base = self.pop_free(order);
            let (end, take) = (base + (1 << order), left.min(1 << order));
            out.extend(base..base + take);
            self.allocated[0].insert_range(base, base + take);
            let mut rest = base + take;
            while rest < end {
                let o = rest.trailing_zeros() as u8;
                self.push_free(rest, o);
                rest += 1 << o;
            }
            self.free_pages -= take;
            left -= take;
        }
    }

    /// Removes and returns the lowest free block of `order`, which must
    /// have one.
    fn pop_free(&mut self, order: u8) -> u64 {
        let index = self.free_lists[usize::from(order)].first();
        let base = index.expect("a free block at a non-empty order") << order;
        self.remove_free(base, order);
        base
    }

    /// Removes the free block at `base` of `order`; returns whether it
    /// was free.
    fn remove_free(&mut self, base: u64, order: u8) -> bool {
        let list = &mut self.free_lists[usize::from(order)];
        let removed = list.remove(base >> order);
        if list.len() == 0 {
            self.nonempty &= !(1 << order);
        }
        removed
    }

    fn push_free(&mut self, base: u64, order: u8) {
        self.free_lists[usize::from(order)].insert(base >> order);
        self.nonempty |= 1 << order;
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::BTreeBuddy;
    use super::*;
    use proptest::test_runner::TestRng;

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

    /// Random `alloc` at every order, into exhaustion, runs of single
    /// frames, and `free` of held blocks against the B-tree oracle, comparing every result and every
    /// per-order count after each operation.
    #[test]
    fn matches_btree_oracle() {
        for (case, total) in [1u64, 7, 64, 100, 1000, 4096, 70_000]
            .into_iter()
            .enumerate()
        {
            let mut rng = TestRng::for_case("buddy-vs-btree", case as u32);
            let mut b = BuddyAllocator::new(total);
            let mut o = BTreeBuddy::new(total);
            let mut held = Vec::new();
            let mut refused = 0;
            for _ in 0..2000 {
                let op = rng.below(6);
                if op == 0 {
                    // A run of single frames, as many `alloc(0)` calls.
                    let count = rng.below(b.free_pages() + 1);
                    let mut got = Vec::new();
                    b.alloc_frames(count, &mut got);
                    let want: Vec<u64> = (0..count).map_while(|_| o.alloc(0)).collect();
                    assert_eq!(got, want, "{count} frames of {total}");
                    held.extend(got.into_iter().map(|f| (f, 0)));
                } else if held.is_empty() || op < 4 {
                    let order = rng.below(u64::from(MAX_ORDER) + 1) as u8;
                    let got = b.alloc(order);
                    assert_eq!(got, o.alloc(order), "alloc({order}) of {total}");
                    match got {
                        Some(base) => held.push((base, order)),
                        None => refused += 1,
                    }
                } else {
                    let (base, order) = held.swap_remove(rng.below(held.len() as u64) as usize);
                    b.free(base, order);
                    o.free(base, order);
                }
                assert_eq!(b.free_pages(), o.free_pages());
                for order in 0..=MAX_ORDER {
                    assert_eq!(b.free_blocks_at(order), o.free_blocks_at(order));
                }
            }
            assert!(refused > 0, "{total} frames never ran out");
            for (base, order) in held {
                b.free(base, order);
            }
            assert_eq!(b.free_pages(), total);
        }
    }
}
