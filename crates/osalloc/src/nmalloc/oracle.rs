//! The B-tree (n:m) allocator that the bitset pools replaced, kept as a
//! test oracle: each pool's free frames are one `BTreeSet`, and the base
//! buddy is the B-tree [`BTreeBuddy`] oracle.

use std::collections::{BTreeMap, BTreeSet};

use crate::buddy::oracle::BTreeBuddy;
use crate::nm::NmRatio;
use sdpcm_pcm::geometry::PAGES_PER_STRIP;

use super::{has_usable_frame, log2_floor, PAGES_PER_64MB};

/// A block drawn from `Free-(1:1)` to feed a pool.
#[derive(Debug, Clone, Copy)]
struct Region {
    /// Buddy order of the block (`2^order` frames).
    order: u8,
    /// Frames of the block outside marked strips.
    usable: u64,
    /// Usable frames currently in the pool (not handed out).
    free: u64,
}

#[derive(Debug, Clone, Default)]
struct Pool {
    /// Free usable frames, lowest first (deterministic).
    free: BTreeSet<u64>,
    /// Blocks feeding this pool, keyed by base frame.
    regions: BTreeMap<u64, Region>,
}

impl Pool {
    fn region_of(&mut self, frame: u64) -> Option<(u64, &mut Region)> {
        let (&base, region) = self.regions.range_mut(..=frame).next_back()?;
        (frame < base + (1 << region.order)).then_some((base, region))
    }
}

/// The B-tree (n:m) allocator over a [`BTreeBuddy`].
#[derive(Debug, Clone)]
pub struct BTreeNmAllocator {
    pub(super) base: BTreeBuddy,
    pools: BTreeMap<(u8, u8), Pool>,
}

impl BTreeNmAllocator {
    /// Creates an allocator over `total_pages` physical frames.
    #[must_use]
    pub fn new(total_pages: u64) -> BTreeNmAllocator {
        BTreeNmAllocator {
            base: BTreeBuddy::new(total_pages),
            pools: BTreeMap::new(),
        }
    }

    /// Frames still free in the baseline (1:1) buddy.
    #[must_use]
    pub fn base_free_pages(&self) -> u64 {
        self.base.free_pages()
    }

    /// Free usable frames currently pooled for `ratio`.
    #[must_use]
    pub fn pool_free_pages(&self, ratio: NmRatio) -> u64 {
        self.pools
            .get(&(ratio.n(), ratio.m()))
            .map_or(0, |p| p.free.len() as u64)
    }

    /// Allocates `count` page frames under `ratio`. Frames are usable
    /// (never in a marked strip), deterministic, and not necessarily
    /// physically contiguous — the page table provides the mapping.
    /// Returns `None` if memory is exhausted (no partial allocation
    /// leaks).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn alloc_pages(&mut self, ratio: NmRatio, count: u64) -> Option<Vec<u64>> {
        assert!(count > 0, "cannot allocate zero pages");
        if ratio.n() == ratio.m() {
            return self.alloc_from_base(count);
        }
        let key = (ratio.n(), ratio.m());
        let mut out = Vec::with_capacity(count as usize);
        while (out.len() as u64) < count {
            let pool = self.pools.entry(key).or_default();
            if let Some(f) = pool.free.pop_first() {
                let (_, region) = pool.region_of(f).expect("pooled frame lies in a region");
                region.free -= 1;
                out.push(f);
            } else if !self.refill_pool(ratio) {
                self.free_pages(ratio, &out);
                return None;
            }
        }
        Some(out)
    }

    /// Returns frames allocated under `ratio` to their pool; fully free
    /// feeding blocks are merged back into the (1:1) buddy.
    ///
    /// # Panics
    ///
    /// Panics on a double free or a frame that was never handed out by
    /// this allocator/ratio, before that frame changes any count.
    pub fn free_pages(&mut self, ratio: NmRatio, frames: &[u64]) {
        if ratio.n() == ratio.m() {
            for &f in frames {
                self.base.free(f, 0);
            }
            return;
        }
        let pool = self.pools.entry((ratio.n(), ratio.m())).or_default();
        for &f in frames {
            assert!(
                !ratio.is_nouse_strip(f / PAGES_PER_STRIP as u64),
                "foreign frame {f}: it lies in a strip {ratio} marks"
            );
            assert!(!pool.free.contains(&f), "double free of frame {f}");
            let Some((base, region)) = pool.region_of(f) else {
                panic!("double free or foreign frame {f}");
            };
            region.free += 1;
            let full = (region.free == region.usable).then_some(region.order);
            pool.free.insert(f);
            if let Some(order) = full {
                // Every usable frame of the block is back: return the
                // whole block, which came from the buddy as one, to
                // Free-(1:1).
                pool.regions.remove(&base);
                let pooled: Vec<u64> = pool
                    .free
                    .range(base..base + (1 << order))
                    .copied()
                    .collect();
                for p in pooled {
                    pool.free.remove(&p);
                }
                self.base.free(base, order);
            }
        }
    }

    fn alloc_from_base(&mut self, count: u64) -> Option<Vec<u64>> {
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match self.base.alloc(0) {
                Some(f) => out.push(f),
                None => {
                    for &f in &out {
                        self.base.free(f, 0);
                    }
                    return None;
                }
            }
        }
        Some(out)
    }

    /// Pulls one 64 MB block (or the largest block the base buddy can
    /// still supply) that holds a frame the ratio uses from Free-(1:1)
    /// into the ratio's pool. Blocks that lie wholly in marked strips are
    /// held aside while the search goes on, so each draw finds a block
    /// not yet tried, and go back to Free-(1:1) at the end. Returns
    /// `false`, keeping nothing, when no free frame lies outside the
    /// ratio's marked strips.
    fn refill_pool(&mut self, ratio: NmRatio) -> bool {
        // 64 MB blocks on real geometry; on scaled-down test devices take
        // a quarter of the device per refill (at least two strips) so
        // multiple allocators can coexist.
        let scaled = (self.base.total_pages() / 4).max(2 * PAGES_PER_STRIP as u64);
        let mut order = log2_floor(PAGES_PER_64MB.min(scaled).min(self.base.total_pages()));
        let mut marked = Vec::new();
        let drawn = loop {
            match self.base.alloc(order) {
                Some(base) if has_usable_frame(ratio, base, order) => break Some(base),
                Some(base) => marked.push((base, order)),
                None if order == 0 => break None,
                None => order -= 1,
            }
        };
        for (base, order) in marked {
            self.base.free(base, order);
        }
        let Some(base) = drawn else {
            return false;
        };
        let pool = self.pools.entry((ratio.n(), ratio.m())).or_default();
        let before = pool.free.len();
        pool.free.extend(
            (base..base + (1 << order))
                .filter(|f| !ratio.is_nouse_strip(f / PAGES_PER_STRIP as u64)),
        );
        let usable = (pool.free.len() - before) as u64;
        pool.regions.insert(
            base,
            Region {
                order,
                usable,
                free: usable,
            },
        );
        true
    }
}
