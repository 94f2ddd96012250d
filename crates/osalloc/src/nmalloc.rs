//! The WD-aware page allocator: (n:m) frame pools over the buddy system
//! (paper §4.4, Figure 10).
//!
//! The OS keeps the baseline buddy allocator as `Free-(1:1)`, and (1:1)
//! requests take single frames straight from it. Every other `(n:m)`
//! ratio owns a pool of free frames, fed with one aligned block at a
//! time from `Free-(1:1)`: 64 MB on real geometry, a quarter of the
//! device on scaled-down test geometries. Only frames in strips the ratio
//! leaves unmarked ([`NmRatio::is_nouse_strip`]) enter the pool; the
//! marked strips stay inside the block as thermal bands. A pool hands out
//! its lowest free frame first, so allocation is deterministic, and the
//! frames of one request need not be contiguous: the page table maps
//! them. Freeing returns frames to their pool, and once every usable
//! frame of a block is free again the whole block goes back to
//! `Free-(1:1)` (the paper's fragmentation-reduction path).
//!
//! The paper's block-granular details — request sizes scaled by `m/n` and
//! rounded up to a power of two, marked strips set aside as no-use
//! fragments while splitting — are not modelled: the simulator maps
//! frame by frame and reports no fragmentation counts.

use std::collections::{BTreeMap, BTreeSet};

use crate::buddy::BuddyAllocator;
use crate::nm::NmRatio;
use sdpcm_pcm::geometry::{PAGES_PER_STRIP, STRIPS_PER_64MB};

/// Pages per 64 MB block.
pub const PAGES_PER_64MB: u64 = STRIPS_PER_64MB * PAGES_PER_STRIP as u64;

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

/// The OS page allocator with (n:m) support.
///
/// # Examples
///
/// ```
/// use sdpcm_osalloc::{NmAllocator, NmRatio};
///
/// let ratio = NmRatio::one_two();
/// let mut a = NmAllocator::new(1 << 16); // 64K frames = 256 MB
/// let frames = a.alloc_pages(ratio, 32).unwrap();
/// assert_eq!(frames.len(), 32);
/// // No frame lies in a strip the ratio marks.
/// assert!(frames.iter().all(|f| !ratio.is_nouse_strip(f / 16)));
/// ```
#[derive(Debug, Clone)]
pub struct NmAllocator {
    base: BuddyAllocator,
    pools: BTreeMap<(u8, u8), Pool>,
}

impl NmAllocator {
    /// Creates an allocator over `total_pages` physical frames.
    #[must_use]
    pub fn new(total_pages: u64) -> NmAllocator {
        NmAllocator {
            base: BuddyAllocator::new(total_pages),
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

/// Whether the block of `2^order` frames at `base` has a frame outside
/// the strips `ratio` marks.
fn has_usable_frame(ratio: NmRatio, base: u64, order: u8) -> bool {
    let strip = PAGES_PER_STRIP as u64;
    (base / strip..=(base + (1 << order) - 1) / strip).any(|s| !ratio.is_nouse_strip(s))
}

fn log2_floor(v: u64) -> u8 {
    (63 - v.leading_zeros()) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use std::collections::HashMap;

    #[test]
    fn one_one_allocates_everything() {
        let mut a = NmAllocator::new(256);
        let frames = a.alloc_pages(NmRatio::one_one(), 256).unwrap();
        assert_eq!(frames.len(), 256);
        assert!(a.alloc_pages(NmRatio::one_one(), 1).is_none());
    }

    #[test]
    fn one_two_skips_odd_strips() {
        let mut a = NmAllocator::new(1024);
        let frames = a.alloc_pages(NmRatio::one_two(), 100).unwrap();
        for f in frames {
            let strip = f / 16;
            assert_eq!(strip % 2, 0, "frame {f} in marked strip {strip}");
        }
    }

    #[test]
    fn two_three_skips_position_one() {
        let mut a = NmAllocator::new(4096);
        let frames = a.alloc_pages(NmRatio::two_three(), 500).unwrap();
        for f in frames {
            let strip = f / 16;
            assert_ne!(strip % 3, 1, "frame {f} in marked strip {strip}");
        }
    }

    #[test]
    fn capacity_loss_matches_ratio() {
        // 4096 frames = 256 strips; (1:2) can hand out at most half.
        let mut a = NmAllocator::new(4096);
        let got = a.alloc_pages(NmRatio::one_two(), 2048);
        assert!(got.is_some());
        assert!(a.alloc_pages(NmRatio::one_two(), 1).is_none());
    }

    #[test]
    fn exhaustion_rolls_back() {
        let mut a = NmAllocator::new(64); // 4 strips; (1:2) usable = 32 frames
        assert!(a.alloc_pages(NmRatio::one_two(), 33).is_none());
        // The failed allocation must not leak frames.
        let ok = a.alloc_pages(NmRatio::one_two(), 32).unwrap();
        assert_eq!(ok.len(), 32);
    }

    #[test]
    fn free_and_reclaim_to_base() {
        let mut a = NmAllocator::new(128);
        let before = a.base_free_pages();
        let frames = a.alloc_pages(NmRatio::one_two(), 8).unwrap();
        assert!(a.base_free_pages() < before);
        a.free_pages(NmRatio::one_two(), &frames);
        // Fully free block returns to the (1:1) buddy.
        assert_eq!(a.base_free_pages(), before);
        assert_eq!(a.pool_free_pages(NmRatio::one_two()), 0);
    }

    #[test]
    fn partial_free_keeps_region_in_pool() {
        let mut a = NmAllocator::new(128);
        let frames = a.alloc_pages(NmRatio::one_two(), 8).unwrap();
        a.free_pages(NmRatio::one_two(), &frames[..4]);
        assert!(a.pool_free_pages(NmRatio::one_two()) > 0);
        // Remaining frames still valid to free afterwards.
        a.free_pages(NmRatio::one_two(), &frames[4..]);
        assert_eq!(a.pool_free_pages(NmRatio::one_two()), 0);
    }

    #[test]
    fn pools_are_independent() {
        let mut a = NmAllocator::new(8192);
        let f12 = a.alloc_pages(NmRatio::one_two(), 10).unwrap();
        let f23 = a.alloc_pages(NmRatio::two_three(), 10).unwrap();
        for f in &f12 {
            assert!(!f23.contains(f));
        }
    }

    #[test]
    fn multiple_refills_use_distinct_blocks() {
        // Device of 4 order-5 blocks; each refill grabs 32 pages.
        let mut a = NmAllocator::new(128);
        let lots = a.alloc_pages(NmRatio::one_two(), 60).unwrap();
        let mut sorted = lots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 60, "no duplicate frames");
    }

    #[test]
    fn deterministic() {
        let mut a = NmAllocator::new(2048);
        let mut b = NmAllocator::new(2048);
        assert_eq!(
            a.alloc_pages(NmRatio::two_three(), 64),
            b.alloc_pages(NmRatio::two_three(), 64)
        );
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut a = NmAllocator::new(256);
        let frames = a.alloc_pages(NmRatio::one_two(), 1).unwrap();
        a.free_pages(NmRatio::one_two(), &frames);
        a.free_pages(NmRatio::one_two(), &frames);
    }

    #[test]
    #[should_panic(expected = "lies in a strip (1:2) marks")]
    fn freeing_a_marked_strip_frame_panics() {
        let mut a = NmAllocator::new(128);
        let frames = a.alloc_pages(NmRatio::one_two(), 16).unwrap();
        assert_eq!(frames, (0..16).collect::<Vec<u64>>());
        // Frame 16 lies in marked strip 1 of the same block; accepting it
        // would put a thermal-band frame into the pool.
        a.free_pages(NmRatio::one_two(), &[16]);
    }

    #[test]
    #[should_panic(expected = "lies in a strip (1:2) marks")]
    fn a_marked_frame_cannot_complete_a_block_still_in_use() {
        let mut a = NmAllocator::new(128);
        let _held = a.alloc_pages(NmRatio::one_two(), 16).unwrap();
        // Frames 0..15 are held; 0..14 plus the marked frame 16 would
        // count as 16 returns and reclaim the block with frame 15 in use.
        let mut frames: Vec<u64> = (0..15).collect();
        frames.push(16);
        a.free_pages(NmRatio::one_two(), &frames);
    }

    #[test]
    fn a_refill_with_no_usable_frame_keeps_nothing() {
        let mut a = NmAllocator::new(64);
        let held = a.alloc_pages(NmRatio::one_one(), 48).unwrap();
        // Only frames 48..63 are left: marked strip 3 under (1:2).
        assert!(a.alloc_pages(NmRatio::one_two(), 1).is_none());
        assert_eq!(a.base_free_pages(), 16, "the drawn block went back");
        a.free_pages(NmRatio::one_one(), &held);
        assert_eq!(a.base_free_pages(), 64);
        assert_eq!(a.alloc_pages(NmRatio::one_one(), 64).unwrap().len(), 64);
    }

    #[test]
    fn a_refill_looks_past_a_wholly_marked_block() {
        let mut a = NmAllocator::new(64);
        let held = a.alloc_pages(NmRatio::one_one(), 48).unwrap();
        assert_eq!(held, (0..48).collect::<Vec<u64>>());
        a.free_pages(NmRatio::one_one(), &[0]);
        // Free: frame 0 in used strip 0, and frames 48..63, which the
        // buddy supplies first as one block wholly in marked strip 3.
        assert_eq!(a.alloc_pages(NmRatio::one_two(), 1), Some(vec![0]));
        assert_eq!(a.base_free_pages(), 16, "the marked block went back");
        assert!(a.alloc_pages(NmRatio::one_two(), 1).is_none());
        assert_eq!(a.base_free_pages(), 16);
    }

    /// Runs `ops` random allocations and frees under (1:1), (1:2), (2:3)
    /// and (3:4) on one allocator of `total` frames, checking every
    /// result against the set of frames held, then frees everything.
    fn churn_against_held_set(total: u64, seed: u32, ops: usize) {
        let ratios = [
            NmRatio::one_one(),
            NmRatio::one_two(),
            NmRatio::two_three(),
            NmRatio::three_four(),
        ];
        let mut rng = TestRng::for_case("nm-alloc-churn", seed);
        let mut a = NmAllocator::new(total);
        let mut owner: HashMap<u64, NmRatio> = HashMap::new();
        let mut held: Vec<(NmRatio, Vec<u64>)> = Vec::new();
        let mut exhausted = 0;
        for _ in 0..ops {
            // Allocate twice as often as free, so the device fills up.
            if held.is_empty() || rng.below(3) > 0 {
                let ratio = ratios[rng.below(4) as usize];
                let count = 1 + rng.below(total / 8 + 1);
                let base_free = a.base_free_pages();
                let Some(frames) = a.alloc_pages(ratio, count) else {
                    exhausted += 1;
                    if ratio == NmRatio::one_one() {
                        assert!(
                            base_free < count,
                            "(1:1) refused {count} of {base_free} free"
                        );
                    }
                    continue;
                };
                assert_eq!(frames.len() as u64, count);
                for &f in &frames {
                    assert!(f < total);
                    assert!(
                        !ratio.is_nouse_strip(f / 16),
                        "frame {f} in a strip {ratio} marks"
                    );
                    assert!(
                        owner.insert(f, ratio).is_none(),
                        "frame {f} handed out twice"
                    );
                }
                held.push((ratio, frames));
            } else {
                let (ratio, frames) = held.swap_remove(rng.below(held.len() as u64) as usize);
                // Free in two calls so blocks go back piecewise.
                let (first, rest) = frames.split_at(rng.below(frames.len() as u64) as usize);
                a.free_pages(ratio, first);
                a.free_pages(ratio, rest);
                for f in frames {
                    assert_eq!(owner.remove(&f), Some(ratio));
                }
            }
        }
        assert!(exhausted > 0, "the churn never filled the device");
        for (ratio, frames) in held {
            a.free_pages(ratio, &frames);
        }
        assert_eq!(a.base_free_pages(), total);
        for ratio in ratios {
            assert_eq!(a.pool_free_pages(ratio), 0, "{ratio} pool not emptied");
        }
    }

    /// Release-mode soak: long churns that keep running into exhaustion,
    /// on device sizes from a few strips to one 64 MB block.
    #[test]
    #[ignore = "soak: run with cargo test --release -p sdpcm-osalloc -- --ignored"]
    fn churn_against_held_set_soak() {
        for seed in 0..12 {
            let total = [64, 100, 1 << 10, 3000, 1 << 12, 1 << 14][seed as usize % 6];
            churn_against_held_set(total, seed, 20_000);
        }
    }
}
