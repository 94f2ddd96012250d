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
//! A pool's free frames are one `BitSet` over the device, filled a
//! strip at a time when a block comes in; its blocks are a small ordered
//! map from base frame to the block's counts.
//!
//! The paper's block-granular details — request sizes scaled by `m/n` and
//! rounded up to a power of two, marked strips set aside as no-use
//! fragments while splitting — are not modelled: the simulator maps
//! frame by frame and reports no fragmentation counts.

use std::collections::BTreeMap;

use crate::bitset::BitSet;
use crate::buddy::BuddyAllocator;
use crate::nm::NmRatio;
use sdpcm_pcm::geometry::{PAGES_PER_STRIP, STRIPS_PER_64MB};

#[cfg(test)]
mod oracle;

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

#[derive(Debug, Clone)]
struct Pool {
    /// Free usable frames, lowest first (deterministic).
    free: BitSet,
    /// Blocks feeding this pool, keyed by base frame.
    regions: BTreeMap<u64, Region>,
}

impl Pool {
    fn new(total_pages: u64) -> Pool {
        Pool {
            free: BitSet::new(total_pages),
            regions: BTreeMap::new(),
        }
    }
}

/// The block of `regions` holding `frame`, with its base frame.
fn region_of(regions: &mut BTreeMap<u64, Region>, frame: u64) -> Option<(u64, &mut Region)> {
    let (&base, region) = regions.range_mut(..=frame).next_back()?;
    (frame < base + (1 << region.order)).then_some((base, region))
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
            .map_or(0, |p| p.free.len())
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
        let mut out = Vec::with_capacity(count as usize);
        while (out.len() as u64) < count {
            let pool = self.pool(ratio);
            if let Some(f) = pool.free.first() {
                // Take the block's lowest free frames in one pass.
                let (base, region) =
                    region_of(&mut pool.regions, f).expect("pooled frame lies in a region");
                let end = base + (1 << region.order);
                let want = count - out.len() as u64;
                region.free -= pool.free.drain_first_below(end, want, &mut out);
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
        let total = self.base.total_pages();
        let pool = self
            .pools
            .entry((ratio.n(), ratio.m()))
            .or_insert_with(|| Pool::new(total));
        for &f in frames {
            assert!(
                !ratio.is_nouse_strip(f / PAGES_PER_STRIP as u64),
                "foreign frame {f}: it lies in a strip {ratio} marks"
            );
            assert!(!pool.free.contains(f), "double free of frame {f}");
            let Some((base, region)) = region_of(&mut pool.regions, f) else {
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
                pool.free.remove_range(base, base + (1 << order));
                self.base.free(base, order);
            }
        }
    }

    /// The pool of `ratio`, created empty on first use.
    fn pool(&mut self, ratio: NmRatio) -> &mut Pool {
        let total = self.base.total_pages();
        self.pools
            .entry((ratio.n(), ratio.m()))
            .or_insert_with(|| Pool::new(total))
    }

    /// Single frames from Free-(1:1). `alloc(0)` fails only on an empty
    /// buddy, and freeing frames merges the buddy back to the same
    /// blocks, so a request larger than the free frames is refused
    /// without allocating any.
    fn alloc_from_base(&mut self, count: u64) -> Option<Vec<u64>> {
        if count > self.base.free_pages() {
            return None;
        }
        let mut out = Vec::with_capacity(count as usize);
        self.base.alloc_frames(count, &mut out);
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
        // The block's usable frames, a strip (part of one word) at a time.
        let (end, strip) = (base + (1 << order), PAGES_PER_STRIP as u64);
        let pool = self.pool(ratio);
        let usable = (base / strip..end.div_ceil(strip))
            .filter(|&s| !ratio.is_nouse_strip(s))
            .map(|s| {
                pool.free
                    .insert_range((s * strip).max(base), (s * strip + strip).min(end))
            })
            .sum();
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
    use super::oracle::BTreeNmAllocator;
    use super::*;
    use crate::buddy::MAX_ORDER;
    use proptest::test_runner::TestRng;
    use std::collections::HashMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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

    fn ratios() -> [NmRatio; 4] {
        [
            NmRatio::one_one(),
            NmRatio::one_two(),
            NmRatio::two_three(),
            NmRatio::three_four(),
        ]
    }

    /// An allocator and its B-tree oracle, driven with the same
    /// operations.
    struct Twin {
        a: NmAllocator,
        o: BTreeNmAllocator,
    }

    impl Twin {
        fn new(total: u64) -> Twin {
            Twin {
                a: NmAllocator::new(total),
                o: BTreeNmAllocator::new(total),
            }
        }

        fn alloc(&mut self, order: u8) -> Option<u64> {
            let got = self.a.base.alloc(order);
            assert_eq!(got, self.o.base.alloc(order), "alloc({order})");
            got
        }

        fn free(&mut self, base: u64, order: u8) {
            self.a.base.free(base, order);
            self.o.base.free(base, order);
        }

        fn alloc_pages(&mut self, ratio: NmRatio, count: u64) -> Option<Vec<u64>> {
            let got = self.a.alloc_pages(ratio, count);
            assert_eq!(got, self.o.alloc_pages(ratio, count), "{ratio} x {count}");
            got
        }

        fn free_pages(&mut self, ratio: NmRatio, frames: &[u64]) {
            self.a.free_pages(ratio, frames);
            self.o.free_pages(ratio, frames);
        }

        /// Every count either allocator reports.
        fn assert_same_counts(&self) {
            assert_eq!(self.a.base.free_pages(), self.o.base.free_pages());
            for order in 0..=MAX_ORDER {
                assert_eq!(
                    self.a.base.free_blocks_at(order),
                    self.o.base.free_blocks_at(order),
                    "free blocks at order {order}"
                );
            }
            assert_eq!(self.a.base_free_pages(), self.o.base_free_pages());
            for ratio in ratios() {
                assert_eq!(
                    self.a.pool_free_pages(ratio),
                    self.o.pool_free_pages(ratio),
                    "{ratio} pool"
                );
            }
        }
    }

    /// What a churn against the oracle ran into.
    #[derive(Debug, Default)]
    struct Seen {
        /// `alloc(order)` calls refused.
        blocks_refused: u64,
        /// `alloc_pages` calls refused, under (1:1) and under a pool.
        pages_refused: [u64; 2],
        /// Pool frees that returned a whole block to Free-(1:1).
        blocks_returned: u64,
    }

    /// Mixes `alloc(order)` at every order, `free` of held blocks,
    /// `alloc_pages` under (1:1), (1:2), (2:3) and (3:4), and frees split
    /// into up to four pieces on one allocator of `total` frames and on
    /// the oracle, comparing every result and count after each operation;
    /// then frees everything.
    fn churn_against_oracle(total: u64, seed: u32, ops: usize) -> Seen {
        let mut rng = TestRng::for_case("nm-alloc-vs-btree", seed);
        let mut t = Twin::new(total);
        let mut blocks: Vec<(u64, u8)> = Vec::new();
        let mut held: Vec<(NmRatio, Vec<u64>)> = Vec::new();
        let mut seen = Seen::default();
        let fitting = u64::from(log2_floor(total)) + 1;
        for _ in 0..ops {
            match rng.below(8) {
                0 => {
                    // Orders that can fit half the time, any order else.
                    let orders = if rng.below(2) == 0 { fitting } else { 17 };
                    let order = rng.below(orders) as u8;
                    match t.alloc(order) {
                        Some(base) => blocks.push((base, order)),
                        None => seen.blocks_refused += 1,
                    }
                }
                1 if !blocks.is_empty() => {
                    let (base, order) = blocks.swap_remove(rng.below(blocks.len() as u64) as usize);
                    t.free(base, order);
                }
                // Allocate pages twice as often as free them, so the
                // device fills up.
                2..=5 => {
                    let ratio = ratios()[rng.below(4) as usize];
                    let count = 1 + rng.below(total / 8 + 1);
                    match t.alloc_pages(ratio, count) {
                        Some(frames) => held.push((ratio, frames)),
                        None => seen.pages_refused[usize::from(ratio.n() != ratio.m())] += 1,
                    }
                }
                _ if !held.is_empty() => {
                    let (ratio, frames) = held.swap_remove(rng.below(held.len() as u64) as usize);
                    let mut rest = &frames[..];
                    for _ in 0..rng.below(4) {
                        let (piece, tail) =
                            rest.split_at(rng.below(rest.len() as u64 + 1) as usize);
                        let before = t.a.base_free_pages();
                        t.free_pages(ratio, piece);
                        seen.blocks_returned +=
                            u64::from(t.a.base_free_pages() > before && ratio.n() != ratio.m());
                        t.assert_same_counts();
                        rest = tail;
                    }
                    let before = t.a.base_free_pages();
                    t.free_pages(ratio, rest);
                    seen.blocks_returned +=
                        u64::from(t.a.base_free_pages() > before && ratio.n() != ratio.m());
                }
                _ => {}
            }
            t.assert_same_counts();
        }
        for (base, order) in blocks {
            t.free(base, order);
        }
        for (ratio, frames) in held {
            t.free_pages(ratio, &frames);
        }
        t.assert_same_counts();
        assert_eq!(t.a.base_free_pages(), total);
        seen
    }

    #[test]
    fn churn_matches_btree_oracle() {
        for (seed, total) in [16u64, 64, 100, 1 << 10, 3000, 1 << 12]
            .into_iter()
            .enumerate()
        {
            let seen = churn_against_oracle(total, seed as u32, 1500);
            assert!(seen.blocks_refused > 0, "{total}: {seen:?}");
            assert!(
                seen.pages_refused.iter().all(|&n| n > 0),
                "{total}: {seen:?}"
            );
            assert!(seen.blocks_returned > 0, "{total}: {seen:?}");
        }
    }

    /// The two frees whose panics must match the oracle's.
    trait Frees {
        fn free_pages(&mut self, ratio: NmRatio, frames: &[u64]);
        fn free_block(&mut self, base: u64, order: u8);
    }

    impl Frees for NmAllocator {
        fn free_pages(&mut self, ratio: NmRatio, frames: &[u64]) {
            NmAllocator::free_pages(self, ratio, frames);
        }
        fn free_block(&mut self, base: u64, order: u8) {
            self.base.free(base, order);
        }
    }

    impl Frees for BTreeNmAllocator {
        fn free_pages(&mut self, ratio: NmRatio, frames: &[u64]) {
            BTreeNmAllocator::free_pages(self, ratio, frames);
        }
        fn free_block(&mut self, base: u64, order: u8) {
            self.base.free(base, order);
        }
    }

    /// The panic message of `f`.
    fn panic_of(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .expect("a string panic")
    }

    /// Runs `setup` on an allocator of `total` frames and its oracle, then
    /// `bad` on each: both must panic with the same message, which must
    /// contain `want`.
    fn assert_same_panic(
        total: u64,
        setup: impl Fn(&mut Twin),
        bad: impl Fn(&mut dyn Frees),
        want: &str,
    ) {
        let mut t = Twin::new(total);
        setup(&mut t);
        let new = panic_of(|| bad(&mut t.a));
        let old = panic_of(|| bad(&mut t.o));
        assert_eq!(new, old);
        assert!(new.contains(want), "{new:?} lacks {want:?}");
    }

    #[test]
    fn panics_match_btree_oracle() {
        let (one_one, one_two, two_three) =
            (NmRatio::one_one(), NmRatio::one_two(), NmRatio::two_three());
        let take = |ratio: NmRatio, n: u64| {
            move |t: &mut Twin| {
                t.alloc_pages(ratio, n);
            }
        };
        // A pool frame freed twice, in one call and in two.
        assert_same_panic(
            256,
            take(one_two, 4),
            |a| a.free_pages(one_two, &[0, 1, 0]),
            "double free of frame 0",
        );
        assert_same_panic(
            256,
            |t| {
                let f = t.alloc_pages(one_two, 2).unwrap();
                t.free_pages(one_two, &f[..1]);
            },
            |a| a.free_pages(one_two, &[0]),
            "double free of frame 0",
        );
        // A frame of another ratio's pool, and one past the device.
        assert_same_panic(
            4096,
            |t| {
                take(one_two, 8)(t);
                take(two_three, 8)(t);
            },
            |a| a.free_pages(two_three, &[0]),
            "double free or foreign frame 0",
        );
        assert_same_panic(
            256,
            take(one_two, 4),
            |a| a.free_pages(one_two, &[1 << 20]),
            "foreign frame 1048576",
        );
        // A frame in a strip the ratio marks.
        assert_same_panic(
            128,
            take(one_two, 16),
            |a| a.free_pages(one_two, &[16]),
            "foreign frame 16: it lies in a strip (1:2) marks",
        );
        // (1:1) frames go straight back to the buddy.
        assert_same_panic(
            64,
            take(one_one, 2),
            |a| a.free_pages(one_one, &[0, 0]),
            "double free or unallocated block 0 at order 0",
        );
        // Buddy frees on 100 frames (blocks of 64, 32 and 4), where
        // `alloc(2)` takes the block at 96: misaligned, out of range,
        // never allocated, too large an order, and a double free.
        let block = |t: &mut Twin| assert_eq!(t.alloc(2), Some(96));
        assert_same_panic(100, block, |a| a.free_block(2, 2), "misaligned free");
        assert_same_panic(100, block, |a| a.free_block(96, 3), "block out of range");
        assert_same_panic(100, block, |a| a.free_block(200, 2), "block out of range");
        assert_same_panic(
            100,
            block,
            |a| a.free_block(8, 2),
            "double free or unallocated block 8 at order 2",
        );
        assert_same_panic(
            100,
            block,
            |a| a.free_block(0, MAX_ORDER + 1),
            "order too large",
        );
        assert_same_panic(
            100,
            block,
            |a| {
                a.free_block(96, 2);
                a.free_block(96, 2);
            },
            "double free or unallocated block 96 at order 2",
        );
    }

    /// Release-mode soak against the B-tree oracle: long churns on
    /// devices of the sizes fig11 maps (50k-100k frames), then one
    /// 2^22-frame device allocated to exhaustion in order-0 pages, freed
    /// again in a scattered order, and filled again under (1:1).
    #[test]
    #[ignore = "soak: run with cargo test --release -p sdpcm-osalloc -- --ignored"]
    fn churn_matches_btree_oracle_soak() {
        for (seed, total) in [49_664u64, 65_536, 74_240, 99_328].into_iter().enumerate() {
            let seen = churn_against_oracle(total, 100 + seed as u32, 5_000);
            assert!(seen.blocks_refused > 0, "{total}: {seen:?}");
            assert!(
                seen.pages_refused.iter().all(|&n| n > 0),
                "{total}: {seen:?}"
            );
            assert!(seen.blocks_returned > 0, "{total}: {seen:?}");
        }
        let total = 1u64 << 22;
        let mut t = Twin::new(total);
        let mut frames = Vec::with_capacity(total as usize);
        while let Some(f) = t.alloc(0) {
            frames.push(f);
        }
        assert_eq!(frames.len() as u64, total);
        t.assert_same_counts();
        // Free with an odd stride, so buddies come back far apart.
        for i in 0..total {
            let f = frames[(i * 2_654_435_761 % total) as usize];
            t.free(f, 0);
            if i % 4096 == 0 {
                t.assert_same_counts();
            }
        }
        t.assert_same_counts();
        assert_eq!(t.a.base.free_blocks_at(MAX_ORDER), 64);
        // Again under (1:1), in requests of up to 2^16 frames.
        let mut rng = TestRng::for_case("nm-alloc-vs-btree-exhaust", 0);
        while t
            .alloc_pages(NmRatio::one_one(), 1 + rng.below(1 << 16))
            .is_some()
        {
            t.assert_same_counts();
        }
        assert!(t.a.base_free_pages() < 1 << 16);
    }
}
