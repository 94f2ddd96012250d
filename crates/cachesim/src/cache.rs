//! A generic set-associative cache.
//!
//! Write-back, write-allocate, true LRU. Addresses are *line* addresses
//! (byte address / 64); the cache never stores data — the device store is
//! the single source of truth for contents — only presence and dirtiness,
//! which is all the timing model needs.
//!
//! # Layout
//!
//! Storage is two flat arrays indexed `set * ways + way`: a `u32` tag
//! per way and one metadata byte per way, which packs a valid bit, a
//! dirty bit and a 6-bit recency rank — five bytes per way, and
//! nothing per set. The ranks of a set's valid ways are a permutation of
//! `0..valid`, with 0 the most recently used. Touching a way of rank `r`
//! (an invalid way counts as rank ∞) ages every valid way ranked below
//! `r` by one and makes the touched way rank 0; invalidating rank `r`
//! promotes every valid way ranked above it. The victim is the
//! lowest-index invalid way, or in a full set the way ranked
//! `ways − 1`. That is exactly the order a per-access timestamp gives
//! (the tick-based cache this layout replaced is kept as the test
//! oracle), without a counter to store or to overflow.
//!
//! # Residency
//!
//! An all-zero way is invalid, so both arrays start all zero, and large
//! ones are mappings of their own (see the `pages` module): the OS maps
//! a page only when a set on it is first written, however the heap was
//! used before. A cold cache therefore costs only the sets it has
//! touched. A fully warmed Table 2 L3 (32 MB, 512 Ki ways) holds
//! 2.5 MiB per core; the `Vec<Vec<Way>>` layout it replaced wrote 12 MiB
//! of 24-byte ways plus one heap block per set at build time.

use sdpcm_engine::Cycle;

use crate::pages::ZeroedArray;

/// Line size used throughout the system (Table 2: 64 B lines everywhere).
pub const LINE_BYTES: u64 = 64;

/// Metadata bit: the way holds a line.
const VALID: u8 = 0x80;
/// Metadata bit: the line is dirty.
const DIRTY: u8 = 0x40;
/// Metadata bits: the way's recency rank (0 = most recently used).
const RANK: u8 = 0x3f;
/// The rank an invalid way counts as when it is filled: above every
/// valid rank.
const UNRANKED: u8 = RANK + 1;

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Hit latency.
    pub hit_latency: Cycle,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide into whole sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        assert!(self.ways > 0 && self.size_bytes > 0);
        let lines = self.size_bytes / LINE_BYTES;
        assert!(
            lines.is_multiple_of(u64::from(self.ways)) && lines > 0,
            "capacity must divide into whole sets"
        );
        lines / u64::from(self.ways)
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Dirty line evicted to make room (line address), if any.
    pub writeback: Option<u64>,
}

/// A set-associative cache over line addresses.
///
/// # Examples
///
/// ```
/// use sdpcm_cachesim::cache::{AccessKind, CacheConfig, SetAssocCache};
/// use sdpcm_engine::Cycle;
///
/// let mut c = SetAssocCache::new(CacheConfig {
///     size_bytes: 4096,
///     ways: 2,
///     hit_latency: Cycle(2),
/// });
/// assert!(!c.access(7, AccessKind::Read).hit); // cold miss
/// assert!(c.access(7, AccessKind::Read).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: u64,
    /// Per-way tags (`line_addr / sets`), `set * ways + way`.
    tags: ZeroedArray<u32>,
    /// Per-way valid bit, dirty bit and recency rank, same indexing;
    /// 0 is an invalid way.
    meta: ZeroedArray<u8>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache. Its storage is zeroed memory that the OS
    /// maps only as sets are first used.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not divide into whole sets, or if
    /// it has more than 64 ways (the recency rank is six bits).
    #[must_use]
    pub fn new(config: CacheConfig) -> SetAssocCache {
        let sets = config.sets();
        assert!(
            config.ways <= u32::from(UNRANKED),
            "at most {UNRANKED} ways: the recency rank is six bits"
        );
        let n = sets as usize * config.ways as usize;
        SetAssocCache {
            config,
            sets,
            tags: ZeroedArray::new(n),
            meta: ZeroedArray::new(n),
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit count so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The first way of `line_addr`'s set and its tag, or `None` when
    /// the tag does not fit in 32 bits (such a line is never cached).
    fn locate(&self, line_addr: u64) -> Option<(usize, u32)> {
        let tag = u32::try_from(line_addr / self.sets).ok()?;
        let set = (line_addr % self.sets) as usize;
        Some((set * self.config.ways as usize, tag))
    }

    /// The way of the set at `base` that holds `tag`, if any.
    fn find(&self, base: usize, tag: u32) -> Option<usize> {
        let ways = self.config.ways as usize;
        (base..base + ways).find(|&i| self.meta[i] & VALID != 0 && self.tags[i] == tag)
    }

    /// Accesses `line_addr`; on a miss the line is allocated (the caller
    /// is responsible for fetching it from below). Returns hit status and
    /// any dirty victim's line address.
    ///
    /// # Panics
    ///
    /// Panics if `line_addr / sets` does not fit in a 32-bit tag, that is
    /// from line 2³² × sets on. The smallest Table 2 cache (the 32 KB L1)
    /// has 128 sets, so the limit there is 2³⁹ lines (32 TiB); the
    /// simulated device has 2²⁷ lines.
    pub fn access(&mut self, line_addr: u64, kind: AccessKind) -> AccessOutcome {
        let Some((base, tag)) = self.locate(line_addr) else {
            panic!(
                "line {line_addr:#x} needs a tag wider than 32 bits in a {}-set cache",
                self.sets
            )
        };
        let dirty = if kind == AccessKind::Write { DIRTY } else { 0 };
        if let Some(i) = self.find(base, tag) {
            let m = self.meta[i];
            self.touch(base, i, m & RANK, (m & DIRTY) | dirty);
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        let ways = self.config.ways as usize;
        let set = &self.meta[base..base + ways];
        // Victim: the first invalid way if any, else the LRU way.
        let (i, rank) = match set.iter().position(|&m| m == 0) {
            Some(w) => (base + w, UNRANKED),
            None => {
                let last = (ways - 1) as u8;
                let w = set
                    .iter()
                    .position(|&m| m & RANK == last)
                    .expect("a full set ranks one way last");
                (base + w, last)
            }
        };
        let victim = self.meta[i];
        let writeback = (victim & DIRTY != 0)
            .then(|| u64::from(self.tags[i]) * self.sets + (base / ways) as u64);
        self.tags[i] = tag;
        self.touch(base, i, rank, dirty);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Makes way `i` of the set at `base`, previously ranked `rank`, the
    /// most recently used with dirty bit `dirty`: every valid way ranked
    /// below `rank` ages by one.
    fn touch(&mut self, base: usize, i: usize, rank: u8, dirty: u8) {
        let ways = self.config.ways as usize;
        for m in &mut self.meta[base..base + ways] {
            if *m & VALID != 0 && *m & RANK < rank {
                *m += 1;
            }
        }
        self.meta[i] = VALID | dirty;
    }

    /// Whether a line is currently present (no LRU update).
    #[must_use]
    pub fn contains(&self, line_addr: u64) -> bool {
        self.locate(line_addr)
            .is_some_and(|(base, tag)| self.find(base, tag).is_some())
    }

    /// Invalidates a line, returning `true` if it was present and dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> bool {
        let Some((base, tag)) = self.locate(line_addr) else {
            return false;
        };
        let Some(i) = self.find(base, tag) else {
            return false;
        };
        let m = self.meta[i];
        self.meta[i] = 0;
        let ways = self.config.ways as usize;
        for other in &mut self.meta[base..base + ways] {
            if *other & VALID != 0 && *other & RANK > m & RANK {
                *other -= 1;
            }
        }
        m & DIRTY != 0
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::TickLruCache;
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn small() -> SetAssocCache {
        // 2 sets × 2 ways.
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * LINE_BYTES,
            ways: 2,
            hit_latency: Cycle(1),
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(10, AccessKind::Read).hit);
        assert!(c.access(10, AccessKind::Read).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds even line addresses: 0, 2, 4 map to set 0.
        c.access(0, AccessKind::Read);
        c.access(2, AccessKind::Read);
        c.access(0, AccessKind::Read); // 0 now MRU
        c.access(4, AccessKind::Read); // evicts 2
        assert!(c.contains(0));
        assert!(!c.contains(2));
        assert!(c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, AccessKind::Write);
        c.access(2, AccessKind::Read);
        let out = c.access(4, AccessKind::Read); // evicts 0 (LRU, dirty)
        assert_eq!(out.writeback, Some(0));
        // Clean eviction reports none.
        let out = c.access(6, AccessKind::Read); // evicts 2 (clean)
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Write);
        c.access(2, AccessKind::Read);
        let out = c.access(4, AccessKind::Read); // evicts 0
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = small();
        c.access(1, AccessKind::Write);
        assert!(c.invalidate(1));
        assert!(!c.contains(1));
        assert!(!c.invalidate(1)); // already gone
        c.access(3, AccessKind::Read);
        assert!(!c.invalidate(3)); // clean
    }

    #[test]
    fn set_mapping_separates_lines() {
        let mut c = small();
        // Odd lines map to set 1; filling set 0 must not evict them.
        c.access(1, AccessKind::Read);
        for l in [0u64, 2, 4, 6, 8] {
            c.access(l, AccessKind::Read);
        }
        assert!(c.contains(1));
    }

    #[test]
    fn config_sets_math() {
        let cfg = CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            hit_latency: Cycle(1),
        };
        assert_eq!(cfg.sets(), 128);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn bad_geometry_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 3 * LINE_BYTES,
            ways: 2,
            hit_latency: Cycle(1),
        });
    }

    fn one_set(ways: u32) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: u64::from(ways) * LINE_BYTES,
            ways,
            hit_latency: Cycle(1),
        })
    }

    #[test]
    fn largest_tag_is_cached() {
        let mut c = one_set(2);
        let top = u64::from(u32::MAX);
        assert!(!c.access(top, AccessKind::Write).hit);
        assert!(c.contains(top));
        assert!(c.access(top, AccessKind::Read).hit);
        c.access(0, AccessKind::Read);
        // Evicting the dirty line rebuilds its full address from the tag.
        assert_eq!(c.access(1, AccessKind::Read).writeback, Some(top));
        // A line past the tag range is never present.
        assert!(!c.contains(top + 1));
        assert!(!c.invalidate(top + 1));
    }

    #[test]
    #[should_panic(expected = "needs a tag wider than 32 bits")]
    fn tag_past_32_bits_panics() {
        one_set(2).access(u64::from(u32::MAX) + 1, AccessKind::Read);
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn more_ways_than_ranks_panics() {
        let _ = one_set(65);
    }

    /// The geometries checked against the oracle: ways {1, 2, 4, 8, 16}
    /// × sets {1, 2, 64, 128}, plus the three Table 2 shapes.
    fn geometries() -> Vec<CacheConfig> {
        let mut all = Vec::new();
        for ways in [1u32, 2, 4, 8, 16] {
            for sets in [1u64, 2, 64, 128] {
                all.push(CacheConfig {
                    size_bytes: sets * u64::from(ways) * LINE_BYTES,
                    ways,
                    hit_latency: Cycle(1),
                });
            }
        }
        let t2 = HierarchyConfig::table2();
        all.extend([t2.l1, t2.l2, t2.l3]);
        all
    }

    /// One random operation as drawn: (kind, set draw, tag draw).
    type RawOp = (u8, u32, u32);

    /// Runs `ops` on a fresh cache and a fresh tick-LRU oracle of shape
    /// `cfg`, comparing every result and both counters after each one.
    fn check_against_oracle(cfg: CacheConfig, ops: impl IntoIterator<Item = RawOp>) {
        let mut cache = SetAssocCache::new(cfg);
        let mut oracle = TickLruCache::new(cfg);
        let sets = cfg.sets();
        let ways = u64::from(cfg.ways);
        for (n, (kind, set_draw, tag_draw)) in ops.into_iter().enumerate() {
            // Three ops in four crowd the first three sets; fifteen in
            // sixteen draw from a few more tags than ways, so sets fill,
            // evict and refill. The rest reach every set and the four
            // largest tags.
            let set = u64::from(set_draw >> 2) % if set_draw & 3 == 0 { sets } else { sets.min(3) };
            let tag = if tag_draw & 15 == 0 {
                u64::from(u32::MAX - (tag_draw >> 4) % 4)
            } else {
                u64::from(tag_draw >> 4) % (2 * ways + 2)
            };
            let line = tag * sets + set;
            let at = || format!("{cfg:?}, op {n}, line {line:#x}");
            match kind % 8 {
                0..=4 => {
                    let kind = if kind % 8 < 3 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    };
                    let (got, want) = (cache.access(line, kind), oracle.access(line, kind));
                    assert_eq!(got, want, "{}", at());
                }
                5 => assert_eq!(cache.invalidate(line), oracle.invalidate(line), "{}", at()),
                _ => assert_eq!(cache.contains(line), oracle.contains(line), "{}", at()),
            }
            assert_eq!(cache.hits(), oracle.hits(), "{}", at());
            assert_eq!(cache.misses(), oracle.misses(), "{}", at());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn rank_lru_matches_tick_lru_oracle(
            ops in prop::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..800)
        ) {
            for cfg in geometries() {
                check_against_oracle(cfg, ops.iter().copied());
            }
        }
    }

    /// Release-mode soak: one million operations per geometry.
    #[test]
    #[ignore = "soak: run with cargo test --release -p sdpcm-cachesim -- --ignored"]
    fn rank_lru_matches_tick_lru_oracle_soak() {
        for (g, cfg) in geometries().into_iter().enumerate() {
            let mut rng = TestRng::for_case("cache-lru-soak", g as u32);
            let ops = std::iter::repeat_with(|| {
                let r = rng.next_u64();
                (r as u8, (r >> 32) as u32, rng.next_u64() as u32)
            });
            check_against_oracle(cfg, ops.take(1_000_000));
        }
    }
}
