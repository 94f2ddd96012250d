//! The tick-based true-LRU cache that the rank-encoded
//! [`super::SetAssocCache`] replaced, kept verbatim as a test oracle:
//! `Vec<Vec<Way>>` storage, a global access counter, and the victim
//! chosen as the first invalid way or else the way with the smallest
//! tick.

use super::{AccessKind, AccessOutcome, CacheConfig};

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64, // larger = more recently used
}

#[derive(Debug, Clone)]
pub(super) struct TickLruCache {
    sets: Vec<Vec<Way>>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl TickLruCache {
    pub(super) fn new(config: CacheConfig) -> TickLruCache {
        let sets = config.sets() as usize;
        TickLruCache {
            sets: vec![vec![Way::default(); config.ways as usize]; sets],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    pub(super) fn hits(&self) -> u64 {
        self.hits
    }

    pub(super) fn misses(&self) -> u64 {
        self.misses
    }

    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        ((line_addr % sets) as usize, line_addr / sets)
    }

    pub(super) fn access(&mut self, line_addr: u64, kind: AccessKind) -> AccessOutcome {
        self.tick += 1;
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.tick;
            if kind == AccessKind::Write {
                way.dirty = true;
            }
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.misses += 1;
        // Victim: invalid way if any, else LRU.
        let victim_idx = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, w)| w.lru)
                .map(|(i, _)| i)
                .expect("set has at least one way")
        });
        let victim = set[victim_idx];
        let writeback = (victim.valid && victim.dirty).then(|| victim.tag * sets + set_idx as u64);
        set[victim_idx] = Way {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            lru: self.tick,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    pub(super) fn contains(&self, line_addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(line_addr);
        self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
    }

    pub(super) fn invalidate(&mut self, line_addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(line_addr);
        for w in &mut self.sets[set_idx] {
            if w.valid && w.tag == tag {
                let was_dirty = w.dirty;
                w.valid = false;
                w.dirty = false;
                return was_dirty;
            }
        }
        false
    }
}
