//! A hierarchical bitset over `0..bits`: the allocators' set type.
//!
//! Leaf words hold the elements; two summary levels mark the non-empty
//! words below them, so the lowest element is found with three
//! trailing-zero counts after a scan of the top level (one word per
//! 2^18 elements). The lowest element is what `BTreeSet::first` returns,
//! so a bitset hands out the same values in the same order as the B-tree
//! sets it replaced.
//!
//! Every level is a zeroed `vec!`, which the allocator takes from pages
//! the OS maps on first touch: a set costs memory only where it holds
//! elements.

/// A set of integers in `0..bits`, lowest first.
#[derive(Debug, Clone)]
pub(crate) struct BitSet {
    /// Bit `i % 64` of `leaves[i / 64]` is element `i`.
    leaves: Vec<u64>,
    /// Bit `w % 64` of `mid[w / 64]` is set when `leaves[w]` is non-zero.
    mid: Vec<u64>,
    /// Bit `m % 64` of `top[m / 64]` is set when `mid[m]` is non-zero.
    top: Vec<u64>,
    /// Elements present.
    len: u64,
}

impl BitSet {
    /// An empty set over `0..bits`.
    pub(crate) fn new(bits: u64) -> BitSet {
        let leaves = bits.div_ceil(64) as usize;
        let mid = leaves.div_ceil(64);
        BitSet {
            leaves: vec![0; leaves],
            mid: vec![0; mid],
            top: vec![0; mid.div_ceil(64)],
            len: 0,
        }
    }

    /// Elements present.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Whether `i` is present; `false` for any `i` past the range.
    pub(crate) fn contains(&self, i: u64) -> bool {
        usize::try_from(i / 64)
            .ok()
            .and_then(|w| self.leaves.get(w))
            .is_some_and(|&word| word & (1 << (i % 64)) != 0)
    }

    /// Adds `i`; returns whether it was absent.
    pub(crate) fn insert(&mut self, i: u64) -> bool {
        self.insert_word((i / 64) as usize, 1 << (i % 64)) == 1
    }

    /// Removes `i`; returns whether it was present.
    pub(crate) fn remove(&mut self, i: u64) -> bool {
        self.remove_word((i / 64) as usize, 1 << (i % 64)) == 1
    }

    /// The lowest element.
    pub(crate) fn first(&self) -> Option<u64> {
        let t = self.top.iter().position(|&w| w != 0)?;
        let m = t * 64 + self.top[t].trailing_zeros() as usize;
        let w = m * 64 + self.mid[m].trailing_zeros() as usize;
        Some(w as u64 * 64 + u64::from(self.leaves[w].trailing_zeros()))
    }

    /// Removes the lowest elements below `end`, at most `max` of them,
    /// and appends them to `out` in ascending order; returns how many.
    pub(crate) fn drain_first_below(&mut self, end: u64, max: u64, out: &mut Vec<u64>) -> u64 {
        let mut taken = 0;
        while taken < max {
            let Some(first) = self.first().filter(|&i| i < end) else {
                break;
            };
            let w = first / 64;
            let below_end = if end - w * 64 >= 64 {
                u64::MAX
            } else {
                (1 << (end - w * 64)) - 1
            };
            let mut left = self.leaves[w as usize] & below_end;
            let mut drained = 0;
            while left != 0 && taken < max {
                let bit = left & left.wrapping_neg();
                out.push(w * 64 + u64::from(bit.trailing_zeros()));
                drained |= bit;
                left ^= bit;
                taken += 1;
            }
            self.remove_word(w as usize, drained);
        }
        taken
    }

    /// Adds every element of `lo..hi`, a word at a time; returns how many
    /// were absent.
    pub(crate) fn insert_range(&mut self, lo: u64, hi: u64) -> u64 {
        let mut added = 0;
        for (w, mask) in range_words(lo, hi) {
            added += u64::from(self.insert_word(w, mask));
        }
        added
    }

    /// Removes every element of `lo..hi`, a word at a time; returns how
    /// many were present.
    pub(crate) fn remove_range(&mut self, lo: u64, hi: u64) -> u64 {
        let mut removed = 0;
        for (w, mask) in range_words(lo, hi) {
            removed += u64::from(self.remove_word(w, mask));
        }
        removed
    }

    /// Sets the bits of `mask` in leaf word `w`; returns how many were
    /// clear.
    fn insert_word(&mut self, w: usize, mask: u64) -> u32 {
        let old = self.leaves[w];
        let new = old | mask;
        let added = (new ^ old).count_ones();
        self.leaves[w] = new;
        self.len += u64::from(added);
        if old == 0 && new != 0 {
            let m = w / 64;
            if self.mid[m] == 0 {
                self.top[m / 64] |= 1 << (m % 64);
            }
            self.mid[m] |= 1 << (w % 64);
        }
        added
    }

    /// Clears the bits of `mask` in leaf word `w`; returns how many were
    /// set.
    fn remove_word(&mut self, w: usize, mask: u64) -> u32 {
        let old = self.leaves[w];
        let new = old & !mask;
        let removed = (new ^ old).count_ones();
        self.leaves[w] = new;
        self.len -= u64::from(removed);
        if old != 0 && new == 0 {
            let m = w / 64;
            self.mid[m] &= !(1 << (w % 64));
            if self.mid[m] == 0 {
                self.top[m / 64] &= !(1 << (m % 64));
            }
        }
        removed
    }
}

/// The leaf words `lo..hi` overlaps, each with the mask of its bits that
/// lie in the range.
fn range_words(lo: u64, hi: u64) -> impl Iterator<Item = (usize, u64)> {
    let words = if lo < hi {
        lo / 64..hi.div_ceil(64)
    } else {
        0..0
    };
    words.map(move |w| {
        let from = lo.max(w * 64) - w * 64;
        let to = hi.min(w * 64 + 64) - w * 64;
        let mask = (u64::MAX >> (64 - (to - from))) << from;
        (w as usize, mask)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use std::collections::BTreeSet;

    fn pop_first(b: &mut BitSet) -> Option<u64> {
        let i = b.first()?;
        assert!(b.remove(i));
        Some(i)
    }

    fn assert_same(b: &BitSet, set: &BTreeSet<u64>, bits: u64) {
        assert_eq!(b.len(), set.len() as u64);
        assert_eq!(b.first(), set.first().copied());
        for i in 0..bits + 70 {
            assert_eq!(b.contains(i), set.contains(&i), "element {i}");
        }
    }

    #[test]
    fn empty_and_zero_sized_sets() {
        let mut b = BitSet::new(0);
        assert_eq!(b.first(), None);
        assert_eq!(pop_first(&mut b), None);
        assert!(!b.contains(0));
        assert!(!b.contains(u64::MAX));
        assert_eq!(b.insert_range(0, 0), 0);
        let b = BitSet::new(1 << 20);
        assert_eq!((b.len(), b.first()), (0, None));
    }

    #[test]
    fn first_walks_every_level() {
        // 2^20 elements: 16,384 leaf words, 256 mid words, 4 top words.
        let mut b = BitSet::new(1 << 20);
        for i in [(1 << 20) - 1, 1 << 19, 262_143, 4097, 64, 63, 0] {
            assert!(b.insert(i));
            assert!(!b.insert(i));
            assert_eq!(b.first(), Some(i));
        }
        let mut popped = Vec::new();
        while let Some(i) = pop_first(&mut b) {
            popped.push(i);
        }
        assert_eq!(popped, [0, 63, 64, 4097, 262_143, 1 << 19, (1 << 20) - 1]);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn ranges_cover_partial_and_whole_words() {
        let mut b = BitSet::new(300);
        assert_eq!(b.insert_range(5, 200), 195);
        assert_eq!(b.insert_range(0, 10), 5);
        assert_eq!(b.remove_range(64, 128), 64);
        assert_eq!(b.remove_range(60, 70), 4);
        let set: BTreeSet<u64> = (0..60).chain(128..200).collect();
        assert_same(&b, &set, 300);
        assert_eq!(b.remove_range(0, 300), set.len() as u64);
        assert_eq!(b.first(), None);
    }

    #[test]
    fn drain_stops_at_end_and_max() {
        let mut b = BitSet::new(256);
        b.insert_range(10, 20);
        b.insert_range(60, 140);
        let mut out = Vec::new();
        assert_eq!(b.drain_first_below(15, 100, &mut out), 5);
        assert_eq!(out, (10..15).collect::<Vec<u64>>());
        out.clear();
        assert_eq!(b.drain_first_below(200, 10, &mut out), 10);
        assert_eq!(out, (15..20).chain(60..65).collect::<Vec<u64>>());
        out.clear();
        assert_eq!(b.drain_first_below(130, u64::MAX, &mut out), 65);
        assert_eq!(out, (65..130).collect::<Vec<u64>>());
        assert_eq!(b.first(), Some(130));
        assert_eq!(b.len(), 10);
    }

    /// Random inserts, removes, pops, drains and ranges against a
    /// `BTreeSet`, on sizes around the word and summary boundaries.
    #[test]
    fn matches_btreeset() {
        for (case, bits) in [1u64, 63, 64, 65, 4095, 4097, 70_000]
            .into_iter()
            .enumerate()
        {
            let mut rng = TestRng::for_case("bitset-vs-btreeset", case as u32);
            let mut b = BitSet::new(bits);
            let mut set = BTreeSet::new();
            for _ in 0..3000 {
                let i = rng.below(bits);
                match rng.below(6) {
                    0 | 1 => assert_eq!(b.insert(i), set.insert(i)),
                    2 => assert_eq!(b.remove(i), set.remove(&i)),
                    3 => assert_eq!(pop_first(&mut b), set.pop_first()),
                    4 => {
                        let hi = (i + rng.below(200)).min(bits);
                        let added = (i..hi).filter(|&j| set.insert(j)).count();
                        assert_eq!(b.insert_range(i, hi), added as u64);
                    }
                    _ => {
                        let (end, max) = (i + rng.below(130), rng.below(100));
                        let mut out = Vec::new();
                        let taken = b.drain_first_below(end, max, &mut out);
                        let want: Vec<u64> = set.range(..end).copied().take(max as usize).collect();
                        for j in &want {
                            set.remove(j);
                        }
                        assert_eq!(out, want);
                        assert_eq!(taken, want.len() as u64);
                    }
                }
                assert_eq!(b.len(), set.len() as u64);
                assert_eq!(b.first(), set.first().copied());
            }
            assert_same(&b, &set, bits);
            let hi = bits / 2;
            let removed = set.range(bits / 4..hi).count();
            set.retain(|&j| !(bits / 4..hi).contains(&j));
            assert_eq!(b.remove_range(bits / 4, hi), removed as u64);
            assert_same(&b, &set, bits);
        }
    }
}
