//! The (n:m) allocation ratio and the strip-marking rule.
//!
//! An `(n:m)` allocator (0 < n ≤ m) uses `n` of every `m` consecutive
//! device strips and marks the other `m−n` as no-use. Marking is applied
//! independently within each 64 MB block (paper §4.4): groups of `m`
//! strips tile the block from its first strip and never span a 64 MB
//! boundary (the trailing partial group is marked by the same positional
//! rule).
//!
//! Marked positions within a group: the paper marks position 1 for its
//! `m−n = 1` ratios — "(2:3) marks the 2nd strip of each 3-strip group",
//! "(1:2) uses every other device strip" — which we generalize to
//! `m−n` positions spread evenly starting at position 1:
//! `{ 1 + ⌊i·m/(m−n)⌋ | i ∈ 0..m−n }`.

use sdpcm_pcm::geometry::STRIPS_PER_64MB;

/// A rejected (n:m) pair: the constructor requires `0 < n ≤ m ≤ 16`
/// (the page-table tag is 4 bits, supporting 16 allocators, §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidRatio {
    /// The rejected numerator.
    pub n: u8,
    /// The rejected denominator.
    pub m: u8,
}

impl std::fmt::Display for InvalidRatio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid allocation ratio ({}:{}): require 0 < n <= m <= 16",
            self.n, self.m
        )
    }
}

impl std::error::Error for InvalidRatio {}

/// An (n:m) allocation ratio.
///
/// # Examples
///
/// ```
/// use sdpcm_osalloc::NmRatio;
///
/// let r = NmRatio::new(2, 3);
/// assert!(!r.is_nouse_strip(0));
/// assert!(r.is_nouse_strip(1)); // the 2nd strip of each group
/// assert!(!r.is_nouse_strip(2));
/// assert!((r.capacity_fraction() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NmRatio {
    n: u8,
    m: u8,
}

impl NmRatio {
    /// Creates an `(n:m)` ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < n ≤ m ≤ 16` (the page-table tag is 4 bits,
    /// supporting 16 allocators, §6.2).
    #[must_use]
    pub fn new(n: u8, m: u8) -> NmRatio {
        assert!(n > 0 && n <= m && m <= 16, "require 0 < n <= m <= 16");
        NmRatio { n, m }
    }

    /// Fallible [`NmRatio::new`] for ratios taken from configuration
    /// rather than literals: rejects the pair instead of panicking.
    pub fn try_new(n: u8, m: u8) -> Result<NmRatio, InvalidRatio> {
        if n > 0 && n <= m && m <= 16 {
            Ok(NmRatio { n, m })
        } else {
            Err(InvalidRatio { n, m })
        }
    }

    /// The default (1:1) allocator — every strip used, no marking.
    #[must_use]
    pub fn one_one() -> NmRatio {
        NmRatio::new(1, 1)
    }

    /// (1:2): every other strip marked; eliminates VnC entirely.
    #[must_use]
    pub fn one_two() -> NmRatio {
        NmRatio::new(1, 2)
    }

    /// (2:3): one adjacent line per write needs VnC.
    #[must_use]
    pub fn two_three() -> NmRatio {
        NmRatio::new(2, 3)
    }

    /// (3:4).
    #[must_use]
    pub fn three_four() -> NmRatio {
        NmRatio::new(3, 4)
    }

    /// Numerator `n` (used strips per group).
    #[must_use]
    pub fn n(self) -> u8 {
        self.n
    }

    /// Denominator `m` (group size in strips).
    #[must_use]
    pub fn m(self) -> u8 {
        self.m
    }

    /// Usable fraction of capacity under this allocator.
    #[must_use]
    pub fn capacity_fraction(self) -> f64 {
        f64::from(self.n) / f64::from(self.m)
    }

    /// Whether position `p ∈ 0..m` within a group is marked no-use.
    #[must_use]
    pub fn is_marked_position(self, p: u8) -> bool {
        debug_assert!(p < self.m);
        let k = self.m - self.n;
        (0..k).any(|i| {
            let pos = 1 + (u16::from(i) * u16::from(self.m)) / u16::from(k.max(1));
            pos as u8 % self.m == p
        }) && k > 0
    }

    /// Position of a strip within its group, with groups restarting at
    /// every 64 MB block boundary.
    #[must_use]
    pub fn position_of(self, strip: u64) -> u8 {
        let in_block = strip % STRIPS_PER_64MB;
        (in_block % u64::from(self.m)) as u8
    }

    /// Whether a device strip is marked no-use under this allocator.
    #[must_use]
    pub fn is_nouse_strip(self, strip: u64) -> bool {
        self.is_marked_position(self.position_of(strip))
    }

    /// The 4-bit allocator tag carried by the page-table entry.
    /// Tags enumerate the supported allocators; (1:1) is tag 0.
    #[must_use]
    pub fn tag(self) -> u8 {
        match (self.n, self.m) {
            (1, 1) => 0,
            (1, 2) => 1,
            (2, 3) => 2,
            (3, 4) => 3,
            (n, m) => (((n as usize * 31 + m as usize) % 12) + 4) as u8,
        }
    }
}

impl Default for NmRatio {
    fn default() -> Self {
        NmRatio::one_one()
    }
}

impl std::fmt::Display for NmRatio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}:{})", self.n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_one_marks_nothing() {
        let r = NmRatio::one_one();
        for s in 0..4096 {
            assert!(!r.is_nouse_strip(s));
        }
    }

    #[test]
    fn one_two_marks_odd_strips() {
        let r = NmRatio::one_two();
        for s in 0..2048u64 {
            assert_eq!(r.is_nouse_strip(s), s % 2 == 1, "strip {s}");
        }
    }

    #[test]
    fn two_three_marks_position_one() {
        // Figure 9: "stripes with stripe_index mod 3 = 1 are marked".
        let r = NmRatio::two_three();
        for s in 0..999u64 {
            assert_eq!(r.is_nouse_strip(s), s % 3 == 1, "strip {s}");
        }
    }

    #[test]
    fn three_four_marks_position_one() {
        let r = NmRatio::three_four();
        for s in 0..1000u64 {
            assert_eq!(r.is_nouse_strip(s), s % 4 == 1, "strip {s}");
        }
    }

    #[test]
    fn marked_count_per_group_is_m_minus_n() {
        for (n, m) in [(1u8, 2u8), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4), (5, 8)] {
            let r = NmRatio::new(n, m);
            let marked = (0..m).filter(|&p| r.is_marked_position(p)).count();
            assert_eq!(marked, usize::from(m - n), "({n}:{m})");
        }
    }

    #[test]
    fn groups_restart_at_64mb_blocks() {
        // 1024 strips per 64MB block; 1024 % 3 = 1, so with (2:3) the
        // group phase resets: strip 1024 is position 0 (used), even
        // though 1024 % 3 == 1.
        let r = NmRatio::two_three();
        assert_eq!(STRIPS_PER_64MB, 1024);
        assert!(!r.is_nouse_strip(1024), "first strip of block 2 is used");
        assert!(r.is_nouse_strip(1025), "position 1 of block 2 is marked");
    }

    #[test]
    fn capacity_fractions() {
        assert_eq!(NmRatio::one_one().capacity_fraction(), 1.0);
        assert_eq!(NmRatio::one_two().capacity_fraction(), 0.5);
        assert!((NmRatio::two_three().capacity_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(NmRatio::three_four().capacity_fraction(), 0.75);
    }

    #[test]
    fn tags_distinct_for_paper_ratios() {
        let tags = [
            NmRatio::one_one().tag(),
            NmRatio::one_two().tag(),
            NmRatio::two_three().tag(),
            NmRatio::three_four().tag(),
        ];
        let mut sorted = tags.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(tags.iter().all(|&t| t < 16), "tags fit in 4 bits");
    }

    #[test]
    fn display() {
        assert_eq!(NmRatio::two_three().to_string(), "(2:3)");
    }

    #[test]
    fn try_new_rejects_bad_pairs() {
        assert_eq!(NmRatio::try_new(2, 3), Ok(NmRatio::two_three()));
        assert_eq!(NmRatio::try_new(0, 2), Err(InvalidRatio { n: 0, m: 2 }));
        assert_eq!(NmRatio::try_new(3, 2), Err(InvalidRatio { n: 3, m: 2 }));
        assert_eq!(NmRatio::try_new(5, 17), Err(InvalidRatio { n: 5, m: 17 }));
        let msg = NmRatio::try_new(3, 2).unwrap_err().to_string();
        assert!(msg.contains("(3:2)"));
    }

    #[test]
    #[should_panic(expected = "0 < n <= m")]
    fn zero_n_panics() {
        let _ = NmRatio::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "0 < n <= m")]
    fn n_bigger_than_m_panics() {
        let _ = NmRatio::new(3, 2);
    }
}
