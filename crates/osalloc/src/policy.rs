//! The hardware-side verification policy (paper Figure 9).
//!
//! The memory controller receives the 4-bit allocator tag with each write
//! (page-table entry → request) and decides *arithmetically* which of
//! the two bit-line-adjacent lines must be verified:
//!
//! * a neighbour lying in a strip the allocator marks no-use stores no
//!   data → no verification needed on that side;
//! * a line in the **first strip of its 64 MB block** always verifies its
//!   top neighbour, and one in the **last strip** always verifies its
//!   bottom neighbour — the neighbouring block may belong to a different
//!   allocator, so the hardware cannot assume it is empty;
//! * physical bank edges have no neighbour at all.

use crate::nm::NmRatio;
use sdpcm_pcm::geometry::STRIPS_PER_64MB;

/// Which adjacent lines a write must verify-and-correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdjacentNeed {
    /// Verify the line in the row above (strip − 1).
    pub up: bool,
    /// Verify the line in the row below (strip + 1).
    pub down: bool,
}

impl AdjacentNeed {
    /// Number of adjacent lines to verify (0, 1 or 2).
    #[must_use]
    pub fn count(self) -> u32 {
        u32::from(self.up) + u32::from(self.down)
    }
}

/// The verification policy for one memory system.
///
/// # Examples
///
/// ```
/// use sdpcm_osalloc::{NmRatio, VerifyPolicy};
///
/// let p = VerifyPolicy::new(1 << 20); // strips in the device
/// // (1:2): interior strips never verify anything.
/// let need = p.need(NmRatio::one_two(), 10);
/// assert_eq!(need.count(), 0);
/// // (1:1): interior strips verify both sides.
/// let need = p.need(NmRatio::one_one(), 10);
/// assert_eq!(need.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyPolicy {
    total_strips: u64,
}

impl VerifyPolicy {
    /// Creates the policy for a device with `total_strips` strips.
    ///
    /// # Panics
    ///
    /// Panics if `total_strips` is zero.
    #[must_use]
    pub fn new(total_strips: u64) -> VerifyPolicy {
        assert!(total_strips > 0, "device must have strips");
        VerifyPolicy { total_strips }
    }

    /// Decides which neighbours of a line in `strip` need VnC under the
    /// allocator `ratio` (from the request's tag).
    ///
    /// # Panics
    ///
    /// Panics if `strip` is out of range.
    #[must_use]
    pub fn need(&self, ratio: NmRatio, strip: u64) -> AdjacentNeed {
        assert!(strip < self.total_strips, "strip out of range");
        let in_block = strip % STRIPS_PER_64MB;
        let block_strips = STRIPS_PER_64MB.min(self.total_strips - (strip - in_block));
        let first_of_block = in_block == 0;
        let last_of_block = in_block == block_strips - 1;

        let up = if strip == 0 {
            false // physical top edge: no neighbour exists
        } else if first_of_block {
            true // §4.4: always verify across the block boundary
        } else {
            !ratio.is_nouse_strip(strip - 1)
        };
        let down = if strip + 1 >= self.total_strips {
            false // physical bottom edge
        } else if last_of_block {
            true
        } else {
            !ratio.is_nouse_strip(strip + 1)
        };
        AdjacentNeed { up, down }
    }

    /// Average adjacent lines verified per write for interior strips
    /// (used by the analytical capacity/overhead table).
    #[must_use]
    pub fn mean_interior_verifications(&self, ratio: NmRatio) -> f64 {
        let m = u64::from(ratio.m());
        // Sample one full group well inside a block.
        let base = STRIPS_PER_64MB.min(self.total_strips / 2) / 2;
        let base = base - (base % m).min(base);
        let mut total = 0u32;
        let mut used = 0u32;
        for s in base..base + m {
            if ratio.is_nouse_strip(s) {
                continue;
            }
            used += 1;
            total += self.need(ratio, s).count();
        }
        if used == 0 {
            0.0
        } else {
            f64::from(total) / f64::from(used)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> VerifyPolicy {
        VerifyPolicy::new(8 * STRIPS_PER_64MB)
    }

    #[test]
    fn one_one_verifies_both_interior() {
        let p = policy();
        for s in [5u64, 100, 1500, 4000] {
            assert_eq!(p.need(NmRatio::one_one(), s).count(), 2);
        }
    }

    #[test]
    fn one_two_interior_verifies_nothing() {
        let p = policy();
        // Used strips under (1:2) are even; interior ones skip both sides.
        for s in [2u64, 10, 500, 2048 + 6] {
            assert_eq!(p.need(NmRatio::one_two(), s).count(), 0, "strip {s}");
        }
    }

    #[test]
    fn two_three_verifies_exactly_one_interior() {
        let p = policy();
        // Figure 9: position 0 verifies top, position 2 verifies below.
        let need0 = p.need(NmRatio::two_three(), 3); // position 0
        assert!(need0.up && !need0.down);
        let need2 = p.need(NmRatio::two_three(), 5); // position 2
        assert!(!need2.up && need2.down);
    }

    #[test]
    fn block_boundary_rules() {
        let p = policy();
        // First strip of second 64MB block always verifies top, even
        // under (1:2) where its top neighbour (1023) would be used anyway.
        let first = p.need(NmRatio::one_two(), STRIPS_PER_64MB);
        assert!(first.up);
        // Last strip of first block always verifies down.
        let last = p.need(NmRatio::one_two(), STRIPS_PER_64MB - 1);
        assert!(last.down);
    }

    #[test]
    fn physical_edges_have_no_neighbor() {
        let p = policy();
        let top = p.need(NmRatio::one_one(), 0);
        assert!(!top.up && top.down);
        let bottom = p.need(NmRatio::one_one(), 8 * STRIPS_PER_64MB - 1);
        assert!(bottom.up && !bottom.down);
    }

    #[test]
    fn mean_verifications_monotone_in_ratio() {
        // Figure 16's driver: 1:1 > 3:4 > 2:3 > 1:2.
        let p = policy();
        let v11 = p.mean_interior_verifications(NmRatio::one_one());
        let v34 = p.mean_interior_verifications(NmRatio::three_four());
        let v23 = p.mean_interior_verifications(NmRatio::two_three());
        let v12 = p.mean_interior_verifications(NmRatio::one_two());
        assert_eq!(v11, 2.0);
        assert_eq!(v12, 0.0);
        assert!((v23 - 1.0).abs() < 1e-12);
        assert!(v34 > v23 && v34 < v11, "v34={v34}");
    }

    #[test]
    fn small_device_boundaries() {
        // A device smaller than one 64MB block: first/last strip rules
        // collapse to the physical edges.
        let p = VerifyPolicy::new(16);
        let n = p.need(NmRatio::one_one(), 0);
        assert!(!n.up && n.down);
        let n = p.need(NmRatio::one_one(), 15);
        assert!(n.up && !n.down);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_strip_panics() {
        let _ = VerifyPolicy::new(4).need(NmRatio::one_one(), 4);
    }
}
