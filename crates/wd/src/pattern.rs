//! Vulnerable-pattern analysis (paper §2.2.1, Figure 3).
//!
//! A cell can be disturbed only under a specific data pattern: the victim
//! must be **idle** (not programmed by the current write), must store
//! bit `0` (fully amorphous — a crystalline cell cannot be melted by the
//! leaked heat), and must neighbour a cell receiving a **RESET** pulse
//! (SET pulses are ~4× cooler and ignorable).
//!
//! Two directions matter:
//!
//! * **word-line** victims are idle `0` cells *inside the written line*
//!   whose left/right neighbour is being RESET — these are what the DIN
//!   encoding minimizes;
//! * **bit-line** victims are `0` cells at the *same bit position* in the
//!   two adjacent rows (always idle: a write touches one word-line).

use sdpcm_pcm::line::{DiffMask, LineBuf, LINE_WORDS};

/// Word-line-vulnerable cells of a write: idle cells whose final stored
/// value is `0` and that have at least one RESET neighbour within the
/// line.
///
/// `after` is the line's content after the write (idle cells keep their
/// value, programmed cells take the new one).
///
/// # Examples
///
/// ```
/// use sdpcm_pcm::line::{DiffMask, LineBuf};
/// use sdpcm_wd::pattern::wordline_vulnerable;
///
/// // Cell 5 goes 1 -> 0 (RESET); idle cells 4 and 6 store 0 -> vulnerable.
/// let mut old = LineBuf::zeroed();
/// old.set_bit(5, true);
/// let new = LineBuf::zeroed();
/// let diff = DiffMask::between(&old, &new);
/// let v = wordline_vulnerable(&new, &diff);
/// assert_eq!(v, vec![4, 6]);
/// ```
#[must_use]
pub fn wordline_vulnerable(after: &LineBuf, diff: &DiffMask) -> Vec<u16> {
    wordline_vulnerable_mask(after, diff)
        .iter_ones()
        .map(|b| b as u16)
        .collect()
}

/// Word-line-vulnerable cells as a bitmask (1 = vulnerable): the union
/// of the two [`wordline_exposure_masks`].
#[must_use]
pub fn wordline_vulnerable_mask(after: &LineBuf, diff: &DiffMask) -> LineBuf {
    let (once, twice) = wordline_exposure_masks(after, diff);
    let mut out = *once.words();
    for (o, t) in out.iter_mut().zip(twice.words()) {
        *o |= t;
    }
    LineBuf::from_words(out)
}

/// Word-line-vulnerable cells split by exposure: `(once, twice)`, the
/// cells with exactly one RESET neighbour and those flanked by RESET
/// cells on both sides, which face two independent disturbance chances.
///
/// Computed with word-parallel shifts instead of a per-bit scan: a cell
/// is vulnerable iff it is idle (`!programmed`), stores `0` (`!after`),
/// and a RESET mask bit sits directly to its left or right (the RESET
/// mask shifted by one position either way, with carries across word
/// seams).
#[must_use]
pub fn wordline_exposure_masks(after: &LineBuf, diff: &DiffMask) -> (LineBuf, LineBuf) {
    let sets = diff.set_mask();
    let resets = diff.reset_mask();
    let r = resets.words();
    let mut once = [0u64; LINE_WORDS];
    let mut twice = [0u64; LINE_WORDS];
    for i in 0..LINE_WORDS {
        let idle_zero = !(sets.words()[i] | r[i]) & !after.words()[i];
        // Neighbour-of-RESET: resets shifted up (left neighbour is RESET)
        // and down (right neighbour is RESET), carrying across words.
        let from_left = (r[i] << 1) | if i > 0 { r[i - 1] >> 63 } else { 0 };
        let from_right = (r[i] >> 1)
            | if i + 1 < LINE_WORDS {
                r[i + 1] << 63
            } else {
                0
            };
        once[i] = idle_zero & (from_left ^ from_right);
        twice[i] = idle_zero & from_left & from_right;
    }
    (LineBuf::from_words(once), LineBuf::from_words(twice))
}

/// Number of word-line-vulnerable cells (the DIN encoder's objective).
#[must_use]
pub fn wordline_vulnerable_count(after: &LineBuf, diff: &DiffMask) -> usize {
    wordline_vulnerable_mask(after, diff).count_ones() as usize
}

/// Bit-line-vulnerable cells of one adjacent line: positions that are
/// RESET in the written line and store `0` in the neighbour.
///
/// Cells in an adjacent line are idle by construction (a write drives a
/// single word-line), so the only conditions are the RESET pulse and the
/// amorphous victim.
#[must_use]
pub fn bitline_vulnerable(diff: &DiffMask, neighbor: &LineBuf) -> Vec<u16> {
    let reset_mask = diff.reset_mask();
    let mut out = Vec::new();
    for (wi, (&r, &n)) in reset_mask
        .words()
        .iter()
        .zip(neighbor.words().iter())
        .enumerate()
    {
        let mut vulnerable = r & !n;
        while vulnerable != 0 {
            let b = vulnerable.trailing_zeros() as usize;
            out.push((wi * 64 + b) as u16);
            vulnerable &= vulnerable - 1;
        }
    }
    out
}

/// Number of bit-line-vulnerable cells in one adjacent line, without
/// materializing the victim list (a popcount over `resets & !neighbor`).
#[must_use]
pub fn bitline_vulnerable_count(diff: &DiffMask, neighbor: &LineBuf) -> usize {
    let reset_mask = diff.reset_mask();
    reset_mask
        .words()
        .iter()
        .zip(neighbor.words().iter())
        .map(|(&r, &n)| (r & !n).count_ones() as usize)
        .sum()
}

/// Whether an adjacent line has any bit-line-vulnerable cell (early-exit
/// form of [`bitline_vulnerable_count`] for hazard checks).
#[must_use]
pub fn bitline_any_vulnerable(diff: &DiffMask, neighbor: &LineBuf) -> bool {
    let reset_mask = diff.reset_mask();
    reset_mask
        .words()
        .iter()
        .zip(neighbor.words().iter())
        .any(|(&r, &n)| r & !n != 0)
}

/// Worst-case disturbance fan-out of one RESET: up to four neighbours
/// (left/right along the word-line, up/down along the bit-line) can be
/// vulnerable simultaneously (paper §2.2.1).
pub const MAX_VICTIMS_PER_RESET: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use sdpcm_pcm::line::LINE_BITS;

    #[test]
    fn wordline_requires_idle_zero_next_to_reset() {
        // old: bits 10 (1), 12 (1); new: clear bit 10 (RESET), keep 12.
        let mut old = LineBuf::zeroed();
        old.set_bit(10, true);
        old.set_bit(12, true);
        let mut new = old;
        new.set_bit(10, false);
        let diff = DiffMask::between(&old, &new);
        let v = wordline_vulnerable(&new, &diff);
        // bit 9 idle 0 (vulnerable), bit 11 idle 0 (vulnerable);
        // bit 12 idle but stores 1 -> immune.
        assert_eq!(v, vec![9, 11]);
    }

    #[test]
    fn set_pulses_do_not_create_wl_victims() {
        let old = LineBuf::zeroed();
        let mut new = LineBuf::zeroed();
        new.set_bit(100, true); // SET pulse
        let diff = DiffMask::between(&old, &new);
        assert!(wordline_vulnerable(&new, &diff).is_empty());
    }

    #[test]
    fn programmed_neighbors_are_not_victims() {
        // Both 20 and 21 are RESET: neither is idle, no victims between.
        let mut old = LineBuf::zeroed();
        old.set_bit(20, true);
        old.set_bit(21, true);
        let new = LineBuf::zeroed();
        let diff = DiffMask::between(&old, &new);
        let v = wordline_vulnerable(&new, &diff);
        assert_eq!(v, vec![19, 22]);
    }

    #[test]
    fn boundary_bits_handled() {
        // RESET at bit 0 and 511.
        let mut old = LineBuf::zeroed();
        old.set_bit(0, true);
        old.set_bit(511, true);
        let new = LineBuf::zeroed();
        let diff = DiffMask::between(&old, &new);
        let v = wordline_vulnerable(&new, &diff);
        assert_eq!(v, vec![1, 510]);
    }

    #[test]
    fn bitline_victims_are_reset_positions_with_zero_neighbor() {
        let mut old = LineBuf::zeroed();
        old.set_bit(3, true);
        old.set_bit(7, true);
        let new = LineBuf::zeroed(); // RESET 3 and 7
        let diff = DiffMask::between(&old, &new);

        let mut neighbor = LineBuf::zeroed();
        neighbor.set_bit(7, true); // crystalline at 7 -> immune
        let v = bitline_vulnerable(&diff, &neighbor);
        assert_eq!(v, vec![3]);
    }

    #[test]
    fn bitline_no_resets_no_victims() {
        let diff = DiffMask::empty();
        let neighbor = LineBuf::zeroed();
        assert!(bitline_vulnerable(&diff, &neighbor).is_empty());
    }

    fn patterned(seed: u64) -> LineBuf {
        let mut words = [0u64; LINE_WORDS];
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for w in &mut words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        LineBuf::from_words(words)
    }

    #[test]
    fn wordline_mask_matches_per_bit_reference() {
        for seed in 0..8u64 {
            let old = patterned(seed);
            let new = patterned(seed + 100);
            let diff = DiffMask::between(&old, &new);
            let got = wordline_vulnerable(&new, &diff);
            let reference: Vec<u16> = (0..LINE_BITS)
                .filter(|&bit| {
                    if diff.is_programmed(bit) || new.bit(bit) {
                        return false;
                    }
                    let left = bit > 0 && diff.is_reset(bit - 1);
                    let right = bit + 1 < LINE_BITS && diff.is_reset(bit + 1);
                    left || right
                })
                .map(|b| b as u16)
                .collect();
            assert_eq!(got, reference, "seed {seed}");
            assert_eq!(wordline_vulnerable_count(&new, &diff), reference.len());
        }
    }

    #[test]
    fn exposure_masks_match_per_bit_reference() {
        for seed in 0..8u64 {
            let old = patterned(seed);
            let new = patterned(seed + 100);
            let diff = DiffMask::between(&old, &new);
            let (once, twice) = wordline_exposure_masks(&new, &diff);
            for bit in 0..LINE_BITS {
                let idle_zero = !diff.is_programmed(bit) && !new.bit(bit);
                let left = bit > 0 && diff.is_reset(bit - 1);
                let right = bit + 1 < LINE_BITS && diff.is_reset(bit + 1);
                assert_eq!(
                    (once.bit(bit), twice.bit(bit)),
                    (idle_zero && left != right, idle_zero && left && right),
                    "seed {seed} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn bitline_count_and_any_match_list() {
        for seed in 0..8u64 {
            let old = patterned(seed);
            let new = patterned(seed + 7);
            let diff = DiffMask::between(&old, &new);
            let neighbor = patterned(seed + 31);
            let list = bitline_vulnerable(&diff, &neighbor);
            assert_eq!(bitline_vulnerable_count(&diff, &neighbor), list.len());
            assert_eq!(bitline_any_vulnerable(&diff, &neighbor), !list.is_empty());
        }
        assert!(!bitline_any_vulnerable(
            &DiffMask::empty(),
            &LineBuf::zeroed()
        ));
    }

    #[test]
    fn bitline_scans_all_words() {
        let mut old = LineBuf::zeroed();
        for b in [0usize, 64, 200, 511] {
            old.set_bit(b, true);
        }
        let new = LineBuf::zeroed();
        let diff = DiffMask::between(&old, &new);
        let v = bitline_vulnerable(&diff, &LineBuf::zeroed());
        assert_eq!(v, vec![0, 64, 200, 511]);
    }
}
