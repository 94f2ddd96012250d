//! Flip-N-Write [Cho & Lee, MICRO'09] — the *wear*-oriented counterpart
//! of DIN (paper §7, related work).
//!
//! FNW splits a line into words and inverts any word for which inversion
//! programs fewer cells, guaranteeing at most `w/2` cell updates per
//! `w`-bit word. It attacks write *energy and endurance* — not write
//! disturbance: fewer programmed cells does not mean fewer
//! RESET-next-to-idle-`0` patterns. The `ablation_encoders` bench and the
//! unit tests below quantify that contrast, which is exactly why the
//! paper adopts DIN (disturbance-aware) rather than FNW for word-line
//! mitigation.
//!
//! The flag layout matches [`crate::din`]: one inversion bit per group,
//! stored in the row's spare region.

use sdpcm_pcm::line::{DiffMask, LineBuf, LINE_BITS};

use crate::din::{invert_groups, DinFlags};

/// The Flip-N-Write codec.
///
/// # Examples
///
/// ```
/// use sdpcm_pcm::line::LineBuf;
/// use sdpcm_wd::din::DinFlags;
/// use sdpcm_wd::fnw::FnwCodec;
///
/// let codec = FnwCodec::new(32);
/// let plain = LineBuf::zeroed().not(); // all ones
/// let stored = LineBuf::zeroed();      // all zeros
/// let (encoded, flags) = codec.encode(&plain, &stored, DinFlags::default());
/// // Inverting every word stores all-zeros over all-zeros: nothing
/// // programmed at all.
/// assert_eq!(encoded, stored);
/// assert_eq!(codec.decode(&encoded, flags), plain);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnwCodec {
    group_bits: usize,
}

impl FnwCodec {
    /// Creates a codec with `group_bits` cells per inversion word.
    ///
    /// # Panics
    ///
    /// Panics unless `group_bits` divides 512 into at most 64 groups: a
    /// power of two from 8 to 512.
    #[must_use]
    pub fn new(group_bits: usize) -> FnwCodec {
        assert!(
            LINE_BITS.is_multiple_of(group_bits) && LINE_BITS / group_bits <= 64,
            "group size must divide 512 into at most 64 groups"
        );
        FnwCodec { group_bits }
    }

    /// The original proposal uses 32-bit words.
    #[must_use]
    pub fn paper_default() -> FnwCodec {
        FnwCodec::new(32)
    }

    /// Cells per inversion word.
    #[must_use]
    pub fn group_bits(&self) -> usize {
        self.group_bits
    }

    /// Number of words per line.
    #[must_use]
    pub fn groups(&self) -> usize {
        LINE_BITS / self.group_bits
    }

    /// Encodes `plain` over the stored (encoded) bits `stored_old`,
    /// minimizing programmed cells per word. Ties keep the old flag so a
    /// rewrite of identical data programs nothing.
    #[must_use]
    pub fn encode(
        &self,
        plain: &LineBuf,
        stored_old: &LineBuf,
        old_flags: DinFlags,
    ) -> (LineBuf, DinFlags) {
        let mut encoded = *stored_old;
        let mut flags = DinFlags::default();
        for g in 0..self.groups() {
            let lo = g * self.group_bits;
            let hi = lo + self.group_bits;
            let mut changed = [0u32; 2];
            for (f, slot) in [(false, 0usize), (true, 1usize)] {
                for b in lo..hi {
                    if (plain.bit(b) ^ f) != stored_old.bit(b) {
                        changed[slot] += 1;
                    }
                }
            }
            let flag = match changed[1].cmp(&changed[0]) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => old_flags.inverted(g),
            };
            for b in lo..hi {
                encoded.set_bit(b, plain.bit(b) ^ flag);
            }
            flags = flags.with(g, flag);
        }
        (encoded, flags)
    }

    /// Decodes stored bits back to plain data (the group-mask XOR shared
    /// with [`crate::din::DinCodec::decode`]).
    #[must_use]
    pub fn decode(&self, stored: &LineBuf, flags: DinFlags) -> LineBuf {
        invert_groups(stored, self.group_bits, flags)
    }

    /// Cells the encoded write programs (FNW's objective).
    #[must_use]
    pub fn cost(&self, plain: &LineBuf, stored_old: &LineBuf, old_flags: DinFlags) -> u32 {
        let (encoded, _) = self.encode(plain, stored_old, old_flags);
        DiffMask::between(stored_old, &encoded).changed_count()
    }
}

impl Default for FnwCodec {
    fn default() -> Self {
        FnwCodec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::din::DinCodec;
    use crate::pattern::wordline_vulnerable_count;
    use sdpcm_engine::SimRng;

    fn random_line(rng: &mut SimRng) -> LineBuf {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.next_u64();
        }
        LineBuf::from_words(words)
    }

    #[test]
    fn roundtrip_random_history() {
        let codec = FnwCodec::paper_default();
        let mut rng = SimRng::from_seed(21);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        for _ in 0..40 {
            let plain = random_line(&mut rng);
            let (enc, f) = codec.encode(&plain, &stored, flags);
            assert_eq!(codec.decode(&enc, f), plain);
            stored = enc;
            flags = f;
        }
    }

    #[test]
    fn never_programs_more_than_half_per_word() {
        let codec = FnwCodec::new(32);
        let mut rng = SimRng::from_seed(22);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        for _ in 0..50 {
            let plain = random_line(&mut rng);
            let (enc, f) = codec.encode(&plain, &stored, flags);
            let diff = DiffMask::between(&stored, &enc);
            for g in 0..codec.groups() {
                let lo = g * 32;
                let programmed = (lo..lo + 32).filter(|&b| diff.is_programmed(b)).count();
                assert!(
                    programmed <= 16,
                    "word {g} programs {programmed} > 16 cells"
                );
            }
            stored = enc;
            flags = f;
        }
    }

    #[test]
    fn rewrite_of_identical_data_is_silent() {
        let codec = FnwCodec::paper_default();
        let mut rng = SimRng::from_seed(23);
        let plain = random_line(&mut rng);
        let (stored, flags) = codec.encode(&plain, &LineBuf::zeroed(), DinFlags::default());
        let (enc2, f2) = codec.encode(&plain, &stored, flags);
        assert_eq!(enc2, stored);
        assert_eq!(f2, flags);
        assert!(DiffMask::between(&stored, &enc2).is_empty());
    }

    #[test]
    fn fnw_beats_din_on_programmed_cells() {
        // FNW optimizes wear; DIN optimizes disturbance. Over random
        // traffic FNW must program no more cells than DIN on average.
        let fnw = FnwCodec::new(8);
        let din = DinCodec::new(8);
        let mut rng = SimRng::from_seed(24);
        let mut fnw_cost = 0u64;
        let mut din_cost = 0u64;
        let mut fnw_stored = LineBuf::zeroed();
        let mut din_stored = LineBuf::zeroed();
        let mut fnw_flags = DinFlags::default();
        let mut din_flags = DinFlags::default();
        for _ in 0..200 {
            let plain = random_line(&mut rng);
            let (fe, ff) = fnw.encode(&plain, &fnw_stored, fnw_flags);
            fnw_cost += u64::from(DiffMask::between(&fnw_stored, &fe).changed_count());
            fnw_stored = fe;
            fnw_flags = ff;
            let (de, df) = din.encode(&plain, &din_stored, din_flags);
            din_cost += u64::from(DiffMask::between(&din_stored, &de).changed_count());
            din_stored = de;
            din_flags = df;
        }
        assert!(
            fnw_cost <= din_cost,
            "FNW must program fewer cells: {fnw_cost} vs {din_cost}"
        );
    }

    #[test]
    fn din_beats_fnw_on_wordline_vulnerability() {
        // ...and the flip side: DIN leaves fewer WD-vulnerable patterns.
        // This asymmetry is why SD-PCM uses DIN.
        let fnw = FnwCodec::new(8);
        let din = DinCodec::new(8);
        let mut rng = SimRng::from_seed(25);
        let mut fnw_vic = 0usize;
        let mut din_vic = 0usize;
        let mut fnw_stored = LineBuf::zeroed();
        let mut din_stored = LineBuf::zeroed();
        let mut fnw_flags = DinFlags::default();
        let mut din_flags = DinFlags::default();
        for _ in 0..200 {
            let plain = random_line(&mut rng);
            let (fe, ff) = fnw.encode(&plain, &fnw_stored, fnw_flags);
            let fd = DiffMask::between(&fnw_stored, &fe);
            fnw_vic += wordline_vulnerable_count(&fe, &fd);
            fnw_stored = fe;
            fnw_flags = ff;
            let (de, df) = din.encode(&plain, &din_stored, din_flags);
            let dd = DiffMask::between(&din_stored, &de);
            din_vic += wordline_vulnerable_count(&de, &dd);
            din_stored = de;
            din_flags = df;
        }
        assert!(
            din_vic < fnw_vic,
            "DIN must leave fewer WL-vulnerable patterns: {din_vic} vs {fnw_vic}"
        );
    }

    #[test]
    fn cost_helper_matches_encode() {
        let codec = FnwCodec::paper_default();
        let mut rng = SimRng::from_seed(26);
        let stored = random_line(&mut rng);
        let plain = random_line(&mut rng);
        let (enc, _) = codec.encode(&plain, &stored, DinFlags::default());
        assert_eq!(
            codec.cost(&plain, &stored, DinFlags::default()),
            DiffMask::between(&stored, &enc).changed_count()
        );
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn bad_group_panics() {
        let _ = FnwCodec::new(3);
    }
}
