//! DIN: disturbance-aware data encoding for word-lines
//! [Jiang et al., DSN'14].
//!
//! DIN shrinks the word-line guard band to the minimal 2F and compensates
//! with coding: before storing a line, each bit group is optionally
//! *inverted* so that the stored pattern minimizes the number of
//! WD-vulnerable word-line patterns (idle `0` cells adjacent to cells
//! receiving RESET pulses). One flag bit per group records the inversion
//! and travels with the line (modelled here as explicit [`DinFlags`]; in
//! hardware the flags occupy the row's spare region, which is engineered
//! WD-robust).
//!
//! The encoder is greedy left-to-right: for each group it tries both
//! polarities against the currently stored (encoded) bits, counts the
//! word-line-vulnerable cells the resulting differential write would
//! expose (including the boundary with the previously decided group), and
//! keeps the polarity with fewer victims, breaking ties toward fewer
//! programmed cells and then toward the old flag (to avoid gratuitous
//! group rewrites).

use sdpcm_pcm::line::{LineBuf, LINE_BITS, LINE_WORDS};

/// Calls `Lanes::<K>::$f(args)` for a runtime group size `K`; every
/// legal size (a power of two from 8 to 512) gets its own
/// monomorphisation of the one kernel.
macro_rules! for_group_bits {
    ($k:expr, $f:ident($($arg:expr),*)) => {
        match $k {
            8 => Lanes::<8>::$f($($arg),*),
            16 => Lanes::<16>::$f($($arg),*),
            32 => Lanes::<32>::$f($($arg),*),
            64 => Lanes::<64>::$f($($arg),*),
            128 => Lanes::<128>::$f($($arg),*),
            256 => Lanes::<256>::$f($($arg),*),
            512 => Lanes::<512>::$f($($arg),*),
            k => unreachable!("no {k}-bit inversion groups: the codecs admit 8..=512"),
        }
    };
}

/// Per-group inversion flags of one encoded line (up to 64 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DinFlags(pub u64);

impl DinFlags {
    /// Whether group `g` is stored inverted.
    #[must_use]
    pub fn inverted(self, g: usize) -> bool {
        (self.0 >> g) & 1 == 1
    }

    /// Returns a copy with group `g`'s flag set to `v`.
    #[must_use]
    pub fn with(self, g: usize, v: bool) -> DinFlags {
        if v {
            DinFlags(self.0 | (1 << g))
        } else {
            DinFlags(self.0 & !(1 << g))
        }
    }
}

/// The DIN group-inversion codec.
///
/// # Examples
///
/// ```
/// use sdpcm_pcm::line::LineBuf;
/// use sdpcm_wd::din::{DinCodec, DinFlags};
///
/// let codec = DinCodec::new(32);
/// let plain = LineBuf::zeroed();
/// let stored = LineBuf::zeroed();
/// let (encoded, flags) = codec.encode(&plain, &stored, DinFlags::default());
/// assert_eq!(codec.decode(&encoded, flags), plain);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DinCodec {
    group_bits: usize,
}

impl DinCodec {
    /// Creates a codec with `group_bits` cells per inversion group.
    ///
    /// # Panics
    ///
    /// Panics unless `group_bits` divides 512 into at most 64 groups (the
    /// flag word): a power of two from 8 to 512.
    #[must_use]
    pub fn new(group_bits: usize) -> DinCodec {
        assert!(
            LINE_BITS.is_multiple_of(group_bits) && LINE_BITS / group_bits <= 64,
            "group size must divide 512 into at most 64 groups"
        );
        DinCodec { group_bits }
    }

    /// Default: 8-bit groups (64 flag bits per 64 B line). Smaller
    /// groups give the inversion coder more freedom; this calibration
    /// leaves ~0.9 residual word-line errors per write — the same order
    /// as the original DIN's reported 0.4 (DSN'14 uses a richer code
    /// dictionary than pure inversion; see EXPERIMENTS.md).
    #[must_use]
    pub fn paper_default() -> DinCodec {
        DinCodec::new(8)
    }

    /// Cells per group.
    #[must_use]
    pub fn group_bits(&self) -> usize {
        self.group_bits
    }

    /// Number of groups per line.
    #[must_use]
    pub fn groups(&self) -> usize {
        LINE_BITS / self.group_bits
    }

    /// Flag-storage overhead per line, in bits.
    #[must_use]
    pub fn overhead_bits(&self) -> usize {
        self.groups()
    }

    /// Encodes `plain` for storage over the currently stored (encoded)
    /// bits `stored_old`, returning the new encoded bits and flags.
    ///
    /// Mask-parallel kernel (this sits on the per-write hot path of every
    /// DIN scheme). The greedy scan's only left-to-right dependency is the
    /// previous group's polarity, and it reaches a group's score through
    /// that group's last two cells alone: the last (a victim candidate,
    /// and a RESET neighbour of this group's first cell) and the one
    /// before it (the last cell's other RESET neighbour). So the kernel
    ///
    /// 1. builds the RESET and idle-`0` masks of both polarities across
    ///    the whole line at once;
    /// 2. takes every group's internal victim and programmed counts from
    ///    per-lane popcounts (byte lanes for 8-bit groups, up to whole
    ///    words summed per group for 128–512-bit groups), plus the
    ///    boundary terms as one-bit masks at each group's first cell;
    /// 3. compares the two polarities in biased lane arithmetic for both
    ///    possible previous-group polarities, giving two decision masks
    ///    with one bit per group;
    /// 4. resolves the dependency with a bit-select scan over the groups
    ///    and stores `plain` XOR the expanded inversion mask.
    ///
    /// Decisions and tie-breaks are bit-identical to the per-bit greedy
    /// scorer described in the module docs (see the oracle tests).
    #[must_use]
    pub fn encode(
        &self,
        plain: &LineBuf,
        stored_old: &LineBuf,
        old_flags: DinFlags,
    ) -> (LineBuf, DinFlags) {
        let (encoded, flags) = for_group_bits!(
            self.group_bits,
            encode(plain.words(), stored_old.words(), old_flags.0)
        );
        (LineBuf::from_words(encoded), DinFlags(flags))
    }

    /// Decodes stored (encoded) bits back to plain data.
    #[must_use]
    pub fn decode(&self, stored: &LineBuf, flags: DinFlags) -> LineBuf {
        invert_groups(stored, self.group_bits, flags)
    }
}

impl Default for DinCodec {
    fn default() -> Self {
        DinCodec::paper_default()
    }
}

/// `line` with every group whose flag is set inverted: the decode of
/// both inversion codecs (DIN and [`crate::fnw`]).
pub(crate) fn invert_groups(line: &LineBuf, group_bits: usize, flags: DinFlags) -> LineBuf {
    let mask = for_group_bits!(group_bits, inversion_mask(flags.0));
    line.xor(&LineBuf::from_words(mask))
}

/// `pattern` repeated every `period` bits of a word.
const fn repeat(period: usize, pattern: u64) -> u64 {
    let mut word = 0;
    let mut at = 0;
    while at < 64 {
        word |= pattern << at;
        at += period;
    }
    word
}

/// Lane geometry of the mask-parallel kernel for `K`-bit groups. A word
/// holds `LANES` lanes of `LANE = min(K, 64)` bits; a lane is one whole
/// group when `K <= 64`, and a group spans `SPAN = K / 64` words
/// otherwise. Groups never straddle a lane, so per-lane sums never
/// carry into a neighbour.
struct Lanes<const K: usize>;

impl<const K: usize> Lanes<K> {
    const LANE: usize = if K < 64 { K } else { 64 };
    const LANES: usize = 64 / Self::LANE;
    const SPAN: usize = if K > 64 { K / 64 } else { 1 };
    /// Each lane's least significant bit.
    const LOW: u64 = repeat(Self::LANE, 1);
    /// Each lane's most significant bit (the sign of a biased compare).
    const TOP: u64 = Self::LOW << (Self::LANE - 1);
    /// Multiplier moving lane `i`'s bit 0 to bit `64 - LANES + i`.
    const GATHER: u64 = {
        let mut m = 0;
        let mut j = 0;
        while j < Self::LANES {
            m |= 1 << (Self::LANE * (j + 1) - 1 - j);
            j += 1;
        }
        m
    };
    /// All ones across one lane.
    const FILL: u64 = u64::MAX >> (64 - Self::LANE);

    /// Per-lane population counts (each lane holds its own count).
    fn count(x: u64) -> u64 {
        let x = x - ((x >> 1) & repeat(2, 0b01));
        let x = (x & repeat(4, 0b0011)) + ((x >> 2) & repeat(4, 0b0011));
        let mut x = (x + (x >> 4)) & repeat(8, 0x0f);
        let mut width = 8;
        while width < Self::LANE {
            x = (x + (x >> width)) & repeat(2 * width, (1 << width) - 1);
            width *= 2;
        }
        x
    }

    /// The flags of word `w`'s lanes, one per lane at the lane's bit 0.
    fn spread(w: usize, flags: u64) -> u64 {
        let first = w * Self::LANES / Self::SPAN;
        let mut x = (flags >> first) & (u64::MAX >> (64 - Self::LANES));
        // Halve the chunks until every flag sits in its own lane.
        let mut chunk = Self::LANES / 2;
        while chunk >= 1 {
            x = (x | (x << ((Self::LANE - 1) * chunk)))
                & repeat(Self::LANE * chunk, (1 << chunk) - 1);
            chunk /= 2;
        }
        x
    }

    /// Each lane's bit 0 (all other bits clear) gathered into the low
    /// `LANES` bits, lane 0 lowest.
    fn gather(low_bits: u64) -> u64 {
        low_bits.wrapping_mul(Self::GATHER) >> (64 - Self::LANES)
    }

    /// The 512-bit inversion mask of `flags`: every cell of an inverted
    /// group set.
    fn inversion_mask(flags: u64) -> [u64; LINE_WORDS] {
        std::array::from_fn(|w| Self::spread(w, flags).wrapping_mul(Self::FILL))
    }

    /// The encode kernel behind [`DinCodec::encode`] (see its rustdoc).
    fn encode(
        plain: &[u64; LINE_WORDS],
        old: &[u64; LINE_WORDS],
        old_flags: u64,
    ) -> ([u64; LINE_WORDS], u64) {
        // Per polarity f (stored value plain ^ f): cells RESET 1 -> 0,
        // and idle cells left at 0 (the only word-line victims).
        let reset = [
            std::array::from_fn::<u64, LINE_WORDS, _>(|w| old[w] & !plain[w]),
            std::array::from_fn::<u64, LINE_WORDS, _>(|w| old[w] & plain[w]),
        ];
        let idle = [
            std::array::from_fn::<u64, LINE_WORDS, _>(|w| !old[w] & !plain[w]),
            std::array::from_fn::<u64, LINE_WORDS, _>(|w| !old[w] & plain[w]),
        ];
        let not_old: [u64; LINE_WORDS] = std::array::from_fn(|w| !old[w]);
        // Neighbour views: bit b of `left(x, w, s)` is cell b - s, of
        // `right(x, w)` cell b + 1; cells past the line read as 0.
        let left = |x: &[u64; LINE_WORDS], w: usize, s: u32| {
            (x[w] << s) | w.checked_sub(1).map_or(0, |v| x[v] >> (64 - s))
        };
        let right =
            |x: &[u64; LINE_WORDS], w: usize| (x[w] >> 1) | x.get(w + 1).map_or(0, |n| n << 63);

        // Decision masks: bit g of `decide[p]` is group g's greedy flag
        // when group g - 1 was stored with polarity p.
        let mut decide = [0u64; 2];
        for q in 0..LINE_WORDS / Self::SPAN {
            // Lane sums over the group's words: victims per polarity,
            // cells programmed by the plain polarity, and the boundary
            // victims `adj[f][p]` that depend on the previous group.
            let (mut victims, mut prog, mut adj) = ([0u64; 2], 0u64, [[0u64; 2]; 2]);
            for w in q * Self::SPAN..(q + 1) * Self::SPAN {
                let start = if w % Self::SPAN == 0 { Self::LOW } else { 0 };
                let end = if w % Self::SPAN == Self::SPAN - 1 {
                    Self::TOP
                } else {
                    0
                };
                // Group starts with a previous group (every start but cell 0).
                let first = if w == 0 { start & !1 } else { start };
                for f in 0..2 {
                    let r = &reset[f];
                    // Idle-0 cells beside a RESET in the same group, plus the
                    // next group's first cell (still as stored, so idle iff
                    // 0) beside a RESET of this group's last cell.
                    let v = (idle[f][w] & ((left(r, w, 1) & !start) | (right(r, w) & !end)))
                        | (end & r[w] & right(&not_old, w));
                    victims[f] += Self::count(v);
                    for p in 0..2 {
                        let rp = &reset[p];
                        // The group's first cell, victim of the previous
                        // group's RESET (when not already counted above)...
                        let own = idle[f][w] & !right(r, w) & left(rp, w, 1);
                        // ...and the previous group's last cell, victim of
                        // its own neighbour or of this group's first cell.
                        let prev = left(&idle[p], w, 1) & (left(rp, w, 2) | r[w]);
                        adj[f][p] += (first & own) + (first & prev);
                    }
                }
                prog += Self::count(old[w] ^ plain[w]);
            }
            // Ties on victims and programmed cells keep the old flag.
            let old_top = Self::spread(q * Self::SPAN, old_flags) << (Self::LANE - 1);
            let half = (K / 2) as u64;
            let prog_gt = (prog + Self::TOP - (half + 1) * Self::LOW) & Self::TOP;
            let prog_eq = (prog + Self::TOP - half * Self::LOW) & Self::TOP & !prog_gt;
            for (p, d) in decide.iter_mut().enumerate() {
                // Biased per-lane victims(plain) - victims(inverted): lane
                // values stay below 2^(LANE-1) so nothing borrows.
                let x = victims[0] + adj[0][p] + Self::TOP - (victims[1] + adj[1][p]);
                let gt = (x - Self::LOW) & Self::TOP;
                let eq = x & Self::TOP & !gt;
                let choose = gt | (eq & (prog_gt | (prog_eq & old_top)));
                *d |= Self::gather(choose >> (Self::LANE - 1)) << (q * Self::LANES);
            }
        }

        // Each group picks from the mask of its predecessor's polarity.
        let mut flags = 0u64;
        let mut prev = 0u64;
        for g in 0..LINE_BITS / K {
            let d = decide[0] ^ ((decide[0] ^ decide[1]) & prev.wrapping_neg());
            prev = (d >> g) & 1;
            flags |= prev << g;
        }
        let inv = Self::inversion_mask(flags);
        (std::array::from_fn(|w| plain[w] ^ inv[w]), flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::wordline_vulnerable_count;
    use sdpcm_engine::SimRng;
    use sdpcm_pcm::line::DiffMask;

    const GROUP_SIZES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

    /// The straightforward per-bit greedy encoder the mask-parallel
    /// [`DinCodec::encode`] must match decision-for-decision.
    fn encode_reference(
        codec: &DinCodec,
        plain: &LineBuf,
        stored_old: &LineBuf,
        old_flags: DinFlags,
    ) -> (LineBuf, DinFlags) {
        fn group_score(cand: &LineBuf, stored_old: &LineBuf, lo: usize, hi: usize) -> (u32, u32) {
            let diff = DiffMask::between(stored_old, cand);
            let mut victims = 0;
            for bit in lo.saturating_sub(1)..(hi + 1).min(LINE_BITS) {
                if diff.is_programmed(bit) || cand.bit(bit) {
                    continue;
                }
                let left = bit > 0 && diff.is_reset(bit - 1);
                let right = bit + 1 < LINE_BITS && diff.is_reset(bit + 1);
                if left || right {
                    victims += 1;
                }
            }
            let mut programmed = 0;
            for bit in lo..hi {
                if diff.is_programmed(bit) {
                    programmed += 1;
                }
            }
            (victims, programmed)
        }

        let mut enc = *stored_old;
        let mut flags = DinFlags::default();
        for g in 0..codec.groups() {
            let lo = g * codec.group_bits();
            let hi = lo + codec.group_bits();
            let mut best: Option<(u32, u32, bool)> = None;
            for flag in [false, true] {
                let mut cand = enc;
                for bit in lo..hi {
                    cand.set_bit(bit, plain.bit(bit) ^ flag);
                }
                let (victims, programmed) = group_score(&cand, stored_old, lo, hi);
                let better = match &best {
                    None => true,
                    Some((v, p, f)) => {
                        victims < *v
                            || (victims == *v && programmed < *p)
                            || (victims == *v
                                && programmed == *p
                                && *f != old_flags.inverted(g)
                                && flag == old_flags.inverted(g))
                    }
                };
                if better {
                    best = Some((victims, programmed, flag));
                }
            }
            let (_, _, flag) = best.unwrap();
            for bit in lo..hi {
                enc.set_bit(bit, plain.bit(bit) ^ flag);
            }
            flags = flags.with(g, flag);
        }
        (enc, flags)
    }

    /// The per-bit decoder the group-mask XOR of [`DinCodec::decode`]
    /// must match.
    fn decode_reference(codec: &DinCodec, stored: &LineBuf, flags: DinFlags) -> LineBuf {
        let mut plain = *stored;
        for g in 0..codec.groups() {
            if flags.inverted(g) {
                let lo = g * codec.group_bits();
                for b in lo..lo + codec.group_bits() {
                    plain.set_bit(b, !stored.bit(b));
                }
            }
        }
        plain
    }

    /// Asserts both kernels against the oracles on one case and returns
    /// the encode, so callers can chain writes.
    fn check_case(
        codec: &DinCodec,
        plain: &LineBuf,
        stored: &LineBuf,
        flags: DinFlags,
        what: &dyn Fn() -> String,
    ) -> (LineBuf, DinFlags) {
        let fast = codec.encode(plain, stored, flags);
        let slow = encode_reference(codec, plain, stored, flags);
        assert_eq!(fast, slow, "encode diverges: {}", what());
        assert_eq!(
            codec.decode(stored, flags),
            decode_reference(codec, stored, flags),
            "decode diverges: {}",
            what()
        );
        assert_eq!(
            codec.decode(&fast.0, fast.1),
            *plain,
            "roundtrip: {}",
            what()
        );
        fast
    }

    /// Edge-case lines: uniform, alternating, lone bits at the line and
    /// word edges, and pairs straddling every word boundary (which
    /// 128..512-bit groups span, and smaller groups' victim windows
    /// cross).
    fn edge_lines() -> Vec<LineBuf> {
        let zero = LineBuf::zeroed();
        let mut lines = vec![
            zero,
            zero.not(),
            LineBuf::from_words([0x5555_5555_5555_5555; LINE_WORDS]),
            LineBuf::from_words([0xaaaa_aaaa_aaaa_aaaa; LINE_WORDS]),
        ];
        for bit in [0, 1, 63, 64, 127, 128, 255, 256, 511] {
            let mut one = zero;
            one.set_bit(bit, true);
            lines.push(one);
            lines.push(one.not());
        }
        for w in 1..LINE_WORDS {
            let mut pair = zero;
            pair.set_bit(64 * w - 1, true);
            pair.set_bit(64 * w, true);
            lines.push(pair);
            lines.push(pair.not());
        }
        lines
    }

    #[test]
    fn kernels_match_oracles_on_edge_lines() {
        let lines = edge_lines();
        let old_flags = [0, u64::MAX];
        for group_bits in GROUP_SIZES {
            let codec = DinCodec::new(group_bits);
            for (pi, plain) in lines.iter().enumerate() {
                for (si, stored) in lines.iter().enumerate() {
                    for &f in &old_flags {
                        check_case(&codec, plain, stored, DinFlags(f), &|| {
                            format!("group_bits={group_bits} plain#{pi} stored#{si} flags={f:#x}")
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn ties_keep_the_old_flag_under_both_polarities() {
        // Alternating data over a uniform line: both polarities program
        // half the group and RESET nothing (over zeros) or leave no idle
        // zero (over ones), so every group ties and keeps its old flag.
        let alt = LineBuf::from_words([0x5555_5555_5555_5555; LINE_WORDS]);
        for group_bits in GROUP_SIZES {
            let codec = DinCodec::new(group_bits);
            let all = u64::MAX >> (64 - codec.groups());
            for stored in [LineBuf::zeroed(), LineBuf::zeroed().not()] {
                for old in [
                    0,
                    all,
                    0x5555_5555_5555_5555 & all,
                    0xaaaa_aaaa_aaaa_aaaa & all,
                ] {
                    let (_, flags) = check_case(&codec, &alt, &stored, DinFlags(old), &|| {
                        format!("group_bits={group_bits} old={old:#x}")
                    });
                    assert_eq!(flags, DinFlags(old), "group_bits={group_bits}");
                }
            }
        }
    }

    /// Chained encode/decode cases against the oracles: dense random
    /// lines, sparse flips of the stored line (near-empty victim
    /// windows), and random old flags (so ties break both ways).
    fn soak(group_bits: usize, seed: u64, cases: usize) {
        let codec = DinCodec::new(group_bits);
        let mut rng = SimRng::from_seed(seed);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        for case in 0..cases {
            let plain = match case % 4 {
                0 => {
                    let mut sparse = codec.decode(&stored, flags);
                    for _ in 0..1 + rng.next_u64() % 6 {
                        let b = (rng.next_u64() % LINE_BITS as u64) as usize;
                        sparse.set_bit(b, !sparse.bit(b));
                    }
                    sparse
                }
                1 => {
                    flags = DinFlags(rng.next_u64());
                    random_line(&mut rng)
                }
                _ => random_line(&mut rng),
            };
            (stored, flags) = check_case(&codec, &plain, &stored, flags, &|| {
                format!("group_bits={group_bits} seed={seed} case={case}")
            });
        }
    }

    #[test]
    fn mask_parallel_kernels_match_oracles() {
        for group_bits in GROUP_SIZES {
            soak(group_bits, 77 + group_bits as u64, 300);
        }
    }

    /// Release-mode soak: one million chained cases per group size, one
    /// thread per size (the per-bit oracles dominate the run time).
    #[test]
    #[ignore = "soak: run with cargo test --release -p sdpcm-wd -- --ignored"]
    fn mask_parallel_kernels_match_oracles_soak() {
        std::thread::scope(|s| {
            for group_bits in GROUP_SIZES {
                s.spawn(move || soak(group_bits, 0x50a6 + group_bits as u64, 1_000_000));
            }
        });
    }

    fn random_line(rng: &mut SimRng) -> LineBuf {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = rng.next_u64();
        }
        LineBuf::from_words(words)
    }

    #[test]
    fn roundtrip_random_lines() {
        let codec = DinCodec::paper_default();
        let mut rng = SimRng::from_seed(11);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        for _ in 0..50 {
            let plain = random_line(&mut rng);
            let (enc, f) = codec.encode(&plain, &stored, flags);
            assert_eq!(codec.decode(&enc, f), plain);
            stored = enc;
            flags = f;
        }
    }

    #[test]
    fn encoding_never_increases_victims() {
        // Compare against the identity (no-DIN) vulnerable count.
        let codec = DinCodec::paper_default();
        let mut rng = SimRng::from_seed(12);
        let mut stored = LineBuf::zeroed();
        let mut flags = DinFlags::default();
        let mut din_total = 0usize;
        let mut raw_total = 0usize;
        for _ in 0..100 {
            let plain = random_line(&mut rng);
            // Identity encoding victims.
            let raw_diff = DiffMask::between(&stored, &plain);
            raw_total += wordline_vulnerable_count(&plain, &raw_diff);
            // DIN victims.
            let (enc, f) = codec.encode(&plain, &stored, flags);
            let diff = DiffMask::between(&stored, &enc);
            din_total += wordline_vulnerable_count(&enc, &diff);
            stored = enc;
            flags = f;
        }
        assert!(
            din_total < raw_total,
            "DIN should reduce WL-vulnerable patterns: {din_total} vs {raw_total}"
        );
    }

    #[test]
    fn all_zero_write_over_all_ones_inverts() {
        // Storing all-zero over stored all-ones: identity encoding RESETs
        // everything (no idle cells -> 0 victims) but programs 512 cells;
        // inverting stores all-ones unchanged (0 programmed).
        let codec = DinCodec::new(32);
        let ones = LineBuf::zeroed().not();
        let plain = LineBuf::zeroed();
        let (enc, flags) = codec.encode(&plain, &ones, DinFlags::default());
        assert_eq!(enc, ones, "inversion avoids reprogramming");
        for g in 0..codec.groups() {
            assert!(flags.inverted(g));
        }
        assert_eq!(codec.decode(&enc, flags), plain);
    }

    #[test]
    fn flag_accessors() {
        let f = DinFlags::default()
            .with(3, true)
            .with(5, true)
            .with(3, false);
        assert!(!f.inverted(3));
        assert!(f.inverted(5));
        assert!(!f.inverted(0));
    }

    #[test]
    fn overhead_matches_groups() {
        assert_eq!(DinCodec::new(32).overhead_bits(), 16);
        assert_eq!(DinCodec::new(64).overhead_bits(), 8);
        assert_eq!(DinCodec::new(8).groups(), 64);
        assert_eq!(DinCodec::paper_default().group_bits(), 8);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn bad_group_size_panics() {
        let _ = DinCodec::new(7);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn too_many_groups_panics() {
        let _ = DinCodec::new(4); // 128 groups > 64 flag bits
    }
}
