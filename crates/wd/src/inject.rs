//! The write-disturbance fault injector.
//!
//! Bridges the analytic models to the simulated device: given a write's
//! differential mask and the contents of the neighbourhood, the injector
//! applies the calibrated per-RESET disturbance probabilities and returns
//! the cells that actually flip.
//!
//! Each vulnerable cell flips independently, but the injector does not
//! roll one trial per cell: at the calibrated rates about nine trials in
//! ten say "no". It skip-samples instead. One draw gives the number of
//! vulnerable cells to pass over before the next victim (a geometric
//! gap, read off a [`SkipGate`] table built once per probability), so
//! an event costs one draw per victim plus one. A word-line cell
//! flanked by two RESET cells faces two chances and flips with
//! probability `1 − (1 − p)²`; those cells are sampled as a part of
//! their own.
//!
//! Draws are *order-free*: every injection event carries an explicit
//! [`RngStream`] derived from the event's identity (line address and
//! per-line injection epoch via [`WdInjector::event`]), so the victims
//! of one committed write are a pure function of the experiment seed and
//! the event — not of how many other draws happened first. That is what
//! lets per-bank controller lanes inject concurrently while the full run
//! stays bit-identical at any worker count.

use sdpcm_engine::prof::{self, Site};
use sdpcm_engine::{RngStream, SimRng, SkipGate};
use sdpcm_pcm::line::{DiffMask, LineBuf, LINE_BITS, LINE_WORDS};

use crate::disturb::DisturbanceModel;
use crate::pattern::wordline_exposure_masks;
use crate::scaling::ArraySpacing;
use crate::thermal::Direction;

/// Substream tag for word-line draws within one injection event.
const WL_LANE: u64 = 1;
/// Substream tag base for bit-line draws (`+ side`, side in `{0, 1}`).
const BL_LANE: u64 = 2;

/// A rejected injector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WdError {
    /// A disturbance probability outside `[0, 1]`.
    InvalidProbability {
        /// Which probability was rejected (`"word-line"`/`"bit-line"`).
        which: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A storm multiplier that is negative or non-finite.
    InvalidStorm {
        /// The rejected multiplier.
        value: f64,
    },
}

impl std::fmt::Display for WdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WdError::InvalidProbability { which, value } => {
                write!(f, "{which} disturbance probability {value} outside [0, 1]")
            }
            WdError::InvalidStorm { value } => {
                write!(f, "storm multiplier {value} must be finite and >= 0")
            }
        }
    }
}

impl std::error::Error for WdError {}

/// Seeded disturbance injector for one simulated memory system.
///
/// # Examples
///
/// ```
/// use sdpcm_engine::SimRng;
/// use sdpcm_pcm::line::{DiffMask, LineBuf};
/// use sdpcm_wd::{DisturbanceModel, WdInjector};
/// use sdpcm_wd::scaling::ArraySpacing;
///
/// let rng = SimRng::from_seed_label(1, "inject");
/// let inj = WdInjector::new(
///     &DisturbanceModel::calibrated(),
///     ArraySpacing::super_dense(),
///     rng,
/// );
/// assert!((inj.p_bitline() - 0.115).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct WdInjector {
    p_wl: f64,
    p_bl: f64,
    /// Chaos-harness multiplier on both probabilities (1.0 = calm).
    storm: f64,
    /// Skip tables for the effective `(p, storm)` pair, rebuilt only
    /// when the storm changes: word-line cells with one RESET neighbour
    /// (`p_wl`) and with two (`1 − (1 − p_wl)²`), and bit-line cells
    /// (`p_bl`). See [`SkipGate`].
    skip_wl: SkipGate,
    skip_wl2: SkipGate,
    skip_bl: SkipGate,
    /// Root of every injection substream; draws never mutate it.
    stream: RngStream,
}

impl WdInjector {
    /// Builds an injector for a given array spacing using the calibrated
    /// disturbance model.
    #[must_use]
    pub fn new(model: &DisturbanceModel, spacing: ArraySpacing, rng: SimRng) -> WdInjector {
        let mut inj = WdInjector {
            p_wl: model.probability(Direction::WordLine, spacing),
            p_bl: model.probability(Direction::BitLine, spacing),
            storm: 1.0,
            skip_wl: SkipGate::new(0.0, LINE_BITS),
            skip_wl2: SkipGate::new(0.0, LINE_BITS),
            skip_bl: SkipGate::new(0.0, LINE_BITS),
            stream: rng.stream(),
        };
        inj.refresh_gates();
        inj
    }

    /// Builds an injector with explicit probabilities (ablations, chaos
    /// scenarios); rejects probabilities outside `[0, 1]`.
    pub fn with_probs(p_wl: f64, p_bl: f64, rng: SimRng) -> Result<WdInjector, WdError> {
        for (which, value) in [("word-line", p_wl), ("bit-line", p_bl)] {
            if !(0.0..=1.0).contains(&value) {
                return Err(WdError::InvalidProbability { which, value });
            }
        }
        let mut inj = WdInjector {
            p_wl,
            p_bl,
            storm: 1.0,
            skip_wl: SkipGate::new(0.0, LINE_BITS),
            skip_wl2: SkipGate::new(0.0, LINE_BITS),
            skip_bl: SkipGate::new(0.0, LINE_BITS),
            stream: rng.stream(),
        };
        inj.refresh_gates();
        Ok(inj)
    }

    /// Rebuilds the skip tables from the effective probabilities (called
    /// whenever the storm multiplier changes).
    fn refresh_gates(&mut self) {
        let p_wl = self.p_wordline();
        let q_wl = 1.0 - p_wl;
        self.skip_wl = SkipGate::new(p_wl, LINE_BITS);
        self.skip_wl2 = SkipGate::new(1.0 - q_wl * q_wl, LINE_BITS);
        self.skip_bl = SkipGate::new(self.p_bitline(), LINE_BITS);
    }

    /// Per-RESET word-line disturbance probability in effect (including
    /// any active storm).
    #[must_use]
    pub fn p_wordline(&self) -> f64 {
        (self.p_wl * self.storm).clamp(0.0, 1.0)
    }

    /// Per-RESET bit-line disturbance probability in effect (including
    /// any active storm).
    #[must_use]
    pub fn p_bitline(&self) -> f64 {
        (self.p_bl * self.storm).clamp(0.0, 1.0)
    }

    /// Enters an elevated-disturbance window: both calibrated
    /// probabilities are scaled by `mult` (clamped to 1.0) until
    /// [`WdInjector::clear_storm`]. Rejects negative or non-finite
    /// multipliers.
    pub fn set_storm(&mut self, mult: f64) -> Result<(), WdError> {
        if !mult.is_finite() || mult < 0.0 {
            return Err(WdError::InvalidStorm { value: mult });
        }
        self.storm = mult;
        self.refresh_gates();
        Ok(())
    }

    /// Returns to the calibrated probabilities.
    pub fn clear_storm(&mut self) {
        self.storm = 1.0;
        self.refresh_gates();
    }

    /// The active storm multiplier (1.0 when calm).
    #[must_use]
    pub fn storm(&self) -> f64 {
        self.storm
    }

    /// The draw stream for one injection event, keyed on the event's
    /// identity — typically `(LineAddr::stream_key, per-line epoch)`.
    /// Pure: callers on different threads may derive events concurrently.
    #[must_use]
    #[inline]
    pub fn event(&self, key: u64, epoch: u64) -> RngStream {
        self.stream.keyed(key).keyed(epoch)
    }

    /// Draws word-line disturbances for a write: which idle `0` cells of
    /// the written line flip to `1`. `after` is the line's post-write
    /// content, `diff` the write's mask, `ev` the event stream from
    /// [`WdInjector::event`].
    #[must_use]
    pub fn draw_wordline(&self, ev: &RngStream, after: &LineBuf, diff: &DiffMask) -> Vec<u16> {
        let mut out = Vec::new();
        self.draw_wordline_into(ev, after, diff, &mut out);
        out
    }

    /// Allocation-free form of [`WdInjector::draw_wordline`]: victims are
    /// written to `out` (which is cleared first) in ascending order.
    ///
    /// The vulnerable cells split by exposure. Cells with one RESET
    /// neighbour flip with probability `p`, cells flanked by two with
    /// `1 − (1 − p)²`. Each part is skip-sampled along the event's
    /// word-line substream, the one-neighbour part first, and the
    /// victims are merged. A part costs one draw per victim plus one;
    /// probability 0 draws nothing and flips nothing, and probability 1
    /// draws nothing and flips every cell of the part.
    pub fn draw_wordline_into(
        &self,
        ev: &RngStream,
        after: &LineBuf,
        diff: &DiffMask,
        out: &mut Vec<u16>,
    ) {
        out.clear();
        if self.skip_wl.is_never() {
            return;
        }
        let _t = prof::timer(Site::WdDraw);
        let mut seq = ev.keyed(WL_LANE).sequence();
        let (once, twice) = wordline_exposure_masks(after, diff);
        let mut draws = skip_sample(&mut seq, &self.skip_wl, once.words(), out);
        let singles = out.len();
        draws += skip_sample(&mut seq, &self.skip_wl2, twice.words(), out);
        if singles > 0 && out.len() > singles {
            out.sort_unstable();
        }
        prof::count(Site::RngDraws, draws);
    }

    /// Draws bit-line disturbances in one adjacent line: which of its `0`
    /// cells under RESET positions of the written line flip to `1`.
    /// `side` distinguishes the two neighbours of a write (0 = row above,
    /// 1 = row below) so their draws come from independent substreams.
    #[must_use]
    pub fn draw_bitline(
        &self,
        ev: &RngStream,
        side: usize,
        diff: &DiffMask,
        neighbor: &LineBuf,
    ) -> Vec<u16> {
        let mut out = Vec::new();
        self.draw_bitline_into(ev, side, diff, neighbor, &mut out);
        out
    }

    /// Allocation-free form of [`WdInjector::draw_bitline`]: victims are
    /// written to `out` (cleared first) in ascending order, skip-sampled
    /// over the `resets & !stored` mask along the event's per-side
    /// substream at one draw per victim plus one (none at probability 0
    /// or 1).
    pub fn draw_bitline_into(
        &self,
        ev: &RngStream,
        side: usize,
        diff: &DiffMask,
        neighbor: &LineBuf,
        out: &mut Vec<u16>,
    ) {
        debug_assert!(side < 2, "a write has two bit-line sides");
        out.clear();
        if self.skip_bl.is_never() {
            return;
        }
        let _t = prof::timer(Site::WdDraw);
        let mut seq = ev.keyed(BL_LANE + side as u64).sequence();
        let reset_mask = diff.reset_mask();
        let mut vulnerable = [0u64; LINE_WORDS];
        for ((v, &r), &n) in vulnerable
            .iter_mut()
            .zip(reset_mask.words())
            .zip(neighbor.words())
        {
            *v = r & !n;
        }
        let draws = skip_sample(&mut seq, &self.skip_bl, &vulnerable, out);
        prof::count(Site::RngDraws, draws);
    }
}

/// Appends to `out`, in ascending order, the cells of `mask` that an
/// independent trial per cell at `gate`'s probability selects, and
/// returns the draws consumed.
///
/// Each draw skips a geometric number of cells to the next victim, and
/// the gap is capped at the cells left, so the last draw either lands
/// on a victim or runs off the end. The sentinels draw nothing.
fn skip_sample(
    seq: &mut SimRng,
    gate: &SkipGate,
    mask: &[u64; LINE_WORDS],
    out: &mut Vec<u16>,
) -> u64 {
    if gate.is_never() {
        return 0;
    }
    let mut left: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
    let mut draws = 0u64;
    let mut wi = 0;
    let mut word = mask[0];
    while left > 0 {
        let mut gap = seq.skip(gate, left);
        draws += 1;
        if gap == left {
            break;
        }
        left -= gap + 1;
        // Pass over `gap` vulnerable cells; the next one is the victim.
        // `gap < left` before the update, so the victim exists.
        loop {
            let ones = word.count_ones() as usize;
            if gap < ones {
                break;
            }
            gap -= ones;
            wi += 1;
            word = mask[wi];
        }
        for _ in 0..gap {
            word &= word - 1;
        }
        out.push((wi * 64 + word.trailing_zeros() as usize) as u16);
        word &= word - 1;
    }
    // At p = 1 every gap is 0 and came without a draw.
    if gate.is_always() {
        0
    } else {
        draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(p_wl: f64, p_bl: f64) -> WdInjector {
        WdInjector::with_probs(p_wl, p_bl, SimRng::from_seed_label(99, "inj-test"))
            .expect("test probabilities are valid")
    }

    fn reset_heavy_diff(n: usize) -> (LineBuf, DiffMask) {
        // n cells go 1 -> 0, spaced two apart so each has idle-0 victims.
        let mut old = LineBuf::zeroed();
        for i in 0..n {
            old.set_bit(i * 3, true);
        }
        let new = LineBuf::zeroed();
        (new, DiffMask::between(&old, &new))
    }

    #[test]
    fn zero_probability_injects_nothing() {
        let inj = injector(0.0, 0.0);
        let ev = inj.event(1, 0);
        let (after, diff) = reset_heavy_diff(100);
        assert!(inj.draw_wordline(&ev, &after, &diff).is_empty());
        assert!(inj
            .draw_bitline(&ev, 0, &diff, &LineBuf::zeroed())
            .is_empty());
    }

    #[test]
    fn certain_probability_disturbs_all_vulnerable() {
        let inj = injector(1.0, 1.0);
        let ev = inj.event(1, 0);
        let (after, diff) = reset_heavy_diff(10);
        let wl = inj.draw_wordline(&ev, &after, &diff);
        assert_eq!(
            wl.len(),
            crate::pattern::wordline_vulnerable(&after, &diff).len()
        );
        let bl = inj.draw_bitline(&ev, 1, &diff, &LineBuf::zeroed());
        assert_eq!(bl.len(), 10);
    }

    #[test]
    fn bitline_rate_matches_probability() {
        let inj = injector(0.0, 0.115);
        let (_, diff) = reset_heavy_diff(100);
        let neighbor = LineBuf::zeroed();
        let trials = 2000;
        let mut hits = 0usize;
        for t in 0..trials {
            // A fresh event per trial: distinct epochs are independent.
            let ev = inj.event(7, t as u64);
            hits += inj.draw_bitline(&ev, 0, &diff, &neighbor).len();
        }
        let rate = hits as f64 / (trials * 100) as f64;
        assert!((rate - 0.115).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn crystalline_neighbors_never_disturbed() {
        let inj = injector(1.0, 1.0);
        let (_, diff) = reset_heavy_diff(20);
        let ones = LineBuf::zeroed().not();
        assert!(inj
            .draw_bitline(&inj.event(3, 0), 0, &diff, &ones)
            .is_empty());
    }

    #[test]
    fn draws_depend_only_on_event_identity() {
        // The heart of the order-free contract: the victims of event
        // (key, epoch) are the same no matter what was drawn before, in
        // what order, or on which injector clone.
        let (after, diff) = reset_heavy_diff(50);
        let a = injector(0.099, 0.115);
        let b = injector(0.099, 0.115);
        let ev = a.event(42, 7);
        // `b` first draws a pile of unrelated events...
        for e in 0..32 {
            let _ = b.draw_wordline(&b.event(e, 0), &after, &diff);
        }
        // ...and still agrees with `a` about event (42, 7).
        assert_eq!(
            a.draw_wordline(&ev, &after, &diff),
            b.draw_wordline(&b.event(42, 7), &after, &diff)
        );
        assert_eq!(
            a.draw_bitline(&ev, 0, &diff, &LineBuf::zeroed()),
            b.draw_bitline(&b.event(42, 7), 0, &diff, &LineBuf::zeroed())
        );
        // The two sides of one event draw from independent substreams.
        let up = a.draw_bitline(&ev, 0, &diff, &LineBuf::zeroed());
        let down = a.draw_bitline(&ev, 1, &diff, &LineBuf::zeroed());
        // (With 50 vulnerable cells at p=0.115 the odds of identical
        // victim sets by chance are negligible; equality would mean the
        // substreams collapsed.)
        assert_ne!(up, down, "per-side substreams must be independent");
    }

    #[test]
    fn distinct_epochs_draw_independently() {
        let inj = injector(0.099, 0.115);
        let (after, diff) = reset_heavy_diff(50);
        let first = inj.draw_wordline(&inj.event(9, 0), &after, &diff);
        let second = inj.draw_wordline(&inj.event(9, 1), &after, &diff);
        assert_ne!(first, second, "epochs must not repeat draws");
    }

    #[test]
    fn into_forms_clear_and_match_collecting_forms() {
        let (after, diff) = reset_heavy_diff(50);
        let a = injector(0.099, 0.115);
        let b = injector(0.099, 0.115);
        let ev = a.event(5, 3);
        let wl_a = a.draw_wordline(&ev, &after, &diff);
        let mut wl_b = vec![999]; // stale content must be cleared
        b.draw_wordline_into(&ev, &after, &diff, &mut wl_b);
        assert_eq!(wl_a, wl_b);
        let bl_a = a.draw_bitline(&ev, 1, &diff, &LineBuf::zeroed());
        let mut bl_b = vec![999];
        b.draw_bitline_into(&ev, 1, &diff, &LineBuf::zeroed(), &mut bl_b);
        assert_eq!(bl_a, bl_b);
        // Zero probability clears the buffer without consuming draws.
        let z = injector(0.0, 0.0);
        let mut buf = vec![1, 2, 3];
        z.draw_wordline_into(&ev, &after, &diff, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn skip_sampling_draws_once_per_victim_plus_one() {
        // A full line of vulnerable cells at several rates: the sampler
        // consumes exactly the draws it reports, one per victim plus one
        // unless the last cell is a victim, and the sentinels none.
        let mask = [u64::MAX; LINE_WORDS];
        let stream = SimRng::from_seed_label(3, "skip-draws").stream();
        for p in [0.0, 0.01, 0.115, 0.5, 0.9, 1.0] {
            let gate = SkipGate::new(p, LINE_BITS);
            for key in 0..64 {
                let s = stream.keyed(key);
                let mut seq = s.sequence();
                let mut out = Vec::new();
                let draws = skip_sample(&mut seq, &gate, &mask, &mut out);
                assert_eq!(seq.next_u64(), s.at(draws), "p={p}: draws reported");
                let expect = if gate.is_never() || gate.is_always() {
                    0
                } else {
                    out.len() + usize::from(out.last() != Some(&(LINE_BITS as u16 - 1)))
                };
                assert_eq!(draws, expect as u64, "p={p}");
                match p {
                    0.0 => assert!(out.is_empty()),
                    1.0 => assert_eq!(out.len(), LINE_BITS),
                    _ => assert!(out.windows(2).all(|w| w[0] < w[1])),
                }
            }
        }
    }

    #[test]
    fn skip_sampling_walks_sparse_masks_across_words() {
        // Certain flips list exactly the mask, wherever its cells sit.
        let mut mask = [0u64; LINE_WORDS];
        let cells = [0usize, 63, 64, 130, 255, 256, 448, 511];
        for &b in &cells {
            mask[b / 64] |= 1 << (b % 64);
        }
        let mut out = Vec::new();
        let mut seq = SimRng::from_seed(5);
        let gate = SkipGate::new(1.0, LINE_BITS);
        assert_eq!(skip_sample(&mut seq, &gate, &mask, &mut out), 0);
        let got: Vec<usize> = out.iter().map(|&b| usize::from(b)).collect();
        assert_eq!(got, cells);
        // At any rate, victims stay inside the mask.
        let gate = SkipGate::new(0.5, LINE_BITS);
        for _ in 0..256 {
            out.clear();
            let _ = skip_sample(&mut seq, &gate, &mask, &mut out);
            assert!(out.iter().all(|&b| cells.contains(&usize::from(b))));
        }
    }

    #[test]
    fn with_probs_rejects_out_of_range() {
        let rng = || SimRng::from_seed(7);
        assert_eq!(
            WdInjector::with_probs(1.5, 0.1, rng()).unwrap_err(),
            WdError::InvalidProbability {
                which: "word-line",
                value: 1.5
            }
        );
        assert_eq!(
            WdInjector::with_probs(0.1, -0.2, rng()).unwrap_err(),
            WdError::InvalidProbability {
                which: "bit-line",
                value: -0.2
            }
        );
        assert!(WdInjector::with_probs(0.0, 1.0, rng()).is_ok());
    }

    #[test]
    fn storm_scales_probabilities_and_clamps() {
        let mut inj = injector(0.099, 0.115);
        inj.set_storm(4.0).unwrap();
        assert!((inj.p_wordline() - 0.396).abs() < 1e-12);
        assert!((inj.p_bitline() - 0.46).abs() < 1e-12);
        inj.set_storm(100.0).unwrap();
        assert_eq!(inj.p_wordline(), 1.0, "clamped to a probability");
        inj.clear_storm();
        assert!((inj.p_wordline() - 0.099).abs() < 1e-12);
        assert_eq!(
            inj.set_storm(-1.0),
            Err(WdError::InvalidStorm { value: -1.0 })
        );
        assert!(inj.set_storm(f64::NAN).is_err());
    }

    #[test]
    fn storm_zero_silences_injection() {
        let mut inj = injector(1.0, 1.0);
        inj.set_storm(0.0).unwrap();
        let ev = inj.event(1, 0);
        let (after, diff) = reset_heavy_diff(20);
        assert!(inj.draw_wordline(&ev, &after, &diff).is_empty());
        assert!(inj
            .draw_bitline(&ev, 0, &diff, &LineBuf::zeroed())
            .is_empty());
    }

    #[test]
    fn built_from_model_matches_table1() {
        let inj = WdInjector::new(
            &DisturbanceModel::calibrated(),
            ArraySpacing::super_dense(),
            SimRng::from_seed(1),
        );
        assert!((inj.p_wordline() - 0.099).abs() < 1e-9);
        assert!((inj.p_bitline() - 0.115).abs() < 1e-9);
        // DIN spacing: bit-line WD-free.
        let inj = WdInjector::new(
            &DisturbanceModel::calibrated(),
            ArraySpacing::din_enhanced(),
            SimRng::from_seed(1),
        );
        assert_eq!(inj.p_bitline(), 0.0);
        assert!(inj.p_wordline() > 0.0);
    }
}
