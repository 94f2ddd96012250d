//! WD-aware DMA support (paper §4.4, "DMA support").
//!
//! DMA engines address physical memory directly and expect consecutive
//! frames, which conflicts with (n:m) marking. The paper restricts DMA
//! buffers to (1:1) or (1:2) allocations and teaches the DMA controller
//! the allocator tag: under (1:2) it skips every other strip
//! automatically when walking a physically contiguous buffer.

use crate::nm::NmRatio;
use sdpcm_pcm::geometry::PAGES_PER_STRIP;

/// The DMA controller's address-walk logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmaController;

impl DmaController {
    /// Creates a controller.
    #[must_use]
    pub fn new() -> DmaController {
        DmaController
    }

    /// Whether a ratio is DMA-capable (the paper allows only (1:1) and
    /// (1:2) for simplicity).
    #[must_use]
    pub fn supports(&self, ratio: NmRatio) -> bool {
        ratio == NmRatio::one_one() || ratio == NmRatio::one_two()
    }

    /// Produces the physical frame sequence of a DMA transfer of
    /// `frames` pages starting at `base_frame`, under `ratio`.
    ///
    /// The controller hops over every strip the ratio marks
    /// ([`NmRatio::is_nouse_strip`]): under (1:1) the walk is dense;
    /// under (1:2) it skips every other strip, so the transfer spans
    /// twice the physical range but touches only usable frames.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the ratio is not DMA-capable or the base frame
    /// lies in a marked strip.
    pub fn walk(&self, ratio: NmRatio, base_frame: u64, frames: u64) -> Result<Vec<u64>, DmaError> {
        if !self.supports(ratio) {
            return Err(DmaError::UnsupportedRatio(ratio));
        }
        let strip_pages = PAGES_PER_STRIP as u64;
        let marked = |f: u64| ratio.is_nouse_strip(f / strip_pages);
        if marked(base_frame) {
            return Err(DmaError::BaseInMarkedStrip(base_frame));
        }
        let mut out = Vec::with_capacity(frames as usize);
        let mut f = base_frame;
        while (out.len() as u64) < frames {
            out.push(f);
            f += 1;
            while marked(f) {
                f += strip_pages; // hop over the marked strip
            }
        }
        Ok(out)
    }
}

/// DMA configuration errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// The allocator ratio cannot back a DMA buffer.
    UnsupportedRatio(NmRatio),
    /// A transfer must start in a strip its ratio uses.
    BaseInMarkedStrip(u64),
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::UnsupportedRatio(r) => {
                write!(f, "allocator {r} is not DMA-capable (only (1:1)/(1:2))")
            }
            DmaError::BaseInMarkedStrip(b) => {
                write!(f, "DMA base frame {b} lies in a marked strip")
            }
        }
    }
}

impl std::error::Error for DmaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_one_walk_is_dense() {
        let d = DmaController::new();
        let w = d.walk(NmRatio::one_one(), 5, 4).unwrap();
        assert_eq!(w, vec![5, 6, 7, 8]);
    }

    #[test]
    fn one_two_walk_skips_odd_strips() {
        let d = DmaController::new();
        // Strips are 16 pages; start at frame 14 (strip 0), 6 frames:
        // 14, 15, then hop strip 1 (16..31), continue at 32.
        let w = d.walk(NmRatio::one_two(), 14, 6).unwrap();
        assert_eq!(w, vec![14, 15, 32, 33, 34, 35]);
    }

    #[test]
    fn one_two_long_walk_visits_every_even_strip() {
        let d = DmaController::new();
        let w = d.walk(NmRatio::one_two(), 0, 100).unwrap();
        let even_strips: Vec<u64> = (0..7).flat_map(|s| 32 * s..32 * s + 16).collect();
        assert_eq!(w, even_strips[..100]);
    }

    #[test]
    fn one_two_walk_keeps_alternating_across_a_64mb_block() {
        // A 64 MB block holds 1,024 strips, an even number, so the
        // per-block marking continues the device-wide even/odd pattern.
        let d = DmaController::new();
        let w = d.walk(NmRatio::one_two(), 1022 * 16, 48).unwrap();
        let expect: Vec<u64> = [1022u64, 1024, 1026]
            .iter()
            .flat_map(|s| s * 16..s * 16 + 16)
            .collect();
        assert_eq!(w, expect);
    }

    #[test]
    fn unsupported_ratio_rejected() {
        let d = DmaController::new();
        assert!(!d.supports(NmRatio::two_three()));
        assert_eq!(
            d.walk(NmRatio::two_three(), 0, 4),
            Err(DmaError::UnsupportedRatio(NmRatio::two_three()))
        );
    }

    #[test]
    fn marked_base_rejected() {
        let d = DmaController::new();
        assert_eq!(
            d.walk(NmRatio::one_two(), 17, 4),
            Err(DmaError::BaseInMarkedStrip(17))
        );
    }

    #[test]
    fn errors_display() {
        let e = DmaError::UnsupportedRatio(NmRatio::two_three());
        assert!(e.to_string().contains("(2:3)"));
        assert!(DmaError::BaseInMarkedStrip(9).to_string().contains('9'));
    }
}
