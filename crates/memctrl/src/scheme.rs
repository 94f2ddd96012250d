//! Mechanism switches of the controller.
//!
//! One [`CtrlScheme`] value captures which of the paper's mechanisms are
//! active. The named constructors correspond to the compared schemes of
//! §5.3; the general struct supports every ablation in between.
//!
//! DIN word-line encoding is not a switch: every scheme of the paper
//! keeps it (§2.3), so the controller always encodes with it.

use sdpcm_wd::scaling::ArraySpacing;

/// Which mechanisms the controller runs with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrlScheme {
    /// Cell-array spacing — sets the disturbance probabilities (4F² super
    /// dense suffers bit-line WD; 8F² DIN does not).
    pub spacing: ArraySpacing,
    /// Verify-and-correct adjacent lines on writes (needed for super
    /// dense arrays; pointless for the DIN array).
    pub vnc: bool,
    /// Buffer WD errors in spare ECP entries instead of correcting
    /// eagerly (§4.2).
    pub lazy_correction: bool,
    /// Issue pre-write reads from the write queue during idle bank time
    /// (§4.3).
    pub preread: bool,
    /// Cancel uncommitted writes when a read arrives (§6.8).
    pub write_cancellation: bool,
    /// Pause an in-flight write between VnC phases to serve pending
    /// reads, then resume — the non-destructive alternative to
    /// cancellation from the same proposal [Qureshi et al., HPCA'10].
    pub write_pausing: bool,
    /// Post-write read of the written line to catch residual word-line
    /// errors (the DIN "check and rewrite" step).
    pub own_line_verify: bool,
    /// Start-Gap wear levelling [MICRO'09]: move the per-bank gap every
    /// ψ demand writes. Requires the (1:1) allocator — the physical
    /// rotation breaks (n:m) strip marking (see `wearlevel`).
    pub start_gap_psi: Option<u32>,
    /// Ablation: make LazyCorrection's ECP record write occupy the bank
    /// like a data operation. By default the record is overlapped — it
    /// targets the separate (low-density, WD-free) ECP chip, so the data
    /// chips can proceed with the next operation (§4.2, Figure 7).
    pub ecp_write_inline: bool,
}

impl CtrlScheme {
    /// §5.3 `DIN`: 8F² array, WD-free along bit-lines, no VnC needed.
    #[must_use]
    pub fn din() -> CtrlScheme {
        CtrlScheme {
            spacing: ArraySpacing::din_enhanced(),
            vnc: false,
            lazy_correction: false,
            preread: false,
            write_cancellation: false,
            write_pausing: false,
            own_line_verify: true,
            start_gap_psi: None,
            ecp_write_inline: false,
        }
    }

    /// §5.3 `baseline`: super dense 4F² array with basic VnC.
    #[must_use]
    pub fn baseline_vnc() -> CtrlScheme {
        CtrlScheme {
            spacing: ArraySpacing::super_dense(),
            vnc: true,
            lazy_correction: false,
            preread: false,
            write_cancellation: false,
            write_pausing: false,
            own_line_verify: true,
            start_gap_psi: None,
            ecp_write_inline: false,
        }
    }

    /// §5.3 `LazyC`: LazyCorrection on top of the baseline.
    #[must_use]
    pub fn lazyc() -> CtrlScheme {
        CtrlScheme {
            lazy_correction: true,
            ..CtrlScheme::baseline_vnc()
        }
    }

    /// §5.3 `PreRead` on top of the baseline.
    #[must_use]
    pub fn preread() -> CtrlScheme {
        CtrlScheme {
            preread: true,
            ..CtrlScheme::baseline_vnc()
        }
    }

    /// `LazyC + PreRead` (the paper's best non-allocator combination).
    #[must_use]
    pub fn lazyc_preread() -> CtrlScheme {
        CtrlScheme {
            lazy_correction: true,
            preread: true,
            ..CtrlScheme::baseline_vnc()
        }
    }

    /// Adds write cancellation to any scheme.
    #[must_use]
    pub fn with_write_cancellation(self) -> CtrlScheme {
        CtrlScheme {
            write_cancellation: true,
            ..self
        }
    }

    /// Adds write pausing to any scheme.
    #[must_use]
    pub fn with_write_pausing(self) -> CtrlScheme {
        CtrlScheme {
            write_pausing: true,
            ..self
        }
    }

    /// An unprotected super dense array (no VnC at all) — not a paper
    /// scheme; used by tests to demonstrate that disturbance corrupts
    /// data without mitigation.
    #[must_use]
    pub fn unprotected_super_dense() -> CtrlScheme {
        CtrlScheme {
            spacing: ArraySpacing::super_dense(),
            vnc: false,
            lazy_correction: false,
            preread: false,
            write_cancellation: false,
            write_pausing: false,
            own_line_verify: false,
            start_gap_psi: None,
            ecp_write_inline: false,
        }
    }

    /// Adds Start-Gap wear levelling with the given ψ.
    #[must_use]
    pub fn with_start_gap(self, psi: u32) -> CtrlScheme {
        CtrlScheme {
            start_gap_psi: Some(psi),
            ..self
        }
    }

    /// Ablation: charge ECP record writes as bank-occupying operations.
    #[must_use]
    pub fn with_inline_ecp_writes(self) -> CtrlScheme {
        CtrlScheme {
            ecp_write_inline: true,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn din_needs_no_vnc() {
        let s = CtrlScheme::din();
        assert!(!s.vnc);
        assert_eq!(s.spacing, ArraySpacing::din_enhanced());
    }

    #[test]
    fn baseline_is_super_dense_with_vnc() {
        let s = CtrlScheme::baseline_vnc();
        assert!(s.vnc);
        assert!(!s.lazy_correction && !s.preread && !s.write_cancellation);
        assert_eq!(s.spacing, ArraySpacing::super_dense());
    }

    #[test]
    fn combinators_layer_correctly() {
        let s = CtrlScheme::lazyc_preread().with_write_cancellation();
        assert!(s.vnc && s.lazy_correction && s.preread && s.write_cancellation);
        let s = CtrlScheme::lazyc().with_write_pausing();
        assert!(s.write_pausing && !s.write_cancellation);
    }
}
