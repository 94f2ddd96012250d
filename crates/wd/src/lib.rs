#![warn(missing_docs)]

//! Write-disturbance (WD) models for the SD-PCM reproduction.
//!
//! Scaled PCM suffers inter-cell thermal interference during RESET: the
//! heat melted into the programmed cell leaks into its neighbours, and an
//! *idle amorphous* (bit `0`) neighbour can partially crystallize, losing
//! its stored value (paper §2.2). This crate models that phenomenon end
//! to end:
//!
//! * [`thermal`] — the cell thermal model: neighbour temperature as a
//!   function of inter-cell distance and the insulating material (GST
//!   along bit-lines in the µTrench structure, oxide along word-lines).
//! * [`scaling`] — the technology scaling model (feature size, spacing
//!   options 2F/3F/4F).
//! * [`disturb`] — the disturbance-probability model calibrated to the
//!   paper's Table 1 (310 °C → 9.9 %, 320 °C → 11.5 % per RESET).
//! * [`pattern`] — vulnerable-pattern analysis (Figure 3): which cells of
//!   a write's neighbourhood can be disturbed.
//! * [`din`] — the DIN word-line encoder [Jiang et al., DSN'14]:
//!   group-inversion coding that minimizes WL-vulnerable patterns.
//! * [`inject`] — the seeded fault injector used by the memory controller
//!   during simulated writes (its storm multiplier is driven by the
//!   controller's chaos harness, `sdpcm_memctrl::chaos`).

pub mod din;
pub mod disturb;
pub mod fnw;
pub mod inject;
pub mod pattern;
pub mod scaling;
pub mod thermal;

pub use din::{DinCodec, DinFlags};
pub use disturb::DisturbanceModel;
pub use fnw::FnwCodec;
pub use inject::{WdError, WdInjector};
pub use scaling::{Spacing, TechNode};
pub use thermal::ThermalModel;
