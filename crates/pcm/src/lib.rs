#![warn(missing_docs)]

//! PCM device model for the SD-PCM reproduction.
//!
//! Models the memory organization of the paper's Figure 6 and Table 2:
//! one channel, two ranks, eight banks per rank; each bank row stores one
//! 4 KB logical page spread across eight data chips plus one ECP chip;
//! memory lines are 64 B (512 SLC cells).
//!
//! The crate provides:
//!
//! * [`geometry`] — address math: pages ↔ (bank, row), line addressing,
//!   strip indices, bit-line adjacency (rows `r±1` of the same bank, i.e.
//!   physical pages 16 frames apart).
//! * [`mod@line`] — 64-byte line buffers and differential-write masks
//!   (SET/RESET per cell), including the 128-bit parallel write-driver
//!   wave accounting.
//! * [`ecp`] — Error-Correcting-Pointer tables (ECP-N), shared between
//!   hard errors (priority) and LazyCorrection's buffered WD errors.
//! * [`store`] — a sparse device store: one record per touched line
//!   (cells, ECP table, DIN flags, injection epoch), so the full 8 GB
//!   address space costs megabytes.
//! * [`timing`] — SET/RESET/read latencies and differential write latency.
//! * [`wear`] — cell-write accounting and the hard-error population model
//!   used for the lifetime experiments (Figures 14, 17, 18).
//! * [`capacity`] — the cell-size / array-capacity / chip-area analytics
//!   of §6.1 (4F² vs 8F² vs 12F²).

pub mod capacity;
pub mod ecp;
pub mod energy;
pub mod geometry;
pub mod line;
pub mod store;
pub mod timing;
pub mod wear;

pub use ecp::{EcpEntry, EcpKind, EcpTable};
pub use energy::{EnergyMeter, EnergyParams};
pub use geometry::{BankId, LineAddr, MemGeometry, PageId, RowId};
pub use line::{DiffMask, LineBuf, LINE_BITS, LINE_BYTES};
pub use store::{DeviceStore, InitContent};
pub use timing::PcmTiming;
pub use wear::{HardErrorModel, WearMeter};
