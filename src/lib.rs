#![warn(missing_docs)]

//! # SD-PCM: Reliable Super Dense Phase Change Memory under Write Disturbance
//!
//! A full-system reproduction of the ASPLOS 2015 paper *"SD-PCM:
//! Constructing Reliable Super Dense Phase Change Memory under Write
//! Disturbance"* (Wang, Jiang, Zhang, Yang).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`engine`] — discrete-event simulation kernel (clock, RNG,
//!   statistics, profiler, sweep executor).
//! * [`pcm`] — the PCM device model: geometry, sparse cell-array store,
//!   differential write, ECP error-correction pointers, wear/lifetime
//!   accounting, and the capacity/area analytics of the paper's §6.1.
//! * [`wd`] — write-disturbance models: thermal + scaling + disturbance
//!   probability (Table 1), vulnerable-pattern analysis (Figure 3), the
//!   DIN word-line encoder, and the fault injector.
//! * [`trace`] — synthetic workload generation calibrated to the paper's
//!   Table 3 (SPEC2006 + STREAM read/write intensities).
//! * [`cachesim`] — the Table 2 cache hierarchy (L1 / L2 / DRAM L3).
//! * [`osalloc`] — buddy page allocation with the WD-aware (n:m)-Alloc.
//! * [`memctrl`] — the memory controller: queues, scheduling, basic VnC,
//!   LazyCorrection, PreRead, write cancellation, and the chaos harness
//!   (`memctrl::chaos`: fault scenarios, their schedule and execution).
//! * [`core`] — scheme configurations, the full-system simulator (plus
//!   the full-hierarchy front end in `core::hiersim`), and the
//!   per-figure experiment runners.
//!
//! # Quickstart
//!
//! ```
//! use sdpcm::core::{ExperimentParams, Scheme, SystemSim};
//! use sdpcm::trace::BenchKind;
//!
//! let params = ExperimentParams::quick_test();
//! let mut sim = SystemSim::build(&Scheme::lazyc_preread(), BenchKind::Mcf, &params)?;
//! let stats = sim.run()?;
//! assert!(stats.total_cycles > 0);
//! # Ok::<(), sdpcm::core::SdpcmError>(())
//! ```

/// The types most programs need, in one import.
///
/// ```
/// use sdpcm::prelude::*;
///
/// let params = ExperimentParams::quick_test();
/// let mut sim = SystemSim::build(&Scheme::din(), BenchKind::Wrf, &params).unwrap();
/// let _ = sim.run().unwrap();
/// ```
pub mod prelude {
    pub use sdpcm_core::{ExperimentParams, FaultPlan, RunStats, Scheme, SdpcmError, SystemSim};
    pub use sdpcm_engine::{Cycle, SimRng};
    pub use sdpcm_memctrl::{Access, AccessKind, CtrlConfig, CtrlScheme, MemoryController, ReqId};
    pub use sdpcm_osalloc::NmRatio;
    pub use sdpcm_pcm::geometry::{LineAddr, MemGeometry};
    pub use sdpcm_pcm::line::LineBuf;
    pub use sdpcm_trace::BenchKind;
}

pub use sdpcm_cachesim as cachesim;
pub use sdpcm_core as core;
pub use sdpcm_engine as engine;
pub use sdpcm_memctrl as memctrl;
pub use sdpcm_osalloc as osalloc;
pub use sdpcm_pcm as pcm;
pub use sdpcm_trace as trace;
pub use sdpcm_wd as wd;
