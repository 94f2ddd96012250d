#![warn(missing_docs)]

//! SD-PCM core library: schemes, the full-system simulator, and the
//! experiment runners behind every table and figure of the paper.
//!
//! The pieces below tie the workspace together:
//!
//! * [`config`] — [`config::Scheme`] (the §5.3 compared schemes:
//!   `DIN`, `baseline` VnC, `LazyC`, `PreRead`, their combinations, and
//!   the `(n:m)` allocators) and [`config::ExperimentParams`]
//!   (seed, reference counts, geometry sizing).
//! * [`system`] — [`system::SystemSim`]: eight trace-driven
//!   in-order cores, per-core page tables filled by the WD-aware OS
//!   allocator, and the cycle-level memory controller, advanced by one
//!   event loop.
//! * [`metrics`] — [`metrics::RunStats`]: cycles, CPI,
//!   speedups, controller counters, and wear/lifetime summaries.
//! * [`experiments`] — one function per paper table/figure, returning
//!   plain rows that the bench harness formats.
//! * [`hiersim`] — the alternative full-hierarchy front end: cores →
//!   L1/L2/L3 → controller, for cache-sensitivity studies.
//! * [`sweep`] — the parallel sweep executor: independent figure cells
//!   fan out over a scoped thread pool with outputs reassembled in
//!   input order, bit-identical to a sequential run.
//! * [`tracestore`] — the shared reference-trace cache behind the
//!   figure sweeps: first-toucher capture under a `OnceLock`, `Arc`
//!   sharing across scheme cells, and an optional versioned on-disk
//!   cache (`SDPCM_TRACE_DIR`).
//! * [`error`] — the typed [`error::SdpcmError`] hierarchy every
//!   simulator entry point reports instead of panicking.
//! * [`fault`] — [`fault::FaultPlan`]: deterministic chaos scenarios
//!   (storms, stuck-at bursts, aging ramps) installed into a simulator.
//!
//! # Examples
//!
//! ```
//! use sdpcm_core::{ExperimentParams, Scheme, SystemSim};
//! use sdpcm_trace::BenchKind;
//!
//! let params = ExperimentParams::quick_test();
//! let mut sim = SystemSim::build(&Scheme::din(), BenchKind::Stream, &params).unwrap();
//! let stats = sim.run().unwrap();
//! assert!(stats.total_cycles > 0);
//! assert!(stats.reads > 0);
//! ```

pub mod config;
pub mod error;
pub mod experiments;
pub mod fault;
pub mod hiersim;
pub mod metrics;
pub mod sweep;
pub mod system;
pub mod tracestore;

pub use config::{ExperimentParams, Scheme};
pub use error::{ConfigError, MapError, SdpcmError, SimError};
pub use fault::FaultPlan;
pub use metrics::RunStats;
pub use system::SystemSim;
pub use tracestore::TraceStore;
