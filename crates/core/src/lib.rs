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
//! * [`system`] — [`system::SystemSim`]: eight trace-driven in-order
//!   cores that always replay a captured post-cache reference stream
//!   (building from a workload captures its trace first).
//! * [`metrics`] — [`metrics::RunStats`]: cycles, CPI,
//!   speedups, controller counters, and wear/lifetime summaries.
//! * [`experiments`] — one function per paper table/figure, returning
//!   plain rows that the bench harness formats.
//! * [`hiersim`] — the alternative full-hierarchy front end: cores →
//!   L1/L2/L3 → controller, for cache-sensitivity studies.
//!
//! * [`sweep`] — the parallel sweep executor: independent figure cells
//!   fan out over a scoped thread pool with outputs reassembled in
//!   input order, bit-identical to a sequential run.
//! * [`tracestore`] — the shared reference-trace cache behind the
//!   figure sweeps: first-toucher capture under a `OnceLock`, `Arc`
//!   sharing across scheme cells, and an optional versioned on-disk
//!   cache (`SDPCM_TRACE_DIR`).
//! * [`error`] — the typed [`error::SdpcmError`] hierarchy every
//!   simulator entry point reports instead of panicking.
//! * [`FaultPlan`] — deterministic chaos scenarios (storms, stuck-at
//!   bursts, aging ramps), re-exported from `sdpcm_memctrl::chaos` and
//!   installed into a simulator with [`SystemSim::install_fault_plan`].
//!
//! Both front ends plug their cores into one private back end: per-core
//! page tables filled by the WD-aware OS allocator (each entry carries
//! the `(n:m)` tag to the controller), one submit path that synthesizes
//! write payloads, the cycle-level memory controller, and one event loop
//! that ends every run with one flush under one rule: it starts at the
//! controller's next event, or at the last finish when the controller is
//! idle. The start only moves banks that sit idle with queued writes,
//! which hold no reads, so no result depends on it. The front ends
//! differ only in their cores.
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

mod backend;
pub mod config;
pub mod error;
pub mod experiments;
pub mod hiersim;
pub mod metrics;
pub mod sweep;
pub mod system;
pub mod tracestore;

pub use config::{ExperimentParams, Scheme};
pub use error::{ConfigError, MapError, SdpcmError, SimError};
pub use metrics::RunStats;
pub use sdpcm_memctrl::chaos::FaultPlan;
pub use system::SystemSim;
pub use tracestore::TraceStore;
