#![warn(missing_docs)]

//! Discrete-event simulation kernel for the SD-PCM reproduction.
//!
//! This crate provides the timing, randomness, and bookkeeping substrate
//! shared by every other crate in the workspace:
//!
//! * [`Cycle`] — the global simulated clock (CPU cycles at 4 GHz, per the
//!   paper's Table 2), with nanosecond conversions.
//! * [`SimRng`] — seeded random-number streams with stable per-component
//!   derivation, so adding a new consumer of randomness does not perturb
//!   the draws seen by existing components.
//! * [`stats`] — counters, histograms and quantile sketches used to build
//!   every table and figure of the evaluation.
//! * [`hash`] — a deterministic FxHash-style hasher for the simulator's
//!   hot-path maps (the DoS-resistant std default is wasted cost here).
//! * [`par`] — the scoped-thread executor behind the figure sweeps and
//!   parallel trace capture: outputs come back in input order.
//! * [`prof`] — the always-compiled, zero-cost-when-disabled profiler
//!   behind `SDPCM_PROF=1` and perfbench's `--trace 1`.
//!
//! # Examples
//!
//! ```
//! use sdpcm_engine::{Cycle, SimRng};
//!
//! // 4 GHz clock: one nanosecond is four cycles.
//! let read_done = Cycle(100) + Cycle::from_ns(100);
//! assert_eq!(read_done, Cycle(500));
//!
//! // Derived streams are stable: same seed and label, same draws.
//! let mut a = SimRng::from_seed_label(7, "system").derive("ctrl");
//! let mut b = SimRng::from_seed_label(7, "system").derive("ctrl");
//! assert_eq!(a.index(512), b.index(512));
//! ```

pub mod clock;
pub mod hash;
pub mod par;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod table;

pub use clock::Cycle;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use rng::{ChanceGate, RngStream, SimRng, SkipGate};
pub use stats::{Counter, Histogram, QuantileSketch};
pub use table::TextTable;
