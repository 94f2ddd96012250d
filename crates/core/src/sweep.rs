//! Parallel sweep executor for the figure runners.
//!
//! Every paper figure is a cross-product of independent `(scheme,
//! benchmark, knob)` cells: each cell builds its own [`crate::SystemSim`]
//! whose RNG streams derive solely from the cell's
//! [`crate::ExperimentParams::seed`] labels — no state is shared between
//! cells, so they can execute in any order (or concurrently) and produce
//! bit-identical results. [`parallel_map`] exploits that: it fans the
//! cells out over a scoped [`std::thread`] worker pool and reassembles
//! the outputs in input order, so a figure runner on top of it is
//! indistinguishable from the sequential loop it replaces. The executor
//! itself lives in [`sdpcm_engine::par`] (trace capture fans its
//! per-core streams out on it too, except inside a sweep cell, where
//! the cell's worker drains them itself) and is re-exported here; this
//! module adds the sweep's worker-count policy.
//!
//! Workers claim cells from a shared atomic counter, which balances
//! uneven cell costs (schemes with verification traffic run several
//! times longer than DIN-only cells). With `SDPCM_SWEEP_WORKERS=1` the
//! cells map on the calling thread, the sequential reference path.

pub use sdpcm_engine::par::parallel_map;

/// Environment variable overriding the worker count picked by
/// [`default_workers`]. Set to `1` to force sequential execution.
pub const WORKERS_ENV: &str = "SDPCM_SWEEP_WORKERS";

/// Worker count for figure sweeps: the `SDPCM_SWEEP_WORKERS` environment
/// variable when set to a positive integer, otherwise the machine's
/// available parallelism (falling back to 1 when that is unknowable).
#[must_use]
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
