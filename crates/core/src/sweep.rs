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
//! indistinguishable from the sequential loop it replaces.
//!
//! No work-stealing library is involved (the workspace builds offline):
//! workers pull the next cell index from a shared atomic counter, which
//! balances uneven cell costs (schemes with verification traffic run
//! several times longer than DIN-only cells) without any queueing
//! structure.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Applies `f` to every item, fanning the calls across `workers` scoped
/// threads, and returns the outputs **in input order**.
///
/// `f` must be a pure function of its item (plus captured shared
/// state accessed read-only): cells are claimed from an atomic counter,
/// so the execution order across workers is nondeterministic even though
/// the returned `Vec` is not.
///
/// With `workers <= 1` (or fewer than two items) the items are mapped on
/// the calling thread — the same code path a `SDPCM_SWEEP_WORKERS=1`
/// override selects, which keeps a sequential reference run available.
///
/// # Panics
///
/// Propagates a panic from any worker (the sweep is aborted).
pub fn parallel_map<I, O, F>(items: &[I], workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, O)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, f(&items[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(done) => done,
                Err(e) => std::panic::resume_unwind(e),
            })
            .collect()
    });
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    for (i, out) in buckets.into_iter().flatten() {
        slots[i] = Some(out);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every claimed cell produces exactly one output"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 8, 200] {
            let out = parallel_map(&items, workers, |&x| x * 3);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_items() {
        let none: Vec<u32> = Vec::new();
        assert!(parallel_map(&none, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_visited_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map(&items, 8, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(calls.load(Ordering::Relaxed), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn uneven_costs_still_ordered() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, 4, |&x| {
            // Make early items the slowest so late items finish first.
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    #[should_panic(expected = "cell panic")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = parallel_map(&items, 2, |&x| {
            assert!(x != 5, "cell panic");
            x
        });
    }
}
