//! The workspace's one parallel executor.
//!
//! [`parallel_map`] fans independent items over a scoped
//! [`std::thread`] worker pool and reassembles the outputs in input
//! order, so a caller on top of it is indistinguishable from the
//! sequential loop it replaces. Two layers use it: the figure sweeps
//! (`sdpcm-core::sweep`, one item per simulation cell) and trace
//! capture (`sdpcm-trace::RefTrace::capture`, one item per core
//! stream).
//!
//! No work-stealing library is involved (the workspace builds offline):
//! workers pull the next item index from a shared atomic counter, which
//! balances uneven item costs without any queueing structure.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item, fanning the calls across `workers` scoped
/// threads, and returns the outputs **in input order**.
///
/// `f` must be a pure function of its item (plus captured shared
/// state accessed read-only): items are claimed from an atomic counter,
/// so the execution order across workers is nondeterministic even though
/// the returned `Vec` is not.
///
/// With `workers <= 1` (or fewer than two items) the items are mapped on
/// the calling thread, which keeps a sequential reference run available.
///
/// # Panics
///
/// Propagates a panic from any worker (the map is aborted).
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
        .map(|s| s.expect("every claimed item produces exactly one output"))
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
