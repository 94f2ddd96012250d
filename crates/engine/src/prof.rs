//! Zero-cost-when-disabled internal profiler.
//!
//! The simulator's hot path spans five crates (front end → caches →
//! controller → device → injector), so "where do the cycles go" cannot
//! be answered by eyeballing one module. This profiler answers it with
//! scoped wall-clock timers and monotonic counters compiled into every
//! build but gated behind the `SDPCM_PROF=1` environment variable:
//!
//! * **disabled** (the default): every probe is a single relaxed atomic
//!   load and a predictable branch — no clock reads, no allocation, no
//!   thread-local traffic. The bench harness measures the same numbers
//!   with the probes in place as before they existed.
//! * **enabled**: probes accumulate `(calls, nanoseconds)` per site in
//!   a plain thread-local array (no locks on the hot path); each thread
//!   flushes its array into a global aggregate when it exits, and
//!   [`report`] merges the aggregate with the calling thread's live
//!   counts.
//!
//! The profiler never draws randomness and never changes simulated
//! time, so enabling it cannot perturb results — the determinism
//! contract holds with `SDPCM_PROF` unset or `=1` (pinned by
//! `tests/replay_golden.rs`).
//!
//! # Examples
//!
//! ```
//! use sdpcm_engine::prof::{self, Site};
//!
//! {
//!     let _t = prof::timer(Site::CtrlAdvance);
//!     // ... timed region ...
//! }
//! prof::count(Site::RngDraws, 3);
//! for site in prof::report() {
//!     println!("{}: {} calls, {} ns", site.name, site.calls, site.total_ns);
//! }
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Probe sites, one per hot-path region. The fixed enumeration keeps
/// the per-probe cost at an array index instead of a map lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// Event-loop iteration driving `SystemSim`'s cores (post-cache
    /// front end).
    SystemStep,
    /// Event-loop iteration driving `HierarchySim`'s cores
    /// (full-hierarchy front end).
    HierStep,
    /// `MemoryController::submit`.
    CtrlSubmit,
    /// `MemoryController::run_until` (one probe per front-end wake) and
    /// `flush` (one per run with work left). The bank operations they
    /// complete internally count in their time, not in their calls.
    /// The site keeps its `ctrl_advance` name: it times how the
    /// controller advances.
    CtrlAdvance,
    /// VnC verification reads resolved against the device.
    CtrlVerify,
    /// Correction/OwnFix writes (RESET of disturbed cells).
    CtrlCorrect,
    /// Device-store architectural/raw line reads.
    StoreRead,
    /// `StoreLane::apply_write` differential writes.
    StoreWrite,
    /// `WdInjector` word-line/bit-line draw batches.
    WdDraw,
    /// Cache-hierarchy lookups (`CoreCaches::access`).
    CacheAccess,
    /// Raw RNG draws consumed by injector gates (counter only).
    RngDraws,
}

impl Site {
    /// Number of sites (array sizing).
    pub const COUNT: usize = 11;

    /// Stable snake_case name used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::SystemStep => "system_step",
            Site::HierStep => "hier_step",
            Site::CtrlSubmit => "ctrl_submit",
            Site::CtrlAdvance => "ctrl_advance",
            Site::CtrlVerify => "ctrl_verify",
            Site::CtrlCorrect => "ctrl_correct",
            Site::StoreRead => "store_read",
            Site::StoreWrite => "store_write",
            Site::WdDraw => "wd_draw",
            Site::CacheAccess => "cache_access",
            Site::RngDraws => "rng_draws",
        }
    }

    /// Every site, in declaration order.
    pub const ALL: [Site; Site::COUNT] = [
        Site::SystemStep,
        Site::HierStep,
        Site::CtrlSubmit,
        Site::CtrlAdvance,
        Site::CtrlVerify,
        Site::CtrlCorrect,
        Site::StoreRead,
        Site::StoreWrite,
        Site::WdDraw,
        Site::CacheAccess,
        Site::RngDraws,
    ];
}

/// One site's merged totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// Site name (see [`Site::name`]).
    pub name: &'static str,
    /// Times the probe fired (or units counted for counter probes).
    pub calls: u64,
    /// Wall-clock nanoseconds inside scoped timers (0 for counters).
    pub total_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();

fn global() -> &'static Mutex<[(u64, u64); Site::COUNT]> {
    static GLOBAL: OnceLock<Mutex<[(u64, u64); Site::COUNT]>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new([(0, 0); Site::COUNT]))
}

/// Thread-local accumulator that flushes into the global aggregate on
/// thread exit, so sweep workers' counts survive them.
struct LocalCells([(u64, u64); Site::COUNT]);

impl Drop for LocalCells {
    fn drop(&mut self) {
        flush_into_global(&mut self.0);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalCells> = const { RefCell::new(LocalCells([(0, 0); Site::COUNT])) };
}

fn flush_into_global(cells: &mut [(u64, u64); Site::COUNT]) {
    if cells.iter().all(|&(c, n)| c == 0 && n == 0) {
        return;
    }
    if let Ok(mut g) = global().lock() {
        for (agg, cell) in g.iter_mut().zip(cells.iter_mut()) {
            agg.0 += cell.0;
            agg.1 += cell.1;
            *cell = (0, 0);
        }
    }
}

/// Whether profiling is active. Reads `SDPCM_PROF` once (first call)
/// and caches the answer; flip it earlier in-process with [`set_enabled`].
#[inline]
pub fn enabled() -> bool {
    INIT.call_once(|| {
        let on = std::env::var("SDPCM_PROF").is_ok_and(|v| v == "1" || v == "true");
        ENABLED.store(on, Ordering::Relaxed);
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Forces the gate (used by perfbench's `--trace 1` and tests). Takes
/// effect for probes fired after the call; does not clear counts.
pub fn set_enabled(on: bool) {
    INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// Scoped timer: measures from construction to drop when profiling is
/// enabled, does nothing otherwise.
#[must_use = "the timer measures until it is dropped"]
pub struct ScopedTimer {
    site: Site,
    start: Option<Instant>,
}

/// Starts a scoped timer for `site`.
#[inline]
pub fn timer(site: Site) -> ScopedTimer {
    ScopedTimer {
        site,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl Drop for ScopedTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            let idx = self.site as usize;
            LOCAL.with(|l| {
                let cell = &mut l.borrow_mut().0[idx];
                cell.0 += 1;
                cell.1 += ns;
            });
        }
    }
}

/// Adds `n` to a site's call counter without timing (for events too
/// cheap or frequent to clock individually, e.g. RNG draws).
#[inline]
pub fn count(site: Site, n: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().0[site as usize].0 += n);
    }
}

/// Merged per-site totals: the global aggregate (exited threads) plus
/// the calling thread's live counts, sites with activity only, sorted
/// by total time descending (counters last, by calls).
#[must_use]
pub fn report() -> Vec<SiteReport> {
    let mut merged = *global().lock().expect("profiler aggregate poisoned");
    LOCAL.with(|l| {
        for (m, &(c, n)) in merged.iter_mut().zip(l.borrow().0.iter()) {
            m.0 += c;
            m.1 += n;
        }
    });
    let mut out: Vec<SiteReport> = Site::ALL
        .iter()
        .map(|&s| SiteReport {
            name: s.name(),
            calls: merged[s as usize].0,
            total_ns: merged[s as usize].1,
        })
        .filter(|r| r.calls > 0 || r.total_ns > 0)
        .collect();
    out.sort_by_key(|r| std::cmp::Reverse((r.total_ns, r.calls)));
    out
}

/// Clears the global aggregate and the calling thread's counts.
pub fn reset() {
    *global().lock().expect("profiler aggregate poisoned") = [(0, 0); Site::COUNT];
    LOCAL.with(|l| l.borrow_mut().0 = [(0, 0); Site::COUNT]);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The gate is process-global, so every test drives it explicitly
    // and restores the disabled default before returning. Tests run
    // concurrently, so each one that touches the gate or the aggregate
    // holds `GATE` throughout.
    static GATE: Mutex<()> = Mutex::new(());

    fn lock_gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _gate = lock_gate();
        set_enabled(false);
        reset();
        {
            let _t = timer(Site::CtrlAdvance);
        }
        count(Site::RngDraws, 100);
        assert!(report().is_empty());
    }

    #[test]
    fn enabled_probes_accumulate_and_merge() {
        let _gate = lock_gate();
        set_enabled(true);
        reset();
        {
            let _t = timer(Site::StoreRead);
        }
        {
            let _t = timer(Site::StoreRead);
        }
        count(Site::RngDraws, 7);
        // A worker thread's counts must survive its exit.
        std::thread::spawn(|| {
            let _t = timer(Site::CtrlSubmit);
        })
        .join()
        .unwrap();
        let r = report();
        set_enabled(false);
        let get = |name: &str| r.iter().find(|s| s.name == name).cloned();
        let reads = get("store_read").expect("store_read recorded");
        assert_eq!(reads.calls, 2);
        assert_eq!(get("rng_draws").expect("counter recorded").calls, 7);
        assert_eq!(get("ctrl_submit").expect("thread flushed").calls, 1);
        reset();
    }

    #[test]
    fn report_sorts_by_time() {
        let _gate = lock_gate();
        set_enabled(true);
        reset();
        LOCAL.with(|l| {
            l.borrow_mut().0[Site::CtrlAdvance as usize] = (1, 500);
            l.borrow_mut().0[Site::StoreWrite as usize] = (9, 100);
        });
        let r = report();
        set_enabled(false);
        assert_eq!(r[0].name, "ctrl_advance");
        assert_eq!(r[1].name, "store_write");
        reset();
    }

    #[test]
    fn site_names_are_unique_and_indexed() {
        let mut names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Site::COUNT);
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "discriminants must be dense");
        }
    }
}
