//! Allocation budget of the steady-state write path.
//!
//! A LazyC+PreRead replay of eight mcf cores commits thousands of array
//! writes, each with its verification reads, ECP records, own-line fixes,
//! corrections and cascades. Once the per-bank buffers have grown, none
//! of that may touch the heap: line records hold their ECP tables inline,
//! and write jobs recycle their cell lists. What remains is amortized
//! growth (slab chunks, index tables, statistics), well under one
//! allocator call per ten committed writes.
//!
//! The counting allocator counts per thread, so tests running beside
//! this one on other threads do not count; `SystemSim::run` runs on the
//! calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sdpcm::core::{ExperimentParams, Scheme, SystemSim};
use sdpcm::trace::{BenchKind, RefTrace, Workload};

/// The system allocator, counting the calls that obtain memory
/// (`alloc`, `alloc_zeroed`, `realloc`) on each thread.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls made on this thread while `f` runs.
fn calls_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The benchmark's sys-mcf cell: seed 1, 10,000 references per core.
#[test]
fn lazyc_preread_replay_allocates_under_a_tenth_per_write() {
    const REFS_PER_CORE: u64 = 10_000;
    let workload = Workload::homogeneous(BenchKind::Mcf);
    let params = ExperimentParams {
        seed: 1,
        refs_per_core: REFS_PER_CORE,
        ..ExperimentParams::bench_default()
    };
    let trace = Arc::new(RefTrace::capture(&workload, params.seed, REFS_PER_CORE));
    let mut sim = SystemSim::build_replay(&Scheme::lazyc_preread(), &workload, &params, &trace)
        .expect("the replay builds");
    let (stats, calls) = calls_during(|| sim.run().expect("the replay runs"));
    let writes = stats.ctrl.writes.get();
    // The replay exercises the paths whose buffers are recycled.
    assert!(writes > 30_000, "{writes} committed writes");
    assert!(stats.ctrl.ecp_records.get() > 0);
    assert!(stats.ctrl.correction_ops.get() > 0);
    assert!(stats.ctrl.cascade_rounds.get() > 0);
    let per_write = calls as f64 / writes as f64;
    assert!(
        per_write <= 0.1,
        "{calls} allocator calls over {writes} committed writes ({per_write:.3} per write)"
    );
}
