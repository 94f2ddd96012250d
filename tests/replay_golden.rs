//! Golden determinism contract of the capture/replay layer.
//!
//! The whole point of capture-once/replay-many is that it changes only
//! *wall-clock time*, never *results*: for every scheme the paper
//! compares, a replayed run must reproduce the inline run bit for bit —
//! the full `RunStats` (cycles, controller counters, wear, energy) and
//! the device's final content digest — at any sweep worker count. These
//! tests pin that contract; if one fails, replay mode is simulating a
//! different experiment and every figure built on it is suspect.

use std::sync::Arc;

use sdpcm_core::experiments::{run_cell, run_cell_replay};
use sdpcm_core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm_core::sweep::parallel_map;
use sdpcm_core::{ExperimentParams, Scheme, SystemSim, TraceStore};
use sdpcm_trace::{BenchKind, RefTrace, Workload};

fn tiny() -> ExperimentParams {
    ExperimentParams {
        refs_per_core: 400,
        ..ExperimentParams::quick_test()
    }
}

/// Inline run of one cell: stats plus the device content digest.
fn inline_cell(scheme: &Scheme, bench: BenchKind, params: &ExperimentParams) -> (String, u64) {
    let mut sim = SystemSim::build(scheme, bench, params).unwrap();
    let stats = sim.run().unwrap();
    (
        format!("{stats:?}"),
        sim.controller().store().content_digest(),
    )
}

/// Replay run of one cell against a shared trace.
fn replay_cell(
    scheme: &Scheme,
    bench: BenchKind,
    params: &ExperimentParams,
    trace: &Arc<RefTrace>,
) -> (String, u64) {
    let workload = Workload::homogeneous(bench);
    let mut sim = SystemSim::build_replay(scheme, &workload, params, trace).unwrap();
    let stats = sim.run().unwrap();
    (
        format!("{stats:?}"),
        sim.controller().store().content_digest(),
    )
}

#[test]
fn every_figure11_scheme_replays_bit_identically_at_any_worker_count() {
    let params = tiny();
    let bench = BenchKind::Mcf;
    let schemes = Scheme::figure11_set();

    // Sequential inline reference, one run per scheme.
    let reference: Vec<(String, u64)> = schemes
        .iter()
        .map(|s| inline_cell(s, bench, &params))
        .collect();

    // One shared capture, replayed across the scheme set at 1 and 8
    // workers: all three result sets must be byte-identical.
    let trace = Arc::new(RefTrace::capture(
        &Workload::homogeneous(bench),
        params.seed,
        params.refs_per_core,
    ));
    for workers in [1, 8] {
        let replayed = parallel_map(&schemes, workers, |s| {
            replay_cell(s, bench, &params, &trace)
        });
        assert_eq!(
            replayed, reference,
            "replay diverged from inline at {workers} workers"
        );
    }
}

#[test]
fn trace_store_cells_match_inline_cells() {
    // The figure runners' actual path: run_cell_replay over a store.
    let params = tiny();
    let store = TraceStore::in_memory();
    for scheme in [Scheme::baseline(), Scheme::lazyc_preread()] {
        for bench in [BenchKind::Wrf, BenchKind::Mcf] {
            let a = run_cell(&scheme, bench, &params);
            let b = run_cell_replay(&store, &scheme, bench, &params);
            assert_eq!(a, b, "{}/{}", scheme.name, bench.name());
        }
    }
}

/// Inline hierarchy run of one cell: stats, PCM traffic, and the device
/// content digest.
fn hier_cell(scheme: &Scheme, params: &ExperimentParams) -> (String, (u64, u64), u64) {
    let hparams = HierarchyParams::quick_test();
    let mut sim = HierarchySim::build(scheme.clone(), BenchKind::Mcf, params, &hparams).unwrap();
    let stats = sim.run().unwrap();
    (
        format!("{stats:?}"),
        sim.pcm_traffic(),
        sim.controller().store().content_digest(),
    )
}

#[test]
fn profiler_gate_does_not_perturb_results() {
    // The internal profiler must be observationally free: a cell run
    // with probes firing (`SDPCM_PROF=1`) produces the same `RunStats`,
    // PCM traffic, and device content digest as one without, on both
    // the system and the cache-hierarchy front end.
    let params = tiny();
    for scheme in [Scheme::baseline(), Scheme::lazyc_preread()] {
        sdpcm_engine::prof::set_enabled(false);
        let off = (
            inline_cell(&scheme, BenchKind::Mcf, &params),
            hier_cell(&scheme, &params),
        );
        sdpcm_engine::prof::set_enabled(true);
        let on = (
            inline_cell(&scheme, BenchKind::Mcf, &params),
            hier_cell(&scheme, &params),
        );
        sdpcm_engine::prof::set_enabled(false);
        assert_eq!(off, on, "{}: probes changed the simulation", scheme.name);
    }
}

#[test]
fn corrupted_or_stale_disk_trace_is_rejected_and_regenerated() {
    let dir = std::env::temp_dir().join(format!("sdpcm-replay-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params = tiny();
    let workload = Workload::homogeneous(BenchKind::Wrf);
    let reference = RefTrace::capture(&workload, params.seed, params.refs_per_core);
    let path = dir.join(format!("{:016x}.sdpt", reference.meta.content_key()));
    std::fs::create_dir_all(&dir).unwrap();

    // Bit-rotted cache entry: the digest check must reject it and the
    // store must recapture (and repair the file).
    let mut corrupt = reference.to_bytes();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&path, &corrupt).unwrap();
    let store = TraceStore::with_dir(dir.clone());
    let got = store.get(&workload, params.seed, params.refs_per_core);
    assert_eq!(*got, reference);
    assert_eq!(std::fs::read(&path).unwrap(), reference.to_bytes());

    // A trace from another schema version must be rejected too.
    let mut stale = reference.to_bytes();
    stale[4] ^= 0x01; // schema version follows the 4-byte magic
    let tail = stale.len() - 8;
    let digest = sdpcm_trace::wire::fnv1a(&stale[..tail]);
    stale[tail..].copy_from_slice(&digest.to_le_bytes());
    std::fs::write(&path, &stale).unwrap();
    let got = TraceStore::with_dir(dir.clone()).get(&workload, params.seed, params.refs_per_core);
    assert_eq!(*got, reference);

    // And the replayed cell still matches the inline cell end to end.
    let scheme = Scheme::lazyc();
    let a = run_cell(&scheme, BenchKind::Wrf, &params);
    let b = run_cell_replay(
        &TraceStore::with_dir(dir.clone()),
        &scheme,
        BenchKind::Wrf,
        &params,
    );
    assert_eq!(a, b);
    let _ = std::fs::remove_dir_all(&dir);
}
