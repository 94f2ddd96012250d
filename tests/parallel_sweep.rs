//! Determinism of the parallel sweep executor: fanning cells across
//! worker threads must produce output bit-identical to the sequential
//! runner — figure rows, run statistics, and device digests — because
//! every cell's RNG streams derive only from its own parameters.

use sdpcm::core::experiments;
use sdpcm::core::{sweep, ExperimentParams, Scheme, SystemSim};
use sdpcm::trace::BenchKind;

fn params() -> ExperimentParams {
    ExperimentParams {
        refs_per_core: 400,
        ..ExperimentParams::quick_test()
    }
}

/// Runs a 9-cell (scheme × bench) sweep on `workers` workers and
/// returns, per cell, the run's cycle count, write count, ECP records,
/// wear state, and the device's content digest.
fn digest_sweep(workers: usize) -> Vec<(u64, u64, u64, String, u64)> {
    let schemes = [Scheme::baseline(), Scheme::lazyc(), Scheme::lazyc_preread()];
    let benches = [BenchKind::Mcf, BenchKind::Lbm, BenchKind::Stream];
    let mut cells: Vec<(&Scheme, BenchKind)> = Vec::new();
    for s in &schemes {
        for &b in &benches {
            cells.push((s, b));
        }
    }
    sweep::parallel_map(&cells, workers, |&(s, b)| {
        let mut sim = SystemSim::build(s, b, &params()).expect("known-good cell");
        let stats = sim.run().expect("cell completes");
        (
            stats.total_cycles,
            stats.writes,
            stats.ctrl.ecp_records.get(),
            format!("{:?}", stats.wear),
            sim.controller().store().content_digest(),
        )
    })
}

#[test]
fn sweep_output_identical_at_1_2_and_8_workers() {
    let sequential = digest_sweep(1);
    for workers in [2, 8] {
        assert_eq!(digest_sweep(workers), sequential, "workers={workers}");
    }
}

/// Serializes the tests that mutate the worker-count environment
/// variable (the test harness runs tests concurrently in one process).
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn figure_runners_identical_across_worker_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    // The figure runners pick their worker count from the environment;
    // pin it to 1 (sequential reference), then 2 and 8.
    let prev = std::env::var(sweep::WORKERS_ENV).ok();
    let p = params();

    std::env::set_var(sweep::WORKERS_ENV, "1");
    let fig4_seq = experiments::fig4(&p);
    let fig12_seq = experiments::fig12_13(&p, &[0, 4]);

    for workers in ["2", "8"] {
        std::env::set_var(sweep::WORKERS_ENV, workers);
        assert_eq!(experiments::fig4(&p), fig4_seq, "fig4 workers={workers}");
        assert_eq!(
            experiments::fig12_13(&p, &[0, 4]),
            fig12_seq,
            "fig12_13 workers={workers}"
        );
    }

    match prev {
        Some(v) => std::env::set_var(sweep::WORKERS_ENV, v),
        None => std::env::remove_var(sweep::WORKERS_ENV),
    }
}

#[test]
fn default_workers_honours_env_override() {
    let _guard = ENV_LOCK.lock().unwrap();
    let prev = std::env::var(sweep::WORKERS_ENV).ok();
    std::env::set_var(sweep::WORKERS_ENV, "3");
    assert_eq!(sweep::default_workers(), 3);
    // Unset or 0 falls back to the usable parallelism (the affinity
    // mask), never the machine's full processor count.
    let usable = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(sweep::WORKERS_ENV, "0");
    assert_eq!(
        sweep::default_workers(),
        usable,
        "0 falls back to autodetect"
    );
    std::env::remove_var(sweep::WORKERS_ENV);
    assert_eq!(sweep::default_workers(), usable);
    match prev {
        Some(v) => std::env::set_var(sweep::WORKERS_ENV, v),
        None => std::env::remove_var(sweep::WORKERS_ENV),
    }
}
