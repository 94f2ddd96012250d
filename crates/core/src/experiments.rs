//! One runner per paper table/figure.
//!
//! Each function performs the sweep the corresponding figure reports and
//! returns plain rows; the bench harness (`crates/bench`) formats them.
//! All runners are deterministic in `ExperimentParams::seed`.
//!
//! The sweeps execute on the parallel executor in [`crate::sweep`]: each
//! runner flattens its `(scheme, benchmark, knob)` cross-product into an
//! explicit cell list, fans the cells over the worker pool, and
//! assembles rows from the in-order results — so the output is
//! bit-identical to the sequential loops the runners replaced (every
//! cell's RNG derives only from its own parameters).

use sdpcm_engine::stats::geometric_mean;
use sdpcm_osalloc::NmRatio;
use sdpcm_trace::BenchKind;
use sdpcm_wd::disturb::DisturbanceModel;
use sdpcm_wd::scaling::ArraySpacing;
use sdpcm_wd::thermal::Direction;

use sdpcm_trace::Workload;

use crate::config::{ExperimentParams, Scheme};
use crate::metrics::RunStats;
use crate::sweep::{default_workers, parallel_map};
use crate::system::SystemSim;
use crate::tracestore::TraceStore;

/// Runs one (scheme, benchmark) cell over a trace captured for it
/// alone: [`run_cell_replay`] on a fresh in-memory store.
///
/// # Panics
///
/// Panics on a simulation error: the figure runners are driven with
/// known-good scheme/parameter combinations, so an error here is a bug
/// worth stopping the whole sweep for. Use [`SystemSim`] directly to
/// handle [`crate::SdpcmError`] yourself.
#[must_use]
pub fn run_cell(scheme: &Scheme, bench: BenchKind, params: &ExperimentParams) -> RunStats {
    run_cell_replay(&TraceStore::in_memory(), scheme, bench, params)
}

/// Runs one (scheme, benchmark) cell over a shared trace store: the
/// workload's reference stream is captured on first touch (or loaded
/// from the store's disk cache) and replayed.
///
/// # Panics
///
/// Panics on a simulation error, like [`run_cell`].
#[must_use]
pub fn run_cell_replay(
    store: &TraceStore,
    scheme: &Scheme,
    bench: BenchKind,
    params: &ExperimentParams,
) -> RunStats {
    let workload = Workload::homogeneous(bench);
    let trace = store.get(&workload, params.seed, params.refs_per_core);
    SystemSim::build_replay(scheme, &workload, params, &trace)
        .and_then(|mut sim| sim.run())
        .expect("figure runners use known-good configurations")
}

/// One flattened sweep cell: a borrowed scheme, a benchmark, and the
/// (possibly knob-adjusted) parameters it runs under.
type Cell<'a> = (&'a Scheme, BenchKind, ExperimentParams);

/// Runs a flat cell list on the worker pool, results in input order.
///
/// Cells replay from a sweep-wide [`TraceStore`]: each distinct
/// `(workload, seed, refs_per_core)` stream is captured once by the
/// first cell to want it and shared (`Arc`) with every other cell —
/// knob sweeps (ECP entries, queue sizes, ages) reuse one trace across
/// the whole knob range. Set `SDPCM_TRACE_DIR` to also persist traces
/// across processes.
fn run_cells(cells: &[Cell<'_>]) -> Vec<RunStats> {
    let store = TraceStore::from_env();
    parallel_map(cells, default_workers(), |(scheme, bench, params)| {
        run_cell_replay(&store, scheme, *bench, params)
    })
}

/// Table 1: disturbance probability for 4F² cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// "Word-line" or "Bit-line".
    pub direction: String,
    /// Neighbour temperature at 2F spacing (°C).
    pub temp_c: f64,
    /// SLC disturbance probability per RESET.
    pub error_rate: f64,
}

/// Reproduces Table 1 from the thermal + disturbance models.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let m = DisturbanceModel::calibrated();
    let sd = ArraySpacing::super_dense();
    let node = m.node();
    [Direction::WordLine, Direction::BitLine]
        .into_iter()
        .map(|dir| {
            let d = node.distance_nm(sd.in_direction(dir));
            Table1Row {
                direction: match dir {
                    Direction::WordLine => "Word-line".to_owned(),
                    Direction::BitLine => "Bit-line".to_owned(),
                },
                temp_c: m.thermal().neighbor_temp(dir, d),
                error_rate: m.probability(dir, sd),
            }
        })
        .collect()
}

/// Figure 4: WD errors per line write.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Benchmark name.
    pub bench: String,
    /// Mean word-line errors per write (same word-line, after DIN).
    pub wl_avg: f64,
    /// Maximum word-line errors in one write.
    pub wl_max: u64,
    /// Mean bit-line errors per adjacent line per write.
    pub bl_avg: f64,
    /// Maximum bit-line errors in one adjacent line.
    pub bl_max: u64,
}

/// Reproduces Figure 4 by running the baseline (super dense, diff-write +
/// DIN) and reading the injection histograms.
#[must_use]
pub fn fig4(params: &ExperimentParams) -> Vec<Fig4Row> {
    let baseline = Scheme::baseline();
    let cells: Vec<Cell<'_>> = BenchKind::all()
        .into_iter()
        .map(|b| (&baseline, b, *params))
        .collect();
    run_cells(&cells)
        .into_iter()
        .zip(BenchKind::all())
        .map(|(stats, b)| Fig4Row {
            bench: b.name().to_owned(),
            wl_avg: stats.ctrl.wl_errors.mean(),
            wl_max: stats.ctrl.wl_errors.max_observed().unwrap_or(0),
            bl_avg: stats.ctrl.bl_errors_per_neighbor.mean(),
            bl_max: stats
                .ctrl
                .bl_errors_per_neighbor
                .max_observed()
                .unwrap_or(0),
        })
        .collect()
}

/// Figure 5: runtime overhead of basic VnC, split into verification and
/// correction, relative to the WD-free DIN design.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Benchmark name.
    pub bench: String,
    /// Fractional slowdown attributed to verification reads.
    pub verification: f64,
    /// Fractional slowdown attributed to corrections.
    pub correction: f64,
    /// Total fractional slowdown of baseline VnC vs DIN.
    pub total: f64,
}

/// Reproduces Figure 5. The total slowdown is measured directly
/// (`CPI_VnC / CPI_DIN − 1`); the split uses the controller's per-phase
/// busy-cycle accounting.
#[must_use]
pub fn fig5(params: &ExperimentParams) -> Vec<Fig5Row> {
    let din_scheme = Scheme::din();
    let baseline = Scheme::baseline();
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for b in BenchKind::all() {
        cells.push((&din_scheme, b, *params));
        cells.push((&baseline, b, *params));
    }
    let stats = run_cells(&cells);
    BenchKind::all()
        .into_iter()
        .zip(stats.chunks_exact(2))
        .map(|(b, pair)| {
            let (din, vnc) = (&pair[0], &pair[1]);
            let total = (vnc.cpi() / din.cpi() - 1.0).max(0.0);
            let v = vnc.ctrl.phases.verification_total().0 as f64;
            let c = (vnc.ctrl.phases.correction_total() + vnc.ctrl.phases.own_fixes).0 as f64;
            let denom = (v + c).max(1.0);
            Fig5Row {
                bench: b.name().to_owned(),
                verification: total * v / denom,
                correction: total * c / denom,
                total,
            }
        })
        .collect()
}

/// Figure 11: speedup of every scheme, normalized to `baseline`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Row {
    /// Benchmark name ("gmean" for the summary row).
    pub bench: String,
    /// `(scheme name, speedup vs baseline)` pairs in figure order.
    pub speedups: Vec<(String, f64)>,
}

/// Reproduces Figure 11 (the headline comparison).
#[must_use]
pub fn fig11(params: &ExperimentParams) -> Vec<Fig11Row> {
    let schemes = Scheme::figure11_set();
    let baseline = Scheme::baseline();
    // Per bench: the normalization run, then every non-baseline scheme
    // (the baseline's own speedup is 1.0 by definition, not simulated).
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for b in BenchKind::all() {
        cells.push((&baseline, b, *params));
        for s in schemes.iter().filter(|s| s.name != "baseline") {
            cells.push((s, b, *params));
        }
    }
    let stats = run_cells(&cells);
    let stride = 1 + schemes.iter().filter(|s| s.name != "baseline").count();

    let mut rows: Vec<Fig11Row> = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (bi, b) in BenchKind::all().into_iter().enumerate() {
        let chunk = &stats[bi * stride..(bi + 1) * stride];
        let base = &chunk[0];
        let mut measured = chunk[1..].iter();
        let mut speedups = Vec::new();
        for (i, s) in schemes.iter().enumerate() {
            let speedup = if s.name == "baseline" {
                1.0
            } else {
                measured
                    .next()
                    .expect("one cell per non-baseline scheme")
                    .speedup_vs(base)
            };
            per_scheme[i].push(speedup);
            speedups.push((s.name.clone(), speedup));
        }
        rows.push(Fig11Row {
            bench: b.name().to_owned(),
            speedups,
        });
    }
    rows.push(Fig11Row {
        bench: "gmean".to_owned(),
        speedups: schemes
            .iter()
            .zip(&per_scheme)
            .map(|(s, v)| (s.name.clone(), geometric_mean(v)))
            .collect(),
    });
    rows
}

/// Figures 12 & 13: sensitivity to the number of ECP entries.
#[derive(Debug, Clone, PartialEq)]
pub struct EcpSweepRow {
    /// ECP entries per line.
    pub entries: usize,
    /// Mean correction operations per write (gmean across benchmarks is
    /// not meaningful for a count, so this is the arithmetic mean).
    pub corrections_per_write: f64,
    /// Geometric-mean speedup vs ECP-0 (i.e. vs `baseline`).
    pub speedup_vs_ecp0: f64,
}

/// Reproduces Figures 12 and 13 with one sweep (LazyC at each ECP-N;
/// ECP-0 degenerates to the basic VnC).
#[must_use]
pub fn fig12_13(params: &ExperimentParams, entries: &[usize]) -> Vec<EcpSweepRow> {
    let benches = BenchKind::all();
    let baseline = Scheme::baseline();
    let lazyc = Scheme::lazyc();
    // Cells: the ECP-0 normalization runs per bench, then one cell per
    // (entries, bench) pair.
    let mut cells: Vec<Cell<'_>> = benches
        .iter()
        .map(|&b| {
            let p = ExperimentParams {
                ecp_entries: 0,
                ..*params
            };
            (&baseline, b, p)
        })
        .collect();
    for &n in entries {
        for &b in &benches {
            let p = ExperimentParams {
                ecp_entries: n,
                ..*params
            };
            let scheme = if n == 0 { &baseline } else { &lazyc };
            cells.push((scheme, b, p));
        }
    }
    let stats = run_cells(&cells);
    let (base, swept) = stats.split_at(benches.len());
    entries
        .iter()
        .zip(swept.chunks_exact(benches.len()))
        .map(|(&n, row)| {
            let corr: Vec<f64> = row.iter().map(|r| r.ctrl.corrections_per_write()).collect();
            let speedups: Vec<f64> = row.iter().zip(base).map(|(r, b)| r.speedup_vs(b)).collect();
            EcpSweepRow {
                entries: n,
                corrections_per_write: corr.iter().sum::<f64>() / corr.len() as f64,
                speedup_vs_ecp0: geometric_mean(&speedups),
            }
        })
        .collect()
}

/// Figure 14: performance across the DIMM's lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14Row {
    /// Consumed lifetime fraction.
    pub age: f64,
    /// Geometric-mean speedup vs the fresh (age 0) DIMM.
    pub speedup_vs_fresh: f64,
}

/// Reproduces Figure 14 (LazyC, hard errors eating ECP entries with age).
#[must_use]
pub fn fig14(params: &ExperimentParams, ages: &[f64]) -> Vec<Fig14Row> {
    let benches = BenchKind::all();
    let lazyc = Scheme::lazyc();
    let mut cells: Vec<Cell<'_>> = benches.iter().map(|&b| (&lazyc, b, *params)).collect();
    for &age in ages {
        for &b in &benches {
            let p = ExperimentParams {
                dimm_age: Some(age),
                ..*params
            };
            cells.push((&lazyc, b, p));
        }
    }
    let stats = run_cells(&cells);
    let (fresh, aged) = stats.split_at(benches.len());
    ages.iter()
        .zip(aged.chunks_exact(benches.len()))
        .map(|(&age, row)| {
            let speedups: Vec<f64> = row
                .iter()
                .zip(fresh)
                .map(|(r, f)| r.speedup_vs(f))
                .collect();
            Fig14Row {
                age,
                speedup_vs_fresh: geometric_mean(&speedups),
            }
        })
        .collect()
}

/// Figure 15: write-queue-size sensitivity for LazyC+PreRead.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig15Row {
    /// Write-queue entries per bank.
    pub queue_size: usize,
    /// Geometric-mean speedup vs DIN (1.0 would match DIN).
    pub speedup_vs_din: f64,
}

/// Reproduces Figure 15.
#[must_use]
pub fn fig15(params: &ExperimentParams, sizes: &[usize]) -> Vec<Fig15Row> {
    let benches = BenchKind::all();
    let din_scheme = Scheme::din();
    let lazyc_preread = Scheme::lazyc_preread();
    let mut cells: Vec<Cell<'_>> = benches.iter().map(|&b| (&din_scheme, b, *params)).collect();
    for &q in sizes {
        for &b in &benches {
            let p = ExperimentParams {
                write_queue_cap: q,
                ..*params
            };
            cells.push((&lazyc_preread, b, p));
        }
    }
    let stats = run_cells(&cells);
    let (din, swept) = stats.split_at(benches.len());
    sizes
        .iter()
        .zip(swept.chunks_exact(benches.len()))
        .map(|(&q, row)| {
            let speedups: Vec<f64> = row.iter().zip(din).map(|(r, d)| r.speedup_vs(d)).collect();
            Fig15Row {
                queue_size: q,
                speedup_vs_din: geometric_mean(&speedups),
            }
        })
        .collect()
}

/// Figure 16: (n:m) ratio sensitivity.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Row {
    /// The allocator.
    pub ratio: NmRatio,
    /// Geometric-mean speedup vs DIN.
    pub speedup_vs_din: f64,
    /// Usable capacity fraction (the other side of the trade-off).
    pub capacity_fraction: f64,
}

/// Reproduces Figure 16 (basic VnC + each allocator).
#[must_use]
pub fn fig16(params: &ExperimentParams, ratios: &[NmRatio]) -> Vec<Fig16Row> {
    let benches = BenchKind::all();
    let din_scheme = Scheme::din();
    let ratio_schemes: Vec<Scheme> = ratios
        .iter()
        .map(|&r| Scheme::baseline_with_ratio(r))
        .collect();
    let mut cells: Vec<Cell<'_>> = benches.iter().map(|&b| (&din_scheme, b, *params)).collect();
    for s in &ratio_schemes {
        for &b in &benches {
            cells.push((s, b, *params));
        }
    }
    let stats = run_cells(&cells);
    let (din, swept) = stats.split_at(benches.len());
    ratios
        .iter()
        .zip(swept.chunks_exact(benches.len()))
        .map(|(&ratio, row)| {
            let speedups: Vec<f64> = row.iter().zip(din).map(|(r, d)| r.speedup_vs(d)).collect();
            Fig16Row {
                ratio,
                speedup_vs_din: geometric_mean(&speedups),
                capacity_fraction: ratio.capacity_fraction(),
            }
        })
        .collect()
}

/// Figures 17 & 18: normalized lifetime of data chips and the ECP chip.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeRow {
    /// Benchmark name.
    pub bench: String,
    /// Normalized data-chip lifetime (1.0 = undegraded), Figure 17.
    pub data_lifetime: f64,
    /// Normalized ECP-chip lifetime, Figure 18.
    pub ecp_lifetime: f64,
}

/// Reproduces Figures 17 and 18 under the full SD-PCM configuration
/// (LazyC, which routes WD errors through the ECP chip).
#[must_use]
pub fn fig17_18(params: &ExperimentParams) -> Vec<LifetimeRow> {
    let lazyc = Scheme::lazyc();
    let cells: Vec<Cell<'_>> = BenchKind::all()
        .into_iter()
        .map(|b| (&lazyc, b, *params))
        .collect();
    run_cells(&cells)
        .into_iter()
        .zip(BenchKind::all())
        .map(|(r, b)| LifetimeRow {
            bench: b.name().to_owned(),
            data_lifetime: r.wear.data_lifetime_norm(),
            ecp_lifetime: r.wear.ecp_lifetime_norm(),
        })
        .collect()
}

/// Figure 19: integration with write cancellation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig19Row {
    /// Benchmark name ("gmean" for the summary row).
    pub bench: String,
    /// Speedups vs `VnC` for: `WC`, `LazyC`, `WC+LazyC`.
    pub wc: f64,
    /// LazyC alone.
    pub lazyc: f64,
    /// Write cancellation + LazyC.
    pub wc_lazyc: f64,
}

/// Reproduces Figure 19.
#[must_use]
pub fn fig19(params: &ExperimentParams) -> Vec<Fig19Row> {
    let baseline = Scheme::baseline();
    let lazyc = Scheme::lazyc();
    let wc_scheme = Scheme {
        name: "WC".into(),
        ctrl: Scheme::baseline().ctrl.with_write_cancellation(),
        ratio: NmRatio::one_one(),
    };
    let wc_lazy_scheme = Scheme {
        name: "WC+LazyC".into(),
        ctrl: Scheme::lazyc().ctrl.with_write_cancellation(),
        ratio: NmRatio::one_one(),
    };
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for b in BenchKind::all() {
        for s in [&baseline, &wc_scheme, &lazyc, &wc_lazy_scheme] {
            cells.push((s, b, *params));
        }
    }
    let stats = run_cells(&cells);

    let mut rows = Vec::new();
    let mut acc = [Vec::new(), Vec::new(), Vec::new()];
    for (b, chunk) in BenchKind::all().into_iter().zip(stats.chunks_exact(4)) {
        let base = &chunk[0];
        let wc = chunk[1].speedup_vs(base);
        let lazyc = chunk[2].speedup_vs(base);
        let wc_lazyc = chunk[3].speedup_vs(base);
        acc[0].push(wc);
        acc[1].push(lazyc);
        acc[2].push(wc_lazyc);
        rows.push(Fig19Row {
            bench: b.name().to_owned(),
            wc,
            lazyc,
            wc_lazyc,
        });
    }
    rows.push(Fig19Row {
        bench: "gmean".to_owned(),
        wc: geometric_mean(&acc[0]),
        lazyc: geometric_mean(&acc[1]),
        wc_lazyc: geometric_mean(&acc[2]),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            refs_per_core: 300,
            ..ExperimentParams::quick_test()
        }
    }

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.len(), 2);
        assert!((t[0].temp_c - 310.0).abs() < 0.5);
        assert!((t[0].error_rate - 0.099).abs() < 1e-6);
        assert!((t[1].temp_c - 320.0).abs() < 0.5);
        assert!((t[1].error_rate - 0.115).abs() < 1e-6);
    }

    #[test]
    fn fig4_single_bench_shape() {
        // Run just one benchmark's cell to keep the test fast.
        let stats = run_cell(&Scheme::baseline(), BenchKind::Mcf, &tiny());
        let bl_avg = stats.ctrl.bl_errors_per_neighbor.mean();
        let wl_avg = stats.ctrl.wl_errors.mean();
        // Bit-line errors dominate word-line errors (the paper's point).
        assert!(bl_avg > wl_avg, "bl={bl_avg} wl={wl_avg}");
        assert!(bl_avg > 0.5, "several BL errors per write expected");
    }

    #[test]
    fn fig16_ratio_ordering() {
        // Interior check on the policy-level driver rather than a full
        // sweep: verification needs are monotone in the ratio.
        use sdpcm_osalloc::VerifyPolicy;
        let p = VerifyPolicy::new(1 << 20);
        let v: Vec<f64> = [
            NmRatio::one_one(),
            NmRatio::three_four(),
            NmRatio::two_three(),
            NmRatio::one_two(),
        ]
        .into_iter()
        .map(|r| p.mean_interior_verifications(r))
        .collect();
        assert!(v[0] > v[1] && v[1] > v[2] && v[2] > v[3]);
    }

    #[test]
    fn fig19_wc_lazyc_beats_lazyc_for_read_heavy() {
        // Smoke: WC+LazyC speedup exists and is >= LazyC on a read-heavy
        // benchmark where cancellation pays off.
        let params = tiny();
        let base = run_cell(&Scheme::baseline(), BenchKind::Bwaves, &params);
        let lazyc = run_cell(&Scheme::lazyc(), BenchKind::Bwaves, &params).speedup_vs(&base);
        let wc_lazy_scheme = Scheme {
            name: "WC+LazyC".into(),
            ctrl: Scheme::lazyc().ctrl.with_write_cancellation(),
            ratio: NmRatio::one_one(),
        };
        let wc_lazyc = run_cell(&wc_lazy_scheme, BenchKind::Bwaves, &params).speedup_vs(&base);
        assert!(lazyc > 0.5 && wc_lazyc > 0.5);
    }
}
