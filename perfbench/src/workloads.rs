//! The three workloads, their correctness checks, and the per-layer
//! numbers of the traced run.
//!
//! Every workload drives only public API (`sdpcm::core`,
//! `sdpcm::trace`, `sdpcm::engine::prof`) and times the calls into each
//! crate from outside. A simulated cell is one operation: it fails when
//! it returns an error, retires fewer references than its quota, or
//! reports an internal anomaly, a cascade overflow or an ECP overflow
//! fix.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use sdpcm::core::experiments::{fig11, Fig11Row};
use sdpcm::core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm::core::sweep::parallel_map;
use sdpcm::core::{ExperimentParams, RunStats, Scheme, SdpcmError, SystemSim, TraceStore};
use sdpcm::engine::prof;
use sdpcm::engine::stats::{geometric_mean, QuantileSketch};
use sdpcm::trace::{BenchKind, RefTrace, Workload};

use crate::calc::{self, Fnv};
use crate::calib::{self, Calibrator};
use crate::record::Spans;

/// Cores the simulated system has (Table 2).
const CORES: u64 = 8;
/// Post-cache references per core of the `sys-mcf` cell.
pub const MCF_REFS_PER_CORE: u64 = 10_000;
/// Cache accesses per core of the `hier-wrf` cell.
pub const WRF_ACCESSES_PER_CORE: u64 = 100_000;
/// Post-cache references per core of every `fig11-sweep` cell.
pub const FIG11_REFS_PER_CORE: u64 = 3_000;
/// Set-up repetitions of `fig11-sweep` (its set-up is timed on its own).
const FIG11_SETUP_REPS: usize = 5;
/// Seeds (the run's seed and ones derived from it) whose checked
/// Figure 11 sweeps are averaged for `fig11-sweep`'s accuracy metrics:
/// at this scale one seed's gmean speedups move by a few percent.
const FIG11_ACCURACY_SEEDS: u64 = 4;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// LazyC+PreRead over eight mcf cores, one trace replay per rep.
    SysMcf,
    /// The live Table 2 hierarchy on wrf, caches starting empty.
    HierWrf,
    /// `experiments::fig11`: 63 cells on the sweep pool.
    Fig11Sweep,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "sys-mcf" => Some(Kind::SysMcf),
            "hier-wrf" => Some(Kind::HierWrf),
            "fig11-sweep" => Some(Kind::Fig11Sweep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SysMcf => "sys-mcf",
            Kind::HierWrf => "hier-wrf",
            Kind::Fig11Sweep => "fig11-sweep",
        }
    }

    /// Sweep workers the workload runs on.
    pub fn sweep_workers(self, nproc: usize) -> usize {
        match self {
            Kind::Fig11Sweep => nproc.clamp(1, 2),
            Kind::SysMcf | Kind::HierWrf => 1,
        }
    }
}

/// End-to-end metrics: name, unit, direction. Printed with `--trace 0`.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("refs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_cpi", "cycles/inst", "lower"),
    ("paper_err_pct", "%", "lower"),
];

/// Per-layer metrics: name, unit, direction. Printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str, &str); 46] = [
    ("trace.capture_s", "s", "lower"),
    ("trace.refs", "count", "lower"),
    ("trace.bytes", "bytes", "lower"),
    ("tracestore.get_s", "s", "lower"),
    ("tracestore.hits", "count", "higher"),
    ("core.build_s", "s", "lower"),
    ("core.system_step_self_s", "s", "lower"),
    ("core.hier_step_self_s", "s", "lower"),
    ("cachesim.access_s", "s", "lower"),
    ("cachesim.accesses", "count", "lower"),
    ("cachesim.l3_misses", "count", "lower"),
    ("cachesim.writebacks", "count", "lower"),
    ("cachesim.miss_ratio", "ratio", "lower"),
    ("memctrl.submit_s", "s", "lower"),
    ("memctrl.submit_calls", "count", "lower"),
    ("memctrl.advance_self_s", "s", "lower"),
    ("memctrl.advance_calls", "count", "lower"),
    ("memctrl.advance_calls_per_req", "ratio", "lower"),
    ("memctrl.verify_s", "s", "lower"),
    ("memctrl.correct_s", "s", "lower"),
    ("memctrl.writes", "count", "higher"),
    ("memctrl.reads", "count", "higher"),
    ("memctrl.read_forwards", "count", "higher"),
    ("memctrl.verification_ops", "count", "lower"),
    ("memctrl.correction_ops", "count", "lower"),
    ("memctrl.ecp_records", "count", "lower"),
    ("memctrl.prereads_issued", "count", "higher"),
    ("memctrl.drains", "count", "lower"),
    ("memctrl.write_cancellations", "count", "lower"),
    ("memctrl.useful_write_ratio", "ratio", "higher"),
    ("memctrl.read_latency_mean_cycles", "cycles", "lower"),
    ("memctrl.read_latency_p99_cycles", "cycles", "lower"),
    ("pcm.store_read_s", "s", "lower"),
    ("pcm.store_read_calls", "count", "lower"),
    ("pcm.store_write_s", "s", "lower"),
    ("pcm.store_write_calls", "count", "lower"),
    ("wd.draw_s", "s", "lower"),
    ("wd.draw_calls", "count", "lower"),
    ("engine.rng_draws", "count", "lower"),
    ("sweep.cells", "count", "higher"),
    ("sweep.busy_s", "s", "lower"),
    ("sweep.idle_s", "s", "lower"),
    ("sweep.cell_s_max", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulated cells attempted.
    pub attempted: u64,
    /// Cells that failed (see the module docs).
    pub failed: u64,
    /// Why cells failed, and any determinism mismatch.
    pub problems: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per the mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Digest of every cell's results; identical for a given code and
    /// seed.
    pub digest: u64,
    /// Settings the numbers came from.
    pub record: Vec<(&'static str, String)>,
    /// Outside spans, written out when the run ends.
    pub spans: Spans,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// One finished simulation: its statistics, PCM traffic, device content
/// digest, and references (or accesses) retired.
struct CellResult {
    stats: RunStats,
    traffic: (u64, u64),
    content: u64,
    retired: u64,
}

impl CellResult {
    /// Why the cell counts as failed, if it does.
    fn fault(&self, expect_retired: u64) -> Option<String> {
        if self.retired < expect_retired {
            return Some(format!(
                "{}/{} retired {} of {expect_retired}",
                self.stats.scheme, self.stats.workload, self.retired
            ));
        }
        let c = &self.stats.ctrl;
        [
            ("internal_anomalies", c.internal_anomalies.get()),
            ("cascade_overflows", c.cascade_overflows.get()),
            ("ecp_overflow_fixes", c.ecp_overflow_fixes.get()),
        ]
        .into_iter()
        .find(|&(_, v)| v != 0)
        .map(|(what, v)| format!("{}/{} {what} = {v}", self.stats.scheme, self.stats.workload))
    }

    fn digest_into(&self, h: &mut Fnv) {
        h.bytes(format!("{:?}", self.stats).as_bytes());
        h.u64(self.traffic.0);
        h.u64(self.traffic.1);
        h.u64(self.content);
    }
}

/// Records an attempted cell: counts it, checks it, returns it when it
/// passed.
fn account(out: &mut Outcome, res: Result<CellResult, String>, expect: u64) -> Option<CellResult> {
    out.attempted += 1;
    match res {
        Ok(cell) => match cell.fault(expect) {
            Some(why) => {
                out.fail(why);
                None
            }
            None => Some(cell),
        },
        Err(why) => {
            out.fail(why);
            None
        }
    }
}

fn err_text(e: SdpcmError) -> String {
    format!("simulation error: {e}")
}

/// Runs `rep` at least `min_reps` times, then while another repetition
/// (as long as the last one) would end less than half a repetition past
/// `seconds`.
fn repeat<T>(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut last = 0.0;
    while out.len() < min_reps || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
        let t = Instant::now();
        out.push(rep());
        last = t.elapsed().as_secs_f64();
    }
    out
}

/// `repeat`, with the calibration kernel timed before the first and
/// after every repetition: each output comes with the factor that turns
/// that repetition's host seconds into reference seconds.
fn calibrated_repeat<T>(
    seconds: f64,
    min_reps: usize,
    cal: &mut Calibrator,
    mut rep: impl FnMut() -> T,
) -> Vec<(T, f64)> {
    let mut before = cal.measure();
    repeat(seconds, min_reps, || {
        let value = rep();
        let after = cal.measure();
        let factor = calc::host_factor(calib::REFERENCE_S, before, after);
        before = after;
        (value, factor)
    })
}

/// Records the uncalibrated medians next to the calibrated metrics, and
/// the spread of the host factors they were scaled by.
fn record_host_times(out: &mut Outcome, setup: &[f64], wall: &[f64], factors: &[f64]) {
    let lo = factors.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = factors.iter().copied().fold(0.0, f64::max);
    out.record.push(("host_setup_s", format!("{:.6}", median_of(setup))));
    out.record.push(("host_wall_s", format!("{:.6}", median_of(wall))));
    out.record.push((
        "host_factor",
        format!("{:.4} (min {lo:.4}, max {hi:.4})", median_of(factors)),
    ));
}

fn median_of(values: &[f64]) -> f64 {
    calc::median(values).unwrap_or(f64::NAN)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Controller counters summed over cells.
#[derive(Default)]
struct CtrlSum {
    writes: u64,
    reads: u64,
    read_forwards: u64,
    verification_ops: u64,
    correction_ops: u64,
    ecp_records: u64,
    prereads_issued: u64,
    drains: u64,
    write_cancellations: u64,
    read_latency_total: u64,
    latency: QuantileSketch,
    demand_reqs: u64,
}

impl CtrlSum {
    fn add(&mut self, s: &RunStats) {
        let c = &s.ctrl;
        self.writes += c.writes.get();
        self.reads += c.reads.get();
        self.read_forwards += c.read_forwards.get();
        self.verification_ops += c.verification_ops.get();
        self.correction_ops += c.correction_ops.get();
        self.ecp_records += c.ecp_records.get();
        self.prereads_issued += c.prereads_issued.get();
        self.drains += c.drains.get();
        self.write_cancellations += c.write_cancellations.get();
        self.read_latency_total += c.read_latency_total.0;
        self.latency.merge(&c.read_latency_sketch);
        self.demand_reqs += s.reads + s.writes;
    }
}

/// Everything one traced repetition measured, from which the per-layer
/// metrics are derived.
#[derive(Default)]
struct LayerSample {
    /// Profiler totals by site: `(calls, nanoseconds)`.
    sites: BTreeMap<&'static str, (u64, u64)>,
    capture_s: f64,
    trace_refs: u64,
    trace_bytes: u64,
    get_s: f64,
    hits: u64,
    build_s: f64,
    ctrl: CtrlSum,
    l3_misses: u64,
    writebacks: u64,
    accesses: u64,
    sweep_cells: u64,
    sweep_busy_s: f64,
    sweep_idle_s: f64,
    sweep_cell_s_max: f64,
}

impl LayerSample {
    fn take_profile(&mut self) {
        for site in prof::report() {
            self.sites.insert(site.name, (site.calls, site.total_ns));
        }
    }

    fn calls(&self, site: &str) -> f64 {
        self.sites.get(site).map_or(0.0, |s| s.0 as f64)
    }

    fn secs(&self, site: &str) -> f64 {
        self.sites.get(site).map_or(0.0, |s| s.1 as f64 * 1e-9)
    }

    /// Every per-layer metric except the `bench.*` overhead figures;
    /// layers a workload does not touch read as measured (zero).
    fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let totals: BTreeMap<&str, u64> = self.sites.iter().map(|(k, v)| (*k, v.1)).collect();
        let selfs = calc::self_times_s(&totals);
        let c = &self.ctrl;
        let reads = c.reads as f64;
        let mut m = BTreeMap::new();
        let mut put = |k: &'static str, v: f64| {
            m.insert(k, v);
        };
        put("trace.capture_s", self.capture_s);
        put("trace.refs", self.trace_refs as f64);
        put("trace.bytes", self.trace_bytes as f64);
        put("tracestore.get_s", self.get_s);
        put("tracestore.hits", self.hits as f64);
        put("core.build_s", self.build_s);
        put("core.system_step_self_s", selfs["system_step"]);
        put("core.hier_step_self_s", selfs["hier_step"]);
        put("cachesim.access_s", self.secs("cache_access"));
        put("cachesim.accesses", self.calls("cache_access"));
        put("cachesim.l3_misses", self.l3_misses as f64);
        put("cachesim.writebacks", self.writebacks as f64);
        put(
            "cachesim.miss_ratio",
            if self.accesses == 0 {
                0.0
            } else {
                self.l3_misses as f64 / self.accesses as f64
            },
        );
        put("memctrl.submit_s", self.secs("ctrl_submit"));
        put("memctrl.submit_calls", self.calls("ctrl_submit"));
        put("memctrl.advance_self_s", selfs["ctrl"]);
        put("memctrl.advance_calls", self.calls("ctrl_advance"));
        put(
            "memctrl.advance_calls_per_req",
            if c.demand_reqs == 0 {
                0.0
            } else {
                self.calls("ctrl_advance") / c.demand_reqs as f64
            },
        );
        put("memctrl.verify_s", self.secs("ctrl_verify"));
        put("memctrl.correct_s", self.secs("ctrl_correct"));
        put("memctrl.writes", c.writes as f64);
        put("memctrl.reads", reads);
        put("memctrl.read_forwards", c.read_forwards as f64);
        put("memctrl.verification_ops", c.verification_ops as f64);
        put("memctrl.correction_ops", c.correction_ops as f64);
        put("memctrl.ecp_records", c.ecp_records as f64);
        put("memctrl.prereads_issued", c.prereads_issued as f64);
        put("memctrl.drains", c.drains as f64);
        put("memctrl.write_cancellations", c.write_cancellations as f64);
        put(
            "memctrl.useful_write_ratio",
            calc::useful_write_ratio(c.writes, c.correction_ops),
        );
        put(
            "memctrl.read_latency_mean_cycles",
            if c.reads == 0 {
                0.0
            } else {
                c.read_latency_total as f64 / reads
            },
        );
        put(
            "memctrl.read_latency_p99_cycles",
            c.latency.quantile(0.99) as f64,
        );
        put("pcm.store_read_s", self.secs("store_read"));
        put("pcm.store_read_calls", self.calls("store_read"));
        put("pcm.store_write_s", self.secs("store_write"));
        put("pcm.store_write_calls", self.calls("store_write"));
        put("wd.draw_s", self.secs("wd_draw"));
        put("wd.draw_calls", self.calls("wd_draw"));
        put("engine.rng_draws", self.calls("rng_draws"));
        put("sweep.cells", self.sweep_cells as f64);
        put("sweep.busy_s", self.sweep_busy_s);
        put("sweep.idle_s", self.sweep_idle_s);
        put("sweep.cell_s_max", self.sweep_cell_s_max);
        m
    }
}

/// Median of each per-layer metric over the traced repetitions, plus the
/// tracing overhead (traced over untraced wall time).
fn layer_medians(
    samples: &[LayerSample],
    traced_wall: &[f64],
    untraced_wall: &[f64],
) -> BTreeMap<&'static str, f64> {
    let per_rep: Vec<BTreeMap<&'static str, f64>> =
        samples.iter().map(LayerSample::metrics).collect();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = per_rep.first() {
        for k in first.keys() {
            let vals: Vec<f64> = per_rep.iter().map(|r| r[k]).collect();
            m.insert(k, median_of(&vals));
        }
    }
    let traced = median_of(traced_wall);
    let untraced = median_of(untraced_wall);
    m.insert("bench.traced_wall_s", traced);
    m.insert("bench.untraced_wall_s", untraced);
    m.insert("bench.trace_overhead", traced / untraced);
    m
}

/// Runs one workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, nproc: usize) -> Outcome {
    prof::set_enabled(false);
    prof::reset();
    let mut out = Outcome::default();
    out.record.push(("workload", kind.name().to_owned()));
    out.record.push(("seed", seed.to_string()));
    out.record.push(("nproc", nproc.to_string()));
    out.record
        .push(("sweep_workers", kind.sweep_workers(nproc).to_string()));
    out.record.push(("cell_workers", "1".to_owned()));
    out.record.push(("seconds", seconds.to_string()));
    out.record.push(("trace", u8::from(traced).to_string()));
    match kind {
        Kind::SysMcf => sys_mcf(&mut out, seed, seconds, traced),
        Kind::HierWrf => hier_wrf(&mut out, seed, seconds, traced),
        Kind::Fig11Sweep => fig11_sweep(&mut out, seed, seconds, traced, kind.sweep_workers(nproc)),
    }
    if !traced {
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// One repetition of a single-cell workload: the cell (or why it
/// failed), its set-up seconds and its timed seconds.
type Rep = (Result<CellResult, String>, f64, f64);

/// Drives a single-cell workload. `rep` sets up and runs the cell once
/// (filling the layer sample when one is given); `accuracy` gives
/// `(sim_cpi, paper_err_pct)` from a checked cell. One untimed warm-up
/// repetition absorbs first-touch page faults and allocator growth.
fn single_cell(
    out: &mut Outcome,
    seconds: f64,
    traced: bool,
    per_core: u64,
    rep: impl Fn(Option<&mut LayerSample>) -> Rep,
    accuracy: impl Fn(&CellResult) -> (f64, f64),
) {
    let expect = CORES * per_core;
    let mut digests = Vec::new();
    let mut check = |out: &mut Outcome, res| {
        let cell = account(out, res, expect)?;
        let mut h = Fnv::default();
        cell.digest_into(&mut h);
        digests.push(h.finish());
        Some(cell)
    };
    let (warm, _, _) = rep(None);
    let warm = check(out, warm);
    if traced {
        let untraced = repeat(seconds / 2.0, 3, || {
            let (res, _, run_s) = rep(None);
            check(out, res);
            run_s
        });
        let mut samples = Vec::new();
        let traced_wall = repeat(seconds / 2.0, 3, || {
            let mut sample = LayerSample::default();
            prof::reset();
            prof::set_enabled(true);
            let (res, _, run_s) = rep(Some(&mut sample));
            prof::set_enabled(false);
            sample.take_profile();
            check(out, res);
            samples.push(sample);
            run_s
        });
        out.metrics = layer_medians(&samples, &traced_wall, &untraced);
    } else {
        let mut cal = Calibrator::new();
        let times = calibrated_repeat(seconds, 3, &mut cal, || {
            let (res, setup_s, run_s) = rep(None);
            check(out, res);
            (setup_s, run_s)
        });
        let host_setup: Vec<f64> = times.iter().map(|t| t.0 .0).collect();
        let host_wall: Vec<f64> = times.iter().map(|t| t.0 .1).collect();
        let factors: Vec<f64> = times.iter().map(|t| t.1).collect();
        record_host_times(out, &host_setup, &host_wall, &factors);
        let setup: Vec<f64> = times.iter().map(|t| t.0 .0 * t.1).collect();
        let wall: Vec<f64> = times.iter().map(|t| t.0 .1 * t.1).collect();
        let wall_s = median_of(&wall);
        out.metrics.insert("wall_s", wall_s);
        out.metrics.insert("setup_s", median_of(&setup));
        out.metrics
            .insert("refs_per_s", calc::refs_per_s(CORES, per_core, 1, wall_s));
        if let Some(cell) = &warm {
            let (cpi, err) = accuracy(cell);
            out.metrics.insert("sim_cpi", cpi);
            out.metrics.insert("paper_err_pct", err);
        }
    }
    out.record.push(("reps", digests.len().to_string()));
    finish_digests(out, &digests);
}

/// Sets the run's digest and flags any repetition that disagreed.
fn finish_digests(out: &mut Outcome, digests: &[u64]) {
    if let Some(&first) = digests.first() {
        out.digest = first;
        if digests.iter().any(|&d| d != first) {
            out.problems
                .push("repetitions of the same seed produced different results".to_owned());
        }
    }
}

/// Runs a built simulator inside a `run` span; returns the cell and the
/// run's seconds.
fn run_cell<S>(
    spans: &Spans,
    parent: usize,
    sim: Result<S, SdpcmError>,
    run: impl FnOnce(&mut S) -> Result<RunStats, SdpcmError>,
    finish: impl FnOnce(&S, RunStats) -> CellResult,
) -> (Result<CellResult, String>, f64) {
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => return (Err(err_text(e)), 0.0),
    };
    let (stats, run_s) = spans.time("run", Some(parent), |_| run(&mut sim));
    (stats.map(|st| finish(&sim, st)).map_err(err_text), run_s)
}

// ---------------------------------------------------------------- sys-mcf

/// A finished full-system cell: every issued reference is retired.
fn system_cell(sim: &SystemSim, stats: RunStats) -> CellResult {
    CellResult {
        retired: stats.reads + stats.writes,
        traffic: (stats.reads, stats.writes),
        content: sim.controller().store().content_digest(),
        stats,
    }
}

/// Capture, build and run the mcf cell once, inside spans.
fn mcf_rep(seed: u64, spans: &Spans, sample: Option<&mut LayerSample>) -> Rep {
    let params = ExperimentParams {
        seed,
        refs_per_core: MCF_REFS_PER_CORE,
        ..ExperimentParams::bench_default()
    };
    let workload = Workload::homogeneous(BenchKind::Mcf);
    let root = spans.open("workload sys-mcf", None);
    let setup = spans.open("setup", Some(root));
    let (trace, capture_s) = spans.time("capture", Some(setup), |_| {
        Arc::new(RefTrace::capture(&workload, seed, MCF_REFS_PER_CORE))
    });
    let (sim, build_s) = spans.time("build", Some(setup), |_| {
        SystemSim::build_replay(&Scheme::lazyc_preread(), &workload, &params, &trace)
    });
    spans.close(setup);
    let (res, run_s) = run_cell(spans, root, sim, SystemSim::run, system_cell);
    spans.close(root);
    if let Some(s) = sample {
        s.capture_s = capture_s;
        s.trace_refs = trace.total_refs();
        s.trace_bytes = trace.to_bytes().len() as u64;
        s.build_s = build_s;
        if let Ok(cell) = &res {
            s.ctrl.add(&cell.stats);
        }
    }
    (res, capture_s + build_s, run_s)
}

fn sys_mcf(out: &mut Outcome, seed: u64, seconds: f64, traced: bool) {
    out.record
        .push(("refs_per_core", MCF_REFS_PER_CORE.to_string()));
    out.record.push(("scheme", Scheme::lazyc_preread().name));
    let spans = std::mem::take(&mut out.spans);
    let rep = |sample: Option<&mut LayerSample>| mcf_rep(seed, &spans, sample);
    single_cell(out, seconds, traced, MCF_REFS_PER_CORE, rep, |cell| {
        let c = &cell.stats.ctrl;
        let err = calc::mean_abs_rel_err_pct(&[
            (c.wl_errors.mean(), calc::FIG4_PAPER_WL),
            (c.bl_errors_per_neighbor.mean(), calc::FIG4_PAPER_BL),
        ]);
        (cell.stats.cpi(), err.unwrap_or(f64::NAN))
    });
    out.spans = spans;
}

// --------------------------------------------------------------- hier-wrf

/// Build (caches empty) and run the wrf hierarchy once, inside spans.
fn wrf_rep(seed: u64, spans: &Spans, sample: Option<&mut LayerSample>) -> Rep {
    let params = ExperimentParams {
        seed,
        ..ExperimentParams::bench_default()
    };
    let hparams = HierarchyParams {
        accesses_per_core: WRF_ACCESSES_PER_CORE,
        ..HierarchyParams::table2()
    };
    let root = spans.open("workload hier-wrf", None);
    let setup = spans.open("setup", Some(root));
    // `build` gives every core a fresh, empty Table 2 cache stack.
    let (sim, build_s) = spans.time("build", Some(setup), |_| {
        HierarchySim::build(Scheme::lazyc_preread(), BenchKind::Wrf, &params, &hparams)
    });
    spans.close(setup);
    let (res, run_s) = run_cell(spans, root, sim, HierarchySim::run, |sim, stats| {
        CellResult {
            // Every retired access adds exactly `insts_per_access`.
            retired: stats.instructions / hparams.insts_per_access,
            traffic: sim.pcm_traffic(),
            content: sim.controller().store().content_digest(),
            stats,
        }
    });
    spans.close(root);
    if let Some(s) = sample {
        s.build_s = build_s;
        s.accesses = CORES * WRF_ACCESSES_PER_CORE;
        if let Ok(cell) = &res {
            s.ctrl.add(&cell.stats);
            (s.l3_misses, s.writebacks) = cell.traffic;
        }
    }
    (res, build_s, run_s)
}

fn hier_wrf(out: &mut Outcome, seed: u64, seconds: f64, traced: bool) {
    out.record
        .push(("accesses_per_core", WRF_ACCESSES_PER_CORE.to_string()));
    out.record.push(("scheme", Scheme::lazyc_preread().name));
    out.record
        .push(("caches", "Table 2, starting empty".to_owned()));
    let spans = std::mem::take(&mut out.spans);
    let rep = |sample: Option<&mut LayerSample>| wrf_rep(seed, &spans, sample);
    single_cell(out, seconds, traced, WRF_ACCESSES_PER_CORE, rep, |cell| {
        let rpki = cell.stats.reads as f64 * 1000.0 / cell.stats.instructions as f64;
        let err = calc::mean_abs_rel_err_pct(&[(rpki, calc::TABLE3_WRF_RPKI)]);
        (cell.stats.cpi(), err.unwrap_or(f64::NAN))
    });
    out.spans = spans;
}

// ------------------------------------------------------------ fig11-sweep

fn fig11_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        refs_per_core: FIG11_REFS_PER_CORE,
        ..ExperimentParams::bench_default()
    }
}

/// Figure 11's cells in `experiments::fig11`'s order: per benchmark, the
/// baseline normalization run, then every non-baseline scheme.
fn fig11_cells(schemes: &[Scheme]) -> Vec<(&Scheme, BenchKind)> {
    let baseline = schemes
        .iter()
        .find(|s| s.name == "baseline")
        .expect("figure 11 compares against the baseline");
    let mut cells = Vec::new();
    for b in BenchKind::all() {
        cells.push((baseline, b));
        for s in schemes.iter().filter(|s| s.name != "baseline") {
            cells.push((s, b));
        }
    }
    cells
}

/// Figure 11's set-up work on its own: capture the nine traces into a
/// fresh store and build (then drop) the 63 simulators.
fn fig11_setup(seed: u64, spans: &Spans) -> Result<f64, String> {
    let params = fig11_params(seed);
    let schemes = Scheme::figure11_set();
    let (res, secs) = spans.time("setup", None, |_| {
        let store = TraceStore::in_memory();
        for (scheme, bench) in fig11_cells(&schemes) {
            let workload = Workload::homogeneous(bench);
            let trace = store.get(&workload, params.seed, params.refs_per_core);
            SystemSim::build_replay(scheme, &workload, &params, &trace).map_err(err_text)?;
        }
        Ok::<(), String>(())
    });
    res.map(|()| secs)
}

/// Runs the 63 cells through `sweep::parallel_map` on an in-memory
/// trace store — the composition `experiments::fig11` uses — with one
/// span per cell and per call inside it. Returns each cell's result and
/// fills `sample`'s sweep, trace-store and build figures.
fn fig11_cells_pass(
    seed: u64,
    workers: usize,
    spans: &Spans,
    sample: &mut LayerSample,
) -> (Vec<Result<CellResult, String>>, f64) {
    let params = fig11_params(seed);
    let schemes = Scheme::figure11_set();
    let cells = fig11_cells(&schemes);
    let store = TraceStore::in_memory();
    let first = spans.snapshot().len();
    let sweep = spans.open("sweep fig11", None);
    let results = parallel_map(&cells, workers, |&(scheme, bench)| {
        let name = format!("cell {}/{}", scheme.name, bench.name());
        let cell = spans.open(&name, Some(sweep));
        let res = catch_unwind(AssertUnwindSafe(|| {
            let workload = Workload::homogeneous(bench);
            let (trace, _) = spans.time(
                &format!("tracestore.get {}", bench.name()),
                Some(cell),
                |_| store.get(&workload, params.seed, params.refs_per_core),
            );
            let (sim, _) = spans.time("build", Some(cell), |_| {
                SystemSim::build_replay(scheme, &workload, &params, &trace)
            });
            run_cell(spans, cell, sim, SystemSim::run, system_cell).0
        }))
        .unwrap_or_else(|_| Err(format!("{name} panicked")));
        spans.close(cell);
        res
    });
    let wall_s = spans.close(sweep);

    // Sweep, trace-store and build figures from this pass's spans.
    let list = spans.snapshot();
    let mut first_get: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let mut gets = 0u64;
    for s in &list[first..] {
        if s.name.starts_with("cell ") {
            sample.sweep_cells += 1;
            sample.sweep_busy_s += s.secs();
            sample.sweep_cell_s_max = sample.sweep_cell_s_max.max(s.secs());
        } else if let Some(bench) = s.name.strip_prefix("tracestore.get ") {
            gets += 1;
            sample.get_s += s.secs();
            // The first caller per key captures; later callers share it.
            let e = first_get.entry(bench).or_insert((s.start_ns, s.secs()));
            if s.start_ns < e.0 {
                *e = (s.start_ns, s.secs());
            }
        } else if s.name == "build" {
            sample.build_s += s.secs();
        }
    }
    sample.hits = gets - first_get.len() as u64;
    sample.capture_s = first_get.values().map(|v| v.1).sum();
    sample.sweep_idle_s = calc::sweep_idle_s(workers, wall_s, sample.sweep_busy_s);
    for b in BenchKind::all() {
        let trace = store.get(&Workload::homogeneous(b), params.seed, params.refs_per_core);
        sample.trace_refs += trace.total_refs();
        sample.trace_bytes += trace.to_bytes().len() as u64;
    }
    for cell in results.iter().flatten() {
        sample.ctrl.add(&cell.stats);
    }
    (results, wall_s)
}

/// Figure 11 rows recomputed from checked cells exactly as
/// `experiments::fig11` computes them; `None` if any cell failed.
fn fig11_rows_from(cells: &[Result<CellResult, String>]) -> Option<Vec<Fig11Row>> {
    let schemes = Scheme::figure11_set();
    let stride = schemes.len();
    let mut rows = Vec::new();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (bi, b) in BenchKind::all().into_iter().enumerate() {
        let chunk: Vec<&CellResult> = cells[bi * stride..(bi + 1) * stride]
            .iter()
            .map(|c| c.as_ref().ok())
            .collect::<Option<_>>()?;
        let base = &chunk[0].stats;
        let mut measured = chunk[1..].iter();
        let mut speedups = Vec::new();
        for (i, s) in schemes.iter().enumerate() {
            let v = if s.name == "baseline" {
                1.0
            } else {
                measured.next()?.stats.speedup_vs(base)
            };
            per_scheme[i].push(v);
            speedups.push((s.name.clone(), v));
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
    Some(rows)
}

/// Checks a pass's cells, folds them into the digest, and returns the
/// rows they give.
fn check_pass(
    out: &mut Outcome,
    cells: Vec<Result<CellResult, String>>,
) -> (Option<Vec<Fig11Row>>, Vec<f64>, u64) {
    let expect = CORES * FIG11_REFS_PER_CORE;
    let mut h = Fnv::default();
    let mut cpis = Vec::new();
    let mut checked = Vec::with_capacity(cells.len());
    for res in cells {
        let cell = account(out, res, expect);
        if let Some(c) = &cell {
            c.digest_into(&mut h);
            cpis.push(c.stats.cpi());
        }
        checked.push(cell.ok_or_else(String::new));
    }
    let rows = fig11_rows_from(&checked);
    if let Some(rows) = &rows {
        for row in rows {
            for (_, v) in &row.speedups {
                h.u64(v.to_bits());
            }
        }
    }
    (rows, cpis, h.finish())
}

/// Counts a timed `fig11` call's cells: all 63 fail if the call
/// panicked; otherwise a cell fails when its speedup is not finite and
/// positive (a baseline cell, when its benchmark has no valid speedup).
fn account_fig11_call(out: &mut Outcome, call: &Result<Vec<Fig11Row>, String>, cells: u64) {
    match call {
        Err(why) => {
            out.attempted += cells;
            out.failed += cells;
            out.problems.push(why.clone());
        }
        Ok(rows) => {
            for row in rows.iter().filter(|r| r.bench != "gmean") {
                let bad = |v: f64| !(v.is_finite() && v > 0.0);
                let measured: Vec<f64> = row
                    .speedups
                    .iter()
                    .filter(|(n, _)| n != "baseline")
                    .map(|&(_, v)| v)
                    .collect();
                out.attempted += 1 + measured.len() as u64;
                let failed = measured.iter().filter(|&&v| bad(v)).count() as u64;
                let base_failed = u64::from(measured.iter().all(|&v| bad(v)));
                if failed + base_failed > 0 {
                    out.failed += failed + base_failed;
                    out.problems
                        .push(format!("fig11 {}: {failed} invalid speedups", row.bench));
                }
            }
        }
    }
}

fn fig11_sweep(out: &mut Outcome, seed: u64, seconds: f64, traced: bool, workers: usize) {
    let params = fig11_params(seed);
    let n_cells = fig11_cells(&Scheme::figure11_set()).len() as u64;
    out.record
        .push(("refs_per_core", FIG11_REFS_PER_CORE.to_string()));
    out.record.push(("cells", n_cells.to_string()));
    out.record.push(("trace_store", "in-memory".to_owned()));
    let spans = std::mem::take(&mut out.spans);
    let mut digests = Vec::new();
    if traced {
        let untraced = repeat(seconds / 2.0, 1, || {
            let (cells, wall) =
                fig11_cells_pass(seed, workers, &spans, &mut LayerSample::default());
            digests.push(check_pass(out, cells).2);
            wall
        });
        let mut samples = Vec::new();
        let traced_wall = repeat(seconds / 2.0, 1, || {
            let mut sample = LayerSample::default();
            prof::reset();
            prof::set_enabled(true);
            let (cells, wall) = fig11_cells_pass(seed, workers, &spans, &mut sample);
            prof::set_enabled(false);
            sample.take_profile();
            digests.push(check_pass(out, cells).2);
            samples.push(sample);
            wall
        });
        out.metrics = layer_medians(&samples, &traced_wall, &untraced);
        out.record.push(("reps", digests.len().to_string()));
    } else {
        let mut cal = Calibrator::new();
        let mut setup = Vec::new();
        for (res, factor) in
            calibrated_repeat(0.0, FIG11_SETUP_REPS, &mut cal, || fig11_setup(seed, &spans))
        {
            match res {
                Ok(s) => setup.push((s, factor)),
                Err(why) => out.problems.push(why),
            }
        }
        let mut calls = Vec::new();
        let wall = calibrated_repeat(seconds, 2, &mut cal, || {
            let (call, secs) = spans.time("fig11", None, |_| {
                catch_unwind(|| fig11(&params))
                    .map_err(|_| "experiments::fig11 panicked".to_owned())
            });
            account_fig11_call(out, &call, n_cells);
            calls.push(call);
            secs
        });
        // Untimed check: rerun the cells one by one through the same
        // composition and require the timed calls' rows to match them
        // bit for bit. Further seeds derived from the run's seed are
        // checked the same way and averaged into the accuracy metrics.
        let mut cpis = Vec::new();
        let mut gmeans = Vec::new();
        let mut accuracy_seeds = Vec::new();
        for k in 0..FIG11_ACCURACY_SEEDS {
            let s = calc::derived_seed(seed, k);
            accuracy_seeds.push(s.to_string());
            let (cells, _) = fig11_cells_pass(s, workers, &spans, &mut LayerSample::default());
            let (rows, pass_cpis, d) = check_pass(out, cells);
            cpis.extend(pass_cpis);
            if k == 0 {
                digests.push(d);
                match &rows {
                    Some(rows) if calls.iter().all(|c| c.as_ref().is_ok_and(|r| r == rows)) => {}
                    _ => out
                        .problems
                        .push("experiments::fig11 rows differ from the checked cells".to_owned()),
                }
            }
            if let Some(gmean) = rows.and_then(|mut r| r.pop()) {
                gmeans.push(gmean.speedups);
            }
        }
        let factors: Vec<f64> = setup.iter().chain(&wall).map(|t| t.1).collect();
        let host = |v: &[(f64, f64)]| v.iter().map(|t| t.0).collect::<Vec<f64>>();
        record_host_times(out, &host(&setup), &host(&wall), &factors);
        let scaled = |v: &[(f64, f64)]| v.iter().map(|t| t.0 * t.1).collect::<Vec<f64>>();
        let wall_s = median_of(&scaled(&wall));
        out.metrics.insert("wall_s", wall_s);
        out.metrics.insert("setup_s", median_of(&scaled(&setup)));
        out.metrics.insert(
            "refs_per_s",
            calc::refs_per_s(CORES, FIG11_REFS_PER_CORE, n_cells, wall_s),
        );
        let complete = gmeans.len() as u64 == FIG11_ACCURACY_SEEDS;
        out.metrics.insert(
            "sim_cpi",
            if complete {
                geometric_mean(&cpis)
            } else {
                f64::NAN
            },
        );
        out.metrics.insert(
            "paper_err_pct",
            calc::mean_rows(&gmeans)
                .filter(|_| complete)
                .and_then(|g| calc::fig11_paper_err_pct(&g))
                .unwrap_or(f64::NAN),
        );
        out.record
            .push(("accuracy_seeds", accuracy_seeds.join(",")));
        out.record.push(("reps", calls.len().to_string()));
    }
    finish_digests(out, &digests);
    out.spans = spans;
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn contract_lists_every_metric_with_its_unit() {
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(CONTRACT.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            CONTRACT.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for kind in [Kind::SysMcf, Kind::HierWrf, Kind::Fig11Sweep] {
            assert!(CONTRACT.contains(&format!("{{\"name\": \"{}\"", kind.name())));
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn sweep_workers_never_exceed_nproc() {
        for nproc in 1..=8 {
            for kind in [Kind::SysMcf, Kind::HierWrf, Kind::Fig11Sweep] {
                assert!(kind.sweep_workers(nproc) <= nproc);
            }
        }
        assert_eq!(Kind::Fig11Sweep.sweep_workers(8), 2);
    }

    fn row(bench: &str, speedups: &[f64]) -> Fig11Row {
        Fig11Row {
            bench: bench.to_owned(),
            speedups: std::iter::once(("baseline".to_owned(), 1.0))
                .chain(speedups.iter().map(|&v| ("s".to_owned(), v)))
                .collect(),
        }
    }

    #[test]
    fn fig11_call_accounting() {
        let mut out = Outcome::default();
        let rows = vec![
            row("a", &[1.2, 1.1]),
            row("b", &[f64::NAN, 0.9]),
            row("gmean", &[1.0, 1.0]),
        ];
        account_fig11_call(&mut out, &Ok(rows), 6);
        assert_eq!((out.attempted, out.failed), (6, 1));

        let mut out = Outcome::default();
        account_fig11_call(&mut out, &Ok(vec![row("c", &[0.0, -1.0])]), 3);
        assert_eq!(
            (out.attempted, out.failed),
            (3, 3),
            "baseline fails with every speedup"
        );

        let mut out = Outcome::default();
        account_fig11_call(&mut out, &Err("panicked".to_owned()), 63);
        assert_eq!((out.attempted, out.failed), (63, 63));
    }

    #[test]
    fn repeat_honours_min_reps_and_deadline() {
        let mut n = 0;
        assert_eq!(repeat(0.0, 3, || n += 1).len(), 3);
        assert_eq!(n, 3);
        // A second 30 ms repetition would end past the 40 ms deadline by
        // more than half a repetition, so it is not started.
        let slow = || std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(repeat(0.04, 1, slow).len(), 1);
    }
}
