//! The benchmark's own arithmetic: medians, digests, the paper-accuracy
//! metrics, throughput units, sweep idle time, and layer self times
//! derived from the profiler's per-site totals.
//!
//! Everything here is a pure function so the unit tests at the bottom
//! pin the numbers the benchmark reports.

use std::collections::BTreeMap;

/// Median of `values` (mean of the two middle values for an even
/// count). Returns `None` for an empty slice or any non-finite value.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// FNV-1a over a byte stream, for result digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes one little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Figure 11 of the paper: geometric-mean speedups over basic VnC of the
/// six non-baseline schemes, read off the figure's bars (EXPERIMENTS.md),
/// keyed by the simulator's scheme names. `(1:2)Alloc` is drawn at the
/// DIN bar's height.
pub const FIG11_PAPER: [(&str, f64); 6] = [
    ("DIN", 1.45),
    ("LazyC", 1.21),
    ("LazyC+PreRead", 1.30),
    ("LazyC+(2:3)", 1.31),
    ("LazyC+PreRead+(2:3)", 1.37),
    ("(1:2)Alloc", 1.45),
];

/// Figure 4 of the paper: average WD errors per line write — word-line
/// errors inside the written line (after DIN) and bit-line errors per
/// adjacent line.
pub const FIG4_PAPER_WL: f64 = 0.4;
/// See [`FIG4_PAPER_WL`].
pub const FIG4_PAPER_BL: f64 = 2.0;

/// Table 3 of the paper: wrf's main-memory reads per thousand
/// instructions.
pub const TABLE3_WRF_RPKI: f64 = 0.14;

/// Mean absolute relative error of `measured` against `paper`, in
/// percent. Pairs are `(measured, paper)`; `None` when empty or when a
/// paper value is not positive.
pub fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() || pairs.iter().any(|&(_, p)| p <= 0.0) {
        return None;
    }
    let sum: f64 = pairs.iter().map(|&(m, p)| ((m - p) / p).abs()).sum();
    Some(100.0 * sum / pairs.len() as f64)
}

/// `paper_err_pct` of a Figure 11 sweep: the mean absolute relative
/// error of the gmean row's six non-baseline speedups against
/// [`FIG11_PAPER`]. `None` when a scheme is missing from `gmean`.
pub fn fig11_paper_err_pct(gmean: &[(String, f64)]) -> Option<f64> {
    let pairs: Option<Vec<(f64, f64)>> = FIG11_PAPER
        .iter()
        .map(|&(name, paper)| {
            gmean
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, ours)| (ours, paper))
        })
        .collect();
    mean_abs_rel_err_pct(&pairs?)
}

/// The `k`-th seed derived from a run's seed (`k = 0` is the seed
/// itself), for metrics averaged over several inputs.
pub fn derived_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Per-name mean of several `(name, value)` rows that list the same
/// names in the same order; `None` when empty or the names disagree.
pub fn mean_rows(rows: &[Vec<(String, f64)>]) -> Option<Vec<(String, f64)>> {
    let first = rows.first()?;
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let vals: Option<Vec<f64>> = rows
                .iter()
                .map(|r| r.get(i).filter(|(n, _)| n == name).map(|&(_, v)| v))
                .collect();
            vals.map(|v| (name.clone(), v.iter().sum::<f64>() / v.len() as f64))
        })
        .collect()
}

/// Input references simulated per host second: `cores × per_core ×
/// cells` references over `wall_s`. Post-cache references for the
/// full-system workloads, cache accesses for the hierarchy workload.
pub fn refs_per_s(cores: u64, per_core: u64, cells: u64, wall_s: f64) -> f64 {
    (cores * per_core * cells) as f64 / wall_s
}

/// The factor that turns a repetition's host seconds into reference
/// seconds: the calibration kernel's reference time over the mean of its
/// times right before and right after the repetition (`calib`).
pub fn host_factor(reference_s: f64, before_s: f64, after_s: f64) -> f64 {
    2.0 * reference_s / (before_s + after_s)
}

/// Sweep idle time: worker-seconds the pool had (`workers × wall_s`)
/// minus the seconds its workers spent inside cells. Clamped at zero
/// against clock granularity.
pub fn sweep_idle_s(workers: usize, wall_s: f64, busy_s: f64) -> f64 {
    (workers as f64 * wall_s - busy_s).max(0.0)
}

/// Which profiler sites each layer's self time subtracts, read off the
/// probe placement in the simulator:
///
/// * `system_step` (the post-cache event-loop body) calls
///   `MemoryController::submit` (`ctrl_submit`) and `advance_into`
///   (`ctrl_advance`); its payload synthesis also reads the store
///   directly (`store_read`), which totals cannot separate from the
///   controller's reads, so those reads stay in the step's self time.
/// * `hier_step` additionally calls the cache stacks (`cache_access`).
/// * The controller's entry points (`ctrl_submit`, `ctrl_advance`)
///   contain `ctrl_verify` and `ctrl_correct` (same layer, not
///   subtracted) and every device (`store_read`, `store_write`) and
///   injector (`wd_draw`) probe, including those nested in verify and
///   correct.
pub const NESTING: [(&str, &[&str], &[&str]); 3] = [
    (
        "system_step",
        &["system_step"],
        &["ctrl_submit", "ctrl_advance"],
    ),
    (
        "hier_step",
        &["hier_step"],
        &["cache_access", "ctrl_submit", "ctrl_advance"],
    ),
    (
        "ctrl",
        &["ctrl_submit", "ctrl_advance"],
        &["store_read", "store_write", "wd_draw"],
    ),
];

/// Self time of each [`NESTING`] layer: the summed totals of its own
/// sites minus the summed totals of the sites nested in them, clamped
/// at zero. `totals_ns` maps a site name to its nanoseconds; absent
/// sites count as zero.
pub fn self_times_s(totals_ns: &BTreeMap<&str, u64>) -> BTreeMap<&'static str, f64> {
    let get = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| totals_ns.get(n).copied().unwrap_or(0))
            .sum()
    };
    NESTING
        .iter()
        .map(|&(layer, own, nested)| {
            let ns = get(own).saturating_sub(get(nested));
            (layer, ns as f64 * 1e-9)
        })
        .collect()
}

/// Demand writes as a share of all array writes the controller
/// programmed for them (demand writes plus correction writes).
pub fn useful_write_ratio(writes: u64, corrections: u64) -> f64 {
    if writes + corrections == 0 {
        return 0.0;
    }
    writes as f64 / (writes + corrections) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn median_odd_even_and_rejects() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn paper_err_matches_experiments_table() {
        // The simulator's own default-scale gmean row in EXPERIMENTS.md:
        // DIN 1.70, LazyC 1.26, LazyC+PreRead 1.38, LazyC+(2:3) 1.44,
        // LazyC+PreRead+(2:3) 1.54, (1:2)Alloc 1.71.
        let ours: Vec<(String, f64)> = [
            ("DIN", 1.70),
            ("baseline", 1.0),
            ("LazyC", 1.26),
            ("LazyC+PreRead", 1.38),
            ("LazyC+(2:3)", 1.44),
            ("LazyC+PreRead+(2:3)", 1.54),
            ("(1:2)Alloc", 1.71),
        ]
        .iter()
        .map(|&(n, v)| (n.to_owned(), v))
        .collect();
        let expect = 100.0 / 6.0
            * (0.25 / 1.45 + 0.05 / 1.21 + 0.08 / 1.30 + 0.13 / 1.31 + 0.17 / 1.37 + 0.26 / 1.45);
        let got = fig11_paper_err_pct(&ours).expect("all schemes present");
        assert!(close(got, expect), "{got} vs {expect}");
        assert!((got - 11.2985).abs() < 1e-3, "{got}");
        // Matching the paper exactly scores zero; a missing scheme fails.
        let exact: Vec<(String, f64)> = FIG11_PAPER
            .iter()
            .map(|&(n, v)| (n.to_owned(), v))
            .collect();
        assert_eq!(fig11_paper_err_pct(&exact), Some(0.0));
        assert_eq!(fig11_paper_err_pct(&exact[1..]), None);
    }

    #[test]
    fn derived_seeds_start_at_the_seed_and_differ() {
        assert_eq!(derived_seed(42, 0), 42);
        assert_ne!(derived_seed(42, 1), derived_seed(42, 2));
        assert_eq!(
            derived_seed(u64::MAX, 1),
            u64::MAX.wrapping_add(0x9e37_79b9_7f4a_7c15)
        );
    }

    #[test]
    fn mean_rows_averages_by_name() {
        let row = |a: f64, b: f64| vec![("DIN".to_owned(), a), ("LazyC".to_owned(), b)];
        let m = mean_rows(&[row(1.0, 2.0), row(3.0, 4.0)]).unwrap();
        assert_eq!(m, row(2.0, 3.0));
        assert_eq!(mean_rows(&[]), None);
        let swapped = vec![("LazyC".to_owned(), 1.0), ("DIN".to_owned(), 1.0)];
        assert_eq!(mean_rows(&[row(1.0, 2.0), swapped]), None);
    }

    #[test]
    fn mean_abs_rel_err_is_symmetric_in_sign() {
        let e = mean_abs_rel_err_pct(&[(0.3, 0.4), (2.5, 2.0)]).unwrap();
        assert!(close(e, 25.0), "{e}");
        assert_eq!(mean_abs_rel_err_pct(&[]), None);
        assert_eq!(mean_abs_rel_err_pct(&[(1.0, 0.0)]), None);
    }

    #[test]
    fn refs_per_s_units_per_workload() {
        // sys-mcf: one cell, eight cores of post-cache refs.
        assert!(close(refs_per_s(8, 25_000, 1, 2.0), 100_000.0));
        // hier-wrf: cache accesses, eight cores, one cell.
        assert!(close(refs_per_s(8, 100_000, 1, 0.4), 2_000_000.0));
        // fig11-sweep: 63 cells of post-cache refs.
        assert!(close(refs_per_s(8, 4_000, 63, 4.0), 504_000.0));
    }

    #[test]
    fn host_factor_rescales_to_the_reference() {
        // A host at the reference speed leaves the time alone.
        assert!(close(host_factor(0.06, 0.06, 0.06), 1.0));
        // A host slowed by a quarter on both sides scales times by 0.8.
        assert!(close(0.5 * host_factor(0.06, 0.075, 0.075), 0.4));
        // The two kernel runs around a repetition are averaged.
        assert!(close(host_factor(0.06, 0.05, 0.07), 1.0));
    }

    #[test]
    fn sweep_idle_is_pool_time_minus_busy() {
        assert!(close(sweep_idle_s(2, 10.0, 18.5), 1.5));
        assert!(close(sweep_idle_s(1, 3.0, 3.0), 0.0));
        // Clock granularity can make busy exceed the pool by a hair.
        assert_eq!(sweep_idle_s(2, 1.0, 2.000_001), 0.0);
    }

    #[test]
    fn self_times_subtract_nested_sites() {
        let totals: BTreeMap<&str, u64> = [
            ("system_step", 10_000),
            ("ctrl_submit", 1_000),
            ("ctrl_advance", 6_000),
            ("ctrl_verify", 800),
            ("ctrl_correct", 400),
            ("store_read", 1_500),
            ("store_write", 900),
            ("wd_draw", 600),
            ("rng_draws", 0),
        ]
        .into_iter()
        .collect();
        let s = self_times_s(&totals);
        assert!(close(s["system_step"], 3_000e-9));
        assert!(close(s["ctrl"], 4_000e-9));
        // No hierarchy sites: zero, not missing.
        assert_eq!(s["hier_step"], 0.0);
        // Conservation: the step's self time, the controller's self time
        // and the leaves add back up to the outermost site.
        let leaves = 1_500 + 900 + 600;
        assert!(close(
            s["system_step"] + s["ctrl"] + leaves as f64 * 1e-9,
            10_000e-9
        ));
    }

    #[test]
    fn self_times_clamp_and_cover_the_hierarchy() {
        let totals: BTreeMap<&str, u64> = [
            ("hier_step", 5_000),
            ("cache_access", 3_000),
            ("ctrl_advance", 2_500),
        ]
        .into_iter()
        .collect();
        let s = self_times_s(&totals);
        assert_eq!(s["hier_step"], 0.0, "overlap clamps at zero");
        assert!(close(s["ctrl"], 2_500e-9));
    }

    #[test]
    fn useful_write_ratio_counts_corrections_as_waste() {
        assert!(close(useful_write_ratio(90, 10), 0.9));
        assert_eq!(useful_write_ratio(0, 0), 0.0);
    }

    #[test]
    fn fnv_is_stable() {
        let mut a = Fnv::default();
        a.bytes(b"sdpcm");
        a.u64(7);
        let mut b = Fnv::default();
        b.bytes(b"sdpcm");
        b.u64(7);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), Fnv::default().finish());
    }
}
