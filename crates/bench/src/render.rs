//! Table renderers: experiment rows → aligned text.

use sdpcm_core::experiments as exp;
use sdpcm_core::ExperimentParams;
use sdpcm_engine::table::{f3, pct};
use sdpcm_engine::TextTable;
use sdpcm_osalloc::NmRatio;
use sdpcm_pcm::capacity;

/// Table 1: disturbance probability for 4F² cells.
#[must_use]
pub fn table1() -> TextTable {
    let mut t = TextTable::new(&["Between two cells along", "Temp", "Error rate (SLC)"]);
    for row in exp::table1() {
        t.row_owned(vec![
            row.direction,
            format!("{:.0} C", row.temp_c),
            pct(row.error_rate),
        ]);
    }
    t
}

/// §6.1 capacity/area analytics.
#[must_use]
pub fn capacity() -> TextTable {
    let mut t = TextTable::new(&["quantity", "value", "paper"]);
    let c = capacity::equal_area_comparison();
    t.row_owned(vec![
        "SD-PCM capacity (equal array area)".into(),
        format!("{:.2} GB", c.sd_pcm_gb),
        "4 GB".into(),
    ]);
    t.row_owned(vec![
        "DIN capacity (equal array area)".into(),
        format!("{:.2} GB", c.din_gb),
        "2.22 GB".into(),
    ]);
    t.row_owned(vec![
        "capacity improvement".into(),
        pct(c.improvement),
        "80%".into(),
    ]);
    let (din_chips, sd_chips, reduction) = capacity::equal_size_chip_comparison();
    t.row_owned(vec![
        "chips for 4 GB (DIN vs SD-PCM)".into(),
        format!("{din_chips} vs {sd_chips}"),
        "18 vs 10".into(),
    ]);
    t.row_owned(vec![
        "equal-size-chip count reduction".into(),
        pct(reduction),
        "~38-44%".into(),
    ]);
    t.row_owned(vec![
        "big-chip area reduction".into(),
        pct(capacity::big_chip_area_reduction()),
        "~20%".into(),
    ]);
    t
}

/// Figure 4: WD errors per line write.
#[must_use]
pub fn fig4(params: &ExperimentParams) -> TextTable {
    let mut t = TextTable::new(&["bench", "WL avg", "WL max", "BL avg", "BL max"]);
    for r in exp::fig4(params) {
        t.row_owned(vec![
            r.bench,
            f3(r.wl_avg),
            r.wl_max.to_string(),
            f3(r.bl_avg),
            r.bl_max.to_string(),
        ]);
    }
    t
}

/// Figure 5: VnC overhead split.
#[must_use]
pub fn fig5(params: &ExperimentParams) -> TextTable {
    let mut t = TextTable::new(&["bench", "verification", "correction", "total slowdown"]);
    for r in exp::fig5(params) {
        t.row_owned(vec![
            r.bench,
            pct(r.verification),
            pct(r.correction),
            pct(r.total),
        ]);
    }
    t
}

/// Figure 11: speedups normalized to baseline.
#[must_use]
pub fn fig11(params: &ExperimentParams) -> TextTable {
    let rows = exp::fig11(params);
    let mut header: Vec<String> = vec!["bench".into()];
    if let Some(first) = rows.first() {
        header.extend(first.speedups.iter().map(|(n, _)| n.clone()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = TextTable::new(&header_refs);
    for r in rows {
        let mut cells = vec![r.bench];
        cells.extend(r.speedups.iter().map(|(_, v)| f3(*v)));
        t.row_owned(cells);
    }
    t
}

fn ecp_sweep(params: &ExperimentParams) -> Vec<exp::EcpSweepRow> {
    exp::fig12_13(params, &[0, 2, 4, 6, 8, 10])
}

/// Figure 12: corrections per write vs ECP entries, with its bar-chart series.
#[must_use]
pub fn fig12(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["ECP entries", "corrections/write"]);
    let mut series = Vec::new();
    for r in ecp_sweep(params) {
        t.row_owned(vec![
            format!("ECP-{}", r.entries),
            f3(r.corrections_per_write),
        ]);
        series.push((format!("ECP-{}", r.entries), r.corrections_per_write));
    }
    (t, series)
}

/// Figure 13: speedup vs ECP entries, with its bar-chart series.
#[must_use]
pub fn fig13(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["ECP entries", "speedup vs ECP-0"]);
    let mut series = Vec::new();
    for r in ecp_sweep(params) {
        t.row_owned(vec![format!("ECP-{}", r.entries), f3(r.speedup_vs_ecp0)]);
        series.push((format!("ECP-{}", r.entries), r.speedup_vs_ecp0));
    }
    (t, series)
}

/// Figure 14: performance over the DIMM lifetime, with its bar-chart series.
#[must_use]
pub fn fig14(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["lifetime consumed", "speedup vs fresh"]);
    let mut series = Vec::new();
    for r in exp::fig14(params, &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]) {
        t.row_owned(vec![pct(r.age), f3(r.speedup_vs_fresh)]);
        series.push((pct(r.age), r.speedup_vs_fresh));
    }
    (t, series)
}

/// Figure 15: write-queue-size sensitivity, with its bar-chart series.
#[must_use]
pub fn fig15(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["write queue entries", "LazyC+PreRead speedup vs DIN"]);
    let mut series = Vec::new();
    for r in exp::fig15(params, &[8, 16, 32, 64]) {
        t.row_owned(vec![r.queue_size.to_string(), f3(r.speedup_vs_din)]);
        series.push((format!("WQ{}", r.queue_size), r.speedup_vs_din));
    }
    (t, series)
}

/// Figure 16: (n:m) ratio sensitivity, with its bar-chart series.
#[must_use]
pub fn fig16(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["allocator", "speedup vs DIN", "usable capacity"]);
    let mut series = Vec::new();
    let ratios = [
        NmRatio::one_two(),
        NmRatio::two_three(),
        NmRatio::three_four(),
        NmRatio::one_one(),
    ];
    for r in exp::fig16(params, &ratios) {
        t.row_owned(vec![
            r.ratio.to_string(),
            f3(r.speedup_vs_din),
            pct(r.capacity_fraction),
        ]);
        series.push((r.ratio.to_string(), r.speedup_vs_din));
    }
    (t, series)
}

/// Figure 17: data-chip lifetime, with its bar-chart series.
#[must_use]
pub fn fig17(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["bench", "normalized data-chip lifetime"]);
    let mut series = Vec::new();
    for r in exp::fig17_18(params) {
        t.row_owned(vec![r.bench.clone(), pct(r.data_lifetime)]);
        series.push((r.bench, r.data_lifetime));
    }
    (t, series)
}

/// Figure 18: ECP-chip lifetime, with its bar-chart series.
#[must_use]
pub fn fig18(params: &ExperimentParams) -> (TextTable, Vec<(String, f64)>) {
    let mut t = TextTable::new(&["bench", "normalized ECP-chip lifetime"]);
    let mut series = Vec::new();
    for r in exp::fig17_18(params) {
        t.row_owned(vec![r.bench.clone(), pct(r.ecp_lifetime)]);
        series.push((r.bench, r.ecp_lifetime));
    }
    (t, series)
}

/// Figure 19: write-cancellation integration.
#[must_use]
pub fn fig19(params: &ExperimentParams) -> TextTable {
    let mut t = TextTable::new(&["bench", "VnC", "WC", "LazyC", "WC+LazyC"]);
    for r in exp::fig19(params) {
        t.row_owned(vec![
            r.bench,
            "1.000".into(),
            f3(r.wc),
            f3(r.lazyc),
            f3(r.wc_lazyc),
        ]);
    }
    t
}
