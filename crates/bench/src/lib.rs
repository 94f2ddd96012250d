#![warn(missing_docs)]

//! The SD-PCM benchmark harness.
//!
//! Two consumers share this crate:
//!
//! * the **`figures` binary** (`cargo run -p sdpcm-bench --release --bin
//!   figures -- all`) regenerates every table and figure of the paper as
//!   aligned text, using [`sdpcm_core::experiments`];
//! * the **Criterion benches** (`cargo bench`) measure the simulator's
//!   throughput on each figure's scenario, one bench target per
//!   table/figure (see `benches/`).
//!
//! [`render`] turns experiment rows into [`TextTable`]s;
//! [`params`] centralizes the reference counts used at each scale.

use sdpcm_core::ExperimentParams;
use sdpcm_engine::TextTable;

pub mod render;

/// Scales at which experiments run.
pub mod params {
    use super::ExperimentParams;

    /// Full harness scale (the `figures` binary).
    #[must_use]
    pub fn harness() -> ExperimentParams {
        ExperimentParams {
            refs_per_core: 25_000,
            ..ExperimentParams::quick_test()
        }
    }

    /// Criterion scale: small enough that one sample is sub-second.
    #[must_use]
    pub fn criterion() -> ExperimentParams {
        ExperimentParams {
            refs_per_core: 1_000,
            ..ExperimentParams::quick_test()
        }
    }
}

/// Every figure/table id the harness can regenerate.
pub const ALL_FIGURES: &[&str] = &[
    "table1", "capacity", "fig4", "fig5", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19",
];

/// A rendered figure: the aligned table plus, for single-series figures,
/// an ASCII bar chart.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The aligned text table (always present).
    pub table: TextTable,
    /// A horizontal bar chart of the figure's main series, if it has one.
    pub bars: Option<String>,
}

/// Renders the figure with the given id at the given scale.
///
/// # Panics
///
/// Panics on an unknown id (see [`ALL_FIGURES`]).
#[must_use]
pub fn render_figure(id: &str, params: &ExperimentParams) -> TextTable {
    render_figure_full(id, params).table
}

/// Like [`render_figure`], but also returns the bar chart for figures
/// with a single numeric series (`cargo run … figures -- --bars`).
///
/// # Panics
///
/// Panics on an unknown id (see [`ALL_FIGURES`]).
#[must_use]
pub fn render_figure_full(id: &str, params: &ExperimentParams) -> Rendered {
    match id {
        "table1" => plain(render::table1()),
        "capacity" => plain(render::capacity()),
        "fig4" => plain(render::fig4(params)),
        "fig5" => plain(render::fig5(params)),
        "fig11" => plain(render::fig11(params)),
        "fig12" => charted(render::fig12_full(params)),
        "fig13" => charted(render::fig13_full(params)),
        "fig14" => charted(render::fig14_full(params)),
        "fig15" => charted(render::fig15_full(params)),
        "fig16" => charted(render::fig16_full(params)),
        "fig17" => charted(render::fig17_full(params)),
        "fig18" => charted(render::fig18_full(params)),
        "fig19" => plain(render::fig19(params)),
        other => panic!("unknown figure id {other:?}; known: {ALL_FIGURES:?}"),
    }
}

fn plain(table: TextTable) -> Rendered {
    Rendered { table, bars: None }
}

fn charted((table, series): (TextTable, Vec<(String, f64)>)) -> Rendered {
    let bars = sdpcm_engine::table::bar_chart(&series, 40);
    Rendered {
        table,
        bars: Some(bars),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_figures_render() {
        // The two analytic (non-simulation) targets render instantly.
        let t1 = render_figure("table1", &params::criterion());
        assert_eq!(t1.len(), 2);
        let cap = render_figure("capacity", &params::criterion());
        assert!(!cap.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_id_panics() {
        let _ = render_figure("fig99", &params::criterion());
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids = ALL_FIGURES.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_FIGURES.len());
    }
}
