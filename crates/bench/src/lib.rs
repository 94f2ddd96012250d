#![warn(missing_docs)]

//! The SD-PCM benchmark harness.
//!
//! The **`figures` binary** (`cargo run -p sdpcm-bench --release --bin
//! figures -- all`) regenerates every table and figure of the paper as
//! aligned text, using [`sdpcm_core::experiments`]. Simulator throughput
//! is measured by the separate `perfbench/` crate, not here.
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

    /// Quick scale (`figures --quick`): every figure in seconds.
    #[must_use]
    pub fn quick() -> ExperimentParams {
        ExperimentParams {
            refs_per_core: 1_000,
            ..ExperimentParams::quick_test()
        }
    }
}

/// A rendered figure: the aligned table plus, for single-series figures,
/// an ASCII bar chart.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The aligned text table (always present).
    pub table: TextTable,
    /// A horizontal bar chart of the figure's main series, if it has one.
    pub bars: Option<String>,
}

/// One table or figure the harness can regenerate.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The id named on the `figures` command line.
    pub id: &'static str,
    /// The heading printed above the rendered table.
    pub title: &'static str,
    render: fn(&ExperimentParams) -> Rendered,
}

impl Figure {
    /// Renders the figure at the given scale.
    #[must_use]
    pub fn render(&self, params: &ExperimentParams) -> Rendered {
        (self.render)(params)
    }
}

/// Every table and figure the harness can regenerate, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "table1",
        title: "Table 1: disturbance probability for 4F2 cells",
        render: |_| plain(render::table1()),
    },
    Figure {
        id: "capacity",
        title: "Section 6.1: capacity and chip-area comparison",
        render: |_| plain(render::capacity()),
    },
    Figure {
        id: "fig4",
        title: "Figure 4: WD errors when writing a PCM line",
        render: |p| plain(render::fig4(p)),
    },
    Figure {
        id: "fig5",
        title: "Figure 5: VnC overhead at runtime",
        render: |p| plain(render::fig5(p)),
    },
    Figure {
        id: "fig11",
        title: "Figure 11: system performance under different schemes",
        render: |p| plain(render::fig11(p)),
    },
    Figure {
        id: "fig12",
        title: "Figure 12: ECP entries vs correction operations",
        render: |p| charted(render::fig12(p)),
    },
    Figure {
        id: "fig13",
        title: "Figure 13: ECP entries vs system performance",
        render: |p| charted(render::fig13(p)),
    },
    Figure {
        id: "fig14",
        title: "Figure 14: performance across the DIMM lifetime",
        render: |p| charted(render::fig14(p)),
    },
    Figure {
        id: "fig15",
        title: "Figure 15: write queue sizes in LazyC+PreRead",
        render: |p| charted(render::fig15(p)),
    },
    Figure {
        id: "fig16",
        title: "Figure 16: performance under different (n:m) allocators",
        render: |p| charted(render::fig16(p)),
    },
    Figure {
        id: "fig17",
        title: "Figure 17: normalized lifetime degradation on data chips",
        render: |p| charted(render::fig17(p)),
    },
    Figure {
        id: "fig18",
        title: "Figure 18: normalized lifetime degradation on ECP chip",
        render: |p| charted(render::fig18(p)),
    },
    Figure {
        id: "fig19",
        title: "Figure 19: integrating LazyC with write cancellation",
        render: |p| plain(render::fig19(p)),
    },
];

/// The figure with the given id, if the harness has one.
#[must_use]
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// Every figure id, in [`FIGURES`] order.
#[must_use]
pub fn figure_ids() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.id).collect()
}

/// Renders the figure with the given id at the given scale: its table
/// and, for figures with a single numeric series, its bar chart
/// (`cargo run … figures -- --bars`).
///
/// # Panics
///
/// Panics on an unknown id (see [`FIGURES`]).
#[must_use]
pub fn render_figure_full(id: &str, params: &ExperimentParams) -> Rendered {
    match figure(id) {
        Some(f) => f.render(params),
        None => panic!("unknown figure id {id:?}; known: {:?}", figure_ids()),
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
        let t1 = render_figure_full("table1", &params::quick()).table;
        assert_eq!(t1.len(), 2);
        let cap = render_figure_full("capacity", &params::quick()).table;
        assert!(!cap.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_id_panics() {
        let _ = render_figure_full("fig99", &params::quick());
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids = figure_ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len());
    }
}
