//! Regenerates the paper's tables and figures as aligned text.
//!
//! ```text
//! cargo run -p sdpcm-bench --release --bin figures -- all
//! cargo run -p sdpcm-bench --release --bin figures -- fig11 fig12
//! cargo run -p sdpcm-bench --release --bin figures -- --quick all
//! cargo run -p sdpcm-bench --release --bin figures -- --refs 50000 fig11
//! ```

use std::time::Instant;

use sdpcm_bench::{params, render_figure_full, ALL_FIGURES};
use sdpcm_core::ExperimentParams;

const FIGURE_TITLES: &[(&str, &str)] = &[
    ("table1", "Table 1: disturbance probability for 4F2 cells"),
    ("capacity", "Section 6.1: capacity and chip-area comparison"),
    ("fig4", "Figure 4: WD errors when writing a PCM line"),
    ("fig5", "Figure 5: VnC overhead at runtime"),
    (
        "fig11",
        "Figure 11: system performance under different schemes",
    ),
    ("fig12", "Figure 12: ECP entries vs correction operations"),
    ("fig13", "Figure 13: ECP entries vs system performance"),
    ("fig14", "Figure 14: performance across the DIMM lifetime"),
    ("fig15", "Figure 15: write queue sizes in LazyC+PreRead"),
    (
        "fig16",
        "Figure 16: performance under different (n:m) allocators",
    ),
    (
        "fig17",
        "Figure 17: normalized lifetime degradation on data chips",
    ),
    (
        "fig18",
        "Figure 18: normalized lifetime degradation on ECP chip",
    ),
    (
        "fig19",
        "Figure 19: integrating LazyC with write cancellation",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut p = params::harness();
    let mut bars = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => p = params::quick(),
            "--bars" => bars = true,
            "--refs" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--refs takes a positive integer");
                p = ExperimentParams {
                    refs_per_core: v,
                    ..p
                };
            }
            "--seed" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
                p = ExperimentParams { seed: v, ..p };
            }
            "all" => wanted.extend(ALL_FIGURES.iter().map(|s| (*s).to_owned())),
            other if ALL_FIGURES.contains(&other) => wanted.push(other.to_owned()),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: figures [--quick] [--bars] [--refs N] [--seed S] [all|{ALL_FIGURES:?}]"
                );
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_FIGURES.iter().map(|s| (*s).to_owned()));
    }
    wanted.dedup();

    println!(
        "SD-PCM reproduction harness (seed={}, refs/core={})",
        p.seed, p.refs_per_core
    );
    for id in wanted {
        let title = FIGURE_TITLES
            .iter()
            .find(|(k, _)| *k == id)
            .map_or(id.as_str(), |(_, t)| *t);
        println!("\n=== {title} ===");
        let started = Instant::now();
        let rendered = render_figure_full(&id, &p);
        println!("{}", rendered.table);
        if bars {
            if let Some(chart) = rendered.bars {
                println!("{chart}");
            }
        }
        println!(
            "[{id} regenerated in {:.1}s]",
            started.elapsed().as_secs_f32()
        );
    }
}
