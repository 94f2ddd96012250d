//! Regenerates the paper's tables and figures as aligned text.
//!
//! ```text
//! cargo run -p sdpcm-bench --release --bin figures -- all
//! cargo run -p sdpcm-bench --release --bin figures -- fig11 fig12
//! cargo run -p sdpcm-bench --release --bin figures -- --quick all
//! cargo run -p sdpcm-bench --release --bin figures -- --refs 50000 fig11
//! ```

use std::time::Instant;

use sdpcm_bench::{figure, figure_ids, params, Figure, FIGURES};
use sdpcm_core::ExperimentParams;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut p = params::harness();
    let mut bars = false;
    let mut wanted: Vec<&Figure> = Vec::new();
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
            "all" => wanted.extend(FIGURES),
            other => match figure(other) {
                Some(fig) => wanted.push(fig),
                None => {
                    eprintln!("unknown argument {other:?}");
                    eprintln!(
                        "usage: figures [--quick] [--bars] [--refs N] [--seed S] [all|{:?}]",
                        figure_ids()
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    if wanted.is_empty() {
        wanted.extend(FIGURES);
    }
    wanted.dedup_by_key(|f| f.id);

    println!(
        "SD-PCM reproduction harness (seed={}, refs/core={})",
        p.seed, p.refs_per_core
    );
    for fig in wanted {
        println!("\n=== {} ===", fig.title);
        let started = Instant::now();
        let rendered = fig.render(&p);
        println!("{}", rendered.table);
        if bars {
            if let Some(chart) = rendered.bars {
                println!("{chart}");
            }
        }
        println!(
            "[{} regenerated in {:.1}s]",
            fig.id,
            started.elapsed().as_secs_f32()
        );
    }
}
