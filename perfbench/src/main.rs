//! End-to-end and per-layer benchmark of the SD-PCM simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sys-mcf|hier-wrf|fig11-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs, prints every
//! metric by name with its unit, and prints as the last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The same record and the run's outside spans are written
//! under `perfbench/out/`. See `perfbench/README.md`.

mod calc;
mod calib;
mod record;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Kind, END_TO_END, PER_LAYER};

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

/// Pins the simulator's parallelism knobs and clears the ones that
/// would change what is measured: an on-disk trace cache, an ambient
/// profiler switch, a host-core override.
fn discipline_env(kind: Kind, nproc: usize) {
    for var in ["SDPCM_TRACE_DIR", "SDPCM_PROF", "SDPCM_HOST_CORES"] {
        std::env::remove_var(var);
    }
    std::env::set_var("SDPCM_CELL_WORKERS", "1");
    std::env::set_var("SDPCM_SWEEP_WORKERS", kind.sweep_workers(nproc).to_string());
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    discipline_env(args.kind, nproc);

    let outcome = workloads::run(args.kind, args.seed, args.seconds, args.traced, nproc);

    let table: &[(&str, &str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|&(name, unit, _)| {
            (
                name,
                outcome.metrics.get(name).copied().unwrap_or(f64::NAN),
                unit,
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.problems.is_empty();

    for (key, value) in &outcome.record {
        println!("# {key}: {value}");
    }
    println!("# result_digest: {:016x}", outcome.digest);
    for why in &outcome.problems {
        println!("# problem: {why}");
    }
    for &(name, value, unit) in &metrics {
        println!(
            "{:<40} {value:>16.6} {unit}",
            format!("{}/{name}", args.kind.name())
        );
    }
    let Some(line) = record::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    else {
        eprintln!("perfbench: a metric could not be measured (no successful repetition)");
        return ExitCode::from(1);
    };

    let dir = out_dir();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.kind.name(),
        args.seed,
        u8::from(args.traced)
    );
    let mut file = String::new();
    for (key, value) in &outcome.record {
        file.push_str(&format!("# {key}: {value}\n"));
    }
    file.push_str(&format!(
        "# result_digest: {:016x}\n{line}\n",
        outcome.digest
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), file))
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}-spans.json")),
                outcome.spans.to_json(),
            )
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}
