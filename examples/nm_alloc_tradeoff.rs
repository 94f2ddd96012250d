//! The (n:m)-Alloc dial: trading memory capacity for VnC overhead.
//!
//! Runs a write-intensive workload under basic VnC with each allocator
//! ratio and prints the performance/capacity trade-off of §4.4 — the
//! knob an OS can turn per application priority.
//!
//! ```text
//! cargo run --release --example nm_alloc_tradeoff
//! ```

use sdpcm::core::experiments::run_cell;
use sdpcm::core::{ExperimentParams, Scheme};
use sdpcm::osalloc::{NmRatio, VerifyPolicy};
use sdpcm::trace::BenchKind;

fn main() {
    let params = ExperimentParams {
        refs_per_core: 5_000,
        ..ExperimentParams::quick_test()
    };
    let bench = BenchKind::Lbm;

    println!(
        "(n:m)-Alloc trade-off on {} (write-intensive)\n",
        bench.name()
    );

    let din = run_cell(&Scheme::din(), bench, &params);
    let policy = VerifyPolicy::new(1 << 20);

    println!("allocator  usable capacity  adj. lines verified/write  speedup vs DIN");
    for ratio in [
        NmRatio::one_one(),
        NmRatio::three_four(),
        NmRatio::two_three(),
        NmRatio::one_two(),
    ] {
        let r = run_cell(&Scheme::baseline_with_ratio(ratio), bench, &params);
        println!(
            "{:<10} {:>8.1}%          {:>4.2}                      {:.3}",
            ratio.to_string(),
            ratio.capacity_fraction() * 100.0,
            policy.mean_interior_verifications(ratio),
            r.speedup_vs(&din),
        );
    }

    println!(
        "\nreading the dial: (1:2) wastes half the capacity but needs no VnC at all\n\
         (every data strip is isolated by a thermal band); (1:1) keeps everything\n\
         and pays for verifying both neighbours of every write. The OS can pick\n\
         per process — §4.4 integrates this with the buddy allocator, and the\n\
         4-bit tag travels through the page table to the controller."
    );
}
