//! Full cache-hierarchy mode: drive the controller through L1/L2/L3.
//!
//! The paper's simulator models the whole hierarchy (Table 2) and
//! captures the post-cache reference stream with PIN. The benches use the
//! post-cache mode directly (`SystemSim`); this example runs the other
//! front end, `HierarchySim`: each core's load/store stream is filtered
//! through its own cache stack, and only L3 misses and dirty L3
//! write-backs become PCM traffic.
//!
//! ```text
//! cargo run --release --example hierarchy_mode
//! ```

use sdpcm::core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm::core::{ExperimentParams, Scheme};
use sdpcm::trace::BenchKind;

fn main() {
    // Scaled-down caches so the example produces PCM traffic (write-backs
    // included) quickly; HierarchyParams::table2() gives the paper's real
    // sizes.
    let hparams = HierarchyParams {
        accesses_per_core: 10_000,
        ..HierarchyParams::quick_test()
    };
    let mut sim = HierarchySim::build(
        Scheme::lazyc_preread(),
        BenchKind::Wrf,
        &ExperimentParams::quick_test(),
        &hparams,
    )
    .expect("the quick-test device holds eight wrf working sets");
    let stats = sim.run().expect("the hierarchy run completes");

    // Every L3 miss and dirty eviction reaches the controller as exactly
    // one demand request.
    let (fills, writebacks) = sim.pcm_traffic();
    assert_eq!((fills, writebacks), (stats.reads, stats.writes));

    println!(
        "hierarchy filtering of {} core accesses ({}):",
        8 * hparams.accesses_per_core,
        stats.workload
    );
    println!("  -> PCM demand fills: {fills}, PCM write-backs: {writebacks}");
    println!(
        "  execution: {} cycles, CPI {:.3}",
        stats.total_cycles,
        stats.cpi()
    );
    let s = &stats.ctrl;
    println!("\ncontroller under that traffic (LazyC+PreRead on 4F2):");
    println!("  array writes committed: {}", s.writes);
    println!("  verification reads:     {}", s.verification_ops);
    println!("  WD errors buffered:     {}", s.ecp_records);
    println!("  corrections:            {}", s.correction_ops);
}
