//! Absolute content-digest goldens.
//!
//! The relative goldens (`tests/replay_golden.rs`, `tests/parallel_sweep.rs`)
//! pin that two ways of running the same simulation agree; this file pins
//! the simulation *output itself*, for both front ends. Any change that touches an RNG draw,
//! the draw-derivation scheme, or the simulated write path will move
//! these constants — that is the point. Such a change invalidates every
//! externally recorded digest at once and must be deliberate: update the
//! constants here in the same commit and call the migration out in
//! DESIGN.md ("Golden migrations").
//!
//! Last re-pin: the counter-based (Philox4x32-10) RNG swap. Pre-swap
//! values for this exact configuration were 0x3b33be6fbee0e0a7
//! (baseline) and 0xe88236832b4cb32a (LazyC+PreRead).

use sdpcm_core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm_core::{ExperimentParams, Scheme, SystemSim};
use sdpcm_trace::BenchKind;

#[test]
fn content_digests_match_pinned_goldens() {
    let params = ExperimentParams {
        refs_per_core: 400,
        ..ExperimentParams::quick_test()
    };
    let golden: [(Scheme, u64, u64); 2] = [
        (Scheme::baseline(), 0xf3b068afa82ce015, 1477),
        (Scheme::lazyc_preread(), 0xa9c2762e21858575, 1477),
    ];
    for (scheme, digest, writes) in golden {
        let mut sim = SystemSim::build(&scheme, BenchKind::Mcf, &params).unwrap();
        let stats = sim.run().unwrap();
        assert_eq!(
            sim.controller().store().content_digest(),
            digest,
            "{}: content digest moved — an RNG-affecting change must re-pin \
             this golden deliberately (see module docs)",
            scheme.name
        );
        assert_eq!(stats.ctrl.writes.get(), writes, "{}", scheme.name);
    }
}

#[test]
fn hierarchy_content_digests_match_pinned_goldens() {
    // The hierarchy front end has no second path to cross-check against,
    // so its live cache simulation is pinned absolutely.
    let golden: [(Scheme, u64, (u64, u64)); 2] = [
        (Scheme::baseline(), 0x311a3704e86ccdee, (11996, 3247)),
        (Scheme::lazyc_preread(), 0xbe85c139025b5d29, (11996, 3247)),
    ];
    for (scheme, digest, traffic) in golden {
        let name = scheme.name.clone();
        let mut sim = HierarchySim::build(
            scheme,
            BenchKind::Mcf,
            &ExperimentParams::quick_test(),
            &HierarchyParams::quick_test(),
        )
        .unwrap();
        sim.run().unwrap();
        assert_eq!(
            sim.controller().store().content_digest(),
            digest,
            "{name}: hierarchy content digest moved (see module docs)"
        );
        assert_eq!(sim.pcm_traffic(), traffic, "{name}");
    }
}
